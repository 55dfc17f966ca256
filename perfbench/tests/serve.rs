//! The serving fleet's gates pass on a light, clean load.
#![cfg(feature = "serve")]

use std::time::Duration;

use perfbench::serve_load::{oob_probe, Fleet};
use perfbench::span::On;

#[test]
fn a_light_open_loop_passes_every_fleet_gate() {
    let mut fleet = Fleet::new(5, 2, 2_000, 200);
    let mut p = fleet.phase::<On>(5_000.0, Duration::from_millis(200), Duration::from_secs(1));
    assert!(p.attempted > 0);
    assert_eq!(p.bad, 0);
    assert!(p.meets(Duration::from_millis(50)));
    let (gates, [shed, _, failed]) = fleet.gates();
    assert!(gates.iter().all(|(_, ok)| *ok), "{gates:?}");
    assert_eq!((shed, failed), (0, 0));
    assert!(fleet.server.tenants().iter().all(oob_probe));
}
