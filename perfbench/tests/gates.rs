//! The benchmark's correctness gates must catch what they claim to.

use std::time::Duration;

use perfbench::jni_load::{build_vm, oob_probe, Fixture, JniWorkload, SchemeKind};
use perfbench::span::{Name, Off, On};

#[test]
fn oob_probe_catches_a_vm_without_protection() {
    assert!(!oob_probe(&build_vm(SchemeKind::Unprotected, false)));
}

#[test]
fn oob_probe_does_not_accept_release_time_detection() {
    // Guarded copy reports the overflow at release, not at the access.
    assert!(!oob_probe(&build_vm(SchemeKind::Guarded, false)));
}

#[test]
fn oob_probe_passes_under_mte4jni_sync_traced_or_not() {
    assert!(oob_probe(&build_vm(SchemeKind::Mte4Jni, false)));
    assert!(oob_probe(&build_vm(SchemeKind::Mte4Jni, true)));
}

#[test]
fn both_kernels_compute_correct_results_on_every_scheme() {
    for kind in [
        SchemeKind::Mte4Jni,
        SchemeKind::Unprotected,
        SchemeKind::Guarded,
    ] {
        for workload in [JniWorkload::Small, JniWorkload::Bulk] {
            let fx = Fixture::new(kind, false, 7, 2, workload);
            let s = fx.run::<Off>(workload, 2, Duration::from_millis(60), 7);
            assert!(s.calls > 0, "{kind:?} {workload:?} ran nothing");
            assert_eq!(s.failed, 0, "{kind:?} {workload:?}");
        }
    }
}

#[test]
fn traced_small_calls_record_one_span_tree_per_call() {
    let fx = Fixture::new(SchemeKind::Mte4Jni, true, 3, 2, JniWorkload::Small);
    let s = fx.run::<On>(JniWorkload::Small, 2, Duration::from_millis(60), 3);
    assert_eq!(s.failed, 0);
    for name in Name::ALL {
        assert_eq!(s.spans.count(name), s.calls, "{name:?}");
    }
    let self_sum: u64 = Name::ALL.iter().map(|&n| s.spans.self_ns(n)).sum();
    assert_eq!(
        self_sum,
        s.spans.total_ns(Name::Call),
        "self times partition the call span"
    );
}
