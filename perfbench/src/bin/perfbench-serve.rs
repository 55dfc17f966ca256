//! `serve-open`, and the serving side of the per-layer ledger.
//!
//! ```text
//! perfbench-serve --workload serve-open|ledger|calibrate --seed N --seconds S [--out FILE]
//! ```
//!
//! `calibrate` prints latency against offered rate, the measurement the
//! latency limit and the rate ladder below were fixed from.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use perfbench::serve_load::{oob_probe, Fleet, Phase, KINDS};
use perfbench::span::{Off, On};
use perfbench::{median, nproc, quantile, rss_peak_mb, trimmed_mean, Cli, Report};
use server::{Tenant, TenantConfig};
use telemetry::json::JsonValue;

/// Set-ups per round; the last one serves the round and `setup_s` is
/// the median over all rounds.
const SETUPS_PER_ROUND: usize = 3;
/// Requests generated per set-up; phases wrap around the stream.
const STREAM: usize = 200_000;
/// Requests served back to back to warm up each set-up.
const WARM: usize = 2_000;
/// The reference rate for `op_p50_us`/`op_p99_us`, below the knee.
const REF_RATE: f64 = 10_000.0;
/// Rounds per run. Each round sets up a fresh fleet, climbs the ladder
/// once and then runs `REF_PER_ROUND` reference phases, so the reference
/// phases meet a fleet past its first-touch costs. Latency and
/// throughput are trimmed means over the reference phases and
/// `goodput_rps` is the trimmed mean over rounds, so a slow interval on
/// the host moves one round, not the result.
const ROUNDS: u32 = 3;
/// Reference phases per round.
const REF_PER_ROUND: u32 = 2;
/// The p99 latency limit for `goodput_rps`: about 13 times the
/// kernel-request p99 service time (1.5 ms on the reference host, see
/// `calibrate`). A request may queue behind several kernel requests on
/// every worker, but not behind a growing backlog.
const LIMIT: Duration = Duration::from_millis(20);
/// The fixed rate ladder for `goodput_rps`, finest near the knee.
const LADDER: [f64; 15] = [
    30_000.0, 38_000.0, 44_000.0, 47_000.0, 50_000.0, 52_000.0, 54_000.0, 56_000.0, 58_000.0,
    60_000.0, 63_000.0, 66_000.0, 70_000.0, 75_000.0, 80_000.0,
];
/// Share of `--seconds` for one reference phase.
const REF_SHARE: f64 = 0.05;
/// Share of `--seconds` for one ladder step.
const STEP_SHARE: f64 = 0.03;
/// The ladder stops after this many steps in a row miss the limit, so
/// one disturbed step below the knee does not end the climb.
const MISSES_TO_STOP: u32 = 2;
/// A phase stops once a request completes this far past its due time.
const ABORT_AFTER: Duration = Duration::from_millis(100);

fn main() {
    let cli = match Cli::parse() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let report = match cli.workload.as_str() {
        "serve-open" => end_to_end(&cli),
        "ledger" => ledger(&cli),
        "calibrate" => calibrate(&cli),
        other => {
            eprintln!("error: unknown workload {other} (serve-open, ledger, calibrate)");
            std::process::exit(2);
        }
    };
    std::process::exit(report.finish(cli.out.as_deref()));
}

/// The fleet's correctness gates after a run, including the probe of
/// every tenant VM, and its shed, retried and failed request counts.
fn fleet_gates(fleet: &Fleet) -> (Vec<(String, bool)>, [u64; 3]) {
    let (mut gates, counts) = fleet.gates();
    let probes = fleet.server.tenants().iter().all(oob_probe);
    gates.push(("oob_probe_contained_on_every_tenant".to_owned(), probes));
    (gates, counts)
}

fn count(r: &mut Report, p: &Phase) {
    r.ops(p.attempted, p.bad);
}

fn end_to_end(cli: &Cli) -> Report {
    let workers = nproc();
    let mut r = Report::new();
    let mut setups = Vec::new();
    let (mut ops, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new());
    let (mut goodput, mut passed) = (Vec::new(), Vec::new());
    let mut gates: BTreeMap<String, bool> = BTreeMap::new();
    let mut samples = 0u64;
    for round in 0..ROUNDS {
        let seed = cli.seed ^ u64::from(round).wrapping_mul(0x2545_f491_4f6c_dd1d);
        let mut fleet = None;
        for _ in 0..SETUPS_PER_ROUND {
            drop(fleet.take());
            let t0 = Instant::now();
            fleet = Some(Fleet::new(seed, workers, STREAM, WARM));
            setups.push(t0.elapsed().as_secs_f64());
        }
        let mut fleet = fleet.expect("at least one set-up");
        let (g, step) = climb(cli, &mut fleet, &mut r);
        goodput.push(g);
        passed.push(step);
        for _ in 0..REF_PER_ROUND {
            let mut p = fleet.phase::<Off>(REF_RATE, cli.duration(REF_SHARE), ABORT_AFTER);
            count(&mut r, &p);
            ops.push(p.achieved());
            p50.push(p.lat_us(0.50));
            p99.push(p.lat_us(0.99));
            samples += p.lat_ns.len() as u64;
        }
        let (round_gates, _) = fleet_gates(&fleet);
        for (name, ok) in round_gates {
            *gates.entry(name).or_insert(true) &= ok;
        }
    }
    r.metric("setup_s", median(&setups), "s");
    r.metric("ops_per_s", trimmed_mean(&ops), "ops/s");
    r.metric("goodput_rps", trimmed_mean(&goodput), "req/s");
    r.metric("op_p50_us", trimmed_mean(&p50), "us");
    r.metric("op_p99_us", trimmed_mean(&p99), "us");
    r.metric("rss_peak_mb", rss_peak_mb(), "MB");
    r.info("reference_rate", REF_RATE);
    r.info("latency_samples", samples);
    r.info("latency_limit_us", LIMIT.as_secs_f64() * 1e6);
    r.info(
        "goodput_ladder_steps",
        passed
            .iter()
            .map(|&x| JsonValue::from(x))
            .collect::<Vec<_>>(),
    );
    r.info("workers", workers);
    for (name, ok) in gates {
        r.gate(&name, ok);
    }
    r
}

/// Climbs the ladder once; returns the achieved rate of the highest step
/// that met the limit, and that step's offered rate (0 if none did).
fn climb(cli: &Cli, fleet: &mut Fleet, r: &mut Report) -> (f64, f64) {
    let (mut goodput, mut passed, mut misses) = (0.0, 0.0, 0);
    for &rate in &LADDER {
        let mut p = fleet.phase::<Off>(rate, cli.duration(STEP_SHARE), ABORT_AFTER);
        count(r, &p);
        let ok = p.meets(LIMIT);
        println!(
            "ladder {rate:>8.0} req/s: achieved {:>9.1}, p99 {:>9.1} us, drain lag {:>8.1} us, errors {} -> {}",
            p.achieved(),
            p.lat_us(0.99),
            p.drain_lag.as_secs_f64() * 1e6,
            p.bad,
            if ok { "meets limit" } else { "misses limit" }
        );
        if ok {
            goodput = p.achieved();
            passed = rate;
            misses = 0;
        } else {
            misses += 1;
            if misses == MISSES_TO_STOP {
                break;
            }
        }
    }
    (goodput, passed)
}

/// The traced serving-side ledger, about 0.3 of `--seconds`.
fn ledger(cli: &Cli) -> Report {
    let workers = nproc();
    let mut r = Report::new();
    let mut fleet = Fleet::new(cli.seed, workers, STREAM, WARM);
    let mut p = fleet.phase::<On>(REF_RATE, cli.duration(0.25), ABORT_AFTER);
    count(&mut r, &p);
    r.metric(
        "server.queue_wait_us.p50",
        quantile(&mut p.queue_ns, 0.50) / 1e3,
        "us",
    );
    r.metric(
        "server.queue_wait_us.p99",
        quantile(&mut p.queue_ns, 0.99) / 1e3,
        "us",
    );
    r.metric(
        "server.busy_frac",
        p.busy_ns as f64 / (p.workers as f64 * p.wall.as_secs_f64() * 1e9),
        "ratio",
    );
    for (i, kind) in KINDS.iter().enumerate() {
        let v = &mut p.service_ns[i];
        r.info(&format!("service_samples.{kind}"), v.len());
        // The highest percentile with at least ten samples beyond it.
        let top = if *kind == "replay" {
            ("p90", 0.90)
        } else {
            ("p99", 0.99)
        };
        r.metric(
            &format!("server.service_us.{kind}.p50"),
            quantile(v, 0.50) / 1e3,
            "us",
        );
        r.metric(
            &format!("server.service_us.{kind}.{}", top.0),
            quantile(v, top.1) / 1e3,
            "us",
        );
    }
    r.metric(
        "server.gen_lag_us.p99",
        quantile(&mut p.gen_lag_ns, 0.99) / 1e3,
        "us",
    );
    r.info("gen_lag_samples", p.gen_lag_ns.len());
    let (gates, [shed, retries, failed]) = fleet_gates(&fleet);
    for (name, ok) in gates {
        r.gate(&name, ok);
    }
    r.metric("server.shed", shed as f64, "count");
    r.metric("server.retries", retries as f64, "count");
    r.metric("server.failed", failed as f64, "count");
    drop(fleet);

    // Standalone: 64 micro-sized allocations, then the sweep that
    // reclaims them — a tenant's `sweep_every` cycle — on one tenant VM
    // from one thread and from `nproc` threads.
    let tenant = Tenant::new(TenantConfig::new(8));
    for (threads, suffix) in [(1, ""), (workers, ".tn")] {
        let (alloc, sweep) = alloc_sweep(&tenant, threads, cli.duration(0.025));
        r.metric(&format!("heap.alloc_ns{suffix}"), alloc, "ns");
        r.metric(&format!("heap.sweep_us{suffix}"), sweep, "us");
    }
    r
}

/// Median nanoseconds per 16-int allocation and microseconds per sweep
/// of 64 dead arrays, with `threads` threads cycling on `tenant`'s VM.
fn alloc_sweep(tenant: &Tenant, threads: usize, dur: Duration) -> (f64, f64) {
    let vm = tenant.vm();
    let samples = std::sync::Mutex::new((Vec::new(), Vec::new()));
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let thread = vm.attach_thread("alloc");
                let env = vm.env(&thread);
                let (mut alloc, mut sweep) = (Vec::new(), Vec::new());
                let deadline = Instant::now() + dur;
                while Instant::now() < deadline {
                    let t0 = Instant::now();
                    for _ in 0..64 {
                        std::hint::black_box(env.new_int_array_from(&[7; 16]).expect("allocate"));
                    }
                    let t1 = Instant::now();
                    vm.heap().sweep();
                    alloc.push((t1 - t0).as_nanos() as f64 / 64.0);
                    sweep.push(t1.elapsed().as_nanos() as f64 / 1e3);
                }
                let mut m = samples.lock().expect("an allocating thread panicked");
                m.0.extend(alloc);
                m.1.extend(sweep);
            });
        }
    });
    let (alloc, sweep) = samples.into_inner().expect("an allocating thread panicked");
    (median(&alloc), median(&sweep))
}

/// Latency against offered rate on the ladder, and the kernel-request
/// service tail the latency limit is derived from.
fn calibrate(cli: &Cli) -> Report {
    let mut r = Report::new();
    let mut fleet = Fleet::new(cli.seed, nproc(), STREAM, WARM);
    let mut p = fleet.phase::<On>(REF_RATE, cli.duration(0.2), ABORT_AFTER);
    count(&mut r, &p);
    for (i, kind) in KINDS.iter().enumerate() {
        let v = &mut p.service_ns[i];
        println!(
            "service {kind:<7} n={:>6} p50 {:>9.1} us p90 {:>9.1} us p99 {:>9.1} us",
            v.len(),
            quantile(v, 0.5) / 1e3,
            quantile(v, 0.9) / 1e3,
            quantile(v, 0.99) / 1e3
        );
    }
    for &rate in &LADDER {
        let mut p = fleet.phase::<Off>(rate, cli.duration(STEP_SHARE), ABORT_AFTER);
        count(&mut r, &p);
        println!(
            "rate {rate:>7.0}: achieved {:>8.0} p50 {:>9.1} us p99 {:>9.1} us drain lag {:>9.1} us",
            p.achieved(),
            p.lat_us(0.5),
            p.lat_us(0.99),
            p.drain_lag.as_secs_f64() * 1e6
        );
    }
    r
}
