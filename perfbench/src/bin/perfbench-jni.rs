//! `jni-small` and `jni-bulk`, and the JNI side of the per-layer ledger.
//!
//! ```text
//! perfbench-jni --workload jni-small|jni-bulk|ledger --seed N --seconds S [--out FILE]
//! ```

use std::time::Instant;

use mte4jni::TableBackend;
use perfbench::jni_load::{
    counter, oob_probe, Fixture, JniWorkload, SchemeKind, Summary, BULK_ACCESSES, SMALL_ACCESSES,
};
use perfbench::span::{self, Name, Off, On};
use perfbench::{layers, median, nproc, rss_peak_mb, Cli, Report};
use telemetry::json::JsonValue;

/// Closed loops per measured section, each on a fresh set-up;
/// throughput and latency are trimmed means across them and `setup_s`
/// is the median set-up time.
const LOOPS: u32 = 10;
/// Reconciliation tolerance: the jni-small span self times must cover
/// the traced per-call time to within this share. The remainder is the
/// benchmark's own loop (seeded coin, checksum compare, latency clock).
const RECONCILE_TOLERANCE: f64 = 0.10;

fn main() {
    let cli = match Cli::parse() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let report = match cli.workload.as_str() {
        "jni-small" => end_to_end(&cli, JniWorkload::Small),
        "jni-bulk" => end_to_end(&cli, JniWorkload::Bulk),
        "ledger" => ledger(&cli),
        other => {
            eprintln!("error: unknown workload {other} (jni-small, jni-bulk, ledger)");
            std::process::exit(2);
        }
    };
    std::process::exit(report.finish(cli.out.as_deref()));
}

fn end_to_end(cli: &Cli, workload: JniWorkload) -> Report {
    let clients = nproc();
    let mut r = Report::new();
    let (mut setups, mut loops) = (Vec::new(), Vec::new());
    let mut probe = false;
    // A fresh set-up before every loop spreads the set-ups over the run,
    // so `setup_s` sees the same host conditions as the loops.
    for i in 0..LOOPS {
        let t0 = Instant::now();
        let fx = Fixture::new(SchemeKind::Mte4Jni, false, cli.seed, clients, workload);
        setups.push(t0.elapsed().as_secs_f64());
        let seed = cli.seed ^ u64::from(i).wrapping_mul(0x51_7cc1_b727_220a);
        loops.push(fx.run_loop::<Off>(
            workload,
            clients,
            cli.duration(1.0 / f64::from(LOOPS)),
            seed,
        ));
        if i + 1 == LOOPS {
            probe = oob_probe(&fx.vm);
        }
    }
    let s = Summary::of(loops);
    r.metric("setup_s", median(&setups), "s");
    r.metric("ops_per_s", s.ops_per_s, "ops/s");
    r.metric("goodput_rps", s.goodput, "req/s");
    r.metric("op_p50_us", s.p50_us, "us");
    r.metric("op_p99_us", s.p99_us, "us");
    r.metric("rss_peak_mb", rss_peak_mb(), "MB");
    r.ops(s.attempted, s.failed);
    r.info("operations", s.calls);
    r.info("latency_samples_kept", s.samples);
    r.info(
        "loop_ops_per_s",
        s.loop_ops
            .iter()
            .map(|&x| JsonValue::from(x))
            .collect::<Vec<_>>(),
    );
    r.info("clients", clients);
    r.gate("oob_probe_faults_under_mte4jni_sync", probe);
    r
}

/// Scheme counters and simulator tag-op counts around a measured section.
struct Deltas {
    acquires: u64,
    shared: u64,
    stash_hits: u64,
    cas_retries: u64,
    tag_ops: u64,
}

impl Deltas {
    fn read(fx: &Fixture) -> Deltas {
        let m = fx.vm.heap().memory().stats().snapshot();
        Deltas {
            acquires: counter(&fx.vm, "acquires"),
            shared: counter(&fx.vm, "shared_acquires"),
            stash_hits: counter(&fx.vm, "atomic_stash_hits"),
            cas_retries: counter(&fx.vm, "atomic_cas_retries"),
            tag_ops: m.irg_ops + m.ldg_ops + m.stg_ops,
        }
    }

    fn since(&self, before: &Deltas) -> Deltas {
        Deltas {
            acquires: self.acquires - before.acquires,
            shared: self.shared - before.shared,
            stash_hits: self.stash_hits - before.stash_hits,
            cas_retries: self.cas_retries - before.cas_retries,
            tag_ops: self.tag_ops - before.tag_ops,
        }
    }
}

/// The traced per-layer run on the JNI side. Every share below is of
/// this binary's `--seconds`, which `run.py` sets to 0.7 of the run's
/// (the serving side gets the rest); together they take about 0.8 of it.
fn ledger(cli: &Cli) -> Report {
    let n = nproc();
    let seed = cli.seed;
    let mut r = Report::new();
    let count = |r: &mut Report, s: &Summary| r.ops(s.attempted, s.failed);

    // jni-small: untraced, traced and telemetry-on loops alternate so
    // drift on the host hits all three alike.
    let plain = Fixture::new(SchemeKind::Mte4Jni, false, seed, n, JniWorkload::Small);
    let traced = Fixture::new(SchemeKind::Mte4Jni, true, seed, n, JniWorkload::Small);
    let (mut untraced_ops, mut traced_ops, mut telemetry_ops) =
        (Vec::new(), Vec::new(), Vec::new());
    let mut plain_calls = 0u64;
    let mut tr = Vec::new();
    let before = Deltas::read(&plain);
    for round in 0..3u64 {
        let u = plain.run::<Off>(JniWorkload::Small, n, cli.duration(0.04), seed ^ round);
        untraced_ops.push(u.ops_per_s);
        plain_calls += u.calls;
        count(&mut r, &u);
        let t = traced.run::<On>(JniWorkload::Small, n, cli.duration(0.04), seed ^ round);
        traced_ops.push(t.ops_per_s);
        count(&mut r, &t);
        tr.push(t);
        telemetry::set_enabled(true);
        let m = plain.run::<Off>(JniWorkload::Small, n, cli.duration(0.04), seed ^ round);
        telemetry::set_enabled(false);
        telemetry_ops.push(m.ops_per_s);
        plain_calls += m.calls;
        count(&mut r, &m);
    }
    let d = Deltas::read(&plain).since(&before);
    let one_client = plain.run::<Off>(JniWorkload::Small, 1, cli.duration(0.04), seed);
    count(&mut r, &one_client);
    let small_ops = median(&untraced_ops);

    let mut spans = span::Totals::default();
    let mut log = Vec::new();
    let (mut busy_ns, mut calls) = (0.0, 0u64);
    for t in &mut tr {
        spans.merge(&t.spans);
        busy_ns += t.ns_per_op_per_client * t.calls as f64;
        calls += t.calls;
        log.append(&mut t.log);
    }
    let per_call = busy_ns / calls.max(1) as f64;
    let call_ns = spans.total_ns(Name::Call) as f64 / spans.count(Name::Call).max(1) as f64;
    let self_sum: f64 = Name::ALL
        .iter()
        .map(|&k| spans.self_ns(k) as f64)
        .sum::<f64>()
        / spans.count(Name::Call).max(1) as f64;
    r.metric("jni.trampoline_ns", spans.mean_self_ns(Name::Call), "ns");
    r.metric("jni.acquire_ns", spans.mean_self_ns(Name::Acquire), "ns");
    r.metric("jni.release_ns", spans.mean_self_ns(Name::Release), "ns");
    r.metric(
        "jni.native_ns_per_access.small",
        spans.self_ns(Name::Native) as f64
            / (spans.count(Name::Native).max(1) * SMALL_ACCESSES) as f64,
        "ns",
    );
    r.metric(
        "jni.scaling_eff",
        small_ops / (n as f64 * one_client.ops_per_s),
        "ratio",
    );
    r.metric(
        "mte4jni.on_acquire_ns",
        spans.mean_self_ns(Name::OnAcquire),
        "ns",
    );
    r.metric(
        "mte4jni.on_release_ns",
        spans.mean_self_ns(Name::OnRelease),
        "ns",
    );
    let per_acq = |x: u64| x as f64 / d.acquires.max(1) as f64;
    r.metric("mte4jni.shared_ratio", per_acq(d.shared), "ratio");
    r.metric("mte4jni.stash_hit_ratio", per_acq(d.stash_hits), "ratio");
    r.metric(
        "mte4jni.cas_retries_per_op",
        per_acq(d.cas_retries),
        "count",
    );
    r.metric(
        "mte_sim.tag_ops_per_call",
        d.tag_ops as f64 / plain_calls.max(1) as f64,
        "count",
    );
    r.metric(
        "telemetry.overhead_ns_per_op",
        n as f64 * 1e9 * (1.0 / median(&telemetry_ops) - 1.0 / small_ops),
        "ns",
    );
    r.metric(
        "bench.trace_overhead_frac",
        1.0 - median(&traced_ops) / small_ops,
        "ratio",
    );
    let gap = 1.0 - self_sum / per_call;
    r.metric("bench.reconcile_gap_frac", gap, "ratio");
    println!(
        "reconciliation (jni-small, traced): per-call {per_call:.1} ns of client time; \
         call_native span {call_ns:.1} ns; layer self times sum to {self_sum:.1} ns; \
         gap {:.2}% — {} (tolerance {:.0}%)",
        gap * 100.0,
        if gap.abs() <= RECONCILE_TOLERANCE {
            "reconciled"
        } else {
            "NOT reconciled: the ledger misses a layer"
        },
        RECONCILE_TOLERANCE * 100.0
    );
    r.info("reconcile_per_call_ns", per_call);
    r.info("reconcile_self_sum_ns", self_sum);
    r.info("reconcile_tolerance", RECONCILE_TOLERANCE);
    r.info("reconciled", gap.abs() <= RECONCILE_TOLERANCE);
    r.info("span_sample", span::log_json(&log));
    r.gate("oob_probe_faults_under_mte4jni_sync", oob_probe(&plain.vm));
    r.gate(
        "oob_probe_faults_under_traced_mte4jni_sync",
        oob_probe(&traced.vm),
    );
    drop(traced);

    // jni-bulk on its own untraced and traced fixtures.
    let bulk = Fixture::new(SchemeKind::Mte4Jni, false, seed, n, JniWorkload::Bulk);
    let bulk_plain = bulk.run::<Off>(JniWorkload::Bulk, n, cli.duration(0.05), seed);
    count(&mut r, &bulk_plain);
    drop(bulk);
    let bulk = Fixture::new(SchemeKind::Mte4Jni, true, seed, n, JniWorkload::Bulk);
    let bulk_traced = bulk.run::<On>(JniWorkload::Bulk, n, cli.duration(0.05), seed);
    count(&mut r, &bulk_traced);
    drop(bulk);
    let bs = &bulk_traced.spans;
    r.metric(
        "jni.native_ns_per_access",
        bs.self_ns(Name::Native) as f64 / (bs.count(Name::Native).max(1) * BULK_ACCESSES) as f64,
        "ns",
    );
    r.metric("jni.trampoline_ns.bulk", bs.mean_self_ns(Name::Call), "ns");

    // Reference schemes on both kernels (paper Figure 5 ratios).
    let mut refs = Vec::new();
    for (kind, label) in [
        (SchemeKind::Unprotected, "unprotected"),
        (SchemeKind::Guarded, "guarded"),
    ] {
        let fx = Fixture::new(kind, false, seed, n, JniWorkload::Small);
        let s = fx.run::<Off>(JniWorkload::Small, n, cli.duration(0.03), seed);
        let b = fx.run::<Off>(JniWorkload::Bulk, n, cli.duration(0.03), seed);
        count(&mut r, &s);
        count(&mut r, &b);
        r.metric(
            &format!("ref.{label}_ops_per_s.small"),
            s.ops_per_s,
            "ops/s",
        );
        r.metric(&format!("ref.{label}_ops_per_s.bulk"), b.ops_per_s, "ops/s");
        refs.push((s.ops_per_s, b.ops_per_s));
    }
    // Figure 5 ratios: time per operation relative to no protection.
    let [(none_small, none_bulk), (guarded_small, guarded_bulk)] = refs[..] else {
        unreachable!()
    };
    r.metric("ref.overhead_x.small", none_small / small_ops, "ratio");
    r.metric(
        "ref.overhead_x.bulk",
        none_bulk / bulk_plain.ops_per_s,
        "ratio",
    );
    r.metric(
        "ref.guarded_overhead_x.small",
        none_small / guarded_small,
        "ratio",
    );
    r.metric(
        "ref.guarded_overhead_x.bulk",
        none_bulk / guarded_bulk,
        "ratio",
    );

    // Standalone layer runs, at one thread (`t1` or no suffix) and at
    // `nproc` threads (`tn`).
    let t = cli.duration(0.01);
    for (backend, label) in [
        (TableBackend::LockFree, "lock_free"),
        (TableBackend::TwoTier, "two_tier"),
    ] {
        for (threads, suffix) in [(1, "t1"), (n, "tn")] {
            r.metric(
                &format!("mte4jni.table_pair_ns.{label}.{suffix}"),
                layers::table_pair_ns(backend, threads, t, seed),
                "ns",
            );
        }
    }
    r.metric(
        "heap.pin_unpin_ns.t1",
        layers::pin_unpin_ns(1, t, seed),
        "ns",
    );
    r.metric(
        "heap.pin_unpin_ns.tn",
        layers::pin_unpin_ns(n, t, seed),
        "ns",
    );
    for (threads, suffix) in [(1, ""), (n, ".tn")] {
        let name = |base: &str| format!("{base}{suffix}");
        r.metric(
            &name("heap.data_ptr_ns"),
            layers::data_ptr_ns(threads, t),
            "ns",
        );
        r.metric(
            &name("mte_sim.load_ns.checked"),
            layers::load_ns(true, threads, t),
            "ns",
        );
        r.metric(
            &name("mte_sim.load_ns.unchecked"),
            layers::load_ns(false, threads, t),
            "ns",
        );
        r.metric(
            &name("mte_sim.set_tag_range_ns.4g"),
            layers::set_tag_range_ns(4, threads, t),
            "ns",
        );
        r.metric(
            &name("mte_sim.set_tag_range_ns.1024g"),
            layers::set_tag_range_ns(1024, threads, t),
            "ns",
        );
        r.metric(
            &name("mte_sim.irg_ns"),
            layers::irg_ns(threads, t, seed),
            "ns",
        );
        r.metric(&name("mte_sim.ldg_ns"), layers::ldg_ns(threads, t), "ns");
    }

    r.info("small_ops_per_s", small_ops);
    r.info("small_ns_per_call_per_client", n as f64 * 1e9 / small_ops);
    r.info("bulk_ops_per_s", bulk_plain.ops_per_s);
    r.info(
        "bulk_ns_per_call_per_client",
        n as f64 * 1e9 / bulk_plain.ops_per_s,
    );
    r
}
