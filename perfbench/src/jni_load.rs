//! The `jni-small` and `jni-bulk` closed loops: runtimes, seeded inputs,
//! the two native kernels, the client loop and the out-of-bounds probe.

use std::marker::PhantomData;
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use art_heap::{ArrayRef, HeapConfig};
use guarded_copy::GuardedCopy;
use jni_rt::{JniEnv, NativeKind, NoProtection, Protection, ReleaseMode, Vm};
use mte4jni::{Mte4Jni, TableConfig};
use mte_sim::TcfMode;

use crate::span::{self, rec, stamp, Name, SpanRec, TimedProtection, Totals, Tracing};
use crate::{quantile, sample_ns, trimmed_mean, Reservoir, SplitMix};

/// Ints per `jni-small` array: four tag granules.
pub const SMALL_LEN: usize = 16;
/// Ints per `jni-bulk` array: the Figure 5 maximum, 1024 granules.
pub const BULK_LEN: usize = 4096;
/// `goodput_rps` latency limit for one `jni-small` call.
pub const SMALL_LIMIT_NS: u32 = 25_000;
/// `goodput_rps` latency limit for one `jni-bulk` copy.
pub const BULK_LIMIT_NS: u32 = 2_000_000;
/// `jni-bulk` clients compare `dst` with its source every this many copies.
pub const BULK_VERIFY_EVERY: u64 = 64;
/// Latency samples each client keeps per loop.
const RESERVOIR: usize = 1 << 16;

/// The protection scheme a runtime is built with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchemeKind {
    /// The default scheme: MTE4JNI over the lock-free table, sync checks.
    Mte4Jni,
    /// No protection (the Figure 5 baseline).
    Unprotected,
    /// ART CheckJNI guarded copy.
    Guarded,
}

/// Builds a VM for `kind`. With `traced`, the scheme is wrapped in
/// [`TimedProtection`]; the VM is otherwise identical.
pub fn build_vm(kind: SchemeKind, traced: bool) -> Vm {
    let wrap = |p: Arc<dyn Protection>| -> Arc<dyn Protection> {
        if traced {
            Arc::new(TimedProtection::new(p))
        } else {
            p
        }
    };
    match kind {
        // What `mte4jni::mte4jni_vm(Sync, default)` builds.
        SchemeKind::Mte4Jni => Vm::builder()
            .heap_config(HeapConfig::mte4jni())
            .check_mode(TcfMode::Sync)
            .protection(wrap(Arc::new(Mte4Jni::with_config(TableConfig::default()))))
            .fallback_protection(Arc::new(GuardedCopy::new()))
            .build(),
        SchemeKind::Unprotected => Vm::builder()
            .heap_config(HeapConfig::stock_art())
            .protection(wrap(Arc::new(NoProtection::new())))
            .build(),
        SchemeKind::Guarded => Vm::builder()
            .heap_config(HeapConfig::stock_art())
            .protection(wrap(Arc::new(GuardedCopy::new())))
            .build(),
    }
}

/// The value of `vm`'s scheme counter `name` (0 if the scheme has none).
pub fn counter(vm: &Vm, name: &str) -> u64 {
    vm.protection()
        .counters()
        .into_iter()
        .find(|(k, _)| *k == name)
        .map_or(0, |(_, v)| v)
}

fn seeded_ints(seed: u64, stream: u64, len: usize) -> Vec<i32> {
    let mut rng = SplitMix::new(seed, stream);
    (0..len)
        .map(|_| (rng.next_u64() >> 40) as i32 - (1 << 23))
        .collect()
}

/// `jni-small` inputs: one array shared by every client and one per
/// client, each with its expected sum.
pub struct SmallInputs {
    shared: (ArrayRef, i64),
    own: Vec<(ArrayRef, i64)>,
}

impl SmallInputs {
    /// Allocates the arrays from `seed` through `env`.
    pub fn new(env: &JniEnv<'_>, seed: u64, clients: usize) -> SmallInputs {
        let make = |stream: u64| {
            let v = seeded_ints(seed, stream, SMALL_LEN);
            let sum = v.iter().map(|&x| i64::from(x)).sum();
            (
                env.new_int_array_from(&v)
                    .expect("allocate a jni-small array"),
                sum,
            )
        };
        SmallInputs {
            shared: make(0),
            own: (0..clients as u64).map(|c| make(c + 1)).collect(),
        }
    }
}

/// `jni-bulk` inputs per client: two seeded sources and one destination.
pub struct BulkInputs {
    clients: Vec<BulkClient>,
}

struct BulkClient {
    src: [ArrayRef; 2],
    expect: [Vec<i32>; 2],
    dst: ArrayRef,
}

impl BulkInputs {
    /// Allocates the arrays from `seed` through `env`.
    pub fn new(env: &JniEnv<'_>, seed: u64, clients: usize) -> BulkInputs {
        let clients = (0..clients as u64)
            .map(|c| {
                let expect = [
                    seeded_ints(seed, 2 * c + 100, BULK_LEN),
                    seeded_ints(seed, 2 * c + 101, BULK_LEN),
                ];
                let src = [0, 1].map(|i| {
                    env.new_int_array_from(&expect[i])
                        .expect("allocate a jni-bulk source")
                });
                let dst = env
                    .new_int_array(BULK_LEN)
                    .expect("allocate a jni-bulk destination");
                BulkClient { src, expect, dst }
            })
            .collect();
        BulkInputs { clients }
    }
}

/// One `jni-small` call: `call_native` → `GetPrimitiveArrayCritical` →
/// 16 checked reads → `Release(JNI_ABORT)`. Returns the sum read.
///
/// # Errors
///
/// Whatever the JNI layer returns; none is expected in bounds.
#[inline]
pub fn small_call<T: Tracing>(env: &JniEnv<'_>, a: &ArrayRef) -> jni_rt::Result<i64> {
    let t0 = stamp::<T>();
    let r = env.call_native("small_read", NativeKind::Normal, |env| {
        let t1 = stamp::<T>();
        let elems = env.get_primitive_array_critical(a)?;
        let t2 = stamp::<T>();
        let mem = env.native_mem();
        let mut sum = 0i64;
        for i in 0..SMALL_LEN as isize {
            sum += i64::from(elems.read_i32(&mem, i)?);
        }
        let t3 = stamp::<T>();
        env.release_primitive_array_critical(a, elems, ReleaseMode::Abort)?;
        let t4 = stamp::<T>();
        rec::<T>(Name::Acquire, t1, t2);
        rec::<T>(Name::Native, t2, t3);
        rec::<T>(Name::Release, t3, t4);
        Ok(sum)
    });
    rec::<T>(Name::Call, t0, stamp::<T>());
    r
}

/// One `jni-bulk` call: the Figure 5 copy kernel. Reads `src` under
/// `JNI_ABORT` and writes `dst` under `CopyBack`.
///
/// # Errors
///
/// Whatever the JNI layer returns; none is expected in bounds.
#[inline]
pub fn bulk_call<T: Tracing>(
    env: &JniEnv<'_>,
    src: &ArrayRef,
    dst: &ArrayRef,
) -> jni_rt::Result<()> {
    let t0 = stamp::<T>();
    let r = env.call_native("array_copy", NativeKind::Normal, |env| {
        let t1 = stamp::<T>();
        let s = env.get_primitive_array_critical(src)?;
        let t2 = stamp::<T>();
        let d = env.get_primitive_array_critical(dst)?;
        let t3 = stamp::<T>();
        let mem = env.native_mem();
        for i in 0..BULK_LEN as isize {
            d.write_i32(&mem, i, s.read_i32(&mem, i)?)?;
        }
        let t4 = stamp::<T>();
        env.release_primitive_array_critical(dst, d, ReleaseMode::CopyBack)?;
        let t5 = stamp::<T>();
        env.release_primitive_array_critical(src, s, ReleaseMode::Abort)?;
        let t6 = stamp::<T>();
        rec::<T>(Name::Acquire, t1, t2);
        rec::<T>(Name::Acquire, t2, t3);
        rec::<T>(Name::Native, t3, t4);
        rec::<T>(Name::Release, t4, t5);
        rec::<T>(Name::Release, t5, t6);
        Ok(())
    });
    rec::<T>(Name::Call, t0, stamp::<T>());
    r
}

/// Checked element accesses per `jni-small` call.
pub const SMALL_ACCESSES: u64 = SMALL_LEN as u64;
/// Checked element accesses per call of the copy kernel.
pub const BULK_ACCESSES: u64 = 2 * BULK_LEN as u64;

/// One client's operation in a closed loop.
pub trait Op {
    /// Runs one operation; `false` when it failed or computed a wrong result.
    fn run(&mut self, env: &JniEnv<'_>) -> bool;
    /// An untimed output check; `false` on a mismatch.
    fn verify(&mut self, _env: &JniEnv<'_>) -> bool {
        true
    }
}

/// A `jni-small` client: a seeded coin picks the shared or its own array.
pub struct SmallOp<'i, T> {
    inputs: &'i SmallInputs,
    client: usize,
    rng: SplitMix,
    calls: u64,
    _tracing: PhantomData<T>,
}

impl<'i, T: Tracing> SmallOp<'i, T> {
    /// Client `client` of `inputs`, its coin seeded from `seed`.
    pub fn new(inputs: &'i SmallInputs, client: usize, seed: u64) -> SmallOp<'i, T> {
        SmallOp {
            inputs,
            client,
            rng: SplitMix::new(seed, 1000 + client as u64),
            calls: 0,
            _tracing: PhantomData,
        }
    }
}

impl<T: Tracing> Op for SmallOp<'_, T> {
    #[inline]
    fn run(&mut self, env: &JniEnv<'_>) -> bool {
        let (a, expect) = if self.rng.next_u64() & 1 == 0 {
            &self.inputs.shared
        } else {
            &self.inputs.own[self.client]
        };
        if T::ON {
            self.calls += 1;
            span::begin_request(((self.client as u64) << 40) | self.calls);
        }
        matches!(small_call::<T>(env, a), Ok(sum) if sum == *expect)
    }
}

/// A `jni-bulk` client: a seeded coin picks which source to copy.
pub struct BulkOp<'i, T> {
    inputs: &'i BulkClient,
    client: usize,
    rng: SplitMix,
    last: Option<usize>,
    calls: u64,
    _tracing: PhantomData<T>,
}

impl<'i, T: Tracing> BulkOp<'i, T> {
    /// Client `client` of `inputs`, its coin seeded from `seed`.
    pub fn new(inputs: &'i BulkInputs, client: usize, seed: u64) -> BulkOp<'i, T> {
        BulkOp {
            inputs: &inputs.clients[client],
            client,
            rng: SplitMix::new(seed, 2000 + client as u64),
            last: None,
            calls: 0,
            _tracing: PhantomData,
        }
    }
}

impl<T: Tracing> Op for BulkOp<'_, T> {
    #[inline]
    fn run(&mut self, env: &JniEnv<'_>) -> bool {
        let which = (self.rng.next_u64() & 1) as usize;
        if T::ON {
            self.calls += 1;
            span::begin_request(((self.client as u64) << 40) | self.calls);
        }
        let ok = bulk_call::<T>(env, &self.inputs.src[which], &self.inputs.dst).is_ok();
        self.last = Some(which);
        ok
    }

    fn verify(&mut self, env: &JniEnv<'_>) -> bool {
        let Some(which) = self.last else { return true };
        env.heap()
            .int_array_as_vec(env.thread(), &self.inputs.dst)
            .is_ok_and(|v| v == self.inputs.expect[which])
    }
}

/// What one closed loop measured.
#[derive(Debug, Default)]
pub struct LoopStats {
    /// Operations run.
    pub calls: u64,
    /// Operations that failed or computed a wrong result.
    pub failed: u64,
    /// Output checks run.
    pub checks: u64,
    /// Output checks that found a mismatch.
    pub failed_checks: u64,
    /// Correct operations within the latency limit.
    pub within_limit: u64,
    /// First client start to last client end.
    pub wall: Duration,
    /// Clients in the loop.
    pub clients: usize,
    /// Median per-operation latency, nanoseconds.
    pub p50_ns: f64,
    /// 99th-percentile per-operation latency, nanoseconds.
    pub p99_ns: f64,
    /// Latency samples the quantiles come from.
    pub samples: u64,
    /// Span totals (traced runs only).
    pub spans: Totals,
    /// Span log sample (traced runs only).
    pub log: Vec<SpanRec>,
}

impl LoopStats {
    /// Completed operations per second.
    pub fn ops_per_s(&self) -> f64 {
        self.calls as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Correct operations within the latency limit per second.
    pub fn goodput(&self) -> f64 {
        self.within_limit as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// Runs `clients` threads on `vm`, each doing back-to-back operations
/// from `make(client)` for `dur`. Every `verify_every` operations (and
/// once at the end) a client runs its untimed output check.
pub fn closed_loop<O, F>(
    vm: &Vm,
    clients: usize,
    dur: Duration,
    limit_ns: u32,
    verify_every: u64,
    make: F,
) -> LoopStats
where
    O: Op,
    F: Fn(usize) -> O + Sync,
{
    let barrier = Barrier::new(clients);
    let merged = Mutex::new((
        LoopStats {
            clients,
            ..LoopStats::default()
        },
        None::<Instant>,
        None::<Instant>,
        Vec::with_capacity(clients),
    ));
    std::thread::scope(|s| {
        for client in 0..clients {
            let (barrier, merged, make) = (&barrier, &merged, &make);
            s.spawn(move || {
                let thread = vm.attach_thread(format!("client-{client}"));
                let env = vm.env(&thread);
                let mut op = make(client);
                let mut lat = Reservoir::new(RESERVOIR, client as u64);
                let (mut calls, mut failed, mut within) = (0u64, 0u64, 0u64);
                let (mut checks, mut failed_checks) = (0u64, 0u64);
                barrier.wait();
                let start = Instant::now();
                let deadline = start + dur;
                let mut prev = start;
                loop {
                    let ok = op.run(&env);
                    let now = Instant::now();
                    let ns = sample_ns(now - prev);
                    lat.push(ns);
                    calls += 1;
                    if !ok {
                        failed += 1;
                    } else if ns <= limit_ns {
                        within += 1;
                    }
                    prev = now;
                    if now >= deadline {
                        break;
                    }
                    if verify_every > 0 && calls % verify_every == 0 {
                        checks += 1;
                        failed_checks += u64::from(!op.verify(&env));
                        prev = Instant::now();
                    }
                }
                let end = Instant::now();
                checks += 1;
                failed_checks += u64::from(!op.verify(&env));
                let (spans, log) = span::take();
                let mut m = merged.lock().expect("a client panicked");
                let (stats, first, last, reservoirs) = &mut *m;
                stats.calls += calls;
                stats.failed += failed;
                stats.within_limit += within;
                stats.checks += checks;
                stats.failed_checks += failed_checks;
                reservoirs.push(lat);
                stats.spans.merge(&spans);
                stats.log.extend(log);
                *first = Some(first.map_or(start, |f| f.min(start)));
                *last = Some(last.map_or(end, |l| l.max(end)));
            });
        }
    });
    let (mut stats, first, last, reservoirs) = merged.into_inner().expect("a client panicked");
    if let (Some(f), Some(l)) = (first, last) {
        stats.wall = l - f;
    }
    // A buffer of fixed, touched size: see `Reservoir`.
    let mut all = vec![u32::MAX; clients * RESERVOIR];
    let mut n = 0;
    for r in &reservoirs {
        all[n..n + r.samples().len()].copy_from_slice(r.samples());
        n += r.samples().len();
    }
    stats.p50_ns = quantile(&mut all[..n], 0.50);
    stats.p99_ns = quantile(&mut all[..n], 0.99);
    stats.samples = n as u64;
    stats
}

/// Summary of several closed loops: means across loops without the
/// highest and the lowest, so one disturbed loop does not move the
/// result and a run that mixes fast and slow host intervals lands
/// between them rather than on one side.
#[derive(Debug, Default)]
pub struct Summary {
    /// Operations per second.
    pub ops_per_s: f64,
    /// Operations per second of each loop.
    pub loop_ops: Vec<f64>,
    /// Correct-within-limit operations per second.
    pub goodput: f64,
    /// The loops' median latency, microseconds.
    pub p50_us: f64,
    /// The loops' 99th-percentile latency, microseconds.
    pub p99_us: f64,
    /// Latency samples kept across all loops.
    pub samples: u64,
    /// Operations run across all loops.
    pub calls: u64,
    /// Operations plus output checks.
    pub attempted: u64,
    /// Failed operations plus failed checks.
    pub failed: u64,
    /// Client-seconds per operation across all loops, nanoseconds.
    pub ns_per_op_per_client: f64,
    /// Span totals across loops.
    pub spans: Totals,
    /// Span log sample.
    pub log: Vec<SpanRec>,
}

impl Summary {
    /// Summarizes `loops`.
    pub fn of(mut loops: Vec<LoopStats>) -> Summary {
        let loop_ops: Vec<f64> = loops.iter().map(LoopStats::ops_per_s).collect();
        let mut s = Summary {
            ops_per_s: trimmed_mean(&loop_ops),
            loop_ops,
            goodput: trimmed_mean(&loops.iter().map(LoopStats::goodput).collect::<Vec<_>>()),
            ..Summary::default()
        };
        let (mut p50, mut p99) = (Vec::new(), Vec::new());
        let mut busy_ns = 0.0;
        for l in &mut loops {
            p50.push(l.p50_ns / 1e3);
            p99.push(l.p99_ns / 1e3);
            s.samples += l.samples;
            s.attempted += l.calls + l.checks;
            s.failed += l.failed + l.failed_checks;
            busy_ns += l.clients as f64 * l.wall.as_secs_f64() * 1e9;
            s.calls += l.calls;
            s.spans.merge(&l.spans);
            s.log.append(&mut l.log);
        }
        s.p50_us = trimmed_mean(&p50);
        s.p99_us = trimmed_mean(&p99);
        s.ns_per_op_per_client = busy_ns / s.calls.max(1) as f64;
        s
    }
}

/// The workload a `jni-*` run measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JniWorkload {
    /// 16-int arrays, half shared: per-call fixed costs.
    Small,
    /// 4096-int Figure 5 copies: checked accesses and span tagging.
    Bulk,
}

/// A runtime with its inputs allocated and warmed up.
pub struct Fixture {
    small: SmallInputs,
    bulk: BulkInputs,
    /// The VM (declared last so the inputs drop first).
    pub vm: Vm,
}

impl Fixture {
    /// Builds the runtime, allocates both workloads' inputs for
    /// `clients` clients and warms up `warm` on the calling thread. A
    /// sweep then returns this thread's parked borrow credits, so the
    /// measured clients start from an untagged heap.
    pub fn new(
        kind: SchemeKind,
        traced: bool,
        seed: u64,
        clients: usize,
        warm: JniWorkload,
    ) -> Fixture {
        let vm = build_vm(kind, traced);
        let thread = vm.attach_thread("setup");
        let env = vm.env(&thread);
        let small = SmallInputs::new(&env, seed, clients);
        let bulk = BulkInputs::new(&env, seed, clients);
        match warm {
            JniWorkload::Small => {
                for i in 0..20_000usize {
                    let (a, _) = if i % 2 == 0 {
                        &small.shared
                    } else {
                        &small.own[i / 2 % clients]
                    };
                    small_call::<span::Off>(&env, a).expect("warm-up call");
                }
            }
            JniWorkload::Bulk => {
                for c in &bulk.clients {
                    for i in 0..32 {
                        bulk_call::<span::Off>(&env, &c.src[i % 2], &c.dst).expect("warm-up copy");
                    }
                }
            }
        }
        vm.heap().sweep();
        drop(env);
        drop(thread);
        Fixture { small, bulk, vm }
    }

    /// Runs one closed loop of `workload` with `clients` clients for
    /// `dur`, client coins seeded from `seed`.
    pub fn run_loop<T: Tracing>(
        &self,
        workload: JniWorkload,
        clients: usize,
        dur: Duration,
        seed: u64,
    ) -> LoopStats {
        match workload {
            JniWorkload::Small => closed_loop(&self.vm, clients, dur, SMALL_LIMIT_NS, 0, |c| {
                SmallOp::<T>::new(&self.small, c, seed)
            }),
            JniWorkload::Bulk => closed_loop(
                &self.vm,
                clients,
                dur,
                BULK_LIMIT_NS,
                BULK_VERIFY_EVERY,
                |c| BulkOp::<T>::new(&self.bulk, c, seed),
            ),
        }
    }

    /// One closed loop, summarized.
    pub fn run<T: Tracing>(
        &self,
        workload: JniWorkload,
        clients: usize,
        dur: Duration,
        seed: u64,
    ) -> Summary {
        Summary::of(vec![self.run_loop::<T>(workload, clients, dur, seed)])
    }
}

/// The out-of-bounds probe: a native method writes index 21 of an
/// 18-int array (the paper's Figure 3 bug). Returns `true` when the
/// access raised a precise (sync) tag-check fault, i.e. protection was
/// live on `vm`. Under a scheme that does not detect it the write lands
/// in neighbouring heap memory, so run it after every other check.
pub fn oob_probe(vm: &Vm) -> bool {
    let thread = vm.attach_thread("oob-probe");
    let env = vm.env(&thread);
    let Ok(array) = env.new_int_array(18) else {
        return false;
    };
    let result = env.call_native("oob_probe", NativeKind::Normal, |env| {
        let elems = env.get_primitive_array_critical(&array)?;
        elems.write_i32(&env.native_mem(), 21, 0x0BAD)?;
        env.release_primitive_array_critical(&array, elems, ReleaseMode::Abort)?;
        Ok(())
    });
    match result {
        Err(e) => e
            .as_tag_check()
            .is_some_and(mte_sim::TagCheckFault::is_precise),
        Ok(()) => false,
    }
}
