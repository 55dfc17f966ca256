//! `serve-open`: an open loop on the `server` fleet. Requests arrive on
//! a precomputed seeded Poisson schedule whatever the fleet's progress;
//! each is timed from its due time and served through the public
//! `Tenant::serve`.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use jni_rt::{JniError, NativeKind, ReleaseMode};
use server::{Request, RequestKind, RequestOutcome, Server, ServerConfig, Tenant, TrafficConfig};

use crate::span::Tracing;
use crate::{quantile, sample_ns, SplitMix};

/// Default tenants in the fleet.
pub const TENANTS: u32 = 4;

/// Seed of the warm-up requests, the same on every run, so that
/// `setup_s` times the same work whatever `--seed` is.
pub const WARM_SEED: u64 = 0x5EED_5E4F;

/// Request kinds, in [`Phase::service_ns`] index order.
pub const KINDS: [&str; 3] = ["micro", "kernel", "replay"];

fn kind_index(kind: &RequestKind) -> usize {
    match kind {
        RequestKind::Micro { .. } => 0,
        RequestKind::Kernel { .. } => 1,
        RequestKind::Replay { .. } => 2,
    }
}

/// The fleet plus its pre-generated request stream and arrival gaps.
pub struct Fleet {
    /// The serving fleet.
    pub server: Server,
    stream: Vec<Request>,
    /// Exponential inter-arrival gaps at rate 1, one per request.
    unit_gaps: Vec<f64>,
    next: usize,
    workers: usize,
}

impl Fleet {
    /// Builds `TENANTS` default tenants behind `workers` workers,
    /// warms them up by serving `warm` requests back to back, and
    /// generates `requests` arrivals from `seed` with the default traffic
    /// mix (no noisy tenant). The warm-up requests come from
    /// [`WARM_SEED`], so every set-up does the same work.
    pub fn new(seed: u64, workers: usize, requests: usize, warm: usize) -> Fleet {
        let server = Server::new(ServerConfig::with_tenants(TENANTS, workers));
        let traffic = |seed: u64, n: usize| {
            TrafficConfig {
                seed,
                per_tenant: n.div_ceil(TENANTS as usize) as u64,
                ..TrafficConfig::default()
            }
            .generate(TENANTS)
        };
        for req in &traffic(WARM_SEED, warm) {
            let _ = server.tenant(req.tenant).serve(req);
        }
        let stream = traffic(seed, requests);
        let mut rng = SplitMix::new(seed, 5000);
        let unit_gaps = (0..stream.len()).map(|_| -rng.unit().ln()).collect();
        Fleet {
            server,
            stream,
            unit_gaps,
            next: 0,
            workers,
        }
    }

    /// The next `n` stream positions, wrapping to the start of the
    /// stream when it runs out.
    fn take(&mut self, n: usize) -> Range<usize> {
        let n = n.min(self.stream.len());
        if self.next + n > self.stream.len() {
            self.next = 0;
        }
        self.next += n;
        self.next - n..self.next
    }

    /// Offers `rate` requests per second for about `dur`. The phase
    /// gives up once a request completes `abort_after` past its due time.
    pub fn phase<T: Tracing>(&mut self, rate: f64, dur: Duration, abort_after: Duration) -> Phase {
        let n = ((rate * dur.as_secs_f64()) as usize).max(1);
        let range = self.take(n);
        open_loop::<T>(
            &self.server,
            &self.stream[range.clone()],
            &self.unit_gaps[range],
            rate,
            self.workers,
            abort_after,
        )
    }

    /// The fleet's correctness gates: `(name, passed)` pairs, plus the
    /// fleet's shed, retried and failed request counts.
    pub fn gates(&self) -> (Vec<(String, bool)>, [u64; 3]) {
        let mut gates = Vec::new();
        let mut counts = [0u64; 3];
        for t in self.server.tenants() {
            let s = t.stats();
            let id = s.tenant;
            gates.push((
                format!("tenant{id}_completed_equals_admitted"),
                s.completed == s.admitted,
            ));
            gates.push((
                format!("tenant{id}_replay_violations_zero"),
                t.replay_violations() == 0,
            ));
            counts[0] += s.shed_queue_full + s.shed_budget + s.shed_quarantined;
            counts[1] += s.retries;
            counts[2] += t.failed();
        }
        let quiesce = self.server.quiesce_all();
        for v in &quiesce {
            println!("quiescence: {v}");
        }
        gates.push(("fleet_quiesce_all_empty".to_owned(), quiesce.is_empty()));
        (gates, counts)
    }
}

/// The out-of-bounds probe on a tenant VM (fault policy `Contain`):
/// `true` when the Figure 3 write raised a precise tag-check fault that
/// the trampoline contained.
pub fn oob_probe(tenant: &Tenant) -> bool {
    let vm = tenant.vm();
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
    matches!(result, Err(JniError::ContainedFault { fault, .. }) if fault.is_precise())
}

/// What one open-loop phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Requests taken from the schedule and served or shed.
    pub attempted: u64,
    /// Requests shed, failed, or not completed normally.
    pub bad: u64,
    /// Per-request latency from due time to completion, nanoseconds.
    pub lat_ns: Vec<u32>,
    /// First due time to last completion.
    pub wall: Duration,
    /// Last completion minus the last due time: a growing backlog shows here.
    pub drain_lag: Duration,
    /// Whether the phase gave up on a runaway backlog.
    pub aborted: bool,
    /// Due time to `Tenant::serve` entry, nanoseconds (traced).
    pub queue_ns: Vec<u32>,
    /// `Tenant::serve` duration by [`KINDS`] index, nanoseconds (traced).
    pub service_ns: [Vec<u32>; 3],
    /// How late an idle worker started a request after its due time,
    /// nanoseconds (traced): the generator's own lateness.
    pub gen_lag_ns: Vec<u32>,
    /// Summed `Tenant::serve` time, nanoseconds (traced).
    pub busy_ns: u64,
    /// Workers that served the phase.
    pub workers: usize,
}

impl Phase {
    /// Completed requests per second over the phase.
    pub fn achieved(&self) -> f64 {
        (self.attempted - self.bad) as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Latency quantile `q`, microseconds.
    pub fn lat_us(&mut self, q: f64) -> f64 {
        quantile(&mut self.lat_ns, q) / 1e3
    }

    /// Whether the phase met `limit` at p99 with no error and no
    /// growing backlog.
    pub fn meets(&mut self, limit: Duration) -> bool {
        !self.aborted
            && self.bad == 0
            && self.drain_lag <= limit
            && self.lat_us(0.99) <= limit.as_secs_f64() * 1e6
    }
}

/// Spins (sleeping first when far) until `at`.
fn wait_until(at: Instant) {
    loop {
        let now = Instant::now();
        if now >= at {
            return;
        }
        let left = at - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

#[derive(Default)]
struct WorkerLog {
    attempted: u64,
    bad: u64,
    lat: Vec<u32>,
    queue: Vec<u32>,
    service: [Vec<u32>; 3],
    gen_lag: Vec<u32>,
    busy_ns: u64,
    last_end: Option<Instant>,
}

/// Serves `reqs`, the i-th due at the sum of the first i+1 `gaps`
/// divided by `rate`, on `workers` threads taking requests in due order.
pub fn open_loop<T: Tracing>(
    server: &Server,
    reqs: &[Request],
    gaps: &[f64],
    rate: f64,
    workers: usize,
    abort_after: Duration,
) -> Phase {
    let mut due = Vec::with_capacity(reqs.len());
    let mut t = 0.0;
    for g in gaps {
        t += g / rate;
        due.push(Duration::from_secs_f64(t));
    }
    let cursor = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let merged = Mutex::new(WorkerLog::default());
    let start = Instant::now() + Duration::from_millis(2);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                let mut log = WorkerLog {
                    lat: Vec::with_capacity(reqs.len() / workers + 16),
                    ..WorkerLog::default()
                };
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(req) = reqs.get(i) else { break };
                    if abort.load(Ordering::Relaxed) {
                        break;
                    }
                    let due_at = start + due[i];
                    let early = Instant::now() < due_at;
                    if early {
                        wait_until(due_at);
                    }
                    let t_start = Instant::now();
                    let outcome = server.tenant(req.tenant).serve(req);
                    let t_end = Instant::now();
                    log.attempted += 1;
                    if outcome != Ok(RequestOutcome::Completed) {
                        log.bad += 1;
                    }
                    let lat = t_end - due_at;
                    log.lat.push(sample_ns(lat));
                    log.last_end = Some(t_end);
                    if lat > abort_after {
                        abort.store(true, Ordering::Relaxed);
                    }
                    if T::ON {
                        let service = sample_ns(t_end - t_start);
                        log.queue.push(sample_ns(t_start - due_at));
                        log.service[kind_index(&req.kind)].push(service);
                        log.busy_ns += u64::from(service);
                        if early {
                            log.gen_lag.push(sample_ns(t_start - due_at));
                        }
                    }
                }
                let mut m = merged.lock().expect("a worker panicked");
                m.attempted += log.attempted;
                m.bad += log.bad;
                m.lat.append(&mut log.lat);
                m.queue.append(&mut log.queue);
                for (dst, src) in m.service.iter_mut().zip(&mut log.service) {
                    dst.append(src);
                }
                m.gen_lag.append(&mut log.gen_lag);
                m.busy_ns += log.busy_ns;
                m.last_end = m.last_end.max(log.last_end);
            });
        }
    });
    let m = merged.into_inner().expect("a worker panicked");
    let last_end = m.last_end.unwrap_or(start);
    let last_due = start + due.last().copied().unwrap_or_default();
    Phase {
        attempted: m.attempted,
        bad: m.bad,
        lat_ns: m.lat,
        wall: last_end.saturating_duration_since(start),
        drain_lag: last_end.saturating_duration_since(last_due),
        aborted: abort.load(Ordering::Relaxed),
        queue_ns: m.queue,
        service_ns: m.service,
        gen_lag_ns: m.gen_lag,
        busy_ns: m.busy_ns,
        workers,
    }
}
