//! The repository benchmark: end-to-end workloads and a per-layer
//! ledger, measured from outside the program through the public API of
//! each crate.
//!
//! Two binaries share this library:
//!
//! * `perfbench-jni` runs the `jni-small` and `jni-bulk` closed loops
//!   and the JNI-side ledger. It is built without mte-sim's
//!   `stress-hooks`, like a production runtime.
//! * `perfbench-serve` (feature `serve`) runs the `serve-open` open loop
//!   on the `server` fleet and the serving-side ledger. `server` enables
//!   the hooks as a normal dependency, so this binary carries them.
//!
//! `perfbench/run.py` builds both, runs one workload per process and
//! prints the result line; see `perfbench/README.md` for the metrics.

#![forbid(unsafe_code)]

pub mod jni_load;
pub mod layers;
#[cfg(feature = "serve")]
pub mod serve_load;
pub mod span;

use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use telemetry::json::JsonValue;

/// The mte-sim feature set this binary was compiled with.
pub fn features() -> &'static str {
    if cfg!(feature = "serve") {
        "mte-sim/stress-hooks (enabled by server)"
    } else {
        "mte-sim default (no stress-hooks)"
    }
}

/// Worker threads for every workload: one per core the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The options every benchmark binary takes.
#[derive(Clone, Debug)]
pub struct Cli {
    /// Workload name, or `ledger` for the traced per-layer run.
    pub workload: String,
    /// Seed all inputs derive from.
    pub seed: u64,
    /// Seconds the measured section lasts.
    pub seconds: f64,
    /// Where the result document is written.
    pub out: Option<PathBuf>,
}

impl Cli {
    /// Parses `--workload W --seed N --seconds S [--out FILE]`.
    ///
    /// # Errors
    ///
    /// A usage message for a missing or malformed option.
    pub fn parse() -> Result<Cli, String> {
        let raw: Vec<String> = std::env::args().skip(1).collect();
        let value = |name: &str| -> Option<&str> {
            raw.iter()
                .position(|a| a == name)
                .and_then(|i| raw.get(i + 1))
                .map(String::as_str)
        };
        let workload = value("--workload")
            .ok_or("--workload is required")?
            .to_owned();
        let seed = value("--seed")
            .unwrap_or("1")
            .parse()
            .map_err(|e| format!("--seed: {e}"))?;
        let seconds: f64 = value("--seconds")
            .unwrap_or("10")
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?;
        if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds must be in (0, 600], got {seconds}"));
        }
        Ok(Cli {
            workload,
            seed,
            seconds,
            out: value("--out").map(PathBuf::from),
        })
    }

    /// `seconds` as a duration.
    pub fn duration(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }
}

/// SplitMix64: the seeded generator behind every benchmark input.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed` mixed with `stream`, so each client or
    /// input gets an independent sequence.
    pub fn new(seed: u64, stream: u64) -> SplitMix {
        SplitMix(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform draw in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// Nanoseconds since the first call in this process: the span clock.
#[inline]
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Nanoseconds of `d`, saturated into a `u32` sample (4.29 s max).
pub fn sample_ns(d: Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

/// A fixed-size uniform sample of a stream of latency samples
/// (reservoir sampling). Its memory is allocated and touched up front,
/// so the benchmark's own memory does not vary with the program's
/// throughput and `rss_peak_mb` stays the program's.
#[derive(Clone, Debug)]
pub struct Reservoir {
    buf: Vec<u32>,
    len: usize,
    seen: u64,
    rng: SplitMix,
}

impl Reservoir {
    /// An empty reservoir keeping at most `cap` samples.
    pub fn new(cap: usize, seed: u64) -> Reservoir {
        Reservoir {
            buf: vec![u32::MAX; cap],
            len: 0,
            seen: 0,
            rng: SplitMix::new(seed, 0x5a3),
        }
    }

    /// Offers one sample.
    #[inline]
    pub fn push(&mut self, x: u32) {
        self.seen += 1;
        if self.len < self.buf.len() {
            self.buf[self.len] = x;
            self.len += 1;
        } else {
            let j = self.rng.next_u64() % self.seen;
            if let Some(slot) = self.buf.get_mut(j as usize) {
                *slot = x;
            }
        }
    }

    /// Samples offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The kept samples.
    pub fn samples(&self) -> &[u32] {
        &self.buf[..self.len]
    }
}

/// The `q`-quantile (0..=1) of `samples` by nearest rank; sorts in
/// place. Empty input gives 0.
pub fn quantile(samples: &mut [u32], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    f64::from(samples[rank - 1])
}

/// The median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The mean of `values` without their highest and lowest (plain mean
/// below three values).
pub fn trimmed_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let kept = if v.len() >= 3 {
        &v[1..v.len() - 1]
    } else {
        &v[..]
    };
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One run's result: metrics with units, operation counts, correctness
/// gates and free-form facts, written as one JSON document.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    gates: Vec<(String, bool)>,
    info: Vec<(String, JsonValue)>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Report {
        Report::default()
    }

    /// Records metric `name` in `unit`.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_owned(), value, unit));
    }

    /// Adds operations attempted and failed.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Records a correctness gate. A failed gate counts one failed
    /// operation, so it shows in `error_rate` as well as in `correct`.
    pub fn gate(&mut self, name: &str, ok: bool) {
        if !ok {
            self.ops(1, 1);
        }
        self.gates.push((name.to_owned(), ok));
    }

    /// Records a fact about the run (sample counts, rates, findings).
    pub fn info(&mut self, key: &str, value: impl Into<JsonValue>) {
        self.info.push((key.to_owned(), value.into()));
    }

    /// Whether every gate passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.gates.iter().all(|(_, ok)| *ok)
    }

    /// Prints the human-readable summary, writes the JSON document to
    /// `out` (if given) and returns the process exit code: 0 when
    /// correct, 1 otherwise.
    pub fn finish(self, out: Option<&std::path::Path>) -> i32 {
        let correct = self.correct();
        for (name, ok) in &self.gates {
            println!("gate {:<44} {}", name, if *ok { "ok" } else { "FAILED" });
        }
        for (name, value, unit) in &self.metrics {
            println!("{name:<44} {value:>16.4} {unit}");
        }
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "{:<44} {:>16.6} (failed {} of {} attempted)",
            "error_rate", error_rate, self.failed, self.attempted
        );
        let mut doc = JsonValue::object();
        doc.insert("correct", correct)
            .insert("attempted", self.attempted)
            .insert("failed", self.failed)
            .insert("error_rate", error_rate);
        let mut metrics = JsonValue::object();
        for (name, value, unit) in &self.metrics {
            let mut m = JsonValue::object();
            m.insert("value", *value).insert("unit", *unit);
            metrics.insert(name, m);
        }
        doc.insert("metrics", metrics);
        let mut gates = JsonValue::object();
        for (name, ok) in &self.gates {
            gates.insert(name, *ok);
        }
        doc.insert("gates", gates);
        let mut info = JsonValue::object();
        info.insert("features", features()).insert("nproc", nproc());
        for (k, v) in self.info {
            info.insert(&k, v);
        }
        doc.insert("info", info);
        if let Some(path) = out {
            if let Err(e) = std::fs::write(path, doc.to_pretty_string()) {
                eprintln!("error: writing {}: {e}", path.display());
                return 2;
            }
        }
        i32::from(!correct)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let mut v: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn reservoir_keeps_a_bounded_uniform_sample() {
        let mut r = Reservoir::new(1000, 9);
        for x in 0..100_000u32 {
            r.push(x);
        }
        assert_eq!(r.seen(), 100_000);
        let mut v = r.samples().to_vec();
        assert_eq!(v.len(), 1000);
        let mid = quantile(&mut v, 0.5);
        assert!((40_000.0..60_000.0).contains(&mid), "median {mid}");
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn trimmed_mean_drops_the_extremes() {
        assert_eq!(trimmed_mean(&[100.0, 1.0, 2.0, 3.0, -50.0]), 2.0);
        assert_eq!(trimmed_mean(&[1.0, 3.0]), 2.0);
        assert_eq!(trimmed_mean(&[]), 0.0);
    }

    #[test]
    fn splitmix_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = SplitMix::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = SplitMix::new(7, 1);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert_ne!(SplitMix::new(7, 2).next_u64(), a[0]);
        assert!((0..1000).all(|_| {
            let u = r.unit();
            u > 0.0 && u <= 1.0
        }));
    }
}
