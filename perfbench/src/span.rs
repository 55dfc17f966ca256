//! Spans recorded by the benchmark around calls into each layer's
//! public functions. Nothing inside the program is instrumented: a span
//! starts before the benchmark calls a layer and ends when the call
//! returns. The one span below the JNI funnel comes from
//! [`TimedProtection`], a decorator the benchmark installs as the VM's
//! protection scheme.
//!
//! Each thread keeps per-name totals in memory, plus the first
//! [`LOG_CAP`] spans with their request id for the result document. A
//! span's self time is its duration minus the durations of its child
//! spans.

use std::cell::RefCell;
use std::fmt;
use std::sync::Arc;

use art_heap::{ObjectRef, Safepoint};
use jni_rt::{AcquireOutcome, JniContext, Protection, ReleaseMode};
use mte_sim::{TaggedMemory, TaggedPtr};
use telemetry::json::JsonValue;

use crate::now_ns;

/// The spans the benchmark records, with their parent in the call tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Name {
    /// `JniEnv::call_native`, the trampoline around the native body.
    Call,
    /// `JniEnv::get_primitive_array_critical`.
    Acquire,
    /// `Protection::on_acquire` inside the funnel.
    OnAcquire,
    /// The native body's checked loads and stores.
    Native,
    /// `JniEnv::release_primitive_array_critical`.
    Release,
    /// `Protection::on_release` inside the funnel.
    OnRelease,
}

/// Number of span names.
pub const NAMES: usize = 6;

impl Name {
    /// Every name, in index order.
    pub const ALL: [Name; NAMES] = [
        Name::Call,
        Name::Acquire,
        Name::OnAcquire,
        Name::Native,
        Name::Release,
        Name::OnRelease,
    ];

    /// The span this one nests in.
    pub fn parent(self) -> Option<Name> {
        match self {
            Name::Call => None,
            Name::Acquire | Name::Native | Name::Release => Some(Name::Call),
            Name::OnAcquire => Some(Name::Acquire),
            Name::OnRelease => Some(Name::Release),
        }
    }

    /// Label in the span log.
    pub fn label(self) -> &'static str {
        match self {
            Name::Call => "jni.call_native",
            Name::Acquire => "jni.get_primitive_array_critical",
            Name::OnAcquire => "mte4jni.on_acquire",
            Name::Native => "native.body",
            Name::Release => "jni.release_primitive_array_critical",
            Name::OnRelease => "mte4jni.on_release",
        }
    }
}

/// Per-name span totals.
#[derive(Clone, Debug, Default)]
pub struct Totals {
    total_ns: [u64; NAMES],
    child_ns: [u64; NAMES],
    count: [u64; NAMES],
}

impl Totals {
    /// Spans recorded under `name`.
    pub fn count(&self, name: Name) -> u64 {
        self.count[name as usize]
    }

    /// Summed self time of `name`: its durations minus its children's.
    pub fn self_ns(&self, name: Name) -> u64 {
        self.total_ns[name as usize].saturating_sub(self.child_ns[name as usize])
    }

    /// Summed duration of `name`, children included.
    pub fn total_ns(&self, name: Name) -> u64 {
        self.total_ns[name as usize]
    }

    /// Mean self time per `name` span.
    pub fn mean_self_ns(&self, name: Name) -> f64 {
        self.self_ns(name) as f64 / self.count(name).max(1) as f64
    }

    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &Totals) {
        for i in 0..NAMES {
            self.total_ns[i] += other.total_ns[i];
            self.child_ns[i] += other.child_ns[i];
            self.count[i] += other.count[i];
        }
    }
}

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct SpanRec {
    /// The operation the span belongs to, shared by all its spans.
    pub request: u64,
    /// What was called.
    pub name: Name,
    /// Start, nanoseconds on the process span clock.
    pub start_ns: u64,
    /// End, nanoseconds on the process span clock.
    pub end_ns: u64,
}

/// Spans kept per thread for the result document.
pub const LOG_CAP: usize = 64;

#[derive(Default)]
struct Local {
    totals: Totals,
    request: u64,
    log: Vec<SpanRec>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

/// Marks the start of operation `id` on this thread: later spans carry it.
pub fn begin_request(id: u64) {
    LOCAL.with(|l| l.borrow_mut().request = id);
}

/// Records one span on this thread.
pub fn record(name: Name, start_ns: u64, end_ns: u64) {
    let d = end_ns.saturating_sub(start_ns);
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let i = name as usize;
        l.totals.total_ns[i] += d;
        l.totals.count[i] += 1;
        if let Some(p) = name.parent() {
            l.totals.child_ns[p as usize] += d;
        }
        if l.log.len() < LOG_CAP {
            let request = l.request;
            l.log.push(SpanRec {
                request,
                name,
                start_ns,
                end_ns,
            });
        }
    });
}

/// Drains this thread's totals and span log.
pub fn take() -> (Totals, Vec<SpanRec>) {
    LOCAL.with(|l| {
        let l = std::mem::take(&mut *l.borrow_mut());
        (l.totals, l.log)
    })
}

/// The span log as JSON: name, parent, request, start and duration.
pub fn log_json(log: &[SpanRec]) -> JsonValue {
    JsonValue::Array(
        log.iter()
            .map(|s| {
                let mut o = JsonValue::object();
                o.insert("request", s.request)
                    .insert("name", s.name.label())
                    .insert("parent", s.name.parent().map_or("", Name::label))
                    .insert("start_ns", s.start_ns)
                    .insert("dur_ns", s.end_ns.saturating_sub(s.start_ns));
                o
            })
            .collect(),
    )
}

/// Compile-time switch between the traced and the untraced run of the
/// same kernel code: with [`Off`] every stamp and record compiles away.
pub trait Tracing: Copy + Send + Sync + 'static {
    /// Whether spans are recorded.
    const ON: bool;
}

/// Spans off: the end-to-end runs.
#[derive(Clone, Copy, Debug)]
pub struct Off;

/// Spans on: the traced run.
#[derive(Clone, Copy, Debug)]
pub struct On;

impl Tracing for Off {
    const ON: bool = false;
}

impl Tracing for On {
    const ON: bool = true;
}

/// A span timestamp when tracing, else 0.
#[inline(always)]
pub fn stamp<T: Tracing>() -> u64 {
    if T::ON {
        now_ns()
    } else {
        0
    }
}

/// Records a span when tracing.
#[inline(always)]
pub fn rec<T: Tracing>(name: Name, start_ns: u64, end_ns: u64) {
    if T::ON {
        record(name, start_ns, end_ns);
    }
}

/// A protection scheme that times `on_acquire` and `on_release` of the
/// scheme it wraps and delegates every trait method to it.
pub struct TimedProtection {
    inner: Arc<dyn Protection>,
}

impl TimedProtection {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn Protection>) -> TimedProtection {
        TimedProtection { inner }
    }
}

impl fmt::Debug for TimedProtection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TimedProtection")
            .field("inner", &self.inner)
            .finish()
    }
}

impl Protection for TimedProtection {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_acquire(&self, cx: &JniContext<'_>, obj: &ObjectRef) -> jni_rt::Result<AcquireOutcome> {
        let t0 = now_ns();
        let out = self.inner.on_acquire(cx, obj);
        record(Name::OnAcquire, t0, now_ns());
        out
    }

    fn on_release(
        &self,
        cx: &JniContext<'_>,
        obj: &ObjectRef,
        ptr: TaggedPtr,
        mode: ReleaseMode,
    ) -> jni_rt::Result<()> {
        let t0 = now_ns();
        let out = self.inner.on_release(cx, obj, ptr, mode);
        record(Name::OnRelease, t0, now_ns());
        out
    }

    fn uses_thread_mte(&self) -> bool {
        self.inner.uses_thread_mte()
    }

    fn on_relocate(&self, old_payload: u64, new_payload: u64) {
        self.inner.on_relocate(old_payload, new_payload);
    }

    fn on_safepoint(&self, mem: &TaggedMemory, sp: &Safepoint<'_>) {
        self.inner.on_safepoint(mem, sp);
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        self.inner.counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let _ = take();
        begin_request(3);
        record(Name::Call, 0, 100);
        record(Name::Acquire, 10, 40);
        record(Name::OnAcquire, 15, 35);
        record(Name::Native, 40, 60);
        let (t, log) = take();
        assert_eq!(t.self_ns(Name::Call), 50);
        assert_eq!(t.self_ns(Name::Acquire), 10);
        assert_eq!(t.self_ns(Name::OnAcquire), 20);
        assert_eq!(log.len(), 4);
        assert!(log.iter().all(|s| s.request == 3));
        assert_eq!(take().0.count(Name::Call), 0, "take drains");
    }
}
