//! The stop-the-world gate used by the compacting collector.
//!
//! A tiny reader–writer gate with *recursive-read* semantics: a new
//! shared hold is granted even while an exclusive request is queued.
//! That property is load-bearing — a payload accessor can nest inside
//! another gated section on the same thread (e.g. guarded-copy's
//! `on_acquire` calling `Heap::read_payload` under the acquire-side
//! hold), and a queued collector must not deadlock that thread against
//! itself. Exclusive holds are short (one compaction pass), so writer
//! starvation is not a practical concern.

use std::sync::{Condvar, Mutex, PoisonError};

#[derive(Default)]
struct State {
    readers: usize,
    writer: bool,
    /// Writers blocked in [`WorldGate::write`]. The last reader out
    /// notifies only when this is nonzero: a `notify_all` costs a
    /// futex syscall even with nobody waiting, and every payload
    /// access, allocation and sweep ends with a reader leaving.
    waiting_writers: usize,
}

/// The gate. Shared holds = mutator payload accesses, allocations,
/// sweeps, and pins that met a frozen ledger; the exclusive hold = a
/// compaction pass.
#[derive(Default)]
pub(crate) struct WorldGate {
    state: Mutex<State>,
    cond: Condvar,
}

impl WorldGate {
    /// Acquires a shared hold; blocks only while an exclusive hold is
    /// *active* (never for a merely queued one).
    pub(crate) fn read_recursive(&self) -> ReadGuard<'_> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        while state.writer {
            state = self
                .cond
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.readers += 1;
        ReadGuard { gate: self }
    }

    /// Acquires the exclusive hold, blocking until every shared hold is
    /// released.
    pub(crate) fn write(&self) -> WriteGuard<'_> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.waiting_writers += 1;
        while state.readers > 0 || state.writer {
            state = self
                .cond
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.waiting_writers -= 1;
        state.writer = true;
        WriteGuard { gate: self }
    }
}

/// A shared hold on the [`WorldGate`].
pub(crate) struct ReadGuard<'a> {
    gate: &'a WorldGate,
}

impl Drop for ReadGuard<'_> {
    fn drop(&mut self) {
        let mut state = self
            .gate
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        state.readers -= 1;
        if state.readers == 0 && state.waiting_writers > 0 {
            self.gate.cond.notify_all();
        }
    }
}

/// The exclusive hold on the [`WorldGate`].
pub(crate) struct WriteGuard<'a> {
    gate: &'a WorldGate,
}

impl Drop for WriteGuard<'_> {
    fn drop(&mut self) {
        let mut state = self
            .gate
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        state.writer = false;
        self.gate.cond.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn reads_nest_on_one_thread() {
        let gate = WorldGate::default();
        let a = gate.read_recursive();
        let b = gate.read_recursive(); // must not deadlock
        drop(a);
        drop(b);
        let _w = gate.write(); // fully released: writer proceeds
    }

    #[test]
    fn writer_waits_for_readers_and_excludes_them() {
        let gate = Arc::new(WorldGate::default());
        let read = gate.read_recursive();
        let (tx, rx) = std::sync::mpsc::channel();
        let writer = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                let w = gate.write();
                tx.send(()).unwrap();
                std::thread::sleep(Duration::from_millis(20));
                drop(w);
            })
        };
        // The writer cannot start while the read hold is live.
        assert!(rx.recv_timeout(Duration::from_millis(50)).is_err());
        drop(read);
        rx.recv_timeout(Duration::from_secs(5)).unwrap();
        // And once it runs, a new reader waits for it to finish.
        let _read = gate.read_recursive();
        writer.join().unwrap();
    }

    #[test]
    fn queued_writer_does_not_block_new_readers() {
        let gate = Arc::new(WorldGate::default());
        let outer = gate.read_recursive();
        let writer = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                let _w = gate.write();
            })
        };
        // Give the writer time to queue up behind `outer`.
        std::thread::sleep(Duration::from_millis(20));
        // Recursive shared acquisition must still succeed immediately.
        let inner = gate.read_recursive();
        drop(inner);
        drop(outer);
        writer.join().unwrap();
    }
}
