//! The pin ledger: the heap half of the JNI pinning contract.
//!
//! `GetPrimitiveArrayCritical` and friends promise native code a stable
//! pointer until the matching `Release*`. Real ART honours that promise
//! by pinning the object against the moving collector; before this module
//! existed, [`Heap::sweep`] would happily reclaim a natively-borrowed
//! object the moment its last Java handle died — leaving the protection
//! scheme's tag-table entry keyed at a recyclable address (the stale-tag
//! use-after-free class the paper's timely tag release is built to kill).
//!
//! The ledger keeps one entry per pinned object: a pin count plus a
//! *strong* [`LiveToken`] reference. The strong reference makes the fix
//! airtight at the liveness level (a pinned object can never look dead),
//! and the explicit ledger check in [`Heap::sweep`] / the compacting
//! collector makes the contract auditable: sweep never reclaims, and
//! compaction never moves, a pinned object.
//!
//! [`Heap::sweep`]: crate::Heap::sweep

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use mte_sim::shard::{CachePadded, Sharded};
use parking_lot::Mutex;

use crate::object::LiveToken;
use crate::world::WorldGate;

/// Address shards of the ledger: borrows of unrelated objects take
/// different locks, like the tag table's address-keyed sub-tables.
const SHARDS: usize = 64;

struct PinEntry {
    count: u32,
    token: Arc<LiveToken>,
}

#[derive(Default)]
struct Counts {
    pins: AtomicU64,
    unpins: AtomicU64,
}

/// Per-heap registry of natively-borrowed objects.
///
/// A pin takes no world-gate hold. The compacting collector excludes
/// pins instead by freezing the ledger for its pass ([`PinLedger::freeze`]):
/// a pin that finds the ledger frozen, or finds that its object moved
/// between hashing its address and locking the shard, waits the pass
/// out on the gate and retries. The collector freezes before its first
/// `is_pinned` shard lock, so every pin either lands in a shard before
/// the collector looks there (and the object stays put) or sees the
/// flag (DESIGN §11).
pub(crate) struct PinLedger {
    shards: [CachePadded<Mutex<HashMap<u64, PinEntry>>>; SHARDS],
    frozen: AtomicBool,
    counts: Sharded<Counts>,
}

impl Default for PinLedger {
    fn default() -> Self {
        PinLedger {
            shards: std::array::from_fn(|_| CachePadded::default()),
            frozen: AtomicBool::new(false),
            counts: Sharded::default(),
        }
    }
}

impl PinLedger {
    #[inline]
    fn shard(&self, addr: u64) -> &Mutex<HashMap<u64, PinEntry>> {
        // Multiplicative (Fibonacci) hash of the address above its
        // always-zero alignment bits: the top bits of the product mix
        // every address bit, so a run of headers spreads over all shards.
        let i = (addr >> 3).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - SHARDS.trailing_zeros());
        &self.shards[i as usize]
    }

    /// Pins the object behind `token`, returning the new pin count.
    ///
    /// While a compaction pass holds `world` exclusively with the ledger
    /// frozen, the pin blocks on a shared hold of `world` until the pass
    /// ends, then retries at the object's (possibly new) address.
    pub(crate) fn pin(&self, token: &Arc<LiveToken>, world: &WorldGate) -> u32 {
        loop {
            let addr = token.addr();
            let mut entries = self.shard(addr).lock();
            if !self.frozen.load(Ordering::Acquire) && token.addr() == addr {
                let entry = entries.entry(addr).or_insert_with(|| PinEntry {
                    count: 0,
                    token: Arc::clone(token),
                });
                entry.count += 1;
                self.counts.local().pins.fetch_add(1, Ordering::Relaxed);
                return entry.count;
            }
            drop(entries);
            drop(world.read_recursive());
        }
    }

    /// Drops one pin from the object at `addr`. Returns the remaining pin
    /// count, or `None` when the address was not pinned (a tolerated
    /// caller error, like `Release*` without a matching `Get*`).
    pub(crate) fn unpin(&self, addr: u64) -> Option<u32> {
        let mut entries = self.shard(addr).lock();
        let entry = entries.get_mut(&addr)?;
        entry.count -= 1;
        let remaining = entry.count;
        if remaining == 0 {
            entries.remove(&addr);
        }
        self.counts.local().unpins.fetch_add(1, Ordering::Relaxed);
        Some(remaining)
    }

    /// Freezes the ledger against new pins until the returned guard
    /// drops. The caller must hold the world gate exclusively, and must
    /// freeze before its first [`PinLedger::is_pinned`] of the pass.
    pub(crate) fn freeze(&self) -> Frozen<'_> {
        // Ordered before the caller's first shard lock: any pin that
        // takes a shard lock after the caller held it sees the flag.
        self.frozen.store(true, Ordering::SeqCst);
        Frozen { ledger: self }
    }

    /// Whether the object at `addr` is currently pinned.
    pub(crate) fn is_pinned(&self, addr: u64) -> bool {
        self.shard(addr).lock().contains_key(&addr)
    }

    /// Number of distinct pinned objects.
    pub(crate) fn pinned_objects(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// The liveness token of the pinned object at `addr`, if any — this
    /// is how a `Release*` can resurrect a handle after native code
    /// outlived the last Java reference.
    pub(crate) fn token(&self, addr: u64) -> Option<Arc<LiveToken>> {
        self.shard(addr).lock().get(&addr).map(|e| Arc::clone(&e.token))
    }

    /// Cumulative pins ever taken.
    pub(crate) fn pins_total(&self) -> u64 {
        self.counts.iter().map(|c| c.pins.load(Ordering::Relaxed)).sum()
    }

    /// Cumulative pins ever dropped.
    pub(crate) fn unpins_total(&self) -> u64 {
        self.counts.iter().map(|c| c.unpins.load(Ordering::Relaxed)).sum()
    }
}

/// A frozen [`PinLedger`]; thaws on drop, also when a compaction pass
/// unwinds.
pub(crate) struct Frozen<'a> {
    ledger: &'a PinLedger,
}

impl Drop for Frozen<'_> {
    fn drop(&mut self) {
        // Release: a pin that reads the cleared flag also sees every
        // relocation the pass made, so its address re-check is exact.
        self.ledger.frozen.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::ObjKind;
    use crate::types::PrimitiveType;
    use std::time::Duration;

    fn token(addr: u64) -> Arc<LiveToken> {
        Arc::new(LiveToken::new(addr, ObjKind::Array(PrimitiveType::Int), 4))
    }

    /// A ledger with the world gate its pins wait on.
    fn ledger() -> (PinLedger, WorldGate) {
        (PinLedger::default(), WorldGate::default())
    }

    #[test]
    fn pin_counts_nest() {
        let (ledger, world) = ledger();
        let t = token(0x1000);
        assert_eq!(ledger.pin(&t, &world), 1);
        assert_eq!(ledger.pin(&t, &world), 2);
        assert!(ledger.is_pinned(0x1000));
        assert_eq!(ledger.unpin(0x1000), Some(1));
        assert!(ledger.is_pinned(0x1000), "still borrowed once");
        assert_eq!(ledger.unpin(0x1000), Some(0));
        assert!(!ledger.is_pinned(0x1000));
        assert_eq!(ledger.pins_total(), 2);
        assert_eq!(ledger.unpins_total(), 2);
    }

    #[test]
    fn unpin_of_unpinned_address_is_tolerated() {
        let (ledger, _world) = ledger();
        assert_eq!(ledger.unpin(0xdead), None);
        assert_eq!(ledger.unpins_total(), 0);
    }

    #[test]
    fn ledger_holds_the_object_live() {
        let (ledger, world) = ledger();
        let t = token(0x2000);
        let weak = Arc::downgrade(&t);
        ledger.pin(&t, &world);
        drop(t); // last "Java handle" dies
        assert!(weak.upgrade().is_some(), "the pin keeps the token alive");
        let resurrected = ledger.token(0x2000).expect("pinned");
        assert_eq!(resurrected.addr(), 0x2000);
        ledger.unpin(0x2000);
        drop(resurrected);
        assert!(weak.upgrade().is_none(), "unpinned and unreferenced: dead");
    }

    #[test]
    fn pinned_objects_counts_distinct_addresses() {
        let (ledger, world) = ledger();
        let a = token(0x1000);
        let b = token(0x2000);
        ledger.pin(&a, &world);
        ledger.pin(&a, &world);
        ledger.pin(&b, &world);
        assert_eq!(ledger.pinned_objects(), 2);
    }

    #[test]
    fn counts_sum_over_threads_and_shards() {
        let (ledger, world) = ledger();
        let tokens: Vec<_> = (0..256u64).map(|i| token(0x1000 + 16 * i)).collect();
        std::thread::scope(|s| {
            for chunk in tokens.chunks(64) {
                let (ledger, world) = (&ledger, &world);
                s.spawn(move || {
                    for t in chunk {
                        assert_eq!(ledger.pin(t, world), 1);
                    }
                });
            }
        });
        assert_eq!(ledger.pinned_objects(), 256);
        assert!(ledger.shards.iter().all(|s| !s.lock().is_empty()), "addresses spread");
        for t in &tokens {
            assert_eq!(ledger.unpin(t.addr()), Some(0));
        }
        assert_eq!((ledger.pins_total(), ledger.unpins_total()), (256, 256));
        assert_eq!(ledger.pinned_objects(), 0);
    }

    #[test]
    fn pin_waits_out_a_compaction_pass() {
        let (ledger, world) = ledger();
        let t = token(0x3000);
        let hold = world.write();
        let frozen = ledger.freeze();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| tx.send(ledger.pin(&t, &world)).unwrap());
            assert!(
                rx.recv_timeout(Duration::from_millis(50)).is_err(),
                "a pin must not land while the ledger is frozen"
            );
            assert!(!ledger.is_pinned(0x3000));
            drop(frozen);
            drop(hold);
            assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(1));
        });
        assert!(ledger.is_pinned(0x3000));
    }
}
