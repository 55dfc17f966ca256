//! Operation counters for experiments and tests.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::shard::Sharded;

/// One thread group's counters.
#[derive(Default)]
struct Shard {
    loads: AtomicU64,
    stores: AtomicU64,
    sync_faults: AtomicU64,
    async_faults: AtomicU64,
    irg_ops: AtomicU64,
    ldg_ops: AtomicU64,
    stg_ops: AtomicU64,
}

/// Monotonic counters maintained by [`TaggedMemory`].
///
/// The counters make the cost model of each protection scheme observable:
/// the guarded-copy baseline shows up as bulk byte traffic while MTE4JNI
/// shows up as `stg`/`st2g` traffic roughly 1/16th the object size.
///
/// Counts are per *operation* (one `read_bytes` of any length is one
/// load; one `set_tag_range` adds its granule count once), so the wide
/// kernels (DESIGN.md §10) and the scalar reference report identical
/// deltas — the differential suite asserts exactly that.
///
/// Each thread counts into its own cache-line-aligned shard, so threads
/// tagging different objects never contend on a counter;
/// [`MteStats::snapshot`] sums the shards.
///
/// [`TaggedMemory`]: crate::TaggedMemory
#[derive(Default)]
pub struct MteStats {
    shards: Sharded<Shard>,
}

impl MteStats {
    #[inline]
    fn shard(&self) -> &Shard {
        self.shards.local()
    }
    #[inline]
    pub(crate) fn count_load(&self) {
        self.shard().loads.fetch_add(1, Ordering::Relaxed);
    }
    #[inline]
    pub(crate) fn count_store(&self) {
        self.shard().stores.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn count_sync_fault(&self) {
        self.shard().sync_faults.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn count_async_fault(&self) {
        self.shard().async_faults.fetch_add(1, Ordering::Relaxed);
    }
    #[inline]
    pub(crate) fn count_irg(&self) {
        self.shard().irg_ops.fetch_add(1, Ordering::Relaxed);
    }
    #[inline]
    pub(crate) fn count_ldg(&self) {
        self.shard().ldg_ops.fetch_add(1, Ordering::Relaxed);
    }
    #[inline]
    pub(crate) fn count_stg(&self, granules: u64) {
        self.shard().stg_ops.fetch_add(granules, Ordering::Relaxed);
    }

    /// Takes a consistent-enough snapshot of all counters: the sum over
    /// every thread's shard.
    pub fn snapshot(&self) -> MteStatsSnapshot {
        let mut s = MteStatsSnapshot::default();
        for shard in self.shards.iter() {
            s.loads += shard.loads.load(Ordering::Relaxed);
            s.stores += shard.stores.load(Ordering::Relaxed);
            s.sync_faults += shard.sync_faults.load(Ordering::Relaxed);
            s.async_faults += shard.async_faults.load(Ordering::Relaxed);
            s.irg_ops += shard.irg_ops.load(Ordering::Relaxed);
            s.ldg_ops += shard.ldg_ops.load(Ordering::Relaxed);
            s.stg_ops += shard.stg_ops.load(Ordering::Relaxed);
        }
        s
    }
}

impl fmt::Debug for MteStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("MteStats").field(&self.snapshot()).finish()
    }
}

/// A point-in-time copy of [`MteStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MteStatsSnapshot {
    /// Bulk data reads performed (`read_bytes*`). Scalar accesses are
    /// not counted to keep the per-access hot path free of shared-counter
    /// traffic.
    pub loads: u64,
    /// Bulk data writes performed (`write_bytes*`/`fill*`).
    pub stores: u64,
    /// Synchronous tag-check faults raised.
    pub sync_faults: u64,
    /// Asynchronous tag-check faults latched.
    pub async_faults: u64,
    /// Random tag generations (`irg`).
    pub irg_ops: u64,
    /// Tag loads (`ldg`).
    pub ldg_ops: u64,
    /// Granules tagged by `stg`/`st2g`/`stzg`/range stores.
    pub stg_ops: u64,
}

impl MteStatsSnapshot {
    /// Counter-wise difference `self - earlier`, saturating at zero.
    #[must_use]
    pub fn since(&self, earlier: &MteStatsSnapshot) -> MteStatsSnapshot {
        MteStatsSnapshot {
            loads: self.loads.saturating_sub(earlier.loads),
            stores: self.stores.saturating_sub(earlier.stores),
            sync_faults: self.sync_faults.saturating_sub(earlier.sync_faults),
            async_faults: self.async_faults.saturating_sub(earlier.async_faults),
            irg_ops: self.irg_ops.saturating_sub(earlier.irg_ops),
            ldg_ops: self.ldg_ops.saturating_sub(earlier.ldg_ops),
            stg_ops: self.stg_ops.saturating_sub(earlier.stg_ops),
        }
    }

    /// Total faults of both kinds.
    pub fn total_faults(&self) -> u64 {
        self.sync_faults + self.async_faults
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::SHARDS;

    #[test]
    fn snapshot_reflects_counts() {
        let stats = MteStats::default();
        stats.count_load();
        stats.count_load();
        stats.count_store();
        stats.count_sync_fault();
        stats.count_async_fault();
        stats.count_irg();
        stats.count_ldg();
        stats.count_stg(4);
        let snap = stats.snapshot();
        assert_eq!(snap.loads, 2);
        assert_eq!(snap.stores, 1);
        assert_eq!(snap.total_faults(), 2);
        assert_eq!(snap.irg_ops, 1);
        assert_eq!(snap.ldg_ops, 1);
        assert_eq!(snap.stg_ops, 4);
    }

    #[test]
    fn snapshot_sums_every_thread_shard() {
        let stats = MteStats::default();
        std::thread::scope(|s| {
            for _ in 0..2 * SHARDS {
                s.spawn(|| {
                    stats.count_irg();
                    stats.count_stg(3);
                });
            }
        });
        let snap = stats.snapshot();
        assert_eq!(snap.irg_ops, 2 * SHARDS as u64);
        assert_eq!(snap.stg_ops, 6 * SHARDS as u64);
    }

    #[test]
    fn since_subtracts_saturating() {
        let a = MteStatsSnapshot {
            loads: 10,
            ..Default::default()
        };
        let b = MteStatsSnapshot {
            loads: 4,
            stores: 7,
            ..Default::default()
        };
        let d = a.since(&b);
        assert_eq!(d.loads, 6);
        assert_eq!(d.stores, 0, "saturates rather than underflows");
    }
}
