//! Per-thread sharding for hot counters.
//!
//! A counter bumped on every call by every thread turns its cache line
//! into the bottleneck of an otherwise disjoint workload. [`Sharded`]
//! gives each thread group its own cache-line-aligned copy; readers sum
//! the shards. Threads are assigned round-robin on their first count, so
//! up to [`SHARDS`] concurrent threads never share a line.
//!
//! This is the one shard assignment in the workspace: [`MteStats`], the
//! heap's pin counters and the MTE4JNI funnel counters all use it. The
//! assignment only spreads threads; its value never reaches a count's
//! total or any decision, so seeded schedules replay bit for bit
//! whatever ran earlier in the process.
//!
//! [`MteStats`]: crate::MteStats

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Shards per [`Sharded`] value.
pub const SHARDS: usize = 16;

/// Next shard to hand out.
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's shard index, assigned on its first count.
    static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The calling thread's shard index, in `0..SHARDS`.
#[inline]
pub fn shard_index() -> usize {
    SHARD.with(|s| {
        let i = s.get();
        if i != usize::MAX {
            return i;
        }
        let i = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
        s.set(i);
        i
    })
}

/// A value padded to two cache lines, so neighbours in an array never
/// share a line (nor an adjacent-line prefetch pair).
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T>(pub T);

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.0
    }
}

/// One `T` per thread shard. Writers touch [`Sharded::local`]; readers
/// fold over [`Sharded::iter`].
pub struct Sharded<T> {
    shards: [CachePadded<T>; SHARDS],
}

impl<T: Default> Default for Sharded<T> {
    fn default() -> Self {
        Sharded {
            shards: std::array::from_fn(|_| CachePadded::default()),
        }
    }
}

impl<T> Sharded<T> {
    /// The calling thread's shard.
    #[inline]
    pub fn local(&self) -> &T {
        &self.shards[shard_index()]
    }

    /// Every shard, for summing.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.shards.iter().map(|s| &s.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn shards_sit_on_separate_lines() {
        let s: Sharded<AtomicU64> = Sharded::default();
        let addrs: Vec<usize> = s.iter().map(|c| c as *const AtomicU64 as usize).collect();
        assert!(addrs.windows(2).all(|w| w[1] - w[0] >= 128));
    }
}
