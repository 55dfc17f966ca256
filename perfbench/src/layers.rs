//! Standalone layer runs: one public operation of one crate in a timed
//! loop, at one thread and at `nproc` threads, with nothing else around
//! it. Each predicts a share of an end-to-end operation (see
//! `perfbench/README.md`).
//!
//! A run times batches of operations and reports the median batch's
//! nanoseconds per operation per thread.

use std::hint::black_box;
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use art_heap::{Heap, HeapConfig};
use mte4jni::{TableBackend, TableConfig};
use mte_sim::{
    MemoryConfig, MteThread, Tag, TagExclusion, TaggedMemory, TaggedPtr, TcfMode, GRANULE,
};

use crate::{median, SplitMix};

/// Operations per timed batch.
const BATCH: u32 = 256;

/// Runs `op` on `threads` threads for `dur`; each thread builds its
/// state with `init(thread)`. Returns the median over all batches of
/// nanoseconds per operation.
pub fn per_op_ns<S, I, O>(threads: usize, dur: Duration, init: I, op: O) -> f64
where
    I: Fn(usize) -> S + Sync,
    O: Fn(&mut S) + Sync,
{
    let barrier = Barrier::new(threads);
    let samples = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for t in 0..threads {
            let (barrier, samples, init, op) = (&barrier, &samples, &init, &op);
            s.spawn(move || {
                let mut state = init(t);
                let mut local = Vec::new();
                barrier.wait();
                let deadline = Instant::now() + dur;
                loop {
                    let t0 = Instant::now();
                    for _ in 0..BATCH {
                        op(&mut state);
                    }
                    let now = Instant::now();
                    local.push((now - t0).as_nanos() as f64 / f64::from(BATCH));
                    if now >= deadline {
                        break;
                    }
                }
                samples
                    .lock()
                    .expect("a layer thread panicked")
                    .extend(local);
            });
        }
    });
    median(&samples.into_inner().expect("a layer thread panicked"))
}

/// Base of the standalone tag-memory region (apart from every VM heap).
const LAYER_BASE: u64 = 0x7c00_0000_0000;
/// Bytes between two threads' private objects: room for 1024 granules.
const REGION: u64 = 32 << 10;

/// A `PROT_MTE` region with one private `REGION` per thread after a
/// shared first one.
fn tagged_memory(threads: usize) -> Arc<TaggedMemory> {
    let size = (threads + 1) * REGION as usize;
    let mem = TaggedMemory::new(MemoryConfig {
        base: LAYER_BASE,
        size,
    });
    mem.mprotect_mte(LAYER_BASE, size, true)
        .expect("region is in range");
    mem
}

/// Start of thread `t`'s private region.
fn private(t: usize) -> u64 {
    LAYER_BASE + REGION * (t as u64 + 1)
}

/// `TagTable::acquire` + `release` on `jni-small`'s pattern: a seeded
/// coin picks a 16-int object shared by all threads or the thread's own.
pub fn table_pair_ns(backend: TableBackend, threads: usize, dur: Duration, seed: u64) -> f64 {
    let mem = tagged_memory(threads);
    let table = TableConfig {
        backend,
        ..TableConfig::default()
    }
    .build();
    let len = 16 * 4u64;
    let shared = LAYER_BASE + 64;
    per_op_ns(
        threads,
        dur,
        |t| {
            let own = private(t);
            (
                MteThread::with_seed(format!("table-{t}"), seed ^ t as u64),
                SplitMix::new(seed, 3000 + t as u64),
                own,
            )
        },
        |(thread, rng, own)| {
            let begin = if rng.next_u64() & 1 == 0 {
                shared
            } else {
                *own
            };
            let borrow = table
                .acquire(&mem, thread, TaggedPtr::from_addr(begin), begin + len)
                .expect("in-range acquire");
            black_box(table.release(&mem, borrow).expect("in-range release"));
        },
    )
}

/// `Heap::pin` + `Heap::unpin` on `jni-small`'s half-shared pattern.
pub fn pin_unpin_ns(threads: usize, dur: Duration, seed: u64) -> f64 {
    let heap = small_heap();
    let shared = heap.alloc_int_array(16).expect("allocate");
    let own: Vec<_> = (0..threads)
        .map(|_| heap.alloc_int_array(16).expect("allocate"))
        .collect();
    per_op_ns(
        threads,
        dur,
        |t| {
            (
                SplitMix::new(seed, 4000 + t as u64),
                own[t].as_object(),
                shared.as_object(),
            )
        },
        |(rng, own, shared)| {
            let obj = if rng.next_u64() & 1 == 0 {
                &*shared
            } else {
                &*own
            };
            black_box(heap.pin(obj));
            black_box(heap.unpin(obj.addr()));
        },
    )
}

/// `Heap::data_ptr`: the payload pointer every acquire starts from.
pub fn data_ptr_ns(threads: usize, dur: Duration) -> f64 {
    let heap = small_heap();
    let objs: Vec<_> = (0..threads)
        .map(|_| heap.alloc_int_array(16).expect("allocate").as_object())
        .collect();
    per_op_ns(
        threads,
        dur,
        |t| &objs[t],
        |obj| {
            black_box(heap.data_ptr(black_box(obj)));
        },
    )
}

fn small_heap() -> Heap {
    Heap::new(HeapConfig {
        memory: MemoryConfig {
            base: LAYER_BASE,
            size: 1 << 20,
        },
        ..HeapConfig::mte4jni()
    })
}

/// `TaggedMemory::load_u32` over each thread's tagged 16-int object,
/// with tag checking on (`checked`) or with `TCO` set.
pub fn load_ns(checked: bool, threads: usize, dur: Duration) -> f64 {
    let mem = tagged_memory(threads);
    let tag = Tag::new(5).expect("valid tag");
    for t in 0..threads {
        mem.set_tag_range(TaggedPtr::from_addr(private(t)), private(t) + 64, tag)
            .expect("tag the object");
    }
    per_op_ns(
        threads,
        dur,
        |t| {
            let thread = MteThread::new("load");
            thread.set_mode(TcfMode::Sync);
            thread.set_tco(!checked);
            (thread, TaggedPtr::from_addr(private(t)).with_tag(tag), 0u64)
        },
        |(thread, ptr, i)| {
            *i = (*i + 4) & 63;
            black_box(
                mem.load_u32(thread, ptr.wrapping_add(*i))
                    .expect("in-bounds load"),
            );
        },
    )
}

/// `TaggedMemory::set_tag_range` over `granules` granules of each
/// thread's region.
pub fn set_tag_range_ns(granules: u64, threads: usize, dur: Duration) -> f64 {
    let mem = tagged_memory(threads);
    per_op_ns(
        threads,
        dur,
        |t| (TaggedPtr::from_addr(private(t)), 1u8),
        |(begin, v)| {
            *v = *v % 15 + 1;
            let end = begin.addr() + granules * GRANULE as u64;
            mem.set_tag_range(*begin, end, Tag::from_low_bits(*v))
                .expect("tag the span");
        },
    )
}

/// `TaggedMemory::irg`: random tag generation.
pub fn irg_ns(threads: usize, dur: Duration, seed: u64) -> f64 {
    let mem = tagged_memory(threads);
    per_op_ns(
        threads,
        dur,
        |t| MteThread::with_seed("irg", seed ^ t as u64),
        |thread| {
            black_box(mem.irg(thread, TagExclusion::NONE));
        },
    )
}

/// `TaggedMemory::ldg`: loading one granule's tag of each thread's region.
pub fn ldg_ns(threads: usize, dur: Duration) -> f64 {
    let mem = tagged_memory(threads);
    per_op_ns(
        threads,
        dur,
        |t| TaggedPtr::from_addr(private(t)),
        |ptr| {
            black_box(mem.ldg(black_box(*ptr)).expect("in-range ldg"));
        },
    )
}
