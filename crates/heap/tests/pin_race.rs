//! Pins racing the compacting collector.
//!
//! Mutator threads pin random objects of a churned heap, the way a JNI
//! `Get*Critical` does, and check through the raw payload address — the
//! pointer native code would hold — that the object neither moves nor
//! changes while pinned. One collector thread churns the heap and runs
//! `compact()` in a loop meanwhile. A pin that lands after the pass
//! looked at its shard, or at an address the pass already vacated,
//! shows up here as a moved or corrupted payload or as an unpin that
//! finds no pin.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use art_heap::{ArrayRef, Heap, HeapConfig};
use mte_sim::{MemoryConfig, TaggedPtr};

const SLOTS: usize = 64;
const MUTATORS: u64 = 3;
const MIN_PASSES: usize = 200;

fn heap() -> Heap {
    Heap::new(HeapConfig {
        memory: MemoryConfig {
            base: 0x7a00_0000_0000,
            size: 4 << 20,
        },
        ..HeapConfig::default()
    })
}

/// splitmix64: a seeded stream per thread, no shared state.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn pattern(stamp: i32, len: usize) -> Vec<i32> {
    (0..len as i32).map(|i| stamp.wrapping_mul(31).wrapping_add(i)).collect()
}

fn alloc(heap: &Heap, stamp: i32, rng: &mut u64) -> ArrayRef {
    let len = 4 + (next(rng) % 61) as usize;
    heap.alloc_int_array_from(&pattern(stamp, len)).expect("compaction keeps the heap from filling")
}

/// The payload as native code sees it: raw bytes at `data_addr`.
fn raw_payload(heap: &Heap, data_addr: u64, len: usize) -> Vec<i32> {
    let mut buf = vec![0u8; len * 4];
    heap.memory()
        .read_bytes_unchecked(TaggedPtr::from_addr(data_addr), &mut buf)
        .expect("payload lies inside the heap");
    buf.chunks_exact(4).map(|c| i32::from_le_bytes(c.try_into().unwrap())).collect()
}

#[test]
fn pins_hold_objects_still_while_compaction_runs() {
    let heap = heap();
    let mut rng = 0xC0FFEE;
    let slots: Vec<Mutex<(ArrayRef, i32)>> = (0..SLOTS as i32)
        .map(|stamp| {
            // Interleaved garbage: the first pass already has holes to
            // slide objects into.
            drop(alloc(&heap, -1, &mut rng));
            Mutex::new((alloc(&heap, stamp, &mut rng), stamp))
        })
        .collect();
    let stop = AtomicBool::new(false);
    let (mut passes, mut moved, mut skipped) = (0usize, 0usize, 0usize);

    std::thread::scope(|s| {
        for t in 0..MUTATORS {
            let (heap, slots, stop) = (&heap, &slots, &stop);
            s.spawn(move || {
                let mut rng = 0x5EED + t;
                while !stop.load(Ordering::Relaxed) {
                    let i = (next(&mut rng) % SLOTS as u64) as usize;
                    let (array, stamp) = slots[i].lock().unwrap().clone();
                    let obj = array.as_object();
                    let len = array.len();
                    heap.pin(&obj);
                    let addr = obj.addr();
                    assert!(heap.is_pinned(addr), "the pin is keyed at the object's address");
                    let data = obj.data_addr();
                    let want = pattern(stamp, len);
                    assert_eq!(raw_payload(heap, data, len), want);
                    for _ in 0..(next(&mut rng) % 4) {
                        std::thread::yield_now();
                    }
                    assert_eq!(obj.data_addr(), data, "a pinned object moved");
                    assert_eq!(raw_payload(heap, data, len), want, "a pinned payload changed");
                    assert!(heap.unpin(addr).is_some(), "the pin was lost");
                }
            });
        }

        let deadline = Instant::now() + Duration::from_secs(30);
        let mut stamp = SLOTS as i32;
        while passes < MIN_PASSES || moved == 0 || skipped == 0 {
            assert!(Instant::now() < deadline, "{passes} passes: moved {moved}, skipped {skipped}");
            // Churn: replaced objects die, leaving holes to slide into.
            for _ in 0..4 {
                let i = (next(&mut rng) % SLOTS as u64) as usize;
                let fresh = alloc(&heap, stamp, &mut rng);
                *slots[i].lock().unwrap() = (fresh, stamp);
                stamp += 1;
            }
            let stats = heap.compact();
            passes += 1;
            moved += stats.moved_objects;
            skipped += stats.pinned_skipped;
        }
        stop.store(true, Ordering::Relaxed);
    });

    assert!(moved > 0 && skipped > 0);
    let stats = heap.stats();
    assert_eq!(heap.pinned_count(), 0);
    assert_eq!(stats.pins_total, stats.unpins_total);
    assert!(stats.pins_total > 0);
    // Every survivor still holds its own payload.
    for slot in &slots {
        let (array, stamp) = slot.lock().unwrap().clone();
        assert_eq!(raw_payload(&heap, array.data_addr(), array.len()), pattern(stamp, array.len()));
    }
}
