//! Trace replay memory does not grow with the trace. `repro --trace`
//! makes two streaming passes over a file, the replay with its checker
//! and the oracle differential, so replaying 400 k requests must peak at
//! the same live heap as replaying 50 k, within 1 MiB. A replay that
//! collected the stream first would hold ~11 MB more at 400 k. The same
//! holds for an op list replayed through its `ops_to_records` view,
//! measured above the list itself: a view that copied the list into
//! records would hold ~8 MB more at 400 k.
//!
//! The counting allocator sees every thread, so this binary holds one
//! test only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use sttgpu_experiments::configs::two_part_config;
use sttgpu_experiments::{replay_records, replay_trace_file, L2Choice, ReplayOutput};
use sttgpu_oracle::{ops_to_records, save_ops, Op};
use sttgpu_stats::Rng;
use sttgpu_tracefile::TraceHeader;

/// Live heap bytes, and their high-water mark.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

/// The system allocator, with every size change counted in `LIVE`.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters only read sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` pass to `System`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via `alloc` or `realloc` with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's guarantees for `ptr`, `layout` and
        // `new_size` pass to `System`, which allocated `ptr`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        new
    }
}

#[global_allocator]
static HEAP: Counting = Counting;

/// `n` requests over an 8 k-line pool. Every length shares the same
/// prefix.
fn requests(n: usize) -> Vec<Op> {
    let mut rng = Rng::new(0xB0B);
    (0..n)
        .map(|_| Op {
            dt_ns: rng.range_u64(1, 200),
            line: rng.range_u64(0, 8_192),
            write: rng.chance(0.4),
        })
        .collect()
}

/// Peak live heap above the starting level while `replay` runs, which
/// must replay `n` records clean under the checker.
fn peak_during(n: usize, replay: impl FnOnce() -> ReplayOutput) -> usize {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let out = replay();
    let peak = PEAK.load(Relaxed) - base;
    assert_eq!(out.records, n as u64);
    assert!(out.check.expect("checker attached").is_clean());
    peak
}

/// Peak live heap while `repro --trace --check` replays `ops` from a
/// trace file, and while `replay_records` replays their in-memory view
/// with the checker.
fn peaks_replaying(ops: &[Op], path: &Path) -> (usize, usize) {
    let cfg = two_part_config(L2Choice::TwoPartC1).expect("C1 is two-part");
    save_ops(path, cfg.line_bytes, ops).expect("save");
    let file = peak_during(ops.len(), || {
        let run = replay_trace_file(&cfg, path, true).expect("clean trace");
        assert_eq!(run.divergence, None);
        run.replay
    });
    let _ = std::fs::remove_file(path);
    let header = TraceHeader::requests(cfg.line_bytes);
    let view = peak_during(ops.len(), || {
        replay_records(&cfg, &header, ops_to_records(ops), true).expect("clean stream")
    });
    (file, view)
}

#[test]
fn trace_replay_peak_heap_does_not_grow_with_the_trace() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let short = peaks_replaying(&requests(50_000), &dir.join("bounded-50k.trc"));
    let long = peaks_replaying(&requests(400_000), &dir.join("bounded-400k.trc"));
    assert!(
        long.0.abs_diff(short.0) < 1 << 20,
        "trace file: peak live heap {} B at 400 k requests against {} B at 50 k",
        long.0,
        short.0
    );
    assert!(
        long.1.abs_diff(short.1) < 1 << 20,
        "op list: peak live heap {} B at 400 k requests against {} B at 50 k",
        long.1,
        short.1
    );
}
