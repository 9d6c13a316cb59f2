//! Trace replay memory does not grow with the trace. `repro --trace`
//! makes two streaming passes over a file, the replay with its checker
//! and the oracle differential, so replaying 400 k requests must peak at
//! the same live heap as replaying 50 k, within 1 MiB. A replay that
//! collected the stream first would hold ~11 MB more at 400 k.
//!
//! The counting allocator sees every thread, so this binary holds one
//! test only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use sttgpu_experiments::configs::two_part_config;
use sttgpu_experiments::{replay_trace_file, L2Choice};
use sttgpu_stats::Rng;
use sttgpu_tracefile::{TraceHeader, TraceRecord, TraceWriter};

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

/// Writes `n` requests over an 8 k-line pool straight to a binary file,
/// never holding the stream. Every length shares the same prefix.
fn write_trace(path: &Path, n: u64) {
    let file = std::io::BufWriter::new(std::fs::File::create(path).expect("create"));
    let mut w = TraceWriter::new(file, TraceHeader::requests(256)).expect("header");
    let mut rng = Rng::new(0xB0B);
    let mut at_ns = 0;
    for _ in 0..n {
        at_ns += rng.range_u64(1, 200);
        w.write(&TraceRecord::Access {
            at_ns,
            line: rng.range_u64(0, 8_192),
            write: rng.chance(0.4),
        })
        .expect("requests-mode record");
    }
    w.finish().expect("flush");
}

/// Peak live heap above the starting level while `repro --trace --check`
/// replays the file at `path`.
fn peak_replaying(path: &Path, n: u64) -> usize {
    let cfg = two_part_config(L2Choice::TwoPartC1).expect("C1 is two-part");
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let run = replay_trace_file(&cfg, path, true).expect("clean trace");
    let peak = PEAK.load(Relaxed) - base;
    assert_eq!(run.replay.records, n);
    assert_eq!(run.divergence, None);
    assert!(run.replay.check.expect("checker attached").is_clean());
    peak
}

#[test]
fn trace_replay_peak_heap_does_not_grow_with_the_trace() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let (short, long) = (dir.join("bounded-50k.trc"), dir.join("bounded-400k.trc"));
    write_trace(&short, 50_000);
    write_trace(&long, 400_000);
    let short_peak = peak_replaying(&short, 50_000);
    let long_peak = peak_replaying(&long, 400_000);
    let _ = std::fs::remove_file(short);
    let _ = std::fs::remove_file(long);
    assert!(
        long_peak.abs_diff(short_peak) < 1 << 20,
        "peak live heap {long_peak} B at 400 k requests against {short_peak} B at 50 k"
    );
}
