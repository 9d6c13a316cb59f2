//! Randomized property tests for the two-part LLC's architectural
//! invariants, driven by the in-tree deterministic [`Rng`].

use sttgpu_cache::AccessKind;
use sttgpu_core::{LlcModel, SearchMode, SingleLlc, TwoPartConfig, TwoPartLlc};
use sttgpu_device::cell::MemTechnology;
use sttgpu_stats::Rng;

fn small_cfg() -> TwoPartConfig {
    TwoPartConfig::new(8, 2, 56, 7, 256)
}

/// Draws a trace of (is_write, block) pairs.
fn random_trace(rng: &mut Rng, max_block: u64, min_len: usize, max_len: usize) -> Vec<(bool, u64)> {
    let len = rng.range_usize(min_len, max_len);
    (0..len)
        .map(|_| (rng.chance(0.5), rng.range_u64(0, max_block)))
        .collect()
}

/// Drives a random access mix (with correct miss/fill protocol) through the
/// LLC and returns it for invariant inspection.
fn drive(llc: &mut TwoPartLlc, ops: &[(bool, u64)], maintain_every: usize) {
    let mut now = 1u64;
    for (i, &(is_write, block)) in ops.iter().enumerate() {
        now += 23;
        let addr = block * 256;
        let kind = if is_write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let out = llc.probe(addr, kind, now);
        if !out.hit {
            now += 100; // DRAM round trip
            llc.fill(addr, is_write, now);
        }
        if maintain_every > 0 && i % maintain_every == 0 {
            llc.maintain(now);
        }
    }
}

/// A block never resides in LR and HR simultaneously.
#[test]
fn exclusive_residency() {
    let mut rng = Rng::new(0x100);
    for _ in 0..30 {
        let ops = random_trace(&mut rng, 200, 1, 500);
        let mut llc = TwoPartLlc::new(small_cfg());
        drive(&mut llc, &ops, 50);
        for &(_, block) in &ops {
            let addr = block * 256;
            assert!(
                !(llc.lr_contains(addr) && llc.hr_contains(addr)),
                "block {block} in both parts"
            );
        }
    }
}

/// Probe accounting: hits + misses == probes issued, for both kinds.
#[test]
fn probe_accounting() {
    let mut rng = Rng::new(0x200);
    for _ in 0..30 {
        let ops = random_trace(&mut rng, 100, 1, 300);
        let mut llc = TwoPartLlc::new(small_cfg());
        drive(&mut llc, &ops, 0);
        let s = llc.summary();
        let writes = ops.iter().filter(|(w, _)| *w).count() as u64;
        let reads = ops.len() as u64 - writes;
        assert_eq!(s.read_hits + s.read_misses, reads);
        assert_eq!(s.write_hits + s.write_misses, writes);
    }
}

/// The single-array LLC's summary counts every probe exactly once: hits
/// plus misses equal the probes issued, per kind, and hits equal the
/// probes that reported a hit.
#[test]
fn stats_conservation() {
    let mut rng = Rng::new(0x50);
    for _ in 0..40 {
        let mut llc = SingleLlc::new(4, 2, 256, 2, MemTechnology::Sram);
        let ops = random_trace(&mut rng, 64, 1, 300);
        let mut now = 0u64;
        let mut hits = 0u64;
        for &(is_write, block) in &ops {
            now += 7;
            let kind = if is_write {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            if llc.probe(block * 256, kind, now).hit {
                hits += 1;
            } else if block % 3 != 0 {
                llc.fill(block * 256, is_write, now + 50);
            }
        }
        let s = llc.summary();
        let writes = ops.iter().filter(|(w, _)| *w).count() as u64;
        assert_eq!(s.read_hits + s.read_misses, ops.len() as u64 - writes);
        assert_eq!(s.write_hits + s.write_misses, writes);
        assert_eq!(s.accesses(), ops.len() as u64);
        assert_eq!(s.read_hits + s.write_hits, hits);
    }
}

/// Sequential and parallel search agree on hit/miss outcomes (they differ
/// only in latency/energy).
#[test]
fn search_modes_agree_on_hits() {
    let mut rng = Rng::new(0x300);
    for _ in 0..30 {
        let ops = random_trace(&mut rng, 100, 1, 300);
        let mut seq = TwoPartLlc::new(small_cfg().with_search(SearchMode::Sequential));
        let mut par = TwoPartLlc::new(small_cfg().with_search(SearchMode::Parallel));
        let mut now = 1u64;
        for &(is_write, block) in &ops {
            now += 31;
            let addr = block * 256;
            let kind = if is_write {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let a = seq.probe(addr, kind, now);
            let b = par.probe(addr, kind, now);
            assert_eq!(a.hit, b.hit, "search modes disagree");
            if !a.hit {
                seq.fill(addr, is_write, now + 100);
                par.fill(addr, is_write, now + 100);
            }
        }
    }
}

/// With threshold 1, every write-hit block ends up LR-resident (unless the
/// HR→LR buffer overflowed, which tiny traffic here never does).
#[test]
fn written_blocks_join_the_wws() {
    let mut rng = Rng::new(0x400);
    for _ in 0..30 {
        let blocks: Vec<u64> = (0..rng.range_usize(1, 50))
            .map(|_| rng.range_u64(0, 50))
            .collect();
        let mut llc = TwoPartLlc::new(small_cfg());
        let mut now = 1u64;
        for &b in &blocks {
            now += 40;
            let addr = b * 256;
            let out = llc.probe(addr, AccessKind::Write, now);
            if !out.hit {
                now += 100;
                llc.fill(addr, true, now);
            }
            assert!(
                llc.lr_contains(addr) || !llc.hr_contains(addr),
                "written block must not stay in HR at TH=1"
            );
        }
    }
}

/// Maintenance keeps LR expirations at zero when called on cadence.
#[test]
fn no_data_loss_with_maintenance() {
    let mut rng = Rng::new(0x500);
    for _ in 0..30 {
        let ops = random_trace(&mut rng, 60, 10, 200);
        let mut llc = TwoPartLlc::new(small_cfg());
        let tick = llc.maintenance_interval_ns();
        let mut now = 1u64;
        let mut next_maintain = tick;
        for &(is_write, block) in &ops {
            now += 200;
            while now >= next_maintain {
                llc.maintain(next_maintain);
                next_maintain += tick;
            }
            let addr = block * 256;
            let kind = if is_write {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let out = llc.probe(addr, kind, now);
            if !out.hit {
                llc.fill(addr, is_write, now + 100);
            }
        }
        assert_eq!(
            llc.stats().lr_expirations,
            0,
            "on-cadence maintenance must prevent LR data loss"
        );
    }
}

/// Energy and array-write counters are monotone under traffic.
#[test]
fn monotone_counters() {
    let mut rng = Rng::new(0x600);
    for _ in 0..30 {
        let ops = random_trace(&mut rng, 100, 2, 100);
        let mut llc = TwoPartLlc::new(small_cfg());
        let mut last_energy = 0.0f64;
        let mut last_writes = 0u64;
        let mut now = 1u64;
        for &(is_write, block) in &ops {
            now += 29;
            let addr = block * 256;
            let kind = if is_write {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            if !llc.probe(addr, kind, now).hit {
                llc.fill(addr, is_write, now + 100);
            }
            let e = llc.energy().dynamic_nj();
            let w = llc.stats().total_array_writes();
            assert!(e >= last_energy);
            assert!(w >= last_writes);
            last_energy = e;
            last_writes = w;
        }
    }
}

/// Raising the write threshold never increases HR→LR migrations for the
/// same trace.
#[test]
fn higher_threshold_fewer_migrations() {
    let mut rng = Rng::new(0x700);
    for _ in 0..20 {
        let ops: Vec<u64> = (0..rng.range_usize(10, 200))
            .map(|_| rng.range_u64(0, 80))
            .collect();
        let mut migrations = Vec::new();
        for th in [1u32, 3, 7, 15] {
            let mut llc = TwoPartLlc::new(small_cfg().with_write_threshold(th));
            let mut now = 1u64;
            for &b in &ops {
                now += 37;
                let addr = b * 256;
                if !llc.probe(addr, AccessKind::Write, now).hit {
                    llc.fill(addr, true, now + 100);
                }
            }
            migrations.push(llc.stats().migrations_to_lr + llc.stats().fills_to_lr);
        }
        for w in migrations.windows(2) {
            assert!(
                w[0] >= w[1],
                "LR admissions must not grow with threshold: {migrations:?}"
            );
        }
    }
}
