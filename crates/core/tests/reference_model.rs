//! Model-based testing: an independent, timing-free reference
//! implementation of the two-part placement/migration policy, replayed
//! against [`TwoPartLlc`] on random traces. The production model carries
//! timing, energy, buffers and refresh; the *functional* content —
//! which part a block resides in, hit/miss outcomes, migration decisions —
//! must match this ~100-line reference exactly. The swap-buffer overflow
//! fallback is covered too: the reference observes the production model's
//! `BufferOverflow` events through the typed trace stream and applies the
//! documented fallback (write-in-place for a full HR→LR buffer, forced
//! eviction for a full LR→HR buffer) at the same decision points.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use sttgpu_cache::AccessKind;
use sttgpu_core::{LlcModel, TwoPartConfig, TwoPartLlc};
use sttgpu_stats::Rng;
use sttgpu_trace::{BufferDir, Trace, TraceEvent, VecSink};

/// One set of a reference LRU cache: most-recent at the back.
type RefSet = Vec<u64>;

/// A timing-free reference of the two-part policy at write threshold 1.
struct RefTwoPart {
    lr: Vec<RefSet>,
    hr: Vec<RefSet>,
    lr_ways: usize,
    hr_ways: usize,
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
enum RefPlace {
    Lr,
    Hr,
    Absent,
}

impl RefTwoPart {
    fn new(cfg: &TwoPartConfig) -> Self {
        RefTwoPart {
            lr: vec![Vec::new(); cfg.lr_sets() as usize],
            hr: vec![Vec::new(); cfg.hr_sets() as usize],
            lr_ways: cfg.lr_ways as usize,
            hr_ways: cfg.hr_ways as usize,
        }
    }

    fn place_of(&self, line: u64) -> RefPlace {
        let lr_set = (line % self.lr.len() as u64) as usize;
        if self.lr[lr_set].contains(&line) {
            return RefPlace::Lr;
        }
        let hr_set = (line % self.hr.len() as u64) as usize;
        if self.hr[hr_set].contains(&line) {
            return RefPlace::Hr;
        }
        RefPlace::Absent
    }

    fn touch(set: &mut RefSet, line: u64) {
        if let Some(i) = set.iter().position(|&l| l == line) {
            set.remove(i);
        }
        set.push(line);
    }

    /// Inserts into LR, demoting an LRU victim to HR when full. A pending
    /// `LrToHr` overflow observed on the production trace means the
    /// demotion buffer was full there: the victim is forced out to DRAM
    /// instead of entering HR.
    fn insert_lr(&mut self, line: u64, overflows: &mut VecDeque<BufferDir>) {
        let set_idx = (line % self.lr.len() as u64) as usize;
        let lr_ways = self.lr_ways;
        let set = &mut self.lr[set_idx];
        Self::touch(set, line);
        if set.len() > lr_ways {
            let victim = set.remove(0);
            if overflows.front() == Some(&BufferDir::LrToHr) {
                overflows.pop_front();
            } else {
                self.insert_hr(victim);
            }
        }
    }

    /// Inserts into HR, dropping the LRU victim (write-back is timing).
    fn insert_hr(&mut self, line: u64) {
        let set_idx = (line % self.hr.len() as u64) as usize;
        let hr_ways = self.hr_ways;
        let set = &mut self.hr[set_idx];
        Self::touch(set, line);
        if set.len() > hr_ways {
            set.remove(0);
        }
    }

    fn remove_hr(&mut self, line: u64) {
        let set_idx = (line % self.hr.len() as u64) as usize;
        self.hr[set_idx].retain(|&l| l != line);
    }

    /// Replays one probe; returns whether it hit. `overflows` carries the
    /// `BufferOverflow` directions the production model emitted for this
    /// same operation, in order.
    fn probe(&mut self, line: u64, kind: AccessKind, overflows: &mut VecDeque<BufferDir>) -> bool {
        match (self.place_of(line), kind) {
            (RefPlace::Lr, _) => {
                let set_idx = (line % self.lr.len() as u64) as usize;
                Self::touch(&mut self.lr[set_idx], line);
                true
            }
            (RefPlace::Hr, AccessKind::Read) => {
                let set_idx = (line % self.hr.len() as u64) as usize;
                Self::touch(&mut self.hr[set_idx], line);
                true
            }
            (RefPlace::Hr, AccessKind::Write) => {
                if overflows.front() == Some(&BufferDir::HrToLr) {
                    // Migration buffer full there: the production model
                    // services the write in place, the block stays in HR.
                    overflows.pop_front();
                    let set_idx = (line % self.hr.len() as u64) as usize;
                    Self::touch(&mut self.hr[set_idx], line);
                } else {
                    // Threshold 1: the first write migrates HR -> LR.
                    self.remove_hr(line);
                    self.insert_lr(line, overflows);
                }
                true
            }
            (RefPlace::Absent, _) => false,
        }
    }

    /// Replays a fill (dirty fills land in LR at threshold 1).
    fn fill(&mut self, line: u64, dirty: bool, overflows: &mut VecDeque<BufferDir>) {
        if dirty {
            self.insert_lr(line, overflows);
        } else {
            self.insert_hr(line);
        }
    }
}

fn cfg() -> TwoPartConfig {
    // Generous buffers so the overflow fallback never triggers and the
    // reference semantics apply exactly.
    TwoPartConfig::new(8, 2, 56, 7, 256).with_buffer_blocks(10_000)
}

/// Production and reference agree on every hit/miss outcome and every
/// block's final residency.
#[test]
fn production_matches_reference() {
    let mut rng = Rng::new(0xAB5);
    for _ in 0..30 {
        let ops: Vec<(bool, u64)> = (0..rng.range_usize(1, 600))
            .map(|_| (rng.chance(0.5), rng.range_u64(0, 300)))
            .collect();
        let config = cfg();
        let mut prod = TwoPartLlc::new(config.clone());
        let mut reference = RefTwoPart::new(&config);
        let mut now = 1u64;
        for &(is_write, line) in &ops {
            now += 50;
            let addr = line * 256;
            let kind = if is_write {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let prod_hit = prod.probe(addr, kind, now).hit;
            let ref_hit = reference.probe(line, kind, &mut VecDeque::new());
            assert_eq!(prod_hit, ref_hit, "hit mismatch on line {line}");
            if !prod_hit {
                now += 10;
                prod.fill(addr, is_write, now);
                reference.fill(line, is_write, &mut VecDeque::new());
            }
        }
        // Final residency must agree block by block.
        for line in 0..300u64 {
            let addr = line * 256;
            let prod_place = if prod.lr_contains(addr) {
                RefPlace::Lr
            } else if prod.hr_contains(addr) {
                RefPlace::Hr
            } else {
                RefPlace::Absent
            };
            assert_eq!(prod_place, reference.place_of(line), "line {line}");
        }
    }
}

/// Under read-only traffic the LR part stays empty and the production
/// model degenerates to a plain HR cache.
#[test]
fn read_only_traffic_never_populates_lr() {
    let mut rng = Rng::new(0xCD5);
    for _ in 0..30 {
        let lines: Vec<u64> = (0..rng.range_usize(1, 300))
            .map(|_| rng.range_u64(0, 500))
            .collect();
        let mut prod = TwoPartLlc::new(cfg());
        let mut now = 1u64;
        for &line in &lines {
            now += 50;
            let addr = line * 256;
            if !prod.probe(addr, AccessKind::Read, now).hit {
                prod.fill(addr, false, now + 10);
            }
            assert!(!prod.lr_contains(addr), "read-only block entered LR");
        }
        assert_eq!(prod.stats().migrations_to_lr, 0);
        assert_eq!(prod.stats().fills_to_lr, 0);
    }
}

/// Overflow directions the production model emitted for one operation,
/// drained from the attached [`VecSink`].
fn drain_overflows(sink: &Rc<RefCell<VecSink>>) -> VecDeque<BufferDir> {
    sink.borrow_mut()
        .take()
        .into_iter()
        .filter_map(|ev| match ev {
            TraceEvent::BufferOverflow { dir, .. } => Some(dir),
            _ => None,
        })
        .collect()
}

/// With single-slot swap buffers and back-to-back writes the buffers
/// overflow constantly; production and reference still agree on every
/// hit/miss outcome and every block's final residency because the
/// reference replays the overflow fallbacks observed on the event stream.
#[test]
fn production_matches_reference_under_buffer_overflow() {
    let mut rng = Rng::new(0xF10D);
    let mut total_overflows = 0u64;
    for _ in 0..30 {
        let mut run_overflows = 0u64;
        let ops: Vec<(bool, u64)> = (0..rng.range_usize(200, 800))
            .map(|_| (rng.chance(0.8), rng.range_u64(0, 120)))
            .collect();
        let config = TwoPartConfig::new(8, 2, 56, 7, 256).with_buffer_blocks(1);
        let mut prod = TwoPartLlc::new(config.clone());
        let sink = Rc::new(RefCell::new(VecSink::new()));
        prod.set_trace(Trace::to_sink(Rc::clone(&sink)));
        let mut reference = RefTwoPart::new(&config);
        // Advance time barely at all so single-slot buffers stay occupied
        // across consecutive migrations and the overflow paths trigger.
        let mut now = 1u64;
        for &(is_write, line) in &ops {
            now += 1;
            let addr = line * 256;
            let kind = if is_write {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let prod_hit = prod.probe(addr, kind, now).hit;
            let mut overflows = drain_overflows(&sink);
            run_overflows += overflows.len() as u64;
            let ref_hit = reference.probe(line, kind, &mut overflows);
            assert_eq!(prod_hit, ref_hit, "hit mismatch on line {line}");
            assert!(
                overflows.is_empty(),
                "probe left unconsumed overflow hints on line {line}: {overflows:?}"
            );
            if !prod_hit {
                prod.fill(addr, is_write, now);
                let mut overflows = drain_overflows(&sink);
                run_overflows += overflows.len() as u64;
                reference.fill(line, is_write, &mut overflows);
                assert!(
                    overflows.is_empty(),
                    "fill left unconsumed overflow hints on line {line}: {overflows:?}"
                );
            }
        }
        assert_eq!(
            prod.buffer_overflows(),
            run_overflows,
            "every buffer overflow must be visible on the event stream"
        );
        total_overflows += run_overflows;
        for line in 0..120u64 {
            let addr = line * 256;
            let prod_place = if prod.lr_contains(addr) {
                RefPlace::Lr
            } else if prod.hr_contains(addr) {
                RefPlace::Hr
            } else {
                RefPlace::Absent
            };
            assert_eq!(prod_place, reference.place_of(line), "line {line}");
        }
    }
    assert!(
        total_overflows > 100,
        "the trace must actually exercise the overflow paths (saw {total_overflows})"
    );
}
