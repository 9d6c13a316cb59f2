//! The functional reference model of the two-part LLC.
//!
//! Everything here favours obviousness over speed. Each part is a flat
//! slot array kept as three rows: a dense `u64` row of line addresses
//! and one of retention clocks — the only record of residency and of
//! when a line was last physically written — beside a plain row of the
//! remaining per-line state. Lookups scan a set's slice of the address
//! row; retention is re-derived from the clock row on every sweep, one
//! linear pass per part (no deadline lists, nothing carried from one
//! sweep to the next). The swap buffers are unordered lists of
//! completion times, pruned in place. The model also carries a content
//! token per line and a shadow DRAM image, so the write-back discipline
//! (a clean line always equals DRAM) is checked as an internal
//! invariant on every drop.

use std::collections::BTreeMap;

use sttgpu_core::{
    lr_maintenance_floor_ns, lr_tracker_at, Part, PolicyEngine, RetentionTracker, SearchMode,
    TwoPartConfig, TwoPartStats,
};
use sttgpu_device::array::ArrayDesign;
use sttgpu_device::mtj::RetentionTime;

/// Address-row value of an empty slot. No line address reaches it: the
/// implementation derives addresses as `byte_addr / line_bytes`.
const EMPTY: u64 = u64::MAX;

/// The per-line state the architecture tracks besides residency and
/// the retention clock.
#[derive(Debug, Clone, Copy, Default)]
struct LineState {
    dirty: bool,
    write_count: u32,
    /// When a *demand* write last touched the line (0 = never).
    last_write_ns: u64,
    /// LRU recency stamp, monotone per part.
    stamp: u64,
    /// Content token: which DRAM version (or later demand write) the
    /// payload corresponds to.
    content: u64,
}

/// A line taken out of a part, with what its next home needs.
#[derive(Debug, Clone, Copy)]
struct Line {
    la: u64,
    dirty: bool,
    write_count: u32,
    content: u64,
}

/// A line found due by a sweep: `(deadline, line, clock, slot)`. Line
/// addresses are unique within a part, so sorting the tuple orders by
/// `(deadline, line, clock)` and the slot only rides along.
type Due = (u64, u64, u64, usize);

/// A set-associative array scanned the obvious way.
#[derive(Debug, Clone)]
struct PartArray {
    sets: u64,
    /// `sets - 1` when `sets` is a power of two (the set index is then
    /// a mask), `None` when it is taken with `%`.
    set_mask: Option<u64>,
    ways: usize,
    /// Line address per slot, [`EMPTY`] when free.
    tags: Vec<u64>,
    /// Retention clock per slot: when the cell array last physically
    /// wrote the line (fill, demand write or refresh); `u64::MAX` when
    /// the slot is free.
    clocks: Vec<u64>,
    /// The rest of each resident line's state (stale in a free slot).
    state: Vec<LineState>,
    stamp: u64,
}

impl PartArray {
    fn new(sets: u64, ways: usize) -> Self {
        let slots = sets as usize * ways;
        PartArray {
            sets,
            set_mask: sets.is_power_of_two().then(|| sets - 1),
            ways,
            tags: vec![EMPTY; slots],
            clocks: vec![u64::MAX; slots],
            state: vec![LineState::default(); slots],
            stamp: 0,
        }
    }

    /// First slot of `la`'s set.
    fn set_start(&self, la: u64) -> usize {
        let set = match self.set_mask {
            Some(mask) => la & mask,
            None => la % self.sets,
        };
        set as usize * self.ways
    }

    fn slot_of(&self, la: u64) -> Option<usize> {
        let start = self.set_start(la);
        self.tags[start..start + self.ways]
            .iter()
            .position(|&t| t == la)
            .map(|w| start + w)
    }

    fn contains(&self, la: u64) -> bool {
        self.slot_of(la).is_some()
    }

    /// Services a hit: bumps recency (LRU touches on every hit) and,
    /// for writes, the write counter / dirty bit / last-write clock.
    fn lookup_hit(&mut self, slot: usize, write: bool, now_ns: u64) {
        self.stamp += 1;
        let line = &mut self.state[slot];
        line.stamp = self.stamp;
        if write {
            line.write_count = line.write_count.saturating_add(1);
            line.dirty = true;
            line.last_write_ns = now_ns;
        }
    }

    /// Installs `la`, evicting the set's LRU victim if the set is full.
    /// A line already present only merges the dirty bit (and takes the
    /// new content if the fill carries a write); history and recency
    /// stay untouched — exactly the cache substrate's `fill_with`.
    fn fill(
        &mut self,
        la: u64,
        dirty: bool,
        carried_writes: u32,
        content: u64,
        now_ns: u64,
    ) -> Option<Line> {
        debug_assert_ne!(la, EMPTY, "line address collides with the empty-slot tag");
        if let Some(slot) = self.slot_of(la) {
            let line = &mut self.state[slot];
            line.dirty |= dirty;
            if dirty {
                line.content = content;
            }
            return None;
        }
        let start = self.set_start(la);
        let row = start..start + self.ways;
        let slot = self.tags[row.clone()]
            .iter()
            .position(|&t| t == EMPTY)
            .map(|w| start + w)
            .unwrap_or_else(|| {
                row.min_by_key(|&s| self.state[s].stamp)
                    .expect("a set has at least one way")
            });
        self.stamp += 1;
        let victim = self.take(slot);
        self.tags[slot] = la;
        self.clocks[slot] = now_ns;
        self.state[slot] = LineState {
            dirty,
            write_count: carried_writes.saturating_add(dirty as u32),
            last_write_ns: if dirty { now_ns } else { 0 },
            stamp: self.stamp,
            content,
        };
        victim
    }

    /// Empties `slot`, returning the line it held.
    fn take(&mut self, slot: usize) -> Option<Line> {
        let la = std::mem::replace(&mut self.tags[slot], EMPTY);
        if la == EMPTY {
            return None;
        }
        self.clocks[slot] = u64::MAX;
        let s = &self.state[slot];
        Some(Line {
            la,
            dirty: s.dirty,
            write_count: s.write_count,
            content: s.content,
        })
    }

    /// Appends every resident line whose retention deadline — its clock
    /// plus `span`, saturating like `RetentionTracker`'s deadlines — is
    /// reached at `now_ns`, in one pass over the clock row.
    fn collect_due(&self, now_ns: u64, span: u64, due: &mut Vec<Due>) {
        // Below `u64::MAX`, `clock ⊕ span <= now` is exactly `clock <=
        // now - span`, and nothing is due while `span > now`; at
        // `u64::MAX` every deadline, saturated or not, is reached.
        let limit = if now_ns == u64::MAX {
            u64::MAX
        } else {
            match now_ns.checked_sub(span) {
                Some(limit) => limit,
                None => return,
            }
        };
        for (slot, &clock) in self.clocks.iter().enumerate() {
            // A free slot's clock is `u64::MAX`: it only passes the
            // clock test at `limit == u64::MAX`, so the tag check rarely runs.
            if clock <= limit && self.tags[slot] != EMPTY {
                due.push((clock.saturating_add(span), self.tags[slot], clock, slot));
            }
        }
    }
}

/// Swap buffer: an unordered list of in-flight completion times, pruned
/// in place. A reservation is refused at capacity, so the list never
/// outgrows the slots it was built with.
#[derive(Debug, Clone)]
struct Buffer {
    capacity: usize,
    in_flight: Vec<u64>,
    overflows: u64,
    peak: usize,
}

impl Buffer {
    fn new(capacity: usize) -> Self {
        Buffer {
            capacity,
            in_flight: Vec::with_capacity(capacity),
            overflows: 0,
            peak: 0,
        }
    }

    fn try_reserve(&mut self, now_ns: u64, completes_at_ns: u64) -> bool {
        // A slot is free the instant its write completes.
        self.in_flight.retain(|&done| done > now_ns);
        let occupied = self.in_flight.len();
        if occupied >= self.capacity {
            self.overflows += 1;
            return false;
        }
        self.in_flight.push(completes_at_ns);
        self.peak = self.peak.max(occupied + 1);
        true
    }
}

/// The reference model. Drive it through [`probe`](Self::probe),
/// [`fill`](Self::fill) and [`maintain`](Self::maintain) with the same
/// request stream as the [`TwoPartLlc`](sttgpu_core::TwoPartLlc) under
/// test, then compare observations (the [`run_case`](crate::run_case)
/// driver automates this).
#[derive(Debug, Clone)]
pub struct OracleLlc {
    search: SearchMode,
    refresh_slack: u64,
    /// The same runtime policy registry the implementation embeds —
    /// decisions are a pure function of the shared statistics and time,
    /// so the two machines cannot take different adaptive actions
    /// without first diverging on a compared counter.
    engine: PolicyEngine,
    lr_base_retention: RetentionTime,
    lr_rc_bits: u32,
    lr: PartArray,
    hr: PartArray,
    lr_rc: RetentionTracker,
    hr_rc: RetentionTracker,
    hr_to_lr: Buffer,
    lr_to_hr: Buffer,
    stats: TwoPartStats,
    lr_tag_ns: u64,
    hr_tag_ns: u64,
    lr_read_ns: u64,
    hr_read_ns: u64,
    lr_write_ns: u64,
    hr_write_ns: u64,
    /// Shadow DRAM image: content token last written back per line.
    dram: BTreeMap<u64, u64>,
    /// Fresh-token source for demand writes (never 0: token 0 means
    /// "DRAM content of a line never written back").
    next_token: u64,
    /// Scratch list of one sweep's due lines, emptied before the sweep
    /// returns; kept only so its capacity is reused.
    due: Vec<Due>,
}

/// `Config::validate` has already bounded every device latency, so the
/// ceil-to-integer-nanoseconds cast cannot misbehave here.
fn lat(ns: f64) -> u64 {
    ns.ceil() as u64
}

impl OracleLlc {
    /// Builds the reference model for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid, or if it enables a
    /// feature outside the oracle's scope: wear rotation or a fault plan
    /// with any nonzero rate (zero-rate plans are accepted — the
    /// implementation promises they are exactly transparent, and the
    /// oracle holds it to that).
    pub fn new(cfg: &TwoPartConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        assert!(
            cfg.lr_rotation_period_ns.is_none(),
            "the oracle does not model wear rotation"
        );
        assert!(
            !cfg.fault.is_enabled(),
            "the oracle models fault-free behaviour; only zero-rate fault plans are comparable"
        );
        let [lr_design, hr_design] = [Part::Lr, Part::Hr].map(|part| {
            let (geometry, tech) = cfg.part_array(part);
            ArrayDesign::new(geometry, tech)
        });
        OracleLlc {
            search: cfg.search,
            refresh_slack: cfg.refresh_slack_ticks as u64,
            engine: PolicyEngine::new(cfg),
            lr_base_retention: cfg.lr_retention,
            lr_rc_bits: cfg.lr_rc_bits,
            lr: PartArray::new(cfg.lr_sets(), cfg.lr_ways as usize),
            hr: PartArray::new(cfg.hr_sets(), cfg.hr_ways as usize),
            lr_rc: cfg.part_tracker(Part::Lr),
            hr_rc: cfg.part_tracker(Part::Hr),
            hr_to_lr: Buffer::new(cfg.buffer_blocks),
            lr_to_hr: Buffer::new(cfg.buffer_blocks),
            stats: TwoPartStats::default(),
            lr_tag_ns: lat(lr_design.tag_latency_ns()),
            hr_tag_ns: lat(hr_design.tag_latency_ns()),
            lr_read_ns: lat(lr_design.read_latency_ns()),
            hr_read_ns: lat(hr_design.read_latency_ns()),
            lr_write_ns: lat(lr_design.write_latency_ns()),
            hr_write_ns: lat(hr_design.write_latency_ns()),
            dram: BTreeMap::new(),
            next_token: 0,
            due: Vec::new(),
        }
    }

    /// Architecture statistics (same counters as the implementation).
    pub fn stats(&self) -> &TwoPartStats {
        &self.stats
    }

    /// Whether `la` resides in the LR part.
    pub fn lr_resident(&self, la: u64) -> bool {
        self.lr.contains(la)
    }

    /// Whether `la` resides in the HR part.
    pub(crate) fn hr_resident(&self, la: u64) -> bool {
        self.hr.contains(la)
    }

    /// Total swap-buffer overflows across both directions.
    pub fn buffer_overflows(&self) -> u64 {
        self.hr_to_lr.overflows + self.lr_to_hr.overflows
    }

    /// Peak simultaneous occupancy of the (HR→LR, LR→HR) buffers.
    pub fn buffer_peaks(&self) -> (usize, usize) {
        (self.hr_to_lr.peak, self.lr_to_hr.peak)
    }

    /// Required maintenance cadence, ns — same bound the implementation
    /// derives (each tracker: one tick, narrowed to the deadline-to-
    /// expiry window when a rounded-up tick shrinks it).
    pub fn maintenance_interval_ns(&self) -> u64 {
        lr_maintenance_floor_ns(
            self.engine.policy(),
            self.lr_base_retention,
            self.lr_rc_bits,
        )
        .min(self.hr_rc.maintenance_interval_ns())
    }

    fn fresh_token(&mut self) -> u64 {
        self.next_token += 1;
        self.next_token
    }

    /// Content a clean fill of `la` carries: whatever DRAM last saw.
    fn dram_content(&self, la: u64) -> u64 {
        self.dram.get(&la).copied().unwrap_or(0)
    }

    /// A dirty line leaving the hierarchy lands in DRAM; a clean one is
    /// dropped, and the write-back discipline says its payload must
    /// already *be* DRAM's — checked here on every drop.
    fn retire(&mut self, line: &Line) {
        if line.dirty {
            self.dram.insert(line.la, line.content);
        } else {
            assert_eq!(
                line.content,
                self.dram_content(line.la),
                "model invariant broken: clean line {:#x} diverged from DRAM",
                line.la
            );
        }
    }

    /// Probes for `la`. Returns `(hit, writebacks)` — the two
    /// observable outcomes a probe has besides its statistics.
    pub fn probe(&mut self, la: u64, write: bool, now_ns: u64) -> (bool, u32) {
        // Search selector: writes probe LR first, reads HR first.
        let order = if write {
            [Part::Lr, Part::Hr]
        } else {
            [Part::Hr, Part::Lr]
        };
        let slot_in = |model: &Self, part: Part| match part {
            Part::Lr => model.lr.slot_of(la),
            Part::Hr => model.hr.slot_of(la),
        };
        let (hit, tag_done_ns) = match self.search {
            SearchMode::Sequential => {
                let mut t = now_ns;
                let mut found = None;
                for (i, part) in order.into_iter().enumerate() {
                    t += match part {
                        Part::Lr => self.lr_tag_ns,
                        Part::Hr => self.hr_tag_ns,
                    };
                    if let Some(slot) = slot_in(self, part) {
                        if i == 1 {
                            self.stats.second_search_hits += 1;
                        }
                        found = Some((part, slot));
                        break;
                    }
                }
                (found, t)
            }
            SearchMode::Parallel => {
                let t = now_ns + self.lr_tag_ns.max(self.hr_tag_ns);
                let found = slot_in(self, Part::Lr)
                    .map(|slot| (Part::Lr, slot))
                    .or_else(|| slot_in(self, Part::Hr).map(|slot| (Part::Hr, slot)));
                (found, t)
            }
        };

        match (hit, write) {
            (Some((Part::Lr, slot)), false) => {
                self.lr.lookup_hit(slot, false, now_ns);
                self.stats.lr_read_hits += 1;
                (true, 0)
            }
            (Some((Part::Hr, slot)), false) => {
                self.hr.lookup_hit(slot, false, now_ns);
                self.stats.hr_read_hits += 1;
                (true, 0)
            }
            (Some((Part::Lr, slot)), true) => {
                // Demand write in place in LR: the physical write also
                // restarts the retention clock.
                self.lr.lookup_hit(slot, true, now_ns);
                self.lr.clocks[slot] = now_ns;
                self.lr.state[slot].content = self.fresh_token();
                self.stats.lr_write_hits += 1;
                self.stats.demand_writes_lr += 1;
                self.stats.lr_array_writes += 1;
                (true, 0)
            }
            (Some((Part::Hr, slot)), true) => {
                let wb = self.hr_write_hit(slot, tag_done_ns, now_ns);
                (true, wb)
            }
            (None, true) => {
                self.stats.write_misses += 1;
                (false, 0)
            }
            (None, false) => {
                self.stats.read_misses += 1;
                (false, 0)
            }
        }
    }

    /// A write that hit HR `slot`: migrate to LR once the write-count
    /// threshold is reached (and a HR→LR buffer slot is free), else
    /// service it in place.
    fn hr_write_hit(&mut self, slot: usize, tag_done_ns: u64, now_ns: u64) -> u32 {
        self.hr.lookup_hit(slot, true, now_ns);
        self.hr.state[slot].content = self.fresh_token();
        self.stats.hr_write_hits += 1;
        let count = self.hr.state[slot].write_count;

        if self.engine.should_migrate(count) {
            // The migration reads the block out of HR and writes it
            // (merged with the demand data) into LR through the buffer.
            let write_done = tag_done_ns + self.hr_read_ns + self.lr_write_ns;
            if self.hr_to_lr.try_reserve(now_ns, write_done) {
                let victim = self.hr.take(slot).expect("HR hit extracts");
                self.stats.migrations_to_lr += 1;
                self.stats.demand_writes_lr += 1;
                self.stats.lr_array_writes += 1;
                let evicted =
                    self.lr
                        .fill(victim.la, true, victim.write_count, victim.content, now_ns);
                if let Some(lr_victim) = evicted {
                    return self.demote(lr_victim, now_ns);
                }
                return 0;
            }
        }
        // Below threshold, or no buffer slot: write in place.
        self.hr.clocks[slot] = now_ns;
        self.stats.demand_writes_hr += 1;
        self.stats.hr_array_writes += 1;
        0
    }

    /// Demotes an LR victim into HR through the LR→HR buffer; with no
    /// slot free the block is forced out (dirty → DRAM write-back).
    /// Returns write-backs generated.
    fn demote(&mut self, victim: Line, now_ns: u64) -> u32 {
        let write_done = now_ns + self.lr_read_ns + self.hr_write_ns;
        if !self.lr_to_hr.try_reserve(now_ns, write_done) {
            self.retire(&victim);
            if victim.dirty {
                self.stats.writebacks += 1;
                self.stats.overflow_writebacks += 1;
                return 1;
            }
            return 0;
        }
        self.stats.demotions_to_hr += 1;
        self.stats.hr_array_writes += 1;
        let evicted = self
            .hr
            .fill(victim.la, victim.dirty, 0, victim.content, now_ns);
        // Write counts restart for the new HR residency: `fill` counts
        // the filling write via the dirty flag, which would leave dirty
        // demotions one demand write ahead at thresholds 2..3.
        if let Some(slot) = self.hr.slot_of(victim.la) {
            self.hr.state[slot].write_count = 0;
        }
        if let Some(hr_victim) = evicted {
            self.retire(&hr_victim);
            if hr_victim.dirty {
                self.stats.writebacks += 1;
                return 1;
            }
        }
        0
    }

    /// Installs a DRAM fill: dirty fills at threshold 1 go to LR (a
    /// write-allocated block is write-working-set by definition there),
    /// everything else to HR. Returns write-backs generated.
    pub fn fill(&mut self, la: u64, dirty: bool, now_ns: u64) -> u32 {
        let content = if dirty {
            self.fresh_token()
        } else {
            self.dram_content(la)
        };
        let to_lr = self.engine.fill_to_lr(dirty);
        if to_lr {
            self.stats.fills_to_lr += 1;
            self.stats.demand_writes_lr += 1;
            self.stats.lr_array_writes += 1;
            if let Some(victim) = self.lr.fill(la, dirty, 0, content, now_ns) {
                return self.demote(victim, now_ns);
            }
            0
        } else {
            self.stats.fills_to_hr += 1;
            if dirty {
                self.stats.demand_writes_hr += 1;
            }
            self.stats.hr_array_writes += 1;
            if let Some(victim) = self.hr.fill(la, dirty, 0, content, now_ns) {
                self.retire(&victim);
                if victim.dirty {
                    self.stats.writebacks += 1;
                    return 1;
                }
            }
            0
        }
    }

    /// Retention maintenance at `now_ns`: the LR refresh engine, then
    /// the HR expiry engine. Due lines are processed in `(deadline,
    /// line)` order — the order the implementation's retention lists
    /// keep resident lines in, which matters because LR refreshes
    /// compete for LR→HR buffer slots.
    pub fn maintain(&mut self, now_ns: u64) {
        // --- Runtime policy epoch ------------------------------------
        // Evaluated before the retention engines, exactly like the
        // implementation's `policy_epoch` — the shared engine sees the
        // same statistics at the same times, so its decisions coincide.
        if let Some(level) = self.engine.poll(now_ns, &self.stats) {
            self.apply_retention_level(level, now_ns);
        }

        // --- LR refresh engine ---------------------------------------
        let mut due = std::mem::take(&mut self.due);
        let span = self
            .lr_rc
            .refresh_deadline_with_slack_ns(0, self.refresh_slack);
        self.lr.collect_due(now_ns, span, &mut due);
        due.sort_unstable();
        for &(_, la, clock, slot) in &due {
            // A predecessor in this sweep cannot have touched this
            // line, but stay defensive about the clock.
            if self.lr.tags[slot] != la || self.lr.clocks[slot] != clock {
                continue;
            }
            if self.lr_rc.is_expired(clock, now_ns) {
                // Cadence violated: the data is already gone.
                self.stats.lr_expirations += 1;
                let victim = self.lr.take(slot).expect("due line is resident");
                self.retire(&victim);
                if victim.dirty {
                    self.stats.writebacks += 1;
                }
                continue;
            }
            let done = now_ns + self.lr_read_ns + self.lr_write_ns;
            if self.lr_to_hr.try_reserve(now_ns, done) {
                self.stats.refreshes += 1;
                self.stats.lr_array_writes += 1;
                self.lr.clocks[slot] = now_ns;
            } else {
                // No slot before expiry: evacuate instead of losing data.
                let victim = self.lr.take(slot).expect("due line is resident");
                self.retire(&victim);
                if victim.dirty {
                    self.stats.writebacks += 1;
                    self.stats.overflow_writebacks += 1;
                }
            }
        }
        due.clear();

        // --- HR expiry engine ----------------------------------------
        // HR has no refresh: lines at the last retention-counter tick
        // are invalidated (clean) or written back (dirty).
        let span = self.hr_rc.refresh_deadline_ns(0);
        self.hr.collect_due(now_ns, span, &mut due);
        due.sort_unstable();
        for &(_, la, clock, slot) in &due {
            if self.hr.tags[slot] != la || self.hr.clocks[slot] != clock {
                continue;
            }
            self.stats.hr_expirations += 1;
            let victim = self.hr.take(slot).expect("due line is resident");
            self.retire(&victim);
            if victim.dirty {
                self.stats.writebacks += 1;
            }
        }
        due.clear();
        self.due = due;
    }

    /// Switches the LR part to retention ladder `level`: swap the
    /// tracker, then rewrite-sweep every resident LR line at `now + 1`
    /// so its retention clock restarts under the new tracker (the same
    /// stamp the implementation relinks its LR retention list at).
    fn apply_retention_level(&mut self, level: u32, now_ns: u64) {
        self.lr_rc = lr_tracker_at(self.lr_base_retention, self.lr_rc_bits, level);
        let stamp = now_ns + 1;
        for (&la, clock) in self.lr.tags.iter().zip(&mut self.lr.clocks) {
            if la != EMPTY {
                *clock = stamp;
                self.stats.lr_array_writes += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A part holding `lines` as clean lines, each filled at its clock.
    fn part_with(lines: &[(u64, u64)]) -> PartArray {
        let mut part = PartArray::new(4, 2);
        for &(la, clock) in lines {
            assert!(part.fill(la, false, 0, 0, clock).is_none());
        }
        part
    }

    fn due_at(part: &PartArray, now_ns: u64, span: u64) -> Vec<(u64, u64, u64)> {
        let mut due = Vec::new();
        part.collect_due(now_ns, span, &mut due);
        due.into_iter()
            .map(|(d, la, clock, _)| (d, la, clock))
            .collect()
    }

    #[test]
    fn a_line_whose_deadline_is_now_is_due() {
        let rc = RetentionTracker::new(RetentionTime::from_nanos(1000.0), 4);
        let span = rc.refresh_deadline_ns(0);
        let deadline = rc.refresh_deadline_ns(100);
        let part = part_with(&[(5, 100)]);
        assert!(due_at(&part, deadline - 1, span).is_empty());
        assert_eq!(due_at(&part, deadline, span), [(deadline, 5, 100)]);
    }

    #[test]
    fn nothing_is_due_while_the_span_exceeds_now() {
        let part = part_with(&[(1, 0), (2, 3)]);
        assert!(due_at(&part, 999, 1000).is_empty());
        assert_eq!(due_at(&part, 1000, 1000), [(1000, 1, 0)]);
    }

    #[test]
    fn a_saturated_span_is_never_due() {
        // The tracker's deadlines saturate at `u64::MAX`; a span that
        // wide is reached by no `now` short of the end of the clock range.
        let part = part_with(&[(1, 0), (2, 7)]);
        for now in [0, 7, 1 << 40, u64::MAX - 1] {
            assert!(due_at(&part, now, u64::MAX).is_empty(), "now {now}");
        }
    }

    #[test]
    fn the_sweep_matches_the_saturating_deadline_everywhere() {
        let edges = [0, 1, 6, 7, 8, 1 << 40, u64::MAX - 8, u64::MAX - 1, u64::MAX];
        for clock in [0, 1, 7, 1 << 40, u64::MAX - 8, u64::MAX - 1] {
            let part = part_with(&[(3, clock)]);
            for span in edges {
                for now in edges {
                    let want = clock.saturating_add(span) <= now;
                    let got = due_at(&part, now, span);
                    assert_eq!(!got.is_empty(), want, "clock {clock} span {span} now {now}");
                    if want {
                        assert_eq!(got, [(clock.saturating_add(span), 3, clock)]);
                    }
                }
            }
        }
    }

    #[test]
    fn set_index_masks_powers_of_two_and_divides_otherwise() {
        let pow2 = PartArray::new(4, 2);
        assert_eq!(pow2.set_mask, Some(3));
        assert_eq!(pow2.set_start(13), 2);
        let odd = PartArray::new(3, 2);
        assert_eq!(odd.set_mask, None);
        assert_eq!(odd.set_start(13), 2);
        assert_eq!(odd.set_start(14), 4);
    }

    #[test]
    fn a_swap_slot_whose_write_completes_now_is_free() {
        let mut buffer = Buffer::new(1);
        assert!(buffer.try_reserve(0, 10));
        assert!(!buffer.try_reserve(9, 20), "still writing at 9");
        assert!(buffer.try_reserve(10, 30), "free the instant it completes");
    }

    #[test]
    fn single_slot_buffer_counts_peak_and_overflows() {
        let mut buffer = Buffer::new(1);
        assert_eq!((buffer.peak, buffer.overflows), (0, 0));
        assert!(buffer.try_reserve(0, 10));
        assert!(!buffer.try_reserve(5, 15));
        assert!(!buffer.try_reserve(9, 19));
        assert!(buffer.try_reserve(10, 20));
        assert_eq!((buffer.peak, buffer.overflows), (1, 2));
        assert_eq!(buffer.in_flight, [20]);
    }
}
