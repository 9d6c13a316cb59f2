//! The functional reference model of the two-part LLC.
//!
//! Everything here favours obviousness over speed: parts are flat
//! `Vec<Option<Line>>` scanned linearly, retention is re-derived from
//! per-line clocks on every sweep (no deadline queues), and the swap
//! buffers are sorted multisets of completion times. The model also
//! carries a content token per line and a shadow DRAM image, so the
//! write-back discipline (a clean line always equals DRAM) is checked
//! as an internal invariant on every drop.

use std::collections::BTreeMap;

use sttgpu_cache::ReplacementPolicy;
use sttgpu_core::{
    lr_maintenance_floor_ns, lr_tracker_at, PolicyEngine, RetentionTracker, SearchMode,
    TwoPartConfig, TwoPartStats,
};
use sttgpu_device::array::{ArrayDesign, ArrayGeometry};
use sttgpu_device::cell::MemTechnology;
use sttgpu_device::mtj::{MtjDesign, RetentionTime};

/// One of the two parts, probe-order aware.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Part {
    Lr,
    Hr,
}

/// One resident line: residency is the slot it occupies, the rest is
/// the per-line state the architecture tracks.
#[derive(Debug, Clone)]
struct Line {
    la: u64,
    dirty: bool,
    write_count: u32,
    /// Retention clock: when the cell array last physically wrote the
    /// line (fill, demand write or refresh).
    written_at_ns: u64,
    /// When a *demand* write last touched the line (0 = never).
    last_write_ns: u64,
    /// LRU recency stamp, monotone per part.
    stamp: u64,
    /// Content token: which DRAM version (or later demand write) the
    /// payload corresponds to.
    content: u64,
}

/// A set-associative array scanned the obvious way.
#[derive(Debug, Clone)]
struct PartArray {
    sets: u64,
    ways: usize,
    /// Ways currently in service; a partition policy may park the tail
    /// `ways - active_ways` ways of every set (they are drained first,
    /// so residency lookups over the full row stay correct).
    active_ways: usize,
    slots: Vec<Option<Line>>,
    stamp: u64,
}

impl PartArray {
    fn new(sets: u64, ways: usize) -> Self {
        PartArray {
            sets,
            ways,
            active_ways: ways,
            slots: vec![None; sets as usize * ways],
            stamp: 0,
        }
    }

    fn set_range(&self, la: u64) -> std::ops::Range<usize> {
        let set = (la % self.sets) as usize;
        set * self.ways..(set + 1) * self.ways
    }

    /// The slots a fill may install into — the set's active prefix.
    fn victim_range(&self, la: u64) -> std::ops::Range<usize> {
        let set = (la % self.sets) as usize;
        set * self.ways..set * self.ways + self.active_ways
    }

    /// Empties every parked way (`from_way..`), set-major, returning the
    /// extracted lines in drain order.
    fn drain_ways(&mut self, from_way: usize) -> Vec<Line> {
        let mut drained = Vec::new();
        for set in 0..self.sets as usize {
            for way in from_way..self.ways {
                if let Some(line) = self.slots[set * self.ways + way].take() {
                    drained.push(line);
                }
            }
        }
        drained
    }

    fn slot_of(&self, la: u64) -> Option<usize> {
        self.set_range(la)
            .find(|&s| self.slots[s].as_ref().is_some_and(|l| l.la == la))
    }

    fn contains(&self, la: u64) -> bool {
        self.slot_of(la).is_some()
    }

    fn line(&self, la: u64) -> Option<&Line> {
        self.slot_of(la).map(|s| self.slots[s].as_ref().unwrap())
    }

    fn line_mut(&mut self, la: u64) -> Option<&mut Line> {
        self.slot_of(la).map(|s| self.slots[s].as_mut().unwrap())
    }

    /// Services a hit: bumps recency (LRU touches on every hit) and,
    /// for writes, the write counter / dirty bit / last-write clock.
    fn lookup_hit(&mut self, la: u64, write: bool, now_ns: u64) {
        self.stamp += 1;
        let stamp = self.stamp;
        let line = self.line_mut(la).expect("lookup_hit needs a resident line");
        line.stamp = stamp;
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
        if let Some(line) = self.line_mut(la) {
            line.dirty |= dirty;
            if dirty {
                line.content = content;
            }
            return None;
        }
        let range = self.victim_range(la);
        let slot = range
            .clone()
            .find(|&s| self.slots[s].is_none())
            .unwrap_or_else(|| {
                range
                    .min_by_key(|&s| self.slots[s].as_ref().unwrap().stamp)
                    .expect("a set has at least one way")
            });
        self.stamp += 1;
        let victim = self.slots[slot].take();
        self.slots[slot] = Some(Line {
            la,
            dirty,
            write_count: carried_writes.saturating_add(dirty as u32),
            written_at_ns: now_ns,
            last_write_ns: if dirty { now_ns } else { 0 },
            stamp: self.stamp,
            content,
        });
        victim
    }

    fn extract(&mut self, la: u64) -> Option<Line> {
        self.slot_of(la).and_then(|s| self.slots[s].take())
    }

    fn lines(&self) -> impl Iterator<Item = &Line> {
        self.slots.iter().flatten()
    }
}

/// Swap buffer as a sorted multiset of completion times.
#[derive(Debug, Clone, Default)]
struct Buffer {
    capacity: usize,
    in_flight: BTreeMap<u64, u32>,
    admissions: u64,
    overflows: u64,
    peak: usize,
}

impl Buffer {
    fn new(capacity: usize) -> Self {
        Buffer {
            capacity,
            ..Buffer::default()
        }
    }

    fn occupancy_at(&mut self, now_ns: u64) -> usize {
        // A slot is free the instant its write completes.
        self.in_flight = self.in_flight.split_off(&(now_ns + 1));
        self.in_flight.values().map(|&c| c as usize).sum()
    }

    fn try_reserve(&mut self, now_ns: u64, completes_at_ns: u64) -> bool {
        let occupied = self.occupancy_at(now_ns);
        if occupied >= self.capacity {
            self.overflows += 1;
            return false;
        }
        *self.in_flight.entry(completes_at_ns).or_insert(0) += 1;
        self.admissions += 1;
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
    hr_max_ways: u32,
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
}

fn priced(
    kb: u64,
    ways: u32,
    banks: u32,
    line_bytes: u32,
    retention: RetentionTime,
    ewt_savings: f64,
) -> ArrayDesign {
    let geom = ArrayGeometry::new(kb * 1024, line_bytes, ways, banks);
    let mtj = MtjDesign::for_retention(retention).with_ewt_savings(ewt_savings);
    ArrayDesign::new(geom, MemTechnology::SttRam(mtj))
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
    /// feature outside the oracle's scope: wear rotation, non-LRU
    /// replacement, or a fault plan with any nonzero rate (zero-rate
    /// plans are accepted — the implementation promises they are
    /// exactly transparent, and the oracle holds it to that).
    pub fn new(cfg: &TwoPartConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        assert!(
            cfg.lr_rotation_period_ns.is_none(),
            "the oracle does not model wear rotation"
        );
        assert_eq!(
            cfg.replacement,
            ReplacementPolicy::Lru,
            "the oracle models LRU replacement only"
        );
        assert!(
            !cfg.fault.is_enabled(),
            "the oracle models fault-free behaviour; only zero-rate fault plans are comparable"
        );
        let lr_design = priced(
            cfg.lr_kb,
            cfg.lr_ways,
            cfg.lr_banks,
            cfg.line_bytes,
            cfg.lr_retention,
            cfg.ewt_savings,
        );
        let hr_design = priced(
            cfg.hr_kb,
            cfg.hr_ways,
            cfg.hr_banks,
            cfg.line_bytes,
            cfg.hr_retention,
            cfg.ewt_savings,
        );
        OracleLlc {
            search: cfg.search,
            refresh_slack: cfg.refresh_slack_ticks as u64,
            engine: PolicyEngine::new(cfg),
            lr_base_retention: cfg.lr_retention,
            lr_rc_bits: cfg.lr_rc_bits,
            hr_max_ways: cfg.hr_ways,
            lr: PartArray::new(cfg.lr_sets(), cfg.lr_ways as usize),
            hr: PartArray::new(cfg.hr_sets(), cfg.hr_ways as usize),
            lr_rc: RetentionTracker::new(cfg.lr_retention, cfg.lr_rc_bits),
            hr_rc: RetentionTracker::new(cfg.hr_retention, cfg.hr_rc_bits),
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
    pub fn hr_resident(&self, la: u64) -> bool {
        self.hr.contains(la)
    }

    /// Total swap-buffer overflows across both directions.
    pub fn buffer_overflows(&self) -> u64 {
        self.hr_to_lr.overflows + self.lr_to_hr.overflows
    }

    /// Total swap-buffer admissions across both directions.
    pub fn buffer_admissions(&self) -> u64 {
        self.hr_to_lr.admissions + self.lr_to_hr.admissions
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
        let part_contains = |model: &Self, part: Part| match part {
            Part::Lr => model.lr.contains(la),
            Part::Hr => model.hr.contains(la),
        };
        let (hit_part, tag_done_ns) = match self.search {
            SearchMode::Sequential => {
                let mut t = now_ns;
                let mut found = None;
                for (i, part) in order.into_iter().enumerate() {
                    t += match part {
                        Part::Lr => self.lr_tag_ns,
                        Part::Hr => self.hr_tag_ns,
                    };
                    if part_contains(self, part) {
                        if i == 1 {
                            self.stats.second_search_hits += 1;
                        }
                        found = Some(part);
                        break;
                    }
                }
                (found, t)
            }
            SearchMode::Parallel => {
                let t = now_ns + self.lr_tag_ns.max(self.hr_tag_ns);
                let found = if part_contains(self, Part::Lr) {
                    Some(Part::Lr)
                } else if part_contains(self, Part::Hr) {
                    Some(Part::Hr)
                } else {
                    None
                };
                (found, t)
            }
        };

        match (hit_part, write) {
            (Some(Part::Lr), false) => {
                self.lr.lookup_hit(la, false, now_ns);
                self.stats.lr_read_hits += 1;
                (true, 0)
            }
            (Some(Part::Hr), false) => {
                self.hr.lookup_hit(la, false, now_ns);
                self.stats.hr_read_hits += 1;
                (true, 0)
            }
            (Some(Part::Lr), true) => {
                // Demand write in place in LR: the physical write also
                // restarts the retention clock.
                self.lr.lookup_hit(la, true, now_ns);
                let token = self.fresh_token();
                let line = self.lr.line_mut(la).expect("LR hit");
                line.written_at_ns = now_ns;
                line.content = token;
                self.stats.lr_write_hits += 1;
                self.stats.demand_writes_lr += 1;
                self.stats.lr_array_writes += 1;
                (true, 0)
            }
            (Some(Part::Hr), true) => {
                let wb = self.hr_write_hit(la, tag_done_ns, now_ns);
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

    /// A write that hit in HR: migrate to LR once the write-count
    /// threshold is reached (and a HR→LR buffer slot is free), else
    /// service it in place.
    fn hr_write_hit(&mut self, la: u64, tag_done_ns: u64, now_ns: u64) -> u32 {
        self.hr.lookup_hit(la, true, now_ns);
        let token = self.fresh_token();
        self.hr.line_mut(la).expect("HR hit").content = token;
        self.stats.hr_write_hits += 1;
        let count = self.hr.line(la).map_or(1, |l| l.write_count);

        if self.engine.should_migrate(count) {
            // The migration reads the block out of HR and writes it
            // (merged with the demand data) into LR through the buffer.
            let write_done = tag_done_ns + self.hr_read_ns + self.lr_write_ns;
            if self.hr_to_lr.try_reserve(now_ns, write_done) {
                let victim = self.hr.extract(la).expect("HR hit extracts");
                self.stats.migrations_to_lr += 1;
                self.stats.demand_writes_lr += 1;
                self.stats.lr_array_writes += 1;
                let evicted = self
                    .lr
                    .fill(la, true, victim.write_count, victim.content, now_ns);
                if let Some(lr_victim) = evicted {
                    return self.demote(lr_victim, now_ns);
                }
                return 0;
            }
        }
        // Below threshold, or no buffer slot: write in place.
        let line = self.hr.line_mut(la).expect("HR hit");
        line.written_at_ns = now_ns;
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
        if let Some(line) = self.hr.line_mut(victim.la) {
            line.write_count = 0;
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
    /// line, clock)` order — the same total order the implementation's
    /// sorted deadline runs pop in, which matters because LR refreshes compete for
    /// LR→HR buffer slots.
    pub fn maintain(&mut self, now_ns: u64) {
        // --- Runtime policy epoch ------------------------------------
        // Evaluated before the retention engines, exactly like the
        // implementation's `policy_epoch` — the shared engine sees the
        // same statistics at the same times, so its decisions coincide.
        if !self.engine.is_fixed() {
            let actions = self.engine.poll(
                now_ns,
                &self.stats,
                self.hr.active_ways as u32,
                self.hr_max_ways,
                self.hr.sets,
            );
            if let Some(level) = actions.retention_level {
                self.apply_retention_level(level, now_ns);
            }
            if let Some(ways) = actions.hr_ways {
                self.apply_hr_ways(ways, now_ns);
            }
        }

        // --- LR refresh engine ---------------------------------------
        let slack = self.refresh_slack;
        let mut due: Vec<(u64, u64, u64)> = self
            .lr
            .lines()
            .filter_map(|l| {
                let deadline = self
                    .lr_rc
                    .refresh_deadline_with_slack_ns(l.written_at_ns, slack);
                (deadline <= now_ns).then_some((deadline, l.la, l.written_at_ns))
            })
            .collect();
        due.sort_unstable();
        for (_, la, clock) in due {
            // A predecessor in this sweep cannot have touched this
            // line, but stay defensive about the clock.
            if self.lr.line(la).is_none_or(|l| l.written_at_ns != clock) {
                continue;
            }
            if self.lr_rc.is_expired(clock, now_ns) {
                // Cadence violated: the data is already gone.
                self.stats.lr_expirations += 1;
                let victim = self.lr.extract(la).expect("due line is resident");
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
                self.lr
                    .line_mut(la)
                    .expect("due line is resident")
                    .written_at_ns = now_ns;
            } else {
                // No slot before expiry: evacuate instead of losing data.
                let victim = self.lr.extract(la).expect("due line is resident");
                self.retire(&victim);
                if victim.dirty {
                    self.stats.writebacks += 1;
                    self.stats.overflow_writebacks += 1;
                }
            }
        }

        // --- HR expiry engine ----------------------------------------
        // HR has no refresh: lines at the last retention-counter tick
        // are invalidated (clean) or written back (dirty).
        let mut due: Vec<(u64, u64, u64)> = self
            .hr
            .lines()
            .filter_map(|l| {
                let deadline = self.hr_rc.refresh_deadline_ns(l.written_at_ns);
                (deadline <= now_ns).then_some((deadline, l.la, l.written_at_ns))
            })
            .collect();
        due.sort_unstable();
        for (_, la, clock) in due {
            if self.hr.line(la).is_none_or(|l| l.written_at_ns != clock) {
                continue;
            }
            self.stats.hr_expirations += 1;
            let victim = self.hr.extract(la).expect("due line is resident");
            self.retire(&victim);
            if victim.dirty {
                self.stats.writebacks += 1;
            }
        }
    }

    /// Switches the LR part to retention ladder `level`: swap the
    /// tracker, then rewrite-sweep every resident LR line at `now + 1`
    /// so its retention clock restarts under the new tracker (the same
    /// stamp discipline the implementation uses to invalidate its
    /// pre-switch deadline entries).
    fn apply_retention_level(&mut self, level: u32, now_ns: u64) {
        self.lr_rc = lr_tracker_at(self.lr_base_retention, self.lr_rc_bits, level);
        let stamp = now_ns + 1;
        for line in self.lr.slots.iter_mut().flatten() {
            line.written_at_ns = stamp;
            self.stats.lr_array_writes += 1;
        }
    }

    /// Reconfigures the HR part to `ways` active ways, draining the
    /// parked range first on a shrink (dirty victims write back to DRAM,
    /// clean ones drop).
    fn apply_hr_ways(&mut self, ways: u32, now_ns: u64) {
        let _ = now_ns;
        let target = ways as usize;
        if target < self.hr.active_ways {
            for victim in self.hr.drain_ways(target) {
                self.retire(&victim);
                if victim.dirty {
                    self.stats.writebacks += 1;
                }
            }
        }
        self.hr.active_ways = target;
    }
}
