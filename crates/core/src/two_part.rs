//! The two-part low/high-retention STT-RAM LLC — the paper's contribution.

use sttgpu_cache::{AccessKind, BankArbiter, Evicted, Line, SetAssocCache, Slot};
use sttgpu_device::array::{ArrayDesign, ArrayGeometry};
use sttgpu_device::cell::MemTechnology;
use sttgpu_device::energy::{EnergyAccount, EnergyEvent};
use sttgpu_fault::{FaultOutcome, FaultPart, FaultPlan};
use sttgpu_stats::Histogram;
use sttgpu_trace::{BufferDir, PartId, Trace, TraceEvent};

use crate::config::{SearchMode, TwoPartConfig};
use crate::llc::{latency_to_ns, FillOutcome, LlcModel, LlcStats, ProbeOutcome};
use crate::policy::{lr_maintenance_floor_ns, lr_tracker_at, PolicyEngine};
use crate::retention::RetentionTracker;
use crate::retention_list::RetentionList;
use crate::search::{Part, SearchSelector};
use crate::swap::SwapBuffer;

/// Energy of moving one block through a swap buffer, nJ (small SRAM FIFO).
const BUFFER_ENERGY_NJ: f64 = 0.01;

/// Energy of one SECDED syndrome computation + correction on a faulted
/// line, nJ. Charged only when the fault process actually flipped a bit,
/// so a zero-rate plan leaves the ledger untouched.
const ECC_ENERGY_NJ: f64 = 0.02;

/// Extra latency of correcting a single-bit error on a read hit, ns.
const ECC_CORRECT_LATENCY_NS: u64 = 2;

/// Maps the search-selector part to the fault model's retention domain.
fn fault_part(part: Part) -> FaultPart {
    match part {
        Part::Lr => FaultPart::Lr,
        Part::Hr => FaultPart::Hr,
    }
}

/// Fig. 6 histogram bucket bounds, ns (≤1 µs, ≤5 µs, ≤10 µs, ≤1 ms,
/// ≤2.5 ms, then an implicit >2.5 ms bucket).
pub(crate) const REWRITE_BUCKET_BOUNDS_NS: [u64; 5] = [1_000, 5_000, 10_000, 1_000_000, 2_500_000];

/// Per-line metadata of both parts: when the cell array last physically
/// wrote this line (fill, demand write or refresh) — the retention clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct RetMeta {
    written_at_ns: u64,
}

/// Counters specific to the two-part architecture.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TwoPartStats {
    /// Read probes that hit in the LR part.
    pub lr_read_hits: u64,
    /// Read probes that hit in the HR part.
    pub hr_read_hits: u64,
    /// Write probes that hit in the LR part.
    pub lr_write_hits: u64,
    /// Write probes that hit in the HR part (before any migration).
    pub hr_write_hits: u64,
    /// Read probes that missed both parts.
    pub read_misses: u64,
    /// Write probes that missed both parts.
    pub write_misses: u64,
    /// Demand writes ultimately serviced by the LR array (write hits in
    /// LR, migration-triggered writes, dirty fills into LR).
    pub demand_writes_lr: u64,
    /// Demand writes ultimately serviced by the HR array.
    pub demand_writes_hr: u64,
    /// Physical LR data-array write operations (demand + fills +
    /// migrations + refreshes).
    pub lr_array_writes: u64,
    /// Physical HR data-array write operations.
    pub hr_array_writes: u64,
    /// Blocks promoted HR→LR by the WWS monitor.
    pub migrations_to_lr: u64,
    /// Blocks demoted LR→HR on LR eviction.
    pub demotions_to_hr: u64,
    /// LR lines refreshed in their last retention tick.
    pub refreshes: u64,
    /// LR lines that expired before refresh (maintenance cadence was
    /// violated) — should stay zero in healthy runs.
    pub lr_expirations: u64,
    /// HR lines invalidated at the end of their retention (no refresh in
    /// HR by design).
    pub hr_expirations: u64,
    /// Dirty lines written back to DRAM (evictions, expiries, buffer
    /// overflows).
    pub writebacks: u64,
    /// Write-backs forced specifically by swap-buffer overflow.
    pub overflow_writebacks: u64,
    /// Sequential-search hits found only in the second-probed part.
    pub second_search_hits: u64,
    /// Lines filled into LR on DRAM fills.
    pub fills_to_lr: u64,
    /// Lines filled into HR on DRAM fills.
    pub fills_to_hr: u64,
    /// LR wear-rotations performed.
    pub lr_rotations: u64,
    /// Single-bit errors corrected by the per-line SECDED (injected
    /// retention flips caught at read or scrub time).
    pub ecc_corrections: u64,
    /// Multi-bit errors SECDED detected but could not correct; the line
    /// was dropped and the access handled as a miss.
    pub ecc_uncorrectable: u64,
    /// Uncorrectable errors that hit *dirty* lines — architectural data
    /// loss (clean lines refetch from DRAM and lose nothing).
    pub data_loss_events: u64,
    /// Due LR refreshes dropped by the injected fault process.
    pub refresh_drops: u64,
    /// Swap-buffer reservations stalled by the injected fault process
    /// (the transfer fell back exactly as on a full buffer).
    pub buffer_stalls: u64,
    /// Transient bank faults forcing a tag-probe retry.
    pub bank_faults: u64,
}

impl TwoPartStats {
    /// Every counter, named, in declaration order: the one table stats
    /// blocks are printed and compared from.
    pub fn fields(&self) -> [(&'static str, u64); 27] {
        [
            ("lr_read_hits", self.lr_read_hits),
            ("hr_read_hits", self.hr_read_hits),
            ("lr_write_hits", self.lr_write_hits),
            ("hr_write_hits", self.hr_write_hits),
            ("read_misses", self.read_misses),
            ("write_misses", self.write_misses),
            ("demand_writes_lr", self.demand_writes_lr),
            ("demand_writes_hr", self.demand_writes_hr),
            ("lr_array_writes", self.lr_array_writes),
            ("hr_array_writes", self.hr_array_writes),
            ("migrations_to_lr", self.migrations_to_lr),
            ("demotions_to_hr", self.demotions_to_hr),
            ("refreshes", self.refreshes),
            ("lr_expirations", self.lr_expirations),
            ("hr_expirations", self.hr_expirations),
            ("writebacks", self.writebacks),
            ("overflow_writebacks", self.overflow_writebacks),
            ("second_search_hits", self.second_search_hits),
            ("fills_to_lr", self.fills_to_lr),
            ("fills_to_hr", self.fills_to_hr),
            ("lr_rotations", self.lr_rotations),
            ("ecc_corrections", self.ecc_corrections),
            ("ecc_uncorrectable", self.ecc_uncorrectable),
            ("data_loss_events", self.data_loss_events),
            ("refresh_drops", self.refresh_drops),
            ("buffer_stalls", self.buffer_stalls),
            ("bank_faults", self.bank_faults),
        ]
    }

    /// Total demand writes serviced by either part.
    pub fn demand_writes(&self) -> u64 {
        self.demand_writes_lr + self.demand_writes_hr
    }

    /// Fraction of demand writes serviced in the LR part — the "LR write
    /// utilization" of Figs. 4 and 5.
    pub fn lr_write_utilization(&self) -> f64 {
        let total = self.demand_writes();
        if total == 0 {
            0.0
        } else {
            self.demand_writes_lr as f64 / total as f64
        }
    }

    /// LR-to-HR demand-write ratio (Fig. 4's first panel).
    pub fn lr_to_hr_write_ratio(&self) -> f64 {
        if self.demand_writes_hr == 0 {
            self.demand_writes_lr as f64
        } else {
            self.demand_writes_lr as f64 / self.demand_writes_hr as f64
        }
    }

    /// Total physical array writes in both parts (Fig. 4's "write
    /// overhead" numerator — migrations and refreshes count).
    pub fn total_array_writes(&self) -> u64 {
        self.lr_array_writes + self.hr_array_writes
    }

    /// Fraction of demand write *probes* that found their block already
    /// LR-resident — the Fig. 5 "LR write utilization": conflict evictions
    /// in a low-associativity LR push WWS blocks out between writes, so
    /// the next write finds them in HR (or missing) instead.
    pub fn direct_lr_write_hit_rate(&self) -> f64 {
        let probes = self.lr_write_hits + self.hr_write_hits + self.write_misses;
        if probes == 0 {
            0.0
        } else {
            self.lr_write_hits as f64 / probes as f64
        }
    }
}

/// The two-part low/high-retention STT-RAM last-level cache.
///
/// See the [crate docs](crate) for the architecture overview and
/// [`TwoPartConfig`] for the knobs. The type implements [`LlcModel`], so it
/// drops into the GPU simulator wherever the SRAM baseline does.
///
/// # Example
///
/// ```
/// use sttgpu_cache::AccessKind;
/// use sttgpu_core::{LlcModel, TwoPartConfig, TwoPartLlc};
///
/// let mut llc = TwoPartLlc::new(TwoPartConfig::new(48, 2, 336, 7, 256));
///
/// // A clean (read) fill lands in HR; the first write migrates it to LR.
/// llc.fill(0x1000, false, 0);
/// assert!(llc.hr_contains(0x1000));
/// llc.probe(0x1000, AccessKind::Write, 100);
/// assert!(llc.lr_contains(0x1000));
/// assert_eq!(llc.stats().migrations_to_lr, 1);
/// ```
#[derive(Debug, Clone)]
pub struct TwoPartLlc {
    cfg: TwoPartConfig,
    lr: SetAssocCache<RetMeta>,
    hr: SetAssocCache<RetMeta>,
    lr_arb: BankArbiter,
    hr_arb: BankArbiter,
    lr_design: ArrayDesign,
    hr_design: ArrayDesign,
    lr_rc: RetentionTracker,
    hr_rc: RetentionTracker,
    engine: PolicyEngine,
    fault: FaultPlan,
    hr_to_lr: SwapBuffer,
    lr_to_hr: SwapBuffer,
    energy: EnergyAccount,
    trace: Trace,
    stats: TwoPartStats,
    lr_rewrite_intervals: Histogram,
    next_rotation_ns: u64,
    // Each part's resident lines in refresh/expiry deadline order, one
    // node per slot, so `maintain` visits only due lines instead of
    // scanning both arrays every retention tick.
    lr_list: RetentionList,
    hr_list: RetentionList,
    // Reused across wear-rotation epochs and way drains to keep
    // `rotate_lr` and `apply_hr_ways` off the allocator.
    rotation_scratch: Vec<Evicted<RetMeta>>,
    // Reused by every retention switch's rewrite sweep: (line, slot).
    resident_scratch: Vec<(u64, usize)>,
    // `log2(line_bytes)`: byte address to line address is a shift.
    line_shift: u32,
    // Cached integer timings, ns.
    lr_tag_ns: u64,
    hr_tag_ns: u64,
    lr_read_ns: u64,
    hr_read_ns: u64,
    lr_write_ns: u64,
    hr_write_ns: u64,
    lr_read_occ_ns: u64,
    hr_read_occ_ns: u64,
    lr_write_occ_ns: u64,
    hr_write_occ_ns: u64,
}

impl TwoPartLlc {
    /// Builds the LLC from a configuration, pricing both arrays with the
    /// device model.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is internally inconsistent (see
    /// [`TwoPartConfig`]).
    pub fn new(cfg: TwoPartConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        let lr_geom =
            ArrayGeometry::new(cfg.lr_kb * 1024, cfg.line_bytes, cfg.lr_ways, cfg.lr_banks);
        let hr_geom =
            ArrayGeometry::new(cfg.hr_kb * 1024, cfg.line_bytes, cfg.hr_ways, cfg.hr_banks);
        let lr_mtj = sttgpu_device::mtj::MtjDesign::for_retention(cfg.lr_retention)
            .with_ewt_savings(cfg.ewt_savings);
        let hr_mtj = sttgpu_device::mtj::MtjDesign::for_retention(cfg.hr_retention)
            .with_ewt_savings(cfg.ewt_savings);
        let lr_design = ArrayDesign::new(lr_geom, MemTechnology::SttRam(lr_mtj));
        let hr_design = ArrayDesign::new(hr_geom, MemTechnology::SttRam(hr_mtj));
        let lr = SetAssocCache::new(
            lr_geom.sets() as usize,
            cfg.lr_ways as usize,
            cfg.line_bytes,
            cfg.replacement,
        );
        let hr = SetAssocCache::new(
            hr_geom.sets() as usize,
            cfg.hr_ways as usize,
            cfg.line_bytes,
            cfg.replacement,
        );
        let (lr_slots, hr_slots) = (lr.capacity_lines(), hr.capacity_lines());
        let energy =
            EnergyAccount::with_leakage_mw(lr_design.leakage_mw() + hr_design.leakage_mw());
        TwoPartLlc {
            lr,
            hr,
            lr_arb: BankArbiter::new(cfg.lr_banks as usize),
            hr_arb: BankArbiter::new(cfg.hr_banks as usize),
            lr_rc: RetentionTracker::new(cfg.lr_retention, cfg.lr_rc_bits),
            hr_rc: RetentionTracker::new(cfg.hr_retention, cfg.hr_rc_bits),
            engine: PolicyEngine::new(&cfg),
            fault: FaultPlan::new(
                cfg.fault,
                cfg.lr_retention,
                cfg.hr_retention,
                cfg.line_bytes,
            ),
            hr_to_lr: SwapBuffer::new(cfg.buffer_blocks),
            lr_to_hr: SwapBuffer::new(cfg.buffer_blocks),
            energy,
            trace: Trace::off(),
            stats: TwoPartStats::default(),
            lr_rewrite_intervals: Histogram::new(&REWRITE_BUCKET_BOUNDS_NS),
            next_rotation_ns: cfg.lr_rotation_period_ns.unwrap_or(u64::MAX),
            lr_list: RetentionList::new(lr_slots),
            hr_list: RetentionList::new(hr_slots),
            rotation_scratch: Vec::new(),
            resident_scratch: Vec::new(),
            line_shift: cfg.line_bytes.trailing_zeros(),
            lr_tag_ns: latency_to_ns("LR tag", lr_design.tag_latency_ns()),
            hr_tag_ns: latency_to_ns("HR tag", hr_design.tag_latency_ns()),
            lr_read_ns: latency_to_ns("LR read", lr_design.read_latency_ns()),
            hr_read_ns: latency_to_ns("HR read", hr_design.read_latency_ns()),
            lr_write_ns: latency_to_ns("LR write", lr_design.write_latency_ns()),
            hr_write_ns: latency_to_ns("HR write", hr_design.write_latency_ns()),
            lr_read_occ_ns: latency_to_ns("LR read-occupancy", lr_design.read_occupancy_ns()),
            hr_read_occ_ns: latency_to_ns("HR read-occupancy", hr_design.read_occupancy_ns()),
            lr_write_occ_ns: latency_to_ns("LR write-occupancy", lr_design.write_occupancy_ns()),
            hr_write_occ_ns: latency_to_ns("HR write-occupancy", hr_design.write_occupancy_ns()),
            lr_design,
            hr_design,
            cfg,
        }
    }

    /// The configuration this LLC was built from.
    pub fn config(&self) -> &TwoPartConfig {
        &self.cfg
    }

    /// Attaches a trace sink; every protocol action (hits, fills,
    /// migrations, refreshes, expiries, buffer traffic, energy deposits)
    /// is emitted through it.
    pub fn set_trace(&mut self, trace: Trace) {
        self.trace = trace;
    }

    /// Deposits energy and mirrors the deposit into the trace, so a
    /// checker can prove the ledger equals the sum of its events.
    fn deposit(&mut self, ev: EnergyEvent, nj: f64) {
        self.energy.deposit(ev, nj);
        self.trace.emit(|| TraceEvent::EnergyDeposit {
            category: ev.index() as u8,
            nj,
        });
    }

    /// Architecture-specific statistics.
    pub fn stats(&self) -> &TwoPartStats {
        &self.stats
    }

    /// Distribution of rewrite intervals observed in the LR part (Fig. 6).
    pub fn lr_rewrite_intervals(&self) -> &Histogram {
        &self.lr_rewrite_intervals
    }

    /// Whether `byte_addr`'s line currently resides in the LR part.
    pub fn lr_contains(&self, byte_addr: u64) -> bool {
        self.lr.contains(byte_addr >> self.line_shift)
    }

    /// Whether `byte_addr`'s line currently resides in the HR part.
    pub fn hr_contains(&self, byte_addr: u64) -> bool {
        self.hr.contains(byte_addr >> self.line_shift)
    }

    /// The priced LR array design.
    pub fn lr_design(&self) -> &ArrayDesign {
        &self.lr_design
    }

    /// The priced HR array design.
    pub fn hr_design(&self) -> &ArrayDesign {
        &self.hr_design
    }

    /// Peak simultaneous occupancy of (HR→LR, LR→HR) swap buffers.
    pub fn buffer_peaks(&self) -> (usize, usize) {
        (
            self.hr_to_lr.peak_occupancy(),
            self.lr_to_hr.peak_occupancy(),
        )
    }

    /// Total swap-buffer overflows (each forced a write-back or drop).
    pub fn buffer_overflows(&self) -> u64 {
        self.hr_to_lr.overflows() + self.lr_to_hr.overflows()
    }

    /// Records an LR array write of line `la` at `slot` at `written_ns`:
    /// moves the slot to the line's refresh deadline (slack ticks before
    /// the last retention tick).
    fn note_lr_write(&mut self, slot: Slot, la: u64, written_ns: u64) {
        let deadline = self
            .lr_rc
            .refresh_deadline_with_slack_ns(written_ns, self.cfg.refresh_slack_ticks as u64);
        self.lr_list.relink(slot.index(), deadline, la);
    }

    /// Records an HR array write of line `la` at `slot` at `written_ns`:
    /// moves the slot to the line's expiry deadline (HR lines are never
    /// refreshed).
    fn note_hr_write(&mut self, slot: Slot, la: u64, written_ns: u64) {
        let deadline = self.hr_rc.refresh_deadline_ns(written_ns);
        self.hr_list.relink(slot.index(), deadline, la);
    }

    /// Removes the LR line at `slot` from the array and its retention list.
    fn lr_extract(&mut self, slot: Slot) -> Evicted<RetMeta> {
        self.lr_list.unlink(slot.index());
        self.lr.extract_slot(slot)
    }

    /// Removes the HR line at `slot` from the array and its retention list.
    fn hr_extract(&mut self, slot: Slot) -> Evicted<RetMeta> {
        self.hr_list.unlink(slot.index());
        self.hr.extract_slot(slot)
    }

    fn part_find(&self, part: Part, la: u64) -> Option<Slot> {
        match part {
            Part::Lr => self.lr.find(la),
            Part::Hr => self.hr.find(la),
        }
    }

    fn part_line(&self, part: Part, slot: Slot) -> &Line<RetMeta> {
        match part {
            Part::Lr => self.lr.line(slot),
            Part::Hr => self.hr.line(slot),
        }
    }

    fn tag_ns(&self, part: Part) -> u64 {
        match part {
            Part::Lr => self.lr_tag_ns,
            Part::Hr => self.hr_tag_ns,
        }
    }

    fn deposit_tag(&mut self, part: Part) {
        let nj = match part {
            Part::Lr => self.lr_design.tag_energy_nj(),
            Part::Hr => self.hr_design.tag_energy_nj(),
        };
        self.deposit(EnergyEvent::TagLookup, nj);
    }

    /// Rolls the injected swap-buffer stall for one reservation attempt.
    /// On a stall the caller takes its existing buffer-full fallback, so
    /// the fault degrades service exactly like transient congestion.
    fn fault_stall(&mut self, dir: BufferDir, la: u64, now_ns: u64) -> bool {
        if !self.fault.enabled() {
            return false;
        }
        let dir_index = match dir {
            BufferDir::HrToLr => 0,
            BufferDir::LrToHr => 1,
        };
        let stalled = self.fault.buffer_stall(dir_index, la, now_ns);
        if stalled {
            self.stats.buffer_stalls += 1;
            self.trace
                .emit(|| TraceEvent::BufferStall { dir, la, now_ns });
        }
        stalled
    }

    /// Services a read hit on `slot` in `part`. Returns completion time.
    fn service_read(
        &mut self,
        part: Part,
        slot: Slot,
        la: u64,
        tag_done_ns: u64,
        now_ns: u64,
    ) -> u64 {
        match part {
            Part::Lr => {
                self.lr.hit(slot, AccessKind::Read, now_ns);
                self.stats.lr_read_hits += 1;
                self.deposit(EnergyEvent::DataRead, self.lr_design.read_energy_nj());
                let bank = self.lr_arb.bank_of(la);
                let start = self.lr_arb.reserve(bank, tag_done_ns, self.lr_read_occ_ns);
                start + self.lr_read_ns
            }
            Part::Hr => {
                self.hr.hit(slot, AccessKind::Read, now_ns);
                self.stats.hr_read_hits += 1;
                self.deposit(EnergyEvent::DataRead, self.hr_design.read_energy_nj());
                let bank = self.hr_arb.bank_of(la);
                let start = self.hr_arb.reserve(bank, tag_done_ns, self.hr_read_occ_ns);
                start + self.hr_read_ns
            }
        }
    }

    /// Physically writes the LR line at `slot`. Returns completion.
    fn lr_demand_write(&mut self, slot: Slot, la: u64, tag_done_ns: u64, now_ns: u64) -> u64 {
        // Record the rewrite interval before the write updates the clock.
        let prev = self.lr.line(slot).last_write_ns();
        if prev > 0 && now_ns > prev {
            self.lr_rewrite_intervals.record(now_ns - prev);
        }
        self.lr
            .hit(slot, AccessKind::Write, now_ns)
            .meta
            .written_at_ns = now_ns;
        self.note_lr_write(slot, la, now_ns);
        self.stats.lr_write_hits += 1;
        self.stats.demand_writes_lr += 1;
        self.stats.lr_array_writes += 1;
        self.deposit(EnergyEvent::DataWrite, self.lr_design.write_energy_nj());
        let bank = self.lr_arb.bank_of(la);
        let start = self.lr_arb.reserve(bank, tag_done_ns, self.lr_write_occ_ns);
        start + self.lr_write_ns
    }

    /// Whether the next demand write to the HR line at `slot` will
    /// trigger a WWS migration — i.e. the count [`hr_write_hit`] will
    /// observe after its lookup bumps the write counter reaches the
    /// threshold.
    ///
    /// [`hr_write_hit`]: Self::hr_write_hit
    fn migration_is_due(&self, slot: Slot) -> bool {
        self.engine.migration_due(self.hr.line(slot).write_count())
    }

    /// Handles a write that hit the HR line at `slot`: either service it
    /// in place or migrate the block to LR per the WWS write threshold.
    fn hr_write_hit(&mut self, slot: Slot, la: u64, tag_done_ns: u64, now_ns: u64) -> (u64, u32) {
        let count = self.hr.hit(slot, AccessKind::Write, now_ns).write_count();
        self.stats.hr_write_hits += 1;

        if self.engine.should_migrate(count) {
            // Promote: read the block out of HR, stage it in the HR→LR
            // buffer, write it (merged with the demand data) into LR. The
            // whole hop runs on migration ports (the paper banks the HR
            // part "to enable migration of multiple data blocks" and the
            // buffers decouple the arrays' latencies), so demand banks
            // stay free; the buffer capacity is the bandwidth limit.
            let read_done = tag_done_ns + self.hr_read_ns;
            self.deposit(EnergyEvent::DataRead, self.hr_design.read_energy_nj());
            let write_done = read_done + self.lr_write_ns;

            if !self.fault_stall(BufferDir::HrToLr, la, now_ns)
                && self.hr_to_lr.try_reserve(now_ns, write_done)
            {
                let victim = self.hr_extract(slot);
                self.trace.emit(|| TraceEvent::BufferAdmit {
                    dir: BufferDir::HrToLr,
                    la,
                    now_ns,
                });
                self.deposit(EnergyEvent::Buffer, BUFFER_ENERGY_NJ);
                self.deposit(EnergyEvent::Migration, self.lr_design.write_energy_nj());
                self.trace.emit(|| TraceEvent::Evict {
                    part: PartId::Hr,
                    la,
                    wrote_back: false,
                    now_ns,
                });
                self.stats.migrations_to_lr += 1;
                self.stats.demand_writes_lr += 1;
                self.stats.lr_array_writes += 1;
                let mut writebacks = 0;
                let fill = self.lr.fill_with(
                    la,
                    true,
                    victim.write_count,
                    RetMeta {
                        written_at_ns: now_ns,
                    },
                    now_ns,
                );
                self.trace.emit(|| TraceEvent::Fill {
                    part: PartId::Lr,
                    la,
                    now_ns,
                });
                self.trace.emit(|| TraceEvent::BufferInstall {
                    dir: BufferDir::HrToLr,
                    la,
                    now_ns,
                });
                if fill.placed {
                    self.note_lr_write(fill.slot, la, now_ns);
                }
                if let Some(lr_victim) = fill.evicted {
                    writebacks += self.demote(lr_victim, now_ns);
                }
                (write_done, writebacks)
            } else {
                // Buffer full: fall back to servicing the write in HR.
                self.trace.emit(|| TraceEvent::BufferOverflow {
                    dir: BufferDir::HrToLr,
                    la,
                    now_ns,
                });
                let wb = self.hr_write_in_place(slot, la, tag_done_ns, now_ns);
                (wb, 0)
            }
        } else {
            (self.hr_write_in_place(slot, la, tag_done_ns, now_ns), 0)
        }
    }

    /// Writes the HR line at `slot` in place (below-threshold writes and
    /// buffer-full fallbacks). Returns completion time.
    fn hr_write_in_place(&mut self, slot: Slot, la: u64, tag_done_ns: u64, now_ns: u64) -> u64 {
        self.hr.line_mut(slot).meta.written_at_ns = now_ns;
        self.note_hr_write(slot, la, now_ns);
        self.stats.demand_writes_hr += 1;
        self.stats.hr_array_writes += 1;
        self.deposit(EnergyEvent::DataWrite, self.hr_design.write_energy_nj());
        let bank = self.hr_arb.bank_of(la);
        let start = self.hr_arb.reserve(bank, tag_done_ns, self.hr_write_occ_ns);
        start + self.hr_write_ns
    }

    /// Demotes an LR victim into HR through the LR→HR buffer. Returns the
    /// number of DRAM write-backs generated.
    fn demote(&mut self, victim: Evicted<RetMeta>, now_ns: u64) -> u32 {
        // The whole demotion runs on migration ports: read the victim out
        // of LR, stage it, write it into HR. Demand banks stay free — the
        // swap buffers exist precisely to decouple this from the demand
        // path ("small buffers are needed to support data block
        // migration"). The victim moves as soon as it is extracted, so
        // buffer slots are held for the fixed read+write hop only.
        let read_done = now_ns + self.lr_read_ns;
        self.deposit(EnergyEvent::DataRead, self.lr_design.read_energy_nj());
        let write_done = read_done + self.hr_write_ns;

        if self.fault_stall(BufferDir::LrToHr, victim.line_addr, now_ns)
            || !self.lr_to_hr.try_reserve(now_ns, write_done)
        {
            // Buffer full: force the block out to DRAM (paper's data-loss
            // avoidance rule); clean blocks are simply dropped.
            self.trace.emit(|| TraceEvent::BufferOverflow {
                dir: BufferDir::LrToHr,
                la: victim.line_addr,
                now_ns,
            });
            self.trace.emit(|| TraceEvent::Evict {
                part: PartId::Lr,
                la: victim.line_addr,
                wrote_back: victim.dirty,
                now_ns,
            });
            if victim.dirty {
                self.stats.writebacks += 1;
                self.stats.overflow_writebacks += 1;
                self.deposit(EnergyEvent::Writeback, self.lr_design.read_energy_nj());
                return 1;
            }
            return 0;
        }

        self.trace.emit(|| TraceEvent::Evict {
            part: PartId::Lr,
            la: victim.line_addr,
            wrote_back: false,
            now_ns,
        });
        self.trace.emit(|| TraceEvent::BufferAdmit {
            dir: BufferDir::LrToHr,
            la: victim.line_addr,
            now_ns,
        });
        self.deposit(EnergyEvent::Buffer, BUFFER_ENERGY_NJ);
        self.deposit(EnergyEvent::Migration, self.hr_design.write_energy_nj());
        self.stats.demotions_to_hr += 1;
        self.stats.hr_array_writes += 1;
        let mut writebacks = 0;
        let fill = self.hr.fill_with(
            victim.line_addr,
            victim.dirty,
            0,
            RetMeta {
                written_at_ns: now_ns,
            },
            now_ns,
        );
        if let Some(hr_victim) = fill.evicted {
            self.trace.emit(|| TraceEvent::Evict {
                part: PartId::Hr,
                la: hr_victim.line_addr,
                wrote_back: hr_victim.dirty,
                now_ns,
            });
            if hr_victim.dirty {
                writebacks += 1;
                self.stats.writebacks += 1;
                self.deposit(EnergyEvent::Writeback, self.hr_design.read_energy_nj());
            }
        }
        // Write counts restart for the new HR residency: the WWS monitor
        // judges HR-resident behaviour only. `fill_with` counts the
        // filling write via the dirty flag, which would leave dirty
        // demotions one demand write ahead at thresholds 2..3.
        self.hr.line_mut(fill.slot).set_write_count(0);
        self.trace.emit(|| TraceEvent::Fill {
            part: PartId::Hr,
            la: victim.line_addr,
            now_ns,
        });
        self.trace.emit(|| TraceEvent::BufferInstall {
            dir: BufferDir::LrToHr,
            la: victim.line_addr,
            now_ns,
        });
        if fill.placed {
            self.note_hr_write(fill.slot, victim.line_addr, now_ns);
        }
        writebacks
    }

    /// Drains the LR part into HR and rotates its set mapping — the
    /// wear-rotation epoch boundary.
    fn rotate_lr(&mut self, now_ns: u64) {
        self.stats.lr_rotations += 1;
        let mut victims = std::mem::take(&mut self.rotation_scratch);
        victims.clear();
        self.lr.flush_into(&mut victims);
        self.lr_list.clear();
        // `flush_into` returns only dirty lines; clean LR lines do not
        // exist (everything in LR arrived via a write), but be permissive.
        for victim in victims.drain(..) {
            self.trace.emit(|| TraceEvent::Evict {
                part: PartId::Lr,
                la: victim.line_addr,
                wrote_back: false,
                now_ns,
            });
            self.deposit(EnergyEvent::DataRead, self.lr_design.read_energy_nj());
            self.deposit(EnergyEvent::Migration, self.hr_design.write_energy_nj());
            self.stats.demotions_to_hr += 1;
            self.stats.hr_array_writes += 1;
            let fill = self.hr.fill_with(
                victim.line_addr,
                victim.dirty,
                0,
                RetMeta {
                    written_at_ns: now_ns,
                },
                now_ns,
            );
            if let Some(hr_victim) = fill.evicted {
                self.trace.emit(|| TraceEvent::Evict {
                    part: PartId::Hr,
                    la: hr_victim.line_addr,
                    wrote_back: hr_victim.dirty,
                    now_ns,
                });
                if hr_victim.dirty {
                    self.stats.writebacks += 1;
                    self.deposit(EnergyEvent::Writeback, self.hr_design.read_energy_nj());
                }
            }
            // As in `demote`: a rotation demotion starts a fresh HR
            // residency, so the WWS count restarts at zero.
            self.hr.line_mut(fill.slot).set_write_count(0);
            self.trace.emit(|| TraceEvent::Fill {
                part: PartId::Hr,
                la: victim.line_addr,
                now_ns,
            });
            if fill.placed {
                self.note_hr_write(fill.slot, victim.line_addr, now_ns);
            }
        }
        self.rotation_scratch = victims;
        // A large prime stride: consecutive epochs must map the (wide)
        // hot region onto *disjoint* physical sets, which a +1 shift would
        // not achieve.
        self.lr.set_salt(self.stats.lr_rotations.wrapping_mul(2593));
    }

    /// Evaluates the runtime policy epoch and applies any reconfiguration
    /// it requests. A no-op under the fixed policy.
    fn policy_epoch(&mut self, now_ns: u64) {
        if self.engine.is_fixed() {
            return;
        }
        let actions = self.engine.poll(
            now_ns,
            &self.stats,
            self.hr.active_ways() as u32,
            self.cfg.hr_ways,
            self.cfg.hr_sets(),
        );
        if let Some(level) = actions.retention_level {
            self.apply_retention_level(level, now_ns);
        }
        if let Some(ways) = actions.hr_ways {
            self.apply_hr_ways(ways, now_ns);
        }
    }

    /// Switches the LR part to retention ladder `level`: swap the
    /// tracker, then rewrite-sweep every resident LR line so its
    /// retention clock restarts under the new tracker.
    fn apply_retention_level(&mut self, level: u32, now_ns: u64) {
        self.lr_rc = lr_tracker_at(self.cfg.lr_retention, self.cfg.lr_rc_bits, level);
        // The sweep stamps lines at `now + 1`, a time no past write can
        // share, and relinks every LR line at that stamp's deadline under
        // the new tracker, so deadlines never mix trackers. Each rewrite
        // is a physical array write priced like a refresh, but it is
        // *not* a protocol refresh: no `refreshes` count and no `Refresh`
        // events (mid-life rewrites would trip the checker's refresh-tail
        // rule).
        let stamp = now_ns + 1;
        self.lr_list.clear();
        let mut resident = std::mem::take(&mut self.resident_scratch);
        resident.clear();
        for (index, line) in self.lr.iter_mut().enumerate() {
            if line.is_valid() {
                line.meta.written_at_ns = stamp;
                resident.push((line.line_addr(), index));
            }
        }
        // Every line shares one deadline, so line order is list order:
        // relinking sorted keeps each relink an append.
        resident.sort_unstable();
        for &(la, index) in &resident {
            self.stats.lr_array_writes += 1;
            self.deposit(
                EnergyEvent::Refresh,
                self.lr_design.read_energy_nj() + self.lr_design.write_energy_nj(),
            );
            self.note_lr_write(Slot::new(index), la, stamp);
        }
        self.resident_scratch = resident;
        let lr_rc = self.lr_rc;
        let slack = self.cfg.refresh_slack_ticks as u64;
        self.trace.emit(|| TraceEvent::PolicySwitch {
            part: PartId::Lr,
            lr_max_hit_age_ns: lr_rc.retention_ns(),
            lr_tail_start_ns: lr_rc.refresh_deadline_with_slack_ns(0, slack),
            lr_min_expire_age_ns: lr_rc.retention_ns(),
            active_ways: 0,
            now_ns,
        });
    }

    /// Reconfigures the HR part to `ways` active ways, draining the
    /// parked range first on a shrink (dirty victims write back to DRAM,
    /// clean ones drop — the paper's data-loss avoidance rule).
    fn apply_hr_ways(&mut self, ways: u32, now_ns: u64) {
        let target = ways as usize;
        if target < self.hr.active_ways() {
            let mut drained = std::mem::take(&mut self.rotation_scratch);
            drained.clear();
            self.hr.drain_ways_into(target, &mut drained);
            for (index, line) in self.hr.iter().enumerate() {
                if !line.is_valid() {
                    self.hr_list.unlink(index);
                }
            }
            for victim in drained.drain(..) {
                self.trace.emit(|| TraceEvent::Evict {
                    part: PartId::Hr,
                    la: victim.line_addr,
                    wrote_back: victim.dirty,
                    now_ns,
                });
                if victim.dirty {
                    self.stats.writebacks += 1;
                    self.deposit(EnergyEvent::Writeback, self.hr_design.read_energy_nj());
                }
            }
            self.rotation_scratch = drained;
        }
        self.hr.set_active_ways(target);
        self.trace.emit(|| TraceEvent::PolicySwitch {
            part: PartId::Hr,
            lr_max_hit_age_ns: 0,
            lr_tail_start_ns: 0,
            lr_min_expire_age_ns: 0,
            active_ways: ways,
            now_ns,
        });
    }
}

impl LlcModel for TwoPartLlc {
    fn line_bytes(&self) -> u32 {
        self.cfg.line_bytes
    }

    fn probe(&mut self, byte_addr: u64, kind: AccessKind, now_ns: u64) -> ProbeOutcome {
        let la = byte_addr >> self.line_shift;
        let order = SearchSelector::order(kind);

        // Determine the hit part, the hit line's slot and the time the
        // winning tag lookup resolves, per the configured search mode.
        let (mut hit, mut tag_done_ns) = match self.cfg.search {
            SearchMode::Sequential => {
                let mut t = now_ns;
                let mut found = None;
                for (i, part) in order.into_iter().enumerate() {
                    self.deposit_tag(part);
                    t += self.tag_ns(part);
                    if let Some(slot) = self.part_find(part, la) {
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
                self.deposit_tag(Part::Lr);
                self.deposit_tag(Part::Hr);
                let t = now_ns + self.lr_tag_ns.max(self.hr_tag_ns);
                let found = match self.lr.find(la) {
                    Some(slot) => Some((Part::Lr, slot)),
                    None => self.hr.find(la).map(|slot| (Part::Hr, slot)),
                };
                (found, t)
            }
        };

        // --- fault injection ---------------------------------------------
        // Evaluated between tag resolution and the outcome emit so an
        // uncorrectable line is gone before the Miss event fires. All
        // hooks are keyed draws from the run's FaultPlan: a disabled plan
        // leaves this block untouched and the probe byte-identical.
        let mut ecc_extra_ns = 0;
        if self.fault.enabled() {
            if self.fault.bank_fault(la, now_ns) {
                // Transient bank fault: the first tag probe glitches and
                // retries, costing one extra tag access.
                self.stats.bank_faults += 1;
                self.trace.emit(|| TraceEvent::BankFault { la, now_ns });
                self.deposit_tag(order[0]);
                tag_done_ns += self.tag_ns(order[0]);
            }
            // ECC runs wherever the access physically reads the stored
            // payload: every read hit, and an HR write hit the WWS
            // monitor is about to migrate (the migration reads the line
            // out of HR before merging the demand data into LR). A plain
            // write hit overwrites the payload and starts a fresh fault
            // epoch without reading.
            let ecc_checked = match hit {
                Some((_, _)) if !kind.is_write() => hit,
                Some((Part::Hr, slot)) if self.migration_is_due(slot) => hit,
                _ => None,
            };
            if let Some((part, slot)) = ecc_checked {
                let written_at_ns = self.part_line(part, slot).meta.written_at_ns;
                match self
                    .fault
                    .line_outcome(fault_part(part), la, written_at_ns, now_ns)
                {
                    FaultOutcome::Clean => {}
                    FaultOutcome::Corrected => {
                        self.stats.ecc_corrections += 1;
                        self.deposit(EnergyEvent::Ecc, ECC_ENERGY_NJ);
                        self.trace.emit(|| TraceEvent::EccCorrected {
                            part: part.into(),
                            la,
                            now_ns,
                        });
                        ecc_extra_ns = ECC_CORRECT_LATENCY_NS;
                    }
                    FaultOutcome::Uncorrectable => {
                        // SECDED detects but cannot repair: drop the line
                        // and let the access take the miss path, refetching
                        // from DRAM. A dirty payload is architectural data
                        // loss — there is nothing valid to write back.
                        self.stats.ecc_uncorrectable += 1;
                        self.deposit(EnergyEvent::Ecc, ECC_ENERGY_NJ);
                        let victim = match part {
                            Part::Lr => self.lr_extract(slot),
                            Part::Hr => self.hr_extract(slot),
                        };
                        let data_lost = victim.dirty;
                        if data_lost {
                            self.stats.data_loss_events += 1;
                        }
                        self.trace.emit(|| TraceEvent::EccUncorrectable {
                            part: part.into(),
                            la,
                            data_lost,
                            now_ns,
                        });
                        hit = None;
                    }
                }
            }
        }

        // Emit the outcome before the service routines update the line's
        // retention clock, so the event carries the age the hit was
        // actually served at.
        match hit {
            Some((part, slot)) => self.trace.emit(|| {
                let written_at_ns = self.part_line(part, slot).meta.written_at_ns;
                TraceEvent::Hit {
                    part: part.into(),
                    la,
                    write: kind.is_write(),
                    now_ns,
                    written_at_ns,
                }
            }),
            None => self.trace.emit(|| TraceEvent::Miss {
                la,
                write: kind.is_write(),
                now_ns,
            }),
        }

        match (hit, kind) {
            (Some((part, slot)), AccessKind::Read) => {
                let ready = self.service_read(part, slot, la, tag_done_ns, now_ns);
                ProbeOutcome {
                    hit: true,
                    ready_ns: ready + ecc_extra_ns,
                    writebacks: 0,
                }
            }
            (Some((Part::Lr, slot)), AccessKind::Write) => {
                let ready = self.lr_demand_write(slot, la, tag_done_ns, now_ns);
                ProbeOutcome {
                    hit: true,
                    ready_ns: ready,
                    writebacks: 0,
                }
            }
            (Some((Part::Hr, slot)), AccessKind::Write) => {
                let (ready, writebacks) = self.hr_write_hit(slot, la, tag_done_ns, now_ns);
                ProbeOutcome {
                    hit: true,
                    ready_ns: ready + ecc_extra_ns,
                    writebacks,
                }
            }
            (None, _) => {
                if kind.is_write() {
                    self.stats.write_misses += 1;
                } else {
                    self.stats.read_misses += 1;
                }
                ProbeOutcome {
                    hit: false,
                    ready_ns: tag_done_ns,
                    writebacks: 0,
                }
            }
        }
    }

    fn fill(&mut self, byte_addr: u64, dirty: bool, now_ns: u64) -> FillOutcome {
        let la = byte_addr >> self.line_shift;
        // A dirty fill is a block entering on a write: at threshold 1 it
        // is WWS by definition and goes to LR; clean (read) fills go to HR.
        let to_lr = self.engine.fill_to_lr(dirty);
        let mut writebacks = 0;
        let ready_ns;
        if to_lr {
            self.stats.fills_to_lr += 1;
            self.stats.demand_writes_lr += 1;
            self.stats.lr_array_writes += 1;
            self.deposit(EnergyEvent::DataWrite, self.lr_design.write_energy_nj());
            // Fills drain through fill buffers into idle bank slots.
            ready_ns = now_ns + self.lr_write_ns;
            let fill = self.lr.fill_with(
                la,
                dirty,
                0,
                RetMeta {
                    written_at_ns: now_ns,
                },
                now_ns,
            );
            if fill.placed {
                self.note_lr_write(fill.slot, la, now_ns);
            }
            if let Some(victim) = fill.evicted {
                writebacks += self.demote(victim, now_ns);
            }
            self.trace.emit(|| TraceEvent::Fill {
                part: PartId::Lr,
                la,
                now_ns,
            });
        } else {
            self.stats.fills_to_hr += 1;
            if dirty {
                self.stats.demand_writes_hr += 1;
            }
            self.stats.hr_array_writes += 1;
            self.deposit(EnergyEvent::DataWrite, self.hr_design.write_energy_nj());
            // Fills drain through fill buffers into idle bank slots.
            ready_ns = now_ns + self.hr_write_ns;
            // No carried history on a fresh fill: `fill_with` already
            // counts the filling write via the dirty flag, so seeding the
            // counter with `dirty as u32` double-counted it and made
            // threshold-2..3 blocks migrate one demand write early.
            let fill = self.hr.fill_with(
                la,
                dirty,
                0,
                RetMeta {
                    written_at_ns: now_ns,
                },
                now_ns,
            );
            if let Some(victim) = fill.evicted {
                self.trace.emit(|| TraceEvent::Evict {
                    part: PartId::Hr,
                    la: victim.line_addr,
                    wrote_back: victim.dirty,
                    now_ns,
                });
                if victim.dirty {
                    writebacks += 1;
                    self.stats.writebacks += 1;
                    self.deposit(EnergyEvent::Writeback, self.hr_design.read_energy_nj());
                }
            }
            self.trace.emit(|| TraceEvent::Fill {
                part: PartId::Hr,
                la,
                now_ns,
            });
            if fill.placed {
                self.note_hr_write(fill.slot, la, now_ns);
            }
        }
        FillOutcome {
            ready_ns,
            writebacks,
        }
    }

    fn maintain(&mut self, now_ns: u64) {
        self.policy_epoch(now_ns);
        if let Some(period) = self.cfg.lr_rotation_period_ns {
            while self.next_rotation_ns <= now_ns {
                let t = self.next_rotation_ns;
                self.rotate_lr(t);
                self.next_rotation_ns += period;
            }
        }
        // --- LR refresh engine -------------------------------------------
        // Pop due lines off the retention list instead of scanning the
        // array: every popped slot holds a resident line whose current
        // deadline has passed. Expiry implies the refresh deadline passed
        // too, so one list covers both outcomes.
        while let Some((index, la)) = self.lr_list.pop_due(now_ns) {
            let slot = Slot::new(index);
            let stamp = self.lr.line(slot).meta.written_at_ns;
            debug_assert_eq!(self.lr.find(la), Some(slot), "listed LR line not resident");
            if self.lr_rc.is_expired(stamp, now_ns) {
                // Maintenance cadence was violated: data already lost.
                self.stats.lr_expirations += 1;
                let victim = self.lr.extract_slot(slot);
                self.trace.emit(|| TraceEvent::Expire {
                    part: PartId::Lr,
                    la,
                    written_at_ns: stamp,
                    wrote_back: victim.dirty,
                    now_ns,
                });
                if victim.dirty {
                    // Account the (unrecoverable in hardware) loss as a
                    // write-back so the simulation stays functionally
                    // consistent; `lr_expirations` flags the violation.
                    self.stats.writebacks += 1;
                    self.deposit(EnergyEvent::Writeback, self.lr_design.read_energy_nj());
                }
                continue;
            }
            if self.fault.enabled() {
                // Injected refresh drop: the engine skips this line and
                // re-arms it just past now, ahead of every later deadline;
                // by the next sweep the line has usually expired, taking
                // the ordinary expiry path.
                if self.fault.drop_refresh(la, now_ns) {
                    self.stats.refresh_drops += 1;
                    self.trace.emit(|| TraceEvent::RefreshDropped {
                        la,
                        written_at_ns: stamp,
                        now_ns,
                    });
                    self.lr_list.relink_near_head(index, now_ns + 1, la);
                    continue;
                }
                // The refresh read doubles as a scrub: ECC sees the line's
                // accumulated fault state before the rewrite clears it.
                match self.fault.line_outcome(FaultPart::Lr, la, stamp, now_ns) {
                    FaultOutcome::Clean => {}
                    FaultOutcome::Corrected => {
                        self.stats.ecc_corrections += 1;
                        self.deposit(EnergyEvent::Ecc, ECC_ENERGY_NJ);
                        self.trace.emit(|| TraceEvent::EccCorrected {
                            part: PartId::Lr,
                            la,
                            now_ns,
                        });
                    }
                    FaultOutcome::Uncorrectable => {
                        self.stats.ecc_uncorrectable += 1;
                        self.deposit(EnergyEvent::Ecc, ECC_ENERGY_NJ);
                        let data_lost = self.lr.extract_slot(slot).dirty;
                        if data_lost {
                            self.stats.data_loss_events += 1;
                        }
                        self.trace.emit(|| TraceEvent::EccUncorrectable {
                            part: PartId::Lr,
                            la,
                            data_lost,
                            now_ns,
                        });
                        continue;
                    }
                }
            }
            // Refresh = read the line into the LR→HR buffer, rewrite it.
            // Runs on the migration port; costs energy and a buffer slot.
            let done = now_ns + self.lr_read_ns + self.lr_write_ns;
            if !self.fault_stall(BufferDir::LrToHr, la, now_ns)
                && self.lr_to_hr.try_reserve(now_ns, done)
            {
                self.trace.emit(|| TraceEvent::BufferAdmit {
                    dir: BufferDir::LrToHr,
                    la,
                    now_ns,
                });
                self.trace.emit(|| TraceEvent::Refresh {
                    la,
                    written_at_ns: stamp,
                    now_ns,
                });
                self.deposit(
                    EnergyEvent::Refresh,
                    self.lr_design.read_energy_nj() + self.lr_design.write_energy_nj(),
                );
                self.deposit(EnergyEvent::Buffer, BUFFER_ENERGY_NJ);
                self.stats.refreshes += 1;
                self.stats.lr_array_writes += 1;
                self.lr.line_mut(slot).meta.written_at_ns = now_ns;
                self.trace.emit(|| TraceEvent::BufferInstall {
                    dir: BufferDir::LrToHr,
                    la,
                    now_ns,
                });
                self.note_lr_write(slot, la, now_ns);
            } else {
                // No buffer slot before expiry: evacuate instead of losing
                // data — dirty lines go to DRAM, clean lines are dropped.
                let victim = self.lr.extract_slot(slot);
                self.trace.emit(|| TraceEvent::BufferOverflow {
                    dir: BufferDir::LrToHr,
                    la,
                    now_ns,
                });
                self.trace.emit(|| TraceEvent::Evict {
                    part: PartId::Lr,
                    la,
                    wrote_back: victim.dirty,
                    now_ns,
                });
                if victim.dirty {
                    self.stats.writebacks += 1;
                    self.stats.overflow_writebacks += 1;
                    self.deposit(EnergyEvent::Writeback, self.lr_design.read_energy_nj());
                }
            }
        }

        // --- HR expiry engine --------------------------------------------
        // HR has no refresh: lines reaching the last RC tick are
        // invalidated (clean) or written back (dirty).
        while let Some((index, la)) = self.hr_list.pop_due(now_ns) {
            let slot = Slot::new(index);
            let stamp = self.hr.line(slot).meta.written_at_ns;
            debug_assert_eq!(self.hr.find(la), Some(slot), "listed HR line not resident");
            self.stats.hr_expirations += 1;
            let victim = self.hr.extract_slot(slot);
            self.trace.emit(|| TraceEvent::Expire {
                part: PartId::Hr,
                la,
                written_at_ns: stamp,
                wrote_back: victim.dirty,
                now_ns,
            });
            if victim.dirty {
                self.stats.writebacks += 1;
                self.deposit(EnergyEvent::Writeback, self.hr_design.read_energy_nj());
            }
        }
    }

    fn maintenance_interval_ns(&self) -> u64 {
        // Each tracker bounds its own sweep cadence: one tick, or the
        // (possibly narrower, with a rounded-up tick) window between the
        // last-tick deadline and expiry — visiting any slower could let a
        // due line expire before the refresh engine sees it. The LR bound
        // is the floor over every retention level the configured policy
        // can select at runtime, so a cadence chosen at setup stays sound
        // across switches.
        let base =
            lr_maintenance_floor_ns(self.cfg.policy, self.cfg.lr_retention, self.cfg.lr_rc_bits)
                .min(self.hr_rc.maintenance_interval_ns());
        match self.cfg.lr_rotation_period_ns {
            Some(p) => base.min(p),
            None => base,
        }
    }

    fn energy(&self) -> &EnergyAccount {
        &self.energy
    }

    fn summary(&self) -> LlcStats {
        LlcStats {
            read_hits: self.stats.lr_read_hits + self.stats.hr_read_hits,
            read_misses: self.stats.read_misses,
            write_hits: self.stats.lr_write_hits + self.stats.hr_write_hits,
            write_misses: self.stats.write_misses,
            writebacks: self.stats.writebacks,
        }
    }

    fn write_count_matrix(&self) -> Vec<Vec<u64>> {
        let mut m = self.lr.write_count_matrix();
        m.extend(self.hr.write_count_matrix());
        m
    }

    fn reset_measurement(&mut self) {
        self.lr.reset_stats();
        self.hr.reset_stats();
        self.energy.reset();
        self.stats = TwoPartStats::default();
        self.lr_rewrite_intervals.reset();
        self.engine.reset_baseline();
        self.hr_to_lr.reset();
        self.lr_to_hr.reset();
        self.trace.emit(|| TraceEvent::ResetMeasurement);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TwoPartLlc {
        // 8 KB LR (2-way), 56 KB HR (7-way), 256 B lines.
        TwoPartLlc::new(TwoPartConfig::new(8, 2, 56, 7, 256))
    }

    fn addr(i: u64) -> u64 {
        i * 256
    }

    #[test]
    fn clean_fill_goes_to_hr() {
        let mut llc = small();
        llc.fill(addr(1), false, 0);
        assert!(llc.hr_contains(addr(1)));
        assert!(!llc.lr_contains(addr(1)));
        assert_eq!(llc.stats().fills_to_hr, 1);
    }

    #[test]
    fn dirty_fill_goes_to_lr_at_threshold_one() {
        let mut llc = small();
        llc.fill(addr(1), true, 0);
        assert!(llc.lr_contains(addr(1)));
        assert_eq!(llc.stats().fills_to_lr, 1);
    }

    #[test]
    fn dirty_fill_goes_to_hr_at_higher_threshold() {
        let cfg = TwoPartConfig::new(8, 2, 56, 7, 256).with_write_threshold(3);
        let mut llc = TwoPartLlc::new(cfg);
        llc.fill(addr(1), true, 0);
        assert!(llc.hr_contains(addr(1)));
    }

    #[test]
    fn first_write_migrates_hr_block_to_lr() {
        let mut llc = small();
        llc.fill(addr(1), false, 0);
        let out = llc.probe(addr(1), AccessKind::Write, 1_000);
        assert!(out.hit);
        assert!(llc.lr_contains(addr(1)), "block must move to LR");
        assert!(!llc.hr_contains(addr(1)), "exclusive residency");
        assert_eq!(llc.stats().migrations_to_lr, 1);
    }

    #[test]
    fn threshold_three_migrates_on_third_write() {
        let cfg = TwoPartConfig::new(8, 2, 56, 7, 256).with_write_threshold(3);
        let mut llc = TwoPartLlc::new(cfg);
        llc.fill(addr(1), false, 0);
        llc.probe(addr(1), AccessKind::Write, 100);
        llc.probe(addr(1), AccessKind::Write, 200);
        assert!(llc.hr_contains(addr(1)), "two writes stay below TH=3");
        llc.probe(addr(1), AccessKind::Write, 300);
        assert!(llc.lr_contains(addr(1)), "third write migrates");
    }

    #[test]
    fn exclusivity_invariant_under_traffic() {
        let mut llc = small();
        let mut now = 0;
        for i in 0..2_000u64 {
            now += 17;
            let a = addr(i % 300);
            let kind = if i % 3 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let out = llc.probe(a, kind, now);
            if !out.hit {
                llc.fill(a, kind.is_write(), now + 50);
            }
            assert!(
                !(llc.lr_contains(a) && llc.hr_contains(a)),
                "line {a:#x} resident in both parts"
            );
        }
    }

    #[test]
    fn lr_eviction_demotes_to_hr() {
        let mut llc = small();
        // LR is 8 KB / 256 B = 32 lines, 2-way, 16 sets. Fill the same LR
        // set with 3 dirty lines: line addrs congruent mod 16.
        let base = 0u64;
        llc.fill(addr(base), true, 0);
        llc.fill(addr(base + 16), true, 10);
        llc.fill(addr(base + 32), true, 20);
        let demoted = [base, base + 16, base + 32]
            .iter()
            .filter(|&&i| llc.hr_contains(addr(i)))
            .count();
        assert_eq!(demoted, 1, "exactly one LR victim demoted to HR");
        assert_eq!(llc.stats().demotions_to_hr, 1);
    }

    #[test]
    fn reads_hit_in_both_parts() {
        let mut llc = small();
        llc.fill(addr(1), false, 0); // HR
        llc.fill(addr(2), true, 0); // LR
        assert!(llc.probe(addr(1), AccessKind::Read, 100).hit);
        assert!(llc.probe(addr(2), AccessKind::Read, 100).hit);
        assert_eq!(llc.stats().hr_read_hits, 1);
        assert_eq!(llc.stats().lr_read_hits, 1);
    }

    #[test]
    fn sequential_read_hit_in_lr_pays_second_search() {
        let mut llc = small();
        llc.fill(addr(2), true, 0); // resides in LR
        let before = llc.stats().second_search_hits;
        llc.probe(addr(2), AccessKind::Read, 100); // reads probe HR first
        assert_eq!(llc.stats().second_search_hits, before + 1);
    }

    #[test]
    fn parallel_search_never_counts_second_hits() {
        let cfg = TwoPartConfig::new(8, 2, 56, 7, 256).with_search(SearchMode::Parallel);
        let mut llc = TwoPartLlc::new(cfg);
        llc.fill(addr(2), true, 0);
        llc.probe(addr(2), AccessKind::Read, 100);
        assert_eq!(llc.stats().second_search_hits, 0);
    }

    #[test]
    fn lr_write_is_faster_than_hr_write() {
        let mut llc = small();
        llc.fill(addr(1), true, 0); // LR resident
        let lr_out = llc.probe(addr(1), AccessKind::Write, 10_000);
        let lr_latency = lr_out.ready_ns - 10_000;

        // Same geometry, TH=15 so the HR write stays in HR.
        let cfg = TwoPartConfig::new(8, 2, 56, 7, 256).with_write_threshold(15);
        let mut llc2 = TwoPartLlc::new(cfg);
        llc2.fill(addr(1), false, 0); // HR resident
        let hr_out = llc2.probe(addr(1), AccessKind::Write, 10_000);
        let hr_latency = hr_out.ready_ns - 10_000;

        assert!(
            lr_latency < hr_latency,
            "LR write {lr_latency} ns must beat HR write {hr_latency} ns"
        );
    }

    #[test]
    fn refresh_fires_in_last_tick() {
        let mut llc = small();
        llc.fill(addr(1), true, 0); // LR, written at t=0
        let tick = llc.maintenance_interval_ns();
        let retention = llc.config().lr_retention.as_nanos_u64();
        // Just before the last tick: nothing to do.
        llc.maintain(retention - 2 * tick);
        assert_eq!(llc.stats().refreshes, 0);
        // Inside the last tick: refresh must fire.
        llc.maintain(retention - tick / 2);
        assert_eq!(llc.stats().refreshes, 1);
        assert_eq!(llc.stats().lr_expirations, 0);
        assert!(llc.lr_contains(addr(1)), "refreshed line stays resident");
    }

    #[test]
    fn refresh_resets_the_retention_clock() {
        let mut llc = small();
        llc.fill(addr(1), true, 0);
        let retention = llc.config().lr_retention.as_nanos_u64();
        let tick = llc.maintenance_interval_ns();
        llc.maintain(retention - tick / 2);
        assert_eq!(llc.stats().refreshes, 1);
        // Shortly after, no second refresh is due.
        llc.maintain(retention);
        assert_eq!(llc.stats().refreshes, 1);
    }

    #[test]
    fn hr_lines_expire_instead_of_refreshing() {
        let mut llc = small();
        llc.fill(addr(1), false, 0); // HR, clean
        let hr_ret = llc.config().hr_retention.as_nanos_u64();
        llc.maintain(hr_ret);
        assert!(!llc.hr_contains(addr(1)), "expired HR line invalidated");
        assert_eq!(llc.stats().hr_expirations, 1);
        assert_eq!(llc.stats().writebacks, 0, "clean expiry costs nothing");
    }

    #[test]
    fn dirty_hr_expiry_writes_back() {
        let cfg = TwoPartConfig::new(8, 2, 56, 7, 256).with_write_threshold(15);
        let mut llc = TwoPartLlc::new(cfg);
        llc.fill(addr(1), true, 0); // dirty, stays in HR at TH=15
        assert!(llc.hr_contains(addr(1)));
        let hr_ret = llc.config().hr_retention.as_nanos_u64();
        llc.maintain(hr_ret);
        assert_eq!(llc.stats().hr_expirations, 1);
        assert_eq!(llc.stats().writebacks, 1);
    }

    #[test]
    fn rewrite_intervals_recorded() {
        let mut llc = small();
        llc.fill(addr(1), true, 10);
        llc.probe(addr(1), AccessKind::Write, 510); // interval 500 ns
        llc.probe(addr(1), AccessKind::Write, 600_000); // ~0.6 ms later
        let h = llc.lr_rewrite_intervals();
        assert_eq!(h.total(), 2);
        assert_eq!(h.counts()[0], 1, "500 ns lands in the <=1 us bucket");
    }

    #[test]
    fn energy_grows_with_activity_and_leakage_set() {
        let mut llc = small();
        assert!(llc.energy().leakage_mw() > 0.0);
        let e0 = llc.energy().dynamic_nj();
        llc.fill(addr(1), true, 0);
        llc.probe(addr(1), AccessKind::Write, 100);
        assert!(llc.energy().dynamic_nj() > e0);
    }

    #[test]
    fn summary_aggregates_parts() {
        let mut llc = small();
        llc.fill(addr(1), false, 0);
        llc.fill(addr(2), true, 0);
        llc.probe(addr(1), AccessKind::Read, 10); // HR read hit
        llc.probe(addr(2), AccessKind::Read, 20); // LR read hit
        llc.probe(addr(3), AccessKind::Read, 30); // miss
        let s = llc.summary();
        assert_eq!(s.read_hits, 2);
        assert_eq!(s.read_misses, 1);
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn reset_measurement_preserves_contents() {
        let mut llc = small();
        llc.fill(addr(1), true, 0);
        llc.probe(addr(1), AccessKind::Write, 10);
        llc.reset_measurement();
        assert_eq!(llc.stats().demand_writes(), 0);
        assert_eq!(llc.energy().dynamic_nj(), 0.0);
        assert!(llc.lr_contains(addr(1)), "contents survive");
    }

    #[test]
    fn write_count_matrix_concatenates_parts() {
        let llc = small();
        let m = llc.write_count_matrix();
        let lr_sets = llc.config().lr_sets() as usize;
        let hr_sets = llc.config().hr_sets() as usize;
        assert_eq!(m.len(), lr_sets + hr_sets);
        assert_eq!(m[0].len(), 2); // LR ways
        assert_eq!(m[lr_sets].len(), 7); // HR ways
    }

    #[test]
    fn buffer_overflow_forces_writebacks_with_tiny_buffers() {
        let cfg = TwoPartConfig::new(8, 2, 56, 7, 256).with_buffer_blocks(1);
        let mut llc = TwoPartLlc::new(cfg);
        // Hammer one LR set with dirty fills so demotions pile into the
        // 1-slot LR→HR buffer.
        for i in 0..32u64 {
            llc.fill(addr(i * 16), true, i * 5);
        }
        assert!(llc.buffer_overflows() > 0, "1-slot buffer must overflow");
        assert_eq!(
            llc.stats().overflow_writebacks + llc.stats().demotions_to_hr,
            llc.stats().demotions_to_hr + llc.stats().overflow_writebacks,
        );
        assert!(llc.stats().overflow_writebacks > 0);
    }

    #[test]
    fn wear_rotation_drains_lr_and_remaps() {
        let cfg = TwoPartConfig::new(8, 2, 56, 7, 256).with_lr_rotation_ms(1.0);
        let mut llc = TwoPartLlc::new(cfg);
        llc.fill(addr(1), true, 0);
        llc.fill(addr(2), true, 0);
        assert!(llc.lr_contains(addr(1)));
        // Cross the first rotation epoch.
        llc.maintain(1_000_000);
        assert_eq!(llc.stats().lr_rotations, 1);
        assert!(!llc.lr_contains(addr(1)), "rotation drains the LR");
        assert!(llc.hr_contains(addr(1)), "drained blocks land in HR");
        assert!(llc.hr_contains(addr(2)));
        // The next write re-populates LR under the new mapping.
        llc.probe(addr(1), AccessKind::Write, 1_100_000);
        assert!(llc.lr_contains(addr(1)));
    }

    #[test]
    fn rotation_levels_physical_set_wear() {
        // Hammer one block; without rotation all its writes land in one
        // physical set, with rotation they spread.
        let hot = addr(5);
        let writes_per_epoch = 50u64;
        let epochs = 8u64;

        let run = |rotate: bool| -> f64 {
            let base = TwoPartConfig::new(8, 2, 56, 7, 256);
            let cfg = if rotate {
                base.with_lr_rotation_ms(0.1)
            } else {
                base
            };
            let mut llc = TwoPartLlc::new(cfg);
            llc.fill(hot, true, 0);
            let mut now = 1_000u64;
            for _ in 0..epochs {
                for _ in 0..writes_per_epoch {
                    now += 200;
                    if !llc.probe(hot, AccessKind::Write, now).hit {
                        llc.fill(hot, true, now);
                    }
                }
                now += 100_000; // cross a rotation epoch
                llc.maintain(now);
            }
            let lr_sets = llc.config().lr_sets() as usize;
            let matrix = &llc.write_count_matrix()[..lr_sets];
            sttgpu_device::endurance::LifetimeEstimate::from_write_matrix(matrix, now)
                .leveling_headroom()
        };

        let plain = run(false);
        let rotated = run(true);
        assert!(
            rotated > plain * 1.5,
            "rotation must improve leveling: plain {plain:.4}, rotated {rotated:.4}"
        );
    }

    #[test]
    fn a_rewrite_moves_the_line_to_its_new_deadline() {
        let mut llc = small();
        llc.fill(addr(1), true, 0);
        let tick = llc.maintenance_interval_ns();
        let retention = llc.config().lr_retention.as_nanos_u64();
        // Rewrite mid-life: the line leaves its t=0 deadline.
        llc.probe(addr(1), AccessKind::Write, retention / 2);
        llc.maintain(retention - tick / 2); // old deadline due, new one not
        assert_eq!(llc.stats().refreshes, 0, "the old deadline is gone");
        // The rewrite's own deadline still fires.
        llc.maintain(retention / 2 + retention - tick / 2);
        assert_eq!(llc.stats().refreshes, 1);
        assert_eq!(llc.stats().lr_expirations, 0);
    }

    #[test]
    fn evicted_lines_leave_the_retention_list() {
        let mut llc = small();
        // Three dirty fills in one LR set (2-way): the LRU victim demotes
        // to HR, and its slot's node now carries the newcomer.
        llc.fill(addr(0), true, 0);
        llc.fill(addr(16), true, 0);
        llc.fill(addr(32), true, 0);
        assert_eq!(llc.stats().demotions_to_hr, 1);
        let retention = llc.config().lr_retention.as_nanos_u64();
        let tick = llc.maintenance_interval_ns();
        llc.maintain(retention - tick / 2);
        assert_eq!(
            llc.stats().refreshes,
            2,
            "only the two LR-resident lines refresh"
        );
    }

    /// The load-bearing property of the retention lists: after every
    /// `maintain(t)`, no valid line in either part is past its due point
    /// — exactly what a full-array scan guarantees.
    #[test]
    fn deadline_maintenance_never_misses_a_due_line() {
        for buffer_blocks in [256usize, 1] {
            let cfg = TwoPartConfig::new(8, 2, 56, 7, 256).with_buffer_blocks(buffer_blocks);
            let mut llc = TwoPartLlc::new(cfg);
            let slack = llc.config().refresh_slack_ticks as u64;
            let tick = llc.maintenance_interval_ns();
            let mut now = 0u64;
            let mut next_maint = tick;
            for i in 0..30_000u64 {
                now += 997;
                while next_maint <= now {
                    llc.maintain(next_maint);
                    for line in llc.lr.iter() {
                        assert!(
                            !line.is_valid()
                                || !llc.lr_rc.needs_refresh_with_slack(
                                    line.meta.written_at_ns,
                                    next_maint,
                                    slack
                                ),
                            "LR line {:#x} past due at t={next_maint}",
                            line.line_addr()
                        );
                    }
                    for line in llc.hr.iter() {
                        assert!(
                            !line.is_valid()
                                || !llc.hr_rc.needs_refresh(line.meta.written_at_ns, next_maint),
                            "HR line {:#x} past due at t={next_maint}",
                            line.line_addr()
                        );
                    }
                    next_maint += tick;
                }
                let a = addr(i.wrapping_mul(7) % 500);
                let kind = if i % 5 < 2 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                if !llc.probe(a, kind, now).hit {
                    llc.fill(a, kind.is_write(), now + 10);
                }
            }
            assert!(llc.stats().refreshes > 0, "traffic must exercise refreshes");

            // Idle past the HR deadline: resident read-only lines must now
            // expire (the traffic churn alone evicts lines long before the
            // 3 ms HR deadline, so this phase pins the expiry path).
            llc.fill(addr(900), false, now);
            llc.fill(addr(901), false, now);
            let idle_until = now + llc.config().hr_retention.as_nanos_u64() + tick;
            while next_maint <= idle_until {
                llc.maintain(next_maint);
                for line in llc.hr.iter() {
                    assert!(
                        !line.is_valid()
                            || !llc.hr_rc.needs_refresh(line.meta.written_at_ns, next_maint),
                        "HR line {:#x} past due at t={next_maint}",
                        line.line_addr()
                    );
                }
                next_maint += tick;
            }
            assert!(
                llc.stats().hr_expirations > 0,
                "idle phase must exercise HR expiry"
            );
        }
    }

    #[test]
    fn wws_stats_exposed() {
        let mut llc = small();
        llc.fill(addr(1), false, 0);
        llc.probe(addr(1), AccessKind::Write, 100);
        assert_eq!(llc.stats().migrations_to_lr, 1);
        assert_eq!(llc.stats().demand_writes_lr, 1);
        assert!((llc.stats().lr_write_utilization() - 1.0).abs() < 1e-12);
    }

    // --- fault injection ---------------------------------------------------

    use sttgpu_fault::FaultConfig;

    fn faulty(fault: FaultConfig) -> TwoPartLlc {
        TwoPartLlc::new(TwoPartConfig::new(8, 2, 56, 7, 256).with_fault(fault))
    }

    #[test]
    fn bank_faults_add_tag_latency_only() {
        let mut clean = small();
        let mut llc = faulty(FaultConfig {
            seed: 7,
            bank_fault_rate: 1.0,
            ..FaultConfig::disabled()
        });
        let base = clean.probe(addr(1), AccessKind::Read, 0).ready_ns;
        let hit = llc.probe(addr(1), AccessKind::Read, 0).ready_ns;
        assert!(hit > base, "bank fault must delay the probe");
        assert_eq!(llc.stats().bank_faults, 1);
        assert_eq!(llc.stats().ecc_corrections, 0);
        // The retry burns tag energy but nothing else.
        assert!(
            llc.energy().dynamic_nj_for(EnergyEvent::TagLookup)
                > clean.energy().dynamic_nj_for(EnergyEvent::TagLookup)
        );
    }

    #[test]
    fn uncorrectable_read_drops_the_line_and_misses() {
        // Rate 1.0 over a long residency makes the Poisson mass enormous:
        // the flip is certain and certainly multi-bit.
        let mut llc = faulty(FaultConfig {
            seed: 3,
            flip_rate: 1.0,
            ..FaultConfig::disabled()
        });
        llc.fill(addr(5), true, 0);
        assert!(llc.lr_contains(addr(5)));
        let probe = llc.probe(addr(5), AccessKind::Read, 20_000);
        assert!(!probe.hit, "uncorrectable line must read as a miss");
        assert!(!llc.lr_contains(addr(5)), "the corrupt line is dropped");
        assert_eq!(llc.stats().ecc_uncorrectable, 1);
        assert_eq!(llc.stats().data_loss_events, 1, "dirty payload is lost");
        assert_eq!(llc.stats().read_misses, 1);
        assert!(llc.energy().dynamic_nj_for(EnergyEvent::Ecc) > 0.0);
        // The refetch refills as usual.
        llc.fill(addr(5), false, 21_000);
        assert!(llc.hr_contains(addr(5)));
    }

    #[test]
    fn write_hits_skip_ecc() {
        let mut llc = faulty(FaultConfig {
            seed: 3,
            flip_rate: 1.0,
            ..FaultConfig::disabled()
        });
        llc.fill(addr(5), true, 0);
        let probe = llc.probe(addr(5), AccessKind::Write, 20_000);
        assert!(probe.hit, "a write overwrites the payload — no ECC check");
        assert_eq!(llc.stats().ecc_uncorrectable, 0);
    }

    #[test]
    fn dropped_refreshes_lead_to_expiry() {
        let mut llc = faulty(FaultConfig {
            seed: 11,
            refresh_drop_rate: 1.0,
            ..FaultConfig::disabled()
        });
        let tick = llc.lr_rc.tick_ns();
        let retention = llc.config().lr_retention.as_nanos_u64();
        llc.fill(addr(9), true, 0);
        let mut t = tick;
        while t <= retention + tick {
            llc.maintain(t);
            t += tick;
        }
        assert!(llc.stats().refresh_drops >= 1);
        assert_eq!(llc.stats().refreshes, 0, "every refresh was dropped");
        assert_eq!(llc.stats().lr_expirations, 1, "the starved line expires");
        assert!(!llc.lr_contains(addr(9)));
    }

    #[test]
    fn a_dropped_refresh_counts_once_per_line() {
        // Two writes in the same ns (a dirty fill and a write hit, or two
        // write hits) leave one line with one deadline, so one dropped
        // refresh is one drop however often the line was written.
        for write_hits in [1, 2] {
            let mut llc = faulty(FaultConfig {
                seed: 11,
                refresh_drop_rate: 1.0,
                ..FaultConfig::disabled()
            });
            llc.fill(addr(3), true, 10);
            for _ in 0..write_hits {
                assert!(llc.probe(addr(3), AccessKind::Write, 10).hit);
            }
            let due = llc
                .lr_rc
                .refresh_deadline_with_slack_ns(10, llc.config().refresh_slack_ticks as u64);
            llc.maintain(due);
            assert_eq!(
                llc.stats().refresh_drops,
                1,
                "{write_hits} same-ns write hits"
            );
            assert_eq!(llc.stats().refreshes, 0);
            assert!(llc.lr_contains(addr(3)), "a dropped refresh keeps the line");
        }
    }

    #[test]
    fn buffer_stalls_fall_back_like_overflow() {
        let mut llc = faulty(FaultConfig {
            seed: 5,
            buffer_stall_rate: 1.0,
            ..FaultConfig::disabled()
        });
        llc.fill(addr(2), false, 0);
        let probe = llc.probe(addr(2), AccessKind::Write, 100);
        assert!(probe.hit);
        assert_eq!(llc.stats().buffer_stalls, 1);
        assert_eq!(llc.stats().migrations_to_lr, 0, "stall blocks the hop");
        assert!(llc.hr_contains(addr(2)), "write serviced in place instead");
    }

    #[test]
    fn zero_rate_plan_is_inert() {
        let cfg = FaultConfig {
            seed: 99,
            ..FaultConfig::disabled()
        };
        let mut clean = small();
        let mut llc = faulty(cfg);
        for i in 0..64 {
            let kind = if i % 3 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            llc.fill(addr(i), i % 2 == 0, i * 50);
            clean.fill(addr(i), i % 2 == 0, i * 50);
            let a = llc.probe(addr(i / 2), kind, i * 50 + 25);
            let b = clean.probe(addr(i / 2), kind, i * 50 + 25);
            assert_eq!(a.hit, b.hit);
            assert_eq!(a.ready_ns, b.ready_ns);
        }
        assert_eq!(llc.stats(), clean.stats());
        assert_eq!(llc.energy(), clean.energy());
    }
}
