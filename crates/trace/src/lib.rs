//! Typed event trace and runtime invariant checking.
//!
//! The simulator's hot paths (the two-part LLC, swap buffers, retention
//! engines, MSHRs, the memory controller) emit compact [`TraceEvent`]s
//! through a [`Trace`] handle. A disabled handle is a single branch on a
//! `None` — event construction sits behind a closure, so normal runs pay
//! nothing beyond that branch. An enabled handle forwards every event to
//! an [`EventSink`]:
//!
//! * [`VecSink`] records events for tests to assert on;
//! * [`JsonlSink`] streams one JSON object per event for offline
//!   debugging (`diag --trace-jsonl`);
//! * [`Checker`] consumes the stream cycle-accurately and enforces the
//!   protocol invariants of the DAC'14 two-part LLC — retention safety,
//!   refresh-window placement, LR/HR exclusivity, swap-buffer
//!   conservation, MSHR uniqueness and metrics/energy conservation.
//!
//! The crate is dependency-free and sits below the cache substrate in the
//! workspace graph, so every layer can emit without cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::io::Write;
use std::rc::Rc;

/// Which physical part of the LLC an event concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartId {
    /// The small low-retention write part.
    Lr,
    /// The large high-retention part.
    Hr,
    /// A monolithic (single-part) LLC — the SRAM/STT-RAM baselines.
    Mono,
}

impl PartId {
    fn index(self) -> usize {
        match self {
            PartId::Lr => 0,
            PartId::Hr => 1,
            PartId::Mono => 2,
        }
    }

    fn name(self) -> &'static str {
        match self {
            PartId::Lr => "LR",
            PartId::Hr => "HR",
            PartId::Mono => "MONO",
        }
    }
}

/// Direction of a swap-buffer transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferDir {
    /// WWS migration buffer: HR → LR.
    HrToLr,
    /// Demotion/refresh buffer: LR → HR.
    LrToHr,
}

impl BufferDir {
    fn index(self) -> usize {
        match self {
            BufferDir::HrToLr => 0,
            BufferDir::LrToHr => 1,
        }
    }

    fn name(self) -> &'static str {
        match self {
            BufferDir::HrToLr => "HR->LR",
            BufferDir::LrToHr => "LR->HR",
        }
    }
}

/// Number of dynamic-energy categories ([`TraceEvent::EnergyDeposit`]'s
/// `category` ranges over `0..ENERGY_CATEGORIES`).
pub const ENERGY_CATEGORIES: usize = 8;

/// One compact, typed trace event.
///
/// `la` is always a **line address** (byte address / line size), `now_ns`
/// the simulated time of the action and `written_at_ns` the retention
/// timestamp the acting component held for the line.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A probe was served from `part`.
    Hit {
        /// Part that served the access.
        part: PartId,
        /// Line address.
        la: u64,
        /// Whether the access was a write.
        write: bool,
        /// Simulated time, ns.
        now_ns: u64,
        /// The line's retention timestamp before this access.
        written_at_ns: u64,
    },
    /// A probe missed every part.
    Miss {
        /// Line address.
        la: u64,
        /// Whether the access was a write.
        write: bool,
        /// Simulated time, ns.
        now_ns: u64,
    },
    /// A line became resident in `part` (demand fill or migration).
    Fill {
        /// Destination part.
        part: PartId,
        /// Line address.
        la: u64,
        /// Simulated time, ns.
        now_ns: u64,
    },
    /// A line left `part` for a non-retention reason (capacity victim,
    /// migration source, rotation, buffer-overflow evacuation).
    Evict {
        /// Source part.
        part: PartId,
        /// Line address.
        la: u64,
        /// Whether this eviction wrote the line back to DRAM.
        wrote_back: bool,
        /// Simulated time, ns.
        now_ns: u64,
    },
    /// A line was invalidated by its retention engine.
    Expire {
        /// Part the line expired in.
        part: PartId,
        /// Line address.
        la: u64,
        /// The line's retention timestamp.
        written_at_ns: u64,
        /// Whether the expiry wrote the line back to DRAM.
        wrote_back: bool,
        /// Simulated time, ns.
        now_ns: u64,
    },
    /// An LR line was refreshed (rewritten in place).
    Refresh {
        /// Line address.
        la: u64,
        /// The line's retention timestamp before the refresh.
        written_at_ns: u64,
        /// Simulated time, ns.
        now_ns: u64,
    },
    /// A block was admitted to a swap buffer.
    BufferAdmit {
        /// Transfer direction.
        dir: BufferDir,
        /// Line address.
        la: u64,
        /// Simulated time, ns.
        now_ns: u64,
    },
    /// A previously admitted block completed its transfer.
    BufferInstall {
        /// Transfer direction.
        dir: BufferDir,
        /// Line address.
        la: u64,
        /// Simulated time, ns.
        now_ns: u64,
    },
    /// A swap buffer was full; the transfer fell back (write-in-place for
    /// HR→LR, drop/write-back for LR→HR).
    BufferOverflow {
        /// Transfer direction.
        dir: BufferDir,
        /// Line address.
        la: u64,
        /// Simulated time, ns.
        now_ns: u64,
    },
    /// Per-line SECDED corrected a single-bit error on a resident line
    /// (injected early retention flip, caught at read or scrub time).
    EccCorrected {
        /// Part holding the line.
        part: PartId,
        /// Line address.
        la: u64,
        /// Simulated time, ns.
        now_ns: u64,
    },
    /// Per-line SECDED detected a multi-bit error it cannot correct; the
    /// line was dropped and the access (if any) handled as a miss.
    EccUncorrectable {
        /// Part the corrupt line was dropped from.
        part: PartId,
        /// Line address.
        la: u64,
        /// Whether dirty (unwritten-back) data was lost — clean lines are
        /// refetched from DRAM and lose nothing.
        data_lost: bool,
        /// Simulated time, ns.
        now_ns: u64,
    },
    /// The refresh engine dropped a due LR refresh (injected fault); the
    /// line is left to expire or be re-serviced on the next sweep.
    RefreshDropped {
        /// Line address.
        la: u64,
        /// The line's retention timestamp.
        written_at_ns: u64,
        /// Simulated time, ns.
        now_ns: u64,
    },
    /// A swap-buffer reservation stalled transiently (injected fault);
    /// the transfer fell back exactly as on a full buffer.
    BufferStall {
        /// Transfer direction.
        dir: BufferDir,
        /// Line address.
        la: u64,
        /// Simulated time, ns.
        now_ns: u64,
    },
    /// A transient bank fault forced a tag-probe retry (injected fault);
    /// costs one extra tag lookup of latency.
    BankFault {
        /// Line address probed.
        la: u64,
        /// Simulated time, ns.
        now_ns: u64,
    },
    /// An MSHR entry was allocated for a new outstanding miss.
    MshrAlloc {
        /// MSHR space: 0 is the L2 miss tracker, `1 + sm_id` an L1's.
        space: u32,
        /// Line address.
        la: u64,
    },
    /// A request merged into an existing MSHR entry.
    MshrMerge {
        /// MSHR space: 0 is the L2 miss tracker, `1 + sm_id` an L1's.
        space: u32,
        /// Line address.
        la: u64,
    },
    /// An outstanding miss completed and its MSHR entry was freed.
    MshrComplete {
        /// MSHR space: 0 is the L2 miss tracker, `1 + sm_id` an L1's.
        space: u32,
        /// Line address.
        la: u64,
    },
    /// A block launch placed fewer warps than occupancy promised
    /// (always a violation; promoted from a `debug_assert!`).
    LaunchUnderfill {
        /// SM that launched the block.
        sm: u32,
        /// Warps actually placed.
        placed: u32,
        /// Warps the occupancy calculation promised.
        needed: u32,
    },
    /// A grid retired more blocks than it launched
    /// (always a violation; promoted from a `debug_assert!`).
    OverRetire {
        /// Blocks retired so far.
        retired: u32,
        /// Blocks in the grid.
        blocks: u32,
    },
    /// End-of-run LLC counters, checked against the event-derived tally.
    MetricsReport {
        /// Read hits.
        read_hits: u64,
        /// Read misses.
        read_misses: u64,
        /// Write hits.
        write_hits: u64,
        /// Write misses.
        write_misses: u64,
        /// DRAM write-backs.
        writebacks: u64,
    },
    /// One dynamic-energy deposit into the LLC ledger.
    EnergyDeposit {
        /// Energy category (`0..ENERGY_CATEGORIES`).
        category: u8,
        /// Deposited energy, nJ.
        nj: f64,
    },
    /// End-of-run energy ledger, checked against the summed deposits.
    EnergyReport {
        /// Per-category dynamic energy, nJ.
        by_category: [f64; ENERGY_CATEGORIES],
        /// Total dynamic energy, nJ.
        total_nj: f64,
    },
    /// A runtime-adaptive LLC policy stepped the LR part's retention
    /// ladder. Carries the *new* retention windows so a consuming
    /// [`Checker`] can retire the stale bounds it was configured with.
    PolicySwitch {
        /// New LR retention period (hit-age limit), ns.
        lr_max_hit_age_ns: u64,
        /// New start of the LR refresh tail, ns.
        lr_tail_start_ns: u64,
        /// New minimum LR expiry age, ns.
        lr_min_expire_age_ns: u64,
        /// Simulated time, ns.
        now_ns: u64,
    },
    /// The measurement window was reset (counters and energy restart;
    /// residency and outstanding state carry over).
    ResetMeasurement,
}

/// Consumes trace events. Implementations must be cheap: they run inline
/// with the simulation.
pub trait EventSink {
    /// Handles one event.
    fn emit(&mut self, ev: &TraceEvent);
}

/// A cloneable handle components emit through.
///
/// A default (`off`) handle holds no sink: [`emit`](Trace::emit) is one
/// branch and the event-constructing closure is never called, which is
/// what keeps the instrumented hot paths free in normal runs. Clones
/// share the underlying sink, so one checker observes a whole [`Gpu`].
///
/// The sink is behind `Rc<RefCell<_>>`: a simulation runs on one thread
/// from start to finish, so the handle needs no lock, and the caller
/// keeps its own `Rc` to read the sink back once the run ends.
///
/// [`Gpu`]: ../sttgpu_sim/struct.Gpu.html
#[derive(Clone, Default)]
pub struct Trace(Option<Rc<RefCell<dyn EventSink>>>);

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Trace")
            .field(if self.0.is_some() { &"on" } else { &"off" })
            .finish()
    }
}

impl Trace {
    /// A disabled handle (the default everywhere).
    pub fn off() -> Self {
        Trace(None)
    }

    /// A handle forwarding every event to `sink`.
    pub fn to_sink<S: EventSink + 'static>(sink: Rc<RefCell<S>>) -> Self {
        Trace(Some(sink))
    }

    /// Whether a sink is attached.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Emits the event built by `f` — the closure runs only when a sink
    /// is attached.
    #[inline]
    pub fn emit(&self, f: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = &self.0 {
            Self::forward(sink, f());
        }
    }

    /// Outlined delivery path. Kept cold and non-generic so the disabled
    /// branch in `emit` compiles down to a single load-and-compare in the
    /// simulation hot loops instead of dragging the borrow + dynamic
    /// dispatch machinery into every caller.
    #[cold]
    #[inline(never)]
    fn forward(sink: &Rc<RefCell<dyn EventSink>>, event: TraceEvent) {
        sink.borrow_mut().emit(&event);
    }
}

/// Records every event in order — the test sink.
#[derive(Debug, Default)]
pub struct VecSink {
    events: Vec<TraceEvent>,
}

impl VecSink {
    /// An empty recorder.
    pub fn new() -> Self {
        VecSink::default()
    }

    /// The events recorded so far.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Takes (and clears) the recorded events.
    pub fn take(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }
}

impl EventSink for VecSink {
    fn emit(&mut self, ev: &TraceEvent) {
        self.events.push(ev.clone());
    }
}

fn json_escape_free(s: &str) -> &str {
    // Event field names and part/dir labels contain no JSON-special
    // characters; keep the writer allocation-free.
    debug_assert!(!s.contains('"') && !s.contains('\\'));
    s
}

/// Renders one event as a single-line JSON object (hand-rolled — the
/// workspace carries no serde).
pub(crate) fn to_json(ev: &TraceEvent) -> String {
    use TraceEvent::*;
    match ev {
        Hit {
            part,
            la,
            write,
            now_ns,
            written_at_ns,
        } => format!(
            "{{\"ev\":\"hit\",\"part\":\"{}\",\"la\":{la},\"write\":{write},\"now_ns\":{now_ns},\"written_at_ns\":{written_at_ns}}}",
            json_escape_free(part.name())
        ),
        Miss { la, write, now_ns } => {
            format!("{{\"ev\":\"miss\",\"la\":{la},\"write\":{write},\"now_ns\":{now_ns}}}")
        }
        Fill { part, la, now_ns } => format!(
            "{{\"ev\":\"fill\",\"part\":\"{}\",\"la\":{la},\"now_ns\":{now_ns}}}",
            json_escape_free(part.name())
        ),
        Evict {
            part,
            la,
            wrote_back,
            now_ns,
        } => format!(
            "{{\"ev\":\"evict\",\"part\":\"{}\",\"la\":{la},\"wrote_back\":{wrote_back},\"now_ns\":{now_ns}}}",
            json_escape_free(part.name())
        ),
        Expire {
            part,
            la,
            written_at_ns,
            wrote_back,
            now_ns,
        } => format!(
            "{{\"ev\":\"expire\",\"part\":\"{}\",\"la\":{la},\"written_at_ns\":{written_at_ns},\"wrote_back\":{wrote_back},\"now_ns\":{now_ns}}}",
            json_escape_free(part.name())
        ),
        Refresh {
            la,
            written_at_ns,
            now_ns,
        } => format!(
            "{{\"ev\":\"refresh\",\"la\":{la},\"written_at_ns\":{written_at_ns},\"now_ns\":{now_ns}}}"
        ),
        BufferAdmit { dir, la, now_ns } => format!(
            "{{\"ev\":\"buffer_admit\",\"dir\":\"{}\",\"la\":{la},\"now_ns\":{now_ns}}}",
            json_escape_free(dir.name())
        ),
        BufferInstall { dir, la, now_ns } => format!(
            "{{\"ev\":\"buffer_install\",\"dir\":\"{}\",\"la\":{la},\"now_ns\":{now_ns}}}",
            json_escape_free(dir.name())
        ),
        BufferOverflow { dir, la, now_ns } => format!(
            "{{\"ev\":\"buffer_overflow\",\"dir\":\"{}\",\"la\":{la},\"now_ns\":{now_ns}}}",
            json_escape_free(dir.name())
        ),
        EccCorrected { part, la, now_ns } => format!(
            "{{\"ev\":\"ecc_corrected\",\"part\":\"{}\",\"la\":{la},\"now_ns\":{now_ns}}}",
            json_escape_free(part.name())
        ),
        EccUncorrectable {
            part,
            la,
            data_lost,
            now_ns,
        } => format!(
            "{{\"ev\":\"ecc_uncorrectable\",\"part\":\"{}\",\"la\":{la},\"data_lost\":{data_lost},\"now_ns\":{now_ns}}}",
            json_escape_free(part.name())
        ),
        RefreshDropped {
            la,
            written_at_ns,
            now_ns,
        } => format!(
            "{{\"ev\":\"refresh_dropped\",\"la\":{la},\"written_at_ns\":{written_at_ns},\"now_ns\":{now_ns}}}"
        ),
        BufferStall { dir, la, now_ns } => format!(
            "{{\"ev\":\"buffer_stall\",\"dir\":\"{}\",\"la\":{la},\"now_ns\":{now_ns}}}",
            json_escape_free(dir.name())
        ),
        BankFault { la, now_ns } => {
            format!("{{\"ev\":\"bank_fault\",\"la\":{la},\"now_ns\":{now_ns}}}")
        }
        MshrAlloc { space, la } => {
            format!("{{\"ev\":\"mshr_alloc\",\"space\":{space},\"la\":{la}}}")
        }
        MshrMerge { space, la } => {
            format!("{{\"ev\":\"mshr_merge\",\"space\":{space},\"la\":{la}}}")
        }
        MshrComplete { space, la } => {
            format!("{{\"ev\":\"mshr_complete\",\"space\":{space},\"la\":{la}}}")
        }
        LaunchUnderfill { sm, placed, needed } => format!(
            "{{\"ev\":\"launch_underfill\",\"sm\":{sm},\"placed\":{placed},\"needed\":{needed}}}"
        ),
        OverRetire { retired, blocks } => {
            format!("{{\"ev\":\"over_retire\",\"retired\":{retired},\"blocks\":{blocks}}}")
        }
        MetricsReport {
            read_hits,
            read_misses,
            write_hits,
            write_misses,
            writebacks,
        } => format!(
            "{{\"ev\":\"metrics_report\",\"read_hits\":{read_hits},\"read_misses\":{read_misses},\"write_hits\":{write_hits},\"write_misses\":{write_misses},\"writebacks\":{writebacks}}}"
        ),
        EnergyDeposit { category, nj } => {
            format!("{{\"ev\":\"energy_deposit\",\"category\":{category},\"nj\":{nj}}}")
        }
        EnergyReport {
            by_category,
            total_nj,
        } => {
            let cats: Vec<String> = by_category.iter().map(|v| v.to_string()).collect();
            format!(
                "{{\"ev\":\"energy_report\",\"by_category\":[{}],\"total_nj\":{total_nj}}}",
                cats.join(",")
            )
        }
        PolicySwitch {
            lr_max_hit_age_ns,
            lr_tail_start_ns,
            lr_min_expire_age_ns,
            now_ns,
        } => format!(
            "{{\"ev\":\"policy_switch\",\"lr_max_hit_age_ns\":{lr_max_hit_age_ns},\"lr_tail_start_ns\":{lr_tail_start_ns},\"lr_min_expire_age_ns\":{lr_min_expire_age_ns},\"now_ns\":{now_ns}}}"
        ),
        ResetMeasurement => "{\"ev\":\"reset_measurement\"}".to_string(),
    }
}

/// Streams one JSON object per event to a writer — the debugging sink
/// behind `diag --trace-jsonl`.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    out: W,
    written: u64,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps a writer.
    pub fn new(out: W) -> Self {
        JsonlSink { out, written: 0 }
    }

    /// Events written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Flushes and returns the writer.
    pub fn into_inner(mut self) -> W {
        let _ = self.out.flush();
        self.out
    }
}

impl<W: Write> EventSink for JsonlSink<W> {
    fn emit(&mut self, ev: &TraceEvent) {
        // A dump sink losing a line on a full disk should not abort the
        // simulation; the written() counter exposes the shortfall.
        if writeln!(self.out, "{}", to_json(ev)).is_ok() {
            self.written += 1;
        }
    }
}

/// Retention/refresh bounds the [`Checker`] enforces. All ages are
/// `now_ns - written_at_ns`. The [`Default`] disables every timing check
/// (monolithic LLCs have no retention protocol).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckConfig {
    /// A hit served from LR at age ≥ this (plus slack) is a violation —
    /// the LR retention period.
    pub lr_max_hit_age_ns: u64,
    /// Refreshes must happen at age ≥ this — the start of the configured
    /// tail fraction of the LR retention window.
    pub lr_tail_start_ns: u64,
    /// An LR expiry at age < this is premature — the LR retention period.
    pub lr_min_expire_age_ns: u64,
    /// A hit served from HR at age ≥ this (plus slack) is a violation —
    /// the HR invalidation horizon (last retention-counter tick).
    pub hr_max_hit_age_ns: u64,
    /// An HR expiry at age < this is premature.
    pub hr_min_expire_age_ns: u64,
    /// Timing tolerance for the upper-bound hit checks: probes time-stamp
    /// at interconnect arrival, up to one maintenance interval after the
    /// retention engines last ran.
    pub slack_ns: u64,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            lr_max_hit_age_ns: u64::MAX,
            lr_tail_start_ns: 0,
            lr_min_expire_age_ns: 0,
            hr_max_hit_age_ns: u64::MAX,
            hr_min_expire_age_ns: 0,
            slack_ns: 0,
        }
    }
}

impl CheckConfig {
    /// Adds timing slack (see [`CheckConfig::slack_ns`]).
    pub fn with_slack_ns(mut self, slack_ns: u64) -> Self {
        self.slack_ns = slack_ns;
        self
    }
}

/// Outcome of a checked run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CheckReport {
    /// Events consumed.
    pub events_seen: u64,
    /// Invariant violations detected.
    pub violations: u64,
    /// First few violation descriptions (capped).
    pub samples: Vec<String>,
}

impl CheckReport {
    /// Whether the run was violation-free.
    pub fn is_clean(&self) -> bool {
        self.violations == 0
    }
}

const SAMPLE_CAP: usize = 32;

/// The invariant-checking sink.
///
/// Mirrors residency, swap-buffer occupancy and outstanding misses from
/// the event stream and flags every protocol departure:
///
/// 1. no hit is served from an expired LR (or invalidated HR) line;
/// 2. refreshes happen only inside the configured tail fraction of the
///    retention period;
/// 3. a block is never resident in LR and HR simultaneously;
/// 4. every block admitted to a swap buffer is eventually installed
///    (conservation — overflowed blocks are never admitted);
/// 5. MSHRs never hold duplicate outstanding misses;
/// 6. reported metrics and energy equal the event-derived tallies;
/// 7. ECC outcomes reference resident lines: a correction of (or an
///    uncorrectable drop of, or a dropped refresh for) a line that is not
///    resident is a violation — which also forces the post-drop access to
///    observe a miss.
#[derive(Debug, Clone)]
pub struct Checker {
    cfg: CheckConfig,
    /// Residency per part (LR, HR, MONO).
    resident: [HashSet<u64>; 3],
    /// Outstanding swap-buffer admissions per direction.
    buffers: [Vec<u64>; 2],
    /// Outstanding misses per MSHR space.
    mshr: HashMap<u32, HashSet<u64>>,
    read_hits: u64,
    read_misses: u64,
    write_hits: u64,
    write_misses: u64,
    writebacks: u64,
    energy_nj: [f64; ENERGY_CATEGORIES],
    events_seen: u64,
    violations: u64,
    samples: Vec<String>,
}

impl Checker {
    /// A checker enforcing `cfg`'s retention bounds.
    pub fn new(cfg: CheckConfig) -> Self {
        Checker {
            cfg,
            resident: Default::default(),
            buffers: Default::default(),
            mshr: HashMap::new(),
            read_hits: 0,
            read_misses: 0,
            write_hits: 0,
            write_misses: 0,
            writebacks: 0,
            energy_nj: [0.0; ENERGY_CATEGORIES],
            events_seen: 0,
            violations: 0,
            samples: Vec::new(),
        }
    }

    fn violate(&mut self, msg: String) {
        self.violations += 1;
        if self.samples.len() < SAMPLE_CAP {
            self.samples.push(msg);
        }
    }

    fn other_part(part: PartId) -> Option<PartId> {
        match part {
            PartId::Lr => Some(PartId::Hr),
            PartId::Hr => Some(PartId::Lr),
            PartId::Mono => None,
        }
    }

    fn resident_anywhere(&self, la: u64) -> Option<PartId> {
        [PartId::Lr, PartId::Hr, PartId::Mono]
            .into_iter()
            .find(|&part| self.resident[part.index()].contains(&la))
    }

    fn check_hit_age(&mut self, part: PartId, la: u64, now_ns: u64, written_at_ns: u64) {
        let age = now_ns.saturating_sub(written_at_ns);
        let max = match part {
            PartId::Lr => self.cfg.lr_max_hit_age_ns,
            PartId::Hr => self.cfg.hr_max_hit_age_ns,
            PartId::Mono => u64::MAX,
        };
        if max != u64::MAX && age >= max.saturating_add(self.cfg.slack_ns) {
            self.violate(format!(
                "hit on expired {} line {la:#x}: age {age}ns >= limit {max}ns (+{} slack)",
                part.name(),
                self.cfg.slack_ns
            ));
        }
    }

    fn on_remove(&mut self, part: PartId, la: u64, what: &str) {
        if !self.resident[part.index()].remove(&la) {
            self.violate(format!(
                "{what} of line {la:#x} from {} where it is not resident",
                part.name()
            ));
        }
    }

    fn on_fill(&mut self, part: PartId, la: u64) {
        if let Some(other) = Self::other_part(part) {
            if self.resident[other.index()].contains(&la) {
                self.violate(format!(
                    "line {la:#x} filled into {} while resident in {} (exclusivity)",
                    part.name(),
                    other.name()
                ));
            }
        }
        if !self.resident[part.index()].insert(la) {
            self.violate(format!(
                "duplicate fill of line {la:#x} into {}",
                part.name()
            ));
        }
    }

    /// Finishes a run: with `expect_drained`, outstanding swap-buffer
    /// admissions or MSHR entries become conservation violations (pass
    /// `false` for budget-truncated runs, which legitimately end with
    /// misses in flight).
    pub fn finish_run(&mut self, expect_drained: bool) {
        if !expect_drained {
            return;
        }
        for dir in [BufferDir::HrToLr, BufferDir::LrToHr] {
            let outstanding = std::mem::take(&mut self.buffers[dir.index()]);
            for la in outstanding {
                self.violate(format!(
                    "swap-buffer {} admission of line {la:#x} never installed (conservation)",
                    dir.name()
                ));
            }
        }
        let spaces: Vec<u32> = self.mshr.keys().copied().collect();
        for space in spaces {
            let pending = std::mem::take(self.mshr.get_mut(&space).expect("space listed"));
            for la in pending {
                self.violate(format!(
                    "MSHR space {space} still holds line {la:#x} after a finished run"
                ));
            }
        }
    }

    /// The report accumulated so far.
    pub fn report(&self) -> CheckReport {
        CheckReport {
            events_seen: self.events_seen,
            violations: self.violations,
            samples: self.samples.clone(),
        }
    }
}

impl EventSink for Checker {
    fn emit(&mut self, ev: &TraceEvent) {
        use TraceEvent::*;
        self.events_seen += 1;
        match *ev {
            Hit {
                part,
                la,
                write,
                now_ns,
                written_at_ns,
            } => {
                if !self.resident[part.index()].contains(&la) {
                    self.violate(format!(
                        "hit on line {la:#x} in {} where it is not resident",
                        part.name()
                    ));
                }
                self.check_hit_age(part, la, now_ns, written_at_ns);
                if write {
                    self.write_hits += 1;
                } else {
                    self.read_hits += 1;
                }
            }
            Miss { la, write, .. } => {
                if let Some(part) = self.resident_anywhere(la) {
                    self.violate(format!(
                        "miss on line {la:#x} while resident in {}",
                        part.name()
                    ));
                }
                if write {
                    self.write_misses += 1;
                } else {
                    self.read_misses += 1;
                }
            }
            Fill { part, la, .. } => self.on_fill(part, la),
            Evict {
                part,
                la,
                wrote_back,
                ..
            } => {
                self.on_remove(part, la, "eviction");
                self.writebacks += wrote_back as u64;
            }
            Expire {
                part,
                la,
                written_at_ns,
                wrote_back,
                now_ns,
            } => {
                self.on_remove(part, la, "expiry");
                let age = now_ns.saturating_sub(written_at_ns);
                let min = match part {
                    PartId::Lr => self.cfg.lr_min_expire_age_ns,
                    PartId::Hr => self.cfg.hr_min_expire_age_ns,
                    PartId::Mono => 0,
                };
                if age < min {
                    self.violate(format!(
                        "premature {} expiry of line {la:#x}: age {age}ns < {min}ns",
                        part.name()
                    ));
                }
                self.writebacks += wrote_back as u64;
            }
            Refresh {
                la,
                written_at_ns,
                now_ns,
            } => {
                if !self.resident[PartId::Lr.index()].contains(&la) {
                    self.violate(format!("refresh of non-resident LR line {la:#x}"));
                }
                let age = now_ns.saturating_sub(written_at_ns);
                if age < self.cfg.lr_tail_start_ns {
                    self.violate(format!(
                        "refresh of line {la:#x} before the retention tail: age {age}ns < {}ns",
                        self.cfg.lr_tail_start_ns
                    ));
                }
                if self.cfg.lr_max_hit_age_ns != u64::MAX
                    && age >= self.cfg.lr_max_hit_age_ns.saturating_add(self.cfg.slack_ns)
                {
                    self.violate(format!(
                        "refresh of already-expired line {la:#x}: age {age}ns >= {}ns",
                        self.cfg.lr_max_hit_age_ns
                    ));
                }
            }
            BufferAdmit { dir, la, .. } => self.buffers[dir.index()].push(la),
            BufferInstall { dir, la, .. } => {
                let buf = &mut self.buffers[dir.index()];
                match buf.iter().rposition(|&x| x == la) {
                    Some(i) => {
                        buf.remove(i);
                    }
                    None => self.violate(format!(
                        "swap-buffer {} install of line {la:#x} without admission",
                        dir.name()
                    )),
                }
            }
            BufferOverflow { .. } => {}
            EccCorrected { part, la, .. } => {
                if !self.resident[part.index()].contains(&la) {
                    self.violate(format!(
                        "ECC correction on line {la:#x} in {} where it is not resident",
                        part.name()
                    ));
                }
            }
            EccUncorrectable { part, la, .. } => {
                // An uncorrectable error drops the line; the subsequent
                // access must then observe a miss, which the residency
                // mirror now enforces for free.
                self.on_remove(part, la, "ECC drop");
            }
            RefreshDropped { la, .. } => {
                if !self.resident[PartId::Lr.index()].contains(&la) {
                    self.violate(format!("dropped refresh of non-resident LR line {la:#x}"));
                }
            }
            BufferStall { .. } => {}
            BankFault { .. } => {}
            MshrAlloc { space, la } => {
                if !self.mshr.entry(space).or_default().insert(la) {
                    self.violate(format!(
                        "MSHR space {space} allocated a duplicate outstanding miss on line {la:#x}"
                    ));
                }
            }
            MshrMerge { space, la } => {
                if !self.mshr.entry(space).or_default().contains(&la) {
                    self.violate(format!(
                        "MSHR space {space} merged into a miss on line {la:#x} that is not outstanding"
                    ));
                }
            }
            MshrComplete { space, la } => {
                if !self.mshr.entry(space).or_default().remove(&la) {
                    self.violate(format!(
                        "MSHR space {space} completed a miss on line {la:#x} that is not outstanding"
                    ));
                }
            }
            LaunchUnderfill { sm, placed, needed } => self.violate(format!(
                "SM {sm} placed {placed} warps where occupancy promised {needed}"
            )),
            OverRetire { retired, blocks } => self.violate(format!(
                "grid retired {retired} blocks out of {blocks} launched"
            )),
            MetricsReport {
                read_hits,
                read_misses,
                write_hits,
                write_misses,
                writebacks,
            } => {
                let pairs = [
                    ("read_hits", read_hits, self.read_hits),
                    ("read_misses", read_misses, self.read_misses),
                    ("write_hits", write_hits, self.write_hits),
                    ("write_misses", write_misses, self.write_misses),
                    ("writebacks", writebacks, self.writebacks),
                ];
                for (name, reported, tallied) in pairs {
                    if reported != tallied {
                        self.violate(format!(
                            "metrics conservation: reported {name} = {reported} but events tally {tallied}"
                        ));
                    }
                }
            }
            EnergyDeposit { category, nj } => {
                let c = category as usize;
                if c >= ENERGY_CATEGORIES {
                    self.violate(format!("energy deposit into unknown category {category}"));
                } else {
                    if nj < 0.0 {
                        self.violate(format!("negative energy deposit: {nj} nJ"));
                    }
                    self.energy_nj[c] += nj;
                }
            }
            EnergyReport {
                by_category,
                total_nj,
            } => {
                let mut sum = 0.0;
                let tallies = self.energy_nj;
                for (c, (&reported, &tallied)) in by_category.iter().zip(tallies.iter()).enumerate()
                {
                    sum += reported;
                    // Deposits accumulate in ledger order on both sides, so
                    // agreement is essentially exact; the tolerance absorbs
                    // only representation noise.
                    let tol = 1e-6_f64.max(reported.abs() * 1e-9);
                    if (reported - tallied).abs() > tol {
                        self.violate(format!(
                            "energy conservation: category {c} reports {reported} nJ but deposits sum to {tallied} nJ"
                        ));
                    }
                }
                let tol = 1e-6_f64.max(total_nj.abs() * 1e-9);
                if (total_nj - sum).abs() > tol {
                    self.violate(format!(
                        "energy conservation: total {total_nj} nJ != category sum {sum} nJ"
                    ));
                }
            }
            PolicySwitch {
                lr_max_hit_age_ns,
                lr_tail_start_ns,
                lr_min_expire_age_ns,
                ..
            } => {
                // A retention switch rewrites every resident LR line (the
                // stream shows the array writes as energy deposits), so the
                // stale windows configured at run start must be retired here
                // — otherwise every later tail refresh under a longer
                // retention period would be flagged against the old bounds.
                if lr_tail_start_ns >= lr_max_hit_age_ns {
                    self.violate(format!(
                        "policy switch announces an empty refresh tail: start {lr_tail_start_ns}ns >= retention {lr_max_hit_age_ns}ns"
                    ));
                }
                self.cfg.lr_max_hit_age_ns = lr_max_hit_age_ns;
                self.cfg.lr_tail_start_ns = lr_tail_start_ns;
                self.cfg.lr_min_expire_age_ns = lr_min_expire_age_ns;
            }
            ResetMeasurement => {
                self.read_hits = 0;
                self.read_misses = 0;
                self.write_hits = 0;
                self.write_misses = 0;
                self.writebacks = 0;
                self.energy_nj = [0.0; ENERGY_CATEGORIES];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checked(cfg: CheckConfig, evs: &[TraceEvent]) -> CheckReport {
        let mut c = Checker::new(cfg);
        for ev in evs {
            c.emit(ev);
        }
        c.finish_run(true);
        c.report()
    }

    fn retention_cfg() -> CheckConfig {
        CheckConfig {
            lr_max_hit_age_ns: 1000,
            lr_tail_start_ns: 800,
            lr_min_expire_age_ns: 1000,
            hr_max_hit_age_ns: 4000,
            hr_min_expire_age_ns: 4000,
            slack_ns: 0,
        }
    }

    #[test]
    fn disabled_trace_never_builds_events() {
        let t = Trace::off();
        assert!(!t.is_enabled());
        t.emit(|| panic!("closure must not run on a disabled trace"));
    }

    #[test]
    fn enabled_trace_records() {
        let sink = Rc::new(RefCell::new(VecSink::new()));
        let t = Trace::to_sink(Rc::clone(&sink));
        assert!(t.is_enabled());
        t.emit(|| TraceEvent::ResetMeasurement);
        assert_eq!(sink.borrow().events(), &[TraceEvent::ResetMeasurement]);
    }

    #[test]
    fn clean_fill_hit_evict_stream() {
        let r = checked(
            retention_cfg(),
            &[
                TraceEvent::Miss {
                    la: 7,
                    write: false,
                    now_ns: 10,
                },
                TraceEvent::Fill {
                    part: PartId::Hr,
                    la: 7,
                    now_ns: 20,
                },
                TraceEvent::Hit {
                    part: PartId::Hr,
                    la: 7,
                    write: false,
                    now_ns: 30,
                    written_at_ns: 20,
                },
                TraceEvent::Evict {
                    part: PartId::Hr,
                    la: 7,
                    wrote_back: false,
                    now_ns: 40,
                },
                TraceEvent::MetricsReport {
                    read_hits: 1,
                    read_misses: 1,
                    write_hits: 0,
                    write_misses: 0,
                    writebacks: 0,
                },
            ],
        );
        assert!(r.is_clean(), "{:?}", r.samples);
        assert_eq!(r.events_seen, 5);
    }

    #[test]
    fn expired_lr_hit_is_flagged() {
        let r = checked(
            retention_cfg(),
            &[
                TraceEvent::Fill {
                    part: PartId::Lr,
                    la: 1,
                    now_ns: 0,
                },
                TraceEvent::Hit {
                    part: PartId::Lr,
                    la: 1,
                    write: true,
                    now_ns: 1500,
                    written_at_ns: 0,
                },
            ],
        );
        assert_eq!(r.violations, 1, "{:?}", r.samples);
        assert!(r.samples[0].contains("expired LR"));
    }

    #[test]
    fn early_refresh_is_flagged_and_tail_refresh_is_not() {
        let fill = TraceEvent::Fill {
            part: PartId::Lr,
            la: 2,
            now_ns: 0,
        };
        let early = checked(
            retention_cfg(),
            &[
                fill.clone(),
                TraceEvent::Refresh {
                    la: 2,
                    written_at_ns: 0,
                    now_ns: 100,
                },
            ],
        );
        assert_eq!(early.violations, 1);
        let tail = checked(
            retention_cfg(),
            &[
                fill,
                TraceEvent::Refresh {
                    la: 2,
                    written_at_ns: 0,
                    now_ns: 900,
                },
            ],
        );
        assert!(tail.is_clean(), "{:?}", tail.samples);
    }

    #[test]
    fn dual_residency_is_flagged() {
        let r = checked(
            CheckConfig::default(),
            &[
                TraceEvent::Fill {
                    part: PartId::Hr,
                    la: 3,
                    now_ns: 0,
                },
                TraceEvent::Fill {
                    part: PartId::Lr,
                    la: 3,
                    now_ns: 1,
                },
            ],
        );
        assert_eq!(r.violations, 1);
        assert!(r.samples[0].contains("exclusivity"));
    }

    #[test]
    fn unbalanced_buffer_admission_is_flagged() {
        let r = checked(
            CheckConfig::default(),
            &[TraceEvent::BufferAdmit {
                dir: BufferDir::LrToHr,
                la: 4,
                now_ns: 0,
            }],
        );
        assert_eq!(r.violations, 1);
        assert!(r.samples[0].contains("conservation"));

        let mut c = Checker::new(CheckConfig::default());
        c.emit(&TraceEvent::BufferAdmit {
            dir: BufferDir::LrToHr,
            la: 4,
            now_ns: 0,
        });
        c.finish_run(false); // truncated run: in-flight state is legal
        assert!(c.report().is_clean());
    }

    #[test]
    fn duplicate_mshr_allocation_is_flagged() {
        let r = checked(
            CheckConfig::default(),
            &[
                TraceEvent::MshrAlloc { space: 0, la: 9 },
                TraceEvent::MshrAlloc { space: 0, la: 9 },
                TraceEvent::MshrComplete { space: 0, la: 9 },
            ],
        );
        assert_eq!(r.violations, 1);
        assert!(r.samples[0].contains("duplicate"));
    }

    #[test]
    fn metrics_mismatch_is_flagged() {
        let r = checked(
            CheckConfig::default(),
            &[TraceEvent::MetricsReport {
                read_hits: 1,
                read_misses: 0,
                write_hits: 0,
                write_misses: 0,
                writebacks: 0,
            }],
        );
        assert_eq!(r.violations, 1);
    }

    #[test]
    fn energy_conservation() {
        let mut by_category = [0.0; ENERGY_CATEGORIES];
        by_category[2] = 1.5;
        let clean = checked(
            CheckConfig::default(),
            &[
                TraceEvent::EnergyDeposit {
                    category: 2,
                    nj: 1.0,
                },
                TraceEvent::EnergyDeposit {
                    category: 2,
                    nj: 0.5,
                },
                TraceEvent::EnergyReport {
                    by_category,
                    total_nj: 1.5,
                },
            ],
        );
        assert!(clean.is_clean(), "{:?}", clean.samples);

        let dirty = checked(
            CheckConfig::default(),
            &[TraceEvent::EnergyReport {
                by_category,
                total_nj: 1.5,
            }],
        );
        assert_eq!(dirty.violations, 1);
    }

    #[test]
    fn reset_measurement_clears_tallies_but_keeps_residency() {
        let mut c = Checker::new(CheckConfig::default());
        c.emit(&TraceEvent::Miss {
            la: 5,
            write: false,
            now_ns: 0,
        });
        c.emit(&TraceEvent::Fill {
            part: PartId::Mono,
            la: 5,
            now_ns: 1,
        });
        c.emit(&TraceEvent::ResetMeasurement);
        c.emit(&TraceEvent::Hit {
            part: PartId::Mono,
            la: 5,
            write: false,
            now_ns: 2,
            written_at_ns: 1,
        });
        c.emit(&TraceEvent::MetricsReport {
            read_hits: 1,
            read_misses: 0,
            write_hits: 0,
            write_misses: 0,
            writebacks: 0,
        });
        c.finish_run(true);
        assert!(c.report().is_clean(), "{:?}", c.report().samples);
    }

    #[test]
    fn promoted_debug_asserts_always_violate() {
        let r = checked(
            CheckConfig::default(),
            &[
                TraceEvent::LaunchUnderfill {
                    sm: 1,
                    placed: 3,
                    needed: 4,
                },
                TraceEvent::OverRetire {
                    retired: 9,
                    blocks: 8,
                },
            ],
        );
        assert_eq!(r.violations, 2);
    }

    #[test]
    fn ecc_events_track_residency() {
        // A correction on a resident line is clean; an uncorrectable
        // error drops residency, so the miss + refill that follow are
        // clean too.
        let r = checked(
            retention_cfg(),
            &[
                TraceEvent::Fill {
                    part: PartId::Lr,
                    la: 6,
                    now_ns: 0,
                },
                TraceEvent::EccCorrected {
                    part: PartId::Lr,
                    la: 6,
                    now_ns: 10,
                },
                TraceEvent::EccUncorrectable {
                    part: PartId::Lr,
                    la: 6,
                    data_lost: false,
                    now_ns: 20,
                },
                TraceEvent::Miss {
                    la: 6,
                    write: false,
                    now_ns: 20,
                },
                TraceEvent::Fill {
                    part: PartId::Hr,
                    la: 6,
                    now_ns: 30,
                },
                TraceEvent::MetricsReport {
                    read_hits: 0,
                    read_misses: 1,
                    write_hits: 0,
                    write_misses: 0,
                    writebacks: 0,
                },
            ],
        );
        assert!(r.is_clean(), "{:?}", r.samples);
    }

    #[test]
    fn ecc_events_on_nonresident_lines_are_flagged() {
        let r = checked(
            CheckConfig::default(),
            &[
                TraceEvent::EccCorrected {
                    part: PartId::Hr,
                    la: 1,
                    now_ns: 0,
                },
                TraceEvent::EccUncorrectable {
                    part: PartId::Lr,
                    la: 2,
                    data_lost: true,
                    now_ns: 0,
                },
                TraceEvent::RefreshDropped {
                    la: 3,
                    written_at_ns: 0,
                    now_ns: 5,
                },
            ],
        );
        assert_eq!(r.violations, 3, "{:?}", r.samples);
    }

    #[test]
    fn stall_and_bank_fault_events_are_informational() {
        let r = checked(
            CheckConfig::default(),
            &[
                TraceEvent::BufferStall {
                    dir: BufferDir::HrToLr,
                    la: 4,
                    now_ns: 0,
                },
                TraceEvent::BankFault { la: 4, now_ns: 0 },
            ],
        );
        assert!(r.is_clean(), "{:?}", r.samples);
        assert_eq!(r.events_seen, 2);
    }

    #[test]
    fn fault_events_render_as_json() {
        assert_eq!(
            to_json(&TraceEvent::EccUncorrectable {
                part: PartId::Lr,
                la: 5,
                data_lost: true,
                now_ns: 9,
            }),
            "{\"ev\":\"ecc_uncorrectable\",\"part\":\"LR\",\"la\":5,\"data_lost\":true,\"now_ns\":9}"
        );
        assert_eq!(
            to_json(&TraceEvent::RefreshDropped {
                la: 1,
                written_at_ns: 2,
                now_ns: 3,
            }),
            "{\"ev\":\"refresh_dropped\",\"la\":1,\"written_at_ns\":2,\"now_ns\":3}"
        );
        assert_eq!(
            to_json(&TraceEvent::BankFault { la: 7, now_ns: 8 }),
            "{\"ev\":\"bank_fault\",\"la\":7,\"now_ns\":8}"
        );
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.emit(&TraceEvent::Miss {
            la: 16,
            write: true,
            now_ns: 99,
        });
        sink.emit(&TraceEvent::ResetMeasurement);
        assert_eq!(sink.written(), 2);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"ev\":\"miss\",\"la\":16,\"write\":true,\"now_ns\":99}"
        );
        assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn policy_switch_retires_stale_retention_windows() {
        // After a runtime retention-ladder step the LR period doubles; a
        // tail refresh timed for the *new* window is legal, but a checker
        // still holding the run-start bounds would flag it as refreshing
        // an already-expired line. The PolicySwitch event carries the new
        // windows so the checker follows the reconfiguration.
        let stream = |switched: bool| {
            let mut evs = vec![TraceEvent::Fill {
                part: PartId::Lr,
                la: 1,
                now_ns: 0,
            }];
            if switched {
                evs.push(TraceEvent::PolicySwitch {
                    lr_max_hit_age_ns: 2000,
                    lr_tail_start_ns: 1600,
                    lr_min_expire_age_ns: 2000,
                    now_ns: 500,
                });
            }
            evs.push(TraceEvent::Refresh {
                la: 1,
                written_at_ns: 501,
                now_ns: 2200,
            });
            evs
        };
        let stale = checked(retention_cfg(), &stream(false));
        assert_eq!(stale.violations, 1, "{:?}", stale.samples);
        assert!(stale.samples[0].contains("already-expired"));
        let followed = checked(retention_cfg(), &stream(true));
        assert!(followed.is_clean(), "{:?}", followed.samples);
    }

    #[test]
    fn policy_switch_with_empty_tail_is_flagged() {
        let r = checked(
            retention_cfg(),
            &[TraceEvent::PolicySwitch {
                lr_max_hit_age_ns: 1000,
                lr_tail_start_ns: 1000,
                lr_min_expire_age_ns: 1000,
                now_ns: 0,
            }],
        );
        assert_eq!(r.violations, 1);
        assert!(r.samples[0].contains("empty refresh tail"));
    }

    #[test]
    fn policy_switch_renders_as_json() {
        assert_eq!(
            to_json(&TraceEvent::PolicySwitch {
                lr_max_hit_age_ns: 2000,
                lr_tail_start_ns: 1600,
                lr_min_expire_age_ns: 2000,
                now_ns: 42,
            }),
            "{\"ev\":\"policy_switch\",\"lr_max_hit_age_ns\":2000,\"lr_tail_start_ns\":1600,\"lr_min_expire_age_ns\":2000,\"now_ns\":42}"
        );
    }

    #[test]
    fn sample_cap_bounds_report_size() {
        let mut c = Checker::new(CheckConfig::default());
        for la in 0..100 {
            c.emit(&TraceEvent::Evict {
                part: PartId::Mono,
                la,
                wrote_back: false,
                now_ns: 0,
            });
        }
        let r = c.report();
        assert_eq!(r.violations, 100);
        assert_eq!(r.samples.len(), SAMPLE_CAP);
    }
}
