//! The shared memory system: interconnect, L2 (any [`LlcModel`]) and DRAM.
//!
//! SMs hand read/write requests to [`MemSystem`]; it carries them over a
//! fixed-latency interconnect, probes the L2, merges concurrent misses to
//! the same L2 line, models DRAM bandwidth per memory controller and
//! delivers L1 fill responses back to the SMs as timed events. It also
//! drives the L2's maintenance (refresh/expiry) clock.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use sttgpu_cache::{AccessKind, BankArbiter, Divisor, LineMap};
use sttgpu_core::{AnyLlc, LlcModel};
use sttgpu_trace::{Trace, TraceEvent};
use sttgpu_tracefile::TraceRecord;

use crate::config::GpuConfig;
use crate::icnt::Icnt;

/// A timed memory-system event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    /// DRAM data for an L2 line arrives at the L2.
    DramData { l2_line: u64 },
    /// A fill response reaches an SM's L1.
    L1Fill { sm: u32, byte_addr: u64 },
}

/// An L2 miss in flight to DRAM, with the L1 requests waiting on it.
#[derive(Debug, Clone, Default)]
struct L2Pending {
    dirty: bool,
    waiters: Vec<(u32, u64)>,
}

/// A fill response ready for delivery to an SM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillDelivery {
    /// Destination SM.
    pub sm: u32,
    /// Byte address of the L1 line being filled.
    pub byte_addr: u64,
}

/// Interconnect + L2 + DRAM.
#[derive(Debug)]
pub struct MemSystem {
    llc: AnyLlc,
    trace: Trace,
    dram: BankArbiter,
    /// The controller count: lines interleave across controllers.
    controllers: Divisor,
    events: BinaryHeap<Reverse<(u64, u64, EventKind)>>,
    seq: u64,
    l2_pending: LineMap<L2Pending>,
    icnt: Icnt,
    dram_row_miss_ns: u64,
    dram_row_hit_ns: u64,
    dram_lines_per_row: Divisor,
    /// One open-row slot per memory controller (fixed at construction,
    /// like the row latch in a real DRAM bank): `open_rows[mc]` is the row
    /// currently latched at controller `mc`, or `u64::MAX` when closed.
    open_rows: Box<[u64]>,
    dram_service_ns: u64,
    l2_line_bytes: Divisor,
    next_maintain_ns: u64,
    maintain_interval_ns: u64,
    /// When recording, the verbatim LLC call stream (probes at icnt
    /// arrival, fills at DRAM-data arrival, maintains at cadence
    /// deadlines) in exact issue order — replaying it against a fresh
    /// LLC reproduces the statistics block bit for bit. MSHR-merged
    /// requests never reach the LLC and so never appear.
    call_log: Option<Vec<TraceRecord>>,
    /// DRAM read requests issued (L2 fills).
    pub dram_reads: u64,
    /// DRAM write requests issued (L2 write-backs).
    pub dram_writes: u64,
    /// DRAM read requests that hit their controller's open row.
    pub dram_row_hits: u64,
    /// Sum of L2 service times (ready - arrival) over read hits, ns.
    pub read_hit_latency_sum_ns: u64,
    /// Number of L2 read hits observed.
    pub read_hit_count: u64,
}

impl MemSystem {
    /// Builds the memory system from the GPU configuration.
    pub fn new(cfg: &GpuConfig) -> Self {
        let llc = cfg.l2.build(cfg.l2_line_bytes);
        let maintain_interval_ns = llc.maintenance_interval_ns();
        MemSystem {
            llc,
            trace: Trace::off(),
            dram: BankArbiter::new(cfg.dram.controllers as usize),
            controllers: Divisor::new(cfg.dram.controllers as u64),
            events: BinaryHeap::new(),
            seq: 0,
            l2_pending: LineMap::default(),
            icnt: Icnt::new(cfg.num_sms.max(1), cfg.icnt_latency_ns, cfg.icnt_flit_ns),
            dram_row_miss_ns: cfg.dram.latency_ns,
            dram_row_hit_ns: cfg.dram.row_hit_latency_ns,
            dram_lines_per_row: Divisor::new(
                (cfg.dram.row_bytes / cfg.l2_line_bytes as u64).max(1),
            ),
            open_rows: vec![u64::MAX; cfg.dram.controllers as usize].into_boxed_slice(),
            dram_service_ns: cfg.dram.service_ns,
            l2_line_bytes: Divisor::new(cfg.l2_line_bytes as u64),
            next_maintain_ns: maintain_interval_ns,
            maintain_interval_ns,
            call_log: None,
            dram_reads: 0,
            dram_writes: 0,
            dram_row_hits: 0,
            read_hit_latency_sum_ns: 0,
            read_hit_count: 0,
        }
    }

    /// The L2 under test.
    pub fn llc(&self) -> &AnyLlc {
        &self.llc
    }

    /// Mutable access to the L2 (measurement resets).
    pub fn llc_mut(&mut self) -> &mut AnyLlc {
        &mut self.llc
    }

    /// Attaches a trace sink observing the L2 and the miss tracker
    /// (MSHR space 0).
    pub fn set_trace(&mut self, trace: Trace) {
        self.llc.set_trace(trace.clone());
        self.trace = trace;
    }

    /// Starts recording the verbatim LLC call stream (discarding any
    /// log in progress). Costs one branch per LLC call while active.
    pub fn start_call_log(&mut self) {
        self.call_log = Some(Vec::new());
    }

    /// Stops recording and returns the log, or `None` when recording
    /// was never started.
    pub fn take_call_log(&mut self) -> Option<Vec<TraceRecord>> {
        self.call_log.take()
    }

    fn push_event(&mut self, at_ns: u64, kind: EventKind) {
        self.seq += 1;
        self.events.push(Reverse((at_ns, self.seq, kind)));
    }

    fn l2_line_of(&self, byte_addr: u64) -> u64 {
        self.l2_line_bytes.quotient(byte_addr)
    }

    /// Charges DRAM bandwidth for `count` write-backs.
    fn charge_writebacks(&mut self, count: u32, now_ns: u64) {
        for _ in 0..count {
            self.dram_writes += 1;
            let mc = self.dram.bank_of(self.dram_writes);
            self.dram.reserve(mc, now_ns, self.dram_service_ns);
        }
    }

    /// Starts a DRAM fetch for an L2 line; data arrives after queueing
    /// plus a row-hit or row-miss latency. Lines interleave across
    /// controllers; within a controller, consecutive lines share a row, so
    /// streaming fills hit the open row.
    fn fetch_from_dram(&mut self, l2_line: u64, ready_to_issue_ns: u64) {
        self.dram_reads += 1;
        let (mc_line, mc) = self.controllers.div_rem(l2_line);
        let mc = mc as usize;
        let row = self.dram_lines_per_row.quotient(mc_line);
        let latency = if self.open_rows[mc] == row {
            self.dram_row_hits += 1;
            self.dram_row_hit_ns
        } else {
            self.open_rows[mc] = row;
            self.dram_row_miss_ns
        };
        let start = self
            .dram
            .reserve(mc, ready_to_issue_ns, self.dram_service_ns);
        let data_at = start + latency;
        self.push_event(data_at, EventKind::DramData { l2_line });
    }

    /// An L1 read miss arrives from SM `sm` for the L1 line at
    /// `byte_addr`. Returns nothing; the fill comes back as a
    /// [`FillDelivery`] from [`tick`](Self::tick).
    pub fn read_request(&mut self, sm: u32, byte_addr: u64, now_ns: u64) {
        let arrival = self.icnt.request_arrival(sm, now_ns);
        let l2_line = self.l2_line_of(byte_addr);

        // Merge with an in-flight miss before touching the cache: the data
        // is already on its way.
        if let Some(pending) = self.l2_pending.get_mut(&l2_line) {
            pending.waiters.push((sm, byte_addr));
            self.trace.emit(|| TraceEvent::MshrMerge {
                space: 0,
                la: l2_line,
            });
            return;
        }

        if let Some(log) = &mut self.call_log {
            log.push(TraceRecord::Access {
                at_ns: arrival,
                line: l2_line,
                write: false,
            });
        }
        let out = self.llc.probe(byte_addr, AccessKind::Read, arrival);
        self.charge_writebacks(out.writebacks, arrival);
        if out.hit {
            self.read_hit_latency_sum_ns += out.ready_ns.saturating_sub(arrival);
            self.read_hit_count += 1;
            let deliver_at = self.icnt.response_arrival(sm, out.ready_ns);
            self.push_event(deliver_at, EventKind::L1Fill { sm, byte_addr });
        } else {
            self.l2_pending.insert(
                l2_line,
                L2Pending {
                    dirty: false,
                    waiters: vec![(sm, byte_addr)],
                },
            );
            self.trace.emit(|| TraceEvent::MshrAlloc {
                space: 0,
                la: l2_line,
            });
            self.fetch_from_dram(l2_line, out.ready_ns);
        }
    }

    /// A global write (write-through from SM `sm`'s L1) arrives for
    /// `byte_addr`. Writes complete without a response; misses allocate in
    /// L2 (write-allocate) after a DRAM fetch.
    pub fn write_request(&mut self, sm: u32, byte_addr: u64, now_ns: u64) {
        let arrival = self.icnt.request_arrival(sm, now_ns);
        let l2_line = self.l2_line_of(byte_addr);

        if let Some(pending) = self.l2_pending.get_mut(&l2_line) {
            pending.dirty = true;
            self.trace.emit(|| TraceEvent::MshrMerge {
                space: 0,
                la: l2_line,
            });
            return;
        }

        if let Some(log) = &mut self.call_log {
            log.push(TraceRecord::Access {
                at_ns: arrival,
                line: l2_line,
                write: true,
            });
        }
        let out = self.llc.probe(byte_addr, AccessKind::Write, arrival);
        self.charge_writebacks(out.writebacks, arrival);
        if !out.hit {
            self.l2_pending.insert(
                l2_line,
                L2Pending {
                    dirty: true,
                    waiters: Vec::new(),
                },
            );
            self.trace.emit(|| TraceEvent::MshrAlloc {
                space: 0,
                la: l2_line,
            });
            self.fetch_from_dram(l2_line, out.ready_ns);
        }
    }

    /// Advances the memory system to `now_ns`: runs due maintenance and
    /// events, appending due L1 fill deliveries to `fills`.
    ///
    /// `fills` is cleared first; the caller owns it and reuses it across
    /// ticks so the per-cycle hot loop allocates nothing.
    pub fn tick(&mut self, now_ns: u64, fills: &mut Vec<FillDelivery>) {
        fills.clear();
        // Fast path: nothing due yet — one comparison and out, so the
        // driver can afford to call this every simulated cycle it visits.
        if self.next_wake_ns().is_none_or(|t| t > now_ns) {
            return;
        }
        // L2 refresh/expiry cadence.
        if self.maintain_interval_ns != u64::MAX {
            while self.next_maintain_ns <= now_ns {
                let t = self.next_maintain_ns;
                if let Some(log) = &mut self.call_log {
                    log.push(TraceRecord::Maintain { at_ns: t });
                }
                self.llc.maintain(t);
                self.next_maintain_ns += self.maintain_interval_ns;
            }
        }

        while let Some(&Reverse((t, _, kind))) = self.events.peek() {
            if t > now_ns {
                break;
            }
            self.events.pop();
            match kind {
                EventKind::DramData { l2_line } => {
                    let byte_addr = l2_line * self.l2_line_bytes.get();
                    let pending = match self.l2_pending.remove(&l2_line) {
                        Some(p) => {
                            self.trace.emit(|| TraceEvent::MshrComplete {
                                space: 0,
                                la: l2_line,
                            });
                            p
                        }
                        None => L2Pending::default(),
                    };
                    if let Some(log) = &mut self.call_log {
                        log.push(TraceRecord::Fill {
                            at_ns: t,
                            line: l2_line,
                            dirty: pending.dirty,
                        });
                    }
                    let out = self.llc.fill(byte_addr, pending.dirty, t);
                    self.charge_writebacks(out.writebacks, t);
                    // Fill-and-forward: waiters get data over the icnt.
                    for (sm, l1_addr) in pending.waiters {
                        let deliver_at = self.icnt.response_arrival(sm, t);
                        self.push_event(
                            deliver_at,
                            EventKind::L1Fill {
                                sm,
                                byte_addr: l1_addr,
                            },
                        );
                    }
                }
                EventKind::L1Fill { sm, byte_addr } => {
                    fills.push(FillDelivery { sm, byte_addr });
                }
            }
        }
    }

    /// Whether no memory traffic is in flight.
    pub fn is_idle(&self) -> bool {
        self.events.is_empty() && self.l2_pending.is_empty()
    }

    /// Time of the next scheduled event, if any (lets the driver skip
    /// idle cycles).
    pub fn next_event_ns(&self) -> Option<u64> {
        self.events.peek().map(|Reverse((t, _, _))| *t)
    }

    /// Earliest time at which [`tick`](Self::tick) has any work to do —
    /// the next queued event or the next maintenance deadline, whichever
    /// comes first. Ticks strictly before this time are no-ops, which is
    /// what lets the event-driven driver jump over them.
    pub fn next_wake_ns(&self) -> Option<u64> {
        let maint = (self.maintain_interval_ns != u64::MAX).then_some(self.next_maintain_ns);
        match (self.next_event_ns(), maint) {
            (Some(e), Some(m)) => Some(e.min(m)),
            (e, m) => e.or(m),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{GpuConfig, L2ModelConfig};

    fn mem() -> MemSystem {
        let mut cfg = GpuConfig::gtx480();
        cfg.l2 = L2ModelConfig::Sram {
            kb: 64,
            ways: 8,
            banks: 2,
        };
        MemSystem::new(&cfg)
    }

    /// Drains the system, returning all deliveries with their times.
    fn drain(m: &mut MemSystem, until_ns: u64) -> Vec<(u64, FillDelivery)> {
        let mut out = Vec::new();
        let mut fills = Vec::new();
        let mut t = 0;
        while t <= until_ns {
            m.tick(t, &mut fills);
            for &f in &fills {
                out.push((t, f));
            }
            t += 10;
        }
        out
    }

    #[test]
    fn read_miss_round_trip() {
        let mut m = mem();
        m.read_request(3, 0x1000, 0);
        assert_eq!(m.dram_reads, 1);
        let fills = drain(&mut m, 10_000);
        assert_eq!(fills.len(), 1);
        let (t, f) = fills[0];
        assert_eq!(f.sm, 3);
        assert_eq!(f.byte_addr, 0x1000);
        assert!(t >= 160, "must include DRAM latency, got {t}");
        assert!(m.is_idle());
    }

    #[test]
    fn read_hit_skips_dram() {
        let mut m = mem();
        m.read_request(0, 0x1000, 0);
        drain(&mut m, 10_000);
        let reads_before = m.dram_reads;
        m.read_request(1, 0x1000, 20_000);
        assert_eq!(m.dram_reads, reads_before, "hit must not touch DRAM");
        let fills = drain(&mut m, 40_000);
        assert_eq!(fills.len(), 1);
        // Hit latency is far below the DRAM round trip.
        assert!(fills[0].0 - 20_000 < 100);
    }

    #[test]
    fn concurrent_misses_merge() {
        let mut m = mem();
        m.read_request(0, 0x1000, 0);
        m.read_request(1, 0x1080, 0); // same 256 B L2 line, different L1 line
        assert_eq!(m.dram_reads, 1, "second miss must merge");
        let fills = drain(&mut m, 10_000);
        assert_eq!(fills.len(), 2, "both waiters are served");
    }

    #[test]
    fn write_miss_allocates_dirty() {
        let mut m = mem();
        m.write_request(0, 0x2000, 0);
        assert_eq!(m.dram_reads, 1, "write-allocate fetches the line");
        drain(&mut m, 10_000);
        // The line is now dirty in L2: evicting it later would write back.
        let s = m.llc().summary();
        assert_eq!(s.write_misses, 1);
    }

    #[test]
    fn write_into_pending_line_merges_dirtiness() {
        let mut m = mem();
        m.read_request(0, 0x3000, 0);
        m.write_request(1, 0x3000, 5);
        assert_eq!(m.dram_reads, 1);
        drain(&mut m, 10_000);
        let s = m.llc().summary();
        // The merged write never probed the cache.
        assert_eq!(s.write_misses + s.write_hits, 0);
    }

    #[test]
    fn maintenance_runs_for_two_part_l2() {
        use sttgpu_core::TwoPartConfig;
        let mut cfg = GpuConfig::gtx480();
        cfg.l2 = L2ModelConfig::TwoPart(TwoPartConfig::new(8, 2, 56, 7, 256));
        let mut m = MemSystem::new(&cfg);
        assert!(m.maintain_interval_ns < u64::MAX);
        // Fill a dirty line then run far past HR/LR retention.
        m.write_request(0, 0x100, 0);
        drain(&mut m, 20_000);
        m.tick(10_000_000, &mut Vec::new()); // 10 ms
        let tp = m.llc().as_two_part().expect("two-part L2");
        assert!(
            tp.stats().refreshes > 0 || tp.stats().hr_expirations > 0,
            "maintenance must have acted"
        );
    }

    #[test]
    fn streaming_fills_hit_the_open_row() {
        let mut m = mem();
        // 6 controllers, 2 KB rows, 256 B lines: lines k and k+6 share a
        // controller and (for small k) a row.
        m.read_request(0, 0, 0);
        drain(&mut m, 5_000);
        assert_eq!(m.dram_row_hits, 0, "first touch misses the row");
        m.read_request(0, 6 * 256, 10_000);
        drain(&mut m, 20_000);
        assert_eq!(m.dram_row_hits, 1, "same-row line must hit");
        // A far-away line on the same controller closes the row.
        m.read_request(0, 6 * 256 * 1000, 30_000);
        drain(&mut m, 50_000);
        assert_eq!(m.dram_row_hits, 1);
    }

    #[test]
    fn row_hits_are_faster_than_row_misses() {
        let mut m = mem();
        m.read_request(0, 0, 0);
        let first = drain(&mut m, 5_000);
        let miss_latency = first[0].0;
        m.read_request(0, 6 * 256, 10_000);
        let second = drain(&mut m, 20_000);
        let hit_latency = second[0].0 - 10_000;
        assert!(
            hit_latency + 20 < miss_latency,
            "row hit {hit_latency} must beat row miss {miss_latency}"
        );
    }

    #[test]
    fn controllers_track_open_rows_independently() {
        let mut m = mem();
        // Lines 0 and 1 land on controllers 0 and 1. Opening a row on one
        // controller must not disturb the other's latch.
        m.read_request(0, 0, 0);
        m.read_request(0, 256, 0);
        drain(&mut m, 5_000);
        assert_eq!(m.dram_row_hits, 0);
        // Same rows again: both controllers still hold their rows.
        m.read_request(0, 6 * 256, 10_000);
        m.read_request(0, 7 * 256, 10_000);
        drain(&mut m, 20_000);
        assert_eq!(m.dram_row_hits, 2, "each controller keeps its own row");
    }

    #[test]
    fn reused_fill_buffer_is_cleared_each_tick() {
        let mut m = mem();
        let mut fills = Vec::new();
        m.read_request(0, 0x1000, 0);
        let mut seen = 0;
        for t in (0..10_000).step_by(10) {
            m.tick(t, &mut fills);
            seen += fills.len();
        }
        assert_eq!(seen, 1, "exactly one delivery in total");
        m.tick(20_000, &mut fills);
        assert!(fills.is_empty(), "stale deliveries must not survive");
    }

    #[test]
    fn call_log_captures_the_exact_llc_call_stream() {
        let mut m = mem();
        m.start_call_log();
        m.read_request(0, 0x1000, 0); // miss: probe + later fill
        m.read_request(1, 0x1080, 0); // merges: no LLC call at all
        drain(&mut m, 10_000);
        m.write_request(0, 0x1000, 20_000); // hit: probe only
        drain(&mut m, 30_000);
        let log = m.take_call_log().expect("logging was on");
        let l2_line = 0x1000 / 256;
        assert_eq!(log.len(), 3, "merge must not log: {log:?}");
        assert!(
            matches!(log[0], TraceRecord::Access { line, write: false, .. } if line == l2_line)
        );
        assert!(matches!(log[1], TraceRecord::Fill { line, dirty: false, .. } if line == l2_line));
        assert!(matches!(log[2], TraceRecord::Access { line, write: true, .. } if line == l2_line));
        assert!(m.take_call_log().is_none(), "take stops the recording");
    }

    #[test]
    fn call_log_interleaves_maintains_at_cadence_deadlines() {
        use sttgpu_core::TwoPartConfig;
        let mut cfg = GpuConfig::gtx480();
        cfg.l2 = L2ModelConfig::TwoPart(TwoPartConfig::new(8, 2, 56, 7, 256));
        let mut m = MemSystem::new(&cfg);
        let cadence = m.maintain_interval_ns;
        m.start_call_log();
        m.write_request(0, 0x100, 0);
        drain(&mut m, 20_000);
        let log = m.take_call_log().expect("logging was on");
        let maintains = log
            .iter()
            .filter(|r| matches!(r, TraceRecord::Maintain { .. }))
            .count();
        assert!(maintains > 0, "cadence must appear in the log");
        for r in &log {
            if let TraceRecord::Maintain { at_ns } = r {
                assert_eq!(at_ns % cadence, 0, "maintains land on cadence ticks");
            }
        }
    }

    #[test]
    fn next_event_time_is_exposed() {
        let mut m = mem();
        assert_eq!(m.next_event_ns(), None);
        m.read_request(0, 0x1000, 0);
        assert!(m.next_event_ns().is_some());
    }
}
