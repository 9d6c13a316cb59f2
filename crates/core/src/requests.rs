//! The requests discipline: how every LLC-only harness drives a cache
//! without the simulator's front end, and how a checked run ends.
//!
//! The refresh guarantee holds only if `maintain` runs at least once
//! per retention-counter tick, so a request stream is replayed under one
//! clock: it starts at the epoch ([`RequestClock::EPOCH_NS`]), each
//! request advances it by its gap (at least 1 ns), maintenance sweeps
//! every cadence point the step crossed before the access, and every
//! miss fills at once, dirty iff the access was a write.

use sttgpu_cache::AccessKind;
use sttgpu_device::energy::EnergyEvent;
use sttgpu_trace::{CheckReport, Checker, EventSink, TraceEvent};

use crate::LlcModel;

/// The requests-discipline clock: the current time and the last
/// maintenance point, swept at a fixed cadence.
///
/// # Example
///
/// ```
/// use sttgpu_core::{LlcModel, RequestClock, TwoPartConfig, TwoPartLlc};
///
/// let mut llc = TwoPartLlc::new(TwoPartConfig::new(48, 2, 336, 7, 256));
/// let mut clock = RequestClock::new(llc.maintenance_interval_ns());
/// assert!(!clock.access(&mut llc, 5, 0x40, true), "cold miss");
/// assert!(clock.access(&mut llc, 0, 0x40, false), "filled on the miss");
/// assert_eq!(clock.now_ns(), 1 + 5 + 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestClock {
    now_ns: u64,
    last_maintain_ns: u64,
    cadence_ns: u64,
}

impl RequestClock {
    /// Where the clock starts, ns: one tick past the machines' epoch.
    pub const EPOCH_NS: u64 = 1;

    /// A clock at the epoch that maintains every `cadence_ns`
    /// (`u64::MAX` never maintains).
    pub fn new(cadence_ns: u64) -> Self {
        Self {
            now_ns: Self::EPOCH_NS,
            last_maintain_ns: Self::EPOCH_NS,
            cadence_ns,
        }
    }

    /// The current time, ns.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// Advances the clock by `dt_ns` (at least 1 ns), calling
    /// `maintain` at every cadence point up to the new time, in order;
    /// returns the new time.
    pub fn advance(&mut self, dt_ns: u64, mut maintain: impl FnMut(u64)) -> u64 {
        self.now_ns += dt_ns.max(1);
        while self.now_ns - self.last_maintain_ns >= self.cadence_ns {
            self.last_maintain_ns += self.cadence_ns;
            maintain(self.last_maintain_ns);
        }
        self.now_ns
    }

    /// Replays one request against `llc`: advances by `dt_ns`,
    /// maintaining on the way, probes `line`, and fills it on a miss
    /// (dirty iff `write`). Returns whether the probe hit.
    pub fn access<L: LlcModel + ?Sized>(
        &mut self,
        llc: &mut L,
        dt_ns: u64,
        line: u64,
        write: bool,
    ) -> bool {
        let now = self.advance(dt_ns, |t| llc.maintain(t));
        let byte_addr = line * u64::from(llc.line_bytes());
        let kind = if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let hit = llc.probe(byte_addr, kind, now).hit;
        if !hit {
            llc.fill(byte_addr, write, now);
        }
        hit
    }
}

/// Ends a checked run: feeds `llc`'s own hit/miss and energy ledgers to
/// `checker` as the conservation reports, closes the run (`drained`:
/// whether every request ran to completion) and returns the report.
pub fn close_check<L: LlcModel + ?Sized>(
    checker: &mut Checker,
    llc: &L,
    drained: bool,
) -> CheckReport {
    let s = llc.summary();
    checker.emit(&TraceEvent::MetricsReport {
        read_hits: s.read_hits,
        read_misses: s.read_misses,
        write_hits: s.write_hits,
        write_misses: s.write_misses,
        writebacks: s.writebacks,
    });
    let energy = llc.energy();
    checker.emit(&TraceEvent::EnergyReport {
        by_category: EnergyEvent::ALL.map(|ev| energy.dynamic_nj_for(ev)),
        total_nj: energy.dynamic_nj(),
    });
    checker.finish_run(drained);
    checker.report()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maintenance_points_land_on_the_cadence_grid() {
        let mut clock = RequestClock::new(100);
        let mut points = Vec::new();
        for dt in [50, 49, 1, 250, 0, 99] {
            clock.advance(dt, |t| points.push(t));
        }
        assert_eq!(clock.now_ns(), 1 + 50 + 49 + 1 + 250 + 1 + 99);
        let grid: Vec<u64> = (1..=4).map(|k| RequestClock::EPOCH_NS + k * 100).collect();
        assert_eq!(points, grid);
    }

    #[test]
    fn a_zero_gap_advances_exactly_one_nanosecond() {
        let mut clock = RequestClock::new(u64::MAX);
        assert_eq!(clock.now_ns(), RequestClock::EPOCH_NS);
        assert_eq!(clock.advance(0, |_| panic!("never maintains")), 2);
        assert_eq!(clock.advance(0, |_| panic!("never maintains")), 3);
    }
}
