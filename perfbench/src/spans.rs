//! Span recording for the traced run.
//!
//! Every call the benchmark makes into a layer of the repository is
//! wrapped in [`Tracing::span`]. The untraced run passes [`Off`], whose
//! hooks inline away, so end-to-end numbers carry no tracing cost. The
//! traced run passes a [`Recorder`], which keeps each span (name, start,
//! end, parent) in memory until the run ends.
//!
//! The LLC's `probe`/`fill`/`maintain` are called millions of times per
//! repetition, too often to keep one span each. [`Tracing::call`] times
//! them one by one into a per-kind count, total and latency histogram
//! instead, and charges the time to the enclosing span so that span's
//! self time excludes it.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::time::Instant;

/// The LLC calls that are timed individually.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    /// `TwoPartLlc::probe`.
    Probe,
    /// `TwoPartLlc::fill`.
    Fill,
    /// `TwoPartLlc::maintain`.
    Maintain,
}

impl Call {
    /// Every kind, in index order.
    pub const ALL: [Call; 3] = [Call::Probe, Call::Fill, Call::Maintain];

    /// The span name the kind's time is reported under.
    pub fn span_name(self) -> &'static str {
        match self {
            Call::Probe => "core.probe",
            Call::Fill => "core.fill",
            Call::Maintain => "core.maintain",
        }
    }
}

/// Where the measured code reports its layer calls.
pub trait Tracing {
    /// Whether spans are being recorded.
    fn enabled(&self) -> bool;
    /// Runs `f` inside a span named `layer.call`.
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R;
    /// Runs one LLC call, timing it on its own when tracing.
    fn call<R>(&mut self, kind: Call, f: impl FnOnce() -> R) -> R;
    /// Time spent so far inside individually timed calls, ns (0 when off).
    fn calls_ns(&self) -> u64;
    /// Runs one operation, turning a panic into `None` and closing any
    /// span the panic left open.
    fn guard<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> Option<R>;
}

/// The untraced run: every hook compiles to a direct call.
#[derive(Debug, Default)]
pub struct Off;

impl Tracing for Off {
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn span<R>(&mut self, _: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        f(self)
    }

    #[inline(always)]
    fn call<R>(&mut self, _: Call, f: impl FnOnce() -> R) -> R {
        f()
    }

    fn calls_ns(&self) -> u64 {
        0
    }

    fn guard<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> Option<R> {
        panic::catch_unwind(AssertUnwindSafe(|| f(self))).ok()
    }
}

/// One recorded span; times are ns since the recorder's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// `layer.call`.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<u32>,
    /// Time spent in individually timed calls made directly inside.
    pub calls_ns: u64,
}

/// The name [`Recorder::self_ns`] reports individually timed LLC calls
/// under.
pub const CALLS_SPAN: &str = "core.calls";

/// Durations up to this many ns are counted at 1 ns resolution.
const FINE_NS: usize = 4096;

/// Aggregated timings of one call kind.
#[derive(Clone, Debug)]
pub struct CallStats {
    /// Calls timed.
    pub count: u64,
    /// Their summed duration, ns.
    pub total_ns: u64,
    fine: Vec<u64>,
    slow: Vec<u64>,
}

impl Default for CallStats {
    fn default() -> Self {
        CallStats {
            count: 0,
            total_ns: 0,
            fine: vec![0; FINE_NS],
            slow: Vec::new(),
        }
    }
}

impl CallStats {
    fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        match self.fine.get_mut(ns as usize) {
            Some(n) => *n += 1,
            None => self.slow.push(ns),
        }
    }

    /// The `q`-quantile of the recorded durations, ns (0 when empty).
    pub fn quantile_ns(&mut self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (ns, &n) in self.fine.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return ns as u64;
            }
        }
        self.slow.sort_unstable();
        self.slow[(rank - seen - 1) as usize]
    }
}

/// The traced run's in-memory span store.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    calls: [CallStats; 3],
    calls_ns: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            calls: Default::default(),
            calls_ns: 0,
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The aggregated timings of one call kind.
    pub fn calls(&mut self, kind: Call) -> &mut CallStats {
        &mut self.calls[kind as usize]
    }

    /// Self time per span name over the spans `range` indexes (a whole
    /// root span and everything recorded under it), ns: each span's
    /// duration minus its child spans and the individually timed calls
    /// inside it. The timed calls are reported under [`CALLS_SPAN`].
    pub fn self_ns(&self, range: Range<usize>) -> BTreeMap<&'static str, u64> {
        let spans = &self.spans[range.clone()];
        let mut children = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                children[p as usize - range.start] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in spans.iter().zip(children) {
            let own = (s.end_ns - s.start_ns)
                .saturating_sub(child)
                .saturating_sub(s.calls_ns);
            *out.entry(s.name).or_insert(0) += own;
            if s.calls_ns > 0 {
                *out.entry(CALLS_SPAN).or_insert(0) += s.calls_ns;
            }
        }
        out
    }

    /// Writes every span as one tab-separated line
    /// (`id parent name start_ns end_ns calls_ns`, parent `-` for a root),
    /// then one `# call` line per timed call kind.
    pub fn write_tsv(&self, w: &mut impl Write) -> io::Result<()> {
        writeln!(w, "# id\tparent\tname\tstart_ns\tend_ns\tcalls_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, s.calls_ns
            )?;
        }
        for kind in Call::ALL {
            let c = &self.calls[kind as usize];
            writeln!(
                w,
                "# call\t{}\tcount={}\ttotal_ns={}",
                kind.span_name(),
                c.count,
                c.total_ns
            )?;
        }
        Ok(())
    }
}

impl Tracing for Recorder {
    fn enabled(&self) -> bool {
        true
    }

    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            calls_ns: 0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx as usize].end_ns = self.now_ns();
        out
    }

    fn call<R>(&mut self, kind: Call, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos() as u64;
        self.calls[kind as usize].record(ns);
        self.calls_ns += ns;
        if let Some(&open) = self.open.last() {
            self.spans[open as usize].calls_ns += ns;
        }
        out
    }

    fn calls_ns(&self) -> u64 {
        self.calls_ns
    }

    fn guard<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> Option<R> {
        let depth = self.open.len();
        let out = panic::catch_unwind(AssertUnwindSafe(|| f(self))).ok();
        let now = self.now_ns();
        while self.open.len() > depth {
            let idx = self.open.pop().expect("length checked");
            self.spans[idx as usize].end_ns = now;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::sleep;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children_and_calls() {
        let mut r = Recorder::default();
        r.span("bench.rep", |r| {
            r.span("sim.run_workload", |_| sleep(Duration::from_millis(2)));
            r.call(Call::Probe, || sleep(Duration::from_millis(1)));
        });
        r.span("bench.rep", |r| r.span("sim.run_workload", |_| ()));
        let self_ns = r.self_ns(0..2);
        let rep = r.spans()[0];
        let total: u64 = self_ns.values().sum();
        // Each timed call is measured by its own clock, so the partition
        // is exact only up to the clock reads around it.
        assert!(total.abs_diff(rep.end_ns - rep.start_ns) < 100_000);
        assert!(self_ns["sim.run_workload"] >= 2_000_000);
        assert!(self_ns[CALLS_SPAN] >= 1_000_000);
        assert_eq!(r.calls(Call::Probe).count, 1);
        assert!(r.self_ns(2..4)["sim.run_workload"] < 1_000_000);
        assert!(self_ns["bench.rep"] < 1_000_000);
    }

    #[test]
    fn guard_closes_spans_a_panic_left_open() {
        let mut r = Recorder::default();
        let hook = panic::take_hook();
        panic::set_hook(Box::new(|_| {}));
        let out = r.guard(|r| r.span("bench.op", |_| -> u32 { panic!("boom") }));
        panic::set_hook(hook);
        assert!(out.is_none());
        assert!(r.open.is_empty());
        assert_eq!(r.span("bench.next", |_| 7), 7);
        assert_eq!(r.spans()[1].parent, None);
    }

    #[test]
    fn quantiles_cover_fine_and_slow_durations() {
        let mut c = CallStats::default();
        for ns in 1..=98 {
            c.record(ns);
        }
        c.record(10_000);
        c.record(20_000);
        assert_eq!(c.quantile_ns(0.5), 50);
        assert_eq!(c.quantile_ns(0.99), 10_000);
        assert_eq!(c.quantile_ns(1.0), 20_000);
        assert_eq!(CallStats::default().quantile_ns(0.5), 0);
    }
}
