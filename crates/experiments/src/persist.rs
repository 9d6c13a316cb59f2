//! Persistent result store integration: a binary codec for
//! [`RunOutput`] and a degrading wrapper around [`sttgpu_store::Store`].
//!
//! Three concerns live here:
//!
//! * **One stable key** — [`config_store_key`] hashes a
//!   `(GpuConfig, Workload, RunPlan)` triple, the workload by its full
//!   content, into a content address that is identical across
//!   processes and invocations. The executor memoizes under it in
//!   memory and in the store alike, so a warm store serves every repeat
//!   run without simulating. The [`STORE_GENERATION`] constant is
//!   folded into every key: bumping it when the simulator's output
//!   semantics change silently retires all previously stored entries
//!   (they become unreachable, never wrong).
//! * **A versioned payload codec** — [`encode_run_output`] /
//!   [`decode_run_output`] serialize the full [`RunOutput`] (metrics,
//!   two-part internals, histograms, write matrix, checker report) with
//!   the bounds-checked [`sttgpu_store::codec`] primitives. Decoding
//!   never panics; any mismatch is a typed [`CodecError`].
//! * **Graceful degradation** — [`ResultStore`] wraps the raw store so
//!   callers see only `Option<RunOutput>`: corrupt entries are
//!   quarantined and reported as misses (the runner recomputes), and
//!   the first infrastructure failure (unwritable directory, disk
//!   full, mangled metadata) trips a one-way `degraded` latch that
//!   turns every later call into a cheap no-op — the sweep finishes on
//!   in-memory memoization alone, with a single warning.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use sttgpu_core::TwoPartStats;
use sttgpu_device::energy::{EnergyAccount, EnergyEvent};
use sttgpu_sim::metrics::KernelSpan;
use sttgpu_sim::{GpuConfig, RunMetrics, Workload};
use sttgpu_stats::Histogram;
use sttgpu_store::codec::{CodecError, Dec, Enc};
use sttgpu_store::{Fetch, Key, StableHasher, Store, StoreError};
use sttgpu_trace::CheckReport;

use crate::runner::{RunOutput, RunPlan};

/// Generation stamp folded into every store key. The key already covers
/// everything a run is given (the configuration, the workload's kernels
/// and seed, the plan), so editing a workload or a configuration needs
/// no bump. Bump it by hand only when the simulator itself changes what
/// the same inputs produce: old entries become unreachable (a clean cold
/// start) instead of silently stale. Nothing checks that it was bumped,
/// which is why a store is only ever used when `--store DIR` asks for one.
///
/// Generation 2 dropped the SM-stepping thread count from the key (the
/// simulator steps SMs serially only); its simulated output is unchanged.
pub const STORE_GENERATION: u32 = 2;

/// Version byte of the [`RunOutput`] payload layout itself, checked
/// before any field decode. Independent of the entry-container version
/// (`sttgpu_store::FORMAT_VERSION`) and of [`STORE_GENERATION`]: the
/// container guards bytes, the generation guards semantics, this guards
/// the field layout below.
///
/// Version 2 dropped the HR rewrite-interval histogram; a version-1
/// entry is quarantined and recomputed like any other damaged entry.
const PAYLOAD_VERSION: u8 = 2;

/// Content address of one run, named Table 2 configuration or ad-hoc
/// sweep point alike: the executor's in-memory memo key and the store's
/// key. Neither `GpuConfig` nor `Workload` has a compact identity, so
/// the key hashes each one's full `Debug` rendering: the derive chains
/// print every field (a workload's name, kernels and seed), so any
/// difference changes the key, and a future field addition changes the
/// rendering — which safely *misses* and recomputes rather than
/// serving a result for another configuration or workload. Every
/// [`RunPlan`] field is hashed too.
pub fn config_store_key(cfg: &GpuConfig, workload: &Workload, plan: &RunPlan) -> Key {
    let mut h = StableHasher::new("sttgpu-config-run");
    h.u32(STORE_GENERATION)
        .str(&format!("{cfg:?}"))
        .str(&format!("{workload:?}"))
        .f64_bits(plan.scale)
        .u64(plan.max_cycles)
        .bool(plan.check)
        .f64_bits(plan.fault.rate)
        .u64(plan.fault.seed)
        .str(plan.policy.name());
    h.finish()
}

fn enc_energy(e: &mut Enc, acct: &EnergyAccount) {
    e.f64(acct.leakage_mw());
    for ev in EnergyEvent::ALL {
        e.f64(acct.dynamic_nj_for(ev));
    }
}

fn dec_energy(d: &mut Dec) -> Result<EnergyAccount, CodecError> {
    let mut acct = EnergyAccount::with_leakage_mw(d.f64()?);
    for ev in EnergyEvent::ALL {
        // Depositing onto a zero account is exact (0.0 + x == x), so the
        // rebuilt ledger is bit-identical to the one that was encoded.
        acct.deposit(ev, d.f64()?);
    }
    Ok(acct)
}

fn enc_metrics(e: &mut Enc, m: &RunMetrics) {
    e.str(&m.workload);
    e.u64(m.cycles).u64(m.elapsed_ns).u64(m.instructions);
    e.bool(m.finished).u32(m.kernels_skipped);
    e.u64(m.l2.read_hits)
        .u64(m.l2.read_misses)
        .u64(m.l2.write_hits)
        .u64(m.l2.write_misses)
        .u64(m.l2.writebacks);
    enc_energy(e, &m.l2_energy);
    e.u64(m.l1_read_hits)
        .u64(m.l1_read_misses)
        .u64(m.dram_reads)
        .u64(m.dram_writes)
        .u64(m.dram_row_hits)
        .u64(m.mshr_stalls)
        .u64(m.sm_idle_cycles)
        .f64(m.l2_read_hit_latency_ns);
    e.len(m.kernel_spans.len());
    for span in &m.kernel_spans {
        e.str(&span.name).u64(span.cycles).u64(span.instructions);
    }
}

fn dec_metrics(d: &mut Dec) -> Result<RunMetrics, CodecError> {
    let workload = d.str()?;
    let (cycles, elapsed_ns, instructions) = (d.u64()?, d.u64()?, d.u64()?);
    let (finished, kernels_skipped) = (d.bool()?, d.u32()?);
    let l2 = sttgpu_core::LlcStats {
        read_hits: d.u64()?,
        read_misses: d.u64()?,
        write_hits: d.u64()?,
        write_misses: d.u64()?,
        writebacks: d.u64()?,
    };
    let l2_energy = dec_energy(d)?;
    let l1_read_hits = d.u64()?;
    let l1_read_misses = d.u64()?;
    let dram_reads = d.u64()?;
    let dram_writes = d.u64()?;
    let dram_row_hits = d.u64()?;
    let mshr_stalls = d.u64()?;
    let sm_idle_cycles = d.u64()?;
    let l2_read_hit_latency_ns = d.f64()?;
    let n = d.len()?;
    let mut kernel_spans = Vec::with_capacity(n);
    for _ in 0..n {
        kernel_spans.push(KernelSpan {
            name: d.str()?,
            cycles: d.u64()?,
            instructions: d.u64()?,
        });
    }
    Ok(RunMetrics {
        workload,
        cycles,
        elapsed_ns,
        instructions,
        finished,
        kernels_skipped,
        l2,
        l2_energy,
        l1_read_hits,
        l1_read_misses,
        dram_reads,
        dram_writes,
        dram_row_hits,
        mshr_stalls,
        sm_idle_cycles,
        l2_read_hit_latency_ns,
        kernel_spans,
    })
}

fn enc_two_part(e: &mut Enc, tp: &TwoPartStats) {
    // Field order mirrors the struct declaration; the decoder's struct
    // literal keeps both sides honest (a new field fails to compile).
    e.u64(tp.lr_read_hits)
        .u64(tp.hr_read_hits)
        .u64(tp.lr_write_hits)
        .u64(tp.hr_write_hits)
        .u64(tp.read_misses)
        .u64(tp.write_misses)
        .u64(tp.demand_writes_lr)
        .u64(tp.demand_writes_hr)
        .u64(tp.lr_array_writes)
        .u64(tp.hr_array_writes)
        .u64(tp.migrations_to_lr)
        .u64(tp.demotions_to_hr)
        .u64(tp.refreshes)
        .u64(tp.lr_expirations)
        .u64(tp.hr_expirations)
        .u64(tp.writebacks)
        .u64(tp.overflow_writebacks)
        .u64(tp.second_search_hits)
        .u64(tp.fills_to_lr)
        .u64(tp.fills_to_hr)
        .u64(tp.lr_rotations)
        .u64(tp.ecc_corrections)
        .u64(tp.ecc_uncorrectable)
        .u64(tp.data_loss_events)
        .u64(tp.refresh_drops)
        .u64(tp.buffer_stalls)
        .u64(tp.bank_faults);
}

fn dec_two_part(d: &mut Dec) -> Result<TwoPartStats, CodecError> {
    Ok(TwoPartStats {
        lr_read_hits: d.u64()?,
        hr_read_hits: d.u64()?,
        lr_write_hits: d.u64()?,
        hr_write_hits: d.u64()?,
        read_misses: d.u64()?,
        write_misses: d.u64()?,
        demand_writes_lr: d.u64()?,
        demand_writes_hr: d.u64()?,
        lr_array_writes: d.u64()?,
        hr_array_writes: d.u64()?,
        migrations_to_lr: d.u64()?,
        demotions_to_hr: d.u64()?,
        refreshes: d.u64()?,
        lr_expirations: d.u64()?,
        hr_expirations: d.u64()?,
        writebacks: d.u64()?,
        overflow_writebacks: d.u64()?,
        second_search_hits: d.u64()?,
        fills_to_lr: d.u64()?,
        fills_to_hr: d.u64()?,
        lr_rotations: d.u64()?,
        ecc_corrections: d.u64()?,
        ecc_uncorrectable: d.u64()?,
        data_loss_events: d.u64()?,
        refresh_drops: d.u64()?,
        buffer_stalls: d.u64()?,
        bank_faults: d.u64()?,
    })
}

fn enc_histogram(e: &mut Enc, h: &Histogram) {
    let bounds = h.bounds();
    e.len(bounds.len());
    for b in &bounds {
        e.u64(*b);
    }
    let counts = h.counts();
    e.len(counts.len());
    for c in &counts {
        e.u64(*c);
    }
    e.u64(h.total());
}

fn dec_histogram(d: &mut Dec) -> Result<Histogram, CodecError> {
    let n = d.len()?;
    let mut bounds = Vec::with_capacity(n);
    for _ in 0..n {
        bounds.push(d.u64()?);
    }
    let n = d.len()?;
    let mut counts = Vec::with_capacity(n);
    for _ in 0..n {
        counts.push(d.u64()?);
    }
    let total = d.u64()?;
    Histogram::try_from_parts(bounds, counts, total).ok_or(CodecError {
        offset: 0,
        what: "consistent histogram parts".into(),
    })
}

fn enc_opt<T>(e: &mut Enc, v: Option<&T>, f: impl FnOnce(&mut Enc, &T)) {
    match v {
        Some(v) => {
            e.bool(true);
            f(e, v);
        }
        None => {
            e.bool(false);
        }
    }
}

fn dec_opt<T>(
    d: &mut Dec,
    f: impl FnOnce(&mut Dec) -> Result<T, CodecError>,
) -> Result<Option<T>, CodecError> {
    if d.bool()? {
        Ok(Some(f(d)?))
    } else {
        Ok(None)
    }
}

/// Serializes a [`RunOutput`] into a store payload.
pub fn encode_run_output(out: &RunOutput) -> Vec<u8> {
    let mut e = Enc::new();
    e.u8(PAYLOAD_VERSION);
    enc_metrics(&mut e, &out.metrics);
    enc_opt(&mut e, out.two_part.as_ref(), enc_two_part);
    enc_opt(&mut e, out.lr_rewrite_intervals.as_ref(), enc_histogram);
    e.len(out.write_matrix.len());
    for row in &out.write_matrix {
        e.len(row.len());
        for v in row {
            e.u64(*v);
        }
    }
    enc_opt(&mut e, out.check.as_ref(), |e, c: &CheckReport| {
        e.u64(c.events_seen).u64(c.violations);
        e.len(c.samples.len());
        for s in &c.samples {
            e.str(s);
        }
    });
    e.finish()
}

/// Deserializes a store payload back into a [`RunOutput`]. Never
/// panics: version skew, truncation and inconsistent fields all come
/// back as typed [`CodecError`]s (the caller quarantines and
/// recomputes).
pub fn decode_run_output(bytes: &[u8]) -> Result<RunOutput, CodecError> {
    let mut d = Dec::new(bytes);
    let version = d.u8()?;
    if version != PAYLOAD_VERSION {
        return Err(CodecError {
            offset: 0,
            what: format!("payload version {PAYLOAD_VERSION}, got {version}"),
        });
    }
    let metrics = dec_metrics(&mut d)?;
    let two_part = dec_opt(&mut d, dec_two_part)?;
    let lr_rewrite_intervals = dec_opt(&mut d, dec_histogram)?;
    let rows = d.len()?;
    let mut write_matrix = Vec::with_capacity(rows);
    for _ in 0..rows {
        let n = d.len()?;
        let mut row = Vec::with_capacity(n);
        for _ in 0..n {
            row.push(d.u64()?);
        }
        write_matrix.push(row);
    }
    let check = dec_opt(&mut d, |d| {
        let events_seen = d.u64()?;
        let violations = d.u64()?;
        let n = d.len()?;
        let mut samples = Vec::with_capacity(n);
        for _ in 0..n {
            samples.push(d.str()?);
        }
        Ok(CheckReport {
            events_seen,
            violations,
            samples,
        })
    })?;
    d.expect_end()?;
    Ok(RunOutput {
        metrics,
        two_part,
        lr_rewrite_intervals,
        write_matrix,
        check,
    })
}

/// Counters describing what a [`ResultStore`] actually did, for the
/// bench report and the end-of-run summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreReport {
    /// Entries decoded and served without simulating.
    pub hits: u64,
    /// Lookups that found no entry (the runner simulated and stored).
    pub misses: u64,
    /// Entries rejected as corrupt or version-skewed, quarantined, and
    /// recomputed.
    pub corrupt: u64,
    /// Entries committed to disk.
    pub writes: u64,
    /// Writes skipped because another process holds the writer lock.
    pub skipped_writes: u64,
    /// Whether an infrastructure failure degraded the store to a no-op.
    pub degraded: bool,
    /// Whether the store opened without the writer lock.
    pub read_only: bool,
}

/// A [`Store`] wrapped in the harness's failure policy: corrupt entries
/// quarantine-and-miss, infrastructure errors degrade the whole store
/// to an inert shell, and every path is panic-free. Shared across the
/// executor's worker threads.
#[derive(Debug)]
pub struct ResultStore {
    store: Store,
    degraded: AtomicBool,
    hits: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
    writes: AtomicU64,
    skipped_writes: AtomicU64,
}

impl ResultStore {
    /// Opens (or creates) the store at `root`. A second live process is
    /// not an error — this opener just joins in read-only mode. Real
    /// infrastructure failures (unwritable path, mangled metadata)
    /// surface as a typed [`StoreError`] so the caller can warn and run
    /// without persistence.
    pub fn open(root: &Path) -> Result<ResultStore, StoreError> {
        let store = Store::open(root)?;
        if store.read_only() {
            eprintln!(
                "# store: another process holds the writer lock on {}; \
                 continuing read-only (no new entries will be written)",
                root.display()
            );
        }
        Ok(ResultStore {
            store,
            degraded: AtomicBool::new(false),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            skipped_writes: AtomicU64::new(0),
        })
    }

    /// Whether an infrastructure failure has degraded the store.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Trips the one-way degradation latch, warning exactly once.
    fn degrade(&self, context: &str, err: &StoreError) {
        if !self.degraded.swap(true, Ordering::Relaxed) {
            eprintln!(
                "# store: DEGRADED ({context}: {err}); continuing with \
                 in-memory memoization only — results are unaffected, \
                 they just won't persist"
            );
        }
    }

    /// Looks `key` up, decoding a hit into a [`RunOutput`]. Corrupt or
    /// version-skewed entries are quarantined and reported as a miss so
    /// the caller recomputes; infrastructure errors degrade the store.
    /// Never panics, never blocks a sweep.
    pub fn load(&self, key: &Key) -> Option<RunOutput> {
        if self.is_degraded() {
            return None;
        }
        match self.store.get(key) {
            Ok(Fetch::Hit(payload)) => match decode_run_output(&payload) {
                Ok(out) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    Some(out)
                }
                Err(e) => {
                    // The container checksum passed but the payload did
                    // not decode — a codec version skew. Same policy as
                    // byte corruption: quarantine and recompute.
                    self.corrupt.fetch_add(1, Ordering::Relaxed);
                    eprintln!(
                        "# store: entry {} undecodable ({e}); quarantined, recomputing",
                        key.hex()
                    );
                    self.store.quarantine_entry(key);
                    None
                }
            },
            Ok(Fetch::Corrupt(e)) => {
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "# store: entry {} corrupt ({e}); quarantined, recomputing",
                    key.hex()
                );
                None
            }
            Ok(Fetch::Miss) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            Err(e) => {
                self.degrade("read failed", &e);
                None
            }
        }
    }

    /// Persists `out` under `key`. Write failures degrade the store;
    /// they never fail the run that produced the result.
    pub fn save(&self, key: &Key, out: &RunOutput) {
        if self.is_degraded() {
            return;
        }
        match self.store.put(key, &encode_run_output(out)) {
            Ok(true) => {
                self.writes.fetch_add(1, Ordering::Relaxed);
            }
            Ok(false) => {
                self.skipped_writes.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => self.degrade("write failed", &e),
        }
    }

    /// Snapshot of the hit/miss/corruption counters.
    pub fn report(&self) -> StoreReport {
        StoreReport {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            skipped_writes: self.skipped_writes.load(Ordering::Relaxed),
            degraded: self.is_degraded(),
            read_only: self.store.read_only(),
        }
    }

    /// Entries sitting in the quarantine directory.
    pub fn quarantined_count(&self) -> usize {
        self.store.quarantined_count()
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        self.store.root()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs::{gpu_config, L2Choice};
    use crate::runner::{run, FaultSpec};
    use sttgpu_workloads::suite;

    fn tiny_plan() -> RunPlan {
        RunPlan {
            scale: 0.05,
            max_cycles: 2_000_000,
            check: false,
            fault: FaultSpec::NONE,
            policy: sttgpu_core::LlcPolicy::Fixed,
        }
    }

    fn key(choice: L2Choice, workload: &str, plan: &RunPlan) -> Key {
        let workload = suite::by_name(workload).expect("suite workload");
        config_store_key(&gpu_config(choice), &workload, plan)
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sttgpu-persist-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn assert_outputs_equal(a: &RunOutput, b: &RunOutput) {
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.two_part, b.two_part);
        assert_eq!(a.lr_rewrite_intervals, b.lr_rewrite_intervals);
        assert_eq!(a.write_matrix, b.write_matrix);
        match (&a.check, &b.check) {
            (None, None) => {}
            (Some(x), Some(y)) => {
                assert_eq!(x.events_seen, y.events_seen);
                assert_eq!(x.violations, y.violations);
                assert_eq!(x.samples, y.samples);
            }
            _ => panic!("check presence differs"),
        }
    }

    #[test]
    fn two_part_checked_run_round_trips_exactly() {
        // A two-part run with the checker on exercises every optional
        // branch of the codec: stats, both histograms, a check report.
        let w = suite::by_name("nw").expect("nw");
        let out = run(L2Choice::TwoPartC1, &w, &tiny_plan().with_check(true));
        assert!(out.two_part.is_some() && out.check.is_some());
        let bytes = encode_run_output(&out);
        let back = decode_run_output(&bytes).expect("round trip");
        assert_outputs_equal(&out, &back);
        // The rebuilt energy ledger must be bit-exact, not just close.
        assert_eq!(
            out.metrics.l2_energy.dynamic_nj().to_bits(),
            back.metrics.l2_energy.dynamic_nj().to_bits()
        );
    }

    #[test]
    fn baseline_run_round_trips_with_absent_options() {
        let w = suite::by_name("lud").expect("lud");
        let out = run(L2Choice::SramBaseline, &w, &tiny_plan());
        assert!(out.two_part.is_none() && out.check.is_none());
        let back = decode_run_output(&encode_run_output(&out)).expect("round trip");
        assert_outputs_equal(&out, &back);
    }

    #[test]
    fn every_payload_truncation_is_typed() {
        let w = suite::by_name("lud").expect("lud");
        let out = run(L2Choice::SramBaseline, &w, &tiny_plan());
        let full = encode_run_output(&out);
        for cut in 0..full.len() {
            assert!(
                decode_run_output(&full[..cut]).is_err(),
                "truncation to {cut}/{} bytes went undetected",
                full.len()
            );
        }
    }

    #[test]
    fn wrong_payload_version_is_typed() {
        let w = suite::by_name("lud").expect("lud");
        let mut bytes = encode_run_output(&run(L2Choice::SramBaseline, &w, &tiny_plan()));
        bytes[0] = PAYLOAD_VERSION + 1;
        let err = decode_run_output(&bytes).expect_err("version skew");
        assert!(err.what.contains("payload version"), "{err}");
    }

    #[test]
    fn store_keys_separate_every_dimension() {
        let plan = tiny_plan();
        let base = key(L2Choice::TwoPartC1, "lud", &plan);
        assert_eq!(base, key(L2Choice::TwoPartC1, "lud", &plan));
        let mut slower_icnt = gpu_config(L2Choice::TwoPartC1);
        slower_icnt.icnt_latency_ns += 1;
        let lud = suite::by_name("lud").expect("lud");
        let reseeded = Workload {
            seed: lud.seed + 1,
            ..lud.clone()
        };
        let variants = [
            key(L2Choice::TwoPartC2, "lud", &plan),
            key(L2Choice::TwoPartC1, "nw", &plan),
            key(L2Choice::TwoPartC1, "lud", &plan.with_scale(0.06)),
            key(
                L2Choice::TwoPartC1,
                "lud",
                &RunPlan {
                    max_cycles: plan.max_cycles + 1,
                    ..plan
                },
            ),
            key(L2Choice::TwoPartC1, "lud", &plan.with_check(true)),
            key(L2Choice::TwoPartC1, "lud", &plan.with_faults(1e-4, 3)),
            key(L2Choice::TwoPartC1, "lud", &plan.with_faults(1e-4, 4)),
            key(
                L2Choice::TwoPartC1,
                "lud",
                &plan.with_policy(sttgpu_core::LlcPolicy::AdaptiveWays),
            ),
            config_store_key(&slower_icnt, &lud, &plan),
            config_store_key(&gpu_config(L2Choice::TwoPartC1), &reseeded, &plan),
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(base, *v, "variant {i} collided with the base key");
        }
    }

    #[test]
    fn config_keys_track_the_configuration() {
        let plan = tiny_plan();
        let a = key(L2Choice::TwoPartC1, "lud", &plan);
        let b = key(L2Choice::TwoPartC2, "lud", &plan);
        assert_ne!(a, b);
        // A named configuration and the same configuration built by hand
        // share one key, so sweep points equal to C1 reuse its run.
        let mut by_hand = gpu_config(L2Choice::SramBaseline);
        by_hand.l2 = sttgpu_sim::L2ModelConfig::TwoPart(
            crate::configs::two_part_config(L2Choice::TwoPartC1).expect("C1 is two-part"),
        );
        let lud = suite::by_name("lud").expect("lud");
        assert_eq!(config_store_key(&by_hand, &lud, &plan), a);
    }

    #[test]
    fn result_store_round_trips_and_counts() {
        let dir = temp_dir("roundtrip");
        let store = ResultStore::open(&dir).expect("open");
        let w = suite::by_name("lud").expect("lud");
        let plan = tiny_plan();
        let key = key(L2Choice::SramBaseline, "lud", &plan);
        assert!(store.load(&key).is_none(), "cold store must miss");
        let out = run(L2Choice::SramBaseline, &w, &plan);
        store.save(&key, &out);
        let back = store.load(&key).expect("warm store must hit");
        assert_outputs_equal(&out, &back);
        let r = store.report();
        assert_eq!((r.hits, r.misses, r.writes, r.corrupt), (1, 1, 1, 0));
        assert!(!r.degraded && !r.read_only);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unopenable_root_is_a_typed_error_not_a_panic() {
        let dir = temp_dir("notadir");
        std::fs::create_dir_all(dir.parent().unwrap()).ok();
        std::fs::write(&dir, b"i am a file").unwrap();
        assert!(ResultStore::open(&dir).is_err());
        std::fs::remove_file(&dir).ok();
    }

    #[test]
    fn corrupt_entry_degrades_to_recompute_not_panic() {
        let dir = temp_dir("corrupt");
        let store = ResultStore::open(&dir).expect("open");
        let w = suite::by_name("lud").expect("lud");
        let plan = tiny_plan();
        let key = key(L2Choice::SramBaseline, "lud", &plan);
        store.save(&key, &run(L2Choice::SramBaseline, &w, &plan));
        // Flip one payload byte on disk, past the header.
        let path = dir.join("objects").join(format!("{}.ent", key.hex()));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(store.load(&key).is_none(), "corrupt entry must miss");
        let r = store.report();
        assert_eq!(r.corrupt, 1);
        assert!(!r.degraded, "corruption must not degrade the store");
        assert_eq!(store.quarantined_count(), 1);
        // The slot is free again: a recomputed result stores cleanly.
        store.save(&key, &run(L2Choice::SramBaseline, &w, &plan));
        assert!(store.load(&key).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }
}
