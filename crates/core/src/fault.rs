//! Deterministic, seeded fault injection for the two-part STT-RAM LLC.
//!
//! STT-RAM retention is stochastic: a cell with thermal stability Δ keeps
//! its bit for an *exponentially distributed* time with mean τ(Δ) =
//! τ₀·e^Δ, so a real low-retention array sees early flips long before the
//! architected deadline. The simulator's retention machinery treats the
//! deadline as hard; this module supplies the missing tail as an injected,
//! fully replayable fault process:
//!
//! * **early retention flips** at a per-part rate derived from the MTJ
//!   retention target (λ = rate·line_bits/τ), answered by the LLC's
//!   per-line SECDED model (single-bit flips corrected, multi-bit flips
//!   uncorrectable);
//! * **dropped refreshes** — the refresh engine skips a due line;
//! * **swap-buffer stalls** — a transfer slot is transiently unavailable;
//! * **transient bank faults** — a tag probe must be retried once.
//!
//! Every decision is a *stateless keyed draw*: the outcome is a pure
//! function of `(plan seed, site, line address, timestamp)`, so a replay
//! of the same simulation sees the same faults regardless of execution
//! order, thread count or how many other lines were probed in between —
//! the property the experiment runner's memoization and the differential
//! tests rely on. With every rate at zero [`FaultPlan::enabled`] is
//! `false` and callers short-circuit, making the plan exactly transparent.

use sttgpu_device::mtj::RetentionTime;
use sttgpu_stats::Rng;

use crate::search::Part;

/// What the injected fault process did to one resident line over its
/// current residency epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultOutcome {
    /// No bit flipped; the line reads back clean.
    Clean,
    /// Exactly one bit flipped; SECDED corrects it (energy and latency
    /// are charged by the cache model).
    Corrected,
    /// Two or more bits flipped; SECDED detects but cannot correct.
    Uncorrectable,
}

/// Per-mechanism injection rates plus the stream seed. All rates are
/// probabilities in `[0, 1]`; the default is fully disabled.
///
/// `flip_rate` scales the *physical* early-flip hazard: a rate of `r`
/// means each bit's flip hazard is `r / τ` per nanosecond, i.e. `r` is
/// roughly the expected number of flips a bit suffers per retention
/// period. The other three rates are plain per-opportunity Bernoulli
/// probabilities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed of the replayable fault stream.
    pub seed: u64,
    /// Early retention-flip intensity (expected flips per bit per
    /// retention period).
    pub flip_rate: f64,
    /// Probability that a due refresh is dropped (per refresh attempt).
    pub refresh_drop_rate: f64,
    /// Probability that a swap-buffer reservation stalls (per transfer).
    pub buffer_stall_rate: f64,
    /// Probability of a transient bank fault on a tag probe (per probe).
    pub bank_fault_rate: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::disabled()
    }
}

impl FaultConfig {
    /// The all-zero configuration: injection fully off.
    pub const fn disabled() -> Self {
        FaultConfig {
            seed: 0,
            flip_rate: 0.0,
            refresh_drop_rate: 0.0,
            buffer_stall_rate: 0.0,
            bank_fault_rate: 0.0,
        }
    }

    /// Sets every mechanism to the same rate — the shape the `repro
    /// faults` ablation sweeps.
    pub const fn uniform(seed: u64, rate: f64) -> Self {
        FaultConfig {
            seed,
            flip_rate: rate,
            refresh_drop_rate: rate,
            buffer_stall_rate: rate,
            bank_fault_rate: rate,
        }
    }

    /// Whether any mechanism can fire.
    pub fn is_enabled(&self) -> bool {
        self.flip_rate > 0.0
            || self.refresh_drop_rate > 0.0
            || self.buffer_stall_rate > 0.0
            || self.bank_fault_rate > 0.0
    }
}

// Site discriminators and mixing keys for the stateless draws. The seed
// is expanded through splitmix64 inside `Rng::new`, so XOR-ing the
// multiplied key components is enough to decorrelate nearby sites,
// addresses and timestamps.
const SITE_FLIP: u64 = 0xF11B;
const SITE_FLIP_SEVERITY: u64 = 0xF115;
const SITE_REFRESH_DROP: u64 = 0xD20B;
const SITE_BUFFER_STALL: u64 = 0x57A1;
const SITE_BANK_FAULT: u64 = 0xBA2F;
const K1: u64 = 0x9E37_79B9_7F4A_7C15;
const K2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const K3: u64 = 0x1656_67B1_9E37_79F9;

/// A fully deterministic, replayable fault plan bound to one cache
/// geometry (per-part retention targets and the line size fix the flip
/// hazards).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FaultPlan {
    cfg: FaultConfig,
    /// `cfg.is_enabled()`, computed once: the LLC asks on every probe.
    enabled: bool,
    /// Per-line flip hazard in LR, per nanosecond of residency.
    lr_flip_per_ns: f64,
    /// Per-line flip hazard in HR, per nanosecond of residency.
    hr_flip_per_ns: f64,
}

impl FaultPlan {
    /// Builds the plan for a cache whose LR/HR parts retain data for the
    /// given targets and whose lines are `line_bytes` wide.
    pub(crate) fn new(
        cfg: FaultConfig,
        lr_retention: RetentionTime,
        hr_retention: RetentionTime,
        line_bytes: u32,
    ) -> Self {
        let bits = (line_bytes as f64) * 8.0;
        FaultPlan {
            cfg,
            enabled: cfg.is_enabled(),
            lr_flip_per_ns: cfg.flip_rate * bits / lr_retention.as_nanos(),
            hr_flip_per_ns: cfg.flip_rate * bits / hr_retention.as_nanos(),
        }
    }

    /// Whether any mechanism can fire. When `false`, callers may skip
    /// every hook — the plan is exactly transparent.
    pub(crate) fn enabled(&self) -> bool {
        self.enabled
    }

    /// One stateless uniform draw in `[0, 1)` keyed by `(seed, site, a, b)`.
    #[inline]
    fn draw(&self, site: u64, a: u64, b: u64) -> f64 {
        Rng::new(
            self.cfg
                .seed
                .wrapping_add(site.wrapping_mul(K1))
                .wrapping_add(a.wrapping_mul(K2))
                .wrapping_add(b.wrapping_mul(K3)),
        )
        .f64_unit()
    }

    /// Evaluates the flip process for one resident line at read/scrub
    /// time. The line accumulated hazard `m = λ·age` over its residency
    /// epoch (`age = now - written_at`); flips are Poisson(m), SECDED
    /// corrects exactly one.
    ///
    /// The draw is keyed by `(la, written_at_ns)` — *not* by `now_ns` —
    /// so the outcome is **monotone in age**: a line that faulted stays
    /// faulted on every later look within the same epoch, and a corrected
    /// line can only escalate to uncorrectable, never heal. Writing the
    /// line starts a fresh epoch (new `written_at_ns`, fresh draw), which
    /// is exactly how a physical overwrite resets accumulated flips.
    pub(crate) fn line_outcome(
        &self,
        part: Part,
        la: u64,
        written_at_ns: u64,
        now_ns: u64,
    ) -> FaultOutcome {
        let lambda = match part {
            Part::Lr => self.lr_flip_per_ns,
            Part::Hr => self.hr_flip_per_ns,
        };
        let age = now_ns.saturating_sub(written_at_ns);
        if lambda <= 0.0 || age == 0 {
            return FaultOutcome::Clean;
        }
        let m = lambda * age as f64;
        let p_clean = (-m).exp();
        let u = self.draw(SITE_FLIP, la, written_at_ns);
        if u < p_clean {
            return FaultOutcome::Clean;
        }
        // At least one flip. P(exactly one | at least one) = m·e^-m /
        // (1 - e^-m), which decreases monotonically in m, so with the
        // severity draw also fixed per epoch the outcome only ever
        // escalates as the line ages.
        let p_single = m * p_clean / (1.0 - p_clean);
        let v = self.draw(SITE_FLIP_SEVERITY, la, written_at_ns);
        if v < p_single {
            FaultOutcome::Corrected
        } else {
            FaultOutcome::Uncorrectable
        }
    }

    /// Whether the refresh engine drops the refresh due for `la` now.
    #[inline]
    pub(crate) fn drop_refresh(&self, la: u64, now_ns: u64) -> bool {
        self.cfg.refresh_drop_rate > 0.0
            && self.draw(SITE_REFRESH_DROP, la, now_ns) < self.cfg.refresh_drop_rate
    }

    /// Whether a swap-buffer reservation in direction `dir_index`
    /// (0 = HR→LR, 1 = LR→HR) stalls for `la` now.
    #[inline]
    pub(crate) fn buffer_stall(&self, dir_index: u64, la: u64, now_ns: u64) -> bool {
        self.cfg.buffer_stall_rate > 0.0
            && self.draw(SITE_BUFFER_STALL, la ^ dir_index.rotate_left(32), now_ns)
                < self.cfg.buffer_stall_rate
    }

    /// Whether a tag probe for `la` suffers a transient bank fault now.
    #[inline]
    pub(crate) fn bank_fault(&self, la: u64, now_ns: u64) -> bool {
        self.cfg.bank_fault_rate > 0.0
            && self.draw(SITE_BANK_FAULT, la, now_ns) < self.cfg.bank_fault_rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(rate: f64) -> FaultPlan {
        FaultPlan::new(
            FaultConfig::uniform(0xFA17, rate),
            RetentionTime::from_micros(26.5),
            RetentionTime::from_millis(4.0),
            128,
        )
    }

    #[test]
    fn disabled_plan_never_fires() {
        let p = FaultPlan::new(
            FaultConfig::disabled(),
            RetentionTime::from_micros(26.5),
            RetentionTime::from_millis(4.0),
            128,
        );
        assert!(!p.enabled());
        for la in 0..200 {
            assert_eq!(
                p.line_outcome(Part::Lr, la, 0, u64::MAX),
                FaultOutcome::Clean
            );
            assert!(!p.drop_refresh(la, la * 7));
            assert!(!p.buffer_stall(1, la, la * 7));
            assert!(!p.bank_fault(la, la * 7));
        }
    }

    #[test]
    fn enabled_is_the_config_rule_for_every_mechanism() {
        let one = |set: fn(&mut FaultConfig)| {
            let mut cfg = FaultConfig::disabled();
            set(&mut cfg);
            cfg
        };
        let configs = [
            FaultConfig::disabled(),
            one(|c| c.flip_rate = 1e-6),
            one(|c| c.refresh_drop_rate = 1e-6),
            one(|c| c.buffer_stall_rate = 1e-6),
            one(|c| c.bank_fault_rate = 1e-6),
        ];
        for cfg in configs {
            let p = FaultPlan::new(
                cfg,
                RetentionTime::from_micros(26.5),
                RetentionTime::from_millis(4.0),
                128,
            );
            assert_eq!(p.enabled(), cfg.is_enabled(), "{cfg:?}");
        }
        assert!(configs[1..].iter().all(FaultConfig::is_enabled));
    }

    #[test]
    fn zero_rate_is_disabled_even_with_a_seed() {
        let p = plan(0.0);
        assert!(!p.enabled());
        assert_eq!(
            p.line_outcome(Part::Hr, 9, 10, 1_000_000),
            FaultOutcome::Clean
        );
    }

    #[test]
    fn draws_are_deterministic_and_order_free() {
        let a = plan(1e-3);
        let b = plan(1e-3);
        // Interrogate `a` heavily first; `b` fresh — answers must match.
        for la in 0..500 {
            let _ = a.line_outcome(Part::Lr, la, 3, 40_000);
        }
        for la in (0..500).rev() {
            assert_eq!(
                a.line_outcome(Part::Lr, la, 3, 40_000),
                b.line_outcome(Part::Lr, la, 3, 40_000),
                "la {la}"
            );
            assert_eq!(a.drop_refresh(la, 77), b.drop_refresh(la, 77));
            assert_eq!(a.buffer_stall(0, la, 77), b.buffer_stall(0, la, 77));
            assert_eq!(a.bank_fault(la, 77), b.bank_fault(la, 77));
        }
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let a = FaultPlan::new(
            FaultConfig::uniform(1, 0.5),
            RetentionTime::from_micros(26.5),
            RetentionTime::from_millis(4.0),
            128,
        );
        let b = FaultPlan::new(
            FaultConfig::uniform(2, 0.5),
            RetentionTime::from_micros(26.5),
            RetentionTime::from_millis(4.0),
            128,
        );
        // At age 40 ns the LR hazard gives m ≈ 0.77: a mixed population
        // of clean/faulted lines whose membership is seed-dependent.
        let diverged = (0..256)
            .any(|la| a.line_outcome(Part::Lr, la, 0, 40) != b.line_outcome(Part::Lr, la, 0, 40));
        assert!(diverged);
        let predicates_diverge = (0..256).any(|la| a.drop_refresh(la, 1) != b.drop_refresh(la, 1));
        assert!(predicates_diverge);
    }

    #[test]
    fn outcomes_are_monotone_in_age() {
        // Within one residency epoch a line can only move Clean →
        // Corrected → Uncorrectable as it ages, never backwards.
        let p = plan(0.05);
        fn sev(o: FaultOutcome) -> u8 {
            match o {
                FaultOutcome::Clean => 0,
                FaultOutcome::Corrected => 1,
                FaultOutcome::Uncorrectable => 2,
            }
        }
        for la in 0..300 {
            let mut last = 0u8;
            for age in [1u64, 10, 100, 1_000, 10_000, 100_000, 1_000_000] {
                let s = sev(p.line_outcome(Part::Lr, la, 5, 5 + age));
                assert!(s >= last, "la {la}: outcome healed at age {age}");
                last = s;
            }
        }
    }

    #[test]
    fn flip_probability_tracks_the_poisson_model() {
        // At m = λ·age = ln 2, exactly half the lines should have
        // faulted; check within sampling tolerance.
        let p = plan(1.0);
        let lambda = 1.0 * 128.0 * 8.0 / 26_500.0; // per-ns LR hazard
        let age = (2.0f64.ln() / lambda) as u64;
        let n = 20_000u64;
        let faulted = (0..n)
            .filter(|&la| p.line_outcome(Part::Lr, la, 0, age) != FaultOutcome::Clean)
            .count() as f64;
        let frac = faulted / n as f64;
        assert!((frac - 0.5).abs() < 0.02, "faulted fraction {frac}");
    }

    #[test]
    fn hr_part_faults_less_than_lr() {
        // Same rate, but HR's 4 ms retention dilutes the per-ns hazard
        // ~150× relative to LR's 26.5 µs.
        // Age 100 ns: LR accumulates m ≈ 1.9 while HR sits at m ≈ 0.013.
        let p = plan(0.5);
        let n = 30_000u64;
        let count = |part| {
            (0..n)
                .filter(|&la| p.line_outcome(part, la, 0, 100) != FaultOutcome::Clean)
                .count()
        };
        let lr = count(Part::Lr);
        let hr = count(Part::Hr);
        assert!(
            lr > hr * 10,
            "LR faults ({lr}) should dwarf HR faults ({hr})"
        );
    }

    #[test]
    fn predicate_rates_are_calibrated() {
        let p = plan(0.3);
        let n = 50_000u64;
        let hits = (0..n).filter(|&la| p.drop_refresh(la, 1234)).count() as f64;
        let frac = hits / n as f64;
        assert!((frac - 0.3).abs() < 0.02, "drop fraction {frac}");
    }

    #[test]
    fn uniform_sets_every_mechanism() {
        let c = FaultConfig::uniform(9, 0.25);
        assert_eq!(c.seed, 9);
        assert!(c.is_enabled());
        for r in [
            c.flip_rate,
            c.refresh_drop_rate,
            c.buffer_stall_rate,
            c.bank_fault_rate,
        ] {
            assert_eq!(r, 0.25);
        }
        assert!(!FaultConfig::disabled().is_enabled());
        assert_eq!(FaultConfig::default(), FaultConfig::disabled());
    }
}
