//! The five evaluated GPU configurations (paper Table 2).
//!
//! All five share the baseline GPU model (15 SMs, 16 KB L1D, 48 KB shared
//! memory, 6 MCs, 40 nm) and differ in the L2 and the register file:
//!
//! * **SRAM baseline** — 384 KB 8-way SRAM L2, 32 K registers/SM;
//! * **STT-RAM baseline** — same area spent on a 4×-denser conventional
//!   STT-RAM: 1536 KB 8-way, 10-year retention, 32 K registers/SM;
//! * **C1** — same area on the proposed two-part L2: 1344 KB 7-way HR +
//!   192 KB 2-way LR;
//! * **C2** — a same-*size* (384 KB) two-part L2 (336 KB HR + 48 KB LR);
//!   the area saved relative to the SRAM L2 buys a larger register file;
//! * **C3** — the compromise: double-size L2 (672 KB HR + 96 KB LR) plus
//!   a register file between the baseline's and C2's.
//!
//! The OCR of the paper's Table 2 garbles the C2/C3 register counts, so
//! they are **derived** from the same area arithmetic the paper describes
//! (STT-RAM 4× denser; saved SRAM-equivalent area converted to 32-bit
//! registers spread over 15 SMs) — see `registers_per_sm_with_saved_area`.

use sttgpu_core::TwoPartConfig;
use sttgpu_sim::{GpuConfig, L2ModelConfig};

/// SRAM-equivalent KB of the baseline L2 data array.
pub(crate) const BASELINE_L2_KB: u64 = 384;

/// Baseline registers per SM (32 K 32-bit registers).
pub(crate) const BASELINE_REGISTERS_PER_SM: u32 = 32 * 1024;

/// One of the five evaluated configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum L2Choice {
    /// The SRAM baseline GPU.
    SramBaseline,
    /// The conventional (10-year) STT-RAM baseline with 4x capacity.
    SttBaseline,
    /// C1: two-part L2 at 4x capacity, baseline register file.
    TwoPartC1,
    /// C2: two-part L2 at 1x capacity, enlarged register file.
    TwoPartC2,
    /// C3: two-part L2 at 2x capacity, moderately enlarged register file.
    TwoPartC3,
}

impl L2Choice {
    /// All five configurations in the paper's presentation order.
    pub const ALL: [L2Choice; 5] = [
        L2Choice::SramBaseline,
        L2Choice::SttBaseline,
        L2Choice::TwoPartC1,
        L2Choice::TwoPartC2,
        L2Choice::TwoPartC3,
    ];

    /// Short label used in figure rows.
    pub fn label(self) -> &'static str {
        match self {
            L2Choice::SramBaseline => "baseline",
            L2Choice::SttBaseline => "STT-RAM",
            L2Choice::TwoPartC1 => "C1",
            L2Choice::TwoPartC2 => "C2",
            L2Choice::TwoPartC3 => "C3",
        }
    }

    /// Total L2 STT-RAM capacity of this configuration in KB (0 for the
    /// SRAM baseline).
    pub(crate) fn stt_kb(self) -> u64 {
        match self {
            L2Choice::SramBaseline => 0,
            L2Choice::SttBaseline | L2Choice::TwoPartC1 => 1536,
            L2Choice::TwoPartC2 => 384,
            L2Choice::TwoPartC3 => 768,
        }
    }
}

/// Registers per SM after converting the SRAM area saved by an `stt_kb`
/// STT-RAM L2 (4× denser, so it occupies `stt_kb / 4` SRAM-equivalent KB)
/// into 32-bit registers spread over `sms` SMs, rounded down to a 256-
/// register allocation granule.
pub(crate) fn registers_per_sm_with_saved_area(stt_kb: u64, sms: u64) -> u32 {
    let sram_equiv_kb = stt_kb / 4;
    let saved_kb = BASELINE_L2_KB.saturating_sub(sram_equiv_kb);
    let extra_regs = saved_kb * 1024 / 4 / sms;
    let extra_rounded = (extra_regs / 256 * 256) as u32;
    BASELINE_REGISTERS_PER_SM + extra_rounded
}

/// The two-part geometry of a configuration (LR KB, HR KB).
pub(crate) fn two_part_geometry(choice: L2Choice) -> Option<(u64, u64)> {
    match choice {
        L2Choice::TwoPartC1 => Some((192, 1344)),
        L2Choice::TwoPartC2 => Some((48, 336)),
        L2Choice::TwoPartC3 => Some((96, 672)),
        _ => None,
    }
}

/// The [`TwoPartConfig`] of a two-part configuration.
pub fn two_part_config(choice: L2Choice) -> Option<TwoPartConfig> {
    two_part_geometry(choice).map(|(lr, hr)| TwoPartConfig::new(lr, 2, hr, 7, 256))
}

/// C1's GPU with its two-part L2 replaced by `edit` applied to C1's
/// [`TwoPartConfig`]: the one-knob variants the figure sweeps, the
/// ablations and `explore` run.
pub fn c1_with(edit: impl FnOnce(TwoPartConfig) -> TwoPartConfig) -> GpuConfig {
    let c1 = two_part_config(L2Choice::TwoPartC1).expect("C1 is two-part");
    let mut cfg = gpu_config(L2Choice::TwoPartC1);
    cfg.l2 = L2ModelConfig::TwoPart(edit(c1));
    cfg
}

/// Builds the full GPU configuration for one of the five design points.
///
/// # Example
///
/// ```
/// use sttgpu_experiments::configs::{gpu_config, L2Choice};
///
/// let c2 = gpu_config(L2Choice::TwoPartC2);
/// let base = gpu_config(L2Choice::SramBaseline);
/// assert!(c2.registers_per_sm > base.registers_per_sm);
/// assert_eq!(c2.l2.capacity_kb(), 384);
/// ```
pub fn gpu_config(choice: L2Choice) -> GpuConfig {
    let mut cfg = GpuConfig::gtx480();
    match choice {
        L2Choice::SramBaseline => {
            // gtx480() already is the SRAM baseline.
        }
        L2Choice::SttBaseline => {
            cfg.l2 = L2ModelConfig::SttRam {
                kb: 1536,
                ways: 8,
                banks: 6,
                retention_years: 10.0,
            };
        }
        L2Choice::TwoPartC1 | L2Choice::TwoPartC2 | L2Choice::TwoPartC3 => {
            let tp = two_part_config(choice).expect("two-part choice");
            cfg.l2 = L2ModelConfig::TwoPart(tp);
            if choice != L2Choice::TwoPartC1 {
                cfg.registers_per_sm =
                    registers_per_sm_with_saved_area(choice.stt_kb(), cfg.num_sms as u64);
            }
        }
    }
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_file_derivation() {
        // C2: 384 KB STT occupies 96 KB SRAM-equivalent, saving 288 KB
        // -> 4915 regs/SM -> 4864 after granule rounding.
        assert_eq!(registers_per_sm_with_saved_area(384, 15), 32_768 + 4_864);
        // C3: 768 KB STT -> 192 KB saved -> 3276 -> 3072.
        assert_eq!(registers_per_sm_with_saved_area(768, 15), 32_768 + 3_072);
        // C1/STT baseline: no area saved.
        assert_eq!(registers_per_sm_with_saved_area(1536, 15), 32_768);
    }

    #[test]
    fn capacities_match_table2() {
        assert_eq!(gpu_config(L2Choice::SramBaseline).l2.capacity_kb(), 384);
        assert_eq!(gpu_config(L2Choice::SttBaseline).l2.capacity_kb(), 1536);
        assert_eq!(gpu_config(L2Choice::TwoPartC1).l2.capacity_kb(), 1536);
        assert_eq!(gpu_config(L2Choice::TwoPartC2).l2.capacity_kb(), 384);
        assert_eq!(gpu_config(L2Choice::TwoPartC3).l2.capacity_kb(), 768);
    }

    #[test]
    fn register_files_ordered_base_le_c3_le_c2() {
        let base = gpu_config(L2Choice::SramBaseline).registers_per_sm;
        let c1 = gpu_config(L2Choice::TwoPartC1).registers_per_sm;
        let c2 = gpu_config(L2Choice::TwoPartC2).registers_per_sm;
        let c3 = gpu_config(L2Choice::TwoPartC3).registers_per_sm;
        assert_eq!(base, c1, "C1 spends all area on cache");
        assert!(c3 > base);
        assert!(c2 > c3, "C2 saves more area than C3");
    }

    #[test]
    fn two_part_geometries() {
        assert_eq!(two_part_geometry(L2Choice::TwoPartC1), Some((192, 1344)));
        assert_eq!(two_part_geometry(L2Choice::TwoPartC2), Some((48, 336)));
        assert_eq!(two_part_geometry(L2Choice::TwoPartC3), Some((96, 672)));
        assert_eq!(two_part_geometry(L2Choice::SramBaseline), None);
        // LR is an eighth of HR in every design, and the paper's 7+2 way split.
        for choice in [
            L2Choice::TwoPartC1,
            L2Choice::TwoPartC2,
            L2Choice::TwoPartC3,
        ] {
            let cfg = two_part_config(choice).expect("geometry");
            assert_eq!(cfg.lr_ways, 2);
            assert_eq!(cfg.hr_ways, 7);
            assert_eq!(cfg.hr_kb / cfg.lr_kb, 7);
        }
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::HashSet<_> =
            L2Choice::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), 5);
    }

    #[test]
    fn all_configs_build() {
        for choice in L2Choice::ALL {
            let cfg = gpu_config(choice);
            let _ = cfg.l2.build(cfg.l2_line_bytes);
        }
    }
}
