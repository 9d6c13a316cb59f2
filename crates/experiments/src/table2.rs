//! Table 2: the five GPGPU-Sim configurations, with the area accounting
//! that derives the C2/C3 register files.

use sttgpu_device::array::{ArrayDesign, ArrayGeometry};
use sttgpu_device::cell::MemTechnology;
use sttgpu_device::mtj::RetentionTime;

use crate::configs::{gpu_config, two_part_geometry, L2Choice};
use crate::report;

/// One row of the configuration table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Configuration label.
    pub config: &'static str,
    /// Registers per SM.
    pub registers_per_sm: u32,
    /// L2 organisation description.
    pub(crate) l2_description: String,
    /// Total L2 capacity, KB.
    pub(crate) l2_kb: u64,
    /// L2 silicon area, mm² (data + SRAM tags, CACTI-lite).
    pub(crate) l2_area_mm2: f64,
}

fn l2_area_mm2(choice: L2Choice) -> f64 {
    match choice {
        L2Choice::SramBaseline => ArrayDesign::new(
            ArrayGeometry::new(384 * 1024, 256, 8, 6),
            MemTechnology::Sram,
        )
        .area_mm2(),
        L2Choice::SttBaseline => ArrayDesign::new(
            ArrayGeometry::new(1536 * 1024, 256, 8, 6),
            MemTechnology::stt_for_retention(RetentionTime::from_years(10.0)),
        )
        .area_mm2(),
        _ => {
            let (lr, hr) = two_part_geometry(choice).expect("two-part");
            let lr_design = ArrayDesign::new(
                ArrayGeometry::new(lr * 1024, 256, 2, 2),
                MemTechnology::stt_for_retention(RetentionTime::from_micros(26.5)),
            );
            let hr_design = ArrayDesign::new(
                ArrayGeometry::new(hr * 1024, 256, 7, 6),
                MemTechnology::stt_for_retention(RetentionTime::from_millis(4.0)),
            );
            lr_design.area_mm2() + hr_design.area_mm2()
        }
    }
}

/// Computes all five rows.
pub fn compute() -> Vec<Table2Row> {
    L2Choice::ALL
        .into_iter()
        .map(|choice| {
            let cfg = gpu_config(choice);
            let l2_description = match two_part_geometry(choice) {
                Some((lr, hr)) => format!("{hr}KB 7-way HR + {lr}KB 2-way LR"),
                None => match choice {
                    L2Choice::SramBaseline => "384KB 8-way SRAM".to_owned(),
                    L2Choice::SttBaseline => "1536KB 8-way STT-RAM (10y)".to_owned(),
                    _ => unreachable!(),
                },
            };
            Table2Row {
                config: choice.label(),
                registers_per_sm: cfg.registers_per_sm,
                l2_description,
                l2_kb: cfg.l2.capacity_kb(),
                l2_area_mm2: l2_area_mm2(choice),
            }
        })
        .collect()
}

/// Renders the table plus the baseline GPU model header.
pub fn render() -> String {
    let mut out = String::from(
        "Table 2: GPGPU-Sim configurations (GTX480-like baseline GPU model)\n\
         baseline GPU: 15 SMs, L1D 16KB 4-way 128B lines, shared mem 48KB/SM,\n\
         6 memory controllers, 40nm, L2 line 256B; register files below.\n\n",
    );
    let rows: Vec<Vec<String>> = compute()
        .into_iter()
        .map(|r| {
            vec![
                r.config.to_owned(),
                format!("{}", r.registers_per_sm),
                r.l2_description,
                format!("{}", r.l2_kb),
                format!("{:.2}", r.l2_area_mm2),
            ]
        })
        .collect();
    out.push_str(&report::table(
        &["config", "regs/SM", "L2 organisation", "L2 KB", "L2 mm^2"],
        &rows,
    ));
    out
}

/// Renders Table 2 as CSV.
pub fn to_csv() -> String {
    report::csv(
        &[
            "config",
            "registers_per_sm",
            "l2_organisation",
            "l2_kb",
            "l2_area_mm2",
        ],
        &compute()
            .into_iter()
            .map(|r| {
                vec![
                    r.config.to_owned(),
                    r.registers_per_sm.to_string(),
                    r.l2_description,
                    r.l2_kb.to_string(),
                    format!("{:.3}", r.l2_area_mm2),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_rows() {
        assert_eq!(compute().len(), 5);
    }

    #[test]
    fn stt_configs_fit_the_sram_area_budget() {
        let rows = compute();
        let sram_area = rows[0].l2_area_mm2;
        for r in &rows[1..] {
            assert!(
                r.l2_area_mm2 <= 1.25 * sram_area,
                "{} area {:.2} exceeds budget {:.2}",
                r.config,
                r.l2_area_mm2,
                sram_area
            );
        }
    }

    #[test]
    fn c2_has_the_largest_register_file() {
        let rows = compute();
        let c2 = rows.iter().find(|r| r.config == "C2").expect("C2");
        for r in &rows {
            assert!(c2.registers_per_sm >= r.registers_per_sm);
        }
    }

    #[test]
    fn render_mentions_every_config() {
        let t = render();
        for label in ["baseline", "STT-RAM", "C1", "C2", "C3"] {
            assert!(t.contains(label), "missing {label}");
        }
    }
}
