//! Small text-report helpers shared by the figure runners.

/// Geometric mean of positive samples (the paper's "Gmean" columns);
/// returns 0.0 for empty input and skips non-positive entries.
pub(crate) fn gmean(xs: &[f64]) -> f64 {
    let logs: Vec<f64> = xs.iter().filter(|&&x| x > 0.0).map(|x| x.ln()).collect();
    if logs.is_empty() {
        0.0
    } else {
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    }
}

/// Arithmetic mean; 0.0 for empty input.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Renders an aligned text table: a header row and data rows. Column
/// widths adapt to the longest cell; numeric alignment is the caller's
/// formatting choice.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row width mismatch");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<String>, widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i == 0 {
                line.push_str(&format!("{:<width$}", cell, width = widths[i]));
            } else {
                line.push_str(&format!("  {:>width$}", cell, width = widths[i]));
            }
        }
        line.push('\n');
        line
    };
    out.push_str(&fmt_row(
        headers.iter().map(|s| s.to_string()).collect(),
        &widths,
    ));
    let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row.clone(), &widths));
    }
    out
}

/// Renders rows as CSV (comma-separated, header first). Cells containing
/// commas or quotes are quoted per RFC 4180.
pub fn csv(headers: &[&str], rows: &[Vec<String>]) -> String {
    let escape = |cell: &str| -> String {
        if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
            format!("\"{}\"", cell.replace('"', "\"\""))
        } else {
            cell.to_owned()
        }
    };
    let mut out = String::new();
    out.push_str(
        &headers
            .iter()
            .map(|h| escape(h))
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push('\n');
    for row in rows {
        assert_eq!(row.len(), headers.len(), "row width mismatch");
        out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
        out.push('\n');
    }
    out
}

/// Formats a ratio column like the paper's normalised figures.
pub fn ratio(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gmean_known_values() {
        assert!((gmean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((gmean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(gmean(&[]), 0.0);
    }

    #[test]
    fn gmean_skips_nonpositive() {
        assert!((gmean(&[0.0, 4.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn mean_basics() {
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn table_alignment() {
        let t = table(
            &["name", "value"],
            &[
                vec!["a".into(), "1.0".into()],
                vec!["longer".into(), "2.0".into()],
            ],
        );
        assert!(t.contains("name"));
        assert!(t.contains("longer"));
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4, "header + rule + 2 rows");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        table(&["a", "b"], &[vec!["x".into()]]);
    }

    #[test]
    fn csv_rendering_and_escaping() {
        let t = csv(
            &["name", "value"],
            &[
                vec!["plain".into(), "1.5".into()],
                vec!["with,comma".into(), "say \"hi\"".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines[0], "name,value");
        assert_eq!(lines[1], "plain,1.5");
        assert_eq!(lines[2], "\"with,comma\",\"say \"\"hi\"\"\"");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn csv_rejects_ragged_rows() {
        csv(&["a"], &[vec!["x".into(), "y".into()]]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ratio(1.23456), "1.235");
        assert_eq!(pct(0.163), "16.3%");
    }
}
