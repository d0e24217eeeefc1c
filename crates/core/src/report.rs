//! Rendering of experiment output: ASCII and Markdown tables, and the
//! Table 2 CSV.
//!
//! The CLI's `evaluate` command and the `gpufreq report` sections share
//! this formatting, so their tables are consistent and diffable.

use crate::evaluate::Table2Row;
use std::fmt::Write as _;

/// Render a generic ASCII table with a header row.
///
/// Column widths adapt to the content; all columns are left-aligned
/// except those whose every body cell parses as a number, which are
/// right-aligned.
pub fn ascii_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    assert!(rows.iter().all(|r| r.len() == cols), "ragged table rows");
    // Width in chars, not bytes: `format!` pads by char count, so
    // byte-based widths would misalign any non-ASCII cell (§, ≥, —).
    let width = |s: &str| s.chars().count();
    let mut widths: Vec<usize> = header.iter().map(|h| width(h)).collect();
    for row in rows {
        for (j, cell) in row.iter().enumerate() {
            widths[j] = widths[j].max(width(cell));
        }
    }
    let numeric: Vec<bool> = (0..cols)
        .map(|j| !rows.is_empty() && rows.iter().all(|r| r[j].trim().parse::<f64>().is_ok()))
        .collect();
    let mut out = String::new();
    let sep = |out: &mut String| {
        for w in &widths {
            let _ = write!(out, "+{}", "-".repeat(w + 2));
        }
        out.push_str("+\n");
    };
    sep(&mut out);
    for (j, h) in header.iter().enumerate() {
        let _ = write!(out, "| {:<w$} ", h, w = widths[j]);
    }
    out.push_str("|\n");
    sep(&mut out);
    for row in rows {
        for (j, cell) in row.iter().enumerate() {
            if numeric[j] {
                let _ = write!(out, "| {:>w$} ", cell, w = widths[j]);
            } else {
                let _ = write!(out, "| {:<w$} ", cell, w = widths[j]);
            }
        }
        out.push_str("|\n");
    }
    // No body: the border after the header already closes the table; a
    // second one would render as a doubled rule.
    if !rows.is_empty() {
        sep(&mut out);
    }
    out
}

/// Render Table 2 in the paper's layout.
pub fn render_table2(rows: &[Table2Row]) -> String {
    let header = [
        "Benchmark",
        "D(P*,P')",
        "|P'|",
        "|P*|",
        "max speedup (ds, de)",
        "min energy (ds, de)",
    ];
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.benchmark.clone(),
                format!("{:.4}", r.coverage_d),
                r.predicted_points.to_string(),
                r.real_points.to_string(),
                format!(
                    "({:.3}, {:.3})",
                    r.max_speedup_dist.d_speedup, r.max_speedup_dist.d_energy
                ),
                format!(
                    "({:.3}, {:.3})",
                    r.min_energy_dist.d_speedup, r.min_energy_dist.d_energy
                ),
            ]
        })
        .collect();
    ascii_table(&header, &body)
}

/// Serialize Table 2 as CSV — the golden-test representation: fixed
/// six-decimal formatting, one row per benchmark in the given order, so
/// two runs that agree numerically produce byte-identical files.
pub fn table2_csv(rows: &[Table2Row]) -> String {
    let mut out = String::from(
        "benchmark,coverage_d,predicted_points,real_points,\
         max_speedup_ds,max_speedup_de,min_energy_ds,min_energy_de\n",
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{},{:.6},{},{},{:.6},{:.6},{:.6},{:.6}",
            csv_field(&r.benchmark),
            r.coverage_d,
            r.predicted_points,
            r.real_points,
            r.max_speedup_dist.d_speedup,
            r.max_speedup_dist.d_energy,
            r.min_energy_dist.d_speedup,
            r.min_energy_dist.d_energy,
        );
    }
    out
}

/// Escape a cell for use inside a GitHub-flavored Markdown table:
/// `|` would end the cell and a newline would end the row, so both are
/// replaced (`\|` and `<br>`).
pub fn markdown_escape(cell: &str) -> String {
    cell.replace('|', "\\|").replace('\n', "<br>")
}

/// Render a GitHub-flavored Markdown table with a header row.
///
/// Columns whose every body cell parses as a number are right-aligned
/// via the `---:` separator syntax, mirroring [`ascii_table`]. Cells
/// are escaped with [`markdown_escape`]; an empty `rows` slice renders
/// just the header and separator, which GitHub displays as an empty
/// table.
pub fn markdown_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    assert!(rows.iter().all(|r| r.len() == cols), "ragged table rows");
    let numeric: Vec<bool> = (0..cols)
        .map(|j| !rows.is_empty() && rows.iter().all(|r| r[j].trim().parse::<f64>().is_ok()))
        .collect();
    let mut out = String::from("|");
    for h in header {
        let _ = write!(out, " {} |", markdown_escape(h));
    }
    out.push_str("\n|");
    for &n in &numeric {
        out.push_str(if n { " ---: |" } else { " --- |" });
    }
    out.push('\n');
    for row in rows {
        out.push('|');
        for cell in row {
            let _ = write!(out, " {} |", markdown_escape(cell));
        }
        out.push('\n');
    }
    out
}

/// Quote a CSV field per RFC 4180 when it needs it: a field containing
/// a comma, a double quote, or a line break is wrapped in double quotes
/// with embedded quotes doubled; anything else passes through
/// unchanged.
pub fn csv_field(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') || field.contains('\r') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpufreq_pareto::ExtremeDistance;

    #[test]
    fn ascii_table_is_aligned() {
        let t = ascii_table(
            &["name", "value"],
            &[
                vec!["a".to_string(), "1.5".to_string()],
                vec!["long-name".to_string(), "22.25".to_string()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        // Borders + header + 2 rows.
        assert_eq!(lines.len(), 6);
        let widths: Vec<usize> = lines.iter().map(|l| l.len()).collect();
        assert!(
            widths.windows(2).all(|w| w[0] == w[1]),
            "ragged output:\n{t}"
        );
        // Numeric column right-aligned.
        assert!(lines[3].contains("|   1.5 |"));
    }

    #[test]
    #[should_panic(expected = "ragged table rows")]
    fn ragged_rows_panic() {
        ascii_table(&["a", "b"], &[vec!["x".to_string()]]);
    }

    #[test]
    fn table2_renders_all_rows() {
        let rows = vec![Table2Row {
            benchmark: "PerlinNoise".to_string(),
            coverage_d: 0.0059,
            predicted_points: 12,
            real_points: 10,
            max_speedup_dist: ExtremeDistance {
                d_speedup: 0.0,
                d_energy: 0.0,
            },
            min_energy_dist: ExtremeDistance {
                d_speedup: 0.009,
                d_energy: 0.008,
            },
        }];
        let t = render_table2(&rows);
        assert!(t.contains("PerlinNoise"));
        assert!(t.contains("0.0059"));
        assert!(t.contains("(0.009, 0.008)"));
    }
}
