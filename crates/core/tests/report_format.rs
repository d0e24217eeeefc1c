//! Integration coverage for the `gpufreq_core::report` formatting
//! helpers: column alignment (including non-ASCII cells), NaN and
//! empty-row rendering, and the divergent escaping rules of CSV
//! (RFC 4180 quoting) vs Markdown (pipe/newline escaping).

use gpufreq_core::{ascii_table, csv_field, markdown_escape, markdown_table};

#[test]
fn ascii_table_aligns_non_ascii_cells_by_chars_not_bytes() {
    let t = ascii_table(
        &["metric", "tier"],
        &[
            vec!["§4.4, Fig. 6 — RMSE ≥ 5%".to_string(), "pass".to_string()],
            vec!["plain ascii".to_string(), "FAIL".to_string()],
        ],
    );
    // Every rendered line has the same display width (char count),
    // even though the first row is longer in bytes than in chars.
    let widths: Vec<usize> = t.lines().map(|l| l.chars().count()).collect();
    assert!(
        widths.windows(2).all(|w| w[0] == w[1]),
        "misaligned output:\n{t}"
    );
}

#[test]
fn ascii_table_with_no_rows_renders_header_only() {
    let t = ascii_table(&["a", "bb"], &[]);
    let lines: Vec<&str> = t.lines().collect();
    // Border, header, border — and nothing else.
    assert_eq!(lines.len(), 3);
    assert_eq!(lines[0], lines[2]);
    assert!(lines[1].contains("| a "));
    assert!(lines[1].contains("| bb "));
}

#[test]
fn nan_cells_render_literally_and_right_align_as_numeric() {
    // `"NaN".parse::<f64>()` succeeds in Rust, so a NaN cell keeps the
    // column numeric (right-aligned) rather than flipping it to text.
    let t = ascii_table(
        &["name", "value"],
        &[
            vec!["a".to_string(), format!("{}", f64::NAN)],
            vec!["b".to_string(), "123.5".to_string()],
        ],
    );
    assert!(t.contains("|   NaN |"), "{t}");
    assert!(t.contains("| 123.5 |"), "{t}");
}

#[test]
fn markdown_table_escapes_pipes_and_newlines() {
    let t = markdown_table(
        &["metric", "note"],
        &[vec!["D(P*, P′)".to_string(), "a|b\nc".to_string()]],
    );
    assert!(t.contains("a\\|b<br>c"), "{t}");
    // Cell content never introduces extra columns: every line has the
    // same number of unescaped pipes.
    for line in t.lines() {
        let unescaped = line.replace("\\|", "").matches('|').count();
        assert_eq!(unescaped, 3, "wrong column count in {line:?}");
    }
}

#[test]
fn markdown_table_right_aligns_numeric_columns_and_handles_empty_rows() {
    let t = markdown_table(
        &["name", "value"],
        &[vec!["a".to_string(), "1.5".to_string()]],
    );
    let separator = t.lines().nth(1).unwrap();
    assert_eq!(separator, "| --- | ---: |");
    // No rows: header + separator only, with plain (non-numeric)
    // alignment markers.
    let empty = markdown_table(&["name", "value"], &[]);
    assert_eq!(empty, "| name | value |\n| --- | --- |\n");
}

#[test]
#[should_panic(expected = "ragged table rows")]
fn markdown_table_rejects_ragged_rows() {
    markdown_table(&["a", "b"], &[vec!["x".to_string()]]);
}

#[test]
fn markdown_escape_is_a_no_op_on_clean_text() {
    assert_eq!(markdown_escape("plain, text; §4.5"), "plain, text; §4.5");
}

#[test]
fn csv_field_quotes_exactly_when_needed() {
    // Untouched: no separator, quote, or line break.
    assert_eq!(csv_field("PerlinNoise"), "PerlinNoise");
    assert_eq!(csv_field("§4.5 Fig. 8"), "§4.5 Fig. 8");
    // Comma, quote, and newlines force RFC 4180 quoting.
    assert_eq!(csv_field("a,b"), "\"a,b\"");
    assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
    assert_eq!(csv_field("two\nlines"), "\"two\nlines\"");
    assert_eq!(csv_field("cr\rhere"), "\"cr\rhere\"");
    // A quoted field with an embedded quote round-trips: unquote +
    // un-double yields the original.
    let quoted = csv_field("say \"hi\", twice");
    let inner = &quoted[1..quoted.len() - 1];
    assert_eq!(inner.replace("\"\"", "\""), "say \"hi\", twice");
}

#[test]
fn markdown_and_csv_disagree_exactly_where_they_should() {
    // The same hostile cell goes through both pipelines: CSV keeps the
    // pipe and quotes the comma; Markdown escapes the pipe and keeps
    // the comma bare.
    let cell = "a|b, c";
    assert_eq!(csv_field(cell), "\"a|b, c\"");
    assert_eq!(markdown_escape(cell), "a\\|b, c");
}
