//! Rendering of a [`Report`]: the checked-in `REPRODUCTION.md`, the
//! machine-readable `reproduction.json`, and the CI tier-regression
//! check.
//!
//! Everything here formats with fixed precision and stable ordering so
//! two runs that agree numerically produce byte-identical files — the
//! property the golden test and the determinism harness pin.

use super::metrics::{MetricCheck, Tier};
use super::Report;
use gpufreq_core::markdown_table;
use std::fmt::Write as _;

/// File name of the Markdown report.
pub const MARKDOWN_FILE: &str = "REPRODUCTION.md";

/// File name of the JSON report.
pub const JSON_FILE: &str = "reproduction.json";

fn metric_rows(metrics: &[MetricCheck]) -> Vec<Vec<String>> {
    metrics
        .iter()
        .map(|m| {
            vec![
                m.name.clone(),
                m.citation.clone(),
                m.paper.clone(),
                m.reproduced.clone(),
                m.rel_err_display(),
                m.tier.word().to_string(),
            ]
        })
        .collect()
}

const METRIC_HEADER: [&str; 6] = [
    "metric",
    "citation",
    "paper",
    "reproduced",
    "rel. err",
    "tier",
];

/// Render the full report as the `REPRODUCTION.md` Markdown document.
pub fn render_markdown(report: &Report) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# REPRODUCTION — {}", report.paper.title);
    out.push('\n');
    let _ = writeln!(
        out,
        "> {}. **{}.** *{}.* DOI [{}](https://doi.org/{}). Corpus key `{}`.",
        report.paper.authors,
        report.paper.title,
        report.paper.venue,
        report.paper.doi,
        report.paper.doi,
        report.paper.key,
    );
    out.push('\n');
    let _ = writeln!(
        out,
        "Generated by `gpufreq report --{mode}`. **Do not edit by hand** — regenerate with\n\
         `cargo run --release --bin gpufreq -- report --{mode}`, or re-bless the checked-in\n\
         copy with `GPUFREQ_BLESS=1 cargo test -p gpufreq-bench --test report_golden`.",
        mode = report.provenance.mode
    );
    out.push('\n');

    out.push_str("## Provenance\n\n");
    let p = &report.provenance;
    let prov_rows = vec![
        vec!["mode".to_string(), p.mode.clone()],
        vec!["training corpus".to_string(), p.corpus.clone()],
        vec![
            "sampled settings".to_string(),
            format!("{} per micro-benchmark", p.settings),
        ],
        vec!["model config".to_string(), p.model_config.clone()],
        vec![
            "model artifact format".to_string(),
            format!("v{}", p.model_format_version),
        ],
        vec!["device registry".to_string(), p.devices.join(", ")],
        vec!["evaluation workloads".to_string(), p.workloads.to_string()],
        vec!["git revision".to_string(), p.git_revision.clone()],
        vec!["engine".to_string(), p.engine.clone()],
        vec!["scoring".to_string(), p.scoring.clone()],
    ];
    out.push_str(&markdown_table(&["field", "value"], &prov_rows));
    out.push('\n');

    out.push_str("## Scoreboard\n\n");
    let mut score_rows: Vec<Vec<String>> = report
        .summary
        .sections
        .iter()
        .map(|s| {
            vec![
                s.id.clone(),
                s.citation.clone(),
                s.pass.to_string(),
                s.warn.to_string(),
                s.fail.to_string(),
            ]
        })
        .collect();
    score_rows.push(vec![
        "**total**".to_string(),
        String::new(),
        report.summary.pass.to_string(),
        report.summary.warn.to_string(),
        report.summary.fail.to_string(),
    ]);
    out.push_str(&markdown_table(
        &["section", "citation", "pass", "warn", "fail"],
        &score_rows,
    ));
    out.push('\n');

    for section in &report.sections {
        let _ = writeln!(out, "## {}\n", section.title);
        let _ = writeln!(out, "{}\n", section.narrative);
        if !section.metrics.is_empty() {
            out.push_str(&markdown_table(
                &METRIC_HEADER,
                &metric_rows(&section.metrics),
            ));
            out.push('\n');
        }
        for detail in &section.details {
            let _ = writeln!(out, "### {}\n", detail.title);
            let header: Vec<&str> = detail.header.iter().map(|h| h.as_str()).collect();
            out.push_str(&markdown_table(&header, &detail.rows));
            out.push('\n');
        }
    }
    out
}

/// Render the full report as pretty-printed JSON (trailing newline
/// included, so the file diffs cleanly).
pub fn render_json(report: &Report) -> String {
    let mut json = serde_json::to_string_pretty(report).expect("report serializes");
    json.push('\n');
    json
}

/// Parse a report back from [`render_json`] output.
pub fn parse_json(json: &str) -> Result<Report, String> {
    serde_json::from_str(json).map_err(|e| format!("malformed reproduction.json: {e}"))
}

/// Compare `current` against `baseline` and list every metric whose
/// tier regressed from [`Tier::Pass`] to [`Tier::Fail`] — the condition
/// CI gates on. Metrics present on only one side are ignored (adding
/// or retiring a metric is not a regression).
pub fn tier_regressions(baseline: &Report, current: &Report) -> Vec<String> {
    let mut regressions = Vec::new();
    for old in baseline.sections.iter().flat_map(|s| s.metrics.iter()) {
        if old.tier != Tier::Pass {
            continue;
        }
        if let Some(new) = current.metric(&old.id) {
            if new.tier == Tier::Fail {
                regressions.push(format!(
                    "{}: was pass ({}), now FAIL ({}) [{}]",
                    old.id, old.reproduced, new.reproduced, old.citation
                ));
            }
        }
    }
    regressions
}
