//! `gpufreq-analyze`: in-repo static analysis for the gpufreq workspace.
//!
//! The repo's headline guarantees — byte-identical artifacts at any
//! `--jobs` count, bit-for-bit block==row SVR scoring, and a
//! reject-don't-block serve path — are enforced dynamically by golden
//! tests. This crate adds the static half: a token-level Rust source
//! scanner (built in the style of the OpenCL lexer in
//! `crates/kernel`, and like it dependency-free) plus a small lint
//! registry that makes the invariants *checkable before the tests
//! run*.
//!
//! # Lint catalog
//!
//! | id | enforces |
//! |---|---|
//! | `undocumented-unsafe` | every `unsafe` block/fn/impl carries a `// SAFETY:` comment |
//! | `unjustified-atomic-ordering` | every `Ordering::*` site carries a `// ordering:` justification; store/load pairs that cannot synchronize are flagged |
//! | `nondeterministic-iteration` | no `HashMap`/`HashSet` in serialization modules |
//! | `wallclock-in-serialized-output` | no `SystemTime::now`/`Instant::now` in serialization modules |
//! | `panic-in-request-path` | no `unwrap`/`expect`/`panic!` in non-test `crates/serve` or `crates/router` library code |
//! | `wire-string-drift` | protocol op/error-code/route/state literals match `crates/serve/wire_inventory.txt` |
//! | `invalid-suppression` | `analyze:allow` comments are well-formed, reasoned, and not stale |
//!
//! # Suppressions
//!
//! A finding is silenced with an inline comment on, or directly
//! above, the triggering line:
//!
//! ```text
//! // analyze:allow(panic-in-request-path, reason = "mutex poisoning is unrecoverable here")
//! let q = self.inner.lock().expect("queue poisoned");
//! ```
//!
//! The reason is mandatory, the lint id must exist, and an allow that
//! no longer suppresses anything is itself reported
//! (`invalid-suppression`) so the annotation set cannot rot.
//!
//! # Outputs
//!
//! [`analyze_files`] drives the scan; [`report::render_markdown`]
//! renders the checked-in `ANALYSIS.md` census and
//! [`Analysis::to_json`] the machine-readable form. All three are
//! deterministic — same tree in, same bytes out.

pub mod lints;
pub mod report;
pub mod scan;

pub use lints::{AtomicSite, Finding, Lint, Suppression, UnsafeSite, WireEntry, WireKind};

use std::io;
use std::path::{Path, PathBuf};

/// Aggregated result of analyzing a set of files.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Repo-relative paths scanned, sorted.
    pub files: Vec<String>,
    /// All findings across all files, sorted by (path, line, lint).
    pub findings: Vec<Finding>,
    /// Census: every `unsafe` site.
    pub unsafe_sites: Vec<UnsafeSite>,
    /// Census: every atomic `Ordering::*` site.
    pub atomic_sites: Vec<AtomicSite>,
    /// Census: every suppression that is actually in force.
    pub suppressions: Vec<Suppression>,
}

impl Analysis {
    /// Findings not covered by a suppression — the ones that fail
    /// `--check`.
    pub fn active_findings(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.suppressed)
    }

    /// Machine-readable JSON (hand-rolled: this crate is
    /// dependency-free by design).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"files\":{},", self.files.len()));
        out.push_str(&format!("\"active\":{},", self.active_findings().count()));
        out.push_str(&format!(
            "\"suppressed\":{},",
            self.findings.len() - self.active_findings().count()
        ));
        out.push_str(&format!("\"unsafe_sites\":{},", self.unsafe_sites.len()));
        out.push_str(&format!("\"atomic_sites\":{},", self.atomic_sites.len()));
        out.push_str("\"findings\":[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"lint\":{},\"path\":{},\"line\":{},\"message\":{},\"suppressed\":{}}}",
                json_str(f.lint.id()),
                json_str(&f.path),
                f.line,
                json_str(&f.message),
                f.suppressed
            ));
        }
        out.push_str("]}");
        out
    }
}

/// JSON string literal with escaping (the only JSON feature this
/// crate needs; serde stays out of the analyzer on purpose).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Analyze already-loaded sources: `(repo-relative path, contents)`
/// pairs. The pure core of the crate — everything (CLI, tests,
/// fixtures) funnels through here.
pub fn analyze_sources(
    sources: &[(String, String)],
    wire_inventory: Option<&[WireEntry]>,
) -> Analysis {
    let mut ordered: Vec<&(String, String)> = sources.iter().collect();
    ordered.sort_by(|a, b| a.0.cmp(&b.0));
    let mut analysis = Analysis::default();
    for (path, contents) in ordered {
        analysis.files.push(path.clone());
        let scanned = scan::scan(contents);
        let file = lints::lint_file(path, &scanned, wire_inventory);
        analysis.findings.extend(file.findings);
        analysis.unsafe_sites.extend(file.unsafe_sites);
        analysis.atomic_sites.extend(file.atomic_sites);
        analysis.suppressions.extend(file.suppressions);
    }
    analysis
}

/// The default scan set: every `.rs` file under `crates/*/src` plus
/// the root facade's `src/`, sorted. Vendored dependencies, build
/// output, and test fixtures live outside those trees and are never
/// scanned by default.
pub fn default_file_set(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let facade = root.join("src");
    if facade.is_dir() {
        collect_rs(&facade, &mut files)?;
    }
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let src = dir.join("src");
        if src.is_dir() {
            collect_rs(&src, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Repo-relative forward-slash form of `path` for findings/census.
pub fn repo_relative(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.to_string_lossy().replace('\\', "/")
}

/// Where the wire inventory lives, relative to the repo root.
pub const WIRE_INVENTORY_PATH: &str = "crates/serve/wire_inventory.txt";

/// Load files from disk and analyze them. `root` anchors
/// repo-relative paths and the wire-inventory lookup.
pub fn analyze_files(root: &Path, files: &[PathBuf]) -> io::Result<Analysis> {
    let inventory = std::fs::read_to_string(root.join(WIRE_INVENTORY_PATH))
        .ok()
        .map(|s| lints::parse_wire_inventory(&s));
    let mut sources = Vec::with_capacity(files.len());
    for file in files {
        let contents = std::fs::read_to_string(file)
            .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", file.display())))?;
        sources.push((repo_relative(root, file), contents));
    }
    Ok(analyze_sources(&sources, inventory.as_deref()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_counts() {
        let sources = vec![(
            "crates/x/src/lib.rs".to_string(),
            "unsafe fn f() { /* \"quoted\" */ }\n".to_string(),
        )];
        let a = analyze_sources(&sources, None);
        let json = a.to_json();
        assert!(json.starts_with("{\"files\":1,\"active\":1,"), "{json}");
        assert!(json.contains("\"lint\":\"undocumented-unsafe\""), "{json}");
    }

    #[test]
    fn sources_are_sorted_regardless_of_input_order() {
        let sources = vec![
            (
                "crates/b/src/lib.rs".to_string(),
                "unsafe fn f() {}\n".to_string(),
            ),
            (
                "crates/a/src/lib.rs".to_string(),
                "unsafe fn g() {}\n".to_string(),
            ),
        ];
        let a = analyze_sources(&sources, None);
        assert_eq!(a.files, vec!["crates/a/src/lib.rs", "crates/b/src/lib.rs"]);
        assert!(a.findings[0].path < a.findings[1].path);
    }
}
