//! # comfase-lint — the ComFASE-RS determinism auditor
//!
//! ComFASE-RS's value proposition is *repeatable* fault/attack campaigns:
//! the golden-run vs. injected-run comparison (paper §IV) and the
//! prefix-fork/snapshot-DAG campaign runner are only sound if two runs with
//! the same seed are bit-identical. That property was nearly lost once
//! already — PR 1 had to convert the wireless `Medium`'s `HashMap`s to
//! `BTreeMap`s by hand after fork runs diverged from scratch runs purely
//! through hash iteration order.
//!
//! This crate makes that class of regression a CI failure instead of a
//! debugging session. It is a multi-pass workspace auditor over the
//! simulation crates (`des`, `traffic`, `wireless`, `platoon`, `core`,
//! `obs`) plus the host-tooling surfaces that feed them (`bench`,
//! `tests/src`), enforcing eight invariants:
//!
//! | rule | invariant |
//! |------|-----------|
//! | D1 `hash-collections`    | no `HashMap`/`HashSet` in simulation-state code |
//! | D2 `wall-clock`          | no `Instant`/`SystemTime` reads in sim code |
//! | D3 `ambient-rng`         | no `thread_rng`/`rand::random`/`from_entropy` |
//! | D4 `global-state`        | no `static mut`/`lazy_static`/`OnceLock`, no `std::env` reads |
//! | D5 `float-ordering`      | no `.partial_cmp(..).unwrap()`; use `total_cmp` |
//! | D6 `interior-mutability` | no `Cell`/`RefCell`/`Mutex`/`RwLock`/atomics in sim state |
//! | D7 `float-reduction`     | no float `.sum()`/`fold`/`reduce` over unordered iterators |
//! | D8 `sim-io`              | no `std::fs`/`std::net`/thread spawns/stdio in sim code |
//!
//! ## The three passes
//!
//! 1. **Per-file**: lex each file and extract raw textual findings,
//!    `allow(...)` annotations, `host-region` markers, test regions, and a
//!    symbol summary (`use` bindings, type aliases, local definitions,
//!    candidate usage sites).
//! 2. **Use-graph**: join all symbol summaries into a workspace
//!    [`usegraph::SymbolTable`] and resolve every usage site
//!    transitively, so `use std::collections::HashMap as Map` in one module
//!    cannot launder a banned type into another. Diagnostics report the full
//!    alias chain.
//! 3. **Suppression & accounting**: drop findings inside test regions,
//!    sites waived by a reasoned `allow(...)`, and *host-side* findings
//!    (D2/D6/D8 and `std::env` reads) inside a sanctioned
//!    `// comfase-lint: host-region(reason = "...")`; report malformed
//!    annotations; tally waiver sites for the [`baseline`] ratchet.
//!
//! Test code (`#[cfg(test)]`, `#[test]`) is exempt. A production site can be
//! exempted only with an inline annotation carrying a non-empty reason:
//!
//! ```text
//! // comfase-lint: allow(hash-collections, reason = "membership-only, never iterated")
//! ```
//!
//! and host-side supervision items (campaign workers, the journal writer,
//! bench harness binaries) with a scope marker:
//!
//! ```text
//! // comfase-lint: host-region(reason = "campaign supervision; never touches forked sim state")
//! ```
//!
//! Run it as a CI gate with `cargo run -p comfase-lint -- --workspace`; add
//! `--format json` or `--format sarif` for machine-readable reports, and
//! `--baseline lint-baseline.json` for the waiver ratchet. A whole-workspace
//! audit lexes every file each run, in tens of milliseconds.
//!
//! ## Implementation notes
//!
//! The pass has **one dependency, in-repo**: a comment/string-aware
//! tokenizer ([`lexer`]) feeds lexical rules ([`rules`]) and a use-graph
//! pass ([`usegraph`]); reports and the baseline are written and read
//! back with the workspace's zero-dependency `comfase-json` codec. The
//! invariants are lexical by nature (forbidden names, short token
//! sequences, and name bindings), so a full AST buys nothing here,
//! while no external dependencies keep the gate instant to build, immune
//! to upstream churn, and auditable end to end.

pub mod baseline;
pub mod diagnostics;
pub mod lexer;
pub mod rules;
pub mod usegraph;
pub mod workspace;

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use diagnostics::{Report, Violation};

use baseline::WaiverSite;
use lexer::{host_region_ranges, lex, test_line_ranges, HostRegion};
use rules::RawFinding;
use usegraph::{FileSymbols, SymbolTable};

/// A well-formed, known-rule `allow(...)` annotation site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowSite {
    /// 1-based line of the annotation comment.
    pub line: u32,
    /// The waived rule id.
    pub rule: String,
    /// The justification.
    pub reason: String,
}

/// Phase-1 output for one file: everything later passes need, and nothing
/// that depends on other files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileAnalysis {
    /// Display label (path relative to the workspace root).
    pub label: String,
    /// Raw textual findings (before suppression).
    pub findings: Vec<RawFinding>,
    /// Well-formed `allow(...)` sites.
    pub allows: Vec<AllowSite>,
    /// Malformed annotations: `(line, problem)`.
    pub bad_annotations: Vec<(u32, String)>,
    /// Resolved `host-region` line spans.
    pub host_regions: Vec<HostRegion>,
    /// Test-exempt line spans.
    pub test_ranges: Vec<(u32, u32)>,
    /// Symbol summary for the use-graph pass.
    pub symbols: FileSymbols,
}

/// Runs phase 1 on one file's source.
pub fn analyze_source(label: &str, source: &str) -> FileAnalysis {
    let lexed = lex(source);
    let findings = rules::scan_tokens(&lexed.tokens);
    let test_ranges = test_line_ranges(&lexed.tokens);
    let host_regions = host_region_ranges(&lexed);
    let mut allows = Vec::new();
    let mut bad_annotations = Vec::new();
    for a in &lexed.allows {
        match &a.problem {
            Some(p) => bad_annotations.push((a.line, format!("malformed lint annotation: {p}"))),
            None if !rules::is_rule(&a.rule) => bad_annotations.push((
                a.line,
                format!(
                    "malformed lint annotation: unknown rule `{}`; known rules: {}",
                    a.rule,
                    rules::RULES
                        .iter()
                        .map(|r| r.id)
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            )),
            None => allows.push(AllowSite {
                line: a.line,
                rule: a.rule.clone(),
                reason: a.reason.clone(),
            }),
        }
    }
    for hr in &lexed.host_regions {
        if let Some(p) = &hr.problem {
            bad_annotations.push((hr.line, format!("malformed lint annotation: {p}")));
        }
    }
    let symbols = usegraph::file_symbols(&lexed.tokens);
    FileAnalysis {
        label: label.to_string(),
        findings,
        allows,
        bad_annotations,
        host_regions,
        test_ranges,
        symbols,
    }
}

/// Runs phases 2 and 3 over all per-file analyses, producing the report.
///
/// `sources` maps file labels to their contents (for snippet rendering);
/// a missing entry only costs the snippet, never a finding.
pub fn finalize(analyses: &[FileAnalysis], sources: &BTreeMap<String, String>) -> Report {
    // Phase 2: the cross-file use-graph.
    let symfiles: Vec<(String, FileSymbols)> = analyses
        .iter()
        .map(|a| (a.label.clone(), a.symbols.clone()))
        .collect();
    let table = SymbolTable::build(&symfiles);
    let mut alias_by_file: BTreeMap<&str, Vec<usegraph::AliasFinding>> = BTreeMap::new();
    for f in table.findings(&symfiles) {
        alias_by_file
            .entry(analyses_label(analyses, &f.file))
            .or_default()
            .push(f);
    }

    // Phase 3: suppression and report assembly.
    let mut report = Report {
        violations: Vec::new(),
        files_scanned: analyses.len(),
    };
    for a in analyses {
        let lines: Vec<&str> = sources
            .get(&a.label)
            .map(|s| s.lines().collect())
            .unwrap_or_default();
        let snippet = |line: u32| -> String {
            lines
                .get(line as usize - 1)
                .map(|l| l.trim().to_string())
                .unwrap_or_default()
        };
        let in_tests = |line: u32| a.test_ranges.iter().any(|&(s, e)| s <= line && line <= e);
        let in_host = |line: u32| {
            a.host_regions
                .iter()
                .any(|r| r.start <= line && line <= r.end)
        };
        let allowed = |rule: &str, line: u32| {
            a.allows
                .iter()
                .any(|al| al.rule == rule && (al.line == line || al.line + 1 == line))
        };

        // Sites where a textual finding fired (pre-suppression): the alias
        // pass frequently re-discovers the same site through the path form,
        // and must not double-report it.
        let textual_keys: BTreeSet<(u32, &str)> =
            a.findings.iter().map(|f| (f.line, f.rule)).collect();

        for f in &a.findings {
            if in_tests(f.line) || allowed(f.rule, f.line) || (f.host_ok && in_host(f.line)) {
                continue;
            }
            report.violations.push(Violation {
                rule: f.rule.to_string(),
                file: a.label.clone(),
                line: f.line,
                message: f.message.clone(),
                snippet: snippet(f.line),
            });
        }
        let mut seen_alias: BTreeSet<(u32, &str)> = BTreeSet::new();
        for f in alias_by_file.get(a.label.as_str()).into_iter().flatten() {
            if textual_keys.contains(&(f.line, f.rule)) || !seen_alias.insert((f.line, f.rule)) {
                continue;
            }
            if in_tests(f.line) || allowed(f.rule, f.line) || (f.host_ok && in_host(f.line)) {
                continue;
            }
            report.violations.push(Violation {
                rule: f.rule.to_string(),
                file: a.label.clone(),
                line: f.line,
                message: f.message.clone(),
                snippet: snippet(f.line),
            });
        }
        for (line, problem) in &a.bad_annotations {
            if in_tests(*line) {
                continue;
            }
            report.violations.push(Violation {
                rule: rules::BAD_ANNOTATION.to_string(),
                file: a.label.clone(),
                line: *line,
                message: problem.clone(),
                snippet: snippet(*line),
            });
        }
    }
    report
        .violations
        .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    report
}

/// Interns an alias-finding file label against the analyses (the finding's
/// label always comes from an analysis, so this is a lookup, not a copy).
fn analyses_label<'a>(analyses: &'a [FileAnalysis], label: &str) -> &'a str {
    analyses
        .iter()
        .find(|a| a.label == label)
        .map(|a| a.label.as_str())
        .unwrap_or("")
}

/// Enumerates every waiver site: non-test `allow(...)` annotations plus
/// `host-region` markers (counted under [`baseline::HOST_REGION_KEY`]).
pub fn waiver_sites(analyses: &[FileAnalysis]) -> Vec<WaiverSite> {
    let mut out = Vec::new();
    for a in analyses {
        let in_tests = |line: u32| a.test_ranges.iter().any(|&(s, e)| s <= line && line <= e);
        for al in &a.allows {
            if in_tests(al.line) {
                continue;
            }
            out.push(WaiverSite {
                file: a.label.clone(),
                line: al.line,
                rule: al.rule.clone(),
                reason: al.reason.clone(),
            });
        }
        for hr in &a.host_regions {
            out.push(WaiverSite {
                file: a.label.clone(),
                line: hr.marker_line,
                rule: baseline::HOST_REGION_KEY.to_string(),
                reason: hr.reason.clone(),
            });
        }
    }
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out
}

/// A full scan result: the report and the waiver sites.
#[derive(Debug)]
pub struct ScanOutput {
    /// The violation report.
    pub report: Report,
    /// Every waiver site in the scanned tree.
    pub waivers: Vec<WaiverSite>,
}

/// Scans the given files (as read from disk).
///
/// `root` is only used to shorten paths in diagnostics.
///
/// # Errors
///
/// Fails if a file cannot be read.
pub fn scan_files(root: &Path, files: &[PathBuf]) -> io::Result<ScanOutput> {
    let mut analyses = Vec::with_capacity(files.len());
    let mut sources = BTreeMap::new();
    for path in files {
        let source = fs::read_to_string(path)?;
        let label = workspace::display_path(root, path);
        analyses.push(analyze_source(&label, &source));
        sources.insert(label, source);
    }
    Ok(ScanOutput {
        report: finalize(&analyses, &sources),
        waivers: waiver_sites(&analyses),
    })
}

/// Scans the audited crates of the workspace rooted at `root` (the
/// simulation crates plus `bench` and `tests/src`).
///
/// # Errors
///
/// Fails if the workspace layout is missing an audited crate or a file
/// cannot be read.
pub fn scan_workspace(root: &Path) -> io::Result<ScanOutput> {
    let files = workspace::audited_source_files(root)?;
    scan_files(root, &files)
}

/// Checks a single file's source: phase 1 plus a single-file phase 2/3.
/// The compatibility entry point for unit tests and editor integrations.
pub fn check_file(file: &str, source: &str) -> Vec<Violation> {
    let analysis = analyze_source(file, source);
    let mut sources = BTreeMap::new();
    sources.insert(file.to_string(), source.to_string());
    finalize(std::slice::from_ref(&analysis), &sources).violations
}
