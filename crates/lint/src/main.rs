//! CLI for the determinism auditor.
//!
//! ```text
//! comfase-lint --workspace [--format text|json|sarif] [--out FILE] [--root DIR]
//!              [--baseline FILE] [--write-baseline FILE] [--waiver-report]
//! comfase-lint PATH...     [same flags]
//! comfase-lint --list-rules
//! ```
//!
//! Exit codes: `0` clean (and ratchet satisfied), `1` violations found or
//! waiver ratchet exceeded, `2` usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use comfase_lint::baseline::{render_waiver_report, Baseline};
use comfase_lint::{rules, workspace, ScanOutput};

struct Options {
    workspace: bool,
    list_rules: bool,
    format: Format,
    out: Option<PathBuf>,
    root: Option<PathBuf>,
    baseline: Option<PathBuf>,
    write_baseline: Option<PathBuf>,
    waiver_report: bool,
    paths: Vec<PathBuf>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
    Sarif,
}

const USAGE: &str = "usage: comfase-lint (--workspace | PATH...) \
                     [--format text|json|sarif] [--out FILE] [--root DIR] \
                     [--baseline FILE] [--write-baseline FILE] \
                     [--waiver-report] [--list-rules]";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workspace: false,
        list_rules: false,
        format: Format::Text,
        out: None,
        root: None,
        baseline: None,
        write_baseline: None,
        waiver_report: false,
        paths: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workspace" => opts.workspace = true,
            "--list-rules" => opts.list_rules = true,
            "--waiver-report" => opts.waiver_report = true,
            "--format" => match it.next().map(String::as_str) {
                Some("json") => opts.format = Format::Json,
                Some("text") => opts.format = Format::Text,
                Some("sarif") => opts.format = Format::Sarif,
                other => {
                    return Err(format!(
                        "--format expects `text`, `json` or `sarif`, got {other:?}"
                    ))
                }
            },
            "--out" => match it.next() {
                Some(path) => opts.out = Some(PathBuf::from(path)),
                None => return Err("--out expects a file path".to_string()),
            },
            "--root" => match it.next() {
                Some(path) => opts.root = Some(PathBuf::from(path)),
                None => return Err("--root expects a directory".to_string()),
            },
            "--baseline" => match it.next() {
                Some(path) => opts.baseline = Some(PathBuf::from(path)),
                None => return Err("--baseline expects a file path".to_string()),
            },
            "--write-baseline" => match it.next() {
                Some(path) => opts.write_baseline = Some(PathBuf::from(path)),
                None => return Err("--write-baseline expects a file path".to_string()),
            },
            "--help" | "-h" => return Err(USAGE.to_string()),
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}\n{USAGE}")),
            path => opts.paths.push(PathBuf::from(path)),
        }
    }
    if !opts.list_rules && !opts.workspace && opts.paths.is_empty() {
        return Err(USAGE.to_string());
    }
    Ok(opts)
}

fn run(opts: &Options) -> Result<ScanOutput, String> {
    let cwd = std::env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
    let root = match &opts.root {
        Some(r) => r.clone(),
        None => workspace::find_workspace_root(&cwd)
            .ok_or("no workspace root found above the current directory (try --root)")?,
    };
    if opts.workspace {
        comfase_lint::scan_workspace(&root).map_err(|e| e.to_string())
    } else {
        let mut files = Vec::new();
        for path in &opts.paths {
            if path.is_dir() {
                workspace::collect_rs(path, &mut files).map_err(|e| e.to_string())?;
            } else {
                files.push(path.clone());
            }
        }
        files.sort();
        comfase_lint::scan_files(&root, &files).map_err(|e| e.to_string())
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    if opts.list_rules {
        for rule in rules::RULES {
            println!("{:<20} {}", rule.id, rule.summary);
            println!("{:<20}   why: {}", "", rule.why);
        }
        // The annotation meta-rule is reported but can never itself be
        // `allow(...)`-ed, so it lives outside `rules::RULES`.
        println!(
            "{:<20} malformed `comfase-lint:` annotation (missing/empty reason, unknown rule)",
            rules::BAD_ANNOTATION
        );
        println!(
            "{:<20}   why: an exemption without a reviewable justification is a silent hole in the audit",
            ""
        );
        return ExitCode::SUCCESS;
    }

    let output = match run(&opts) {
        Ok(output) => output,
        Err(msg) => {
            eprintln!("comfase-lint: {msg}");
            return ExitCode::from(2);
        }
    };

    let rendered = match opts.format {
        Format::Json => output.report.render_json(),
        Format::Sarif => output.report.render_sarif(),
        Format::Text => output.report.render_text(),
    };
    match &opts.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &rendered) {
                eprintln!("comfase-lint: cannot write {}: {e}", path.display());
                return ExitCode::from(2);
            }
            // Keep the human-readable summary on stderr so `--out` stays
            // machine-clean on stdout.
            eprintln!(
                "comfase-lint: wrote report ({} violation(s)) to {}",
                output.report.violations.len(),
                path.display()
            );
        }
        None => print!("{rendered}"),
    }

    if opts.waiver_report {
        print!("{}", render_waiver_report(&output.waivers));
    }

    let current = Baseline::from_sites(&output.waivers);
    if let Some(path) = &opts.write_baseline {
        if let Err(e) = std::fs::write(path, current.render()) {
            eprintln!("comfase-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!("comfase-lint: wrote waiver baseline to {}", path.display());
    }

    let mut ratchet_failed = false;
    if let Some(path) = &opts.baseline {
        let committed = match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| Baseline::parse(&text))
        {
            Ok(b) => b,
            Err(e) => {
                eprintln!("comfase-lint: cannot read baseline {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let outcome = current.check(&committed);
        for msg in &outcome.growth {
            eprintln!("comfase-lint: {msg}");
        }
        if outcome.shrank {
            eprintln!(
                "comfase-lint: waiver counts shrank below the baseline — tighten the ratchet by \
                 regenerating {} with --write-baseline",
                path.display()
            );
        }
        ratchet_failed = !outcome.passed();
    }

    if output.report.is_clean() && !ratchet_failed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
