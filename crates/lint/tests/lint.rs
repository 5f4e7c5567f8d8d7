//! End-to-end tests for the `comfase-lint` binary.
//!
//! Two layers:
//!
//! 1. **The real workspace is clean** — the auditor run exactly as CI runs it
//!    must find zero violations in the six audited crates. This is the
//!    regression guard: reintroducing a `HashMap` field, an `Instant::now()`
//!    or a `thread_rng()` anywhere in simulation code fails this test.
//! 2. **Fixture corpus** — for every rule there is a fixture where it fires
//!    and one where a well-formed `allow` annotation suppresses it, plus
//!    clean/bad-annotation/test-exemption cases. Fixtures live in
//!    `tests/fixtures/` (not compiled by cargo; only the auditor reads them).

use std::path::{Path, PathBuf};
use std::process::Command;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

struct Outcome {
    code: i32,
    stdout: String,
    stderr: String,
}

fn lint(args: &[&str]) -> Outcome {
    let output = Command::new(env!("CARGO_BIN_EXE_comfase-lint"))
        .args(args)
        .current_dir(workspace_root())
        .output()
        .expect("run comfase-lint");
    Outcome {
        code: output.status.code().expect("exit code"),
        stdout: String::from_utf8(output.stdout).expect("utf-8 stdout"),
        stderr: String::from_utf8(output.stderr).expect("utf-8 stderr"),
    }
}

fn lint_fixture(name: &str) -> Outcome {
    let path = fixture(name);
    lint(&[path.to_str().expect("fixture path")])
}

#[test]
fn real_workspace_has_no_violations() {
    let out = lint(&["--workspace"]);
    assert_eq!(
        out.code, 0,
        "workspace must be determinism-clean, got:\n{}",
        out.stdout
    );
    assert!(
        out.stdout.contains("no determinism violations"),
        "{}",
        out.stdout
    );
}

#[test]
fn hash_collections_fires_and_is_suppressible() {
    let fires = lint_fixture("d1_hash_fires.rs");
    assert_eq!(fires.code, 1, "{}", fires.stdout);
    assert!(
        fires.stdout.contains("error[hash-collections]"),
        "{}",
        fires.stdout
    );
    // Both the `use` line and each field/expression site are reported.
    assert!(
        fires.stdout.matches("error[hash-collections]").count() >= 3,
        "{}",
        fires.stdout
    );

    let allowed = lint_fixture("d1_hash_allowed.rs");
    assert_eq!(allowed.code, 0, "{}", allowed.stdout);
}

#[test]
fn wall_clock_fires_and_is_suppressible() {
    let fires = lint_fixture("d2_clock_fires.rs");
    assert_eq!(fires.code, 1, "{}", fires.stdout);
    assert!(
        fires.stdout.contains("error[wall-clock]"),
        "{}",
        fires.stdout
    );

    let allowed = lint_fixture("d2_clock_allowed.rs");
    assert_eq!(allowed.code, 0, "{}", allowed.stdout);
}

#[test]
fn ambient_rng_fires_and_is_suppressible() {
    let fires = lint_fixture("d3_rng_fires.rs");
    assert_eq!(fires.code, 1, "{}", fires.stdout);
    assert!(
        fires.stdout.contains("error[ambient-rng]"),
        "{}",
        fires.stdout
    );
    // thread_rng, rand::random, from_entropy: three distinct sites.
    assert!(
        fires.stdout.matches("error[ambient-rng]").count() >= 3,
        "{}",
        fires.stdout
    );

    let allowed = lint_fixture("d3_rng_allowed.rs");
    assert_eq!(allowed.code, 0, "{}", allowed.stdout);
}

#[test]
fn global_state_fires_and_is_suppressible() {
    let fires = lint_fixture("d4_global_fires.rs");
    assert_eq!(fires.code, 1, "{}", fires.stdout);
    assert!(
        fires.stdout.contains("error[global-state]"),
        "{}",
        fires.stdout
    );
    // static mut, OnceLock, env::var, env::args: four distinct sites.
    assert!(
        fires.stdout.matches("error[global-state]").count() >= 4,
        "{}",
        fires.stdout
    );

    let allowed = lint_fixture("d4_global_allowed.rs");
    assert_eq!(allowed.code, 0, "{}", allowed.stdout);
}

#[test]
fn float_ordering_fires_and_is_suppressible() {
    let fires = lint_fixture("d5_float_fires.rs");
    assert_eq!(fires.code, 1, "{}", fires.stdout);
    assert!(
        fires.stdout.contains("error[float-ordering]"),
        "{}",
        fires.stdout
    );
    // Both `.unwrap()` and `.expect(..)` after `.partial_cmp(..)` fire.
    assert!(
        fires.stdout.matches("error[float-ordering]").count() >= 2,
        "{}",
        fires.stdout
    );

    let allowed = lint_fixture("d5_float_allowed.rs");
    assert_eq!(allowed.code, 0, "{}", allowed.stdout);
}

/// The telemetry crate (`obs`) sits inside the lint scope: its host
/// profiler is sanctioned by a file-scope `host-region` marker, so a clock
/// read anywhere else in the crate — e.g. a recorder stamping events with
/// host time — still fails the audit.
#[test]
fn obs_telemetry_wall_clock_policy() {
    let fires = lint_fixture("obs_hostprof_clock_fires.rs");
    assert_eq!(fires.code, 1, "{}", fires.stdout);
    // Both the `use` and the `Instant::now()` / `elapsed()` sites report.
    assert!(
        fires.stdout.matches("error[wall-clock]").count() >= 2,
        "{}",
        fires.stdout
    );

    let allowed = lint_fixture("obs_hostprof_clock_allowed.rs");
    assert_eq!(allowed.code, 0, "{}", allowed.stdout);
    assert!(
        allowed.stdout.contains("no determinism violations"),
        "{}",
        allowed.stdout
    );
}

#[test]
fn interior_mutability_fires_and_host_region_sanctions() {
    let fires = lint_fixture("d6_interior_fires.rs");
    assert_eq!(fires.code, 1, "{}", fires.stdout);
    // RefCell/Mutex/atomics fire textually; the bare imported `Cell` is
    // only reachable through the use-graph and must report its chain.
    assert!(
        fires.stdout.matches("error[interior-mutability]").count() >= 6,
        "{}",
        fires.stdout
    );
    assert!(
        fires
            .stdout
            .contains("`Cell` resolves to `std::cell::Cell`"),
        "{}",
        fires.stdout
    );
    assert!(fires.stdout.contains("alias chain"), "{}", fires.stdout);

    let allowed = lint_fixture("d6_interior_allowed.rs");
    assert_eq!(allowed.code, 0, "{}", allowed.stdout);
}

#[test]
fn float_reduction_fires_and_order_free_forms_pass() {
    let fires = lint_fixture("d7_float_reduction_fires.rs");
    assert_eq!(fires.code, 1, "{}", fires.stdout);
    // Bare `.sum()`, `.sum::<f32>()`, `.fold(0.0, ..)` and `.reduce(..)`
    // over `.values()` are four distinct sites.
    assert!(
        fires.stdout.matches("error[float-reduction]").count() >= 4,
        "{}",
        fires.stdout
    );

    let allowed = lint_fixture("d7_float_reduction_allowed.rs");
    assert_eq!(allowed.code, 0, "{}", allowed.stdout);
}

#[test]
fn sim_io_fires_and_host_region_sanctions() {
    let fires = lint_fixture("d8_sim_io_fires.rs");
    assert_eq!(fires.code, 1, "{}", fires.stdout);
    // fs (via the `use fs` alias and fully qualified), stdio macros and
    // thread::spawn: six distinct sites.
    assert!(
        fires.stdout.matches("error[sim-io]").count() >= 6,
        "{}",
        fires.stdout
    );

    let allowed = lint_fixture("d8_sim_io_allowed.rs");
    assert_eq!(allowed.code, 0, "{}", allowed.stdout);
}

#[test]
fn pathological_literals_stay_invisible() {
    let out = lint_fixture("lexer_pathological.rs");
    assert_eq!(out.code, 0, "{}", out.stdout);
    assert!(
        out.stdout.contains("no determinism violations"),
        "{}",
        out.stdout
    );
}

#[test]
fn clean_fixture_is_clean() {
    let out = lint_fixture("clean.rs");
    assert_eq!(out.code, 0, "{}", out.stdout);
    assert!(
        out.stdout.contains("no determinism violations"),
        "{}",
        out.stdout
    );
}

#[test]
fn malformed_annotations_are_violations_and_do_not_suppress() {
    let out = lint_fixture("bad_annotation.rs");
    assert_eq!(out.code, 1, "{}", out.stdout);
    // The underlying rule still fires (the annotation was ineffective)...
    assert!(
        out.stdout.contains("error[hash-collections]"),
        "{}",
        out.stdout
    );
    // ...and each malformed annotation is reported in its own right:
    // missing reason, empty reason, unknown rule name.
    assert!(
        out.stdout.matches("error[bad-annotation]").count() >= 3,
        "{}",
        out.stdout
    );
}

#[test]
fn test_code_is_exempt() {
    let out = lint_fixture("test_exempt.rs");
    assert_eq!(out.code, 0, "{}", out.stdout);
}

#[test]
fn fixture_directory_scan_aggregates() {
    let dir = fixture("");
    let out = lint(&[dir.to_str().expect("fixtures dir")]);
    assert_eq!(out.code, 1);
    for rule in [
        "hash-collections",
        "wall-clock",
        "ambient-rng",
        "global-state",
        "float-ordering",
        "interior-mutability",
        "float-reduction",
        "sim-io",
        "bad-annotation",
    ] {
        assert!(
            out.stdout.contains(&format!("error[{rule}]")),
            "rule {rule} missing from aggregate scan:\n{}",
            out.stdout
        );
    }
}

#[test]
fn json_report_shape() {
    let path = fixture("d1_hash_fires.rs");
    let out = lint(&["--format", "json", path.to_str().expect("fixture path")]);
    assert_eq!(out.code, 1);
    assert!(out.stdout.contains("\"version\": 1"), "{}", out.stdout);
    assert!(
        out.stdout.contains("\"files_scanned\": 1"),
        "{}",
        out.stdout
    );
    assert!(
        out.stdout.contains("\"rule\": \"hash-collections\""),
        "{}",
        out.stdout
    );
    assert!(out.stdout.contains("\"line\": "), "{}", out.stdout);
    // The declared count matches the number of violation objects. (Brace
    // balancing would be misleading here: snippets may contain `{`.)
    let declared: usize = out
        .stdout
        .lines()
        .find_map(|l| l.trim().strip_prefix("\"violation_count\": "))
        .and_then(|n| n.trim_end_matches(',').parse().ok())
        .expect("violation_count field");
    assert_eq!(out.stdout.matches("\"rule\": ").count(), declared);
    assert!(declared >= 3, "{}", out.stdout);
    assert!(out.stdout.trim_end().ends_with('}'), "{}", out.stdout);
}

#[test]
fn out_flag_writes_report_file() {
    let report = std::env::temp_dir().join(format!("comfase-lint-{}.json", std::process::id()));
    let path = fixture("clean.rs");
    let out = lint(&[
        "--format",
        "json",
        "--out",
        report.to_str().expect("report path"),
        path.to_str().expect("fixture path"),
    ]);
    assert_eq!(out.code, 0, "{}", out.stderr);
    assert!(
        out.stdout.is_empty(),
        "stdout stays machine-clean with --out"
    );
    assert!(out.stderr.contains("wrote report"), "{}", out.stderr);
    let written = std::fs::read_to_string(&report).expect("report file");
    assert!(written.contains("\"violation_count\": 0"), "{written}");
    std::fs::remove_file(&report).ok();
}

#[test]
fn list_rules_covers_all_rules() {
    let out = lint(&["--list-rules"]);
    assert_eq!(out.code, 0);
    for rule in [
        "hash-collections",
        "wall-clock",
        "ambient-rng",
        "global-state",
        "float-ordering",
        "interior-mutability",
        "float-reduction",
        "sim-io",
        "bad-annotation",
    ] {
        assert!(out.stdout.contains(rule), "{rule} missing:\n{}", out.stdout);
    }
}

#[test]
fn usage_errors_exit_two() {
    let none = lint(&[]);
    assert_eq!(none.code, 2);
    assert!(none.stderr.contains("usage:"), "{}", none.stderr);

    for flag in ["--frobnicate", "--cache"] {
        let unknown = lint(&[flag, "x"]);
        assert_eq!(unknown.code, 2, "{flag}");
        assert!(
            unknown.stderr.contains("unknown flag"),
            "{}",
            unknown.stderr
        );
    }
}

// ---------------------------------------------------------------------------
// Seeded mutations of real workspace sources
// ---------------------------------------------------------------------------

/// Fresh scratch directory under the target temp dir, unique per test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("comfase-lint-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Smuggling a `RefCell` field into the real `World` struct is caught.
#[test]
fn seeded_refcell_in_world_is_caught() {
    let source = std::fs::read_to_string(workspace_root().join("crates/core/src/world.rs"))
        .expect("world.rs");
    let mutated = source.replace(
        "pub struct World {",
        "pub struct World {\n    scratch: std::cell::RefCell<Vec<f64>>,",
    );
    assert_ne!(mutated, source, "seed marker not found in world.rs");
    let dir = scratch("seed-world");
    let path = dir.join("world.rs");
    std::fs::write(&path, mutated).expect("write mutated world.rs");
    let out = lint(&[path.to_str().expect("path")]);
    assert_eq!(out.code, 1, "{}", out.stdout);
    assert!(
        out.stdout.contains("error[interior-mutability]"),
        "{}",
        out.stdout
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A banned type laundered through a cross-file rename is resolved
/// transitively and the diagnostic names every hop.
#[test]
fn seeded_aliased_hashmap_is_caught_across_files() {
    let dir = scratch("seed-alias");
    let src = dir.join("crates/des/src");
    std::fs::create_dir_all(&src).expect("fake crate layout");
    std::fs::write(
        src.join("maps.rs"),
        "pub use std::collections::HashMap as FastMap;\n",
    )
    .expect("maps.rs");
    std::fs::write(
        src.join("state.rs"),
        "use crate::maps::FastMap;\npub struct Queue {\n    pub pending: FastMap<u64, u64>,\n}\n",
    )
    .expect("state.rs");
    let out = lint(&[
        "--root",
        dir.to_str().expect("root"),
        src.join("maps.rs").to_str().expect("path"),
        src.join("state.rs").to_str().expect("path"),
    ]);
    assert_eq!(out.code, 1, "{}", out.stdout);
    let report = &out.stdout;
    assert!(report.contains("error[hash-collections]"), "{report}");
    assert!(
        report.contains("resolves to `std::collections::HashMap`"),
        "{report}"
    );
    assert!(report.contains("alias chain"), "{report}");
    assert!(report.contains("maps.rs"), "{report}");
    // The usage site in state.rs is reported, not just the re-export.
    assert!(report.contains("state.rs:3"), "{report}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Dropping the integer turbofish from a real reduction site is caught.
#[test]
fn seeded_untyped_sum_over_map_values_is_caught() {
    let source = std::fs::read_to_string(workspace_root().join("crates/core/src/analysis.rs"))
        .expect("analysis.rs");
    let mutated = source.replace(".sum::<usize>()", ".sum()");
    assert_ne!(mutated, source, "seed marker not found in analysis.rs");
    let dir = scratch("seed-sum");
    let path = dir.join("analysis.rs");
    std::fs::write(&path, mutated).expect("write mutated analysis.rs");
    let out = lint(&[path.to_str().expect("path")]);
    assert_eq!(out.code, 1, "{}", out.stdout);
    assert!(
        out.stdout.contains("error[float-reduction]"),
        "{}",
        out.stdout
    );
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Waiver ratchet
// ---------------------------------------------------------------------------

/// `d7_float_reduction_allowed.rs` carries exactly one `allow` site; a
/// baseline that caps it at one passes without noise.
#[test]
fn ratchet_respected_baseline_passes() {
    let dir = scratch("ratchet-ok");
    let baseline = dir.join("lint-baseline.json");
    std::fs::write(
        &baseline,
        "{\n  \"version\": 1,\n  \"waivers\": {\n    \"float-reduction\": 1\n  }\n}\n",
    )
    .expect("baseline");
    let path = fixture("d7_float_reduction_allowed.rs");
    let out = lint(&[
        "--baseline",
        baseline.to_str().expect("baseline"),
        path.to_str().expect("fixture"),
    ]);
    assert_eq!(out.code, 0, "{}\n{}", out.stdout, out.stderr);
    assert!(!out.stderr.contains("waiver ratchet"), "{}", out.stderr);
    std::fs::remove_dir_all(&dir).ok();
}

/// The same fixture against an empty baseline is waiver *growth*: the lint
/// fails even though no rule fires.
#[test]
fn ratchet_growth_is_rejected() {
    let dir = scratch("ratchet-grow");
    let baseline = dir.join("lint-baseline.json");
    std::fs::write(&baseline, "{\n  \"version\": 1,\n  \"waivers\": {}\n}\n").expect("baseline");
    let path = fixture("d7_float_reduction_allowed.rs");
    let out = lint(&[
        "--baseline",
        baseline.to_str().expect("baseline"),
        path.to_str().expect("fixture"),
    ]);
    assert_eq!(out.code, 1, "{}\n{}", out.stdout, out.stderr);
    assert!(out.stderr.contains("waiver ratchet"), "{}", out.stderr);
    assert!(out.stderr.contains("float-reduction"), "{}", out.stderr);
    std::fs::remove_dir_all(&dir).ok();
}

/// When waivers drop below the baseline the run passes but suggests
/// tightening the committed file.
#[test]
fn ratchet_shrink_suggests_tightening() {
    let dir = scratch("ratchet-shrink");
    let baseline = dir.join("lint-baseline.json");
    std::fs::write(
        &baseline,
        "{\n  \"version\": 1,\n  \"waivers\": {\n    \"float-reduction\": 3\n  }\n}\n",
    )
    .expect("baseline");
    let path = fixture("d7_float_reduction_allowed.rs");
    let out = lint(&[
        "--baseline",
        baseline.to_str().expect("baseline"),
        path.to_str().expect("fixture"),
    ]);
    assert_eq!(out.code, 0, "{}\n{}", out.stdout, out.stderr);
    assert!(out.stderr.contains("shrank"), "{}", out.stderr);
    assert!(out.stderr.contains("--write-baseline"), "{}", out.stderr);
    std::fs::remove_dir_all(&dir).ok();
}

/// `--write-baseline` emits a file that `--baseline` then accepts, and the
/// `--waiver-report` enumerates the site with its reason.
#[test]
fn write_baseline_round_trips_and_waiver_report_lists_sites() {
    let dir = scratch("ratchet-roundtrip");
    let baseline = dir.join("lint-baseline.json");
    let path = fixture("d7_float_reduction_allowed.rs");
    let write = lint(&[
        "--write-baseline",
        baseline.to_str().expect("baseline"),
        "--waiver-report",
        path.to_str().expect("fixture"),
    ]);
    assert_eq!(write.code, 0, "{}\n{}", write.stdout, write.stderr);
    assert!(
        write.stdout.contains("float-reduction: 1 site(s)"),
        "{}",
        write.stdout
    );
    assert!(
        write.stdout.contains("exact small integers"),
        "waiver report must carry the reason:\n{}",
        write.stdout
    );
    let text = std::fs::read_to_string(&baseline).expect("baseline written");
    assert!(text.contains("\"float-reduction\": 1"), "{text}");

    let check = lint(&[
        "--baseline",
        baseline.to_str().expect("baseline"),
        path.to_str().expect("fixture"),
    ]);
    assert_eq!(check.code, 0, "{}\n{}", check.stdout, check.stderr);
    std::fs::remove_dir_all(&dir).ok();
}

/// The committed repo baseline matches the tree: the workspace audit run
/// exactly as CI runs it (ratchet active) passes.
#[test]
fn committed_baseline_matches_workspace() {
    let out = lint(&["--workspace", "--baseline", "lint-baseline.json"]);
    assert_eq!(out.code, 0, "{}\n{}", out.stdout, out.stderr);
    assert!(!out.stderr.contains("waiver ratchet"), "{}", out.stderr);
}

// ---------------------------------------------------------------------------
// SARIF
// ---------------------------------------------------------------------------

#[test]
fn sarif_output_is_valid_json_with_rules_and_results() {
    let path = fixture("d1_hash_fires.rs");
    let out = lint(&["--format", "sarif", path.to_str().expect("fixture")]);
    assert_eq!(out.code, 1);
    let root = comfase_json::parse(&out.stdout).expect("SARIF must parse as JSON");
    assert_eq!(
        root.get("version").and_then(|v| v.as_str()),
        Some("2.1.0"),
        "{}",
        out.stdout
    );
    let runs = root.get("runs").and_then(|v| v.as_array()).expect("runs");
    assert_eq!(runs.len(), 1);
    let driver = runs[0]
        .get("tool")
        .and_then(|t| t.get("driver"))
        .expect("driver");
    assert_eq!(
        driver.get("name").and_then(|v| v.as_str()),
        Some("comfase-lint")
    );
    let rules = driver
        .get("rules")
        .and_then(|v| v.as_array())
        .expect("rules");
    // D1–D8 plus the bad-annotation meta-rule.
    assert_eq!(rules.len(), 9, "{}", out.stdout);
    let results = runs[0]
        .get("results")
        .and_then(|v| v.as_array())
        .expect("results");
    assert!(!results.is_empty());
    for result in results {
        assert_eq!(
            result.get("ruleId").and_then(|v| v.as_str()),
            Some("hash-collections")
        );
        let region = result
            .get("locations")
            .and_then(|l| l.as_array())
            .and_then(|l| l.first())
            .and_then(|l| l.get("physicalLocation"))
            .expect("physicalLocation");
        assert!(region.get("artifactLocation").is_some());
    }
}
