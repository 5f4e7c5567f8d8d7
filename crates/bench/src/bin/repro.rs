// comfase-lint: host-region(reason = "reproduction harness binary: reads CLI args and writes result tables/figures to disk; every number it prints comes out of deterministic campaign runs")

//! Reproduction harness: regenerates every table and figure of the
//! paper's evaluation section (§IV).
//!
//! ```text
//! repro [--all] [--table1] [--table2] [--fig4] [--fig5] [--fig6] [--fig7]
//!       [--delay-summary] [--dos-summary]
//!       [--bench-campaign] time the delay campaign in both execution modes
//!                          and write BENCH_campaign.json (not part of --all)
//!       [--bench-scale] time the indexed vs brute-force hot paths at growing
//!                       fleet sizes, verify bit-identical results (including
//!                       campaign metrics across indexing substrates and
//!                       execution modes) and write BENCH_scale.json
//!                       (not part of --all)
//!       [--fleets A,B,..] fleet sizes for --bench-scale (default 50,200,1000)
//!       [--stride N]  subsample the delay campaign by N (default 1 = full 11250 runs)
//!       [--threads N] worker threads (default: all cores)
//!       [--csv DIR]   additionally write machine-readable CSVs into DIR
//!       [--metrics]   collect deterministic telemetry; write results/metrics.json
//!                     (+ metrics_dos.json) and the host-side results/profile.json
//!       [--progress]  live per-experiment progress line on stderr
//!       [--quiet]     suppress progress output
//!       [--chrome-trace FILE]  write a golden-run event trace loadable in
//!                              chrome://tracing or ui.perfetto.dev
//!       [--journal PATH]  checkpoint the delay campaign to an append-only
//!                         journal (one fsync'd line per finished experiment);
//!                         an existing journal of the same campaign is
//!                         continued, one of another campaign is refused
//!       [--claim-dir DIR]  split the delay campaign across worker
//!                     processes: claim work units dynamically through a
//!                     shared claim ledger (requires --journal; merge the
//!                     worker journals afterwards with --merge); killed
//!                     workers' units are stolen by survivors, a killed
//!                     worker restarted on its journal keeps its rows, and
//!                     the merged artifact stays byte-identical to a
//!                     single-process run
//!       [--worker-id ID]  this worker's lease identity (default:
//!                     worker-<pid>)
//!       [--steal-after N]  consecutive stalled ledger scans before a
//!                     lease is presumed dead and stolen (default 20)
//!       [--claim-units N]  experiment indices per work unit (default:
//!                     campaign-size dependent, about 32 units)
//!       [--merge J1 J2 ..]  merge worker journals into the
//!                     campaign's metrics artifact
//!                     (results/metrics_merged.json), byte-identical to
//!                     a single-process run; exclusive with every other
//!                     artifact flag
//!       [--format text|json]  error reporting format for --merge: json
//!                     emits a machine-readable object on stdout, with
//!                     exact missing index ranges on coverage gaps
//!       [--dataset-dir DIR]  stream an attack-labeled dataset shard
//!                     (exp-<index>.jsonl, one length-delimited JSON line
//!                     per PHY frame and control step) into DIR while the
//!                     delay campaign runs; implies dataset capture, which
//!                     is part of the campaign identity. Workers sharing a
//!                     campaign may export into one directory — identical
//!                     re-exports are idempotent
//!       [--dataset-merge DIR..]  validate and merge dataset shard
//!                     directories into results/dataset/{corpus.jsonl,
//!                     manifest.json}, byte-identical regardless of worker
//!                     count, steal events or execution mode; exclusive
//!                     with every other artifact flag
//!       [--cache-dir DIR]  content-addressed result cache: experiments
//!                     whose (spec, seed, config) key is already stored
//!                     are returned without simulating, except under
//!                     --dataset-dir, where every experiment simulates;
//!                     writes results/cache_stats.json
//!       [--cache-gc MAX_BYTES]  size-bounded cache eviction
//!                     (oldest-entry-first) plus a stale/torn-entry
//!                     sweep, then exit (requires --cache-dir; run
//!                     between campaigns, not concurrently with
//!                     workers); writes results/gc_stats.json
//!       [--failure-policy abort|quarantine[:N]]  keep running past failed
//!                     experiments, aborting only after N failures
//!                     (default: abort on the first failure)
//!       [--max-events N]  deterministic per-experiment watchdog: fail any
//!                         experiment whose simulation delivers > N events
//! ```

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

use comfase::analysis;
use comfase::campaign::{Campaign, CampaignObserver, CampaignPhase, CampaignResult};
use comfase::config::AttackCampaignSetup;
use comfase::prelude::{
    chrome_trace_json, CommModel, DatasetSink, Engine, EventBudget, ExecutionMode, ExperimentCache,
    FailurePolicy, HostProfiler, IndexingMode, NullObserver, ObsConfig, RunConfig, TrafficScenario,
};
use comfase::report;
use comfase_bench::{delay_campaign, dos_campaign, paper_engine, REPRO_SEED};
use comfase_dist::{
    merge_dataset_dirs, merge_journals, worker::DEFAULT_STEAL_AFTER, ClaimSource, DirSink,
    DiskCache,
};
use comfase_json::Value;

struct Options {
    artefacts: Vec<String>,
    stride: usize,
    threads: usize,
    csv_dir: Option<std::path::PathBuf>,
    metrics: bool,
    progress: bool,
    quiet: bool,
    chrome_trace: Option<std::path::PathBuf>,
    journal: Option<std::path::PathBuf>,
    claim_dir: Option<std::path::PathBuf>,
    worker_id: Option<String>,
    steal_after: u32,
    claim_units: Option<usize>,
    merge: Vec<std::path::PathBuf>,
    format_json: bool,
    dataset_dir: Option<std::path::PathBuf>,
    dataset_merge: Vec<std::path::PathBuf>,
    cache_dir: Option<std::path::PathBuf>,
    cache_gc: Option<u64>,
    failure_policy: FailurePolicy,
    max_events: Option<u64>,
    fleets: Vec<usize>,
}

/// Campaign hooks of the repro harness: a wall-clock phase profiler
/// (host-side only — nothing flows back into the simulations) plus the
/// stderr progress line.
struct ReproObserver {
    profiler: HostProfiler,
    progress: bool,
    quiet: bool,
}

impl ReproObserver {
    fn new(opts: &Options) -> Self {
        ReproObserver {
            profiler: HostProfiler::new(),
            progress: opts.progress,
            quiet: opts.quiet,
        }
    }
}

impl CampaignObserver for ReproObserver {
    fn phase_started(&self, phase: CampaignPhase) {
        self.profiler.begin(phase.name());
    }

    fn phase_finished(&self, phase: CampaignPhase) {
        self.profiler.end(phase.name());
    }

    fn experiment_done(&self, done: usize, total: usize) {
        if self.quiet {
            return;
        }
        if self.progress || done.is_multiple_of(500) || done == total {
            eprint!(
                "\r  {done}/{total} ({:.0}%)",
                100.0 * done as f64 / total as f64
            );
            let _ = std::io::stderr().flush();
        }
    }
}

fn parse_args() -> Options {
    let mut artefacts = Vec::new();
    let mut stride = 1usize;
    let mut threads = comfase_bench::default_threads();
    let mut csv_dir = None;
    let mut metrics = false;
    let mut progress = false;
    let mut quiet = false;
    let mut chrome_trace = None;
    let mut journal = None;
    let mut claim_dir = None;
    let mut worker_id = None;
    let mut steal_after = DEFAULT_STEAL_AFTER;
    let mut claim_units = None;
    let mut merge = Vec::new();
    let mut format_json = false;
    let mut dataset_dir = None;
    let mut dataset_merge = Vec::new();
    let mut cache_dir = None;
    let mut cache_gc = None;
    let mut failure_policy = FailurePolicy::Abort;
    let mut max_events = None;
    let mut fleets = vec![50usize, 200, 1000];
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--all" => artefacts.push("all".into()),
            "--metrics" => metrics = true,
            "--progress" => progress = true,
            "--quiet" => quiet = true,
            "--journal" => {
                journal = Some(std::path::PathBuf::from(
                    args.next()
                        .unwrap_or_else(|| die("--journal needs a file path")),
                ));
            }
            "--claim-dir" => {
                claim_dir = Some(std::path::PathBuf::from(
                    args.next()
                        .unwrap_or_else(|| die("--claim-dir needs a directory")),
                ));
            }
            "--worker-id" => {
                worker_id = Some(
                    args.next()
                        .filter(|id| !id.is_empty())
                        .unwrap_or_else(|| die("--worker-id needs a non-empty identifier")),
                );
            }
            "--steal-after" => {
                steal_after = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--steal-after needs a non-negative integer"));
            }
            "--claim-units" => {
                claim_units = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|n| *n > 0)
                        .unwrap_or_else(|| die("--claim-units needs a positive integer")),
                );
            }
            "--merge" => {
                // Consumes every remaining argument as a journal path.
                merge.extend(args.by_ref().map(std::path::PathBuf::from));
                if merge.is_empty() {
                    die("--merge needs at least one journal path");
                }
            }
            "--dataset-dir" => {
                dataset_dir = Some(std::path::PathBuf::from(
                    args.next()
                        .unwrap_or_else(|| die("--dataset-dir needs a directory")),
                ));
            }
            "--dataset-merge" => {
                // Consumes every remaining argument as a shard directory.
                dataset_merge.extend(args.by_ref().map(std::path::PathBuf::from));
                if dataset_merge.is_empty() {
                    die("--dataset-merge needs at least one shard directory");
                }
            }
            "--format" => {
                match args.next().as_deref() {
                    Some("json") => format_json = true,
                    Some("text") => format_json = false,
                    _ => die("--format needs text or json"),
                };
            }
            "--cache-dir" => {
                cache_dir = Some(std::path::PathBuf::from(
                    args.next()
                        .unwrap_or_else(|| die("--cache-dir needs a directory")),
                ));
            }
            "--cache-gc" => {
                cache_gc = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--cache-gc needs a byte budget")),
                );
            }
            "--failure-policy" => {
                let spec = args
                    .next()
                    .unwrap_or_else(|| die("--failure-policy needs abort or quarantine[:N]"));
                failure_policy = parse_failure_policy(&spec);
            }
            "--max-events" => {
                max_events = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--max-events needs a positive integer")),
                );
            }
            "--chrome-trace" => {
                chrome_trace = Some(std::path::PathBuf::from(
                    args.next()
                        .unwrap_or_else(|| die("--chrome-trace needs a file path")),
                ));
            }
            "--table1" | "--table2" | "--fig4" | "--fig5" | "--fig6" | "--fig7" | "--heatmap"
            | "--delay-summary" | "--dos-summary" | "--ablations" | "--bench-campaign"
            | "--bench-scale" => {
                artefacts.push(arg.trim_start_matches("--").into());
            }
            "--fleets" => {
                let spec = args
                    .next()
                    .unwrap_or_else(|| die("--fleets needs a comma-separated list of sizes"));
                fleets = spec
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<usize>()
                            .ok()
                            .filter(|n| *n > 0)
                            .unwrap_or_else(|| die("--fleets needs positive integers"))
                    })
                    .collect();
            }
            "--stride" => {
                stride = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--stride needs a positive integer"));
            }
            "--threads" => {
                threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--threads needs a positive integer"));
            }
            "--csv" => {
                csv_dir = Some(std::path::PathBuf::from(
                    args.next()
                        .unwrap_or_else(|| die("--csv needs a directory")),
                ));
            }
            "--help" | "-h" => {
                println!(
                    "repro: regenerate the ComFASE paper's tables and figures\n\
                     usage: repro [--all|--table1|--table2|--fig4|--fig5|--fig6|--fig7|\
                     --delay-summary|--dos-summary|--bench-campaign|--bench-scale] \
                     [--stride N] [--threads N] [--fleets A,B,..]\n\
                     \x20      [--metrics] [--progress|--quiet] [--chrome-trace FILE] [--csv DIR]\n\
                     \x20      [--journal PATH] [--cache-dir DIR]  (--journal continues an existing journal)\n\
                     \x20      [--claim-dir DIR] [--worker-id ID] [--steal-after N] [--claim-units N]\n\
                     \x20      [--failure-policy abort|quarantine[:N]]\n\
                     \x20      [--max-events N] [--format text|json]\n\
                     \x20      [--dataset-dir DIR] [--dataset-merge DIR..]\n\
                     \x20      [--merge JOURNAL..]  (merges worker journals and exits)\n\
                     \x20      [--cache-gc MAX_BYTES]  (collects the cache and exits)"
                );
                std::process::exit(0);
            }
            other => die(&format!("unknown argument {other}")),
        }
    }
    if artefacts.is_empty() {
        artefacts.push("all".into());
    }
    if progress && quiet {
        die("--progress and --quiet are mutually exclusive");
    }
    if claim_dir.is_some() && journal.is_none() {
        die("--claim-dir requires --journal (the worker journal is what --merge consumes)");
    }
    if claim_dir.is_none() && (worker_id.is_some() || claim_units.is_some()) {
        die("--worker-id and --claim-units only make sense with --claim-dir");
    }
    if cache_gc.is_some() && cache_dir.is_none() {
        die("--cache-gc requires --cache-dir (the cache to collect)");
    }
    Options {
        artefacts,
        stride,
        threads,
        csv_dir,
        metrics,
        progress,
        quiet,
        chrome_trace,
        journal,
        claim_dir,
        worker_id,
        steal_after,
        claim_units,
        merge,
        format_json,
        dataset_dir,
        dataset_merge,
        cache_dir,
        cache_gc,
        failure_policy,
        max_events,
        fleets,
    }
}

/// Parses `abort`, `quarantine` (unbounded) or `quarantine:N` (circuit
/// breaker after N failures).
fn parse_failure_policy(spec: &str) -> FailurePolicy {
    match spec {
        "abort" => FailurePolicy::Abort,
        "quarantine" => FailurePolicy::quarantine(),
        other => match other.strip_prefix("quarantine:").map(str::parse) {
            Some(Ok(max_failures)) => FailurePolicy::Quarantine { max_failures },
            _ => die("--failure-policy needs abort or quarantine[:N]"),
        },
    }
}

/// Writes a campaign artifact into `results/`, creating the directory.
fn write_results_file(name: &str, contents: &[u8]) {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(name);
    std::fs::write(&path, contents).expect("write results file");
    eprintln!("wrote {}", path.display());
}

fn write_csv(opts: &Options, name: &str, contents: &str) {
    let Some(dir) = &opts.csv_dir else { return };
    std::fs::create_dir_all(dir).expect("create csv dir");
    let path = dir.join(name);
    std::fs::write(&path, contents).expect("write csv");
    eprintln!("wrote {}", path.display());
}

fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2);
}

fn wants(opts: &Options, name: &str) -> bool {
    opts.artefacts.iter().any(|a| a == name || a == "all")
}

fn obs_config(opts: &Options) -> ObsConfig {
    if opts.metrics {
        ObsConfig::metrics_only()
    } else {
        ObsConfig::disabled()
    }
}

/// The supervision config shared by the campaign runs, in the default
/// execution mode. The journal is bound to one campaign identity (seed +
/// setup + full-config fingerprint), so only the delay campaign — the
/// long one worth checkpointing and splitting — gets it. The result
/// cache keys every entry by its own campaign configuration, so it is
/// safe to share across campaigns.
fn run_config(opts: &Options, with_journal: bool) -> RunConfig {
    RunConfig {
        failure_policy: opts.failure_policy,
        journal: if with_journal {
            opts.journal.clone()
        } else {
            None
        },
        cache: cache_store(opts),
        ..RunConfig::default()
    }
}

/// Opens the content-addressed result cache at `--cache-dir`, if set.
fn cache_store(opts: &Options) -> Option<Arc<dyn ExperimentCache>> {
    opts.cache_dir.as_ref().map(|dir| {
        let cache =
            DiskCache::create(dir).unwrap_or_else(|e| die(&format!("cannot open cache dir: {e}")));
        Arc::new(cache) as Arc<dyn ExperimentCache>
    })
}

fn event_budget(opts: &Options) -> EventBudget {
    EventBudget {
        max_delivered: opts.max_events,
        ..EventBudget::UNLIMITED
    }
}

/// Prints the per-kind failure summary of a quarantined campaign, if any
/// experiments failed.
fn report_failures(result: &CampaignResult) {
    if result.failures.is_empty() {
        return;
    }
    eprintln!(
        "{} experiment(s) failed and were quarantined:",
        result.failures.len()
    );
    for (kind, count) in result.failure_summary() {
        eprintln!("  {kind}: {count}");
    }
    for failure in &result.failures {
        eprintln!(
            "  #{}: [{}] {}",
            failure.index,
            failure.kind.name(),
            failure.payload
        );
    }
}

fn run_delay(opts: &Options, observer: &ReproObserver) -> CampaignResult {
    // Dataset export needs per-frame/per-step capture, which is part of
    // the campaign identity — only the exporting run gets it.
    let mut obs = obs_config(opts);
    if opts.dataset_dir.is_some() {
        obs = obs.with_dataset();
    }
    let campaign = delay_campaign(opts.stride)
        .with_obs(obs)
        .with_budget(event_budget(opts));
    let total = campaign.nr_experiments();
    // Claim-driven execution: open (or join) the shared claim ledger and
    // claim work units dynamically.
    let work = opts.claim_dir.as_ref().map(|dir| {
        let worker_id = opts
            .worker_id
            .clone()
            .unwrap_or_else(|| format!("worker-{}", std::process::id()));
        let source = ClaimSource::for_campaign(
            dir,
            &campaign,
            &worker_id,
            opts.claim_units,
            opts.steal_after,
        )
        .unwrap_or_else(|e| die(&format!("cannot open claim ledger: {e}")));
        if !opts.quiet {
            eprintln!(
                "claim ledger {}: {} unit(s) of {} experiment(s) each, worker id {worker_id}",
                dir.display(),
                source.ledger().units().len(),
                source.ledger().meta().unit_size,
            );
        }
        Arc::new(source) as Arc<dyn comfase::campaign::WorkSource>
    });
    if !opts.quiet {
        eprintln!(
            "running delay campaign: {total} experiments (stride {}) on {} thread(s)...",
            opts.stride, opts.threads
        );
    }
    // Streaming dataset exporter: one shard file per experiment, written
    // before the experiment's journal row so a continued journal never
    // leaves holes.
    let dataset = opts.dataset_dir.as_ref().map(|dir| {
        let sink =
            DirSink::create(dir).unwrap_or_else(|e| die(&format!("cannot open dataset dir: {e}")));
        Arc::new(sink) as Arc<dyn DatasetSink>
    });
    let t0 = Instant::now();
    let config = RunConfig {
        work,
        dataset,
        ..run_config(opts, true)
    };
    let result = campaign
        .run(opts.threads, &config, observer)
        .unwrap_or_else(|e| die(&format!("delay campaign failed: {e}")));
    if !opts.quiet {
        eprintln!("\ndelay campaign finished in {:.1?}", t0.elapsed());
        if let Some(dir) = &opts.dataset_dir {
            eprintln!(
                "dataset shards in {} (merge with --dataset-merge {})",
                dir.display(),
                dir.display()
            );
        }
    }
    report_failures(&result);
    if opts.cache_dir.is_some() {
        write_cache_stats(&result);
    }
    result
}

/// Writes the result-cache counters of a campaign run
/// (`results/cache_stats.json`).
fn write_cache_stats(result: &CampaignResult) {
    let stats = &result.stats;
    let json = Value::object([
        ("cache_hits", stats.cache_hits.into()),
        ("cache_misses", stats.cache_misses.into()),
        ("cache_stale", stats.cache_stale.into()),
        ("hit_rate", stats.cache_hit_rate().into()),
        (
            "simulated_runs",
            (stats.forked_runs + stats.scratch_runs + stats.chain_forked_runs).into(),
        ),
    ]);
    write_results_file(
        "cache_stats.json",
        comfase_json::to_string_pretty(&json).as_bytes(),
    );
    eprintln!(
        "cache: {} hit(s), {} miss(es), {} stale ({:.0}% hit rate)",
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_stale,
        100.0 * stats.cache_hit_rate()
    );
}

fn main() {
    let opts = parse_args();
    let observer = ReproObserver::new(&opts);

    // Cache-gc mode: collect the cache down to the byte budget and exit
    // — nothing is simulated. Maintenance-time only: concurrent writers
    // would lose in-flight temp files to the orphan sweep.
    if let Some(max_bytes) = opts.cache_gc {
        let dir = opts.cache_dir.as_ref().expect("validated in parse_args");
        let cache =
            DiskCache::create(dir).unwrap_or_else(|e| die(&format!("cannot open cache dir: {e}")));
        let stats = cache
            .gc(max_bytes)
            .unwrap_or_else(|e| die(&format!("cache gc failed: {e}")));
        let json = comfase_json::to_string_pretty(&stats);
        write_results_file("gc_stats.json", json.as_bytes());
        if opts.format_json {
            println!("{json}");
        } else {
            println!(
                "cache gc: kept {} entr(ies) / {} byte(s) (budget {max_bytes}); evicted {} \
                 ({} byte(s)), swept {} stale + {} temp file(s)",
                stats.entries_after,
                stats.bytes_after,
                stats.entries_evicted,
                stats.bytes_evicted,
                stats.stale_removed,
                stats.temps_removed,
            );
        }
        return;
    }

    // Dataset-merge mode: reassemble per-experiment dataset shards into
    // the corpus artifact and exit — nothing is simulated.
    if !opts.dataset_merge.is_empty() {
        eprintln!(
            "merging dataset shards from {} director(ies)...",
            opts.dataset_merge.len()
        );
        let out = std::path::Path::new("results").join("dataset");
        let report = match merge_dataset_dirs(&opts.dataset_merge, &out) {
            Ok(report) => report,
            Err(e) if opts.format_json => {
                let json = Value::object([("error", e.to_string().into())]);
                println!("{}", comfase_json::to_string_pretty(&json));
                std::process::exit(2);
            }
            Err(e) => die(&format!("dataset merge failed: {e}")),
        };
        eprintln!("wrote {}", report.corpus_path.display());
        eprintln!("wrote {}", report.manifest_path.display());
        println!(
            "merged {} dataset shard(s): {} byte(s), fnv1a64 {:016x} \
             (byte-identical regardless of worker count)",
            report.shards, report.corpus_bytes, report.corpus_fnv1a64
        );
        return;
    }

    // Merge mode: reassemble worker journals into the campaign artifact
    // and exit — nothing is simulated.
    if !opts.merge.is_empty() {
        eprintln!("merging {} worker journal(s)...", opts.merge.len());
        let metrics = match merge_journals(&opts.merge) {
            Ok(metrics) => metrics,
            Err(failure) if opts.format_json => {
                // Machine-readable refusal: the exact coverage shortfall
                // (when that is the refusal) rides along as data.
                let json = Value::object([
                    ("error", failure.error.to_string().into()),
                    ("coverage_gap", comfase_json::to_value(&failure.gap)),
                ]);
                println!("{}", comfase_json::to_string_pretty(&json));
                std::process::exit(2);
            }
            Err(failure) => die(&format!("merge failed: {failure}")),
        };
        write_results_file("metrics_merged.json", &metrics.to_json_bytes());
        println!(
            "merged {} experiment rows (byte-identical to a single-process run)",
            metrics.experiments
        );
        return;
    }

    if let Some(path) = &opts.chrome_trace {
        write_chrome_trace(path);
    }

    if wants(&opts, "table1") {
        println!("{}", report::render_table1());
    }
    if wants(&opts, "table2") {
        println!(
            "{}",
            report::render_table2(
                &AttackCampaignSetup::paper_delay_campaign(),
                &AttackCampaignSetup::paper_dos_campaign(),
            )
        );
    }

    if wants(&opts, "fig4") {
        let engine = paper_engine();
        let golden = engine.golden_run().expect("golden run");
        println!("{}", report::render_fig4(&golden, 0.5));
        write_csv(&opts, "fig4.csv", &report::fig4_csv(&golden, 0.1));
        println!(
            "golden run: max deceleration {:.3} m/s² (paper: 1.53 m/s²), collisions: {}\n",
            golden.max_decel(),
            golden.trace.collisions.len()
        );
    }

    let needs_delay = ["fig5", "fig6", "fig7", "heatmap", "delay-summary"]
        .iter()
        .any(|a| wants(&opts, a));
    if needs_delay {
        let result = run_delay(&opts, &observer);
        if let Some(metrics) = &result.metrics {
            write_results_file("metrics.json", &metrics.to_json_bytes());
            write_csv(
                &opts,
                "loss_breakdown.csv",
                &report::loss_breakdown_csv(metrics),
            );
            if wants(&opts, "delay-summary") {
                println!("{}", report::render_loss_breakdown(metrics));
            }
        }
        if wants(&opts, "fig5") {
            let map = analysis::by_duration(&result.records);
            println!("{}", report::render_fig5(&map));
            println!("{}", report::render_saturation("duration", &map, 0.1));
            write_csv(
                &opts,
                "fig5.csv",
                &report::class_histogram_csv("duration_s", &map),
            );
        }
        if wants(&opts, "fig6") {
            let map = analysis::by_value(&result.records);
            println!("{}", report::render_fig6(&map));
            println!("{}", report::render_saturation("PD value", &map, 0.1));
            write_csv(
                &opts,
                "fig6.csv",
                &report::class_histogram_csv("pd_s", &map),
            );
        }
        if wants(&opts, "heatmap") {
            println!(
                "{}",
                report::render_heatmap(&analysis::by_start_and_value(&result.records))
            );
        }
        if wants(&opts, "fig7") {
            let map = analysis::by_start_time(&result.records);
            println!("{}", report::render_fig7(&map));
            write_csv(
                &opts,
                "fig7.csv",
                &report::class_histogram_csv("start_s", &map),
            );
        }
        write_csv(
            &opts,
            "delay_records.csv",
            &report::records_csv(&result.records),
        );
        if wants(&opts, "delay-summary") {
            println!("== Delay campaign summary (paper §IV-C.1) ==");
            println!(
                "{}",
                report::render_summary(&analysis::summary(&result.records))
            );
            println!(
                "{}",
                report::render_collider_split(&analysis::collider_split(&result.records))
            );
            println!(
                "golden-run max deceleration used as Negligible threshold: {:.3} m/s²\n",
                result.params.golden_max_decel_mps2
            );
        }
    }

    if wants(&opts, "dos-summary") {
        let campaign = dos_campaign()
            .with_obs(obs_config(&opts))
            .with_budget(event_budget(&opts));
        if !opts.quiet {
            eprintln!(
                "running DoS campaign: {} experiments...",
                campaign.nr_experiments()
            );
        }
        let result = campaign
            .run(opts.threads, &run_config(&opts, false), &observer)
            .unwrap_or_else(|e| die(&format!("DoS campaign failed: {e}")));
        report_failures(&result);
        if let Some(metrics) = &result.metrics {
            write_results_file("metrics_dos.json", &metrics.to_json_bytes());
            println!("{}", report::render_loss_breakdown(metrics));
        }
        println!("== DoS campaign summary (paper §IV-C.2) ==");
        println!(
            "{}",
            report::render_summary(&analysis::summary(&result.records))
        );
        println!(
            "{}",
            report::render_collider_split(&analysis::collider_split(&result.records))
        );
        let bands: BTreeMap<_, _> = analysis::colliders_by_start(&result.records);
        println!("{}", report::render_dos_bands(&bands));
        write_csv(
            &opts,
            "dos_records.csv",
            &report::records_csv(&result.records),
        );
    }

    if wants(&opts, "ablations") {
        run_ablations(&opts);
    }

    // Deliberately not part of --all: it runs the delay campaign three times.
    if opts.artefacts.iter().any(|a| a == "bench-campaign") {
        run_bench_campaign(&opts);
    }

    // Deliberately not part of --all: it runs every substrate twice per
    // fleet size plus a six-way campaign identity check.
    if opts.artefacts.iter().any(|a| a == "bench-scale") {
        run_bench_scale(&opts);
    }

    if opts.metrics {
        write_profile(&opts, &observer.profiler);
    }
}

/// Writes the host-side wall-clock profile (`results/profile.json`).
///
/// Wall-clock numbers live here and only here — `metrics.json` carries
/// exclusively sim-derived, deterministic values.
fn write_profile(opts: &Options, profiler: &HostProfiler) {
    let phases: BTreeMap<String, f64> = profiler.report().into_iter().collect();
    let json = Value::object([
        ("threads", opts.threads.into()),
        ("stride", opts.stride.into()),
        ("phase_wall_s", phases.into()),
        ("total_wall_s", profiler.total_seconds().into()),
    ]);
    write_results_file(
        "profile.json",
        comfase_json::to_string_pretty(&json).as_bytes(),
    );
}

/// Runs the attack-free golden run with full event tracing and writes a
/// chrome://tracing / Perfetto-loadable JSON trace.
fn write_chrome_trace(path: &std::path::Path) {
    eprintln!("tracing golden run for {}...", path.display());
    let engine = paper_engine().with_obs(ObsConfig::with_trace());
    let golden = engine.golden_run().expect("golden run");
    let trace = chrome_trace_json(&golden.obs.events);
    if golden.obs.dropped_events > 0 {
        eprintln!(
            "  note: {} events beyond the trace capacity were dropped",
            golden.obs.dropped_events
        );
    }
    std::fs::write(path, trace).expect("write chrome trace");
    eprintln!("wrote {}", path.display());
}

/// Times the delay campaign in all three execution modes, verifies they
/// agree bit for bit, and writes machine-readable per-mode results
/// (wall time, speedup over from-scratch, and snapshot/DAG reuse stats)
/// to `BENCH_campaign.json`.
fn run_bench_campaign(opts: &Options) {
    let campaign = delay_campaign(opts.stride);
    let total = campaign.nr_experiments();
    eprintln!(
        "benchmarking campaign throughput: {total} experiments (stride {}) on {} thread(s)...",
        opts.stride, opts.threads
    );

    let modes = [
        ("from_scratch", ExecutionMode::FromScratch),
        ("prefix_fork", ExecutionMode::PrefixFork),
        ("snapshot_dag", ExecutionMode::SnapshotDag),
    ];
    let mut walls = Vec::new();
    let mut reference: Option<&_> = None;
    let mut results = Vec::new();
    for &(name, mode) in &modes {
        let t = Instant::now();
        let result = campaign
            .run_with_observer(opts.threads, mode, &NullObserver)
            .expect("campaign runs");
        let wall = t.elapsed();
        eprintln!("  {name:<13} {wall:.1?}");
        walls.push(wall);
        results.push((name, result));
    }
    for (name, result) in &results {
        match reference {
            None => reference = Some(&result.records),
            Some(r) => assert_eq!(
                &result.records, r,
                "execution mode {name} must agree bit for bit with from-scratch"
            ),
        }
    }

    let scratch_wall = walls[0];
    let per_mode: Vec<Value> = results
        .iter()
        .zip(&walls)
        .map(|((name, result), wall)| {
            let stats = &result.stats;
            Value::object([
                ("mode", (*name).into()),
                ("wall_s", wall.as_secs_f64().into()),
                (
                    "speedup_vs_scratch",
                    (scratch_wall.as_secs_f64() / wall.as_secs_f64()).into(),
                ),
                (
                    "experiments_per_sec",
                    (total as f64 / wall.as_secs_f64()).into(),
                ),
                ("prefix_snapshots", stats.prefix_snapshots.into()),
                ("forked_runs", stats.forked_runs.into()),
                ("scratch_runs", stats.scratch_runs.into()),
                ("attack_chains", stats.attack_chains.into()),
                ("chain_forked_runs", stats.chain_forked_runs.into()),
                ("dag_depth", stats.dag_depth.into()),
                ("snapshot_hit_rate", stats.snapshot_hit_rate().into()),
                ("level_hit_rates", stats.level_hit_rates().to_vec().into()),
            ])
        })
        .collect();

    let fork_wall = walls[1];
    let dag_wall = walls[2];
    let speedup = scratch_wall.as_secs_f64() / fork_wall.as_secs_f64();
    let dag_speedup = scratch_wall.as_secs_f64() / dag_wall.as_secs_f64();
    let cache = bench_cache(opts, total);
    let dataset = bench_dataset(opts);
    let json = Value::object([
        ("experiments", total.into()),
        ("stride", opts.stride.into()),
        ("threads", opts.threads.into()),
        (
            "available_parallelism",
            comfase_bench::default_threads().into(),
        ),
        ("scratch_wall_s", scratch_wall.as_secs_f64().into()),
        ("fork_wall_s", fork_wall.as_secs_f64().into()),
        ("dag_wall_s", dag_wall.as_secs_f64().into()),
        ("speedup", speedup.into()),
        ("dag_speedup", dag_speedup.into()),
        (
            "experiments_per_sec",
            (total as f64 / dag_wall.as_secs_f64()).into(),
        ),
        ("modes", per_mode.into()),
        ("cache", cache),
        ("dataset", dataset),
    ]);
    let path = std::path::Path::new("BENCH_campaign.json");
    std::fs::write(path, comfase_json::to_string_pretty(&json)).expect("write BENCH_campaign.json");
    println!(
        "campaign throughput: {speedup:.2}x prefix-fork, {dag_speedup:.2}x snapshot-dag \
         (vs from-scratch) on {} thread(s)",
        opts.threads
    );
    eprintln!("wrote {}", path.display());
}

/// Benchmarks the content-addressed result cache on the same delay
/// campaign: a cold then a warm pass, where the warm pass must simulate
/// no experiment (only the golden run, which is never cached) and
/// reproduce the simulated metrics artifact byte for byte. Returns the
/// `"cache"` section of `BENCH_campaign.json`.
fn bench_cache(opts: &Options, total: usize) -> Value {
    let campaign = delay_campaign(opts.stride).with_obs(ObsConfig::metrics_only());
    let scratch = std::env::temp_dir().join(format!("comfase-bench-dist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("create bench scratch dir");

    // Reference artifact (with telemetry — the artifact under test).
    let reference_bytes = campaign
        .run(opts.threads, &RunConfig::default(), &NullObserver)
        .expect("reference runs")
        .metrics
        .as_ref()
        .expect("metrics collection was enabled")
        .to_json_bytes();

    // Cold then warm pass over the result cache.
    let cache_dir = scratch.join("cache");
    let cached_config = || RunConfig {
        cache: Some(
            Arc::new(DiskCache::create(&cache_dir).expect("cache dir opens"))
                as Arc<dyn ExperimentCache>,
        ),
        ..RunConfig::default()
    };
    let t = Instant::now();
    campaign
        .run(opts.threads, &cached_config(), &NullObserver)
        .expect("cold cache pass runs");
    let cold_wall = t.elapsed();
    let t = Instant::now();
    let warm = campaign
        .run(opts.threads, &cached_config(), &NullObserver)
        .expect("warm cache pass runs");
    let warm_wall = t.elapsed();
    assert_eq!(
        warm.stats.cache_hits, total,
        "warm pass must hit for every experiment"
    );
    assert_eq!(
        warm.stats.forked_runs + warm.stats.scratch_runs + warm.stats.chain_forked_runs,
        0,
        "a fully warm cache simulates no experiment"
    );
    let warm_bytes = warm
        .metrics
        .as_ref()
        .expect("metrics collection was enabled")
        .to_json_bytes();
    assert_eq!(
        warm_bytes, reference_bytes,
        "warm-cache metrics must be byte-identical to the simulated artifact"
    );
    eprintln!(
        "  cache         cold {cold_wall:.1?}, warm {warm_wall:.1?} \
         ({:.0}% hit rate, no experiment simulated, byte-identical)",
        100.0 * warm.stats.cache_hit_rate()
    );
    let _ = std::fs::remove_dir_all(&scratch);

    Value::object([
        ("cold_wall_s", cold_wall.as_secs_f64().into()),
        ("warm_wall_s", warm_wall.as_secs_f64().into()),
        (
            "warm_speedup",
            (cold_wall.as_secs_f64() / warm_wall.as_secs_f64()).into(),
        ),
        ("warm_hits", warm.stats.cache_hits.into()),
        ("warm_hit_rate", warm.stats.cache_hit_rate().into()),
        ("warm_simulations", 0u32.into()),
        ("identical", true.into()),
    ])
}

/// Coarsest grid the dataset pass runs on. Each Table II experiment
/// exports ~6.4 MB of shard and the merge writes a corpus of the same
/// size, so the full grid would need ~150 GB; stride 8 is 32 experiments,
/// ~0.4 GB.
const DATASET_MIN_STRIDE: usize = 8;

/// Times the delay campaign with dataset export off vs on (telemetry on
/// in both), verifies the verdicts agree bit for bit and the exported
/// shard set merges into a complete corpus, and returns the `"dataset"`
/// section of `BENCH_campaign.json`. Runs on the `max(--stride, 8)` grid
/// (see [`DATASET_MIN_STRIDE`]) and records that grid's `stride` and
/// `experiments`. The export path must stay within the 10% overhead
/// budget (`overhead` in the section); with export off the dataset hot
/// paths are a single boolean test per frame/step.
fn bench_dataset(opts: &Options) -> Value {
    let scratch =
        std::env::temp_dir().join(format!("comfase-bench-dataset-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("create bench scratch dir");

    // Export off: the capture/export hot paths must cost nothing.
    let stride = opts.stride.max(DATASET_MIN_STRIDE);
    let campaign = delay_campaign(stride).with_obs(ObsConfig::metrics_only());
    let total = campaign.nr_experiments();
    let t = Instant::now();
    let off = campaign
        .run(opts.threads, &RunConfig::default(), &NullObserver)
        .expect("export-off pass runs");
    let off_wall = t.elapsed();

    // Export on: capture enabled, every experiment streamed to a shard.
    let shard_dir = scratch.join("shards");
    let campaign = delay_campaign(stride).with_obs(ObsConfig::metrics_only().with_dataset());
    let config = RunConfig {
        dataset: Some(
            Arc::new(DirSink::create(&shard_dir).expect("dataset dir opens"))
                as Arc<dyn DatasetSink>,
        ),
        ..RunConfig::default()
    };
    let t = Instant::now();
    let on = campaign
        .run(opts.threads, &config, &NullObserver)
        .expect("export-on pass runs");
    let on_wall = t.elapsed();

    assert_eq!(
        on.records, off.records,
        "dataset export must not change a single verdict"
    );
    let report = merge_dataset_dirs(&[shard_dir], &scratch.join("merged"))
        .expect("exported shards merge into a complete corpus");
    assert_eq!(
        report.shards, total,
        "every experiment exports exactly one shard"
    );
    let overhead = on_wall.as_secs_f64() / off_wall.as_secs_f64() - 1.0;
    eprintln!(
        "  dataset       {total} experiments (stride {stride}): off {off_wall:.1?}, \
         on {on_wall:.1?} ({:+.1}% overhead, {} corpus byte(s), fnv1a64 {:016x})",
        100.0 * overhead,
        report.corpus_bytes,
        report.corpus_fnv1a64
    );
    let _ = std::fs::remove_dir_all(&scratch);

    Value::object([
        ("stride", stride.into()),
        ("experiments", total.into()),
        ("off_wall_s", off_wall.as_secs_f64().into()),
        ("on_wall_s", on_wall.as_secs_f64().into()),
        ("overhead", overhead.into()),
        ("overhead_budget", 0.10.into()),
        ("shards", report.shards.into()),
        ("corpus_bytes", report.corpus_bytes.into()),
        (
            "corpus_fnv1a64",
            format!("{:016x}", report.corpus_fnv1a64).into(),
        ),
        ("records_identical", true.into()),
    ])
}

/// Times the indexed vs brute-force hot paths at growing fleet sizes,
/// verifies bit-identical outcomes (substrate state, channel counters, and
/// campaign `metrics.json` bytes across indexing substrates × execution
/// modes) and writes machine-readable results to `BENCH_scale.json`.
fn run_bench_scale(opts: &Options) {
    use comfase_bench::scale;

    const ROUNDS: usize = 50;
    eprintln!(
        "benchmarking hot-path indexes: fleets {:?}, {ROUNDS} rounds each, both substrates...",
        opts.fleets
    );
    let mut points = Vec::new();
    for &fleet in &opts.fleets {
        let p = scale::run_scale_point(fleet, ROUNDS);
        eprintln!(
            "  fleet {:>5}: indexed {:>9.1?}  brute {:>9.1?}  speedup {:.2}x  \
             ({} links pruned, {} rebuilds, cell {:.1} m)",
            p.fleet,
            p.indexed_wall,
            p.brute_wall,
            p.speedup,
            p.links_pruned_by_grid,
            p.lane_rebuilds,
            p.grid_cell_m,
        );
        points.push(p);
    }

    // A small slice of the paper's delay campaign, run under all six
    // (indexing substrate × execution mode) combinations: the metrics
    // artifact must come out byte-identical every time.
    const IDENTITY_STRIDE: usize = 12;
    eprintln!(
        "verifying campaign metrics identity (stride {IDENTITY_STRIDE}, 6 configurations)..."
    );
    let mut reference: Option<Vec<u8>> = None;
    let mut experiments = 0;
    for mode in [
        ExecutionMode::SnapshotDag,
        ExecutionMode::PrefixFork,
        ExecutionMode::FromScratch,
    ] {
        for indexing in [IndexingMode::Indexed, IndexingMode::BruteForce] {
            let campaign = delay_campaign(IDENTITY_STRIDE)
                .with_obs(ObsConfig::metrics_only())
                .with_indexing(indexing);
            experiments = campaign.nr_experiments();
            let result = campaign
                .run_with_observer(opts.threads, mode, &NullObserver)
                .unwrap_or_else(|e| die(&format!("identity-check campaign failed: {e}")));
            let bytes = result
                .metrics
                .as_ref()
                .expect("metrics collection was enabled")
                .to_json_bytes();
            match &reference {
                None => reference = Some(bytes),
                Some(r) => assert_eq!(
                    *r, bytes,
                    "metrics.json must be byte-identical across indexing \
                     substrates ({indexing:?}) and execution modes ({mode:?})"
                ),
            }
        }
    }
    let metrics_bytes = reference.map_or(0, |r| r.len());

    let fleets: Vec<Value> = points
        .iter()
        .map(|p| {
            Value::object([
                ("fleet", p.fleet.into()),
                ("indexed_wall_s", p.indexed_wall.as_secs_f64().into()),
                ("brute_wall_s", p.brute_wall.as_secs_f64().into()),
                ("speedup", p.speedup.into()),
                ("links_planned", p.links_planned.into()),
                ("links_pruned_by_grid", p.links_pruned_by_grid.into()),
                ("lane_rebuilds", p.lane_rebuilds.into()),
                ("grid_cell_m", p.grid_cell_m.into()),
            ])
        })
        .collect();
    let json = Value::object([
        ("rounds", ROUNDS.into()),
        ("sender_stride", scale::SENDER_STRIDE.into()),
        ("pathloss_alpha", scale::SCALE_ALPHA.into()),
        (
            "available_parallelism",
            comfase_bench::default_threads().into(),
        ),
        ("fleets", fleets.into()),
        (
            "campaign_identity",
            Value::object([
                ("stride", IDENTITY_STRIDE.into()),
                ("experiments", experiments.into()),
                ("threads", opts.threads.into()),
                ("configurations", 6u32.into()),
                ("metrics_bytes", metrics_bytes.into()),
                ("identical", true.into()),
            ]),
        ),
    ]);
    let path = std::path::Path::new("BENCH_scale.json");
    std::fs::write(path, comfase_json::to_string_pretty(&json)).expect("write BENCH_scale.json");
    for p in &points {
        println!(
            "scale fleet {}: {:.2}x speedup (indexed vs brute force)",
            p.fleet, p.speedup
        );
    }
    eprintln!("wrote {}", path.display());
}

/// Runs the DoS campaign under four protection configurations and prints a
/// comparison table (paper §IV-C.3 discussion: redundancy mechanisms).
fn run_ablations(opts: &Options) {
    eprintln!("running protection ablations (4 × 25 DoS experiments)...");
    let build = |name: &'static str, f: &dyn Fn(&mut TrafficScenario)| {
        let mut scenario = TrafficScenario::paper_default();
        f(&mut scenario);
        let engine = Engine::new(scenario, CommModel::paper_default(), REPRO_SEED)
            .expect("paper presets are valid");
        let campaign = Campaign::new(engine, AttackCampaignSetup::paper_dos_campaign())
            .expect("valid campaign");
        let result = campaign
            .run(opts.threads, &RunConfig::default(), &NullObserver)
            .expect("campaign runs");
        (name, result)
    };
    let configs: Vec<(&'static str, CampaignResult)> = vec![
        build("unprotected (paper)", &|_| {}),
        build("radar safety monitor", &|s| {
            s.safety_monitor = Some(comfase_platoon::monitor::SafetyMonitorConfig::default());
        }),
        build("staleness failsafe 0.5s", &|s| {
            s.platoon.staleness_timeout_s = Some(0.5);
        }),
        build("monitor + failsafe", &|s| {
            s.safety_monitor = Some(comfase_platoon::monitor::SafetyMonitorConfig::default());
            s.platoon.staleness_timeout_s = Some(0.5);
        }),
    ];
    println!("== Protection ablations over the Table II DoS campaign ==");
    println!(
        "{:<24} | {:>7} | {:>7} | {:>11} | {:>14} | {:>11}",
        "configuration", "severe", "benign", "negligible", "non-effective", "collisions"
    );
    println!("{}", "-".repeat(90));
    for (name, result) in &configs {
        let s = analysis::summary(&result.records);
        let collisions: usize = result.records.iter().map(|r| r.verdict.nr_collisions).sum();
        println!(
            "{:<24} | {:>7} | {:>7} | {:>11} | {:>14} | {:>11}",
            name, s.severe, s.benign, s.negligible, s.non_effective, collisions
        );
    }
}
