//! `refine-experiments` — regenerate the paper's tables and figures.
//!
//! ```text
//! refine-experiments [fig4|table4|table5|table6|fig5|samples|ablation|all]
//!                    [--trials N] [--seed S] [--jobs N] [--apps A,B,...]
//!                    [--trace-out FILE] [--json] [--quiet] [--no-checkpoint]
//!                    [--no-convergence] [--checkpoint-interval N]
//!                    [--engine superblock|step]
//! refine-experiments trace-summary FILE
//! ```
//!
//! With no subcommand, `all` runs the full sweep (14 apps x 3 tools x
//! `--trials` runs; the paper's configuration is `--trials 1068`, the
//! default) and prints every artifact. The flags fill one
//! [`EngineConfig`], starting from its default (seed `0xB1ADE`).
//!
//! Scheduling: [`experiments::run_suite`] runs all selected `(app, tool)`
//! campaigns as one trial space sharded across `--jobs N` workers (default: available parallelism; any
//! jobs count produces bit-identical results). Instrumented artifacts are
//! compiled once per (app, tool) and shared across workers; the engine
//! summary reports wall-clock speedup and cache hit rate.
//!
//! Observability:
//!
//! * `--trace-out FILE` streams one JSON line of fault provenance per trial
//!   (tool, seed, target, site, opcode, bit, outcome, trap cause); if the
//!   file cannot be written, the sweep stops claiming trials, and the run
//!   prints one error and exits 1 without tables;
//! * `trace-summary FILE` aggregates such a file into an injection-site x
//!   outcome table, and rejects a malformed line naming its number and
//!   the cause;
//! * `--json` emits the suite results (outcome counts), the engine report
//!   (cache hits and misses, per-campaign speedup and work counters) and
//!   a metrics snapshot of what only telemetry records (latency,
//!   instruction-count and cycle histograms, trap-cause breakdown,
//!   per-phase compile times) as two-space-indented JSON on stdout instead
//!   of the text tables. Both JSON forms are rendered by
//!   [`refine_telemetry::json`];
//! * `--quiet` suppresses the live progress lines;
//! * `--no-checkpoint` disables golden-run checkpoint fast-forward for
//!   trials (slower; results are bit-identical either way);
//! * `--no-convergence` disables post-injection golden-convergence early
//!   exit only, keeping checkpoint fast-forward (same bit-identical
//!   guarantee — the convergence differential oracle);
//! * `--checkpoint-interval N` sets the initial golden-run snapshot
//!   interval in retired instructions (default 2048; must be nonzero);
//! * `--engine superblock|step` selects the trial execution engine:
//!   `superblock` (default) dispatches fused straight-line instruction
//!   runs; `step` is the exact oracle — every trial interpreted per
//!   instruction from the initial state, ignoring the checkpoint and
//!   convergence flags. Bit-identical outcome tables and traces either
//!   way; like `--no-checkpoint`, this stays outside the artifact-cache
//!   key.

use refine_campaign::campaign::CampaignResult;
use refine_campaign::engine::{CampaignStats, EngineConfig, EngineReport};
use refine_campaign::experiments::{self, run_suite, SuiteObserver, SuiteResults};
use refine_campaign::tools::{PreparedTool, Tool};
use refine_core::ExecEngine;
use refine_telemetry::json::Json;
use refine_telemetry::trace::{read_jsonl, TraceSummary};
use refine_telemetry::{MetricsSnapshot, TraceSink};

fn usage() -> ! {
    eprintln!(
        "usage: refine-experiments [fig4|table4|table5|table6|fig5|samples|ablation|all] \
         [--trials N] [--seed S] [--jobs N] [--apps A,B,...] \
         [--trace-out FILE] [--json] [--quiet] [--no-checkpoint] \
         [--no-convergence] [--checkpoint-interval N] [--engine superblock|step]\n\
         \x20      refine-experiments trace-summary FILE\n\
         (--engine step runs the exact oracle: no checkpoints, no convergence)"
    );
    std::process::exit(2);
}

/// The `--json` report: suite outcome tables, the engine's scheduling
/// report and the telemetry metrics snapshot.
fn report_json(suite: &SuiteResults, engine: &EngineReport, metrics: &MetricsSnapshot) -> Json {
    Json::object([
        ("suite", suite_json(suite)),
        ("engine", engine_json(engine)),
        ("metrics", metrics.to_json()),
    ])
}

fn suite_json(suite: &SuiteResults) -> Json {
    let apps = suite.apps.iter().map(|a| {
        Json::object([
            ("name", Json::Str(a.name.clone())),
            ("llfi", campaign_json(&a.llfi)),
            ("refine", campaign_json(&a.refine)),
            ("pinfi", campaign_json(&a.pinfi)),
        ])
    });
    Json::object([("apps", Json::Array(apps.collect())), ("trials", Json::U64(suite.trials))])
}

fn campaign_json(r: &CampaignResult) -> Json {
    let counts = Json::object([
        ("crash", Json::U64(r.counts.crash)),
        ("soc", Json::U64(r.counts.soc)),
        ("benign", Json::U64(r.counts.benign)),
    ]);
    Json::object([
        ("tool", Json::Str(r.tool.clone())),
        ("counts", counts),
        ("total_cycles", Json::U64(r.total_cycles)),
        ("population", Json::U64(r.population)),
        ("profile_cycles", Json::U64(r.profile_cycles)),
    ])
}

/// The `--json` rendering of the engine's scheduling report.
///
/// `busy_total` is the raw per-trial clock sum (can exceed `jobs * wall_ns`
/// under OS oversubscription); `busy_ns` and `speedup_capped` are capped at
/// what `jobs` workers could physically execute in `wall_ns`.
fn engine_json(report: &EngineReport) -> Json {
    let sb_dispatches: u64 = report.stats.iter().map(|s| s.sb_dispatches).sum();
    let sb_uops: u64 = report.stats.iter().map(|s| s.sb_uops).sum();
    let sb_fused: u64 = report.stats.iter().map(|s| s.sb_fused_instrs).sum();
    let sb_stepped: u64 = report.stats.iter().map(|s| s.sb_stepped_instrs).sum();
    let sb_total = sb_fused + sb_stepped;
    let superblock = Json::object([
        ("dispatches", Json::U64(sb_dispatches)),
        ("uops", Json::U64(sb_uops)),
        ("fused_instrs", Json::U64(sb_fused)),
        ("stepped_instrs", Json::U64(sb_stepped)),
        (
            "fused_instr_share",
            Json::F64(if sb_total == 0 { 0.0 } else { sb_fused as f64 / sb_total as f64 }),
        ),
    ]);
    let cache = Json::object([
        ("hits", Json::U64(report.cache.hits)),
        ("misses", Json::U64(report.cache.misses)),
        ("prepare_ns", Json::U64(report.cache.prepare_ns)),
    ]);
    Json::object([
        ("jobs", Json::U64(report.jobs as u64)),
        ("wall_ns", Json::U64(report.wall_ns)),
        ("busy_ns", Json::U64(report.busy_capped())),
        ("busy_total", Json::U64(report.busy_ns)),
        ("speedup", Json::F64(report.speedup())),
        ("speedup_capped", Json::F64(report.speedup_capped())),
        ("cache_hit_rate", Json::F64(report.cache.hit_rate())),
        ("cache", cache),
        ("superblock", superblock),
        ("campaigns", Json::Array(report.stats.iter().map(stats_json).collect())),
    ])
}

fn stats_json(s: &CampaignStats) -> Json {
    Json::object([
        ("app", Json::Str(s.app.clone())),
        ("tool", Json::Str(s.tool.clone())),
        ("busy_ns", Json::U64(s.busy_ns)),
        ("wall_ns", Json::U64(s.wall_ns)),
        ("speedup", Json::F64(s.speedup)),
        ("prepare_ms", Json::F64(s.prepare_ms)),
        ("ckpt_restores", Json::U64(s.ckpt_restores)),
        ("ckpt_skipped_instrs", Json::U64(s.ckpt_skipped_instrs)),
        ("conv_hits", Json::U64(s.conv_hits)),
        ("conv_checked_instrs", Json::U64(s.conv_checked_instrs)),
        ("conv_saved_instrs", Json::U64(s.conv_saved_instrs)),
        ("sb_dispatches", Json::U64(s.sb_dispatches)),
        ("sb_uops", Json::U64(s.sb_uops)),
        ("sb_fused_instrs", Json::U64(s.sb_fused_instrs)),
        ("sb_stepped_instrs", Json::U64(s.sb_stepped_instrs)),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cmd: Option<String> = None;
    let mut cfg = EngineConfig::default();
    let mut apps: Option<Vec<String>> = None;
    let mut trace_out: Option<String> = None;
    let mut summary_file: Option<String> = None;
    let mut json = false;
    let mut quiet = false;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "fig4" | "table4" | "table5" | "table6" | "fig5" | "samples" | "ablation" | "all" => {
                if let Some(prev) = &cmd {
                    eprintln!(
                        "refine-experiments: duplicate subcommand `{}` (already got `{prev}`)",
                        args[i]
                    );
                    usage();
                }
                cmd = Some(args[i].clone());
            }
            "trace-summary" => {
                if let Some(prev) = &cmd {
                    eprintln!(
                        "refine-experiments: duplicate subcommand `trace-summary` \
                         (already got `{prev}`)"
                    );
                    usage();
                }
                cmd = Some("trace-summary".to_string());
                i += 1;
                summary_file = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--trials" => {
                i += 1;
                cfg.trials = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
                if cfg.trials == 0 {
                    eprintln!("refine-experiments: --trials must be at least 1");
                    usage();
                }
            }
            "--seed" => {
                i += 1;
                cfg.seed = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            }
            "--jobs" => {
                i += 1;
                cfg.jobs = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            }
            "--apps" => {
                i += 1;
                let names: Vec<String> = args
                    .get(i)
                    .unwrap_or_else(|| usage())
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .collect();
                for n in &names {
                    if let Err(e) = refine_benchmarks::lookup(n) {
                        eprintln!("refine-experiments: {e}");
                        std::process::exit(2);
                    }
                }
                apps = Some(names);
            }
            "--trace-out" => {
                i += 1;
                trace_out = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--json" => json = true,
            "--quiet" => quiet = true,
            "--no-checkpoint" => cfg.checkpoint = false,
            "--engine" => {
                i += 1;
                cfg.engine = args
                    .get(i)
                    .and_then(|s| ExecEngine::parse(s))
                    .unwrap_or_else(|| {
                        eprintln!(
                            "refine-experiments: --engine must be `superblock` or `step`"
                        );
                        usage()
                    });
            }
            "--no-convergence" => cfg.convergence = false,
            "--checkpoint-interval" => {
                i += 1;
                cfg.checkpoint_interval =
                    args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
                if cfg.checkpoint_interval == 0 {
                    eprintln!("refine-experiments: --checkpoint-interval must be nonzero");
                    usage();
                }
            }
            _ => usage(),
        }
        i += 1;
    }
    let cmd = cmd.unwrap_or_else(|| "all".to_string());

    if cmd == "trace-summary" {
        let file = summary_file.expect("trace-summary requires a file");
        let records = read_jsonl(std::path::Path::new(&file)).unwrap_or_else(|e| {
            eprintln!("refine-experiments: {e}");
            std::process::exit(1);
        });
        print!("{}", TraceSummary::from_records(&records).render());
        return;
    }

    // Campaigns feed the metrics registry (latency/instrs/cycles
    // histograms, trap-cause breakdown, phase timings) from here on.
    refine_telemetry::enable();

    if cmd == "ablation" {
        let apps = apps.unwrap_or_else(|| {
            vec!["HPCCG-1.0".into(), "CoMD".into(), "XSBench".into()]
        });
        print!("{}", experiments::class_ablation(&apps, &cfg));
        return;
    }

    if cmd == "samples" {
        // Profiling only: report populations and the required sample counts.
        let mut pops = Vec::new();
        for b in refine_benchmarks::all() {
            if let Some(sel) = &apps {
                if !sel.iter().any(|n| n == b.name) {
                    continue;
                }
            }
            let p = PreparedTool::prepare(&b.module(), Tool::Pinfi);
            pops.push((b.name.to_string(), p.population));
        }
        print!("{}", experiments::samples_table(&pops));
        return;
    }

    let sink = trace_out.as_ref().map(|path| {
        TraceSink::to_file(std::path::Path::new(path)).unwrap_or_else(|e| {
            eprintln!("refine-experiments: cannot open {path}: {e}");
            std::process::exit(1);
        })
    });

    if !quiet {
        eprintln!(
            "running campaigns: trials={} seed={} jobs={}",
            cfg.trials,
            cfg.seed,
            if cfg.jobs == 0 { "auto".to_string() } else { cfg.jobs.to_string() }
        );
    }
    let obs = SuiteObserver { live_progress: !quiet, sink: sink.as_ref() };
    let (suite, engine) = run_suite(&cfg, apps.as_deref(), &obs);
    if let (Some(sink), Some(path)) = (&sink, &trace_out) {
        if let Err(e) = sink.flush() {
            eprintln!("refine-experiments: cannot write trace {path}: {e}");
            std::process::exit(1);
        }
    }

    if json {
        let metrics = refine_telemetry::registry().snapshot();
        println!("{}", report_json(&suite, &engine, &metrics).pretty());
        return;
    }
    if !quiet {
        eprint!("{}", experiments::engine_summary(&engine));
    }

    match cmd.as_str() {
        "fig4" => {
            print!("{}", experiments::fig4(&suite));
            println!();
            print!("{}", experiments::fig4_pmf(&suite));
        }
        "table4" => print!("{}", experiments::table4(&suite)),
        "table5" => print!("{}", experiments::table5(&suite)),
        "table6" => print!("{}", experiments::table6(&suite)),
        "fig5" => print!("{}", experiments::fig5(&suite)),
        "all" => {
            println!("{}", experiments::fig4(&suite));
            println!("{}", experiments::fig4_pmf(&suite));
            println!("{}", experiments::table4(&suite));
            println!("{}", experiments::table5(&suite));
            println!("{}", experiments::table6(&suite));
            println!("{}", experiments::fig5(&suite));
        }
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refine_campaign::engine::CacheStats;
    use refine_telemetry::metrics::HistogramSnapshot;
    use refine_telemetry::span::PhasesSnapshot;

    /// The `--json` text of a small fixed report, byte for byte: key order,
    /// indentation, string escapes, an integral float (`2.0`), a NaN
    /// speedup (`null`), empty arrays and an empty object.
    #[test]
    fn json_report_text_is_pinned() {
        let suite = SuiteResults { apps: vec![], trials: 3 };
        let stats = CampaignStats {
            app: "a\"b\\c\n\u{1}é".to_string(),
            tool: "refine".to_string(),
            busy_ns: 0,
            wall_ns: 0,
            speedup: f64::NAN,
            prepare_ms: 2.0,
            ckpt_restores: 1,
            ckpt_skipped_instrs: 2,
            conv_hits: 3,
            conv_checked_instrs: 4,
            conv_saved_instrs: 5,
            sb_dispatches: 6,
            sb_uops: 9,
            sb_fused_instrs: 7,
            sb_stepped_instrs: 1,
        };
        let cache = CacheStats { hits: 1, misses: 3, prepare_ns: 5 };
        let engine = EngineReport {
            results: vec![],
            stats: vec![stats],
            wall_ns: 4,
            busy_ns: 10,
            jobs: 2,
            cache,
        };
        let hist =
            |count| HistogramSnapshot { count, sum: 2 * count, min: 1, max: 3, buckets: vec![] };
        let metrics = MetricsSnapshot {
            trial_latency_ns: hist(0),
            trial_instrs: hist(2),
            trial_cycles: hist(1),
            traps: Default::default(),
            phases: PhasesSnapshot { phases: vec![] },
        };
        assert_eq!(report_json(&suite, &engine, &metrics).pretty(), EXPECTED);
    }

    const EXPECTED: &str = r#"{
  "suite": {
    "apps": [],
    "trials": 3
  },
  "engine": {
    "jobs": 2,
    "wall_ns": 4,
    "busy_ns": 8,
    "busy_total": 10,
    "speedup": 2.5,
    "speedup_capped": 2.0,
    "cache_hit_rate": 0.25,
    "cache": {
      "hits": 1,
      "misses": 3,
      "prepare_ns": 5
    },
    "superblock": {
      "dispatches": 6,
      "uops": 9,
      "fused_instrs": 7,
      "stepped_instrs": 1,
      "fused_instr_share": 0.875
    },
    "campaigns": [
      {
        "app": "a\"b\\c\n\u0001é",
        "tool": "refine",
        "busy_ns": 0,
        "wall_ns": 0,
        "speedup": null,
        "prepare_ms": 2.0,
        "ckpt_restores": 1,
        "ckpt_skipped_instrs": 2,
        "conv_hits": 3,
        "conv_checked_instrs": 4,
        "conv_saved_instrs": 5,
        "sb_dispatches": 6,
        "sb_uops": 9,
        "sb_fused_instrs": 7,
        "sb_stepped_instrs": 1
      }
    ]
  },
  "metrics": {
    "trial_latency_ns": {
      "count": 0,
      "sum": 0,
      "min": 1,
      "max": 3,
      "buckets": []
    },
    "trial_instrs": {
      "count": 2,
      "sum": 4,
      "min": 1,
      "max": 3,
      "buckets": []
    },
    "trial_cycles": {
      "count": 1,
      "sum": 2,
      "min": 1,
      "max": 3,
      "buckets": []
    },
    "traps": {},
    "phases": {
      "phases": []
    }
  }
}"#;
}
