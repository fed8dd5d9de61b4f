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
//! default) and prints every artifact.
//!
//! Scheduling: all selected `(app, tool)` campaigns form one trial space
//! sharded across `--jobs N` workers (default: available parallelism; any
//! jobs count produces bit-identical results). Instrumented artifacts are
//! compiled once per (app, tool) and shared across workers; the engine
//! summary reports wall-clock speedup and cache hit rate.
//!
//! Observability:
//!
//! * `--trace-out FILE` streams one JSON line of fault provenance per trial
//!   (tool, seed, target, site, opcode, bit, outcome, trap cause);
//! * `trace-summary FILE` aggregates such a file into an injection-site x
//!   outcome table;
//! * `--json` emits the suite results (outcome counts), the engine report
//!   (cache hits and misses, per-campaign speedup and work counters) and
//!   a metrics snapshot of what only telemetry records (latency,
//!   instruction-count and cycle histograms, trap-cause breakdown,
//!   per-phase compile times) as JSON on stdout instead of the text tables;
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

use refine_campaign::campaign::CampaignConfig;
use refine_campaign::engine::EngineReport;
use refine_campaign::experiments::{self, run_suite_sharded, SuiteObserver};
use refine_campaign::tools::{PreparedTool, Tool};
use refine_core::ExecEngine;
use refine_telemetry::trace::{read_jsonl, TraceSummary};
use refine_telemetry::TraceSink;
use serde::Serialize;

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

/// The `--json` rendering of the engine's scheduling report.
///
/// `busy_total` is the raw per-trial clock sum (can exceed `jobs * wall_ns`
/// under OS oversubscription); `busy_ns` and `speedup_capped` are capped at
/// what `jobs` workers could physically execute in `wall_ns`.
fn engine_to_value(report: &EngineReport) -> serde::Value {
    let sb_dispatches: u64 = report.stats.iter().map(|s| s.sb_dispatches).sum();
    let sb_fused: u64 = report.stats.iter().map(|s| s.sb_fused_instrs).sum();
    let sb_stepped: u64 = report.stats.iter().map(|s| s.sb_stepped_instrs).sum();
    let sb_total = sb_fused + sb_stepped;
    let superblock = serde::Value::Map(vec![
        ("dispatches".to_string(), sb_dispatches.to_value()),
        ("fused_instrs".to_string(), sb_fused.to_value()),
        ("stepped_instrs".to_string(), sb_stepped.to_value()),
        (
            "fused_instr_share".to_string(),
            (if sb_total == 0 { 0.0 } else { sb_fused as f64 / sb_total as f64 }).to_value(),
        ),
    ]);
    serde::Value::Map(vec![
        ("jobs".to_string(), (report.jobs as u64).to_value()),
        ("wall_ns".to_string(), report.wall_ns.to_value()),
        ("busy_ns".to_string(), report.busy_capped().to_value()),
        ("busy_total".to_string(), report.busy_ns.to_value()),
        ("speedup".to_string(), report.speedup().to_value()),
        ("speedup_capped".to_string(), report.speedup_capped().to_value()),
        ("cache_hit_rate".to_string(), report.cache.hit_rate().to_value()),
        ("cache".to_string(), report.cache.to_value()),
        ("superblock".to_string(), superblock),
        ("campaigns".to_string(), report.stats.to_value()),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cmd: Option<String> = None;
    let mut cfg = CampaignConfig::default();
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
            // --threads kept as a compatibility alias for --jobs.
            "--jobs" | "--threads" => {
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
                    if refine_benchmarks::by_name(n).is_none() {
                        eprintln!(
                            "refine-experiments: unknown benchmark `{n}` (valid: {})",
                            refine_benchmarks::all()
                                .iter()
                                .chain(refine_benchmarks::extras().iter())
                                .map(|b| b.name)
                                .collect::<Vec<_>>()
                                .join(", ")
                        );
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
    let (suite, engine) = run_suite_sharded(&cfg, apps.as_deref(), &obs, |_, _| {});
    if let Some(sink) = &sink {
        if let Err(e) = sink.flush() {
            eprintln!("refine-experiments: trace flush failed: {e}");
        }
    }

    if json {
        let report = serde::Value::Map(vec![
            ("suite".to_string(), suite.to_value()),
            ("engine".to_string(), engine_to_value(&engine)),
            ("metrics".to_string(), refine_telemetry::registry().snapshot().to_value()),
        ]);
        println!("{}", serde::json::to_string_pretty(&report));
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
