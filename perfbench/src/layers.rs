//! The traced run: per-layer metrics, timed from the outside around calls
//! into each layer's public functions, plus the exact work counters the
//! campaign engine reports. Names carry the layer's module as a prefix.

use crate::rounds::{self, Facts};
use crate::verify::{self, Reference, Tally};
use crate::{median, Metric};
use refine_benchmarks::BenchProgram;
use refine_campaign::engine::{EngineConfig, EngineHooks, EngineReport};
use refine_campaign::experiments::table5_rows;
use refine_campaign::{classify, PreparedTool, Tool};
use refine_core::{compile_with_fi, FiOptions, ProfilingRt};
use refine_ir::passes::OptLevel;
use refine_machine::{Machine, NoFi, RunConfig, SuperblockProgram};
use refine_pinfi::PinfiProfiler;
use refine_telemetry::TraceSink;
use std::collections::HashMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Repetitions of each timed compile-side call; metrics are medians.
const COMPILE_REPS: usize = 5;
/// Repetitions of each timed prepare-side call.
const PREPARE_REPS: usize = 3;
/// Fewest (untraced, traced) sweep pairs.
const MIN_SWEEP_PAIRS: usize = 2;
/// Fewest timed single-trial calls behind the trial latency percentiles,
/// so the 99th percentile has at least ten samples above it.
const MIN_TRIAL_SAMPLES: usize = 2000;
/// Timed `table5_rows` calls.
const CHI2_REPS: usize = 200;

/// The per-layer metrics of the workload `cfg` describes.
pub fn run(
    cfg: &EngineConfig,
    seconds: Duration,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    assert!(
        !refine_telemetry::enabled(),
        "the traced run turns telemetry on only around traced sweeps"
    );
    let suite = refine_benchmarks::all();
    let reference = verify::reference_pass(&suite, cfg, tally)?;
    let mut out = compile_layers(&suite)?;
    out.extend(prepare_layers(&reference, cfg, tally));
    out.extend(trial_layers(&suite, &reference, cfg, seconds, tally)?);
    Ok(out)
}

/// Wall-clock seconds of `f`, with its result.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let r = black_box(f());
    (r, t.elapsed().as_secs_f64())
}

/// Exact compile-side counts, summed over the suite.
#[derive(Debug, Default, PartialEq, Eq)]
struct CompileCounts {
    ir_instrs: u64,
    text_instrs: u64,
    core_sites: u64,
    core_text_instrs: u64,
    llfi_sites: u64,
}

/// `frontend`, `ir`, `mir`, `core` and `llfi`: each layer's calls timed
/// over the whole suite, medians of [`COMPILE_REPS`].
fn compile_layers(suite: &[BenchProgram]) -> Result<Vec<Metric>, String> {
    let mut times = [(); 5].map(|_| Vec::with_capacity(COMPILE_REPS));
    let mut counts: Option<CompileCounts> = None;
    for _ in 0..COMPILE_REPS {
        let mut t = [0.0f64; 5];
        let mut n = CompileCounts::default();
        for b in suite {
            let (m, dt) = timed(|| refine_frontend::compile_source(b.source));
            let m = m.map_err(|e| format!("{}: frontend: {e}", b.name))?;
            t[0] += dt;
            let mut opt = m.clone();
            t[1] += timed(|| refine_ir::passes::optimize(&mut opt, OptLevel::O2)).1;
            n.ir_instrs += opt
                .funcs
                .iter()
                .map(|f| f.instr_count() as u64)
                .sum::<u64>();
            let (plain, dt) = timed(|| refine_mir::emit(&refine_mir::lower_module(&opt)));
            t[2] += dt;
            n.text_instrs += plain.text.len() as u64;
            // Instrumentation cost: each instrumented compile minus the
            // uninstrumented one of the same module.
            let base = timed(|| compile_with_fi(&m, OptLevel::O2, &FiOptions::default())).1;
            let (fi, dt) = timed(|| compile_with_fi(&m, OptLevel::O2, &FiOptions::all()));
            t[3] += dt - base;
            n.core_sites += fi.sites.len() as u64;
            n.core_text_instrs += fi.binary.text.len() as u64;
            let ((_, sites), dt) = timed(|| {
                refine_llfi::compile_with_llfi(
                    &m,
                    OptLevel::O2,
                    &refine_llfi::LlfiOptions::default(),
                )
            });
            t[4] += dt - base;
            n.llfi_sites += sites.len() as u64;
        }
        for (v, x) in times.iter_mut().zip(t) {
            v.push(x);
        }
        match &counts {
            Some(c) if *c != n => return Err(format!("compile counts drifted: {c:?} / {n:?}")),
            _ => counts = Some(n),
        }
    }
    let n = counts.expect("at least one repetition");
    Ok(vec![
        Metric::new("frontend.compile_s", "s", median(&times[0])),
        Metric::new("ir.optimize_s", "s", median(&times[1])),
        Metric::new("mir.codegen_s", "s", median(&times[2])),
        Metric::new("ir.instrs", "count", n.ir_instrs as f64),
        Metric::new("mir.text_instrs", "count", n.text_instrs as f64),
        Metric::new("core.instrument_s", "s", median(&times[3])),
        Metric::new("llfi.instrument_s", "s", median(&times[4])),
        Metric::new("core.fi_sites", "count", n.core_sites as f64),
        Metric::new("llfi.fi_sites", "count", n.llfi_sites as f64),
        Metric::new(
            "core.text_growth",
            "ratio",
            n.core_text_instrs as f64 / n.text_instrs as f64,
        ),
    ])
}

fn tool_key(tool: Tool) -> &'static str {
    match tool {
        Tool::Refine => "refine",
        Tool::Llfi => "llfi",
        Tool::Pinfi => "pinfi",
    }
}

/// Dynamic instructions of the artifact's fault-free profiling run.
fn golden_instrs(p: &PreparedTool) -> u64 {
    let cfg = RunConfig {
        max_cycles: u64::MAX / 4,
        stack_words: p.stack_words,
    };
    match p.tool {
        Tool::Refine | Tool::Llfi => {
            Machine::run(&p.binary, &cfg, &mut ProfilingRt::default(), None).instrs_retired
        }
        Tool::Pinfi => {
            Machine::run(
                &p.binary,
                &cfg,
                &mut NoFi,
                Some(&mut PinfiProfiler::default()),
            )
            .instrs_retired
        }
    }
}

/// `campaign` (prepare per tool) and `machine` (prepare side): profiling,
/// checkpoint capture and superblock build.
fn prepare_layers(r: &Reference, cfg: &EngineConfig, tally: &mut Tally) -> Vec<Metric> {
    let ckpt = cfg.checkpoint_options();
    let mut per_tool: HashMap<&str, Vec<f64>> = HashMap::new();
    for _ in 0..PREPARE_REPS {
        for tool in Tool::all() {
            let mut s = 0.0;
            for m in &r.modules {
                tally.attempt(1);
                let prepare = || timed(|| PreparedTool::prepare_opt(m, tool, &ckpt)).1;
                match catch_unwind(AssertUnwindSafe(prepare)) {
                    Ok(dt) => s += dt,
                    Err(_) => tally.fail(1, format!("{}: prepare panicked", tool.name())),
                }
            }
            per_tool.entry(tool_key(tool)).or_default().push(s);
        }
    }
    let artifacts: &[Arc<PreparedTool>] = &r.prepared.artifacts;
    let build: Vec<f64> = (0..PREPARE_REPS)
        .map(|_| {
            artifacts
                .iter()
                .map(|p| timed(|| SuperblockProgram::new(&p.binary)).1)
                .sum()
        })
        .collect();
    let stores = artifacts
        .iter()
        .filter_map(|p| p.fastpath.as_ref().map(|f| &f.store));
    let (ckpts, words) = stores.fold((0, 0), |(n, w), s| (n + s.len(), w + s.memory_words()));
    let mut out: Vec<Metric> = Tool::all()
        .into_iter()
        .map(|t| {
            let k = tool_key(t);
            Metric::new(format!("campaign.prepare_s.{k}"), "s", median(&per_tool[k]))
        })
        .collect();
    out.extend([
        Metric::new(
            "machine.golden_instrs",
            "count",
            artifacts.iter().map(|p| golden_instrs(p)).sum::<u64>() as f64,
        ),
        Metric::new("machine.checkpoint.count", "count", ckpts as f64),
        Metric::new(
            "machine.checkpoint.mib",
            "MiB",
            (words * 8) as f64 / (1u64 << 20) as f64,
        ),
        Metric::new("machine.superblock.build_s", "s", median(&build)),
        Metric::new(
            "machine.superblock.blocks",
            "count",
            artifacts
                .iter()
                .map(|p| p.superblock.block_count())
                .sum::<usize>() as f64,
        ),
    ]);
    out
}

/// Trial-phase wall seconds and report of one sweep; `None` on a panic.
fn timed_sweep(
    r: &Reference,
    cfg: &EngineConfig,
    hooks: &EngineHooks<'_>,
    tally: &mut Tally,
) -> Option<(EngineReport, f64)> {
    let t = Instant::now();
    let report = rounds::sweep(&r.prepared, cfg, hooks, tally)?;
    let wall = t.elapsed().as_secs_f64();
    verify::check_repeat(&r.facts, &Facts::of(&report), cfg.trials, tally);
    Some((report, wall))
}

/// Nearest-rank percentile `q` (0..=1) of sorted samples.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `campaign` (trials), `machine` (trial side), `stats` and `telemetry`.
fn trial_layers(
    suite: &[BenchProgram],
    r: &Reference,
    cfg: &EngineConfig,
    seconds: Duration,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    // Untraced and traced sweeps alternate so drift hits both alike.
    let start = Instant::now();
    let (mut overhead, mut ratio) = (Vec::new(), Vec::new());
    let mut busy: HashMap<&str, Vec<f64>> = HashMap::new();
    let mut last = None;
    let mut pairs = 0;
    while pairs < MIN_SWEEP_PAIRS || start.elapsed() < seconds / 2 {
        pairs += 1;
        let Some((report, wall)) = timed_sweep(r, cfg, &EngineHooks::default(), tally) else {
            continue;
        };
        refine_telemetry::enable();
        let (sink, _buffer) = TraceSink::in_memory();
        let traced = timed_sweep(
            r,
            cfg,
            &EngineHooks {
                sink: Some(&sink),
                progress: None,
            },
            tally,
        );
        refine_telemetry::disable();
        let Some((_, traced_wall)) = traced else {
            continue;
        };
        ratio.push(traced_wall / wall);
        let busy_ns: u64 = report.stats.iter().map(|s| s.busy_ns).sum();
        overhead.push(wall - busy_ns as f64 / 1e9);
        for tool in Tool::all() {
            let ns: u64 = report
                .stats
                .iter()
                .filter(|s| s.tool == tool.name())
                .map(|s| s.busy_ns)
                .sum();
            busy.entry(tool_key(tool))
                .or_default()
                .push(ns as f64 / 1e9);
        }
        last = Some(report);
    }
    let report = last.ok_or("no sweep pair completed")?;

    let lat = trial_latencies_us(r, cfg, tally)?;
    let mut out = vec![
        Metric::new("campaign.trial_p50_us", "us", percentile(&lat, 0.50)),
        Metric::new("campaign.trial_p99_us", "us", percentile(&lat, 0.99)),
    ];
    for tool in Tool::all() {
        let k = tool_key(tool);
        out.push(Metric::new(
            format!("campaign.busy_s.{k}"),
            "s",
            median(&busy[k]),
        ));
    }
    out.push(Metric::new(
        "campaign.engine_overhead_s",
        "s",
        median(&overhead),
    ));
    out.extend(counter_metrics(r));

    let results = rounds::suite_results(suite, &report, cfg.trials);
    let chi2: Vec<f64> = (0..CHI2_REPS)
        .map(|_| timed(|| table5_rows(&results)).1)
        .collect();
    out.push(Metric::new("stats.chi2_s", "s", median(&chi2)));
    out.push(Metric::new(
        "telemetry.trace_overhead",
        "ratio",
        median(&ratio),
    ));
    Ok(out)
}

/// Time each `run_trial_engine` call on the `(target_dyn, seed)` pairs
/// the reference sweep recorded, replaying the list until
/// [`MIN_TRIAL_SAMPLES`] calls are timed. Each replay must reproduce the
/// recorded outcome and cycles. Returns sorted microseconds.
fn trial_latencies_us(
    r: &Reference,
    cfg: &EngineConfig,
    tally: &mut Tally,
) -> Result<Vec<f64>, String> {
    let pairs = r
        .records
        .iter()
        .map(|rec| match r.prepared.campaign_of(rec) {
            Some(i) => Ok((rec, r.prepared.artifacts[i].as_ref())),
            None => Err(format!(
                "trace record of unknown campaign {}/{}",
                rec.app, rec.tool
            )),
        })
        .collect::<Result<Vec<_>, String>>()?;
    if pairs.is_empty() {
        return Err("the reference sweep recorded no trials".into());
    }
    let passes = MIN_TRIAL_SAMPLES.div_ceil(pairs.len());
    let mut us = Vec::with_capacity(passes * pairs.len());
    for _ in 0..passes {
        for &(rec, p) in &pairs {
            tally.attempt(1);
            let t = Instant::now();
            let run = catch_unwind(AssertUnwindSafe(|| {
                black_box(p.run_trial_engine(cfg.engine, rec.target_dyn, rec.seed))
            }));
            let elapsed_us = t.elapsed().as_secs_f64() * 1e6;
            let why = match run {
                Err(_) => "replay panicked",
                Ok(run)
                    if classify(&p.golden, &run.result).label().to_lowercase() != rec.outcome
                        || run.result.cycles != rec.cycles =>
                {
                    "replay drifted"
                }
                Ok(_) => {
                    us.push(elapsed_us);
                    continue;
                }
            };
            tally.fail(
                1,
                format!("{}/{} trial {}: {why}", rec.app, rec.tool, rec.trial),
            );
        }
    }
    if us.is_empty() {
        return Err("every trial replay failed".into());
    }
    us.sort_by(f64::total_cmp);
    Ok(us)
}

/// Ratios of the exact work counters of the reference sweep.
fn counter_metrics(r: &Reference) -> Vec<Metric> {
    let c = &r.facts.counters;
    let sum = |f: fn(&rounds::Counters) -> u64| c.iter().map(f).sum::<u64>() as f64;
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let trials = r.facts.trials() as f64;
    let fused = sum(|x| x.sb_fused_instrs);
    let executed = fused + sum(|x| x.sb_stepped_instrs);
    let mut out = vec![
        Metric::new("machine.exec_instrs_per_trial", "count", executed / trials),
        Metric::new(
            "machine.superblock.fused_share",
            "ratio",
            ratio(fused, executed),
        ),
        Metric::new(
            "machine.superblock.instrs_per_dispatch",
            "count",
            ratio(fused, sum(|x| x.sb_dispatches)),
        ),
        Metric::new(
            "machine.checkpoint.restore_ratio",
            "ratio",
            sum(|x| x.ckpt_restores) / trials,
        ),
        Metric::new(
            "machine.checkpoint.skipped_instrs_per_trial",
            "count",
            sum(|x| x.ckpt_skipped_instrs) / trials,
        ),
        Metric::new(
            "machine.digest.conv_hit_ratio",
            "ratio",
            sum(|x| x.conv_hits) / trials,
        ),
    ];
    for tool in Tool::all() {
        let of_tool = r
            .prepared
            .campaigns
            .iter()
            .zip(c)
            .filter(|(k, _)| k.tool == tool);
        let (checked, saved) = of_tool.fold((0u64, 0u64), |(a, b), (_, x)| {
            (a + x.conv_checked_instrs, b + x.conv_saved_instrs)
        });
        out.push(Metric::new(
            format!("machine.digest.checked_per_saved.{}", tool_key(tool)),
            "ratio",
            ratio(checked as f64, saved as f64),
        ));
    }
    out
}
