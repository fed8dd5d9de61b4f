//! `trial_throughput` — trials/sec for a fixed short sweep across four
//! trial-execution modes, tracking the perf trajectory of the trial loop:
//!
//! * **convergence on** — checkpoint fast-forward + post-injection
//!   golden-convergence early exit (the default path);
//! * **convergence off** — checkpoint fast-forward only (`--no-convergence`,
//!   the previous baseline);
//! * **checkpoint off** — the cold full-execution path (`--no-checkpoint`)
//!   under the superblock-fused engine;
//! * **exact oracle** — `--engine step`, which interprets every trial per
//!   instruction from the initial state, isolating the superblock engine's
//!   speedup where trials execute end to end.
//!
//! Artifacts are pre-prepared outside the timed region so the measurement
//! isolates trial execution (prepare cost is `compile_overhead`'s subject;
//! the checkpoint-store build rides inside prepare). All four sweeps must
//! produce identical outcome tables — the bench doubles as an equivalence
//! check and **fails** on any mismatch.
//!
//! Smoke mode (`REFINE_SMOKE=1`, used by ci.sh) shrinks the sweep; either
//! way the result lands in `BENCH_trials.json` at the repo root: trials/sec
//! for each mode, the pairwise speedups, and the convergence hit rate.

use refine_campaign::engine::{
    run_sweep, ArtifactCache, ArtifactSource, EngineCampaign, EngineConfig, EngineHooks,
    DEFAULT_BATCH,
};
use refine_campaign::tools::{PreparedTool, Tool};
use refine_core::{CheckpointOptions, ExecEngine};
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

fn specs(apps: &[&str], ckpt: &CheckpointOptions) -> Vec<EngineCampaign> {
    apps.iter()
        .flat_map(|app| {
            let module = Arc::new(refine_benchmarks::by_name(app).unwrap().module());
            Tool::all().into_iter().map(move |tool| EngineCampaign {
                app: app.to_string(),
                tool,
                source: ArtifactSource::Prepared(Arc::new(PreparedTool::prepare_opt(
                    &module, tool, ckpt,
                ))),
            })
        })
        .collect()
}

/// One comparable outcome row: (app, crash, soc, benign, total cycles).
type OutcomeRow = (String, u64, u64, u64, u64);

/// One mode's measurement: best trials/sec, outcome table, convergence hits.
struct Measured {
    tps: f64,
    table: Vec<OutcomeRow>,
    conv_hits: u64,
}

/// Run the sweep `reps` times, keeping the best throughput.
fn measure(specs: &[EngineCampaign], cfg: &EngineConfig, reps: usize) -> Measured {
    let total = specs.len() as u64 * cfg.trials;
    let mut m = Measured { tps: 0.0, table: Vec::new(), conv_hits: 0 };
    for _ in 0..reps {
        let t0 = Instant::now();
        let report = run_sweep(specs, cfg, &ArtifactCache::new(), &EngineHooks::default());
        let secs = t0.elapsed().as_secs_f64().max(1e-9);
        m.tps = m.tps.max(total as f64 / secs);
        m.table = specs
            .iter()
            .zip(&report.results)
            .map(|(s, r)| {
                (s.app.clone(), r.counts.crash, r.counts.soc, r.counts.benign, r.total_cycles)
            })
            .collect();
        m.conv_hits = report.stats.iter().map(|cs| cs.conv_hits).sum();
    }
    m
}

fn main() {
    let smoke = std::env::var("REFINE_SMOKE").is_ok();
    let apps: &[&str] = if smoke { &["HPCCG-1.0"] } else { &["HPCCG-1.0", "CoMD"] };
    let trials = if smoke { 24 } else { 120 };
    let reps = if smoke { 1 } else { 3 };
    let cfg = EngineConfig {
        trials,
        seed: 0x7B15,
        jobs: 1,
        batch: DEFAULT_BATCH,
        checkpoint: true,
        convergence: true,
        checkpoint_interval: refine_machine::CheckpointConfig::default().interval,
        engine: ExecEngine::Superblock,
    };
    let total = apps.len() as u64 * 3 * trials;

    let ckpt_conv = CheckpointOptions::default();
    let ckpt_only = CheckpointOptions { convergence: false, ..CheckpointOptions::default() };
    let specs_conv = specs(apps, &ckpt_conv);
    let specs_ckpt = specs(apps, &ckpt_only);
    let specs_off = specs(apps, &CheckpointOptions::disabled());

    let conv = measure(&specs_conv, &cfg, reps);
    let ckpt = measure(&specs_ckpt, &EngineConfig { convergence: false, ..cfg }, reps);
    let off = measure(
        &specs_off,
        &EngineConfig { checkpoint: false, convergence: false, ..cfg },
        reps,
    );
    let off_step = measure(
        &specs_off,
        &EngineConfig {
            checkpoint: false,
            convergence: false,
            engine: ExecEngine::Step,
            ..cfg
        },
        reps,
    );

    assert_eq!(
        conv.table, ckpt.table,
        "convergence on/off sweeps diverged — golden-splice equivalence broken"
    );
    assert_eq!(
        ckpt.table, off.table,
        "checkpoint on/off sweeps diverged — fast-forward equivalence broken"
    );
    assert_eq!(
        off.table, off_step.table,
        "superblock/step cold sweeps diverged — engine equivalence broken"
    );

    let speedup_ckpt = ckpt.tps / off.tps.max(1e-9);
    let speedup_conv = conv.tps / ckpt.tps.max(1e-9);
    let speedup_sb_cold = off.tps / off_step.tps.max(1e-9);
    let conv_hit_rate = conv.conv_hits as f64 / total.max(1) as f64;
    println!(
        "[trial_throughput] apps={} trials={trials} jobs=1: \
         conv={:.0} trials/s, ckpt={:.0} trials/s, off={:.0} trials/s, \
         off-step={:.0} trials/s, conv/ckpt={speedup_conv:.2}x, \
         ckpt/off={speedup_ckpt:.2}x, superblock/step (cold)={speedup_sb_cold:.2}x, \
         conv hit rate={:.1}%",
        apps.len(),
        conv.tps,
        ckpt.tps,
        off.tps,
        off_step.tps,
        100.0 * conv_hit_rate,
    );
    assert!(
        speedup_sb_cold >= 1.5,
        "superblock engine cold speedup {speedup_sb_cold:.2}x below the 1.5x floor"
    );

    let report = serde::Value::Map(vec![
        ("bench".to_string(), "trial_throughput".to_string().to_value()),
        ("smoke".to_string(), smoke.to_value()),
        ("apps".to_string(), (apps.len() as u64).to_value()),
        ("tools".to_string(), 3u64.to_value()),
        ("trials_per_campaign".to_string(), trials.to_value()),
        ("jobs".to_string(), 1u64.to_value()),
        ("trials_per_sec_convergence_on".to_string(), conv.tps.to_value()),
        ("trials_per_sec_convergence_off".to_string(), ckpt.tps.to_value()),
        ("trials_per_sec_superblock_cold".to_string(), off.tps.to_value()),
        ("trials_per_sec_step_cold".to_string(), off_step.tps.to_value()),
        ("speedup_convergence_vs_checkpoint".to_string(), speedup_conv.to_value()),
        ("speedup_on_vs_off".to_string(), speedup_ckpt.to_value()),
        ("superblock_speedup_cold".to_string(), speedup_sb_cold.to_value()),
        ("conv_hit_rate".to_string(), conv_hit_rate.to_value()),
        ("results_identical".to_string(), true.to_value()),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_trials.json");
    std::fs::write(path, serde::json::to_string_pretty(&report) + "\n")
        .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("[trial_throughput] wrote {path}");
}
