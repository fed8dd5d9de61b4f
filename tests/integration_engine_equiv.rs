//! Engine equivalence: the superblock-fused engine and `--engine step`
//! (the exact oracle, `run_trial_exact`) must produce byte-identical
//! campaigns.
//!
//! Two layers of evidence:
//!
//! * full-suite sweeps (the paper's 14 apps plus the `matmul` extra, all
//!   three tools) comparing outcome tables, cycle totals and the complete
//!   per-trial provenance record multiset across engines and jobs counts,
//!   with checkpointing on and off;
//! * a property test driving `run_trial_engine` against the
//!   `run_trial_exact` oracle over random (kernel, tool, checkpointing,
//!   target, seed) points.

use proptest::prelude::*;
use refine_campaign::campaign::CampaignConfig;
use refine_campaign::engine::{
    run_sweep, ArtifactCache, ArtifactSource, EngineCampaign, EngineConfig, EngineHooks,
};
use refine_campaign::tools::{PreparedTool, Tool, TrialFastStats};
use refine_core::{CheckpointOptions, ExecEngine};
use refine_machine::OutEvent;
use refine_telemetry::{TraceSink, TrialTrace};
use std::sync::{Arc, OnceLock};

const TRIALS: u64 = 4;
const SEED: u64 = 0x5E_ED5B;

/// The paper suite plus the extras — every program the CLI can name.
fn all_apps() -> Vec<refine_benchmarks::BenchProgram> {
    refine_benchmarks::all().into_iter().chain(refine_benchmarks::extras()).collect()
}

fn specs() -> &'static Vec<EngineCampaign> {
    static SPECS: OnceLock<Vec<EngineCampaign>> = OnceLock::new();
    SPECS.get_or_init(|| {
        let mut specs = Vec::new();
        for b in all_apps() {
            let module = Arc::new(b.module());
            for tool in Tool::all() {
                specs.push(EngineCampaign {
                    app: b.name.to_string(),
                    tool,
                    source: ArtifactSource::Module(Arc::clone(&module)),
                });
            }
        }
        specs
    })
}

fn cfg(engine: ExecEngine, jobs: usize, checkpoint: bool) -> EngineConfig {
    EngineConfig::from_campaign(&CampaignConfig {
        trials: TRIALS,
        seed: SEED,
        jobs,
        checkpoint,
        engine,
        ..CampaignConfig::default()
    })
}

/// Key usable to sort trace records into a canonical order (sharded sweeps
/// emit them in completion order).
fn trace_key(t: &TrialTrace) -> (String, String, u64) {
    (t.app.clone(), t.tool.clone(), t.trial)
}

/// Per-campaign summary: (counts row, total cycles, population).
type SweepSummary = Vec<(Vec<u64>, u64, u64)>;

/// Run a sweep and return (per-campaign `(counts row, cycles, population)`,
/// canonically sorted trace records).
fn sweep(
    engine: ExecEngine,
    jobs: usize,
    checkpoint: bool,
    cache: &ArtifactCache,
) -> (SweepSummary, Vec<TrialTrace>) {
    let (sink, buf) = TraceSink::in_memory();
    let hooks = EngineHooks { sink: Some(&sink), progress: None };
    let report = run_sweep(specs(), &cfg(engine, jobs, checkpoint), cache, &hooks);
    sink.flush().unwrap();
    let summary = report
        .results
        .iter()
        .map(|r| (r.counts.row(), r.total_cycles, r.population))
        .collect();
    let mut records = buf.records().unwrap();
    records.sort_by_key(trace_key);
    (summary, records)
}

/// The tentpole acceptance check: superblock and step engines are
/// byte-identical — outcome tables, total cycles, populations and the full
/// per-trial provenance stream (site, opcode, operand, bit, trap, cycles,
/// instrs) — over the whole suite, at `--jobs 1` and `--jobs 4`, with the
/// checkpoint fast-path on. One artifact cache serves every configuration:
/// the engine is deliberately outside the artifact key.
#[test]
fn engines_byte_identical_across_suite_and_jobs() {
    let cache = ArtifactCache::new();
    let (base_sum, base_rec) = sweep(ExecEngine::Step, 1, true, &cache);
    for jobs in [1usize, 4] {
        let (sum, rec) = sweep(ExecEngine::Superblock, jobs, true, &cache);
        assert_eq!(sum, base_sum, "summary diverged at jobs={jobs}");
        assert_eq!(rec, base_rec, "trace records diverged at jobs={jobs}");
    }
    // Step must also be jobs-invariant against its own baseline.
    let (sum, rec) = sweep(ExecEngine::Step, 4, true, &cache);
    assert_eq!(sum, base_sum);
    assert_eq!(rec, base_rec);
}

/// Same identity with checkpointing off: this drives the cold fused path
/// (no restore, no golden end) against the exact oracle for every trial.
#[test]
fn engines_byte_identical_without_checkpoints() {
    let cache = ArtifactCache::new();
    let (step_sum, step_rec) = sweep(ExecEngine::Step, 2, false, &cache);
    let (sb_sum, sb_rec) = sweep(ExecEngine::Superblock, 2, false, &cache);
    assert_eq!(sb_sum, step_sum);
    assert_eq!(sb_rec, step_rec);
}

// ---------------------------------------------------------------------------
// Property layer: run_trial_engine vs the run_trial_exact oracle.
// ---------------------------------------------------------------------------

/// Small MiniLang corpus spanning the fusion-relevant shapes: long
/// straight-line arithmetic, tight branchy loops, call-heavy code, float
/// kernels, memory traffic, and an early-exit program.
const CORPUS: [&str; 8] = [
    // Straight-line integer arithmetic (long fusable blocks) on runtime
    // values, so O2 cannot fold it away.
    "var w[4];\n\
     fn main() {\n\
       for (i = 0; i < 4; i = i + 1) { w[i] = i * 7 + 3; }\n\
       let a = w[0]; let b = w[1]; let c = a * b + w[2];\n\
       let d = c * c - a; let e = d / 3 + b * 11;\n\
       let f = e - d + c * 2; let g = f * a - e + w[3];\n\
       print_i(g + f + e + d + c);\n\
       return 0;\n\
     }",
    // Tight branchy loop (short blocks, many control transfers).
    "fn main() {\n\
       let s = 0;\n\
       for (i = 0; i < 40; i = i + 1) {\n\
         if (i - i / 2 * 2 == 0) { s = s + i; } else { s = s - 1; }\n\
       }\n\
       print_i(s);\n\
       return 0;\n\
     }",
    // Call-heavy (fusion must stop at calls and returns).
    "fn sq(x: int) -> int { return x * x; }\n\
     fn tri(x: int) -> int { return sq(x) + x; }\n\
     fn main() {\n\
       let s = 0;\n\
       for (i = 0; i < 12; i = i + 1) { s = s + tri(i); }\n\
       print_i(s);\n\
       return 0;\n\
     }",
    // Float kernel with sqrt (CallRt boundaries inside the loop).
    "fvar v[16];\n\
     fn main() {\n\
       for (i = 0; i < 16; i = i + 1) { v[i] = float(i) * 0.75 + 1.0; }\n\
       let s: float = 0.0;\n\
       for (i = 0; i < 16; i = i + 1) { s = s + sqrt(v[i]); }\n\
       print_f(s);\n\
       return 0;\n\
     }",
    // Global-array memory traffic.
    "var a[32]; var b[32];\n\
     fn main() {\n\
       for (i = 0; i < 32; i = i + 1) { a[i] = i * 3; }\n\
       for (i = 0; i < 32; i = i + 1) { b[i] = a[31 - i] + a[i]; }\n\
       let s = 0;\n\
       for (i = 0; i < 32; i = i + 1) { s = s + b[i]; }\n\
       print_i(s);\n\
       return 0;\n\
     }",
    // Nested loops with float accumulation.
    "fvar m[24];\n\
     fn main() {\n\
       for (i = 0; i < 24; i = i + 1) { m[i] = float(i * i) * 0.125 + 1.0; }\n\
       let s: float = 0.0;\n\
       for (r = 0; r < 3; r = r + 1) {\n\
         for (i = 0; i < 24; i = i + 1) { s = s + m[i] * 0.5; }\n\
       }\n\
       print_f(s);\n\
       return 0;\n\
     }",
    // Early exit through a conditional return.
    "fn main() {\n\
       let s = 0;\n\
       for (i = 0; i < 100; i = i + 1) {\n\
         s = s + i * i;\n\
         if (s > 600) { print_i(s); return 1; }\n\
       }\n\
       print_i(s);\n\
       return 0;\n\
     }",
    // Mixed int/float conversions.
    "fn main() {\n\
       let s: float = 0.0;\n\
       for (i = 1; i < 20; i = i + 1) { s = s + 1.0 / float(i); }\n\
       print_i(int(s * 1000.0));\n\
       print_f(s);\n\
       return 0;\n\
     }",
];

fn corpus_prepared(kernel: usize, tool: Tool, checkpoint: bool) -> &'static PreparedTool {
    static CELLS: OnceLock<Vec<OnceLock<PreparedTool>>> = OnceLock::new();
    let cells = CELLS.get_or_init(|| (0..CORPUS.len() * 6).map(|_| OnceLock::new()).collect());
    let ti = match tool {
        Tool::Llfi => 0,
        Tool::Refine => 1,
        Tool::Pinfi => 2,
    };
    cells[(kernel * 3 + ti) * 2 + usize::from(checkpoint)].get_or_init(|| {
        let m = refine_frontend::compile_source(CORPUS[kernel]).unwrap();
        let ckpt =
            if checkpoint { CheckpointOptions::default() } else { CheckpointOptions::disabled() };
        PreparedTool::prepare_opt(&m, tool, &ckpt)
    })
}

/// Bit-exact output comparison (NaN-safe).
fn bits(ev: &[OutEvent]) -> Vec<(u8, u64, String)> {
    ev.iter()
        .map(|e| match e {
            OutEvent::I64(v) => (0u8, *v as u64, String::new()),
            OutEvent::F64(v) => (1, v.to_bits(), String::new()),
            OutEvent::Str(s) => (2, 0, s.clone()),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For random (kernel, tool, checkpointing, target, seed): both
    /// engines reproduce the exact interpreter bit-for-bit — outcome,
    /// output, cycles, retired instructions and the fault log — warm (from
    /// a checkpoint, with convergence) and cold. The step engine *is* the
    /// oracle: no restore, no fused dispatch, no convergence.
    #[test]
    fn prop_engines_match_exact_oracle(
        kernel in 0usize..CORPUS.len(),
        tool_idx in 0usize..3,
        checkpoint in any::<bool>(),
        frac in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let tool = Tool::all()[tool_idx];
        let p = corpus_prepared(kernel, tool, checkpoint);
        let target = 1 + ((p.population - 1) as f64 * frac) as u64;
        let oracle = p.run_trial_exact(target, seed);
        for engine in [ExecEngine::Superblock, ExecEngine::Step] {
            let t = p.run_trial_engine(engine, target, seed);
            prop_assert_eq!(&t.result.outcome, &oracle.result.outcome, "{:?}", engine);
            prop_assert_eq!(bits(&t.result.output), bits(&oracle.result.output), "{:?}", engine);
            prop_assert_eq!(t.result.cycles, oracle.result.cycles, "{:?}", engine);
            prop_assert_eq!(
                t.result.instrs_retired, oracle.result.instrs_retired, "{:?}", engine
            );
            prop_assert_eq!(t.log, oracle.log, "{:?}", engine);
        }
        let step = p.run_trial_engine(ExecEngine::Step, target, seed);
        prop_assert_eq!(step.fast, TrialFastStats::default());
    }
}
