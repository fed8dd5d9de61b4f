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
//!   target, seed) points;
//! * a deterministic sweep of the first and last targets of every corpus
//!   kernel and tool against the same oracle;
//! * an any-state check: golden runs of every program and tool resumed
//!   with one register set to an arbitrary value, then run to the end
//!   fused (convergence on) and exactly.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use refine_campaign::engine::{
    run_sweep, ArtifactCache, ArtifactSource, EngineCampaign, EngineConfig, EngineHooks,
};
use refine_campaign::tools::{PreparedTool, Tool, TrialFastStats, TrialRun};
use refine_core::{CheckpointOptions, ExecEngine, FaultRecord};
use refine_machine::isa::{FP, SP};
use refine_machine::machine::{GLOBAL_BASE, STACK_TOP};
use refine_machine::{
    Checkpoint, GoldenEnd, MInstr, Machine, NoFi, OutEvent, Reg, RtFunc, RunConfig, RunOutcome,
    RunResult,
};
use refine_pinfi::PIN_OVERHEAD_CYCLES;
use refine_telemetry::{TraceSink, TrialTrace};
use std::collections::BTreeSet;
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
    EngineConfig { trials: TRIALS, seed: SEED, jobs, checkpoint, engine, ..EngineConfig::default() }
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
/// kernels, memory traffic, an early-exit program, and a kernel whose
/// binaries hold every multi-instruction µop shape
/// ([`corpus_covers_every_fused_shape`]).
const CORPUS: [&str; 9] = [
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
    // Integer, immediate and float compares before their branches, a
    // constant-index array copy (an absolute load and store through one
    // register), float loads feeding arithmetic, and under LLFI every
    // value's hook plumbing after the instruction that computed it; the
    // five accumulators of `acc` leave some values only `r0`.
    "var a[16]; var b[16]; fvar x[16]; fvar y[16];\n\
     fn acc() -> int {\n\
       let s0 = 0; let s1 = 1; let s2 = 2; let s3 = 3; let s4 = 4;\n\
       for (i = 0; i < 15; i = i + 1) {\n\
         s0 = s0 + a[i + 1] * 2 + (a[i] < 5);\n\
         s1 = s1 + a[i + 1] * 3 + (a[i] < 6);\n\
         s2 = s2 + a[i + 1] * 4 + (a[i] < 7);\n\
         s3 = s3 + a[i + 1] * 5 + (a[i] < 8);\n\
         s4 = s4 + a[i + 1] * 6 + (a[i] < 9);\n\
       }\n\
       return s0 + s1 + s2 + s3 + s4;\n\
     }\n\
     fn main() {\n\
       for (i = 0; i < 16; i = i + 1) { a[i] = i * 5 - 7; x[i] = float(i) * 0.5 - 2.0; }\n\
       let s = 0; let t: float = 0.0;\n\
       for (i = 0; i < 16; i = i + 1) {\n\
         let j = 15 - i;\n\
         if (a[i] < a[j]) { s = s + a[i]; } else { s = s - a[j]; }\n\
         if (x[i] < x[j]) { t = t + x[i] * 2.0; } else { t = t - x[j]; }\n\
         b[3] = a[5];\n\
         y[i] = x[j] + t;\n\
       }\n\
       print_i(s + acc() + b[3]);\n\
       print_f(t + y[7]);\n\
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

/// The multi-instruction µop a fused dispatch at `pc` runs, continuing at
/// `next`, in an LLFI or PINFI binary (no REFINE site to absorb): a
/// one-instruction µop absorbing LLFI hook plumbing (`mov r0 <- x; hook`,
/// with or without the `mov y <- r0` copy, or `hook; mov y <- r0` after a
/// writer of `r0`), or a pair µop (memory pairs are any two of `Ld`, `St`,
/// `FLd` and `FSt`, move pairs any two of `MovRR` and `FMovRR`). `None` for
/// a µop of one instruction and for the hook plumbing's own µop.
fn fused_shape(text: &[MInstr], pc: usize, next: usize) -> Option<&'static str> {
    use MInstr::{Cmp, CmpI, FAlu, FCmp, FLd, FMovRR, FSt, Jcc, Ld, MovRR, St};
    let hook = |i: Option<&MInstr>| {
        matches!(i, Some(MInstr::CallRt { func: RtFunc::LlfiInjectI | RtFunc::LlfiInjectF, .. }))
    };
    let to_r0 = |i: Option<&MInstr>| matches!(i, Some(MovRR { rd: 0, .. } | FMovRR { fd: 0, .. }));
    let from_r0 =
        |i: Option<&MInstr>| matches!(i, Some(MovRR { ra: 0, .. } | FMovRR { fa: 0, .. }));
    let at = |k: usize| text.get(pc + k);
    if next <= pc + 1 || (to_r0(at(0)) && hook(at(1))) {
        return None;
    }
    Some(match (text[pc], text[pc + 1]) {
        _ if to_r0(at(1)) && hook(at(2)) && from_r0(at(3)) && next > pc + 3 => "hook copy",
        _ if to_r0(at(1)) && hook(at(2)) => "hook",
        _ if hook(at(1)) && from_r0(at(2)) => "r0 hook copy",
        (Cmp { .. }, Jcc { .. }) => "Cmp-Jcc",
        (CmpI { .. }, Jcc { .. }) => "CmpI-Jcc",
        (FCmp { .. }, Jcc { .. }) => "FCmp-Jcc",
        (FLd { .. }, FAlu { .. }) => "FLd-FAlu",
        (
            Ld { .. } | St { .. } | FLd { .. } | FSt { .. },
            Ld { .. } | St { .. } | FLd { .. } | FSt { .. },
        ) => "memory pair",
        (MovRR { .. } | FMovRR { .. }, MovRR { .. } | FMovRR { .. }) => "move pair",
        _ => return None,
    })
}

/// Every shape a µop may fuse, each built in the LLFI or PINFI binary of
/// the corpus's last kernel, so the property and edge-target tests run
/// them against the exact oracle under every tool. REFINE's binaries have
/// none: every compare, load and hook-free writer there is followed by its
/// site, which the µop absorbs instead.
#[test]
fn corpus_covers_every_fused_shape() {
    let kernel = CORPUS.len() - 1;
    let mut seen = BTreeSet::new();
    for tool in [Tool::Llfi, Tool::Pinfi] {
        let p = corpus_prepared(kernel, tool, false);
        for pc in 0..p.binary.text.len() {
            if let Some((_, next)) = p.superblock.dispatch(pc) {
                seen.extend(fused_shape(&p.binary.text, pc, next));
            }
        }
    }
    let all = [
        "hook copy",
        "hook",
        "r0 hook copy",
        "Cmp-Jcc",
        "CmpI-Jcc",
        "FCmp-Jcc",
        "FLd-FAlu",
        "memory pair",
        "move pair",
    ];
    assert_eq!(seen, BTreeSet::from(all));
}

/// Everything a trial must reproduce bit-for-bit: outcome, output, cycles,
/// retired instructions and the fault log.
type TrialFacts = (RunOutcome, Vec<(u8, u64, String)>, u64, u64, Option<FaultRecord>);

fn facts(t: &TrialRun) -> TrialFacts {
    let r = &t.result;
    (r.outcome, bits(&r.output), r.cycles, r.instrs_retired, t.log)
}

/// Edge targets, deterministically: the first 32 and the last 8 FI events
/// of every corpus kernel under every tool, warm and cold, against the
/// exact oracle. Early targets stop the quiescent prefix inside the first
/// traces and late ones fire near the end of the run, boundaries the
/// property test above only samples at random.
#[test]
fn edge_targets_match_exact_oracle() {
    for kernel in 0..CORPUS.len() {
        for tool in Tool::all() {
            for checkpoint in [true, false] {
                let p = corpus_prepared(kernel, tool, checkpoint);
                let pop = p.population;
                let first = 1..=pop.min(32);
                let last = pop.saturating_sub(7).max(1)..=pop;
                for target in first.chain(last) {
                    let seed = target.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    assert_eq!(
                        facts(&p.run_trial_full(target, seed)),
                        facts(&p.run_trial_exact(target, seed)),
                        "kernel {kernel} {} checkpoint={checkpoint} target {target}/{pop}",
                        tool.name()
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Any-state layer: one register set to an arbitrary value, fused vs exact.
// ---------------------------------------------------------------------------

/// Number of value kinds [`corrupt_value`] draws from.
const VALUE_KINDS: u64 = 11;

/// Value kind `kind` for a register holding `old`: a random word, a
/// single-bit flip, the extremes, a neighbouring word, a wild frame offset
/// within a stack's size, and the words on and just below each segment's
/// edge. Any k-bit flip of a register is one of these states.
fn corrupt_value(kind: u64, old: u64, stack_bytes: u64, rng: &mut StdRng) -> u64 {
    match kind {
        0 => rng.gen(),
        1 => old ^ 1 << rng.gen_range(0..64u32),
        2 => 0,
        3 => u64::MAX,
        4 => old.wrapping_add(8),
        5 => old.wrapping_sub(8),
        6 => old.wrapping_add(rng.gen_range(0..2 * stack_bytes).wrapping_sub(stack_bytes) & !7),
        7 => GLOBAL_BASE,
        8 => GLOBAL_BASE - 8,
        9 => STACK_TOP,
        _ => STACK_TOP - 8,
    }
}

/// The register to corrupt: `sp` and `fp` a quarter of the time each, as
/// they decide where every frame access lands; otherwise any GPR, FPR or
/// FLAGS.
fn corrupt_reg(rng: &mut StdRng) -> Reg {
    match rng.gen_range(0..8u32) {
        0 | 1 => Reg::G(SP),
        2 | 3 => Reg::G(FP),
        4 | 5 => Reg::G(rng.gen_range(0..16u8)),
        6 => Reg::F(rng.gen_range(0..16u8)),
        _ => Reg::Flags,
    }
}

/// The value `reg` holds in `ck`.
fn reg_value(ck: &Checkpoint, reg: Reg) -> u64 {
    match reg {
        Reg::G(i) => ck.regs[i as usize],
        Reg::F(i) => ck.fregs[i as usize],
        Reg::Flags => u64::from(ck.flags),
    }
}

/// Outcome, bit-exact output, cycles and retired count of one run.
type RunFacts = (RunOutcome, Vec<(u8, u64, String)>, u64, u64);

fn run_facts(r: &RunResult) -> RunFacts {
    (r.outcome, bits(&r.output), r.cycles, r.instrs_retired)
}

/// Resume `p`'s golden run at `ck` with `reg` set to `value` and run the
/// rest twice: fused from `ck`'s FI count with convergence against the
/// golden end, as a trial's post-fire suffix runs, and exactly with no
/// injector. Returns (fused, exact, whether the fused run converged).
fn fused_and_exact(
    p: &PreparedTool,
    ck: &Checkpoint,
    reg: Reg,
    value: u64,
) -> (RunFacts, RunFacts, bool) {
    let cfg = RunConfig { max_cycles: p.timeout_cycles, stack_words: p.stack_words };
    let fp = p.fastpath.as_deref().expect("default prepare keeps golden checkpoints");
    let corrupted = || {
        let mut m = Machine::resume(&p.binary, &cfg, ck);
        m.xor_mask(reg, reg_value(ck, reg) ^ value);
        m
    };
    let g = &fp.golden_run;
    let RunOutcome::Exit(exit_code) = g.outcome else { panic!("golden run did not exit") };
    let end = GoldenEnd {
        exit_code,
        output: &g.output,
        cycles: g.cycles,
        retired: g.instrs_retired,
        probe_overhead: if p.tool == Tool::Pinfi { PIN_OVERHEAD_CYCLES } else { 0 },
    };
    let mut fast = TrialFastStats::default();
    let (mut m, mut count) = (corrupted(), ck.fi_count);
    let golden = Some((&fp.store, end));
    let outcome = m
        .run_sb(&p.superblock, &mut count, 0, u64::MAX, golden, cfg.max_cycles, &mut fast)
        .expect("a run with no stop count ends");
    let fused = m.into_result(outcome);
    let mut m = corrupted();
    let outcome =
        m.run_exact_until_fired(cfg.max_cycles, &mut NoFi, None).expect("NoFi never fires");
    let exact = m.into_result(outcome);
    (run_facts(&fused), run_facts(&exact), fast.converged)
}

/// For every (program, tool): `checkpoints` golden checkpoints, each the
/// nearest below a seeded target (the initial state when none is), times
/// every value kind in a freshly drawn register. Fails on any fused/exact
/// difference or panic, naming each state; returns the number of states
/// run.
fn check_any_register_value(checkpoints: usize) -> usize {
    let (mut states, mut converged, mut failures) = (0, 0, Vec::new());
    let mut pair = 0u64;
    for b in all_apps() {
        let module = b.module();
        for tool in Tool::all() {
            pair += 1;
            let p = PreparedTool::prepare(&module, tool);
            let store = &p.fastpath.as_deref().expect("default prepare keeps checkpoints").store;
            let cfg = RunConfig { max_cycles: p.timeout_cycles, stack_words: p.stack_words };
            let initial = Machine::new(&p.binary, &cfg).snapshot(0);
            let stack_bytes = p.stack_words as u64 * 8;
            let mut rng = StdRng::seed_from_u64(SEED ^ pair);
            for _ in 0..checkpoints {
                let target = rng.gen_range(1..=p.population);
                let ck = store.nearest_below(target).unwrap_or(&initial);
                for kind in 0..VALUE_KINDS {
                    let reg = corrupt_reg(&mut rng);
                    let value = corrupt_value(kind, reg_value(ck, reg), stack_bytes, &mut rng);
                    let state = format!(
                        "{} {} at retired {}: {} := {value:#x}",
                        b.name,
                        tool.name(),
                        ck.retired,
                        reg.name()
                    );
                    states += 1;
                    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        fused_and_exact(&p, ck, reg, value)
                    }));
                    match run {
                        Ok((fused, exact, conv)) if fused == exact => {
                            converged += usize::from(conv)
                        }
                        Ok((fused, exact, _)) => {
                            failures.push(format!("{state}: fused {fused:?} != exact {exact:?}"))
                        }
                        Err(_) => failures.push(format!("{state}: panicked")),
                    }
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {states} states failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
    eprintln!(
        "any register value: {states} states over {pair} pairs, {converged} converged, 0 failed"
    );
    states
}

/// Any register value a fault can leave behind, not only the bit flips a
/// campaign seed happens to draw: the fused suffix (convergence on) and
/// the exact interpreter agree on outcome, output, cycles and retired
/// count, and neither panics. The pinned tier-1 instance: 2 checkpoints
/// per (program, tool), 990 states.
#[test]
fn any_register_value_fused_equals_exact() {
    assert_eq!(check_any_register_value(2), 45 * 2 * VALUE_KINDS as usize);
}

/// The full instance of [`any_register_value_fused_equals_exact`]: 6
/// checkpoints per (program, tool), 2,970 states. Run it in release:
/// `cargo test --release -p refine-campaign --test integration_engine_equiv
/// -- --ignored any_register_value`.
#[test]
#[ignore = "full any-state check, run in release by ci.sh"]
fn any_register_value_fused_equals_exact_full() {
    assert_eq!(check_any_register_value(6), 45 * 6 * VALUE_KINDS as usize);
}
