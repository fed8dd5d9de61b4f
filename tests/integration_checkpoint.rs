//! Checkpoint fast-forward equivalence: the golden-run checkpoint restore
//! plus the predecoded quiescent fast loop must be a *bit-identical*
//! replacement for full trial interpretation — same outcome tables, same
//! fault records, same trace streams — at every jobs count and for all
//! three tools (the DESIGN.md checkpoint-semantics invariant, end to end).
//! The fused profiling run that builds the checkpoints is checked against
//! the exact interpreter here too.

use proptest::prelude::*;
use refine_campaign::classify::Golden;
use refine_campaign::engine::EngineConfig;
use refine_campaign::experiments::{run_suite, SuiteObserver, SuiteResults};
use refine_campaign::tools::{PreparedTool, Tool};
use refine_core::{CheckpointOptions, ProfilingRt};
use refine_machine::{
    Checkpoint, CheckpointBuilder, CheckpointConfig, CheckpointStore, MInstr, Machine, Probe,
    ProbeAction, RunConfig, RunResult,
};
use refine_pinfi::{PinfiProfiler, PIN_OVERHEAD_CYCLES};
use refine_telemetry::{TraceSink, TrialTrace};

const TRIALS: u64 = 4;

/// The full evaluation set: the paper's 14-app suite plus the matmul extra.
fn all_apps() -> Vec<String> {
    refine_benchmarks::all()
        .iter()
        .map(|b| b.name.to_string())
        .chain(["matmul".to_string()])
        .collect()
}

/// Run the whole-suite sweep and return the outcome tables plus the trace
/// records sorted by (app, tool, trial id).
fn sweep(jobs: usize, checkpoint: bool) -> (SuiteResults, Vec<TrialTrace>) {
    let cfg = EngineConfig { trials: TRIALS, seed: 0xC4A7, jobs, checkpoint, ..EngineConfig::default() };
    let (sink, buf) = TraceSink::in_memory();
    let apps = all_apps();
    let (suite, _report) = {
        let obs = SuiteObserver { live_progress: false, sink: Some(&sink) };
        run_suite(&cfg, Some(&apps), &obs)
    };
    sink.flush().unwrap();
    drop(sink);
    let mut records = buf.records().unwrap();
    records.sort_by(|a, b| (&a.app, &a.tool, a.trial).cmp(&(&b.app, &b.tool, b.trial)));
    (suite, records)
}

/// The tentpole acceptance check: with checkpointing on (default) and off
/// (`--no-checkpoint`), the 15-app x 3-tool sweep produces byte-identical
/// outcome tables and identical trace records, at `--jobs 1` and `--jobs 4`.
#[test]
fn checkpoint_on_off_sweeps_are_bit_identical() {
    for jobs in [1usize, 4] {
        let (table_on, recs_on) = sweep(jobs, true);
        let (table_off, recs_off) = sweep(jobs, false);
        assert_eq!(table_on, table_off, "outcome table diverged at jobs={jobs}");
        assert_eq!(recs_on.len(), recs_off.len(), "trace count diverged at jobs={jobs}");
        for (a, b) in recs_on.iter().zip(&recs_off) {
            assert_eq!(a, b, "trace record diverged at jobs={jobs}");
        }
    }
}

/// The fast path is actually exercised, not just bypassed: a prepared tool
/// carries a non-empty checkpoint store, and late-target trials restore
/// from it (skipping a nonzero dynamic prefix).
#[test]
fn late_targets_restore_from_checkpoints() {
    let m = refine_benchmarks::by_name("HPCCG-1.0").unwrap().module();
    for tool in Tool::all() {
        let p = PreparedTool::prepare(&m, tool);
        let fp = p.fastpath.as_deref().unwrap_or_else(|| {
            panic!("{}: default prepare must carry a fastpath", tool.name())
        });
        assert!(!fp.store.is_empty(), "{}: empty checkpoint store", tool.name());
        let t = p.run_trial_full(p.population, 1);
        assert!(t.fast.restored, "{}: late trial did not restore", tool.name());
        assert!(t.fast.skipped_instrs > 0, "{}: restore skipped nothing", tool.name());
    }

    let off = PreparedTool::prepare_opt(&m, Tool::Refine, &CheckpointOptions::disabled());
    assert!(off.fastpath.is_none(), "--no-checkpoint must not build a store");
    let t = off.run_trial_full(off.population, 1);
    assert!(!t.fast.restored);
}

/// The exact loop's view of a profiling run: forwards PINFI's counting
/// and per-fetch overhead to its profiler, and reports "fired" on the
/// instruction whose retire reaches `due`, so `run_exact_until_fired`
/// stops exactly where a snapshot is taken.
struct DueProbe<'p> {
    pinfi: Option<&'p mut PinfiProfiler>,
    due: u64,
    at_due: bool,
}

impl Probe for DueProbe<'_> {
    fn before(&mut self, pc: u32, instr: &MInstr, retired: u64) -> ProbeAction {
        self.at_due = retired + 1 == self.due;
        match self.pinfi.as_deref_mut() {
            Some(p) => p.before(pc, instr, retired),
            None => ProbeAction::Continue,
        }
    }

    fn overhead_cycles(&self) -> u64 {
        self.pinfi.as_deref().map_or(0, Probe::overhead_cycles)
    }

    fn fired(&self) -> bool {
        self.at_due
    }
}

/// The oracle profiling run of `p`'s binary on the exact interpreter,
/// replaying the checkpoint builder over the capture points the fused
/// profiling run chose (`chosen`, the retired counts of the snapshots its
/// store kept): a full-scan snapshot at each. The fused capture snapshots
/// at the first dispatch boundary at or after each due count, so a kept
/// snapshot in `[due, due + interval)` is that due's; a due with none was
/// captured and later thinned away, and its due count stands in for the
/// point (same next due, same due slot). Returns the run, its FI
/// population and the store (`None` without `ckpt`).
fn exact_profile(
    p: &PreparedTool,
    ckpt: Option<CheckpointConfig>,
    chosen: &[u64],
) -> (RunResult, u64, Option<CheckpointStore>) {
    let cfg = RunConfig { max_cycles: u64::MAX / 4, stack_words: p.stack_words };
    let mut builder = ckpt.map(|c| CheckpointBuilder::new(&c));
    let (mut rt, mut pinfi) = (ProfilingRt::default(), PinfiProfiler::default());
    let mut m = Machine::new(&p.binary, &cfg);
    let (mut retired, mut chosen) = (0, chosen.iter().copied().peekable());
    let outcome = loop {
        let due = builder.as_ref().map_or(u64::MAX, |b| b.next_due(retired));
        let interval = builder.as_ref().map_or(0, |b| b.next_due(due) - due);
        let at = match chosen.peek() {
            Some(&r) if r >= due && r - due < interval => chosen.next().expect("peeked"),
            _ => due,
        };
        let profiler = (p.tool == Tool::Pinfi).then_some(&mut pinfi);
        let mut probe = DueProbe { pinfi: profiler, due: at, at_due: false };
        if let Some(outcome) = m.run_exact_until_fired(cfg.max_cycles, &mut rt, Some(&mut probe)) {
            break outcome;
        }
        retired = at;
        let fi_count = if p.tool == Tool::Pinfi { pinfi.count } else { rt.count };
        builder.as_mut().unwrap().push(m.snapshot(fi_count));
    };
    assert!(chosen.next().is_none(), "a kept snapshot matched no due count");
    let population = if p.tool == Tool::Pinfi { pinfi.count } else { rt.count };
    (m.into_result(outcome), population, builder.map(CheckpointBuilder::finish))
}

/// Assert the fused profiling run `fused` (result, population, store)
/// equals the exact oracle's.
fn assert_profiles_equal(
    ctx: &str,
    fused: (&RunResult, u64, Option<&CheckpointStore>),
    exact: (&RunResult, u64, Option<&CheckpointStore>),
) {
    let ((fr, fpop, fs), (er, epop, es)) = (fused, exact);
    assert_eq!(fr.outcome, er.outcome, "{ctx}: outcome");
    assert_eq!(fr.output, er.output, "{ctx}: output");
    assert_eq!(fr.cycles, er.cycles, "{ctx}: cycles");
    assert_eq!(fr.instrs_retired, er.instrs_retired, "{ctx}: retired");
    assert_eq!(fpop, epop, "{ctx}: population");
    let (Some(fs), Some(es)) = (fs, es) else {
        assert!(fs.is_none() && es.is_none(), "{ctx}: one side has a store");
        return;
    };
    assert_eq!(fs.interval, es.interval, "{ctx}: final interval");
    assert_eq!(fs.len(), es.len(), "{ctx}: checkpoint count");
    for (i, (f, e)) in fs.checkpoints.iter().zip(&es.checkpoints).enumerate() {
        let ctx = format!("{ctx} checkpoint {i} (retired {})", e.retired);
        let regs = |c: &Checkpoint| (c.regs, c.fregs, c.flags, c.pc);
        let counters = |c: &Checkpoint| (c.cycles, c.retired, c.fi_count);
        assert_eq!(regs(f), regs(e), "{ctx}: registers");
        assert_eq!(counters(f), counters(e), "{ctx}: counters");
        assert_eq!(f.output, e.output, "{ctx}: output");
        assert_eq!(f.data_pages, e.data_pages, "{ctx}: data pages");
        assert_eq!(f.stack_pages, e.stack_pages, "{ctx}: stack pages");
    }
}

/// The prepare-time profiling run is fused and diffs the stack only from
/// its lowest written word; over the 14-app suite x 3 tools it must equal
/// the exact interpreter snapshotting by full scan at the capture points
/// the fused run chose — with the default capture settings, with a
/// thinning one (interval 97, cap 8) driven over the prepared binary, and
/// with checkpointing off.
#[test]
fn fused_profiling_equals_exact_profiling() {
    let thinning = CheckpointConfig { interval: 97, max_checkpoints: 8, ..Default::default() };
    for b in refine_benchmarks::all() {
        let m = b.module();
        for tool in Tool::all() {
            let p = PreparedTool::prepare(&m, tool);
            let fp = p.fastpath.as_deref().expect("checkpointing on builds a store");
            let exempt_data_words = fp.store.exempt_data_words;
            let ckpt = CheckpointConfig { exempt_data_words, ..Default::default() };
            let chosen: Vec<u64> = fp.store.checkpoints.iter().map(|c| c.retired).collect();
            let (er, epop, es) = exact_profile(&p, Some(ckpt), &chosen);
            let ctx = format!("{} {} default", b.name, tool.name());
            let fused = (&fp.golden_run, p.population, Some(&fp.store));
            assert_profiles_equal(&ctx, fused, (&er, epop, es.as_ref()));
            assert_eq!(p.profile_cycles, er.cycles, "{ctx}: profile cycles");

            // Thinning: the same fused call with a builder whose small cap
            // makes it drop snapshots and double its interval.
            let cfg = RunConfig { max_cycles: u64::MAX / 4, stack_words: p.stack_words };
            let overhead = if tool == Tool::Pinfi { PIN_OVERHEAD_CYCLES } else { 0 };
            let mut builder = CheckpointBuilder::new(&thinning);
            let (fr, fpop) =
                Machine::run_profile(&p.binary, &cfg, &p.superblock, overhead, Some(&mut builder));
            let fs = builder.finish();
            let chosen: Vec<u64> = fs.checkpoints.iter().map(|c| c.retired).collect();
            let (er, epop, es) = exact_profile(&p, Some(thinning), &chosen);
            let ctx = format!("{} {} thinning", b.name, tool.name());
            assert_profiles_equal(&ctx, (&fr, fpop, Some(&fs)), (&er, epop, es.as_ref()));

            // Checkpointing off: the same fused call without a builder.
            let p = PreparedTool::prepare_opt(&m, tool, &CheckpointOptions::disabled());
            let (er, epop, _) = exact_profile(&p, None, &[]);
            let ctx = format!("{} {} no-checkpoint", b.name, tool.name());
            let facts = (p.population, p.profile_cycles);
            assert_eq!(facts, (epop, er.cycles), "{ctx}: population, cycles");
            assert_eq!(p.golden, Golden::from_run(&er), "{ctx}: golden");
            let (fr, fpop) = Machine::run_profile(&p.binary, &cfg, &p.superblock, overhead, None);
            assert_profiles_equal(&ctx, (&fr, fpop, None), (&er, epop, None));
        }
    }
}

/// Per-trial differential harness: prepare one kernel with a custom
/// checkpoint interval and compare the fast path against the exact path at
/// one (target, seed) point — outcome, output, cycles, retired count and
/// fault record must all match bit-for-bit.
fn assert_trial_equivalence(name: &str, src: &str, interval: u64, frac: f64, seed: u64) {
    let m = refine_frontend::compile_source(src)
        .unwrap_or_else(|e| panic!("{name}: frontend: {e:?}"));
    let ckpt = CheckpointOptions { interval, ..CheckpointOptions::default() };
    for tool in Tool::all() {
        let p = PreparedTool::prepare_opt(&m, tool, &ckpt);
        // Targets past the population are legal (the injector never fires);
        // the fraction range deliberately overshoots to cover that.
        let target = ((p.population as f64 * frac) as u64).max(1);
        let fast = p.run_trial_full(target, seed);
        let exact = p.run_trial_exact(target, seed);
        let ctx = format!("{name} {} K={interval} target={target} seed={seed}", tool.name());
        assert_eq!(fast.result.outcome, exact.result.outcome, "{ctx}: outcome");
        assert_eq!(fast.result.output, exact.result.output, "{ctx}: output");
        assert_eq!(fast.result.cycles, exact.result.cycles, "{ctx}: cycles");
        assert_eq!(
            fast.result.instrs_retired, exact.result.instrs_retired,
            "{ctx}: instrs_retired"
        );
        assert_eq!(fast.log, exact.log, "{ctx}: fault record");
    }
}

/// A couple of corpus kernels checked at fixed awkward points: interval 1
/// (a checkpoint at every event window), target 1 (nothing to skip), and a
/// target beyond the population (the injector never fires).
#[test]
fn fixed_corner_targets_are_equivalent() {
    let (name, src) = CORPUS[0];
    assert_trial_equivalence(name, src, 1, 0.0, 9); // target clamps to 1
    assert_trial_equivalence(name, src, 64, 1.5, 9); // beyond the population
    let (name, src) = CORPUS[4];
    assert_trial_equivalence(name, src, 7, 0.999, 3); // last event
}

/// The 8-kernel differential corpus (same sources as
/// `integration_differential`, which owns the interpreter-vs-machine
/// oracle; here they drive the fast-vs-exact trial oracle).
const CORPUS: [(&str, &str); 8] = [
    (
        "signed_arith",
        "fn main() {\n\
           let s = 0;\n\
           for (i = -7; i < 9; i = i + 1) {\n\
             let q = (i * 13 + 5) / 3;\n\
             let r = (i * 11 - 4) % 5;\n\
             s = s + q * 2 - r;\n\
           }\n\
           print_i(s);\n\
           return 0;\n\
         }",
    ),
    (
        "float_reduction",
        "fvar v[32];\n\
         fn main() {\n\
           for (i = 0; i < 32; i = i + 1) { v[i] = float(i * 3 + 1) * 0.37; }\n\
           let s: float = 0.0;\n\
           let p: float = 1.0;\n\
           for (i = 0; i < 32; i = i + 1) {\n\
             s = s + sqrt(v[i]);\n\
             if (i % 7 == 0) { p = p * (1.0 + v[i] * 0.01); }\n\
           }\n\
           print_f(s);\n\
           print_f(p);\n\
           return 0;\n\
         }",
    ),
    (
        "stencil_boundary",
        "fvar g[40];\n\
         fn main() {\n\
           for (i = 0; i < 40; i = i + 1) { g[i] = float(i % 9) * 0.5; }\n\
           for (t = 0; t < 3; t = t + 1) {\n\
             for (i = 0; i < 40; i = i + 1) {\n\
               if (i == 0) { g[i] = g[i] * 0.5 + g[i+1] * 0.5; }\n\
               else { if (i == 39) { g[i] = g[i] * 0.5 + g[i-1] * 0.5; }\n\
                      else { g[i] = 0.5 * g[i] + 0.25 * (g[i-1] + g[i+1]); } }\n\
             }\n\
           }\n\
           let s: float = 0.0;\n\
           for (i = 0; i < 40; i = i + 1) { s = s + g[i]; }\n\
           print_f(s);\n\
           return 0;\n\
         }",
    ),
    (
        "call_chain",
        "fn sq(x: float) : float { return x * x; }\n\
         fn hyp(a: float, b: float) : float { return sqrt(sq(a) + sq(b)); }\n\
         fn main() {\n\
           let s: float = 0.0;\n\
           for (i = 1; i < 20; i = i + 1) {\n\
             s = s + hyp(float(i) * 0.5, float(20 - i) * 0.25);\n\
           }\n\
           print_f(s);\n\
           return 0;\n\
         }",
    ),
    (
        "lcg_minmax",
        "var seedg;\n\
         fn lcg() { seedg = (seedg * 1103515245 + 12345) % 2147483648; return seedg; }\n\
         fn main() {\n\
           seedg = 7;\n\
           let mx = 0;\n\
           let mn = 2147483648;\n\
           let sum = 0;\n\
           for (i = 0; i < 64; i = i + 1) {\n\
             let x = lcg() % 1000;\n\
             if (x > mx) { mx = x; }\n\
             if (x < mn) { mn = x; }\n\
             sum = sum + x;\n\
           }\n\
           print_i(mx);\n\
           print_i(mn);\n\
           print_i(sum);\n\
           return 0;\n\
         }",
    ),
    (
        "mixed_casts",
        "fn main() {\n\
           let acc: float = 0.0;\n\
           let k = 0;\n\
           for (i = 0; i < 25; i = i + 1) {\n\
             let f: float = float(i) * 0.7 - 3.0;\n\
             k = k + int(f);\n\
             acc = acc + float(k) * 0.125;\n\
           }\n\
           print_i(k);\n\
           print_f(acc);\n\
           return 0;\n\
         }",
    ),
    (
        "triangular",
        "var a[30];\n\
         fn main() {\n\
           for (i = 0; i < 30; i = i + 1) { a[i] = i * i - 7 * i + 3; }\n\
           let s = 0;\n\
           for (i = 0; i < 30; i = i + 1) {\n\
             for (j = i; j < 30; j = j + 1) { s = s + a[i] * a[j] % 97; }\n\
           }\n\
           print_i(s);\n\
           print_s(\"done\");\n\
           return 0;\n\
         }",
    ),
    (
        "dot_and_norm",
        "fvar x[24];\n\
         fvar y[24];\n\
         fn dot() : float {\n\
           let d: float = 0.0;\n\
           for (i = 0; i < 24; i = i + 1) { d = d + x[i] * y[i]; }\n\
           return d;\n\
         }\n\
         fn main() {\n\
           for (i = 0; i < 24; i = i + 1) {\n\
             x[i] = float(i + 1) * 0.2;\n\
             y[i] = float(24 - i) * 0.3;\n\
           }\n\
           print_f(dot());\n\
           print_f(sqrt(dot()));\n\
           return 0;\n\
         }",
    ),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random (kernel, checkpoint interval, target fraction, seed) points:
    /// the fast path must equal the exact path everywhere — tiny intervals
    /// (dense snapshots), huge ones (store stays cold), early targets (no
    /// usable checkpoint), late targets (maximum skip) and targets past the
    /// population (the fault never fires).
    #[test]
    fn prop_fast_and_exact_trials_match(
        kernel in 0usize..8,
        interval in 1u64..6000,
        frac in 0.0f64..1.2,
        seed in 0u64..1_000_000,
    ) {
        let (name, src) = CORPUS[kernel];
        assert_trial_equivalence(name, src, interval, frac, seed);
    }
}
