//! A uniform interface over the three fault injectors.

use crate::classify::Golden;
use refine_core::{CheckpointOptions, ExecEngine, FaultRecord, FiOptions, InjectingRt};
use refine_ir::passes::OptLevel;
use refine_ir::Module;
use refine_machine::{
    Binary, CheckpointBuilder, CheckpointStore, FiRuntime, GoldenEnd, Machine, NoFi, Probe,
    RunConfig, RunOutcome, RunResult, SuperblockProgram,
};
use refine_pinfi::{PinfiInjector, PIN_OVERHEAD_CYCLES};
use refine_telemetry::{Phase, Span};
use std::sync::Arc;

pub use refine_machine::TrialFastStats;

/// The three tools compared in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tool {
    /// IR-level compiler FI (state of the art before REFINE).
    Llfi,
    /// The paper's backend-pass FI.
    Refine,
    /// Binary-level FI on the DBI engine (the accuracy baseline).
    Pinfi,
}

impl Tool {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Tool::Llfi => "LLFI",
            Tool::Refine => "REFINE",
            Tool::Pinfi => "PINFI",
        }
    }

    /// All three, in the paper's column order.
    pub fn all() -> [Tool; 3] {
        [Tool::Llfi, Tool::Refine, Tool::Pinfi]
    }
}

/// A program prepared for a campaign with one tool: the right binary plus
/// profiling results (population, golden output, timeout budget).
#[derive(Debug)]
pub struct PreparedTool {
    /// Which tool.
    pub tool: Tool,
    /// The binary the campaign executes.
    pub binary: Binary,
    /// Dynamic FI-target population (the sampling universe).
    pub population: u64,
    /// Golden reference from the profiling run.
    pub golden: Golden,
    /// Cycles of the profiled execution (used for the 10x timeout rule and
    /// the Figure 5 speed accounting).
    pub profile_cycles: u64,
    /// Cycle budget per trial: 10x the profiled execution (§4.3.2).
    pub timeout_cycles: u64,
    /// Stack size for runs.
    pub stack_words: usize,
    /// Opcode label of each static site, indexed by site id, for per-trial
    /// fault provenance (REFINE: backend-pass site table; LLFI: IR site
    /// table; PINFI has no site table — its opcodes resolve from the
    /// binary text at the faulting pc, see [`PreparedTool::site_opcode`]).
    pub site_opcodes: Vec<&'static str>,
    /// Golden-run checkpoints for trial fast-forward (`None` with
    /// `--no-checkpoint`). Shared read-only across workers.
    pub fastpath: Option<Arc<FastPath>>,
    /// Detect post-injection golden convergence and splice the golden
    /// outcome (`--no-convergence` clears this; requires a fastpath).
    pub convergence: bool,
    /// The predecoded, superblock-fused text section for the fused engine.
    /// Always built and shared read-only across workers; `--engine step`
    /// does not use it.
    pub superblock: Arc<SuperblockProgram>,
}

/// The immutable fast-forward companion of a prepared binary: the
/// profiling run's [`CheckpointStore`] and its complete result.
#[derive(Debug)]
pub struct FastPath {
    /// Snapshots of the (quiescent) profiling run.
    pub store: CheckpointStore,
    /// The complete golden profiling result, spliced into trials that
    /// re-converge with it post-injection.
    pub golden_run: RunResult,
}

/// A completed trial with its fault log and fast-forward accounting.
#[derive(Debug, Clone)]
pub struct TrialRun {
    /// The machine run result.
    pub result: RunResult,
    /// Fault log entry, when the injection fired.
    pub log: Option<FaultRecord>,
    /// Checkpoint fast-forward accounting.
    pub fast: TrialFastStats,
}

/// Cycle budget of a prepare's golden profiling run: about 80 times the
/// longest suite golden run (13.3 M cycles, an LLFI binary), so only a run
/// that never ends reaches it. Fused, that takes about a second, where an
/// unbounded run would hang prepare; [`PreparedTool::prepare_fi`] then
/// panics naming the budget.
const PROFILE_MAX_CYCLES: u64 = 1 << 30;

/// Predecode + fuse one prepared binary under its telemetry span, counting
/// the FI events `tool` samples: PINFI's probe counts FI targets at fetch,
/// REFINE and LLFI count their hook calls.
fn build_superblock(binary: &Binary, tool: Tool) -> Arc<SuperblockProgram> {
    let _s = Span::enter(Phase::SuperblockBuild);
    Arc::new(match tool {
        Tool::Pinfi => SuperblockProgram::probed(binary),
        Tool::Refine | Tool::Llfi => SuperblockProgram::new(binary),
    })
}

impl PreparedTool {
    /// Compile/attach `tool` to the program and run the profiling phase,
    /// capturing golden-run checkpoints (the default configuration).
    pub fn prepare(module: &Module, tool: Tool) -> PreparedTool {
        Self::prepare_opt(module, tool, &CheckpointOptions::default())
    }

    /// [`PreparedTool::prepare`] with explicit checkpointing knobs
    /// (`CheckpointOptions::disabled()` is the `--no-checkpoint` path).
    pub fn prepare_opt(module: &Module, tool: Tool, ckpt: &CheckpointOptions) -> PreparedTool {
        Self::prepare_fi(module, tool, &FiOptions::all(), ckpt)
    }

    /// Prepare REFINE with custom flags (`-fi-funcs`/`-fi-instrs`
    /// selections) and checkpointing knobs, for targeted campaigns and
    /// class ablations.
    pub fn prepare_refine_with(
        module: &Module,
        opts: &FiOptions,
        ckpt: &CheckpointOptions,
    ) -> PreparedTool {
        assert!(opts.fi, "instrumentation must be enabled");
        Self::prepare_fi(module, Tool::Refine, opts, ckpt)
    }

    /// The one prepare body; `refine_opts` selects REFINE's instrumented
    /// sites and is ignored by the other tools.
    ///
    /// The profiling run is fused through the prepared superblock program,
    /// which counts the FI events `tool` samples, and captures the golden
    /// checkpoints as it goes (none with checkpointing off). PINFI's run
    /// pays its attached probe's per-fetch overhead.
    ///
    /// # Panics
    ///
    /// If the profiling run does not exit within [`PROFILE_MAX_CYCLES`].
    fn prepare_fi(
        module: &Module,
        tool: Tool,
        refine_opts: &FiOptions,
        ckpt: &CheckpointOptions,
    ) -> PreparedTool {
        let stack_words = 1 << 16;
        let cfg = RunConfig { max_cycles: PROFILE_MAX_CYCLES, stack_words };
        let mut mcfg = ckpt.enabled.then(|| ckpt.machine_config());
        let (binary, site_opcodes) = match tool {
            Tool::Refine => {
                let c = refine_core::compile_with_fi(module, OptLevel::O2, refine_opts);
                let opcodes = c.sites.iter().map(|s| s.instr.mnemonic()).collect();
                // REFINE's trigger-path scratch slot must be exempt from the
                // convergence comparison or a fired trial never matches.
                if let Some(m) = mcfg.as_mut() {
                    m.exempt_data_words = c.digest_exempt_words();
                }
                (c.binary, opcodes)
            }
            Tool::Llfi => {
                let (c, sites) = refine_llfi::compile_with_llfi(
                    module,
                    OptLevel::O2,
                    &refine_llfi::LlfiOptions::default(),
                );
                let opcodes = sites.iter().map(|s| s.opcode).collect();
                (c.binary, opcodes)
            }
            Tool::Pinfi => {
                let c = refine_core::compile_with_fi(module, OptLevel::O2, &FiOptions::default());
                (c.binary, Vec::new())
            }
        };
        let superblock = build_superblock(&binary, tool);
        let (profile, population, store) = {
            let _probe = (tool == Tool::Pinfi).then(|| Span::enter(Phase::FiPinfiProbe));
            let _build = mcfg.map(|_| Span::enter(Phase::CheckpointBuild));
            let overhead = if tool == Tool::Pinfi { PIN_OVERHEAD_CYCLES } else { 0 };
            let mut builder = mcfg.map(|c| CheckpointBuilder::new(&c));
            let (profile, population) =
                Machine::run_profile(&binary, &cfg, &superblock, overhead, builder.as_mut());
            (profile, population, builder.map(CheckpointBuilder::finish))
        };
        assert!(
            profile.outcome != RunOutcome::Timeout,
            "{}: golden profiling run did not exit within PROFILE_MAX_CYCLES \
             ({PROFILE_MAX_CYCLES} cycles)",
            tool.name()
        );
        assert!(population > 0, "{}: empty FI population", tool.name());
        let golden = Golden::from_run(&profile);
        let profile_cycles = profile.cycles;
        let fastpath = store.map(|store| Arc::new(FastPath { store, golden_run: profile }));
        PreparedTool {
            tool,
            binary,
            population,
            golden,
            profile_cycles,
            timeout_cycles: profile_cycles.saturating_mul(10),
            stack_words,
            site_opcodes,
            fastpath,
            convergence: ckpt.enabled && ckpt.convergence,
            superblock,
        }
    }

    /// Execute one fault-injection trial at dynamic target instruction
    /// `target` (1-based) with RNG stream `seed`.
    pub fn run_trial(&self, target: u64, seed: u64) -> RunResult {
        self.run_trial_full(target, seed).result
    }

    /// Full trial execution under the default engine
    /// ([`ExecEngine::Superblock`]). Kept as the campaign-facing entry so
    /// the whole existing differential suite exercises the fused engine
    /// against [`PreparedTool::run_trial_exact`].
    pub fn run_trial_full(&self, target: u64, seed: u64) -> TrialRun {
        self.run_trial_engine(ExecEngine::default(), target, seed)
    }

    /// Full trial execution under `engine`. [`ExecEngine::Step`] is exactly
    /// [`PreparedTool::run_trial_exact`], the differential oracle.
    /// [`ExecEngine::Superblock`] restores the nearest golden-run checkpoint
    /// below the target (when a fastpath exists), runs the quiescent prefix
    /// fused, attaches the real injector for the exact fire window, and
    /// runs the post-fire suffix fused — convergence-tracked when enabled.
    /// A cold trial (no fastpath) is the same path from the initial state
    /// with no golden end. Both engines are bit-identical (outcome, output,
    /// cycles, fault log): the quiescent prefix of an injection run is
    /// observationally equal to the profiling run (the injection RNG is
    /// consumed only at the fire), so a profiling-run snapshot is an exact
    /// restore point for any trial whose target event lies beyond it, and
    /// the fused loop replicates the exact loop's accounting
    /// instruction-for-instruction.
    pub fn run_trial_engine(&self, engine: ExecEngine, target: u64, seed: u64) -> TrialRun {
        match (engine, self.tool) {
            (ExecEngine::Step, _) => self.run_trial_exact(target, seed),
            (ExecEngine::Superblock, Tool::Refine | Tool::Llfi) => {
                self.run_trial_fused::<InjectingRt>(target, seed)
            }
            (ExecEngine::Superblock, Tool::Pinfi) => {
                self.run_trial_fused::<PinfiInjector>(target, seed)
            }
        }
    }

    /// The fused trial driver, monomorphized per injector. The quiescent
    /// prefix and the post-fire suffix both run in the counting-only fused
    /// loop, which tallies the FI events the prepared superblock program
    /// counts; only the fire window runs the real injector, exactly.
    fn run_trial_fused<I: Injector>(&self, target: u64, seed: u64) -> TrialRun {
        let sb = self.superblock.as_ref();
        let cfg = RunConfig { max_cycles: self.timeout_cycles, stack_words: self.stack_words };
        let fp = self.fastpath.as_deref();
        let (mut m, restored) = {
            let _s = fp.map(|_| Span::enter(Phase::CheckpointRestore));
            match fp.and_then(|fp| fp.store.nearest_below(target)) {
                Some(ck) => (Machine::resume(&self.binary, &cfg, ck), Some(ck)),
                None => (Machine::new(&self.binary, &cfg), None),
            }
        };
        let golden = fp.and_then(|fp| self.golden_end(fp, I::PROBE_OVERHEAD));
        let mut fast = TrialFastStats {
            restored: restored.is_some(),
            skipped_instrs: restored.map_or(0, |ck| ck.retired),
            ..TrialFastStats::default()
        };
        let mut count = restored.map_or(0, |ck| ck.fi_count);
        let max = cfg.max_cycles;
        let stop = target.saturating_sub(1);
        let prefix = m.run_sb(sb, &mut count, I::PROBE_OVERHEAD, stop, None, max, &mut fast);
        let (outcome, log) = match prefix {
            // Program ended (or timed out) before the target event: the
            // injector would never have fired.
            Some(outcome) => (outcome, None),
            None => {
                let mut inj = I::resume(target, seed, count);
                let outcome = inj.fire(&mut m, max).unwrap_or_else(|| {
                    // Once fired, the injector only counts again, and a
                    // probe has detached (no per-fetch overhead).
                    let mut count = inj.events();
                    m.run_sb(sb, &mut count, 0, u64::MAX, golden, max, &mut fast)
                        .expect("cycle-bounded run terminates")
                });
                (outcome, inj.log())
            }
        };
        TrialRun { result: m.into_result(outcome), log, fast }
    }

    /// The golden run's terminal facts for convergence splicing, when
    /// convergence is enabled and the golden run exited cleanly (a golden
    /// trap or timeout — which does not occur for the suite programs —
    /// would make "rest is identical" splicing meaningless for timing).
    /// `probe_overhead` is the per-fetch cycles the profiling run paid.
    fn golden_end<'g>(
        &self,
        fp: &'g FastPath,
        probe_overhead: u64,
    ) -> Option<(&'g CheckpointStore, GoldenEnd<'g>)> {
        if !self.convergence {
            return None;
        }
        let g = &fp.golden_run;
        let RunOutcome::Exit(exit_code) = g.outcome else { return None };
        let end = GoldenEnd {
            exit_code,
            output: &g.output,
            cycles: g.cycles,
            retired: g.instrs_retired,
            probe_overhead,
        };
        Some((&fp.store, end))
    }

    /// Reference trial execution: full interpretation from the initial
    /// state, no checkpoint restore, no fusion and no convergence splice.
    /// This is the `--engine step` path and the oracle the differential
    /// tests compare [`PreparedTool::run_trial_full`] against.
    pub fn run_trial_exact(&self, target: u64, seed: u64) -> TrialRun {
        let cfg = RunConfig { max_cycles: self.timeout_cycles, stack_words: self.stack_words };
        match self.tool {
            Tool::Refine | Tool::Llfi => {
                let mut rt = InjectingRt::new(target, seed);
                let result = Machine::run(&self.binary, &cfg, &mut rt, None);
                TrialRun { result, log: rt.log, fast: TrialFastStats::default() }
            }
            Tool::Pinfi => {
                let mut probe = PinfiInjector::new(target, seed);
                let result = Machine::run(&self.binary, &cfg, &mut NoFi, Some(&mut probe));
                TrialRun { result, log: probe.log, fast: TrialFastStats::default() }
            }
        }
    }

    /// Opcode label of a fired fault's injection site (None when the site
    /// is unknown, which does not happen for faults this tool produced).
    pub fn site_opcode(&self, record: &FaultRecord) -> Option<String> {
        match self.tool {
            // PINFI logs the faulting pc; the opcode comes from the text.
            Tool::Pinfi => self
                .binary
                .text
                .get(record.site as usize)
                .map(|i| i.mnemonic().to_string()),
            Tool::Refine | Tool::Llfi => {
                self.site_opcodes.get(record.site as usize).map(|s| s.to_string())
            }
        }
    }
}

/// The per-tool half of a fused trial: how the real injector attaches for
/// the fire window. REFINE and LLFI inject from their runtime hooks
/// (`selInstr`/`injectFault`); PINFI's DBI probe pays per-fetch overhead
/// until it fires and detaches.
trait Injector: Sized {
    /// Per-fetch cycles the attached probe charges (0 for runtime hooks).
    const PROBE_OVERHEAD: u64;

    /// The injector for (`target`, `seed`) after `counted` quiescent FI
    /// events.
    fn resume(target: u64, seed: u64, counted: u64) -> Self;

    /// Run the exact loop through the firing event; `Some` carries the
    /// outcome when the run ended first.
    fn fire(&mut self, m: &mut Machine<'_>, max_cycles: u64) -> Option<RunOutcome>;

    /// FI events counted so far.
    fn events(&self) -> u64;

    /// The fault log entry, once the injection fired.
    fn log(&self) -> Option<FaultRecord>;
}

impl Injector for InjectingRt {
    const PROBE_OVERHEAD: u64 = 0;

    fn resume(target: u64, seed: u64, counted: u64) -> Self {
        InjectingRt::resume(target, seed, counted)
    }

    fn fire(&mut self, m: &mut Machine<'_>, max_cycles: u64) -> Option<RunOutcome> {
        m.run_exact_until_fired(max_cycles, self, None)
    }

    fn events(&self) -> u64 {
        self.fi_count()
    }

    fn log(&self) -> Option<FaultRecord> {
        self.log
    }
}

impl Injector for PinfiInjector {
    const PROBE_OVERHEAD: u64 = PIN_OVERHEAD_CYCLES;

    fn resume(target: u64, seed: u64, counted: u64) -> Self {
        PinfiInjector::resume(target, seed, counted)
    }

    fn fire(&mut self, m: &mut Machine<'_>, max_cycles: u64) -> Option<RunOutcome> {
        m.run_exact_until_fired(max_cycles, &mut NoFi, Some(self))
    }

    fn events(&self) -> u64 {
        self.fi_count()
    }

    fn log(&self) -> Option<FaultRecord> {
        self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{classify, Outcome};

    fn module() -> Module {
        refine_benchmarks::by_name("HPCCG-1.0").unwrap().module()
    }

    #[test]
    fn all_tools_prepare_with_same_golden() {
        let m = module();
        let prepared: Vec<PreparedTool> =
            Tool::all().iter().map(|t| PreparedTool::prepare(&m, *t)).collect();
        // Golden output must agree across tools (it is the program's output).
        assert_eq!(prepared[0].golden, prepared[1].golden);
        assert_eq!(prepared[1].golden, prepared[2].golden);
        // REFINE and PINFI sample the identical population; LLFI's is
        // smaller (IR-only).
        let llfi = &prepared[0];
        let refine = &prepared[1];
        let pinfi = &prepared[2];
        assert_eq!(refine.population, pinfi.population);
        assert!(llfi.population < pinfi.population);
    }

    #[test]
    fn prepare_refine_with_honours_checkpoint_options() {
        let m = module();
        let off = PreparedTool::prepare_refine_with(
            &m,
            &FiOptions::all(),
            &CheckpointOptions::disabled(),
        );
        assert!(off.fastpath.is_none(), "disabled checkpointing must not build a store");
        let ckpt = CheckpointOptions::default();
        let custom = PreparedTool::prepare_refine_with(&m, &FiOptions::all(), &ckpt);
        let standard = PreparedTool::prepare_opt(&m, Tool::Refine, &ckpt);
        assert!(custom.fastpath.is_some());
        assert_eq!(custom.population, standard.population);
        assert_eq!(custom.binary.text.len(), standard.binary.text.len());
    }

    #[test]
    fn trials_classify_into_all_categories_eventually() {
        let m = module();
        let p = PreparedTool::prepare(&m, Tool::Refine);
        let mut seen = std::collections::HashSet::new();
        for k in 0..60u64 {
            let target = 1 + (p.population * k / 60);
            let r = p.run_trial(target, k * 7 + 1);
            seen.insert(classify(&p.golden, &r));
        }
        assert!(seen.contains(&Outcome::Benign), "no benign outcome in 60 trials");
        assert!(seen.len() >= 2, "expected some outcome diversity: {seen:?}");
    }

    /// A fused trial that overflows the stack, then an ordinary trial of
    /// the same artifact on the same thread (the second reuses the first's
    /// stack): each equals the exact oracle run on a thread of its own.
    #[test]
    fn deep_stack_trial_then_ordinary_trial_match_exact() {
        use refine_machine::{machine::STACK_TOP, Trap};
        let m = refine_frontend::compile_source(
            "var depth[1];\n\
             fn down(n: int) -> int { if (n == 0) { return 0; } return down(n - 1) + 1; }\n\
             fn main() { depth[0] = 2000; print_i(down(depth[0]) + down(depth[0])); return 0; }",
        )
        .unwrap();
        let p = PreparedTool::prepare(&m, Tool::Pinfi);
        let base = STACK_TOP - 8 * p.stack_words as u64;
        let exact = |(target, seed): (u64, u64)| {
            std::thread::scope(|s| s.spawn(|| p.run_trial_exact(target, seed)).join().unwrap())
        };
        // The first trials whose fault recurses until a call pushes just
        // below the stack (every stack word written), and that exit cleanly.
        let find = |hit: fn(u64, RunOutcome) -> bool| {
            (1..=p.population)
                .map(|t| (t, t * 31 + 7))
                .find(|&(t, seed)| hit(base, p.run_trial_exact(t, seed).result.outcome))
                .expect("the search finds the trial")
        };
        let deep = find(|base, o| {
            matches!(o, RunOutcome::Trap(Trap::Segfault(a)) if a < base && a + 64 >= base)
        });
        let ordinary = find(|_, o| o == RunOutcome::Exit(0));
        let want = [exact(deep), exact(ordinary)];
        for ((target, seed), want) in [deep, ordinary].into_iter().zip(want) {
            let got = p.run_trial_full(target, seed);
            assert_eq!(got.result.outcome, want.result.outcome, "trial {target}");
            assert_eq!(got.result.output, want.result.output, "trial {target}");
            assert_eq!(got.result.cycles, want.result.cycles, "trial {target}");
            assert_eq!(got.result.instrs_retired, want.result.instrs_retired, "trial {target}");
            assert_eq!(got.log, want.log, "trial {target}");
        }
    }

    /// A golden run that never ends fails prepare at the profiling budget,
    /// with a panic naming it, instead of hanging.
    #[test]
    #[should_panic(expected = "LLFI: golden profiling run did not exit within PROFILE_MAX_CYCLES")]
    fn golden_run_that_never_exits_fails_prepare() {
        let m = refine_frontend::compile_source(
            "var g;\n\
             fn main() { let x = 1; while (g == 0) { x = x * 3 + 1; } print_i(x); return 0; }",
        )
        .unwrap();
        PreparedTool::prepare(&m, Tool::Llfi);
    }

    #[test]
    fn trial_is_deterministic_given_target_and_seed() {
        let m = module();
        let p = PreparedTool::prepare(&m, Tool::Pinfi);
        let a = p.run_trial(1234, 5);
        let b = p.run_trial(1234, 5);
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.output, b.output);
        assert_eq!(a.cycles, b.cycles);
    }
}
