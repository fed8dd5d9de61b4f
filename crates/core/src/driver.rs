//! The compiler driver: optimizer + backend + (optionally) the REFINE pass.
//!
//! This is the `clang -mllvm -fi=true ...` entry point of the paper's §4.4:
//! one call takes IR to an executable binary, with fault-injection
//! instrumentation woven in right before emission when requested.

use crate::options::FiOptions;
use crate::pass::{self, SiteInfo, SAVE_AREA_WORDS};
use refine_ir::passes::OptLevel;
use refine_ir::Module;
use refine_machine::Binary;

/// A compiled (and possibly FI-instrumented) program.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The linked binary.
    pub binary: Binary,
    /// Instrumented sites (empty when `-fi=false`).
    pub sites: Vec<SiteInfo>,
    /// Absolute address of the instrumentation save area (meaningful only
    /// when instrumented).
    pub save_base: u64,
}

impl Compiled {
    /// Data-segment word range `(start, count)` that the convergence
    /// comparison must ignore: the `SAVE_R1` scratch slot is written only
    /// by the taken injection branch, so a fired trial's slot retains stale
    /// bits forever while the golden run's stays zero — it would block
    /// every state match. The slot is dead from every pc the golden run can
    /// reach (only the trigger-path epilogue reads it, and the trigger
    /// path always writes it first; a post-fire trial never takes the
    /// trigger path again), so ignoring it cannot hide a real divergence.
    /// The `SAVE_R0`/`SAVE_FLAGS` slots are *not* exempt: both runs
    /// rewrite them at every `selInstr` prologue, and they can be live at
    /// a mid-prologue snapshot pc. `(0, 0)` when uninstrumented.
    pub fn convergence_exempt_words(&self) -> (u32, u32) {
        if self.sites.is_empty() {
            return (0, 0);
        }
        let word = (self.save_base - refine_ir::interp::GLOBAL_BASE) / 8;
        (word as u32 + pass::SAVE_R1 as u32, 1)
    }
}

/// Compile `m` at `level` with the given FI options.
pub fn compile_with_fi(m: &Module, level: OptLevel, opts: &FiOptions) -> Compiled {
    use refine_telemetry::{Phase, Span};
    let mut m = m.clone();
    refine_mir::optimize(&mut m, level);
    let mut mm = refine_mir::lower_module(&m);
    // Reserve the global save area at the end of the data segment.
    let save_base = refine_ir::interp::GLOBAL_BASE + mm.globals.len() as u64 * 8;
    let mut sites = Vec::new();
    if opts.fi {
        let _s = Span::enter(Phase::FiRefinePass);
        mm.globals.extend(std::iter::repeat_n(0u64, SAVE_AREA_WORDS as usize));
        let mut next_site = 0;
        sites = pass::run(&mut mm.funcs, opts, save_base, &mut next_site);
    }
    Compiled { binary: refine_mir::emit(&mm), sites, save_base }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{InjectingRt, ProfilingRt, ReplayRt};
    use refine_machine::{Machine, NoFi, RunConfig, RunOutcome};

    fn demo_module() -> Module {
        refine_frontend::compile_source(
            "fvar xs[32];\n\
             fn main() {\n\
               for (i = 0; i < 32; i = i + 1) { xs[i] = float(i) * 0.5; }\n\
               let s: float = 0.0;\n\
               for (i = 0; i < 32; i = i + 1) { s = s + xs[i] * xs[i]; }\n\
               print_f(sqrt(s));\n\
               return 0;\n\
             }",
        )
        .unwrap()
    }

    #[test]
    fn uninstrumented_compile_matches_plain_backend() {
        let m = demo_module();
        let c = compile_with_fi(&m, OptLevel::O2, &FiOptions::default());
        assert!(c.sites.is_empty());
        let r = Machine::run(&c.binary, &RunConfig::default(), &mut NoFi, None);
        assert_eq!(r.outcome, RunOutcome::Exit(0));
    }

    /// Invariant 2 of DESIGN.md: instrumentation is semantics-preserving
    /// when no fault triggers.
    #[test]
    fn instrumented_profiling_run_produces_golden_output() {
        let m = demo_module();
        let plain = compile_with_fi(&m, OptLevel::O2, &FiOptions::default());
        let inst = compile_with_fi(&m, OptLevel::O2, &FiOptions::all());
        assert!(!inst.sites.is_empty());

        let golden = Machine::run(&plain.binary, &RunConfig::default(), &mut NoFi, None);
        let mut prof = ProfilingRt::default();
        let run = Machine::run(&inst.binary, &RunConfig::default(), &mut prof, None);
        assert_eq!(run.outcome, RunOutcome::Exit(0));
        assert_eq!(run.output, golden.output, "profiling output must be golden");
        assert!(prof.count > 0, "selInstr must have been called");
        // The instrumented binary is necessarily slower.
        assert!(run.cycles > golden.cycles);
    }

    /// The profiling count equals the dynamic number of FI-target
    /// instructions of the clean binary (population identity, invariant 3).
    #[test]
    fn profiling_count_matches_clean_target_population() {
        let m = demo_module();
        let plain = compile_with_fi(&m, OptLevel::O2, &FiOptions::default());
        let inst = compile_with_fi(&m, OptLevel::O2, &FiOptions::all());

        let mut counter =
            refine_machine::probe::CountingProbe::new(|i| !refine_machine::fi_outputs(i).is_empty());
        Machine::run(&plain.binary, &RunConfig::default(), &mut NoFi, Some(&mut counter));
        let mut prof = ProfilingRt::default();
        Machine::run(&inst.binary, &RunConfig::default(), &mut prof, None);
        assert_eq!(prof.count, counter.count);
    }

    /// An injected run with a mid-program target actually perturbs state,
    /// and replaying its fault log reproduces the identical outcome
    /// (invariant 4).
    #[test]
    fn injection_fires_and_replays() {
        let m = demo_module();
        let inst = compile_with_fi(&m, OptLevel::O2, &FiOptions::all());
        let mut prof = ProfilingRt::default();
        Machine::run(&inst.binary, &RunConfig::default(), &mut prof, None);
        let total = prof.count;
        assert!(total > 100);

        let mut firings = 0;
        for k in 0..10 {
            let target = 1 + (total * k / 10);
            let mut inj = InjectingRt::new(target, 42 + k);
            let r1 = Machine::run(&inst.binary, &RunConfig::default(), &mut inj, None);
            if let Some(log) = inj.log {
                firings += 1;
                let mut rep = ReplayRt::new(log);
                let r2 = Machine::run(&inst.binary, &RunConfig::default(), &mut rep, None);
                assert_eq!(r1.outcome, r2.outcome, "replay must reproduce the outcome");
                assert_eq!(r1.output, r2.output, "replay must reproduce the output");
            }
        }
        assert!(firings >= 8, "most injections must fire (crash before target is possible)");
    }

    #[test]
    fn selective_function_instrumentation() {
        let m = refine_frontend::compile_source(
            "fn helper(x) { return x * 2; }\n\
             fn main() { let s = 0; for (i = 0; i < 5; i = i + 1) { s = s + helper(i); } return s; }",
        )
        .unwrap();
        let mut opts = FiOptions::all();
        opts.fi_funcs = "helper".into();
        let c = compile_with_fi(&m, OptLevel::O2, &opts);
        assert!(!c.sites.is_empty());
        assert!(c.sites.iter().all(|s| s.func == "helper"));
        // Still runs to completion in profiling mode.
        let mut prof = ProfilingRt::default();
        let r = Machine::run(&c.binary, &RunConfig::default(), &mut prof, None);
        assert_eq!(r.outcome, RunOutcome::Exit(20));
    }
}
