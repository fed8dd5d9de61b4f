#![warn(missing_docs)]

//! `refine-pinfi` — the PINFI-style binary-level fault injector, the
//! paper's accuracy baseline.
//!
//! PINFI attaches a dynamic-binary-instrumentation probe (the PIN analogue
//! of `refine-machine`) to the *unmodified, fully optimized* binary:
//!
//! * the profiling run counts every dynamic instruction that writes at
//!   least one register — the same population predicate
//!   ([`refine_machine::fi_outputs`]) REFINE's backend pass uses, which is
//!   what makes the two tools statistically indistinguishable (Table 5);
//! * the injection run triggers at a uniformly drawn dynamic target, flips
//!   one uniformly drawn bit of one uniformly drawn output register, and
//!   then **detaches** — the performance optimization the authors added to
//!   PINFI (§5.2), after which the program runs at native speed;
//! * while attached, every instruction pays [`PIN_OVERHEAD_CYCLES`] extra
//!   cycles (PIN's JIT + analysis-routine cost).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use refine_core::FaultRecord;
use refine_machine::{fi_outputs, MInstr, Probe, ProbeAction};

/// Per-instruction overhead, in cycles, of the DBI engine while attached.
/// Calibrated so that the REFINE/PINFI campaign-time ratio lands in the
/// paper's observed band (~0.7–1.8x, 1.2x aggregate).
pub const PIN_OVERHEAD_CYCLES: u64 = 22;

/// Shared target predicate: instructions with at least one output register.
pub fn is_target(i: &MInstr) -> bool {
    !fi_outputs(i).is_empty()
}

/// Profiling probe: counts the dynamic FI-target population.
#[derive(Debug, Default)]
pub struct PinfiProfiler {
    /// Dynamic count of target instructions.
    pub count: u64,
}

impl Probe for PinfiProfiler {
    fn before(&mut self, _pc: u32, instr: &MInstr, _retired: u64) -> ProbeAction {
        if is_target(instr) {
            self.count += 1;
        }
        ProbeAction::Continue
    }

    fn overhead_cycles(&self) -> u64 {
        PIN_OVERHEAD_CYCLES
    }

    fn fi_count(&self) -> u64 {
        self.count
    }
}

/// Injection probe: single bit flip at a chosen dynamic target instruction,
/// then detach.
#[derive(Debug)]
pub struct PinfiInjector {
    /// 1-based dynamic target index.
    pub target: u64,
    count: u64,
    rng: StdRng,
    /// Fault log entry, filled when the injection fires.
    pub log: Option<FaultRecord>,
}

impl PinfiInjector {
    /// Injector firing at dynamic target instruction `target` (1-based).
    pub fn new(target: u64, seed: u64) -> Self {
        PinfiInjector { target, count: 0, rng: StdRng::seed_from_u64(seed), log: None }
    }

    /// True once the fault was injected.
    pub fn fired(&self) -> bool {
        self.log.is_some()
    }

    /// An injector resuming after a checkpoint restore: behaves exactly as
    /// [`PinfiInjector::new`] would after `counted` quiescent target
    /// instructions, because the RNG is seeded fresh from `seed` and is
    /// consumed only when the fault fires.
    pub fn resume(target: u64, seed: u64, counted: u64) -> Self {
        debug_assert!(counted < target, "restore point must precede the target event");
        PinfiInjector { count: counted, ..PinfiInjector::new(target, seed) }
    }
}

impl Probe for PinfiInjector {
    fn before(&mut self, pc: u32, instr: &MInstr, _retired: u64) -> ProbeAction {
        if !is_target(instr) {
            return ProbeAction::Continue;
        }
        self.count += 1;
        if self.count != self.target {
            return ProbeAction::Continue;
        }
        let outs = fi_outputs(instr);
        let op = self.rng.gen_range(0..outs.len());
        let bit = self.rng.gen_range(0..outs[op].1.max(1));
        self.log = Some(FaultRecord {
            site: pc as u64,
            dynamic_index: self.count,
            operand: op as u32,
            bit,
        });
        ProbeAction::InjectAfter { op, bit, detach: true }
    }

    fn overhead_cycles(&self) -> u64 {
        PIN_OVERHEAD_CYCLES
    }

    fn fi_count(&self) -> u64 {
        self.count
    }

    fn fired(&self) -> bool {
        self.log.is_some()
    }
}

/// Replay a recorded PINFI fault exactly.
#[derive(Debug)]
pub struct PinfiReplay {
    record: FaultRecord,
    count: u64,
    /// True once the replayed fault fired.
    pub fired: bool,
}

impl PinfiReplay {
    /// Replay `record`.
    pub fn new(record: FaultRecord) -> Self {
        PinfiReplay { record, count: 0, fired: false }
    }
}

impl Probe for PinfiReplay {
    fn before(&mut self, _pc: u32, instr: &MInstr, _retired: u64) -> ProbeAction {
        if !is_target(instr) {
            return ProbeAction::Continue;
        }
        self.count += 1;
        if self.count != self.record.dynamic_index {
            return ProbeAction::Continue;
        }
        self.fired = true;
        ProbeAction::InjectAfter {
            op: self.record.operand as usize,
            bit: self.record.bit,
            detach: true,
        }
    }

    fn overhead_cycles(&self) -> u64 {
        PIN_OVERHEAD_CYCLES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refine_core::FiOptions;
    use refine_ir::passes::OptLevel;
    use refine_machine::{Machine, NoFi, RunConfig, RunOutcome};

    fn binary() -> refine_machine::Binary {
        let m = refine_frontend::compile_source(
            "var acc;\n\
             fn main() {\n\
               for (i = 0; i < 200; i = i + 1) { acc = acc + i * i; }\n\
               print_i(acc);\n\
               return 0;\n\
             }",
        )
        .unwrap();
        refine_core::compile_with_fi(&m, OptLevel::O2, &FiOptions::default()).binary
    }

    #[test]
    fn profiler_counts_targets() {
        let b = binary();
        let mut p = PinfiProfiler::default();
        let r = Machine::run(&b, &RunConfig::default(), &mut NoFi, Some(&mut p));
        assert_eq!(r.outcome, RunOutcome::Exit(0));
        assert!(p.count > 500, "population too small: {}", p.count);
        assert!(p.count < r.instrs_retired, "targets are a subset of all instructions");
    }

    #[test]
    fn injection_fires_and_detaches() {
        let b = binary();
        let mut p = PinfiProfiler::default();
        let native = Machine::run(&b, &RunConfig::default(), &mut NoFi, None);
        Machine::run(&b, &RunConfig::default(), &mut NoFi, Some(&mut p));
        let total = p.count;

        // Early target -> most of the run executes detached (near-native).
        let mut early = PinfiInjector::new(5, 1);
        let r_early = Machine::run(&b, &RunConfig::default(), &mut NoFi, Some(&mut early));
        assert!(early.fired());
        // Late target -> almost the whole run pays DBI overhead.
        let mut late = PinfiInjector::new(total, 1);
        let r_late = Machine::run(&b, &RunConfig::default(), &mut NoFi, Some(&mut late));
        assert!(late.fired());
        assert!(r_early.cycles < r_late.cycles, "detach must save time");
        assert!(r_early.cycles < native.cycles * 3, "post-detach speed is native");
    }

    #[test]
    fn replay_reproduces_outcome() {
        let b = binary();
        let mut p = PinfiProfiler::default();
        Machine::run(&b, &RunConfig::default(), &mut NoFi, Some(&mut p));
        let total = p.count;
        for k in 1..8 {
            let mut inj = PinfiInjector::new(total * k / 8, 99 + k);
            let r1 = Machine::run(&b, &RunConfig::default(), &mut NoFi, Some(&mut inj));
            let Some(log) = inj.log else { continue };
            let mut rep = PinfiReplay::new(log);
            let r2 = Machine::run(&b, &RunConfig::default(), &mut NoFi, Some(&mut rep));
            assert!(rep.fired);
            assert_eq!(r1.outcome, r2.outcome);
            assert_eq!(r1.output, r2.output);
        }
    }

    /// Population identity with REFINE (DESIGN.md invariant 3): the PINFI
    /// profile of the clean binary equals REFINE's selInstr profile of the
    /// instrumented binary.
    #[test]
    fn population_identical_to_refine() {
        let m = refine_frontend::compile_source(
            "fvar g[8];\n\
             fn main() {\n\
               for (i = 0; i < 8; i = i + 1) { g[i] = sqrt(float(i)); }\n\
               let s: float = 0.0;\n\
               for (i = 0; i < 8; i = i + 1) { s = s + g[i]; }\n\
               print_f(s);\n\
               return 0;\n\
             }",
        )
        .unwrap();
        let plain = refine_core::compile_with_fi(&m, OptLevel::O2, &FiOptions::default());
        let inst = refine_core::compile_with_fi(&m, OptLevel::O2, &FiOptions::all());

        let mut pin = PinfiProfiler::default();
        Machine::run(&plain.binary, &RunConfig::default(), &mut NoFi, Some(&mut pin));
        let mut refine = refine_core::ProfilingRt::default();
        Machine::run(&inst.binary, &RunConfig::default(), &mut refine, None);
        assert_eq!(pin.count, refine.count);
    }
}
