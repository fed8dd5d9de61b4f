#![warn(missing_docs)]

//! `refine-llfi` — the LLFI-style IR-level fault injector, the paper's
//! compiler-based state-of-the-art baseline.
//!
//! Faithfully reproduced properties (§3.3):
//!
//! * instrumentation happens at the **IR level, after IR optimization**
//!   (LLFI's documented build flow: sources -> IR -> `opt -O3` -> LLFI
//!   instrument -> native codegen);
//! * every selected IR instruction's *result* is routed through an
//!   `injectFault` **function call** whose return value replaces the
//!   original SSA value;
//! * consequences emerge organically in the shared backend: the calls pin
//!   values across call boundaries (caller-saved clobbering -> spills),
//!   defeat addressing-mode folding (the `PtrAdd` result now escapes into a
//!   call) and compare+branch fusion (the branch consumes the call's result,
//!   not the `icmp`) — the exact degradations of the paper's Listing 2c;
//! * the injector never sees machine-only instructions (prologue/epilogue,
//!   spill traffic, `FLAGS` outputs), which is the accuracy gap measured in
//!   the paper's Figure 4/Table 5.

use refine_core::Compiled;
use refine_ir::passes::OptLevel;
use refine_ir::instr::{FBinOp, IBinOp};
use refine_ir::{Instr, Module, Operand, ValueId};

/// Which IR instructions LLFI instruments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LlfiClass {
    /// Arithmetic and comparisons only.
    Arith,
    /// Loads only.
    Mem,
    /// Every value-producing instruction (LLFI's `allinstructions`).
    #[default]
    All,
}

/// LLFI configuration.
#[derive(Debug, Clone, Default)]
pub struct LlfiOptions {
    /// Instruction-type selection.
    pub class: LlfiClass,
}

/// Description of one instrumented IR site.
#[derive(Debug, Clone)]
pub struct LlfiSite {
    /// Site id (passed to `injectFault`).
    pub id: u64,
    /// Containing function name.
    pub func: String,
    /// Flip width in bits (1 for `i1`, 64 otherwise).
    pub bits: u32,
    /// IR opcode of the instrumented instruction (trace provenance).
    pub opcode: &'static str,
}

/// Short IR opcode label for an instrumented instruction.
fn ir_opcode(i: &Instr) -> &'static str {
    match i {
        Instr::IBin { op, .. } => match op {
            IBinOp::Add => "add",
            IBinOp::Sub => "sub",
            IBinOp::Mul => "mul",
            IBinOp::Div => "div",
            IBinOp::Rem => "rem",
            IBinOp::And => "and",
            IBinOp::Or => "or",
            IBinOp::Xor => "xor",
            IBinOp::Shl => "shl",
            IBinOp::LShr => "lshr",
            IBinOp::AShr => "ashr",
        },
        Instr::FBin { op, .. } => match op {
            FBinOp::Add => "fadd",
            FBinOp::Sub => "fsub",
            FBinOp::Mul => "fmul",
            FBinOp::Div => "fdiv",
        },
        Instr::ICmp { .. } => "icmp",
        Instr::FCmp { .. } => "fcmp",
        Instr::Select { .. } => "select",
        Instr::Cast { .. } => "cast",
        Instr::Load { .. } => "load",
        Instr::PtrAdd { .. } => "ptradd",
        Instr::Call { .. } => "call",
        Instr::IntrinsicCall { .. } => "intrinsic",
        _ => "other",
    }
}

fn instrumentable(i: &Instr, class: LlfiClass) -> bool {
    let arith = matches!(
        i,
        Instr::IBin { .. }
            | Instr::FBin { .. }
            | Instr::ICmp { .. }
            | Instr::FCmp { .. }
            | Instr::Select { .. }
            | Instr::Cast { .. }
    );
    let mem = matches!(i, Instr::Load { .. });
    let other = matches!(
        i,
        Instr::PtrAdd { .. } | Instr::Call { .. } | Instr::IntrinsicCall { .. }
    );
    match class {
        LlfiClass::Arith => arith,
        LlfiClass::Mem => mem,
        LlfiClass::All => arith || mem || other,
    }
}

/// Instrument `m` in place (post-optimization IR). Returns site metadata.
pub fn instrument(m: &mut Module, opts: &LlfiOptions) -> Vec<LlfiSite> {
    let _span = refine_telemetry::Span::enter(refine_telemetry::Phase::FiLlfiPass);
    let mut sites = Vec::new();
    let mut next_id = 0u64;
    for f in &mut m.funcs {
        let fname = f.name.clone();
        // value -> its injector's result, applied to every use once the
        // whole function is instrumented.
        let mut replaced: Vec<Option<ValueId>> = vec![None; f.value_tys.len()];
        for bi in 0..f.blocks.len() {
            let old = std::mem::take(&mut f.blocks[bi].instrs);
            let mut neu = Vec::with_capacity(old.len() * 2);
            for id in old {
                let inject = match (id.result, instrumentable(&id.instr, opts.class)) {
                    (Some(res), true) => Some((res, f.ty_of(res), ir_opcode(&id.instr))),
                    _ => None,
                };
                neu.push(id);
                if let Some((res, ty, opcode)) = inject {
                    let new_val = f.new_value(f.ty_of(res));
                    let site = next_id;
                    next_id += 1;
                    sites.push(LlfiSite { id: site, func: fname.clone(), bits: ty.bits(), opcode });
                    neu.push(refine_ir::module::InstrData {
                        instr: Instr::LlfiInject { site, val: Operand::Value(res), ty },
                        result: Some(new_val),
                    });
                    replaced[res.index()] = Some(new_val);
                }
            }
            f.blocks[bi].instrs = neu;
        }
        // Rewrite all uses (in every block, phis, terminators) — but not
        // the injects' own operands.
        rewrite_uses(f, &replaced);
    }
    sites
}

/// Point every use of an instrumented value at its injector's result
/// (`replaced[old]`, indexed by value id), in one sweep over `f` — except
/// the injector's own operand.
fn rewrite_uses(f: &mut refine_ir::Function, replaced: &[Option<ValueId>]) {
    let new_of = |op: &Operand| op.as_value().and_then(|v| replaced.get(v.index()).copied()?);
    for b in &mut f.blocks {
        for id in &mut b.instrs {
            // Skip the injector that consumes the original value.
            if let Instr::LlfiInject { val, .. } = &id.instr {
                if new_of(val).is_some_and(|new| Some(new) == id.result) {
                    continue;
                }
            }
            id.instr.for_each_operand_mut(&mut |op| {
                if let Some(new) = new_of(op) {
                    *op = Operand::Value(new);
                }
            });
        }
        if let Some(t) = &mut b.term {
            t.for_each_operand_mut(&mut |op| {
                if let Some(new) = new_of(op) {
                    *op = Operand::Value(new);
                }
            });
        }
    }
}

/// Compile with the LLFI flow: optimize, instrument the optimized IR, then
/// hand the (structurally different) module to the unmodified backend.
pub fn compile_with_llfi(m: &Module, level: OptLevel, opts: &LlfiOptions) -> (Compiled, Vec<LlfiSite>) {
    let mut m = m.clone();
    refine_mir::optimize(&mut m, level);
    let sites = instrument(&mut m, opts);
    debug_assert!(refine_ir::verify::verify_module(&m).is_ok());
    // The backend runs with FI disabled: LLFI's instrumentation is already
    // inside the IR.
    let compiled = refine_core::compile_with_fi(&m, OptLevel::O0, &refine_core::FiOptions::default());
    (compiled, sites)
}

#[cfg(test)]
mod tests {
    use super::*;
    use refine_core::ProfilingRt;
    use refine_ir::interp::Interp;
    use refine_machine::{Machine, NoFi, RunConfig, RunOutcome};

    fn demo() -> Module {
        refine_frontend::compile_source(
            "fvar v[16];\n\
             fn main() {\n\
               for (i = 0; i < 16; i = i + 1) { v[i] = float(i) + 0.25; }\n\
               let s: float = 0.0;\n\
               for (i = 0; i < 16; i = i + 1) { s = s + v[i] * 2.0; }\n\
               print_f(s);\n\
               return 0;\n\
             }",
        )
        .unwrap()
    }

    #[test]
    fn instrumentation_preserves_semantics_without_faults() {
        let mut m = demo();
        refine_ir::passes::optimize(&mut m, OptLevel::O2);
        let golden = Interp::new(&m, 1_000_000).run().unwrap();
        let sites = instrument(&mut m, &LlfiOptions::default());
        assert!(!sites.is_empty());
        refine_ir::verify::verify_module(&m).expect("instrumented IR verifies");
        let after = Interp::new(&m, 10_000_000).run().unwrap();
        assert_eq!(golden.output, after.output);
        assert_eq!(golden.exit_code, after.exit_code);
    }

    #[test]
    fn compiled_llfi_binary_runs_golden_in_profiling_mode() {
        let m = demo();
        let plain = refine_core::compile_with_fi(&m, OptLevel::O2, &refine_core::FiOptions::default());
        let golden = Machine::run(&plain.binary, &RunConfig::default(), &mut NoFi, None);

        let (c, sites) = compile_with_llfi(&m, OptLevel::O2, &LlfiOptions::default());
        assert!(!sites.is_empty());
        let mut prof = ProfilingRt::default();
        let r = Machine::run(&c.binary, &RunConfig::default(), &mut prof, None);
        assert_eq!(r.outcome, RunOutcome::Exit(0));
        assert_eq!(r.output, golden.output);
        assert!(prof.count > 0, "injectFault must be called dynamically");
        // Code-generation interference: the LLFI binary is much slower than
        // the clean one (Listing 2c vs 2b).
        assert!(
            r.cycles > golden.cycles * 3,
            "LLFI binary too fast: {} vs {}",
            r.cycles,
            golden.cycles
        );
    }

    /// The LLFI dynamic population is a strict subset: it never sees
    /// prologue/epilogue, spills, movs, flags — so its count is well below
    /// the machine-level FI target count of the clean binary.
    #[test]
    fn ir_population_smaller_than_machine_population() {
        let m = demo();
        let plain = refine_core::compile_with_fi(&m, OptLevel::O2, &refine_core::FiOptions::default());
        let mut counting = refine_machine::probe::CountingProbe::new(|i| {
            !refine_machine::fi_outputs(i).is_empty()
        });
        Machine::run(&plain.binary, &RunConfig::default(), &mut NoFi, Some(&mut counting));

        let (c, _) = compile_with_llfi(&m, OptLevel::O2, &LlfiOptions::default());
        let mut prof = ProfilingRt::default();
        Machine::run(&c.binary, &RunConfig::default(), &mut prof, None);
        assert!(
            prof.count < counting.count,
            "IR population ({}) must be smaller than machine population ({})",
            prof.count,
            counting.count
        );
    }

    #[test]
    fn injection_changes_behaviour_sometimes() {
        let m = demo();
        let (c, _) = compile_with_llfi(&m, OptLevel::O2, &LlfiOptions::default());
        let mut prof = ProfilingRt::default();
        let golden = Machine::run(&c.binary, &RunConfig::default(), &mut prof, None);
        let total = prof.count;
        let mut changed = 0;
        for k in 0..12u64 {
            let mut inj = refine_core::InjectingRt::new(1 + (total * k / 12), k * 31 + 1);
            let r = Machine::run(
                &c.binary,
                &RunConfig { max_cycles: golden.cycles * 10, stack_words: 1 << 16 },
                &mut inj,
                None,
            );
            if r.outcome != RunOutcome::Exit(0) || r.output != golden.output {
                changed += 1;
            }
        }
        assert!(changed > 0, "at least one IR-level fault must matter");
    }

    #[test]
    fn class_filters_restrict_sites() {
        let mut all = demo();
        refine_ir::passes::optimize(&mut all, OptLevel::O2);
        let mut arith = all.clone();
        let mut mem = all.clone();
        let n_all = instrument(&mut all, &LlfiOptions { class: LlfiClass::All }).len();
        let n_arith = instrument(&mut arith, &LlfiOptions { class: LlfiClass::Arith }).len();
        let n_mem = instrument(&mut mem, &LlfiOptions { class: LlfiClass::Mem }).len();
        assert!(n_arith < n_all);
        assert!(n_mem < n_arith);
        assert!(n_mem > 0);
    }
}
