#![warn(missing_docs)]

//! `refine-mir` — the compiler backend: lowering from `refine-ir` to M64
//! machine code.
//!
//! This crate is the analogue of an LLVM target backend; it is the layer the
//! REFINE pass lives *after*. Pipeline:
//!
//! 1. [`isel`] — instruction selection from optimized IR into [`vcode`]
//!    (machine instructions over virtual registers), with addressing-mode
//!    folding and compare+branch fusion;
//! 2. phi elimination (critical edges are split at the IR level first);
//! 3. [`liveness`] — per-block dataflow liveness and live intervals;
//! 4. [`regalloc`] — linear-scan register allocation with spilling; values
//!    live across calls go to callee-saved registers or the stack;
//! 5. [`finalize`] — pseudo-instruction expansion (calls with ABI moves and
//!    parallel-copy resolution, returns), prologue/epilogue insertion and
//!    frame layout: exactly the machine instructions the paper's Listing 1b
//!    shows and IR-level FI cannot see;
//! 6. [`peephole`] — redundant-move cleanup;
//! 7. [`mod@emit`] — layout, branch resolution and linking into a
//!    [`refine_machine::Binary`].
//!
//! The output of step 6 is an [`mfunc::MFunction`] — basic blocks of final
//! physical-register machine instructions. REFINE's backend FI pass (in
//! `refine-core`) transforms that structure right before [`emit()`], which is
//! the "right before code emission" placement of the paper's §4.2.2.

pub mod emit;
pub mod finalize;
pub mod isel;
pub mod liveness;
pub mod mfunc;
pub mod peephole;
pub mod regalloc;
pub mod vcode;

pub use emit::emit;
pub use mfunc::{MBlock, MFunction, MModule};

use refine_ir::Module;
use refine_telemetry::{Phase, Span};

/// Compile an (already optimized) IR module to a machine module of final
/// basic blocks, ready for backend FI passes and emission.
pub fn lower_module(m: &Module) -> MModule {
    let mut ir = m.clone();
    for f in &mut ir.funcs {
        refine_ir::passes::splitedges::run(f);
    }
    let mut funcs = Vec::with_capacity(ir.funcs.len());
    for f in &ir.funcs {
        let mut v = {
            let _s = Span::enter(Phase::Isel);
            isel::lower_function(&ir, f)
        };
        let alloc = {
            let _s = Span::enter(Phase::Regalloc);
            let (intervals, call_sites) = liveness::analyze(&v);
            regalloc::allocate(&v, &intervals, &call_sites)
        };
        let _s = Span::enter(Phase::Finalize);
        let mut mf = finalize::finalize(&mut v, &alloc);
        peephole::run(&mut mf);
        funcs.push(mf);
    }
    MModule {
        funcs,
        globals: emit::build_data(&ir),
        strings: ir.strings.clone(),
        func_names: ir.funcs.iter().map(|f| f.name.clone()).collect(),
    }
}

/// Convenience: optimize + lower + emit a binary in one call.
pub fn compile(m: &Module, level: refine_ir::passes::OptLevel) -> refine_machine::Binary {
    let mut m = m.clone();
    {
        let _s = Span::enter(Phase::Optimize);
        refine_ir::passes::optimize(&mut m, level);
    }
    let mm = lower_module(&m);
    emit::emit(&mm)
}
