//! The IR optimizer.
//!
//! LLFI-class tools instrument *after* these passes run (the paper, §3.3.2,
//! and LLFI's documented build flow), and REFINE runs in the backend after
//! lowering of the optimized IR — so both tools in this workspace call
//! [`optimize`] first. The pass set is the minimum that makes the machine
//! code realistically optimized: allocas promoted to SSA (`mem2reg`),
//! constants folded, redundant expressions removed, dead code eliminated,
//! and the CFG cleaned up.

pub mod constfold;
pub mod cse;
pub mod dce;
pub mod gvn;
pub mod inline;
pub mod licm;
pub mod mem2reg;
pub mod simplifycfg;
pub mod splitedges;

use crate::instr::{CastOp, FBinOp, FPred, IBinOp, IPred, Instr, Operand};
use crate::module::{BlockId, Function, Module, Ty, ValueId};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Optimization level, mirroring `-O0`/`-O2` in the paper's build recipes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OptLevel {
    /// No IR transformation at all.
    O0,
    /// Inlining and mem2reg, then folding + GVN + DCE + CFG simplification
    /// iterated, then LICM with a cleanup (folding, CSE, DCE, CFG).
    O2,
}

/// Run the optimizer over every function of `m`.
pub fn optimize(m: &mut Module, level: OptLevel) {
    if level == OptLevel::O0 {
        return;
    }
    let rets: Vec<Option<crate::module::Ty>> = m.funcs.iter().map(|f| f.ret) .collect();
    // Inline small leaf helpers first so their bodies participate in every
    // later optimization (address folding in particular).
    inline::run(m);
    for f in &mut m.funcs {
        mem2reg::run(f);
        for _ in 0..3 {
            let mut changed = false;
            changed |= constfold::run(f);
            changed |= gvn::run(f);
            changed |= dce::run(f, &rets);
            changed |= simplifycfg::run(f);
            if !changed {
                break;
            }
        }
        // Hoist loop invariants, then clean up what hoisting exposed.
        if licm::run(f) > 0 {
            constfold::run(f);
            cse::run(f);
            dce::run(f, &rets);
            simplifycfg::run(f);
        }
    }
}

/// A value-substitution map, shared by several passes: one slot per SSA
/// value id, so every lookup is an index.
#[derive(Default)]
pub struct Subst {
    map: Vec<Option<Operand>>,
    len: usize,
}

impl Subst {
    /// Record that `v` must be replaced by `op` everywhere.
    pub fn insert(&mut self, v: ValueId, op: Operand) {
        if v.index() >= self.map.len() {
            self.map.resize(v.index() + 1, None);
        }
        if self.map[v.index()].replace(op).is_none() {
            self.len += 1;
        }
    }

    /// True when no substitutions are recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Resolve an operand through the substitution chain.
    pub fn resolve(&self, mut op: Operand) -> Operand {
        let mut guard = 0;
        while let Operand::Value(v) = op {
            match self.map.get(v.index()).copied().flatten() {
                Some(next) => {
                    op = next;
                    guard += 1;
                    debug_assert!(guard < 10_000, "substitution cycle");
                }
                None => break,
            }
        }
        op
    }

    /// Apply the substitution to every operand in the function.
    pub fn apply(&self, f: &mut Function) {
        if self.is_empty() {
            return;
        }
        for b in &mut f.blocks {
            for id in &mut b.instrs {
                id.instr.for_each_operand_mut(&mut |op| *op = self.resolve(*op));
            }
            if let Some(t) = &mut b.term {
                t.for_each_operand_mut(&mut |op| *op = self.resolve(*op));
            }
        }
    }
}

/// A step of a dominator-tree walk over one scoped table (GVN, mem2reg):
/// process a block, or leave a subtree, undoing the table updates logged
/// since the recorded log length.
enum Scope {
    Enter(BlockId),
    Leave(usize),
}

/// An operand as a CSE/GVN key component: `f64` immediates compare and
/// hash by their bits, so the key has a total `Eq`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum OperandKey {
    Value(u32),
    ConstI(i64),
    ConstF(u64),
    Global(u32),
}

impl From<Operand> for OperandKey {
    fn from(op: Operand) -> Self {
        match op {
            Operand::Value(v) => OperandKey::Value(v.0),
            Operand::ConstI(c) => OperandKey::ConstI(c),
            Operand::ConstF(c) => OperandKey::ConstF(c.to_bits()),
            Operand::Global(g) => OperandKey::Global(g.0),
        }
    }
}

/// The structure of a pure, position-independent instruction: two
/// instructions with equal keys compute the same value, which is what CSE
/// and GVN look up.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum ExprKey {
    IBin(IBinOp, OperandKey, OperandKey),
    FBin(FBinOp, OperandKey, OperandKey),
    ICmp(IPred, OperandKey, OperandKey),
    FCmp(FPred, OperandKey, OperandKey),
    Select(OperandKey, OperandKey, OperandKey, Ty),
    Cast(CastOp, OperandKey),
    PtrAdd(OperandKey, OperandKey, i64, i64),
}

impl ExprKey {
    /// The key of `i`, or `None` when `i` has side effects or is a phi
    /// (pure but position-dependent).
    fn of(i: &Instr) -> Option<ExprKey> {
        let k = |op: &Operand| OperandKey::from(*op);
        Some(match i {
            Instr::IBin { op, a, b } => ExprKey::IBin(*op, k(a), k(b)),
            Instr::FBin { op, a, b } => ExprKey::FBin(*op, k(a), k(b)),
            Instr::ICmp { pred, a, b } => ExprKey::ICmp(*pred, k(a), k(b)),
            Instr::FCmp { pred, a, b } => ExprKey::FCmp(*pred, k(a), k(b)),
            Instr::Select { cond, a, b, ty } => ExprKey::Select(k(cond), k(a), k(b), *ty),
            Instr::Cast { op, v } => ExprKey::Cast(*op, k(v)),
            Instr::PtrAdd { base, idx, scale, disp } => {
                ExprKey::PtrAdd(k(base), k(idx), *scale, *disp)
            }
            _ => return None,
        })
    }
}

/// An FNV-style multiply-and-rotate over the words a key writes (derived
/// `Hash` writes an enum's discriminant as an `isize`): the CSE/GVN tables
/// hash compiler-made keys only, so they need no flooding resistance.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(29);
    }

    fn write_u32(&mut self, w: u32) {
        self.write_u64(w as u64);
    }

    fn write_i64(&mut self, w: i64) {
        self.write_u64(w as u64);
    }

    fn write_isize(&mut self, w: isize) {
        self.write_u64(w as u64);
    }
}

/// Available expressions: structural key to the value that computes it.
type ExprTable = HashMap<ExprKey, ValueId, BuildHasherDefault<KeyHasher>>;

/// Count uses of every SSA value in `f`.
pub fn use_counts(f: &Function) -> Vec<u32> {
    let mut counts = vec![0u32; f.value_tys.len()];
    f.for_each_operand(|op| {
        if let Some(v) = op.as_value() {
            counts[v.index()] += 1;
        }
    });
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::instr::IBinOp;
    use crate::interp::Interp;
    use crate::module::{Module, Ty};
    use crate::verify::verify_module;

    /// The optimizer must preserve semantics on a small but complete program.
    #[test]
    fn optimize_preserves_semantics() {
        let mut m = Module::new();
        let mut b = FuncBuilder::new("main", vec![], Some(Ty::I64));
        // Use a promotable alloca as a mutable accumulator.
        let acc = b.alloca(1);
        b.store(acc, Operand::ConstI(0), Ty::I64);
        let header = b.add_block("h");
        let body = b.add_block("b");
        let exit = b.add_block("e");
        let iv = b.alloca(1);
        b.store(iv, Operand::ConstI(0), Ty::I64);
        b.br(header);
        b.switch_to(header);
        let i = b.load(iv, Ty::I64);
        let c = b.icmp(crate::instr::IPred::Slt, i, Operand::ConstI(20));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let a = b.load(acc, Ty::I64);
        let t = b.ibin(IBinOp::Mul, i, Operand::ConstI(1)); // foldable identity
        let a2 = b.ibin(IBinOp::Add, a, t);
        b.store(acc, a2, Ty::I64);
        let i2 = b.ibin(IBinOp::Add, i, Operand::ConstI(1));
        b.store(iv, i2, Ty::I64);
        b.br(header);
        b.switch_to(exit);
        let r = b.load(acc, Ty::I64);
        b.ret(Some(r));
        m.add_function(b.finish());

        let before = Interp::new(&m, 1_000_000).run().unwrap();
        let mut opt = m.clone();
        optimize(&mut opt, OptLevel::O2);
        verify_module(&opt).expect("optimized module verifies");
        let after = Interp::new(&opt, 1_000_000).run().unwrap();
        assert_eq!(before.exit_code, after.exit_code);
        assert_eq!(before.exit_code, 190);
        // The optimizer must actually shrink the work: fewer dynamic instrs.
        assert!(after.instrs_executed < before.instrs_executed);
    }

    #[test]
    fn subst_resolves_chains() {
        let mut s = Subst::default();
        s.insert(ValueId(1), Operand::Value(ValueId(2)));
        s.insert(ValueId(2), Operand::ConstI(7));
        assert_eq!(s.resolve(Operand::Value(ValueId(1))), Operand::ConstI(7));
        assert_eq!(s.resolve(Operand::ConstF(1.0)), Operand::ConstF(1.0));
    }
}
