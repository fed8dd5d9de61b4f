//! Local (per-block) common-subexpression elimination over pure instructions.

use super::{ExprKey, ExprTable, Subst};
use crate::instr::Operand;
use crate::module::Function;

/// Run local CSE on every block of `f`. Returns `true` on change.
pub fn run(f: &mut Function) -> bool {
    let mut subst = Subst::default();
    let mut changed = false;
    let mut available = ExprTable::default();

    for b in &mut f.blocks {
        available.clear();
        for id in &mut b.instrs {
            id.instr.for_each_operand_mut(&mut |op| *op = subst.resolve(*op));
            let Some(key) = ExprKey::of(&id.instr) else { continue };
            let Some(res) = id.result else { continue };
            match available.get(&key) {
                Some(&prev) => {
                    subst.insert(res, Operand::Value(prev));
                    changed = true;
                }
                None => {
                    available.insert(key, res);
                }
            }
        }
    }
    if !changed {
        return false;
    }
    // Remove the now-redundant instructions and rewrite uses.
    for b in &mut f.blocks {
        b.instrs.retain(|id| match id.result {
            Some(v) => {
                !id.instr.is_pure()
                    || matches!(subst.resolve(Operand::Value(v)), Operand::Value(x) if x == v)
            }
            None => true,
        });
    }
    subst.apply(f);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::instr::{FBinOp, IBinOp};
    use crate::module::{Module, Ty};
    use crate::verify::verify_module;

    #[test]
    fn merges_duplicate_expressions() {
        let mut m = Module::new();
        let mut b = FuncBuilder::new("f", vec![Ty::I64], Some(Ty::I64));
        let p = b.params()[0];
        let x = b.ibin(IBinOp::Mul, p, p);
        let y = b.ibin(IBinOp::Mul, p, p); // duplicate
        let s = b.ibin(IBinOp::Add, x, y);
        b.ret(Some(s));
        m.add_function(b.finish());
        assert!(run(&mut m.funcs[0]));
        verify_module(&m).unwrap();
        assert_eq!(m.funcs[0].blocks[0].instrs.len(), 2);
    }

    /// Float immediates key by their bits: `x * 0.0` and `x * -0.0` differ
    /// (their results differ in sign), while two `x * NaN` with one bit
    /// pattern merge.
    #[test]
    fn float_immediates_compare_by_bits() {
        let mut m = Module::new();
        let mut b = FuncBuilder::new("f", vec![Ty::F64], Some(Ty::F64));
        let p = b.params()[0];
        let pos = b.fbin(FBinOp::Mul, p, Operand::ConstF(0.0));
        let neg = b.fbin(FBinOp::Mul, p, Operand::ConstF(-0.0));
        let nan1 = b.fbin(FBinOp::Mul, p, Operand::ConstF(f64::NAN));
        let nan2 = b.fbin(FBinOp::Mul, p, Operand::ConstF(f64::NAN));
        let s = b.fbin(FBinOp::Add, pos, neg);
        let t = b.fbin(FBinOp::Add, nan1, nan2);
        let r = b.fbin(FBinOp::Add, s, t);
        b.ret(Some(r));
        m.add_function(b.finish());
        assert!(run(&mut m.funcs[0]));
        verify_module(&m).unwrap();
        assert_eq!(m.funcs[0].blocks[0].instrs.len(), 6, "only the second NaN product merges");
    }

    #[test]
    fn does_not_merge_across_blocks() {
        let mut m = Module::new();
        let mut b = FuncBuilder::new("f", vec![Ty::I64], Some(Ty::I64));
        let p = b.params()[0];
        let next = b.add_block("next");
        let _x = b.ibin(IBinOp::Mul, p, p);
        b.br(next);
        b.switch_to(next);
        let y = b.ibin(IBinOp::Mul, p, p);
        b.ret(Some(y));
        m.add_function(b.finish());
        assert!(!run(&mut m.funcs[0]), "local CSE must not cross blocks");
    }

    #[test]
    fn does_not_merge_loads() {
        let mut m = Module::new();
        let g = m.add_global("g", crate::module::GlobalInit::Zero(1));
        let mut b = FuncBuilder::new("f", vec![], Some(Ty::I64));
        let a = b.load(Operand::Global(g), Ty::I64);
        b.store(Operand::Global(g), Operand::ConstI(1), Ty::I64);
        let c = b.load(Operand::Global(g), Ty::I64);
        let s = b.ibin(IBinOp::Add, a, c);
        b.ret(Some(s));
        m.add_function(b.finish());
        assert!(!run(&mut m.funcs[0]), "loads are not pure and must survive");
    }
}
