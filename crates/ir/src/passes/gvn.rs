//! Dominator-scoped global value numbering.
//!
//! Extends local CSE across blocks: an expression computed in a dominating
//! block is available in every dominated block. This matters after inlining
//! (the same `i*25+j*5` index arithmetic appears in sibling stencil arms)
//! and keeps the "optimized code" the FI tools operate on honest.

use super::{ExprKey, ExprTable, Scope, Subst};
use crate::dom::DomTree;
use crate::instr::{Instr, Operand};
use crate::module::{BlockId, Function};

/// Run GVN on `f`. Returns `true` on change.
pub fn run(f: &mut Function) -> bool {
    let dt = DomTree::compute(f);
    let mut subst = Subst::default();
    let mut kill: Vec<(usize, usize)> = Vec::new();

    // DFS down the dominator tree over one scoped table: a block sees the
    // expressions of its dominators, and leaving its subtree removes the
    // keys it added (each key is added at most once while in scope).
    let mut avail = ExprTable::default();
    let mut added: Vec<ExprKey> = Vec::new();
    let mut stack = vec![Scope::Enter(BlockId(0))];
    while let Some(step) = stack.pop() {
        let b = match step {
            Scope::Enter(b) => b,
            Scope::Leave(mark) => {
                for key in added.drain(mark..) {
                    avail.remove(&key);
                }
                continue;
            }
        };
        stack.push(Scope::Leave(added.len()));
        for (ii, id) in f.blocks[b.index()].instrs.iter_mut().enumerate() {
            id.instr.for_each_operand_mut(&mut |op| *op = subst.resolve(*op));
            let Some(key) = ExprKey::of(&id.instr) else { continue };
            let Some(res) = id.result else { continue };
            match avail.get(&key) {
                Some(&prev) => {
                    subst.insert(res, Operand::Value(prev));
                    kill.push((b.index(), ii));
                }
                None => {
                    avail.insert(key, res);
                    added.push(key);
                }
            }
        }
        stack.extend(dt.children[b.index()].iter().map(|&c| Scope::Enter(c)));
    }

    if kill.is_empty() {
        return false;
    }
    // Remove replaced instructions (indices valid per block: delete from
    // the back).
    kill.sort_unstable_by(|a, b| b.cmp(a));
    for (bi, ii) in kill {
        f.blocks[bi].instrs.remove(ii);
    }
    subst.apply(f);
    // Phi incomings may reference substituted values via edges processed
    // before the substitution was recorded.
    for b in &mut f.blocks {
        for id in &mut b.instrs {
            if let Instr::Phi { incomings, .. } = &mut id.instr {
                for (_, op) in incomings {
                    *op = subst.resolve(*op);
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::instr::{IBinOp, IPred};
    use crate::interp::Interp;
    use crate::module::{Module, Ty};
    use crate::verify::verify_module;

    /// The same expression in both arms of a diamond, dominated by a copy
    /// in the entry: both arms reuse the entry's value.
    #[test]
    fn dedupes_across_dominated_blocks() {
        let mut m = Module::new();
        let mut b = FuncBuilder::new("f", vec![Ty::I64], Some(Ty::I64));
        let p = b.params()[0];
        let t = b.add_block("t");
        let e = b.add_block("e");
        let j = b.add_block("j");
        let x0 = b.ibin(IBinOp::Mul, p, p); // entry
        let c = b.icmp(IPred::Sgt, p, Operand::ConstI(0));
        b.cond_br(c, t, e);
        b.switch_to(t);
        let x1 = b.ibin(IBinOp::Mul, p, p); // duplicate of x0
        let y1 = b.ibin(IBinOp::Add, x1, Operand::ConstI(1));
        b.br(j);
        b.switch_to(e);
        let x2 = b.ibin(IBinOp::Mul, p, p); // duplicate of x0
        let y2 = b.ibin(IBinOp::Add, x2, Operand::ConstI(2));
        b.br(j);
        b.switch_to(j);
        let ph = b.phi(Ty::I64, vec![(t, y1), (e, y2)]);
        let r = b.ibin(IBinOp::Add, ph, x0);
        b.ret(Some(r));
        m.add_function(b.finish());

        assert!(run(&mut m.funcs[0]));
        verify_module(&m).unwrap();
        let muls: usize = m.funcs[0]
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .filter(|i| matches!(i.instr, Instr::IBin { op: IBinOp::Mul, .. }))
            .count();
        assert_eq!(muls, 1, "p*p must be computed once");
    }

    /// Sibling blocks do not dominate each other: no cross-sibling merging
    /// (the expression is not available on the other path).
    #[test]
    fn does_not_merge_between_siblings_only() {
        let mut m = Module::new();
        let mut b = FuncBuilder::new("f", vec![Ty::I64], Some(Ty::I64));
        let p = b.params()[0];
        let t = b.add_block("t");
        let e = b.add_block("e");
        let c = b.icmp(IPred::Sgt, p, Operand::ConstI(0));
        b.cond_br(c, t, e);
        b.switch_to(t);
        let x1 = b.ibin(IBinOp::Mul, p, p);
        b.ret(Some(x1));
        b.switch_to(e);
        let x2 = b.ibin(IBinOp::Mul, p, p);
        b.ret(Some(x2));
        m.add_function(b.finish());
        assert!(!run(&mut m.funcs[0]), "siblings must not share");
    }

    /// Semantics preserved on a real loop nest.
    #[test]
    fn preserves_semantics() {
        let mut m = refine_frontend_like_module();
        let before = Interp::new(&m, 1_000_000).run().unwrap();
        super::super::mem2reg::run(&mut m.funcs[0]);
        run(&mut m.funcs[0]);
        verify_module(&m).unwrap();
        let after = Interp::new(&m, 1_000_000).run().unwrap();
        assert_eq!(before.exit_code, after.exit_code);
    }

    fn refine_frontend_like_module() -> Module {
        let mut m = Module::new();
        let g = m.add_global("a", crate::module::GlobalInit::Zero(64));
        let mut b = FuncBuilder::new("main", vec![], Some(Ty::I64));
        let h = b.add_block("h");
        let body = b.add_block("body");
        let e = b.add_block("e");
        b.br(h);
        b.switch_to(h);
        let i = b.phi(Ty::I64, vec![(BlockId(0), Operand::ConstI(0))]);
        let s = b.phi(Ty::I64, vec![(BlockId(0), Operand::ConstI(0))]);
        let c = b.icmp(IPred::Slt, i, Operand::ConstI(8));
        b.cond_br(c, body, e);
        b.switch_to(body);
        let i8x = b.ibin(IBinOp::Mul, i, Operand::ConstI(8));
        let a1 = b.elem(Operand::Global(g), i8x);
        b.store(a1, i, Ty::I64);
        let i8y = b.ibin(IBinOp::Mul, i, Operand::ConstI(8)); // dup
        let a2 = b.elem(Operand::Global(g), i8y);
        let v = b.load(a2, Ty::I64);
        let s2 = b.ibin(IBinOp::Add, s, v);
        let i2 = b.ibin(IBinOp::Add, i, Operand::ConstI(1));
        b.add_incoming(i, body, i2);
        b.add_incoming(s, body, s2);
        b.br(h);
        b.switch_to(e);
        b.ret(Some(s));
        m.add_function(b.finish());
        m
    }
}
