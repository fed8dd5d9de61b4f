//! Promote single-word, non-escaping allocas to SSA values.
//!
//! This is the pass whose *absence* LLFI-style tools effectively suffer from
//! when their instrumentation pins values to memory; with it, the benchmark
//! kernels compile to register-resident loops like the paper's Listing 2b.

use super::{Scope, Subst};
use crate::dom::DomTree;
use crate::instr::{Instr, Operand, Terminator};
use crate::module::{BlockId, Function, InstrData, Ty, ValueId};

/// Run mem2reg on one function. Returns `true` if anything was promoted.
pub fn run(f: &mut Function) -> bool {
    // Promotable allocas in value-id order, and each value's type if it is
    // one (indexed by value id).
    let candidates = promotable_allocas(f);
    let ordered: Vec<(ValueId, Ty)> = (0..candidates.len() as u32)
        .filter_map(|v| candidates[v as usize].map(|ty| (ValueId(v), ty)))
        .collect();
    if ordered.is_empty() {
        return false;
    }
    let is_candidate = |v: &ValueId| candidates.get(v.index()).is_some_and(Option::is_some);

    let dt = DomTree::compute(f);
    let nb = f.blocks.len();

    // ---- Phi insertion at iterated dominance frontiers of store blocks.
    // For each candidate alloca: the blocks containing stores to it, one
    // entry per store.
    let mut def_blocks: Vec<Vec<BlockId>> = vec![Vec::new(); candidates.len()];
    for (bi, b) in f.blocks.iter().enumerate() {
        for id in &b.instrs {
            if let Instr::Store { addr: Operand::Value(a), .. } = &id.instr {
                if is_candidate(a) {
                    def_blocks[a.index()].push(BlockId(bi as u32));
                }
            }
        }
    }

    // (phi result value, alloca it materializes), in creation order.
    let mut new_phis: Vec<(ValueId, ValueId)> = Vec::new();
    let mut placed = vec![false; nb];
    let mut on_work = vec![false; nb];
    for &(alloca, ty) in &ordered {
        let mut work = std::mem::take(&mut def_blocks[alloca.index()]);
        placed.fill(false);
        on_work.fill(false);
        for b in &work {
            on_work[b.index()] = true;
        }
        while let Some(b) = work.pop() {
            for &df in &dt.frontier[b.index()] {
                if !std::mem::replace(&mut placed[df.index()], true) {
                    let phi_val = f.new_value(ty);
                    f.blocks[df.index()].instrs.insert(
                        0,
                        InstrData {
                            instr: Instr::Phi { incomings: vec![], ty },
                            result: Some(phi_val),
                        },
                    );
                    new_phis.push((phi_val, alloca));
                    if !std::mem::replace(&mut on_work[df.index()], true) {
                        work.push(df);
                    }
                }
            }
        }
    }
    // phi result value -> alloca it materializes (indexed by value id)
    let mut phi_of: Vec<Option<ValueId>> = vec![None; f.value_tys.len()];
    for &(phi, alloca) in &new_phis {
        phi_of[phi.index()] = Some(alloca);
    }

    // ---- Renaming along the dominator tree, with one environment (the
    // current value of each alloca, indexed by value id) and an undo log
    // of (alloca, previous value) that restores it on leaving a subtree.
    let mut subst = Subst::default();
    let mut kill: Vec<Vec<bool>> = f.blocks.iter().map(|b| vec![false; b.instrs.len()]).collect();
    let default_value = |ty: Ty| match ty {
        Ty::F64 => Operand::ConstF(0.0),
        _ => Operand::ConstI(0),
    };
    let mut env: Vec<Option<Operand>> = vec![None; candidates.len()];
    let mut undo: Vec<(ValueId, Option<Operand>)> = Vec::new();
    let mut stack = vec![Scope::Enter(BlockId(0))];
    let mut visited = vec![false; nb];
    while let Some(step) = stack.pop() {
        let b = match step {
            Scope::Enter(b) => b,
            Scope::Leave(mark) => {
                while undo.len() > mark {
                    let (a, prev) = undo.pop().expect("undo log longer than mark");
                    env[a.index()] = prev;
                }
                continue;
            }
        };
        if std::mem::replace(&mut visited[b.index()], true) {
            continue;
        }
        stack.push(Scope::Leave(undo.len()));
        for (ii, id) in f.blocks[b.index()].instrs.iter().enumerate() {
            match (&id.instr, id.result) {
                (Instr::Phi { .. }, Some(res)) => {
                    if let Some(alloca) = phi_of[res.index()] {
                        undo.push((alloca, env[alloca.index()].replace(Operand::Value(res))));
                    }
                }
                (Instr::Alloca { .. }, Some(res)) if is_candidate(&res) => {
                    kill[b.index()][ii] = true;
                }
                (Instr::Load { addr: Operand::Value(a), ty }, Some(res)) if is_candidate(a) => {
                    let cur = env[a.index()]
                        .map(|op| subst.resolve(op))
                        .unwrap_or_else(|| default_value(*ty));
                    subst.insert(res, cur);
                    kill[b.index()][ii] = true;
                }
                (Instr::Store { addr: Operand::Value(a), val, .. }, _) if is_candidate(a) => {
                    undo.push((*a, env[a.index()].replace(subst.resolve(*val))));
                    kill[b.index()][ii] = true;
                }
                _ => {}
            }
        }
        // Fill phi incomings in CFG successors (the inserted phis lead
        // every block).
        for s in f.blocks[b.index()].successors() {
            for id in &mut f.blocks[s.index()].instrs {
                let Instr::Phi { incomings, ty } = &mut id.instr else { break };
                let Some(alloca) = id.result.and_then(|res| phi_of[res.index()]) else {
                    continue;
                };
                let cur = env[alloca.index()]
                    .map(|op| subst.resolve(op))
                    .unwrap_or_else(|| default_value(*ty));
                incomings.push((b, cur));
            }
        }
        // Recurse into dominator-tree children (every reachable block is
        // dominated by the entry, so this visits everything).
        stack.extend(dt.children[b.index()].iter().map(|&c| Scope::Enter(c)));
    }

    // ---- Drop promoted loads/stores/allocas and apply the substitution.
    for (block, kill) in f.blocks.iter_mut().zip(&kill) {
        let mut dead = kill.iter();
        block.instrs.retain(|_| !dead.next().expect("one flag per instruction"));
    }
    subst.apply(f);

    // Resolve phi-incoming chains created during renaming (an incoming may
    // reference a load value substituted later).
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

/// Allocas that are single 8-byte words and only ever used directly as the
/// address of loads/stores (no address arithmetic, no escaping): the type
/// each is accessed with, indexed by value id (`None` for every other
/// value).
fn promotable_allocas(f: &Function) -> Vec<Option<Ty>> {
    // value -> (ok, ty) for every single-word alloca
    let mut info: Vec<Option<(bool, Option<Ty>)>> = vec![None; f.value_tys.len()];
    let mut any = false;
    for b in &f.blocks {
        for id in &b.instrs {
            if let (Instr::Alloca { words: 1 }, Some(res)) = (&id.instr, id.result) {
                info[res.index()] = Some((true, None));
                any = true;
            }
        }
    }
    if !any {
        return Vec::new();
    }
    let escape = |info: &mut Vec<Option<(bool, Option<Ty>)>>, op: &Operand| {
        if let Some(Some(e)) = op.as_value().map(|v| &mut info[v.index()]) {
            e.0 = false;
        }
    };
    // Examine all uses.
    for b in &f.blocks {
        for id in &b.instrs {
            match &id.instr {
                Instr::Load { addr: Operand::Value(a), ty } => {
                    if let Some(e) = &mut info[a.index()] {
                        match e.1 {
                            None => e.1 = Some(*ty),
                            Some(t) if t == *ty => {}
                            _ => e.0 = false, // mixed-type access: leave in memory
                        }
                    }
                }
                Instr::Store { addr: Operand::Value(a), val, ty } => {
                    // The stored *value* being the alloca address = escape.
                    escape(&mut info, val);
                    if let Some(e) = &mut info[a.index()] {
                        match e.1 {
                            None => e.1 = Some(*ty),
                            Some(t) if t == *ty => {}
                            _ => e.0 = false,
                        }
                    }
                }
                // Any other appearance disqualifies the alloca.
                other => other.for_each_operand(&mut |op| escape(&mut info, op)),
            }
        }
        match &b.term {
            Some(Terminator::CondBr { cond: op, .. }) | Some(Terminator::Ret(Some(op))) => {
                escape(&mut info, op)
            }
            _ => {}
        }
    }
    info.into_iter()
        .map(|e| match e {
            Some((true, ty)) => Some(ty.unwrap_or(Ty::I64)),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::instr::{IBinOp, IPred};
    use crate::interp::Interp;
    use crate::module::Module;
    use crate::verify::verify_module;

    /// Build sum 0..n with a memory counter; after mem2reg there must be no
    /// loads/stores left and the semantics must be unchanged.
    #[test]
    fn promotes_loop_counter() {
        let mut m = Module::new();
        let mut b = FuncBuilder::new("main", vec![], Some(Ty::I64));
        let iv = b.alloca(1);
        let sv = b.alloca(1);
        b.store(iv, Operand::ConstI(0), Ty::I64);
        b.store(sv, Operand::ConstI(0), Ty::I64);
        let h = b.add_block("h");
        let body = b.add_block("body");
        let e = b.add_block("e");
        b.br(h);
        b.switch_to(h);
        let i = b.load(iv, Ty::I64);
        let c = b.icmp(IPred::Slt, i, Operand::ConstI(5));
        b.cond_br(c, body, e);
        b.switch_to(body);
        let s = b.load(sv, Ty::I64);
        let s2 = b.ibin(IBinOp::Add, s, i);
        b.store(sv, s2, Ty::I64);
        let i2 = b.ibin(IBinOp::Add, i, Operand::ConstI(1));
        b.store(iv, i2, Ty::I64);
        b.br(h);
        b.switch_to(e);
        let r = b.load(sv, Ty::I64);
        b.ret(Some(r));
        m.add_function(b.finish());

        let before = Interp::new(&m, 100_000).run().unwrap().exit_code;
        let changed = run(&mut m.funcs[0]);
        assert!(changed);
        verify_module(&m).unwrap();
        for blk in &m.funcs[0].blocks {
            for id in &blk.instrs {
                assert!(
                    !matches!(id.instr, Instr::Load { .. } | Instr::Store { .. } | Instr::Alloca { .. }),
                    "memory op survived mem2reg: {:?}",
                    id.instr
                );
            }
        }
        let after = Interp::new(&m, 100_000).run().unwrap().exit_code;
        assert_eq!(before, after);
        assert_eq!(after, 10);
    }

    /// Array allocas (words > 1) and escaping allocas must not be promoted.
    #[test]
    fn leaves_arrays_alone() {
        let mut m = Module::new();
        let mut b = FuncBuilder::new("main", vec![], Some(Ty::I64));
        let arr = b.alloca(4);
        let p = b.elem(arr, Operand::ConstI(2));
        b.store(p, Operand::ConstI(9), Ty::I64);
        let v = b.load(p, Ty::I64);
        b.ret(Some(v));
        m.add_function(b.finish());
        let changed = run(&mut m.funcs[0]);
        assert!(!changed);
        let r = Interp::new(&m, 1000).run().unwrap();
        assert_eq!(r.exit_code, 9);
    }

    /// Loads before any store read zero (mirrors zero-initialized stack).
    #[test]
    fn undefined_load_becomes_zero() {
        let mut m = Module::new();
        let mut b = FuncBuilder::new("main", vec![], Some(Ty::I64));
        let a = b.alloca(1);
        let v = b.load(a, Ty::I64);
        b.ret(Some(v));
        m.add_function(b.finish());
        run(&mut m.funcs[0]);
        verify_module(&m).unwrap();
        assert_eq!(Interp::new(&m, 1000).run().unwrap().exit_code, 0);
    }

    /// Diamond with stores on both sides must produce a phi at the join.
    #[test]
    fn inserts_phi_at_join() {
        let mut m = Module::new();
        let mut b = FuncBuilder::new("main", vec![Ty::I64], Some(Ty::I64));
        let p = b.params()[0];
        let a = b.alloca(1);
        let t = b.add_block("t");
        let f = b.add_block("f");
        let j = b.add_block("j");
        let c = b.icmp(IPred::Sgt, p, Operand::ConstI(0));
        b.cond_br(c, t, f);
        b.switch_to(t);
        b.store(a, Operand::ConstI(100), Ty::I64);
        b.br(j);
        b.switch_to(f);
        b.store(a, Operand::ConstI(200), Ty::I64);
        b.br(j);
        b.switch_to(j);
        let v = b.load(a, Ty::I64);
        b.ret(Some(v));
        m.add_function(b.finish());
        run(&mut m.funcs[0]);
        verify_module(&m).unwrap();
        let has_phi = m.funcs[0]
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .any(|i| i.instr.is_phi());
        assert!(has_phi, "expected a phi at the join block");
    }
}
