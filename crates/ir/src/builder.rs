//! Ergonomic IR construction, used by the MiniLang frontend and by tests.

use crate::instr::{
    CastOp, FBinOp, FPred, IBinOp, IPred, Instr, Intrinsic, Operand, Terminator,
};
use crate::module::{BlockId, FuncId, Function, InstrData, StrId, Ty};

/// Builds one [`Function`] by appending instructions at a movable insertion
/// point (always the end of the current block).
pub struct FuncBuilder {
    func: Function,
    cur: BlockId,
}

impl FuncBuilder {
    /// Start building a function; the insertion point is the entry block.
    pub fn new(name: impl Into<String>, params: Vec<Ty>, ret: Option<Ty>) -> Self {
        FuncBuilder { func: Function::new(name, params, ret), cur: BlockId(0) }
    }

    /// The parameter values of the function under construction.
    pub fn params(&self) -> Vec<Operand> {
        self.func.param_values().map(Operand::Value).collect()
    }

    /// Create a new block (does not move the insertion point).
    pub fn add_block(&mut self, name: impl Into<String>) -> BlockId {
        self.func.add_block(name)
    }

    /// Move the insertion point to `b`.
    pub fn switch_to(&mut self, b: BlockId) {
        self.cur = b;
    }

    /// True when the current block already has a terminator.
    pub fn is_terminated(&self) -> bool {
        self.func.block(self.cur).term.is_some()
    }

    /// Type of an operand under this function's value table.
    pub fn operand_ty(&self, op: Operand) -> Ty {
        match op {
            Operand::Value(v) => self.func.ty_of(v),
            Operand::ConstI(_) => Ty::I64,
            Operand::ConstF(_) => Ty::F64,
            Operand::Global(_) => Ty::Ptr,
        }
    }

    fn push(&mut self, instr: Instr, ty: Option<Ty>) -> Option<Operand> {
        debug_assert!(
            self.func.block(self.cur).term.is_none(),
            "appending to a terminated block in {}",
            self.func.name
        );
        let result = ty.map(|t| self.func.new_value(t));
        self.func.block_mut(self.cur).instrs.push(InstrData { instr, result });
        result.map(Operand::Value)
    }

    /// Stack allocation of `words` 8-byte words.
    pub fn alloca(&mut self, words: u32) -> Operand {
        self.push(Instr::Alloca { words }, Some(Ty::Ptr)).unwrap()
    }

    /// Stack allocation hoisted into the entry block (inserted after any
    /// existing leading allocas), regardless of the insertion point. Used by
    /// frontends so that allocas in loops do not re-allocate per iteration.
    pub fn alloca_in_entry(&mut self, words: u32) -> Operand {
        let result = self.func.new_value(Ty::Ptr);
        let entry = self.func.block_mut(BlockId(0));
        let at = entry
            .instrs
            .iter()
            .position(|i| !matches!(i.instr, Instr::Alloca { .. }))
            .unwrap_or(entry.instrs.len());
        entry.instrs.insert(
            at,
            InstrData { instr: Instr::Alloca { words }, result: Some(result) },
        );
        Operand::Value(result)
    }

    /// Typed 8-byte load.
    pub fn load(&mut self, addr: Operand, ty: Ty) -> Operand {
        self.push(Instr::Load { addr, ty }, Some(ty)).unwrap()
    }

    /// Typed 8-byte store.
    pub fn store(&mut self, addr: Operand, val: Operand, ty: Ty) {
        self.push(Instr::Store { addr, val, ty }, None);
    }

    /// Integer binary operation.
    pub fn ibin(&mut self, op: IBinOp, a: Operand, b: Operand) -> Operand {
        self.push(Instr::IBin { op, a, b }, Some(Ty::I64)).unwrap()
    }

    /// Floating binary operation.
    pub fn fbin(&mut self, op: FBinOp, a: Operand, b: Operand) -> Operand {
        self.push(Instr::FBin { op, a, b }, Some(Ty::F64)).unwrap()
    }

    /// Integer comparison.
    pub fn icmp(&mut self, pred: IPred, a: Operand, b: Operand) -> Operand {
        self.push(Instr::ICmp { pred, a, b }, Some(Ty::I1)).unwrap()
    }

    /// Float comparison.
    pub fn fcmp(&mut self, pred: FPred, a: Operand, b: Operand) -> Operand {
        self.push(Instr::FCmp { pred, a, b }, Some(Ty::I1)).unwrap()
    }

    /// Select.
    pub fn select(&mut self, cond: Operand, a: Operand, b: Operand, ty: Ty) -> Operand {
        self.push(Instr::Select { cond, a, b, ty }, Some(ty)).unwrap()
    }

    /// Conversion.
    pub fn cast(&mut self, op: CastOp, v: Operand) -> Operand {
        let ty = match op {
            CastOp::SiToF | CastOp::BitsToF => Ty::F64,
            CastOp::FToSi | CastOp::I1ToI64 | CastOp::PtrToInt | CastOp::FToBits => Ty::I64,
            CastOp::IntToPtr => Ty::Ptr,
        };
        self.push(Instr::Cast { op, v }, Some(ty)).unwrap()
    }

    /// Address arithmetic `base + idx*scale + disp`.
    pub fn ptradd(&mut self, base: Operand, idx: Operand, scale: i64, disp: i64) -> Operand {
        self.push(Instr::PtrAdd { base, idx, scale, disp }, Some(Ty::Ptr)).unwrap()
    }

    /// Convenience: address of `base[idx]` for 8-byte elements.
    pub fn elem(&mut self, base: Operand, idx: Operand) -> Operand {
        self.ptradd(base, idx, 8, 0)
    }

    /// Direct call; `ret` must be the callee's return type.
    pub fn call(&mut self, func: FuncId, args: Vec<Operand>, ret: Option<Ty>) -> Option<Operand> {
        self.push(Instr::Call { func, args }, ret)
    }

    /// Intrinsic call.
    pub fn intrinsic(&mut self, which: Intrinsic, args: Vec<Operand>) -> Option<Operand> {
        let ty = which.result_ty();
        self.push(Instr::IntrinsicCall { which, args }, ty)
    }

    /// Print a string literal.
    pub fn print_str(&mut self, s: StrId) {
        self.push(Instr::PrintStr { s }, None);
    }

    /// Phi node (typically patched later with [`FuncBuilder::add_incoming`]).
    pub fn phi(&mut self, ty: Ty, incomings: Vec<(BlockId, Operand)>) -> Operand {
        self.push(Instr::Phi { incomings, ty }, Some(ty)).unwrap()
    }

    /// Append an incoming edge to an existing phi (identified by its result).
    pub fn add_incoming(&mut self, phi: Operand, pred: BlockId, val: Operand) {
        let v = phi.as_value().expect("phi operand must be a value");
        for b in &mut self.func.blocks {
            for id in &mut b.instrs {
                if id.result == Some(v) {
                    if let Instr::Phi { incomings, .. } = &mut id.instr {
                        incomings.push((pred, val));
                        return;
                    }
                }
            }
        }
        panic!("add_incoming: phi not found");
    }

    /// Unconditional branch terminator.
    pub fn br(&mut self, b: BlockId) {
        debug_assert!(!self.is_terminated());
        self.func.block_mut(self.cur).term = Some(Terminator::Br(b));
    }

    /// Conditional branch terminator.
    pub fn cond_br(&mut self, cond: Operand, t: BlockId, f: BlockId) {
        debug_assert!(!self.is_terminated());
        self.func.block_mut(self.cur).term = Some(Terminator::CondBr { cond, t, f });
    }

    /// Return terminator.
    pub fn ret(&mut self, v: Option<Operand>) {
        debug_assert!(!self.is_terminated());
        self.func.block_mut(self.cur).term = Some(Terminator::Ret(v));
    }

    /// Finish building, yielding the function.
    pub fn finish(self) -> Function {
        self.func
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_straightline_function() {
        let mut b = FuncBuilder::new("add2", vec![Ty::I64], Some(Ty::I64));
        let p = b.params()[0];
        let r = b.ibin(IBinOp::Add, p, Operand::ConstI(2));
        b.ret(Some(r));
        let f = b.finish();
        assert_eq!(f.blocks.len(), 1);
        assert_eq!(f.blocks[0].instrs.len(), 1);
        assert!(matches!(f.blocks[0].term, Some(Terminator::Ret(Some(_)))));
    }

    #[test]
    fn builds_loop_with_phi() {
        let mut b = FuncBuilder::new("count", vec![], Some(Ty::I64));
        let header = b.add_block("header");
        let body = b.add_block("body");
        let exit = b.add_block("exit");
        b.br(header);
        b.switch_to(header);
        let i = b.phi(Ty::I64, vec![(BlockId(0), Operand::ConstI(0))]);
        let c = b.icmp(IPred::Slt, i, Operand::ConstI(10));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let inext = b.ibin(IBinOp::Add, i, Operand::ConstI(1));
        b.add_incoming(i, body, inext);
        b.br(header);
        b.switch_to(exit);
        b.ret(Some(i));
        let f = b.finish();
        assert_eq!(f.blocks.len(), 4);
        if let Instr::Phi { incomings, .. } = &f.blocks[1].instrs[0].instr {
            assert_eq!(incomings.len(), 2);
        } else {
            panic!("first instr of header must be a phi");
        }
    }

    #[test]
    fn operand_types() {
        let mut b = FuncBuilder::new("f", vec![Ty::F64], None);
        let p = b.params()[0];
        assert_eq!(b.operand_ty(p), Ty::F64);
        assert_eq!(b.operand_ty(Operand::ConstI(0)), Ty::I64);
        let a = b.alloca(4);
        assert_eq!(b.operand_ty(a), Ty::Ptr);
        b.ret(None);
    }
}
