//! Instruction selection: optimized IR -> VCode.
//!
//! Two selections matter for the paper's story and are implemented here the
//! way a production backend does them:
//!
//! * **addressing-mode folding** — `getelementptr`-style [`refine_ir::Instr::PtrAdd`]
//!   chains whose only consumers are loads/stores become
//!   `[base + idx*scale + disp]` operands and never exist as instructions
//!   (so IR-level FI cannot target them, while backend/binary FI can);
//! * **compare + branch fusion** — an `icmp`/`fcmp` whose single use is the
//!   same block's conditional branch emits `cmp` + `jcc` with no
//!   materialized boolean (the `vucomisd`/`seta` split of the paper's
//!   Listing 2c happens only when instrumentation breaks this pattern).

use crate::vcode::{VBlock, VFunc, VInst, VMem, Vr};
use refine_ir::interp::Interp;
use refine_ir::{
    CastOp, FBinOp, FPred, IBinOp, IPred, Instr, Intrinsic, Operand, Terminator, Ty, ValueId,
};
use refine_machine::{AluOp, Cc, CvtKind, FAluOp, RtFunc};

/// Lower one IR function (critical edges already split) to VCode.
pub fn lower_function(m: &refine_ir::Module, f: &refine_ir::Function) -> VFunc {
    Lowerer::new(m, f).run()
}

struct Lowerer<'a> {
    m: &'a refine_ir::Module,
    f: &'a refine_ir::Function,
    v: VFunc,
    /// IR value -> vreg (indexed by value id).
    vmap: Vec<Option<Vr>>,
    /// cmp values fused into their block's terminator (indexed by value id).
    fused: Vec<bool>,
    /// PtrAdd values folded entirely into addressing modes, with their
    /// definitions (indexed by value id).
    folded: Vec<Option<&'a Instr>>,
    cur: usize,
}

impl<'a> Lowerer<'a> {
    fn new(m: &'a refine_ir::Module, f: &'a refine_ir::Function) -> Self {
        let mut v = VFunc {
            name: f.name.clone(),
            blocks: vec![VBlock::default(); f.blocks.len()],
            n_int: 0,
            n_flt: 0,
            alloca_words: vec![],
            params: vec![],
        };
        let mut vmap = vec![None; f.value_tys.len()];
        for (i, ty) in f.params.iter().enumerate() {
            let vr = match ty {
                Ty::F64 => v.new_flt(),
                _ => v.new_int(),
            };
            v.params.push(vr);
            vmap[i] = Some(vr);
        }
        Lowerer {
            m,
            f,
            v,
            vmap,
            fused: vec![false; f.value_tys.len()],
            folded: vec![None; f.value_tys.len()],
            cur: 0,
        }
    }

    fn run(mut self) -> VFunc {
        self.analyze();
        for bi in 0..self.f.blocks.len() {
            self.cur = bi;
            self.lower_block(bi);
        }
        self.v
    }

    /// Use counting + fusion/folding analysis.
    fn analyze(&mut self) {
        let counts = refine_ir::passes::use_counts(self.f);
        // Fuse cmps used exactly once, by the same block's terminator.
        for b in &self.f.blocks {
            if let Some(Terminator::CondBr { cond, .. }) = &b.term {
                if let Some(v) = cond.as_value() {
                    let defined_here = b
                        .instrs
                        .iter()
                        .any(|id| id.result == Some(v) && matches!(id.instr, Instr::ICmp { .. } | Instr::FCmp { .. }));
                    if defined_here && counts[v.index()] == 1 {
                        self.fused[v.index()] = true;
                    }
                }
            }
        }
        // Fold PtrAdds whose every use is a load/store address.
        // PtrAdd value -> (definition, every use is an address so far).
        let mut addr_only: Vec<Option<(&'a Instr, bool)>> = vec![None; self.f.value_tys.len()];
        let f: &'a refine_ir::Function = self.f;
        for b in &f.blocks {
            for id in &b.instrs {
                if let (Instr::PtrAdd { .. }, Some(res)) = (&id.instr, id.result) {
                    addr_only[res.index()] = Some((&id.instr, true));
                }
            }
        }
        let mut disqualify = |v: ValueId| {
            if let Some((_, ok)) = &mut addr_only[v.index()] {
                *ok = false;
            }
        };
        for b in &self.f.blocks {
            for id in &b.instrs {
                match &id.instr {
                    Instr::Load { addr, .. } => {
                        let _ = addr; // address positions are fine
                    }
                    Instr::Store { addr, val, .. } => {
                        // A PtrAdd used as a stored *value* escapes.
                        if let Some(v) = val.as_value() {
                            disqualify(v);
                        }
                        let _ = addr;
                    }
                    other => {
                        // PtrAdd bases feeding other PtrAdds stay foldable
                        // (the fold recurses); anything else disqualifies.
                        let base_of_ptradd = if let Instr::PtrAdd { base, .. } = other {
                            base.as_value()
                        } else {
                            None
                        };
                        other.for_each_operand(&mut |op| {
                            if let Some(v) = op.as_value() {
                                if Some(v) != base_of_ptradd {
                                    disqualify(v);
                                }
                            }
                        });
                    }
                }
            }
            match &b.term {
                Some(Terminator::CondBr { cond: op, .. }) | Some(Terminator::Ret(Some(op))) => {
                    if let Some(v) = op.as_value() {
                        disqualify(v);
                    }
                }
                _ => {}
            }
        }
        // Fix-point: a foldable PtrAdd whose base is a non-foldable PtrAdd is
        // still foldable (base used as a plain register); nothing to iterate.
        self.folded = addr_only
            .into_iter()
            .map(|e| e.and_then(|(def, ok)| ok.then_some(def)))
            .collect();
    }

    fn emit(&mut self, i: VInst) {
        self.v.blocks[self.cur].insts.push(i);
    }

    /// Vreg for an IR value, creating it on first sight.
    fn vreg(&mut self, val: ValueId) -> Vr {
        if let Some(v) = self.vmap[val.index()] {
            return v;
        }
        let vr = match self.f.ty_of(val) {
            Ty::F64 => self.v.new_flt(),
            _ => self.v.new_int(),
        };
        self.vmap[val.index()] = Some(vr);
        vr
    }

    /// Integer-class operand -> vreg (materializing constants).
    fn op_int(&mut self, op: &Operand) -> Vr {
        match op {
            Operand::Value(v) => self.vreg(*v),
            Operand::ConstI(c) => {
                let d = self.v.new_int();
                self.emit(VInst::MovI { d, imm: *c });
                d
            }
            Operand::ConstF(c) => {
                // Integer context with a float constant: its bits.
                let d = self.v.new_int();
                self.emit(VInst::MovI { d, imm: c.to_bits() as i64 });
                d
            }
            Operand::Global(g) => {
                let d = self.v.new_int();
                self.emit(VInst::MovI { d, imm: Interp::global_addr(self.m, *g) as i64 });
                d
            }
        }
    }

    /// Float-class operand -> vreg.
    fn op_flt(&mut self, op: &Operand) -> Vr {
        match op {
            Operand::Value(v) => self.vreg(*v),
            Operand::ConstF(c) => {
                let d = self.v.new_flt();
                self.emit(VInst::FMovI { d, imm: c.to_bits() });
                d
            }
            Operand::ConstI(c) => {
                let d = self.v.new_flt();
                self.emit(VInst::FMovI { d, imm: (*c as f64).to_bits() });
                d
            }
            Operand::Global(_) => unreachable!("global address in float context"),
        }
    }

    fn op_by_ty(&mut self, op: &Operand, ty: Ty) -> Vr {
        if ty == Ty::F64 {
            self.op_flt(op)
        } else {
            self.op_int(op)
        }
    }

    /// Fold an address operand into a machine addressing mode, following
    /// foldable PtrAdd chains.
    fn fold_mem(&mut self, addr: &Operand) -> VMem {
        match addr {
            Operand::Global(g) => VMem::abs(Interp::global_addr(self.m, *g) as i64),
            Operand::ConstI(c) => VMem::abs(*c),
            Operand::Value(v) => {
                // A foldable PtrAdd folds into the addressing mode.
                if let Some(&Instr::PtrAdd { base, idx, scale, disp }) = self.folded[v.index()] {
                    let mut mem = self.fold_mem(&base);
                    mem.disp += disp;
                    match idx {
                        Operand::ConstI(c) => {
                            mem.disp += c * scale;
                            return mem;
                        }
                        _ => {
                            let iv = self.op_int(&idx);
                            if mem.index.is_none() && matches!(scale, 1 | 2 | 4 | 8) {
                                mem.index = Some((iv, scale as u8));
                                return mem;
                            }
                            // Index slot busy or awkward scale:
                            // materialize the partial address, continue.
                            let scaled = if scale == 1 {
                                iv
                            } else {
                                let t = self.v.new_int();
                                self.emit(VInst::AluI {
                                    op: AluOp::Mul,
                                    d: t,
                                    a: iv,
                                    imm: scale,
                                });
                                t
                            };
                            let part = self.v.new_int();
                            self.emit(VInst::Lea { d: part, mem });
                            return VMem {
                                base: Some(part),
                                index: Some((scaled, 1)),
                                disp: 0,
                            };
                        }
                    }
                }
                VMem { base: Some(self.vreg(*v)), index: None, disp: 0 }
            }
            Operand::ConstF(_) => unreachable!("float constant as address"),
        }
    }

    fn lower_block(&mut self, bi: usize) {
        let f: &'a refine_ir::Function = self.f;
        let block = &f.blocks[bi];
        for id in &block.instrs {
            if let Some(res) = id.result {
                if self.fused[res.index()] || self.folded[res.index()].is_some() {
                    continue; // emitted at the branch / folded into operands
                }
            }
            self.lower_instr(&id.instr, id.result);
        }
        // Phi copies for every successor, as one parallel-copy group
        // (all temps read before any phi register is written).
        let term = block.term.as_ref().expect("terminated IR");
        let succs: Vec<refine_ir::BlockId> = self.f.blocks[bi].successors();
        let mut staged: Vec<(Vr, Vr)> = Vec::new(); // (phi vreg, temp)
        for s in succs {
            let phi_list: Vec<(ValueId, Operand, Ty)> = self.f.blocks[s.index()]
                .instrs
                .iter()
                .filter_map(|id|

                    if let Instr::Phi { incomings, ty } = &id.instr {
                        let op = incomings
                            .iter()
                            .find(|(p, _)| p.index() == bi)
                            .map(|(_, o)| *o)?;
                        Some((id.result.unwrap(), op, *ty))
                    } else {
                        None
                    })
                .collect();
            for (phi, op, ty) in phi_list {
                let src = self.op_by_ty(&op, ty);
                let tmp = if ty == Ty::F64 { self.v.new_flt() } else { self.v.new_int() };
                if ty == Ty::F64 {
                    self.emit(VInst::FMov { d: tmp, a: src });
                } else {
                    self.emit(VInst::Mov { d: tmp, a: src });
                }
                let phiv = self.vreg(phi);
                staged.push((phiv, tmp));
            }
        }
        for (phiv, tmp) in staged {
            if phiv.is_int() {
                self.emit(VInst::Mov { d: phiv, a: tmp });
            } else {
                self.emit(VInst::FMov { d: phiv, a: tmp });
            }
        }
        // Terminator.
        match term {
            Terminator::Br(t) => self.emit(VInst::Jmp { bb: t.0 }),
            Terminator::CondBr { cond, t, f: fb } => {
                let cc = self.emit_branch_condition(cond, bi);
                self.emit(VInst::Jcc { cc, bb: t.0 });
                self.emit(VInst::Jmp { bb: fb.0 });
            }
            Terminator::Ret(v) => {
                let val = v.map(|op| {
                    let ty = self.f.ret.unwrap();
                    self.op_by_ty(&op, ty)
                });
                self.emit(VInst::Ret { val });
            }
        }
    }

    /// Emit the compare feeding a conditional branch (fused when possible)
    /// and return the branch condition code.
    fn emit_branch_condition(&mut self, cond: &Operand, bi: usize) -> Cc {
        if let Some(v) = cond.as_value() {
            if self.fused[v.index()] {
                // Find the cmp in this block and emit it here.
                let def = self.f.blocks[bi]
                    .instrs
                    .iter()
                    .find(|id| id.result == Some(v))
                    .map(|id| id.instr.clone())
                    .expect("fused cmp in block");
                match def {
                    Instr::ICmp { pred, a, b } => {
                        let cc = icc(pred);
                        self.emit_icmp(&a, &b);
                        return cc;
                    }
                    Instr::FCmp { pred, a, b } => {
                        let av = self.op_flt(&a);
                        let bv = self.op_flt(&b);
                        self.emit(VInst::FCmp { a: av, b: bv });
                        return fcc(pred);
                    }
                    _ => unreachable!("fused value is always a cmp"),
                }
            }
        }
        // Generic boolean: test against zero.
        let c = self.op_int(cond);
        self.emit(VInst::CmpI { a: c, imm: 0 });
        Cc::Ne
    }

    fn emit_icmp(&mut self, a: &Operand, b: &Operand) {
        match (a, b) {
            (_, Operand::ConstI(c)) => {
                let av = self.op_int(a);
                self.emit(VInst::CmpI { a: av, imm: *c });
            }
            _ => {
                let av = self.op_int(a);
                let bv = self.op_int(b);
                self.emit(VInst::Cmp { a: av, b: bv });
            }
        }
    }

    fn lower_instr(&mut self, instr: &Instr, result: Option<ValueId>) {
        match instr {
            Instr::Alloca { words } => {
                let id = self.v.alloca_words.len() as u32;
                self.v.alloca_words.push(*words);
                let d = self.vreg(result.unwrap());
                self.emit(VInst::FrameAddr { d, id });
            }
            Instr::Load { addr, ty } => {
                let mem = self.fold_mem(addr);
                let d = self.vreg(result.unwrap());
                if *ty == Ty::F64 {
                    self.emit(VInst::FLd { d, mem });
                } else {
                    self.emit(VInst::Ld { d, mem });
                }
            }
            Instr::Store { addr, val, ty } => {
                let mem = self.fold_mem(addr);
                if *ty == Ty::F64 {
                    let s = self.op_flt(val);
                    self.emit(VInst::FSt { s, mem });
                } else {
                    let s = self.op_int(val);
                    self.emit(VInst::St { s, mem });
                }
            }
            Instr::IBin { op, a, b } => {
                let d = self.vreg(result.unwrap());
                let mop = ialu(*op);
                let commutes = matches!(
                    op,
                    IBinOp::Add | IBinOp::Mul | IBinOp::And | IBinOp::Or | IBinOp::Xor
                );
                match (a, b) {
                    (_, Operand::ConstI(c)) => {
                        let av = self.op_int(a);
                        self.emit(VInst::AluI { op: mop, d, a: av, imm: *c });
                    }
                    (Operand::ConstI(c), _) if commutes => {
                        let bv = self.op_int(b);
                        self.emit(VInst::AluI { op: mop, d, a: bv, imm: *c });
                    }
                    _ => {
                        let av = self.op_int(a);
                        let bv = self.op_int(b);
                        self.emit(VInst::Alu { op: mop, d, a: av, b: bv });
                    }
                }
            }
            Instr::FBin { op, a, b } => {
                let av = self.op_flt(a);
                let bv = self.op_flt(b);
                let d = self.vreg(result.unwrap());
                self.emit(VInst::FAlu { op: falu(*op), d, a: av, b: bv });
            }
            Instr::ICmp { pred, a, b } => {
                self.emit_icmp(a, b);
                let d = self.vreg(result.unwrap());
                self.emit(VInst::SetCc { cc: icc(*pred), d });
            }
            Instr::FCmp { pred, a, b } => {
                let av = self.op_flt(a);
                let bv = self.op_flt(b);
                self.emit(VInst::FCmp { a: av, b: bv });
                let d = self.vreg(result.unwrap());
                self.emit(VInst::SetCc { cc: fcc(*pred), d });
            }
            Instr::Select { cond, a, b, ty } => {
                // Branchless lowering: r = b ^ ((a ^ b) & (0 - cond)).
                let c = self.op_int(cond);
                let zero = self.v.new_int();
                self.emit(VInst::MovI { d: zero, imm: 0 });
                let mask = self.v.new_int();
                self.emit(VInst::Alu { op: AluOp::Sub, d: mask, a: zero, b: c });
                let (ai, bi2) = if *ty == Ty::F64 {
                    let af = self.op_flt(a);
                    let bf = self.op_flt(b);
                    let ai = self.v.new_int();
                    let bi2 = self.v.new_int();
                    self.emit(VInst::Cvt { kind: CvtKind::FToBits, d: ai, s: af });
                    self.emit(VInst::Cvt { kind: CvtKind::FToBits, d: bi2, s: bf });
                    (ai, bi2)
                } else {
                    (self.op_int(a), self.op_int(b))
                };
                let x = self.v.new_int();
                self.emit(VInst::Alu { op: AluOp::Xor, d: x, a: ai, b: bi2 });
                let x2 = self.v.new_int();
                self.emit(VInst::Alu { op: AluOp::And, d: x2, a: x, b: mask });
                if *ty == Ty::F64 {
                    let ri = self.v.new_int();
                    self.emit(VInst::Alu { op: AluOp::Xor, d: ri, a: bi2, b: x2 });
                    let d = self.vreg(result.unwrap());
                    self.emit(VInst::Cvt { kind: CvtKind::BitsToF, d, s: ri });
                } else {
                    let d = self.vreg(result.unwrap());
                    self.emit(VInst::Alu { op: AluOp::Xor, d, a: bi2, b: x2 });
                }
            }
            Instr::Cast { op, v } => {
                let d = self.vreg(result.unwrap());
                match op {
                    CastOp::SiToF => {
                        let s = self.op_int(v);
                        self.emit(VInst::Cvt { kind: CvtKind::SiToF, d, s });
                    }
                    CastOp::FToSi => {
                        let s = self.op_flt(v);
                        self.emit(VInst::Cvt { kind: CvtKind::FToSi, d, s });
                    }
                    CastOp::I1ToI64 => {
                        let s = self.op_int(v);
                        self.emit(VInst::AluI { op: AluOp::And, d, a: s, imm: 1 });
                    }
                    CastOp::IntToPtr | CastOp::PtrToInt => {
                        let s = self.op_int(v);
                        self.emit(VInst::Mov { d, a: s });
                    }
                    CastOp::BitsToF => {
                        let s = self.op_int(v);
                        self.emit(VInst::Cvt { kind: CvtKind::BitsToF, d, s });
                    }
                    CastOp::FToBits => {
                        let s = self.op_flt(v);
                        self.emit(VInst::Cvt { kind: CvtKind::FToBits, d, s });
                    }
                }
            }
            Instr::PtrAdd { base, idx, scale, disp } => {
                // Un-folded PtrAdd: materialize the address with lea.
                let mut mem = self.fold_mem(base);
                mem.disp += disp;
                match idx {
                    Operand::ConstI(c) => mem.disp += c * scale,
                    _ => {
                        let iv = self.op_int(idx);
                        if mem.index.is_none() && matches!(*scale, 1 | 2 | 4 | 8) {
                            mem.index = Some((iv, *scale as u8));
                        } else {
                            let t = self.v.new_int();
                            self.emit(VInst::AluI { op: AluOp::Mul, d: t, a: iv, imm: *scale });
                            let part = self.v.new_int();
                            self.emit(VInst::Lea { d: part, mem });
                            mem = VMem { base: Some(part), index: Some((t, 1)), disp: 0 };
                        }
                    }
                }
                let d = self.vreg(result.unwrap());
                self.emit(VInst::Lea { d, mem });
            }
            Instr::Call { func, args } => {
                let callee = &self.m.funcs[func.index()];
                let mut avs = Vec::with_capacity(args.len());
                for (op, ty) in args.iter().zip(callee.params.iter()) {
                    avs.push(self.op_by_ty(op, *ty));
                }
                let ret = result.map(|r| self.vreg(r));
                self.emit(VInst::Call { func: func.0, args: avs, ret });
            }
            Instr::IntrinsicCall { which, args } => {
                let (func, argtys): (RtFunc, &[Ty]) = match which {
                    Intrinsic::Sqrt => (RtFunc::Sqrt, &[Ty::F64]),
                    Intrinsic::Fabs => (RtFunc::Fabs, &[Ty::F64]),
                    Intrinsic::Exp => (RtFunc::Exp, &[Ty::F64]),
                    Intrinsic::Log => (RtFunc::Log, &[Ty::F64]),
                    Intrinsic::Sin => (RtFunc::Sin, &[Ty::F64]),
                    Intrinsic::Cos => (RtFunc::Cos, &[Ty::F64]),
                    Intrinsic::Floor => (RtFunc::Floor, &[Ty::F64]),
                    Intrinsic::Pow => (RtFunc::Pow, &[Ty::F64, Ty::F64]),
                    Intrinsic::Fmin => (RtFunc::Fmin, &[Ty::F64, Ty::F64]),
                    Intrinsic::Fmax => (RtFunc::Fmax, &[Ty::F64, Ty::F64]),
                    Intrinsic::PrintI64 => (RtFunc::PrintI64, &[Ty::I64]),
                    Intrinsic::PrintF64 => (RtFunc::PrintF64, &[Ty::F64]),
                };
                let avs: Vec<Vr> = args
                    .iter()
                    .zip(argtys.iter())
                    .map(|(op, ty)| self.op_by_ty(op, *ty))
                    .collect();
                let ret = result.map(|r| self.vreg(r));
                self.emit(VInst::RtCall { func, imm: 0, args: avs, ret });
            }
            Instr::PrintStr { s } => {
                self.emit(VInst::RtCall {
                    func: RtFunc::PrintStr,
                    imm: s.0 as u64,
                    args: vec![],
                    ret: None,
                });
            }
            Instr::LlfiInject { site, val, ty } => {
                // LLFI's injectFault is an ordinary C-ABI runtime call; the
                // register allocator treats it like any call, so the
                // caller-saved clobbering and spill traffic of IR-level
                // instrumentation arise naturally.
                let imm = refine_machine::rt::pack::llfi_imm(*site, ty.bits());
                let d = self.vreg(result.unwrap());
                if *ty == Ty::F64 {
                    let s = self.op_flt(val);
                    self.emit(VInst::RtCall {
                        func: RtFunc::LlfiInjectF,
                        imm,
                        args: vec![s],
                        ret: Some(d),
                    });
                } else {
                    let s = self.op_int(val);
                    self.emit(VInst::RtCall {
                        func: RtFunc::LlfiInjectI,
                        imm,
                        args: vec![s],
                        ret: Some(d),
                    });
                }
            }
            Instr::Phi { .. } => {
                // Registered lazily; copies are emitted by predecessors.
                self.vreg(result.unwrap());
            }
        }
    }
}

fn ialu(op: IBinOp) -> AluOp {
    match op {
        IBinOp::Add => AluOp::Add,
        IBinOp::Sub => AluOp::Sub,
        IBinOp::Mul => AluOp::Mul,
        IBinOp::Div => AluOp::Div,
        IBinOp::Rem => AluOp::Rem,
        IBinOp::And => AluOp::And,
        IBinOp::Or => AluOp::Or,
        IBinOp::Xor => AluOp::Xor,
        IBinOp::Shl => AluOp::Shl,
        IBinOp::LShr => AluOp::LShr,
        IBinOp::AShr => AluOp::AShr,
    }
}

fn icc(p: IPred) -> Cc {
    match p {
        IPred::Eq => Cc::E,
        IPred::Ne => Cc::Ne,
        IPred::Slt => Cc::Lt,
        IPred::Sle => Cc::Le,
        IPred::Sgt => Cc::Gt,
        IPred::Sge => Cc::Ge,
    }
}

fn fcc(p: FPred) -> Cc {
    match p {
        FPred::Oeq => Cc::E,
        FPred::One => Cc::Ne,
        FPred::Olt => Cc::Lt,
        FPred::Ole => Cc::Le,
        FPred::Ogt => Cc::Gt,
        FPred::Oge => Cc::Ge,
    }
}

fn falu(op: FBinOp) -> FAluOp {
    match op {
        FBinOp::Add => FAluOp::Add,
        FBinOp::Sub => FAluOp::Sub,
        FBinOp::Mul => FAluOp::Mul,
        FBinOp::Div => FAluOp::Div,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refine_ir::{FuncBuilder, Module};

    fn lower(m: &Module) -> VFunc {
        lower_function(m, &m.funcs[0])
    }

    #[test]
    fn fuses_cmp_with_branch() {
        let mut m = Module::new();
        let mut b = FuncBuilder::new("f", vec![Ty::I64], Some(Ty::I64));
        let t = b.add_block("t");
        let e = b.add_block("e");
        let p = b.params()[0];
        let c = b.icmp(IPred::Slt, p, Operand::ConstI(10));
        b.cond_br(c, t, e);
        b.switch_to(t);
        b.ret(Some(Operand::ConstI(1)));
        b.switch_to(e);
        b.ret(Some(Operand::ConstI(0)));
        m.add_function(b.finish());
        let v = lower(&m);
        // Entry block: CmpI then Jcc — no SetCc materialization.
        let kinds: Vec<_> = v.blocks[0].insts.iter().collect();
        assert!(kinds.iter().any(|i| matches!(i, VInst::CmpI { .. })));
        assert!(!kinds.iter().any(|i| matches!(i, VInst::SetCc { .. })));
        assert!(kinds.iter().any(|i| matches!(i, VInst::Jcc { cc: Cc::Lt, .. })));
    }

    #[test]
    fn folds_gep_into_addressing_mode() {
        let mut m = Module::new();
        let g = m.add_global("arr", refine_ir::GlobalInit::Zero(16));
        let mut b = FuncBuilder::new("f", vec![Ty::I64], Some(Ty::I64));
        let p = b.params()[0];
        let addr = b.elem(Operand::Global(g), p);
        let v = b.load(addr, Ty::I64);
        b.ret(Some(v));
        m.add_function(b.finish());
        let vf = lower(&m);
        // No Lea materialization: the PtrAdd became [abs + idx*8].
        assert!(!vf.blocks[0].insts.iter().any(|i| matches!(i, VInst::Lea { .. })));
        let ld = vf.blocks[0]
            .insts
            .iter()
            .find_map(|i| if let VInst::Ld { mem, .. } = i { Some(*mem) } else { None })
            .expect("load present");
        assert!(ld.index.is_some());
        assert_eq!(ld.disp, Interp::global_addr(&m, g) as i64);
    }

    #[test]
    fn escaping_gep_is_materialized() {
        let mut m = Module::new();
        let g = m.add_global("arr", refine_ir::GlobalInit::Zero(4));
        let mut b = FuncBuilder::new("f", vec![], Some(Ty::I64));
        let addr = b.elem(Operand::Global(g), Operand::ConstI(1));
        let as_int = b.cast(CastOp::PtrToInt, addr); // escapes
        b.ret(Some(as_int));
        m.add_function(b.finish());
        let vf = lower(&m);
        assert!(vf.blocks[0].insts.iter().any(|i| matches!(i, VInst::Lea { .. })));
    }

    #[test]
    fn lowers_call_and_intrinsic() {
        let mut m = Module::new();
        let mut cal = FuncBuilder::new("g", vec![Ty::F64], Some(Ty::F64));
        let p = cal.params()[0];
        cal.ret(Some(p));
        let gid = m.add_function(cal.finish());
        let mut b = FuncBuilder::new("f", vec![], Some(Ty::I64));
        let r = b.call(gid, vec![Operand::ConstF(2.0)], Some(Ty::F64)).unwrap();
        let s = b.intrinsic(Intrinsic::Sqrt, vec![r]).unwrap();
        let i = b.cast(CastOp::FToSi, s);
        b.ret(Some(i));
        m.add_function(b.finish());
        let vf = lower_function(&m, &m.funcs[1]);
        assert!(vf.blocks[0].insts.iter().any(|i| matches!(i, VInst::Call { .. })));
        assert!(vf.blocks[0]
            .insts
            .iter()
            .any(|i| matches!(i, VInst::RtCall { func: RtFunc::Sqrt, .. })));
    }

    #[test]
    fn phi_copies_staged_through_temps() {
        let mut m = Module::new();
        let mut b = FuncBuilder::new("f", vec![], Some(Ty::I64));
        let h = b.add_block("h");
        let body = b.add_block("body");
        let latch = b.add_block("latch");
        let e = b.add_block("e");
        b.br(h);
        b.switch_to(h);
        let i = b.phi(Ty::I64, vec![(refine_ir::BlockId(0), Operand::ConstI(0))]);
        let c = b.icmp(IPred::Slt, i, Operand::ConstI(4));
        b.cond_br(c, body, e);
        b.switch_to(body);
        let i2 = b.ibin(IBinOp::Add, i, Operand::ConstI(1));
        b.br(latch);
        b.switch_to(latch);
        b.add_incoming(i, latch, i2);
        b.br(h);
        b.switch_to(e);
        b.ret(Some(i));
        m.add_function(b.finish());
        let vf = lower(&m);
        // The latch block carries the copy into the phi vreg.
        let latch_insts = &vf.blocks[3].insts;
        assert!(latch_insts.iter().filter(|i| matches!(i, VInst::Mov { .. })).count() >= 2);
    }
}
