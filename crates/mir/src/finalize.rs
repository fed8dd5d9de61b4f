//! Pseudo-instruction expansion and frame construction: VCode + allocation
//! -> final machine blocks.
//!
//! Everything this module emits — `push fp`, callee-save traffic, `sub sp`,
//! spill loads/stores, ABI argument shuffles — is machine code that *does
//! not exist at the IR level*. This is the instruction population gap the
//! paper identifies (§3.3.1) between IR-level FI and backend/binary FI.

use crate::mfunc::{MBlock, MFunction};
use crate::regalloc::{Allocation, Loc, FLT_SCRATCH, INT_SCRATCH};
use crate::vcode::{VFunc, VInst, VMem, Vr};
use refine_machine::isa::{abi, FP, SP};
use refine_machine::{MInstr, Mem};

/// Expand `v` into final machine code under `alloc`.
pub fn finalize(v: &mut VFunc, alloc: &Allocation) -> MFunction {
    Finalizer::new(v, alloc).run()
}

struct Finalizer<'a> {
    v: &'a VFunc,
    alloc: &'a Allocation,
    /// Words of callee-saved GPR pushes.
    nci: i64,
    /// Words of callee-saved FPR saves.
    ncf: i64,
    /// Total alloca words.
    total_alloca: i64,
    /// Cumulative alloca words through each alloca id.
    alloca_cum: Vec<i64>,
    /// Rematerialization table: spilled vregs whose sole definition is an
    /// immediate move are re-issued as immediates at each use instead of
    /// reloading from the stack (constants are cheaper to recreate than to
    /// load — the standard linear-scan refinement). Indexed by
    /// [`VFunc::dense`].
    remat: Vec<Option<RematVal>>,
}

#[derive(Debug, Clone, Copy)]
enum RematVal {
    Int(i64),
    Flt(u64),
}

impl<'a> Finalizer<'a> {
    fn new(v: &'a VFunc, alloc: &'a Allocation) -> Self {
        let mut alloca_cum = Vec::with_capacity(v.alloca_words.len());
        let mut cum = 0i64;
        for w in &v.alloca_words {
            cum += *w as i64;
            alloca_cum.push(cum);
        }
        // Rematerialization candidates: spilled vregs with exactly one
        // definition, which is an immediate move.
        // (definitions, value of the last one when an immediate move) per vreg
        let mut defs: Vec<(u32, Option<RematVal>)> =
            vec![(0, None); (v.n_int + v.n_flt) as usize];
        for b in &v.blocks {
            for inst in &b.insts {
                let imm = match inst {
                    VInst::MovI { imm, .. } => Some(RematVal::Int(*imm)),
                    VInst::FMovI { imm, .. } => Some(RematVal::Flt(*imm)),
                    _ => None,
                };
                if let Some(d) = inst.def() {
                    let e = &mut defs[v.dense(d)];
                    e.0 += 1;
                    e.1 = imm;
                }
            }
        }
        let remat = v
            .vregs()
            .zip(defs)
            .map(|(vr, (ndefs, rv))| match (ndefs, rv) {
                (1, Some(rv)) if matches!(alloc.loc(vr), Loc::Slot(_)) => Some(rv),
                _ => None,
            })
            .collect();
        Finalizer {
            v,
            alloc,
            nci: alloc.used_callee_int.len() as i64,
            ncf: alloc.used_callee_flt.len() as i64,
            total_alloca: cum,
            alloca_cum,
            remat,
        }
    }

    fn frame_sub(&self) -> i64 {
        8 * (self.ncf + self.total_alloca + self.alloc.n_slots as i64)
    }

    /// fp-relative displacement of spill slot `s`.
    fn slot_off(&self, s: u32) -> i64 {
        -8 * (self.nci + self.ncf + self.total_alloca + s as i64 + 1)
    }

    /// fp-relative displacement of the base (lowest address) of alloca `id`.
    fn alloca_off(&self, id: u32) -> i64 {
        -8 * (self.nci + self.ncf + self.alloca_cum[id as usize])
    }

    /// fp-relative displacement of the `k`-th callee-saved FPR save.
    fn fsave_off(&self, k: i64) -> i64 {
        -8 * (self.nci + k + 1)
    }

    fn slot_mem(&self, s: u32) -> Mem {
        Mem::base_disp(FP, self.slot_off(s))
    }

    /// Map a use of `vr`, loading spills into scratch `which` (0 or 1) —
    /// or rematerializing constants instead of reloading them.
    fn use_reg(&self, vr: Vr, which: usize, code: &mut Vec<MInstr>) -> u8 {
        match self.alloc.loc(vr) {
            Loc::Reg(r) => r,
            Loc::Slot(s) => {
                if vr.is_int() {
                    let sc = INT_SCRATCH[which];
                    match self.remat[self.v.dense(vr)] {
                        Some(RematVal::Int(imm)) => {
                            code.push(MInstr::MovRI { rd: sc, imm })
                        }
                        _ => code.push(MInstr::Ld { rd: sc, mem: self.slot_mem(s) }),
                    }
                    sc
                } else {
                    let sc = FLT_SCRATCH[which];
                    match self.remat[self.v.dense(vr)] {
                        Some(RematVal::Flt(imm)) => {
                            code.push(MInstr::FMovRI { fd: sc, imm })
                        }
                        _ => code.push(MInstr::FLd { fd: sc, mem: self.slot_mem(s) }),
                    }
                    sc
                }
            }
        }
    }

    /// Map a definition of `vr`: the register to write, plus the spill store
    /// to append afterwards.
    fn def_reg(&self, vr: Vr) -> (u8, Option<MInstr>) {
        match self.alloc.loc(vr) {
            Loc::Reg(r) => (r, None),
            Loc::Slot(s) => {
                if vr.is_int() {
                    (INT_SCRATCH[0], Some(MInstr::St { rs: INT_SCRATCH[0], mem: self.slot_mem(s) }))
                } else {
                    (FLT_SCRATCH[0], Some(MInstr::FSt { fs: FLT_SCRATCH[0], mem: self.slot_mem(s) }))
                }
            }
        }
    }

    /// Lower a virtual addressing mode, reloading spilled components.
    fn mem(&self, m: &VMem, code: &mut Vec<MInstr>) -> Mem {
        let base = m.base.map(|b| self.use_reg(b, 0, code));
        let index = m.index.map(|(i, s)| (self.use_reg(i, 1, code), s));
        Mem { base, index, disp: m.disp }
    }

    fn run(mut self) -> MFunction {
        let mut out = MFunction { name: self.v.name.clone(), blocks: Vec::new() };
        for (bi, block) in self.v.blocks.iter().enumerate() {
            let mut code: Vec<MInstr> = Vec::with_capacity(block.insts.len() * 2);
            if bi == 0 {
                self.emit_prologue(&mut code);
            }
            for inst in &block.insts {
                self.expand(inst, &mut code);
            }
            out.blocks.push(MBlock { insts: code });
        }
        out
    }

    fn emit_prologue(&mut self, code: &mut Vec<MInstr>) {
        code.push(MInstr::Push { rs: FP });
        code.push(MInstr::MovRR { rd: FP, ra: SP });
        for &r in &self.alloc.used_callee_int {
            code.push(MInstr::Push { rs: r });
        }
        let sub = self.frame_sub();
        if sub > 0 {
            code.push(MInstr::AluI { op: refine_machine::AluOp::Sub, rd: SP, ra: SP, imm: sub });
        }
        for (k, &f) in self.alloc.used_callee_flt.iter().enumerate() {
            code.push(MInstr::FSt { fs: f, mem: Mem::base_disp(FP, self.fsave_off(k as i64)) });
        }
        // Move parameters from ABI registers to their allocated homes.
        let mut int_i = 0usize;
        let mut flt_i = 0usize;
        let mut moves: Vec<(Loc, u8, bool)> = Vec::new(); // (dst, src phys, is_int)
        for &p in &self.v.params {
            if p.is_int() {
                moves.push((self.alloc.loc(p), abi::GPR_ARGS[int_i], true));
                int_i += 1;
            } else {
                moves.push((self.alloc.loc(p), abi::FPR_ARGS[flt_i], false));
                flt_i += 1;
            }
        }
        self.par_moves_from_phys(moves, code);
    }

    fn emit_epilogue(&self, code: &mut Vec<MInstr>) {
        for (k, &f) in self.alloc.used_callee_flt.iter().enumerate() {
            code.push(MInstr::FLd { fd: f, mem: Mem::base_disp(FP, self.fsave_off(k as i64)) });
        }
        let sub = self.frame_sub();
        if sub > 0 {
            code.push(MInstr::AluI { op: refine_machine::AluOp::Add, rd: SP, ra: SP, imm: sub });
        }
        for &r in self.alloc.used_callee_int.iter().rev() {
            code.push(MInstr::Pop { rd: r });
        }
        code.push(MInstr::Pop { rd: FP });
        code.push(MInstr::Ret);
    }

    /// Parallel moves with physical-register *destinations* (call argument
    /// setup). Sources may be registers or spill slots; register cycles are
    /// broken with the scratch register.
    fn par_moves_to_phys(&self, moves: Vec<(u8, Loc, bool)>, code: &mut Vec<MInstr>) {
        // Slot sources cannot be clobbered: emit them after all reg moves.
        let mut regmoves: Vec<(u8, u8, bool)> = Vec::new();
        let mut slotmoves: Vec<(u8, u32, bool)> = Vec::new();
        for (dst, src, is_int) in moves {
            match src {
                Loc::Reg(r) => {
                    if r != dst {
                        regmoves.push((dst, r, is_int));
                    }
                }
                Loc::Slot(s) => slotmoves.push((dst, s, is_int)),
            }
        }
        self.resolve_reg_cycles(&mut regmoves, code);
        for (dst, s, is_int) in slotmoves {
            if is_int {
                code.push(MInstr::Ld { rd: dst, mem: self.slot_mem(s) });
            } else {
                code.push(MInstr::FLd { fd: dst, mem: self.slot_mem(s) });
            }
        }
    }

    /// Parallel moves with physical-register *sources* (parameter landing).
    fn par_moves_from_phys(&self, moves: Vec<(Loc, u8, bool)>, code: &mut Vec<MInstr>) {
        // Slot destinations never clobber a source: emit them first.
        let mut regmoves: Vec<(u8, u8, bool)> = Vec::new();
        for (dst, src, is_int) in &moves {
            if let Loc::Slot(s) = dst {
                if *is_int {
                    code.push(MInstr::St { rs: *src, mem: self.slot_mem(*s) });
                } else {
                    code.push(MInstr::FSt { fs: *src, mem: self.slot_mem(*s) });
                }
            } else if let Loc::Reg(r) = dst {
                if r != src {
                    regmoves.push((*r, *src, *is_int));
                }
            }
        }
        self.resolve_reg_cycles(&mut regmoves, code);
    }

    /// Emit a set of parallel register-to-register moves (`(dst, src,
    /// is_int)`), breaking cycles with the class scratch register.
    fn resolve_reg_cycles(&self, moves: &mut Vec<(u8, u8, bool)>, code: &mut Vec<MInstr>) {
        let emit_mv = |dst: u8, src: u8, is_int: bool, code: &mut Vec<MInstr>| {
            if is_int {
                code.push(MInstr::MovRR { rd: dst, ra: src });
            } else {
                code.push(MInstr::FMovRR { fd: dst, fa: src });
            }
        };
        while !moves.is_empty() {
            // A move is safe when its destination is not a pending source
            // (same class).
            let safe = moves.iter().position(|&(dst, _, is_int)| {
                !moves.iter().any(|&(_, s, i2)| i2 == is_int && s == dst)
            });
            match safe {
                Some(i) => {
                    let (dst, src, is_int) = moves.remove(i);
                    emit_mv(dst, src, is_int, code);
                }
                None => {
                    // Cycle: stash one source in scratch and retarget its
                    // readers.
                    let (_, src, is_int) = moves[0];
                    let sc = if is_int { INT_SCRATCH[1] } else { FLT_SCRATCH[1] };
                    emit_mv(sc, src, is_int, code);
                    for m in moves.iter_mut() {
                        if m.2 == is_int && m.1 == src {
                            m.1 = sc;
                        }
                    }
                }
            }
        }
    }

    fn expand(&mut self, inst: &VInst, code: &mut Vec<MInstr>) {
        use MInstr as M;
        match inst {
            VInst::Mov { d, a } => {
                let (src, dst) = (self.alloc.loc(*a), self.alloc.loc(*d));
                match (dst, src) {
                    (Loc::Reg(rd), Loc::Reg(ra)) => code.push(M::MovRR { rd, ra }),
                    (Loc::Reg(rd), Loc::Slot(s)) => code.push(M::Ld { rd, mem: self.slot_mem(s) }),
                    (Loc::Slot(s), Loc::Reg(ra)) => code.push(M::St { rs: ra, mem: self.slot_mem(s) }),
                    (Loc::Slot(sd), Loc::Slot(ss)) => {
                        code.push(M::Ld { rd: INT_SCRATCH[0], mem: self.slot_mem(ss) });
                        code.push(M::St { rs: INT_SCRATCH[0], mem: self.slot_mem(sd) });
                    }
                }
            }
            VInst::FMov { d, a } => {
                let (src, dst) = (self.alloc.loc(*a), self.alloc.loc(*d));
                match (dst, src) {
                    (Loc::Reg(fd), Loc::Reg(fa)) => code.push(M::FMovRR { fd, fa }),
                    (Loc::Reg(fd), Loc::Slot(s)) => code.push(M::FLd { fd, mem: self.slot_mem(s) }),
                    (Loc::Slot(s), Loc::Reg(fa)) => code.push(M::FSt { fs: fa, mem: self.slot_mem(s) }),
                    (Loc::Slot(sd), Loc::Slot(ss)) => {
                        code.push(M::FLd { fd: FLT_SCRATCH[0], mem: self.slot_mem(ss) });
                        code.push(M::FSt { fs: FLT_SCRATCH[0], mem: self.slot_mem(sd) });
                    }
                }
            }
            VInst::MovI { d, imm } => {
                // Rematerialized vregs still get their defining store: other
                // expansion paths (register moves, call-argument loads,
                // return-value loads) read spill slots directly, so the slot
                // must always hold the value. Remat only replaces *reloads*
                // in `use_reg` with a cheaper immediate move.
                let (rd, post) = self.def_reg(*d);
                code.push(M::MovRI { rd, imm: *imm });
                code.extend(post);
            }
            VInst::FMovI { d, imm } => {
                let (fd, post) = self.def_reg(*d);
                code.push(M::FMovRI { fd, imm: *imm });
                code.extend(post);
            }
            VInst::Alu { op, d, a, b } => {
                let ra = self.use_reg(*a, 0, code);
                let rb = self.use_reg(*b, 1, code);
                let (rd, post) = self.def_reg(*d);
                code.push(M::Alu { op: *op, rd, ra, rb });
                code.extend(post);
            }
            VInst::AluI { op, d, a, imm } => {
                let ra = self.use_reg(*a, 0, code);
                let (rd, post) = self.def_reg(*d);
                code.push(M::AluI { op: *op, rd, ra, imm: *imm });
                code.extend(post);
            }
            VInst::Cmp { a, b } => {
                let ra = self.use_reg(*a, 0, code);
                let rb = self.use_reg(*b, 1, code);
                code.push(M::Cmp { ra, rb });
            }
            VInst::CmpI { a, imm } => {
                let ra = self.use_reg(*a, 0, code);
                code.push(M::CmpI { ra, imm: *imm });
            }
            VInst::SetCc { cc, d } => {
                let (rd, post) = self.def_reg(*d);
                code.push(M::SetCc { cc: *cc, rd });
                code.extend(post);
            }
            VInst::FAlu { op, d, a, b } => {
                let fa = self.use_reg(*a, 0, code);
                let fb = self.use_reg(*b, 1, code);
                let (fd, post) = self.def_reg(*d);
                code.push(M::FAlu { op: *op, fd, fa, fb });
                code.extend(post);
            }
            VInst::FCmp { a, b } => {
                let fa = self.use_reg(*a, 0, code);
                let fb = self.use_reg(*b, 1, code);
                code.push(M::FCmp { fa, fb });
            }
            VInst::Cvt { kind, d, s } => {
                let src = self.use_reg(*s, 0, code);
                let (dst, post) = self.def_reg(*d);
                code.push(M::Cvt { kind: *kind, dst, src });
                code.extend(post);
            }
            VInst::Ld { d, mem } => {
                let m = self.mem(mem, code);
                let (rd, post) = self.def_reg(*d);
                code.push(M::Ld { rd, mem: m });
                code.extend(post);
            }
            VInst::FLd { d, mem } => {
                let m = self.mem(mem, code);
                let (fd, post) = self.def_reg(*d);
                code.push(M::FLd { fd, mem: m });
                code.extend(post);
            }
            VInst::St { s, mem } => {
                // Worst case: spilled value + two spilled address parts
                // needs three integer temporaries; collapse the address
                // with lea first.
                let mem_spills = mem.base.map_or(0, |b| matches!(self.alloc.loc(b), Loc::Slot(_)) as u8)
                    + mem.index.map_or(0, |(i, _)| matches!(self.alloc.loc(i), Loc::Slot(_)) as u8);
                let val_spilled = matches!(self.alloc.loc(*s), Loc::Slot(_));
                if mem_spills == 2 && val_spilled {
                    let m = self.mem(mem, code);
                    code.push(M::Lea { rd: INT_SCRATCH[0], mem: m });
                    let Loc::Slot(vs) = self.alloc.loc(*s) else { unreachable!() };
                    code.push(M::Ld { rd: INT_SCRATCH[1], mem: self.slot_mem(vs) });
                    code.push(M::St {
                        rs: INT_SCRATCH[1],
                        mem: Mem::base_disp(INT_SCRATCH[0], 0),
                    });
                } else {
                    let m = self.mem(mem, code);
                    // The value can take whichever scratch the address did
                    // not use.
                    let which = if mem_spills == 1
                        && mem.base.is_some_and(|b| matches!(self.alloc.loc(b), Loc::Slot(_)))
                    {
                        1
                    } else {
                        0
                    };
                    let rs = self.use_reg(*s, which, code);
                    code.push(M::St { rs, mem: m });
                }
            }
            VInst::FSt { s, mem } => {
                let m = self.mem(mem, code);
                let fs = self.use_reg(*s, 0, code); // float scratch: no clash
                code.push(M::FSt { fs, mem: m });
            }
            VInst::Lea { d, mem } => {
                let m = self.mem(mem, code);
                let (rd, post) = self.def_reg(*d);
                code.push(M::Lea { rd, mem: m });
                code.extend(post);
            }
            VInst::FrameAddr { d, id } => {
                let (rd, post) = self.def_reg(*d);
                code.push(M::Lea { rd, mem: Mem::base_disp(FP, self.alloca_off(*id)) });
                code.extend(post);
            }
            VInst::Call { func, args, ret } => {
                self.expand_call_args(args, code);
                code.push(M::Call { target: *func });
                self.expand_call_ret(*ret, code);
            }
            VInst::RtCall { func, imm, args, ret } => {
                self.expand_call_args(args, code);
                code.push(M::CallRt { func: *func, imm: *imm });
                if let Some(r) = ret {
                    let res = func.result_reg().expect("rtcall with result");
                    self.move_from_result(res, *r, code);
                }
            }
            VInst::Jmp { bb } => code.push(M::Jmp { target: *bb }),
            VInst::Jcc { cc, bb } => code.push(M::Jcc { cc: *cc, target: *bb }),
            VInst::Ret { val } => {
                if let Some(v) = val {
                    match (v.is_int(), self.alloc.loc(*v)) {
                        (true, Loc::Reg(r)) => {
                            if r != abi::GPR_RET {
                                code.push(M::MovRR { rd: abi::GPR_RET, ra: r });
                            }
                        }
                        (true, Loc::Slot(s)) => {
                            code.push(M::Ld { rd: abi::GPR_RET, mem: self.slot_mem(s) })
                        }
                        (false, Loc::Reg(f)) => {
                            if f != abi::FPR_RET {
                                code.push(M::FMovRR { fd: abi::FPR_RET, fa: f });
                            }
                        }
                        (false, Loc::Slot(s)) => {
                            code.push(M::FLd { fd: abi::FPR_RET, mem: self.slot_mem(s) })
                        }
                    }
                }
                self.emit_epilogue(code);
            }
        }
    }

    fn expand_call_args(&self, args: &[Vr], code: &mut Vec<MInstr>) {
        let mut int_i = 0usize;
        let mut flt_i = 0usize;
        let mut moves: Vec<(u8, Loc, bool)> = Vec::new();
        for &a in args {
            if a.is_int() {
                assert!(int_i < abi::GPR_ARGS.len(), "too many integer arguments");
                moves.push((abi::GPR_ARGS[int_i], self.alloc.loc(a), true));
                int_i += 1;
            } else {
                assert!(flt_i < abi::FPR_ARGS.len(), "too many float arguments");
                moves.push((abi::FPR_ARGS[flt_i], self.alloc.loc(a), false));
                flt_i += 1;
            }
        }
        self.par_moves_to_phys(moves, code);
    }

    fn expand_call_ret(&self, ret: Option<Vr>, code: &mut Vec<MInstr>) {
        if let Some(r) = ret {
            let res = if r.is_int() {
                refine_machine::Reg::G(abi::GPR_RET)
            } else {
                refine_machine::Reg::F(abi::FPR_RET)
            };
            self.move_from_result(res, r, code);
        }
    }

    fn move_from_result(&self, res: refine_machine::Reg, dst: Vr, code: &mut Vec<MInstr>) {
        use MInstr as M;
        match (res, self.alloc.loc(dst)) {
            (refine_machine::Reg::G(src), Loc::Reg(rd)) => {
                if rd != src {
                    code.push(M::MovRR { rd, ra: src });
                }
            }
            (refine_machine::Reg::G(src), Loc::Slot(s)) => {
                code.push(M::St { rs: src, mem: self.slot_mem(s) })
            }
            (refine_machine::Reg::F(src), Loc::Reg(fd)) => {
                if fd != src {
                    code.push(M::FMovRR { fd, fa: src });
                }
            }
            (refine_machine::Reg::F(src), Loc::Slot(s)) => {
                code.push(M::FSt { fs: src, mem: self.slot_mem(s) })
            }
            (refine_machine::Reg::Flags, _) => unreachable!("flags are not a call result"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regalloc::allocate;
    use crate::vcode::VBlock;
    use refine_machine::AluOp;

    fn finalize_simple(blocks: Vec<Vec<VInst>>, n_int: u32, params: Vec<Vr>) -> MFunction {
        let mut f = VFunc {
            name: "t".into(),
            blocks: blocks.into_iter().map(|insts| VBlock { insts }).collect(),
            n_int,
            n_flt: 0,
            alloca_words: vec![],
            params,
        };
        let (ints, calls) = crate::liveness::analyze(&f);
        let alloc = allocate(&f, &ints, &calls);
        finalize(&mut f, &alloc)
    }

    #[test]
    fn prologue_and_epilogue_emitted() {
        let v0 = Vr::Int(0);
        let mf = finalize_simple(
            vec![vec![VInst::MovI { d: v0, imm: 1 }, VInst::Ret { val: Some(v0) }]],
            1,
            vec![],
        );
        let insts = &mf.blocks[0].insts;
        assert!(matches!(insts[0], MInstr::Push { rs } if rs == FP));
        assert!(matches!(insts[1], MInstr::MovRR { rd, ra } if rd == FP && ra == SP));
        assert!(matches!(insts.last(), Some(MInstr::Ret)));
        let pops = insts.iter().filter(|i| matches!(i, MInstr::Pop { .. })).count();
        assert!(pops >= 1, "fp restore missing");
    }

    #[test]
    fn spill_traffic_emitted_under_pressure() {
        // 20 simultaneously-live values force spills -> frame stores/loads.
        let mut insts: Vec<VInst> = (0..20)
            .map(|k| VInst::MovI { d: Vr::Int(k), imm: k as i64 })
            .collect();
        // Sum them all to keep them live.
        let acc = Vr::Int(20);
        insts.push(VInst::MovI { d: acc, imm: 0 });
        for k in 0..20 {
            insts.push(VInst::Alu { op: AluOp::Add, d: acc, a: acc, b: Vr::Int(k) });
        }
        insts.push(VInst::Ret { val: Some(acc) });
        let mf = finalize_simple(vec![insts], 21, vec![]);
        let has_spill_store = mf.blocks[0]
            .insts
            .iter()
            .any(|i| matches!(i, MInstr::St { mem, .. } if mem.base == Some(FP)));
        let has_spill_load = mf.blocks[0]
            .insts
            .iter()
            .any(|i| matches!(i, MInstr::Ld { mem, .. } if mem.base == Some(FP)));
        assert!(has_spill_store && has_spill_load, "expected spill traffic");
        // And the frame must be carved out.
        assert!(mf.blocks[0]
            .insts
            .iter()
            .any(|i| matches!(i, MInstr::AluI { op: AluOp::Sub, rd, .. } if *rd == SP)));
    }

    #[test]
    fn param_lands_from_abi_register() {
        let p = Vr::Int(0);
        let mf = finalize_simple(
            vec![vec![VInst::Ret { val: Some(p) }]],
            1,
            vec![p],
        );
        // Either p was allocated to r0 (no move) or a move/store from r0
        // exists.
        let uses_r0 = mf.blocks[0].insts.iter().any(|i| {
            matches!(i, MInstr::MovRR { ra: 0, .. })
                || matches!(i, MInstr::St { rs: 0, .. })
                || matches!(i, MInstr::Ret)
        });
        assert!(uses_r0);
    }

    #[test]
    fn parallel_move_cycles_resolved() {
        let f = Finalizer {
            v: Box::leak(Box::new(VFunc {
                name: "x".into(),
                blocks: vec![],
                n_int: 0,
                n_flt: 0,
                alloca_words: vec![],
                params: vec![],
            })),
            alloc: Box::leak(Box::new(Allocation::default())),
            nci: 0,
            ncf: 0,
            total_alloca: 0,
            alloca_cum: vec![],
            remat: Default::default(),
        };
        // swap r0 <-> r1
        let mut moves = vec![(0u8, 1u8, true), (1u8, 0u8, true)];
        let mut code = Vec::new();
        f.resolve_reg_cycles(&mut moves, &mut code);
        assert_eq!(code.len(), 3, "swap takes three moves via scratch");
        // Simulate to verify the swap is correct.
        let mut regs = [0i64; 16];
        regs[0] = 10;
        regs[1] = 20;
        for i in &code {
            if let MInstr::MovRR { rd, ra } = i {
                regs[*rd as usize] = regs[*ra as usize];
            }
        }
        assert_eq!(regs[0], 20);
        assert_eq!(regs[1], 10);
    }
}
