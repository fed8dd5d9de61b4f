//! Machine instructions over virtual registers ("VCode"), the pre-regalloc
//! backend representation.

use refine_machine::{AluOp, Cc, CvtKind, FAluOp, RtFunc};

/// A virtual register, typed by register class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Vr {
    /// Integer/pointer class (allocates to GPRs).
    Int(u32),
    /// Floating class (allocates to FPRs).
    Flt(u32),
}

impl Vr {
    /// Flat index into the per-class numbering.
    pub fn num(self) -> u32 {
        match self {
            Vr::Int(n) | Vr::Flt(n) => n,
        }
    }

    /// True for the integer class.
    pub fn is_int(self) -> bool {
        matches!(self, Vr::Int(_))
    }
}

/// A virtual addressing mode: `[base + index*scale + disp]`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct VMem {
    /// Base vreg (integer class).
    pub base: Option<Vr>,
    /// Scaled index: `(vreg, scale)`, scale in {1, 2, 4, 8}.
    pub index: Option<(Vr, u8)>,
    /// Byte displacement (absolute address when no base).
    pub disp: i64,
}

impl VMem {
    /// Absolute address.
    pub fn abs(disp: i64) -> VMem {
        VMem { base: None, index: None, disp }
    }

    /// Visit register operands.
    pub fn for_each_use(&self, f: &mut impl FnMut(Vr)) {
        if let Some(b) = self.base {
            f(b);
        }
        if let Some((i, _)) = self.index {
            f(i);
        }
    }
}

/// A VCode instruction: the M64 instruction set over virtual registers,
/// plus call/return/frame pseudo-instructions expanded after register
/// allocation.
///
/// Operand fields follow the standard naming convention (`rd`/`fd` =
/// destination register, `ra`/`rb`/`fa`/`fb` = sources, `imm` = immediate,
/// `mem` = addressing mode) and are not documented individually.
#[allow(missing_docs)]
#[derive(Debug, Clone, PartialEq)]
pub enum VInst {
    /// Integer register move.
    Mov { d: Vr, a: Vr },
    /// Integer immediate move.
    MovI { d: Vr, imm: i64 },
    /// Float register move.
    FMov { d: Vr, a: Vr },
    /// Float immediate move.
    FMovI { d: Vr, imm: u64 },
    /// Integer ALU, register-register.
    Alu { op: AluOp, d: Vr, a: Vr, b: Vr },
    /// Integer ALU, register-immediate.
    AluI { op: AluOp, d: Vr, a: Vr, imm: i64 },
    /// Integer compare (FLAGS).
    Cmp { a: Vr, b: Vr },
    /// Integer compare with immediate (FLAGS).
    CmpI { a: Vr, imm: i64 },
    /// Materialize a condition into a register.
    SetCc { cc: Cc, d: Vr },
    /// Float ALU.
    FAlu { op: FAluOp, d: Vr, a: Vr, b: Vr },
    /// Float compare (FLAGS).
    FCmp { a: Vr, b: Vr },
    /// Conversion between classes.
    Cvt { kind: CvtKind, d: Vr, s: Vr },
    /// Integer load.
    Ld { d: Vr, mem: VMem },
    /// Integer store.
    St { s: Vr, mem: VMem },
    /// Float load.
    FLd { d: Vr, mem: VMem },
    /// Float store.
    FSt { s: Vr, mem: VMem },
    /// Address materialization (no flags).
    Lea { d: Vr, mem: VMem },
    /// Address of the `id`-th alloca slot of this function (pseudo;
    /// resolved during frame layout).
    FrameAddr { d: Vr, id: u32 },
    /// Direct call (pseudo: ABI moves inserted at finalization). `func` is
    /// the IR function index.
    Call { func: u32, args: Vec<Vr>, ret: Option<Vr> },
    /// Runtime-library call (pseudo, same treatment: the C ABI clobbers
    /// caller-saved registers, which is what makes IR-level FI
    /// instrumentation expensive).
    RtCall { func: RtFunc, imm: u64, args: Vec<Vr>, ret: Option<Vr> },
    /// Unconditional branch to a VCode block.
    Jmp { bb: u32 },
    /// Conditional branch to a VCode block (falls through otherwise).
    Jcc { cc: Cc, bb: u32 },
    /// Function return (pseudo: return-value move + epilogue inserted at
    /// finalization).
    Ret { val: Option<Vr> },
}

impl VInst {
    /// Visit the registers read by this instruction, in operand order.
    pub fn for_each_use(&self, mut f: impl FnMut(Vr)) {
        match self {
            VInst::Mov { a, .. } | VInst::FMov { a, .. } => f(*a),
            VInst::MovI { .. } | VInst::FMovI { .. } => {}
            VInst::Alu { a, b, .. } | VInst::FAlu { a, b, .. } => {
                f(*a);
                f(*b);
            }
            VInst::AluI { a, .. } => f(*a),
            VInst::Cmp { a, b } | VInst::FCmp { a, b } => {
                f(*a);
                f(*b);
            }
            VInst::CmpI { a, .. } => f(*a),
            VInst::SetCc { .. } => {}
            VInst::Cvt { s, .. } => f(*s),
            VInst::Ld { mem, .. } | VInst::FLd { mem, .. } | VInst::Lea { mem, .. } => {
                mem.for_each_use(&mut f)
            }
            VInst::St { s, mem } | VInst::FSt { s, mem } => {
                f(*s);
                mem.for_each_use(&mut f);
            }
            VInst::FrameAddr { .. } => {}
            VInst::Call { args, .. } | VInst::RtCall { args, .. } => {
                args.iter().for_each(|&a| f(a))
            }
            VInst::Jmp { .. } | VInst::Jcc { .. } => {}
            VInst::Ret { val } => val.iter().for_each(|&v| f(v)),
        }
    }

    /// The register written by this instruction, if any.
    pub fn def(&self) -> Option<Vr> {
        match self {
            VInst::Mov { d, .. }
            | VInst::MovI { d, .. }
            | VInst::FMov { d, .. }
            | VInst::FMovI { d, .. }
            | VInst::Alu { d, .. }
            | VInst::AluI { d, .. }
            | VInst::SetCc { d, .. }
            | VInst::FAlu { d, .. }
            | VInst::Cvt { d, .. }
            | VInst::Ld { d, .. }
            | VInst::FLd { d, .. }
            | VInst::Lea { d, .. }
            | VInst::FrameAddr { d, .. } => Some(*d),
            VInst::Call { ret, .. } | VInst::RtCall { ret, .. } => *ret,
            _ => None,
        }
    }

    /// True for pseudo-instructions with C-ABI call semantics (clobber all
    /// caller-saved registers).
    pub fn is_call(&self) -> bool {
        matches!(self, VInst::Call { .. } | VInst::RtCall { .. })
    }
}

/// One VCode basic block.
#[derive(Debug, Clone, Default)]
pub struct VBlock {
    /// Instructions; the last is a terminator (`Jmp`/`Ret`), possibly
    /// preceded by a `Jcc`.
    pub insts: Vec<VInst>,
}

/// A function in VCode form.
#[derive(Debug, Clone)]
pub struct VFunc {
    /// Source-level function name.
    pub name: String,
    /// Blocks, index 0 = entry; layout order.
    pub blocks: Vec<VBlock>,
    /// Number of integer vregs.
    pub n_int: u32,
    /// Number of float vregs.
    pub n_flt: u32,
    /// Alloca slots: words per alloca, indexed by `FrameAddr.id`.
    pub alloca_words: Vec<u32>,
    /// Incoming parameters in order, as vregs (moved from ABI registers in
    /// the prologue during finalization).
    pub params: Vec<Vr>,
}

impl VFunc {
    /// Allocate a fresh integer vreg.
    pub fn new_int(&mut self) -> Vr {
        let v = Vr::Int(self.n_int);
        self.n_int += 1;
        v
    }

    /// Allocate a fresh float vreg.
    pub fn new_flt(&mut self) -> Vr {
        let v = Vr::Flt(self.n_flt);
        self.n_flt += 1;
        v
    }

    /// Dense index of a vreg of this function: integer vregs first, then
    /// float vregs (`0..n_int + n_flt`).
    pub fn dense(&self, v: Vr) -> usize {
        match v {
            Vr::Int(n) => n as usize,
            Vr::Flt(n) => (self.n_int + n) as usize,
        }
    }

    /// Every vreg of this function, in [`VFunc::dense`] order.
    pub fn vregs(&self) -> impl Iterator<Item = Vr> {
        (0..self.n_int).map(Vr::Int).chain((0..self.n_flt).map(Vr::Flt))
    }

    /// Successor blocks of block `b` (from its trailing branch instructions).
    pub fn successors(&self, b: usize) -> Vec<u32> {
        let mut s = Vec::new();
        for i in self.blocks[b].insts.iter().rev().take(2) {
            match i {
                VInst::Jmp { bb } => s.push(*bb),
                VInst::Jcc { bb, .. } => s.push(*bb),
                VInst::Ret { .. } => {}
                _ => break,
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uses_and_defs() {
        let v0 = Vr::Int(0);
        let v1 = Vr::Int(1);
        let v2 = Vr::Int(2);
        let uses = |i: &VInst| {
            let mut u = Vec::new();
            i.for_each_use(|v| u.push(v));
            u
        };
        let i = VInst::Alu { op: AluOp::Add, d: v2, a: v0, b: v1 };
        assert_eq!(uses(&i), vec![v0, v1]);
        assert_eq!(i.def(), Some(v2));

        let st = VInst::St {
            s: v0,
            mem: VMem { base: Some(v1), index: Some((v2, 8)), disp: 4 },
        };
        assert_eq!(uses(&st), vec![v0, v1, v2]);
        assert_eq!(st.def(), None);
    }

    #[test]
    fn call_semantics() {
        let c = VInst::Call { func: 0, args: vec![Vr::Int(1), Vr::Flt(0)], ret: Some(Vr::Int(2)) };
        assert!(c.is_call());
        let mut n_uses = 0;
        c.for_each_use(|_| n_uses += 1);
        assert_eq!(n_uses, 2);
        assert_eq!(c.def(), Some(Vr::Int(2)));
    }

    #[test]
    fn successors_from_terminators() {
        let mut f = VFunc {
            name: "t".into(),
            blocks: vec![VBlock::default(), VBlock::default(), VBlock::default()],
            n_int: 0,
            n_flt: 0,
            alloca_words: vec![],
            params: vec![],
        };
        f.blocks[0].insts = vec![
            VInst::Jcc { cc: Cc::E, bb: 2 },
            VInst::Jmp { bb: 1 },
        ];
        f.blocks[1].insts = vec![VInst::Ret { val: None }];
        let mut s = f.successors(0);
        s.sort();
        assert_eq!(s, vec![1, 2]);
        assert!(f.successors(1).is_empty());
    }
}
