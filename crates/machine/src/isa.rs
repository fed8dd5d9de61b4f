//! The M64 instruction set architecture.

/// Number of bits in the FLAGS register (ZF, LT, UN, OF). This is the width
/// reported to `setupFI` for the flags operand of flag-writing instructions.
pub const FLAGS_BITS: u32 = 4;

/// FLAGS bit positions.
pub mod flags {
    /// Zero flag: result was zero / compare equal.
    pub const ZF: u8 = 1 << 0;
    /// Less-than flag (signed compare / float ordered-less).
    pub const LT: u8 = 1 << 1;
    /// Unordered flag: set by `fcmp` when either operand is NaN.
    pub const UN: u8 = 1 << 2;
    /// Signed-overflow flag (integer add/sub).
    pub const OF: u8 = 1 << 3;
}

/// Index of the stack pointer in the GPR file.
pub const SP: u8 = 15;
/// Index of the frame pointer in the GPR file.
pub const FP: u8 = 14;

/// An architectural register: general-purpose, floating-point, or FLAGS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Reg {
    /// General-purpose register `r0..r15` (`r15` = sp, `r14` = fp).
    G(u8),
    /// Floating-point register `f0..f15`.
    F(u8),
    /// The 4-bit FLAGS register.
    Flags,
}

impl Reg {
    /// Bit width of the register for the fault model.
    pub fn bits(self) -> u32 {
        match self {
            Reg::Flags => FLAGS_BITS,
            _ => 64,
        }
    }

    /// Assembly name.
    pub fn name(self) -> String {
        match self {
            Reg::G(SP) => "sp".into(),
            Reg::G(FP) => "fp".into(),
            Reg::G(i) => format!("r{i}"),
            Reg::F(i) => format!("f{i}"),
            Reg::Flags => "flags".into(),
        }
    }
}

/// Argument and return registers of the M64 ABI. Which registers survive
/// a call is stated once, by the register allocator's caller- and
/// callee-saved sets (`refine_mir::regalloc`).
pub mod abi {
    /// GPRs used for the first integer/pointer arguments.
    pub const GPR_ARGS: [u8; 6] = [0, 1, 2, 3, 4, 5];
    /// FPRs used for the first floating arguments.
    pub const FPR_ARGS: [u8; 6] = [0, 1, 2, 3, 4, 5];
    /// Integer/pointer return register.
    pub const GPR_RET: u8 = 0;
    /// Floating return register.
    pub const FPR_RET: u8 = 0;
}

/// Integer ALU operations. All of them write FLAGS (like x64 arithmetic),
/// which doubles their FI output-operand count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Signed divide; `#DE` trap on zero divisor or `MIN/-1`.
    Div,
    /// Signed remainder; traps like [`AluOp::Div`].
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left (amount masked to 6 bits).
    Shl,
    /// Logical shift right.
    LShr,
    /// Arithmetic shift right.
    AShr,
}

/// Floating-point ALU operations (FLAGS untouched).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FAluOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (IEEE-754, no traps).
    Div,
    /// IEEE minimum.
    Min,
    /// IEEE maximum.
    Max,
}

/// Condition codes evaluated against FLAGS. Every code is false when the
/// unordered flag is set, which gives `fcmp` its ordered-comparison
/// semantics for free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cc {
    /// Equal (ZF).
    E,
    /// Not equal.
    Ne,
    /// Signed / ordered less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
}

impl Cc {
    /// Evaluate against a FLAGS byte.
    pub fn eval(self, f: u8) -> bool {
        let zf = f & flags::ZF != 0;
        let lt = f & flags::LT != 0;
        let un = f & flags::UN != 0;
        if un {
            return false;
        }
        match self {
            Cc::E => zf,
            Cc::Ne => !zf,
            Cc::Lt => lt,
            Cc::Le => lt || zf,
            Cc::Gt => !lt && !zf,
            Cc::Ge => !lt,
        }
    }

    /// The code that is true exactly when `self` is false (on ordered input).
    pub fn negate(self) -> Cc {
        match self {
            Cc::E => Cc::Ne,
            Cc::Ne => Cc::E,
            Cc::Lt => Cc::Ge,
            Cc::Le => Cc::Gt,
            Cc::Gt => Cc::Le,
            Cc::Ge => Cc::Lt,
        }
    }
}

/// Conversions between register files.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CvtKind {
    /// Signed integer (GPR) to f64 (FPR).
    SiToF,
    /// f64 (FPR) to signed integer (GPR), truncating.
    FToSi,
    /// Raw bit move GPR -> FPR.
    BitsToF,
    /// Raw bit move FPR -> GPR.
    FToBits,
}

/// A memory addressing mode: `[base + index*scale + disp]`, every component
/// optional. Instruction selection folds IR `getelementptr` chains into
/// this, which is precisely the address arithmetic IR-level FI cannot see.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Mem {
    /// Base register (GPR), or `None` for absolute addressing.
    pub base: Option<u8>,
    /// Optional scaled index: `(gpr, scale)`.
    pub index: Option<(u8, u8)>,
    /// Constant byte displacement.
    pub disp: i64,
}

impl Mem {
    /// Absolute address.
    pub fn abs(disp: i64) -> Mem {
        Mem { base: None, index: None, disp }
    }

    /// `[base + disp]`.
    pub fn base_disp(base: u8, disp: i64) -> Mem {
        Mem { base: Some(base), index: None, disp }
    }

    /// Assembly rendering.
    pub fn asm(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        if let Some(b) = self.base {
            parts.push(Reg::G(b).name());
        }
        if let Some((i, s)) = self.index {
            parts.push(format!("{}*{}", Reg::G(i).name(), s));
        }
        if self.disp != 0 || parts.is_empty() {
            parts.push(format!("{}", self.disp));
        }
        format!("[{}]", parts.join(" + "))
    }
}

/// Runtime (library) calls. `PrintStr`'s operand and the FI hooks' static
/// site data ride in the instruction immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RtFunc {
    /// Print `r0` as a 64-bit integer.
    PrintI64,
    /// Print `f0`.
    PrintF64,
    /// Print string literal `imm`.
    PrintStr,
    /// `f0 = sqrt(f0)`.
    Sqrt,
    /// `f0 = fabs(f0)`.
    Fabs,
    /// `f0 = exp(f0)`.
    Exp,
    /// `f0 = log(f0)`.
    Log,
    /// `f0 = sin(f0)`.
    Sin,
    /// `f0 = cos(f0)`.
    Cos,
    /// `f0 = floor(f0)`.
    Floor,
    /// `f0 = pow(f0, f1)`.
    Pow,
    /// `f0 = fmin(f0, f1)`.
    Fmin,
    /// `f0 = fmax(f0, f1)`.
    Fmax,
    /// REFINE FI library: `r0 = selInstr(site=imm)` (1 = inject now).
    FiSelInstr,
    /// REFINE FI library: `r0 = setupFI(nops/sizes packed in imm)`;
    /// returns `op | bit << 8`.
    FiSetupFi,
    /// LLFI runtime: `r0 = injectFault(site, r0, bits)`; site and the value
    /// width in bits are packed in the immediate (`site | bits << 48`).
    LlfiInjectI,
    /// LLFI runtime: `f0 = injectFault(site, f0, bits)`.
    LlfiInjectF,
}

impl RtFunc {
    /// The register holding the call's result, if any.
    pub fn result_reg(self) -> Option<Reg> {
        match self {
            RtFunc::PrintI64 | RtFunc::PrintF64 | RtFunc::PrintStr => None,
            RtFunc::FiSelInstr | RtFunc::FiSetupFi | RtFunc::LlfiInjectI => Some(Reg::G(0)),
            _ => Some(Reg::F(0)),
        }
    }

    /// True for the fault-injection control library entry points. These are
    /// modelled as register-preserving assembly stubs (only the result
    /// register is written), while ordinary runtime calls follow the full
    /// C ABI and clobber caller-saved registers.
    pub fn is_fi_hook(self) -> bool {
        matches!(
            self,
            RtFunc::FiSelInstr | RtFunc::FiSetupFi | RtFunc::LlfiInjectI | RtFunc::LlfiInjectF
        )
    }

    /// Extra cycle cost of servicing the call (on top of the call itself).
    pub fn cycles(self) -> u64 {
        match self {
            RtFunc::PrintI64 | RtFunc::PrintF64 | RtFunc::PrintStr => 40,
            RtFunc::Sqrt | RtFunc::Fabs | RtFunc::Fmin | RtFunc::Fmax | RtFunc::Floor => 8,
            RtFunc::Exp | RtFunc::Log | RtFunc::Sin | RtFunc::Cos | RtFunc::Pow => 25,
            // The REFINE library's selInstr is a counter increment + compare.
            RtFunc::FiSelInstr => 3,
            RtFunc::FiSetupFi => 8,
            // LLFI's injectFault is a full compiled C function with six
            // arguments, its own prologue/epilogue, a TLS dynamic-instruction
            // counter, fault-configuration checks and trace bookkeeping (see
            // the paper's Listing 2a) — runtime-call costs here stand for the
            // *callee's* execution, and this one is tens of instructions,
            // unlike REFINE's hand-written selInstr stub.
            RtFunc::LlfiInjectI | RtFunc::LlfiInjectF => 90,
        }
    }

    /// Symbolic name for disassembly.
    pub fn name(self) -> &'static str {
        match self {
            RtFunc::PrintI64 => "print_i64",
            RtFunc::PrintF64 => "print_f64",
            RtFunc::PrintStr => "print_str",
            RtFunc::Sqrt => "sqrt",
            RtFunc::Fabs => "fabs",
            RtFunc::Exp => "exp",
            RtFunc::Log => "log",
            RtFunc::Sin => "sin",
            RtFunc::Cos => "cos",
            RtFunc::Floor => "floor",
            RtFunc::Pow => "pow",
            RtFunc::Fmin => "fmin",
            RtFunc::Fmax => "fmax",
            RtFunc::FiSelInstr => "selInstr",
            RtFunc::FiSetupFi => "setupFI",
            RtFunc::LlfiInjectI => "injectFaultI",
            RtFunc::LlfiInjectF => "injectFaultF",
        }
    }
}

/// One machine instruction (final, physical-register form). `target` fields
/// are instruction indices into the text section.
///
/// Operand fields follow the standard naming convention (`rd`/`fd` =
/// destination register, `ra`/`rb`/`fa`/`fb` = sources, `imm` = immediate,
/// `mem` = addressing mode) and are not documented individually.
#[allow(missing_docs)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MInstr {
    /// `rd = ra` (GPR move; FLAGS untouched, like x64 `mov`).
    MovRR { rd: u8, ra: u8 },
    /// `rd = imm`.
    MovRI { rd: u8, imm: i64 },
    /// `fd = fa`.
    FMovRR { fd: u8, fa: u8 },
    /// `fd = bits(imm)`.
    FMovRI { fd: u8, imm: u64 },
    /// `rd = ra <op> rb`, FLAGS updated.
    Alu { op: AluOp, rd: u8, ra: u8, rb: u8 },
    /// `rd = ra <op> imm`, FLAGS updated.
    AluI { op: AluOp, rd: u8, ra: u8, imm: i64 },
    /// Compare `ra` with `rb` (FLAGS only).
    Cmp { ra: u8, rb: u8 },
    /// Compare `ra` with `imm` (FLAGS only).
    CmpI { ra: u8, imm: i64 },
    /// `rd = cc(FLAGS) ? 1 : 0` (FLAGS preserved).
    SetCc { cc: Cc, rd: u8 },
    /// `fd = fa <op> fb`.
    FAlu { op: FAluOp, fd: u8, fa: u8, fb: u8 },
    /// Ordered compare of `fa` and `fb` into FLAGS (UN set on NaN).
    FCmp { fa: u8, fb: u8 },
    /// Conversion between register files.
    Cvt { kind: CvtKind, dst: u8, src: u8 },
    /// GPR load: `rd = mem64[addr]`.
    Ld { rd: u8, mem: Mem },
    /// GPR store: `mem64[addr] = rs`.
    St { rs: u8, mem: Mem },
    /// FPR load.
    FLd { fd: u8, mem: Mem },
    /// FPR store.
    FSt { fs: u8, mem: Mem },
    /// Push GPR (`sp -= 8; mem[sp] = rs`).
    Push { rs: u8 },
    /// Pop GPR (`rd = mem[sp]; sp += 8`).
    Pop { rd: u8 },
    /// Unconditional jump to instruction index.
    Jmp { target: u32 },
    /// Conditional jump.
    Jcc { cc: Cc, target: u32 },
    /// Direct call: pushes the return instruction index, jumps.
    Call { target: u32 },
    /// Return: pops the return index into the PC; traps on a bad address.
    Ret,
    /// Runtime (library) call.
    CallRt { func: RtFunc, imm: u64 },
    /// `rd = FLAGS` (zero-extended), like `lahf`.
    RdFlags { rd: u8 },
    /// `FLAGS = rd & 0xf`, like `sahf`.
    WrFlags { rs: u8 },
    /// Flip bits of a FPR with a mask (REFINE's FI block for FPR operands;
    /// x64 would use `xorpd`).
    FXorI { fd: u8, imm: u64 },
    /// Stop the machine with exit code in `r0`.
    Halt,
    /// No operation (alignment/padding).
    Nop,
    /// `rd = effective address of mem` (no memory access, FLAGS untouched),
    /// like x64 `lea`. Used for frame addresses and folded pointer math.
    Lea { rd: u8, mem: Mem },
}

impl MInstr {
    /// Base cycle cost of the instruction (runtime calls add
    /// [`RtFunc::cycles`]).
    pub fn cycles(&self) -> u64 {
        match self {
            MInstr::MovRR { .. }
            | MInstr::MovRI { .. }
            | MInstr::FMovRR { .. }
            | MInstr::FMovRI { .. }
            | MInstr::SetCc { .. }
            | MInstr::Cmp { .. }
            | MInstr::CmpI { .. }
            | MInstr::FCmp { .. }
            | MInstr::Cvt { .. }
            | MInstr::RdFlags { .. }
            | MInstr::WrFlags { .. }
            | MInstr::FXorI { .. }
            | MInstr::Jmp { .. }
            | MInstr::Jcc { .. }
            | MInstr::Halt
            | MInstr::Lea { .. }
            | MInstr::Nop => 1,
            MInstr::Alu { op, .. } | MInstr::AluI { op, .. } => match op {
                AluOp::Mul => 3,
                AluOp::Div | AluOp::Rem => 20,
                _ => 1,
            },
            MInstr::FAlu { op, .. } => match op {
                FAluOp::Div => 20,
                _ => 2,
            },
            MInstr::Ld { .. } | MInstr::St { .. } | MInstr::FLd { .. } | MInstr::FSt { .. } => 2,
            MInstr::Push { .. } | MInstr::Pop { .. } => 2,
            MInstr::Call { .. } | MInstr::Ret => 2,
            MInstr::CallRt { func, .. } => 2 + func.cycles(),
        }
    }

    /// True for instructions that touch the stack implicitly (the paper's
    /// `stack` instruction class for `-fi-instrs`).
    pub fn is_stack_class(&self) -> bool {
        match self {
            MInstr::Push { .. } | MInstr::Pop { .. } => true,
            MInstr::Alu { rd, .. } | MInstr::AluI { rd, .. } => *rd == SP || *rd == FP,
            MInstr::MovRR { rd, .. } | MInstr::MovRI { rd, .. } => *rd == SP || *rd == FP,
            MInstr::Lea { rd, .. } => *rd == SP || *rd == FP,
            _ => false,
        }
    }

    /// True for explicit memory traffic (the `mem` class).
    pub fn is_mem_class(&self) -> bool {
        matches!(
            self,
            MInstr::Ld { .. } | MInstr::St { .. } | MInstr::FLd { .. } | MInstr::FSt { .. }
        )
    }

    /// True for arithmetic (the `arithm` class).
    pub fn is_arith_class(&self) -> bool {
        matches!(
            self,
            MInstr::Alu { .. }
                | MInstr::AluI { .. }
                | MInstr::FAlu { .. }
                | MInstr::Cmp { .. }
                | MInstr::CmpI { .. }
                | MInstr::FCmp { .. }
                | MInstr::Cvt { .. }
                | MInstr::SetCc { .. }
        ) && !self.is_stack_class()
    }

    /// The bare opcode mnemonic (the first token of [`MInstr::asm`]),
    /// used to label injection sites in per-trial trace records.
    pub fn mnemonic(&self) -> &'static str {
        let cc = |cc: &Cc, names: [&'static str; 6]| match cc {
            Cc::E => names[0],
            Cc::Ne => names[1],
            Cc::Lt => names[2],
            Cc::Le => names[3],
            Cc::Gt => names[4],
            Cc::Ge => names[5],
        };
        match self {
            MInstr::MovRR { .. } | MInstr::MovRI { .. } | MInstr::Ld { .. } | MInstr::St { .. } => {
                "mov"
            }
            MInstr::FMovRR { .. } | MInstr::FMovRI { .. } => "fmov",
            MInstr::Alu { op, .. } | MInstr::AluI { op, .. } => match op {
                AluOp::Add => "add",
                AluOp::Sub => "sub",
                AluOp::Mul => "mul",
                AluOp::Div => "div",
                AluOp::Rem => "rem",
                AluOp::And => "and",
                AluOp::Or => "or",
                AluOp::Xor => "xor",
                AluOp::Shl => "shl",
                AluOp::LShr => "lshr",
                AluOp::AShr => "ashr",
            },
            MInstr::Cmp { .. } | MInstr::CmpI { .. } => "cmp",
            MInstr::SetCc { cc: c, .. } => {
                cc(c, ["sete", "setne", "setlt", "setle", "setgt", "setge"])
            }
            MInstr::FAlu { op, .. } => match op {
                FAluOp::Add => "fadd",
                FAluOp::Sub => "fsub",
                FAluOp::Mul => "fmul",
                FAluOp::Div => "fdiv",
                FAluOp::Min => "fmin",
                FAluOp::Max => "fmax",
            },
            MInstr::FCmp { .. } => "fcmp",
            MInstr::Cvt { kind, .. } => match kind {
                CvtKind::SiToF => "cvtsi2sd",
                CvtKind::FToSi => "cvttsd2si",
                CvtKind::BitsToF | CvtKind::FToBits => "movq",
            },
            MInstr::FLd { .. } | MInstr::FSt { .. } => "movsd",
            MInstr::Push { .. } => "push",
            MInstr::Pop { .. } => "pop",
            MInstr::Jmp { .. } => "jmp",
            MInstr::Jcc { cc: c, .. } => cc(c, ["je", "jne", "jlt", "jle", "jgt", "jge"]),
            MInstr::Call { .. } | MInstr::CallRt { .. } => "call",
            MInstr::Ret => "ret",
            MInstr::RdFlags { .. } => "rdflags",
            MInstr::WrFlags { .. } => "wrflags",
            MInstr::FXorI { .. } => "xorpd",
            MInstr::Halt => "halt",
            MInstr::Nop => "nop",
            MInstr::Lea { .. } => "lea",
        }
    }

    /// Short mnemonic + operands for disassembly listings.
    pub fn asm(&self) -> String {
        fn g(i: u8) -> String {
            Reg::G(i).name()
        }
        fn f(i: u8) -> String {
            Reg::F(i).name()
        }
        match self {
            MInstr::MovRR { rd, ra } => format!("mov {}, {}", g(*rd), g(*ra)),
            MInstr::MovRI { rd, imm } => format!("mov {}, {}", g(*rd), imm),
            MInstr::FMovRR { fd, fa } => format!("fmov {}, {}", f(*fd), f(*fa)),
            MInstr::FMovRI { fd, imm } => {
                format!("fmov {}, {:?}", f(*fd), f64::from_bits(*imm))
            }
            MInstr::Alu { op, rd, ra, rb } => {
                format!("{:?} {}, {}, {}", op, g(*rd), g(*ra), g(*rb)).to_lowercase()
            }
            MInstr::AluI { op, rd, ra, imm } => {
                format!("{:?} {}, {}, {}", op, g(*rd), g(*ra), imm).to_lowercase()
            }
            MInstr::Cmp { ra, rb } => format!("cmp {}, {}", g(*ra), g(*rb)),
            MInstr::CmpI { ra, imm } => format!("cmp {}, {}", g(*ra), imm),
            MInstr::SetCc { cc, rd } => format!("set{:?} {}", cc, g(*rd)).to_lowercase(),
            MInstr::FAlu { op, fd, fa, fb } => {
                format!("f{:?} {}, {}, {}", op, f(*fd), f(*fa), f(*fb)).to_lowercase()
            }
            MInstr::FCmp { fa, fb } => format!("fcmp {}, {}", f(*fa), f(*fb)),
            MInstr::Cvt { kind, dst, src } => match kind {
                CvtKind::SiToF => format!("cvtsi2sd {}, {}", f(*dst), g(*src)),
                CvtKind::FToSi => format!("cvttsd2si {}, {}", g(*dst), f(*src)),
                CvtKind::BitsToF => format!("movq {}, {}", f(*dst), g(*src)),
                CvtKind::FToBits => format!("movq {}, {}", g(*dst), f(*src)),
            },
            MInstr::Ld { rd, mem } => format!("mov {}, qword ptr {}", g(*rd), mem.asm()),
            MInstr::St { rs, mem } => format!("mov qword ptr {}, {}", mem.asm(), g(*rs)),
            MInstr::FLd { fd, mem } => format!("movsd {}, qword ptr {}", f(*fd), mem.asm()),
            MInstr::FSt { fs, mem } => format!("movsd qword ptr {}, {}", mem.asm(), f(*fs)),
            MInstr::Push { rs } => format!("push {}", g(*rs)),
            MInstr::Pop { rd } => format!("pop {}", g(*rd)),
            MInstr::Jmp { target } => format!("jmp .L{target}"),
            MInstr::Jcc { cc, target } => format!("j{:?} .L{target}", cc).to_lowercase(),
            MInstr::Call { target } => format!("call .L{target}"),
            MInstr::Ret => "ret".into(),
            MInstr::CallRt { func, .. } => format!("call _{}", func.name()),
            MInstr::RdFlags { rd } => format!("rdflags {}", g(*rd)),
            MInstr::WrFlags { rs } => format!("wrflags {}", g(*rs)),
            MInstr::FXorI { fd, imm } => format!("xorpd {}, {:#x}", f(*fd), imm),
            MInstr::Halt => "halt".into(),
            MInstr::Nop => "nop".into(),
            MInstr::Lea { rd, mem } => format!("lea {}, {}", g(*rd), mem.asm()),
        }
    }
}

/// The FI target population predicate shared by REFINE's backend pass, the
/// PINFI probe, and both profilers: the output operands (registers written)
/// of one machine instruction, with their bit widths.
///
/// Keeping this in one place is what guarantees — by construction — that
/// REFINE and PINFI sample the *same* dynamic instruction population, the
/// property behind the paper's Table 5 (REFINE is never significantly
/// different from PINFI).
pub fn fi_outputs(i: &MInstr) -> Vec<(Reg, u32)> {
    // Allocates only for FI targets.
    let mut out = Vec::new();
    match i {
        MInstr::MovRR { rd, .. } | MInstr::MovRI { rd, .. } => out.push((Reg::G(*rd), 64)),
        MInstr::FMovRR { fd, .. } | MInstr::FMovRI { fd, .. } => out.push((Reg::F(*fd), 64)),
        MInstr::Alu { rd, .. } | MInstr::AluI { rd, .. } => {
            out.push((Reg::G(*rd), 64));
            out.push((Reg::Flags, FLAGS_BITS));
        }
        MInstr::Cmp { .. } | MInstr::CmpI { .. } | MInstr::FCmp { .. } => {
            out.push((Reg::Flags, FLAGS_BITS));
        }
        MInstr::SetCc { rd, .. } => out.push((Reg::G(*rd), 64)),
        MInstr::FAlu { fd, .. } => out.push((Reg::F(*fd), 64)),
        MInstr::Cvt { kind, dst, .. } => match kind {
            CvtKind::SiToF | CvtKind::BitsToF => out.push((Reg::F(*dst), 64)),
            CvtKind::FToSi | CvtKind::FToBits => out.push((Reg::G(*dst), 64)),
        },
        MInstr::Ld { rd, .. } => out.push((Reg::G(*rd), 64)),
        MInstr::FLd { fd, .. } => out.push((Reg::F(*fd), 64)),
        // Stores write no register: not FI targets under a destination-
        // register fault model (same choice as PINFI).
        MInstr::St { .. } | MInstr::FSt { .. } => {}
        MInstr::Push { .. } => out.push((Reg::G(SP), 64)),
        MInstr::Pop { rd } => {
            out.push((Reg::G(*rd), 64));
            out.push((Reg::G(SP), 64));
        }
        // Control transfers are not targets under the destination-register
        // fault model (PINFI likewise only instruments instructions that
        // write destination registers) — and compiler-side instrumentation
        // cannot insert code "after" a ret. Excluding them here keeps the
        // REFINE and PINFI populations identical by construction.
        MInstr::Call { .. } | MInstr::Ret => {}
        MInstr::CallRt { func, .. } => {
            if let Some(r) = func.result_reg() {
                // The FI control library itself is never a fault target.
                if !func.is_fi_hook() {
                    out.push((r, 64));
                }
            }
        }
        MInstr::RdFlags { rd } => out.push((Reg::G(*rd), 64)),
        MInstr::WrFlags { .. } => out.push((Reg::Flags, FLAGS_BITS)),
        MInstr::FXorI { fd, .. } => out.push((Reg::F(*fd), 64)),
        MInstr::Jmp { .. } | MInstr::Jcc { .. } | MInstr::Halt | MInstr::Nop => {}
        MInstr::Lea { rd, .. } => out.push((Reg::G(*rd), 64)),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The mnemonic is the first token of the disassembly for every
    /// instruction shape, operation and condition code.
    #[test]
    fn mnemonic_is_first_asm_token() {
        let ccs = [Cc::E, Cc::Ne, Cc::Lt, Cc::Le, Cc::Gt, Cc::Ge];
        let alus = [
            AluOp::Add,
            AluOp::Sub,
            AluOp::Mul,
            AluOp::Div,
            AluOp::Rem,
            AluOp::And,
            AluOp::Or,
            AluOp::Xor,
            AluOp::Shl,
            AluOp::LShr,
            AluOp::AShr,
        ];
        let faluops =
            [FAluOp::Add, FAluOp::Sub, FAluOp::Mul, FAluOp::Div, FAluOp::Min, FAluOp::Max];
        let cvts = [CvtKind::SiToF, CvtKind::FToSi, CvtKind::BitsToF, CvtKind::FToBits];
        let mem = Mem::base_disp(FP, -8);
        let mut all = vec![
            MInstr::MovRR { rd: 1, ra: 2 },
            MInstr::MovRI { rd: 1, imm: -3 },
            MInstr::FMovRR { fd: 1, fa: 2 },
            MInstr::FMovRI { fd: 1, imm: 1.5f64.to_bits() },
            MInstr::Cmp { ra: 1, rb: 2 },
            MInstr::CmpI { ra: 1, imm: 4 },
            MInstr::FCmp { fa: 1, fb: 2 },
            MInstr::Ld { rd: 1, mem },
            MInstr::St { rs: 1, mem },
            MInstr::FLd { fd: 1, mem },
            MInstr::FSt { fs: 1, mem },
            MInstr::Push { rs: 1 },
            MInstr::Pop { rd: 1 },
            MInstr::Jmp { target: 7 },
            MInstr::Call { target: 7 },
            MInstr::Ret,
            MInstr::CallRt { func: RtFunc::Sqrt, imm: 0 },
            MInstr::RdFlags { rd: 1 },
            MInstr::WrFlags { rs: 1 },
            MInstr::FXorI { fd: 1, imm: 1 << 63 },
            MInstr::Halt,
            MInstr::Nop,
            MInstr::Lea { rd: 1, mem },
        ];
        all.extend(alus.iter().map(|&op| MInstr::Alu { op, rd: 1, ra: 2, rb: 3 }));
        all.extend(alus.iter().map(|&op| MInstr::AluI { op, rd: 1, ra: 2, imm: 5 }));
        all.extend(faluops.iter().map(|&op| MInstr::FAlu { op, fd: 1, fa: 2, fb: 3 }));
        all.extend(cvts.iter().map(|&kind| MInstr::Cvt { kind, dst: 1, src: 2 }));
        all.extend(ccs.iter().map(|&cc| MInstr::SetCc { cc, rd: 1 }));
        all.extend(ccs.iter().map(|&cc| MInstr::Jcc { cc, target: 7 }));
        for i in all {
            assert_eq!(i.asm().split_whitespace().next(), Some(i.mnemonic()), "{i:?}");
        }
    }

    #[test]
    fn cc_eval_ordered() {
        let eq = flags::ZF;
        let lt = flags::LT;
        let gt = 0u8;
        assert!(Cc::E.eval(eq) && !Cc::E.eval(lt) && !Cc::E.eval(gt));
        assert!(Cc::Lt.eval(lt) && !Cc::Lt.eval(eq));
        assert!(Cc::Le.eval(lt) && Cc::Le.eval(eq) && !Cc::Le.eval(gt));
        assert!(Cc::Gt.eval(gt) && !Cc::Gt.eval(eq));
        assert!(Cc::Ge.eval(gt) && Cc::Ge.eval(eq) && !Cc::Ge.eval(lt));
        assert!(Cc::Ne.eval(lt) && !Cc::Ne.eval(eq));
    }

    #[test]
    fn cc_unordered_always_false() {
        let un = flags::UN;
        for cc in [Cc::E, Cc::Ne, Cc::Lt, Cc::Le, Cc::Gt, Cc::Ge] {
            assert!(!cc.eval(un), "{cc:?} must be false on unordered");
        }
    }

    #[test]
    fn cc_negation() {
        for cc in [Cc::E, Cc::Ne, Cc::Lt, Cc::Le, Cc::Gt, Cc::Ge] {
            for f in [flags::ZF, flags::LT, 0u8] {
                assert_ne!(cc.eval(f), cc.negate().eval(f), "{cc:?} on {f:#x}");
            }
        }
    }

    #[test]
    fn alu_has_two_fi_outputs() {
        let i = MInstr::Alu { op: AluOp::Add, rd: 3, ra: 1, rb: 2 };
        let outs = fi_outputs(&i);
        assert_eq!(outs.len(), 2);
        assert_eq!(outs[0], (Reg::G(3), 64));
        assert_eq!(outs[1], (Reg::Flags, FLAGS_BITS));
    }

    #[test]
    fn stores_and_branches_are_not_targets() {
        assert!(fi_outputs(&MInstr::St { rs: 1, mem: Mem::abs(0) }).is_empty());
        assert!(fi_outputs(&MInstr::Jmp { target: 0 }).is_empty());
        assert!(fi_outputs(&MInstr::Jcc { cc: Cc::E, target: 0 }).is_empty());
    }

    #[test]
    fn fi_hooks_are_not_targets() {
        let i = MInstr::CallRt { func: RtFunc::FiSelInstr, imm: 0 };
        assert!(fi_outputs(&i).is_empty());
        let j = MInstr::CallRt { func: RtFunc::Sqrt, imm: 0 };
        assert_eq!(fi_outputs(&j), vec![(Reg::F(0), 64)]);
    }

    #[test]
    fn instruction_classes() {
        assert!(MInstr::Push { rs: 1 }.is_stack_class());
        assert!(MInstr::AluI { op: AluOp::Sub, rd: SP, ra: SP, imm: 32 }.is_stack_class());
        assert!(MInstr::Ld { rd: 0, mem: Mem::abs(8) }.is_mem_class());
        assert!(MInstr::FAlu { op: FAluOp::Mul, fd: 0, fa: 1, fb: 2 }.is_arith_class());
        assert!(!MInstr::AluI { op: AluOp::Sub, rd: SP, ra: SP, imm: 32 }.is_arith_class());
    }

    #[test]
    fn cycle_costs_ordered_sensibly() {
        let add = MInstr::Alu { op: AluOp::Add, rd: 0, ra: 0, rb: 1 }.cycles();
        let div = MInstr::Alu { op: AluOp::Div, rd: 0, ra: 0, rb: 1 }.cycles();
        let ld = MInstr::Ld { rd: 0, mem: Mem::abs(0) }.cycles();
        assert!(add < ld && ld < div);
    }

    #[test]
    fn mem_asm_rendering() {
        assert_eq!(Mem::abs(64).asm(), "[64]");
        assert_eq!(Mem::base_disp(FP, -8).asm(), "[fp + -8]");
        let m = Mem { base: Some(1), index: Some((2, 8)), disp: 16 };
        assert_eq!(m.asm(), "[r1 + r2*8 + 16]");
    }
}
