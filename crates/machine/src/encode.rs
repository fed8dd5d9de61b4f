//! Fixed-width binary encoding of M64 instructions.
//!
//! Every instruction is two 64-bit words: a packed opcode/register word and
//! an immediate word. The encoding exists so that the "binary" the linker
//! produces is a real byte artifact a binary-level tool can decode, and so
//! the encode/decode round trip can be property-tested.

use crate::isa::{AluOp, Cc, CvtKind, FAluOp, MInstr, Mem, RtFunc};

/// Errors decoding an instruction word pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

const NO_REG: u8 = 0xFF;

fn alu_u8(op: AluOp) -> u8 {
    match op {
        AluOp::Add => 0,
        AluOp::Sub => 1,
        AluOp::Mul => 2,
        AluOp::Div => 3,
        AluOp::Rem => 4,
        AluOp::And => 5,
        AluOp::Or => 6,
        AluOp::Xor => 7,
        AluOp::Shl => 8,
        AluOp::LShr => 9,
        AluOp::AShr => 10,
    }
}

fn u8_alu(v: u8) -> Result<AluOp, DecodeError> {
    Ok(match v {
        0 => AluOp::Add,
        1 => AluOp::Sub,
        2 => AluOp::Mul,
        3 => AluOp::Div,
        4 => AluOp::Rem,
        5 => AluOp::And,
        6 => AluOp::Or,
        7 => AluOp::Xor,
        8 => AluOp::Shl,
        9 => AluOp::LShr,
        10 => AluOp::AShr,
        _ => return Err(DecodeError(format!("bad alu op {v}"))),
    })
}

fn falu_u8(op: FAluOp) -> u8 {
    match op {
        FAluOp::Add => 0,
        FAluOp::Sub => 1,
        FAluOp::Mul => 2,
        FAluOp::Div => 3,
        FAluOp::Min => 4,
        FAluOp::Max => 5,
    }
}

fn u8_falu(v: u8) -> Result<FAluOp, DecodeError> {
    Ok(match v {
        0 => FAluOp::Add,
        1 => FAluOp::Sub,
        2 => FAluOp::Mul,
        3 => FAluOp::Div,
        4 => FAluOp::Min,
        5 => FAluOp::Max,
        _ => return Err(DecodeError(format!("bad falu op {v}"))),
    })
}

fn cc_u8(cc: Cc) -> u8 {
    match cc {
        Cc::E => 0,
        Cc::Ne => 1,
        Cc::Lt => 2,
        Cc::Le => 3,
        Cc::Gt => 4,
        Cc::Ge => 5,
    }
}

fn u8_cc(v: u8) -> Result<Cc, DecodeError> {
    Ok(match v {
        0 => Cc::E,
        1 => Cc::Ne,
        2 => Cc::Lt,
        3 => Cc::Le,
        4 => Cc::Gt,
        5 => Cc::Ge,
        _ => return Err(DecodeError(format!("bad cc {v}"))),
    })
}

fn cvt_u8(k: CvtKind) -> u8 {
    match k {
        CvtKind::SiToF => 0,
        CvtKind::FToSi => 1,
        CvtKind::BitsToF => 2,
        CvtKind::FToBits => 3,
    }
}

fn u8_cvt(v: u8) -> Result<CvtKind, DecodeError> {
    Ok(match v {
        0 => CvtKind::SiToF,
        1 => CvtKind::FToSi,
        2 => CvtKind::BitsToF,
        3 => CvtKind::FToBits,
        _ => return Err(DecodeError(format!("bad cvt {v}"))),
    })
}

fn rt_u8(f: RtFunc) -> u8 {
    match f {
        RtFunc::PrintI64 => 0,
        RtFunc::PrintF64 => 1,
        RtFunc::PrintStr => 2,
        RtFunc::Sqrt => 3,
        RtFunc::Fabs => 4,
        RtFunc::Exp => 5,
        RtFunc::Log => 6,
        RtFunc::Sin => 7,
        RtFunc::Cos => 8,
        RtFunc::Floor => 9,
        RtFunc::Pow => 10,
        RtFunc::Fmin => 11,
        RtFunc::Fmax => 12,
        RtFunc::FiSelInstr => 13,
        RtFunc::FiSetupFi => 14,
        RtFunc::LlfiInjectI => 15,
        RtFunc::LlfiInjectF => 16,
    }
}

fn u8_rt(v: u8) -> Result<RtFunc, DecodeError> {
    Ok(match v {
        0 => RtFunc::PrintI64,
        1 => RtFunc::PrintF64,
        2 => RtFunc::PrintStr,
        3 => RtFunc::Sqrt,
        4 => RtFunc::Fabs,
        5 => RtFunc::Exp,
        6 => RtFunc::Log,
        7 => RtFunc::Sin,
        8 => RtFunc::Cos,
        9 => RtFunc::Floor,
        10 => RtFunc::Pow,
        11 => RtFunc::Fmin,
        12 => RtFunc::Fmax,
        13 => RtFunc::FiSelInstr,
        14 => RtFunc::FiSetupFi,
        15 => RtFunc::LlfiInjectI,
        16 => RtFunc::LlfiInjectF,
        _ => return Err(DecodeError(format!("bad rtfunc {v}"))),
    })
}

fn pack(op: u16, b: [u8; 6]) -> u64 {
    (op as u64)
        | (b[0] as u64) << 16
        | (b[1] as u64) << 24
        | (b[2] as u64) << 32
        | (b[3] as u64) << 40
        | (b[4] as u64) << 48
        | (b[5] as u64) << 56
}

fn unpack(w: u64) -> (u16, [u8; 6]) {
    (
        w as u16,
        [
            (w >> 16) as u8,
            (w >> 24) as u8,
            (w >> 32) as u8,
            (w >> 40) as u8,
            (w >> 48) as u8,
            (w >> 56) as u8,
        ],
    )
}

fn mem_bytes(m: &Mem) -> [u8; 3] {
    [
        m.base.unwrap_or(NO_REG),
        m.index.map(|(r, _)| r).unwrap_or(NO_REG),
        m.index.map(|(_, s)| s).unwrap_or(0),
    ]
}

/// Encode one instruction to its two-word form.
pub fn encode(i: &MInstr) -> (u64, u64) {
    match i {
        MInstr::Nop => (pack(0, [0; 6]), 0),
        MInstr::MovRR { rd, ra } => (pack(1, [*rd, *ra, 0, 0, 0, 0]), 0),
        MInstr::MovRI { rd, imm } => (pack(2, [*rd, 0, 0, 0, 0, 0]), *imm as u64),
        MInstr::FMovRR { fd, fa } => (pack(3, [*fd, *fa, 0, 0, 0, 0]), 0),
        MInstr::FMovRI { fd, imm } => (pack(4, [*fd, 0, 0, 0, 0, 0]), *imm),
        MInstr::Alu { op, rd, ra, rb } => (pack(5, [alu_u8(*op), *rd, *ra, *rb, 0, 0]), 0),
        MInstr::AluI { op, rd, ra, imm } => {
            (pack(6, [alu_u8(*op), *rd, *ra, 0, 0, 0]), *imm as u64)
        }
        MInstr::Cmp { ra, rb } => (pack(7, [*ra, *rb, 0, 0, 0, 0]), 0),
        MInstr::CmpI { ra, imm } => (pack(8, [*ra, 0, 0, 0, 0, 0]), *imm as u64),
        MInstr::SetCc { cc, rd } => (pack(9, [cc_u8(*cc), *rd, 0, 0, 0, 0]), 0),
        MInstr::FAlu { op, fd, fa, fb } => (pack(10, [falu_u8(*op), *fd, *fa, *fb, 0, 0]), 0),
        MInstr::FCmp { fa, fb } => (pack(11, [*fa, *fb, 0, 0, 0, 0]), 0),
        MInstr::Cvt { kind, dst, src } => (pack(12, [cvt_u8(*kind), *dst, *src, 0, 0, 0]), 0),
        MInstr::Ld { rd, mem } => {
            let mb = mem_bytes(mem);
            (pack(13, [*rd, mb[0], mb[1], mb[2], 0, 0]), mem.disp as u64)
        }
        MInstr::St { rs, mem } => {
            let mb = mem_bytes(mem);
            (pack(14, [*rs, mb[0], mb[1], mb[2], 0, 0]), mem.disp as u64)
        }
        MInstr::FLd { fd, mem } => {
            let mb = mem_bytes(mem);
            (pack(15, [*fd, mb[0], mb[1], mb[2], 0, 0]), mem.disp as u64)
        }
        MInstr::FSt { fs, mem } => {
            let mb = mem_bytes(mem);
            (pack(16, [*fs, mb[0], mb[1], mb[2], 0, 0]), mem.disp as u64)
        }
        MInstr::Push { rs } => (pack(17, [*rs, 0, 0, 0, 0, 0]), 0),
        MInstr::Pop { rd } => (pack(18, [*rd, 0, 0, 0, 0, 0]), 0),
        MInstr::Jmp { target } => (pack(19, [0; 6]), *target as u64),
        MInstr::Jcc { cc, target } => (pack(20, [cc_u8(*cc), 0, 0, 0, 0, 0]), *target as u64),
        MInstr::Call { target } => (pack(21, [0; 6]), *target as u64),
        MInstr::Ret => (pack(22, [0; 6]), 0),
        MInstr::CallRt { func, imm } => (pack(23, [rt_u8(*func), 0, 0, 0, 0, 0]), *imm),
        MInstr::RdFlags { rd } => (pack(24, [*rd, 0, 0, 0, 0, 0]), 0),
        MInstr::WrFlags { rs } => (pack(25, [*rs, 0, 0, 0, 0, 0]), 0),
        MInstr::FXorI { fd, imm } => (pack(26, [*fd, 0, 0, 0, 0, 0]), *imm),
        MInstr::Halt => (pack(27, [0; 6]), 0),
        MInstr::Lea { rd, mem } => {
            let mb = mem_bytes(mem);
            (pack(28, [*rd, mb[0], mb[1], mb[2], 0, 0]), mem.disp as u64)
        }
    }
}

/// Validate a register field (the register files have 16 entries; any
/// other value is an invalid encoding, like a bad ModRM on x64).
fn reg(v: u8) -> Result<u8, DecodeError> {
    if v < 16 {
        Ok(v)
    } else {
        Err(DecodeError(format!("bad register field {v}")))
    }
}

/// Validate a memory operand's fields.
fn mem_checked(b0: u8, b1: u8, b2: u8, disp: i64) -> Result<Mem, DecodeError> {
    let base = if b0 == NO_REG { None } else { Some(reg(b0)?) };
    let index = if b1 == NO_REG {
        if b2 != 0 {
            return Err(DecodeError("scale without index".into()));
        }
        None
    } else {
        if !matches!(b2, 1 | 2 | 4 | 8) {
            return Err(DecodeError(format!("bad scale {b2}")));
        }
        Some((reg(b1)?, b2))
    };
    Ok(Mem { base, index, disp })
}

/// Decode a two-word instruction.
pub fn decode(w0: u64, w1: u64) -> Result<MInstr, DecodeError> {
    let (op, b) = unpack(w0);
    Ok(match op {
        0 => MInstr::Nop,
        1 => MInstr::MovRR { rd: reg(b[0])?, ra: reg(b[1])? },
        2 => MInstr::MovRI { rd: reg(b[0])?, imm: w1 as i64 },
        3 => MInstr::FMovRR { fd: reg(b[0])?, fa: reg(b[1])? },
        4 => MInstr::FMovRI { fd: reg(b[0])?, imm: w1 },
        5 => MInstr::Alu { op: u8_alu(b[0])?, rd: reg(b[1])?, ra: reg(b[2])?, rb: reg(b[3])? },
        6 => MInstr::AluI { op: u8_alu(b[0])?, rd: reg(b[1])?, ra: reg(b[2])?, imm: w1 as i64 },
        7 => MInstr::Cmp { ra: reg(b[0])?, rb: reg(b[1])? },
        8 => MInstr::CmpI { ra: reg(b[0])?, imm: w1 as i64 },
        9 => MInstr::SetCc { cc: u8_cc(b[0])?, rd: reg(b[1])? },
        10 => MInstr::FAlu { op: u8_falu(b[0])?, fd: reg(b[1])?, fa: reg(b[2])?, fb: reg(b[3])? },
        11 => MInstr::FCmp { fa: reg(b[0])?, fb: reg(b[1])? },
        12 => MInstr::Cvt { kind: u8_cvt(b[0])?, dst: reg(b[1])?, src: reg(b[2])? },
        13 => MInstr::Ld { rd: reg(b[0])?, mem: mem_checked(b[1], b[2], b[3], w1 as i64)? },
        14 => MInstr::St { rs: reg(b[0])?, mem: mem_checked(b[1], b[2], b[3], w1 as i64)? },
        15 => MInstr::FLd { fd: reg(b[0])?, mem: mem_checked(b[1], b[2], b[3], w1 as i64)? },
        16 => MInstr::FSt { fs: reg(b[0])?, mem: mem_checked(b[1], b[2], b[3], w1 as i64)? },
        17 => MInstr::Push { rs: reg(b[0])? },
        18 => MInstr::Pop { rd: reg(b[0])? },
        19 => MInstr::Jmp { target: w1 as u32 },
        20 => MInstr::Jcc { cc: u8_cc(b[0])?, target: w1 as u32 },
        21 => MInstr::Call { target: w1 as u32 },
        22 => MInstr::Ret,
        23 => MInstr::CallRt { func: u8_rt(b[0])?, imm: w1 },
        24 => MInstr::RdFlags { rd: reg(b[0])? },
        25 => MInstr::WrFlags { rs: reg(b[0])? },
        26 => MInstr::FXorI { fd: reg(b[0])?, imm: w1 },
        27 => MInstr::Halt,
        28 => MInstr::Lea { rd: reg(b[0])?, mem: mem_checked(b[1], b[2], b[3], w1 as i64)? },
        other => return Err(DecodeError(format!("bad opcode {other}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_instrs() -> Vec<MInstr> {
        vec![
            MInstr::Nop,
            MInstr::MovRR { rd: 3, ra: 7 },
            MInstr::MovRI { rd: 0, imm: -12345 },
            MInstr::FMovRI { fd: 9, imm: 1.5f64.to_bits() },
            MInstr::Alu { op: AluOp::Xor, rd: 1, ra: 2, rb: 3 },
            MInstr::AluI { op: AluOp::Shl, rd: 4, ra: 4, imm: 3 },
            MInstr::Cmp { ra: 5, rb: 6 },
            MInstr::CmpI { ra: 5, imm: i64::MIN },
            MInstr::SetCc { cc: Cc::Le, rd: 2 },
            MInstr::FAlu { op: FAluOp::Max, fd: 0, fa: 1, fb: 2 },
            MInstr::FCmp { fa: 3, fb: 4 },
            MInstr::Cvt { kind: CvtKind::FToSi, dst: 1, src: 2 },
            MInstr::Ld { rd: 2, mem: Mem { base: Some(14), index: Some((3, 8)), disp: -64 } },
            MInstr::St { rs: 2, mem: Mem::abs(0x10000) },
            MInstr::FLd { fd: 5, mem: Mem::base_disp(1, 24) },
            MInstr::FSt { fs: 5, mem: Mem::base_disp(15, -8) },
            MInstr::Push { rs: 14 },
            MInstr::Pop { rd: 14 },
            MInstr::Jmp { target: 42 },
            MInstr::Jcc { cc: Cc::Gt, target: 7 },
            MInstr::Call { target: 100 },
            MInstr::Ret,
            MInstr::CallRt { func: RtFunc::FiSelInstr, imm: 0xabcdef },
            MInstr::RdFlags { rd: 8 },
            MInstr::WrFlags { rs: 8 },
            MInstr::FXorI { fd: 7, imm: 1 << 63 },
            MInstr::Halt,
            MInstr::Lea { rd: 4, mem: Mem { base: Some(14), index: Some((2, 8)), disp: -48 } },
        ]
    }

    #[test]
    fn roundtrip_all_shapes() {
        for i in sample_instrs() {
            let (w0, w1) = encode(&i);
            assert_eq!(decode(w0, w1).unwrap(), i, "roundtrip failed for {i:?}");
        }
    }

    /// Every instruction's cycle cost, runtime calls included, fits the
    /// `u8` a superblock slot keeps. Decodes every opcode with every
    /// sub-op byte (the ALU or FP-ALU op, runtime function, condition or
    /// conversion it selects), with register or no-register operands.
    #[test]
    fn every_instruction_cost_fits_u8() {
        let (mut opcodes, mut max) = (std::collections::HashSet::new(), 0);
        for op in 0..=u16::from(u8::MAX) {
            for sub in 0..=u8::MAX {
                for [r1, r2] in [[0, 0], [NO_REG, NO_REG]] {
                    let Ok(i) = decode(pack(op, [sub, r1, r2, 0, 0, 0]), 0) else {
                        continue;
                    };
                    assert!(u8::try_from(i.cycles()).is_ok(), "{i:?} costs {}", i.cycles());
                    opcodes.insert(op);
                    max = max.max(i.cycles());
                }
            }
        }
        assert_eq!(opcodes.len(), 29, "every opcode, 0 to 28, decoded");
        assert_eq!(max, 92, "an LLFI hook's `CallRt` is the dearest instruction");
    }

    #[test]
    fn bad_opcode_rejected() {
        assert!(decode(9999, 0).is_err());
        assert!(decode(pack(5, [200, 0, 0, 0, 0, 0]), 0).is_err()); // bad alu sub-op
    }

    proptest! {
        /// Immediates of any value round-trip exactly.
        #[test]
        fn prop_roundtrip_imm(imm in any::<i64>(), rd in 0u8..16, ra in 0u8..16) {
            let i = MInstr::AluI { op: AluOp::Add, rd, ra, imm };
            let (w0, w1) = encode(&i);
            prop_assert_eq!(decode(w0, w1).unwrap(), i);
        }

        /// Memory operands with arbitrary components round-trip.
        #[test]
        fn prop_roundtrip_mem(
            rd in 0u8..16,
            base in proptest::option::of(0u8..16),
            index in proptest::option::of((0u8..16, prop_oneof![Just(1u8), Just(8u8)])),
            disp in any::<i32>(),
        ) {
            let mem = Mem { base, index, disp: disp as i64 };
            let i = MInstr::Ld { rd, mem };
            let (w0, w1) = encode(&i);
            prop_assert_eq!(decode(w0, w1).unwrap(), i);
        }
    }
}
