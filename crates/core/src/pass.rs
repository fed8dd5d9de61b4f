//! The REFINE backend FI pass (§4.2.2–§4.2.3).
//!
//! Runs on final machine basic blocks, after all code generation and
//! register allocation, immediately before emission — so it has access to
//! the full instruction population (prologue/epilogue, spill traffic, stack
//! management) and interferes with nothing.
//!
//! For every target instruction the pass splits the containing block and
//! inserts (one linear sweep per block: the instructions after a site go
//! straight into the continuation block, which takes the block's later
//! sites in turn):
//!
//! ```text
//!   ..target..  --> PreFI:     save r0 + FLAGS to the global save area,
//!                              call selInstr(site); skip if false
//!                   SetupFI:   save r1, call setupFI(nops, sizes),
//!                              decode <op, bit>, dispatch
//!                   FI_k:      flip the chosen bit of output operand k
//!                              (xor for GPRs, bit-move xor for FPRs, save-
//!                              area xor for FLAGS and for saved r0/r1)
//!                   PostFI:    restore FLAGS + registers, resume
//! ```
//!
//! The save area lives at an absolute data address, not on the stack, so
//! instrumentation stays correct even while `sp`/`fp` themselves are the
//! corrupted operands or the target sits inside a prologue.

use crate::options::{FiOptions, InstrClass};
use refine_machine::isa::abi;
use refine_machine::rt::pack;
use refine_machine::{fi_outputs, AluOp, Cc, CvtKind, MInstr, Mem, Reg, RtFunc};
use refine_mir::{MBlock, MFunction};

/// Static description of one instrumented site (for logs and reports).
#[derive(Debug, Clone)]
pub struct SiteInfo {
    /// Program-wide site id (the `selInstr` argument).
    pub id: u64,
    /// Containing function.
    pub func: String,
    /// The target instruction.
    pub instr: MInstr,
    /// Output operands `(register, bits)` of the target.
    pub outputs: Vec<(Reg, u32)>,
}

impl SiteInfo {
    /// Disassembly of the target instruction.
    pub fn asm(&self) -> String {
        self.instr.asm()
    }
}

/// Offsets (in words) of the global save area slots.
const SAVE_FLAGS: i64 = 0;
const SAVE_R0: i64 = 1;
pub(crate) const SAVE_R1: i64 = 2;
/// Number of 8-byte words the pass needs in the data segment.
pub const SAVE_AREA_WORDS: u32 = 3;

/// Instrument every selected function of `funcs` in place. `save_base` is
/// the absolute byte address of the save area; `next_site` is the first
/// free site id (threaded across functions). Returns site descriptions.
pub fn run(
    funcs: &mut [MFunction],
    opts: &FiOptions,
    save_base: u64,
    next_site: &mut u64,
) -> Vec<SiteInfo> {
    let mut sites = Vec::new();
    if !opts.fi {
        return sites;
    }
    for f in funcs.iter_mut() {
        if !opts.func_selected(&f.name) {
            continue;
        }
        instrument_function(f, opts.fi_instrs, save_base, next_site, &mut sites);
    }
    sites
}

fn save_mem(save_base: u64, slot: i64) -> Mem {
    Mem::abs(save_base as i64 + slot * 8)
}

fn instrument_function(
    f: &mut MFunction,
    class: InstrClass,
    save_base: u64,
    next_site: &mut u64,
    sites: &mut Vec<SiteInfo>,
) {
    // Blocks are instrumented last to first (site ids and the layout of
    // the appended blocks follow that order).
    for bi in (0..f.blocks.len()).rev() {
        let insts = std::mem::take(&mut f.blocks[bi].insts);
        // The block receiving instructions: `bi`, then each site's
        // continuation block.
        let mut cur = bi;
        let mut kept: Vec<MInstr> = Vec::with_capacity(insts.len());
        for target in insts {
            kept.push(target);
            if !class.matches(&target) {
                continue;
            }
            let outputs = fi_outputs(&target);
            let site = *next_site;
            *next_site += 1;

            // Allocate the new blocks: PreFI, SetupFI, one FI block per
            // output, the two PostFI blocks and the continuation.
            let pre = f.blocks.len() as u32;
            let fi_blocks = pre + 2..pre + 2 + outputs.len() as u32;
            let cont = fi_blocks.end + 2;
            f.blocks.resize_with(cont as usize + 1, MBlock::default);

            // Close the split-off head with a jump into PreFI.
            kept.push(MInstr::Jmp { target: pre });
            f.blocks[cur].insts = std::mem::take(&mut kept);
            cur = cont as usize;
            instrument_site(f, site, &outputs, save_base, pre, fi_blocks);
            sites.push(SiteInfo { id: site, func: f.name.clone(), instr: target, outputs });
        }
        // The remainder after the last site (the whole block when it has
        // none).
        f.blocks[cur].insts = kept;
    }
}

/// Fill the consecutive blocks of one site: PreFI (`pre`), SetupFI, one
/// FI block per output (`fi_blocks`), the two PostFI blocks, and the jump
/// to its continuation after them.
fn instrument_site(
    f: &mut MFunction,
    site: u64,
    outputs: &[(Reg, u32)],
    save_base: u64,
    pre: u32,
    fi_blocks: std::ops::Range<u32>,
) {
    let setup = pre + 1;
    let (post_trig, post, cont) = (fi_blocks.end, fi_blocks.end + 1, fi_blocks.end + 2);
    // --- PreFI: save r0 + FLAGS, ask the library whether to inject.
    let r0 = abi::GPR_RET; // register 0, the library's result register
    let r1 = 1u8;
    f.blocks[pre as usize].insts = vec![
        MInstr::St { rs: r0, mem: save_mem(save_base, SAVE_R0) },
        MInstr::RdFlags { rd: r0 },
        MInstr::St { rs: r0, mem: save_mem(save_base, SAVE_FLAGS) },
        MInstr::CallRt { func: RtFunc::FiSelInstr, imm: site },
        MInstr::CmpI { ra: r0, imm: 0 },
        MInstr::Jcc { cc: Cc::Ne, target: setup },
        MInstr::Jmp { target: post },
    ];

    // --- SetupFI: save r1, ask for <op, bit>, dispatch to FI_k.
    let sizes: Vec<u32> = outputs.iter().map(|&(_, b)| b).collect();
    let mut setup_code = Vec::with_capacity(6 + 2 * outputs.len());
    setup_code.extend([
        MInstr::St { rs: r1, mem: save_mem(save_base, SAVE_R1) },
        MInstr::CallRt { func: RtFunc::FiSetupFi, imm: pack::setup_imm(&sizes) },
        MInstr::MovRR { rd: r1, ra: r0 },
        MInstr::AluI { op: AluOp::And, rd: r1, ra: r1, imm: 0xff },
        MInstr::AluI { op: AluOp::LShr, rd: r0, ra: r0, imm: 8 },
    ]);
    for (k, fb) in fi_blocks.clone().enumerate() {
        setup_code.push(MInstr::CmpI { ra: r1, imm: k as i64 });
        setup_code.push(MInstr::Jcc { cc: Cc::E, target: fb });
    }
    setup_code.push(MInstr::Jmp { target: post_trig });
    f.blocks[setup as usize].insts = setup_code;

    // --- FI_k: flip bit r0 of output k. Entry state: r0 = bit index,
    //     r1 = free, live r0/r1/FLAGS preserved in the save area.
    for (&(reg, _bits), fb) in outputs.iter().zip(fi_blocks) {
        let mut code = Vec::with_capacity(6);
        code.extend([
            MInstr::MovRI { rd: r1, imm: 1 },
            MInstr::Alu { op: AluOp::Shl, rd: r1, ra: r1, rb: r0 },
        ]);
        match reg {
            Reg::G(d) if d == r0 => {
                code.push(MInstr::Ld { rd: r0, mem: save_mem(save_base, SAVE_R0) });
                code.push(MInstr::Alu { op: AluOp::Xor, rd: r0, ra: r0, rb: r1 });
                code.push(MInstr::St { rs: r0, mem: save_mem(save_base, SAVE_R0) });
            }
            Reg::G(d) if d == r1 => {
                code.push(MInstr::Ld { rd: r0, mem: save_mem(save_base, SAVE_R1) });
                code.push(MInstr::Alu { op: AluOp::Xor, rd: r0, ra: r0, rb: r1 });
                code.push(MInstr::St { rs: r0, mem: save_mem(save_base, SAVE_R1) });
            }
            Reg::G(d) => {
                code.push(MInstr::Alu { op: AluOp::Xor, rd: d, ra: d, rb: r1 });
            }
            Reg::F(fd) => {
                code.push(MInstr::Cvt { kind: CvtKind::FToBits, dst: r0, src: fd });
                code.push(MInstr::Alu { op: AluOp::Xor, rd: r0, ra: r0, rb: r1 });
                code.push(MInstr::Cvt { kind: CvtKind::BitsToF, dst: fd, src: r0 });
            }
            Reg::Flags => {
                code.push(MInstr::Ld { rd: r0, mem: save_mem(save_base, SAVE_FLAGS) });
                code.push(MInstr::Alu { op: AluOp::Xor, rd: r0, ra: r0, rb: r1 });
                code.push(MInstr::St { rs: r0, mem: save_mem(save_base, SAVE_FLAGS) });
            }
        }
        code.push(MInstr::Jmp { target: post_trig });
        f.blocks[fb as usize].insts = code;
    }

    // --- PostFI (triggered path): restore r1 first.
    f.blocks[post_trig as usize].insts = vec![
        MInstr::Ld { rd: r1, mem: save_mem(save_base, SAVE_R1) },
        MInstr::Jmp { target: post },
    ];

    // --- PostFI: restore FLAGS and r0, resume application code.
    f.blocks[post as usize].insts = vec![
        MInstr::Ld { rd: r0, mem: save_mem(save_base, SAVE_FLAGS) },
        MInstr::WrFlags { rs: r0 },
        MInstr::Ld { rd: r0, mem: save_mem(save_base, SAVE_R0) },
        MInstr::Jmp { target: cont },
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_block(insts: Vec<MInstr>) -> MFunction {
        MFunction { name: "f".into(), blocks: vec![MBlock { insts }] }
    }

    #[test]
    fn splits_blocks_at_every_site() {
        let mut f = one_block(vec![
            MInstr::MovRI { rd: 2, imm: 1 },                    // site
            MInstr::Alu { op: AluOp::Add, rd: 2, ra: 2, rb: 2 }, // site (2 outputs)
            MInstr::Jmp { target: 0 },                           // not a site
        ]);
        let mut next = 0;
        let sites = run(
            std::slice::from_mut(&mut f),
            &FiOptions::all(),
            0x10000,
            &mut next,
        );
        assert_eq!(sites.len(), 2);
        assert_eq!(next, 2);
        // MovRI has one output -> 6 extra blocks; Alu has two -> 7.
        assert_eq!(f.blocks.len(), 1 + 6 + 7);
        assert_eq!(sites[1].outputs.len(), 2);
        assert_eq!(sites[1].outputs[1].0, Reg::Flags);
    }

    #[test]
    fn respects_func_filter() {
        let mut f = one_block(vec![MInstr::MovRI { rd: 0, imm: 1 }]);
        let mut opts = FiOptions::all();
        opts.fi_funcs = "other_*".into();
        let mut next = 0;
        let sites = run(std::slice::from_mut(&mut f), &opts, 0x10000, &mut next);
        assert!(sites.is_empty());
        assert_eq!(f.blocks.len(), 1, "function untouched");
    }

    #[test]
    fn respects_class_filter() {
        let mut f = one_block(vec![
            MInstr::Push { rs: 3 },
            MInstr::FAlu { op: refine_machine::FAluOp::Add, fd: 0, fa: 0, fb: 1 },
        ]);
        let mut opts = FiOptions::all();
        opts.fi_instrs = InstrClass::Stack;
        let mut next = 0;
        let sites = run(std::slice::from_mut(&mut f), &opts, 0x10000, &mut next);
        assert_eq!(sites.len(), 1);
        assert!(sites[0].asm().starts_with("push"));
    }

    #[test]
    fn disabled_pass_is_identity() {
        let mut f = one_block(vec![MInstr::MovRI { rd: 0, imm: 1 }]);
        let before = f.blocks.len();
        let mut next = 0;
        let sites = run(
            std::slice::from_mut(&mut f),
            &FiOptions::default(), // fi = false
            0x10000,
            &mut next,
        );
        assert!(sites.is_empty());
        assert_eq!(f.blocks.len(), before);
    }

    #[test]
    fn instrumentation_blocks_use_absolute_saves() {
        let mut f = one_block(vec![MInstr::Push { rs: 3 }]);
        let mut next = 0;
        run(std::slice::from_mut(&mut f), &FiOptions::all(), 0x20000, &mut next);
        // Every St/Ld inside instrumentation must address the save area
        // absolutely (no sp/fp base) so corrupted stack pointers cannot
        // break the instrumentation itself.
        for b in &f.blocks[1..] {
            for i in &b.insts {
                if let MInstr::St { mem, .. } | MInstr::Ld { mem, .. } = i {
                    assert!(mem.base.is_none(), "save-area access must be absolute: {i:?}");
                    assert!(mem.disp >= 0x20000);
                }
            }
        }
    }
}
