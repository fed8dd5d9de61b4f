//! Superblock-fused direct-threaded execution engine: the trial fast path.
//!
//! The exact interpreter ([`Machine::step_t`](crate::machine::Machine)) pays
//! a 31-arm `match` decode, branchy `Option<base>/Option<index>` effective
//! addresses, and per-instruction cycle/retired/pc bookkeeping for every
//! executed instruction. This module predecodes the text section once into a
//! flat µop array whose operand offsets are fully resolved (the memory-shape
//! `Option`s are burned into the function pointer via const generics), fuses
//! straight-line runs into *superblocks*, and dispatches each block through
//! direct-threaded fn-pointer calls with one cycles/retired/pc update per
//! block.
//!
//! Fusion boundaries: a superblock ends at any control transfer (`Jmp`,
//! `Jcc`, `Call`, `Ret`), at `CallRt` (FI runtime hooks and output events
//! must see exact per-call dispatch), at `Halt`, and at the last instruction
//! of the text section (so the strict fallthrough pc-bounds trap is always
//! raised by the exact step). Instructions that can trap mid-block (memory,
//! divide, push/pop) *are* fused: the block dispatcher materializes the
//! exact architectural state at the trapping µop — same cycles (cost of the
//! trapping instruction included, as the exact loop adds cost before
//! stepping), same retired count (trapping instruction not retired), and
//! `pc` left on the trapping instruction.
//!
//! One fused loop, [`Machine::run_sb`], monomorphized over the runtime,
//! the FI-counting discipline and whether a golden end is attached: the
//! quiescent prefix and plain post-fire suffix run without snapshot checks
//! or page-write tracking, and a post-fire suffix with convergence on
//! splices the golden outcome once its state digest matches a golden
//! snapshot. It reproduces the exact interpreter's accounting bit-for-bit
//! and falls back to single exact steps whenever a block could cross a
//! semantic boundary the exact loop observes per-instruction: the FI-event
//! stop count, the cycle budget, or a golden snapshot's `(fi_count, pc)`
//! match point.

use crate::binary::Binary;
use crate::checkpoint::{Checkpoint, CheckpointStore};
use crate::digest::ConvHasher;
use crate::isa::{fi_outputs, AluOp, Cc, CvtKind, FAluOp, MInstr, Mem};
use crate::machine::{GoldenEnd, Machine, RunOutcome, Step, Trap};
use crate::rt::FiRuntime;

/// A µop handler: executes one fused instruction's data side effects.
/// Never touches `pc`, `cycles` or `instrs_retired` — the block dispatcher
/// accounts for those in bulk.
type UopFn = fn(&mut Machine<'_>, &Uop) -> Result<(), Trap>;

/// One predecoded instruction with fully resolved operand offsets. The
/// field meaning is per-handler; for memory ops `a`/`b`/`c` are base
/// register / index register / scale, `d` the data register, and `imm` the
/// displacement.
#[derive(Debug, Clone, Copy)]
struct Uop {
    exec: UopFn,
    a: u8,
    b: u8,
    c: u8,
    d: u8,
    imm: u64,
}

/// The exact-step fallback's view of one pc: the instruction with its cycle
/// cost and PINFI-target flag precomputed.
#[derive(Debug, Clone, Copy)]
struct Slot {
    instr: MInstr,
    cost: u64,
    is_target: bool,
}

/// How one trial actually executed, for engine accounting: the checkpoint
/// restore (filled in by the trial driver) and the convergence splice and
/// dispatch counters (accumulated by [`Machine::run_sb`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrialFastStats {
    /// The trial restored machine state from a golden-run checkpoint.
    pub restored: bool,
    /// Dynamic instructions skipped by that restore (0 when cold).
    pub skipped_instrs: u64,
    /// The trial converged with the golden run post-injection and its
    /// outcome was spliced.
    pub converged: bool,
    /// Post-injection instructions executed under convergence checking.
    pub conv_checked_instrs: u64,
    /// Instructions not executed thanks to the golden-suffix splice.
    pub conv_saved_instrs: u64,
    /// Fused superblock dispatches this trial (0 for the exact oracle).
    pub sb_dispatches: u64,
    /// Instructions retired through fused dispatch this trial.
    pub sb_fused_instrs: u64,
    /// Instructions retired via exact single-step fallback inside the
    /// fused loop this trial.
    pub sb_stepped_instrs: u64,
}

/// The predecoded, superblock-fused form of one binary's text section.
///
/// Built once per prepared artifact and shared read-only across trial
/// threads.
#[derive(Debug)]
pub struct SuperblockProgram {
    /// One µop per text instruction; terminator slots hold a placeholder
    /// that is never dispatched (their `fused_len` is 0).
    uops: Vec<Uop>,
    /// `fused_len[pc]` = number of µops in the superblock headed at `pc`
    /// (0 when `pc` starts no block and must be stepped exactly).
    fused_len: Vec<u32>,
    /// Suffix-sum cycle costs: cost of µops `pc..=k` is
    /// `fused_cost[pc] - fused_cost[k + 1]`, and `fused_cost[pc]` alone is
    /// the full block cost when `pc` heads a block.
    fused_cost: Vec<u64>,
    /// Suffix-sum FI-target counts (PINFI accounting), same indexing
    /// identities as `fused_cost`.
    fused_targets: Vec<u64>,
    /// Per-pc data for the exact-step fallback.
    slots: Vec<Slot>,
}

impl SuperblockProgram {
    /// Predecode and fuse `binary`'s text section.
    pub fn new(binary: &Binary) -> Self {
        let n = binary.text.len();
        let slots: Vec<Slot> = binary
            .text
            .iter()
            .map(|i| Slot { instr: *i, cost: i.cycles(), is_target: !fi_outputs(i).is_empty() })
            .collect();
        let uops: Vec<Uop> = binary.text.iter().map(lower).collect();
        let mut fused_len = vec![0u32; n];
        let mut fused_cost = vec![0u64; n];
        let mut fused_targets = vec![0u64; n];
        // Reverse scan: an instruction is fusible when it is not a
        // terminator and is not the last instruction (the final fallthrough
        // must trap through the exact step's strict pc-bounds rule).
        for pc in (0..n).rev() {
            if is_terminator(&binary.text[pc]) || pc + 1 >= n {
                continue;
            }
            fused_len[pc] = 1 + fused_len[pc + 1];
            fused_cost[pc] = slots[pc].cost + fused_cost[pc + 1];
            fused_targets[pc] = u64::from(slots[pc].is_target) + fused_targets[pc + 1];
        }
        SuperblockProgram { uops, fused_len, fused_cost, fused_targets, slots }
    }

    /// Number of predecoded instructions (== text length).
    pub fn len(&self) -> usize {
        self.uops.len()
    }

    /// Whether the text section is empty.
    pub fn is_empty(&self) -> bool {
        self.uops.is_empty()
    }

    /// Number of superblock heads (distinct fused blocks a run can enter).
    pub fn block_count(&self) -> usize {
        (0..self.uops.len())
            .filter(|&pc| self.fused_len[pc] > 0 && (pc == 0 || self.fused_len[pc - 1] == 0))
            .count()
    }
}

fn is_terminator(i: &MInstr) -> bool {
    matches!(
        i,
        MInstr::Jmp { .. }
            | MInstr::Jcc { .. }
            | MInstr::Call { .. }
            | MInstr::Ret
            | MInstr::CallRt { .. }
            | MInstr::Halt
    )
}

impl Machine<'_> {
    /// Execute the superblock headed at `pc` (`n = fused_len[pc] > 0`
    /// guaranteed by the caller). On success `pc` lands on the block's
    /// (non-fused) end instruction; on a trap the architectural state is
    /// exactly what the per-instruction loop would have left.
    #[inline]
    fn exec_fused(
        &mut self,
        sb: &SuperblockProgram,
        pc: usize,
        n: u32,
        stats: &mut TrialFastStats,
    ) -> Result<(), Trap> {
        let end = pc + n as usize;
        for (i, u) in sb.uops[pc..end].iter().enumerate() {
            if let Err(t) = (u.exec)(self, u) {
                let k = pc + i;
                // The exact loop adds the trapping instruction's cost
                // before stepping but does not retire it, and leaves pc on
                // the trapping instruction.
                self.cycles += sb.fused_cost[pc] - sb.fused_cost[k + 1];
                self.instrs_retired += i as u64;
                self.pc = k as u32;
                stats.sb_dispatches += 1;
                stats.sb_fused_instrs += i as u64;
                return Err(t);
            }
        }
        self.cycles += sb.fused_cost[pc];
        self.instrs_retired += u64::from(n);
        self.pc = end as u32;
        stats.sb_dispatches += 1;
        stats.sb_fused_instrs += u64::from(n);
        Ok(())
    }

    /// Run with fused dispatch from the current state until `stop` FI
    /// events have been counted. Returns `Some(outcome)` when the run ends
    /// first, `None` at the boundary (the caller attaches the real injector
    /// for the fire window); post-fire suffixes pass `stop = u64::MAX`.
    /// Accounting is the exact interpreter's with no tracer attached; the
    /// dispatch and convergence counters accumulate into `stats`.
    ///
    /// `PROBED` selects the FI-counting discipline at compile time:
    ///
    /// * `false` — call-hook tools (REFINE, LLFI): `rt` counts its
    ///   `selInstr`/`injectFault` calls ([`FiRuntime::fi_count`]); `count`
    ///   and `overhead` are unused;
    /// * `true` — the probed tool (PINFI): FI targets are tallied into
    ///   `count` at fetch and every fetched instruction costs `overhead`
    ///   extra cycles, as under an attached DBI probe — both charged even
    ///   for a trapping instruction. A detached post-fire suffix passes
    ///   `overhead = 0` and keeps tallying, as the profiling probe did.
    ///
    /// With a `golden` end (a post-fire suffix with convergence on; the FI
    /// count on entry is the one *after* the fault fired), the run also
    /// compares the incremental state digest against each golden snapshot
    /// when the trial reaches the snapshot's `(fi_count, pc)` position, and
    /// on a match splices the golden suffix and returns its outcome.
    /// Snapshots are matched by `(fi_count, pc)`, not retired count: for
    /// the call-hook tools the taken injection branch retires instructions
    /// the quiescent golden run never executed, so post-fire the trial's
    /// retired counter is permanently skewed against golden's. The FI-event
    /// counter is injection-invariant (the extra branch instructions are
    /// runtime-call plumbing, not FI events), so a trial whose state
    /// re-converges passes through every later golden snapshot at exactly
    /// the snapshot's FI count and pc — where the full-state digest decides
    /// — while the splice adds golden's *suffix deltas* onto the trial's
    /// own counters, absorbing the skew without measuring it.
    ///
    /// The loop body is written once and monomorphized on whether `golden`
    /// is set, so quiescent prefixes and plain suffixes run with no
    /// snapshot checks and no page-write tracking.
    #[allow(clippy::too_many_arguments)]
    pub fn run_sb<R: FiRuntime + ?Sized, const PROBED: bool>(
        &mut self,
        sb: &SuperblockProgram,
        rt: &mut R,
        count: &mut u64,
        overhead: u64,
        stop: u64,
        golden: Option<(&CheckpointStore, GoldenEnd<'_>)>,
        max: u64,
        stats: &mut TrialFastStats,
    ) -> Option<RunOutcome> {
        if golden.is_some() {
            self.sb_loop::<R, PROBED, true>(sb, rt, count, overhead, stop, golden, max, stats)
        } else {
            self.sb_loop::<R, PROBED, false>(sb, rt, count, overhead, stop, None, max, stats)
        }
    }

    /// The body of [`Machine::run_sb`]; `CONV` is `golden.is_some()`.
    #[allow(clippy::too_many_arguments)]
    fn sb_loop<R: FiRuntime + ?Sized, const PROBED: bool, const CONV: bool>(
        &mut self,
        sb: &SuperblockProgram,
        rt: &mut R,
        count: &mut u64,
        overhead: u64,
        stop: u64,
        golden: Option<(&CheckpointStore, GoldenEnd<'_>)>,
        max_cycles: u64,
        stats: &mut TrialFastStats,
    ) -> Option<RunOutcome> {
        debug_assert_eq!(sb.len(), self.binary.text.len());
        let overhead = if PROBED { overhead } else { 0 };
        let ckpts: &[Checkpoint] = match golden {
            Some((store, _)) if CONV => &store.checkpoints,
            _ => &[],
        };
        let (entry_retired, mut spliced) = (self.instrs_retired, 0);
        // First candidate: the earliest golden snapshot whose FI-event
        // window the trial has not passed yet (fi_count is monotone).
        let fi_entry = if PROBED { *count } else { rt.fi_count() };
        let mut cursor = ckpts.partition_point(|c| c.fi_count < fi_entry);
        let outcome = loop {
            let fi = if PROBED { *count } else { rt.fi_count() };
            if fi >= stop {
                break None;
            }
            if CONV {
                // Skip snapshots whose window passed without a state match
                // (interval thinning can leave adjacent equal counts).
                while ckpts.get(cursor).is_some_and(|c| c.fi_count < fi) {
                    cursor += 1;
                }
                if let (Some(ck), Some((store, end))) = (ckpts.get(cursor), golden) {
                    if ck.fi_count == fi && ck.pc == self.pc {
                        if let Some(saved) = self.splice_golden(store, ck, end, fi, max_cycles) {
                            stats.converged = true;
                            stats.conv_saved_instrs += saved;
                            spliced = saved;
                            break Some(RunOutcome::Exit(end.exit_code));
                        }
                    }
                }
            }
            if self.cycles >= max_cycles {
                break Some(RunOutcome::Timeout);
            }
            let pc = self.pc as usize;
            let n = sb.fused_len.get(pc).copied().unwrap_or(0);
            // Fuse only when the whole block stays below every boundary;
            // otherwise step exactly so the boundary instruction is the
            // last one executed, as in the per-instruction loop. Strict `<`
            // on cycles: cycle costs are positive, so a block-final total
            // below budget means no interior timeout check could have
            // fired. A call-hook count is constant across a block (`CallRt`
            // never fuses), so the loop-top stop check covers it, and the
            // cursor snapshot can only match at a pc strictly inside the
            // block, excluded explicitly; a probed count advances inside the
            // block, so that snapshot's window must start after the block.
            if n > 0
                && (!PROBED || fi + sb.fused_targets[pc] < stop)
                && self.cycles + sb.fused_cost[pc] + u64::from(n) * overhead < max_cycles
                && (!CONV
                    || match ckpts.get(cursor) {
                        None => true,
                        Some(ck) if PROBED => ck.fi_count > fi + sb.fused_targets[pc],
                        Some(ck) => {
                            ck.fi_count != fi
                                || (ck.pc as usize) <= pc
                                || (ck.pc as usize) >= pc + n as usize
                        }
                    })
            {
                match self.exec_fused(sb, pc, n, stats) {
                    Ok(()) => {
                        if PROBED {
                            self.cycles += u64::from(n) * overhead;
                            *count += sb.fused_targets[pc];
                        }
                        continue;
                    }
                    Err(t) => {
                        if PROBED {
                            // Fetched up to and including the trapping µop.
                            let next = self.pc as usize + 1;
                            self.cycles += (next - pc) as u64 * overhead;
                            *count += sb.fused_targets[pc] - sb.fused_targets[next];
                        }
                        break Some(RunOutcome::Trap(t));
                    }
                }
            }
            let Some(e) = sb.slots.get(pc) else {
                break Some(RunOutcome::Trap(Trap::BadPc(self.pc as u64)));
            };
            self.cycles += overhead + e.cost;
            if PROBED && e.is_target {
                *count += 1;
            }
            // Page write tracking feeds the digest refresh; it is a no-op
            // until the hasher is live.
            match self.step_t::<R, CONV>(&e.instr, rt) {
                Ok(Step::Continue) => {
                    self.instrs_retired += 1;
                    stats.sb_stepped_instrs += 1;
                }
                Ok(Step::Halt(code)) => break Some(RunOutcome::Exit(code)),
                Err(t) => break Some(RunOutcome::Trap(t)),
            }
        };
        if CONV {
            self.conv = None;
            stats.conv_checked_instrs += self.instrs_retired - spliced - entry_retired;
        }
        outcome
    }

    /// At golden snapshot `ck`'s match point: if the trial's state digest
    /// equals the snapshot's, the remainder is deterministic and equal to
    /// the golden run's, so splice `end` onto the trial and return the
    /// instructions saved. Golden's suffix deltas go onto the trial's own
    /// counters, less the probe overhead the profiling run paid but a
    /// detached post-fire trial does not (the +1 fetch is the final
    /// non-retiring `Halt`). No splice when the spliced timing would reach
    /// the cycle budget (cycles are monotone, so a final total below it
    /// rules out an interior timeout); the caller keeps executing.
    fn splice_golden(
        &mut self,
        store: &CheckpointStore,
        ck: &Checkpoint,
        end: GoldenEnd<'_>,
        fi: u64,
        max_cycles: u64,
    ) -> Option<u64> {
        if self.conv.is_none() {
            // One full scan seeds the hasher; later checks pay only for
            // pages written since.
            let (data, init, stack) = (&self.data, &self.binary.data, &self.stack);
            let hasher = ConvHasher::scan(&store.baseline, data, init, stack, &self.output);
            self.conv = Some(Box::new(hasher));
        }
        if self.conv_refresh(fi) != ck.digest {
            return None;
        }
        let saved = end.retired - ck.retired;
        let final_cycles =
            self.cycles + ((end.cycles - ck.cycles) - end.probe_overhead * (saved + 1));
        if final_cycles >= max_cycles {
            return None;
        }
        self.cycles = final_cycles;
        self.instrs_retired += saved;
        self.output.clear();
        self.output.extend_from_slice(end.output);
        Some(saved)
    }
}

// --- µop handlers -----------------------------------------------------------
//
// Each handler mirrors one `step_t` arm's data side effects exactly. Stores
// always use `mem_write_t::<true>` / `push_t::<true>`: page tracking is a
// no-op while no convergence hasher is live, and required when one is.

fn u_nop(_m: &mut Machine<'_>, _u: &Uop) -> Result<(), Trap> {
    Ok(())
}

fn u_term(_m: &mut Machine<'_>, _u: &Uop) -> Result<(), Trap> {
    unreachable!("terminator µop is never dispatched fused")
}

fn u_mov_rr(m: &mut Machine<'_>, u: &Uop) -> Result<(), Trap> {
    m.regs[u.a as usize] = m.regs[u.b as usize];
    Ok(())
}

fn u_mov_ri(m: &mut Machine<'_>, u: &Uop) -> Result<(), Trap> {
    m.regs[u.a as usize] = u.imm;
    Ok(())
}

fn u_fmov_rr(m: &mut Machine<'_>, u: &Uop) -> Result<(), Trap> {
    m.fregs[u.a as usize] = m.fregs[u.b as usize];
    Ok(())
}

fn u_fmov_ri(m: &mut Machine<'_>, u: &Uop) -> Result<(), Trap> {
    m.fregs[u.a as usize] = u.imm;
    Ok(())
}

const ALU_OPS: [AluOp; 11] = [
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

fn u_alu_rr<const OP: usize>(m: &mut Machine<'_>, u: &Uop) -> Result<(), Trap> {
    let r = m.alu(
        ALU_OPS[OP],
        m.regs[u.b as usize] as i64,
        m.regs[u.c as usize] as i64,
    )?;
    m.regs[u.a as usize] = r as u64;
    Ok(())
}

fn u_alu_ri<const OP: usize>(m: &mut Machine<'_>, u: &Uop) -> Result<(), Trap> {
    let r = m.alu(ALU_OPS[OP], m.regs[u.b as usize] as i64, u.imm as i64)?;
    m.regs[u.a as usize] = r as u64;
    Ok(())
}

fn alu_rr_fn(op: AluOp) -> UopFn {
    match op {
        AluOp::Add => u_alu_rr::<0>,
        AluOp::Sub => u_alu_rr::<1>,
        AluOp::Mul => u_alu_rr::<2>,
        AluOp::Div => u_alu_rr::<3>,
        AluOp::Rem => u_alu_rr::<4>,
        AluOp::And => u_alu_rr::<5>,
        AluOp::Or => u_alu_rr::<6>,
        AluOp::Xor => u_alu_rr::<7>,
        AluOp::Shl => u_alu_rr::<8>,
        AluOp::LShr => u_alu_rr::<9>,
        AluOp::AShr => u_alu_rr::<10>,
    }
}

fn alu_ri_fn(op: AluOp) -> UopFn {
    match op {
        AluOp::Add => u_alu_ri::<0>,
        AluOp::Sub => u_alu_ri::<1>,
        AluOp::Mul => u_alu_ri::<2>,
        AluOp::Div => u_alu_ri::<3>,
        AluOp::Rem => u_alu_ri::<4>,
        AluOp::And => u_alu_ri::<5>,
        AluOp::Or => u_alu_ri::<6>,
        AluOp::Xor => u_alu_ri::<7>,
        AluOp::Shl => u_alu_ri::<8>,
        AluOp::LShr => u_alu_ri::<9>,
        AluOp::AShr => u_alu_ri::<10>,
    }
}

fn u_cmp(m: &mut Machine<'_>, u: &Uop) -> Result<(), Trap> {
    m.cmp_flags(m.regs[u.a as usize] as i64, m.regs[u.b as usize] as i64);
    Ok(())
}

fn u_cmp_i(m: &mut Machine<'_>, u: &Uop) -> Result<(), Trap> {
    m.cmp_flags(m.regs[u.a as usize] as i64, u.imm as i64);
    Ok(())
}

const CCS: [Cc; 6] = [Cc::E, Cc::Ne, Cc::Lt, Cc::Le, Cc::Gt, Cc::Ge];

fn u_setcc<const C: usize>(m: &mut Machine<'_>, u: &Uop) -> Result<(), Trap> {
    m.regs[u.a as usize] = CCS[C].eval(m.flags) as u64;
    Ok(())
}

fn setcc_fn(cc: Cc) -> UopFn {
    match cc {
        Cc::E => u_setcc::<0>,
        Cc::Ne => u_setcc::<1>,
        Cc::Lt => u_setcc::<2>,
        Cc::Le => u_setcc::<3>,
        Cc::Gt => u_setcc::<4>,
        Cc::Ge => u_setcc::<5>,
    }
}

fn u_falu<const OP: usize>(m: &mut Machine<'_>, u: &Uop) -> Result<(), Trap> {
    let (a, b) = (m.f(u.b), m.f(u.c));
    let r = match OP {
        0 => a + b,
        1 => a - b,
        2 => a * b,
        3 => a / b,
        4 => a.min(b),
        _ => a.max(b),
    };
    m.set_f(u.a, r);
    Ok(())
}

fn falu_fn(op: FAluOp) -> UopFn {
    match op {
        FAluOp::Add => u_falu::<0>,
        FAluOp::Sub => u_falu::<1>,
        FAluOp::Mul => u_falu::<2>,
        FAluOp::Div => u_falu::<3>,
        FAluOp::Min => u_falu::<4>,
        FAluOp::Max => u_falu::<5>,
    }
}

fn u_fcmp(m: &mut Machine<'_>, u: &Uop) -> Result<(), Trap> {
    let (a, b) = (m.f(u.a), m.f(u.b));
    m.fcmp_flags(a, b);
    Ok(())
}

fn u_cvt<const K: usize>(m: &mut Machine<'_>, u: &Uop) -> Result<(), Trap> {
    match K {
        0 => {
            let v = m.regs[u.b as usize] as i64 as f64;
            m.set_f(u.a, v);
        }
        1 => m.regs[u.a as usize] = (m.f(u.b) as i64) as u64,
        2 => m.fregs[u.a as usize] = m.regs[u.b as usize],
        _ => m.regs[u.a as usize] = m.fregs[u.b as usize],
    }
    Ok(())
}

fn cvt_fn(kind: CvtKind) -> UopFn {
    match kind {
        CvtKind::SiToF => u_cvt::<0>,
        CvtKind::FToSi => u_cvt::<1>,
        CvtKind::BitsToF => u_cvt::<2>,
        CvtKind::FToBits => u_cvt::<3>,
    }
}

/// Effective address with the memory shape burned in as const generics, so
/// the fused path has no `Option` branches.
#[inline(always)]
fn uop_addr<const BASE: bool, const INDEX: bool>(m: &Machine<'_>, u: &Uop) -> u64 {
    let mut a = u.imm;
    if BASE {
        a = a.wrapping_add(m.regs[u.a as usize]);
    }
    if INDEX {
        a = a.wrapping_add(m.regs[u.b as usize].wrapping_mul(u.c as u64));
    }
    a
}

fn u_ld<const BASE: bool, const INDEX: bool>(m: &mut Machine<'_>, u: &Uop) -> Result<(), Trap> {
    let a = uop_addr::<BASE, INDEX>(m, u);
    m.regs[u.d as usize] = m.mem_read(a)?;
    Ok(())
}

fn u_st<const BASE: bool, const INDEX: bool>(m: &mut Machine<'_>, u: &Uop) -> Result<(), Trap> {
    let a = uop_addr::<BASE, INDEX>(m, u);
    m.mem_write_t::<true>(a, m.regs[u.d as usize])
}

fn u_fld<const BASE: bool, const INDEX: bool>(m: &mut Machine<'_>, u: &Uop) -> Result<(), Trap> {
    let a = uop_addr::<BASE, INDEX>(m, u);
    m.fregs[u.d as usize] = m.mem_read(a)?;
    Ok(())
}

fn u_fst<const BASE: bool, const INDEX: bool>(m: &mut Machine<'_>, u: &Uop) -> Result<(), Trap> {
    let a = uop_addr::<BASE, INDEX>(m, u);
    m.mem_write_t::<true>(a, m.fregs[u.d as usize])
}

fn u_lea<const BASE: bool, const INDEX: bool>(m: &mut Machine<'_>, u: &Uop) -> Result<(), Trap> {
    m.regs[u.d as usize] = uop_addr::<BASE, INDEX>(m, u);
    Ok(())
}

fn u_push(m: &mut Machine<'_>, u: &Uop) -> Result<(), Trap> {
    m.push_t::<true>(m.regs[u.a as usize])
}

fn u_pop(m: &mut Machine<'_>, u: &Uop) -> Result<(), Trap> {
    let v = m.pop()?;
    m.regs[u.a as usize] = v;
    Ok(())
}

fn u_rdflags(m: &mut Machine<'_>, u: &Uop) -> Result<(), Trap> {
    m.regs[u.a as usize] = m.flags as u64;
    Ok(())
}

fn u_wrflags(m: &mut Machine<'_>, u: &Uop) -> Result<(), Trap> {
    m.flags = (m.regs[u.a as usize] & 0xf) as u8;
    Ok(())
}

fn u_fxori(m: &mut Machine<'_>, u: &Uop) -> Result<(), Trap> {
    m.fregs[u.a as usize] ^= u.imm;
    Ok(())
}

/// Select the memory-shape instantiation of a base/index const-generic
/// handler for `$mem` and build its µop (a = base, b = index, c = scale,
/// d = data register, imm = displacement).
macro_rules! mem_uop {
    ($f:ident, $mem:expr, $data:expr) => {{
        let mem: &Mem = $mem;
        let exec: UopFn = match (mem.base.is_some(), mem.index.is_some()) {
            (false, false) => $f::<false, false>,
            (true, false) => $f::<true, false>,
            (false, true) => $f::<false, true>,
            (true, true) => $f::<true, true>,
        };
        let (ix, scale) = mem.index.unwrap_or((0, 0));
        Uop {
            exec,
            a: mem.base.unwrap_or(0),
            b: ix,
            c: scale,
            d: $data,
            imm: mem.disp as u64,
        }
    }};
}

fn simple(exec: UopFn, a: u8, b: u8, c: u8, imm: u64) -> Uop {
    Uop { exec, a, b, c, d: 0, imm }
}

/// Lower one instruction to its µop. Terminators get a placeholder that is
/// never dispatched (their `fused_len` is always 0).
fn lower(instr: &MInstr) -> Uop {
    match *instr {
        MInstr::Nop => simple(u_nop, 0, 0, 0, 0),
        MInstr::MovRR { rd, ra } => simple(u_mov_rr, rd, ra, 0, 0),
        MInstr::MovRI { rd, imm } => simple(u_mov_ri, rd, 0, 0, imm as u64),
        MInstr::FMovRR { fd, fa } => simple(u_fmov_rr, fd, fa, 0, 0),
        MInstr::FMovRI { fd, imm } => simple(u_fmov_ri, fd, 0, 0, imm),
        MInstr::Alu { op, rd, ra, rb } => simple(alu_rr_fn(op), rd, ra, rb, 0),
        MInstr::AluI { op, rd, ra, imm } => simple(alu_ri_fn(op), rd, ra, 0, imm as u64),
        MInstr::Cmp { ra, rb } => simple(u_cmp, ra, rb, 0, 0),
        MInstr::CmpI { ra, imm } => simple(u_cmp_i, ra, 0, 0, imm as u64),
        MInstr::SetCc { cc, rd } => simple(setcc_fn(cc), rd, 0, 0, 0),
        MInstr::FAlu { op, fd, fa, fb } => simple(falu_fn(op), fd, fa, fb, 0),
        MInstr::FCmp { fa, fb } => simple(u_fcmp, fa, fb, 0, 0),
        MInstr::Cvt { kind, dst, src } => simple(cvt_fn(kind), dst, src, 0, 0),
        MInstr::Ld { rd, ref mem } => mem_uop!(u_ld, mem, rd),
        MInstr::St { rs, ref mem } => mem_uop!(u_st, mem, rs),
        MInstr::FLd { fd, ref mem } => mem_uop!(u_fld, mem, fd),
        MInstr::FSt { fs, ref mem } => mem_uop!(u_fst, mem, fs),
        MInstr::Push { rs } => simple(u_push, rs, 0, 0, 0),
        MInstr::Pop { rd } => simple(u_pop, rd, 0, 0, 0),
        MInstr::RdFlags { rd } => simple(u_rdflags, rd, 0, 0, 0),
        MInstr::WrFlags { rs } => simple(u_wrflags, rs, 0, 0, 0),
        MInstr::FXorI { fd, imm } => simple(u_fxori, fd, 0, 0, imm),
        MInstr::Lea { rd, ref mem } => mem_uop!(u_lea, mem, rd),
        MInstr::Jmp { .. }
        | MInstr::Jcc { .. }
        | MInstr::Call { .. }
        | MInstr::Ret
        | MInstr::CallRt { .. }
        | MInstr::Halt => simple(u_term, 0, 0, 0, 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary::{Binary, Symbol};
    use crate::machine::RunConfig;
    use crate::rt::NoFi;

    fn bin(text: Vec<MInstr>) -> Binary {
        let end = text.len() as u32;
        Binary {
            text,
            data: vec![0; 8],
            symbols: vec![Symbol { name: "main".into(), entry: 0, end }],
            strings: vec!["hello".into()],
            entry: 0,
        }
    }

    /// Drive a full run through `run_sb` with a NoFi runtime (stop never
    /// reached) and return (outcome, cycles, retired).
    fn run_sb(b: &Binary) -> (RunOutcome, u64, u64, TrialFastStats) {
        let sb = SuperblockProgram::new(b);
        let cfg = RunConfig::default();
        let mut m = Machine::new(b, &cfg);
        let mut stats = TrialFastStats::default();
        let max = cfg.max_cycles;
        let out = m
            .run_sb::<_, false>(&sb, &mut NoFi, &mut 0, 0, u64::MAX, None, max, &mut stats)
            .expect("bounded run terminates");
        (out, m.cycles, m.instrs_retired, stats)
    }

    fn run_exact(b: &Binary) -> (RunOutcome, u64, u64) {
        let r = Machine::run(b, &RunConfig::default(), &mut NoFi, None);
        (r.outcome, r.cycles, r.instrs_retired)
    }

    #[test]
    fn straight_line_block_matches_exact() {
        let b = bin(vec![
            MInstr::MovRI { rd: 1, imm: 6 },
            MInstr::MovRI { rd: 2, imm: 7 },
            MInstr::Alu { op: AluOp::Mul, rd: 0, ra: 1, rb: 2 },
            MInstr::AluI { op: AluOp::Sub, rd: 0, ra: 0, imm: 42 },
            MInstr::Halt,
        ]);
        let (out, cycles, retired, stats) = run_sb(&b);
        assert_eq!((out, cycles, retired), run_exact(&b));
        assert_eq!(out, RunOutcome::Exit(0));
        assert_eq!(stats.sb_dispatches, 1);
        assert_eq!(stats.sb_fused_instrs, 4);
        // Halt ends the run without retiring, exactly like the exact loop.
        assert_eq!(stats.sb_stepped_instrs, 0);
    }

    #[test]
    fn mid_block_trap_materializes_exact_state() {
        // Block: two movs, a div-by-zero (traps), then a mov that must not
        // execute.
        let b = bin(vec![
            MInstr::MovRI { rd: 1, imm: 1 },
            MInstr::MovRI { rd: 2, imm: 0 },
            MInstr::Alu { op: AluOp::Div, rd: 0, ra: 1, rb: 2 },
            MInstr::MovRI { rd: 3, imm: 9 },
            MInstr::Halt,
        ]);
        let (out, cycles, retired, _) = run_sb(&b);
        let (eo, ec, er) = run_exact(&b);
        assert_eq!(out, RunOutcome::Trap(Trap::DivFault));
        assert_eq!((out, cycles, retired), (eo, ec, er));
    }

    #[test]
    fn loops_and_branches_match_exact() {
        // Sum 1..=10 with a backward branch: alternating fused bodies and
        // exact-stepped terminators.
        let b = bin(vec![
            MInstr::MovRI { rd: 1, imm: 0 },  // acc
            MInstr::MovRI { rd: 2, imm: 10 }, // i
            MInstr::Alu { op: AluOp::Add, rd: 1, ra: 1, rb: 2 }, // loop head
            MInstr::AluI { op: AluOp::Sub, rd: 2, ra: 2, imm: 1 },
            MInstr::CmpI { ra: 2, imm: 0 },
            MInstr::Jcc { cc: Cc::Gt, target: 2 },
            MInstr::Alu { op: AluOp::Sub, rd: 0, ra: 1, rb: 0 },
            MInstr::AluI { op: AluOp::Sub, rd: 0, ra: 0, imm: 55 },
            MInstr::Halt,
        ]);
        let (out, cycles, retired, stats) = run_sb(&b);
        assert_eq!((out, cycles, retired), run_exact(&b));
        assert_eq!(out, RunOutcome::Exit(0));
        assert!(stats.sb_dispatches >= 10);
        assert!(stats.sb_fused_instrs > stats.sb_stepped_instrs);
    }

    #[test]
    fn memory_shapes_resolve_without_options() {
        // abs, base+disp, and base+index*scale addressing in one block.
        let b = bin(vec![
            MInstr::MovRI { rd: 1, imm: 0x0001_0000 }, // GLOBAL_BASE
            MInstr::MovRI { rd: 2, imm: 2 },
            MInstr::MovRI { rd: 3, imm: 77 },
            MInstr::St { rs: 3, mem: Mem { base: Some(1), index: Some((2, 8)), disp: 0 } },
            MInstr::Ld { rd: 4, mem: Mem { base: None, index: None, disp: 0x0001_0010 } },
            MInstr::Alu { op: AluOp::Sub, rd: 0, ra: 4, rb: 3 },
            MInstr::Halt,
        ]);
        let (out, cycles, retired, _) = run_sb(&b);
        assert_eq!((out, cycles, retired), run_exact(&b));
        assert_eq!(out, RunOutcome::Exit(0));
    }

    #[test]
    fn last_instruction_is_never_fused() {
        let b = bin(vec![MInstr::MovRI { rd: 0, imm: 1 }, MInstr::Nop]);
        let sb = SuperblockProgram::new(&b);
        assert_eq!(sb.fused_len[1], 0);
        let (out, cycles, retired, _) = run_sb(&b);
        assert_eq!((out, cycles, retired), run_exact(&b));
        assert_eq!(out, RunOutcome::Trap(Trap::BadPc(2)));
    }

    #[test]
    fn block_metadata_identities_hold() {
        let b = bin(vec![
            MInstr::MovRI { rd: 1, imm: 1 },
            MInstr::MovRI { rd: 2, imm: 2 },
            MInstr::Jmp { target: 0 },
            MInstr::Halt,
        ]);
        let sb = SuperblockProgram::new(&b);
        assert_eq!(sb.fused_len, vec![2, 1, 0, 0]);
        assert_eq!(sb.fused_cost[0], 2); // two 1-cycle movs
        assert_eq!(sb.block_count(), 1);
        assert_eq!(sb.len(), 4);
    }
}
