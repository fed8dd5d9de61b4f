//! Trace-fused direct-threaded execution engine: the trial fast path.
//!
//! The exact interpreter ([`Machine::step`](crate::machine::Machine)) pays
//! a 31-arm `match` decode, branchy `Option<base>/Option<index>` effective
//! addresses, and per-instruction cycle/retired/pc bookkeeping for every
//! executed instruction. This module predecodes the text section once into a
//! flat µop array whose operand offsets are fully resolved (the memory-shape
//! `Option`s are burned into the function pointer via const generics), links
//! the µops into forward *traces*, and dispatches each trace through
//! direct-threaded fn-pointer calls with one cycles/retired/pc/event update
//! per trace.
//!
//! Traces: a trace follows fall-through, crosses an unconditional `Jmp`
//! whose target lies ahead, and crosses a `Jcc` along its fall-through:
//! the `Jcc` µop is a guard, and when its condition holds the trace
//! side-exits (the `Jcc` retires and `pc` becomes its target). Every trace
//! edge points forward, so one reverse scan builds per-pc suffix sums along
//! the trace's instruction path (`fused_x[pc] = x[pc] + fused_x[succ]`).
//!
//! Dispatch: every µop carries the pc of the next µop its trace
//! dispatches, which may skip ahead of the instruction path, because the
//! accounting never reads it. A trace run to its end is accounted with
//! `fused_x[head]`; one stopped early — by a trap or a side exit — is
//! accounted by the stopping instruction `k` itself, `fused_x[head] -
//! fused_x[k] + x[k]`. The µop names `k`: its own pc, or for a pair µop's
//! second instruction (the first retired) the first half's tail, from which
//! the exit finds the second's pc (`second_pc`). An absorbed tail runs
//! only after its instruction completed and never stops a trace.
//! Four rules skip ahead:
//!
//! - *No-op linking*: a `Nop`, a forward `Jmp` and an LLFI `injectFault`
//!   hook do nothing while the runtime only counts, so a µop's `next` skips
//!   them and they run only as trace heads.
//! - *LLFI hook µops*: `mov r0 <- x; injectFault; mov y <- r0` (integer or
//!   floating-point) is one µop, the `mov` with a `COPY` tail (below),
//!   which runs only where a trace starts on it.
//! - *Absorption*: a one-instruction µop runs its instruction's kernel
//!   with a const tail `T` that also covers what follows it on the trace.
//!   The non-firing path REFINE emits around each site (save `r0`/FLAGS,
//!   `selInstr`, test, skip, restore) nets out to two save-area stores
//!   (`SITE`). LLFI's hook plumbing on the register `x` the instruction
//!   wrote nets out to `r0 = x` (`HOOK`: `mov r0 <- x; injectFault`,
//!   with the `mov` or store of `r0` after it left to its own µop) or `r0 =
//!   x; y = x` (`HOOK_COPY`: the whole copy), and a move `mov y <- x` of
//!   what it wrote to `y = x` (`COPY`: also `injectFault; mov y <- r0`
//!   after a writer of `r0` itself). The tail runs only if the
//!   instruction completed. A site's own *site skip* µop runs only where a
//!   trace starts on it.
//! - *Pair µops*: a one-instruction µop and the one its trace dispatches
//!   next run as one µop, `two`, whose halves are the two instructions'
//!   kernels each with its own tail, so a pair crosses REFINE sites and
//!   LLFI hook plumbing. The combinations built are a table
//!   (`pair_table`): the compare-and-guard, load-and-operate, memory,
//!   move, guard-and-move and stack families, and the combinations of
//!   kernels and tails that ran most often unpaired. A pair is built where
//!   both halves' operands fit one µop (registers in nibbles; two
//!   immediates in 32 bits each). Either half may stop the trace, and the
//!   µop reports which.
//!
//! None of these moves a trace head or a trace's end, so µop fusion never
//! changes the dispatch, fused or stepped instruction counts of a run: only
//! the µops it dispatches ([`TrialFastStats::sb_uops`]).
//!
//! The fused loop only ever runs counting-only runtimes (a one-shot
//! injector is counting-only before its target event and after it fired),
//! so the FI hooks are ordinary µops: `selInstr` sets `r0 = 0` and the LLFI
//! `injectFault` calls are the identity. Whether an instruction is an FI
//! event is fixed when the program is built — hook calls
//! ([`SuperblockProgram::new`], REFINE and LLFI) or FI targets at fetch
//! ([`SuperblockProgram::probed`], PINFI) — and events are tallied through
//! a suffix sum like cycles.
//!
//! Fusion boundaries: a trace ends at a backward `Jmp`, `Call`, `Ret`,
//! `Halt`, a non-FI `CallRt` (output events and libm calls), `setupFI`, a
//! branch whose target is outside the text section, and any instruction
//! whose fall-through would leave it (so the strict pc-bounds trap is always
//! raised by the exact step). Instructions that can trap mid-trace (memory,
//! divide, push/pop) *are* fused: the dispatcher materializes the exact
//! architectural state at the trapping µop — same cycles (cost of the
//! trapping instruction included, as the exact loop adds cost before
//! stepping), same retired count (trapping instruction not retired), and
//! `pc` left on the trapping instruction.
//!
//! One fused loop, monomorphized over three modes: the quiescent prefix
//! and plain post-fire suffix of [`Machine::run_sb`] run without snapshot
//! checks; a post-fire suffix with convergence on splices the golden
//! outcome once its state equals a golden snapshot's; and a checkpointed
//! profiling run ([`Machine::run_profile`]) stops at each due retired count
//! to capture a snapshot. It
//! reproduces the exact interpreter's accounting bit-for-bit and falls back
//! to single exact steps whenever a trace could cross a semantic boundary
//! the exact loop observes per-instruction: the FI-event stop count, the
//! cycle budget, a golden snapshot's `(fi_count, pc)` match point, or a
//! snapshot's due retired count.

use crate::binary::Binary;
use crate::checkpoint::{
    diff_pages_from, Checkpoint, CheckpointBuilder, CheckpointStore, DirtyPage, PAGE_WORDS,
};
use crate::isa::{fi_outputs, AluOp, Cc, CvtKind, FAluOp, MInstr, Mem, RtFunc, SP};
use crate::machine::{
    GoldenEnd, Machine, OutEvent, RunConfig, RunOutcome, RunResult, Step, Trap, GLOBAL_BASE,
};
use crate::rt::NoFi;
use std::sync::OnceLock;

/// A µop handler: executes one fused µop's data side effects, one
/// instruction's or a pair's two. Never touches `pc`, `cycles` or
/// `instrs_retired` — the trace dispatcher accounts for those in bulk.
type UopFn = fn(&mut Machine<'_>, &Uop) -> Result<(), Exit>;

/// Why a µop ended its trace early, and which of its instructions did: a
/// one-instruction µop's or a pair µop's first half (at the µop's pc), or
/// a pair's second half ([`Exit::Second`]). A trapping instruction is
/// charged but not retired; a taken guard retires.
///
/// Flat, with at most one word of payload per variant: the result of every
/// µop is then a tag and a word and comes back in two registers, where a
/// nested `Trap` beside another payload would go through memory.
#[derive(Debug, Clone, Copy)]
enum Exit {
    /// [`Trap::Segfault`] at this address.
    Segfault(u64),
    /// [`Trap::Misaligned`] at this address.
    Misaligned(u64),
    /// [`Trap::DivFault`].
    DivFault,
    /// A `Jcc` guard's condition held: the run continues at this target.
    Taken(u64),
    /// A pair µop's second half trapped or took its guard. The payload is
    /// the first half's tail, from which [`second_pc`] finds the second
    /// instruction; [`Machine::second_exit`] reads the trap or target off
    /// that instruction and the state it left.
    Second(u64),
}

const _: () = assert!(std::mem::size_of::<Result<(), Exit>>() == 16);

impl From<Trap> for Exit {
    fn from(t: Trap) -> Self {
        match t {
            Trap::Segfault(a) => Exit::Segfault(a),
            Trap::Misaligned(a) => Exit::Misaligned(a),
            Trap::DivFault => Exit::DivFault,
            Trap::BadPc(_) => unreachable!("a fused µop never transfers control"),
        }
    }
}

/// The pc of the second instruction of the pair µop at `k` whose first
/// half ran with tail `first_tail`: the first µop its trace dispatches
/// past what the first half covers, found the way the build linked it.
/// Only an exit needs it, so no per-pc array holds it.
fn second_pc(text: &[MInstr], k: usize, first_tail: u8) -> usize {
    let p = linked(text, k + 1);
    let after = match first_tail {
        // The site's PreFI ends with `jmp post`; its PostFI is 3 long.
        SITE => match text[p + 6] {
            MInstr::Jmp { target } => target as usize + 3,
            _ => unreachable!("a site's PreFI ends with its `jmp post`"),
        },
        HOOK => p + 2,
        COPY => p + 1,
        HOOK_COPY => p + 3,
        _ => return p,
    };
    linked(text, after)
}

/// The first µop a trace passing `pc` dispatches: `pc`, or the first pc
/// past the no-ops ([`is_noop`]) from it. Only for pcs inside a trace,
/// whose no-ops all continue forward.
fn linked(text: &[MInstr], mut pc: usize) -> usize {
    loop {
        pc = match text[pc] {
            MInstr::Jmp { target } => {
                debug_assert!(target as usize > pc, "a trace never crosses a backward `Jmp`");
                target as usize
            }
            ref i if is_noop(i) => pc + 1,
            _ => return pc,
        };
    }
}

/// One predecoded µop with fully resolved operand offsets. A
/// one-instruction µop holds its kernel's [`Ops`] as they are; a pair µop
/// ([`two`]) holds each half's four operand bytes as nibbles (`a`, `b` the
/// first half's, `c`, `d` the second's) and their immediates in `imm`.
#[derive(Debug, Clone, Copy)]
struct Uop {
    exec: UopFn,
    imm: u64,
    /// The pc of the next µop the trace dispatches, past any no-ops and an
    /// absorbed site, or the trace's end.
    next: u32,
    a: u8,
    b: u8,
    c: u8,
    d: u8,
}

// `next` lives in what would otherwise be padding; a wider µop would grow
// every prepared artifact's resident size.
const _: () = assert!(std::mem::size_of::<Uop>() == 24);

/// The exact-step fallback's view of one pc: its instruction's cycle cost
/// and FI-event flag. The fallback steps the binary's own instruction.
#[derive(Debug, Clone, Copy)]
struct Slot {
    cost: u8,
    is_event: bool,
}

// Two bytes per pc, resident in every prepared artifact: the binary holds
// the instruction, and the largest cost (an LLFI hook's `CallRt`) is 92.
const _: () = assert!(std::mem::size_of::<Slot>() == 2);

/// [`Machine::sb_loop`] modes: a quiescent prefix or plain suffix, a
/// convergence-tracked suffix, and a checkpointed profiling run.
const PLAIN: u8 = 0;
const CONV: u8 = 1;
const CAPTURE: u8 = 2;

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
    /// Fused trace dispatches this trial (0 for the exact oracle).
    pub sb_dispatches: u64,
    /// µops those dispatches ran: a trace runs one µop per instruction
    /// less the ones it links past, absorbs or pairs.
    pub sb_uops: u64,
    /// Instructions retired through fused dispatch this trial.
    pub sb_fused_instrs: u64,
    /// Instructions retired via exact single-step fallback inside the
    /// fused loop this trial.
    pub sb_stepped_instrs: u64,
}

/// The predecoded, trace-fused form of one binary's text section.
///
/// Built once per prepared artifact and shared read-only across trial
/// threads.
#[derive(Debug)]
pub struct SuperblockProgram {
    /// One µop per text instruction; terminator slots hold a placeholder
    /// that is never dispatched (their `fused_len` is 0).
    uops: Vec<Uop>,
    /// `fused_len[pc]` = instructions the trace headed at `pc` retires
    /// when it runs to its end (0 when `pc` must be stepped exactly).
    fused_len: Vec<u32>,
    /// Suffix-sum cycle costs along the trace's instruction path:
    /// `fused_cost[pc]` is the full trace cost, and a trace from `head`
    /// stopped by the instruction at `k` costs `fused_cost[head] -
    /// fused_cost[k] + slots[k].cost`.
    fused_cost: Vec<u64>,
    /// Suffix-sum FI-event counts, same indexing identities.
    fused_events: Vec<u32>,
    /// The terminator pc the trace headed at `pc` ends on; every pc the
    /// trace passes lies strictly between `pc` and it.
    trace_end: Vec<u32>,
    /// Per-pc data for the exact-step fallback.
    slots: Vec<Slot>,
    /// [`SuperblockProgram::block_count`], counted at build time.
    blocks: usize,
    /// The data-segment word indices of the save-area words (`r0`, FLAGS)
    /// every skipped REFINE site stores to: the `save_base` pair of
    /// `refine_core::pass`.
    site_words: (usize, usize),
}

impl SuperblockProgram {
    /// Predecode and fuse `binary`'s text section, counting FI-hook calls
    /// (`selInstr`, `injectFault`) as FI events: the population of REFINE
    /// and LLFI binaries.
    pub fn new(binary: &Binary) -> Self {
        Self::build(binary, false)
    }

    /// Predecode and fuse `binary`'s text section, counting every fetched
    /// FI target (an instruction with an output operand) as an FI event:
    /// the population a DBI probe (PINFI) samples.
    pub fn probed(binary: &Binary) -> Self {
        Self::build(binary, true)
    }

    fn build(binary: &Binary, probed: bool) -> Self {
        let text = &binary.text;
        let n = text.len();
        let slots: Vec<Slot> = text
            .iter()
            .map(|i| {
                let is_event = if probed { !fi_outputs(i).is_empty() } else { is_fi_hook(i) };
                let cost = u8::try_from(i.cycles()).expect("instruction cycle cost fits u8");
                Slot { cost, is_event }
            })
            .collect();
        let mut uops = vec![Uop { exec: u_term, imm: 0, next: 0, a: 0, b: 0, c: 0, d: 0 }; n];
        let mut fused_len = vec![0u32; n];
        let mut fused_cost = vec![0u64; n];
        let mut fused_events = vec![0u32; n];
        let mut trace_end = vec![0u32; n];
        // Build-time only: `link[pc]` is the first µop a trace passing `pc`
        // dispatches (past any no-ops), `merge[pc]` what the µop before it
        // on a trace may absorb of the µop at `pc`, and `single[pc]` how
        // that µop runs as one instruction, which a pair µop before it
        // recreates as its second half.
        let mut link: Vec<u32> = (0..n as u32).collect();
        let mut merge = vec![Merge::None; n];
        let mut single = vec![Single::default(); n];
        let mut site_words = None;
        // Reverse scan: every trace edge points forward, so a successor's
        // sums, links and µops are final before its predecessors read them.
        for pc in (0..n).rev() {
            let Some(succ) = successor(&text[pc], pc, n) else {
                continue;
            };
            fused_len[pc] = 1 + fused_len[succ];
            fused_cost[pc] = u64::from(slots[pc].cost) + fused_cost[succ];
            fused_events[pc] = u32::from(slots[pc].is_event) + fused_events[succ];
            trace_end[pc] = if fused_len[succ] > 0 { trace_end[succ] } else { succ as u32 };
            if is_noop(&text[pc]) {
                link[pc] = link[succ];
            }
            // Every site stores to the same two save-area words; one that
            // does not runs one µop per instruction.
            let site = site_skip(binary, pc)
                .filter(|&(_, words)| *site_words.get_or_insert(words) == words);
            let hook = hook_at(text, pc);
            let own = Half::decode(&text[pc]).expect("a fused instruction has a kernel");
            // This pc's one-instruction µop, the real pc after the
            // instructions it covers itself, and what it offers the µop
            // before it.
            let (mut half, mut y, after, mut offer) = if let Some((post, _)) = site {
                (Half::SITE_SKIP, 0, post + 3, Merge::Site)
            } else if let Some(h @ Hook { copy: Some(y), .. }) = hook {
                // Heading a trace, the copy form's `mov r0 <- x` runs the
                // whole plumbing as a `COPY` tail: `r0 = x; y = r0`.
                let copy = own.with_tail(COPY, y).expect("plumbing starts with a move");
                (copy, y, pc + 3, Merge::Hook(h))
            } else {
                (own, 0, succ, hook.map_or(Merge::One, Merge::Hook))
            };
            let mut next = link[after] as usize;
            // A one-instruction µop absorbs a site, hook plumbing or a move
            // of what it wrote after it as its tail, and continues where
            // the absorbed µop did.
            if after == succ {
                let (tail, copy_to) = match merge[next] {
                    Merge::Site => (SITE, 0),
                    Merge::Hook(h) if half.dest == Some((h.float, h.x)) => match h.copy {
                        Some(y) => (HOOK_COPY, y),
                        None => (HOOK, 0),
                    },
                    Merge::One => match mov_operands(&text[next]) {
                        Some((float, y, x)) if half.dest == Some((float, x)) => (COPY, y),
                        _ => (NO_TAIL, 0),
                    },
                    _ => (NO_TAIL, 0),
                };
                if let Some(h) = half.with_tail(tail, copy_to).filter(|_| tail != NO_TAIL) {
                    (half, y) = (h, copy_to);
                    next = single[next].next as usize;
                    offer = Merge::None;
                }
            }
            // It pairs with the one-instruction µop its trace dispatches
            // next where a pair µop is built for the two.
            let second = || {
                let s = single[next];
                let h = match merge[next] {
                    Merge::Site => Half::SITE_SKIP,
                    _ => Half::decode(&text[next])?.with_tail(s.tail, s.y)?,
                };
                half.pair(&h, s.next as usize)
            };
            uops[pc] = (fused_len[next] > 0).then(second).flatten().unwrap_or_else(|| half.uop(next));
            single[pc] = Single { tail: half.tail, y, next: next as u32 };
            merge[pc] = offer;
        }
        let site_words = site_words.unwrap_or_default();
        let blocks = block_count(text, &fused_len);
        SuperblockProgram {
            uops,
            fused_len,
            fused_cost,
            fused_events,
            trace_end,
            slots,
            blocks,
            site_words,
        }
    }

    /// Number of predecoded instructions (== text length).
    pub fn len(&self) -> usize {
        self.uops.len()
    }

    /// Whether the text section is empty.
    pub fn is_empty(&self) -> bool {
        self.uops.is_empty()
    }

    /// Number of trace heads: fused pcs no fused instruction continues
    /// into, i.e. the distinct traces a run enters from exactly stepped
    /// code (a trace started anywhere else is the tail of one of these).
    pub fn block_count(&self) -> usize {
        self.blocks
    }

    /// What one dispatch of the µop at `pc` does when it completes without
    /// an exit: the instructions it retires (its own, the REFINE site or
    /// LLFI hook plumbing it absorbed or the instruction it pairs with, the
    /// no-ops it links past) and the pc its trace continues
    /// at, the next µop dispatched or the trace's end. `None` when `pc` is
    /// stepped exactly.
    pub fn dispatch(&self, pc: usize) -> Option<(u32, usize)> {
        let len = *self.fused_len.get(pc)?;
        let next = self.uops[pc].next as usize;
        (len > 0).then(|| (len - self.fused_len[next], next))
    }

    /// Whether a run entering the trace headed at `pc` with `fi` events
    /// counted cannot pass a golden snapshot's `(fi_count, pc)` match point
    /// inside the trace, where the fused loop would not check it. `ckpts`
    /// starts at the loop's cursor, the first snapshot with `fi_count >=
    /// fi`. A trace only moves forward, so it passes each pc at most once,
    /// with an event count in `[fi, fi + fused_events[pc]]`: a
    /// per-instruction run would check every snapshot whose count the
    /// trace reaches, so each of those must sit outside the trace's pc
    /// range. The rule holds whichever instructions are FI events.
    fn passes_no_snapshot(&self, ckpts: &[Checkpoint], fi: u64, pc: usize) -> bool {
        let last = fi + u64::from(self.fused_events[pc]);
        let end = self.trace_end[pc] as usize;
        ckpts
            .iter()
            .take_while(|ck| ck.fi_count <= last)
            .all(|ck| ck.pc as usize <= pc || ck.pc as usize >= end)
    }
}

/// [`SuperblockProgram::block_count`] of the program fusing `text` into
/// traces of `fused_len`.
fn block_count(text: &[MInstr], fused_len: &[u32]) -> usize {
    let n = text.len();
    let mut entered = vec![false; n];
    for (pc, i) in text.iter().enumerate() {
        if fused_len[pc] > 0 {
            if let Some(next) = successor(i, pc, n) {
                entered[next] = true;
            }
        }
    }
    (0..n).filter(|&pc| fused_len[pc] > 0 && !entered[pc]).count()
}

/// `selInstr` and the LLFI `injectFault` calls: the FI hooks whose calls
/// are the REFINE/LLFI population, pure while the runtime only counts.
fn is_fi_hook(i: &MInstr) -> bool {
    matches!(
        i,
        MInstr::CallRt { func: RtFunc::FiSelInstr | RtFunc::LlfiInjectI | RtFunc::LlfiInjectF, .. }
    )
}

/// The pc a fused `instr` at `pc` continues to, or `None` when it ends a
/// trace and is stepped exactly. A `Jcc` continues along its fall-through
/// (taken is a side exit); its target must lie inside the text so a taken
/// guard lands where the exact step would without trapping.
fn successor(instr: &MInstr, pc: usize, n: usize) -> Option<usize> {
    let next = match *instr {
        MInstr::Jmp { target } if target as usize > pc => target as usize,
        MInstr::Jcc { target, .. } if target as usize >= n => return None,
        MInstr::CallRt { .. } if !is_fi_hook(instr) => return None,
        MInstr::Jmp { .. } | MInstr::Call { .. } | MInstr::Ret | MInstr::Halt => return None,
        _ => pc + 1,
    };
    (next < n).then_some(next)
}

/// A µop with no effect while the runtime only counts: a `Nop`, a forward
/// `Jmp` or an LLFI `injectFault` hook. A trace links past it, so it runs
/// only as a trace head.
fn is_noop(i: &MInstr) -> bool {
    matches!(
        i,
        MInstr::Nop
            | MInstr::Jmp { .. }
            | MInstr::CallRt { func: RtFunc::LlfiInjectI | RtFunc::LlfiInjectF, .. }
    )
}

/// How the one-instruction µop at a pc runs (build time only): its tail,
/// a copying tail's `y`, and the pc its trace continues at.
#[derive(Debug, Clone, Copy, Default)]
struct Single {
    tail: u8,
    y: u8,
    next: u32,
}

/// What the µop before a pc on a trace may do with the µop at it (build
/// time only).
#[derive(Debug, Clone, Copy)]
enum Merge {
    /// Nothing: a trace end, or a µop that already covers more than its own
    /// instruction.
    None,
    /// Absorb it as a [`COPY`] tail when it moves what the µop before
    /// wrote: a one-instruction µop with no tail.
    One,
    /// Absorb it as a [`SITE`] tail: a REFINE site's skip µop.
    Site,
    /// Absorb it as a [`HOOK`] or [`HOOK_COPY`] tail: LLFI hook plumbing.
    Hook(Hook),
}

/// LLFI hook plumbing: `mov r0 <- x; injectFaultI`, or its
/// `fmov`/`injectFaultF` form when `float`, and with `copy = Some(y)` the
/// `mov y <- r0` (`fmov`) after it. The hook is the identity while the
/// runtime only counts.
#[derive(Debug, Clone, Copy)]
struct Hook {
    float: bool,
    x: u8,
    copy: Option<u8>,
}

/// Match LLFI's hook plumbing at `pc`, only where the hook, and the copy's
/// `mov` when there is one, fall through inside the text, so the plumbing
/// is one trace. The copy form's own µop at `pc` runs all three where a
/// trace starts on it.
fn hook_at(text: &[MInstr], pc: usize) -> Option<Hook> {
    use MInstr::{CallRt, FMovRR, MovRR};
    let (float, x) = match *text.get(pc..pc + 2)? {
        [MovRR { rd: 0, ra }, CallRt { func: RtFunc::LlfiInjectI, .. }] => (false, ra),
        [FMovRR { fd: 0, fa }, CallRt { func: RtFunc::LlfiInjectF, .. }] => (true, fa),
        _ => return None,
    };
    if pc + 2 >= text.len() {
        return None;
    }
    let copy = match text[pc + 2] {
        _ if pc + 3 >= text.len() => None,
        MovRR { rd, ra: 0 } if !float => Some(rd),
        FMovRR { fd, fa: 0 } if float => Some(fd),
        _ => None,
    };
    Some(Hook { float, x, copy })
}

/// Match the non-firing path `refine_core::pass` emits for one FI site
/// with its PreFI at `pc`:
///
/// ```text
/// pc:    st r0 -> [A]; rdflags r0; st r0 -> [F]; callrt selInstr;
///        cmpi r0, 0; jcc ne <setup>; jmp post
/// post:  ld r0 <- [F]; wrflags r0; ld r0 <- [A]
/// ```
///
/// With `selInstr` returning 0 its net effect is the two stores — `r0`
/// and FLAGS end unchanged. Returns `post` and the data-segment word
/// indices of `A` and `F` only when the ten instructions are one trace
/// (`setup` inside the text, `post` ahead, the run falling through inside
/// the text) and `A` and `F` are distinct aligned absolute data-segment
/// words (so the stores cannot trap).
fn site_skip(binary: &Binary, pc: usize) -> Option<(usize, (usize, usize))> {
    use MInstr::{CallRt, CmpI, Jcc, Jmp, Ld, RdFlags, St, WrFlags};
    let text = &binary.text;
    let pre = text.get(pc..pc + 7)?;
    let (St { rs: 0, mem: save_r0 }, St { rs: 0, mem: save_flags }, Jmp { target }) =
        (pre[0], pre[2], pre[6])
    else {
        return None;
    };
    let post = target as usize;
    if post <= pc + 6 || post + 3 >= text.len() {
        return None;
    }
    let (Ld { rd: 0, mem: load_flags }, Ld { rd: 0, mem: load_r0 }) = (text[post], text[post + 2])
    else {
        return None;
    };
    let plumbing = matches!(pre[1], RdFlags { rd: 0 })
        && matches!(pre[3], CallRt { func: RtFunc::FiSelInstr, .. })
        && matches!(pre[4], CmpI { ra: 0, imm: 0 })
        && matches!(pre[5], Jcc { cc: Cc::Ne, target } if (target as usize) < text.len())
        && matches!(text[post + 1], WrFlags { rs: 0 });
    if !plumbing {
        return None;
    }
    let (a, f) = (save_word(binary, &save_r0)?, save_word(binary, &save_flags)?);
    (a != f && load_r0 == save_r0 && load_flags == save_flags).then_some((post, (a, f)))
}

/// The data-segment word index `mem` names when it is an absolute,
/// aligned word of the data segment.
fn save_word(binary: &Binary, mem: &Mem) -> Option<usize> {
    let addr = u64::try_from(mem.disp).ok()?;
    let word = usize::try_from(addr.checked_sub(GLOBAL_BASE)? / 8).ok()?;
    let ok = mem.base.is_none()
        && mem.index.is_none()
        && addr.is_multiple_of(8)
        && word < binary.data.len();
    ok.then_some(word)
}

/// Panic unless `sb` was built for a text of `binary`'s length: its
/// exact-step fallback steps `binary`'s instructions by pc, so a program
/// built for another binary would run that binary's costs and traces over
/// this one's instructions.
fn assert_built_for(sb: &SuperblockProgram, binary: &Binary) {
    assert!(
        sb.len() == binary.text.len(),
        "superblock program of {} instructions run on a {}-instruction binary",
        sb.len(),
        binary.text.len()
    );
}

impl<'a> Machine<'a> {
    /// Execute the trace headed at `head` (`fused_len[head] > 0`
    /// guaranteed by the caller), tallying its FI events into `count` and
    /// `overhead` cycles per fetched instruction. On success `pc` lands on
    /// the trace's end or a taken guard's target; on a trap the
    /// architectural state is exactly what the per-instruction loop would
    /// have left.
    #[inline(always)]
    fn exec_trace(
        &mut self,
        sb: &SuperblockProgram,
        head: usize,
        count: &mut u64,
        overhead: u64,
        stats: &mut TrialFastStats,
    ) -> Result<(), Trap> {
        let end = sb.trace_end[head] as usize;
        let (mut k, mut uops) = (head, 0);
        // `stop` is the instruction that ended the trace early, if one did.
        let (stop, pc, result) = loop {
            let u = &sb.uops[k];
            uops += 1;
            match (u.exec)(self, u) {
                Ok(()) => {
                    k = u.next as usize;
                    if k == end {
                        break (None, end, Ok(()));
                    }
                }
                // The exact loop adds the trapping instruction's cost
                // before stepping but does not retire it, and leaves pc on
                // the trapping instruction.
                Err(exit) => {
                    let (at, pc, result) = self.resolve(exit, k);
                    break (Some(at), pc, result);
                }
            }
        };
        // The stopping instruction `k` is one instruction of its µop (an
        // absorbed tail runs only after its instruction completes), so the
        // trace fetched its path up to `k` and `k` itself: the suffix sums
        // from `k` less `k`'s own share.
        let (rest_len, rest_cost, rest_events) = stop.map_or((0, 0, 0), |k| {
            let own = &sb.slots[k];
            (
                sb.fused_len[k] - 1,
                sb.fused_cost[k] - u64::from(own.cost),
                sb.fused_events[k] - u32::from(own.is_event),
            )
        });
        let fetched = u64::from(sb.fused_len[head] - rest_len);
        let retired = fetched - u64::from(result.is_err());
        self.cycles += sb.fused_cost[head] - rest_cost + fetched * overhead;
        *count += u64::from(sb.fused_events[head] - rest_events);
        self.instrs_retired += retired;
        self.pc = pc as u32;
        stats.sb_dispatches += 1;
        stats.sb_uops += uops;
        stats.sb_fused_instrs += retired;
        result
    }

    /// For `exit` of the µop at pc `k`, taken just now: the pc of the
    /// instruction that stopped, the pc the run continues at, and the trap,
    /// if any.
    fn resolve(&self, exit: Exit, k: usize) -> (usize, usize, Result<(), Trap>) {
        let (at, exit) = match exit {
            Exit::Second(tail) => {
                let at = second_pc(&self.binary.text, k, tail as u8);
                (at, self.second_exit(&self.binary.text[at]))
            }
            first => (k, first),
        };
        match exit {
            Exit::Segfault(a) => (at, at, Err(Trap::Segfault(a))),
            Exit::Misaligned(a) => (at, at, Err(Trap::Misaligned(a))),
            Exit::DivFault => (at, at, Err(Trap::DivFault)),
            Exit::Taken(target) => (at, target as usize, Ok(())),
            Exit::Second(_) => unreachable!("a second half's exit is read off its instruction"),
        }
    }

    /// The exit of a pair's second half `i` that just stopped, read off the
    /// state it left: a guard that stops was taken, an ALU operation that
    /// stops faulted on a divide, and a memory access, push or pop that
    /// stops trapped on its address (a trapping access writes nothing, and
    /// a trapping push has already lowered `sp` to the address).
    fn second_exit(&self, i: &MInstr) -> Exit {
        let addr = match *i {
            MInstr::Jcc { target, .. } => return Exit::Taken(target.into()),
            MInstr::Alu { .. } | MInstr::AluI { .. } => return Exit::DivFault,
            MInstr::Ld { ref mem, .. }
            | MInstr::St { ref mem, .. }
            | MInstr::FLd { ref mem, .. }
            | MInstr::FSt { ref mem, .. } => self.eff_addr(mem),
            MInstr::Push { .. } | MInstr::Pop { .. } => self.regs[SP as usize],
            _ => unreachable!("{i:?} never stops a trace"),
        };
        if addr.is_multiple_of(8) {
            Exit::Segfault(addr)
        } else {
            Exit::Misaligned(addr)
        }
    }

    /// Run with fused dispatch from the current state until `stop` FI
    /// events have been counted. Returns `Some(outcome)` when the run ends
    /// first, `None` at the boundary (the caller attaches the real injector
    /// for the fire window); post-fire suffixes pass `stop = u64::MAX`.
    /// Accounting is the exact interpreter's with no tracer attached; the
    /// dispatch and convergence counters accumulate into `stats`.
    ///
    /// The runtime is counting-only: FI hooks behave as the profiling
    /// library's (`selInstr` returns 0, `injectFault` is the identity), and
    /// the FI events `sb` was built to count are tallied into `count`.
    /// Every fetched instruction costs `overhead` extra cycles, as under an
    /// attached DBI probe (PINFI's quiescent prefix) — charged even for a
    /// trapping instruction; every other run passes 0.
    ///
    /// With a `golden` end (a post-fire suffix with convergence on; `count`
    /// on entry is the one *after* the fault fired), the run also compares
    /// its state with each golden snapshot when the trial reaches the
    /// snapshot's `(fi_count, pc)` position, and on a match splices the
    /// golden suffix and returns its outcome. Snapshots
    /// are matched by `(fi_count, pc)`, not retired count: for the
    /// call-hook tools the taken injection branch retires instructions the
    /// quiescent golden run never executed, so post-fire the trial's
    /// retired counter is permanently skewed against golden's. The
    /// FI-event counter is injection-invariant (the extra branch
    /// instructions are runtime-call plumbing, not FI events), so a trial
    /// whose state re-converges passes through every later golden snapshot
    /// at exactly the snapshot's FI count and pc — where the full-state
    /// comparison decides — while the splice adds golden's *suffix deltas*
    /// onto the trial's own counters, absorbing the skew without measuring
    /// it.
    ///
    /// The loop body is written once and monomorphized on whether `golden`
    /// is set, so quiescent prefixes and plain suffixes run with no
    /// snapshot checks.
    #[allow(clippy::too_many_arguments)]
    pub fn run_sb(
        &mut self,
        sb: &SuperblockProgram,
        count: &mut u64,
        overhead: u64,
        stop: u64,
        golden: Option<(&CheckpointStore, GoldenEnd<'_>)>,
        max: u64,
        stats: &mut TrialFastStats,
    ) -> Option<RunOutcome> {
        assert_built_for(sb, self.binary);
        if golden.is_some() {
            self.sb_loop::<CONV>(sb, count, overhead, stop, golden, 0, max, stats)
        } else {
            self.sb_loop::<PLAIN>(sb, count, overhead, stop, None, 0, max, stats)
        }
    }

    /// A fault-free profiling run of `binary` from its initial state to the
    /// end, fused through `sb` (built for `binary`, fixing which
    /// instructions are FI events) with `overhead` cycles per fetched
    /// instruction (an attached DBI probe's, PINFI's; 0 for the call-hook
    /// tools). Returns the run and its FI-event count, the population.
    ///
    /// With a `builder` it also captures a snapshot each time the retired
    /// count reaches [`CheckpointBuilder::next_due`], at the first dispatch
    /// boundary at or after it (a trace may run past the due count), so
    /// the snapshot's state is the per-instruction loop's after the retire
    /// it records. A snapshot diffs the
    /// data segment against the binary's and the stack from the page of
    /// its lowest written word up (every word below is still zero), so it
    /// equals the full-scan [`Machine::snapshot`]. A page equal to the
    /// previous capture's page of the same index shares its words, whether
    /// or not the builder kept that capture.
    pub fn run_profile(
        binary: &'a Binary,
        cfg: &RunConfig,
        sb: &SuperblockProgram,
        overhead: u64,
        builder: Option<&mut CheckpointBuilder>,
    ) -> (RunResult, u64) {
        assert_built_for(sb, binary);
        let mut m = Machine::new(binary, cfg);
        let (mut count, stats) = (0, &mut TrialFastStats::default());
        let max = cfg.max_cycles;
        let Some(b) = builder else {
            let outcome = m.run_sb(sb, &mut count, overhead, u64::MAX, None, max, stats);
            return (m.into_result(outcome.expect("a run with no stop count ends")), count);
        };
        let mut prev = (Vec::new(), Vec::new());
        let outcome = loop {
            let due = b.next_due(m.instrs_retired);
            let run =
                m.sb_loop::<CAPTURE>(sb, &mut count, overhead, u64::MAX, None, due, max, stats);
            if let Some(outcome) = run {
                break outcome;
            }
            let data = diff_pages_from(&m.data, Some(&binary.data), 0, &prev.0);
            let stack = diff_pages_from(&m.stack, None, m.stack_lo / PAGE_WORDS, &prev.1);
            prev = (data.clone(), stack.clone());
            b.push(m.checkpoint(count, (data, stack)));
        };
        (m.into_result(outcome), count)
    }

    /// The body of [`Machine::run_sb`] and [`Machine::run_profile`]. `MODE`
    /// is [`CONV`] when `golden` is set, [`CAPTURE`] for a checkpointed
    /// profiling run, which returns `None` at the first dispatch boundary
    /// where at least `due` instructions have retired, and [`PLAIN`]
    /// otherwise; `due` is ignored outside [`CAPTURE`].
    #[allow(clippy::too_many_arguments)]
    fn sb_loop<const MODE: u8>(
        &mut self,
        sb: &SuperblockProgram,
        count: &mut u64,
        overhead: u64,
        stop: u64,
        golden: Option<(&CheckpointStore, GoldenEnd<'_>)>,
        due: u64,
        max_cycles: u64,
        stats: &mut TrialFastStats,
    ) -> Option<RunOutcome> {
        self.site_words = sb.site_words;
        let ckpts: &[Checkpoint] = match golden {
            Some((store, _)) if MODE == CONV => &store.checkpoints,
            _ => &[],
        };
        let (binary, entry_retired, mut spliced) = (self.binary, self.instrs_retired, 0);
        // First candidate: the earliest golden snapshot whose FI-event
        // window the trial has not passed yet (fi_count is monotone).
        let mut cursor = ckpts.partition_point(|c| c.fi_count < *count);
        let outcome = loop {
            let fi = *count;
            if fi >= stop {
                break None;
            }
            if MODE == CONV {
                // Skip snapshots whose window passed without a state match
                // (interval thinning can leave adjacent equal counts).
                while ckpts.get(cursor).is_some_and(|c| c.fi_count < fi) {
                    cursor += 1;
                }
                if let (Some(ck), Some((store, end))) = (ckpts.get(cursor), golden) {
                    if ck.fi_count == fi && ck.pc == self.pc {
                        if let Some(saved) = self.splice_golden(store, ck, end, max_cycles) {
                            stats.converged = true;
                            stats.conv_saved_instrs += saved;
                            spliced = saved;
                            break Some(RunOutcome::Exit(end.exit_code));
                        }
                    }
                }
            }
            // A capture snapshots at the first dispatch boundary at or
            // after the due retire, before it checks the cycle budget.
            if MODE == CAPTURE && self.instrs_retired >= due {
                break None;
            }
            if self.cycles >= max_cycles {
                break Some(RunOutcome::Timeout);
            }
            let pc = self.pc as usize;
            let n = sb.fused_len.get(pc).copied().unwrap_or(0);
            // Fuse only when the whole trace stays below every boundary;
            // otherwise step exactly so the boundary instruction is the
            // last one executed, as in the per-instruction loop. A side
            // exit only shortens the trace, so full-trace totals bound it.
            // Strict `<` on cycles: cycle costs are positive, so a
            // trace-final total below budget means no interior timeout
            // check could have fired. A capture's due count is no
            // boundary: a trace may run past it.
            if n > 0
                && fi + u64::from(sb.fused_events[pc]) < stop
                && self.cycles + sb.fused_cost[pc] + u64::from(n) * overhead < max_cycles
                && (MODE != CONV || sb.passes_no_snapshot(&ckpts[cursor..], fi, pc))
            {
                match self.exec_trace(sb, pc, count, overhead, stats) {
                    Ok(()) => continue,
                    Err(t) => break Some(RunOutcome::Trap(t)),
                }
            }
            let (Some(e), Some(instr)) = (sb.slots.get(pc), binary.text.get(pc)) else {
                break Some(RunOutcome::Trap(Trap::BadPc(self.pc as u64)));
            };
            self.cycles += overhead + u64::from(e.cost);
            *count += u64::from(e.is_event);
            match self.step(instr, &mut NoFi) {
                Ok(Step::Continue) => {
                    self.instrs_retired += 1;
                    stats.sb_stepped_instrs += 1;
                }
                Ok(Step::Halt(code)) => break Some(RunOutcome::Exit(code)),
                Err(t) => break Some(RunOutcome::Trap(t)),
            }
        };
        if MODE == CONV {
            stats.conv_checked_instrs += self.instrs_retired - spliced - entry_retired;
        }
        outcome
    }

    /// At golden snapshot `ck`'s match point: if the trial's state equals
    /// the snapshot's, the remainder is deterministic and equal to the
    /// golden run's, so splice `end` onto the trial and return the
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
        max_cycles: u64,
    ) -> Option<u64> {
        if !self.matches_checkpoint(ck, store.exempt_data_words) {
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

    /// Whether the machine's state equals golden snapshot `ck`'s in
    /// everything the rest of the run can observe besides the pc and the
    /// FI-event count the caller matched: both register files and FLAGS,
    /// the output so far (`f64` payloads by bit pattern), the data segment
    /// outside the `exempt` word range `(start, count)`, and the stack.
    /// Returns at the first difference. The stack is read only from the
    /// page of [`Machine::stack_lo`] up: below it the trial's stack is
    /// zero, so golden must have no page there.
    pub(crate) fn matches_checkpoint(&self, ck: &Checkpoint, exempt: (u32, u32)) -> bool {
        let stack_from = self.stack_lo / PAGE_WORDS;
        let exempt = exempt.0 as usize..(exempt.0 + exempt.1) as usize;
        self.regs == ck.regs
            && self.fregs == ck.fregs
            && self.flags == ck.flags
            && self.output.len() == ck.output.len()
            && self.output.iter().zip(&ck.output).all(|(a, b)| same_event(a, b))
            && segment_matches(&self.data, Some(&self.binary.data), &ck.data_pages, 0, exempt)
            && ck.stack_pages.first().is_none_or(|p| p.index as usize >= stack_from)
            && segment_matches(&self.stack, None, &ck.stack_pages, stack_from, 0..0)
    }
}

/// Output-event equality with `f64` payloads compared by bit pattern, so
/// `0.0` and `-0.0` differ and a NaN equals the same NaN.
fn same_event(a: &OutEvent, b: &OutEvent) -> bool {
    match (a, b) {
        (OutEvent::F64(x), OutEvent::F64(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// Whether the pages of `cur` from page `first` on equal a golden segment:
/// `pages` (ascending, none below `first`) over `baseline` (`None` =
/// zeros), ignoring the word indices in `skip`.
fn segment_matches(
    cur: &[u64],
    baseline: Option<&[u64]>,
    pages: &[DirtyPage],
    first: usize,
    skip: std::ops::Range<usize>,
) -> bool {
    let mut pages = pages.iter().peekable();
    let start = first * PAGE_WORDS;
    cur[start..].chunks(PAGE_WORDS).enumerate().all(|(i, chunk)| {
        let at = start + i * PAGE_WORDS;
        let golden = match pages.next_if(|p| p.index as usize == first + i) {
            Some(p) => Some(&p.words[..]),
            None => baseline.map(|b| &b[at..at + chunk.len()]),
        };
        let eq = |r: std::ops::Range<usize>| match golden {
            Some(g) => chunk[r.clone()] == g[r],
            None => chunk[r].iter().all(|&w| w == 0),
        };
        // The part of `skip` inside this page (empty when it lies outside).
        let lo = skip.start.clamp(at, at + chunk.len()) - at;
        let hi = skip.end.clamp(at, at + chunk.len()) - at;
        eq(0..lo) && eq(hi..chunk.len())
    })
}

// --- µop handlers -----------------------------------------------------------
//
// Each kernel mirrors one `step` arm's data side effects exactly (the FI
// hooks as a counting-only runtime executes them) and then runs a const
// tail `T` ([`NO_TAIL`], [`SITE`], [`HOOK`], [`COPY`] or [`HOOK_COPY`]): it
// ends with [`done`] (or [`done_r`]/[`done_f`] when it writes a register),
// which runs the tail. A one-instruction µop runs one kernel ([`one`]); a
// pair µop runs two, each with its own tail ([`two`]).

/// What a one-instruction µop runs after its instruction: nothing.
const NO_TAIL: u8 = 0;
/// The non-firing path of the REFINE site after it ([`site_skip`]).
const SITE: u8 = 1;
/// The LLFI hook plumbing after it ([`hook_at`]) up to the hook: `r0 = x`
/// (`f0 = x`), `x` being the register the instruction wrote.
const HOOK: u8 = 2;
/// The register move after it of what it wrote: `y = x`.
const COPY: u8 = 4;
/// The whole LLFI hook copy after it: `r0 = x; y = x` (or `f0`).
const HOOK_COPY: u8 = HOOK | COPY;

/// Finish a kernel that writes no register. With [`SITE`] it then stores
/// `r0` and FLAGS straight into the program's save-area words,
/// data-segment indices [`save_word`] validated, so neither store can
/// trap. PostFI's `wrflags` leaves FLAGS as it is: every FLAGS writer
/// keeps the four architectural bits. A kernel that trapped or took its
/// guard returned before this, leaving the words untouched.
#[inline(always)]
fn done<const T: u8>(m: &mut Machine<'_>) -> Result<(), Exit> {
    if T == SITE {
        let (a, f) = m.site_words;
        m.data[a] = m.regs[0];
        m.data[f] = u64::from(m.flags);
    }
    Ok(())
}

/// [`done`] for a kernel whose instruction wrote integer register `x`: a
/// [`HOOK`] tail copies `x` into `r0`, a [`COPY`] tail into `y`.
#[inline(always)]
fn done_r<const T: u8>(m: &mut Machine<'_>, x: u8, y: u8) -> Result<(), Exit> {
    if T & (HOOK | COPY) != 0 {
        let v = m.regs[x as usize];
        if T & HOOK != 0 {
            m.regs[0] = v;
        }
        if T & COPY != 0 {
            m.regs[y as usize] = v;
        }
    }
    done::<T>(m)
}

/// [`done_r`] for a floating-point destination `x`, copied into `f0` or
/// `y`.
#[inline(always)]
fn done_f<const T: u8>(m: &mut Machine<'_>, x: u8, y: u8) -> Result<(), Exit> {
    if T & (HOOK | COPY) != 0 {
        let v = m.fregs[x as usize];
        if T & HOOK != 0 {
            m.fregs[0] = v;
        }
        if T & COPY != 0 {
            m.fregs[y as usize] = v;
        }
    }
    done::<T>(m)
}

/// One instruction's operands as its kernel reads them: four register
/// bytes and an immediate, laid out per kernel ([`Half::decode`]).
#[derive(Debug, Clone, Copy)]
struct Ops {
    a: u8,
    b: u8,
    c: u8,
    d: u8,
    imm: u64,
}

impl Ops {
    const ZERO: Ops = Ops { a: 0, b: 0, c: 0, d: 0, imm: 0 };

    /// Set operand byte `i` (`a` to `d`) to `v`.
    fn set(&mut self, i: u8, v: u8) {
        match i {
            0 => self.a = v,
            1 => self.b = v,
            2 => self.c = v,
            _ => self.d = v,
        }
    }
}

/// One instruction's data side effects followed by a tail: the body of a
/// one-instruction µop and of either half of a pair µop.
trait Kernel {
    /// The key its µop handlers are looked up by when the program is built.
    const ID: Kid;
    /// Whether it reads [`Ops::imm`]: a pair of two such kernels gives each
    /// 32 bits of the µop's immediate.
    const IMM: bool;
    /// Run the instruction, then tail `T`; an exit skips the tail.
    fn run<const T: u8>(m: &mut Machine<'_>, o: Ops) -> Result<(), Exit>;
}

/// Define kernel `$name`, generic over any const parameters given: its
/// [`Kid`], whether it reads an immediate, and its body over machine `$m`,
/// operands `$o` and tail `$t`.
macro_rules! kernel {
    ($name:ident $(<$(const $p:ident: $pt:ty),+>)?: $id:expr, imm: $imm:expr,
     |$m:ident, $o:ident, $t:ident| $body:expr) => {
        struct $name $(<$(const $p: $pt),+>)?;

        impl $(<$(const $p: $pt),+>)? Kernel for $name $(<$($p),+>)? {
            const ID: Kid = $id;
            const IMM: bool = $imm;
            #[inline(always)]
            fn run<const $t: u8>($m: &mut Machine<'_>, $o: Ops) -> Result<(), Exit> {
                $body
            }
        }
    };
}

// A no-op; with [`SITE`], a site skip on its own (the site heads a trace).
kernel!(Nop: Kid::Nop, imm: false, |m, _o, T| done::<T>(m));

// `selInstr` under a counting-only runtime: never inject.
kernel!(SelInstr: Kid::SelInstr, imm: false, |m, _o, T| {
    m.regs[0] = 0;
    done::<T>(m)
});

// A `Jcc` guard: side-exit to the target (`imm`) when the condition holds.
kernel!(Jcc<const C: usize>: Kid::Jcc(C as u8), imm: true, |m, o, T| {
    if CCS[C].eval(m.flags) {
        Err(Exit::Taken(o.imm))
    } else {
        done::<T>(m)
    }
});

// The register writers below keep their destination in `a` and a copying
// tail's `y` in `d`.

kernel!(MovRR: Kid::MovRR, imm: false, |m, o, T| {
    m.regs[o.a as usize] = m.regs[o.b as usize];
    done_r::<T>(m, o.a, o.d)
});

kernel!(MovRI: Kid::MovRI, imm: true, |m, o, T| {
    m.regs[o.a as usize] = o.imm;
    done_r::<T>(m, o.a, o.d)
});

kernel!(FMovRR: Kid::FMovRR, imm: false, |m, o, T| {
    m.fregs[o.a as usize] = m.fregs[o.b as usize];
    done_f::<T>(m, o.a, o.d)
});

kernel!(FMovRI: Kid::FMovRI, imm: true, |m, o, T| {
    m.fregs[o.a as usize] = o.imm;
    done_f::<T>(m, o.a, o.d)
});

kernel!(Alu<const OP: usize>: Kid::Alu(OP as u8), imm: false, |m, o, T| {
    let r = m.alu(ALU_OPS[OP], m.regs[o.b as usize] as i64, m.regs[o.c as usize] as i64)?;
    m.regs[o.a as usize] = r as u64;
    done_r::<T>(m, o.a, o.d)
});

kernel!(AluI<const OP: usize>: Kid::AluI(OP as u8), imm: true, |m, o, T| {
    let r = m.alu(ALU_OPS[OP], m.regs[o.b as usize] as i64, o.imm as i64)?;
    m.regs[o.a as usize] = r as u64;
    done_r::<T>(m, o.a, o.d)
});

kernel!(Cmp: Kid::Cmp, imm: false, |m, o, T| {
    m.cmp_flags(m.regs[o.a as usize] as i64, m.regs[o.b as usize] as i64);
    done::<T>(m)
});

kernel!(CmpI: Kid::CmpI, imm: true, |m, o, T| {
    m.cmp_flags(m.regs[o.a as usize] as i64, o.imm as i64);
    done::<T>(m)
});

kernel!(FCmp: Kid::FCmp, imm: false, |m, o, T| {
    let (a, b) = (m.f(o.a), m.f(o.b));
    m.fcmp_flags(a, b);
    done::<T>(m)
});

kernel!(SetCc<const C: usize>: Kid::SetCc(C as u8), imm: false, |m, o, T| {
    m.regs[o.a as usize] = CCS[C].eval(m.flags) as u64;
    done_r::<T>(m, o.a, o.d)
});

kernel!(FAlu<const OP: usize>: Kid::FAlu(OP as u8), imm: false, |m, o, T| {
    let r = falu::<OP>(m.f(o.b), m.f(o.c));
    m.set_f(o.a, r);
    done_f::<T>(m, o.a, o.d)
});

// `K` indexes [`CvtKind`] in declaration order.
kernel!(Cvt<const K: usize>: Kid::Cvt(K as u8), imm: false, |m, o, T| match K {
    0 => {
        let v = m.regs[o.b as usize] as i64 as f64;
        m.set_f(o.a, v);
        done_f::<T>(m, o.a, o.d)
    }
    1 => {
        m.regs[o.a as usize] = (m.f(o.b) as i64) as u64;
        done_r::<T>(m, o.a, o.d)
    }
    2 => {
        m.fregs[o.a as usize] = m.regs[o.b as usize];
        done_f::<T>(m, o.a, o.d)
    }
    _ => {
        m.regs[o.a as usize] = m.fregs[o.b as usize];
        done_r::<T>(m, o.a, o.d)
    }
});

kernel!(Push: Kid::Push, imm: false, |m, o, T| {
    m.push(m.regs[o.a as usize])?;
    done::<T>(m)
});

kernel!(Pop: Kid::Pop, imm: false, |m, o, T| {
    let v = m.pop()?;
    m.regs[o.a as usize] = v;
    done_r::<T>(m, o.a, o.d)
});

kernel!(RdFlags: Kid::RdFlags, imm: false, |m, o, T| {
    m.regs[o.a as usize] = m.flags as u64;
    done_r::<T>(m, o.a, o.d)
});

kernel!(WrFlags: Kid::WrFlags, imm: false, |m, o, T| {
    m.flags = (m.regs[o.a as usize] & 0xf) as u8;
    done::<T>(m)
});

kernel!(FXorI: Kid::FXorI, imm: true, |m, o, T| {
    m.fregs[o.a as usize] ^= o.imm;
    done_f::<T>(m, o.a, o.d)
});

/// Effective address with the memory shape burned in as const generics, so
/// the fused path has no `Option` branches: `a` the base, `b` the index,
/// `c` the scale and `imm` the displacement.
#[inline(always)]
fn addr<const BASE: bool, const INDEX: bool>(m: &Machine<'_>, o: Ops) -> u64 {
    let mut a = o.imm;
    if BASE {
        a = a.wrapping_add(m.regs[o.a as usize]);
    }
    if INDEX {
        a = a.wrapping_add(m.regs[o.b as usize].wrapping_mul(o.c as u64));
    }
    a
}

/// A memory register writer's copying-tail `y`: in the index byte `b`, or
/// in the base byte `a` of an indexed shape with no base ([`Half::decode`]
/// builds no copying tail for a shape with both). Its destination is `d`.
#[inline(always)]
fn mem_y<const INDEX: bool>(o: Ops) -> u8 {
    if INDEX {
        o.a
    } else {
        o.b
    }
}

kernel!(Ld<const BASE: bool, const INDEX: bool>: Kid::Ld(BASE, INDEX), imm: true, |m, o, T| {
    m.regs[o.d as usize] = m.mem_read(addr::<BASE, INDEX>(m, o))?;
    done_r::<T>(m, o.d, mem_y::<INDEX>(o))
});

kernel!(St<const BASE: bool, const INDEX: bool>: Kid::St(BASE, INDEX), imm: true, |m, o, T| {
    m.mem_write(addr::<BASE, INDEX>(m, o), m.regs[o.d as usize])?;
    done::<T>(m)
});

kernel!(FLd<const BASE: bool, const INDEX: bool>: Kid::FLd(BASE, INDEX), imm: true, |m, o, T| {
    m.fregs[o.d as usize] = m.mem_read(addr::<BASE, INDEX>(m, o))?;
    done_f::<T>(m, o.d, mem_y::<INDEX>(o))
});

kernel!(FSt<const BASE: bool, const INDEX: bool>: Kid::FSt(BASE, INDEX), imm: true, |m, o, T| {
    m.mem_write(addr::<BASE, INDEX>(m, o), m.fregs[o.d as usize])?;
    done::<T>(m)
});

kernel!(Lea<const BASE: bool, const INDEX: bool>: Kid::Lea(BASE, INDEX), imm: true, |m, o, T| {
    m.regs[o.d as usize] = addr::<BASE, INDEX>(m, o);
    done_r::<T>(m, o.d, mem_y::<INDEX>(o))
});

// The memory shapes by name, for the tables: base + displacement,
// absolute, absolute + scaled index, and base + scaled index.
type LdB = Ld<true, false>;
type LdA = Ld<false, false>;
type LdX = Ld<false, true>;
type LdBX = Ld<true, true>;
type StB = St<true, false>;
type StA = St<false, false>;
type StX = St<false, true>;
type StBX = St<true, true>;
type FLdB = FLd<true, false>;
type FLdA = FLd<false, false>;
type FLdX = FLd<false, true>;
type FLdBX = FLd<true, true>;
type FStB = FSt<true, false>;
type FStA = FSt<false, false>;
type FStX = FSt<false, true>;
type FStBX = FSt<true, true>;
type LeaB = Lea<true, false>;
type LeaA = Lea<false, false>;
type LeaX = Lea<false, true>;
type LeaBX = Lea<true, true>;

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

const CCS: [Cc; 6] = [Cc::E, Cc::Ne, Cc::Lt, Cc::Le, Cc::Gt, Cc::Ge];

// The kernels' const parameters by name: operations index [`ALU_OPS`] (the
// first four also [`FAluOp`]'s order, whose `Min` and `Max` follow),
// conditions [`CCS`], and conversions [`CvtKind`]'s order.
const ADD: usize = 0;
const SUB: usize = 1;
const MUL: usize = 2;
const DIV: usize = 3;
const REM: usize = 4;
const AND: usize = 5;
const OR: usize = 6;
const XOR: usize = 7;
const SHL: usize = 8;
const LSHR: usize = 9;
const ASHR: usize = 10;
const MIN: usize = 4;
const MAX: usize = 5;
const EQ: usize = 0;
const NE: usize = 1;
const LT: usize = 2;
const LE: usize = 3;
const GT: usize = 4;
const GE: usize = 5;
const SI_TO_F: usize = 0;
const F_TO_SI: usize = 1;
const BITS_TO_F: usize = 2;
const F_TO_BITS: usize = 3;

/// The floating-point operation `OP` indexes in [`FAluOp`] order.
#[inline(always)]
fn falu<const OP: usize>(a: f64, b: f64) -> f64 {
    match OP {
        ADD => a + b,
        SUB => a - b,
        MUL => a * b,
        DIV => a / b,
        MIN => a.min(b),
        _ => a.max(b),
    }
}

/// A one-instruction µop: kernel `K` on the µop's operands, then tail `T`.
fn one<K: Kernel, const T: u8>(m: &mut Machine<'_>, u: &Uop) -> Result<(), Exit> {
    K::run::<T>(m, Ops { a: u.a, b: u.b, c: u.c, d: u.d, imm: u.imm })
}

/// A pair µop: kernel `K1` and its tail `T1`, then `K2` and its tail `T2`
/// on the instruction the trace dispatches after what the first half
/// covers (the next pc, or past a site, hook plumbing or move the first
/// half absorbed). A half's four operand bytes are nibbles of two of the
/// µop's; where both halves read an immediate, each gets 32 bits of `imm`,
/// sign-extended, and otherwise the one that does gets all of it. Either
/// half may stop the trace, and the exit says which.
fn two<K1: Kernel, const T1: u8, K2: Kernel, const T2: u8>(
    m: &mut Machine<'_>,
    u: &Uop,
) -> Result<(), Exit> {
    let (imm1, imm2) = if K1::IMM && K2::IMM {
        (half::<false>(u.imm), half::<true>(u.imm))
    } else {
        (u.imm, u.imm)
    };
    let ops = |lo: u8, hi: u8, imm| Ops { a: lo & 15, b: lo >> 4, c: hi & 15, d: hi >> 4, imm };
    K1::run::<T1>(m, ops(u.a, u.b, imm1))?;
    K2::run::<T2>(m, ops(u.c, u.d, imm2)).map_err(|_| Exit::Second(T1.into()))
}

/// A 32-bit half of a pair µop's packed `imm`, sign-extended: `HI` picks
/// the high half.
#[inline(always)]
fn half<const HI: bool>(imm: u64) -> u64 {
    let bits = if HI { imm >> 32 } else { imm };
    i64::from(bits as u32 as i32) as u64
}

fn u_term(_m: &mut Machine<'_>, _u: &Uop) -> Result<(), Exit> {
    unreachable!("terminator µop is never dispatched fused")
}

/// Which kernel a µop half runs: the build-time key of its handlers. The
/// `u8` parameters are the kernels' const parameters; a memory kernel's
/// are its shape (base, index).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kid {
    Nop,
    SelInstr,
    Jcc(u8),
    MovRR,
    MovRI,
    FMovRR,
    FMovRI,
    Alu(u8),
    AluI(u8),
    Cmp,
    CmpI,
    FCmp,
    SetCc(u8),
    FAlu(u8),
    Cvt(u8),
    Ld(bool, bool),
    St(bool, bool),
    FLd(bool, bool),
    FSt(bool, bool),
    Lea(bool, bool),
    Push,
    Pop,
    RdFlags,
    WrFlags,
    FXorI,
}

impl Kid {
    /// How many kernels there are.
    const COUNT: usize = 78;

    /// This kernel's key with tail `tail`, dense below `COUNT * 8`: its
    /// handlers' index in [`Handlers`].
    fn key(self, tail: u8) -> usize {
        let shape = |base: bool, index: bool| usize::from(base) | usize::from(index) << 1;
        let kernel = match self {
            Kid::Nop => 0,
            Kid::SelInstr => 1,
            Kid::MovRR => 2,
            Kid::MovRI => 3,
            Kid::FMovRR => 4,
            Kid::FMovRI => 5,
            Kid::Cmp => 6,
            Kid::CmpI => 7,
            Kid::FCmp => 8,
            Kid::Push => 9,
            Kid::Pop => 10,
            Kid::RdFlags => 11,
            Kid::WrFlags => 12,
            Kid::FXorI => 13,
            Kid::Jcc(c) => 14 + usize::from(c),
            Kid::SetCc(c) => 20 + usize::from(c),
            Kid::FAlu(op) => 26 + usize::from(op),
            Kid::Cvt(k) => 32 + usize::from(k),
            Kid::Ld(b, x) => 36 + shape(b, x),
            Kid::St(b, x) => 40 + shape(b, x),
            Kid::FLd(b, x) => 44 + shape(b, x),
            Kid::FSt(b, x) => 48 + shape(b, x),
            Kid::Lea(b, x) => 52 + shape(b, x),
            Kid::Alu(op) => 56 + usize::from(op),
            Kid::AluI(op) => 67 + usize::from(op),
        };
        kernel * 8 + usize::from(tail)
    }
}

/// A register an instruction writes: floating-point when the flag is set.
type Dest = (bool, u8);

/// One instruction as a µop runs it, alone or as a pair's half: its kernel
/// and operands and the tail it runs, and for a register writer the
/// register it writes and the operand byte a copying tail's `y` goes in
/// (none for a memory shape with both a base and an index).
#[derive(Debug, Clone, Copy)]
struct Half {
    kid: Kid,
    ops: Ops,
    tail: u8,
    dest: Option<Dest>,
    y_byte: Option<u8>,
}

impl Half {
    /// A no-op.
    const NOP: Half =
        Half { kid: Kid::Nop, ops: Ops::ZERO, tail: NO_TAIL, dest: None, y_byte: None };

    /// A site skip heading its trace: a no-op with [`SITE`].
    const SITE_SKIP: Half = Half { tail: SITE, ..Half::NOP };

    /// `instr`'s kernel and operands with no tail, or `None` for a
    /// terminator. A forward `Jmp` and the LLFI hooks are no-ops in a
    /// trace.
    fn decode(instr: &MInstr) -> Option<Half> {
        use MInstr as I;
        let ops = |a, b, c, d, imm| Ops { a, b, c, d, imm };
        let other = |kid, ops| Half { kid, ops, ..Half::NOP };
        // A register writer keeps its destination in `a` and `y` in `d`.
        let writer = |kid, ops: Ops, float| Half {
            dest: Some((float, ops.a)),
            y_byte: Some(3),
            ..other(kid, ops)
        };
        // A memory access: base, index and scale in `a` to `c`, the data
        // register in `d`; a loading one keeps `y` where [`mem_y`] reads it.
        let memory = |kid: fn(bool, bool) -> Kid, mem: &Mem, data, float: Option<bool>| {
            let (index, scale) = mem.index.unwrap_or((0, 0));
            let ops = ops(mem.base.unwrap_or(0), index, scale, data, mem.disp as u64);
            let y_byte = match (mem.base, mem.index) {
                (_, None) => Some(1),
                (None, Some(_)) => Some(0),
                _ => None,
            };
            let h = other(kid(mem.base.is_some(), mem.index.is_some()), ops);
            match float {
                Some(float) => Half { dest: Some((float, data)), y_byte, ..h },
                None => h,
            }
        };
        Some(match *instr {
            I::Nop | I::Jmp { .. } => Half::NOP,
            I::CallRt { func: RtFunc::LlfiInjectI | RtFunc::LlfiInjectF, .. } => Half::NOP,
            I::CallRt { func: RtFunc::FiSelInstr, .. } => other(Kid::SelInstr, Ops::ZERO),
            I::Jcc { cc, target } => other(Kid::Jcc(cc_index(cc)), ops(0, 0, 0, 0, target.into())),
            I::MovRR { rd, ra } => writer(Kid::MovRR, ops(rd, ra, 0, 0, 0), false),
            I::MovRI { rd, imm } => writer(Kid::MovRI, ops(rd, 0, 0, 0, imm as u64), false),
            I::FMovRR { fd, fa } => writer(Kid::FMovRR, ops(fd, fa, 0, 0, 0), true),
            I::FMovRI { fd, imm } => writer(Kid::FMovRI, ops(fd, 0, 0, 0, imm), true),
            I::Alu { op, rd, ra, rb } => {
                writer(Kid::Alu(alu_index(op)), ops(rd, ra, rb, 0, 0), false)
            }
            I::AluI { op, rd, ra, imm } => {
                writer(Kid::AluI(alu_index(op)), ops(rd, ra, 0, 0, imm as u64), false)
            }
            I::Cmp { ra, rb } => other(Kid::Cmp, ops(ra, rb, 0, 0, 0)),
            I::CmpI { ra, imm } => other(Kid::CmpI, ops(ra, 0, 0, 0, imm as u64)),
            I::FCmp { fa, fb } => other(Kid::FCmp, ops(fa, fb, 0, 0, 0)),
            I::SetCc { cc, rd } => writer(Kid::SetCc(cc_index(cc)), ops(rd, 0, 0, 0, 0), false),
            I::FAlu { op, fd, fa, fb } => {
                writer(Kid::FAlu(falu_index(op)), ops(fd, fa, fb, 0, 0), true)
            }
            I::Cvt { kind, dst, src } => {
                let float = matches!(kind, CvtKind::SiToF | CvtKind::BitsToF);
                writer(Kid::Cvt(cvt_index(kind)), ops(dst, src, 0, 0, 0), float)
            }
            I::Ld { rd, ref mem } => memory(Kid::Ld, mem, rd, Some(false)),
            I::FLd { fd, ref mem } => memory(Kid::FLd, mem, fd, Some(true)),
            I::Lea { rd, ref mem } => memory(Kid::Lea, mem, rd, Some(false)),
            I::St { rs, ref mem } => memory(Kid::St, mem, rs, None),
            I::FSt { fs, ref mem } => memory(Kid::FSt, mem, fs, None),
            I::Push { rs } => other(Kid::Push, ops(rs, 0, 0, 0, 0)),
            I::Pop { rd } => writer(Kid::Pop, ops(rd, 0, 0, 0, 0), false),
            I::RdFlags { rd } => writer(Kid::RdFlags, ops(rd, 0, 0, 0, 0), false),
            I::WrFlags { rs } => other(Kid::WrFlags, ops(rs, 0, 0, 0, 0)),
            I::FXorI { fd, imm } => writer(Kid::FXorI, ops(fd, 0, 0, 0, imm), true),
            I::Call { .. } | I::Ret | I::Halt | I::CallRt { .. } => return None,
        })
    }

    /// This half with tail `tail` (`y` the copy destination of a copying
    /// one), where it can run it: [`HOOK`] and [`COPY`] tails only after a
    /// register writer, a copying one only where `y` has a byte.
    fn with_tail(mut self, tail: u8, y: u8) -> Option<Half> {
        if tail & (HOOK | COPY) != 0 && self.dest.is_none() {
            return None;
        }
        if tail & COPY != 0 {
            self.ops.set(self.y_byte?, y);
        }
        self.tail = tail;
        Some(self)
    }

    /// This half as a one-instruction µop continuing at `next`.
    fn uop(&self, next: usize) -> Uop {
        let Ops { a, b, c, d, imm } = self.ops;
        Uop { exec: handlers().single(self.kid, self.tail), imm, next: next as u32, a, b, c, d }
    }

    /// The pair µop running this half and then `second`, continuing at
    /// `next`, where the table has one for the two halves' kernels and
    /// tails and their operands fit: every operand byte in a nibble, and
    /// both immediates in 32 bits where both halves read one.
    fn pair(&self, second: &Half, next: usize) -> Option<Uop> {
        let PairFn { exec, imms } = handlers().pair(self, second)?;
        let narrow = |v: u64| i32::try_from(v as i64).ok().map(|v| u64::from(v as u32));
        let imm = match imms {
            (true, true) => narrow(self.ops.imm)? | narrow(second.ops.imm)? << 32,
            (true, false) => self.ops.imm,
            (false, true) => second.ops.imm,
            (false, false) => 0,
        };
        let nibbles = |lo: u8, hi: u8| (lo < 16 && hi < 16).then_some(lo | hi << 4);
        let (o1, o2) = (self.ops, second.ops);
        Some(Uop {
            exec,
            imm,
            next: next as u32,
            a: nibbles(o1.a, o1.b)?,
            b: nibbles(o1.c, o1.d)?,
            c: nibbles(o2.a, o2.b)?,
            d: nibbles(o2.c, o2.d)?,
        })
    }
}

fn alu_index(op: AluOp) -> u8 {
    ALU_OPS.iter().position(|&o| o == op).expect("every ALU operation is listed") as u8
}

fn cc_index(cc: Cc) -> u8 {
    CCS.iter().position(|&c| c == cc).expect("every condition is listed") as u8
}

fn falu_index(op: FAluOp) -> u8 {
    match op {
        FAluOp::Add => ADD as u8,
        FAluOp::Sub => SUB as u8,
        FAluOp::Mul => MUL as u8,
        FAluOp::Div => DIV as u8,
        FAluOp::Min => MIN as u8,
        FAluOp::Max => MAX as u8,
    }
}

fn cvt_index(kind: CvtKind) -> u8 {
    (match kind {
        CvtKind::SiToF => SI_TO_F,
        CvtKind::FToSi => F_TO_SI,
        CvtKind::BitsToF => BITS_TO_F,
        CvtKind::FToBits => F_TO_BITS,
    }) as u8
}

/// The register move `mov y <- x` (floating-point when the flag is set) as
/// `(float, y, x)`.
fn mov_operands(i: &MInstr) -> Option<(bool, u8, u8)> {
    match *i {
        MInstr::MovRR { rd, ra } => Some((false, rd, ra)),
        MInstr::FMovRR { fd, fa } => Some((true, fd, fa)),
        _ => None,
    }
}

/// A pair handler's key: both halves' kernels and tails.
type PairKey = (Kid, u8, Kid, u8);

/// A pair handler, and whether each half reads an immediate.
#[derive(Clone, Copy)]
struct PairFn {
    exec: UopFn,
    imms: (bool, bool),
}

/// Every µop handler the program builder picks from, by [`Kid::key`]:
/// one-instruction handlers, and per first half the pair handlers with the
/// second half's key.
struct Handlers {
    singles: Vec<Option<UopFn>>,
    pairs: Vec<Vec<(usize, PairFn)>>,
}

impl Handlers {
    /// The one-instruction handler of kernel `kid` with tail `tail`; every
    /// kernel has [`NO_TAIL`] and [`SITE`], every register writer all five.
    fn single(&self, kid: Kid, tail: u8) -> UopFn {
        self.singles[kid.key(tail)].expect("a one-instruction µop for every kernel and tail it runs")
    }

    /// The pair handler running `first` and then `second`, if the table has
    /// one.
    fn pair(&self, first: &Half, second: &Half) -> Option<PairFn> {
        let want = second.kid.key(second.tail);
        let row = &self.pairs[first.kid.key(first.tail)];
        row.iter().find(|&&(key, _)| key == want).map(|&(_, f)| f)
    }
}

/// One-instruction handlers: every tail for the register writers, none and
/// [`SITE`] for the other kernels.
macro_rules! singles {
    (writers: [$($w:ty),+ $(,)?], others: [$($k:ty),+ $(,)?] $(,)?) => {
        vec![
            $(
                ((<$w>::ID, NO_TAIL), one::<$w, NO_TAIL> as UopFn),
                ((<$w>::ID, SITE), one::<$w, SITE>),
                ((<$w>::ID, HOOK), one::<$w, HOOK>),
                ((<$w>::ID, COPY), one::<$w, COPY>),
                ((<$w>::ID, HOOK_COPY), one::<$w, HOOK_COPY>),
            )+
            $(
                ((<$k>::ID, NO_TAIL), one::<$k, NO_TAIL>),
                ((<$k>::ID, SITE), one::<$k, SITE>),
            )+
        ]
    };
}

/// Pair handlers: each row `[first kernels] T1 => [second kernels] T2;`
/// instantiates [`two`] for every first kernel with every second one.
macro_rules! pairs {
    ($([$($k1:ty),+ $(,)?] $t1:ident => $k2s:tt $t2:ident;)+) => {{
        let mut v: Vec<(PairKey, PairFn)> = Vec::new();
        $($(pairs!(@row v, $k1, $t1, $k2s, $t2);)+)+
        v
    }};
    (@row $v:ident, $k1:ty, $t1:ident, [$($k2:ty),+ $(,)?], $t2:ident) => {
        $v.extend([$((
            (<$k1>::ID, $t1, <$k2>::ID, $t2),
            PairFn { exec: two::<$k1, $t1, $k2, $t2>, imms: (<$k1>::IMM, <$k2>::IMM) },
        )),+]);
    };
}

/// The handler tables, built once per process.
fn handlers() -> &'static Handlers {
    static HANDLERS: OnceLock<Handlers> = OnceLock::new();
    HANDLERS.get_or_init(|| {
        let singles = singles! {
            writers: [
                MovRR, MovRI, FMovRR, FMovRI,
                Alu<ADD>, Alu<SUB>, Alu<MUL>, Alu<DIV>, Alu<REM>, Alu<AND>,
                Alu<OR>, Alu<XOR>, Alu<SHL>, Alu<LSHR>, Alu<ASHR>,
                AluI<ADD>, AluI<SUB>, AluI<MUL>, AluI<DIV>, AluI<REM>, AluI<AND>,
                AluI<OR>, AluI<XOR>, AluI<SHL>, AluI<LSHR>, AluI<ASHR>,
                SetCc<EQ>, SetCc<NE>, SetCc<LT>, SetCc<LE>, SetCc<GT>, SetCc<GE>,
                FAlu<ADD>, FAlu<SUB>, FAlu<MUL>, FAlu<DIV>, FAlu<MIN>, FAlu<MAX>,
                Cvt<SI_TO_F>, Cvt<F_TO_SI>, Cvt<BITS_TO_F>, Cvt<F_TO_BITS>,
                LdB, LdA, LdX, LdBX, FLdB, FLdA, FLdX, FLdBX, LeaB, LeaA, LeaX, LeaBX,
                Pop, RdFlags, FXorI,
            ],
            others: [
                Nop, SelInstr,
                Jcc<EQ>, Jcc<NE>, Jcc<LT>, Jcc<LE>, Jcc<GT>, Jcc<GE>,
                Cmp, CmpI, FCmp,
                StB, StA, StX, StBX, FStB, FStA, FStX, FStBX,
                Push, WrFlags,
            ],
        };
        let mut handlers = Handlers {
            singles: vec![None; Kid::COUNT * 8],
            pairs: vec![Vec::new(); Kid::COUNT * 8],
        };
        for ((kid, tail), f) in singles {
            handlers.singles[kid.key(tail)] = Some(f);
        }
        for ((k1, t1, k2, t2), f) in pair_table() {
            let (row, key) = (&mut handlers.pairs[k1.key(t1)], k2.key(t2));
            debug_assert!(row.iter().all(|e| e.0 != key), "a pair is listed twice");
            row.push((key, f));
        }
        handlers
    })
}

/// The pair µops built: compare-and-guard, load-and-operate, memory, move,
/// guard-and-move and stack pairs of every shape, then the combinations of
/// kernels and tails that ran most often unpaired on the suite's
/// checkpoint-off sweep (all three tools), grouped by tails. A pair not
/// listed runs as two µops.
fn pair_table() -> Vec<(PairKey, PairFn)> {
    pairs! {
        [Cmp, CmpI, FCmp] NO_TAIL => [Jcc<EQ>, Jcc<NE>, Jcc<LT>, Jcc<LE>, Jcc<GT>, Jcc<GE>] NO_TAIL;
        [FLdB, FLdA] NO_TAIL
            => [FAlu<ADD>, FAlu<SUB>, FAlu<MUL>, FAlu<DIV>, FAlu<MIN>, FAlu<MAX>] NO_TAIL;
        [LdB, LdA, StB, StA, FLdB, FLdA, FStB, FStA] NO_TAIL
            => [LdB, LdA, StB, StA, FLdB, FLdA, FStB, FStA] NO_TAIL;
        [MovRR, FMovRR] NO_TAIL => [MovRR, FMovRR] NO_TAIL;
        [Jcc<EQ>, Jcc<NE>, Jcc<LT>, Jcc<LE>, Jcc<GT>, Jcc<GE>] NO_TAIL => [MovRR, FMovRR] NO_TAIL;
        [Push] NO_TAIL => [Push] NO_TAIL;
        [Pop] NO_TAIL => [Pop] NO_TAIL;
        [Alu<ADD>] NO_TAIL => [FLdX] NO_TAIL;
        [FAlu<MUL>] NO_TAIL => [FAlu<ADD>] NO_TAIL;
        [LdB] NO_TAIL => [CmpI] NO_TAIL;
        [FLdX] NO_TAIL => [FLdX] NO_TAIL;
        [MovRR] NO_TAIL => [FStB] NO_TAIL;
        [MovRR] NO_TAIL => [FLdB] NO_TAIL;
        [MovRR] NO_TAIL => [LdB] NO_TAIL;
        [FLdX] NO_TAIL => [FAlu<ADD>] NO_TAIL;
        [FLdB] NO_TAIL => [MovRR] NO_TAIL;
        [LdB] NO_TAIL => [Alu<ADD>] NO_TAIL;
        [FAlu<ADD>] NO_TAIL => [FStX] NO_TAIL;
        [Push] NO_TAIL => [MovRR] NO_TAIL;
        [FLdX] NO_TAIL => [FAlu<SUB>] NO_TAIL;
        [FAlu<ADD>] NO_TAIL => [LdB] NO_TAIL;
        [FStX] NO_TAIL => [AluI<ADD>] NO_TAIL;
        [FMovRI] NO_TAIL => [FAlu<DIV>] NO_TAIL;
        [LdB] NO_TAIL => [MovRR] NO_TAIL;
        [FMovRR] NO_TAIL => [StB] NO_TAIL;
        [AluI<MUL>] NO_TAIL => [Alu<ADD>] NO_TAIL;
        [FLdX] NO_TAIL => [FCmp] NO_TAIL;
        [FLdB] NO_TAIL => [FCmp] NO_TAIL;
        [FMovRI] NO_TAIL => [FAlu<MUL>] NO_TAIL;
        [FStB] NO_TAIL => [MovRR] NO_TAIL;
        [FStX] NO_TAIL => [FLdX] NO_TAIL;
        [AluI<SUB>] NO_TAIL => [FLdX] NO_TAIL;
        [FAlu<MUL>] NO_TAIL => [FMovRI] NO_TAIL;
        [FAlu<MUL>] NO_TAIL => [FAlu<SUB>] NO_TAIL;
        [FMovRR] NO_TAIL => [LdB] NO_TAIL;
        [FAlu<MUL>] NO_TAIL => [FLdX] NO_TAIL;
        [FAlu<MUL>] NO_TAIL => [FLdB] NO_TAIL;
        [LdB] NO_TAIL => [FMovRR] NO_TAIL;
        [AluI<ADD>] NO_TAIL => [AluI<REM>] NO_TAIL;
        [LdA] NO_TAIL => [AluI<MUL>] NO_TAIL;
        [Alu<ADD>] NO_TAIL => [AluI<DIV>] NO_TAIL;
        [FMovRI] NO_TAIL => [FCmp] NO_TAIL;
        [FAlu<DIV>] NO_TAIL => [FStX] NO_TAIL;
        [FAlu<SUB>] NO_TAIL => [FStX] NO_TAIL;
        [Cvt<SI_TO_F>] NO_TAIL => [FMovRI] NO_TAIL;
        [FLdX] NO_TAIL => [FAlu<MUL>] NO_TAIL;
        [FAlu<SUB>] NO_TAIL => [LdB] NO_TAIL;
        [FMovRR] NO_TAIL => [FMovRI] NO_TAIL;
        [MovRR] SITE => [MovRR] SITE;
        [LdB] SITE => [LdB] SITE;
        [Alu<ADD>] SITE => [FLdX] SITE;
        [AluI<ADD>] SITE => [MovRR] SITE;
        [FAlu<MUL>] SITE => [FAlu<ADD>] SITE;
        [FMovRR] SITE => [MovRR] SITE;
        [FLdX] SITE => [FLdX] SITE;
        [FMovRR] SITE => [FMovRR] SITE;
        [LdB] SITE => [CmpI] SITE;
        [FLdX] SITE => [FAlu<ADD>] SITE;
        [MovRR] SITE => [FMovRR] SITE;
        [FLdX] SITE => [FAlu<SUB>] SITE;
        [FAlu<ADD>] SITE => [LdB] SITE;
        [LdB] SITE => [Alu<ADD>] SITE;
        [FMovRI] SITE => [FAlu<DIV>] SITE;
        [FMovRI] SITE => [FAlu<MUL>] SITE;
        [FLdX] SITE => [FAlu<MUL>] SITE;
        [AluI<MUL>] SITE => [Alu<ADD>] SITE;
        [FLdX] SITE => [FCmp] SITE;
        [AluI<SUB>] SITE => [FLdX] SITE;
        [FAlu<MUL>] SITE => [FMovRI] SITE;
        [FLdB] SITE => [FLdB] SITE;
        [FLdB] SITE => [FAlu<MUL>] SITE;
        [MovRR] SITE => [LdB] SITE;
        [AluI<ADD>] SITE => [AluI<REM>] SITE;
        [LdA] SITE => [AluI<MUL>] SITE;
        [FAlu<MUL>] SITE => [FLdB] SITE;
        [FAlu<MUL>] SITE => [FAlu<SUB>] SITE;
        [Push] SITE => [MovRR] SITE;
        [Cvt<SI_TO_F>] SITE => [FMovRI] SITE;
        [Alu<ADD>] SITE => [AluI<DIV>] SITE;
        [LdB] SITE => [MovRR] SITE;
        [FAlu<SUB>] SITE => [LdB] SITE;
        [LdB] SITE => [StB] NO_TAIL;
        [CmpI] SITE => [Jcc<LT>] NO_TAIL;
        [FAlu<ADD>] SITE => [FStX] NO_TAIL;
        [MovRR] SITE => [FStB] NO_TAIL;
        [FAlu<DIV>] SITE => [FStX] NO_TAIL;
        [FAlu<SUB>] SITE => [FStX] NO_TAIL;
        [StB] NO_TAIL => [LdB] SITE;
        [FStX] NO_TAIL => [AluI<ADD>] SITE;
        [StA] NO_TAIL => [LdA] SITE;
        [FStX] NO_TAIL => [FLdX] SITE;
        [FStB] NO_TAIL => [MovRR] SITE;
        [StB] NO_TAIL => [FMovRR] SITE;
        [FLdB] HOOK_COPY => [FLdB] NO_TAIL;
        [FAlu<MUL>] HOOK_COPY => [FLdB] NO_TAIL;
        [FAlu<ADD>] HOOK_COPY => [FStB] NO_TAIL;
        [SetCc<LT>] HOOK_COPY => [CmpI] NO_TAIL;
        [SetCc<GT>] HOOK_COPY => [CmpI] NO_TAIL;
        [AluI<ADD>] HOOK_COPY => [MovRR] NO_TAIL;
        [FAlu<SUB>] HOOK_COPY => [FLdB] NO_TAIL;
        [FAlu<SUB>] HOOK_COPY => [FStB] NO_TAIL;
        [FAlu<MUL>] HOOK_COPY => [FMovRI] NO_TAIL;
        [Cvt<SI_TO_F>] HOOK_COPY => [FMovRI] NO_TAIL;
        [FMovRR] HOOK_COPY => [FMovRI] NO_TAIL;
        [FAlu<DIV>] HOOK_COPY => [FStB] NO_TAIL;
        [CmpI] NO_TAIL => [SetCc<LT>] HOOK_COPY;
        [FStB] NO_TAIL => [LeaX] HOOK_COPY;
        [FLdB] NO_TAIL => [FAlu<MUL>] HOOK_COPY;
        [FStB] NO_TAIL => [FLdB] HOOK_COPY;
        [FStB] NO_TAIL => [AluI<ADD>] HOOK_COPY;
        [LdB] NO_TAIL => [LeaX] HOOK_COPY;
        [FLdB] NO_TAIL => [FAlu<ADD>] HOOK_COPY;
        [StA] NO_TAIL => [LdA] HOOK_COPY;
        [FLdB] NO_TAIL => [FAlu<SUB>] HOOK_COPY;
        [LdB] NO_TAIL => [Alu<ADD>] HOOK_COPY;
        [LdB] NO_TAIL => [AluI<ADD>] HOOK_COPY;
        [LeaX] HOOK_COPY => [FLdB] HOOK_COPY;
        [Alu<ADD>] HOOK_COPY => [LeaX] HOOK_COPY;
        [AluI<MUL>] HOOK_COPY => [Alu<ADD>] HOOK_COPY;
        [AluI<ADD>] HOOK_COPY => [AluI<REM>] HOOK_COPY;
        [LdA] HOOK_COPY => [AluI<MUL>] HOOK_COPY;
        [Alu<ADD>] HOOK_COPY => [AluI<DIV>] HOOK_COPY;
        [LeaX] HOOK_COPY => [LeaX] HOOK_COPY;
        [AluI<SUB>] HOOK_COPY => [LeaX] HOOK_COPY;
        [FLdB] HOOK => [FStB] NO_TAIL;
        [FAlu<ADD>] HOOK => [FStB] NO_TAIL;
        [FAlu<MUL>] HOOK => [FStB] NO_TAIL;
        [FAlu<SUB>] HOOK => [FStB] NO_TAIL;
        [FMovRR] HOOK => [FStB] NO_TAIL;
        [FLdB] NO_TAIL => [FAlu<ADD>] HOOK;
        [FLdB] NO_TAIL => [FAlu<MUL>] HOOK;
        [LeaX] HOOK_COPY => [FLdB] HOOK;
        [AluI<ADD>] NO_TAIL => [MovRR] COPY;
        [MovRR] NO_TAIL => [AluI<ADD>] COPY;
        [AluI<ADD>] COPY => [FMovRR] NO_TAIL;
        [AluI<ADD>] HOOK_COPY => [MovRR] COPY;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary::{Binary, Symbol};
    use crate::checkpoint::CheckpointConfig;
    use crate::machine::STACK_TOP;
    use crate::probe::{CountingProbe, Probe, ProbeAction};
    use crate::rt::FiRuntime;
    use std::sync::Arc;

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

    /// Drive a full run through `run_sb` (stop never reached) and return
    /// (outcome, cycles, retired, stats).
    fn run_sb(b: &Binary) -> (RunOutcome, u64, u64, TrialFastStats) {
        let sb = SuperblockProgram::new(b);
        let cfg = RunConfig::default();
        let mut m = Machine::new(b, &cfg);
        let mut stats = TrialFastStats::default();
        let max = cfg.max_cycles;
        let out = m
            .run_sb(&sb, &mut 0, 0, u64::MAX, None, max, &mut stats)
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

    /// A counting-only runtime for the exact loop that reports "fired"
    /// once `at` FI hook calls have been counted, so
    /// `run_exact_until_fired` stops right after the `at`-th event.
    struct CountTo {
        count: u64,
        at: u64,
    }

    impl FiRuntime for CountTo {
        fn sel_instr(&mut self, _site: u64) -> bool {
            self.count += 1;
            false
        }
        fn setup_fi(&mut self, _nops: u32, _sizes: &[u32]) -> (u32, u32) {
            (0, 0)
        }
        fn llfi_inject(&mut self, _site: u64, value: u64, _bits: u32) -> u64 {
            self.count += 1;
            value
        }
        fn fi_count(&self) -> u64 {
            self.count
        }
        fn fired(&self) -> bool {
            self.count >= self.at
        }
    }

    /// Architectural state both loops must agree on.
    type State = (u32, u64, u64, [u64; 16], [u64; 16], u8, Vec<u64>, Vec<u64>);

    fn state(m: &Machine<'_>) -> State {
        let (data, stack) = (m.data.clone(), m.stack.clone());
        (m.pc, m.cycles, m.instrs_retired, m.regs, m.fregs, m.flags, data, stack)
    }

    /// Run `b` fused until `stop` events (or the end) and exactly until
    /// the same point, assert the whole state agrees, and return the fused
    /// loop's (outcome, event count, stats).
    fn fused_vs_exact(b: &Binary, stop: u64) -> (Option<RunOutcome>, u64, TrialFastStats) {
        let sb = SuperblockProgram::new(b);
        let cfg = RunConfig::default();
        let max = cfg.max_cycles;
        let (mut fused, mut exact) = (Machine::new(b, &cfg), Machine::new(b, &cfg));
        let (mut count, mut stats) = (0, TrialFastStats::default());
        let out = fused.run_sb(&sb, &mut count, 0, stop, None, max, &mut stats);
        let mut rt = CountTo { count: 0, at: stop };
        assert_eq!(out, exact.run_exact_until_fired(max, &mut rt, None), "stop {stop}");
        assert_eq!(count, rt.count, "stop {stop}");
        assert_eq!(state(&fused), state(&exact), "stop {stop}");
        (out, count, stats)
    }

    #[test]
    fn forward_jmp_fuses_and_backward_jmp_terminates() {
        let b = bin(vec![
            MInstr::MovRI { rd: 1, imm: 0 },
            MInstr::MovRI { rd: 2, imm: 3 },
            MInstr::Jmp { target: 4 }, // forward: fused
            MInstr::MovRI { rd: 1, imm: 1000 },
            MInstr::AluI { op: AluOp::Add, rd: 1, ra: 1, imm: 1 }, // loop head
            MInstr::AluI { op: AluOp::Sub, rd: 2, ra: 2, imm: 1 },
            MInstr::CmpI { ra: 2, imm: 0 },
            MInstr::Jcc { cc: Cc::E, target: 9 },
            MInstr::Jmp { target: 4 }, // backward: a terminator
            MInstr::AluI { op: AluOp::Sub, rd: 0, ra: 1, imm: 3 },
            MInstr::Halt,
        ]);
        let sb = SuperblockProgram::new(&b);
        // The `Jmp` runs only as a trace head; its predecessor links past it.
        assert_eq!((sb.dispatch(1), sb.dispatch(2)), (Some((2, 4)), Some((1, 4))));
        assert_eq!((sb.fused_len[0], sb.trace_end[0]), (7, 8));
        assert_eq!(sb.fused_len[8], 0);
        let (out, _, stats) = fused_vs_exact(&b, u64::MAX);
        assert_eq!(out, Some(RunOutcome::Exit(0)));
        // Entry trace, the loop body twice more, then the exit trace; the
        // backward jump is stepped twice.
        assert_eq!(stats.sb_dispatches, 4);
        assert_eq!(stats.sb_stepped_instrs, 2);
    }

    #[test]
    fn jcc_side_exit_taken_and_not_taken() {
        for (x, exit, dispatches) in [(0, 9, 2), (1, 7, 1)] {
            let b = bin(vec![
                MInstr::MovRI { rd: 1, imm: x },
                MInstr::CmpI { ra: 1, imm: 0 },
                MInstr::Jcc { cc: Cc::E, target: 5 },
                MInstr::MovRI { rd: 0, imm: 7 },
                MInstr::Halt,
                MInstr::MovRI { rd: 0, imm: 9 },
                MInstr::Halt,
            ]);
            let (out, _, stats) = fused_vs_exact(&b, u64::MAX);
            assert_eq!(out, Some(RunOutcome::Exit(exit)));
            assert_eq!(stats.sb_dispatches, dispatches, "x = {x}");
            assert_eq!(stats.sb_stepped_instrs, 0);
        }
    }

    #[test]
    fn mid_trace_trap_after_a_jmp_leaves_exact_state() {
        let b = bin(vec![
            MInstr::MovRI { rd: 1, imm: 1 },
            MInstr::MovRI { rd: 2, imm: 0 },
            MInstr::Jmp { target: 4 },
            MInstr::Nop,
            MInstr::Alu { op: AluOp::Div, rd: 0, ra: 1, rb: 2 },
            MInstr::MovRI { rd: 3, imm: 9 },
            MInstr::Halt,
        ]);
        let (out, _, stats) = fused_vs_exact(&b, u64::MAX);
        assert_eq!(out, Some(RunOutcome::Trap(Trap::DivFault)));
        assert_eq!((stats.sb_dispatches, stats.sb_fused_instrs), (1, 3));
    }

    #[test]
    fn stop_inside_a_trace_of_hook_events_matches_exact() {
        let sel = MInstr::CallRt { func: RtFunc::FiSelInstr, imm: 0 };
        let b = bin(vec![
            MInstr::MovRI { rd: 2, imm: 3 },
            sel, // loop head
            MInstr::AluI { op: AluOp::Add, rd: 1, ra: 1, imm: 1 },
            MInstr::CallRt { func: RtFunc::LlfiInjectI, imm: 0 },
            MInstr::Jmp { target: 6 },
            MInstr::Nop,
            sel,
            MInstr::AluI { op: AluOp::Sub, rd: 2, ra: 2, imm: 1 },
            MInstr::CmpI { ra: 2, imm: 0 },
            MInstr::Jcc { cc: Cc::Ne, target: 1 },
            MInstr::MovRI { rd: 0, imm: 0 },
            MInstr::Halt,
        ]);
        let sb = SuperblockProgram::new(&b);
        assert_eq!(sb.fused_events[0], 3);
        for stop in 1..=9 {
            let (out, count, _) = fused_vs_exact(&b, stop);
            assert_eq!((out, count), (None, stop));
        }
        let (out, count, stats) = fused_vs_exact(&b, 10);
        assert_eq!((out, count), (Some(RunOutcome::Exit(0)), 9));
        assert_eq!(stats.sb_stepped_instrs, 0, "every hook runs fused");
    }

    const SAVE_F: i64 = GLOBAL_BASE as i64;
    const SAVE_A: i64 = GLOBAL_BASE as i64 + 8;

    /// Sets `r0` and FLAGS (`42 < 100`) before a site.
    const ENTRY: [MInstr; 2] = [MInstr::MovRI { rd: 0, imm: 42 }, MInstr::CmpI { ra: 0, imm: 100 }];

    /// A program around one REFINE-shaped site whose PreFI (`pre`, built
    /// for pc `prefix.len()`) follows `prefix`: entered after [`ENTRY`],
    /// `r0` and FLAGS must come out of the site unchanged, so it exits 0;
    /// the SetupFI slot exits 99.
    fn site_program(prefix: &[MInstr], pre: [MInstr; 7], post: [MInstr; 3]) -> Binary {
        let mut text = prefix.to_vec();
        text.extend(pre);
        text.extend(post);
        text.extend([
            MInstr::SetCc { cc: Cc::Lt, rd: 3 },
            MInstr::AluI { op: AluOp::Sub, rd: 0, ra: 0, imm: 41 },
            MInstr::Alu { op: AluOp::Sub, rd: 0, ra: 0, rb: 3 },
            MInstr::Halt,
            MInstr::MovRI { rd: 0, imm: 99 }, // SetupFI
            MInstr::Halt,
        ]);
        bin(text)
    }

    /// [`site_program`] with a well-formed site.
    fn site_after(prefix: &[MInstr]) -> Binary {
        let at = prefix.len();
        site_program(prefix, pre_fi(at, SAVE_A, SAVE_F), post_fi(SAVE_F, SAVE_A))
    }

    /// A PreFI at pc `at`, its PostFI right after it and its SetupFI after
    /// [`site_program`]'s tail.
    fn pre_fi(at: usize, save_a: i64, save_f: i64) -> [MInstr; 7] {
        let at = at as u32;
        [
            MInstr::St { rs: 0, mem: Mem::abs(save_a) },
            MInstr::RdFlags { rd: 0 },
            MInstr::St { rs: 0, mem: Mem::abs(save_f) },
            MInstr::CallRt { func: RtFunc::FiSelInstr, imm: 5 },
            MInstr::CmpI { ra: 0, imm: 0 },
            MInstr::Jcc { cc: Cc::Ne, target: at + 14 },
            MInstr::Jmp { target: at + 7 },
        ]
    }

    fn post_fi(load_f: i64, load_a: i64) -> [MInstr; 3] {
        [
            MInstr::Ld { rd: 0, mem: Mem::abs(load_f) },
            MInstr::WrFlags { rs: 0 },
            MInstr::Ld { rd: 0, mem: Mem::abs(load_a) },
        ]
    }

    /// The data segment after an exact run of `b` to its end.
    fn exact_data(b: &Binary) -> Vec<u64> {
        let cfg = RunConfig::default();
        let mut m = Machine::new(b, &cfg);
        m.run_exact_until_fired(cfg.max_cycles, &mut NoFi, None);
        m.data
    }

    #[test]
    fn refine_site_skip_is_one_uop() {
        let b = site_after(&ENTRY);
        let sb = SuperblockProgram::new(&b);
        // The `cmpi` before the site absorbs it; the site's own skip µop
        // serves a trace headed at its PreFI.
        assert_eq!((sb.dispatch(1), sb.dispatch(2)), (Some((11, 12)), Some((10, 12))));
        assert_eq!(sb.fused_events[2], 1);
        let (out, count, stats) = fused_vs_exact(&b, u64::MAX);
        assert_eq!(out, Some(RunOutcome::Exit(0)));
        assert_eq!(count, 1);
        // One trace: two instructions, the 10-instruction skip, the tail.
        assert_eq!((stats.sb_dispatches, stats.sb_fused_instrs), (1, 15));
        // The stop boundary still lands exactly on the hook.
        fused_vs_exact(&b, 1);
    }

    #[test]
    fn near_miss_site_shapes_run_one_uop_per_instruction() {
        let mut other_reg = pre_fi(2, SAVE_A, SAVE_F);
        other_reg[1] = MInstr::RdFlags { rd: 1 };
        let outside = GLOBAL_BASE as i64 + 8 * 100;
        let near_misses = [
            site_program(&ENTRY, other_reg, post_fi(SAVE_F, SAVE_A)),
            site_program(&ENTRY, pre_fi(2, outside, SAVE_F), post_fi(SAVE_F, outside)),
            site_program(&ENTRY, pre_fi(2, SAVE_A, SAVE_F), post_fi(SAVE_A, SAVE_F)),
            site_program(&ENTRY, pre_fi(2, SAVE_A, SAVE_A), post_fi(SAVE_A, SAVE_A)),
        ];
        for (i, b) in near_misses.iter().enumerate() {
            let sb = SuperblockProgram::new(b);
            assert_eq!((sb.dispatch(1), sb.dispatch(2)), (Some((1, 2)), Some((1, 3))), "{i}");
            fused_vs_exact(b, u64::MAX);
            fused_vs_exact(b, 1);
        }
        let (out, ..) = fused_vs_exact(&near_misses[1], u64::MAX);
        assert_eq!(out, Some(RunOutcome::Trap(Trap::Segfault(outside as u64))));
    }

    #[test]
    fn trap_before_a_linked_past_jmp_leaves_exact_state() {
        let b = bin(vec![
            MInstr::MovRI { rd: 1, imm: 1 },
            MInstr::MovRI { rd: 2, imm: 0 },
            MInstr::Alu { op: AluOp::Div, rd: 0, ra: 1, rb: 2 },
            MInstr::Jmp { target: 5 },
            MInstr::Nop,
            MInstr::MovRI { rd: 3, imm: 9 },
            MInstr::Halt,
        ]);
        let sb = SuperblockProgram::new(&b);
        assert_eq!(sb.dispatch(2), Some((2, 5)));
        let (out, _, stats) = fused_vs_exact(&b, u64::MAX);
        assert_eq!(out, Some(RunOutcome::Trap(Trap::DivFault)));
        // The divide is charged, not retired; the `Jmp` is never fetched.
        assert_eq!((stats.sb_dispatches, stats.sb_fused_instrs), (1, 2));
    }

    #[test]
    fn taken_guard_that_absorbed_a_site_skips_its_stores() {
        for (x, exit) in [(42, 99), (100, 0)] {
            let b = site_after(&[
                MInstr::MovRI { rd: 0, imm: 42 },
                MInstr::CmpI { ra: 0, imm: x },
                MInstr::Jcc { cc: Cc::E, target: 17 },
            ]);
            let sb = SuperblockProgram::new(&b);
            assert_eq!(sb.dispatch(2), Some((11, 13)));
            let (out, _, stats) = fused_vs_exact(&b, u64::MAX);
            assert_eq!(out, Some(RunOutcome::Exit(exit)), "x = {x}");
            assert_eq!(stats.sb_stepped_instrs, 0);
            // The save-area words hold `r0` and FLAGS only if the site ran.
            assert_eq!(exact_data(&b)[..2] == [0, 0], exit == 99, "x = {x}");
        }
    }

    #[test]
    fn trapping_load_that_absorbed_a_site_skips_its_stores() {
        let b = site_after(&[
            MInstr::MovRI { rd: 0, imm: 42 },
            MInstr::CmpI { ra: 0, imm: 100 },
            MInstr::MovRI { rd: 1, imm: 8 },
            MInstr::Ld { rd: 2, mem: Mem::base_disp(1, 0) },
        ]);
        let sb = SuperblockProgram::new(&b);
        assert_eq!(sb.dispatch(3), Some((11, 14)));
        let (out, _, stats) = fused_vs_exact(&b, u64::MAX);
        assert_eq!(out, Some(RunOutcome::Trap(Trap::Segfault(8))));
        assert_eq!((stats.sb_dispatches, stats.sb_fused_instrs), (1, 3));
        assert_eq!(exact_data(&b)[..2], [0, 0]);
    }

    const INJECT_I: MInstr = MInstr::CallRt { func: RtFunc::LlfiInjectI, imm: 0 };
    const INJECT_F: MInstr = MInstr::CallRt { func: RtFunc::LlfiInjectF, imm: 0 };

    /// Run `b` fused and exactly from the same state, `pc` and register
    /// `(r, value)` set first, to the end; assert the whole state agrees and
    /// return the fused loop's (outcome, stats).
    fn from_pc_vs_exact(
        b: &Binary,
        pc: u32,
        (r, value): (u8, u64),
    ) -> (Option<RunOutcome>, TrialFastStats) {
        let sb = SuperblockProgram::new(b);
        let cfg = RunConfig::default();
        let max = cfg.max_cycles;
        let (mut fused, mut exact) = (Machine::new(b, &cfg), Machine::new(b, &cfg));
        for m in [&mut fused, &mut exact] {
            (m.pc, m.regs[r as usize]) = (pc, value);
        }
        let mut stats = TrialFastStats::default();
        let out = fused.run_sb(&sb, &mut 0, 0, u64::MAX, None, max, &mut stats);
        assert_eq!(out, exact.run_exact_until_fired(max, &mut NoFi, None), "from pc {pc}");
        assert_eq!(state(&fused), state(&exact), "from pc {pc}");
        (out, stats)
    }

    /// `r3 = 1 / r2`, LLFI's hook plumbing on `r3` into `r4`, then `r0 =
    /// r4 - 1`: exits 0 when `r2` is 1, traps when it is 0.
    fn hooked_divide(r2: i64) -> Binary {
        bin(vec![
            MInstr::MovRI { rd: 1, imm: 1 },
            MInstr::MovRI { rd: 2, imm: r2 },
            MInstr::Alu { op: AluOp::Div, rd: 3, ra: 1, rb: 2 },
            MInstr::MovRR { rd: 0, ra: 3 },
            INJECT_I,
            MInstr::MovRR { rd: 4, ra: 0 },
            MInstr::AluI { op: AluOp::Sub, rd: 0, ra: 4, imm: 1 },
            MInstr::Halt,
        ])
    }

    #[test]
    fn producer_absorbs_the_hook_copy_after_it() {
        let b = hooked_divide(1);
        let sb = SuperblockProgram::new(&b);
        // The divide runs the copy; the copy's own µop serves a trace
        // headed on it.
        assert_eq!((sb.dispatch(2), sb.dispatch(3)), (Some((4, 6)), Some((3, 6))));
        let (out, count, stats) = fused_vs_exact(&b, u64::MAX);
        assert_eq!((out, count), (Some(RunOutcome::Exit(0)), 1));
        assert_eq!((stats.sb_dispatches, stats.sb_fused_instrs, stats.sb_uops), (1, 7, 4));
        fused_vs_exact(&b, 1);
    }

    #[test]
    fn divide_by_zero_traps_before_its_absorbed_hook() {
        let b = hooked_divide(0);
        let (out, count, stats) = fused_vs_exact(&b, u64::MAX);
        assert_eq!(out, Some(RunOutcome::Trap(Trap::DivFault)));
        // The divide is charged, not retired; the hook is never fetched.
        assert_eq!(count, 0);
        assert_eq!((stats.sb_dispatches, stats.sb_fused_instrs, stats.sb_uops), (1, 2, 3));
    }

    #[test]
    fn trace_started_on_absorbed_plumbing_matches_exact() {
        let b = hooked_divide(1);
        // Each pc of the plumbing heads a trace of its own: after a fire
        // window the run resumes past the hook, on the `mov y <- r0`. The
        // value the plumbing carries is 1, in `r3` or (past the `mov`) `r0`.
        for pc in 3..=5 {
            let (out, stats) = from_pc_vs_exact(&b, pc, (if pc == 3 { 3 } else { 0 }, 1));
            assert_eq!(out, Some(RunOutcome::Exit(0)), "pc {pc}");
            assert_eq!(stats.sb_dispatches, 1, "pc {pc}");
        }
        // The fused prefix stops on the hook, exactly as the exact loop.
        let (out, count, _) = fused_vs_exact(&b, 1);
        assert_eq!((out, count), (None, 1));
    }

    #[test]
    fn hook_without_copy_and_r0_writer_are_absorbed() {
        // `ld r3; mov r0 <- r3; hook; st r0` and `lea r0; hook; mov r5 <- r0`
        // (integer) and `fld f2; fmov f0 <- f2; hook; fmov f4 <- f0`.
        let b = Binary {
            data: vec![40, 0, 0, 0, 0, 0, 0, 0],
            ..bin(vec![
                MInstr::Ld { rd: 3, mem: Mem::abs(GLOBAL_BASE as i64) },
                MInstr::MovRR { rd: 0, ra: 3 },
                INJECT_I,
                MInstr::St { rs: 0, mem: Mem::abs(GLOBAL_BASE as i64 + 8) },
                MInstr::Lea { rd: 0, mem: Mem { base: None, index: Some((3, 8)), disp: 2 } },
                INJECT_I,
                MInstr::MovRR { rd: 5, ra: 0 },
                MInstr::FLd { fd: 2, mem: Mem::abs(GLOBAL_BASE as i64) },
                MInstr::FMovRR { fd: 0, fa: 2 },
                INJECT_F,
                MInstr::FMovRR { fd: 4, fa: 0 },
                MInstr::Cvt { kind: CvtKind::FToBits, dst: 6, src: 4 },
                MInstr::Alu { op: AluOp::Sub, rd: 0, ra: 5, rb: 6 },
                MInstr::AluI { op: AluOp::Sub, rd: 0, ra: 0, imm: 322 - 40 },
                MInstr::Halt,
            ])
        };
        let sb = SuperblockProgram::new(&b);
        assert_eq!(sb.dispatch(0), Some((3, 3)), "ld absorbs `mov r0; hook`");
        assert_eq!(sb.dispatch(4), Some((3, 7)), "lea absorbs `hook; mov r5 <- r0`");
        assert_eq!(sb.dispatch(7), Some((4, 11)), "fld absorbs the copy");
        let (out, count, stats) = fused_vs_exact(&b, u64::MAX);
        assert_eq!((out, count), (Some(RunOutcome::Exit(0)), 3));
        assert_eq!(stats.sb_uops, 7);
        for stop in 1..=3 {
            fused_vs_exact(&b, stop);
        }
    }

    #[test]
    fn compare_and_guard_pairs_take_or_fall_through_exactly() {
        let wide = 1 << 40;
        // (compare, r1, taken): each compare against `r2 = 5` or `f1 = 5.0`.
        let cases = [
            (MInstr::Cmp { ra: 1, rb: 2 }, 5, true),
            (MInstr::Cmp { ra: 1, rb: 2 }, 6, false),
            (MInstr::CmpI { ra: 1, imm: 5 }, 5, true),
            (MInstr::CmpI { ra: 1, imm: -5 }, 5, false),
            (MInstr::CmpI { ra: 1, imm: wide }, wide as u64, true),
            (MInstr::FCmp { fa: 1, fb: 2 }, 5, true),
            (MInstr::FCmp { fa: 1, fb: 2 }, 6, false),
        ];
        for (cmp, r1, taken) in cases {
            let b = bin(vec![
                MInstr::MovRI { rd: 2, imm: 5 },
                MInstr::Cvt { kind: CvtKind::SiToF, dst: 1, src: 1 },
                MInstr::Cvt { kind: CvtKind::SiToF, dst: 2, src: 2 },
                cmp,
                MInstr::Jcc { cc: Cc::E, target: 7 },
                MInstr::MovRI { rd: 0, imm: 1 },
                MInstr::Halt,
                MInstr::MovRI { rd: 0, imm: 2 },
                MInstr::Halt,
            ]);
            let sb = SuperblockProgram::new(&b);
            let paired = !matches!(cmp, MInstr::CmpI { imm, .. } if imm == wide);
            let covers = if paired { 2 } else { 1 };
            assert_eq!(sb.dispatch(3), Some((covers, 3 + covers as usize)), "{cmp:?}");
            let (out, stats) = from_pc_vs_exact(&b, 0, (1, r1));
            let exit = if taken { 2 } else { 1 };
            assert_eq!(out, Some(RunOutcome::Exit(exit)), "{cmp:?} r1 = {r1}");
            // The taken guard retires and side-exits: one more dispatch.
            let uops = 6 - u64::from(paired);
            assert_eq!((stats.sb_dispatches, stats.sb_uops), (1 + u64::from(taken), uops));
        }
    }

    /// `r2 = [r1]` into `[r3]` (a `Ld`/`St` pair) with `r1` set by the
    /// caller and `r3` pointing at data word 1, or at address 8 when
    /// `bad_store`; then `f3 = [r1 + 8] * f2` and `f4 = f2 - [r1 + 8]` (two
    /// `FLd`/`FAlu` pairs). Exits 0, having copied data word 0 into word 1.
    fn load_pairs(bad_store: bool) -> Binary {
        let store_to = if bad_store { 8 } else { GLOBAL_BASE as i64 + 8 };
        let text = vec![
            MInstr::MovRI { rd: 3, imm: store_to },
            MInstr::FMovRI { fd: 2, imm: 2.0f64.to_bits() },
            MInstr::Ld { rd: 2, mem: Mem::base_disp(1, 0) },
            MInstr::St { rs: 2, mem: Mem::base_disp(3, 0) },
            MInstr::FLd { fd: 1, mem: Mem::base_disp(1, 16) },
            MInstr::FAlu { op: FAluOp::Mul, fd: 3, fa: 1, fb: 2 },
            MInstr::FLd { fd: 1, mem: Mem::abs(GLOBAL_BASE as i64 + 16) },
            MInstr::FAlu { op: FAluOp::Sub, fd: 4, fa: 2, fb: 1 },
            MInstr::FAlu { op: FAluOp::Add, fd: 5, fa: 3, fb: 4 },
            MInstr::Cvt { kind: CvtKind::FToSi, dst: 0, src: 5 },
            MInstr::AluI { op: AluOp::Sub, rd: 0, ra: 0, imm: 5 },
            MInstr::Halt,
        ];
        Binary { data: vec![7, 0, 3.0f64.to_bits(), 0, 0, 0, 0, 0], ..bin(text) }
    }

    #[test]
    fn load_store_and_load_alu_pairs_match_exact() {
        let b = load_pairs(false);
        let sb = SuperblockProgram::new(&b);
        assert_eq!(
            (sb.dispatch(2), sb.dispatch(4), sb.dispatch(6)),
            (Some((2, 4)), Some((2, 6)), Some((2, 8)))
        );
        let (out, stats) = from_pc_vs_exact(&b, 0, (1, GLOBAL_BASE));
        assert_eq!(out, Some(RunOutcome::Exit(0)));
        assert_eq!((stats.sb_dispatches, stats.sb_fused_instrs, stats.sb_uops), (1, 11, 8));
        // The first half traps: nothing retires from the pair.
        let (out, stats) = from_pc_vs_exact(&b, 0, (1, 8));
        assert_eq!(out, Some(RunOutcome::Trap(Trap::Segfault(8))));
        assert_eq!((stats.sb_fused_instrs, stats.sb_uops), (2, 3));
    }

    #[test]
    fn store_of_a_pair_traps_after_its_load_wrote_the_register() {
        let b = load_pairs(true);
        let (out, stats) = from_pc_vs_exact(&b, 0, (1, GLOBAL_BASE));
        assert_eq!(out, Some(RunOutcome::Trap(Trap::Segfault(8))));
        // The load retired (`r2` holds 7, checked against the exact state);
        // the store is charged, not retired, and `pc` is left on it.
        assert_eq!((stats.sb_dispatches, stats.sb_fused_instrs, stats.sb_uops), (1, 3, 3));
    }

    /// Register moves and unindexed memory accesses of both register files
    /// in pairs (pcs 3, 7, 9, 11 and 13 on the trace from pc 0), the second
    /// of each reading what the first wrote; the stores go to data words 0,
    /// 1 and 2, the second through `r3 + 8`. Exits 0 when `r3` is the data
    /// segment.
    fn move_and_memory_pairs(r3: i64) -> Binary {
        let abs = |w: usize| Mem::abs(data_addr(w) as i64);
        let add = |rb| MInstr::Alu { op: AluOp::Add, rd: 0, ra: 0, rb };
        bin(vec![
            MInstr::MovRI { rd: 1, imm: 5 },
            MInstr::MovRI { rd: 2, imm: 9 },
            MInstr::MovRI { rd: 3, imm: r3 },
            MInstr::MovRR { rd: 4, ra: 1 },
            MInstr::MovRR { rd: 1, ra: 2 },
            MInstr::MovRR { rd: 2, ra: 4 },
            MInstr::Cvt { kind: CvtKind::BitsToF, dst: 1, src: 1 },
            MInstr::FMovRR { fd: 2, fa: 1 },
            MInstr::MovRR { rd: 5, ra: 2 },
            MInstr::St { rs: 1, mem: abs(0) },
            MInstr::St { rs: 2, mem: Mem::base_disp(3, 8) },
            MInstr::FSt { fs: 2, mem: abs(2) },
            MInstr::Ld { rd: 6, mem: Mem::base_disp(3, 8) },
            MInstr::FLd { fd: 3, mem: abs(0) },
            MInstr::Ld { rd: 7, mem: abs(2) },
            MInstr::Cvt { kind: CvtKind::FToBits, dst: 0, src: 3 },
            add(1),
            add(2),
            add(5),
            add(6),
            add(7),
            MInstr::AluI { op: AluOp::Sub, rd: 0, ra: 0, imm: 9 + 9 + 5 + 5 + 5 + 9 },
            MInstr::Halt,
        ])
    }

    #[test]
    fn move_and_memory_pairs_match_exact() {
        let b = move_and_memory_pairs(GLOBAL_BASE as i64);
        let sb = SuperblockProgram::new(&b);
        // A trace pairs forward from wherever it starts: from pc 0 the
        // moves at 3 and 4 pair, and a trace headed at 4 pairs 4 and 5.
        for pc in [3, 4, 7, 9, 11, 13] {
            assert_eq!(sb.dispatch(pc), Some((2, pc + 2)), "pair at pc {pc}");
        }
        assert_eq!(sb.dispatch(5), Some((1, 6)));
        let (out, stats) = from_pc_vs_exact(&b, 0, (0, 0));
        assert_eq!(out, Some(RunOutcome::Exit(0)));
        assert_eq!((stats.sb_dispatches, stats.sb_fused_instrs, stats.sb_uops), (1, 22, 17));
        // The pair's second store faults after its first retired.
        for (r3, trap) in [(4, Trap::Misaligned(12)), (8, Trap::Segfault(16))] {
            let (out, stats) = from_pc_vs_exact(&move_and_memory_pairs(r3), 0, (0, 0));
            assert_eq!(out, Some(RunOutcome::Trap(trap)), "r3 = {r3}");
            assert_eq!((stats.sb_fused_instrs, stats.sb_uops), (10, 8), "r3 = {r3}");
        }
    }

    /// `items` with a REFINE site (PreFI and PostFI, the save area in data
    /// words 0 and 1) wherever `None` stands, then `Halt` and the SetupFI
    /// slot every site's trigger branch targets; and the pc of each item.
    fn with_sites(items: &[Option<MInstr>]) -> (Binary, Vec<usize>) {
        let (mut text, mut pcs, mut sites) = (Vec::new(), Vec::new(), Vec::new());
        for item in items {
            pcs.push(text.len());
            match *item {
                Some(i) => text.push(i),
                None => {
                    sites.push(text.len());
                    text.extend(pre_fi(text.len(), SAVE_A, SAVE_F));
                    text.extend(post_fi(SAVE_F, SAVE_A));
                }
            }
        }
        text.push(MInstr::Halt);
        let setup = text.len() as u32;
        text.extend([MInstr::MovRI { rd: 0, imm: 99 }, MInstr::Halt]);
        for pre in sites {
            text[pre + 5] = MInstr::Jcc { cc: Cc::Ne, target: setup };
        }
        (bin(text), pcs)
    }

    /// Run `b` fused and exactly from pc 0 with the registers `regs` set
    /// first, to the end; assert the whole state agrees and return the
    /// fused loop's (outcome, final pc, stats).
    fn regs_vs_exact(b: &Binary, regs: &[(u8, u64)]) -> (Option<RunOutcome>, u32, TrialFastStats) {
        let sb = SuperblockProgram::new(b);
        let cfg = RunConfig::default();
        let max = cfg.max_cycles;
        let (mut fused, mut exact) = (Machine::new(b, &cfg), Machine::new(b, &cfg));
        for m in [&mut fused, &mut exact] {
            for &(r, v) in regs {
                m.regs[r as usize] = v;
            }
        }
        let mut stats = TrialFastStats::default();
        let out = fused.run_sb(&sb, &mut 0, 0, u64::MAX, None, max, &mut stats);
        assert_eq!(out, exact.run_exact_until_fired(max, &mut NoFi, None), "{regs:?}");
        assert_eq!(state(&fused), state(&exact), "{regs:?}");
        (out, fused.pc, stats)
    }

    /// Data word `w`'s address, as a register value.
    fn word(w: usize) -> u64 {
        data_addr(w)
    }

    fn ld(rd: u8, base: u8) -> MInstr {
        MInstr::Ld { rd, mem: Mem::base_disp(base, 0) }
    }

    fn st(rs: u8, base: u8) -> MInstr {
        MInstr::St { rs, mem: Mem::base_disp(base, 0) }
    }

    #[test]
    fn second_half_across_a_site_stops_at_its_own_pc() {
        // `ld r2 <- [r1]; <site>; st r2 -> [r3]`: one pair µop, its store
        // eleven instructions past its load.
        let (b, pcs) = with_sites(&[Some(ld(2, 1)), None, Some(st(2, 3)), Some(ld(4, 3))]);
        let sb = SuperblockProgram::new(&b);
        assert_eq!(sb.dispatch(0), Some((12, 12)), "load, site and store are one µop");
        let store = pcs[2] as u32;
        // `r0` is 42 so the site's save stores show in the data compared.
        let (out, _, stats) = regs_vs_exact(&b, &[(0, 42), (1, word(2)), (3, word(3))]);
        assert_eq!(out, Some(RunOutcome::Exit(42)));
        assert_eq!((stats.sb_dispatches, stats.sb_uops, stats.sb_fused_instrs), (1, 2, 13));
        // The store faults or is misaligned: charged, not retired, with `pc`
        // on it; the load and the whole site retired.
        for (r3, trap) in [(8, Trap::Segfault(8)), (word(3) + 4, Trap::Misaligned(word(3) + 4))] {
            let (out, pc, stats) = regs_vs_exact(&b, &[(0, 42), (1, word(2)), (3, r3)]);
            assert_eq!((out, pc), (Some(RunOutcome::Trap(trap)), store), "r3 = {r3:#x}");
            assert_eq!((stats.sb_uops, stats.sb_fused_instrs), (1, 11), "r3 = {r3:#x}");
        }
        // The load faults: the site never runs.
        let (out, pc, stats) = regs_vs_exact(&b, &[(0, 42), (1, 8), (3, word(3))]);
        assert_eq!((out, pc), (Some(RunOutcome::Trap(Trap::Segfault(8))), 0));
        assert_eq!(stats.sb_fused_instrs, 0);
    }

    #[test]
    fn site_tailed_second_half_traps_in_either_half_exactly() {
        // (items, instructions the pair covers, the second half's item): a
        // load with its site, or a store with none, then a load with its
        // site, all one µop.
        let programs = [
            (vec![Some(ld(2, 1)), None, Some(ld(4, 3)), None, Some(st(4, 1))], 22, 2),
            (vec![Some(st(2, 1)), Some(ld(4, 3)), None, Some(st(4, 1))], 12, 1),
        ];
        for (items, covers, second) in programs {
            let (b, pcs) = with_sites(&items);
            let sb = SuperblockProgram::new(&b);
            assert_eq!(sb.dispatch(0), Some((covers, covers as usize)), "{items:?}");
            let (out, _, stats) = regs_vs_exact(&b, &[(0, 42), (1, word(2)), (3, word(3))]);
            assert_eq!((out, stats.sb_uops), (Some(RunOutcome::Exit(42)), 2), "{items:?}");
            // The second load faults after the first half (and its site)
            // retired, before its own site stores.
            let (out, pc, _) = regs_vs_exact(&b, &[(0, 42), (1, word(2)), (3, 16)]);
            let second = pcs[second] as u32;
            assert_eq!((out, pc), (Some(RunOutcome::Trap(Trap::Segfault(16))), second));
            let (out, pc, _) = regs_vs_exact(&b, &[(0, 42), (1, 16), (3, word(3))]);
            assert_eq!((out, pc), (Some(RunOutcome::Trap(Trap::Segfault(16))), 0), "{items:?}");
        }
    }

    #[test]
    fn second_half_guard_across_a_site_side_exits_exactly() {
        // `cmpi r1, 5; <site>; jl taken`, then a fall-through path.
        let (mut b, pcs) = with_sites(&[
            Some(MInstr::CmpI { ra: 1, imm: 5 }),
            None,
            Some(MInstr::Jcc { cc: Cc::Lt, target: 0 }),
            Some(MInstr::MovRI { rd: 0, imm: 1 }),
            Some(MInstr::Halt),
            Some(MInstr::MovRI { rd: 0, imm: 2 }),
        ]);
        b.text[pcs[2]] = MInstr::Jcc { cc: Cc::Lt, target: pcs[5] as u32 };
        let sb = SuperblockProgram::new(&b);
        assert_eq!(sb.dispatch(0), Some((12, 12)), "compare, site and guard are one µop");
        for (r1, exit, dispatches) in [(3, 2, 2), (7, 1, 1)] {
            let (out, _, stats) = regs_vs_exact(&b, &[(1, r1)]);
            assert_eq!(out, Some(RunOutcome::Exit(exit)), "r1 = {r1}");
            // A taken guard retires and its trace side-exits to the target.
            assert_eq!(stats.sb_dispatches, dispatches, "r1 = {r1}");
            assert_eq!(stats.sb_stepped_instrs, 0, "r1 = {r1}");
        }
    }

    #[test]
    fn second_half_divide_fault_across_a_site() {
        // `add r2 <- r1 + r5; <site>; div r4 <- r2 / -1; <site>` faults on
        // `i64::MIN / -1`.
        let (b, pcs) = with_sites(&[
            Some(MInstr::Alu { op: AluOp::Add, rd: 2, ra: 1, rb: 5 }),
            None,
            Some(MInstr::AluI { op: AluOp::Div, rd: 4, ra: 2, imm: -1 }),
            None,
        ]);
        let sb = SuperblockProgram::new(&b);
        assert_eq!(sb.dispatch(0), Some((22, 22)));
        let (out, _, _) = regs_vs_exact(&b, &[(1, 6)]);
        assert_eq!(out, Some(RunOutcome::Exit(0)));
        let (out, pc, stats) = regs_vs_exact(&b, &[(1, i64::MIN as u64)]);
        assert_eq!((out, pc), (Some(RunOutcome::Trap(Trap::DivFault)), pcs[2] as u32));
        assert_eq!(stats.sb_fused_instrs, 11);
    }

    #[test]
    fn pairs_around_llfi_hook_plumbing_trap_in_either_half_exactly() {
        let f = |fd, base| MInstr::FLd { fd, mem: Mem::base_disp(base, 0) };
        let fst = |fs, base| MInstr::FSt { fs, mem: Mem::base_disp(base, 0) };
        let fmov = |fd, fa| MInstr::FMovRR { fd, fa };
        let programs = [
            // A load with its hook (`HOOK`), then the store of `f0`.
            (vec![f(2, 1), fmov(0, 2), INJECT_F, fst(0, 3)], 4, 3),
            // A multiply with its hook copy (`HOOK_COPY`), then a load.
            (
                vec![
                    MInstr::FAlu { op: FAluOp::Mul, fd: 3, fa: 1, fb: 2 },
                    fmov(0, 3),
                    INJECT_F,
                    fmov(4, 0),
                    f(5, 3),
                ],
                5,
                4,
            ),
            // A store, then a load with its hook copy as the second half's
            // tail.
            (vec![fst(1, 1), f(2, 3), fmov(0, 2), INJECT_F, fmov(4, 0)], 5, 1),
        ];
        for (i, (mut text, covers, second)) in programs.into_iter().enumerate() {
            text.extend([MInstr::MovRI { rd: 0, imm: 0 }, MInstr::Halt]);
            let b = bin(text);
            let sb = SuperblockProgram::new(&b);
            assert_eq!(sb.dispatch(0), Some((covers, covers as usize)), "program {i}");
            let (out, _, stats) = regs_vs_exact(&b, &[(1, word(2)), (3, word(3))]);
            assert_eq!((out, stats.sb_uops), (Some(RunOutcome::Exit(0)), 2), "program {i}");
            let (out, pc, _) = regs_vs_exact(&b, &[(1, word(2)), (3, 24)]);
            assert_eq!((out, pc), (Some(RunOutcome::Trap(Trap::Segfault(24))), second), "{i}");
            if i != 1 {
                let (out, pc, _) = regs_vs_exact(&b, &[(1, 24), (3, word(3))]);
                assert_eq!((out, pc), (Some(RunOutcome::Trap(Trap::Segfault(24))), 0), "{i}");
            }
        }
    }

    #[test]
    fn first_half_guard_side_exits_exactly() {
        // The guard pairs with the move after it; the `subi` setting the
        // flags pairs with neither.
        let b = bin(vec![
            MInstr::AluI { op: AluOp::Sub, rd: 5, ra: 1, imm: 0 },
            MInstr::Jcc { cc: Cc::Gt, target: 4 },
            MInstr::FMovRR { fd: 1, fa: 2 },
            MInstr::Halt,
            MInstr::MovRI { rd: 0, imm: 7 },
            MInstr::Halt,
        ]);
        let sb = SuperblockProgram::new(&b);
        assert_eq!((sb.dispatch(0), sb.dispatch(1)), (Some((1, 1)), Some((2, 3))));
        let (out, pc, stats) = regs_vs_exact(&b, &[(1, 1)]);
        assert_eq!((out, pc, stats.sb_dispatches), (Some(RunOutcome::Exit(7)), 5, 2));
        let (out, _, stats) = regs_vs_exact(&b, &[(1, 0)]);
        assert_eq!((out, stats.sb_uops), (Some(RunOutcome::Exit(0)), 2));
    }

    #[test]
    fn push_and_pop_pairs_trap_on_sp_in_either_half() {
        let base = STACK_TOP - 8 * RunConfig::default().stack_words as u64;
        let pushes = bin(vec![MInstr::Push { rs: 1 }, MInstr::Push { rs: 2 }, MInstr::Halt]);
        let pops = bin(vec![MInstr::Pop { rd: 3 }, MInstr::Pop { rd: 4 }, MInstr::Halt]);
        for b in [&pushes, &pops] {
            assert_eq!(SuperblockProgram::new(b).dispatch(0), Some((2, 2)));
        }
        // (program, sp, trapping pc, address): the second push stores just
        // below the stack, the second pop loads just above it.
        let cases = [
            (&pushes, STACK_TOP, None),
            (&pushes, base + 8, Some((1, base - 8))),
            (&pushes, base, Some((0, base - 8))),
            (&pops, STACK_TOP - 16, None),
            (&pops, STACK_TOP - 8, Some((1, STACK_TOP))),
            (&pops, STACK_TOP, Some((0, STACK_TOP))),
        ];
        for (b, sp, trap) in cases {
            let (out, pc, _) = regs_vs_exact(b, &[(15, sp)]);
            let want = match trap {
                Some((pc, addr)) => (Some(RunOutcome::Trap(Trap::Segfault(addr))), pc),
                None => (Some(RunOutcome::Exit(0)), 2),
            };
            assert_eq!((out, pc), want, "sp {sp:#x}");
        }
    }

    /// Stops `run_exact_until_fired` right after the retire that reaches
    /// `due`, charging `overhead` cycles per fetch and counting fetched FI
    /// targets, as an attached DBI profiler does.
    struct DueProbe {
        due: u64,
        at_due: bool,
        overhead: u64,
        targets: u64,
    }

    impl DueProbe {
        fn new(overhead: u64) -> Self {
            DueProbe { due: u64::MAX, at_due: false, overhead, targets: 0 }
        }
    }

    impl Probe for DueProbe {
        fn before(&mut self, _pc: u32, instr: &MInstr, retired: u64) -> ProbeAction {
            self.at_due = retired + 1 == self.due;
            self.targets += u64::from(!fi_outputs(instr).is_empty());
            ProbeAction::Continue
        }
        fn overhead_cycles(&self) -> u64 {
            self.overhead
        }
        fn fired(&self) -> bool {
            self.at_due
        }
    }

    /// A first trace that stores, crosses a forward `Jmp` and side-exits
    /// at a `Jcc` guard, into a loop body that stores to data and stack;
    /// 13 instructions retire before the `Halt`.
    fn boundary_program() -> Binary {
        bin(vec![
            MInstr::MovRI { rd: 1, imm: GLOBAL_BASE as i64 },
            MInstr::MovRI { rd: 2, imm: 2 },
            MInstr::St { rs: 2, mem: Mem::base_disp(1, 0) },
            MInstr::Jmp { target: 5 },
            MInstr::Nop,
            MInstr::CmpI { ra: 2, imm: 2 }, // loop head
            MInstr::Jcc { cc: Cc::E, target: 9 },
            MInstr::MovRI { rd: 0, imm: 0 },
            MInstr::Halt,
            MInstr::AluI { op: AluOp::Sub, rd: 2, ra: 2, imm: 1 },
            MInstr::St { rs: 2, mem: Mem::base_disp(1, 8) },
            MInstr::Push { rs: 2 },
            MInstr::Jmp { target: 5 },
        ])
    }

    #[test]
    fn capture_boundary_anywhere_in_a_trace_leaves_exact_state() {
        let b = boundary_program();
        let sb = SuperblockProgram::new(&b);
        assert_eq!((sb.fused_len[0], sb.trace_end[0], sb.fused_len[9]), (7, 8, 3));
        let cfg = RunConfig::default();
        let max = cfg.max_cycles;
        for due in 1..=14 {
            let (mut fused, mut exact) = (Machine::new(&b, &cfg), Machine::new(&b, &cfg));
            let (mut count, mut stats) = (0, TrialFastStats::default());
            let out =
                fused.sb_loop::<CAPTURE>(&sb, &mut count, 0, u64::MAX, None, due, max, &mut stats);
            // The capture stops at or after the due count, at most one
            // trace past it; the exact loop stops after the same retire.
            let at = if out.is_none() { fused.instrs_retired } else { due };
            assert!(at >= due && at - due < 7, "due {due} captured at {at}");
            let mut probe = DueProbe { due: at, ..DueProbe::new(0) };
            let exact_out = exact.run_exact_until_fired(max, &mut NoFi, Some(&mut probe));
            assert_eq!(out, exact_out, "due {due}");
            assert_eq!(state(&fused), state(&exact), "due {due}");
            assert_eq!(out.is_none(), due <= 13, "due {due}");
            if due == 9 {
                // The side-exited entry trace, then the loop body's whole
                // trace ending exactly on the due count: both fused.
                assert_eq!((stats.sb_dispatches, stats.sb_stepped_instrs), (2, 0));
            }
        }
    }

    /// Profile `b` fused with a snapshot every `interval` retired
    /// instructions, counting FI targets at fetch as events when `probed`
    /// (PINFI) and FI-hook calls otherwise; assert the run and every
    /// snapshot equal the exact loop's full-scan ones, and return the fused
    /// store.
    fn profile_vs_exact(b: &Binary, probed: bool, overhead: u64, interval: u64) -> CheckpointStore {
        let ckpt = CheckpointConfig { interval, ..CheckpointConfig::default() };
        profile_vs_exact_with(b, probed, overhead, &ckpt)
    }

    /// [`profile_vs_exact`] under `ckpt`: every snapshot the store keeps
    /// must equal the exact loop's full scan after the retire it records,
    /// and the kept snapshots hold distinct due slots of the final interval.
    fn profile_vs_exact_with(
        b: &Binary,
        probed: bool,
        overhead: u64,
        ckpt: &CheckpointConfig,
    ) -> CheckpointStore {
        let cfg = RunConfig::default();
        let mut builder = CheckpointBuilder::new(ckpt);
        let sb = if probed { SuperblockProgram::probed(b) } else { SuperblockProgram::new(b) };
        let (fused, count) = Machine::run_profile(b, &cfg, &sb, overhead, Some(&mut builder));
        let store = builder.finish();

        let mut m = Machine::new(b, &cfg);
        let (mut rt, mut probe) = (CountTo { count: 0, at: u64::MAX }, DueProbe::new(overhead));
        let mut snapshots: Vec<Checkpoint> = Vec::new();
        let mut points = store.checkpoints.iter().map(|c| c.retired);
        let outcome = loop {
            probe.due = points.next().unwrap_or(u64::MAX);
            let run = m.run_exact_until_fired(cfg.max_cycles, &mut rt, Some(&mut probe));
            if let Some(outcome) = run {
                break outcome;
            }
            let fi = if probed { probe.targets } else { rt.count };
            snapshots.push(m.snapshot(fi));
        };
        let events = if probed { probe.targets } else { rt.count };
        let exact = m.into_result(outcome);
        assert_eq!(
            (fused.outcome, fused.output, fused.cycles, fused.instrs_retired, count),
            (exact.outcome, exact.output, exact.cycles, exact.instrs_retired, events)
        );
        assert_eq!(store.checkpoints, snapshots);
        let slots: Vec<u64> =
            store.checkpoints.iter().map(|c| c.retired / store.interval).collect();
        assert!(
            slots.first().is_none_or(|&s| s >= 1) && slots.windows(2).all(|w| w[0] < w[1]),
            "due slots {slots:?} of interval {}",
            store.interval
        );
        store
    }

    #[test]
    fn halt_or_trap_before_the_due_count_takes_no_snapshot() {
        let halts = boundary_program();
        assert!(profile_vs_exact(&halts, false, 0, 14).is_empty());
        // The 13th retire is due: its snapshot is taken, on the `Halt`.
        let store = profile_vs_exact(&halts, false, 0, 13);
        let points: Vec<_> = store.checkpoints.iter().map(|c| (c.retired, c.pc)).collect();
        assert_eq!(points, [(13, 8)]);
        let traps = bin(vec![
            MInstr::MovRI { rd: 1, imm: 1 },
            MInstr::MovRI { rd: 2, imm: 0 },
            MInstr::Alu { op: AluOp::Div, rd: 0, ra: 1, rb: 2 },
            MInstr::Halt,
        ]);
        // The trap ends the program's only trace, before any dispatch
        // boundary at or after a due count.
        assert!(profile_vs_exact(&traps, false, 0, 3).is_empty());
        assert!(profile_vs_exact(&traps, false, 0, 2).is_empty());
    }

    #[test]
    fn probe_overhead_is_charged_per_fetched_instruction() {
        let b = boundary_program();
        let sb = SuperblockProgram::probed(&b);
        let cfg = RunConfig::default();
        let (fused, count) = Machine::run_profile(&b, &cfg, &sb, 10, None);
        let mut probe = CountingProbe::new(|i| !fi_outputs(i).is_empty());
        assert_eq!(probe.overhead_cycles(), 10);
        let exact = Machine::run(&b, &cfg, &mut NoFi, Some(&mut probe));
        assert_eq!(
            (fused.cycles, fused.instrs_retired, count),
            (exact.cycles, exact.instrs_retired, probe.count)
        );
        // Every retired instruction and the final `Halt` were fetched.
        let native = Machine::run(&b, &cfg, &mut NoFi, None);
        assert_eq!(fused.cycles, native.cycles + 10 * (native.instrs_retired + 1));
        for interval in [1, 2, 5] {
            profile_vs_exact(&b, true, 10, interval);
        }
    }

    #[test]
    fn page_written_back_to_its_baseline_is_not_captured() {
        let word = Mem::abs(GLOBAL_BASE as i64);
        // Each taken `Jcc` (FLAGS stay 0, so `ne` holds) side-exits its
        // trace: a dispatch boundary, and so a snapshot, after every pair.
        let next = |target| MInstr::Jcc { cc: Cc::Ne, target };
        let b = bin(vec![
            MInstr::MovRI { rd: 1, imm: 7 },
            next(2),
            MInstr::St { rs: 1, mem: word },
            next(4),
            MInstr::Push { rs: 1 },
            next(6),
            MInstr::MovRI { rd: 1, imm: 0 },
            next(8),
            MInstr::St { rs: 1, mem: word }, // the data word is 0 again
            MInstr::Halt,
        ]);
        let store = profile_vs_exact(&b, false, 0, 1);
        let pages = |c: &Checkpoint| (c.data_pages.len(), c.stack_pages.len());
        let counts: Vec<_> = store.checkpoints.iter().map(pages).collect();
        assert_eq!(counts, [(0, 0), (1, 0), (1, 1), (1, 1), (0, 1)]);
    }

    /// The data word of page `p` that [`paging_program`] stores to.
    const PAGE: [usize; 3] = [0, PAGE_WORDS, 2 * PAGE_WORDS];

    /// One push and one data store before a 16-iteration loop of seven
    /// instructions that stores `i & 1 + 5` to data page 1 (6, 5, 6, ...:
    /// back to content an earlier snapshot held) and `i & 1` to page 2
    /// (back to the baseline every other iteration).
    fn paging_program() -> Binary {
        let abs = |w: usize| Mem::abs(data_addr(w) as i64);
        let text = vec![
            MInstr::MovRI { rd: 1, imm: 7 },
            MInstr::St { rs: 1, mem: abs(PAGE[0]) },
            MInstr::Push { rs: 1 },
            MInstr::MovRI { rd: 2, imm: 0 },
            MInstr::AluI { op: AluOp::Add, rd: 2, ra: 2, imm: 1 }, // loop head
            MInstr::AluI { op: AluOp::And, rd: 3, ra: 2, imm: 1 },
            MInstr::St { rs: 3, mem: abs(PAGE[2]) },
            MInstr::AluI { op: AluOp::Add, rd: 3, ra: 3, imm: 5 },
            MInstr::St { rs: 3, mem: abs(PAGE[1]) },
            MInstr::CmpI { ra: 2, imm: 16 },
            MInstr::Jcc { cc: Cc::Lt, target: 4 },
            MInstr::Halt,
        ];
        Binary { data: vec![0; 3 * PAGE_WORDS], ..bin(text) }
    }

    /// Data page `index` of `ck`, if captured.
    fn data_page(ck: &Checkpoint, index: usize) -> Option<&DirtyPage> {
        ck.data_pages.iter().find(|p| p.index as usize == index)
    }

    #[test]
    fn capture_shares_unchanged_pages_with_the_previous_snapshot() {
        let b = paging_program();
        // One snapshot per iteration, each equal to the full scan.
        let store = profile_vs_exact(&b, false, 0, 7);
        assert_eq!(store.len(), 16);
        let shared = |x: Option<&DirtyPage>, y: Option<&DirtyPage>| {
            Arc::ptr_eq(&x.unwrap().words, &y.unwrap().words)
        };
        let mut reverted = 0;
        for (i, pair) in store.checkpoints.windows(2).enumerate() {
            let [a, b] = pair else { unreachable!() };
            let what = format!("snapshots {i} and {}", i + 1);
            assert!(shared(data_page(a, 0), data_page(b, 0)), "{what}: page written once");
            assert!(shared(a.stack_pages.first(), b.stack_pages.first()), "{what}: stack page");
            if let (Some(x), Some(y)) = (data_page(a, 1), data_page(b, 1)) {
                assert!(!Arc::ptr_eq(&x.words, &y.words), "{what}: page rewritten");
            }
            // A page back at content an earlier snapshot held is a copy of
            // its own, not that snapshot's.
            let earlier = i.checked_sub(1).and_then(|x| data_page(&store.checkpoints[x], 1));
            if let (Some(e), Some(y)) = (earlier, data_page(b, 1)) {
                if e.words == y.words {
                    assert!(!Arc::ptr_eq(&e.words, &y.words), "{what}: reverted page");
                    reverted += 1;
                }
            }
        }
        assert!(reverted > 0, "no page reverted to earlier content");
        assert!(store.checkpoints.iter().any(|c| data_page(c, 2).is_none()));
        assert!(store.checkpoints.iter().any(|c| data_page(c, 2).is_some()));
        let per_snapshot: usize = store.checkpoints.iter().map(Checkpoint::memory_words).sum();
        // Page 0 and the stack page are held once; pages 1 and 2 once per
        // snapshot that has them.
        let rewritten: usize =
            store.checkpoints.iter().map(|c| c.data_pages.len() - 1).sum::<usize>() * PAGE_WORDS;
        assert_eq!(store.memory_words(), 2 * PAGE_WORDS + rewritten);
        assert!(store.memory_words() < per_snapshot);
    }

    #[test]
    fn thinned_capture_resumes_to_the_exact_snapshots() {
        let b = paging_program();
        let ckpt = CheckpointConfig { interval: 7, max_checkpoints: 4, ..Default::default() };
        // Thinning drops snapshots whose pages later ones share: each kept
        // one still equals the exact loop's full scan at its retired count.
        let store = profile_vs_exact_with(&b, false, 0, &ckpt);
        assert_eq!((store.len(), store.interval), (4, 28));
        for ck in &store.checkpoints {
            let m = Machine::resume(&b, &RunConfig::default(), ck);
            assert_eq!(m.snapshot(ck.fi_count), *ck, "retired {}", ck.retired);
            assert!(m.matches_checkpoint(ck, (0, 0)));
        }
    }

    #[test]
    #[should_panic(expected = "superblock program of 3 instructions run on a 2-instruction binary")]
    fn superblock_program_of_another_binary_is_refused() {
        let other = bin(vec![MInstr::Nop, MInstr::Nop, MInstr::Halt]);
        let sb = SuperblockProgram::new(&other);
        let b = bin(vec![MInstr::Nop, MInstr::Halt]);
        let cfg = RunConfig::default();
        let mut m = Machine::new(&b, &cfg);
        m.run_sb(&sb, &mut 0, 0, u64::MAX, None, cfg.max_cycles, &mut TrialFastStats::default());
    }

    #[test]
    #[should_panic(expected = "superblock program of 3 instructions run on a 2-instruction binary")]
    fn profiling_with_another_binarys_program_is_refused() {
        let other = bin(vec![MInstr::Nop, MInstr::Nop, MInstr::Halt]);
        let sb = SuperblockProgram::new(&other);
        let b = bin(vec![MInstr::Nop, MInstr::Halt]);
        Machine::run_profile(&b, &RunConfig::default(), &sb, 0, None);
    }

    /// A loop whose head (pc 0) absorbs a site; three iterations of one
    /// fused trace each, 14 instructions and one FI event per iteration.
    fn site_loop_program() -> Binary {
        let mut text = vec![MInstr::CmpI { ra: 0, imm: 100 }];
        text.extend(pre_fi(1, SAVE_A, SAVE_F));
        text.extend(post_fi(SAVE_F, SAVE_A));
        text.extend([
            MInstr::AluI { op: AluOp::Add, rd: 2, ra: 2, imm: 1 },
            MInstr::CmpI { ra: 2, imm: 3 },
            MInstr::Jcc { cc: Cc::Lt, target: 0 },
            MInstr::Halt,
            MInstr::MovRI { rd: 0, imm: 99 }, // SetupFI
            MInstr::Halt,
        ]);
        bin(text)
    }

    #[test]
    fn absorbed_site_stores_are_page_tracked_in_capture_and_conv() {
        let b = site_loop_program();
        let sb = SuperblockProgram::new(&b);
        assert_eq!((sb.dispatch(0), sb.fused_len[0]), (Some((11, 11)), 14));
        // CAPTURE: every snapshot lands right after a fused iteration, so
        // only the absorbed stores can have written the save-area page.
        let store = profile_vs_exact(&b, false, 0, 14);
        let points: Vec<_> =
            store.checkpoints.iter().map(|c| (c.retired, c.pc, c.fi_count)).collect();
        assert_eq!(points, [(14, 0, 1), (28, 0, 2), (42, 14, 3)]);
        assert!(store.checkpoints.iter().all(|c| c.data_pages.len() == 1));

        // CONV: a trial at the first snapshot with a corrupted saved `r0`
        // mismatches there; the next iteration's absorbed store repairs it,
        // so the trial converges at the second snapshot.
        let cfg = RunConfig::default();
        let max = cfg.max_cycles;
        let golden = Machine::run(&b, &cfg, &mut NoFi, None);
        let end = GoldenEnd {
            exit_code: 0,
            output: &golden.output,
            cycles: golden.cycles,
            retired: golden.instrs_retired,
            probe_overhead: 0,
        };
        let (mut fused, mut exact) = (Machine::new(&b, &cfg), Machine::new(&b, &cfg));
        let mut rt = CountTo { count: 0, at: u64::MAX };
        for m in [&mut fused, &mut exact] {
            rt.count = 0;
            let mut probe = DueProbe { due: 14, ..DueProbe::new(0) };
            assert_eq!(m.run_exact_until_fired(max, &mut rt, Some(&mut probe)), None);
            m.data[1] = 12345;
        }
        let (mut count, mut stats) = (rt.count, TrialFastStats::default());
        let out = fused.run_sb(&sb, &mut count, 0, u64::MAX, Some((&store, end)), max, &mut stats);
        assert!(stats.converged, "no convergence at the second snapshot");
        assert_eq!((stats.sb_dispatches, stats.conv_saved_instrs), (1, 14));
        let exact_out = exact.run_exact_until_fired(max, &mut rt, None);
        assert_eq!(
            (out, fused.cycles, fused.instrs_retired, &fused.output),
            (exact_out, exact.cycles, exact.instrs_retired, &exact.output)
        );
    }

    /// One trace from pc 1 to the `print` at pc 7 (it crosses a forward
    /// `Jmp`): every instruction but the `Jmp`s and the `print` writes a
    /// register, so under PINFI's event model the trace passes FI counts 1
    /// to 5. Pc 2 rewrites `r1`, repairing a fault in it.
    fn probed_trace_program() -> Binary {
        bin(vec![
            MInstr::MovRI { rd: 1, imm: 1 },
            MInstr::MovRI { rd: 2, imm: 2 },
            MInstr::MovRI { rd: 1, imm: 3 },
            MInstr::AluI { op: AluOp::Add, rd: 3, ra: 2, imm: 1 },
            MInstr::Jmp { target: 6 },
            MInstr::Nop,
            MInstr::Alu { op: AluOp::Add, rd: 0, ra: 1, rb: 3 },
            MInstr::CallRt { func: RtFunc::PrintI64, imm: 0 },
            MInstr::MovRI { rd: 0, imm: 0 },
            MInstr::Halt,
        ])
    }

    #[test]
    fn probed_trace_converges_at_a_snapshot_inside_or_fuses_to_one_at_its_end() {
        let b = probed_trace_program();
        let sb = SuperblockProgram::probed(&b);
        assert_eq!((sb.trace_end[1], sb.fused_events[1]), (7, 4));
        let cfg = RunConfig::default();
        let max = cfg.max_cycles;
        // The golden run and its snapshots pay an attached probe's overhead.
        let overhead = 10;
        let golden = Machine::run(&b, &cfg, &mut NoFi, Some(&mut DueProbe::new(overhead)));
        let end = GoldenEnd {
            exit_code: 0,
            output: &golden.output,
            cycles: golden.cycles,
            retired: golden.instrs_retired,
            probe_overhead: overhead,
        };
        // (retired, snapshot pc, FI count, dispatches, stepped, saved): a
        // snapshot strictly inside the trace makes the loop step to it; one
        // on the trace's end lets the whole trace fuse.
        for (due, pc, fi, dispatches, stepped, saved) in [(3, 3, 3, 0, 2, 5), (6, 7, 5, 1, 0, 2)] {
            let mut g = Machine::new(&b, &cfg);
            let mut probe = DueProbe { due, ..DueProbe::new(overhead) };
            assert_eq!(g.run_exact_until_fired(max, &mut NoFi, Some(&mut probe)), None);
            let ck = g.snapshot(probe.targets);
            assert_eq!((ck.pc, ck.fi_count), (pc, fi));
            let store =
                CheckpointStore { interval: due, checkpoints: vec![ck], exempt_data_words: (0, 0) };
            // The fault fires on pc 0 and corrupts `r1`; the trial detaches.
            let (mut fused, mut exact) = (Machine::new(&b, &cfg), Machine::new(&b, &cfg));
            let mut count = 0;
            for m in [&mut fused, &mut exact] {
                let mut probe = DueProbe { due: 1, ..DueProbe::new(overhead) };
                assert_eq!(m.run_exact_until_fired(max, &mut NoFi, Some(&mut probe)), None);
                m.regs[1] ^= 1 << 40;
                count = probe.targets;
            }
            let mut stats = TrialFastStats::default();
            let out =
                fused.run_sb(&sb, &mut count, 0, u64::MAX, Some((&store, end)), max, &mut stats);
            assert!(stats.converged, "snapshot at pc {pc}: no convergence");
            assert_eq!(
                (stats.sb_dispatches, stats.sb_stepped_instrs, stats.conv_saved_instrs),
                (dispatches, stepped, saved),
                "snapshot at pc {pc}"
            );
            let exact_out = exact.run_exact_until_fired(max, &mut NoFi, None);
            assert_eq!(
                (out, fused.cycles, fused.instrs_retired, &fused.output),
                (exact_out, exact.cycles, exact.instrs_retired, &exact.output),
                "snapshot at pc {pc}"
            );
        }
    }

    /// Four stack pages: enough to store below golden's lowest one.
    const SMALL: RunConfig = RunConfig { max_cycles: 1000, stack_words: 4 * PAGE_WORDS };

    /// The byte address of data word `w`.
    fn data_addr(w: usize) -> u64 {
        GLOBAL_BASE + 8 * w as u64
    }

    /// The byte address of stack word `w` under [`SMALL`].
    fn stack_addr(w: usize) -> u64 {
        STACK_TOP - 8 * (SMALL.stack_words - w) as u64
    }

    /// A binary with two data pages, and a golden snapshot of it with data
    /// word `PAGE_WORDS + 10` and the top stack word written and one `f64`
    /// printed.
    fn golden_snapshot() -> (Binary, Checkpoint) {
        let b = Binary { data: vec![0; 2 * PAGE_WORDS], ..bin(vec![MInstr::Halt]) };
        let mut g = Machine::new(&b, &SMALL);
        g.mem_write(data_addr(PAGE_WORDS + 10), 5).unwrap();
        g.mem_write(stack_addr(SMALL.stack_words - 1), 9).unwrap();
        g.output.push(OutEvent::F64(0.0));
        let ck = g.snapshot(0);
        (b, ck)
    }

    #[test]
    fn resumed_machine_matches_its_checkpoint() {
        let (b, ck) = golden_snapshot();
        let mut m = Machine::resume(&b, &SMALL, &ck);
        assert_eq!(m.stack_lo, 3 * PAGE_WORDS, "golden's lowest stack page");
        assert!(m.matches_checkpoint(&ck, (0, 0)));
        m.regs[3] ^= 1;
        assert!(!m.matches_checkpoint(&ck, (0, 0)), "registers");
    }

    #[test]
    fn output_f64_is_compared_by_bits() {
        let (b, mut ck) = golden_snapshot();
        let mut m = Machine::resume(&b, &SMALL, &ck);
        // The derived equality calls these equal; the comparison does not.
        m.output[0] = OutEvent::F64(-0.0);
        assert_eq!(m.output, ck.output);
        assert!(!m.matches_checkpoint(&ck, (0, 0)));
        // And the same NaN bit pattern matches, which derived equality denies.
        ck.output[0] = OutEvent::F64(f64::NAN);
        m.output[0] = OutEvent::F64(f64::NAN);
        assert_ne!(m.output, ck.output);
        assert!(m.matches_checkpoint(&ck, (0, 0)));
    }

    #[test]
    fn exempt_word_is_ignored_but_not_its_neighbour() {
        let (b, ck) = golden_snapshot();
        let exempt = (PAGE_WORDS as u32 + 3, 1);
        let mut m = Machine::resume(&b, &SMALL, &ck);
        m.mem_write(data_addr(PAGE_WORDS + 3), 0xDEAD).unwrap();
        assert!(m.matches_checkpoint(&ck, exempt));
        assert!(!m.matches_checkpoint(&ck, (0, 0)));
        m.mem_write(data_addr(PAGE_WORDS + 4), 1).unwrap();
        assert!(!m.matches_checkpoint(&ck, exempt));
    }

    #[test]
    fn stack_store_below_golden_pages_mismatches_until_zero_again() {
        let (b, ck) = golden_snapshot();
        let mut m = Machine::resume(&b, &SMALL, &ck);
        m.mem_write(stack_addr(PAGE_WORDS + 2), 4).unwrap();
        assert_eq!(m.stack_lo, PAGE_WORDS + 2);
        assert!(!m.matches_checkpoint(&ck, (0, 0)));
        m.mem_write(stack_addr(PAGE_WORDS + 2), 0).unwrap();
        assert!(m.matches_checkpoint(&ck, (0, 0)));
        // Golden's registers, output and data but no stack word written:
        // golden's stack page lies below `stack_lo`.
        let mut fresh = Machine::new(&b, &SMALL);
        fresh.output = ck.output.clone();
        fresh.mem_write(data_addr(PAGE_WORDS + 10), 5).unwrap();
        assert!(!fresh.matches_checkpoint(&ck, (0, 0)));
    }
}
