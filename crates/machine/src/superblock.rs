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
//! accounted by the stopping µop `k` itself, `fused_x[head] - fused_x[k] +
//! x[k]`, since a stopping µop is always one instruction. Three rules skip
//! ahead:
//!
//! - *No-op linking*: a `Nop`, a forward `Jmp` and an LLFI `injectFault`
//!   hook do nothing while the runtime only counts, so a µop's `next` skips
//!   them and they run only as trace heads.
//! - *LLFI hook µops*: `mov r0 <- x; injectFault; mov y <- r0` (integer or
//!   floating-point) is one copy µop.
//! - *Site absorption*: the non-firing path REFINE emits around each site
//!   (save `r0`/FLAGS, `selInstr`, test, skip, restore) nets out to two
//!   save-area stores. A one-instruction µop followed by a site runs its
//!   site-absorbing variant (its handler with `S = true`): the instruction,
//!   then — only if it completed — the stores. A site's own *site skip* µop
//!   runs only where a trace starts on it.
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
use crate::isa::{fi_outputs, AluOp, Cc, CvtKind, FAluOp, MInstr, Mem, RtFunc};
use crate::machine::{
    GoldenEnd, Machine, OutEvent, RunConfig, RunOutcome, RunResult, Step, Trap, GLOBAL_BASE,
};
use crate::rt::NoFi;

/// A µop handler: executes one fused instruction's data side effects.
/// Never touches `pc`, `cycles` or `instrs_retired` — the trace dispatcher
/// accounts for those in bulk.
type UopFn = fn(&mut Machine<'_>, &Uop) -> Result<(), Exit>;

/// Why a µop ended its trace early.
enum Exit {
    /// The instruction trapped: it is charged but not retired.
    Trap(Trap),
    /// A `Jcc` guard's condition held: it retires and the run continues at
    /// its target (the µop's `imm`).
    Taken,
}

impl From<Trap> for Exit {
    fn from(t: Trap) -> Self {
        Exit::Trap(t)
    }
}

/// One predecoded instruction with fully resolved operand offsets. The
/// field meaning is per-handler; for memory ops `a`/`b`/`c` are base
/// register / index register / scale, `d` the data register, and `imm` the
/// displacement.
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
    /// stopped by the one-instruction µop at `k` costs `fused_cost[head] -
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
        let mut uops: Vec<Uop> = text.iter().map(lower::<false>).collect();
        let mut fused_len = vec![0u32; n];
        let mut fused_cost = vec![0u64; n];
        let mut fused_events = vec![0u32; n];
        let mut trace_end = vec![0u32; n];
        // Build-time only: `link[pc]` is the first µop a trace passing `pc`
        // dispatches (past any no-ops), and `skips[pc]` marks the site-skip
        // µops a predecessor may absorb.
        let mut link: Vec<u32> = (0..n as u32).collect();
        let mut skips = vec![false; n];
        let mut site_words = None;
        // Reverse scan: every trace edge points forward, so a successor's
        // sums and links are final before its predecessors read them.
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
            // The real pc after the instructions this µop covers itself.
            let after = if let Some((post, _)) = site {
                uops[pc].exec = u_nop::<true>;
                skips[pc] = true;
                post + 3
            } else if let Some(copy) = hook_copy(text, pc) {
                uops[pc] = copy;
                pc + 3
            } else {
                succ
            };
            let mut next = link[after] as usize;
            if after == succ && skips[next] {
                uops[pc].exec = lower::<true>(&text[pc]).exec;
                next = uops[next].next as usize;
            }
            uops[pc].next = next as u32;
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
    /// an exit: the instructions it retires (its own, the REFINE site it
    /// absorbed, the no-ops it links past) and the pc its trace continues
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

/// Match LLFI's hook plumbing at `pc`, `mov r0 <- x; injectFaultI; mov y
/// <- r0` or its `fmov`/`injectFaultF` form, and build its one copy µop: the
/// hook is the identity while the runtime only counts. Only where the third
/// instruction falls through inside the text, so the three are one trace.
fn hook_copy(text: &[MInstr], pc: usize) -> Option<Uop> {
    use MInstr::{CallRt, FMovRR, MovRR};
    if pc + 3 >= text.len() {
        return None;
    }
    match text[pc..pc + 3] {
        [MovRR { rd: 0, ra }, CallRt { func: RtFunc::LlfiInjectI, .. }, MovRR { rd, ra: 0 }] => {
            Some(simple(u_copy, rd, ra, 0, 0))
        }
        [FMovRR { fd: 0, fa }, CallRt { func: RtFunc::LlfiInjectF, .. }, FMovRR { fd, fa: 0 }] => {
            Some(simple(u_fcopy, fd, fa, 0, 0))
        }
        _ => None,
    }
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
    #[inline]
    fn exec_trace(
        &mut self,
        sb: &SuperblockProgram,
        head: usize,
        count: &mut u64,
        overhead: u64,
        stats: &mut TrialFastStats,
    ) -> Result<(), Trap> {
        let end = sb.trace_end[head] as usize;
        let mut k = head;
        // `stop` is the µop that ended the trace early, if one did.
        let (stop, pc, result) = loop {
            let u = &sb.uops[k];
            match (u.exec)(self, u) {
                Ok(()) => {
                    k = u.next as usize;
                    if k == end {
                        break (None, end, Ok(()));
                    }
                }
                Err(Exit::Taken) => break (Some(k), u.imm as usize, Ok(())),
                // The exact loop adds the trapping instruction's cost
                // before stepping but does not retire it, and leaves pc on
                // the trapping instruction.
                Err(Exit::Trap(t)) => break (Some(k), k, Err(t)),
            }
        };
        // A stopping µop is one instruction (an absorbed site runs only
        // after it completes), so the trace fetched its path up to `k` and
        // `k` itself: the suffix sums from `k` less `k`'s own share.
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
        stats.sb_fused_instrs += retired;
        result
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
// Each handler mirrors one `step` arm's data side effects exactly (the FI
// hooks as a counting-only runtime executes them). Every handler
// that is one instruction takes a const `S`: with `S` it absorbed the
// REFINE site skip after it and ends with [`done`]'s stores.

/// Finish a one-instruction µop. With `S` it then runs the non-firing path
/// of the REFINE site after it ([`site_skip`]): store `r0` and FLAGS
/// straight into the program's save-area words, data-segment indices
/// [`save_word`] validated, so neither store can trap. PostFI's `wrflags`
/// leaves FLAGS as it is: every FLAGS writer keeps the four architectural
/// bits. A handler that trapped or took its guard returned before this,
/// leaving the words untouched.
#[inline(always)]
fn done<const S: bool>(m: &mut Machine<'_>) -> Result<(), Exit> {
    if S {
        let (a, f) = m.site_words;
        m.data[a] = m.regs[0];
        m.data[f] = u64::from(m.flags);
    }
    Ok(())
}

/// A no-op; with `S`, a site skip on its own (the site heads a trace).
fn u_nop<const S: bool>(m: &mut Machine<'_>, _u: &Uop) -> Result<(), Exit> {
    done::<S>(m)
}

fn u_term(_m: &mut Machine<'_>, _u: &Uop) -> Result<(), Exit> {
    unreachable!("terminator µop is never dispatched fused")
}

/// A `Jcc` guard: side-exit to the target (`imm`) when the condition holds.
fn u_jcc<const C: usize, const S: bool>(m: &mut Machine<'_>, _u: &Uop) -> Result<(), Exit> {
    if CCS[C].eval(m.flags) {
        Err(Exit::Taken)
    } else {
        done::<S>(m)
    }
}

fn jcc_fn<const S: bool>(cc: Cc) -> UopFn {
    match cc {
        Cc::E => u_jcc::<0, S>,
        Cc::Ne => u_jcc::<1, S>,
        Cc::Lt => u_jcc::<2, S>,
        Cc::Le => u_jcc::<3, S>,
        Cc::Gt => u_jcc::<4, S>,
        Cc::Ge => u_jcc::<5, S>,
    }
}

/// `selInstr` under a counting-only runtime: never inject.
fn u_sel_instr<const S: bool>(m: &mut Machine<'_>, _u: &Uop) -> Result<(), Exit> {
    m.regs[0] = 0;
    done::<S>(m)
}

/// LLFI's integer hook plumbing ([`hook_copy`]): `r0 = x; y = r0`.
fn u_copy(m: &mut Machine<'_>, u: &Uop) -> Result<(), Exit> {
    let v = m.regs[u.b as usize];
    m.regs[0] = v;
    m.regs[u.a as usize] = v;
    Ok(())
}

/// LLFI's floating-point hook plumbing: `f0 = x; y = f0`.
fn u_fcopy(m: &mut Machine<'_>, u: &Uop) -> Result<(), Exit> {
    let v = m.fregs[u.b as usize];
    m.fregs[0] = v;
    m.fregs[u.a as usize] = v;
    Ok(())
}

fn u_mov_rr<const S: bool>(m: &mut Machine<'_>, u: &Uop) -> Result<(), Exit> {
    m.regs[u.a as usize] = m.regs[u.b as usize];
    done::<S>(m)
}

fn u_mov_ri<const S: bool>(m: &mut Machine<'_>, u: &Uop) -> Result<(), Exit> {
    m.regs[u.a as usize] = u.imm;
    done::<S>(m)
}

fn u_fmov_rr<const S: bool>(m: &mut Machine<'_>, u: &Uop) -> Result<(), Exit> {
    m.fregs[u.a as usize] = m.fregs[u.b as usize];
    done::<S>(m)
}

fn u_fmov_ri<const S: bool>(m: &mut Machine<'_>, u: &Uop) -> Result<(), Exit> {
    m.fregs[u.a as usize] = u.imm;
    done::<S>(m)
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

fn u_alu_rr<const OP: usize, const S: bool>(m: &mut Machine<'_>, u: &Uop) -> Result<(), Exit> {
    let r = m.alu(ALU_OPS[OP], m.regs[u.b as usize] as i64, m.regs[u.c as usize] as i64)?;
    m.regs[u.a as usize] = r as u64;
    done::<S>(m)
}

fn u_alu_ri<const OP: usize, const S: bool>(m: &mut Machine<'_>, u: &Uop) -> Result<(), Exit> {
    let r = m.alu(ALU_OPS[OP], m.regs[u.b as usize] as i64, u.imm as i64)?;
    m.regs[u.a as usize] = r as u64;
    done::<S>(m)
}

fn alu_rr_fn<const S: bool>(op: AluOp) -> UopFn {
    match op {
        AluOp::Add => u_alu_rr::<0, S>,
        AluOp::Sub => u_alu_rr::<1, S>,
        AluOp::Mul => u_alu_rr::<2, S>,
        AluOp::Div => u_alu_rr::<3, S>,
        AluOp::Rem => u_alu_rr::<4, S>,
        AluOp::And => u_alu_rr::<5, S>,
        AluOp::Or => u_alu_rr::<6, S>,
        AluOp::Xor => u_alu_rr::<7, S>,
        AluOp::Shl => u_alu_rr::<8, S>,
        AluOp::LShr => u_alu_rr::<9, S>,
        AluOp::AShr => u_alu_rr::<10, S>,
    }
}

fn alu_ri_fn<const S: bool>(op: AluOp) -> UopFn {
    match op {
        AluOp::Add => u_alu_ri::<0, S>,
        AluOp::Sub => u_alu_ri::<1, S>,
        AluOp::Mul => u_alu_ri::<2, S>,
        AluOp::Div => u_alu_ri::<3, S>,
        AluOp::Rem => u_alu_ri::<4, S>,
        AluOp::And => u_alu_ri::<5, S>,
        AluOp::Or => u_alu_ri::<6, S>,
        AluOp::Xor => u_alu_ri::<7, S>,
        AluOp::Shl => u_alu_ri::<8, S>,
        AluOp::LShr => u_alu_ri::<9, S>,
        AluOp::AShr => u_alu_ri::<10, S>,
    }
}

fn u_cmp<const S: bool>(m: &mut Machine<'_>, u: &Uop) -> Result<(), Exit> {
    m.cmp_flags(m.regs[u.a as usize] as i64, m.regs[u.b as usize] as i64);
    done::<S>(m)
}

fn u_cmp_i<const S: bool>(m: &mut Machine<'_>, u: &Uop) -> Result<(), Exit> {
    m.cmp_flags(m.regs[u.a as usize] as i64, u.imm as i64);
    done::<S>(m)
}

const CCS: [Cc; 6] = [Cc::E, Cc::Ne, Cc::Lt, Cc::Le, Cc::Gt, Cc::Ge];

fn u_setcc<const C: usize, const S: bool>(m: &mut Machine<'_>, u: &Uop) -> Result<(), Exit> {
    m.regs[u.a as usize] = CCS[C].eval(m.flags) as u64;
    done::<S>(m)
}

fn setcc_fn<const S: bool>(cc: Cc) -> UopFn {
    match cc {
        Cc::E => u_setcc::<0, S>,
        Cc::Ne => u_setcc::<1, S>,
        Cc::Lt => u_setcc::<2, S>,
        Cc::Le => u_setcc::<3, S>,
        Cc::Gt => u_setcc::<4, S>,
        Cc::Ge => u_setcc::<5, S>,
    }
}

fn u_falu<const OP: usize, const S: bool>(m: &mut Machine<'_>, u: &Uop) -> Result<(), Exit> {
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
    done::<S>(m)
}

fn falu_fn<const S: bool>(op: FAluOp) -> UopFn {
    match op {
        FAluOp::Add => u_falu::<0, S>,
        FAluOp::Sub => u_falu::<1, S>,
        FAluOp::Mul => u_falu::<2, S>,
        FAluOp::Div => u_falu::<3, S>,
        FAluOp::Min => u_falu::<4, S>,
        FAluOp::Max => u_falu::<5, S>,
    }
}

fn u_fcmp<const S: bool>(m: &mut Machine<'_>, u: &Uop) -> Result<(), Exit> {
    let (a, b) = (m.f(u.a), m.f(u.b));
    m.fcmp_flags(a, b);
    done::<S>(m)
}

fn u_cvt<const K: usize, const S: bool>(m: &mut Machine<'_>, u: &Uop) -> Result<(), Exit> {
    match K {
        0 => {
            let v = m.regs[u.b as usize] as i64 as f64;
            m.set_f(u.a, v);
        }
        1 => m.regs[u.a as usize] = (m.f(u.b) as i64) as u64,
        2 => m.fregs[u.a as usize] = m.regs[u.b as usize],
        _ => m.regs[u.a as usize] = m.fregs[u.b as usize],
    }
    done::<S>(m)
}

fn cvt_fn<const S: bool>(kind: CvtKind) -> UopFn {
    match kind {
        CvtKind::SiToF => u_cvt::<0, S>,
        CvtKind::FToSi => u_cvt::<1, S>,
        CvtKind::BitsToF => u_cvt::<2, S>,
        CvtKind::FToBits => u_cvt::<3, S>,
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

fn u_ld<const BASE: bool, const INDEX: bool, const S: bool>(
    m: &mut Machine<'_>,
    u: &Uop,
) -> Result<(), Exit> {
    let a = uop_addr::<BASE, INDEX>(m, u);
    m.regs[u.d as usize] = m.mem_read(a)?;
    done::<S>(m)
}

fn u_st<const BASE: bool, const INDEX: bool, const S: bool>(
    m: &mut Machine<'_>,
    u: &Uop,
) -> Result<(), Exit> {
    let a = uop_addr::<BASE, INDEX>(m, u);
    m.mem_write(a, m.regs[u.d as usize])?;
    done::<S>(m)
}

fn u_fld<const BASE: bool, const INDEX: bool, const S: bool>(
    m: &mut Machine<'_>,
    u: &Uop,
) -> Result<(), Exit> {
    let a = uop_addr::<BASE, INDEX>(m, u);
    m.fregs[u.d as usize] = m.mem_read(a)?;
    done::<S>(m)
}

fn u_fst<const BASE: bool, const INDEX: bool, const S: bool>(
    m: &mut Machine<'_>,
    u: &Uop,
) -> Result<(), Exit> {
    let a = uop_addr::<BASE, INDEX>(m, u);
    m.mem_write(a, m.fregs[u.d as usize])?;
    done::<S>(m)
}

fn u_lea<const BASE: bool, const INDEX: bool, const S: bool>(
    m: &mut Machine<'_>,
    u: &Uop,
) -> Result<(), Exit> {
    m.regs[u.d as usize] = uop_addr::<BASE, INDEX>(m, u);
    done::<S>(m)
}

fn u_push<const S: bool>(m: &mut Machine<'_>, u: &Uop) -> Result<(), Exit> {
    m.push(m.regs[u.a as usize])?;
    done::<S>(m)
}

fn u_pop<const S: bool>(m: &mut Machine<'_>, u: &Uop) -> Result<(), Exit> {
    let v = m.pop()?;
    m.regs[u.a as usize] = v;
    done::<S>(m)
}

fn u_rdflags<const S: bool>(m: &mut Machine<'_>, u: &Uop) -> Result<(), Exit> {
    m.regs[u.a as usize] = m.flags as u64;
    done::<S>(m)
}

fn u_wrflags<const S: bool>(m: &mut Machine<'_>, u: &Uop) -> Result<(), Exit> {
    m.flags = (m.regs[u.a as usize] & 0xf) as u8;
    done::<S>(m)
}

fn u_fxori<const S: bool>(m: &mut Machine<'_>, u: &Uop) -> Result<(), Exit> {
    m.fregs[u.a as usize] ^= u.imm;
    done::<S>(m)
}

/// Select the memory-shape instantiation of a base/index const-generic
/// handler for `$mem` and build its µop (a = base, b = index, c = scale,
/// d = data register, imm = displacement).
macro_rules! mem_uop {
    ($f:ident, $s:ident, $mem:expr, $data:expr) => {{
        let mem: &Mem = $mem;
        let exec: UopFn = match (mem.base.is_some(), mem.index.is_some()) {
            (false, false) => $f::<false, false, $s>,
            (true, false) => $f::<true, false, $s>,
            (false, true) => $f::<false, true, $s>,
            (true, true) => $f::<true, true, $s>,
        };
        let (ix, scale) = mem.index.unwrap_or((0, 0));
        Uop {
            exec,
            imm: mem.disp as u64,
            next: 0,
            a: mem.base.unwrap_or(0),
            b: ix,
            c: scale,
            d: $data,
        }
    }};
}

fn simple(exec: UopFn, a: u8, b: u8, c: u8, imm: u64) -> Uop {
    Uop { exec, imm, next: 0, a, b, c, d: 0 }
}

/// Lower one instruction to its µop (its `next` is linked when the traces
/// are built); with `S`, the variant that also absorbs the REFINE site skip
/// after it. A forward `Jmp` and the LLFI hooks are no-ops in a trace;
/// terminators get a placeholder that is never dispatched (their
/// `fused_len` is always 0).
fn lower<const S: bool>(instr: &MInstr) -> Uop {
    match *instr {
        MInstr::Nop
        | MInstr::Jmp { .. }
        | MInstr::CallRt { func: RtFunc::LlfiInjectI | RtFunc::LlfiInjectF, .. } => {
            simple(u_nop::<S>, 0, 0, 0, 0)
        }
        MInstr::MovRR { rd, ra } => simple(u_mov_rr::<S>, rd, ra, 0, 0),
        MInstr::MovRI { rd, imm } => simple(u_mov_ri::<S>, rd, 0, 0, imm as u64),
        MInstr::FMovRR { fd, fa } => simple(u_fmov_rr::<S>, fd, fa, 0, 0),
        MInstr::FMovRI { fd, imm } => simple(u_fmov_ri::<S>, fd, 0, 0, imm),
        MInstr::Alu { op, rd, ra, rb } => simple(alu_rr_fn::<S>(op), rd, ra, rb, 0),
        MInstr::AluI { op, rd, ra, imm } => simple(alu_ri_fn::<S>(op), rd, ra, 0, imm as u64),
        MInstr::Cmp { ra, rb } => simple(u_cmp::<S>, ra, rb, 0, 0),
        MInstr::CmpI { ra, imm } => simple(u_cmp_i::<S>, ra, 0, 0, imm as u64),
        MInstr::SetCc { cc, rd } => simple(setcc_fn::<S>(cc), rd, 0, 0, 0),
        MInstr::FAlu { op, fd, fa, fb } => simple(falu_fn::<S>(op), fd, fa, fb, 0),
        MInstr::FCmp { fa, fb } => simple(u_fcmp::<S>, fa, fb, 0, 0),
        MInstr::Cvt { kind, dst, src } => simple(cvt_fn::<S>(kind), dst, src, 0, 0),
        MInstr::Ld { rd, ref mem } => mem_uop!(u_ld, S, mem, rd),
        MInstr::St { rs, ref mem } => mem_uop!(u_st, S, mem, rs),
        MInstr::FLd { fd, ref mem } => mem_uop!(u_fld, S, mem, fd),
        MInstr::FSt { fs, ref mem } => mem_uop!(u_fst, S, mem, fs),
        MInstr::Push { rs } => simple(u_push::<S>, rs, 0, 0, 0),
        MInstr::Pop { rd } => simple(u_pop::<S>, rd, 0, 0, 0),
        MInstr::RdFlags { rd } => simple(u_rdflags::<S>, rd, 0, 0, 0),
        MInstr::WrFlags { rs } => simple(u_wrflags::<S>, rs, 0, 0, 0),
        MInstr::FXorI { fd, imm } => simple(u_fxori::<S>, fd, 0, 0, imm),
        MInstr::Lea { rd, ref mem } => mem_uop!(u_lea, S, mem, rd),
        MInstr::Jcc { cc, target } => simple(jcc_fn::<S>(cc), 0, 0, 0, u64::from(target)),
        MInstr::CallRt { func: RtFunc::FiSelInstr, .. } => simple(u_sel_instr::<S>, 0, 0, 0, 0),
        MInstr::Call { .. } | MInstr::Ret | MInstr::CallRt { .. } | MInstr::Halt => {
            simple(u_term, 0, 0, 0, 0)
        }
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
    type State = (u32, u64, u64, [u64; 16], u8, Vec<u64>, Vec<u64>);

    fn state(m: &Machine<'_>) -> State {
        (m.pc, m.cycles, m.instrs_retired, m.regs, m.flags, m.data.clone(), m.stack.clone())
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
