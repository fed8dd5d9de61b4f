//! Trace-fused direct-threaded execution engine: the trial fast path.
//!
//! The exact interpreter ([`Machine::step_t`](crate::machine::Machine)) pays
//! a 31-arm `match` decode, branchy `Option<base>/Option<index>` effective
//! addresses, and per-instruction cycle/retired/pc bookkeeping for every
//! executed instruction. This module predecodes the text section once into a
//! flat µop array whose operand offsets are fully resolved (the memory-shape
//! `Option`s are burned into the function pointer via const generics), links
//! the µops into forward *traces*, and dispatches each trace through
//! direct-threaded fn-pointer calls with one cycles/retired/pc/event update
//! per trace.
//!
//! Traces: every µop carries the pc it continues to. A trace follows
//! fall-through, crosses an unconditional `Jmp` whose target lies ahead,
//! and crosses a `Jcc` along its fall-through: the `Jcc` µop is a guard,
//! and when its condition holds the trace side-exits (the `Jcc` retires and
//! `pc` becomes its target). Every trace edge points forward, so one
//! reverse scan builds the per-pc suffix sums (`fused_x[pc] = x[pc] +
//! fused_x[next[pc]]`) and a trace stopped early at µop `k` — by a trap or
//! a side exit — is accounted with `fused_x[head] - fused_x[next[k]]`.
//!
//! The fused loop only ever runs counting-only runtimes (a one-shot
//! injector is counting-only before its target event and after it fired),
//! so the FI hooks are ordinary µops: `selInstr` sets `r0 = 0` and the LLFI
//! `injectFault` calls are the identity. Whether an instruction is an FI
//! event is fixed when the program is built — hook calls
//! ([`SuperblockProgram::new`], REFINE and LLFI) or FI targets at fetch
//! ([`SuperblockProgram::probed`], PINFI) — and events are tallied through
//! a suffix sum like cycles. The non-firing path REFINE emits around each
//! site (save `r0`/FLAGS, `selInstr`, test, skip, restore) collapses into a
//! single *site skip* µop doing the two save-area stores.
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
//! checks or page-write tracking; a post-fire suffix with convergence on
//! splices the golden outcome once its state digest matches a golden
//! snapshot; and a checkpointed profiling run ([`Machine::run_profile`])
//! stops at each due retired count to capture a snapshot incrementally. It
//! reproduces the exact interpreter's accounting bit-for-bit and falls back
//! to single exact steps whenever a trace could cross a semantic boundary
//! the exact loop observes per-instruction: the FI-event stop count, the
//! cycle budget, a golden snapshot's `(fi_count, pc)` match point, or a
//! snapshot's due retired count.

use crate::binary::Binary;
use crate::checkpoint::{Checkpoint, CheckpointBuilder, CheckpointStore, WrittenPages};
use crate::digest::ConvHasher;
use crate::isa::{fi_outputs, AluOp, Cc, CvtKind, FAluOp, MInstr, Mem, RtFunc};
use crate::machine::{
    GoldenEnd, Machine, RunConfig, RunOutcome, RunResult, Step, Trap, GLOBAL_BASE,
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
    /// The pc the trace continues at after this µop.
    next: u32,
    a: u8,
    b: u8,
    c: u8,
    d: u8,
}

// `next` lives in what would otherwise be padding; a wider µop would grow
// every prepared artifact's resident size.
const _: () = assert!(std::mem::size_of::<Uop>() == 24);

/// The exact-step fallback's view of one pc: the instruction with its cycle
/// cost and FI-event flag precomputed.
#[derive(Debug, Clone, Copy)]
struct Slot {
    instr: MInstr,
    cost: u64,
    is_event: bool,
}

/// Instructions one site skip retires: the 7 of PreFI and the 3 of PostFI.
const SITE_SKIP_LEN: u32 = 10;

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
    /// Suffix-sum cycle costs along the trace: `fused_cost[pc]` is the
    /// full trace cost, and a trace from `head` stopped after µop `k` costs
    /// `fused_cost[head] - fused_cost[next[k]]`.
    fused_cost: Vec<u64>,
    /// Suffix-sum FI-event counts, same indexing identities.
    fused_events: Vec<u32>,
    /// The terminator pc the trace headed at `pc` ends on; every pc the
    /// trace passes lies strictly between `pc` and it.
    trace_end: Vec<u32>,
    /// Per-pc data for the exact-step fallback.
    slots: Vec<Slot>,
    /// FI events are FI targets at fetch (PINFI), not hook calls.
    probed: bool,
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
                Slot { instr: *i, cost: i.cycles(), is_event }
            })
            .collect();
        let mut uops: Vec<Uop> = text.iter().map(lower).collect();
        let mut fused_len = vec![0u32; n];
        let mut fused_cost = vec![0u64; n];
        let mut fused_events = vec![0u32; n];
        let mut trace_end = vec![0u32; n];
        // Reverse scan: every trace edge points forward, so a successor's
        // sums are final before its predecessors read them.
        for pc in (0..n).rev() {
            let (next, len, cost, events) = if let Some((post, a, b)) = site_skip(binary, pc) {
                let run = (pc..pc + 7).chain(post..post + 3);
                let cost = run.clone().map(|k| slots[k].cost).sum();
                let events = run.filter(|&k| slots[k].is_event).count() as u32;
                uops[pc] =
                    Uop { exec: u_site_skip, imm: a | b << 32, next: 0, a: 0, b: 0, c: 0, d: 0 };
                (post + 3, SITE_SKIP_LEN, cost, events)
            } else if let Some(next) = successor(&text[pc], pc, n) {
                (next, 1, slots[pc].cost, u32::from(slots[pc].is_event))
            } else {
                continue;
            };
            uops[pc].next = next as u32;
            fused_len[pc] = len + fused_len[next];
            fused_cost[pc] = cost + fused_cost[next];
            fused_events[pc] = events + fused_events[next];
            trace_end[pc] = if fused_len[next] > 0 { trace_end[next] } else { next as u32 };
        }
        SuperblockProgram { uops, fused_len, fused_cost, fused_events, trace_end, slots, probed }
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
        let n = self.len();
        let mut entered = vec![false; n];
        for (pc, s) in self.slots.iter().enumerate() {
            if self.fused_len[pc] > 0 {
                if let Some(next) = successor(&s.instr, pc, n) {
                    entered[next] = true;
                }
            }
        }
        (0..n).filter(|&pc| self.fused_len[pc] > 0 && !entered[pc]).count()
    }

    /// Whether the REFINE site whose PreFI starts at `pc` runs its
    /// non-firing path as one site-skip µop.
    pub fn is_site_skip(&self, pc: usize) -> bool {
        self.fused_len.get(pc).is_some_and(|&len| {
            len > 0 && len - self.fused_len[self.uops[pc].next as usize] == SITE_SKIP_LEN
        })
    }

    /// Whether a run entering the trace headed at `pc` with `fi` events
    /// counted cannot pass a golden snapshot's `(fi_count, pc)` match point
    /// inside the trace, where the fused loop would not check it. `ckpts`
    /// starts at the loop's cursor, the first snapshot with `fi_count >=
    /// fi`. A per-instruction run would check every snapshot whose count
    /// the trace reaches, so for the call-hook tools each of those must
    /// sit outside the trace's pc range; the probed tool keeps the
    /// stricter rule that the trace ends before the next snapshot's count.
    fn passes_no_snapshot(&self, ckpts: &[Checkpoint], fi: u64, pc: usize) -> bool {
        let last = fi + u64::from(self.fused_events[pc]);
        if self.probed {
            return ckpts.first().is_none_or(|ck| ck.fi_count > last);
        }
        let end = self.trace_end[pc] as usize;
        ckpts
            .iter()
            .take_while(|ck| ck.fi_count <= last)
            .all(|ck| ck.pc as usize <= pc || ck.pc as usize >= end)
    }
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
/// and FLAGS end unchanged. Returns `(post, A, F)` only when `post` lies
/// ahead, the run falls through inside the text, and `A` and `F` are
/// distinct aligned absolute data-segment words (so the skip cannot trap).
fn site_skip(binary: &Binary, pc: usize) -> Option<(usize, u64, u64)> {
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
        && matches!(pre[5], Jcc { cc: Cc::Ne, .. })
        && matches!(text[post + 1], WrFlags { rs: 0 });
    if !plumbing {
        return None;
    }
    let (a, f) = (save_word(binary, &save_r0)?, save_word(binary, &save_flags)?);
    (a != f && load_r0 == save_r0 && load_flags == save_flags).then_some((post, a, f))
}

/// The address `mem` names when it is an absolute, aligned word of the
/// data segment (below 4 GiB, so two fit in one µop immediate).
fn save_word(binary: &Binary, mem: &Mem) -> Option<u64> {
    let addr = u64::try_from(mem.disp).ok()?;
    let word = addr.checked_sub(GLOBAL_BASE)? / 8;
    let ok = mem.base.is_none()
        && mem.index.is_none()
        && addr.is_multiple_of(8)
        && word < binary.data.len() as u64
        && addr <= u64::from(u32::MAX);
    ok.then_some(addr)
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
        // `stop` is the trace position after the last fetched µop.
        let (stop, pc, result) = loop {
            let u = &sb.uops[k];
            match (u.exec)(self, u) {
                Ok(()) => {
                    k = u.next as usize;
                    if k == end {
                        break (end, end, Ok(()));
                    }
                }
                Err(Exit::Taken) => break (u.next as usize, u.imm as usize, Ok(())),
                // The exact loop adds the trapping instruction's cost
                // before stepping but does not retire it, and leaves pc on
                // the trapping instruction (always a single-instruction
                // µop).
                Err(Exit::Trap(t)) => break (u.next as usize, k, Err(t)),
            }
        };
        let fetched = u64::from(sb.fused_len[head] - sb.fused_len[stop]);
        let retired = fetched - u64::from(result.is_err());
        self.cycles += sb.fused_cost[head] - sb.fused_cost[stop] + fetched * overhead;
        *count += u64::from(sb.fused_events[head] - sb.fused_events[stop]);
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
    /// the incremental state digest against each golden snapshot when the
    /// trial reaches the snapshot's `(fi_count, pc)` position, and on a
    /// match splices the golden suffix and returns its outcome. Snapshots
    /// are matched by `(fi_count, pc)`, not retired count: for the
    /// call-hook tools the taken injection branch retires instructions the
    /// quiescent golden run never executed, so post-fire the trial's
    /// retired counter is permanently skewed against golden's. The
    /// FI-event counter is injection-invariant (the extra branch
    /// instructions are runtime-call plumbing, not FI events), so a trial
    /// whose state re-converges passes through every later golden snapshot
    /// at exactly the snapshot's FI count and pc — where the full-state
    /// digest decides — while the splice adds golden's *suffix deltas*
    /// onto the trial's own counters, absorbing the skew without measuring
    /// it.
    ///
    /// The loop body is written once and monomorphized on whether `golden`
    /// is set, so quiescent prefixes and plain suffixes run with no
    /// snapshot checks and no page-write tracking.
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
    /// count reaches [`CheckpointBuilder::next_due`], exactly where the
    /// per-instruction loop would after that retire. Capture is
    /// incremental: a [`ConvHasher`] seeded at the initial state tracks
    /// every store, so a snapshot's digest costs O(pages written since the
    /// last one), and its page lists compare only the pages ever written
    /// against the baseline. Snapshots equal [`Machine::snapshot`] stamped
    /// with the digest of [`ConvHasher::scan`].
    pub fn run_profile(
        binary: &'a Binary,
        cfg: &RunConfig,
        sb: &SuperblockProgram,
        overhead: u64,
        builder: Option<&mut CheckpointBuilder>,
    ) -> (RunResult, u64) {
        let mut m = Machine::new(binary, cfg);
        let (mut count, stats) = (0, &mut TrialFastStats::default());
        let max = cfg.max_cycles;
        let Some(b) = builder else {
            let outcome = m.run_sb(sb, &mut count, overhead, u64::MAX, None, max, stats);
            return (m.into_result(outcome.expect("a run with no stop count ends")), count);
        };
        let hasher = ConvHasher::scan(&b.baseline, &m.data, &binary.data, &m.stack, &m.output);
        m.conv = Some(Box::new(hasher));
        let mut written = WrittenPages::new(m.data.len(), m.stack.len());
        let outcome = loop {
            let due = b.next_due(m.instrs_retired);
            let run =
                m.sb_loop::<CAPTURE>(sb, &mut count, overhead, u64::MAX, None, due, max, stats);
            if let Some(outcome) = run {
                break outcome;
            }
            let (data, stack) = m.conv.as_deref().expect("capture hasher live").pending();
            written.mark(data, stack);
            let digest = m.conv_refresh(count);
            let pages = written.diff(&m.data, &binary.data, &m.stack);
            b.push(m.checkpoint(count, pages, digest));
        };
        m.conv = None;
        (m.into_result(outcome), count)
    }

    /// The body of [`Machine::run_sb`] and [`Machine::run_profile`]. `MODE`
    /// is [`CONV`] when `golden` is set, [`CAPTURE`] for a checkpointed
    /// profiling run, which returns `None` once `due` instructions have
    /// retired, and [`PLAIN`] otherwise; `due` is ignored outside
    /// [`CAPTURE`].
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
        debug_assert_eq!(sb.len(), self.binary.text.len());
        let ckpts: &[Checkpoint] = match golden {
            Some((store, _)) if MODE == CONV => &store.checkpoints,
            _ => &[],
        };
        let (entry_retired, mut spliced) = (self.instrs_retired, 0);
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
                        if let Some(saved) = self.splice_golden(store, ck, end, fi, max_cycles) {
                            stats.converged = true;
                            stats.conv_saved_instrs += saved;
                            spliced = saved;
                            break Some(RunOutcome::Exit(end.exit_code));
                        }
                    }
                }
            }
            // The per-instruction loop snapshots right after the due
            // retire, before it checks the cycle budget.
            if MODE == CAPTURE && self.instrs_retired == due {
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
            // check could have fired. A trace may end exactly on the due
            // retired count: the snapshot is taken after it.
            if n > 0
                && fi + u64::from(sb.fused_events[pc]) < stop
                && self.cycles + sb.fused_cost[pc] + u64::from(n) * overhead < max_cycles
                && (MODE != CONV || sb.passes_no_snapshot(&ckpts[cursor..], fi, pc))
                && (MODE != CAPTURE || self.instrs_retired + u64::from(n) <= due)
            {
                match self.exec_trace(sb, pc, count, overhead, stats) {
                    Ok(()) => continue,
                    Err(t) => break Some(RunOutcome::Trap(t)),
                }
            }
            let Some(e) = sb.slots.get(pc) else {
                break Some(RunOutcome::Trap(Trap::BadPc(self.pc as u64)));
            };
            self.cycles += overhead + e.cost;
            *count += u64::from(e.is_event);
            // Page write tracking feeds the digest refresh; it is a no-op
            // while no hasher is live.
            let step = if MODE == PLAIN {
                self.step_t::<NoFi, false>(&e.instr, &mut NoFi)
            } else {
                self.step_t::<NoFi, true>(&e.instr, &mut NoFi)
            };
            match step {
                Ok(Step::Continue) => {
                    self.instrs_retired += 1;
                    stats.sb_stepped_instrs += 1;
                }
                Ok(Step::Halt(code)) => break Some(RunOutcome::Exit(code)),
                Err(t) => break Some(RunOutcome::Trap(t)),
            }
        };
        if MODE == CONV {
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
// Each handler mirrors one `step_t` arm's data side effects exactly (the FI
// hooks as a counting-only runtime executes them). Stores
// always use `mem_write_t::<true>` / `push_t::<true>`: page tracking is a
// no-op while no hasher is live, and required when one is.

fn u_nop(_m: &mut Machine<'_>, _u: &Uop) -> Result<(), Exit> {
    Ok(())
}

fn u_term(_m: &mut Machine<'_>, _u: &Uop) -> Result<(), Exit> {
    unreachable!("terminator µop is never dispatched fused")
}

/// A `Jcc` guard: side-exit to the target (`imm`) when the condition holds.
fn u_jcc<const C: usize>(m: &mut Machine<'_>, _u: &Uop) -> Result<(), Exit> {
    if CCS[C].eval(m.flags) {
        Err(Exit::Taken)
    } else {
        Ok(())
    }
}

fn jcc_fn(cc: Cc) -> UopFn {
    match cc {
        Cc::E => u_jcc::<0>,
        Cc::Ne => u_jcc::<1>,
        Cc::Lt => u_jcc::<2>,
        Cc::Le => u_jcc::<3>,
        Cc::Gt => u_jcc::<4>,
        Cc::Ge => u_jcc::<5>,
    }
}

/// `selInstr` under a counting-only runtime: never inject.
fn u_sel_instr(m: &mut Machine<'_>, _u: &Uop) -> Result<(), Exit> {
    m.regs[0] = 0;
    Ok(())
}

/// A REFINE site's whole non-firing path ([`site_skip`]): save `r0` and
/// FLAGS to the two save-area words packed in `imm`; both provably in the
/// data segment, so neither store can trap.
fn u_site_skip(m: &mut Machine<'_>, u: &Uop) -> Result<(), Exit> {
    m.mem_write_t::<true>(u.imm & 0xffff_ffff, m.regs[0])?;
    m.mem_write_t::<true>(u.imm >> 32, u64::from(m.flags))?;
    // PostFI's `wrflags` keeps only the four architectural flag bits.
    m.flags &= 0xf;
    Ok(())
}

fn u_mov_rr(m: &mut Machine<'_>, u: &Uop) -> Result<(), Exit> {
    m.regs[u.a as usize] = m.regs[u.b as usize];
    Ok(())
}

fn u_mov_ri(m: &mut Machine<'_>, u: &Uop) -> Result<(), Exit> {
    m.regs[u.a as usize] = u.imm;
    Ok(())
}

fn u_fmov_rr(m: &mut Machine<'_>, u: &Uop) -> Result<(), Exit> {
    m.fregs[u.a as usize] = m.fregs[u.b as usize];
    Ok(())
}

fn u_fmov_ri(m: &mut Machine<'_>, u: &Uop) -> Result<(), Exit> {
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

fn u_alu_rr<const OP: usize>(m: &mut Machine<'_>, u: &Uop) -> Result<(), Exit> {
    let r = m.alu(
        ALU_OPS[OP],
        m.regs[u.b as usize] as i64,
        m.regs[u.c as usize] as i64,
    )?;
    m.regs[u.a as usize] = r as u64;
    Ok(())
}

fn u_alu_ri<const OP: usize>(m: &mut Machine<'_>, u: &Uop) -> Result<(), Exit> {
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

fn u_cmp(m: &mut Machine<'_>, u: &Uop) -> Result<(), Exit> {
    m.cmp_flags(m.regs[u.a as usize] as i64, m.regs[u.b as usize] as i64);
    Ok(())
}

fn u_cmp_i(m: &mut Machine<'_>, u: &Uop) -> Result<(), Exit> {
    m.cmp_flags(m.regs[u.a as usize] as i64, u.imm as i64);
    Ok(())
}

const CCS: [Cc; 6] = [Cc::E, Cc::Ne, Cc::Lt, Cc::Le, Cc::Gt, Cc::Ge];

fn u_setcc<const C: usize>(m: &mut Machine<'_>, u: &Uop) -> Result<(), Exit> {
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

fn u_falu<const OP: usize>(m: &mut Machine<'_>, u: &Uop) -> Result<(), Exit> {
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

fn u_fcmp(m: &mut Machine<'_>, u: &Uop) -> Result<(), Exit> {
    let (a, b) = (m.f(u.a), m.f(u.b));
    m.fcmp_flags(a, b);
    Ok(())
}

fn u_cvt<const K: usize>(m: &mut Machine<'_>, u: &Uop) -> Result<(), Exit> {
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

fn u_ld<const BASE: bool, const INDEX: bool>(m: &mut Machine<'_>, u: &Uop) -> Result<(), Exit> {
    let a = uop_addr::<BASE, INDEX>(m, u);
    m.regs[u.d as usize] = m.mem_read(a)?;
    Ok(())
}

fn u_st<const BASE: bool, const INDEX: bool>(m: &mut Machine<'_>, u: &Uop) -> Result<(), Exit> {
    let a = uop_addr::<BASE, INDEX>(m, u);
    Ok(m.mem_write_t::<true>(a, m.regs[u.d as usize])?)
}

fn u_fld<const BASE: bool, const INDEX: bool>(m: &mut Machine<'_>, u: &Uop) -> Result<(), Exit> {
    let a = uop_addr::<BASE, INDEX>(m, u);
    m.fregs[u.d as usize] = m.mem_read(a)?;
    Ok(())
}

fn u_fst<const BASE: bool, const INDEX: bool>(m: &mut Machine<'_>, u: &Uop) -> Result<(), Exit> {
    let a = uop_addr::<BASE, INDEX>(m, u);
    Ok(m.mem_write_t::<true>(a, m.fregs[u.d as usize])?)
}

fn u_lea<const BASE: bool, const INDEX: bool>(m: &mut Machine<'_>, u: &Uop) -> Result<(), Exit> {
    m.regs[u.d as usize] = uop_addr::<BASE, INDEX>(m, u);
    Ok(())
}

fn u_push(m: &mut Machine<'_>, u: &Uop) -> Result<(), Exit> {
    Ok(m.push_t::<true>(m.regs[u.a as usize])?)
}

fn u_pop(m: &mut Machine<'_>, u: &Uop) -> Result<(), Exit> {
    let v = m.pop()?;
    m.regs[u.a as usize] = v;
    Ok(())
}

fn u_rdflags(m: &mut Machine<'_>, u: &Uop) -> Result<(), Exit> {
    m.regs[u.a as usize] = m.flags as u64;
    Ok(())
}

fn u_wrflags(m: &mut Machine<'_>, u: &Uop) -> Result<(), Exit> {
    m.flags = (m.regs[u.a as usize] & 0xf) as u8;
    Ok(())
}

fn u_fxori(m: &mut Machine<'_>, u: &Uop) -> Result<(), Exit> {
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
/// are built). A forward `Jmp` and the LLFI hooks are no-ops in a trace;
/// terminators get a placeholder that is never dispatched (their
/// `fused_len` is always 0).
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
        MInstr::Jcc { cc, target } => simple(jcc_fn(cc), 0, 0, 0, u64::from(target)),
        MInstr::CallRt { func: RtFunc::FiSelInstr, .. } => simple(u_sel_instr, 0, 0, 0, 0),
        MInstr::Jmp { .. }
        | MInstr::CallRt { func: RtFunc::LlfiInjectI | RtFunc::LlfiInjectF, .. } => {
            simple(u_nop, 0, 0, 0, 0)
        }
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
    use crate::digest::BaselineHashes;
    use crate::probe::{CountingProbe, Probe, ProbeAction};
    use crate::rt::FiRuntime;

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
        assert_eq!(sb.uops[2].next, 4);
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

    /// A program around one REFINE-shaped site with its PreFI at pc 2:
    /// `r0` and FLAGS must come out of the site unchanged, so it exits 0.
    fn site_program(pre: [MInstr; 7], post: [MInstr; 3]) -> Binary {
        let mut text = vec![MInstr::MovRI { rd: 0, imm: 42 }, MInstr::CmpI { ra: 0, imm: 100 }];
        text.extend(pre);
        text.extend(post);
        text.extend([
            MInstr::SetCc { cc: Cc::Lt, rd: 3 },
            MInstr::AluI { op: AluOp::Sub, rd: 0, ra: 0, imm: 41 },
            MInstr::Alu { op: AluOp::Sub, rd: 0, ra: 0, rb: 3 },
            MInstr::Halt,
            MInstr::MovRI { rd: 0, imm: 99 }, // the (never taken) SetupFI
            MInstr::Halt,
        ]);
        bin(text)
    }

    fn pre_fi(save_a: i64, save_f: i64) -> [MInstr; 7] {
        [
            MInstr::St { rs: 0, mem: Mem::abs(save_a) },
            MInstr::RdFlags { rd: 0 },
            MInstr::St { rs: 0, mem: Mem::abs(save_f) },
            MInstr::CallRt { func: RtFunc::FiSelInstr, imm: 5 },
            MInstr::CmpI { ra: 0, imm: 0 },
            MInstr::Jcc { cc: Cc::Ne, target: 16 },
            MInstr::Jmp { target: 9 },
        ]
    }

    fn post_fi(load_f: i64, load_a: i64) -> [MInstr; 3] {
        [
            MInstr::Ld { rd: 0, mem: Mem::abs(load_f) },
            MInstr::WrFlags { rs: 0 },
            MInstr::Ld { rd: 0, mem: Mem::abs(load_a) },
        ]
    }

    #[test]
    fn refine_site_skip_is_one_uop() {
        let b = site_program(pre_fi(SAVE_A, SAVE_F), post_fi(SAVE_F, SAVE_A));
        let sb = SuperblockProgram::new(&b);
        assert!(sb.is_site_skip(2));
        assert_eq!(sb.uops[2].next, 12);
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
        let mut other_reg = pre_fi(SAVE_A, SAVE_F);
        other_reg[1] = MInstr::RdFlags { rd: 1 };
        let outside = GLOBAL_BASE as i64 + 8 * 100;
        let near_misses = [
            site_program(other_reg, post_fi(SAVE_F, SAVE_A)),
            site_program(pre_fi(outside, SAVE_F), post_fi(SAVE_F, outside)),
            site_program(pre_fi(SAVE_A, SAVE_F), post_fi(SAVE_A, SAVE_F)),
            site_program(pre_fi(SAVE_A, SAVE_A), post_fi(SAVE_A, SAVE_A)),
        ];
        for (i, b) in near_misses.iter().enumerate() {
            let sb = SuperblockProgram::new(b);
            assert!(!sb.is_site_skip(2), "near miss {i}");
            assert_eq!(sb.uops[2].next, 3, "near miss {i}");
            fused_vs_exact(b, u64::MAX);
            fused_vs_exact(b, 1);
        }
        let (out, ..) = fused_vs_exact(&near_misses[1], u64::MAX);
        assert_eq!(out, Some(RunOutcome::Trap(Trap::Segfault(outside as u64))));
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
            let mut probe = DueProbe { due, ..DueProbe::new(0) };
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

    /// Profile `b` fused through `sb` with a snapshot every `interval`
    /// retired instructions, assert the run and every snapshot equal the
    /// exact loop's full-scan ones (digest from a full `ConvHasher::scan`),
    /// and return the fused store.
    fn profile_vs_exact(
        b: &Binary,
        sb: &SuperblockProgram,
        overhead: u64,
        interval: u64,
    ) -> CheckpointStore {
        let cfg = RunConfig::default();
        let ckpt = CheckpointConfig { interval, ..CheckpointConfig::default() };
        let baseline = BaselineHashes::new(&b.data, cfg.stack_words, (0, 0));
        let mut builder = CheckpointBuilder::new(&ckpt, baseline.clone());
        let (fused, count) = Machine::run_profile(b, &cfg, sb, overhead, Some(&mut builder));
        let store = builder.finish(cfg.stack_words);

        let mut m = Machine::new(b, &cfg);
        let (mut rt, mut probe) = (CountTo { count: 0, at: u64::MAX }, DueProbe::new(overhead));
        let mut snapshots = Vec::new();
        let outcome = loop {
            probe.due = (m.instrs_retired / interval + 1) * interval;
            let run = m.run_exact_until_fired(cfg.max_cycles, &mut rt, Some(&mut probe));
            if let Some(outcome) = run {
                break outcome;
            }
            let fi = if sb.probed { probe.targets } else { rt.count };
            let mut ck = m.snapshot(fi);
            let hasher = ConvHasher::scan(&baseline, &m.data, &b.data, &m.stack, &m.output);
            ck.digest = hasher.digest(&m.regs, &m.fregs, m.flags, m.pc, fi);
            snapshots.push(ck);
        };
        let events = if sb.probed { probe.targets } else { rt.count };
        let exact = m.into_result(outcome);
        assert_eq!(
            (fused.outcome, fused.output, fused.cycles, fused.instrs_retired, count),
            (exact.outcome, exact.output, exact.cycles, exact.instrs_retired, events)
        );
        assert_eq!(store.checkpoints, snapshots);
        store
    }

    #[test]
    fn halt_or_trap_before_the_due_count_takes_no_snapshot() {
        let halts = boundary_program();
        let sb = SuperblockProgram::new(&halts);
        assert!(profile_vs_exact(&halts, &sb, 0, 14).is_empty());
        // The 13th retire is due: its snapshot is taken, on the `Halt`.
        let store = profile_vs_exact(&halts, &sb, 0, 13);
        let points: Vec<_> = store.checkpoints.iter().map(|c| (c.retired, c.pc)).collect();
        assert_eq!(points, [(13, 8)]);
        let traps = bin(vec![
            MInstr::MovRI { rd: 1, imm: 1 },
            MInstr::MovRI { rd: 2, imm: 0 },
            MInstr::Alu { op: AluOp::Div, rd: 0, ra: 1, rb: 2 },
            MInstr::Halt,
        ]);
        let sb = SuperblockProgram::new(&traps);
        assert!(profile_vs_exact(&traps, &sb, 0, 3).is_empty());
        assert_eq!(profile_vs_exact(&traps, &sb, 0, 2).len(), 1);
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
            profile_vs_exact(&b, &sb, 10, interval);
        }
    }

    #[test]
    fn page_written_back_to_its_baseline_is_not_captured() {
        let word = Mem::abs(GLOBAL_BASE as i64);
        let b = bin(vec![
            MInstr::MovRI { rd: 1, imm: 7 },
            MInstr::St { rs: 1, mem: word },
            MInstr::Push { rs: 1 },
            MInstr::MovRI { rd: 1, imm: 0 },
            MInstr::St { rs: 1, mem: word }, // the data word is 0 again
            MInstr::Halt,
        ]);
        let sb = SuperblockProgram::new(&b);
        let store = profile_vs_exact(&b, &sb, 0, 1);
        let pages = |c: &Checkpoint| (c.data_pages.len(), c.stack_pages.len());
        let counts: Vec<_> = store.checkpoints.iter().map(pages).collect();
        assert_eq!(counts, [(0, 0), (1, 0), (1, 1), (1, 1), (0, 1)]);
    }
}
