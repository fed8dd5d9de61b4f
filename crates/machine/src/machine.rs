//! The M64 execution engine.

use std::cell::Cell;

use crate::binary::Binary;
use crate::checkpoint::{apply_pages, diff_pages, Checkpoint, DirtyPage, PAGE_WORDS};
use crate::isa::{fi_outputs, flags, AluOp, CvtKind, FAluOp, MInstr, Mem, Reg, RtFunc, SP};
use crate::probe::{Probe, ProbeAction};
use crate::rt::{pack, FiRuntime};

/// Byte address where the data segment (globals) is mapped. Matches the IR
/// interpreter's layout so pointer arithmetic behaves identically.
pub const GLOBAL_BASE: u64 = 0x0001_0000;
/// Byte address one past the top of the stack; `sp` starts here and grows
/// down.
pub const STACK_TOP: u64 = 0x8000_0000;

/// Hardware trap causes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trap {
    /// Access to an unmapped address.
    Segfault(u64),
    /// Access that is not 8-byte aligned.
    Misaligned(u64),
    /// Integer divide fault (`#DE`).
    DivFault,
    /// Control transfer outside the text section (corrupted return address).
    BadPc(u64),
}

impl Trap {
    /// Short stable cause label for trap-cause breakdowns (telemetry,
    /// trace records).
    pub fn name(&self) -> &'static str {
        match self {
            Trap::Segfault(_) => "segfault",
            Trap::Misaligned(_) => "misaligned",
            Trap::DivFault => "div-fault",
            Trap::BadPc(_) => "bad-pc",
        }
    }
}

impl std::fmt::Display for Trap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Trap::Segfault(a) => write!(f, "segfault at {a:#x}"),
            Trap::Misaligned(a) => write!(f, "misaligned access at {a:#x}"),
            Trap::DivFault => write!(f, "integer divide fault"),
            Trap::BadPc(a) => write!(f, "bad program counter {a:#x}"),
        }
    }
}

/// One recorded output action (mirror of the IR interpreter's event type).
#[derive(Debug, Clone, PartialEq)]
pub enum OutEvent {
    /// `print_i64`.
    I64(i64),
    /// `print_f64`.
    F64(f64),
    /// `print_str`.
    Str(String),
}

/// How a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// `halt` executed; exit code attached.
    Exit(i64),
    /// Hardware trap.
    Trap(Trap),
    /// Cycle budget exhausted.
    Timeout,
}

/// The golden run's terminal facts, borrowed by a convergence-tracked
/// [`Machine::run_sb`] so a converged trial can splice the remainder
/// instead of executing it.
#[derive(Debug, Clone, Copy)]
pub struct GoldenEnd<'a> {
    /// The golden run's exit code (convergence is only attempted for runs
    /// that exited cleanly).
    pub exit_code: i64,
    /// The golden run's complete output stream.
    pub output: &'a [OutEvent],
    /// The golden run's final cycle count (including any per-fetch probe
    /// overhead the profiling run paid).
    pub cycles: u64,
    /// The golden run's final retired-instruction count.
    pub retired: u64,
    /// Per-fetch probe overhead the *profiling* run paid that a detached
    /// trial does not (PINFI's instrumentation tax); subtracted from the
    /// spliced suffix cycles so trial timing matches native execution.
    pub probe_overhead: u64,
}

/// A completed machine run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Final outcome.
    pub outcome: RunOutcome,
    /// Output events in emission order.
    pub output: Vec<OutEvent>,
    /// Simulated cycles consumed (the paper's "execution time").
    pub cycles: u64,
    /// Dynamic instruction count.
    pub instrs_retired: u64,
}

/// A read-only snapshot of architectural state handed to a [`Tracer`]
/// after each retired instruction.
#[derive(Debug, Clone, Copy)]
pub struct ArchState<'a> {
    /// Program counter of the *retired* instruction.
    pub pc: u32,
    /// General-purpose register file.
    pub regs: &'a [u64; 16],
    /// Floating-point register file (raw bits).
    pub fregs: &'a [u64; 16],
    /// FLAGS register.
    pub flags: u8,
    /// Dynamic instruction index (0-based).
    pub retired: u64,
}

/// Observes architectural state after every retired instruction — the hook
/// error-propagation analysis is built on (golden and faulty runs are
/// traced and diffed).
pub trait Tracer {
    /// Called after each instruction retires (and after any probe-requested
    /// injection was applied).
    fn after_step(&mut self, st: ArchState<'_>);
}

/// Run parameters.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Cycle budget; exceeding it yields [`RunOutcome::Timeout`]. The
    /// campaign sets this to 10x the profiled execution per the paper.
    pub max_cycles: u64,
    /// Stack size in 8-byte words.
    pub stack_words: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig { max_cycles: 500_000_000, stack_words: 1 << 16 }
    }
}

/// The machine state during one run.
///
/// Fields are `pub(crate)` so the superblock engine
/// ([`crate::superblock`]) can implement its fused dispatch loops as
/// sibling inherent impls without accessor overhead.
pub struct Machine<'a> {
    pub(crate) binary: &'a Binary,
    pub(crate) regs: [u64; 16],
    pub(crate) fregs: [u64; 16],
    pub(crate) flags: u8,
    pub(crate) pc: u32,
    pub(crate) data: Vec<u64>,
    pub(crate) stack: Vec<u64>,
    pub(crate) stack_base: u64,
    pub(crate) output: Vec<OutEvent>,
    pub(crate) cycles: u64,
    pub(crate) instrs_retired: u64,
    /// The lowest stack word index ever written (`stack.len()` while none
    /// is): every word below it still holds its initial zero, so snapshot
    /// capture and the golden comparison read the stack only from here up.
    pub(crate) stack_lo: usize,
    /// The data-segment word indices of the save-area words (`r0`, FLAGS)
    /// of the REFINE sites fused µops absorb, copied from the running
    /// `SuperblockProgram` by the fused loop.
    pub(crate) site_words: (usize, usize),
}

thread_local! {
    /// This thread's spare all-zero stack: [`Machine::into_result`] hands
    /// its stack back here re-zeroed and [`Machine::new`] takes it, so a
    /// trial neither allocates nor clears a whole stack.
    static SPARE_STACK: Cell<Vec<u64>> = const { Cell::new(Vec::new()) };
}

impl<'a> Machine<'a> {
    /// Initialize machine state for `binary`.
    ///
    /// # Panics
    ///
    /// If the data segment and the `cfg.stack_words` stack below
    /// [`STACK_TOP`] overlap: memory accesses try the stack first, which
    /// gives the same result only for disjoint segments.
    pub fn new(binary: &'a Binary, cfg: &RunConfig) -> Self {
        let stack_bytes = (cfg.stack_words as u64).saturating_mul(8);
        let data_end = GLOBAL_BASE + binary.data.len() as u64 * 8;
        assert!(
            data_end.saturating_add(stack_bytes) <= STACK_TOP,
            "data segment and a {}-word stack overlap",
            cfg.stack_words
        );
        let mut stack = SPARE_STACK.take();
        if stack.len() != cfg.stack_words {
            stack = vec![0; cfg.stack_words];
        }
        let mut m = Machine {
            binary,
            regs: [0; 16],
            fregs: [0; 16],
            flags: 0,
            pc: binary.entry,
            data: binary.data.clone(),
            stack,
            stack_base: STACK_TOP - stack_bytes,
            output: Vec::new(),
            cycles: 0,
            instrs_retired: 0,
            stack_lo: cfg.stack_words,
            site_words: (0, 0),
        };
        m.regs[SP as usize] = STACK_TOP;
        m
    }

    /// Run to completion with a fault-injection runtime and an optional
    /// binary-instrumentation probe.
    pub fn run(
        binary: &'a Binary,
        cfg: &RunConfig,
        rt: &mut dyn FiRuntime,
        probe: Option<&mut dyn Probe>,
    ) -> RunResult {
        Self::run_traced(binary, cfg, rt, probe, None)
    }

    /// Like [`Machine::run`], additionally streaming post-retirement
    /// architectural state to `tracer`.
    pub fn run_traced(
        binary: &'a Binary,
        cfg: &RunConfig,
        rt: &mut dyn FiRuntime,
        probe: Option<&mut dyn Probe>,
        tracer: Option<&mut dyn Tracer>,
    ) -> RunResult {
        let mut m = Machine::new(binary, cfg);
        let outcome = m
            .exec_loop(cfg.max_cycles, rt, probe, tracer, false)
            .expect("exec_loop completes unless until_fired");
        m.into_result(outcome)
    }

    /// Reconstruct the machine exactly as it was when `ck` was captured
    /// from a profiling run of `binary` (same binary, same
    /// `cfg.stack_words`).
    pub fn resume(binary: &'a Binary, cfg: &RunConfig, ck: &Checkpoint) -> Self {
        let mut m = Machine::new(binary, cfg);
        m.regs = ck.regs;
        m.fregs = ck.fregs;
        m.flags = ck.flags;
        m.pc = ck.pc;
        m.cycles = ck.cycles;
        m.instrs_retired = ck.retired;
        m.output = ck.output.clone();
        apply_pages(&ck.data_pages, &mut m.data);
        apply_pages(&ck.stack_pages, &mut m.stack);
        if let Some(p) = ck.stack_pages.first() {
            m.stack_lo = p.index as usize * PAGE_WORDS;
        }
        m
    }

    /// Capture the current architectural state as a [`Checkpoint`] stamped
    /// with `fi_count` (the FI-event counter value at this point), diffing
    /// both whole memory segments. This full scan is the reference for the
    /// capture of [`Machine::run_profile`], which diffs the stack only from
    /// its lowest written word.
    pub fn snapshot(&self, fi_count: u64) -> Checkpoint {
        let data = diff_pages(&self.data, Some(&self.binary.data));
        self.checkpoint(fi_count, (data, diff_pages(&self.stack, None)))
    }

    /// A [`Checkpoint`] of the current registers, counters and output with
    /// the given `(data, stack)` page lists.
    pub(crate) fn checkpoint(
        &self,
        fi_count: u64,
        (data_pages, stack_pages): (Vec<DirtyPage>, Vec<DirtyPage>),
    ) -> Checkpoint {
        Checkpoint {
            regs: self.regs,
            fregs: self.fregs,
            flags: self.flags,
            pc: self.pc,
            cycles: self.cycles,
            retired: self.instrs_retired,
            fi_count,
            output: self.output.clone(),
            data_pages,
            stack_pages,
        }
    }

    /// Run the exact interpreter loop only until the fault *fires* (the
    /// runtime or probe reports [`FiRuntime::fired`]/[`Probe::fired`]
    /// after an instruction retires). Returns `Some(outcome)` if the run
    /// ended first (the fault never fired — deterministically impossible
    /// when the caller fast-forwarded to just below the target, but handled
    /// for robustness), `None` once fired: the caller continues the suffix
    /// with [`Machine::run_sb`], convergence-tracked when it passes a golden
    /// end.
    pub fn run_exact_until_fired(
        &mut self,
        max_cycles: u64,
        rt: &mut dyn FiRuntime,
        probe: Option<&mut dyn Probe>,
    ) -> Option<RunOutcome> {
        self.exec_loop(max_cycles, rt, probe, None, true)
    }

    /// Package a finished (or fast-path-terminated) machine into a
    /// [`RunResult`], handing its stack, zeroed again from its lowest
    /// written word up, to this thread's next [`Machine::new`].
    pub fn into_result(mut self, outcome: RunOutcome) -> RunResult {
        self.stack[self.stack_lo..].fill(0);
        SPARE_STACK.set(self.stack);
        RunResult {
            outcome,
            output: self.output,
            cycles: self.cycles,
            instrs_retired: self.instrs_retired,
        }
    }

    /// The exact interpreter loop shared by every entry point: probe
    /// consultation, virtual runtime dispatch, post-retirement injection
    /// and tracing. It serves the exact oracle and a fused trial's fire
    /// window; profiling runs are fused ([`Machine::run_profile`]).
    ///
    /// With `until_fired` set, the loop additionally stops (returning
    /// `None`) right after the instruction on which the runtime or probe
    /// fired its fault; otherwise it always runs to completion and returns
    /// `Some(outcome)`.
    fn exec_loop(
        &mut self,
        max_cycles: u64,
        rt: &mut dyn FiRuntime,
        mut probe: Option<&mut dyn Probe>,
        mut tracer: Option<&mut dyn Tracer>,
        until_fired: bool,
    ) -> Option<RunOutcome> {
        let outcome = loop {
            if self.cycles >= max_cycles {
                break RunOutcome::Timeout;
            }
            let Some(&instr) = self.binary.text.get(self.pc as usize) else {
                break RunOutcome::Trap(Trap::BadPc(self.pc as u64));
            };
            let pc = self.pc;
            // --- DBI probe (PIN analogue).
            let mut inject: Option<(usize, u32)> = None;
            let mut probe_fired = false;
            if let Some(p) = probe.as_deref_mut() {
                self.cycles += p.overhead_cycles();
                let mut detach = false;
                match p.before(self.pc, &instr, self.instrs_retired) {
                    ProbeAction::Continue => {}
                    ProbeAction::InjectAfter { op, bit, detach: d } => {
                        inject = Some((op, bit));
                        detach = d;
                    }
                }
                if until_fired {
                    probe_fired = p.fired();
                }
                if detach {
                    probe = None;
                }
            }
            // --- Execute.
            self.cycles += instr.cycles();
            match self.step(&instr, rt) {
                Ok(Step::Continue) => {}
                Ok(Step::Halt(code)) => break RunOutcome::Exit(code),
                Err(t) => break RunOutcome::Trap(t),
            }
            self.instrs_retired += 1;
            // --- Post-retirement injection requested by the probe.
            if let Some((op, bit)) = inject {
                let outs = fi_outputs(&instr);
                if let Some(&(reg, bits)) = outs.get(op) {
                    self.flip(reg, bit % bits);
                }
            }
            if let Some(t) = tracer.as_deref_mut() {
                t.after_step(ArchState {
                    pc,
                    regs: &self.regs,
                    fregs: &self.fregs,
                    flags: self.flags,
                    retired: self.instrs_retired - 1,
                });
            }
            // --- Fired-fault handoff to the fused suffix. The firing
            // instruction (and its post-retirement injection) has fully
            // executed by this point.
            if until_fired && (probe_fired || rt.fired()) {
                return None;
            }
        };
        Some(outcome)
    }

    /// XOR `mask` into an architectural register (FLAGS keeps its 4 bits).
    /// With `mask = old ^ new` it sets the register to any value: the
    /// any-state check resumes golden checkpoints this way and runs the
    /// corrupted rest fused and exactly.
    pub fn xor_mask(&mut self, reg: Reg, mask: u64) {
        match reg {
            Reg::G(i) => self.regs[i as usize] ^= mask,
            Reg::F(i) => self.fregs[i as usize] ^= mask,
            Reg::Flags => self.flags ^= (mask & 0xf) as u8,
        }
    }

    /// The word at byte address `addr`, read as a load would.
    pub fn load_word(&self, addr: u64) -> Result<u64, Trap> {
        self.mem_read(addr)
    }

    /// Write `value` to the word at byte address `addr` as a store would.
    /// With [`Machine::xor_mask`] it sets any state a fault can leave
    /// behind: the any-state check resumes golden checkpoints this way, with
    /// a data word or stack slot set to an arbitrary value.
    pub fn store_word(&mut self, addr: u64, value: u64) -> Result<(), Trap> {
        self.mem_write(addr, value)
    }

    /// Flip one bit of an architectural register.
    pub fn flip(&mut self, reg: Reg, bit: u32) {
        match reg {
            Reg::G(i) => self.regs[i as usize] ^= 1 << (bit & 63),
            Reg::F(i) => self.fregs[i as usize] ^= 1 << (bit & 63),
            Reg::Flags => self.flags ^= 1 << (bit % crate::isa::FLAGS_BITS),
        }
    }

    // Each segment is one bounds-checked `get` on the word offset from its
    // base, which wraps to a huge index below the base. The stack goes
    // first: most accesses are `fp`/`sp` based. `Machine::new` asserts the
    // segments are disjoint, so the order never changes a result.
    #[inline(always)]
    pub(crate) fn mem_read(&self, addr: u64) -> Result<u64, Trap> {
        if !addr.is_multiple_of(8) {
            return Err(Trap::Misaligned(addr));
        }
        let s = addr.wrapping_sub(self.stack_base) / 8;
        if let Some(&v) = self.stack.get(s as usize) {
            return Ok(v);
        }
        match self.data.get((addr.wrapping_sub(GLOBAL_BASE) / 8) as usize) {
            Some(&v) => Ok(v),
            None => Err(Trap::Segfault(addr)),
        }
    }

    /// Memory write; a stack store also lowers [`Machine::stack_lo`].
    #[inline(always)]
    pub(crate) fn mem_write(&mut self, addr: u64, val: u64) -> Result<(), Trap> {
        if !addr.is_multiple_of(8) {
            return Err(Trap::Misaligned(addr));
        }
        let s = (addr.wrapping_sub(self.stack_base) / 8) as usize;
        if let Some(w) = self.stack.get_mut(s) {
            *w = val;
            self.stack_lo = self.stack_lo.min(s);
            return Ok(());
        }
        match self.data.get_mut((addr.wrapping_sub(GLOBAL_BASE) / 8) as usize) {
            Some(w) => {
                *w = val;
                Ok(())
            }
            None => Err(Trap::Segfault(addr)),
        }
    }

    fn eff_addr(&self, mem: &Mem) -> u64 {
        let mut a = mem.disp as u64;
        if let Some(b) = mem.base {
            a = a.wrapping_add(self.regs[b as usize]);
        }
        if let Some((i, s)) = mem.index {
            a = a.wrapping_add(self.regs[i as usize].wrapping_mul(s as u64));
        }
        a
    }

    fn set_int_flags(&mut self, res: i64, of: bool) {
        let mut f = 0u8;
        if res == 0 {
            f |= flags::ZF;
        }
        if res < 0 {
            f |= flags::LT;
        }
        if of {
            f |= flags::OF;
        }
        self.flags = f;
    }

    pub(crate) fn f(&self, i: u8) -> f64 {
        f64::from_bits(self.fregs[i as usize])
    }

    pub(crate) fn set_f(&mut self, i: u8, v: f64) {
        self.fregs[i as usize] = v.to_bits();
    }

    pub(crate) fn alu(&mut self, op: AluOp, a: i64, b: i64) -> Result<i64, Trap> {
        let (res, of) = match op {
            AluOp::Add => a.overflowing_add(b),
            AluOp::Sub => a.overflowing_sub(b),
            AluOp::Mul => a.overflowing_mul(b),
            AluOp::Div => {
                if b == 0 || (a == i64::MIN && b == -1) {
                    return Err(Trap::DivFault);
                }
                (a / b, false)
            }
            AluOp::Rem => {
                if b == 0 || (a == i64::MIN && b == -1) {
                    return Err(Trap::DivFault);
                }
                (a % b, false)
            }
            AluOp::And => (a & b, false),
            AluOp::Or => (a | b, false),
            AluOp::Xor => (a ^ b, false),
            AluOp::Shl => (a.wrapping_shl((b & 63) as u32), false),
            AluOp::LShr => (((a as u64).wrapping_shr((b & 63) as u32)) as i64, false),
            AluOp::AShr => (a.wrapping_shr((b & 63) as u32), false),
        };
        self.set_int_flags(res, of);
        Ok(res)
    }

    #[inline(always)]
    pub(crate) fn push(&mut self, val: u64) -> Result<(), Trap> {
        let sp = self.regs[SP as usize].wrapping_sub(8);
        self.regs[SP as usize] = sp;
        self.mem_write(sp, val)
    }

    #[inline(always)]
    pub(crate) fn pop(&mut self) -> Result<u64, Trap> {
        let sp = self.regs[SP as usize];
        let v = self.mem_read(sp)?;
        self.regs[SP as usize] = sp.wrapping_add(8);
        Ok(v)
    }

    /// One-instruction dispatch: the exact interpreter's step.
    pub(crate) fn step<R: FiRuntime + ?Sized>(
        &mut self,
        instr: &MInstr,
        rt: &mut R,
    ) -> Result<Step, Trap> {
        let mut next = self.pc + 1;
        match *instr {
            MInstr::Nop => {}
            MInstr::MovRR { rd, ra } => self.regs[rd as usize] = self.regs[ra as usize],
            MInstr::MovRI { rd, imm } => self.regs[rd as usize] = imm as u64,
            MInstr::FMovRR { fd, fa } => self.fregs[fd as usize] = self.fregs[fa as usize],
            MInstr::FMovRI { fd, imm } => self.fregs[fd as usize] = imm,
            MInstr::Alu { op, rd, ra, rb } => {
                let r = self.alu(op, self.regs[ra as usize] as i64, self.regs[rb as usize] as i64)?;
                self.regs[rd as usize] = r as u64;
            }
            MInstr::AluI { op, rd, ra, imm } => {
                let r = self.alu(op, self.regs[ra as usize] as i64, imm)?;
                self.regs[rd as usize] = r as u64;
            }
            MInstr::Cmp { ra, rb } => {
                let (a, b) = (self.regs[ra as usize] as i64, self.regs[rb as usize] as i64);
                self.cmp_flags(a, b);
            }
            MInstr::CmpI { ra, imm } => {
                let a = self.regs[ra as usize] as i64;
                self.cmp_flags(a, imm);
            }
            MInstr::SetCc { cc, rd } => {
                self.regs[rd as usize] = cc.eval(self.flags) as u64;
            }
            MInstr::FAlu { op, fd, fa, fb } => {
                let (a, b) = (self.f(fa), self.f(fb));
                let r = match op {
                    FAluOp::Add => a + b,
                    FAluOp::Sub => a - b,
                    FAluOp::Mul => a * b,
                    FAluOp::Div => a / b,
                    FAluOp::Min => a.min(b),
                    FAluOp::Max => a.max(b),
                };
                self.set_f(fd, r);
            }
            MInstr::FCmp { fa, fb } => {
                let (a, b) = (self.f(fa), self.f(fb));
                self.fcmp_flags(a, b);
            }
            MInstr::Cvt { kind, dst, src } => match kind {
                CvtKind::SiToF => self.set_f(dst, self.regs[src as usize] as i64 as f64),
                CvtKind::FToSi => self.regs[dst as usize] = (self.f(src) as i64) as u64,
                CvtKind::BitsToF => self.fregs[dst as usize] = self.regs[src as usize],
                CvtKind::FToBits => self.regs[dst as usize] = self.fregs[src as usize],
            },
            MInstr::Ld { rd, mem } => {
                let a = self.eff_addr(&mem);
                self.regs[rd as usize] = self.mem_read(a)?;
            }
            MInstr::St { rs, mem } => {
                let a = self.eff_addr(&mem);
                self.mem_write(a, self.regs[rs as usize])?;
            }
            MInstr::FLd { fd, mem } => {
                let a = self.eff_addr(&mem);
                self.fregs[fd as usize] = self.mem_read(a)?;
            }
            MInstr::FSt { fs, mem } => {
                let a = self.eff_addr(&mem);
                self.mem_write(a, self.fregs[fs as usize])?;
            }
            MInstr::Push { rs } => self.push(self.regs[rs as usize])?,
            MInstr::Pop { rd } => {
                let v = self.pop()?;
                self.regs[rd as usize] = v;
            }
            MInstr::Jmp { target } => next = target,
            MInstr::Jcc { cc, target } => {
                if cc.eval(self.flags) {
                    next = target;
                }
            }
            MInstr::Call { target } => {
                self.push(next as u64)?;
                next = target;
            }
            MInstr::Ret => {
                let ra = self.pop()?;
                if ra as usize >= self.binary.text.len() {
                    return Err(Trap::BadPc(ra));
                }
                next = ra as u32;
            }
            MInstr::CallRt { func, imm } => self.call_rt(func, imm, rt),
            MInstr::RdFlags { rd } => self.regs[rd as usize] = self.flags as u64,
            MInstr::WrFlags { rs } => self.flags = (self.regs[rs as usize] & 0xf) as u8,
            MInstr::FXorI { fd, imm } => self.fregs[fd as usize] ^= imm,
            MInstr::Halt => return Ok(Step::Halt(self.regs[0] as i64)),
            MInstr::Lea { rd, mem } => self.regs[rd as usize] = self.eff_addr(&mem),
        }
        self.pc = next;
        // Unified pc-bounds rule: every control transfer *and* every
        // fallthrough must land strictly inside `text` — `pc == text.len()`
        // is a trap, matching `Ret`'s check (which additionally validates the
        // full 64-bit return address before it is truncated to a pc).
        if self.pc as usize >= self.binary.text.len() {
            return Err(Trap::BadPc(self.pc as u64));
        }
        Ok(Step::Continue)
    }

    pub(crate) fn cmp_flags(&mut self, a: i64, b: i64) {
        let mut f = 0u8;
        if a == b {
            f |= flags::ZF;
        }
        if a < b {
            f |= flags::LT;
        }
        if a.overflowing_sub(b).1 {
            f |= flags::OF;
        }
        self.flags = f;
    }

    pub(crate) fn fcmp_flags(&mut self, a: f64, b: f64) {
        let mut f = 0u8;
        if a.is_nan() || b.is_nan() {
            f |= flags::UN;
        } else {
            if a == b {
                f |= flags::ZF;
            }
            if a < b {
                f |= flags::LT;
            }
        }
        self.flags = f;
    }

    // Forced inline: the exact loops run every runtime hook (LLFI calls
    // one per IR instruction), and an outlined call here measurably slowed
    // cold campaigns.
    #[inline(always)]
    fn call_rt<R: FiRuntime + ?Sized>(&mut self, func: RtFunc, imm: u64, rt: &mut R) {
        match func {
            RtFunc::PrintI64 => self.output.push(OutEvent::I64(self.regs[0] as i64)),
            RtFunc::PrintF64 => self.output.push(OutEvent::F64(self.f(0))),
            RtFunc::PrintStr => {
                let s = self
                    .binary
                    .strings
                    .get(imm as usize)
                    .cloned()
                    .unwrap_or_default();
                self.output.push(OutEvent::Str(s));
            }
            RtFunc::Sqrt => self.set_f(0, self.f(0).sqrt()),
            RtFunc::Fabs => self.set_f(0, self.f(0).abs()),
            RtFunc::Exp => self.set_f(0, self.f(0).exp()),
            RtFunc::Log => self.set_f(0, self.f(0).ln()),
            RtFunc::Sin => self.set_f(0, self.f(0).sin()),
            RtFunc::Cos => self.set_f(0, self.f(0).cos()),
            RtFunc::Floor => self.set_f(0, self.f(0).floor()),
            RtFunc::Pow => self.set_f(0, self.f(0).powf(self.f(1))),
            RtFunc::Fmin => self.set_f(0, self.f(0).min(self.f(1))),
            RtFunc::Fmax => self.set_f(0, self.f(0).max(self.f(1))),
            RtFunc::FiSelInstr => {
                self.regs[0] = rt.sel_instr(imm) as u64;
            }
            RtFunc::FiSetupFi => {
                let (nops, sizes) = pack::setup_unpack(imm);
                let (op, bit) = rt.setup_fi(nops, &sizes[..nops as usize]);
                self.regs[0] = (op as u64) | (bit as u64) << 8;
            }
            RtFunc::LlfiInjectI => {
                let (site, bits) = pack::llfi_unpack(imm);
                self.regs[0] = rt.llfi_inject(site, self.regs[0], bits);
            }
            RtFunc::LlfiInjectF => {
                let (site, bits) = pack::llfi_unpack(imm);
                self.fregs[0] = rt.llfi_inject(site, self.fregs[0], bits);
            }
        }
    }
}

pub(crate) enum Step {
    Continue,
    Halt(i64),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary::Symbol;
    use crate::isa::Cc;
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

    fn run(b: &Binary) -> RunResult {
        Machine::run(b, &RunConfig::default(), &mut NoFi, None)
    }

    /// The shared-image contract the campaign engine relies on: a `Binary`
    /// crosses threads freely behind an `Arc`.
    #[test]
    fn binary_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Binary>();
        assert_send_sync::<std::sync::Arc<Binary>>();
    }

    /// Per-run state isolation: concurrent runs from one shared image are
    /// bit-identical to serial runs, even when runs mutate their private
    /// data segment — no trial can leak state into another.
    #[test]
    fn concurrent_runs_from_shared_image_match_serial() {
        // Each run increments global word 1 and returns its final value;
        // with a fresh data segment per run, every execution exits with 100.
        let image = std::sync::Arc::new(bin(vec![
            MInstr::MovRI { rd: 1, imm: GLOBAL_BASE as i64 },
            MInstr::MovRI { rd: 0, imm: 0 },
            // L2:
            MInstr::Ld { rd: 2, mem: Mem::base_disp(1, 8) },
            MInstr::AluI { op: AluOp::Add, rd: 2, ra: 2, imm: 1 },
            MInstr::St { rs: 2, mem: Mem::base_disp(1, 8) },
            MInstr::AluI { op: AluOp::Add, rd: 0, ra: 0, imm: 1 },
            MInstr::CmpI { ra: 0, imm: 100 },
            MInstr::Jcc { cc: Cc::Lt, target: 2 },
            MInstr::Ld { rd: 0, mem: Mem::base_disp(1, 8) },
            MInstr::Halt,
        ]));
        let serial = Machine::run(&image, &RunConfig::default(), &mut NoFi, None);
        assert_eq!(serial.outcome, RunOutcome::Exit(100));
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    let image = std::sync::Arc::clone(&image);
                    scope.spawn(move || {
                        (0..8)
                            .map(|_| {
                                Machine::run(&image, &RunConfig::default(), &mut NoFi, None)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for w in workers {
                for r in w.join().unwrap() {
                    assert_eq!(r.outcome, serial.outcome);
                    assert_eq!(r.cycles, serial.cycles);
                    assert_eq!(r.instrs_retired, serial.instrs_retired);
                }
            }
        });
        // The shared image itself is untouched.
        assert_eq!(image.data[1], 0);
    }

    #[test]
    fn halt_reports_exit_code() {
        let b = bin(vec![MInstr::MovRI { rd: 0, imm: 42 }, MInstr::Halt]);
        let r = run(&b);
        assert_eq!(r.outcome, RunOutcome::Exit(42));
        assert_eq!(r.instrs_retired, 1); // halt not counted as retired work
    }

    #[test]
    fn arithmetic_and_flags() {
        let b = bin(vec![
            MInstr::MovRI { rd: 1, imm: 5 },
            MInstr::MovRI { rd: 2, imm: 5 },
            MInstr::Alu { op: AluOp::Sub, rd: 3, ra: 1, rb: 2 },
            MInstr::SetCc { cc: Cc::E, rd: 0 },
            MInstr::Halt,
        ]);
        assert_eq!(run(&b).outcome, RunOutcome::Exit(1));
    }

    #[test]
    fn loop_with_branches() {
        // r0 = sum(1..=10) via cmp/jcc
        let b = bin(vec![
            MInstr::MovRI { rd: 0, imm: 0 },
            MInstr::MovRI { rd: 1, imm: 1 },
            // L2:
            MInstr::CmpI { ra: 1, imm: 10 },
            MInstr::Jcc { cc: Cc::Gt, target: 6 },
            MInstr::Alu { op: AluOp::Add, rd: 0, ra: 0, rb: 1 },
            MInstr::AluI { op: AluOp::Add, rd: 1, ra: 1, imm: 1 },
            MInstr::Jmp { target: 2 },
            MInstr::Halt,
        ]);
        // note: Jcc target 6 is the AluI? recompute: indices 0..7; target of
        // exit jcc must be 7 (halt) and loop jmp to 2.
        let mut b = b;
        b.text[3] = MInstr::Jcc { cc: Cc::Gt, target: 7 };
        b.text[6] = MInstr::Jmp { target: 2 };
        assert_eq!(run(&b).outcome, RunOutcome::Exit(55));
    }

    #[test]
    fn memory_and_globals() {
        let mut b = bin(vec![
            MInstr::MovRI { rd: 1, imm: GLOBAL_BASE as i64 },
            MInstr::Ld { rd: 0, mem: Mem::base_disp(1, 8) },
            MInstr::Halt,
        ]);
        b.data[1] = 99;
        assert_eq!(run(&b).outcome, RunOutcome::Exit(99));
    }

    #[test]
    fn scaled_index_addressing() {
        let mut b = bin(vec![
            MInstr::MovRI { rd: 1, imm: GLOBAL_BASE as i64 },
            MInstr::MovRI { rd: 2, imm: 3 },
            MInstr::Ld { rd: 0, mem: Mem { base: Some(1), index: Some((2, 8)), disp: 0 } },
            MInstr::Halt,
        ]);
        b.data[3] = 77;
        assert_eq!(run(&b).outcome, RunOutcome::Exit(77));
    }

    #[test]
    fn push_pop_and_call_ret() {
        let b = bin(vec![
            MInstr::Call { target: 3 },
            MInstr::MovRR { rd: 0, ra: 1 },
            MInstr::Halt,
            // callee:
            MInstr::MovRI { rd: 1, imm: 123 },
            MInstr::Ret,
        ]);
        assert_eq!(run(&b).outcome, RunOutcome::Exit(123));
    }

    #[test]
    fn segfault_on_wild_pointer() {
        let b = bin(vec![
            MInstr::MovRI { rd: 1, imm: 0x100 },
            MInstr::Ld { rd: 0, mem: Mem::base_disp(1, 0) },
            MInstr::Halt,
        ]);
        assert_eq!(run(&b).outcome, RunOutcome::Trap(Trap::Segfault(0x100)));
    }

    #[test]
    fn misaligned_access_traps() {
        let b = bin(vec![
            MInstr::MovRI { rd: 1, imm: GLOBAL_BASE as i64 + 4 },
            MInstr::Ld { rd: 0, mem: Mem::base_disp(1, 0) },
            MInstr::Halt,
        ]);
        assert!(matches!(run(&b).outcome, RunOutcome::Trap(Trap::Misaligned(_))));
    }

    #[test]
    fn div_fault() {
        let b = bin(vec![
            MInstr::MovRI { rd: 1, imm: 1 },
            MInstr::MovRI { rd: 2, imm: 0 },
            MInstr::Alu { op: AluOp::Div, rd: 0, ra: 1, rb: 2 },
            MInstr::Halt,
        ]);
        assert_eq!(run(&b).outcome, RunOutcome::Trap(Trap::DivFault));
    }

    #[test]
    fn corrupted_return_address_traps() {
        let b = bin(vec![
            MInstr::MovRI { rd: 1, imm: 0xdead_0000 },
            MInstr::Push { rs: 1 },
            MInstr::Ret,
        ]);
        assert_eq!(run(&b).outcome, RunOutcome::Trap(Trap::BadPc(0xdead_0000)));
    }

    #[test]
    fn ret_to_one_past_end_traps() {
        // ra == text.len() is out of bounds: the pc rule is strict (`>=`).
        let b = bin(vec![
            MInstr::MovRI { rd: 1, imm: 3 },
            MInstr::Push { rs: 1 },
            MInstr::Ret,
        ]);
        assert_eq!(run(&b).outcome, RunOutcome::Trap(Trap::BadPc(3)));
    }

    #[test]
    fn fallthrough_past_end_traps() {
        // Falling through the last instruction lands on pc == text.len(),
        // which traps under the same strict rule as control transfers.
        let b = bin(vec![MInstr::MovRI { rd: 0, imm: 7 }, MInstr::Nop]);
        assert_eq!(run(&b).outcome, RunOutcome::Trap(Trap::BadPc(2)));
    }

    #[test]
    fn timeout_on_infinite_loop() {
        let b = bin(vec![MInstr::Jmp { target: 0 }]);
        let r = Machine::run(&b, &RunConfig { max_cycles: 1000, stack_words: 64 }, &mut NoFi, None);
        assert_eq!(r.outcome, RunOutcome::Timeout);
    }

    #[test]
    fn float_pipeline() {
        let b = bin(vec![
            MInstr::FMovRI { fd: 1, imm: 2.0f64.to_bits() },
            MInstr::FMovRI { fd: 2, imm: 8.0f64.to_bits() },
            MInstr::FAlu { op: FAluOp::Mul, fd: 0, fa: 1, fb: 2 },
            MInstr::CallRt { func: RtFunc::Sqrt, imm: 0 },
            MInstr::Cvt { kind: CvtKind::FToSi, dst: 0, src: 0 },
            MInstr::Halt,
        ]);
        assert_eq!(run(&b).outcome, RunOutcome::Exit(4));
    }

    #[test]
    fn fcmp_nan_unordered() {
        let b = bin(vec![
            MInstr::FMovRI { fd: 1, imm: f64::NAN.to_bits() },
            MInstr::FMovRI { fd: 2, imm: 1.0f64.to_bits() },
            MInstr::FCmp { fa: 1, fb: 2 },
            MInstr::SetCc { cc: Cc::Gt, rd: 0 },
            MInstr::Halt,
        ]);
        assert_eq!(run(&b).outcome, RunOutcome::Exit(0));
    }

    #[test]
    fn output_events_recorded() {
        let b = bin(vec![
            MInstr::CallRt { func: RtFunc::PrintStr, imm: 0 },
            MInstr::MovRI { rd: 0, imm: 5 },
            MInstr::CallRt { func: RtFunc::PrintI64, imm: 0 },
            MInstr::MovRI { rd: 0, imm: 0 },
            MInstr::Halt,
        ]);
        let r = run(&b);
        assert_eq!(
            r.output,
            vec![OutEvent::Str("hello".into()), OutEvent::I64(5)]
        );
    }

    #[test]
    fn flip_changes_register_bit() {
        let b = bin(vec![MInstr::Halt]);
        let mut m = Machine::new(&b, &RunConfig::default());
        m.regs[3] = 0b100;
        m.flip(Reg::G(3), 2);
        assert_eq!(m.regs[3], 0);
        m.flip(Reg::Flags, 1);
        assert_eq!(m.flags, 0b10);
        m.flip(Reg::F(1), 63);
        assert_eq!(f64::from_bits(m.fregs[1]), -0.0);
    }

    /// Every FLAGS writer keeps the four architectural bits, so a fused
    /// REFINE site skip needs no mask after its stores.
    #[test]
    fn every_flags_writer_keeps_four_bits() {
        let b = bin(vec![MInstr::WrFlags { rs: 1 }, MInstr::Halt]);
        let mut m = Machine::new(&b, &RunConfig::default());
        let mut seen = Vec::new();
        let ints = [i64::MIN, -1, 0, 1, i64::MAX];
        for (&a, &c) in ints.iter().flat_map(|a| ints.iter().map(move |c| (a, c))) {
            for op in [AluOp::Add, AluOp::Sub, AluOp::Mul, AluOp::And, AluOp::Shl] {
                let _ = m.alu(op, a, c);
                seen.push(m.flags);
            }
            m.cmp_flags(a, c);
            seen.push(m.flags);
        }
        let floats = [f64::NAN, f64::NEG_INFINITY, -1.0, 0.0, 1.0];
        for (&x, &y) in floats.iter().flat_map(|x| floats.iter().map(move |y| (x, y))) {
            m.fcmp_flags(x, y);
            seen.push(m.flags);
        }
        m.regs[1] = u64::MAX;
        assert!(matches!(m.step(&b.text[0], &mut NoFi), Ok(Step::Continue)));
        assert_eq!(m.flags, 0xf, "wrflags of all ones");
        for bit in 0..64 {
            m.flip(Reg::Flags, bit);
            seen.push(m.flags);
            m.xor_mask(Reg::Flags, 1 << bit);
            seen.push(m.flags);
        }
        m.xor_mask(Reg::Flags, u64::MAX);
        seen.push(m.flags);
        let ck = m.snapshot(0);
        seen.push(Machine::resume(&b, &RunConfig::default(), &ck).flags);
        assert!(seen.iter().all(|&f| f <= 0xf), "{seen:?}");
    }

    /// Loads and stores at every segment edge and one misaligned address
    /// in each segment give these exact results: 8 data words from
    /// 0x1_0000 and a 64-word stack from 0x7fff_fe00.
    #[test]
    fn memory_access_edges() {
        let b = bin(vec![MInstr::Halt]);
        let mut m = Machine::new(&b, &RunConfig { max_cycles: 1, stack_words: 64 });
        let cases = [
            (0xfff8, Err(Trap::Segfault(0xfff8))),
            (0x1_0000, Ok(())),
            (0x1_0038, Ok(())),
            (0x1_0040, Err(Trap::Segfault(0x1_0040))),
            (0x7fff_fdf8, Err(Trap::Segfault(0x7fff_fdf8))),
            (0x7fff_fe00, Ok(())),
            (0x7fff_fff8, Ok(())),
            (0x8000_0000, Err(Trap::Segfault(0x8000_0000))),
            (0xffff_ffff_ffff_fff8, Err(Trap::Segfault(0xffff_ffff_ffff_fff8))),
            (0x1_0004, Err(Trap::Misaligned(0x1_0004))),
            (0x7fff_fe04, Err(Trap::Misaligned(0x7fff_fe04))),
        ];
        for (addr, want) in cases {
            assert_eq!(m.mem_write(addr, addr), want, "store at {addr:#x}");
            assert_eq!(m.mem_read(addr), want.map(|()| addr), "load at {addr:#x}");
        }
        // The four stores landed in their own words and nowhere else.
        assert_eq!((m.data[0], m.data[7]), (0x1_0000, 0x1_0038));
        assert_eq!((m.stack[0], m.stack[63]), (0x7fff_fe00, 0x7fff_fff8));
        let written = m.data.iter().chain(&m.stack).filter(|&&w| w != 0).count();
        assert_eq!(written, 4);
        assert_eq!(m.stack_lo, 0);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_segments_are_refused() {
        // 8 data words end at 0x1_0040; a stack reaching one word lower
        // overlaps them. The check comes before any stack is allocated.
        let b = bin(vec![MInstr::Halt]);
        let stack_words = ((STACK_TOP - 0x1_0040) / 8) as usize + 1;
        Machine::new(&b, &RunConfig { max_cycles: 1, stack_words });
    }

    /// After a run that pushed through a corrupted `sp` down to stack word
    /// 0, the same thread's next machines reuse its stack: a new one
    /// all zero, a resumed one zero except its checkpoint's pages.
    #[test]
    fn recycled_stack_starts_zeroed() {
        let cfg = RunConfig { max_cycles: 1000, stack_words: 4 * PAGE_WORDS };
        let base = STACK_TOP - 8 * cfg.stack_words as u64;
        // The call writes the top word; then `sp` is corrupted to two
        // words above the base and pushed until it leaves the stack.
        let b = bin(vec![
            MInstr::Call { target: 2 },
            MInstr::Halt,
            MInstr::MovRI { rd: SP, imm: (base + 16) as i64 },
            MInstr::MovRI { rd: 1, imm: 7 },
            MInstr::Push { rs: 1 },
            MInstr::Push { rs: 1 },
            MInstr::Push { rs: 1 },
            MInstr::Halt,
        ]);
        let deep = || {
            let mut m = Machine::new(&b, &cfg);
            let out = m.exec_loop(cfg.max_cycles, &mut NoFi, None, None, false).unwrap();
            assert_eq!(out, RunOutcome::Trap(Trap::Segfault(base - 8)));
            assert_eq!((m.stack_lo, m.stack[0], m.stack[cfg.stack_words - 1]), (0, 7, 1));
            let stack = m.stack.as_ptr();
            m.into_result(out);
            stack
        };
        let stack = deep();
        let fresh = Machine::new(&b, &cfg);
        assert_eq!(fresh.stack.as_ptr(), stack, "the same stack, recycled");
        assert!(fresh.stack.iter().all(|&w| w == 0));
        assert_eq!(fresh.stack_lo, cfg.stack_words);
        fresh.into_result(RunOutcome::Exit(0));

        let mut g = Machine::new(&b, &cfg);
        g.mem_write(base + 8 * (2 * PAGE_WORDS + 5) as u64, 9).unwrap();
        let ck = g.snapshot(0);
        g.into_result(RunOutcome::Exit(0));
        let stack = deep();
        let resumed = Machine::resume(&b, &cfg, &ck);
        assert_eq!(resumed.stack.as_ptr(), stack, "the same stack, recycled");
        let mut want = vec![0; cfg.stack_words];
        apply_pages(&ck.stack_pages, &mut want);
        assert_eq!(resumed.stack, want);
        assert_eq!(resumed.stack_lo, 2 * PAGE_WORDS);
    }

    /// Probe injection: flip the destination of a mov right after it
    /// retires, and observe the changed exit code.
    #[test]
    fn probe_injects_after_instruction() {
        struct OneShot;
        impl Probe for OneShot {
            fn before(&mut self, _pc: u32, instr: &MInstr, _n: u64) -> ProbeAction {
                if matches!(instr, MInstr::MovRI { rd: 0, .. }) {
                    ProbeAction::InjectAfter { op: 0, bit: 1, detach: true }
                } else {
                    ProbeAction::Continue
                }
            }
        }
        let b = bin(vec![MInstr::MovRI { rd: 0, imm: 0 }, MInstr::Halt]);
        let r = Machine::run(&b, &RunConfig::default(), &mut NoFi, Some(&mut OneShot));
        assert_eq!(r.outcome, RunOutcome::Exit(2));
    }

    /// Probe overhead counts cycles while attached and stops after an
    /// injection that detaches. The flipped `r1` is overwritten before it
    /// is read, so only the cycles differ.
    #[test]
    fn probe_overhead_and_detach() {
        struct DetachAt(u64);
        impl Probe for DetachAt {
            fn before(&mut self, _pc: u32, _i: &MInstr, n: u64) -> ProbeAction {
                if n >= self.0 {
                    ProbeAction::InjectAfter { op: 0, bit: 0, detach: true }
                } else {
                    ProbeAction::Continue
                }
            }
            fn overhead_cycles(&self) -> u64 {
                100
            }
        }
        let text = vec![
            MInstr::MovRI { rd: 1, imm: 1 },
            MInstr::MovRI { rd: 1, imm: 2 },
            MInstr::MovRI { rd: 1, imm: 3 },
            MInstr::MovRI { rd: 0, imm: 0 },
            MInstr::Halt,
        ];
        let b = bin(text);
        let attached = Machine::run(&b, &RunConfig::default(), &mut NoFi, Some(&mut DetachAt(u64::MAX)));
        let early = Machine::run(&b, &RunConfig::default(), &mut NoFi, Some(&mut DetachAt(1)));
        let native = Machine::run(&b, &RunConfig::default(), &mut NoFi, None);
        assert!(attached.cycles > early.cycles);
        assert!(early.cycles > native.cycles);
        assert_eq!(early.outcome, native.outcome);
    }
}
