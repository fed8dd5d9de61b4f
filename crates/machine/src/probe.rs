//! Dynamic binary instrumentation: the PIN analogue.
//!
//! A [`Probe`] registered with the machine is consulted before every
//! executed instruction and may request a single-bit flip of one of the
//! instruction's *output* registers after it retires — this is exactly how
//! PINFI operates. Each consulted instruction costs
//! [`Probe::overhead_cycles`] extra cycles (PIN's JIT + analysis-routine
//! overhead); after [`ProbeAction::Detach`] the program runs at native
//! speed, modelling the authors' detach optimization (§5.2).

use crate::isa::MInstr;

/// What the probe wants done for the instruction about to execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeAction {
    /// Execute normally; keep probing.
    Continue,
    /// Execute the instruction, then flip bit `bit` of its `op`-th output
    /// operand (as listed by [`crate::isa::fi_outputs`]); optionally detach.
    InjectAfter {
        /// Index into the instruction's output-operand list.
        op: usize,
        /// Bit to flip within that operand.
        bit: u32,
        /// Remove instrumentation afterwards.
        detach: bool,
    },
    /// Remove instrumentation; run natively from here on.
    Detach,
    /// Execute `instr` in place of the fetched instruction (opcode
    /// corruption that still decodes); optionally detach afterwards.
    Substitute {
        /// The instruction to execute instead.
        instr: MInstr,
        /// Remove instrumentation afterwards.
        detach: bool,
    },
    /// The fetched instruction's encoding was corrupted into an
    /// undecodable word: raise an illegal-instruction trap (`#UD`).
    IllegalInstr,
    /// Execute the instruction, then XOR output operand `op` with `mask`
    /// (multi-bit spatial upsets); optionally detach.
    InjectMaskAfter {
        /// Index into the instruction's output-operand list.
        op: usize,
        /// Bit mask to XOR into the operand.
        mask: u64,
        /// Remove instrumentation afterwards.
        detach: bool,
    },
}

/// A dynamic instrumentation client.
pub trait Probe {
    /// Called before each instruction while attached. `retired` is the
    /// number of instructions executed so far.
    fn before(&mut self, pc: u32, instr: &MInstr, retired: u64) -> ProbeAction;

    /// Per-instruction overhead in cycles while attached.
    fn overhead_cycles(&self) -> u64 {
        10
    }

    /// Number of FI population events this probe has counted so far.
    /// A fused trial continues its post-fire suffix from this value;
    /// probes that keep no counter report 0.
    fn fi_count(&self) -> u64 {
        0
    }

    /// Has this probe injected its fault yet? Drives the fired-fault
    /// handoff of [`crate::Machine::run_exact_until_fired`]; probes that
    /// never inject report `false`.
    fn fired(&self) -> bool {
        false
    }
}

/// A probe that merely counts instructions matching a predicate — the
/// profiling phase of a binary-level FI campaign.
pub struct CountingProbe<F: FnMut(&MInstr) -> bool> {
    /// Number of matching dynamic instructions seen.
    pub count: u64,
    pred: F,
}

impl<F: FnMut(&MInstr) -> bool> CountingProbe<F> {
    /// New counting probe with the given match predicate.
    pub fn new(pred: F) -> Self {
        CountingProbe { count: 0, pred }
    }
}

impl<F: FnMut(&MInstr) -> bool> Probe for CountingProbe<F> {
    fn before(&mut self, _pc: u32, instr: &MInstr, _retired: u64) -> ProbeAction {
        if (self.pred)(instr) {
            self.count += 1;
        }
        ProbeAction::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{AluOp, MInstr};

    #[test]
    fn counting_probe_counts_matches() {
        let mut p = CountingProbe::new(|i| matches!(i, MInstr::Alu { .. }));
        let alu = MInstr::Alu { op: AluOp::Add, rd: 0, ra: 0, rb: 1 };
        let nop = MInstr::Nop;
        assert_eq!(p.before(0, &alu, 0), ProbeAction::Continue);
        assert_eq!(p.before(1, &nop, 1), ProbeAction::Continue);
        assert_eq!(p.before(2, &alu, 2), ProbeAction::Continue);
        assert_eq!(p.count, 2);
    }
}
