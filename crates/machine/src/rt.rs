//! The fault-injection control library interface.
//!
//! This is the Rust rendering of the paper's "user-provided library" (§4.2.4):
//! two entry points, `selInstr` and `setupFI`, called from instrumented code,
//! plus the LLFI-style `injectFault` used by the IR-level baseline. Concrete
//! implementations (profiling counters, single-bit-flip injectors) live in
//! `refine-core` and `refine-llfi`; the machine only dispatches.

/// Runtime control of fault injection, invoked by instrumented binaries.
pub trait FiRuntime {
    /// REFINE PreFI hook: called after each instrumented instruction
    /// executes; return `true` to trigger fault injection at this dynamic
    /// instruction.
    fn sel_instr(&mut self, site: u64) -> bool;

    /// REFINE SetupFI hook: given the instrumented instruction's output
    /// operand count and their bit sizes, choose `(operand, bit)` to flip.
    fn setup_fi(&mut self, nops: u32, sizes: &[u32]) -> (u32, u32);

    /// LLFI hook: possibly flip a bit of `value` (an IR result of width
    /// `bits`), counting this dynamic IR instruction. Returns the value to
    /// substitute.
    fn llfi_inject(&mut self, site: u64, value: u64, bits: u32) -> u64;

    /// Number of FI population events this runtime has counted so far.
    /// Checkpointed profiling stamps snapshots with this value; runtimes
    /// that keep no counter report 0.
    fn fi_count(&self) -> u64 {
        0
    }

    /// Has this runtime injected its fault yet? Drives the fired-fault
    /// handoff of [`crate::Machine::run_exact_until_fired`]; runtimes that
    /// never fire report `false`.
    fn fired(&self) -> bool {
        false
    }
}

/// A no-op runtime for running uninstrumented binaries.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoFi;

impl FiRuntime for NoFi {
    fn sel_instr(&mut self, _site: u64) -> bool {
        false
    }

    fn setup_fi(&mut self, _nops: u32, _sizes: &[u32]) -> (u32, u32) {
        (0, 0)
    }

    fn llfi_inject(&mut self, _site: u64, value: u64, _bits: u32) -> u64 {
        value
    }
}

/// Packing helpers for the `setupFI` immediate: REFINE's backend pass knows
/// the operand count and bit sizes statically, so it encodes them into the
/// `CallRt` immediate — `nops | size0 << 8 | size1 << 16 | ...`.
pub mod pack {
    /// Pack up to 4 operand sizes with the count.
    pub fn setup_imm(sizes: &[u32]) -> u64 {
        assert!(sizes.len() <= 4, "at most 4 FI operands per instruction");
        let mut imm = sizes.len() as u64;
        for (i, s) in sizes.iter().enumerate() {
            assert!(*s <= 64);
            imm |= (*s as u64) << (8 * (i + 1));
        }
        imm
    }

    /// Unpack `(nops, sizes)` from a `setupFI` immediate.
    pub fn setup_unpack(imm: u64) -> (u32, [u32; 4]) {
        let nops = (imm & 0xff) as u32;
        let mut sizes = [0u32; 4];
        for (i, s) in sizes.iter_mut().enumerate() {
            *s = ((imm >> (8 * (i + 1))) & 0xff) as u32;
        }
        (nops, sizes)
    }

    /// Pack an LLFI site id and value width.
    pub fn llfi_imm(site: u64, bits: u32) -> u64 {
        assert!(site < (1 << 48));
        site | (bits as u64) << 48
    }

    /// Unpack an LLFI immediate to `(site, bits)`.
    pub fn llfi_unpack(imm: u64) -> (u64, u32) {
        (imm & ((1 << 48) - 1), (imm >> 48) as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nofi_never_triggers() {
        let mut rt = NoFi;
        assert!(!rt.sel_instr(0));
        assert_eq!(rt.llfi_inject(1, 42, 64), 42);
    }

    #[test]
    fn setup_imm_roundtrip() {
        let imm = pack::setup_imm(&[64, 4]);
        let (n, sizes) = pack::setup_unpack(imm);
        assert_eq!(n, 2);
        assert_eq!(&sizes[..2], &[64, 4]);
    }

    #[test]
    fn llfi_imm_roundtrip() {
        let imm = pack::llfi_imm(123_456, 64);
        assert_eq!(pack::llfi_unpack(imm), (123_456, 64));
        let imm = pack::llfi_imm(7, 1);
        assert_eq!(pack::llfi_unpack(imm), (7, 1));
    }
}
