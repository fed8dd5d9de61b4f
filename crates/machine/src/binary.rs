//! The linked program artifact: text, data, symbols, strings.

use crate::encode::{decode, encode, DecodeError};
use crate::isa::MInstr;

/// A symbol-table entry: function name and its entry instruction index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Symbol {
    /// Function name (retains the source-level name: this is the property
    /// that lets compiler-based FI correlate faults with code structure).
    pub name: String,
    /// First instruction index of the function in the text section.
    pub entry: u32,
    /// One-past-the-end instruction index.
    pub end: u32,
}

/// A complete linked binary for the M64 machine.
///
/// # Shared-image contract
///
/// A `Binary` is an **immutable compiled image**: [`crate::Machine::run`]
/// only ever borrows it, copying the mutable segments (`data` becomes the
/// run's private data segment, the stack is allocated fresh) into per-run
/// [`crate::ArchState`]. Campaign engines therefore share one
/// `Arc<Binary>` across every worker thread and every trial — thousands of
/// concurrent fault-injection runs read the same image with no
/// synchronization, and no trial can observe another trial's corruption.
#[derive(Debug, Clone, Default)]
pub struct Binary {
    /// Decoded text section.
    pub text: Vec<MInstr>,
    /// Initial contents of the data segment (8-byte words).
    pub data: Vec<u64>,
    /// Function symbol table.
    pub symbols: Vec<Symbol>,
    /// Interned string literals referenced by `print_str`.
    pub strings: Vec<String>,
    /// Entry instruction index (start of `main`'s startup shim).
    pub entry: u32,
}

impl Binary {
    /// Serialize the text section to raw instruction words (the byte-level
    /// artifact a binary FI tool would patch).
    pub fn encode_text(&self) -> Vec<u64> {
        let mut words = Vec::with_capacity(self.text.len() * 2);
        for i in &self.text {
            let (w0, w1) = encode(i);
            words.push(w0);
            words.push(w1);
        }
        words
    }

    /// Rebuild a text section from raw words.
    pub fn decode_text(words: &[u64]) -> Result<Vec<MInstr>, DecodeError> {
        if !words.len().is_multiple_of(2) {
            return Err(DecodeError("odd word count".into()));
        }
        words
            .chunks_exact(2)
            .map(|c| decode(c[0], c[1]))
            .collect()
    }

    /// The function symbol containing instruction index `pc`, if any.
    pub fn symbol_at(&self, pc: u32) -> Option<&Symbol> {
        self.symbols.iter().find(|s| pc >= s.entry && pc < s.end)
    }

    /// Disassemble a function by name (used for the paper's listings).
    pub fn disasm(&self, func: &str) -> Option<String> {
        let sym = self.symbols.iter().find(|s| s.name == func)?;
        let mut out = format!("_{}:\n", sym.name);
        for idx in sym.entry..sym.end {
            out.push_str(&format!(
                "  .L{idx}: {}\n",
                self.text[idx as usize].asm()
            ));
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{AluOp, Mem};

    fn tiny() -> Binary {
        Binary {
            text: vec![
                MInstr::MovRI { rd: 0, imm: 7 },
                MInstr::AluI { op: AluOp::Add, rd: 0, ra: 0, imm: 1 },
                MInstr::Halt,
                MInstr::Ld { rd: 1, mem: Mem::abs(0x10000) },
                MInstr::Ret,
            ],
            data: vec![42],
            symbols: vec![
                Symbol { name: "main".into(), entry: 0, end: 3 },
                Symbol { name: "helper".into(), entry: 3, end: 5 },
            ],
            strings: vec!["hi".into()],
            entry: 0,
        }
    }

    #[test]
    fn text_roundtrip() {
        let b = tiny();
        let words = b.encode_text();
        assert_eq!(words.len(), b.text.len() * 2);
        let back = Binary::decode_text(&words).unwrap();
        assert_eq!(back, b.text);
    }

    #[test]
    fn symbol_lookup() {
        let b = tiny();
        assert_eq!(b.symbol_at(1).unwrap().name, "main");
        assert_eq!(b.symbol_at(4).unwrap().name, "helper");
        assert!(b.symbol_at(99).is_none());
    }

    #[test]
    fn disasm_contains_mnemonics() {
        let b = tiny();
        let d = b.disasm("main").unwrap();
        assert!(d.contains("_main:"));
        assert!(d.contains("mov r0, 7"));
        assert!(d.contains("halt"));
        assert!(b.disasm("nope").is_none());
    }
}
