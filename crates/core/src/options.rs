//! The compiler-flag interface of REFINE (the paper's Table 2) and the
//! `-fi-funcs` pattern matcher.

use refine_machine::{fi_outputs, MInstr};

/// The `-fi-instrs` instruction-class filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InstrClass {
    /// `stack`: push/pop and sp/fp-writing instructions.
    Stack,
    /// `arithm`: integer/float ALU, compares, conversions.
    Arith,
    /// `mem`: explicit loads and stores.
    Mem,
    /// `all`: every instruction with at least one output register.
    #[default]
    All,
}

impl InstrClass {
    /// Parse a `-fi-instrs` argument.
    pub fn parse(s: &str) -> Option<InstrClass> {
        Some(match s {
            "stack" => InstrClass::Stack,
            "arithm" => InstrClass::Arith,
            "mem" => InstrClass::Mem,
            "all" => InstrClass::All,
            _ => return None,
        })
    }

    /// Is `i` an FI target under this class filter? (It must additionally
    /// have at least one output register — the fault model injects into
    /// destination registers.)
    pub fn matches(self, i: &MInstr) -> bool {
        if fi_outputs(i).is_empty() {
            return false;
        }
        match self {
            InstrClass::Stack => i.is_stack_class(),
            InstrClass::Arith => i.is_arith_class(),
            InstrClass::Mem => i.is_mem_class(),
            InstrClass::All => true,
        }
    }
}

/// The REFINE flag set (`-mllvm -fi=true -mllvm -fi-funcs=* -fi-instrs=all`
/// in the paper's workflow).
#[derive(Debug, Clone)]
pub struct FiOptions {
    /// `-fi`: master enable.
    pub fi: bool,
    /// `-fi-funcs`: comma-separated function names or `*` globs.
    pub fi_funcs: String,
    /// `-fi-instrs`: instruction-class filter.
    pub fi_instrs: InstrClass,
}

impl Default for FiOptions {
    fn default() -> Self {
        FiOptions { fi: false, fi_funcs: "*".into(), fi_instrs: InstrClass::All }
    }
}

impl FiOptions {
    /// The configuration used throughout the paper's evaluation:
    /// `-fi=true -fi-funcs=* -fi-instrs=all`.
    pub fn all() -> Self {
        FiOptions { fi: true, ..Default::default() }
    }

    /// Parse a flag string like
    /// `-fi=true -fi-funcs=compute_*,main -fi-instrs=arithm`.
    pub fn parse_flags(s: &str) -> Result<FiOptions, String> {
        let mut o = FiOptions::default();
        for tok in s.split_whitespace() {
            let tok = tok.trim_start_matches("-mllvm").trim();
            if tok.is_empty() {
                continue;
            }
            let Some((k, v)) = tok.trim_start_matches('-').split_once('=') else {
                return Err(format!("malformed flag `{tok}`"));
            };
            match k {
                "fi" => {
                    o.fi = match v {
                        "true" => true,
                        "false" => false,
                        _ => return Err(format!("bad -fi value `{v}`")),
                    }
                }
                "fi-funcs" => o.fi_funcs = v.to_string(),
                "fi-instrs" => {
                    o.fi_instrs = InstrClass::parse(v)
                        .ok_or_else(|| format!("bad -fi-instrs value `{v}`"))?
                }
                other => return Err(format!("unknown flag `-{other}`")),
            }
        }
        Ok(o)
    }

    /// Does the `-fi-funcs` filter select function `name`?
    pub fn func_selected(&self, name: &str) -> bool {
        self.fi_funcs.split(',').any(|pat| glob_match(pat.trim(), name))
    }
}

/// Golden-run checkpointing knobs for trial fast-forward.
///
/// Checkpoints never change observable trial behavior (outcomes, fault
/// logs, cycles, output are bit-identical with checkpointing on or off),
/// only per-trial wall-clock cost. The snapshot cap is fixed at
/// [`refine_machine::CheckpointConfig::default`]'s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointOptions {
    /// Capture checkpoints during profiling and fast-forward trials from
    /// them (`--no-checkpoint` clears this).
    pub enabled: bool,
    /// Initial snapshot interval in retired instructions
    /// (`--checkpoint-interval`; must be nonzero).
    pub interval: u64,
    /// Detect post-injection golden convergence at checkpoint boundaries
    /// and splice the golden outcome (`--no-convergence` clears this).
    /// Requires `enabled`; ignored without checkpoints.
    pub convergence: bool,
}

impl Default for CheckpointOptions {
    fn default() -> Self {
        CheckpointOptions {
            enabled: true,
            interval: refine_machine::CheckpointConfig::default().interval,
            convergence: true,
        }
    }
}

impl CheckpointOptions {
    /// Checkpointing off — the escape hatch and the differential baseline.
    /// Convergence detection is off too (it rides on checkpoints).
    pub fn disabled() -> Self {
        CheckpointOptions { enabled: false, convergence: false, ..Self::default() }
    }

    /// The machine-layer capture configuration: this interval under the
    /// default snapshot cap. The convergence-exempt scratch range is a
    /// property of the instrumented binary, not of the campaign options —
    /// callers overlay [`crate::Compiled::convergence_exempt_words`] on the
    /// returned config.
    pub fn machine_config(&self) -> refine_machine::CheckpointConfig {
        refine_machine::CheckpointConfig {
            interval: self.interval,
            ..refine_machine::CheckpointConfig::default()
        }
    }
}

/// Which trial execution engine the machine interpreter uses.
///
/// Both engines are bit-identical in every observable (outcomes, fault
/// logs, cycles, retired counts, output, traces) — the choice only changes
/// wall-clock cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecEngine {
    /// Checkpoint restore, then superblock-fused direct-threaded dispatch
    /// with exact-step fallback at FI windows and snapshot boundaries, and
    /// convergence splicing when enabled (the default).
    #[default]
    Superblock,
    /// The exact oracle (`--engine step`): every trial interpreted per
    /// instruction from the initial state, with no checkpoint restore, no
    /// fusion and no convergence splice, whatever the checkpoint options
    /// say. The reference the fused engine is differentially tested
    /// against.
    Step,
}

impl ExecEngine {
    /// Parse a `--engine` flag value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "superblock" => Some(ExecEngine::Superblock),
            "step" => Some(ExecEngine::Step),
            _ => None,
        }
    }

    /// Stable flag-value name.
    pub fn name(&self) -> &'static str {
        match self {
            ExecEngine::Superblock => "superblock",
            ExecEngine::Step => "step",
        }
    }
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a over `bytes` from the standard offset basis, after one round of
/// a `0x00` byte: every trial-stream salt and committed digest depends on
/// that leading round.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET.wrapping_mul(FNV_PRIME);
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Minimal glob matcher: `*` matches any (possibly empty) substring.
pub fn glob_match(pat: &str, s: &str) -> bool {
    fn inner(p: &[u8], s: &[u8]) -> bool {
        match (p.first(), s.first()) {
            (None, None) => true,
            (Some(b'*'), _) => inner(&p[1..], s) || (!s.is_empty() && inner(p, &s[1..])),
            (Some(c), Some(d)) if c == d => inner(&p[1..], &s[1..]),
            _ => false,
        }
    }
    inner(pat.as_bytes(), s.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use refine_machine::{AluOp, Mem};

    #[test]
    fn glob_matching() {
        assert!(glob_match("*", "anything"));
        assert!(glob_match("compute_*", "compute_residual"));
        assert!(!glob_match("compute_*", "main"));
        assert!(glob_match("*force*", "eam_force_kernel"));
        assert!(glob_match("main", "main"));
        assert!(!glob_match("main", "domain"));
        assert!(glob_match("", ""));
        assert!(!glob_match("", "x"));
    }

    #[test]
    fn parse_paper_flag_string() {
        let o = FiOptions::parse_flags("-fi=true -fi-funcs=* -fi-instrs=all").unwrap();
        assert!(o.fi);
        assert!(o.func_selected("anything"));
        assert_eq!(o.fi_instrs, InstrClass::All);
    }

    #[test]
    fn parse_selective_flags() {
        let o = FiOptions::parse_flags("-fi=true -fi-funcs=cg_*,main -fi-instrs=arithm").unwrap();
        assert!(o.func_selected("cg_solve"));
        assert!(o.func_selected("main"));
        assert!(!o.func_selected("setup"));
        assert_eq!(o.fi_instrs, InstrClass::Arith);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FiOptions::parse_flags("-fi=maybe").is_err());
        assert!(FiOptions::parse_flags("-fi-instrs=everything").is_err());
        assert!(FiOptions::parse_flags("-unknown=1").is_err());
    }

    #[test]
    fn class_filters() {
        let push = MInstr::Push { rs: 3 };
        let fadd = MInstr::FAlu { op: refine_machine::FAluOp::Add, fd: 0, fa: 1, fb: 2 };
        let ld = MInstr::Ld { rd: 1, mem: Mem::abs(0x10000) };
        let st = MInstr::St { rs: 1, mem: Mem::abs(0x10000) };
        let jmp = MInstr::Jmp { target: 0 };
        assert!(InstrClass::Stack.matches(&push));
        assert!(!InstrClass::Stack.matches(&fadd));
        assert!(InstrClass::Arith.matches(&fadd));
        assert!(InstrClass::Mem.matches(&ld));
        // Stores have no destination register: never targets.
        assert!(!InstrClass::Mem.matches(&st));
        assert!(InstrClass::All.matches(&push) && InstrClass::All.matches(&ld));
        assert!(!InstrClass::All.matches(&jmp));
        let alu = MInstr::Alu { op: AluOp::Add, rd: 2, ra: 2, rb: 3 };
        assert!(InstrClass::Arith.matches(&alu) && !InstrClass::Mem.matches(&alu));
    }
}
