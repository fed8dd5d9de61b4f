#![warn(missing_docs)]

//! `refine-machine` — the simulated target machine of the REFINE
//! reproduction ("M64").
//!
//! This crate plays the role the Intel Xeon E5-2670 plays in the paper: the
//! place where architectural state actually lives, where single-bit upsets
//! have machine-level consequences (wild pointers, corrupted stack pointers,
//! flipped condition flags) and where execution time is accounted.
//!
//! The machine is a 64-bit register machine with an x64-flavoured ABI:
//!
//! * 16 general-purpose registers (`r15` = stack pointer, `r14` = frame
//!   pointer), 16 floating-point registers, and a 4-bit FLAGS register
//!   written by integer ALU operations and comparisons — so most arithmetic
//!   instructions have *two* output operands, exactly the property REFINE's
//!   `setupFI(nOps, size[nOps])` interface exists for;
//! * a fixed-width (16-byte) binary instruction encoding with
//!   encode/decode round-tripping ([`encode`]), so binary-level tooling has
//!   real bytes to work on;
//! * segment-checked memory (globals + downward-growing stack), with traps
//!   for unmapped or misaligned accesses, divide faults, bad program
//!   counters and stack overflow;
//! * a per-instruction cycle cost model used for the paper's
//!   "experimentation time" comparison (Figure 5);
//! * a dynamic-binary-instrumentation [`probe`] interface (the PIN analogue)
//!   with per-instruction overhead and a `detach` operation;
//! * a runtime-call interface ([`rt`]) used for I/O, libm, and the fault
//!   injection control library of REFINE/LLFI.

pub mod binary;
pub mod checkpoint;
pub mod digest;
pub mod encode;
pub mod isa;
pub mod machine;
pub mod probe;
pub mod rt;
pub mod superblock;

pub use binary::{Binary, Symbol};
pub use checkpoint::{Checkpoint, CheckpointBuilder, CheckpointConfig, CheckpointStore};
pub use digest::{BaselineHashes, ConvHasher, StateDigest};
pub use isa::{fi_outputs, AluOp, Cc, CvtKind, FAluOp, MInstr, Mem, Reg, RtFunc, FLAGS_BITS};
pub use machine::{
    ArchState, GoldenEnd, Machine, OutEvent, RunConfig, RunOutcome, RunResult, Tracer,
    Trap,
};
pub use probe::{Probe, ProbeAction};
pub use rt::{FiRuntime, NoFi};
pub use superblock::{SuperblockProgram, TrialFastStats};
