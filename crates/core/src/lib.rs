#![warn(missing_docs)]

//! `refine-core` — the REFINE fault injector: a compiler *backend* FI pass
//! plus its runtime control library.
//!
//! This is the paper's primary contribution, reproduced structurally:
//!
//! * [`pass`] — a transformation over final machine basic blocks (post
//!   instruction selection, post register allocation, immediately before
//!   emission) that splits blocks around every FI-target instruction and
//!   inserts the `PreFI -> SetupFI -> FI_k -> PostFI` instrumentation
//!   blocks of §4.2.3, using a global save area for clobbered state and
//!   runtime-library calls (`selInstr`, `setupFI`) for control;
//! * [`runtime`] — the user-side FI library of §4.2.4/§4.3: a profiling
//!   implementation (dynamic instruction counting, never injects) and a
//!   single-bit-flip injecting implementation with a fault log for
//!   repeatability;
//! * [`driver`] — the compiler driver exposing the paper's Table 2 flags
//!   (`-fi`, `-fi-funcs`, `-fi-instrs`) on top of the shared
//!   optimizer/backend pipeline;
//! * [`options`] — flag parsing and the `-fi-funcs` glob matcher.

pub mod driver;
pub mod multibit;
pub mod options;
pub mod pass;
pub mod runtime;

pub use driver::{compile_with_fi, Compiled};
pub use options::{fnv1a, CheckpointOptions, ExecEngine, FiOptions, InstrClass};
pub use pass::SiteInfo;
pub use multibit::{BurstRt, MultiBitProbe};
pub use runtime::{FaultRecord, InjectingRt, ProfilingRt, ReplayRt};
