//! Telemetry for the REFINE reproduction: structured tracing, metrics, and
//! per-trial fault provenance.
//!
//! Four pieces, mirroring what a production FI pipeline needs to stay
//! observable:
//!
//! * [`metrics`] — a lock-cheap global registry of per-trial
//!   fixed-bucket (power-of-two) histograms and the trap-cause breakdown,
//!   snapshotable at any point into a [`metrics::MetricsSnapshot`] that
//!   renders as JSON (per-campaign work counts live in the campaign
//!   engine's report, not here);
//! * [`span`] — RAII phase timers ([`span::Span`]) wrapping compile stages
//!   (lex/parse, lowering, isel, regalloc, finalize/emit) and the FI
//!   instrumentation passes, so front-ends can print a per-phase time
//!   table ([`span::render_phase_table`]);
//! * [`trace`] — per-trial provenance records ([`trace::TrialTrace`])
//!   streamed to a JSONL sink, plus an aggregator summarizing injection
//!   site × outcome;
//! * [`progress`] — campaign progress reporting (trials/s, ETA, live
//!   outcome percentages) on stderr;
//! * [`json`] — the JSON text of every report: compact trace lines, the
//!   pretty `--json` report, and the flat-object parser that reads trace
//!   lines back.
//!
//! # Zero cost when disabled
//!
//! The registry starts **disabled**: every record path first does a single
//! relaxed atomic load and bails, so library crates can call telemetry
//! hooks unconditionally. Binaries that want the data opt in once with
//! [`enable`]. Timers ([`span::Span`]) skip even the clock read while
//! disabled.

pub mod json;
pub mod metrics;
pub mod progress;
pub mod span;
pub mod trace;

pub use metrics::{registry, MetricsSnapshot};
pub use progress::{OutcomeKind, Progress};
pub use span::{Phase, Span};
pub use trace::{TraceBuffer, TraceSink, TrialTrace};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn on metric and span recording process-wide.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn recording back off (used by tests; recorded data is kept).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether recording is on. A single relaxed load — cheap enough to guard
/// every hook in compile/run hot paths.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Unit tests flip the global enabled flag and reset the phase table, so
/// those that depend on either serialize through this lock.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
