//! Phase-scoped span timers.
//!
//! Compile stages and FI passes wrap themselves in a [`Span`] guard; the
//! elapsed wall-clock time accumulates into a fixed per-[`Phase`] atomic
//! table that binaries can render as a time table ([`render_phase_table`])
//! or export inside a [`crate::MetricsSnapshot`].

use crate::json::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A named pipeline phase. Order defines table order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Source → token stream.
    Lex = 0,
    /// Tokens → AST.
    Parse,
    /// AST → IR lowering + verification.
    LowerIr,
    /// IR optimization pipeline.
    Optimize,
    /// IR → machine lowering: instruction selection.
    Isel,
    /// Liveness + linear-scan register allocation.
    Regalloc,
    /// Frame finalization, peephole, branch fixup.
    Finalize,
    /// Encoding to the binary image.
    Emit,
    /// REFINE backend instrumentation pass.
    FiRefinePass,
    /// LLFI IR-level instrumentation pass.
    FiLlfiPass,
    /// PINFI probe setup / profiling instrumentation.
    FiPinfiProbe,
    /// Full artifact preparation for a campaign: compile + instrument +
    /// profiling run (a cache miss in the campaign engine).
    PrepareArtifact,
    /// Checkpoint-capturing profiling run (golden-run snapshot capture).
    CheckpointBuild,
    /// Per-trial checkpoint lookup + machine-state restore.
    CheckpointRestore,
    /// Superblock predecode + fusion of one prepared binary.
    SuperblockBuild,
}

/// All phases, in display order.
pub const PHASES: [Phase; 15] = [
    Phase::Lex,
    Phase::Parse,
    Phase::LowerIr,
    Phase::Optimize,
    Phase::Isel,
    Phase::Regalloc,
    Phase::Finalize,
    Phase::Emit,
    Phase::FiRefinePass,
    Phase::FiLlfiPass,
    Phase::FiPinfiProbe,
    Phase::PrepareArtifact,
    Phase::CheckpointBuild,
    Phase::CheckpointRestore,
    Phase::SuperblockBuild,
];

struct PhaseCell {
    total_ns: AtomicU64,
    calls: AtomicU64,
}

static PHASE_TABLE: [PhaseCell; PHASES.len()] = [const {
    PhaseCell {
        total_ns: AtomicU64::new(0),
        calls: AtomicU64::new(0),
    }
}; PHASES.len()];

impl Phase {
    /// Human-readable phase name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Lex => "lex",
            Phase::Parse => "parse",
            Phase::LowerIr => "lower-ir",
            Phase::Optimize => "optimize",
            Phase::Isel => "isel",
            Phase::Regalloc => "regalloc",
            Phase::Finalize => "finalize",
            Phase::Emit => "emit",
            Phase::FiRefinePass => "fi-refine-pass",
            Phase::FiLlfiPass => "fi-llfi-pass",
            Phase::FiPinfiProbe => "fi-pinfi-probe",
            Phase::PrepareArtifact => "prepare-artifact",
            Phase::CheckpointBuild => "checkpoint-build",
            Phase::CheckpointRestore => "checkpoint-restore",
            Phase::SuperblockBuild => "superblock-build",
        }
    }

    /// Add one timed call to this phase's accumulator.
    pub fn record_ns(self, ns: u64) {
        if !crate::enabled() {
            return;
        }
        let cell = &PHASE_TABLE[self as usize];
        cell.total_ns.fetch_add(ns, Ordering::Relaxed);
        cell.calls.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot every phase accumulator (phases with zero calls included).
    pub fn snapshot_all() -> PhasesSnapshot {
        PhasesSnapshot {
            phases: PHASES
                .iter()
                .map(|&p| {
                    let cell = &PHASE_TABLE[p as usize];
                    PhaseSnapshot {
                        name: p.name().to_string(),
                        calls: cell.calls.load(Ordering::Relaxed),
                        total_ns: cell.total_ns.load(Ordering::Relaxed),
                    }
                })
                .collect(),
        }
    }

    /// Reset all phase accumulators (tests and repeated-compile tools).
    pub fn reset_all() {
        for cell in &PHASE_TABLE {
            cell.total_ns.store(0, Ordering::Relaxed);
            cell.calls.store(0, Ordering::Relaxed);
        }
    }
}

/// One phase's accumulated timings.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSnapshot {
    /// Phase name.
    pub name: String,
    /// Number of spans recorded.
    pub calls: u64,
    /// Total wall-clock nanoseconds across those spans.
    pub total_ns: u64,
}

/// Snapshot of the whole phase table.
#[derive(Debug, Clone, PartialEq)]
pub struct PhasesSnapshot {
    /// Per-phase rows in display order.
    pub phases: Vec<PhaseSnapshot>,
}

impl PhasesSnapshot {
    /// Rows with at least one call.
    pub fn active(&self) -> impl Iterator<Item = &PhaseSnapshot> {
        self.phases.iter().filter(|p| p.calls > 0)
    }

    /// Total time across all phases.
    pub fn total_ns(&self) -> u64 {
        self.phases.iter().map(|p| p.total_ns).sum()
    }

    /// The table as a JSON object: `{"phases": [{name, calls, total_ns}, ...]}`.
    pub(crate) fn to_json(&self) -> Json {
        let rows = self.phases.iter().map(|p| {
            Json::object([
                ("name", Json::Str(p.name.clone())),
                ("calls", Json::U64(p.calls)),
                ("total_ns", Json::U64(p.total_ns)),
            ])
        });
        Json::object([("phases", Json::Array(rows.collect()))])
    }
}

/// RAII guard accumulating elapsed wall-clock time into the global table
/// for one [`Phase`]. While telemetry is disabled the constructor skips
/// the clock read entirely.
#[must_use = "a Span records on drop; binding it to `_` drops immediately"]
pub struct Span {
    phase: Phase,
    start: Option<Instant>,
}

impl Span {
    /// Open a span for `phase`.
    #[inline]
    pub fn enter(phase: Phase) -> Span {
        Span {
            phase,
            start: crate::enabled().then(Instant::now),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.phase
                .record_ns(start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        }
    }
}

/// Format `ns` adaptively (ns/µs/ms/s).
pub fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=9_999 => format!("{ns} ns"),
        10_000..=9_999_999 => format!("{:.1} µs", ns as f64 / 1e3),
        10_000_000..=9_999_999_999 => format!("{:.2} ms", ns as f64 / 1e6),
        _ => format!("{:.3} s", ns as f64 / 1e9),
    }
}

/// Render the active rows of a phase snapshot as an aligned text table.
pub fn render_phase_table(snap: &PhasesSnapshot) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<16} {:>8} {:>12} {:>12}\n",
        "phase", "calls", "total", "mean"
    ));
    let total = snap.total_ns().max(1);
    for p in snap.active() {
        let mean = p.total_ns / p.calls.max(1);
        out.push_str(&format!(
            "{:<16} {:>8} {:>12} {:>12}   {:>5.1}%\n",
            p.name,
            p.calls,
            fmt_ns(p.total_ns),
            fmt_ns(mean),
            p.total_ns as f64 * 100.0 / total as f64,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_accumulate_into_phase_table() {
        let _g = crate::test_lock();
        crate::enable();
        Phase::reset_all();
        {
            let _s = Span::enter(Phase::Isel);
            std::hint::black_box(42);
        }
        {
            let _s = Span::enter(Phase::Isel);
        }
        Phase::Regalloc.record_ns(1_000);
        let snap = Phase::snapshot_all();
        let isel = snap.phases.iter().find(|p| p.name == "isel").unwrap();
        assert_eq!(isel.calls, 2);
        let ra = snap.phases.iter().find(|p| p.name == "regalloc").unwrap();
        assert_eq!((ra.calls, ra.total_ns), (1, 1_000));
        assert!(snap.active().count() >= 2);
        let table = render_phase_table(&snap);
        assert!(table.contains("isel"));
        assert!(table.contains("regalloc"));
        Phase::reset_all();
    }

    #[test]
    fn disabled_span_records_nothing() {
        let _g = crate::test_lock();
        crate::disable();
        Phase::reset_all();
        {
            let _s = Span::enter(Phase::Emit);
        }
        let snap = Phase::snapshot_all();
        assert_eq!(snap.total_ns(), 0);
        crate::enable();
    }

    #[test]
    fn phases_snapshot_json_text() {
        let row =
            |name: &str, calls, total_ns| PhaseSnapshot { name: name.into(), calls, total_ns };
        let snap = PhasesSnapshot { phases: vec![row("isel", 3, 1234), row("emit", 0, 0)] };
        assert_eq!(
            snap.to_json().compact(),
            r#"{"phases":[{"name":"isel","calls":3,"total_ns":1234},{"name":"emit","calls":0,"total_ns":0}]}"#
        );
        assert_eq!(PhasesSnapshot { phases: vec![] }.to_json().compact(), r#"{"phases":[]}"#);
    }

    #[test]
    fn fmt_ns_ranges() {
        let _g = crate::test_lock();
        assert_eq!(fmt_ns(500), "500 ns");
        assert!(fmt_ns(50_000).ends_with("µs"));
        assert!(fmt_ns(50_000_000).ends_with("ms"));
        assert!(fmt_ns(50_000_000_000).ends_with(" s"));
    }
}
