//! Lock-cheap metrics registry.
//!
//! Hot-path recording is a handful of relaxed atomic ops (counters,
//! histogram buckets). The only lock is a `std::sync::Mutex` around the
//! trap-cause breakdown, which is touched solely on crashing trials.

use crate::span::{Phase, PhasesSnapshot};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Number of power-of-two histogram buckets: bucket `i` counts values
/// `v` with `v.bits() == i`, i.e. upper bound `2^i - 1`; the last bucket
/// is open-ended.
pub const HIST_BUCKETS: usize = 64;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Const-constructible zero counter.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Add `n` (no-op while telemetry is disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Increment by one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Fixed-bucket histogram over `u64` values with power-of-two bucket
/// boundaries. Recording is wait-free: one bucket increment plus sum /
/// count / min / max updates, all relaxed atomics.
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// Const-constructible empty histogram.
    pub const fn new() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Bucket index for a value: the bit width of `v` (0 → bucket 0).
    #[inline]
    pub fn bucket_index(v: u64) -> usize {
        (64 - v.leading_zeros() as usize).min(HIST_BUCKETS - 1)
    }

    /// Inclusive upper bound of bucket `i` (`u64::MAX` for the last).
    pub fn bucket_bound(i: usize) -> u64 {
        if i >= 63 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Record one observation (no-op while telemetry is disabled).
    #[inline]
    pub fn record(&self, v: u64) {
        if !crate::enabled() {
            return;
        }
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Copy out a point-in-time snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Serializable point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Per-bucket counts, indexed like [`Histogram::bucket_bound`].
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean observation, or 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper-bound estimate of the q-quantile (`0.0..=1.0`) from bucket
    /// boundaries.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64 * q).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Histogram::bucket_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Merge another snapshot into this one (e.g. combining per-shard
    /// histograms). Bucket vectors must have the same length.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        assert_eq!(
            self.buckets.len(),
            other.buckets.len(),
            "cannot merge histograms with different bucket layouts"
        );
        if other.count == 0 {
            return;
        }
        self.min = if self.count == 0 {
            other.min
        } else {
            self.min.min(other.min)
        };
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }
}

/// Outcome classes tracked by the registry (mirrors the campaign's
/// Crash / SOC / Benign classification without depending on it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutcomeKind {
    /// Trap or timeout.
    Crash = 0,
    /// Silent output corruption.
    Soc = 1,
    /// Output matched golden.
    Benign = 2,
}

/// The global metrics registry.
pub struct Registry {
    /// Wall-clock nanoseconds per fault-injection trial.
    pub trial_latency_ns: Histogram,
    /// Dynamic instructions retired per trial.
    pub trial_instrs: Histogram,
    /// Simulated cycles per trial.
    pub trial_cycles: Histogram,
    /// Outcome counters indexed by [`OutcomeKind`].
    outcomes: [Counter; 3],
    /// Trap-cause breakdown (crashing trials only, so a mutex is fine).
    traps: Mutex<BTreeMap<String, u64>>,
    /// Trials that ran to completion (for rate computations).
    pub trials_total: Counter,
    /// Instrumented-artifact cache hits (campaign engine).
    pub artifact_cache_hits: Counter,
    /// Instrumented-artifact cache misses, i.e. full compile+instrument+
    /// profile pipelines actually executed.
    pub artifact_cache_misses: Counter,
    /// Wall-clock nanoseconds per artifact preparation (cache misses only).
    pub artifact_prepare_ns: Histogram,
    /// Trials fast-forwarded from a golden-run checkpoint.
    pub checkpoint_restores: Counter,
    /// Trials executed cold (no usable checkpoint or checkpointing off).
    pub checkpoint_cold: Counter,
    /// Dynamic instructions skipped per checkpoint restore.
    pub checkpoint_skipped_instrs: Histogram,
    /// Trials whose post-injection state converged with the golden run and
    /// whose outcome was spliced.
    pub convergence_hits: Counter,
    /// Post-injection instructions executed under convergence checking.
    pub convergence_checked_instrs: Histogram,
    /// Instructions skipped per convergence hit (golden-suffix splice).
    pub convergence_saved_instrs: Histogram,
    /// Superblock programs built (predecode + fusion, one per prepared
    /// artifact).
    pub superblock_built: Counter,
    /// Fused superblock dispatches across all trials.
    pub superblock_dispatches: Counter,
    /// Instructions retired through fused dispatch.
    pub superblock_fused_instrs: Counter,
    /// Total instructions retired under superblock loops (fused + exact
    /// single-step fallback).
    pub superblock_total_instrs: Counter,
}

static REGISTRY: Registry = Registry::new();

/// The process-wide registry.
pub fn registry() -> &'static Registry {
    &REGISTRY
}

impl Registry {
    const fn new() -> Self {
        Registry {
            trial_latency_ns: Histogram::new(),
            trial_instrs: Histogram::new(),
            trial_cycles: Histogram::new(),
            outcomes: [Counter::new(), Counter::new(), Counter::new()],
            traps: Mutex::new(BTreeMap::new()),
            trials_total: Counter::new(),
            artifact_cache_hits: Counter::new(),
            artifact_cache_misses: Counter::new(),
            artifact_prepare_ns: Histogram::new(),
            checkpoint_restores: Counter::new(),
            checkpoint_cold: Counter::new(),
            checkpoint_skipped_instrs: Histogram::new(),
            convergence_hits: Counter::new(),
            convergence_checked_instrs: Histogram::new(),
            convergence_saved_instrs: Histogram::new(),
            superblock_built: Counter::new(),
            superblock_dispatches: Counter::new(),
            superblock_fused_instrs: Counter::new(),
            superblock_total_instrs: Counter::new(),
        }
    }

    /// Record one completed trial.
    pub fn record_trial(
        &self,
        latency_ns: u64,
        instrs: u64,
        cycles: u64,
        outcome: OutcomeKind,
        trap: Option<&str>,
    ) {
        if !crate::enabled() {
            return;
        }
        self.trial_latency_ns.record(latency_ns);
        self.trial_instrs.record(instrs);
        self.trial_cycles.record(cycles);
        self.outcomes[outcome as usize].incr();
        self.trials_total.incr();
        if let Some(cause) = trap {
            let mut traps = self.traps.lock().unwrap_or_else(PoisonError::into_inner);
            *traps.entry(cause.to_string()).or_insert(0) += 1;
        }
    }

    /// Outcome count for one class.
    pub fn outcome_count(&self, kind: OutcomeKind) -> u64 {
        self.outcomes[kind as usize].get()
    }

    /// Copy out a point-in-time snapshot of everything, including the
    /// per-phase span table.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            trial_latency_ns: self.trial_latency_ns.snapshot(),
            trial_instrs: self.trial_instrs.snapshot(),
            trial_cycles: self.trial_cycles.snapshot(),
            outcomes: OutcomeCountsSnapshot {
                crash: self.outcomes[OutcomeKind::Crash as usize].get(),
                soc: self.outcomes[OutcomeKind::Soc as usize].get(),
                benign: self.outcomes[OutcomeKind::Benign as usize].get(),
            },
            traps: self.traps.lock().unwrap_or_else(PoisonError::into_inner).clone(),
            phases: Phase::snapshot_all(),
            artifact_cache: ArtifactCacheSnapshot {
                hits: self.artifact_cache_hits.get(),
                misses: self.artifact_cache_misses.get(),
                prepare_ns: self.artifact_prepare_ns.snapshot(),
            },
            checkpoint: CheckpointSnapshot {
                restores: self.checkpoint_restores.get(),
                cold: self.checkpoint_cold.get(),
                skipped_instrs: self.checkpoint_skipped_instrs.snapshot(),
            },
            convergence: ConvergenceSnapshot {
                hits: self.convergence_hits.get(),
                checked_instrs: self.convergence_checked_instrs.snapshot(),
                saved_instrs: self.convergence_saved_instrs.snapshot(),
            },
            superblock: SuperblockSnapshot {
                built: self.superblock_built.get(),
                dispatches: self.superblock_dispatches.get(),
                fused_instrs: self.superblock_fused_instrs.get(),
                total_instrs: self.superblock_total_instrs.get(),
            },
        }
    }
}

/// Serializable superblock-engine statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SuperblockSnapshot {
    /// Superblock programs built (one per prepared artifact).
    pub built: u64,
    /// Fused block dispatches across all trials.
    pub dispatches: u64,
    /// Instructions retired through fused dispatch.
    pub fused_instrs: u64,
    /// Total instructions retired under superblock loops.
    pub total_instrs: u64,
}

impl SuperblockSnapshot {
    /// Fraction of superblock-loop instructions retired fused (0 when the
    /// engine never ran).
    pub fn fused_instr_share(&self) -> f64 {
        if self.total_instrs == 0 {
            0.0
        } else {
            self.fused_instrs as f64 / self.total_instrs as f64
        }
    }
}

/// Serializable golden-convergence early-exit statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConvergenceSnapshot {
    /// Trials whose outcome was spliced from the golden run.
    pub hits: u64,
    /// Post-injection instructions executed under convergence checking.
    pub checked_instrs: HistogramSnapshot,
    /// Instructions skipped per convergence hit.
    pub saved_instrs: HistogramSnapshot,
}

/// Serializable checkpoint fast-forward statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointSnapshot {
    /// Trials fast-forwarded from a golden-run checkpoint.
    pub restores: u64,
    /// Trials executed cold (no usable checkpoint or checkpointing off).
    pub cold: u64,
    /// Dynamic instructions skipped per restore.
    pub skipped_instrs: HistogramSnapshot,
}

/// Serializable instrumented-artifact cache statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArtifactCacheSnapshot {
    /// Lookups served from an already-prepared artifact.
    pub hits: u64,
    /// Lookups that had to run the full compile+instrument+profile pipeline.
    pub misses: u64,
    /// Preparation wall-time distribution (misses only).
    pub prepare_ns: HistogramSnapshot,
}

impl ArtifactCacheSnapshot {
    /// Fraction of lookups served from cache (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Serializable outcome counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutcomeCountsSnapshot {
    /// Trap or timeout.
    pub crash: u64,
    /// Silent output corruption.
    pub soc: u64,
    /// Matched golden output.
    pub benign: u64,
}

/// Serializable point-in-time copy of the whole registry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Wall-clock nanoseconds per trial.
    pub trial_latency_ns: HistogramSnapshot,
    /// Dynamic instructions retired per trial.
    pub trial_instrs: HistogramSnapshot,
    /// Simulated cycles per trial.
    pub trial_cycles: HistogramSnapshot,
    /// Outcome counters.
    pub outcomes: OutcomeCountsSnapshot,
    /// Trap-cause breakdown.
    pub traps: BTreeMap<String, u64>,
    /// Per-phase compile/FI-pass timings.
    pub phases: PhasesSnapshot,
    /// Instrumented-artifact cache statistics.
    pub artifact_cache: ArtifactCacheSnapshot,
    /// Checkpoint fast-forward statistics.
    pub checkpoint: CheckpointSnapshot,
    /// Golden-convergence early-exit statistics.
    pub convergence: ConvergenceSnapshot,
    /// Superblock-engine statistics.
    pub superblock: SuperblockSnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_boundaries() {
        let _g = crate::test_lock();
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(255), 8);
        assert_eq!(Histogram::bucket_index(256), 9);
        assert_eq!(Histogram::bucket_index(u64::MAX), 63);
        // Every bucket's bound actually lands in that bucket.
        for i in 0..HIST_BUCKETS {
            assert_eq!(Histogram::bucket_index(Histogram::bucket_bound(i)), i);
        }
    }

    #[test]
    fn histogram_records_and_snapshots() {
        let _g = crate::test_lock();
        crate::enable();
        let h = Histogram::new();
        for v in [0u64, 1, 1, 7, 300, 100_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 100_309);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 100_000);
        assert_eq!(s.buckets[0], 1); // 0
        assert_eq!(s.buckets[1], 2); // 1, 1
        assert_eq!(s.buckets[3], 1); // 7
        assert_eq!(s.buckets[9], 1); // 300
        assert_eq!(s.buckets.iter().sum::<u64>(), 6);
        assert!((s.mean() - 100_309.0 / 6.0).abs() < 1e-9);
        assert!(s.quantile(0.5) >= 1 && s.quantile(0.5) <= 7);
        assert_eq!(s.quantile(1.0), 100_000);
    }

    #[test]
    fn histogram_disabled_is_noop() {
        let _g = crate::test_lock();
        crate::disable();
        let h = Histogram::new();
        h.record(42);
        assert_eq!(h.snapshot().count, 0);
        crate::enable();
    }

    #[test]
    fn snapshot_merge() {
        let _g = crate::test_lock();
        crate::enable();
        let (a, b) = (Histogram::new(), Histogram::new());
        for v in [1u64, 5, 9] {
            a.record(v);
        }
        for v in [0u64, 1000] {
            b.record(v);
        }
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count, 5);
        assert_eq!(m.sum, 1015);
        assert_eq!(m.min, 0);
        assert_eq!(m.max, 1000);
        assert_eq!(m.buckets.iter().sum::<u64>(), 5);

        // Merging an empty histogram changes nothing (incl. min).
        let before = m.clone();
        m.merge(&Histogram::new().snapshot());
        assert_eq!(m, before);

        // Merging *into* an empty histogram copies the other side.
        let mut empty = Histogram::new().snapshot();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn registry_trials_and_traps() {
        let _g = crate::test_lock();
        crate::enable();
        let r = Registry::new();
        r.record_trial(1_000, 50, 120, OutcomeKind::Crash, Some("segfault"));
        r.record_trial(2_000, 60, 130, OutcomeKind::Benign, None);
        r.record_trial(1_500, 55, 125, OutcomeKind::Crash, Some("segfault"));
        r.record_trial(1_200, 52, 122, OutcomeKind::Soc, None);
        let s = r.snapshot();
        assert_eq!(s.outcomes.crash, 2);
        assert_eq!(s.outcomes.soc, 1);
        assert_eq!(s.outcomes.benign, 1);
        assert_eq!(s.traps.get("segfault"), Some(&2));
        assert_eq!(s.trial_latency_ns.count, 4);
        assert_eq!(r.trials_total.get(), 4);
    }

    #[test]
    fn cache_counters_snapshot_and_hit_rate() {
        let _g = crate::test_lock();
        crate::enable();
        let r = Registry::new();
        r.artifact_cache_hits.add(9);
        r.artifact_cache_misses.incr();
        r.artifact_prepare_ns.record(1_000_000);
        let s = r.snapshot();
        assert_eq!(s.artifact_cache.hits, 9);
        assert_eq!(s.artifact_cache.misses, 1);
        assert!((s.artifact_cache.hit_rate() - 0.9).abs() < 1e-12);
        assert_eq!(s.artifact_cache.prepare_ns.count, 1);
        assert_eq!(ArtifactCacheSnapshot { hits: 0, misses: 0, prepare_ns: Histogram::new().snapshot() }.hit_rate(), 0.0);
    }

    #[test]
    fn metrics_snapshot_serde_round_trip() {
        let _g = crate::test_lock();
        crate::enable();
        let r = Registry::new();
        r.record_trial(5_000, 40, 100, OutcomeKind::Crash, Some("bad-pc"));
        r.record_trial(6_000, 45, 110, OutcomeKind::Benign, None);
        let snap = r.snapshot();
        let text = serde::json::to_string(&snap);
        let back: MetricsSnapshot = serde::json::from_str(&text).expect("parses");
        assert_eq!(back, snap);
        // Pretty form parses identically too.
        let pretty = serde::json::to_string_pretty(&snap);
        let back2: MetricsSnapshot = serde::json::from_str(&pretty).expect("parses");
        assert_eq!(back2, snap);
    }
}
