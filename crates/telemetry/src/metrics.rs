//! Lock-cheap metrics registry.
//!
//! Hot-path recording is a handful of relaxed atomic ops (histogram
//! buckets). The only lock is a `std::sync::Mutex` around the
//! trap-cause breakdown, which is touched solely on crashing trials.

use crate::json::Json;
use crate::span::{Phase, PhasesSnapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Number of power-of-two histogram buckets: bucket `i` counts values
/// `v` with `v.bits() == i`, i.e. upper bound `2^i - 1`; the last bucket
/// is open-ended.
pub const HIST_BUCKETS: usize = 64;

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

/// Point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq)]
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
    /// The snapshot as a JSON object.
    pub(crate) fn to_json(&self) -> Json {
        Json::object([
            ("count", Json::U64(self.count)),
            ("sum", Json::U64(self.sum)),
            ("min", Json::U64(self.min)),
            ("max", Json::U64(self.max)),
            ("buckets", Json::Array(self.buckets.iter().map(|&b| Json::U64(b)).collect())),
        ])
    }
}

/// The global metrics registry: per-trial distributions and the trap
/// breakdown. Per-campaign work counts (outcomes, checkpoint restores,
/// convergence, superblock dispatches, artifact-cache hits) are summed by
/// the campaign engine, not here.
pub struct Registry {
    /// Wall-clock nanoseconds per fault-injection trial.
    pub trial_latency_ns: Histogram,
    /// Dynamic instructions retired per trial.
    pub trial_instrs: Histogram,
    /// Simulated cycles per trial.
    pub trial_cycles: Histogram,
    /// Trap-cause breakdown (crashing trials only, so a mutex is fine).
    traps: Mutex<BTreeMap<String, u64>>,
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
            traps: Mutex::new(BTreeMap::new()),
        }
    }

    /// Record one completed trial.
    pub fn record_trial(&self, latency_ns: u64, instrs: u64, cycles: u64, trap: Option<&str>) {
        if !crate::enabled() {
            return;
        }
        self.trial_latency_ns.record(latency_ns);
        self.trial_instrs.record(instrs);
        self.trial_cycles.record(cycles);
        if let Some(cause) = trap {
            let mut traps = self.traps.lock().unwrap_or_else(PoisonError::into_inner);
            *traps.entry(cause.to_string()).or_insert(0) += 1;
        }
    }

    /// Copy out a point-in-time snapshot of everything, including the
    /// per-phase span table.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            trial_latency_ns: self.trial_latency_ns.snapshot(),
            trial_instrs: self.trial_instrs.snapshot(),
            trial_cycles: self.trial_cycles.snapshot(),
            traps: self.traps.lock().unwrap_or_else(PoisonError::into_inner).clone(),
            phases: Phase::snapshot_all(),
        }
    }
}

/// Point-in-time copy of the whole registry.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Wall-clock nanoseconds per trial.
    pub trial_latency_ns: HistogramSnapshot,
    /// Dynamic instructions retired per trial.
    pub trial_instrs: HistogramSnapshot,
    /// Simulated cycles per trial.
    pub trial_cycles: HistogramSnapshot,
    /// Trap-cause breakdown.
    pub traps: BTreeMap<String, u64>,
    /// Per-phase compile/FI-pass timings.
    pub phases: PhasesSnapshot,
}

impl MetricsSnapshot {
    /// The snapshot as a JSON object (the `metrics` part of `--json`).
    pub fn to_json(&self) -> Json {
        let traps = self.traps.iter().map(|(cause, &n)| (cause.clone(), Json::U64(n))).collect();
        Json::object([
            ("trial_latency_ns", self.trial_latency_ns.to_json()),
            ("trial_instrs", self.trial_instrs.to_json()),
            ("trial_cycles", self.trial_cycles.to_json()),
            ("traps", Json::Object(traps)),
            ("phases", self.phases.to_json()),
        ])
    }
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
    fn registry_trials_and_traps() {
        let _g = crate::test_lock();
        crate::enable();
        let r = Registry::new();
        r.record_trial(1_000, 50, 120, Some("segfault"));
        r.record_trial(2_000, 60, 130, None);
        r.record_trial(1_500, 55, 125, Some("segfault"));
        r.record_trial(1_200, 52, 122, None);
        let s = r.snapshot();
        assert_eq!(s.traps.len(), 1);
        assert_eq!(s.traps.get("segfault"), Some(&2));
        assert_eq!(s.trial_latency_ns.count, 4);
        assert_eq!(s.trial_instrs.sum, 50 + 60 + 55 + 52);
        assert_eq!(s.trial_cycles.max, 130);
    }

    #[test]
    fn metrics_snapshot_json_text() {
        let hist = HistogramSnapshot { count: 2, sum: 4, min: 1, max: 3, buckets: vec![0, 2] };
        let text = hist.to_json().compact();
        assert_eq!(text, r#"{"count":2,"sum":4,"min":1,"max":3,"buckets":[0,2]}"#);
        let snap = MetricsSnapshot {
            trial_latency_ns: hist.clone(),
            trial_instrs: hist.clone(),
            trial_cycles: hist,
            traps: BTreeMap::from([("segfault".to_string(), 2), ("bad-pc".to_string(), 1)]),
            phases: PhasesSnapshot { phases: vec![] },
        };
        let want = format!(
            r#"{{"trial_latency_ns":{text},"trial_instrs":{text},"trial_cycles":{text},"traps":{{"bad-pc":1,"segfault":2}},"phases":{{"phases":[]}}}}"#
        );
        assert_eq!(snap.to_json().compact(), want);
    }
}
