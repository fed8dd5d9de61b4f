//! Golden-run checkpointing.
//!
//! A fault-injection trial is bit-identical to the fault-free profiling run
//! up to its dynamic injection index (the campaign engine's determinism
//! invariant): the injection RNG is consumed only when the fault fires, so
//! the *quiescent prefix* of every trial re-executes exactly the same
//! instruction stream the profiling run already executed. This module lets
//! the profiling run snapshot full machine state every K retired
//! instructions into an immutable [`CheckpointStore`] (shared across
//! workers alongside the instrumented binary in the artifact cache); trials
//! then restore the latest snapshot whose FI-event count is still below
//! their injection target and interpret only the suffix — O(N) per-trial
//! cost becomes O(N/K + suffix).
//!
//! Memory is captured as *dirty pages*: fixed-size word runs that differ
//! from the baseline image (the binary's data segment, an all-zero stack),
//! so restore cost is proportional to the state the program actually
//! touched, and clean pages are shared implicitly through the baseline.
//! The profiling run itself is fused
//! ([`Machine::run_profile`](crate::Machine::run_profile)) and captures
//! incrementally: a snapshot compares only the pages the run has ever
//! written against the baseline, which yields exactly the full-segment
//! [`diff_pages`] result.

use crate::digest::{BaselineHashes, StateDigest};
use crate::machine::OutEvent;

/// Dirty-page granularity in 8-byte words (512-byte pages).
pub const PAGE_WORDS: usize = 64;

/// A memory page (run of [`PAGE_WORDS`] words, the last page of a segment
/// may be shorter) that differs from the baseline image.
#[derive(Debug, Clone, PartialEq)]
pub struct DirtyPage {
    /// Page number within the segment (word offset / [`PAGE_WORDS`]).
    pub index: u32,
    /// The page's content at snapshot time.
    pub words: Box<[u64]>,
}

/// Diff a memory segment against its baseline (`None` = all zeros),
/// returning the pages that changed. This full-segment scan is the
/// reference the profiling run's incremental capture reproduces.
pub fn diff_pages(cur: &[u64], baseline: Option<&[u64]>) -> Vec<DirtyPage> {
    (0..cur.len().div_ceil(PAGE_WORDS)).filter_map(|i| dirty_page(cur, baseline, i)).collect()
}

/// Page `i` of `cur` when it differs from the baseline (`None` = zeros).
fn dirty_page(cur: &[u64], baseline: Option<&[u64]>, i: usize) -> Option<DirtyPage> {
    let start = i * PAGE_WORDS;
    let chunk = &cur[start..(start + PAGE_WORDS).min(cur.len())];
    let clean = match baseline {
        Some(b) => chunk == &b[start..start + chunk.len()],
        None => chunk.iter().all(|&w| w == 0),
    };
    (!clean).then(|| DirtyPage { index: i as u32, words: chunk.into() })
}

/// The pages a profiling run has written since its initial state, one
/// bitmap per segment. Every other page still holds its baseline content,
/// so diffing only these equals [`diff_pages`] over the whole segment.
#[derive(Debug)]
pub(crate) struct WrittenPages {
    data: Vec<u64>,
    stack: Vec<u64>,
}

impl WrittenPages {
    /// No page written yet, for segments of `data_words` and `stack_words`.
    pub(crate) fn new(data_words: usize, stack_words: usize) -> Self {
        let bitmap = |words: usize| vec![0; words.div_ceil(PAGE_WORDS).div_ceil(64)];
        WrittenPages { data: bitmap(data_words), stack: bitmap(stack_words) }
    }

    /// Add the pages of two write-tracking dirty lists.
    pub(crate) fn mark(&mut self, data: &[u32], stack: &[u32]) {
        for (bits, pages) in [(&mut self.data, data), (&mut self.stack, stack)] {
            for &p in pages {
                bits[p as usize / 64] |= 1 << (p % 64);
            }
        }
    }

    /// The data and stack page lists of a snapshot of `data` (baseline:
    /// the binary's data segment) and `stack` (baseline: zeros).
    pub(crate) fn diff(
        &self,
        data: &[u64],
        data_baseline: &[u64],
        stack: &[u64],
    ) -> (Vec<DirtyPage>, Vec<DirtyPage>) {
        let diff = |bits: &[u64], cur: &[u64], baseline| {
            set_bits(bits).filter_map(|i| dirty_page(cur, baseline, i)).collect()
        };
        (diff(&self.data, data, Some(data_baseline)), diff(&self.stack, stack, None))
    }
}

/// The indices of the set bits of `bits`, ascending.
fn set_bits(bits: &[u64]) -> impl Iterator<Item = usize> + '_ {
    bits.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                w * 64 + bit
            })
        })
    })
}

/// Overwrite `dst` with the captured pages (inverse of [`diff_pages`],
/// given that `dst` currently equals the baseline).
pub fn apply_pages(pages: &[DirtyPage], dst: &mut [u64]) {
    for p in pages {
        let start = p.index as usize * PAGE_WORDS;
        dst[start..start + p.words.len()].copy_from_slice(&p.words);
    }
}

/// A full architectural snapshot of one point of the profiling run,
/// restorable by [`crate::Machine::resume`].
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// General-purpose register file.
    pub regs: [u64; 16],
    /// Floating-point register file (raw bits).
    pub fregs: [u64; 16],
    /// FLAGS register.
    pub flags: u8,
    /// Program counter of the next instruction to execute.
    pub pc: u32,
    /// Simulated cycles consumed so far.
    pub cycles: u64,
    /// Dynamic instructions retired so far.
    pub retired: u64,
    /// FI population events counted so far (the `selInstr`/`injectFault`
    /// call count for REFINE/LLFI, the probed-target count for PINFI). A
    /// trial with injection target `t` may restore this snapshot iff
    /// `fi_count < t`.
    pub fi_count: u64,
    /// Output events emitted so far.
    pub output: Vec<OutEvent>,
    /// Data-segment pages differing from `binary.data`.
    pub data_pages: Vec<DirtyPage>,
    /// Stack pages differing from the all-zero initial stack.
    pub stack_pages: Vec<DirtyPage>,
    /// State digest at this boundary (the profiling run's incremental
    /// [`crate::ConvHasher`] digest); trials compare against it at the same
    /// `(fi_count, pc)` point to detect golden convergence.
    pub digest: StateDigest,
}

impl Checkpoint {
    /// Words of captured page memory (diagnostics).
    pub fn memory_words(&self) -> usize {
        self.data_pages.iter().chain(&self.stack_pages).map(|p| p.words.len()).sum()
    }
}

/// Snapshot-capture knobs for a [`CheckpointBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Snapshot every this many retired instructions.
    pub interval: u64,
    /// Snapshot count cap: reaching it drops every other snapshot and
    /// doubles the interval, bounding memory for long runs.
    pub max_checkpoints: usize,
    /// Data-segment word range `(start, count)` excluded from convergence
    /// digests — instrumentation scratch that a fired trial writes but the
    /// golden run never does, and that no golden-reachable pc ever reads
    /// before rewriting (see [`crate::BaselineHashes::exempt`]). `(0, 0)`
    /// exempts nothing.
    pub exempt_data_words: (u32, u32),
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        CheckpointConfig { interval: 2048, max_checkpoints: 128, exempt_data_words: (0, 0) }
    }
}

/// Accumulates snapshots during a profiling run
/// ([`crate::Machine::run_profile`]), thinning when the cap is hit;
/// [`CheckpointBuilder::finish`] seals the immutable store.
#[derive(Debug)]
pub struct CheckpointBuilder {
    max: usize,
    interval: u64,
    checkpoints: Vec<Checkpoint>,
    pub(crate) baseline: BaselineHashes,
}

impl CheckpointBuilder {
    /// Empty builder with `cfg`'s interval and cap (both clamped to >= 1).
    /// `baseline` is the precomputed hash table of the run's initial
    /// memory image, which seeds the run's convergence digests.
    pub fn new(cfg: &CheckpointConfig, baseline: BaselineHashes) -> Self {
        CheckpointBuilder {
            max: cfg.max_checkpoints.max(1),
            interval: cfg.interval.max(1),
            checkpoints: Vec::new(),
            baseline,
        }
    }

    /// The next retired count after `retired` at which a snapshot is due:
    /// the next multiple of the current interval. Ask again after each
    /// [`CheckpointBuilder::push`], which may double the interval.
    #[inline]
    pub fn next_due(&self, retired: u64) -> u64 {
        (retired / self.interval + 1) * self.interval
    }

    /// Record a snapshot (its digest already stamped). When the cap is
    /// reached, every other snapshot is dropped and the interval doubles;
    /// survivors (even multiples of the old interval) stay aligned to the
    /// new one, and `ck` itself is kept only if it is too.
    pub fn push(&mut self, ck: Checkpoint) {
        if self.checkpoints.len() >= self.max {
            let mut nth = 0usize;
            self.checkpoints.retain(|_| {
                nth += 1;
                nth.is_multiple_of(2)
            });
            self.interval *= 2;
            if !ck.retired.is_multiple_of(self.interval) {
                return;
            }
        }
        debug_assert!(
            self.checkpoints.last().is_none_or(|p| p.fi_count <= ck.fi_count),
            "FI-event counts must be monotone across snapshots"
        );
        self.checkpoints.push(ck);
    }

    /// Seal the store. `stack_words` records the stack geometry the
    /// profiling run used; restoring requires the same.
    pub fn finish(self, stack_words: usize) -> CheckpointStore {
        CheckpointStore {
            interval: self.interval,
            stack_words,
            checkpoints: self.checkpoints,
            baseline: self.baseline,
        }
    }
}

/// The immutable snapshot collection of one profiling run, held in the
/// artifact cache alongside the instrumented binary and shared (read-only)
/// by all campaign workers.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    /// Final snapshot interval (thinning may have raised the configured one).
    pub interval: u64,
    /// Stack size in words used by the profiling run.
    pub stack_words: usize,
    /// Snapshots in capture order (retired and `fi_count` both monotone).
    pub checkpoints: Vec<Checkpoint>,
    /// Baseline memory hashes shared by the snapshot digests; trials seed
    /// their incremental convergence hasher from these.
    pub baseline: BaselineHashes,
}

impl CheckpointStore {
    /// The latest checkpoint a trial targeting FI event `target` (1-based)
    /// may restore: its `fi_count` must still be strictly below `target`
    /// so the target event itself executes under the real injector.
    pub fn nearest_below(&self, target: u64) -> Option<&Checkpoint> {
        let n = self.checkpoints.partition_point(|c| c.fi_count < target);
        n.checked_sub(1).map(|i| &self.checkpoints[i])
    }

    /// Number of snapshots held.
    pub fn len(&self) -> usize {
        self.checkpoints.len()
    }

    /// True when no snapshots were captured (run shorter than one interval).
    pub fn is_empty(&self) -> bool {
        self.checkpoints.is_empty()
    }

    /// Words of captured page memory across all snapshots (diagnostics).
    pub fn memory_words(&self) -> usize {
        self.checkpoints.iter().map(Checkpoint::memory_words).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ck(retired: u64, fi_count: u64) -> Checkpoint {
        Checkpoint {
            regs: [0; 16],
            fregs: [0; 16],
            flags: 0,
            pc: 0,
            cycles: retired,
            retired,
            fi_count,
            output: Vec::new(),
            data_pages: Vec::new(),
            stack_pages: Vec::new(),
            digest: StateDigest::ZERO,
        }
    }

    fn builder(cfg: &CheckpointConfig) -> CheckpointBuilder {
        CheckpointBuilder::new(cfg, BaselineHashes::new(&[], 0, (0, 0)))
    }

    #[test]
    fn diff_and_apply_roundtrip() {
        let baseline: Vec<u64> = (0..200).collect();
        let mut cur = baseline.clone();
        cur[3] = 999; // page 0
        cur[130] = 7; // page 2
        cur[199] = 1; // page 3 (partial)
        let pages = diff_pages(&cur, Some(&baseline));
        assert_eq!(pages.iter().map(|p| p.index).collect::<Vec<_>>(), vec![0, 2, 3]);
        assert_eq!(pages[2].words.len(), 200 - 3 * PAGE_WORDS);
        let mut restored = baseline.clone();
        apply_pages(&pages, &mut restored);
        assert_eq!(restored, cur);
    }

    #[test]
    fn zero_baseline_diffs_against_zeros() {
        let mut cur = vec![0u64; 3 * PAGE_WORDS];
        assert!(diff_pages(&cur, None).is_empty());
        cur[PAGE_WORDS] = 5;
        let pages = diff_pages(&cur, None);
        assert_eq!(pages.len(), 1);
        assert_eq!(pages[0].index, 1);
        let mut restored = vec![0u64; 3 * PAGE_WORDS];
        apply_pages(&pages, &mut restored);
        assert_eq!(restored, cur);
    }

    #[test]
    fn nearest_below_is_strict() {
        let mut b = builder(&CheckpointConfig { interval: 10, max_checkpoints: 64, ..Default::default() });
        for i in 1..=5u64 {
            b.push(ck(i * 10, i * 3)); // fi_counts 3, 6, 9, 12, 15
        }
        let store = b.finish(64);
        assert!(store.nearest_below(1).is_none());
        assert!(store.nearest_below(3).is_none(), "fi_count 3 is not < 3");
        assert_eq!(store.nearest_below(4).unwrap().fi_count, 3);
        assert_eq!(store.nearest_below(10).unwrap().fi_count, 9);
        assert_eq!(store.nearest_below(u64::MAX).unwrap().fi_count, 15);
    }

    #[test]
    fn builder_thins_and_doubles_on_cap() {
        let cfg = CheckpointConfig { interval: 10, max_checkpoints: 4, ..Default::default() };
        let mut b = builder(&cfg);
        let mut retired = 0;
        for _ in 0..12 {
            retired = b.next_due(retired);
            b.push(ck(retired, retired / 10));
        }
        let store = b.finish(64);
        assert!(store.len() <= cfg.max_checkpoints);
        assert!(store.interval > cfg.interval);
        for c in &store.checkpoints {
            assert!(c.retired.is_multiple_of(store.interval), "{} % {}", c.retired, store.interval);
        }
        // Still ordered and strictly usable for lookup.
        let counts: Vec<u64> = store.checkpoints.iter().map(|c| c.fi_count).collect();
        let mut sorted = counts.clone();
        sorted.sort_unstable();
        assert_eq!(counts, sorted);
    }

    #[test]
    fn due_respects_interval() {
        let b = builder(&CheckpointConfig { interval: 100, max_checkpoints: 8, ..Default::default() });
        assert_eq!(b.next_due(0), 100);
        assert_eq!(b.next_due(99), 100);
        assert_eq!(b.next_due(100), 200);
        assert_eq!(b.next_due(650), 700);
    }

    #[test]
    fn written_pages_diff_equals_full_scan() {
        let baseline: Vec<u64> = (0..3 * PAGE_WORDS as u64 + 5).collect();
        let mut data = baseline.clone();
        let mut stack = vec![0u64; 70 * PAGE_WORDS];
        let mut written = WrittenPages::new(data.len(), stack.len());
        data[2] = 1; // page 0
        data[3 * PAGE_WORDS + 4] = 0; // the short last page
        data[PAGE_WORDS] = 7; // page 1, written back below
        stack[65 * PAGE_WORDS] = 9; // past the first bitmap word
        stack[3] = 4;
        written.mark(&[0, 3, 1], &[65, 0]);
        data[PAGE_WORDS] = baseline[PAGE_WORDS];
        let (data_pages, stack_pages) = written.diff(&data, &baseline, &stack);
        assert_eq!(data_pages, diff_pages(&data, Some(&baseline)));
        assert_eq!(stack_pages, diff_pages(&stack, None));
        assert_eq!(data_pages.iter().map(|p| p.index).collect::<Vec<_>>(), vec![0, 3]);
        assert_eq!(stack_pages.iter().map(|p| p.index).collect::<Vec<_>>(), vec![0, 65]);
    }
}
