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
//! ([`Machine::run_profile`](crate::Machine::run_profile)) and diffs the
//! stack only from its lowest written word up, which yields exactly the
//! full-segment [`diff_pages`] result because every word below it is still
//! zero. Dirty pages are shared too: a page equal to the previous
//! capture's page of the same index reuses its words (one [`Arc`]), so a
//! page a long run writes once is held once however many snapshots it
//! appears in. [`CheckpointStore::memory_words`] counts those resident
//! words; [`Checkpoint::memory_words`] is one snapshot's view.

use crate::machine::OutEvent;
use std::collections::HashSet;
use std::sync::Arc;

/// Dirty-page granularity in 8-byte words (512-byte pages).
pub const PAGE_WORDS: usize = 64;

/// A memory page (run of [`PAGE_WORDS`] words, the last page of a segment
/// may be shorter) that differs from the baseline image.
#[derive(Debug, Clone, PartialEq)]
pub struct DirtyPage {
    /// Page number within the segment (word offset / [`PAGE_WORDS`]).
    pub index: u32,
    /// The page's content at snapshot time, shared with the neighbouring
    /// snapshots whose page of this index holds the same words.
    pub words: Arc<[u64]>,
}

/// Diff a memory segment against its baseline (`None` = all zeros),
/// returning the pages that changed. This full-segment scan is the
/// reference the profiling run's capture reproduces.
pub fn diff_pages(cur: &[u64], baseline: Option<&[u64]>) -> Vec<DirtyPage> {
    diff_pages_from(cur, baseline, 0, &[])
}

/// [`diff_pages`] over the pages from page `first` on, for a segment whose
/// earlier pages are known to equal the baseline. A page equal to the
/// page of the same index in `prev` (an earlier capture of this segment,
/// ascending) shares its words; any other page is diffed against the
/// baseline, so the result equals [`diff_pages`]'s whatever `prev` holds.
pub(crate) fn diff_pages_from(
    cur: &[u64],
    baseline: Option<&[u64]>,
    first: usize,
    prev: &[DirtyPage],
) -> Vec<DirtyPage> {
    let mut prev = prev.iter().peekable();
    (first..cur.len().div_ceil(PAGE_WORDS))
        .filter_map(|i| {
            let chunk = page(cur, i);
            while prev.next_if(|p| (p.index as usize) < i).is_some() {}
            match prev.next_if(|p| p.index as usize == i) {
                Some(p) if *p.words == *chunk => Some(p.clone()),
                _ => dirty_page(chunk, baseline, i),
            }
        })
        .collect()
}

/// Page `i` of the segment `cur` (the last page may be shorter).
fn page(cur: &[u64], i: usize) -> &[u64] {
    let start = i * PAGE_WORDS;
    &cur[start..(start + PAGE_WORDS).min(cur.len())]
}

/// Page `i`, holding `chunk`, when it differs from the baseline (`None` =
/// zeros).
fn dirty_page(chunk: &[u64], baseline: Option<&[u64]>, i: usize) -> Option<DirtyPage> {
    let clean = match baseline {
        Some(b) => chunk == page(b, i),
        None => chunk.iter().all(|&w| w == 0),
    };
    (!clean).then(|| DirtyPage { index: i as u32, words: chunk.into() })
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
}

impl Checkpoint {
    /// Words of page memory this snapshot restores, shared pages included
    /// (diagnostics).
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
    /// Data-segment word range `(start, count)` the golden-convergence
    /// comparison ignores — instrumentation scratch that a fired trial
    /// writes but the golden run never does, and that no golden-reachable
    /// pc ever reads before rewriting. `(0, 0)` exempts nothing.
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
    exempt_data_words: (u32, u32),
}

impl CheckpointBuilder {
    /// Empty builder with `cfg`'s interval and cap (both clamped to >= 1)
    /// and its exempt data words.
    pub fn new(cfg: &CheckpointConfig) -> Self {
        CheckpointBuilder {
            max: cfg.max_checkpoints.max(1),
            interval: cfg.interval.max(1),
            checkpoints: Vec::new(),
            exempt_data_words: cfg.exempt_data_words,
        }
    }

    /// The next retired count after `retired` at which a snapshot is due:
    /// the next multiple of the current interval. Ask again after each
    /// [`CheckpointBuilder::push`], which may double the interval.
    #[inline]
    pub fn next_due(&self, retired: u64) -> u64 {
        (retired / self.interval + 1) * self.interval
    }

    /// Record a snapshot, taken at the first dispatch boundary at or after
    /// a due count (so at most one trace past it). When the cap is reached,
    /// every other snapshot is dropped and the interval doubles: survivors
    /// hold the even due slots of the old interval, and `ck` itself is kept
    /// only if its due slot (`retired / interval`) is even too.
    pub fn push(&mut self, ck: Checkpoint) {
        if self.checkpoints.len() >= self.max {
            let mut nth = 0usize;
            self.checkpoints.retain(|_| {
                nth += 1;
                nth.is_multiple_of(2)
            });
            let slot = ck.retired / self.interval;
            self.interval *= 2;
            if !slot.is_multiple_of(2) {
                return;
            }
        }
        debug_assert!(
            self.checkpoints.last().is_none_or(|p| p.fi_count <= ck.fi_count),
            "FI-event counts must be monotone across snapshots"
        );
        self.checkpoints.push(ck);
    }

    /// Seal the store.
    pub fn finish(self) -> CheckpointStore {
        CheckpointStore {
            interval: self.interval,
            checkpoints: self.checkpoints,
            exempt_data_words: self.exempt_data_words,
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
    /// Snapshots in capture order (retired and `fi_count` both monotone).
    pub checkpoints: Vec<Checkpoint>,
    /// [`CheckpointConfig::exempt_data_words`] of the capture: the data
    /// words a trial's golden-convergence comparison ignores.
    pub exempt_data_words: (u32, u32),
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

    /// Words of page memory the store keeps resident: each page shared by
    /// several snapshots counts once (diagnostics).
    pub fn memory_words(&self) -> usize {
        let mut seen = HashSet::new();
        self.checkpoints
            .iter()
            .flat_map(|c| c.data_pages.iter().chain(&c.stack_pages))
            .filter(|p| seen.insert(Arc::as_ptr(&p.words).cast::<u64>()))
            .map(|p| p.words.len())
            .sum()
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
        }
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
    fn store_memory_words_count_a_shared_page_once() {
        let page = |index: u32, w: u64| DirtyPage { index, words: vec![w; PAGE_WORDS].into() };
        let (once, other) = (page(0, 1), page(1, 2));
        let mut a = ck(10, 1);
        a.data_pages = vec![once.clone(), other];
        let mut b = ck(20, 2);
        // The same words again, in a page of its own.
        b.data_pages = vec![once.clone(), page(1, 2)];
        b.stack_pages = vec![DirtyPage { index: 7, words: once.words.clone() }];
        assert_eq!((a.memory_words(), b.memory_words()), (2 * PAGE_WORDS, 3 * PAGE_WORDS));
        let store =
            CheckpointStore { interval: 10, checkpoints: vec![a, b], exempt_data_words: (0, 0) };
        assert_eq!(store.memory_words(), 3 * PAGE_WORDS);
    }

    #[test]
    fn diff_shares_equal_pages_with_the_previous_capture() {
        let baseline = vec![0u64; 3 * PAGE_WORDS];
        let mut cur = baseline.clone();
        cur[1] = 4;
        cur[PAGE_WORDS + 1] = 5;
        let prev = diff_pages(&cur, Some(&baseline));
        cur[PAGE_WORDS + 1] = 6;
        cur[2 * PAGE_WORDS] = 7;
        let next = diff_pages_from(&cur, Some(&baseline), 0, &prev);
        assert_eq!(next, diff_pages(&cur, Some(&baseline)));
        assert!(Arc::ptr_eq(&next[0].words, &prev[0].words), "unchanged page");
        assert!(!Arc::ptr_eq(&next[1].words, &prev[1].words), "rewritten page");
    }

    #[test]
    fn nearest_below_is_strict() {
        let cfg = CheckpointConfig { interval: 10, max_checkpoints: 64, ..Default::default() };
        let mut b = CheckpointBuilder::new(&cfg);
        for i in 1..=5u64 {
            b.push(ck(i * 10, i * 3)); // fi_counts 3, 6, 9, 12, 15
        }
        let store = b.finish();
        assert!(store.nearest_below(1).is_none());
        assert!(store.nearest_below(3).is_none(), "fi_count 3 is not < 3");
        assert_eq!(store.nearest_below(4).unwrap().fi_count, 3);
        assert_eq!(store.nearest_below(10).unwrap().fi_count, 9);
        assert_eq!(store.nearest_below(u64::MAX).unwrap().fi_count, 15);
    }

    #[test]
    fn builder_thins_and_doubles_on_cap() {
        let cfg = CheckpointConfig { interval: 10, max_checkpoints: 4, ..Default::default() };
        let mut b = CheckpointBuilder::new(&cfg);
        let mut retired = 0;
        for _ in 0..12 {
            retired = b.next_due(retired);
            b.push(ck(retired, retired / 10));
        }
        let store = b.finish();
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

    /// Captures land a few instructions past their due counts (at the
    /// first dispatch boundary): thinning keeps the even due slots, so each
    /// kept snapshot's due count is a multiple of the final interval, and a
    /// capture that triggers thinning is kept when its own slot is even.
    #[test]
    fn builder_keeps_even_due_slots_of_late_captures() {
        let cfg = CheckpointConfig { interval: 10, max_checkpoints: 3, ..Default::default() };
        let mut b = CheckpointBuilder::new(&cfg);
        let mut retired = 0;
        for _ in 0..10 {
            retired = b.next_due(retired) + 3;
            b.push(ck(retired, retired / 10));
        }
        let store = b.finish();
        let kept: Vec<u64> = store.checkpoints.iter().map(|c| c.retired).collect();
        assert_eq!((store.interval, kept), (160, vec![163, 323]));
    }

    #[test]
    fn due_respects_interval() {
        let cfg = CheckpointConfig { interval: 100, max_checkpoints: 8, ..Default::default() };
        let b = CheckpointBuilder::new(&cfg);
        assert_eq!(b.next_due(0), 100);
        assert_eq!(b.next_due(99), 100);
        assert_eq!(b.next_due(100), 200);
        assert_eq!(b.next_due(650), 700);
    }
}
