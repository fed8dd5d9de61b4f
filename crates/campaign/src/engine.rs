//! The parallel sharded campaign engine — the reproduction of the paper's
//! *speed* claim at campaign scale.
//!
//! A sweep flattens its whole trial space `(program, tool, trial)` into one
//! index range and shards it across a worker pool. Work stealing is a
//! single shared atomic cursor: workers claim fixed-size batches of trial
//! indices with `fetch_add`, so a worker stuck on an expensive trial simply
//! claims fewer batches while the rest of the pool drains the space — no
//! per-worker queues, no rebalancing protocol.
//!
//! Two properties make this safe and fast:
//!
//! 1. **Determinism** — each trial's fault-model RNG derives from
//!    `(sweep seed, program, tool, trial index)` alone (see
//!    [`crate::campaign::program_salt`]); worker identity, claim order and
//!    cache state never enter the derivation, so *any* jobs count produces
//!    bit-identical outcome tables and trace-record multisets.
//! 2. **Artifact caching** — the full pipeline
//!    lex→parse→lower→opt→isel→regalloc→finalize→instrument→profile runs
//!    once per `(program, tool)` key; every trial then executes
//!    from a shared immutable [`PreparedTool`] behind an `Arc` (the
//!    [`refine_machine::Binary`] shared-image contract).

use crate::campaign::{execute_trial, program_salt, CampaignResult, OutcomeCounts};
use crate::classify::Outcome;
use crate::tools::{PreparedTool, Tool, TrialFastStats};
use refine_core::ExecEngine;
use refine_ir::Module;
use refine_telemetry::{Phase, Progress, Span, TraceSink};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Default number of trial indices a worker claims per cursor fetch.
/// Large enough to keep cursor contention negligible, small enough that
/// the tail of the sweep still load-balances.
pub const DEFAULT_BATCH: u64 = 16;

/// Identity of a cached artifact: the program and the tool. A sweep fills
/// its cache only through [`PreparedTool::prepare_opt`], whose compile
/// configuration (O2 and the tool's evaluation flags) is fixed per tool,
/// so two equal keys name one artifact; an artifact of custom flags
/// bypasses the cache ([`ArtifactSource::Prepared`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ArtifactKey {
    /// Benchmark name.
    pub app: String,
    /// Injection tool.
    pub tool: Tool,
}

impl ArtifactKey {
    /// The key of `app`'s standard artifact for `tool`.
    pub fn standard(app: &str, tool: Tool) -> ArtifactKey {
        ArtifactKey { app: app.to_string(), tool }
    }
}

/// Instrumented-artifact cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from an already-prepared artifact.
    pub hits: u64,
    /// Lookups that ran the full compile+instrument+profile pipeline.
    pub misses: u64,
    /// Wall-clock nanoseconds spent preparing artifacts (misses only).
    pub prepare_ns: u64,
}

impl CacheStats {
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

/// A cache slot: the prepared artifact plus the nanoseconds it took to
/// build.
type CacheSlot = Arc<OnceLock<(Arc<PreparedTool>, u64)>>;

/// Concurrent demand-filled cache of prepared artifacts.
///
/// Each key owns a `OnceLock` slot: the first worker to need an artifact
/// prepares it exactly once while any other worker needing the same key
/// blocks on the slot (rather than duplicating a multi-millisecond
/// compile), and everyone afterwards shares the `Arc` immutably.
#[derive(Default)]
pub struct ArtifactCache {
    slots: Mutex<HashMap<ArtifactKey, CacheSlot>>,
    hits: AtomicU64,
    misses: AtomicU64,
    prepare_ns: AtomicU64,
}

impl ArtifactCache {
    /// New empty cache.
    pub fn new() -> ArtifactCache {
        ArtifactCache::default()
    }

    /// Fetch the artifact for `key`, running `build` (once, process-wide
    /// per cache) if nobody has prepared it yet.
    pub fn get_or_prepare(
        &self,
        key: &ArtifactKey,
        build: impl FnOnce() -> PreparedTool,
    ) -> Arc<PreparedTool> {
        let slot = {
            let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
            Arc::clone(slots.entry(key.clone()).or_default())
        };
        let mut built = false;
        let (artifact, _) = slot.get_or_init(|| {
            built = true;
            let _span = Span::enter(Phase::PrepareArtifact);
            let t0 = Instant::now();
            let prepared = Arc::new(build());
            let ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            self.prepare_ns.fetch_add(ns, Ordering::Relaxed);
            (prepared, ns)
        });
        let counter = if built { &self.misses } else { &self.hits };
        counter.fetch_add(1, Ordering::Relaxed);
        Arc::clone(artifact)
    }

    /// The artifact prepared for `key` and the wall-clock nanoseconds
    /// this cache spent preparing it, without counting a lookup (`None`
    /// when the key was never prepared here, e.g. pre-prepared artifacts).
    pub fn peek(&self, key: &ArtifactKey) -> Option<(Arc<PreparedTool>, u64)> {
        let slot = {
            let slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
            Arc::clone(slots.get(key)?)
        };
        slot.get().map(|(p, ns)| (Arc::clone(p), *ns))
    }

    /// Artifacts currently resident.
    pub fn len(&self) -> usize {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            prepare_ns: self.prepare_ns.load(Ordering::Relaxed),
        }
    }
}

/// How an engine campaign obtains its instrumented artifact.
pub enum ArtifactSource {
    /// Compile + instrument + profile from this module on first demand,
    /// through the sweep's [`ArtifactCache`].
    Module(Arc<Module>),
    /// An artifact prepared ahead of time; shared directly, bypassing the
    /// cache (it is already the shared immutable image).
    Prepared(Arc<PreparedTool>),
}

/// One campaign of a sweep: a (program, tool) pair.
pub struct EngineCampaign {
    /// Benchmark name (stamped into traces, mixed into trial streams).
    pub app: String,
    /// Injection tool.
    pub tool: Tool,
    /// Where the instrumented artifact comes from.
    pub source: ArtifactSource,
}

/// The one campaign configuration: what every sweep, suite and single
/// campaign runs with. [`EngineConfig::default`] is the paper's design
/// (1,068 trials per campaign) with every fast path on.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Trials per campaign (the paper uses 1,068).
    pub trials: u64,
    /// Sweep seed; different seeds give independent samples.
    pub seed: u64,
    /// Worker jobs (0 = available parallelism). Any value produces
    /// identical outcome tables; it only changes wall-clock time.
    pub jobs: usize,
    /// Trial indices claimed per cursor fetch.
    pub batch: u64,
    /// Capture golden-run checkpoints on artifact prepare and fast-forward
    /// trials through them (`--no-checkpoint` clears it). Bit-identical
    /// either way.
    pub checkpoint: bool,
    /// Detect post-injection golden convergence at checkpoint boundaries
    /// and splice the golden outcome (`--no-convergence` clears it).
    /// Bit-identical either way; rides on `checkpoint` (ignored when
    /// checkpointing is off).
    pub convergence: bool,
    /// Initial checkpoint interval in retired instructions (must be
    /// nonzero; `--checkpoint-interval`).
    pub checkpoint_interval: u64,
    /// Trial execution engine (`--engine`): the fused engine, or the exact
    /// oracle, which ignores `checkpoint` and `convergence`. Bit-identical
    /// either way; outside the artifact-cache key.
    pub engine: ExecEngine,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            trials: 1068,
            seed: 0xB1ADE,
            jobs: 0,
            batch: DEFAULT_BATCH,
            checkpoint: true,
            convergence: true,
            checkpoint_interval: refine_machine::CheckpointConfig::default().interval,
            engine: ExecEngine::default(),
        }
    }
}

impl EngineConfig {
    /// The checkpointing knobs this engine config prepares artifacts with.
    pub fn checkpoint_options(&self) -> refine_core::CheckpointOptions {
        assert!(self.checkpoint_interval > 0, "checkpoint interval must be nonzero");
        if self.checkpoint {
            refine_core::CheckpointOptions {
                enabled: true,
                interval: self.checkpoint_interval,
                convergence: self.convergence,
            }
        } else {
            refine_core::CheckpointOptions::disabled()
        }
    }
}

/// Observer hooks shared by every worker of a sweep.
#[derive(Default)]
pub struct EngineHooks<'a> {
    /// Per-trial provenance sink.
    pub sink: Option<&'a TraceSink>,
    /// Live progress reporter (sweep-level: totals span all campaigns).
    pub progress: Option<&'a Progress>,
}

/// Wall-clock accounting for one campaign inside a sweep.
#[derive(Debug, Clone)]
pub struct CampaignStats {
    /// Benchmark name.
    pub app: String,
    /// Tool name.
    pub tool: String,
    /// Summed wall-clock nanoseconds of this campaign's trials (the serial
    /// cost of the same work).
    pub busy_ns: u64,
    /// Nanoseconds from the campaign's first trial claim to its last trial
    /// completion within the sweep.
    pub wall_ns: u64,
    /// `busy_ns / wall_ns`: the campaign's effective parallel speedup over
    /// running the same trials serially.
    pub speedup: f64,
    /// Wall-clock milliseconds spent preparing this campaign's artifact
    /// (compile + instrument + profile; 0.0 for cache hits and
    /// pre-prepared artifacts).
    pub prepare_ms: f64,
    /// Trials that fast-forwarded from a golden-run checkpoint.
    pub ckpt_restores: u64,
    /// Dynamic instructions those restores skipped, summed.
    pub ckpt_skipped_instrs: u64,
    /// Trials that converged back onto the golden run post-injection and
    /// spliced its outcome.
    pub conv_hits: u64,
    /// Dynamic instructions executed post-injection while checking for
    /// convergence, summed.
    pub conv_checked_instrs: u64,
    /// Dynamic instructions convergence splices skipped, summed.
    pub conv_saved_instrs: u64,
    /// Fused superblock dispatches across this campaign's trials.
    pub sb_dispatches: u64,
    /// µops those dispatches ran, summed.
    pub sb_uops: u64,
    /// Dynamic instructions retired inside fused superblocks, summed.
    pub sb_fused_instrs: u64,
    /// Dynamic instructions retired by the engine's exact-step fallback
    /// (FI windows, snapshot boundaries, budget edges), summed.
    pub sb_stepped_instrs: u64,
}

/// A completed sweep: per-campaign results plus scheduling accounting.
pub struct EngineReport {
    /// Campaign results, in input order.
    pub results: Vec<CampaignResult>,
    /// Per-campaign wall-clock accounting, parallel to `results`.
    pub stats: Vec<CampaignStats>,
    /// Sweep wall-clock nanoseconds (pool start to pool join).
    pub wall_ns: u64,
    /// Summed trial-execution nanoseconds across all workers.
    pub busy_ns: u64,
    /// Worker count actually used.
    pub jobs: usize,
    /// Artifact-cache statistics for this sweep.
    pub cache: CacheStats,
}

impl EngineReport {
    /// Sweep-level effective speedup: `busy_ns / wall_ns` (1.0 ≈ serial;
    /// approaches the jobs count when trials dominate and workers stay
    /// saturated).
    pub fn speedup(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.busy_ns as f64 / self.wall_ns as f64
        }
    }

    /// `busy_ns` capped at `jobs * wall_ns`. Under OS oversubscription the
    /// raw per-trial clock sums can exceed what `jobs` workers could have
    /// executed in `wall_ns` (threads accrue wall time while descheduled),
    /// which made the raw `speedup` overshoot the worker count. The cap is
    /// the physical ceiling.
    pub fn busy_capped(&self) -> u64 {
        self.busy_ns.min((self.jobs as u64).saturating_mul(self.wall_ns))
    }

    /// Effective speedup from the capped busy time: never exceeds the
    /// worker count. See [`EngineReport::busy_capped`].
    pub fn speedup_capped(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.busy_capped() as f64 / self.wall_ns as f64
        }
    }
}

/// One campaign's sums over the trials one worker ran. Every worker keeps
/// one per campaign; [`run_sweep`] adds them up after the join. [`Tally::add`]
/// is the only place a trial's work is counted.
#[derive(Clone, Copy)]
struct Tally {
    counts: OutcomeCounts,
    cycles: u64,
    busy_ns: u64,
    /// Sweep-relative start of the earliest trial (`u64::MAX` before any).
    first_ns: u64,
    /// Sweep-relative end of the latest trial.
    last_ns: u64,
    ckpt_restores: u64,
    ckpt_skipped_instrs: u64,
    conv_hits: u64,
    conv_checked_instrs: u64,
    conv_saved_instrs: u64,
    sb_dispatches: u64,
    sb_uops: u64,
    sb_fused_instrs: u64,
    sb_stepped_instrs: u64,
}

impl Default for Tally {
    fn default() -> Tally {
        Tally {
            counts: OutcomeCounts::default(),
            cycles: 0,
            busy_ns: 0,
            first_ns: u64::MAX,
            last_ns: 0,
            ckpt_restores: 0,
            ckpt_skipped_instrs: 0,
            conv_hits: 0,
            conv_checked_instrs: 0,
            conv_saved_instrs: 0,
            sb_dispatches: 0,
            sb_uops: 0,
            sb_fused_instrs: 0,
            sb_stepped_instrs: 0,
        }
    }
}

impl Tally {
    /// Count one trial that ran from `start_ns` to `end_ns` of the sweep.
    fn add(
        &mut self,
        outcome: Outcome,
        cycles: u64,
        start_ns: u64,
        end_ns: u64,
        fast: &TrialFastStats,
    ) {
        // Destructured so a new `TrialFastStats` field fails to compile here.
        let TrialFastStats {
            restored,
            skipped_instrs,
            converged,
            conv_checked_instrs,
            conv_saved_instrs,
            sb_dispatches,
            sb_uops,
            sb_fused_instrs,
            sb_stepped_instrs,
        } = *fast;
        self.counts.add(outcome);
        self.cycles += cycles;
        self.busy_ns += end_ns - start_ns;
        self.first_ns = self.first_ns.min(start_ns);
        self.last_ns = self.last_ns.max(end_ns);
        // `skipped_instrs` is 0 on a cold start and `conv_saved_instrs` is 0
        // without a splice, so both add unconditionally.
        self.ckpt_restores += u64::from(restored);
        self.ckpt_skipped_instrs += skipped_instrs;
        self.conv_hits += u64::from(converged);
        self.conv_checked_instrs += conv_checked_instrs;
        self.conv_saved_instrs += conv_saved_instrs;
        self.sb_dispatches += sb_dispatches;
        self.sb_uops += sb_uops;
        self.sb_fused_instrs += sb_fused_instrs;
        self.sb_stepped_instrs += sb_stepped_instrs;
    }

    /// Add another worker's tally of the same campaign.
    fn merge(&mut self, o: &Tally) {
        self.counts.crash += o.counts.crash;
        self.counts.soc += o.counts.soc;
        self.counts.benign += o.counts.benign;
        self.cycles += o.cycles;
        self.busy_ns += o.busy_ns;
        self.first_ns = self.first_ns.min(o.first_ns);
        self.last_ns = self.last_ns.max(o.last_ns);
        self.ckpt_restores += o.ckpt_restores;
        self.ckpt_skipped_instrs += o.ckpt_skipped_instrs;
        self.conv_hits += o.conv_hits;
        self.conv_checked_instrs += o.conv_checked_instrs;
        self.conv_saved_instrs += o.conv_saved_instrs;
        self.sb_dispatches += o.sb_dispatches;
        self.sb_uops += o.sb_uops;
        self.sb_fused_instrs += o.sb_fused_instrs;
        self.sb_stepped_instrs += o.sb_stepped_instrs;
    }
}

/// The jobs count actually used for a sweep of `total` trials.
pub fn effective_jobs(requested: usize, total: u64) -> usize {
    let jobs = if requested == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
    } else {
        requested
    };
    jobs.min(total.max(1) as usize).max(1)
}

/// Run a sweep of campaigns over the shared worker pool.
///
/// Every campaign runs `cfg.trials` trials; trial `t` of campaign `i` is
/// global index `i * cfg.trials + t`. Workers claim `cfg.batch` indices at
/// a time from the shared cursor and resolve the owning campaign's
/// artifact through `cache` (memoizing the last-used campaign locally, so
/// the cache lock is touched only on campaign boundaries).
///
/// Once `hooks.sink` has failed, workers claim no further batch: the
/// report then holds the trials run so far, and a campaign that never
/// started reports zero population and profile cycles. The caller learns
/// of the failure from [`TraceSink::flush`].
pub fn run_sweep(
    campaigns: &[EngineCampaign],
    cfg: &EngineConfig,
    cache: &ArtifactCache,
    hooks: &EngineHooks<'_>,
) -> EngineReport {
    assert!(!campaigns.is_empty(), "sweep needs at least one campaign");
    assert!(cfg.trials > 0, "sweep needs at least one trial per campaign");
    let total = campaigns.len() as u64 * cfg.trials;
    let jobs = effective_jobs(cfg.jobs, total);
    let batch = cfg.batch.max(1);

    let keys: Vec<ArtifactKey> =
        campaigns.iter().map(|c| ArtifactKey::standard(&c.app, c.tool)).collect();
    let salts: Vec<u64> = campaigns.iter().map(|c| program_salt(&c.app)).collect();
    // Trials finished per campaign, shared only to tell `Progress` when a
    // campaign completes; every sum lives in the workers' tallies.
    let done: Vec<AtomicU64> = campaigns.iter().map(|_| AtomicU64::new(0)).collect();

    if let Some(p) = hooks.progress {
        p.set_campaigns(campaigns.len() as u64);
    }

    let cursor = AtomicU64::new(0);
    let start = Instant::now();
    let elapsed_ns = || start.elapsed().as_nanos().min(u64::MAX as u128) as u64;

    let mut tallies = vec![Tally::default(); campaigns.len()];
    std::thread::scope(|scope| {
        let mut workers = Vec::with_capacity(jobs);
        for _ in 0..jobs {
            workers.push(scope.spawn(|| {
                let mut own = vec![Tally::default(); campaigns.len()];
                // Last-used campaign memo: trials are claimed in index
                // order, so batches overwhelmingly stay within a campaign.
                let mut current: Option<(usize, Arc<PreparedTool>)> = None;
                loop {
                    // A failed sink records nothing more: stop claiming.
                    if hooks.sink.is_some_and(TraceSink::failed) {
                        break;
                    }
                    let lo = cursor.fetch_add(batch, Ordering::Relaxed);
                    if lo >= total {
                        break;
                    }
                    let hi = (lo + batch).min(total);
                    for idx in lo..hi {
                        let ci = (idx / cfg.trials) as usize;
                        let trial = idx % cfg.trials;
                        let prepared = match &current {
                            Some((c, p)) if *c == ci => Arc::clone(p),
                            _ => {
                                let p = match &campaigns[ci].source {
                                    ArtifactSource::Prepared(p) => Arc::clone(p),
                                    ArtifactSource::Module(m) => cache
                                        .get_or_prepare(&keys[ci], || {
                                            PreparedTool::prepare_opt(
                                                m,
                                                campaigns[ci].tool,
                                                &cfg.checkpoint_options(),
                                            )
                                        }),
                                };
                                current = Some((ci, Arc::clone(&p)));
                                p
                            }
                        };
                        let t0 = elapsed_ns();
                        let (outcome, cycles, fast) = execute_trial(
                            &prepared,
                            cfg.engine,
                            &campaigns[ci].app,
                            salts[ci],
                            cfg.seed,
                            trial,
                            hooks.sink,
                            hooks.progress,
                        );
                        own[ci].add(outcome, cycles, t0, elapsed_ns(), &fast);
                        if done[ci].fetch_add(1, Ordering::Relaxed) + 1 == cfg.trials {
                            if let Some(p) = hooks.progress {
                                p.campaign_finished();
                            }
                        }
                    }
                }
                own
            }));
        }
        for worker in workers {
            let part = worker.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
            for (t, p) in tallies.iter_mut().zip(&part) {
                t.merge(p);
            }
        }
    });
    let wall_ns = elapsed_ns();

    let mut results = Vec::with_capacity(campaigns.len());
    let mut stats = Vec::with_capacity(campaigns.len());
    for (i, (c, t)) in campaigns.iter().zip(&tallies).enumerate() {
        // A sweep stopped by a failed sink may never have prepared a
        // campaign's artifact; that campaign reports zero facts.
        let prepared = match &c.source {
            ArtifactSource::Prepared(p) => Some((Arc::clone(p), 0)),
            ArtifactSource::Module(_) => cache.peek(&keys[i]),
        };
        let (population, profile_cycles, prepare_ns) =
            prepared.map_or((0, 0, 0), |(p, ns)| (p.population, p.profile_cycles, ns));
        results.push(CampaignResult {
            tool: c.tool.name().to_string(),
            counts: t.counts,
            total_cycles: t.cycles,
            population,
            profile_cycles,
        });
        let wall = t.last_ns.saturating_sub(t.first_ns);
        stats.push(CampaignStats {
            app: c.app.clone(),
            tool: c.tool.name().to_string(),
            busy_ns: t.busy_ns,
            wall_ns: wall,
            speedup: if wall == 0 { 0.0 } else { t.busy_ns as f64 / wall as f64 },
            prepare_ms: prepare_ns as f64 / 1e6,
            ckpt_restores: t.ckpt_restores,
            ckpt_skipped_instrs: t.ckpt_skipped_instrs,
            conv_hits: t.conv_hits,
            conv_checked_instrs: t.conv_checked_instrs,
            conv_saved_instrs: t.conv_saved_instrs,
            sb_dispatches: t.sb_dispatches,
            sb_uops: t.sb_uops,
            sb_fused_instrs: t.sb_fused_instrs,
            sb_stepped_instrs: t.sb_stepped_instrs,
        });
    }
    let busy_total = tallies.iter().map(|t| t.busy_ns).sum();

    EngineReport { results, stats, wall_ns, busy_ns: busy_total, jobs, cache: cache.stats() }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel(scale: u64) -> Arc<Module> {
        Arc::new(
            refine_frontend::compile_source(&format!(
                "fvar v[24];\n\
                 fn main() {{\n\
                   for (i = 0; i < 24; i = i + 1) {{ v[i] = float(i * {scale}) * 0.25 + 1.0; }}\n\
                   let s: float = 0.0;\n\
                   for (r = 0; r < 4; r = r + 1) {{\n\
                     for (i = 0; i < 24; i = i + 1) {{ s = s + sqrt(v[i]) * 0.5; }}\n\
                   }}\n\
                   print_f(s);\n\
                   return 0;\n\
                 }}"
            ))
            .unwrap(),
        )
    }

    fn test_cfg(trials: u64, seed: u64, jobs: usize, batch: u64) -> EngineConfig {
        EngineConfig { trials, seed, jobs, batch, ..EngineConfig::default() }
    }

    fn sweep_specs() -> Vec<EngineCampaign> {
        let m = kernel(3);
        Tool::all()
            .into_iter()
            .map(|tool| EngineCampaign {
                app: "kernel3".into(),
                tool,
                source: ArtifactSource::Module(Arc::clone(&m)),
            })
            .collect()
    }

    /// Every per-campaign work counter of a [`CampaignStats`].
    fn work_counters(s: &CampaignStats) -> [u64; 9] {
        [
            s.ckpt_restores,
            s.ckpt_skipped_instrs,
            s.conv_hits,
            s.conv_checked_instrs,
            s.conv_saved_instrs,
            s.sb_dispatches,
            s.sb_uops,
            s.sb_fused_instrs,
            s.sb_stepped_instrs,
        ]
    }

    #[test]
    fn sweep_is_jobs_invariant() {
        let specs = sweep_specs();
        let base = test_cfg(24, 42, 1, 4);
        let a = run_sweep(&specs, &base, &ArtifactCache::new(), &EngineHooks::default());
        // One worker looks each distinct artifact up once, and reading the
        // results back after the join counts no lookup.
        assert_eq!((a.cache.hits, a.cache.misses), (0, specs.len() as u64));
        // The serial sweep did real work in every counter, so a merge that
        // drops a worker's tally cannot pass by comparing zeros.
        for x in &a.results {
            assert_eq!(x.counts.total(), base.trials, "{}", x.tool);
        }
        let mut sums = [0u64; 8];
        for s in &a.stats {
            sums.iter_mut().zip(work_counters(s)).for_each(|(t, w)| *t += w);
        }
        assert!(sums.iter().all(|&c| c > 0), "a counter never moved: {sums:?}");
        for jobs in [2, 5, 8] {
            let cfg = EngineConfig { jobs, ..base };
            let b = run_sweep(&specs, &cfg, &ArtifactCache::new(), &EngineHooks::default());
            for (x, y) in a.results.iter().zip(&b.results) {
                assert_eq!(x.counts, y.counts, "jobs={jobs}");
                assert_eq!(x.total_cycles, y.total_cycles, "jobs={jobs}");
                assert_eq!(x.population, y.population, "jobs={jobs}");
            }
            for (x, y) in a.stats.iter().zip(&b.stats) {
                assert_eq!(work_counters(x), work_counters(y), "{}/{} jobs={jobs}", x.app, x.tool);
            }
        }
    }

    #[test]
    fn cache_prepares_each_artifact_once() {
        let specs = sweep_specs();
        let cache = ArtifactCache::new();
        let cfg = test_cfg(10, 1, 4, 2);
        let report = run_sweep(&specs, &cfg, &cache, &EngineHooks::default());
        assert_eq!(cache.len(), 3, "one artifact per (program, tool)");
        assert_eq!(report.cache.misses, 3);
        // Re-running the same sweep against the same cache is all hits.
        let report2 = run_sweep(&specs, &cfg, &cache, &EngineHooks::default());
        assert_eq!(report2.cache.misses, 3, "no new compiles");
        assert!(report2.cache.hits > report.cache.hits);
        assert!(report2.cache.hit_rate() > 0.5);
        for (x, y) in report.results.iter().zip(&report2.results) {
            assert_eq!(x.counts, y.counts, "cache reuse must not change outcomes");
        }
    }

    #[test]
    fn report_accounts_wall_and_busy_time() {
        let specs = sweep_specs();
        let cfg = test_cfg(8, 9, 2, 3);
        let r = run_sweep(&specs, &cfg, &ArtifactCache::new(), &EngineHooks::default());
        assert_eq!(r.jobs, 2);
        assert!(r.wall_ns > 0);
        assert!(r.busy_ns > 0);
        assert_eq!(r.stats.len(), 3);
        for s in &r.stats {
            assert!(s.busy_ns > 0, "{}/{}", s.app, s.tool);
            assert!(s.wall_ns >= 1 || s.speedup == 0.0);
            assert_eq!(s.app, "kernel3");
        }
        assert!(r.speedup() > 0.0);
    }

    /// Workers claim no batch once the sink has failed, so a sweep whose
    /// trace cannot be written stops inside its first campaign, and the
    /// campaigns that never started report zeros instead of panicking.
    #[test]
    fn failed_sink_stops_the_sweep() {
        struct Full;
        impl std::io::Write for Full {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::ErrorKind::StorageFull.into())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let specs = sweep_specs();
        let cfg = test_cfg(200, 5, 2, 4);
        let sink = TraceSink::new(Box::new(Full));
        let hooks = EngineHooks { sink: Some(&sink), progress: None };
        let r = run_sweep(&specs, &cfg, &ArtifactCache::new(), &hooks);
        assert!(sink.flush().is_err());
        let ran: u64 = r.results.iter().map(|x| x.counts.total()).sum();
        assert!(0 < ran && ran < cfg.trials, "{ran} of {} trials ran", 3 * cfg.trials);
        let last = &r.results[2];
        assert_eq!((last.counts.total(), last.population, last.profile_cycles), (0, 0, 0));
    }

    #[test]
    fn artifact_keys_separate_tools_and_apps() {
        let a = ArtifactKey::standard("CoMD", Tool::Refine);
        let b = ArtifactKey::standard("CoMD", Tool::Llfi);
        let c = ArtifactKey::standard("CoMD", Tool::Pinfi);
        let d = ArtifactKey::standard("EP", Tool::Refine);
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_ne!(a, d);
        assert_eq!(a, ArtifactKey::standard("CoMD", Tool::Refine));
    }

    #[test]
    fn effective_jobs_clamps() {
        assert_eq!(effective_jobs(8, 3), 3);
        assert_eq!(effective_jobs(2, 100), 2);
        assert!(effective_jobs(0, 1000) >= 1);
        assert_eq!(effective_jobs(5, 0), 1);
    }
}
