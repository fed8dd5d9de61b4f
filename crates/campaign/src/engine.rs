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
//!    once per `(program, tool, opt config)` key; every trial then executes
//!    from a shared immutable [`PreparedTool`] behind an `Arc` (the
//!    [`refine_machine::Binary`] shared-image contract).

use crate::campaign::{execute_trial, program_salt, CampaignResult, OutcomeCounts};
use crate::classify::Outcome;
use crate::tools::{PreparedTool, Tool};
use refine_core::ExecEngine;
use refine_ir::passes::OptLevel;
use refine_ir::Module;
use refine_telemetry::{Phase, Progress, Span, TraceSink};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Default number of trial indices a worker claims per cursor fetch.
/// Large enough to keep cursor contention negligible, small enough that
/// the tail of the sweep still load-balances.
pub const DEFAULT_BATCH: u64 = 16;

/// Identity of an instrumented artifact: the program, the tool, and the
/// complete compile-side configuration. Two equal keys are guaranteed to
/// produce behaviourally identical artifacts, so trials may share one.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ArtifactKey {
    /// Benchmark name.
    pub app: String,
    /// Injection tool.
    pub tool: Tool,
    /// IR optimization level.
    pub opt: OptLevel,
    /// Fingerprint of the tool's FI configuration
    /// ([`refine_core::FiOptions::fingerprint`] and friends).
    pub fi_sig: u64,
}

impl ArtifactKey {
    /// The key for [`PreparedTool::prepare`]'s standard configuration
    /// (O2 + the paper's evaluation flags for each tool).
    pub fn standard(app: &str, tool: Tool) -> ArtifactKey {
        let fi_sig = match tool {
            Tool::Refine => refine_core::FiOptions::all().fingerprint(),
            Tool::Llfi => refine_llfi::LlfiOptions::default().fingerprint(),
            // PINFI runs the uninstrumented binary; its behaviour-shaping
            // configuration is the DBI attachment itself.
            Tool::Pinfi => refine_core::fnv1a_continue(
                refine_core::FiOptions::default().fingerprint(),
                &refine_pinfi::config_fingerprint().to_le_bytes(),
            ),
        };
        ArtifactKey { app: app.to_string(), tool, opt: OptLevel::O2, fi_sig }
    }
}

/// Instrumented-artifact cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
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
            let reg = refine_telemetry::registry();
            reg.artifact_cache_misses.incr();
            reg.artifact_prepare_ns.record(ns);
            (prepared, ns)
        });
        if built {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
            refine_telemetry::registry().artifact_cache_hits.incr();
        }
        Arc::clone(artifact)
    }

    /// Wall-clock nanoseconds this cache spent preparing `key` (`None`
    /// when the key was never prepared here, e.g. pre-prepared artifacts
    /// or a hit against an older cache generation).
    pub fn prepare_ns_of(&self, key: &ArtifactKey) -> Option<u64> {
        let slot = {
            let slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
            Arc::clone(slots.get(key)?)
        };
        slot.get().map(|(_, ns)| *ns)
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

/// Engine scheduling parameters.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Trials per campaign.
    pub trials: u64,
    /// Sweep seed.
    pub seed: u64,
    /// Worker jobs (0 = available parallelism).
    pub jobs: usize,
    /// Trial indices claimed per cursor fetch.
    pub batch: u64,
    /// Capture golden-run checkpoints on artifact prepare and fast-forward
    /// trials through them. Bit-identical either way.
    pub checkpoint: bool,
    /// Detect post-injection golden convergence at checkpoint boundaries
    /// and splice the golden outcome. Bit-identical either way; rides on
    /// `checkpoint` (ignored when checkpointing is off).
    pub convergence: bool,
    /// Initial checkpoint interval in retired instructions (must be
    /// nonzero; `--checkpoint-interval`).
    pub checkpoint_interval: u64,
    /// Trial execution engine (the fused engine or the exact oracle).
    /// Bit-identical either way; outside the artifact-cache key.
    pub engine: ExecEngine,
}

impl EngineConfig {
    /// Engine parameters for a [`crate::campaign::CampaignConfig`].
    pub fn from_campaign(cfg: &crate::campaign::CampaignConfig) -> EngineConfig {
        EngineConfig {
            trials: cfg.trials,
            seed: cfg.seed,
            jobs: cfg.jobs,
            batch: DEFAULT_BATCH,
            checkpoint: cfg.checkpoint,
            convergence: cfg.convergence,
            checkpoint_interval: cfg.checkpoint_interval,
            engine: cfg.engine,
        }
    }

    /// The checkpointing knobs this engine config prepares artifacts with.
    pub fn checkpoint_options(&self) -> refine_core::CheckpointOptions {
        assert!(self.checkpoint_interval > 0, "checkpoint interval must be nonzero");
        if self.checkpoint {
            refine_core::CheckpointOptions {
                enabled: true,
                interval: self.checkpoint_interval,
                convergence: self.convergence,
                ..refine_core::CheckpointOptions::default()
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
#[derive(Debug, Clone, Serialize, Deserialize)]
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

/// Per-campaign shared accumulators (workers only ever add).
struct CampaignAccum {
    crash: AtomicU64,
    soc: AtomicU64,
    benign: AtomicU64,
    cycles: AtomicU64,
    busy_ns: AtomicU64,
    done: AtomicU64,
    first_ns: AtomicU64,
    last_ns: AtomicU64,
    restores: AtomicU64,
    skipped_instrs: AtomicU64,
    conv_hits: AtomicU64,
    conv_checked_instrs: AtomicU64,
    conv_saved_instrs: AtomicU64,
    sb_dispatches: AtomicU64,
    sb_fused_instrs: AtomicU64,
    sb_stepped_instrs: AtomicU64,
}

impl CampaignAccum {
    fn new() -> CampaignAccum {
        CampaignAccum {
            crash: AtomicU64::new(0),
            soc: AtomicU64::new(0),
            benign: AtomicU64::new(0),
            cycles: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            done: AtomicU64::new(0),
            first_ns: AtomicU64::new(u64::MAX),
            last_ns: AtomicU64::new(0),
            restores: AtomicU64::new(0),
            skipped_instrs: AtomicU64::new(0),
            conv_hits: AtomicU64::new(0),
            conv_checked_instrs: AtomicU64::new(0),
            conv_saved_instrs: AtomicU64::new(0),
            sb_dispatches: AtomicU64::new(0),
            sb_fused_instrs: AtomicU64::new(0),
            sb_stepped_instrs: AtomicU64::new(0),
        }
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
    let accums: Vec<CampaignAccum> = campaigns.iter().map(|_| CampaignAccum::new()).collect();

    if let Some(p) = hooks.progress {
        p.set_campaigns(campaigns.len() as u64);
    }

    let cursor = AtomicU64::new(0);
    let start = Instant::now();
    let elapsed_ns = || start.elapsed().as_nanos().min(u64::MAX as u128) as u64;

    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| {
                // Last-used campaign memo: trials are claimed in index
                // order, so batches overwhelmingly stay within a campaign.
                let mut current: Option<(usize, Arc<PreparedTool>)> = None;
                loop {
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
                        let acc = &accums[ci];
                        acc.first_ns.fetch_min(elapsed_ns(), Ordering::Relaxed);
                        let t0 = Instant::now();
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
                        let busy = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                        match outcome {
                            Outcome::Crash => &acc.crash,
                            Outcome::Soc => &acc.soc,
                            Outcome::Benign => &acc.benign,
                        }
                        .fetch_add(1, Ordering::Relaxed);
                        acc.cycles.fetch_add(cycles, Ordering::Relaxed);
                        acc.busy_ns.fetch_add(busy, Ordering::Relaxed);
                        if fast.restored {
                            acc.restores.fetch_add(1, Ordering::Relaxed);
                            acc.skipped_instrs.fetch_add(fast.skipped_instrs, Ordering::Relaxed);
                        }
                        if fast.converged {
                            acc.conv_hits.fetch_add(1, Ordering::Relaxed);
                            acc.conv_saved_instrs
                                .fetch_add(fast.conv_saved_instrs, Ordering::Relaxed);
                        }
                        acc.conv_checked_instrs
                            .fetch_add(fast.conv_checked_instrs, Ordering::Relaxed);
                        acc.sb_dispatches.fetch_add(fast.sb_dispatches, Ordering::Relaxed);
                        acc.sb_fused_instrs.fetch_add(fast.sb_fused_instrs, Ordering::Relaxed);
                        acc.sb_stepped_instrs
                            .fetch_add(fast.sb_stepped_instrs, Ordering::Relaxed);
                        acc.last_ns.fetch_max(elapsed_ns(), Ordering::Relaxed);
                        if acc.done.fetch_add(1, Ordering::Relaxed) + 1 == cfg.trials {
                            if let Some(p) = hooks.progress {
                                p.campaign_finished();
                            }
                        }
                    }
                }
            });
        }
    });
    let wall_ns = elapsed_ns();

    let mut results = Vec::with_capacity(campaigns.len());
    let mut stats = Vec::with_capacity(campaigns.len());
    let mut busy_total = 0u64;
    for (i, c) in campaigns.iter().enumerate() {
        let acc = &accums[i];
        let prepared = match &c.source {
            ArtifactSource::Prepared(p) => Arc::clone(p),
            // Every campaign ran at least one trial, so the slot is filled;
            // this lookup is a cache hit by construction.
            ArtifactSource::Module(m) => cache.get_or_prepare(&keys[i], || {
                PreparedTool::prepare_opt(m, c.tool, &cfg.checkpoint_options())
            }),
        };
        let prepare_ms = match &c.source {
            ArtifactSource::Prepared(_) => 0.0,
            ArtifactSource::Module(_) => {
                cache.prepare_ns_of(&keys[i]).unwrap_or(0) as f64 / 1e6
            }
        };
        results.push(CampaignResult {
            tool: c.tool.name().to_string(),
            counts: OutcomeCounts {
                crash: acc.crash.load(Ordering::Relaxed),
                soc: acc.soc.load(Ordering::Relaxed),
                benign: acc.benign.load(Ordering::Relaxed),
            },
            total_cycles: acc.cycles.load(Ordering::Relaxed),
            population: prepared.population,
            profile_cycles: prepared.profile_cycles,
        });
        let busy = acc.busy_ns.load(Ordering::Relaxed);
        let first = acc.first_ns.load(Ordering::Relaxed);
        let last = acc.last_ns.load(Ordering::Relaxed);
        let wall = last.saturating_sub(first.min(last));
        busy_total += busy;
        stats.push(CampaignStats {
            app: c.app.clone(),
            tool: c.tool.name().to_string(),
            busy_ns: busy,
            wall_ns: wall,
            speedup: if wall == 0 { 0.0 } else { busy as f64 / wall as f64 },
            prepare_ms,
            ckpt_restores: acc.restores.load(Ordering::Relaxed),
            ckpt_skipped_instrs: acc.skipped_instrs.load(Ordering::Relaxed),
            conv_hits: acc.conv_hits.load(Ordering::Relaxed),
            conv_checked_instrs: acc.conv_checked_instrs.load(Ordering::Relaxed),
            conv_saved_instrs: acc.conv_saved_instrs.load(Ordering::Relaxed),
            sb_dispatches: acc.sb_dispatches.load(Ordering::Relaxed),
            sb_fused_instrs: acc.sb_fused_instrs.load(Ordering::Relaxed),
            sb_stepped_instrs: acc.sb_stepped_instrs.load(Ordering::Relaxed),
        });
    }

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
        EngineConfig {
            trials,
            seed,
            jobs,
            batch,
            checkpoint: true,
            convergence: true,
            checkpoint_interval: refine_machine::CheckpointConfig::default().interval,
            engine: ExecEngine::default(),
        }
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

    #[test]
    fn sweep_is_jobs_invariant() {
        let specs = sweep_specs();
        let base = test_cfg(24, 42, 1, 4);
        let a = run_sweep(&specs, &base, &ArtifactCache::new(), &EngineHooks::default());
        for jobs in [2, 5, 8] {
            let cfg = EngineConfig { jobs, ..base };
            let b = run_sweep(&specs, &cfg, &ArtifactCache::new(), &EngineHooks::default());
            for (x, y) in a.results.iter().zip(&b.results) {
                assert_eq!(x.counts, y.counts, "jobs={jobs}");
                assert_eq!(x.total_cycles, y.total_cycles, "jobs={jobs}");
                assert_eq!(x.population, y.population, "jobs={jobs}");
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
