//! The campaign runner: one (program, tool) pair, `trials` independent
//! single-fault runs classified against the golden output.
//!
//! Since the sharded-engine refactor this module owns the *per-trial*
//! machinery — deterministic stream derivation and single-trial execution —
//! while scheduling lives in [`crate::engine`]: every campaign, serial or
//! sharded, runs through the same work-stealing worker pool, so
//! `run_campaign` is just a one-campaign sweep.
//!
//! Determinism invariant: a trial is a pure function of
//! `(campaign seed, program, tool, trial index)` plus the immutable
//! prepared artifact. Worker identity, claim order, jobs count and cache
//! state never enter the derivation, so any sharding produces bit-identical
//! outcome tables.

use crate::classify::{classify, Outcome};
use crate::engine::{run_sweep, ArtifactCache, ArtifactSource, EngineCampaign, EngineHooks};
use crate::tools::{PreparedTool, Tool};
use refine_core::ExecEngine;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use refine_ir::Module;
use refine_machine::RunOutcome;
use refine_telemetry::{OutcomeKind, Progress, TraceSink, TrialTrace};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

/// Outcome frequencies of a campaign (one row of the paper's Table 6).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutcomeCounts {
    /// Crashes (traps, non-zero exits, timeouts).
    pub crash: u64,
    /// Silent output corruptions.
    pub soc: u64,
    /// Benign runs.
    pub benign: u64,
}

impl OutcomeCounts {
    /// Total trials.
    pub fn total(&self) -> u64 {
        self.crash + self.soc + self.benign
    }

    /// Record one outcome.
    pub fn add(&mut self, o: Outcome) {
        match o {
            Outcome::Crash => self.crash += 1,
            Outcome::Soc => self.soc += 1,
            Outcome::Benign => self.benign += 1,
        }
    }

    /// As a `[crash, soc, benign]` row for chi-squared testing.
    pub fn row(&self) -> Vec<u64> {
        vec![self.crash, self.soc, self.benign]
    }

    /// Percentages `[crash, soc, benign]`.
    pub fn percentages(&self) -> [f64; 3] {
        let t = self.total().max(1) as f64;
        [
            100.0 * self.crash as f64 / t,
            100.0 * self.soc as f64 / t,
            100.0 * self.benign as f64 / t,
        ]
    }
}

/// Campaign parameters.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Number of fault-injection trials (the paper uses 1,068).
    pub trials: u64,
    /// Master seed; different seeds give independent samples.
    pub seed: u64,
    /// Worker jobs (0 = all available cores). Any value produces identical
    /// outcome tables; it only changes wall-clock time.
    pub jobs: usize,
    /// Golden-run checkpoint fast-forward for trials (`--no-checkpoint`
    /// turns it off). On or off, campaigns are bit-identical; off only
    /// costs wall-clock time.
    pub checkpoint: bool,
    /// Post-injection golden-convergence early exit (`--no-convergence`
    /// turns it off). Like `checkpoint`, never changes campaign results.
    pub convergence: bool,
    /// Initial golden-run snapshot interval in retired instructions
    /// (`--checkpoint-interval`; must be nonzero).
    pub checkpoint_interval: u64,
    /// Trial execution engine (`--engine {superblock,step}`): the fused
    /// engine, or the exact oracle, which ignores `checkpoint` and
    /// `convergence`. Both are bit-identical; like `checkpoint`, this only
    /// changes wall-clock time and stays outside the artifact-cache key.
    pub engine: ExecEngine,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            trials: 1068,
            seed: 0xB1ADE,
            jobs: 0,
            checkpoint: true,
            convergence: true,
            checkpoint_interval: refine_machine::CheckpointConfig::default().interval,
            engine: ExecEngine::default(),
        }
    }
}

/// A completed campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignResult {
    /// Tool name.
    pub tool: String,
    /// Outcome frequencies.
    pub counts: OutcomeCounts,
    /// Total simulated cycles across all trials (the Figure 5 metric:
    /// campaign "execution time", where crashed runs end early).
    pub total_cycles: u64,
    /// Dynamic FI-target population.
    pub population: u64,
    /// Profiled execution cycles (also the 10x-timeout basis).
    pub profile_cycles: u64,
}

/// Stable per-program stream salt: mixes the benchmark name into every
/// trial stream so campaigns on different programs draw independent fault
/// samples even under one sweep seed.
pub fn program_salt(app: &str) -> u64 {
    refine_core::fnv1a(app.as_bytes())
}

/// Per-trial seeding: independent streams per (seed, program, tool, trial).
fn trial_stream(seed: u64, app_salt: u64, tool: Tool, trial: u64) -> (u64, u64) {
    let tool_id = match tool {
        Tool::Llfi => 1u64,
        Tool::Refine => 2,
        Tool::Pinfi => 3,
    };
    let mut h = seed ^ app_salt.rotate_left(32) ^ (tool_id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    h ^= trial.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    // splitmix64 finalizer
    let mut z = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z, z.rotate_left(17) ^ 0xDEAD_BEEF_CAFE_F00D)
}

fn outcome_kind(o: Outcome) -> OutcomeKind {
    match o {
        Outcome::Crash => OutcomeKind::Crash,
        Outcome::Soc => OutcomeKind::Soc,
        Outcome::Benign => OutcomeKind::Benign,
    }
}

/// Execute one trial of a campaign: derive the fault-model stream, run the
/// injection against the shared immutable artifact, classify, and feed the
/// observers. This is the single trial path shared by every scheduler.
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute_trial(
    prepared: &PreparedTool,
    engine: ExecEngine,
    app: &str,
    app_salt: u64,
    campaign_seed: u64,
    trial: u64,
    sink: Option<&TraceSink>,
    progress: Option<&Progress>,
) -> (Outcome, u64, crate::tools::TrialFastStats) {
    let (s1, s2) = trial_stream(campaign_seed, app_salt, prepared.tool, trial);
    let mut rng = StdRng::seed_from_u64(s1);
    let target = rng.gen_range(1..=prepared.population);
    // Skip the clock read unless someone consumes it.
    let t0 = refine_telemetry::enabled().then(Instant::now);
    let t = prepared.run_trial_engine(engine, target, s2);
    let (r, log, fast) = (t.result, t.log, t.fast);
    let outcome = classify(&prepared.golden, &r);
    {
        let reg = refine_telemetry::registry();
        if fast.restored {
            reg.checkpoint_restores.incr();
            reg.checkpoint_skipped_instrs.record(fast.skipped_instrs);
        } else {
            reg.checkpoint_cold.incr();
        }
        if fast.converged {
            reg.convergence_hits.incr();
            reg.convergence_saved_instrs.record(fast.conv_saved_instrs);
        }
        if fast.conv_checked_instrs > 0 {
            reg.convergence_checked_instrs.record(fast.conv_checked_instrs);
        }
        if fast.sb_dispatches > 0 {
            reg.superblock_dispatches.add(fast.sb_dispatches);
        }
        reg.superblock_fused_instrs.add(fast.sb_fused_instrs);
        reg.superblock_total_instrs.add(fast.sb_fused_instrs + fast.sb_stepped_instrs);
    }

    let trap = match r.outcome {
        RunOutcome::Trap(t) => Some(t.name()),
        RunOutcome::Timeout => Some("timeout"),
        RunOutcome::Exit(_) => None,
    };
    let kind = outcome_kind(outcome);
    if let Some(t0) = t0 {
        let ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        refine_telemetry::registry().record_trial(ns, r.instrs_retired, r.cycles, kind, trap);
    }
    if let Some(p) = progress {
        p.record(kind);
    }
    if let Some(sink) = sink {
        let rec = TrialTrace {
            app: app.to_string(),
            tool: prepared.tool.name().to_lowercase(),
            trial,
            seed: s2,
            target_dyn: target,
            site: log.map(|l| l.site),
            opcode: log.as_ref().and_then(|l| prepared.site_opcode(l)),
            operand: log.map(|l| l.operand as u64),
            bit: log.map(|l| l.bit as u64),
            outcome: match outcome {
                Outcome::Crash => "crash",
                Outcome::Soc => "soc",
                Outcome::Benign => "benign",
            }
            .to_string(),
            trap: trap.map(str::to_string),
            cycles: r.cycles,
            instrs: r.instrs_retired,
        };
        if let Err(e) = sink.write(&rec) {
            eprintln!("trace sink write failed: {e}");
        }
    }
    (outcome, r.cycles, fast)
}

/// Run a full campaign of `cfg.trials` single-fault runs.
pub fn run_campaign(module: &Module, tool: Tool, cfg: &CampaignConfig) -> CampaignResult {
    let ckpt = crate::engine::EngineConfig::from_campaign(cfg).checkpoint_options();
    let prepared = PreparedTool::prepare_opt(module, tool, &ckpt);
    run_campaign_prepared(&prepared, cfg)
}

/// Observer hooks for a campaign: all optional, shared across workers.
/// Trial metrics additionally flow into [`refine_telemetry::registry`]
/// whenever telemetry is enabled, hooks or not.
#[derive(Default)]
pub struct CampaignHooks<'a> {
    /// Benchmark name stamped into trace records (and mixed into the
    /// per-trial streams via [`program_salt`]).
    pub app: &'a str,
    /// Per-trial provenance sink (`--trace-out`).
    pub sink: Option<&'a TraceSink>,
    /// Live progress reporter.
    pub progress: Option<&'a Progress>,
}

/// Run a campaign against an already-prepared tool (lets callers share the
/// compile+profile work across experiments).
pub fn run_campaign_prepared(prepared: &PreparedTool, cfg: &CampaignConfig) -> CampaignResult {
    run_campaign_observed(prepared, cfg, &CampaignHooks::default())
}

/// [`run_campaign_prepared`] with observer hooks: per-trial provenance
/// records, live progress, and (when telemetry is enabled) latency /
/// instruction-count / trap-cause metrics.
///
/// Scheduling is the sharded engine's: a one-campaign sweep over a
/// work-stealing worker pool sharing the prepared artifact immutably.
pub fn run_campaign_observed(
    prepared: &PreparedTool,
    cfg: &CampaignConfig,
    hooks: &CampaignHooks<'_>,
) -> CampaignResult {
    let spec = EngineCampaign {
        app: hooks.app.to_string(),
        tool: prepared.tool,
        source: ArtifactSource::Prepared(Arc::new(prepared.clone())),
    };
    let cache = ArtifactCache::new();
    let ehooks = EngineHooks { sink: hooks.sink, progress: hooks.progress };
    let mut report = run_sweep(
        std::slice::from_ref(&spec),
        &crate::engine::EngineConfig::from_campaign(cfg),
        &cache,
        &ehooks,
    );
    report.results.pop().expect("one-campaign sweep yields one result")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_module() -> Module {
        refine_frontend::compile_source(
            "fvar a[16];\n\
             fn main() {\n\
               for (i = 0; i < 16; i = i + 1) { a[i] = float(i) * 1.5 + 1.0; }\n\
               let s: float = 0.0;\n\
               for (i = 0; i < 16; i = i + 1) { s = s + sqrt(a[i]); }\n\
               print_f(s);\n\
               return 0;\n\
             }",
        )
        .unwrap()
    }

    #[test]
    fn campaign_totals_match_trials() {
        let m = tiny_module();
        let cfg = CampaignConfig { trials: 40, seed: 7, jobs: 2, checkpoint: true, ..CampaignConfig::default() };
        for tool in Tool::all() {
            let r = run_campaign(&m, tool, &cfg);
            assert_eq!(r.counts.total(), 40, "{}", tool.name());
            assert!(r.total_cycles > 0);
        }
    }

    #[test]
    fn campaigns_are_reproducible() {
        let m = tiny_module();
        let cfg = CampaignConfig { trials: 30, seed: 99, jobs: 3, checkpoint: true, ..CampaignConfig::default() };
        let a = run_campaign(&m, Tool::Refine, &cfg);
        let b = run_campaign(&m, Tool::Refine, &cfg);
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.total_cycles, b.total_cycles);
        // Jobs count must not change the result (trial-indexed streams).
        let c = run_campaign(&m, Tool::Refine, &CampaignConfig { jobs: 1, ..cfg });
        assert_eq!(a.counts, c.counts);
    }

    #[test]
    fn different_seeds_differ() {
        let m = tiny_module();
        let a = run_campaign(
            &m,
            Tool::Pinfi,
            &CampaignConfig { trials: 60, seed: 1, jobs: 2, checkpoint: true, ..CampaignConfig::default() },
        );
        let b = run_campaign(
            &m,
            Tool::Pinfi,
            &CampaignConfig { trials: 60, seed: 2, jobs: 2, checkpoint: true, ..CampaignConfig::default() },
        );
        assert_ne!((a.counts.crash, a.counts.soc), (b.counts.crash, b.counts.soc));
    }

    #[test]
    fn program_salt_distinguishes_apps() {
        assert_ne!(program_salt("CoMD"), program_salt("HPCCG-1.0"));
        assert_eq!(program_salt("CoMD"), program_salt("CoMD"));
        // Salted streams differ across apps for the same (seed, tool, trial).
        let a = trial_stream(7, program_salt("CoMD"), Tool::Refine, 3);
        let b = trial_stream(7, program_salt("HPCCG-1.0"), Tool::Refine, 3);
        assert_ne!(a, b);
    }

    #[test]
    fn outcome_counts_helpers() {
        let mut c = OutcomeCounts::default();
        c.add(Outcome::Crash);
        c.add(Outcome::Soc);
        c.add(Outcome::Benign);
        c.add(Outcome::Benign);
        assert_eq!(c.total(), 4);
        assert_eq!(c.row(), vec![1, 1, 2]);
        let p = c.percentages();
        assert_eq!(p[2], 50.0);
    }
}
