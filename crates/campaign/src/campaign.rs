//! The campaign runner: one (program, tool) pair, `trials` independent
//! single-fault runs classified against the golden output.
//!
//! This module owns the *per-trial* machinery — deterministic stream
//! derivation and single-trial execution — while scheduling lives in
//! [`crate::engine`]: every campaign, serial or sharded, runs through the
//! same work-stealing worker pool, so [`run_campaign`] is just a
//! one-campaign sweep configured by the engine's own [`EngineConfig`].
//!
//! Determinism invariant: a trial is a pure function of
//! `(campaign seed, program, tool, trial index)` plus the immutable
//! prepared artifact. Worker identity, claim order, jobs count and cache
//! state never enter the derivation, so any sharding produces bit-identical
//! outcome tables.

use crate::classify::{classify, Outcome};
use crate::engine::{run_sweep, ArtifactCache, EngineCampaign, EngineConfig, EngineHooks};
use crate::tools::{PreparedTool, Tool};
use refine_core::ExecEngine;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use refine_machine::RunOutcome;
use refine_telemetry::{OutcomeKind, Progress, TraceSink, TrialTrace};
use std::time::Instant;

/// Outcome frequencies of a campaign (one row of the paper's Table 6).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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

/// A completed campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
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
    let trap = match r.outcome {
        RunOutcome::Trap(t) => Some(t.name()),
        RunOutcome::Timeout => Some("timeout"),
        RunOutcome::Exit(_) => None,
    };
    if let Some(t0) = t0 {
        let ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        refine_telemetry::registry().record_trial(ns, r.instrs_retired, r.cycles, trap);
    }
    if let Some(p) = progress {
        p.record(outcome_kind(outcome));
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
        sink.write(&rec);
    }
    (outcome, r.cycles, fast)
}

/// Run one campaign of `cfg.trials` single-fault runs: a one-campaign
/// [`run_sweep`] with a fresh artifact cache. `campaign.app` names the
/// program; it is stamped into trace records and salts the per-trial
/// streams ([`program_salt`]), so the result equals that campaign's inside
/// any sweep of the same seed. `hooks` attach a provenance sink and live
/// progress.
pub fn run_campaign(
    campaign: &EngineCampaign,
    cfg: &EngineConfig,
    hooks: &EngineHooks<'_>,
) -> CampaignResult {
    let mut report =
        run_sweep(std::slice::from_ref(campaign), cfg, &ArtifactCache::new(), hooks);
    report.results.pop().expect("one-campaign sweep yields one result")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ArtifactSource;
    use refine_ir::Module;
    use std::sync::Arc;

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

    /// The campaign of `tool` on [`tiny_module`], named after its builder.
    fn tiny_campaign(tool: Tool) -> EngineCampaign {
        EngineCampaign {
            app: "tiny_module".into(),
            tool,
            source: ArtifactSource::Module(Arc::new(tiny_module())),
        }
    }

    fn run(tool: Tool, cfg: &EngineConfig) -> CampaignResult {
        run_campaign(&tiny_campaign(tool), cfg, &EngineHooks::default())
    }

    #[test]
    fn campaign_totals_match_trials() {
        let cfg = EngineConfig { trials: 40, seed: 7, jobs: 2, ..EngineConfig::default() };
        for tool in Tool::all() {
            let r = run(tool, &cfg);
            assert_eq!(r.counts.total(), 40, "{}", tool.name());
            assert!(r.total_cycles > 0);
        }
    }

    #[test]
    fn campaigns_are_reproducible() {
        let cfg = EngineConfig { trials: 30, seed: 99, jobs: 3, ..EngineConfig::default() };
        let a = run(Tool::Refine, &cfg);
        let b = run(Tool::Refine, &cfg);
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.total_cycles, b.total_cycles);
        // Jobs count must not change the result (trial-indexed streams).
        let c = run(Tool::Refine, &EngineConfig { jobs: 1, ..cfg });
        assert_eq!(a.counts, c.counts);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = EngineConfig { trials: 60, jobs: 2, ..EngineConfig::default() };
        let a = run(Tool::Pinfi, &EngineConfig { seed: 1, ..cfg });
        let b = run(Tool::Pinfi, &EngineConfig { seed: 2, ..cfg });
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
