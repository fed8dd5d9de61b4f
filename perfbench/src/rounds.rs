//! One end-to-end campaign round — compile, prepare, trial sweep, outcome
//! table and χ² rows — and the exact facts it produces.

use crate::verify::Tally;
use refine_benchmarks::BenchProgram;
use refine_campaign::engine::{
    run_sweep, ArtifactCache, ArtifactKey, ArtifactSource, EngineCampaign, EngineConfig,
    EngineHooks, EngineReport,
};
use refine_campaign::experiments::{table5_rows, AppResults, SuiteResults};
use refine_campaign::{PreparedTool, Tool};
use refine_ir::Module;
use refine_telemetry::TrialTrace;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// One campaign's outcome row: crash, SOC, benign, total simulated cycles.
pub type Row = [u64; 4];

/// One campaign's exact work counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counters {
    pub population: u64,
    pub profile_cycles: u64,
    pub ckpt_restores: u64,
    pub ckpt_skipped_instrs: u64,
    pub conv_hits: u64,
    pub conv_checked_instrs: u64,
    pub conv_saved_instrs: u64,
    pub sb_dispatches: u64,
    pub sb_fused_instrs: u64,
    pub sb_stepped_instrs: u64,
}

/// Everything about a sweep that must repeat bit for bit: the outcome
/// table, the simulated-cycle totals and the machine work counters, one
/// entry per campaign in campaign order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Facts {
    pub rows: Vec<Row>,
    pub counters: Vec<Counters>,
}

impl Facts {
    pub fn of(report: &EngineReport) -> Facts {
        let rows = report
            .results
            .iter()
            .map(|r| {
                [
                    r.counts.crash,
                    r.counts.soc,
                    r.counts.benign,
                    r.total_cycles,
                ]
            })
            .collect();
        let counters = report
            .results
            .iter()
            .zip(&report.stats)
            .map(|(r, s)| Counters {
                population: r.population,
                profile_cycles: r.profile_cycles,
                ckpt_restores: s.ckpt_restores,
                ckpt_skipped_instrs: s.ckpt_skipped_instrs,
                conv_hits: s.conv_hits,
                conv_checked_instrs: s.conv_checked_instrs,
                conv_saved_instrs: s.conv_saved_instrs,
                sb_dispatches: s.sb_dispatches,
                sb_fused_instrs: s.sb_fused_instrs,
                sb_stepped_instrs: s.sb_stepped_instrs,
            })
            .collect();
        Facts { rows, counters }
    }

    /// Trials the sweep ran.
    pub fn trials(&self) -> u64 {
        self.rows.iter().map(|r| r[0] + r[1] + r[2]).sum()
    }

    /// FNV-1a over every fact, printed so runs with one seed can be
    /// compared across processes.
    pub fn digest(&self) -> u64 {
        let mut words = Vec::new();
        for (r, c) in self.rows.iter().zip(&self.counters) {
            words.extend_from_slice(r);
            words.extend_from_slice(&[
                c.population,
                c.profile_cycles,
                c.ckpt_restores,
                c.ckpt_skipped_instrs,
                c.conv_hits,
                c.conv_checked_instrs,
                c.conv_saved_instrs,
                c.sb_dispatches,
                c.sb_fused_instrs,
                c.sb_stepped_instrs,
            ]);
        }
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        refine_core::fnv1a(&bytes)
    }
}

/// Compile every suite program from source; `None` (counted as failed
/// prepares) if the frontend panics or rejects one.
pub fn compile_suite(suite: &[BenchProgram], tally: &mut Tally) -> Option<Vec<Arc<Module>>> {
    let mut modules = Vec::with_capacity(suite.len());
    for b in suite {
        match catch_unwind(|| refine_frontend::compile_source(b.source)) {
            Ok(Ok(m)) => modules.push(Arc::new(m)),
            Ok(Err(e)) => {
                return fail_prepares(suite, tally, &format!("{}: frontend: {e}", b.name))
            }
            Err(_) => {
                return fail_prepares(suite, tally, &format!("{}: frontend panicked", b.name))
            }
        }
    }
    Some(modules)
}

fn fail_prepares<T>(suite: &[BenchProgram], tally: &mut Tally, why: &str) -> Option<T> {
    let n = 3 * suite.len() as u64;
    tally.attempt(n);
    tally.fail(n, why);
    None
}

/// The artifacts of one campaign set, in campaign order (app-major, tools
/// in [`Tool::all`] order), held by a fresh artifact cache.
pub struct Prepared {
    pub cache: ArtifactCache,
    pub campaigns: Vec<EngineCampaign>,
    pub artifacts: Vec<Arc<PreparedTool>>,
}

impl Prepared {
    /// Index of the campaign a trace record belongs to.
    pub fn campaign_of(&self, rec: &TrialTrace) -> Option<usize> {
        self.campaigns
            .iter()
            .position(|c| c.app == rec.app && c.tool.name().eq_ignore_ascii_case(&rec.tool))
    }
}

/// Prepare every (app, tool) artifact into a fresh [`ArtifactCache`] with
/// the sweep's checkpoint options. Each prepare is one operation; `None`
/// when any panicked.
pub fn prepare(
    suite: &[BenchProgram],
    modules: &[Arc<Module>],
    cfg: &EngineConfig,
    tally: &mut Tally,
) -> Option<Prepared> {
    let ckpt = cfg.checkpoint_options();
    let cache = ArtifactCache::new();
    let mut campaigns = Vec::with_capacity(3 * suite.len());
    let mut artifacts = Vec::with_capacity(3 * suite.len());
    let mut ok = true;
    for (b, m) in suite.iter().zip(modules) {
        for tool in Tool::all() {
            tally.attempt(1);
            let key = ArtifactKey::standard(b.name, tool);
            match catch_unwind(AssertUnwindSafe(|| {
                cache.get_or_prepare(&key, || PreparedTool::prepare_opt(m, tool, &ckpt))
            })) {
                Ok(p) => artifacts.push(p),
                Err(_) => {
                    tally.fail(1, format!("{}/{}: prepare panicked", b.name, tool.name()));
                    ok = false;
                }
            }
            campaigns.push(EngineCampaign {
                app: b.name.to_string(),
                tool,
                source: ArtifactSource::Module(Arc::clone(m)),
            });
        }
    }
    ok.then_some(Prepared {
        cache,
        campaigns,
        artifacts,
    })
}

/// Run one trial sweep over prepared artifacts (all cache hits). Its
/// trials are operations; a panic fails all of them.
pub fn sweep(
    p: &Prepared,
    cfg: &EngineConfig,
    hooks: &EngineHooks<'_>,
    tally: &mut Tally,
) -> Option<EngineReport> {
    let trials = p.campaigns.len() as u64 * cfg.trials;
    tally.attempt(trials);
    match catch_unwind(AssertUnwindSafe(|| {
        run_sweep(&p.campaigns, cfg, &p.cache, hooks)
    })) {
        Ok(report) => Some(report),
        Err(_) => {
            tally.fail(trials, "trial sweep panicked");
            None
        }
    }
}

/// The suite's outcome table in the shape the paper's tables take.
pub fn suite_results(suite: &[BenchProgram], report: &EngineReport, trials: u64) -> SuiteResults {
    let apps = suite
        .iter()
        .zip(report.results.chunks_exact(3))
        .map(|(b, r)| AppResults {
            name: b.name.to_string(),
            llfi: r[0].clone(),
            refine: r[1].clone(),
            pinfi: r[2].clone(),
        })
        .collect();
    SuiteResults { apps, trials }
}

/// Wall-clock times of one measured round plus its exact facts.
pub struct Round {
    /// `prepare_opt` over every (app, tool) pair.
    pub setup_s: f64,
    /// The `run_sweep` call over the prepared artifacts.
    pub trials_s: f64,
    /// First `compile_source` to the final table and χ² rows.
    pub campaign_s: f64,
    /// Trials the sweep ran.
    pub trials: u64,
    pub facts: Facts,
}

/// One whole campaign, timed phase by phase. `None` when an operation
/// panicked (already counted in `tally`).
pub fn run_round(suite: &[BenchProgram], cfg: &EngineConfig, tally: &mut Tally) -> Option<Round> {
    let start = Instant::now();
    let modules = compile_suite(suite, tally)?;
    let t = Instant::now();
    let prepared = prepare(suite, &modules, cfg, tally)?;
    let setup_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let report = sweep(&prepared, cfg, &EngineHooks::default(), tally)?;
    let trials_s = t.elapsed().as_secs_f64();
    black_box(table5_rows(&suite_results(suite, &report, cfg.trials)));
    let campaign_s = start.elapsed().as_secs_f64();
    let facts = Facts::of(&report);
    Some(Round {
        setup_s,
        trials_s,
        campaign_s,
        trials: facts.trials(),
        facts,
    })
}
