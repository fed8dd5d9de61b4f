//! Output checks and failure accounting.
//!
//! The operations are artifacts prepared plus trials run. An operation
//! fails when it panics; when an artifact's golden output differs from the
//! IR interpreter's on the uninstrumented module; when a campaign's
//! (crash, SOC, benign, simulated cycles) row differs from the exact
//! oracle's, which replays every trial's `(target_dyn, seed)` through
//! `PreparedTool::run_trial_exact` (step engine, no checkpoint); or when
//! any row or machine counter of a repeated round drifts from the
//! reference pass.

use crate::rounds::{self, Facts, Prepared, Row};
use refine_benchmarks::BenchProgram;
use refine_campaign::engine::{EngineConfig, EngineHooks};
use refine_campaign::{classify, format_events, Golden, Outcome, PreparedTool};
use refine_ir::interp::{Interp, OutEvent as IrEvent};
use refine_ir::Module;
use refine_machine::OutEvent;
use refine_telemetry::{TraceSink, TrialTrace};
use std::fmt::Display;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Dynamic IR-instruction budget of a reference interpretation.
const INTERP_FUEL: u64 = 1 << 32;
/// Threads replaying trials through the exact oracle.
const ORACLE_THREADS: usize = 2;

/// Operations attempted and failed.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count `n` operations as attempted.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Mark `n` already attempted operations as failed.
    pub fn fail(&mut self, n: u64, why: impl Display) {
        self.failed += n;
        eprintln!("perfbench: FAILED ({n} operations): {why}");
    }
}

/// The verified first pass of a run. It is never timed and it warms the
/// process before measured rounds begin.
pub struct Reference {
    pub modules: Vec<Arc<Module>>,
    pub prepared: Prepared,
    /// The sweep's exact facts; every later sweep must repeat them.
    pub facts: Facts,
    /// One provenance record per trial of the sweep.
    pub records: Vec<TrialTrace>,
}

/// Compile and prepare the suite, check every golden output against the
/// IR interpreter, run one sweep recording each trial's
/// `(target_dyn, seed)`, and check every campaign row against the exact
/// oracle's replay of those pairs.
pub fn reference_pass(
    suite: &[BenchProgram],
    cfg: &EngineConfig,
    tally: &mut Tally,
) -> Result<Reference, String> {
    let modules = rounds::compile_suite(suite, tally).ok_or("the suite does not compile")?;
    let prepared =
        rounds::prepare(suite, &modules, cfg, tally).ok_or("an artifact failed to prepare")?;
    for (i, (b, m)) in suite.iter().zip(&modules).enumerate() {
        let want = interp_golden(m);
        for p in &prepared.artifacts[3 * i..3 * i + 3] {
            match &want {
                Ok(g) if *g == p.golden => {}
                Ok(_) => tally.fail(
                    1,
                    format!("{}/{}: golden != IR interpreter", b.name, p.tool.name()),
                ),
                Err(e) => tally.fail(1, format!("{}: IR interpreter: {e}", b.name)),
            }
        }
    }

    let (sink, buffer) = TraceSink::in_memory();
    let hooks = EngineHooks {
        sink: Some(&sink),
        progress: None,
    };
    let report =
        rounds::sweep(&prepared, cfg, &hooks, tally).ok_or("the reference sweep panicked")?;
    sink.flush().map_err(|e| format!("trace sink: {e}"))?;
    let records = buffer.records()?;
    let facts = Facts::of(&report);
    let t = Instant::now();
    let oracle = oracle_rows(&prepared, &records, cfg.trials);
    eprintln!(
        "perfbench: exact oracle replayed {} trials in {:.1} s",
        records.len(),
        t.elapsed().as_secs_f64()
    );
    for (i, (got, want)) in facts.rows.iter().zip(&oracle).enumerate() {
        let c = &prepared.campaigns[i];
        match want {
            Ok(w) if w == got => {}
            Ok(w) => tally.fail(
                cfg.trials,
                format!(
                    "{}/{}: row {got:?} != exact oracle {w:?}",
                    c.app,
                    c.tool.name()
                ),
            ),
            Err(e) => tally.fail(cfg.trials, format!("{}/{}: {e}", c.app, c.tool.name())),
        }
    }
    eprintln!("perfbench: exact-facts digest {:#018x}", facts.digest());
    Ok(Reference {
        modules,
        prepared,
        facts,
        records,
    })
}

/// Fail every campaign of a repeated sweep whose row or counters differ
/// from the reference pass's.
pub fn check_repeat(reference: &Facts, got: &Facts, trials: u64, tally: &mut Tally) {
    for i in 0..reference.rows.len() {
        if reference.rows[i] != got.rows[i] || reference.counters[i] != got.counters[i] {
            tally.fail(
                trials,
                format!(
                    "campaign {i} drifted: row {:?} / {:?}, counters {:?} / {:?}",
                    reference.rows[i], got.rows[i], reference.counters[i], got.counters[i]
                ),
            );
        }
    }
}

/// Golden output of the IR interpreter on the uninstrumented module.
fn interp_golden(m: &Module) -> Result<Golden, String> {
    let r = catch_unwind(AssertUnwindSafe(|| Interp::new(m, INTERP_FUEL).run()))
        .map_err(|_| "panicked".to_string())?
        .map_err(|e| e.to_string())?;
    let events: Vec<OutEvent> = r
        .output
        .into_iter()
        .map(|e| match e {
            IrEvent::I64(v) => OutEvent::I64(v),
            IrEvent::F64(v) => OutEvent::F64(v),
            IrEvent::Str(s) => OutEvent::Str(s),
        })
        .collect();
    Ok(Golden {
        lines: format_events(&events),
        exit_code: r.exit_code,
    })
}

/// Each campaign's row as the exact oracle computes it from the recorded
/// trials, or why it could not be computed. Campaigns are spread over
/// [`ORACLE_THREADS`] threads: the oracle is untimed, and this halves the
/// wall time it adds to a run on a two-core machine.
fn oracle_rows(p: &Prepared, records: &[TrialTrace], trials: u64) -> Vec<Result<Row, String>> {
    let mut by_campaign: Vec<Vec<&TrialTrace>> = vec![Vec::new(); p.campaigns.len()];
    for rec in records {
        match p.campaign_of(rec) {
            Some(i) => by_campaign[i].push(rec),
            None => {
                let why = format!("trace record of unknown campaign {}/{}", rec.app, rec.tool);
                return vec![Err(why); p.campaigns.len()];
            }
        }
    }
    let next = AtomicUsize::new(0);
    let mut rows: Vec<Result<Row, String>> = vec![Ok([0; 4]); p.campaigns.len()];
    let done: Vec<Vec<(usize, Result<Row, String>)>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..ORACLE_THREADS)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(recs) = by_campaign.get(i) else {
                            return out;
                        };
                        out.push((i, oracle_row(&p.artifacts[i], recs, trials)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("oracle threads catch trial panics"))
            .collect()
    });
    for (i, row) in done.into_iter().flatten() {
        rows[i] = row;
    }
    rows
}

/// One campaign's oracle row; every trial index must be recorded once.
fn oracle_row(art: &PreparedTool, recs: &[&TrialTrace], trials: u64) -> Result<Row, String> {
    let mut seen = vec![false; trials as usize];
    let mut row = [0; 4];
    for rec in recs {
        match seen.get_mut(rec.trial as usize) {
            Some(s) if !*s => *s = true,
            _ => {
                return Err(format!(
                    "trial {} recorded twice or out of range",
                    rec.trial
                ))
            }
        }
        let t = catch_unwind(AssertUnwindSafe(|| {
            art.run_trial_exact(rec.target_dyn, rec.seed)
        }))
        .map_err(|_| format!("exact oracle panicked on trial {}", rec.trial))?;
        let k = match classify(&art.golden, &t.result) {
            Outcome::Crash => 0,
            Outcome::Soc => 1,
            Outcome::Benign => 2,
        };
        row[k] += 1;
        row[3] += t.result.cycles;
    }
    if seen.iter().all(|&s| s) {
        Ok(row)
    } else {
        Err("some trials were never recorded".into())
    }
}
