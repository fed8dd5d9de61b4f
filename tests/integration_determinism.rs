//! Sharding-determinism integration: the engine must produce byte-identical
//! outcome tables and trace-record sets at every `--jobs` count (the
//! DESIGN.md deterministic-sharding invariant, end to end).

use refine_campaign::campaign::run_campaign;
use refine_campaign::engine::{
    ArtifactSource, CacheStats, EngineCampaign, EngineConfig, EngineHooks,
};
use refine_campaign::experiments::{run_suite, SuiteObserver, SuiteResults};
use refine_campaign::tools::Tool;
use refine_telemetry::{TraceBuffer, TraceSink, TrialTrace};
use std::collections::HashMap;
use std::sync::Arc;

const TRIALS: u64 = 18;
const APPS: [&str; 2] = ["HPCCG-1.0", "CoMD"];

/// Run the two-app sweep at `jobs` workers and return the outcome tables,
/// the trace records sorted by (app, tool, trial id), and the run's cache
/// statistics.
fn sweep(jobs: usize) -> (SuiteResults, Vec<TrialTrace>, CacheStats) {
    let (sink, buf) = TraceSink::in_memory();
    let apps: Vec<String> = APPS.iter().map(|s| s.to_string()).collect();
    let (suite, report) = {
        let obs = SuiteObserver { live_progress: false, sink: Some(&sink) };
        run_suite(&cfg(jobs), Some(&apps), &obs)
    };
    (suite, sorted_records(sink, &buf), report.cache)
}

fn cfg(jobs: usize) -> EngineConfig {
    EngineConfig { trials: TRIALS, seed: 0xD37, jobs, ..EngineConfig::default() }
}

/// Flush and drop `sink`, then read `buf` back sorted by (app, tool, trial
/// id).
fn sorted_records(sink: TraceSink, buf: &TraceBuffer) -> Vec<TrialTrace> {
    sink.flush().unwrap();
    drop(sink);
    let mut records = buf.records().unwrap();
    records.sort_by(|a, b| (&a.app, &a.tool, a.trial).cmp(&(&b.app, &b.tool, b.trial)));
    records
}

/// The satellite check: `--jobs 1`, `--jobs 4` and `--jobs 8` yield
/// byte-identical outcome tables, and identical trace records once sorted
/// by trial id (arrival order is scheduling-dependent; content is not).
#[test]
fn jobs_counts_are_bit_identical() {
    let (table1, recs1, cache1) = sweep(1);
    for jobs in [4usize, 8] {
        let (table, recs, cache) = sweep(jobs);
        assert_eq!(table1, table, "outcome table changed at jobs={jobs}");
        assert_eq!(recs1.len(), recs.len(), "trace count changed at jobs={jobs}");
        for (a, b) in recs1.iter().zip(&recs) {
            assert_eq!(a, b, "trace record diverged at jobs={jobs}");
        }
        // Cache behaviour is scheduling-dependent in hit counts but never
        // in compile counts: one miss per (app, tool).
        assert_eq!(cache.misses, (APPS.len() * 3) as u64, "jobs={jobs}");
    }
    assert_eq!(cache1.misses, (APPS.len() * 3) as u64);
}

/// The trace stream is complete and duplicate-free: every campaign emits
/// exactly one record per trial id in `0..trials`.
#[test]
fn trace_stream_is_complete_per_campaign() {
    let (_, records, _) = sweep(4);
    assert_eq!(records.len(), APPS.len() * 3 * TRIALS as usize);
    let mut per_campaign: HashMap<(String, String), Vec<u64>> = HashMap::new();
    for r in &records {
        per_campaign.entry((r.app.clone(), r.tool.clone())).or_default().push(r.trial);
    }
    assert_eq!(per_campaign.len(), APPS.len() * 3);
    for ((app, tool), mut trials) in per_campaign {
        trials.sort_unstable();
        assert_eq!(
            trials,
            (0..TRIALS).collect::<Vec<u64>>(),
            "{app}/{tool}: missing or duplicated trial ids"
        );
    }
}

/// Trace seeds are a pure function of (campaign seed, app, tool, trial):
/// the same trial id never shares a fault-model seed across apps or tools
/// (independent streams), yet is stable across runs.
#[test]
fn trial_streams_are_independent_and_stable() {
    let (_, a, _) = sweep(4);
    let (_, b, _) = sweep(8);
    let seeds_a: Vec<u64> = a.iter().map(|r| r.seed).collect();
    let seeds_b: Vec<u64> = b.iter().map(|r| r.seed).collect();
    assert_eq!(seeds_a, seeds_b);
    // Same trial id, different (app, tool) => different stream.
    let mut by_trial: HashMap<u64, Vec<u64>> = HashMap::new();
    for r in &a {
        by_trial.entry(r.trial).or_default().push(r.seed);
    }
    for (trial, seeds) in by_trial {
        let mut uniq = seeds.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), seeds.len(), "trial {trial}: colliding streams");
    }
}

/// A campaign run alone names its program, so CoMD's campaign under its
/// own name is bit for bit the CoMD campaign of the suite sweep with the
/// same seed: result (counts, cycles, population) and every trace record.
/// The same module under another name draws a different trace stream.
#[test]
fn named_campaign_matches_its_suite_campaign() {
    let (suite, suite_records, _) = sweep(2);
    let comd = suite.apps.iter().find(|a| a.name == "CoMD").unwrap();
    let module = Arc::new(refine_benchmarks::by_name("CoMD").unwrap().module());
    let alone = |app: &str, tool: Tool| {
        let campaign = EngineCampaign {
            app: app.into(),
            tool,
            source: ArtifactSource::Module(Arc::clone(&module)),
        };
        let (sink, buf) = TraceSink::in_memory();
        let hooks = EngineHooks { sink: Some(&sink), progress: None };
        let result = run_campaign(&campaign, &cfg(2), &hooks);
        (result, sorted_records(sink, &buf))
    };
    for (tool, in_suite) in Tool::all().into_iter().zip(comd.by_tool()) {
        let (result, records) = alone("CoMD", tool);
        assert_eq!(&result, in_suite, "{}", tool.name());
        let tool_name = tool.name().to_lowercase();
        let want: Vec<&TrialTrace> =
            suite_records.iter().filter(|r| r.app == "CoMD" && r.tool == tool_name).collect();
        assert_eq!(records.iter().collect::<Vec<_>>(), want, "{}", tool.name());

        let (_, renamed) = alone("CoMD-renamed", tool);
        assert_eq!(renamed.len(), records.len());
        for (a, b) in records.iter().zip(&renamed) {
            assert_ne!(a.seed, b.seed, "{} trial {}: same stream under another name", tool.name(), a.trial);
        }
    }
}
