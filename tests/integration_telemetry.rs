//! End-to-end observability: a small campaign over every tool streams one
//! provenance record per trial, and the aggregated trace agrees with the
//! campaign's own outcome counts.

use refine_campaign::campaign::{run_campaign, OutcomeCounts};
use refine_campaign::engine::{ArtifactSource, EngineCampaign, EngineConfig, EngineHooks};
use refine_campaign::tools::{PreparedTool, Tool};
use refine_telemetry::trace::{read_jsonl, TraceSummary};
use refine_telemetry::{Progress, TraceSink};
use std::sync::Arc;

const TRIALS: u64 = 32;

#[test]
fn traced_campaign_emits_one_record_per_trial() {
    refine_telemetry::enable();
    let module = refine_benchmarks::by_name("matmul").expect("matmul extra exists").module();
    let cfg = EngineConfig { trials: TRIALS, seed: 0xC0FFEE, jobs: 2, ..EngineConfig::default() };

    let dir = std::env::temp_dir().join("refine-telemetry-integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("trace-{}.jsonl", std::process::id()));

    let mut by_tool_counts: Vec<(String, OutcomeCounts)> = Vec::new();
    {
        let sink = TraceSink::to_file(&path).unwrap();
        for tool in Tool::all() {
            let campaign = EngineCampaign {
                app: "matmul".into(),
                tool,
                source: ArtifactSource::Prepared(Arc::new(PreparedTool::prepare(&module, tool))),
            };
            let progress = Progress::new(TRIALS, true);
            let hooks = EngineHooks { sink: Some(&sink), progress: Some(&progress) };
            let r = run_campaign(&campaign, &cfg, &hooks);
            assert_eq!(r.counts.total(), TRIALS);
            assert_eq!(progress.done(), TRIALS, "progress counts every trial");
            by_tool_counts.push((tool.name().to_lowercase(), r.counts));
        }
        sink.flush().unwrap();
    }

    let records = read_jsonl(&path).unwrap();
    assert_eq!(
        records.len() as u64,
        TRIALS * 3,
        "exactly one trace line per trial per tool"
    );

    for (tool, counts) in &by_tool_counts {
        let recs: Vec<_> = records.iter().filter(|r| &r.tool == tool).collect();
        assert_eq!(recs.len() as u64, TRIALS, "{tool}");

        // Trial indices are complete and unique.
        let mut trials: Vec<u64> = recs.iter().map(|r| r.trial).collect();
        trials.sort_unstable();
        assert_eq!(trials, (0..TRIALS).collect::<Vec<_>>(), "{tool}");

        // Trace outcomes reproduce the campaign's counts exactly.
        let count_of = |label: &str| recs.iter().filter(|r| r.outcome == label).count() as u64;
        assert_eq!(count_of("crash"), counts.crash, "{tool} crash");
        assert_eq!(count_of("soc"), counts.soc, "{tool} soc");
        assert_eq!(count_of("benign"), counts.benign, "{tool} benign");
    }

    // Provenance is populated whenever the fault fired: a site always has
    // an opcode label and a bit position.
    let fired: Vec<_> = records.iter().filter(|r| r.site.is_some()).collect();
    assert!(
        fired.len() > records.len() / 2,
        "most injections fire ({} of {})",
        fired.len(),
        records.len()
    );
    for r in &fired {
        assert!(r.opcode.is_some(), "fired fault must carry an opcode: {r:?}");
        assert!(r.bit.is_some());
        assert!(r.bit.unwrap() < 64);
    }
    // Crash records carry a trap cause unless the crash was a bad exit code.
    for r in records.iter().filter(|r| r.outcome == "crash") {
        if let Some(t) = &r.trap {
            assert!(
                ["segfault", "misaligned", "div-fault", "bad-pc", "timeout"]
                    .contains(&t.as_str()),
                "unexpected trap cause {t}"
            );
        }
    }

    // The aggregator sees the same totals.
    let summary = TraceSummary::from_records(&records);
    assert_eq!(summary.total, TRIALS * 3);
    assert_eq!(summary.no_injection, (records.len() - fired.len()) as u64);
    for (tool, counts) in &by_tool_counts {
        let t = &summary.by_tool[tool];
        assert_eq!((t.crash, t.soc, t.benign), (counts.crash, counts.soc, counts.benign));
    }
    let table = summary.render();
    assert!(table.contains("tool"), "rendered table has a header");

    // The metrics registry observed every trial, and compile phases were
    // timed (prepare ran the full pipeline under spans).
    let snap = refine_telemetry::registry().snapshot();
    assert!(snap.trial_latency_ns.count >= TRIALS * 3);
    assert!(snap.trial_instrs.count >= TRIALS * 3);
    assert!(snap.trial_cycles.count >= TRIALS * 3);
    let phases = &snap.phases;
    for needed in ["lex", "parse", "isel", "regalloc", "emit", "fi-refine-pass", "fi-llfi-pass"] {
        assert!(
            phases.phases.iter().any(|p| p.name == needed && p.calls > 0),
            "phase {needed} must have been timed"
        );
    }

    std::fs::remove_file(&path).ok();
}

#[test]
fn untraced_campaign_is_unchanged_by_observers() {
    // Attaching pure observers (sink, progress) must not change results:
    // identical counts and cycles for an identical campaign identity. The
    // app name is part of that identity — it salts the per-trial fault
    // streams (`program_salt`) — so it is held fixed here.
    let module = refine_benchmarks::by_name("matmul").unwrap().module();
    let cfg = EngineConfig { trials: 16, seed: 9, jobs: 2, ..EngineConfig::default() };
    let prepared = Arc::new(PreparedTool::prepare(&module, Tool::Refine));
    let named = |app: &str| EngineCampaign {
        app: app.into(),
        tool: Tool::Refine,
        source: ArtifactSource::Prepared(Arc::clone(&prepared)),
    };

    let plain = run_campaign(&named("matmul"), &cfg, &EngineHooks::default());
    let sink_dir = std::env::temp_dir().join("refine-telemetry-integration");
    std::fs::create_dir_all(&sink_dir).unwrap();
    let path = sink_dir.join(format!("trace-b-{}.jsonl", std::process::id()));
    let sink = TraceSink::to_file(&path).unwrap();
    let progress = Progress::new(16, true);
    let hooks = EngineHooks { sink: Some(&sink), progress: Some(&progress) };
    let observed = run_campaign(&named("matmul"), &cfg, &hooks);

    assert_eq!(plain.counts, observed.counts);
    assert_eq!(plain.total_cycles, observed.total_cycles);

    // A different app name is a different campaign: independent fault
    // streams even from the same prepared artifact and seed.
    let renamed = run_campaign(&named("matmul-2"), &cfg, &EngineHooks::default());
    assert_ne!(
        (plain.counts, plain.total_cycles),
        (renamed.counts, renamed.total_cycles),
        "program salt must separate streams"
    );
    std::fs::remove_file(&path).ok();
}
