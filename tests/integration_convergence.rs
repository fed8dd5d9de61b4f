//! Golden-convergence early-exit equivalence: detecting that a fired trial's
//! state has re-converged with the golden run and splicing the golden
//! remainder must be a *bit-identical* replacement for executing the suffix
//! — same outcome tables, same fault records, same trace streams — at every
//! jobs count and for all three tools (the DESIGN.md convergence-semantics
//! invariant, end to end).

use proptest::prelude::*;
use refine_campaign::classify::{classify, Outcome};
use refine_campaign::engine::EngineConfig;
use refine_campaign::experiments::{run_suite, SuiteObserver, SuiteResults};
use refine_campaign::tools::{PreparedTool, Tool};
use refine_core::CheckpointOptions;
use refine_telemetry::{TraceSink, TrialTrace};

const TRIALS: u64 = 4;

/// The full evaluation set: the paper's 14-app suite plus the matmul extra.
fn all_apps() -> Vec<String> {
    refine_benchmarks::all()
        .iter()
        .map(|b| b.name.to_string())
        .chain(["matmul".to_string()])
        .collect()
}

/// Run the whole-suite sweep (checkpointing always on) and return the
/// outcome tables plus the trace records sorted by (app, tool, trial id).
fn sweep(jobs: usize, convergence: bool) -> (SuiteResults, Vec<TrialTrace>) {
    let cfg = EngineConfig {
        trials: TRIALS,
        seed: 0xC09E,
        jobs,
        convergence,
        ..EngineConfig::default()
    };
    let (sink, buf) = TraceSink::in_memory();
    let apps = all_apps();
    let (suite, _report) = {
        let obs = SuiteObserver { live_progress: false, sink: Some(&sink) };
        run_suite(&cfg, Some(&apps), &obs)
    };
    sink.flush().unwrap();
    drop(sink);
    let mut records = buf.records().unwrap();
    records.sort_by(|a, b| (&a.app, &a.tool, a.trial).cmp(&(&b.app, &b.tool, b.trial)));
    (suite, records)
}

/// The tentpole acceptance check: with convergence detection on (default)
/// and off (`--no-convergence`), the 15-app x 3-tool sweep produces
/// byte-identical outcome tables and identical trace records, at `--jobs 1`
/// and `--jobs 4`.
#[test]
fn convergence_on_off_sweeps_are_bit_identical() {
    for jobs in [1usize, 4] {
        let (table_on, recs_on) = sweep(jobs, true);
        let (table_off, recs_off) = sweep(jobs, false);
        assert_eq!(table_on, table_off, "outcome table diverged at jobs={jobs}");
        assert_eq!(recs_on.len(), recs_off.len(), "trace count diverged at jobs={jobs}");
        for (a, b) in recs_on.iter().zip(&recs_off) {
            assert_eq!(a, b, "trace record diverged at jobs={jobs}");
        }
    }
}

/// The early exit actually fires (it is an optimization, not dead code):
/// across a spread of mid-run targets on a real benchmark, at least one
/// REFINE and one PINFI trial must converge, and every converged trial must
/// classify as benign with exactly the golden output — a converged trial
/// that were anything else (in particular SOC) would mean the state
/// comparison matched a state that was not actually golden.
#[test]
fn converged_trials_are_benign_and_convergence_fires() {
    let m = refine_benchmarks::by_name("HPCCG-1.0").unwrap().module();
    for tool in [Tool::Refine, Tool::Pinfi] {
        let p = PreparedTool::prepare(&m, tool);
        let mut hits = 0u64;
        for k in 1..=24u64 {
            let target = (p.population * k / 25).max(1);
            let t = p.run_trial_full(target, 0x5EED + k);
            let outcome = classify(&p.golden, &t.result);
            if t.fast.converged {
                hits += 1;
                assert!(t.fast.conv_saved_instrs > 0, "{}: convergence saved nothing", tool.name());
                assert_eq!(
                    outcome,
                    Outcome::Benign,
                    "{}: converged trial (target={target}) not benign",
                    tool.name()
                );
            }
            // The contrapositive of the splice guarantee: SOC and crash
            // verdicts are only ever produced by real execution.
            if outcome == Outcome::Soc {
                assert!(!t.fast.converged, "{}: SOC trial spliced as golden", tool.name());
            }
        }
        assert!(hits > 0, "{}: no trial converged on HPCCG-1.0", tool.name());
    }
}

/// `--no-convergence` (checkpoints still on) must not run the convergence
/// loop at all: no trial reports a hit and no instructions are checked.
#[test]
fn no_convergence_disables_the_detector() {
    let m = refine_benchmarks::by_name("HPCCG-1.0").unwrap().module();
    let opts = CheckpointOptions { convergence: false, ..CheckpointOptions::default() };
    let p = PreparedTool::prepare_opt(&m, Tool::Refine, &opts);
    for k in 1..=6u64 {
        let t = p.run_trial_full((p.population * k / 7).max(1), 0x0FF + k);
        assert!(!t.fast.converged);
        assert_eq!(t.fast.conv_checked_instrs, 0);
        assert_eq!(t.fast.conv_saved_instrs, 0);
    }
}

/// Per-trial differential harness: prepare one kernel with a custom
/// checkpoint interval (convergence on) and compare the fast path against
/// the exact path at one (target, seed) point — outcome, output, cycles,
/// retired count and fault record must all match bit-for-bit whether or not
/// the trial converged.
fn assert_trial_equivalence(name: &str, src: &str, interval: u64, frac: f64, seed: u64) {
    let m = refine_frontend::compile_source(src)
        .unwrap_or_else(|e| panic!("{name}: frontend: {e:?}"));
    let ckpt = CheckpointOptions { interval, convergence: true, ..CheckpointOptions::default() };
    for tool in Tool::all() {
        let p = PreparedTool::prepare_opt(&m, tool, &ckpt);
        let target = ((p.population as f64 * frac) as u64).max(1);
        let fast = p.run_trial_full(target, seed);
        let exact = p.run_trial_exact(target, seed);
        let ctx = format!("{name} {} K={interval} target={target} seed={seed}", tool.name());
        assert_eq!(fast.result.outcome, exact.result.outcome, "{ctx}: outcome");
        assert_eq!(fast.result.output, exact.result.output, "{ctx}: output");
        assert_eq!(fast.result.cycles, exact.result.cycles, "{ctx}: cycles");
        assert_eq!(
            fast.result.instrs_retired, exact.result.instrs_retired,
            "{ctx}: instrs_retired"
        );
        assert_eq!(fast.log, exact.log, "{ctx}: fault record");
    }
}

/// The 4-kernel differential corpus (a subset of `integration_checkpoint`'s;
/// that suite owns the checkpoint-only oracle, this one drives the same
/// oracle with the convergence loop armed).
const CORPUS: [(&str, &str); 4] = [
    (
        "float_reduction",
        "fvar v[32];\n\
         fn main() {\n\
           for (i = 0; i < 32; i = i + 1) { v[i] = float(i * 3 + 1) * 0.37; }\n\
           let s: float = 0.0;\n\
           let p: float = 1.0;\n\
           for (i = 0; i < 32; i = i + 1) {\n\
             s = s + sqrt(v[i]);\n\
             if (i % 7 == 0) { p = p * (1.0 + v[i] * 0.01); }\n\
           }\n\
           print_f(s);\n\
           print_f(p);\n\
           return 0;\n\
         }",
    ),
    (
        "lcg_minmax",
        "var seedg;\n\
         fn lcg() { seedg = (seedg * 1103515245 + 12345) % 2147483648; return seedg; }\n\
         fn main() {\n\
           seedg = 7;\n\
           let mx = 0;\n\
           let mn = 2147483648;\n\
           let sum = 0;\n\
           for (i = 0; i < 64; i = i + 1) {\n\
             let x = lcg() % 1000;\n\
             if (x > mx) { mx = x; }\n\
             if (x < mn) { mn = x; }\n\
             sum = sum + x;\n\
           }\n\
           print_i(mx);\n\
           print_i(mn);\n\
           print_i(sum);\n\
           return 0;\n\
         }",
    ),
    (
        "triangular",
        "var a[30];\n\
         fn main() {\n\
           for (i = 0; i < 30; i = i + 1) { a[i] = i * i - 7 * i + 3; }\n\
           let s = 0;\n\
           for (i = 0; i < 30; i = i + 1) {\n\
             for (j = i; j < 30; j = j + 1) { s = s + a[i] * a[j] % 97; }\n\
           }\n\
           print_i(s);\n\
           print_s(\"done\");\n\
           return 0;\n\
         }",
    ),
    (
        "dot_and_norm",
        "fvar x[24];\n\
         fvar y[24];\n\
         fn dot() : float {\n\
           let d: float = 0.0;\n\
           for (i = 0; i < 24; i = i + 1) { d = d + x[i] * y[i]; }\n\
           return d;\n\
         }\n\
         fn main() {\n\
           for (i = 0; i < 24; i = i + 1) {\n\
             x[i] = float(i + 1) * 0.2;\n\
             y[i] = float(24 - i) * 0.3;\n\
           }\n\
           print_f(dot());\n\
           print_f(sqrt(dot()));\n\
           return 0;\n\
         }",
    ),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random (kernel, checkpoint interval, target fraction, seed) points
    /// with the convergence loop armed: small intervals make snapshot
    /// triggers dense (maximum chance of a state comparison), large ones
    /// leave the loop cold; early/late/past-population targets cover
    /// fired-and-converged, fired-and-diverged and never-fired trials. The
    /// fast path must equal the exact path everywhere.
    #[test]
    fn prop_convergent_and_exact_trials_match(
        kernel in 0usize..4,
        interval in 1u64..4000,
        frac in 0.0f64..1.2,
        seed in 0u64..1_000_000,
    ) {
        let (name, src) = CORPUS[kernel];
        assert_trial_equivalence(name, src, interval, frac, seed);
    }
}
