//! Reproduction drivers for every table and figure of the paper's
//! evaluation (the per-experiment index of DESIGN.md).

use crate::campaign::{run_campaign, CampaignResult};
use crate::engine::{
    run_sweep, ArtifactCache, ArtifactSource, EngineCampaign, EngineConfig, EngineHooks,
    EngineReport,
};
use crate::tools::{PreparedTool, Tool};
use refine_stats::ci::Z_95;
use refine_stats::{chi2_contingency, proportion_ci, sample_size};
use refine_telemetry::{Progress, TraceSink};
use std::fmt::Write;
use std::sync::Arc;

/// Results of the three tools on one benchmark.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppResults {
    /// Benchmark name.
    pub name: String,
    /// LLFI campaign.
    pub llfi: CampaignResult,
    /// REFINE campaign.
    pub refine: CampaignResult,
    /// PINFI campaign.
    pub pinfi: CampaignResult,
}

impl AppResults {
    /// Results in the paper's column order (LLFI, REFINE, PINFI).
    pub fn by_tool(&self) -> [&CampaignResult; 3] {
        [&self.llfi, &self.refine, &self.pinfi]
    }
}

/// Results of the full 14-benchmark x 3-tool sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuiteResults {
    /// Per-app results in suite order.
    pub apps: Vec<AppResults>,
    /// Trials per campaign.
    pub trials: u64,
}

/// Observability options for a sweep.
#[derive(Default)]
pub struct SuiteObserver<'a> {
    /// Print live per-campaign progress lines (trials/s, ETA, outcome
    /// percentages) on stderr.
    pub live_progress: bool,
    /// Stream one [`refine_telemetry::TrialTrace`] per trial here.
    pub sink: Option<&'a TraceSink>,
}

/// Run campaigns for `apps` (or the whole suite) with all three tools: all
/// `(program, tool)` campaigns form one engine sweep, so trials from
/// different campaigns interleave across the worker pool and each
/// instrumented artifact is prepared exactly once via the
/// [`ArtifactCache`]. Returns the outcome tables in input order with the
/// [`EngineReport`] (wall-clock, speedup and cache accounting). `obs` adds
/// live progress reporting and per-trial provenance streaming. Accepts any
/// benchmark [`refine_benchmarks::lookup`] knows, including the extras
/// outside the paper's 14-app suite.
pub fn run_suite(
    cfg: &EngineConfig,
    apps: Option<&[String]>,
    obs: &SuiteObserver<'_>,
) -> (SuiteResults, EngineReport) {
    let selected: Vec<_> = match apps {
        Some(names) => names
            .iter()
            .map(|n| refine_benchmarks::lookup(n).unwrap_or_else(|e| panic!("{e}")))
            .collect(),
        None => refine_benchmarks::all(),
    };
    assert!(!selected.is_empty(), "no benchmarks selected");

    let mut specs = Vec::with_capacity(selected.len() * 3);
    for b in &selected {
        let module = Arc::new(b.module());
        for tool in Tool::all() {
            specs.push(EngineCampaign {
                app: b.name.to_string(),
                tool,
                source: ArtifactSource::Module(Arc::clone(&module)),
            });
        }
    }

    let live = Progress::new(cfg.trials * specs.len() as u64, !obs.live_progress);
    live.set_label(format!("sweep x{} apps", selected.len()));
    let hooks = EngineHooks { sink: obs.sink, progress: Some(&live) };
    let cache = ArtifactCache::new();
    let report = run_sweep(&specs, cfg, &cache, &hooks);
    live.finish();

    let mut out = Vec::with_capacity(selected.len());
    for (i, b) in selected.iter().enumerate() {
        // Tool::all() order is (LLFI, REFINE, PINFI); results are in input
        // order regardless of scheduling.
        let mut it = report.results[i * 3..i * 3 + 3].iter().cloned();
        out.push(AppResults {
            name: b.name.to_string(),
            llfi: it.next().unwrap(),
            refine: it.next().unwrap(),
            pinfi: it.next().unwrap(),
        });
    }
    (SuiteResults { apps: out, trials: cfg.trials }, report)
}

/// Render a sweep's scheduling report: wall clock, effective speedup over
/// serial, and artifact-cache accounting.
pub fn engine_summary(report: &EngineReport) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Engine — {} campaigns on {} worker(s): wall {:.2}s, busy {:.2}s, speedup {:.2}x",
        report.stats.len(),
        report.jobs,
        report.wall_ns as f64 / 1e9,
        report.busy_capped() as f64 / 1e9,
        report.speedup_capped()
    );
    let c = &report.cache;
    let _ = writeln!(
        s,
        "Artifact cache — {} hits / {} misses (hit rate {:.1}%), {:.2}s preparing",
        c.hits,
        c.misses,
        100.0 * c.hit_rate(),
        c.prepare_ns as f64 / 1e9
    );
    let _ = writeln!(
        s,
        "{:10} {:8} {:>10} {:>10} {:>9} {:>11} {:>9} {:>9} {:>7}",
        "app", "tool", "busy ms", "wall ms", "speedup", "prepare ms", "restores", "conv", "fused"
    );
    for cs in &report.stats {
        let sb_total = cs.sb_fused_instrs + cs.sb_stepped_instrs;
        let fused_share = if sb_total == 0 {
            0.0
        } else {
            100.0 * cs.sb_fused_instrs as f64 / sb_total as f64
        };
        let _ = writeln!(
            s,
            "{:10} {:8} {:>10.1} {:>10.1} {:>8.2}x {:>11.1} {:>9} {:>9} {:>6.1}%",
            cs.app,
            cs.tool,
            cs.busy_ns as f64 / 1e6,
            cs.wall_ns as f64 / 1e6,
            cs.speedup,
            cs.prepare_ms,
            cs.ckpt_restores,
            cs.conv_hits,
            fused_share
        );
    }
    s
}

/// Figure 4: sampled outcome probabilities per app and tool, with 95%
/// confidence intervals.
pub fn fig4(suite: &SuiteResults) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Figure 4 — fault-injection outcome percentages (n = {} per campaign, 95% CI)",
        suite.trials
    );
    for app in &suite.apps {
        let _ = writeln!(s, "\n({})", app.name);
        let _ = writeln!(s, "{:8} {:>18} {:>18} {:>18}", "tool", "crash %", "SOC %", "benign %");
        for r in app.by_tool() {
            let n = r.counts.total();
            let mut cells = Vec::new();
            for v in [r.counts.crash, r.counts.soc, r.counts.benign] {
                let p = 100.0 * v as f64 / n as f64;
                let (lo, hi) = proportion_ci(v, n, Z_95);
                cells.push(format!("{:5.1} [{:4.1},{:4.1}]", p, lo * 100.0, hi * 100.0));
            }
            let _ = writeln!(s, "{:8} {:>18} {:>18} {:>18}", r.tool, cells[0], cells[1], cells[2]);
        }
    }
    s
}

/// The stacked-bar PMF panel of Figure 4: one text bar per tool, split
/// into crash/SOC/benign segments (`#`/`~`/`.`), 50 columns = 100%.
pub fn fig4_pmf(suite: &SuiteResults) -> String {
    const WIDTH: usize = 50;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Figure 4 (PMF panels) — stacked outcome bars   [# crash, ~ SOC, . benign]"
    );
    for app in &suite.apps {
        let _ = writeln!(s, "\n({})", app.name);
        for r in app.by_tool() {
            let n = r.counts.total().max(1);
            let crash = (r.counts.crash as usize * WIDTH) / n as usize;
            let soc = (r.counts.soc as usize * WIDTH) / n as usize;
            let benign = WIDTH.saturating_sub(crash + soc);
            let _ = writeln!(
                s,
                "  {:8} |{}{}{}|",
                r.tool,
                "#".repeat(crash),
                "~".repeat(soc),
                ".".repeat(benign)
            );
        }
    }
    s
}

/// Table 4: the example contingency table (LLFI vs PINFI on AMG2013, or the
/// first selected app when AMG2013 is not in the sweep).
pub fn table4(suite: &SuiteResults) -> String {
    let app = suite
        .apps
        .iter()
        .find(|a| a.name == "AMG2013")
        .unwrap_or(&suite.apps[0]);
    let mut s = String::new();
    let _ = writeln!(s, "Table 4 — contingency table for LLFI vs PINFI ({})", app.name);
    let _ = writeln!(s, "{:8} {:>7} {:>7} {:>7} {:>7}", "Tool", "Crash", "SOC", "Benign", "Total");
    for r in [&app.llfi, &app.pinfi] {
        let c = r.counts;
        let _ = writeln!(
            s,
            "{:8} {:>7} {:>7} {:>7} {:>7}",
            r.tool,
            c.crash,
            c.soc,
            c.benign,
            c.total()
        );
    }
    let total = [
        app.llfi.counts.crash + app.pinfi.counts.crash,
        app.llfi.counts.soc + app.pinfi.counts.soc,
        app.llfi.counts.benign + app.pinfi.counts.benign,
    ];
    let _ = writeln!(s, "{:8} {:>7} {:>7} {:>7}", "Total", total[0], total[1], total[2]);
    let chi = chi2_contingency(&[app.llfi.counts.row(), app.pinfi.counts.row()]);
    let _ = writeln!(
        s,
        "chi2 = {:.2}, dof = {}, p = {:.4} -> {}",
        chi.statistic,
        chi.dof,
        chi.p_value,
        if chi.significant(0.05) { "significantly different" } else { "not significantly different" }
    );
    s
}

/// One row of Table 5.
#[derive(Debug, Clone)]
pub struct Chi2Row {
    /// Benchmark name.
    pub app: String,
    /// p-value of the comparison.
    pub p_value: f64,
    /// Rejected at alpha = 0.05?
    pub significant: bool,
}

/// Table 5 data: chi-squared comparisons of each tool against PINFI.
pub fn table5_rows(suite: &SuiteResults) -> (Vec<Chi2Row>, Vec<Chi2Row>) {
    let mut llfi_rows = Vec::new();
    let mut refine_rows = Vec::new();
    for app in &suite.apps {
        let llfi = chi2_contingency(&[app.llfi.counts.row(), app.pinfi.counts.row()]);
        llfi_rows.push(Chi2Row {
            app: app.name.clone(),
            p_value: llfi.p_value,
            significant: llfi.significant(0.05),
        });
        let refine = chi2_contingency(&[app.refine.counts.row(), app.pinfi.counts.row()]);
        refine_rows.push(Chi2Row {
            app: app.name.clone(),
            p_value: refine.p_value,
            significant: refine.significant(0.05),
        });
    }
    (llfi_rows, refine_rows)
}

/// Table 5: rendered chi-squared test results (alpha = 0.05).
pub fn table5(suite: &SuiteResults) -> String {
    let (llfi_rows, refine_rows) = table5_rows(suite);
    let mut s = String::new();
    let _ = writeln!(s, "Table 5 — chi-squared test results (alpha = 0.05), baseline PINFI");
    for (title, rows) in [("LLFI vs PINFI", &llfi_rows), ("REFINE vs PINFI", &refine_rows)] {
        let _ = writeln!(s, "\n  {title}");
        let _ = writeln!(s, "  {:10} {:>10} {:>14}", "app", "p-value", "signif. diff?");
        for r in rows {
            let _ = writeln!(
                s,
                "  {:10} {:>10.4} {:>14}",
                r.app,
                r.p_value,
                if r.significant { "yes" } else { "no" }
            );
        }
        let n_sig = rows.iter().filter(|r| r.significant).count();
        let _ = writeln!(s, "  -> significantly different in {n_sig}/{} apps", rows.len());
    }
    s
}

/// Table 6: complete outcome frequencies.
pub fn table6(suite: &SuiteResults) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Table 6 — complete results of outcome frequencies (n = {})", suite.trials);
    let _ = writeln!(s, "{:10} {:8} {:>7} {:>7} {:>7}", "app", "tool", "Crash", "SOC", "Benign");
    for app in &suite.apps {
        for r in app.by_tool() {
            let _ = writeln!(
                s,
                "{:10} {:8} {:>7} {:>7} {:>7}",
                app.name,
                r.tool,
                r.counts.crash,
                r.counts.soc,
                r.counts.benign
            );
        }
    }
    s
}

/// One Figure 5 row: app name, LLFI and REFINE campaign time normalized
/// to PINFI.
pub type Fig5Row = (String, f64, f64);

/// Figure 5 data: per-app campaign execution time of LLFI and REFINE
/// normalized to PINFI, plus the aggregate.
pub fn fig5_rows(suite: &SuiteResults) -> (Vec<Fig5Row>, (f64, f64)) {
    let mut rows = Vec::new();
    let (mut tot_l, mut tot_r, mut tot_p) = (0u128, 0u128, 0u128);
    for app in &suite.apps {
        let l = app.llfi.total_cycles as f64;
        let r = app.refine.total_cycles as f64;
        let p = app.pinfi.total_cycles as f64;
        rows.push((app.name.clone(), l / p, r / p));
        tot_l += app.llfi.total_cycles as u128;
        tot_r += app.refine.total_cycles as u128;
        tot_p += app.pinfi.total_cycles as u128;
    }
    let totals = (tot_l as f64 / tot_p as f64, tot_r as f64 / tot_p as f64);
    (rows, totals)
}

/// Figure 5: rendered experimentation-time comparison.
pub fn fig5(suite: &SuiteResults) -> String {
    let (rows, (tl, tr)) = fig5_rows(suite);
    let mut s = String::new();
    let _ = writeln!(s, "Figure 5 — campaign execution time normalized to PINFI");
    let _ = writeln!(s, "{:10} {:>8} {:>8}", "app", "LLFI", "REFINE");
    for (name, l, r) in &rows {
        let _ = writeln!(s, "{:10} {:>8.1} {:>8.1}", name, l, r);
    }
    let _ = writeln!(s, "{:10} {:>8.1} {:>8.1}   (total)", "Total", tl, tr);
    s
}

/// Instruction-class ablation (the `-fi-instrs` interface of Table 2 at
/// campaign scale): outcome mixes when restricting REFINE to stack,
/// arithmetic, or memory instructions, versus `all`.
///
/// This is the study the flag interface exists for — e.g. stack-class
/// faults (push/pop/sp/fp writers) crash far more often than arithmetic
/// faults, which skew towards SOC.
pub fn class_ablation(apps: &[String], cfg: &EngineConfig) -> String {
    use refine_core::{FiOptions, InstrClass};
    let ckpt = cfg.checkpoint_options();
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Ablation — REFINE outcome mix by -fi-instrs class (n = {} per cell)",
        cfg.trials
    );
    let _ = writeln!(
        s,
        "{:10} {:8} {:>10} {:>8} {:>8} {:>8}",
        "app", "class", "population", "crash%", "SOC%", "benign%"
    );
    for name in apps {
        let b = refine_benchmarks::by_name(name)
            .unwrap_or_else(|| panic!("unknown benchmark {name}"));
        let module = b.module();
        for (label, class) in [
            ("stack", InstrClass::Stack),
            ("arithm", InstrClass::Arith),
            ("mem", InstrClass::Mem),
            ("all", InstrClass::All),
        ] {
            let opts = FiOptions { fi: true, fi_instrs: class, ..FiOptions::all() };
            let campaign = EngineCampaign {
                app: name.clone(),
                tool: Tool::Refine,
                source: ArtifactSource::Prepared(Arc::new(PreparedTool::prepare_refine_with(
                    &module, &opts, &ckpt,
                ))),
            };
            let r = run_campaign(&campaign, cfg, &EngineHooks::default());
            let p = r.counts.percentages();
            let _ = writeln!(
                s,
                "{:10} {:8} {:>10} {:>8.1} {:>8.1} {:>8.1}",
                name, label, r.population, p[0], p[1], p[2]
            );
        }
    }
    s
}

/// §5.3: the sample-size computation behind the 1,068-trial design.
pub fn samples_table(populations: &[(String, u64)]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Sample sizes for margin of error <= 3% at 95% confidence (Leveugle et al.)"
    );
    let _ = writeln!(s, "{:10} {:>14} {:>9}", "app", "population", "samples");
    for (name, pop) in populations {
        let _ = writeln!(s, "{:10} {:>14} {:>9}", name, pop, sample_size(*pop, 0.03, Z_95));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::OutcomeCounts;

    fn fake_result(tool: &str, crash: u64, soc: u64, benign: u64, cycles: u64) -> CampaignResult {
        CampaignResult {
            tool: tool.into(),
            counts: OutcomeCounts { crash, soc, benign },
            total_cycles: cycles,
            population: 10_000,
            profile_cycles: 1000,
        }
    }

    fn fake_suite() -> SuiteResults {
        SuiteResults {
            apps: vec![AppResults {
                name: "AMG2013".into(),
                llfi: fake_result("LLFI", 395, 168, 505, 3_900),
                refine: fake_result("REFINE", 254, 87, 727, 1_200),
                pinfi: fake_result("PINFI", 269, 70, 729, 1_000),
            }],
            trials: 1068,
        }
    }

    #[test]
    fn table5_separates_llfi_from_refine() {
        let (llfi, refine) = table5_rows(&fake_suite());
        assert!(llfi[0].significant, "paper data: LLFI rejects");
        assert!(!refine[0].significant, "paper data: REFINE accepts");
    }

    #[test]
    fn fig5_normalizes_to_pinfi() {
        let (rows, (tl, tr)) = fig5_rows(&fake_suite());
        assert!((rows[0].1 - 3.9).abs() < 1e-9);
        assert!((rows[0].2 - 1.2).abs() < 1e-9);
        assert!((tl - 3.9).abs() < 1e-9 && (tr - 1.2).abs() < 1e-9);
    }

    #[test]
    fn pmf_bars_have_fixed_width() {
        let s = fake_suite();
        let out = fig4_pmf(&s);
        for line in out.lines().filter(|l| l.contains('|')) {
            let bar: String =
                line.chars().skip_while(|c| *c != '|').skip(1).take_while(|c| *c != '|').collect();
            assert_eq!(bar.len(), 50, "bar width: {line}");
        }
        // LLFI's crash segment must be the longest on the paper's data.
        let bars: Vec<&str> = out.lines().filter(|l| l.contains('|')).collect();
        let crashes: Vec<usize> =
            bars.iter().map(|l| l.chars().filter(|c| *c == '#').count()).collect();
        assert!(crashes[0] > crashes[1] && crashes[0] > crashes[2]);
    }

    #[test]
    fn renderers_produce_tables() {
        let s = fake_suite();
        assert!(fig4(&s).contains("AMG2013"));
        assert!(table4(&s).contains("contingency"));
        assert!(table5(&s).contains("REFINE vs PINFI"));
        assert!(table6(&s).contains("LLFI"));
        assert!(fig5(&s).contains("Total"));
        assert!(samples_table(&[("X".into(), 1_000_000_000)]).contains("1068"));
    }

    /// End-to-end mini-sweep on one real app with few trials.
    #[test]
    fn mini_suite_runs() {
        let cfg = EngineConfig { trials: 12, seed: 3, jobs: 2, ..EngineConfig::default() };
        let apps = vec!["CoMD".to_string()];
        let (suite, _) = run_suite(&cfg, Some(&apps), &SuiteObserver::default());
        assert_eq!(suite.apps.len(), 1);
        for r in suite.apps[0].by_tool() {
            assert_eq!(r.counts.total(), 12);
        }
        // REFINE/PINFI population identity on the real benchmark.
        assert_eq!(suite.apps[0].refine.population, suite.apps[0].pinfi.population);
    }

    /// The suite driver reports scheduling + cache accounting, and a rerun
    /// of the same configuration matches it bit for bit.
    #[test]
    fn sharded_suite_reports_engine_accounting() {
        let cfg = EngineConfig { trials: 10, seed: 3, jobs: 4, ..EngineConfig::default() };
        let apps = vec!["CoMD".to_string()];
        let (suite, report) = run_suite(&cfg, Some(&apps), &SuiteObserver::default());
        assert_eq!(report.stats.len(), 3, "one stat row per (app, tool)");
        assert_eq!(report.cache.misses, 3, "each artifact prepared exactly once");
        assert!(report.cache.hits + report.cache.misses >= 3);
        assert!(report.wall_ns > 0 && report.busy_ns > 0);
        assert!(engine_summary(&report).contains("Artifact cache"));
        let (again, _) = run_suite(&cfg, Some(&apps), &SuiteObserver::default());
        for (a, b) in suite.apps[0].by_tool().iter().zip(again.apps[0].by_tool()) {
            assert_eq!(a.counts, b.counts);
            assert_eq!(a.total_cycles, b.total_cycles);
        }
    }
}
