//! A complete (reduced-size) fault-injection campaign on one HPC benchmark
//! with all three tools, ending in the chi-squared accuracy comparison and
//! the speed comparison of the paper's evaluation.
//!
//! Run with: `cargo run --release --example fi_campaign [-- trials]`

use refine_campaign::campaign::run_campaign;
use refine_campaign::engine::{ArtifactSource, EngineCampaign, EngineConfig, EngineHooks};
use refine_campaign::tools::Tool;
use refine_stats::chi2_contingency;
use std::sync::Arc;

fn main() {
    let trials: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(200);
    let program = refine_benchmarks::by_name("HPCCG-1.0").unwrap();
    println!("campaign: {} ({}), {} trials per tool", program.name, program.input, trials);
    let module = Arc::new(program.module());
    let cfg = EngineConfig { trials, seed: 2017, ..EngineConfig::default() };

    let mut results = Vec::new();
    for tool in Tool::all() {
        let t0 = std::time::Instant::now();
        let campaign = EngineCampaign {
            app: program.name.to_string(),
            tool,
            source: ArtifactSource::Module(Arc::clone(&module)),
        };
        let r = run_campaign(&campaign, &cfg, &EngineHooks::default());
        let p = r.counts.percentages();
        println!(
            "{:8} population={:>8} crash={:5.1}% soc={:5.1}% benign={:5.1}%  (campaign: {:>12} sim-cycles, {:.2}s wall)",
            tool.name(),
            r.population,
            p[0],
            p[1],
            p[2],
            r.total_cycles,
            t0.elapsed().as_secs_f64()
        );
        results.push(r);
    }

    // Accuracy: chi-squared vs the PINFI baseline (Table 5 methodology).
    let pinfi = &results[2];
    println!("\nchi-squared vs PINFI (alpha = 0.05):");
    for r in &results[..2] {
        let chi = chi2_contingency(&[r.counts.row(), pinfi.counts.row()]);
        println!(
            "  {:8} p = {:.4} -> {}",
            r.tool,
            chi.p_value,
            if chi.significant(0.05) {
                "significantly different (less accurate)"
            } else {
                "statistically indistinguishable"
            }
        );
    }

    // Speed: campaign time normalized to PINFI (Figure 5 methodology).
    println!("\ncampaign execution time normalized to PINFI:");
    for r in &results[..2] {
        println!(
            "  {:8} {:.2}x",
            r.tool,
            r.total_cycles as f64 / pinfi.total_cycles as f64
        );
    }
}
