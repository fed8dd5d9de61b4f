//! Error-propagation analysis — the use case the paper's introduction
//! motivates compiler-based FI with: because injection and analysis share a
//! software layer, each fault can be traced from the corrupted register to
//! its final effect.
//!
//! For a set of faults on one benchmark this prints, per fault: injection
//! point, latency to first architectural divergence, register footprint,
//! whether control flow split, and the final classification — then the
//! aggregate propagation statistics.
//!
//! Run with: `cargo run --release --example error_propagation [-- app]`

use refine_campaign::propagation::{propagation_sweep, trace_fault};
use refine_campaign::tools::{PreparedTool, Tool};

fn main() {
    let app = std::env::args().nth(1).unwrap_or_else(|| "miniFE".to_string());
    let program = refine_benchmarks::lookup(&app).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    println!("error propagation on {} ({})\n", program.name, program.description);
    let prepared = PreparedTool::prepare(&program.module(), Tool::Pinfi);
    println!(
        "population: {} dynamic FI targets, {} profile cycles\n",
        prepared.population, prepared.profile_cycles
    );

    println!(
        "{:>10} {:>12} {:>11} {:>10} {:>9}  outcome",
        "target", "divergence", "reconverge", "ctrl-flow", "footprint"
    );
    for k in 0..16u64 {
        let target = 1 + prepared.population * k / 16;
        let r = trace_fault(&prepared, target, 31 * k + 5, 8192);
        println!(
            "{:>10} {:>12} {:>11} {:>10} {:>9}  {}",
            target,
            r.first_divergence.map_or("-".into(), |v| v.to_string()),
            r.reconverged_after.map_or("-".into(), |v| format!("+{v}")),
            r.control_flow_divergence.map_or("-".into(), |v| v.to_string()),
            r.max_footprint,
            r.outcome.label()
        );
    }

    let stats = propagation_sweep(&prepared, 60, 2024);
    println!("\naggregate over 60 faults:");
    println!("  masked at register level : {}", stats.masked);
    println!("  data-only propagation    : {}", stats.data_only);
    println!("  control-flow divergence  : {}", stats.control_flow);
    println!(
        "  outcomes                 : crash {}, SOC {}, benign {}",
        stats.outcomes[0], stats.outcomes[1], stats.outcomes[2]
    );
    println!(
        "\n(the classic FI result in miniature: most crashes come from\n\
         control-flow divergence, most SOCs from long-lived data-only\n\
         corruption, and benign runs from dead or overwritten registers)"
    );
}
