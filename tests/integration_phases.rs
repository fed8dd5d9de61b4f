//! Compile-phase accounting: the `optimize` phase counts each real IR
//! optimization exactly once. This test has a binary of its own because
//! the phase table is process-wide: a concurrent test that compiles
//! would add to the counts it checks.

use refine_campaign::tools::{PreparedTool, Tool};
use refine_core::FiOptions;
use refine_ir::passes::OptLevel;
use refine_telemetry::Phase;

fn optimize_calls() -> u64 {
    let phases = Phase::snapshot_all().phases;
    phases.iter().find(|p| p.name == "optimize").map_or(0, |p| p.calls)
}

#[test]
fn prepare_times_each_optimization_once() {
    refine_telemetry::enable();
    let module = refine_benchmarks::by_name("matmul").expect("matmul extra exists").module();

    // O0 optimizes nothing, so it times nothing.
    Phase::reset_all();
    refine_core::compile_with_fi(&module, OptLevel::O0, &FiOptions::default());
    assert_eq!(optimize_calls(), 0, "an O0 compile recorded an optimize span");

    // Each tool optimizes the program once at O2 (LLFI before it
    // instruments the IR): one app prepared with all three tools records
    // exactly three optimizations.
    Phase::reset_all();
    for (n, tool) in (1..).zip(Tool::all()) {
        PreparedTool::prepare(&module, tool);
        assert_eq!(optimize_calls(), n, "optimize spans after preparing {}", tool.name());
    }
}
