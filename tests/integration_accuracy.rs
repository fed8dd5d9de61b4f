//! The paper's headline claims, in miniature (full-scale versions live in
//! `refine-experiments`: `table5`, `fig4`, `fig5`):
//!
//! * REFINE and PINFI sample the identical population and produce
//!   statistically indistinguishable outcome distributions;
//! * LLFI's distribution diverges much more strongly;
//! * LLFI campaigns are the slowest; REFINE stays in PINFI's neighbourhood.

use refine_campaign::campaign::{run_campaign, CampaignResult};
use refine_campaign::engine::{ArtifactSource, EngineCampaign, EngineConfig, EngineHooks};
use refine_campaign::tools::{PreparedTool, Tool};
use refine_stats::chi2_contingency;
use std::sync::Arc;

fn subject() -> refine_ir::Module {
    // A mixed int/float kernel with calls — representative without being
    // slow in debug-mode CI runs.
    refine_frontend::compile_source(
        "fvar a[48];\n\
         fvar b[48];\n\
         fn saxpy(alpha: float) {\n\
           for (i = 0; i < 48; i = i + 1) { b[i] = b[i] + alpha * a[i]; }\n\
           return 0;\n\
         }\n\
         fn norm() : float {\n\
           let s: float = 0.0;\n\
           for (i = 0; i < 48; i = i + 1) { s = s + b[i] * b[i]; }\n\
           return sqrt(s);\n\
         }\n\
         fn main() {\n\
           for (i = 0; i < 48; i = i + 1) { a[i] = float(i % 9) * 0.25 + 0.5; b[i] = 1.0; }\n\
           for (k = 0; k < 8; k = k + 1) { saxpy(0.125); }\n\
           print_f(norm());\n\
           return 0;\n\
         }",
    )
    .unwrap()
}

/// The LLFI, REFINE and PINFI campaigns on [`subject`], named after it.
fn campaigns(cfg: &EngineConfig) -> [CampaignResult; 3] {
    let module = Arc::new(subject());
    Tool::all().map(|tool| {
        let campaign = EngineCampaign {
            app: "subject".into(),
            tool,
            source: ArtifactSource::Module(Arc::clone(&module)),
        };
        run_campaign(&campaign, cfg, &EngineHooks::default())
    })
}

#[test]
fn populations_and_golden_identical_for_refine_and_pinfi() {
    let m = subject();
    let refine = PreparedTool::prepare(&m, Tool::Refine);
    let pinfi = PreparedTool::prepare(&m, Tool::Pinfi);
    assert_eq!(refine.population, pinfi.population);
    assert_eq!(refine.golden, pinfi.golden);
    let llfi = PreparedTool::prepare(&m, Tool::Llfi);
    assert!(llfi.population < pinfi.population, "IR population must be smaller");
    assert_eq!(llfi.golden, pinfi.golden);
}

/// Table 5 in miniature: with a few hundred trials, REFINE-vs-PINFI should
/// look like two samples of one distribution, while LLFI diverges far more.
#[test]
fn refine_tracks_pinfi_better_than_llfi() {
    let cfg = EngineConfig { trials: 300, seed: 20170612, jobs: 4, ..EngineConfig::default() };
    let [llfi, refine, pinfi] = campaigns(&cfg);

    let chi_refine = chi2_contingency(&[refine.counts.row(), pinfi.counts.row()]);
    let chi_llfi = chi2_contingency(&[llfi.counts.row(), pinfi.counts.row()]);

    assert!(
        !chi_refine.significant(0.01),
        "REFINE vs PINFI rejected: p = {:.4} (counts {:?} vs {:?})",
        chi_refine.p_value,
        refine.counts,
        pinfi.counts
    );
    assert!(
        chi_llfi.statistic > chi_refine.statistic,
        "LLFI ({:.2}) must diverge more than REFINE ({:.2})",
        chi_llfi.statistic,
        chi_refine.statistic
    );
}

/// Figure 5 in miniature: campaign-time ordering.
#[test]
fn campaign_speed_shape() {
    let cfg = EngineConfig { trials: 60, seed: 4, jobs: 4, ..EngineConfig::default() };
    let [llfi, refine, pinfi] = campaigns(&cfg);

    let l = llfi.total_cycles as f64 / pinfi.total_cycles as f64;
    let r = refine.total_cycles as f64 / pinfi.total_cycles as f64;
    assert!(
        l > r,
        "LLFI ({l:.2}x) must be slower than REFINE ({r:.2}x) relative to PINFI"
    );
    assert!(
        (0.4..3.0).contains(&r),
        "REFINE must stay in PINFI's neighbourhood, got {r:.2}x"
    );
    assert!(l > 1.2, "LLFI must be clearly slower than PINFI, got {l:.2}x");
}
