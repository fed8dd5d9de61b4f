//! Exact-work snapshot of the trial fast path.
//!
//! Outcome tables are bit-identical whether or not a trial restores a
//! checkpoint, fuses a block or splices a converged suffix, so they cannot
//! show a change that silently loses fusion or convergence. This test pins
//! the deterministic work counters of a fixed sweep instead: checkpoint
//! restores and skipped instructions, convergence hits and checked/saved
//! instructions, fused dispatches and fused/stepped instructions, per
//! campaign, with the default checkpoint and convergence settings and with
//! checkpointing off. Regenerate deliberately with:
//!
//! ```text
//! REFINE_UPDATE_GOLDEN=1 cargo test --test integration_fastpath
//! ```

use refine_campaign::campaign::CampaignConfig;
use refine_campaign::experiments::{run_suite_sharded, SuiteObserver};
use std::fmt::Write;
use std::path::PathBuf;

fn snapshot_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/fastpath_counters.txt")
}

/// HPCCG-1.0 and CoMD x 3 tools x 12 trials, seed 7, two workers: one line
/// of counters per campaign.
fn render(label: &str, checkpoint: bool, out: &mut String) {
    let cfg = CampaignConfig { trials: 12, seed: 7, jobs: 2, checkpoint, ..CampaignConfig::default() };
    let apps = ["HPCCG-1.0".to_string(), "CoMD".to_string()];
    let (_, report) = run_suite_sharded(&cfg, Some(&apps), &SuiteObserver::default(), |_, _| {});
    for s in &report.stats {
        let _ = writeln!(
            out,
            "{label} {} {} ckpt_restores={} ckpt_skipped_instrs={} conv_hits={} \
             conv_checked_instrs={} conv_saved_instrs={} sb_dispatches={} \
             sb_fused_instrs={} sb_stepped_instrs={}",
            s.app,
            s.tool,
            s.ckpt_restores,
            s.ckpt_skipped_instrs,
            s.conv_hits,
            s.conv_checked_instrs,
            s.conv_saved_instrs,
            s.sb_dispatches,
            s.sb_fused_instrs,
            s.sb_stepped_instrs,
        );
    }
}

#[test]
fn fastpath_counters_match_snapshot() {
    let mut rendered = String::new();
    render("default", true, &mut rendered);
    render("no-checkpoint", false, &mut rendered);
    let path = snapshot_path();
    if std::env::var_os("REFINE_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing snapshot {} ({e}); regenerate with REFINE_UPDATE_GOLDEN=1", path.display())
    });
    assert_eq!(
        committed, rendered,
        "fast-path work counters drifted from the committed snapshot; if \
         intentional, regenerate with REFINE_UPDATE_GOLDEN=1"
    );
}
