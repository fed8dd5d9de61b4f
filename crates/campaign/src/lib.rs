#![warn(missing_docs)]

//! `refine-campaign` — the fault-injection campaign harness: the paper's
//! experiment workflow (§4.3, §5.3) end to end.
//!
//! * [`mod@classify`] — outcome classification: *crash* (trap, non-zero exit,
//!   or timeout at 10x the profiled execution), *SOC* (final printed output
//!   differs from the golden output at 6 significant digits), or *benign*;
//! * [`tools`] — a uniform interface over the three injectors (LLFI,
//!   REFINE, PINFI): compile/attach, profile, run one trial;
//! * [`campaign`] — per-trial machinery (1,068 trials per program x tool
//!   by default, deterministic per-trial stream derivation);
//! * [`engine`] — the work-stealing sharded sweep engine with the
//!   instrumented-artifact cache (`--jobs N`, bit-identical at any jobs
//!   count);
//! * [`experiments`] — drivers that regenerate every table and figure of
//!   the paper's evaluation (Figure 4, Table 4, Table 5, Table 6, Figure 5,
//!   and the §5.3 sample-size computation).

pub mod campaign;
pub mod classify;
pub mod engine;
pub mod experiments;
pub mod propagation;
pub mod tools;

pub use campaign::{
    program_salt, run_campaign, run_campaign_observed, run_campaign_prepared, CampaignConfig,
    CampaignHooks, CampaignResult, OutcomeCounts,
};
pub use engine::{
    run_sweep, ArtifactCache, ArtifactKey, ArtifactSource, CacheStats, CampaignStats,
    EngineCampaign, EngineConfig, EngineHooks, EngineReport,
};
pub use classify::{classify, format_events, Golden, Outcome};
pub use propagation::{trace_fault, PropagationReport, PropagationStats};
pub use tools::{PreparedTool, Tool};
