//! `perfbench` — the campaign benchmark of the REFINE reproduction.
//!
//! ```text
//! perfbench --workload <paper_sweep|cold_sweep|prepare_sweep> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it repeats whole fault-injection campaigns (compile,
//! prepare, trial sweep, outcome table and χ² rows) over the 14-program
//! suite × {LLFI, REFINE, PINFI} for `--seconds` and prints the end-to-end
//! metrics. With `--trace 1` it times calls into each layer's public
//! functions from the outside and prints the per-layer metrics. Either way
//! every output is first checked against independent references
//! ([`verify`]), and the last line of stdout is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`.

mod layers;
mod rounds;
mod verify;

use refine_campaign::engine::{EngineConfig, DEFAULT_BATCH};
use refine_core::ExecEngine;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use verify::Tally;

/// The fewest measured rounds an end-to-end run takes, however short
/// `--seconds` is, so every metric is a median of several samples.
const MIN_ROUNDS: usize = 5;

/// One benchmark workload: which campaign configuration a round runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The default path (checkpoint restore, convergence, superblocks)
    /// with uniform trials per campaign.
    PaperSweep,
    /// The same campaigns with checkpointing off: every trial runs from
    /// instruction 0.
    ColdSweep,
    /// CI-scale trials per campaign, so compile, instrumentation and
    /// checkpoint capture dominate.
    PrepareSweep,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "paper_sweep" => Some(Workload::PaperSweep),
            "cold_sweep" => Some(Workload::ColdSweep),
            "prepare_sweep" => Some(Workload::PrepareSweep),
            _ => None,
        }
    }

    /// Trials per (app, tool) campaign.
    fn trials(self) -> u64 {
        match self {
            Workload::PaperSweep => 30,
            Workload::ColdSweep => 20,
            Workload::PrepareSweep => 12,
        }
    }

    /// The engine configuration of every sweep of this workload. The
    /// benchmark seed reaches the program only as the generated sweep
    /// seed.
    pub fn engine_config(self, seed: u64) -> EngineConfig {
        EngineConfig {
            trials: self.trials(),
            seed: sweep_seed(seed),
            jobs: 1,
            batch: DEFAULT_BATCH,
            checkpoint: self != Workload::ColdSweep,
            convergence: true,
            checkpoint_interval: refine_machine::CheckpointConfig::default().interval,
            engine: ExecEngine::Superblock,
        }
    }
}

/// splitmix64 of the benchmark seed: the campaign seed the sweeps use.
fn sweep_seed(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One reported metric.
pub struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

impl Metric {
    /// A metric named `name`, measured in `unit`.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// Median of `xs` (the mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(Duration::from_secs(10)),
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// The end-to-end run: a verified reference pass, then whole campaign
/// rounds until `seconds` have passed (at least [`MIN_ROUNDS`]).
fn end_to_end(args: &Args, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    assert!(
        !refine_telemetry::enabled(),
        "end-to-end runs measure with telemetry off"
    );
    let suite = refine_benchmarks::all();
    let cfg = args.workload.engine_config(args.seed);
    let reference = verify::reference_pass(&suite, &cfg, tally)?;
    let reference_facts = reference.facts.clone();
    // Free the reference artifacts so rounds start from the same footprint.
    drop(reference);

    let start = Instant::now();
    let (mut setup, mut trials, mut campaign) = (Vec::new(), Vec::new(), Vec::new());
    let mut attempts = 0;
    while attempts < MIN_ROUNDS || start.elapsed() < args.seconds {
        attempts += 1;
        let Some(round) = rounds::run_round(&suite, &cfg, tally) else {
            continue;
        };
        verify::check_repeat(&reference_facts, &round.facts, cfg.trials, tally);
        eprintln!(
            "perfbench: round {attempts}: setup {:.3} s, trials {:.3} s, campaign {:.3} s",
            round.setup_s, round.trials_s, round.campaign_s
        );
        setup.push(round.setup_s);
        trials.push(round.trials as f64 / round.trials_s);
        campaign.push(round.campaign_s);
    }
    assert!(
        !refine_telemetry::enabled(),
        "end-to-end runs measure with telemetry off"
    );
    if setup.is_empty() {
        return Err("no round completed".into());
    }
    eprintln!(
        "perfbench: {} rounds of {} trials in {:.1} s",
        setup.len(),
        reference_facts.trials(),
        start.elapsed().as_secs_f64()
    );
    Ok(vec![
        Metric::new("trials_per_s", "trials/s", median(&trials)),
        Metric::new("campaign_s", "s", median(&campaign)),
        Metric::new("setup_s", "s", median(&setup)),
        Metric::new("peak_rss_mib", "MiB", peak_rss_mib()?),
    ])
}

fn render(tally: &Tally, metrics: &[Metric]) -> Result<String, String> {
    let mut fields = Vec::with_capacity(metrics.len());
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        fields.join(", ")
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench: workload {:?}, seed {}, {} trials per campaign, {} mode",
        args.workload,
        args.seed,
        args.workload.trials(),
        if args.trace { "traced" } else { "end-to-end" }
    );
    let mut tally = Tally::default();
    let metrics = if args.trace {
        layers::run(
            &args.workload.engine_config(args.seed),
            args.seconds,
            &mut tally,
        )
    } else {
        end_to_end(&args, &mut tally)
    };
    match metrics.and_then(|m| render(&tally, &m)) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
