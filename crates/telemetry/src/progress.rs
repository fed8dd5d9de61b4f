//! Campaign progress reporting: trials/s, ETA, and live outcome
//! percentages on stderr, replacing per-sweep `eprintln!` calls.
//!
//! Recording ([`Progress::record`]) is a few relaxed atomics; the printing
//! itself is throttled to one line per interval and guarded by a
//! `try_lock`, so worker threads never queue behind the terminal.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

const PRINT_INTERVAL_MS: u64 = 200;

/// Outcome classes counted by [`Progress`] (mirrors the campaign's
/// Crash / SOC / Benign classification without depending on it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutcomeKind {
    /// Trap or timeout.
    Crash = 0,
    /// Silent output corruption.
    Soc = 1,
    /// Output matched golden.
    Benign = 2,
}

/// Live progress reporter for a fixed number of trials.
pub struct Progress {
    label: Mutex<String>,
    total: u64,
    done: AtomicU64,
    outcomes: [AtomicU64; 3],
    start: Instant,
    /// Milliseconds since `start` of the last printed line.
    last_print_ms: AtomicU64,
    quiet: bool,
    /// Campaigns in the sweep (0 = single-campaign mode, not shown).
    campaigns_total: AtomicU64,
    /// Campaigns whose last trial has completed.
    campaigns_done: AtomicU64,
}

impl Progress {
    /// New reporter for `total` trials. When `quiet`, nothing is printed
    /// but counts still accumulate.
    pub fn new(total: u64, quiet: bool) -> Progress {
        Progress {
            label: Mutex::new(String::new()),
            total,
            done: AtomicU64::new(0),
            outcomes: [const { AtomicU64::new(0) }; 3],
            start: Instant::now(),
            last_print_ms: AtomicU64::new(0),
            quiet,
            campaigns_total: AtomicU64::new(0),
            campaigns_done: AtomicU64::new(0),
        }
    }

    /// Announce that this reporter covers a sweep of `n` campaigns; the
    /// progress line then shows `done/n campaigns` alongside trial counts.
    pub fn set_campaigns(&self, n: u64) {
        self.campaigns_total.store(n, Ordering::Relaxed);
    }

    /// Record that one campaign of the sweep finished all its trials.
    /// Workers of the sharded engine call this as each campaign drains, so
    /// the aggregate line reflects cross-campaign completion, not worker
    /// identity.
    pub fn campaign_finished(&self) {
        self.campaigns_done.fetch_add(1, Ordering::Relaxed);
    }

    /// Set the `app/tool` prefix shown on the progress line.
    pub fn set_label(&self, label: impl Into<String>) {
        *self.label.lock().unwrap_or_else(PoisonError::into_inner) = label.into();
    }

    /// Record one finished trial and maybe refresh the progress line.
    pub fn record(&self, outcome: OutcomeKind) {
        self.outcomes[outcome as usize].fetch_add(1, Ordering::Relaxed);
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        if self.quiet {
            return;
        }
        let now_ms = self.start.elapsed().as_millis() as u64;
        let last = self.last_print_ms.load(Ordering::Relaxed);
        let due = now_ms.saturating_sub(last) >= PRINT_INTERVAL_MS || done == self.total;
        if due
            && self
                .last_print_ms
                .compare_exchange(last, now_ms, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            self.print_line(done, now_ms);
        }
    }

    /// Trials completed so far.
    pub fn done(&self) -> u64 {
        self.done.load(Ordering::Relaxed)
    }

    fn print_line(&self, done: u64, now_ms: u64) {
        let secs = (now_ms as f64 / 1e3).max(1e-3);
        let rate = done as f64 / secs;
        let eta = if rate > 0.0 && done < self.total {
            format!("{:.0}s", (self.total - done) as f64 / rate)
        } else {
            "0s".to_string()
        };
        let crash = self.outcomes[OutcomeKind::Crash as usize].load(Ordering::Relaxed);
        let soc = self.outcomes[OutcomeKind::Soc as usize].load(Ordering::Relaxed);
        let benign = self.outcomes[OutcomeKind::Benign as usize].load(Ordering::Relaxed);
        let pct = |n: u64| n as f64 * 100.0 / done.max(1) as f64;
        let label = self.label.lock().unwrap_or_else(PoisonError::into_inner).clone();
        let ctotal = self.campaigns_total.load(Ordering::Relaxed);
        let campaigns = if ctotal > 0 {
            format!("  {}/{} campaigns", self.campaigns_done.load(Ordering::Relaxed), ctotal)
        } else {
            String::new()
        };
        let mut err = std::io::stderr().lock();
        let _ = write!(
            err,
            "\r\x1b[2K[{label}] {done}/{total} trials{campaigns}  {rate:.0}/s  eta {eta}  \
             crash {c:.0}% soc {s:.0}% benign {b:.0}%",
            total = self.total,
            c = pct(crash),
            s = pct(soc),
            b = pct(benign),
        );
        let _ = err.flush();
    }

    /// Finish the progress line (newline) and print a completion summary.
    pub fn finish(&self) {
        if self.quiet {
            return;
        }
        let done = self.done();
        let secs = self.start.elapsed().as_secs_f64().max(1e-9);
        eprintln!(
            "\r\x1b[2K{done} trials in {secs:.2}s ({rate:.0} trials/s)",
            rate = done as f64 / secs,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_progress_counts_without_printing() {
        let p = Progress::new(10, true);
        for i in 0..10u64 {
            p.record(match i % 3 {
                0 => OutcomeKind::Crash,
                1 => OutcomeKind::Soc,
                _ => OutcomeKind::Benign,
            });
        }
        assert_eq!(p.done(), 10);
        p.finish();
    }

    #[test]
    fn record_is_thread_safe() {
        let p = std::sync::Arc::new(Progress::new(4000, true));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let p = p.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    p.record(OutcomeKind::Benign);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(p.done(), 4000);
    }
}
