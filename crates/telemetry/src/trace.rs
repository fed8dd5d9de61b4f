//! Per-trial fault provenance.
//!
//! Every campaign trial can emit one [`TrialTrace`] — which fault was
//! injected where, and what happened — streamed as one JSON object per
//! line to a [`TraceSink`]. The [`TraceSummary`] aggregator folds a trace
//! file back into an injection-site × outcome table.

use crate::json::{Fields, Json};
use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Provenance record for one fault-injection trial.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialTrace {
    /// Benchmark application name.
    pub app: String,
    /// FI tool name (`llfi` / `refine` / `pinfi`).
    pub tool: String,
    /// Trial index within the campaign.
    pub trial: u64,
    /// Fault-model RNG seed for the trial.
    pub seed: u64,
    /// Target dynamic instruction index (1-based; the fault fires when
    /// the selector's dynamic count reaches it).
    pub target_dyn: u64,
    /// Static instruction id of the injection site (REFINE/LLFI: site id;
    /// PINFI: instruction address), when an injection actually fired.
    pub site: Option<u64>,
    /// Opcode / assembly mnemonic of the injected instruction.
    pub opcode: Option<String>,
    /// Destination operand index the flip landed in.
    pub operand: Option<u64>,
    /// Bit position flipped.
    pub bit: Option<u64>,
    /// Outcome class label (`crash` / `soc` / `benign`).
    pub outcome: String,
    /// Trap cause when the trial trapped.
    pub trap: Option<String>,
    /// Simulated cycles consumed by the trial.
    pub cycles: u64,
    /// Dynamic instructions retired by the trial.
    pub instrs: u64,
}

impl TrialTrace {
    /// The record as a JSON object, fields in declaration order.
    pub(crate) fn to_json(&self) -> Json {
        Json::object([
            ("app", Json::Str(self.app.clone())),
            ("tool", Json::Str(self.tool.clone())),
            ("trial", Json::U64(self.trial)),
            ("seed", Json::U64(self.seed)),
            ("target_dyn", Json::U64(self.target_dyn)),
            ("site", self.site.map_or(Json::Null, Json::U64)),
            ("opcode", self.opcode.clone().map_or(Json::Null, Json::Str)),
            ("operand", self.operand.map_or(Json::Null, Json::U64)),
            ("bit", self.bit.map_or(Json::Null, Json::U64)),
            ("outcome", Json::Str(self.outcome.clone())),
            ("trap", self.trap.clone().map_or(Json::Null, Json::Str)),
            ("cycles", Json::U64(self.cycles)),
            ("instrs", Json::U64(self.instrs)),
        ])
    }

    /// Parse one trace line written by [`TraceSink`]. Every field must be
    /// present exactly once with its type, the outcome must be one of the
    /// three classes, and unknown fields are rejected.
    pub(crate) fn from_json_line(line: &str) -> Result<TrialTrace, String> {
        let mut f = Fields::parse(line)?;
        let t = TrialTrace {
            app: f.string("app")?,
            tool: f.string("tool")?,
            trial: f.u64("trial")?,
            seed: f.u64("seed")?,
            target_dyn: f.u64("target_dyn")?,
            site: f.opt_u64("site")?,
            opcode: f.opt_string("opcode")?,
            operand: f.opt_u64("operand")?,
            bit: f.opt_u64("bit")?,
            outcome: f.string("outcome")?,
            trap: f.opt_string("trap")?,
            cycles: f.u64("cycles")?,
            instrs: f.u64("instrs")?,
        };
        f.finish()?;
        match t.outcome.as_str() {
            "crash" | "soc" | "benign" => Ok(t),
            other => Err(format!("field `outcome` is `{other}`, not crash, soc or benign")),
        }
    }
}

/// Thread-safe JSONL writer for [`TrialTrace`] records.
///
/// The first I/O error is kept: later writes do nothing, and
/// [`TraceSink::flush`] reports it, so a failing sink neither floods
/// stderr per trial nor passes for a complete trace. [`TraceSink::failed`]
/// tells a campaign to stop without taking the lock.
pub struct TraceSink {
    out: Mutex<SinkState>,
    failed: AtomicBool,
}

struct SinkState {
    writer: BufWriter<Box<dyn Write + Send>>,
    error: Option<io::Error>,
}

impl TraceSink {
    /// Stream to a file at `path` (truncates).
    pub fn to_file(path: &Path) -> io::Result<TraceSink> {
        let f = std::fs::File::create(path)?;
        Ok(TraceSink::new(Box::new(f)))
    }

    /// Stream to an arbitrary writer.
    pub fn new(w: Box<dyn Write + Send>) -> TraceSink {
        TraceSink {
            out: Mutex::new(SinkState { writer: BufWriter::new(w), error: None }),
            failed: AtomicBool::new(false),
        }
    }

    /// Buffer records in memory. The returned handle exposes the raw JSONL
    /// bytes written so far (after [`TraceSink::flush`]); determinism tests
    /// use it to compare trace record sets without touching the filesystem.
    pub fn in_memory() -> (TraceSink, TraceBuffer) {
        let buf = TraceBuffer(Arc::new(Mutex::new(Vec::new())));
        (TraceSink::new(Box::new(buf.clone())), buf)
    }

    /// Append one record as a JSON line. Rendering happens outside the
    /// lock; the lock covers only the buffered write. A failure is kept
    /// for [`TraceSink::flush`] to report.
    pub fn write(&self, t: &TrialTrace) {
        let mut line = t.to_json().compact();
        line.push('\n');
        drop(self.run(|w| w.write_all(line.as_bytes())));
    }

    /// Flush buffered records to the underlying writer. Returns the first
    /// error any write or flush met, on this call and every later one.
    pub fn flush(&self) -> io::Result<()> {
        let out = self.run(Write::flush);
        out.error.as_ref().map_or(Ok(()), |e| Err(io::Error::new(e.kind(), e.to_string())))
    }

    /// True once a write or flush has failed: nothing more reaches the
    /// writer, so a campaign may stop. One relaxed atomic load; the flag
    /// publishes no data (the error itself is read under the lock).
    pub fn failed(&self) -> bool {
        self.failed.load(Ordering::Relaxed)
    }

    /// Run `op` on the writer unless an earlier write or flush failed,
    /// keeping its error; returns the locked state.
    fn run(
        &self,
        op: impl FnOnce(&mut BufWriter<Box<dyn Write + Send>>) -> io::Result<()>,
    ) -> MutexGuard<'_, SinkState> {
        let mut out = self.out.lock().unwrap_or_else(PoisonError::into_inner);
        if out.error.is_none() {
            out.error = op(&mut out.writer).err();
            if out.error.is_some() {
                self.failed.store(true, Ordering::Relaxed);
            }
        }
        out
    }
}

impl Drop for TraceSink {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

/// Shared in-memory JSONL buffer behind a [`TraceSink`].
#[derive(Clone, Default)]
pub struct TraceBuffer(Arc<Mutex<Vec<u8>>>);

impl TraceBuffer {
    /// The JSONL text accumulated so far (flush the sink first).
    pub fn text(&self) -> String {
        let bytes = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        String::from_utf8_lossy(&bytes).into_owned()
    }

    /// Parse the accumulated records.
    pub fn records(&self) -> Result<Vec<TrialTrace>, String> {
        read_jsonl_str(&self.text())
    }
}

impl Write for TraceBuffer {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Parse JSONL trace text into records. Blank lines are skipped; the first
/// malformed line fails the whole parse, naming its line number.
pub fn read_jsonl_str(text: &str) -> Result<Vec<TrialTrace>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| TrialTrace::from_json_line(l).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// Parse a JSONL trace file back into records.
pub fn read_jsonl(path: &Path) -> Result<Vec<TrialTrace>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    read_jsonl_str(&text)
}

/// Outcome tallies for one aggregation key.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeTally {
    /// `crash` records.
    pub crash: u64,
    /// `soc` records.
    pub soc: u64,
    /// `benign` records.
    pub benign: u64,
}

impl OutcomeTally {
    fn add(&mut self, outcome: &str) {
        match outcome {
            "crash" => self.crash += 1,
            "soc" => self.soc += 1,
            _ => self.benign += 1,
        }
    }

    /// Total records in this tally.
    pub fn total(&self) -> u64 {
        self.crash + self.soc + self.benign
    }
}

/// Injection-site × outcome aggregation of a set of trace records.
#[derive(Debug, Default)]
pub struct TraceSummary {
    /// Tallies keyed by `(tool, opcode)` — the fault provenance axis the
    /// paper's accuracy argument turns on.
    pub by_tool_opcode: BTreeMap<(String, String), OutcomeTally>,
    /// Overall tallies per tool.
    pub by_tool: BTreeMap<String, OutcomeTally>,
    /// Records with no `site` (fault never fired — selector past end).
    pub no_injection: u64,
    /// Total records.
    pub total: u64,
}

impl TraceSummary {
    /// Aggregate records.
    pub fn from_records(records: &[TrialTrace]) -> TraceSummary {
        let mut s = TraceSummary::default();
        for r in records {
            s.total += 1;
            s.by_tool.entry(r.tool.clone()).or_default().add(&r.outcome);
            match &r.opcode {
                Some(op) => s
                    .by_tool_opcode
                    .entry((r.tool.clone(), op.clone()))
                    .or_default()
                    .add(&r.outcome),
                None => s.no_injection += 1,
            }
        }
        s
    }

    /// Render the injection-site × outcome table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<8} {:<12} {:>7} {:>7} {:>7} {:>7}\n",
            "tool", "opcode", "trials", "crash", "soc", "benign"
        ));
        for ((tool, opcode), t) in &self.by_tool_opcode {
            out.push_str(&format!(
                "{:<8} {:<12} {:>7} {:>7} {:>7} {:>7}\n",
                tool,
                opcode,
                t.total(),
                t.crash,
                t.soc,
                t.benign
            ));
        }
        out.push_str(&format!(
            "{} records total, {} with no injection fired\n",
            self.total, self.no_injection
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(tool: &str, opcode: Option<&str>, outcome: &str, trial: u64) -> TrialTrace {
        TrialTrace {
            app: "matmul".into(),
            tool: tool.into(),
            trial,
            seed: 0xdead_beef ^ trial,
            target_dyn: 100 + trial,
            site: opcode.map(|_| 7),
            opcode: opcode.map(Into::into),
            operand: opcode.map(|_| 0),
            bit: opcode.map(|_| 13),
            outcome: outcome.into(),
            trap: (outcome == "crash").then(|| "segfault".to_string()),
            cycles: 1234,
            instrs: 567,
        }
    }

    #[test]
    fn trial_trace_serde_round_trip() {
        let mut odd = rec("refine", Some("q\"b\\s\nc\u{1}é"), "crash", 7);
        odd.seed = u64::MAX;
        let line = odd.to_json().compact();
        assert_eq!(
            line,
            r#"{"app":"matmul","tool":"refine","trial":7,"seed":18446744073709551615,"target_dyn":107,"#
                .to_owned()
                + r#""site":7,"opcode":"q\"b\\s\nc\u0001é","operand":0,"bit":13,"outcome":"crash","#
                + r#""trap":"segfault","cycles":1234,"instrs":567}"#
        );
        assert_eq!(TrialTrace::from_json_line(&line), Ok(odd));
        let none = rec("pinfi", None, "benign", 2);
        assert_eq!(TrialTrace::from_json_line(&none.to_json().compact()), Ok(none));
    }

    #[test]
    fn malformed_lines_are_rejected_with_their_cause() {
        let line = rec("refine", Some("ld"), "crash", 1).to_json().compact();
        let open = &line[..line.len() - 1];
        for (text, want) in [
            (r#"{"app":"x"}"#.to_string(), "line 1: missing field `tool`"),
            (format!(r#"{open},"extra":1}}"#), "line 1: unknown field `extra`"),
            (format!(r#"{open},"app":"y"}}"#), "line 1: duplicate field `app`"),
            (
                line.replace(r#""trial":1"#, r#""trial":"1""#),
                "line 1: field `trial` is not an unsigned integer",
            ),
            (line.replace(r#""app":"matmul""#, r#""app":null"#), "line 1: field `app` is null"),
            (
                line.replace("crash", "bogus"),
                "line 1: field `outcome` is `bogus`, not crash, soc or benign",
            ),
            (format!("{line} x"), "line 1: trailing input from `x`"),
            (format!("\n{open}"), "line 2: truncated input: expected `}`"),
        ] {
            assert_eq!(read_jsonl_str(&text).unwrap_err(), want, "{text}");
        }
    }

    #[test]
    fn failed_sink_keeps_its_first_error() {
        /// Takes `.0` more bytes, then fails; `.1` counts write calls.
        struct FailAfter(usize, Arc<Mutex<usize>>);
        impl Write for FailAfter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                *self.1.lock().unwrap() += 1;
                let n = buf.len().min(self.0);
                self.0 -= n;
                (n > 0)
                    .then_some(n)
                    .ok_or_else(|| io::Error::new(io::ErrorKind::StorageFull, "device full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let calls = Arc::new(Mutex::new(0));
        let sink = TraceSink::new(Box::new(FailAfter(10_000, Arc::clone(&calls))));
        let r = rec("refine", Some("alu.add"), "crash", 0);
        sink.write(&r);
        assert!(!sink.failed(), "a buffered write has not met the writer yet");
        // 200 records overflow the writer's buffer several times.
        (0..200).for_each(|_| sink.write(&r));
        assert!(sink.failed());
        let after_failure = *calls.lock().unwrap();
        (0..200).for_each(|_| sink.write(&r));
        for _ in 0..2 {
            let err = sink.flush().unwrap_err();
            assert_eq!(
                (err.kind(), err.to_string()),
                (io::ErrorKind::StorageFull, "device full".into())
            );
        }
        assert_eq!(*calls.lock().unwrap(), after_failure, "nothing is written after a failure");
    }

    #[test]
    fn sink_writes_jsonl_and_reads_back() {
        let dir = std::env::temp_dir().join("refine-telemetry-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("trace-{}.jsonl", std::process::id()));
        let records = vec![
            rec("llfi", Some("fmul"), "soc", 0),
            rec("refine", Some("ld"), "crash", 1),
            rec("refine", None, "benign", 2),
        ];
        {
            let sink = TraceSink::to_file(&path).unwrap();
            for r in &records {
                sink.write(r);
            }
            sink.flush().unwrap();
        }
        let back = read_jsonl(&path).unwrap();
        assert_eq!(back, records);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn in_memory_sink_round_trips() {
        let (sink, buf) = TraceSink::in_memory();
        let records =
            vec![rec("refine", Some("alu.add"), "crash", 0), rec("pinfi", None, "benign", 1)];
        for r in &records {
            sink.write(r);
        }
        sink.flush().unwrap();
        assert_eq!(buf.records().unwrap(), records);
        assert_eq!(buf.text().lines().count(), 2);
    }

    #[test]
    fn summary_aggregates_by_site_and_outcome() {
        let records = vec![
            rec("refine", Some("alu.add"), "crash", 0),
            rec("refine", Some("alu.add"), "benign", 1),
            rec("refine", Some("fmul"), "soc", 2),
            rec("pinfi", Some("alu.add"), "benign", 3),
            rec("pinfi", None, "benign", 4),
        ];
        let s = TraceSummary::from_records(&records);
        assert_eq!(s.total, 5);
        assert_eq!(s.no_injection, 1);
        let t = &s.by_tool_opcode[&("refine".to_string(), "alu.add".to_string())];
        assert_eq!((t.crash, t.soc, t.benign), (1, 0, 1));
        assert_eq!(s.by_tool["pinfi"].total(), 2);
        let table = s.render();
        assert!(table.contains("alu.add"));
        assert!(table.contains("5 records total"));
    }
}
