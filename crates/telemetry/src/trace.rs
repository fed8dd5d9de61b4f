//! Per-trial fault provenance.
//!
//! Every campaign trial can emit one [`TrialTrace`] — which fault was
//! injected where, and what happened — streamed as one JSON object per
//! line to a [`TraceSink`]. The [`TraceSummary`] aggregator folds a trace
//! file back into an injection-site × outcome table.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};

/// Provenance record for one fault-injection trial.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

/// Thread-safe JSONL writer for [`TrialTrace`] records.
pub struct TraceSink {
    out: Mutex<BufWriter<Box<dyn Write + Send>>>,
}

impl TraceSink {
    /// Stream to a file at `path` (truncates).
    pub fn to_file(path: &Path) -> std::io::Result<TraceSink> {
        let f = std::fs::File::create(path)?;
        Ok(TraceSink::new(Box::new(f)))
    }

    /// Stream to an arbitrary writer.
    pub fn new(w: Box<dyn Write + Send>) -> TraceSink {
        TraceSink {
            out: Mutex::new(BufWriter::new(w)),
        }
    }

    /// Buffer records in memory. The returned handle exposes the raw JSONL
    /// bytes written so far (after [`TraceSink::flush`]); determinism tests
    /// use it to compare trace record sets without touching the filesystem.
    pub fn in_memory() -> (TraceSink, TraceBuffer) {
        let buf = TraceBuffer(Arc::new(Mutex::new(Vec::new())));
        (TraceSink::new(Box::new(buf.clone())), buf)
    }

    /// Append one record as a JSON line. Serialization happens outside
    /// the lock; the lock covers only the buffered write.
    pub fn write(&self, t: &TrialTrace) -> std::io::Result<()> {
        let mut line = serde::json::to_string(t);
        line.push('\n');
        self.out.lock().unwrap_or_else(PoisonError::into_inner).write_all(line.as_bytes())
    }

    /// Flush buffered records to the underlying writer.
    pub fn flush(&self) -> std::io::Result<()> {
        self.out.lock().unwrap_or_else(PoisonError::into_inner).flush()
    }
}

impl Drop for TraceSink {
    fn drop(&mut self) {
        let _ = self.out.lock().unwrap_or_else(PoisonError::into_inner).flush();
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
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Parse JSONL trace text into records.
pub fn read_jsonl_str(text: &str) -> Result<Vec<TrialTrace>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| {
            serde::json::from_str(l).map_err(|e| format!("line {}: {e}", i + 1))
        })
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
        for r in [
            rec("refine", Some("alu.add"), "crash", 1),
            rec("pinfi", None, "benign", 2),
        ] {
            let line = serde::json::to_string(&r);
            let back: TrialTrace = serde::json::from_str(&line).unwrap();
            assert_eq!(back, r);
        }
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
                sink.write(r).unwrap();
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
            sink.write(r).unwrap();
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
