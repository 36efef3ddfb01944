//! In-memory spans recorded around calls into each layer.
//!
//! Each caller thread owns one [`SpanLog`]; a span's parent is an index into
//! the same log, and spans of one request share its request id. Logs are
//! merged and written out once the run has finished, so recording costs two
//! clock reads and a push. A disabled log records nothing and reads no
//! clock, which is how the untraced runs use the same code.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same log.
    pub parent: Option<usize>,
    /// Request (or job) id.
    pub req: u64,
    /// Work units inside the span (moves, verdicts, curve levels, bytes).
    pub units: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct SpanLog {
    origin: Instant,
    enabled: bool,
    pub spans: Vec<Span>,
}

/// An open span: [`SpanLog::close`] fills in its end.
#[derive(Clone, Copy)]
pub struct Open(Option<usize>);

impl Open {
    /// The span's index, to use as a child's parent.
    pub fn id(self) -> Option<usize> {
        self.0
    }
}

impl SpanLog {
    pub fn new(origin: Instant, enabled: bool) -> SpanLog {
        SpanLog {
            origin,
            enabled,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
            units: 0,
        });
        Open(Some(self.spans.len() - 1))
    }

    pub fn close(&mut self, open: Open, units: u64) {
        if let Some(i) = open.0 {
            let end = self.now();
            let span = &mut self.spans[i];
            span.end_ns = end;
            span.units = units;
        }
    }
}

/// Total duration, self time and units of every span name across logs.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    pub count: u64,
    pub ns: u64,
    pub self_ns: u64,
    pub units: u64,
}

/// Sums spans by name. Self time is a span's duration minus the time its
/// direct children cover (children of one caller never overlap).
pub fn totals(logs: &[SpanLog]) -> BTreeMap<&'static str, Totals> {
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for log in logs {
        let mut child_ns = vec![0u64; log.spans.len()];
        for s in &log.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        for (s, children) in log.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.ns += s.ns();
            t.self_ns += s.ns().saturating_sub(children);
            t.units += s.units;
        }
    }
    out
}

/// Writes `provenance`, then every span, as one JSON object per line; span
/// ids are `pass.thread.index`.
pub fn write_jsonl(
    path: &std::path::Path,
    provenance: &str,
    logs: &[(&str, &[SpanLog])],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "{{\"provenance\":\"{}\"}}",
        provenance.replace('\\', "\\\\").replace('"', "\\\"")
    )?;
    for (pass, pass_logs) in logs {
        for (t, log) in pass_logs.iter().enumerate() {
            for (i, s) in log.spans.iter().enumerate() {
                let parent = s
                    .parent
                    .map_or("null".to_string(), |p| format!("\"{pass}.{t}.{p}\""));
                writeln!(
                    out,
                    "{{\"id\":\"{pass}.{t}.{i}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{},\"units\":{}}}",
                    s.name, s.start_ns, s.end_ns, s.req, s.units
                )?;
            }
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut log = SpanLog::new(Instant::now(), true);
        log.spans = vec![
            Span {
                name: "call",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                req: 1,
                units: 0,
            },
            Span {
                name: "enc",
                start_ns: 10,
                end_ns: 30,
                parent: Some(0),
                req: 1,
                units: 5,
            },
            Span {
                name: "dec",
                start_ns: 40,
                end_ns: 70,
                parent: Some(0),
                req: 1,
                units: 5,
            },
        ];
        let t = totals(&[log]);
        assert_eq!(t["call"].ns, 100);
        assert_eq!(t["call"].self_ns, 50);
        assert_eq!(t["enc"].self_ns, 20);
        assert_eq!(t["dec"].units, 5);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new(Instant::now(), false);
        let open = log.open("call", None, 7);
        log.close(open, 3);
        assert!(log.spans.is_empty());
    }
}
