//! Structured run events as JSON lines.
//!
//! An [`Event`] is a named record with typed fields. When event output is
//! enabled (see [`crate::enabled`] and the `FEPIA_OBS` environment variable)
//! each event renders as one JSON object on its own line and goes to the
//! installed [`EventSink`]. The default sink is [`NullSink`]; `FEPIA_OBS=
//! <path>` installs a [`JsonlSink`] writing to that path.
//!
//! Event lines follow a stable schema:
//! `{"schema":"fepia.event/v1","event":"<name>", ...fields}` — fields keep
//! insertion order so goldens are byte-stable for a fixed emit sequence.

use crate::json::{ObjectWriter, Value};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex, RwLock};

/// Receives rendered event lines (without trailing newline).
pub trait EventSink: Send + Sync {
    /// Consumes one rendered JSON line.
    fn emit(&self, line: &str);
    /// Flushes buffered output (no-op by default).
    fn flush(&self) {}
}

/// Discards every event.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn emit(&self, _line: &str) {}
}

/// Appends events as JSON lines to a buffered file.
pub struct JsonlSink {
    out: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Creates (truncating) the file at `path`.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref();
        // FEPIA_OBS commonly points into a results directory that the run
        // itself creates later; don't fail on a missing parent.
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = File::create(path)?;
        Ok(JsonlSink {
            out: Mutex::new(BufWriter::new(file)),
        })
    }
}

impl EventSink for JsonlSink {
    fn emit(&self, line: &str) {
        let mut out = self.out.lock().expect("jsonl sink lock");
        let _ = writeln!(out, "{line}");
    }

    fn flush(&self) {
        let _ = self.out.lock().expect("jsonl sink lock").flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        if let Ok(mut out) = self.out.lock() {
            let _ = out.flush();
        }
    }
}

/// Collects event lines in memory — for tests and programmatic inspection.
#[derive(Debug, Default)]
pub struct VecSink {
    lines: Mutex<Vec<String>>,
}

impl VecSink {
    /// An empty in-memory sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The lines captured so far.
    pub fn lines(&self) -> Vec<String> {
        self.lines.lock().expect("vec sink lock").clone()
    }
}

impl EventSink for VecSink {
    fn emit(&self, line: &str) {
        self.lines
            .lock()
            .expect("vec sink lock")
            .push(line.to_string());
    }
}

static SINK: RwLock<Option<Arc<dyn EventSink>>> = RwLock::new(None);

/// Installs `sink` as the destination for event lines and returns the
/// previous sink (if any). Installing does not by itself enable event
/// output — see [`crate::set_events_enabled`].
pub fn install_sink(sink: Arc<dyn EventSink>) -> Option<Arc<dyn EventSink>> {
    SINK.write().expect("sink lock").replace(sink)
}

/// Removes the installed sink (events fall back to being dropped).
pub fn clear_sink() -> Option<Arc<dyn EventSink>> {
    SINK.write().expect("sink lock").take()
}

/// Flushes the installed sink, if any.
pub fn flush_sink() {
    if let Some(sink) = SINK.read().expect("sink lock").as_ref() {
        sink.flush();
    }
}

pub(crate) fn send_line(line: &str) {
    if let Some(sink) = SINK.read().expect("sink lock").as_ref() {
        sink.emit(line);
    }
}

/// A structured event under construction. Fields render in insertion order.
#[must_use = "an event does nothing until .emit() is called"]
pub struct Event {
    writer: Option<ObjectWriter>,
}

impl Event {
    /// Starts the event `name`. When event output is disabled this is a
    /// branch and an empty struct — no allocation.
    pub fn new(name: &str) -> Self {
        let writer = crate::events_enabled().then(|| {
            let mut w = ObjectWriter::new();
            w.field("schema", "fepia.event/v1").field("event", name);
            w
        });
        Event { writer }
    }

    /// Adds a field.
    pub fn field(mut self, key: &str, value: impl Into<Value>) -> Self {
        if let Some(w) = self.writer.as_mut() {
            w.field(key, value);
        }
        self
    }

    /// Adds a field rendered from a pre-built JSON fragment.
    pub fn field_raw(mut self, key: &str, json: &str) -> Self {
        if let Some(w) = self.writer.as_mut() {
            w.field_raw(key, json);
        }
        self
    }

    /// Renders the event and hands it to the installed sink.
    pub fn emit(self) {
        if let Some(w) = self.writer {
            send_line(&w.finish());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_swallows() {
        NullSink.emit("{}");
        NullSink.flush();
    }

    #[test]
    fn disabled_event_is_inert() {
        let _guard = crate::test_lock();
        crate::set_events_enabled(false);
        let e = Event::new("x").field("k", 1u64);
        assert!(e.writer.is_none());
        e.emit();
    }

    #[test]
    fn jsonl_sink_writes_lines() {
        let dir = std::env::temp_dir().join("fepia-obs-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        {
            let sink = JsonlSink::create(&path).unwrap();
            sink.emit(r#"{"a":1}"#);
            sink.emit(r#"{"b":2}"#);
            sink.flush();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "{\"a\":1}\n{\"b\":2}\n");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn event_schema_golden() {
        // Render directly (bypassing the global toggle) to pin the schema.
        let mut w = ObjectWriter::new();
        w.field("schema", "fepia.event/v1")
            .field("event", "radius.computed");
        w.field("feature", "mach1")
            .field("radius", 0.5)
            .field("analytic", true);
        assert_eq!(
            w.finish(),
            r#"{"schema":"fepia.event/v1","event":"radius.computed","feature":"mach1","radius":0.5,"analytic":true}"#
        );
    }
}
