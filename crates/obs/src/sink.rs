//! Pluggable trace sinks.
//!
//! A [`Sink`] receives every [`Record`] emitted while tracing is enabled.
//! The built-in sinks cover the two needs of the pipeline: machine-readable
//! JSON-lines for the `report`/`check-trace` tools ([`JsonLinesSink`]),
//! and an in-memory ring buffer for tests and post-mortem capture
//! ([`RingSink`]).

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

use crate::json;
use crate::record::{Kind, Record};

/// Receives trace records. Implementations must be thread-safe: records
/// arrive concurrently from every instrumented thread.
pub trait Sink: Send + Sync {
    /// Handles one record. Borrowed data is only valid for the call.
    fn record(&self, record: &Record<'_>);
    /// Flushes any buffered output (end of run, or on demand).
    fn flush(&self) {}
}

/// Discards everything. Installing it is equivalent to disabled tracing
/// except that `enabled()` stays true; exists mostly for benchmarks that
/// want to measure instrumentation overhead in isolation.
#[derive(Debug, Default)]
pub struct NoopSink;

impl Sink for NoopSink {
    fn record(&self, _record: &Record<'_>) {}
}

/// Renders `record` as one JSON-lines object (no trailing newline).
///
/// Wire schema (validated by `paper-eval check-trace`):
/// every record has `ts`, `kind`, `name` and `thread`; span records add
/// `span`/`parent`, close records add `dur_us`, counter records add
/// `value`, and non-empty payloads ride in a nested `fields` object.
pub fn render_json(record: &Record<'_>) -> String {
    let mut line = String::with_capacity(96);
    line.push_str("{\"ts\":");
    let _ = write!(line, "{}", record.ts_us);
    line.push_str(",\"kind\":\"");
    line.push_str(record.kind.label());
    line.push_str("\",\"name\":");
    json::escape_into(&mut line, record.name);
    let _ = write!(line, ",\"thread\":{}", record.thread);
    match record.kind {
        Kind::SpanOpen | Kind::SpanClose => {
            let _ = write!(line, ",\"span\":{},\"parent\":{}", record.span, record.parent);
        }
        Kind::Event => {
            if record.span != 0 {
                let _ = write!(line, ",\"span\":{}", record.span);
            }
        }
        Kind::Counter => {}
    }
    if let Some(dur) = record.dur_us {
        let _ = write!(line, ",\"dur_us\":{dur}");
    }
    if !record.fields.is_empty() {
        line.push_str(",\"fields\":{");
        for (i, (key, value)) in record.fields.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            json::escape_into(&mut line, key);
            line.push(':');
            json::value_into(&mut line, value);
        }
        line.push('}');
    }
    line.push('}');
    line
}

enum Target {
    Stderr,
    File(BufWriter<File>),
}

impl Target {
    fn write_line(&mut self, line: &str) {
        let result = match self {
            Target::Stderr => {
                let stderr = io::stderr();
                let mut handle = stderr.lock();
                handle
                    .write_all(line.as_bytes())
                    .and_then(|()| handle.write_all(b"\n"))
            }
            Target::File(w) => w
                .write_all(line.as_bytes())
                .and_then(|()| w.write_all(b"\n")),
        };
        // A broken trace file must not take the decision procedure down.
        let _ = result;
    }

    fn flush(&mut self) {
        let _ = match self {
            Target::Stderr => io::stderr().flush(),
            Target::File(w) => w.flush(),
        };
    }
}

/// JSON-lines sink writing to a file or stderr.
pub struct JsonLinesSink {
    target: Mutex<Target>,
}

impl JsonLinesSink {
    /// Creates (truncating) the trace file at `path`.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<JsonLinesSink> {
        let file = File::create(path)?;
        Ok(JsonLinesSink {
            target: Mutex::new(Target::File(BufWriter::new(file))),
        })
    }

    /// Writes JSON lines to stderr.
    pub fn stderr() -> JsonLinesSink {
        JsonLinesSink {
            target: Mutex::new(Target::Stderr),
        }
    }
}

impl Sink for JsonLinesSink {
    fn record(&self, record: &Record<'_>) {
        let line = render_json(record);
        if let Ok(mut target) = self.target.lock() {
            target.write_line(&line);
        }
    }

    fn flush(&self) {
        if let Ok(mut target) = self.target.lock() {
            target.flush();
        }
    }
}

/// Thread-safe bounded ring buffer of rendered JSON lines: keeps the most
/// recent `capacity` records in memory. Used by the test suite and handy
/// as a flight recorder around a failure.
pub struct RingSink {
    capacity: usize,
    lines: Mutex<VecDeque<String>>,
}

impl RingSink {
    /// A ring holding at most `capacity` records (clamped to ≥ 1).
    pub fn new(capacity: usize) -> RingSink {
        RingSink {
            capacity: capacity.max(1),
            lines: Mutex::new(VecDeque::new()),
        }
    }

    /// The retained records, oldest first, as JSON lines.
    pub fn lines(&self) -> Vec<String> {
        self.lines
            .lock()
            .map(|l| l.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.lines.lock().map(|l| l.len()).unwrap_or(0)
    }

    /// Whether no records are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all retained records.
    pub fn clear(&self) {
        if let Ok(mut lines) = self.lines.lock() {
            lines.clear();
        }
    }
}

impl Sink for RingSink {
    fn record(&self, record: &Record<'_>) {
        let line = render_json(record);
        if let Ok(mut lines) = self.lines.lock() {
            if lines.len() == self.capacity {
                lines.pop_front();
            }
            lines.push_back(line);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Value;

    fn sample<'a>(fields: &'a [(&'a str, Value<'a>)]) -> Record<'a> {
        Record {
            ts_us: 1500,
            kind: Kind::Event,
            name: "unit.test",
            span: 7,
            parent: 0,
            thread: 1,
            dur_us: None,
            fields,
        }
    }

    #[test]
    fn json_rendering_is_parseable() {
        let fields = [
            ("n", Value::U64(3)),
            ("label", Value::Str("a \"b\"")),
            ("x", Value::F64(0.25)),
            ("neg", Value::I64(-4)),
            ("flag", Value::Bool(true)),
        ];
        let line = render_json(&sample(&fields));
        let v = json::parse(&line).expect("round trips");
        assert_eq!(v.get("kind").and_then(json::Json::as_str), Some("event"));
        let f = v.get("fields").expect("fields");
        assert_eq!(f.get("label").and_then(json::Json::as_str), Some("a \"b\""));
        assert_eq!(f.get("neg").and_then(json::Json::as_f64), Some(-4.0));
    }

    #[test]
    fn non_finite_floats_become_null() {
        let fields = [("nan", Value::F64(f64::NAN))];
        let line = render_json(&sample(&fields));
        let v = json::parse(&line).expect("parses");
        assert_eq!(v.get("fields").and_then(|f| f.get("nan")), Some(&json::Json::Null));
    }

    #[test]
    fn ring_caps_capacity() {
        let ring = RingSink::new(3);
        for i in 0..10u64 {
            let fields = [("i", Value::U64(i))];
            ring.record(&sample(&fields));
        }
        let lines = ring.lines();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"i\":7"));
        assert!(lines[2].contains("\"i\":9"));
        ring.clear();
        assert!(ring.is_empty());
    }
}
