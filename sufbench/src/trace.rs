//! In-memory spans recorded by the traced run around its calls into each
//! layer. Nothing is written until the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One span: a named interval within one operation.
pub struct Span {
    /// Operation the span belongs to.
    pub op: u64,
    /// Enclosing span, when there is one.
    pub parent: Option<usize>,
    /// Layer-qualified name, e.g. `encode.encode`.
    pub name: &'static str,
    /// Start, in microseconds since the tracer was created.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Counts recorded at the same boundary.
    pub fields: Vec<(&'static str, f64)>,
}

/// Records spans into memory.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, op: u64, parent: Option<usize>, name: &'static str) -> usize {
        self.spans.push(Span {
            op,
            parent,
            name,
            start_us: self.t0.elapsed().as_secs_f64() * 1e6,
            dur_us: f64::NAN,
            fields: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Closes span `id`, attaching `fields`.
    pub fn close(&mut self, id: usize, fields: &[(&'static str, f64)]) {
        let now = self.t0.elapsed().as_secs_f64() * 1e6;
        let span = &mut self.spans[id];
        span.dur_us = now - span.start_us;
        span.fields.extend_from_slice(fields);
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        op: u64,
        parent: Option<usize>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(op, parent, name);
        let out = f();
        self.close(id, &[]);
        out
    }

    /// Adds a span whose interval was measured elsewhere (e.g. split out
    /// of a reply's timing fields).
    pub fn record(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration (ms) of the spans named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us / 1000.0)
            .sum()
    }

    /// Durations (ms) of the spans named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us / 1000.0)
            .collect()
    }

    /// Sum of field `field` over the spans named `name`.
    pub fn field_sum(&self, name: &str, field: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .flat_map(|s| s.fields.iter())
            .filter(|(k, _)| *k == field)
            .map(|(_, v)| v)
            .sum()
    }

    /// Share of the time inside spans named `root` that their direct
    /// children cover.
    pub fn child_coverage(&self, root: &str) -> f64 {
        let mut root_us = 0.0;
        let mut covered: BTreeMap<usize, f64> = BTreeMap::new();
        for (id, s) in self.spans.iter().enumerate() {
            if s.name == root {
                root_us += s.dur_us;
                covered.insert(id, 0.0);
            }
        }
        for s in &self.spans {
            if let Some(c) = s.parent.and_then(|p| covered.get_mut(&p)) {
                *c += s.dur_us;
            }
        }
        covered.values().sum::<f64>() / root_us
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let mut line = format!(
                "{{\"op\":{},\"id\":{id},\"parent\":{},\"name\":\"{}\",\"start_us\":{:.1},\"dur_us\":{:.1}",
                s.op,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                s.name,
                s.start_us,
                s.dur_us,
            );
            for (k, v) in &s.fields {
                let _ = write!(line, ",\"{k}\":{v}");
            }
            line.push('}');
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}
