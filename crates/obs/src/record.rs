//! The record model shared by every sink: one trace is a sequence of
//! [`Record`]s, each a span boundary, a point event, or a counter dump.

/// What a [`Record`] describes.
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
pub enum Kind {
    /// A span started; `span` is its fresh id, `parent` the enclosing span.
    SpanOpen,
    /// A span finished; `dur_us` carries its wall-clock duration.
    SpanClose,
    /// A point-in-time event inside the current span (`span` = enclosing).
    Event,
    /// A named counter's value at dump time (see
    /// [`emit_counter_records`](crate::emit_counter_records)).
    Counter,
}

impl Kind {
    /// The wire name used in JSON-lines output.
    pub fn label(self) -> &'static str {
        match self {
            Kind::SpanOpen => "span_open",
            Kind::SpanClose => "span_close",
            Kind::Event => "event",
            Kind::Counter => "counter",
        }
    }

    /// Parses a wire name back into a kind.
    pub fn from_label(s: &str) -> Option<Kind> {
        Some(match s {
            "span_open" => Kind::SpanOpen,
            "span_close" => Kind::SpanClose,
            "event" => Kind::Event,
            "counter" => Kind::Counter,
            _ => return None,
        })
    }
}

/// A borrowed field value. Construction never allocates, so building a
/// field slice on the stack is free enough for hot paths that are guarded
/// by [`enabled`](crate::enabled) anyway.
#[derive(Debug, Copy, Clone, PartialEq)]
pub enum Value<'a> {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Borrowed string.
    Str(&'a str),
}

macro_rules! value_from {
    ($($ty:ty => $variant:ident as $conv:ty),* $(,)?) => {
        $(impl From<$ty> for Value<'_> {
            fn from(v: $ty) -> Self {
                Value::$variant(v as $conv)
            }
        })*
    };
}

value_from!(
    u64 => U64 as u64,
    u32 => U64 as u64,
    u16 => U64 as u64,
    u8 => U64 as u64,
    usize => U64 as u64,
    i64 => I64 as i64,
    i32 => I64 as i64,
    f64 => F64 as f64,
    f32 => F64 as f64,
);

impl From<bool> for Value<'_> {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl<'a> From<&'a str> for Value<'a> {
    fn from(v: &'a str) -> Self {
        Value::Str(v)
    }
}

impl<'a> From<&'a String> for Value<'a> {
    fn from(v: &'a String) -> Self {
        Value::Str(v.as_str())
    }
}

/// One trace record, borrowed from the emitting call site. Sinks that need
/// to retain records past the call must render or copy them.
#[derive(Debug, Clone)]
pub struct Record<'a> {
    /// Microseconds since the trace epoch (the first record).
    pub ts_us: u64,
    /// Record kind.
    pub kind: Kind,
    /// Span, event, or counter name (dotted lower-case, e.g. `sat.solve`).
    pub name: &'a str,
    /// The record's span id: the span itself for open/close records, the
    /// enclosing span for events (0 = no enclosing span).
    pub span: u64,
    /// Parent span id for open/close records (0 = top level).
    pub parent: u64,
    /// Id of the emitting thread (small integers assigned in first-use
    /// order, not OS thread ids).
    pub thread: u64,
    /// Wall-clock duration, present on `SpanClose` records.
    pub dur_us: Option<u64>,
    /// Additional key/value payload.
    pub fields: &'a [(&'a str, Value<'a>)],
}
