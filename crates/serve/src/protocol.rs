//! The wire protocol: length-prefixed JSON frames and the request/reply
//! schema.
//!
//! # Framing
//!
//! Every message — in both directions — is one *frame*:
//!
//! ```text
//! frame   := length payload
//! length  := u32, big-endian, number of payload bytes (1 ..= max_frame)
//! payload := UTF-8 JSON object
//! ```
//!
//! A frame whose length field is `0` or exceeds the server's `max_frame`
//! is a *framing* error: the stream can no longer be trusted to be in
//! sync, so the server sends one final `error` reply and closes the
//! connection. A payload that fails UTF-8 or JSON validation is a
//! *payload* error: framing is still intact, so the server replies
//! `error` and keeps the connection open.
//!
//! # Requests
//!
//! Every request is a JSON object with an `op` field and an optional
//! client-chosen `id` (echoed verbatim in the reply, so pipelined
//! clients can match replies to requests):
//!
//! | `op`                | fields                                             |
//! |---------------------|----------------------------------------------------|
//! | `decide`            | `problem`, `mode?`, `septhold?`, `cnf?`, `timeout_ms?`, `preprocess?` |
//! | `session-open`      | `mode?`, `septhold?`, `cnf?`, `preprocess?`        |
//! | `session-assert`    | `session`, `problem`                               |
//! | `session-push`      | `session`                                          |
//! | `session-pop`       | `session`                                          |
//! | `session-check`     | `session`, `timeout_ms?`                           |
//! | `session-close`     | `session`                                          |
//! | `metrics`           | —                                                  |
//! | `stats`             | — (an alias of `metrics`)                          |
//! | `health`            | —                                                  |
//! | `debug`             | `what` (only `"slow_requests"` today)              |
//! | `shutdown`          | —                                                  |
//!
//! `metrics` dumps the counters, gauges and result-cache state with
//! latency and queue-wait quantiles, a 10-second rolling latency window
//! and per-worker solver progress; `stats` is another name for it.
//! `health` is the cheap liveness/drain probe; `debug` dumps
//! server-internal diagnostic state (currently the slow-request log).
//! All of them are answered inline on the connection's reader thread —
//! they never queue, so they keep working while the worker pool is
//! saturated or draining.
//!
//! `problem` is a SUF problem in the s-expression surface syntax
//! accepted by [`sufsat_suf::parse_problem`]. For session ops the
//! declarations accumulate in the session's term manager, so later
//! assertions may refer to earlier declarations without repeating them.
//!
//! `timeout_ms` is a *deadline*: it starts counting when the request is
//! admitted, so time spent waiting in the job queue counts against it.
//!
//! # Replies
//!
//! * `{"id":…,"status":"ok", …}` — op-specific payload fields
//!   (`verdict`/`reason`/`time_us` for solves, `session` for opens,
//!   `assertion` for asserts, the counter dump for `metrics`).
//! * `{"id":…,"status":"error","message":…}` — malformed or unservable
//!   request; the connection stays open unless framing was lost.
//! * `{"id":…,"status":"overloaded"}` — admission control rejected the
//!   request because the job queue was full. Immediate, never queued.

use std::fmt;
use std::io::{self, Read, Write};

use sufsat_core::{CnfMode, EncodingMode, DEFAULT_SEP_THOLD};
use sufsat_obs::json::{self, Json};

/// Default cap on one frame's payload size (1 MiB).
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// Reading a frame from the peer failed.
#[derive(Debug)]
pub enum FrameError {
    /// Clean end-of-stream on a frame boundary: the peer hung up.
    Closed,
    /// End-of-stream in the middle of a frame header or payload.
    Truncated,
    /// The length field was zero.
    Empty,
    /// The length field exceeded the configured cap.
    TooLarge(usize),
    /// The underlying transport failed.
    Io(io::Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Truncated => write!(f, "truncated frame"),
            FrameError::Empty => write!(f, "empty frame (length 0)"),
            FrameError::TooLarge(n) => write!(f, "frame of {n} bytes exceeds the frame cap"),
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl FrameError {
    /// Whether the byte stream is still in sync after this error (the
    /// connection can keep serving) or must be closed.
    pub fn recoverable(&self) -> bool {
        matches!(self, FrameError::Empty)
    }
}

/// Reads one length-prefixed frame. `max_frame` bounds the payload size.
pub fn read_frame(r: &mut impl Read, max_frame: usize) -> Result<Vec<u8>, FrameError> {
    let mut header = [0u8; 4];
    let mut got = 0;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Err(FrameError::Closed),
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_be_bytes(header) as usize;
    if len == 0 {
        return Err(FrameError::Empty);
    }
    if len > max_frame {
        return Err(FrameError::TooLarge(len));
    }
    let mut payload = vec![0u8; len];
    let mut filled = 0;
    while filled < len {
        match r.read(&mut payload[filled..]) {
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(payload)
}

/// Writes one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// The operation a request asks for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// One-shot [`sufsat_core::decide`].
    Decide,
    /// Create an incremental session owned by this connection.
    SessionOpen,
    /// Assert a formula in a session's current scope.
    SessionAssert,
    /// Open a scope.
    SessionPush,
    /// Close the innermost scope.
    SessionPop,
    /// Decide validity of the negated live conjunction.
    SessionCheck,
    /// Destroy a session.
    SessionClose,
    /// Dump counters, gauges and result-cache state plus latency and
    /// queue-wait quantiles and per-worker solver progress (`stats` on
    /// the wire is an alias).
    Metrics,
    /// Cheap liveness and drain-state probe.
    Health,
    /// Dump server-internal diagnostic state selected by `what`.
    Debug,
    /// Begin graceful drain-then-stop shutdown.
    Shutdown,
}

impl Op {
    /// The wire name.
    pub fn name(&self) -> &'static str {
        match self {
            Op::Decide => "decide",
            Op::SessionOpen => "session-open",
            Op::SessionAssert => "session-assert",
            Op::SessionPush => "session-push",
            Op::SessionPop => "session-pop",
            Op::SessionCheck => "session-check",
            Op::SessionClose => "session-close",
            Op::Metrics => "metrics",
            Op::Health => "health",
            Op::Debug => "debug",
            Op::Shutdown => "shutdown",
        }
    }
}

/// A validated request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the reply.
    pub id: Option<u64>,
    /// The operation.
    pub op: Op,
    /// SUF problem text (`decide*`, `session-assert`).
    pub problem: Option<String>,
    /// Target session id (session ops other than open).
    pub session: Option<u64>,
    /// Per-request deadline in milliseconds, measured from admission.
    pub timeout_ms: Option<u64>,
    /// Encoding mode override.
    pub mode: Option<EncodingMode>,
    /// CNF conversion override.
    pub cnf: Option<CnfMode>,
    /// Run CNF preprocessing before the SAT search.
    pub preprocess: bool,
    /// Which diagnostic dump a `debug` op asks for.
    pub what: Option<String>,
}

fn field_u64(obj: &Json, key: &str) -> Result<Option<u64>, String> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("field `{key}` must be a non-negative integer")),
    }
}

fn field_str<'a>(obj: &'a Json, key: &str) -> Result<Option<&'a str>, String> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_str()
            .map(Some)
            .ok_or_else(|| format!("field `{key}` must be a string")),
    }
}

fn field_bool(obj: &Json, key: &str) -> Result<bool, String> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(false),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| format!("field `{key}` must be a boolean")),
    }
}

/// Parses and validates one request payload.
///
/// Errors carry a human-readable message suitable for an `error` reply;
/// when the payload at least contained a usable `id`, it is returned
/// alongside so the reply can still be correlated.
pub fn parse_request(payload: &[u8]) -> Result<Request, (Option<u64>, String)> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| (None, "payload is not valid UTF-8".to_owned()))?;
    let doc = json::parse(text).map_err(|e| (None, format!("payload is not valid JSON: {e}")))?;
    if !matches!(doc, Json::Obj(_)) {
        return Err((None, "payload must be a JSON object".to_owned()));
    }
    // A malformed `id` is reported without one.
    let id = field_u64(&doc, "id").map_err(|e| (None, e))?;
    let fail = |msg: String| (id, msg);

    let op_name = field_str(&doc, "op")
        .map_err(&fail)?
        .ok_or_else(|| fail("missing `op` field".to_owned()))?;
    let op = match op_name {
        "decide" => Op::Decide,
        "session-open" => Op::SessionOpen,
        "session-assert" => Op::SessionAssert,
        "session-push" => Op::SessionPush,
        "session-pop" => Op::SessionPop,
        "session-check" => Op::SessionCheck,
        "session-close" => Op::SessionClose,
        "metrics" | "stats" => Op::Metrics,
        "health" => Op::Health,
        "debug" => Op::Debug,
        "shutdown" => Op::Shutdown,
        other => return Err(fail(format!("unknown op `{other}`"))),
    };

    let problem = field_str(&doc, "problem").map_err(&fail)?.map(str::to_owned);
    let session = field_u64(&doc, "session").map_err(&fail)?;
    let timeout_ms = field_u64(&doc, "timeout_ms").map_err(&fail)?;
    let septhold = field_u64(&doc, "septhold").map_err(&fail)?;
    let mode = match field_str(&doc, "mode").map_err(&fail)? {
        None => None,
        Some("sd") => Some(EncodingMode::Sd),
        Some("eij") => Some(EncodingMode::Eij),
        Some("hybrid") => Some(EncodingMode::Hybrid(
            septhold.map_or(DEFAULT_SEP_THOLD, |t| t as usize),
        )),
        Some("fixed") | Some("fixed-hybrid") => Some(EncodingMode::FixedHybrid),
        Some(other) => return Err(fail(format!("unknown mode `{other}`"))),
    };
    let cnf = match field_str(&doc, "cnf").map_err(&fail)? {
        None => None,
        Some("tseitin") => Some(CnfMode::Tseitin),
        Some("pg") => Some(CnfMode::PlaistedGreenbaum),
        Some(other) => return Err(fail(format!("unknown cnf mode `{other}`"))),
    };
    let preprocess = field_bool(&doc, "preprocess").map_err(&fail)?;
    let what = field_str(&doc, "what").map_err(&fail)?.map(str::to_owned);

    let needs_problem = matches!(op, Op::Decide | Op::SessionAssert);
    if needs_problem && problem.is_none() {
        return Err(fail(format!("op `{op_name}` requires a `problem` field")));
    }
    let needs_session = matches!(
        op,
        Op::SessionAssert | Op::SessionPush | Op::SessionPop | Op::SessionCheck | Op::SessionClose
    );
    if needs_session && session.is_none() {
        return Err(fail(format!("op `{op_name}` requires a `session` field")));
    }

    Ok(Request {
        id,
        op,
        problem,
        session,
        timeout_ms,
        mode,
        cnf,
        preprocess,
        what,
    })
}

/// Incrementally builds one reply object.
pub struct ReplyBuilder {
    out: String,
}

impl ReplyBuilder {
    /// Starts a reply with the given status, echoing `id` when present.
    pub fn new(id: Option<u64>, status: &str) -> ReplyBuilder {
        let mut out = String::with_capacity(64);
        out.push('{');
        if let Some(id) = id {
            out.push_str("\"id\":");
            out.push_str(&id.to_string());
            out.push(',');
        }
        out.push_str("\"status\":");
        json::escape_into(&mut out, status);
        ReplyBuilder { out }
    }

    /// Appends a string field.
    pub fn str_field(mut self, key: &str, value: &str) -> ReplyBuilder {
        self.out.push(',');
        json::escape_into(&mut self.out, key);
        self.out.push(':');
        json::escape_into(&mut self.out, value);
        self
    }

    /// Appends an unsigned integer field.
    pub fn u64_field(mut self, key: &str, value: u64) -> ReplyBuilder {
        self.out.push(',');
        json::escape_into(&mut self.out, key);
        self.out.push(':');
        self.out.push_str(&value.to_string());
        self
    }

    /// Appends a signed integer field.
    pub fn i64_field(mut self, key: &str, value: i64) -> ReplyBuilder {
        self.out.push(',');
        json::escape_into(&mut self.out, key);
        self.out.push(':');
        self.out.push_str(&value.to_string());
        self
    }

    /// Appends a pre-rendered JSON value field (caller guarantees
    /// validity — used for the nested objects of `metrics`).
    pub fn raw_field(mut self, key: &str, raw_json: &str) -> ReplyBuilder {
        self.out.push(',');
        json::escape_into(&mut self.out, key);
        self.out.push(':');
        self.out.push_str(raw_json);
        self
    }

    /// Finishes the object and returns the payload bytes.
    pub fn finish(mut self) -> Vec<u8> {
        self.out.push('}');
        self.out.into_bytes()
    }
}

/// The `status` a [`ReplyBuilder`] reply was started with: the value of
/// its first `"status"` key, which only a numeric `id` precedes.
pub(crate) fn payload_status(payload: &[u8]) -> &[u8] {
    const KEY: &[u8] = b"\"status\":\"";
    let start = payload
        .windows(KEY.len())
        .position(|w| w == KEY)
        .map_or(payload.len(), |i| i + KEY.len());
    let len = payload[start..].iter().position(|&b| b == b'"').unwrap_or(0);
    &payload[start..start + len]
}

/// A ready-made `error` reply payload.
pub fn error_reply(id: Option<u64>, message: &str) -> Vec<u8> {
    ReplyBuilder::new(id, "error")
        .str_field("message", message)
        .finish()
}

/// A ready-made `overloaded` reply payload.
pub fn overloaded_reply(id: Option<u64>) -> Vec<u8> {
    ReplyBuilder::new(id, "overloaded").finish()
}

/// Renders a parsed [`Json`] value back to compact JSON text.
///
/// Numbers that round-trip exactly through `f64` print as integers, so
/// counters and ids come back the way the server wrote them.
pub fn render_json(v: &Json) -> String {
    match v {
        Json::Null => "null".to_owned(),
        Json::Bool(b) => b.to_string(),
        Json::Num(n) => {
            if n.fract() == 0.0 && n.abs() < 9e15 {
                format!("{}", *n as i64)
            } else {
                format!("{n}")
            }
        }
        Json::Str(s) => {
            let mut out = String::new();
            json::escape_into(&mut out, s);
            out
        }
        Json::Arr(items) => {
            let inner: Vec<String> = items.iter().map(render_json).collect();
            format!("[{}]", inner.join(","))
        }
        Json::Obj(entries) => {
            let inner: Vec<String> = entries
                .iter()
                .map(|(k, v)| {
                    let mut key = String::new();
                    json::escape_into(&mut key, k);
                    format!("{key}:{}", render_json(v))
                })
                .collect();
            format!("{{{}}}", inner.join(","))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut out = (payload.len() as u32).to_be_bytes().to_vec();
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"op\":\"stats\"}").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap(), b"{\"op\":\"stats\"}");
        assert!(matches!(
            read_frame(&mut r, DEFAULT_MAX_FRAME),
            Err(FrameError::Closed)
        ));
    }

    #[test]
    fn framing_errors_classified() {
        let mut r: &[u8] = &[0, 0];
        assert!(matches!(
            read_frame(&mut r, 64),
            Err(FrameError::Truncated)
        ));
        let mut r: &[u8] = &[0, 0, 0, 0];
        assert!(matches!(read_frame(&mut r, 64), Err(FrameError::Empty)));
        let mut r: &[u8] = &[0xff, 0xff, 0xff, 0xff];
        assert!(matches!(
            read_frame(&mut r, 64),
            Err(FrameError::TooLarge(_))
        ));
        let data = frame(b"abcdef");
        let mut r = &data[..5];
        assert!(matches!(
            read_frame(&mut r, 64),
            Err(FrameError::Truncated)
        ));
        assert!(FrameError::Empty.recoverable());
        assert!(!FrameError::TooLarge(7).recoverable());
    }

    #[test]
    fn parse_request_validates() {
        let r = parse_request(br#"{"op":"decide","id":7,"problem":"(vars x)","timeout_ms":250}"#)
            .unwrap();
        assert_eq!(r.op, Op::Decide);
        assert_eq!(r.id, Some(7));
        assert_eq!(r.timeout_ms, Some(250));
        assert_eq!(r.problem.as_deref(), Some("(vars x)"));
        assert_eq!(parse_request(br#"{"op":"stats"}"#).unwrap().op, Op::Metrics);

        // id still extracted from otherwise-bad requests.
        let (id, msg) = parse_request(br#"{"op":"nope","id":3}"#).unwrap_err();
        assert_eq!(id, Some(3));
        assert!(msg.contains("unknown op"));

        let (_, msg) = parse_request(br#"{"op":"decide"}"#).unwrap_err();
        assert!(msg.contains("requires a `problem`"));
        let (_, msg) = parse_request(br#"{"op":"session-check"}"#).unwrap_err();
        assert!(msg.contains("requires a `session`"));
        let (_, msg) = parse_request(&[0xff, 0xfe]).unwrap_err();
        assert!(msg.contains("UTF-8"));
        let (_, msg) = parse_request(b"[1,2]").unwrap_err();
        assert!(msg.contains("JSON object"));
        let (_, msg) = parse_request(br#"{"op":"decide","problem":42}"#).unwrap_err();
        assert!(msg.contains("must be a string"));
    }

    #[test]
    fn reply_builders_render() {
        let bytes = ReplyBuilder::new(Some(1), "ok")
            .str_field("verdict", "valid")
            .u64_field("time_us", 12)
            .finish();
        assert_eq!(payload_status(&bytes), b"ok");
        assert_eq!(payload_status(&error_reply(None, "\"status\":\"ok\"")), b"error");
        assert_eq!(payload_status(&overloaded_reply(Some(9))), b"overloaded");
        assert_eq!(
            String::from_utf8(bytes).unwrap(),
            r#"{"id":1,"status":"ok","verdict":"valid","time_us":12}"#
        );
        assert_eq!(
            String::from_utf8(error_reply(None, "boom")).unwrap(),
            r#"{"status":"error","message":"boom"}"#
        );
        assert_eq!(
            String::from_utf8(overloaded_reply(Some(9))).unwrap(),
            r#"{"id":9,"status":"overloaded"}"#
        );
    }
}
