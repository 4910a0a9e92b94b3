//! A small blocking client for the serve protocol — used by the
//! `sufsat client` subcommand, the load generator and the test battery.

use std::fmt;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use sufsat_obs::json::{self, Json};

use crate::protocol::{read_frame, write_frame, FrameError, DEFAULT_MAX_FRAME};

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport-level failure.
    Io(io::Error),
    /// The server closed the connection (cleanly or mid-frame).
    Closed,
    /// The server's reply was not a JSON object.
    BadReply(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Closed => write!(f, "server closed the connection"),
            ClientError::BadReply(m) => write!(f, "bad reply: {m}"),
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// One connection to a `sufsat-serve` daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_id: u64,
}

impl Client {
    /// Connects to the daemon.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let write_half = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer: BufWriter::new(write_half),
            next_id: 1,
        })
    }

    /// Caps how long a single reply read may block.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Sends a raw payload without waiting for a reply.
    pub fn send_raw(&mut self, payload: &[u8]) -> io::Result<()> {
        write_frame(&mut self.writer, payload)
    }

    /// Sends raw bytes as-is — *not* framed. Only the protocol fuzzer
    /// wants this.
    pub fn send_bytes(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.write_all(bytes)?;
        self.writer.flush()
    }

    /// Reads one reply frame and parses it.
    pub fn read_reply(&mut self) -> Result<Json, ClientError> {
        match read_frame(&mut self.reader, DEFAULT_MAX_FRAME) {
            Ok(payload) => {
                let text = std::str::from_utf8(&payload)
                    .map_err(|_| ClientError::BadReply("non-UTF-8 reply".to_owned()))?;
                json::parse(text).map_err(ClientError::BadReply)
            }
            Err(FrameError::Closed) | Err(FrameError::Truncated) => Err(ClientError::Closed),
            Err(FrameError::Io(e)) => Err(ClientError::Io(e)),
            Err(e) => Err(ClientError::BadReply(e.to_string())),
        }
    }

    /// Sends a request body (a JSON object *without* an `id`; one is
    /// stamped in) and waits for the matching reply.
    pub fn call(&mut self, body: &str) -> Result<Json, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let trimmed = body.trim();
        let stamped = if let Some(rest) = trimmed.strip_prefix('{') {
            format!("{{\"id\":{id},{rest}")
        } else {
            trimmed.to_owned()
        };
        self.send_raw(stamped.as_bytes())?;
        let reply = self.read_reply()?;
        Ok(reply)
    }

    /// Convenience: one-shot decide of a SUF problem text. Returns the
    /// reply object (fields `status`, `verdict`, …).
    pub fn decide(
        &mut self,
        problem: &str,
        timeout: Option<Duration>,
    ) -> Result<Json, ClientError> {
        let mut body = String::from("\"op\":\"decide\",\"problem\":");
        json::escape_into(&mut body, problem);
        if let Some(t) = timeout {
            body.push_str(&format!(",\"timeout_ms\":{}", t.as_millis()));
        }
        self.call(&format!("{{{body}}}"))
    }

    /// Convenience: asks the server for its counter dump, the `metrics`
    /// reply under its `stats` alias.
    pub fn stats(&mut self) -> Result<Json, ClientError> {
        self.call(r#"{"op":"stats"}"#)
    }

    /// Convenience: asks the server for its full introspection dump
    /// (counters, latency/queue-wait quantiles, per-worker progress).
    pub fn metrics(&mut self) -> Result<Json, ClientError> {
        self.call(r#"{"op":"metrics"}"#)
    }

    /// Convenience: the cheap liveness/drain probe.
    pub fn health(&mut self) -> Result<Json, ClientError> {
        self.call(r#"{"op":"health"}"#)
    }

    /// Convenience: dumps one diagnostic structure, e.g.
    /// `"slow_requests"`.
    pub fn debug_dump(&mut self, what: &str) -> Result<Json, ClientError> {
        let mut body = String::from("\"op\":\"debug\",\"what\":");
        json::escape_into(&mut body, what);
        self.call(&format!("{{{body}}}"))
    }

    /// Convenience: begins the graceful drain.
    pub fn shutdown_server(&mut self) -> Result<Json, ClientError> {
        self.call(r#"{"op":"shutdown"}"#)
    }
}

/// The `status` field of a reply, or `"?"`.
pub fn reply_status(reply: &Json) -> &str {
    reply.get("status").and_then(Json::as_str).unwrap_or("?")
}

/// The `verdict` field of a reply, or `"?"`.
pub fn reply_verdict(reply: &Json) -> &str {
    reply.get("verdict").and_then(Json::as_str).unwrap_or("?")
}
