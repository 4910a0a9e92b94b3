//! # sufsat-serve
//!
//! Solver-as-a-service: a resident daemon that keeps the whole sufsat
//! stack warm and multiplexes concurrent clients over a hand-rolled
//! length-prefixed JSON protocol.
//!
//! The one-shot pipeline answers a single query and exits; serving heavy
//! traffic needs a process that stays resident, bounds its concurrency,
//! rejects load it cannot absorb instead of queueing unboundedly, and
//! ties every request's lifetime to its client:
//!
//! * a fixed **worker pool** executes solves ([`ServeOptions::workers`]);
//! * a bounded MPMC **job queue** provides admission control — a full
//!   queue answers `overloaded` immediately ([`ServeOptions::queue_cap`]);
//! * per-request **deadlines** (`timeout_ms`, counted from admission)
//!   propagate into [`sufsat_sat::Solver::set_timeout`], so queue wait
//!   and search share one budget;
//! * each **connection** is served by one thread and carries one
//!   [`sufsat_sat::CancelToken`], shared by its decides and sessions: a
//!   disconnecting client frees its lanes promptly, and one that stops
//!   reading its replies is cut off after a 2 s write stall instead of
//!   having them queued;
//! * **incremental sessions** ([`sufsat_incremental::Session`]) are
//!   owned by the connection that opened them and reclaimed when it
//!   goes away;
//! * `shutdown` (or a [`ShutdownTrigger`], e.g. from a SIGTERM hook)
//!   starts a graceful **drain**: admission stops, admitted jobs finish,
//!   then the server stops with a [`ServeReport`] of its final state.
//!
//! See [`protocol`] for the wire format, [`Server`] for the daemon and
//! [`Client`] for the matching blocking client.
//!
//! # Example
//!
//! ```
//! use sufsat_serve::{Client, ServeOptions, Server};
//!
//! let handle = Server::bind("127.0.0.1:0", ServeOptions::default()).unwrap();
//! let mut client = Client::connect(handle.local_addr()).unwrap();
//! let reply = client
//!     .decide("(vars x y) (funs (f 1)) (formula (=> (= x y) (= (f x) (f y))))", None)
//!     .unwrap();
//! assert_eq!(reply.get("status").and_then(|s| s.as_str()), Some("ok"));
//! assert_eq!(reply.get("verdict").and_then(|s| s.as_str()), Some("valid"));
//! let report = handle.shutdown();
//! assert_eq!(report.inflight, 0);
//! ```

#![warn(missing_docs)]

pub mod protocol;
mod metrics;
mod poll;
mod queue;
mod server;
mod client;
mod signal;

pub use client::{reply_status, reply_verdict, Client, ClientError};
pub use protocol::render_json;
pub use server::{
    CounterSnapshot, ServeOptions, ServeReport, Server, ServerHandle, ShutdownTrigger,
};
pub use signal::termination_flag;
