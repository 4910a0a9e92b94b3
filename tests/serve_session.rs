//! Concurrency and soak battery for the `sufsat-serve` daemon.
//!
//! Drives a real in-process server over real TCP connections: mixed
//! decide/session traffic from many clients, mid-solve disconnects,
//! deadline expiry (in the queue and in the solver), admission-control
//! overload bursts, and graceful drains. Every verdict
//! the server hands out is compared against a fresh [`sufsat::decide`]
//! on the same formula, and every test ends by proving the server
//! reclaimed everything: zero inflight jobs, zero open sessions.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use sufsat::serve::{reply_status, reply_verdict, Client, CounterSnapshot, ServeOptions, Server};
use sufsat::{decide, DecideOptions, Outcome, TermManager};
use sufsat_obs::json::{self, Json};

/// Shared declarations for the small-problem pool and session scripts.
const HEADER: &str = "(vars a b c) (funs (f 1) (g 1))";

/// `(HEADER (formula BODY))` — one self-contained problem text.
fn problem(body: &str) -> String {
    format!("{HEADER} (formula {body})")
}

/// Mixed pool of quick decide bodies (valid and invalid).
const POOL: &[&str] = &[
    "(=> (= a b) (= (f a) (f b)))",
    "(= a b)",
    "(or (= a b) (not (= a b)))",
    "(=> (= (f a) (f b)) (= a b))",
    "(=> (and (= a b) (= b c)) (= (f a) (f c)))",
    "(=> (= a (succ b)) (> a b))",
    "(and (= (g a) b) (not (= (g a) b)))",
];

/// The reference verdict for a problem text, via a fresh end-to-end
/// decide with the server's default options.
fn reference_verdict(text: &str) -> &'static str {
    let mut tm = TermManager::new();
    let phi = sufsat::parse_problem(&mut tm, text).expect("pool problem parses");
    match decide(&mut tm, phi, &DecideOptions::default()).outcome {
        Outcome::Valid => "valid",
        Outcome::Invalid(_) => "invalid",
        Outcome::Unknown(_) => "unknown",
    }
}

/// An EUF pigeonhole instance: `pigeons` pigeons into `pigeons - 1`
/// holes. The asserted conjunction is unsatisfiable, so the decide text
/// is valid — but proving it is exponentially hard for CDCL, which makes
/// this the standard "still solving when something else happens" load.
fn php_problem(pigeons: usize) -> String {
    let holes = pigeons - 1;
    let mut vars = String::new();
    for i in 0..pigeons {
        vars.push_str(&format!(" p{i}"));
    }
    for j in 0..holes {
        vars.push_str(&format!(" h{j}"));
    }
    let mut conj = String::new();
    for i in 0..pigeons {
        let mut alt = String::new();
        for j in 0..holes {
            alt.push_str(&format!(" (= p{i} h{j})"));
        }
        conj.push_str(&format!(" (or{alt})"));
    }
    for i in 0..pigeons {
        for k in i + 1..pigeons {
            conj.push_str(&format!(" (not (= p{i} p{k}))"));
        }
    }
    format!("(vars{vars}) (formula (not (and{conj})))")
}

fn call(client: &mut Client, body: &str) -> Json {
    client.call(body).expect("request round-trips")
}

/// At drain every received frame must have been answered exactly once:
/// `requests == ok + errors + overloaded`. Anything else means a request
/// was double-counted or silently dropped.
fn assert_counter_invariant(c: &CounterSnapshot) {
    assert_eq!(
        c.requests,
        c.ok + c.errors + c.overloaded,
        "requests != ok + errors + overloaded at drain: {c:?}"
    );
}

fn u64_field(reply: &Json, key: &str) -> u64 {
    reply
        .get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("reply lacks u64 `{key}`: {reply:?}"))
}

/// Polls `stats` until `pred` holds (or panics after ~10 s).
fn wait_for_stats(addr: &str, what: &str, pred: impl Fn(&Json) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut c = Client::connect(addr).expect("stats connect");
        let stats = c.stats().expect("stats reply");
        if pred(&stats) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what}; last stats: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// A session script: interleaved assert/push/pop/check whose every check
/// verdict must equal `decide` on the negated live conjunction.
fn run_session_script(client: &mut Client) {
    let open = call(client, r#"{"op":"session-open"}"#);
    assert_eq!(reply_status(&open), "ok", "open failed: {open:?}");
    let sid = u64_field(&open, "session");

    let assert_body = |client: &mut Client, body: &str| {
        let mut msg = format!("{{\"op\":\"session-assert\",\"session\":{sid},\"problem\":");
        json::escape_into(&mut msg, &problem(body));
        msg.push('}');
        let reply = call(client, &msg);
        assert_eq!(reply_status(&reply), "ok", "assert failed: {reply:?}");
    };
    let check = |client: &mut Client, live: &[&str]| {
        let reply = call(
            client,
            &format!("{{\"op\":\"session-check\",\"session\":{sid},\"timeout_ms\":60000}}"),
        );
        assert_eq!(reply_status(&reply), "ok", "check failed: {reply:?}");
        let expected = reference_verdict(&problem(&format!("(not (and {}))", live.join(" "))));
        assert_eq!(
            reply_verdict(&reply),
            expected,
            "session check disagrees with fresh decide on {live:?}"
        );
    };

    let a1 = "(= a b)";
    let a2 = "(not (= (f a) (f b)))";
    let a3 = "(= b (succ c))";
    assert_body(client, a1);
    check(client, &[a1]);
    let push = call(client, &format!("{{\"op\":\"session-push\",\"session\":{sid}}}"));
    assert_eq!(u64_field(&push, "depth"), 1);
    assert_body(client, a2);
    check(client, &[a1, a2]);
    let pop = call(client, &format!("{{\"op\":\"session-pop\",\"session\":{sid}}}"));
    assert_eq!(u64_field(&pop, "depth"), 0);
    assert_body(client, a3);
    check(client, &[a1, a3]);
    let close = call(client, &format!("{{\"op\":\"session-close\",\"session\":{sid}}}"));
    assert_eq!(reply_status(&close), "ok", "close failed: {close:?}");
}

#[test]
fn soak_mixed_traffic() {
    const CLIENTS: usize = 8;
    const REQUESTS: usize = 50;
    let expected: Vec<&'static str> = POOL.iter().map(|b| reference_verdict(&problem(b))).collect();
    let handle = Server::bind(
        "127.0.0.1:0",
        ServeOptions {
            workers: 4,
            queue_cap: 64,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = handle.local_addr().to_string();
    let mismatches = AtomicUsize::new(0);

    std::thread::scope(|s| {
        for t in 0..CLIENTS {
            let addr = &addr;
            let expected = &expected;
            let mismatches = &mismatches;
            s.spawn(move || {
                let mut client = Client::connect(&**addr).expect("soak connect");
                client
                    .set_read_timeout(Some(Duration::from_secs(120)))
                    .unwrap();
                for r in 0..REQUESTS {
                    match (t + r) % 9 {
                        // One request in nine runs a whole session script.
                        8 => run_session_script(&mut client),
                        k => {
                            let body = POOL[k % POOL.len()];
                            let mut msg = String::from("{\"op\":\"decide\",\"problem\":");
                            json::escape_into(&mut msg, &problem(body));
                            msg.push_str(",\"timeout_ms\":60000}");
                            let reply = call(&mut client, &msg);
                            assert_eq!(
                                reply_status(&reply),
                                "ok",
                                "soak decide failed: {reply:?}"
                            );
                            if reply_verdict(&reply) != expected[k % POOL.len()] {
                                mismatches.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                }
            });
        }
    });

    assert_eq!(
        mismatches.load(Ordering::Relaxed),
        0,
        "server verdicts diverged from fresh decide"
    );
    let mut c = Client::connect(&*addr).unwrap();
    let stats = c.stats().unwrap();
    let panics = stats
        .get("counters")
        .and_then(|c| c.get("panics"))
        .and_then(Json::as_u64);
    assert_eq!(panics, Some(0), "workers panicked during the soak");
    let report = handle.shutdown();
    assert_eq!(report.inflight, 0, "jobs leaked past shutdown");
    assert_eq!(report.open_sessions, 0, "sessions leaked past shutdown");
    assert_eq!(report.counters.panics, 0);
    assert!(report.counters.requests >= (CLIENTS * REQUESTS) as u64);
    assert_counter_invariant(&report.counters);
}

#[test]
fn disconnect_mid_solve_frees_the_lane() {
    let handle = Server::bind(
        "127.0.0.1:0",
        ServeOptions {
            workers: 1,
            queue_cap: 8,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = handle.local_addr().to_string();

    // Occupy the only worker with a pigeonhole instance that CDCL cannot
    // finish in test-relevant time, then vanish.
    let hard = php_problem(12);
    {
        let mut doomed = Client::connect(&*addr).unwrap();
        let mut msg = String::from("{\"op\":\"decide\",\"problem\":");
        json::escape_into(&mut msg, &hard);
        msg.push('}');
        doomed.send_raw(msg.as_bytes()).unwrap();
        // Let the worker pick it up before hanging up on it.
        wait_for_stats(&addr, "hard job to start", |s| {
            s.get("inflight").and_then(Json::as_f64) == Some(1.0)
        });
        // `doomed` drops here: connection cleanup must cancel the solve.
    }

    // The lane must come back fast — far faster than the solve would
    // ever finish on its own.
    let started = Instant::now();
    let mut client = Client::connect(&*addr).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let reply = client
        .decide(&problem(POOL[0]), Some(Duration::from_secs(30)))
        .unwrap();
    assert_eq!(reply_status(&reply), "ok");
    assert_eq!(reply_verdict(&reply), "valid");
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "lane not reclaimed after disconnect"
    );
    wait_for_stats(&addr, "cancellation to be recorded", |s| {
        s.get("counters")
            .and_then(|c| c.get("cancelled"))
            .and_then(Json::as_u64)
            .is_some_and(|n| n >= 1)
    });
    let report = handle.shutdown();
    assert_eq!(report.inflight, 0);
    assert_counter_invariant(&report.counters);
}

#[test]
fn deadline_expiry_bounds_latency() {
    let handle = Server::bind(
        "127.0.0.1:0",
        ServeOptions {
            workers: 1,
            queue_cap: 8,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = handle.local_addr().to_string();
    let hard = php_problem(12);

    // Solver-side expiry: the deadline lands mid-search.
    let mut client = Client::connect(&*addr).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let started = Instant::now();
    let reply = client.decide(&hard, Some(Duration::from_millis(300))).unwrap();
    let elapsed = started.elapsed();
    assert_eq!(reply_status(&reply), "ok");
    assert_eq!(reply_verdict(&reply), "unknown", "expected timeout: {reply:?}");
    assert_eq!(
        reply.get("reason").and_then(Json::as_str),
        Some("timeout"),
        "unexpected reason: {reply:?}"
    );
    assert!(
        elapsed < Duration::from_secs(30),
        "deadline overshot by far: {elapsed:?}"
    );

    // Queue-side expiry: with the lone worker busy, a short-deadline job
    // times out while still waiting and is answered without solving.
    let mut blocker = Client::connect(&*addr).unwrap();
    let mut msg = String::from("{\"op\":\"decide\",\"problem\":");
    json::escape_into(&mut msg, &hard);
    msg.push_str(",\"timeout_ms\":5000}");
    blocker.send_raw(msg.as_bytes()).unwrap();
    wait_for_stats(&addr, "blocker to start", |s| {
        s.get("inflight").and_then(Json::as_f64) == Some(1.0)
            && s.get("queue_depth").and_then(Json::as_f64) == Some(0.0)
    });
    let reply = client.decide(&hard, Some(Duration::from_millis(100))).unwrap();
    assert_eq!(reply_status(&reply), "ok");
    assert_eq!(reply_verdict(&reply), "unknown");
    assert_eq!(reply.get("queue_expired").and_then(Json::as_u64), Some(1));
    drop(blocker);
    let report = handle.shutdown();
    assert_eq!(report.inflight, 0);
    assert!(report.counters.deadline_expired >= 1);
    assert!(report.counters.timeouts >= 2);
    assert_counter_invariant(&report.counters);
}

#[test]
fn overload_burst_rejects_immediately() {
    let handle = Server::bind(
        "127.0.0.1:0",
        ServeOptions {
            workers: 1,
            queue_cap: 1,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = handle.local_addr().to_string();
    let hard = php_problem(12);
    let send_hard = |timeout_ms: u64| -> Client {
        let mut c = Client::connect(&*addr).unwrap();
        let mut msg = String::from("{\"op\":\"decide\",\"problem\":");
        json::escape_into(&mut msg, &hard);
        msg.push_str(&format!(",\"timeout_ms\":{timeout_ms}}}"));
        c.send_raw(msg.as_bytes()).unwrap();
        c
    };

    // One job on the worker, one in the queue.
    let running = send_hard(60_000);
    wait_for_stats(&addr, "first hard job to start", |s| {
        s.get("inflight").and_then(Json::as_f64) == Some(1.0)
            && s.get("queue_depth").and_then(Json::as_f64) == Some(0.0)
    });
    let queued = send_hard(60_000);
    wait_for_stats(&addr, "second hard job to queue", |s| {
        s.get("queue_depth").and_then(Json::as_f64) == Some(1.0)
    });

    // The burst: every request must bounce with `overloaded`, fast.
    let mut client = Client::connect(&*addr).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let started = Instant::now();
    for _ in 0..10 {
        let reply = client.decide(&problem(POOL[0]), None).unwrap();
        assert_eq!(
            reply_status(&reply),
            "overloaded",
            "full queue must reject: {reply:?}"
        );
    }
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "overload rejection was not immediate"
    );

    // Dropping both hard clients cancels their jobs; the server drains.
    drop(running);
    drop(queued);
    let report = handle.shutdown();
    assert_eq!(report.inflight, 0);
    assert!(report.counters.overloaded >= 10);
    assert_counter_invariant(&report.counters);
}

#[test]
fn graceful_shutdown_drains_inflight_work() {
    let handle = Server::bind(
        "127.0.0.1:0",
        ServeOptions {
            workers: 2,
            queue_cap: 8,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = handle.local_addr().to_string();

    // A job that outlives the shutdown request by its timeout.
    let mut inflight = Client::connect(&*addr).unwrap();
    inflight.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let hard = php_problem(12);
    let mut msg = String::from("{\"id\":1,\"op\":\"decide\",\"problem\":");
    json::escape_into(&mut msg, &hard);
    msg.push_str(",\"timeout_ms\":1500}");
    inflight.send_raw(msg.as_bytes()).unwrap();
    wait_for_stats(&addr, "inflight job to start", |s| {
        s.get("inflight").and_then(Json::as_f64) == Some(1.0)
    });

    let mut admin = Client::connect(&*addr).unwrap();
    let reply = admin.shutdown_server().unwrap();
    assert_eq!(reply_status(&reply), "ok");

    // New work is refused while draining…
    let mut late = Client::connect(&*addr).unwrap();
    late.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    // An error instead of a reply means the acceptor is already gone,
    // which is equally fine.
    if let Ok(reply) = late.decide(&problem(POOL[0]), None) {
        assert_eq!(reply_status(&reply), "error", "draining: {reply:?}");
    }

    // …but the admitted job still gets its answer.
    let reply = inflight.read_reply().unwrap();
    assert_eq!(reply_status(&reply), "ok");
    assert_eq!(reply_verdict(&reply), "unknown");

    let report = handle.wait();
    assert_eq!(report.inflight, 0);
    assert_eq!(report.queued, 0);
    assert_eq!(report.open_sessions, 0);
    assert_counter_invariant(&report.counters);
}

#[test]
fn shutdown_reply_is_written_before_the_stop() {
    // The `shutdown` op starts the drain, which completes at once on an
    // idle daemon, and then queues its `ok` for the connection's reader.
    // The stop (`wait` on its own thread, as `sufsat serve` runs it) must
    // not close the connection before that reply is on the wire.
    const ROUNDS: usize = 2000;
    let mut lost = Vec::new();
    for round in 0..ROUNDS {
        let handle = Server::bind(
            "127.0.0.1:0",
            ServeOptions {
                workers: 1,
                ..ServeOptions::default()
            },
        )
        .unwrap();
        let addr = handle.local_addr();
        let stop = std::thread::spawn(move || handle.wait());
        let mut client = Client::connect(addr).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        match client.shutdown_server() {
            Ok(reply) => assert_eq!(reply_status(&reply), "ok", "{reply:?}"),
            Err(e) => lost.push((round, e.to_string())),
        }
        let report = stop.join().expect("stop thread");
        assert_counter_invariant(&report.counters);
    }
    assert!(
        lost.is_empty(),
        "{} of {ROUNDS} shutdown replies lost, first: {:?}",
        lost.len(),
        lost.first()
    );
}

#[test]
fn client_that_never_reads_cannot_hold_up_the_stop() {
    let handle = Server::bind("127.0.0.1:0", ServeOptions::default()).unwrap();
    let addr = handle.local_addr();
    // Pipeline far more replies than the socket buffers hold, and never
    // read one: the connection's reader ends up blocked mid-write.
    const FLOOD: u64 = 10_000;
    let mut flood = Client::connect(addr).unwrap();
    for _ in 0..FLOOD {
        flood.send_raw(br#"{"op":"metrics"}"#).unwrap();
    }
    wait_for_stats(&addr.to_string(), "the flood to start being read", |s| {
        s.get("counters")
            .and_then(|c| c.get("requests"))
            .and_then(Json::as_u64)
            .is_some_and(|n| n >= 1)
    });
    let (tx, rx) = std::sync::mpsc::channel();
    let stopper = std::thread::spawn(move || tx.send(handle.shutdown()).unwrap());
    let report = rx
        .recv_timeout(Duration::from_secs(120))
        .expect("a client that never reads held up the stop");
    stopper.join().expect("stop thread");
    assert_counter_invariant(&report.counters);
    drop(flood);
}

#[test]
fn client_that_stops_reading_is_cut_off() {
    let handle = Server::bind("127.0.0.1:0", ServeOptions::default()).unwrap();
    let addr = handle.local_addr();
    // Pipeline 100,000 `metrics` requests and read no reply. Their
    // replies (about 1 KB each) outgrow the socket buffers long before
    // the requests run out, so the daemon must stop reading and cut the
    // connection off instead of queueing replies.
    const FLOOD: u64 = 100_000;
    let mut flood = Client::connect(addr).unwrap();
    let flooder = std::thread::spawn(move || {
        for _ in 0..FLOOD {
            // A failed send means the daemon already hung up.
            if flood.send_raw(br#"{"op":"metrics"}"#).is_err() {
                break;
            }
        }
        flood
    });
    wait_for_stats(&addr.to_string(), "the flood to start being read", |s| {
        s.get("counters")
            .and_then(|c| c.get("requests"))
            .and_then(Json::as_u64)
            .is_some_and(|n| n >= 1)
    });
    // Other clients are served meanwhile.
    let mut other = Client::connect(addr).unwrap();
    other
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let reply = other.health().unwrap();
    assert_eq!(reply_status(&reply), "ok", "{reply:?}");
    drop(other);
    // The flood's connection is closed once a write of its replies has
    // not finished within the daemon's write timeout; the kernel frees
    // buffer space in spurts, each of which lets one more write finish,
    // so allow a few such periods. Then only the poller's own connection
    // remains.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let stats = Client::connect(addr).unwrap().stats().unwrap();
        if stats.get("connections").and_then(Json::as_f64) == Some(1.0) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the flood was never cut off: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    let flood = flooder.join().expect("flood thread");
    let report = handle.shutdown();
    drop(flood);
    assert!(
        report.counters.requests < FLOOD,
        "every pipelined request was read: {:?}",
        report.counters
    );
    assert_counter_invariant(&report.counters);
}

#[test]
fn client_that_stops_reading_holds_up_neither_the_workers_nor_the_stop() {
    use std::io::Write;
    let handle = Server::bind(
        "127.0.0.1:0",
        ServeOptions {
            workers: 2,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = handle.local_addr();
    let frame = |payload: &[u8]| [&(payload.len() as u32).to_be_bytes()[..], payload].concat();
    // The client has one decide per worker admitted, each ending at its
    // 1 s deadline, and meanwhile pipelines far more `metrics` replies
    // than the socket buffers hold and reads none: when the decides end,
    // both workers have a reply for a client that takes none.
    let stalled = std::net::TcpStream::connect(addr).unwrap();
    let mut writer = stalled.try_clone().unwrap();
    for pigeons in [12, 13] {
        let mut msg = String::from("{\"op\":\"decide\",\"timeout_ms\":1000,\"problem\":");
        json::escape_into(&mut msg, &php_problem(pigeons));
        msg.push('}');
        writer.write_all(&frame(msg.as_bytes())).unwrap();
    }
    let flooder = std::thread::spawn(move || {
        let metrics = frame(br#"{"op":"metrics"}"#);
        for _ in 0..100_000 {
            // A failed send means the daemon hung up.
            if writer.write_all(&metrics).is_err() {
                break;
            }
        }
    });
    wait_for_stats(&addr.to_string(), "both decides to reach their deadline", |s| {
        s.get("counters")
            .and_then(|c| c.get("timeouts"))
            .and_then(Json::as_u64)
            .is_some_and(|n| n >= 2)
    });
    // Another client's decide finds a free worker at once: a worker
    // blocked writing to the stalled client would hold it for the
    // daemon's 2 s write timeout.
    let mut other = Client::connect(addr).unwrap();
    other
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let started = Instant::now();
    let reply = other.decide(&problem(POOL[0]), None).unwrap();
    assert_eq!(reply_status(&reply), "ok", "{reply:?}");
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "another client's decide took {:?}",
        started.elapsed()
    );
    drop(other);
    // The stop gives up on the stalled client one write timeout after it
    // half-closes the connections, at the latest.
    let (tx, rx) = std::sync::mpsc::channel();
    let stopper = std::thread::spawn(move || tx.send(handle.shutdown()).unwrap());
    let report = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("a client that stopped reading held up the stop");
    stopper.join().expect("stop thread");
    flooder.join().expect("flood thread");
    drop(stalled);
    assert_counter_invariant(&report.counters);
}

#[test]
fn client_that_keeps_sending_cannot_hold_up_the_stop() {
    use std::io::{Read, Write};
    let handle = Server::bind("127.0.0.1:0", ServeOptions::default()).unwrap();
    let addr = handle.local_addr();
    // One thread pipelines `health` requests without pause and another
    // reads every reply, so the daemon always has a request to read, even
    // from a half-closed socket.
    let stream = std::net::TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let sender = std::thread::spawn(move || {
        let health = br#"{"op":"health"}"#;
        let frame = [&(health.len() as u32).to_be_bytes()[..], health].concat();
        while writer.write_all(&frame).is_ok() {}
    });
    let receiver = std::thread::spawn(move || {
        let mut stream = stream;
        let mut buf = [0u8; 4096];
        while matches!(stream.read(&mut buf), Ok(n) if n > 0) {}
    });
    wait_for_stats(&addr.to_string(), "the requests to be read", |s| {
        s.get("counters")
            .and_then(|c| c.get("requests"))
            .and_then(Json::as_u64)
            .is_some_and(|n| n >= 1000)
    });
    // The reader answers no frame past the stop's half-close; were it to
    // go on, only the write timeout would end the connection, 2 s later.
    let (tx, rx) = std::sync::mpsc::channel();
    let stopper = std::thread::spawn(move || tx.send(handle.shutdown()).unwrap());
    let report = rx
        .recv_timeout(Duration::from_millis(1500))
        .expect("a client that keeps sending held up the stop");
    stopper.join().expect("stop thread");
    sender.join().expect("send thread");
    receiver.join().expect("receive thread");
    assert_counter_invariant(&report.counters);
}

#[test]
fn session_error_paths_are_clean() {
    let handle = Server::bind("127.0.0.1:0", ServeOptions::default()).unwrap();
    let addr = handle.local_addr().to_string();
    let mut client = Client::connect(&*addr).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(60))).unwrap();

    // Unknown session.
    let reply = call(&mut client, r#"{"op":"session-check","session":424242}"#);
    assert_eq!(reply_status(&reply), "error");

    // Pop without push must be a clean error, not a worker panic.
    let open = call(&mut client, r#"{"op":"session-open"}"#);
    let sid = u64_field(&open, "session");
    let reply = call(&mut client, &format!("{{\"op\":\"session-pop\",\"session\":{sid}}}"));
    assert_eq!(reply_status(&reply), "error", "bare pop: {reply:?}");

    // The session still works after the rejected pop.
    let mut msg = format!("{{\"op\":\"session-assert\",\"session\":{sid},\"problem\":");
    json::escape_into(&mut msg, &problem("(= a b)"));
    msg.push('}');
    assert_eq!(reply_status(&call(&mut client, &msg)), "ok");

    // Close, then every further op is an unknown-session error.
    let close = call(&mut client, &format!("{{\"op\":\"session-close\",\"session\":{sid}}}"));
    assert_eq!(reply_status(&close), "ok");
    let reply = call(&mut client, &format!("{{\"op\":\"session-check\",\"session\":{sid}}}"));
    assert_eq!(reply_status(&reply), "error", "use after close: {reply:?}");
    let reply = call(&mut client, &format!("{{\"op\":\"session-close\",\"session\":{sid}}}"));
    assert_eq!(reply_status(&reply), "error", "double close: {reply:?}");

    let stats = client.stats().unwrap();
    let panics = stats
        .get("counters")
        .and_then(|c| c.get("panics"))
        .and_then(Json::as_u64);
    assert_eq!(panics, Some(0));
    let report = handle.shutdown();
    assert_eq!(report.open_sessions, 0, "closed session leaked");
    assert_counter_invariant(&report.counters);
}

#[test]
fn dropped_connection_reclaims_open_sessions() {
    let handle = Server::bind("127.0.0.1:0", ServeOptions::default()).unwrap();
    let addr = handle.local_addr().to_string();
    {
        let mut client = Client::connect(&*addr).unwrap();
        client.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        for _ in 0..3 {
            let open = call(&mut client, r#"{"op":"session-open"}"#);
            assert_eq!(reply_status(&open), "ok");
        }
        // Drop with all three sessions open.
    }
    wait_for_stats(&addr, "sessions to be reclaimed", |s| {
        s.get("open_sessions").and_then(Json::as_f64) == Some(0.0)
    });
    let report = handle.shutdown();
    assert_eq!(report.open_sessions, 0);
    assert_eq!(report.counters.sessions_opened, 3);
    assert_counter_invariant(&report.counters);
}
