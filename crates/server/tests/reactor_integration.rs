//! End-to-end tests for the connection deadline discipline and the
//! epoll reactor front door, on a real server over TCP.
//!
//! A half-open client (partial frame, then silence) must be reaped
//! within the configured `stall_limit` during normal serving — while a
//! concurrent well-behaved client stays untouched — and an oversized
//! length word must come back as a typed `FRAME_TOO_LARGE` error frame
//! before the close, not a silent drop. That the reactor serves ledgers
//! byte-identical to `sim::simulate` is pinned by `server_integration`.

use delta_server::protocol::MAX_FRAME_BYTES;
use delta_server::{
    error_code, read_frame, DeltaClient, FrontDoor, PolicyKind, Request, Response, Server,
    ServerConfig,
};
use delta_storage::ObjectId;
use delta_workload::{Event, SyntheticSurvey, UpdateEvent, WorkloadConfig};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn small_survey(n: usize) -> SyntheticSurvey {
    let mut cfg = WorkloadConfig::small();
    cfg.n_queries = n;
    cfg.n_updates = n;
    SyntheticSurvey::generate(&cfg)
}

fn start(threads: usize, stall_limit: Duration, n: usize) -> (Server, SyntheticSurvey) {
    let survey = small_survey(n);
    let config = ServerConfig {
        bind: "127.0.0.1:0".to_string(),
        n_shards: 2,
        cache_bytes: survey.catalog.total_bytes() / 3,
        policy: PolicyKind::VCover,
        seed: 7,
        front: FrontDoor { threads },
        stall_limit,
        ..ServerConfig::default()
    };
    let server = Server::start(config, survey.catalog.clone()).expect("server starts");
    (server, survey)
}

/// Reads the half-open socket until the server closes it, returning
/// how long the reap took. Panics if the server answers instead.
fn await_reap(half: &mut TcpStream) -> Duration {
    half.set_read_timeout(Some(Duration::from_secs(20)))
        .expect("set read timeout");
    let t0 = Instant::now();
    let mut buf = [0u8; 64];
    match half.read(&mut buf) {
        Ok(0) => t0.elapsed(),
        Ok(n) => panic!("half-open connection received {n} unexpected bytes"),
        Err(e) if matches!(e.kind(), ErrorKind::ConnectionReset | ErrorKind::BrokenPipe) => {
            t0.elapsed()
        }
        Err(e) => panic!("expected the half-open connection to be reaped, got {e}"),
    }
}

/// The core half-open regression: a client that sent part of a frame
/// and went quiet is reaped within the stall limit **without any
/// shutdown pending**, a concurrent well-behaved client is unaffected,
/// and the reap is visible on `conn.stall_drops`.
#[test]
fn half_open_reaped_under_reactor() {
    let stall = Duration::from_millis(300);
    let (server, _survey) = start(1, stall, 10);
    let addr = server.local_addr();

    let mut good = DeltaClient::connect(addr).expect("connect");
    good.update(&UpdateEvent {
        seq: 1,
        object: ObjectId(0),
        bytes: 10,
    })
    .expect("well-behaved update before the stall");

    // Half a frame: a length word promising 64 payload bytes, 8 sent,
    // then silence — the slowloris shape.
    let mut half = TcpStream::connect(addr).expect("connect raw");
    half.write_all(&64u32.to_be_bytes()).expect("length word");
    half.write_all(&[0u8; 8]).expect("partial payload");
    half.flush().expect("flush");

    let reaped_after = await_reap(&mut half);
    assert!(
        reaped_after >= Duration::from_millis(150),
        "reaped after {reaped_after:?} — faster than the {stall:?} stall limit allows"
    );
    assert!(
        reaped_after < Duration::from_secs(10),
        "reap took {reaped_after:?}, far beyond the {stall:?} stall limit"
    );

    // The well-behaved connection lived through the reap untouched.
    good.update(&UpdateEvent {
        seq: 2,
        object: ObjectId(1),
        bytes: 10,
    })
    .expect("well-behaved update after the stall");
    let snap = good.telemetry().expect("telemetry");
    assert!(
        snap.counter("conn.stall_drops") >= 1,
        "the reap must be counted under conn.stall_drops"
    );

    good.shutdown().expect("shutdown");
    server.join();
}

/// An oversized length word draws a typed `FRAME_TOO_LARGE` error
/// frame before the close — the client learns *why* it was dropped —
/// and the drop is counted under `conn.oversize_rejects`.
#[test]
fn oversize_typed_reply_under_reactor() {
    let (server, _survey) = start(1, Duration::from_secs(5), 10);
    let addr = server.local_addr();

    let mut s = TcpStream::connect(addr).expect("connect raw");
    s.write_all(&(MAX_FRAME_BYTES + 1).to_be_bytes())
        .expect("oversized length word");
    s.flush().expect("flush");

    s.set_read_timeout(Some(Duration::from_secs(20)))
        .expect("set read timeout");
    let payload = read_frame(&mut s).expect("typed error frame before close");
    match Response::decode(&payload).expect("decodable response") {
        Response::Error { code, message } => {
            assert_eq!(code, error_code::FRAME_TOO_LARGE, "message: {message}");
            assert!(
                message.contains("MAX_FRAME_BYTES"),
                "message should name the limit: {message}"
            );
        }
        other => panic!("expected a typed error frame, got {other:?}"),
    }
    // ... and then the close.
    let mut buf = [0u8; 8];
    match s.read(&mut buf) {
        Ok(0) => {}
        Ok(n) => panic!("{n} unexpected bytes after the oversize reply"),
        Err(e) if matches!(e.kind(), ErrorKind::ConnectionReset | ErrorKind::BrokenPipe) => {}
        Err(e) => panic!("expected close after the oversize reply, got {e}"),
    }

    let mut client = DeltaClient::connect(addr).expect("connect");
    let snap = client.telemetry().expect("telemetry");
    assert!(
        snap.counter("conn.oversize_rejects") >= 1,
        "the drop must be counted under conn.oversize_rejects"
    );
    client.shutdown().expect("shutdown");
    server.join();
}

/// A swarm of concurrently pipelined connections over the reactor:
/// every frame answered, nothing reaped, and the reactor's own
/// telemetry saw the population.
#[test]
fn pipelined_swarm_over_reactor() {
    let (server, survey) = start(2, Duration::from_secs(5), 400);
    let addr = server.local_addr();
    const CONNS: usize = 48;

    std::thread::scope(|scope| {
        for lane in 0..CONNS {
            let events: Vec<Event> = survey
                .trace
                .iter()
                .skip(lane)
                .step_by(CONNS)
                .cloned()
                .collect();
            scope.spawn(move || {
                let check = |response: Response| match response {
                    Response::QueryOk { .. } | Response::UpdateOk { .. } => {}
                    other => panic!("lane {lane}: unexpected response {other:?}"),
                };
                let mut pipe = DeltaClient::connect(addr).expect("connect").pipelined(4);
                for event in &events {
                    let request = match event {
                        Event::Query(q) => Request::Query(q.clone()),
                        Event::Update(u) => Request::Update(*u),
                    };
                    pipe.submit(&request).expect("submit");
                    for (_corr, response) in pipe.completed() {
                        check(response);
                    }
                }
                for (_corr, response) in pipe.drain().expect("drain") {
                    check(response);
                }
            });
        }
    });

    let mut client = DeltaClient::connect(addr).expect("connect");
    let stats = client.stats().expect("stats");
    assert!(
        stats.total_events() >= survey.trace.len() as u64,
        "every event must be accounted"
    );
    let snap = client.telemetry().expect("telemetry");
    assert_eq!(
        snap.counter("conn.stall_drops"),
        0,
        "no well-behaved pipelined connection may be reaped"
    );
    assert!(
        snap.counter("reactor.accepted") >= CONNS as u64,
        "the reactor must have accepted the swarm"
    );
    client.shutdown().expect("shutdown");
    server.join();
}
