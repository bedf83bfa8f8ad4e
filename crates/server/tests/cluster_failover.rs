//! The failover acceptance pin: SIGKILL a primary mid-trace in a
//! 2-node cluster running `--replicas 1` and assert the whole
//! robustness contract at once —
//!
//! * **zero wrong answers**: every event either succeeds, fails with a
//!   typed error, or is fenced as `ALREADY_APPLIED` on a retry — never
//!   a silent drop and never a fabricated result;
//! * **bounded unavailability**: the first success on an orphaned shard
//!   lands within 2× the router's `node_timeout` of the kill;
//! * **determinism across the failover**: the final per-shard ledgers
//!   (served by the promoted backups) are byte-identical to
//!   `sim::simulate` over the offline `shard_trace` twin;
//! * **live counters**: `router.promotions`/`router.failovers` and the
//!   `replica.*` scrape plane all moved.
//!
//! The nodes are real `delta-serverd` processes (a SIGKILL must take a
//! whole process, not a thread), sharing the catalog through a trace
//! file; the router runs in-process so the test can keep a tight
//! `node_timeout`.
//!
//! The trace uses **single-object queries only**: a multi-shard item
//! split across *different nodes* is at-least-once under failover (the
//! surviving node has no fence for a retried sub-item it already
//! applied), which is exactly the caveat DESIGN.md documents.

use delta_core::{sim, CostLedger, VCover};
use delta_server::{
    error_code, shard_trace, DeltaClient, FrontDoor, NodeRole, PartitionerKind, Request, Response,
    Router, RouterConfig,
};
use delta_storage::{ObjectCatalog, ObjectId};
use delta_workload::{Event, QueryEvent, QueryKind, Trace, UpdateEvent};
use std::net::{SocketAddr, TcpListener};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const SHARDS: usize = 4;
const NODES: usize = 2;
const SEED: u64 = 42;
const N_EVENTS: usize = 6_000;
const NODE_TIMEOUT: Duration = Duration::from_millis(1_000);

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// A deterministic catalog + single-shard-item trace (single-object
/// queries, single-object updates, seqs 1..=N).
fn workload() -> (ObjectCatalog, Trace) {
    let mut rng = 0xfeed_d0d0_cafe_f00du64;
    let sizes: Vec<u64> = (0..256).map(|_| 500 + xorshift(&mut rng) % 7_500).collect();
    let catalog = ObjectCatalog::from_sizes(&sizes);
    let n = catalog.len() as u64;
    let events: Vec<Event> = (0..N_EVENTS)
        .map(|i| {
            let seq = i as u64 + 1;
            let object = ObjectId((xorshift(&mut rng) % n) as u32);
            if xorshift(&mut rng).is_multiple_of(4) {
                Event::Update(UpdateEvent {
                    seq,
                    object,
                    bytes: 1 + xorshift(&mut rng) % 4_000,
                })
            } else {
                Event::Query(QueryEvent {
                    seq,
                    objects: vec![object],
                    result_bytes: 64 + xorshift(&mut rng) % 2_000,
                    tolerance: xorshift(&mut rng) % 3,
                    kind: if xorshift(&mut rng).is_multiple_of(2) {
                        QueryKind::Selection
                    } else {
                        QueryKind::Cone
                    },
                })
            }
        })
        .collect();
    (catalog, Trace::new(events))
}

/// Per-shard `sim::simulate` ledgers over the offline twin — the
/// oracle the post-failover cluster must match byte for byte.
fn expected_shard_ledgers(
    catalog: &ObjectCatalog,
    trace: &Trace,
    cache_bytes: u64,
) -> Vec<CostLedger> {
    let map = PartitionerKind::RoundRobin.build(SHARDS, catalog.len());
    shard_trace(map.as_ref(), catalog, trace, cache_bytes)
        .into_iter()
        .enumerate()
        .map(|(shard, (catalog, trace, shard_cache))| {
            let mut p = VCover::new(shard_cache, SEED + shard as u64);
            let opts = sim::SimOptions {
                cache_bytes: shard_cache,
                sample_every: u64::MAX,
                link: None,
            };
            sim::simulate(&mut p, &catalog, &trace, opts).ledger
        })
        .collect()
}

/// Reserves a distinct loopback port by binding ephemeral and dropping
/// the listener (the usual small race; the daemons bind right after).
fn free_addr() -> SocketAddr {
    let l = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let addr = l.local_addr().expect("local addr");
    drop(l);
    addr
}

/// Spawns one `delta-serverd` cluster node as a real OS process.
fn spawn_node(
    bin: &str,
    addr: SocketAddr,
    node: usize,
    peers: &str,
    trace_path: &std::path::Path,
    cache_bytes: u64,
) -> Child {
    Command::new(bin)
        .args([
            "--bind",
            &addr.to_string(),
            "--shards",
            &SHARDS.to_string(),
            "--partitioner",
            "rr",
            "--cache-bytes",
            &cache_bytes.to_string(),
            "--policy",
            "vcover",
            "--seed",
            &SEED.to_string(),
            "--trace",
            &trace_path.display().to_string(),
            "--node-id",
            &node.to_string(),
            "--nodes",
            &NODES.to_string(),
            "--replicas",
            "1",
            "--peers",
            peers,
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn delta-serverd")
}

/// Polls until the node at `addr` answers a cluster-role hello.
fn await_node(addr: SocketAddr) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if let Ok(mut c) = DeltaClient::connect(addr) {
            if let Ok(info) = c.hello(0) {
                assert_eq!(info.role, NodeRole::ClusterNode);
                return;
            }
        }
        assert!(Instant::now() < deadline, "node {addr} never came up");
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn connect_router(addr: SocketAddr) -> DeltaClient {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match DeltaClient::connect(addr) {
            Ok(c) => return c,
            Err(e) => {
                assert!(Instant::now() < deadline, "router unreachable: {e}");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

#[test]
fn sigkilled_primary_fails_over_with_zero_wrong_answers() {
    let (catalog, trace) = workload();
    let cache_bytes = (catalog.total_bytes() as f64 * 0.3) as u64;
    let trace_path =
        std::env::temp_dir().join(format!("delta-failover-{}.jsonl", std::process::id()));
    delta_workload::write_jsonl(&trace_path, &catalog, &trace, "failover chaos trace")
        .expect("write trace file");

    // Two real node processes: node 0 hosts shards {0, 2}, node 1 hosts
    // {1, 3}; with --replicas 1 each node backs up its successor, so
    // node 0 carries backups of {1, 3} — the shards we orphan.
    let addrs: Vec<SocketAddr> = (0..NODES).map(|_| free_addr()).collect();
    let peers = format!("{},{}", addrs[0], addrs[1]);
    let bin = env!("CARGO_BIN_EXE_delta-serverd");
    let mut children: Vec<Child> = (0..NODES)
        .map(|node| spawn_node(bin, addrs[node], node, &peers, &trace_path, cache_bytes))
        .collect();
    for &addr in &addrs {
        await_node(addr);
    }

    let router = Router::start(
        RouterConfig {
            bind: "127.0.0.1:0".to_string(),
            nodes: addrs.iter().map(|a| a.to_string()).collect(),
            frontend: None,
            front: FrontDoor::Reactor { threads: 2 },
            stall_limit: delta_server::connection::STALL_LIMIT,
            node_timeout: NODE_TIMEOUT,
        },
        catalog.clone(),
    )
    .expect("router starts");
    let router_addr = router.local_addr();

    let map = PartitionerKind::RoundRobin.build(SHARDS, catalog.len());
    let dead_node = 1usize;
    let orphaned = |e: &Event| {
        let o = match e {
            Event::Query(q) => q.objects[0],
            Event::Update(u) => u.object,
        };
        map.shard_of(o) % NODES == dead_node
    };

    let kill_at = N_EVENTS / 2;
    let mut client = connect_router(router_addr);
    let mut t_kill: Option<Instant> = None;
    let mut recovered: Option<Duration> = None;
    let mut fenced = 0u64;
    let mut retries = 0u64;

    for (i, e) in trace.events.iter().enumerate() {
        if i == kill_at {
            // The healthy phase acknowledged every write at R: no reply
            // left on its deadline with a backup still missing it.
            let healthy = connect_router(router_addr)
                .telemetry()
                .expect("healthy-phase telemetry");
            assert!(
                healthy.counter("replica.shipped_events") > 0,
                "the scrape must cover the nodes' replication counters"
            );
            assert_eq!(healthy.counter("replica.acked_below_r"), 0);
            children[dead_node].kill().expect("SIGKILL node 1");
            t_kill = Some(Instant::now());
        }
        let req = match e {
            Event::Query(q) => Request::Query(q.clone()),
            Event::Update(u) => Request::Update(*u),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut attempt = 0u32;
        loop {
            assert!(
                Instant::now() < deadline,
                "event {i} ({e:?}) never settled: failover is stuck"
            );
            match client.request(&req) {
                Ok(Response::QueryOk { .. }) | Ok(Response::UpdateOk { .. }) => {
                    if let (Some(t0), true, None) = (t_kill, orphaned(e), recovered) {
                        recovered = Some(t0.elapsed());
                    }
                    break;
                }
                // A retried event the promoted backup already holds: the
                // fence answers typed and the client counts it done.
                // Only legal on a retry, only after the kill.
                Ok(Response::Error { code, message }) if code == error_code::ALREADY_APPLIED => {
                    assert!(
                        attempt > 0 && t_kill.is_some(),
                        "event {i}: spurious ALREADY_APPLIED: {message}"
                    );
                    if let (Some(t0), true, None) = (t_kill, orphaned(e), recovered) {
                        recovered = Some(t0.elapsed());
                    }
                    fenced += 1;
                    break;
                }
                // The unavailability window: typed, bounded, retried.
                Ok(Response::Error { code, message }) if code == error_code::NODE_UNAVAILABLE => {
                    assert!(
                        t_kill.is_some(),
                        "event {i}: NODE_UNAVAILABLE before the kill: {message}"
                    );
                    retries += 1;
                    attempt += 1;
                    std::thread::sleep(Duration::from_millis(20));
                }
                // An epoch bump landed between our frames: re-handshake.
                Ok(Response::WrongEpoch { epoch }) => {
                    client.hello(epoch).expect("re-handshake");
                    attempt += 1;
                }
                Ok(other) => panic!("event {i}: wrong answer: {other:?}"),
                Err(_) => {
                    attempt += 1;
                    client = connect_router(router_addr);
                }
            }
        }
    }

    // Bounded unavailability: the orphaned shards answered again within
    // 2× node_timeout of the SIGKILL.
    let recovered = recovered.expect("no post-kill event touched an orphaned shard");
    assert!(
        recovered < 2 * NODE_TIMEOUT,
        "promotion took {recovered:?}, bound is {:?}",
        2 * NODE_TIMEOUT
    );
    assert!(
        retries > 0,
        "the kill was never observed as NODE_UNAVAILABLE"
    );

    // The router now routes all four shards (node 0 serves its two
    // primaries plus the two promoted backups) behind a bumped epoch.
    let mut admin = connect_router(router_addr);
    let info = admin.hello(0).expect("hello");
    assert_eq!(info.role, NodeRole::Router);
    assert_eq!(info.epoch, 1, "exactly one failover bumps the epoch once");
    let mut node0 = DeltaClient::connect(addrs[0]).expect("connect node 0");
    let hosted = node0.hello(info.epoch).expect("hello").hosted;
    for shard in 0..SHARDS as u16 {
        assert!(
            hosted.contains(&shard),
            "node 0 must host shard {shard} after the failover (hosts {hosted:?})"
        );
    }

    // Determinism across the failover: per-shard ledgers equal the
    // offline simulation twin byte for byte — including the two shards
    // that lived through bootstrap, replication, and promotion.
    let stats = admin.stats().expect("stats");
    assert_eq!(stats.shards.len(), SHARDS);
    let want = expected_shard_ledgers(&catalog, &trace, cache_bytes);
    for shard in &stats.shards {
        assert_eq!(
            &shard.metrics.ledger, &want[shard.shard as usize],
            "shard {} diverged from its simulation twin across the failover \
             (fenced={fenced} retries={retries})",
            shard.shard
        );
    }

    // The scrape plane saw it all: promotions on both sides of the
    // wire, a failover, and a replication stream that actually moved.
    let t = admin.telemetry().expect("telemetry");
    assert_eq!(
        t.counter("router.promotions"),
        2,
        "one promotion per orphaned shard"
    );
    assert!(
        t.counter("router.failovers") >= 1,
        "failover counter never moved"
    );
    assert_eq!(
        t.counter("node.promotions"),
        2,
        "node-side promotion counter"
    );
    assert!(
        t.counter("replica.shipped_events") > 0,
        "the primaries never shipped a replication batch"
    );
    assert!(
        t.counter("replica.applied_events") > 0,
        "the backups never applied a replicated event"
    );
    assert!(
        t.counter("replica.bootstraps") > 0,
        "no backup was ever bootstrapped"
    );
    assert!(
        t.gauges
            .iter()
            .any(|(name, _)| name == "replica.lag_events"),
        "the replica lag gauge is missing from the cluster scrape"
    );

    // Graceful teardown: the router shuts the surviving node down
    // (skipping the dead one) and both children get reaped.
    admin.shutdown().expect("cluster shutdown");
    router.join();
    for mut child in children {
        let _ = child.wait();
    }
    let _ = std::fs::remove_file(&trace_path);
}
