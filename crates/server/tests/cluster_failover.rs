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
//!   (served by the promoted backups) are byte-identical to the
//!   offline `Twin` (`sim::simulate` per shard);
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

use delta_server::protocol::{read_frame, write_frame};
use delta_server::{
    error_code, BatchItem, BatchReply, ClusterConfig, DeltaClient, FrontDoor, NodeOp, NodeRole,
    PartitionerKind, PolicyKind, Request, Response, Router, RouterConfig, Server, ServerConfig,
    Twin,
};
use delta_storage::{ObjectCatalog, ObjectId};
use delta_workload::{Event, QueryEvent, QueryKind, Trace, UpdateEvent};
use std::net::{SocketAddr, TcpListener, TcpStream};
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

/// Reserves a distinct loopback port by binding ephemeral and dropping
/// the listener (the usual small race; the daemons bind right after).
fn free_addr() -> SocketAddr {
    let l = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let addr = l.local_addr().expect("local addr");
    drop(l);
    addr
}

/// Spawns one `delta-serverd` cluster node as a real OS process, with
/// `replicas` backups per hosted shard.
fn spawn_node(
    bin: &str,
    addr: SocketAddr,
    node: usize,
    replicas: u16,
    peers: &str,
    trace_path: &std::path::Path,
    recipe: &ServerConfig,
) -> Child {
    Command::new(bin)
        .args([
            "--bind",
            &addr.to_string(),
            "--shards",
            &recipe.n_shards.to_string(),
            "--partitioner",
            &recipe.partitioner.to_string(),
            "--cache-bytes",
            &recipe.cache_bytes.to_string(),
            "--policy",
            &recipe.policy.to_string(),
            "--seed",
            &recipe.seed.to_string(),
            "--trace",
            &trace_path.display().to_string(),
            "--node-id",
            &node.to_string(),
            "--nodes",
            &NODES.to_string(),
            "--replicas",
            &replicas.to_string(),
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
    // The recipe both nodes are started with and the twin is built from.
    let recipe = ServerConfig {
        n_shards: SHARDS,
        partitioner: PartitionerKind::RoundRobin,
        cache_bytes: (catalog.total_bytes() as f64 * 0.3) as u64,
        policy: PolicyKind::VCover,
        seed: SEED,
        ..ServerConfig::default()
    };
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
        .map(|node| spawn_node(bin, addrs[node], node, 1, &peers, &trace_path, &recipe))
        .collect();
    for &addr in &addrs {
        await_node(addr);
    }

    let router = Router::start(
        RouterConfig {
            bind: "127.0.0.1:0".to_string(),
            nodes: addrs.iter().map(|a| a.to_string()).collect(),
            frontend: None,
            front: FrontDoor { threads: 2 },
            stall_limit: delta_server::connection::STALL_LIMIT,
            node_timeout: NODE_TIMEOUT,
        },
        catalog.clone(),
    )
    .expect("router starts");
    let router_addr = router.local_addr();

    let map = recipe.partitioner.build(SHARDS, catalog.len());
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
    let want = Twin::new(&recipe, &catalog)
        .apply_all(&trace.events)
        .ledgers();
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

/// Sends `signal` (`STOP`, `CONT`) to a child process.
fn signal(child: &Child, signal: &str) {
    let status = Command::new("kill")
        .args([&format!("-{signal}"), &child.id().to_string()])
        .status()
        .expect("run kill");
    assert!(status.success(), "kill -{signal} {}", child.id());
}

/// Resumes and reaps the node processes however the test ends, so a
/// failed assertion never leaves a stopped `delta-serverd` behind.
struct Reaper(Vec<Child>);

impl Drop for Reaper {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = Command::new("kill")
                .args(["-CONT", &child.id().to_string()])
                .status();
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// A wedged node — SIGSTOPped, so its kernel still accepts connections
/// but nothing answers — costs each router admin call at most the node
/// timeout: `Stats` and `Telemetry` come back as a typed
/// `NODE_UNAVAILABLE` naming it, and another client's query for the
/// healthy node, queued on the same (single) event loop behind the
/// admin call, is answered within the same bound.
#[test]
fn stopped_node_bounds_admin_calls_and_spares_other_clients() {
    const TIMEOUT: Duration = Duration::from_millis(300);
    let bound = 3 * TIMEOUT;
    let (catalog, _) = workload();
    let recipe = ServerConfig {
        n_shards: SHARDS,
        partitioner: PartitionerKind::RoundRobin,
        cache_bytes: (catalog.total_bytes() as f64 * 0.3) as u64,
        policy: PolicyKind::NoCache,
        seed: SEED,
        ..ServerConfig::default()
    };
    let trace_path =
        std::env::temp_dir().join(format!("delta-wedged-{}.jsonl", std::process::id()));
    delta_workload::write_jsonl(
        &trace_path,
        &catalog,
        &Trace::new(Vec::new()),
        "catalog only",
    )
    .expect("write trace file");
    let addrs: Vec<SocketAddr> = (0..NODES).map(|_| free_addr()).collect();
    let peers = format!("{},{}", addrs[0], addrs[1]);
    let bin = env!("CARGO_BIN_EXE_delta-serverd");
    let nodes = Reaper(
        (0..NODES)
            .map(|node| spawn_node(bin, addrs[node], node, 0, &peers, &trace_path, &recipe))
            .collect(),
    );
    for &addr in &addrs {
        await_node(addr);
    }
    let router = Router::start(
        RouterConfig {
            bind: "127.0.0.1:0".to_string(),
            nodes: addrs.iter().map(|a| a.to_string()).collect(),
            frontend: None,
            front: FrontDoor { threads: 1 },
            stall_limit: delta_server::connection::STALL_LIMIT,
            node_timeout: TIMEOUT,
        },
        catalog.clone(),
    )
    .expect("router starts");
    let router_addr = router.local_addr();

    // A query for an object whose shard node 0 hosts, answered once
    // before the wedge so the data link to node 0 is up.
    let map = recipe.partitioner.build(SHARDS, catalog.len());
    let object = (0..catalog.len() as u32)
        .map(ObjectId)
        .find(|&o| map.shard_of(o) % NODES == 0)
        .expect("node 0 owns an object");
    let query = |seq: u64| {
        Request::Query(QueryEvent {
            seq,
            objects: vec![object],
            result_bytes: 64,
            tolerance: 0,
            kind: QueryKind::Selection,
        })
    };
    // Read timeouts well past the bound turn a stall into a failure
    // instead of a hung test. The admin verb goes out as a raw frame so
    // the query can follow it without waiting for its reply.
    let mut admin = TcpStream::connect(router_addr).expect("connect router");
    admin.set_read_timeout(Some(4 * bound)).expect("timeout");
    let mut other = connect_router(router_addr);
    other.set_io_timeout(Some(4 * bound)).expect("timeout");
    assert!(matches!(
        other.request(&query(1)).expect("warm-up query"),
        Response::QueryOk { .. }
    ));

    signal(&nodes.0[1], "STOP");
    for (seq, verb) in [(2, Request::Stats), (3, Request::Telemetry)] {
        // The router's one event loop takes the verb up and holds it
        // for the admin call to node 1; the query, sent after it, is
        // served on that same loop.
        let t0 = Instant::now();
        write_frame(&mut admin, &verb.encode()).expect("send admin verb");
        let query_reply = other.request(&query(seq));
        let query_took = t0.elapsed();
        let admin_reply = read_frame(&mut admin).and_then(|payload| Response::decode(&payload));
        let admin_took = t0.elapsed();
        match admin_reply {
            Ok(Response::Error { code, message }) => {
                assert_eq!(code, error_code::NODE_UNAVAILABLE, "{verb:?}: {message}");
                assert!(
                    message.starts_with("node 1 unavailable"),
                    "{verb:?} must name node 1: {message}"
                );
            }
            other => panic!("{verb:?} with node 1 stopped: {other:?}"),
        }
        assert!(
            admin_took < bound,
            "{verb:?} took {admin_took:?}, bound is {bound:?}"
        );
        assert!(
            matches!(query_reply, Ok(Response::QueryOk { .. })),
            "node-0 query behind {verb:?}: {query_reply:?}"
        );
        assert!(
            query_took < bound,
            "node-0 query behind {verb:?} took {query_took:?}, bound is {bound:?}"
        );
    }

    // Resume the node, then shut the cluster down through the router.
    signal(&nodes.0[1], "CONT");
    other.shutdown().expect("cluster shutdown");
    router.join();
    drop(nodes);
    let _ = std::fs::remove_file(&trace_path);
}

/// The promotion fence on every event frame, without a kill: a node
/// promotes a backup it seeded by hand, and every frame kind that names
/// an already-applied sequence number on the promoted shard gets the
/// typed `ALREADY_APPLIED` for that item and executes nothing of it on
/// any shard, while the frame's other items run. The SIGKILL test only
/// meets the fence when a reply is lost after its event reached the
/// backup, which a run may or may not hit.
#[test]
fn promoted_shard_fences_applied_seqs_on_every_event_frame() {
    let catalog = ObjectCatalog::from_sizes(&[100; 8]);
    let recipe = ServerConfig {
        bind: "127.0.0.1:0".to_string(),
        n_shards: 2,
        partitioner: PartitionerKind::RoundRobin,
        cache_bytes: 200,
        policy: PolicyKind::NoCache,
        seed: SEED,
        ..ServerConfig::default()
    };
    let map = recipe.partitioner.build(2, catalog.len());
    let on = |shard: usize| {
        (0..catalog.len() as u32)
            .map(ObjectId)
            .find(|&o| map.shard_of(o) == shard)
            .expect("each shard owns an object")
    };
    let (o0, o1) = (on(0), on(1));
    let update = |seq: u64, object: ObjectId| UpdateEvent {
        seq,
        object,
        bytes: 10,
    };
    let query = |seq: u64, objects: Vec<ObjectId>| QueryEvent {
        seq,
        objects,
        result_bytes: 50,
        tolerance: 0,
        kind: QueryKind::Cone,
    };
    let node = Server::start(
        ServerConfig {
            cluster: Some(ClusterConfig {
                node: 0,
                nodes: 2,
                hosted: vec![0],
            }),
            ..recipe.clone()
        },
        catalog.clone(),
    )
    .expect("node starts");
    let mut client = DeltaClient::connect(node.local_addr()).expect("connect");
    client.hello(0).expect("hello");

    // Seed a backup of shard 1 with three applied events (local ids),
    // then promote it: its fence is seq 3.
    let local = map.local_id(o1);
    for (request, want) in [
        (
            Request::ReplicaBootstrap {
                shard: 1,
                state: Vec::new(),
            },
            Response::ReplicaOk {
                shard: 1,
                offset: 0,
            },
        ),
        (
            Request::Replicate {
                shard: 1,
                from_offset: 0,
                items: vec![
                    BatchItem::Update(update(1, local)),
                    BatchItem::Update(update(2, local)),
                    BatchItem::Query(query(3, vec![local])),
                ],
            },
            Response::ReplicaOk {
                shard: 1,
                offset: 3,
            },
        ),
        (
            Request::Promote { shard: 1 },
            Response::PromoteOk {
                shard: 1,
                offset: 3,
            },
        ),
    ] {
        assert_eq!(client.request(&request).expect("request"), want);
    }

    let fenced = |seq: u64| BatchReply::Error {
        code: error_code::ALREADY_APPLIED,
        message: format!("seq {seq} was applied before failover (fence 3)"),
    };
    let lone = |reply: BatchReply| match reply {
        BatchReply::Error { code, message } => Response::Error { code, message },
        other => panic!("not an error reply: {other:?}"),
    };
    // A lone update, and a lone query whose other sub-query lands on the
    // unfenced shard 0: neither runs anywhere.
    assert_eq!(
        client
            .request(&Request::Update(update(2, o1)))
            .expect("update"),
        lone(fenced(2))
    );
    assert_eq!(
        client
            .request(&Request::Query(query(3, vec![o0, o1])))
            .expect("query"),
        lone(fenced(3))
    );
    // A batch and the router's pre-split form: the fenced item alone is
    // answered typed; the rest of the frame runs.
    assert_eq!(
        client
            .request(&Request::Batch(vec![
                BatchItem::Update(update(1, o1)),
                BatchItem::Update(update(4, o0)),
                BatchItem::Query(query(5, vec![o1])),
            ]))
            .expect("batch"),
        Response::BatchOk(vec![
            fenced(1),
            BatchReply::Update {
                shard: 0,
                version: 1,
            },
            BatchReply::Query {
                shards_touched: 1,
                local_answers: 0,
                shipped: 1,
            },
        ])
    );
    assert_eq!(
        client
            .request(&Request::NodeOps(vec![
                NodeOp {
                    shard: 1,
                    item: BatchItem::Update(update(2, local)),
                },
                NodeOp {
                    shard: 0,
                    item: BatchItem::Update(update(6, map.local_id(o0))),
                },
            ]))
            .expect("node ops"),
        Response::BatchOk(vec![
            fenced(2),
            BatchReply::Update {
                shard: 0,
                version: 2,
            },
        ])
    );

    // Only the unfenced events executed: shard 0 holds its two updates
    // and no query, shard 1 its three seeded events plus query seq 5.
    let stats = client.stats().expect("stats");
    let events: Vec<(u16, u64, u64)> = stats
        .shards
        .iter()
        .map(|s| (s.shard, s.metrics.updates, s.metrics.queries))
        .collect();
    assert_eq!(events, vec![(0, 2, 0), (1, 2, 2)]);
    client.shutdown().expect("shutdown");
    node.join();
}
