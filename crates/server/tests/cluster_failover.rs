//! The failover acceptance pins: SIGKILL (or SIGSTOP) a primary
//! mid-trace in a cluster running `--replicas 1`, with or without a
//! live reshard first, and assert the whole robustness contract at
//! once —
//!
//! * **zero wrong answers**: every event either succeeds, fails with a
//!   typed error, or is fenced as `ALREADY_APPLIED` on a retry — never
//!   a silent drop and never a fabricated result, and no object's
//!   acknowledged update version ever repeats;
//! * **bounded unavailability**: the first success on an orphaned shard
//!   lands within 2× the router's `node_timeout` of the kill;
//! * **determinism across the failover**: the final per-shard ledgers
//!   (served by the promoted backups) are byte-identical to the
//!   offline `Twin` (`sim::simulate` per shard, with one `migrate` per
//!   reshard);
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
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
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

/// The recipe every node of a cluster test is started with and its
/// twin is built from.
fn recipe(catalog: &ObjectCatalog, policy: PolicyKind) -> ServerConfig {
    ServerConfig {
        n_shards: SHARDS,
        partitioner: PartitionerKind::RoundRobin,
        cache_bytes: (catalog.total_bytes() as f64 * 0.3) as u64,
        policy,
        seed: SEED,
        ..ServerConfig::default()
    }
}

/// Spawns one `delta-serverd` cluster node as a real OS process, with
/// `replicas` backups per hosted shard; `peers` lists every node.
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
            &peers.split(',').count().to_string(),
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
                .stderr(Stdio::null())
                .status();
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Real `delta-serverd` processes (a SIGKILL or SIGSTOP must take a
/// whole process, not a thread) sharing the catalog through a trace
/// file, behind an in-process router so the test keeps a tight
/// `node_timeout`.
struct Cluster {
    addrs: Vec<SocketAddr>,
    nodes: Reaper,
    router: Router,
    trace_path: PathBuf,
}

impl Cluster {
    /// Starts `n` nodes at `--replicas replicas` over `catalog`, then the
    /// router with `threads` event loops.
    fn start(
        name: &str,
        n: usize,
        replicas: u16,
        recipe: &ServerConfig,
        catalog: &ObjectCatalog,
        threads: usize,
        node_timeout: Duration,
    ) -> Cluster {
        let trace_path =
            std::env::temp_dir().join(format!("delta-{name}-{}.jsonl", std::process::id()));
        delta_workload::write_jsonl(
            &trace_path,
            catalog,
            &Trace::new(Vec::new()),
            "catalog only",
        )
        .expect("write trace file");
        let addrs: Vec<SocketAddr> = (0..n).map(|_| free_addr()).collect();
        let peers: Vec<String> = addrs.iter().map(|a| a.to_string()).collect();
        let bin = env!("CARGO_BIN_EXE_delta-serverd");
        let nodes = Reaper(
            (0..n)
                .map(|node| {
                    spawn_node(
                        bin,
                        addrs[node],
                        node,
                        replicas,
                        &peers.join(","),
                        &trace_path,
                        recipe,
                    )
                })
                .collect(),
        );
        for &addr in &addrs {
            await_node(addr);
        }
        let router = Router::start(
            RouterConfig {
                bind: "127.0.0.1:0".to_string(),
                nodes: peers,
                frontend: None,
                front: FrontDoor { threads },
                stall_limit: delta_server::connection::STALL_LIMIT,
                node_timeout,
            },
            catalog.clone(),
        )
        .expect("router starts");
        Cluster {
            addrs,
            nodes,
            router,
            trace_path,
        }
    }

    /// Shuts the cluster down through `admin` (the router skips dead
    /// nodes) and reaps every node.
    fn shutdown(self, admin: &mut DeltaClient) {
        admin.shutdown().expect("cluster shutdown");
        self.router.join();
        drop(self.nodes);
        let _ = std::fs::remove_file(&self.trace_path);
    }
}

/// The one object a trace event names.
fn object(e: &Event) -> ObjectId {
    match e {
        Event::Query(q) => q.objects[0],
        Event::Update(u) => u.object,
    }
}

/// What a retrying replay saw.
#[derive(Default)]
struct Replay {
    /// When the fault was injected.
    fault: Option<Instant>,
    /// From the fault to the first `NODE_UNAVAILABLE` answer.
    unavailable: Option<Duration>,
    /// From the fault to the first answer on an orphaned shard.
    recovered: Option<Duration>,
    /// Retries fenced as `ALREADY_APPLIED`.
    fenced: u64,
    /// `NODE_UNAVAILABLE` answers, each retried.
    retries: u64,
}

/// Replays `events` through the router at `addr` as a client that
/// retries, asserting zero wrong answers: every event either succeeds,
/// fails typed and is retried, or is fenced as `ALREADY_APPLIED` on a
/// retry — never a silent drop and never a fabricated result. `step(i,
/// seen)` runs before event `i`; when it returns `true` it injected the
/// fault, from which `NODE_UNAVAILABLE` is legal and the window until an
/// `orphaned` event is answered again is timed. No acknowledged update
/// is lost either: each object's `UpdateOk` versions strictly increase.
fn replay(
    addr: SocketAddr,
    events: &[Event],
    orphaned: impl Fn(&Event) -> bool,
    mut step: impl FnMut(usize, &Replay) -> bool,
) -> Replay {
    let mut client = connect_router(addr);
    let mut seen = Replay::default();
    let mut versions: HashMap<ObjectId, u64> = HashMap::new();
    for (i, e) in events.iter().enumerate() {
        if step(i, &seen) {
            seen.fault = Some(Instant::now());
        }
        let answered = |seen: &mut Replay| {
            if let (Some(t0), true, None) = (seen.fault, orphaned(e), seen.recovered) {
                seen.recovered = Some(t0.elapsed());
            }
        };
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
                Ok(Response::QueryOk { .. }) => {
                    answered(&mut seen);
                    break;
                }
                Ok(Response::UpdateOk { version, .. }) => {
                    if let Some(last) = versions.insert(object(e), version) {
                        assert!(
                            version > last,
                            "event {i}: object {:?} answered version {version} after {last}: \
                             an acknowledged update was lost",
                            object(e)
                        );
                    }
                    answered(&mut seen);
                    break;
                }
                // A retried event the promoted backup already holds: the
                // fence answers typed and the client counts it done.
                // Only legal on a retry, only after the fault.
                Ok(Response::Error { code, message }) if code == error_code::ALREADY_APPLIED => {
                    assert!(
                        attempt > 0 && seen.fault.is_some(),
                        "event {i}: spurious ALREADY_APPLIED: {message}"
                    );
                    answered(&mut seen);
                    seen.fenced += 1;
                    break;
                }
                // The unavailability window: typed, bounded, retried.
                Ok(Response::Error { code, message }) if code == error_code::NODE_UNAVAILABLE => {
                    assert!(
                        seen.fault.is_some(),
                        "event {i}: NODE_UNAVAILABLE before the fault: {message}"
                    );
                    if let (Some(t0), None) = (seen.fault, seen.unavailable) {
                        seen.unavailable = Some(t0.elapsed());
                    }
                    seen.retries += 1;
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
                    client = connect_router(addr);
                }
            }
        }
    }
    seen
}

/// The healthy phase acknowledged every write at R: no reply left on
/// its deadline with a backup still missing it.
fn assert_acked_at_r(router: SocketAddr) {
    let healthy = connect_router(router)
        .telemetry()
        .expect("healthy-phase telemetry");
    assert!(
        healthy.counter("replica.shipped_events") > 0,
        "the scrape must cover the nodes' replication counters"
    );
    assert_eq!(healthy.counter("replica.acked_below_r"), 0);
}

/// Asserts the node at `addr` hosts every shard at `epoch`.
fn assert_hosts_all(addr: SocketAddr, epoch: u64) {
    let mut node = DeltaClient::connect(addr).expect("connect node");
    let hosted = node.hello(epoch).expect("hello").hosted;
    for shard in 0..SHARDS as u16 {
        assert!(
            hosted.contains(&shard),
            "node {addr} must host shard {shard} after the failover (hosts {hosted:?})"
        );
    }
}

/// Asserts every shard's ledger, scraped through the router, equals the
/// twin's byte for byte.
fn assert_twin(admin: &mut DeltaClient, twin: &Twin, context: &str) {
    let stats = admin.stats().expect("stats");
    assert_eq!(stats.shards.len(), SHARDS);
    let want = twin.ledgers();
    for shard in &stats.shards {
        assert_eq!(
            &shard.metrics.ledger, &want[shard.shard as usize],
            "shard {} diverged from its simulation twin {context}",
            shard.shard
        );
    }
}

#[test]
fn sigkilled_primary_fails_over_with_zero_wrong_answers() {
    let (catalog, trace) = workload();
    let recipe = recipe(&catalog, PolicyKind::VCover);
    // Two real node processes: node 0 hosts shards {0, 2}, node 1 hosts
    // {1, 3}; with --replicas 1 each node backs up its successor, so
    // node 0 carries backups of {1, 3} — the shards we orphan.
    let mut cluster = Cluster::start("failover", NODES, 1, &recipe, &catalog, 2, NODE_TIMEOUT);
    let router_addr = cluster.router.local_addr();
    let map = recipe.partitioner.build(SHARDS, catalog.len());
    let dead_node = 1usize;
    let kill_at = N_EVENTS / 2;
    let seen = replay(
        router_addr,
        &trace.events,
        |e| map.shard_of(object(e)) % NODES == dead_node,
        |i, _| {
            if i != kill_at {
                return false;
            }
            assert_acked_at_r(router_addr);
            cluster.nodes.0[dead_node].kill().expect("SIGKILL node 1");
            true
        },
    );

    // Bounded unavailability: the orphaned shards answered again within
    // 2× node_timeout of the SIGKILL.
    let recovered = seen
        .recovered
        .expect("no post-kill event touched an orphaned shard");
    assert!(
        recovered < 2 * NODE_TIMEOUT,
        "promotion took {recovered:?}, bound is {:?}",
        2 * NODE_TIMEOUT
    );
    assert!(
        seen.retries > 0,
        "the kill was never observed as NODE_UNAVAILABLE"
    );

    // The router now routes all four shards (node 0 serves its two
    // primaries plus the two promoted backups) behind a bumped epoch.
    let mut admin = connect_router(router_addr);
    let info = admin.hello(0).expect("hello");
    assert_eq!(info.role, NodeRole::Router);
    assert_eq!(info.epoch, 1, "exactly one failover bumps the epoch once");
    assert_hosts_all(cluster.addrs[0], info.epoch);

    // Determinism across the failover: per-shard ledgers equal the
    // offline simulation twin byte for byte — including the two shards
    // that lived through bootstrap, replication, and promotion.
    let mut twin = Twin::new(&recipe, &catalog);
    twin.apply_all(&trace.events);
    assert_twin(
        &mut admin,
        &twin,
        &format!(
            "across the failover (fenced={} retries={})",
            seen.fenced, seen.retries
        ),
    );

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
    cluster.shutdown(&mut admin);
}

/// The SIGKILL pin with a SIGSTOP: a stopped node's kernel still
/// completes TCP handshakes, so only a probe that needs an answer — a
/// `Hello` answered `HelloOk` within the node timeout — confirms the
/// suspicion. The orphaned shards fail over, the ledgers stay the
/// twin's, and once the node resumes the router sends it nothing.
#[test]
fn sigstopped_primary_fails_over_with_zero_wrong_answers() {
    let (catalog, trace) = workload();
    let recipe = recipe(&catalog, PolicyKind::VCover);
    let cluster = Cluster::start("sigstop", NODES, 1, &recipe, &catalog, 2, NODE_TIMEOUT);
    let router_addr = cluster.router.local_addr();
    let map = recipe.partitioner.build(SHARDS, catalog.len());
    let dead_node = 1usize;
    let stop_at = N_EVENTS / 2;
    let fanouts = |router: &Router| {
        router
            .telemetry()
            .histogram(&format!("router.fanout_ns.node{dead_node}"))
            .map_or(0, |h| h.count)
    };
    let mut fanouts_at_resume = None;
    let seen = replay(
        router_addr,
        &trace.events,
        |e| map.shard_of(object(e)) % NODES == dead_node,
        |i, seen| {
            if i == stop_at {
                assert_acked_at_r(router_addr);
                signal(&cluster.nodes.0[dead_node], "STOP");
                return true;
            }
            if seen.recovered.is_some() && fanouts_at_resume.is_none() {
                signal(&cluster.nodes.0[dead_node], "CONT");
                fanouts_at_resume = Some(fanouts(&cluster.router));
            }
            false
        },
    );

    // A stopped node is silent, not refused: nobody can suspect it
    // before a fan-out to it misses its deadline, one node timeout after
    // the stop (a SIGKILL's refused connect is seen at once). So the
    // window is timed from the client's first typed failure, and the
    // bound is the SIGKILL one. The retried event's fan-out, re-sent to
    // the stopped node while the probe confirms the suspicion, does not
    // wait out its own deadline: at the failover each router loop kills
    // its link to the dead node, which fails the fan-out typed at once.
    // The survivor's pump still holds a session with the stopped node,
    // so each `PromoteOk`, and the first reply on a promoted shard,
    // parks until that session's 250 ms round-trip timeout.
    let recovered = seen
        .recovered
        .expect("no post-stop event touched an orphaned shard");
    let unavailable = seen
        .unavailable
        .expect("the stop was never observed as NODE_UNAVAILABLE");
    let bound = 2 * NODE_TIMEOUT;
    assert!(
        recovered - unavailable < bound,
        "promotion took {:?} after the first failure ({recovered:?} after the stop), \
         bound is {bound:?}",
        recovered - unavailable
    );

    let mut admin = connect_router(router_addr);
    let info = admin.hello(0).expect("hello");
    assert_eq!(info.epoch, 1, "exactly one failover bumps the epoch once");
    assert_hosts_all(cluster.addrs[0], info.epoch);
    let mut twin = Twin::new(&recipe, &catalog);
    twin.apply_all(&trace.events);
    assert_twin(
        &mut admin,
        &twin,
        &format!(
            "across the failover (fenced={} retries={})",
            seen.fenced, seen.retries
        ),
    );
    assert_eq!(
        admin
            .telemetry()
            .expect("telemetry")
            .counter("router.promotions"),
        2,
        "one promotion per orphaned shard"
    );
    assert_eq!(
        fanouts(&cluster.router),
        fanouts_at_resume.expect("node 1 resumed"),
        "the router sent the resumed node work"
    );
    cluster.shutdown(&mut admin);
}

/// A reshard on a replicated cluster keeps every acknowledged write.
/// Shard 0 moves from node 0 to node 2 mid-trace, and node 2 is
/// SIGKILLed later. Node 2's `PromoteOk` leaves only once its successor,
/// node 0, bootstrapped at the move offset, so node 0's backup of the
/// new lineage is the most caught up at the failover; node 1 still
/// holds the old owner's backup, stale at the move offset.
#[test]
fn resharded_shard_survives_the_death_of_its_new_owner() {
    let (catalog, trace) = workload();
    let recipe = recipe(&catalog, PolicyKind::VCover);
    let mut cluster = Cluster::start("reshard-kill", 3, 1, &recipe, &catalog, 2, NODE_TIMEOUT);
    let router_addr = cluster.router.local_addr();
    let map = recipe.partitioner.build(SHARDS, catalog.len());
    let (reshard_at, kill_at) = (N_EVENTS / 3, 2 * N_EVENTS / 3);
    // Node 2 serves shard 2 and, from the reshard on, shard 0.
    let seen = replay(
        router_addr,
        &trace.events,
        |e| matches!(map.shard_of(object(e)), 0 | 2),
        |i, _| {
            if i == reshard_at {
                let epoch = connect_router(router_addr)
                    .reshard(0, 2)
                    .expect("reshard shard 0 to node 2");
                assert_eq!(epoch, 1);
            }
            if i != kill_at {
                return false;
            }
            assert_acked_at_r(router_addr);
            cluster.nodes.0[2].kill().expect("SIGKILL node 2");
            true
        },
    );
    assert!(
        seen.recovered.is_some(),
        "the orphaned shards never answered"
    );

    let mut admin = connect_router(router_addr);
    let info = admin.hello(0).expect("hello");
    assert_eq!(info.epoch, 2, "one reshard and one failover");
    let hosted = DeltaClient::connect(cluster.addrs[0])
        .expect("connect node 0")
        .hello(info.epoch)
        .expect("hello")
        .hosted;
    assert_eq!(hosted, vec![0, 2, 3], "node 0 promoted shards 0 and 2");
    let mut twin = Twin::new(&recipe, &catalog);
    twin.apply_all(&trace.events[..reshard_at]).migrate(0);
    twin.apply_all(&trace.events[reshard_at..]);
    assert_twin(
        &mut admin,
        &twin,
        &format!(
            "across the reshard and the failover (fenced={} retries={})",
            seen.fenced, seen.retries
        ),
    );
    assert_eq!(
        admin
            .telemetry()
            .expect("telemetry")
            .counter("router.promotions"),
        2,
        "one promotion per orphaned shard"
    );
    cluster.shutdown(&mut admin);
}

/// The two-node form: shard 0 moves onto node 1, which held its
/// backup, and node 1 is SIGKILLed. Installing the moved shard drops
/// node 1's own backup of it, and the `PromoteOk` leaves once node 0
/// bootstrapped at the move offset, so shard 0 fails back to node 0
/// within the SIGKILL bound instead of staying offline.
#[test]
fn shard_moved_onto_its_backup_fails_back_within_the_bound() {
    let (catalog, trace) = workload();
    let recipe = recipe(&catalog, PolicyKind::VCover);
    let mut cluster = Cluster::start("reshard-back", NODES, 1, &recipe, &catalog, 2, NODE_TIMEOUT);
    let router_addr = cluster.router.local_addr();
    let map = recipe.partitioner.build(SHARDS, catalog.len());
    let (reshard_at, kill_at) = (N_EVENTS / 3, 2 * N_EVENTS / 3);
    let seen = replay(
        router_addr,
        &trace.events,
        |e| map.shard_of(object(e)) == 0,
        |i, _| {
            if i == reshard_at {
                let epoch = connect_router(router_addr)
                    .reshard(0, 1)
                    .expect("reshard shard 0 to node 1");
                assert_eq!(epoch, 1);
            }
            if i != kill_at {
                return false;
            }
            assert_acked_at_r(router_addr);
            cluster.nodes.0[1].kill().expect("SIGKILL node 1");
            true
        },
    );
    let recovered = seen.recovered.expect("no post-kill event touched shard 0");
    assert!(
        recovered < 2 * NODE_TIMEOUT,
        "shard 0 answered again after {recovered:?}, bound is {:?}",
        2 * NODE_TIMEOUT
    );

    let mut admin = connect_router(router_addr);
    let info = admin.hello(0).expect("hello");
    assert_eq!(info.epoch, 2, "one reshard and one failover");
    assert_hosts_all(cluster.addrs[0], info.epoch);
    let mut twin = Twin::new(&recipe, &catalog);
    twin.apply_all(&trace.events[..reshard_at]).migrate(0);
    twin.apply_all(&trace.events[reshard_at..]);
    assert_twin(
        &mut admin,
        &twin,
        &format!(
            "across the reshard and the failover (fenced={} retries={})",
            seen.fenced, seen.retries
        ),
    );
    cluster.shutdown(&mut admin);
}

/// A reshard onto a dead node fails typed and rolls back: node 0 holds
/// the core its `DetachShard` took out, and the rollback's `Promote`
/// serves that same core again. Shard 0 keeps serving at node 0 with its
/// policy state intact, so node 0's shards end equal to a twin that
/// never migrated anything.
#[test]
fn reshard_to_a_dead_node_rolls_back_with_its_policy_state() {
    let (catalog, trace) = workload();
    let recipe = recipe(&catalog, PolicyKind::VCover);
    let mut cluster = Cluster::start("reshard-dead", NODES, 0, &recipe, &catalog, 2, NODE_TIMEOUT);
    let router_addr = cluster.router.local_addr();
    let map = recipe.partitioner.build(SHARDS, catalog.len());
    // Node 0 hosts the shards `s % NODES == 0`.
    let on_node0 = |e: &Event| map.shard_of(object(e)).is_multiple_of(NODES);
    // The whole first half, then only node 0's events: node 1 is dead.
    let half = N_EVENTS / 2;
    let events: Vec<Event> = trace.events[..half]
        .iter()
        .chain(trace.events[half..].iter().filter(|e| on_node0(e)))
        .cloned()
        .collect();
    replay(router_addr, &events, on_node0, |i, _| {
        if i != half {
            return false;
        }
        let dead = &mut cluster.nodes.0[1];
        dead.kill().expect("SIGKILL node 1");
        dead.wait().expect("reap node 1");
        match connect_router(router_addr)
            .request(&Request::Reshard {
                shard: 0,
                to_node: 1,
            })
            .expect("reshard reply")
        {
            Response::Error { code, message } => {
                assert_eq!(code, error_code::RESHARD_FAILED, "{message}");
                assert!(message.ends_with("restored at node 0"), "{message}");
            }
            other => panic!("reshard onto a dead node: {other:?}"),
        }
        // No fault a client may see: shard 0 never stopped serving.
        false
    });

    let mut node0 = DeltaClient::connect(cluster.addrs[0]).expect("connect node 0");
    let info = node0.hello(0).expect("hello");
    assert_eq!(
        (info.epoch, info.hosted),
        (0, vec![0, 2]),
        "node 0 serves its own shards at the old epoch"
    );
    let mut twin = Twin::new(&recipe, &catalog);
    twin.apply_all(&events);
    let want = twin.ledgers();
    let stats = node0.stats().expect("node 0 stats");
    assert_eq!(stats.shards.len(), 2);
    for shard in &stats.shards {
        assert_eq!(
            &shard.metrics.ledger, &want[shard.shard as usize],
            "shard {} diverged from its never-migrated twin after the rollback",
            shard.shard
        );
    }
    cluster.shutdown(&mut connect_router(router_addr));
}

/// A detached shard is held, in-process: `ReplicaStatus` lists no copy
/// of it, a `Promote` without a fence serves the same core again (same
/// ledger, and a sequence number below its clock is served, not fenced),
/// and once a `SetEpoch` commits the move nothing is left to promote.
#[test]
fn detached_shard_is_held_until_a_promote_or_the_next_epoch() {
    let catalog = ObjectCatalog::from_sizes(&[100; 8]);
    let recipe = ServerConfig {
        bind: "127.0.0.1:0".to_string(),
        n_shards: 2,
        partitioner: PartitionerKind::RoundRobin,
        cache_bytes: 200,
        policy: PolicyKind::VCover,
        seed: SEED,
        ..ServerConfig::default()
    };
    let map = recipe.partitioner.build(2, catalog.len());
    let o0 = (0..catalog.len() as u32)
        .map(ObjectId)
        .find(|&o| map.shard_of(o) == 0)
        .expect("shard 0 owns an object");
    let update = |seq: u64| {
        Request::Update(UpdateEvent {
            seq,
            object: o0,
            bytes: 10,
        })
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
    let ledger = |client: &mut DeltaClient| {
        let stats = client.stats().expect("stats");
        stats
            .shards
            .iter()
            .find(|s| s.shard == 0)
            .map(|s| s.metrics.ledger.clone())
    };
    let detach = |client: &mut DeltaClient| match client
        .request(&Request::DetachShard { shard: 0 })
        .expect("detach")
    {
        Response::ShardState { shard: 0, .. } => {}
        other => panic!("detach: {other:?}"),
    };
    let promote = Request::Promote {
        shard: 0,
        fence: false,
    };

    // Clock 7 after three events.
    for seq in [5, 6, 7] {
        assert!(matches!(
            client.request(&update(seq)).expect("update"),
            Response::UpdateOk { .. }
        ));
    }
    let before = ledger(&mut client).expect("shard 0 served");
    detach(&mut client);
    assert_eq!(
        client.request(&Request::ReplicaStatus).expect("status"),
        Response::ReplicaStatusOk(Vec::new()),
        "a held core is no backup"
    );
    assert_eq!(ledger(&mut client), None, "a held core is not served");
    assert_eq!(
        client.request(&promote).expect("promote"),
        Response::PromoteOk {
            shard: 0,
            offset: 3
        }
    );
    assert_eq!(ledger(&mut client), Some(before), "the same core serves");
    assert!(
        matches!(
            client.request(&update(2)).expect("late update"),
            Response::UpdateOk { version: 4, .. }
        ),
        "a move keeps the core's own fence: seq 2 is served"
    );

    // A committed move leaves nothing to promote.
    detach(&mut client);
    assert_eq!(
        client
            .request(&Request::SetEpoch { epoch: 1 })
            .expect("epoch"),
        Response::EpochOk { epoch: 1 }
    );
    match client.request(&promote).expect("promote") {
        Response::Error { code, message } => {
            assert_eq!(code, error_code::NOT_REPLICA, "{message}")
        }
        other => panic!("promote after the epoch: {other:?}"),
    }
    client.shutdown().expect("shutdown");
    node.join();
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
            Request::Promote {
                shard: 1,
                fence: true,
            },
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
