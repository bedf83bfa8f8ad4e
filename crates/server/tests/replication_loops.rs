//! Mutual backups on one event loop: two replicating nodes, each with a
//! single reactor loop, back each other up behind a router.
//!
//! Each node's one loop serves the router's link *and* the peer pump's
//! `Replicate` frames. A reply waiting for its backup must therefore
//! never hold the loop: node 0's reply waits on node 1's loop applying
//! node 0's log, while node 1's reply waits on node 0's loop the other
//! way round. Replies are parked on their connection and released by
//! the acknowledgement, so both loops keep serving; a loop that blocked
//! on the wait would starve the peer's frames until the pumps timed
//! out, marked their targets down, and writes were acknowledged below R.
//!
//! The run must stay healthy from the first event to the last:
//!
//! * per-shard ledgers are byte-identical to `sim::simulate`;
//! * `replica.bootstraps` equals the shard count — a target that went
//!   down can only come back through a second bootstrap;
//! * `replica.shipped_events` equals the applied events — every event
//!   reached its backup through the log, so no target stayed down;
//! * `replica.acked_below_r` is zero and group commit was observed.

use delta_core::{sim, CostLedger, VCover};
use delta_server::{
    shard_trace, BatchItem, BatchReply, ClusterConfig, DeltaClient, FrontDoor, PartitionerKind,
    PolicyKind, ReplicationConfig, Request, Response, Router, RouterConfig, Server, ServerConfig,
};
use delta_workload::{Event, SyntheticSurvey, WorkloadConfig};
use std::net::TcpListener;
use std::time::{Duration, Instant};

const SHARDS: usize = 4;
const NODES: u16 = 2;
const SEED: u64 = 42;
const BATCH: usize = 64;
const WINDOW: usize = 8;

fn free_port() -> u16 {
    TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("ephemeral port")
        .port()
}

fn expected_shard_ledgers(s: &SyntheticSurvey, cache_bytes: u64) -> Vec<CostLedger> {
    let map = PartitionerKind::RoundRobin.build(SHARDS, s.catalog.len());
    shard_trace(map.as_ref(), &s.catalog, &s.trace, cache_bytes)
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

#[test]
fn mutual_backups_on_one_loop_stay_replicated() {
    let mut cfg = WorkloadConfig::small();
    cfg.n_queries = 2_500;
    cfg.n_updates = 2_500;
    let s = SyntheticSurvey::generate(&cfg);
    let cache_bytes = (s.catalog.total_bytes() as f64 * 0.3) as u64;

    let peers: Vec<String> = (0..NODES)
        .map(|_| format!("127.0.0.1:{}", free_port()))
        .collect();
    let nodes: Vec<Server> = (0..NODES)
        .map(|node| {
            let config = ServerConfig {
                bind: peers[node as usize].clone(),
                n_shards: SHARDS,
                partitioner: PartitionerKind::RoundRobin,
                cache_bytes,
                policy: PolicyKind::VCover,
                seed: SEED,
                front: FrontDoor::Reactor { threads: 1 },
                cluster: Some(ClusterConfig {
                    node,
                    nodes: NODES,
                    hosted: ClusterConfig::default_hosted(node, NODES, SHARDS),
                }),
                replication: Some(ReplicationConfig {
                    replicas: 1,
                    peers: peers.clone(),
                    backup_of: None,
                }),
                ..ServerConfig::default()
            };
            Server::start(config, s.catalog.clone()).expect("node starts")
        })
        .collect();
    // The router connects while the pumps may still be dialing: with one
    // loop per node, start-up order cannot keep them apart anyway.
    let router = Router::start(
        RouterConfig {
            bind: "127.0.0.1:0".to_string(),
            nodes: peers.clone(),
            frontend: None,
            front: FrontDoor::Reactor { threads: 1 },
            stall_limit: delta_server::connection::STALL_LIMIT,
            node_timeout: RouterConfig::DEFAULT_NODE_TIMEOUT,
        },
        s.catalog.clone(),
    )
    .expect("router starts");

    // Every backup holds offset 0 before the first event, so the whole
    // trace has to travel through the logs.
    let bootstraps = |nodes: &[Server]| -> u64 {
        nodes
            .iter()
            .map(|n| n.telemetry().counter("replica.bootstraps"))
            .sum()
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    while bootstraps(&nodes) < SHARDS as u64 {
        assert!(Instant::now() < deadline, "backups never bootstrapped");
        std::thread::sleep(Duration::from_millis(5));
    }

    let mut client = DeltaClient::connect(router.local_addr())
        .expect("connect")
        .pipelined(WINDOW);
    for chunk in s.trace.events.chunks(BATCH) {
        let items: Vec<BatchItem> = chunk
            .iter()
            .map(|e| match e {
                Event::Query(q) => BatchItem::Query(q.clone()),
                Event::Update(u) => BatchItem::Update(*u),
            })
            .collect();
        client.submit(&Request::Batch(items)).expect("submit");
    }
    let replies = client.drain().expect("every frame answered");
    assert_eq!(replies.len(), s.trace.events.len().div_ceil(BATCH));
    for (corr, reply) in &replies {
        let Response::BatchOk(items) = reply else {
            panic!("frame {corr}: {reply:?}");
        };
        assert!(
            items.iter().all(|i| !matches!(i, BatchReply::Error { .. })),
            "frame {corr}: {items:?}"
        );
    }

    let (mut client, _) = client.into_lockstep().expect("lockstep");
    let stats = client.stats().expect("stats");
    let want = expected_shard_ledgers(&s, cache_bytes);
    assert_eq!(stats.shards.len(), SHARDS);
    for shard in &stats.shards {
        assert_eq!(
            &shard.metrics.ledger, &want[shard.shard as usize],
            "shard {} diverged from its simulation twin",
            shard.shard
        );
    }
    // Shard events: a query split over k shards applies k of them.
    let applied = stats.total_events();

    // Read before shutdown: the pumps mark their targets down on exit.
    let mut t = delta_server::TelemetrySnapshot::default();
    for node in &nodes {
        t.merge(&node.telemetry());
    }
    assert_eq!(
        t.counter("replica.bootstraps"),
        SHARDS as u64,
        "a backup was re-bootstrapped: its target went down mid-run"
    );
    assert_eq!(
        t.counter("replica.shipped_events"),
        applied,
        "events acknowledged without reaching their backup"
    );
    assert_eq!(t.counter("replica.applied_events"), applied);
    assert_eq!(t.counter("replica.acked_below_r"), 0);
    let per_ack = t
        .histogram("replica.replies_per_ack")
        .expect("parked replies were released by acknowledgements");
    assert!(per_ack.count > 0 && per_ack.sum > 0, "{per_ack:?}");

    client.shutdown().expect("cluster shutdown");
    router.join();
    for node in nodes {
        node.join();
    }
}
