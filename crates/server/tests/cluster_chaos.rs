//! Slow-node chaos: one node of a 2-node cluster is started with a
//! `delta_net::LinkModel` fault injected into its `NodeOps` path
//! (`--chaos-node-latency-ms` on `delta-serverd`), and the router's
//! reactor data plane must isolate the slowdown to the shards that
//! node owns — clients scoped to the healthy node keep their
//! throughput while the slow node's replies crawl, and the router's
//! per-node `router.fanout_ns.nodeN` histograms show the skew.
//!
//! This is the property the shared multiplexed links buy: a slow node
//! backs up its *own* link's correlation table, not the event loop —
//! the loop keeps pumping every other connection and link meanwhile.

use delta_net::LinkModel;
use delta_server::{
    ClusterConfig, DeltaClient, FrontDoor, PartitionerKind, PolicyKind, Request, Response, Router,
    RouterConfig, Server, ServerConfig,
};
use delta_storage::ObjectId;
use delta_workload::{QueryEvent, QueryKind, SyntheticSurvey, WorkloadConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARDS: usize = 4;
const NODES: u16 = 2;
const SLOW_NODE: u16 = 1;
/// Injected per-`NodeOps` latency on the slow node.
const CHAOS: Duration = Duration::from_millis(30);

fn query(seq: u64, o: ObjectId) -> Request {
    Request::Query(QueryEvent {
        seq,
        objects: vec![o],
        result_bytes: 64,
        tolerance: 0,
        kind: QueryKind::Selection,
    })
}

#[test]
fn slow_node_degrades_only_its_own_shards() {
    let mut cfg = WorkloadConfig::small();
    cfg.n_queries = 200;
    cfg.n_updates = 200;
    let s = SyntheticSurvey::generate(&cfg);
    let cache_bytes = (s.catalog.total_bytes() as f64 * 0.3) as u64;
    let partitioner = PartitionerKind::RoundRobin;
    let map = partitioner.build(SHARDS, s.catalog.len());
    let node_of = |o: ObjectId| (map.shard_of(o) % NODES as usize) as u16;

    let mut nodes = Vec::new();
    let mut node_addrs = Vec::new();
    for node in 0..NODES {
        let config = ServerConfig {
            bind: "127.0.0.1:0".to_string(),
            n_shards: SHARDS,
            partitioner,
            cache_bytes,
            policy: PolicyKind::VCover,
            seed: 7,
            cluster: Some(ClusterConfig {
                node,
                nodes: NODES,
                hosted: ClusterConfig::default_hosted(node, NODES, SHARDS),
            }),
            // The fault: node 1 sits behind a simulated slow link and
            // parks on every NodeOps frame before executing it.
            chaos_link: (node == SLOW_NODE).then_some(LinkModel {
                bandwidth_bytes_per_sec: f64::INFINITY,
                rtt_secs: CHAOS.as_secs_f64(),
            }),
            ..ServerConfig::default()
        };
        let server = Server::start(config, s.catalog.clone()).expect("node starts");
        node_addrs.push(server.local_addr());
        nodes.push(server);
    }
    let router = Router::start(
        RouterConfig {
            bind: "127.0.0.1:0".to_string(),
            nodes: node_addrs.iter().map(|a| a.to_string()).collect(),
            frontend: None,
            front: FrontDoor { threads: 2 },
            stall_limit: delta_server::connection::STALL_LIMIT,
            node_timeout: RouterConfig::DEFAULT_NODE_TIMEOUT,
        },
        s.catalog.clone(),
    )
    .expect("router starts");
    let router_addr = router.local_addr();
    let telemetry = router.telemetry_handle();

    let object_on = |want: u16| -> Vec<ObjectId> {
        (0..s.catalog.len() as u32)
            .map(ObjectId)
            .filter(|&o| node_of(o) == want)
            .take(64)
            .collect()
    };
    let slow_objects = object_on(SLOW_NODE);
    let fast_objects = object_on(1 - SLOW_NODE);
    assert!(!slow_objects.is_empty() && !fast_objects.is_empty());

    // A client hammering the slow node's shards: 30 sequential queries,
    // each paying the injected latency — ≥ 900 ms of wall clock.
    let slow_running = Arc::new(AtomicBool::new(true));
    let slow_thread = {
        let running = Arc::clone(&slow_running);
        let objects = slow_objects.clone();
        std::thread::spawn(move || {
            let mut client = DeltaClient::connect(router_addr).expect("connect");
            let t0 = Instant::now();
            for i in 0..30u64 {
                let o = objects[i as usize % objects.len()];
                match client.request(&query(i, o)).expect("slow query") {
                    Response::QueryOk { .. } => {}
                    other => panic!("slow-node query failed: {other:?}"),
                }
            }
            running.store(false, Ordering::SeqCst);
            t0.elapsed()
        })
    };

    // Meanwhile a client scoped to the healthy node must keep its
    // throughput: 50 sequential queries finish while the slow client
    // is still grinding, in a fraction of its wall clock.
    std::thread::sleep(CHAOS); // let the slow stream get in flight
    let mut fast = DeltaClient::connect(router_addr).expect("connect");
    let t0 = Instant::now();
    for i in 0..50u64 {
        let o = fast_objects[i as usize % fast_objects.len()];
        match fast.request(&query(1000 + i, o)).expect("fast query") {
            Response::QueryOk { .. } => {}
            other => panic!("healthy-node query failed: {other:?}"),
        }
    }
    let fast_elapsed = t0.elapsed();
    assert!(
        slow_running.load(Ordering::SeqCst),
        "the slow stream finished first — the fault was not isolating anything"
    );
    let slow_elapsed = slow_thread.join().expect("slow client");
    assert!(
        slow_elapsed >= CHAOS * 30,
        "the injected latency was not paid: {slow_elapsed:?}"
    );
    assert!(
        fast_elapsed < slow_elapsed / 3,
        "healthy-node throughput collapsed under a slow peer: \
         fast {fast_elapsed:?} vs slow {slow_elapsed:?}"
    );

    // The router's own per-node fan-out histograms must show the skew:
    // the slow node's median round trip carries the injected latency,
    // the healthy node's does not.
    let snapshot = telemetry.snapshot();
    let p50 = |node: u16| {
        snapshot
            .histogram(&format!("router.fanout_ns.node{node}"))
            .unwrap_or_else(|| panic!("router.fanout_ns.node{node} missing"))
            .p50()
    };
    let (slow_p50, fast_p50) = (p50(SLOW_NODE), p50(1 - SLOW_NODE));
    assert!(
        slow_p50 >= CHAOS.as_nanos() as u64,
        "slow node's fan-out p50 must carry the injected latency: {slow_p50}ns"
    );
    assert!(
        slow_p50 > fast_p50 * 4,
        "per-node fan-out histograms must show the skew: \
         node{SLOW_NODE} p50 {slow_p50}ns vs node{} p50 {fast_p50}ns",
        1 - SLOW_NODE
    );

    DeltaClient::connect(router_addr)
        .expect("connect")
        .shutdown()
        .expect("cluster shutdown");
    router.join();
    for node in nodes {
        node.join();
    }
}
