//! The cluster differential suite: a trace replayed through a 2-node
//! `delta-routerd` cluster — its shared multiplexed node links — must
//! produce, per shard, byte-identical ledgers to `sim::simulate` over
//! the offline `shard_trace` twin — for both partitioners, and **across
//! a live mid-trace reshard** (where the in-process twin mirrors the
//! migration with the same snapshot/restore primitive the nodes use).
//!
//! Also here: the killed-node contract (typed `NODE_UNAVAILABLE`, never
//! a wrong answer), the stale-epoch contract — a client holding an
//! outdated shard→node map gets a typed `WrongEpoch` redirect (or a
//! typed `WRONG_NODE` error after re-handshaking against a moved shard),
//! and never a silently wrong answer — and the typed refusal of verbs
//! sent to the wrong role.

use delta_core::engine::Engine;
use delta_core::{sim, CachingPolicy, CostLedger, EngineMetrics, VCover};
use delta_server::{
    error_code, shard_trace, BatchItem, BatchReply, ClusterConfig, DeltaClient, FrontDoor,
    NodeRole, PartitionerKind, PolicyKind, Request, Response, Router, RouterConfig, Server,
    ServerConfig,
};
use delta_storage::{ObjectCatalog, ObjectId};
use delta_workload::{Event, QueryEvent, QueryKind, SyntheticSurvey, Trace, WorkloadConfig};

const SHARDS: usize = 4;
const NODES: u16 = 2;
const SEED: u64 = 42;

fn survey(n: usize) -> SyntheticSurvey {
    let mut cfg = WorkloadConfig::small();
    cfg.n_queries = n;
    cfg.n_updates = n;
    SyntheticSurvey::generate(&cfg)
}

struct Cluster {
    nodes: Vec<Server>,
    router: Router,
    router_addr: std::net::SocketAddr,
    node_addrs: Vec<std::net::SocketAddr>,
}

fn start_cluster(
    policy: PolicyKind,
    partitioner: PartitionerKind,
    cache_bytes: u64,
    catalog: &ObjectCatalog,
) -> Cluster {
    let mut nodes = Vec::new();
    let mut node_addrs = Vec::new();
    for node in 0..NODES {
        let config = ServerConfig {
            bind: "127.0.0.1:0".to_string(),
            n_shards: SHARDS,
            partitioner,
            cache_bytes,
            policy,
            seed: SEED,
            cluster: Some(ClusterConfig {
                node,
                nodes: NODES,
                hosted: ClusterConfig::default_hosted(node, NODES, SHARDS),
            }),
            ..ServerConfig::default()
        };
        let server = Server::start(config, catalog.clone()).expect("node starts");
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
        catalog.clone(),
    )
    .expect("router starts");
    let router_addr = router.local_addr();
    Cluster {
        nodes,
        router,
        router_addr,
        node_addrs,
    }
}

impl Cluster {
    /// Shuts the whole cluster down through the router (which forwards
    /// the shutdown to its nodes, like `delta-serverd` drains shards).
    fn stop(self) {
        let mut client = DeltaClient::connect(self.router_addr).expect("connect");
        client.shutdown().expect("cluster shutdown");
        self.router.join();
        for node in self.nodes {
            node.join();
        }
    }
}

/// Replays events through the router in `Batch` frames, asserting
/// per-item success.
fn replay_batched(addr: std::net::SocketAddr, events: &[Event], batch: usize) {
    let mut client = DeltaClient::connect(addr).expect("connect");
    for chunk in events.chunks(batch) {
        let items: Vec<BatchItem> = chunk
            .iter()
            .map(|e| match e {
                Event::Query(q) => BatchItem::Query(q.clone()),
                Event::Update(u) => BatchItem::Update(*u),
            })
            .collect();
        for reply in client.batch(&items).expect("batch served") {
            assert!(
                !matches!(reply, BatchReply::Error { .. }),
                "unexpected batch error: {reply:?}"
            );
        }
    }
}

/// Per-shard `sim::simulate` ledgers over the offline twin.
fn expected_shard_ledgers(
    s: &SyntheticSurvey,
    partitioner: PartitionerKind,
    cache_bytes: u64,
) -> Vec<CostLedger> {
    let map = partitioner.build(SHARDS, s.catalog.len());
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

/// The acceptance pin: a 50k-event trace through the 2-node router is
/// per-shard byte-identical to the in-process simulation, under both
/// partitioners.
#[test]
fn cluster_router_matches_sim_per_shard() {
    let s = survey(25_000);
    let cache_bytes = (s.catalog.total_bytes() as f64 * 0.3) as u64;
    for partitioner in [PartitionerKind::RoundRobin, PartitionerKind::HashRing] {
        let cluster = start_cluster(PolicyKind::VCover, partitioner, cache_bytes, &s.catalog);
        replay_batched(cluster.router_addr, &s.trace.events, 128);

        let mut client = DeltaClient::connect(cluster.router_addr).expect("connect");
        let info = client.hello(0).expect("hello");
        assert_eq!(info.role, NodeRole::Router);
        assert_eq!(info.cluster_shards as usize, SHARDS);
        assert_eq!(info.partitioner, partitioner.to_string());
        let stats = client.stats().expect("stats");
        assert_eq!(stats.shards.len(), SHARDS, "{partitioner}: shard count");
        let want = expected_shard_ledgers(&s, partitioner, cache_bytes);
        for (shard, want) in stats.shards.iter().zip(&want) {
            assert_eq!(
                &shard.metrics.ledger, want,
                "{partitioner}: shard {} ledger diverged from its simulation twin",
                shard.shard
            );
        }
        assert_eq!(
            stats.total_metrics().updates,
            s.trace.n_updates() as u64,
            "{partitioner}: every update accounted"
        );
        cluster.stop();
    }
}

/// The reshard pin: the identity holds *across a live mid-trace
/// reshard*. The in-process twin replays each shard's sub-trace through
/// the engine directly, mirroring the migration on the moved shard with
/// the same snapshot/restore primitive the nodes use — so the comparison
/// covers the state transfer itself, not just the happy path.
#[test]
fn mid_trace_reshard_is_byte_identical_to_the_engine_twin() {
    let s = survey(25_000);
    let cache_bytes = (s.catalog.total_bytes() as f64 * 0.3) as u64;
    let partitioner = PartitionerKind::HashRing;
    let policy = PolicyKind::VCover;
    let mid = s.trace.len() / 2;
    // Default placement: node 0 hosts shards {0, 2}; move shard 0 over
    // to node 1 mid-trace.
    let (moved_shard, to_node) = (0u16, 1u16);

    // In-process twin: same split, same engines, same migration.
    let map = partitioner.build(SHARDS, s.catalog.len());
    let prefix = shard_trace(
        map.as_ref(),
        &s.catalog,
        &Trace::new(s.trace.events[..mid].to_vec()),
        cache_bytes,
    );
    let suffix = shard_trace(
        map.as_ref(),
        &s.catalog,
        &Trace::new(s.trace.events[mid..].to_vec()),
        cache_bytes,
    );
    let twin: Vec<EngineMetrics> = (0..SHARDS)
        .map(|shard| {
            let (sub_catalog, pre_trace, shard_cache) = &prefix[shard];
            let (_, post_trace, _) = &suffix[shard];
            let build = || policy.build(*shard_cache, SEED + shard as u64);
            let mut engine: Engine<'static, dyn CachingPolicy + Send> =
                Engine::new(build(), sub_catalog, *shard_cache);
            engine.init(None);
            for event in pre_trace.iter() {
                engine.apply(event).expect("twin prefix event");
            }
            if shard == moved_shard as usize {
                // The migration: snapshot at the old owner, restore at
                // the new one under a fresh policy — exactly what
                // DetachShard/AttachShard do on the wire.
                let snap = engine.snapshot();
                engine = Engine::restore(build(), sub_catalog, &snap).expect("twin restore");
            }
            for event in post_trace.iter() {
                engine.apply(event).expect("twin suffix event");
            }
            engine.metrics()
        })
        .collect();

    // The router must track the twin across the migration, which also
    // exercises its quiesce (the reshard waits for in-flight multiplexed
    // sub-requests to drain) and the WrongEpoch bounce on its shared
    // links.
    let cluster = start_cluster(policy, partitioner, cache_bytes, &s.catalog);
    replay_batched(cluster.router_addr, &s.trace.events[..mid], 128);
    let mut admin = DeltaClient::connect(cluster.router_addr).expect("connect");
    let epoch = admin.reshard(moved_shard, to_node).expect("reshard");
    assert_eq!(epoch, 1, "first reshard bumps the epoch to 1");
    // The routing map now shows the shard at its new owner.
    let info = admin.hello(epoch).expect("hello");
    assert_eq!(info.epoch, 1);
    replay_batched(cluster.router_addr, &s.trace.events[mid..], 128);

    let stats = DeltaClient::connect(cluster.router_addr)
        .and_then(|mut c| c.stats())
        .expect("stats");

    // The node hosting the moved shard must be the new owner.
    let mut node1 = DeltaClient::connect(cluster.node_addrs[to_node as usize]).expect("connect");
    let node1_info = node1.hello(epoch).expect("hello");
    assert!(
        node1_info.hosted.contains(&moved_shard),
        "node {to_node} must host shard {moved_shard} after the reshard \
         (hosts {:?})",
        node1_info.hosted
    );

    assert_eq!(stats.shards.len(), SHARDS);
    for (live, want) in stats.shards.iter().zip(&twin) {
        assert_eq!(
            &live.metrics, want,
            "shard {} diverged from the engine twin across the reshard",
            live.shard
        );
    }
    cluster.stop();
}

/// The node-death pin: killing a node mid-trace turns every request
/// touching its shards into a **typed `NODE_UNAVAILABLE` error** — a
/// dead sub-request kills its whole fan-out typed (ops may have
/// executed at other nodes, and the message says which node was lost).
/// Requests scoped entirely to surviving nodes keep executing. Zero
/// wrong answers.
#[test]
fn killed_node_mid_trace_fails_typed() {
    let s = survey(2_000);
    let cache_bytes = (s.catalog.total_bytes() as f64 * 0.3) as u64;
    let partitioner = PartitionerKind::RoundRobin;
    let map = partitioner.build(SHARDS, s.catalog.len());
    // Default placement: node 0 hosts {0, 2}, node 1 hosts {1, 3}.
    let dead_node = 1u16;
    let node_of = |o: ObjectId| (map.shard_of(o) % NODES as usize) as u16;

    let cluster = start_cluster(PolicyKind::VCover, partitioner, cache_bytes, &s.catalog);
    let mut client = DeltaClient::connect(cluster.router_addr).expect("connect");

    // Warm the links with a mixed prefix, then kill node 1 abruptly
    // (direct shutdown — the router only notices when its link dies
    // under an in-flight fan-out).
    replay_batched(cluster.router_addr, &s.trace.events[..500], 64);
    DeltaClient::connect(cluster.node_addrs[dead_node as usize])
        .expect("connect dead node")
        .shutdown()
        .expect("node shutdown");

    // Fan-outs now straddle a live and a dead node. Drive batches:
    // every request touching the dead node must come back as a
    // typed NODE_UNAVAILABLE (whole-request — a dead sub-request
    // kills its fan-out), never silence and never
    // a fabricated result, and the client connection survives.
    let item_is_live = |i: &BatchItem| match i {
        BatchItem::Query(q) => q.objects.iter().all(|&o| node_of(o) != dead_node),
        BatchItem::Update(u) => node_of(u.object) != dead_node,
    };
    let mut live_ok = 0u32;
    let mut dead_typed = 0u32;
    for chunk in s.trace.events[500..1500].chunks(64) {
        let items: Vec<BatchItem> = chunk
            .iter()
            .map(|e| match e {
                Event::Query(q) => BatchItem::Query(q.clone()),
                Event::Update(u) => BatchItem::Update(*u),
            })
            .collect();
        let wholly_live = items.iter().all(item_is_live);
        match client
            .request(&Request::Batch(items.clone()))
            .expect("batch")
        {
            Response::BatchOk(replies) => {
                assert!(
                    wholly_live,
                    "a batch touching the dead node must fail typed"
                );
                assert_eq!(replies.len(), items.len(), "one reply per item");
                for reply in &replies {
                    assert!(
                        !matches!(reply, BatchReply::Error { .. }),
                        "live-node item failed: {reply:?}"
                    );
                }
                live_ok += 1;
            }
            Response::Error { code, message } => {
                assert_eq!(code, error_code::NODE_UNAVAILABLE, "{message}");
                assert!(
                    !wholly_live,
                    "batch with no dead-node items failed: {message}"
                );
                dead_typed += 1;
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }
    assert!(dead_typed > 0, "the dead node was never touched");

    // Batches scoped entirely to surviving nodes keep executing —
    // the shared link to the live node is unaffected by its dead
    // peer (one reconnect probe covers all clients; nobody else
    // blocks on it).
    for chunk in s.trace.events[1500..]
        .iter()
        .filter_map(|e| match e {
            Event::Query(q) if q.objects.iter().all(|&o| node_of(o) != dead_node) => {
                Some(BatchItem::Query(q.clone()))
            }
            Event::Update(u) if node_of(u.object) != dead_node => Some(BatchItem::Update(*u)),
            _ => None,
        })
        .collect::<Vec<_>>()
        .chunks(64)
    {
        for reply in client.batch(chunk).expect("live batch") {
            assert!(
                !matches!(reply, BatchReply::Error { .. }),
                "live-node item failed after the death: {reply:?}"
            );
        }
        live_ok += 1;
    }
    assert!(live_ok > 0, "no live-node batch ever ran");

    // A request scoped entirely to the live node still round-trips.
    let live_obj = (0..s.catalog.len() as u32)
        .map(ObjectId)
        .find(|&o| node_of(o) != dead_node)
        .expect("live object");
    let q = Request::Query(QueryEvent {
        seq: u64::MAX,
        objects: vec![live_obj],
        result_bytes: 64,
        tolerance: 0,
        kind: QueryKind::Selection,
    });
    assert!(
        matches!(client.request(&q).expect("query"), Response::QueryOk { .. }),
        "live-node queries must keep working after the death"
    );
    cluster.stop();
}

/// The stale-epoch contract: after a reshard, a client still declaring
/// the old epoch gets a typed `WrongEpoch` and nothing executes; after
/// re-handshaking, a request for a moved shard gets a typed `WRONG_NODE`
/// error. At no point does a stale map yield a wrong answer.
#[test]
fn stale_epoch_clients_get_typed_redirects_never_wrong_answers() {
    let s = survey(100);
    let cache_bytes = (s.catalog.total_bytes() as f64 * 0.3) as u64;
    let partitioner = PartitionerKind::RoundRobin;
    let cluster = start_cluster(PolicyKind::VCover, partitioner, cache_bytes, &s.catalog);
    let map = partitioner.build(SHARDS, s.catalog.len());

    // Global ids owned by shard 0 (node 0) and shard 2 (node 0, stays).
    let on_shard = |shard: usize| {
        (0..s.catalog.len() as u32)
            .map(ObjectId)
            .find(|&o| map.shard_of(o) == shard)
            .expect("populated shard")
    };
    let query = |seq: u64, o: ObjectId| {
        Request::Query(QueryEvent {
            seq,
            objects: vec![o],
            result_bytes: 64,
            tolerance: 0,
            kind: QueryKind::Selection,
        })
    };

    // A direct-to-node client with a fresh (epoch-0) handshake works.
    let mut direct = DeltaClient::connect(cluster.node_addrs[0]).expect("connect");
    let info = direct.hello(0).expect("hello");
    assert_eq!(info.role, NodeRole::ClusterNode);
    assert_eq!(info.epoch, 0);
    assert!(matches!(
        direct.request(&query(1, on_shard(0))).expect("request"),
        Response::QueryOk { .. }
    ));

    // A client that never handshakes is implicitly at epoch 0 — also
    // fine before any reshard.
    let mut silent = DeltaClient::connect(cluster.node_addrs[0]).expect("connect");
    assert!(matches!(
        silent.request(&query(2, on_shard(2))).expect("request"),
        Response::QueryOk { .. }
    ));

    // Reshard: move shard 0 from node 0 to node 1.
    let epoch = DeltaClient::connect(cluster.router_addr)
        .and_then(|mut c| c.reshard(0, 1))
        .expect("reshard");
    assert_eq!(epoch, 1);

    // Both stale clients now get the typed redirect — even for a query
    // touching only an *unmoved* shard: the fence is the declared epoch,
    // not a per-request ownership guess.
    match direct.request(&query(3, on_shard(2))).expect("request") {
        Response::WrongEpoch { epoch } => assert_eq!(epoch, 1),
        other => panic!("stale client must be redirected, got {other:?}"),
    }
    match silent.request(&query(4, on_shard(0))).expect("request") {
        Response::WrongEpoch { epoch } => assert_eq!(epoch, 1),
        other => panic!("silent stale client must be redirected, got {other:?}"),
    }

    // Re-handshake: unmoved shards serve again; the moved shard comes
    // back as a typed WRONG_NODE error, not a wrong answer.
    let refreshed = direct.hello(epoch).expect("hello");
    assert_eq!(refreshed.epoch, 1);
    assert!(
        !refreshed.hosted.contains(&0),
        "node 0 no longer hosts shard 0 (hosts {:?})",
        refreshed.hosted
    );
    assert!(matches!(
        direct.request(&query(5, on_shard(2))).expect("request"),
        Response::QueryOk { .. }
    ));
    match direct.request(&query(6, on_shard(0))).expect("request") {
        Response::Error { code, message } => {
            assert_eq!(code, error_code::WRONG_NODE, "{message}");
        }
        other => panic!("moved shard must be a typed error, got {other:?}"),
    }

    // The router, meanwhile, serves the moved shard transparently.
    let mut routed = DeltaClient::connect(cluster.router_addr).expect("connect");
    assert!(matches!(
        routed.request(&query(7, on_shard(0))).expect("request"),
        Response::QueryOk { .. }
    ));
    cluster.stop();
}

/// Admin verbs are node/router-scoped: a standalone server refuses the
/// cluster vocabulary with typed errors, and a router refuses node-level
/// verbs.
#[test]
fn cluster_verbs_are_typed_errors_in_the_wrong_role() {
    let s = survey(10);
    let server = Server::start(
        ServerConfig {
            bind: "127.0.0.1:0".to_string(),
            n_shards: 2,
            cache_bytes: 10_000,
            policy: PolicyKind::NoCache,
            seed: 1,
            ..ServerConfig::default()
        },
        s.catalog.clone(),
    )
    .expect("server starts");
    let mut client = DeltaClient::connect(server.local_addr()).expect("connect");
    let info = client.hello(0).expect("hello");
    assert_eq!(info.role, NodeRole::Standalone);
    assert_eq!(info.nodes, 1);
    assert_eq!(info.hosted, vec![0, 1]);
    for request in [
        Request::DetachShard { shard: 0 },
        Request::SetEpoch { epoch: 3 },
        Request::Reshard {
            shard: 0,
            to_node: 1,
        },
        Request::NodeOps(vec![]),
    ] {
        match client.request(&request).expect("request") {
            Response::Error { code, .. } => assert_eq!(code, error_code::NOT_CLUSTERED),
            other => panic!("expected NOT_CLUSTERED for {request:?}, got {other:?}"),
        }
    }
    client.shutdown().expect("shutdown");
    server.join();

    // The router half: every node-level verb is refused typed, bare or
    // inside a `Tagged` envelope (which echoes the correlation id), and
    // a handshake in another protocol version is a typed BAD_FRAME.
    let cluster = start_cluster(
        PolicyKind::NoCache,
        PartitionerKind::RoundRobin,
        10_000,
        &s.catalog,
    );
    let mut client = DeltaClient::connect(cluster.router_addr).expect("connect");
    let node_verbs = [
        Request::NodeOps(vec![]),
        Request::DetachShard { shard: 0 },
        Request::AttachShard {
            shard: 0,
            state: Vec::new(),
        },
        Request::SetEpoch { epoch: 3 },
        Request::Replicate {
            shard: 0,
            from_offset: 0,
            items: vec![],
        },
        Request::ReplicaBootstrap {
            shard: 0,
            state: Vec::new(),
        },
        Request::ReplicaStatus,
        Request::Promote { shard: 0 },
    ];
    let expect_code = |response: Response, code: u16, request: &Request| match response {
        Response::Error { code: got, .. } if got == code => {}
        other => panic!("router: expected error {code} for {request:?}, got {other:?}"),
    };
    for (i, request) in node_verbs.into_iter().enumerate() {
        let bare = client.request(&request).expect("request");
        expect_code(bare, error_code::NOT_CLUSTERED, &request);
        let corr = 100 + i as u64;
        let tagged = Request::Tagged {
            corr,
            inner: Box::new(request.clone()),
        };
        match client.request(&tagged).expect("tagged request") {
            Response::Tagged {
                corr: echoed,
                inner,
            } => {
                assert_eq!(echoed, corr, "router must echo the correlation id");
                expect_code(*inner, error_code::NOT_CLUSTERED, &request);
            }
            other => panic!("router: expected a Tagged reply for {request:?}, got {other:?}"),
        }
    }
    let stale_hello = Request::Hello {
        version: delta_server::protocol::PROTOCOL_VERSION.wrapping_add(1),
        epoch: 0,
    };
    let reply = client.request(&stale_hello).expect("hello");
    expect_code(reply, error_code::BAD_FRAME, &stale_hello);
    // The refusals left the connection and the cluster serving.
    assert_eq!(client.hello(0).expect("hello").role, NodeRole::Router);
    drop(client);
    cluster.stop();
}

/// The router coalesces a pipelined window onto its node links: the
/// eight frames of a `pipelined(8)` window arrive in one read, and their
/// sub-requests leave in at most one flush per node link — never one per
/// frame. `router.mux_frames_per_flush` records one sample per link flush.
#[test]
fn pipelined_window_costs_at_most_one_flush_per_node() {
    const WINDOW: usize = 8;
    const WINDOWS: usize = 16;
    let s = survey(WINDOW * WINDOWS);
    let cache_bytes = (s.catalog.total_bytes() as f64 * 0.3) as u64;
    let cluster = start_cluster(
        PolicyKind::VCover,
        PartitionerKind::HashRing,
        cache_bytes,
        &s.catalog,
    );
    let mut pipe = DeltaClient::connect(cluster.router_addr)
        .expect("connect")
        .pipelined(WINDOW);
    let mut probe = DeltaClient::connect(cluster.router_addr).expect("connect");
    let link_flushes = |probe: &mut DeltaClient| {
        let snap = probe.telemetry().expect("telemetry");
        snap.histogram("router.mux_frames_per_flush")
            .map_or(0, |h| h.count)
    };
    for window in s.trace.events.chunks(WINDOW).take(WINDOWS) {
        let before = link_flushes(&mut probe);
        for event in window {
            let request = match event {
                Event::Query(q) => Request::Query(q.clone()),
                Event::Update(u) => Request::Update(*u),
            };
            pipe.submit(&request).expect("submit");
        }
        assert_eq!(pipe.drain().expect("drain").len(), WINDOW);
        let flushes = link_flushes(&mut probe) - before;
        assert!(
            flushes <= NODES as u64,
            "a window of {WINDOW} frames cost {flushes} node-link flushes"
        );
    }
    cluster.stop();
}
