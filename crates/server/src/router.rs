//! The router tier: one process fronting multiple `delta-serverd`
//! cluster nodes.
//!
//! `delta-routerd` speaks the same client-facing protocol as a
//! standalone server — `Query`, `Update`, `Sql`, `Batch`, `Tagged`
//! pipelining, `Stats`, `Shutdown` — but instead of executing events it
//! runs the cluster [`Partitioner`] itself, splits every event into
//! per-shard sub-events exactly like the in-process frontend does, and
//! groups them **per owning node** into pre-split [`Request::NodeOps`]
//! frames. Per-shard sub-event order equals client order, so per-shard
//! ledgers stay byte-identical to the offline [`crate::twin::Twin`] —
//! the property the cluster
//! differential test pins end-to-end.
//!
//! ## Routing epochs and live resharding
//!
//! The router owns the shard→node map, versioned by a **routing epoch**.
//! An admin [`Request::Reshard`] moves one shard between nodes while the
//! cluster stays up:
//!
//! 1. take the routing write lock (no request splits against the old
//!    map from here on) and drain every node sub-request still in
//!    flight on the shared links,
//! 2. `DetachShard` at the old owner — the node write-locks the shard
//!    slot (waiting out in-flight ops), snapshots the engine, stops
//!    serving it and holds the core,
//! 3. `ReplicaBootstrap` with that snapshot, then `Promote` without a
//!    fence, at the new owner — the verbs a pump and a failover use: the
//!    node validates the snapshot against its own sub-catalog, policy,
//!    budget and `--backup-of` list, restores the engine as a backup,
//!    then serves it and answers once its reachable backups hold it
//!    (replicating nodes). If either fails, a `Promote` at the old owner
//!    serves its held core again, policy state intact,
//! 4. `SetEpoch` everywhere (the old owner drops its held core), bump
//!    the local map, reply `ReshardOk`.
//!
//! Any connection still declaring the old epoch — another router
//! replica, a direct-to-node client with a cached map — gets a typed
//! [`Response::WrongEpoch`] on its next event request and *nothing
//! executes*; the router's own node links transparently re-handshake and
//! retry, which doubles as a liveness proof of the redirect path.

use crate::config::FrontDoor;
use crate::connection::{
    buffered_frame_len, prepare_read_buffer, FrameHandler, LoopBackend, WireTelemetry, POLL,
    READ_BUF,
};
use crate::front::{BackendFactory, FrameFactory, ReactorFront, ReactorTelemetry, BACKEND_TOKEN};
use crate::mux::{
    compile_sql, shape_response, split_items, wrap_corr, Completion, Correlator, FanoutTable,
    MergeState, Purpose, ReplyKind, SubEntry,
};
use crate::partition::{Partitioner, PartitionerKind};
use crate::protocol::{
    append_frame_with, encode_tagged_request_into, error_code, read_frame_into, BatchItem,
    NodeInfo, NodeOp, NodeRole, Request, Response, ShardStats, StatsSnapshot, PROTOCOL_VERSION,
};
use crate::replication::jittered;
use delta_query::{QueryCompiler, Schema};
use delta_reactor::{Interest, Poller, TimerWheel};
use delta_storage::ObjectCatalog;
use delta_telemetry::{Counter, Gauge, Histogram, Telemetry, TelemetrySnapshot};
use delta_workload::WorkloadConfig;
use std::any::Any;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// Everything `delta-routerd` needs besides the object catalog.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Listen address, e.g. `127.0.0.1:7118` (port 0 picks one).
    pub bind: String,
    /// Node addresses, indexed by node id — node `i` here must have been
    /// started with `--node-id i`.
    pub nodes: Vec<String>,
    /// Workload configuration for the router-side SQL frontend (same
    /// semantics as [`crate::ServerConfig::frontend`]).
    pub frontend: Option<WorkloadConfig>,
    /// Sizing of the reactor front door that serves clients (same
    /// semantics as [`crate::ServerConfig::front`]).
    pub front: FrontDoor,
    /// Reap limit for stalled client connections (same semantics as
    /// [`crate::ServerConfig::stall_limit`]).
    pub stall_limit: std::time::Duration,
    /// How long the data plane waits for a node's reply to one
    /// fanned-out sub-request before completing the waiting client
    /// requests with a typed `NODE_UNAVAILABLE` error and declaring the
    /// link dead (`--node-timeout-ms`); also the bound on each write
    /// and read of an admin call.
    pub node_timeout: std::time::Duration,
}

impl RouterConfig {
    /// Default per-fanout node reply deadline (`--node-timeout-ms`):
    /// generous against GC-free Rust nodes, tight enough that a wedged
    /// node fails typed long before clients' own stall limits.
    pub const DEFAULT_NODE_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(5);
}

/// The routing state every client handler reads and `Reshard` rewrites.
struct Route {
    /// Current routing epoch.
    epoch: u64,
    /// `owner[shard]` — node hosting that shard.
    owner: Vec<u16>,
}

/// The router's own metric handles, resolved from the registry once at
/// startup (the registry lock is never on the request path).
struct RouterTelemetry {
    /// Round-trip latency of one `NodeOps` frame, per node — the
    /// router's view of each node's service time including the wire.
    fanout: Vec<Arc<Histogram>>,
    /// `WrongEpoch` redirects absorbed by transparent re-handshakes.
    wrong_epoch_retries: Arc<Counter>,
    /// Node sub-requests in flight across all shared links of one event
    /// loop, sampled at each flush.
    node_inflight: Arc<Histogram>,
    /// Sub-request frames coalesced into one socket write per link
    /// flush — the pipelining the shared links buy.
    mux_frames_per_flush: Arc<Histogram>,
    /// Per-node queue depth (correlation ids awaiting replies on the
    /// shared link), refreshed at each flush.
    node_queue: Vec<Arc<Gauge>>,
    /// Reshard phase durations: drain + snapshot at the old owner,
    reshard_detach: Arc<Histogram>,
    /// bootstrap and promote at the new owner, its backups' bootstrap
    /// included,
    reshard_attach: Arc<Histogram>,
    /// and the cluster-wide epoch bump.
    reshard_epoch: Arc<Histogram>,
    /// Backups promoted to primary by the failure detector.
    promotions: Arc<Counter>,
    /// Failover rounds run (a node declared dead), promotions or not.
    failovers: Arc<Counter>,
    /// EWMA (α = 1/8) of each node's fan-out round trip, the health
    /// score behind the failure detector's strike threshold.
    node_rtt: Vec<Arc<Gauge>>,
}

impl RouterTelemetry {
    fn register(t: &Telemetry, n_nodes: usize) -> RouterTelemetry {
        RouterTelemetry {
            fanout: (0..n_nodes)
                .map(|n| t.histogram(&format!("router.fanout_ns.node{n}")))
                .collect(),
            wrong_epoch_retries: t.counter("router.wrong_epoch_retries"),
            node_inflight: t.histogram("router.node_inflight"),
            mux_frames_per_flush: t.histogram("router.mux_frames_per_flush"),
            node_queue: (0..n_nodes)
                .map(|n| t.gauge(&format!("router.node_queue.node{n}")))
                .collect(),
            reshard_detach: t.histogram("router.reshard.detach_ns"),
            reshard_attach: t.histogram("router.reshard.attach_ns"),
            reshard_epoch: t.histogram("router.reshard.set_epoch_ns"),
            promotions: t.counter("router.promotions"),
            failovers: t.counter("router.failovers"),
            node_rtt: (0..n_nodes)
                .map(|n| t.gauge(&format!("router.node_rtt_ewma_ns.node{n}")))
                .collect(),
        }
    }
}

/// One node's health as the failure detector sees it: an RTT EWMA for
/// scoring and a strike counter for the binary alive/dead call. Strikes
/// accrue on hard evidence only — a connect failure, a dead link, a
/// fan-out deadline miss — and any successful round trip (or monitor
/// probe) clears them, so a single transient hiccup never fails a node
/// over.
#[derive(Default)]
struct NodeHealth {
    /// EWMA (α = 1/8) of fan-out round trips, in ns; 0 = no sample yet.
    rtt_ewma_ns: AtomicU64,
    /// Consecutive hard failures since the last successful round trip.
    strikes: AtomicU32,
    /// Set once the failure detector declares the node dead; the admin
    /// fan-outs (`Stats`, `Telemetry`, `Shutdown`) skip it from then on.
    /// Rejoining a revived node takes a router restart, which re-stitches
    /// the owner map from the nodes' own hosted sets.
    down: AtomicBool,
}

struct RouterShared {
    map: Box<dyn Partitioner>,
    catalog: ObjectCatalog,
    nodes: Vec<String>,
    route: RwLock<Route>,
    shutdown: Arc<AtomicBool>,
    frontend: Option<Arc<QueryCompiler>>,
    /// The router's metric registry; a client `Telemetry` request gets
    /// this merged with every node's snapshot.
    telemetry: Arc<Telemetry>,
    rt: RouterTelemetry,
    /// Wire-level counter handles shared by every client connection.
    wire: WireTelemetry,
    /// Sizing of the reactor front door.
    front: FrontDoor,
    /// Reap limit for stalled client connections.
    stall_limit: std::time::Duration,
    /// Per-fanout node reply deadline on the data plane, and the
    /// write/read bound of every admin call.
    node_timeout: Duration,
    /// Node sub-requests currently parked in ANY event loop's link
    /// correlators. `Reshard` quiesces on this reaching zero before it
    /// detaches a shard, so no sub-request ever straddles an epoch
    /// boundary mid-flight.
    inflight_subs: AtomicUsize,
    /// Per-node health, fed by the shared data-plane links and by every
    /// [`admin_call`] (a node it cannot reach earns a strike), and read
    /// by the failure-detector thread.
    health: Vec<NodeHealth>,
}

impl RouterShared {
    /// Records a successful round trip to `node`: folds the RTT into
    /// the EWMA health score and clears any strikes.
    fn note_ok(&self, node: usize, rtt: Duration) {
        let h = &self.health[node];
        h.strikes.store(0, Ordering::Relaxed);
        let sample = rtt.as_nanos() as u64;
        let prev = h.rtt_ewma_ns.load(Ordering::Relaxed);
        // Racy read-modify-write is fine: this is a health score, not a
        // ledger, and every writer moves it toward recent reality.
        let next = if prev == 0 {
            sample
        } else {
            prev - prev / 8 + sample / 8
        };
        h.rtt_ewma_ns.store(next, Ordering::Relaxed);
        self.rt.node_rtt[node].set(next);
    }

    /// Records hard evidence against `node`: a connect failure, a dead
    /// link, or a fan-out deadline miss.
    fn note_strike(&self, node: usize) {
        self.health[node].strikes.fetch_add(1, Ordering::Relaxed);
    }

    /// Whether the failure detector has declared `node` dead.
    fn is_down(&self, node: usize) -> bool {
        self.health[node].down.load(Ordering::SeqCst)
    }
}

/// A running delta-router instance.
pub struct Router {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: std::thread::JoinHandle<()>,
    monitor_thread: std::thread::JoinHandle<()>,
    telemetry: Arc<Telemetry>,
}

impl Router {
    /// Connects to every node, validates that they form one coherent
    /// cluster over `catalog`, then binds and starts routing. Returns
    /// once the listener is live.
    pub fn start(config: RouterConfig, catalog: ObjectCatalog) -> io::Result<Router> {
        if config.nodes.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "router needs at least one node",
            ));
        }
        if config.nodes.len() > u16::MAX as usize {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "node count exceeds u16",
            ));
        }
        let frontend = match &config.frontend {
            None => None,
            Some(wcfg) => {
                let mapper = wcfg.spatial_mapper();
                if mapper.partition().len() != catalog.len() {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!(
                            "frontend partition has {} leaves but the catalog has {} objects",
                            mapper.partition().len(),
                            catalog.len()
                        ),
                    ));
                }
                Some(Arc::new(QueryCompiler::new(
                    Schema::sdss(),
                    wcfg.sky_model(),
                    mapper,
                )))
            }
        };

        // Handshake with every node and stitch their hosted sets into
        // one owner map, refusing any inconsistency up front: a cluster
        // that disagrees about its partitioner would corrupt ledgers
        // silently, which is exactly what this tier must make impossible.
        let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidInput, msg);
        let mut infos: Vec<NodeInfo> = Vec::with_capacity(config.nodes.len());
        for (i, addr) in config.nodes.iter().enumerate() {
            let hello = Request::Hello {
                version: PROTOCOL_VERSION,
                epoch: 0,
            };
            let info = match node_call(addr, config.node_timeout, &hello) {
                Ok(Response::HelloOk(info)) => info,
                Ok(other) => return Err(invalid(format!("{addr} answered Hello with {other:?}"))),
                Err(detail) => return Err(io::Error::other(format!("{addr}: {detail}"))),
            };
            if info.role != NodeRole::ClusterNode {
                return Err(invalid(format!(
                    "{addr} is not a cluster node (role {:?}); start it with --node-id/--nodes",
                    info.role
                )));
            }
            if info.node as usize != i {
                return Err(invalid(format!(
                    "{addr} thinks it is node {} but is listed at position {i}",
                    info.node
                )));
            }
            if info.nodes as usize != config.nodes.len() {
                return Err(invalid(format!(
                    "{addr} expects {} nodes but the router fronts {}",
                    info.nodes,
                    config.nodes.len()
                )));
            }
            if info.catalog_objects != catalog.len() as u64
                || info.catalog_bytes != catalog.total_bytes()
            {
                return Err(invalid(format!(
                    "{addr} serves a different catalog ({} objects / {} bytes vs the router's \
                     {} / {})",
                    info.catalog_objects,
                    info.catalog_bytes,
                    catalog.len(),
                    catalog.total_bytes()
                )));
            }
            infos.push(info);
        }
        let first = &infos[0];
        for (info, addr) in infos.iter().zip(&config.nodes) {
            if info.partitioner != first.partitioner
                || info.cluster_shards != first.cluster_shards
                || info.epoch != first.epoch
            {
                return Err(invalid(format!(
                    "{addr} disagrees with {}: partitioner/shards/epoch \
                     ({}/{}/{}) vs ({}/{}/{})",
                    config.nodes[0],
                    info.partitioner,
                    info.cluster_shards,
                    info.epoch,
                    first.partitioner,
                    first.cluster_shards,
                    first.epoch
                )));
            }
        }
        let n_shards = first.cluster_shards as usize;
        let kind = PartitionerKind::parse(&first.partitioner).map_err(invalid)?;
        let map = kind.build(n_shards, catalog.len());
        let mut owner: Vec<Option<u16>> = vec![None; n_shards];
        for (i, info) in infos.iter().enumerate() {
            for &s in &info.hosted {
                if s as usize >= n_shards {
                    return Err(invalid(format!("node {i} hosts out-of-range shard {s}")));
                }
                if let Some(prev) = owner[s as usize] {
                    return Err(invalid(format!(
                        "shard {s} hosted by both node {prev} and node {i}"
                    )));
                }
                owner[s as usize] = Some(i as u16);
            }
        }
        let owner: Vec<u16> = owner
            .into_iter()
            .enumerate()
            .map(|(s, o)| o.ok_or_else(|| invalid(format!("shard {s} is hosted by no node"))))
            .collect::<io::Result<_>>()?;

        let listener = TcpListener::bind(&config.bind)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let shutdown = Arc::new(AtomicBool::new(false));
        let telemetry = Arc::new(Telemetry::new());
        telemetry.gauge("router.epoch").set(first.epoch);
        telemetry
            .gauge("router.nodes")
            .set(config.nodes.len() as u64);
        let n_nodes_total = config.nodes.len();
        let rt = RouterTelemetry::register(&telemetry, n_nodes_total);
        let wire = WireTelemetry::register(&telemetry);
        let shared = Arc::new(RouterShared {
            map,
            catalog,
            nodes: config.nodes,
            route: RwLock::new(Route {
                epoch: first.epoch,
                owner,
            }),
            shutdown: Arc::clone(&shutdown),
            frontend,
            telemetry: Arc::clone(&telemetry),
            rt,
            wire,
            front: config.front,
            stall_limit: config.stall_limit,
            node_timeout: config.node_timeout,
            inflight_subs: AtomicUsize::new(0),
            health: (0..n_nodes_total).map(|_| NodeHealth::default()).collect(),
        });

        let monitor_shared = Arc::clone(&shared);
        let monitor_thread = std::thread::Builder::new()
            .name("delta-router-monitor".to_string())
            .spawn(move || monitor_loop(monitor_shared))
            .expect("spawn router monitor thread");

        let accept_shutdown = Arc::clone(&shutdown);
        let accept_thread = std::thread::Builder::new()
            .name("delta-router-accept".to_string())
            .spawn(move || accept_loop(listener, shared, accept_shutdown))
            .expect("spawn router accept thread");

        Ok(Router {
            addr,
            shutdown,
            accept_thread,
            monitor_thread,
            telemetry,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Point-in-time copy of the router's **own** registry (fan-out
    /// latencies, retries, reshard phases, wire counters). A client
    /// `Telemetry` request additionally folds in every node's snapshot.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        self.telemetry.snapshot()
    }

    /// A shared handle on the router's registry, for long-lived
    /// observers (the `--telemetry-dump` thread).
    pub fn telemetry_handle(&self) -> Arc<Telemetry> {
        Arc::clone(&self.telemetry)
    }

    /// Requests shutdown without waiting (a client `Shutdown` frame does
    /// this too — and additionally shuts the nodes down).
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Waits for the router to stop.
    pub fn join(self) {
        self.accept_thread.join().expect("router accept panicked");
        self.monitor_thread.join().expect("router monitor panicked");
    }

    /// Convenience: request shutdown and wait.
    pub fn stop(self) {
        self.request_shutdown();
        self.join()
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<RouterShared>, shutdown: Arc<AtomicBool>) {
    // Every client connection's routed requests suspend onto the event
    // loop's [`RouterBackend`], which multiplexes ALL of them over one
    // pipelined link per node. A slow node never parks the loop — the
    // waiting connections resume when its tagged replies arrive (or its
    // deadline fires), while everyone else keeps flowing.
    let factory_shared = Arc::clone(&shared);
    let factory: FrameFactory = Arc::new(move || {
        Box::new(MuxHandler::new(Arc::clone(&factory_shared))) as Box<dyn FrameHandler>
    });
    let backend_shared = Arc::clone(&shared);
    let backend: BackendFactory = Arc::new(move |poller| {
        Box::new(RouterBackend::new(Arc::clone(&backend_shared), poller)) as Box<dyn LoopBackend>
    });
    ReactorFront {
        name: "delta-router",
        threads: shared.front.threads,
        shutdown,
        wire: shared.wire.clone(),
        rtel: ReactorTelemetry::register(&shared.telemetry),
        stall_limit: shared.stall_limit,
        factory,
        backend: Some(backend),
    }
    .run(listener);
}

/// Why an admin call got no reply from a node: which node, and what
/// failed. A client waiting on the call gets it as a typed
/// [`error_code::NODE_UNAVAILABLE`] frame, and its connection stays
/// open.
#[derive(Debug)]
struct NodeDown {
    node: usize,
    detail: String,
}

impl std::fmt::Display for NodeDown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node {} unavailable: {}", self.node, self.detail)
    }
}

impl From<NodeDown> for Response {
    fn from(down: NodeDown) -> Response {
        Response::Error {
            code: error_code::NODE_UNAVAILABLE,
            message: down.to_string(),
        }
    }
}

/// Whether `request` hands a shard over: a `DetachShard` reply is the
/// router's only word that the old owner stopped serving the shard, and
/// a `Promote` reply its only word that a node now serves it. The node
/// acts on such a frame whether or not anyone still reads its reply, so
/// giving up on the reply could leave the shard served but unrouted, or
/// routed but unserved.
fn hands_over_shard(request: &Request) -> bool {
    matches!(
        request,
        Request::DetachShard { .. } | Request::Promote { .. }
    )
}

/// One request to the node at `addr` on a connection of its own:
/// connect within [`CONNECT_TIMEOUT`], write one frame within
/// `timeout`, read one frame, then close. The read is bounded by
/// `timeout` too, except for a frame that [`hands_over_shard`]: that
/// reply is waited for, so a reshard or failover against a wedged node
/// stalls until the node resumes instead of losing the shard. The error
/// names the stage that failed.
fn node_call(addr: &str, timeout: Duration, request: &Request) -> Result<Response, String> {
    let mut stream = connect_node(addr).map_err(|e| format!("connect: {e}"))?;
    let round_trip = |stream: &mut TcpStream| -> io::Result<Response> {
        stream.set_nonblocking(false)?;
        stream.set_read_timeout((!hands_over_shard(request)).then_some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        let mut wire = Vec::new();
        append_frame_with(&mut wire, |buf| request.encode_into(buf))?;
        stream.write_all(&wire)?;
        let mut payload = Vec::new();
        read_frame_into(stream, &mut payload)?;
        Response::decode(&payload)
    };
    round_trip(&mut stream).map_err(|e| format!("round trip: {e}"))
}

/// The router's one admin call: every frame it sends a node outside
/// the data-plane links (`Stats`, `Telemetry`, `Shutdown`, reshard and
/// failover) is a [`node_call`] bounded by the node timeout, so a
/// wedged node costs the caller at most that, never forever — save the
/// shard hand-over frames, whose replies are waited for. The
/// verbs are never fenced by epoch at the node, so no `Hello` goes
/// first. A node the call cannot reach earns a strike. (The start-up
/// `Hello` is a bare [`node_call`]: it runs before there is a router
/// to strike against.)
fn admin_call(shared: &RouterShared, node: usize, request: &Request) -> Result<Response, NodeDown> {
    node_call(&shared.nodes[node], shared.node_timeout, request).map_err(|detail| {
        shared.note_strike(node);
        NodeDown { node, detail }
    })
}

/// A scrape's answer when `node` did not reply as asked: the typed
/// `NODE_UNAVAILABLE` naming it.
fn scrape_failure(node: usize, reply: Result<Response, NodeDown>) -> Response {
    match reply {
        Ok(other) => NodeDown {
            node,
            detail: format!("unexpected reply {other:?}"),
        }
        .into(),
        Err(down) => down.into(),
    }
}

/// How many times a sub-request is retried after a `WrongEpoch`
/// redirect before giving up. One redirect (stale link handshake right
/// after a reshard) is normal; repeats mean a node is wedged on a future
/// epoch.
const EPOCH_RETRIES: usize = 3;

/// A per-node plan: ops in client order plus, for queries, which item
/// each op belongs to so replies can be merged back.
#[derive(Default)]
struct NodePlan {
    ops: Vec<NodeOp>,
    /// `items[k]` — client-item index op `k` came from.
    items: Vec<usize>,
}

/// The version handshake: a router answers with its own shape, and a
/// peer speaking another protocol version gets a typed `BAD_FRAME`.
fn handle_hello(shared: &RouterShared, version: u8) -> Response {
    if version != PROTOCOL_VERSION {
        return Response::Error {
            code: error_code::BAD_FRAME,
            message: format!(
                "protocol version mismatch: peer speaks v{version}, this router speaks v{}",
                PROTOCOL_VERSION
            ),
        };
    }
    Response::HelloOk(router_info(shared))
}

/// Shuts the whole cluster down: the router owns its nodes' lifecycle
/// the way `delta-serverd` owns its shards'.
fn handle_shutdown(shared: &RouterShared) -> Response {
    let _route = shared.route.read().expect("route lock");
    for node in 0..shared.nodes.len() {
        if shared.is_down(node) {
            continue;
        }
        match admin_call(shared, node, &Request::Shutdown) {
            Ok(Response::ShutdownOk) => {}
            Ok(other) => eprintln!("delta-router: node {node} shutdown failed: {other:?}"),
            Err(e) => eprintln!("delta-router: node {node} unreachable for shutdown: {e}"),
        }
    }
    shared.shutdown.store(true, Ordering::SeqCst);
    Response::ShutdownOk
}

fn handle_stats(shared: &RouterShared) -> Response {
    // Held so the scrape never straddles a reshard or a failover.
    let _route = shared.route.read().expect("route lock");
    let mut shards: Vec<ShardStats> = Vec::new();
    for node in 0..shared.nodes.len() {
        // A failed-over node's shards answer from their promoted homes;
        // asking its corpse would only turn a scrape into an error.
        if shared.is_down(node) {
            continue;
        }
        match admin_call(shared, node, &Request::Stats) {
            Ok(Response::StatsOk(snapshot)) => shards.extend(snapshot.shards),
            reply => return scrape_failure(node, reply),
        }
    }
    shards.sort_by_key(|s| s.shard);
    Response::StatsOk(StatsSnapshot { shards })
}

/// The cluster-wide scrape: every node's snapshot folded into the
/// router's own. Counters add, gauges take the max, histograms merge
/// bucket-wise — and the shared `conn.*` names mean the wire totals come
/// out as cluster totals, while `shard.*`/`router.*` names stay
/// per-tier by construction.
fn handle_telemetry(shared: &RouterShared) -> Response {
    let _route = shared.route.read().expect("route lock");
    let mut merged = shared.telemetry.snapshot();
    for node in 0..shared.nodes.len() {
        if shared.is_down(node) {
            continue;
        }
        match admin_call(shared, node, &Request::Telemetry) {
            Ok(Response::TelemetryOk(snapshot)) => merged.merge(&snapshot),
            reply => return scrape_failure(node, reply),
        }
    }
    Response::TelemetryOk(merged)
}

fn router_info(shared: &RouterShared) -> NodeInfo {
    let route = shared.route.read().expect("route lock");
    NodeInfo {
        role: NodeRole::Router,
        node: 0,
        nodes: shared.nodes.len() as u16,
        epoch: route.epoch,
        cluster_shards: shared.map.n_shards() as u16,
        partitioner: shared.map.kind().to_string(),
        catalog_objects: shared.catalog.len() as u64,
        catalog_bytes: shared.catalog.total_bytes(),
        hosted: (0..shared.map.n_shards() as u16).collect(),
    }
}

/// Serves a client's `Reshard`: takes the routing write lock, so no
/// request splits against the old map, drains the in-flight node
/// sub-requests — which do NOT hold the read lock while suspended —
/// through `backend`, the coordinating connection's own event loop,
/// and hands the move to [`do_reshard`] with the bounded
/// [`admin_call`]. Draining first costs nothing when nothing is in
/// flight.
fn handle_reshard(
    shared: &RouterShared,
    backend: &mut RouterBackend,
    shard: u16,
    to_node: u16,
) -> Response {
    let mut route = shared.route.write().expect("route lock");
    backend.quiesce(route.epoch, &route.owner);
    do_reshard(shared, &mut route, shard, to_node, |node, request| {
        admin_call(shared, node, request)
    })
}

/// The live-resharding coordinator: the sequence of admin calls that
/// moves `shard` to `to_node` over `route`, which the caller holds
/// under the routing write lock. It touches no socket; `call` sends
/// one request to one node.
fn do_reshard(
    shared: &RouterShared,
    route: &mut Route,
    shard: u16,
    to_node: u16,
    mut call: impl FnMut(usize, &Request) -> Result<Response, NodeDown>,
) -> Response {
    let fail = |message: String| Response::Error {
        code: error_code::RESHARD_FAILED,
        message,
    };
    if shard as usize >= shared.map.n_shards() {
        return fail(format!(
            "shard {shard} out of range 0..{}",
            shared.map.n_shards()
        ));
    }
    if to_node as usize >= shared.nodes.len() {
        return fail(format!(
            "node {to_node} out of range 0..{}",
            shared.nodes.len()
        ));
    }
    let from = route.owner[shard as usize];
    if from == to_node {
        // Nothing to move; the current epoch already describes it.
        return Response::ReshardOk { epoch: route.epoch };
    }
    let (from, to) = (from as usize, to_node as usize);
    // Step 1: drain + snapshot at the old owner, which holds the core.
    let t_detach = Instant::now();
    let state = match call(from, &Request::DetachShard { shard }) {
        Ok(Response::ShardState { state, .. }) => state,
        Ok(other) => return fail(format!("detach at node {from}: unexpected {other:?}")),
        Err(e) => return fail(format!("detach at node {from}: {e}")),
    };
    shared.rt.reshard_detach.record_duration(t_detach.elapsed());
    // Step 2: bootstrap and promote at the new owner, the verbs a pump
    // and a failover use. A move keeps the copy's own fence.
    let t_move = Instant::now();
    let promote = Request::Promote {
        shard,
        fence: false,
    };
    let moved = match call(to, &Request::ReplicaBootstrap { shard, state }) {
        Ok(Response::ReplicaOk { .. }) => match call(to, &promote) {
            Ok(Response::PromoteOk { .. }) => Ok(()),
            outcome => Err(format!("promote at node {to} failed ({outcome:?})")),
        },
        outcome => Err(format!("bootstrap at node {to} failed ({outcome:?})")),
    };
    if let Err(failure) = moved {
        // Roll back: the old owner serves its held core again, policy
        // state intact. No copy of the state stays in the router.
        let rollback = match call(from, &promote) {
            Ok(Response::PromoteOk { .. }) => format!("shard {shard} restored at node {from}"),
            outcome => format!(
                "ROLLBACK FAILED ({outcome:?}) — shard {shard} is OFFLINE; node {from} \
                 holds it, and a Promote of shard {shard} there serves it again"
            ),
        };
        return fail(format!("{failure}; {rollback}"));
    }
    shared.rt.reshard_attach.record_duration(t_move.elapsed());
    // Step 3: new epoch everywhere, then adopt the new map. A node that
    // misses the bump would fence the router's next ops forever, so a
    // SetEpoch failure is a hard error for the operator.
    let epoch = route.epoch + 1;
    let t_epoch = Instant::now();
    for node in 0..shared.nodes.len() {
        match call(node, &Request::SetEpoch { epoch }) {
            Ok(Response::EpochOk { .. }) => {}
            other => {
                return fail(format!(
                    "SetEpoch({epoch}) at node {node} failed ({other:?}); cluster is between \
                     epochs — restart the router against consistent nodes"
                ))
            }
        }
    }
    shared.rt.reshard_epoch.record_duration(t_epoch.elapsed());
    route.owner[shard as usize] = to_node;
    route.epoch = epoch;
    shared.telemetry.gauge("router.epoch").set(epoch);
    Response::ReshardOk { epoch }
}

/// Strikes before the failure detector declares a node dead and fails
/// its shards over. Two means one hard failure plus one failed
/// confirmation probe — a single transient error never triggers.
const FAILOVER_STRIKES: u32 = 2;

/// The failure-detector thread: wakes every quarter node-timeout, and
/// for any node with strikes against it either clears them (the node
/// answers a probe — it is alive, the strikes were transient) or
/// escalates toward [`do_failover`]. Active probing makes detection
/// self-driving: a primary that dies with no client traffic in flight
/// is still declared dead within a few ticks of its first strike.
fn monitor_loop(shared: Arc<RouterShared>) {
    let tick = (shared.node_timeout / 4).max(Duration::from_millis(25));
    while !shared.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(tick);
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        for node in 0..shared.nodes.len() {
            let h = &shared.health[node];
            if h.down.load(Ordering::SeqCst) || h.strikes.load(Ordering::Relaxed) == 0 {
                continue;
            }
            // Suspicion confirmed or cleared by a bounded probe, not by
            // waiting for more client traffic to fail.
            if probe(&shared, node) {
                h.strikes.store(0, Ordering::Relaxed);
            } else {
                shared.note_strike(node);
            }
            if h.strikes.load(Ordering::Relaxed) >= FAILOVER_STRIKES {
                let mut route = shared.route.write().expect("route lock");
                do_failover(&shared, &mut route, node, |n, request| {
                    admin_call(&shared, n, request)
                });
            }
        }
    }
}

/// Whether `node` answers a `Hello` with `HelloOk` within the node
/// timeout. An answer, not a connect: a stopped process's kernel still
/// completes the TCP handshake.
fn probe(shared: &RouterShared, node: usize) -> bool {
    let hello = Request::Hello {
        version: PROTOCOL_VERSION,
        epoch: 0,
    };
    matches!(
        node_call(&shared.nodes[node], shared.node_timeout, &hello),
        Ok(Response::HelloOk(_))
    )
}

/// The failover coordinator: over `route`, which the caller holds under
/// the routing write lock, it asks every survivor which backups it holds
/// and how caught up they are (`ReplicaStatus`), promotes the
/// most-caught-up backup of every orphaned shard (`Promote`), and bumps
/// the routing epoch at the survivors so stale links get a typed
/// `WrongEpoch` — never a wrong answer. Zero promotions (no backups
/// configured, or none alive) bumps nothing: with `--replicas 0` the
/// data path stays byte-identical to the pre-replication router, and
/// the dead node's shards simply answer `NODE_UNAVAILABLE` until an
/// operator intervenes.
///
/// The unavailability window a client sees is bounded by detection
/// (strike + one monitor tick ≤ ~1.5× node-timeout in the worst case)
/// plus this function's promotion round trips — well under 2× the
/// node timeout against live survivors. It touches no socket; `call`
/// sends one request to one node.
fn do_failover(
    shared: &RouterShared,
    route: &mut Route,
    dead: usize,
    mut call: impl FnMut(usize, &Request) -> Result<Response, NodeDown>,
) {
    // A cluster being shut down sheds nodes on purpose; that is not a
    // failure to react to.
    if shared.shutdown.load(Ordering::SeqCst) {
        return;
    }
    if shared.health[dead].down.swap(true, Ordering::SeqCst) {
        return; // raced another failover round for the same node
    }
    shared.rt.failovers.inc();
    let orphaned: Vec<u16> = route
        .owner
        .iter()
        .enumerate()
        .filter(|&(_, &o)| o as usize == dead)
        .map(|(s, _)| s as u16)
        .collect();
    eprintln!(
        "delta-router: node {dead} declared dead; {} shard(s) orphaned",
        orphaned.len()
    );
    if orphaned.is_empty() {
        return;
    }
    // Which survivor holds the most-caught-up backup of each shard?
    let mut holders: HashMap<u16, (usize, u64)> = HashMap::new();
    for node in 0..shared.nodes.len() {
        if node == dead || shared.is_down(node) {
            continue;
        }
        let Ok(Response::ReplicaStatusOk(backups)) = call(node, &Request::ReplicaStatus) else {
            continue; // an unreachable survivor just contributes nothing
        };
        for (shard, offset) in backups {
            let best = holders.entry(shard).or_insert((node, offset));
            if offset > best.1 {
                *best = (node, offset);
            }
        }
    }
    let mut promoted = 0u64;
    for &shard in &orphaned {
        let Some(&(node, _)) = holders.get(&shard) else {
            eprintln!("delta-router: shard {shard} has no live backup; it stays OFFLINE");
            continue;
        };
        match call(node, &Request::Promote { shard, fence: true }) {
            Ok(Response::PromoteOk { offset, .. }) => {
                route.owner[shard as usize] = node as u16;
                promoted += 1;
                shared.rt.promotions.inc();
                eprintln!("delta-router: shard {shard} promoted at node {node} (offset {offset})");
            }
            other => eprintln!(
                "delta-router: promote of shard {shard} at node {node} failed \
                 ({other:?}); shard OFFLINE"
            ),
        }
    }
    if promoted == 0 {
        // The map did not change, so the current epoch still describes
        // it exactly; a bump would cost every live link a WrongEpoch
        // round for nothing.
        return;
    }
    let next = route.epoch + 1;
    for node in 0..shared.nodes.len() {
        if node == dead || shared.is_down(node) {
            continue;
        }
        match call(node, &Request::SetEpoch { epoch: next }) {
            Ok(Response::EpochOk { .. }) => {}
            // A survivor that cannot take the bump is likely dying too:
            // its ops fence WrongEpoch until its own strikes fail it over.
            other => eprintln!("delta-router: SetEpoch({next}) at node {node} failed ({other:?})"),
        }
    }
    route.epoch = next;
    shared.telemetry.gauge("router.epoch").set(next);
}

// ---------------------------------------------------------------------------
// The data plane: shared multiplexed node links.
//
// Every routed request rides ONE pipelined link per node per event
// loop, driven by the loop itself — O(loops × nodes) sockets however
// many clients connect:
//
//   client frame → MuxHandler splits it under the route read lock,
//   opens a fan-out in the loop's FanoutTable, and appends one
//   `Tagged(NodeOps)` sub-request per touched node to that node's
//   shared write buffer (correlation ids from the link's Correlator).
//   The handler SUSPENDS — the loop moves on; nothing blocks.
//
//   loop flush → each link's coalesced buffer hits its socket once per
//   pump, so sub-requests from many client connections ride one write.
//
//   link readable → tagged replies demultiplex by correlation id back
//   to their fan-outs; the last reply completes the merge, and the
//   owning connection RESUMES with the response in arrival order.
//
// Node deadlines ride the backend's own timer wheel: a node that stays
// silent past `node_timeout` fails every fan-out waiting on it with a
// typed `NODE_UNAVAILABLE`, and its link dies. Reconnection is a single
// backoff-gated probe per link — shared by every client — so one dead
// node costs one connect attempt per backoff window, not one per
// client request.

/// First reconnect delay after a link death; doubles per failed probe.
const INITIAL_BACKOFF: Duration = Duration::from_millis(50);

/// Reconnect probes never back off past this.
const MAX_BACKOFF: Duration = Duration::from_secs(1);

/// Bounded connect probe: the event loop parks at most this long on a
/// dead node's reconnect attempt, at most once per backoff window.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(250);

/// Suspended response slots per connection before the front stops
/// reading more of its frames (handler saturation backpressure).
const MAX_PENDING_SLOTS: usize = 128;

/// Reads per link per readiness event — the fairness bound that keeps
/// one firehose node from starving the loop (level-triggered epoll
/// re-notifies whatever is left).
const LINK_READS_PER_EVENT: usize = 16;

/// One response slot of a client connection, in request-arrival order.
enum Slot {
    /// Response (or fatal error) ready to ship.
    Ready(io::Result<Response>),
    /// Waiting on the fan-out with this key.
    Waiting(usize),
}

/// The router's per-connection frame handler: splits routed requests
/// into fan-outs on the loop's [`RouterBackend`], answers admin verbs
/// with [`admin_call`]s (which block the loop for at most the node
/// timeout each), and keeps responses in arrival order across
/// suspensions.
struct MuxHandler {
    shared: Arc<RouterShared>,
    /// This connection's SQL compiler clone (compilation is CPU-bound,
    /// so connections never contend on it); `None` without a frontend.
    compiler: Option<QueryCompiler>,
    /// Pending responses; the longest all-`Ready` prefix is emitted
    /// after every frame and every resume.
    slots: VecDeque<Slot>,
}

impl MuxHandler {
    fn new(shared: Arc<RouterShared>) -> MuxHandler {
        MuxHandler {
            compiler: shared.frontend.as_ref().map(|c| (**c).clone()),
            slots: VecDeque::new(),
            shared,
        }
    }

    /// Ships the longest `Ready` prefix of `slots` into the write
    /// buffer. A `Ready(Err)` propagates only once everything earned
    /// before it is appended — the front flushes those before dropping
    /// the connection.
    fn emit(&mut self, wbuf: &mut Vec<u8>) -> io::Result<bool> {
        let mut close = false;
        while matches!(self.slots.front(), Some(Slot::Ready(_))) {
            let Some(Slot::Ready(result)) = self.slots.pop_front() else {
                unreachable!("front was Ready");
            };
            let response = result?;
            append_frame_with(wbuf, |buf| response.encode_into(buf))?;
            close |= matches!(&response, Response::ShutdownOk)
                || matches!(&response, Response::Tagged { inner, .. }
                    if matches!(**inner, Response::ShutdownOk));
        }
        Ok(close)
    }

    /// Queues a synchronous answer behind any suspended ones, echoing
    /// the client's correlation id.
    fn answer(&mut self, corr: Option<u64>, result: io::Result<Response>) {
        self.slots.push_back(Slot::Ready(
            result.map(|response| wrap_corr(corr, response)),
        ));
    }

    /// Resolves the waiting slot of `fanout` with its completed result.
    fn resolve(&mut self, fanout: usize, result: io::Result<Response>) {
        for slot in self.slots.iter_mut() {
            if let Slot::Waiting(f) = slot {
                if *f == fanout {
                    *slot = Slot::Ready(result);
                    return;
                }
            }
        }
    }

    /// Splits a routed request and opens its fan-out on the backend.
    /// The route read lock is held only across the split — never across
    /// a suspension — so a `Reshard` can take the write lock while
    /// sub-requests are in flight (it quiesces them via the backend).
    fn begin_routed(
        &mut self,
        key: usize,
        corr: Option<u64>,
        kind: ReplyKind,
        items: Vec<BatchItem>,
        backend: &mut dyn LoopBackend,
    ) {
        let mut merge = MergeState::new(items.len());
        let mut plans: Vec<NodePlan> = (0..self.shared.nodes.len())
            .map(|_| NodePlan::default())
            .collect();
        // Client order is preserved within each node, hence per shard.
        let epoch = {
            let route = self.shared.route.read().expect("route lock");
            split_items(
                &*self.shared.map,
                &self.shared.catalog,
                items,
                &mut merge,
                |s, i, sub| {
                    let plan = &mut plans[route.owner[s] as usize];
                    plan.ops.push(NodeOp {
                        shard: s as u16,
                        item: sub,
                    });
                    plan.items.push(i);
                },
            );
            route.epoch
        };
        if plans.iter().all(|p| p.ops.is_empty()) {
            // Every item resolved at the router (invalid objects, empty
            // batch): no node involved, answer synchronously.
            self.answer(corr, Ok(shape_response(&kind, &mut merge)));
            return;
        }
        let fanout = router_backend(backend).begin_fanout(key, corr, kind, merge, plans, epoch);
        self.slots.push_back(Slot::Waiting(fanout));
    }

    /// Compiles SQL at the router, then routes the compiled query like
    /// any other; compile failures answer synchronously.
    fn begin_sql(
        &mut self,
        key: usize,
        corr: Option<u64>,
        seq: u64,
        sql: &str,
        backend: &mut dyn LoopBackend,
    ) {
        let Some(compiler) = self.compiler.as_ref() else {
            let response = Response::Error {
                code: error_code::SQL_UNAVAILABLE,
                message: "router has no SQL frontend (start it from a workload preset)".to_string(),
            };
            self.answer(corr, Ok(response));
            return;
        };
        match compile_sql(compiler, seq, sql) {
            Ok((event, kind)) => {
                self.begin_routed(key, corr, kind, vec![BatchItem::Query(event)], backend)
            }
            Err(rejected) => self.answer(corr, Ok(rejected)),
        }
    }
}

impl FrameHandler for MuxHandler {
    fn on_frame(
        &mut self,
        key: usize,
        payload: &[u8],
        wbuf: &mut Vec<u8>,
        backend: &mut dyn LoopBackend,
    ) -> io::Result<bool> {
        let (corr, request) = match Request::decode(payload) {
            Ok(Request::Tagged { corr, inner }) => (Some(corr), *inner),
            Ok(other) => (None, other),
            Err(e) => {
                let response = Response::Error {
                    code: error_code::BAD_FRAME,
                    message: e.to_string(),
                };
                self.answer(None, Ok(response));
                return self.emit(wbuf);
            }
        };
        match request {
            Request::Query(q) => self.begin_routed(
                key,
                corr,
                ReplyKind::Single,
                vec![BatchItem::Query(q)],
                backend,
            ),
            Request::Update(u) => self.begin_routed(
                key,
                corr,
                ReplyKind::Single,
                vec![BatchItem::Update(u)],
                backend,
            ),
            Request::Batch(items) => self.begin_routed(key, corr, ReplyKind::Batch, items, backend),
            Request::Sql { seq, sql } => self.begin_sql(key, corr, seq, &sql, backend),
            Request::Reshard { shard, to_node } => {
                let response =
                    handle_reshard(&self.shared, router_backend(backend), shard, to_node);
                self.answer(corr, Ok(response));
            }
            Request::Hello { version, .. } => {
                let response = handle_hello(&self.shared, version);
                self.answer(corr, Ok(response));
            }
            Request::Stats => {
                let response = handle_stats(&self.shared);
                self.answer(corr, Ok(response));
            }
            Request::Telemetry => {
                let response = handle_telemetry(&self.shared);
                self.answer(corr, Ok(response));
            }
            Request::Shutdown => {
                let response = handle_shutdown(&self.shared);
                self.answer(corr, Ok(response));
            }
            Request::NodeOps(_)
            | Request::DetachShard { .. }
            | Request::SetEpoch { .. }
            | Request::Replicate { .. }
            | Request::ReplicaBootstrap { .. }
            | Request::ReplicaStatus
            | Request::Promote { .. } => self.answer(
                corr,
                Ok(Response::Error {
                    code: error_code::NOT_CLUSTERED,
                    message: "the router hosts no shards; node-level verbs go to delta-serverd"
                        .into(),
                }),
            ),
            // The decoder already refuses a Tagged envelope inside another.
            Request::Tagged { .. } => self.answer(
                corr,
                Ok(Response::Error {
                    code: error_code::BAD_FRAME,
                    message: "nested tagged request".into(),
                }),
            ),
        }
        self.emit(wbuf)
    }

    fn on_resume(
        &mut self,
        key: usize,
        wbuf: &mut Vec<u8>,
        backend: &mut dyn LoopBackend,
    ) -> io::Result<bool> {
        for (fanout, result) in router_backend(backend).take_done(key) {
            self.resolve(fanout, result);
        }
        self.emit(wbuf)
    }

    fn suspended(&self) -> bool {
        // Ready prefixes are emitted eagerly, so any slot left means the
        // front one is (or sits behind) a suspended fan-out.
        !self.slots.is_empty()
    }

    fn saturated(&self) -> bool {
        self.slots.len() >= MAX_PENDING_SLOTS
    }
}

/// Downcasts the loop backend the front handed us — the router's
/// reactor always pairs [`MuxHandler`] with [`RouterBackend`].
fn router_backend(backend: &mut dyn LoopBackend) -> &mut RouterBackend {
    backend
        .as_any()
        .downcast_mut::<RouterBackend>()
        .expect("router reactor runs a RouterBackend")
}

/// Socket state of one shared node link.
enum LinkState {
    /// No socket; the next enqueue past `retry_at` probes a reconnect.
    Down {
        retry_at: Instant,
        last_error: String,
    },
    /// Live socket registered with the loop's poller.
    Up(LinkIo),
}

/// Buffers of a live link, mirroring a client connection's discipline:
/// flat read buffer with compaction, coalesced write buffer with a
/// parked-flush position.
struct LinkIo {
    stream: TcpStream,
    rbuf: Vec<u8>,
    start: usize,
    end: usize,
    wbuf: Vec<u8>,
    wpos: usize,
    /// Whether write interest is currently armed with the poller.
    write_armed: bool,
}

/// One shared, multiplexed, pipelined link to a node: every client
/// connection's sub-requests for that node ride this socket, matched
/// back by correlation id.
struct NodeLink {
    state: LinkState,
    /// What each in-flight correlation id is waiting for.
    pending: Correlator<Purpose>,
    /// Epoch the link last declared via a pipelined `Hello`;
    /// `u64::MAX` forces a fresh handshake before the next sub.
    declared_epoch: u64,
    /// Next reconnect delay; doubles per failure, resets on any reply.
    /// The actual wait is uniformly jittered in `[backoff/2, backoff]`
    /// so every event loop's probe of a revived node does not land in
    /// the same instant (anti-thundering-herd).
    backoff: Duration,
    /// Per-link jitter state for the backoff spread.
    jitter: u64,
    /// Frames appended since the last flush, for the coalescing
    /// histogram.
    frames_since_flush: u64,
    /// Set once this loop has seen the node declared dead and killed
    /// the link (see [`RouterBackend::fail_dead_links`]).
    dead_seen: bool,
}

impl NodeLink {
    fn new(now: Instant, seed: u64) -> NodeLink {
        NodeLink {
            state: LinkState::Down {
                retry_at: now,
                last_error: "never connected".to_string(),
            },
            pending: Correlator::new(),
            declared_epoch: u64::MAX,
            backoff: INITIAL_BACKOFF,
            // Deterministic per-link seed: jitter shifts timing only,
            // never data.
            jitter: 0x9e37_79b9_7f4a_7c15u64 ^ seed,
            frames_since_flush: 0,
            dead_seen: false,
        }
    }

    /// Arms the reconnect window after a failure: jittered delay, then
    /// the exponential bump toward [`MAX_BACKOFF`].
    fn arm_backoff(&mut self, now: Instant, detail: String) {
        let delay = jittered(&mut self.jitter, self.backoff);
        self.state = LinkState::Down {
            retry_at: now + delay,
            last_error: detail,
        };
        self.backoff = (self.backoff * 2).min(MAX_BACKOFF);
    }
}

/// Connects to a node with a bounded timeout and readies the socket for
/// the event loop.
fn connect_node(addr: &str) -> io::Result<TcpStream> {
    let mut last = io::Error::new(
        io::ErrorKind::AddrNotAvailable,
        "address resolved to nothing",
    );
    for sa in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&sa, CONNECT_TIMEOUT) {
            Ok(stream) => {
                stream.set_nodelay(true)?;
                stream.set_nonblocking(true)?;
                return Ok(stream);
            }
            Err(e) => last = e,
        }
    }
    Err(last)
}

/// One event loop's share of the router data plane: the shared node
/// links, the fan-out table, the node-deadline wheel, and the completed
/// fan-outs awaiting delivery to their connections.
struct RouterBackend {
    shared: Arc<RouterShared>,
    poller: Arc<Poller>,
    links: Vec<NodeLink>,
    table: FanoutTable,
    wheel: TimerWheel,
    /// Scratch for wheel polls.
    expired: Vec<usize>,
    node_timeout: Duration,
    /// Completed fan-outs per client connection key, delivered at the
    /// next resume pass.
    done: HashMap<usize, Vec<(usize, io::Result<Response>)>>,
    /// Connection keys with pending completions.
    resumable: Vec<usize>,
    /// Set while `Reshard` holds the routing write lock on THIS thread:
    /// the (epoch, owner) snapshot `bounce` must use instead of
    /// re-taking the lock it would deadlock on.
    route_hint: Option<(u64, Vec<u16>)>,
}

impl RouterBackend {
    fn new(shared: Arc<RouterShared>, poller: Arc<Poller>) -> RouterBackend {
        let now = Instant::now();
        let n = shared.nodes.len();
        let node_timeout = shared.node_timeout;
        RouterBackend {
            poller,
            links: (0..n).map(|i| NodeLink::new(now, i as u64)).collect(),
            table: FanoutTable::new(n),
            wheel: TimerWheel::new(POLL, 512, now),
            expired: Vec::new(),
            node_timeout,
            done: HashMap::new(),
            resumable: Vec::new(),
            route_hint: None,
            shared,
        }
    }

    /// Takes the completed fan-outs owed to connection `conn`.
    fn take_done(&mut self, conn: usize) -> Vec<(usize, io::Result<Response>)> {
        self.done.remove(&conn).unwrap_or_default()
    }

    /// Stashes a completion for delivery and disarms its deadline.
    fn push_completion(&mut self, done: Completion) {
        if let Some(timer) = done.timer {
            self.wheel.cancel(timer);
        }
        self.done
            .entry(done.conn)
            .or_default()
            .push((done.fanout, done.result));
        self.resumable.push(done.conn);
    }

    /// Opens a fan-out for client connection `key` and enqueues one
    /// sub-request per touched node. The first node that cannot be
    /// reached fails the whole fan-out with a typed `NODE_UNAVAILABLE`
    /// and no later node is contacted; earlier nodes' subs keep
    /// draining as stragglers, so their ops may have executed — the
    /// error names the lost node for the client to reason about.
    fn begin_fanout(
        &mut self,
        key: usize,
        corr: Option<u64>,
        kind: ReplyKind,
        merge: MergeState,
        plans: Vec<NodePlan>,
        epoch: u64,
    ) -> usize {
        let now = Instant::now();
        let fanout = self.table.begin(key, corr, kind, merge);
        for (node, plan) in plans.iter().enumerate() {
            if !plan.ops.is_empty() {
                self.table.register_sub(fanout, node);
            }
        }
        let mut failed = false;
        for (node, plan) in plans.into_iter().enumerate() {
            if plan.ops.is_empty() {
                continue;
            }
            if failed {
                self.table.discount(fanout, node);
                continue;
            }
            let entry = SubEntry {
                fanout,
                ops: plan.ops,
                items: plan.items,
                retries: 0,
                sent_at: now,
            };
            if let Err((entry, detail)) = self.enqueue_sub(node, epoch, entry, now) {
                failed = true;
                if let Some(done) = self.table.fail_sub(&entry, node, &detail) {
                    self.push_completion(done);
                }
            }
        }
        if self.table.is_live(fanout) && self.table.outstanding(fanout) > 0 {
            let timer = self.wheel.insert(now + self.node_timeout, fanout);
            self.table.set_timer(fanout, timer);
        }
        fanout
    }

    /// Appends one `Tagged(NodeOps)` sub-request to `node`'s shared
    /// write buffer, connecting/handshaking the link first if needed.
    /// On failure the entry comes back with the failure detail so the
    /// caller can fail or retarget it.
    fn enqueue_sub(
        &mut self,
        node: usize,
        epoch: u64,
        mut entry: SubEntry,
        now: Instant,
    ) -> Result<(), (SubEntry, String)> {
        if let Err(detail) = self.ensure_up(node, epoch, now) {
            return Err((entry, detail));
        }
        let link = &mut self.links[node];
        let LinkState::Up(io) = &mut link.state else {
            return Err((entry, "link lost between ensure and use".to_string()));
        };
        let corr = link.pending.next_id();
        let ops = std::mem::take(&mut entry.ops);
        let req = Request::NodeOps(ops);
        let encoded = append_frame_with(&mut io.wbuf, |buf| {
            encode_tagged_request_into(corr, &req, buf)
        });
        let Request::NodeOps(ops) = req else {
            unreachable!("request shape is fixed");
        };
        entry.ops = ops;
        if let Err(e) = encoded {
            return Err((entry, format!("encode: {e}")));
        }
        link.frames_since_flush += 1;
        link.pending.issue(Purpose::Sub(entry));
        self.shared.inflight_subs.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    /// Brings `node`'s link up (one backoff-gated probe shared by every
    /// client) and pipelines a `Hello` whenever its declared epoch is
    /// stale — the socket's FIFO order lands the handshake at the node
    /// ahead of the ops that rely on it.
    fn ensure_up(&mut self, node: usize, epoch: u64, now: Instant) -> Result<(), String> {
        let link = &mut self.links[node];
        if let LinkState::Down {
            retry_at,
            last_error,
        } = &link.state
        {
            if now < *retry_at {
                return Err(format!("reconnect backoff after {last_error}"));
            }
            match connect_node(&self.shared.nodes[node]) {
                Ok(stream) => {
                    if let Err(e) = self
                        .poller
                        .add(&stream, BACKEND_TOKEN | node, Interest::READ)
                    {
                        let detail = format!("register: {e}");
                        link.arm_backoff(now, detail.clone());
                        self.shared.note_strike(node);
                        return Err(detail);
                    }
                    link.state = LinkState::Up(LinkIo {
                        stream,
                        rbuf: vec![0u8; READ_BUF],
                        start: 0,
                        end: 0,
                        wbuf: Vec::with_capacity(16 * 1024),
                        wpos: 0,
                        write_armed: false,
                    });
                    link.declared_epoch = u64::MAX;
                }
                Err(e) => {
                    let detail = format!("connect: {e}");
                    link.arm_backoff(now, detail.clone());
                    self.shared.note_strike(node);
                    return Err(detail);
                }
            }
        }
        let link = &mut self.links[node];
        if link.declared_epoch != epoch {
            let LinkState::Up(io) = &mut link.state else {
                unreachable!("ensured up above");
            };
            let corr = link.pending.next_id();
            let req = Request::Hello {
                version: PROTOCOL_VERSION,
                epoch,
            };
            if let Err(e) = append_frame_with(&mut io.wbuf, |buf| {
                encode_tagged_request_into(corr, &req, buf)
            }) {
                return Err(format!("encode hello: {e}"));
            }
            link.frames_since_flush += 1;
            link.pending.issue(Purpose::Hello);
            link.declared_epoch = epoch;
        }
        Ok(())
    }

    /// Tears `node`'s link down: every in-flight sub on it fails its
    /// fan-out with a typed `NODE_UNAVAILABLE` (the owning client
    /// connections all survive), and the next enqueue past the backoff
    /// window probes a reconnect.
    fn kill_link(&mut self, node: usize, detail: &str, now: Instant) {
        let link = &mut self.links[node];
        if let LinkState::Up(io) = &link.state {
            let _ = self.poller.delete(&io.stream);
        }
        link.arm_backoff(now, detail.to_string());
        self.shared.note_strike(node);
        link.frames_since_flush = 0;
        link.declared_epoch = u64::MAX;
        let drained = link.pending.drain();
        for (_corr, purpose) in drained {
            let Purpose::Sub(entry) = purpose else {
                continue;
            };
            self.shared.inflight_subs.fetch_sub(1, Ordering::SeqCst);
            if let Some(done) = self.table.fail_sub(&entry, node, detail) {
                self.push_completion(done);
            }
        }
    }

    /// Drains `node`'s socket and demultiplexes every complete reply.
    /// A protocol violation (undecodable, untagged, unknown correlation
    /// id) kills the link — typed errors for its fan-outs, never a
    /// wrong answer.
    fn read_link(&mut self, node: usize, now: Instant) {
        let mut frames: Vec<Vec<u8>> = Vec::new();
        let mut death: Option<String> = None;
        {
            let link = &mut self.links[node];
            let LinkState::Up(io) = &mut link.state else {
                return;
            };
            'reads: for _ in 0..LINK_READS_PER_EVENT {
                prepare_read_buffer(&mut io.rbuf, &mut io.start, &mut io.end);
                match io.stream.read(&mut io.rbuf[io.end..]) {
                    Ok(0) => {
                        death = Some("connection closed by node".to_string());
                        break;
                    }
                    Ok(n) => {
                        io.end += n;
                        loop {
                            match buffered_frame_len(&io.rbuf[io.start..io.end]) {
                                Ok(Some(total)) => {
                                    frames.push(io.rbuf[io.start + 4..io.start + total].to_vec());
                                    io.start += total;
                                }
                                Ok(None) => break,
                                Err(e) => {
                                    death = Some(e.to_string());
                                    break 'reads;
                                }
                            }
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => {
                        death = Some(e.to_string());
                        break;
                    }
                }
            }
        }
        // Replies that arrived ahead of a failure are still good.
        for payload in frames {
            if let Err(detail) = self.demux(node, &payload, now) {
                self.kill_link(node, &detail, now);
                return;
            }
        }
        if let Some(detail) = death {
            self.kill_link(node, &format!("read: {detail}"), now);
        }
    }

    /// Routes one tagged reply from `node` back to what its correlation
    /// id was waiting for. `Err` means the link can no longer be
    /// trusted and must die.
    fn demux(&mut self, node: usize, payload: &[u8], now: Instant) -> Result<(), String> {
        let response = Response::decode(payload).map_err(|e| format!("undecodable reply: {e}"))?;
        let Response::Tagged { corr, inner } = response else {
            return Err(format!(
                "untagged reply on a multiplexed link: {response:?}"
            ));
        };
        let Some(purpose) = self.links[node].pending.complete(corr) else {
            return Err(format!("unknown or duplicate correlation id {corr}"));
        };
        // The node is alive and speaking protocol; future reconnects
        // start from the shortest backoff again and its strikes clear.
        self.links[node].backoff = INITIAL_BACKOFF;
        self.shared.health[node].strikes.store(0, Ordering::Relaxed);
        match purpose {
            Purpose::Hello => match *inner {
                Response::HelloOk(_) => Ok(()),
                other => Err(format!("handshake failed: {other:?}")),
            },
            Purpose::Sub(entry) => {
                self.shared.inflight_subs.fetch_sub(1, Ordering::SeqCst);
                match *inner {
                    Response::BatchOk(replies) => {
                        let rtt = entry.sent_at.elapsed();
                        self.shared.rt.fanout[node].record_duration(rtt);
                        self.shared.note_ok(node, rtt);
                        if let Some(done) = self.table.absorb(&entry, node, replies) {
                            self.push_completion(done);
                        }
                        Ok(())
                    }
                    Response::WrongEpoch { epoch: current } => {
                        self.bounce(node, entry, current, now);
                        Ok(())
                    }
                    Response::Error { code, message } => {
                        let err = io::Error::other(format!("node {node} error {code}: {message}"));
                        if let Some(done) = self.table.fatal_sub(&entry, node, err) {
                            self.push_completion(done);
                        }
                        Ok(())
                    }
                    other => {
                        let err =
                            io::Error::other(format!("node {node}: unexpected response {other:?}"));
                        if let Some(done) = self.table.fatal_sub(&entry, node, err) {
                            self.push_completion(done);
                        }
                        Ok(())
                    }
                }
            }
        }
    }

    /// Handles a `WrongEpoch` redirect on a sub-request: re-splits its
    /// ops by the CURRENT owner map and re-enqueues them (the reshard
    /// that bounced us may have moved any of these shards anywhere), at
    /// most [`EPOCH_RETRIES`] times. The node executed nothing on the
    /// stale epoch, so the retry is always safe.
    fn bounce(&mut self, node: usize, mut entry: SubEntry, current: u64, now: Instant) {
        self.shared.rt.wrong_epoch_retries.inc();
        let (epoch, owner) = match &self.route_hint {
            Some((e, o)) => (*e, o.clone()),
            None => {
                let route = self.shared.route.read().expect("route lock");
                (route.epoch, route.owner.clone())
            }
        };
        if current > epoch {
            let err = io::Error::other(format!(
                "node {node} is at epoch {current}, ahead of the router's {epoch}"
            ));
            if let Some(done) = self.table.fatal_sub(&entry, node, err) {
                self.push_completion(done);
            }
            return;
        }
        entry.retries += 1;
        if entry.retries > EPOCH_RETRIES {
            let err = io::Error::other(format!(
                "node {node} kept redirecting after {EPOCH_RETRIES} epoch handshakes"
            ));
            if let Some(done) = self.table.fatal_sub(&entry, node, err) {
                self.push_completion(done);
            }
            return;
        }
        if !self.table.is_live(entry.fanout) {
            self.table.discount(entry.fanout, node);
            return;
        }
        // The link's handshake went stale; the next enqueue pipelines a
        // fresh Hello ahead of the re-sent ops.
        self.links[node].declared_epoch = u64::MAX;
        let SubEntry {
            fanout,
            ops,
            items,
            retries,
            sent_at,
        } = entry;
        let mut groups: BTreeMap<usize, (Vec<NodeOp>, Vec<usize>)> = BTreeMap::new();
        for (op, item) in ops.into_iter().zip(items) {
            let to = owner[op.shard as usize] as usize;
            let group = groups.entry(to).or_default();
            group.0.push(op);
            group.1.push(item);
        }
        let to_nodes: Vec<usize> = groups.keys().copied().collect();
        self.table.retarget(fanout, node, &to_nodes);
        for (to_node, (ops, items)) in groups {
            if !self.table.is_live(fanout) {
                self.table.discount(fanout, to_node);
                continue;
            }
            let sub = SubEntry {
                fanout,
                ops,
                items,
                retries,
                sent_at,
            };
            if let Err((sub, detail)) = self.enqueue_sub(to_node, epoch, sub, now) {
                if let Some(done) = self.table.fail_sub(&sub, to_node, &detail) {
                    self.push_completion(done);
                }
            }
        }
    }

    /// Ships `node`'s coalesced write buffer as far as the socket
    /// allows; a partial write parks the rest under write interest.
    fn flush_link(&mut self, node: usize, now: Instant) {
        let mut died: Option<String> = None;
        {
            let link = &mut self.links[node];
            let LinkState::Up(io) = &mut link.state else {
                return;
            };
            if link.frames_since_flush > 0 {
                self.shared
                    .rt
                    .mux_frames_per_flush
                    .record(link.frames_since_flush);
                link.frames_since_flush = 0;
            }
            while io.wpos < io.wbuf.len() {
                match io.stream.write(&io.wbuf[io.wpos..]) {
                    Ok(0) => {
                        died = Some("write returned zero".to_string());
                        break;
                    }
                    Ok(n) => io.wpos += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => {
                        died = Some(e.to_string());
                        break;
                    }
                }
            }
            if died.is_none() {
                if io.wpos > 0 && io.wpos == io.wbuf.len() {
                    io.wbuf.clear();
                    io.wpos = 0;
                }
                let want_write = io.wpos < io.wbuf.len();
                if want_write != io.write_armed {
                    let interest = Interest {
                        readable: true,
                        writable: want_write,
                    };
                    if self
                        .poller
                        .modify(&io.stream, BACKEND_TOKEN | node, interest)
                        .is_ok()
                    {
                        io.write_armed = want_write;
                    }
                }
            }
        }
        if let Some(detail) = died {
            self.kill_link(node, &format!("write: {detail}"), now);
        }
    }

    /// Fires node deadlines: a fan-out past `node_timeout` completes
    /// with a typed error naming the silent nodes, whose links die (one
    /// probe will cover every client when they come back).
    fn fire_deadlines(&mut self, now: Instant) {
        let mut expired = std::mem::take(&mut self.expired);
        expired.clear();
        self.wheel.poll(now, &mut expired);
        for fanout in expired.drain(..) {
            if let Some((done, owing)) = self.table.on_deadline(fanout, self.node_timeout) {
                self.push_completion(done);
                let detail = format!("no reply within {:?}", self.node_timeout);
                for node in owing {
                    self.kill_link(node, &detail, now);
                }
            }
        }
        self.expired = expired;
    }

    /// Kills, once, this loop's link to each node the failure detector
    /// declared dead: the fan-outs the link owes complete as a typed
    /// `NODE_UNAVAILABLE` at the failover, so their clients retry
    /// against the promoted shards instead of waiting out the node
    /// timeout.
    fn fail_dead_links(&mut self, now: Instant) {
        for node in 0..self.links.len() {
            if self.links[node].dead_seen || !self.shared.is_down(node) {
                continue;
            }
            self.links[node].dead_seen = true;
            if matches!(self.links[node].state, LinkState::Up(_)) {
                self.kill_link(node, "declared dead by the failure detector", now);
            }
        }
    }

    /// Drains every in-flight sub-request before a reshard moves a
    /// shard, pumping this loop's own links inline (the routing write
    /// lock is already held, which is also why `route_hint` carries the
    /// map: re-taking the lock here would deadlock). Other event loops
    /// keep draining on their own threads — the shared counter covers
    /// the whole process. Bounded at 2× the node timeout: past that,
    /// every fan-out on a wedged node has failed typed anyway.
    fn quiesce(&mut self, epoch: u64, owner: &[u16]) {
        let deadline = Instant::now() + self.node_timeout * 2;
        self.route_hint = Some((epoch, owner.to_vec()));
        while self.shared.inflight_subs.load(Ordering::SeqCst) > 0 {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            for node in 0..self.links.len() {
                self.flush_link(node, now);
                self.read_link(node, now);
            }
            self.fire_deadlines(now);
            if self.shared.inflight_subs.load(Ordering::SeqCst) == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        self.route_hint = None;
    }
}

impl LoopBackend for RouterBackend {
    fn as_any(&mut self) -> &mut dyn Any {
        self
    }

    fn on_event(&mut self, token: usize, now: Instant) {
        if token >= self.links.len() {
            return;
        }
        self.flush_link(token, now);
        self.read_link(token, now);
    }

    fn tick(&mut self, now: Instant) {
        self.fire_deadlines(now);
        self.fail_dead_links(now);
    }

    fn take_resumable(&mut self) -> Vec<usize> {
        std::mem::take(&mut self.resumable)
    }

    fn flush(&mut self, now: Instant) {
        for node in 0..self.links.len() {
            self.flush_link(node, now);
        }
        let mut inflight = 0u64;
        for (node, link) in self.links.iter().enumerate() {
            let depth = link.pending.in_flight() as u64;
            self.shared.rt.node_queue[node].set(depth);
            inflight += depth;
        }
        if inflight > 0 {
            self.shared.rt.node_inflight.record(inflight);
        }
    }

    fn conn_closed(&mut self, key: usize) {
        self.done.remove(&key);
        for timer in self.table.conn_closed(key) {
            self.wheel.cancel(timer);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A router over `nodes` nodes with no socket behind it, and the
    /// route a coordinator runs over: shard `s` at node `owner[s]`,
    /// epoch `epoch`.
    fn router(nodes: usize, owner: &[u16], epoch: u64) -> (RouterShared, Route) {
        let telemetry = Arc::new(Telemetry::new());
        let shared = RouterShared {
            map: PartitionerKind::RoundRobin.build(owner.len(), 16),
            catalog: ObjectCatalog::from_sizes(&[100; 16]),
            nodes: (0..nodes).map(|n| format!("node{n}.invalid:1")).collect(),
            route: RwLock::new(Route {
                epoch,
                owner: owner.to_vec(),
            }),
            shutdown: Arc::new(AtomicBool::new(false)),
            frontend: None,
            rt: RouterTelemetry::register(&telemetry, nodes),
            wire: WireTelemetry::register(&telemetry),
            telemetry,
            front: FrontDoor::default(),
            stall_limit: Duration::from_secs(1),
            node_timeout: Duration::from_millis(100),
            inflight_subs: AtomicUsize::new(0),
            health: (0..nodes).map(|_| NodeHealth::default()).collect(),
        };
        let route = Route {
            epoch,
            owner: owner.to_vec(),
        };
        (shared, route)
    }

    /// A node that cannot be reached.
    fn down(node: usize) -> Result<Response, NodeDown> {
        Err(NodeDown {
            node,
            detail: "scripted".to_string(),
        })
    }

    /// What a healthy node answers each reshard step.
    fn healthy(request: &Request) -> Result<Response, NodeDown> {
        Ok(match request {
            Request::DetachShard { shard } => Response::ShardState {
                shard: *shard,
                state: b"engine blob".to_vec(),
            },
            Request::ReplicaBootstrap { shard, .. } => Response::ReplicaOk {
                shard: *shard,
                offset: 9,
            },
            Request::Promote { shard, .. } => Response::PromoteOk {
                shard: *shard,
                offset: 9,
            },
            Request::SetEpoch { epoch } => Response::EpochOk { epoch: *epoch },
            other => panic!("no scripted answer to {other:?}"),
        })
    }

    /// A scripted admin call: logs every `(node, request)` and answers
    /// with `answer`.
    fn scripted<'a>(
        log: &'a mut Vec<(usize, Request)>,
        mut answer: impl FnMut(usize, &Request) -> Result<Response, NodeDown> + 'a,
    ) -> impl FnMut(usize, &Request) -> Result<Response, NodeDown> + 'a {
        move |node, request| {
            log.push((node, request.clone()));
            answer(node, request)
        }
    }

    fn reshard_error(response: Response) -> String {
        match response {
            Response::Error { code, message } => {
                assert_eq!(code, error_code::RESHARD_FAILED, "{message}");
                message
            }
            other => panic!("expected a reshard failure, got {other:?}"),
        }
    }

    /// The detached state on its way to the new owner.
    fn bootstrap(shard: u16) -> Request {
        Request::ReplicaBootstrap {
            shard,
            state: b"engine blob".to_vec(),
        }
    }

    /// The promote a move and its rollback send: no fence.
    fn promote(shard: u16) -> Request {
        Request::Promote {
            shard,
            fence: false,
        }
    }

    #[test]
    fn reshard_refuses_out_of_range_shard_and_node_without_a_call() {
        let (shared, mut route) = router(2, &[0, 1, 0, 1], 0);
        let mut log = Vec::new();
        let message = reshard_error(do_reshard(
            &shared,
            &mut route,
            4,
            0,
            scripted(&mut log, |_, r| healthy(r)),
        ));
        assert_eq!(message, "shard 4 out of range 0..4");
        let message = reshard_error(do_reshard(
            &shared,
            &mut route,
            0,
            2,
            scripted(&mut log, |_, r| healthy(r)),
        ));
        assert_eq!(message, "node 2 out of range 0..2");
        assert!(log.is_empty(), "{log:?}");
    }

    #[test]
    fn reshard_to_the_current_owner_makes_no_call() {
        let (shared, mut route) = router(2, &[0, 1, 0, 1], 5);
        let mut log = Vec::new();
        let response = do_reshard(
            &shared,
            &mut route,
            1,
            1,
            scripted(&mut log, |_, r| healthy(r)),
        );
        assert_eq!(response, Response::ReshardOk { epoch: 5 });
        assert!(log.is_empty(), "{log:?}");
        assert_eq!((route.epoch, route.owner), (5, vec![0, 1, 0, 1]));
    }

    #[test]
    fn reshard_runs_detach_bootstrap_promote_and_epoch_bump_in_order() {
        let (shared, mut route) = router(3, &[0, 1, 2, 0], 2);
        let mut log = Vec::new();
        let response = do_reshard(
            &shared,
            &mut route,
            3,
            2,
            scripted(&mut log, |_, r| healthy(r)),
        );
        assert_eq!(response, Response::ReshardOk { epoch: 3 });
        assert_eq!(
            log,
            vec![
                (0, Request::DetachShard { shard: 3 }),
                (2, bootstrap(3)),
                (2, promote(3)),
                (0, Request::SetEpoch { epoch: 3 }),
                (1, Request::SetEpoch { epoch: 3 }),
                (2, Request::SetEpoch { epoch: 3 }),
            ]
        );
        assert_eq!((route.epoch, route.owner), (3, vec![0, 1, 2, 2]));
        assert_eq!(shared.telemetry.gauge("router.epoch").get(), 3);
    }

    /// A detach the old owner never got (it could not be reached)
    /// moves nothing.
    #[test]
    fn reshard_whose_detach_fails_moves_nothing() {
        let (shared, mut route) = router(2, &[0, 1], 0);
        let mut log = Vec::new();
        let message = reshard_error(do_reshard(
            &shared,
            &mut route,
            0,
            1,
            scripted(&mut log, |node, _| down(node)),
        ));
        assert_eq!(message, "detach at node 0: node 0 unavailable: scripted");
        assert_eq!(log, vec![(0, Request::DetachShard { shard: 0 })]);
        assert_eq!((route.epoch, route.owner), (0, vec![0, 1]));
    }

    #[test]
    fn reshard_whose_bootstrap_fails_rolls_the_shard_back() {
        let (shared, mut route) = router(2, &[0, 1], 4);
        let mut log = Vec::new();
        let message = reshard_error(do_reshard(
            &shared,
            &mut route,
            0,
            1,
            scripted(&mut log, |node, r| match (node, r) {
                (1, Request::ReplicaBootstrap { .. }) => down(1),
                _ => healthy(r),
            }),
        ));
        assert!(
            message.starts_with("bootstrap at node 1 failed (")
                && message.ends_with("); shard 0 restored at node 0"),
            "{message}"
        );
        assert_eq!(
            log,
            vec![
                (0, Request::DetachShard { shard: 0 }),
                (1, bootstrap(0)),
                (0, promote(0)),
            ]
        );
        assert_eq!((route.epoch, route.owner), (4, vec![0, 1]));
    }

    /// A promote the new owner refuses (here: typed, as a node that is
    /// not the shard's backup answers) rolls back the same way.
    #[test]
    fn reshard_whose_promote_fails_rolls_the_shard_back() {
        let (shared, mut route) = router(2, &[1, 1], 0);
        let mut log = Vec::new();
        let message = reshard_error(do_reshard(
            &shared,
            &mut route,
            0,
            0,
            scripted(&mut log, |node, r| match (node, r) {
                (0, Request::Promote { .. }) => Ok(Response::Error {
                    code: error_code::NOT_REPLICA,
                    message: "scripted".to_string(),
                }),
                _ => healthy(r),
            }),
        ));
        assert!(
            message.starts_with("promote at node 0 failed (")
                && message.ends_with("); shard 0 restored at node 1"),
            "{message}"
        );
        assert_eq!(
            log,
            vec![
                (1, Request::DetachShard { shard: 0 }),
                (0, bootstrap(0)),
                (0, promote(0)),
                (1, promote(0)),
            ]
        );
        assert_eq!((route.epoch, route.owner), (0, vec![1, 1]));
    }

    /// A rollback that fails too leaves the state where it is, held at
    /// the old owner: the error names that node and the verb that serves
    /// the shard there again, and the router writes nothing to disk.
    #[test]
    fn reshard_whose_rollback_fails_names_the_node_and_writes_no_file() {
        // An epoch no other run uses, so the file name this run would
        // once have spilled to is this test's.
        let epoch = 1_000_000 + u64::from(std::process::id());
        let spill = std::env::temp_dir().join(format!("delta-orphan-shard-1-epoch{epoch}.jsonl"));
        let (shared, mut route) = router(2, &[0, 1], epoch);
        let mut log = Vec::new();
        let message = reshard_error(do_reshard(
            &shared,
            &mut route,
            1,
            0,
            scripted(&mut log, |node, r| match r {
                Request::ReplicaBootstrap { .. } | Request::Promote { .. } => down(node),
                _ => healthy(r),
            }),
        ));
        assert!(
            message.starts_with("bootstrap at node 0 failed ("),
            "{message}"
        );
        assert!(
            message.ends_with(
                "ROLLBACK FAILED (Err(NodeDown { node: 1, detail: \"scripted\" })) — shard 1 \
                 is OFFLINE; node 1 holds it, and a Promote of shard 1 there serves it again"
            ),
            "{message}"
        );
        assert_eq!(
            log,
            vec![
                (1, Request::DetachShard { shard: 1 }),
                (0, bootstrap(1)),
                (1, promote(1)),
            ]
        );
        assert!(!spill.exists(), "the router must not spill the state");
        assert_eq!((route.epoch, route.owner), (epoch, vec![0, 1]));
    }

    #[test]
    fn reshard_whose_epoch_bump_fails_keeps_the_old_map() {
        let (shared, mut route) = router(2, &[0, 1], 0);
        let mut log = Vec::new();
        let message = reshard_error(do_reshard(
            &shared,
            &mut route,
            0,
            1,
            scripted(&mut log, |node, r| match (node, r) {
                (1, Request::SetEpoch { .. }) => down(1),
                _ => healthy(r),
            }),
        ));
        assert!(
            message.starts_with("SetEpoch(1) at node 1 failed ("),
            "{message}"
        );
        assert_eq!(log.len(), 5, "{log:?}");
        assert_eq!((route.epoch, route.owner), (0, vec![0, 1]));
    }

    /// Failover answers: each node's `ReplicaStatus` from `backups`,
    /// every `Promote` at its current offset, every `SetEpoch` adopted.
    fn survivor(
        backups: &[Vec<(u16, u64)>],
        node: usize,
        request: &Request,
    ) -> Result<Response, NodeDown> {
        Ok(match request {
            Request::ReplicaStatus => Response::ReplicaStatusOk(backups[node].clone()),
            Request::Promote { shard, .. } => Response::PromoteOk {
                shard: *shard,
                offset: backups[node]
                    .iter()
                    .find(|(s, _)| s == shard)
                    .expect("promoted where a backup lives")
                    .1,
            },
            Request::SetEpoch { epoch } => Response::EpochOk { epoch: *epoch },
            other => panic!("no scripted answer to {other:?}"),
        })
    }

    #[test]
    fn failover_promotes_the_most_caught_up_holder() {
        // Node 2 dies holding shards 2 and 3. Node 0, asked first,
        // holds the staler backup of shard 2.
        let (shared, mut route) = router(3, &[0, 1, 2, 2], 7);
        let backups = [vec![(2, 5), (3, 9)], vec![(2, 8)], vec![]];
        let mut log = Vec::new();
        do_failover(
            &shared,
            &mut route,
            2,
            scripted(&mut log, |node, r| survivor(&backups, node, r)),
        );
        assert_eq!(
            log,
            vec![
                (0, Request::ReplicaStatus),
                (1, Request::ReplicaStatus),
                (
                    1,
                    Request::Promote {
                        shard: 2,
                        fence: true
                    }
                ),
                (
                    0,
                    Request::Promote {
                        shard: 3,
                        fence: true
                    }
                ),
                (0, Request::SetEpoch { epoch: 8 }),
                (1, Request::SetEpoch { epoch: 8 }),
            ],
            "SetEpoch goes to the survivors only"
        );
        assert_eq!((route.epoch, route.owner), (8, vec![0, 1, 1, 0]));
        assert!(shared.is_down(2));
        let t = shared.telemetry.snapshot();
        assert_eq!(t.counter("router.promotions"), 2);
        assert_eq!(t.counter("router.failovers"), 1);
    }

    #[test]
    fn failover_with_no_holder_sends_no_epoch_bump() {
        let (shared, mut route) = router(2, &[0, 1], 3);
        let backups = [vec![], vec![]];
        let mut log = Vec::new();
        do_failover(
            &shared,
            &mut route,
            1,
            scripted(&mut log, |node, r| survivor(&backups, node, r)),
        );
        assert_eq!(log, vec![(0, Request::ReplicaStatus)]);
        assert_eq!((route.epoch, route.owner), (3, vec![0, 1]));
        assert!(shared.is_down(1));
        assert_eq!(shared.telemetry.snapshot().counter("router.promotions"), 0);
    }

    #[test]
    fn failover_skips_an_unreachable_survivor() {
        // Node 1 would hold the better backup, but cannot be reached:
        // it contributes nothing, and node 0's copy is promoted.
        let (shared, mut route) = router(3, &[0, 1, 2], 0);
        let backups = [vec![(2, 4)], vec![(2, 9)], vec![]];
        let mut log = Vec::new();
        do_failover(
            &shared,
            &mut route,
            2,
            scripted(&mut log, |node, r| match (node, r) {
                (1, Request::ReplicaStatus) => down(1),
                _ => survivor(&backups, node, r),
            }),
        );
        assert_eq!(
            log,
            vec![
                (0, Request::ReplicaStatus),
                (1, Request::ReplicaStatus),
                (
                    0,
                    Request::Promote {
                        shard: 2,
                        fence: true
                    }
                ),
                (0, Request::SetEpoch { epoch: 1 }),
                (1, Request::SetEpoch { epoch: 1 }),
            ]
        );
        assert_eq!((route.epoch, route.owner), (1, vec![0, 1, 0]));
    }

    /// What a fake node on a socket answers: survivor `0` of a failover
    /// holds a backup of shard 1, and a reshard step is [`healthy`].
    fn fake_answer(request: &Request) -> Response {
        match request {
            Request::ReplicaStatus => Response::ReplicaStatusOk(vec![(1, 42)]),
            Request::Promote { shard, .. } => Response::PromoteOk {
                shard: *shard,
                offset: 42,
            },
            Request::Stats => Response::StatsOk(StatsSnapshot { shards: vec![] }),
            Request::Hello { epoch, .. } => Response::HelloOk(NodeInfo {
                role: NodeRole::ClusterNode,
                node: 0,
                nodes: 1,
                epoch: *epoch,
                cluster_shards: 1,
                partitioner: PartitionerKind::RoundRobin.to_string(),
                catalog_objects: 16,
                catalog_bytes: 1_600,
                hosted: vec![0],
            }),
            other => healthy(other).expect("scripted"),
        }
    }

    /// A node on a loopback socket that serves `calls` admin
    /// connections, one frame each, with [`fake_answer`] — a frame for
    /// which `late` holds only after three node timeouts, like a node
    /// that was stopped and resumed. Returns its address.
    fn fake_node(calls: usize, late: fn(&Request) -> bool) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr").to_string();
        std::thread::spawn(move || {
            for stream in listener.incoming().take(calls) {
                let mut stream = stream.expect("accept");
                let mut payload = Vec::new();
                read_frame_into(&mut stream, &mut payload).expect("one frame");
                let request = Request::decode(&payload).expect("a request");
                if late(&request) {
                    std::thread::sleep(Duration::from_millis(300));
                }
                let mut wire = Vec::new();
                append_frame_with(&mut wire, |buf| fake_answer(&request).encode_into(buf))
                    .expect("encode");
                // The caller may have given up on this reply.
                let _ = stream.write_all(&wire);
            }
        });
        addr
    }

    #[test]
    fn a_late_stats_reply_is_given_up_on_and_strikes_the_node() {
        let (mut shared, _) = router(1, &[0], 0);
        shared.nodes = vec![fake_node(1, |r| matches!(r, Request::Stats))];
        let started = Instant::now();
        let reply = admin_call(&shared, 0, &Request::Stats);
        assert!(reply.is_err(), "{reply:?}");
        assert!(started.elapsed() < Duration::from_millis(250));
        assert_eq!(shared.health[0].strikes.load(Ordering::Relaxed), 1);
    }

    /// The failure detector's probe needs an answer in time: a node that
    /// answers `Hello` passes it, and one that answers late or never —
    /// like a stopped process, whose kernel still accepts the
    /// connection — fails it within the node timeout.
    #[test]
    fn a_probe_needs_a_hello_answer_within_the_node_timeout() {
        let (mut shared, _) = router(3, &[0], 0);
        // Bound but never accepted: the handshake completes all the same.
        let silent = TcpListener::bind("127.0.0.1:0").expect("bind");
        shared.nodes = vec![
            fake_node(1, |_| false),
            fake_node(1, |r| matches!(r, Request::Hello { .. })),
            silent.local_addr().expect("local addr").to_string(),
        ];
        assert!(probe(&shared, 0), "a node that answers is alive");
        for node in [1, 2] {
            let started = Instant::now();
            assert!(!probe(&shared, node), "node {node} did not answer in time");
            assert!(started.elapsed() < Duration::from_millis(250));
        }
    }

    /// A fan-out in flight to a node the failure detector declares dead
    /// fails typed on the loop's next tick, not at its deadline: here
    /// the node accepts (its kernel completes the handshake) and never
    /// answers, and the deadline is a minute away.
    #[test]
    fn a_tick_fails_the_fan_outs_a_dead_nodes_link_owes() {
        let (mut shared, _) = router(1, &[0], 0);
        let silent = TcpListener::bind("127.0.0.1:0").expect("bind");
        shared.nodes = vec![silent.local_addr().expect("local addr").to_string()];
        shared.node_timeout = Duration::from_secs(60);
        let shared = Arc::new(shared);
        let poller = Arc::new(Poller::new().expect("poller"));
        let mut backend = RouterBackend::new(Arc::clone(&shared), poller);
        let update = BatchItem::Update(delta_workload::UpdateEvent {
            seq: 1,
            object: delta_storage::ObjectId(0),
            bytes: 1,
        });
        let mut merge = MergeState::new(1);
        let mut plan = NodePlan::default();
        split_items(
            &*shared.map,
            &shared.catalog,
            vec![update],
            &mut merge,
            |s, i, sub| {
                plan.ops.push(NodeOp {
                    shard: s as u16,
                    item: sub,
                });
                plan.items.push(i);
            },
        );
        backend.begin_fanout(7, None, ReplyKind::Single, merge, vec![plan], 0);
        backend.tick(Instant::now());
        assert!(
            backend.take_done(7).is_empty(),
            "a live node's fan-out waits"
        );

        shared.health[0].down.store(true, Ordering::SeqCst);
        backend.tick(Instant::now());
        match backend.take_done(7).as_slice() {
            [(_, Ok(Response::Error { code, message }))] => {
                assert_eq!(*code, error_code::NODE_UNAVAILABLE, "{message}")
            }
            other => panic!("the dead node's fan-out: {other:?}"),
        }
    }

    /// The detach reply is the router's only word that the old owner
    /// stopped serving the shard: a reply that comes after the node
    /// timeout is still taken, and the shard moves.
    #[test]
    fn a_detach_answered_after_the_node_timeout_still_moves_the_shard() {
        let (mut shared, mut route) = router(2, &[0, 1], 0);
        shared.nodes = vec![
            fake_node(2, |r| matches!(r, Request::DetachShard { .. })),
            fake_node(3, |_| false),
        ];
        let response = do_reshard(&shared, &mut route, 0, 1, |node, request| {
            admin_call(&shared, node, request)
        });
        assert_eq!(response, Response::ReshardOk { epoch: 1 });
        assert_eq!((route.epoch, route.owner), (1, vec![1, 1]));
    }

    /// A node that promoted its backup serves the shard: a promote reply
    /// that comes after the node timeout still routes the shard there.
    #[test]
    fn a_promote_answered_after_the_node_timeout_still_routes_the_shard() {
        let (mut shared, mut route) = router(2, &[0, 1], 3);
        shared.nodes[0] = fake_node(3, |r| matches!(r, Request::Promote { .. }));
        do_failover(&shared, &mut route, 1, |node, request| {
            admin_call(&shared, node, request)
        });
        assert_eq!((route.epoch, route.owner), (4, vec![0, 0]));
        assert_eq!(shared.telemetry.snapshot().counter("router.promotions"), 1);
    }
}
