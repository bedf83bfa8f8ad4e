//! The TCP service: listener, per-connection framing, inline shard
//! execution, cluster-node duties and graceful shutdown.
//!
//! Each accepted connection gets a thread that decodes request frames
//! and executes them directly against the lock-protected
//! [`crate::shard::ShardCore`]s (per-shard mutexes serialize per-shard
//! event order; different connections proceed in parallel on different
//! shards), so each connection sees strictly ordered request/response
//! pairs with no per-event thread handoff. Wire bytes are recorded on a
//! shared [`delta_net::TrafficMeter`] (query frames as `QueryShip`,
//! update frames as `UpdateShip`, the rest as `Control`), so an operator
//! can audit protocol overhead separately from the policy-level ledgers.
//!
//! On the reactor front a replicating node never waits on the loop: a
//! reply whose events must first reach the backups is parked on the
//! connection ([`crate::parked`]) and released by the acknowledgement.
//!
//! ## Standalone vs cluster node
//!
//! A standalone server hosts **every** shard of its partitioner and
//! ignores routing epochs. Started with [`ServerConfig::cluster`], the
//! same process becomes one node of a routed cluster instead: it hosts a
//! *subset* of the global shards in per-slot `RwLock`s (so shards can be
//! attached and detached at runtime), executes the pre-split
//! [`Request::NodeOps`] frames the router sends, and fences every
//! event-carrying request behind the **routing epoch**: a connection
//! whose declared epoch (from its [`Request::Hello`] handshake) is stale
//! gets a typed [`Response::WrongEpoch`] and *nothing executes* — a
//! client holding an outdated shard→node map can be redirected, never
//! silently given a wrong answer.

use crate::client::DeltaClient;
use crate::config::FrontDoor;
use crate::config::ServerConfig;
use crate::connection::{serve_frames, FrameHandler, LoopBackend, WireTelemetry, POLL};
use crate::front::{BackendFactory, FrameFactory, ReactorFront, ReactorTelemetry, BACKEND_TOKEN};
use crate::parked::{write_reply, AckBackend, ParkTelemetry, ReplyQueue, Wait, ACK_PIPE_TOKEN};
use crate::partition::{apportion, Partitioner};
use crate::protocol::{
    error_code, BatchItem, BatchReply, NodeInfo, NodeOp, NodeRole, Request, Response, ShardStats,
    SqlStage, StatsSnapshot, PROTOCOL_VERSION,
};
use crate::replication::{jittered, Notifier, ReplState, SettleWaker, TargetStatus, REPL_WAIT_MAX};
use crate::shard::{OpClass, OpOutcome, ShardCore, ShardOp, ShardSpec, ShardTelemetry};
use delta_core::engine::{read_snapshot, snapshot_from_str, snapshot_to_string};
use delta_core::EngineSnapshot;
use delta_net::{TrafficClass, TrafficMeter};
use delta_query::{QueryCompiler, QueryError, Schema};
use delta_reactor::{Interest, Poller};
use delta_storage::{ObjectCatalog, ObjectId};
use delta_telemetry::{Telemetry, TelemetrySnapshot};
use delta_workload::QueryEvent;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard};
use std::time::{Duration, Instant};

/// A running delta-server instance.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: std::thread::JoinHandle<StatsSnapshot>,
    meter: Arc<TrafficMeter>,
    telemetry: Arc<Telemetry>,
}

impl Server {
    /// Binds and starts serving `catalog` with `config`. Returns once the
    /// listener is live; serving happens on background threads.
    pub fn start(config: ServerConfig, catalog: ObjectCatalog) -> io::Result<Server> {
        config
            .validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        if config.n_shards > catalog.len() {
            // A shard with an empty sub-catalog cannot host a repository
            // slice; refuse cleanly instead of panicking mid-start.
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "{} shards but only {} catalog objects",
                    config.n_shards,
                    catalog.len()
                ),
            ));
        }
        // Build the SQL frontend before binding: a frontend whose spatial
        // partition disagrees with the served catalog would compile
        // queries against the wrong object mapping.
        let frontend = match &config.frontend {
            None => None,
            Some(wcfg) => {
                let mapper = wcfg.spatial_mapper();
                if mapper.partition().len() != catalog.len() {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!(
                            "frontend partition has {} leaves but the catalog has {} objects; \
                             serve the catalog the frontend preset generates",
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

        let map = config.partitioner.build(config.n_shards, catalog.len());
        for s in 0..config.n_shards {
            if map.shard_len(s) == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "partitioner {} leaves shard {s} without catalog objects; \
                         use fewer shards",
                        config.partitioner
                    ),
                ));
            }
        }
        let weights: Vec<u64> = (0..config.n_shards)
            .map(|s| map.shard_catalog(s, &catalog).total_bytes())
            .collect();
        let caches = apportion(config.cache_bytes, &weights);

        let hosted: Vec<u16> = match &config.cluster {
            Some(c) => c.hosted.clone(),
            None => (0..config.n_shards as u16).collect(),
        };

        let listener = TcpListener::bind(&config.bind)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        // Warm restart: read and validate any per-shard snapshots before
        // spawning anything, so a bad snapshot refuses startup cleanly
        // instead of panicking a worker thread.
        let mut restores: Vec<Option<EngineSnapshot>> = Vec::new();
        restores.resize_with(config.n_shards, || None);
        if let Some(dir) = &config.snapshot_dir {
            std::fs::create_dir_all(dir)?;
            // Sweep debris from interrupted atomic writes: snapshots are
            // written as `*.tmp` then renamed into place, so a crash
            // between the two leaves a stale temp file that must not
            // outlive the restart (it would shadow disk space and could
            // confuse directory-scanning tooling, never the server).
            for entry in std::fs::read_dir(dir)? {
                let path = entry?.path();
                if path.extension().is_some_and(|e| e == "tmp") {
                    let _ = std::fs::remove_file(&path);
                }
            }
            for &s in &hosted {
                let s = s as usize;
                let sub = map.shard_catalog(s, &catalog);
                let path = dir.join(format!("shard-{s}.jsonl"));
                if path.exists() {
                    let snap = read_snapshot(&path)?;
                    validate_restore(&snap, &sub, &config, caches[s], s).map_err(|msg| {
                        io::Error::new(
                            io::ErrorKind::InvalidInput,
                            format!("snapshot {}: {msg}", path.display()),
                        )
                    })?;
                    restores[s] = Some(snap);
                }
            }
        }

        let telemetry = Arc::new(Telemetry::new());
        // Replication runtime: one notifier shared by every pump thread,
        // one applied-event log per hosted primary (below). `None` when
        // `--replicas 0` — the log append and reply parking both vanish
        // from the hot path.
        let repl = match &config.replication {
            Some(r) if r.replicas > 0 => Some(ReplRuntime {
                replicas: r.replicas,
                peers: r.peers.clone(),
                notifier: Arc::new(Notifier::new()),
            }),
            _ => None,
        };
        let mut slots: Vec<RwLock<Option<ShardCore>>> = Vec::with_capacity(config.n_shards);
        slots.resize_with(config.n_shards, || RwLock::new(None));
        for &s in &hosted {
            let s = s as usize;
            let mut core = ShardCore::new(ShardSpec {
                shard: s as u16,
                catalog: map.shard_catalog(s, &catalog),
                cache_bytes: caches[s],
                policy: config.policy,
                seed: config.seed + s as u64,
                restore: restores[s].take(),
                snapshot_path: config
                    .snapshot_dir
                    .as_ref()
                    .map(|dir| dir.join(format!("shard-{s}.jsonl"))),
                telemetry: ShardTelemetry::register(&telemetry),
            });
            if let Some(rt) = &repl {
                // A warm-restored primary starts its log at the restored
                // event count: earlier history is not replayable, so
                // targets bootstrap from a snapshot instead of the log.
                core.set_repl(Arc::new(ReplState::new(
                    s as u16,
                    core.events(),
                    rt.replicas as usize,
                    Arc::clone(&rt.notifier),
                )));
            }
            *slots[s].write().expect("fresh slot") = Some(core);
        }
        let mut backups: Vec<RwLock<Option<ShardCore>>> = Vec::with_capacity(config.n_shards);
        backups.resize_with(config.n_shards, || RwLock::new(None));
        telemetry
            .gauge("node.shards_hosted")
            .set(hosted.len() as u64);

        let shutdown = Arc::new(AtomicBool::new(false));
        let meter = Arc::new(TrafficMeter::new());
        let wire = WireTelemetry::register(&telemetry);
        let shared = Arc::new(Shared {
            map,
            catalog,
            slots,
            backups,
            caches,
            config: config.clone(),
            epoch: AtomicU64::new(0),
            shutdown: Arc::clone(&shutdown),
            meter: Arc::clone(&meter),
            frontend,
            telemetry: Arc::clone(&telemetry),
            wire,
            repl,
        });

        // One pump thread per successor rank: the pump at rank `r` ships
        // every hosted primary's applied-event log to the peer at
        // `(node + 1 + r) % nodes`. Pumps re-scan the slots each round,
        // so a shard promoted mid-flight starts replicating without a
        // restart.
        if let Some(rt) = &shared.repl {
            for rank in 0..rt.replicas as usize {
                let pump_shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("delta-repl-{rank}"))
                    .spawn(move || replication_pump(pump_shared, rank))
                    .expect("spawn replication pump");
            }
        }

        let accept_shutdown = Arc::clone(&shutdown);
        let accept_thread = std::thread::Builder::new()
            .name("delta-accept".to_string())
            .spawn(move || accept_loop(listener, shared, accept_shutdown))
            .expect("spawn accept thread");

        Ok(Server {
            addr,
            shutdown,
            accept_thread,
            meter,
            telemetry,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the wire-byte meter.
    pub fn meter(&self) -> delta_net::TrafficSnapshot {
        self.meter.snapshot()
    }

    /// Point-in-time copy of this node's telemetry registry — the same
    /// snapshot a [`Request::Telemetry`] frame returns.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        self.telemetry.snapshot()
    }

    /// A shared handle on the registry itself, for long-lived observers
    /// (the daemons' `--telemetry-dump` thread) that outlive a borrow of
    /// the server.
    pub fn telemetry_handle(&self) -> Arc<Telemetry> {
        Arc::clone(&self.telemetry)
    }

    /// Requests shutdown without waiting (a `Shutdown` frame does this
    /// too).
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Waits for the server to stop (after [`Server::request_shutdown`]
    /// or a client `Shutdown` frame) and returns the final per-shard
    /// statistics.
    pub fn join(self) -> StatsSnapshot {
        self.accept_thread.join().expect("accept thread panicked")
    }

    /// Convenience: request shutdown and wait for the final snapshot.
    pub fn stop(self) -> StatsSnapshot {
        self.request_shutdown();
        self.join()
    }
}

/// The restore validation both cold-start and `AttachShard` run: the
/// snapshot must fit this shard's sub-catalog, policy and cache budget.
fn validate_restore(
    snap: &EngineSnapshot,
    sub: &ObjectCatalog,
    config: &ServerConfig,
    cache: u64,
    shard: usize,
) -> Result<(), String> {
    snap.validate(sub, config.policy.policy_name())
        .map_err(|e| e.to_string())?;
    // A restored engine keeps the snapshot's cache capacity, so a
    // changed cache budget must refuse loudly rather than be ignored
    // invisibly.
    let configured = config
        .policy
        .build(cache, config.seed + shard as u64)
        .preferred_capacity(sub, cache);
    if snap.capacity != configured {
        return Err(format!(
            "was taken with cache capacity {} but this configuration yields {}; \
             restart with the original cache budget or clear the snapshot directory",
            snap.capacity, configured
        ));
    }
    Ok(())
}

struct Shared {
    map: Box<dyn Partitioner>,
    catalog: ObjectCatalog,
    /// One slot per global shard; `None` when another node hosts it.
    /// Connection threads hold a slot's read lock for the duration of an
    /// op, so a `DetachShard` (write lock) waits out in-flight work.
    slots: Vec<RwLock<Option<ShardCore>>>,
    /// Backup twins of shards other nodes serve as primaries, seeded by
    /// `ReplicaBootstrap`, advanced by `Replicate` and drained by
    /// `Promote`. Parallel to `slots`; a shard is never in both at once.
    backups: Vec<RwLock<Option<ShardCore>>>,
    /// Per-shard cache budgets (cluster-wide apportioning), kept so an
    /// attached shard is rebuilt with the same budget everywhere.
    caches: Vec<u64>,
    config: ServerConfig,
    /// The routing epoch (cluster mode; stays 0 standalone).
    epoch: AtomicU64,
    shutdown: Arc<AtomicBool>,
    meter: Arc<TrafficMeter>,
    /// Template for the per-connection SQL compilers; `None` when the
    /// server was started without a workload preset.
    frontend: Option<Arc<QueryCompiler>>,
    /// This node's metric registry; scraped by [`Request::Telemetry`].
    telemetry: Arc<Telemetry>,
    /// Wire-level counter handles shared by every connection thread.
    wire: WireTelemetry,
    /// Replication runtime, when the node was started with
    /// `--replicas > 0`; `None` keeps the pre-replication data path.
    repl: Option<ReplRuntime>,
}

/// Shared state for the replication pump threads.
struct ReplRuntime {
    /// Backup targets per hosted primary shard (`--replicas`).
    replicas: u16,
    /// Every node address in node-id order (`--peers`); the pump at
    /// rank `r` ships to the peer at `(node + 1 + r) % nodes`.
    peers: Vec<String>,
    /// Wakes pumps when any shard's log grows.
    notifier: Arc<Notifier>,
}

impl Shared {
    fn hosted(&self) -> Vec<u16> {
        (0..self.slots.len() as u16)
            .filter(|&s| self.slots[s as usize].read().expect("slot").is_some())
            .collect()
    }

    fn node_info(&self) -> NodeInfo {
        let (role, node, nodes) = match &self.config.cluster {
            Some(c) => (NodeRole::ClusterNode, c.node, c.nodes),
            None => (NodeRole::Standalone, 0, 1),
        };
        NodeInfo {
            role,
            node,
            nodes,
            epoch: self.epoch.load(Ordering::SeqCst),
            cluster_shards: self.slots.len() as u16,
            partitioner: self.config.partitioner.to_string(),
            catalog_objects: self.catalog.len() as u64,
            catalog_bytes: self.catalog.total_bytes(),
            hosted: self.hosted(),
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    shutdown: Arc<AtomicBool>,
) -> StatsSnapshot {
    match shared.config.front {
        FrontDoor::Threaded => accept_threaded(listener, &shared, &shutdown),
        FrontDoor::Reactor { threads } => {
            let factory_shared = Arc::clone(&shared);
            let factory: FrameFactory = Arc::new(move || -> Box<dyn FrameHandler> {
                Box::new(NodeHandler::new(Arc::clone(&factory_shared)))
            });
            // Only a replicating node parks replies; at `--replicas 0`
            // every reply is written as it is served, on no backend.
            let backend = shared.repl.as_ref().map(|_| -> BackendFactory {
                let tel = ParkTelemetry::register(&shared.telemetry);
                Arc::new(move |poller: Arc<Poller>| -> Box<dyn LoopBackend> {
                    let backend = AckBackend::new(tel.clone()).expect("create ack wake pipe");
                    poller
                        .add(
                            backend.pipe(),
                            BACKEND_TOKEN | ACK_PIPE_TOKEN,
                            Interest::READ,
                        )
                        .expect("register ack wake pipe");
                    Box::new(backend)
                })
            });
            ReactorFront {
                name: "delta-server",
                threads,
                shutdown: Arc::clone(&shutdown),
                wire: shared.wire.clone(),
                rtel: ReactorTelemetry::register(&shared.telemetry),
                stall_limit: shared.config.stall_limit,
                factory,
                backend,
            }
            .run(listener);
        }
    }
    // Connections have drained; shut the shards down, collecting their
    // final ledgers (and writing snapshots).
    let mut stats: Vec<ShardStats> = Vec::new();
    for slot in &shared.slots {
        if let Some(core) = slot.read().expect("slot").as_ref() {
            stats.push(core.shutdown());
        }
    }
    stats.sort_by_key(|s| s.shard);
    StatsSnapshot { shards: stats }
}

/// The pre-reactor front door: one blocking thread per connection.
fn accept_threaded(listener: TcpListener, shared: &Arc<Shared>, shutdown: &Arc<AtomicBool>) {
    let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !shutdown.load(Ordering::SeqCst) {
        // Reap finished connections so a long-lived daemon doesn't
        // accumulate dead handles.
        connections.retain(|h| !h.is_finished());
        match listener.accept() {
            Ok((stream, _peer)) => {
                let shared = Arc::clone(shared);
                let handle = std::thread::Builder::new()
                    .name("delta-conn".to_string())
                    .spawn(move || {
                        if let Err(e) = serve_connection(stream, &shared) {
                            // Disconnects are routine; anything else is
                            // worth a trace on stderr.
                            if e.kind() != io::ErrorKind::UnexpectedEof {
                                eprintln!("delta-server: connection error: {e}");
                            }
                        }
                    })
                    .expect("spawn connection thread");
                connections.push(handle);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL);
            }
            Err(e) => {
                eprintln!("delta-server: accept error: {e}");
                std::thread::sleep(POLL);
            }
        }
    }
    // Drain: connections observe the flag within one poll interval;
    // reads and writes are both bounded.
    for handle in connections {
        let _ = handle.join();
    }
}

/// Per-connection mutable state the request handler threads through.
struct ConnState {
    /// This connection's SQL compiler clone, when the server has one.
    compiler: Option<QueryCompiler>,
    /// The routing epoch the peer declared in its last `Hello` (0 until
    /// it handshakes) — what cluster-mode event requests are fenced
    /// against.
    epoch: u64,
}

impl ConnState {
    fn new(shared: &Shared) -> ConnState {
        // Each connection compiles SQL with its own clone of the
        // frontend — compilation is CPU-bound, so connections never
        // contend on it.
        ConnState {
            compiler: shared.frontend.as_ref().map(|c| (**c).clone()),
            epoch: 0,
        }
    }
}

/// The reactor front's per-connection handler: serves every frame as
/// it arrives and hands the reply to the connection's [`ReplyQueue`],
/// which writes it at once or parks it until its replication offsets
/// settle.
struct NodeHandler {
    shared: Arc<Shared>,
    conn: ConnState,
    /// The serving frame's offsets, reused across frames.
    waits: Vec<Wait>,
    replies: ReplyQueue,
}

impl NodeHandler {
    fn new(shared: Arc<Shared>) -> NodeHandler {
        NodeHandler {
            conn: ConnState::new(&shared),
            waits: Vec::new(),
            replies: ReplyQueue::new(Arc::clone(&shared.meter)),
            shared,
        }
    }
}

impl FrameHandler for NodeHandler {
    fn on_frame(
        &mut self,
        key: usize,
        payload: &[u8],
        wbuf: &mut Vec<u8>,
        backend: &mut dyn LoopBackend,
    ) -> io::Result<bool> {
        let response = serve_frame(&self.shared, payload, &mut self.conn, &mut self.waits);
        self.replies
            .push(key, response, &mut self.waits, wbuf, backend)
    }

    fn on_resume(
        &mut self,
        key: usize,
        wbuf: &mut Vec<u8>,
        backend: &mut dyn LoopBackend,
    ) -> io::Result<bool> {
        self.replies.release(key, wbuf, backend)
    }

    fn suspended(&self) -> bool {
        !self.replies.is_empty()
    }

    fn saturated(&self) -> bool {
        self.replies.is_full()
    }
}

/// The threaded front's connection loop. It keeps the blocking shape:
/// each reply waits on its connection thread, which parks until the
/// settle notification unparks it.
fn serve_connection(stream: TcpStream, shared: &Shared) -> io::Result<()> {
    let mut conn = ConnState::new(shared);
    let mut waits = Vec::new();
    let waker = Arc::new(SettleWaker::thread(std::thread::current()));
    serve_frames(
        stream,
        &shared.shutdown,
        &shared.wire,
        shared.config.stall_limit,
        |payload, wbuf| {
            let response = serve_frame(shared, payload, &mut conn, &mut waits);
            if !block_until_settled(&waits, &waker) {
                shared.telemetry.counter("replica.acked_below_r").inc();
            }
            waits.clear();
            write_reply(&shared.meter, wbuf, &response)
        },
    )
}

/// Parks the calling thread until every offset in `waits` settled, or
/// until [`REPL_WAIT_MAX`] passed (`false`).
fn block_until_settled(waits: &[Wait], waker: &Arc<SettleWaker>) -> bool {
    let deadline = Instant::now() + REPL_WAIT_MAX;
    for (repl, offset) in waits {
        while !repl.watch(*offset, waker) {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            std::thread::park_timeout(deadline - now);
        }
    }
    true
}

/// Serves one request frame: the body shared by the threaded front
/// (via [`serve_connection`]) and the reactor front (via
/// [`NodeHandler`]), so the two doors cannot drift. Pushes the
/// replication offsets the reply must wait for onto `waits`.
fn serve_frame(
    shared: &Shared,
    payload: &[u8],
    conn: &mut ConnState,
    waits: &mut Vec<Wait>,
) -> Response {
    let total = payload.len() as u64 + 4;
    match Request::decode(payload) {
        Ok(request) => {
            // The meter reflects real socket bytes (length prefix
            // included), not just payloads.
            meter_request(shared, &request, total);
            match request {
                Request::Tagged { corr, inner } => Response::Tagged {
                    corr,
                    inner: Box::new(handle_request(shared, *inner, conn, waits)),
                },
                other => handle_request(shared, other, conn, waits),
            }
        }
        Err(e) => Response::Error {
            code: error_code::BAD_FRAME,
            message: e.to_string(),
        },
    }
}

fn meter_request(shared: &Shared, request: &Request, wire_bytes: u64) {
    match request {
        Request::Query(_) | Request::Sql { .. } => {
            shared.meter.record(TrafficClass::QueryShip, wire_bytes);
        }
        Request::Update(_) => shared.meter.record(TrafficClass::UpdateShip, wire_bytes),
        Request::Batch(items) => {
            meter_mixed(
                shared,
                wire_bytes,
                items
                    .iter()
                    .filter(|i| matches!(i, BatchItem::Query(_)))
                    .count() as u64,
                items.len() as u64,
            );
        }
        Request::NodeOps(ops) => {
            meter_mixed(
                shared,
                wire_bytes,
                ops.iter()
                    .filter(|op| matches!(op.item, BatchItem::Query(_)))
                    .count() as u64,
                ops.len() as u64,
            );
        }
        Request::Tagged { inner, .. } => meter_request(shared, inner, wire_bytes),
        // Replication frames meter as control traffic: they are the
        // robustness overhead an operator wants to see separately from
        // the client-facing query/update classes.
        Request::Stats
        | Request::Telemetry
        | Request::Shutdown
        | Request::Hello { .. }
        | Request::DetachShard { .. }
        | Request::AttachShard { .. }
        | Request::SetEpoch { .. }
        | Request::Reshard { .. }
        | Request::Replicate { .. }
        | Request::ReplicaBootstrap { .. }
        | Request::ReplicaStatus
        | Request::Promote { .. } => {
            shared.meter.record(TrafficClass::Control, wire_bytes);
        }
    }
}

/// Splits a mixed frame's bytes over the query/update classes in
/// proportion to item counts (exact, largest-remainder).
fn meter_mixed(shared: &Shared, wire_bytes: u64, n_queries: u64, n_items: u64) {
    let nu = n_items - n_queries;
    if n_items == 0 {
        shared.meter.record(TrafficClass::Control, wire_bytes);
        return;
    }
    let shares = apportion(wire_bytes, &[n_queries, nu]);
    shared.meter.record(TrafficClass::QueryShip, shares[0]);
    shared.meter.record(TrafficClass::UpdateShip, shares[1]);
}

/// Whether this request kind executes events (and must therefore be
/// fenced by the routing epoch in cluster mode). Admin and introspection
/// verbs are exempt — resharding itself runs between epochs.
fn is_event_request(request: &Request) -> bool {
    matches!(
        request,
        Request::Query(_)
            | Request::Update(_)
            | Request::Sql { .. }
            | Request::Batch(_)
            | Request::NodeOps(_)
    )
}

/// Serves one decoded request. Every event-applying path pushes, per
/// replicated shard it touched, the log end it must wait for onto
/// `waits`: the reply leaves only once every reachable backup holds
/// those events — what makes an acknowledged write survive this node's
/// death.
fn handle_request(
    shared: &Shared,
    request: Request,
    conn: &mut ConnState,
    waits: &mut Vec<Wait>,
) -> Response {
    if shared.config.cluster.is_some() && is_event_request(&request) {
        let current = shared.epoch.load(Ordering::SeqCst);
        if conn.epoch != current {
            // Nothing executes on a stale map — the typed redirect.
            return Response::WrongEpoch { epoch: current };
        }
    }
    match request {
        Request::Query(q) => handle_query_as(shared, q, OpClass::Query, waits),
        Request::Update(u) => {
            if u.object.index() >= shared.catalog.len() {
                return unknown_object(u.object);
            }
            let (shard, local) = shared.map.split_update(&u);
            let slot = shared.slots[shard].read().expect("slot");
            match slot.as_ref() {
                Some(core) => {
                    let fence = core.fence();
                    if fence > 0 && local.seq <= fence {
                        return already_applied(local.seq, fence);
                    }
                    let version = core.apply_update(local);
                    waits.extend(core.repl().map(|r| (Arc::clone(r), r.end())));
                    Response::UpdateOk {
                        shard: shard as u16,
                        version,
                    }
                }
                None => wrong_node(shared, shard),
            }
        }
        Request::Sql { seq, sql } => handle_sql(shared, conn.compiler.as_ref(), seq, &sql, waits),
        Request::Batch(items) => handle_batch(shared, items, waits),
        Request::NodeOps(ops) => handle_node_ops(shared, ops, waits),
        Request::Hello { version, epoch } => {
            // The handshake is the one frame designed to carry the
            // protocol version — reject a mismatch here, typed, instead
            // of surfacing it later as opaque decode errors mid-traffic.
            if version != PROTOCOL_VERSION {
                return Response::Error {
                    code: error_code::BAD_FRAME,
                    message: format!(
                        "protocol version mismatch: peer speaks v{version}, \
                         this server speaks v{PROTOCOL_VERSION}"
                    ),
                };
            }
            conn.epoch = epoch;
            Response::HelloOk(shared.node_info())
        }
        Request::DetachShard { shard } => handle_detach(shared, shard),
        Request::AttachShard { shard, state } => handle_attach(shared, shard, &state),
        Request::SetEpoch { epoch } => {
            if shared.config.cluster.is_none() {
                return not_clustered("SetEpoch");
            }
            shared.epoch.store(epoch, Ordering::SeqCst);
            shared.telemetry.gauge("node.epoch").set(epoch);
            // The issuing connection (the router's admin path) evidently
            // knows the new epoch; adopt it so its next ops aren't
            // pointlessly fenced.
            conn.epoch = epoch;
            Response::EpochOk { epoch }
        }
        Request::Reshard { .. } => Response::Error {
            code: error_code::NOT_CLUSTERED,
            message: "resharding is coordinated by the router tier; \
                      send Reshard to delta-routerd"
                .to_string(),
        },
        Request::Replicate {
            shard,
            from_offset,
            items,
        } => handle_replicate(shared, shard, from_offset, items),
        Request::ReplicaBootstrap { shard, state } => {
            handle_replica_bootstrap(shared, shard, &state)
        }
        Request::ReplicaStatus => handle_replica_status(shared),
        Request::Promote { shard } => handle_promote(shared, shard),
        // Nested tags are rejected by the decoder; a bare Tagged here
        // means the caller bypassed `serve_frame`'s unwrapping.
        Request::Tagged { inner, .. } => handle_request(shared, *inner, conn, waits),
        Request::Stats => {
            let mut shards: Vec<ShardStats> = Vec::new();
            for slot in &shared.slots {
                if let Some(core) = slot.read().expect("slot").as_ref() {
                    shards.push(core.stats());
                }
            }
            Response::StatsOk(StatsSnapshot { shards })
        }
        // Introspection, like `Stats`: never fenced by the routing epoch
        // (and `is_event_request` must keep it that way) — an operator
        // scrapes metrics from a node regardless of map currency.
        Request::Telemetry => Response::TelemetryOk(shared.telemetry.snapshot()),
        Request::Shutdown => {
            shared.shutdown.store(true, Ordering::SeqCst);
            Response::ShutdownOk
        }
    }
}

/// A shard's read-locked slot, tagged with its shard id.
type LockedShard<'a> = (usize, RwLockReadGuard<'a, Option<ShardCore>>);

/// Read-locks every shard in `shards` (ascending, deduplicated input),
/// failing with the missing shard if any is not hosted here.
fn lock_shards<'a>(
    shared: &'a Shared,
    shards: impl Iterator<Item = usize>,
) -> Result<Vec<LockedShard<'a>>, usize> {
    let mut guards = Vec::new();
    for s in shards {
        let guard = shared.slots[s].read().expect("slot");
        if guard.is_none() {
            return Err(s);
        }
        guards.push((s, guard));
    }
    Ok(guards)
}

/// The query fan-out, with the telemetry op class made explicit so the
/// SQL path's shard time lands in its own histograms.
fn handle_query_as(
    shared: &Shared,
    q: QueryEvent,
    class: OpClass,
    waits: &mut Vec<Wait>,
) -> Response {
    if let Some(&bad) = q.objects.iter().find(|o| o.index() >= shared.catalog.len()) {
        return unknown_object(bad);
    }
    let subs = shared.map.split_query(&q, &shared.catalog);
    // Every touched shard must be hosted here before anything executes:
    // a partially-served query on a stale map would be a wrong answer.
    let guards = match lock_shards(shared, subs.iter().map(|(s, _)| *s)) {
        Ok(g) => g,
        Err(missing) => return wrong_node(shared, missing),
    };
    // A promoted primary's fence: the old primary already served this
    // event before failover, so a retry through the new epoch gets the
    // typed reply — never a partial or double execution.
    if let Some(fence) = guards
        .iter()
        .map(|(_, g)| g.as_ref().expect("checked by lock_shards").fence())
        .find(|&f| f > 0 && q.seq <= f)
    {
        return already_applied(q.seq, fence);
    }
    let mut sent = 0u16;
    let mut local_answers = 0u16;
    let mut shipped = 0u16;
    let mut failure: Option<String> = None;
    // Every touched shard serves its sub-query even after a failure, so
    // a contract violation on one shard never leaves another shard's
    // sub-trace short (the differential tests depend on it). Queries
    // are events too (they advance policy and ledger state), so the
    // reply waits for backup acknowledgement like an update does.
    for ((_, guard), (_, sub)) in guards.iter().zip(subs) {
        let core = guard.as_ref().expect("checked by lock_shards");
        sent += 1;
        match core.serve_query_as(sub, class) {
            Ok(true) => local_answers += 1,
            Ok(false) => shipped += 1,
            Err(error) => {
                failure.get_or_insert(error);
            }
        }
        waits.extend(core.repl().map(|r| (Arc::clone(r), r.end())));
    }
    drop(guards);
    if let Some(message) = failure {
        return Response::Error {
            code: error_code::CONTRACT_VIOLATED,
            message,
        };
    }
    Response::QueryOk {
        shards_touched: sent,
        local_answers,
        shipped,
    }
}

/// Compiles raw SQL with the connection's compiler and serves the
/// resulting event through the normal shard fan-out.
fn handle_sql(
    shared: &Shared,
    compiler: Option<&QueryCompiler>,
    seq: u64,
    sql: &str,
    waits: &mut Vec<Wait>,
) -> Response {
    let Some(compiler) = compiler else {
        return Response::Error {
            code: error_code::SQL_UNAVAILABLE,
            message: "server has no SQL frontend (start it from a workload preset)".to_string(),
        };
    };
    let compiled = match compiler.compile(sql) {
        Ok(c) => c,
        Err(QueryError::Parse(e)) => {
            let span = e.span();
            return Response::SqlRejected {
                stage: SqlStage::Parse,
                span_start: span.start as u32,
                span_end: span.end as u32,
                message: e.to_string(),
            };
        }
        Err(QueryError::Analyze(e)) => {
            return Response::SqlRejected {
                stage: SqlStage::Analyze,
                span_start: 0,
                span_end: 0,
                message: e.to_string(),
            };
        }
    };
    let objects = compiled.objects.len() as u32;
    let event = compiled.into_event(seq);
    let (result_bytes, tolerance, kind) = (event.result_bytes, event.tolerance, event.kind);
    match handle_query_as(shared, event, OpClass::Sql, waits) {
        Response::QueryOk {
            shards_touched,
            local_answers,
            shipped,
        } => Response::SqlOk {
            shards_touched,
            local_answers,
            shipped,
            objects,
            result_bytes,
            tolerance,
            kind,
        },
        other => other,
    }
}

/// Serves a whole batch with one lock acquisition per touched shard:
/// every item is split as usual, but each shard executes its sub-events
/// as one ordered [`ShardCore::run_batch`], so the serialization cost is
/// paid per *batch*, not per event.
///
/// Per-shard sub-event order equals item order, which is what keeps a
/// batched replay byte-identical to the same events sent one frame at a
/// time (pinned by the shard-level and integration tests).
fn handle_batch(shared: &Shared, items: Vec<BatchItem>, waits: &mut Vec<Wait>) -> Response {
    struct QueryAcc {
        sent: u16,
        local: u16,
        shipped: u16,
    }
    let mut replies: Vec<Option<BatchReply>> = Vec::with_capacity(items.len());
    replies.resize_with(items.len(), || None);
    let mut accs: Vec<Option<QueryAcc>> = Vec::with_capacity(items.len());
    accs.resize_with(items.len(), || None);
    let mut per_shard: Vec<Vec<ShardOp>> = vec![Vec::new(); shared.slots.len()];

    for (i, item) in items.into_iter().enumerate() {
        match item {
            BatchItem::Query(q) => {
                if let Some(&bad) = q.objects.iter().find(|o| o.index() >= shared.catalog.len()) {
                    replies[i] = Some(batch_error(unknown_object(bad)));
                    continue;
                }
                let subs = shared.map.split_query(&q, &shared.catalog);
                accs[i] = Some(QueryAcc {
                    sent: subs.len() as u16,
                    local: 0,
                    shipped: 0,
                });
                for (s, sub) in subs {
                    per_shard[s].push(ShardOp::Query {
                        item: i as u32,
                        event: sub,
                    });
                }
            }
            BatchItem::Update(u) => {
                if u.object.index() >= shared.catalog.len() {
                    replies[i] = Some(batch_error(unknown_object(u.object)));
                    continue;
                }
                let (s, local) = shared.map.split_update(&u);
                per_shard[s].push(ShardOp::Update {
                    item: i as u32,
                    event: local,
                });
            }
        }
    }

    // All touched shards must be hosted before any sub-batch runs: a
    // stale map must never half-execute a batch.
    let touched: Vec<usize> = (0..per_shard.len())
        .filter(|&s| !per_shard[s].is_empty())
        .collect();
    let guards = match lock_shards(shared, touched.iter().copied()) {
        Ok(g) => g,
        Err(missing) => return wrong_node(shared, missing),
    };
    fence_items(&guards, &mut per_shard, &mut replies);
    for (s, guard) in guards {
        let core = guard.as_ref().expect("checked by lock_shards");
        for outcome in core.run_batch(std::mem::take(&mut per_shard[s])) {
            match outcome {
                OpOutcome::Query { item, local } => {
                    let acc = accs[item as usize]
                        .as_mut()
                        .expect("query outcome for non-query item");
                    if local {
                        acc.local += 1;
                    } else {
                        acc.shipped += 1;
                    }
                }
                // A contract violation poisons its item only; the rest
                // of the batch is unaffected. The error reply takes
                // precedence over any sub-queries of the same item that
                // other shards did serve.
                OpOutcome::QueryFailed { item, error } => {
                    replies[item as usize] = Some(BatchReply::Error {
                        code: error_code::CONTRACT_VIOLATED,
                        message: error,
                    });
                }
                OpOutcome::Update { item, version } => {
                    replies[item as usize] = Some(BatchReply::Update {
                        shard: s as u16,
                        version,
                    });
                }
            }
        }
        waits.extend(core.repl().map(|r| (Arc::clone(r), r.end())));
    }

    let replies = replies
        .into_iter()
        .zip(accs)
        .map(|(reply, acc)| match (reply, acc) {
            (Some(r), _) => r,
            (None, Some(acc)) => BatchReply::Query {
                shards_touched: acc.sent,
                local_answers: acc.local,
                shipped: acc.shipped,
            },
            // An update that reached no shard can't happen (every valid
            // object id owns exactly one shard), but fail loudly if the
            // invariant ever breaks rather than fabricating a reply.
            (None, None) => BatchReply::Error {
                code: error_code::BAD_FRAME,
                message: "item produced no outcome".to_string(),
            },
        })
        .collect();
    Response::BatchOk(replies)
}

/// Executes the router's pre-split, shard-targeted ops. Replies come
/// back as a `BatchOk` with one reply per op in op order; each shard's
/// ops run as one coalesced sub-batch, exactly like `handle_batch`.
fn handle_node_ops(shared: &Shared, ops: Vec<NodeOp>, waits: &mut Vec<Wait>) -> Response {
    if shared.config.cluster.is_none() {
        return not_clustered("NodeOps");
    }
    // Fault injection: park on the serving thread *before* any shard
    // lock is taken, so only router traffic targeting this node pays
    // the simulated link — other nodes' shards stay unaffected.
    if let Some(link) = shared.config.chaos_link {
        let bytes = ops.len() as u64 * std::mem::size_of::<NodeOp>() as u64;
        std::thread::sleep(std::time::Duration::from_secs_f64(
            link.transfer_secs(bytes),
        ));
    }
    if let Some(op) = ops
        .iter()
        .find(|op| op.shard as usize >= shared.slots.len())
    {
        return Response::Error {
            code: error_code::BAD_FRAME,
            message: format!(
                "node-op targets shard {} but the cluster has {}",
                op.shard,
                shared.slots.len()
            ),
        };
    }
    let mut replies: Vec<Option<BatchReply>> = Vec::with_capacity(ops.len());
    replies.resize_with(ops.len(), || None);
    let mut per_shard: Vec<Vec<ShardOp>> = vec![Vec::new(); shared.slots.len()];
    for (i, op) in ops.into_iter().enumerate() {
        let shard_ops = &mut per_shard[op.shard as usize];
        match op.item {
            BatchItem::Query(q) => shard_ops.push(ShardOp::Query {
                item: i as u32,
                event: q,
            }),
            BatchItem::Update(u) => shard_ops.push(ShardOp::Update {
                item: i as u32,
                event: u,
            }),
        }
    }
    let touched: Vec<usize> = (0..per_shard.len())
        .filter(|&s| !per_shard[s].is_empty())
        .collect();
    // Nothing executes unless every targeted shard is hosted here — the
    // router's map was stale, and it must re-route, not half-run.
    let guards = match lock_shards(shared, touched.iter().copied()) {
        Ok(g) => g,
        Err(missing) => return wrong_node(shared, missing),
    };
    fence_items(&guards, &mut per_shard, &mut replies);
    for (s, guard) in guards {
        let core = guard.as_ref().expect("checked by lock_shards");
        for outcome in core.run_batch(std::mem::take(&mut per_shard[s])) {
            let (item, reply) = match outcome {
                OpOutcome::Query { item, local } => (
                    item,
                    BatchReply::Query {
                        shards_touched: 1,
                        local_answers: local as u16,
                        shipped: !local as u16,
                    },
                ),
                OpOutcome::QueryFailed { item, error } => (
                    item,
                    BatchReply::Error {
                        code: error_code::CONTRACT_VIOLATED,
                        message: error,
                    },
                ),
                OpOutcome::Update { item, version } => (
                    item,
                    BatchReply::Update {
                        shard: s as u16,
                        version,
                    },
                ),
            };
            replies[item as usize] = Some(reply);
        }
        waits.extend(core.repl().map(|r| (Arc::clone(r), r.end())));
    }
    Response::BatchOk(
        replies
            .into_iter()
            .map(|r| {
                r.unwrap_or(BatchReply::Error {
                    code: error_code::BAD_FRAME,
                    message: "op produced no outcome".to_string(),
                })
            })
            .collect(),
    )
}

/// Resharding step 1 at the losing node: stop hosting the shard and hand
/// its serialized engine state back.
fn handle_detach(shared: &Shared, shard: u16) -> Response {
    if shared.config.cluster.is_none() {
        return not_clustered("DetachShard");
    }
    if shard as usize >= shared.slots.len() {
        return Response::Error {
            code: error_code::BAD_FRAME,
            message: format!("shard {shard} out of range"),
        };
    }
    // The write lock waits out every in-flight op on this shard, so the
    // snapshot is taken at a quiescent point.
    let mut slot = shared.slots[shard as usize].write().expect("slot");
    let Some(core) = slot.as_ref() else {
        drop(slot);
        return wrong_node(shared, shard as usize);
    };
    // Serialize and size-check BEFORE committing to the detach: a
    // snapshot that cannot ride a frame must leave the shard hosted and
    // intact, not destroy the only copy of its state.
    let state = snapshot_to_string(&core.snapshot());
    if state.len() + 16 > crate::protocol::MAX_FRAME_BYTES as usize {
        return Response::Error {
            code: error_code::RESHARD_FAILED,
            message: format!(
                "shard {shard}'s snapshot is {} bytes — too large for a \
                 {}-byte frame; the shard stays hosted here",
                state.len(),
                crate::protocol::MAX_FRAME_BYTES
            ),
        };
    }
    slot.take().expect("checked above").discard();
    drop(slot);
    shared
        .telemetry
        .gauge("node.shards_hosted")
        .set(shared.hosted().len() as u64);
    Response::ShardState {
        shard,
        state: state.into_bytes(),
    }
}

/// Resharding step 2 at the gaining node: rebuild the shard engine from
/// the old owner's state and start serving it.
fn handle_attach(shared: &Shared, shard: u16, state: &[u8]) -> Response {
    if shared.config.cluster.is_none() {
        return not_clustered("AttachShard");
    }
    if shard as usize >= shared.slots.len() {
        return Response::Error {
            code: error_code::BAD_FRAME,
            message: format!("shard {shard} out of range"),
        };
    }
    let s = shard as usize;
    let reshard_failed = |message: String| Response::Error {
        code: error_code::RESHARD_FAILED,
        message,
    };
    let snap = match std::str::from_utf8(state)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
        .and_then(snapshot_from_str)
    {
        Ok(snap) => snap,
        Err(e) => return reshard_failed(format!("attach shard {shard}: bad state blob: {e}")),
    };
    let sub = shared.map.shard_catalog(s, &shared.catalog);
    if let Err(msg) = validate_restore(&snap, &sub, &shared.config, shared.caches[s], s) {
        return reshard_failed(format!("attach shard {shard}: {msg}"));
    }
    let mut slot = shared.slots[s].write().expect("slot");
    if slot.is_some() {
        return reshard_failed(format!("this node already hosts shard {shard}"));
    }
    *slot = Some(ShardCore::new(ShardSpec {
        shard,
        catalog: sub,
        cache_bytes: shared.caches[s],
        policy: shared.config.policy,
        seed: shared.config.seed + s as u64,
        restore: Some(snap),
        snapshot_path: shared
            .config
            .snapshot_dir
            .as_ref()
            .map(|dir| dir.join(format!("shard-{s}.jsonl"))),
        telemetry: ShardTelemetry::register(&shared.telemetry),
    }));
    drop(slot);
    shared
        .telemetry
        .gauge("node.shards_hosted")
        .set(shared.hosted().len() as u64);
    Response::AttachOk { shard }
}

/// Promotion fences for a coalesced batch: an item the old primary
/// applied before failover must not re-execute — and must not
/// half-execute on its other shards either, so any fenced shard fences
/// the whole item. Fenced items get the typed `ALREADY_APPLIED` reply
/// and their ops are removed from every shard's sub-batch.
fn fence_items(
    guards: &[LockedShard<'_>],
    per_shard: &mut [Vec<ShardOp>],
    replies: &mut [Option<BatchReply>],
) {
    let mut fenced: Vec<(u32, u64, u64)> = Vec::new();
    for (s, guard) in guards {
        let fence = guard.as_ref().expect("checked by lock_shards").fence();
        if fence == 0 {
            continue;
        }
        for op in &per_shard[*s] {
            let (item, seq) = match op {
                ShardOp::Query { item, event } => (*item, event.seq),
                ShardOp::Update { item, event } => (*item, event.seq),
            };
            if seq <= fence {
                fenced.push((item, seq, fence));
            }
        }
    }
    if fenced.is_empty() {
        return;
    }
    let mut dead: Vec<u32> = Vec::with_capacity(fenced.len());
    for &(item, seq, fence) in &fenced {
        replies[item as usize] = Some(batch_error(already_applied(seq, fence)));
        dead.push(item);
    }
    for ops in per_shard.iter_mut() {
        ops.retain(|op| {
            let item = match op {
                ShardOp::Query { item, .. } => *item,
                ShardOp::Update { item, .. } => *item,
            };
            !dead.contains(&item)
        });
    }
}

/// Log shipping at a backup: applies `items` to the backup twin of
/// `shard`, which must stand exactly at `from_offset` applied events —
/// any mismatch (including "no such backup here") gets the typed
/// `NOT_REPLICA`, telling the primary's pump to re-bootstrap.
fn handle_replicate(
    shared: &Shared,
    shard: u16,
    from_offset: u64,
    items: Vec<BatchItem>,
) -> Response {
    if shared.config.cluster.is_none() {
        return not_clustered("Replicate");
    }
    if shard as usize >= shared.backups.len() {
        return Response::Error {
            code: error_code::BAD_FRAME,
            message: format!("shard {shard} out of range"),
        };
    }
    let guard = shared.backups[shard as usize].read().expect("backup slot");
    let Some(core) = guard.as_ref() else {
        return Response::Error {
            code: error_code::NOT_REPLICA,
            message: format!("no backup of shard {shard} here; bootstrap first"),
        };
    };
    let at = core.events();
    if at != from_offset {
        return Response::Error {
            code: error_code::NOT_REPLICA,
            message: format!(
                "backup of shard {shard} stands at offset {at}, not {from_offset}; re-bootstrap"
            ),
        };
    }
    let n = items.len() as u64;
    let ops = items
        .into_iter()
        .enumerate()
        .map(|(i, item)| match item {
            BatchItem::Query(q) => ShardOp::Query {
                item: i as u32,
                event: q,
            },
            BatchItem::Update(u) => ShardOp::Update {
                item: i as u32,
                event: u,
            },
        })
        .collect();
    core.run_batch(ops);
    let offset = core.events();
    drop(guard);
    shared.telemetry.counter("replica.applied_events").add(n);
    Response::ReplicaOk { shard, offset }
}

/// Seeds (or re-seeds) a backup twin of `shard`. An empty state blob
/// means "build a fresh core" — the zero-event bootstrap whose replay
/// lineage is byte-identical to the primary's (policy init included);
/// a non-empty blob is an engine snapshot for late catch-up after log
/// truncation (a deterministic twin, the same lineage as a migrated
/// shard). Re-bootstrapping over an existing backup is allowed.
fn handle_replica_bootstrap(shared: &Shared, shard: u16, state: &[u8]) -> Response {
    if shared.config.cluster.is_none() {
        return not_clustered("ReplicaBootstrap");
    }
    if shard as usize >= shared.backups.len() {
        return Response::Error {
            code: error_code::BAD_FRAME,
            message: format!("shard {shard} out of range"),
        };
    }
    let s = shard as usize;
    if let Some(allow) = shared
        .config
        .replication
        .as_ref()
        .and_then(|r| r.backup_of.as_ref())
    {
        if !allow.contains(&shard) {
            return Response::Error {
                code: error_code::NOT_REPLICA,
                message: format!("this node does not back up shard {shard} (--backup-of)"),
            };
        }
    }
    let primary_here = shared.slots[s].read().expect("slot").is_some();
    if primary_here {
        return Response::Error {
            code: error_code::NOT_REPLICA,
            message: format!("shard {shard} is served as a primary here"),
        };
    }
    let sub = shared.map.shard_catalog(s, &shared.catalog);
    let restore = if state.is_empty() {
        None
    } else {
        let snap = match std::str::from_utf8(state)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
            .and_then(snapshot_from_str)
        {
            Ok(snap) => snap,
            Err(e) => {
                return Response::Error {
                    code: error_code::NOT_REPLICA,
                    message: format!("bootstrap shard {shard}: bad state blob: {e}"),
                }
            }
        };
        if let Err(msg) = validate_restore(&snap, &sub, &shared.config, shared.caches[s], s) {
            return Response::Error {
                code: error_code::NOT_REPLICA,
                message: format!("bootstrap shard {shard}: {msg}"),
            };
        }
        Some(snap)
    };
    let core = ShardCore::new(ShardSpec {
        shard,
        catalog: sub,
        cache_bytes: shared.caches[s],
        policy: shared.config.policy,
        seed: shared.config.seed + s as u64,
        restore,
        // Backups never persist: the primary re-seeds them on demand,
        // and a backup snapshot on disk could resurrect stale state
        // as a primary after a cold restart.
        snapshot_path: None,
        telemetry: ShardTelemetry::register(&shared.telemetry),
    });
    let offset = core.events();
    *shared.backups[s].write().expect("backup slot") = Some(core);
    shared.telemetry.counter("replica.bootstraps").inc();
    Response::ReplicaOk { shard, offset }
}

/// Reports every backup twin this node holds and the applied-event
/// offset each stands at — what the router's failover compares to pick
/// the most-caught-up backup.
fn handle_replica_status(shared: &Shared) -> Response {
    if shared.config.cluster.is_none() {
        return not_clustered("ReplicaStatus");
    }
    let mut offsets = Vec::new();
    for (s, slot) in shared.backups.iter().enumerate() {
        if let Some(core) = slot.read().expect("backup slot").as_ref() {
            offsets.push((s as u16, core.events()));
        }
    }
    Response::ReplicaStatusOk(offsets)
}

/// Failover at a surviving node: turns the backup twin of `shard` into
/// the serving primary. The promoted core fences every sequence number
/// the old primary applied (a retried event gets the typed
/// `ALREADY_APPLIED`, never a double apply), adopts this node's
/// snapshot directory, and starts replicating to its own successors.
fn handle_promote(shared: &Shared, shard: u16) -> Response {
    if shared.config.cluster.is_none() {
        return not_clustered("Promote");
    }
    if shard as usize >= shared.backups.len() {
        return Response::Error {
            code: error_code::BAD_FRAME,
            message: format!("shard {shard} out of range"),
        };
    }
    let s = shard as usize;
    let Some(backup) = shared.backups[s].write().expect("backup slot").take() else {
        return Response::Error {
            code: error_code::NOT_REPLICA,
            message: format!("no backup of shard {shard} to promote here"),
        };
    };
    let mut slot = shared.slots[s].write().expect("slot");
    if slot.is_some() {
        // Serving both roles at once would double-apply; put the twin
        // back untouched.
        *shared.backups[s].write().expect("backup slot") = Some(backup);
        return Response::Error {
            code: error_code::NOT_REPLICA,
            message: format!("shard {shard} is already served as a primary here"),
        };
    }
    let repl = shared.repl.as_ref().map(|rt| {
        Arc::new(ReplState::new(
            shard,
            backup.events(),
            rt.replicas as usize,
            Arc::clone(&rt.notifier),
        ))
    });
    let snapshot_path = shared
        .config
        .snapshot_dir
        .as_ref()
        .map(|dir| dir.join(format!("shard-{s}.jsonl")));
    let (core, offset) = backup.into_primary(snapshot_path, repl);
    *slot = Some(core);
    drop(slot);
    shared
        .telemetry
        .gauge("node.shards_hosted")
        .set(shared.hosted().len() as u64);
    shared.telemetry.counter("node.promotions").inc();
    Response::PromoteOk { shard, offset }
}

/// The typed reply for an event a promoted primary's fence blocks: the
/// old primary applied it before failover, so a retrying client counts
/// it done rather than double-applying.
fn already_applied(seq: u64, fence: u64) -> Response {
    Response::Error {
        code: error_code::ALREADY_APPLIED,
        message: format!("seq {seq} was applied before failover (fence {fence})"),
    }
}

/// Socket timeout for pump round trips: a peer slower than this is
/// treated as down (replies stop waiting for it) rather than allowed to
/// wedge the pump.
const PUMP_IO_TIMEOUT: Duration = Duration::from_millis(250);

/// One pump thread: ships every hosted primary's applied-event log to
/// the successor peer at `rank`, bootstrapping targets as needed and
/// marking them down (excluded from the settle predicate) when the link
/// dies or the node shuts down — which is what releases the replies
/// still parked on them. Reconnects forever with capped, jittered
/// backoff so a restarted peer is not hit by every primary in lockstep.
fn replication_pump(shared: Arc<Shared>, rank: usize) {
    let rt = shared.repl.as_ref().expect("pump without runtime");
    let cluster = shared
        .config
        .cluster
        .as_ref()
        .expect("replication requires cluster mode");
    let peer_idx = (cluster.node as usize + 1 + rank) % cluster.nodes as usize;
    let peer = rt.peers[peer_idx].clone();
    // Deterministic per-pump jitter seed: spreads reconnects without a
    // shared RNG (the jitter affects timing only, never data).
    let mut rng = 0x9e37_79b9_7f4a_7c15u64 ^ ((cluster.node as u64) << 32) ^ rank as u64;
    let mut backoff = Duration::from_millis(50);
    while !shared.shutdown.load(Ordering::SeqCst) {
        if let Ok(mut client) = DeltaClient::connect(peer.as_str()) {
            if client.set_io_timeout(Some(PUMP_IO_TIMEOUT)).is_ok() {
                backoff = Duration::from_millis(50);
                pump_session(&shared, rank, &mut client);
            }
        }
        // The link is gone: every target this pump serves is down until
        // the next session bootstraps it back.
        for_each_repl(&shared, |repl| repl.set_status(rank, TargetStatus::Down));
        std::thread::sleep(jittered(&mut rng, backoff));
        backoff = (backoff * 2).min(Duration::from_secs(1));
    }
}

/// One connected pump session: scans the hosted primaries, bootstraps
/// stale targets and ships unshipped log suffixes, sleeping on the
/// notifier between rounds. Returns when the link errors or the server
/// shuts down.
fn pump_session(shared: &Shared, rank: usize, client: &mut DeltaClient) {
    let rt = shared.repl.as_ref().expect("pump without runtime");
    let lag_gauge = shared.telemetry.gauge("replica.lag_events");
    let shipped = shared.telemetry.counter("replica.shipped_events");
    let bootstraps = shared.telemetry.counter("replica.bootstraps_sent");
    let mut seen = rt.notifier.snapshot();
    // A fresh link: every target this pump previously marked down is
    // worth another bootstrap. Targets the peer *refuses* go back to
    // down below and stay there for the rest of the session, so a
    // refusal never becomes a per-round retry storm.
    for_each_repl(shared, |repl| {
        if repl.status(rank) == TargetStatus::Down {
            repl.set_status(rank, TargetStatus::NeedsBootstrap);
        }
    });
    while !shared.shutdown.load(Ordering::SeqCst) {
        // Scan the slots fresh each round: a shard promoted mid-flight
        // starts replicating without a pump restart.
        for s in 0..shared.slots.len() {
            let Some(repl) = shared.slots[s]
                .read()
                .expect("slot")
                .as_ref()
                .and_then(|core| core.repl().cloned())
            else {
                continue;
            };
            if repl.status(rank) == TargetStatus::NeedsBootstrap {
                let (offset, snap) = {
                    let guard = shared.slots[s].read().expect("slot");
                    let Some(core) = guard.as_ref() else { continue };
                    core.bootstrap_state()
                };
                let state = match snap {
                    None => Vec::new(),
                    Some(snap) => snapshot_to_string(&snap).into_bytes(),
                };
                if state.len() + 16 > crate::protocol::MAX_FRAME_BYTES as usize {
                    // An unshippable snapshot: leave the target down
                    // rather than wedge the pump; operators see it as
                    // unbounded lag on the gauge.
                    repl.set_status(rank, TargetStatus::Down);
                    continue;
                }
                match client.request(&Request::ReplicaBootstrap {
                    shard: s as u16,
                    state,
                }) {
                    Ok(Response::ReplicaOk { offset: acked, .. }) => {
                        debug_assert_eq!(acked, offset);
                        repl.mark_bootstrapped(rank, acked);
                        bootstraps.inc();
                    }
                    // A typed refusal (allowlisted away, or the peer
                    // serves the shard as primary): this target will
                    // never take the shard; stop asking.
                    Ok(_) => repl.set_status(rank, TargetStatus::Down),
                    Err(_) => return,
                }
            }
            while let Some((from, items)) = repl.suffix_for(rank) {
                let n = items.len() as u64;
                match client.request(&Request::Replicate {
                    shard: s as u16,
                    from_offset: from,
                    items,
                }) {
                    Ok(Response::ReplicaOk { offset, .. }) => {
                        repl.record_ack(rank, offset);
                        shipped.add(n);
                    }
                    Ok(Response::Error { code, .. }) if code == error_code::NOT_REPLICA => {
                        repl.set_status(rank, TargetStatus::NeedsBootstrap);
                        break;
                    }
                    Ok(_) => {
                        repl.set_status(rank, TargetStatus::Down);
                        break;
                    }
                    Err(_) => return,
                }
            }
        }
        lag_gauge.set(max_lag(shared));
        seen = rt.notifier.wait(seen, Duration::from_millis(10));
    }
}

/// Applies `f` to every hosted primary's replication log.
fn for_each_repl(shared: &Shared, mut f: impl FnMut(&ReplState)) {
    for slot in &shared.slots {
        if let Some(repl) = slot.read().expect("slot").as_ref().and_then(|c| c.repl()) {
            f(repl);
        }
    }
}

/// Worst replication lag across hosted primaries, for the
/// `replica.lag_events` gauge.
fn max_lag(shared: &Shared) -> u64 {
    let mut worst = 0;
    for_each_repl(shared, |repl| worst = worst.max(repl.lag()));
    worst
}

/// Converts a single-request error response into its batch-item shape.
fn batch_error(r: Response) -> BatchReply {
    match r {
        Response::Error { code, message } => BatchReply::Error { code, message },
        other => BatchReply::Error {
            code: error_code::BAD_FRAME,
            message: format!("unexpected error shape {other:?}"),
        },
    }
}

fn unknown_object(o: ObjectId) -> Response {
    Response::Error {
        code: error_code::UNKNOWN_OBJECT,
        message: format!("object {o} is outside the catalog"),
    }
}

fn wrong_node(shared: &Shared, shard: usize) -> Response {
    Response::Error {
        code: error_code::WRONG_NODE,
        message: format!(
            "shard {shard} is not hosted on this node (epoch {}); refresh the routing map",
            shared.epoch.load(Ordering::SeqCst)
        ),
    }
}

fn not_clustered(what: &str) -> Response {
    Response::Error {
        code: error_code::NOT_CLUSTERED,
        message: format!("{what} requires cluster mode (start the node with a cluster role)"),
    }
}
