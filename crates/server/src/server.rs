//! The TCP service: listener, request dispatch, inline shard
//! execution, cluster-node duties and graceful shutdown.
//!
//! Accepted connections are multiplexed by the reactor front door
//! ([`crate::front`]); its event loops decode request frames and execute
//! them directly against the lock-protected
//! [`crate::shard::ShardCore`]s (per-shard mutexes serialize per-shard
//! event order; connections on different loops proceed in parallel on
//! different shards), so each connection sees strictly ordered
//! request/response pairs with no per-event thread handoff. Wire bytes
//! are recorded on a shared [`delta_net::TrafficMeter`] (query frames as
//! `QueryShip`, update frames as `UpdateShip`, the rest as `Control`), so
//! an operator can audit protocol overhead separately from the
//! policy-level ledgers.
//!
//! A replicating node never waits on the loop: a reply whose events
//! must first reach the backups is parked on the connection
//! ([`crate::parked`]) and released by the acknowledgement.
//!
//! ## Standalone vs cluster node
//!
//! A standalone server hosts **every** shard of its partitioner and
//! ignores routing epochs. Started with [`ServerConfig::cluster`], the
//! same process becomes one node of a routed cluster instead: it hosts a
//! *subset* of the global shards in per-slot `RwLock`s (so shards can be
//! promoted and detached at runtime), executes the pre-split
//! [`Request::NodeOps`] frames the router sends, and fences every
//! event-carrying request behind the **routing epoch**: a connection
//! whose declared epoch (from its [`Request::Hello`] handshake) is stale
//! gets a typed [`Response::WrongEpoch`] and *nothing executes* — a
//! client holding an outdated shard→node map can be redirected, never
//! silently given a wrong answer.

use crate::client::DeltaClient;
use crate::config::ServerConfig;
use crate::connection::{FrameHandler, LoopBackend, WireTelemetry};
use crate::front::{BackendFactory, FrameFactory, ReactorFront, ReactorTelemetry, BACKEND_TOKEN};
use crate::mux::{compile_sql, shape_response, split_items, MergeState, ReplyKind};
use crate::parked::{AckBackend, ParkTelemetry, ReplyQueue, Wait, ACK_PIPE_TOKEN};
use crate::partition::{apportion, Partitioner};
use crate::protocol::{
    error_code, BatchItem, BatchReply, NodeInfo, NodeOp, NodeRole, Request, Response, ShardStats,
    StatsSnapshot, PROTOCOL_VERSION,
};
use crate::replication::{jittered, Notifier, ReplState, TargetStatus};
use crate::shard::{OpClass, OpOutcome, ShardCore, ShardOp, ShardSpec, ShardTelemetry};
use delta_core::engine::{read_snapshot, snapshot_from_str, snapshot_to_string};
use delta_core::EngineSnapshot;
use delta_net::{TrafficClass, TrafficMeter};
use delta_query::{QueryCompiler, Schema};
use delta_reactor::{Interest, Poller};
use delta_storage::ObjectCatalog;
use delta_telemetry::{Telemetry, TelemetrySnapshot};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard};
use std::time::Duration;

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
        let caches = map.shard_cache_bytes(config.cache_bytes, &catalog);

        let hosted: Vec<u16> = match &config.cluster {
            Some(c) => c.hosted.clone(),
            None => (0..config.n_shards as u16).collect(),
        };

        let listener = TcpListener::bind(&config.bind)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

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
        let mut backups: Vec<RwLock<Option<ShardCore>>> = Vec::with_capacity(config.n_shards);
        backups.resize_with(config.n_shards, || RwLock::new(None));
        let mut held: Vec<Mutex<Option<ShardCore>>> = Vec::with_capacity(config.n_shards);
        held.resize_with(config.n_shards, || Mutex::new(None));

        let shutdown = Arc::new(AtomicBool::new(false));
        let meter = Arc::new(TrafficMeter::new());
        let wire = WireTelemetry::register(&telemetry);
        let shared = Arc::new(Shared {
            map,
            catalog,
            slots,
            backups,
            held,
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
        // Warm restart: a hosted shard with a snapshot resumes from it.
        // Nothing is spawned yet, so a bad snapshot refuses startup
        // cleanly instead of panicking a worker thread.
        for &s in &hosted {
            let s = s as usize;
            let path = shared.snapshot_path(s);
            let restore = match &path {
                Some(path) if path.exists() => {
                    let snap = read_snapshot(path)?;
                    shared.validate_restore(s, &snap).map_err(|msg| {
                        io::Error::new(
                            io::ErrorKind::InvalidInput,
                            format!("snapshot {}: {msg}", path.display()),
                        )
                    })?;
                    Some(snap)
                }
                _ => None,
            };
            let core = shared.shard_core(s, restore, path);
            shared.install_primary(s, core).expect("fresh slot");
        }

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

struct Shared {
    map: Box<dyn Partitioner>,
    catalog: ObjectCatalog,
    /// One slot per global shard; `None` when another node hosts it.
    /// Reactor threads hold a slot's read lock for the duration of an
    /// op, so a `DetachShard` (write lock) waits out in-flight work.
    slots: Vec<RwLock<Option<ShardCore>>>,
    /// Backup twins of shards other nodes serve as primaries, seeded by
    /// `ReplicaBootstrap`, advanced by `Replicate` and drained by
    /// `Promote`. Parallel to `slots`; a shard is never in both at once
    /// ([`Shared::install_primary`] drops the backup, and a bootstrap
    /// refuses a served shard under its slot lock).
    backups: Vec<RwLock<Option<ShardCore>>>,
    /// Cores `DetachShard` took out of their slots while a move is in
    /// flight: neither served nor a backup, and never reported by
    /// `ReplicaStatus`. A `Promote` takes one back with its policy state
    /// intact (the move's rollback); `SetEpoch` drops them all (the move
    /// committed). Parallel to `slots`.
    held: Vec<Mutex<Option<ShardCore>>>,
    /// Per-shard cache budgets (cluster-wide apportioning), kept so a
    /// moved shard is rebuilt with the same budget everywhere.
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
    /// Wire-level counter handles shared by every reactor thread.
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
    /// Shard `s`'s core, built from the recipe every engine for the
    /// shard follows: its sub-catalog, its budget and
    /// [`ServerConfig::shard_seed`].
    fn shard_core(
        &self,
        s: usize,
        restore: Option<EngineSnapshot>,
        snapshot_path: Option<PathBuf>,
    ) -> ShardCore {
        ShardCore::new(ShardSpec {
            shard: s as u16,
            catalog: self.map.shard_catalog(s, &self.catalog),
            cache_bytes: self.caches[s],
            policy: self.config.policy,
            seed: self.config.shard_seed(s),
            restore,
            snapshot_path,
            telemetry: ShardTelemetry::register(&self.telemetry),
        })
    }

    /// The one way this node starts serving shard `s` as a primary
    /// (start, `Promote`). Under the slot write lock it
    /// refuses a shard served here and drops this node's backup of `s`
    /// (slot before backup, the lock order everywhere). A replicating
    /// node gives the core a log starting at its event count, where
    /// every successor bootstraps, and gets that log end back as the
    /// wait a hand-over reply parks on (`None` at `--replicas 0`).
    fn install_primary(&self, s: usize, mut core: ShardCore) -> Result<Option<Wait>, String> {
        let mut slot = self.slots[s].write().expect("slot");
        if slot.is_some() {
            return Err(format!("this node already serves shard {s}"));
        }
        *self.backups[s].write().expect("backup slot") = None;
        let wait = self.repl.as_ref().map(|rt| {
            let end = core.events();
            let repl = Arc::new(ReplState::new(
                s as u16,
                end,
                rt.replicas as usize,
                Arc::clone(&rt.notifier),
            ));
            core.set_repl(Arc::clone(&repl));
            (repl, end)
        });
        *slot = Some(core);
        drop(slot);
        self.telemetry
            .gauge("node.shards_hosted")
            .set(self.hosted().len() as u64);
        Ok(wait)
    }

    /// Where a primary of shard `s` persists its snapshot, if anywhere.
    fn snapshot_path(&self, s: usize) -> Option<PathBuf> {
        let dir = self.config.snapshot_dir.as_ref()?;
        Some(dir.join(format!("shard-{s}.jsonl")))
    }

    /// The restore validation warm start and a snapshot bootstrap run:
    /// the snapshot must fit shard `s`'s sub-catalog,
    /// policy and cache budget.
    fn validate_restore(&self, s: usize, snap: &EngineSnapshot) -> Result<(), String> {
        let sub = self.map.shard_catalog(s, &self.catalog);
        let config = &self.config;
        snap.validate(&sub, config.policy.policy_name())
            .map_err(|e| e.to_string())?;
        // A restored engine keeps the snapshot's cache capacity, so a
        // changed cache budget must refuse loudly rather than be ignored
        // invisibly.
        let configured = config
            .policy
            .build(self.caches[s], config.shard_seed(s))
            .preferred_capacity(&sub, self.caches[s]);
        if snap.capacity != configured {
            return Err(format!(
                "was taken with cache capacity {} but this configuration yields {}; \
                 restart with the original cache budget or clear the snapshot directory",
                snap.capacity, configured
            ));
        }
        Ok(())
    }

    /// Decodes a shard state blob and validates it for shard `s`.
    fn restore_blob(&self, s: usize, state: &[u8]) -> Result<EngineSnapshot, String> {
        let snap = std::str::from_utf8(state)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
            .and_then(snapshot_from_str)
            .map_err(|e| format!("bad state blob: {e}"))?;
        self.validate_restore(s, &snap)?;
        Ok(snap)
    }

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
    let factory_shared = Arc::clone(&shared);
    let factory: FrameFactory = Arc::new(move || -> Box<dyn FrameHandler> {
        Box::new(NodeHandler::new(Arc::clone(&factory_shared)))
    });
    // Only a replicating node parks replies; at `--replicas 0` every
    // reply is written as it is served, on no backend.
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
        threads: shared.config.front.threads,
        shutdown,
        wire: shared.wire.clone(),
        rtel: ReactorTelemetry::register(&shared.telemetry),
        stall_limit: shared.config.stall_limit,
        factory,
        backend,
    }
    .run(listener);
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

/// Per-connection mutable state the request handler threads through.
struct ConnState {
    /// This connection's SQL compiler clone, when the server has one.
    compiler: Option<QueryCompiler>,
    /// The routing epoch the peer declared in its last `Hello` (0 until
    /// it handshakes) — what cluster-mode event requests are fenced
    /// against.
    epoch: u64,
    /// The serving frame's buffers, reused across frames.
    frame: FrameBuf,
}

/// What [`run_ops`] works in: each global shard's ops, in item order,
/// and the merge of their replies. A connection keeps one and reuses it
/// for every event frame, so a steady stream of frames allocates
/// neither.
struct FrameBuf {
    ops: Vec<Vec<ShardOp>>,
    merge: MergeState,
}

impl FrameBuf {
    /// Empties the buffers for a frame of `n_items` items.
    fn start(&mut self, n_items: usize) -> &mut FrameBuf {
        self.ops.iter_mut().for_each(Vec::clear);
        self.merge.reset(n_items);
        self
    }
}

impl ConnState {
    fn new(shared: &Shared) -> ConnState {
        // Each connection compiles SQL with its own clone of the
        // frontend — compilation is CPU-bound, so connections never
        // contend on it.
        ConnState {
            compiler: shared.frontend.as_ref().map(|c| (**c).clone()),
            epoch: 0,
            frame: FrameBuf {
                ops: vec![Vec::new(); shared.slots.len()],
                merge: MergeState::new(0),
            },
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

/// Serves one request frame for [`NodeHandler`]: decode, meter, unwrap
/// a `Tagged` envelope and dispatch. Pushes the replication offsets the
/// reply must wait for onto `waits`.
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

/// Serves one decoded request. Every event frame (`Query`, `Update`,
/// `Sql`, `Batch`, `NodeOps`) takes the one path, [`run_ops`], which
/// pushes, per replicated shard it touched, the log end it must wait
/// for onto `waits`: the reply leaves only once every reachable backup
/// holds those events — what makes an acknowledged write survive this
/// node's death.
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
        Request::Query(q) => serve_items(
            shared,
            &mut conn.frame,
            ReplyKind::Single,
            OpClass::Query,
            [BatchItem::Query(q)],
            waits,
        ),
        Request::Update(u) => serve_items(
            shared,
            &mut conn.frame,
            ReplyKind::Single,
            OpClass::Update,
            [BatchItem::Update(u)],
            waits,
        ),
        Request::Sql { seq, sql } => {
            let Some(compiler) = conn.compiler.as_ref() else {
                return Response::Error {
                    code: error_code::SQL_UNAVAILABLE,
                    message: "server has no SQL frontend (start it from a workload preset)"
                        .to_string(),
                };
            };
            match compile_sql(compiler, seq, &sql) {
                Ok((event, kind)) => serve_items(
                    shared,
                    &mut conn.frame,
                    kind,
                    OpClass::Sql,
                    [BatchItem::Query(event)],
                    waits,
                ),
                Err(rejected) => rejected,
            }
        }
        Request::Batch(items) => serve_items(
            shared,
            &mut conn.frame,
            ReplyKind::Batch,
            OpClass::Batch,
            items,
            waits,
        ),
        Request::NodeOps(ops) => handle_node_ops(shared, &mut conn.frame, ops, waits),
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
        Request::DetachShard { shard } => handle_detach(shared, shard).unwrap_or_else(|r| r),
        Request::SetEpoch { epoch } => {
            if shared.config.cluster.is_none() {
                return not_clustered("SetEpoch");
            }
            // A new epoch commits the move a held core belonged to.
            for held in &shared.held {
                *held.lock().expect("held slot") = None;
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
        } => handle_replicate(shared, shard, from_offset, items).unwrap_or_else(|r| r),
        Request::ReplicaBootstrap { shard, state } => {
            handle_replica_bootstrap(shared, shard, &state).unwrap_or_else(|r| r)
        }
        Request::ReplicaStatus => handle_replica_status(shared),
        Request::Promote { shard, fence } => {
            handle_promote(shared, shard, fence, waits).unwrap_or_else(|r| r)
        }
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

/// Splits client items over this node's shards and serves them on
/// the one path, [`run_ops`].
fn serve_items<I>(
    shared: &Shared,
    frame: &mut FrameBuf,
    kind: ReplyKind,
    class: OpClass,
    items: I,
    waits: &mut Vec<Wait>,
) -> Response
where
    I: IntoIterator<Item = BatchItem>,
    I::IntoIter: ExactSizeIterator,
{
    let items = items.into_iter();
    let FrameBuf { ops, merge } = frame.start(items.len());
    split_items(
        &*shared.map,
        &shared.catalog,
        items,
        merge,
        |s, item, sub| ops[s].push(ShardOp::new(item as u32, sub)),
    );
    run_ops(shared, frame, class, kind, waits)
}

/// Serves the router's pre-split, shard-targeted ops on the one path.
/// Each op is its own item (a query op declares a split width of 1), so
/// the `BatchOk` carries one reply per op, in op order.
fn handle_node_ops(
    shared: &Shared,
    frame: &mut FrameBuf,
    ops: Vec<NodeOp>,
    waits: &mut Vec<Wait>,
) -> Response {
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
    let FrameBuf {
        ops: shard_ops,
        merge,
    } = frame.start(ops.len());
    for (i, op) in ops.into_iter().enumerate() {
        if matches!(op.item, BatchItem::Query(_)) {
            merge.expect_query(i, 1);
        }
        shard_ops[op.shard as usize].push(ShardOp::new(i as u32, op.item));
    }
    run_ops(shared, frame, OpClass::Batch, ReplyKind::Batch, waits)
}

/// A shard's read-locked slot, tagged with its shard id.
type LockedShard<'a> = (usize, RwLockReadGuard<'a, Option<ShardCore>>);

/// The one function that locks shard slots and runs sub-batches for
/// event requests. `frame.ops` holds each shard's ops in item order,
/// which keeps a batched replay byte-identical to the same events sent
/// one frame at a time.
///
/// Every touched shard must be hosted here before anything executes
/// (else `WRONG_NODE`): a stale map must never half-run a frame. Items a
/// promoted primary's fence blocks are poisoned and dropped, each
/// remaining shard runs its ops as one sub-batch under `class`, the
/// outcomes merge into `frame.merge`, and, per replicated shard, the log end
/// the reply must wait for is pushed onto `waits`. Queries are events
/// too, so their replies wait for backups like updates do.
fn run_ops(
    shared: &Shared,
    frame: &mut FrameBuf,
    class: OpClass,
    kind: ReplyKind,
    waits: &mut Vec<Wait>,
) -> Response {
    let FrameBuf { ops, merge } = frame;
    let mut guards: Vec<LockedShard<'_>> = Vec::new();
    for (s, shard_ops) in ops.iter().enumerate() {
        if shard_ops.is_empty() {
            continue;
        }
        let guard = shared.slots[s].read().expect("slot");
        if guard.is_none() {
            return wrong_node(shared, s);
        }
        guards.push((s, guard));
    }
    fence_items(&guards, ops, merge);
    for (s, guard) in &guards {
        let shard_ops = &mut ops[*s];
        // A shard whose every op was fenced runs nothing.
        if shard_ops.is_empty() {
            continue;
        }
        let core = guard.as_ref().expect("checked above");
        core.run(class, shard_ops.drain(..), |outcome| {
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
                        shard: *s as u16,
                        version,
                    },
                ),
            };
            merge
                .absorb(reply, item as usize)
                .expect("every query op's item declared itself a query");
        });
        waits.extend(core.repl().map(|r| (Arc::clone(r), r.end())));
    }
    drop(guards);
    shape_response(&kind, merge)
}

/// Resharding step 1 at the losing node: stop serving the shard, hold
/// its core, and hand a snapshot of its state back. A `Promote` takes
/// the held core back if the move fails; the `SetEpoch` that commits
/// the move drops it.
fn handle_detach(shared: &Shared, shard: u16) -> Result<Response, Response> {
    let s = admin_shard(shared, "DetachShard", shard)?;
    // The write lock waits out every in-flight op on this shard, so the
    // snapshot is taken at a quiescent point.
    let mut slot = shared.slots[s].write().expect("slot");
    let Some(core) = slot.as_ref() else {
        drop(slot);
        return Err(wrong_node(shared, s));
    };
    // Serialize and size-check BEFORE committing to the detach: a
    // snapshot that cannot ride a frame leaves the shard served.
    let state = snapshot_to_string(&core.snapshot());
    if state.len() + 16 > crate::protocol::MAX_FRAME_BYTES as usize {
        return Err(Response::Error {
            code: error_code::RESHARD_FAILED,
            message: format!(
                "shard {shard}'s snapshot is {} bytes — too large for a \
                 {}-byte frame; the shard stays hosted here",
                state.len(),
                crate::protocol::MAX_FRAME_BYTES
            ),
        });
    }
    let mut core = slot.take().expect("checked above");
    core.forget_snapshot_file();
    *shared.held[s].lock().expect("held slot") = Some(core);
    drop(slot);
    shared
        .telemetry
        .gauge("node.shards_hosted")
        .set(shared.hosted().len() as u64);
    Ok(Response::ShardState {
        shard,
        state: state.into_bytes(),
    })
}

/// Promotion fences: an item the old primary applied before failover
/// must not re-execute, and must not half-execute on its other shards
/// either, so any fenced shard fences the whole item. Fenced items get
/// the typed `ALREADY_APPLIED` reply and their ops leave every shard's
/// sub-batch.
fn fence_items(guards: &[LockedShard<'_>], ops: &mut [Vec<ShardOp>], merge: &mut MergeState) {
    let mut dead: Vec<u32> = Vec::new();
    for (s, guard) in guards {
        let fence = guard.as_ref().expect("checked by run_ops").fence();
        if fence == 0 {
            continue;
        }
        for op in ops[*s].iter().filter(|op| op.seq() <= fence) {
            merge.poison(
                op.item() as usize,
                error_code::ALREADY_APPLIED,
                format!(
                    "seq {} was applied before failover (fence {fence})",
                    op.seq()
                ),
            );
            dead.push(op.item());
        }
    }
    if !dead.is_empty() {
        for shard_ops in ops.iter_mut() {
            shard_ops.retain(|op| !dead.contains(&op.item()));
        }
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
) -> Result<Response, Response> {
    let s = admin_shard(shared, "Replicate", shard)?;
    let guard = shared.backups[s].read().expect("backup slot");
    let Some(core) = guard.as_ref() else {
        return Err(Response::Error {
            code: error_code::NOT_REPLICA,
            message: format!("no backup of shard {shard} here; bootstrap first"),
        });
    };
    let at = core.events();
    if at != from_offset {
        return Err(Response::Error {
            code: error_code::NOT_REPLICA,
            message: format!(
                "backup of shard {shard} stands at offset {at}, not {from_offset}; re-bootstrap"
            ),
        });
    }
    let n = items.len() as u64;
    let ops = items
        .into_iter()
        .enumerate()
        .map(|(i, item)| ShardOp::new(i as u32, item));
    core.run(OpClass::Batch, ops, |_| {});
    let offset = core.events();
    drop(guard);
    shared.telemetry.counter("replica.applied_events").add(n);
    Ok(Response::ReplicaOk { shard, offset })
}

/// Seeds (or re-seeds) a backup twin of `shard`. An empty state blob
/// means "build a fresh core" — the zero-event bootstrap whose replay
/// lineage is byte-identical to the primary's (policy init included);
/// a non-empty blob is an engine snapshot for late catch-up after log
/// truncation (a deterministic twin, the same lineage as a migrated
/// shard). Re-bootstrapping over an existing backup is allowed.
fn handle_replica_bootstrap(
    shared: &Shared,
    shard: u16,
    state: &[u8],
) -> Result<Response, Response> {
    let s = admin_shard(shared, "ReplicaBootstrap", shard)?;
    if let Some(allow) = shared
        .config
        .replication
        .as_ref()
        .and_then(|r| r.backup_of.as_ref())
    {
        if !allow.contains(&shard) {
            return Err(Response::Error {
                code: error_code::NOT_REPLICA,
                message: format!("this node does not back up shard {shard} (--backup-of)"),
            });
        }
    }
    let restore = match state {
        [] => None,
        state => Some(
            shared
                .restore_blob(s, state)
                .map_err(|msg| Response::Error {
                    code: error_code::NOT_REPLICA,
                    message: format!("bootstrap shard {shard}: {msg}"),
                })?,
        ),
    };
    // Backups never persist: the primary re-seeds them on demand, and a
    // backup snapshot on disk could resurrect stale state as a primary
    // after a cold restart.
    let core = shared.shard_core(s, restore, None);
    let offset = core.events();
    // Slot before backup, as in `install_primary`: a shard served here
    // never gets a backup here too.
    let slot = shared.slots[s].read().expect("slot");
    if slot.is_some() {
        return Err(Response::Error {
            code: error_code::NOT_REPLICA,
            message: format!("shard {shard} is served as a primary here"),
        });
    }
    *shared.backups[s].write().expect("backup slot") = Some(core);
    drop(slot);
    shared.telemetry.counter("replica.bootstraps").inc();
    Ok(Response::ReplicaOk { shard, offset })
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

/// Turns this node's copy of `shard` into the serving primary: the core
/// a detach left held here (a move's rollback, policy state intact),
/// or else its backup twin (a failover, or a move's new owner). With
/// `fence`, the promoted core fences every sequence number the old
/// primary applied (a retried event gets the typed `ALREADY_APPLIED`,
/// never a double apply); without it the core keeps its own fence. The
/// core adopts this node's snapshot directory and is installed like any
/// primary: the `PromoteOk` parks until every reachable successor
/// bootstrapped.
fn handle_promote(
    shared: &Shared,
    shard: u16,
    fence: bool,
    waits: &mut Vec<Wait>,
) -> Result<Response, Response> {
    let s = admin_shard(shared, "Promote", shard)?;
    let not_replica = |message: String| Response::Error {
        code: error_code::NOT_REPLICA,
        message,
    };
    // A shard served here has no copy here, so a copy to take means
    // the shard is not served here yet.
    let held = shared.held[s].lock().expect("held slot").take();
    let Some(copy) = held.or_else(|| shared.backups[s].write().expect("backup slot").take()) else {
        return Err(not_replica(format!(
            "no copy of shard {shard} to promote here"
        )));
    };
    let (core, offset) = copy.into_primary(shared.snapshot_path(s), fence);
    waits.extend(shared.install_primary(s, core).map_err(not_replica)?);
    shared.telemetry.counter("node.promotions").inc();
    Ok(Response::PromoteOk { shard, offset })
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

fn wrong_node(shared: &Shared, shard: usize) -> Response {
    Response::Error {
        code: error_code::WRONG_NODE,
        message: format!(
            "shard {shard} is not hosted on this node (epoch {}); refresh the routing map",
            shared.epoch.load(Ordering::SeqCst)
        ),
    }
}

/// The shard a shard-level admin frame names, or the reply refusing
/// it: every such verb needs cluster mode and a shard in range.
fn admin_shard(shared: &Shared, what: &str, shard: u16) -> Result<usize, Response> {
    if shared.config.cluster.is_none() {
        return Err(not_clustered(what));
    }
    if shard as usize >= shared.slots.len() {
        return Err(Response::Error {
            code: error_code::BAD_FRAME,
            message: format!("shard {shard} out of range"),
        });
    }
    Ok(shard as usize)
}

fn not_clustered(what: &str) -> Response {
    Response::Error {
        code: error_code::NOT_CLUSTERED,
        message: format!("{what} requires cluster mode (start the node with a cluster role)"),
    }
}
