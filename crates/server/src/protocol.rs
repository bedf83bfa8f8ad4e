//! The delta-server wire protocol.
//!
//! Frames are length-prefixed binary: a 4-byte big-endian payload length,
//! then a 1-byte opcode, then opcode-specific fields (integers big-endian,
//! strings length-prefixed UTF-8). The event-shaped request kinds —
//! `Query`, `Update`, `Stats` and `Shutdown` — mirror the event model of
//! the in-process simulator so a trace replay over TCP exercises exactly
//! the decisions `sim::simulate` makes. On top of those, three kinds make
//! the wire a real query interface:
//!
//! * [`Request::Sql`] carries raw SQL text; the server compiles it with a
//!   per-connection [`delta_query::QueryCompiler`] into the access set
//!   `B(q)` and serves it like any query. Compile failures come back as
//!   the typed [`Response::SqlRejected`], carrying the
//!   [`delta_query::QueryError`] stage, span and message.
//! * [`Request::Batch`] packs many query/update events into one frame;
//!   the server runs each shard's sub-events as one sub-batch under one
//!   lock acquisition, amortizing the fan-out cost, and replies with one
//!   [`Response::BatchOk`] holding a per-item reply in item order.
//! * [`Request::Tagged`] wraps any other request with a caller-chosen
//!   correlation id the server echoes on the [`Response::Tagged`] reply —
//!   what lets a pipelined client keep a bounded window of frames in
//!   flight and match replies even if a future server reorders them.
//!
//! The protocol is synchronous per connection: every request frame gets
//! exactly one response frame, in order. Concurrency comes from running
//! many connections (the server fans each request out to its shards) and
//! from pipelining tagged frames within one.

use delta_core::{CostLedger, EngineMetrics};
use delta_storage::ObjectId;
use delta_telemetry::{HistogramSnapshot, TelemetrySnapshot};
use delta_workload::{QueryEvent, QueryKind, UpdateEvent};
use std::io::{self, Read, Write};

/// The protocol version both ends must speak. A peer declares it in
/// [`Request::Hello`], and a node or router answers a different value
/// with a typed `BAD_FRAME` instead of misreading later frames. Every
/// frame this module encodes is part of the contract, and
/// `tests/golden_frames.rs` pins their bytes; a change to any frame's
/// layout bumps this number.
pub const PROTOCOL_VERSION: u8 = 7;

/// Upper bound on a frame payload, to fail fast on corrupt length words.
pub const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

const OP_QUERY: u8 = 0x01;
const OP_UPDATE: u8 = 0x02;
const OP_STATS: u8 = 0x03;
const OP_SHUTDOWN: u8 = 0x04;
const OP_SQL: u8 = 0x05;
const OP_BATCH: u8 = 0x06;
const OP_HELLO: u8 = 0x07;
const OP_NODE_OPS: u8 = 0x08;
const OP_DETACH_SHARD: u8 = 0x09;
// 0x0A and 0x8A are unassigned: the retired shard-attach pair.
const OP_SET_EPOCH: u8 = 0x0B;
const OP_RESHARD: u8 = 0x0C;
const OP_TELEMETRY: u8 = 0x0D;
const OP_REPLICATE: u8 = 0x0E;
const OP_REPLICA_BOOTSTRAP: u8 = 0x0F;
const OP_TAGGED: u8 = 0x10;
const OP_REPLICA_STATUS: u8 = 0x11;
const OP_PROMOTE: u8 = 0x12;
const OP_QUERY_OK: u8 = 0x81;
const OP_UPDATE_OK: u8 = 0x82;
const OP_STATS_OK: u8 = 0x83;
const OP_SHUTDOWN_OK: u8 = 0x84;
const OP_SQL_OK: u8 = 0x85;
const OP_SQL_REJECTED: u8 = 0x86;
const OP_BATCH_OK: u8 = 0x87;
const OP_HELLO_OK: u8 = 0x88;
const OP_SHARD_STATE: u8 = 0x89;
const OP_EPOCH_OK: u8 = 0x8B;
const OP_RESHARD_OK: u8 = 0x8C;
const OP_TELEMETRY_OK: u8 = 0x8D;
const OP_REPLICA_OK: u8 = 0x8E;
const OP_REPLICA_STATUS_OK: u8 = 0x8F;
const OP_TAGGED_OK: u8 = 0x90;
const OP_PROMOTE_OK: u8 = 0x92;
const OP_WRONG_EPOCH: u8 = 0x91;
const OP_ERROR: u8 = 0xFF;

/// The smallest encodable [`BatchItem`] (an update: tag + seq + object +
/// bytes), used to validate attacker-controlled item counts before
/// allocating.
const MIN_BATCH_ITEM_BYTES: usize = 1 + 8 + 4 + 8;

/// A client-to-server request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Serve a query event (objects are global catalog ids).
    Query(QueryEvent),
    /// Apply an update event at the repository.
    Update(UpdateEvent),
    /// Compile a raw SQL query server-side and serve the result at
    /// sequence number `seq`.
    Sql {
        /// Sequence number the compiled event is stamped with (the
        /// shard clock clamps it to arrival order, like any event).
        seq: u64,
        /// The SQL text, in the frontend's SkyServer-style dialect.
        sql: String,
    },
    /// Serve many events in one frame. Items are processed in order
    /// *per shard*; items owned by different shards run concurrently.
    Batch(Vec<BatchItem>),
    /// Any other request wrapped with a correlation id the server echoes
    /// back. Tagged frames must not nest.
    Tagged {
        /// Caller-chosen correlation id.
        corr: u64,
        /// The wrapped request (never itself `Tagged`).
        inner: Box<Request>,
    },
    /// The v4 node handshake: declares the client's routing epoch (and
    /// protocol version) and asks the peer to describe itself. In
    /// cluster mode the declared epoch is what event requests on this
    /// connection are fenced against — a later [`Response::WrongEpoch`]
    /// means the declared epoch went stale.
    Hello {
        /// The sender's protocol version ([`PROTOCOL_VERSION`]).
        version: u8,
        /// The routing epoch the sender's shard→node map was built at.
        epoch: u64,
    },
    /// Pre-split shard-targeted events — what the router sends a
    /// shard-hosting node after running the cluster partitioner itself.
    /// Replies come back as a [`Response::BatchOk`] with one
    /// [`BatchReply`] per op, in op order (queries report
    /// `shards_touched == 1`).
    NodeOps(Vec<NodeOp>),
    /// Resharding step 1: stop serving `shard` and return its engine
    /// state as a [`Response::ShardState`] blob. The node holds the
    /// detached core, neither served nor a backup, until a
    /// [`Request::Promote`] takes it back or the next
    /// [`Request::SetEpoch`] drops it.
    DetachShard {
        /// Global shard id to detach.
        shard: u16,
    },
    /// Adopt `epoch` as the current routing epoch, fencing every
    /// connection still declaring an older one, and drop any core a
    /// [`Request::DetachShard`] left held: the move it belonged to
    /// committed.
    SetEpoch {
        /// The new routing epoch.
        epoch: u64,
    },
    /// Router-level admin: move `shard` to `to_node`, migrating its
    /// engine state and bumping the routing epoch. Nodes reject this —
    /// only the router coordinates resharding.
    Reshard {
        /// Global shard id to move.
        shard: u16,
        /// Index of the destination node.
        to_node: u16,
    },
    /// Primary→backup log shipping: apply `items` — the shard's
    /// applied event log starting at `from_offset` (the count of events
    /// the backup must already hold) — to the backup copy of `shard`.
    /// Items are shard-local (objects already mapped by the cluster
    /// partitioner), exactly as the primary applied them. A backup
    /// whose offset does not match answers the typed `NOT_REPLICA`
    /// error and the primary re-bootstraps it.
    Replicate {
        /// Global shard id being replicated.
        shard: u16,
        /// Applied-event offset of the first item (events the backup
        /// holds before this frame).
        from_offset: u64,
        /// The applied events, in apply order.
        items: Vec<BatchItem>,
    },
    /// (Re)seed a backup copy of `shard`. An empty `state` asks the
    /// peer to build a fresh shard twin (policy init and all) and
    /// replay the log from offset zero — the byte-identical lineage.
    /// A non-empty `state` is snapshot JSONL: a pump's catch-up when
    /// the primary has truncated its log, or a reshard's
    /// [`Response::ShardState`] blob on its way to the new owner.
    ReplicaBootstrap {
        /// Global shard id to host a backup of.
        shard: u16,
        /// Serialized engine snapshot (JSONL bytes), or empty for a
        /// fresh twin.
        state: Vec<u8>,
    },
    /// Ask a node which backup shards it holds and how caught-up each
    /// is — the router's input to the promotion decision.
    ReplicaStatus,
    /// Promote this node's copy of `shard` into a serving primary: the
    /// core a [`Request::DetachShard`] left held here, or else its
    /// backup. The one verb that turns a copy into a primary, for a
    /// failover, a move and a move's rollback alike.
    Promote {
        /// Global shard id to promote.
        shard: u16,
        /// Fence every sequence number at or below the copy's clock
        /// (`ALREADY_APPLIED`), so a client retrying through a failover
        /// can never double-apply an event. A move sends `false`: the
        /// copy keeps its own fence, and a late, out-of-order sequence
        /// number is still served.
        fence: bool,
    },
    /// Fetch the per-shard and aggregate statistics snapshot.
    Stats,
    /// Fetch the peer's telemetry — latency histograms and wire
    /// counters. Purely observational (never fenced by the routing
    /// epoch, never touching engine state); a router answers with the
    /// merge of every node's snapshot plus its own.
    Telemetry,
    /// Stop the server after replying.
    Shutdown,
}

/// One pre-split, shard-targeted event inside a [`Request::NodeOps`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeOp {
    /// Global shard id the event was routed to (object ids inside the
    /// item are already shard-local).
    pub shard: u16,
    /// The shard-local event.
    pub item: BatchItem,
}

/// What kind of peer answered a [`Request::Hello`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeRole {
    /// A single-process server hosting every shard (no epochs in play).
    Standalone,
    /// A cluster node hosting a subset of the global shards.
    ClusterNode,
    /// A router fronting cluster nodes.
    Router,
}

/// The peer self-description in a [`Response::HelloOk`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeInfo {
    /// What kind of peer this is.
    pub role: NodeRole,
    /// This node's index in the cluster (0 for standalone/router).
    pub node: u16,
    /// Number of nodes in the cluster (1 for standalone).
    pub nodes: u16,
    /// The current routing epoch (0 until the first reshard).
    pub epoch: u64,
    /// Total shard count of the cluster partitioner.
    pub cluster_shards: u16,
    /// The partitioner kind, as accepted by `PartitionerKind::parse`.
    pub partitioner: String,
    /// Catalog fingerprint: object count.
    pub catalog_objects: u64,
    /// Catalog fingerprint: total base bytes.
    pub catalog_bytes: u64,
    /// Global shard ids this peer hosts (routers report all shards).
    pub hosted: Vec<u16>,
}

/// One event inside a [`Request::Batch`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchItem {
    /// A query event (objects are global catalog ids).
    Query(QueryEvent),
    /// An update event.
    Update(UpdateEvent),
}

/// The per-item outcome inside a [`Response::BatchOk`], in item order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchReply {
    /// The query was served (counts over its shard sub-queries).
    Query {
        /// Shards the query touched.
        shards_touched: u16,
        /// Sub-queries answered from shard caches.
        local_answers: u16,
        /// Sub-queries shipped to the repository.
        shipped: u16,
    },
    /// The update was applied.
    Update {
        /// Shard owning the object.
        shard: u16,
        /// The object's new version at that shard.
        version: u64,
    },
    /// This item failed; the rest of the batch is unaffected.
    Error {
        /// Machine-readable error code (see [`error_code`]).
        code: u16,
        /// Human-readable explanation.
        message: String,
    },
}

/// Which frontend stage rejected the SQL of a [`Response::SqlRejected`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SqlStage {
    /// Lexing/parsing failed; the span points into the SQL text.
    Parse,
    /// Semantic analysis against the schema failed.
    Analyze,
}

/// Per-shard statistics in a [`Response::StatsOk`] snapshot: the
/// engine's uniform metrics, tagged with the shard's identity.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ShardStats {
    /// Shard index.
    pub shard: u16,
    /// Policy driving this shard.
    pub policy: String,
    /// The shard engine's operational counters (ledger, hit rate,
    /// tolerance-served queries, cache occupancy).
    pub metrics: EngineMetrics,
}

/// The full statistics snapshot returned by [`Request::Stats`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StatsSnapshot {
    /// One entry per shard, in shard order.
    pub shards: Vec<ShardStats>,
}

impl StatsSnapshot {
    /// Folds the per-shard metrics into one global account (capacities
    /// and occupancy sum; counters add).
    pub fn total_metrics(&self) -> EngineMetrics {
        let mut total = EngineMetrics::default();
        for s in &self.shards {
            total.absorb(&s.metrics);
        }
        total
    }

    /// Sums the per-shard ledgers into one global account.
    pub fn total_ledger(&self) -> CostLedger {
        let mut total = CostLedger::default();
        for s in &self.shards {
            total.absorb(&s.metrics.ledger);
        }
        total
    }

    /// Total events processed across shards.
    pub fn total_events(&self) -> u64 {
        self.shards.iter().map(|s| s.metrics.events()).sum()
    }

    /// Renders the per-shard statistics as the table both binaries print.
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>5} {:>8} {:>9} {:>14} {:>14} {:>14} {:>8} {:>8} {:>8}",
            "shard",
            "events",
            "resident",
            "query-ship",
            "update-ship",
            "load",
            "hit%",
            "tol-srv",
            "evict"
        );
        for s in &self.shards {
            let m = &s.metrics;
            let _ = writeln!(
                out,
                "{:>5} {:>8} {:>9} {:>14} {:>14} {:>14} {:>7.1}% {:>8} {:>8}",
                s.shard,
                m.events(),
                m.residents,
                m.ledger.breakdown.query_ship.to_string(),
                m.ledger.breakdown.update_ship.to_string(),
                m.ledger.breakdown.load.to_string(),
                m.hit_rate() * 100.0,
                m.tolerance_served,
                m.ledger.evictions,
            );
        }
        out
    }

    /// Renders the snapshot as a [`delta_core::SimReport`]-shaped summary,
    /// so server runs slot into the same reporting helpers the simulator
    /// uses (the series holds one closing point).
    pub fn to_sim_report(&self) -> delta_core::SimReport {
        let metrics = self.total_metrics();
        let total = metrics.ledger.total().bytes();
        delta_core::SimReport {
            policy: self
                .shards
                .first()
                .map(|s| format!("{}x{}", s.policy, self.shards.len()))
                .unwrap_or_else(|| "empty".to_string()),
            cache_bytes: metrics.cache_capacity,
            ledger: metrics.ledger.clone(),
            series: vec![delta_core::SeriesPoint {
                seq: metrics.events(),
                cumulative_bytes: total,
            }],
            events: metrics.events(),
            latency: None,
            metrics,
        }
    }
}

/// A server-to-client response.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// The query was served. Counts are over the shard sub-queries the
    /// request fanned out into.
    QueryOk {
        /// Shards the query touched.
        shards_touched: u16,
        /// Sub-queries answered from shard caches.
        local_answers: u16,
        /// Sub-queries shipped to the repository.
        shipped: u16,
    },
    /// The update was applied.
    UpdateOk {
        /// Shard owning the object.
        shard: u16,
        /// The object's new version at that shard.
        version: u64,
    },
    /// The SQL compiled and the resulting query was served.
    SqlOk {
        /// Shards the compiled query touched.
        shards_touched: u16,
        /// Sub-queries answered from shard caches.
        local_answers: u16,
        /// Sub-queries shipped to the repository.
        shipped: u16,
        /// Size of the access set `B(q)` the compiler produced.
        objects: u32,
        /// The estimated result size ν(q) in bytes.
        result_bytes: u64,
        /// The currency requirement `t(q)` parsed from the text.
        tolerance: u64,
        /// The workload classification of the query.
        kind: QueryKind,
    },
    /// The SQL did not compile; the query was not served. Carries the
    /// [`delta_query::QueryError`] diagnostics: failing stage, source
    /// span (zero-width for analyze errors) and rendered message.
    SqlRejected {
        /// The frontend stage that failed.
        stage: SqlStage,
        /// First byte of the offending SQL text.
        span_start: u32,
        /// One past the last offending byte.
        span_end: u32,
        /// The rendered diagnostic.
        message: String,
    },
    /// Per-item outcomes of a [`Request::Batch`], in item order.
    BatchOk(Vec<BatchReply>),
    /// Reply to a [`Request::Tagged`], echoing its correlation id.
    Tagged {
        /// The correlation id from the request.
        corr: u64,
        /// The wrapped response (never itself `Tagged`).
        inner: Box<Response>,
    },
    /// The peer's self-description, answering [`Request::Hello`].
    HelloOk(NodeInfo),
    /// The detached shard's serialized engine state, answering
    /// [`Request::DetachShard`].
    ShardState {
        /// The detached shard.
        shard: u16,
        /// The serialized engine snapshot (JSONL bytes).
        state: Vec<u8>,
    },
    /// The routing epoch was adopted, answering [`Request::SetEpoch`].
    EpochOk {
        /// The epoch now in force.
        epoch: u64,
    },
    /// The reshard completed, answering [`Request::Reshard`].
    ReshardOk {
        /// The routing epoch after the move.
        epoch: u64,
    },
    /// The connection's declared routing epoch is stale: the event was
    /// **not** executed. The client must re-handshake (refetching the
    /// shard→node map) and retry — the typed redirect that guarantees a
    /// stale map can never produce a wrong answer.
    WrongEpoch {
        /// The routing epoch currently in force at this node.
        epoch: u64,
    },
    /// The backup applied a [`Request::Replicate`] suffix (or absorbed
    /// a [`Request::ReplicaBootstrap`]); `offset` is the backup's new
    /// applied-event count — the primary's acknowledged replication
    /// offset for this shard.
    ReplicaOk {
        /// The replicated shard.
        shard: u16,
        /// Applied events the backup now holds.
        offset: u64,
    },
    /// The node's backup shards and their applied-event offsets,
    /// answering [`Request::ReplicaStatus`] (in shard order).
    ReplicaStatusOk(Vec<(u16, u64)>),
    /// The copy was promoted to a serving primary, answering
    /// [`Request::Promote`]; `offset` is the event count it serves
    /// from.
    PromoteOk {
        /// The promoted shard.
        shard: u16,
        /// Applied events at promotion.
        offset: u64,
    },
    /// The statistics snapshot.
    StatsOk(StatsSnapshot),
    /// The telemetry snapshot, answering [`Request::Telemetry`]: this
    /// peer's (or, from a router, the whole cluster's) counters, gauges
    /// and latency histograms.
    TelemetryOk(TelemetrySnapshot),
    /// The server is shutting down.
    ShutdownOk,
    /// The request could not be served.
    Error {
        /// Machine-readable error code.
        code: u16,
        /// Human-readable explanation.
        message: String,
    },
}

/// Error codes carried by [`Response::Error`]. Codes are never reused;
/// 3 is unassigned.
pub mod error_code {
    /// The request frame could not be decoded.
    pub const BAD_FRAME: u16 = 1;
    /// An object id is outside the catalog.
    pub const UNKNOWN_OBJECT: u16 = 2;
    /// The server was started without a SQL frontend (no workload
    /// preset to build the schema/sky/partition from).
    pub const SQL_UNAVAILABLE: u16 = 4;
    /// The shard policy violated the satisfaction contract on this
    /// query (the engine's typed `ContractViolated`). The shard stays
    /// up; the query was not served.
    pub const CONTRACT_VIOLATED: u16 = 5;
    /// The event touches a shard this node does not host (the sender's
    /// shard→node map is wrong or the request was mis-addressed).
    /// Nothing was executed.
    pub const WRONG_NODE: u16 = 6;
    /// A cluster-only request (`NodeOps`, `DetachShard`, `SetEpoch`,
    /// `Reshard`, a replication verb) reached a peer not running in
    /// that role.
    pub const NOT_CLUSTERED: u16 = 7;
    /// A reshard could not be completed; the reply message says which
    /// step failed and where the shard ended up.
    pub const RESHARD_FAILED: u16 = 8;
    /// The request frame's length word exceeds
    /// [`MAX_FRAME_BYTES`](super::MAX_FRAME_BYTES). Sent as the last
    /// frame before the server closes the connection (the remaining
    /// bytes of the oversized frame cannot be skipped safely).
    pub const FRAME_TOO_LARGE: u16 = 9;
    /// The router could not reach the node owning the addressed shards
    /// (connect or handshake failed, or the link died mid-request).
    /// Nothing was executed at that node; the client may retry.
    pub const NODE_UNAVAILABLE: u16 = 10;
    /// A replication verb (`Replicate`, `Promote`) addressed a shard
    /// this node holds no copy of, or a `Replicate` frame's
    /// `from_offset` does not match the backup's applied-event count.
    /// Nothing was applied; the primary re-bootstraps the backup.
    pub const NOT_REPLICA: u16 = 11;
    /// The event's sequence number is at or below the shard's
    /// promotion fence: a previous primary already applied it before
    /// failing over. The event was **not** re-executed; a retrying
    /// client should count the item as done.
    pub const ALREADY_APPLIED: u16 = 12;
}

// ---- primitive encoding helpers ----

/// Appends protocol primitives to a caller-owned buffer, so encoders can
/// reuse one allocation across frames (`encode_into`) instead of minting
/// a `Vec` per message.
struct Enc<'a> {
    buf: &'a mut Vec<u8>,
}

impl<'a> Enc<'a> {
    fn new(buf: &'a mut Vec<u8>, op: u8) -> Self {
        buf.push(op);
        Enc { buf }
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }
    fn str(&mut self, s: &str) {
        let bytes = s.as_bytes();
        let len =
            u16::try_from(bytes.len()).expect("protocol strings are short (policy names, errors)");
        self.u16(len);
        self.buf.extend_from_slice(bytes);
    }
    /// A u32-length-prefixed string, for texts that may outgrow u16
    /// (SQL queries).
    fn lstr(&mut self, s: &str) {
        let bytes = s.as_bytes();
        let len = u32::try_from(bytes.len()).expect("protocol text exceeds u32::MAX bytes");
        self.u32(len);
        self.buf.extend_from_slice(bytes);
    }
    /// A u32-length-prefixed byte blob (serialized engine snapshots).
    fn blob(&mut self, b: &[u8]) {
        let len = u32::try_from(b.len()).expect("protocol blob exceeds u32::MAX bytes");
        self.u32(len);
        self.buf.extend_from_slice(b);
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(bad("truncated frame"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> io::Result<u16> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn str(&mut self) -> io::Result<String> {
        let n = self.u16()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| bad("invalid UTF-8 in frame"))
    }
    fn lstr(&mut self) -> io::Result<String> {
        let n = self.u32()? as usize;
        // `take` bounds-checks against the payload before any allocation,
        // so a hostile length cannot force an oversized Vec.
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| bad("invalid UTF-8 in frame"))
    }
    fn blob(&mut self) -> io::Result<Vec<u8>> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
    fn finish(&self) -> io::Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(bad("trailing bytes in frame"))
        }
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

fn kind_to_u8(k: QueryKind) -> u8 {
    match k {
        QueryKind::Cone => 0,
        QueryKind::Range => 1,
        QueryKind::SelfJoin => 2,
        QueryKind::Aggregate => 3,
        QueryKind::Scan => 4,
        QueryKind::Selection => 5,
    }
}

fn kind_from_u8(v: u8) -> io::Result<QueryKind> {
    Ok(match v {
        0 => QueryKind::Cone,
        1 => QueryKind::Range,
        2 => QueryKind::SelfJoin,
        3 => QueryKind::Aggregate,
        4 => QueryKind::Scan,
        5 => QueryKind::Selection,
        _ => return Err(bad("unknown query kind")),
    })
}

/// Encodes a query event's fields (no opcode/tag byte — callers prefix
/// their own, so the layout is shared by `Query` frames and batch items).
fn enc_query_event(e: &mut Enc<'_>, q: &QueryEvent) {
    e.u64(q.seq);
    e.u64(q.result_bytes);
    e.u64(q.tolerance);
    e.u8(kind_to_u8(q.kind));
    e.u32(u32::try_from(q.objects.len()).expect("query touches more than u32::MAX objects"));
    for o in &q.objects {
        e.u32(o.0);
    }
}

fn dec_query_event(d: &mut Dec<'_>) -> io::Result<QueryEvent> {
    let seq = d.u64()?;
    let result_bytes = d.u64()?;
    let tolerance = d.u64()?;
    let kind = kind_from_u8(d.u8()?)?;
    let n = d.u32()? as usize;
    // Validate the count against the bytes actually present before
    // allocating — the count is attacker-controlled.
    if n > d.remaining() / 4 {
        return Err(bad("object count exceeds frame payload"));
    }
    let mut objects = Vec::with_capacity(n);
    for _ in 0..n {
        objects.push(ObjectId(d.u32()?));
    }
    Ok(QueryEvent {
        seq,
        objects,
        result_bytes,
        tolerance,
        kind,
    })
}

fn enc_update_event(e: &mut Enc<'_>, u: &UpdateEvent) {
    e.u64(u.seq);
    e.u32(u.object.0);
    e.u64(u.bytes);
}

fn dec_update_event(d: &mut Dec<'_>) -> io::Result<UpdateEvent> {
    let seq = d.u64()?;
    let object = ObjectId(d.u32()?);
    let bytes = d.u64()?;
    Ok(UpdateEvent { seq, object, bytes })
}

/// One [`BatchItem`] as every item-carrying frame (`Batch`, `NodeOps`,
/// `Replicate`) writes it: a tag byte, then the event.
#[inline]
fn enc_item(e: &mut Enc<'_>, item: &BatchItem) {
    match item {
        BatchItem::Query(q) => {
            e.u8(0);
            enc_query_event(e, q);
        }
        BatchItem::Update(u) => {
            e.u8(1);
            enc_update_event(e, u);
        }
    }
}

/// Inverse of [`enc_item`].
#[inline]
fn dec_item(d: &mut Dec<'_>) -> io::Result<BatchItem> {
    match d.u8()? {
        0 => Ok(BatchItem::Query(dec_query_event(d)?)),
        1 => Ok(BatchItem::Update(dec_update_event(d)?)),
        _ => Err(bad("unknown batch item tag")),
    }
}

fn enc_ledger(e: &mut Enc<'_>, l: &CostLedger) {
    e.u64(l.breakdown.query_ship.bytes());
    e.u64(l.breakdown.update_ship.bytes());
    e.u64(l.breakdown.load.bytes());
    e.u64(l.shipped_queries);
    e.u64(l.local_answers);
    e.u64(l.update_ships);
    e.u64(l.loads);
    e.u64(l.evictions);
}

fn dec_ledger(d: &mut Dec<'_>) -> io::Result<CostLedger> {
    use delta_core::Cost;
    let mut l = CostLedger::default();
    l.breakdown.query_ship = Cost(d.u64()?);
    l.breakdown.update_ship = Cost(d.u64()?);
    l.breakdown.load = Cost(d.u64()?);
    l.shipped_queries = d.u64()?;
    l.local_answers = d.u64()?;
    l.update_ships = d.u64()?;
    l.loads = d.u64()?;
    l.evictions = d.u64()?;
    Ok(l)
}

fn enc_metrics(e: &mut Enc<'_>, m: &EngineMetrics) {
    enc_ledger(e, &m.ledger);
    e.u64(m.queries);
    e.u64(m.updates);
    e.u64(m.tolerance_served);
    e.u64(m.cache_capacity);
    e.u64(m.cache_used);
    e.u64(m.residents);
}

fn dec_metrics(d: &mut Dec<'_>) -> io::Result<EngineMetrics> {
    Ok(EngineMetrics {
        ledger: dec_ledger(d)?,
        queries: d.u64()?,
        updates: d.u64()?,
        tolerance_served: d.u64()?,
        cache_capacity: d.u64()?,
        cache_used: d.u64()?,
        residents: d.u64()?,
    })
}

/// The smallest encodable named counter/gauge entry: an empty-name
/// string prefix plus the value.
const MIN_METRIC_ENTRY_BYTES: usize = 2 + 8;
/// The smallest encodable histogram entry: empty name, count/sum/max,
/// and an empty bucket list.
const MIN_HISTOGRAM_BYTES: usize = 2 + 8 + 8 + 8 + 4;
/// One sparse histogram bucket on the wire: index + count.
const BUCKET_BYTES: usize = 4 + 8;

fn enc_telemetry(e: &mut Enc<'_>, t: &TelemetrySnapshot) {
    e.u32(u32::try_from(t.counters.len()).expect("counter list exceeds u32::MAX"));
    for (name, v) in &t.counters {
        e.str(name);
        e.u64(*v);
    }
    e.u32(u32::try_from(t.gauges.len()).expect("gauge list exceeds u32::MAX"));
    for (name, v) in &t.gauges {
        e.str(name);
        e.u64(*v);
    }
    e.u32(u32::try_from(t.histograms.len()).expect("histogram list exceeds u32::MAX"));
    for (name, h) in &t.histograms {
        e.str(name);
        e.u64(h.count);
        e.u64(h.sum);
        e.u64(h.max);
        e.u32(u32::try_from(h.buckets.len()).expect("bucket list exceeds u32::MAX"));
        for &(i, c) in &h.buckets {
            e.u32(i);
            e.u64(c);
        }
    }
}

fn dec_telemetry(d: &mut Dec<'_>) -> io::Result<TelemetrySnapshot> {
    // Every count below is validated against the bytes actually present
    // before allocating — counts are attacker-controlled.
    let n = d.u32()? as usize;
    if n > d.remaining() / MIN_METRIC_ENTRY_BYTES {
        return Err(bad("telemetry counter count exceeds frame payload"));
    }
    let mut counters = Vec::with_capacity(n);
    for _ in 0..n {
        counters.push((d.str()?, d.u64()?));
    }
    let n = d.u32()? as usize;
    if n > d.remaining() / MIN_METRIC_ENTRY_BYTES {
        return Err(bad("telemetry gauge count exceeds frame payload"));
    }
    let mut gauges = Vec::with_capacity(n);
    for _ in 0..n {
        gauges.push((d.str()?, d.u64()?));
    }
    let n = d.u32()? as usize;
    if n > d.remaining() / MIN_HISTOGRAM_BYTES {
        return Err(bad("telemetry histogram count exceeds frame payload"));
    }
    let mut histograms = Vec::with_capacity(n);
    for _ in 0..n {
        let name = d.str()?;
        let count = d.u64()?;
        let sum = d.u64()?;
        let max = d.u64()?;
        let nb = d.u32()? as usize;
        if nb > d.remaining() / BUCKET_BYTES {
            return Err(bad("histogram bucket count exceeds frame payload"));
        }
        let mut buckets = Vec::with_capacity(nb);
        let mut prev: Option<u32> = None;
        for _ in 0..nb {
            let i = d.u32()?;
            // Merging and quantile extraction assume the sparse form:
            // in-range indices, strictly increasing — reject anything
            // else before it can poison a cluster roll-up.
            if i as usize >= delta_telemetry::N_BUCKETS {
                return Err(bad("histogram bucket index out of range"));
            }
            if prev.is_some_and(|p| p >= i) {
                return Err(bad("histogram buckets not strictly increasing"));
            }
            prev = Some(i);
            buckets.push((i, d.u64()?));
        }
        histograms.push((
            name,
            HistogramSnapshot {
                count,
                sum,
                max,
                buckets,
            },
        ));
    }
    Ok(TelemetrySnapshot {
        counters,
        gauges,
        histograms,
    })
}

impl Request {
    /// Encodes the request payload (opcode included, length prefix not)
    /// into a fresh buffer. Prefer [`Request::encode_into`] on hot paths.
    ///
    /// # Panics
    /// Panics when asked to encode nested [`Request::Tagged`] frames —
    /// constructing one is a caller bug, not a wire condition.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Appends the request payload (opcode included, length prefix not)
    /// to `buf` without allocating. The buffer-reuse contract: the
    /// encoder only ever *appends* — it never clears or reads `buf`, so
    /// callers may stack multiple frames into one buffer and reuse it
    /// across messages (clear between windows, not between frames).
    ///
    /// # Panics
    /// Panics when asked to encode nested [`Request::Tagged`] frames —
    /// constructing one is a caller bug, not a wire condition.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Request::Query(q) => {
                let mut e = Enc::new(buf, OP_QUERY);
                enc_query_event(&mut e, q);
            }
            Request::Update(u) => {
                let mut e = Enc::new(buf, OP_UPDATE);
                enc_update_event(&mut e, u);
            }
            Request::Sql { seq, sql } => {
                let mut e = Enc::new(buf, OP_SQL);
                e.u64(*seq);
                e.lstr(sql);
            }
            Request::Batch(items) => {
                let mut e = Enc::new(buf, OP_BATCH);
                e.u32(u32::try_from(items.len()).expect("batch exceeds u32::MAX items"));
                for item in items {
                    enc_item(&mut e, item);
                }
            }
            Request::Tagged { corr, inner } => {
                assert!(
                    !matches!(**inner, Request::Tagged { .. }),
                    "tagged requests must not nest"
                );
                let mut e = Enc::new(buf, OP_TAGGED);
                e.u64(*corr);
                inner.encode_into(e.buf);
            }
            Request::Hello { version, epoch } => {
                let mut e = Enc::new(buf, OP_HELLO);
                e.u8(*version);
                e.u64(*epoch);
            }
            Request::NodeOps(ops) => {
                let mut e = Enc::new(buf, OP_NODE_OPS);
                e.u32(u32::try_from(ops.len()).expect("node-ops exceeds u32::MAX items"));
                for op in ops {
                    e.u16(op.shard);
                    enc_item(&mut e, &op.item);
                }
            }
            Request::DetachShard { shard } => {
                let mut e = Enc::new(buf, OP_DETACH_SHARD);
                e.u16(*shard);
            }
            Request::SetEpoch { epoch } => {
                let mut e = Enc::new(buf, OP_SET_EPOCH);
                e.u64(*epoch);
            }
            Request::Reshard { shard, to_node } => {
                let mut e = Enc::new(buf, OP_RESHARD);
                e.u16(*shard);
                e.u16(*to_node);
            }
            Request::Replicate {
                shard,
                from_offset,
                items,
            } => {
                let mut e = Enc::new(buf, OP_REPLICATE);
                e.u16(*shard);
                e.u64(*from_offset);
                e.u32(u32::try_from(items.len()).expect("replicate exceeds u32::MAX items"));
                for item in items {
                    enc_item(&mut e, item);
                }
            }
            Request::ReplicaBootstrap { shard, state } => {
                let mut e = Enc::new(buf, OP_REPLICA_BOOTSTRAP);
                e.u16(*shard);
                e.blob(state);
            }
            Request::ReplicaStatus => {
                Enc::new(buf, OP_REPLICA_STATUS);
            }
            Request::Promote { shard, fence } => {
                let mut e = Enc::new(buf, OP_PROMOTE);
                e.u16(*shard);
                e.u8(u8::from(*fence));
            }
            Request::Stats => {
                Enc::new(buf, OP_STATS);
            }
            Request::Telemetry => {
                Enc::new(buf, OP_TELEMETRY);
            }
            Request::Shutdown => {
                Enc::new(buf, OP_SHUTDOWN);
            }
        }
    }

    /// Decodes a request payload.
    pub fn decode(payload: &[u8]) -> io::Result<Request> {
        let mut d = Dec::new(payload);
        let req = Self::decode_inner(&mut d, true)?;
        d.finish()?;
        Ok(req)
    }

    fn decode_inner(d: &mut Dec<'_>, allow_tagged: bool) -> io::Result<Request> {
        Ok(match d.u8()? {
            OP_QUERY => Request::Query(dec_query_event(d)?),
            OP_UPDATE => Request::Update(dec_update_event(d)?),
            OP_SQL => {
                let seq = d.u64()?;
                let sql = d.lstr()?;
                Request::Sql { seq, sql }
            }
            OP_BATCH => {
                let n = d.u32()? as usize;
                // Validate the count against the bytes actually present
                // before allocating — the count is attacker-controlled.
                if n > d.remaining() / MIN_BATCH_ITEM_BYTES {
                    return Err(bad("batch item count exceeds frame payload"));
                }
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(dec_item(d)?);
                }
                Request::Batch(items)
            }
            OP_TAGGED if allow_tagged => {
                let corr = d.u64()?;
                let inner = Self::decode_inner(d, false)?;
                Request::Tagged {
                    corr,
                    inner: Box::new(inner),
                }
            }
            OP_TAGGED => return Err(bad("nested tagged request")),
            OP_HELLO => Request::Hello {
                version: d.u8()?,
                epoch: d.u64()?,
            },
            OP_NODE_OPS => {
                let n = d.u32()? as usize;
                // Smallest op: shard tag + the smallest batch item.
                if n > d.remaining() / (2 + MIN_BATCH_ITEM_BYTES) {
                    return Err(bad("node-op count exceeds frame payload"));
                }
                let mut ops = Vec::with_capacity(n);
                for _ in 0..n {
                    let shard = d.u16()?;
                    let item = dec_item(d)?;
                    ops.push(NodeOp { shard, item });
                }
                Request::NodeOps(ops)
            }
            OP_DETACH_SHARD => Request::DetachShard { shard: d.u16()? },
            OP_SET_EPOCH => Request::SetEpoch { epoch: d.u64()? },
            OP_RESHARD => Request::Reshard {
                shard: d.u16()?,
                to_node: d.u16()?,
            },
            OP_REPLICATE => {
                let shard = d.u16()?;
                let from_offset = d.u64()?;
                let n = d.u32()? as usize;
                // Validate the count against the bytes actually present
                // before allocating — the count is attacker-controlled.
                if n > d.remaining() / MIN_BATCH_ITEM_BYTES {
                    return Err(bad("replicate item count exceeds frame payload"));
                }
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(dec_item(d)?);
                }
                Request::Replicate {
                    shard,
                    from_offset,
                    items,
                }
            }
            OP_REPLICA_BOOTSTRAP => Request::ReplicaBootstrap {
                shard: d.u16()?,
                state: d.blob()?,
            },
            OP_REPLICA_STATUS => Request::ReplicaStatus,
            OP_PROMOTE => Request::Promote {
                shard: d.u16()?,
                fence: match d.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(bad("unknown promote fence flag")),
                },
            },
            OP_STATS => Request::Stats,
            OP_TELEMETRY => Request::Telemetry,
            OP_SHUTDOWN => Request::Shutdown,
            _ => return Err(bad("unknown request opcode")),
        })
    }
}

/// Encodes `Request::Tagged { corr, inner }` straight into `buf` without
/// boxing or cloning the inner request — the pipelined client's hot-path
/// encoder. The caller guarantees `inner` is not itself `Tagged`.
pub(crate) fn encode_tagged_request_into(corr: u64, inner: &Request, buf: &mut Vec<u8>) {
    debug_assert!(!matches!(inner, Request::Tagged { .. }));
    let mut e = Enc::new(buf, OP_TAGGED);
    e.u64(corr);
    inner.encode_into(e.buf);
}

impl Response {
    /// Encodes the response payload (opcode included, length prefix not)
    /// into a fresh buffer. Prefer [`Response::encode_into`] on hot
    /// paths.
    ///
    /// # Panics
    /// Panics when asked to encode nested [`Response::Tagged`] frames —
    /// constructing one is a caller bug, not a wire condition.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Appends the response payload (opcode included, length prefix not)
    /// to `buf` without allocating — same buffer-reuse contract as
    /// [`Request::encode_into`]: append-only, caller owns clearing.
    ///
    /// # Panics
    /// Panics when asked to encode nested [`Response::Tagged`] frames —
    /// constructing one is a caller bug, not a wire condition.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Response::QueryOk {
                shards_touched,
                local_answers,
                shipped,
            } => {
                let mut e = Enc::new(buf, OP_QUERY_OK);
                e.u16(*shards_touched);
                e.u16(*local_answers);
                e.u16(*shipped);
            }
            Response::UpdateOk { shard, version } => {
                let mut e = Enc::new(buf, OP_UPDATE_OK);
                e.u16(*shard);
                e.u64(*version);
            }
            Response::SqlOk {
                shards_touched,
                local_answers,
                shipped,
                objects,
                result_bytes,
                tolerance,
                kind,
            } => {
                let mut e = Enc::new(buf, OP_SQL_OK);
                e.u16(*shards_touched);
                e.u16(*local_answers);
                e.u16(*shipped);
                e.u32(*objects);
                e.u64(*result_bytes);
                e.u64(*tolerance);
                e.u8(kind_to_u8(*kind));
            }
            Response::SqlRejected {
                stage,
                span_start,
                span_end,
                message,
            } => {
                let mut e = Enc::new(buf, OP_SQL_REJECTED);
                e.u8(match stage {
                    SqlStage::Parse => 0,
                    SqlStage::Analyze => 1,
                });
                e.u32(*span_start);
                e.u32(*span_end);
                e.lstr(message);
            }
            Response::BatchOk(replies) => {
                let mut e = Enc::new(buf, OP_BATCH_OK);
                e.u32(u32::try_from(replies.len()).expect("batch exceeds u32::MAX items"));
                for r in replies {
                    match r {
                        BatchReply::Query {
                            shards_touched,
                            local_answers,
                            shipped,
                        } => {
                            e.u8(0);
                            e.u16(*shards_touched);
                            e.u16(*local_answers);
                            e.u16(*shipped);
                        }
                        BatchReply::Update { shard, version } => {
                            e.u8(1);
                            e.u16(*shard);
                            e.u64(*version);
                        }
                        BatchReply::Error { code, message } => {
                            e.u8(2);
                            e.u16(*code);
                            e.str(message);
                        }
                    }
                }
            }
            Response::Tagged { corr, inner } => {
                assert!(
                    !matches!(**inner, Response::Tagged { .. }),
                    "tagged responses must not nest"
                );
                let mut e = Enc::new(buf, OP_TAGGED_OK);
                e.u64(*corr);
                inner.encode_into(e.buf);
            }
            Response::HelloOk(info) => {
                let mut e = Enc::new(buf, OP_HELLO_OK);
                e.u8(match info.role {
                    NodeRole::Standalone => 0,
                    NodeRole::ClusterNode => 1,
                    NodeRole::Router => 2,
                });
                e.u16(info.node);
                e.u16(info.nodes);
                e.u64(info.epoch);
                e.u16(info.cluster_shards);
                e.str(&info.partitioner);
                e.u64(info.catalog_objects);
                e.u64(info.catalog_bytes);
                e.u16(u16::try_from(info.hosted.len()).expect("hosted shard list exceeds u16"));
                for &s in &info.hosted {
                    e.u16(s);
                }
            }
            Response::ShardState { shard, state } => {
                let mut e = Enc::new(buf, OP_SHARD_STATE);
                e.u16(*shard);
                e.blob(state);
            }
            Response::EpochOk { epoch } => {
                let mut e = Enc::new(buf, OP_EPOCH_OK);
                e.u64(*epoch);
            }
            Response::ReshardOk { epoch } => {
                let mut e = Enc::new(buf, OP_RESHARD_OK);
                e.u64(*epoch);
            }
            Response::WrongEpoch { epoch } => {
                let mut e = Enc::new(buf, OP_WRONG_EPOCH);
                e.u64(*epoch);
            }
            Response::ReplicaOk { shard, offset } => {
                let mut e = Enc::new(buf, OP_REPLICA_OK);
                e.u16(*shard);
                e.u64(*offset);
            }
            Response::ReplicaStatusOk(entries) => {
                let mut e = Enc::new(buf, OP_REPLICA_STATUS_OK);
                e.u16(u16::try_from(entries.len()).expect("replica status list exceeds u16"));
                for &(shard, offset) in entries {
                    e.u16(shard);
                    e.u64(offset);
                }
            }
            Response::PromoteOk { shard, offset } => {
                let mut e = Enc::new(buf, OP_PROMOTE_OK);
                e.u16(*shard);
                e.u64(*offset);
            }
            Response::StatsOk(snapshot) => {
                let mut e = Enc::new(buf, OP_STATS_OK);
                e.u16(snapshot.shards.len() as u16);
                for s in &snapshot.shards {
                    e.u16(s.shard);
                    e.str(&s.policy);
                    enc_metrics(&mut e, &s.metrics);
                }
            }
            Response::TelemetryOk(snapshot) => {
                let mut e = Enc::new(buf, OP_TELEMETRY_OK);
                enc_telemetry(&mut e, snapshot);
            }
            Response::ShutdownOk => {
                Enc::new(buf, OP_SHUTDOWN_OK);
            }
            Response::Error { code, message } => {
                let mut e = Enc::new(buf, OP_ERROR);
                e.u16(*code);
                e.str(message);
            }
        }
    }

    /// Decodes a response payload.
    pub fn decode(payload: &[u8]) -> io::Result<Response> {
        let mut d = Dec::new(payload);
        let resp = Self::decode_inner(&mut d, true)?;
        d.finish()?;
        Ok(resp)
    }

    fn decode_inner(d: &mut Dec<'_>, allow_tagged: bool) -> io::Result<Response> {
        Ok(match d.u8()? {
            OP_QUERY_OK => Response::QueryOk {
                shards_touched: d.u16()?,
                local_answers: d.u16()?,
                shipped: d.u16()?,
            },
            OP_UPDATE_OK => Response::UpdateOk {
                shard: d.u16()?,
                version: d.u64()?,
            },
            OP_SQL_OK => Response::SqlOk {
                shards_touched: d.u16()?,
                local_answers: d.u16()?,
                shipped: d.u16()?,
                objects: d.u32()?,
                result_bytes: d.u64()?,
                tolerance: d.u64()?,
                kind: kind_from_u8(d.u8()?)?,
            },
            OP_SQL_REJECTED => Response::SqlRejected {
                stage: match d.u8()? {
                    0 => SqlStage::Parse,
                    1 => SqlStage::Analyze,
                    _ => return Err(bad("unknown SQL error stage")),
                },
                span_start: d.u32()?,
                span_end: d.u32()?,
                message: d.lstr()?,
            },
            OP_BATCH_OK => {
                let n = d.u32()? as usize;
                // Smallest reply is an empty-message error: tag + u16
                // code + u16 length. The guard only bounds allocation;
                // per-reply decoding still checks every byte.
                const MIN_BATCH_REPLY_BYTES: usize = 1 + 2 + 2;
                if n > d.remaining() / MIN_BATCH_REPLY_BYTES {
                    return Err(bad("batch reply count exceeds frame payload"));
                }
                let mut replies = Vec::with_capacity(n);
                for _ in 0..n {
                    replies.push(match d.u8()? {
                        0 => BatchReply::Query {
                            shards_touched: d.u16()?,
                            local_answers: d.u16()?,
                            shipped: d.u16()?,
                        },
                        1 => BatchReply::Update {
                            shard: d.u16()?,
                            version: d.u64()?,
                        },
                        2 => BatchReply::Error {
                            code: d.u16()?,
                            message: d.str()?,
                        },
                        _ => return Err(bad("unknown batch reply tag")),
                    });
                }
                Response::BatchOk(replies)
            }
            OP_TAGGED_OK if allow_tagged => {
                let corr = d.u64()?;
                let inner = Self::decode_inner(d, false)?;
                Response::Tagged {
                    corr,
                    inner: Box::new(inner),
                }
            }
            OP_TAGGED_OK => return Err(bad("nested tagged response")),
            OP_HELLO_OK => {
                let role = match d.u8()? {
                    0 => NodeRole::Standalone,
                    1 => NodeRole::ClusterNode,
                    2 => NodeRole::Router,
                    _ => return Err(bad("unknown node role")),
                };
                let node = d.u16()?;
                let nodes = d.u16()?;
                let epoch = d.u64()?;
                let cluster_shards = d.u16()?;
                let partitioner = d.str()?;
                let catalog_objects = d.u64()?;
                let catalog_bytes = d.u64()?;
                let n = d.u16()? as usize;
                if n > d.remaining() / 2 {
                    return Err(bad("hosted shard count exceeds frame payload"));
                }
                let mut hosted = Vec::with_capacity(n);
                for _ in 0..n {
                    hosted.push(d.u16()?);
                }
                Response::HelloOk(NodeInfo {
                    role,
                    node,
                    nodes,
                    epoch,
                    cluster_shards,
                    partitioner,
                    catalog_objects,
                    catalog_bytes,
                    hosted,
                })
            }
            OP_SHARD_STATE => Response::ShardState {
                shard: d.u16()?,
                state: d.blob()?,
            },
            OP_EPOCH_OK => Response::EpochOk { epoch: d.u64()? },
            OP_RESHARD_OK => Response::ReshardOk { epoch: d.u64()? },
            OP_WRONG_EPOCH => Response::WrongEpoch { epoch: d.u64()? },
            OP_REPLICA_OK => Response::ReplicaOk {
                shard: d.u16()?,
                offset: d.u64()?,
            },
            OP_REPLICA_STATUS_OK => {
                let n = d.u16()? as usize;
                // One entry is a shard id plus an offset.
                if n > d.remaining() / (2 + 8) {
                    return Err(bad("replica status count exceeds frame payload"));
                }
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    entries.push((d.u16()?, d.u64()?));
                }
                Response::ReplicaStatusOk(entries)
            }
            OP_PROMOTE_OK => Response::PromoteOk {
                shard: d.u16()?,
                offset: d.u64()?,
            },
            OP_STATS_OK => {
                let n = d.u16()? as usize;
                // Shard index + empty policy string + the fixed-width
                // metrics block — the least one entry can occupy.
                const MIN_SHARD_STATS_BYTES: usize = 2 + 2 + 14 * 8;
                if n > d.remaining() / MIN_SHARD_STATS_BYTES {
                    return Err(bad("stats shard count exceeds frame payload"));
                }
                let mut shards = Vec::with_capacity(n);
                for _ in 0..n {
                    let shard = d.u16()?;
                    let policy = d.str()?;
                    let metrics = dec_metrics(d)?;
                    shards.push(ShardStats {
                        shard,
                        policy,
                        metrics,
                    });
                }
                Response::StatsOk(StatsSnapshot { shards })
            }
            OP_TELEMETRY_OK => Response::TelemetryOk(dec_telemetry(d)?),
            OP_SHUTDOWN_OK => Response::ShutdownOk,
            OP_ERROR => Response::Error {
                code: d.u16()?,
                message: d.str()?,
            },
            _ => return Err(bad("unknown response opcode")),
        })
    }
}

/// Writes one length-prefixed frame as a single socket write (both ends
/// run with TCP_NODELAY, so separate length/payload writes would cost a
/// syscall and often a packet each).
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_BYTES as usize {
        return Err(bad("frame exceeds MAX_FRAME_BYTES"));
    }
    let mut wire = Vec::with_capacity(4 + payload.len());
    wire.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    wire.extend_from_slice(payload);
    w.write_all(&wire)?;
    w.flush()
}

/// Appends one length-prefixed frame to `out`, producing the payload by
/// running `encode` directly against the buffer (no intermediate copy):
/// four zero bytes are reserved, the encoder appends the payload, then
/// the length word is patched in place. Callers stack any number of
/// frames into one buffer and hit the socket with a single `write_all`
/// per window — the coalescing primitive of the wire hot path.
///
/// On an oversized payload the buffer is truncated back to its entry
/// length, so a failed append never leaves a torn frame behind.
pub fn append_frame_with<F: FnOnce(&mut Vec<u8>)>(out: &mut Vec<u8>, encode: F) -> io::Result<()> {
    let start = out.len();
    out.extend_from_slice(&[0u8; 4]);
    encode(out);
    let payload_len = out.len() - start - 4;
    if payload_len > MAX_FRAME_BYTES as usize {
        out.truncate(start);
        return Err(bad("frame exceeds MAX_FRAME_BYTES"));
    }
    out[start..start + 4].copy_from_slice(&(payload_len as u32).to_be_bytes());
    Ok(())
}

/// Reads one length-prefixed frame payload.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Vec<u8>> {
    let mut payload = Vec::new();
    read_frame_into(r, &mut payload)?;
    Ok(payload)
}

/// Reads one length-prefixed frame payload into a reusable buffer (the
/// buffer is cleared, then filled with exactly the payload bytes), so a
/// long-lived connection allocates its read buffer once instead of per
/// frame.
pub fn read_frame_into<R: Read>(r: &mut R, payload: &mut Vec<u8>) -> io::Result<()> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_be_bytes(len_bytes);
    if len > MAX_FRAME_BYTES {
        return Err(bad("frame exceeds MAX_FRAME_BYTES"));
    }
    payload.clear();
    payload.resize(len as usize, 0);
    r.read_exact(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use delta_core::Cost;

    fn round_trip_request(req: Request) {
        let enc = req.encode();
        assert_eq!(Request::decode(&enc).unwrap(), req);
    }

    fn round_trip_response(resp: Response) {
        let enc = resp.encode();
        assert_eq!(Response::decode(&enc).unwrap(), resp);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Query(QueryEvent {
            seq: 42,
            objects: vec![ObjectId(0), ObjectId(7), ObjectId(65_000)],
            result_bytes: 123_456_789,
            tolerance: 500,
            kind: QueryKind::SelfJoin,
        }));
        round_trip_request(Request::Update(UpdateEvent {
            seq: 43,
            object: ObjectId(9),
            bytes: u64::MAX / 3,
        }));
        round_trip_request(Request::Stats);
        round_trip_request(Request::Shutdown);
    }

    #[test]
    fn sql_and_batch_requests_round_trip() {
        round_trip_request(Request::Sql {
            seq: 77,
            sql: "SELECT ra FROM PhotoObj WHERE CIRCLE(185.0, 15.3, 0.5)".into(),
        });
        round_trip_request(Request::Sql {
            seq: 0,
            sql: String::new(),
        });
        round_trip_request(Request::Batch(vec![]));
        round_trip_request(Request::Batch(vec![
            BatchItem::Query(QueryEvent {
                seq: 1,
                objects: vec![ObjectId(4), ObjectId(9)],
                result_bytes: 640,
                tolerance: 3,
                kind: QueryKind::Range,
            }),
            BatchItem::Update(UpdateEvent {
                seq: 2,
                object: ObjectId(4),
                bytes: 99,
            }),
            BatchItem::Query(QueryEvent {
                seq: 3,
                objects: vec![],
                result_bytes: 0,
                tolerance: 0,
                kind: QueryKind::Scan,
            }),
        ]));
        round_trip_request(Request::Tagged {
            corr: u64::MAX,
            inner: Box::new(Request::Sql {
                seq: 5,
                sql: "SELECT COUNT(*) FROM PhotoObj".into(),
            }),
        });
        round_trip_request(Request::Tagged {
            corr: 0,
            inner: Box::new(Request::Stats),
        });
    }

    #[test]
    fn sql_and_batch_responses_round_trip() {
        round_trip_response(Response::SqlOk {
            shards_touched: 4,
            local_answers: 1,
            shipped: 3,
            objects: 17,
            result_bytes: 1 << 40,
            tolerance: 50,
            kind: QueryKind::Cone,
        });
        round_trip_response(Response::SqlRejected {
            stage: SqlStage::Parse,
            span_start: 3,
            span_end: 9,
            message: "expected FROM".into(),
        });
        round_trip_response(Response::SqlRejected {
            stage: SqlStage::Analyze,
            span_start: 0,
            span_end: 0,
            message: "unknown column `zap` in table `PhotoObj`".into(),
        });
        round_trip_response(Response::BatchOk(vec![]));
        round_trip_response(Response::BatchOk(vec![
            BatchReply::Query {
                shards_touched: 2,
                local_answers: 2,
                shipped: 0,
            },
            BatchReply::Update {
                shard: 1,
                version: 12,
            },
            BatchReply::Error {
                code: error_code::UNKNOWN_OBJECT,
                message: "object 99 is outside the catalog".into(),
            },
        ]));
        round_trip_response(Response::Tagged {
            corr: 42,
            inner: Box::new(Response::QueryOk {
                shards_touched: 1,
                local_answers: 1,
                shipped: 0,
            }),
        });
        // Regression: the smallest real reply (empty-message error) must
        // pass the count-vs-payload guard.
        round_trip_response(Response::BatchOk(vec![BatchReply::Error {
            code: 1,
            message: String::new(),
        }]));
    }

    #[test]
    fn cluster_requests_round_trip() {
        round_trip_request(Request::Hello {
            version: PROTOCOL_VERSION,
            epoch: 17,
        });
        round_trip_request(Request::NodeOps(vec![]));
        round_trip_request(Request::NodeOps(vec![
            NodeOp {
                shard: 3,
                item: BatchItem::Query(QueryEvent {
                    seq: 1,
                    objects: vec![ObjectId(0), ObjectId(4)],
                    result_bytes: 99,
                    tolerance: 2,
                    kind: QueryKind::Cone,
                }),
            },
            NodeOp {
                shard: 0,
                item: BatchItem::Update(UpdateEvent {
                    seq: 2,
                    object: ObjectId(1),
                    bytes: 7,
                }),
            },
        ]));
        round_trip_request(Request::DetachShard { shard: 2 });
        round_trip_request(Request::SetEpoch { epoch: u64::MAX });
        round_trip_request(Request::Reshard {
            shard: 5,
            to_node: 1,
        });
    }

    #[test]
    fn cluster_responses_round_trip() {
        round_trip_response(Response::HelloOk(NodeInfo {
            role: NodeRole::ClusterNode,
            node: 1,
            nodes: 2,
            epoch: 3,
            cluster_shards: 4,
            partitioner: "ring".into(),
            catalog_objects: 1_000,
            catalog_bytes: 123_456,
            hosted: vec![1, 3],
        }));
        round_trip_response(Response::HelloOk(NodeInfo {
            role: NodeRole::Standalone,
            node: 0,
            nodes: 1,
            epoch: 0,
            cluster_shards: 8,
            partitioner: "rr".into(),
            catalog_objects: 0,
            catalog_bytes: 0,
            hosted: vec![],
        }));
        round_trip_response(Response::ShardState {
            shard: 7,
            state: vec![1, 2, 3, 255],
        });
        round_trip_response(Response::EpochOk { epoch: 9 });
        round_trip_response(Response::ReshardOk { epoch: 10 });
        round_trip_response(Response::WrongEpoch { epoch: 11 });
    }

    #[test]
    fn replication_requests_round_trip() {
        round_trip_request(Request::Replicate {
            shard: 3,
            from_offset: 0,
            items: vec![],
        });
        round_trip_request(Request::Replicate {
            shard: 1,
            from_offset: u64::MAX / 7,
            items: vec![
                BatchItem::Update(UpdateEvent {
                    seq: 9,
                    object: ObjectId(2),
                    bytes: 41,
                }),
                BatchItem::Query(QueryEvent {
                    seq: 10,
                    objects: vec![ObjectId(0), ObjectId(5)],
                    result_bytes: 640,
                    tolerance: 2,
                    kind: QueryKind::Cone,
                }),
            ],
        });
        round_trip_request(Request::ReplicaBootstrap {
            shard: 2,
            state: Vec::new(),
        });
        round_trip_request(Request::ReplicaBootstrap {
            shard: 2,
            state: b"{\"format\":1}\n".to_vec(),
        });
        round_trip_request(Request::ReplicaStatus);
        round_trip_request(Request::Promote {
            shard: 7,
            fence: true,
        });
        round_trip_request(Request::Promote {
            shard: 0,
            fence: false,
        });
    }

    #[test]
    fn replication_responses_round_trip() {
        round_trip_response(Response::ReplicaOk {
            shard: 3,
            offset: 12_345,
        });
        round_trip_response(Response::ReplicaStatusOk(vec![]));
        round_trip_response(Response::ReplicaStatusOk(vec![(0, 17), (5, u64::MAX)]));
        round_trip_response(Response::PromoteOk {
            shard: 5,
            offset: 99,
        });
    }

    #[test]
    fn hostile_replicate_count_rejected_without_allocation() {
        let mut payload = vec![OP_REPLICATE];
        payload.extend_from_slice(&1u16.to_be_bytes()); // shard
        payload.extend_from_slice(&0u64.to_be_bytes()); // from_offset
        payload.extend_from_slice(&u32::MAX.to_be_bytes()); // item count
        payload.push(1);
        let err = Request::decode(&payload).unwrap_err();
        assert!(err.to_string().contains("replicate item count"), "{err}");
    }

    #[test]
    fn hostile_replica_status_count_rejected_without_allocation() {
        let mut payload = vec![OP_REPLICA_STATUS_OK];
        payload.extend_from_slice(&u16::MAX.to_be_bytes()); // entry count
        payload.push(0);
        let err = Response::decode(&payload).unwrap_err();
        assert!(err.to_string().contains("replica status count"), "{err}");
    }

    #[test]
    fn hostile_node_op_count_rejected_without_allocation() {
        let mut payload = vec![OP_NODE_OPS];
        payload.extend_from_slice(&u32::MAX.to_be_bytes());
        payload.push(1);
        let err = Request::decode(&payload).unwrap_err();
        assert!(err.to_string().contains("node-op count"), "{err}");
    }

    #[test]
    fn hostile_shard_state_length_rejected_without_allocation() {
        let mut payload = vec![OP_REPLICA_BOOTSTRAP];
        payload.extend_from_slice(&3u16.to_be_bytes()); // shard
        payload.extend_from_slice(&u32::MAX.to_be_bytes()); // blob length
        payload.extend_from_slice(b"tiny");
        assert!(Request::decode(&payload).is_err());
    }

    #[test]
    fn nested_tagged_frames_rejected() {
        // A hand-built doubly-tagged request payload must not decode.
        let inner = Request::Tagged {
            corr: 1,
            inner: Box::new(Request::Stats),
        }
        .encode();
        let mut payload = vec![0x10u8];
        payload.extend_from_slice(&2u64.to_be_bytes());
        payload.extend_from_slice(&inner);
        assert!(Request::decode(&payload).is_err());

        let inner = Response::Tagged {
            corr: 1,
            inner: Box::new(Response::ShutdownOk),
        }
        .encode();
        let mut payload = vec![0x90u8];
        payload.extend_from_slice(&2u64.to_be_bytes());
        payload.extend_from_slice(&inner);
        assert!(Response::decode(&payload).is_err());
    }

    #[test]
    fn hostile_batch_count_rejected_without_allocation() {
        // A tiny frame claiming u32::MAX items must fail on the
        // count-vs-payload check, not by reserving a giant Vec.
        let mut payload = vec![0x06u8]; // OP_BATCH
        payload.extend_from_slice(&u32::MAX.to_be_bytes());
        payload.push(1); // one truncated update item
        let err = Request::decode(&payload).unwrap_err();
        assert!(err.to_string().contains("batch item count"), "{err}");
    }

    #[test]
    fn hostile_sql_length_rejected_without_allocation() {
        let mut payload = vec![0x05u8]; // OP_SQL
        payload.extend_from_slice(&1u64.to_be_bytes()); // seq
        payload.extend_from_slice(&u32::MAX.to_be_bytes()); // text length
        payload.extend_from_slice(b"SELECT"); // far fewer bytes present
        assert!(Request::decode(&payload).is_err());
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(Response::QueryOk {
            shards_touched: 3,
            local_answers: 2,
            shipped: 1,
        });
        round_trip_response(Response::UpdateOk {
            shard: 2,
            version: 99,
        });
        round_trip_response(Response::ShutdownOk);
        round_trip_response(Response::Error {
            code: 7,
            message: "object out of range".into(),
        });

        let mut ledger = CostLedger::default();
        ledger.breakdown.query_ship = Cost(11);
        ledger.breakdown.update_ship = Cost(22);
        ledger.breakdown.load = Cost(33);
        ledger.shipped_queries = 4;
        ledger.local_answers = 5;
        ledger.update_ships = 6;
        ledger.loads = 7;
        ledger.evictions = 8;
        let snapshot = StatsSnapshot {
            shards: vec![
                ShardStats {
                    shard: 0,
                    policy: "VCover".into(),
                    metrics: EngineMetrics {
                        ledger: ledger.clone(),
                        queries: 9,
                        updates: 91,
                        tolerance_served: 2,
                        cache_capacity: 1_000,
                        cache_used: 400,
                        residents: 3,
                    },
                },
                ShardStats {
                    shard: 1,
                    policy: "VCover".into(),
                    ..Default::default()
                },
            ],
        };
        assert_eq!(snapshot.total_ledger().total(), Cost(66));
        assert_eq!(snapshot.total_metrics().tolerance_served, 2);
        round_trip_response(Response::StatsOk(snapshot));
    }

    #[test]
    fn snapshot_aggregates_to_sim_report() {
        let mut a = CostLedger::default();
        a.breakdown.query_ship = Cost(10);
        a.shipped_queries = 1;
        let mut b = CostLedger::default();
        b.breakdown.load = Cost(5);
        b.local_answers = 2;
        let snap = StatsSnapshot {
            shards: vec![
                ShardStats {
                    shard: 0,
                    policy: "VCover".into(),
                    metrics: EngineMetrics {
                        ledger: a,
                        queries: 1,
                        updates: 2,
                        cache_capacity: 100,
                        ..Default::default()
                    },
                },
                ShardStats {
                    shard: 1,
                    policy: "VCover".into(),
                    metrics: EngineMetrics {
                        ledger: b,
                        queries: 2,
                        updates: 2,
                        tolerance_served: 1,
                        cache_capacity: 200,
                        ..Default::default()
                    },
                },
            ],
        };
        let report = snap.to_sim_report();
        assert_eq!(report.total(), Cost(15));
        assert_eq!(report.events, 7);
        assert_eq!(report.cache_bytes, 300);
        assert_eq!(report.policy, "VCoverx2");
        assert_eq!(report.ledger.local_answers, 2);
        assert_eq!(report.metrics.tolerance_served, 1);
    }

    #[test]
    fn frame_io_round_trips() {
        let req = Request::Query(QueryEvent {
            seq: 1,
            objects: vec![ObjectId(3)],
            result_bytes: 50,
            tolerance: 0,
            kind: QueryKind::Cone,
        });
        let mut wire = Vec::new();
        write_frame(&mut wire, &req.encode()).unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        let payload = read_frame(&mut cursor).unwrap();
        assert_eq!(Request::decode(&payload).unwrap(), req);
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_be_bytes());
        let mut cursor = std::io::Cursor::new(wire);
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn hostile_object_count_rejected_without_allocation() {
        // 34-byte frame claiming u32::MAX objects: must be rejected by
        // the count-vs-payload check, not by attempting a 16 GiB Vec.
        let mut payload = vec![0x01u8]; // OP_QUERY
        payload.extend_from_slice(&1u64.to_be_bytes()); // seq
        payload.extend_from_slice(&2u64.to_be_bytes()); // result_bytes
        payload.extend_from_slice(&0u64.to_be_bytes()); // tolerance
        payload.push(0); // kind
        payload.extend_from_slice(&u32::MAX.to_be_bytes()); // object count
        let err = Request::decode(&payload).unwrap_err();
        assert!(err.to_string().contains("object count"), "{err}");
    }

    #[test]
    fn oversized_write_rejected_in_release_too() {
        let huge = vec![0u8; MAX_FRAME_BYTES as usize + 1];
        let mut sink = Vec::new();
        assert!(write_frame(&mut sink, &huge).is_err());
        assert!(sink.is_empty(), "nothing may reach the wire");
    }

    #[test]
    fn corrupt_payloads_rejected() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[0x99]).is_err());
        assert!(Request::decode(&[OP_UPDATE, 1, 2]).is_err());
        let mut q = Request::Stats.encode();
        q.push(0);
        assert!(
            Request::decode(&q).is_err(),
            "trailing bytes must be rejected"
        );
        assert!(Response::decode(&[OP_ERROR, 0]).is_err());
    }
}
