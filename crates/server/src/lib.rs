//! # delta-server — the decoupling engine on the wire
//!
//! The paper's Delta is a *middleware* service between clients and a
//! rapidly-growing repository; this crate supplies that missing service
//! layer over the in-process engine:
//!
//! * [`protocol`] — a length-prefixed binary wire protocol: the
//!   event-shaped `Query`, `Update`, `Stats` and `Shutdown` frames, plus
//!   `Sql` (raw SQL compiled server-side into the access set `B(q)`),
//!   `Batch` (many events in one frame, coalesced per shard) and
//!   `Tagged` (correlation-id envelope the pipelined client rides).
//! * [`partition`] — pluggable catalog sharding behind the
//!   [`partition::Partitioner`] trait (round-robin preserved
//!   byte-for-byte, plus a weighted rendezvous [`partition::HashRing`]
//!   with bounded remap), exact result-byte apportioning and the offline
//!   [`partition::shard_trace`] twin that makes server *and cluster*
//!   runs testable against [`delta_core::simulate`].
//! * [`router`] — the cluster tier: `delta-routerd` fronts multiple
//!   `delta-serverd` nodes, splits/merges queries across them exactly
//!   like the in-process frontend does across shards, and coordinates
//!   **live resharding** (drain → snapshot → re-host → epoch bump);
//!   clients holding a stale shard→node map get a typed `WrongEpoch`
//!   redirect, never a wrong answer.
//! * [`mux`] — the correlation mux behind the router's shared node
//!   links: `Tagged`-envelope correlation ids, per-client fan-out
//!   accounting and reply merging as a socket-free state machine, shared
//!   between the reactor data plane and the pipelined client.
//! * [`replication`] — primary/backup replication state: the per-shard
//!   applied-event log a primary ships to its backups, acknowledged
//!   offsets, and the settle notification that makes an acknowledged
//!   write survive the primary's death; the router promotes the
//!   most-caught-up backup via the same detach/attach/epoch machinery
//!   resharding uses.
//! * [`parked`] — a node's reply queue and per-loop ack backend: a
//!   reply waits for its backups parked, never on a blocked event
//!   loop, and leaves in arrival order.
//! * [`shard`] — one lock-protected engine core per shard, each owning a
//!   [`delta_core::CachingPolicy`] (VCover by default, pluggable), a
//!   [`delta_storage::Repository`] slice and a cache, accounting into its
//!   own [`delta_core::CostLedger`]; connection threads execute shard
//!   work inline (no per-event thread handoff).
//! * [`server`] — the TCP listener: per-connection framing threads with
//!   reusable read/write buffers (responses coalesce into one socket
//!   write per pipelined window), wire-byte metering on a
//!   [`delta_net::TrafficMeter`], and graceful drain on shutdown.
//! * [`client`] — the typed clients: lockstep [`DeltaClient`] and the
//!   windowed [`PipelinedClient`].
//!
//! Every tier is instrumented with [`delta_telemetry`]: shard cores
//! split lock-wait from apply time per op class, the shared frame loop
//! counts wire bytes/frames/flushes, and the router times its per-node
//! fan-out — all scraped over the wire with a `Telemetry` frame
//! ([`DeltaClient::telemetry`]; against a router, the reply is the
//! cluster-wide merge). Recording is relaxed atomics off the
//! deterministic path: ledgers are byte-identical with it on or off.
//!
//! Everything is std-only (`std::net` + threads), in the style of
//! `delta_core::deploy`. The binaries `delta-serverd` and `delta-loadgen`
//! wrap [`server::Server`] and [`client::DeltaClient`] for the command
//! line; see the repository README for a two-command quickstart.
//!
//! ```
//! use delta_server::{DeltaClient, PolicyKind, Server, ServerConfig};
//! use delta_storage::{ObjectCatalog, ObjectId};
//! use delta_workload::{QueryEvent, QueryKind, UpdateEvent};
//!
//! let catalog = ObjectCatalog::from_sizes(&[500, 600, 700, 800]);
//! let config = ServerConfig {
//!     bind: "127.0.0.1:0".into(),
//!     n_shards: 2,
//!     cache_bytes: 1_000,
//!     policy: PolicyKind::VCover,
//!     seed: 7,
//!     ..ServerConfig::default()
//! };
//! let server = Server::start(config, catalog).unwrap();
//! let mut client = DeltaClient::connect(server.local_addr()).unwrap();
//!
//! client.update(&UpdateEvent { seq: 1, object: ObjectId(2), bytes: 40 }).unwrap();
//! let reply = client
//!     .query(&QueryEvent {
//!         seq: 2,
//!         objects: vec![ObjectId(0), ObjectId(1)],
//!         result_bytes: 128,
//!         tolerance: 0,
//!         kind: QueryKind::Cone,
//!     })
//!     .unwrap();
//! assert_eq!(reply.shards_touched, 2);
//!
//! let stats = client.stats().unwrap();
//! assert_eq!(stats.total_events(), 3);
//! client.shutdown().unwrap();
//! let final_stats = server.join();
//! assert_eq!(final_stats.total_ledger().total().bytes(), stats.total_ledger().total().bytes());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod config;
pub mod connection;
pub mod front;
pub mod mux;
pub mod parked;
pub mod partition;
pub mod protocol;
pub mod replication;
pub mod router;
pub mod server;
pub mod shard;

pub use client::{DeltaClient, PipelinedClient, QueryReply, SqlRejection, SqlReply, UpdateReply};
pub use config::{ClusterConfig, FrontDoor, PolicyKind, ReplicationConfig, ServerConfig};
pub use connection::{buffered_frame_len, drop_cause, prepare_read_buffer, DropCause};
pub use partition::{apportion, shard_trace, HashRing, Partitioner, PartitionerKind, RoundRobin};
pub use protocol::{
    error_code, read_frame, write_frame, BatchItem, BatchReply, NodeInfo, NodeOp, NodeRole,
    Request, Response, ShardStats, SqlStage, StatsSnapshot,
};
pub use router::{Router, RouterConfig};
pub use server::Server;

// Telemetry is part of the wire surface (`Request::Telemetry` returns a
// `TelemetrySnapshot` frame), so re-export the types a scraping client
// needs without a separate `delta_telemetry` dependency.
pub use delta_telemetry::{Histogram, HistogramSnapshot, Telemetry, TelemetrySnapshot};
