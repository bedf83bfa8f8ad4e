//! Shard cores: one lock-protected [`delta_core::Engine`] per shard,
//! executed *inline* by the connection threads.
//!
//! A shard core is the network driver of the same engine
//! `delta_core::sim` and `delta_core::deploy` run: updates invalidate
//! before the policy sees them, queries run under the satisfaction
//! contract. Because a shard only ever sees its own sub-catalog and
//! sub-trace, its ledger is *byte-identical* to an in-process simulation
//! of that sub-trace — the property the server integration and tri-modal
//! tests pin.
//!
//! Earlier revisions ran one worker thread per shard and ferried every
//! event through a crossbeam channel pair. On the latency-bound lockstep
//! path that cost two thread handoffs per event (four context switches
//! on a loaded box) for microseconds of engine work. The cores are now
//! plain `Mutex<Engine>` values the connection threads lock directly:
//! per-shard serialization (the correctness requirement) is the mutex,
//! cross-connection parallelism is connections locking different shards,
//! and the per-event channel wakeups are gone. A [`ShardOp`] sub-batch
//! still executes under a single lock acquisition, so a batched replay
//! remains one serialization unit per shard exactly as the channel
//! design's coalesced sends were.
//!
//! Two behaviors are shard-specific:
//!
//! * The engine runs with a **clamped clock** (arrival order wins), so
//!   concurrent connections cannot violate the repository's per-object
//!   monotonicity. Under lockstep replay the clamp is a no-op.
//! * A policy that violates the satisfaction contract produces a typed
//!   error the connection layer turns into an error frame — the shard
//!   stays up and keeps serving.
//!
//! When the server was started with a snapshot directory, the core
//! writes its engine snapshot on [`ShardCore::shutdown`], and
//! [`ShardCore::new`] accepts a restored snapshot to resume warm.

use crate::config::PolicyKind;
use crate::protocol::{BatchItem, ShardStats};
use crate::replication::ReplState;
use delta_core::engine::write_snapshot;
use delta_core::PolicyInstruments;
use delta_core::{CachingPolicy, Engine, EngineOutcome, EngineSnapshot};
use delta_storage::ObjectCatalog;
use delta_telemetry::{Counter, Gauge, Histogram, Telemetry};
use delta_workload::{Event, QueryEvent, UpdateEvent};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The engine type a shard core guards: `'static` policy, `Send` so the
/// core can be shared across connection threads.
type ShardEngine = Engine<'static, dyn CachingPolicy + Send>;

/// One operation inside a coalesced sub-batch, tagged with the index of
/// the client-batch item it came from so the connection thread can
/// reassemble per-item replies after the fan-out.
#[derive(Clone, Debug)]
pub enum ShardOp {
    /// Serve a sub-query (local object ids, apportioned bytes).
    Query {
        /// Index of the originating batch item.
        item: u32,
        /// The shard-local sub-query.
        event: QueryEvent,
    },
    /// Apply an update (local object id).
    Update {
        /// Index of the originating batch item.
        item: u32,
        /// The shard-local update.
        event: UpdateEvent,
    },
}

/// Outcome of one [`ShardOp`], in sub-batch order.
#[derive(Clone, Debug)]
pub enum OpOutcome {
    /// The sub-query was served.
    Query {
        /// Index of the originating batch item.
        item: u32,
        /// Whether it was answered from the shard cache (vs shipped).
        local: bool,
    },
    /// The sub-query violated the satisfaction contract.
    QueryFailed {
        /// Index of the originating batch item.
        item: u32,
        /// The rendered engine error.
        error: String,
    },
    /// The update was applied.
    Update {
        /// Index of the originating batch item.
        item: u32,
        /// The object's new version.
        version: u64,
    },
}

/// The class an operation is timed under — which request kind put it
/// on the shard. Sub-queries compiled from SQL time as [`OpClass::Sql`];
/// coalesced sub-batches (client `Batch` and router `NodeOps`) time as
/// [`OpClass::Batch`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpClass {
    /// A wire `Query` sub-query.
    Query,
    /// A wire `Update`.
    Update,
    /// A server-side compiled SQL query.
    Sql,
    /// An op inside a coalesced sub-batch.
    Batch,
}

/// Where a shard core records how long ops wait for the engine lock and
/// how long `Engine::apply` itself runs, split per [`OpClass`]. Each
/// core gets *private* histogram instances
/// ([`Telemetry::histogram_handle`]), so hot shards never contend on
/// each other's buckets; the node snapshot merges them back together
/// under the shared names. Strictly observational: timing never feeds
/// back into engine decisions, so ledgers are byte-identical with or
/// without it.
pub struct ShardTelemetry {
    classes: [OpTimers; 4],
    /// Handles for the policy's internal solver (`um.*` metrics),
    /// attached to the policy at core construction. Histogram/counter
    /// instances are per-core private like the timers; the graph-size
    /// gauges are node-shared (single-instance semantics).
    um: PolicyInstruments,
}

struct OpTimers {
    lock_wait: Arc<Histogram>,
    apply: Arc<Histogram>,
}

impl ShardTelemetry {
    /// Registers one core's private handles in a node registry.
    pub fn register(t: &Telemetry) -> ShardTelemetry {
        let timers = |class: &str| OpTimers {
            lock_wait: t.histogram_handle(&format!("shard.lock_wait_ns.{class}")),
            apply: t.histogram_handle(&format!("shard.apply_ns.{class}")),
        };
        ShardTelemetry {
            classes: [
                timers("query"),
                timers("update"),
                timers("sql"),
                timers("batch"),
            ],
            um: PolicyInstruments {
                solve_ns: t.histogram_handle("um.solve_ns"),
                graph_nodes: t.gauge("um.graph_nodes"),
                graph_edges: t.gauge("um.graph_edges"),
                solves: t.counter_handle("um.solves"),
            },
        }
    }

    /// Free-standing handles attached to no registry — for tests and
    /// tools that construct cores directly.
    pub fn detached() -> ShardTelemetry {
        let timers = || OpTimers {
            lock_wait: Arc::new(Histogram::new()),
            apply: Arc::new(Histogram::new()),
        };
        ShardTelemetry {
            classes: [timers(), timers(), timers(), timers()],
            um: PolicyInstruments {
                solve_ns: Arc::new(Histogram::new()),
                graph_nodes: Arc::new(Gauge::default()),
                graph_edges: Arc::new(Gauge::default()),
                solves: Arc::new(Counter::default()),
            },
        }
    }

    fn timers(&self, class: OpClass) -> &OpTimers {
        &self.classes[match class {
            OpClass::Query => 0,
            OpClass::Update => 1,
            OpClass::Sql => 2,
            OpClass::Batch => 3,
        }]
    }
}

/// Everything a shard core is born with.
pub struct ShardSpec {
    /// Shard index.
    pub shard: u16,
    /// The shard's sub-catalog.
    pub catalog: ObjectCatalog,
    /// Configured cache budget for this shard.
    pub cache_bytes: u64,
    /// Policy kind every shard runs.
    pub policy: PolicyKind,
    /// Seed for this shard's policy.
    pub seed: u64,
    /// A validated snapshot to resume from, if warm-restarting.
    pub restore: Option<EngineSnapshot>,
    /// Where to persist the engine snapshot on graceful shutdown.
    pub snapshot_path: Option<PathBuf>,
    /// Where this core records lock-wait and apply latencies.
    pub telemetry: ShardTelemetry,
}

/// One shard: a lock-protected engine plus its identity and snapshot
/// destination. Connection threads call the methods directly.
pub struct ShardCore {
    shard: u16,
    policy: PolicyKind,
    snapshot_path: Option<PathBuf>,
    engine: Mutex<ShardEngine>,
    telemetry: ShardTelemetry,
    /// When this core is a replicated primary: the applied-event log
    /// it ships to backups. Appends happen inside the engine-lock
    /// window that applied the event, so log order is apply order.
    repl: Option<Arc<ReplState>>,
    /// Promotion fence: events with `seq <= fence` were applied by the
    /// previous primary before failover and must not re-execute. Zero
    /// (sequence numbers start at 1) everywhere except on a promoted
    /// core, and immutable once the core serves — set before the slot
    /// is published, read without synchronization concerns.
    fence: u64,
}

impl ShardCore {
    /// Builds (or warm-restores) the shard engine from its spec.
    ///
    /// # Panics
    /// Panics if a restore snapshot fails validation — the server
    /// validates snapshots before constructing cores, so a failure here
    /// means the world changed underneath us.
    pub fn new(spec: ShardSpec) -> ShardCore {
        let ShardSpec {
            shard,
            catalog,
            cache_bytes,
            policy: policy_kind,
            seed,
            restore,
            snapshot_path,
            telemetry,
        } = spec;
        let mut policy = policy_kind.build(cache_bytes, seed);
        policy.attach_instruments(telemetry.um.clone());
        let engine = match restore {
            Some(snap) => Engine::restore(policy, &catalog, &snap)
                .unwrap_or_else(|e| panic!("shard {shard}: snapshot restore failed: {e}"))
                .clamp_clock(true),
            None => {
                let mut e = Engine::new(policy, &catalog, cache_bytes).clamp_clock(true);
                e.init(None);
                e
            }
        };
        ShardCore {
            shard,
            policy: policy_kind,
            snapshot_path,
            engine: Mutex::new(engine),
            telemetry,
            repl: None,
            fence: 0,
        }
    }

    /// Shard index.
    pub fn shard(&self) -> u16 {
        self.shard
    }

    /// Attaches the replication log this primary ships to backups.
    /// Called before the core is published to connection threads.
    pub fn set_repl(&mut self, repl: Arc<ReplState>) {
        self.repl = Some(repl);
    }

    /// The replication log, when this core is a replicated primary.
    pub fn repl(&self) -> Option<&Arc<ReplState>> {
        self.repl.as_ref()
    }

    /// The promotion fence: the highest sequence number the previous
    /// primary applied before this core took over (zero when the core
    /// was never promoted).
    pub fn fence(&self) -> u64 {
        self.fence
    }

    /// Applied events (the engine's event count) — the replication
    /// offset this core stands at.
    pub fn events(&self) -> u64 {
        self.lock().events()
    }

    /// The bootstrap a backup of this shard needs, captured atomically
    /// against the apply path: the current applied-event offset plus
    /// the engine snapshot — or `None` for a zero-event core, telling
    /// the backup to build a fresh twin (running policy init) so its
    /// replay lineage is byte-identical rather than snapshot-shaped.
    pub fn bootstrap_state(&self) -> (u64, Option<EngineSnapshot>) {
        let engine = self.lock();
        let events = engine.events();
        if events == 0 {
            (0, None)
        } else {
            (events, Some(engine.snapshot()))
        }
    }

    /// Turns a caught-up backup core into a serving primary: fences
    /// every sequence number the old primary already applied (so a
    /// client retrying through the failover gets the typed
    /// `ALREADY_APPLIED` instead of a double-apply), adopts this
    /// node's snapshot destination, and starts its own replication
    /// log. Returns the rebuilt core and the offset it serves from.
    pub fn into_primary(
        self,
        snapshot_path: Option<PathBuf>,
        repl: Option<Arc<ReplState>>,
    ) -> (ShardCore, u64) {
        let (fence, offset) = {
            let engine = self.lock();
            (engine.clock(), engine.events())
        };
        (
            ShardCore {
                snapshot_path,
                repl,
                fence,
                ..self
            },
            offset,
        )
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ShardEngine> {
        // A poisoned mutex means a connection thread panicked mid-apply;
        // the engine state can no longer be trusted — fail loudly.
        self.engine.lock().expect("shard engine poisoned")
    }

    /// Applies one update, returning the object's new version.
    pub fn apply_update(&self, u: UpdateEvent) -> u64 {
        let t0 = Instant::now();
        let mut engine = self.lock();
        let waited = t0.elapsed();
        let t1 = Instant::now();
        let version = apply_update(&mut engine, u);
        if let Some(repl) = &self.repl {
            repl.append(BatchItem::Update(u));
        }
        let applied = t1.elapsed();
        drop(engine);
        let timers = self.telemetry.timers(OpClass::Update);
        timers.lock_wait.record_duration(waited);
        timers.apply.record_duration(applied);
        version
    }

    /// Serves one sub-query: `Ok(local)` on success, the rendered engine
    /// error when the policy violated the satisfaction contract (the
    /// shard stays up either way).
    pub fn serve_query(&self, q: QueryEvent) -> Result<bool, String> {
        self.serve_query_as(q, OpClass::Query)
    }

    /// [`ShardCore::serve_query`] timed under an explicit class — how
    /// compiled SQL attributes its shard time to `sql` rather than
    /// `query`.
    pub fn serve_query_as(&self, q: QueryEvent, class: OpClass) -> Result<bool, String> {
        let t0 = Instant::now();
        let mut engine = self.lock();
        let waited = t0.elapsed();
        let t1 = Instant::now();
        // Replicate the query before handing its ownership to the
        // engine; violated queries apply no event, so their clone is
        // dropped, not logged.
        let logged = self.repl.as_ref().map(|_| BatchItem::Query(q.clone()));
        let result = serve_query(self.shard, &mut engine, q);
        if let (Some(repl), Some(item), Ok(_)) = (&self.repl, logged, &result) {
            repl.append(item);
        }
        let applied = t1.elapsed();
        drop(engine);
        let timers = self.telemetry.timers(class);
        timers.lock_wait.record_duration(waited);
        timers.apply.record_duration(applied);
        result
    }

    /// Executes a coalesced sub-batch in order under ONE lock
    /// acquisition — the whole sub-batch is a single serialization unit,
    /// exactly like the former worker's coalesced channel send. The
    /// lock wait is recorded once (the batch waits as a unit); each
    /// op's `Engine::apply` time is recorded individually, all under
    /// [`OpClass::Batch`]. A replicated primary logs the applied events
    /// with one [`ReplState::append_batch`] before the lock drops.
    pub fn run_batch(&self, ops: Vec<ShardOp>) -> Vec<OpOutcome> {
        let timers = self.telemetry.timers(OpClass::Batch);
        let t0 = Instant::now();
        let mut engine = self.lock();
        timers.lock_wait.record_duration(t0.elapsed());
        let run = |engine: &mut ShardEngine, op: ShardOp| {
            let t1 = Instant::now();
            let outcome = match op {
                ShardOp::Query { item, event } => match serve_query(self.shard, engine, event) {
                    Ok(local) => OpOutcome::Query { item, local },
                    Err(error) => OpOutcome::QueryFailed { item, error },
                },
                ShardOp::Update { item, event } => OpOutcome::Update {
                    item,
                    version: apply_update(engine, event),
                },
            };
            timers.apply.record_duration(t1.elapsed());
            outcome
        };
        let Some(repl) = &self.repl else {
            return ops.into_iter().map(|op| run(&mut engine, op)).collect();
        };
        // Log what applied, in apply order: a violated query applied
        // nothing, so its copy is dropped.
        let mut logged = Vec::with_capacity(ops.len());
        let outcomes = ops
            .into_iter()
            .map(|op| {
                let copy = match &op {
                    ShardOp::Query { event, .. } => BatchItem::Query(event.clone()),
                    ShardOp::Update { event, .. } => BatchItem::Update(*event),
                };
                let outcome = run(&mut engine, op);
                if !matches!(outcome, OpOutcome::QueryFailed { .. }) {
                    logged.push(copy);
                }
                outcome
            })
            .collect();
        repl.append_batch(logged);
        outcomes
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> ShardStats {
        stats(self.shard, self.policy, &self.lock())
    }

    /// Captures the engine snapshot without disturbing the core — the
    /// first half of a migration, taken while the core is still hosted
    /// so the caller can refuse an unmigratable snapshot (e.g. one too
    /// large for a wire frame) with the shard intact.
    pub fn snapshot(&self) -> EngineSnapshot {
        self.lock().snapshot()
    }

    /// Discards the core after its state left this node: removes any
    /// on-disk snapshot file — the shard no longer lives here, so a cold
    /// restart of this node must not resurrect it.
    pub fn discard(self) {
        if let Some(path) = &self.snapshot_path {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Consumes the core for migration to another node: returns the
    /// engine snapshot and removes any on-disk snapshot file. Prefer
    /// [`ShardCore::snapshot`] + [`ShardCore::discard`] when the caller
    /// must validate the snapshot before committing to the detach.
    pub fn detach(self) -> EngineSnapshot {
        let snap = self.snapshot();
        self.discard();
        snap
    }

    /// Persists the engine snapshot (when configured) and reports final
    /// statistics. Called by the server after every connection drained.
    pub fn shutdown(&self) -> ShardStats {
        let engine = self.lock();
        if let Some(path) = &self.snapshot_path {
            if let Err(e) = write_snapshot(path, &engine.snapshot()) {
                eprintln!("delta-shard-{}: snapshot write failed: {e}", self.shard);
            }
        }
        stats(self.shard, self.policy, &engine)
    }
}

fn serve_query(shard: u16, engine: &mut ShardEngine, q: QueryEvent) -> Result<bool, String> {
    match engine.apply(&Event::Query(q)) {
        Ok(EngineOutcome::Query { local, .. }) => Ok(local),
        Ok(other) => panic!("query produced {other:?}"),
        Err(e) => Err(format!("shard {shard}: {e}")),
    }
}

fn apply_update(engine: &mut ShardEngine, u: UpdateEvent) -> u64 {
    match engine
        .apply(&Event::Update(u))
        .expect("updates cannot violate the contract")
    {
        EngineOutcome::Update { version } => version,
        other => panic!("update produced {other:?}"),
    }
}

fn stats(shard: u16, kind: PolicyKind, engine: &ShardEngine) -> ShardStats {
    ShardStats {
        shard,
        policy: kind.policy_name().to_string(),
        metrics: engine.metrics(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delta_storage::ObjectId;
    use delta_workload::QueryKind;

    fn query(seq: u64, objects: Vec<u32>, bytes: u64) -> QueryEvent {
        QueryEvent {
            seq,
            objects: objects.into_iter().map(ObjectId).collect(),
            result_bytes: bytes,
            tolerance: 0,
            kind: QueryKind::Selection,
        }
    }

    fn core(shard: u16, catalog: ObjectCatalog, cache: u64, policy: PolicyKind) -> ShardCore {
        ShardCore::new(ShardSpec {
            shard,
            catalog,
            cache_bytes: cache,
            policy,
            seed: if policy == PolicyKind::VCover { 9 } else { 1 },
            restore: None,
            snapshot_path: None,
            telemetry: ShardTelemetry::detached(),
        })
    }

    #[test]
    fn core_processes_events_and_reports() {
        let catalog = ObjectCatalog::from_sizes(&[100, 200]);
        let core = core(3, catalog, 1_000, PolicyKind::NoCache);

        assert_eq!(
            core.apply_update(UpdateEvent {
                seq: 1,
                object: ObjectId(0),
                bytes: 10,
            }),
            1
        );
        assert_eq!(
            core.serve_query(query(2, vec![0], 55)),
            Ok(false),
            "NoCache always ships"
        );

        let final_stats = core.shutdown();
        assert_eq!(final_stats.metrics.events(), 2);
        assert_eq!(final_stats.metrics.ledger.shipped_queries, 1);
        assert_eq!(final_stats.metrics.ledger.breakdown.query_ship.bytes(), 55);
        assert_eq!(final_stats.policy, "NoCache");
    }

    #[test]
    fn batched_ops_match_singles_byte_for_byte() {
        let catalog = ObjectCatalog::from_sizes(&[100, 200, 300]);
        let ops = vec![
            ShardOp::Update {
                item: 0,
                event: UpdateEvent {
                    seq: 1,
                    object: ObjectId(0),
                    bytes: 10,
                },
            },
            ShardOp::Query {
                item: 1,
                event: query(2, vec![0, 2], 55),
            },
            ShardOp::Update {
                item: 2,
                event: UpdateEvent {
                    seq: 3,
                    object: ObjectId(1),
                    bytes: 20,
                },
            },
            ShardOp::Query {
                item: 3,
                event: query(4, vec![1], 7),
            },
        ];

        // One call per op.
        let singles = core(0, catalog.clone(), 500, PolicyKind::VCover);
        for op in ops.clone() {
            match op {
                ShardOp::Query { event, .. } => {
                    let _ = singles.serve_query(event);
                }
                ShardOp::Update { event, .. } => {
                    singles.apply_update(event);
                }
            }
        }
        let want = singles.shutdown();

        // The same ops coalesced under one lock acquisition.
        let batched = core(0, catalog, 500, PolicyKind::VCover);
        let outcomes = batched.run_batch(ops);
        assert_eq!(outcomes.len(), 4);
        assert!(matches!(
            outcomes[0],
            OpOutcome::Update {
                item: 0,
                version: 1
            }
        ));
        assert!(matches!(outcomes[3], OpOutcome::Query { item: 3, .. }));
        let got = batched.shutdown();
        assert_eq!(got.metrics, want.metrics);
    }

    #[test]
    fn a_sub_batch_appends_to_the_log_once() {
        use crate::replication::Notifier;
        let catalog = ObjectCatalog::from_sizes(&[100, 200, 300]);
        let mut primary = core(0, catalog, 500, PolicyKind::VCover);
        let notifier = Arc::new(Notifier::new());
        let repl = Arc::new(ReplState::new(0, 0, 1, Arc::clone(&notifier)));
        primary.set_repl(Arc::clone(&repl));
        let update = |item: u32, seq: u64| ShardOp::Update {
            item,
            event: UpdateEvent {
                seq,
                object: ObjectId(item % 3),
                bytes: 10,
            },
        };
        let before = notifier.snapshot();
        primary.run_batch(vec![
            update(0, 1),
            ShardOp::Query {
                item: 1,
                event: query(2, vec![0, 2], 55),
            },
            update(2, 3),
        ]);
        assert_eq!(repl.end(), 3, "every applied event is logged");
        assert_eq!(
            notifier.snapshot(),
            before + 1,
            "one pump wake per sub-batch"
        );
    }

    #[test]
    fn replica_shard_mirrors_repository() {
        let catalog = ObjectCatalog::from_sizes(&[100, 200]);
        let core = core(0, catalog, 1, PolicyKind::Replica);
        assert_eq!(
            core.serve_query(query(1, vec![0, 1], 999)),
            Ok(true),
            "replica answers locally"
        );
        let stats = core.shutdown();
        assert_eq!(stats.metrics.ledger.local_answers, 1);
        assert_eq!(
            stats.metrics.residents, 2,
            "replica preloads the whole sub-catalog"
        );
    }

    #[test]
    fn broken_policy_fails_typed_and_core_survives() {
        let catalog = ObjectCatalog::from_sizes(&[100, 200]);
        let core = core(0, catalog, 1_000, PolicyKind::Broken);
        let err = core.serve_query(query(1, vec![0], 5)).unwrap_err();
        assert!(err.contains("Broken"), "{err}");
        // The core is still alive and serves updates and batches.
        assert_eq!(
            core.apply_update(UpdateEvent {
                seq: 2,
                object: ObjectId(1),
                bytes: 4,
            }),
            1
        );
        let outcomes = core.run_batch(vec![
            ShardOp::Query {
                item: 0,
                event: query(3, vec![0], 5),
            },
            ShardOp::Update {
                item: 1,
                event: UpdateEvent {
                    seq: 4,
                    object: ObjectId(1),
                    bytes: 1,
                },
            },
        ]);
        assert!(matches!(
            outcomes[0],
            OpOutcome::QueryFailed { item: 0, .. }
        ));
        assert!(matches!(
            outcomes[1],
            OpOutcome::Update {
                item: 1,
                version: 2
            }
        ));
        let stats = core.shutdown();
        assert_eq!(stats.metrics.updates, 2);
        assert_eq!(stats.metrics.queries, 0, "violated queries are not counted");
    }

    #[test]
    fn detach_carries_full_engine_state_and_clears_the_snapshot_file() {
        let catalog = ObjectCatalog::from_sizes(&[100, 200]);
        let path = std::env::temp_dir().join(format!(
            "delta-shard-detach-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::write(&path, b"stale\n").unwrap();
        let first = ShardCore::new(ShardSpec {
            shard: 3,
            catalog: catalog.clone(),
            cache_bytes: 1_000,
            policy: PolicyKind::VCover,
            seed: 7,
            restore: None,
            snapshot_path: Some(path.clone()),
            telemetry: ShardTelemetry::detached(),
        });
        first.apply_update(UpdateEvent {
            seq: 1,
            object: ObjectId(0),
            bytes: 10,
        });
        first.serve_query(query(2, vec![0], 55)).unwrap();
        let want = first.stats();
        let snap = first.detach();
        assert!(
            !path.exists(),
            "detach must remove the snapshot file so a cold restart cannot resurrect the shard"
        );
        // The new owner restores an identical engine.
        let resumed = ShardCore::new(ShardSpec {
            shard: 3,
            catalog,
            cache_bytes: 1_000,
            policy: PolicyKind::VCover,
            seed: 7,
            restore: Some(snap),
            snapshot_path: None,
            telemetry: ShardTelemetry::detached(),
        });
        assert_eq!(resumed.stats().metrics, want.metrics);
    }

    #[test]
    fn shutdown_snapshot_roundtrips_through_new() {
        let catalog = ObjectCatalog::from_sizes(&[100, 200]);
        let path = std::env::temp_dir().join(format!(
            "delta-shard-snap-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        let first = ShardCore::new(ShardSpec {
            shard: 0,
            catalog: catalog.clone(),
            cache_bytes: 1_000,
            policy: PolicyKind::VCover,
            seed: 7,
            restore: None,
            snapshot_path: Some(path.clone()),
            telemetry: ShardTelemetry::detached(),
        });
        first.apply_update(UpdateEvent {
            seq: 1,
            object: ObjectId(0),
            bytes: 10,
        });
        first.serve_query(query(2, vec![0], 55)).unwrap();
        let first = first.shutdown();

        // Resume from the written snapshot: metrics carry over exactly.
        let snap = delta_core::engine::read_snapshot(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let resumed = ShardCore::new(ShardSpec {
            shard: 0,
            catalog,
            cache_bytes: 1_000,
            policy: PolicyKind::VCover,
            seed: 7,
            restore: Some(snap),
            snapshot_path: None,
            telemetry: ShardTelemetry::detached(),
        });
        let stats = resumed.shutdown();
        assert_eq!(stats.metrics, first.metrics);
    }
}
