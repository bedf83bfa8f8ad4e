//! A threaded client/cache/server deployment over metered links.
//!
//! The in-process simulator charges a ledger; this module runs the *same
//! policy code* as three real threads exchanging `delta-net` messages:
//!
//! ```text
//!   client ──(LAN, unmetered)──> cache ──(WAN, metered)──> server
//!   pipeline ─(server-local)────────────────────────────────┘
//! ```
//!
//! * The **server** owns the authoritative [`Repository`]. Updates reach
//!   it from the pipeline channel; it answers `UpdateFetch`/`LoadRequest`
//!   from its own state and pushes a metadata-only `Invalidation` to the
//!   cache for every update.
//! * The **cache** owns the policy, the [`CacheStore`] and a *metadata
//!   mirror* of the repository maintained purely from invalidation
//!   messages — it never peeks at server memory. Every data movement the
//!   policy makes goes over the WAN via the [`Transport`] hook.
//! * The **client** (the calling thread) replays the trace in lockstep.
//!
//! The run returns both the policy's ledger and the WAN meter snapshot;
//! [`run_deployed`]'s callers assert they reconcile byte-for-byte, and the
//! cache cross-checks every server reply against its mirror — a genuine
//! distributed-consistency check of the protocol.
//!
//! # Failure injection
//!
//! §7 of the paper defers "reliability, failure-recovery, and
//! communication protocols" to a real-world deployment;
//! [`run_deployed_faulty`] supplies them: the cache process can *crash*
//! at chosen points in the trace — losing its policy state and its
//! repository mirror, and (on a cold restart) its entire store — then
//! recover through a `SyncRequest`/`SyncReply` metadata resync before
//! service resumes. Every query is still answered within its staleness
//! contract; the observable cost of a crash is extra traffic (reloads,
//! re-shipped queries), which the returned report quantifies.

use crate::context::Transport;
use crate::engine::{BorrowedPolicy, Engine, EngineOutcome};
use crate::policy_trait::CachingPolicy;
use crate::sim::{SeriesPoint, SimOptions, SimReport};
use delta_net::{Endpoint, Link, NetMessage, ObjectLog, TrafficSnapshot};
use delta_storage::{ObjectCatalog, ObjectId, Repository};
use delta_workload::{Event, Trace, UpdateEvent};

/// Messages from the client/pipeline to the cache thread.
enum ClientMsg {
    Query(delta_workload::QueryEvent),
    /// An update was sent to the server; the cache must absorb the
    /// resulting invalidation before the client proceeds.
    AbsorbInvalidation,
    /// The cache process crashes and recovers in the given mode.
    Crash(RecoveryMode),
    Done,
}

/// What survives a cache crash.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryMode {
    /// The store's disk survives: resident objects keep their bytes and
    /// applied versions; only volatile state (policy, mirror) is lost and
    /// must be resynced.
    Warm,
    /// Everything is lost; the cache restarts empty.
    Cold,
}

/// When and how the cache crashes during a faulty run.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// `(event_index, mode)` pairs: the cache crashes immediately before
    /// the event at each (0-based) index. Must be sorted ascending.
    pub crashes: Vec<(u64, RecoveryMode)>,
}

impl FaultPlan {
    /// A plan with one crash before event `at`.
    pub fn crash_at(at: u64, mode: RecoveryMode) -> Self {
        Self {
            crashes: vec![(at, mode)],
        }
    }
}

/// What recovery cost, beyond the byte ledger.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Crashes injected.
    pub crashes: u64,
    /// Objects dropped by cold restarts.
    pub objects_lost: u64,
    /// Resident objects kept through warm restarts.
    pub objects_kept: u64,
    /// Kept objects found stale during resync (must re-ship updates
    /// before serving zero-tolerance queries).
    pub objects_stale_on_recovery: u64,
    /// Update-log entries replayed to rebuild the mirror.
    pub log_entries_replayed: u64,
}

/// Spawns the server thread: authoritative repository, pipeline intake,
/// WAN request service (including recovery syncs).
fn spawn_server(
    catalog: ObjectCatalog,
    server_wan: Endpoint,
    pipeline_rx: crossbeam::channel::Receiver<UpdateEvent>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let mut repo = Repository::new(catalog);
        loop {
            crossbeam::channel::select! {
                recv(pipeline_rx) -> msg => {
                    let Ok(u) = msg else { return };
                    let version = repo.apply_update(u.object, u.bytes, u.seq);
                    server_wan
                        .send(NetMessage::Invalidation {
                            object: u.object.0,
                            version,
                            bytes: u.bytes,
                            seq: u.seq,
                        })
                        .expect("cache alive");
                }
                recv(server_wan.receiver()) -> msg => {
                    let Ok(msg) = msg else { return };
                    match msg {
                        NetMessage::QueryShip { .. } => {
                            // Result bytes were already metered on send;
                            // the result goes straight to the client (§3).
                        }
                        NetMessage::UpdateFetch { object, from_version, to_version } => {
                            let o = ObjectId(object);
                            let bytes = repo.update_bytes(o, from_version, to_version);
                            server_wan
                                .send(NetMessage::UpdateShip {
                                    object,
                                    from_version,
                                    to_version,
                                    bytes,
                                })
                                .expect("cache alive");
                        }
                        NetMessage::LoadRequest { object } => {
                            let o = ObjectId(object);
                            server_wan
                                .send(NetMessage::ObjectLoad {
                                    object,
                                    version: repo.version(o),
                                    bytes: repo.current_size(o),
                                })
                                .expect("cache alive");
                        }
                        NetMessage::SyncRequest => {
                            let logs: Vec<ObjectLog> = repo
                                .catalog()
                                .ids()
                                .filter_map(|o| {
                                    let updates: Vec<(u64, u64)> = repo
                                        .updates_since(o, 0)
                                        .map(|r| (r.bytes, r.seq))
                                        .collect();
                                    (!updates.is_empty())
                                        .then_some(ObjectLog { object: o.0, updates })
                                })
                                .collect();
                            server_wan.send(NetMessage::SyncReply { logs }).expect("cache alive");
                        }
                        NetMessage::EvictNotice { .. } => {}
                        NetMessage::Shutdown => return,
                        other => panic!("server got unexpected message {other:?}"),
                    }
                }
            }
        }
    })
}

/// The WAN side of the cache thread: turns context callbacks into
/// request/reply exchanges and validates replies against the mirror.
struct WanTransport {
    wan: Endpoint,
}

impl Transport for WanTransport {
    fn query_shipped(&mut self, q: &delta_workload::QueryEvent) {
        self.wan
            .send(NetMessage::QueryShip {
                query_seq: q.seq,
                result_bytes: q.result_bytes,
            })
            .expect("server alive");
    }

    fn updates_fetched(&mut self, o: ObjectId, from: u64, to: u64, bytes: u64) {
        self.wan
            .send(NetMessage::UpdateFetch {
                object: o.0,
                from_version: from,
                to_version: to,
            })
            .expect("server alive");
        match self.wan.recv().expect("server alive") {
            NetMessage::UpdateShip {
                object,
                from_version,
                to_version,
                bytes: got,
            } => {
                assert_eq!(object, o.0);
                assert_eq!((from_version, to_version), (from, to));
                assert_eq!(
                    got, bytes,
                    "server and cache disagree on update bytes for {o}: mirror out of sync"
                );
            }
            other => panic!("expected UpdateShip, got {other:?}"),
        }
    }

    fn object_loaded(&mut self, o: ObjectId, version: u64, bytes: u64) {
        self.wan
            .send(NetMessage::LoadRequest { object: o.0 })
            .expect("server alive");
        match self.wan.recv().expect("server alive") {
            NetMessage::ObjectLoad {
                object,
                version: v,
                bytes: got,
            } => {
                assert_eq!(object, o.0);
                assert_eq!(v, version, "server and cache disagree on {o}'s version");
                assert_eq!(got, bytes, "server and cache disagree on {o}'s size");
            }
            other => panic!("expected ObjectLoad, got {other:?}"),
        }
    }

    fn object_evicted(&mut self, o: ObjectId) {
        self.wan
            .send(NetMessage::EvictNotice { object: o.0 })
            .expect("server alive");
    }
}

/// Rebuilds a repository mirror from a recovery sync over the WAN.
/// Returns the number of log entries replayed.
fn resync_mirror(transport: &mut WanTransport, catalog: &ObjectCatalog) -> (Repository, u64) {
    transport
        .wan
        .send(NetMessage::SyncRequest)
        .expect("server alive");
    let mut mirror = Repository::new(catalog.clone());
    let mut replayed = 0u64;
    loop {
        match transport.wan.recv().expect("server alive") {
            NetMessage::SyncReply { logs } => {
                for log in logs {
                    for (bytes, seq) in log.updates {
                        mirror.apply_update(ObjectId(log.object), bytes, seq);
                        replayed += 1;
                    }
                }
                return (mirror, replayed);
            }
            // Invalidations already in flight when the crash happened are
            // folded into the mirror rebuild: the server's log is
            // authoritative and already contains them, so they are
            // dropped here (their content never shipped).
            NetMessage::Invalidation { .. } => continue,
            other => panic!("expected SyncReply, got {other:?}"),
        }
    }
}

/// Runs the policy in a threaded deployment and returns its report plus
/// the WAN traffic snapshot.
pub fn run_deployed(
    policy: &mut (dyn CachingPolicy + Send),
    catalog: &ObjectCatalog,
    trace: &Trace,
    opts: SimOptions,
) -> (SimReport, TrafficSnapshot) {
    // Fault-free runs build exactly one policy, so the borrow is handed
    // out once, wrapped to fit the box-producing factory interface.
    let mut slot = Some(policy);
    let (report, snapshot, recovery) = run_deployed_inner(
        &mut move || -> Box<dyn CachingPolicy + '_> {
            Box::new(BorrowedPolicy(
                slot.take().expect("fault-free runs build one policy"),
            ))
        },
        catalog,
        trace,
        opts,
        &FaultPlan::default(),
    );
    debug_assert_eq!(recovery.crashes, 0);
    (report, snapshot)
}

/// Runs a threaded deployment with cache crashes injected per `plan`.
///
/// `make_policy` is called once at startup and once after every crash
/// (the policy's in-memory decision state does not survive a crash; its
/// *correctness* never depended on it).
pub fn run_deployed_faulty(
    make_policy: &mut (dyn FnMut() -> Box<dyn CachingPolicy + Send> + Send),
    catalog: &ObjectCatalog,
    trace: &Trace,
    opts: SimOptions,
    plan: &FaultPlan,
) -> (SimReport, TrafficSnapshot, RecoveryReport) {
    run_deployed_inner(
        &mut || -> Box<dyn CachingPolicy> { make_policy() },
        catalog,
        trace,
        opts,
        plan,
    )
}

fn run_deployed_inner<'p, F>(
    next_policy: &mut F,
    catalog: &ObjectCatalog,
    trace: &Trace,
    opts: SimOptions,
    plan: &FaultPlan,
) -> (SimReport, TrafficSnapshot, RecoveryReport)
where
    F: FnMut() -> Box<dyn CachingPolicy + 'p> + Send,
{
    assert!(
        plan.crashes.windows(2).all(|w| w[0].0 < w[1].0),
        "fault plan must be sorted by event index"
    );
    let (cache_wan, server_wan, meter) = Link::pair();
    let (client_tx, client_rx) = crossbeam::channel::unbounded::<ClientMsg>();
    let (pipeline_tx, pipeline_rx) = crossbeam::channel::unbounded::<UpdateEvent>();
    let (ack_tx, ack_rx) = crossbeam::channel::unbounded::<()>();

    let server = spawn_server(catalog.clone(), server_wan, pipeline_rx);

    let mut report: Option<SimReport> = None;
    let mut recovery = RecoveryReport::default();
    std::thread::scope(|scope| {
        let cache_catalog = catalog.clone();
        let report_ref = &mut report;
        let recovery_ref = &mut recovery;
        scope.spawn(move || {
            // The engine owns the metadata mirror, the store and the
            // ledger. The ledger is the experiment's measurement
            // apparatus, not cache state: it survives crashes (the
            // engine keeps it through policy/repository swaps), like the
            // WAN meter does.
            let mut engine = Engine::new(next_policy(), &cache_catalog, opts.cache_bytes);
            let mut transport = WanTransport { wan: cache_wan };
            engine.init(Some(&mut transport));
            let mut series = Vec::new();
            let mut count = 0u64;
            loop {
                match client_rx.recv().expect("client alive") {
                    ClientMsg::Query(q) => {
                        let seq = q.seq;
                        engine
                            .apply_with(&Event::Query(q), Some(&mut transport))
                            .unwrap_or_else(|e| {
                                panic!("query {seq} unsatisfied in deployment: {e}")
                            });
                    }
                    ClientMsg::AbsorbInvalidation => {
                        // The matching invalidation is already in flight.
                        match transport.wan.recv().expect("server alive") {
                            NetMessage::Invalidation {
                                object,
                                version,
                                bytes,
                                seq,
                            } => {
                                let o = ObjectId(object);
                                let u = UpdateEvent {
                                    seq,
                                    object: o,
                                    bytes,
                                };
                                match engine
                                    .apply_with(&Event::Update(u), Some(&mut transport))
                                    .expect("updates cannot violate the contract")
                                {
                                    EngineOutcome::Update { version: v } => {
                                        assert_eq!(v, version, "mirror version drift on {o}");
                                    }
                                    other => panic!("update produced {other:?}"),
                                }
                            }
                            other => panic!("expected Invalidation, got {other:?}"),
                        }
                    }
                    ClientMsg::Crash(mode) => {
                        recovery_ref.crashes += 1;
                        // Volatile state dies with the process: the
                        // policy's decision state and the mirror go; the
                        // engine keeps the store and the ledger.
                        engine.replace_policy(next_policy());
                        let (m, replayed) = resync_mirror(&mut transport, &cache_catalog);
                        recovery_ref.log_entries_replayed += replayed;
                        engine.replace_repository(m);
                        match mode {
                            RecoveryMode::Cold => {
                                let residents: Vec<ObjectId> =
                                    engine.cache().iter().map(|(o, _)| o).collect();
                                recovery_ref.objects_lost += residents.len() as u64;
                                for o in residents {
                                    engine.cache_mut().evict(o).expect("resident");
                                    transport
                                        .wan
                                        .send(NetMessage::EvictNotice { object: o.0 })
                                        .expect("server alive");
                                }
                            }
                            RecoveryMode::Warm => {
                                // Disk survived; freshness metadata must be
                                // re-derived by comparing applied versions
                                // against the resynced mirror.
                                let residents: Vec<(ObjectId, u64)> = engine
                                    .cache()
                                    .iter()
                                    .map(|(o, r)| (o, r.applied_version))
                                    .collect();
                                recovery_ref.objects_kept += residents.len() as u64;
                                for (o, applied) in residents {
                                    if applied < engine.repo().version(o) {
                                        engine.cache_mut().invalidate(o);
                                        recovery_ref.objects_stale_on_recovery += 1;
                                    }
                                }
                            }
                        }
                        engine.init(Some(&mut transport));
                        ack_tx.send(()).expect("client alive");
                        continue;
                    }
                    ClientMsg::Done => {
                        transport
                            .wan
                            .send(NetMessage::Shutdown)
                            .expect("server alive");
                        break;
                    }
                }
                count += 1;
                if count.is_multiple_of(opts.sample_every) {
                    series.push(SeriesPoint {
                        seq: engine.clock(),
                        cumulative_bytes: engine.ledger().total().bytes(),
                    });
                }
                ack_tx.send(()).expect("client alive");
            }
            if series.last().map(|p| p.seq) != Some(engine.clock()) {
                series.push(SeriesPoint {
                    seq: engine.clock(),
                    cumulative_bytes: engine.ledger().total().bytes(),
                });
            }
            let metrics = engine.metrics();
            *report_ref = Some(SimReport {
                policy: engine.policy_name().to_string(),
                cache_bytes: engine.cache().capacity(),
                ledger: metrics.ledger.clone(),
                series,
                events: count,
                latency: None,
                metrics,
            });
        });

        // ---- client (this thread): replay the trace in lockstep ----
        let mut crash_iter = plan.crashes.iter().peekable();
        for (idx, event) in trace.iter().enumerate() {
            if let Some(&&(at, mode)) = crash_iter.peek() {
                if at == idx as u64 {
                    crash_iter.next();
                    client_tx.send(ClientMsg::Crash(mode)).expect("cache alive");
                    ack_rx.recv().expect("cache alive");
                }
            }
            match event {
                Event::Query(q) => {
                    client_tx
                        .send(ClientMsg::Query(q.clone()))
                        .expect("cache alive");
                }
                Event::Update(u) => {
                    pipeline_tx.send(*u).expect("server alive");
                    client_tx
                        .send(ClientMsg::AbsorbInvalidation)
                        .expect("cache alive");
                }
            }
            ack_rx.recv().expect("cache alive");
        }
        client_tx.send(ClientMsg::Done).expect("cache alive");
    });

    server.join().expect("server thread panicked");
    let snapshot = meter.snapshot();
    (
        report.expect("cache thread produced a report"),
        snapshot,
        recovery,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{simulate, SimOptions};
    use crate::vcover::VCover;
    use crate::yardstick::NoCache;
    use delta_workload::{SyntheticSurvey, WorkloadConfig};

    fn survey(n: usize) -> SyntheticSurvey {
        let mut cfg = WorkloadConfig::small();
        cfg.n_queries = n;
        cfg.n_updates = n;
        SyntheticSurvey::generate(&cfg)
    }

    #[test]
    fn deployed_nocache_meter_matches_ledger() {
        let s = survey(300);
        let opts = SimOptions::with_cache_fraction(&s.catalog, 0.3, 100);
        let mut p = NoCache;
        let (report, wan) = run_deployed(&mut p, &s.catalog, &s.trace, opts);
        assert_eq!(report.total().bytes(), wan.charged_total());
        assert_eq!(report.total().bytes(), s.trace.total_query_bytes());
    }

    #[test]
    fn deployed_vcover_equals_in_process_simulation() {
        let s = survey(400);
        let opts = SimOptions::with_cache_fraction(&s.catalog, 0.3, 100);
        let mut p1 = VCover::new(opts.cache_bytes, 5);
        let in_process = simulate(&mut p1, &s.catalog, &s.trace, opts);
        let mut p2 = VCover::new(opts.cache_bytes, 5);
        let (deployed, wan) = run_deployed(&mut p2, &s.catalog, &s.trace, opts);
        // Byte-for-byte equality between simulation and deployment...
        assert_eq!(in_process.total().bytes(), deployed.total().bytes());
        assert_eq!(in_process.ledger.breakdown, deployed.ledger.breakdown);
        // ...and the WAN meter agrees with the ledger.
        assert_eq!(deployed.total().bytes(), wan.charged_total());
        assert_eq!(
            wan.bytes_for(delta_net::TrafficClass::QueryShip),
            deployed.ledger.breakdown.query_ship.bytes()
        );
        assert_eq!(
            wan.bytes_for(delta_net::TrafficClass::UpdateShip),
            deployed.ledger.breakdown.update_ship.bytes()
        );
        assert_eq!(
            wan.bytes_for(delta_net::TrafficClass::ObjectLoad),
            deployed.ledger.breakdown.load.bytes()
        );
    }

    #[test]
    fn cold_crash_recovers_and_still_satisfies_everything() {
        let s = survey(400);
        let opts = SimOptions::with_cache_fraction(&s.catalog, 0.3, 100);
        let mid = (s.trace.len() / 2) as u64;
        let plan = FaultPlan::crash_at(mid, RecoveryMode::Cold);
        let seed = 5;
        let mut factory = move || -> Box<dyn CachingPolicy + Send> {
            Box::new(VCover::new(opts.cache_bytes, seed))
        };
        let (report, wan, rec) =
            run_deployed_faulty(&mut factory, &s.catalog, &s.trace, opts, &plan);
        assert_eq!(rec.crashes, 1);
        assert_eq!(
            report.total().bytes(),
            wan.charged_total(),
            "ledger and meter reconcile"
        );
        assert_eq!(
            report.ledger.shipped_queries + report.ledger.local_answers,
            s.trace.n_queries() as u64,
            "every query satisfied despite the crash"
        );
        // The crashed run is a *different* (and usually costlier) run than
        // the clean one — but an online algorithm may dodge an expensive
        // load by accident, so no inequality holds in general. What must
        // hold: both runs are well-formed and account every byte.
        let mut p = VCover::new(opts.cache_bytes, seed);
        let clean = simulate(&mut p, &s.catalog, &s.trace, opts);
        assert!(report.total().bytes() > 0 && clean.total().bytes() > 0);
        assert_ne!(
            report.ledger.breakdown, clean.ledger.breakdown,
            "losing the whole cache mid-trace must change the cost profile"
        );
    }

    #[test]
    fn warm_crash_keeps_store_and_marks_stale() {
        let s = survey(400);
        let opts = SimOptions::with_cache_fraction(&s.catalog, 0.3, 100);
        let mid = (s.trace.len() * 3 / 4) as u64;
        let plan = FaultPlan::crash_at(mid, RecoveryMode::Warm);
        let mut factory =
            move || -> Box<dyn CachingPolicy + Send> { Box::new(VCover::new(opts.cache_bytes, 5)) };
        let (report, wan, rec) =
            run_deployed_faulty(&mut factory, &s.catalog, &s.trace, opts, &plan);
        assert_eq!(rec.crashes, 1);
        assert_eq!(rec.objects_lost, 0, "warm restart loses nothing");
        assert_eq!(report.total().bytes(), wan.charged_total());
        assert_eq!(
            report.ledger.shipped_queries + report.ledger.local_answers,
            s.trace.n_queries() as u64
        );
        assert!(
            rec.log_entries_replayed > 0,
            "mirror was rebuilt from the server log"
        );
    }

    #[test]
    fn repeated_cold_crashes_degrade_towards_nocache() {
        let s = survey(300);
        let opts = SimOptions::with_cache_fraction(&s.catalog, 0.3, 100);
        let n = s.trace.len() as u64;
        let plan = FaultPlan {
            crashes: (1..8).map(|i| (i * n / 8, RecoveryMode::Cold)).collect(),
        };
        let mut factory =
            move || -> Box<dyn CachingPolicy + Send> { Box::new(VCover::new(opts.cache_bytes, 5)) };
        let (report, _, rec) = run_deployed_faulty(&mut factory, &s.catalog, &s.trace, opts, &plan);
        assert_eq!(rec.crashes, 7);
        assert_eq!(
            report.ledger.shipped_queries + report.ledger.local_answers,
            s.trace.n_queries() as u64
        );
    }
}
