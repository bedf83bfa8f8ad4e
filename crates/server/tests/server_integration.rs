//! End-to-end tests: a real `delta-serverd` instance on an ephemeral
//! port, driven by the typed client over TCP.
//!
//! The central property: replaying a synthetic trace through a 4-shard
//! server produces, per shard, exactly the ledger `sim::simulate`
//! produces on that shard's sub-catalog and sub-trace (the offline
//! `Twin`) — and the per-shard ledgers sum to the aggregate snapshot.

use delta_core::{sim, CostLedger};
use delta_server::{
    BatchItem, BatchReply, DeltaClient, PolicyKind, Request, Response, Server, ServerConfig, Twin,
};
use delta_storage::ObjectCatalog;
use delta_workload::{Event, QueryEvent, SyntheticSurvey, WorkloadConfig};

/// Shard count for the parameterized tests; the CI matrix overrides it
/// (1, 4, 8) so partition edge cases run on every push.
fn shard_count() -> usize {
    std::env::var("DELTA_TEST_SHARDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4)
}

fn small_survey(n: usize) -> SyntheticSurvey {
    let mut cfg = WorkloadConfig::small();
    cfg.n_queries = n;
    cfg.n_updates = n;
    SyntheticSurvey::generate(&cfg)
}

fn start_server(
    survey: &SyntheticSurvey,
    n_shards: usize,
    policy: PolicyKind,
    cache_fraction: f64,
) -> (Server, ServerConfig) {
    let cache_bytes = (survey.catalog.total_bytes() as f64 * cache_fraction) as u64;
    let config = ServerConfig {
        bind: "127.0.0.1:0".to_string(),
        n_shards,
        cache_bytes,
        policy,
        seed: 42,
        ..ServerConfig::default()
    };
    let server = Server::start(config.clone(), survey.catalog.clone()).expect("server starts");
    (server, config)
}

/// Replays the trace one lone frame per event, returning each event's
/// reply in item form.
fn replay(client: &mut DeltaClient, survey: &SyntheticSurvey) -> Vec<BatchReply> {
    survey
        .trace
        .iter()
        .map(|event| match event {
            Event::Query(q) => {
                let r = client.query(q).expect("query served");
                BatchReply::Query {
                    shards_touched: r.shards_touched,
                    local_answers: r.local_answers,
                    shipped: r.shipped,
                }
            }
            Event::Update(u) => {
                let r = client.update(u).expect("update applied");
                BatchReply::Update {
                    shard: r.shard,
                    version: r.version,
                }
            }
        })
        .collect()
}

/// The twin's per-event replies and final per-shard ledgers for
/// `events` on a server started from `config` over `catalog`.
fn twin_replay(
    config: &ServerConfig,
    catalog: &ObjectCatalog,
    events: &[Event],
) -> (Vec<BatchReply>, Vec<CostLedger>) {
    let mut twin = Twin::new(config, catalog);
    let replies = events.iter().map(|e| twin.apply(e)).collect();
    (replies, twin.ledgers())
}

/// Every per-item reply equals the twin's, naming the first that does
/// not.
fn assert_replies_match(got: &[BatchReply], want: &[BatchReply], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: reply count");
    if let Some(i) = (0..got.len()).find(|&i| got[i] != want[i]) {
        panic!(
            "{what}: reply {i} is {:?}, the twin owes {:?}",
            got[i], want[i]
        );
    }
}

/// Every policy the server serves, against its sharded simulation twin.
/// SOptimal is not among them: it plans its static set from the whole
/// trace in hindsight, so it cannot serve a live stream.
#[test]
fn sharded_server_matches_sharded_simulation_exactly() {
    let n_shards = shard_count();
    let survey = small_survey(400);
    for policy in [
        PolicyKind::VCover,
        PolicyKind::Benefit,
        PolicyKind::NoCache,
        PolicyKind::Replica,
        PolicyKind::Gds,
        PolicyKind::Gdsf,
        PolicyKind::Lru,
    ] {
        let (server, config) = start_server(&survey, n_shards, policy, 0.3);
        let addr = server.local_addr();

        let mut client = DeltaClient::connect(addr).expect("connect");
        let replies = replay(&mut client, &survey);
        let stats = client.stats().expect("stats");
        client.shutdown().expect("shutdown");
        let final_stats = server.join();

        assert_eq!(stats.shards.len(), n_shards);
        let (want_replies, expected) = twin_replay(&config, &survey.catalog, &survey.trace.events);
        assert_replies_match(&replies, &want_replies, &format!("{policy:?} lockstep"));
        for (shard, want) in stats.shards.iter().zip(&expected) {
            assert_eq!(
                &shard.metrics.ledger, want,
                "{policy:?}: shard {} ledger diverged from its in-process simulation twin",
                shard.shard
            );
        }

        // Per-shard ledgers sum exactly to the aggregate.
        let global = stats.total_ledger();
        let shard_sum: u64 = stats
            .shards
            .iter()
            .map(|s| s.metrics.ledger.total().bytes())
            .sum();
        assert!(
            global.total().bytes() > 0,
            "{policy:?}: the replay must move bytes"
        );
        assert_eq!(shard_sum, global.total().bytes(), "{policy:?}");

        // Every query was satisfied somewhere.
        assert!(
            global.shipped_queries + global.local_answers >= survey.trace.n_queries() as u64,
            "{policy:?}: each query produces at least one shard sub-query"
        );

        // The final (post-drain) snapshot agrees with the live one.
        assert_eq!(final_stats.total_ledger(), global, "{policy:?}");
        assert_eq!(
            final_stats.total_events(),
            stats.total_events(),
            "{policy:?}"
        );
    }
}

#[test]
fn single_shard_server_equals_unsharded_simulation() {
    let survey = small_survey(300);
    let (server, config) = start_server(&survey, 1, PolicyKind::VCover, 0.3);
    let mut client = DeltaClient::connect(server.local_addr()).expect("connect");
    replay(&mut client, &survey);
    let stats = client.stats().expect("stats");
    client.shutdown().expect("shutdown");
    server.join();

    // One shard means no splitting at all: the server must match a plain
    // sim::simulate run byte-for-byte.
    let mut vcover = delta_core::VCover::new(config.cache_bytes, 42);
    let opts = sim::SimOptions {
        cache_bytes: config.cache_bytes,
        sample_every: u64::MAX,
        link: None,
    };
    let report = sim::simulate(&mut vcover, &survey.catalog, &survey.trace, opts);
    assert_eq!(stats.shards.len(), 1);
    assert_eq!(stats.shards[0].metrics.ledger, report.ledger);
    assert_eq!(stats.total_events(), survey.trace.len() as u64);
}

#[test]
fn nocache_server_ships_exactly_the_trace_query_bytes() {
    let survey = small_survey(200);
    let (server, _) = start_server(&survey, 3, PolicyKind::NoCache, 0.3);
    let mut client = DeltaClient::connect(server.local_addr()).expect("connect");
    replay(&mut client, &survey);
    let stats = client.stats().expect("stats");
    client.shutdown().expect("shutdown");
    server.join();

    // NoCache ships every sub-query; apportioning preserves byte totals,
    // so the global query-ship cost equals the trace's query bytes.
    let global = stats.total_ledger();
    assert_eq!(
        global.breakdown.query_ship.bytes(),
        survey.trace.total_query_bytes()
    );
    assert_eq!(global.breakdown.update_ship.bytes(), 0);
    assert_eq!(global.breakdown.load.bytes(), 0);
}

#[test]
fn concurrent_clients_preserve_aggregate_accounting() {
    let survey = small_survey(240);
    let (server, _) = start_server(&survey, 4, PolicyKind::NoCache, 0.3);
    let addr = server.local_addr();

    // Four clients each replay a quarter of the events (round-robin deal).
    std::thread::scope(|scope| {
        for lane in 0..4usize {
            let survey = &survey;
            scope.spawn(move || {
                let mut client = DeltaClient::connect(addr).expect("connect");
                for (i, event) in survey.trace.iter().enumerate() {
                    if i % 4 != lane {
                        continue;
                    }
                    match event {
                        Event::Query(q) => {
                            client.query(q).expect("query");
                        }
                        Event::Update(u) => {
                            client.update(u).expect("update");
                        }
                    }
                }
            });
        }
    });

    let mut client = DeltaClient::connect(addr).expect("connect");
    let stats = client.stats().expect("stats");
    client.shutdown().expect("shutdown");
    server.join();

    // Interleaving across connections can reorder events, but NoCache
    // accounting is order-independent: totals must still be exact.
    let global = stats.total_ledger();
    assert_eq!(
        global.breakdown.query_ship.bytes(),
        survey.trace.total_query_bytes()
    );
    let shard_sum: u64 = stats
        .shards
        .iter()
        .map(|s| s.metrics.ledger.total().bytes())
        .sum();
    assert_eq!(shard_sum, global.total().bytes());
}

#[test]
fn server_rejects_unknown_objects_and_keeps_serving() {
    use delta_storage::ObjectId;
    use delta_workload::{QueryEvent, QueryKind, UpdateEvent};

    let survey = small_survey(50);
    let n_objects = survey.catalog.len() as u32;
    let (server, _) = start_server(&survey, 2, PolicyKind::VCover, 0.3);
    let mut client = DeltaClient::connect(server.local_addr()).expect("connect");

    let bad_query = QueryEvent {
        seq: 1,
        objects: vec![ObjectId(n_objects + 5)],
        result_bytes: 10,
        tolerance: 0,
        kind: QueryKind::Cone,
    };
    assert!(client.query(&bad_query).is_err());
    let bad_update = UpdateEvent {
        seq: 2,
        object: ObjectId(n_objects),
        bytes: 1,
    };
    assert!(client.update(&bad_update).is_err());

    // The connection survives the errors and serves valid requests.
    let ok = UpdateEvent {
        seq: 3,
        object: ObjectId(0),
        bytes: 5,
    };
    let reply = client.update(&ok).expect("valid update still works");
    assert_eq!(reply.version, 1);
    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.total_events(),
        1,
        "rejected events must not be accounted"
    );

    client.shutdown().expect("shutdown");
    server.join();
}

/// Chunks `events` with cycling batch sizes and replays them through a
/// pipelined connection with `window` frames in flight. Returns every
/// event's reply, in event order.
fn replay_mixed(
    addr: std::net::SocketAddr,
    events: &[Event],
    batch_sizes: &[usize],
    window: usize,
) -> Vec<BatchReply> {
    let mut chunks: Vec<Vec<BatchItem>> = Vec::new();
    let mut i = 0usize;
    let mut size_i = 0usize;
    while i < events.len() {
        let take = batch_sizes[size_i % batch_sizes.len()]
            .max(1)
            .min(events.len() - i);
        size_i += 1;
        chunks.push(
            events[i..i + take]
                .iter()
                .map(|e| match e {
                    Event::Query(q) => BatchItem::Query(q.clone()),
                    Event::Update(u) => BatchItem::Update(*u),
                })
                .collect(),
        );
        i += take;
    }

    let mut pipe = DeltaClient::connect(addr)
        .expect("connect")
        .pipelined(window);
    let mut corr_to_chunk = std::collections::HashMap::new();
    let mut answered: Vec<Option<Vec<BatchReply>>> = vec![None; chunks.len()];
    let mut handle =
        |corr: u64, response: Response, corr_to_chunk: &std::collections::HashMap<u64, usize>| {
            let chunk_i = corr_to_chunk[&corr];
            match response {
                Response::BatchOk(replies) => {
                    assert_eq!(replies.len(), chunks[chunk_i].len());
                    for (reply, item) in replies.iter().zip(&chunks[chunk_i]) {
                        match (reply, item) {
                            (BatchReply::Query { .. }, BatchItem::Query(_))
                            | (BatchReply::Update { .. }, BatchItem::Update(_)) => {}
                            other => panic!("reply/item mismatch: {other:?}"),
                        }
                    }
                    answered[chunk_i] = Some(replies);
                }
                other => panic!("unexpected {other:?}"),
            }
        };
    for (chunk_i, chunk) in chunks.iter().enumerate() {
        let corr = pipe.submit(&Request::Batch(chunk.clone())).expect("submit");
        corr_to_chunk.insert(corr, chunk_i);
        for (corr, response) in pipe.completed() {
            handle(corr, response, &corr_to_chunk);
        }
    }
    for (corr, response) in pipe.drain().expect("drain") {
        handle(corr, response, &corr_to_chunk);
    }
    answered
        .into_iter()
        .flat_map(|replies| replies.expect("every chunk answered"))
        .collect()
}

/// `events` followed by their queries once more, re-sequenced after
/// them: a warm cache answering queries back to back, where the trace
/// itself alternates queries and updates.
fn with_warm_queries(events: &[Event]) -> Vec<Event> {
    let mut seq = events.last().map_or(0, Event::seq);
    let again: Vec<Event> = events
        .iter()
        .filter_map(|e| match e {
            Event::Query(q) => {
                seq += 1;
                Some(Event::Query(QueryEvent { seq, ..q.clone() }))
            }
            Event::Update(_) => None,
        })
        .collect();
    events.iter().cloned().chain(again).collect()
}

/// Frame sizes that cut a replay wherever the twin answers two queries
/// in a row differently, so each such pair opens a frame: a node that
/// credits a frame's first two query replies to each other's items then
/// fails even when every query touches one shard.
fn frames_opening_on_mixed_pairs(replies: &[BatchReply]) -> Vec<usize> {
    let mut sizes = Vec::new();
    let mut start = 0;
    for i in 1..replies.len().saturating_sub(1) {
        let (a, b) = (&replies[i], &replies[i + 1]);
        if matches!((a, b), (BatchReply::Query { .. }, BatchReply::Query { .. })) && a != b {
            sizes.push(i - start);
            start = i;
        }
    }
    sizes.push(replies.len() - start);
    sizes
}

/// One connection, mixed batch sizes, deep pipeline: because per-shard
/// sub-event order still equals trace order, the per-shard ledgers must
/// stay byte-identical to the offline simulation twin —
/// batching and pipelining buy throughput without changing a single
/// decision.
#[test]
fn batched_pipelined_replay_matches_sharded_simulation_exactly() {
    let n_shards = shard_count();
    // The longer trace runs warm caches, so local and shipped query
    // replies share frames and a reply credited to the wrong item shows.
    // At one shard a frame's per-op replies follow the trace, which never
    // puts two queries in a row; so the last input adds the trace's
    // queries back to back and opens a frame on each pair the twin
    // answers differently.
    for (n, warm_queries) in [(300, false), (3_000, false), (3_000, true)] {
        let survey = small_survey(n);
        let (server, config) = start_server(&survey, n_shards, PolicyKind::VCover, 0.3);
        let addr = server.local_addr();
        let events = if warm_queries {
            with_warm_queries(&survey.trace.events)
        } else {
            survey.trace.events.clone()
        };
        let (want_replies, expected) = twin_replay(&config, &survey.catalog, &events);
        let sizes = if warm_queries {
            frames_opening_on_mixed_pairs(&want_replies)
        } else {
            vec![1, 3, 64, 7, 128, 2]
        };

        let replies = replay_mixed(addr, &events, &sizes, 8);

        let mut client = DeltaClient::connect(addr).expect("connect");
        let stats = client.stats().expect("stats");
        client.shutdown().expect("shutdown");
        server.join();

        let what = format!("batched+pipelined, {n} queries, warm queries after: {warm_queries}");
        assert_replies_match(&replies, &want_replies, &what);
        for (shard, want) in stats.shards.iter().zip(&expected) {
            assert_eq!(
                &shard.metrics.ledger, want,
                "{what}: shard {} ledger diverged",
                shard.shard
            );
        }
    }
}

/// Four concurrent connections with different batch sizes and pipeline
/// windows: cross-connection interleaving may reorder events, but the
/// order-independent invariants must hold exactly — total query bytes
/// (NoCache ships everything), shard-sum == aggregate, and per-object
/// update-log lengths (each object's final version equals its update
/// count in the trace).
#[test]
fn concurrent_mixed_batch_and_pipeline_preserve_invariants() {
    let n_shards = shard_count();
    let survey = small_survey(240);
    let (server, _) = start_server(&survey, n_shards, PolicyKind::NoCache, 0.3);
    let addr = server.local_addr();

    // Lane l gets events i with i % 4 == l, each lane with its own
    // batching/pipelining shape (including the degenerate 1/1).
    let shapes: [(&[usize], usize); 4] = [(&[1], 1), (&[4, 9], 2), (&[64], 8), (&[2, 31, 5], 4)];
    let all_versions = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for (lane, (batch_sizes, window)) in shapes.iter().enumerate() {
            let survey = &survey;
            let all_versions = &all_versions;
            scope.spawn(move || {
                let lane_events: Vec<Event> = survey
                    .trace
                    .events
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % 4 == lane)
                    .map(|(_, e)| e.clone())
                    .collect();
                let replies = replay_mixed(addr, &lane_events, batch_sizes, *window);
                let versions = lane_events
                    .iter()
                    .zip(replies)
                    .filter_map(|pair| match pair {
                        (Event::Update(u), BatchReply::Update { version, .. }) => {
                            Some((u.object, version))
                        }
                        _ => None,
                    });
                all_versions.lock().unwrap().extend(versions);
            });
        }
    });

    let mut client = DeltaClient::connect(addr).expect("connect");
    let stats = client.stats().expect("stats");
    client.shutdown().expect("shutdown");
    server.join();

    // Invariant 1: NoCache ships every sub-query; apportioning preserves
    // byte totals exactly, independent of arrival order.
    let global = stats.total_ledger();
    assert_eq!(
        global.breakdown.query_ship.bytes(),
        survey.trace.total_query_bytes()
    );
    let shard_sum: u64 = stats
        .shards
        .iter()
        .map(|s| s.metrics.ledger.total().bytes())
        .sum();
    assert_eq!(shard_sum, global.total().bytes());
    assert!(stats.total_events() as usize >= survey.trace.len());

    // Invariant 2: per-object update-log lengths. Every update bumps its
    // object's version by exactly one, so the max version each object
    // reached equals its update count in the trace, whatever the
    // interleaving.
    let mut expected_counts = std::collections::HashMap::new();
    for event in survey.trace.iter() {
        if let Event::Update(u) = event {
            *expected_counts.entry(u.object).or_insert(0u64) += 1;
        }
    }
    let mut max_versions = std::collections::HashMap::new();
    for (object, version) in all_versions.into_inner().unwrap() {
        let entry = max_versions.entry(object).or_insert(0u64);
        *entry = (*entry).max(version);
    }
    assert_eq!(max_versions.len(), expected_counts.len());
    for (object, want) in expected_counts {
        assert_eq!(
            max_versions.get(&object),
            Some(&want),
            "object {object} log length diverged"
        );
    }
}

#[test]
fn wire_meter_records_traffic_classes() {
    use delta_net::TrafficClass;

    let survey = small_survey(60);
    let (server, _) = start_server(&survey, 2, PolicyKind::VCover, 0.3);
    let mut client = DeltaClient::connect(server.local_addr()).expect("connect");
    replay(&mut client, &survey);
    client.stats().expect("stats");

    let meter = server.meter();
    assert!(
        meter.bytes_for(TrafficClass::QueryShip) > 0,
        "query frames metered"
    );
    assert!(
        meter.bytes_for(TrafficClass::UpdateShip) > 0,
        "update frames metered"
    );
    assert!(
        meter.bytes_for(TrafficClass::Control) > 0,
        "responses metered as control"
    );

    client.shutdown().expect("shutdown");
    server.join();
}
