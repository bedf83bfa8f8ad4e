//! Isolated per-layer drivers of the traced run: each times calls into
//! one layer's public functions on the very frames and sub-events the
//! workload produced. Nothing here touches a socket except the lockstep
//! round-trip probes at the bottom.

use crate::metrics::{quantile, Metrics};
use crate::oracle::split;
use crate::spec::{Frames, Segments, Spec, Topology};
use crate::topology::{Running, POLICY_SEED};
use crate::wire::{frame_events, lockstep, Conn};
use delta_flow::{CoverGraph, QueryNode, UpdateNode};
use delta_server::shard::{ShardCore, ShardOp, ShardSpec, ShardTelemetry};
use delta_server::{PolicyKind, Request, Response, TelemetrySnapshot};
use delta_storage::{ObjectCatalog, ObjectId};
use delta_telemetry::{Histogram, HistogramSnapshot};
use delta_workload::{Event, QueryEvent, QueryKind, UpdateEvent};
use std::hint::black_box;
use std::io;
use std::time::Instant;

/// Events each codec direction is timed over (the kept frames are
/// cycled until this many events have passed).
const CODEC_EVENTS: u64 = 1_000_000;

/// `protocol`: `Request/Response::encode_into`/`decode` over the closed
/// segment's first frames and the replies they really got.
pub fn protocol(m: &mut Metrics, frames: &[Request], replies: &[Response]) {
    let frames = &frames[..replies.len()];
    let events: u64 = frames.iter().map(frame_events).sum();
    let passes = CODEC_EVENTS.div_ceil(events);
    let timed = passes * events;
    let requests: Vec<Vec<u8>> = frames.iter().map(Request::encode).collect();
    let responses: Vec<Vec<u8>> = replies.iter().map(Response::encode).collect();
    let mut buf = Vec::with_capacity(64 * 1024);

    // Times `passes` sweeps of `sweep` and reports them per event.
    let mut time = |name: &str, sweep: &mut dyn FnMut()| {
        let t0 = Instant::now();
        for _ in 0..passes {
            sweep();
        }
        let ns = t0.elapsed().as_nanos() as f64 / timed as f64;
        m.put(&format!("protocol.{name}_ns_per_event"), "ns", ns, timed);
    };
    time("req_encode", &mut || {
        for frame in frames {
            buf.clear();
            frame.encode_into(&mut buf);
            black_box(&buf);
        }
    });
    time("req_decode", &mut || {
        for payload in &requests {
            black_box(Request::decode(black_box(payload)).expect("own encoding decodes"));
        }
    });
    time("resp_encode", &mut || {
        for reply in replies {
            buf.clear();
            reply.encode_into(&mut buf);
            black_box(&buf);
        }
    });
    time("resp_decode", &mut || {
        for payload in &responses {
            black_box(Response::decode(black_box(payload)).expect("own encoding decodes"));
        }
    });
    let wire_bytes = |payloads: &[Vec<u8>]| -> f64 {
        payloads.iter().map(|p| p.len() as f64 + 4.0).sum::<f64>() / events as f64
    };
    m.put(
        "protocol.req_bytes_per_event",
        "bytes",
        wire_bytes(&requests),
        events,
    );
    m.put(
        "protocol.resp_bytes_per_event",
        "bytes",
        wire_bytes(&responses),
        events,
    );
}

/// `partition`: `Partitioner::split_query`/`split_update` over the
/// closed segment's events.
pub fn partition(m: &mut Metrics, spec: &Spec, catalog: &ObjectCatalog, closed: &[Event]) {
    let map = spec.partitioner.build(spec.n_shards, catalog.len());
    let (mut queries, mut subs) = (0u64, 0u64);
    let t0 = Instant::now();
    for event in closed {
        match event {
            Event::Query(q) => {
                queries += 1;
                subs += black_box(map.split_query(black_box(q), catalog)).len() as u64;
            }
            Event::Update(u) => {
                black_box(map.split_update(black_box(u)));
            }
        }
    }
    let ns = t0.elapsed().as_nanos() as f64;
    m.put(
        "partition.split_ns_per_event",
        "ns",
        ns / closed.len() as f64,
        closed.len() as u64,
    );
    m.put(
        "partition.subqueries_per_query",
        "count",
        subs as f64 / queries.max(1) as f64,
        queries,
    );
}

/// `shard`: `ShardCore`s built like the server's, driven single-threaded
/// in the wire's groupings (`run_batch` per frame and shard on the
/// `Batch` workloads, `serve_query`/`apply_update` per event on
/// `small_frames`). Warm-up events pass through untimed so the closed
/// segment meets the state it met on the wire. Returns ns per event.
pub fn shard(spec: &Spec, catalog: &ObjectCatalog, events: &[Event], segments: Segments) -> f64 {
    let map = spec.partitioner.build(spec.n_shards, catalog.len());
    let caches = map.shard_cache_bytes(spec.cache_bytes(catalog), catalog);
    let cores: Vec<ShardCore> = (0..spec.n_shards)
        .map(|s| {
            ShardCore::new(ShardSpec {
                shard: s as u16,
                catalog: map.shard_catalog(s, catalog),
                cache_bytes: caches[s],
                policy: spec.policy,
                seed: POLICY_SEED + s as u64,
                restore: None,
                snapshot_path: None,
                telemetry: ShardTelemetry::detached(),
            })
        })
        .collect();
    let group = match spec.frames {
        Frames::Batch { size, .. } => size,
        Frames::Single { .. } => 1,
    };
    let (warm, rest) = events.split_at(segments.warmup);
    let mut busy_ns = 0u128;
    // Warm-up and closed frames are cut separately on the wire, so they
    // are chunked separately here.
    for (timed, segment) in [(false, warm), (true, &rest[..segments.closed])] {
        for chunk in segment.chunks(group) {
            let mut per_shard: Vec<Vec<ShardOp>> = vec![Vec::new(); spec.n_shards];
            for (item, event) in chunk.iter().enumerate() {
                for (s, sub) in split(map.as_ref(), catalog, event) {
                    let item = item as u32;
                    per_shard[s].push(match sub {
                        Event::Query(event) => ShardOp::Query { item, event },
                        Event::Update(event) => ShardOp::Update { item, event },
                    });
                }
            }
            for (s, mut ops) in per_shard.into_iter().enumerate() {
                if ops.is_empty() {
                    continue;
                }
                let t0 = Instant::now();
                if group > 1 {
                    black_box(cores[s].run_batch(ops));
                } else {
                    match ops.pop().expect("one op per single-event frame and shard") {
                        ShardOp::Query { event, .. } => {
                            black_box(cores[s].serve_query(event).expect("policy contract"));
                        }
                        ShardOp::Update { event, .. } => {
                            black_box(cores[s].apply_update(event));
                        }
                    }
                }
                if timed {
                    busy_ns += t0.elapsed().as_nanos();
                }
            }
        }
    }
    busy_ns as f64 / segments.closed as f64
}

/// `flow`: the `CoverGraph` churn the `UpdateManager` hot path produces
/// (the pattern of `core_hot_path`'s `flow_solve` bench), at a fixed
/// live population of `n` segment vertices: one removal, one insertion,
/// one three-edge query and one membership solve per step. Returns ns
/// per step.
pub fn flow_churn(n: usize) -> f64 {
    let steps = (2_000_000 / n).max(500);
    let mut g = CoverGraph::new();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut rng = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x >> 33
    };
    let mut segments: Vec<UpdateNode> = (0..n).map(|_| g.add_update(1 + rng() % 1000)).collect();
    let mut oldest = 0usize;
    let mut retained: Vec<QueryNode> = Vec::new();
    let t0 = Instant::now();
    for _ in 0..steps {
        g.remove_update(segments[oldest]);
        segments[oldest] = g.add_update(1 + rng() % 1000);
        oldest = (oldest + 1) % n;
        let qn = g.add_query(1 + rng() % 1500);
        for _ in 0..3 {
            let pick = segments[(rng() as usize) % n];
            if g.update_alive(pick) {
                g.add_interaction(pick, qn);
            }
        }
        if black_box(g.solve_query_membership(qn)) {
            retained.push(qn);
            if retained.len() > 64 {
                g.remove_query(retained.remove(0));
            }
        } else {
            g.remove_query(qn);
        }
    }
    t0.elapsed().as_nanos() as f64 / steps as f64
}

/// `telemetry`: `Histogram::record` in isolation, ns per call.
pub fn telemetry_record_ns() -> f64 {
    const CALLS: u64 = 2_000_000;
    let h = Histogram::new();
    let t0 = Instant::now();
    for i in 0..CALLS {
        h.record(black_box(i.wrapping_mul(2654435761) & 0xF_FFFF));
    }
    let ns = t0.elapsed().as_nanos() as f64;
    black_box(h.snapshot());
    ns / CALLS as f64
}

/// The histogram called `name`, or every histogram whose name starts
/// with `name` (a trailing `.`) merged — per-node and per-class
/// instruments read as one.
pub fn histogram(t: &TelemetrySnapshot, name: &str) -> Option<HistogramSnapshot> {
    let mut merged: Option<HistogramSnapshot> = None;
    for (n, h) in &t.histograms {
        if n == name || (name.ends_with('.') && n.starts_with(name)) {
            merged
                .get_or_insert_with(HistogramSnapshot::default)
                .merge(h);
        }
    }
    merged.filter(|h| h.count > 0)
}

fn put_quantile(
    m: &mut Metrics,
    name: &str,
    unit: &'static str,
    h: Option<&HistogramSnapshot>,
    q: f64,
) {
    match h {
        Some(h) => m.put(name, unit, h.quantile(q) as f64, h.count),
        None => m.missing(name, unit),
    }
}

/// Reads the instruments the program already keeps (`conn.*`,
/// `reactor.*`, `shard.*`, `router.*`, `replica.*`). `before` is the
/// node snapshot taken when the closed phase began; counters are read
/// as the difference. A missing instrument reports `None`.
pub fn instruments(
    m: &mut Metrics,
    spec: &Spec,
    before: &TelemetrySnapshot,
    nodes: &TelemetrySnapshot,
    router: Option<&TelemetrySnapshot>,
    lag_events_max: u64,
) {
    let delta = |name: &str| nodes.counter(name).saturating_sub(before.counter(name));
    let kframes = delta("conn.frames_in") as f64 / 1000.0;
    let per_kframe = |m: &mut Metrics, name: &str, counter: &str| {
        if kframes > 0.0 && nodes.counters.iter().any(|(n, _)| n == counter) {
            m.put(name, "count", delta(counter) as f64 / kframes, 0);
        } else {
            m.missing(name, "count");
        }
    };
    let lock_wait = histogram(nodes, "shard.lock_wait_ns.");
    let apply = histogram(nodes, "shard.apply_ns.");
    put_quantile(m, "shard.lock_wait_p99_ns", "ns", lock_wait.as_ref(), 0.99);
    match (&lock_wait, &apply) {
        (Some(w), Some(a)) if w.sum + a.sum > 0 => m.put(
            "shard.lock_wait_share",
            "share",
            w.sum as f64 / (w.sum + a.sum) as f64,
            w.count,
        ),
        _ => m.missing("shard.lock_wait_share", "share"),
    }
    put_quantile(
        m,
        "connection.frames_per_read_p50",
        "count",
        histogram(nodes, "conn.frames_per_read").as_ref(),
        0.5,
    );
    per_kframe(m, "connection.flushes_per_kframe", "conn.flushes");
    per_kframe(m, "reactor.wakeups_per_kframe", "reactor.wakeups");
    put_quantile(
        m,
        "reactor.frames_per_wakeup_p50",
        "count",
        histogram(nodes, "reactor.frames_per_wakeup").as_ref(),
        0.5,
    );
    put_quantile(
        m,
        "reactor.ready_per_wakeup_p50",
        "count",
        histogram(nodes, "reactor.ready_per_wakeup").as_ref(),
        0.5,
    );

    let fanout = router.and_then(|r| histogram(r, "router.fanout_ns."));
    put_quantile(m, "router.fanout_p50_ns", "ns", fanout.as_ref(), 0.5);
    put_quantile(m, "router.fanout_p99_ns", "ns", fanout.as_ref(), 0.99);
    put_quantile(
        m,
        "router.node_inflight_p50",
        "count",
        router
            .and_then(|r| histogram(r, "router.node_inflight"))
            .as_ref(),
        0.5,
    );
    put_quantile(
        m,
        "mux.frames_per_flush_p50",
        "count",
        router
            .and_then(|r| histogram(r, "router.mux_frames_per_flush"))
            .as_ref(),
        0.5,
    );
    match router {
        Some(r) => m.put(
            "router.wrong_epoch_retries",
            "count",
            r.counter("router.wrong_epoch_retries") as f64,
            0,
        ),
        None => m.missing("router.wrong_epoch_retries", "count"),
    }
    if spec.replicated() {
        m.put(
            "replication.shipped_events",
            "count",
            nodes.counter("replica.shipped_events") as f64,
            0,
        );
        m.put(
            "replication.lag_events_max",
            "count",
            lag_events_max as f64,
            0,
        );
    } else {
        m.missing("replication.shipped_events", "count");
        m.missing("replication.lag_events_max", "count");
    }
}

/// Which one-object event a round-trip probe sends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Probe {
    Update,
    Query,
}

/// Lockstep round trips of a one-object event over `conn`; the median
/// in microseconds. `first_seq` keeps the probe's sequence numbers past
/// everything the peer has applied.
pub fn rtt_p50_us(
    conn: &mut Conn,
    probe: Probe,
    object: ObjectId,
    first_seq: u64,
    samples: u64,
) -> io::Result<f64> {
    let requests = (0..samples).map(|i| match probe {
        Probe::Update => Request::Update(UpdateEvent {
            seq: first_seq + i,
            object,
            bytes: 1,
        }),
        Probe::Query => Request::Query(QueryEvent {
            seq: first_seq + i,
            objects: vec![object],
            result_bytes: 1,
            tolerance: 0,
            kind: QueryKind::Selection,
        }),
    });
    let (mut rtts, failed) = lockstep(conn, requests)?;
    if failed > 0 {
        return Err(io::Error::other(format!("{failed} probe events failed")));
    }
    Ok(quantile(&mut rtts, 0.5) as f64 / 1000.0)
}

/// `front.rtt_floor_p50_us`: the update probe against an idle NoCache
/// node serving the workload's catalog.
pub fn rtt_floor(spec: &Spec, catalog: &ObjectCatalog, samples: u64) -> io::Result<f64> {
    let idle = Spec {
        topology: Topology::Node,
        policy: PolicyKind::NoCache,
        ..spec.clone()
    };
    let running = Running::start(&idle, catalog, None)?;
    let mut conn = Conn::connect(running.addr)?;
    conn.hello()?;
    let result = rtt_p50_us(&mut conn, Probe::Update, ObjectId(0), 1, samples);
    drop(conn);
    running.stop()?;
    result
}
