//! The `core` twin — every event of the run applied to plain
//! `Engine`s, one per shard, exactly as the served shards must have
//! applied them — and the comparer that holds the served ledgers to it.
//!
//! The twin is both the correctness oracle (every run) and the `core`
//! and `flow` layers' isolated driver (traced run: each
//! `Engine::apply` is timed and the twin's VCover carries the
//! benchmark's own `PolicyInstruments`).

use crate::spec::{Segments, Spec};
use crate::topology::POLICY_SEED;
use delta_core::{CachingPolicy, Engine, EngineMetrics, PolicyInstruments};
use delta_server::{Partitioner, StatsSnapshot};
use delta_storage::ObjectCatalog;
use delta_telemetry::{Gauge, Histogram, HistogramSnapshot};
use delta_workload::Event;
use std::sync::Arc;
use std::time::Instant;

type ShardEngine = Engine<'static, dyn CachingPolicy + Send>;

/// `Engine::apply` timings of the traced twin, closed segment only
/// unless stated.
#[derive(Default)]
pub struct CoreTimings {
    /// Per-call durations of the closed segment's sub-queries, ns.
    pub query_ns: Vec<u64>,
    /// Per-call durations of the closed segment's updates, ns.
    pub update_ns: Vec<u64>,
    /// Apply time per shard over the closed segment, ns.
    pub shard_busy_ns: Vec<u64>,
    /// Apply time per tenth of the closed segment (by event order), ns.
    pub decile_busy_ns: [u64; 10],
    /// Largest live cover graph seen after any closed-segment event.
    pub graph_nodes_max: u64,
    pub graph_edges_max: u64,
    /// The twin's own `um.solve_ns` over the closed segment.
    pub solve_ns: HistogramSnapshot,
}

/// `after - before`, bucket by bucket (`before` is an earlier snapshot
/// of the same histogram).
fn histogram_since(after: &HistogramSnapshot, before: &HistogramSnapshot) -> HistogramSnapshot {
    let earlier = |index: u32| {
        before
            .buckets
            .iter()
            .find(|&&(i, _)| i == index)
            .map_or(0, |&(_, c)| c)
    };
    HistogramSnapshot {
        count: after.count - before.count,
        sum: after.sum.wrapping_sub(before.sum),
        max: after.max,
        buckets: after
            .buckets
            .iter()
            .map(|&(i, c)| (i, c - earlier(i)))
            .filter(|&(_, c)| c > 0)
            .collect(),
    }
}

/// What the twin computed.
pub struct Twin {
    /// Per-shard metrics after the last event, in shard order.
    pub shards: Vec<EngineMetrics>,
    /// Bytes NoCache would have moved on the same events.
    pub nocache_bytes: u64,
    /// Shard-level queries the closed segment's queries split into.
    pub closed_sub_queries: u64,
    pub timings: Option<CoreTimings>,
}

/// Runs every event through per-shard engines built exactly like the
/// server builds its shard cores (same sub-catalogs, cache split,
/// policy seeds, clamped clock).
pub fn run_twin(
    spec: &Spec,
    catalog: &ObjectCatalog,
    events: &[Event],
    segments: Segments,
    timed: bool,
) -> Twin {
    let map = spec.partitioner.build(spec.n_shards, catalog.len());
    let caches = map.shard_cache_bytes(spec.cache_bytes(catalog), catalog);
    let instruments = PolicyInstruments {
        solve_ns: Arc::new(Histogram::new()),
        graph_nodes: Arc::new(Gauge::default()),
        graph_edges: Arc::new(Gauge::default()),
        solves: Arc::new(Default::default()),
    };
    let mut engines: Vec<ShardEngine> = (0..spec.n_shards)
        .map(|s| {
            let mut policy = spec.policy.build(caches[s], POLICY_SEED + s as u64);
            if timed {
                policy.attach_instruments(instruments.clone());
            }
            let sub = map.shard_catalog(s, catalog);
            let mut engine = Engine::new(policy, &sub, caches[s]).clamp_clock(true);
            engine.init(None);
            engine
        })
        .collect();

    let mut timings = timed.then(|| CoreTimings {
        shard_busy_ns: vec![0; spec.n_shards],
        ..CoreTimings::default()
    });
    let closed = segments.warmup..segments.warmup + segments.closed;
    let mut nocache_bytes = 0u64;
    let mut closed_sub_queries = 0u64;
    let mut solves_before_closed = HistogramSnapshot::default();
    for (i, event) in events.iter().enumerate() {
        if timed && i == closed.start {
            solves_before_closed = instruments.solve_ns.snapshot();
        }
        // Split outside the timed region: the partition layer has its
        // own driver.
        let subs: Vec<(usize, Event)> = split(map.as_ref(), catalog, event);
        if let Event::Query(q) = event {
            nocache_bytes += q.result_bytes;
            if closed.contains(&i) {
                closed_sub_queries += subs.len() as u64;
            }
        }
        for (shard, sub) in &subs {
            match timings.as_mut().filter(|_| closed.contains(&i)) {
                None => {
                    engines[*shard].apply(sub).expect("twin policy contract");
                }
                Some(t) => {
                    let t0 = Instant::now();
                    engines[*shard].apply(sub).expect("twin policy contract");
                    let ns = t0.elapsed().as_nanos() as u64;
                    if sub.is_query() {
                        t.query_ns.push(ns);
                    } else {
                        t.update_ns.push(ns);
                    }
                    t.shard_busy_ns[*shard] += ns;
                    t.decile_busy_ns[(i - closed.start) * 10 / segments.closed] += ns;
                }
            }
        }
        if let Some(t) = timings.as_mut().filter(|_| closed.contains(&i)) {
            t.graph_nodes_max = t.graph_nodes_max.max(instruments.graph_nodes.get());
            t.graph_edges_max = t.graph_edges_max.max(instruments.graph_edges.get());
            if i + 1 == closed.end {
                t.solve_ns =
                    histogram_since(&instruments.solve_ns.snapshot(), &solves_before_closed);
            }
        }
    }
    Twin {
        shards: engines.iter().map(Engine::metrics).collect(),
        nocache_bytes,
        closed_sub_queries,
        timings,
    }
}

/// One global event as the shard-level events it becomes.
pub fn split(map: &dyn Partitioner, catalog: &ObjectCatalog, event: &Event) -> Vec<(usize, Event)> {
    match event {
        Event::Query(q) => map
            .split_query(q, catalog)
            .into_iter()
            .map(|(s, sub)| (s, Event::Query(sub)))
            .collect(),
        Event::Update(u) => {
            let (s, sub) = map.split_update(u);
            vec![(s, Event::Update(sub))]
        }
    }
}

/// Holds the served per-shard ledgers to the twin's, byte for byte,
/// together with the event counts. Valid on `small_frames` too although
/// its two connections leave the interleaving free: NoCache's ledger is
/// a sum over events and does not depend on their order.
pub fn compare(expected: &[EngineMetrics], served: &StatsSnapshot) -> Result<(), String> {
    if served.shards.len() != expected.len() {
        return Err(format!(
            "served {} shards, twin has {}",
            served.shards.len(),
            expected.len()
        ));
    }
    for (i, (want, got)) in expected.iter().zip(&served.shards).enumerate() {
        let s = got.shard;
        if s as usize != i {
            return Err(format!("served shard list out of order: {s} at {i}"));
        }
        if got.metrics.ledger != want.ledger {
            return Err(format!(
                "shard {s}: served ledger {:?} differs from the twin's {:?}",
                got.metrics.ledger, want.ledger
            ));
        }
        if (got.metrics.queries, got.metrics.updates) != (want.queries, want.updates) {
            return Err(format!(
                "shard {s}: served {} queries / {} updates, twin applied {} / {}",
                got.metrics.queries, got.metrics.updates, want.queries, want.updates
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;
    use crate::workload::generate;
    use delta_core::Cost;
    use delta_server::ShardStats;

    fn served(twin: &Twin) -> StatsSnapshot {
        StatsSnapshot {
            shards: twin
                .shards
                .iter()
                .enumerate()
                .map(|(s, m)| ShardStats {
                    shard: s as u16,
                    policy: "VCover".into(),
                    metrics: m.clone(),
                })
                .collect(),
        }
    }

    fn small_twin() -> Twin {
        let spec = spec::by_name("sdss_mixed").unwrap().quick();
        let (catalog, events) = generate(&spec, 1);
        let segments = Segments {
            warmup: 0,
            closed: events.len() - 256,
            paced: 256,
        };
        run_twin(&spec, &catalog, &events, segments, false)
    }

    #[test]
    fn identical_ledgers_pass() {
        let twin = small_twin();
        assert!(twin.shards.iter().any(|m| m.ledger.total().bytes() > 0));
        compare(&twin.shards, &served(&twin)).unwrap();
    }

    #[test]
    fn a_deliberately_wrong_ledger_fails() {
        let twin = small_twin();
        let mut wrong = served(&twin);
        wrong.shards[2].metrics.ledger.breakdown.update_ship += Cost(1);
        let err = compare(&twin.shards, &wrong).unwrap_err();
        assert!(err.contains("shard 2"), "{err}");

        let mut miscounted = served(&twin);
        miscounted.shards[0].metrics.updates += 1;
        assert!(compare(&twin.shards, &miscounted).is_err());

        let mut short = served(&twin);
        short.shards.pop();
        assert!(compare(&twin.shards, &short).is_err());
    }
}
