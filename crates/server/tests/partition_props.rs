//! Property tests for the sharding arithmetic: `apportion`'s exactness,
//! query splitting under arbitrary shard counts, the offline `Twin`'s
//! byte and update accounting on random traces — all quantified over
//! *both* partitioners — plus the [`HashRing`]-specific bounded-remap
//! property that makes live resharding affordable.

use delta_server::{
    apportion, HashRing, Partitioner, PartitionerKind, PolicyKind, RoundRobin, ServerConfig, Twin,
};
use delta_storage::{ObjectCatalog, ObjectId};
use delta_workload::{Event, QueryEvent, QueryKind, Trace, UpdateEvent};
use proptest::prelude::*;

fn arb_weights() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..1_000_000_000, 0..24)
}

fn arb_catalog_sizes() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(1u64..10_000, 1..48)
}

fn arb_kind() -> impl Strategy<Value = QueryKind> {
    prop::sample::select(vec![
        QueryKind::Cone,
        QueryKind::Range,
        QueryKind::SelfJoin,
        QueryKind::Aggregate,
        QueryKind::Scan,
        QueryKind::Selection,
    ])
}

fn arb_partitioner_kind() -> impl Strategy<Value = PartitionerKind> {
    prop::sample::select(vec![PartitionerKind::RoundRobin, PartitionerKind::HashRing])
}

proptest! {
    /// Largest-remainder shares always sum exactly to the total, no
    /// matter the weights (zeros and empty included).
    #[test]
    fn apportion_sums_exactly(total in 0u64..u64::MAX / 2, weights in arb_weights()) {
        let shares = apportion(total, &weights);
        prop_assert_eq!(shares.len(), weights.len());
        if weights.is_empty() {
            prop_assert!(shares.is_empty());
        } else {
            prop_assert_eq!(shares.iter().sum::<u64>(), total);
        }
    }

    /// Shares track the ideal proportional split to within one unit
    /// (the defining property of largest-remainder rounding), which
    /// also makes them order-consistent: a strictly heavier weight
    /// never receives two fewer units than a lighter one.
    #[test]
    fn apportion_is_near_proportional(total in 0u64..1_000_000_000, weights in arb_weights()) {
        let wsum: u128 = weights.iter().map(|&w| w as u128).sum();
        if wsum == 0 {
            return Ok(());
        }
        let shares = apportion(total, &weights);
        for (&share, &w) in shares.iter().zip(&weights) {
            let ideal = total as f64 * w as f64 / wsum as f64;
            prop_assert!(
                (share as f64 - ideal).abs() < 1.0 + 1e-6,
                "share {share} vs ideal {ideal}"
            );
        }
    }

    /// Every partitioner is a dense bijection: `global ↔ (shard, local)`
    /// invert each other, local ids run `0..shard_len` with no gaps, and
    /// the shard lengths sum to the catalog.
    #[test]
    fn local_and_global_ids_invert(
        kind in arb_partitioner_kind(),
        n_objects in 1usize..200,
        n_shards in 1usize..12,
    ) {
        let n_shards = n_shards.min(n_objects);
        let map = kind.build(n_shards, n_objects);
        let mut seen = vec![false; n_objects];
        let mut total = 0usize;
        for s in 0..map.n_shards() {
            total += map.shard_len(s);
            for l in 0..map.shard_len(s) {
                let g = map.global_id(s, ObjectId(l as u32));
                prop_assert!(g.index() < n_objects);
                prop_assert!(!seen[g.index()], "{} assigned twice", g);
                seen[g.index()] = true;
                prop_assert_eq!(map.shard_of(g), s);
                prop_assert_eq!(map.local_id(g), ObjectId(l as u32));
            }
        }
        prop_assert_eq!(total, n_objects);
        prop_assert!(seen.into_iter().all(|b| b), "every object owned");
    }

    /// The bounded-remap property: growing a [`HashRing`] from N to N+1
    /// shards only ever moves objects *to* the new shard, and the moved
    /// share stays near the ideal `1/(N+1)`.
    #[test]
    fn hash_ring_remap_is_bounded(
        n_objects in 50usize..2_000,
        n_shards in 1usize..12,
    ) {
        let before = HashRing::new(n_shards, n_objects);
        let after = HashRing::new(n_shards + 1, n_objects);
        let mut moved = 0usize;
        for g in 0..n_objects as u32 {
            let o = ObjectId(g);
            if before.shard_of(o) != after.shard_of(o) {
                prop_assert_eq!(
                    after.shard_of(o),
                    n_shards,
                    "{} moved between surviving shards",
                    o
                );
                moved += 1;
            }
        }
        // Ideal is n_objects/(n_shards+1); allow generous statistical
        // slack (4x + small-sample constant) while still refuting any
        // "rehash everything" regression.
        let ideal = n_objects / (n_shards + 1);
        prop_assert!(
            moved <= ideal * 4 + 16,
            "moved {} objects, ideal {}",
            moved,
            ideal
        );
    }

    /// Splitting a query preserves its byte total and object multiset
    /// for every shard count and partitioner, and sub-queries use valid
    /// local ids.
    #[test]
    fn split_query_is_lossless_under_any_shard_count(
        kind_sel in arb_partitioner_kind(),
        sizes in arb_catalog_sizes(),
        n_shards in 1usize..12,
        objects in prop::collection::vec(0u32..48, 1..24),
        result_bytes in 0u64..1_000_000_000,
        tolerance in 0u64..1_000,
        kind in arb_kind(),
    ) {
        let catalog = ObjectCatalog::from_sizes(&sizes);
        let n_shards = n_shards.min(sizes.len());
        let objects: Vec<ObjectId> = objects
            .into_iter()
            .map(|o| ObjectId(o % sizes.len() as u32))
            .collect();
        let q = QueryEvent { seq: 1, objects: objects.clone(), result_bytes, tolerance, kind };
        let map = kind_sel.build(n_shards, sizes.len());
        let subs = map.split_query(&q, &catalog);

        prop_assert_eq!(
            subs.iter().map(|(_, s)| s.result_bytes).sum::<u64>(),
            result_bytes
        );
        let mut reassembled: Vec<ObjectId> = subs
            .iter()
            .flat_map(|(s, sub)| sub.objects.iter().map(|&l| map.global_id(*s, l)))
            .collect();
        reassembled.sort();
        let mut want = objects;
        want.sort();
        prop_assert_eq!(reassembled, want);
        for (s, sub) in &subs {
            prop_assert!(*s < n_shards);
            prop_assert_eq!(sub.seq, q.seq);
            prop_assert_eq!(sub.tolerance, q.tolerance);
            prop_assert_eq!(sub.kind, q.kind);
            prop_assert!(!sub.objects.is_empty());
        }
    }

    /// The offline twin loses and duplicates nothing, for random traces,
    /// shard counts and partitioners: under NoCache its shards together
    /// ship exactly the trace's query bytes, and each update is counted
    /// once, on the shard that owns its object.
    #[test]
    fn twin_ships_every_query_byte_and_counts_every_update_once(
        kind_sel in arb_partitioner_kind(),
        sizes in arb_catalog_sizes(),
        n_shards in 1usize..10,
        total_cache in 0u64..1_000_000,
        raw_events in prop::collection::vec(
            (0u32..48, 0u64..1_000_000, 0u64..100, 0u8..2),
            0..40
        ),
    ) {
        let catalog = ObjectCatalog::from_sizes(&sizes);
        // Sub-catalogs must be non-empty: shards never outnumber objects.
        let n_shards = n_shards.min(sizes.len());
        let n = sizes.len() as u32;
        let events: Vec<Event> = raw_events
            .into_iter()
            .enumerate()
            .map(|(seq, (obj, bytes, tol, is_query))| {
                if is_query == 1 {
                    Event::Query(QueryEvent {
                        seq: seq as u64,
                        objects: vec![ObjectId(obj % n), ObjectId((obj + 7) % n)],
                        result_bytes: bytes,
                        tolerance: tol,
                        kind: QueryKind::Selection,
                    })
                } else {
                    Event::Update(UpdateEvent {
                        seq: seq as u64,
                        object: ObjectId(obj % n),
                        bytes,
                    })
                }
            })
            .collect();
        let trace = Trace::new(events.clone());
        let map = kind_sel.build(n_shards, sizes.len());
        // An empty shard cannot carry a sub-catalog; the live server
        // refuses such configurations, so the property skips them too.
        if (0..n_shards).any(|s| map.shard_len(s) == 0) {
            return Ok(());
        }

        let config = ServerConfig {
            n_shards,
            partitioner: kind_sel,
            cache_bytes: total_cache,
            policy: PolicyKind::NoCache,
            ..ServerConfig::default()
        };
        let metrics = Twin::new(&config, &catalog).apply_all(&events).metrics();
        prop_assert_eq!(metrics.len(), n_shards);
        let shipped: u64 = metrics.iter().map(|m| m.ledger.total().bytes()).sum();
        prop_assert_eq!(shipped, trace.total_query_bytes());
        for (s, m) in metrics.iter().enumerate() {
            let owned = events
                .iter()
                .filter(|e| matches!(e, Event::Update(u) if map.shard_of(u.object) == s))
                .count();
            prop_assert_eq!(m.updates, owned as u64, "shard {} update count", s);
        }
    }

    /// Sub-catalogs tile the catalog: every object appears on exactly
    /// one shard with its original size, for any shard count and either
    /// partitioner.
    #[test]
    fn sub_catalogs_tile_the_catalog(
        kind_sel in arb_partitioner_kind(),
        sizes in arb_catalog_sizes(),
        n_shards in 1usize..12,
    ) {
        let catalog = ObjectCatalog::from_sizes(&sizes);
        let n_shards = n_shards.min(sizes.len());
        let map = kind_sel.build(n_shards, sizes.len());
        let mut seen = vec![0u32; sizes.len()];
        for s in (0..n_shards).filter(|&s| map.shard_len(s) > 0) {
            let sub = map.shard_catalog(s, &catalog);
            for l in 0..sub.len() {
                let g = map.global_id(s, ObjectId(l as u32));
                prop_assert!(g.index() < sizes.len());
                prop_assert_eq!(sub.size(ObjectId(l as u32)), catalog.size(g));
                seen[g.index()] += 1;
            }
        }
        prop_assert!(seen.iter().all(|&c| c == 1), "each object on exactly one shard");
    }

    /// RoundRobin preserved byte-for-byte: the trait object computes the
    /// exact `g % N` / `g / N` arithmetic of the pre-trait `ShardMap`.
    #[test]
    fn round_robin_is_the_original_arithmetic(
        n_objects in 1usize..500,
        n_shards in 1usize..12,
        g in 0u32..500,
    ) {
        let n_shards = n_shards.min(n_objects);
        let g = g % n_objects as u32;
        let map = RoundRobin::new(n_shards, n_objects);
        prop_assert_eq!(map.shard_of(ObjectId(g)), (g as usize) % n_shards);
        prop_assert_eq!(map.local_id(ObjectId(g)), ObjectId(g / n_shards as u32));
    }
}
