//! The decision fence: one long seeded stream through `sim::simulate`
//! whose final `CostLedger` and `UpdateManager` counters are pinned.
//!
//! Every other differential in the tree compares two runs of the *same*
//! `UpdateManager` (served ledgers ≡ twin engine), so none can see a
//! decision change that both sides share; `um_equivalence` compares
//! against a per-update reference but never reaches the robustness caps.
//! This stream does: it coalesces segments, drops retained queries at
//! their cap, splits, ships and prunes — asserted non-zero below, so the
//! fence cannot silently stop covering them — and any change to how the
//! cover graph is restructured or searched must reproduce these numbers
//! exactly (a maximum flow's residual-reachable set is canonical, so a
//! correct one does).

use delta::core::{simulate, SimOptions, VCover};
use delta::storage::{ObjectCatalog, ObjectId};
use delta::workload::{Event, QueryEvent, QueryKind, Trace, UpdateEvent};

/// Object sizes. Objects 0 and 1 are small and receive huge updates and
/// tiny queries — their segments are never worth shipping, so horizons
/// pile up (coalescing) and shipped queries stay retained (the retained
/// cap). Objects 2.. see the opposite mix often enough to ship updates
/// and prune the queries those isolate.
const SIZES: [u64; 6] = [2_000, 3_000, 120_000, 40_000, 200_000, 60_000];
const EVENTS: u64 = 11_000;
/// Query-only prefix with ordinary result sizes, so every object is
/// loaded before the hot two start growing.
const WARMUP: u64 = 1_500;

fn stream() -> Trace {
    let mut x = 0x2010_0607_dead_beefu64;
    let mut rng = move |n: u64| {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 33) % n
    };
    let mut events = Vec::new();
    for seq in 1..=EVENTS {
        if seq > WARMUP && rng(10) < 3 {
            let object = if rng(2) == 0 { rng(2) } else { 2 + rng(4) };
            let bytes = if object < 2 {
                5_000_000 + rng(1_000_000)
            } else {
                500 + rng(8_000)
            };
            events.push(Event::Update(UpdateEvent {
                seq,
                object: ObjectId(object as u32),
                bytes,
            }));
            continue;
        }
        let first = if rng(3) < 2 { rng(2) } else { 2 + rng(4) };
        let mut objects = vec![ObjectId(first as u32)];
        if rng(4) == 0 {
            let second = rng(SIZES.len() as u64);
            if second != first {
                objects.push(ObjectId(second as u32));
                objects.sort();
            }
        }
        let cheap = seq > WARMUP && objects.iter().any(|o| o.0 < 2);
        let result_bytes = match (cheap, rng(40)) {
            (true, _) => 1 + rng(40),
            (false, 0) => 5_000_000,
            (false, _) => 50 + rng(3_000),
        };
        events.push(Event::Query(QueryEvent {
            seq,
            objects,
            result_bytes,
            tolerance: if rng(3) == 0 { 0 } else { 1 + rng(3_000) },
            kind: QueryKind::Cone,
        }));
    }
    Trace::new(events)
}

#[test]
fn capped_stream_decisions_are_pinned() {
    let catalog = ObjectCatalog::from_sizes(&SIZES);
    let trace = stream();
    let opts = SimOptions {
        cache_bytes: 4_000_000,
        sample_every: EVENTS,
        link: None,
    };
    let mut vcover = VCover::new(opts.cache_bytes, 20100607);
    let report = simulate(&mut vcover, &catalog, &trace, opts);
    let um = vcover.update_manager_stats();

    // The stream must keep reaching every restructuring path.
    for (name, count) in [
        ("segments_coalesced", um.segments_coalesced),
        ("retained_dropped", um.retained_dropped),
        ("segment_splits", um.segment_splits),
        ("update_nodes_shipped", um.update_nodes_shipped),
        ("queries_pruned", um.queries_pruned),
        ("evictions", report.ledger.evictions),
    ] {
        assert!(count > 0, "the fence stream no longer exercises {name}");
    }

    // Recorded on the tree before split/merge moved into `CoverGraph`
    // (PR 13, release build; the search counters are deliberately absent).
    let ledger = &report.ledger;
    assert_eq!(ledger.breakdown.query_ship.bytes(), 32_014_550);
    assert_eq!(ledger.breakdown.update_ship.bytes(), 4_026_899);
    assert_eq!(ledger.breakdown.load.bytes(), 7_160_402);
    assert_eq!(ledger.shipped_queries, 5_484);
    assert_eq!(ledger.local_answers, 2_770);
    assert_eq!(ledger.update_ships, 25);
    assert_eq!(ledger.loads, 11);
    assert_eq!(ledger.evictions, 7);
    assert_eq!(um.solves, 5_218);
    assert_eq!(um.queries_shipped, 5_194);
    assert_eq!(um.answered_locally, 24);
    assert_eq!(um.trivially_current, 2_746);
    assert_eq!(um.update_nodes_shipped, 526);
    assert_eq!(um.segment_splits, 1_087);
    assert_eq!(um.queries_pruned, 1_021);
    assert_eq!(um.segments_coalesced, 1_495);
    assert_eq!(um.retained_dropped, 207);
}
