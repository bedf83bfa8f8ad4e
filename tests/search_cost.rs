//! The cover solve's search cost as a count: a fence that does not depend
//! on a clock.
//!
//! The remainder rule keeps shipped (saturated) queries and unshipped
//! segments in the graph, so nearly all of it is residual-reachable from
//! the source; a search that walks it from `s` to prove the flow maximal
//! pays for every live interaction on every solve. The bidirectional
//! search must instead pay for the two terminals' own adjacency and stop.

use delta::flow::CoverGraph;

const SEGMENTS: usize = 128;
const RETAINED: usize = 1024;

/// One object whose outstanding updates were split into 128 nested
/// segments by 1 024 shipped queries, query `j` needing the prefix up to
/// its horizon. Queries are cheap and segments dear, so the cover is "ship
/// every query": every `q -> t` edge saturated, every `s -> u` edge not.
fn staircase() -> (CoverGraph, Vec<delta::flow::UpdateNode>) {
    let mut g = CoverGraph::new();
    let segments: Vec<_> = (0..SEGMENTS).map(|_| g.add_update(1_000_000)).collect();
    for j in 0..RETAINED {
        let q = g.add_query(1 + (j % 7) as u64);
        for &segment in &segments[..=j % SEGMENTS] {
            g.add_interaction(segment, q);
        }
    }
    let cover = g.solve();
    assert_eq!(cover.queries.len(), RETAINED, "every query is shipped");
    assert!(cover.updates.is_empty());
    (g, segments)
}

#[test]
fn failed_search_pays_for_the_terminals_not_the_graph() {
    let (mut g, _) = staircase();
    // The flow is maximum, so this solve is exactly one failed search
    // (the cover extraction's sweep is not a search and is not counted).
    let before = g.edges_scanned();
    let _ = g.solve();
    let failed = g.edges_scanned() - before;
    let terminals = (SEGMENTS + RETAINED) as u64; // deg(s) + deg(t)
    assert!(
        failed <= 2 * terminals,
        "failed search scanned {failed} edges; deg(s) + deg(t) = {terminals}"
    );
    assert!(
        failed * 16 <= g.live_interactions() as u64,
        "failed search scanned {failed} of {} live interactions",
        g.live_interactions()
    );
}

#[test]
fn a_whole_decision_stays_near_the_terminals_too() {
    // A fresh query over every segment: one augmenting path, the failed
    // search after it, and the membership probe.
    let (mut g, segments) = staircase();
    let before = (g.edges_scanned(), g.augmentations());
    let q = g.add_query(3);
    for &segment in &segments {
        g.add_interaction(segment, q);
    }
    assert!(g.solve_query_membership(q), "a cheap query is shipped");
    assert_eq!(g.augmentations() - before.1, 1);
    let scanned = g.edges_scanned() - before.0;
    let terminals = (SEGMENTS + RETAINED + 1) as u64;
    assert!(
        scanned <= 4 * terminals,
        "decision scanned {scanned} edges; deg(s) + deg(t) = {terminals}"
    );
    assert!(scanned * 8 <= g.live_interactions() as u64);
}
