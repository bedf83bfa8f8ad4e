//! The cover solve's search cost as a count: a fence that does not depend
//! on a clock.
//!
//! The remainder rule keeps shipped (saturated) queries and unshipped
//! segments in the graph, so nearly all of it is residual-reachable from
//! the source; a search that walks it from `s` to prove the flow maximal
//! pays for every live interaction on every solve. The bidirectional
//! search must instead pay for the source's adjacency and the *open* sink
//! edges and stop — nothing per retained (saturated) query — and a
//! coalesce must carry the routed flow across instead of leaving it to be
//! found again, one augmenting path per retained query.

use delta::flow::{CoverGraph, Relay, UpdateNode};

const SEGMENTS: usize = 128;
const RETAINED: usize = 1024;

/// One object whose outstanding updates were split into 128 nested
/// segments by `retained` shipped queries, query `j` needing the prefix up
/// to its horizon. Queries are cheap and segments dear, so the cover is
/// "ship every query": every `q -> t` edge saturated, every `s -> u` edge
/// not.
fn staircase_of(retained: usize) -> (CoverGraph, Vec<UpdateNode>) {
    let mut g = CoverGraph::new();
    let segments: Vec<_> = (0..SEGMENTS).map(|_| g.add_update(1_000_000)).collect();
    for j in 0..retained {
        let q = g.add_query(1 + (j % 7) as u64);
        for &segment in &segments[..=j % SEGMENTS] {
            g.add_interaction(segment, q);
        }
    }
    let cover = g.solve();
    assert_eq!(cover.queries.len(), retained, "every query is shipped");
    assert!(cover.updates.is_empty());
    (g, segments)
}

fn staircase() -> (CoverGraph, Vec<UpdateNode>) {
    staircase_of(RETAINED)
}

/// Entries one failed search scans: the flow is maximum, so a `solve` is
/// exactly that (the cover extraction's sweep is not a search and is not
/// counted).
fn failed_search(g: &mut CoverGraph) -> u64 {
    let before = g.edges_scanned();
    let _ = g.solve();
    g.edges_scanned() - before
}

#[test]
fn failed_search_does_not_grow_with_retained_queries() {
    let (mut small, _) = staircase_of(256);
    let (mut capped, _) = staircase_of(4096);
    let scanned = failed_search(&mut small);
    assert_eq!(scanned, failed_search(&mut capped));
    assert!(
        scanned <= SEGMENTS as u64,
        "{scanned} entries for no open sink"
    );
}

#[test]
fn a_coalesce_leaves_no_flow_to_find_again() {
    // The staircase as the `UpdateManager` builds it: one relay chain,
    // each retained query attached once, at its horizon.
    let mut g = CoverGraph::new();
    let mut segments: Vec<(UpdateNode, Relay)> = Vec::new();
    for _ in 0..SEGMENTS {
        let after = segments.last().map(|&(_, relay)| relay);
        segments.push(g.append_segment(after, 1_000_000));
    }
    for j in 0..RETAINED {
        let q = g.add_query(1 + (j % 7) as u64);
        g.attach(segments[j % SEGMENTS].1, q);
    }
    assert_eq!(g.solve().queries.len(), RETAINED, "every query is shipped");
    let (flow, wired) = (g.flow_value(), g.wiring_edges());
    g.merge_segments(segments[0].0, segments[63].0);
    assert_eq!(g.flow_value(), flow);
    assert_eq!(g.wiring_edges(), wired, "a coalesce wires nothing");
    // The next decision pushes its own path and nothing else.
    let before = g.augmentations();
    let q = g.add_query(3);
    g.attach(segments[0].1, q);
    assert!(g.solve_query_membership(q), "a cheap query is shipped");
    assert_eq!(g.augmentations() - before, 1);
    g.check().unwrap();
}

#[test]
fn failed_search_pays_for_the_terminals_not_the_graph() {
    let (mut g, _) = staircase();
    let failed = failed_search(&mut g);
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
