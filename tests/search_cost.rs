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

use delta::flow::{CoverGraph, QueryNode, Relay, UpdateNode};

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

/// Membership solves per churn run.
const FLOW_SOLVES: usize = 32_768;

/// Cheap deterministic draws (LCG), so every run sees the identical
/// instance stream and the totals below repeat exactly.
fn lcg() -> impl FnMut() -> u64 {
    let mut x = 0x9e3779b97f4a7c15u64;
    move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x >> 33
    }
}

/// The cover-graph churn the `UpdateManager` hot path produces: a steady
/// population of `n` live segments, one membership solve per arriving
/// query over [`FLOW_SOLVES`] queries, remainder-rule removals (at most 64
/// shipped queries retained) and the compactions they trigger. Returns
/// the whole run's `(edges_scanned, augmentations)`.
fn churn(n: usize) -> (u64, u64) {
    let mut g = CoverGraph::new();
    let mut rng = lcg();
    let mut segments: Vec<UpdateNode> = (0..n).map(|_| g.add_update(1 + rng() % 1000)).collect();
    let mut oldest = 0usize;
    let mut retained: Vec<QueryNode> = Vec::new();
    for _ in 0..FLOW_SOLVES {
        // The oldest segment ships out and a fresh one materializes.
        let dead = segments[oldest];
        g.remove_update(dead);
        segments[oldest] = g.add_update(1 + rng() % 1000);
        oldest = (oldest + 1) % n;
        // One query arrives, touching three live segments.
        let qn = g.add_query(1 + rng() % 1500);
        for _ in 0..3 {
            let pick = segments[(rng() as usize) % n];
            if g.update_alive(pick) {
                g.add_interaction(pick, qn);
            }
        }
        if g.solve_query_membership(qn) {
            retained.push(qn); // remainder rule: shipped queries stay
            if retained.len() > 64 {
                let old = retained.remove(0);
                g.remove_query(old);
            }
        } else {
            g.remove_query(qn); // answered locally
        }
    }
    (g.edges_scanned(), g.augmentations())
}

/// The same churn `benchmark/` times as `flow.churn_solve_ns.n{64,512,4096}`,
/// pinned here as exact search counts at the full [`FLOW_SOLVES`] for
/// every size: a change that makes the search scan more edges or push
/// more paths per solve moves these totals, on any machine.
#[test]
fn churn_search_counts_are_pinned() {
    assert_eq!(churn(64), (25_067_108, 80_354), "n64");
    assert_eq!(churn(512), (4_833_911, 79_127), "n512");
    assert_eq!(churn(4096), (1_170_830, 67_474), "n4096");
}

/// The regime the robustness caps pin a busy shard at, which the churn
/// above (64 retained queries) never reaches: one object with 128
/// prefix-nested segments on a relay chain under 4096 retained, saturated
/// queries. Every step one cheap query arrives at a random horizon —
/// inside a segment seven times in eight (a split), past the newest
/// otherwise (a fresh segment) — is attached there, shipped and retained;
/// the oldest retained query is dropped, and the oldest segments are
/// coalesced whenever the object passes its cap. The first 4096 steps
/// fill the retained cap; the second 4096 run at it and are counted:
/// their totals, and the worst single step.
#[test]
fn capped_search_counts_are_pinned() {
    const CAP: usize = 128;
    const RETAINED: usize = 4096;
    let mut g = CoverGraph::new();
    let mut rng = lcg();
    let mut segments: Vec<(UpdateNode, Relay)> = Vec::new();
    for _ in 0..CAP {
        let after = segments.last().map(|s| s.1);
        segments.push(g.append_segment(after, 1_000_000));
    }
    let mut retained = std::collections::VecDeque::with_capacity(RETAINED + 1);
    let mut start = (0u64, 0u64);
    let mut worst = (0u64, 0u64);
    for step in 0..2 * RETAINED {
        if step == RETAINED {
            start = (g.edges_scanned(), g.augmentations());
            worst = (0, 0);
        }
        let before = (g.edges_scanned(), g.augmentations());
        let at = (rng() as usize) % segments.len();
        let horizon = if rng().is_multiple_of(8) {
            let after = segments.last().map(|s| s.1);
            segments.push(g.append_segment(after, 1_000_000));
            segments.len() - 1
        } else {
            let w = g.update_weight(segments[at].0);
            let first = g.split_segment(segments[at].0, w / 2, w - w / 2);
            segments.insert(at, first);
            at
        };
        let qn = g.add_query(1 + rng() % 7);
        g.attach(segments[horizon].1, qn);
        assert!(g.solve_query_membership(qn), "cheap queries are shipped");
        retained.push_back(qn);
        if retained.len() > RETAINED {
            g.remove_query(retained.pop_front().expect("non-empty"));
        }
        if segments.len() > CAP {
            let k = segments.len() - CAP / 2;
            g.merge_segments(segments[0].0, segments[k - 1].0);
            segments.drain(1..k);
        }
        worst.0 = worst.0.max(g.edges_scanned() - before.0);
        worst.1 = worst.1.max(g.augmentations() - before.1);
    }
    let second_half = (g.edges_scanned() - start.0, g.augmentations() - start.1);
    assert_eq!(second_half, (68_552, 4_096), "second-half totals");
    assert_eq!(worst, (17, 1), "worst single step");
}
