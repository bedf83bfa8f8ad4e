//! Property-based tests: the incremental cover engine against brute force
//! and against from-scratch recomputation under random mutation sequences,
//! and the bidirectional search against a forward-only reference kept in
//! this module.

use delta_flow::{
    brute_force_cover_weight, CoverGraph, FlowNetwork, NodeId, QueryNode, UpdateNode, INF,
};
use proptest::prelude::*;
use std::collections::VecDeque;

/// A small random bipartite instance.
#[derive(Clone, Debug)]
struct Instance {
    u_weights: Vec<u64>,
    q_weights: Vec<u64>,
    edges: Vec<(usize, usize)>,
}

fn arb_instance(max_side: usize, max_edges: usize) -> impl Strategy<Value = Instance> {
    (1..=max_side, 1..=max_side).prop_flat_map(move |(nu, nq)| {
        (
            proptest::collection::vec(1u64..100, nu),
            proptest::collection::vec(1u64..100, nq),
            proptest::collection::vec((0..nu, 0..nq), 0..=max_edges),
        )
            .prop_map(|(u_weights, q_weights, edges)| Instance {
                u_weights,
                q_weights,
                edges,
            })
    })
}

fn build(inst: &Instance) -> (CoverGraph, Vec<UpdateNode>, Vec<QueryNode>) {
    let mut g = CoverGraph::new();
    let us: Vec<_> = inst.u_weights.iter().map(|&w| g.add_update(w)).collect();
    let qs: Vec<_> = inst.q_weights.iter().map(|&w| g.add_query(w)).collect();
    for &(u, q) in &inst.edges {
        g.add_interaction(us[u], qs[q]);
    }
    (g, us, qs)
}

proptest! {
    /// Solver weight equals exhaustive minimum, and the returned sets
    /// really cover every edge.
    #[test]
    fn cover_is_optimal_and_valid(inst in arb_instance(7, 16)) {
        let (mut g, us, qs) = build(&inst);
        let c = g.solve();
        let brute = brute_force_cover_weight(&inst.u_weights, &inst.q_weights, &inst.edges);
        prop_assert_eq!(c.weight, brute);
        for &(u, q) in &inst.edges {
            prop_assert!(
                c.updates.contains(&us[u]) || c.queries.contains(&qs[q]),
                "edge uncovered"
            );
        }
        g.check().unwrap();
    }

    /// Adding nodes/edges one at a time and re-solving (incremental) ends
    /// at the same weight as solving the final graph fresh.
    #[test]
    fn incremental_equals_scratch(inst in arb_instance(8, 20)) {
        let mut g = CoverGraph::new();
        let us: Vec<_> = inst.u_weights.iter().map(|&w| g.add_update(w)).collect();
        let qs: Vec<_> = inst.q_weights.iter().map(|&w| g.add_query(w)).collect();
        for &(u, q) in &inst.edges {
            g.add_interaction(us[u], qs[q]);
            let _ = g.solve(); // solve after every mutation
        }
        let inc = g.solve().weight;
        let (mut fresh, _, _) = build(&inst);
        prop_assert_eq!(inc, fresh.solve().weight);
    }

    /// Random interleavings of removals keep the flow feasible and the
    /// cover equal to a fresh solve on the surviving subgraph.
    #[test]
    fn removals_match_fresh_subgraph(
        inst in arb_instance(8, 20),
        removals in proptest::collection::vec((proptest::bool::ANY, 0usize..8), 0..8),
    ) {
        let (mut g, us, qs) = build(&inst);
        let _ = g.solve();
        let mut dead_u = vec![false; inst.u_weights.len()];
        let mut dead_q = vec![false; inst.q_weights.len()];
        for (is_u, idx) in removals {
            if is_u {
                if idx < us.len() {
                    g.remove_update(us[idx]);
                    dead_u[idx] = true;
                }
            } else if idx < qs.len() {
                g.remove_query(qs[idx]);
                dead_q[idx] = true;
            }
            g.check().unwrap();
        }
        let inc = g.solve().weight;

        // Fresh graph over survivors.
        let su: Vec<u64> = inst.u_weights.iter().enumerate()
            .filter(|&(i, _)| !dead_u[i]).map(|(_, &w)| w).collect();
        let sq: Vec<u64> = inst.q_weights.iter().enumerate()
            .filter(|&(i, _)| !dead_q[i]).map(|(_, &w)| w).collect();
        let remap_u: Vec<usize> = {
            let mut m = vec![usize::MAX; inst.u_weights.len()];
            let mut k = 0;
            for i in 0..inst.u_weights.len() {
                if !dead_u[i] { m[i] = k; k += 1; }
            }
            m
        };
        let remap_q: Vec<usize> = {
            let mut m = vec![usize::MAX; inst.q_weights.len()];
            let mut k = 0;
            for i in 0..inst.q_weights.len() {
                if !dead_q[i] { m[i] = k; k += 1; }
            }
            m
        };
        let sedges: Vec<(usize, usize)> = inst.edges.iter()
            .filter(|&&(u, q)| !dead_u[u] && !dead_q[q])
            .map(|&(u, q)| (remap_u[u], remap_q[q]))
            .collect();
        let brute = brute_force_cover_weight(&su, &sq, &sedges);
        prop_assert_eq!(inc, brute);
    }

    /// Raw max-flow: flow value is invariant to edge insertion order.
    #[test]
    fn flow_order_invariant(
        n in 2usize..8,
        edges in proptest::collection::vec((0usize..8, 0usize..8, 1u64..50), 1..24),
        seed in 0u64..1000,
    ) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let edges: Vec<_> = edges.into_iter()
            .filter(|&(a, b, _)| a < n && b < n && a != b)
            .collect();
        let mut g1 = network(n, &edges);
        let f1 = g1.max_flow(0, n - 1);
        let mut shuffled = edges.clone();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        shuffled.shuffle(&mut rng);
        let mut g2 = network(n, &shuffled);
        let f2 = g2.max_flow(0, n - 1);
        prop_assert_eq!(f1, f2);
        g1.check_conservation(0, n - 1).unwrap();
    }
}

/// The textbook algorithm the library's search replaced, kept as the
/// reference: from-scratch Edmonds–Karp with a source-side BFS over its
/// own edge list. Shares no code with `delta_flow`.
fn reference_max_flow(n: usize, edges: &[(usize, usize, u64)], s: usize, t: usize) -> u64 {
    let mut to = Vec::new();
    let mut residual = Vec::new();
    let mut adj = vec![Vec::new(); n];
    for &(a, b, c) in edges {
        adj[a].push(to.len());
        to.push(b);
        residual.push(c);
        adj[b].push(to.len());
        to.push(a);
        residual.push(0);
    }
    let mut total = 0;
    loop {
        let mut parent = vec![usize::MAX; n];
        let mut queue = VecDeque::from([s]);
        while let Some(v) = queue.pop_front() {
            for &e in &adj[v] {
                if residual[e] > 0 && to[e] != s && parent[to[e]] == usize::MAX {
                    parent[to[e]] = e;
                    queue.push_back(to[e]);
                }
            }
        }
        if parent[t] == usize::MAX {
            return total;
        }
        let mut bottleneck = u64::MAX;
        let mut v = t;
        while v != s {
            bottleneck = bottleneck.min(residual[parent[v]]);
            v = to[parent[v] ^ 1];
        }
        let mut v = t;
        while v != s {
            residual[parent[v]] -= bottleneck;
            residual[parent[v] ^ 1] += bottleneck;
            v = to[parent[v] ^ 1];
        }
        total += bottleneck;
    }
}

/// `n` nodes and the given `(from, to, capacity)` edges, in order.
fn network(n: usize, edges: &[(usize, usize, u64)]) -> FlowNetwork {
    let mut g = FlowNetwork::new();
    for _ in 0..n {
        g.add_node();
    }
    for &(a, b, c) in edges {
        g.add_edge(a, b, c);
    }
    g
}

/// Forward BFS distance `s -> t` over the network's current residual
/// graph, through its public read API only.
fn forward_distance(g: &FlowNetwork, s: NodeId, t: NodeId) -> Option<usize> {
    let mut dist = vec![usize::MAX; g.node_count()];
    dist[s] = 0;
    let mut queue = VecDeque::from([s]);
    while let Some(v) = queue.pop_front() {
        for &e in g.adjacency(v) {
            let edge = g.edge(e);
            if edge.residual() > 0 && !g.is_deleted(edge.to) && dist[edge.to] == usize::MAX {
                dist[edge.to] = dist[v] + 1;
                queue.push_back(edge.to);
            }
        }
    }
    (dist[t] != usize::MAX).then_some(dist[t])
}

/// Flow on every forward edge (even ids), in id order.
fn forward_flows(g: &FlowNetwork) -> Vec<u64> {
    (0..g.edge_count()).map(|i| g.flow_on(2 * i)).collect()
}

/// A general (non-bipartite) network on `n` nodes, source 0, sink `n - 1`.
fn arb_network() -> impl Strategy<Value = (usize, Vec<(usize, usize, u64)>)> {
    (2usize..9).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n, 1u64..50), 1..28).prop_map(move |edges| {
            let edges = edges.into_iter().filter(|&(a, b, _)| a != b).collect();
            (n, edges)
        })
    })
}

/// The cover reduction of `inst` restricted to surviving vertices, as an
/// edge list for [`reference_max_flow`]: source 0, sink 1.
fn cover_reduction(
    inst: &Instance,
    dead_u: &[bool],
    dead_q: &[bool],
) -> (usize, Vec<(usize, usize, u64)>) {
    let nu = inst.u_weights.len();
    let mut edges = Vec::new();
    for (i, &w) in inst.u_weights.iter().enumerate() {
        if !dead_u[i] {
            edges.push((0, 2 + i, w));
        }
    }
    for (j, &w) in inst.q_weights.iter().enumerate() {
        if !dead_q[j] {
            edges.push((2 + nu + j, 1, w));
        }
    }
    for &(u, q) in &inst.edges {
        if !dead_u[u] && !dead_q[q] {
            edges.push((2 + u, 2 + nu + q, INF));
        }
    }
    (2 + nu + inst.q_weights.len(), edges)
}

proptest! {
    /// Bidirectional `max_flow` reaches the value of the from-scratch
    /// forward reference on general networks, whether it runs in one go or
    /// tops up a flow left half-finished.
    #[test]
    fn max_flow_equals_forward_reference((n, edges) in arb_network(), steps in 0usize..4) {
        let want = reference_max_flow(n, &edges, 0, n - 1);
        let mut g = network(n, &edges);
        let mut pushed = 0;
        for _ in 0..steps {
            pushed += g.augment_once(0, n - 1).unwrap_or(0);
        }
        pushed += g.max_flow(0, n - 1);
        prop_assert_eq!(pushed, want);
        prop_assert_eq!(g.flow_value(0), want);
        g.check_conservation(0, n - 1).unwrap();
    }

    /// Every augmenting path the bidirectional search finds is a shortest
    /// one: it has exactly as many edges as the forward BFS distance
    /// `s -> t` in the residual graph it was found in (so `max_flow` is
    /// Edmonds–Karp, with its bound), and the search fails only when the
    /// forward BFS does.
    #[test]
    fn augmenting_paths_are_shortest((n, edges) in arb_network()) {
        let (s, t) = (0, n - 1);
        let mut g = network(n, &edges);
        loop {
            let distance = forward_distance(&g, s, t);
            let before = forward_flows(&g);
            let pushed = g.augment_once(s, t);
            prop_assert_eq!(pushed.is_some(), distance.is_some());
            let Some(pushed) = pushed else { break };
            // A shortest path is simple, so it changes each edge pair at
            // most once: the changed pairs are the path's edges.
            let hops = before.iter().zip(forward_flows(&g)).filter(|&(&a, b)| a != b).count();
            prop_assert_eq!(Some(hops), distance, "pushed {} along a detour", pushed);
        }
    }

    /// The cover engine's flow value equals the forward reference on the
    /// surviving subgraph after every removal and across a forced
    /// compaction.
    #[test]
    fn cover_flow_equals_forward_reference(
        inst in arb_instance(8, 24),
        removals in proptest::collection::vec((proptest::bool::ANY, 0usize..8), 0..8),
        compact_at in 0usize..8,
    ) {
        let (mut g, us, qs) = build(&inst);
        let mut dead_u = vec![false; us.len()];
        let mut dead_q = vec![false; qs.len()];
        let (n, edges) = cover_reduction(&inst, &dead_u, &dead_q);
        prop_assert_eq!(g.solve().weight, reference_max_flow(n, &edges, 0, 1));
        for (i, &(is_u, idx)) in removals.iter().enumerate() {
            if is_u {
                if idx < us.len() {
                    g.remove_update(us[idx]);
                    dead_u[idx] = true;
                }
            } else if idx < qs.len() {
                g.remove_query(qs[idx]);
                dead_q[idx] = true;
            }
            if i == compact_at {
                g.compact();
            }
            let (n, edges) = cover_reduction(&inst, &dead_u, &dead_q);
            prop_assert_eq!(g.solve().weight, reference_max_flow(n, &edges, 0, 1));
            g.check().unwrap();
        }
    }

    /// The targeted membership probe agrees with the full extraction for
    /// every live query, across random mutation sequences that include
    /// removals and forced compactions. This is the fast path
    /// `UpdateManager::decide` actually takes; the full `solve()` survives
    /// only for tests and stats, so the two must never drift.
    #[test]
    fn membership_equals_full_solve(
        inst in arb_instance(8, 20),
        ops in proptest::collection::vec((proptest::bool::ANY, 0usize..8), 0..10),
        compact_at in 0usize..10,
    ) {
        let (mut g, us, qs) = build(&inst);
        for (i, &(is_u, idx)) in ops.iter().enumerate() {
            if is_u {
                if idx < us.len() && g.update_alive(us[idx]) {
                    g.remove_update(us[idx]);
                }
            } else if idx < qs.len() && g.query_alive(qs[idx]) {
                g.remove_query(qs[idx]);
            }
            if i == compact_at {
                g.compact();
            }
            // Interleave probes with mutations so scratch epochs from
            // a previous solve never leak into the next one.
            for &qn in &qs {
                if g.query_alive(qn) {
                    let member = g.solve_query_membership(qn);
                    let full = g.solve();
                    prop_assert_eq!(
                        member,
                        full.queries.contains(&qn),
                        "membership drifted from extraction"
                    );
                }
            }
        }
        g.compact();
        let cover = g.solve();
        for &qn in &qs {
            if g.query_alive(qn) {
                prop_assert_eq!(g.solve_query_membership(qn), cover.queries.contains(&qn));
            }
        }
        g.check().unwrap();
    }

    /// Compaction hands *both* sides' stamp buffers to the rebuilt
    /// network, which renumbers every vertex. A stamp surviving from
    /// before — on either side — would read as "already visited" (a path
    /// missed) or as a meeting (a path invented); the post-compaction
    /// answers must equal those of a graph that never had the history.
    #[test]
    fn adopted_scratch_never_reads_as_visited(
        inst in arb_instance(8, 20),
        doomed in proptest::collection::vec((1u64..100, 1u64..100), 1..12),
    ) {
        let (mut g, us, qs) = build(&inst);
        // Stamp both sides heavily under low epochs, on vertex ids the
        // compaction is about to reassign: throwaway pairs appended after
        // the instance, solved (augmenting path through each) and probed.
        for &(uw, qw) in &doomed {
            let u = g.add_update(uw);
            let q = g.add_query(qw);
            g.add_interaction(u, q);
            for &keep in &us {
                g.add_interaction(keep, q);
            }
            let _ = g.solve_query_membership(q);
            g.remove_update(u);
            g.remove_query(q);
        }
        g.compact();
        let (mut fresh, _, fresh_qs) = build(&inst);
        for (&qn, &fq) in qs.iter().zip(&fresh_qs) {
            prop_assert_eq!(g.solve_query_membership(qn), fresh.solve_query_membership(fq));
        }
        let (got, want) = (g.solve(), fresh.solve());
        prop_assert_eq!(got.weight, want.weight);
        prop_assert_eq!(got.updates, want.updates);
        prop_assert_eq!(got.queries, want.queries);
        g.check().unwrap();
    }
}

/// The bipartite graph a [`CoverGraph`] should hold, kept beside it by
/// [`restructure`]: live vertices by handle, weights, and interaction
/// pairs.
#[derive(Default)]
struct Model {
    us: Vec<(UpdateNode, u64)>,
    qs: Vec<(QueryNode, u64)>,
    edges: Vec<(UpdateNode, QueryNode)>,
}

impl Model {
    /// The from-scratch forward reference's flow value on the model.
    fn reference_flow(&self) -> u64 {
        let u_at = |u: UpdateNode| 2 + self.us.iter().position(|&(v, _)| v == u).unwrap();
        let q_at =
            |q: QueryNode| 2 + self.us.len() + self.qs.iter().position(|&(v, _)| v == q).unwrap();
        let mut edges = Vec::new();
        for &(u, w) in &self.us {
            edges.push((0, u_at(u), w));
        }
        for &(q, w) in &self.qs {
            edges.push((q_at(q), 1, w));
        }
        for &(u, q) in &self.edges {
            edges.push((u_at(u), q_at(q), INF));
        }
        reference_max_flow(2 + self.us.len() + self.qs.len(), &edges, 0, 1)
    }
}

/// Applies one scripted operation to the graph and its model. `a` and `b`
/// pick vertices among the live ones, `w` is a weight or a split point.
fn restructure(g: &mut CoverGraph, m: &mut Model, (kind, a, b, w): (u8, usize, usize, u64)) {
    let flow = g.flow_value();
    match kind {
        0 => m.us.push((g.add_update(w), w)),
        1 => m.qs.push((g.add_query(w), w)),
        2..=4 if !m.us.is_empty() && !m.qs.is_empty() => {
            let (u, q) = (m.us[a % m.us.len()].0, m.qs[b % m.qs.len()].0);
            g.add_interaction(u, q);
            m.edges.push((u, q));
        }
        5 if !m.us.is_empty() => {
            let (u, _) = m.us.swap_remove(a % m.us.len());
            g.remove_update(u);
            m.edges.retain(|&(v, _)| v != u);
        }
        6 if !m.qs.is_empty() => {
            let (q, _) = m.qs.swap_remove(b % m.qs.len());
            g.remove_query(q);
            m.edges.retain(|&(_, v)| v != q);
        }
        7 if !m.us.is_empty() => {
            let i = a % m.us.len();
            let (u, weight) = m.us[i];
            let w1 = w % (weight + 1);
            let second = g.split_update(u, w1, weight - w1);
            assert_eq!(g.flow_value(), flow, "split changed the flow value");
            m.us[i].1 = w1;
            m.us.push((second, weight - w1));
            let copies: Vec<_> = m.edges.iter().filter(|&&(v, _)| v == u).copied().collect();
            m.edges.extend(copies.into_iter().map(|(_, q)| (second, q)));
        }
        8 if m.us.len() >= 2 => {
            // Merge the 1–3 vertices after `into` (cyclically) into it.
            let i = a % m.us.len();
            let k = (1 + b % 3).min(m.us.len() - 1);
            let parts: Vec<_> = (1..=k).map(|d| m.us[(i + d) % m.us.len()].0).collect();
            let into = m.us[i].0;
            g.merge_updates(into, parts.iter().copied());
            assert_eq!(g.flow_value(), flow, "merge changed the flow value");
            let total: u64 =
                m.us.iter()
                    .filter(|(v, _)| parts.contains(v))
                    .map(|&(_, w)| w)
                    .sum();
            m.us.iter_mut().find(|(v, _)| *v == into).unwrap().1 += total;
            m.us.retain(|(v, _)| !parts.contains(v));
            for e in &mut m.edges {
                if parts.contains(&e.0) {
                    e.0 = into;
                }
            }
        }
        9 => g.compact(),
        _ => {}
    }
}

proptest! {
    /// Random add / remove / split / merge / compact sequences: the flow
    /// stays conserved and the open-sink set complete after every step
    /// (`check`), splits and merges carry the flow value across
    /// (`restructure`), and whenever the script solves, the cover weight
    /// is the from-scratch forward reference's flow on the modelled graph
    /// and the membership probe agrees with the full extraction.
    #[test]
    fn restructuring_preserves_flow_and_answers(
        inst in arb_instance(6, 14),
        ops in proptest::collection::vec((0u8..12, 0usize..64, 0usize..64, 0u64..100), 0..40),
    ) {
        let (mut g, us, qs) = build(&inst);
        let mut m = Model {
            us: us.iter().copied().zip(inst.u_weights.iter().copied()).collect(),
            qs: qs.iter().copied().zip(inst.q_weights.iter().copied()).collect(),
            edges: inst.edges.iter().map(|&(u, q)| (us[u], qs[q])).collect(),
        };
        for (step, &op) in ops.iter().enumerate() {
            restructure(&mut g, &mut m, op);
            g.check().unwrap();
            // Kinds 10 and 11 (and every fourth step) solve, so the
            // restructuring also meets flows that are not maximum.
            if op.0 >= 10 || step % 4 == 3 {
                let cover = g.solve();
                prop_assert_eq!(cover.weight, m.reference_flow(), "after step {}", step);
                for &(q, _) in &m.qs {
                    prop_assert_eq!(g.solve_query_membership(q), cover.queries.contains(&q));
                }
                g.check().unwrap();
            }
        }
        prop_assert_eq!(g.solve().weight, m.reference_flow());
        prop_assert_eq!(g.live_updates(), m.us.len());
        prop_assert_eq!(g.live_queries(), m.qs.len());
        // The O(1) degree counters (each accessor recounts in debug
        // builds) survived every in-place split and merge.
        let by_update: usize = m.us.iter().map(|&(u, _)| g.update_degree(u)).sum();
        let by_query: usize = m.qs.iter().map(|&(q, _)| g.query_degree(q)).sum();
        prop_assert_eq!(by_update, g.live_interactions());
        prop_assert_eq!(by_query, g.live_interactions());
    }
}
