//! Property-based tests: the incremental cover engine against brute force
//! and against from-scratch recomputation under random mutation sequences,
//! the bidirectional search against a forward-only reference kept in this
//! module, and the relay-chain encoding against the per-segment wiring it
//! replaced.

use delta_flow::{
    brute_force_cover_weight, CoverGraph, FlowNetwork, NodeId, QueryNode, Relay, UpdateNode, INF,
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

    /// Compaction keeps *both* sides' stamp buffers while it renumbers
    /// every vertex. A stamp surviving from before — on either side —
    /// would read as "already visited" (a path missed) or as a meeting (a
    /// path invented); the post-compaction answers must equal those of a
    /// graph that never had the history.
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

/// Objects a cut-equivalence script spreads its segments over.
const OBJECTS: usize = 3;

/// One segment as both encodings hold it.
#[derive(Clone, Copy, Debug)]
struct Seg {
    chain: UpdateNode,
    relay: Relay,
    flat: UpdateNode,
    weight: u64,
}

/// One query as both encodings hold it: `chain` is the vertex standing for
/// it there (its own, or the one `retain_query` folded it into).
#[derive(Clone, Copy, Debug)]
struct Member {
    chain: QueryNode,
    flat: QueryNode,
    weight: u64,
}

/// The same segment graph twice: `chain` wires each query once per object
/// through the relay chains, `flat` to every segment of its prefix with
/// plain interactions, and restructures with nothing but `add_update`,
/// `add_interaction` and `remove_update` — the encoding `chain` replaced.
#[derive(Default)]
struct Twin {
    chain: CoverGraph,
    flat: CoverGraph,
    /// Each object's live segments, oldest first.
    objects: [Vec<Seg>; OBJECTS],
    /// Live queries.
    queries: Vec<Member>,
    /// `flat`'s live interactions.
    flat_edges: Vec<(UpdateNode, QueryNode)>,
}

impl Twin {
    /// Runs `op` on `chain` and returns how many edges it wired.
    fn wired(&mut self, op: impl FnOnce(&mut CoverGraph)) -> u64 {
        let before = self.chain.wiring_edges();
        op(&mut self.chain);
        self.chain.wiring_edges() - before
    }

    fn flat_wire(&mut self, u: UpdateNode, q: QueryNode) {
        self.flat.add_interaction(u, q);
        self.flat_edges.push((u, q));
    }

    fn flat_remove(&mut self, u: UpdateNode) {
        self.flat.remove_update(u);
        self.flat_edges.retain(|&(v, _)| v != u);
    }

    /// Queries `flat` links to `u`, each once.
    fn flat_neighbours(&self, parts: &[Seg]) -> Vec<QueryNode> {
        let mut qs: Vec<_> = self
            .flat_edges
            .iter()
            .filter(|&&(u, _)| parts.iter().any(|s| s.flat == u))
            .map(|&(_, q)| q)
            .collect();
        qs.sort();
        qs.dedup();
        qs
    }

    fn append(&mut self, o: usize, weight: u64) -> usize {
        let after = self.objects[o].last().map(|s| s.relay);
        let mut made = None;
        let wired = self.wired(|g| made = Some(g.append_segment(after, weight)));
        assert_eq!(wired, if after.is_some() { 2 } else { 1 });
        let (chain, relay) = made.unwrap();
        let flat = self.flat.add_update(weight);
        self.objects[o].push(Seg {
            chain,
            relay,
            flat,
            weight,
        });
        self.objects[o].len() - 1
    }

    /// Splits segment `j` of `o` into `w1` and the rest; returns the first
    /// half's index (`j`).
    fn split(&mut self, o: usize, j: usize, w1: u64) -> usize {
        let seg = self.objects[o][j];
        let w2 = seg.weight - w1;
        let flow = self.chain.flow_value();
        let mut made = None;
        assert_eq!(
            self.wired(|g| made = Some(g.split_segment(seg.chain, w1, w2))),
            2
        );
        assert_eq!(
            self.chain.flow_value(),
            flow,
            "split changed the flow value"
        );
        let (chain, relay) = made.unwrap();
        let (first, second) = (self.flat.add_update(w1), self.flat.add_update(w2));
        for q in self.flat_neighbours(&[seg]) {
            self.flat_wire(first, q);
            self.flat_wire(second, q);
        }
        self.flat_remove(seg.flat);
        self.objects[o][j] = Seg {
            flat: second,
            weight: w2,
            ..seg
        };
        let first = Seg {
            chain,
            relay,
            flat: first,
            weight: w1,
        };
        self.objects[o].insert(j, first);
        j
    }

    /// The segment index a new query's horizon on `o` ends at: a fresh
    /// segment, the first half of a split one, or an existing boundary.
    fn horizon(&mut self, o: usize, pick: usize, w: u64) -> usize {
        let n = self.objects[o].len();
        match pick % 3 {
            1 if n > 0 => {
                let j = pick / 3 % n;
                let w1 = w % (self.objects[o][j].weight + 1);
                self.split(o, j, w1)
            }
            2 if n > 0 => pick / 3 % n,
            _ => self.append(o, 1 + w),
        }
    }

    /// Adds a query needing the given prefixes and, if `retain`, keeps it
    /// the way the `UpdateManager` keeps a shipped one.
    fn query(&mut self, weight: u64, horizons: &[(usize, usize)], retain: bool) {
        let (mut chain, flat) = (self.chain.add_query(weight), self.flat.add_query(weight));
        for &(o, j) in horizons {
            let relay = self.objects[o][j].relay;
            assert_eq!(self.wired(|g| g.attach(relay, chain)), 1);
            for i in 0..=j {
                let u = self.objects[o][i].flat;
                self.flat_wire(u, flat);
            }
        }
        if retain {
            let flow = self.chain.flow_value();
            chain = self.chain.retain_query(chain);
            assert_eq!(
                self.chain.flow_value(),
                flow,
                "folding changed the flow value"
            );
        }
        self.queries.push(Member {
            chain,
            flat,
            weight,
        });
    }

    /// Coalesces the first `k` segments of `o`.
    fn coalesce(&mut self, o: usize, k: usize) {
        let n = self.objects[o].len();
        if n < 2 {
            return;
        }
        let k = k.clamp(2, n);
        let parts: Vec<Seg> = self.objects[o][..k].to_vec();
        let flow = self.chain.flow_value();
        assert_eq!(
            self.wired(|g| g.merge_segments(parts[0].chain, parts[k - 1].chain)),
            0
        );
        assert_eq!(
            self.chain.flow_value(),
            flow,
            "coalesce changed the flow value"
        );
        let weight = parts.iter().map(|s| s.weight).sum();
        let merged = self.flat.add_update(weight);
        for q in self.flat_neighbours(&parts) {
            self.flat_wire(merged, q);
        }
        for part in &parts {
            self.flat_remove(part.flat);
        }
        self.objects[o].drain(1..k);
        self.objects[o][0] = Seg {
            flat: merged,
            weight,
            ..parts[0]
        };
    }

    /// Ships the first `k` segments of `o` (all of them: an eviction),
    /// then prunes the queries that left isolated — the same ones in both.
    fn drop_prefix(&mut self, o: usize, k: usize) {
        let n = self.objects[o].len();
        if n == 0 {
            return;
        }
        let k = k.clamp(1, n);
        let keep = self.objects[o].get(k).map(|s| s.relay);
        let mut isolated = Vec::new();
        self.chain
            .drop_chain(self.objects[o][0].relay, keep, &mut isolated);
        for seg in self.objects[o].drain(..k).collect::<Vec<_>>() {
            self.flat_remove(seg.flat);
        }
        let (chain, flat) = (&mut self.chain, &mut self.flat);
        let mut flat_isolated = Vec::new();
        self.queries.retain(|m| {
            let alone = flat.query_degree(m.flat) == 0;
            if alone {
                flat_isolated.push(m.chain);
                chain.remove_query(m.chain);
                flat.remove_query(m.flat);
            }
            !alone
        });
        isolated.sort();
        flat_isolated.sort();
        flat_isolated.dedup();
        assert_eq!(
            isolated, flat_isolated,
            "the encodings isolate different queries"
        );
    }

    fn remove_query(&mut self, i: usize) {
        if self.queries.is_empty() {
            return;
        }
        let m = self.queries.swap_remove(i % self.queries.len());
        self.chain.release_query(m.chain, m.weight);
        self.flat.remove_query(m.flat);
        self.flat_edges.retain(|&(_, q)| q != m.flat);
    }

    /// Solves both graphs: same cover weight, same side for every segment,
    /// and for every live query the same membership answer in both — which
    /// is also the chain's own full extraction.
    fn same_cut(&self, chain: &mut CoverGraph, flat: &mut CoverGraph) {
        let (cover, flat_cover) = (chain.solve(), flat.solve());
        assert_eq!(
            cover.weight, flat_cover.weight,
            "the encodings' cuts differ"
        );
        for seg in self.objects.iter().flatten() {
            assert_eq!(
                cover.updates.contains(&seg.chain),
                flat_cover.updates.contains(&seg.flat),
                "a segment changed sides"
            );
        }
        for m in &self.queries {
            let member = chain.solve_query_membership(m.chain);
            assert_eq!(member, cover.queries.contains(&m.chain));
            assert_eq!(
                member,
                flat.solve_query_membership(m.flat),
                "membership differs"
            );
        }
        chain.check().unwrap();
    }
}

proptest! {
    // The CI job's release-mode step runs many more scripts than tier-1.
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 96 } else { 4096 }))]

    /// Random scripts of the `UpdateManager`'s operations — queries whose
    /// horizons append, split or reuse segments on one or two objects (and
    /// are kept the way shipped ones are, folded together per relay), coalesces,
    /// shipped prefixes, evictions, query removals and forced compactions — run on the relay chains and on the per-segment wiring
    /// they replace. After every step (on copies, so later steps also meet
    /// flows that are not maximum) both have the same minimum cut, every
    /// segment and query is on the same side of it, and restructuring
    /// carried the flow value and wired what it should; every fourth step
    /// and kinds 11 and 12 also solve the graphs themselves.
    #[test]
    fn relay_chains_cut_like_prefix_wiring(
        ops in proptest::collection::vec((0u8..13, 0usize..64, 0usize..64, 0u64..100), 0..60),
    ) {
        let mut twin = Twin::default();
        for (step, &(kind, a, b, w)) in ops.iter().enumerate() {
            let o = a % OBJECTS;
            match kind {
                0..=2 => {
                    let j = twin.horizon(o, b, w);
                    twin.query(1 + w, &[(o, j)], b / 7 % 2 == 0);
                }
                3 => {
                    let other = (o + 1) % OBJECTS;
                    let j = twin.horizon(o, b, w);
                    let k = twin.horizon(other, b / 2, w / 2);
                    twin.query(1 + w, &[(o, j), (other, k)], b / 7 % 2 == 0);
                }
                4 | 5 => twin.coalesce(o, b % 5),
                6 => twin.drop_prefix(o, 1 + b % 4),
                7 => twin.drop_prefix(o, usize::MAX),
                8 => twin.remove_query(b),
                9 => twin.chain.compact(),
                10 => twin.flat.compact(),
                _ => {}
            }
            twin.chain.check().unwrap();
            let (mut chain, mut flat) = (twin.chain.clone(), twin.flat.clone());
            twin.same_cut(&mut chain, &mut flat);
            if kind >= 11 || step % 4 == 3 {
                let (mut chain, mut flat) = (
                    std::mem::take(&mut twin.chain),
                    std::mem::take(&mut twin.flat),
                );
                twin.same_cut(&mut chain, &mut flat);
                (twin.chain, twin.flat) = (chain, flat);
            }
        }
        let live: usize = twin.objects.iter().map(Vec::len).sum();
        prop_assert_eq!(twin.chain.live_updates(), live);
        let mut vertices: Vec<_> = twin.queries.iter().map(|m| m.chain).collect();
        vertices.sort();
        vertices.dedup();
        prop_assert_eq!(twin.chain.live_queries(), vertices.len());
        let members: usize = vertices.iter().map(|&q| twin.chain.query_members(q)).sum();
        prop_assert_eq!(members, twin.queries.len());
        prop_assert_eq!(twin.flat.live_interactions(), twin.flat_edges.len());
    }
}
