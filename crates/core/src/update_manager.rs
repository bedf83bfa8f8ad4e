//! The `UpdateManager`: online min-weight vertex cover over the live
//! interaction graph (paper §4, Fig. 4 and Fig. 5).
//!
//! For a query whose objects are all cached, the manager
//!
//! 1. adds a query vertex weighted ν(q) and update vertices (weighted by
//!    their shipping cost) for every outstanding update the query's
//!    staleness tolerance requires, with the corresponding edges;
//! 2. re-solves the minimum-weight vertex cover *incrementally* (the flow
//!    from the previous solve is reused);
//! 3. if the query is in the cover, ships it; otherwise ships exactly the
//!    updates it interacts with and answers it at the cache.
//!
//! The *remainder subgraph* rule (§4) is applied after every decision:
//! shipped update nodes and locally-answered query nodes leave the graph,
//! shipped query nodes are retained (their weight keeps justifying future
//! update shipping), and isolated vertices are pruned. Object eviction
//! removes the object's update vertices wholesale.
//!
//! ## Segment vertices
//!
//! A rapidly-growing repository can accumulate thousands of outstanding
//! updates per object; materializing one vertex per update would make the
//! graph grow without bound. Two outstanding updates of the same object
//! are *indistinguishable* to the cover whenever every interacting query
//! needs either both or neither — true exactly within the runs delimited
//! by the distinct query horizons seen so far. The manager therefore
//! materializes one **segment vertex** per such run (weight = total bytes
//! of the run), splitting a segment only when a new query's staleness
//! horizon lands inside it. This is cost- and cover-equivalent to the
//! per-update graph (all-or-nothing shipping of identically-connected
//! vertices) while keeping the graph proportional to the number of
//! *distinct horizons*, not updates.
//!
//! A query needs a *prefix* of an object's segments — everything from the
//! applied version up to its horizon — so it is not wired to each of them.
//! Each object's segments hang off a **relay chain** in the cover graph
//! (`delta_flow::cover` draws it): segment `k` feeds relay `k`, relay `k`
//! feeds relay `k + 1`, and a query attaches once per object, to the relay
//! of the last segment it needs. That reaches exactly the prefix, so the
//! covers are those of the per-segment wiring, at one edge per (query,
//! object) instead of one per (query, segment). A split inserts one relay
//! (two edges), a new tail segment adds one relay (two edges, one for an
//! object's first), and a coalesce adds none; [`UpdateManagerStats`]
//! counts them as `wiring_edges`. A shipped query that reads one object
//! is retained folded into its relay's vertex for such queries (they are
//! cover-indistinguishable), which the retained cap later shrinks member
//! by member. Shipping a prefix drops its relays, and the queries attached
//! there are the only ones it can isolate, so pruning costs what it
//! prunes.

use crate::context::SimContext;
use delta_flow::{CoverGraph, QueryNode, Relay, UpdateNode};
use std::collections::VecDeque;

/// Robustness cap (public so callers and docs can reference the bound):
/// live segment vertices per object. Continuous
/// staleness tolerances can mint a fresh horizon — and thus a segment
/// split — per query; on a coarse partition whose hot object is rarely
/// shipped this grows the working graph (and each incremental solve)
/// without bound. Beyond the cap, the *oldest* segments are coalesced
/// into one vertex: their union adjacency is conservative (a query may
/// become linked to updates slightly past its horizon, which can only
/// ship more than strictly needed — currency is never violated), and
/// future horizons re-split the merged run on demand.
pub const MAX_SEGMENTS_PER_OBJECT: usize = 128;

/// Robustness cap: retained (shipped) query vertices. The remainder rule
/// keeps them to justify future update shipping; the oldest carry the
/// least-relevant evidence and are dropped first (forgetting a shipped
/// query can only bias later covers toward shipping queries again —
/// never violates a currency contract).
pub const MAX_RETAINED_QUERIES: usize = 4096;
use crate::policy_trait::PolicyInstruments;
use delta_storage::ObjectId;
use delta_workload::QueryEvent;

/// Appends `(o, applied, required)` to `ranges` when the cached copy at
/// `applied` does not satisfy the query horizon — the same arithmetic as
/// `staleness::needed_updates`, minus the second cache probe (the caller
/// already holds the applied version).
#[inline]
fn push_needed_range(
    ranges: &mut Vec<(ObjectId, u64, u64)>,
    ctx: &SimContext<'_>,
    o: ObjectId,
    applied: u64,
    tolerance: u64,
) {
    let required = ctx.repo.version_at_horizon(o, ctx.now, tolerance);
    if applied < required {
        ranges.push((o, applied, required));
    }
}

/// Statistics the manager accumulates (reported in benchmarks).
#[derive(Clone, Copy, Debug, Default)]
pub struct UpdateManagerStats {
    /// Cover computations performed.
    pub solves: u64,
    /// Queries decided by shipping the query.
    pub queries_shipped: u64,
    /// Queries decided by shipping updates and answering locally.
    pub answered_locally: u64,
    /// Queries answered locally with no outstanding interacting updates.
    pub trivially_current: u64,
    /// Segment vertices shipped (and removed).
    pub update_nodes_shipped: u64,
    /// Segment splits caused by new staleness horizons.
    pub segment_splits: u64,
    /// Segments added past the end of an object's chain by a horizon
    /// beyond every materialized one.
    pub segments_appended: u64,
    /// Retained query vertices pruned after becoming isolated.
    pub queries_pruned: u64,
    /// Segment coalesces forced by [`MAX_SEGMENTS_PER_OBJECT`].
    pub segments_coalesced: u64,
    /// Retained queries dropped by [`MAX_RETAINED_QUERIES`].
    pub retained_dropped: u64,
    /// Augmenting paths pushed across all solves
    /// (`CoverGraph::augmentations`).
    pub augmentations: u64,
    /// Adjacency entries the solves' path searches examined
    /// (`CoverGraph::edges_scanned`) — search cost as a count.
    pub edges_scanned: u64,
    /// Infinite-capacity edges the decisions wired: one per (query,
    /// object) attachment plus two per segment split or appended
    /// (`CoverGraph::wiring_edges`).
    pub wiring_edges: u64,
}

/// One materialized run of outstanding updates `[start, end)` of an
/// object, represented by a single cover vertex hanging off `relay`, the
/// first relay of its run on the object's chain.
#[derive(Debug)]
struct Segment {
    start: u64,
    end: u64,
    node: UpdateNode,
    relay: Relay,
}

/// Online decision engine for queries hitting fully-resident object sets.
#[derive(Debug, Default)]
pub struct UpdateManager {
    graph: CoverGraph,
    /// Live segments per object, indexed by the dense object id (an
    /// empty Vec means no live segments): sorted, disjoint, contiguous
    /// from the cache's applied version. A slab, not a hash map — object
    /// ids are catalog indices.
    by_object: Vec<Vec<Segment>>,
    /// Live update-node count across all objects (kept so the hot path
    /// never has to sum the slab).
    live_nodes: usize,
    /// Retained (shipped) queries, oldest first, as the vertex standing for
    /// each (`CoverGraph::retain_query`) and its weight, plus the pruned
    /// ones not yet swept out (their vertex is dead). Between decisions
    /// every live vertex has a live edge: shipping and eviction end in
    /// `prune_isolated`, and nothing else (split, coalesce, the query cap)
    /// isolates a query.
    retained: VecDeque<(QueryNode, u64)>,
    /// Live entries of `retained`.
    retained_live: usize,
    /// Queries the last chain drop left without a live edge.
    isolated: Vec<QueryNode>,
    /// Reusable scratch for the per-query needed-update ranges — no
    /// per-event heap allocation on the hot path.
    ranges_scratch: Vec<(ObjectId, u64, u64)>,
    /// Observational telemetry handles (serving stack only; `None` in
    /// pure sim/bench runs — decisions are identical either way).
    instruments: Option<PolicyInstruments>,
    stats: UpdateManagerStats,
}

impl UpdateManager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> UpdateManagerStats {
        UpdateManagerStats {
            augmentations: self.graph.augmentations(),
            edges_scanned: self.graph.edges_scanned(),
            wiring_edges: self.graph.wiring_edges(),
            ..self.stats
        }
    }

    /// Attaches observational telemetry handles (`um.*` metrics). Timing
    /// only happens while attached; decisions never depend on it.
    pub fn attach_instruments(&mut self, instruments: PolicyInstruments) {
        self.instruments = Some(instruments);
    }

    /// Number of live segment vertices (for tests).
    pub fn live_update_nodes(&self) -> usize {
        self.live_nodes
    }

    /// Number of retained query vertices (for tests).
    pub fn retained_queries(&self) -> usize {
        self.retained_live
    }

    /// The segment slot for `o`, growing the slab on demand.
    fn segs_mut(&mut self, o: ObjectId) -> &mut Vec<Segment> {
        let i = o.index();
        if i >= self.by_object.len() {
            self.by_object.resize_with(i + 1, Vec::new);
        }
        &mut self.by_object[i]
    }

    /// Decides and executes the ship-query vs ship-updates choice for a
    /// query whose objects are all resident (Fig. 4).
    ///
    /// # Panics
    /// Panics if some object in `B(q)` is not resident.
    pub fn handle_query(&mut self, q: &QueryEvent, ctx: &mut SimContext<'_>) {
        // Collect the outstanding update ranges the query's tolerance
        // requires, per object, into the reusable scratch buffer.
        let mut ranges = std::mem::take(&mut self.ranges_scratch);
        ranges.clear();
        for &o in &q.objects {
            let applied = ctx
                .cache
                .applied_version(o)
                .expect("UpdateManager invoked with non-resident object");
            push_needed_range(&mut ranges, ctx, o, applied, q.tolerance);
        }
        self.decide(q, ranges, ctx);
    }

    /// [`UpdateManager::handle_query`] for callers that already probed
    /// residency: `applied` carries each object's applied version in
    /// `B(q)` order, so the cache is not consulted a second time.
    pub fn handle_query_resident(
        &mut self,
        q: &QueryEvent,
        applied: &[(ObjectId, u64)],
        ctx: &mut SimContext<'_>,
    ) {
        debug_assert_eq!(applied.len(), q.objects.len());
        let mut ranges = std::mem::take(&mut self.ranges_scratch);
        ranges.clear();
        for &(o, applied_version) in applied {
            push_needed_range(&mut ranges, ctx, o, applied_version, q.tolerance);
        }
        self.decide(q, ranges, ctx);
    }

    /// The decision core shared by the two entry points. Takes ownership
    /// of the scratch `ranges` buffer and returns it to `self` on every
    /// path.
    fn decide(
        &mut self,
        q: &QueryEvent,
        ranges: Vec<(ObjectId, u64, u64)>,
        ctx: &mut SimContext<'_>,
    ) {
        // Fig. 4 lines 12–13: nothing outstanding interacts with q.
        if ranges.is_empty() {
            self.ranges_scratch = ranges;
            self.stats.trivially_current += 1;
            ctx.answer_local(q);
            return;
        }

        // Materialize segment vertices for the needed ranges and attach
        // the query vertex once per object, at the end of its prefix.
        let qn = self.graph.add_query(q.result_bytes);
        for &(o, from, to) in &ranges {
            if let Some(relay) = self.materialize(o, from, to, ctx) {
                self.graph.attach(relay, qn);
            }
        }

        // Incremental cover solve (Fig. 5), asking only the one question
        // this decision needs: is qn in the cover? The ranges to ship on
        // a "no" are already in hand — no full cover materialization.
        let solve_start = self.instruments.as_ref().map(|_| std::time::Instant::now());
        let ship_query = self.graph.solve_query_membership(qn);
        self.stats.solves += 1;
        if let (Some(ins), Some(start)) = (self.instruments.as_ref(), solve_start) {
            ins.solve_ns.record(start.elapsed().as_nanos() as u64);
            ins.solves.inc();
            ins.graph_nodes
                .set((self.graph.live_updates() + self.graph.live_queries()) as u64);
            ins.graph_edges.set(self.graph.live_inf_edges() as u64);
        }

        if ship_query {
            // Ship the query; retain its vertex (remainder rule).
            ctx.ship_query(q);
            let vertex = self.graph.retain_query(qn);
            self.retained.push_back((vertex, q.result_bytes));
            self.retained_live += 1;
            self.stats.queries_shipped += 1;
        } else {
            // Ship all updates interacting with q, per object, then answer
            // locally. Segments are all-or-nothing, and q's segments are
            // exactly the prefix up to its horizon.
            for &(o, _from, to) in &ranges {
                ctx.ship_updates_to(o, to);
                self.drop_prefix(o, to);
            }
            self.graph.remove_query(qn);
            ctx.answer_local(q);
            self.stats.answered_locally += 1;
            self.prune_isolated();
        }
        self.ranges_scratch = ranges;
        self.enforce_caps(q);
    }

    /// Applies the robustness caps (see the module constants): coalesces
    /// each object's oldest segments and drops the oldest retained query
    /// vertices once their counts exceed the bounds.
    fn enforce_caps(&mut self, q: &QueryEvent) {
        for &o in &q.objects {
            let Some(segs) = self.by_object.get_mut(o.index()) else {
                continue;
            };
            if segs.len() <= MAX_SEGMENTS_PER_OBJECT {
                continue;
            }
            // Coalesce the oldest half into its first vertex.
            let k = segs.len() - MAX_SEGMENTS_PER_OBJECT / 2;
            self.graph.merge_segments(segs[0].node, segs[k - 1].node);
            segs[0].end = segs[k - 1].end;
            segs.drain(1..k);
            self.live_nodes -= k - 1;
            self.stats.segments_coalesced += k as u64;
        }
        if self.retained_live > MAX_RETAINED_QUERIES {
            let mut drop = self.retained_live - MAX_RETAINED_QUERIES;
            while drop > 0 {
                let (vertex, weight) = self.retained.pop_front().expect("live entries remain");
                // Entries pruned since they were retained are already gone.
                if self.graph.query_alive(vertex) {
                    self.graph.release_query(vertex, weight);
                    self.stats.retained_dropped += 1;
                    drop -= 1;
                }
            }
            self.retained_live = MAX_RETAINED_QUERIES;
            // Removing a query cannot isolate another query, so there is
            // nothing to prune (the invariant on `retained`).
            debug_assert!(self
                .retained
                .iter()
                .filter(|&&(vertex, _)| self.graph.query_alive(vertex))
                .all(|&(vertex, _)| self.graph.query_degree(vertex) > 0));
        }
    }

    /// Ensures segments exist covering `[from, to)` with a boundary at
    /// `to` (splitting if a segment straddles it), and returns the relay a
    /// query with horizon `to` attaches to: that of the last segment
    /// ending at or before `to` (`None` if there is none).
    fn materialize(
        &mut self,
        o: ObjectId,
        from: u64,
        to: u64,
        ctx: &SimContext<'_>,
    ) -> Option<Relay> {
        self.segs_mut(o); // grow the slab before taking field borrows
        let graph = &mut self.graph;
        let segs = &mut self.by_object[o.index()];
        // Extend coverage to `to` if needed.
        let covered_to = segs.last().map(|s| s.end).unwrap_or(from);
        if to > covered_to {
            let start = covered_to.max(from);
            let w = ctx.repo.update_bytes(o, start, to);
            let (node, relay) = graph.append_segment(segs.last().map(|s| s.relay), w);
            segs.push(Segment {
                start,
                end: to,
                node,
                relay,
            });
            self.live_nodes += 1;
            self.stats.segments_appended += 1;
            return Some(relay);
        }
        if let Some(idx) = segs.iter().position(|s| s.start < to && to < s.end) {
            // Split the straddling segment at `to`: the first half goes on
            // a new relay in front of the segment's own, where the queries
            // that needed all of it still reach both halves.
            self.stats.segment_splits += 1;
            let (start, end) = (segs[idx].start, segs[idx].end);
            let w1 = ctx.repo.update_bytes(o, start, to);
            let w2 = ctx.repo.update_bytes(o, to, end);
            let (node, relay) = graph.split_segment(segs[idx].node, w1, w2);
            segs[idx].start = to;
            let first = Segment {
                start,
                end: to,
                node,
                relay,
            };
            segs.insert(idx, first);
            self.live_nodes += 1;
            return Some(relay);
        }
        // Sorted and disjoint: q's segments are the prefix ending at `to`.
        segs.iter()
            .take_while(|s| s.end <= to)
            .last()
            .map(|s| s.relay)
    }

    /// Removes all segments of `o` ending at or before `to` (they were
    /// shipped and applied). Segments are sorted and disjoint, so the
    /// shipped ones form a prefix of the chain — dropped in one walk.
    fn drop_prefix(&mut self, o: ObjectId, to: u64) {
        let Some(segs) = self.by_object.get_mut(o.index()) else {
            return;
        };
        let k = segs.iter().position(|s| s.end > to).unwrap_or(segs.len());
        if k == 0 {
            return;
        }
        let keep = segs.get(k).map(|s| s.relay);
        self.graph
            .drop_chain(segs[0].relay, keep, &mut self.isolated);
        segs.drain(..k);
        self.live_nodes -= k;
        self.stats.update_nodes_shipped += k as u64;
    }

    /// Removes every live segment of an evicted object: with the object
    /// gone, its updates no longer need shipping (queries on it will be
    /// shipped instead).
    pub fn on_evict(&mut self, o: ObjectId) {
        let Some(segs) = self.by_object.get_mut(o.index()) else {
            return;
        };
        let Some(head) = segs.first() else {
            return;
        };
        self.graph.drop_chain(head.relay, None, &mut self.isolated);
        self.live_nodes -= segs.len();
        segs.clear();
        self.prune_isolated();
    }

    /// Drops the retained query vertices the last chain drops left with
    /// no live edges — they can never influence a future cover.
    fn prune_isolated(&mut self) {
        for vertex in self.isolated.drain(..) {
            // The deciding query may be on the list, already removed.
            if self.graph.query_alive(vertex) {
                debug_assert_eq!(self.graph.query_degree(vertex), 0);
                let members = self.graph.query_members(vertex);
                self.graph.remove_query(vertex);
                self.stats.queries_pruned += members as u64;
                self.retained_live -= members;
            }
        }
        // Sweep the pruned entries out once they outnumber the live ones.
        if self.retained.len() > 2 * self.retained_live + 64 {
            let graph = &self.graph;
            self.retained
                .retain(|&(vertex, _)| graph.query_alive(vertex));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostLedger;
    use delta_storage::{CacheStore, ObjectCatalog, Repository};
    use delta_workload::QueryKind;

    fn world(sizes: &[u64]) -> (Repository, CacheStore, CostLedger) {
        (
            Repository::new(ObjectCatalog::from_sizes(sizes)),
            CacheStore::new(10_000),
            CostLedger::default(),
        )
    }

    fn q(seq: u64, objects: Vec<u32>, bytes: u64, tol: u64) -> QueryEvent {
        QueryEvent {
            seq,
            objects: objects.into_iter().map(ObjectId).collect(),
            result_bytes: bytes,
            tolerance: tol,
            kind: QueryKind::Cone,
        }
    }

    /// Loads object `o` at time 0 (uncharged, direct).
    fn preload(repo: &Repository, cache: &mut CacheStore, o: u32) {
        cache
            .load(
                ObjectId(o),
                repo.current_size(ObjectId(o)),
                repo.version(ObjectId(o)),
            )
            .unwrap();
    }

    #[test]
    fn current_query_answers_locally_free() {
        let (mut repo, mut cache, mut ledger) = world(&[100]);
        preload(&repo, &mut cache, 0);
        let mut um = UpdateManager::new();
        let mut ctx = SimContext::new(&mut repo, &mut cache, &mut ledger, 5);
        um.handle_query(&q(5, vec![0], 50, 0), &mut ctx);
        assert_eq!(ledger.total().bytes(), 0);
        assert_eq!(ledger.local_answers, 1);
        assert_eq!(um.stats().trivially_current, 1);
        assert_eq!(um.live_update_nodes(), 0);
    }

    #[test]
    fn cheap_updates_shipped_instead_of_expensive_query() {
        let (mut repo, mut cache, mut ledger) = world(&[100]);
        preload(&repo, &mut cache, 0);
        repo.apply_update(ObjectId(0), 3, 1);
        repo.apply_update(ObjectId(0), 4, 2);
        cache.invalidate(ObjectId(0));
        let mut um = UpdateManager::new();
        let mut ctx = SimContext::new(&mut repo, &mut cache, &mut ledger, 5);
        um.handle_query(&q(5, vec![0], 50, 0), &mut ctx);
        // Updates (7, one segment) beat the query (50).
        assert_eq!(ledger.breakdown.update_ship.bytes(), 7);
        assert_eq!(ledger.breakdown.query_ship.bytes(), 0);
        assert_eq!(ledger.local_answers, 1);
        assert_eq!(
            um.live_update_nodes(),
            0,
            "shipped segments leave the graph"
        );
        assert_eq!(um.retained_queries(), 0);
    }

    #[test]
    fn cheap_query_shipped_instead_of_huge_updates() {
        let (mut repo, mut cache, mut ledger) = world(&[100]);
        preload(&repo, &mut cache, 0);
        repo.apply_update(ObjectId(0), 500, 1);
        cache.invalidate(ObjectId(0));
        let mut um = UpdateManager::new();
        let mut ctx = SimContext::new(&mut repo, &mut cache, &mut ledger, 5);
        um.handle_query(&q(5, vec![0], 20, 0), &mut ctx);
        assert_eq!(ledger.breakdown.query_ship.bytes(), 20);
        assert_eq!(ledger.breakdown.update_ship.bytes(), 0);
        assert_eq!(um.retained_queries(), 1, "shipped query is retained");
        assert_eq!(um.live_update_nodes(), 1, "unshipped segment stays");
    }

    #[test]
    fn repeated_queries_tip_the_cover_toward_updates() {
        // One 100-byte update; queries of 40 bytes each. First two ship
        // (cover picks the cheaper query side: 40 < 100, then the retained
        // 40 + new 40 = 80 < 100); the third tips it (120 > 100).
        let (mut repo, mut cache, mut ledger) = world(&[100]);
        preload(&repo, &mut cache, 0);
        repo.apply_update(ObjectId(0), 100, 1);
        cache.invalidate(ObjectId(0));
        let mut um = UpdateManager::new();
        for (i, seq) in [5u64, 6, 7].iter().enumerate() {
            let mut ctx = SimContext::new(&mut repo, &mut cache, &mut ledger, *seq);
            um.handle_query(&q(*seq, vec![0], 40, 0), &mut ctx);
            match i {
                0 | 1 => assert_eq!(ledger.breakdown.update_ship.bytes(), 0),
                _ => {
                    assert_eq!(ledger.breakdown.update_ship.bytes(), 100);
                    assert_eq!(ledger.local_answers, 1);
                }
            }
        }
        // The paper's accounting: 40 + 40 (shipped) + 100 (update) = 180.
        assert_eq!(ledger.total().bytes(), 180);
        // After the update shipped, the two retained queries became
        // isolated and were pruned.
        assert_eq!(um.retained_queries(), 0);
        assert_eq!(um.stats().queries_pruned, 2);
        // One augmenting path per query (40, 40, then the update's last
        // 20), and the searches that found them were counted.
        assert_eq!(um.stats().augmentations, 3);
        assert!(um.stats().edges_scanned > 0);
    }

    #[test]
    fn tolerance_excludes_recent_updates_from_graph() {
        let (mut repo, mut cache, mut ledger) = world(&[100]);
        preload(&repo, &mut cache, 0);
        repo.apply_update(ObjectId(0), 30, 1);
        repo.apply_update(ObjectId(0), 30, 9); // recent
        cache.invalidate(ObjectId(0));
        let mut um = UpdateManager::new();
        let mut ctx = SimContext::new(&mut repo, &mut cache, &mut ledger, 10);
        // tolerance 5: horizon 5, only the seq-1 update interacts.
        um.handle_query(&q(10, vec![0], 1000, 5), &mut ctx);
        assert_eq!(
            ledger.breakdown.update_ship.bytes(),
            30,
            "only the old update ships"
        );
        assert_eq!(ledger.local_answers, 1);
        // The recent update was never materialized.
        assert_eq!(um.live_update_nodes(), 0);
    }

    #[test]
    fn segment_splits_on_new_horizon() {
        // Two updates materialized as one segment by a wide-horizon query;
        // a later query with a horizon between them must split it.
        let (mut repo, mut cache, mut ledger) = world(&[100]);
        preload(&repo, &mut cache, 0);
        repo.apply_update(ObjectId(0), 40, 1);
        repo.apply_update(ObjectId(0), 40, 10);
        cache.invalidate(ObjectId(0));
        let mut um = UpdateManager::new();
        // Query 1 at seq 11, t=0: needs both updates; 80 > 20 → ship query,
        // one segment [0,2) retained.
        {
            let mut ctx = SimContext::new(&mut repo, &mut cache, &mut ledger, 11);
            um.handle_query(&q(11, vec![0], 20, 0), &mut ctx);
        }
        assert_eq!(um.live_update_nodes(), 1);
        // Query 2 at seq 12, tolerance 5 → horizon 7: needs only update 1.
        // The segment must split; cover: seg[0,1)=40 vs q=1000 +
        // retained... shipping [0,1) (40) is cheapest.
        {
            let mut ctx = SimContext::new(&mut repo, &mut cache, &mut ledger, 12);
            um.handle_query(&q(12, vec![0], 1000, 5), &mut ctx);
        }
        assert!(um.stats().segment_splits >= 1);
        assert_eq!(ledger.breakdown.update_ship.bytes(), 40);
        assert_eq!(ledger.local_answers, 1);
        // The second half [1,2) is still live (still interacting with q1).
        assert_eq!(um.live_update_nodes(), 1);
        assert_eq!(um.retained_queries(), 1);
    }

    #[test]
    fn multi_object_query_ships_all_needed_ranges() {
        let (mut repo, mut cache, mut ledger) = world(&[100, 100]);
        preload(&repo, &mut cache, 0);
        preload(&repo, &mut cache, 1);
        repo.apply_update(ObjectId(0), 5, 1);
        repo.apply_update(ObjectId(1), 6, 2);
        cache.invalidate(ObjectId(0));
        cache.invalidate(ObjectId(1));
        let mut um = UpdateManager::new();
        let mut ctx = SimContext::new(&mut repo, &mut cache, &mut ledger, 5);
        um.handle_query(&q(5, vec![0, 1], 500, 0), &mut ctx);
        assert_eq!(ledger.breakdown.update_ship.bytes(), 11);
        assert_eq!(ledger.local_answers, 1);
    }

    #[test]
    fn eviction_drops_update_nodes() {
        let (mut repo, mut cache, mut ledger) = world(&[100]);
        preload(&repo, &mut cache, 0);
        repo.apply_update(ObjectId(0), 500, 1);
        cache.invalidate(ObjectId(0));
        let mut um = UpdateManager::new();
        {
            let mut ctx = SimContext::new(&mut repo, &mut cache, &mut ledger, 5);
            um.handle_query(&q(5, vec![0], 20, 0), &mut ctx);
        }
        assert_eq!(um.live_update_nodes(), 1);
        assert_eq!(um.retained_queries(), 1);
        um.on_evict(ObjectId(0));
        assert_eq!(um.live_update_nodes(), 0);
        assert_eq!(um.retained_queries(), 0, "isolated retained query pruned");
    }

    #[test]
    fn shared_update_across_queries_ships_once() {
        let (mut repo, mut cache, mut ledger) = world(&[100, 100]);
        preload(&repo, &mut cache, 0);
        preload(&repo, &mut cache, 1);
        repo.apply_update(ObjectId(0), 10, 1);
        cache.invalidate(ObjectId(0));
        let mut um = UpdateManager::new();
        // Query 1 forces the update to ship (expensive query).
        {
            let mut ctx = SimContext::new(&mut repo, &mut cache, &mut ledger, 5);
            um.handle_query(&q(5, vec![0], 1000, 0), &mut ctx);
        }
        assert_eq!(ledger.breakdown.update_ship.bytes(), 10);
        // Query 2 on the same object is now current: free.
        {
            let mut ctx = SimContext::new(&mut repo, &mut cache, &mut ledger, 6);
            um.handle_query(&q(6, vec![0], 1000, 0), &mut ctx);
        }
        assert_eq!(
            ledger.breakdown.update_ship.bytes(),
            10,
            "no double shipping"
        );
        assert_eq!(ledger.local_answers, 2);
    }

    #[test]
    fn graph_stays_small_under_update_floods() {
        // Thousands of updates on one object with repeated cheap queries:
        // the graph must stay proportional to distinct horizons, not
        // update count.
        let (mut repo, mut cache, mut ledger) = world(&[100]);
        preload(&repo, &mut cache, 0);
        let mut um = UpdateManager::new();
        let mut seq = 0u64;
        for round in 0..200 {
            for _ in 0..10 {
                repo.apply_update(ObjectId(0), 50, seq);
                seq += 1;
            }
            cache.invalidate(ObjectId(0));
            let mut ctx = SimContext::new(&mut repo, &mut cache, &mut ledger, seq);
            // Cheap, zero-tolerance query: always shipped.
            um.handle_query(&q(seq, vec![0], 1, 0), &mut ctx);
            seq += 1;
            assert!(
                um.live_update_nodes() <= round + 2,
                "segment count {} grew past distinct-horizon bound at round {round}",
                um.live_update_nodes()
            );
        }
        // 2000 updates outstanding, but only ~200 segments.
        assert_eq!(repo.version(ObjectId(0)), 2000);
        assert!(um.live_update_nodes() <= 201);
        assert_eq!(ledger.breakdown.update_ship.bytes(), 0);
    }
}
#[cfg(test)]
mod cap_tests {
    use super::*;
    use crate::cost::CostLedger;
    use delta_storage::{CacheStore, ObjectCatalog, Repository};
    use delta_workload::QueryKind;

    /// A pathological stream: every query carries a distinct tolerance, so
    /// every one mints a fresh horizon and splits segments; the query is
    /// always cheaper than the outstanding updates, so updates are never
    /// shipped and segments never drain. Without the caps this grows the
    /// graph linearly in queries; with them it stays bounded.
    #[test]
    fn pathological_horizon_stream_stays_bounded() {
        let mut repo = Repository::new(ObjectCatalog::from_sizes(&[1_000]));
        let mut cache = CacheStore::new(100_000);
        cache.load(ObjectId(0), 1_000, 0).unwrap();
        let mut ledger = CostLedger::default();
        let mut um = UpdateManager::new();
        let mut seq = 1u64;
        for i in 0..600u64 {
            repo.apply_update(ObjectId(0), 10_000, seq);
            cache.invalidate(ObjectId(0));
            seq += 1;
            let q = QueryEvent {
                seq,
                objects: vec![ObjectId(0)],
                result_bytes: 1,   // always cheaper to ship the query
                tolerance: i % 97, // churning horizons
                kind: QueryKind::Cone,
            };
            let mut ctx = SimContext::new(&mut repo, &mut cache, &mut ledger, seq);
            um.handle_query(&q, &mut ctx);
            seq += 1;
        }
        assert!(
            um.live_update_nodes() <= MAX_SEGMENTS_PER_OBJECT + 1,
            "segments unbounded: {}",
            um.live_update_nodes()
        );
        assert!(
            um.retained_queries() <= MAX_RETAINED_QUERIES,
            "retained queries unbounded: {}",
            um.retained_queries()
        );
        assert!(um.stats().segments_coalesced > 0, "cap must have triggered");
        // Currency contract intact throughout: every query was satisfied
        // (shipped — they were all cheap).
        assert_eq!(ledger.shipped_queries + ledger.local_answers, 600);
    }

    /// Coalesced segments still ship correctly once a query's cover
    /// decision demands updates.
    #[test]
    fn coalesced_segments_ship_and_drain() {
        let mut repo = Repository::new(ObjectCatalog::from_sizes(&[1_000]));
        let mut cache = CacheStore::new(100_000);
        cache.load(ObjectId(0), 1_000, 0).unwrap();
        let mut ledger = CostLedger::default();
        let mut um = UpdateManager::new();
        let mut seq = 1u64;
        // Build up far more than MAX_SEGMENTS_PER_OBJECT distinct horizons.
        for i in 0..(2 * MAX_SEGMENTS_PER_OBJECT as u64 + 10) {
            repo.apply_update(ObjectId(0), 5, seq);
            cache.invalidate(ObjectId(0));
            seq += 1;
            let q = QueryEvent {
                seq,
                objects: vec![ObjectId(0)],
                result_bytes: 1,
                tolerance: 1 + (i % 131),
                kind: QueryKind::Cone,
            };
            let mut ctx = SimContext::new(&mut repo, &mut cache, &mut ledger, seq);
            um.handle_query(&q, &mut ctx);
            seq += 1;
        }
        // Now an expensive zero-tolerance query: the cover must ship all
        // outstanding updates (coalesced or not) and answer locally.
        let q = QueryEvent {
            seq,
            objects: vec![ObjectId(0)],
            result_bytes: 1_000_000_000,
            tolerance: 0,
            kind: QueryKind::Cone,
        };
        let mut ctx = SimContext::new(&mut repo, &mut cache, &mut ledger, seq);
        um.handle_query(&q, &mut ctx);
        assert_eq!(
            cache.applied_version(ObjectId(0)),
            Some(repo.version(ObjectId(0))),
            "object fully refreshed"
        );
        assert_eq!(um.live_update_nodes(), 0, "all segments drained");
    }
}
