//! Flow networks with incremental Edmonds–Karp maximum flow, searched
//! from both ends.
//!
//! The Delta paper's `UpdateManager` computes minimum-weight vertex covers
//! by max-flow, *incrementally*: as queries and updates join the interaction
//! graph "the previous flow remains a valid flow though it may not be
//! maximum any more" (§4), so each recomputation only searches for the new
//! augmenting paths. [`FlowNetwork::max_flow`] is written exactly that way —
//! it never resets existing flow, so calling it after mutations performs the
//! incremental step, and calling [`FlowNetwork::reset_flow`] first gives the
//! classic from-scratch algorithm.
//!
//! ## One search, two frontiers
//!
//! Every path question — the next augmenting path `s ⇝ t`, or "is `v`
//! residual-reachable from `s`?" — goes through one **level-synchronous
//! bidirectional BFS**: a forward frontier over residual edges from the
//! source and a backward frontier over reverse-residual edges from the
//! target. At each level boundary one side expands one whole level; the
//! search stops at the first vertex carrying both marks, or reports "no
//! path" the moment *either* frontier empties.
//!
//! Expanding whole levels keeps the first meeting a *shortest* path,
//! whichever side is chosen: with `d_f` forward and `d_b` backward levels
//! complete and no doubly-marked vertex yet, every path is longer than
//! `d_f + d_b`, and a meeting found while expanding the next level has
//! length at most `d_f + d_b + 1`. So [`FlowNetwork::max_flow`] is still
//! Edmonds–Karp, bound and all.
//!
//! The side that expands is the one whose scan total would be smaller
//! *after* its next level (`scanned + pending`; a level's cost is known
//! before it is paid — the adjacency lengths of its vertices). Neither
//! side's total can then pass what the other would need to finish alone,
//! so a search costs at most twice the cheaper one-sided search — in
//! particular the search that *fails*, the proof of maximality every solve
//! ends with, is bounded by the smaller residual-reachable side instead
//! of always the source's.
//!
//! ## Where the backward side starts
//!
//! A sink's adjacency is as long as the layer that points at it, nearly
//! all of it saturated and uncrossable. A caller that tracks which sink
//! edges can still take flow passes them as an `OpenSink`; for that one
//! search the list *is* the sink's adjacency. The backward side's first
//! level is then the open edges' tails, each discovered over its own sink
//! edge: the levels, and so the shortest-path argument, are untouched.
//!
//! ## Scratch epochs
//!
//! Each frontier needs per-node visited/parent state. Allocating it per
//! call would put a `vec![false; n]` on the decision hot path, so the
//! network owns one `mark`/`parent`/`queue` triple per direction and
//! stamps both with one monotonically increasing **epoch**: a node is
//! "visited by this side of this traversal" iff `mark[v] == epoch`, and
//! bumping the epoch invalidates both buffers in O(1). `parent[v]` is only
//! meaningful while `mark[v]` carries the current epoch, which is why
//! they live behind the same bump.

/// Node handle within a [`FlowNetwork`].
pub type NodeId = usize;

/// Edge handle within a [`FlowNetwork`]. The reverse (residual) edge of
/// edge `e` is always `e ^ 1`.
pub type EdgeId = usize;

/// Effectively-infinite capacity that still leaves headroom against
/// accidental `u64` overflow when summing cuts.
pub const INF: u64 = u64::MAX / 4;

/// Recycled adjacency Vecs kept for reuse after node deletion (beyond
/// this, capacity is returned to the allocator).
const MAX_POOLED_ADJ: usize = 1024;

/// Capacity a recycled Vec keeps in a pool: enough for a typical vertex,
/// so a pooled list never pins what one long-lived hub once held.
pub(crate) const POOLED_CAPACITY: usize = 16;

/// A sink and its in-edges that may still have residual capacity, in the
/// form `adj[sink]` holds them (the twin `e ^ 1` of each edge `e` into it).
/// Must list *every* such edge; saturated ones and deleted tails are
/// skipped (the latter dropped) as they would be in the full list.
pub(crate) type OpenSink<'a> = (NodeId, &'a mut Vec<EdgeId>);

/// A directed edge with explicit flow (residual capacity is `cap - flow`).
#[derive(Clone, Copy, Debug)]
pub struct Edge {
    /// Head node.
    pub to: NodeId,
    /// Capacity. Reverse edges have capacity 0.
    pub cap: u64,
    /// Current flow; negative flow on a reverse edge is represented by the
    /// *forward* edge's flow, so this stays in `0..=cap` on forward edges
    /// and `-flow(fwd)` is encoded as residual headroom on the twin.
    pub flow: i64,
}

impl Edge {
    /// Residual capacity available for augmentation along this direction.
    #[inline]
    pub fn residual(&self) -> u64 {
        debug_assert!(self.flow <= self.cap as i64);
        (self.cap as i64 - self.flow) as u64
    }
}

/// One direction's BFS scratch.
#[derive(Clone, Debug, Default)]
struct Frontier {
    /// Epoch stamps: `v` was discovered by this side iff `mark[v] == epoch`.
    mark: Vec<u64>,
    /// The path edge that discovered each node (pointing away from the
    /// source on the forward side, toward the target on the backward
    /// side), valid only while `mark[v] == epoch`.
    parent: Vec<EdgeId>,
    queue: Vec<NodeId>,
    /// Queue position of the first vertex of the unexpanded level.
    head: usize,
    /// Adjacency entries examined in the current search.
    scanned: u64,
    /// Adjacency entries the unexpanded level holds: what expanding it
    /// will add to `scanned` unless the search ends inside it.
    pending: u64,
}

impl Frontier {
    fn start(&mut self, root: NodeId, epoch: u64, adj: &[Vec<EdgeId>]) {
        self.pending = adj[root].len() as u64;
        self.queue.clear();
        self.queue.push(root);
        self.mark[root] = epoch;
        self.head = 0;
        self.scanned = 0;
    }

    /// Expands one whole BFS level. `dir` is 0 on the forward side (follow
    /// `e` while it has residual) and 1 on the backward side (follow `e`
    /// against its twin's residual: `adj[v]` holds the twin of every edge
    /// *into* `v`). Returns the first vertex `theirs` has marked too.
    ///
    /// Entries whose head was deleted are dropped where they are met (edge
    /// ids stay valid, only the list shrinks): `s` is adjacent to every
    /// update vertex that ever lived and is scanned by nearly every
    /// search, so its dead entries must not wait for a compaction.
    fn expand_level(
        &mut self,
        theirs: &Frontier,
        adj: &mut [Vec<EdgeId>],
        edges: &[Edge],
        deleted: &[bool],
        dir: usize,
        epoch: u64,
    ) -> Option<NodeId> {
        let level_end = self.queue.len();
        while self.head < level_end {
            let list = &mut adj[self.queue[self.head]];
            self.head += 1;
            let mut i = 0;
            while i < list.len() {
                let e = list[i];
                let to = edges[e].to;
                self.scanned += 1;
                if deleted[to] {
                    list.swap_remove(i);
                    continue;
                }
                i += 1;
                if self.mark[to] == epoch || edges[e ^ dir].residual() == 0 {
                    continue;
                }
                self.mark[to] = epoch;
                self.parent[to] = e ^ dir;
                if theirs.mark[to] == epoch {
                    return Some(to);
                }
                self.queue.push(to);
            }
        }
        let next_level = &self.queue[self.head..];
        self.pending = next_level.iter().map(|&v| adj[v].len() as u64).sum();
        None
    }
}

/// An adjacency-list flow network supporting node deletion and incremental
/// max-flow.
#[derive(Clone, Debug, Default)]
pub struct FlowNetwork {
    adj: Vec<Vec<EdgeId>>,
    edges: Vec<Edge>,
    deleted: Vec<bool>,
    /// Forward (from the source) and backward (from the target) BFS
    /// scratch — see the module docs.
    fwd: Frontier,
    bwd: Frontier,
    epoch: u64,
    /// Cumulative adjacency entries examined by [`Self::search`].
    edges_scanned: u64,
    /// Cumulative augmenting paths pushed.
    augmentations: u64,
    /// Adjacency Vecs recycled from deleted nodes, reused by `add_node`
    /// so steady-state node churn never touches the allocator.
    free_adj: Vec<Vec<EdgeId>>,
}

impl FlowNetwork {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        self.adj.push(self.free_adj.pop().unwrap_or_default());
        self.deleted.push(false);
        self.adj.len() - 1
    }

    /// Number of nodes ever added (including deleted ones).
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of live (non-deleted) nodes.
    pub fn live_node_count(&self) -> usize {
        self.deleted.iter().filter(|&&d| !d).count()
    }

    /// Number of forward edges ever added.
    pub fn edge_count(&self) -> usize {
        self.edges.len() / 2
    }

    /// Adds a directed edge `from -> to` with the given capacity and returns
    /// its id. A paired reverse edge (capacity 0) is created at `id ^ 1`.
    ///
    /// # Panics
    /// Panics if either endpoint is deleted or out of range.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, cap: u64) -> EdgeId {
        assert!(!self.deleted[from] && !self.deleted[to], "endpoint deleted");
        let id = self.edges.len();
        self.edges.push(Edge { to, cap, flow: 0 });
        self.edges.push(Edge {
            to: from,
            cap: 0,
            flow: 0,
        });
        self.adj[from].push(id);
        self.adj[to].push(id + 1);
        id
    }

    /// Read access to an edge.
    pub fn edge(&self, e: EdgeId) -> &Edge {
        &self.edges[e]
    }

    /// Edge ids incident to `v` (both directions, forward and residual).
    /// Empty for deleted nodes (their adjacency storage is recycled).
    pub fn adjacency(&self, v: NodeId) -> &[EdgeId] {
        &self.adj[v]
    }

    /// Current flow on a forward edge (0 for unused).
    pub fn flow_on(&self, e: EdgeId) -> u64 {
        self.edges[e].flow.max(0) as u64
    }

    /// Marks a node deleted. The caller is responsible for having cancelled
    /// any flow through it first (see `force_flow`); deleted nodes are
    /// skipped by BFS and never traversed again, so their adjacency list is
    /// recycled for future nodes.
    ///
    /// # Panics
    /// Panics (in debug builds) if flow still passes through the node.
    pub fn delete_node(&mut self, v: NodeId) {
        debug_assert!(
            self.adj[v]
                .iter()
                .all(|&e| self.edges[e].flow <= 0 || self.edges[e ^ 1].flow <= 0),
            "deleting node with live flow"
        );
        debug_assert!(
            self.adj[v].iter().all(|&e| self.edges[e].flow.max(0) == 0),
            "deleting node {v} with outgoing flow"
        );
        self.deleted[v] = true;
        let mut adj = std::mem::take(&mut self.adj[v]);
        if self.free_adj.len() < MAX_POOLED_ADJ {
            adj.clear();
            adj.shrink_to(POOLED_CAPACITY);
            self.free_adj.push(adj);
        }
    }

    /// Entries the recycled-adjacency pool holds room for (for tests).
    #[cfg(test)]
    pub(crate) fn pooled_capacity(&self) -> usize {
        self.free_adj.iter().map(Vec::capacity).sum()
    }

    /// Whether the node has been deleted.
    pub fn is_deleted(&self, v: NodeId) -> bool {
        self.deleted[v]
    }

    /// Directly adjusts the flow on edge `e` (and its twin) by `delta`.
    ///
    /// Used for structured flow cancellation (e.g. removing a node from a
    /// three-layer cover network where the rerouting is known in closed
    /// form). The caller must keep the overall flow conserved.
    pub fn force_flow(&mut self, e: EdgeId, delta: i64) {
        self.edges[e].flow += delta;
        self.edges[e ^ 1].flow -= delta;
        debug_assert!(self.edges[e].flow <= self.edges[e].cap as i64);
        debug_assert!(self.edges[e ^ 1].flow <= self.edges[e ^ 1].cap as i64);
    }

    /// Re-weights edge `e` in place. The flow on it must already fit.
    pub(crate) fn set_capacity(&mut self, e: EdgeId, cap: u64) {
        debug_assert!(self.edges[e].flow <= cap as i64);
        self.edges[e].cap = cap;
    }

    /// Points edge `e` at a new head `to`, keeping its id, capacity and
    /// flow: the twin leaves the old head's adjacency (one scan of it,
    /// skipped when that head is deleted) and joins `to`'s. Flow
    /// conservation moves with the edge; the caller rebalances it.
    pub(crate) fn retarget(&mut self, e: EdgeId, to: NodeId) {
        debug_assert!(!self.deleted[to], "endpoint deleted");
        let old = std::mem::replace(&mut self.edges[e].to, to);
        if !self.deleted[old] {
            let list = &mut self.adj[old];
            let at = list.iter().position(|&x| x == e ^ 1);
            list.swap_remove(at.expect("twin listed at its head"));
        }
        self.adj[to].push(e ^ 1);
    }

    /// Zeroes all flow (turning the next [`Self::max_flow`] into a
    /// from-scratch computation).
    pub fn reset_flow(&mut self) {
        for e in &mut self.edges {
            e.flow = 0;
        }
    }

    /// Total flow currently leaving `s`.
    pub fn flow_value(&self, s: NodeId) -> u64 {
        self.adj[s]
            .iter()
            .map(|&e| self.edges[e].flow.max(0) as u64)
            .sum()
    }

    /// Starts a fresh traversal: grows both sides' stamp buffers to the
    /// current node count and returns the new epoch.
    #[inline]
    fn bump_epoch(&mut self) -> u64 {
        let n = self.adj.len();
        for side in [&mut self.fwd, &mut self.bwd] {
            if side.mark.len() < n {
                side.mark.resize(n, 0);
                side.parent.resize(n, 0);
            }
        }
        self.epoch += 1;
        self.epoch
    }

    /// The one path search (see the module docs): a shortest residual path
    /// `from ⇝ to`, reported as the vertex where the two frontiers met.
    /// `fwd.parent` then leads from the meeting vertex back to `from` and
    /// `bwd.parent` on to `to`. `open`'s list stands in for its sink's
    /// adjacency until the search returns (module docs); only the backward
    /// side reads it, since the forward side stops where it meets the sink
    /// and never reaches it on a maximum flow.
    pub(crate) fn search(
        &mut self,
        from: NodeId,
        to: NodeId,
        mut open: Option<OpenSink<'_>>,
    ) -> Option<NodeId> {
        if self.deleted[from] || self.deleted[to] {
            return None;
        }
        let epoch = self.bump_epoch();
        if let Some((sink, list)) = &mut open {
            std::mem::swap(&mut self.adj[*sink], list);
        }
        let Self {
            adj,
            edges,
            deleted,
            fwd,
            bwd,
            ..
        } = self;
        fwd.start(from, epoch, adj);
        bwd.start(to, epoch, adj);
        let mut met = (from == to).then_some(from);
        // A side with nothing pending has an empty frontier (or an isolated
        // root): everything it can reach is marked and none of it met.
        while met.is_none() && fwd.pending > 0 && bwd.pending > 0 {
            met = if fwd.scanned + fwd.pending <= bwd.scanned + bwd.pending {
                fwd.expand_level(bwd, adj, edges, deleted, 0, epoch)
            } else {
                bwd.expand_level(fwd, adj, edges, deleted, 1, epoch)
            };
        }
        self.edges_scanned += fwd.scanned + bwd.scanned;
        if let Some((sink, list)) = open {
            std::mem::swap(&mut self.adj[sink], list);
        }
        met
    }

    /// Runs Edmonds–Karp **continuing from the current flow**: repeatedly
    /// finds a shortest augmenting path and saturates it. Returns the flow
    /// *added* by this call.
    pub fn max_flow(&mut self, s: NodeId, t: NodeId) -> u64 {
        let mut added = 0u64;
        while let Some(bottleneck) = self.augment_once(s, t) {
            added += bottleneck;
        }
        added
    }

    /// Finds one shortest augmenting path and pushes flow along it.
    /// Returns the amount pushed, or `None` if no augmenting path exists.
    pub fn augment_once(&mut self, s: NodeId, t: NodeId) -> Option<u64> {
        self.augment(s, t, None)
    }

    /// [`Self::augment_once`], the search's backward side starting from
    /// `open` when given.
    pub(crate) fn augment(
        &mut self,
        s: NodeId,
        t: NodeId,
        open: Option<OpenSink<'_>>,
    ) -> Option<u64> {
        debug_assert!(s != t && !self.deleted[s] && !self.deleted[t]);
        let met = self.search(s, t, open)?;
        let mut bottleneck = u64::MAX;
        self.walk_path(s, met, t, |edges, e| {
            bottleneck = bottleneck.min(edges[e].residual());
        });
        debug_assert!(bottleneck > 0);
        self.walk_path(s, met, t, |edges, e| {
            edges[e].flow += bottleneck as i64;
            edges[e ^ 1].flow -= bottleneck as i64;
        });
        self.augmentations += 1;
        Some(bottleneck)
    }

    /// Visits every edge of the path the last [`Self::search`] found:
    /// `met` back to `s` along `fwd.parent`, then `met` on to `t` along
    /// `bwd.parent`.
    fn walk_path(
        &mut self,
        s: NodeId,
        met: NodeId,
        t: NodeId,
        mut visit: impl FnMut(&mut [Edge], EdgeId),
    ) {
        let mut v = met;
        while v != s {
            let e = self.fwd.parent[v];
            visit(&mut self.edges, e);
            v = self.edges[e ^ 1].to;
        }
        let mut v = met;
        while v != t {
            let e = self.bwd.parent[v];
            visit(&mut self.edges, e);
            v = self.edges[e].to;
        }
    }

    /// Whether `target` is reachable from `s` in the residual graph —
    /// the single-node question behind a cover membership test.
    /// Allocation-free (epoch-stamped scratch).
    pub fn residual_reaches(&mut self, s: NodeId, target: NodeId) -> bool {
        self.search(s, target, None).is_some()
    }

    /// Cumulative adjacency entries examined by path searches
    /// ([`Self::augment_once`], [`Self::residual_reaches`]) — the cost of
    /// the search as a count, not a clock.
    pub fn edges_scanned(&self) -> u64 {
        self.edges_scanned
    }

    /// Cumulative augmenting paths pushed.
    pub fn augmentations(&self) -> u64 {
        self.augmentations
    }

    /// Stamps every node reachable from `s` in the residual graph with a
    /// fresh epoch; query the result with [`Self::reached`]. This is the
    /// allocation-free form of [`Self::residual_reachable`] used by full
    /// cover extraction. The stamps stay valid until the next traversal.
    pub fn mark_residual_reachable(&mut self, s: NodeId) {
        let epoch = self.bump_epoch();
        if self.deleted[s] {
            return;
        }
        let Frontier { mark, queue, .. } = &mut self.fwd;
        queue.clear();
        queue.push(s);
        mark[s] = epoch;
        let mut head = 0;
        while head < queue.len() {
            let v = queue[head];
            head += 1;
            for &e in &self.adj[v] {
                let edge = self.edges[e];
                if edge.residual() > 0 && !self.deleted[edge.to] && mark[edge.to] != epoch {
                    mark[edge.to] = epoch;
                    queue.push(edge.to);
                }
            }
        }
    }

    /// Whether `v` was stamped by the most recent
    /// [`Self::mark_residual_reachable`] traversal.
    #[inline]
    pub fn reached(&self, v: NodeId) -> bool {
        self.fwd.mark.get(v).is_some_and(|&m| m == self.epoch)
    }

    /// Nodes reachable from `s` in the residual graph (deleted nodes are
    /// never reachable). This is the min-cut side used for vertex-cover
    /// extraction. Allocates its result — tests and offline callers only.
    pub fn residual_reachable(&mut self, s: NodeId) -> Vec<bool> {
        self.mark_residual_reachable(s);
        (0..self.adj.len()).map(|v| self.reached(v)).collect()
    }

    /// Rebuilds the network in place without its deleted nodes and the
    /// edges that touch them, carrying every surviving edge's capacity and
    /// flow. Survivors keep their relative order (so `s` and `t`, added
    /// first and never deleted, keep their ids). Returns each old node's
    /// and edge's new id, `usize::MAX` for the dropped. The search scratch
    /// and the cumulative counters carry over.
    pub(crate) fn compact(&mut self) -> (Vec<NodeId>, Vec<EdgeId>) {
        let mut node_map = Vec::with_capacity(self.adj.len());
        let mut adj = Vec::with_capacity(self.adj.len());
        for (v, list) in self.adj.iter_mut().enumerate() {
            if self.deleted[v] {
                node_map.push(usize::MAX);
            } else {
                node_map.push(adj.len());
                let mut list = std::mem::take(list);
                list.clear();
                adj.push(list);
            }
        }
        let mut edge_map = vec![usize::MAX; self.edges.len()];
        let mut edges = Vec::with_capacity(self.edges.len());
        for (e, pair) in self.edges.chunks_exact(2).enumerate() {
            let (from, to) = (node_map[pair[1].to], node_map[pair[0].to]);
            if from == usize::MAX || to == usize::MAX {
                continue;
            }
            let id = edges.len();
            edges.push(Edge { to, ..pair[0] });
            edges.push(Edge {
                to: from,
                ..pair[1]
            });
            adj[from].push(id);
            adj[to].push(id + 1);
            edge_map[2 * e] = id;
            edge_map[2 * e + 1] = id + 1;
        }
        for list in &mut adj {
            if list.capacity() > 2 * list.len() + POOLED_CAPACITY {
                list.shrink_to_fit();
            }
        }
        edges.shrink_to_fit();
        self.deleted = vec![false; adj.len()];
        self.adj = adj;
        self.edges = edges;
        // Every traversal bumps the epoch before reading a stamp, so
        // zeroed stamps can never read as visited under the new numbering.
        let n = self.adj.len();
        for side in [&mut self.fwd, &mut self.bwd] {
            side.mark.clear();
            side.mark.resize(n, 0);
            side.parent.clear();
            side.parent.resize(n, 0);
            side.queue.clear();
            side.mark.shrink_to_fit();
            side.parent.shrink_to_fit();
        }
        (node_map, edge_map)
    }

    /// Verifies flow conservation at every live node except `s` and `t`.
    /// Intended for tests and debug assertions.
    pub fn check_conservation(&self, s: NodeId, t: NodeId) -> Result<(), String> {
        let n = self.adj.len();
        let mut net = vec![0i64; n];
        for (i, e) in self.edges.iter().enumerate() {
            if i % 2 == 0 {
                let from = self.edges[i ^ 1].to;
                if e.flow < 0 {
                    return Err(format!("negative flow {} on forward edge {i}", e.flow));
                }
                if e.flow > e.cap as i64 {
                    return Err(format!("flow exceeds capacity on edge {i}"));
                }
                net[from] -= e.flow;
                net[e.to] += e.flow;
            }
        }
        for (v, &flow) in net.iter().enumerate() {
            if v == s || v == t || self.deleted[v] {
                continue;
            }
            if flow != 0 {
                return Err(format!("conservation violated at node {v}: net {flow}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// CLRS figure network: known max flow 23.
    fn clrs_network() -> (FlowNetwork, NodeId, NodeId) {
        let mut g = FlowNetwork::new();
        let s = g.add_node();
        let v1 = g.add_node();
        let v2 = g.add_node();
        let v3 = g.add_node();
        let v4 = g.add_node();
        let t = g.add_node();
        g.add_edge(s, v1, 16);
        g.add_edge(s, v2, 13);
        g.add_edge(v1, v3, 12);
        g.add_edge(v2, v1, 4);
        g.add_edge(v2, v4, 14);
        g.add_edge(v3, v2, 9);
        g.add_edge(v3, t, 20);
        g.add_edge(v4, v3, 7);
        g.add_edge(v4, t, 4);
        (g, s, t)
    }

    #[test]
    fn clrs_max_flow() {
        let (mut g, s, t) = clrs_network();
        assert_eq!(g.max_flow(s, t), 23);
        assert_eq!(g.flow_value(s), 23);
        g.check_conservation(s, t).unwrap();
        // Converged: another call adds nothing.
        assert_eq!(g.max_flow(s, t), 0);
    }

    #[test]
    fn single_edge() {
        let mut g = FlowNetwork::new();
        let s = g.add_node();
        let t = g.add_node();
        g.add_edge(s, t, 7);
        assert_eq!(g.max_flow(s, t), 7);
    }

    #[test]
    fn disconnected_is_zero() {
        let mut g = FlowNetwork::new();
        let s = g.add_node();
        let t = g.add_node();
        let _u = g.add_node();
        assert_eq!(g.max_flow(s, t), 0);
    }

    #[test]
    fn incremental_matches_scratch() {
        // Build half the CLRS network, flow, add the rest, flow again:
        // total must equal the from-scratch value.
        let mut g = FlowNetwork::new();
        let s = g.add_node();
        let v1 = g.add_node();
        let v2 = g.add_node();
        let v3 = g.add_node();
        let v4 = g.add_node();
        let t = g.add_node();
        g.add_edge(s, v1, 16);
        g.add_edge(v1, v3, 12);
        g.add_edge(v3, t, 20);
        let f1 = g.max_flow(s, t);
        assert_eq!(f1, 12);
        g.add_edge(s, v2, 13);
        g.add_edge(v2, v1, 4);
        g.add_edge(v2, v4, 14);
        g.add_edge(v3, v2, 9);
        g.add_edge(v4, v3, 7);
        g.add_edge(v4, t, 4);
        let f2 = g.max_flow(s, t);
        assert_eq!(f1 + f2, 23);
        g.check_conservation(s, t).unwrap();
    }

    #[test]
    fn reset_flow_restores_scratch() {
        let (mut g, s, t) = clrs_network();
        g.max_flow(s, t);
        g.reset_flow();
        assert_eq!(g.flow_value(s), 0);
        assert_eq!(g.max_flow(s, t), 23);
    }

    #[test]
    fn residual_reachability_defines_min_cut() {
        let (mut g, s, t) = clrs_network();
        g.max_flow(s, t);
        let reach = g.residual_reachable(s);
        assert!(reach[s]);
        assert!(!reach[t], "t reachable => flow not maximum");
        // Cut capacity across (reach, !reach) equals the flow value.
        let mut cut = 0u64;
        for v in 0..g.node_count() {
            if !reach[v] {
                continue;
            }
            for &e in &g.adj[v] {
                if e % 2 == 0 && !reach[g.edges[e].to] {
                    cut += g.edges[e].cap;
                }
            }
        }
        assert_eq!(cut, 23);
    }

    #[test]
    fn targeted_reachability_agrees_with_full_scan() {
        let (mut g, s, t) = clrs_network();
        g.max_flow(s, t);
        let reach = g.residual_reachable(s);
        for (v, &full) in reach.iter().enumerate() {
            assert_eq!(
                g.residual_reaches(s, v),
                full,
                "early-exit disagrees at node {v}"
            );
        }
        assert!(!g.residual_reaches(s, t));
    }

    #[test]
    fn deleted_nodes_are_skipped() {
        let mut g = FlowNetwork::new();
        let s = g.add_node();
        let m1 = g.add_node();
        let m2 = g.add_node();
        let t = g.add_node();
        g.add_edge(s, m1, 5);
        g.add_edge(m1, t, 5);
        g.add_edge(s, m2, 3);
        g.add_edge(m2, t, 3);
        g.delete_node(m2);
        assert_eq!(g.max_flow(s, t), 5, "only the live path should carry flow");
        assert!(!g.residual_reaches(s, m2), "deleted target is unreachable");
    }

    #[test]
    fn recycled_adjacency_starts_empty() {
        let mut g = FlowNetwork::new();
        let s = g.add_node();
        let a = g.add_node();
        let t = g.add_node();
        g.add_edge(s, a, 3);
        g.add_edge(a, t, 3);
        assert_eq!(g.max_flow(s, t), 3);
        // Cancel and delete a, then add a fresh node: it must not inherit
        // a's edges.
        g.force_flow(0, -3);
        g.force_flow(2, -3);
        g.delete_node(a);
        let b = g.add_node();
        assert!(g.adjacency(b).is_empty());
        g.add_edge(s, b, 2);
        g.add_edge(b, t, 2);
        assert_eq!(g.max_flow(s, t), 2);
    }

    #[test]
    #[should_panic(expected = "endpoint deleted")]
    fn add_edge_to_deleted_panics() {
        let mut g = FlowNetwork::new();
        let a = g.add_node();
        let b = g.add_node();
        g.delete_node(b);
        g.add_edge(a, b, 1);
    }
}
