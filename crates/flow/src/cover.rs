//! Incremental minimum-weight vertex cover on bipartite interaction graphs.
//!
//! Theorem 1 of the Delta paper: with the interaction graph known, the
//! optimal ship-query/ship-update choice is a minimum-weight vertex cover,
//! and because the graph is bipartite (edges only between update nodes and
//! query nodes) the cover is computable in polynomial time by reduction to
//! maximum network flow (Hochbaum's construction):
//!
//! ```text
//!   source s --w(u)--> each update node u --INF--> query node q --w(q)--> sink t
//! ```
//!
//! After computing max flow, let `R` be the nodes reachable from `s` in the
//! residual graph. The cover is `{u ∉ R} ∪ {q ∈ R}`, and its weight equals
//! the flow value (min cut).
//!
//! [`CoverGraph`] maintains this network **incrementally**: nodes and edges
//! are added as events arrive, covers are re-solved by continuing from the
//! previous flow, and nodes leave (updates shipped, queries answered,
//! objects evicted) via closed-form flow cancellation that keeps the
//! retained flow feasible — precisely the remainder-subgraph technique of
//! §4 of the paper.
//!
//! ## Segment chains
//!
//! The online `UpdateManager`'s update vertices are *segments*: runs of an
//! object's outstanding updates, sorted, and every query needs a prefix of
//! them. Wiring a query to each segment of its prefix costs one infinite
//! edge per (query, segment); a **relay chain** costs one per (query,
//! object). Each segment hangs off a relay vertex (`u --INF--> r`), each
//! relay feeds the next one (`r --INF--> r'`), and a query attaches once,
//! to the relay at its horizon:
//!
//! ```text
//!   s --w--> u0    u1    u2          (segments, oldest first)
//!            |     |     |
//!            r0 -> r1 -> r2          (relays; everything INF)
//!            |           |
//!            q (needs u0)  q' (needs u0..u2)
//! ```
//!
//! A segment reaches exactly the queries attached at or after its relay,
//! so the finite edges — the only ones a finite cut can use — separate `s`
//! from `t` in the same ways as in the bipartite graph: same minimum cuts,
//! same canonical cut, same membership answers. A segment hangs off the
//! *first* relay of its run; a coalesce leaves the relays of the merged
//! segments behind it, still carrying their attachments, so a run can be
//! longer than one. Splitting, coalescing and dropping a shipped prefix
//! ([`CoverGraph::split_segment`], [`CoverGraph::merge_segments`],
//! [`CoverGraph::drop_chain`]) carry or cancel the routed flow in closed
//! form, so the next solve finds only genuinely new paths.
//!
//! Queries attached to one relay and to nothing else have the same
//! neighbourhood, so every cover ships all of them or none:
//! [`CoverGraph::retain_query`] folds each kept one into a single vertex
//! per relay of their total weight, and a search crossing the relay pays
//! for one attachment instead of one per retained query.
//!
//! ## The membership fast path
//!
//! The online decision loop never needs the whole cover: it asks one
//! question per arriving query — *is this query node in the cover?* —
//! and already knows, from its own bookkeeping, which update ranges to
//! ship when the answer is no. [`CoverGraph::solve_query_membership`]
//! answers exactly that: augment the flow to maximality (incrementally),
//! then search `s ⇝ q` with the same bidirectional routine that finds
//! augmenting paths (see [`crate::graph`]) — and not even that when `q`'s
//! sink edge still has residual capacity. Both searches start their
//! backward side from the *open* sink edges (`CoverGraph::open`), not from
//! one adjacency entry per retained query. No reachability vector, no
//! `HashSet` materialization, no allocation at all. The full
//! [`CoverGraph::solve`] survives for tests, stats, and offline planning.
//!
//! This is sound because the residual-reachable set of *any* maximum flow
//! is the same canonical set (the minimal source-side min cut): whichever
//! augmenting order produced maximality, membership answers are
//! identical.

use crate::graph::{EdgeId, FlowNetwork, NodeId, INF, POOLED_CAPACITY};
use std::collections::HashSet;

/// Handle to an update node in a [`CoverGraph`]. Stable across compaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UpdateNode(pub usize);

/// Handle to a query node in a [`CoverGraph`]. Stable across compaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryNode(pub usize);

/// Handle to a relay of a segment chain in a [`CoverGraph`]. Stable
/// across compaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Relay(pub usize);

/// Pooled edge-list Vecs retained for reuse (beyond this, capacity is
/// returned to the allocator).
const MAX_POOLED_EDGE_LISTS: usize = 256;

/// Where an edge into a query vertex comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tail {
    Update(UpdateNode),
    Relay(Relay),
}

#[derive(Clone, Debug)]
struct UEntry {
    node: NodeId,
    s_edge: EdgeId,
    weight: u64,
    /// Live interaction edges, paired with the query handle (bipartite
    /// wiring; a chain segment has none).
    edges: Vec<(EdgeId, QueryNode)>,
    /// Count of `edges` whose query endpoint is still alive, maintained
    /// eagerly so degree queries are O(1).
    live_deg: usize,
    /// A chain segment's edge to the relay it hangs off.
    relay: Option<(EdgeId, Relay)>,
    alive: bool,
}

#[derive(Clone, Debug)]
struct QEntry {
    node: NodeId,
    t_edge: EdgeId,
    weight: u64,
    edges: Vec<(EdgeId, Tail)>,
    live_deg: usize,
    /// Queries this vertex stands for ([`CoverGraph::retain_query`]).
    members: usize,
    alive: bool,
    /// Listed in [`CoverGraph::open`].
    open: bool,
}

#[derive(Clone, Debug)]
struct REntry {
    node: NodeId,
    pred: Option<Relay>,
    /// The chain edge to the next relay, and that relay.
    succ: Option<(EdgeId, Relay)>,
    /// The segment hanging off this relay, if any.
    segment: Option<UpdateNode>,
    /// The vertex retained queries with no other edge are folded into.
    bundle: Option<QueryNode>,
    /// Attached queries; entries whose query died leave lazily.
    attached: Vec<(EdgeId, QueryNode)>,
    alive: bool,
}

/// The result of a cover computation.
#[derive(Clone, Debug, Default)]
pub struct Cover {
    /// Total weight of the cover == max-flow value == minimal shipping cost.
    pub weight: u64,
    /// Update nodes in the cover (their updates should be shipped).
    pub updates: HashSet<UpdateNode>,
    /// Query nodes in the cover (these queries should be shipped).
    pub queries: HashSet<QueryNode>,
}

/// An incrementally-maintained bipartite weighted graph with min-weight
/// vertex cover queries.
#[derive(Clone, Debug)]
pub struct CoverGraph {
    net: FlowNetwork,
    s: NodeId,
    t: NodeId,
    us: Vec<UEntry>,
    qs: Vec<QEntry>,
    rs: Vec<REntry>,
    live_u: usize,
    live_q: usize,
    live_r: usize,
    /// Live interaction edges (both endpoints alive).
    live_edges: usize,
    /// Live infinite-capacity edges of any kind (both endpoints alive).
    live_inf: usize,
    /// Infinite-capacity edges ever added (compaction's copies aside).
    wiring: u64,
    removed_nodes: usize,
    /// Recycled `UEntry::edges` / `REntry::attached` and `QEntry::edges`
    /// Vecs from removed nodes, reused by the node constructors.
    list_pool: Vec<Vec<(EdgeId, QueryNode)>>,
    q_edge_pool: Vec<Vec<(EdgeId, Tail)>>,
    /// The open-sink set: lists every live query whose `q -> t` edge has
    /// residual capacity (once: `QEntry::open`). Entered by `add_query`,
    /// wherever flow is taken off a sink edge (`remove_update`,
    /// `drop_chain`; an augmentation only adds to one) and where a sink
    /// edge grows (`retain_query`). A superset:
    /// saturated and dead entries leave when a solve next reads the list.
    open: Vec<QueryNode>,
    /// `open` as the searches read it in place of `adj[t]`, per solve.
    open_edges: Vec<EdgeId>,
}

impl Default for CoverGraph {
    fn default() -> Self {
        Self::new()
    }
}

/// Returns `list` to `pool`, emptied and trimmed, while the pool has room.
fn recycle<T>(pool: &mut Vec<Vec<T>>, mut list: Vec<T>) {
    if pool.len() < MAX_POOLED_EDGE_LISTS {
        list.clear();
        list.shrink_to(POOLED_CAPACITY);
        pool.push(list);
    }
}

impl CoverGraph {
    /// Creates an empty cover graph.
    pub fn new() -> Self {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let t = net.add_node();
        Self {
            net,
            s,
            t,
            us: Vec::new(),
            qs: Vec::new(),
            rs: Vec::new(),
            live_u: 0,
            live_q: 0,
            live_r: 0,
            live_edges: 0,
            live_inf: 0,
            wiring: 0,
            removed_nodes: 0,
            list_pool: Vec::new(),
            q_edge_pool: Vec::new(),
            open: Vec::new(),
            open_edges: Vec::new(),
        }
    }

    /// Adds an update node with shipping cost `weight`.
    pub fn add_update(&mut self, weight: u64) -> UpdateNode {
        let node = self.net.add_node();
        let s_edge = self.net.add_edge(self.s, node, weight);
        self.us.push(UEntry {
            node,
            s_edge,
            weight,
            edges: self.list_pool.pop().unwrap_or_default(),
            live_deg: 0,
            relay: None,
            alive: true,
        });
        self.live_u += 1;
        UpdateNode(self.us.len() - 1)
    }

    /// Adds a query node with shipping cost `weight`.
    pub fn add_query(&mut self, weight: u64) -> QueryNode {
        let node = self.net.add_node();
        let t_edge = self.net.add_edge(node, self.t, weight);
        self.qs.push(QEntry {
            node,
            t_edge,
            weight,
            edges: self.q_edge_pool.pop().unwrap_or_default(),
            live_deg: 0,
            members: 1,
            alive: true,
            open: true,
        });
        self.live_q += 1;
        let q = QueryNode(self.qs.len() - 1);
        self.open.push(q);
        q
    }

    /// Adds an infinite-capacity edge, counted as wiring.
    fn wire(&mut self, from: NodeId, to: NodeId) -> EdgeId {
        self.wiring += 1;
        self.live_inf += 1;
        self.net.add_edge(from, to, INF)
    }

    /// Adds an interaction edge: query `q`'s currency requirement depends on
    /// update `u`.
    ///
    /// # Panics
    /// Panics if either endpoint has been removed, or if `u` is a chain
    /// segment (those are wired through their relays).
    pub fn add_interaction(&mut self, u: UpdateNode, q: QueryNode) {
        assert!(self.us[u.0].alive, "update node removed");
        assert!(self.qs[q.0].alive, "query node removed");
        assert!(
            self.us[u.0].relay.is_none(),
            "chain segments attach via relays"
        );
        let e = self.wire(self.us[u.0].node, self.qs[q.0].node);
        self.us[u.0].edges.push((e, q));
        self.us[u.0].live_deg += 1;
        self.qs[q.0].edges.push((e, Tail::Update(u)));
        self.qs[q.0].live_deg += 1;
        self.live_edges += 1;
    }

    /// Adds a segment of shipping cost `weight` at the end of the chain
    /// through `after` (any relay on it; `None` starts a new chain), and
    /// returns the segment and the relay it hangs off. Wires two infinite
    /// edges (one for a new chain).
    ///
    /// # Panics
    /// Panics if `after` has been removed.
    pub fn append_segment(&mut self, after: Option<Relay>, weight: u64) -> (UpdateNode, Relay) {
        let u = self.add_update(weight);
        let r = self.add_relay();
        let e = self.wire(self.us[u.0].node, self.rs[r.0].node);
        self.us[u.0].relay = Some((e, r));
        self.rs[r.0].segment = Some(u);
        if let Some(mut tail) = after {
            assert!(self.rs[tail.0].alive, "relay removed");
            while let Some((_, next)) = self.rs[tail.0].succ {
                tail = next;
            }
            let e = self.wire(self.rs[tail.0].node, self.rs[r.0].node);
            self.rs[tail.0].succ = Some((e, r));
            self.rs[r.0].pred = Some(tail);
        }
        (u, r)
    }

    fn add_relay(&mut self) -> Relay {
        let node = self.net.add_node();
        self.rs.push(REntry {
            node,
            pred: None,
            succ: None,
            segment: None,
            bundle: None,
            attached: self.list_pool.pop().unwrap_or_default(),
            alive: true,
        });
        self.live_r += 1;
        Relay(self.rs.len() - 1)
    }

    /// Attaches query `q` to relay `r`: `q` needs every segment hanging at
    /// or before `r` on its chain. One infinite edge.
    ///
    /// # Panics
    /// Panics if either endpoint has been removed.
    pub fn attach(&mut self, r: Relay, q: QueryNode) {
        assert!(self.rs[r.0].alive, "relay removed");
        assert!(self.qs[q.0].alive, "query node removed");
        let e = self.wire(self.rs[r.0].node, self.qs[q.0].node);
        self.rs[r.0].attached.push((e, q));
        self.qs[q.0].edges.push((e, Tail::Relay(r)));
        self.qs[q.0].live_deg += 1;
    }

    /// Shipping cost of an update node.
    pub fn update_weight(&self, u: UpdateNode) -> u64 {
        self.us[u.0].weight
    }

    /// Shipping cost of a query node.
    pub fn query_weight(&self, q: QueryNode) -> u64 {
        self.qs[q.0].weight
    }

    /// Whether the update node is still in the graph.
    pub fn update_alive(&self, u: UpdateNode) -> bool {
        self.us[u.0].alive
    }

    /// Whether the query node is still in the graph.
    pub fn query_alive(&self, q: QueryNode) -> bool {
        self.qs[q.0].alive
    }

    /// Number of live interaction edges incident to `u` (edges to removed
    /// queries don't count; a chain segment has none). O(1): maintained
    /// eagerly on edge and node mutations.
    pub fn update_degree(&self, u: UpdateNode) -> usize {
        debug_assert_eq!(
            self.us[u.0].live_deg,
            self.us[u.0]
                .edges
                .iter()
                .filter(|(_, q)| self.qs[q.0].alive)
                .count(),
            "update live-degree counter out of sync"
        );
        self.us[u.0].live_deg
    }

    /// Number of live edges into `q`: interactions plus attachments. O(1).
    pub fn query_degree(&self, q: QueryNode) -> usize {
        debug_assert_eq!(
            self.qs[q.0].live_deg,
            self.qs[q.0]
                .edges
                .iter()
                .filter(|&&(_, tail)| self.tail_alive(tail))
                .count(),
            "query live-degree counter out of sync"
        );
        self.qs[q.0].live_deg
    }

    fn tail_alive(&self, tail: Tail) -> bool {
        match tail {
            Tail::Update(u) => self.us[u.0].alive,
            Tail::Relay(r) => self.rs[r.0].alive,
        }
    }

    /// Live update-node count (segments included).
    pub fn live_updates(&self) -> usize {
        self.live_u
    }

    /// Live query-node count.
    pub fn live_queries(&self) -> usize {
        self.live_q
    }

    /// Live relay count.
    #[cfg(test)]
    fn live_relays(&self) -> usize {
        self.live_r
    }

    /// Live interaction-edge count (both endpoints alive).
    pub fn live_interactions(&self) -> usize {
        self.live_edges
    }

    /// Live infinite-capacity edges the network holds: interactions, and
    /// the segment, chain and attachment edges of relay chains.
    pub fn live_inf_edges(&self) -> usize {
        self.live_inf
    }

    /// Cumulative infinite-capacity edges added by [`Self::add_interaction`],
    /// [`Self::append_segment`], [`Self::split_segment`] and
    /// [`Self::attach`] (compaction's copies are not counted).
    pub fn wiring_edges(&self) -> u64 {
        self.wiring
    }

    /// Lowers the flow on `e` into query `q` and on `q`'s sink edge by
    /// `f`, which reopens the sink edge.
    fn cancel_into_sink(&mut self, e: EdgeId, q: QueryNode, f: u64) {
        let qe = &mut self.qs[q.0];
        self.net.force_flow(e, -(f as i64));
        self.net.force_flow(qe.t_edge, -(f as i64));
        if !qe.open {
            qe.open = true;
            self.open.push(q);
        }
    }

    /// Zeroes the flow a segment routes (`s -> u -> relay`) and returns it.
    fn drain_segment(&mut self, u: UpdateNode) -> u64 {
        let UEntry { s_edge, relay, .. } = self.us[u.0];
        let (e, _) = relay.expect("not a chain segment");
        let f = self.net.flow_on(s_edge);
        self.net.force_flow(s_edge, -(f as i64));
        self.net.force_flow(e, -(f as i64));
        f
    }

    /// Removes an update node (it was shipped, or its object was evicted),
    /// cancelling any flow routed through it so the remaining flow stays
    /// feasible.
    ///
    /// # Panics
    /// Panics if `u` is a chain segment: those leave with their chain
    /// ([`Self::drop_chain`]) or merge ([`Self::merge_segments`]).
    pub fn remove_update(&mut self, u: UpdateNode) {
        if !self.us[u.0].alive {
            return;
        }
        assert!(
            self.us[u.0].relay.is_none(),
            "chain segments leave with their chain"
        );
        let s_edge = self.us[u.0].s_edge;
        // Cancel flow on each interaction edge and the matching q->t edge
        // (which reopens it).
        let edges = std::mem::take(&mut self.us[u.0].edges);
        for &(e, q) in &edges {
            if self.qs[q.0].alive {
                self.qs[q.0].live_deg -= 1;
                self.live_edges -= 1;
                self.live_inf -= 1;
            }
            let f = self.net.flow_on(e);
            if f > 0 {
                self.cancel_into_sink(e, q, f);
            }
        }
        let f_su = self.net.flow_on(s_edge) as i64;
        self.net.force_flow(s_edge, -f_su);
        self.retire_update(u, edges);
        self.maybe_compact();
    }

    /// Deletes `u`, its flow cancelled or moved and its edge list taken.
    fn retire_update(&mut self, u: UpdateNode, edges: Vec<(EdgeId, QueryNode)>) {
        recycle(&mut self.list_pool, edges);
        self.net.delete_node(self.us[u.0].node);
        self.us[u.0].alive = false;
        self.us[u.0].live_deg = 0;
        self.live_u -= 1;
        self.removed_nodes += 1;
    }

    /// Deletes relay `r`, every edge on it already free of flow.
    fn retire_relay(&mut self, r: Relay) {
        let attached = std::mem::take(&mut self.rs[r.0].attached);
        recycle(&mut self.list_pool, attached);
        self.net.delete_node(self.rs[r.0].node);
        self.rs[r.0].alive = false;
        self.live_r -= 1;
        self.removed_nodes += 1;
    }

    /// Splits chain segment `u` into two of weights `w1 + w2 = w(u)`: a new
    /// segment of weight `w1` on a new relay inserted just before `u`'s,
    /// returned, and `u` itself as the second half. Queries attached at or
    /// after `u`'s relay still reach both halves; one attached to the new
    /// relay reaches only the first. The predecessor's chain edge is
    /// re-pointed, not copied, so the split wires two edges. The first half
    /// carries `min(f(s -> u), w1)` of `u`'s flow into the chain, and no
    /// sink edge changes: the flow stays feasible at the same value.
    ///
    /// # Panics
    /// Panics if `u` has been removed or is not a chain segment, or the
    /// weights do not sum to `w(u)`.
    pub fn split_segment(&mut self, u: UpdateNode, w1: u64, w2: u64) -> (UpdateNode, Relay) {
        assert!(self.us[u.0].alive, "update node removed");
        assert_eq!(w1 + w2, self.us[u.0].weight, "halves must sum to w(u)");
        let (seg_edge, r) = self.us[u.0].relay.expect("not a chain segment");
        let s_edge = self.us[u.0].s_edge;
        let f1 = self.net.flow_on(s_edge).min(w1);
        self.net.force_flow(s_edge, -(f1 as i64));
        self.net.force_flow(seg_edge, -(f1 as i64));
        self.net.set_capacity(s_edge, w2);
        self.us[u.0].weight = w2;

        let first = self.add_update(w1);
        let r1 = self.add_relay();
        let e = self.wire(self.us[first.0].node, self.rs[r1.0].node);
        self.us[first.0].relay = Some((e, r1));
        self.rs[r1.0].segment = Some(first);
        self.net.force_flow(self.us[first.0].s_edge, f1 as i64);
        self.net.force_flow(e, f1 as i64);
        let mut carried = f1;
        if let Some(p) = self.rs[r.0].pred {
            let (e_in, _) = self.rs[p.0].succ.expect("chain links agree");
            self.net.retarget(e_in, self.rs[r1.0].node);
            carried += self.net.flow_on(e_in);
            self.rs[p.0].succ = Some((e_in, r1));
            self.rs[r1.0].pred = Some(p);
        }
        let e = self.wire(self.rs[r1.0].node, self.rs[r.0].node);
        self.net.force_flow(e, carried as i64);
        self.rs[r1.0].succ = Some((e, r));
        self.rs[r.0].pred = Some(r1);
        (first, r1)
    }

    /// Coalesces the chain segments after `into` up to and including
    /// `last` into `into`, which ends with their total weight. Their relays
    /// stay where they are while queries are attached to them — `into`
    /// reaches them down the chain, which is exactly the union of the
    /// parts' neighbourhoods — and are spliced out once empty, so a
    /// coalesce wires nothing. Each part's flow enters at `into` instead
    /// and travels down the chain to where it used to enter; no sink edge
    /// changes, so the flow stays feasible at the same value.
    ///
    /// # Panics
    /// Panics unless `into` and `last` are live segments with `last` after
    /// `into` on one chain.
    pub fn merge_segments(&mut self, into: UpdateNode, last: UpdateNode) {
        assert!(
            self.us[into.0].alive && self.us[last.0].alive,
            "update node removed"
        );
        let (into_edge, r0) = self.us[into.0].relay.expect("not a chain segment");
        let (_, mut x) = self.us[last.0].relay.expect("not a chain segment");
        let (mut carried, mut weight) = (0, self.us[into.0].weight);
        while x != r0 {
            if let Some(part) = self.rs[x.0].segment.take() {
                carried += self.drain_segment(part);
                weight += self.us[part.0].weight;
                self.live_inf -= 1;
                let edges = std::mem::take(&mut self.us[part.0].edges);
                self.retire_update(part, edges);
            }
            let pred = self.rs[x.0]
                .pred
                .expect("`last` follows `into` on one chain");
            let (e_in, _) = self.rs[pred.0].succ.expect("chain links agree");
            self.net.force_flow(e_in, carried as i64);
            self.splice_if_empty(x);
            x = pred;
        }
        let s_edge = self.us[into.0].s_edge;
        self.us[into.0].weight = weight;
        self.net.set_capacity(s_edge, weight);
        self.net.force_flow(s_edge, carried as i64);
        self.net.force_flow(into_edge, carried as i64);
        self.maybe_compact();
    }

    /// Removes relay `x` if no segment hangs off it and no live query is
    /// attached: then what enters it is what it passes on, and its
    /// predecessor's chain edge is re-pointed past it.
    fn splice_if_empty(&mut self, x: Relay) {
        let qs = &self.qs;
        let rx = &mut self.rs[x.0];
        rx.attached.retain(|&(_, q)| qs[q.0].alive);
        if rx.segment.is_some() || !rx.attached.is_empty() {
            return;
        }
        let (pred, succ) = (rx.pred, rx.succ);
        if let Some((e_out, y)) = succ {
            let f = self.net.flow_on(e_out);
            self.net.force_flow(e_out, -(f as i64));
            self.rs[y.0].pred = pred;
        }
        if let Some(p) = pred {
            let (e_in, _) = self.rs[p.0].succ.expect("chain links agree");
            match succ {
                Some((_, y)) => self.net.retarget(e_in, self.rs[y.0].node),
                None => debug_assert_eq!(self.net.flow_on(e_in), 0, "flow into a dead end"),
            }
            self.rs[p.0].succ = succ.map(|(_, y)| (e_in, y));
        }
        if pred.is_some() || succ.is_some() {
            self.live_inf -= 1;
        }
        self.retire_relay(x);
    }

    /// Removes the chain prefix from `head` up to (not including) `keep` —
    /// the whole chain when `None` — with every segment hanging off it:
    /// the updates were shipped, or the object was evicted. Flow into
    /// queries attached to the prefix is cancelled at their sink edges,
    /// and the flow the prefix passed on to `keep` is cancelled greedily
    /// down the chain, attachments first; every sink edge lowered reopens.
    /// Queries left with no live edge are appended to `isolated`.
    ///
    /// # Panics
    /// Panics unless `head` is the live head of a chain and `keep` lies on
    /// it.
    pub fn drop_chain(&mut self, head: Relay, keep: Option<Relay>, isolated: &mut Vec<QueryNode>) {
        assert!(
            self.rs[head.0].alive && self.rs[head.0].pred.is_none(),
            "not the head of a chain"
        );
        let mut next = Some(head);
        let mut passed_on = 0;
        while next != keep {
            let r = next.expect("`keep` lies on the chain after `head`");
            if let Some(u) = self.rs[r.0].segment.take() {
                self.drain_segment(u);
                self.live_inf -= 1;
                let edges = std::mem::take(&mut self.us[u.0].edges);
                self.retire_update(u, edges);
            }
            let attached = std::mem::take(&mut self.rs[r.0].attached);
            for &(e, q) in &attached {
                if !self.qs[q.0].alive {
                    continue;
                }
                self.qs[q.0].live_deg -= 1;
                self.live_inf -= 1;
                let f = self.net.flow_on(e);
                if f > 0 {
                    self.cancel_into_sink(e, q, f);
                }
                if self.qs[q.0].live_deg == 0 {
                    isolated.push(q);
                }
            }
            self.rs[r.0].attached = attached;
            next = self.rs[r.0].succ.map(|(e, y)| {
                let f = self.net.flow_on(e);
                self.net.force_flow(e, -(f as i64));
                self.live_inf -= 1;
                if Some(y) == keep {
                    passed_on = f;
                    self.rs[y.0].pred = None;
                }
                y
            });
            self.retire_relay(r);
        }
        if let Some(mut x) = keep {
            let mut rem = passed_on;
            while rem > 0 {
                for i in 0..self.rs[x.0].attached.len() {
                    let (e, q) = self.rs[x.0].attached[i];
                    let f = self.net.flow_on(e).min(rem);
                    if f > 0 {
                        self.cancel_into_sink(e, q, f);
                        rem -= f;
                        if rem == 0 {
                            break;
                        }
                    }
                }
                if rem > 0 {
                    let (e, y) = self.rs[x.0]
                        .succ
                        .expect("flow leaves a chain by attachments");
                    self.net.force_flow(e, -(rem as i64));
                    x = y;
                }
            }
        }
        self.maybe_compact();
    }

    /// Removes a query node (it was answered at the cache or shipped and its
    /// retention is no longer needed), cancelling flow through it: back to
    /// the source directly from an update, or up a chain — segments first —
    /// from a relay.
    pub fn remove_query(&mut self, q: QueryNode) {
        if !self.qs[q.0].alive {
            return;
        }
        let node = self.qs[q.0].node;
        let t_edge = self.qs[q.0].t_edge;
        let edges = std::mem::take(&mut self.qs[q.0].edges);
        for &(e, tail) in &edges {
            // A dead tail took its edges' flow with it.
            if !self.tail_alive(tail) {
                continue;
            }
            self.live_inf -= 1;
            let f = self.net.flow_on(e);
            self.net.force_flow(e, -(f as i64));
            match tail {
                Tail::Update(u) => {
                    self.us[u.0].live_deg -= 1;
                    self.live_edges -= 1;
                    self.net.force_flow(self.us[u.0].s_edge, -(f as i64));
                }
                Tail::Relay(r) => self.cancel_up_chain(r, f),
            }
        }
        recycle(&mut self.q_edge_pool, edges);
        let f_qt = self.net.flow_on(t_edge) as i64;
        self.net.force_flow(t_edge, -f_qt);
        self.net.delete_node(node);
        self.qs[q.0].alive = false;
        self.qs[q.0].live_deg = 0;
        self.live_q -= 1;
        self.removed_nodes += 1;
        self.maybe_compact();
    }

    /// Keeps query `q` for later covers (it was shipped) and returns the
    /// vertex that now stands for it. A query whose only live edge is one
    /// attachment has the same neighbourhood as every other such query on
    /// that relay, so every cover takes all of them or none: they share one
    /// vertex per relay, of their total weight, and `q` is folded into it
    /// with its flow. Any other query stands for itself.
    ///
    /// # Panics
    /// Panics if `q` has been removed.
    pub fn retain_query(&mut self, q: QueryNode) -> QueryNode {
        assert!(self.qs[q.0].alive, "query node removed");
        let Some((e, r)) = self.sole_attachment(q) else {
            return q;
        };
        let into = match self.rs[r.0].bundle {
            Some(b) if b != q && self.qs[b.0].alive => b,
            _ => {
                self.rs[r.0].bundle = Some(q);
                return q;
            }
        };
        let (into_edge, _) = self
            .sole_attachment(into)
            .expect("a bundle hangs off its relay");
        let QEntry {
            t_edge,
            weight,
            members,
            ..
        } = self.qs[q.0];
        let f = self.net.flow_on(e);
        self.net.force_flow(e, -(f as i64));
        self.net.force_flow(t_edge, -(f as i64));
        let b = &mut self.qs[into.0];
        b.weight += weight;
        b.members += members;
        self.net.set_capacity(b.t_edge, b.weight);
        self.net.force_flow(b.t_edge, f as i64);
        self.net.force_flow(into_edge, f as i64);
        if !b.open && self.net.edge(b.t_edge).residual() > 0 {
            b.open = true;
            self.open.push(into);
        }
        self.remove_query(q);
        into
    }

    /// Lets go of one of the queries vertex `q` stands for, of weight
    /// `weight`: the vertex loses that weight, cancelling the flow that no
    /// longer fits, and leaves the graph with its last member.
    ///
    /// # Panics
    /// Panics if `q` has been removed or stands for less than `weight`.
    pub fn release_query(&mut self, q: QueryNode, weight: u64) {
        assert!(self.qs[q.0].alive, "query node removed");
        let qe = &mut self.qs[q.0];
        qe.members -= 1;
        if qe.members == 0 {
            debug_assert_eq!(qe.weight, weight, "the last member carries the rest");
            self.remove_query(q);
            return;
        }
        qe.weight -= weight;
        let (t_edge, rest) = (qe.t_edge, qe.weight);
        let excess = self.net.flow_on(t_edge).saturating_sub(rest);
        if excess > 0 {
            let (e, r) = self
                .sole_attachment(q)
                .expect("a bundle hangs off its relay");
            self.net.force_flow(t_edge, -(excess as i64));
            self.net.force_flow(e, -(excess as i64));
            self.cancel_up_chain(r, excess);
        }
        self.net.set_capacity(t_edge, rest);
    }

    /// The edge and relay of `q`'s attachment, when that is its only
    /// live edge.
    fn sole_attachment(&self, q: QueryNode) -> Option<(EdgeId, Relay)> {
        let qe = &self.qs[q.0];
        if qe.live_deg != 1 {
            return None;
        }
        match qe.edges.iter().find(|&&(_, tail)| self.tail_alive(tail)) {
            Some(&(e, Tail::Relay(r))) => Some((e, r)),
            _ => None,
        }
    }

    /// Queries vertex `q` stands for (1 unless [`Self::retain_query`]
    /// folded others into it).
    pub fn query_members(&self, q: QueryNode) -> usize {
        self.qs[q.0].members
    }

    /// Lowers the inflow of relay `x` by `rem`, which left it through an
    /// edge that was just cancelled: from the segment hanging off it
    /// first, the rest from its predecessor, and so on up the chain.
    fn cancel_up_chain(&mut self, mut x: Relay, mut rem: u64) {
        while rem > 0 {
            if let Some(u) = self.rs[x.0].segment {
                let UEntry { s_edge, relay, .. } = self.us[u.0];
                let (e, _) = relay.expect("segments hang off relays");
                let f = self.net.flow_on(e).min(rem);
                self.net.force_flow(e, -(f as i64));
                self.net.force_flow(s_edge, -(f as i64));
                rem -= f;
            }
            if rem == 0 {
                break;
            }
            let pred = self.rs[x.0].pred.expect("flow enters a chain by segments");
            let (e, _) = self.rs[pred.0].succ.expect("chain links agree");
            self.net.force_flow(e, -(rem as i64));
            x = pred;
        }
    }

    /// Answers the one question the online decision loop needs: after
    /// re-solving incrementally, is query `q` in the minimum-weight cover
    /// (i.e. should it be shipped)? Allocation-free. Equivalent to
    /// `self.solve().queries.contains(&q)` (pinned by proptests).
    ///
    /// # Panics
    /// Panics if `q` has been removed.
    pub fn solve_query_membership(&mut self, q: QueryNode) -> bool {
        assert!(self.qs[q.0].alive, "query node removed");
        self.max_flow();
        let QEntry { node, t_edge, .. } = self.qs[q.0];
        // A query that can still reach `t` cannot be reachable from `s`:
        // together that would be an augmenting path, and the flow is
        // maximum. No search needed.
        if self.net.edge(t_edge).residual() > 0 {
            return false;
        }
        // The probe's backward side reaches `t` over `q`'s own sink edge;
        // from there it too follows the open edges only.
        let open = (self.t, &mut self.open_edges);
        self.net.search(self.s, node, Some(open)).is_some()
    }

    /// Brings the flow to maximum, continuing from the current one, with
    /// every search's backward side starting from the open-sink set.
    fn max_flow(&mut self) {
        self.open_edges.clear();
        self.open.retain(|q| {
            let qe = &mut self.qs[q.0];
            qe.open = qe.alive && self.net.edge(qe.t_edge).residual() > 0;
            if qe.open {
                self.open_edges.push(qe.t_edge ^ 1);
            }
            qe.open
        });
        let (s, t) = (self.s, self.t);
        while self
            .net
            .augment(s, t, Some((t, &mut self.open_edges)))
            .is_some()
        {}
    }

    /// Value of the current flow (maximum right after a solve).
    pub fn flow_value(&self) -> u64 {
        self.net.flow_value(self.s)
    }

    /// Cumulative augmenting paths pushed by every solve so far.
    pub fn augmentations(&self) -> u64 {
        self.net.augmentations()
    }

    /// Cumulative adjacency entries examined by every solve's path
    /// searches so far (augmenting, failed, and membership probes; not the
    /// full sweep behind [`Self::solve`]'s cover extraction).
    pub fn edges_scanned(&self) -> u64 {
        self.net.edges_scanned()
    }

    /// Solves for the current minimum-weight vertex cover, continuing from
    /// the previous flow (the incremental step of §4). Materializes the
    /// full cover — tests, stats, and offline planning; the online hot
    /// path uses [`Self::solve_query_membership`].
    pub fn solve(&mut self) -> Cover {
        self.max_flow();
        self.net.mark_residual_reachable(self.s);
        let mut cover = Cover {
            weight: self.net.flow_value(self.s),
            ..Default::default()
        };
        for (i, u) in self.us.iter().enumerate() {
            if u.alive && !self.net.reached(u.node) {
                cover.updates.insert(UpdateNode(i));
            }
        }
        for (i, q) in self.qs.iter().enumerate() {
            if q.alive && self.net.reached(q.node) {
                cover.queries.insert(QueryNode(i));
            }
        }
        debug_assert_eq!(
            cover.weight,
            cover
                .updates
                .iter()
                .map(|&u| self.us[u.0].weight)
                .chain(cover.queries.iter().map(|&q| self.qs[q.0].weight))
                .sum::<u64>(),
            "cover weight must equal max-flow value"
        );
        cover
    }

    /// Rebuilds the underlying network without deleted nodes and dead
    /// edges once either makes up four fifths of it, carrying over the
    /// feasible flow. Restructuring abandons edges without deleting as
    /// many nodes, so the edge count is watched on its own. External
    /// handles remain valid.
    fn maybe_compact(&mut self) {
        let live_nodes = self.live_u + self.live_q + self.live_r + 2;
        let live_edges = self.live_u + self.live_q + self.live_inf;
        let dead_edges = self.net.edge_count() - live_edges;
        let bloated = |dead: usize, live: usize| dead >= 64 && dead >= 4 * live;
        if bloated(self.removed_nodes, live_nodes) || bloated(dead_edges, live_edges) {
            self.compact();
        }
    }

    /// Forces a compaction (normally triggered automatically).
    pub fn compact(&mut self) {
        let (nodes, edges) = self.net.compact();
        let live = |e: &mut EdgeId| {
            *e = edges[*e];
            *e != usize::MAX
        };
        for u in self.us.iter_mut().filter(|u| u.alive) {
            u.node = nodes[u.node];
            u.s_edge = edges[u.s_edge];
            u.edges.retain_mut(|(e, _)| live(e));
            if let Some((e, _)) = &mut u.relay {
                *e = edges[*e];
            }
        }
        for q in self.qs.iter_mut().filter(|q| q.alive) {
            q.node = nodes[q.node];
            q.t_edge = edges[q.t_edge];
            q.edges.retain_mut(|(e, _)| live(e));
        }
        for r in self.rs.iter_mut().filter(|r| r.alive) {
            r.node = nodes[r.node];
            if let Some((e, _)) = &mut r.succ {
                *e = edges[*e];
            }
            r.attached.retain_mut(|(e, _)| live(e));
        }
        self.removed_nodes = 0;
        debug_assert!(self.check().is_ok());
    }

    /// Sanity check, for tests: the flow is conserved; the open-sink set
    /// lists each flagged query once and misses no live query whose sink
    /// edge has residual capacity; chain links agree with the network; and
    /// the live infinite-edge count is exact.
    pub fn check(&self) -> Result<(), String> {
        self.net.check_conservation(self.s, self.t)?;
        let listed: HashSet<QueryNode> = self.open.iter().copied().collect();
        let sound = listed.len() == self.open.len()
            && self.qs.iter().enumerate().all(|(i, q)| {
                q.open == listed.contains(&QueryNode(i))
                    && (q.open || !q.alive || self.net.edge(q.t_edge).residual() == 0)
            });
        if !sound {
            return Err("the open-sink set misses a query or lists one twice".into());
        }
        let tail_of = |e: EdgeId| self.net.edge(e ^ 1).to;
        for (i, r) in self.rs.iter().enumerate().filter(|(_, r)| r.alive) {
            let linked = r.succ.is_none_or(|(e, y)| {
                let next = &self.rs[y.0];
                next.alive
                    && next.pred == Some(Relay(i))
                    && tail_of(e) == r.node
                    && self.net.edge(e).to == next.node
            }) && r.segment.is_none_or(|u| {
                self.us[u.0].alive && self.us[u.0].relay.is_some_and(|(_, at)| at == Relay(i))
            });
            if !linked {
                return Err(format!("relay {i} disagrees with its chain"));
            }
        }
        let live_inf = (0..self.net.edge_count())
            .map(|i| 2 * i)
            .filter(|&e| {
                let edge = self.net.edge(e);
                edge.cap == INF && !self.net.is_deleted(edge.to) && !self.net.is_deleted(tail_of(e))
            })
            .count();
        if live_inf != self.live_inf {
            return Err(format!(
                "{live_inf} live INF edges, {} counted",
                self.live_inf
            ));
        }
        Ok(())
    }

    /// Entries the recycled lists of the graph and its network hold room
    /// for (for tests).
    #[cfg(test)]
    fn pooled_capacity(&self) -> usize {
        let lists = self.list_pool.iter().map(Vec::capacity).sum::<usize>();
        let q_lists = self.q_edge_pool.iter().map(Vec::capacity).sum::<usize>();
        lists + q_lists + self.net.pooled_capacity()
    }
}

/// Exhaustive minimum-weight vertex cover for tiny bipartite graphs
/// (`|U| <= 20`). Reference implementation for tests and benchmarks.
///
/// `edges` lists `(u_index, q_index)` pairs.
pub fn brute_force_cover_weight(
    u_weights: &[u64],
    q_weights: &[u64],
    edges: &[(usize, usize)],
) -> u64 {
    assert!(
        u_weights.len() <= 20,
        "brute force limited to 20 update nodes"
    );
    let mut best = u64::MAX;
    for mask in 0u32..(1 << u_weights.len()) {
        let mut w: u64 = 0;
        for (i, &uw) in u_weights.iter().enumerate() {
            if mask & (1 << i) != 0 {
                w += uw;
            }
        }
        // Every query with an edge from an unchosen u must join the cover.
        let mut q_in = vec![false; q_weights.len()];
        for &(u, q) in edges {
            if mask & (1 << u) == 0 {
                q_in[q] = true;
            }
        }
        for (q, &inc) in q_in.iter().enumerate() {
            if inc {
                w += q_weights[q];
            }
        }
        best = best.min(w);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph_zero_cover() {
        let mut g = CoverGraph::new();
        let c = g.solve();
        assert_eq!(c.weight, 0);
        assert!(c.updates.is_empty() && c.queries.is_empty());
    }

    #[test]
    fn isolated_nodes_never_in_cover() {
        let mut g = CoverGraph::new();
        g.add_update(10);
        g.add_query(20);
        let c = g.solve();
        assert_eq!(c.weight, 0);
        assert!(c.updates.is_empty() && c.queries.is_empty());
    }

    #[test]
    fn single_edge_picks_cheaper_side() {
        let mut g = CoverGraph::new();
        let u = g.add_update(3);
        let q = g.add_query(10);
        g.add_interaction(u, q);
        let c = g.solve();
        assert_eq!(c.weight, 3);
        assert!(c.updates.contains(&u));
        assert!(!c.queries.contains(&q));
        assert!(!g.solve_query_membership(q));
    }

    #[test]
    fn expensive_update_ships_query() {
        let mut g = CoverGraph::new();
        let u = g.add_update(50);
        let q = g.add_query(10);
        g.add_interaction(u, q);
        let c = g.solve();
        assert_eq!(c.weight, 10);
        assert!(c.queries.contains(&q));
        assert!(g.solve_query_membership(q));
    }

    #[test]
    fn query_that_still_reaches_the_sink_is_settled_without_a_probe() {
        // `solve()` on a maximal flow costs exactly one failed search
        // (its cover sweep is not counted), which prices the probe.
        let failed_search = |g: &mut CoverGraph| {
            let _ = g.solve();
            let before = g.edges_scanned();
            let _ = g.solve();
            g.edges_scanned() - before
        };
        // u (3) -- q (10): s->u saturates and q->t keeps residual 7, so q
        // cannot be source-reachable and no probe runs.
        let mut g = CoverGraph::new();
        let u = g.add_update(3);
        let q = g.add_query(10);
        g.add_interaction(u, q);
        let failed = failed_search(&mut g);
        let before = g.edges_scanned();
        assert!(!g.solve_query_membership(q));
        assert_eq!(g.edges_scanned() - before, failed);
        // u (50) -- q (10): q->t is saturated, the answer needs the probe.
        let mut g = CoverGraph::new();
        let u = g.add_update(50);
        let q = g.add_query(10);
        g.add_interaction(u, q);
        let failed = failed_search(&mut g);
        let before = g.edges_scanned();
        assert!(g.solve_query_membership(q));
        assert!(g.edges_scanned() - before > failed);
    }

    #[test]
    fn membership_matches_solve() {
        let mut g = CoverGraph::new();
        let u1 = g.add_update(5);
        let u2 = g.add_update(40);
        let q1 = g.add_query(4);
        let q2 = g.add_query(100);
        g.add_interaction(u1, q1);
        g.add_interaction(u1, q2);
        g.add_interaction(u2, q2);
        let m1 = g.solve_query_membership(q1);
        let m2 = g.solve_query_membership(q2);
        let c = g.solve();
        assert_eq!(m1, c.queries.contains(&q1));
        assert_eq!(m2, c.queries.contains(&q2));
    }

    #[test]
    fn star_updates_shared_by_queries() {
        // One cheap update interacting with three expensive queries:
        // ship the update once instead of three queries.
        let mut g = CoverGraph::new();
        let u = g.add_update(5);
        for _ in 0..3 {
            let q = g.add_query(4);
            g.add_interaction(u, q);
        }
        let c = g.solve();
        assert_eq!(c.weight, 5);
        assert_eq!(c.updates.len(), 1);
    }

    #[test]
    fn paper_example_fig2_internal_graph() {
        // The internal interaction subgraph of Fig. 2: u1(1GB), u6(2GB)
        // both interact with q7(5GB). Shipping both updates (3GB) beats
        // shipping the query (5GB).
        let mut g = CoverGraph::new();
        let u1 = g.add_update(1);
        let u6 = g.add_update(2);
        let q7 = g.add_query(5);
        g.add_interaction(u1, q7);
        g.add_interaction(u6, q7);
        let c = g.solve();
        assert_eq!(c.weight, 3);
        assert!(c.updates.contains(&u1) && c.updates.contains(&u6));
        assert!(!c.queries.contains(&q7));
        assert!(!g.solve_query_membership(q7));
    }

    #[test]
    fn cover_covers_every_edge() {
        let mut g = CoverGraph::new();
        let us: Vec<_> = [7u64, 3, 9, 2].iter().map(|&w| g.add_update(w)).collect();
        let qs: Vec<_> = [5u64, 6, 1].iter().map(|&w| g.add_query(w)).collect();
        let edges = [(0, 0), (0, 1), (1, 1), (2, 2), (3, 0), (3, 2)];
        for &(u, q) in &edges {
            g.add_interaction(us[u], qs[q]);
        }
        let c = g.solve();
        for &(u, q) in &edges {
            assert!(
                c.updates.contains(&us[u]) || c.queries.contains(&qs[q]),
                "edge ({u},{q}) uncovered"
            );
        }
        let brute = brute_force_cover_weight(&[7, 3, 9, 2], &[5, 6, 1], &edges);
        assert_eq!(c.weight, brute);
    }

    #[test]
    fn incremental_additions_match_fresh_solve() {
        let mut g = CoverGraph::new();
        let u1 = g.add_update(4);
        let q1 = g.add_query(3);
        g.add_interaction(u1, q1);
        let w1 = g.solve().weight;
        assert_eq!(w1, 3);
        // New query raises the stakes for u1.
        let q2 = g.add_query(6);
        g.add_interaction(u1, q2);
        let c = g.solve();
        // Now shipping u1 (4) beats q1+q2 (9).
        assert_eq!(c.weight, 4);
        g.check().unwrap();
    }

    #[test]
    fn removal_cancels_flow_and_stays_feasible() {
        let mut g = CoverGraph::new();
        let u1 = g.add_update(2);
        let u2 = g.add_update(3);
        let q1 = g.add_query(4);
        let q2 = g.add_query(2);
        g.add_interaction(u1, q1);
        g.add_interaction(u2, q1);
        g.add_interaction(u2, q2);
        let _ = g.solve();
        g.remove_update(u2);
        g.check().unwrap();
        let c = g.solve();
        // Remaining graph: u1(2) -- q1(4): ship u1.
        assert_eq!(c.weight, 2);
        assert!(c.updates.contains(&u1));
        // Removing again is a no-op.
        g.remove_update(u2);
        g.check().unwrap();
    }

    #[test]
    fn remove_query_then_resolve() {
        let mut g = CoverGraph::new();
        let u = g.add_update(5);
        let q1 = g.add_query(3);
        let q2 = g.add_query(3);
        g.add_interaction(u, q1);
        g.add_interaction(u, q2);
        assert_eq!(g.solve().weight, 5); // ship u (5) vs q1+q2 (6)
        g.remove_query(q1);
        let c = g.solve();
        assert_eq!(c.weight, 3); // now just q2 vs u: ship q2
        assert!(c.queries.contains(&q2));
        g.check().unwrap();
    }

    #[test]
    fn degrees_track_liveness() {
        let mut g = CoverGraph::new();
        let u = g.add_update(1);
        let q1 = g.add_query(1);
        let q2 = g.add_query(1);
        g.add_interaction(u, q1);
        g.add_interaction(u, q2);
        assert_eq!(g.update_degree(u), 2);
        assert_eq!(g.live_interactions(), 2);
        g.remove_query(q1);
        assert_eq!(g.update_degree(u), 1);
        assert_eq!(g.query_degree(q2), 1);
        assert_eq!(g.live_interactions(), 1);
        g.remove_update(u);
        assert_eq!(g.query_degree(q2), 0);
        assert_eq!(g.live_interactions(), 0);
    }

    #[test]
    fn compaction_preserves_solution() {
        let mut g = CoverGraph::new();
        // Build, solve, remove many nodes to trigger compaction, and check
        // the survivors still solve correctly.
        let mut kept = Vec::new();
        for i in 0..200 {
            let u = g.add_update(2 + (i % 5) as u64);
            let q = g.add_query(1 + (i % 7) as u64);
            g.add_interaction(u, q);
            if i % 10 == 0 {
                kept.push((u, q));
            }
        }
        let _ = g.solve();
        for i in 0..200 {
            if i % 10 != 0 {
                g.remove_update(UpdateNode(i));
                g.remove_query(QueryNode(i));
            }
        }
        g.compact();
        g.check().unwrap();
        let c = g.solve();
        // Each surviving pair contributes min(w_u, w_q).
        let expect: u64 = kept
            .iter()
            .map(|&(u, q)| g.update_weight(u).min(g.query_weight(q)))
            .sum();
        assert_eq!(c.weight, expect);
        // Degree counters survive compaction.
        for &(u, q) in &kept {
            assert_eq!(g.update_degree(u), 1);
            assert_eq!(g.query_degree(q), 1);
        }
    }

    #[test]
    fn brute_force_sanity() {
        assert_eq!(brute_force_cover_weight(&[3], &[10], &[(0, 0)]), 3);
        assert_eq!(brute_force_cover_weight(&[10], &[3], &[(0, 0)]), 3);
        assert_eq!(brute_force_cover_weight(&[], &[], &[]), 0);
    }

    /// Three segments of weight 10 with a query of weight `w` attached at
    /// each: (graph, segments, relays, queries).
    fn chain_of_three(w: [u64; 3]) -> (CoverGraph, Vec<UpdateNode>, Vec<Relay>, Vec<QueryNode>) {
        let mut g = CoverGraph::new();
        let (mut us, mut rs, mut qs) = (Vec::new(), Vec::new(), Vec::new());
        for &wq in &w {
            let (u, r) = g.append_segment(rs.last().copied(), 10);
            let q = g.add_query(wq);
            g.attach(r, q);
            us.push(u);
            rs.push(r);
            qs.push(q);
        }
        (g, us, rs, qs)
    }

    #[test]
    fn a_chain_covers_like_its_prefix_wiring() {
        // q_j needs segments 0..=j: the cheap queries ship, the dear one
        // is worth shipping u0 for (12 > 10) and rides on the rest too.
        let (mut g, us, _, qs) = chain_of_three([4, 12, 25]);
        assert_eq!(g.wiring_edges(), 3 + 2 + 3);
        assert_eq!(g.live_inf_edges(), 8);
        let cover = g.solve();
        let brute = brute_force_cover_weight(
            &[10, 10, 10],
            &[4, 12, 25],
            &[(0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (2, 2)],
        );
        assert_eq!(cover.weight, brute);
        for (i, &q) in qs.iter().enumerate() {
            assert_eq!(
                g.solve_query_membership(q),
                cover.queries.contains(&q),
                "q{i}"
            );
        }
        assert!(cover.updates.contains(&us[0]));
        g.check().unwrap();
    }

    #[test]
    fn split_carries_the_flow_across_with_two_edges() {
        let (mut g, us, rs, qs) = chain_of_three([4, 12, 25]);
        let weight = g.solve().weight;
        let (wired, pushed) = (g.wiring_edges(), g.augmentations());
        let (first, r1) = g.split_segment(us[1], 3, 7);
        g.check().unwrap();
        assert_eq!(g.wiring_edges() - wired, 2);
        assert_eq!(g.flow_value(), weight);
        assert_eq!((g.update_weight(first), g.update_weight(us[1])), (3, 7));
        // Still maximum: nothing is attached to the new relay yet.
        assert_eq!(g.solve().weight, weight);
        assert_eq!(g.augmentations(), pushed);
        // A query needing u0 and the first half only.
        let q = g.add_query(100);
        g.attach(r1, q);
        let cover = g.solve();
        assert!(cover.updates.contains(&first) && !cover.queries.contains(&q));
        assert!(g.solve_query_membership(qs[0]) == cover.queries.contains(&qs[0]));
        let _ = rs;
        g.check().unwrap();
    }

    #[test]
    #[should_panic(expected = "halves must sum")]
    fn split_rejects_weights_that_do_not_add_up() {
        let mut g = CoverGraph::new();
        let (u, _) = g.append_segment(None, 10);
        g.split_segment(u, 3, 8);
    }

    #[test]
    fn merge_wires_nothing_and_keeps_attached_relays() {
        let (mut g, us, rs, qs) = chain_of_three([4, 12, 25]);
        assert_eq!(g.solve().weight, 3 * 10, "ship every segment");
        let (wired, flow) = (g.wiring_edges(), g.flow_value());
        g.merge_segments(us[0], us[1]);
        g.check().unwrap();
        assert_eq!(g.wiring_edges(), wired);
        assert_eq!(g.flow_value(), flow);
        assert!(!g.update_alive(us[1]));
        assert_eq!(g.update_weight(us[0]), 20);
        // r1 keeps q1, so it stays; one segment edge died.
        assert_eq!((g.live_relays(), g.live_inf_edges()), (3, 7));
        // The union is conservative: q0 now needs the merged segment too.
        let cover = g.solve();
        let brute =
            brute_force_cover_weight(&[20, 10], &[4, 12, 25], &[(0, 0), (0, 1), (0, 2), (1, 2)]);
        assert_eq!(cover.weight, brute);
        // Once q1 leaves, the next coalesce over r1 splices it out.
        g.remove_query(qs[1]);
        g.merge_segments(us[0], us[2]);
        g.check().unwrap();
        assert_eq!(g.live_relays(), 2, "r1 spliced, r2 keeps q2");
        assert_eq!(g.solve().weight, 4 + 25);
        let _ = rs;
    }

    #[test]
    fn dropping_a_prefix_isolates_exactly_its_queries() {
        let (mut g, us, rs, qs) = chain_of_three([40, 12, 25]);
        let _ = g.solve();
        let mut isolated = Vec::new();
        g.drop_chain(rs[0], Some(rs[1]), &mut isolated);
        g.check().unwrap();
        assert_eq!(isolated, vec![qs[0]]);
        assert!(!g.update_alive(us[0]) && g.update_alive(us[1]));
        assert_eq!((g.query_degree(qs[0]), g.query_degree(qs[2])), (0, 1));
        g.remove_query(qs[0]);
        let cover = g.solve();
        let brute = brute_force_cover_weight(&[10, 10], &[12, 25], &[(0, 0), (0, 1), (1, 1)]);
        assert_eq!(cover.weight, brute);
        // Evicting the rest isolates the others; nothing is left wired.
        g.drop_chain(rs[1], None, &mut isolated);
        assert_eq!(isolated, vec![qs[0], qs[1], qs[2]]);
        assert_eq!(
            (g.live_updates(), g.live_relays(), g.live_inf_edges()),
            (0, 0, 0)
        );
        assert_eq!(g.solve().weight, 0);
        g.check().unwrap();
    }

    #[test]
    fn removing_a_query_cancels_its_flow_up_the_chain() {
        // q2 (25) draws 10 from each segment; its removal must hand back
        // flow from the chain's upstream segments, not just its own relay.
        let (mut g, _, _, qs) = chain_of_three([1, 1, 25]);
        let _ = g.solve();
        g.remove_query(qs[2]);
        g.check().unwrap();
        assert_eq!(g.flow_value(), 2);
        assert_eq!(g.solve().weight, 2);
    }

    #[test]
    fn retained_queries_on_a_relay_share_one_vertex() {
        // Two cheap queries on u0 (10) are shipped and folded: one vertex
        // of weight 7. A third (5) makes shipping u0 cheaper than all three.
        let mut g = CoverGraph::new();
        let (_, r) = g.append_segment(None, 10);
        let mut kept = Vec::new();
        for w in [3, 4] {
            let q = g.add_query(w);
            g.attach(r, q);
            assert!(g.solve_query_membership(q));
            kept.push(g.retain_query(q));
        }
        assert_eq!(kept[0], kept[1]);
        let bundle = kept[0];
        assert_eq!((g.query_members(bundle), g.query_weight(bundle)), (2, 7));
        assert_eq!((g.live_queries(), g.live_inf_edges()), (1, 2));
        let q = g.add_query(5);
        g.attach(r, q);
        assert!(!g.solve_query_membership(q), "12 > 10: ship the segment");
        // Letting the 4 go leaves 3 + 5 < 10, and the flow that no longer
        // fits is cancelled up the chain.
        g.release_query(bundle, 4);
        g.check().unwrap();
        assert!(g.solve_query_membership(q));
        assert_eq!(g.solve().weight, 8);
        g.release_query(bundle, 3);
        assert!(!g.query_alive(bundle), "its last member took it along");
        g.check().unwrap();
    }

    /// Retained memory follows the live graph: under a churn of splits,
    /// coalesces, drops and query turnover the network never holds more
    /// than four dead edges per live one (plus the compaction floor), and
    /// the recycled-list pools never hold more than their trimmed capacity.
    #[test]
    fn retained_memory_is_bounded_by_live_size() {
        let mut g = CoverGraph::new();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut rng = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        let mut segs: Vec<(UpdateNode, Relay)> = Vec::new();
        let mut retained = std::collections::VecDeque::new();
        let mut isolated = Vec::new();
        for step in 0..20_000u64 {
            let at = match rng(8) {
                0 | 1 if !segs.is_empty() => {
                    let i = rng(segs.len() as u64) as usize;
                    let w = g.update_weight(segs[i].0);
                    let first = g.split_segment(segs[i].0, w / 2, w - w / 2);
                    segs.insert(i, first);
                    i
                }
                2 if segs.len() > 1 => {
                    // Ship a prefix.
                    let k = 1 + rng(segs.len() as u64 - 1) as usize;
                    let keep = segs.get(k).map(|s| s.1);
                    g.drop_chain(segs[0].1, keep, &mut isolated);
                    segs.drain(..k);
                    for q in isolated.drain(..) {
                        if g.query_alive(q) {
                            g.remove_query(q);
                        }
                    }
                    continue;
                }
                _ => {
                    let after = segs.last().map(|s| s.1);
                    segs.push(g.append_segment(after, 1 + rng(1_000)));
                    segs.len() - 1
                }
            };
            let w = 1 + rng(600);
            let q = g.add_query(w);
            g.attach(segs[at].1, q);
            if g.solve_query_membership(q) {
                retained.push_back((g.retain_query(q), w));
                if retained.len() > 64 {
                    let (q, w) = retained.pop_front().unwrap();
                    if g.query_alive(q) {
                        g.release_query(q, w);
                    }
                }
            } else {
                g.remove_query(q);
            }
            if segs.len() > 32 {
                g.merge_segments(segs[0].0, segs[15].0);
                segs.drain(1..16);
            }
            let live = g.live_updates() + g.live_queries() + g.live_inf_edges();
            let held = g.net.edge_count();
            assert!(
                held <= 5 * live + 64,
                "step {step}: {held} edges for {live} live"
            );
            assert!(g.pooled_capacity() <= (1024 + 2 * 256) * POOLED_CAPACITY);
        }
        g.check().unwrap();
    }
}
