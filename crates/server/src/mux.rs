//! The correlation mux behind the router's shared node links, and the
//! split → merge → shape path every event frame takes on both tiers.
//!
//! This module is the **socket-free** state machine of the router's
//! data plane: everything about correlation ids, per-client
//! fan-out accounting and reply merging, with no I/O anywhere — so the
//! property tests can drive arbitrary interleavings of tagged replies
//! without a cluster.
//!
//! Three layers:
//!
//! * [`Correlator`] — issues monotonically increasing correlation ids
//!   and matches replies back to the value parked under each id. The
//!   windowed [`crate::client::PipelinedClient`] and every shared node
//!   link use the same implementation, so the client side and the
//!   router side of the `Tagged` envelope cannot drift apart.
//! * [`split_items`], [`MergeState`] and [`shape_response`] — the one
//!   serving path. A `Query`, `Update`, `Sql` or `Batch` frame becomes a
//!   list of items with a [`ReplyKind`]; the splitter cuts each item
//!   into per-shard sub-events; per-op [`BatchReply`]s merge back into
//!   per-item replies (query sub-replies accumulate, update replies
//!   set, an error poisons its item only); and the merge is shaped
//!   into the client-facing response. The router and the node run the
//!   same three functions, so a routed frame is answered exactly as one
//!   standalone server answers it.
//! * [`FanoutTable`] — one entry per suspended client request: which
//!   connection owes the response, how many node sub-requests are still
//!   outstanding (and on which nodes), and the merge in progress. A
//!   fan-out completes exactly once — on the last reply, on the first
//!   failure, or on its node deadline — and stragglers for an
//!   already-completed fan-out are swallowed silently.
//!
//! ## Why correlation ids ride `Tagged`
//!
//! The protocol already has a pipelining envelope — `Request::Tagged` /
//! `Response::Tagged`, v4 — whose only contract is "the reply carries
//! the same id". Multiplexing many client connections over one node
//! link needs precisely that contract and nothing more, so the mux
//! reuses the envelope instead of minting a second framing layer: no
//! wire version bump, and a node cannot tell a router's shared link
//! from a deep pipelined client.

use crate::partition::Partitioner;
use crate::protocol::{error_code, BatchItem, BatchReply, NodeOp, Response, SqlStage};
use delta_query::{QueryCompiler, QueryError};
use delta_reactor::TimerKey;
use delta_storage::{ObjectCatalog, ObjectId};
use delta_workload::{QueryEvent, QueryKind};
use std::collections::HashMap;
use std::io;
use std::time::Instant;

/// Issues correlation ids and matches replies back to the value parked
/// under each id. Ids are monotonically increasing and never reused
/// within one correlator, so a duplicate or unknown id in a reply is
/// always detectable (and is a protocol error, not a guess).
#[derive(Debug)]
pub struct Correlator<T> {
    next: u64,
    pending: HashMap<u64, T>,
}

impl<T> Default for Correlator<T> {
    fn default() -> Self {
        Correlator::new()
    }
}

impl<T> Correlator<T> {
    /// An empty correlator starting at id 0.
    pub fn new() -> Correlator<T> {
        Correlator {
            next: 0,
            pending: HashMap::new(),
        }
    }

    /// The id the next [`Correlator::issue`] call will assign — for
    /// callers that must encode the id into a frame before committing
    /// the value.
    pub fn next_id(&self) -> u64 {
        self.next
    }

    /// Parks `value` under a fresh correlation id and returns the id.
    pub fn issue(&mut self, value: T) -> u64 {
        let corr = self.next;
        self.next += 1;
        self.pending.insert(corr, value);
        corr
    }

    /// Matches a reply: takes the value parked under `corr`, or `None`
    /// for an unknown or already-completed id (the caller must treat
    /// that as a protocol violation by the peer).
    pub fn complete(&mut self, corr: u64) -> Option<T> {
        self.pending.remove(&corr)
    }

    /// Ids still awaiting replies.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// True when no id awaits a reply.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Drains every pending entry (link death: every in-flight request
    /// fails at once). Order is unspecified.
    pub fn drain(&mut self) -> Vec<(u64, T)> {
        self.pending.drain().collect()
    }
}

/// Per-item accumulator for a query that fanned out to several shards:
/// how many sub-queries were sent and what came back so far.
#[derive(Clone, Copy, Debug, Default)]
pub struct QueryAcc {
    /// Sub-queries the split produced.
    pub sent: u16,
    /// Sub-queries answered from shard caches.
    pub local: u16,
    /// Sub-queries shipped to the repository.
    pub shipped: u16,
}

/// One client item under merge: its resolved reply, if any, and, for a
/// query, the tally of its sub-replies.
#[derive(Debug, Default)]
struct ItemMerge {
    reply: Option<BatchReply>,
    acc: Option<QueryAcc>,
}

impl ItemMerge {
    fn resolve(self) -> BatchReply {
        match (self.reply, self.acc) {
            (Some(r), _) => r,
            (None, Some(acc)) => BatchReply::Query {
                shards_touched: acc.sent,
                local_answers: acc.local,
                shipped: acc.shipped,
            },
            // Every valid item declares itself a query or gets a reply;
            // fail loudly if that ever breaks rather than fabricate one.
            (None, None) => BatchReply::Error {
                code: error_code::BAD_FRAME,
                message: "item produced no outcome".to_string(),
            },
        }
    }
}

/// Merges per-op replies back into per-item replies, on the node and at
/// the router alike: query sub-replies accumulate into a [`QueryAcc`],
/// an update reply sets its item, and an error poisons its item only,
/// taking precedence over sub-queries other shards or nodes served.
///
/// **The first error wins.** Once an item holds an error, later errors
/// for it (a second shard's contract violation, a second shard's
/// fence) are dropped. Ops merge in shard order on a node, so a
/// node's reply names the lowest failing shard; the router merges node
/// replies in arrival order.
#[derive(Debug)]
pub struct MergeState {
    items: Vec<ItemMerge>,
}

impl MergeState {
    /// A merge over `n_items` client items, none resolved yet.
    pub fn new(n_items: usize) -> MergeState {
        MergeState {
            items: (0..n_items).map(|_| ItemMerge::default()).collect(),
        }
    }

    /// Starts a fresh merge over `n_items` items in this merge's
    /// storage, so a connection can reuse one merge for every frame.
    pub(crate) fn reset(&mut self, n_items: usize) {
        self.items.clear();
        self.items.resize_with(n_items, ItemMerge::default);
    }

    /// Resolves `item` to an error (unknown object, fenced event),
    /// unless it already holds one.
    pub fn poison(&mut self, item: usize, code: u16, message: String) {
        let reply = &mut self.items[item].reply;
        if !matches!(reply, Some(BatchReply::Error { .. })) {
            *reply = Some(BatchReply::Error { code, message });
        }
    }

    /// Declares `item` a query that split into `sent` sub-queries, so
    /// the final reply can report the fan-out width even when every
    /// sub-reply is absorbed.
    pub fn expect_query(&mut self, item: usize, sent: u16) {
        self.items[item].acc = Some(QueryAcc {
            sent,
            local: 0,
            shipped: 0,
        });
    }

    /// Absorbs one per-op reply for `item`. A query reply for an item
    /// that never declared itself a query is a node protocol violation
    /// and fails the whole request.
    pub fn absorb(&mut self, reply: BatchReply, item: usize) -> io::Result<()> {
        match reply {
            BatchReply::Query {
                local_answers,
                shipped,
                ..
            } => {
                let Some(acc) = self.items[item].acc.as_mut() else {
                    return Err(io::Error::other(
                        "node sent a query reply for a non-query item",
                    ));
                };
                acc.local += local_answers;
                acc.shipped += shipped;
            }
            BatchReply::Update { shard, version } => {
                self.items[item].reply = Some(BatchReply::Update { shard, version });
            }
            BatchReply::Error { code, message } => self.poison(item, code, message),
        }
        Ok(())
    }
}

/// The one item splitter both tiers run. An item naming an object
/// outside `catalog` is poisoned with `UNKNOWN_OBJECT`; a query declares
/// its split width; and every `(shard, item, sub-event)` goes to `emit`
/// in item order, so each shard sees its sub-events in item order. The
/// router groups them per owning node, the node per shard.
pub(crate) fn split_items(
    map: &dyn Partitioner,
    catalog: &ObjectCatalog,
    items: impl IntoIterator<Item = BatchItem>,
    merge: &mut MergeState,
    mut emit: impl FnMut(usize, usize, BatchItem),
) {
    let unknown = |o: ObjectId| format!("object {o} is outside the catalog");
    for (i, item) in items.into_iter().enumerate() {
        match item {
            BatchItem::Query(q) => {
                if let Some(&bad) = q.objects.iter().find(|o| o.index() >= catalog.len()) {
                    merge.poison(i, error_code::UNKNOWN_OBJECT, unknown(bad));
                    continue;
                }
                let subs = map.split_query(&q, catalog);
                merge.expect_query(i, subs.len() as u16);
                for (s, sub) in subs {
                    emit(s, i, BatchItem::Query(sub));
                }
            }
            BatchItem::Update(u) => {
                if u.object.index() >= catalog.len() {
                    merge.poison(i, error_code::UNKNOWN_OBJECT, unknown(u.object));
                    continue;
                }
                let (s, local) = map.split_update(&u);
                emit(s, i, BatchItem::Update(local));
            }
        }
    }
}

/// How a completed merge is shaped into the client-facing [`Response`].
#[derive(Clone, Debug)]
pub enum ReplyKind {
    /// A lone `Query`/`Update` request: the single item reply converts
    /// to `QueryOk`/`UpdateOk`/`Error`.
    Single,
    /// A `Batch` (or a node's `NodeOps`) request: the item replies ship
    /// as `BatchOk`.
    Batch,
    /// A compiled SQL request: the single query reply converts to
    /// `SqlOk` carrying the compile-time facts captured here.
    Sql {
        /// Size of the compiled access set.
        objects: u32,
        /// Estimated result size in bytes.
        result_bytes: u64,
        /// Currency requirement parsed from the text.
        tolerance: u64,
        /// Workload classification of the query.
        kind: QueryKind,
    },
}

/// The SQL compile step both tiers run: the compiled query event with
/// the [`ReplyKind::Sql`] that shapes its reply, or the typed
/// `SqlRejected` response naming the failing stage.
pub(crate) fn compile_sql(
    compiler: &QueryCompiler,
    seq: u64,
    sql: &str,
) -> Result<(QueryEvent, ReplyKind), Response> {
    let compiled = compiler.compile(sql).map_err(|e| match e {
        QueryError::Parse(e) => {
            let span = e.span();
            Response::SqlRejected {
                stage: SqlStage::Parse,
                span_start: span.start as u32,
                span_end: span.end as u32,
                message: e.to_string(),
            }
        }
        QueryError::Analyze(e) => Response::SqlRejected {
            stage: SqlStage::Analyze,
            span_start: 0,
            span_end: 0,
            message: e.to_string(),
        },
    })?;
    let objects = compiled.objects.len() as u32;
    let event = compiled.into_event(seq);
    let kind = ReplyKind::Sql {
        objects,
        result_bytes: event.result_bytes,
        tolerance: event.tolerance,
        kind: event.kind,
    };
    Ok((event, kind))
}

/// Converts a single-item reply into the lockstep response shape.
pub fn single_reply(reply: BatchReply) -> Response {
    match reply {
        BatchReply::Query {
            shards_touched,
            local_answers,
            shipped,
        } => Response::QueryOk {
            shards_touched,
            local_answers,
            shipped,
        },
        BatchReply::Update { shard, version } => Response::UpdateOk { shard, version },
        BatchReply::Error { code, message } => Response::Error { code, message },
    }
}

/// Finishes a merge into one reply per item, in item order, and shapes
/// them into the client-facing response for `kind`. The merge is left
/// empty.
pub fn shape_response(kind: &ReplyKind, merge: &mut MergeState) -> Response {
    let mut replies = merge.items.drain(..).map(ItemMerge::resolve);
    let mut lone = || single_reply(replies.next().expect("a lone frame merges one item"));
    match kind {
        ReplyKind::Batch => Response::BatchOk(replies.collect()),
        ReplyKind::Single => lone(),
        ReplyKind::Sql {
            objects,
            result_bytes,
            tolerance,
            kind,
        } => match lone() {
            Response::QueryOk {
                shards_touched,
                local_answers,
                shipped,
            } => Response::SqlOk {
                shards_touched,
                local_answers,
                shipped,
                objects: *objects,
                result_bytes: *result_bytes,
                tolerance: *tolerance,
                kind: *kind,
            },
            other => other,
        },
    }
}

/// One node sub-request in flight on a shared link: which fan-out it
/// belongs to, the ops it carries (kept for epoch bounces and reply
/// validation), and which client item each op came from.
#[derive(Debug)]
pub struct SubEntry {
    /// Key of the owning fan-out in the [`FanoutTable`].
    pub fanout: usize,
    /// The pre-split ops, in client order.
    pub ops: Vec<NodeOp>,
    /// `items[k]` — client-item index op `k` came from.
    pub items: Vec<usize>,
    /// `WrongEpoch` bounces this sub has survived.
    pub retries: usize,
    /// When the sub was enqueued, for the per-node fan-out histogram.
    pub sent_at: Instant,
}

/// What a correlation id on a node link is waiting for.
#[derive(Debug)]
pub enum Purpose {
    /// An epoch handshake pipelined ahead of ops.
    Hello,
    /// A `NodeOps` sub-request of some client fan-out.
    Sub(SubEntry),
}

/// A finished fan-out handed back to the owning client connection.
#[derive(Debug)]
pub struct Completion {
    /// Key of the client connection that owes the response.
    pub conn: usize,
    /// Fan-out key, so the connection can match its suspended slot.
    pub fanout: usize,
    /// The node-deadline timer still armed for this fan-out, if any —
    /// the caller owns the wheel and must cancel it.
    pub timer: Option<TimerKey>,
    /// `Ok` is a response frame (typed errors included); `Err` — a
    /// node protocol violation or an error reply that is not a typed
    /// unavailability — kills the client connection.
    pub result: Result<Response, io::Error>,
}

/// One suspended client request fanned out over the cluster.
#[derive(Debug)]
struct Fanout {
    conn: usize,
    /// Client-side correlation id to echo (`Tagged` request), if any.
    corr: Option<u64>,
    kind: ReplyKind,
    merge: MergeState,
    /// Sub-requests still awaiting replies.
    outstanding: usize,
    /// Outstanding sub-requests per node.
    per_node: Vec<u32>,
    timer: Option<TimerKey>,
    /// Completed early (failure, deadline, or its connection closed);
    /// lingering only to swallow straggler replies.
    dead: bool,
}

/// All suspended fan-outs of one event loop, keyed by a slab-style
/// index that client connections park in their pending slots.
#[derive(Debug)]
pub struct FanoutTable {
    n_nodes: usize,
    fanouts: HashMap<usize, Fanout>,
    next_key: usize,
    /// Live (not dead) fan-outs, for telemetry.
    live: usize,
}

impl FanoutTable {
    /// An empty table for a cluster of `n_nodes` nodes.
    pub fn new(n_nodes: usize) -> FanoutTable {
        FanoutTable {
            n_nodes,
            fanouts: HashMap::new(),
            next_key: 0,
            live: 0,
        }
    }

    /// Fan-outs still in the table (including dead ones swallowing
    /// stragglers).
    pub fn len(&self) -> usize {
        self.fanouts.len()
    }

    /// True when no fan-out is pending.
    pub fn is_empty(&self) -> bool {
        self.fanouts.is_empty()
    }

    /// Fan-outs that still owe their client a response.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Opens a fan-out for client connection `conn` (echoing `corr` if
    /// the request was tagged). Returns its key; sub-requests register
    /// with [`FanoutTable::register_sub`].
    pub fn begin(
        &mut self,
        conn: usize,
        corr: Option<u64>,
        kind: ReplyKind,
        merge: MergeState,
    ) -> usize {
        let key = self.next_key;
        self.next_key += 1;
        self.fanouts.insert(
            key,
            Fanout {
                conn,
                corr,
                kind,
                merge,
                outstanding: 0,
                per_node: vec![0; self.n_nodes],
                timer: None,
                dead: false,
            },
        );
        self.live += 1;
        key
    }

    /// Records one sub-request headed for `node`.
    pub fn register_sub(&mut self, fanout: usize, node: usize) {
        let f = self.fanouts.get_mut(&fanout).expect("live fanout");
        f.outstanding += 1;
        f.per_node[node] += 1;
    }

    /// Arms the node-deadline timer handle for `fanout`.
    pub fn set_timer(&mut self, fanout: usize, timer: TimerKey) {
        if let Some(f) = self.fanouts.get_mut(&fanout) {
            f.timer = Some(timer);
        }
    }

    /// Whether `fanout` still owes its client a response.
    pub fn is_live(&self, fanout: usize) -> bool {
        self.fanouts.get(&fanout).map(|f| !f.dead).unwrap_or(false)
    }

    /// Sub-requests still outstanding for `fanout` (0 if unknown).
    pub fn outstanding(&self, fanout: usize) -> usize {
        self.fanouts
            .get(&fanout)
            .map(|f| f.outstanding)
            .unwrap_or(0)
    }

    /// Moves one outstanding sub from `from_node` onto `to_nodes` (one
    /// new sub per listed node) after a `WrongEpoch` re-split.
    pub fn retarget(&mut self, fanout: usize, from_node: usize, to_nodes: &[usize]) {
        let Some(f) = self.fanouts.get_mut(&fanout) else {
            return;
        };
        f.per_node[from_node] -= 1;
        f.outstanding -= 1;
        for &node in to_nodes {
            f.per_node[node] += 1;
            f.outstanding += 1;
        }
    }

    /// Absorbs a successful `BatchOk` reply for `entry` from `node`.
    /// Returns the completion if this was the last outstanding sub of a
    /// live fan-out (or a fatal completion on a malformed reply).
    pub fn absorb(
        &mut self,
        entry: &SubEntry,
        node: usize,
        replies: Vec<BatchReply>,
    ) -> Option<Completion> {
        if replies.len() != entry.ops.len() {
            let err = io::Error::other(format!(
                "node {node} answered {} replies for {} ops",
                replies.len(),
                entry.ops.len()
            ));
            let done = self.kill(entry.fanout, Err(err));
            self.discount(entry.fanout, node);
            return done;
        }
        if let Some(f) = self.fanouts.get_mut(&entry.fanout) {
            if !f.dead {
                for (reply, &item) in replies.into_iter().zip(&entry.items) {
                    if let Err(e) = f.merge.absorb(reply, item) {
                        let done = self.kill(entry.fanout, Err(e));
                        self.discount(entry.fanout, node);
                        return done;
                    }
                }
            }
        }
        self.settle(entry.fanout, node)
    }

    /// Fails `entry` with a typed node-unavailable error: the client
    /// connection survives and gets an [`error_code::NODE_UNAVAILABLE`]
    /// frame. Fan-outs with no sub on the failed node are untouched.
    pub fn fail_sub(&mut self, entry: &SubEntry, node: usize, detail: &str) -> Option<Completion> {
        let typed = Response::Error {
            code: error_code::NODE_UNAVAILABLE,
            message: format!("node {node} unavailable: {detail}"),
        };
        let done = self.kill(entry.fanout, Ok(typed));
        self.discount(entry.fanout, node);
        done
    }

    /// Fails `entry` fatally (`Err` kills the client connection): the
    /// node answered with an error or a reply shape no merge can use.
    pub fn fatal_sub(
        &mut self,
        entry: &SubEntry,
        node: usize,
        err: io::Error,
    ) -> Option<Completion> {
        let done = self.kill(entry.fanout, Err(err));
        self.discount(entry.fanout, node);
        done
    }

    /// Completes `fanout` early with `result` (used for enqueue
    /// failures before any reply and for node deadlines). Stragglers
    /// are still swallowed as they arrive.
    pub fn kill(
        &mut self,
        fanout: usize,
        result: Result<Response, io::Error>,
    ) -> Option<Completion> {
        let f = self.fanouts.get_mut(&fanout)?;
        if f.dead {
            return None;
        }
        f.dead = true;
        self.live -= 1;
        let timer = f.timer.take();
        let conn = f.conn;
        let result = result.map(|r| wrap_corr(f.corr, r));
        if f.outstanding == 0 {
            self.fanouts.remove(&fanout);
        }
        Some(Completion {
            conn,
            fanout,
            timer,
            result,
        })
    }

    /// Drops one outstanding sub on `node` without producing a
    /// completion (the fan-out already completed another way).
    pub fn discount(&mut self, fanout: usize, node: usize) {
        let Some(f) = self.fanouts.get_mut(&fanout) else {
            return;
        };
        f.per_node[node] -= 1;
        f.outstanding -= 1;
        if f.outstanding == 0 && f.dead {
            self.fanouts.remove(&fanout);
        }
    }

    /// Settles one answered sub on `node`: the last one completes a
    /// live fan-out with its merged response.
    fn settle(&mut self, fanout: usize, node: usize) -> Option<Completion> {
        let f = self.fanouts.get_mut(&fanout)?;
        f.per_node[node] -= 1;
        f.outstanding -= 1;
        if f.outstanding > 0 {
            return None;
        }
        let mut f = self.fanouts.remove(&fanout).expect("present");
        if f.dead {
            return None;
        }
        self.live -= 1;
        Some(Completion {
            conn: f.conn,
            fanout,
            timer: f.timer,
            result: Ok(wrap_corr(f.corr, shape_response(&f.kind, &mut f.merge))),
        })
    }

    /// Fires the node deadline for `fanout`: completes it with a typed
    /// `NODE_UNAVAILABLE` naming the nodes still owing replies, and
    /// returns those nodes so the caller can kill their links. `None`
    /// if the fan-out already completed.
    pub fn on_deadline(
        &mut self,
        fanout: usize,
        timeout: std::time::Duration,
    ) -> Option<(Completion, Vec<usize>)> {
        let f = self.fanouts.get(&fanout)?;
        if f.dead {
            return None;
        }
        let owing: Vec<usize> = f
            .per_node
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(n, _)| n)
            .collect();
        let names = owing
            .iter()
            .map(|n| format!("node {n}"))
            .collect::<Vec<_>>()
            .join(", ");
        let typed = Response::Error {
            code: error_code::NODE_UNAVAILABLE,
            message: format!("{names} unavailable: no reply within {timeout:?}"),
        };
        let done = self.kill(fanout, Ok(typed))?;
        Some((done, owing))
    }

    /// Abandons every fan-out owned by client connection `conn` (it
    /// closed), returning the deadline timers the caller must disarm.
    /// In-flight subs keep draining as stragglers.
    pub fn conn_closed(&mut self, conn: usize) -> Vec<TimerKey> {
        let mut timers = Vec::new();
        let keys: Vec<usize> = self
            .fanouts
            .iter()
            .filter(|(_, f)| f.conn == conn)
            .map(|(&k, _)| k)
            .collect();
        for key in keys {
            let f = self.fanouts.get_mut(&key).expect("listed key");
            if let Some(t) = f.timer.take() {
                timers.push(t);
            }
            if !f.dead {
                f.dead = true;
                self.live -= 1;
            }
            if f.outstanding == 0 {
                self.fanouts.remove(&key);
            }
        }
        timers
    }
}

/// Echoes the client's correlation id when the request came tagged.
pub fn wrap_corr(corr: Option<u64>, inner: Response) -> Response {
    match corr {
        Some(corr) => Response::Tagged {
            corr,
            inner: Box::new(inner),
        },
        None => inner,
    }
}
