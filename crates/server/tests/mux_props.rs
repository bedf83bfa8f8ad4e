//! Property tests for the router's multiplexed data plane
//! ([`delta_server::mux`]): arbitrary interleavings of tagged node
//! replies across links must complete exactly the right fan-out with
//! replies at the right item positions; duplicate or unknown
//! correlation ids must be rejected (the backend turns that rejection
//! into a typed protocol error that kills the link, never a
//! misdelivered answer); and a link dying mid-flight must fail only
//! the fan-outs that had sub-requests pending on that node.

use delta_server::mux::{
    shape_response, Completion, Correlator, FanoutTable, MergeState, ReplyKind, SubEntry,
};
use delta_server::{error_code, BatchItem, BatchReply, NodeOp, Response};
use delta_storage::ObjectId;
use delta_workload::UpdateEvent;
use proptest::prelude::*;

/// One fan-out to open: the owning client connection, an optional
/// client correlation id to echo, and `(node, n_ops)` sub-requests
/// (nodes distinct).
#[derive(Debug, Clone)]
struct FanoutSpec {
    conn: usize,
    corr: Option<u64>,
    subs: Vec<(usize, usize)>,
}

fn fanout_spec(n_nodes: usize) -> impl Strategy<Value = FanoutSpec> {
    (
        0..4usize,
        prop::option::of(0u64..u64::MAX),
        prop::collection::vec((0..n_nodes, 1..4usize), 1..=n_nodes),
    )
        .prop_map(|(conn, corr, mut subs)| {
            // One sub per node at most — a fan-out sends each node one
            // coalesced NodeOps frame.
            subs.sort_by_key(|&(node, _)| node);
            subs.dedup_by_key(|&mut (node, _)| node);
            FanoutSpec { conn, corr, subs }
        })
}

fn cluster() -> impl Strategy<Value = (usize, Vec<FanoutSpec>, u64)> {
    (2..5usize).prop_flat_map(|n_nodes| {
        (
            Just(n_nodes),
            prop::collection::vec(fanout_spec(n_nodes), 1..8),
            (0u64..u64::MAX),
        )
    })
}

/// Deterministic Fisher–Yates driven by a seeded LCG, so proptest can
/// shrink the interleaving through the seed.
fn shuffle<T>(items: &mut [T], mut seed: u64) {
    for i in (1..items.len()).rev() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        items.swap(i, (seed >> 33) as usize % (i + 1));
    }
}

/// Opens every spec'd fan-out in `table` and returns the sub-requests
/// to deliver: `(node, entry, replies)` per sub, with globally unique
/// `(shard, version)` payloads so a misrouted reply is detectable.
fn open_fanouts(
    table: &mut FanoutTable,
    specs: &[FanoutSpec],
) -> Vec<(usize, SubEntry, Vec<BatchReply>)> {
    let mut wire = Vec::new();
    let mut unique = 0u64;
    for spec in specs {
        let n_items: usize = spec.subs.iter().map(|&(_, n)| n).sum();
        let fanout = table.begin(
            spec.conn,
            spec.corr,
            ReplyKind::Batch,
            MergeState::new(n_items),
        );
        let mut item = 0;
        for &(node, n_ops) in &spec.subs {
            table.register_sub(fanout, node);
            let mut ops = Vec::new();
            let mut items = Vec::new();
            let mut replies = Vec::new();
            for _ in 0..n_ops {
                ops.push(NodeOp {
                    shard: node as u16,
                    item: BatchItem::Update(UpdateEvent {
                        seq: unique,
                        object: ObjectId(item as u32),
                        bytes: 0,
                    }),
                });
                items.push(item);
                replies.push(BatchReply::Update {
                    shard: (unique >> 32) as u16,
                    version: unique,
                });
                item += 1;
                unique += 1;
            }
            wire.push((
                node,
                SubEntry {
                    fanout,
                    ops,
                    items,
                    retries: 0,
                    sent_at: std::time::Instant::now(),
                },
                replies,
            ));
        }
    }
    wire
}

/// Unwraps an optional `Tagged` envelope, asserting the echoed id.
fn untag(response: Response, want_corr: Option<u64>) -> Response {
    match (response, want_corr) {
        (Response::Tagged { corr, inner }, Some(want)) => {
            assert_eq!(corr, want, "echoed correlation id");
            *inner
        }
        (Response::Tagged { corr, .. }, None) => {
            panic!("untagged request answered with corr {corr}")
        }
        (inner, None) => inner,
        (inner, Some(want)) => panic!("tagged request {want} answered bare: {inner:?}"),
    }
}

/// One rule for repeated errors on both tiers: an item keeps the first
/// error it is given, whether it came from a shard's reply or was
/// poisoned before any op ran, and an error outranks the sub-queries
/// other shards served.
#[test]
fn the_first_error_of_an_item_wins() {
    let violated = |shard: u16| BatchReply::Error {
        code: error_code::CONTRACT_VIOLATED,
        message: format!("shard {shard}: violated"),
    };
    let served = BatchReply::Query {
        shards_touched: 1,
        local_answers: 1,
        shipped: 0,
    };
    let mut merge = MergeState::new(2);
    merge.expect_query(0, 3);
    for reply in [served.clone(), violated(1), violated(3), served] {
        merge.absorb(reply, 0).expect("item 0 is a query");
    }
    merge.poison(1, error_code::UNKNOWN_OBJECT, "unknown".to_string());
    merge.poison(1, error_code::ALREADY_APPLIED, "fenced".to_string());
    assert_eq!(
        shape_response(&ReplyKind::Batch, &mut merge),
        Response::BatchOk(vec![
            violated(1),
            BatchReply::Error {
                code: error_code::UNKNOWN_OBJECT,
                message: "unknown".to_string(),
            },
        ])
    );
}

proptest! {
    /// Any interleaving of sub-replies across nodes completes each
    /// fan-out exactly once — after its last sub, for its own
    /// connection, echoing its own correlation id — with every item
    /// reply at the position its op came from.
    #[test]
    fn interleaved_replies_complete_the_right_fanout((n_nodes, specs, seed) in cluster()) {
        let mut table = FanoutTable::new(n_nodes);
        let mut wire = open_fanouts(&mut table, &specs);
        shuffle(&mut wire, seed);

        let mut remaining: Vec<usize> = specs.iter().map(|s| s.subs.len()).collect();
        let mut done: Vec<Option<Completion>> = specs.iter().map(|_| None).collect();
        for (node, entry, replies) in wire {
            let fanout = entry.fanout;
            let completion = table.absorb(&entry, node, replies);
            remaining[fanout] -= 1;
            match completion {
                Some(c) => {
                    prop_assert_eq!(remaining[fanout], 0, "completed before its last sub");
                    prop_assert_eq!(c.fanout, fanout);
                    prop_assert!(done[fanout].is_none(), "completed twice");
                    done[fanout] = Some(c);
                }
                None => prop_assert!(remaining[fanout] > 0, "last sub did not complete"),
            }
        }
        prop_assert!(table.is_empty(), "all fan-outs settled");

        let mut unique = 0u64;
        for (spec, done) in specs.iter().zip(done) {
            let c = done.expect("every fan-out completes");
            prop_assert_eq!(c.conn, spec.conn, "delivered to the owning connection");
            let response = untag(c.result.expect("clean completion"), spec.corr);
            let Response::BatchOk(replies) = response else {
                return Err(TestCaseError::fail(format!("not a batch reply: {response:?}")));
            };
            // Reply k must be the payload op k carried — demuxed to the
            // right fan-out AND merged at the right item position.
            for reply in replies {
                prop_assert_eq!(
                    reply,
                    BatchReply::Update { shard: (unique >> 32) as u16, version: unique },
                    "reply misplaced within the fan-out"
                );
                unique += 1;
            }
        }
    }

    /// A correlation id completes exactly once: the first completion
    /// returns the issued purpose, a duplicate returns `None`, and an
    /// id never issued returns `None` — the backend maps both `None`s
    /// to a typed protocol error that kills the link, so a broken node
    /// can never smuggle a reply into someone else's fan-out.
    #[test]
    fn duplicate_and_unknown_correlation_ids_are_rejected(
        n in 1..40usize,
        seed in (0u64..u64::MAX),
        probe in (0u64..u64::MAX),
    ) {
        let mut pending: Correlator<usize> = Correlator::new();
        let mut ids: Vec<(u64, usize)> =
            (0..n).map(|value| (pending.issue(value), value)).collect();
        prop_assert_eq!(pending.in_flight(), n);

        shuffle(&mut ids, seed);
        for &(corr, value) in &ids {
            prop_assert_eq!(pending.complete(corr), Some(value), "first completion");
            prop_assert_eq!(pending.complete(corr), None, "duplicate rejected");
        }
        prop_assert!(pending.is_empty());
        prop_assert_eq!(pending.complete(probe), None, "unknown id rejected");
    }

    /// A link dying mid-flight fails exactly the fan-outs that still
    /// had sub-requests pending on that node — typed
    /// `NODE_UNAVAILABLE`, delivered once — while fan-outs with no
    /// pending sub there (including ones whose sub on the dying node
    /// already answered) complete cleanly, straggler replies swallowed.
    #[test]
    fn link_death_fails_only_fanouts_with_subs_on_that_node(
        (n_nodes, specs, seed) in cluster(),
        die_at_frac in 0.0..1.0f64,
        dead_node_pick in (0u64..u64::MAX),
    ) {
        let dead_node = (dead_node_pick % n_nodes as u64) as usize;
        let mut table = FanoutTable::new(n_nodes);
        let mut wire = open_fanouts(&mut table, &specs);
        shuffle(&mut wire, seed);
        let die_at = (wire.len() as f64 * die_at_frac) as usize;

        let mut done: Vec<Option<Result<Response, std::io::Error>>> =
            specs.iter().map(|_| None).collect();
        let record = |c: Completion, done: &mut Vec<Option<_>>| {
            assert!(done[c.fanout].is_none(), "fan-out completed twice");
            done[c.fanout] = Some(c.result);
        };
        // Whether each fan-out still owes the dead node a reply when
        // the link dies: subs absorbed before `die_at` no longer count.
        let mut owes_dead: Vec<bool> = specs.iter().map(|_| false).collect();
        for (node, entry, _) in &wire[die_at..] {
            owes_dead[entry.fanout] |= *node == dead_node;
        }

        for (node, entry, replies) in wire.drain(..die_at) {
            if let Some(c) = table.absorb(&entry, node, replies) {
                record(c, &mut done);
            }
        }
        // The link dies: the backend drains its correlator and fails
        // every pending sub on it; replies already demuxed stand.
        for (node, entry, _) in wire.iter().filter(|(node, ..)| *node == dead_node) {
            if let Some(c) = table.fail_sub(entry, *node, "connection reset") {
                record(c, &mut done);
            }
        }
        // Every other link keeps answering; the dead fan-outs' other
        // subs arrive as stragglers and must be swallowed.
        for (node, entry, replies) in wire {
            if node == dead_node {
                continue;
            }
            if let Some(c) = table.absorb(&entry, node, replies) {
                record(c, &mut done);
            }
        }

        prop_assert!(table.is_empty(), "all fan-outs settled");
        for ((spec, owed), result) in specs.iter().zip(owes_dead).zip(done) {
            let result = result.expect("every fan-out completes exactly once");
            let response = untag(result.expect("node loss never kills the client"), spec.corr);
            if owed {
                let Response::Error { code, message } = response else {
                    return Err(TestCaseError::fail(format!(
                        "fan-out owed the dead node a reply but got {response:?}"
                    )));
                };
                prop_assert_eq!(code, error_code::NODE_UNAVAILABLE, "{}", message);
                prop_assert!(
                    message.contains(&format!("node {dead_node} unavailable")),
                    "error names the lost node: {}",
                    message
                );
            } else {
                prop_assert!(
                    matches!(response, Response::BatchOk(_)),
                    "untouched fan-out must complete cleanly: {:?}",
                    response
                );
            }
        }
    }
}
