//! Property tests for the wire codec: `decode ∘ encode = id` for every
//! request and response kind, and hostile inputs (truncated frames,
//! oversized lengths, bad enum tags, trailing bytes) always come back as
//! clean `io::Error`s — never panics, never bogus values.

use delta_core::EngineMetrics;
use delta_core::{Cost, CostLedger};
use delta_server::{
    BatchItem, BatchReply, HistogramSnapshot, NodeInfo, NodeOp, NodeRole, Request, Response,
    ShardStats, SqlStage, StatsSnapshot, TelemetrySnapshot,
};
use delta_storage::ObjectId;
use delta_workload::{QueryEvent, QueryKind, UpdateEvent};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn arb_kind() -> impl Strategy<Value = QueryKind> {
    prop::sample::select(vec![
        QueryKind::Cone,
        QueryKind::Range,
        QueryKind::SelfJoin,
        QueryKind::Aggregate,
        QueryKind::Scan,
        QueryKind::Selection,
    ])
}

fn arb_query() -> impl Strategy<Value = QueryEvent> {
    (
        0u64..u64::MAX,
        prop::collection::vec(0u32..1_000_000, 0..40),
        0u64..u64::MAX,
        0u64..100_000,
        arb_kind(),
    )
        .prop_map(|(seq, objects, result_bytes, tolerance, kind)| QueryEvent {
            seq,
            objects: objects.into_iter().map(ObjectId).collect(),
            result_bytes,
            tolerance,
            kind,
        })
}

fn arb_update() -> impl Strategy<Value = UpdateEvent> {
    (0u64..u64::MAX, 0u32..1_000_000, 0u64..u64::MAX).prop_map(|(seq, object, bytes)| UpdateEvent {
        seq,
        object: ObjectId(object),
        bytes,
    })
}

fn arb_sql_text() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        Just("SELECT ra FROM PhotoObj WHERE CIRCLE(185.0, 15.3, 0.5)".to_string()),
        proptest::string::pattern("[a-zA-Z0-9 _*(),.<>=']{0,200}"),
        // Non-ASCII UTF-8 must survive the byte-length prefix.
        Just("SELECT ★ FROM PhotoObj — ßky ÷ query".to_string()),
    ]
}

fn arb_item() -> impl Strategy<Value = BatchItem> {
    prop_oneof![
        arb_query().prop_map(BatchItem::Query),
        arb_update().prop_map(BatchItem::Update),
    ]
}

fn arb_plain_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        arb_query().prop_map(Request::Query),
        arb_update().prop_map(Request::Update),
        (0u64..u64::MAX, arb_sql_text()).prop_map(|(seq, sql)| Request::Sql { seq, sql }),
        prop::collection::vec(arb_item(), 0..12).prop_map(Request::Batch),
        Just(Request::Stats),
        Just(Request::Telemetry),
        Just(Request::Shutdown),
        // The replication vocabulary rides the same framing.
        (
            0u16..512,
            0u64..u64::MAX / 2,
            prop::collection::vec(arb_item(), 0..8)
        )
            .prop_map(|(shard, from_offset, items)| Request::Replicate {
                shard,
                from_offset,
                items,
            }),
        (0u16..512, prop::collection::vec(0u8..=255, 0..256))
            .prop_map(|(shard, state)| Request::ReplicaBootstrap { shard, state }),
        Just(Request::ReplicaStatus),
        (0u16..512, proptest::bool::ANY)
            .prop_map(|(shard, fence)| Request::Promote { shard, fence }),
        // The cluster vocabulary: handshake, pre-split ops and the
        // reshard verbs.
        (0u8..=255, 0u64..u64::MAX).prop_map(|(version, epoch)| Request::Hello { version, epoch }),
        prop::collection::vec((0u16..512, arb_item()), 0..8).prop_map(|ops| {
            Request::NodeOps(
                ops.into_iter()
                    .map(|(shard, item)| NodeOp { shard, item })
                    .collect(),
            )
        }),
        (0u16..512).prop_map(|shard| Request::DetachShard { shard }),
        (0u64..u64::MAX).prop_map(|epoch| Request::SetEpoch { epoch }),
        (0u16..512, 0u16..64).prop_map(|(shard, to_node)| Request::Reshard { shard, to_node }),
    ]
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        arb_plain_request(),
        (0u64..u64::MAX, arb_plain_request()).prop_map(|(corr, inner)| Request::Tagged {
            corr,
            inner: Box::new(inner),
        }),
    ]
}

fn arb_ledger() -> impl Strategy<Value = CostLedger> {
    (
        (0u64..u64::MAX / 4, 0u64..u64::MAX / 4, 0u64..u64::MAX / 4),
        (
            0u64..1_000_000,
            0u64..1_000_000,
            0u64..1_000_000,
            0u64..1_000_000,
            0u64..1_000_000,
        ),
    )
        .prop_map(|((q, u, l), (sq, la, us, lo, ev))| {
            let mut ledger = CostLedger::default();
            ledger.breakdown.query_ship = Cost(q);
            ledger.breakdown.update_ship = Cost(u);
            ledger.breakdown.load = Cost(l);
            ledger.shipped_queries = sq;
            ledger.local_answers = la;
            ledger.update_ships = us;
            ledger.loads = lo;
            ledger.evictions = ev;
            ledger
        })
}

fn arb_shard_stats() -> impl Strategy<Value = ShardStats> {
    (
        (0u16..256, proptest::string::pattern("[A-Za-z]{1,12}")),
        (
            0u64..u64::MAX,
            0u64..u64::MAX,
            0u64..u64::MAX,
            0u64..100_000,
        ),
        (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
        arb_ledger(),
    )
        .prop_map(
            |(
                (shard, policy),
                (queries, cache_capacity, cache_used, residents),
                (updates, tolerance_served, _),
                ledger,
            )| {
                ShardStats {
                    shard,
                    policy,
                    metrics: EngineMetrics {
                        ledger,
                        queries,
                        updates,
                        tolerance_served,
                        cache_capacity,
                        cache_used,
                        residents,
                    },
                }
            },
        )
}

/// Metric names as the registry produces them (dotted lowercase).
fn arb_metric_name() -> impl Strategy<Value = String> {
    proptest::string::pattern("[a-z0-9_.]{1,24}")
}

/// A valid sparse histogram snapshot: bucket indices in range and
/// strictly increasing — the canonical form `dec_telemetry` enforces.
fn arb_histogram_snapshot() -> impl Strategy<Value = HistogramSnapshot> {
    (
        prop::collection::btree_set(0u32..delta_telemetry::N_BUCKETS as u32, 0..8),
        prop::collection::vec(1u64..u64::MAX, 8),
        0u64..u64::MAX,
        0u64..u64::MAX,
        0u64..u64::MAX,
    )
        .prop_map(|(indices, counts, count, sum, max)| HistogramSnapshot {
            count,
            sum,
            max,
            buckets: indices.into_iter().zip(counts).collect(),
        })
}

/// Distinct metric names zipped with values (the vendored proptest has
/// no `btree_map`, so a sorted name set stands in — the codec accepts
/// any ordering, this just avoids duplicate keys).
fn arb_telemetry_snapshot() -> impl Strategy<Value = TelemetrySnapshot> {
    (
        (
            prop::collection::btree_set(arb_metric_name(), 0..5),
            prop::collection::vec(0u64..u64::MAX, 5),
        ),
        (
            prop::collection::btree_set(arb_metric_name(), 0..4),
            prop::collection::vec(0u64..u64::MAX, 4),
        ),
        (
            prop::collection::btree_set(arb_metric_name(), 0..4),
            prop::collection::vec(arb_histogram_snapshot(), 4),
        ),
    )
        .prop_map(|((cn, cv), (gn, gv), (hn, hv))| TelemetrySnapshot {
            counters: cn.into_iter().zip(cv).collect(),
            gauges: gn.into_iter().zip(gv).collect(),
            histograms: hn.into_iter().zip(hv).collect(),
        })
}

fn arb_batch_reply() -> impl Strategy<Value = BatchReply> {
    prop_oneof![
        (0u16..64, 0u16..64, 0u16..64).prop_map(|(shards_touched, local_answers, shipped)| {
            BatchReply::Query {
                shards_touched,
                local_answers,
                shipped,
            }
        }),
        (0u16..64, 0u64..u64::MAX)
            .prop_map(|(shard, version)| BatchReply::Update { shard, version }),
        (0u16..10, proptest::string::pattern("[ -~]{0,60}"))
            .prop_map(|(code, message)| { BatchReply::Error { code, message } }),
    ]
}

fn arb_node_info() -> impl Strategy<Value = NodeInfo> {
    (
        prop::sample::select(vec![
            NodeRole::Standalone,
            NodeRole::ClusterNode,
            NodeRole::Router,
        ]),
        (0u16..64, 1u16..64, 0u64..u64::MAX, 1u16..512),
        proptest::string::pattern("[a-z]{0,12}"),
        (0u64..u64::MAX, 0u64..u64::MAX),
        prop::collection::vec(0u16..512, 0..16),
    )
        .prop_map(
            |(
                role,
                (node, nodes, epoch, cluster_shards),
                partitioner,
                (catalog_objects, catalog_bytes),
                hosted,
            )| NodeInfo {
                role,
                node,
                nodes,
                epoch,
                cluster_shards,
                partitioner,
                catalog_objects,
                catalog_bytes,
                hosted,
            },
        )
}

fn arb_plain_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        (0u16..64, 0u16..64, 0u16..64).prop_map(|(shards_touched, local_answers, shipped)| {
            Response::QueryOk {
                shards_touched,
                local_answers,
                shipped,
            }
        }),
        (0u16..64, 0u64..u64::MAX)
            .prop_map(|(shard, version)| Response::UpdateOk { shard, version }),
        (
            (0u16..64, 0u16..64, 0u16..64),
            (0u32..100_000, 0u64..u64::MAX, 0u64..100_000, arb_kind()),
        )
            .prop_map(
                |(
                    (shards_touched, local_answers, shipped),
                    (objects, result_bytes, tolerance, kind),
                )| {
                    Response::SqlOk {
                        shards_touched,
                        local_answers,
                        shipped,
                        objects,
                        result_bytes,
                        tolerance,
                        kind,
                    }
                }
            ),
        (
            prop::sample::select(vec![SqlStage::Parse, SqlStage::Analyze]),
            0u32..10_000,
            0u32..10_000,
            proptest::string::pattern("[ -~]{0,80}"),
        )
            .prop_map(
                |(stage, span_start, span_end, message)| Response::SqlRejected {
                    stage,
                    span_start,
                    span_end,
                    message,
                }
            ),
        prop::collection::vec(arb_batch_reply(), 0..12).prop_map(Response::BatchOk),
        prop::collection::vec(arb_shard_stats(), 0..6)
            .prop_map(|shards| Response::StatsOk(StatsSnapshot { shards })),
        arb_telemetry_snapshot().prop_map(Response::TelemetryOk),
        Just(Response::ShutdownOk),
        (0u16..10, proptest::string::pattern("[ -~]{0,60}"))
            .prop_map(|(code, message)| Response::Error { code, message }),
        // The cluster and replication vocabulary.
        arb_node_info().prop_map(Response::HelloOk),
        (0u16..512, prop::collection::vec(0u8..=255, 0..256))
            .prop_map(|(shard, state)| Response::ShardState { shard, state }),
        (0u64..u64::MAX).prop_map(|epoch| Response::EpochOk { epoch }),
        (0u64..u64::MAX).prop_map(|epoch| Response::ReshardOk { epoch }),
        (0u64..u64::MAX).prop_map(|epoch| Response::WrongEpoch { epoch }),
        (0u16..512, 0u64..u64::MAX)
            .prop_map(|(shard, offset)| Response::ReplicaOk { shard, offset }),
        prop::collection::vec((0u16..512, 0u64..u64::MAX), 0..8)
            .prop_map(Response::ReplicaStatusOk),
        (0u16..512, 0u64..u64::MAX)
            .prop_map(|(shard, offset)| Response::PromoteOk { shard, offset }),
    ]
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        arb_plain_response(),
        (0u64..u64::MAX, arb_plain_response()).prop_map(|(corr, inner)| Response::Tagged {
            corr,
            inner: Box::new(inner),
        }),
    ]
}

proptest! {
    /// `decode ∘ encode = id` over every request kind, tagged included.
    #[test]
    fn request_round_trips(req in arb_request()) {
        let encoded = req.encode();
        let decoded = Request::decode(&encoded);
        prop_assert_eq!(decoded.unwrap(), req);
    }

    /// `decode ∘ encode = id` over every response kind, tagged included.
    #[test]
    fn response_round_trips(resp in arb_response()) {
        let encoded = resp.encode();
        let decoded = Response::decode(&encoded);
        prop_assert_eq!(decoded.unwrap(), resp);
    }

    /// Every truncation of a valid frame is a clean error (the codec
    /// never panics and never conjures a value from a prefix).
    #[test]
    fn truncated_requests_error_cleanly(req in arb_request()) {
        let encoded = req.encode();
        for cut in 0..encoded.len() {
            prop_assert!(Request::decode(&encoded[..cut]).is_err(),
                "prefix of {cut} bytes decoded", );
        }
    }

    /// Same for responses.
    #[test]
    fn truncated_responses_error_cleanly(resp in arb_response()) {
        let encoded = resp.encode();
        for cut in 0..encoded.len() {
            prop_assert!(Response::decode(&encoded[..cut]).is_err());
        }
    }

    /// Trailing garbage after a valid frame is rejected on both sides.
    #[test]
    fn trailing_bytes_rejected(req in arb_request(), junk in 1u8..=255) {
        let mut encoded = req.encode();
        encoded.push(junk);
        prop_assert!(Request::decode(&encoded).is_err());
    }

    /// Arbitrary byte soup either decodes to something that re-encodes
    /// (a genuine frame) or errors — it must never panic.
    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(0u8..=255, 0..300)) {
        if let Ok(req) = Request::decode(&bytes) {
            // What decoded must re-encode to the same bytes (the codec
            // has no redundant encodings).
            prop_assert_eq!(req.encode(), bytes.clone());
        }
        if let Ok(resp) = Response::decode(&bytes) {
            prop_assert_eq!(resp.encode(), bytes);
        }
    }

    /// Flipping the opcode to a bad value errors.
    #[test]
    fn bad_opcodes_rejected(req in arb_plain_request(), op in 0x20u8..0x80) {
        let mut encoded = req.encode();
        encoded[0] = op;
        prop_assert!(Request::decode(&encoded).is_err());
    }
}

/// Defines `$name`, which names a frame kind through a match with no
/// wildcard (as `golden_frames.rs` does), and `$all`, the list of those
/// names, from the same arms: a new variant fails to compile until it
/// is named, and then fails [`the_strategies_draw_every_frame_kind`]
/// until the strategies draw it.
macro_rules! frame_names {
    ($name:ident, $all:ident, $ty:ty { $($pat:pat => $kind:literal),+ $(,)? }) => {
        const $all: &[&str] = &[$($kind),+];
        fn $name(frame: &$ty) -> &'static str {
            match frame {
                $($pat => $kind),+
            }
        }
    };
}

frame_names!(request_name, REQUEST_KINDS, Request {
    Request::Query(_) => "Query",
    Request::Update(_) => "Update",
    Request::Sql { .. } => "Sql",
    Request::Batch(_) => "Batch",
    Request::Tagged { .. } => "Tagged",
    Request::Hello { .. } => "Hello",
    Request::NodeOps(_) => "NodeOps",
    Request::DetachShard { .. } => "DetachShard",
    Request::SetEpoch { .. } => "SetEpoch",
    Request::Reshard { .. } => "Reshard",
    Request::Replicate { .. } => "Replicate",
    Request::ReplicaBootstrap { .. } => "ReplicaBootstrap",
    Request::ReplicaStatus => "ReplicaStatus",
    Request::Promote { .. } => "Promote",
    Request::Stats => "Stats",
    Request::Telemetry => "Telemetry",
    Request::Shutdown => "Shutdown",
});

frame_names!(response_name, RESPONSE_KINDS, Response {
    Response::QueryOk { .. } => "QueryOk",
    Response::UpdateOk { .. } => "UpdateOk",
    Response::SqlOk { .. } => "SqlOk",
    Response::SqlRejected { .. } => "SqlRejected",
    Response::BatchOk(_) => "BatchOk",
    Response::Tagged { .. } => "Tagged",
    Response::HelloOk(_) => "HelloOk",
    Response::ShardState { .. } => "ShardState",
    Response::EpochOk { .. } => "EpochOk",
    Response::ReshardOk { .. } => "ReshardOk",
    Response::WrongEpoch { .. } => "WrongEpoch",
    Response::ReplicaOk { .. } => "ReplicaOk",
    Response::ReplicaStatusOk(_) => "ReplicaStatusOk",
    Response::PromoteOk { .. } => "PromoteOk",
    Response::StatsOk(_) => "StatsOk",
    Response::TelemetryOk(_) => "TelemetryOk",
    Response::ShutdownOk => "ShutdownOk",
    Response::Error { .. } => "Error",
});

/// The round-trip properties reach every frame kind: 4 096 draws from
/// each strategy name every request and every response variant.
#[test]
fn the_strategies_draw_every_frame_kind() {
    let mut rng = proptest::test_rng("the_strategies_draw_every_frame_kind");
    let (requests, responses) = (arb_request(), arb_response());
    let (mut req_seen, mut resp_seen) = (BTreeSet::new(), BTreeSet::new());
    for _ in 0..4_096 {
        req_seen.insert(request_name(&requests.generate(&mut rng)));
        resp_seen.insert(response_name(&responses.generate(&mut rng)));
    }
    assert_eq!(req_seen, REQUEST_KINDS.iter().copied().collect());
    assert_eq!(resp_seen, RESPONSE_KINDS.iter().copied().collect());
}

/// A deterministic corpus of specifically hostile frames, separate from
/// the random sweep so each case is pinned forever.
#[test]
fn hostile_corpus_errors_cleanly() {
    let cases: Vec<Vec<u8>> = vec![
        vec![],                          // empty payload
        vec![0x00],                      // zero opcode
        vec![0x01],                      // query with no fields
        vec![0x05, 0, 0, 0, 0, 0, 0, 0], // SQL with truncated seq
        {
            // SQL whose text length points far past the payload.
            let mut v = vec![0x05];
            v.extend_from_slice(&7u64.to_be_bytes());
            v.extend_from_slice(&u32::MAX.to_be_bytes());
            v.extend_from_slice(b"SELECT");
            v
        },
        {
            // Batch claiming u32::MAX items with one byte of body.
            let mut v = vec![0x06];
            v.extend_from_slice(&u32::MAX.to_be_bytes());
            v.push(0);
            v
        },
        {
            // Batch with a bad item tag.
            let mut v = vec![0x06];
            v.extend_from_slice(&1u32.to_be_bytes());
            v.push(9);
            v
        },
        {
            // Query whose object count outruns the payload.
            let mut v = vec![0x01];
            v.extend_from_slice(&1u64.to_be_bytes());
            v.extend_from_slice(&1u64.to_be_bytes());
            v.extend_from_slice(&0u64.to_be_bytes());
            v.push(0);
            v.extend_from_slice(&1_000_000u32.to_be_bytes());
            v.extend_from_slice(&[0, 0, 0, 1]);
            v
        },
        {
            // Query with an unknown kind tag.
            let mut v = vec![0x01];
            v.extend_from_slice(&1u64.to_be_bytes());
            v.extend_from_slice(&1u64.to_be_bytes());
            v.extend_from_slice(&0u64.to_be_bytes());
            v.push(250);
            v.extend_from_slice(&0u32.to_be_bytes());
            v
        },
        {
            // Tagged wrapping tagged.
            let inner = Request::Tagged {
                corr: 1,
                inner: Box::new(Request::Stats),
            }
            .encode();
            let mut v = vec![0x10];
            v.extend_from_slice(&2u64.to_be_bytes());
            v.extend_from_slice(&inner);
            v
        },
        {
            // Tagged with a corr id but no inner frame.
            let mut v = vec![0x10];
            v.extend_from_slice(&3u64.to_be_bytes());
            v
        },
        {
            // Stats request with trailing bytes.
            let mut v = Request::Stats.encode();
            v.extend_from_slice(b"tail");
            v
        },
        {
            // SQL with invalid UTF-8 text.
            let mut v = vec![0x05];
            v.extend_from_slice(&1u64.to_be_bytes());
            v.extend_from_slice(&2u32.to_be_bytes());
            v.extend_from_slice(&[0xFF, 0xFE]);
            v
        },
        {
            // Telemetry request with trailing bytes (it carries no body).
            let mut v = Request::Telemetry.encode();
            v.push(0);
            v
        },
    ];
    for (i, case) in cases.iter().enumerate() {
        assert!(
            Request::decode(case).is_err(),
            "hostile request case {i} decoded: {case:?}"
        );
    }

    // Response-side hostiles.
    let resp_cases: Vec<Vec<u8>> = vec![
        vec![0x85],             // SqlOk with no fields
        vec![0x86, 7],          // SqlRejected with a bad stage tag... (7)
        vec![0x87, 0, 0, 0, 1], // BatchOk claiming an item, no body
        {
            // BatchOk with a bad reply tag.
            let mut v = vec![0x87];
            v.extend_from_slice(&1u32.to_be_bytes());
            v.push(7);
            v
        },
        {
            // Nested tagged response.
            let inner = Response::Tagged {
                corr: 1,
                inner: Box::new(Response::ShutdownOk),
            }
            .encode();
            let mut v = vec![0x90];
            v.extend_from_slice(&2u64.to_be_bytes());
            v.extend_from_slice(&inner);
            v
        },
        vec![0x83, 0xFF],       // StatsOk with a truncated shard count
        vec![0x83, 0xFF, 0xFF], // StatsOk claiming 65535 shards, no body
        {
            // StatsOk whose single shard's metrics block is cut short.
            let mut v = vec![0x83];
            v.extend_from_slice(&1u16.to_be_bytes());
            v.extend_from_slice(&0u16.to_be_bytes()); // shard id
            v.extend_from_slice(&5u16.to_be_bytes()); // policy len
            v.extend_from_slice(b"lru--");
            v.extend_from_slice(&1u64.to_be_bytes()); // 1 of 14 metric words
            v
        },
        vec![0x8D], // TelemetryOk with no counts at all
        {
            // TelemetryOk claiming u32::MAX counters with a tiny body.
            let mut v = vec![0x8D];
            v.extend_from_slice(&u32::MAX.to_be_bytes());
            v.push(0);
            v
        },
        {
            // TelemetryOk histogram with a bucket index out of range.
            let mut v = vec![0x8D];
            v.extend_from_slice(&0u32.to_be_bytes()); // no counters
            v.extend_from_slice(&0u32.to_be_bytes()); // no gauges
            v.extend_from_slice(&1u32.to_be_bytes()); // one histogram
            v.extend_from_slice(&1u16.to_be_bytes());
            v.push(b'h'); // name "h"
            v.extend_from_slice(&1u64.to_be_bytes()); // count
            v.extend_from_slice(&1u64.to_be_bytes()); // sum
            v.extend_from_slice(&1u64.to_be_bytes()); // max
            v.extend_from_slice(&1u32.to_be_bytes()); // one bucket
            v.extend_from_slice(&(delta_telemetry::N_BUCKETS as u32).to_be_bytes());
            v.extend_from_slice(&1u64.to_be_bytes());
            v
        },
        {
            // TelemetryOk histogram whose bucket indices do not strictly
            // increase (a forged frame that would poison a merge).
            let mut v = vec![0x8D];
            v.extend_from_slice(&0u32.to_be_bytes());
            v.extend_from_slice(&0u32.to_be_bytes());
            v.extend_from_slice(&1u32.to_be_bytes());
            v.extend_from_slice(&1u16.to_be_bytes());
            v.push(b'h');
            v.extend_from_slice(&1u64.to_be_bytes());
            v.extend_from_slice(&1u64.to_be_bytes());
            v.extend_from_slice(&1u64.to_be_bytes());
            v.extend_from_slice(&2u32.to_be_bytes()); // two buckets
            v.extend_from_slice(&7u32.to_be_bytes());
            v.extend_from_slice(&1u64.to_be_bytes());
            v.extend_from_slice(&7u32.to_be_bytes()); // repeat index
            v.extend_from_slice(&1u64.to_be_bytes());
            v
        },
        {
            // TelemetryOk histogram claiming more buckets than the body
            // holds.
            let mut v = vec![0x8D];
            v.extend_from_slice(&0u32.to_be_bytes());
            v.extend_from_slice(&0u32.to_be_bytes());
            v.extend_from_slice(&1u32.to_be_bytes());
            v.extend_from_slice(&1u16.to_be_bytes());
            v.push(b'h');
            v.extend_from_slice(&1u64.to_be_bytes());
            v.extend_from_slice(&1u64.to_be_bytes());
            v.extend_from_slice(&1u64.to_be_bytes());
            v.extend_from_slice(&u32::MAX.to_be_bytes());
            v.push(0);
            v
        },
    ];
    for (i, case) in resp_cases.iter().enumerate() {
        assert!(
            Response::decode(case).is_err(),
            "hostile response case {i} decoded: {case:?}"
        );
    }
}
