//! Golden-frame fence: the wire encoding pinned across commits.
//!
//! One fixed sample of every [`Request`] and [`Response`] variant is
//! encoded, and each encoding is folded into an FNV-1a digest compared
//! with the value recorded when the fence was written. The property
//! tests check that decode inverts encode within one build; this file
//! checks that the bytes themselves do not move, so a refactor of the
//! serving path cannot change what a client or node sees on the wire.
//!
//! `request_name` and `response_name` match without a wildcard arm, so
//! a new variant fails to compile here until it gets a sample and a
//! pinned digest.

use delta_core::{Cost, CostLedger, EngineMetrics};
use delta_server::{
    error_code, BatchItem, BatchReply, HistogramSnapshot, NodeInfo, NodeOp, NodeRole, Request,
    Response, ShardStats, SqlStage, StatsSnapshot, TelemetrySnapshot,
};
use delta_storage::ObjectId;
use delta_workload::{QueryEvent, QueryKind, UpdateEvent};

/// 64-bit FNV-1a over bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn query() -> QueryEvent {
    QueryEvent {
        seq: 41,
        objects: vec![ObjectId(3), ObjectId(17), ObjectId(64)],
        result_bytes: 123_456,
        tolerance: 7,
        kind: QueryKind::Cone,
    }
}

fn update() -> UpdateEvent {
    UpdateEvent {
        seq: 42,
        object: ObjectId(17),
        bytes: 9_876,
    }
}

fn node_info() -> NodeInfo {
    NodeInfo {
        role: NodeRole::ClusterNode,
        node: 1,
        nodes: 3,
        epoch: 5,
        cluster_shards: 8,
        partitioner: "hash-ring".to_string(),
        catalog_objects: 68,
        catalog_bytes: 1 << 40,
        hosted: vec![1, 4, 7],
    }
}

fn stats() -> StatsSnapshot {
    let mut ledger = CostLedger::default();
    ledger.breakdown.query_ship = Cost(1_000);
    ledger.breakdown.update_ship = Cost(2_000);
    ledger.breakdown.load = Cost(3_000);
    ledger.shipped_queries = 4;
    ledger.local_answers = 5;
    ledger.update_ships = 6;
    ledger.loads = 7;
    ledger.evictions = 8;
    StatsSnapshot {
        shards: vec![
            ShardStats {
                shard: 0,
                policy: "VCover".to_string(),
                metrics: EngineMetrics {
                    ledger,
                    queries: 9,
                    updates: 10,
                    tolerance_served: 11,
                    cache_capacity: 12_000,
                    cache_used: 6_000,
                    residents: 13,
                },
            },
            ShardStats {
                shard: 1,
                policy: "VCover".to_string(),
                metrics: EngineMetrics::default(),
            },
        ],
    }
}

fn telemetry() -> TelemetrySnapshot {
    TelemetrySnapshot {
        counters: vec![("wire.frames_in".to_string(), 1_234)],
        gauges: vec![("node.epoch".to_string(), 2)],
        histograms: vec![(
            "shard.apply_ns.query".to_string(),
            HistogramSnapshot {
                count: 3,
                sum: 600,
                max: 300,
                buckets: vec![(4, 1), (9, 2)],
            },
        )],
    }
}

fn request_name(r: &Request) -> &'static str {
    match r {
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
    }
}

fn response_name(r: &Response) -> &'static str {
    match r {
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
    }
}

/// One sample per request variant, with its pinned digest.
fn requests() -> Vec<(Request, u64)> {
    vec![
        (Request::Query(query()), 0xfe8e_085b_4d40_2eb2),
        (Request::Update(update()), 0x3efb_98c6_b422_3b76),
        (
            Request::Sql {
                seq: 43,
                sql: "SELECT ra FROM PhotoObj WHERE CIRCLE(185.0, 15.3, 2.0)".to_string(),
            },
            0x58ef_717e_418d_ba3e,
        ),
        (
            Request::Batch(vec![BatchItem::Query(query()), BatchItem::Update(update())]),
            0x7e2b_cf5a_6f79_21eb,
        ),
        (
            Request::Tagged {
                corr: 0xfeed_beef,
                inner: Box::new(Request::Update(update())),
            },
            0xb03c_3562_8c9f_4c82,
        ),
        (
            Request::Hello {
                version: delta_server::protocol::PROTOCOL_VERSION,
                epoch: 5,
            },
            0x3ecf_fced_afff_bf6c,
        ),
        (
            Request::NodeOps(vec![
                NodeOp {
                    shard: 2,
                    item: BatchItem::Query(query()),
                },
                NodeOp {
                    shard: 5,
                    item: BatchItem::Update(update()),
                },
            ]),
            0xccf6_2269_f3fc_33be,
        ),
        (Request::DetachShard { shard: 3 }, 0x15ef_7218_8e67_2b7d),
        (Request::SetEpoch { epoch: 6 }, 0x14c1_7c84_5e02_c638),
        (
            Request::Reshard {
                shard: 3,
                to_node: 1,
            },
            0x2021_5883_1f51_9339,
        ),
        (
            Request::Replicate {
                shard: 4,
                from_offset: 100,
                items: vec![BatchItem::Update(update()), BatchItem::Query(query())],
            },
            0x4352_0fa5_621a_02df,
        ),
        (
            Request::ReplicaBootstrap {
                shard: 4,
                state: Vec::new(),
            },
            0x84e3_1072_44e8_327a,
        ),
        (Request::ReplicaStatus, 0xaf63_cc4c_8601_d15c),
        (
            Request::Promote {
                shard: 4,
                fence: true,
            },
            0x8cb7_f615_ad89_c7d0,
        ),
        (Request::Stats, 0xaf63_be4c_8601_b992),
        (Request::Telemetry, 0xaf63_c04c_8601_bcf8),
        (Request::Shutdown, 0xaf63_b94c_8601_b113),
    ]
}

/// One sample per response variant, with its pinned digest.
fn responses() -> Vec<(Response, u64)> {
    vec![
        (
            Response::QueryOk {
                shards_touched: 3,
                local_answers: 1,
                shipped: 2,
            },
            0x78d9_9032_c1a3_4264,
        ),
        (
            Response::UpdateOk {
                shard: 2,
                version: 77,
            },
            0x5fd4_9521_b1d8_2730,
        ),
        (
            Response::SqlOk {
                shards_touched: 2,
                local_answers: 0,
                shipped: 2,
                objects: 5,
                result_bytes: 4_096,
                tolerance: 3,
                kind: QueryKind::Aggregate,
            },
            0x63bd_3477_ca40_66f3,
        ),
        (
            Response::SqlRejected {
                stage: SqlStage::Parse,
                span_start: 0,
                span_end: 5,
                message: "expected SELECT".to_string(),
            },
            0x837c_6755_fe64_03ff,
        ),
        (
            Response::BatchOk(vec![
                BatchReply::Query {
                    shards_touched: 2,
                    local_answers: 1,
                    shipped: 1,
                },
                BatchReply::Update {
                    shard: 1,
                    version: 9,
                },
                BatchReply::Error {
                    code: error_code::ALREADY_APPLIED,
                    message: "seq 41 was applied before failover (fence 50)".to_string(),
                },
            ]),
            0x0274_f2c2_d283_423f,
        ),
        (
            Response::Tagged {
                corr: 0xfeed_beef,
                inner: Box::new(Response::UpdateOk {
                    shard: 0,
                    version: 1,
                }),
            },
            0x8a8b_b38e_1d61_2416,
        ),
        (Response::HelloOk(node_info()), 0x7fa4_1b0c_9719_ecbf),
        (
            Response::ShardState {
                shard: 3,
                state: b"{\"engine\":1}\n".to_vec(),
            },
            0x6d1c_32c8_1b3f_ee1f,
        ),
        (Response::EpochOk { epoch: 6 }, 0xc9ec_2b4e_ab7d_cfb8),
        (Response::ReshardOk { epoch: 7 }, 0xe8d8_8b7a_c477_140a),
        (Response::WrongEpoch { epoch: 8 }, 0x3e6a_3980_271f_abf4),
        (
            Response::ReplicaOk {
                shard: 4,
                offset: 102,
            },
            0x9738_4433_b223_3613,
        ),
        (
            Response::ReplicaStatusOk(vec![(1, 10), (4, 102)]),
            0x43a4_b911_5169_9bcb,
        ),
        (
            Response::PromoteOk {
                shard: 4,
                offset: 102,
            },
            0x4496_78e8_9b47_1857,
        ),
        (Response::StatsOk(stats()), 0xfffc_5b07_4a62_ffaa),
        (Response::TelemetryOk(telemetry()), 0xb7cc_77cb_49a2_62bf),
        (Response::ShutdownOk, 0xaf64_394c_8602_8a93),
        (
            Response::Error {
                code: error_code::WRONG_NODE,
                message: "shard 3 is not hosted on this node (epoch 5); refresh the routing map"
                    .to_string(),
            },
            0x5f5e_ce5b_75c3_08fd,
        ),
    ]
}

/// Checks every sample's digest and its round trip, and that the
/// samples name `n_variants` distinct variants.
fn check<T: std::fmt::Debug + PartialEq>(
    what: &str,
    samples: Vec<(T, u64)>,
    n_variants: usize,
    name: fn(&T) -> &'static str,
    encode: fn(&T) -> Vec<u8>,
    decode: fn(&[u8]) -> std::io::Result<T>,
) {
    let mut names: Vec<&str> = samples.iter().map(|(s, _)| name(s)).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), n_variants, "{what}: one sample per variant");
    let mut wrong = Vec::new();
    for (sample, want) in &samples {
        let bytes = encode(sample);
        assert_eq!(
            &decode(&bytes).expect("decodes"),
            sample,
            "{what} round trip"
        );
        let got = fnv1a(&bytes);
        if got != *want {
            wrong.push(format!(
                "{what}::{}: digest {got:#018x}, pinned {want:#018x}",
                name(sample)
            ));
        }
    }
    assert!(wrong.is_empty(), "frames moved:\n{}", wrong.join("\n"));
}

#[test]
fn every_request_frame_matches_its_pinned_digest() {
    check(
        "Request",
        requests(),
        17,
        request_name,
        Request::encode,
        Request::decode,
    );
}

#[test]
fn every_response_frame_matches_its_pinned_digest() {
    check(
        "Response",
        responses(),
        18,
        response_name,
        Response::encode,
        Response::decode,
    );
}
