//! The hot-path regression fence: engine apply throughput per policy and
//! wire-codec roundtrip throughput, written to `results/BENCH_core.json`
//! so CI can diff every PR against the committed trajectory.
//!
//! Runs under `cargo bench -p delta_bench --bench core_hot_path` with
//! the workspace's mini-criterion conventions (harness = false, prints
//! one line per benchmark) but does its own timing so the measured
//! events/s can be serialized: each benchmark runs
//! [`ROUNDS`] times and keeps the best round — the quantity a regression
//! gate wants, since the best round is the least scheduler-disturbed.
//!
//! Output path: `results/BENCH_core.json` at the workspace root, or
//! `$DELTA_BENCH_JSON` when set (CI writes a candidate file next to the
//! committed baseline and diffs the two with the `bench_gate` binary).

use delta_core::{sim, Benefit, BenefitConfig, CachingPolicy, NoCache, Replica, VCover};
use delta_flow::{CoverGraph, QueryNode, Relay, UpdateNode};
use delta_server::{BatchItem, Request, Response};
use delta_storage::ObjectId;
use delta_workload::{QueryEvent, QueryKind, SyntheticSurvey, UpdateEvent, WorkloadConfig};
use serde_json::{ToJson, Value};
use std::time::Instant;

/// Measured rounds per benchmark; the best round is reported. Nine
/// rounds spread each benchmark over enough wall clock that a transient
/// contention window (another process stealing the core for a few
/// hundred milliseconds) cannot depress every round at once.
const ROUNDS: usize = 9;

/// Events per engine-throughput run. Sized so one round takes tens of
/// milliseconds — long enough that a 20% regression gate measures the
/// code, not scheduler noise — while five rounds across four policies
/// still finish in a few seconds.
const ENGINE_EVENTS: usize = 200_000;

/// Roundtrips per codec run (same tens-of-milliseconds sizing).
const CODEC_ITERS: usize = 500_000;

/// Membership solves per cover-churn run (same sizing: a solve costs
/// 1–6 µs at every graph size measured).
const FLOW_SOLVES: usize = 32_768;

struct Measurement {
    name: String,
    events: u64,
    elapsed_s: f64,
    events_per_sec: f64,
}

/// Runs `f` [`ROUNDS`] times; `f` returns the event count it processed.
/// Keeps the round with the best throughput.
fn measure(name: &str, mut f: impl FnMut() -> u64) -> Measurement {
    let mut best: Option<(u64, f64)> = None;
    for _ in 0..ROUNDS {
        let start = Instant::now();
        let events = f();
        let elapsed = start.elapsed().as_secs_f64().max(1e-9);
        let better = match best {
            Some((e, t)) => (events as f64 / elapsed) > (e as f64 / t),
            None => true,
        };
        if better {
            best = Some((events, elapsed));
        }
    }
    let (events, elapsed_s) = best.expect("ROUNDS > 0");
    let events_per_sec = events as f64 / elapsed_s;
    println!("{name:<40} {events_per_sec:>14.0} events/s  (best of {ROUNDS})");
    Measurement {
        name: name.to_string(),
        events,
        elapsed_s,
        events_per_sec,
    }
}

/// A named policy constructor for the per-policy engine benches.
type PolicyCtor<'a> = (&'a str, Box<dyn Fn() -> Box<dyn CachingPolicy>>);

fn engine_benches(out: &mut Vec<Measurement>) {
    let mut cfg = WorkloadConfig::small();
    cfg.n_queries = ENGINE_EVENTS / 2;
    cfg.n_updates = ENGINE_EVENTS - ENGINE_EVENTS / 2;
    let s = SyntheticSurvey::generate(&cfg);
    let opts = sim::SimOptions::with_cache_fraction(&s.catalog, 0.3, u64::MAX);

    let policies: Vec<PolicyCtor<'_>> = vec![
        ("NoCache", Box::new(|| Box::new(NoCache))),
        ("Replica", Box::new(|| Box::new(Replica))),
        (
            "VCover",
            Box::new(move || Box::new(VCover::new(opts.cache_bytes, 42))),
        ),
        (
            "Benefit",
            Box::new(move || Box::new(Benefit::new(opts.cache_bytes, BenefitConfig::default()))),
        ),
    ];
    for (name, build) in policies {
        out.push(measure(&format!("engine_apply/{name}"), || {
            let mut policy = build();
            let report = sim::simulate(&mut *policy, &s.catalog, &s.trace, opts);
            report.events
        }));
    }
}

/// Cheap deterministic draws (LCG) so every round of a cover bench sees
/// the identical instance stream.
fn lcg() -> impl FnMut() -> u64 {
    let mut x = 0x9e3779b97f4a7c15u64;
    move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x >> 33
    }
}

/// The cover-graph churn pattern the `UpdateManager` hot path produces:
/// a steady population of `n` live segment vertices, one membership solve
/// per arriving query, remainder-rule removals, and the compactions they
/// trigger. Next to the clock it prints the search's own cost as counts
/// (`CoverGraph::{edges_scanned, augmentations}` per solve), which repeat
/// exactly from run to run.
fn flow_solve_benches(out: &mut Vec<Measurement>) {
    for &n in &[64usize, 512, 4096] {
        let mut counts = (0u64, 0u64);
        out.push(measure(&format!("flow_solve/n{n}"), || {
            let mut g = CoverGraph::new();
            let mut rng = lcg();
            let mut segments: Vec<UpdateNode> =
                (0..n).map(|_| g.add_update(1 + rng() % 1000)).collect();
            let mut oldest = 0usize;
            let mut retained: Vec<QueryNode> = Vec::new();
            for _ in 0..FLOW_SOLVES {
                // Segment churn: the oldest vertex ships out, a fresh
                // one materializes (keeps the live graph at size n and
                // exercises removal + compaction).
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
            counts = (g.edges_scanned(), g.augmentations());
            FLOW_SOLVES as u64
        }));
        println!(
            "{:<40} {:>14.1} edges scanned, {:.2} augmentations per solve",
            "",
            counts.0 as f64 / FLOW_SOLVES as f64,
            counts.1 as f64 / FLOW_SOLVES as f64
        );
    }
}

/// The regime the robustness caps pin a busy shard at, which the churn
/// above (64 retained queries) never reaches: one object with
/// `MAX_SEGMENTS_PER_OBJECT` prefix-nested segments under
/// `MAX_RETAINED_QUERIES` retained, saturated queries. Every step one
/// cheap query arrives at a random horizon — inside a segment seven times
/// in eight (a split), past the newest otherwise (a fresh segment) — is
/// attached to the object's relay chain there, shipped and retained, the oldest retained query is dropped, and the
/// oldest segments are coalesced whenever the object passes its cap (every
/// 64 steps). `RETAINED` steps fill the retained cap, as many again run at
/// it; the search's counts per solve and the worst single step are printed
/// for the second half and repeat exactly from run to run.
fn flow_solve_capped(out: &mut Vec<Measurement>) {
    const SEGMENTS: usize = 128;
    const RETAINED: usize = 4096;
    let mut counts = (0u64, 0u64, 0u64, 0u64);
    out.push(measure("flow_solve/capped", || {
        let mut g = CoverGraph::new();
        let mut rng = lcg();
        let mut segments: Vec<(UpdateNode, Relay)> = Vec::new();
        for _ in 0..SEGMENTS {
            let after = segments.last().map(|s| s.1);
            segments.push(g.append_segment(after, 1_000_000));
        }
        let mut retained = std::collections::VecDeque::with_capacity(RETAINED + 1);
        let mut worst = (0u64, 0u64);
        for step in 0..2 * RETAINED {
            if step == RETAINED {
                worst = (0, 0);
                counts = (g.edges_scanned(), g.augmentations(), 0, 0);
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
            if segments.len() > SEGMENTS {
                let k = segments.len() - SEGMENTS / 2;
                g.merge_segments(segments[0].0, segments[k - 1].0);
                segments.drain(1..k);
            }
            worst.0 = worst.0.max(g.edges_scanned() - before.0);
            worst.1 = worst.1.max(g.augmentations() - before.1);
        }
        counts = (
            g.edges_scanned() - counts.0,
            g.augmentations() - counts.1,
            worst.0,
            worst.1,
        );
        2 * RETAINED as u64
    }));
    println!(
        "{:<40} {:>14.1} edges scanned, {:.2} augmentations per solve; worst step {} edges, {} augmentations",
        "",
        counts.0 as f64 / RETAINED as f64,
        counts.1 as f64 / RETAINED as f64,
        counts.2,
        counts.3
    );
}

fn codec_benches(out: &mut Vec<Measurement>) {
    let query = Request::Query(QueryEvent {
        seq: 42,
        objects: vec![ObjectId(0), ObjectId(7), ObjectId(12), ObjectId(3)],
        result_bytes: 123_456_789,
        tolerance: 500,
        kind: QueryKind::Cone,
    });
    let batch = Request::Batch(
        (0..64u64)
            .map(|i| {
                if i % 2 == 0 {
                    BatchItem::Query(QueryEvent {
                        seq: i,
                        objects: vec![ObjectId((i % 16) as u32), ObjectId((i % 5) as u32)],
                        result_bytes: 1000 + i,
                        tolerance: i % 7,
                        kind: QueryKind::Selection,
                    })
                } else {
                    BatchItem::Update(UpdateEvent {
                        seq: i,
                        object: ObjectId((i % 16) as u32),
                        bytes: 10 + i,
                    })
                }
            })
            .collect(),
    );
    let response = Response::QueryOk {
        shards_touched: 4,
        local_answers: 3,
        shipped: 1,
    };

    let mut buf = Vec::new();
    out.push(measure("codec/query_roundtrip", || {
        for _ in 0..CODEC_ITERS {
            buf.clear();
            query.encode_into(&mut buf);
            let decoded = Request::decode(&buf).expect("roundtrip");
            assert!(matches!(decoded, Request::Query(_)));
        }
        CODEC_ITERS as u64
    }));
    out.push(measure("codec/batch64_roundtrip", || {
        // Throughput counts *events* (64 per frame), matching the
        // engine benches' unit.
        for _ in 0..CODEC_ITERS / 64 {
            buf.clear();
            batch.encode_into(&mut buf);
            let decoded = Request::decode(&buf).expect("roundtrip");
            assert!(matches!(decoded, Request::Batch(_)));
        }
        (CODEC_ITERS / 64 * 64) as u64
    }));
    out.push(measure("codec/response_roundtrip", || {
        for _ in 0..CODEC_ITERS {
            buf.clear();
            response.encode_into(&mut buf);
            let decoded = Response::decode(&buf).expect("roundtrip");
            assert!(matches!(decoded, Response::QueryOk { .. }));
        }
        CODEC_ITERS as u64
    }));
}

fn main() {
    // `cargo bench` passes harness flags (e.g. `--bench`); ignore them.
    let mut measurements = Vec::new();
    engine_benches(&mut measurements);
    flow_solve_benches(&mut measurements);
    flow_solve_capped(&mut measurements);
    codec_benches(&mut measurements);

    let path = std::env::var("DELTA_BENCH_JSON").unwrap_or_else(|_| {
        format!(
            "{}/../../results/BENCH_core.json",
            env!("CARGO_MANIFEST_DIR")
        )
    });
    let doc = Value::Object(vec![
        ("suite".into(), "core_hot_path".to_string().to_json()),
        ("rounds".into(), ROUNDS.to_json()),
        (
            "benchmarks".into(),
            Value::Array(
                measurements
                    .iter()
                    .map(|m| {
                        Value::Object(vec![
                            ("name".into(), m.name.to_json()),
                            ("events".into(), m.events.to_json()),
                            ("elapsed_s".into(), m.elapsed_s.to_json()),
                            ("events_per_sec".into(), m.events_per_sec.to_json()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    if let Some(parent) = std::path::Path::new(&path).parent() {
        std::fs::create_dir_all(parent).expect("create results dir");
    }
    let mut body = doc.to_json_string_pretty();
    body.push('\n');
    std::fs::write(&path, body).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}
