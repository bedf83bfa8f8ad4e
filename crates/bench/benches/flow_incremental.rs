//! §4 complexity claim: incremental max-flow over a growing interaction
//! graph does the work of roughly *one* from-scratch computation, versus
//! re-running Edmonds-Karp after every arrival (O(nm^2) vs O(n^2 m^2)).
//!
//! `incremental` solves after every insertion but reuses flow;
//! `from_scratch_each_time` resets and recomputes after every insertion.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use delta_flow::{CoverGraph, FlowNetwork, INF};
use std::hint::black_box;

/// Deterministic pseudo-random bipartite instance.
fn instance(n: usize) -> Vec<(u64, u64, Vec<usize>)> {
    // (update weight, query weight, update indices the query touches)
    let mut out = Vec::with_capacity(n);
    let mut x = 0x9E3779B97F4A7C15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for i in 0..n {
        let uw = next() % 90 + 10;
        let qw = next() % 90 + 10;
        let deg = (next() % 3 + 1) as usize;
        let edges = (0..deg).map(|_| (next() as usize) % (i + 1)).collect();
        out.push((uw, qw, edges));
    }
    out
}

fn bench_incremental(c: &mut Criterion) {
    let mut g = c.benchmark_group("flow_incremental");
    g.sample_size(10);
    for n in [100usize, 400, 800] {
        let inst = instance(n);
        g.bench_with_input(BenchmarkId::new("incremental", n), &inst, |b, inst| {
            b.iter(|| {
                let mut cg = CoverGraph::new();
                let mut us = Vec::new();
                for (uw, qw, edges) in inst {
                    let u = cg.add_update(*uw);
                    us.push(u);
                    let q = cg.add_query(*qw);
                    for &e in edges {
                        cg.add_interaction(us[e], q);
                    }
                    black_box(cg.solve().weight);
                }
            })
        });
        g.bench_with_input(
            BenchmarkId::new("from_scratch_each_time", n),
            &inst,
            |b, inst| {
                b.iter(|| {
                    // Rebuild the whole graph after every arrival: the
                    // non-incremental baseline.
                    for k in 1..=inst.len() {
                        let mut cg = CoverGraph::new();
                        let mut us = Vec::new();
                        for (uw, qw, edges) in &inst[..k] {
                            let u = cg.add_update(*uw);
                            us.push(u);
                            let q = cg.add_query(*qw);
                            for &e in edges {
                                cg.add_interaction(us[e], q);
                            }
                        }
                        black_box(cg.solve().weight);
                    }
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_incremental, bench_from_scratch);
criterion_main!(benches);

/// From-scratch `max_flow` on one big bipartite network (every s-edge and
/// t-edge starts empty, so this is many successful searches and one failed
/// one — the opposite mix from the incremental solves above).
fn bench_from_scratch(c: &mut Criterion) {
    let mut g = c.benchmark_group("flow_from_scratch");
    g.sample_size(10);
    for n in [200usize, 800, 2_000] {
        let inst = instance(n);
        let build = |inst: &[(u64, u64, Vec<usize>)]| {
            let mut net = FlowNetwork::new();
            let s = net.add_node();
            let t = net.add_node();
            let mut us = Vec::new();
            let mut qs = Vec::new();
            for (uw, qw, _) in inst {
                let u = net.add_node();
                net.add_edge(s, u, *uw);
                us.push(u);
                let q = net.add_node();
                net.add_edge(q, t, *qw);
                qs.push(q);
            }
            for (i, (_, _, edges)) in inst.iter().enumerate() {
                for &e in edges {
                    net.add_edge(us[e], qs[i], INF);
                }
            }
            (net, s, t)
        };
        g.bench_with_input(BenchmarkId::new("max_flow", n), &inst, |b, inst| {
            b.iter(|| {
                let (mut net, s, t) = build(inst);
                black_box(net.max_flow(s, t))
            })
        });
    }
    g.finish();
}
