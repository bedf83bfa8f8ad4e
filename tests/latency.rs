//! Cross-crate integration: the latency/preshipping extension (§4),
//! priced by the simulator against a WAN link model.

use delta::core::{simulate, Preship, PreshipConfig, SimOptions, VCover};
use delta::net::LinkModel;
use delta::workload::{SyntheticSurvey, WorkloadConfig};

fn survey(n: usize) -> SyntheticSurvey {
    let mut cfg = WorkloadConfig::small();
    cfg.n_queries = n;
    cfg.n_updates = n;
    SyntheticSurvey::generate(&cfg)
}

#[test]
fn latency_accounting_orders_policies_sanely() {
    let s = survey(1_000);
    let opts = SimOptions::with_cache_fraction(&s.catalog, 0.3, 200).with_link(LinkModel::wan());
    // A policy that answers locally (after warm-up) must beat NoCache on
    // median latency; NoCache pays a WAN round trip on every query.
    let mut nc = delta::core::NoCache;
    let rn = simulate(&mut nc, &s.catalog, &s.trace, opts);
    let ln = rn.latency.expect("link configured");
    assert_eq!(ln.count, s.trace.n_queries() as u64);
    assert!(
        ln.p50_secs >= LinkModel::wan().rtt_secs,
        "every NoCache query pays the RTT"
    );
    // Latency summaries are internally consistent.
    assert!(ln.p50_secs <= ln.p95_secs && ln.p95_secs <= ln.p99_secs);
    assert!(ln.p99_secs <= ln.max_secs && ln.mean_secs <= ln.max_secs);
}

#[test]
fn preshipping_does_not_change_correctness_and_helps_hot_latency() {
    let s = survey(4_000);
    let opts = SimOptions::with_cache_fraction(&s.catalog, 0.3, 500).with_link(LinkModel::wan());
    let mut plain = VCover::new(opts.cache_bytes, 3);
    let base = simulate(&mut plain, &s.catalog, &s.trace, opts);
    let mut wrapped = Preship::new(
        VCover::new(opts.cache_bytes, 3),
        PreshipConfig {
            half_life_events: 1000.0,
            hot_threshold: 2.0,
        },
    );
    let pre = simulate(&mut wrapped, &s.catalog, &s.trace, opts);
    assert_eq!(
        pre.ledger.shipped_queries + pre.ledger.local_answers,
        s.trace.n_queries() as u64
    );
    // Preshipping moves update shipping off the query path; queries that
    // do run locally see fewer blocking exchanges, so mean latency must
    // not regress materially (allow 5% noise).
    let (b, p) = (base.latency.unwrap(), pre.latency.unwrap());
    assert!(
        p.mean_secs <= b.mean_secs * 1.05,
        "preshipping must not hurt mean latency: {} vs {}",
        p.mean_secs,
        b.mean_secs
    );
}
