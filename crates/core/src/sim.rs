//! The event simulator: replays a trace against a policy and produces the
//! cost series the paper's figures plot.
//!
//! Since the engine extraction this module is a thin *driver*: the
//! update/query loop, the satisfaction contract and all cost accounting
//! live in [`crate::engine::Engine`]; the simulator supplies events from
//! a trace, samples the cumulative-cost curve, and prices response times
//! against an optional link model.

use crate::cost::{Cost, CostLedger};
use crate::engine::{BorrowedPolicy, Engine, EngineError, EngineMetrics, EngineOutcome};
use crate::latency::{LatencyCollector, LatencyStats};
use crate::policy_trait::CachingPolicy;
use delta_net::LinkModel;
use delta_storage::ObjectCatalog;
use delta_workload::Trace;

/// Simulation options.
#[derive(Clone, Copy, Debug)]
pub struct SimOptions {
    /// Cache capacity in bytes (the paper's default is 30 % of the
    /// server; the headline claim uses 20 %).
    pub cache_bytes: u64,
    /// Record a cumulative-cost sample every this many events.
    pub sample_every: u64,
    /// When set, per-query response times are priced against this link
    /// and summarized in [`SimReport::latency`].
    pub link: Option<LinkModel>,
}

impl SimOptions {
    /// Options with the cache sized as a fraction of the repository.
    pub fn with_cache_fraction(catalog: &ObjectCatalog, fraction: f64, sample_every: u64) -> Self {
        SimOptions {
            cache_bytes: (catalog.total_bytes() as f64 * fraction) as u64,
            sample_every: sample_every.max(1),
            link: None,
        }
    }

    /// Enables response-time accounting against `link`.
    pub fn with_link(mut self, link: LinkModel) -> Self {
        self.link = Some(link);
        self
    }
}

/// One sample of the cumulative-cost curve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeriesPoint {
    /// Event sequence number.
    pub seq: u64,
    /// Cumulative charged bytes up to and including this event.
    pub cumulative_bytes: u64,
}

/// The result of one simulation run.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Policy name.
    pub policy: String,
    /// Cache capacity used.
    pub cache_bytes: u64,
    /// Final cost account.
    pub ledger: CostLedger,
    /// Sampled cumulative-cost curve (always includes the final event).
    pub series: Vec<SeriesPoint>,
    /// Number of events replayed.
    pub events: u64,
    /// Response-time summary, present when [`SimOptions::link`] was set.
    pub latency: Option<LatencyStats>,
    /// The engine's uniform operational counters (the `ledger` above is
    /// a copy of `metrics.ledger`, kept as a first-class field because
    /// the cost account *is* the experiment's result).
    pub metrics: EngineMetrics,
}

impl SimReport {
    /// Final total network traffic.
    pub fn total(&self) -> Cost {
        self.ledger.total()
    }

    /// Cumulative cost at the first sample with `seq >= at` (or the final
    /// total if none) — used to window out the warm-up period like the
    /// paper's figures do.
    pub fn cumulative_at(&self, at: u64) -> Cost {
        self.series
            .iter()
            .find(|p| p.seq >= at)
            .map(|p| Cost(p.cumulative_bytes))
            .unwrap_or_else(|| self.total())
    }

    /// Cost incurred after event `at` (post-warm-up traffic).
    pub fn cost_after(&self, at: u64) -> Cost {
        self.total().saturating_sub(self.cumulative_at(at))
    }
}

impl serde_json::ToJson for SeriesPoint {
    fn to_json(&self) -> serde_json::Value {
        serde_json::Value::Object(vec![
            ("seq".into(), self.seq.to_json()),
            ("cumulative_bytes".into(), self.cumulative_bytes.to_json()),
        ])
    }
}

impl serde_json::ToJson for SimReport {
    fn to_json(&self) -> serde_json::Value {
        serde_json::Value::Object(vec![
            ("policy".into(), self.policy.to_json()),
            ("cache_bytes".into(), self.cache_bytes.to_json()),
            ("ledger".into(), self.ledger.to_json()),
            ("series".into(), self.series.to_json()),
            ("events".into(), self.events.to_json()),
            (
                "latency".into(),
                self.latency
                    .as_ref()
                    .map(|l| l.to_json())
                    .unwrap_or(serde_json::Value::Null),
            ),
            ("metrics".into(), self.metrics.to_json()),
        ])
    }
}

impl std::fmt::Display for SimReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let b = &self.ledger.breakdown;
        write!(
            f,
            "{:<9} total {:>12} (queries {:>12}, updates {:>12}, loads {:>12}) \
             hit-rate {:>5.1}% loads {} evictions {}",
            self.policy,
            self.total().to_string(),
            b.query_ship.to_string(),
            b.update_ship.to_string(),
            b.load.to_string(),
            self.ledger.hit_rate() * 100.0,
            self.ledger.loads,
            self.ledger.evictions,
        )
    }
}

/// Replays `trace` against `policy` over a fresh repository built from
/// `catalog`. An unsatisfied query surfaces as the engine's typed
/// [`EngineError::ContractViolated`] instead of a panic.
pub fn try_simulate(
    policy: &mut dyn CachingPolicy,
    catalog: &ObjectCatalog,
    trace: &Trace,
    opts: SimOptions,
) -> Result<SimReport, EngineError> {
    let mut engine = Engine::new(Box::new(BorrowedPolicy(policy)), catalog, opts.cache_bytes);
    engine.init(None);

    let mut series = Vec::new();
    let mut latencies = opts.link.map(|_| LatencyCollector::new());
    let mut count = 0u64;
    for event in trace.iter() {
        let outcome = engine.apply(event)?;
        if let (
            EngineOutcome::Query {
                sync_messages,
                sync_bytes,
                ..
            },
            Some(link),
            Some(lat),
        ) = (outcome, &opts.link, latencies.as_mut())
        {
            lat.record_exchanges(link, sync_messages, sync_bytes);
        }
        count += 1;
        if count.is_multiple_of(opts.sample_every) {
            series.push(SeriesPoint {
                seq: event.seq(),
                cumulative_bytes: engine.ledger().total().bytes(),
            });
        }
    }
    // Always close the curve.
    let last_seq = trace.events.last().map(|e| e.seq()).unwrap_or(0);
    if series.last().map(|p| p.seq) != Some(last_seq) {
        series.push(SeriesPoint {
            seq: last_seq,
            cumulative_bytes: engine.ledger().total().bytes(),
        });
    }

    let metrics = engine.metrics();
    Ok(SimReport {
        policy: engine.policy_name().to_string(),
        cache_bytes: engine.cache().capacity(),
        ledger: metrics.ledger.clone(),
        series,
        events: count,
        latency: latencies.map(|l| l.summarize()),
        metrics,
    })
}

/// Replays `trace` against `policy`, enforcing the satisfaction contract
/// for every query.
///
/// # Panics
/// Panics if the policy violates the contract — a policy bug, never a
/// legal outcome. Use [`try_simulate`] to handle it as a typed error.
pub fn simulate(
    policy: &mut dyn CachingPolicy,
    catalog: &ObjectCatalog,
    trace: &Trace,
    opts: SimOptions,
) -> SimReport {
    try_simulate(policy, catalog, trace, opts).unwrap_or_else(|e| panic!("{e}"))
}

/// Convenience: run the full five-way comparison of §6 (VCover, Benefit,
/// NoCache, Replica, SOptimal) on one trace.
pub fn compare_all(
    catalog: &ObjectCatalog,
    trace: &Trace,
    opts: SimOptions,
    seed: u64,
) -> Vec<SimReport> {
    use crate::benefit::{Benefit, BenefitConfig};
    use crate::vcover::VCover;
    use crate::yardstick::{NoCache, Replica, SOptimal};

    let mut reports = Vec::new();
    let mut nocache = NoCache;
    reports.push(simulate(&mut nocache, catalog, trace, opts));
    let mut replica = Replica;
    reports.push(simulate(&mut replica, catalog, trace, opts));
    let mut benefit = Benefit::new(opts.cache_bytes, BenefitConfig::default());
    reports.push(simulate(&mut benefit, catalog, trace, opts));
    let mut vcover = VCover::new(opts.cache_bytes, seed);
    reports.push(simulate(&mut vcover, catalog, trace, opts));
    let mut soptimal = SOptimal::plan(catalog, trace, opts.cache_bytes);
    reports.push(simulate(&mut soptimal, catalog, trace, opts));
    reports
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vcover::VCover;
    use crate::yardstick::{NoCache, Replica};
    use delta_workload::{SyntheticSurvey, WorkloadConfig};

    fn tiny_survey() -> SyntheticSurvey {
        let mut cfg = WorkloadConfig::small();
        cfg.n_queries = 500;
        cfg.n_updates = 500;
        SyntheticSurvey::generate(&cfg)
    }

    #[test]
    fn nocache_equals_trace_query_bytes() {
        let s = tiny_survey();
        let opts = SimOptions::with_cache_fraction(&s.catalog, 0.3, 100);
        let mut p = NoCache;
        let r = simulate(&mut p, &s.catalog, &s.trace, opts);
        assert_eq!(r.total().bytes(), s.trace.total_query_bytes());
        assert_eq!(r.ledger.shipped_queries as usize, s.trace.n_queries());
    }

    #[test]
    fn replica_equals_trace_update_bytes() {
        let s = tiny_survey();
        let opts = SimOptions::with_cache_fraction(&s.catalog, 0.3, 100);
        let mut p = Replica;
        let r = simulate(&mut p, &s.catalog, &s.trace, opts);
        assert_eq!(r.total().bytes(), s.trace.total_update_bytes());
        assert_eq!(r.ledger.local_answers as usize, s.trace.n_queries());
    }

    #[test]
    fn vcover_runs_and_satisfies_every_query() {
        let s = tiny_survey();
        let opts = SimOptions::with_cache_fraction(&s.catalog, 0.3, 100);
        let mut p = VCover::new(opts.cache_bytes, 1);
        let r = simulate(&mut p, &s.catalog, &s.trace, opts);
        assert_eq!(
            r.ledger.shipped_queries + r.ledger.local_answers,
            s.trace.n_queries() as u64
        );
        // Cost never exceeds the trivial sum of everything.
        assert!(r.total().bytes() <= s.trace.total_query_bytes() + s.catalog.total_bytes() * 2);
    }

    #[test]
    fn series_is_monotone_and_closed() {
        let s = tiny_survey();
        let opts = SimOptions::with_cache_fraction(&s.catalog, 0.3, 50);
        let mut p = VCover::new(opts.cache_bytes, 1);
        let r = simulate(&mut p, &s.catalog, &s.trace, opts);
        assert!(r
            .series
            .windows(2)
            .all(|w| w[0].cumulative_bytes <= w[1].cumulative_bytes));
        assert_eq!(
            r.series.last().unwrap().cumulative_bytes,
            r.total().bytes(),
            "curve must end at the final total"
        );
        assert!(r.cost_after(0).bytes() <= r.total().bytes());
    }

    #[test]
    fn compare_all_produces_five_reports() {
        let s = tiny_survey();
        let opts = SimOptions::with_cache_fraction(&s.catalog, 0.3, 100);
        let rs = compare_all(&s.catalog, &s.trace, opts, 7);
        let names: Vec<_> = rs.iter().map(|r| r.policy.as_str()).collect();
        assert_eq!(
            names,
            vec!["NoCache", "Replica", "Benefit", "VCover", "SOptimal"]
        );
    }

    #[test]
    fn try_simulate_reports_contract_violations_typed() {
        use crate::context::SimContext;
        use delta_workload::{QueryEvent, UpdateEvent};
        struct Broken;
        impl crate::CachingPolicy for Broken {
            fn name(&self) -> &str {
                "Broken"
            }
            fn on_query(&mut self, _q: &QueryEvent, _ctx: &mut SimContext<'_>) {}
            fn on_update(&mut self, _u: &UpdateEvent, _ctx: &mut SimContext<'_>) {}
        }
        let s = tiny_survey();
        let opts = SimOptions::with_cache_fraction(&s.catalog, 0.3, 100);
        let mut p = Broken;
        let err = try_simulate(&mut p, &s.catalog, &s.trace, opts).unwrap_err();
        assert!(matches!(err, crate::EngineError::ContractViolated { .. }));
    }

    #[test]
    #[should_panic(expected = "neither shipped nor answered")]
    fn simulate_still_panics_on_contract_violation() {
        use crate::context::SimContext;
        use delta_workload::{QueryEvent, UpdateEvent};
        struct Broken;
        impl crate::CachingPolicy for Broken {
            fn name(&self) -> &str {
                "Broken"
            }
            fn on_query(&mut self, _q: &QueryEvent, _ctx: &mut SimContext<'_>) {}
            fn on_update(&mut self, _u: &UpdateEvent, _ctx: &mut SimContext<'_>) {}
        }
        let s = tiny_survey();
        let opts = SimOptions::with_cache_fraction(&s.catalog, 0.3, 100);
        let mut p = Broken;
        let _ = simulate(&mut p, &s.catalog, &s.trace, opts);
    }

    #[test]
    fn deterministic_simulation() {
        let s = tiny_survey();
        let opts = SimOptions::with_cache_fraction(&s.catalog, 0.3, 100);
        let run = || {
            let mut p = VCover::new(opts.cache_bytes, 99);
            simulate(&mut p, &s.catalog, &s.trace, opts).total().bytes()
        };
        assert_eq!(run(), run());
    }
}
