//! Trace statistics and the Fig. 7(a) characterization series.
//!
//! Fig. 7(a) of the paper plots, for a sample of the event sequence, the
//! object-IDs touched by each query (rings) and update (crosses), showing
//! that query hotspots and update hotspots are distinct clusters that
//! drift over time. [`fig7a_series`] produces exactly that scatter;
//! [`TraceStats`] aggregates the per-object activity used to identify the
//! hotspots.

use crate::event::{Event, QueryKind};
use crate::trace::Trace;

/// Per-object activity aggregates over a trace.
#[derive(Clone, Debug)]
pub struct TraceStats {
    /// Number of queries touching each object.
    pub query_touches: Vec<u64>,
    /// Total result bytes attributed to queries touching each object
    /// (full result counted once per touched object).
    pub query_bytes: Vec<u64>,
    /// Number of updates hitting each object.
    pub update_counts: Vec<u64>,
    /// Total update bytes per object.
    pub update_bytes: Vec<u64>,
}

impl TraceStats {
    /// Computes statistics for a trace over `n_objects` objects.
    pub fn compute(trace: &Trace, n_objects: usize) -> Self {
        let mut s = TraceStats {
            query_touches: vec![0; n_objects],
            query_bytes: vec![0; n_objects],
            update_counts: vec![0; n_objects],
            update_bytes: vec![0; n_objects],
        };
        for e in trace.iter() {
            match e {
                Event::Query(q) => {
                    for o in &q.objects {
                        s.query_touches[o.index()] += 1;
                        s.query_bytes[o.index()] += q.result_bytes;
                    }
                }
                Event::Update(u) => {
                    s.update_counts[u.object.index()] += 1;
                    s.update_bytes[u.object.index()] += u.bytes;
                }
            }
        }
        s
    }

    /// The `k` most-queried object ids, by touch count, descending.
    pub fn top_query_objects(&self, k: usize) -> Vec<usize> {
        top_k(&self.query_touches, k)
    }

    /// The `k` most-updated object ids, by update count, descending.
    pub fn top_update_objects(&self, k: usize) -> Vec<usize> {
        top_k(&self.update_counts, k)
    }

    /// Jaccard overlap between the top-k query and update hotspot sets —
    /// low overlap is what makes decoupling profitable.
    pub fn hotspot_overlap(&self, k: usize) -> f64 {
        use std::collections::HashSet;
        let q: HashSet<_> = self.top_query_objects(k).into_iter().collect();
        let u: HashSet<_> = self.top_update_objects(k).into_iter().collect();
        if q.is_empty() && u.is_empty() {
            return 0.0;
        }
        q.intersection(&u).count() as f64 / q.union(&u).count() as f64
    }
}

fn top_k(counts: &[u64], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..counts.len()).collect();
    idx.sort_unstable_by(|&a, &b| counts[b].cmp(&counts[a]).then(a.cmp(&b)));
    idx.truncate(k);
    idx
}

/// One point of the Fig. 7(a) scatter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScatterPoint {
    /// Event sequence number (x-axis).
    pub seq: u64,
    /// Object id (y-axis).
    pub object: u32,
    /// True for update events (crosses), false for query touches (rings).
    pub is_update: bool,
}

impl serde_json::ToJson for ScatterPoint {
    fn to_json(&self) -> serde_json::Value {
        serde_json::Value::Object(vec![
            ("seq".into(), self.seq.to_json()),
            ("object".into(), self.object.to_json()),
            ("is_update".into(), self.is_update.to_json()),
        ])
    }
}

/// Produces the Fig. 7(a) scatter, keeping one query in `stride` and one
/// update in `stride` (sampled per stream, so a regular query/update
/// interleave cannot alias one stream away), matching the paper's "sample
/// of the updates and queries".
pub fn fig7a_series(trace: &Trace, stride: usize) -> Vec<ScatterPoint> {
    let stride = stride.max(1);
    let mut out = Vec::new();
    let (mut qi, mut ui) = (0usize, 0usize);
    for e in trace.iter() {
        match e {
            Event::Query(q) => {
                if qi % stride == 0 {
                    for o in &q.objects {
                        out.push(ScatterPoint {
                            seq: q.seq,
                            object: o.0,
                            is_update: false,
                        });
                    }
                }
                qi += 1;
            }
            Event::Update(u) => {
                if ui % stride == 0 {
                    out.push(ScatterPoint {
                        seq: u.seq,
                        object: u.object.0,
                        is_update: true,
                    });
                }
                ui += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorkloadConfig;
    use crate::generator::SyntheticSurvey;

    #[test]
    fn stats_count_correctly() {
        use crate::event::{QueryEvent, QueryKind, UpdateEvent};
        use delta_storage::ObjectId;
        let trace = Trace::new(vec![
            Event::Query(QueryEvent {
                seq: 0,
                objects: vec![ObjectId(0), ObjectId(1)],
                result_bytes: 10,
                tolerance: 0,
                kind: QueryKind::Cone,
            }),
            Event::Update(UpdateEvent {
                seq: 1,
                object: ObjectId(1),
                bytes: 5,
            }),
            Event::Update(UpdateEvent {
                seq: 2,
                object: ObjectId(1),
                bytes: 5,
            }),
        ]);
        let s = TraceStats::compute(&trace, 3);
        assert_eq!(s.query_touches, vec![1, 1, 0]);
        assert_eq!(s.query_bytes, vec![10, 10, 0]);
        assert_eq!(s.update_counts, vec![0, 2, 0]);
        assert_eq!(s.update_bytes, vec![0, 10, 0]);
        assert_eq!(s.top_update_objects(1), vec![1]);
    }

    #[test]
    fn hotspots_mostly_disjoint_on_synthetic_survey() {
        // The paper's observation: query hotspots (22-24, 62-64) and
        // update hotspots (11-13, 30-32) are different objects. Our
        // generator must reproduce that separation.
        // At the paper's 68-object granularity (the small default's 16
        // objects are too coarse for hotspots to be distinguishable).
        let mut cfg = WorkloadConfig::small();
        cfg.target_objects = 68;
        let s = SyntheticSurvey::generate(&cfg);
        let stats = TraceStats::compute(&s.trace, s.catalog.len());
        let overlap = stats.hotspot_overlap(6);
        assert!(
            overlap < 0.5,
            "query/update hotspot overlap {overlap} too high for decoupling to matter"
        );
    }

    #[test]
    fn fig7a_series_has_both_marks() {
        let s = SyntheticSurvey::generate(&WorkloadConfig::small());
        let pts = fig7a_series(&s.trace, 10);
        assert!(pts.iter().any(|p| p.is_update));
        assert!(pts.iter().any(|p| !p.is_update));
        // Strided output is much smaller than the full touch list.
        let full = fig7a_series(&s.trace, 1);
        assert!(pts.len() < full.len());
        // All object ids valid.
        assert!(pts.iter().all(|p| (p.object as usize) < s.catalog.len()));
    }
}
/// Distribution summary of the query-shape mix and result sizes — the
/// §6.1 trace properties ("several kinds of queries … no single query
/// template dominates"; heavy-tailed result sizes).
#[derive(Clone, Debug)]
pub struct MixStats {
    /// Query counts per [`QueryKind`], in enum order
    /// (cone, range, self-join, aggregate, scan, selection).
    pub kind_counts: [u64; 6],
    /// Result-size percentiles in bytes: p50, p90, p99 and max.
    pub result_p50: u64,
    /// 90th-percentile result size.
    pub result_p90: u64,
    /// 99th-percentile result size.
    pub result_p99: u64,
    /// Largest single result.
    pub result_max: u64,
    /// Mean result size.
    pub result_mean: f64,
    /// Mean number of objects per query — the B(q) fan-out.
    pub mean_fanout: f64,
    /// Fraction of queries demanding full currency (t(q) = 0).
    pub zero_tolerance_frac: f64,
}

impl MixStats {
    /// Computes the mix summary of a trace.
    pub fn compute(trace: &Trace) -> Self {
        let mut kind_counts = [0u64; 6];
        let mut sizes: Vec<u64> = Vec::new();
        let mut fanout = 0u64;
        let mut zero_tol = 0u64;
        for e in trace.iter() {
            if let Event::Query(q) = e {
                kind_counts[kind_index(q.kind)] += 1;
                sizes.push(q.result_bytes);
                fanout += q.objects.len() as u64;
                if q.tolerance == 0 {
                    zero_tol += 1;
                }
            }
        }
        if sizes.is_empty() {
            return MixStats {
                kind_counts,
                result_p50: 0,
                result_p90: 0,
                result_p99: 0,
                result_max: 0,
                result_mean: 0.0,
                mean_fanout: 0.0,
                zero_tolerance_frac: 0.0,
            };
        }
        sizes.sort_unstable();
        let n = sizes.len();
        let pct = |p: f64| sizes[((p * n as f64) as usize).min(n - 1)];
        MixStats {
            kind_counts,
            result_p50: pct(0.50),
            result_p90: pct(0.90),
            result_p99: pct(0.99),
            result_max: *sizes.last().expect("non-empty"),
            result_mean: sizes.iter().sum::<u64>() as f64 / n as f64,
            mean_fanout: fanout as f64 / n as f64,
            zero_tolerance_frac: zero_tol as f64 / n as f64,
        }
    }

    /// Whether any single query kind holds more than `frac` of the
    /// queries — §6.1 says no template dominates the SkyServer trace.
    pub fn dominated_by_one_kind(&self, frac: f64) -> bool {
        let total: u64 = self.kind_counts.iter().sum();
        total > 0
            && self
                .kind_counts
                .iter()
                .any(|&c| c as f64 > frac * total as f64)
    }

    /// Heavy-tail indicator: p99 / p50 of the result-size distribution.
    pub fn tail_ratio(&self) -> f64 {
        if self.result_p50 == 0 {
            return 0.0;
        }
        self.result_p99 as f64 / self.result_p50 as f64
    }
}

fn kind_index(k: QueryKind) -> usize {
    match k {
        QueryKind::Cone => 0,
        QueryKind::Range => 1,
        QueryKind::SelfJoin => 2,
        QueryKind::Aggregate => 3,
        QueryKind::Scan => 4,
        QueryKind::Selection => 5,
    }
}

#[cfg(test)]
mod mix_tests {
    use super::*;
    use crate::config::WorkloadConfig;
    use crate::generator::SyntheticSurvey;

    #[test]
    fn mix_reflects_sdss_properties() {
        let mut cfg = WorkloadConfig::small();
        cfg.n_queries = 3_000;
        cfg.n_updates = 0;
        let s = SyntheticSurvey::generate(&cfg);
        let m = MixStats::compute(&s.trace);
        assert_eq!(m.kind_counts.iter().sum::<u64>(), 3_000);
        assert!(
            !m.dominated_by_one_kind(0.8),
            "no single template dominates (§6.1): {:?}",
            m.kind_counts
        );
        assert!(
            m.tail_ratio() > 5.0,
            "heavy tail expected, got {}",
            m.tail_ratio()
        );
        assert!(m.mean_fanout >= 1.0);
        assert!(
            (m.zero_tolerance_frac - cfg.zero_tolerance_frac).abs() < 0.1,
            "zero-tolerance fraction {}",
            m.zero_tolerance_frac
        );
        assert!(m.result_p50 <= m.result_p90 && m.result_p90 <= m.result_p99);
        assert!(m.result_p99 <= m.result_max);
        assert!(m.result_mean > 0.0);
    }

    #[test]
    fn empty_trace_mix_is_zeroed() {
        let m = MixStats::compute(&Trace::default());
        assert_eq!(m.kind_counts, [0; 6]);
        assert_eq!(m.result_max, 0);
        assert!(!m.dominated_by_one_kind(0.5));
        assert_eq!(m.tail_ratio(), 0.0);
    }
}
