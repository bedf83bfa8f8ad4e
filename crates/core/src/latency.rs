//! Response-time accounting on top of the traffic simulator.
//!
//! Delta's objective is network traffic; response time is the secondary
//! concern §4 discusses: decisions that reduce traffic "naturally
//! decrease response times of queries that access objects in cache. But
//! queries for which updates need to be applied may be delayed." This
//! module prices each query's *client-visible critical path* — the
//! synchronous exchanges performed while the query waits — against a
//! [`LinkModel`], so the preshipping extension ([`crate::preship`]) can
//! be evaluated quantitatively.

use delta_net::LinkModel;

/// Fixed local processing time for a query answered at the cache,
/// in seconds. Kept small and constant: execution cost modeling is out
/// of scope; the interesting term is the wait for the wire.
pub const LOCAL_PROCESS_SECS: f64 = 0.002;

/// Streaming collector of per-query response times.
#[derive(Clone, Debug, Default)]
pub struct LatencyCollector {
    samples: Vec<f64>,
}

impl LatencyCollector {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one query's response time in seconds.
    pub fn record(&mut self, secs: f64) {
        debug_assert!(secs.is_finite() && secs >= 0.0);
        self.samples.push(secs);
    }

    /// Response time of a query whose critical path performed
    /// `messages` synchronous exchanges moving `bytes`, over `link`.
    pub fn record_exchanges(&mut self, link: &LinkModel, messages: u32, bytes: u64) {
        self.record(LOCAL_PROCESS_SECS + link.exchange_secs(messages, bytes));
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Summarizes the distribution (consumes nothing; sorts a copy).
    pub fn summarize(&self) -> LatencyStats {
        if self.samples.is_empty() {
            return LatencyStats::default();
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let pct = |p: f64| sorted[((p * n as f64) as usize).min(n - 1)];
        LatencyStats {
            count: n as u64,
            mean_secs: sorted.iter().sum::<f64>() / n as f64,
            p50_secs: pct(0.50),
            p95_secs: pct(0.95),
            p99_secs: pct(0.99),
            max_secs: *sorted.last().expect("non-empty"),
        }
    }
}

/// Summary statistics of per-query response times.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencyStats {
    /// Number of queries measured.
    pub count: u64,
    /// Mean response time, seconds.
    pub mean_secs: f64,
    /// Median response time, seconds.
    pub p50_secs: f64,
    /// 95th-percentile response time, seconds.
    pub p95_secs: f64,
    /// 99th-percentile response time, seconds.
    pub p99_secs: f64,
    /// Worst response time, seconds.
    pub max_secs: f64,
}

impl serde_json::ToJson for LatencyStats {
    fn to_json(&self) -> serde_json::Value {
        serde_json::Value::Object(vec![
            ("count".into(), self.count.to_json()),
            ("mean_secs".into(), self.mean_secs.to_json()),
            ("p50_secs".into(), self.p50_secs.to_json()),
            ("p95_secs".into(), self.p95_secs.to_json()),
            ("p99_secs".into(), self.p99_secs.to_json()),
            ("max_secs".into(), self.max_secs.to_json()),
        ])
    }
}

impl std::fmt::Display for LatencyStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "mean {:.0} ms, p50 {:.0} ms, p95 {:.0} ms, p99 {:.0} ms, max {:.1} s",
            self.mean_secs * 1e3,
            self.p50_secs * 1e3,
            self.p95_secs * 1e3,
            self.p99_secs * 1e3,
            self.max_secs,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_collector_summarizes_to_zeros() {
        let c = LatencyCollector::new();
        assert!(c.is_empty());
        assert_eq!(c.summarize(), LatencyStats::default());
    }

    #[test]
    fn percentiles_of_known_distribution() {
        let mut c = LatencyCollector::new();
        for i in 1..=100 {
            c.record(i as f64);
        }
        let s = c.summarize();
        assert_eq!(s.count, 100);
        assert!((s.mean_secs - 50.5).abs() < 1e-9);
        assert_eq!(s.p50_secs, 51.0);
        assert_eq!(s.p95_secs, 96.0);
        assert_eq!(s.p99_secs, 100.0);
        assert_eq!(s.max_secs, 100.0);
    }

    #[test]
    fn local_answers_cost_only_processing() {
        let mut c = LatencyCollector::new();
        c.record_exchanges(&LinkModel::wan(), 0, 0);
        let s = c.summarize();
        assert!((s.max_secs - LOCAL_PROCESS_SECS).abs() < 1e-12);
    }

    #[test]
    fn shipped_query_pays_rtt_and_bandwidth() {
        let link = LinkModel {
            bandwidth_bytes_per_sec: 1e6,
            rtt_secs: 0.05,
        };
        let mut c = LatencyCollector::new();
        c.record_exchanges(&link, 1, 1_000_000);
        let s = c.summarize();
        assert!((s.max_secs - (LOCAL_PROCESS_SECS + 0.05 + 1.0)).abs() < 1e-9);
    }

    #[test]
    fn display_is_readable() {
        let mut c = LatencyCollector::new();
        c.record(0.25);
        let text = c.summarize().to_string();
        assert!(text.contains("mean 250 ms"), "{text}");
    }
}
