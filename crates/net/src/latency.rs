//! Link latency model: turning bytes moved into seconds waited.
//!
//! The paper optimizes network *traffic* and discusses response time
//! qualitatively (§4: "queries for which updates need to be applied may
//! be delayed … some updates can be preshipped"). To study that tradeoff
//! we price each synchronous transfer with the classic first-order WAN
//! model: one round-trip of setup latency plus bytes over bandwidth.
//! This is consistent with the paper's cost assumption — TCP transfer
//! cost scales linearly with size once transfers are much larger than a
//! frame (§3, citing Stevens).

/// A point-to-point link with fixed bandwidth and round-trip time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkModel {
    /// Usable bandwidth in bytes per second.
    pub bandwidth_bytes_per_sec: f64,
    /// Round-trip time in seconds, charged once per synchronous message
    /// exchange.
    pub rtt_secs: f64,
}

impl LinkModel {
    /// A wide-area research link: ~1 Gb/s usable, 50 ms RTT — the
    /// cache-to-repository path of the paper's architecture (the cache is
    /// "far" from the repository, §3).
    pub fn wan() -> Self {
        Self {
            bandwidth_bytes_per_sec: 125e6,
            rtt_secs: 0.050,
        }
    }

    /// A local-area link: 10 Gb/s, 0.5 ms RTT — clients sit next to the
    /// cache.
    pub fn lan() -> Self {
        Self {
            bandwidth_bytes_per_sec: 1.25e9,
            rtt_secs: 0.0005,
        }
    }

    /// Seconds to complete one synchronous exchange moving `bytes`.
    pub fn transfer_secs(&self, bytes: u64) -> f64 {
        self.rtt_secs + bytes as f64 / self.bandwidth_bytes_per_sec.max(f64::MIN_POSITIVE)
    }

    /// Seconds for `messages` synchronous exchanges moving `bytes` in
    /// total (each message pays the RTT; the payload pays bandwidth
    /// once).
    pub fn exchange_secs(&self, messages: u32, bytes: u64) -> f64 {
        self.rtt_secs * messages as f64
            + bytes as f64 / self.bandwidth_bytes_per_sec.max(f64::MIN_POSITIVE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_is_rtt_plus_serialization() {
        let l = LinkModel {
            bandwidth_bytes_per_sec: 1000.0,
            rtt_secs: 0.1,
        };
        assert!((l.transfer_secs(500) - 0.6).abs() < 1e-12);
        assert!((l.transfer_secs(0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn exchanges_pay_rtt_per_message() {
        let l = LinkModel {
            bandwidth_bytes_per_sec: 1000.0,
            rtt_secs: 0.1,
        };
        assert!((l.exchange_secs(3, 1000) - (0.3 + 1.0)).abs() < 1e-12);
        assert_eq!(l.exchange_secs(0, 0), 0.0);
    }

    #[test]
    fn wan_is_slower_than_lan() {
        assert!(
            LinkModel::wan().transfer_secs(1_000_000) > LinkModel::lan().transfer_secs(1_000_000)
        );
    }

    #[test]
    fn larger_transfers_take_longer() {
        let l = LinkModel::wan();
        assert!(l.transfer_secs(2_000_000) > l.transfer_secs(1_000_000));
    }
}
