//! Traffic accounting.
//!
//! The paper's sole figure of merit is network traffic in bytes (§3:
//! "network traffic costs are assumed proportional to the size of the data
//! being communicated"). A [`TrafficMeter`] counts every byte that crosses
//! a connection by message class, so engine-reported costs can be
//! *audited* against bytes that actually crossed the wire.

use std::sync::atomic::{AtomicU64, Ordering};

/// Classes of traffic on the cache↔server link, mirroring the paper's
/// three communication mechanisms plus result return.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// A query shipped from cache to server (the query text itself is
    /// negligible; the *result* bytes dominate and are what ν(q) charges).
    QueryShip,
    /// Update content shipped from server to cache.
    UpdateShip,
    /// A whole object bulk-copied to the cache.
    ObjectLoad,
    /// Anything else (control, acks); not charged by the paper's model.
    Control,
}

impl TrafficClass {
    /// All classes, in display order.
    pub const ALL: [TrafficClass; 4] = [
        TrafficClass::QueryShip,
        TrafficClass::UpdateShip,
        TrafficClass::ObjectLoad,
        TrafficClass::Control,
    ];

    fn index(self) -> usize {
        match self {
            TrafficClass::QueryShip => 0,
            TrafficClass::UpdateShip => 1,
            TrafficClass::ObjectLoad => 2,
            TrafficClass::Control => 3,
        }
    }
}

/// Thread-safe byte counters per traffic class.
#[derive(Debug, Default)]
pub struct TrafficMeter {
    bytes: [AtomicU64; 4],
    messages: [AtomicU64; 4],
}

/// A point-in-time copy of a meter's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrafficSnapshot {
    /// Bytes per class, indexed as [`TrafficClass::ALL`].
    pub bytes: [u64; 4],
    /// Message counts per class.
    pub messages: [u64; 4],
}

impl TrafficSnapshot {
    /// Bytes recorded for one class.
    pub fn bytes_for(&self, class: TrafficClass) -> u64 {
        self.bytes[class.index()]
    }

    /// Total bytes across query shipping, update shipping and object
    /// loading — the paper's network traffic cost.
    pub fn charged_total(&self) -> u64 {
        self.bytes[0] + self.bytes[1] + self.bytes[2]
    }

    /// Total bytes including control traffic.
    pub fn grand_total(&self) -> u64 {
        self.bytes.iter().sum()
    }
}

impl TrafficMeter {
    /// Creates a zeroed meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `bytes` of traffic in `class`.
    pub fn record(&self, class: TrafficClass, bytes: u64) {
        let i = class.index();
        self.bytes[i].fetch_add(bytes, Ordering::Relaxed);
        self.messages[i].fetch_add(1, Ordering::Relaxed);
    }

    /// Copies the counters out.
    pub fn snapshot(&self) -> TrafficSnapshot {
        let mut s = TrafficSnapshot::default();
        for i in 0..TrafficClass::ALL.len() {
            s.bytes[i] = self.bytes[i].load(Ordering::Relaxed);
            s.messages[i] = self.messages[i].load(Ordering::Relaxed);
        }
        s
    }

    /// Total charged bytes (query + update + load).
    pub fn charged_total(&self) -> u64 {
        self.snapshot().charged_total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn records_by_class() {
        let m = TrafficMeter::new();
        m.record(TrafficClass::QueryShip, 100);
        m.record(TrafficClass::QueryShip, 50);
        m.record(TrafficClass::UpdateShip, 7);
        m.record(TrafficClass::Control, 1);
        let s = m.snapshot();
        assert_eq!(s.bytes_for(TrafficClass::QueryShip), 150);
        assert_eq!(s.messages[0], 2);
        assert_eq!(s.charged_total(), 157);
        assert_eq!(s.grand_total(), 158);
    }

    #[test]
    fn concurrent_recording_is_exact() {
        let m = Arc::new(TrafficMeter::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    m.record(TrafficClass::ObjectLoad, 3);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            m.snapshot().bytes_for(TrafficClass::ObjectLoad),
            8 * 10_000 * 3
        );
    }
}
