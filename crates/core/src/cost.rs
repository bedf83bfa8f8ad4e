//! Network-traffic cost accounting.
//!
//! Delta's only objective is minimizing bytes moved between cache and
//! repository (§3). [`Cost`] is a byte count with GB-friendly display;
//! [`CostBreakdown`] splits it by the paper's three communication
//! mechanisms; [`CostLedger`] is the running account a simulation writes
//! and every figure reads.

/// A network-traffic cost in bytes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cost(pub u64);

impl Cost {
    /// Zero cost.
    pub const ZERO: Cost = Cost(0);

    /// The cost in raw bytes.
    #[inline]
    pub fn bytes(self) -> u64 {
        self.0
    }

    /// The cost in (decimal) gigabytes.
    pub fn gb(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, o: Cost) -> Cost {
        Cost(self.0.saturating_sub(o.0))
    }
}

impl std::ops::Add for Cost {
    type Output = Cost;
    fn add(self, o: Cost) -> Cost {
        Cost(self.0 + o.0)
    }
}

impl std::ops::AddAssign for Cost {
    fn add_assign(&mut self, o: Cost) {
        self.0 += o.0;
    }
}

impl std::iter::Sum for Cost {
    fn sum<I: Iterator<Item = Cost>>(iter: I) -> Cost {
        Cost(iter.map(|c| c.0).sum())
    }
}

impl std::fmt::Display for Cost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0 >= 10_000_000 {
            write!(f, "{:.2} GB", self.gb())
        } else if self.0 >= 10_000 {
            write!(f, "{:.2} MB", self.0 as f64 / 1e6)
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

/// Costs split by communication mechanism.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CostBreakdown {
    /// Bytes of query results shipped from the server.
    pub query_ship: Cost,
    /// Bytes of update content shipped to the cache.
    pub update_ship: Cost,
    /// Bytes of whole objects bulk-loaded into the cache.
    pub load: Cost,
}

impl CostBreakdown {
    /// Total network traffic.
    pub fn total(&self) -> Cost {
        self.query_ship + self.update_ship + self.load
    }
}

/// The running account of a simulation run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CostLedger {
    /// Byte costs by mechanism.
    pub breakdown: CostBreakdown,
    /// Queries shipped to the server.
    pub shipped_queries: u64,
    /// Queries answered at the cache.
    pub local_answers: u64,
    /// Update ranges shipped (one per object per shipping decision).
    pub update_ships: u64,
    /// Objects loaded.
    pub loads: u64,
    /// Objects evicted.
    pub evictions: u64,
}

impl CostLedger {
    /// Total charged bytes.
    pub fn total(&self) -> Cost {
        self.breakdown.total()
    }

    /// Fraction of queries answered locally.
    pub fn hit_rate(&self) -> f64 {
        let n = self.shipped_queries + self.local_answers;
        if n == 0 {
            0.0
        } else {
            self.local_answers as f64 / n as f64
        }
    }

    /// Folds another account into this one (e.g. per-shard totals).
    pub fn absorb(&mut self, other: &CostLedger) {
        self.breakdown.query_ship += other.breakdown.query_ship;
        self.breakdown.update_ship += other.breakdown.update_ship;
        self.breakdown.load += other.breakdown.load;
        self.shipped_queries += other.shipped_queries;
        self.local_answers += other.local_answers;
        self.update_ships += other.update_ships;
        self.loads += other.loads;
        self.evictions += other.evictions;
    }
}

impl serde_json::ToJson for Cost {
    fn to_json(&self) -> serde_json::Value {
        self.0.to_json()
    }
}

impl serde_json::ToJson for CostBreakdown {
    fn to_json(&self) -> serde_json::Value {
        serde_json::Value::Object(vec![
            ("query_ship".into(), self.query_ship.to_json()),
            ("update_ship".into(), self.update_ship.to_json()),
            ("load".into(), self.load.to_json()),
        ])
    }
}

impl serde_json::ToJson for CostLedger {
    fn to_json(&self) -> serde_json::Value {
        serde_json::Value::Object(vec![
            ("breakdown".into(), self.breakdown.to_json()),
            ("shipped_queries".into(), self.shipped_queries.to_json()),
            ("local_answers".into(), self.local_answers.to_json()),
            ("update_ships".into(), self.update_ships.to_json()),
            ("loads".into(), self.loads.to_json()),
            ("evictions".into(), self.evictions.to_json()),
        ])
    }
}

/// Looks up a required member of a JSON object — the shared helper for
/// this crate's hand-rolled `FromJson` impls.
pub(crate) fn json_field<'v>(
    v: &'v serde_json::Value,
    name: &str,
) -> Result<&'v serde_json::Value, serde_json::Error> {
    v.get(name)
        .ok_or_else(|| serde_json::Error::msg(format!("missing field `{name}`")))
}

use json_field as field;

impl serde_json::FromJson for Cost {
    fn from_json(v: &serde_json::Value) -> Result<Self, serde_json::Error> {
        Ok(Cost(u64::from_json(v)?))
    }
}

impl serde_json::FromJson for CostBreakdown {
    fn from_json(v: &serde_json::Value) -> Result<Self, serde_json::Error> {
        Ok(CostBreakdown {
            query_ship: Cost::from_json(field(v, "query_ship")?)?,
            update_ship: Cost::from_json(field(v, "update_ship")?)?,
            load: Cost::from_json(field(v, "load")?)?,
        })
    }
}

impl serde_json::FromJson for CostLedger {
    fn from_json(v: &serde_json::Value) -> Result<Self, serde_json::Error> {
        Ok(CostLedger {
            breakdown: CostBreakdown::from_json(field(v, "breakdown")?)?,
            shipped_queries: u64::from_json(field(v, "shipped_queries")?)?,
            local_answers: u64::from_json(field(v, "local_answers")?)?,
            update_ships: u64::from_json(field(v, "update_ships")?)?,
            loads: u64::from_json(field(v, "loads")?)?,
            evictions: u64::from_json(field(v, "evictions")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_scales() {
        assert_eq!(Cost(5).to_string(), "5 B");
        assert_eq!(Cost(25_000).to_string(), "0.03 MB");
        assert_eq!(Cost(2_500_000_000).to_string(), "2.50 GB");
    }

    #[test]
    fn arithmetic() {
        let a = Cost(10) + Cost(5);
        assert_eq!(a, Cost(15));
        let mut b = Cost(1);
        b += Cost(2);
        assert_eq!(b.bytes(), 3);
        let s: Cost = [Cost(1), Cost(2), Cost(3)].into_iter().sum();
        assert_eq!(s, Cost(6));
        assert_eq!(Cost(5).saturating_sub(Cost(9)), Cost::ZERO);
    }

    #[test]
    fn breakdown_totals() {
        let b = CostBreakdown {
            query_ship: Cost(1),
            update_ship: Cost(2),
            load: Cost(3),
        };
        assert_eq!(b.total(), Cost(6));
    }

    #[test]
    fn ledger_hit_rate() {
        let mut l = CostLedger::default();
        assert_eq!(l.hit_rate(), 0.0);
        l.shipped_queries = 3;
        l.local_answers = 1;
        assert!((l.hit_rate() - 0.25).abs() < 1e-12);
    }
}
