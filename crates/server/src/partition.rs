//! Catalog partitioning and query splitting, behind a pluggable
//! [`Partitioner`] trait.
//!
//! The server hash-partitions the object catalog over N shards. Two
//! partitioners are available:
//!
//! * [`RoundRobin`] — global id `g` lives on shard `g % N` as local id
//!   `g / N`. This is the original (PR-1) mapping, preserved
//!   byte-for-byte: every existing ledger pinned against it still holds.
//! * [`HashRing`] — weighted rendezvous (highest-random-weight) hashing
//!   with **bounded remap**: when the shard count grows from N to N+1,
//!   the only objects whose owner changes are the ones that move *to*
//!   the new shard (an expected 1/(N+1) of the catalog), which is what
//!   makes live resharding affordable. Local ids are the object's rank
//!   within its shard, so sub-catalogs stay dense.
//!
//! A query touching several shards is split into per-shard sub-queries
//! whose `result_bytes` are apportioned by the touched objects' catalog
//! sizes (largest-remainder rounding, so the shares sum exactly to the
//! original).
//!
//! Everything here is pure and deterministic, and the offline
//! [`crate::twin::Twin`] applies the *same* mapping event by event. That
//! is what makes the server (and the router tier above it) testable
//! against the in-process simulator: replaying a trace over TCP against
//! an N-shard deployment must produce, per shard, exactly the ledger
//! `sim::simulate` produces on that shard's sub-catalog and sub-trace.

use delta_storage::{ObjectCatalog, ObjectId};
use delta_workload::{QueryEvent, UpdateEvent};

/// Which [`Partitioner`] implementation a deployment runs. Carried in
/// configuration, the v4 `Hello` handshake and the bench metadata, so
/// every tier of a cluster can verify it routes with the same mapping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionerKind {
    /// The original `g % N` mapping ([`RoundRobin`]).
    RoundRobin,
    /// Weighted rendezvous hashing with bounded remap ([`HashRing`]).
    HashRing,
}

impl PartitionerKind {
    /// Parses a partitioner name (as accepted by `--partitioner`).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "rr" | "roundrobin" | "round-robin" => Ok(PartitionerKind::RoundRobin),
            "ring" | "hashring" | "hash-ring" => Ok(PartitionerKind::HashRing),
            other => Err(format!(
                "unknown partitioner {other:?}; expected rr or ring"
            )),
        }
    }

    /// Builds the partitioner for a catalog of `n_objects` over
    /// `n_shards` shards (equal weights for the ring).
    pub fn build(&self, n_shards: usize, n_objects: usize) -> Box<dyn Partitioner> {
        match self {
            PartitionerKind::RoundRobin => Box::new(RoundRobin::new(n_shards, n_objects)),
            PartitionerKind::HashRing => Box::new(HashRing::new(n_shards, n_objects)),
        }
    }
}

impl std::fmt::Display for PartitionerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionerKind::RoundRobin => write!(f, "rr"),
            PartitionerKind::HashRing => write!(f, "ring"),
        }
    }
}

/// A deterministic, invertible object partitioning over a fixed catalog.
///
/// The primitive methods define a bijection
/// `global id ↔ (shard, local id)` with dense local ids per shard; the
/// provided methods derive everything the serving layers need from that
/// bijection — sub-catalogs, cache-budget splits, query/update routing —
/// so any implementation automatically agrees with the offline
/// [`crate::twin::Twin`].
pub trait Partitioner: Send + Sync {
    /// Which implementation this is (wire / metadata identity).
    fn kind(&self) -> PartitionerKind;

    /// Number of shards.
    fn n_shards(&self) -> usize;

    /// Number of catalog objects the partitioner was built for.
    fn n_objects(&self) -> usize;

    /// The shard owning a global object id.
    fn shard_of(&self, o: ObjectId) -> usize;

    /// The local (per-shard dense) id of a global object id.
    fn local_id(&self, o: ObjectId) -> ObjectId;

    /// The global id of a shard-local object id.
    fn global_id(&self, shard: usize, local: ObjectId) -> ObjectId;

    /// Number of objects shard `shard` owns.
    fn shard_len(&self, shard: usize) -> usize;

    /// Builds shard `shard`'s sub-catalog of `catalog`.
    fn shard_catalog(&self, shard: usize, catalog: &ObjectCatalog) -> ObjectCatalog {
        let sizes: Vec<u64> = (0..self.shard_len(shard))
            .map(|l| catalog.size(self.global_id(shard, ObjectId(l as u32))))
            .collect();
        ObjectCatalog::from_sizes(&sizes)
    }

    /// Splits the configured total cache budget across shards,
    /// proportional to sub-catalog bytes (largest-remainder exact split).
    fn shard_cache_bytes(&self, total_cache: u64, catalog: &ObjectCatalog) -> Vec<u64> {
        let weights: Vec<u64> = (0..self.n_shards())
            .map(|s| self.shard_catalog(s, catalog).total_bytes())
            .collect();
        apportion(total_cache, &weights)
    }

    /// Splits a query (global ids) into `(shard, sub-query)` pairs with
    /// local ids and exactly-apportioned result bytes. Sub-queries come
    /// out in ascending shard order.
    fn split_query(&self, q: &QueryEvent, catalog: &ObjectCatalog) -> Vec<(usize, QueryEvent)> {
        let mut per_shard: Vec<Vec<ObjectId>> = vec![Vec::new(); self.n_shards()];
        for &o in &q.objects {
            per_shard[self.shard_of(o)].push(self.local_id(o));
        }
        let touched: Vec<usize> = (0..self.n_shards())
            .filter(|&s| !per_shard[s].is_empty())
            .collect();
        // Weight each touched shard by the catalog bytes of its touched
        // objects: bigger objects presumably contribute more result rows.
        let weights: Vec<u64> = touched
            .iter()
            .map(|&s| {
                per_shard[s]
                    .iter()
                    .map(|&l| catalog.size(self.global_id(s, l)))
                    .sum::<u64>()
                    .max(1)
            })
            .collect();
        let shares = apportion(q.result_bytes, &weights);
        touched
            .into_iter()
            .zip(shares)
            .map(|(s, result_bytes)| {
                (
                    s,
                    QueryEvent {
                        seq: q.seq,
                        objects: std::mem::take(&mut per_shard[s]),
                        result_bytes,
                        tolerance: q.tolerance,
                        kind: q.kind,
                    },
                )
            })
            .collect()
    }

    /// Maps an update (global id) to its `(shard, local update)`.
    fn split_update(&self, u: &UpdateEvent) -> (usize, UpdateEvent) {
        (
            self.shard_of(u.object),
            UpdateEvent {
                seq: u.seq,
                object: self.local_id(u.object),
                bytes: u.bytes,
            },
        )
    }
}

/// The round-robin object partitioning: `g % N`, preserved byte-for-byte
/// from the pre-trait `ShardMap`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundRobin {
    n_shards: u32,
    n_objects: u32,
}

impl RoundRobin {
    /// Creates a map over `n_shards` (at least 1) for a catalog of
    /// `n_objects`.
    pub fn new(n_shards: usize, n_objects: usize) -> Self {
        assert!(n_shards >= 1, "need at least one shard");
        assert!(n_shards <= u16::MAX as usize, "shard count exceeds u16");
        assert!(n_objects <= u32::MAX as usize, "catalog exceeds u32");
        RoundRobin {
            n_shards: n_shards as u32,
            n_objects: n_objects as u32,
        }
    }
}

impl Partitioner for RoundRobin {
    fn kind(&self) -> PartitionerKind {
        PartitionerKind::RoundRobin
    }

    fn n_shards(&self) -> usize {
        self.n_shards as usize
    }

    fn n_objects(&self) -> usize {
        self.n_objects as usize
    }

    fn shard_of(&self, o: ObjectId) -> usize {
        (o.0 % self.n_shards) as usize
    }

    fn local_id(&self, o: ObjectId) -> ObjectId {
        ObjectId(o.0 / self.n_shards)
    }

    fn global_id(&self, shard: usize, local: ObjectId) -> ObjectId {
        ObjectId(local.0 * self.n_shards + shard as u32)
    }

    fn shard_len(&self, shard: usize) -> usize {
        let n = self.n_shards as usize;
        (self.n_objects as usize + n - 1 - shard) / n
    }
}

/// Weighted rendezvous (highest-random-weight) partitioning.
///
/// Every `(object, shard)` pair gets a deterministic score
/// `-w_shard / ln(u)` where `u ∈ (0,1)` comes from a 64-bit mix of the
/// pair; the object lives on its highest-scoring shard. Because a
/// shard's scores do not depend on how many other shards exist, adding a
/// shard can only move objects *to* the new shard and removing one only
/// moves its own objects elsewhere — the bounded-remap property the
/// partition proptests pin.
///
/// The assignment tables are precomputed per catalog (`O(objects)`
/// memory), which is what makes local ids dense and the mapping
/// invertible like the round-robin one.
#[derive(Clone, Debug)]
pub struct HashRing {
    n_shards: u32,
    /// `owner[g]` — shard owning global id `g`.
    owner: Vec<u16>,
    /// `local[g]` — rank of `g` among its shard's objects.
    local: Vec<u32>,
    /// `members[s]` — global ids owned by shard `s`, ascending.
    members: Vec<Vec<u32>>,
}

impl HashRing {
    /// Equal-weight ring over `n_shards` for a catalog of `n_objects`.
    pub fn new(n_shards: usize, n_objects: usize) -> Self {
        Self::with_weights(&vec![1; n_shards], n_objects)
    }

    /// Weighted ring: shard `s` owns an expected
    /// `weights[s] / Σweights` share of the catalog.
    pub fn with_weights(weights: &[u64], n_objects: usize) -> Self {
        let n_shards = weights.len();
        assert!(n_shards >= 1, "need at least one shard");
        assert!(n_shards <= u16::MAX as usize, "shard count exceeds u16");
        assert!(
            weights.iter().any(|&w| w > 0),
            "at least one shard weight must be positive"
        );
        let mut owner = Vec::with_capacity(n_objects);
        let mut local = vec![0u32; n_objects];
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); n_shards];
        for g in 0..n_objects as u32 {
            let s = Self::owner_of(g, weights);
            owner.push(s as u16);
        }
        for (g, &s) in owner.iter().enumerate() {
            let shard = &mut members[s as usize];
            local[g] = shard.len() as u32;
            shard.push(g as u32);
        }
        HashRing {
            n_shards: n_shards as u32,
            owner,
            local,
            members,
        }
    }

    /// The rendezvous winner for global id `g` under `weights` —
    /// independent of catalog size and of every other shard's existence.
    fn owner_of(g: u32, weights: &[u64]) -> usize {
        let mut best = 0usize;
        let mut best_score = f64::NEG_INFINITY;
        for (s, &w) in weights.iter().enumerate() {
            if w == 0 {
                continue;
            }
            let score = Self::score(g, s as u32, w);
            if score > best_score {
                best_score = score;
                best = s;
            }
        }
        best
    }

    /// Weighted rendezvous score for one `(object, shard)` pair.
    fn score(g: u32, s: u32, weight: u64) -> f64 {
        let h = splitmix64(((g as u64) << 32) | s as u64);
        // Map the hash into the open interval (0,1): never exactly 0
        // (ln(0) = -inf) nor 1 (ln(1) = 0 would divide by zero).
        let u = (h as f64 + 1.0) / (u64::MAX as f64 + 2.0);
        -(weight as f64) / u.ln()
    }
}

impl Partitioner for HashRing {
    fn kind(&self) -> PartitionerKind {
        PartitionerKind::HashRing
    }

    fn n_shards(&self) -> usize {
        self.n_shards as usize
    }

    fn n_objects(&self) -> usize {
        self.owner.len()
    }

    fn shard_of(&self, o: ObjectId) -> usize {
        self.owner[o.index()] as usize
    }

    fn local_id(&self, o: ObjectId) -> ObjectId {
        ObjectId(self.local[o.index()])
    }

    fn global_id(&self, shard: usize, local: ObjectId) -> ObjectId {
        ObjectId(self.members[shard][local.index()])
    }

    fn shard_len(&self, shard: usize) -> usize {
        self.members[shard].len()
    }
}

/// SplitMix64 — the standard 64-bit finalizer; deterministic across
/// platforms, good avalanche for the rendezvous scores.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Splits `total` into shares proportional to `weights`, summing exactly
/// to `total` (largest-remainder method; ties go to the earlier entry).
pub fn apportion(total: u64, weights: &[u64]) -> Vec<u64> {
    if weights.is_empty() {
        return Vec::new();
    }
    let wsum: u128 = weights.iter().map(|&w| w as u128).sum();
    if wsum == 0 {
        let mut out = vec![0; weights.len()];
        out[0] = total;
        return out;
    }
    let mut shares: Vec<u64> = Vec::with_capacity(weights.len());
    let mut remainders: Vec<(u128, usize)> = Vec::with_capacity(weights.len());
    let mut assigned: u64 = 0;
    for (i, &w) in weights.iter().enumerate() {
        let num = total as u128 * w as u128;
        let share = (num / wsum) as u64;
        shares.push(share);
        assigned += share;
        remainders.push((num % wsum, i));
    }
    // Hand the leftover units to the largest remainders.
    remainders.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut leftover = total - assigned;
    for &(_, i) in &remainders {
        if leftover == 0 {
            break;
        }
        shares[i] += 1;
        leftover -= 1;
    }
    shares
}

#[cfg(test)]
mod tests {
    use super::*;
    use delta_workload::QueryKind;

    fn catalog() -> ObjectCatalog {
        ObjectCatalog::from_sizes(&[100, 200, 300, 400, 500, 600, 700])
    }

    /// Both partitioners over the same shape, for shared properties.
    fn both(n_shards: usize, n_objects: usize) -> Vec<Box<dyn Partitioner>> {
        vec![
            Box::new(RoundRobin::new(n_shards, n_objects)),
            Box::new(HashRing::new(n_shards, n_objects)),
        ]
    }

    #[test]
    fn round_robin_ids_are_inverse() {
        let map = RoundRobin::new(3, 100);
        for g in 0..100u32 {
            let o = ObjectId(g);
            let s = map.shard_of(o);
            let l = map.local_id(o);
            assert_eq!(map.global_id(s, l), o);
        }
        let map = RoundRobin::new(3, 7);
        assert_eq!(map.shard_len(0), 3); // 0, 3, 6
        assert_eq!(map.shard_len(1), 2); // 1, 4
        assert_eq!(map.shard_len(2), 2); // 2, 5
    }

    #[test]
    fn every_partitioner_is_a_dense_bijection() {
        for map in both(3, 100) {
            let mut seen = [false; 100];
            for s in 0..map.n_shards() {
                for l in 0..map.shard_len(s) {
                    let g = map.global_id(s, ObjectId(l as u32));
                    assert!(!seen[g.index()], "{g} assigned twice");
                    seen[g.index()] = true;
                    assert_eq!(map.shard_of(g), s);
                    assert_eq!(map.local_id(g), ObjectId(l as u32));
                }
            }
            assert!(seen.iter().all(|&b| b), "every object owned exactly once");
        }
    }

    #[test]
    fn hash_ring_remap_is_bounded_to_the_new_shard() {
        let before = HashRing::new(4, 500);
        let after = HashRing::new(5, 500);
        let mut moved = 0;
        for g in 0..500u32 {
            let o = ObjectId(g);
            if before.shard_of(o) != after.shard_of(o) {
                assert_eq!(after.shard_of(o), 4, "{o} moved between surviving shards");
                moved += 1;
            }
        }
        // Expected share is 1/5 of the catalog; allow generous slack.
        assert!(moved > 0, "a bigger ring must take some objects");
        assert!(moved < 250, "remap moved {moved}/500 objects — unbounded?");
    }

    #[test]
    fn hash_ring_weights_skew_ownership() {
        let ring = HashRing::with_weights(&[1, 9], 2_000);
        let small = ring.shard_len(0);
        let large = ring.shard_len(1);
        assert_eq!(small + large, 2_000);
        assert!(
            large > small * 4,
            "weight-9 shard owns {large}, weight-1 shard owns {small}"
        );
    }

    #[test]
    fn sub_catalogs_cover_everything_once() {
        let c = catalog();
        for map in both(3, c.len()) {
            // A ring shard can be empty on a tiny catalog; an empty
            // sub-catalog is unrepresentable (the server refuses such
            // configurations at startup), so only materialize occupied
            // shards — coverage must still be exact.
            let total: u64 = (0..3)
                .filter(|&s| map.shard_len(s) > 0)
                .map(|s| map.shard_catalog(s, &c).total_bytes())
                .sum();
            assert_eq!(total, c.total_bytes());
        }
        // Round-robin shard 0 owns global 0, 3, 6 — unchanged layout.
        let map = RoundRobin::new(3, c.len());
        let s0 = map.shard_catalog(0, &c);
        assert_eq!(s0.len(), 3);
        assert_eq!(s0.size(ObjectId(0)), 100);
        assert_eq!(s0.size(ObjectId(1)), 400);
        assert_eq!(s0.size(ObjectId(2)), 700);
    }

    #[test]
    fn apportion_is_exact_and_proportional() {
        assert_eq!(apportion(100, &[1, 1]), vec![50, 50]);
        assert_eq!(apportion(101, &[1, 1]), vec![51, 50]);
        assert_eq!(apportion(10, &[0, 0, 0]), vec![10, 0, 0]);
        let shares = apportion(1_000_003, &[3, 7, 11, 2]);
        assert_eq!(shares.iter().sum::<u64>(), 1_000_003);
        assert!(shares[2] > shares[1] && shares[1] > shares[0]);
    }

    #[test]
    fn split_query_preserves_bytes_and_objects() {
        let c = catalog();
        for map in both(3, c.len()) {
            let q = QueryEvent {
                seq: 9,
                objects: vec![ObjectId(0), ObjectId(1), ObjectId(3), ObjectId(5)],
                result_bytes: 1_000,
                tolerance: 4,
                kind: QueryKind::Range,
            };
            let subs = map.split_query(&q, &c);
            assert_eq!(subs.iter().map(|(_, s)| s.result_bytes).sum::<u64>(), 1_000);
            let mut returned = 0;
            for (s, sub) in &subs {
                assert_eq!(sub.seq, 9);
                assert_eq!(sub.tolerance, 4);
                assert_eq!(sub.kind, QueryKind::Range);
                for &l in &sub.objects {
                    assert_eq!(map.shard_of(map.global_id(*s, l)), *s);
                    returned += 1;
                }
            }
            assert_eq!(returned, 4, "every object routed exactly once");
        }
        // Round-robin layout pinned: shards 0 (objects 0,3), 1 (1), 2 (5).
        let map = RoundRobin::new(3, c.len());
        let q = QueryEvent {
            seq: 9,
            objects: vec![ObjectId(0), ObjectId(1), ObjectId(3), ObjectId(5)],
            result_bytes: 1_000,
            tolerance: 4,
            kind: QueryKind::Range,
        };
        let subs = map.split_query(&q, &c);
        assert_eq!(subs.len(), 3);
        let (s0, sub0) = &subs[0];
        assert_eq!(*s0, 0);
        assert_eq!(sub0.objects, vec![ObjectId(0), ObjectId(1)]); // global 0 and 3
    }

    #[test]
    fn single_shard_split_is_identity() {
        let c = catalog();
        for map in both(1, c.len()) {
            let q = QueryEvent {
                seq: 1,
                objects: vec![ObjectId(2), ObjectId(4)],
                result_bytes: 77,
                tolerance: 0,
                kind: QueryKind::Cone,
            };
            let subs = map.split_query(&q, &c);
            assert_eq!(subs.len(), 1);
            assert_eq!(subs[0].1, q);
        }
    }

    #[test]
    fn partitioner_kind_parse_round_trips() {
        for kind in [PartitionerKind::RoundRobin, PartitionerKind::HashRing] {
            assert_eq!(PartitionerKind::parse(&kind.to_string()), Ok(kind));
            assert_eq!(kind.build(3, 10).kind(), kind);
        }
        assert!(PartitionerKind::parse("mod").is_err());
    }
}
