//! Density-adaptive partitioning of the sky into data objects.
//!
//! The Delta paper partitions the SDSS `PhotoObj` table with the HTM index
//! at a chosen level and treats each spatial partition as one cacheable
//! *data object* ("roughly equi-area data objects", §6.1). Varying the
//! level yields the object-set sizes of Fig. 8(b): 10, 20, 68, 91, 134,
//! 285, 532 objects.
//!
//! Because the sky's data density is not uniform, the paper's object counts
//! are not powers of `8·4^l`; they come from subdividing dense regions
//! further and ignoring partitions with no data. [`Partition`] reproduces
//! this: starting from the 8 base trixels it repeatedly splits the
//! heaviest leaf (by a caller-supplied density functional) until the number
//! of *non-empty* leaves reaches a target.
//!
//! Once built, the tree is fixed, so [`Partition`] stores it: a flat
//! arena of nodes carrying each trixel's vertices, edge planes and
//! slivers. [`Partition::objects_for_region`] walks it with the region
//! prepared once. The region module's dot-product rules settle a node
//! either way only where the exact predicate would answer the same (the
//! margin argument is on `PreparedRegion::decide`), and the exact
//! predicate decides the nodes they leave open, so the answer is
//! bit-for-bit the exact predicate's.

use crate::region::{PreparedRegion, Region};
use crate::trixel::{Geometry, Trixel, TrixelId};
use crate::vec3::Vec3;
use std::collections::BinaryHeap;

/// A partition of the sphere into leaf trixels, each a cacheable object.
///
/// Leaves are assigned dense indices `0..len()` in trixel-id order, which
/// downstream crates use as object ids.
///
/// The partition's tree — the 8 base trixels and every split node down to
/// the leaves — is built once, as a flat arena, when the partition is
/// made. [`Self::locate`] and [`Self::objects_for_region`] walk it without
/// re-subdividing a trixel or hashing an id.
#[derive(Clone, Debug)]
pub struct Partition {
    leaves: Vec<Trixel>,
    weights: Vec<f64>,
    /// The tree: nodes `0..8` are the base trixels; a split node's four
    /// children sit at consecutive indices in child order.
    nodes: Vec<Node>,
}

/// One trixel of the partition's tree, with the geometry every region
/// test and point location needs precomputed.
#[derive(Clone, Debug)]
struct Node {
    geometry: Geometry,
    link: Link,
}

#[derive(Clone, Copy, Debug)]
enum Link {
    /// Index of the first of the four children.
    Split(usize),
    /// Object index of the leaf.
    Leaf(usize),
}

/// Heap entry ordering split candidates by weight.
struct Candidate {
    weight: f64,
    trixel: Trixel,
}

impl PartialEq for Candidate {
    fn eq(&self, o: &Self) -> bool {
        self.weight == o.weight && self.trixel.id == o.trixel.id
    }
}
impl Eq for Candidate {}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(o))
    }
}
impl Ord for Candidate {
    fn cmp(&self, o: &Self) -> std::cmp::Ordering {
        // Max-heap by weight; tie-break on id for determinism.
        self.weight
            .total_cmp(&o.weight)
            .then_with(|| self.trixel.id.cmp(&o.trixel.id))
    }
}

impl Partition {
    /// The uniform partition at a fixed HTM level (`8·4^level` leaves).
    pub fn uniform(level: u8) -> Self {
        let mut leaves = Vec::new();
        let mut stack: Vec<Trixel> = Trixel::bases().to_vec();
        while let Some(t) = stack.pop() {
            if t.id.level() == level {
                leaves.push(t);
            } else {
                stack.extend(t.subdivide());
            }
        }
        Self::finish(leaves, |_| 1.0)
    }

    /// Builds a density-adaptive partition with (at least) `target` leaves
    /// carrying non-negligible weight.
    ///
    /// `weight` maps a trixel to its data mass (e.g. integrated sky
    /// density); it need not be normalized. Splitting stops once the number
    /// of leaves with weight above `1e-9 ×` the total reaches `target`, or
    /// when no leaf can be split further.
    ///
    /// # Panics
    /// Panics if `target < 8` (the base trixels cannot be merged).
    pub fn adaptive(weight: impl Fn(&Trixel) -> f64, target: usize) -> Self {
        assert!(target >= 8, "target must be at least the 8 base trixels");
        let mut heap: BinaryHeap<Candidate> = Trixel::bases()
            .iter()
            .map(|&t| Candidate {
                weight: weight(&t).max(0.0),
                trixel: t,
            })
            .collect();
        let total: f64 = heap.iter().map(|c| c.weight).sum();
        let negligible = total * 1e-9;
        let mut done: Vec<Candidate> = Vec::new();

        let live = |heap: &BinaryHeap<Candidate>, done: &Vec<Candidate>| {
            heap.iter()
                .chain(done.iter())
                .filter(|c| c.weight > negligible)
                .count()
        };

        while live(&heap, &done) < target {
            let Some(top) = heap.pop() else { break };
            if top.trixel.id.level() >= TrixelId::MAX_LEVEL {
                done.push(top);
                continue;
            }
            if top.weight <= negligible {
                // Heaviest leaf is negligible: no further split can create
                // live leaves; stop.
                heap.push(top);
                break;
            }
            for k in top.trixel.subdivide() {
                let w = weight(&k).max(0.0);
                heap.push(Candidate {
                    weight: w,
                    trixel: k,
                });
            }
        }

        let leaves: Vec<Trixel> = heap.into_iter().chain(done).map(|c| c.trixel).collect();
        Self::finish(leaves, |t| weight(t).max(0.0))
    }

    fn finish(mut leaves: Vec<Trixel>, weight: impl Fn(&Trixel) -> f64) -> Self {
        leaves.sort_unstable_by_key(|t| t.id);
        let weights = leaves.iter().map(&weight).collect();
        // Descend from the bases with the same `subdivide` every trixel
        // elsewhere comes from, so each node's vertices carry exactly the
        // bits `Trixel::from_id` gives its id. A node is a leaf iff its id
        // is one of the leaves; every other node on the way is split.
        let mut nodes = Vec::new();
        let mut pending: Vec<Trixel> = Trixel::bases().to_vec();
        let mut next = 0;
        while next < pending.len() {
            let t = pending[next];
            next += 1;
            let link = match leaves.binary_search_by_key(&t.id, |l| l.id) {
                Ok(leaf) => Link::Leaf(leaf),
                Err(_) => {
                    let first = pending.len();
                    pending.extend(t.subdivide());
                    Link::Split(first)
                }
            };
            nodes.push(Node {
                geometry: Geometry::new(t),
                link,
            });
        }
        Self {
            leaves,
            weights,
            nodes,
        }
    }

    /// Number of leaf objects.
    pub fn len(&self) -> usize {
        self.leaves.len()
    }

    /// Whether the partition has no leaves (never true for a valid build).
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// The leaf trixels in object-index order.
    pub fn leaves(&self) -> &[Trixel] {
        &self.leaves
    }

    /// The weight assigned to each leaf at build time, in index order.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Replaces the per-leaf weights with a new functional — e.g. split
    /// the sky by *area* (the paper's "roughly equi-area data objects")
    /// but then weight each leaf by its data *mass*, which is what object
    /// sizes and update densities derive from.
    pub fn reweight(&mut self, weight: impl Fn(&Trixel) -> f64) {
        self.weights = self.leaves.iter().map(|t| weight(t).max(0.0)).collect();
    }

    /// Number of leaves whose weight exceeds `threshold`.
    pub fn live_count(&self, threshold: f64) -> usize {
        self.weights.iter().filter(|&&w| w > threshold).count()
    }

    /// Object index of the leaf containing the unit vector `p`.
    ///
    /// Descends from the base trixels into the first child that contains
    /// `p` (a point on a shared edge belongs to the earlier child).
    pub fn locate(&self, p: Vec3) -> usize {
        let first_holding = |range: std::ops::Range<usize>| {
            range
                .into_iter()
                .find(|&i| self.nodes[i].geometry.contains(p))
                .expect("children cover their parent, and the bases the sphere")
        };
        let mut at = first_holding(0..8);
        loop {
            match self.nodes[at].link {
                Link::Leaf(leaf) => return leaf,
                Link::Split(first) => at = first_holding(first..first + 4),
            }
        }
    }

    /// Object indices of all leaves the region (conservatively) overlaps,
    /// sorted ascending.
    ///
    /// A leaf is in the answer iff [`Region::intersects`] holds on it and
    /// on each of its ancestors.
    pub fn objects_for_region(&self, region: &Region) -> Vec<usize> {
        self.objects_for_region_as(region, |leaf| leaf)
    }

    /// [`Self::objects_for_region`] with each object index mapped through
    /// `id` (monotone, so the answer stays sorted) into one vector.
    pub fn objects_for_region_as<T: Ord>(
        &self,
        region: &Region,
        mut id: impl FnMut(usize) -> T,
    ) -> Vec<T> {
        let region = region.prepare();
        let mut out = Vec::new();
        for base in 0..8 {
            self.collect(base, &region, &mut |leaf| out.push(id(leaf)));
        }
        out.sort_unstable();
        out.dedup();
        // A generated trace keeps every query's answer for its lifetime:
        // hand it over without the push-growth slack.
        out.shrink_to_fit();
        out
    }

    fn collect(&self, at: usize, region: &PreparedRegion, out: &mut impl FnMut(usize)) {
        let node = &self.nodes[at];
        // A few dot products settle most nodes; the exact predicate
        // decides the rest.
        let hit = region
            .decide(&node.geometry)
            .unwrap_or_else(|| region.intersects_geometry(&node.geometry));
        if !hit {
            return;
        }
        match node.link {
            Link::Leaf(leaf) => out(leaf),
            Link::Split(first) => {
                for child in first..first + 4 {
                    self.collect(child, region, out);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A lumpy test density: two Gaussian blobs.
    fn density(t: &Trixel) -> f64 {
        let c = t.center();
        let b1 = Vec3::from_radec_deg(30.0, 10.0);
        let b2 = Vec3::from_radec_deg(210.0, -40.0);
        let g = |b: Vec3| (-(c.angular_distance(b).powi(2)) / 0.08).exp();
        t.solid_angle() * (0.05 + g(b1) + 0.6 * g(b2))
    }

    #[test]
    fn uniform_partition_counts() {
        assert_eq!(Partition::uniform(0).len(), 8);
        assert_eq!(Partition::uniform(2).len(), 128);
    }

    #[test]
    fn adaptive_reaches_target() {
        for target in [10usize, 20, 68, 91, 134] {
            let p = Partition::adaptive(density, target);
            assert!(
                p.len() >= target,
                "target {target}: got only {} leaves",
                p.len()
            );
            // Overshoot is at most 3 (one split).
            assert!(p.len() <= target + 3, "target {target}: {} leaves", p.len());
        }
    }

    #[test]
    fn locate_agrees_with_leaf_containment() {
        let p = Partition::adaptive(density, 68);
        for i in 0..500 {
            let ra = (i as f64 * 7.39) % 360.0;
            let dec = ((i as f64 * 3.17) % 180.0) - 90.0;
            let v = Vec3::from_radec_deg(ra, dec);
            let idx = p.locate(v);
            assert!(p.leaves()[idx].contains(v), "({ra},{dec}) not in its leaf");
        }
    }

    #[test]
    fn leaves_tile_sphere() {
        // Total solid angle of leaves equals the sphere.
        let p = Partition::adaptive(density, 91);
        let total: f64 = p.leaves().iter().map(|t| t.solid_angle()).sum();
        assert!((total - 4.0 * std::f64::consts::PI).abs() < 1e-6);
    }

    #[test]
    fn region_cover_includes_located_object() {
        let p = Partition::adaptive(density, 68);
        let region = Region::cone_deg(30.0, 10.0, 2.0);
        let objs = p.objects_for_region(&region);
        let idx = p.locate(Vec3::from_radec_deg(30.0, 10.0));
        assert!(objs.contains(&idx));
        assert!(!objs.is_empty() && objs.len() < p.len());
    }

    #[test]
    fn dense_regions_get_smaller_leaves() {
        let p = Partition::adaptive(density, 134);
        // The leaf at the dense blob should be deeper (smaller) than the
        // leaf at an empty spot.
        let dense = p.locate(Vec3::from_radec_deg(30.0, 10.0));
        let sparse = p.locate(Vec3::from_radec_deg(120.0, 60.0));
        assert!(
            p.leaves()[dense].id.level() > p.leaves()[sparse].id.level(),
            "dense leaf level {} vs sparse {}",
            p.leaves()[dense].id.level(),
            p.leaves()[sparse].id.level()
        );
    }

    #[test]
    #[should_panic(expected = "at least the 8")]
    fn adaptive_rejects_tiny_target() {
        Partition::adaptive(density, 4);
    }
}
