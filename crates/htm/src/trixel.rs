//! Trixels: the spherical triangles of the Hierarchical Triangular Mesh.
//!
//! The HTM divides the sphere into 8 base triangles (4 northern, 4 southern)
//! and refines each by recursive 4-way midpoint subdivision, exactly as in
//! Kunszt, Szalay & Thakar, *The Hierarchical Triangular Mesh* (2001) — the
//! index the SDSS `PhotoObj` table is partitioned by in the Delta paper.
//!
//! IDs use the standard sentinel encoding: a level-0 trixel has id `8 + b`
//! for base index `b` (so the binary representation starts with `1`), and a
//! child id is `parent * 4 + child_index`. The bit length therefore encodes
//! the depth.

use crate::vec3::Vec3;

/// Identifier of a trixel at any subdivision level.
///
/// The all-important property: `id.level()` and the full ancestor path are
/// recoverable from the integer alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TrixelId(u64);

impl TrixelId {
    /// Maximum supported subdivision level (keeps ids in 64 bits with slack).
    pub const MAX_LEVEL: u8 = 25;

    /// The id of base trixel `b` (0..8) at level 0.
    ///
    /// # Panics
    /// Panics if `b >= 8`.
    pub fn base(b: u8) -> Self {
        assert!(b < 8, "base trixel index must be in 0..8, got {b}");
        TrixelId(8 + u64::from(b))
    }

    /// All eight level-0 ids, in base order `S0..S3, N0..N3`.
    pub fn all_bases() -> [TrixelId; 8] {
        [
            Self::base(0),
            Self::base(1),
            Self::base(2),
            Self::base(3),
            Self::base(4),
            Self::base(5),
            Self::base(6),
            Self::base(7),
        ]
    }

    /// Raw integer value.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Reconstructs an id from its raw value.
    ///
    /// Returns `None` if the value is not a valid sentinel-encoded trixel id
    /// (too small, too deep, or with a malformed bit length).
    pub fn from_raw(v: u64) -> Option<Self> {
        if v < 8 {
            return None;
        }
        let bits = 64 - v.leading_zeros();
        // Valid ids have bit length 4 + 2*level.
        if !(bits - 4).is_multiple_of(2) {
            return None;
        }
        let level = (bits - 4) / 2;
        if level > u32::from(Self::MAX_LEVEL) {
            return None;
        }
        Some(TrixelId(v))
    }

    /// Subdivision depth: 0 for the eight base trixels.
    #[inline]
    pub fn level(self) -> u8 {
        let bits = 64 - self.0.leading_zeros();
        ((bits - 4) / 2) as u8
    }

    /// The `c`-th child (0..4) one level deeper.
    ///
    /// # Panics
    /// Panics if `c >= 4` or the id is already at [`Self::MAX_LEVEL`].
    pub fn child(self, c: u8) -> Self {
        assert!(c < 4, "child index must be in 0..4, got {c}");
        assert!(
            self.level() < Self::MAX_LEVEL,
            "cannot subdivide below MAX_LEVEL"
        );
        TrixelId(self.0 * 4 + u64::from(c))
    }

    /// The four children in order.
    pub fn children(self) -> [TrixelId; 4] {
        [self.child(0), self.child(1), self.child(2), self.child(3)]
    }

    /// Parent id, or `None` for a base trixel.
    pub fn parent(self) -> Option<Self> {
        if self.level() == 0 {
            None
        } else {
            Some(TrixelId(self.0 / 4))
        }
    }

    /// Index of this trixel within its parent (0..4); base index for level 0.
    pub fn child_index(self) -> u8 {
        if self.level() == 0 {
            (self.0 - 8) as u8
        } else {
            (self.0 % 4) as u8
        }
    }

    /// Whether `self` is `other` or a descendant of `other`.
    pub fn is_descendant_of(self, other: TrixelId) -> bool {
        let (mut id, target) = (self.0, other.0);
        while id > target {
            id /= 4;
        }
        id == target
    }
}

impl std::fmt::Display for TrixelId {
    /// Formats as the conventional HTM name, e.g. `N2013` or `S31`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let level = self.level();
        let mut digits = Vec::with_capacity(level as usize);
        let mut v = self.0;
        for _ in 0..level {
            digits.push((v % 4) as u8);
            v /= 4;
        }
        let base = (v - 8) as u8;
        let (hemi, b) = if base < 4 {
            ('S', base)
        } else {
            ('N', base - 4)
        };
        write!(f, "{hemi}{b}")?;
        for d in digits.iter().rev() {
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

/// A trixel with materialized corner vertices (unit vectors, CCW as seen
/// from outside the sphere).
#[derive(Clone, Copy, Debug)]
pub struct Trixel {
    /// Identifier encoding level and ancestry.
    pub id: TrixelId,
    /// Corner vertices, counterclockwise.
    pub v: [Vec3; 3],
}

/// The six vertices of the octahedron the HTM starts from.
const V0: Vec3 = Vec3::new(0.0, 0.0, 1.0); // north pole
const V1: Vec3 = Vec3::new(1.0, 0.0, 0.0);
const V2: Vec3 = Vec3::new(0.0, 1.0, 0.0);
const V3: Vec3 = Vec3::new(-1.0, 0.0, 0.0);
const V4: Vec3 = Vec3::new(0.0, -1.0, 0.0);
const V5: Vec3 = Vec3::new(0.0, 0.0, -1.0); // south pole

impl Trixel {
    /// The eight base trixels `S0..S3, N0..N3` (standard HTM orientation).
    pub fn bases() -> [Trixel; 8] {
        let mk = |b: u8, a: Vec3, c: Vec3, d: Vec3| Trixel {
            id: TrixelId::base(b),
            v: [a, c, d],
        };
        [
            mk(0, V1, V5, V2), // S0
            mk(1, V2, V5, V3), // S1
            mk(2, V3, V5, V4), // S2
            mk(3, V4, V5, V1), // S3
            mk(4, V1, V0, V4), // N0
            mk(5, V4, V0, V3), // N1
            mk(6, V3, V0, V2), // N2
            mk(7, V2, V0, V1), // N3
        ]
    }

    /// The base trixel with index `b` (0..8).
    pub fn base(b: u8) -> Trixel {
        Self::bases()[b as usize]
    }

    /// Midpoint 4-way subdivision, in the standard HTM child order:
    /// child 0 keeps `v0`, child 1 keeps `v1`, child 2 keeps `v2`,
    /// child 3 is the central triangle.
    pub fn subdivide(&self) -> [Trixel; 4] {
        let w0 = self.v[1].midpoint(self.v[2]);
        let w1 = self.v[0].midpoint(self.v[2]);
        let w2 = self.v[0].midpoint(self.v[1]);
        [
            Trixel {
                id: self.id.child(0),
                v: [self.v[0], w2, w1],
            },
            Trixel {
                id: self.id.child(1),
                v: [self.v[1], w0, w2],
            },
            Trixel {
                id: self.id.child(2),
                v: [self.v[2], w1, w0],
            },
            Trixel {
                id: self.id.child(3),
                v: [w0, w1, w2],
            },
        ]
    }

    /// Whether the unit vector `p` lies inside (or on the edge of) this
    /// spherical triangle.
    pub fn contains(&self, p: Vec3) -> bool {
        inside(&edge_crosses(&self.v), p)
    }

    /// Centroid direction of the triangle (normalized vertex mean).
    pub fn center(&self) -> Vec3 {
        (self.v[0] + self.v[1] + self.v[2]).normalized()
    }

    /// Bounding cone: `(center, angular_radius)` covering the whole trixel.
    pub fn bounding_cone(&self) -> (Vec3, f64) {
        let c = self.center();
        let r = self
            .v
            .iter()
            .map(|&vv| c.angular_distance(vv))
            .fold(0.0_f64, f64::max);
        (c, r)
    }

    /// Solid angle of the spherical triangle in steradians (Girard's
    /// theorem: spherical excess).
    pub fn solid_angle(&self) -> f64 {
        let ang = |a: Vec3, b: Vec3, c: Vec3| {
            // Angle at vertex a between arcs ab and ac.
            let ab = a.cross(b);
            let ac = a.cross(c);
            ab.cross(ac).norm().atan2(ab.dot(ac)).abs()
        };
        let a0 = ang(self.v[0], self.v[1], self.v[2]);
        let a1 = ang(self.v[1], self.v[2], self.v[0]);
        let a2 = ang(self.v[2], self.v[0], self.v[1]);
        (a0 + a1 + a2 - std::f64::consts::PI).max(0.0)
    }

    /// Minimum angular distance (radians) from a unit vector to any point
    /// of this trixel: 0 if the point is inside, else the distance to the
    /// nearest edge arc.
    pub fn min_distance_to(&self, p: Vec3) -> f64 {
        Geometry::new(*self).min_distance_to(p)
    }

    /// Maximum angular distance (radians) from a unit vector to any point
    /// of this trixel. For a convex spherical triangle the maximum is at a
    /// vertex unless the antipode lies inside.
    pub fn max_distance_to(&self, p: Vec3) -> f64 {
        Geometry::new(*self).max_distance_to(p)
    }

    /// Reconstructs the trixel for an arbitrary id by descending from its
    /// base ancestor.
    pub fn from_id(id: TrixelId) -> Trixel {
        let level = id.level();
        // Collect the child path from the id (most-significant first).
        let mut path = [0u8; TrixelId::MAX_LEVEL as usize];
        let mut v = id.raw();
        for i in (0..level).rev() {
            path[i as usize] = (v % 4) as u8;
            v /= 4;
        }
        let mut t = Trixel::base((v - 8) as u8);
        for &c in &path[..level as usize] {
            t = t.subdivide()[c as usize];
        }
        t
    }
}

/// The raw edge-plane normals `v0×v1`, `v1×v2`, `v2×v0`: edge `i` runs
/// from `v[i]` to `v[(i + 1) % 3]`.
fn edge_crosses(v: &[Vec3; 3]) -> [Vec3; 3] {
    [v[0].cross(v[1]), v[1].cross(v[2]), v[2].cross(v[0])]
}

/// Tolerance of [`inside`] on the unnormalised edge-cross dot product.
const INSIDE_EPS: f64 = -1e-12;

/// The point-in-triangle predicate over precomputed edge crosses.
fn inside(cross: &[Vec3; 3], p: Vec3) -> bool {
    // p is inside iff it is on the non-negative side of all three edge
    // planes. A small negative epsilon keeps shared edges owned by both
    // candidates so descent never gets stuck on boundary points.
    cross[0].dot(p) >= INSIDE_EPS && cross[1].dot(p) >= INSIDE_EPS && cross[2].dot(p) >= INSIDE_EPS
}

/// The unit normal of an edge's great circle, or `None` for a degenerate
/// edge (coincident endpoints).
fn unit_normal(n: Vec3) -> Option<Vec3> {
    let n_norm = n.norm();
    if n_norm < 1e-15 {
        return None;
    }
    Some(Vec3::new(n.x / n_norm, n.y / n_norm, n.z / n_norm))
}

/// A trixel with its edge planes precomputed: the raw crosses
/// [`Trixel::contains`] tests, the unit normals [`arc_distance`]
/// projects onto, and each edge's sliver. Built once per node of a
/// [`crate::Partition`]'s tree and per trixel a region test meets
/// elsewhere, so the predicates below are the only copy of the sphere
/// geometry.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Geometry {
    trixel: Trixel,
    cross: [Vec3; 3],
    normal: [Option<Vec3>; 3],
    sliver: [f64; 3],
}

impl Geometry {
    pub(crate) fn new(trixel: Trixel) -> Self {
        let cross = edge_crosses(&trixel.v);
        Geometry {
            trixel,
            cross,
            normal: cross.map(unit_normal),
            sliver: cross.map(|c| -INSIDE_EPS / c.norm()),
        }
    }

    /// The corner vertices, counterclockwise.
    pub(crate) fn vertices(&self) -> &[Vec3; 3] {
        &self.trixel.v
    }

    /// Edge `i`'s unit normal, pointing into the trixel, or `None` for a
    /// degenerate edge.
    pub(crate) fn normals(&self) -> &[Option<Vec3>; 3] {
        &self.normal
    }

    /// Edge `i`'s sliver: the angle `1e-12 / |cross_i|` by which
    /// [`Self::contains`]'s tolerance admits points outside the edge.
    /// It also bounds, ten thousand times over, how far the computed edge
    /// plane that [`arc_distance`] projects onto can miss the edge's own
    /// vertices: about `1e-16 / |cross_i|`, the cross product's rounding
    /// error over its length.
    pub(crate) fn slivers(&self) -> &[f64; 3] {
        &self.sliver
    }

    /// The widest of the three slivers.
    pub(crate) fn widest_sliver(&self) -> f64 {
        self.sliver[0].max(self.sliver[1]).max(self.sliver[2])
    }

    /// [`Trixel::contains`].
    pub(crate) fn contains(&self, p: Vec3) -> bool {
        inside(&self.cross, p)
    }

    /// [`Trixel::min_distance_to`].
    pub(crate) fn min_distance_to(&self, p: Vec3) -> f64 {
        if self.contains(p) {
            return 0.0;
        }
        let mut d = f64::INFINITY;
        for i in 0..3 {
            d = d.min(distance_to_arc(
                p,
                self.trixel.v[i],
                self.trixel.v[(i + 1) % 3],
                self.normal[i],
            ));
        }
        d
    }

    /// [`Trixel::max_distance_to`].
    pub(crate) fn max_distance_to(&self, p: Vec3) -> f64 {
        let anti = Vec3::new(-p.x, -p.y, -p.z);
        if self.contains(anti) {
            return std::f64::consts::PI;
        }
        self.trixel
            .v
            .iter()
            .map(|&v| p.angular_distance(v))
            .fold(0.0_f64, f64::max)
    }
}

/// Angular distance from `p` to the great-circle arc from `a` to `b`
/// (all unit vectors). Exact: projects `p` onto the arc's circle and
/// clamps to the segment.
pub fn arc_distance(p: Vec3, a: Vec3, b: Vec3) -> f64 {
    distance_to_arc(p, a, b, unit_normal(a.cross(b)))
}

/// [`arc_distance`] given the arc's [`unit_normal`].
fn distance_to_arc(p: Vec3, a: Vec3, b: Vec3, n: Option<Vec3>) -> f64 {
    let Some(n) = n else {
        // Degenerate arc (a == b): distance to the point.
        return p.angular_distance(a);
    };
    // Projection of p onto the circle's plane, renormalized to the sphere.
    let proj = Vec3::new(
        p.x - n.x * p.dot(n),
        p.y - n.y * p.dot(n),
        p.z - n.z * p.dot(n),
    );
    if proj.norm() > 1e-15 {
        let c = proj.normalized();
        // c lies on the arc iff it is on the a-side of b and b-side of a.
        let on_arc = a.cross(c).dot(n) >= -1e-12 && c.cross(b).dot(n) >= -1e-12;
        if on_arc {
            return p.angular_distance(c);
        }
    }
    p.angular_distance(a).min(p.angular_distance(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arc_distance_basics() {
        let a = Vec3::from_radec_deg(0.0, 0.0);
        let b = Vec3::from_radec_deg(90.0, 0.0);
        // Point above the middle of the equatorial arc.
        let p = Vec3::from_radec_deg(45.0, 10.0);
        assert!((arc_distance(p, a, b) - 10.0f64.to_radians()).abs() < 1e-9);
        // Point beyond the endpoint: distance to the endpoint.
        let p2 = Vec3::from_radec_deg(120.0, 0.0);
        assert!((arc_distance(p2, a, b) - 30.0f64.to_radians()).abs() < 1e-9);
        // Point on the arc: zero.
        let p3 = Vec3::from_radec_deg(30.0, 0.0);
        assert!(arc_distance(p3, a, b) < 1e-12);
    }

    #[test]
    fn min_distance_zero_inside_positive_outside() {
        let t = Trixel::base(4); // N0
        let inside = t.center();
        assert_eq!(t.min_distance_to(inside), 0.0);
        let (ra, dec) = t.center().to_radec_deg();
        let outside = Vec3::from_radec_deg((ra + 180.0) % 360.0, -dec);
        let d = t.min_distance_to(outside);
        assert!(d > 0.5, "antipodal point must be far: {d}");
        // Consistency: min <= distance to every vertex.
        for &v in &t.v {
            assert!(d <= outside.angular_distance(v) + 1e-12);
        }
    }

    #[test]
    fn max_distance_is_pi_when_antipode_inside() {
        let t = Trixel::base(0);
        let p = Vec3::new(-t.center().x, -t.center().y, -t.center().z);
        assert!((t.max_distance_to(p) - std::f64::consts::PI).abs() < 1e-12);
        // And bounded by pi in general.
        let q = Vec3::from_radec_deg(10.0, 10.0);
        assert!(t.max_distance_to(q) <= std::f64::consts::PI);
        assert!(t.max_distance_to(q) >= t.min_distance_to(q));
    }

    #[test]
    fn base_ids_and_levels() {
        for b in 0..8 {
            let id = TrixelId::base(b);
            assert_eq!(id.level(), 0);
            assert_eq!(id.child_index(), b);
            assert_eq!(id.parent(), None);
        }
    }

    #[test]
    fn child_parent_round_trip() {
        let id = TrixelId::base(5).child(2).child(0).child(3);
        assert_eq!(id.level(), 3);
        assert_eq!(id.child_index(), 3);
        assert_eq!(
            id.parent().unwrap().parent().unwrap().parent().unwrap(),
            TrixelId::base(5)
        );
        assert!(id.is_descendant_of(TrixelId::base(5)));
        assert!(!id.is_descendant_of(TrixelId::base(4)));
    }

    #[test]
    fn from_raw_validation() {
        assert_eq!(TrixelId::from_raw(7), None);
        assert_eq!(TrixelId::from_raw(8), Some(TrixelId::base(0)));
        // bit length 5 is malformed (between level 0 and level 1)
        assert_eq!(TrixelId::from_raw(16), None);
        assert_eq!(TrixelId::from_raw(32), Some(TrixelId::base(0).child(0)));
    }

    #[test]
    fn display_names() {
        assert_eq!(TrixelId::base(0).to_string(), "S0");
        assert_eq!(TrixelId::base(7).to_string(), "N3");
        assert_eq!(TrixelId::base(6).child(1).child(3).to_string(), "N213");
    }

    #[test]
    fn bases_cover_sphere() {
        // Every direction must be inside at least one base trixel.
        let bases = Trixel::bases();
        for i in 0..100 {
            for j in 0..50 {
                let ra = i as f64 * 3.6;
                let dec = -89.0 + j as f64 * 3.6;
                let p = Vec3::from_radec_deg(ra, dec);
                assert!(
                    bases.iter().any(|t| t.contains(p)),
                    "point ({ra},{dec}) not covered"
                );
            }
        }
    }

    #[test]
    fn children_partition_parent() {
        let t = Trixel::base(2);
        let kids = t.subdivide();
        // Sample points in parent: each must be in >=1 child; points outside
        // the parent must not be claimed by its children.
        for i in 0..200 {
            let ra = (i as f64 * 17.77) % 360.0;
            let dec = ((i as f64 * 7.31) % 180.0) - 90.0;
            let p = Vec3::from_radec_deg(ra, dec);
            let in_parent = t.contains(p);
            let in_children = kids.iter().filter(|k| k.contains(p)).count();
            if in_parent {
                assert!(in_children >= 1, "interior point missing from children");
            } else {
                // strictly exterior points (away from the shared boundary)
                let (c, r) = t.bounding_cone();
                if c.angular_distance(p) > r + 0.05 {
                    assert_eq!(in_children, 0, "exterior point claimed by child");
                }
            }
        }
    }

    #[test]
    fn solid_angles_sum_to_sphere() {
        let total: f64 = Trixel::bases().iter().map(|t| t.solid_angle()).sum();
        assert!((total - 4.0 * std::f64::consts::PI).abs() < 1e-9);
        // and one more level
        let total2: f64 = Trixel::bases()
            .iter()
            .flat_map(|t| t.subdivide())
            .map(|t| t.solid_angle())
            .sum();
        assert!((total2 - 4.0 * std::f64::consts::PI).abs() < 1e-9);
    }

    #[test]
    fn from_id_matches_descent() {
        let base = Trixel::base(3);
        let k = base.subdivide()[1].subdivide()[3];
        let rebuilt = Trixel::from_id(k.id);
        for i in 0..3 {
            assert!(k.v[i].approx_eq(rebuilt.v[i], 1e-15));
        }
    }

    #[test]
    fn bounding_cone_contains_all_vertices() {
        let t = Trixel::base(1).subdivide()[3];
        let (c, r) = t.bounding_cone();
        for &v in &t.v {
            assert!(c.angular_distance(v) <= r + 1e-12);
        }
    }
}
