//! Sky regions: the spatial footprints of queries.
//!
//! SDSS-style queries specify a region of sky (a cone around a position, an
//! RA/Dec rectangle, a great-circle stripe scanned by the telescope, or the
//! whole sky). Delta maps each query to the set of data objects (trixels)
//! it touches; this module supplies the conservative region/trixel
//! intersection tests used for that mapping.
//!
//! The tests are *conservative*: they may report an intersection where there
//! is none (by using bounding cones), but never miss a real one. For cache
//! decisions over-approximation is semantically safe — a query is simply
//! associated with a superset of objects.
//!
//! A descent over many trixels prepares its region once (a rectangle's
//! bounding cone, a band's window, the decision rules' trigonometry).
//! [`crate::Partition`]'s walk then settles most trixels with a few dot
//! products against stored vertices and edge normals — a "certainly yes"
//! or "certainly no" that carries margins wide enough to agree with the
//! exact predicate bit for bit — and runs the exact predicate (6–9
//! `atan2`/`sqrt`) only on the rest.
//! [`Region::intersects`] stays a prepare-and-exact-test with no rules,
//! so it can serve as the reference they are checked against.

use crate::trixel::{Geometry, Trixel};
use crate::vec3::Vec3;
use serde::{Deserialize, Serialize};
use std::f64::consts::FRAC_PI_2;

/// A region on the celestial sphere.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub enum Region {
    /// All directions within `radius_rad` of `center` (a spherical cap).
    Cone {
        /// Cap axis (unit vector).
        center: Vec3,
        /// Angular radius in radians, in `[0, pi]`.
        radius_rad: f64,
    },
    /// An RA/Dec aligned rectangle. `ra_min` may exceed `ra_max`, meaning
    /// the range wraps through RA = 0.
    RaDecRect {
        /// Western edge, degrees in `[0, 360)`.
        ra_min: f64,
        /// Eastern edge, degrees in `[0, 360)`.
        ra_max: f64,
        /// Southern edge, degrees in `[-90, 90]`.
        dec_min: f64,
        /// Northern edge, degrees in `[-90, 90]`.
        dec_max: f64,
    },
    /// A band of width `half_width_rad` around a great circle with the given
    /// pole — the footprint of a telescope scan along the circle.
    GreatCircleBand {
        /// Pole of the great circle (unit vector).
        pole: Vec3,
        /// Half-width of the band in radians.
        half_width_rad: f64,
    },
    /// The entire sphere.
    All,
}

impl Region {
    /// A cone from RA/Dec degrees and a radius in degrees.
    pub fn cone_deg(ra_deg: f64, dec_deg: f64, radius_deg: f64) -> Self {
        Region::Cone {
            center: Vec3::from_radec_deg(ra_deg, dec_deg),
            radius_rad: radius_deg.to_radians(),
        }
    }

    /// Whether the region contains the unit vector `p`.
    pub fn contains(&self, p: Vec3) -> bool {
        match *self {
            Region::Cone { center, radius_rad } => center.angular_distance(p) <= radius_rad,
            Region::RaDecRect {
                ra_min,
                ra_max,
                dec_min,
                dec_max,
            } => {
                let (ra, dec) = p.to_radec_deg();
                let ra_ok = if ra_min <= ra_max {
                    ra >= ra_min && ra <= ra_max
                } else {
                    ra >= ra_min || ra <= ra_max
                };
                ra_ok && dec >= dec_min && dec <= dec_max
            }
            Region::GreatCircleBand {
                pole,
                half_width_rad,
            } => (std::f64::consts::FRAC_PI_2 - pole.angular_distance(p)).abs() <= half_width_rad,
            Region::All => true,
        }
    }

    /// A bounding cone `(center, radius)` that contains the whole region.
    ///
    /// For bands and the full sphere the radius is `pi` (everything).
    pub fn bounding_cone(&self) -> (Vec3, f64) {
        match *self {
            Region::Cone { center, radius_rad } => (center, radius_rad),
            Region::RaDecRect {
                ra_min,
                ra_max,
                dec_min,
                dec_max,
            } => {
                let span = if ra_min <= ra_max {
                    ra_max - ra_min
                } else {
                    360.0 - ra_min + ra_max
                };
                let mid_ra = (ra_min + span / 2.0) % 360.0;
                let mid_dec = (dec_min + dec_max) / 2.0;
                let c = Vec3::from_radec_deg(mid_ra, mid_dec);
                // Radius: max distance to the four corners (sufficient for
                // rectangles below hemispheric size; clamp to pi otherwise).
                let mut r: f64 = 0.0;
                for &ra in &[ra_min, ra_max] {
                    for &dec in &[dec_min, dec_max] {
                        r = r.max(c.angular_distance(Vec3::from_radec_deg(ra, dec)));
                    }
                }
                // Guard: if the rect spans a pole, include it.
                if dec_max >= 89.999 {
                    r = r.max(c.angular_distance(Vec3::new(0.0, 0.0, 1.0)));
                }
                if dec_min <= -89.999 {
                    r = r.max(c.angular_distance(Vec3::new(0.0, 0.0, -1.0)));
                }
                if span >= 180.0 {
                    r = std::f64::consts::PI;
                }
                (c, r.min(std::f64::consts::PI))
            }
            Region::GreatCircleBand { pole, .. } => (pole, std::f64::consts::PI),
            Region::All => (Vec3::new(0.0, 0.0, 1.0), std::f64::consts::PI),
        }
    }

    /// Intersection test against a trixel.
    ///
    /// Exact for cones and great-circle bands (point-to-arc geometry);
    /// tightly conservative for RA/Dec rectangles (the rectangle is
    /// replaced by its bounding cone, which over-covers only by the
    /// corner-vs-cap sliver). Guaranteed to return `true` whenever a real
    /// overlap exists.
    pub fn intersects(&self, t: &Trixel) -> bool {
        self.prepare().intersects(t)
    }

    /// Readies the region for many trixel tests: a rectangle's bounding
    /// cone, a band's distance window and the decision rules' thresholds
    /// are computed here, once.
    pub(crate) fn prepare(&self) -> PreparedRegion {
        match *self {
            Region::All => PreparedRegion::All,
            Region::Cone { center, radius_rad } => PreparedRegion::cap(center, radius_rad),
            Region::RaDecRect { .. } => {
                // Tight conservative: exact cone-vs-trixel on the
                // rectangle's bounding cone.
                let (center, radius) = self.bounding_cone();
                PreparedRegion::cap(center, radius)
            }
            Region::GreatCircleBand {
                pole,
                half_width_rad,
            } => PreparedRegion::Band {
                pole,
                lo: FRAC_PI_2 - half_width_rad,
                hi: FRAC_PI_2 + half_width_rad,
                rules: Rules::band(pole, half_width_rad),
            },
        }
    }
}

/// Angle the decision rules add to a region's radius or half-width
/// before a "certainly no", and take from it before a "certainly yes",
/// so that float error cannot make them disagree with the exact
/// predicate.
const MARGIN_RAD: f64 = 1e-9;

/// Slack on their dot-product comparisons, for the same reason.
const DOT_SLACK: f64 = 1e-12;

/// How far from unit length a region's axis may be for the decision
/// rules to apply. They work on the axis scaled to unit length, while
/// the exact predicate's `contains` tolerance scales with the raw axis;
/// within this bound that difference stays far below the margins.
const UNIT_TOLERANCE: f64 = 1e-9;

/// A [`Region`] readied by [`Region::prepare`] for repeated trixel tests.
#[derive(Clone, Copy, Debug)]
pub(crate) enum PreparedRegion {
    All,
    /// Trixels within `radius` of `center`: a cone, or a rectangle's
    /// bounding cone.
    Cone {
        center: Vec3,
        radius: f64,
        rules: Option<Rules>,
    },
    /// Trixels whose distances from `pole` reach into `[lo, hi]`.
    Band {
        pole: Vec3,
        lo: f64,
        hi: f64,
        rules: Option<Rules>,
    },
}

/// The dot-product view of a region for [`PreparedRegion::decide`]: its
/// axis scaled to unit length (the exact test does not need that; a dot
/// product does) and two thresholds. `None` for an axis that is not unit
/// length within [`UNIT_TOLERANCE`]; the rules then settle nothing.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Rules {
    axis: Vec3,
    /// `sin R' + 1e-12` while the widened angle `R'` is below `π/2`,
    /// else `+∞`: a point whose dot product with a great circle's pole is
    /// below minus this lies more than `R'` from the circle, on the far
    /// side.
    beyond: f64,
    /// The narrowed angle `R'' = R − 1e-9` as a dot-product threshold:
    /// `cos R'' + 1e-12` for a cone (a vertex with a larger dot product
    /// with the axis lies within `R''` of it) and `sin R'' − 1e-12` for a
    /// band (a vertex with a smaller `|dot|` with the pole lies within
    /// `R''` of the circle); `±∞`, so that nothing passes, when `R''` is
    /// not positive.
    within: f64,
}

impl Rules {
    fn cone(center: Vec3, radius: f64) -> Option<Self> {
        let narrowed = radius - MARGIN_RAD;
        let within = if narrowed > 0.0 {
            narrowed.cos() + DOT_SLACK
        } else {
            f64::INFINITY
        };
        Self::new(center, radius, within)
    }

    fn band(pole: Vec3, half_width: f64) -> Option<Self> {
        let narrowed = half_width - MARGIN_RAD;
        let within = if narrowed > 0.0 {
            narrowed.sin() - DOT_SLACK
        } else {
            f64::NEG_INFINITY
        };
        Self::new(pole, half_width, within)
    }

    fn new(axis: Vec3, angle: f64, within: f64) -> Option<Self> {
        let n = axis.norm();
        let widened = angle + MARGIN_RAD;
        ((n - 1.0).abs() <= UNIT_TOLERANCE).then(|| Rules {
            axis: Vec3::new(axis.x / n, axis.y / n, axis.z / n),
            beyond: if widened < FRAC_PI_2 {
                widened.sin() + DOT_SLACK
            } else {
                f64::INFINITY
            },
            within,
        })
    }
}

impl PreparedRegion {
    fn cap(center: Vec3, radius: f64) -> Self {
        PreparedRegion::Cone {
            center,
            radius,
            rules: Rules::cone(center, radius),
        }
    }

    /// [`Region::intersects`].
    pub(crate) fn intersects(&self, t: &Trixel) -> bool {
        self.intersects_geometry(&Geometry::new(*t))
    }

    /// The exact region/trixel predicate.
    pub(crate) fn intersects_geometry(&self, g: &Geometry) -> bool {
        match *self {
            PreparedRegion::All => true,
            PreparedRegion::Cone { center, radius, .. } => g.min_distance_to(center) <= radius,
            PreparedRegion::Band { pole, lo, hi, .. } => {
                // The band is the locus of points at distance
                // [pi/2 - w, pi/2 + w] from the pole; the trixel spans
                // distances [min, max] from the pole. Intersect iff the
                // intervals overlap.
                g.min_distance_to(pole) <= hi && g.max_distance_to(pole) >= lo
            }
        }
    }

    /// What [`Self::intersects_geometry`] answers, where a few dot
    /// products against the trixel's vertices and edge normals settle
    /// it; `None` where they do not.
    ///
    /// `a` is the region's unit axis, `R` its radius or half-width,
    /// `R' = R + 1e-9` and `R'' = R − 1e-9`; `s_i` is edge `i`'s sliver
    /// and `s` the widest. Each rule keeps a margin of `1e-9` rad, `1e-12`
    /// on the dot product and the slivers against the exact test's float
    /// error and tolerances:
    ///
    /// * cone, no: `R' < π/2` and `n_i·a < −(sin R' + s_i) − 1e-12` for
    ///   an edge normal `n_i`. HTM edges are minor arcs, so the trixel
    ///   lies in each edge's inner hemisphere; the cone lies more than its
    ///   radius beyond that edge's circle, and its centre outside
    ///   `contains`' tolerance.
    /// * cone, yes: the trixel contains the centre (the exact test's own
    ///   first step), or `a·v > cos R'' + 1e-12 + s` for a vertex `v`:
    ///   the distance to the trixel is at most the distance to any
    ///   vertex.
    /// * band, yes: with `d_i = a·v_i`, `max d > 1e-12 + s` and
    ///   `min d < −1e-12 − s`, so an edge crosses the circle; or
    ///   `|d_i| < sin R'' − 1e-12 − s` for a vertex, which is then inside
    ///   the band.
    /// * band, no: `R' < π/2` and `min d > sin R' + 1e-12 + s` or
    ///   `max d < −(sin R' + 1e-12 + s)`. A trixel point is a normalised
    ///   non-negative combination `Σλ_i v_i / |Σλ_i v_i|`, and
    ///   `|Σλ_i v_i| <= Σλ_i`, so when every `d_i` has one sign the
    ///   point's dot product with `a` is at least as far from zero as the
    ///   nearest vertex's: the whole trixel misses the band.
    pub(crate) fn decide(&self, g: &Geometry) -> Option<bool> {
        match *self {
            PreparedRegion::All => Some(true),
            PreparedRegion::Cone {
                center,
                radius,
                rules,
            } => {
                let rules = rules?;
                let beyond_edge = g
                    .normals()
                    .iter()
                    .zip(g.slivers())
                    .any(|(n, s)| n.is_some_and(|n| n.dot(rules.axis) < -(rules.beyond + s)));
                if beyond_edge {
                    return Some(false);
                }
                if g.contains(center) {
                    return Some(0.0 <= radius);
                }
                let within = rules.within + g.widest_sliver();
                let near_vertex = g.vertices().iter().any(|v| v.dot(rules.axis) > within);
                near_vertex.then_some(true)
            }
            PreparedRegion::Band { rules, .. } => {
                let rules = rules?;
                let s = g.widest_sliver();
                let d = g.vertices().map(|v| v.dot(rules.axis));
                let min = d[0].min(d[1]).min(d[2]);
                let max = d[0].max(d[1]).max(d[2]);
                if max > DOT_SLACK + s && min < -(DOT_SLACK + s) {
                    return Some(true);
                }
                if min > rules.beyond + s || max < -(rules.beyond + s) {
                    return Some(false);
                }
                d.iter().any(|d| d.abs() < rules.within - s).then_some(true)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cone_contains_center() {
        let r = Region::cone_deg(45.0, 30.0, 1.0);
        assert!(r.contains(Vec3::from_radec_deg(45.0, 30.0)));
        assert!(r.contains(Vec3::from_radec_deg(45.5, 30.0)));
        assert!(!r.contains(Vec3::from_radec_deg(50.0, 30.0)));
    }

    #[test]
    fn rect_wrapping_ra() {
        let r = Region::RaDecRect {
            ra_min: 350.0,
            ra_max: 10.0,
            dec_min: -5.0,
            dec_max: 5.0,
        };
        assert!(r.contains(Vec3::from_radec_deg(355.0, 0.0)));
        assert!(r.contains(Vec3::from_radec_deg(5.0, 0.0)));
        assert!(!r.contains(Vec3::from_radec_deg(180.0, 0.0)));
    }

    #[test]
    fn band_contains_equator_points() {
        let band = Region::GreatCircleBand {
            pole: Vec3::new(0.0, 0.0, 1.0),
            half_width_rad: 0.05,
        };
        assert!(band.contains(Vec3::from_radec_deg(123.0, 0.0)));
        assert!(band.contains(Vec3::from_radec_deg(10.0, 2.0)));
        assert!(!band.contains(Vec3::from_radec_deg(10.0, 10.0)));
    }

    #[test]
    fn intersects_never_misses_contained_point() {
        // If a region contains a point, the trixel holding that point must
        // intersect the region.
        let regions = [
            Region::cone_deg(120.0, 40.0, 3.0),
            Region::RaDecRect {
                ra_min: 10.0,
                ra_max: 30.0,
                dec_min: -20.0,
                dec_max: 20.0,
            },
            Region::GreatCircleBand {
                pole: Vec3::from_radec_deg(0.0, 60.0),
                half_width_rad: 0.1,
            },
            Region::All,
        ];
        for region in &regions {
            for i in 0..400 {
                let ra = (i as f64 * 11.31) % 360.0;
                let dec = ((i as f64 * 5.17) % 180.0) - 90.0;
                let p = Vec3::from_radec_deg(ra, dec);
                if region.contains(p) {
                    let t = crate::mesh::lookup(p, 3);
                    let trix = Trixel::from_id(t);
                    assert!(
                        region.intersects(&trix),
                        "region {region:?} contains ({ra},{dec}) but reports no \
                         intersection with its trixel"
                    );
                }
            }
        }
    }

    #[test]
    fn all_region_intersects_everything() {
        for t in Trixel::bases() {
            assert!(Region::All.intersects(&t));
        }
    }

    #[test]
    fn decision_rules_settle_clear_cases() {
        let t = Trixel::from_id(crate::mesh::lookup(Vec3::from_radec_deg(40.0, 20.0), 5));
        let g = Geometry::new(t);
        let (ra, dec) = t.center().to_radec_deg();
        let decide = |region: Region| region.prepare().decide(&g);
        // A tiny cone inside, one on the far side of the sky, one that
        // reaches a vertex but not the centre.
        assert_eq!(decide(Region::cone_deg(ra, dec, 0.02)), Some(true));
        assert_eq!(decide(Region::cone_deg(ra + 180.0, -dec, 1.0)), Some(false));
        let (vra, vdec) = t.v[0].to_radec_deg();
        assert_eq!(decide(Region::cone_deg(vra + 0.5, vdec, 0.6)), Some(true));
        // A band whose circle runs through the trixel, one that holds a
        // vertex, and one whose circle is a quarter turn away.
        let through = Region::GreatCircleBand {
            pole: Vec3::from_radec_deg(ra, dec - 90.0),
            half_width_rad: 0.0,
        };
        assert_eq!(decide(through), Some(true));
        let holding = Region::GreatCircleBand {
            pole: Vec3::from_radec_deg(vra, vdec - 89.0),
            half_width_rad: 2f64.to_radians(),
        };
        assert_eq!(decide(holding), Some(true));
        let away = Region::GreatCircleBand {
            pole: t.center(),
            half_width_rad: 0.1,
        };
        assert_eq!(decide(away), Some(false));
    }

    mod decision_props {
        use super::*;
        use crate::trixel::TrixelId;
        use proptest::prelude::*;
        use std::f64::consts::PI;

        /// A region drawn anywhere, or tangent to the drawn trixel within
        /// `nudge` of touching it, where the rules' margins are tested.
        #[derive(Clone, Copy, Debug)]
        enum Draw {
            Cone {
                ra: f64,
                dec: f64,
                radius: f64,
            },
            /// Centre `radius · (1 + nudge)` outside edge `edge`'s
            /// circle, beside the edge's midpoint.
            ConeOffEdge {
                edge: usize,
                radius: f64,
                nudge: f64,
            },
            /// Centre `radius · (1 + nudge)` beyond vertex `vertex`,
            /// straight away from the trixel's centre.
            ConeOffVertex {
                vertex: usize,
                radius: f64,
                nudge: f64,
            },
            Rect {
                ra: f64,
                dec: f64,
                span: f64,
                height: f64,
            },
            Band {
                ra: f64,
                dec: f64,
                half_width: f64,
            },
            /// The circle passes `half_width + nudge` from vertex
            /// `vertex`, on the side away from the trixel's centre.
            BandOffVertex {
                vertex: usize,
                half_width: f64,
                nudge: f64,
            },
        }

        fn arb_trixel() -> impl Strategy<Value = Trixel> {
            (0u8..8, prop::collection::vec(0u8..4, 0..=10)).prop_map(|(base, path)| {
                let id = path
                    .into_iter()
                    .fold(TrixelId::base(base), |id, c| id.child(c));
                Trixel::from_id(id)
            })
        }

        fn arb_angle() -> impl Strategy<Value = f64> {
            prop_oneof![Just(0.0), 0.0..1e-3f64, 0.0..0.4f64, 0.0..1.6f64, 0.0..=PI]
        }

        fn arb_nudge() -> impl Strategy<Value = f64> {
            prop_oneof![Just(-1e-8), Just(0.0), Just(1e-8)]
        }

        fn arb_draw() -> impl Strategy<Value = Draw> {
            let radec = (0.0..360.0f64, -90.0..=90.0f64);
            prop_oneof![
                (radec.clone(), arb_angle()).prop_map(|((ra, dec), radius)| Draw::Cone {
                    ra,
                    dec,
                    radius
                }),
                (0usize..3, arb_angle(), arb_nudge()).prop_map(|(edge, radius, nudge)| {
                    Draw::ConeOffEdge {
                        edge,
                        radius,
                        nudge,
                    }
                }),
                (0usize..3, arb_angle(), arb_nudge()).prop_map(|(vertex, radius, nudge)| {
                    Draw::ConeOffVertex {
                        vertex,
                        radius,
                        nudge,
                    }
                }),
                (radec.clone(), 0.0..200.0f64, 0.0..40.0f64).prop_map(
                    |((ra, dec), span, height)| Draw::Rect {
                        ra,
                        dec,
                        span,
                        height,
                    }
                ),
                (radec, arb_angle()).prop_map(|((ra, dec), half_width)| Draw::Band {
                    ra,
                    dec,
                    half_width,
                }),
                (0usize..3, arb_angle(), arb_nudge()).prop_map(|(vertex, half_width, nudge)| {
                    Draw::BandOffVertex {
                        vertex,
                        half_width,
                        nudge,
                    }
                }),
            ]
        }

        fn place(draw: Draw, t: &Trixel) -> Region {
            // The unit tangent at vertex `i` pointing at the trixel's centre.
            let inward = |i: usize| t.v[i].cross(t.center()).cross(t.v[i]).normalized();
            match draw {
                Draw::Cone { ra, dec, radius } => Region::Cone {
                    center: Vec3::from_radec_deg(ra, dec),
                    radius_rad: radius,
                },
                Draw::ConeOffEdge {
                    edge,
                    radius,
                    nudge,
                } => {
                    let (a, b) = (t.v[edge], t.v[(edge + 1) % 3]);
                    let (mid, normal) = (a.midpoint(b), a.cross(b).normalized());
                    let off = radius * (1.0 + nudge);
                    Region::Cone {
                        center: mid * off.cos() + normal * -off.sin(),
                        radius_rad: radius,
                    }
                }
                Draw::ConeOffVertex {
                    vertex,
                    radius,
                    nudge,
                } => {
                    let off = radius * (1.0 + nudge);
                    Region::Cone {
                        center: t.v[vertex] * off.cos() + inward(vertex) * -off.sin(),
                        radius_rad: radius,
                    }
                }
                Draw::Rect {
                    ra,
                    dec,
                    span,
                    height,
                } => Region::RaDecRect {
                    ra_min: ra,
                    ra_max: (ra + span) % 360.0,
                    dec_min: dec,
                    dec_max: (dec + height).min(90.0),
                },
                Draw::Band {
                    ra,
                    dec,
                    half_width,
                } => Region::GreatCircleBand {
                    pole: Vec3::from_radec_deg(ra, dec),
                    half_width_rad: half_width,
                },
                Draw::BandOffVertex {
                    vertex,
                    half_width,
                    nudge,
                } => {
                    // The pole tilts toward the trixel, so the vertex sits
                    // `off` from the circle and the rest farther.
                    let off = half_width + nudge;
                    Region::GreatCircleBand {
                        pole: t.v[vertex] * off.sin() + inward(vertex) * off.cos(),
                        half_width_rad: half_width,
                    }
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4096))]

            /// The decision rules either leave a trixel to the exact
            /// predicate or give exactly its answer, on trixels at levels
            /// 0–10 and regions anywhere or tangent to them within 1e-8.
            #[test]
            fn decide_agrees_with_the_exact_predicate(t in arb_trixel(), draw in arb_draw()) {
                let region = place(draw, &t);
                let prepared = region.prepare();
                let g = Geometry::new(t);
                if let Some(answer) = prepared.decide(&g) {
                    prop_assert_eq!(
                        answer,
                        prepared.intersects_geometry(&g),
                        "{:?} on {} ({:?})",
                        region,
                        t.id,
                        draw
                    );
                }
            }
        }
    }
}
