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
//! bounding cone, a band's window, the cap prefilter's trigonometry);
//! [`Region::intersects`] is a prepare-and-test.

use crate::trixel::{Cap, Geometry, Trixel};
use crate::vec3::Vec3;
use serde::{Deserialize, Serialize};
use std::f64::consts::{FRAC_PI_2, PI};

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
    /// cone, a band's distance window and the prefilter's trigonometry are
    /// computed here, once.
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
                widened: Widened::new(pole, half_width_rad),
            },
        }
    }
}

/// Angle the cap prefilter adds to a region before it may reject a
/// trixel, so that float error in either test cannot turn an overlap the
/// exact predicate would report into a rejection.
const PREFILTER_MARGIN_RAD: f64 = 1e-9;

/// Slack on the prefilter's dot-product comparison, for the same reason.
const PREFILTER_DOT_SLACK: f64 = 1e-12;

/// A [`Region`] readied by [`Region::prepare`] for repeated trixel tests.
#[derive(Clone, Copy, Debug)]
pub(crate) enum PreparedRegion {
    All,
    /// Trixels within `radius` of `center`: a cone, or a rectangle's
    /// bounding cone.
    Cone {
        center: Vec3,
        radius: f64,
        widened: Option<Widened>,
    },
    /// Trixels whose distances from `pole` reach into `[lo, hi]`.
    Band {
        pole: Vec3,
        lo: f64,
        hi: f64,
        widened: Option<Widened>,
    },
}

/// The prefilter's view of a region: its axis scaled to unit length (the
/// exact test does not need that; a dot product does) and its radius or
/// half-width plus [`PREFILTER_MARGIN_RAD`], with that angle's sine and
/// cosine. `None` for a zero axis, which the prefilter then never rejects.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Widened {
    axis: Vec3,
    angle: f64,
    sin: f64,
    cos: f64,
}

impl Widened {
    fn new(axis: Vec3, angle: f64) -> Option<Self> {
        let n = axis.norm();
        (n > 0.0).then(|| {
            let angle = angle + PREFILTER_MARGIN_RAD;
            let (sin, cos) = angle.sin_cos();
            Widened {
                axis: Vec3::new(axis.x / n, axis.y / n, axis.z / n),
                angle,
                sin,
                cos,
            }
        })
    }
}

impl PreparedRegion {
    fn cap(center: Vec3, radius: f64) -> Self {
        PreparedRegion::Cone {
            center,
            radius,
            widened: Widened::new(center, radius),
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
                let min_d = g.min_distance_to(pole);
                let max_d = g.max_distance_to(pole);
                min_d <= hi && max_d >= lo
            }
        }
    }

    /// Whether a trixel inside `cap` provably misses the region, so the
    /// exact predicate would reject it too.
    ///
    /// A cone (or a rectangle's cone) of radius `R` misses the cap when
    /// the angle between their centres exceeds `R + r`; a band of
    /// half-width `w` misses it when the cap's centre is more than `w + r`
    /// from the band's great circle. Both tests run on `R` or `w` widened
    /// by [`PREFILTER_MARGIN_RAD`], compare dot products with
    /// [`PREFILTER_DOT_SLACK`] to spare, and keep the trixel wherever the
    /// angle sum leaves the range on which cosine or sine is monotone.
    pub(crate) fn misses(&self, cap: &Cap) -> bool {
        match *self {
            PreparedRegion::Cone {
                widened: Some(w), ..
            } => {
                // cos(R' + r) by the addition formula.
                w.angle + cap.radius < PI
                    && w.axis.dot(cap.center)
                        < w.cos * cap.cos_r - w.sin * cap.sin_r - PREFILTER_DOT_SLACK
            }
            PreparedRegion::Band {
                widened: Some(w), ..
            } => {
                // sin(w' + r) by the addition formula.
                w.angle + cap.radius < FRAC_PI_2
                    && w.axis.dot(cap.center).abs()
                        > w.sin * cap.cos_r + w.cos * cap.sin_r + PREFILTER_DOT_SLACK
            }
            _ => false,
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
}
