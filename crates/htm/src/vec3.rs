//! Minimal 3-vector geometry on the unit sphere.
//!
//! All positions on the celestial sphere are represented as unit vectors.
//! Right ascension / declination are accepted in degrees at the boundary and
//! converted once; all internal math is Cartesian, which keeps the trixel
//! side tests (`cross` + `dot`) cheap and branch-free.

/// A point (or direction) in 3-space. For sphere work it is kept normalized.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Vec3 {
    /// X component (towards RA=0, Dec=0).
    pub x: f64,
    /// Y component (towards RA=90°, Dec=0).
    pub y: f64,
    /// Z component (towards the north celestial pole).
    pub z: f64,
}

impl Vec3 {
    /// Creates a vector from raw components (not normalized).
    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Self { x, y, z }
    }

    /// Unit vector for the given right ascension and declination, in degrees.
    ///
    /// RA may be any real number (wrapped mod 360); Dec is clamped to ±90°.
    pub fn from_radec_deg(ra_deg: f64, dec_deg: f64) -> Self {
        let ra = ra_deg.to_radians();
        let dec = dec_deg.clamp(-90.0, 90.0).to_radians();
        let (sra, cra) = ra.sin_cos();
        let (sdec, cdec) = dec.sin_cos();
        Self::new(cdec * cra, cdec * sra, sdec)
    }

    /// Recovers `(ra_deg, dec_deg)` with RA in `[0, 360)`.
    pub fn to_radec_deg(self) -> (f64, f64) {
        let ra = self.y.atan2(self.x).to_degrees();
        let ra = if ra < 0.0 { ra + 360.0 } else { ra };
        let dec = self.z.clamp(-1.0, 1.0).asin().to_degrees();
        (ra, dec)
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, o: Self) -> f64 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    /// Cross product.
    #[inline]
    pub fn cross(self, o: Self) -> Self {
        Self::new(
            self.y * o.z - self.z * o.y,
            self.z * o.x - self.x * o.z,
            self.x * o.y - self.y * o.x,
        )
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Returns this vector scaled to unit length.
    ///
    /// # Panics
    /// Panics if the vector is (numerically) zero — a zero direction is
    /// always a logic error in sphere code.
    #[inline]
    pub fn normalized(self) -> Self {
        let n = self.norm();
        assert!(n > 1e-300, "cannot normalize zero vector");
        Self::new(self.x / n, self.y / n, self.z / n)
    }

    /// Normalized midpoint of two unit vectors (the spherical midpoint).
    #[inline]
    pub fn midpoint(self, o: Self) -> Self {
        Self::new(self.x + o.x, self.y + o.y, self.z + o.z).normalized()
    }

    /// Angular separation between two unit vectors, in radians.
    pub fn angular_distance(self, o: Self) -> f64 {
        // atan2 form is accurate for both tiny and near-pi angles,
        // unlike acos(dot) which loses precision near 0 and pi.
        self.cross(o).norm().atan2(self.dot(o))
    }

    /// Component-wise approximate equality with absolute tolerance `eps`.
    pub fn approx_eq(self, o: Self, eps: f64) -> bool {
        (self.x - o.x).abs() <= eps && (self.y - o.y).abs() <= eps && (self.z - o.z).abs() <= eps
    }
}

impl std::ops::Add for Vec3 {
    type Output = Vec3;
    fn add(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl std::ops::Mul<f64> for Vec3 {
    type Output = Vec3;
    fn mul(self, s: f64) -> Vec3 {
        Vec3::new(self.x * s, self.y * s, self.z * s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn radec_round_trip() {
        for &(ra, dec) in &[(0.0, 0.0), (123.4, 45.6), (359.9, -89.0), (180.0, 90.0)] {
            let v = Vec3::from_radec_deg(ra, dec);
            assert!((v.norm() - 1.0).abs() < EPS);
            let (ra2, dec2) = v.to_radec_deg();
            if dec.abs() < 89.999 {
                assert!((ra - ra2).abs() < 1e-9, "ra {ra} vs {ra2}");
            }
            assert!((dec - dec2).abs() < 1e-9, "dec {dec} vs {dec2}");
        }
    }

    #[test]
    fn cross_is_orthogonal() {
        let a = Vec3::from_radec_deg(10.0, 20.0);
        let b = Vec3::from_radec_deg(80.0, -40.0);
        let c = a.cross(b);
        assert!(c.dot(a).abs() < EPS);
        assert!(c.dot(b).abs() < EPS);
    }

    #[test]
    fn midpoint_is_equidistant() {
        let a = Vec3::from_radec_deg(0.0, 0.0);
        let b = Vec3::from_radec_deg(90.0, 0.0);
        let m = a.midpoint(b);
        assert!((m.angular_distance(a) - m.angular_distance(b)).abs() < EPS);
        assert!((m.norm() - 1.0).abs() < EPS);
    }

    #[test]
    fn angular_distance_basics() {
        let a = Vec3::from_radec_deg(0.0, 0.0);
        let b = Vec3::from_radec_deg(90.0, 0.0);
        let c = Vec3::from_radec_deg(180.0, 0.0);
        assert!((a.angular_distance(b) - std::f64::consts::FRAC_PI_2).abs() < EPS);
        assert!((a.angular_distance(c) - std::f64::consts::PI).abs() < EPS);
        assert!(a.angular_distance(a) < EPS);
    }

    #[test]
    #[should_panic(expected = "zero vector")]
    fn normalize_zero_panics() {
        Vec3::new(0.0, 0.0, 0.0).normalized();
    }
}
