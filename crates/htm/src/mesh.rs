//! Point location and region covers on the uniform HTM.
//!
//! These are the classic HTM operations: find the level-`l` trixel holding a
//! direction, and compute the set of level-`l` trixels a region overlaps.

use crate::region::Region;
use crate::trixel::{Trixel, TrixelId};
use crate::vec3::Vec3;

/// Number of trixels at a uniform subdivision level: `8 * 4^level`.
pub fn trixel_count(level: u8) -> u64 {
    8u64 << (2 * u32::from(level))
}

/// Locates the level-`level` trixel containing the unit vector `p`.
///
/// # Panics
/// Panics if `level > TrixelId::MAX_LEVEL`.
pub fn lookup(p: Vec3, level: u8) -> TrixelId {
    assert!(level <= TrixelId::MAX_LEVEL, "level too deep");
    let mut cur = *Trixel::bases()
        .iter()
        .find(|t| t.contains(p))
        .expect("base trixels cover the sphere");
    for _ in 0..level {
        let kids = cur.subdivide();
        // With the epsilon in `contains`, a boundary point may sit in two
        // children; taking the first keeps lookup deterministic.
        cur = *kids
            .iter()
            .find(|k| k.contains(p))
            .expect("children cover parent");
    }
    cur.id
}

/// Computes the set of level-`level` trixels that (conservatively) overlap
/// `region`, by recursive descent with pruning.
pub fn cover(region: &Region, level: u8) -> Vec<TrixelId> {
    assert!(level <= TrixelId::MAX_LEVEL, "level too deep");
    let region = region.prepare();
    let mut out = Vec::new();
    let mut stack: Vec<Trixel> = Trixel::bases().to_vec();
    while let Some(t) = stack.pop() {
        if !region.intersects(&t) {
            continue;
        }
        if t.id.level() == level {
            out.push(t.id);
        } else {
            stack.extend(t.subdivide());
        }
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts() {
        assert_eq!(trixel_count(0), 8);
        assert_eq!(trixel_count(1), 32);
        assert_eq!(trixel_count(3), 512);
    }

    #[test]
    fn lookup_is_contained() {
        for i in 0..300 {
            let ra = (i as f64 * 13.7) % 360.0;
            let dec = ((i as f64 * 3.91) % 180.0) - 90.0;
            let p = Vec3::from_radec_deg(ra, dec);
            for level in [0u8, 1, 2, 4] {
                let id = lookup(p, level);
                assert_eq!(id.level(), level);
                assert!(Trixel::from_id(id).contains(p));
            }
        }
    }

    #[test]
    fn lookup_nested_across_levels() {
        // The level-k trixel must be a descendant of the level-(k-1) one.
        for i in 0..100 {
            let p = Vec3::from_radec_deg(
                (i as f64 * 37.3) % 360.0,
                ((i as f64 * 11.9) % 170.0) - 85.0,
            );
            let a = lookup(p, 2);
            let b = lookup(p, 3);
            assert!(b.is_descendant_of(a));
        }
    }

    #[test]
    fn cover_includes_lookup_trixel() {
        let region = Region::cone_deg(200.0, -30.0, 2.0);
        let ids = cover(&region, 3);
        let center = Vec3::from_radec_deg(200.0, -30.0);
        assert!(ids.contains(&lookup(center, 3)));
        // A small cone should cover far fewer trixels than the whole level.
        assert!(ids.len() < trixel_count(3) as usize / 4);
    }

    #[test]
    fn cover_all_is_whole_level() {
        assert_eq!(cover(&Region::All, 2).len(), trixel_count(2) as usize);
    }

    #[test]
    fn cover_band_wraps_sky() {
        let band = Region::GreatCircleBand {
            pole: Vec3::new(0.0, 0.0, 1.0),
            half_width_rad: 0.02,
        };
        let ids = cover(&band, 3);
        // Must touch all 8 base regions' descendants near the equator.
        let bases: std::collections::HashSet<u8> = ids
            .iter()
            .map(|id| {
                let mut v = id.raw();
                while v >= 32 {
                    v /= 4;
                }
                (v - 8) as u8
            })
            .collect();
        assert_eq!(
            bases.len(),
            8,
            "equatorial band must cross every base trixel"
        );
    }
}
