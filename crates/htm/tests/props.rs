//! Property-based tests for the HTM substrate.

use delta_htm::{mesh, Partition, Region, Trixel, TrixelId, Vec3};
use proptest::prelude::*;

fn arb_radec() -> impl Strategy<Value = (f64, f64)> {
    (0.0..360.0f64, -89.9..89.9f64)
}

/// Where a drawn region or probe sits: anywhere on the sky, or exactly on
/// the partition's own geometry, where float ties live.
#[derive(Clone, Copy, Debug)]
enum Anchor {
    Sky(f64, f64),
    /// Vertex `j` of leaf `k` (both taken modulo the available count).
    Vertex(usize, usize),
    /// The midpoint of leaf `k`'s edge `j`.
    EdgeMid(usize, usize),
    /// The pole of leaf `k`'s edge `j`, so a band's circle runs along it.
    EdgePole(usize, usize),
}

fn arb_anchor() -> impl Strategy<Value = Anchor> {
    prop_oneof![
        (0.0..360.0f64, -90.0..=90.0f64).prop_map(|(ra, dec)| Anchor::Sky(ra, dec)),
        (0usize..1000, 0usize..3).prop_map(|(k, j)| Anchor::Vertex(k, j)),
        (0usize..1000, 0usize..3).prop_map(|(k, j)| Anchor::EdgeMid(k, j)),
        (0usize..1000, 0usize..3).prop_map(|(k, j)| Anchor::EdgePole(k, j)),
    ]
}

fn resolve(part: &Partition, anchor: Anchor) -> Vec3 {
    let edge = |k: usize, j: usize| {
        let v = part.leaves()[k % part.len()].v;
        (v[j], v[(j + 1) % 3])
    };
    match anchor {
        Anchor::Sky(ra, dec) => Vec3::from_radec_deg(ra, dec),
        Anchor::Vertex(k, j) => part.leaves()[k % part.len()].v[j],
        Anchor::EdgeMid(k, j) => {
            let (a, b) = edge(k, j);
            a.midpoint(b)
        }
        Anchor::EdgePole(k, j) => {
            let (a, b) = edge(k, j);
            a.cross(b).normalized()
        }
    }
}

/// A region's shape, placed at an anchor by [`place`].
#[derive(Clone, Copy, Debug)]
enum Sketch {
    Cone {
        radius_deg: f64,
    },
    /// A rectangle with its south-west corner at the anchor; `pole` 1 or 2
    /// stretches it to the north or south pole.
    Rect {
        span_deg: f64,
        height_deg: f64,
        pole: u8,
    },
    Band {
        half_width_rad: f64,
    },
    All,
}

fn arb_sketch() -> impl Strategy<Value = Sketch> {
    prop_oneof![
        prop_oneof![Just(0.0), 0.0..20.0f64].prop_map(|radius_deg| Sketch::Cone { radius_deg }),
        (0.0..200.0f64, 0.0..40.0f64, 0u8..3).prop_map(|(span_deg, height_deg, pole)| {
            Sketch::Rect {
                span_deg,
                height_deg,
                pole,
            }
        }),
        prop_oneof![Just(0.0), 0.0..0.3f64]
            .prop_map(|half_width_rad| Sketch::Band { half_width_rad }),
        Just(Sketch::All),
    ]
}

fn place(sketch: Sketch, at: Vec3) -> Region {
    match sketch {
        Sketch::Cone { radius_deg } => Region::Cone {
            center: at,
            radius_rad: radius_deg.to_radians(),
        },
        Sketch::Rect {
            span_deg,
            height_deg,
            pole,
        } => {
            let (ra, dec) = at.to_radec_deg();
            let (dec_min, dec_max) = match pole {
                1 => (dec, 90.0),
                2 => (-90.0, dec),
                _ => (dec, (dec + height_deg).min(90.0)),
            };
            Region::RaDecRect {
                ra_min: ra,
                ra_max: (ra + span_deg) % 360.0,
                dec_min,
                dec_max,
            }
        }
        Sketch::Band { half_width_rad } => Region::GreatCircleBand {
            pole: at,
            half_width_rad,
        },
        Sketch::All => Region::All,
    }
}

/// A lumpy data mass: two Gaussian blobs over a thin floor.
fn mass(t: &Trixel) -> f64 {
    let c = t.center();
    let g = |ra: f64, dec: f64| {
        (-(c.angular_distance(Vec3::from_radec_deg(ra, dec)).powi(2)) / 0.08).exp()
    };
    t.solid_angle() * (0.05 + g(30.0, 10.0) + 0.6 * g(210.0, -40.0))
}

/// The reference cover, leaf by leaf: leaf `i` is in it iff the region
/// intersects the leaf and every one of its ancestors.
fn reference_cover(part: &Partition, region: &Region) -> Vec<usize> {
    (0..part.len())
        .filter(|&i| {
            let mut id = Some(part.leaves()[i].id);
            while let Some(at) = id {
                if !region.intersects(&Trixel::from_id(at)) {
                    return false;
                }
                id = at.parent();
            }
            true
        })
        .collect()
}

/// The reference point location: from the bases, step into the first
/// trixel (rebuilt from its id) that contains `p` until a leaf is hit.
fn reference_locate(part: &Partition, p: Vec3) -> usize {
    let first_holding = |ids: &[TrixelId]| {
        *ids.iter()
            .find(|&&id| Trixel::from_id(id).contains(p))
            .expect("children cover their parent")
    };
    let mut at = first_holding(&TrixelId::all_bases());
    loop {
        if let Ok(i) = part.leaves().binary_search_by_key(&at, |t| t.id) {
            return i;
        }
        at = first_holding(&at.children());
    }
}

fn check_against_reference(
    part: &Partition,
    sketch: Sketch,
    anchor: Anchor,
    probes: &[Anchor],
) -> Result<(), TestCaseError> {
    let region = place(sketch, resolve(part, anchor));
    prop_assert_eq!(
        part.objects_for_region(&region),
        reference_cover(part, &region),
        "cover of {:?} ({:?})",
        region,
        anchor
    );
    for &probe in probes {
        let p = resolve(part, probe);
        prop_assert_eq!(
            part.locate(p),
            reference_locate(part, p),
            "locate {:?}",
            probe
        );
    }
    Ok(())
}

proptest! {
    // Debug builds keep `cargo test` quick; the release step in CI runs
    // the covers at 8192 cases.
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 256 } else { 8192 }))]

    /// Point lookup always yields a trixel that contains the point, at any
    /// level, and levels are consistent (nested).
    #[test]
    fn lookup_contains_and_nests((ra, dec) in arb_radec(), level in 0u8..8) {
        let p = Vec3::from_radec_deg(ra, dec);
        let id = mesh::lookup(p, level);
        prop_assert_eq!(id.level(), level);
        prop_assert!(Trixel::from_id(id).contains(p));
        if level > 0 {
            let coarse = mesh::lookup(p, level - 1);
            prop_assert!(id.is_descendant_of(coarse));
        }
    }

    /// Raw-id round trip for ids built by random descent.
    #[test]
    fn id_raw_round_trip(base in 0u8..8, path in proptest::collection::vec(0u8..4, 0..10)) {
        let mut id = TrixelId::base(base);
        for c in path {
            id = id.child(c);
        }
        prop_assert_eq!(TrixelId::from_raw(id.raw()), Some(id));
    }

    /// A cone region's trixel cover contains the trixel of every point
    /// sampled inside the cone.
    #[test]
    fn cone_cover_is_sound(
        (ra, dec) in arb_radec(),
        radius_deg in 0.1..20.0f64,
        (dra, ddec) in (-1.0..1.0f64, -1.0..1.0f64),
        level in 2u8..5,
    ) {
        let region = Region::cone_deg(ra, dec, radius_deg);
        let ids = mesh::cover(&region, level);
        // A point guaranteed inside: offset center by < radius.
        let f = radius_deg / 3.0;
        let p = Vec3::from_radec_deg(ra + dra * f, (dec + ddec * f).clamp(-89.9, 89.9));
        if region.contains(p) {
            prop_assert!(ids.contains(&mesh::lookup(p, level)));
        }
    }

    /// Adaptive partitions: locate() result always covers the point, and
    /// region covers always include the located object.
    #[test]
    fn partition_locate_cover_consistent(
        (ra, dec) in arb_radec(),
        target in 8usize..150,
        radius_deg in 0.1..10.0f64,
    ) {
        let part = Partition::adaptive(|t| t.solid_angle(), target);
        prop_assert!(part.len() >= target);
        let p = Vec3::from_radec_deg(ra, dec);
        let idx = part.locate(p);
        prop_assert!(part.leaves()[idx].contains(p));
        let objs = part.objects_for_region(&Region::cone_deg(ra, dec, radius_deg));
        prop_assert!(objs.contains(&idx));
        // Indices are in range and strictly sorted (deduped).
        prop_assert!(objs.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(objs.iter().all(|&o| o < part.len()));
    }

    /// Solid angles of any subdivision sum to the parent's.
    #[test]
    fn subdivision_preserves_area(base in 0u8..8, path in proptest::collection::vec(0u8..4, 0..4)) {
        let mut t = Trixel::base(base);
        for c in path {
            t = t.subdivide()[c as usize];
        }
        let sum: f64 = t.subdivide().iter().map(|k| k.solid_angle()).sum();
        prop_assert!((sum - t.solid_angle()).abs() < 1e-9);
    }

    /// `objects_for_region` and `locate` agree exactly with the leaf-by-leaf
    /// references above, on adaptive partitions split by area or by a
    /// lumpy mass, for cones, rectangles (wrapping RA = 0, touching a
    /// pole), bands and the whole sky, anchored anywhere or exactly on a
    /// leaf's vertex, edge or edge pole, with zero radii and widths.
    #[test]
    fn cover_and_locate_match_the_references(
        target in 8usize..150,
        by_mass in proptest::bool::ANY,
        sketch in arb_sketch(),
        anchor in arb_anchor(),
        probes in prop::collection::vec(arb_anchor(), 1..8),
    ) {
        let part = if by_mass {
            Partition::adaptive(mass, target)
        } else {
            Partition::adaptive(|t| t.solid_angle(), target)
        };
        check_against_reference(&part, sketch, anchor, &probes)?;
    }

    /// The same on the construction `WorkloadConfig::spatial_partition`
    /// uses for the `sdss_like` scale: 68 leaves split by area, then
    /// reweighted by data mass.
    #[test]
    fn sdss_like_cover_and_locate_match_the_references(
        sketch in arb_sketch(),
        anchor in arb_anchor(),
        probes in prop::collection::vec(arb_anchor(), 1..8),
    ) {
        let mut part = Partition::adaptive(|t| t.solid_angle(), 68);
        part.reweight(mass);
        check_against_reference(&part, sketch, anchor, &probes)?;
    }
}
