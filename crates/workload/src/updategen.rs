//! Update-trace reconstruction.
//!
//! §6.1: *"Telescopes collect data by scanning specific regions of the
//! sky, along great circles, in a coordinated and systematic fashion.
//! Updates are thus clustered by regions on the sky. Based on this
//! pattern, we created a workload of 250,000 updates. The size of an
//! update is proportional to the density of the data object."*
//!
//! [`UpdateGenerator`] walks a rotating set of great-circle stripes in
//! small angular steps. Consecutive updates therefore hit the same or
//! adjacent objects (the update hotspots of Fig. 7(a)), and the stripe set
//! itself differs from the query hotspots, which is what makes decoupling
//! profitable.

use crate::config::WorkloadConfig;
use crate::event::UpdateEvent;
use crate::querygen::random_direction;
use delta_htm::Vec3;
use delta_storage::SpatialMapper;
use rand::rngs::StdRng;
use rand::RngExt;
use rand_distr::{Distribution, LogNormal};

/// One survey stripe: a great circle with a scan phase.
#[derive(Clone, Copy, Debug)]
struct Stripe {
    /// Orthonormal basis of the great circle's plane (derived from its
    /// pole at construction).
    e1: Vec3,
    e2: Vec3,
    /// Current scan phase along the circle, radians.
    phase: f64,
}

impl Stripe {
    fn new(pole: Vec3, phase: f64) -> Self {
        // Any vector not parallel to the pole seeds the basis.
        let helper = if pole.z.abs() < 0.9 {
            Vec3::new(0.0, 0.0, 1.0)
        } else {
            Vec3::new(1.0, 0.0, 0.0)
        };
        let e1 = pole.cross(helper).normalized();
        let e2 = pole.cross(e1).normalized();
        Stripe { e1, e2, phase }
    }

    fn position(&self) -> Vec3 {
        (self.e1 * self.phase.cos() + self.e2 * self.phase.sin()).normalized()
    }
}

/// Stateful generator for the update half of the trace.
pub struct UpdateGenerator<'a> {
    cfg: &'a WorkloadConfig,
    mapper: &'a SpatialMapper,
    stripes: Vec<Stripe>,
    current: usize,
    steps_in_current: usize,
    step_rad: f64,
    size_noise: LogNormal<f64>,
    mean_density: f64,
    /// Sum of the partition's leaf weights: an update's relative density
    /// is its object's weight over this.
    total_weight: f64,
}

impl<'a> UpdateGenerator<'a> {
    /// Creates a generator whose stripes are seeded from the RNG.
    pub fn new(cfg: &'a WorkloadConfig, mapper: &'a SpatialMapper, rng: &mut StdRng) -> Self {
        let stripes = (0..cfg.n_stripes)
            .map(|_| {
                Stripe::new(
                    random_direction(rng),
                    rng.random_range(0.0..std::f64::consts::TAU),
                )
            })
            .collect();
        let n = mapper.partition().len().max(1);
        UpdateGenerator {
            cfg,
            mapper,
            stripes,
            current: 0,
            steps_in_current: 0,
            // A full stripe pass (stripe_len steps) covers ~120° of the
            // circle, so a pass dwells on a contiguous run of objects.
            step_rad: (2.0 * std::f64::consts::PI / 3.0) / cfg.stripe_len as f64,
            size_noise: LogNormal::new(0.0, 0.4).expect("valid lognormal"),
            mean_density: 1.0 / n as f64,
            total_weight: mapper
                .partition()
                .weights()
                .iter()
                .sum::<f64>()
                .max(f64::MIN_POSITIVE),
        }
    }

    /// Generates the next update at global sequence `seq`.
    pub fn next_update(&mut self, seq: u64, rng: &mut StdRng) -> UpdateEvent {
        if self.steps_in_current >= self.cfg.stripe_len {
            self.steps_in_current = 0;
            self.current = (self.current + 1) % self.stripes.len();
        }
        let stripe = &mut self.stripes[self.current];
        stripe.phase = (stripe.phase + self.step_rad) % std::f64::consts::TAU;
        let pos = stripe.position();
        self.steps_in_current += 1;

        let object = self.mapper.object_at(pos);
        // Size ∝ object density, with multiplicative noise; lognormal(0,σ)
        // has mean e^{σ²/2}, divide it out to keep the configured mean.
        let density = self.mapper.partition().weights()[object.index()] / self.total_weight;
        let rel = density / self.mean_density;
        let noise = self.size_noise.sample(rng) / (0.4f64 * 0.4 / 2.0).exp();
        let bytes = (self.cfg.mean_update_bytes as f64 * rel * noise) as u64;
        UpdateEvent {
            seq,
            object,
            bytes: bytes.max(64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sky::SkyModel;
    use delta_htm::Partition;
    use rand::SeedableRng;

    fn setup() -> (WorkloadConfig, SpatialMapper) {
        let cfg = WorkloadConfig::small();
        let sky = SkyModel::sdss_like(cfg.seed, cfg.n_blobs);
        let part = Partition::adaptive(|t| sky.trixel_mass(t), cfg.target_objects);
        (cfg, SpatialMapper::new(part))
    }

    #[test]
    fn updates_are_spatially_clustered() {
        // Consecutive updates within a stripe pass should often repeat the
        // same object (the stripe dwells on contiguous sky).
        let (cfg, mapper) = setup();
        let mut rng = StdRng::seed_from_u64(1);
        let mut g = UpdateGenerator::new(&cfg, &mapper, &mut rng);
        let events: Vec<_> = (0..cfg.stripe_len as u64)
            .map(|s| g.next_update(s, &mut rng))
            .collect();
        let repeats = events
            .windows(2)
            .filter(|w| w[0].object == w[1].object)
            .count();
        assert!(
            repeats as f64 > 0.5 * (events.len() - 1) as f64,
            "only {repeats}/{} consecutive repeats — not clustered",
            events.len() - 1
        );
    }

    #[test]
    fn updates_concentrate_on_few_objects() {
        // At a finer partition (more leaves than the default test setup)
        // the fixed stripe set must leave parts of the sky untouched and
        // concentrate updates on the stripe corridors.
        let (cfg, _) = setup();
        let sky = SkyModel::sdss_like(cfg.seed, cfg.n_blobs);
        let part = Partition::adaptive(|t| sky.trixel_mass(t), 96);
        let mapper = SpatialMapper::new(part);
        let mut rng = StdRng::seed_from_u64(2);
        let mut g = UpdateGenerator::new(&cfg, &mapper, &mut rng);
        let n = mapper.partition().len();
        let mut counts = vec![0u64; n];
        for s in 0..3000 {
            counts[g.next_update(s, &mut rng).object.index()] += 1;
        }
        let touched = counts.iter().filter(|&&c| c > 0).count();
        assert!(
            touched < n,
            "updates touched every object ({touched}/{n}) — stripes should miss some"
        );
        // And the touched ones are unevenly loaded.
        let max = *counts.iter().max().unwrap();
        let mean = 3000.0 / touched as f64;
        assert!(max as f64 > 1.5 * mean, "update load too uniform");
    }

    #[test]
    fn update_sizes_track_density() {
        let (cfg, mapper) = setup();
        let mut rng = StdRng::seed_from_u64(3);
        let mut g = UpdateGenerator::new(&cfg, &mapper, &mut rng);
        let weights = mapper.partition().weights().to_vec();
        let mut by_obj: std::collections::HashMap<u32, Vec<u64>> = Default::default();
        for s in 0..5000 {
            let u = g.next_update(s, &mut rng);
            by_obj.entry(u.object.0).or_default().push(u.bytes);
        }
        // Compare mean sizes of the densest vs sparsest touched objects.
        let mut touched: Vec<(f64, f64)> = by_obj
            .iter()
            .filter(|(_, v)| v.len() >= 20)
            .map(|(&o, v)| {
                (
                    weights[o as usize],
                    v.iter().sum::<u64>() as f64 / v.len() as f64,
                )
            })
            .collect();
        touched.sort_by(|a, b| a.0.total_cmp(&b.0));
        if touched.len() >= 2 {
            let (sparse_w, sparse_mean) = touched[0];
            let (dense_w, dense_mean) = touched[touched.len() - 1];
            assert!(dense_w > sparse_w);
            assert!(
                dense_mean > sparse_mean,
                "dense object updates ({dense_mean}) not larger than sparse ({sparse_mean})"
            );
        }
    }

    #[test]
    fn mean_size_near_configured() {
        let (cfg, mapper) = setup();
        let mut rng = StdRng::seed_from_u64(4);
        let mut g = UpdateGenerator::new(&cfg, &mapper, &mut rng);
        let n = 20_000;
        let total: u64 = (0..n).map(|s| g.next_update(s, &mut rng).bytes).sum();
        let mean = total as f64 / n as f64;
        let target = cfg.mean_update_bytes as f64;
        // Stripes oversample dense sky, so allow a broad band.
        assert!(
            mean > 0.3 * target && mean < 4.0 * target,
            "mean update size {mean} wildly off target {target}"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let (cfg, mapper) = setup();
        let make = || {
            let mut rng = StdRng::seed_from_u64(11);
            let mut g = UpdateGenerator::new(&cfg, &mapper, &mut rng);
            (0..200)
                .map(|s| g.next_update(s, &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(make(), make());
    }
}
