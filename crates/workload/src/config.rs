//! Workload configuration: every knob of the trace reconstruction.
//!
//! Defaults follow §6.1 of the paper: a ~1 TB PhotoObj-like table split
//! into 68 spatial objects holding ~800 GB (50 MB–90 GB each), 250,000
//! queries and 250,000 updates, ~300 GB of query traffic, ~150 GB of
//! update traffic, a long warm-up prefix of cheap queries, drifting query
//! hotspots and great-circle-clustered updates.

/// Relative frequencies of the query shapes in the trace (§6.1 lists
/// range, spatial self-join, selection and aggregation queries; cone
/// searches and stripe scans are the canonical SkyServer additions).
#[derive(Clone, Copy, Debug)]
pub struct QueryMix {
    /// Cone searches around a position.
    pub cone: f64,
    /// RA/Dec rectangle scans.
    pub range: f64,
    /// Spatial self-joins.
    pub self_join: f64,
    /// Wide-area aggregations.
    pub aggregate: f64,
    /// Great-circle survey scans (touch many objects).
    pub scan: f64,
    /// Point selections.
    pub selection: f64,
}

impl QueryMix {
    /// The SkyServer-like default mix.
    pub fn sdss_like() -> Self {
        QueryMix {
            cone: 0.38,
            range: 0.22,
            self_join: 0.12,
            aggregate: 0.08,
            scan: 0.05,
            selection: 0.15,
        }
    }

    /// Sum of the weights (must be positive).
    pub fn total(&self) -> f64 {
        self.cone + self.range + self.self_join + self.aggregate + self.scan + self.selection
    }
}

/// Full configuration of a synthetic survey workload.
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// Master RNG seed; everything downstream is deterministic in it.
    pub seed: u64,
    /// Number of query events.
    pub n_queries: usize,
    /// Number of update events.
    pub n_updates: usize,
    /// Target number of data objects (HTM partition leaves).
    pub target_objects: usize,
    /// Total repository bytes spread over the objects.
    pub total_bytes: u64,
    /// Smallest object size after clipping.
    pub min_object_bytes: u64,
    /// Largest object size after clipping.
    pub max_object_bytes: u64,
    /// Mean query-result size (post-warm-up).
    pub mean_result_bytes: u64,
    /// Hard cap on a single result.
    pub max_result_bytes: u64,
    /// Mean update-content size.
    pub mean_update_bytes: u64,
    /// Fraction of the event sequence forming the cheap warm-up prefix.
    pub warmup_fraction: f64,
    /// Result-size multiplier during warm-up (≪ 1).
    pub warmup_scale: f64,
    /// Number of simultaneous query hotspots.
    pub n_hotspots: usize,
    /// Zipf exponent of hotspot popularity.
    pub hotspot_zipf: f64,
    /// A hotspot relocates every this-many queries (workload evolution).
    pub drift_interval: usize,
    /// Probability a query demands full currency (t(q) = 0).
    pub zero_tolerance_frac: f64,
    /// Mean tolerance (event ticks) for the tolerant remainder.
    pub mean_tolerance: u64,
    /// Number of telescope scan stripes generating updates.
    pub n_stripes: usize,
    /// Updates emitted along one stripe before switching to the next.
    pub stripe_len: usize,
    /// Number of over-density blobs in the sky model.
    pub n_blobs: usize,
    /// Fraction of queries that *excurse*: instead of re-hitting the
    /// hotspot they probe data "close to, or related to, rather than the
    /// exact same as" the current queries (§6.2, citing \[24\] — the
    /// mechanism behind Fig. 8(b)'s fine-granularity upturn: nearby
    /// probes stay inside a coarse cached object but fall off the edge of
    /// a fine one).
    pub excursion_frac: f64,
    /// Angular distance range (degrees) of an excursion from its hotspot.
    pub excursion_deg: (f64, f64),
    /// Query shape mix.
    pub mix: QueryMix,
}

impl WorkloadConfig {
    /// Full-scale configuration mirroring §6.1 of the paper.
    pub fn sdss_like() -> Self {
        use delta_storage::{GB, MB};
        WorkloadConfig {
            seed: 0xDE17A,
            n_queries: 250_000,
            n_updates: 250_000,
            target_objects: 68,
            total_bytes: 800 * GB,
            min_object_bytes: 50 * MB,
            max_object_bytes: 90 * GB,
            mean_result_bytes: 2 * MB + MB / 2, // ≈ 300 GB over 125k post-warm-up queries
            max_result_bytes: 15 * GB,          // the paper's example q3 ships 15 GB
            mean_update_bytes: 1_100_000, // stripes oversample dense sky ~1.8x; yields Replica/NoCache ≈ 0.75 post-warm-up as in Fig. 7(b)
            warmup_fraction: 0.5,
            warmup_scale: 0.05,
            n_hotspots: 6,
            hotspot_zipf: 1.35,
            drift_interval: 9_000,
            zero_tolerance_frac: 0.7,
            mean_tolerance: 2_000,
            n_stripes: 10,
            stripe_len: 900,
            n_blobs: 10,
            excursion_frac: 0.18,
            excursion_deg: (4.0, 14.0),
            mix: QueryMix::sdss_like(),
        }
    }

    /// A fast, small configuration for unit and integration tests
    /// (thousands of events, megabyte-scale objects).
    pub fn small() -> Self {
        use delta_storage::MB;
        WorkloadConfig {
            seed: 42,
            n_queries: 2_000,
            n_updates: 2_000,
            target_objects: 16,
            total_bytes: 800 * MB,
            min_object_bytes: MB / 20,
            max_object_bytes: 90 * MB,
            mean_result_bytes: MB / 5, // 200 KB: ~280 MB of post-warm-up query traffic
            max_result_bytes: 15 * MB,
            mean_update_bytes: 140_000, // scaled like the full config

            warmup_fraction: 0.3,
            warmup_scale: 0.1,
            n_hotspots: 4,
            hotspot_zipf: 1.35,
            drift_interval: 400,
            zero_tolerance_frac: 0.7,
            mean_tolerance: 200,
            n_stripes: 4,
            stripe_len: 120,
            n_blobs: 5,
            excursion_frac: 0.18,
            excursion_deg: (4.0, 14.0),
            mix: QueryMix::sdss_like(),
        }
    }

    /// Looks up a named preset, as accepted by the server and loadgen
    /// binaries' `--preset` flags.
    pub fn from_preset(name: &str) -> Result<Self, String> {
        match name {
            "small" => Ok(WorkloadConfig::small()),
            "paper" => Ok(WorkloadConfig::sdss_like()),
            other => Err(format!("unknown preset {other:?} (small|paper)")),
        }
    }

    /// Total events in the interleaved trace.
    pub fn n_events(&self) -> usize {
        self.n_queries + self.n_updates
    }

    /// The sky model every generator derived from this configuration
    /// uses — deterministic in `seed` and `n_blobs`.
    pub fn sky_model(&self) -> crate::sky::SkyModel {
        crate::sky::SkyModel::sdss_like(self.seed, self.n_blobs)
    }

    /// The adaptive HTM partition of [`Self::sky_model`]'s sky: split by
    /// solid angle into `target_objects` roughly equi-area leaves, then
    /// reweighted by data mass — exactly the partition
    /// [`crate::SyntheticSurvey::generate`] builds its catalog over.
    pub fn spatial_partition(&self) -> delta_htm::Partition {
        let sky = self.sky_model();
        let mut partition =
            delta_htm::Partition::adaptive(|t| t.solid_angle(), self.target_objects);
        partition.reweight(|t| sky.trixel_mass(t));
        partition
    }

    /// The region → object resolver over [`Self::spatial_partition`].
    ///
    /// This is the plumbing a wire server needs to compile SQL against a
    /// preset-served catalog: object ids produced here agree with the
    /// catalog [`crate::SyntheticSurvey::generate`] serves for the same
    /// configuration.
    pub fn spatial_mapper(&self) -> delta_storage::SpatialMapper {
        delta_storage::SpatialMapper::new(self.spatial_partition())
    }

    /// Checks internal consistency; returns a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_queries == 0 {
            return Err("n_queries must be positive".into());
        }
        if self.target_objects < 8 {
            return Err("target_objects must be at least 8 (HTM base)".into());
        }
        if self.min_object_bytes == 0 || self.min_object_bytes > self.max_object_bytes {
            return Err("object size bounds invalid".into());
        }
        if !(0.0..=1.0).contains(&self.warmup_fraction) {
            return Err("warmup_fraction must be in [0,1]".into());
        }
        if !(0.0..=1.0).contains(&self.zero_tolerance_frac) {
            return Err("zero_tolerance_frac must be in [0,1]".into());
        }
        if self.mix.total() <= 0.0 {
            return Err("query mix weights must sum to a positive value".into());
        }
        if self.n_hotspots == 0 || self.hotspot_zipf <= 0.0 {
            return Err("hotspot parameters invalid".into());
        }
        if self.n_stripes == 0 || self.stripe_len == 0 {
            return Err("stripe parameters invalid".into());
        }
        if !(0.0..=1.0).contains(&self.excursion_frac)
            || self.excursion_deg.0 < 0.0
            || self.excursion_deg.0 > self.excursion_deg.1
        {
            return Err("excursion parameters invalid".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        WorkloadConfig::sdss_like().validate().unwrap();
        WorkloadConfig::small().validate().unwrap();
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = WorkloadConfig::small();
        c.n_queries = 0;
        assert!(c.validate().is_err());

        let mut c = WorkloadConfig::small();
        c.target_objects = 4;
        assert!(c.validate().is_err());

        let mut c = WorkloadConfig::small();
        c.warmup_fraction = 1.5;
        assert!(c.validate().is_err());

        let mut c = WorkloadConfig::small();
        c.min_object_bytes = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn preset_mapper_matches_generated_survey() {
        let cfg = WorkloadConfig::small();
        let survey = crate::SyntheticSurvey::generate(&cfg);
        let mapper = cfg.spatial_mapper();
        assert_eq!(mapper.partition().len(), survey.mapper.partition().len());
        assert_eq!(mapper.partition().len(), survey.catalog.len());
        for (ra, dec) in [(0.0, 0.0), (185.0, 15.3), (300.0, -45.0), (42.0, 80.0)] {
            let p = delta_htm::Vec3::from_radec_deg(ra, dec);
            assert_eq!(mapper.object_at(p), survey.mapper.object_at(p));
        }
    }

    #[test]
    fn sdss_scale_matches_paper() {
        use delta_storage::GB;
        let c = WorkloadConfig::sdss_like();
        assert_eq!(c.n_queries, 250_000);
        assert_eq!(c.n_updates, 250_000);
        assert_eq!(c.total_bytes, 800 * GB);
        // Post-warm-up query traffic ≈ 250k · (1-0.5) · 2.5 MB ≈ 312 GB.
        let post = (c.n_queries as f64) * (1.0 - c.warmup_fraction) * c.mean_result_bytes as f64;
        assert!(post > 250.0 * GB as f64 && post < 400.0 * GB as f64);
        // Update traffic sized so post-warm-up Replica/NoCache ≈ 0.75
        // (Fig. 7(b)'s relative ordering), accounting for the stripes'
        // ~1.8x dense-sky oversampling applied downstream.
        let upd = c.n_updates as f64 * c.mean_update_bytes as f64;
        assert!(upd > 200.0 * GB as f64 && upd < 400.0 * GB as f64);
    }
}
