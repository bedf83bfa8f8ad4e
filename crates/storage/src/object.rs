//! Data objects and the object catalog.
//!
//! The paper models the repository as a set of data objects `S = o1..oN`
//! (§3): spatial partitions of the `PhotoObj` table, between 50 MB and
//! 90 GB each, ~800 GB total for the default 68-object set (§6.1). The
//! catalog is the shared, immutable description of those objects — sizes,
//! sky footprints, densities — that repository, cache and workload all
//! reference by [`ObjectId`].

use delta_htm::{Partition, Region, Vec3};

/// Dense identifier of a data object (index into the catalog).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub u32);

impl ObjectId {
    /// The identifier as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ObjectId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "o{}", self.0)
    }
}

/// One gigabyte, in bytes. Network costs in the paper are quoted in GB.
pub const GB: u64 = 1_000_000_000;

/// One megabyte, in bytes.
pub const MB: u64 = 1_000_000;

/// Static description of one data object.
#[derive(Clone, Debug)]
pub struct DataObject {
    /// Identifier (equals its catalog position).
    pub id: ObjectId,
    /// Total bytes stored for this object; also its load cost ν(o).
    pub size_bytes: u64,
    /// Relative data density (used to size updates, §6.1: "the size of an
    /// update is proportional to the density of the data object").
    pub density: f64,
}

/// The immutable set of data objects a repository serves.
#[derive(Clone, Debug)]
pub struct ObjectCatalog {
    objects: Vec<DataObject>,
    total_bytes: u64,
}

impl ObjectCatalog {
    /// Builds a catalog from explicit object sizes; densities are taken as
    /// proportional to size.
    ///
    /// # Panics
    /// Panics if `sizes` is empty or contains a zero size.
    pub fn from_sizes(sizes: &[u64]) -> Self {
        assert!(!sizes.is_empty(), "catalog must have at least one object");
        let total: u64 = sizes.iter().sum();
        let objects = sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                assert!(s > 0, "object {i} has zero size");
                DataObject {
                    id: ObjectId(i as u32),
                    size_bytes: s,
                    density: s as f64 / total as f64,
                }
            })
            .collect();
        Self {
            objects,
            total_bytes: total,
        }
    }

    /// Builds a catalog from an HTM partition and a sky-density functional:
    /// each leaf trixel becomes an object whose size is its share of
    /// `total_bytes` (by integrated density), clipped to
    /// `[min_bytes, max_bytes]`.
    ///
    /// This reproduces the paper's object population: 68 partitions of the
    /// 1 TB PhotoObj table holding ~800 GB, each between 50 MB and 90 GB.
    pub fn from_partition(
        partition: &Partition,
        total_bytes: u64,
        min_bytes: u64,
        max_bytes: u64,
    ) -> Self {
        assert!(min_bytes > 0 && min_bytes <= max_bytes);
        let weights = partition.weights();
        let wsum: f64 = weights.iter().sum::<f64>().max(f64::MIN_POSITIVE);
        let sizes: Vec<u64> = weights
            .iter()
            .map(|w| {
                let raw = (w / wsum) * total_bytes as f64;
                (raw as u64).clamp(min_bytes, max_bytes)
            })
            .collect();
        Self::from_sizes(&sizes)
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the catalog is empty (never true for a valid catalog).
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Iterates over all objects.
    pub fn iter(&self) -> impl Iterator<Item = &DataObject> {
        self.objects.iter()
    }

    /// The object with the given id.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    pub fn get(&self, id: ObjectId) -> &DataObject {
        &self.objects[id.index()]
    }

    /// Size (== load cost) of an object in bytes.
    pub fn size(&self, id: ObjectId) -> u64 {
        self.objects[id.index()].size_bytes
    }

    /// Sum of all object sizes — the server repository size.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// All object ids.
    pub fn ids(&self) -> impl Iterator<Item = ObjectId> + '_ {
        (0..self.objects.len() as u32).map(ObjectId)
    }
}

/// Maps sky positions and regions to catalog objects via an HTM partition.
///
/// This is the "semantic framework that determines the mapping between the
/// query q and the data objects B(q) it accesses" required by §4 of the
/// paper: queries specify a spatial region; objects are spatial partitions.
#[derive(Clone, Debug)]
pub struct SpatialMapper {
    partition: Partition,
}

impl SpatialMapper {
    /// Wraps a partition whose leaf count matches the catalog size.
    pub fn new(partition: Partition) -> Self {
        Self { partition }
    }

    /// The underlying partition.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Object containing a sky position.
    pub fn object_at(&self, p: Vec3) -> ObjectId {
        ObjectId(self.partition.locate(p) as u32)
    }

    /// Objects a region (conservatively) touches: the paper's `B(q)`.
    pub fn objects_for(&self, region: &Region) -> Vec<ObjectId> {
        self.partition
            .objects_for_region_as(region, |i| ObjectId(i as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_sizes_assigns_dense_ids() {
        let c = ObjectCatalog::from_sizes(&[10, 20, 30]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.total_bytes(), 60);
        assert_eq!(c.get(ObjectId(1)).size_bytes, 20);
        assert!((c.get(ObjectId(2)).density - 0.5).abs() < 1e-12);
        let ids: Vec<_> = c.ids().collect();
        assert_eq!(ids, vec![ObjectId(0), ObjectId(1), ObjectId(2)]);
    }

    #[test]
    #[should_panic(expected = "zero size")]
    fn zero_size_rejected() {
        ObjectCatalog::from_sizes(&[10, 0]);
    }

    #[test]
    fn from_partition_respects_clipping() {
        let part = Partition::adaptive(|t| t.solid_angle(), 68);
        let c = ObjectCatalog::from_partition(&part, 800 * GB, 50 * MB, 90 * GB);
        assert_eq!(c.len(), part.len());
        for o in c.iter() {
            assert!(o.size_bytes >= 50 * MB, "{} too small", o.id);
            assert!(o.size_bytes <= 90 * GB, "{} too big", o.id);
        }
        // Roughly the requested total (clipping perturbs it slightly).
        let total = c.total_bytes() as f64;
        assert!(total > 0.5 * 800.0 * GB as f64 && total < 1.5 * 800.0 * GB as f64);
    }

    #[test]
    fn spatial_mapper_consistency() {
        let part = Partition::adaptive(|t| t.solid_angle(), 32);
        let mapper = SpatialMapper::new(part);
        let p = Vec3::from_radec_deg(100.0, -25.0);
        let o = mapper.object_at(p);
        let objs = mapper.objects_for(&Region::cone_deg(100.0, -25.0, 2.0));
        assert!(objs.contains(&o));
    }
}
