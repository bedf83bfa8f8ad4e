//! Currency bookkeeping: which updates does a query actually need?
//!
//! The paper's tolerance semantics (§3): *"Given t(q), an answer to q must
//! incorporate all updates received on each object in B(q) except those
//! that arrived within the last t(q) time units."* This module turns that
//! sentence into the version arithmetic shared by every policy.

use crate::cache_store::CacheStore;
use crate::object::ObjectId;
use crate::repository::Repository;

/// The update range a cached object must apply to satisfy a query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NeededUpdates {
    /// Object concerned.
    pub object: ObjectId,
    /// First needed version (exclusive of already-applied): range start.
    pub from_version: u64,
    /// Required version (range end): all updates with `seq <= now - t(q)`.
    pub to_version: u64,
    /// Total bytes of the needed range — the cost of shipping it.
    pub bytes: u64,
}

impl NeededUpdates {
    /// Whether the cached copy already satisfies the requirement.
    pub fn is_current(&self) -> bool {
        self.from_version >= self.to_version
    }

    /// Number of outstanding updates in the needed range.
    pub fn count(&self) -> u64 {
        self.to_version.saturating_sub(self.from_version)
    }
}

/// Computes the updates a query with tolerance `tolerance` (issued at
/// `now`) needs shipped for object `id`, given the cache's applied version.
///
/// Returns `None` when the object is not resident (the query cannot be
/// served from cache regardless of currency). The range starts at the
/// resident copy's applied version, which the repository's forgotten base
/// never passes, so its bytes are always answerable.
pub fn needed_updates(
    repo: &Repository,
    cache: &CacheStore,
    id: ObjectId,
    now: u64,
    tolerance: u64,
) -> Option<NeededUpdates> {
    let applied = cache.applied_version(id)?;
    let required = repo.version_at_horizon(id, now, tolerance);
    let from = applied.min(required);
    let bytes = if applied < required {
        repo.update_bytes(id, applied, required)
    } else {
        0
    };
    Some(NeededUpdates {
        object: id,
        from_version: from,
        to_version: required,
        bytes,
    })
}

/// Whether the cache can answer a query over `objects` *right now* without
/// any communication: every object resident and current per the tolerance.
pub fn query_current(
    repo: &Repository,
    cache: &CacheStore,
    objects: &[ObjectId],
    now: u64,
    tolerance: u64,
) -> bool {
    objects
        .iter()
        .all(|&o| needed_updates(repo, cache, o, now, tolerance).is_some_and(|n| n.is_current()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::ObjectCatalog;

    fn setup() -> (Repository, CacheStore) {
        let repo = Repository::new(ObjectCatalog::from_sizes(&[100, 100]));
        let cache = CacheStore::new(1000);
        (repo, cache)
    }

    #[test]
    fn non_resident_is_none() {
        let (repo, cache) = setup();
        assert!(needed_updates(&repo, &cache, ObjectId(0), 10, 0).is_none());
    }

    #[test]
    fn fresh_object_is_current() {
        let (mut repo, mut cache) = setup();
        let a = ObjectId(0);
        repo.apply_update(a, 5, 1);
        cache.load(a, 105, 1).unwrap();
        let n = needed_updates(&repo, &cache, a, 10, 0).unwrap();
        assert!(n.is_current());
        assert_eq!(n.bytes, 0);
    }

    #[test]
    fn stale_object_needs_range() {
        let (mut repo, mut cache) = setup();
        let a = ObjectId(0);
        cache.load(a, 100, 0).unwrap();
        repo.apply_update(a, 5, 1);
        repo.apply_update(a, 7, 2);
        let n = needed_updates(&repo, &cache, a, 10, 0).unwrap();
        assert!(!n.is_current());
        assert_eq!(n.count(), 2);
        assert_eq!(n.bytes, 12);
    }

    #[test]
    fn tolerance_waives_recent_updates() {
        let (mut repo, mut cache) = setup();
        let a = ObjectId(0);
        cache.load(a, 100, 0).unwrap();
        repo.apply_update(a, 5, 1);
        repo.apply_update(a, 7, 9); // recent
                                    // At now=10 with tolerance 5, only the seq<=5 update is needed.
        let n = needed_updates(&repo, &cache, a, 10, 5).unwrap();
        assert_eq!(n.count(), 1);
        assert_eq!(n.bytes, 5);
        // With tolerance 20 nothing is needed.
        let n = needed_updates(&repo, &cache, a, 10, 20).unwrap();
        assert!(n.is_current());
    }

    #[test]
    fn query_current_requires_all_objects() {
        let (mut repo, mut cache) = setup();
        let a = ObjectId(0);
        let b = ObjectId(1);
        cache.load(a, 100, 0).unwrap();
        // b not resident -> not current.
        assert!(!query_current(&repo, &cache, &[a, b], 5, 0));
        cache.load(b, 100, 0).unwrap();
        assert!(query_current(&repo, &cache, &[a, b], 5, 0));
        repo.apply_update(b, 3, 6);
        assert!(!query_current(&repo, &cache, &[a, b], 7, 0));
        // ...but a tolerant query is fine.
        assert!(query_current(&repo, &cache, &[a, b], 7, 2));
    }
}
