//! # delta-storage — simulated repository and cache object stores
//!
//! Stands in for the two MS SQL Server instances of the paper's prototype
//! (§6.1): the server-side [`Repository`] (authoritative versions and
//! growing object sizes, plus the per-object update suffix the cache can
//! still ask for) and the middleware-side
//! [`CacheStore`] (space-constrained, whole-object residency, per-object
//! applied versions and stale marks).
//!
//! Delta's decisions depend only on object sizes, versions and byte costs —
//! never on SQL execution — so this in-memory model preserves exactly the
//! behaviour the paper measures (network bytes moved).
//!
//! ```
//! use delta_storage::{CacheStore, ObjectCatalog, ObjectId, Repository, staleness};
//!
//! let mut repo = Repository::new(ObjectCatalog::from_sizes(&[100, 200]));
//! let mut cache = CacheStore::new(250);
//! let o = ObjectId(0);
//! cache.load(o, 100, repo.version(o)).unwrap();
//! repo.apply_update(o, 10, /* seq */ 5);
//! cache.invalidate(o);
//!
//! // A zero-tolerance query at time 6 needs that update shipped:
//! let need = staleness::needed_updates(&repo, &cache, o, 6, 0).unwrap();
//! assert_eq!(need.bytes, 10);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache_store;
pub mod object;
pub mod repository;
pub mod staleness;

pub use cache_store::{CacheError, CacheStore, Resident};
pub use object::{DataObject, ObjectCatalog, ObjectId, SpatialMapper, GB, MB};
pub use repository::{Repository, UpdateRecord};
pub use staleness::{needed_updates, query_current, NeededUpdates};
