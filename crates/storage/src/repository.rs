//! The server-side repository: authoritative object state and update log.
//!
//! A rapidly-growing repository receives a stream of updates, each
//! affecting exactly one object (§3: "each incoming update u affects just
//! one object o(u)"). An object's *version* is the number of updates
//! applied to it so far, and its size grows by each update's bytes.
//!
//! The repository's *data* is archival — updates are never deleted at
//! the source — but the middleware's *record* of that history need not
//! be. The cache can only ever ask for updates above a resident copy's
//! applied version: a range to ship (`update_bytes`) or a horizon to
//! compare against (`version_at_horizon`). So each object keeps its
//! version, size and last sequence number in O(1) state, plus the
//! suffix of update records above a *base* version. The owner moves the
//! base up with [`Repository::forget_before`] whenever the cache's floor
//! for that object moves (a load, an update ship, an eviction, an update
//! to a non-resident object), and the log holds O(cache lag) records,
//! not O(updates ever applied). A repository that is never told to
//! forget keeps the full history, as an authoritative server must.

use crate::object::{ObjectCatalog, ObjectId};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// One update applied at the repository.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct UpdateRecord {
    /// Global event-sequence number at which the update arrived. Doubles
    /// as the update's timestamp for staleness-tolerance checks.
    pub seq: u64,
    /// Size of the update's data content — its shipping cost ν(u).
    pub bytes: u64,
}

/// A retained update: its sequence number and the object's cumulative
/// update bytes *through* it, so any range cost is one subtraction.
#[derive(Clone, Copy, Debug)]
struct Retained {
    seq: u64,
    cum: u64,
}

/// Once a log drains, its capacity may exceed `2 × len + SHRINK_SLACK`
/// before it is shrunk — so an allocation tracks the live lag, not the
/// largest burst the object ever saw.
const SHRINK_SLACK: usize = 8;

/// One object's update history above its base version.
#[derive(Clone, Debug, Default)]
struct ObjectLog {
    /// Updates `base_version + 1 ..= version`, in seq order.
    retained: VecDeque<Retained>,
    /// Updates below the retained suffix (forgotten, counted).
    base_version: u64,
    /// Cumulative update bytes of the first `base_version` updates.
    base_cum: u64,
    /// Sequence number of the latest update (0 before the first one),
    /// kept even when its record is forgotten: it guards monotonicity.
    last_seq: u64,
}

impl ObjectLog {
    fn version(&self) -> u64 {
        self.base_version + self.retained.len() as u64
    }

    /// Cumulative update bytes of the first `v` updates (`v ≥ base`).
    fn cum_at(&self, v: u64) -> u64 {
        debug_assert!(
            v >= self.base_version && v <= self.version(),
            "version {v} outside the retained range {}..={}",
            self.base_version,
            self.version()
        );
        match v - self.base_version {
            0 => self.base_cum,
            k => self.retained[k as usize - 1].cum,
        }
    }

    fn grown_bytes(&self) -> u64 {
        self.retained.back().map_or(self.base_cum, |r| r.cum)
    }
}

/// The authoritative data store at the server.
#[derive(Clone, Debug)]
pub struct Repository {
    catalog: ObjectCatalog,
    logs: Vec<ObjectLog>,
}

impl Repository {
    /// Creates a repository over a catalog, with empty update logs.
    pub fn new(catalog: ObjectCatalog) -> Self {
        let n = catalog.len();
        Self {
            catalog,
            logs: vec![ObjectLog::default(); n],
        }
    }

    /// The object catalog.
    pub fn catalog(&self) -> &ObjectCatalog {
        &self.catalog
    }

    /// Applies an update to `id` at global sequence `seq`, returning the
    /// object's new version.
    ///
    /// # Panics
    /// Panics if `seq` is not monotonically non-decreasing for the object.
    pub fn apply_update(&mut self, id: ObjectId, bytes: u64, seq: u64) -> u64 {
        let log = &mut self.logs[id.index()];
        assert!(seq >= log.last_seq, "update sequence must be monotone");
        log.last_seq = seq;
        let cum = log.grown_bytes() + bytes;
        log.retained.push_back(Retained { seq, cum });
        log.version()
    }

    /// Current version (number of updates ever applied) of an object.
    pub fn version(&self, id: ObjectId) -> u64 {
        self.logs[id.index()].version()
    }

    /// The oldest version whose update range is still answerable: ranges
    /// and horizons are exact from here up.
    pub fn base_version(&self, id: ObjectId) -> u64 {
        self.logs[id.index()].base_version
    }

    /// Total bytes of `id`'s updates below [`Repository::base_version`].
    pub fn base_bytes(&self, id: ObjectId) -> u64 {
        self.logs[id.index()].base_cum
    }

    /// Sequence number of `id`'s latest update (0 if it has none).
    pub fn last_seq(&self, id: ObjectId) -> u64 {
        self.logs[id.index()].last_seq
    }

    /// Drops the update records of `id` below version `v` (clamped to the
    /// current version): after this, ranges starting at `v` or later stay
    /// exact and nothing older can be asked for. Forgetting below the base
    /// is a no-op. Amortised O(1) per forgotten record.
    pub fn forget_before(&mut self, id: ObjectId, v: u64) {
        let log = &mut self.logs[id.index()];
        let v = v.min(log.version());
        if v <= log.base_version {
            return;
        }
        log.base_cum = log.cum_at(v);
        if v == log.version() {
            // The common case (a load, an eviction, an update nobody
            // caches): nothing is left, and clearing is O(1).
            log.retained.clear();
        } else {
            log.retained.drain(..(v - log.base_version) as usize);
        }
        log.base_version = v;
        let (len, cap) = (log.retained.len(), log.retained.capacity());
        if cap > 2 * len + SHRINK_SLACK {
            log.retained.shrink_to(len + len / 2 + SHRINK_SLACK / 2);
        }
    }

    /// Update records currently retained, summed over every object — the
    /// history the owner has not yet told the repository to forget.
    pub fn retained(&self) -> u64 {
        self.logs.iter().map(|l| l.retained.len() as u64).sum()
    }

    /// The update records of `id` from version `from` (0-based) onward.
    ///
    /// `from` must be at least [`Repository::base_version`].
    pub fn updates_since(
        &self,
        id: ObjectId,
        from: u64,
    ) -> impl Iterator<Item = UpdateRecord> + '_ {
        let log = &self.logs[id.index()];
        let mut prev = log.cum_at(from);
        log.retained
            .range((from - log.base_version) as usize..)
            .map(move |r| {
                let bytes = r.cum - prev;
                prev = r.cum;
                UpdateRecord { seq: r.seq, bytes }
            })
    }

    /// Version of `id` as of time `now - tolerance`: the number of its
    /// updates with `seq <= horizon`, clamped below at the base version.
    /// A cached copy at this version (or later) satisfies a query with the
    /// given tolerance (§3's t(q) semantics: all updates except those
    /// within the last t(q) time units).
    ///
    /// The clamp is exact for every caller: each compares the result with
    /// a resident copy's applied version, and a resident copy is never
    /// below the base (the owner forgets only up to the cache's floor).
    /// When the true count is below the base it is below that applied
    /// version too, and so is the base — both say "current, nothing to
    /// ship".
    pub fn version_at_horizon(&self, id: ObjectId, now: u64, tolerance: u64) -> u64 {
        let horizon = now.saturating_sub(tolerance);
        let log = &self.logs[id.index()];
        // Retained records are seq-sorted; binary search for the first
        // one newer than the horizon.
        log.base_version + log.retained.partition_point(|r| r.seq <= horizon) as u64
    }

    /// Current size of the object: base catalog size plus all update bytes
    /// — the cost of loading it now ("the entire data object (including
    /// the updates) is shipped", §3).
    pub fn current_size(&self, id: ObjectId) -> u64 {
        self.catalog.size(id) + self.logs[id.index()].grown_bytes()
    }

    /// Current total repository size.
    pub fn total_current_bytes(&self) -> u64 {
        self.catalog.total_bytes() + self.logs.iter().map(ObjectLog::grown_bytes).sum::<u64>()
    }

    /// Total bytes of updates between versions `from..to` of an object —
    /// the cost of shipping that update range to the cache. O(1) via
    /// cumulative sums. `from` must be at least the base version.
    pub fn update_bytes(&self, id: ObjectId, from: u64, to: u64) -> u64 {
        let log = &self.logs[id.index()];
        debug_assert!(
            from >= log.base_version,
            "range {from}..{to} of {id} starts below the forgotten base {}",
            log.base_version
        );
        log.cum_at(to) - log.cum_at(from)
    }

    /// Rebuilds `id`'s history from a snapshot: `base_version` forgotten
    /// updates totalling `base_bytes`, then the retained `suffix`, with
    /// `last_seq` the sequence number of the latest update (forgotten or
    /// not). The object must have no history yet.
    ///
    /// # Panics
    /// Panics if the object already has updates, or if the suffix is not
    /// seq-sorted or runs past `last_seq`.
    pub fn restore_log(
        &mut self,
        id: ObjectId,
        base_version: u64,
        base_bytes: u64,
        last_seq: u64,
        suffix: &[UpdateRecord],
    ) {
        let log = &mut self.logs[id.index()];
        assert_eq!(log.version(), 0, "restoring over an existing log of {id}");
        log.base_version = base_version;
        log.base_cum = base_bytes;
        for r in suffix {
            self.apply_update(id, r.bytes, r.seq);
        }
        let log = &mut self.logs[id.index()];
        assert!(last_seq >= log.last_seq, "update sequence must be monotone");
        log.last_seq = last_seq;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::ObjectCatalog;

    fn repo() -> Repository {
        Repository::new(ObjectCatalog::from_sizes(&[100, 200, 300]))
    }

    #[test]
    fn versions_advance_per_object() {
        let mut r = repo();
        let a = ObjectId(0);
        let b = ObjectId(1);
        assert_eq!(r.version(a), 0);
        assert_eq!(r.apply_update(a, 5, 1), 1);
        assert_eq!(r.apply_update(a, 7, 3), 2);
        assert_eq!(r.apply_update(b, 2, 4), 1);
        assert_eq!(r.version(a), 2);
        assert_eq!(r.version(b), 1);
        assert_eq!(r.version(ObjectId(2)), 0);
    }

    #[test]
    fn horizon_version_respects_tolerance() {
        let mut r = repo();
        let a = ObjectId(0);
        r.apply_update(a, 1, 10);
        r.apply_update(a, 1, 20);
        r.apply_update(a, 1, 30);
        // At time 35 with tolerance 10, horizon is 25: two updates needed.
        assert_eq!(r.version_at_horizon(a, 35, 10), 2);
        // Zero tolerance needs everything up to now.
        assert_eq!(r.version_at_horizon(a, 35, 0), 3);
        // Huge tolerance needs nothing.
        assert_eq!(r.version_at_horizon(a, 35, 1000), 0);
        // Horizon exactly on an update's seq includes it.
        assert_eq!(r.version_at_horizon(a, 30, 10), 2);
    }

    #[test]
    fn sizes_grow_with_updates() {
        let mut r = repo();
        let a = ObjectId(0);
        assert_eq!(r.current_size(a), 100);
        r.apply_update(a, 40, 1);
        assert_eq!(r.current_size(a), 140);
        assert_eq!(r.total_current_bytes(), 640);
    }

    #[test]
    fn update_bytes_ranges() {
        let mut r = repo();
        let a = ObjectId(0);
        r.apply_update(a, 5, 1);
        r.apply_update(a, 7, 2);
        r.apply_update(a, 11, 3);
        assert_eq!(r.update_bytes(a, 0, 3), 23);
        assert_eq!(r.update_bytes(a, 1, 2), 7);
        assert_eq!(r.update_bytes(a, 2, 2), 0);
        let since: Vec<_> = r.updates_since(a, 1).collect();
        assert_eq!(
            since,
            [
                UpdateRecord { seq: 2, bytes: 7 },
                UpdateRecord { seq: 3, bytes: 11 }
            ]
        );
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn non_monotone_seq_panics() {
        let mut r = repo();
        r.apply_update(ObjectId(0), 1, 5);
        r.apply_update(ObjectId(0), 1, 4);
    }

    #[test]
    fn forget_before_keeps_version_and_size() {
        let mut r = repo();
        let a = ObjectId(0);
        for seq in 1..=5 {
            r.apply_update(a, 10 * seq, seq);
        }
        r.forget_before(a, 3);
        assert_eq!((r.version(a), r.base_version(a)), (5, 3));
        assert_eq!(r.current_size(a), 100 + 150);
        assert_eq!(r.total_current_bytes(), 750);
        assert_eq!(r.retained(), 2);
        // Forgetting below the base, or past the end, is clamped.
        r.forget_before(a, 1);
        assert_eq!(r.base_version(a), 3);
        r.forget_before(a, 99);
        assert_eq!((r.version(a), r.base_version(a), r.retained()), (5, 5, 0));
        assert_eq!(r.current_size(a), 250);
        assert_eq!(r.apply_update(a, 1, 6), 6);
        assert_eq!(r.current_size(a), 251);
    }

    #[test]
    fn update_bytes_across_the_base() {
        let mut r = repo();
        let a = ObjectId(0);
        for (seq, bytes) in [(1, 5), (2, 7), (3, 11), (4, 13)] {
            r.apply_update(a, bytes, seq);
        }
        r.forget_before(a, 2);
        assert_eq!(r.update_bytes(a, 2, 4), 24);
        assert_eq!(r.update_bytes(a, 2, 3), 11);
        assert_eq!(r.update_bytes(a, 3, 4), 13);
        assert_eq!(r.update_bytes(a, 2, 2), 0);
        r.apply_update(a, 17, 5);
        assert_eq!(r.update_bytes(a, 2, 5), 41);
        let since: Vec<_> = r.updates_since(a, 2).map(|u| u.bytes).collect();
        assert_eq!(since, [11, 13, 17]);
    }

    #[test]
    fn version_at_horizon_clamps_at_the_base() {
        let mut r = repo();
        let a = ObjectId(0);
        for seq in [10, 20, 30, 40] {
            r.apply_update(a, 1, seq);
        }
        r.forget_before(a, 2);
        // True counts at or above the base are exact...
        assert_eq!(r.version_at_horizon(a, 45, 0), 4);
        assert_eq!(r.version_at_horizon(a, 35, 0), 3);
        assert_eq!(r.version_at_horizon(a, 25, 0), 2);
        // ...and those below it read as the base.
        assert_eq!(r.version_at_horizon(a, 15, 0), 2);
        assert_eq!(r.version_at_horizon(a, 45, 1000), 2);
        // With nothing retained, every horizon below the last seq is the base.
        r.forget_before(a, 4);
        assert_eq!(r.version_at_horizon(a, 35, 0), 4);
        assert_eq!(r.version_at_horizon(a, 40, 0), 4);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn monotone_check_survives_an_emptied_log() {
        let mut r = repo();
        r.apply_update(ObjectId(0), 1, 5);
        r.forget_before(ObjectId(0), 1);
        assert_eq!(r.retained(), 0);
        r.apply_update(ObjectId(0), 1, 4);
    }

    #[test]
    fn capacity_follows_the_lag_after_a_burst_drains() {
        let mut r = repo();
        let a = ObjectId(0);
        let cap = |r: &Repository| r.logs[a.index()].retained.capacity();
        for seq in 1..=10_000 {
            r.apply_update(a, 1, seq);
        }
        assert!(cap(&r) >= 10_000);
        // Drain the burst in steps, as a cache catching up would.
        for v in (0..=9_990).step_by(37) {
            r.forget_before(a, v);
            let len = r.version(a) - r.base_version(a);
            assert!(
                cap(&r) <= 2 * len as usize + SHRINK_SLACK,
                "capacity {} for {len} retained",
                cap(&r)
            );
        }
        r.forget_before(a, 10_000);
        assert!(cap(&r) <= SHRINK_SLACK, "capacity {} when empty", cap(&r));
        // A steady one-in, one-out lag never reallocates below the slack.
        for seq in 10_001..=10_100 {
            r.apply_update(a, 1, seq);
            r.forget_before(a, r.version(a));
            assert!(cap(&r) <= SHRINK_SLACK);
        }
    }

    #[test]
    fn restore_log_rebuilds_base_and_suffix() {
        let mut r = repo();
        let a = ObjectId(0);
        for (seq, bytes) in [(1, 5), (2, 7), (3, 11), (9, 13)] {
            r.apply_update(a, bytes, seq);
        }
        r.forget_before(a, 2);
        let suffix: Vec<_> = r.updates_since(a, 2).collect();
        let mut back = repo();
        back.restore_log(a, r.base_version(a), 12, r.last_seq(a), &suffix);
        assert_eq!(back.version(a), 4);
        assert_eq!(back.current_size(a), r.current_size(a));
        assert_eq!(back.update_bytes(a, 2, 4), 24);
        assert_eq!(back.version_at_horizon(a, 5, 0), 3);
        // An emptied log keeps its last seq across the round trip.
        r.forget_before(a, 4);
        let mut back = repo();
        back.restore_log(a, 4, 36, r.last_seq(a), &[]);
        assert_eq!((back.version(a), back.last_seq(a)), (4, 9));
        assert_eq!(back.current_size(a), 136);
    }
}
