//! The simulation context: the only door through which policies touch
//! state and spend network budget.
//!
//! Every data movement a policy can perform — the paper's three
//! communication mechanisms (§3) plus local answering and eviction — is a
//! method here, so cost accounting is uniform and *enforced*: a query can
//! only be answered locally if the staleness contract genuinely holds, and
//! the simulator checks after each query event that the policy satisfied
//! it one way or the other.
//!
//! The same methods keep the repository's update log bounded. Loading
//! an object, shipping its updates and evicting it are the only ways the
//! cache's floor for that object moves, so each one also tells the
//! repository to forget the history below the new floor
//! ([`Repository::forget_before`]). Invariant: for every resident `o`,
//! `repo.base_version(o) <= cache.applied_version(o)` — every range a
//! policy can still ask for stays answerable.

use crate::cost::{Cost, CostLedger};
use delta_storage::{CacheError, CacheStore, ObjectId, Repository};
use delta_workload::QueryEvent;

/// Mutable view of the world handed to a policy for one event.
pub struct SimContext<'a> {
    /// Server-side repository (authoritative versions and sizes).
    pub repo: &'a mut Repository,
    /// Middleware cache store.
    pub cache: &'a mut CacheStore,
    /// The cost account.
    pub ledger: &'a mut CostLedger,
    /// Current event sequence number (the clock).
    pub now: u64,
    pub(crate) satisfied: bool,
    /// Whether [`SimContext::answer_local`] ran for the current event —
    /// the engine reads this instead of diffing ledger counters.
    pub(crate) answered_local: bool,
    /// Whether the local answer read at least one stale resident — the
    /// engine's tolerance-served signal, recorded during the currency
    /// walk so no second pass over the objects is needed.
    pub(crate) served_stale: bool,
    /// Synchronous (query-blocking) exchanges performed during this
    /// event: query shipping and update shipping block the client;
    /// object loading runs in background (§4) and eviction is local.
    pub(crate) sync_messages: u32,
    /// Bytes moved by the synchronous exchanges of this event.
    pub(crate) sync_bytes: u64,
}

impl<'a> SimContext<'a> {
    /// Creates a context (used by the engine and by tests).
    pub fn new(
        repo: &'a mut Repository,
        cache: &'a mut CacheStore,
        ledger: &'a mut CostLedger,
        now: u64,
    ) -> Self {
        Self {
            repo,
            cache,
            ledger,
            now,
            satisfied: false,
            answered_local: false,
            served_stale: false,
            sync_messages: 0,
            sync_bytes: 0,
        }
    }

    /// Ships the query to the server; the result goes straight to the
    /// client (§3). Charges ν(q).
    pub fn ship_query(&mut self, q: &QueryEvent) {
        self.ledger.breakdown.query_ship += Cost(q.result_bytes);
        self.ledger.shipped_queries += 1;
        self.satisfied = true;
        self.sync_messages += 1;
        self.sync_bytes += q.result_bytes;
    }

    /// Answers the query from the cache at zero network cost.
    ///
    /// The currency walk doubles as the staleness census: one probe per
    /// object both enforces the contract and records whether the answer
    /// read stale data (the engine's tolerance-served signal).
    ///
    /// # Panics
    /// Panics if any accessed object is missing or violates the query's
    /// staleness tolerance — a policy bug, never a legal outcome.
    pub fn answer_local(&mut self, q: &QueryEvent) {
        let mut any_stale = false;
        let current = q.objects.iter().all(|&o| match self.cache.get(o) {
            Some(r) => {
                any_stale |= r.stale;
                r.applied_version >= self.repo.version_at_horizon(o, self.now, q.tolerance)
            }
            None => false,
        });
        assert!(
            current,
            "policy answered query at seq {} locally but the cache is stale or incomplete",
            q.seq
        );
        self.ledger.local_answers += 1;
        self.satisfied = true;
        self.answered_local = true;
        self.served_stale = any_stale;
    }

    /// Ships the update range `(applied, to_version]` for a resident
    /// object and applies it. Charges the range's bytes; returns them.
    ///
    /// # Panics
    /// Panics if the object is not resident.
    pub fn ship_updates_to(&mut self, o: ObjectId, to_version: u64) -> u64 {
        let from = self
            .cache
            .applied_version(o)
            .expect("shipping updates to a non-resident object");
        if to_version <= from {
            return 0;
        }
        let bytes = self.repo.update_bytes(o, from, to_version);
        let fully_fresh = to_version == self.repo.version(o);
        self.cache.apply_updates(o, to_version, bytes, fully_fresh);
        self.repo.forget_before(o, to_version);
        self.ledger.breakdown.update_ship += Cost(bytes);
        self.ledger.update_ships += 1;
        self.sync_messages += 1;
        self.sync_bytes += bytes;
        bytes
    }

    /// Bulk-loads an object at its *current* size (base plus updates so
    /// far, §3) and version. Charges the load cost on success.
    pub fn load_object(&mut self, o: ObjectId) -> Result<u64, CacheError> {
        let bytes = self.repo.current_size(o);
        let version = self.repo.version(o);
        self.cache.load(o, bytes, version)?;
        self.repo.forget_before(o, version);
        self.ledger.breakdown.load += Cost(bytes);
        self.ledger.loads += 1;
        Ok(bytes)
    }

    /// Loads an object without charging — used only by the Replica
    /// yardstick, whose load costs the paper explicitly ignores ("for
    /// replica load costs and cache size constraints are ignored", §6.2).
    pub fn load_object_uncharged(&mut self, o: ObjectId) -> Result<(), CacheError> {
        let bytes = self.repo.current_size(o);
        let version = self.repo.version(o);
        self.cache.load(o, bytes, version)?;
        self.repo.forget_before(o, version);
        Ok(())
    }

    /// Evicts an object (free: dropping data moves no bytes).
    ///
    /// # Panics
    /// Panics if the object is not resident.
    pub fn evict_object(&mut self, o: ObjectId) {
        self.cache.evict(o).expect("evicting a non-resident object");
        self.repo.forget_before(o, u64::MAX);
        self.ledger.evictions += 1;
    }

    /// Whether the physical cache is over its nominal capacity (update
    /// growth can push it over; policies must shed space).
    pub fn over_capacity(&self) -> bool {
        self.cache.used() > self.cache.capacity()
    }

    /// Whether the current query event has been satisfied.
    pub fn satisfied(&self) -> bool {
        self.satisfied
    }

    /// Whether the current event was answered from the cache.
    pub fn answered_local(&self) -> bool {
        self.answered_local
    }

    /// Whether the local answer read at least one stale resident.
    pub fn served_stale(&self) -> bool {
        self.served_stale
    }

    /// Synchronous exchanges (messages, bytes) performed so far during
    /// this event — the client-visible critical path. Query shipping and
    /// update shipping count; background loads and local evictions do
    /// not.
    pub fn sync_traffic(&self) -> (u32, u64) {
        (self.sync_messages, self.sync_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delta_storage::ObjectCatalog;
    use delta_workload::QueryKind;

    fn world() -> (Repository, CacheStore, CostLedger) {
        (
            Repository::new(ObjectCatalog::from_sizes(&[100, 200])),
            CacheStore::new(1000),
            CostLedger::default(),
        )
    }

    fn query(objects: Vec<ObjectId>, bytes: u64, tolerance: u64) -> QueryEvent {
        QueryEvent {
            seq: 10,
            objects,
            result_bytes: bytes,
            tolerance,
            kind: QueryKind::Cone,
        }
    }

    #[test]
    fn ship_query_charges_result() {
        let (mut r, mut c, mut l) = world();
        let mut ctx = SimContext::new(&mut r, &mut c, &mut l, 10);
        ctx.ship_query(&query(vec![ObjectId(0)], 55, 0));
        assert!(ctx.satisfied());
        assert_eq!(l.breakdown.query_ship, Cost(55));
        assert_eq!(l.shipped_queries, 1);
    }

    #[test]
    fn load_then_answer_local() {
        let (mut r, mut c, mut l) = world();
        let mut ctx = SimContext::new(&mut r, &mut c, &mut l, 10);
        ctx.load_object(ObjectId(0)).unwrap();
        ctx.answer_local(&query(vec![ObjectId(0)], 55, 0));
        assert_eq!(l.breakdown.load, Cost(100));
        assert_eq!(l.local_answers, 1);
        assert_eq!(l.total(), Cost(100));
    }

    #[test]
    #[should_panic(expected = "stale or incomplete")]
    fn local_answer_requires_residency() {
        let (mut r, mut c, mut l) = world();
        let mut ctx = SimContext::new(&mut r, &mut c, &mut l, 10);
        ctx.answer_local(&query(vec![ObjectId(0)], 55, 0));
    }

    #[test]
    #[should_panic(expected = "stale or incomplete")]
    fn local_answer_requires_currency() {
        let (mut r, mut c, mut l) = world();
        {
            let mut ctx = SimContext::new(&mut r, &mut c, &mut l, 1);
            ctx.load_object(ObjectId(0)).unwrap();
        }
        r.apply_update(ObjectId(0), 5, 5);
        c.invalidate(ObjectId(0));
        let mut ctx = SimContext::new(&mut r, &mut c, &mut l, 10);
        ctx.answer_local(&query(vec![ObjectId(0)], 55, 0));
    }

    #[test]
    fn tolerant_query_ok_despite_recent_update() {
        let (mut r, mut c, mut l) = world();
        {
            let mut ctx = SimContext::new(&mut r, &mut c, &mut l, 1);
            ctx.load_object(ObjectId(0)).unwrap();
        }
        r.apply_update(ObjectId(0), 5, 9);
        c.invalidate(ObjectId(0));
        // now=10, tolerance=5 → horizon 5 < update seq 9: not needed.
        let mut ctx = SimContext::new(&mut r, &mut c, &mut l, 10);
        ctx.answer_local(&query(vec![ObjectId(0)], 55, 5));
        assert_eq!(l.local_answers, 1);
    }

    #[test]
    fn ship_updates_applies_and_charges() {
        let (mut r, mut c, mut l) = world();
        {
            let mut ctx = SimContext::new(&mut r, &mut c, &mut l, 0);
            ctx.load_object(ObjectId(0)).unwrap();
        }
        r.apply_update(ObjectId(0), 7, 3);
        r.apply_update(ObjectId(0), 9, 4);
        c.invalidate(ObjectId(0));
        let mut ctx = SimContext::new(&mut r, &mut c, &mut l, 10);
        let shipped = ctx.ship_updates_to(ObjectId(0), 2);
        assert_eq!(shipped, 16);
        assert_eq!(l.breakdown.update_ship, Cost(16));
        assert!(!c.get(ObjectId(0)).unwrap().stale);
        // Second call is a no-op.
        let mut ctx = SimContext::new(&mut r, &mut c, &mut l, 11);
        assert_eq!(ctx.ship_updates_to(ObjectId(0), 2), 0);
    }

    #[test]
    fn load_current_size_includes_growth() {
        let (mut r, mut c, mut l) = world();
        r.apply_update(ObjectId(0), 50, 1);
        let mut ctx = SimContext::new(&mut r, &mut c, &mut l, 2);
        let bytes = ctx.load_object(ObjectId(0)).unwrap();
        assert_eq!(bytes, 150, "load ships the object including its updates");
        // Loaded fresh at current version.
        ctx.answer_local(&query(vec![ObjectId(0)], 5, 0));
    }

    #[test]
    fn evict_frees_and_counts() {
        let (mut r, mut c, mut l) = world();
        let mut ctx = SimContext::new(&mut r, &mut c, &mut l, 0);
        ctx.load_object(ObjectId(1)).unwrap();
        ctx.evict_object(ObjectId(1));
        assert_eq!(l.evictions, 1);
        assert_eq!(c.used(), 0);
    }
}
