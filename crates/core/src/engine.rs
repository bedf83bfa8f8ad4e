//! The decoupling engine: ONE event loop shared by every driver.
//!
//! The paper's update/query separation under the satisfaction contract
//! (§3–§4) is needed by two drivers — [`crate::sim`] and the server's
//! shard cores. [`Engine`] is that loop, written once: it owns the
//! `(Repository, CacheStore, CostLedger, policy)` quadruple, applies one
//! [`Event`] at a time, and enforces the contract with a typed
//! [`EngineError`] instead of an `assert!`. The drivers differ only in
//! where events come from (a trace iterator, a TCP frame) and what they
//! do with the [`EngineOutcome`] — the decisions and the ledger are
//! byte-identical across both, which the tri-modal differential tests
//! pin.
//!
//! Two scale features hang off the engine once instead of per driver:
//!
//! * [`EngineMetrics`] — the uniform operational counters (hit rate,
//!   tolerance-served queries, bytes by class, evictions) every driver
//!   reports, from the simulator's `SimReport` to the wire `Stats` frame.
//! * [`Engine::snapshot`] / [`Engine::restore`] — the warm-restart path:
//!   the retained suffix of each object's update log (above its forgotten
//!   base), cache residency/versions/stale marks and the cost account
//!   serialize to JSONL (via the workspace's hand-rolled
//!   serde convention) and rebuild an engine that resumes exactly where
//!   it stopped. Policy decision state is deliberately *not* captured —
//!   correctness never depends on it, so a restored engine runs a fresh
//!   policy over restored world state.

use crate::context::SimContext;
use crate::cost::{json_field as field, CostLedger};
use crate::policy_trait::CachingPolicy;
use delta_storage::{CacheStore, ObjectCatalog, ObjectId, Repository, UpdateRecord};
use delta_workload::{Event, QueryEvent, UpdateEvent};
use serde_json::{FromJson, ToJson, Value};
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Why the engine refused an event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The policy neither shipped nor locally answered a query — a
    /// violation of the satisfaction contract (§3). The event is not
    /// counted, but any traffic the policy charged before giving up
    /// stays in the ledger (bytes moved are bytes moved).
    ContractViolated {
        /// Name of the offending policy.
        policy: String,
        /// Sequence number of the unsatisfied query (post-clamping).
        seq: u64,
    },
    /// A snapshot does not fit the world it is being restored into.
    SnapshotMismatch(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::ContractViolated { policy, seq } => write!(
                f,
                "policy {policy} neither shipped nor answered query at seq {seq}"
            ),
            EngineError::SnapshotMismatch(why) => write!(f, "snapshot mismatch: {why}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// What one applied event did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineOutcome {
    /// An update was applied to the repository.
    Update {
        /// The object's new version.
        version: u64,
    },
    /// A query was satisfied.
    Query {
        /// Whether it was answered from the cache (vs shipped).
        local: bool,
        /// Synchronous (client-blocking) exchanges this query performed.
        sync_messages: u32,
        /// Bytes moved by those exchanges.
        sync_bytes: u64,
    },
}

/// Uniform operational counters every driver inherits from the engine.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EngineMetrics {
    /// The cost account (bytes by class, per-op counters, evictions).
    pub ledger: CostLedger,
    /// Queries served (satisfied) by this engine.
    pub queries: u64,
    /// Updates applied by this engine.
    pub updates: u64,
    /// Queries answered locally while at least one accessed object was
    /// stale — the staleness tolerance genuinely did the work.
    pub tolerance_served: u64,
    /// Cache capacity in bytes.
    pub cache_capacity: u64,
    /// Bytes currently resident.
    pub cache_used: u64,
    /// Objects currently resident.
    pub residents: u64,
}

impl EngineMetrics {
    /// Events (queries + updates) processed.
    pub fn events(&self) -> u64 {
        self.queries + self.updates
    }

    /// Fraction of queries answered locally.
    pub fn hit_rate(&self) -> f64 {
        self.ledger.hit_rate()
    }

    /// Folds another engine's metrics into this one (per-shard totals).
    pub fn absorb(&mut self, other: &EngineMetrics) {
        self.ledger.absorb(&other.ledger);
        self.queries += other.queries;
        self.updates += other.updates;
        self.tolerance_served += other.tolerance_served;
        self.cache_capacity += other.cache_capacity;
        self.cache_used += other.cache_used;
        self.residents += other.residents;
    }
}

impl ToJson for EngineMetrics {
    fn to_json(&self) -> Value {
        Value::Object(vec![
            ("ledger".into(), self.ledger.to_json()),
            ("queries".into(), self.queries.to_json()),
            ("updates".into(), self.updates.to_json()),
            ("tolerance_served".into(), self.tolerance_served.to_json()),
            ("cache_capacity".into(), self.cache_capacity.to_json()),
            ("cache_used".into(), self.cache_used.to_json()),
            ("residents".into(), self.residents.to_json()),
        ])
    }
}

impl FromJson for EngineMetrics {
    fn from_json(v: &Value) -> Result<Self, serde_json::Error> {
        Ok(EngineMetrics {
            ledger: CostLedger::from_json(field(v, "ledger")?)?,
            queries: u64::from_json(field(v, "queries")?)?,
            updates: u64::from_json(field(v, "updates")?)?,
            tolerance_served: u64::from_json(field(v, "tolerance_served")?)?,
            cache_capacity: u64::from_json(field(v, "cache_capacity")?)?,
            cache_used: u64::from_json(field(v, "cache_used")?)?,
            residents: u64::from_json(field(v, "residents")?)?,
        })
    }
}

/// The decoupling engine: one policy driving one repository/cache pair
/// under uniform cost accounting. See the module docs.
///
/// Generic over the boxed policy type `P` (defaulting to the plain
/// `dyn CachingPolicy` every in-process driver uses) so thread-sharing
/// drivers can instantiate `Engine<'static, dyn CachingPolicy + Send>`
/// and place the engine behind a `Mutex` — the server's shard cores do
/// exactly that.
pub struct Engine<'p, P: CachingPolicy + ?Sized + 'p = dyn CachingPolicy + 'p> {
    policy: Box<P>,
    _policy_lifetime: std::marker::PhantomData<&'p ()>,
    repo: Repository,
    cache: CacheStore,
    ledger: CostLedger,
    /// Highest event sequence number seen (the engine clock).
    clock: u64,
    /// When set, event timestamps are clamped to the clock so arrival
    /// order becomes the authoritative order (the server's ingest
    /// discipline); when clear, trace timestamps are trusted verbatim
    /// (the simulator).
    clamp_clock: bool,
    queries: u64,
    updates: u64,
    tolerance_served: u64,
}

impl<P: CachingPolicy + ?Sized> std::fmt::Debug for Engine<'_, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("policy", &self.policy.name())
            .field("clock", &self.clock)
            .field("queries", &self.queries)
            .field("updates", &self.updates)
            .field("ledger", &self.ledger)
            .finish_non_exhaustive()
    }
}

impl<'p, P: CachingPolicy + ?Sized + 'p> Engine<'p, P> {
    /// Builds an engine over a fresh repository for `catalog`, with the
    /// cache sized by the policy's [`CachingPolicy::preferred_capacity`]
    /// of `cache_bytes`. Call [`Engine::init`] before the first event.
    pub fn new(policy: Box<P>, catalog: &ObjectCatalog, cache_bytes: u64) -> Self {
        let capacity = policy.preferred_capacity(catalog, cache_bytes);
        Engine {
            policy,
            _policy_lifetime: std::marker::PhantomData,
            repo: Repository::new(catalog.clone()),
            cache: CacheStore::new(capacity),
            ledger: CostLedger::default(),
            clock: 0,
            clamp_clock: false,
            queries: 0,
            updates: 0,
            tolerance_served: 0,
        }
    }

    /// Turns timestamp clamping on or off (builder-style; default off).
    pub fn clamp_clock(mut self, on: bool) -> Self {
        self.clamp_clock = on;
        self
    }

    /// Runs the policy's [`CachingPolicy::init`] hook (pre-population).
    /// Not called by [`Engine::restore`] — a restored cache is already
    /// populated, and e.g. `Replica`'s preload would collide with it.
    ///
    /// The argument can never be `Some`: it survives only so existing
    /// `init(None)` call sites outside the workspace keep compiling.
    pub fn init(&mut self, _: Option<std::convert::Infallible>) {
        let mut ctx = SimContext::new(
            &mut self.repo,
            &mut self.cache,
            &mut self.ledger,
            self.clock,
        );
        self.policy.init(&mut ctx);
    }

    /// Applies one event.
    pub fn apply(&mut self, event: &Event) -> Result<EngineOutcome, EngineError> {
        match event {
            Event::Update(u) => Ok(EngineOutcome::Update {
                version: self.apply_update(u),
            }),
            Event::Query(q) => self.serve_query(q),
        }
    }

    /// The update path: apply to the repository, invalidate the cached
    /// copy, then let the policy react — in that order, always. An update
    /// to a non-resident object is forgotten at once: a later load ships
    /// the object whole, so no range below its version is ever asked for.
    fn apply_update(&mut self, u: &UpdateEvent) -> u64 {
        let now = self.tick(u.seq);
        let u = UpdateEvent { seq: now, ..*u };
        let version = self.repo.apply_update(u.object, u.bytes, now);
        if self.cache.contains(u.object) {
            self.cache.invalidate(u.object);
        } else {
            self.repo.forget_before(u.object, version);
        }
        let mut ctx = SimContext::new(&mut self.repo, &mut self.cache, &mut self.ledger, now);
        self.policy.on_update(&u, &mut ctx);
        self.updates += 1;
        version
    }

    /// The query path: the policy must satisfy the query one way or the
    /// other, or the engine reports [`EngineError::ContractViolated`].
    fn serve_query(&mut self, q: &QueryEvent) -> Result<EngineOutcome, EngineError> {
        let now = self.tick(q.seq);
        let clamped;
        let q = if now == q.seq {
            q
        } else {
            clamped = QueryEvent {
                seq: now,
                ..q.clone()
            };
            &clamped
        };
        let (satisfied, local, served_stale, sync_messages, sync_bytes) = {
            let mut ctx = SimContext::new(&mut self.repo, &mut self.cache, &mut self.ledger, now);
            self.policy.on_query(q, &mut ctx);
            let (m, b) = ctx.sync_traffic();
            (
                ctx.satisfied(),
                ctx.answered_local(),
                ctx.served_stale(),
                m,
                b,
            )
        };
        if !satisfied {
            return Err(EngineError::ContractViolated {
                policy: self.policy.name().to_string(),
                seq: now,
            });
        }
        // `served_stale` was recorded during the local answer's currency
        // walk — no second pass over the query's objects here.
        if local && served_stale {
            self.tolerance_served += 1;
        }
        self.queries += 1;
        Ok(EngineOutcome::Query {
            local,
            sync_messages,
            sync_bytes,
        })
    }

    fn tick(&mut self, seq: u64) -> u64 {
        let now = if self.clamp_clock {
            seq.max(self.clock)
        } else {
            seq
        };
        self.clock = self.clock.max(now);
        now
    }

    /// The policy's name.
    pub fn policy_name(&self) -> &str {
        self.policy.name()
    }

    /// The repository (authoritative state).
    pub fn repo(&self) -> &Repository {
        &self.repo
    }

    /// The cache store.
    pub fn cache(&self) -> &CacheStore {
        &self.cache
    }

    /// The cost account.
    pub fn ledger(&self) -> &CostLedger {
        &self.ledger
    }

    /// Highest event sequence number seen.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Events (queries + updates) processed.
    pub fn events(&self) -> u64 {
        self.queries + self.updates
    }

    /// Snapshot of the uniform operational counters.
    pub fn metrics(&self) -> EngineMetrics {
        EngineMetrics {
            ledger: self.ledger.clone(),
            queries: self.queries,
            updates: self.updates,
            tolerance_served: self.tolerance_served,
            cache_capacity: self.cache.capacity(),
            cache_used: self.cache.used(),
            residents: self.cache.len() as u64,
        }
    }

    /// Captures everything needed to resume warm: each object's forgotten
    /// base and retained update suffix, cache residency/versions/stale
    /// marks, the ledger and the engine counters. Policy decision state is
    /// not captured.
    pub fn snapshot(&self) -> EngineSnapshot {
        let mut entries = Vec::new();
        for o in self.repo.catalog().ids() {
            let resident = self.cache.get(o).map(|r| ResidentState {
                bytes: r.bytes,
                applied_version: r.applied_version,
                stale: r.stale,
            });
            if self.repo.version(o) > 0 || resident.is_some() {
                let base_version = self.repo.base_version(o);
                entries.push(ObjectEntry {
                    object: o.0,
                    base_version,
                    base_bytes: self.repo.base_bytes(o),
                    last_seq: self.repo.last_seq(o),
                    updates: self.repo.updates_since(o, base_version).collect(),
                    resident,
                });
            }
        }
        EngineSnapshot {
            policy: self.policy.name().to_string(),
            catalog_objects: self.repo.catalog().len() as u64,
            catalog_bytes: self.repo.catalog().total_bytes(),
            capacity: self.cache.capacity(),
            clock: self.clock,
            queries: self.queries,
            updates: self.updates,
            tolerance_served: self.tolerance_served,
            ledger: self.ledger.clone(),
            entries,
        }
    }

    /// Rebuilds an engine from a snapshot over `catalog`, running a
    /// fresh `policy`. The cache keeps the snapshot's capacity (not the
    /// policy's preferred capacity — the residents must fit exactly as
    /// they did). [`CachingPolicy::init`] is *not* run; see
    /// [`Engine::init`].
    pub fn restore(
        policy: Box<P>,
        catalog: &ObjectCatalog,
        snap: &EngineSnapshot,
    ) -> Result<Self, EngineError> {
        snap.validate(catalog, policy.name())?;
        let mut repo = Repository::new(catalog.clone());
        let mut cache = CacheStore::new(snap.capacity);
        for entry in &snap.entries {
            let o = ObjectId(entry.object);
            repo.restore_log(
                o,
                entry.base_version,
                entry.base_bytes,
                entry.last_seq,
                &entry.updates,
            );
            if let Some(res) = &entry.resident {
                cache
                    .restore(o, res.bytes, res.applied_version, res.stale)
                    .map_err(|e| {
                        EngineError::SnapshotMismatch(format!("restoring resident {o}: {e}"))
                    })?;
            }
        }
        Ok(Engine {
            policy,
            _policy_lifetime: std::marker::PhantomData,
            repo,
            cache,
            ledger: snap.ledger.clone(),
            clock: snap.clock,
            clamp_clock: false,
            queries: snap.queries,
            updates: snap.updates,
            tolerance_served: snap.tolerance_served,
        })
    }
}

/// Adapts a borrowed policy to the engine's owning interface (the
/// simulator's public signature hands out `&mut dyn CachingPolicy`).
pub(crate) struct BorrowedPolicy<'p>(pub &'p mut dyn CachingPolicy);

impl CachingPolicy for BorrowedPolicy<'_> {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn init(&mut self, ctx: &mut SimContext<'_>) {
        self.0.init(ctx);
    }
    fn on_query(&mut self, q: &QueryEvent, ctx: &mut SimContext<'_>) {
        self.0.on_query(q, ctx);
    }
    fn on_update(&mut self, u: &UpdateEvent, ctx: &mut SimContext<'_>) {
        self.0.on_update(u, ctx);
    }
    fn preferred_capacity(&self, catalog: &ObjectCatalog, configured: u64) -> u64 {
        self.0.preferred_capacity(catalog, configured)
    }
}

// ---- snapshot model ----

/// Cache-side state of one resident object, as captured in a snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResidentState {
    /// Bytes held (load size plus shipped update bytes).
    pub bytes: u64,
    /// Updates applied at the cache.
    pub applied_version: u64,
    /// Whether newer updates existed at the server.
    pub stale: bool,
}

/// One object's snapshot line: its repository update history (the
/// forgotten base as two counts, then the retained suffix) and, when
/// resident, its cache state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObjectEntry {
    /// Global object id.
    pub object: u32,
    /// Updates forgotten below the retained suffix.
    pub base_version: u64,
    /// Total bytes of those forgotten updates.
    pub base_bytes: u64,
    /// Sequence number of the object's latest update, retained or not —
    /// the floor the next update's seq must not go below.
    pub last_seq: u64,
    /// The retained suffix (seq, bytes) above the base, in seq order.
    pub updates: Vec<UpdateRecord>,
    /// Cache residency, if any.
    pub resident: Option<ResidentState>,
}

/// Everything [`Engine::restore`] needs to resume warm.
#[derive(Clone, Debug, PartialEq)]
pub struct EngineSnapshot {
    /// Name of the policy that was running (restores are refused across
    /// policy kinds — warm state under a different algorithm is
    /// undefined).
    pub policy: String,
    /// Catalog size the snapshot was taken over, for validation.
    pub catalog_objects: u64,
    /// Total base bytes of that catalog — a fingerprint that catches a
    /// different catalog with a coincidentally equal object count.
    pub catalog_bytes: u64,
    /// Cache capacity in bytes.
    pub capacity: u64,
    /// Engine clock (highest event seq seen).
    pub clock: u64,
    /// Queries served.
    pub queries: u64,
    /// Updates applied.
    pub updates: u64,
    /// Tolerance-served query count.
    pub tolerance_served: u64,
    /// The cost account.
    pub ledger: CostLedger,
    /// Per-object logs and residency (objects with neither updates nor
    /// residency are omitted).
    pub entries: Vec<ObjectEntry>,
}

/// Snapshot file format version. Version 2 carries each object's
/// forgotten base and retained suffix instead of its full update log;
/// version 1 files are refused.
pub const SNAPSHOT_FORMAT_VERSION: u32 = 2;

impl EngineSnapshot {
    /// Checks the snapshot against the world it would restore into.
    pub fn validate(&self, catalog: &ObjectCatalog, policy: &str) -> Result<(), EngineError> {
        let fail = |why: String| Err(EngineError::SnapshotMismatch(why));
        if self.policy != policy {
            return fail(format!(
                "snapshot was taken under policy {} but {policy} is configured",
                self.policy
            ));
        }
        if self.catalog_objects != catalog.len() as u64 {
            return fail(format!(
                "snapshot covers {} objects but the catalog has {}",
                self.catalog_objects,
                catalog.len()
            ));
        }
        if self.catalog_bytes != catalog.total_bytes() {
            return fail(format!(
                "snapshot was taken over a {}-byte catalog but this one totals {} bytes",
                self.catalog_bytes,
                catalog.total_bytes()
            ));
        }
        for entry in &self.entries {
            let o = ObjectId(entry.object);
            if o.index() >= catalog.len() {
                return fail(format!("entry for {o} is outside the catalog"));
            }
            if !entry.updates.windows(2).all(|w| w[0].seq <= w[1].seq) {
                return fail(format!("{o}'s update log is not seq-sorted"));
            }
            if entry.updates.last().is_some_and(|r| r.seq > entry.last_seq) {
                return fail(format!("{o}'s update log runs past its last seq"));
            }
            if let Some(res) = &entry.resident {
                let version = entry.base_version + entry.updates.len() as u64;
                if res.applied_version < entry.base_version || res.applied_version > version {
                    return fail(format!(
                        "{o} resident at version {} but its log covers {}..={version}",
                        res.applied_version, entry.base_version
                    ));
                }
            }
        }
        Ok(())
    }
}

impl ToJson for ResidentState {
    fn to_json(&self) -> Value {
        Value::Object(vec![
            ("bytes".into(), self.bytes.to_json()),
            ("applied_version".into(), self.applied_version.to_json()),
            ("stale".into(), self.stale.to_json()),
        ])
    }
}

impl FromJson for ResidentState {
    fn from_json(v: &Value) -> Result<Self, serde_json::Error> {
        Ok(ResidentState {
            bytes: u64::from_json(field(v, "bytes")?)?,
            applied_version: u64::from_json(field(v, "applied_version")?)?,
            stale: field(v, "stale")?
                .as_bool()
                .ok_or_else(|| serde_json::Error::msg("expected bool `stale`"))?,
        })
    }
}

impl ToJson for ObjectEntry {
    fn to_json(&self) -> Value {
        // Update logs dominate snapshot size; encode each record as a
        // compact `[seq, bytes]` pair rather than a keyed object.
        let updates = Value::Array(
            self.updates
                .iter()
                .map(|r| Value::Array(vec![r.seq.to_json(), r.bytes.to_json()]))
                .collect(),
        );
        Value::Object(vec![
            ("object".into(), self.object.to_json()),
            ("base_version".into(), self.base_version.to_json()),
            ("base_bytes".into(), self.base_bytes.to_json()),
            ("last_seq".into(), self.last_seq.to_json()),
            ("updates".into(), updates),
            (
                "resident".into(),
                self.resident
                    .as_ref()
                    .map(|r| r.to_json())
                    .unwrap_or(Value::Null),
            ),
        ])
    }
}

impl FromJson for ObjectEntry {
    fn from_json(v: &Value) -> Result<Self, serde_json::Error> {
        let pairs = field(v, "updates")?
            .as_array()
            .ok_or_else(|| serde_json::Error::msg("expected array `updates`"))?;
        let mut updates = Vec::with_capacity(pairs.len());
        for pair in pairs {
            let pair = pair
                .as_array()
                .ok_or_else(|| serde_json::Error::msg("expected [seq, bytes] pair"))?;
            if pair.len() != 2 {
                return Err(serde_json::Error::msg("expected [seq, bytes] pair"));
            }
            updates.push(UpdateRecord {
                seq: u64::from_json(&pair[0])?,
                bytes: u64::from_json(&pair[1])?,
            });
        }
        let resident = match field(v, "resident")? {
            Value::Null => None,
            other => Some(ResidentState::from_json(other)?),
        };
        Ok(ObjectEntry {
            object: u32::from_json(field(v, "object")?)?,
            base_version: u64::from_json(field(v, "base_version")?)?,
            base_bytes: u64::from_json(field(v, "base_bytes")?)?,
            last_seq: u64::from_json(field(v, "last_seq")?)?,
            updates,
            resident,
        })
    }
}

/// The snapshot's JSON header line.
fn snapshot_header(snap: &EngineSnapshot) -> Value {
    Value::Object(vec![
        ("format".into(), SNAPSHOT_FORMAT_VERSION.to_json()),
        ("policy".into(), snap.policy.to_json()),
        ("catalog_objects".into(), snap.catalog_objects.to_json()),
        ("catalog_bytes".into(), snap.catalog_bytes.to_json()),
        ("capacity".into(), snap.capacity.to_json()),
        ("clock".into(), snap.clock.to_json()),
        ("queries".into(), snap.queries.to_json()),
        ("updates".into(), snap.updates.to_json()),
        ("tolerance_served".into(), snap.tolerance_served.to_json()),
        ("ledger".into(), snap.ledger.to_json()),
        ("entries".into(), (snap.entries.len() as u64).to_json()),
    ])
}

/// Renders a snapshot in the JSONL wire/file format — a header line,
/// then one line per object entry. This is the byte layout both the
/// warm-restart files and the cluster's shard-migration frames carry
/// (the wire path needs the contiguous buffer; the file path streams
/// through [`write_snapshot`] instead).
pub fn snapshot_to_string(snap: &EngineSnapshot) -> String {
    let mut out = snapshot_header(snap).to_json_string();
    out.push('\n');
    for entry in &snap.entries {
        out.push_str(&entry.to_json().to_json_string());
        out.push('\n');
    }
    out
}

/// Parses the JSONL snapshot format produced by [`snapshot_to_string`]
/// (equivalently, the contents of a [`write_snapshot`] file).
pub fn snapshot_from_str(body: &str) -> std::io::Result<EngineSnapshot> {
    let mut lines = body.lines();
    let header_line = lines
        .next()
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "empty snapshot"))?;
    let header = serde_json::from_str_value(header_line).map_err(std::io::Error::from)?;
    let format = u32::from_json(field(&header, "format").map_err(std::io::Error::from)?)?;
    if format != SNAPSHOT_FORMAT_VERSION {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("unsupported snapshot format {format}"),
        ));
    }
    let expected = u64::from_json(field(&header, "entries").map_err(std::io::Error::from)?)?;
    let mut entries = Vec::new();
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        let v = serde_json::from_str_value(line).map_err(std::io::Error::from)?;
        entries.push(ObjectEntry::from_json(&v).map_err(std::io::Error::from)?);
    }
    if entries.len() as u64 != expected {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "snapshot truncated: header promises {expected} entries, found {}",
                entries.len()
            ),
        ));
    }
    let hfield = |name: &str| field(&header, name).map_err(std::io::Error::from);
    Ok(EngineSnapshot {
        policy: String::from_json(hfield("policy")?)?,
        catalog_objects: u64::from_json(hfield("catalog_objects")?)?,
        catalog_bytes: u64::from_json(hfield("catalog_bytes")?)?,
        capacity: u64::from_json(hfield("capacity")?)?,
        clock: u64::from_json(hfield("clock")?)?,
        queries: u64::from_json(hfield("queries")?)?,
        updates: u64::from_json(hfield("updates")?)?,
        tolerance_served: u64::from_json(hfield("tolerance_served")?)?,
        ledger: CostLedger::from_json(hfield("ledger")?)?,
        entries,
    })
}

/// Writes a snapshot in the JSONL format atomically (temp file +
/// rename), so a crash mid-write never leaves a torn snapshot where a
/// good one stood. Entries stream through the writer one line at a
/// time — the whole snapshot is never materialized in memory.
pub fn write_snapshot(path: &Path, snap: &EngineSnapshot) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let f = std::fs::File::create(&tmp)?;
        let mut w = BufWriter::new(f);
        w.write_all(snapshot_header(snap).to_json_string().as_bytes())?;
        w.write_all(b"\n")?;
        for entry in &snap.entries {
            w.write_all(entry.to_json().to_json_string().as_bytes())?;
            w.write_all(b"\n")?;
        }
        w.flush()?;
    }
    std::fs::rename(&tmp, path)
}

/// Reads a snapshot written by [`write_snapshot`].
pub fn read_snapshot(path: &Path) -> std::io::Result<EngineSnapshot> {
    let mut body = String::new();
    BufReader::new(std::fs::File::open(path)?).read_to_string(&mut body)?;
    snapshot_from_str(&body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vcover::VCover;
    use crate::yardstick::{NoCache, Replica};
    use delta_workload::{QueryKind, SyntheticSurvey, WorkloadConfig};

    fn survey(n: usize) -> SyntheticSurvey {
        let mut cfg = WorkloadConfig::small();
        cfg.n_queries = n;
        cfg.n_updates = n;
        SyntheticSurvey::generate(&cfg)
    }

    fn query(seq: u64, objects: Vec<u32>, bytes: u64, tolerance: u64) -> QueryEvent {
        QueryEvent {
            seq,
            objects: objects.into_iter().map(ObjectId).collect(),
            result_bytes: bytes,
            tolerance,
            kind: QueryKind::Selection,
        }
    }

    /// A policy that breaks the satisfaction contract on purpose.
    struct Broken;
    impl CachingPolicy for Broken {
        fn name(&self) -> &str {
            "Broken"
        }
        fn on_query(&mut self, _q: &QueryEvent, _ctx: &mut SimContext<'_>) {}
        fn on_update(&mut self, _u: &UpdateEvent, _ctx: &mut SimContext<'_>) {}
    }

    /// Loads object 0 up front, never ships an update and answers every
    /// query locally — legal only while the query's tolerance covers the
    /// staleness the engine's invalidation left behind.
    struct NeverRefresh;
    impl CachingPolicy for NeverRefresh {
        fn name(&self) -> &str {
            "NeverRefresh"
        }
        fn init(&mut self, ctx: &mut SimContext<'_>) {
            ctx.load_object(ObjectId(0)).unwrap();
        }
        fn on_query(&mut self, q: &QueryEvent, ctx: &mut SimContext<'_>) {
            ctx.answer_local(q);
        }
        fn on_update(&mut self, _u: &UpdateEvent, _ctx: &mut SimContext<'_>) {}
    }

    #[test]
    fn update_then_query_outcomes() {
        let catalog = ObjectCatalog::from_sizes(&[100, 200]);
        let mut e = Engine::new(Box::new(NoCache), &catalog, 1_000);
        e.init(None);
        let u = UpdateEvent {
            seq: 1,
            object: ObjectId(0),
            bytes: 10,
        };
        assert_eq!(
            e.apply(&Event::Update(u)).unwrap(),
            EngineOutcome::Update { version: 1 }
        );
        match e.apply(&Event::Query(query(2, vec![0], 55, 0))).unwrap() {
            EngineOutcome::Query {
                local,
                sync_messages,
                sync_bytes,
            } => {
                assert!(!local, "NoCache always ships");
                assert_eq!((sync_messages, sync_bytes), (1, 55));
            }
            other => panic!("unexpected {other:?}"),
        }
        let m = e.metrics();
        assert_eq!((m.queries, m.updates), (1, 1));
        assert_eq!(m.ledger.breakdown.query_ship.bytes(), 55);
        assert_eq!(e.events(), 2);
    }

    #[test]
    fn broken_policy_yields_typed_error_not_panic() {
        let catalog = ObjectCatalog::from_sizes(&[100]);
        let mut e = Engine::new(Box::new(Broken), &catalog, 1_000);
        e.init(None);
        let err = e.apply(&Event::Query(query(7, vec![0], 5, 0))).unwrap_err();
        assert_eq!(
            err,
            EngineError::ContractViolated {
                policy: "Broken".into(),
                seq: 7
            }
        );
        // The engine survives and keeps serving.
        assert_eq!(e.metrics().queries, 0, "violated queries are not counted");
        let u = UpdateEvent {
            seq: 8,
            object: ObjectId(0),
            bytes: 1,
        };
        assert!(e.apply(&Event::Update(u)).is_ok());
    }

    #[test]
    fn clamped_clock_makes_arrival_order_authoritative() {
        let catalog = ObjectCatalog::from_sizes(&[100, 200]);
        let mut e = Engine::new(Box::new(NoCache), &catalog, 1_000).clamp_clock(true);
        e.init(None);
        let mk = |seq, object| UpdateEvent {
            seq,
            object: ObjectId(object),
            bytes: 1,
        };
        e.apply(&Event::Update(mk(10, 0))).unwrap();
        // An out-of-order arrival is clamped instead of panicking the
        // repository's monotonicity assert.
        e.apply(&Event::Update(mk(5, 0))).unwrap();
        assert_eq!(e.clock(), 10);
    }

    #[test]
    fn tolerance_served_counts_stale_local_answers() {
        let catalog = ObjectCatalog::from_sizes(&[100]);
        let mut e = Engine::new(Box::new(NeverRefresh), &catalog, 1_000);
        e.init(None);
        // Fresh local answer: not tolerance-served.
        e.apply(&Event::Query(query(1, vec![0], 5, 0))).unwrap();
        assert_eq!(e.metrics().tolerance_served, 0);
        // The engine invalidates the resident; nothing refreshes it.
        let u = UpdateEvent {
            seq: 5,
            object: ObjectId(0),
            bytes: 1,
        };
        e.apply(&Event::Update(u)).unwrap();
        e.apply(&Event::Query(query(10, vec![0], 5, 100))).unwrap();
        let m = e.metrics();
        assert_eq!(m.tolerance_served, 1);
        assert_eq!(m.ledger.local_answers, 2);
    }

    #[test]
    fn snapshot_roundtrips_through_jsonl() {
        let s = survey(400);
        let cache = (s.catalog.total_bytes() as f64 * 0.3) as u64;
        let mut e = Engine::new(Box::new(VCover::new(cache, 5)), &s.catalog, cache);
        e.init(None);
        for event in s.trace.iter() {
            e.apply(event).unwrap();
        }
        let snap = e.snapshot();
        let path =
            std::env::temp_dir().join(format!("delta-engine-snap-{}.jsonl", std::process::id()));
        write_snapshot(&path, &snap).unwrap();
        let back = read_snapshot(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(snap, back);
    }

    #[test]
    fn snapshot_carries_the_base_and_only_the_retained_suffix() {
        let s = survey(3_000);
        let cache = (s.catalog.total_bytes() as f64 * 0.3) as u64;
        let mut e = Engine::new(Box::new(VCover::new(cache, 5)), &s.catalog, cache);
        e.init(None);
        // Stop at the first event that leaves a resident lagging above a
        // forgotten base: both halves of the entry are then non-trivial.
        let lagging_above_base = |e: &Engine<'_, VCover>| {
            e.cache()
                .iter()
                .any(|(o, r)| r.applied_version > 0 && e.repo().version(o) > r.applied_version)
        };
        let mut events = s.trace.iter();
        while !lagging_above_base(&e) {
            e.apply(
                events
                    .next()
                    .expect("the trace must leave a lagging resident"),
            )
            .unwrap();
        }
        let snap = e.snapshot();
        let suffixes: u64 = snap.entries.iter().map(|x| x.updates.len() as u64).sum();
        assert_eq!(suffixes, e.repo().retained());
        assert!(snap
            .entries
            .iter()
            .any(|x| x.base_version > 0 && !x.updates.is_empty()));
        let back = snapshot_from_str(&snapshot_to_string(&snap)).unwrap();
        assert_eq!(back, snap);
        let restored = Engine::restore(Box::new(VCover::new(cache, 5)), &s.catalog, &back).unwrap();
        let history = |r: &Repository, o| {
            let base = r.base_version(o);
            let suffix: Vec<_> = r.updates_since(o, base).collect();
            (r.version(o), base, r.base_bytes(o), r.last_seq(o), suffix)
        };
        for o in s.catalog.ids() {
            assert_eq!(history(e.repo(), o), history(restored.repo(), o), "{o}");
            assert_eq!(e.repo().current_size(o), restored.repo().current_size(o));
        }
    }

    #[test]
    fn a_cacheless_engine_snapshots_no_update_records() {
        let s = survey(400);
        let mut e = Engine::new(Box::new(NoCache), &s.catalog, 10_000);
        e.init(None);
        for event in s.trace.iter() {
            e.apply(event).unwrap();
        }
        let snap = e.snapshot();
        assert!(!snap.entries.is_empty(), "updated objects keep an entry");
        for entry in &snap.entries {
            let o = ObjectId(entry.object);
            assert!(entry.updates.is_empty() && entry.resident.is_none());
            assert_eq!(entry.base_version, e.repo().version(o));
            assert_eq!(
                entry.base_bytes + s.catalog.size(o),
                e.repo().current_size(o)
            );
        }
        let restored = Engine::restore(Box::new(NoCache), &s.catalog, &snap).unwrap();
        assert_eq!(restored.repo().retained(), 0);
        assert_eq!(
            restored.repo().total_current_bytes(),
            e.repo().total_current_bytes()
        );
        assert_eq!(restored.snapshot(), snap);
    }

    #[test]
    fn format_1_snapshots_are_refused() {
        let catalog = ObjectCatalog::from_sizes(&[100]);
        let e = Engine::new(Box::new(NoCache), &catalog, 1_000);
        let v2 = snapshot_to_string(&e.snapshot());
        let v1 = v2.replacen("\"format\":2", "\"format\":1", 1);
        assert_ne!(v1, v2, "the header carries the format version");
        let err = snapshot_from_str(&v1).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("unsupported snapshot format 1"),
            "{err}"
        );
    }

    #[test]
    fn a_resident_below_the_base_is_refused() {
        let catalog = ObjectCatalog::from_sizes(&[100]);
        let mut e = Engine::new(Box::new(Replica), &catalog, 1_000);
        e.init(None);
        let mut snap = e.snapshot();
        snap.entries[0].base_version = 3;
        snap.entries[0].last_seq = 3;
        let err = Engine::restore(Box::new(Replica), &catalog, &snap).unwrap_err();
        assert!(err.to_string().contains("resident at version 0"), "{err}");
    }

    #[test]
    fn metrics_survive_a_snapshot_restore_cycle() {
        let s = survey(400);
        let cache = (s.catalog.total_bytes() as f64 * 0.3) as u64;
        let mut e = Engine::new(Box::new(VCover::new(cache, 5)), &s.catalog, cache);
        e.init(None);
        for event in s.trace.iter() {
            e.apply(event).unwrap();
        }
        let snap = e.snapshot();
        let restored = Engine::restore(Box::new(VCover::new(cache, 5)), &s.catalog, &snap).unwrap();
        assert_eq!(restored.metrics(), e.metrics());
        assert_eq!(restored.clock(), e.clock());
        assert_eq!(restored.snapshot(), snap, "restore is a fixed point");
    }

    #[test]
    fn restore_refuses_mismatched_worlds() {
        let s = survey(50);
        let cache = 10_000;
        let mut e = Engine::new(Box::new(NoCache), &s.catalog, cache);
        e.init(None);
        for event in s.trace.iter() {
            e.apply(event).unwrap();
        }
        let snap = e.snapshot();
        // Wrong policy.
        let err = Engine::restore(Box::new(Replica), &s.catalog, &snap).unwrap_err();
        assert!(matches!(err, EngineError::SnapshotMismatch(_)), "{err}");
        // Wrong catalog (object count).
        let other = ObjectCatalog::from_sizes(&[1, 2, 3]);
        let err = Engine::restore(Box::new(NoCache), &other, &snap).unwrap_err();
        assert!(matches!(err, EngineError::SnapshotMismatch(_)), "{err}");
        // Same object count, different sizes: the byte fingerprint
        // catches the impostor catalog.
        let catalog = ObjectCatalog::from_sizes(&[100, 200]);
        let mut e = Engine::new(Box::new(NoCache), &catalog, 1_000);
        e.init(None);
        let snap = e.snapshot();
        let impostor = ObjectCatalog::from_sizes(&[100, 999]);
        let err = Engine::restore(Box::new(NoCache), &impostor, &snap).unwrap_err();
        assert!(
            err.to_string().contains("catalog"),
            "size mismatch must be refused: {err}"
        );
    }

    /// The warm-restart contract: for policies whose behaviour depends
    /// only on world state (NoCache ships everything; Replica's mirror
    /// *is* the world state), prefix + restore + tail is byte-identical
    /// to an uninterrupted run.
    #[test]
    fn restore_and_replay_tail_matches_uninterrupted_run() {
        let s = survey(500);
        for policy in ["NoCache", "Replica"] {
            let build = || -> Box<dyn CachingPolicy> {
                match policy {
                    "NoCache" => Box::new(NoCache),
                    _ => Box::new(Replica),
                }
            };
            let cache = (s.catalog.total_bytes() as f64 * 0.3) as u64;
            let mut full = Engine::new(build(), &s.catalog, cache);
            full.init(None);
            for event in s.trace.iter() {
                full.apply(event).unwrap();
            }

            let mid = s.trace.len() / 2;
            let mut prefix = Engine::new(build(), &s.catalog, cache);
            prefix.init(None);
            for event in s.trace.events[..mid].iter() {
                prefix.apply(event).unwrap();
            }
            let snap = prefix.snapshot();
            let mut resumed = Engine::restore(build(), &s.catalog, &snap).unwrap();
            for event in s.trace.events[mid..].iter() {
                resumed.apply(event).unwrap();
            }
            assert_eq!(
                resumed.metrics(),
                full.metrics(),
                "{policy}: warm restart must be invisible in the ledger"
            );
        }
    }

    /// VCover's decision state is volatile (not snapshotted), so the
    /// resumed run may legally diverge from the uninterrupted one — but
    /// it must stay correct and deterministic.
    #[test]
    fn vcover_restore_is_deterministic_and_correct() {
        let s = survey(500);
        let cache = (s.catalog.total_bytes() as f64 * 0.3) as u64;
        let mid = s.trace.len() / 2;
        let mut prefix = Engine::new(Box::new(VCover::new(cache, 9)), &s.catalog, cache);
        prefix.init(None);
        for event in s.trace.events[..mid].iter() {
            prefix.apply(event).unwrap();
        }
        let snap = prefix.snapshot();

        let run_tail = || {
            let mut e =
                Engine::restore(Box::new(VCover::new(cache, 9)), &s.catalog, &snap).unwrap();
            for event in s.trace.events[mid..].iter() {
                e.apply(event).unwrap();
            }
            e.metrics()
        };
        let (a, b) = (run_tail(), run_tail());
        assert_eq!(a, b, "restored replay must be deterministic");
        assert_eq!(
            a.ledger.shipped_queries + a.ledger.local_answers,
            s.trace.n_queries() as u64,
            "every query satisfied across the restart"
        );
    }
}
