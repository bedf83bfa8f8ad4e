//! The policy interface every algorithm (VCover, Benefit, the yardsticks)
//! implements, and over which the simulator runs.

use crate::context::SimContext;
use delta_storage::ObjectCatalog;
use delta_telemetry::{Counter, Gauge, Histogram};
use delta_workload::{QueryEvent, UpdateEvent};
use std::sync::Arc;

/// Telemetry handles a serving stack can hand to a policy so its internal
/// solver is observable in the node scrape plane. Strictly observational:
/// a policy's decisions are byte-identical with or without instruments
/// attached (no `Instant::now` calls happen when detached, so the pure
/// sim/bench path pays nothing).
#[derive(Clone)]
pub struct PolicyInstruments {
    /// Cover solve latency per decided query (`um.solve_ns`).
    pub solve_ns: Arc<Histogram>,
    /// Live segment and query vertices of the cover graph
    /// (`um.graph_nodes`): the retained single-object queries of one relay
    /// share a vertex and count once, and the relays are not counted.
    pub graph_nodes: Arc<Gauge>,
    /// Live infinite-capacity edges the cover graph's flow network holds
    /// (`um.graph_edges`): segment, relay-chain and attachment edges.
    /// Before relay chains this counted one edge per (query, segment)
    /// interaction, so values from older builds are not comparable.
    pub graph_edges: Arc<Gauge>,
    /// Cover solves performed (`um.solves`).
    pub solves: Arc<Counter>,
}

impl std::fmt::Debug for PolicyInstruments {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PolicyInstruments")
            .field("solves", &self.solves.get())
            .finish_non_exhaustive()
    }
}

/// A middleware caching algorithm driven by the event simulator.
///
/// Contract: after [`CachingPolicy::on_query`] returns, the context must be
/// satisfied — the policy either shipped the query or answered it locally
/// (which in turn demands genuine currency). The simulator enforces this.
pub trait CachingPolicy {
    /// Human-readable name used in reports and figures.
    fn name(&self) -> &str;

    /// Called once before the first event. May pre-populate the cache
    /// (e.g. SOptimal loads its static set, charged; Replica mirrors the
    /// repository, uncharged per the paper).
    fn init(&mut self, _ctx: &mut SimContext<'_>) {}

    /// Handles an arriving user query. The repository and cache reflect
    /// all earlier events; `ctx.now` is the query's sequence number.
    fn on_query(&mut self, q: &QueryEvent, ctx: &mut SimContext<'_>);

    /// Handles an update arrival. The simulator has already applied it to
    /// the repository and invalidated any cached copy; the policy decides
    /// whether to ship anything now (Replica does; VCover defers to query
    /// demand — design choice A of §1).
    fn on_update(&mut self, u: &UpdateEvent, ctx: &mut SimContext<'_>);

    /// Cache capacity this policy wants, given the configured default.
    /// Only Replica overrides this (it mirrors the whole repository).
    fn preferred_capacity(&self, _catalog: &ObjectCatalog, configured: u64) -> u64 {
        configured
    }

    /// Hands the policy telemetry handles to record its internal solver
    /// activity on. Default: ignored (most policies have no solver);
    /// VCover forwards them to its `UpdateManager`. Must stay strictly
    /// observational — attaching instruments never changes decisions.
    fn attach_instruments(&mut self, _instruments: PolicyInstruments) {}
}
