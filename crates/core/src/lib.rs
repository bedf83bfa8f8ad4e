//! # delta-core — the Delta decoupling framework
//!
//! The primary contribution of *A Dynamic Data Middleware Cache for
//! Rapidly-growing Scientific Repositories* (Malik et al., MIDDLEWARE
//! 2010): a middleware cache that adaptively **decouples** data objects —
//! caching the heavily-queried ones (shipping their updates on demand) and
//! leaving the heavily-updated ones at the repository (shipping queries) —
//! to minimize network traffic.
//!
//! * [`VCover`] — the paper's core algorithm: an [`UpdateManager`] solving
//!   incremental minimum-weight vertex covers on the live interaction
//!   graph (ship-query vs ship-updates, Theorem 1), and a [`LoadManager`]
//!   doing randomized bypass admission into a lazy Greedy-Dual-Size cache.
//! * [`Benefit`] — the windowed exponential-smoothing greedy baseline
//!   (§5).
//! * [`NoCache`] / [`Replica`] / [`SOptimal`] — the three yardsticks of
//!   §6.1.
//! * [`engine`] — the one decoupling engine both drivers run (this
//!   crate's simulator and the server's shard cores): update
//!   application, invalidation and the satisfaction contract behind a
//!   typed [`EngineError`], with uniform [`EngineMetrics`] and
//!   snapshot/warm-restart support.
//! * [`sim`] — the event simulator producing the cumulative-traffic curves
//!   of Fig. 7(b)/8, a thin trace driver over the engine.
//! * [`offline`] — the Theorem-1 hindsight optimum: the exact
//!   minimum-weight vertex cover over a whole trace for a static cached
//!   set.
//! * [`preship`] / [`latency`] — the §4 response-time extension:
//!   proactive update shipping for hot resident objects, priced against
//!   a WAN link model.
//!
//! ```
//! use delta_core::{sim, VCover};
//! use delta_workload::{SyntheticSurvey, WorkloadConfig};
//!
//! let mut cfg = WorkloadConfig::small();
//! cfg.n_queries = 200;
//! cfg.n_updates = 200;
//! let survey = SyntheticSurvey::generate(&cfg);
//! let opts = sim::SimOptions::with_cache_fraction(&survey.catalog, 0.3, 100);
//! let mut vcover = VCover::new(opts.cache_bytes, 42);
//! let report = sim::simulate(&mut vcover, &survey.catalog, &survey.trace, opts);
//! assert!(report.total().bytes() > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod benefit;
pub mod context;
pub mod cost;
pub mod engine;
pub mod latency;
pub mod load_manager;
pub mod obj_cache;
pub mod offline;
pub mod policy_trait;
pub mod preship;
pub mod sim;
pub mod update_manager;
pub mod vcover;
pub mod yardstick;

pub use benefit::{Benefit, BenefitConfig};
pub use context::SimContext;
pub use cost::{Cost, CostBreakdown, CostLedger};
pub use engine::{Engine, EngineError, EngineMetrics, EngineOutcome, EngineSnapshot};
pub use latency::{LatencyCollector, LatencyStats};
pub use load_manager::{AdmissionMode, LoadManager};
pub use obj_cache::ObjCache;
pub use offline::{hindsight_decoupling, HindsightReport};
pub use policy_trait::{CachingPolicy, PolicyInstruments};
pub use preship::{Preship, PreshipConfig};
pub use sim::{compare_all, simulate, try_simulate, SeriesPoint, SimOptions, SimReport};
pub use update_manager::UpdateManager;
pub use vcover::VCover;
pub use yardstick::{NoCache, Replica, SOptimal};
