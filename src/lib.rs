//! # delta — facade crate
//!
//! Re-exports the whole Delta reproduction workspace behind one dependency:
//! the paper's decoupling framework ([`delta_core`]), the substrates it
//! runs on (HTM sky partitioning, max-flow/vertex-cover engine, network
//! accounting, object stores, replacement policies, and the SDSS-like
//! workload reconstruction), and the sharded TCP cache service
//! ([`delta_server`]) that puts the engine on the wire.
//!
//! See the `examples/` directory for runnable entry points, `DESIGN.md`
//! for the crate map, and the README for the `delta-serverd` /
//! `delta-loadgen` quickstart.
//!
//! ```
//! use delta::core::{sim, VCover};
//! use delta::workload::{SyntheticSurvey, WorkloadConfig};
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

#![forbid(unsafe_code)]

pub use delta_core as core;
pub use delta_flow as flow;
pub use delta_htm as htm;
pub use delta_net as net;
pub use delta_policy as policy;
pub use delta_query as query;
pub use delta_server as server;
pub use delta_storage as storage;
pub use delta_telemetry as telemetry;
pub use delta_workload as workload;
