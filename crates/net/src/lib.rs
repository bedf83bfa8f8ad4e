//! # delta-net — network accounting
//!
//! The paper prices every data movement between the repository and the
//! middleware cache by its bytes (§3). This crate holds the two pieces
//! of that accounting the rest of the workspace shares:
//!
//! * [`TrafficMeter`] / [`TrafficClass`] — byte counters per communication
//!   mechanism (query shipping, update shipping, object loading — the
//!   paper's three, §3 — plus uncharged control traffic). The server
//!   meters its wire traffic on one.
//! * [`LinkModel`] — the first-order WAN model (RTT plus bytes over
//!   bandwidth) behind the simulator's latency extension and the
//!   server's injected node latency.
//!
//! ```
//! use delta_net::{LinkModel, TrafficClass, TrafficMeter};
//!
//! let meter = TrafficMeter::new();
//! meter.record(TrafficClass::QueryShip, 1024);
//! meter.record(TrafficClass::Control, 16);
//! assert_eq!(meter.snapshot().bytes_for(TrafficClass::QueryShip), 1024);
//! assert_eq!(meter.charged_total(), 1024);
//! assert!(LinkModel::wan().transfer_secs(1024) > LinkModel::lan().transfer_secs(1024));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod latency;
pub mod meter;

pub use latency::LinkModel;
pub use meter::{TrafficClass, TrafficMeter, TrafficSnapshot};
