//! The four workloads: topology, policy, trace scenario, frame shape,
//! segment sizes and paced rate. Every constant here was calibrated
//! once on the reference box (see README.md) and is frozen; a change
//! to any of them is a change to the benchmark, not to the program.

use crate::wire::Window;
use delta_server::{PartitionerKind, PolicyKind};
use delta_storage::ObjectCatalog;
use delta_workload::WorkloadConfig;

/// `--seconds` value the event counts below are calibrated for.
pub const NOMINAL_SECONDS: u64 = 10;

/// How the served system is laid out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// One `Server`, all shards local.
    Node,
    /// A `Router` fronting two `Server` nodes with `replicas` backups
    /// per shard.
    Cluster { replicas: u16 },
}

/// Shape of the closed-phase frames.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Frames {
    /// `Tagged(Batch)` frames of `size` events, `window` in flight.
    Batch { size: usize, window: usize },
    /// Single-event `Tagged` frames, `window` in flight.
    Single { window: usize },
}

impl Frames {
    /// The closed loop's window and refill rule.
    ///
    /// `Batch` frames refill on every reply: the server always has the
    /// next frame queued, which is what a pipelined client is for.
    /// Single-event frames refill once the window is half empty. Refilled
    /// on every reply, one connection of them settles into either of two
    /// self-sustaining rhythms — client and event loop both streaming
    /// without ever blocking (930k ev/s on the reference box) or waking
    /// each other once per frame (270k ev/s) — and which one a run gets
    /// is luck (one in eight got the first). The half-window rule admits
    /// only blocking cycles of `window / 2` frames.
    pub fn window(&self) -> Window {
        match *self {
            Frames::Batch { window, .. } => Window {
                size: window,
                refill_at: window - 1,
            },
            Frames::Single { window, .. } => Window {
                size: window,
                refill_at: window / 2,
            },
        }
    }
}

/// How `--seed` shapes the trace.
///
/// VCover's running time is chaotic in the trace: across generator
/// seeds the same 1M-event `sdss_like` pass costs 0.7 s to 92 s of
/// engine time (README, "Seeds"). A metric with that spread cannot
/// carry a regression bound, so the VCover workloads freeze the
/// scenario (sky, hotspots, stripes, event order) and let the seed
/// re-draw every event's byte size within ±1 %; the engine-free
/// workload lets the seed re-draw everything.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Seeding {
    /// Fixed scenario seed; `--seed` jitters byte sizes by ±1 %.
    Jitter { scenario: u64 },
    /// `--seed` is the generator seed.
    Full,
}

/// One workload of the benchmark.
#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub topology: Topology,
    pub n_shards: usize,
    pub partitioner: PartitionerKind,
    pub policy: PolicyKind,
    /// Cache budget as a share of the catalog's bytes.
    pub cache_fraction: f64,
    pub seeding: Seeding,
    /// Generator configuration (seed filled in from `seeding`).
    pub config: WorkloadConfig,
    pub frames: Frames,
    /// Unmeasured events sent before the closed phase (part of set-up).
    pub warmup_events: usize,
    /// Closed-phase events at [`NOMINAL_SECONDS`].
    pub closed_events: usize,
    /// Paced-phase events at [`NOMINAL_SECONDS`].
    pub paced_events: usize,
    /// Paced arrival rate, events per second.
    pub paced_rate: f64,
    /// Latency limit for `client.slo_miss_share`, microseconds.
    pub slo_us: f64,
}

impl Spec {
    /// Events the trace must hold.
    pub fn trace_events(&self) -> usize {
        self.config.n_events()
    }

    /// Whether shards have backups, i.e. replication is on the path.
    pub fn replicated(&self) -> bool {
        matches!(self.topology, Topology::Cluster { replicas } if replicas > 0)
    }

    /// The cluster-wide cache budget over `catalog`.
    pub fn cache_bytes(&self, catalog: &ObjectCatalog) -> u64 {
        (catalog.total_bytes() as f64 * self.cache_fraction) as u64
    }

    /// Segment sizes for a run of `seconds`: counts scale linearly from
    /// the nominal calibration and are capped by the scenario's length
    /// (segments are cut from one trace and never replayed).
    pub fn segments(&self, seconds: u64) -> Segments {
        let scale =
            |n: usize| (n as u128 * seconds as u128 / NOMINAL_SECONDS as u128).max(256) as usize;
        let total = self.trace_events();
        let warmup = self.warmup_events;
        let closed = scale(self.closed_events).min(total - warmup - 256);
        let paced = scale(self.paced_events).min(total - warmup - closed);
        Segments {
            warmup,
            closed,
            paced,
        }
    }

    /// The few-second smoke size (`--quick`): every count divided by 40.
    /// Same code paths, numbers that mean nothing.
    pub fn quick(mut self) -> Spec {
        self.config.n_queries /= 40;
        self.config.n_updates /= 40;
        self.warmup_events /= 40;
        self.closed_events /= 40;
        self.paced_events /= 40;
        self.paced_rate /= 4.0;
        self
    }
}

/// Event counts of the three consecutive trace segments of one run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Segments {
    pub warmup: usize,
    pub closed: usize,
    pub paced: usize,
}

impl Segments {
    pub fn total(&self) -> usize {
        self.warmup + self.closed + self.paced
    }
}

fn sdss(n_queries: usize, n_updates: usize) -> WorkloadConfig {
    WorkloadConfig {
        n_queries,
        n_updates,
        ..WorkloadConfig::sdss_like()
    }
}

fn small(n_queries: usize, n_updates: usize) -> WorkloadConfig {
    WorkloadConfig {
        n_queries,
        n_updates,
        ..WorkloadConfig::small()
    }
}

/// The benchmark's workloads, in the order they run.
pub fn all() -> Vec<Spec> {
    vec![
        Spec {
            name: "sdss_mixed",
            why: "Paper 6.1 mix (50% updates) from a cold cache through a VCover solve cliff: core+flow do most of the work, protocol/front amortised 64x.",
            topology: Topology::Node,
            n_shards: 4,
            partitioner: PartitionerKind::RoundRobin,
            policy: PolicyKind::VCover,
            cache_fraction: 0.3,
            seeding: Seeding::Jitter { scenario: 13 },
            config: sdss(300_000, 300_000),
            frames: Frames::Batch { size: 64, window: 8 },
            warmup_events: 0,
            closed_events: 400_000,
            paced_events: 80_000,
            paced_rate: 20_000.0,
            slo_us: 1_000.0,
        },
        Spec {
            name: "update_surge",
            why: "Same node, 4 updates per query (rapidly growing repository): update ingest and large cover graphs; prices per-update bookkeeping a query-path change adds.",
            topology: Topology::Node,
            n_shards: 4,
            partitioner: PartitionerKind::RoundRobin,
            policy: PolicyKind::VCover,
            cache_fraction: 0.3,
            seeding: Seeding::Jitter { scenario: 7 },
            config: sdss(70_000, 280_000),
            frames: Frames::Batch { size: 64, window: 8 },
            warmup_events: 0,
            closed_events: 300_000,
            paced_events: 20_000,
            paced_rate: 5_000.0,
            slo_us: 5_000.0,
        },
        Spec {
            name: "small_frames",
            why: "Smallest message on an empty engine (NoCache): protocol, connection, reactor, partition and shard lock do all the work; a VCover change must not move it.",
            topology: Topology::Node,
            n_shards: 4,
            partitioner: PartitionerKind::RoundRobin,
            policy: PolicyKind::NoCache,
            cache_fraction: 0.3,
            seeding: Seeding::Full,
            config: small(800_000, 800_000),
            frames: Frames::Single { window: 16 },
            warmup_events: 0,
            closed_events: 1_400_000,
            paced_events: 160_000,
            paced_rate: 40_000.0,
            slo_us: 1_000.0,
        },
        Spec {
            name: "routed_replicated",
            why: "Router + 2 nodes, ring partitioner, 1 backup per shard: the only workload with router, mux and the replication write-ack wait on the path.",
            topology: Topology::Cluster { replicas: 1 },
            n_shards: 4,
            partitioner: PartitionerKind::HashRing,
            policy: PolicyKind::VCover,
            cache_fraction: 0.3,
            seeding: Seeding::Jitter { scenario: 8 },
            config: small(1_100_000, 1_100_000),
            frames: Frames::Batch { size: 128, window: 8 },
            warmup_events: 100_000,
            closed_events: 2_000_000,
            paced_events: 20_000,
            paced_rate: 5_000.0,
            slo_us: 5_000.0,
        },
    ]
}

pub fn by_name(name: &str) -> Option<Spec> {
    all().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_fit_the_trace_at_every_scale() {
        for spec in all() {
            for spec in [spec.clone(), spec.quick()] {
                for seconds in [1, NOMINAL_SECONDS, 60] {
                    let seg = spec.segments(seconds);
                    assert!(seg.total() <= spec.trace_events(), "{}", spec.name);
                    assert!(seg.closed >= 256 && seg.paced >= 256, "{}", spec.name);
                }
            }
        }
    }
}
