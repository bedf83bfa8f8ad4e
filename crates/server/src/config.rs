//! Server configuration: shard count, cache budget, policy choice,
//! partitioner choice, the optional SQL frontend, and the optional
//! cluster role.

use delta_core::{
    Benefit, BenefitConfig, CachingPolicy, NoCache, ObjCache, Replica, SimContext, VCover,
};
use delta_policy::{Gdsf, GreedyDualSize, Lru};
use delta_workload::{QueryEvent, UpdateEvent, WorkloadConfig};

pub use crate::partition::PartitionerKind;

/// Which decoupling policy each shard runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyKind {
    /// The paper's incremental vertex-cover algorithm (default).
    VCover,
    /// The windowed exponential-smoothing greedy baseline.
    Benefit,
    /// Ship every query (no cache) — a yardstick, useful for smoke tests.
    NoCache,
    /// Mirror the repository — the other yardstick.
    Replica,
    /// Classic object caching under Greedy-Dual-Size (the paper's
    /// `A_obj` run *without* the decoupling framework around it — the
    /// web-proxy baseline).
    Gds,
    /// Classic object caching under GDS-Frequency.
    Gdsf,
    /// Classic object caching under size-aware LRU.
    Lru,
    /// A policy that deliberately violates the satisfaction contract on
    /// every query. Exists so hostile tests can prove the server maps
    /// `EngineError::ContractViolated` to a typed error frame instead of
    /// losing a shard thread; never use it to serve anything.
    Broken,
}

/// The deliberately contract-violating policy behind
/// [`PolicyKind::Broken`]: it ignores every query.
#[derive(Clone, Copy, Debug, Default)]
struct BrokenPolicy;

impl CachingPolicy for BrokenPolicy {
    fn name(&self) -> &str {
        "Broken"
    }
    fn on_query(&mut self, _q: &QueryEvent, _ctx: &mut SimContext<'_>) {}
    fn on_update(&mut self, _u: &UpdateEvent, _ctx: &mut SimContext<'_>) {}
}

impl PolicyKind {
    /// Builds a fresh policy instance for one shard.
    pub fn build(&self, cache_bytes: u64, seed: u64) -> Box<dyn CachingPolicy + Send> {
        match self {
            PolicyKind::VCover => Box::new(VCover::new(cache_bytes, seed)),
            PolicyKind::Benefit => Box::new(Benefit::new(cache_bytes, BenefitConfig::default())),
            PolicyKind::NoCache => Box::new(NoCache),
            PolicyKind::Replica => Box::new(Replica),
            PolicyKind::Gds => Box::new(ObjCache::new("Gds", GreedyDualSize::new(cache_bytes))),
            PolicyKind::Gdsf => Box::new(ObjCache::new("Gdsf", Gdsf::new(cache_bytes))),
            PolicyKind::Lru => Box::new(ObjCache::new("Lru", Lru::new(cache_bytes))),
            PolicyKind::Broken => Box::new(BrokenPolicy),
        }
    }

    /// The name the built policy reports (`CachingPolicy::name`), used
    /// in stats frames and snapshot headers.
    pub fn policy_name(&self) -> &'static str {
        match self {
            PolicyKind::VCover => "VCover",
            PolicyKind::Benefit => "Benefit",
            PolicyKind::NoCache => "NoCache",
            PolicyKind::Replica => "Replica",
            PolicyKind::Gds => "Gds",
            PolicyKind::Gdsf => "Gdsf",
            PolicyKind::Lru => "Lru",
            PolicyKind::Broken => "Broken",
        }
    }

    /// Parses a policy name (as accepted by `delta-serverd --policy`).
    /// `broken` is accepted but undocumented — it exists for hostile
    /// testing only.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "vcover" => Ok(PolicyKind::VCover),
            "benefit" => Ok(PolicyKind::Benefit),
            "nocache" => Ok(PolicyKind::NoCache),
            "replica" => Ok(PolicyKind::Replica),
            "gds" => Ok(PolicyKind::Gds),
            "gdsf" => Ok(PolicyKind::Gdsf),
            "lru" => Ok(PolicyKind::Lru),
            "broken" => Ok(PolicyKind::Broken),
            other => Err(format!(
                "unknown policy {other:?}; expected vcover, benefit, nocache, replica, \
                 gds, gdsf or lru"
            )),
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicyKind::VCover => write!(f, "vcover"),
            PolicyKind::Benefit => write!(f, "benefit"),
            PolicyKind::NoCache => write!(f, "nocache"),
            PolicyKind::Replica => write!(f, "replica"),
            PolicyKind::Gds => write!(f, "gds"),
            PolicyKind::Gdsf => write!(f, "gdsf"),
            PolicyKind::Lru => write!(f, "lru"),
            PolicyKind::Broken => write!(f, "broken"),
        }
    }
}

/// How a tier's (server or router) epoll reactor front door is sized: a
/// few nonblocking event loops multiplex every connection, so
/// concurrent-connection capacity is bounded by fds and memory, not
/// threads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrontDoor {
    /// Reactor event-loop threads (`--reactor-threads`); `0` picks a
    /// small automatic count from the machine's parallelism.
    pub threads: usize,
}

/// Cluster-node identity: which node this server is and which of the
/// global shards it hosts at startup. Present only on servers fronted by
/// a `delta-routerd`; standalone servers host every shard and never see
/// a routing epoch.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// This node's index (0-based).
    pub node: u16,
    /// Total nodes in the cluster.
    pub nodes: u16,
    /// Global shard ids this node hosts at startup. Resharding moves
    /// shards between nodes at runtime.
    pub hosted: Vec<u16>,
}

impl ClusterConfig {
    /// The default shard placement: node `i` of `n` hosts every shard
    /// `s` with `s % n == i`.
    ///
    /// # Panics
    /// Panics on `nodes == 0` — callers validate the node count first.
    pub fn default_hosted(node: u16, nodes: u16, n_shards: usize) -> Vec<u16> {
        assert!(nodes > 0, "cluster must have at least one node");
        (0..n_shards as u16).filter(|s| s % nodes == node).collect()
    }
}

/// Primary/backup replication for a cluster node (`--replicas N`).
///
/// Backup placement follows the successor rule: node `i` ships every
/// shard it hosts as a primary to nodes `(i+1) .. (i+replicas)` mod
/// `nodes`, so every node knows its targets from the peer list alone —
/// no placement negotiation. The peer list names every node's
/// *client-facing* address in node-id order (replication rides the
/// same port as everything else); entries for this node itself are
/// carried but never dialed.
#[derive(Clone, Debug)]
pub struct ReplicationConfig {
    /// Backups per shard. Zero disables replication entirely — the
    /// exact pre-replication data path, byte for byte and branch for
    /// branch.
    pub replicas: u16,
    /// Every node's address, indexed by node id.
    pub peers: Vec<String>,
    /// When set, only these global shards are accepted as backups on
    /// this node (`--backup-of`); `None` accepts a backup of any shard
    /// this node does not currently serve as primary.
    pub backup_of: Option<Vec<u16>>,
}

/// Everything `delta-serverd` needs besides the object catalog.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:7117` (port 0 picks one).
    pub bind: String,
    /// Number of shards in the partitioning. In cluster mode this is the
    /// *cluster-wide* shard count; the node hosts the subset named in
    /// [`ClusterConfig::hosted`].
    pub n_shards: usize,
    /// How objects map to shards.
    pub partitioner: PartitionerKind,
    /// Total middleware cache budget in bytes, split across shards
    /// proportionally to their share of the catalog. In cluster mode
    /// this is the cluster-wide budget (every node must be given the
    /// same value, or per-shard budgets would disagree across moves).
    pub cache_bytes: u64,
    /// Policy each shard runs.
    pub policy: PolicyKind,
    /// Master seed; shard `s` seeds its policy with
    /// [`ServerConfig::shard_seed`]. In cluster mode every node must
    /// share it, so a shard rebuilt on a new owner after a reshard gets
    /// the identical policy.
    pub seed: u64,
    /// Workload configuration the SQL frontend is built from: its seed,
    /// blob count and target object count reconstruct the schema / sky
    /// model / spatial partition that produced the served catalog, so
    /// `Request::Sql` compiles against the same object mapping. `None`
    /// disables SQL frames (they get `error_code::SQL_UNAVAILABLE`).
    pub frontend: Option<WorkloadConfig>,
    /// Warm-restart directory. When set, each hosted shard writes an
    /// engine snapshot (`shard-N.jsonl`) on graceful shutdown, and on
    /// startup any snapshot found there is validated against the shard's
    /// sub-catalog and policy, then restored — the server resumes with
    /// its caches, ledgers and update logs exactly as it left them. A
    /// detached shard's file is removed, so a cold restart cannot
    /// resurrect a shard that moved away.
    pub snapshot_dir: Option<std::path::PathBuf>,
    /// Cluster role, when this server is one node of a routed cluster.
    pub cluster: Option<ClusterConfig>,
    /// Sizing of the reactor front door that serves clients.
    pub front: FrontDoor,
    /// How long a connection may sit mid-frame (or on a blocked flush)
    /// before it is reaped as half-open. Tests shrink this to keep reap
    /// assertions fast.
    pub stall_limit: std::time::Duration,
    /// Fault injection (`--chaos-node-latency-ms`): when set, every
    /// `NodeOps` frame this node executes first sleeps for the link
    /// model's transfer time, as if the node sat behind a slow WAN hop.
    /// Chaos tests point this at one node of a cluster to prove the
    /// router's data plane isolates the slowdown to the shards that
    /// node owns. `None` (the default) adds no work to the hot path.
    pub chaos_link: Option<delta_net::LinkModel>,
    /// Primary/backup replication (`--replicas N`). Requires a cluster
    /// role; `None` (the default) is the exact unreplicated data path.
    pub replication: Option<ReplicationConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            bind: "127.0.0.1:7117".to_string(),
            n_shards: 4,
            partitioner: PartitionerKind::RoundRobin,
            cache_bytes: 0,
            policy: PolicyKind::VCover,
            seed: 0xDE17A,
            frontend: None,
            snapshot_dir: None,
            cluster: None,
            front: FrontDoor::default(),
            stall_limit: crate::connection::STALL_LIMIT,
            chaos_link: None,
            replication: None,
        }
    }
}

impl ServerConfig {
    /// The seed shard `shard`'s policy runs with: `seed + shard`. Every
    /// engine built for the shard — at start-up, as a backup (a moved
    /// shard's included) or in the offline [`crate::twin::Twin`] — uses
    /// it.
    pub fn shard_seed(&self, shard: usize) -> u64 {
        self.seed + shard as u64
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_shards == 0 {
            return Err("n_shards must be at least 1".into());
        }
        if self.n_shards > u16::MAX as usize {
            return Err("n_shards exceeds u16".into());
        }
        if self.stall_limit.is_zero() {
            return Err("stall_limit must be nonzero".into());
        }
        if let Some(f) = &self.frontend {
            f.validate()
                .map_err(|e| format!("frontend workload config: {e}"))?;
        }
        if let Some(c) = &self.cluster {
            if c.nodes == 0 {
                return Err("cluster must have at least one node".into());
            }
            if c.node >= c.nodes {
                return Err(format!("node id {} out of range 0..{}", c.node, c.nodes));
            }
            let mut seen = vec![false; self.n_shards];
            for &s in &c.hosted {
                if (s as usize) >= self.n_shards {
                    return Err(format!(
                        "hosted shard {s} out of range 0..{}",
                        self.n_shards
                    ));
                }
                if seen[s as usize] {
                    return Err(format!("shard {s} hosted twice"));
                }
                seen[s as usize] = true;
            }
        }
        if let Some(r) = &self.replication {
            let Some(c) = &self.cluster else {
                return Err("replication requires a cluster role".into());
            };
            if r.replicas >= c.nodes {
                return Err(format!(
                    "replicas {} must be fewer than the {} cluster nodes",
                    r.replicas, c.nodes
                ));
            }
            if r.replicas > 0 && r.peers.len() != c.nodes as usize {
                return Err(format!(
                    "peer list names {} nodes, cluster has {}",
                    r.peers.len(),
                    c.nodes
                ));
            }
            if let Some(backup_of) = &r.backup_of {
                for &s in backup_of {
                    if (s as usize) >= self.n_shards {
                        return Err(format!(
                            "backup shard {s} out of range 0..{}",
                            self.n_shards
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_parse_round_trips() {
        for kind in [
            PolicyKind::VCover,
            PolicyKind::Benefit,
            PolicyKind::NoCache,
            PolicyKind::Replica,
            PolicyKind::Gds,
            PolicyKind::Gdsf,
            PolicyKind::Lru,
            PolicyKind::Broken,
        ] {
            assert_eq!(PolicyKind::parse(&kind.to_string()), Ok(kind));
            assert_eq!(
                kind.build(1_000, 1).name(),
                kind.policy_name(),
                "policy_name must match what the built policy reports"
            );
        }
        assert!(PolicyKind::parse("fifo").is_err());
    }

    #[test]
    fn config_validation() {
        let mut cfg = ServerConfig::default();
        assert!(cfg.validate().is_ok());
        cfg.n_shards = 0;
        assert!(cfg.validate().is_err());
        cfg.n_shards = 4;
        cfg.cluster = Some(ClusterConfig {
            node: 1,
            nodes: 2,
            hosted: vec![1, 3],
        });
        assert!(cfg.validate().is_ok());
        cfg.cluster = Some(ClusterConfig {
            node: 2,
            nodes: 2,
            hosted: vec![],
        });
        assert!(cfg.validate().is_err(), "node id out of range");
        cfg.cluster = Some(ClusterConfig {
            node: 0,
            nodes: 2,
            hosted: vec![0, 0],
        });
        assert!(cfg.validate().is_err(), "duplicate hosted shard");
        cfg.cluster = Some(ClusterConfig {
            node: 0,
            nodes: 2,
            hosted: vec![9],
        });
        assert!(cfg.validate().is_err(), "hosted shard out of range");
    }

    #[test]
    fn replication_validation() {
        let mut cfg = ServerConfig {
            cluster: Some(ClusterConfig {
                node: 0,
                nodes: 2,
                hosted: vec![0, 2],
            }),
            ..ServerConfig::default()
        };
        cfg.replication = Some(ReplicationConfig {
            replicas: 1,
            peers: vec!["a:1".into(), "b:2".into()],
            backup_of: None,
        });
        assert!(cfg.validate().is_ok());

        cfg.replication = Some(ReplicationConfig {
            replicas: 2,
            peers: vec!["a:1".into(), "b:2".into()],
            backup_of: None,
        });
        assert!(cfg.validate().is_err(), "replicas must be < nodes");

        cfg.replication = Some(ReplicationConfig {
            replicas: 1,
            peers: vec!["a:1".into()],
            backup_of: None,
        });
        assert!(cfg.validate().is_err(), "peer list must cover every node");

        cfg.replication = Some(ReplicationConfig {
            replicas: 1,
            peers: vec!["a:1".into(), "b:2".into()],
            backup_of: Some(vec![9]),
        });
        assert!(cfg.validate().is_err(), "backup shard out of range");

        cfg.cluster = None;
        cfg.replication = Some(ReplicationConfig {
            replicas: 1,
            peers: vec!["a:1".into(), "b:2".into()],
            backup_of: None,
        });
        assert!(cfg.validate().is_err(), "replication requires a cluster");
    }

    #[test]
    fn default_hosted_covers_every_shard_once() {
        let a = ClusterConfig::default_hosted(0, 2, 5);
        let b = ClusterConfig::default_hosted(1, 2, 5);
        assert_eq!(a, vec![0, 2, 4]);
        assert_eq!(b, vec![1, 3]);
    }

    #[test]
    fn built_policies_report_names() {
        assert_eq!(PolicyKind::VCover.build(1_000, 1).name(), "VCover");
        assert_eq!(PolicyKind::NoCache.build(1_000, 1).name(), "NoCache");
        assert_eq!(PolicyKind::Gds.build(1_000, 1).name(), "Gds");
        assert_eq!(PolicyKind::Gdsf.build(1_000, 1).name(), "Gdsf");
        assert_eq!(PolicyKind::Lru.build(1_000, 1).name(), "Lru");
    }
}
