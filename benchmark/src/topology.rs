//! Starts the served system in-process through its public API
//! (`Server::start`, `Router::start`, default reactor front, loopback
//! TCP) and tears it down again.

use crate::spec::{Spec, Topology};
use delta_server::{
    ClusterConfig, DeltaClient, ReplicationConfig, Router, RouterConfig, Server, ServerConfig,
    StatsSnapshot, TelemetrySnapshot,
};
use delta_storage::ObjectCatalog;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

/// Seed the shard policies are built from — a constant of the served
/// program's configuration, unrelated to `--seed`.
pub const POLICY_SEED: u64 = 0xDE17A;

const NODES: u16 = 2;

/// A running topology: the address clients dial plus the handles
/// needed to scrape and stop it.
pub struct Running {
    /// Where the benchmark's connections go (the router in a cluster).
    pub addr: SocketAddr,
    pub nodes: Vec<Server>,
    pub router: Option<Router>,
}

/// Picks a free loopback port. Replication peers must be named before
/// the nodes bind, so port 0 cannot be used for cluster nodes.
fn free_port() -> io::Result<u16> {
    Ok(TcpListener::bind("127.0.0.1:0")?.local_addr()?.port())
}

/// Blocks until every shard has a bootstrapped backup somewhere, so
/// the write-ack wait is on the path from the first measured event
/// (a target still awaiting bootstrap is skipped by the wait).
///
/// Reads the nodes' registries in-process instead of sending
/// `ReplicaStatus` frames: every accepted connection advances the
/// node's round-robin over its event loops, and a poll-count that
/// depends on timing would decide run by run whether the peer's
/// replication connection shares a loop with the router's link (it
/// must not: a loop blocked in the write-ack wait cannot serve the
/// peer's `Replicate` frames, the pumps time out, and writes are
/// acknowledged below R — README, "Replication health").
fn await_backups(nodes: &[Server], n_shards: usize) -> io::Result<()> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let bootstrapped: u64 = nodes
            .iter()
            .map(|n| n.telemetry().counter("replica.bootstraps"))
            .sum();
        if bootstrapped >= n_shards as u64 {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(io::Error::other(format!(
                "only {bootstrapped} of {n_shards} backups bootstrapped within 10 s"
            )));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

impl Running {
    /// Starts `spec`'s topology over `catalog`. `replicas` overrides the
    /// spec's replica count (the traced run re-measures at 0).
    pub fn start(spec: &Spec, catalog: &ObjectCatalog, replicas: Option<u16>) -> io::Result<Self> {
        let base = ServerConfig {
            bind: "127.0.0.1:0".to_string(),
            n_shards: spec.n_shards,
            partitioner: spec.partitioner,
            cache_bytes: spec.cache_bytes(catalog),
            policy: spec.policy,
            seed: POLICY_SEED,
            ..ServerConfig::default()
        };
        match spec.topology {
            Topology::Node => {
                let server = Server::start(base, catalog.clone())?;
                Ok(Running {
                    addr: server.local_addr(),
                    nodes: vec![server],
                    router: None,
                })
            }
            Topology::Cluster { replicas: r } => {
                let replicas = replicas.unwrap_or(r);
                let ports = (0..NODES)
                    .map(|_| free_port())
                    .collect::<io::Result<Vec<_>>>()?;
                let peers: Vec<String> = ports.iter().map(|p| format!("127.0.0.1:{p}")).collect();
                let mut nodes = Vec::new();
                for node in 0..NODES {
                    let config = ServerConfig {
                        bind: peers[node as usize].clone(),
                        cluster: Some(ClusterConfig {
                            node,
                            nodes: NODES,
                            hosted: ClusterConfig::default_hosted(node, NODES, spec.n_shards),
                        }),
                        replication: (replicas > 0).then(|| ReplicationConfig {
                            replicas,
                            peers: peers.clone(),
                            backup_of: None,
                        }),
                        ..base.clone()
                    };
                    nodes.push(Server::start(config, catalog.clone())?);
                }
                // Backups first, router second: the pumps must be the
                // first connection each node accepts (see `await_backups`).
                if replicas > 0 {
                    await_backups(&nodes, spec.n_shards)?;
                }
                let router = Router::start(
                    RouterConfig {
                        bind: "127.0.0.1:0".to_string(),
                        nodes: peers,
                        frontend: None,
                        front: Default::default(),
                        stall_limit: delta_server::connection::STALL_LIMIT,
                        node_timeout: RouterConfig::DEFAULT_NODE_TIMEOUT,
                    },
                    catalog.clone(),
                )?;
                Ok(Running {
                    addr: router.local_addr(),
                    nodes,
                    router: Some(router),
                })
            }
        }
    }

    /// The `Hello`/`Stats` exchange of set-up: checks the peer is what
    /// the spec says and that it starts from zero events.
    pub fn handshake(&self, spec: &Spec) -> io::Result<()> {
        let mut client = DeltaClient::connect(self.addr)?;
        let info = client.hello(0)?;
        if info.cluster_shards as usize != spec.n_shards {
            return Err(io::Error::other(format!(
                "peer reports {} shards, spec says {}",
                info.cluster_shards, spec.n_shards
            )));
        }
        let stats = client.stats()?;
        if stats.total_events() != 0 {
            return Err(io::Error::other("topology did not start empty"));
        }
        Ok(())
    }

    /// Per-shard statistics as a client sees them (`Stats` frame).
    pub fn stats(&self) -> io::Result<StatsSnapshot> {
        DeltaClient::connect(self.addr)?.stats()
    }

    /// Telemetry of every node merged, and the router's own (if any).
    pub fn telemetry(&self) -> (TelemetrySnapshot, Option<TelemetrySnapshot>) {
        let mut merged = TelemetrySnapshot::default();
        for node in &self.nodes {
            merged.merge(&node.telemetry());
        }
        (merged, self.router.as_ref().map(Router::telemetry))
    }

    /// Graceful shutdown; waits for every thread of the topology.
    pub fn stop(self) -> io::Result<()> {
        match self.router {
            Some(router) => {
                // The router forwards the shutdown to its nodes.
                DeltaClient::connect(self.addr)?.shutdown()?;
                router.join();
                for node in self.nodes {
                    node.join();
                }
            }
            None => {
                for node in self.nodes {
                    node.stop();
                }
            }
        }
        Ok(())
    }
}
