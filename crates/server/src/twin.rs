//! The offline sharded oracle every server differential compares to.
//!
//! A [`Twin`] is built from the [`ServerConfig`] a server starts from and
//! reads the server's own recipe: sub-catalogs, the budget split
//! ([`Partitioner::shard_cache_bytes`]) and the seed rule
//! ([`ServerConfig::shard_seed`]). It drives one plain
//! [`delta_core::Engine`] per shard as `sim::simulate` does (no clock
//! clamp), so each shard's ledger is `sim::simulate`'s on that shard's
//! sub-catalog and sub-trace. It shares the split with the serving path
//! (checked on its own by the partition properties); its independence
//! lies in its driver, which never touches [`crate::shard::ShardCore`],
//! the reactor, the router or the mux. [`Twin::apply`] also returns the
//! reply the server owes for each event, tallied from the twin's own
//! engine outcomes, so the per-item replies of both tiers are checked
//! against something other than the merge that produced them.

use crate::config::ServerConfig;
use crate::partition::Partitioner;
use crate::protocol::BatchReply;
use delta_core::{CachingPolicy, CostLedger, Engine, EngineMetrics, EngineOutcome};
use delta_storage::ObjectCatalog;
use delta_workload::Event;

/// One shard of the twin: its sub-catalog, budget and engine.
struct TwinShard {
    catalog: ObjectCatalog,
    cache_bytes: u64,
    engine: Engine<'static, dyn CachingPolicy + Send>,
}

/// The sharded simulation of a server run, stepped one global event at
/// a time.
pub struct Twin {
    map: Box<dyn Partitioner>,
    catalog: ObjectCatalog,
    config: ServerConfig,
    shards: Vec<TwinShard>,
}

impl Twin {
    /// Builds the twin of a server started from `config` over `catalog`:
    /// every shard of the partitioning (a cluster node's `hosted` subset
    /// plays no part), each with a fresh engine.
    pub fn new(config: &ServerConfig, catalog: &ObjectCatalog) -> Self {
        let map = config.partitioner.build(config.n_shards, catalog.len());
        let shards = map
            .shard_cache_bytes(config.cache_bytes, catalog)
            .into_iter()
            .enumerate()
            .map(|(s, cache_bytes)| {
                let catalog = map.shard_catalog(s, catalog);
                let policy = config.policy.build(cache_bytes, config.shard_seed(s));
                let mut engine = Engine::new(policy, &catalog, cache_bytes);
                engine.init(None);
                TwinShard {
                    catalog,
                    cache_bytes,
                    engine,
                }
            })
            .collect();
        Twin {
            map,
            catalog: catalog.clone(),
            config: config.clone(),
            shards,
        }
    }

    /// Splits one global event, applies each sub-event to its shard and
    /// returns the reply a server owes for it: for a query, its
    /// sub-query count and how many of them were answered locally or
    /// shipped; for an update, the owning shard and the new version.
    /// The tally is the twin's own, so a server test that compares
    /// per-item replies checks the serving path's merge independently.
    ///
    /// # Panics
    /// Panics if a shard's policy violates the satisfaction contract,
    /// naming the shard and the event's `seq`, as `sim::simulate` does.
    pub fn apply(&mut self, event: &Event) -> BatchReply {
        match event {
            Event::Query(q) => {
                let subs = self.map.split_query(q, &self.catalog);
                let shards_touched = subs.len() as u16;
                let mut local_answers = 0;
                for (s, sub) in subs {
                    if let EngineOutcome::Query { local: true, .. } =
                        self.apply_on(s, &Event::Query(sub))
                    {
                        local_answers += 1;
                    }
                }
                BatchReply::Query {
                    shards_touched,
                    local_answers,
                    shipped: shards_touched - local_answers,
                }
            }
            Event::Update(u) => {
                let (s, sub) = self.map.split_update(u);
                match self.apply_on(s, &Event::Update(sub)) {
                    EngineOutcome::Update { version } => BatchReply::Update {
                        shard: s as u16,
                        version,
                    },
                    other => panic!("twin shard {s}: update produced {other:?}"),
                }
            }
        }
    }

    /// Applies every event of a slice, in order.
    pub fn apply_all(&mut self, events: &[Event]) -> &mut Self {
        for event in events {
            self.apply(event);
        }
        self
    }

    fn apply_on(&mut self, s: usize, event: &Event) -> EngineOutcome {
        self.shards[s]
            .engine
            .apply(event)
            .unwrap_or_else(|e| panic!("twin shard {s}, seq {}: {e}", event.seq()))
    }

    /// Moves a shard the way a reshard does: `DetachShard` snapshots the
    /// engine, and the new owner's `ReplicaBootstrap` restores it under a
    /// fresh policy with the same budget and seed.
    pub fn migrate(&mut self, shard: usize) {
        let s = &mut self.shards[shard];
        let snap = s.engine.snapshot();
        let config = &self.config;
        let policy = config.policy.build(s.cache_bytes, config.shard_seed(shard));
        s.engine = Engine::restore(policy, &s.catalog, &snap)
            .unwrap_or_else(|e| panic!("twin shard {shard}: restore: {e}"));
    }

    /// Each shard's operational counters, in shard order.
    pub fn metrics(&self) -> Vec<EngineMetrics> {
        self.shards.iter().map(|s| s.engine.metrics()).collect()
    }

    /// Each shard's cost ledger, in shard order.
    pub fn ledgers(&self) -> Vec<CostLedger> {
        self.metrics().into_iter().map(|m| m.ledger).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PolicyKind;
    use crate::partition::PartitionerKind;
    use delta_storage::ObjectId;
    use delta_workload::{QueryEvent, QueryKind, UpdateEvent};

    fn config(partitioner: PartitionerKind, n_shards: usize, cache_bytes: u64) -> ServerConfig {
        ServerConfig {
            n_shards,
            partitioner,
            cache_bytes,
            policy: PolicyKind::NoCache,
            seed: 42,
            ..ServerConfig::default()
        }
    }

    /// The recipe itself, which the server and the twin share and so
    /// cannot check against each other: shard `s` is seeded `seed + s`,
    /// and the budgets are the partitioner's split of `cache_bytes`.
    #[test]
    fn recipe_is_seed_plus_shard_and_the_partitioner_budget_split() {
        let sizes: Vec<u64> = (1..=40).map(|i| i * 37 % 1_000 + 1).collect();
        let catalog = ObjectCatalog::from_sizes(&sizes);
        for partitioner in [PartitionerKind::RoundRobin, PartitionerKind::HashRing] {
            for n_shards in [1, 3, 4] {
                let config = config(partitioner, n_shards, 12_345);
                let twin = Twin::new(&config, &catalog);
                let map = partitioner.build(n_shards, catalog.len());
                let budgets: Vec<u64> = twin.shards.iter().map(|s| s.cache_bytes).collect();
                assert_eq!(budgets, map.shard_cache_bytes(12_345, &catalog));
                assert_eq!(budgets.iter().sum::<u64>(), 12_345);
                for s in 0..n_shards {
                    assert_eq!(config.shard_seed(s), 42 + s as u64);
                }
            }
        }
    }

    #[test]
    fn twin_partitions_all_events() {
        // Big enough that the hash ring leaves no shard empty (a
        // precondition the twin shares with the live server).
        let sizes: Vec<u64> = (1..=32).map(|i| i * 100).collect();
        let c = ObjectCatalog::from_sizes(&sizes);
        for partitioner in [PartitionerKind::RoundRobin, PartitionerKind::HashRing] {
            let map = partitioner.build(4, c.len());
            assert!((0..4).all(|s| map.shard_len(s) > 0));
            let mut twin = Twin::new(&config(partitioner, 4, 1_000), &c);
            let replies: Vec<BatchReply> = [
                Event::Query(QueryEvent {
                    seq: 0,
                    objects: vec![ObjectId(0), ObjectId(1), ObjectId(2)],
                    result_bytes: 100,
                    tolerance: 0,
                    kind: QueryKind::Cone,
                }),
                Event::Update(UpdateEvent {
                    seq: 1,
                    object: ObjectId(5),
                    bytes: 9,
                }),
                Event::Query(QueryEvent {
                    seq: 2,
                    objects: vec![ObjectId(5)],
                    result_bytes: 40,
                    tolerance: 1,
                    kind: QueryKind::Selection,
                }),
            ]
            .iter()
            .map(|e| twin.apply(e))
            .collect();
            // NoCache ships every sub-query; the update reports its
            // owner and the object's first version.
            let mut owners: Vec<usize> = (0..3).map(|o| map.shard_of(ObjectId(o))).collect();
            owners.sort_unstable();
            owners.dedup();
            let width = owners.len() as u16;
            assert_eq!(
                replies,
                vec![
                    BatchReply::Query {
                        shards_touched: width,
                        local_answers: 0,
                        shipped: width,
                    },
                    BatchReply::Update {
                        shard: map.shard_of(ObjectId(5)) as u16,
                        version: 1,
                    },
                    BatchReply::Query {
                        shards_touched: 1,
                        local_answers: 0,
                        shipped: 1,
                    },
                ]
            );
            let metrics = twin.metrics();
            assert_eq!(metrics.len(), 4);
            // NoCache ships every sub-query's apportioned bytes, so the
            // shards together ship exactly the trace's query bytes.
            let shipped: u64 = metrics.iter().map(|m| m.ledger.total().bytes()).sum();
            assert_eq!(shipped, 140);
            // The update to global object 5 landed on its owner, and
            // only there, as the right local id: the owner's repository
            // holds one version of it.
            let owner = map.shard_of(ObjectId(5));
            for (s, m) in metrics.iter().enumerate() {
                assert_eq!(m.updates, u64::from(s == owner), "shard {s}");
            }
            let local = map.local_id(ObjectId(5));
            assert_eq!(twin.shards[owner].engine.repo().version(local), 1);
        }
    }
}
