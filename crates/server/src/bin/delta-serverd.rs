//! `delta-serverd` — the sharded Delta cache service daemon.
//!
//! The repository catalog comes either from a trace file header
//! (`--trace`, as written by `tracegen` / `delta_workload::write_jsonl`)
//! or from a synthetic workload preset (`--preset small|paper`).
//!
//! ```text
//! delta-serverd [--bind 127.0.0.1:7117] [--shards 4]
//!               [--partitioner rr|ring]
//!               [--cache-fraction 0.3 | --cache-bytes N]
//!               [--policy vcover|benefit|nocache|replica|gds|gdsf|lru]
//!               [--seed N]
//!               [--trace trace.jsonl | --preset small|paper]
//!               [--sql-preset small|paper | --no-sql]
//!               [--snapshot-dir DIR]
//!               [--node-id I --nodes N [--host-shards a,b,c]]
//!               [--replicas R --peers addr0,addr1,... [--backup-of a,b,c]]
//!               [--reactor-threads N]
//!               [--stall-limit-ms MS]
//!               [--telemetry-dump PATH [--telemetry-interval SECS]]
//! ```
//!
//! With `--telemetry-dump`, a background thread appends the node's
//! telemetry snapshot (latency histograms, wire counters) to `PATH` as
//! one JSON object per line, every `--telemetry-interval` seconds
//! (default 1), plus a final line at shutdown. The same data is
//! available over the wire at any time via a `Telemetry` frame.
//!
//! With `--snapshot-dir`, every hosted shard persists its engine
//! snapshot (update logs, cache residency, cost ledger) to
//! `DIR/shard-N.jsonl` on graceful shutdown, and a later start with the
//! same flag resumes warm: caches stay populated and the statistics
//! continue where they left off. Snapshots are validated against the
//! configured shard count and policy; a mismatch refuses startup.
//!
//! With `--node-id I --nodes N` the daemon becomes one node of a routed
//! cluster: `--shards` names the *cluster-wide* shard count, the node
//! hosts the shards in `--host-shards` (default: every shard `s` with
//! `s % N == I`), and a `delta-routerd` fronts the nodes, fanning
//! queries across them and coordinating live resharding. Every node of a
//! cluster must be started with the same shards/partitioner/cache/
//! policy/seed and the same catalog source.
//!
//! With `--replicas R --peers addr0,addr1,...` each hosted shard is
//! additionally replicated to the node's `R` successors in node-id
//! order (`--peers` lists every node's client address, index = node
//! id). Acknowledged writes survive a node's death: the router detects
//! the failure and promotes the most-caught-up backup. `--backup-of`
//! optionally restricts which shards this node will accept as backups.
//!
//! When the catalog comes from a preset, the daemon also builds the SQL
//! frontend from the same preset (schema, sky model, spatial partition),
//! so clients can send raw SQL in `Sql` frames; `--no-sql` opts out.
//! With `--trace`, pass `--sql-preset` naming the preset the trace was
//! generated from (the server refuses a frontend whose partition does
//! not match the served catalog).
//!
//! The daemon prints the bound address, serves until a client sends a
//! `Shutdown` frame (or SIGINT terminates the process), then prints the
//! final per-shard statistics table.

use delta_server::{
    ClusterConfig, PartitionerKind, PolicyKind, ReplicationConfig, Server, ServerConfig, Telemetry,
};
use delta_storage::ObjectCatalog;
use delta_workload::WorkloadConfig;
use std::io::Write;
use std::process::exit;
use std::sync::Arc;

/// Appends one line to `path`, creating the file if needed.
fn append_jsonl(path: &std::path::Path, line: &str) -> std::io::Result<()> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{line}")
}

/// Periodic JSONL telemetry writer; runs detached until the process
/// exits (a final line is written after the server drains).
fn spawn_telemetry_dump(t: Arc<Telemetry>, path: std::path::PathBuf, every: std::time::Duration) {
    std::thread::Builder::new()
        .name("telemetry-dump".to_string())
        .spawn(move || loop {
            std::thread::sleep(every);
            if let Err(e) = append_jsonl(&path, &t.snapshot().to_json()) {
                eprintln!("delta-serverd: telemetry dump: {e}; dump disabled");
                return;
            }
        })
        .expect("spawn telemetry dump thread");
}

struct Args {
    config: ServerConfig,
    cache_fraction: f64,
    trace: Option<String>,
    preset: String,
    sql_preset: Option<String>,
    no_sql: bool,
    node_id: Option<u16>,
    nodes: Option<u16>,
    host_shards: Option<Vec<u16>>,
    replicas: u16,
    peers: Option<Vec<String>>,
    backup_of: Option<Vec<u16>>,
    telemetry_dump: Option<std::path::PathBuf>,
    telemetry_interval: u64,
}

fn usage() -> ! {
    eprintln!(
        "usage: delta-serverd [--bind ADDR] [--shards N] [--partitioner rr|ring] \
         [--cache-fraction F | --cache-bytes N] \
         [--policy vcover|benefit|nocache|replica|gds|gdsf|lru] [--seed N] \
         [--trace FILE | --preset small|paper] \
         [--sql-preset small|paper | --no-sql] [--snapshot-dir DIR] \
         [--node-id I --nodes N [--host-shards a,b,c]] \
         [--replicas R --peers addr0,addr1,... [--backup-of a,b,c]] \
         [--reactor-threads N] [--stall-limit-ms MS] \
         [--chaos-node-latency-ms MS] \
         [--telemetry-dump PATH [--telemetry-interval SECS]]"
    );
    exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        config: ServerConfig::default(),
        cache_fraction: 0.3,
        trace: None,
        preset: "small".to_string(),
        sql_preset: None,
        no_sql: false,
        node_id: None,
        nodes: None,
        host_shards: None,
        replicas: 0,
        peers: None,
        backup_of: None,
        telemetry_dump: None,
        telemetry_interval: 1,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |argv: &[String], i: usize| -> String {
        argv.get(i + 1).cloned().unwrap_or_else(|| usage())
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--bind" => args.config.bind = value(&argv, i),
            "--shards" => {
                args.config.n_shards = value(&argv, i).parse().unwrap_or_else(|_| usage())
            }
            "--partitioner" => {
                args.config.partitioner =
                    PartitionerKind::parse(&value(&argv, i)).unwrap_or_else(|e| {
                        eprintln!("delta-serverd: {e}");
                        exit(2);
                    })
            }
            "--cache-bytes" => {
                args.config.cache_bytes = value(&argv, i).parse().unwrap_or_else(|_| usage());
                args.cache_fraction = 0.0;
            }
            "--cache-fraction" => {
                args.cache_fraction = value(&argv, i).parse().unwrap_or_else(|_| usage())
            }
            "--policy" => {
                args.config.policy = PolicyKind::parse(&value(&argv, i)).unwrap_or_else(|e| {
                    eprintln!("delta-serverd: {e}");
                    exit(2);
                })
            }
            "--seed" => args.config.seed = value(&argv, i).parse().unwrap_or_else(|_| usage()),
            "--trace" => args.trace = Some(value(&argv, i)),
            "--preset" => args.preset = value(&argv, i),
            "--sql-preset" => args.sql_preset = Some(value(&argv, i)),
            "--snapshot-dir" => {
                args.config.snapshot_dir = Some(std::path::PathBuf::from(value(&argv, i)))
            }
            "--node-id" => args.node_id = Some(value(&argv, i).parse().unwrap_or_else(|_| usage())),
            "--nodes" => args.nodes = Some(value(&argv, i).parse().unwrap_or_else(|_| usage())),
            "--host-shards" => {
                args.host_shards = Some(
                    value(&argv, i)
                        .split(',')
                        .map(|s| s.trim().parse().unwrap_or_else(|_| usage()))
                        .collect(),
                )
            }
            "--replicas" => args.replicas = value(&argv, i).parse().unwrap_or_else(|_| usage()),
            "--peers" => {
                args.peers = Some(
                    value(&argv, i)
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .collect(),
                )
            }
            "--backup-of" => {
                args.backup_of = Some(
                    value(&argv, i)
                        .split(',')
                        .map(|s| s.trim().parse().unwrap_or_else(|_| usage()))
                        .collect(),
                )
            }
            "--telemetry-dump" => {
                args.telemetry_dump = Some(std::path::PathBuf::from(value(&argv, i)))
            }
            "--telemetry-interval" => {
                args.telemetry_interval = value(&argv, i).parse().unwrap_or_else(|_| usage())
            }
            "--reactor-threads" => {
                args.config.front.threads = value(&argv, i).parse().unwrap_or_else(|_| usage())
            }
            "--stall-limit-ms" => {
                let ms: u64 = value(&argv, i).parse().unwrap_or_else(|_| usage());
                args.config.stall_limit = std::time::Duration::from_millis(ms.max(1));
            }
            "--chaos-node-latency-ms" => {
                let ms: u64 = value(&argv, i).parse().unwrap_or_else(|_| usage());
                args.config.chaos_link = Some(delta_net::LinkModel {
                    bandwidth_bytes_per_sec: f64::INFINITY,
                    rtt_secs: ms as f64 / 1000.0,
                });
            }
            "--no-sql" => {
                args.no_sql = true;
                i += 1;
                continue;
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("delta-serverd: unknown flag {other:?}");
                usage();
            }
        }
        i += 2;
    }
    args
}

fn load_catalog(args: &Args) -> ObjectCatalog {
    if let Some(path) = &args.trace {
        let (catalog, _trace) = delta_workload::read_jsonl(std::path::Path::new(path))
            .unwrap_or_else(|e| {
                eprintln!("delta-serverd: cannot read trace {path:?}: {e}");
                exit(1);
            });
        eprintln!(
            "catalog from {path}: {} objects, {} total bytes",
            catalog.len(),
            catalog.total_bytes()
        );
        catalog
    } else {
        let cfg = WorkloadConfig::from_preset(&args.preset).unwrap_or_else(|e| {
            eprintln!("delta-serverd: {e}");
            exit(2);
        });
        let survey = delta_workload::SyntheticSurvey::generate(&cfg);
        eprintln!(
            "catalog from preset {}: {} objects, {} total bytes",
            args.preset,
            survey.catalog.len(),
            survey.catalog.total_bytes()
        );
        survey.catalog
    }
}

fn main() {
    let mut args = parse_args();
    let catalog = load_catalog(&args);
    if args.config.cache_bytes == 0 {
        args.config.cache_bytes = (catalog.total_bytes() as f64 * args.cache_fraction) as u64;
    }

    // Cluster role: --node-id and --nodes come (and go) together.
    match (args.node_id, args.nodes) {
        (None, None) => {
            if args.host_shards.is_some() {
                eprintln!("delta-serverd: --host-shards requires --node-id/--nodes");
                exit(2);
            }
        }
        (Some(node), Some(nodes)) => {
            if nodes == 0 {
                eprintln!("delta-serverd: --nodes must be at least 1");
                exit(2);
            }
            let hosted = args.host_shards.clone().unwrap_or_else(|| {
                ClusterConfig::default_hosted(node, nodes, args.config.n_shards)
            });
            args.config.cluster = Some(ClusterConfig {
                node,
                nodes,
                hosted,
            });
        }
        _ => {
            eprintln!("delta-serverd: --node-id and --nodes must be given together");
            exit(2);
        }
    }
    if args.replicas > 0 || args.peers.is_some() || args.backup_of.is_some() {
        args.config.replication = Some(ReplicationConfig {
            replicas: args.replicas,
            peers: args.peers.clone().unwrap_or_default(),
            backup_of: args.backup_of.clone(),
        });
    }

    // SQL frontend: from --sql-preset when given, otherwise from the
    // preset the catalog itself came from (trace-served catalogs have no
    // implied preset, so SQL stays off unless --sql-preset says which).
    let frontend_preset = if args.no_sql {
        None
    } else if args.sql_preset.is_some() {
        args.sql_preset.clone()
    } else if args.trace.is_none() {
        Some(args.preset.clone())
    } else {
        None
    };
    if let Some(name) = frontend_preset {
        let cfg = WorkloadConfig::from_preset(&name).unwrap_or_else(|e| {
            eprintln!("delta-serverd: {e}");
            exit(2);
        });
        args.config.frontend = Some(cfg);
        eprintln!("SQL frontend enabled (preset {name})");
    } else {
        eprintln!("SQL frontend disabled");
    }

    let server = Server::start(args.config.clone(), catalog).unwrap_or_else(|e| {
        eprintln!("delta-serverd: cannot start: {e}");
        exit(1);
    });
    println!("delta-serverd listening on {}", server.local_addr());
    println!(
        "  shards={} partitioner={} policy={} cache={} B seed={}",
        args.config.n_shards,
        args.config.partitioner,
        args.config.policy,
        args.config.cache_bytes,
        args.config.seed
    );
    if let Some(cluster) = &args.config.cluster {
        println!(
            "  cluster node {}/{} hosting shards {:?}",
            cluster.node, cluster.nodes, cluster.hosted
        );
    }
    if let Some(repl) = &args.config.replication {
        println!(
            "  replication: {} backup(s) per shard across peers {:?}",
            repl.replicas, repl.peers
        );
    }
    if let Some(dir) = &args.config.snapshot_dir {
        println!(
            "  warm restart enabled: snapshots in {} (written on shutdown)",
            dir.display()
        );
    }
    if let Some(path) = &args.telemetry_dump {
        println!(
            "  telemetry dump: {} every {}s (JSONL)",
            path.display(),
            args.telemetry_interval
        );
        spawn_telemetry_dump(
            server.telemetry_handle(),
            path.clone(),
            std::time::Duration::from_secs(args.telemetry_interval.max(1)),
        );
    }

    // Serve until a client sends a Shutdown frame.
    let final_telemetry = server.telemetry_handle();
    let stats = server.join();
    if let Some(path) = &args.telemetry_dump {
        // One final line so short runs always leave a complete snapshot.
        if let Err(e) = append_jsonl(path, &final_telemetry.snapshot().to_json()) {
            eprintln!("delta-serverd: telemetry dump: {e}");
        }
    }
    println!("\nfinal per-shard statistics:");
    print!("{}", stats.render_table());
    let report = stats.to_sim_report();
    println!("\naggregate: {report}");
}
