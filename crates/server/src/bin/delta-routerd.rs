//! `delta-routerd` — the cluster router fronting `delta-serverd` nodes.
//!
//! ```text
//! delta-routerd [--bind 127.0.0.1:7118]
//!               --node ADDR [--node ADDR ...]
//!               [--trace trace.jsonl | --preset small|paper]
//!               [--sql-preset small|paper | --no-sql]
//!               [--telemetry-dump PATH [--telemetry-interval SECS]]
//! ```
//!
//! With `--telemetry-dump`, a background thread appends the router's
//! own telemetry (per-node fan-out latency, epoch retries, reshard
//! phase durations, wire counters) to `PATH` as one JSON object per
//! line, every `--telemetry-interval` seconds (default 1), plus a final
//! line at shutdown. For the *cluster-wide* merge — every node's
//! counters folded in — send a `Telemetry` frame to the router instead.
//!
//! The router connects to every `--node` (in node-id order: the first
//! `--node` must be the daemon started with `--node-id 0`, and so on),
//! validates that they agree on the partitioner, shard count, catalog
//! and routing epoch, then serves the full client protocol on `--bind`:
//! queries are split across nodes exactly like a standalone server
//! splits them across shards, per-item `Batch` semantics and `Tagged`
//! pipelining included.
//!
//! A client `Reshard` frame moves one shard between nodes live (drain →
//! snapshot → re-host → epoch bump); a client `Shutdown` frame shuts the
//! nodes down too and then stops the router.
//!
//! The catalog source must match what the nodes serve — same preset or
//! the same trace file — because the router apportions query result
//! bytes by object sizes itself.

use delta_server::{DeltaClient, FrontDoor, Router, RouterConfig, Telemetry};
use delta_storage::ObjectCatalog;
use delta_workload::WorkloadConfig;
use std::io::Write;
use std::process::exit;
use std::sync::Arc;

struct Args {
    bind: String,
    nodes: Vec<String>,
    trace: Option<String>,
    preset: String,
    sql_preset: Option<String>,
    no_sql: bool,
    telemetry_dump: Option<std::path::PathBuf>,
    telemetry_interval: u64,
    front: FrontDoor,
    stall_limit_ms: u64,
    node_timeout_ms: u64,
}

fn usage() -> ! {
    eprintln!(
        "usage: delta-routerd [--bind ADDR] --node ADDR [--node ADDR ...] \
         [--trace FILE | --preset small|paper] \
         [--sql-preset small|paper | --no-sql] \
         [--reactor-threads N] [--stall-limit-ms MS] \
         [--node-timeout-ms MS] \
         [--telemetry-dump PATH [--telemetry-interval SECS]]"
    );
    exit(2);
}

/// Appends one line to `path`, creating the file if needed.
fn append_jsonl(path: &std::path::Path, line: &str) -> std::io::Result<()> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{line}")
}

/// Periodic JSONL telemetry writer; runs detached until the process
/// exits (a final line is written after the router stops).
fn spawn_telemetry_dump(t: Arc<Telemetry>, path: std::path::PathBuf, every: std::time::Duration) {
    std::thread::Builder::new()
        .name("telemetry-dump".to_string())
        .spawn(move || loop {
            std::thread::sleep(every);
            if let Err(e) = append_jsonl(&path, &t.snapshot().to_json()) {
                eprintln!("delta-routerd: telemetry dump: {e}; dump disabled");
                return;
            }
        })
        .expect("spawn telemetry dump thread");
}

fn parse_args() -> Args {
    let mut args = Args {
        bind: "127.0.0.1:7118".to_string(),
        nodes: Vec::new(),
        trace: None,
        preset: "small".to_string(),
        sql_preset: None,
        no_sql: false,
        telemetry_dump: None,
        telemetry_interval: 1,
        front: FrontDoor::default(),
        stall_limit_ms: delta_server::connection::STALL_LIMIT.as_millis() as u64,
        node_timeout_ms: RouterConfig::DEFAULT_NODE_TIMEOUT.as_millis() as u64,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |argv: &[String], i: usize| -> String {
        argv.get(i + 1).cloned().unwrap_or_else(|| usage())
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--bind" => args.bind = value(&argv, i),
            "--node" => args.nodes.push(value(&argv, i)),
            "--trace" => args.trace = Some(value(&argv, i)),
            "--preset" => args.preset = value(&argv, i),
            "--sql-preset" => args.sql_preset = Some(value(&argv, i)),
            "--telemetry-dump" => {
                args.telemetry_dump = Some(std::path::PathBuf::from(value(&argv, i)))
            }
            "--telemetry-interval" => {
                args.telemetry_interval = value(&argv, i).parse().unwrap_or_else(|_| usage())
            }
            "--reactor-threads" => {
                args.front.threads = value(&argv, i).parse().unwrap_or_else(|_| usage())
            }
            "--stall-limit-ms" => {
                args.stall_limit_ms = value(&argv, i).parse().unwrap_or_else(|_| usage())
            }
            "--node-timeout-ms" => {
                args.node_timeout_ms = value(&argv, i).parse().unwrap_or_else(|_| usage())
            }
            "--no-sql" => {
                args.no_sql = true;
                i += 1;
                continue;
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("delta-routerd: unknown flag {other:?}");
                usage();
            }
        }
        i += 2;
    }
    if args.nodes.is_empty() {
        usage();
    }
    args
}

fn load_catalog(args: &Args) -> ObjectCatalog {
    if let Some(path) = &args.trace {
        let (catalog, _trace) = delta_workload::read_jsonl(std::path::Path::new(path))
            .unwrap_or_else(|e| {
                eprintln!("delta-routerd: cannot read trace {path:?}: {e}");
                exit(1);
            });
        catalog
    } else {
        let cfg = WorkloadConfig::from_preset(&args.preset).unwrap_or_else(|e| {
            eprintln!("delta-routerd: {e}");
            exit(2);
        });
        delta_workload::SyntheticSurvey::generate(&cfg).catalog
    }
}

fn main() {
    let args = parse_args();
    let catalog = load_catalog(&args);

    let frontend_preset = if args.no_sql {
        None
    } else if args.sql_preset.is_some() {
        args.sql_preset.clone()
    } else if args.trace.is_none() {
        Some(args.preset.clone())
    } else {
        None
    };
    let frontend = frontend_preset.map(|name| {
        let cfg = WorkloadConfig::from_preset(&name).unwrap_or_else(|e| {
            eprintln!("delta-routerd: {e}");
            exit(2);
        });
        eprintln!("SQL frontend enabled (preset {name})");
        cfg
    });

    let config = RouterConfig {
        bind: args.bind.clone(),
        nodes: args.nodes.clone(),
        frontend,
        front: args.front,
        stall_limit: std::time::Duration::from_millis(args.stall_limit_ms.max(1)),
        node_timeout: std::time::Duration::from_millis(args.node_timeout_ms.max(1)),
    };
    let router = Router::start(config, catalog).unwrap_or_else(|e| {
        eprintln!("delta-routerd: cannot start: {e}");
        exit(1);
    });
    println!("delta-routerd listening on {}", router.local_addr());
    for (i, node) in args.nodes.iter().enumerate() {
        println!("  node {i}: {node}");
    }

    // Print the cluster's shape as the nodes report it.
    match DeltaClient::connect(router.local_addr()).and_then(|mut c| c.hello(0)) {
        Ok(info) => println!(
            "  shards={} partitioner={} epoch={}",
            info.cluster_shards, info.partitioner, info.epoch
        ),
        Err(e) => eprintln!("delta-routerd: self-handshake failed: {e}"),
    }

    if let Some(path) = &args.telemetry_dump {
        println!(
            "  telemetry dump: {} every {}s (JSONL)",
            path.display(),
            args.telemetry_interval
        );
        spawn_telemetry_dump(
            router.telemetry_handle(),
            path.clone(),
            std::time::Duration::from_secs(args.telemetry_interval.max(1)),
        );
    }

    // Serve until a client sends a Shutdown frame.
    let final_telemetry = router.telemetry_handle();
    router.join();
    if let Some(path) = &args.telemetry_dump {
        if let Err(e) = append_jsonl(path, &final_telemetry.snapshot().to_json()) {
            eprintln!("delta-routerd: telemetry dump: {e}");
        }
    }
    println!("delta-routerd stopped");
}
