//! `delta-loadgen` — replays a Delta workload trace against a running
//! `delta-serverd` over TCP.
//!
//! ```text
//! delta-loadgen --addr 127.0.0.1:7117
//!               [--trace trace.jsonl | --preset small|paper]
//!               [--events N] [--limit N] [--clients C]
//!               [--batch N] [--pipeline W]
//!               [--connections N]
//!               [--telemetry-json PATH] [--shutdown]
//! ```
//!
//! `--connections N` switches to the many-connection soak: N pipelined
//! connections are all opened before the clock starts, the trace is
//! dealt round-robin across them, and `min(N, 32)` driver threads keep
//! the whole population in flight at once. The run fails if the
//! server's `conn.stall_drops` counter advances (a well-behaved client
//! was reaped by the stall deadline) or if any of the `reactor.*`
//! liveness counters is still zero. Raise `ulimit -n` past N first.
//!
//! `--events N` regenerates the preset workload with N/2 queries and
//! N/2 updates over the preset's catalog (unlike `--limit`, which
//! truncates the preset's default-sized trace) — `--preset small
//! --events 50000` reproduces the 50k-event trace the `tri_modal`
//! differential suite pins.
//!
//! `--telemetry-json PATH` scrapes the server's own telemetry (latency
//! histograms, wire counters; the cluster-wide merge when `--addr`
//! points at a router) after the replay, prints the table, fails if the
//! core wire counters are still zero, and writes the snapshot to PATH
//! (creating its parent directory) — the CI smoke replay uses this as
//! its end-to-end observability check.
//!
//! With `--clients C`, the trace is dealt round-robin over C connections
//! driven by C threads (updates and queries stay globally ordered per
//! connection, not across them — useful for throughput smoke tests; use
//! the default single client for simulator-equivalent replays).
//!
//! `--batch N` packs up to N consecutive events into one `Batch` frame
//! (one round-trip, one channel send per touched shard), and
//! `--pipeline W` keeps up to W frames in flight per connection over
//! tagged frames. Both default to 1, which is the PR-1 lockstep replay.
//! Per-shard event order is preserved in every mode, so per-shard
//! ledgers still match the offline `shard_trace` twin; only cross-shard
//! interleaving varies.
//!
//! After the replay it fetches the statistics snapshot, prints the
//! per-shard table, and verifies that the per-shard ledgers sum to the
//! aggregate totals.

use delta_server::{
    BatchItem, BatchReply, DeltaClient, Histogram, PipelinedClient, Request, Response,
};
use delta_workload::{Event, Trace, WorkloadConfig};
use std::collections::HashMap;
use std::process::exit;
use std::time::Instant;

struct Args {
    addr: String,
    trace: Option<String>,
    preset: String,
    events: Option<usize>,
    limit: usize,
    clients: usize,
    batch: usize,
    pipeline: usize,
    telemetry_json: Option<String>,
    shutdown: bool,
    reshard_at: Option<usize>,
    reshard: Option<(u16, u16)>,
    connections: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: delta-loadgen --addr ADDR [--trace FILE | --preset small|paper] \
         [--events N] [--limit N] [--clients C] [--batch N] [--pipeline W] \
         [--connections N] \
         [--telemetry-json PATH] \
         [--reshard-at N --reshard SHARD:NODE] [--shutdown]"
    );
    exit(2);
}

/// `--telemetry-json`: scrape the peer's telemetry over the wire (the
/// cluster-wide merge when the peer is a router), print the table,
/// refuse a snapshot whose core wire counters are still zero (a scrape
/// after a replay must show traffic — zeros mean the instrumentation
/// came unthreaded), and write the snapshot JSON to `path`.
fn scrape_telemetry(addr: &str, path: &str) {
    let snap = DeltaClient::connect(addr)
        .and_then(|mut c| c.telemetry())
        .unwrap_or_else(|e| {
            eprintln!("delta-loadgen: telemetry scrape failed: {e}");
            exit(1);
        });
    print!("{}", snap.render_table());
    for name in ["conn.bytes_in", "conn.bytes_out", "conn.frames_in"] {
        if snap.counter(name) == 0 {
            eprintln!("delta-loadgen: telemetry counter {name} is zero after a replay");
            exit(1);
        }
    }
    if !snap.histograms.iter().any(|(_, h)| !h.is_empty()) {
        eprintln!("delta-loadgen: every telemetry histogram is empty after a replay");
        exit(1);
    }
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).unwrap_or_else(|e| {
                eprintln!("delta-loadgen: cannot create {}: {e}", parent.display());
                exit(1);
            });
        }
    }
    let mut body = snap.to_json();
    body.push('\n');
    std::fs::write(path, body).unwrap_or_else(|e| {
        eprintln!("delta-loadgen: cannot write {path}: {e}");
        exit(1);
    });
    eprintln!("wrote {path}");
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: String::new(),
        trace: None,
        preset: "small".to_string(),
        events: None,
        limit: usize::MAX,
        clients: 1,
        batch: 1,
        pipeline: 1,
        telemetry_json: None,
        shutdown: false,
        reshard_at: None,
        reshard: None,
        connections: 0,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |argv: &[String], i: usize| -> String {
        argv.get(i + 1).cloned().unwrap_or_else(|| usage())
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--addr" => args.addr = value(&argv, i),
            "--trace" => args.trace = Some(value(&argv, i)),
            "--preset" => args.preset = value(&argv, i),
            "--events" => args.events = Some(value(&argv, i).parse().unwrap_or_else(|_| usage())),
            "--limit" => args.limit = value(&argv, i).parse().unwrap_or_else(|_| usage()),
            "--clients" => args.clients = value(&argv, i).parse().unwrap_or_else(|_| usage()),
            "--batch" => args.batch = value(&argv, i).parse().unwrap_or_else(|_| usage()),
            "--pipeline" => args.pipeline = value(&argv, i).parse().unwrap_or_else(|_| usage()),
            "--telemetry-json" => args.telemetry_json = Some(value(&argv, i)),
            "--reshard-at" => {
                args.reshard_at = Some(value(&argv, i).parse().unwrap_or_else(|_| usage()))
            }
            "--reshard" => {
                let v = value(&argv, i);
                let (shard, node) = v.split_once(':').unwrap_or_else(|| usage());
                args.reshard = Some((
                    shard.parse().unwrap_or_else(|_| usage()),
                    node.parse().unwrap_or_else(|_| usage()),
                ));
            }
            "--connections" => {
                args.connections = value(&argv, i).parse().unwrap_or_else(|_| usage())
            }
            "--shutdown" => {
                args.shutdown = true;
                i += 1;
                continue;
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("delta-loadgen: unknown flag {other:?}");
                usage();
            }
        }
        i += 2;
    }
    if args.addr.is_empty() {
        usage();
    }
    if args.clients == 0 {
        args.clients = 1;
    }
    if args.reshard_at.is_some() != args.reshard.is_some() {
        eprintln!("delta-loadgen: --reshard-at and --reshard must be given together");
        exit(2);
    }
    if args.reshard.is_some() && args.clients > 1 {
        eprintln!("delta-loadgen: --reshard needs a single client");
        exit(2);
    }
    args.batch = args.batch.max(1);
    args.pipeline = args.pipeline.max(1);
    args
}

fn load_trace(args: &Args) -> Trace {
    let trace = if let Some(path) = &args.trace {
        let (_catalog, trace) = delta_workload::read_jsonl(std::path::Path::new(path))
            .unwrap_or_else(|e| {
                eprintln!("delta-loadgen: cannot read trace {path:?}: {e}");
                exit(1);
            });
        trace
    } else {
        let mut cfg = WorkloadConfig::from_preset(&args.preset).unwrap_or_else(|e| {
            eprintln!("delta-loadgen: {e}");
            exit(2);
        });
        if let Some(events) = args.events {
            // Half queries, half updates over the preset's (unchanged)
            // catalog — the shape the tri_modal suite pins at 50k.
            cfg.n_queries = events / 2;
            cfg.n_updates = events - events / 2;
        }
        delta_workload::SyntheticSurvey::generate(&cfg).trace
    };
    trace.truncated(args.limit)
}

/// Replay totals: queries sent, updates sent, shard sub-queries fanned.
type Totals = (u64, u64, u64);

fn replay(addr: &str, events: &[Event], batch: usize, pipeline: usize) -> std::io::Result<Totals> {
    if batch == 1 && pipeline == 1 {
        replay_lockstep(addr, events)
    } else if pipeline == 1 {
        replay_batched(addr, events, batch)
    } else {
        replay_pipelined(addr, events, batch, pipeline)
    }
}

fn replay_lockstep(addr: &str, events: &[Event]) -> std::io::Result<Totals> {
    let mut client = DeltaClient::connect(addr)?;
    let (mut queries, mut updates, mut sub_queries) = (0u64, 0u64, 0u64);
    for event in events {
        match event {
            Event::Query(q) => {
                let reply = client.query(q)?;
                queries += 1;
                sub_queries += reply.shards_touched as u64;
            }
            Event::Update(u) => {
                client.update(u)?;
                updates += 1;
            }
        }
    }
    Ok((queries, updates, sub_queries))
}

fn to_items(events: &[Event]) -> Vec<BatchItem> {
    events
        .iter()
        .map(|e| match e {
            Event::Query(q) => BatchItem::Query(q.clone()),
            Event::Update(u) => BatchItem::Update(*u),
        })
        .collect()
}

fn tally_batch(replies: &[BatchReply], totals: &mut Totals) -> std::io::Result<()> {
    for reply in replies {
        match reply {
            BatchReply::Query { shards_touched, .. } => {
                totals.0 += 1;
                totals.2 += *shards_touched as u64;
            }
            BatchReply::Update { .. } => totals.1 += 1,
            BatchReply::Error { code, message } => {
                return Err(std::io::Error::other(format!(
                    "batch item failed: server error {code}: {message}"
                )));
            }
        }
    }
    Ok(())
}

fn tally_response(response: &Response, totals: &mut Totals) -> std::io::Result<()> {
    match response {
        Response::QueryOk { shards_touched, .. } => {
            totals.0 += 1;
            totals.2 += *shards_touched as u64;
        }
        Response::UpdateOk { .. } => totals.1 += 1,
        Response::BatchOk(replies) => tally_batch(replies, totals)?,
        Response::Error { code, message } => {
            return Err(std::io::Error::other(format!(
                "server error {code}: {message}"
            )));
        }
        other => {
            return Err(std::io::Error::other(format!(
                "unexpected response {other:?}"
            )));
        }
    }
    Ok(())
}

fn replay_batched(addr: &str, events: &[Event], batch: usize) -> std::io::Result<Totals> {
    let mut client = DeltaClient::connect(addr)?;
    let mut totals = (0u64, 0u64, 0u64);
    for chunk in events.chunks(batch) {
        let replies = client.batch(&to_items(chunk))?;
        tally_batch(&replies, &mut totals)?;
    }
    Ok(totals)
}

fn replay_pipelined(
    addr: &str,
    events: &[Event],
    batch: usize,
    window: usize,
) -> std::io::Result<Totals> {
    let mut pipe = DeltaClient::connect(addr)?.pipelined(window);
    let mut totals = (0u64, 0u64, 0u64);
    let reap = |pairs: Vec<(u64, Response)>, totals: &mut Totals| -> std::io::Result<()> {
        for (_, response) in pairs {
            tally_response(&response, totals)?;
        }
        Ok(())
    };
    for chunk in events.chunks(batch) {
        let request = if batch == 1 {
            match &chunk[0] {
                Event::Query(q) => Request::Query(q.clone()),
                Event::Update(u) => Request::Update(*u),
            }
        } else {
            Request::Batch(to_items(chunk))
        };
        pipe.submit(&request)?;
        reap(pipe.completed(), &mut totals)?;
    }
    let drained = pipe.drain()?;
    reap(drained, &mut totals)?;
    Ok(totals)
}

/// `--connections N`: the many-connection soak. Opens N pipelined
/// connections *before* the clock starts, deals the trace round-robin
/// across all of them, and drives every connection concurrently from
/// `min(N, 32)` worker threads — each thread interleaves submissions
/// across its share so the whole population stays in flight at once,
/// which is the shape the reactor front door exists to serve (a
/// thread-per-connection server needs N threads for this; the reactor
/// holds them all on a handful).
///
/// After the replay the server's telemetry is scraped and the run fails
/// if `conn.stall_drops` advanced — these clients are well-behaved, so
/// any reap here means the stall deadline fired on a live connection.
/// The run also fails if `reactor.accepted`, `reactor.wakeups` or
/// `reactor.closed` is zero: the event loops that serve every connection
/// must show they accepted, woke for and closed some.
fn run_connections(args: &Args, trace: &Trace) {
    let n = args.connections;
    let window = if args.pipeline > 1 { args.pipeline } else { 8 };
    let threads = n.clamp(1, 32);

    // Baseline the stall counter so the no-reap check measures only
    // this run, even against a server that has seen other clients.
    let stalls_before = DeltaClient::connect(&args.addr)
        .and_then(|mut c| c.telemetry())
        .map(|s| s.counter("conn.stall_drops"))
        .unwrap_or(0);

    eprintln!("opening {n} pipelined connections (window {window}, {threads} driver threads)");
    let mut pipes = Vec::with_capacity(n);
    for i in 0..n {
        match DeltaClient::connect(&args.addr) {
            Ok(c) => pipes.push(c.pipelined(window)),
            Err(e) => {
                eprintln!(
                    "delta-loadgen: opening connection {i} of {n} failed: {e} \
                     (raise `ulimit -n` past {n} on both sides)"
                );
                exit(1);
            }
        }
    }

    // Deal the trace round-robin: connection `c` replays events
    // c, c+N, c+2N, … so per-connection order follows trace order.
    struct Lane {
        pipe: PipelinedClient,
        events: Vec<Event>,
        next: usize,
        in_flight: HashMap<u64, Instant>,
    }
    let mut lanes: Vec<Lane> = pipes
        .into_iter()
        .enumerate()
        .map(|(c, pipe)| Lane {
            pipe,
            events: trace.events.iter().skip(c).step_by(n).cloned().collect(),
            next: 0,
            in_flight: HashMap::new(),
        })
        .collect();

    // One pass over a thread's lanes submits one frame per live lane
    // and reaps whatever completed, so every connection stays in
    // flight; drain settles the tails.
    fn drive(lanes: &mut [Lane], lat: &Histogram) -> std::io::Result<Totals> {
        let mut totals = (0u64, 0u64, 0u64);
        let reap = |lane: &mut Lane,
                    pairs: Vec<(u64, Response)>,
                    totals: &mut Totals|
         -> std::io::Result<()> {
            for (corr, response) in pairs {
                if let Some(t0) = lane.in_flight.remove(&corr) {
                    lat.record_duration(t0.elapsed());
                }
                tally_response(&response, totals)?;
            }
            Ok(())
        };
        let mut live = lanes.len();
        while live > 0 {
            live = 0;
            for lane in lanes.iter_mut() {
                if lane.next >= lane.events.len() {
                    continue;
                }
                let request = match &lane.events[lane.next] {
                    Event::Query(q) => Request::Query(q.clone()),
                    Event::Update(u) => Request::Update(*u),
                };
                lane.next += 1;
                let corr = lane.pipe.submit(&request)?;
                lane.in_flight.insert(corr, Instant::now());
                let pairs = lane.pipe.completed();
                reap(lane, pairs, &mut totals)?;
                if lane.next < lane.events.len() {
                    live += 1;
                }
            }
        }
        for lane in lanes.iter_mut() {
            let pairs = lane.pipe.drain()?;
            reap(lane, pairs, &mut totals)?;
        }
        Ok(totals)
    }

    let lat = Histogram::new();
    let per = n.div_ceil(threads);
    let start = Instant::now();
    let (queries, updates, _) = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .chunks_mut(per)
            .map(|chunk| scope.spawn(|| drive(chunk, &lat)))
            .collect();
        let mut totals = (0u64, 0u64, 0u64);
        for h in handles {
            match h.join().expect("connection driver thread panicked") {
                Ok((q, u, sq)) => {
                    totals.0 += q;
                    totals.1 += u;
                    totals.2 += sq;
                }
                Err(e) => {
                    eprintln!("delta-loadgen: connections replay failed: {e}");
                    exit(1);
                }
            }
        }
        totals
    });
    let elapsed = start.elapsed().as_secs_f64();
    let events = queries + updates;
    let events_per_sec = events as f64 / elapsed;
    let lat = lat.snapshot();
    eprintln!(
        "c1m: {events} events over {n} connections in {elapsed:.2}s \
         ({events_per_sec:.0} events/s); rtt p50={:.1}µs p99={:.1}µs p999={:.1}µs",
        lat.p50() as f64 / 1e3,
        lat.p99() as f64 / 1e3,
        lat.p999() as f64 / 1e3,
    );

    // No well-behaved client may be reaped: the stall deadline exists
    // for half-open peers, and N concurrent *live* connections must
    // never trip it.
    let snap = DeltaClient::connect(&args.addr)
        .and_then(|mut c| c.telemetry())
        .unwrap_or_else(|e| {
            eprintln!("delta-loadgen: telemetry scrape failed: {e}");
            exit(1);
        });
    let stalls = snap.counter("conn.stall_drops");
    if stalls > stalls_before {
        eprintln!(
            "delta-loadgen: conn.stall_drops advanced {stalls_before} -> {stalls} during a \
             well-behaved {n}-connection replay — the stall deadline reaped a live client"
        );
        exit(1);
    }
    eprintln!("c1m check: conn.stall_drops stayed at {stalls} over {n} live connections ✓");
    for name in ["reactor.accepted", "reactor.wakeups", "reactor.closed"] {
        if snap.counter(name) == 0 {
            eprintln!(
                "delta-loadgen: telemetry counter {name} is zero after a {n}-connection replay \
                 — the reactor's instrumentation came unthreaded"
            );
            exit(1);
        }
    }
    eprintln!("c1m check: reactor.* counters alive ✓");
}

fn main() {
    let args = parse_args();
    let trace = load_trace(&args);
    if args.connections > 0 {
        run_connections(&args, &trace);
        if let Some(tpath) = &args.telemetry_json {
            scrape_telemetry(&args.addr, tpath);
        }
        if args.shutdown {
            let mut client = DeltaClient::connect(&args.addr).unwrap_or_else(|e| {
                eprintln!("delta-loadgen: cannot reconnect for shutdown: {e}");
                exit(1);
            });
            client.shutdown().unwrap_or_else(|e| {
                eprintln!("delta-loadgen: shutdown failed: {e}");
                exit(1);
            });
            eprintln!("server shutdown requested");
        }
        return;
    }
    eprintln!(
        "replaying {} events ({} queries, {} updates) against {} over {} client(s), batch={}, pipeline={}",
        trace.len(),
        trace.n_queries(),
        trace.n_updates(),
        args.addr,
        args.clients,
        args.batch,
        args.pipeline,
    );

    // Baseline snapshot, so the post-replay consistency check measures
    // exactly what this replay contributed even on a warm server.
    let baseline = DeltaClient::connect(&args.addr)
        .and_then(|mut c| c.stats())
        .unwrap_or_else(|e| {
            eprintln!("delta-loadgen: cannot fetch baseline stats: {e}");
            exit(1);
        });

    let start = Instant::now();
    let (queries, updates, sub_queries) = if args.clients == 1 {
        let must = |r: std::io::Result<Totals>| -> Totals {
            r.unwrap_or_else(|e| {
                eprintln!("delta-loadgen: replay failed: {e}");
                exit(1);
            })
        };
        match (args.reshard_at, args.reshard) {
            // Mid-trace live reshard: replay a prefix, ask the router to
            // move the shard, replay the tail — the smoke-level twin of
            // the cluster differential test.
            (Some(at), Some((shard, node))) => {
                let at = at.min(trace.len());
                let head = must(replay(
                    &args.addr,
                    &trace.events[..at],
                    args.batch,
                    args.pipeline,
                ));
                let epoch = DeltaClient::connect(&args.addr)
                    .and_then(|mut c| c.reshard(shard, node))
                    .unwrap_or_else(|e| {
                        eprintln!("delta-loadgen: reshard failed: {e}");
                        exit(1);
                    });
                eprintln!(
                    "resharded shard {shard} -> node {node} after event {at} (epoch {epoch})"
                );
                let tail = must(replay(
                    &args.addr,
                    &trace.events[at..],
                    args.batch,
                    args.pipeline,
                ));
                (head.0 + tail.0, head.1 + tail.1, head.2 + tail.2)
            }
            _ => must(replay(&args.addr, &trace.events, args.batch, args.pipeline)),
        }
    } else {
        // Deal events round-robin across C lockstep connections.
        let lanes: Vec<Vec<Event>> = (0..args.clients)
            .map(|lane| {
                trace
                    .events
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % args.clients == lane)
                    .map(|(_, e)| e.clone())
                    .collect()
            })
            .collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = lanes
                .iter()
                .map(|lane| scope.spawn(|| replay(&args.addr, lane, args.batch, args.pipeline)))
                .collect();
            let mut totals = (0u64, 0u64, 0u64);
            for h in handles {
                match h.join().expect("replay thread panicked") {
                    Ok((q, u, sq)) => {
                        totals.0 += q;
                        totals.1 += u;
                        totals.2 += sq;
                    }
                    Err(e) => {
                        eprintln!("delta-loadgen: replay failed: {e}");
                        exit(1);
                    }
                }
            }
            totals
        })
    };
    let elapsed = start.elapsed();
    let rate = (queries + updates) as f64 / elapsed.as_secs_f64();
    eprintln!(
        "replayed {queries} queries + {updates} updates in {:.2}s ({rate:.0} events/s)",
        elapsed.as_secs_f64()
    );

    let mut client = DeltaClient::connect(&args.addr).unwrap_or_else(|e| {
        eprintln!("delta-loadgen: cannot reconnect for stats: {e}");
        exit(1);
    });
    let stats = client.stats().unwrap_or_else(|e| {
        eprintln!("delta-loadgen: stats failed: {e}");
        exit(1);
    });

    print!("{}", stats.render_table());
    let global = stats.total_ledger();
    println!("\naggregate: {}", stats.to_sim_report());

    // Cross-check the server's accounting against what this client
    // actually sent: every update is one shard event, and every query
    // fans into the `shards_touched` sub-queries its reply declared.
    let delta_events = stats.total_events() - baseline.total_events();
    let delta_bytes = global.total().bytes() - baseline.total_ledger().total().bytes();
    let expected = updates + sub_queries;
    assert!(delta_bytes > 0, "replay moved no bytes — empty trace?");
    assert!(
        delta_events >= expected,
        "server accounted {delta_events} shard events but this client alone sent {expected}"
    );
    if delta_events == expected {
        println!(
            "consistency: server accounted {delta_events} shard events == {updates} updates + {sub_queries} sub-queries sent; {delta_bytes} bytes moved over {} shards ✓",
            stats.shards.len()
        );
    } else {
        println!(
            "consistency: server accounted {delta_events} shard events >= our {expected} (other clients active); {delta_bytes} bytes moved over {} shards ✓",
            stats.shards.len()
        );
    }

    if let Some(tpath) = &args.telemetry_json {
        scrape_telemetry(&args.addr, tpath);
    }

    if args.shutdown {
        client.shutdown().unwrap_or_else(|e| {
            eprintln!("delta-loadgen: shutdown failed: {e}");
            exit(1);
        });
        eprintln!("server shutdown requested");
    }
}
