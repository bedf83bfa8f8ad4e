//! One workload run: set-up, closed phase, paced phase, oracle, and —
//! in a traced run — the per-layer drivers and the waterfall.

use crate::layers::{self, Probe};
use crate::metrics::{cpu_seconds, median, peak_rss_mb, quantile, result_line, Metrics};
use crate::oracle::{compare, run_twin, Twin};
use crate::spec::Spec;
use crate::topology::Running;
use crate::wire::{
    closed_loop, paced, ClosedOutcome, Conn, PacedOutcome, Spans, Window, SPAN_NAMES,
};
use crate::workload::Plan;
use delta_server::{Request, TelemetrySnapshot};
use delta_storage::ObjectId;
use delta_workload::Event;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// In-flight paced events beyond which the backlog counts as growing.
const BACKLOG_LIMIT: u64 = 4096;
/// Frames whose spans are written to the JSONL trace, at most.
const TRACE_FRAMES: u64 = 20_000;

pub struct Options {
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub quick: bool,
}

pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Why the run is not correct or not valid, when it is not.
    pub problems: Vec<String>,
}

impl Report {
    pub fn ok(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    pub fn result_line(&self) -> String {
        result_line(self.ok(), self.attempted, self.failed, &self.metrics)
    }
}

/// What the closed phase measured.
struct Closed {
    outcome: ClosedOutcome,
    wall: Duration,
    cpu_s: f64,
    spans: Spans,
}

/// Sends `frames` closed-loop on the caller's thread and measures the
/// wall and process CPU time it took.
fn drive_closed<const TRACE: bool>(
    conn: &mut Conn,
    frames: &[Request],
    window: Window,
) -> io::Result<Closed> {
    let t0 = Instant::now();
    let mut spans = Spans::new(t0, (frames.len() as u64).div_ceil(TRACE_FRAMES));
    let cpu0 = cpu_seconds();
    let outcome = closed_loop::<TRACE>(conn, frames, window, &mut spans)?;
    Ok(Closed {
        outcome,
        wall: t0.elapsed(),
        cpu_s: cpu_seconds() - cpu0,
        spans,
    })
}

/// One complete set-up: trace, frames, topology, handshake, connection
/// and the unmeasured warm-up segment.
fn set_up(spec: &Spec, opts: &Options, replicas: Option<u16>) -> io::Result<(Plan, Running, Conn)> {
    let plan = Plan::build(spec, opts.seed, opts.seconds);
    let running = Running::start(spec, &plan.catalog, replicas)?;
    running.handshake(spec)?;
    let mut conn = Conn::connect(running.addr)?;
    conn.hello()?;
    let warm = drive_closed::<false>(&mut conn, &plan.warmup, spec.frames.window())?;
    if warm.outcome.failed > 0 {
        return Err(io::Error::other(format!(
            "{} warm-up events failed",
            warm.outcome.failed
        )));
    }
    Ok((plan, running, conn))
}

/// Samples the nodes' `replica.lag_events` gauges while the measured
/// phases run (traced cluster runs only); returns the largest level.
fn watch_lag(running: &Running, stop: &AtomicBool, max: &AtomicU64) {
    let gauges: Vec<_> = running
        .nodes
        .iter()
        .map(|n| n.telemetry_handle().gauge("replica.lag_events"))
        .collect();
    while !stop.load(Ordering::Acquire) {
        for g in &gauges {
            max.fetch_max(g.get(), Ordering::Relaxed);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

/// Runs `spec` once and reports either its end-to-end metrics or, in a
/// traced run, its per-layer metrics.
pub fn run(spec: &Spec, opts: &Options) -> io::Result<Report> {
    // One connection carries all measured traffic: one generator thread
    // in the closed phase, a sender and a receiver in the paced phase.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if nproc < 2 {
        return Err(io::Error::other(
            "the paced phase needs 2 generator threads and the benchmark allows at most nproc",
        ));
    }
    let window = spec.frames.window();

    // ---- set-up -------------------------------------------------------
    let reps = if opts.traced || opts.quick {
        1
    } else {
        SETUP_REPS
    };
    let mut setup_s = Vec::new();
    let mut live = None;
    for rep in 0..reps {
        let t0 = Instant::now();
        let (plan, running, conn) = set_up(spec, opts, None)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if rep + 1 < reps {
            drop(conn);
            running.stop()?;
        } else {
            live = Some((plan, running, conn));
        }
    }
    let (plan, running, mut conn) = live.expect("at least one set-up");
    let (nodes_before, _) = running.telemetry();

    // ---- measured phases ------------------------------------------------
    let stop = AtomicBool::new(false);
    let lag_max = AtomicU64::new(0);
    let is_query: Vec<bool> = plan.paced_events().iter().map(Event::is_query).collect();
    let (closed, mut paced_out) = std::thread::scope(|scope| -> io::Result<_> {
        if opts.traced && spec.replicated() {
            scope.spawn(|| watch_lag(&running, &stop, &lag_max));
        }
        let phases = (|| {
            let closed = if opts.traced {
                drive_closed::<true>(&mut conn, &plan.closed, window)?
            } else {
                drive_closed::<false>(&mut conn, &plan.closed, window)?
            };
            let paced_out = paced(&mut conn, &plan.paced, &is_query, spec.paced_rate)?;
            Ok((closed, paced_out))
        })();
        stop.store(true, Ordering::Release);
        phases
    })?;

    // ---- oracle -----------------------------------------------------------
    let served = running.stats()?;
    let (nodes_after, router_after) = running.telemetry();
    let twin = run_twin(
        spec,
        &plan.catalog,
        &plan.events,
        plan.segments,
        opts.traced,
    );
    let mut problems = Vec::new();
    if let Err(why) = compare(&twin.shards, &served) {
        problems.push(format!("oracle: {why}"));
    }
    let retries = router_after
        .as_ref()
        .map_or(0, |r| r.counter("router.wrong_epoch_retries"));
    if retries > 0 {
        problems.push(format!("router.wrong_epoch_retries = {retries}"));
    }
    // Replication health: every backup bootstrapped once, at start-up,
    // and every applied event reached it through the log. Anything else
    // means a replication link went down mid-run and writes were
    // acknowledged without their backup (README, "Replication health").
    if spec.replicated() {
        let bootstraps = nodes_after.counter("replica.bootstraps");
        let shipped = nodes_after.counter("replica.shipped_events");
        if bootstraps != spec.n_shards as u64 || shipped != served.total_events() {
            problems.push(format!(
                "replication degraded mid-run: {bootstraps} bootstraps for {} shards, {shipped} of \
                 {} events shipped through the log",
                spec.n_shards,
                served.total_events()
            ));
        }
    }
    let attempted = closed.outcome.events + paced_out.events;
    let failed = closed.outcome.failed + paced_out.failed;

    // ---- validity of the paced numbers ------------------------------------
    // (not judged at `--quick` sizes, whose numbers mean nothing)
    let lag_p50_us = us(quantile(&mut paced_out.sched_lag_ns, 0.5));
    let lag_p99_us = us(quantile(&mut paced_out.sched_lag_ns, 0.99));
    let p50_us =
        us(quantile(&mut paced_out.query_ns, 0.5).min(quantile(&mut paced_out.update_ns, 0.5)));
    if !opts.quick && paced_out.achieved_share < 0.99 {
        problems.push(format!(
            "paced phase reached {:.4} of its rate; paced_* not valid",
            paced_out.achieved_share
        ));
    }
    if !opts.quick && paced_out.backlog_max > BACKLOG_LIMIT {
        problems.push(format!(
            "paced backlog reached {} events (limit {BACKLOG_LIMIT}); paced_* not valid",
            paced_out.backlog_max
        ));
    }
    // The reported latencies are medians, so the generator's median
    // lateness is what can falsify them. Its p99 lateness is reported
    // (`client.sched_lag_p99_us`) and only warned about: on the 2-vCPU
    // reference box one run in ten has a multi-millisecond scheduling
    // stall that no generator design removed (README, "Generator").
    if !opts.quick && lag_p50_us > p50_us / 10.0 {
        problems.push(format!(
            "generator ran {lag_p50_us:.1} us late at the median, over a tenth of the \
             {p50_us:.1} us median latency; paced_* not valid"
        ));
    }
    if !opts.quick && lag_p99_us > spec.slo_us / 10.0 {
        eprintln!(
            "benchmark: {}: warning: generator ran {lag_p99_us:.1} us late at p99 (over a tenth \
             of the {} us latency limit); the paced p99 of this run is the generator's",
            spec.name, spec.slo_us
        );
    }

    let mut m = Metrics::default();
    if !opts.traced {
        end_to_end(&mut m, &setup_s, &closed, &served, &twin);
        drop(conn);
        running.stop()?;
    } else {
        let ctx = Traced {
            spec,
            opts,
            plan: &plan,
            closed: &closed,
            paced: &mut paced_out,
            twin: &twin,
            nodes_before: &nodes_before,
            nodes_after: &nodes_after,
            router_after: router_after.as_ref(),
            lag_events_max: lag_max.load(Ordering::Relaxed),
            lag_p99_us,
            window,
        };
        per_layer(&mut m, ctx, running, conn)?;
    }

    Ok(Report {
        attempted,
        failed,
        metrics: m,
        problems,
    })
}

/// The five end-to-end metrics, same names on every workload. The
/// paced latencies are reported per layer (`client.paced_*_us`): on the
/// reference box their medians drift 3x within two hours and their
/// tails 10x between runs, too much for any bound (README, "Demoted
/// metrics").
fn end_to_end(
    m: &mut Metrics,
    setup_s: &[f64],
    closed: &Closed,
    served: &delta_server::StatsSnapshot,
    twin: &Twin,
) {
    let events = closed.outcome.events;
    m.put("setup_s", "s", median(setup_s), setup_s.len() as u64);
    m.put(
        "closed_eps",
        "events/s",
        events as f64 / closed.wall.as_secs_f64(),
        events,
    );
    m.put(
        "closed_cpu_us_per_event",
        "us",
        closed.cpu_s * 1e6 / events as f64,
        events,
    );
    m.put(
        "net_cost_ratio",
        "ratio",
        served.total_ledger().total().bytes() as f64 / twin.nocache_bytes as f64,
        served.total_events(),
    );
    m.put("peak_rss_mb", "MB", peak_rss_mb(), 0);
}

/// Everything the per-layer report needs from the measured run.
struct Traced<'a> {
    spec: &'a Spec,
    opts: &'a Options,
    plan: &'a Plan,
    closed: &'a Closed,
    paced: &'a mut PacedOutcome,
    twin: &'a Twin,
    nodes_before: &'a TelemetrySnapshot,
    nodes_after: &'a TelemetrySnapshot,
    router_after: Option<&'a TelemetrySnapshot>,
    lag_events_max: u64,
    lag_p99_us: f64,
    window: Window,
}

/// Cost of one `Instant::now()`, the unit of tracing overhead.
fn timer_ns() -> f64 {
    const READS: u32 = 1_000_000;
    let t0 = Instant::now();
    for _ in 0..READS {
        std::hint::black_box(Instant::now());
    }
    t0.elapsed().as_nanos() as f64 / READS as f64
}

/// Per-layer metrics of a traced run; stops `running` when done with it.
/// `conn` is the measured run's own connection: the router probes ride
/// it, for the reason `wire::paced` gives.
fn per_layer(m: &mut Metrics, t: Traced<'_>, running: Running, mut conn: Conn) -> io::Result<()> {
    let spec = t.spec;
    let (query_ns, update_ns) = (&mut t.paced.query_ns, &mut t.paced.update_ns);
    let events = t.closed.outcome.events;
    let wall_ns = t.closed.wall.as_nanos() as f64;
    let traced_eps = events as f64 / t.closed.wall.as_secs_f64();
    let timings = t.twin.timings.as_ref().expect("traced twin is timed");
    let samples = if t.opts.quick { 500 } else { 20_000 };

    // workload
    m.put("workload.generate_s", "s", t.plan.generate_s, 1);
    m.put(
        "workload.events",
        "count",
        t.plan.events.len() as f64,
        t.plan.events.len() as u64,
    );

    // client: the generator itself, so it can be subtracted.
    let span_ns = t.closed.spans.total_ns;
    let span_count: u64 = t.closed.spans.count.iter().sum();
    m.put("client.closed_eps", "events/s", traced_eps, events);
    m.put(
        "client.busy_share",
        "share",
        1.0 - span_ns[2] as f64 / wall_ns,
        span_count,
    );
    for (k, name) in SPAN_NAMES.iter().enumerate() {
        m.put(
            &format!("{name}_ns_per_event"),
            "ns",
            span_ns[k] as f64 / events as f64,
            events,
        );
    }
    // Two clock reads per span; the share of the closed wall they took.
    m.put(
        "client.trace_overhead_share",
        "share",
        2.0 * span_count as f64 * timer_ns() / wall_ns,
        span_count,
    );
    let paced_n = t.paced.events;
    m.put("client.sched_lag_p99_us", "us", t.lag_p99_us, paced_n);
    m.put(
        "client.paced_achieved_share",
        "share",
        t.paced.achieved_share,
        paced_n,
    );
    m.put(
        "client.backlog_max",
        "count",
        t.paced.backlog_max as f64,
        paced_n,
    );
    let slo_ns = (spec.slo_us * 1000.0) as u64;
    let misses = query_ns
        .iter()
        .chain(update_ns.iter())
        .filter(|&&ns| ns > slo_ns)
        .count() as u64
        + t.paced.failed;
    m.put(
        "client.slo_miss_share",
        "share",
        misses as f64 / paced_n as f64,
        paced_n,
    );

    // protocol, partition
    layers::protocol(m, &t.plan.closed, &t.closed.spans.replies);
    layers::partition(m, spec, &t.plan.catalog, t.plan.closed_events());

    // core (the twin) and shard (its isolated driver)
    let core_busy_ns: u64 = timings.shard_busy_ns.iter().sum();
    let core_per_event = core_busy_ns as f64 / events as f64;
    let shard_per_event = layers::shard(spec, &t.plan.catalog, &t.plan.events, t.plan.segments);
    m.put("shard.op_ns_per_event", "ns", shard_per_event, events);
    m.put(
        "shard.overhead_ns_per_event",
        "ns",
        shard_per_event - core_per_event,
        events,
    );
    let lag_max = t.lag_events_max;
    layers::instruments(
        m,
        spec,
        t.nodes_before,
        t.nodes_after,
        t.router_after,
        lag_max,
    );

    let (mut cq, mut cu) = (timings.query_ns.clone(), timings.update_ns.clone());
    let applies = (cq.len() + cu.len()) as u64;
    m.put("core.apply_ns_per_event", "ns", core_per_event, applies);
    m.put(
        "core.query_p50_ns",
        "ns",
        quantile(&mut cq, 0.5) as f64,
        cq.len() as u64,
    );
    m.put(
        "core.query_p99_ns",
        "ns",
        quantile(&mut cq, 0.99) as f64,
        cq.len() as u64,
    );
    m.put(
        "core.update_p50_ns",
        "ns",
        quantile(&mut cu, 0.5) as f64,
        cu.len() as u64,
    );
    m.put(
        "core.update_p99_ns",
        "ns",
        quantile(&mut cu, 0.99) as f64,
        cu.len() as u64,
    );
    m.put("core.busy_s", "s", core_busy_ns as f64 / 1e9, applies);
    let busiest = timings.shard_busy_ns.iter().copied().max().unwrap_or(0);
    m.put(
        "core.busiest_shard_share",
        "share",
        busiest as f64 / core_busy_ns.max(1) as f64,
        applies,
    );
    let slowest = timings.decile_busy_ns.iter().copied().max().unwrap_or(0);
    m.put(
        "core.slowest_decile_eps",
        "events/s",
        (events as f64 / 10.0) / (slowest.max(1) as f64 / 1e9),
        events / 10,
    );
    let mut total = delta_core::EngineMetrics::default();
    for shard in &t.twin.shards {
        total.absorb(shard);
    }
    m.put(
        "core.local_answer_share",
        "share",
        total.hit_rate(),
        total.queries,
    );
    m.put(
        "core.update_ships",
        "count",
        total.ledger.update_ships as f64,
        0,
    );
    m.put("core.loads", "count", total.ledger.loads as f64, 0);
    m.put("core.evictions", "count", total.ledger.evictions as f64, 0);
    m.put(
        "core.tolerance_served",
        "count",
        total.tolerance_served as f64,
        0,
    );

    // flow
    let solves = timings.solve_ns.count;
    let solve_busy_ns = timings.solve_ns.sum;
    m.put(
        "flow.solves_per_query",
        "count",
        solves as f64 / t.twin.closed_sub_queries.max(1) as f64,
        t.twin.closed_sub_queries,
    );
    if solves > 0 {
        m.put(
            "flow.solve_p50_ns",
            "ns",
            timings.solve_ns.quantile(0.5) as f64,
            solves,
        );
        m.put(
            "flow.solve_p99_ns",
            "ns",
            timings.solve_ns.quantile(0.99) as f64,
            solves,
        );
    } else {
        m.missing("flow.solve_p50_ns", "ns");
        m.missing("flow.solve_p99_ns", "ns");
    }
    m.put("flow.solve_busy_s", "s", solve_busy_ns as f64 / 1e9, solves);
    m.put(
        "flow.solve_share_of_core",
        "share",
        solve_busy_ns as f64 / core_busy_ns.max(1) as f64,
        solves,
    );
    m.put(
        "flow.graph_nodes_max",
        "count",
        timings.graph_nodes_max as f64,
        solves,
    );
    m.put(
        "flow.graph_edges_max",
        "count",
        timings.graph_edges_max as f64,
        solves,
    );
    for n in [64usize, 512, 4096] {
        m.put(
            &format!("flow.churn_solve_ns.n{n}"),
            "ns",
            layers::flow_churn(n),
            0,
        );
    }

    // storage
    m.put(
        "storage.cache_used_share",
        "share",
        total.cache_used as f64 / total.cache_capacity.max(1) as f64,
        0,
    );
    m.put("storage.residents", "count", total.residents as f64, 0);

    // router, replication: lockstep probes and the R = 0 re-run.
    if spec.replicated() {
        let probes = samples / 4;
        let object = ObjectId(0);
        let seq = t.plan.events.len() as u64 + 1;
        let r1_update = layers::rtt_p50_us(&mut conn, Probe::Update, object, seq, probes)?;
        let r1_query = layers::rtt_p50_us(&mut conn, Probe::Query, object, seq + probes, probes)?;
        drop(conn);
        running.stop()?;

        let (plan0, running0, mut conn0) = set_up(spec, t.opts, Some(0))?;
        let closed0 = drive_closed::<true>(&mut conn0, &plan0.closed, t.window)?;
        if closed0.outcome.failed > 0 {
            return Err(io::Error::other("events failed in the R=0 re-run"));
        }
        let eps0 = closed0.outcome.events as f64 / closed0.wall.as_secs_f64();
        let r0_update = layers::rtt_p50_us(&mut conn0, Probe::Update, object, seq, probes)?;
        let r0_query = layers::rtt_p50_us(&mut conn0, Probe::Query, object, seq + probes, probes)?;
        let map = spec.partitioner.build(spec.n_shards, t.plan.catalog.len());
        let owner = &running0.nodes[map.shard_of(object) % running0.nodes.len()];
        let mut direct_conn = Conn::connect(owner.local_addr())?;
        // A cluster node fences event frames against the epoch its
        // connection declared.
        direct_conn.hello()?;
        let direct = layers::rtt_p50_us(
            &mut direct_conn,
            Probe::Update,
            object,
            seq + 2 * probes,
            probes,
        )?;
        drop((conn0, direct_conn));
        running0.stop()?;
        m.put("router.added_rtt_p50_us", "us", r0_update - direct, probes);
        m.put(
            "replication.added_update_rtt_p50_us",
            "us",
            r1_update - r0_update,
            probes,
        );
        m.put(
            "replication.added_query_rtt_p50_us",
            "us",
            r1_query - r0_query,
            probes,
        );
        m.put("replication.closed_eps_r0", "events/s", eps0, events);
        m.put(
            "replication.throughput_cost",
            "ratio",
            traced_eps / eps0,
            events,
        );
    } else {
        drop(conn);
        running.stop()?;
        m.missing("router.added_rtt_p50_us", "us");
        m.missing("replication.added_update_rtt_p50_us", "us");
        m.missing("replication.added_query_rtt_p50_us", "us");
        m.missing("replication.closed_eps_r0", "events/s");
        m.missing("replication.throughput_cost", "ratio");
    }

    // front: the round-trip floor on an idle node, probed once nothing
    // else of the benchmark is running.
    let floor_us = layers::rtt_floor(spec, &t.plan.catalog, samples)?;
    m.put("front.rtt_floor_p50_us", "us", floor_us, samples);

    m.put(
        "telemetry.record_ns",
        "ns",
        layers::telemetry_record_ns(),
        0,
    );

    // The paced latencies, kept per layer because their spread on the
    // reference box is too wide to carry a bound (README, "Demoted
    // metrics").
    m.put(
        "client.paced_query_p50_us",
        "us",
        us(quantile(query_ns, 0.5)),
        query_ns.len() as u64,
    );
    m.put(
        "client.paced_update_p50_us",
        "us",
        us(quantile(update_ns, 0.5)),
        update_ns.len() as u64,
    );
    m.put(
        "client.paced_query_p99_us",
        "us",
        us(quantile(query_ns, 0.99)),
        query_ns.len() as u64,
    );
    m.put(
        "client.paced_update_p99_us",
        "us",
        us(quantile(update_ns, 0.99)),
        update_ns.len() as u64,
    );

    // waterfall: closed-phase wall per event = the server-path layers'
    // self times + a residual nothing outside the program can attribute.
    let wall_per_event = wall_ns / events as f64;
    let get = |m: &Metrics, name: &str| m.get(name).unwrap_or(0.0);
    let flow_per_event = solve_busy_ns as f64 / events as f64;
    let rows = [
        (
            "protocol",
            get(m, "protocol.req_decode_ns_per_event")
                + get(m, "protocol.resp_encode_ns_per_event"),
        ),
        ("partition", get(m, "partition.split_ns_per_event")),
        ("shard", (shard_per_event - core_per_event).max(0.0)),
        ("core", (core_per_event - flow_per_event).max(0.0)),
        ("flow", flow_per_event),
    ];
    let explained: f64 = rows.iter().map(|r| r.1).sum();
    m.put("waterfall.wall_ns_per_event", "ns", wall_per_event, events);
    for (layer, ns) in rows {
        m.put(
            &format!("waterfall.{layer}_share"),
            "share",
            ns / wall_per_event,
            events,
        );
    }
    m.put(
        "waterfall.residual_share",
        "share",
        1.0 - explained / wall_per_event,
        events,
    );

    write_trace(spec.name, &t.closed.spans)
}

/// Writes the sampled client spans as JSONL under `benchmark/out/`.
fn write_trace(workload: &str, spans: &Spans) -> io::Result<()> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let file = std::fs::File::create(dir.join(format!("trace-{workload}.jsonl")))?;
    let mut out = io::BufWriter::new(file);
    for s in &spans.sampled {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"frame\":{},\"start_ns\":{},\"end_ns\":{}}}",
            SPAN_NAMES[s.kind as usize], s.frame, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    fn quick(name: &str, traced: bool) -> Report {
        let spec = spec::by_name(name).unwrap().quick();
        let opts = Options {
            seed: 5,
            seconds: spec::NOMINAL_SECONDS,
            traced,
            quick: true,
        };
        let report = run(&spec, &opts).unwrap();
        assert!(report.ok(), "{name}: {:?}", report.problems);
        assert!(report.attempted > 0);
        report
    }

    /// The names and units `BENCHMARK.json` lists under `key`.
    fn contract(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let json = serde_json::from_str_value(&text).unwrap();
        json.get(key)
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn reported(report: &Report) -> Vec<(String, String)> {
        report
            .metrics
            .0
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect()
    }

    /// Every workload, both modes, at smoke size: the oracle passes and
    /// the result line carries exactly the metrics `BENCHMARK.json`
    /// promises. One test, so cluster port reservations never race.
    #[test]
    fn every_workload_reports_the_contracted_metrics() {
        let end_to_end = contract("end_to_end");
        let per_layer = contract("per_layer");
        let workloads: Vec<String> = serde_json::from_str_value(
            &std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap(),
        )
        .unwrap()
        .get("workloads")
        .and_then(|v| v.as_array())
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap().to_string())
        .collect();
        let ours: Vec<String> = spec::all().iter().map(|s| s.name.to_string()).collect();
        assert_eq!(workloads, ours);
        for name in &ours {
            assert_eq!(reported(&quick(name, false)), end_to_end, "{name}");
            assert_eq!(reported(&quick(name, true)), per_layer, "{name}");
        }
    }
}
