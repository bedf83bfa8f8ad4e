//! The paper's §6 experiments on one generate → simulate → report path.
//!
//! A [`Run`] generates the base survey once; each experiment replays it
//! (`fig8a` regenerates only the trace, `fig8b` re-partitions the sky),
//! prints the tables the paper plots, and returns its JSON artifact.

use crate::{factor, print_reports, Scale};
use delta_core::{
    compare_all, hindsight_decoupling, simulate, AdmissionMode, Benefit, BenefitConfig,
    CachingPolicy, NoCache, Preship, PreshipConfig, SOptimal, SimOptions, SimReport, VCover,
};
use delta_net::LinkModel;
use delta_policy::{Fifo, Gdsf, GreedyDualSize as Gds, Lfu, Lru, ReplacementPolicy};
use delta_workload::{fig7a_series, SyntheticSurvey, TraceStats, WorkloadConfig};
use serde_json::{json, ToJson, Value};

/// An experiment: prints its tables and returns its JSON artifact.
pub type Experiment = fn(&Run) -> Value;

/// Every experiment, in the order a bare `figures` runs them.
pub const EXPERIMENTS: [(&str, Experiment); 8] = [
    ("headline", headline),
    ("fig7a", fig7a),
    ("fig7b", fig7b),
    ("fig8a", fig8a),
    ("fig8b", fig8b),
    ("hindsight", hindsight),
    ("preship", preship),
    ("ablation", ablation),
];

/// One figure run: the scale's configuration and its base survey.
pub struct Run {
    /// The scale the run was built for.
    pub scale: Scale,
    /// The base workload configuration.
    pub(crate) cfg: WorkloadConfig,
    /// Events before this sequence number are warm-up.
    pub warmup: u64,
    /// The base survey, generated once.
    pub(crate) survey: SyntheticSurvey,
}

impl Run {
    /// Generates the base survey for `scale`.
    pub fn new(scale: Scale) -> Run {
        let cfg = scale.config();
        eprintln!("generating survey ({} events)...", cfg.n_events());
        Run {
            scale,
            warmup: (cfg.n_events() as f64 * cfg.warmup_fraction) as u64,
            survey: SyntheticSurvey::generate(&cfg),
            cfg,
        }
    }

    /// Options with a cache of `cache_fraction` of the server, sampling
    /// the cost series every `n_events / sample_divisor` events.
    fn opts(&self, cache_fraction: f64, sample_divisor: u64) -> SimOptions {
        let every = self.cfg.n_events() as u64 / sample_divisor;
        SimOptions::with_cache_fraction(&self.survey.catalog, cache_fraction, every)
    }

    /// Replays the base survey against `policy`.
    fn sim(&self, policy: &mut dyn CachingPolicy, opts: SimOptions) -> SimReport {
        simulate(policy, &self.survey.catalog, &self.survey.trace, opts)
    }
}

/// The report of policy `name`.
fn find<'a>(reports: &'a [SimReport], name: &str) -> &'a SimReport {
    reports
        .iter()
        .find(|r| r.policy == name)
        .unwrap_or_else(|| panic!("no {name} report"))
}

/// §6 headline: "Delta (using VCover) reduces the traffic by nearly half
/// even with a cache that is one-fifth the size of the server
/// repository," and "VCover outperforms Benefit by a factor that varies
/// between 2-5 under different conditions."
fn headline(run: &Run) -> Value {
    let mut rows = Vec::new();
    for frac in [0.2, 0.3] {
        let opts = run.opts(frac, 200);
        let policies: [Box<dyn CachingPolicy>; 3] = [
            Box::new(NoCache),
            Box::new(VCover::new(opts.cache_bytes, run.cfg.seed)),
            Box::new(Benefit::new(opts.cache_bytes, BenefitConfig::default())),
        ];
        let [n, v, b] = policies.map(|mut p| {
            let report = run.sim(&mut *p, opts);
            report.cost_after(run.warmup).bytes()
        });
        let gb = |bytes: u64| bytes as f64 / 1e9;
        println!(
            "cache = {:>3.0}% of server: NoCache {:>8.1} GB | VCover {:>8.1} GB \
             (traffic reduced {:>4.1}%) | Benefit {:>8.1} GB ({:.1}x VCover)",
            frac * 100.0,
            gb(n),
            gb(v),
            (1.0 - factor(v, n)) * 100.0,
            gb(b),
            factor(b, v)
        );
        rows.push(json!({
            "cache_fraction": frac,
            "nocache_post_gb": gb(n),
            "vcover_post_gb": gb(v),
            "benefit_post_gb": gb(b),
            "reduction_vs_nocache": 1.0 - factor(v, n),
            "benefit_over_vcover": factor(b, v),
        }));
    }
    println!("\npaper: traffic cut nearly in half at one-fifth cache; VCover beats Benefit 2-5x.");
    Value::Array(rows)
}

/// Fig. 7(a): object-IDs touched by each query (rings) and update
/// (crosses) along the event sequence — distinct, drifting query and
/// update hotspots. Prints an ASCII scatter; the artifact is the points.
fn fig7a(run: &Run) -> Value {
    let n_objects = run.survey.catalog.len();
    let stats = TraceStats::compute(&run.survey.trace, n_objects);
    let points = fig7a_series(&run.survey.trace, run.cfg.n_events() / 4000 + 1);

    // Rows = object-id buckets, cols = event-sequence buckets.
    const COLS: usize = 100;
    const ROWS: usize = 34;
    let total = run.cfg.n_events() as f64;
    let mut grid = vec![[0u8; COLS]; ROWS];
    for p in &points {
        let r = (p.object as usize * ROWS / n_objects).min(ROWS - 1);
        let c = ((p.seq as f64 / total) * COLS as f64) as usize;
        grid[r][c.min(COLS - 1)] |= if p.is_update { 2 } else { 1 };
    }
    println!("Fig 7(a): object-ID (rows, 0..{n_objects}) vs event sequence (cols)");
    println!("  legend: o = queried, x = updated, * = both\n");
    for (r, row) in grid.iter().enumerate() {
        let cells: String = row
            .iter()
            .map(|&c| [' ', 'o', 'x', '*'][c as usize])
            .collect();
        println!("{:>4} |{cells}", r * n_objects / ROWS);
    }

    println!(
        "\nquery hotspots (top 6 object-IDs): {:?}",
        stats.top_query_objects(6)
    );
    println!(
        "update hotspots (top 6 object-IDs): {:?}",
        stats.top_update_objects(6)
    );
    println!(
        "hotspot overlap (Jaccard, k=6): {:.2}",
        stats.hotspot_overlap(6)
    );
    println!(
        "\npaper's observation: query hotspots (their IDs 22-24, 62-64) and update \
         hotspots (11-13, 30-32) are distinct clusters; queries evolve over time."
    );
    points.to_json()
}

/// Fig. 7(b): cumulative traffic of the five policies along the
/// post-warm-up sequence. Paper §6.2: VCover tracks SOptimal, beats
/// Benefit by ≥2x, Replica by ~1.5x and NoCache by ~2x.
fn fig7b(run: &Run) -> Value {
    let (warmup, trace) = (run.warmup, &run.survey.trace);
    let reports = compare_all(&run.survey.catalog, trace, run.opts(0.3, 200), run.cfg.seed);
    print_reports(
        "Fig 7(b): cumulative traffic, cache = 30% of server",
        warmup,
        &reports,
    );

    println!("\npost-warm-up cumulative traffic (GB):");
    print!("{:>12}", "event");
    for r in &reports {
        print!("{:>10}", r.policy);
    }
    println!();
    let last = trace.events.last().map(|e| e.seq()).unwrap_or(0);
    for i in 1..=10u64 {
        let at = warmup + (last - warmup) * i / 10;
        print!("{at:>12}");
        for r in &reports {
            let v = r.cumulative_at(at).saturating_sub(r.cumulative_at(warmup));
            print!("{:>10.1}", v.bytes() as f64 / 1e9);
        }
        println!();
    }

    let post = |name| find(&reports, name).cost_after(warmup).bytes();
    let vcover = post("VCover");
    println!("\nshape checks (post-warm-up):");
    for (ratio, value, paper) in [
        ("NoCache / VCover ", factor(post("NoCache"), vcover), "~2"),
        ("Benefit / VCover ", factor(post("Benefit"), vcover), ">=2"),
        ("Replica / VCover ", factor(post("Replica"), vcover), "~1.5"),
        (
            "VCover / SOptimal",
            factor(vcover, post("SOptimal")),
            "~1.4 at trace end",
        ),
    ] {
        println!("  {ratio} = {value:.2}  (paper: {paper})");
    }
    reports.to_json()
}

/// Fig. 8(a): final traffic vs number of updates, queries fixed, updates
/// at 0.5x..1.5x of the default. Paper §6.2: NoCache flat, Replica
/// linear, VCover/Benefit/SOptimal nearly flat.
fn fig8a(run: &Run) -> Value {
    let opts = run.opts(0.3, 100);
    let fractions = [0.5, 0.75, 1.0, 1.25, 1.5];
    let mut sweep = Vec::new();
    for f in fractions {
        let mut cfg = run.cfg.clone();
        cfg.n_updates = (run.cfg.n_updates as f64 * f) as usize;
        let trace = run.survey.regenerate_trace(&cfg);
        let warmup = (trace.len() as f64 * cfg.warmup_fraction) as u64;
        let reports = compare_all(&run.survey.catalog, &trace, opts, cfg.seed);
        let title = format!("Fig 8(a) point: {} updates", cfg.n_updates);
        print_reports(&title, warmup, &reports);
        sweep.push((cfg.n_updates, reports));
    }

    println!("\nFig 8(a): final traffic (GB) vs number of updates");
    print!("{:>10}", "updates");
    for r in &sweep[0].1 {
        print!("{:>10}", r.policy);
    }
    println!();
    for (n_updates, reports) in &sweep {
        print!("{n_updates:>10}");
        for r in reports {
            print!("{:>10.1}", r.total().bytes() as f64 / 1e9);
        }
        println!();
    }

    let total = |i: usize, name| find(&sweep[i].1, name).total().bytes();
    let (lo, hi) = (0, sweep.len() - 1);
    println!("\nshape checks:");
    println!(
        "  Replica cost ratio hi/lo = {:.2} (update ratio {:.2}; paper: proportional)",
        total(hi, "Replica") as f64 / total(lo, "Replica") as f64,
        fractions[hi] / fractions[lo]
    );
    let (nocache_lo, nocache_hi) = (total(lo, "NoCache"), total(hi, "NoCache"));
    println!(
        "  NoCache flat: {} (lo {nocache_lo} hi {nocache_hi})",
        nocache_lo == nocache_hi
    );
    let points = sweep.iter().map(
        |(n_updates, reports)| json!({ "n_updates": *n_updates, "reports": reports.to_json() }),
    );
    Value::Array(points.collect())
}

/// Fig. 8(b): VCover's traffic as the same sky is re-partitioned at the
/// paper's HTM-derived object counts. Paper: better as objects shrink
/// until ~91, then worse as queries stop fitting inside single objects.
fn fig8b(run: &Run) -> Value {
    let mut points = Vec::new();
    for target in [10usize, 20, 68, 91, 134, 285, 532] {
        let mut cfg = run.cfg.clone();
        cfg.target_objects = target.max(8);
        let survey = SyntheticSurvey::generate(&cfg);
        let opts =
            SimOptions::with_cache_fraction(&survey.catalog, 0.3, cfg.n_events() as u64 / 200);
        let mut vcover = VCover::new(opts.cache_bytes, cfg.seed);
        let report = simulate(&mut vcover, &survey.catalog, &survey.trace, opts);
        println!(
            "objects {:>4} (target {:>3}): total {:>12}  hit {:>5.1}%  loads {:>3}  evictions {:>3}",
            survey.catalog.len(),
            target,
            report.total().to_string(),
            report.ledger.hit_rate() * 100.0,
            report.ledger.loads,
            report.ledger.evictions
        );
        points.push((target, survey.catalog.len(), report));
    }

    println!("\nFig 8(b): VCover final traffic (GB) vs object granularity");
    println!("{:>8} {:>8} {:>12}", "objects", "actual", "total GB");
    for (target, actual, report) in &points {
        let gb = report.total().bytes() as f64 / 1e9;
        println!("{target:>8} {actual:>8} {gb:>12.1}");
    }
    let (_, best, _) = points
        .iter()
        .min_by_key(|(_, _, r)| r.total().bytes())
        .expect("non-empty sweep");
    println!(
        "\nbest granularity: ~{best} objects (paper: improvement until ~91, then slight worsening)"
    );
    let points = points.iter().map(|(target, actual, report)| {
        json!({ "target_objects": *target, "actual_objects": *actual, "report": report.to_json() })
    });
    Value::Array(points.collect())
}

/// Theorem 1 in hindsight: on SOptimal's static set, how much cheaper is
/// the exact min-weight vertex-cover shipping plan than SOptimal's
/// ship-every-update, and how close does online VCover get to both?
fn hindsight(run: &Run) -> Value {
    let (catalog, trace) = (&run.survey.catalog, &run.survey.trace);
    let opts = run.opts(0.3, 200);
    let mut sopt = SOptimal::plan(catalog, trace, opts.cache_bytes);
    let chosen = sopt.chosen().clone();
    let sopt_run = run.sim(&mut sopt, opts);
    eprintln!(
        "solving the hindsight vertex cover ({} cached objects)...",
        chosen.len()
    );
    let hind = hindsight_decoupling(catalog, trace, &chosen);
    let vc_run = run.sim(&mut VCover::new(opts.cache_bytes, run.cfg.seed), opts);

    let (un, qn, en) = hind.graph_size;
    println!(
        "\n=== Theorem 1 in hindsight (static set = SOptimal's, {} objects) ===",
        chosen.len()
    );
    println!("interaction graph solved: {un} update nodes, {qn} query nodes, {en} edges");
    println!(
        "\n{:<22} {:>12} {:>14} {:>14} {:>12}",
        "plan", "total", "query-ship", "update-ship", "load"
    );
    let (sb, vb) = (&sopt_run.ledger.breakdown, &vc_run.ledger.breakdown);
    let hind_query = hind.forced_query + hind.cover_query;
    for (plan, costs) in [
        (
            "SOptimal (simulated)",
            [sopt_run.total(), sb.query_ship, sb.update_ship, sb.load],
        ),
        (
            "Hindsight MWVC",
            [hind.total(), hind_query, hind.cover_update, hind.load],
        ),
        (
            "VCover (online)",
            [vc_run.total(), vb.query_ship, vb.update_ship, vb.load],
        ),
    ] {
        let [total, query, update, load] = costs.map(|c| c.to_string());
        println!("{plan:<22} {total:>12} {query:>14} {update:>14} {load:>12}");
    }

    let (s, h, v) = (
        sopt_run.total().bytes(),
        hind.total().bytes(),
        vc_run.total().bytes(),
    );
    println!("\nshape checks:");
    println!(
        "  SOptimal / Hindsight = {:.3}  (expected: >= 1; Theorem 1 can only help)",
        factor(s, h)
    );
    println!(
        "  VCover / Hindsight   = {:.2}  (the online algorithm's true competitive gap)",
        factor(v, h)
    );
    assert!(
        h <= s,
        "Theorem 1 violated: hindsight cover costs more than ship-every-update"
    );
    json!({
        "soptimal_total": s,
        "hindsight_total": h,
        "vcover_total": v,
        "graph": { "updates": un, "queries": qn, "edges": en },
    })
}

/// Preshipping (§4 discussion): sending updates for hot resident objects
/// at arrival time should shrink VCover's response-time tail on a WAN
/// link at a small traffic premium.
fn preship(run: &Run) -> Value {
    let opts = run.opts(0.3, 200).with_link(LinkModel::wan());
    let vcover = || VCover::new(opts.cache_bytes, run.cfg.seed);
    let mut preship = Preship::new(vcover(), PreshipConfig::default());
    let policies: [&mut dyn CachingPolicy; 3] = [&mut NoCache, &mut vcover(), &mut preship];
    let reports: Vec<SimReport> = policies.into_iter().map(|p| run.sim(p, opts)).collect();
    let (pre_ranges, pre_bytes) = preship.preshipped();
    let latency = |r: &SimReport| r.latency.expect("link was configured");

    println!("\n=== Preshipping: traffic vs response time (WAN link) ===");
    println!(
        "{:<17} {:>12} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "policy", "traffic", "hit%", "mean", "p50", "p95", "p99"
    );
    for r in &reports {
        let l = latency(r);
        println!(
            "{:<17} {:>12} {:>7.1}% {:>8.0}ms {:>8.0}ms {:>8.0}ms {:>8.0}ms",
            r.policy,
            r.total().to_string(),
            r.ledger.hit_rate() * 100.0,
            l.mean_secs * 1e3,
            l.p50_secs * 1e3,
            l.p95_secs * 1e3,
            l.p99_secs * 1e3,
        );
    }
    println!(
        "\npreshipped: {pre_ranges} update ranges, {:.2} GB",
        pre_bytes as f64 / 1e9
    );

    let (vc, ps) = (find(&reports, "VCover"), find(&reports, "Preship(VCover)"));
    let (vl, pl) = (latency(vc), latency(ps));
    println!("\nshape checks:");
    println!(
        "  p99 Preship / p99 VCover       = {:.2}  (expected: < 1, tail shrinks)",
        pl.p99_secs / vl.p99_secs.max(1e-12)
    );
    println!(
        "  traffic Preship / traffic VCover = {:.3}  (expected: >= 1, small premium)",
        ps.total().bytes() as f64 / vc.total().bytes().max(1) as f64
    );
    reports.to_json()
}

/// VCover's design choices, at a tight cache (2% of the server) so
/// eviction matters — with room to spare the bypass gate admits so few
/// objects that every A_obj behaves alike:
///
/// 1. **A_obj** — GDS (the paper's) vs LRU / LFU / GDSF / FIFO;
/// 2. **admission gate** — randomized bypass vs the deterministic
///    per-object counter of \[24\] it replaces vs load-on-first-touch,
///    which §4 rejects ("an object is loaded as soon as it is requested.
///    Such a loading policy can cause too much network traffic").
fn ablation(run: &Run) -> Value {
    use AdmissionMode::{Bypass, Counter, FirstTouch};
    let opts = run.opts(0.02, 100);
    let (c, s) = (opts.cache_bytes, run.cfg.seed);
    let variants = [
        ("bypass + GDS (paper)", vcover(Gds::new(c), s, Bypass)),
        ("bypass + LRU", vcover(Lru::new(c), s, Bypass)),
        ("bypass + LFU", vcover(Lfu::new(c), s, Bypass)),
        ("bypass + GDSF", vcover(Gdsf::new(c), s, Bypass)),
        ("bypass + FIFO", vcover(Fifo::new(c), s, Bypass)),
        ("counter + GDS", vcover(Gds::new(c), s, Counter)),
        ("first-touch + GDS", vcover(Gds::new(c), s, FirstTouch)),
    ];
    let rows = variants.map(|(variant, mut p)| (variant, run.sim(&mut *p, opts)));

    let reports: Vec<SimReport> = rows.iter().map(|(_, r)| r.clone()).collect();
    print_reports(
        "VCover ablation (cache = 2% of server)",
        run.warmup,
        &reports,
    );
    println!();
    for (variant, r) in &rows {
        println!(
            "{:<22} total {:>12}  post-warm-up {:>12}  loads {:>5}  evictions {:>5}",
            variant,
            r.total().to_string(),
            r.cost_after(run.warmup).to_string(),
            r.ledger.loads,
            r.ledger.evictions
        );
    }
    println!(
        "\nexpected: first-touch loading thrashes (the §4 argument for bypass \
         admission); GDS ≳ LRU ≳ LFU for A_obj; the deterministic counter \
         gate tracks bypass in expectation (it trades away the randomized \
         rule's variance for per-object metadata, which is why the paper \
         randomizes)."
    );
    let rows = rows
        .iter()
        .map(|(variant, r)| json!({ "variant": *variant, "report": r.to_json() }));
    Value::Array(rows.collect())
}

/// VCover with A_obj `policy` behind admission gate `mode`.
fn vcover<P: ReplacementPolicy + 'static>(
    policy: P,
    seed: u64,
    mode: AdmissionMode,
) -> Box<dyn CachingPolicy> {
    Box::new(VCover::with_policy_and_mode(policy, seed, mode))
}
