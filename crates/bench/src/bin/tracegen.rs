//! Trace tooling: generate a synthetic SDSS-like survey trace and write
//! it as a self-contained JSONL artifact, or inspect an existing one.
//!
//! ```sh
//! # generate (defaults: small scale, results/trace_small.jsonl)
//! cargo run --release -p delta_bench --bin tracegen -- --scale paper --out results/trace_paper.jsonl
//!
//! # inspect any trace file (stats + Fig 7(a)-style hotspots)
//! cargo run --release -p delta_bench --bin tracegen -- --inspect results/trace_paper.jsonl
//! ```
//!
//! Written traces replay byte-identically through the simulator, so any
//! figure can be regenerated from the artifact without re-running the
//! generator — the reproduction's equivalent of publishing the trace.

use delta_bench::{cli_or_exit, results_dir};
use delta_workload::{read_jsonl_with_header, write_jsonl, MixStats, SyntheticSurvey, TraceStats};
use std::path::PathBuf;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cli = cli_or_exit(
        "tracegen [--scale small|paper] [--out FILE] | tracegen --inspect FILE",
        true,
        &[],
    );
    if let Some(path) = cli.inspect {
        return inspect(path);
    }

    let scale = cli.scale;
    let cfg = scale.config();
    let out = cli
        .out
        .unwrap_or_else(|| results_dir().join(format!("trace_{}.jsonl", scale.label())));

    eprintln!("generating survey ({} events)...", cfg.n_events());
    let survey = SyntheticSurvey::generate(&cfg);
    write_jsonl(
        &out,
        &survey.catalog,
        &survey.trace,
        &format!(
            "SDSS-like synthetic survey, scale={}, seed={}, {} objects",
            scale.label(),
            cfg.seed,
            survey.catalog.len()
        ),
    )?;
    println!(
        "wrote {} ({} events, {} objects, {:.1} GB queries / {:.1} GB updates)",
        out.display(),
        survey.trace.len(),
        survey.catalog.len(),
        survey.trace.total_query_bytes() as f64 / 1e9,
        survey.trace.total_update_bytes() as f64 / 1e9,
    );
    Ok(())
}

fn inspect(path: PathBuf) -> Result<(), Box<dyn std::error::Error>> {
    let (catalog, trace, header) = read_jsonl_with_header(&path)?;
    println!("trace: {}", path.display());
    println!("  description : {}", header.description);
    println!("  objects     : {}", catalog.len());
    println!(
        "  events      : {} ({} queries, {} updates)",
        trace.len(),
        trace.n_queries(),
        trace.n_updates()
    );
    println!(
        "  query bytes : {:.2} GB (NoCache cost)",
        trace.total_query_bytes() as f64 / 1e9
    );
    println!(
        "  update bytes: {:.2} GB (Replica cost)",
        trace.total_update_bytes() as f64 / 1e9
    );

    let stats = TraceStats::compute(&trace, catalog.len());
    println!(
        "  query hotspots (top 6 object-IDs) : {:?}",
        stats.top_query_objects(6)
    );
    println!(
        "  update hotspots (top 6 object-IDs): {:?}",
        stats.top_update_objects(6)
    );
    println!(
        "  hotspot overlap (Jaccard, k=6)    : {:.2}",
        stats.hotspot_overlap(6)
    );
    let mix = MixStats::compute(&trace);
    println!(
        "  query mix (cone/range/join/agg/scan/sel): {:?}",
        mix.kind_counts
    );
    println!(
        "  result sizes: p50 {:.1} KB, p90 {:.1} KB, p99 {:.1} MB, max {:.1} MB (tail p99/p50 = {:.0}x)",
        mix.result_p50 as f64 / 1e3,
        mix.result_p90 as f64 / 1e3,
        mix.result_p99 as f64 / 1e6,
        mix.result_max as f64 / 1e6,
        mix.tail_ratio(),
    );
    println!(
        "  mean B(q) fan-out: {:.2} objects; zero-tolerance queries: {:.0}%",
        mix.mean_fanout,
        mix.zero_tolerance_frac * 100.0
    );
    Ok(())
}
