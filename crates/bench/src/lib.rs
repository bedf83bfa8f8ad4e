//! # delta-bench — figure regeneration harness
//!
//! One runner for the figures of the paper's evaluation (§6), plus
//! criterion microbenchmarks for the algorithmic substrates no figure
//! exercises. The `figures` binary prints the series the paper plots and
//! writes one pretty JSON artifact per experiment, `<name>_<scale>.json`,
//! under `--out DIR` (default `results/` under the current directory).
//! Serving-path performance is measured by the separate `benchmark/`
//! package, not here.
//!
//! | artifact | `figures` experiment | criterion bench |
//! |---|---|---|
//! | §6 headline (half traffic at 1/5 cache) | `headline` | — |
//! | Fig. 7(a) object-ID scatter | `fig7a` | — |
//! | Fig. 7(b) cumulative traffic | `fig7b` | — |
//! | Fig. 8(a) traffic vs #updates | `fig8a` | — |
//! | Fig. 8(b) granularity sweep | `fig8b` | — |
//! | E10 Theorem-1 hindsight optimum | `hindsight` | — |
//! | E8 preshipping (latency vs traffic, §4) | `preship` | — |
//! | E11 A_obj / admission ablations | `ablation` | `policy_throughput` |
//! | §4 incremental max-flow complexity | — | `flow_incremental` |
//! | SQL frontend (§4 semantic framework) | — | `query_compile` |
//!
//! `figures` and `tracegen` accept `--scale paper` (the full 500k-event
//! §6.1 setup) and default to a 10×-smaller `--scale small` with
//! identical byte ratios.

pub mod figures;

use delta_core::SimReport;
use std::path::{Path, PathBuf};

/// Scale of a figure run, selectable with `--scale {paper,small}`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Full §6.1 scale: 250k queries + 250k updates over 800 GB.
    Paper,
    /// Seconds-not-minutes scale for CI and quick iteration.
    Small,
}

impl Scale {
    /// The scale named `s` (`paper` or `small`, any case).
    pub fn parse(s: &str) -> Option<Scale> {
        [Scale::Paper, Scale::Small]
            .into_iter()
            .find(|scale| scale.label().eq_ignore_ascii_case(s))
    }

    /// The workload configuration for this scale.
    pub fn config(self) -> delta_workload::WorkloadConfig {
        match self {
            Scale::Paper => delta_workload::WorkloadConfig::sdss_like(),
            Scale::Small => {
                let mut cfg = delta_workload::WorkloadConfig::sdss_like();
                // Keep the paper's byte ratios but 10x fewer events, so a
                // laptop run takes seconds. Hotspot drift scales with the
                // query count.
                cfg.n_queries = 25_000;
                cfg.n_updates = 25_000;
                cfg.drift_interval = 900;
                cfg
            }
        }
    }

    /// Label used in output files.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Paper => "paper",
            Scale::Small => "small",
        }
    }
}

/// A parsed `figures` or `tracegen` command line.
#[derive(Debug, PartialEq)]
pub struct Cli {
    /// `--scale small|paper`; `Small` when absent.
    pub scale: Scale,
    /// `--out PATH`.
    pub out: Option<PathBuf>,
    /// `--inspect PATH` (`tracegen` only).
    pub inspect: Option<PathBuf>,
    /// Bare words, each one of the caller's allowed names.
    pub names: Vec<String>,
}

/// Parses `args` (program name excluded) strictly: `--scale`, `--out`,
/// `--inspect` if `allow_inspect`, and bare words drawn from `names`.
/// An unknown flag, scale or name, or a flag missing its value, is an
/// error naming the offending word.
pub fn parse_cli(args: &[String], allow_inspect: bool, names: &[&str]) -> Result<Cli, String> {
    let mut cli = Cli {
        scale: Scale::Small,
        out: None,
        inspect: None,
        names: Vec::new(),
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--scale" => {
                let s = value()?;
                cli.scale = Scale::parse(s).ok_or(format!("unknown scale {s:?}"))?;
            }
            "--out" => cli.out = Some(PathBuf::from(value()?)),
            "--inspect" if allow_inspect => cli.inspect = Some(PathBuf::from(value()?)),
            name if names.contains(&name) => cli.names.push(name.to_string()),
            other if other.starts_with('-') => return Err(format!("unknown flag {other:?}")),
            other => return Err(format!("unknown name {other:?}")),
        }
    }
    Ok(cli)
}

/// [`parse_cli`] over this process's arguments; on error prints the
/// error and `usage` to stderr and exits 2.
pub fn cli_or_exit(usage: &str, allow_inspect: bool, names: &[&str]) -> Cli {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse_cli(&args, allow_inspect, names).unwrap_or_else(|e| {
        eprintln!("error: {e}\nusage: {usage}");
        std::process::exit(2)
    })
}

/// Default output directory: `results/` under the current directory,
/// created on demand. Run from the workspace root, that is the root's
/// `results/`; run anywhere else, the binary writes there, not into the
/// tree it was built from.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from("results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Writes an artifact as pretty JSON to `dir/name`, creating `dir`.
pub fn write_json(dir: &Path, name: &str, value: &serde_json::Value) {
    std::fs::create_dir_all(dir).expect("create output dir");
    let path = dir.join(name);
    std::fs::write(&path, value.to_json_string_pretty()).expect("write artifact");
    eprintln!("wrote {}", path.display());
}

/// Prints the standard per-policy summary table.
pub fn print_reports(title: &str, warmup_cutoff: u64, reports: &[SimReport]) {
    println!("\n=== {title} ===");
    println!(
        "{:<9} {:>12} {:>14} {:>12} {:>12} {:>12} {:>7} {:>7} {:>6} {:>6}",
        "policy",
        "total",
        "post-warmup",
        "query-ship",
        "update-ship",
        "load",
        "hit%",
        "tol-srv",
        "loads",
        "evict"
    );
    for r in reports {
        let b = &r.ledger.breakdown;
        println!(
            "{:<9} {:>12} {:>14} {:>12} {:>12} {:>12} {:>6.1}% {:>7} {:>6} {:>6}",
            r.policy,
            r.total().to_string(),
            r.cost_after(warmup_cutoff).to_string(),
            b.query_ship.to_string(),
            b.update_ship.to_string(),
            b.load.to_string(),
            r.ledger.hit_rate() * 100.0,
            r.metrics.tolerance_served,
            r.ledger.loads,
            r.ledger.evictions,
        );
    }
}

/// Ratio of two byte totals as a printable factor.
pub fn factor(a: u64, b: u64) -> f64 {
    if b == 0 {
        f64::INFINITY
    } else {
        a as f64 / b as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scale_keeps_ratios() {
        let paper = Scale::Paper.config();
        let small = Scale::Small.config();
        assert_eq!(paper.total_bytes, small.total_bytes);
        assert_eq!(paper.mean_result_bytes, small.mean_result_bytes);
        assert_eq!(small.n_queries, paper.n_queries / 10);
    }

    #[test]
    fn factor_handles_zero() {
        assert_eq!(factor(10, 0), f64::INFINITY);
        assert!((factor(10, 5) - 2.0).abs() < 1e-12);
    }

    fn parse(line: &str, allow_inspect: bool) -> Result<Cli, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_cli(&args, allow_inspect, &["fig7a", "fig8b"])
    }

    #[test]
    fn cli_accepts_flags_and_names() {
        let none = parse("", false).unwrap();
        assert_eq!(
            (none.scale, none.out, none.names.len()),
            (Scale::Small, None, 0)
        );

        let cli = parse("--scale paper --out figs fig8b fig7a", false).unwrap();
        assert_eq!(cli.scale, Scale::Paper);
        assert_eq!(cli.out, Some(PathBuf::from("figs")));
        assert_eq!(cli.names, ["fig8b", "fig7a"]);
        assert_eq!(parse("--scale PAPER", false).unwrap().scale, Scale::Paper);

        let cli = parse("--inspect t.jsonl", true).unwrap();
        assert_eq!(cli.inspect, Some(PathBuf::from("t.jsonl")));
    }

    #[test]
    fn cli_rejects_typos_and_missing_values() {
        for (line, err) in [
            ("--scale=paper", "unknown flag \"--scale=paper\""),
            ("--scale full", "unknown scale \"full\""),
            ("--bogus", "unknown flag \"--bogus\""),
            ("fig9", "unknown name \"fig9\""),
            ("--scale", "--scale needs a value"),
            ("fig7a --out", "--out needs a value"),
            ("--inspect t.jsonl", "unknown flag \"--inspect\""),
        ] {
            assert_eq!(parse(line, false), Err(err.to_string()), "{line}");
        }
    }
}
