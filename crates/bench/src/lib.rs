//! # delta-bench — figure regeneration harness
//!
//! One binary per figure of the paper's evaluation (§6), plus criterion
//! microbenchmarks for the algorithmic substrates no binary exercises.
//! Binaries print the series the paper plots and write machine-readable
//! JSON under `results/` at the repository root. Serving-path performance
//! is measured by the separate `benchmark/` package, not here.
//!
//! | artifact | binary | criterion bench |
//! |---|---|---|
//! | Fig. 7(a) object-ID scatter | `fig7a` | — |
//! | Fig. 7(b) cumulative traffic | `fig7b` | — |
//! | Fig. 8(a) traffic vs #updates | `fig8a` | — |
//! | Fig. 8(b) granularity sweep | `fig8b` | — |
//! | §6 headline (half traffic at 1/5 cache) | `headline` | — |
//! | E8 preshipping (latency vs traffic, §4) | `preship` | — |
//! | E10 Theorem-1 hindsight optimum | `hindsight` | — |
//! | E11 A_obj / admission ablations | `ablation` | `policy_throughput` |
//! | §4 incremental max-flow complexity | — | `flow_incremental` |
//! | SQL frontend (§4 semantic framework) | — | `query_compile` |
//!
//! All binaries accept `--scale paper` (the full 500k-event §6.1 setup)
//! and default to a 10×-smaller `--scale small` with identical byte
//! ratios.

use delta_core::SimReport;
use std::path::PathBuf;

/// Scale of a figure run, selectable with `--scale {paper,small}`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Full §6.1 scale: 250k queries + 250k updates over 800 GB.
    Paper,
    /// Seconds-not-minutes scale for CI and quick iteration.
    Small,
}

impl Scale {
    /// Parses `--scale` from argv; defaults to `Small` so casual runs are
    /// quick (pass `--scale paper` to regenerate the real figures).
    pub fn from_args() -> Scale {
        let args: Vec<String> = std::env::args().collect();
        for w in args.windows(2) {
            if w[0] == "--scale" && w[1].eq_ignore_ascii_case("paper") {
                return Scale::Paper;
            }
        }
        Scale::Small
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

/// Directory where binaries drop their JSON series: `results/` under the
/// current directory, created on demand. Run from the workspace root,
/// that is the root's `results/`; run anywhere else, the binary writes
/// there, not into the tree it was built from.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from("results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Writes a serializable artifact as pretty JSON under `results/`.
pub fn write_json<T: serde_json::ToJson>(name: &str, value: &T) {
    let path = results_dir().join(name);
    let json = serde_json::to_string_pretty(value).expect("serialize artifact");
    std::fs::write(&path, json).expect("write artifact");
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
}
