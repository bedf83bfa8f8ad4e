//! Regenerates the paper's §6 figures: prints each experiment's tables
//! and writes `<name>_<scale>.json` under `--out DIR` (default
//! `results/`). Runs the named experiments, or all of them, in
//! [`EXPERIMENTS`] order.
//!
//! ```sh
//! cargo run --release -p delta_bench --bin figures -- --scale paper fig7b fig8a
//! ```

use delta_bench::figures::{Run, EXPERIMENTS};
use delta_bench::{cli_or_exit, results_dir, write_json};

fn main() {
    let names = EXPERIMENTS.map(|(name, _)| name);
    let usage = format!(
        "figures [--scale small|paper] [--out DIR] [{}]...",
        names.join("|")
    );
    let cli = cli_or_exit(&usage, false, &names);
    let out = cli.out.unwrap_or_else(results_dir);
    let run = Run::new(cli.scale);
    for (name, experiment) in EXPERIMENTS {
        if cli.names.is_empty() || cli.names.iter().any(|n| n == name) {
            eprintln!("running {name}...");
            let file = format!("{name}_{}.json", run.scale.label());
            write_json(&out, &file, &experiment(&run));
        }
    }
}
