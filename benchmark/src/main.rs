//! The Delta benchmark. See README.md for what it measures and why.
//!
//! ```text
//! delta_benchmark --workload NAME --seed S --seconds T --trace 0|1
//! delta_benchmark [--seed S] [--seconds T] [--quick]      # every workload, untraced then traced
//! delta_benchmark --repeat N [--workload NAME]            # repeatability of the end-to-end metrics
//! delta_benchmark --list
//! ```

mod layers;
mod metrics;
mod oracle;
mod run;
mod spec;
mod topology;
mod wire;
mod workload;

use metrics::{median, parse_result_line, quartiles};
use run::Options;
use std::process::{Command, ExitCode};
use std::time::Duration;

/// The seed a bare invocation uses. README names the held-out seed that
/// must never be used while developing a change.
const DEFAULT_SEED: u64 = 20_100_607;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    traced: bool,
    quick: bool,
    repeat: Option<usize>,
    list: bool,
}

fn usage() -> String {
    "usage: delta_benchmark [--workload NAME] [--seed N] [--seconds 1..60] [--trace 0|1 | --traced] \
     [--quick] [--repeat N] [--list]"
        .to_string()
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: spec::NOMINAL_SECONDS,
        traced: false,
        quick: false,
        repeat: None,
        list: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or("--seconds takes a whole number from 1 to 60")?
            }
            "--trace" => {
                args.traced = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--traced" => args.traced = true,
            "--quick" => args.quick = true,
            "--repeat" => {
                args.repeat = Some(
                    value("--repeat")?
                        .parse()
                        .ok()
                        .filter(|&n| n >= 2)
                        .ok_or("--repeat takes a count of at least 2")?,
                )
            }
            "--list" => args.list = true,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    if let Some(name) = &args.workload {
        if spec::by_name(name).is_none() {
            return Err(format!("unknown workload {name:?}; see --list"));
        }
    }
    Ok(args)
}

/// Fails the run instead of letting it hang: five times what the run
/// takes on the reference box, and inside the driver's 180 s limit.
fn arm_watchdog(seconds: u64, traced: bool) {
    let nominal = 15 + seconds + if traced { 10 } else { 0 };
    let limit = Duration::from_secs((5 * nominal).min(175));
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("benchmark: run exceeded its {limit:?} hard timeout");
        std::process::exit(3);
    });
}

/// One workload in this process. The last line of standard output is
/// the result object.
fn run_one(args: &Args, name: &str) -> ExitCode {
    let spec = spec::by_name(name).expect("validated by parse_args");
    let spec = if args.quick { spec.quick() } else { spec };
    arm_watchdog(args.seconds, args.traced);
    let opts = Options {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        quick: args.quick,
    };
    let report = match run::run(&spec, &opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("benchmark: {name}: {e}");
            return ExitCode::from(1);
        }
    };
    let kind = if args.traced {
        "per-layer"
    } else {
        "end-to-end"
    };
    println!(
        "{name} · seed {} · {} s · {kind} metrics · {} events attempted, {} failed",
        args.seed, args.seconds, report.attempted, report.failed
    );
    print!("{}", report.metrics.render());
    for problem in &report.problems {
        eprintln!("benchmark: {name}: {problem}");
    }
    println!("{}", report.result_line());
    if report.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// A child's parsed result object: `correct` and the metric values.
type ResultLine = (bool, Vec<(String, f64)>);

/// Runs one workload in a child process of this binary (so CPU time and
/// `VmHWM` are the workload's own), echoes its output and returns its
/// parsed result line.
fn run_child(args: &Args, name: &str, traced: bool) -> Option<ResultLine> {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    let output = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("spawn own executable");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (table, line) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    println!("{table}");
    let parsed = parse_result_line(line);
    if !output.status.success() {
        eprintln!("benchmark: {name} exited with {}", output.status);
        return parsed.map(|(_, values)| (false, values));
    }
    parsed
}

fn selected(args: &Args) -> Vec<String> {
    match &args.workload {
        Some(name) => vec![name.clone()],
        None => spec::all().iter().map(|s| s.name.to_string()).collect(),
    }
}

/// Every workload, untraced then traced; ends with a one-line summary.
fn run_all(args: &Args) -> ExitCode {
    let mut failed = Vec::new();
    for name in selected(args) {
        let untraced = run_child(args, &name, false);
        let traced = run_child(args, &name, true);
        let value = |run: &Option<ResultLine>, metric: &str| {
            run.as_ref()
                .and_then(|(_, v)| v.iter().find(|(n, _)| n == metric))
                .map(|(_, v)| *v)
        };
        if let (Some(plain), Some(spanned)) = (
            value(&untraced, "closed_eps"),
            value(&traced, "client.closed_eps"),
        ) {
            println!(
                "  {name}: traced closed_eps {spanned:.0} vs untraced {plain:.0} ({:+.2} %)\n",
                (spanned / plain - 1.0) * 100.0
            );
        }
        let ok = |run: &Option<ResultLine>| run.as_ref().is_some_and(|r| r.0);
        if !(ok(&untraced) && ok(&traced)) {
            failed.push(name);
        }
    }
    println!(
        "{{\"workloads\": {}, \"failed\": {:?}, \"claim\": null}}",
        selected(args).len(),
        failed
    );
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// `--repeat N`: N untraced runs per workload at one seed; median,
/// quartiles and the largest relative deviation from the median of
/// every end-to-end metric.
fn repeat(args: &Args, n: usize) -> ExitCode {
    let mut all_ok = true;
    for name in selected(args) {
        let mut series: Vec<(String, Vec<f64>)> = Vec::new();
        for _ in 0..n {
            let Some((ok, values)) = run_child(args, &name, false) else {
                all_ok = false;
                continue;
            };
            all_ok &= ok;
            for (metric, v) in values {
                match series.iter_mut().find(|(m, _)| *m == metric) {
                    Some((_, vs)) => vs.push(v),
                    None => series.push((metric, vec![v])),
                }
            }
        }
        println!("{name}: {n} runs at seed {}", args.seed);
        println!(
            "  {:<26} {:>14} {:>14} {:>14} {:>9} {:>9}",
            "metric", "median", "q1", "q3", "iqr/med", "max dev"
        );
        for (metric, values) in &series {
            let med = median(values);
            let (q1, q3) = quartiles(values);
            let max_dev = values
                .iter()
                .map(|v| (v - med).abs() / med.abs())
                .fold(0.0, f64::max);
            println!(
                "  {metric:<26} {med:>14.4} {q1:>14.4} {q3:>14.4} {:>9.4} {max_dev:>9.4}",
                (q3 - q1) / med.abs()
            );
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        for spec in spec::all() {
            println!("{:<18} {}", spec.name, spec.why);
        }
        return ExitCode::SUCCESS;
    }
    match (args.repeat, &args.workload) {
        (Some(n), _) => repeat(&args, n),
        (None, Some(name)) => run_one(&args, name),
        (None, None) => run_all(&args),
    }
}
