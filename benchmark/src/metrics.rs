//! Metric records, the order statistics they are built from, the
//! process counters (`/proc/self`) and the result line.

use serde_json::Value;

/// One named measurement. `value` is `None` when the layer is not on
/// the workload's path or the instrument does not exist (the result
/// line prints 0 for it; the table prints `n/a`).
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: Option<f64>,
    /// Samples the value rests on (0 when it is not a statistic).
    pub samples: u64,
}

/// An ordered metric list with a terse builder.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &str, unit: &'static str, value: f64, samples: u64) {
        self.0.push(Metric {
            name: name.to_string(),
            unit,
            value: value.is_finite().then_some(value),
            samples,
        });
    }

    pub fn missing(&mut self, name: &str, unit: &'static str) {
        self.0.push(Metric {
            name: name.to_string(),
            unit,
            value: None,
            samples: 0,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).and_then(|m| m.value)
    }

    /// The table a person reads.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for m in &self.0 {
            let value = match m.value {
                Some(v) => format!("{v:>16.4}"),
                None => format!("{:>16}", "n/a"),
            };
            let samples = if m.samples > 0 {
                format!("  (n={})", m.samples)
            } else {
                String::new()
            };
            out.push_str(&format!(
                "  {:<40} {value} {:<9}{samples}\n",
                m.name, m.unit
            ));
        }
        out
    }

    fn to_json(&self) -> Value {
        Value::Object(
            self.0
                .iter()
                .map(|m| {
                    (
                        m.name.clone(),
                        Value::Object(vec![
                            ("value".into(), Value::Float(m.value.unwrap_or(0.0))),
                            ("unit".into(), Value::String(m.unit.into())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// The last line of a workload run's standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::UInt(attempted)),
        ("failed".into(), Value::UInt(failed)),
        ("metrics".into(), metrics.to_json()),
    ])
    .to_json_string()
}

/// Parses a result line back into `(correct, name -> value)`.
pub fn parse_result_line(line: &str) -> Option<(bool, Vec<(String, f64)>)> {
    let v = serde_json::from_str_value(line).ok()?;
    let correct = v.get("correct")?.as_bool()?;
    let Value::Object(members) = v.get("metrics")? else {
        return None;
    };
    let values = members
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Some((correct, values))
}

/// The `q`-quantile (nearest rank) of an unsorted sample; 0 when empty.
pub fn quantile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    *samples.select_nth_unstable(rank - 1).1
}

/// Median of a float sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Process CPU time (user + system, every thread) in seconds.
///
/// Read from `/proc/self/stat` fields 14 and 15, which the kernel
/// reports in `USER_HZ` ticks; `USER_HZ` is 100 on every Linux ABI Rust
/// supports, and std offers no `sysconf` to ask.
pub fn cpu_seconds() -> f64 {
    const USER_HZ: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let after = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
    let mut fields = after.split_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    (utime + stime) / USER_HZ
}

/// Peak resident set size (`VmHWM`) in megabytes.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), (1.5, 12.0));
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut v, 0.50), 50);
        assert_eq!(quantile(&mut v, 0.99), 99);
        assert_eq!(quantile(&mut v, 1.0), 100);
        assert_eq!(quantile(&mut [], 0.5), 0);
    }

    #[test]
    fn result_line_round_trips_and_prints_zero_for_missing() {
        let mut m = Metrics::default();
        m.put("closed_eps", "events/s", 123456.789, 1000);
        m.missing("router.fanout_p50_ns", "ns");
        let line = result_line(true, 10, 0, &m);
        let (correct, values) = parse_result_line(&line).unwrap();
        assert!(correct);
        assert_eq!(values[0], ("closed_eps".to_string(), 123456.789));
        assert_eq!(values[1], ("router.fanout_p50_ns".to_string(), 0.0));
    }

    #[test]
    fn proc_counters_read() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }
}
