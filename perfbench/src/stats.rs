//! Sample statistics and the result line.

use std::fmt::Write as _;

/// Nearest-rank percentile `q` (0 < q < 1) of `samples`.
///
/// Refuses samples too few to support the percentile: at least ten samples
/// must lie beyond it, so p50 needs 20 samples and p90 needs 100.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    assert!(q > 0.0 && q < 1.0, "percentile {q} outside (0, 1)");
    let n = samples.len();
    // The tolerance keeps float error in `q × n` from moving the rank.
    let rank = ((q * n as f64) - 1e-9).ceil().max(1.0) as usize;
    let beyond = n.saturating_sub(rank);
    if beyond < 10 {
        return Err(format!(
            "p{:.0} needs at least 10 samples beyond it; {n} samples leave {beyond}",
            q * 100.0
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of nothing");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Mean, or 0 for an empty sample (a layer the workload never reaches).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One named metric with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric { name: name.into(), value, unit }
    }
}

/// Renders the result line:
/// `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
/// Values keep every digit Rust's shortest round-trip formatting gives.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out =
        format!(r#"{{"correct":{correct},"attempted":{attempted},"failed":{failed},"metrics":{{"#);
    for (i, m) in metrics.iter().enumerate() {
        assert!(m.value.is_finite(), "metric {} is not finite: {}", m.name, m.value);
        if i > 0 {
            out.push(',');
        }
        // Metric names and units are plain identifiers: no escaping needed.
        write!(out, r#""{}":{{"value":{:?},"unit":"{}"}}"#, m.name, m.value, m.unit)
            .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_refuse_too_few_samples() {
        let nineteen: Vec<f64> = (0..19).map(f64::from).collect();
        assert!(percentile(&nineteen, 0.5).unwrap_err().contains("p50"));
        let twenty: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(percentile(&twenty, 0.5).unwrap(), 9.0);
        let ninety_nine: Vec<f64> = (0..99).map(f64::from).collect();
        assert!(percentile(&ninety_nine, 0.9).unwrap_err().contains("p90"));
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.9).unwrap(), 90.0);
    }

    #[test]
    fn median_mean_and_ratio() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(
            true,
            3,
            0,
            &[Metric::new("latency_p50_ms", 1.25, "ms"), Metric::new("setup_s", 0.5, "s")],
        );
        let v = serde_json::from_str(&line).unwrap();
        assert_eq!(v.get("attempted").and_then(serde::Value::as_u64), Some(3));
        let m = v.get("metrics").unwrap().get("latency_p50_ms").unwrap();
        assert_eq!(m.get("value").and_then(serde::Value::as_f64), Some(1.25));
        assert_eq!(m.get("unit").and_then(serde::Value::as_str), Some("ms"));
    }
}
