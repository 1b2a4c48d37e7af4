//! Text-report formatting: geometric means, aligned tables, and profile
//! curve printing shared by the figure/table binaries.

use crate::profiles::ProfilePoint;
use crate::runner::Measurement;
use std::collections::BTreeMap;

/// Geometric mean of positive values (the aggregate the paper reports).
pub fn geometric_mean(values: &[f64]) -> f64 {
    gpm_graph::stats::geometric_mean(values)
}

/// Groups measurements by algorithm label, preserving instance order.
pub fn by_algorithm(measurements: &[Measurement]) -> BTreeMap<String, Vec<&Measurement>> {
    let mut map: BTreeMap<String, Vec<&Measurement>> = BTreeMap::new();
    for m in measurements {
        map.entry(m.algorithm.clone()).or_default().push(m);
    }
    map
}

/// Distinct algorithm labels in measurement order (the order the comparison
/// ran them in), so figure/table rendering follows whatever set was
/// measured — the paper's four algorithms or a custom `--algorithms` list.
pub fn algorithm_labels(measurements: &[Measurement]) -> Vec<String> {
    let mut labels: Vec<String> = Vec::new();
    for m in measurements {
        if !labels.contains(&m.algorithm) {
            labels.push(m.algorithm.clone());
        }
    }
    labels
}

/// The clock of `algorithm`'s seconds (see [`Measurement::clock`]).
pub fn clock_of(measurements: &[Measurement], algorithm: &str) -> &'static str {
    measurements.iter().find(|m| m.algorithm == algorithm).map_or("unmeasured", Measurement::clock)
}

/// The clocks of a ratio `numerator / denominator` of two algorithms'
/// seconds, as `[host wall / modelled]`.
pub fn ratio_clocks(measurements: &[Measurement], numerator: &str, denominator: &str) -> String {
    format!("[{} / {}]", clock_of(measurements, numerator), clock_of(measurements, denominator))
}

/// Seconds per instance id for one algorithm.
pub fn seconds_of(measurements: &[Measurement], algorithm: &str) -> BTreeMap<u32, f64> {
    measurements
        .iter()
        .filter(|m| m.algorithm == algorithm)
        .map(|m| (m.instance_id, m.seconds))
        .collect()
}

/// Geometric-mean seconds per algorithm (the bottom row of Table I).
pub fn geomean_by_algorithm(measurements: &[Measurement]) -> BTreeMap<String, f64> {
    by_algorithm(measurements)
        .into_iter()
        .map(|(alg, ms)| {
            let secs: Vec<f64> = ms.iter().map(|m| m.seconds.max(1e-9)).collect();
            (alg, geometric_mean(&secs))
        })
        .collect()
}

/// Renders a simple aligned table: `headers` then one row per entry.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let render_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{:>width$}", cell, width = widths[i]));
        }
        line
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&render_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Renders a profile curve as `x  y` rows plus a crude ASCII bar, so the
/// figures can be eyeballed straight from the terminal.
pub fn render_profile(label: &str, points: &[ProfilePoint]) -> String {
    let mut out = format!("{label}\n");
    for p in points {
        let bar = "#".repeat((p.y * 40.0).round() as usize);
        out.push_str(&format!("  x >= {:>5.2}  y = {:>5.3}  |{bar}\n", p.x, p.y));
    }
    out
}

/// Formats seconds with three decimals (the paper's Table I precision is two;
/// the scaled instances run faster, so one more digit keeps resolution).
pub fn fmt_secs(s: f64) -> String {
    format!("{s:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meas(id: u32, alg: &str, secs: f64) -> Measurement {
        Measurement {
            instance_id: id,
            instance_name: format!("g{id}"),
            algorithm: alg.to_string(),
            algorithm_spec: alg.to_string(),
            seconds: secs,
            wall_seconds: secs,
            cardinality: 10,
            maximum_cardinality: 10,
            initial_cardinality: 8,
        }
    }

    #[test]
    fn grouping_and_geomeans() {
        let ms = vec![meas(1, "A", 1.0), meas(2, "A", 4.0), meas(1, "B", 2.0)];
        let by = by_algorithm(&ms);
        assert_eq!(by["A"].len(), 2);
        assert_eq!(by["B"].len(), 1);
        let gm = geomean_by_algorithm(&ms);
        assert!((gm["A"] - 2.0).abs() < 1e-9);
        assert!((gm["B"] - 2.0).abs() < 1e-9);
        let secs = seconds_of(&ms, "A");
        assert_eq!(secs[&2], 4.0);
    }

    #[test]
    fn table_rendering_aligns_columns() {
        let table = render_table(
            &["name", "secs"],
            &[vec!["a".into(), "1.0".into()], vec!["graph-with-long-name".into(), "12.25".into()]],
        );
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[2].ends_with("1.0"));
        assert!(lines[3].contains("graph-with-long-name"));
    }

    #[test]
    fn profile_rendering_contains_all_points() {
        let pts = vec![ProfilePoint { x: 1.0, y: 1.0 }, ProfilePoint { x: 2.0, y: 0.5 }];
        let s = render_profile("G-PR", &pts);
        assert!(s.contains("G-PR"));
        assert_eq!(s.lines().count(), 3);
        assert!(s.contains("0.500"));
    }

    #[test]
    fn fmt_secs_three_decimals() {
        assert_eq!(fmt_secs(0.12345), "0.123");
    }
}
