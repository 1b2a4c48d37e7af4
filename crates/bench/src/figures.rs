//! Regeneration of every figure and table of the paper's evaluation section.
//!
//! Each `figureN` / `table1` function takes the prepared measurements (or the
//! CLI options) and returns a plain-text report that mirrors the content of
//! the corresponding artefact; the binaries in `src/bin/` print it.  The
//! functions also return the underlying numbers so tests (and
//! `EXPERIMENTS.md`) can check the *shape* of the results against the paper.

use crate::cli::Options;
use crate::profiles::{self, ProfilePoint};
use crate::report;
use crate::runner::{measure, prepare_instance, Measurement};
use gpm_core::solver::{Algorithm, Solver};
use gpm_core::GprVariant;
use serde::Serialize;
use std::collections::BTreeMap;

/// Runs the comparison set (by default the paper's G-PR-Shr, G-HKDW, P-DBFS,
/// PR; overridable with `--algorithms`) over the configured suite on one
/// warm [`Solver`] session, returning one measurement per (instance,
/// algorithm) pair.  Progress is reported on stderr because full-suite runs
/// take a while.
pub fn run_paper_comparison(opts: &Options) -> Vec<Measurement> {
    let mut solver = Solver::builder().build().expect("valid solver config");
    let algorithms = opts.comparison_algorithms();
    let mut measurements = Vec::new();
    for (i, spec) in opts.suite.iter().enumerate() {
        eprintln!("[{}/{}] preparing {} ({:?})", i + 1, opts.suite.len(), spec.name, opts.scale);
        let instance = prepare_instance(spec, opts.scale);
        for &alg in &algorithms {
            let m = measure(&instance, alg, &mut solver)
                .unwrap_or_else(|e| panic!("measuring {alg} on {} failed: {e}", spec.name));
            eprintln!("    {:>8}: {:>9.4}s", m.algorithm, m.seconds);
            measurements.push(m);
        }
    }
    measurements
}

// ---------------------------------------------------------------------------
// Figure 1
// ---------------------------------------------------------------------------

/// One cell of Figure 1: a G-PR variant under a GR strategy.
#[derive(Clone, Debug, Serialize)]
pub struct Figure1Cell {
    /// Variant label (G-PR-First / G-PR-NoShr / G-PR-Shr).
    pub variant: String,
    /// Strategy label ("adaptive, 0.7", "fix, 10", …).
    pub strategy: String,
    /// Geometric-mean comparable seconds over the suite.
    pub geomean_seconds: f64,
}

/// Result of the Figure 1 sweep.
#[derive(Clone, Debug, Serialize)]
pub struct Figure1Result {
    /// All (variant, strategy) cells.
    pub cells: Vec<Figure1Cell>,
}

impl Figure1Result {
    /// Geometric-mean seconds of a given (variant, strategy) pair.
    pub fn geomean(&self, variant: &str, strategy: &str) -> Option<f64> {
        self.cells
            .iter()
            .find(|c| c.variant == variant && c.strategy == strategy)
            .map(|c| c.geomean_seconds)
    }

    /// The (variant, strategy) pair with the smallest geometric mean.
    pub fn best(&self) -> &Figure1Cell {
        self.cells
            .iter()
            .min_by(|a, b| a.geomean_seconds.total_cmp(&b.geomean_seconds))
            .expect("figure 1 sweep produced no cells")
    }

    /// Renders the figure as a table: one row per variant, one column per
    /// strategy — the layout of the data table under the paper's Figure 1.
    pub fn render(&self) -> String {
        let strategies: Vec<String> = {
            let mut seen = Vec::new();
            for c in &self.cells {
                if !seen.contains(&c.strategy) {
                    seen.push(c.strategy.clone());
                }
            }
            seen
        };
        let variants: Vec<String> = {
            let mut seen = Vec::new();
            for c in &self.cells {
                if !seen.contains(&c.variant) {
                    seen.push(c.variant.clone());
                }
            }
            seen
        };
        let mut headers: Vec<&str> = vec!["variant"];
        let strategy_refs: Vec<&str> = strategies.iter().map(|s| s.as_str()).collect();
        headers.extend(strategy_refs);
        let rows: Vec<Vec<String>> = variants
            .iter()
            .map(|v| {
                let mut row = vec![v.clone()];
                for s in &strategies {
                    row.push(report::fmt_secs(self.geomean(v, s).unwrap_or(f64::NAN)));
                }
                row
            })
            .collect();
        let mut out = String::from(
            "Figure 1 — geometric-mean runtime (modelled seconds) of the G-PR variants under\n\
             different global-relabeling strategies\n\n",
        );
        out.push_str(&report::render_table(&headers, &rows));
        let best = self.best();
        out.push_str(&format!("\nbest configuration: {} with ({})\n", best.variant, best.strategy));
        out
    }
}

/// Runs the Figure 1 sweep: three G-PR variants × the paper's seven
/// global-relabeling strategies over the configured suite.
pub fn figure1(opts: &Options) -> Figure1Result {
    if opts.algorithms.is_some() {
        eprintln!(
            "warning: --algorithms is ignored by the Figure 1 sweep (it always runs the \
             3 G-PR variants x 7 GR strategies)"
        );
    }
    let mut solver = Solver::builder().build().expect("valid solver config");
    let variants = [GprVariant::First, GprVariant::ActiveList, GprVariant::Shrink];
    let strategies = gpm_core::strategy::figure1_strategies();
    // seconds[variant][strategy] = per-instance seconds
    let mut seconds: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();

    for (i, spec) in opts.suite.iter().enumerate() {
        eprintln!("[{}/{}] {} ({:?})", i + 1, opts.suite.len(), spec.name, opts.scale);
        let instance = prepare_instance(spec, opts.scale);
        for &variant in &variants {
            for &strategy in &strategies {
                let alg = Algorithm::gpr(variant, strategy);
                let m = measure(&instance, alg, &mut solver)
                    .unwrap_or_else(|e| panic!("measuring {alg} on {} failed: {e}", spec.name));
                seconds
                    .entry((variant.label().to_string(), strategy.label()))
                    .or_default()
                    .push(m.seconds.max(1e-9));
            }
        }
    }

    let cells = variants
        .iter()
        .flat_map(|v| {
            let seconds = &seconds;
            strategies.iter().map(move |s| {
                let key = (v.label().to_string(), s.label());
                Figure1Cell {
                    variant: key.0.clone(),
                    strategy: key.1.clone(),
                    geomean_seconds: report::geometric_mean(&seconds[&key]),
                }
            })
        })
        .collect();
    Figure1Result { cells }
}

// ---------------------------------------------------------------------------
// Figures 2–4 and Table I (built from the shared comparison measurements)
// ---------------------------------------------------------------------------

/// Figure 2: speedup profiles of the measured algorithms w.r.t. sequential
/// PR.  Follows whatever algorithm set was measured; without a "PR" baseline
/// the profiles cannot be formed and the report says so.
pub fn figure2(measurements: &[Measurement]) -> (String, BTreeMap<String, Vec<ProfilePoint>>) {
    let pr = report::seconds_of(measurements, "PR");
    let thresholds = profiles::figure2_thresholds();
    let mut curves = BTreeMap::new();
    let mut out = String::from(
        "Figure 2 — speedup profiles w.r.t. sequential PR\n\
         (a point (x, y): with probability y the algorithm is at least x times faster than PR;\n\
         a speedup is PR's host wall seconds over the algorithm's own clock)\n\n",
    );
    if pr.is_empty() {
        out.push_str("no PR baseline measured; rerun with PR in --algorithms\n");
        return (out, curves);
    }
    let labels: Vec<String> =
        report::algorithm_labels(measurements).into_iter().filter(|l| l != "PR").collect();
    for alg in &labels {
        let secs = report::seconds_of(measurements, alg);
        let curve = profiles::speedup_profile(&pr, &secs, &thresholds);
        out.push_str(&report::render_profile(alg, &curve));
        out.push('\n');
        curves.insert(alg.clone(), curve);
    }
    // The headline numbers quoted in the paper's text.
    for alg in &labels {
        let secs = report::seconds_of(measurements, alg);
        out.push_str(&format!(
            "P(speedup >= 5) for {:>8}: {:.2} {}   (paper: G-PR 0.39, G-HKDW 0.21, P-DBFS 0.14)\n",
            alg,
            profiles::fraction_at_least(&pr, &secs, 5.0),
            report::ratio_clocks(measurements, "PR", alg)
        ));
    }
    let gpr = report::seconds_of(measurements, "G-PR-Shr");
    if !gpr.is_empty() {
        out.push_str(&format!(
            "fraction of graphs where G-PR beats PR: {:.2} {}   (paper: 0.82)\n",
            profiles::fraction_at_least(&pr, &gpr, 1.0),
            report::ratio_clocks(measurements, "PR", "G-PR-Shr")
        ));
    }
    (out, curves)
}

/// Figure 3: performance profiles of the measured parallel algorithms (the
/// sequential PR baseline is excluded, as in the paper).
pub fn figure3(measurements: &[Measurement]) -> (String, BTreeMap<String, Vec<ProfilePoint>>) {
    let mut all = BTreeMap::new();
    for alg in report::algorithm_labels(measurements) {
        if alg == "PR" {
            continue;
        }
        let secs = report::seconds_of(measurements, &alg);
        if !secs.is_empty() {
            all.insert(alg, secs);
        }
    }
    // Each algorithm's seconds over the best of all of them, on any clock.
    let mut clocks: Vec<&str> = all.keys().map(|alg| report::clock_of(measurements, alg)).collect();
    clocks.sort_unstable();
    clocks.dedup();
    let best_clocks = clocks.join(" and ");
    let curves = profiles::performance_profiles(&all, &profiles::figure3_thresholds());
    let mut out = String::from(
        "Figure 3 — performance profiles of the parallel algorithms\n\
         (a point (x, y): with probability y the algorithm is at most x times worse than the best)\n\n",
    );
    for (alg, curve) in &curves {
        out.push_str(&report::render_profile(alg, curve));
        out.push('\n');
    }
    // Headline numbers: fraction within 1.5× of the best, and fraction best.
    for (alg, curve) in &curves {
        if let Some(p) = curve.iter().find(|p| (p.x - 1.5).abs() < 1e-9) {
            out.push_str(&format!(
                "P(within 1.5x of best) for {:>8}: {:.2} [{} / best of {best_clocks}]   \
                 (paper: G-PR 0.75, G-HKDW 0.46, P-DBFS 0.14)\n",
                alg,
                p.y,
                report::clock_of(measurements, alg)
            ));
        }
    }
    if let Some(best_fraction) = fraction_best(&all, "G-PR-Shr") {
        out.push_str(&format!(
            "fraction of graphs where G-PR is the fastest: {best_fraction:.2} \
             [{} / best of {best_clocks}]   (paper: 0.61)\n",
            report::clock_of(measurements, "G-PR-Shr")
        ));
    }
    (out, curves)
}

fn fraction_best(all: &BTreeMap<String, BTreeMap<u32, f64>>, target: &str) -> Option<f64> {
    let target_secs = all.get(target)?;
    let mut wins = 0usize;
    let mut total = 0usize;
    for (id, &secs) in target_secs {
        let best_other = all
            .iter()
            .filter(|(alg, _)| alg.as_str() != target)
            .filter_map(|(_, m)| m.get(id))
            .cloned()
            .fold(f64::INFINITY, f64::min);
        total += 1;
        if secs <= best_other {
            wins += 1;
        }
    }
    (total > 0).then(|| wins as f64 / total as f64)
}

/// Figure 4: individual speedups of G-PR over sequential PR per instance,
/// ordered by increasing number of rows (instance id).
pub fn figure4(measurements: &[Measurement]) -> (String, BTreeMap<u32, f64>) {
    let pr = report::seconds_of(measurements, "PR");
    let gpr = report::seconds_of(measurements, "G-PR-Shr");
    let mut out = String::from(
        "Figure 4 — individual speedups of G-PR w.r.t. sequential PR (instances ordered by #rows)\n\n",
    );
    if pr.is_empty() || gpr.is_empty() {
        out.push_str(
            "figure 4 needs both G-PR-Shr and PR measurements; rerun with both in --algorithms\n",
        );
        return (out, BTreeMap::new());
    }
    let mut speedups: BTreeMap<u32, f64> = BTreeMap::new();
    for (&id, &gpr_secs) in &gpr {
        if let Some(&pr_secs) = pr.get(&id) {
            speedups.insert(id, pr_secs / gpr_secs);
        }
    }
    let names: BTreeMap<u32, String> =
        measurements.iter().map(|m| (m.instance_id, m.instance_name.clone())).collect();
    let rows: Vec<Vec<String>> = speedups
        .iter()
        .map(|(id, s)| {
            let bar = "#".repeat((s * 4.0).round().min(120.0) as usize);
            vec![id.to_string(), names[id].clone(), format!("{s:.2}"), bar]
        })
        .collect();
    out.push_str(&report::render_table(&["id", "graph", "speedup", ""], &rows));
    if !speedups.is_empty() {
        let values: Vec<f64> = speedups.values().copied().collect();
        let above_one = values.iter().filter(|&&s| s >= 1.0).count();
        let clocks = report::ratio_clocks(measurements, "PR", "G-PR-Shr");
        out.push_str(&format!(
            "\nspeedup {clocks} > 1 on {}/{} graphs (paper: 23/28); min {:.2}, max {:.2}, \
             geomean {:.2} (paper: min 0.31, max 12.60, avg 3.05)\n",
            above_one,
            values.len(),
            values.iter().cloned().fold(f64::INFINITY, f64::min),
            values.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
            report::geometric_mean(&values),
        ));
    }
    (out, speedups)
}

/// Table I: per-instance sizes, IM/MM cardinalities, and runtimes of the four
/// compared algorithms, with geometric means in the bottom row.
pub fn table1(measurements: &[Measurement], opts: &Options) -> String {
    // One runtime column per measured algorithm, in measurement order —
    // the paper's four by default, or whatever --algorithms selected.
    let algorithms = report::algorithm_labels(measurements);
    let mut out = String::from("Table I — per-instance runtimes (seconds)\n");
    let clocks: Vec<String> = algorithms
        .iter()
        .map(|alg| format!("{alg} {}", report::clock_of(measurements, alg)))
        .collect();
    out.push_str(&format!(
        "clocks: {} (modelled: the C2050 cost model; host wall: this host)\n\n",
        clocks.join(", ")
    ));
    let mut rows: Vec<Vec<String>> = Vec::new();
    for spec in &opts.suite {
        let per_alg: BTreeMap<&str, f64> = algorithms
            .iter()
            .filter_map(|alg| {
                measurements
                    .iter()
                    .find(|m| m.instance_id == spec.id && &m.algorithm == alg)
                    .map(|m| (alg.as_str(), m.seconds))
            })
            .collect();
        if per_alg.is_empty() {
            continue;
        }
        let sample =
            measurements.iter().find(|m| m.instance_id == spec.id).expect("instance measured");
        let mut row = vec![
            spec.id.to_string(),
            spec.name.to_string(),
            sample.initial_cardinality.to_string(),
            sample.maximum_cardinality.to_string(),
        ];
        for alg in &algorithms {
            row.push(report::fmt_secs(per_alg.get(alg.as_str()).copied().unwrap_or(f64::NAN)));
        }
        rows.push(row);
    }
    let geomeans = report::geomean_by_algorithm(measurements);
    let mut geo_row = vec![String::new(), "GEOMEAN".to_string(), String::new(), String::new()];
    for alg in &algorithms {
        geo_row.push(report::fmt_secs(geomeans.get(alg).copied().unwrap_or(f64::NAN)));
    }
    rows.push(geo_row);
    let mut headers: Vec<&str> = vec!["ID", "Graph", "IM", "MM"];
    headers.extend(algorithms.iter().map(|a| a.as_str()));
    out.push_str(&report::render_table(&headers, &rows));
    // Headline ratios quoted in the paper: G-PR is 1.30x faster than G-HKDW
    // and 2.82x faster than P-DBFS in geometric mean.  Only a ratio of one
    // clock to itself can be read against the paper's.
    if let (Some(gpr), Some(ghkdw), Some(pdbfs), Some(pr)) = (
        geomeans.get("G-PR-Shr"),
        geomeans.get("G-HKDW"),
        geomeans.get("P-DBFS"),
        geomeans.get("PR"),
    ) {
        let clocks = |alg: &str| report::ratio_clocks(measurements, alg, "G-PR-Shr");
        out.push_str(&format!(
            "\ngeomean ratios: G-HKDW/G-PR = {:.2} {} (paper 1.30), \
             P-DBFS/G-PR = {:.2} {} (paper 2.82), PR/G-PR = {:.2} {} (paper 3.07)\n",
            ghkdw / gpr,
            clocks("G-HKDW"),
            pdbfs / gpr,
            clocks("P-DBFS"),
            pr / gpr,
            clocks("PR"),
        ));
        out.push_str("(a ratio compares with the paper's only when both sides read one clock)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_graph::instances::Scale;

    fn tiny_mini_options() -> Options {
        Options {
            scale: Scale::Tiny,
            suite: gpm_graph::instances::mini_suite().into_iter().take(2).collect(),
            suite_name: "mini".into(),
            algorithms: None,
            json_path: None,
        }
    }

    #[test]
    fn comparison_measurements_cover_all_algorithms_and_instances() {
        let opts = tiny_mini_options();
        let ms = run_paper_comparison(&opts);
        assert_eq!(ms.len(), opts.suite.len() * 4);
        for m in &ms {
            assert_eq!(m.cardinality, m.maximum_cardinality);
        }
        let t = table1(&ms, &opts);
        assert!(t.contains("GEOMEAN"));
        // Every line quoting a paper number names the clock of each side.
        assert!(
            t.contains(
                "clocks: G-PR-Shr modelled, G-HKDW modelled, P-DBFS host wall, PR host wall"
            ),
            "{t}"
        );
        for ratio in ["G-HKDW/G-PR", "P-DBFS/G-PR", "PR/G-PR"] {
            assert!(t.contains(&format!("{ratio} = ")), "{t}");
        }
        let ratios = t.lines().find(|l| l.starts_with("geomean ratios")).expect("ratio line");
        let clocks: Vec<&str> =
            ratios.split('[').skip(1).map(|part| &part[..part.find(']').unwrap()]).collect();
        assert_eq!(clocks, ["modelled / modelled", "host wall / modelled", "host wall / modelled"]);
        let (f2, curves2) = figure2(&ms);
        assert!(f2.contains("G-PR-Shr"));
        assert_eq!(curves2.len(), 3);
        let paper_lines = |text: &str| -> Vec<String> {
            text.lines().filter(|l| l.contains("paper")).map(str::to_string).collect()
        };
        assert_eq!(paper_lines(&f2).len(), 4);
        for line in paper_lines(&f2) {
            let clocks = match line.contains("P-DBFS:") {
                true => "[host wall / host wall]",
                false => "[host wall / modelled]",
            };
            assert!(line.contains(clocks), "{line}");
        }
        let (f3, curves3) = figure3(&ms);
        assert!(f3.contains("performance profiles"));
        assert_eq!(curves3.len(), 3);
        assert_eq!(paper_lines(&f3).len(), 4);
        for line in paper_lines(&f3) {
            assert!(line.contains(" / best of host wall and modelled]"), "{line}");
        }
        let (f4, speedups) = figure4(&ms);
        assert!(f4.contains("speedup"));
        assert_eq!(speedups.len(), opts.suite.len());
        let [summary] = &paper_lines(&f4)[..] else { panic!("{f4}") };
        assert!(summary.contains("speedup [host wall / modelled] > 1 on"), "{summary}");
    }

    #[test]
    fn custom_algorithm_sets_flow_through_the_renderers() {
        let opts = Options {
            algorithms: Some(vec![Algorithm::HopcroftKarp, Algorithm::SequentialPushRelabel(0.5)]),
            suite: gpm_graph::instances::mini_suite().into_iter().take(1).collect(),
            ..tiny_mini_options()
        };
        let ms = run_paper_comparison(&opts);
        assert_eq!(ms.len(), 2);
        // Table renders columns for exactly the measured algorithms.
        let t = table1(&ms, &opts);
        assert!(t.contains("HK"));
        assert!(t.contains("GEOMEAN"));
        assert!(!t.contains("G-PR-Shr"));
        assert!(!t.contains("NaN"));
        // Speedup profiles follow the measured set (HK vs the PR baseline).
        let (f2, curves2) = figure2(&ms);
        assert_eq!(curves2.len(), 1);
        assert!(f2.contains("HK"));
        // Figure 4 needs G-PR-Shr; it degrades with a message, not NaN rows.
        let (f4, speedups) = figure4(&ms);
        assert!(speedups.is_empty());
        assert!(f4.contains("rerun with both"));
    }

    #[test]
    fn figure2_without_pr_baseline_says_so() {
        let opts = Options {
            algorithms: Some(vec![Algorithm::HopcroftKarp]),
            suite: gpm_graph::instances::mini_suite().into_iter().take(1).collect(),
            ..tiny_mini_options()
        };
        let ms = run_paper_comparison(&opts);
        let (f2, curves) = figure2(&ms);
        assert!(curves.is_empty());
        assert!(f2.contains("no PR baseline"));
    }

    #[test]
    fn figure1_sweep_has_21_cells_and_renders() {
        let opts = Options {
            suite: gpm_graph::instances::mini_suite().into_iter().take(1).collect(),
            ..tiny_mini_options()
        };
        let fig1 = figure1(&opts);
        assert_eq!(fig1.cells.len(), 21);
        assert!(fig1.geomean("G-PR-Shr", "adaptive, 0.7").is_some());
        let text = fig1.render();
        assert!(text.contains("G-PR-First"));
        assert!(text.contains("adaptive, 0.7"));
        assert!(text.contains("best configuration"));
    }
}
