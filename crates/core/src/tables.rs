//! Tables III, V and VI of the paper.

use mwc_analysis::cluster::Clustering;
use mwc_analysis::error::AnalysisError;
use mwc_analysis::matrix::Matrix;
use mwc_analysis::stats::correlation_matrix;
use mwc_report::heat::level_histogram;
use mwc_report::table::{fmt, Table};

use crate::features::{featurize, FIG1_METRICS};
use crate::pipeline::Characterization;
use crate::subsets::{naive_subset, select_plus_gpu_subset, select_subset, Subset};

/// Table III: the Pearson correlation matrix of the five Figure-1 metrics.
/// Fails with [`AnalysisError::EmptyStudy`] on a fully degraded study.
pub fn table3_matrix(study: &Characterization) -> Result<Matrix, AnalysisError> {
    Ok(correlation_matrix(&featurize(study)?.fig1))
}

/// Render Table III as text (lower triangle, as the paper prints it).
pub fn table3_text(study: &Characterization) -> Result<String, AnalysisError> {
    let c = table3_matrix(study)?;
    let mut headers: Vec<String> = vec![String::new()];
    headers.extend(FIG1_METRICS.iter().map(|s| s.to_string()));
    let mut t = Table::new(headers);
    for (i, metric) in FIG1_METRICS.iter().enumerate().take(c.rows()) {
        let mut row = vec![metric.to_string()];
        for j in 0..=i {
            row.push(fmt(c.get(i, j), 3));
        }
        t.row(row);
    }
    Ok(t.render())
}

/// Table V data: for each cluster (little, mid, big), the average fraction
/// of execution time spent in each of the four load levels, across all
/// units.
pub fn table5_data(study: &Characterization) -> [[f64; 4]; 3] {
    let mut totals = [[0.0f64; 4]; 3];
    let n = study.profiles().len() as f64;
    for p in study.profiles() {
        let rows = [
            level_histogram(&p.series.little_load.values),
            level_histogram(&p.series.mid_load.values),
            level_histogram(&p.series.big_load.values),
        ];
        for (t, r) in totals.iter_mut().zip(rows.iter()) {
            for (acc, v) in t.iter_mut().zip(r.iter()) {
                *acc += v;
            }
        }
    }
    totals.map(|row| row.map(|v| v / n))
}

/// Render Table V as text.
pub fn table5_text(study: &Characterization) -> String {
    let data = table5_data(study);
    let mut t = Table::new(vec![
        "CPU Cluster",
        "0% - 25%",
        "25% - 50%",
        "50% - 75%",
        "75% - 100%",
    ]);
    for (name, row) in ["CPU Little", "CPU Mid", "CPU Big"].iter().zip(data.iter()) {
        let mut cells = vec![name.to_string()];
        cells.extend(row.iter().map(|v| format!("{:.0}%", v * 100.0)));
        t.row(cells);
    }
    t.render()
}

/// Table VI data: running time and reduction for the original set and the
/// three subsets.
#[derive(Debug, Clone, PartialEq)]
pub struct Table6 {
    /// Total running time of all 18 units, in seconds.
    pub original_seconds: f64,
    /// (subset, running time seconds, reduction percent) rows.
    pub rows: Vec<(Subset, f64, f64)>,
}

/// Compute Table VI. The Naive subset requires the clustering result (one
/// benchmark per cluster); pass the clustering from Figure 5/6.
pub fn table6(study: &Characterization, clustering: &Clustering) -> Table6 {
    let original_seconds: f64 = study.runtimes().iter().sum();
    let rows = vec![
        naive_subset(study, clustering),
        select_subset(study),
        select_plus_gpu_subset(study),
    ]
    .into_iter()
    .map(|s| {
        let time = s.running_time(study);
        let red = s.reduction_percent(study);
        (s, time, red)
    })
    .collect();
    Table6 {
        original_seconds,
        rows,
    }
}

/// Render Table VI as text.
pub fn table6_text(study: &Characterization, clustering: &Clustering) -> String {
    let data = table6(study, clustering);
    let mut t = Table::new(vec![
        "",
        "Original Set",
        "Naive Set",
        "Select Set",
        "Select + GPU Set",
    ]);
    let mut times = vec![
        "Running Time (sec)".to_string(),
        fmt(data.original_seconds, 1),
    ];
    let mut reds = vec!["Running Time Reduction".to_string(), "-".to_string()];
    for (_, time, red) in &data.rows {
        times.push(fmt(*time, 2));
        reds.push(format!("{:.2}%", red));
    }
    t.row(times);
    t.row(reds);
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwc_soc::config::SocConfig;

    fn study() -> Characterization {
        Characterization::run(SocConfig::snapdragon_888(), 7, 1)
    }

    fn ground_truth(study: &Characterization) -> Clustering {
        let labels: Vec<usize> = study.profiles().iter().map(|p| p.label as usize).collect();
        Clustering::new(labels, 5).expect("18 labels, 5 clusters")
    }

    #[test]
    fn table3_is_a_correlation_matrix() {
        let c = table3_matrix(&study()).expect("table3 on a full study");
        assert_eq!(c.rows(), 5);
        for i in 0..5 {
            assert!((c.get(i, i) - 1.0).abs() < 1e-12);
            for j in 0..5 {
                assert!(c.get(i, j).abs() <= 1.0 + 1e-12);
            }
        }
    }

    #[test]
    fn table3_text_prints_lower_triangle() {
        let s = table3_text(&study()).expect("table3 on a full study");
        assert!(s.contains("IC"));
        assert!(s.contains("Runtime"));
        assert!(s.lines().count() >= 7);
    }

    #[test]
    fn table5_rows_sum_to_one() {
        let data = table5_data(&study());
        for row in data {
            let sum: f64 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "{row:?}");
        }
    }

    #[test]
    fn table5_mid_cluster_is_mostly_idle() {
        // Table V: CPU Mid spends 76% of time in the 0–25% band.
        let data = table5_data(&study());
        let mid_idle = data[1][0];
        assert!(mid_idle > 0.5, "mid cluster mostly idle, got {mid_idle}");
    }

    #[test]
    fn table6_matches_paper_totals() {
        let s = study();
        let t = table6(&s, &ground_truth(&s));
        assert!((t.original_seconds - 4429.5).abs() < 1.0);
        assert_eq!(t.rows.len(), 3);
        // Reductions in paper order: 90.93%, 80.47%, 74.98%.
        assert!((t.rows[0].2 - 90.93).abs() < 0.3);
        assert!((t.rows[1].2 - 80.47).abs() < 0.3);
        assert!((t.rows[2].2 - 74.98).abs() < 0.3);
    }

    #[test]
    fn table6_text_renders_both_rows() {
        let s = study();
        let text = table6_text(&s, &ground_truth(&s));
        assert!(text.contains("Running Time (sec)"));
        assert!(text.contains('%'));
    }
}
