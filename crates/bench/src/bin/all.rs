//! Regenerates every table and figure of the paper in order.
//! Equivalent to running table1..table6, fig1..fig7 and observations.
use mwc_analysis::validation::Algorithm;
use mwc_core::{figures, observations, subsets, tables};
use mwc_report::heat::heat_row;
use mwc_report::sparkline::labelled_sparkline;
use mwc_report::table::{fmt, Table};
use mwc_workloads::registry::suite_inventory;

fn main() {
    mwc_bench::run_or_exit(run);
}

fn run() -> Result<(), mwc_core::PipelineError> {
    let study = mwc_bench::study();
    let clustering = mwc_bench::try_clustering(&study)?;
    if study.report().is_degraded() {
        eprintln!("warning: degraded study — {}", study.report().summary());
    }

    mwc_bench::header("Table I");
    let mut t = Table::new(vec!["Suite", "Benchmark", "Target"]);
    for row in suite_inventory() {
        t.row(vec![
            row.suite.name().into(),
            row.benchmark.into(),
            row.target.into(),
        ]);
    }
    print!("{}", t.render());

    mwc_bench::header("Table II");
    println!("{}", mwc_soc::config::SocConfig::snapdragon_888().name);

    mwc_bench::header("Figure 1");
    let f1 = figures::fig1(&study);
    let mut t = Table::new(vec![
        "Benchmark",
        "Group",
        "IC (bn)",
        "IPC",
        "cMPKI",
        "bMPKI",
        "Runtime",
    ]);
    for (name, group, v) in &f1.rows {
        t.row(vec![
            name.clone(),
            group.to_string(),
            fmt(v[0] / 1e9, 1),
            fmt(v[1], 2),
            fmt(v[2], 1),
            fmt(v[3], 2),
            fmt(v[4], 1),
        ]);
    }
    print!("{}", t.render());

    mwc_bench::header("Table III");
    print!("{}", tables::table3_text(&study)?);

    mwc_bench::header("Figure 2 (sparklines)");
    let f2 = figures::fig2(&study, 50);
    for (name, series) in &f2.rows {
        println!("{name}");
        for (metric, s) in figures::FIG2_METRICS.iter().zip(series.iter()) {
            println!("  {}", labelled_sparkline(metric, &s.values, 16));
        }
    }

    mwc_bench::header("Figure 3 (heat rows)");
    let f3 = figures::fig3(&study, 50);
    for (name, series) in &f3.rows {
        println!("{name}");
        for (cluster, s) in ["little", "mid   ", "big   "].iter().zip(series.iter()) {
            println!("  {cluster}  {}", heat_row(&s.values));
        }
    }

    mwc_bench::header("Table V");
    print!("{}", tables::table5_text(&study));

    mwc_bench::header("Figure 4");
    let sweep = figures::fig4(&study)?;
    for alg in Algorithm::ALL {
        println!(
            "{:<12} best k: Dunn={:?} Sil={:?} APN={:?} AD={:?}",
            alg.name(),
            sweep.best_k_by_dunn(alg),
            sweep.best_k_by_silhouette(alg),
            sweep.best_k_by_apn(alg),
            sweep.best_k_by_ad(alg),
        );
    }

    mwc_bench::header("Figures 5 & 6 (clusters at k = 5)");
    for (i, members) in clustering.members().iter().enumerate() {
        let names: Vec<&str> = members.iter().map(|&j| study.names()[j]).collect();
        println!("  cluster {}: {}", i + 1, names.join(", "));
    }

    mwc_bench::header("Table VI");
    print!("{}", tables::table6_text(&study, &clustering));

    mwc_bench::header("Figure 7");
    let naive = subsets::naive_subset(&study, &clustering);
    let select = subsets::select_subset(&study);
    let plus = subsets::select_plus_gpu_subset(&study);
    for (name, curve) in figures::fig7(&study, &[naive, select, plus])? {
        let pts: Vec<String> = curve.iter().map(|v| format!("{v:.2}")).collect();
        println!("{name}: {}", pts.join(" "));
    }

    mwc_bench::header("Observations");
    for o in observations::check_all(&study) {
        println!(
            "#{} [{}] {}",
            o.id,
            if o.holds { "HOLDS" } else { "FAILS" },
            o.statement
        );
    }
    Ok(())
}
