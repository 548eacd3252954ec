//! Regenerates Figure 7: normalized Euclidean distances for the reduced
//! benchmark subsets as members are added.
use mwc_core::subsets::{naive_subset, select_plus_gpu_subset, select_subset};

fn main() {
    mwc_bench::run_or_exit(run);
}

fn run() -> Result<(), mwc_core::PipelineError> {
    mwc_bench::header("Figure 7: Total minimum Euclidean distance vs subset size");
    let study = mwc_bench::study();
    let clustering = mwc_bench::try_clustering(&study)?;
    let naive = naive_subset(&study, &clustering);
    let select = select_subset(&study);
    let plus = select_plus_gpu_subset(&study);
    let sizes = [
        naive.indices.len(),
        select.indices.len(),
        plus.indices.len(),
    ];
    let curves = mwc_core::figures::fig7(&study, &[naive, select, plus])?;
    for ((name, curve), own) in curves.iter().zip(sizes) {
        println!("{name} (dashed line at n = {own}: {:.2}):", curve[own - 1]);
        let pts: Vec<String> = curve
            .iter()
            .enumerate()
            .map(|(i, v)| format!("{}:{v:.2}", i + 1))
            .collect();
        println!("  {}\n", pts.join("  "));
    }
    let plus_at_7 = &curves[2].1[6];
    let naive_at_5 = &curves[0].1[4];
    let naive_at_7 = &curves[0].1[6];
    println!(
        "Select + GPU (7 benchmarks) = {plus_at_7:.2}: {:.2}% below Naive at 5 and {:.2}% below Naive at 7\n\
         (paper: 22.96% and 9.78%)",
        (1.0 - plus_at_7 / naive_at_5) * 100.0,
        (1.0 - plus_at_7 / naive_at_7) * 100.0
    );

    println!(
        "
Total minimum Euclidean distance vs benchmarks added:"
    );
    // Distinct first letters pick distinct plot glyphs.
    let glyph_label = |name: &str| match name {
        "Naive Set" => "Naive".to_owned(),
        "Select Set" => "select".to_owned(),
        "Select + GPU Set" => "+gpu (select + GPU)".to_owned(),
        other => other.to_owned(),
    };
    let series: Vec<mwc_report::chart::Series> = curves
        .iter()
        .map(|(name, curve)| mwc_report::chart::Series::new(glyph_label(name), curve.clone()))
        .collect();
    print!("{}", mwc_report::chart::line_chart(&series, 12));
    println!("{:>10} x axis: subset size 1..18", "");
    Ok(())
}
