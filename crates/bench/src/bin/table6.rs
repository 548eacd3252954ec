//! Regenerates Table VI: running times and reductions for the subsets.
fn main() {
    mwc_bench::run_or_exit(run);
}

fn run() -> Result<(), mwc_core::PipelineError> {
    mwc_bench::header("Table VI: Running times and percentage reductions for all proposed subsets");
    let study = mwc_bench::study();
    let clustering = mwc_bench::try_clustering(&study)?;
    print!("{}", mwc_core::tables::table6_text(&study, &clustering));
    println!("\nPaper: 4429.5 s original; reductions 90.93% / 80.47% / 74.98%.");
    Ok(())
}
