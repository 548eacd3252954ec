//! Regenerates Table III: correlation values between metrics.
fn main() {
    mwc_bench::run_or_exit(run);
}

fn run() -> Result<(), mwc_core::PipelineError> {
    mwc_bench::header("Table III: Correlation values between metrics (Pearson)");
    print!("{}", mwc_core::tables::table3_text(&mwc_bench::study())?);
    println!("\nPaper bands: |r| >= 0.8 strong, 0.4 <= |r| < 0.8 moderate, below: none.");
    Ok(())
}
