//! Regenerates Figure 6: k-means clustering of the benchmarks (PAM agrees).
use mwc_analysis::cluster::pam;
use mwc_core::features::clustering_matrix;

fn main() {
    mwc_bench::run_or_exit(run);
}

fn run() -> Result<(), mwc_core::PipelineError> {
    mwc_bench::header("Figure 6: K-means clustering results (k = 5)");
    let study = mwc_bench::study();
    let kmeans = mwc_bench::try_clustering(&study)?;
    for (i, members) in kmeans.members().iter().enumerate() {
        let names: Vec<&str> = members.iter().map(|&j| study.names()[j]).collect();
        println!("  cluster {}: {}", i + 1, names.join(", "));
    }
    let pam_result = pam(&clustering_matrix(&study)?, 5, 42)?;
    println!(
        "\nPAM produces the same partition: {} (the paper omits its figure for the same reason)",
        pam_result.same_partition(&kmeans)
    );
    Ok(())
}
