//! Regenerates Figure 5: hierarchical clustering of the benchmarks.
use mwc_report::dendro::{render, MergeRow};

fn main() {
    mwc_bench::run_or_exit(run);
}

fn run() -> Result<(), mwc_core::PipelineError> {
    mwc_bench::header("Figure 5: Hierarchical clustering (Ward linkage) dendrogram");
    let study = mwc_bench::study();
    let d = mwc_core::figures::fig5(&study)?;
    let labels: Vec<String> = study.names().iter().map(|s| s.to_string()).collect();
    let merges: Vec<MergeRow> = d
        .merges()
        .iter()
        .map(|m| MergeRow {
            a: m.a,
            b: m.b,
            distance: m.distance,
        })
        .collect();
    print!("{}", render(&labels, &merges));
    println!("\nCut at k = 5:");
    let cut = d.cut(5)?;
    for (i, members) in cut.members().iter().enumerate() {
        let names: Vec<&str> = members.iter().map(|&j| study.names()[j]).collect();
        println!("  cluster {}: {}", i + 1, names.join(", "));
    }
    Ok(())
}
