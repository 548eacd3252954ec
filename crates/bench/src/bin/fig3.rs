//! Regenerates Figure 3: load levels of the CPU core clusters across the
//! benchmarks, rendered as quantized heat rows.
use mwc_core::figures::fig3;
use mwc_report::heat::{heat_row, LEVEL_GLYPHS};

fn main() {
    mwc_bench::header("Figure 3: CPU core cluster load levels");
    println!(
        "levels: {} 0-25%  {} 25-50%  {} 50-75%  {} 75-100%\n",
        LEVEL_GLYPHS[0], LEVEL_GLYPHS[1], LEVEL_GLYPHS[2], LEVEL_GLYPHS[3]
    );
    let f = fig3(&mwc_bench::study(), 60);
    for (name, series) in &f.rows {
        println!("{name}");
        for (cluster, s) in ["little", "mid   ", "big   "].iter().zip(series.iter()) {
            println!("  {cluster}  {}", heat_row(&s.values));
        }
        println!();
    }
}
