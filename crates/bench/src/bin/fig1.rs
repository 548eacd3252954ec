//! Regenerates Figure 1: benchmark metrics (IC, IPC, cache MPKI, branch
//! MPKI, runtime) with cluster groups and study-wide averages.
use mwc_report::table::{fmt, Table};

fn main() {
    mwc_bench::header("Figure 1: Benchmark metrics (dashed lines = averages)");
    let f = mwc_core::figures::fig1(&mwc_bench::study());
    let mut t = Table::new(vec![
        "Benchmark",
        "Group",
        "IC (bn)",
        "IPC",
        "Cache MPKI",
        "Branch MPKI",
        "Runtime (s)",
    ]);
    for (name, group, v) in &f.rows {
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
    t.row(vec![
        "AVERAGE".into(),
        "-".into(),
        fmt(f.averages[0] / 1e9, 1),
        fmt(f.averages[1], 2),
        fmt(f.averages[2], 1),
        fmt(f.averages[3], 2),
        fmt(f.averages[4], 1),
    ]);
    print!("{}", t.render());
}
