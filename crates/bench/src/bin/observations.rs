//! Checks the paper's nine numbered observations against the study.
fn main() {
    mwc_bench::header("Observations #1-#9");
    let mut all_hold = true;
    for o in mwc_core::observations::check_all(&mwc_bench::study()) {
        all_hold &= o.holds;
        println!(
            "#{} [{}] {}\n    {}\n",
            o.id,
            if o.holds { "HOLDS" } else { "FAILS" },
            o.statement,
            o.evidence
        );
    }
    println!("all observations hold: {all_hold}");
    std::process::exit(if all_hold { 0 } else { 1 });
}
