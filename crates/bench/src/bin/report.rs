//! `report` — list and diff the studies stored in the result cache.
//!
//! ```text
//! report                      # list every study entry in the cache directory
//! report --diff <a> <b>       # per-unit diff of two stored studies by digest
//! ```
//!
//! Digests are the 16-hex `Characterization::digest` values printed by
//! `profile`, `sweep`, and the list view. Entries are read through the
//! cache's hash-verifying load path, so a corrupt entry is counted and
//! skipped, never shown.

use std::time::UNIX_EPOCH;

use mwc_core::cache::StoredStudy;
use mwc_core::{Characterization, StudyCache};

fn usage() -> ! {
    eprintln!("usage: report [--diff <digest-a> <digest-b>]");
    eprintln!("       (reads the result cache: MWC_CACHE_DIR, or the default directory)");
    std::process::exit(2);
}

fn stored_or_exit(cache: &StudyCache) -> Vec<StoredStudy> {
    if cache.dir().is_none() {
        eprintln!("report: the result cache is off — unset MWC_CACHE to list its entries");
        std::process::exit(2);
    }
    cache.stored_studies()
}

fn parse_digest(text: &str) -> u64 {
    match u64::from_str_radix(text.trim_start_matches("0x"), 16) {
        Ok(d) => d,
        Err(_) => {
            eprintln!("report: {text:?} is not a hex digest");
            std::process::exit(2);
        }
    }
}

fn find_by_digest(stored: &[StoredStudy], digest: u64) -> &Characterization {
    match stored.iter().rev().find(|s| s.study.digest() == digest) {
        Some(s) => &s.study,
        None => {
            eprintln!("report: no stored study with digest {digest:016x}");
            std::process::exit(1);
        }
    }
}

fn list(cache: &StudyCache, stored: &[StoredStudy]) {
    mwc_bench::header("Stored studies");
    println!(
        "cache: {} ({} study entries, {} corrupt skipped)",
        cache.describe(),
        stored.len(),
        cache.stats().corrupt_entries
    );
    println!();
    println!(
        "{:>3}  {:<16}  {:<16}  {:>5}  {:>6}  stored at (unix s)",
        "#", "study key", "digest", "units", "failed"
    );
    for (i, s) in stored.iter().enumerate() {
        let stored_at = s
            .stored_at
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        println!(
            "{:>3}  {:016x}  {:016x}  {:>5}  {:>6}  {stored_at}",
            i,
            s.key,
            s.study.digest(),
            s.study.profiles().len(),
            s.study.report().failed_units.len(),
        );
    }
}

fn diff(stored: &[StoredStudy], a: u64, b: u64) {
    let study_a = find_by_digest(stored, a);
    let study_b = find_by_digest(stored, b);
    mwc_bench::header("Study diff");
    println!("a: digest={a:016x} units={}", study_a.profiles().len());
    println!("b: digest={b:016x} units={}", study_b.profiles().len());
    if a == b {
        println!("\nidentical digests — bit-identical studies");
        return;
    }
    println!();
    println!(
        "{:<26}  {:>9}  {:>9}  {:>9}  {:>9}",
        "unit", "ipc a", "ipc b", "gpu a", "gpu b"
    );
    let find = |study: &Characterization, name: &str| -> Option<(f64, f64)> {
        study
            .profiles()
            .iter()
            .find(|p| p.name == name)
            .map(|p| (p.metrics.ipc, p.metrics.gpu_load))
    };
    let mut names: Vec<String> = study_a
        .profiles()
        .iter()
        .chain(study_b.profiles())
        .map(|p| p.name.clone())
        .collect();
    names.sort();
    names.dedup();
    for name in &names {
        match (find(study_a, name), find(study_b, name)) {
            (Some((ia, ga)), Some((ib, gb))) => {
                let marker = if (ia - ib).abs() > f64::EPSILON || (ga - gb).abs() > f64::EPSILON {
                    " *"
                } else {
                    ""
                };
                println!("{name:<26}  {ia:>9.3}  {ib:>9.3}  {ga:>9.3}  {gb:>9.3}{marker}");
            }
            (Some((ia, ga)), None) => {
                println!("{name:<26}  {ia:>9.3}  {:>9}  {ga:>9.3}  {:>9}", "-", "-");
            }
            (None, Some((ib, gb))) => {
                println!("{name:<26}  {:>9}  {ib:>9.3}  {:>9}  {gb:>9.3}", "-", "-");
            }
            (None, None) => {}
        }
    }
    let failed = |s: &Characterization| {
        s.report()
            .failed_units
            .iter()
            .map(|f| f.name.clone())
            .collect::<Vec<_>>()
    };
    let (fa, fb) = (failed(study_a), failed(study_b));
    if !fa.is_empty() || !fb.is_empty() {
        println!("\nfailed units: a={fa:?} b={fb:?}");
    }
}

fn main() {
    mwc_bench::run_or_exit(|| {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let cache = StudyCache::from_env();
        match args.as_slice() {
            [] => list(&cache, &stored_or_exit(&cache)),
            [flag, a, b] if flag == "--diff" => {
                diff(&stored_or_exit(&cache), parse_digest(a), parse_digest(b))
            }
            _ => usage(),
        }
        Ok(())
    });
}
