//! Criterion benches for the cluster-validation measures (the cost of a
//! Figure-4 sweep point).
use criterion::{criterion_group, criterion_main, Criterion};
use mwc_analysis::cluster::kmeans;
use mwc_analysis::matrix::Matrix;
use mwc_analysis::validation::{
    average_distance, average_proportion_non_overlap, dunn_index, silhouette_width, sweep,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn paper_sized_matrix() -> Matrix {
    let mut rng = StdRng::seed_from_u64(3);
    let rows: Vec<Vec<f64>> = (0..18)
        .map(|i| {
            let center = (i % 5) as f64 * 5.0;
            (0..14).map(|_| center + rng.gen_range(-0.5..0.5)).collect()
        })
        .collect();
    Matrix::from_rows(&rows).expect("uniform rows")
}

fn bench_validation(c: &mut Criterion) {
    let m = paper_sized_matrix();
    let clustering = kmeans(&m, 5, 42).expect("valid k");
    let clusterer = |mm: &Matrix, k: usize| kmeans(mm, k, 42);

    c.bench_function("dunn_index_18x14", |b| {
        b.iter(|| dunn_index(&m, &clustering))
    });
    c.bench_function("silhouette_18x14", |b| {
        b.iter(|| silhouette_width(&m, &clustering))
    });
    c.bench_function("apn_18x14", |b| {
        b.iter(|| average_proportion_non_overlap(&m, 5, &clusterer))
    });
    c.bench_function("ad_18x14", |b| {
        b.iter(|| average_distance(&m, 5, &clusterer))
    });
}

fn bench_sweep(c: &mut Criterion) {
    // The Figure-4 sweep over the paper's k range, with shared distance
    // matrices / dendrograms.
    let m = paper_sized_matrix();
    let ks = [2usize, 3, 4, 5, 6, 7];
    c.bench_function("sweep_shared_distances", |b| {
        b.iter(|| sweep(&m, &ks).expect("valid ks"))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_validation, bench_sweep
}
criterion_main!(benches);
