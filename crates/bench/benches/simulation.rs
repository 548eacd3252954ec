//! Criterion benches for the SoC simulator: engine throughput (simulated
//! seconds per wall second), scheduler placement and the cache model.
use criterion::{criterion_group, criterion_main, Criterion};
use mwc_soc::cache::{CacheConfig, CacheHierarchy, MemoryProfile};
use mwc_soc::config::SocConfig;
use mwc_soc::cpu::CpuDemand;
use mwc_soc::engine::Engine;
use mwc_soc::gpu::GpuDemand;
use mwc_soc::sched::{Placement, Scheduler};
use mwc_soc::workload::{ConstantWorkload, Demand};

fn busy_workload(seconds: f64) -> ConstantWorkload {
    let mut d = Demand::idle();
    d.cpu = CpuDemand::multi_thread(6, 0.8);
    d.gpu = Some(GpuDemand::scene(0.8));
    ConstantWorkload::new("bench", seconds, d)
}

fn bench_engine(c: &mut Criterion) {
    c.bench_function("engine_run_10s_workload", |b| {
        b.iter_with_setup(
            || Engine::new(SocConfig::snapdragon_888(), 1).expect("valid preset"),
            |mut engine| engine.run(&busy_workload(10.0)),
        )
    });
}

fn bench_scheduler(c: &mut Criterion) {
    let soc = SocConfig::snapdragon_888();
    let sched = Scheduler::new(&soc);
    let demand = CpuDemand::multi_thread(12, 0.7);
    let mut placement = Placement::default();
    c.bench_function("scheduler_place_12_threads", |b| {
        b.iter(|| sched.place(&demand, &mut placement))
    });
}

fn bench_cache_model(c: &mut Criterion) {
    let h = CacheHierarchy::new(
        64,
        1024,
        CacheConfig::new("L3", 4096),
        CacheConfig::new("SLC", 3072),
    );
    let profile = MemoryProfile {
        working_set_kib: 6144.0,
        locality: 0.6,
        accesses_per_kilo_instr: 320.0,
    };
    c.bench_function("cache_hierarchy_misses", |b| b.iter(|| h.misses(&profile)));
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_engine, bench_scheduler, bench_cache_model
}
criterion_main!(benches);
