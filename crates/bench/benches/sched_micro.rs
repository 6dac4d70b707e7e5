//! Criterion microbenchmarks of the hot control-plane paths: the COP
//! predictor, one `Schedule()` round at 8, 1,000 and 10,000 servers,
//! and the event queue — the operations behind the Fig. 17(a) overhead
//! numbers.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use infless_cluster::ClusterSpec;
use infless_core::predictor::CopPredictor;
use infless_core::scheduler::{Scheduler, SchedulerConfig};
use infless_models::{
    profile::ConfigGrid, HardwareModel, ModelId, ModelSpec, ProfileDatabase, ResourceConfig,
};
use infless_sim::{EventQueue, SimDuration, SimTime};

fn predictor() -> (CopPredictor, ModelSpec) {
    let hw = HardwareModel::default();
    let specs: Vec<ModelSpec> = ModelId::all().iter().map(|id| id.spec()).collect();
    let db = ProfileDatabase::cached(&hw, &specs, &ConfigGrid::standard(), 99);
    (CopPredictor::new(db, hw), ModelId::ResNet50.spec())
}

fn bench_predictor(c: &mut Criterion) {
    let (p, spec) = predictor();
    let cfg = ResourceConfig::new(2, 20);
    c.bench_function("cop_predict_cold_cache", |b| {
        b.iter_batched(
            || {
                let hw = HardwareModel::default();
                let db = ProfileDatabase::profile(
                    &hw,
                    std::slice::from_ref(&spec),
                    &ConfigGrid::standard(),
                    99,
                );
                CopPredictor::new(db, hw)
            },
            |fresh| fresh.predict(&spec, 8, cfg),
            BatchSize::LargeInput,
        )
    });
    c.bench_function("cop_predict_cached", |b| {
        let _ = p.predict(&spec, 8, cfg);
        b.iter(|| p.predict(&spec, 8, cfg))
    });
}

fn bench_scheduler(c: &mut Criterion) {
    let (p, spec) = predictor();
    let function = infless_core::engine::FunctionInfo::new(spec, SimDuration::from_millis(200));
    let mut scheduler = Scheduler::new(SchedulerConfig::default());
    // One round's cost across cluster sizes, on a warm cluster: one
    // query builds the server-state class index before timing, as in a
    // running platform, and each round runs inside a transaction that
    // is rolled back, so every round starts from the same state. A
    // fresh `build()` or clone per round would time (and hold in
    // memory) O(servers) work that a running platform never repeats.
    println!(
        "host cores: {}",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    for servers in [8, 1_000, 10_000] {
        let mut cluster = ClusterSpec::large(servers).build();
        let _ = cluster.class_representatives().count();
        c.bench_function(&format!("schedule_one_round_{servers}_servers"), |b| {
            b.iter(|| {
                cluster.begin_txn();
                let out = scheduler.schedule(&p, &function, 500.0, &mut cluster);
                cluster.rollback_txn();
                out
            })
        });
    }
}

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..10_000u64 {
                q.schedule(SimTime::from_micros((i * 7919) % 1_000_000), i);
            }
            let mut sum = 0u64;
            while let Some((_, v)) = q.pop() {
                sum = sum.wrapping_add(v);
            }
            sum
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_secs(1));
    targets = bench_predictor, bench_scheduler, bench_event_queue
}
criterion_main!(benches);
