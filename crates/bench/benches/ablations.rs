//! Ablation benchmarks for the design choices called out in DESIGN.md:
//! remote-page-cache on/off, Range-Filter / distribution on/off, and the
//! page-size sweep (the paper cites [Bic89] that page size is not critical).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pods::{EngineKind, PartitionConfig, RunOptions, Runtime, Value};

fn options(pes: usize) -> RunOptions {
    RunOptions::with_pes(pes)
}

fn simulator(opts: RunOptions) -> Runtime {
    Runtime::builder(EngineKind::Sim).options(opts).build()
}

fn bench_ablations(c: &mut Criterion) {
    let stencil = pods::compile(pods_workloads::STENCIL).unwrap();
    let n = Value::Int(24);

    // Remote page cache on/off: reported as simulated elapsed time via
    // wall-clock of the simulation (the simulated times are printed by the
    // fig binaries; here we track the cost of simulating both variants).
    let mut group = c.benchmark_group("stencil_24_8pes_page_cache");
    for (label, cache) in [("cache_on", true), ("cache_off", false)] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &cache, |b, &cache| {
            let mut opts = options(8);
            opts.remote_page_cache = cache;
            let runtime = simulator(opts);
            b.iter(|| runtime.run(&stencil, &[n]).unwrap())
        });
    }
    group.finish();

    // Distribution on/off (sequential partitioning = no LD, no RF).
    let mut group = c.benchmark_group("stencil_24_distribution");
    for (label, pes, partition) in [
        ("distributed_8pes", 8usize, PartitionConfig::default()),
        ("sequential_1pe", 1usize, PartitionConfig::sequential()),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &partition, |b, part| {
            let mut opts = options(pes);
            opts.partition = *part;
            let runtime = simulator(opts);
            b.iter(|| runtime.run(&stencil, &[n]).unwrap())
        });
    }
    group.finish();

    // Page-size sweep.
    let mut group = c.benchmark_group("stencil_24_8pes_page_size");
    for page in [8usize, 32, 128] {
        group.bench_with_input(BenchmarkId::from_parameter(page), &page, |b, &page| {
            let mut opts = options(8);
            opts.page_size = page;
            let runtime = simulator(opts);
            b.iter(|| runtime.run(&stencil, &[n]).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
