//! Criterion benchmarks of the machine simulator itself: events per second
//! and end-to-end run time of small workloads on various machine sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pods::{EngineKind, Runtime, Value};

fn simulator(pes: usize) -> Runtime {
    Runtime::builder(EngineKind::Sim).workers(pes).build()
}

fn bench_simulator(c: &mut Criterion) {
    let fill = pods::compile(pods_workloads::FILL).unwrap();
    let mut group = c.benchmark_group("simulate_fill_16x16");
    for pes in [1usize, 4, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(pes), &pes, |b, &pes| {
            let runtime = simulator(pes);
            b.iter(|| runtime.run(&fill, &[Value::Int(16)]).unwrap())
        });
    }
    group.finish();

    let stencil = pods::compile(pods_workloads::STENCIL).unwrap();
    c.bench_function("simulate_stencil_16x16_8pes", |b| {
        let runtime = simulator(8);
        b.iter(|| runtime.run(&stencil, &[Value::Int(16)]).unwrap())
    });

    let simple = pods::compile(pods_workloads::simple::SIMPLE).unwrap();
    c.bench_function("simulate_simple_8x8_4pes", |b| {
        let runtime = simulator(4);
        b.iter(|| runtime.run(&simple, &[Value::Int(8)]).unwrap())
    });
}

criterion_group!(benches, bench_simulator);
criterion_main!(benches);
