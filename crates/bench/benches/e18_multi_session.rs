//! E18 — multi-session kernel throughput. Times a 32-session mixed
//! population two ways: one `run_session` call per session (a
//! population of one each) versus one `run_sessions` call
//! interleaving every session through a single shared calendar queue.
//! Both produce identical results (asserted in `common`'s tests); the
//! delta is pure kernel overhead.
//!
//! A second sweep drives the population through ONE reused
//! `KernelWorkspace` in batches of 1/4/16/64 sessions — the shape of
//! work a batched harness worker performs — isolating kernel-setup
//! amortization.

use criterion::{criterion_group, Criterion};
use ravel_bench::common::{population, run_population, run_population_batched};
use ravel_pipeline::run_session;
use ravel_sim::Dur;

const POP: usize = 32;
const DUR: Dur = Dur::secs(10);

fn print_table() {
    let results = run_population(POP, DUR);
    let events: u64 = results.iter().map(|r| r.events_processed).sum();
    println!("\n=== E18: multi-session kernel, {POP} interleaved sessions ===");
    println!(
        "sessions={} events={} frames_captured={}\n",
        results.len(),
        events,
        results.iter().map(|r| r.frames_captured).sum::<u64>()
    );
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e18");
    g.sample_size(10);
    g.bench_function("sequential_32x10s_sessions", |b| {
        b.iter(|| {
            population(POP, DUR)
                .into_iter()
                .map(|spec| run_session(spec.trace, spec.cfg))
                .collect::<Vec<_>>()
        })
    });
    g.bench_function("interleaved_32x10s_sessions", |b| {
        b.iter(|| run_population(POP, DUR))
    });
    for batch in [1usize, 4, 16, 64] {
        g.bench_function(&format!("batched_{POP}x10s_batch{batch}"), |b| {
            b.iter(|| run_population_batched(POP, DUR, batch))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);

fn main() {
    print_table();
    benches();
    Criterion::default().configure_from_args().final_summary();
}
