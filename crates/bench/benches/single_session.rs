//! End-to-end single-session timing: Criterion-times one full 40 s
//! canonical-drop session (4→1 Mbps, talking head) per scheme, as a
//! simulator-throughput reference. The experiment tables themselves
//! come from `cargo run --release -p ravel-harness -- -e eN`.

use criterion::{criterion_group, criterion_main, Criterion};
use ravel_bench::common::run_drop;
use ravel_pipeline::Scheme;
use ravel_video::ContentClass;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("single_session");
    g.sample_size(10);
    g.bench_function("full_40s_session_baseline", |b| {
        b.iter(|| run_drop(Scheme::baseline(), ContentClass::TalkingHead, 1e6))
    });
    g.bench_function("full_40s_session_adaptive", |b| {
        b.iter(|| run_drop(Scheme::adaptive(), ContentClass::TalkingHead, 1e6))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
