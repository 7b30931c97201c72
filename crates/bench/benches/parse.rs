//! Front-end bench: `parse_program` and `assertions_from_source` on the
//! program text of a 9-qubit QFT mirror (Shor-9 followed by its inverse,
//! traced on qubits 0 and 1 before and after), the median `corpus`
//! program of the repository benchmark. The text is rendered by
//! `write_program`, so it has one statement per line as users write it.
//!
//! Set `MORPH_BENCH_QUICK=1` for the CI smoke subset (fewer samples).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use morph_qalgo::shor_circuit;
use morph_qprog::{parse_program, write_program, Circuit};
use morphqpv::assertions_from_source;

fn quick() -> bool {
    std::env::var_os("MORPH_BENCH_QUICK").is_some()
}

fn shor9_mirror_text() -> String {
    let shor = shor_circuit(9);
    let mut mirror = Circuit::new(9);
    mirror.tracepoint(1, &[0, 1]);
    mirror.extend_from(&shor);
    mirror.extend_from(&shor.inverse());
    mirror.tracepoint(2, &[0, 1]);
    let mut text = write_program(&mirror).expect("named gates only");
    text.push_str("// assert assume is_pure(T1) guarantee equal(T1, T2)\n");
    text
}

fn bench_parse(c: &mut Criterion) {
    let text = shor9_mirror_text();
    let mut group = c.benchmark_group("parse");
    group.sample_size(if quick() { 20 } else { 2000 });
    group.bench_function(BenchmarkId::new("parse_program", "shor9_mirror"), |b| {
        b.iter(|| parse_program(std::hint::black_box(&text)).expect("parses"));
    });
    group.bench_function(
        BenchmarkId::new("assertions_from_source", "shor9_mirror"),
        |b| {
            b.iter(|| assertions_from_source(std::hint::black_box(&text)).expect("parses"));
        },
    );
    group.finish();
}

criterion_group!(benches, bench_parse);
criterion_main!(benches);
