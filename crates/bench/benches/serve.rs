//! Service-layer bench: what coalescing identical jobs buys.
//!
//! Three arms submit the same number of jobs to a fresh [`Service`]:
//!
//! - `coalesced_identical`: identical requests — one leader characterizes,
//!   the rest follow or hit the cache. This is the serve tentpole; it must
//!   approach the cost of a *single* verification as worker count grows.
//! - `independent_seeds`: same program, distinct seeds — distinct
//!   fingerprints, so every job characterizes. The no-sharing baseline.
//! - `sequential_baseline`: the same identical batch run one [`Verifier`]
//!   at a time on the submitting thread (no service, no cache).
//!
//! Set `MORPH_BENCH_QUICK=1` for the CI smoke subset (small batch).

use criterion::{criterion_group, criterion_main, Criterion};
use morph_serve::{JobRequest, JobStatus, ServeConfig, Service};
use morphqpv::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const PROGRAM: &str = "\
qreg q[3];
T 1 q[0];
h q[0];
cx q[0],q[1];
cx q[1],q[2];
T 2 q[0,1,2];
// assert assume is_pure(T1) guarantee is_pure(T2)
";

fn quick() -> bool {
    std::env::var_os("MORPH_BENCH_QUICK").is_some()
}

fn batch_size() -> usize {
    if quick() {
        4
    } else {
        16
    }
}

fn request(id: usize, seed: u64) -> JobRequest {
    let mut req = JobRequest::new(format!("job-{id}"), PROGRAM, vec![0]);
    req.seed = seed;
    req.samples = Some(4);
    req
}

fn service() -> Service {
    Service::start(&ServeConfig {
        workers: 4,
        queue_capacity: 64,
        ..ServeConfig::default()
    })
    .expect("in-memory service starts")
}

fn run_jobs(service: &Service, requests: Vec<JobRequest>) {
    let handles: Vec<_> = requests
        .into_iter()
        .map(|r| service.submit(r).expect("queue sized for the batch"))
        .collect();
    for handle in handles {
        assert_eq!(handle.wait().status, JobStatus::Passed);
    }
}

fn bench_serve(c: &mut Criterion) {
    let n = batch_size();
    let mut group = c.benchmark_group("serve");
    group.sample_size(10);

    group.bench_function("coalesced_identical", |b| {
        b.iter(|| {
            let service = service();
            run_jobs(&service, (0..n).map(|i| request(i, 7)).collect());
            service.shutdown();
        });
    });

    group.bench_function("independent_seeds", |b| {
        b.iter(|| {
            let service = service();
            run_jobs(
                &service,
                (0..n).map(|i| request(i, 1000 + i as u64)).collect(),
            );
            service.shutdown();
        });
    });

    group.bench_function("sequential_baseline", |b| {
        let circuit = parse_program(PROGRAM).expect("parses");
        let assertions = assertions_from_source(PROGRAM).expect("spec parses");
        b.iter(|| {
            for _ in 0..n {
                let mut verifier = Verifier::new(circuit.clone()).input_qubits(&[0]).samples(4);
                for a in &assertions {
                    verifier = verifier.assert_that(a.clone());
                }
                let report = verifier
                    .try_run(&mut StdRng::seed_from_u64(7), None)
                    .expect("the program verifies");
                assert!(report.all_passed());
            }
        });
    });

    group.finish();
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
