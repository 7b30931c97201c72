//! Characterization-cache bench: cold characterization (full simulator
//! sweep + artifact encode) vs warm reuse (fingerprint + in-memory hit)
//! vs disk reuse (fingerprint + JSON decode from the store directory).
//!
//! The warm arms must be orders of magnitude cheaper than the cold arm —
//! that gap is the entire value proposition of `morph-store` for the
//! figure sweeps, which re-characterize the same reference program
//! dozens of times.

use criterion::{criterion_group, criterion_main, Criterion};
use morph_qprog::Circuit;
use morph_qsim::NoiseModel;
use morph_tomography::ReadoutMode;
use morphqpv::{characterize_cached, CharacterizationCache, CharacterizationConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N_QUBITS: usize = 6;
const N_SAMPLES: usize = 8;

/// A layered entangling circuit with an output tracepoint — the shape of
/// the comparison workloads that benefit from artifact reuse.
fn workload_circuit() -> Circuit {
    let n = N_QUBITS;
    let mut c = Circuit::new(n);
    for layer in 0..3 {
        for q in 0..n {
            c.h(q);
            c.rz(q, 0.41 * (layer as f64 + 1.0) * (q as f64 + 1.0));
        }
        for q in 0..n - 1 {
            c.cx(q, q + 1);
        }
    }
    c.tracepoint(1, &(0..n).collect::<Vec<_>>());
    c
}

fn config() -> CharacterizationConfig {
    CharacterizationConfig {
        n_samples: N_SAMPLES,
        ensemble: morph_clifford::InputEnsemble::Clifford,
        readout: ReadoutMode::Exact,
        input_qubits: (0..N_QUBITS).collect(),
        noise: NoiseModel::noiseless(),
        parallelism: 1,
        backend: morphqpv::BackendMode::Auto,
    }
}

fn bench_store_cache(c: &mut Criterion) {
    let circuit = workload_circuit();
    let cfg = config();
    let mut group = c.benchmark_group("store_cache");
    group.sample_size(10);

    // Cold: every iteration characterizes into a fresh empty cache.
    group.bench_function("cold_characterize", |b| {
        b.iter(|| {
            let mut cache = CharacterizationCache::in_memory();
            let mut rng = StdRng::seed_from_u64(11);
            characterize_cached(std::hint::black_box(&circuit), &cfg, &mut rng, &mut cache)
        });
    });

    // Warm (memory): one characterization up front, then every iteration
    // is a fingerprint computation plus an in-memory LRU hit.
    group.bench_function("warm_memory_hit", |b| {
        let mut cache = CharacterizationCache::in_memory();
        let mut rng = StdRng::seed_from_u64(11);
        characterize_cached(&circuit, &cfg, &mut rng, &mut cache);
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(11);
            characterize_cached(std::hint::black_box(&circuit), &cfg, &mut rng, &mut cache)
        });
    });

    // Warm (disk): artifacts persisted to a store directory; every
    // iteration drops the in-memory layer first, forcing a JSON decode.
    group.bench_function("warm_disk_hit", |b| {
        let dir = std::env::temp_dir().join(format!("morph-store-bench-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cache = CharacterizationCache::open(&dir).expect("open bench store dir");
        let mut rng = StdRng::seed_from_u64(11);
        characterize_cached(&circuit, &cfg, &mut rng, &mut cache);
        b.iter(|| {
            cache.store_mut().drop_memory();
            let mut rng = StdRng::seed_from_u64(11);
            characterize_cached(std::hint::black_box(&circuit), &cfg, &mut rng, &mut cache)
        });
        let _ = std::fs::remove_dir_all(&dir);
    });

    group.finish();
}

criterion_group!(benches, bench_store_cache);
criterion_main!(benches);
