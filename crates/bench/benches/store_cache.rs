//! Characterization-cache bench: cold characterization (full simulator
//! sweep into an empty cache) vs warm reuse (fingerprint + in-memory hit,
//! a pointer clone) vs disk reuse (fingerprint + JSON decode from the
//! store directory).
//!
//! The warm arms must be orders of magnitude cheaper than the cold arm —
//! that gap is the entire value proposition of `morph-store` for
//! re-verifying the same program.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use morph_qprog::Circuit;
use morph_qsim::NoiseModel;
use morph_tomography::ReadoutMode;
use morphqpv::{
    characterization_fingerprint, try_characterize, CancelToken, Characterization,
    CharacterizationCache, CharacterizationConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// Fetch-or-characterize through `CharacterizationCache::get_or_compute`
/// with the discipline `Verifier::try_run` uses: one `u64` drawn from a
/// fixed stream seeds the run and enters the fingerprint.
fn characterize_through(
    cache: &CharacterizationCache,
    circuit: &Circuit,
    cfg: &CharacterizationConfig,
) -> Arc<Characterization> {
    let char_seed: u64 = StdRng::seed_from_u64(11).gen();
    let fp = characterization_fingerprint(circuit, cfg, char_seed);
    let (ch, _) = cache
        .get_or_compute(
            &fp,
            || Ok(()),
            || {
                try_characterize(
                    circuit,
                    cfg,
                    &mut StdRng::seed_from_u64(char_seed),
                    &CancelToken::new(),
                )
            },
        )
        .expect("characterization runs");
    ch
}

fn bench_store_cache(c: &mut Criterion) {
    let circuit = workload_circuit();
    let cfg = config();
    let mut group = c.benchmark_group("store_cache");
    group.sample_size(10);

    // Cold: every iteration characterizes into a fresh empty cache.
    group.bench_function("cold_characterize", |b| {
        b.iter(|| {
            let cache = CharacterizationCache::in_memory();
            characterize_through(&cache, std::hint::black_box(&circuit), &cfg)
        });
    });

    // Warm (memory): one characterization up front, then every iteration
    // is a fingerprint computation plus an in-memory LRU hit.
    group.bench_function("warm_memory_hit", |b| {
        let cache = CharacterizationCache::in_memory();
        characterize_through(&cache, &circuit, &cfg);
        b.iter(|| characterize_through(&cache, std::hint::black_box(&circuit), &cfg));
    });

    // Warm (disk): artifacts persisted to a store directory; every
    // iteration drops the in-memory layer first, forcing a JSON decode.
    group.bench_function("warm_disk_hit", |b| {
        let dir = std::env::temp_dir().join(format!("morph-store-bench-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = CharacterizationCache::open(&dir).expect("open bench store dir");
        characterize_through(&cache, &circuit, &cfg);
        b.iter(|| {
            cache.drop_memory();
            characterize_through(&cache, std::hint::black_box(&circuit), &cfg)
        });
        let _ = std::fs::remove_dir_all(&dir);
    });

    group.finish();
}

criterion_group!(benches, bench_store_cache);
criterion_main!(benches);
