//! Revision-stream bench: what segment-granular incremental
//! characterization buys in an edit-verify loop.
//!
//! The workload replays a stream of single-gate edits to a 16-qubit
//! program through the segment layer — plan, fingerprint, then
//! fetch-or-characterize each segment against a shared
//! [`SegmentedCache`] — exactly the sweep `try_characterize_incremental`
//! runs before composing. The sweep is the cost driver (simulating every
//! segment on every sample); composition is deliberately excluded here
//! because it walks full-register density matrices and is only practical
//! to ~12 qubits (see DESIGN.md "Segment fingerprinting"), while the
//! cached sweep itself streams statevectors and scales to this width.
//!
//! Arms:
//!
//! - `revise/replay/...`: the full stream, fresh cache per iteration —
//!   the end-to-end edit loop (first revision cold, the rest mostly
//!   warm). The label carries the stream's hit/miss tally from segment
//!   accounting, so perf reports record the hit rate next to the timing.
//! - `revise/cold/revNN`: one revision against a fresh cache — the
//!   from-scratch per-revision latency.
//! - `revise/warm/revNN/hitsHofT`: the same revision against the fully
//!   primed cache — steady-state warm per-revision latency. `HofT` is the
//!   revision's first-encounter hit/miss split from the replay pre-pass
//!   (the honest incremental accounting: a single-gate edit misses at
//!   most two segments).
//!
//! CI asserts warm is at least 5x faster than cold and that the recorded
//! hit counters are nonzero (see `.github/workflows/ci.yml`).
//!
//! Set `MORPH_BENCH_QUICK=1` for the CI smoke subset (shorter stream).

use criterion::{criterion_group, criterion_main, Criterion};
use morph_qprog::{Circuit, Instruction};
use morphqpv::{
    characterize_segment, segment_fingerprint, segment_plan, segment_seed, CharacterizationConfig,
    SegmentedCache, SegmentedConfig,
};

const N_QUBITS: usize = 16;
const SAMPLES: usize = 4;
const SEED: u64 = 10;

fn quick() -> bool {
    std::env::var_os("MORPH_BENCH_QUICK").is_some()
}

fn stream_len() -> usize {
    if quick() {
        4
    } else {
        12
    }
}

/// The program under revision: a Hadamard layer, an entangling ladder,
/// and a rotation layer, traced mid-circuit and at the end.
fn base_circuit() -> Circuit {
    let mut c = Circuit::new(N_QUBITS);
    for q in 0..N_QUBITS {
        c.h(q);
    }
    c.tracepoint(1, &[0, 1]);
    for q in 0..N_QUBITS - 1 {
        c.cx(q, q + 1);
    }
    for q in 0..N_QUBITS {
        c.rz(q, 0.1 + q as f64 * 0.05);
    }
    c.tracepoint(2, &[0, 1, 2]);
    c
}

/// Revision `i` of the stream: one rotation angle nudged, at a gate
/// position that walks the circuit so successive edits land in different
/// segments. Revision 0 is the unedited base program.
fn revision(i: usize) -> Circuit {
    let mut c = base_circuit();
    if i == 0 {
        return c;
    }
    let gate_positions: Vec<usize> = c
        .instructions()
        .iter()
        .enumerate()
        .filter(|(_, inst)| matches!(inst, Instruction::Gate(_)))
        .map(|(p, _)| p)
        .collect();
    let at = gate_positions[(i * 7) % gate_positions.len()];
    c.remove(at);
    let mut nudged = Circuit::new(N_QUBITS);
    nudged.rz(i % N_QUBITS, 0.31 + i as f64 * 0.01);
    c.insert(at, nudged.instructions()[0].clone());
    c
}

fn config() -> CharacterizationConfig {
    CharacterizationConfig::exact(vec![0], SAMPLES)
}

fn seg() -> SegmentedConfig {
    SegmentedConfig::new().segment_gates(8)
}

/// The incremental characterization sweep for one revision: plan,
/// fingerprint, fetch-or-characterize. Returns (hits, misses) with the
/// same accounting `try_characterize_incremental` reports.
fn sweep(circuit: &Circuit, cache: &SegmentedCache) -> (u64, u64) {
    let config = config();
    let plan = segment_plan(circuit, &seg()).expect("benchmark program segments");
    let (mut hits, mut misses) = (0, 0);
    for segment in &plan.segments {
        let fp = segment_fingerprint(segment, &config, SEED);
        if cache.get(&fp).is_some() {
            hits += 1;
        } else {
            let artifact = characterize_segment(segment, &config, segment_seed(&fp));
            let _ = cache.put(fp, &artifact);
            misses += 1;
        }
    }
    (hits, misses)
}

fn bench_revise(c: &mut Criterion) {
    let n = stream_len();
    let revisions: Vec<Circuit> = (0..n).map(revision).collect();

    // Untimed pre-pass: one sequential replay records each revision's
    // first-encounter hit/miss split and primes the warm cache.
    let warm_cache = SegmentedCache::in_memory();
    let splits: Vec<(u64, u64)> = revisions.iter().map(|r| sweep(r, &warm_cache)).collect();
    let (hits, misses) = splits
        .iter()
        .fold((0, 0), |(h, m), &(rh, rm)| (h + rh, m + rm));

    let mut group = c.benchmark_group("revise");
    group.sample_size(10);

    group.bench_function(
        format!("replay/{n}revs/hits{hits}of{}", hits + misses),
        |b| {
            b.iter(|| {
                let cache = SegmentedCache::in_memory();
                for r in &revisions {
                    criterion::black_box(sweep(r, &cache));
                }
            });
        },
    );

    for (i, (r, &(rev_hits, rev_misses))) in revisions.iter().zip(&splits).enumerate() {
        group.bench_function(format!("cold/rev{i:02}"), |b| {
            b.iter(|| {
                let cache = SegmentedCache::in_memory();
                criterion::black_box(sweep(r, &cache));
            });
        });
        group.bench_function(
            format!("warm/rev{i:02}/hits{rev_hits}of{}", rev_hits + rev_misses),
            |b| {
                b.iter(|| criterion::black_box(sweep(r, &warm_cache)));
            },
        );
    }

    group.finish();
}

criterion_group!(benches, bench_revise);
criterion_main!(benches);
