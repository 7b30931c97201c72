//! Integration tests for the characterization artifact store: proptest
//! round-trips (artifacts survive serialize → persist → load →
//! deserialize bit-identically, including non-finite floats), corruption
//! tolerance, cross-process-style reuse through a tempdir-backed cache,
//! and fingerprint invalidation.

use std::fs;
use std::path::PathBuf;

use morphqpv_suite::core::{
    characterization_fingerprint, ApproximationFunction, AssumeGuarantee, CharacterizationCache,
    CharacterizationConfig, StatePredicate, StateRef, Verifier,
};
use morphqpv_suite::linalg::{CMatrix, C64};
use morphqpv_suite::qprog::{Circuit, TracepointId};
use morphqpv_suite::qsim::NoiseModel;
use morphqpv_suite::store::{Artifact, FingerprintBuilder, MorphStore, Source};
use morphqpv_suite::tomography::CostLedger;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::json::{FromValueError, Value};
use serde::{Deserialize, Serialize};

fn temp_dir(label: &str) -> PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock after epoch")
        .as_nanos();
    let dir = std::env::temp_dir().join(format!(
        "morph-persist-{label}-{}-{nanos}",
        std::process::id()
    ));
    fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// A raw value tree as a store artifact, so each type's own encoding
/// travels the store's real disk path.
struct Payload(Value);

impl Serialize for Payload {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

impl<'de> Deserialize<'de> for Payload {
    fn from_value(value: &Value) -> Result<Self, FromValueError> {
        Ok(Payload(value.clone()))
    }
}

impl Artifact for Payload {
    const DOMAIN: &'static str = "test/persist/v1";
    fn cost(&self) -> u64 {
        1
    }
}

/// Pushes a value through the full persistence path — encode to the store,
/// flush the memory tier, reload from the JSON file — and returns the
/// reloaded payload.
fn disk_round_trip(label: &str, payload: Value) -> Value {
    let dir = temp_dir(label);
    let fp = FingerprintBuilder::new("test/persist/v1")
        .field_str("label", label)
        .finish();
    let reloaded;
    {
        let store = MorphStore::open(&dir).expect("open store");
        let computed = store.get_or_compute(&fp, || Ok(()), || Ok::<_, ()>(Payload(payload)));
        assert_eq!(computed.expect("store").1, Source::Computed);
        store.drop_memory();
        let (artifact, source) = store
            .get_or_compute(&fp, || Ok(()), || Err(()))
            .expect("reload from disk");
        assert_eq!(source, Source::Disk);
        reloaded = artifact.0.clone();
    }
    fs::remove_dir_all(&dir).expect("cleanup");
    reloaded
}

fn assert_matrices_bit_identical(a: &CMatrix, b: &CMatrix) {
    assert_eq!(a.rows(), b.rows());
    assert_eq!(a.cols(), b.cols());
    for r in 0..a.rows() {
        for c in 0..a.cols() {
            let (x, y) = (a.get(r, c).unwrap(), b.get(r, c).unwrap());
            assert_eq!(x.re.to_bits(), y.re.to_bits(), "re mismatch at ({r},{c})");
            assert_eq!(x.im.to_bits(), y.im.to_bits(), "im mismatch at ({r},{c})");
        }
    }
}

/// Arbitrary u64 biased toward the boundary cases that break a JSON path
/// routed through f64: zero, `u64::MAX`, and just past 2^53.
fn arb_u64() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(u64::MAX),
        Just((1u64 << 53) + 1),
        0u64..u64::MAX,
    ]
}

/// A dim-2 pure-state density matrix from Bloch angles.
fn rho_from_angles(theta: f64, phi: f64) -> CMatrix {
    let v = [
        C64::real((theta / 2.0).cos()),
        C64::new(phi.cos(), phi.sin()) * C64::real((theta / 2.0).sin()),
    ];
    CMatrix::outer(&v, &v)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cost ledgers survive the disk round trip digit-exactly, including
    /// counters beyond 2^53 that an f64-mediated JSON path would corrupt.
    #[test]
    fn ledger_round_trips_bit_identically(
        executions in arb_u64(),
        shots in arb_u64(),
        quantum_ops in arb_u64(),
    ) {
        let ledger = CostLedger { executions, shots, quantum_ops };
        let back = CostLedger::from_value(&disk_round_trip("ledger", ledger.to_value()))
            .expect("decode ledger");
        prop_assert_eq!(back, ledger);
    }

    /// Raw matrices survive the disk round trip bit-identically even with
    /// non-finite entries (NaN payloads, infinities, negative zero).
    #[test]
    fn matrix_round_trips_non_finite_bits(
        bits in proptest::collection::vec(arb_u64(), 8..9),
        re in -2.0..2.0f64,
    ) {
        let special = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, re];
        let m = CMatrix::from_fn(2, 2, |r, c| {
            let i = 2 * r + c;
            C64::new(
                f64::from_bits(bits[2 * i]),
                special[(bits[2 * i + 1] % special.len() as u64) as usize],
            )
        });
        let back = CMatrix::from_value(&disk_round_trip("matrix", m.to_value()))
            .expect("decode matrix");
        assert_matrices_bit_identical(&m, &back);
    }

    /// Approximation functions survive the disk round trip: the sampled
    /// bases reload bit-identically and the rebuilt function predicts
    /// bit-identical outputs.
    #[test]
    fn approximation_function_round_trips(
        angles in proptest::collection::vec((0.1..3.0f64, 0.0..6.2f64), 3..4),
        probe_theta in 0.1..3.0f64,
    ) {
        let inputs: Vec<CMatrix> =
            angles.iter().map(|&(t, p)| rho_from_angles(t, p)).collect();
        // A fixed "program": traces are the inputs conjugated by Hadamard.
        let h = CMatrix::from_rows(&[
            &[C64::real(1.0), C64::real(1.0)],
            &[C64::real(1.0), C64::real(-1.0)],
        ]).scale(C64::real(std::f64::consts::FRAC_1_SQRT_2));
        let traces: Vec<CMatrix> =
            inputs.iter().map(|rho| h.matmul(rho).matmul(&h)).collect();
        let f = match ApproximationFunction::new(inputs, traces) {
            Ok(f) => f,
            // Near-duplicate sampled inputs make the gram system singular;
            // such draws are simply skipped.
            Err(_) => continue,
        };
        let back = ApproximationFunction::from_value(&disk_round_trip("approx", f.to_value()))
            .expect("decode approximation function");
        let (span, back_span) = (f.input_span(), back.input_span());
        prop_assert_eq!(span.n_samples(), back_span.n_samples());
        for (a, b) in span.sampled_inputs().iter().zip(back_span.sampled_inputs()) {
            assert_matrices_bit_identical(a, b);
        }
        for (a, b) in f.sampled_traces().iter().zip(back.sampled_traces()) {
            assert_matrices_bit_identical(a, b);
        }
        let probe = rho_from_angles(probe_theta, 0.5);
        if let (Ok(want), Ok(got)) = (f.predict(&probe), back.predict(&probe)) {
            assert_matrices_bit_identical(&want, &got);
        }
    }
}

fn sample_program() -> Circuit {
    let mut c = Circuit::new(2);
    c.tracepoint(1, &[0]);
    c.h(0).cx(0, 1);
    c.tracepoint(2, &[0, 1]);
    c
}

/// A verifier over [`sample_program`] with `samples` inputs on qubit 0;
/// its cache entries are keyed by that characterization.
fn sample_verifier(samples: usize) -> Verifier {
    Verifier::new(sample_program())
        .input_qubits(&[0])
        .samples(samples)
        .assert_that(
            AssumeGuarantee::new()
                .assume(StateRef::Input, StatePredicate::IsPure)
                .guarantee_state(TracepointId(2), StatePredicate::IsPure),
        )
}

fn assert_characterizations_identical(
    a: &morphqpv_suite::core::Characterization,
    b: &morphqpv_suite::core::Characterization,
) {
    assert_eq!(a.ledger, b.ledger);
    assert_eq!(a.inputs.len(), b.inputs.len());
    for (x, y) in a.inputs.iter().zip(&b.inputs) {
        assert_eq!(x.prep, y.prep);
    }
    assert_eq!(
        a.traces.keys().collect::<Vec<_>>(),
        b.traces.keys().collect::<Vec<_>>()
    );
    for (id, states) in &a.traces {
        for (x, y) in states.iter().zip(&b.traces[id]) {
            assert_matrices_bit_identical(x, y);
        }
    }
}

/// The headline acceptance property: re-running a characterization against
/// a persistent cache directory — in a *fresh* cache handle, as a second
/// process would — costs zero new simulation and reproduces the first
/// run's results bit-identically.
#[test]
fn repeated_characterization_is_free_and_bit_identical() {
    let dir = temp_dir("reuse");
    let verifier = sample_verifier(4);
    let run = |cache: &CharacterizationCache| {
        verifier
            .try_run(&mut StdRng::seed_from_u64(42), Some(cache))
            .expect("verification runs")
            .characterization
    };

    let cache = CharacterizationCache::open(&dir).expect("open cache");
    let cold = run(&cache);
    assert_eq!(cache.stats().misses, 1);
    drop(cache);

    let fresh = CharacterizationCache::open(&dir).expect("reopen cache");
    let warm = run(&fresh);
    assert_eq!(fresh.stats().misses, 0, "warm run must not re-simulate");
    assert_eq!(fresh.stats().disk_hits, 1);
    assert!(fresh.stats().cost_saved > 0);
    assert_characterizations_identical(&cold, &warm);
    fs::remove_dir_all(&dir).expect("cleanup");
}

/// A truncated artifact file degrades to a miss (re-characterization), and
/// the rewrite repairs the entry for the next run.
#[test]
fn corrupted_artifact_degrades_to_miss_and_repairs() {
    let dir = temp_dir("corrupt");
    let verifier = sample_verifier(3);
    let run = |cache: &CharacterizationCache| {
        verifier
            .try_run(&mut StdRng::seed_from_u64(9), Some(cache))
            .expect("verification runs")
            .characterization
    };

    run(&CharacterizationCache::open(&dir).expect("open cache"));
    // Truncate every stored artifact.
    for entry in fs::read_dir(&dir).expect("list dir") {
        let path = entry.expect("entry").path();
        let text = fs::read_to_string(&path).expect("read artifact");
        fs::write(&path, &text[..text.len() / 3]).expect("truncate");
    }

    let cache = CharacterizationCache::open(&dir).expect("reopen cache");
    let repaired = run(&cache);
    assert_eq!(cache.stats().misses, 1, "corrupt entry is a miss");
    assert_eq!(cache.stats().corrupt_entries, 1);

    // The miss rewrote the artifact: a third handle hits disk cleanly.
    let again = CharacterizationCache::open(&dir).expect("third open");
    let reloaded = run(&again);
    assert_eq!(again.stats().disk_hits, 1);
    assert_characterizations_identical(&repaired, &reloaded);
    fs::remove_dir_all(&dir).expect("cleanup");
}

/// An artifact whose envelope is intact but whose payload carries an older
/// `artifact_version` no longer decodes: the run reports it as a corrupt
/// miss that saved nothing, recomputes, and rewrites the entry, so the
/// next run hits disk cleanly.
#[test]
fn stale_payload_version_is_a_corrupt_miss_and_repairs() {
    let dir = temp_dir("stale-payload");
    let verifier = sample_verifier(3);
    let run = |cache: &CharacterizationCache| {
        verifier
            .try_run(&mut StdRng::seed_from_u64(5), Some(cache))
            .expect("verification runs")
    };

    let cold = run(&CharacterizationCache::open(&dir).expect("open cache"));
    let mut stamped = 0;
    for entry in fs::read_dir(&dir).expect("list dir") {
        let path = entry.expect("entry").path();
        let text = fs::read_to_string(&path).expect("read artifact");
        let stale = text.replace("\"artifact_version\":4", "\"artifact_version\":3");
        stamped += usize::from(stale != text);
        fs::write(&path, stale).expect("rewrite artifact");
    }
    assert_eq!(
        stamped, 1,
        "one artifact carries the current payload version"
    );

    let stale = run(&CharacterizationCache::open(&dir).expect("reopen cache"));
    let summary = stale.run.cache.expect("cached run carries a summary");
    assert_eq!(
        (summary.hits, summary.misses, summary.corrupt_entries),
        (0, 1, 1),
        "{summary:?}"
    );
    assert_eq!(summary.cost_saved, 0);
    assert_eq!(summary.writes, 1, "the miss rewrites the artifact");
    assert_characterizations_identical(&cold.characterization, &stale.characterization);

    let again = CharacterizationCache::open(&dir).expect("third open");
    let warm = run(&again);
    let stats = again.stats();
    assert_eq!(
        (stats.disk_hits, stats.misses, stats.corrupt_entries),
        (1, 0, 0)
    );
    assert_characterizations_identical(&cold.characterization, &warm.characterization);
    fs::remove_dir_all(&dir).expect("cleanup");
}

/// Any change to the characterized circuit or configuration produces a
/// different content address — the cache can never serve stale artifacts.
#[test]
fn fingerprint_invalidates_on_any_input_change() {
    let circuit = sample_program();
    let config = CharacterizationConfig::exact(vec![0], 4);
    let base = characterization_fingerprint(&circuit, &config, 77);

    let mut gate_tweak = sample_program();
    gate_tweak.z(1);
    assert_ne!(base, characterization_fingerprint(&gate_tweak, &config, 77));

    let noisy = CharacterizationConfig {
        noise: NoiseModel::ibm_cairo(),
        ..config.clone()
    };
    assert_ne!(base, characterization_fingerprint(&circuit, &noisy, 77));

    let bigger = CharacterizationConfig {
        n_samples: 5,
        ..config.clone()
    };
    assert_ne!(base, characterization_fingerprint(&circuit, &bigger, 77));

    assert_ne!(base, characterization_fingerprint(&circuit, &config, 78));
}
