//! Cache-aware characterization (the "morph-store" reuse layer).
//!
//! Characterization is the paper's dominant cost — `N_sample` program
//! executions plus tomography readout per tracepoint — and its output is a
//! pure function of `(circuit, configuration, RNG seed)`. This module
//! content-addresses that function: [`characterization_fingerprint`] hashes
//! the canonical bytes of everything the output depends on, and
//! [`characterize_cached`] consults a [`CharacterizationCache`] before
//! paying for simulation. On a hit the full [`Characterization`] (inputs,
//! per-tracepoint traces, *and* the cost ledger of the original run) is
//! restored from the artifact, so a warm verification run charges zero new
//! simulator cost while reporting results bit-identical to a cold run.
//!
//! Invalidation is purely structural: any change to the circuit (including
//! tracepoint placement), ensemble, readout mode, noise model, sample
//! budget, input-qubit set, or seed changes the fingerprint and therefore
//! misses. `CharacterizationConfig::parallelism` is deliberately *excluded*
//! — characterization is bit-identical at every worker count (see DESIGN.md
//! "Deterministic parallelism"), so worker count must not fragment the
//! cache.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use morph_linalg::CMatrix;
use morph_qprog::{Circuit, TracepointId};
use morph_store::{Fingerprint, FingerprintBuilder, MorphStore, StoreStats};
use morph_tomography::CostLedger;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::json::{FromValueError, Value};
use serde::{Deserialize, Serialize};

use crate::characterize::{characterize_with_inputs, Characterization, CharacterizationConfig};

/// Domain tag prefixed to every characterization fingerprint. Bump the
/// version suffix whenever the characterization algorithm itself changes
/// meaning for the same inputs.
///
/// v2: the simulator switched to qubit-local density kernels, closed-form
/// channels, and statevector gate fusion — numerically equivalent only up
/// to rounding, so artifacts from v1 must not be reused.
///
/// v3: the sweep fuses the shared main circuit once and applies input
/// preparation per lane, unfused, instead of fusing `prep + main` per
/// input — the fusion boundary moved, so results differ from v2 by
/// rounding. The sweep's lane grouping is excluded like `parallelism`:
/// results are bit-identical at every batch size and worker count.
///
/// v4: S/S† execute as exact component swaps (`diag(1, ±i)` without a
/// complex multiply), changing rounding on any circuit containing them,
/// and the sweep may now run on stabilizer/sparse fast paths.
/// `CharacterizationConfig::backend` and `MORPH_BACKEND` are excluded
/// like `parallelism`: the sparse path is bit-identical to dense and the
/// stabilizer path reads out algebraically exact states, so the backend
/// must not fragment the cache.
pub const FINGERPRINT_DOMAIN: &str = "morphqpv/characterization/v4";

/// Version of the artifact payload layout inside the store envelope
/// (the envelope's own schema version is `morph_store::SCHEMA_VERSION`).
///
/// v2 added the `backend` field recording which simulation backend
/// produced the artifact. v3 added `fast_path` (sparse spill/switch/
/// splice counts and the nonzero high-water mark), so warm runs report
/// the same fast-path stats the cold run observed; v2 entries fail
/// decoding and degrade to a miss.
///
/// v4 adds a `kind` discriminator now that whole-run artifacts share the
/// payload envelope with per-segment artifacts
/// (`"characterization"` here, `"segment-pure"` / `"segment-density"` in
/// [`crate::incremental::SegmentedCache`]). v3 entries fail decoding and
/// degrade to a miss.
pub const ARTIFACT_VERSION: u32 = 4;

/// Computes the content address of a characterization run.
///
/// `char_seed` is the single `u64` drawn from the caller's RNG that seeds
/// the run's internal RNG (see [`characterize_cached`]).
pub fn characterization_fingerprint(
    circuit: &Circuit,
    config: &CharacterizationConfig,
    char_seed: u64,
) -> Fingerprint {
    let mut circuit_bytes = Vec::new();
    circuit.canonical_bytes(&mut circuit_bytes);
    let mut noise_bytes = Vec::new();
    config.noise.canonical_bytes(&mut noise_bytes);
    let (readout_tag, readout_param) = config.readout.tag();
    let input_qubits: Vec<u64> = config.input_qubits.iter().map(|&q| q as u64).collect();
    FingerprintBuilder::new(FINGERPRINT_DOMAIN)
        .field_bytes("circuit", &circuit_bytes)
        .field_str("ensemble", config.ensemble.tag())
        .field_str("readout", readout_tag)
        .field_u64("readout-param", readout_param)
        .field_bytes("noise", &noise_bytes)
        .field_u64("n-samples", config.n_samples as u64)
        .field_u64_list("input-qubits", &input_qubits)
        .field_u64("seed", char_seed)
        .finish()
}

/// [`characterization_fingerprint`] for a run with an explicit input set
/// (Strategy-adapt): the inputs' preparation circuits replace the ensemble
/// tag and sample count in the address.
pub fn characterization_fingerprint_with_inputs(
    circuit: &Circuit,
    config: &CharacterizationConfig,
    input_preps: &[&Circuit],
    char_seed: u64,
) -> Fingerprint {
    let mut circuit_bytes = Vec::new();
    circuit.canonical_bytes(&mut circuit_bytes);
    let mut noise_bytes = Vec::new();
    config.noise.canonical_bytes(&mut noise_bytes);
    let mut prep_bytes = Vec::new();
    prep_bytes.extend_from_slice(&(input_preps.len() as u64).to_le_bytes());
    for prep in input_preps {
        prep.canonical_bytes(&mut prep_bytes);
    }
    let (readout_tag, readout_param) = config.readout.tag();
    let input_qubits: Vec<u64> = config.input_qubits.iter().map(|&q| q as u64).collect();
    FingerprintBuilder::new(FINGERPRINT_DOMAIN)
        .field_bytes("circuit", &circuit_bytes)
        .field_bytes("explicit-inputs", &prep_bytes)
        .field_str("readout", readout_tag)
        .field_u64("readout-param", readout_param)
        .field_bytes("noise", &noise_bytes)
        .field_u64_list("input-qubits", &input_qubits)
        .field_u64("seed", char_seed)
        .finish()
}

/// Shared frame of every v4 artifact payload: the version stamp plus the
/// `kind` discriminator. Segment artifacts reuse this envelope.
pub(crate) fn artifact_envelope(kind: &str) -> BTreeMap<String, Value> {
    let mut m = BTreeMap::new();
    m.insert(
        "artifact_version".to_string(),
        Value::UInt(u64::from(ARTIFACT_VERSION)),
    );
    m.insert("kind".to_string(), Value::Str(kind.to_string()));
    m
}

/// Validates the version stamp and `kind` discriminator of a v4 payload.
/// Any mismatch is a decode failure, which the caches treat as a miss.
pub(crate) fn check_artifact_envelope(value: &Value, kind: &str) -> Result<(), FromValueError> {
    let version = value
        .require("artifact_version")?
        .as_u64()
        .ok_or_else(|| FromValueError::new("artifact_version must be an integer"))?;
    if version != u64::from(ARTIFACT_VERSION) {
        return Err(FromValueError::new(format!(
            "artifact version {version} != supported {ARTIFACT_VERSION}"
        )));
    }
    let found = value
        .require("kind")?
        .as_str()
        .ok_or_else(|| FromValueError::new("artifact kind must be a string"))?;
    if found != kind {
        return Err(FromValueError::new(format!(
            "artifact kind {found:?} != expected {kind:?}"
        )));
    }
    Ok(())
}

/// Encodes [`morph_backend::FastPathStats`] as the store payload fragment
/// shared by whole-run and per-segment artifacts.
pub(crate) fn encode_fast_path(stats: &morph_backend::FastPathStats) -> Value {
    let mut fp = BTreeMap::new();
    fp.insert("spills".to_string(), Value::UInt(stats.spills));
    fp.insert("switches".to_string(), Value::UInt(stats.switches));
    fp.insert("splices".to_string(), Value::UInt(stats.splices));
    fp.insert(
        "peak_nonzeros".to_string(),
        Value::UInt(stats.peak_nonzeros),
    );
    Value::Object(fp)
}

/// Decodes the [`encode_fast_path`] fragment.
pub(crate) fn decode_fast_path(fp: &Value) -> Result<morph_backend::FastPathStats, FromValueError> {
    let fp_u64 = |field: &str| -> Result<u64, FromValueError> {
        fp.require(field)?
            .as_u64()
            .ok_or_else(|| FromValueError::new(format!("fast_path.{field} must be an integer")))
    };
    Ok(morph_backend::FastPathStats {
        spills: fp_u64("spills")?,
        switches: fp_u64("switches")?,
        splices: fp_u64("splices")?,
        peak_nonzeros: fp_u64("peak_nonzeros")?,
    })
}

/// Decodes the backend tag shared by whole-run and per-segment artifacts.
pub(crate) fn decode_backend(
    value: &Value,
) -> Result<morph_backend::BackendChoice, FromValueError> {
    value
        .require("backend")?
        .as_str()
        .and_then(morph_backend::BackendChoice::from_tag)
        .ok_or_else(|| FromValueError::new("backend must be a known backend tag"))
}

/// Encodes a [`Characterization`] as the store payload.
fn encode_artifact(ch: &Characterization) -> Value {
    let traces: Vec<(u64, &Vec<CMatrix>)> = ch
        .traces
        .iter()
        .map(|(id, states)| (u64::from(id.0), states))
        .collect();
    let traces_value = Value::Array(
        traces
            .iter()
            .map(|(id, states)| Value::Array(vec![Value::UInt(*id), states.to_value()]))
            .collect(),
    );
    let mut m = artifact_envelope("characterization");
    m.insert("inputs".to_string(), ch.inputs.to_value());
    m.insert("traces".to_string(), traces_value);
    m.insert("ledger".to_string(), ch.ledger.to_value());
    m.insert("backend".to_string(), Value::Str(ch.backend.tag()));
    m.insert("fast_path".to_string(), encode_fast_path(&ch.fast_path));
    Value::Object(m)
}

/// Decodes a store payload back into a [`Characterization`].
fn decode_artifact(value: &Value) -> Result<Characterization, FromValueError> {
    check_artifact_envelope(value, "characterization")?;
    let inputs = Vec::from_value(value.require("inputs")?)?;
    let mut traces: BTreeMap<TracepointId, Vec<CMatrix>> = BTreeMap::new();
    for pair in value
        .require("traces")?
        .as_array()
        .ok_or_else(|| FromValueError::new("traces must be an array of pairs"))?
    {
        match pair.as_array() {
            Some([id, states]) => {
                let id = TracepointId::from_value(id)?;
                traces.insert(id, Vec::from_value(states)?);
            }
            _ => return Err(FromValueError::new("trace entry must be [id, states]")),
        }
    }
    let ledger = CostLedger::from_value(value.require("ledger")?)?;
    let backend = decode_backend(value)?;
    let fast_path = decode_fast_path(value.require("fast_path")?)?;
    Ok(Characterization {
        inputs,
        traces,
        ledger,
        backend,
        fast_path,
    })
}

/// Emits one counter per [`StoreStats`] field that moved across a store
/// operation, keyed by `domain` (a fingerprint domain such as
/// [`FINGERPRINT_DOMAIN`]). Only called with the recorder enabled.
pub(crate) fn record_store_delta(domain: &str, before: &StoreStats, after: &StoreStats) {
    let deltas = [
        ("hit", after.hits() - before.hits()),
        ("miss", after.misses - before.misses),
        ("corrupt", after.corrupt_entries - before.corrupt_entries),
        ("cost_saved", after.cost_saved - before.cost_saved),
    ];
    for (name, delta) in deltas {
        if delta > 0 {
            morph_trace::counter(&format!("store/{domain}/{name}"), delta);
        }
    }
}

/// A characterization artifact cache on top of [`MorphStore`].
///
/// Construct one per process (or per `--cache-dir`) and pass it to
/// [`characterize_cached`]. Artifact cost in the store's cost-aware LRU is
/// the run's `quantum_ops` ledger counter, so the most expensive
/// characterizations are the last to be evicted.
#[derive(Debug)]
pub struct CharacterizationCache {
    store: MorphStore,
}

impl CharacterizationCache {
    /// A memory-only cache (no persistence).
    pub fn in_memory() -> Self {
        CharacterizationCache {
            store: MorphStore::in_memory(),
        }
    }

    /// A persistent cache rooted at `dir` (created if absent).
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be created.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        Ok(CharacterizationCache {
            store: MorphStore::open(dir.as_ref().to_path_buf())?,
        })
    }

    /// Hit/miss/corruption counters.
    pub fn stats(&self) -> &StoreStats {
        self.store.stats()
    }

    /// Looks up an artifact, decoding it into a [`Characterization`].
    /// A decode failure (artifact-version mismatch or damaged payload)
    /// behaves as a miss, matching the store's corruption tolerance.
    pub fn get(&mut self, fp: &Fingerprint) -> Option<Characterization> {
        let before = *self.store.stats();
        let result = self.store.get(fp).and_then(|v| decode_artifact(&v).ok());
        // Counter names are keyed by the fingerprint domain so two caches
        // with different domains stay distinguishable in one trace. The
        // format! allocations only happen with the recorder enabled.
        if morph_trace::enabled() {
            let after = *self.store.stats();
            record_store_delta(FINGERPRINT_DOMAIN, &before, &after);
            if after.hits() > before.hits() && result.is_none() {
                // The envelope was intact but the payload didn't decode —
                // the characterization layer's own corruption repair.
                morph_trace::counter(&format!("store/{FINGERPRINT_DOMAIN}/decode_miss"), 1);
            }
        }
        result
    }

    /// Stores a characterization under its fingerprint. I/O failures are
    /// reported but leave the in-memory tier populated.
    pub fn put(&mut self, fp: Fingerprint, ch: &Characterization) -> io::Result<()> {
        let cost = ch.ledger.quantum_ops.max(1);
        let result = self.store.put(fp, encode_artifact(ch), cost);
        if morph_trace::enabled() {
            morph_trace::counter(&format!("store/{FINGERPRINT_DOMAIN}/write"), 1);
        }
        result
    }

    /// Direct access to the underlying store (stats, eviction counters).
    pub fn store(&self) -> &MorphStore {
        &self.store
    }

    /// Mutable access to the underlying store, e.g. to drop the in-memory
    /// tier ([`MorphStore::drop_memory`]) and force disk reloads.
    pub fn store_mut(&mut self) -> &mut MorphStore {
        &mut self.store
    }
}

/// Cache-aware [`crate::characterize`]: on a hit the stored artifact is
/// returned (zero new simulator cost — the returned ledger is the *restored*
/// ledger of the original run); on a miss the characterization runs and the
/// artifact is stored.
///
/// RNG discipline: exactly one `u64` is drawn from `rng` — it both seeds the
/// run's internal RNG and enters the fingerprint. Hit and miss paths
/// therefore advance the caller's RNG identically, so a warm run is
/// bit-identical to a cold run for everything downstream.
///
/// # Panics
///
/// Same conditions as [`crate::characterize`].
pub fn characterize_cached(
    circuit: &Circuit,
    config: &CharacterizationConfig,
    rng: &mut StdRng,
    cache: &mut CharacterizationCache,
) -> Characterization {
    let char_seed: u64 = rng.gen();
    let fp = characterization_fingerprint(circuit, config, char_seed);
    if let Some(hit) = cache.get(&fp) {
        return hit;
    }
    let mut run_rng = StdRng::seed_from_u64(char_seed);
    let ch = crate::characterize(circuit, config, &mut run_rng);
    // Persistence is best-effort: a read-only cache dir degrades to
    // memory-only caching rather than failing verification.
    let _ = cache.put(fp, &ch);
    ch
}

/// Cache-aware [`characterize_with_inputs`]; the explicit inputs'
/// preparation circuits are part of the content address.
///
/// # Panics
///
/// Same conditions as [`characterize_with_inputs`].
pub fn characterize_with_inputs_cached(
    circuit: &Circuit,
    config: &CharacterizationConfig,
    inputs: Vec<morph_clifford::InputState>,
    rng: &mut StdRng,
    cache: &mut CharacterizationCache,
) -> Characterization {
    let char_seed: u64 = rng.gen();
    let preps: Vec<&Circuit> = inputs.iter().map(|i| &i.prep).collect();
    let fp = characterization_fingerprint_with_inputs(circuit, config, &preps, char_seed);
    if let Some(hit) = cache.get(&fp) {
        return hit;
    }
    let mut run_rng = StdRng::seed_from_u64(char_seed);
    let ch = characterize_with_inputs(circuit, config, inputs, &mut run_rng);
    let _ = cache.put(fp, &ch);
    ch
}

#[cfg(test)]
mod tests {
    use super::*;
    use morph_clifford::InputEnsemble;
    use morph_qsim::NoiseModel;
    use morph_tomography::ReadoutMode;

    fn sample_program() -> Circuit {
        let mut c = Circuit::new(2);
        c.tracepoint(1, &[0]);
        c.h(1).cx(0, 1);
        c.tracepoint(2, &[0, 1]);
        c
    }

    fn assert_same(a: &Characterization, b: &Characterization) {
        assert_eq!(a.ledger, b.ledger);
        assert_eq!(a.inputs.len(), b.inputs.len());
        for (x, y) in a.inputs.iter().zip(&b.inputs) {
            assert_eq!(x.prep, y.prep);
            assert_eq!(x.state, y.state);
            assert_eq!(x.rho, y.rho);
        }
        assert_eq!(
            a.traces.keys().collect::<Vec<_>>(),
            b.traces.keys().collect::<Vec<_>>()
        );
        for (id, states) in &a.traces {
            for (x, y) in states.iter().zip(&b.traces[id]) {
                assert_eq!(x, y, "trace {id} differs");
            }
        }
    }

    #[test]
    fn warm_run_is_bit_identical_and_free() {
        let circuit = sample_program();
        let config = CharacterizationConfig {
            readout: ReadoutMode::Shots(40),
            ..CharacterizationConfig::exact(vec![0], 4)
        };
        let mut cache = CharacterizationCache::in_memory();

        let mut rng_cold = StdRng::seed_from_u64(7);
        let cold = characterize_cached(&circuit, &config, &mut rng_cold, &mut cache);
        assert_eq!(cache.stats().misses, 1);

        let mut rng_warm = StdRng::seed_from_u64(7);
        let warm = characterize_cached(&circuit, &config, &mut rng_warm, &mut cache);
        assert_eq!(cache.stats().memory_hits, 1);
        assert_same(&cold, &warm);

        // Both paths drew exactly one u64 from the caller's stream.
        assert_eq!(rng_cold.gen::<u64>(), rng_warm.gen::<u64>());
    }

    #[test]
    fn cached_matches_uncached_results() {
        // characterize_cached must produce the same characterization as a
        // direct characterize() call seeded with the drawn char_seed.
        let circuit = sample_program();
        let config = CharacterizationConfig::exact(vec![0], 3);
        let mut cache = CharacterizationCache::in_memory();
        let mut rng = StdRng::seed_from_u64(11);
        let cached = characterize_cached(&circuit, &config, &mut rng, &mut cache);

        let mut seed_rng = StdRng::seed_from_u64(11);
        let char_seed: u64 = seed_rng.gen();
        let mut direct_rng = StdRng::seed_from_u64(char_seed);
        let direct = crate::characterize(&circuit, &config, &mut direct_rng);
        assert_same(&cached, &direct);
    }

    #[test]
    fn fingerprint_sensitivity() {
        let circuit = sample_program();
        let config = CharacterizationConfig::exact(vec![0], 4);
        let base = characterization_fingerprint(&circuit, &config, 1);

        // Seed.
        assert_ne!(base, characterization_fingerprint(&circuit, &config, 2));
        // Sample budget.
        let more = CharacterizationConfig {
            n_samples: 5,
            ..config.clone()
        };
        assert_ne!(base, characterization_fingerprint(&circuit, &more, 1));
        // Noise model.
        let noisy = CharacterizationConfig {
            noise: NoiseModel::ibm_cairo(),
            ..config.clone()
        };
        assert_ne!(base, characterization_fingerprint(&circuit, &noisy, 1));
        // Readout mode (including parameter-only changes).
        let shots = CharacterizationConfig {
            readout: ReadoutMode::Shots(100),
            ..config.clone()
        };
        let shots2 = CharacterizationConfig {
            readout: ReadoutMode::Shots(200),
            ..config.clone()
        };
        assert_ne!(base, characterization_fingerprint(&circuit, &shots, 1));
        assert_ne!(
            characterization_fingerprint(&circuit, &shots, 1),
            characterization_fingerprint(&circuit, &shots2, 1)
        );
        // Ensemble.
        let basis = CharacterizationConfig {
            ensemble: InputEnsemble::Basis,
            ..config.clone()
        };
        assert_ne!(base, characterization_fingerprint(&circuit, &basis, 1));
        // Circuit structure (extra gate).
        let mut tweaked = sample_program();
        tweaked.z(1);
        assert_ne!(base, characterization_fingerprint(&tweaked, &config, 1));
        // Parallelism does NOT change the fingerprint.
        let wide = CharacterizationConfig {
            parallelism: 8,
            ..config.clone()
        };
        assert_eq!(base, characterization_fingerprint(&circuit, &wide, 1));
        // Neither does the backend mode: fast paths are value-equivalent
        // to dense, so the backend must not fragment the cache.
        for backend in morph_qprog::BackendMode::ALL {
            let forced = CharacterizationConfig {
                backend,
                ..config.clone()
            };
            assert_eq!(base, characterization_fingerprint(&circuit, &forced, 1));
        }
    }

    #[test]
    fn artifact_round_trips_through_encoding() {
        let circuit = sample_program();
        let config = CharacterizationConfig::exact(vec![0], 3);
        let mut rng = StdRng::seed_from_u64(3);
        let ch = crate::characterize(&circuit, &config, &mut rng);
        let decoded = decode_artifact(&encode_artifact(&ch)).expect("decode");
        assert_same(&ch, &decoded);
    }

    #[test]
    fn artifact_version_mismatch_is_a_miss() {
        let circuit = sample_program();
        let config = CharacterizationConfig::exact(vec![0], 2);
        let mut rng = StdRng::seed_from_u64(4);
        let ch = crate::characterize(&circuit, &config, &mut rng);
        let mut value = encode_artifact(&ch);
        if let Value::Object(m) = &mut value {
            m.insert("artifact_version".to_string(), Value::UInt(999));
        }
        assert!(decode_artifact(&value).is_err());
    }

    #[test]
    fn explicit_input_cache_hits_on_same_inputs() {
        let circuit = sample_program();
        let config = CharacterizationConfig::exact(vec![0], 4);
        let mut cache = CharacterizationCache::in_memory();
        let mut ensemble_rng = StdRng::seed_from_u64(21);
        let inputs = InputEnsemble::PauliProduct.generate(1, 4, &mut ensemble_rng);

        let mut rng = StdRng::seed_from_u64(5);
        let cold = characterize_with_inputs_cached(
            &circuit,
            &config,
            inputs.clone(),
            &mut rng,
            &mut cache,
        );
        let mut rng = StdRng::seed_from_u64(5);
        let warm = characterize_with_inputs_cached(&circuit, &config, inputs, &mut rng, &mut cache);
        assert_eq!(cache.stats().memory_hits, 1);
        assert_same(&cold, &warm);
    }
}
