//! Cache-aware characterization (the "morph-store" reuse layer).
//!
//! Characterization is the paper's dominant cost — `N_sample` program
//! executions plus tomography readout per tracepoint — and its output is a
//! pure function of `(circuit, configuration, RNG seed)`. This module
//! content-addresses that function: [`characterization_fingerprint`] hashes
//! the canonical bytes of everything the output depends on, and
//! [`crate::Verifier::try_run`] consults a [`CharacterizationCache`] before
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

use morph_linalg::CMatrix;
use morph_qprog::{Circuit, TracepointId};
use morph_store::{Artifact, Fingerprint, FingerprintBuilder, MorphStore};
use morph_tomography::CostLedger;
use serde::json::{FromValueError, Value};
use serde::{Deserialize, Serialize};

use crate::characterize::{Characterization, CharacterizationConfig};

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
/// `CharacterizationConfig::backend` is excluded like `parallelism`:
/// the sparse path is bit-identical to dense and the stabilizer path
/// reads out algebraically exact states, so the backend must not
/// fragment the cache.
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
/// v4 added a `kind` discriminator (`"characterization"`) when whole-run
/// artifacts shared the payload envelope with per-segment ones; the
/// incremental path's [`crate::incremental::SegmentedCache`] now keeps
/// plain keys outside the store. v3 entries fail decoding and degrade to a
/// miss.
pub const ARTIFACT_VERSION: u32 = 4;

/// Computes the content address of a characterization run.
///
/// `char_seed` is the single `u64` drawn from the caller's RNG that seeds
/// the run's internal RNG (see [`crate::Verifier::try_run`]).
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

/// Frame of a v4 artifact payload: the version stamp plus the `kind`
/// discriminator.
fn artifact_envelope(kind: &str) -> BTreeMap<String, Value> {
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
fn check_artifact_envelope(value: &Value, kind: &str) -> Result<(), FromValueError> {
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

/// Encodes [`morph_backend::FastPathStats`] as a store payload fragment.
fn encode_fast_path(stats: &morph_backend::FastPathStats) -> Value {
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
fn decode_fast_path(fp: &Value) -> Result<morph_backend::FastPathStats, FromValueError> {
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

/// Decodes an artifact's backend tag.
fn decode_backend(value: &Value) -> Result<morph_backend::BackendChoice, FromValueError> {
    value
        .require("backend")?
        .as_str()
        .and_then(morph_backend::BackendChoice::from_tag)
        .ok_or_else(|| FromValueError::new("backend must be a known backend tag"))
}

impl Serialize for Characterization {
    fn to_value(&self) -> Value {
        let traces = self
            .traces
            .iter()
            .map(|(id, states)| Value::Array(vec![id.to_value(), states.to_value()]))
            .collect();
        let mut m = artifact_envelope("characterization");
        m.insert("inputs".to_string(), self.inputs.to_value());
        m.insert("traces".to_string(), Value::Array(traces));
        m.insert("ledger".to_string(), self.ledger.to_value());
        m.insert("backend".to_string(), Value::Str(self.backend.tag()));
        m.insert("fast_path".to_string(), encode_fast_path(&self.fast_path));
        Value::Object(m)
    }
}

impl<'de> Deserialize<'de> for Characterization {
    fn from_value(value: &Value) -> Result<Self, FromValueError> {
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
        Ok(Characterization {
            inputs,
            traces,
            ledger: CostLedger::from_value(value.require("ledger")?)?,
            backend: decode_backend(value)?,
            fast_path: decode_fast_path(value.require("fast_path")?)?,
        })
    }
}

impl Artifact for Characterization {
    const DOMAIN: &'static str = FINGERPRINT_DOMAIN;

    /// The run's `quantum_ops`, so the most expensive characterizations
    /// are the last to be evicted.
    fn cost(&self) -> u64 {
        self.ledger.quantum_ops.max(1)
    }
}

/// The whole-run characterization artifact cache: a [`MorphStore`] of
/// decoded [`Characterization`]s, keyed by
/// [`characterization_fingerprint`].
///
/// Construct one per process (or per `--cache-dir`) and pass it to
/// [`crate::Verifier::try_run`], or obtain artifacts directly with
/// [`MorphStore::get_or_compute`]. A hit hands out the stored `Arc`; a
/// payload that no longer decodes (for example an older
/// [`ARTIFACT_VERSION`]) is a corrupt miss.
pub type CharacterizationCache = MorphStore<Characterization>;

#[cfg(test)]
mod tests {
    use super::*;
    use morph_clifford::InputEnsemble;
    use morph_qsim::NoiseModel;
    use morph_tomography::ReadoutMode;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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

    fn characterized(n_samples: usize, seed: u64) -> Characterization {
        let config = CharacterizationConfig::exact(vec![0], n_samples);
        let mut rng = StdRng::seed_from_u64(seed);
        crate::try_characterize(&sample_program(), &config, &mut rng, &Default::default())
            .expect("sample program characterizes")
    }

    #[test]
    fn artifact_round_trips_through_encoding() {
        let ch = characterized(3, 3);
        let decoded = Characterization::from_value(&ch.to_value()).expect("decode");
        assert_same(&ch, &decoded);
    }

    #[test]
    fn artifact_version_mismatch_is_a_miss() {
        let mut value = characterized(2, 4).to_value();
        if let Value::Object(m) = &mut value {
            m.insert("artifact_version".to_string(), Value::UInt(999));
        }
        assert!(Characterization::from_value(&value).is_err());
    }
}
