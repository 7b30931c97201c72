//! Segment-granular incremental characterization (the "revision loop").
//!
//! The PR-2 store content-addresses whole `(circuit, config, seed)` runs:
//! edit one gate and the fingerprint changes, so everything recomputes.
//! This module makes characterization *incremental* across program
//! revisions by splitting the circuit into segments whose identities
//! depend only on their own content:
//!
//! 1. **Segmentation** ([`segment_plan`]): a canonical pass over the IR
//!    that cuts at every tracepoint and at content-defined gate
//!    boundaries. Whether a boundary follows gate `g` is a pure function
//!    of `g`'s own canonical bytes (hashed into
//!    [`SEGMENT_CUT_DOMAIN`], cut when the hash is `0 mod
//!    segment_gates`), so editing gate `k` never moves a boundary
//!    elsewhere — the classic content-defined-chunking trick. Mean
//!    segment length is [`SegmentedConfig::segment_gates`].
//! 2. **Per-segment fingerprints** ([`segment_fingerprint`]): each
//!    segment is addressed by its own circuit bytes plus the
//!    characterization config (ensemble, readout, noise, sample budget)
//!    and the run's master seed — *not* by its position in the program.
//!    A segment's RNG seed is derived from its fingerprint, so its
//!    artifact is position-independent and reusable wherever the same
//!    gates appear. Parallelism, sweep mode, and backend are excluded
//!    exactly as in the whole-run fingerprint: results are bit-identical
//!    across all of them, so they must not fragment the cache.
//! 3. **Structural diff + reuse** ([`try_characterize_incremental`]):
//!    the revised circuit's segment fingerprints are matched against the
//!    [`SegmentedCache`]. Reuse is content-addressed (any segment seen
//!    before, anywhere, is a hit); the longest-common-prefix/suffix
//!    against the previous revision is additionally reported as
//!    [`SegmentReport::reused_prefix`]/[`reused_suffix`](SegmentReport::reused_suffix)
//!    so callers can see that an edit to layer `k` kept everything
//!    outside `k`'s chunk.
//! 4. **Composition**: cached stage artifacts plus freshly characterized
//!    deltas rebuild the [`ChainedApproximation`], and the tracepoint
//!    traces are synthesized by walking each sampled input's density
//!    matrix through the stage functions — yielding a full
//!    [`Characterization`] that downstream validation consumes unchanged.
//!
//! Noiseless exact-readout runs store segments as pure boundary
//! statevectors (cheap, scales to wide registers); noisy or shot-limited
//! runs delegate to the density-matrix characterization per segment.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::io;
use std::path::Path;

use morph_backend::{BackendChoice, FastPathStats};
use morph_clifford::{basis_prep, clifford_prep, pauli_product_prep, InputEnsemble, InputState};
use morph_linalg::{CMatrix, SolveError};
use morph_qprog::{Circuit, Instruction, TracepointId};
use morph_qsim::{DensityMatrix, StateVector};
use morph_store::{Fingerprint, FingerprintBuilder, MorphStore, StoreStats};
use morph_tomography::{CostLedger, ReadoutMode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::json::{FromValueError, Value};
use serde::{Deserialize, Serialize};

use crate::approx::{ApproximationFunction, ChainedApproximation};
use crate::cache::{
    artifact_envelope, check_artifact_envelope, decode_backend, decode_fast_path, encode_fast_path,
    record_store_delta,
};
use crate::characterize::{check_preconditions, Characterization, CharacterizationConfig};
use crate::error::Precondition;

/// Domain tag for per-segment artifact fingerprints. Bump the version
/// suffix whenever segment characterization changes meaning for the same
/// inputs.
pub const SEGMENT_DOMAIN: &str = "morphqpv/segment/v1";

/// Domain tag for the content-defined boundary decision. Changing this
/// (or the cut rule) re-segments every program, invalidating all cached
/// segments at once — bump deliberately.
pub const SEGMENT_CUT_DOMAIN: &str = "morphqpv/segment-cut/v1";

/// Default mean segment length, in gates.
pub const DEFAULT_SEGMENT_GATES: usize = 4;

/// Tuning knobs for the segmentation pass.
///
/// Build one with [`SegmentedConfig::new`] and the builder-style setters,
/// or [`SegmentedConfig::from_env`] to honor `MORPH_SEGMENT_GATES`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentedConfig {
    /// Target mean gates per segment (content-defined, so individual
    /// segments vary around this). `1` cuts after every gate.
    pub segment_gates: usize,
}

impl Default for SegmentedConfig {
    fn default() -> Self {
        SegmentedConfig {
            segment_gates: DEFAULT_SEGMENT_GATES,
        }
    }
}

impl SegmentedConfig {
    /// The default configuration ([`DEFAULT_SEGMENT_GATES`] gates per
    /// segment on average).
    pub fn new() -> Self {
        SegmentedConfig::default()
    }

    /// Sets the target mean segment length in gates.
    pub fn segment_gates(mut self, gates: usize) -> Self {
        self.segment_gates = gates;
        self
    }

    /// The default configuration with `MORPH_SEGMENT_GATES` applied when
    /// set and valid (invalid values warn and keep the default).
    pub fn from_env() -> Self {
        let mut cfg = SegmentedConfig::default();
        match morph_trace::env_knob::<usize>("MORPH_SEGMENT_GATES") {
            Some(0) => morph_trace::warn_invalid_knob(
                "MORPH_SEGMENT_GATES",
                "0",
                "segment size must be >= 1 gate",
            ),
            Some(gates) => cfg.segment_gates = gates,
            None => {}
        }
        cfg
    }
}

/// Structured failure modes of the segmented/incremental surface.
#[derive(Debug)]
pub enum SegmentError {
    /// The program contains measurement, reset, or classical feedback.
    NotUnitary,
    /// The program has no gates to segment.
    NoGates,
    /// The program or configuration cannot be characterized (no
    /// tracepoints, bad input qubits, zero samples, an over-wide noisy
    /// register).
    Precondition(Precondition),
    /// `n_segments == 0` was requested.
    ZeroSegments,
    /// `segment_gates == 0` was configured.
    ZeroSegmentGates,
    /// More segments were requested than the program has gates.
    TooManySegments {
        /// The requested segment count.
        requested: usize,
        /// The program's gate count.
        gates: usize,
    },
    /// The per-segment stages could not be composed into a chain.
    Compose(SolveError),
}

impl fmt::Display for SegmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegmentError::NotUnitary => {
                write!(
                    f,
                    "segmented characterization requires a measurement-free program"
                )
            }
            SegmentError::NoGates => {
                write!(f, "segmented characterization requires at least one gate")
            }
            SegmentError::Precondition(e) => write!(f, "{e}"),
            SegmentError::ZeroSegments => write!(f, "need at least one segment"),
            SegmentError::ZeroSegmentGates => {
                write!(f, "segment size must be at least one gate")
            }
            SegmentError::TooManySegments { requested, gates } => write!(
                f,
                "requested {requested} segments but the program has only {gates} gates"
            ),
            SegmentError::Compose(e) => write!(f, "segment composition failed: {e}"),
        }
    }
}

impl std::error::Error for SegmentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SegmentError::Precondition(e) => Some(e),
            SegmentError::Compose(e) => Some(e),
            _ => None,
        }
    }
}

/// The canonical segmentation of a circuit: maximal gate runs split at
/// tracepoints and content-defined boundaries.
#[derive(Debug, Clone)]
pub struct SegmentPlan {
    /// Register width shared by every segment.
    pub n_qubits: usize,
    /// The gate-only segment circuits, in program order.
    pub segments: Vec<Circuit>,
    /// Each tracepoint as `(id, qubits, boundary)`: the tracepoint
    /// observes the state after `boundary` segments have been applied.
    pub tracepoints: Vec<(TracepointId, Vec<usize>, usize)>,
}

/// Whether a boundary follows this gate: a pure function of the gate's
/// own canonical bytes, so edits elsewhere never move it.
fn gate_cuts(inst: &Instruction, n_qubits: usize, segment_gates: usize) -> bool {
    if segment_gates <= 1 {
        return true;
    }
    let mut probe = Circuit::new(n_qubits);
    probe.push(inst.clone());
    let mut bytes = Vec::new();
    probe.canonical_bytes(&mut bytes);
    let fp = FingerprintBuilder::new(SEGMENT_CUT_DOMAIN)
        .field_bytes("gate", &bytes)
        .finish();
    let mut prefix = [0u8; 8];
    prefix.copy_from_slice(&fp.0[..8]);
    u64::from_le_bytes(prefix) % (segment_gates as u64) == 0
}

/// Computes the canonical segmentation of `circuit` under `config`.
///
/// # Errors
///
/// [`SegmentError::ZeroSegmentGates`] for a zero segment size,
/// [`SegmentError::NotUnitary`] for programs with measurement/feedback,
/// [`SegmentError::NoGates`] for gate-free programs.
pub fn segment_plan(
    circuit: &Circuit,
    config: &SegmentedConfig,
) -> Result<SegmentPlan, SegmentError> {
    if config.segment_gates == 0 {
        return Err(SegmentError::ZeroSegmentGates);
    }
    if circuit.has_nonunitary() {
        return Err(SegmentError::NotUnitary);
    }
    let n = circuit.n_qubits();
    let mut segments: Vec<Circuit> = Vec::new();
    let mut tracepoints = Vec::new();
    let mut current = Circuit::new(n);
    let mut current_len = 0usize;
    for inst in circuit.instructions() {
        match inst {
            Instruction::Gate(_) => {
                current.push(inst.clone());
                current_len += 1;
                if gate_cuts(inst, n, config.segment_gates) {
                    segments.push(std::mem::replace(&mut current, Circuit::new(n)));
                    current_len = 0;
                }
            }
            Instruction::Tracepoint { id, qubits } => {
                if current_len > 0 {
                    segments.push(std::mem::replace(&mut current, Circuit::new(n)));
                    current_len = 0;
                }
                tracepoints.push((*id, qubits.clone(), segments.len()));
            }
            Instruction::Barrier => {}
            _ => return Err(SegmentError::NotUnitary),
        }
    }
    if current_len > 0 {
        segments.push(current);
    }
    if segments.is_empty() {
        return Err(SegmentError::NoGates);
    }
    Ok(SegmentPlan {
        n_qubits: n,
        segments,
        tracepoints,
    })
}

/// Content address of one segment's characterization artifact.
///
/// Position-independent: only the segment's own circuit bytes, the
/// characterization config (minus parallelism/sweep/backend and minus
/// `input_qubits` — segments always span the full register), and the
/// run's master seed enter the hash.
pub fn segment_fingerprint(
    segment: &Circuit,
    config: &CharacterizationConfig,
    master_seed: u64,
) -> Fingerprint {
    let mut circuit_bytes = Vec::new();
    segment.canonical_bytes(&mut circuit_bytes);
    let mut noise_bytes = Vec::new();
    config.noise.canonical_bytes(&mut noise_bytes);
    let (readout_tag, readout_param) = config.readout.tag();
    FingerprintBuilder::new(SEGMENT_DOMAIN)
        .field_bytes("circuit", &circuit_bytes)
        .field_str("ensemble", config.ensemble.tag())
        .field_str("readout", readout_tag)
        .field_u64("readout-param", readout_param)
        .field_bytes("noise", &noise_bytes)
        .field_u64("n-samples", config.n_samples as u64)
        .field_u64("seed", master_seed)
        .finish()
}

/// The segment's RNG seed, derived from its content address so the
/// artifact is reproducible wherever the segment appears. Public so
/// callers driving [`characterize_segment`] directly (e.g. the revision
/// bench) reproduce the exact artifact the incremental path would store.
pub fn segment_seed(fp: &Fingerprint) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&fp.0[..8]);
    u64::from_le_bytes(b)
}

/// One characterized segment, as stored.
#[derive(Debug, Clone)]
pub enum SegmentStage {
    /// Noiseless exact-readout runs: sampled boundary statevectors
    /// (input/output pairs). Cheap to store and simulate, so this form
    /// scales to registers far wider than the density path.
    Pure {
        /// Sampled input states at the segment's entry boundary.
        inputs: Vec<StateVector>,
        /// The same states propagated to the exit boundary.
        outputs: Vec<StateVector>,
    },
    /// Noisy or shot-limited runs: the fitted density-matrix stage map.
    Density(ApproximationFunction),
}

/// A per-segment cache artifact: the stage plus the cost/backend
/// metadata a warm run must restore.
#[derive(Debug, Clone)]
pub struct SegmentArtifact {
    /// The stage payload.
    pub stage: SegmentStage,
    /// Cost of the original characterization run for this segment.
    pub ledger: CostLedger,
    /// Backend that produced the artifact.
    pub backend: BackendChoice,
    /// Fast-path statistics of the original run.
    pub fast_path: FastPathStats,
}

fn apply_unitary(circuit: &Circuit, psi: &mut StateVector) {
    for inst in circuit.instructions() {
        match inst {
            Instruction::Gate(g) => g.apply(psi),
            Instruction::Barrier => {}
            other => panic!("segment must be unitary, got {other:?}"),
        }
    }
}

/// Whether `config` characterizes segments as pure boundary states.
fn pure_mode(config: &CharacterizationConfig) -> bool {
    config.noise.is_noiseless() && matches!(config.readout, ReadoutMode::Exact)
}

/// Characterizes one segment from scratch under `config`, seeded by
/// `seg_seed` (normally [`segment_fingerprint`]-derived — see
/// [`try_characterize_incremental`]).
///
/// Noiseless exact-readout configs sample the ensemble as statevectors
/// and record boundary pairs; anything else delegates to the full
/// density-matrix characterization of the segment.
///
/// # Panics
///
/// Same conditions as [`crate::characterize`] on the density path
/// (noisy registers wider than 12 qubits, zero samples).
pub fn characterize_segment(
    segment: &Circuit,
    config: &CharacterizationConfig,
    seg_seed: u64,
) -> SegmentArtifact {
    let n = segment.n_qubits();
    if pure_mode(config) {
        let mut rng = StdRng::seed_from_u64(seg_seed);
        let master = morph_parallel::derive_master(&mut rng);
        let mut ledger = CostLedger::new();
        let mut inputs = Vec::with_capacity(config.n_samples);
        let mut outputs = Vec::with_capacity(config.n_samples);
        for i in 0..config.n_samples {
            // Mirrors `InputEnsemble::generate`'s preparation circuits
            // without materializing the 2^n x 2^n density matrices the
            // `InputState` form carries.
            let prep = match config.ensemble {
                InputEnsemble::Basis => basis_prep(n, i % (1usize << n.min(30))),
                InputEnsemble::PauliProduct => pauli_product_prep(n, i),
                InputEnsemble::Clifford => {
                    let mut child = morph_parallel::child_rng(master, i as u64);
                    clifford_prep(n, i % (1usize << n.min(30)), &mut child)
                }
            };
            let mut psi = StateVector::zero_state(n);
            apply_unitary(&prep, &mut psi);
            inputs.push(psi.clone());
            apply_unitary(segment, &mut psi);
            outputs.push(psi);
            ledger.executions += 1;
            ledger.quantum_ops += (prep.op_cost() + segment.op_cost()) as u64;
        }
        SegmentArtifact {
            stage: SegmentStage::Pure { inputs, outputs },
            ledger,
            backend: BackendChoice::Dense,
            fast_path: FastPathStats::default(),
        }
    } else {
        let all: Vec<usize> = (0..n).collect();
        let mut seg_circ = segment.clone();
        seg_circ.tracepoint(0, &all);
        let seg_config = CharacterizationConfig {
            input_qubits: all,
            ..config.clone()
        };
        let mut seg_rng = StdRng::seed_from_u64(seg_seed);
        let ch = crate::characterize(&seg_circ, &seg_config, &mut seg_rng);
        SegmentArtifact {
            stage: SegmentStage::Density(ch.approximation(TracepointId(0))),
            ledger: ch.ledger,
            backend: ch.backend,
            fast_path: ch.fast_path,
        }
    }
}

/// The density-matrix stage map of a stored segment: pure boundary pairs
/// are lifted to rank-one densities, density stages are used as-is.
///
/// # Errors
///
/// The [`SolveError`] if the boundary samples cannot be fitted (e.g.
/// zero samples survived decoding).
pub fn stage_function(stage: &SegmentStage) -> Result<ApproximationFunction, SolveError> {
    match stage {
        SegmentStage::Pure { inputs, outputs } => {
            let ins: Vec<CMatrix> = inputs
                .iter()
                .map(|v| CMatrix::outer(v.amplitudes(), v.amplitudes()))
                .collect();
            let outs: Vec<CMatrix> = outputs
                .iter()
                .map(|v| CMatrix::outer(v.amplitudes(), v.amplitudes()))
                .collect();
            ApproximationFunction::new(ins, outs)
        }
        SegmentStage::Density(f) => Ok(f.clone()),
    }
}

fn encode_segment_artifact(a: &SegmentArtifact) -> Value {
    let mut m = match &a.stage {
        SegmentStage::Pure { inputs, outputs } => {
            let mut m = artifact_envelope("segment-pure");
            m.insert("inputs".to_string(), inputs.to_value());
            m.insert("outputs".to_string(), outputs.to_value());
            m
        }
        SegmentStage::Density(f) => {
            let mut m = artifact_envelope("segment-density");
            m.insert("stage".to_string(), f.to_value());
            m
        }
    };
    m.insert("ledger".to_string(), a.ledger.to_value());
    m.insert("backend".to_string(), Value::Str(a.backend.tag()));
    m.insert("fast_path".to_string(), encode_fast_path(&a.fast_path));
    Value::Object(m)
}

fn decode_segment_artifact(value: &Value) -> Result<SegmentArtifact, FromValueError> {
    let kind = value
        .require("kind")?
        .as_str()
        .ok_or_else(|| FromValueError::new("artifact kind must be a string"))?
        .to_string();
    // The kind is dispatched below; the envelope check still validates
    // the artifact version.
    check_artifact_envelope(value, &kind)?;
    let stage = match kind.as_str() {
        "segment-pure" => SegmentStage::Pure {
            inputs: Vec::from_value(value.require("inputs")?)?,
            outputs: Vec::from_value(value.require("outputs")?)?,
        },
        "segment-density" => {
            SegmentStage::Density(ApproximationFunction::from_value(value.require("stage")?)?)
        }
        other => {
            return Err(FromValueError::new(format!(
                "unknown segment artifact kind {other:?}"
            )))
        }
    };
    Ok(SegmentArtifact {
        stage,
        ledger: CostLedger::from_value(value.require("ledger")?)?,
        backend: decode_backend(value)?,
        fast_path: decode_fast_path(value.require("fast_path")?)?,
    })
}

/// Decoded artifacts kept per cache (FIFO-bounded). Decoding a wide
/// segment's statevector pairs out of the store's [`Value`] form costs
/// more than the hash-and-lookup around it, so revision loops that hit
/// the same segments every pass keep the decoded form hot.
const DECODED_CAP: usize = 64;

/// A per-segment artifact cache over [`MorphStore`], plus the previous
/// revision's segment-fingerprint list for prefix/suffix diff reporting.
///
/// Hits are served from a bounded decoded-artifact tier when possible
/// (64 entries, FIFO; filled by earlier `get`/`put` calls in this
/// process), skipping the store's [`Value`] round-trip; the store below
/// remains the source of truth and the only persistent tier.
#[derive(Debug)]
pub struct SegmentedCache {
    store: MorphStore,
    last_plan: Option<Vec<Fingerprint>>,
    decoded: BTreeMap<Fingerprint, SegmentArtifact>,
    decoded_order: VecDeque<Fingerprint>,
}

impl SegmentedCache {
    /// A memory-only cache (no persistence).
    pub fn in_memory() -> Self {
        SegmentedCache {
            store: MorphStore::in_memory(),
            last_plan: None,
            decoded: BTreeMap::new(),
            decoded_order: VecDeque::new(),
        }
    }

    /// A persistent cache rooted at `dir` (created if absent). Sharing a
    /// directory with a [`crate::CharacterizationCache`] is safe — the
    /// two fingerprint domains cannot collide.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be created.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        Ok(SegmentedCache {
            store: MorphStore::open(dir.as_ref().to_path_buf())?,
            last_plan: None,
            decoded: BTreeMap::new(),
            decoded_order: VecDeque::new(),
        })
    }

    /// Hit/miss/corruption counters.
    pub fn stats(&self) -> &StoreStats {
        self.store.stats()
    }

    /// Looks up a segment artifact. Decode failures (version or kind
    /// mismatch, damaged payload) behave as misses.
    pub fn get(&mut self, fp: &Fingerprint) -> Option<SegmentArtifact> {
        if let Some(artifact) = self.decoded.get(fp) {
            if morph_trace::enabled() {
                morph_trace::counter(&format!("store/{SEGMENT_DOMAIN}/decoded_hit"), 1);
            }
            return Some(artifact.clone());
        }
        let before = *self.store.stats();
        let result = self
            .store
            .get(fp)
            .and_then(|v| decode_segment_artifact(&v).ok());
        if morph_trace::enabled() {
            let after = *self.store.stats();
            record_store_delta(SEGMENT_DOMAIN, &before, &after);
            if after.hits() > before.hits() && result.is_none() {
                morph_trace::counter(&format!("store/{SEGMENT_DOMAIN}/decode_miss"), 1);
            }
        }
        if let Some(artifact) = &result {
            self.memoize(*fp, artifact.clone());
        }
        result
    }

    /// Inserts into the decoded tier, evicting oldest-first past
    /// [`DECODED_CAP`].
    fn memoize(&mut self, fp: Fingerprint, artifact: SegmentArtifact) {
        if self.decoded.insert(fp, artifact).is_none() {
            self.decoded_order.push_back(fp);
            if self.decoded_order.len() > DECODED_CAP {
                if let Some(oldest) = self.decoded_order.pop_front() {
                    self.decoded.remove(&oldest);
                }
            }
        }
    }

    /// Stores a segment artifact under its fingerprint. I/O failures are
    /// reported but leave the in-memory tier populated.
    pub fn put(&mut self, fp: Fingerprint, artifact: &SegmentArtifact) -> io::Result<()> {
        self.memoize(fp, artifact.clone());
        let cost = artifact.ledger.quantum_ops.max(1);
        let result = self.store.put(fp, encode_segment_artifact(artifact), cost);
        if morph_trace::enabled() {
            morph_trace::counter(&format!("store/{SEGMENT_DOMAIN}/write"), 1);
        }
        result
    }

    /// Direct access to the underlying store.
    pub fn store(&self) -> &MorphStore {
        &self.store
    }

    /// Mutable access to the underlying store.
    pub fn store_mut(&mut self) -> &mut MorphStore {
        &mut self.store
    }
}

/// Per-revision segment reuse accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegmentReport {
    /// Segments in this revision's plan.
    pub total: u64,
    /// Positions served from the cache (or deduplicated within the run).
    pub hits: u64,
    /// Unique segments characterized from scratch.
    pub misses: u64,
    /// Leading segments identical to the previous revision in this
    /// cache (longest common prefix of the fingerprint lists).
    pub reused_prefix: u64,
    /// Trailing segments identical to the previous revision (longest
    /// common suffix, disjoint from the prefix).
    pub reused_suffix: u64,
}

/// The result of an incremental characterization: the full
/// [`Characterization`] (bit-identical between cold and warm runs), the
/// composed per-segment chain, and the reuse report.
#[derive(Debug, Clone)]
pub struct IncrementalCharacterization {
    /// The synthesized whole-program characterization, consumable by
    /// validation exactly like [`crate::characterize`]'s output.
    pub characterization: Characterization,
    /// The per-segment stage chain.
    pub chain: ChainedApproximation,
    /// Per-segment hit/miss and prefix/suffix reuse.
    pub segments: SegmentReport,
}

/// Incremental [`crate::characterize`]: segments the program, reuses
/// every cached segment artifact, characterizes only the deltas, and
/// rebuilds the full characterization by composition.
///
/// RNG discipline matches [`crate::characterize_cached`]: exactly one
/// `u64` is drawn from `rng`, so hit and miss paths advance the caller's
/// RNG identically and a warm run is bit-identical to a cold run.
///
/// # Errors
///
/// See [`SegmentError`]; a configuration [`crate::try_characterize`]
/// would refuse is a [`SegmentError::Precondition`].
pub fn try_characterize_incremental(
    circuit: &Circuit,
    config: &CharacterizationConfig,
    seg: &SegmentedConfig,
    rng: &mut StdRng,
    cache: &mut SegmentedCache,
) -> Result<IncrementalCharacterization, SegmentError> {
    let master_seed: u64 = rng.gen();
    incremental_for_seed(circuit, config, seg, master_seed, cache)
}

/// [`try_characterize_incremental`] with the master seed already drawn.
fn incremental_for_seed(
    circuit: &Circuit,
    config: &CharacterizationConfig,
    seg: &SegmentedConfig,
    master_seed: u64,
    cache: &mut SegmentedCache,
) -> Result<IncrementalCharacterization, SegmentError> {
    let plan = segment_plan(circuit, seg)?;
    check_preconditions(circuit, config, config.n_samples).map_err(SegmentError::Precondition)?;
    let n = plan.n_qubits;
    let n_in = config.input_qubits.len();

    // Fingerprint every segment, then fetch-or-characterize each unique
    // fingerprint once. A position is a hit when its artifact came from
    // the cache or from an earlier identical segment in the same run.
    let fps: Vec<Fingerprint> = plan
        .segments
        .iter()
        .map(|s| segment_fingerprint(s, config, master_seed))
        .collect();
    let mut artifacts: BTreeMap<Fingerprint, SegmentArtifact> = BTreeMap::new();
    let mut hits = 0u64;
    let mut misses = 0u64;
    for (segment, fp) in plan.segments.iter().zip(&fps) {
        if artifacts.contains_key(fp) {
            hits += 1;
            continue;
        }
        if let Some(artifact) = cache.get(fp) {
            hits += 1;
            artifacts.insert(*fp, artifact);
            continue;
        }
        let artifact = characterize_segment(segment, config, segment_seed(fp));
        misses += 1;
        // Persistence is best-effort, as in `characterize_cached`.
        let _ = cache.put(*fp, &artifact);
        artifacts.insert(*fp, artifact);
    }
    morph_trace::counter("incremental/segments", fps.len() as u64);
    if hits > 0 {
        morph_trace::counter("incremental/segment_hit", hits);
    }
    if misses > 0 {
        morph_trace::counter("incremental/segment_miss", misses);
    }

    // Positional diff against the previous revision seen by this cache:
    // longest common prefix, then the longest common suffix over the
    // remainder (clamped so the two never overlap).
    let (reused_prefix, reused_suffix) = match &cache.last_plan {
        Some(prev) => {
            let lcp = prev.iter().zip(&fps).take_while(|(a, b)| a == b).count();
            let max_suffix = prev.len().min(fps.len()) - lcp;
            let suffix = prev
                .iter()
                .rev()
                .zip(fps.iter().rev())
                .take_while(|(a, b)| a == b)
                .count()
                .min(max_suffix);
            (lcp as u64, suffix as u64)
        }
        None => (0, 0),
    };
    cache.last_plan = Some(fps.clone());

    // Compose: per-position stage functions (duplicates share their
    // artifact but get their own fitted stage), merged cost metadata.
    let mut stage_fns = Vec::with_capacity(fps.len());
    let mut ledger = CostLedger::new();
    let mut fast_path = FastPathStats::default();
    let mut backend = None;
    for fp in &fps {
        let artifact = &artifacts[fp];
        stage_fns.push(stage_function(&artifact.stage).map_err(SegmentError::Compose)?);
        ledger.merge(&artifact.ledger);
        fast_path.merge(&artifact.fast_path);
        if backend.is_none() {
            backend = Some(artifact.backend);
        }
    }

    // Synthesize the whole-program characterization: sample the global
    // input ensemble from the master seed, walk each input's density
    // matrix through the stages, and record every tracepoint's partial
    // trace at its boundary.
    let mut input_rng = StdRng::seed_from_u64(master_seed);
    let inputs = config
        .ensemble
        .generate(n_in, config.n_samples, &mut input_rng);
    let noiseless = config.noise.is_noiseless();
    let init_rho = |input: &InputState| -> CMatrix {
        if noiseless {
            let mut sub = StateVector::zero_state(n_in);
            apply_unitary(&input.prep, &mut sub);
            StateVector::embed(&sub, &config.input_qubits, n).density_matrix()
        } else {
            let prep = input.prep.remap_qubits(&config.input_qubits, n);
            let mut rho = DensityMatrix::zero_state(n);
            for inst in prep.instructions() {
                match inst {
                    Instruction::Gate(g) => {
                        rho.apply_gate(g);
                        config.noise.apply_to_density(&mut rho, g);
                    }
                    Instruction::Barrier => {}
                    other => panic!("input preparation must be unitary, got {other:?}"),
                }
            }
            rho.into_matrix()
        }
    };
    let mut traces: BTreeMap<TracepointId, Vec<CMatrix>> = plan
        .tracepoints
        .iter()
        .map(|(id, _, _)| (*id, Vec::new()))
        .collect();
    for input in &inputs {
        let mut rho = init_rho(input);
        for boundary in 0..=stage_fns.len() {
            for (id, qubits, at) in &plan.tracepoints {
                if *at == boundary {
                    let dm = DensityMatrix::from_matrix(rho.clone());
                    traces
                        .get_mut(id)
                        .expect("trace bucket exists for every planned tracepoint")
                        .push(dm.partial_trace(qubits));
                }
            }
            if boundary < stage_fns.len() {
                rho = stage_fns[boundary]
                    .predict(&rho)
                    .map_err(SegmentError::Compose)?;
            }
        }
    }

    let chain = ChainedApproximation::new(stage_fns).map_err(SegmentError::Compose)?;
    let characterization = Characterization {
        inputs,
        traces,
        ledger,
        backend: backend.expect("plan has at least one segment"),
        fast_path,
    };
    Ok(IncrementalCharacterization {
        characterization,
        chain,
        segments: SegmentReport {
            total: fps.len() as u64,
            hits,
            misses,
            reused_prefix,
            reused_suffix,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use morph_linalg::hs_accuracy;
    use morph_qsim::NoiseModel;

    fn traced_circuit() -> Circuit {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).ry(1, 0.7);
        c.tracepoint(1, &[0, 1]);
        c.cz(0, 1).h(1).cx(1, 0);
        c.tracepoint(2, &[0]);
        c
    }

    fn exact_config() -> CharacterizationConfig {
        // PauliProduct with 16 samples spans the full 2-qubit operator
        // space, so every stage fit is exact.
        CharacterizationConfig {
            ensemble: InputEnsemble::PauliProduct,
            ..CharacterizationConfig::exact(vec![0, 1], 16)
        }
    }

    #[test]
    fn cuts_depend_only_on_the_gate_itself() {
        let seg = SegmentedConfig::new().segment_gates(2);
        let base = segment_plan(&traced_circuit(), &seg).unwrap();
        // Re-planning the identical circuit reproduces the identical
        // segmentation.
        let again = segment_plan(&traced_circuit(), &seg).unwrap();
        assert_eq!(base.segments.len(), again.segments.len());
        for (a, b) in base.segments.iter().zip(&again.segments) {
            let (mut ab, mut bb) = (Vec::new(), Vec::new());
            a.canonical_bytes(&mut ab);
            b.canonical_bytes(&mut bb);
            assert_eq!(ab, bb);
        }
    }

    #[test]
    fn single_gate_insert_changes_at_most_two_segment_fingerprints() {
        let seg = SegmentedConfig::new().segment_gates(2);
        let config = exact_config();
        let base = segment_plan(&traced_circuit(), &seg).unwrap();
        let base_fps: Vec<Fingerprint> = base
            .segments
            .iter()
            .map(|s| segment_fingerprint(s, &config, 7))
            .collect();
        // Insert one gate at every possible instruction position.
        let original = traced_circuit();
        for pos in 0..=original.instructions().len() {
            let mut edited = original.clone();
            let mut gate = Circuit::new(2);
            gate.rz(0, 0.3);
            edited.insert(pos, gate.instructions()[0].clone());
            let plan = segment_plan(&edited, &seg).unwrap();
            let fps: Vec<Fingerprint> = plan
                .segments
                .iter()
                .map(|s| segment_fingerprint(s, &config, 7))
                .collect();
            let base_set: std::collections::BTreeSet<_> = base_fps.iter().collect();
            let fresh = fps.iter().filter(|fp| !base_set.contains(fp)).count();
            assert!(
                fresh <= 2,
                "insert at {pos} produced {fresh} fresh segments (want <= 2)"
            );
        }
    }

    #[test]
    fn segment_artifact_round_trips_through_encoding() {
        let seg = SegmentedConfig::new().segment_gates(2);
        let config = exact_config();
        let plan = segment_plan(&traced_circuit(), &seg).unwrap();
        let artifact = characterize_segment(&plan.segments[0], &config, 99);
        let decoded = decode_segment_artifact(&encode_segment_artifact(&artifact)).unwrap();
        assert_eq!(decoded.ledger, artifact.ledger);
        match (&artifact.stage, &decoded.stage) {
            (
                SegmentStage::Pure { inputs, outputs },
                SegmentStage::Pure {
                    inputs: di,
                    outputs: do_,
                },
            ) => {
                assert_eq!(inputs, di);
                assert_eq!(outputs, do_);
            }
            other => panic!("stage flavor changed in round trip: {other:?}"),
        }
    }

    #[test]
    fn version_mismatch_degrades_to_miss() {
        let seg = SegmentedConfig::new().segment_gates(2);
        let config = exact_config();
        let plan = segment_plan(&traced_circuit(), &seg).unwrap();
        let artifact = characterize_segment(&plan.segments[0], &config, 1);
        let mut value = encode_segment_artifact(&artifact);
        if let Value::Object(m) = &mut value {
            m.insert("artifact_version".to_string(), Value::UInt(999));
        }
        assert!(decode_segment_artifact(&value).is_err());
    }

    fn assert_char_identical(a: &Characterization, b: &Characterization) {
        assert_eq!(a.ledger, b.ledger);
        assert_eq!(a.inputs.len(), b.inputs.len());
        for (x, y) in a.inputs.iter().zip(&b.inputs) {
            assert_eq!(x.prep, y.prep);
            assert_eq!(x.state, y.state);
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
    fn warm_run_is_bit_identical_and_all_hits() {
        let seg = SegmentedConfig::new().segment_gates(2);
        let config = exact_config();
        let circuit = traced_circuit();
        let mut cache = SegmentedCache::in_memory();

        let mut rng_cold = StdRng::seed_from_u64(5);
        let cold = try_characterize_incremental(&circuit, &config, &seg, &mut rng_cold, &mut cache)
            .unwrap();
        assert_eq!(cold.segments.hits, 0);
        assert!(cold.segments.misses >= 1);

        let mut rng_warm = StdRng::seed_from_u64(5);
        let warm = try_characterize_incremental(&circuit, &config, &seg, &mut rng_warm, &mut cache)
            .unwrap();
        assert_eq!(warm.segments.misses, 0);
        assert_eq!(warm.segments.hits, warm.segments.total);
        assert_eq!(warm.segments.reused_prefix, warm.segments.total);
        assert_char_identical(&cold.characterization, &warm.characterization);
        // Both paths drew exactly one u64 from the caller's stream.
        assert_eq!(rng_cold.gen::<u64>(), rng_warm.gen::<u64>());
    }

    #[test]
    fn one_gate_edit_recomputes_at_most_two_segments() {
        // A deeper program so the plan has 3+ segments.
        let mut circuit = Circuit::new(2);
        for i in 0..12 {
            circuit.h(0).cx(0, 1).rz(1, 0.1 * (i as f64 + 1.0));
        }
        circuit.tracepoint(1, &[0, 1]);
        let seg = SegmentedConfig::new().segment_gates(3);
        let config = exact_config();
        let mut cache = SegmentedCache::in_memory();

        let mut rng = StdRng::seed_from_u64(9);
        let cold =
            try_characterize_incremental(&circuit, &config, &seg, &mut rng, &mut cache).unwrap();
        assert!(
            cold.segments.total >= 3,
            "test needs a 3+-segment plan, got {}",
            cold.segments.total
        );

        // Mutate one mid-circuit gate.
        let mut edited = circuit.clone();
        let pos = edited
            .instructions()
            .iter()
            .position(|i| matches!(i, Instruction::Gate(morph_qsim::Gate::RZ(_, _))))
            .unwrap();
        edited.remove(pos);
        let mut gate = Circuit::new(2);
        gate.rz(1, 2.222);
        edited.insert(pos, gate.instructions()[0].clone());

        let mut rng = StdRng::seed_from_u64(9);
        let warm =
            try_characterize_incremental(&edited, &config, &seg, &mut rng, &mut cache).unwrap();
        assert!(
            warm.segments.misses <= 2,
            "one-gate mutate recomputed {} segments",
            warm.segments.misses
        );
        assert!(warm.segments.hits >= warm.segments.total - 2);
        assert!(
            warm.segments.reused_prefix + warm.segments.reused_suffix
                >= warm.segments.total.saturating_sub(2)
        );
    }

    #[test]
    fn incremental_traces_match_direct_simulation() {
        // Noiseless exact configs make every stage exact on the sampled
        // span, so synthesized traces must match a direct statevector
        // simulation of each input.
        let seg = SegmentedConfig::new().segment_gates(2);
        let config = exact_config();
        let circuit = traced_circuit();
        let mut cache = SegmentedCache::in_memory();
        let mut rng = StdRng::seed_from_u64(3);
        let inc =
            try_characterize_incremental(&circuit, &config, &seg, &mut rng, &mut cache).unwrap();

        for (idx, input) in inc.characterization.inputs.iter().enumerate() {
            let mut psi = StateVector::zero_state(2);
            apply_unitary(&input.prep, &mut psi);
            for inst in circuit.instructions() {
                if let Instruction::Tracepoint { id, qubits } = inst {
                    let expected = psi.reduced_density_matrix(qubits);
                    let got = &inc.characterization.traces[id][idx];
                    assert!(
                        hs_accuracy(got, &expected) > 0.999,
                        "trace {id} diverged for input {idx}"
                    );
                } else if let Instruction::Gate(g) = inst {
                    g.apply(&mut psi);
                }
            }
        }
    }

    #[test]
    fn noisy_configs_take_the_density_path() {
        let seg = SegmentedConfig::new().segment_gates(2);
        let config = CharacterizationConfig {
            noise: NoiseModel::ibm_cairo(),
            ..CharacterizationConfig::exact(vec![0, 1], 8)
        };
        let circuit = traced_circuit();
        let mut cache = SegmentedCache::in_memory();
        let mut rng = StdRng::seed_from_u64(1);
        let inc =
            try_characterize_incremental(&circuit, &config, &seg, &mut rng, &mut cache).unwrap();
        assert!(inc.segments.misses >= 1);
        assert!(!inc.characterization.traces[&TracepointId(1)].is_empty());
    }

    #[test]
    fn structured_errors_replace_panics() {
        let seg = SegmentedConfig::new();
        let config = exact_config();
        let mut cache = SegmentedCache::in_memory();
        let mut rng = StdRng::seed_from_u64(0);

        let mut measured = traced_circuit();
        measured.measure(0, 0);
        assert!(matches!(
            try_characterize_incremental(&measured, &config, &seg, &mut rng, &mut cache),
            Err(SegmentError::NotUnitary)
        ));

        let mut gateless = Circuit::new(1);
        gateless.tracepoint(1, &[0]);
        assert!(matches!(
            try_characterize_incremental(&gateless, &config, &seg, &mut rng, &mut cache),
            Err(SegmentError::NoGates)
        ));

        let mut untraced = Circuit::new(1);
        untraced.h(0);
        assert!(matches!(
            try_characterize_incremental(&untraced, &config, &seg, &mut rng, &mut cache),
            Err(SegmentError::Precondition(Precondition::NoTracepoints))
        ));

        let zero = SegmentedConfig::new().segment_gates(0);
        assert!(matches!(
            try_characterize_incremental(&traced_circuit(), &config, &zero, &mut rng, &mut cache),
            Err(SegmentError::ZeroSegmentGates)
        ));

        let off_register = CharacterizationConfig {
            input_qubits: vec![0, 2],
            ..exact_config()
        };
        assert!(matches!(
            try_characterize_incremental(
                &traced_circuit(),
                &off_register,
                &seg,
                &mut rng,
                &mut cache
            ),
            Err(SegmentError::Precondition(
                Precondition::InputQubitOutOfRange {
                    qubit: 2,
                    n_qubits: 2
                }
            ))
        ));
    }
}
