//! Incremental characterization (the "revision loop"): re-verifying an
//! edited program reports which of its segments are unchanged since a run
//! that shared the cache, and characterizes it as the plain path does.
//!
//! 1. **Segmentation** ([`segment_plan`]) cuts at every tracepoint and at
//!    content-defined gate boundaries: whether a boundary follows gate `g`
//!    is a pure function of `g`'s own canonical bytes (hashed under
//!    [`SEGMENT_CUT_DOMAIN`], cut when the hash is `0 mod segment_gates`),
//!    so editing one gate never moves a boundary elsewhere.
//! 2. **Segment fingerprints** ([`segment_fingerprint`]) hash a segment's
//!    own circuit bytes, the characterization config (ensemble, readout,
//!    noise, sample budget) and the run's master seed.
//! 3. **Boundary keys** chain the fingerprints of the segments before a
//!    boundary under [`BOUNDARY_DOMAIN`], rooted in the register width and
//!    the input-qubit list (which the fingerprints leave out). Equal keys
//!    mean equal gates run from equal inputs.
//! 4. **A run** ([`try_characterize_incremental`]) characterizes the
//!    program as [`crate::Verifier::try_characterize_for_seed`] does,
//!    counts the segments up to the last boundary whose key the
//!    [`SegmentedCache`] holds as hits, and records the keys of the rest.
//!
//! The cache keeps keys, not the sampled inputs' states at each boundary.
//! Resuming from cached states cost more than it saved: copying and
//! persisting one boundary's states took longer than the plain sweep
//! takes to simulate the whole program (DESIGN.md, "Segment
//! fingerprinting and incremental reuse").

use std::collections::HashSet;
use std::fmt;
use std::fs::{self, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

use morph_qprog::{Circuit, Instruction};
use morph_store::{Fingerprint, FingerprintBuilder, StoreStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cancel::CancelToken;
use crate::characterize::{try_characterize, Characterization, CharacterizationConfig};
use crate::error::MorphError;

/// Domain tag for per-segment fingerprints. Bump the version suffix
/// whenever a segment's fingerprinted content changes meaning.
pub const SEGMENT_DOMAIN: &str = "morphqpv/segment/v1";

/// Domain tag for the content-defined boundary decision. Changing this
/// (or the cut rule) re-segments every program, invalidating all cached
/// boundaries at once — bump deliberately.
pub const SEGMENT_CUT_DOMAIN: &str = "morphqpv/segment-cut/v1";

/// Domain tag for boundary keys, the hash chain of the segment
/// fingerprints before a boundary. Bump the version suffix whenever the
/// chain changes meaning.
pub const BOUNDARY_DOMAIN: &str = "morphqpv/boundary/v1";

/// Default mean segment length, in gates.
pub const DEFAULT_SEGMENT_GATES: usize = 4;

/// Tuning knobs for the segmentation pass: build one with
/// [`SegmentedConfig::new`] and the builder-style setters.
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
}

/// Structured failure modes of the incremental surface.
#[derive(Debug)]
pub enum SegmentError {
    /// The program contains measurement, reset, or classical feedback.
    NotUnitary,
    /// The program has no gates to segment.
    NoGates,
    /// `segment_gates == 0` was configured.
    ZeroSegmentGates,
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
            SegmentError::ZeroSegmentGates => {
                write!(f, "segment size must be at least one gate")
            }
        }
    }
}

impl std::error::Error for SegmentError {}

/// The canonical segmentation of a circuit: maximal gate runs split at
/// tracepoints and content-defined boundaries.
#[derive(Debug, Clone)]
pub struct SegmentPlan {
    /// Register width shared by every segment.
    pub n_qubits: usize,
    /// The gate-only segment circuits, in program order.
    pub segments: Vec<Circuit>,
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
            Instruction::Tracepoint { .. } => {
                if current_len > 0 {
                    segments.push(std::mem::replace(&mut current, Circuit::new(n)));
                    current_len = 0;
                }
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
    })
}

/// Content address of one segment of a run.
///
/// Position-independent: only the segment's own circuit bytes, the
/// characterization config (minus parallelism and backend, and minus
/// `input_qubits`, which roots the boundary-key chain instead), and the
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

/// A seed derived from a segment's content address, reproducible wherever
/// the segment appears: the first 8 bytes of the fingerprint. Callers that
/// characterize segments one by one (fig14's chained stages) seed each
/// from it.
pub fn segment_seed(fp: &Fingerprint) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&fp.0[..8]);
    u64::from_le_bytes(b)
}

/// One boundary a run has passed, as a [`SegmentedCache`] records it. The
/// cache keeps boundary keys, not the states behind them (see the module
/// docs), so a boundary carries nothing but its key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Boundary;

/// The boundary `segment` leaves in a [`SegmentedCache`]. A boundary
/// holds no states, so nothing is simulated; this is the per-segment
/// entry point for callers that record boundaries one segment at a time.
pub fn characterize_segment(
    _segment: &Circuit,
    _config: &CharacterizationConfig,
    _seed: u64,
) -> Boundary {
    Boundary
}

/// The file in a persistent [`SegmentedCache`]'s directory that lists its
/// boundary keys, one lowercase-hex key per line.
const BOUNDARY_LOG: &str = "boundary-keys.log";

/// The incremental path's cache: the set of boundary keys earlier runs
/// passed (see the module docs).
///
/// A persistent cache reads its `boundary-keys.log` once, when it is opened,
/// and appends each run's new keys to it in one write, so a lookup never
/// touches the disk and the log is the only file the cache creates. Keys
/// that another process appends later are seen by the next `open`.
#[derive(Debug)]
pub struct SegmentedCache {
    log: Option<PathBuf>,
    keys: Mutex<Keys>,
}

#[derive(Debug, Default)]
struct Keys {
    /// Read from the log when the cache was opened, or recorded since.
    known: HashSet<Fingerprint>,
    stats: StoreStats,
}

impl SegmentedCache {
    /// A memory-only cache (no persistence).
    pub fn in_memory() -> Self {
        SegmentedCache {
            log: None,
            keys: Mutex::default(),
        }
    }

    /// A persistent cache rooted at `dir` (created if absent). Sharing a
    /// directory with a [`crate::CharacterizationCache`] is safe: the log
    /// is one file beside the store's `<fingerprint>.json` entries. A log
    /// line that is not a key (a write cut short) counts as a corrupt entry
    /// and is skipped.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be created or the log
    /// cannot be read.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        let log = dir.join(BOUNDARY_LOG);
        let mut keys = Keys::default();
        match fs::read(&log) {
            Ok(bytes) => {
                for line in bytes.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
                    let key = std::str::from_utf8(line)
                        .ok()
                        .filter(|hex| hex.is_ascii())
                        .and_then(Fingerprint::from_hex);
                    match key {
                        Some(key) => {
                            keys.known.insert(key);
                        }
                        None => keys.stats.corrupt_entries += 1,
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        Ok(SegmentedCache {
            log: Some(log),
            keys: Mutex::new(keys),
        })
    }

    /// Hit/miss/write counters. The log is read at `open`, so every hit
    /// is a memory hit.
    pub fn stats(&self) -> StoreStats {
        self.lock().stats
    }

    /// Looks up a boundary key.
    pub fn get(&self, key: &Fingerprint) -> Option<Boundary> {
        let mut keys = self.lock();
        if keys.known.contains(key) {
            keys.stats.memory_hits += 1;
            Some(Boundary)
        } else {
            keys.stats.misses += 1;
            None
        }
    }

    /// Records a boundary under its key.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when appending to the log fails (the key stays
    /// recorded in memory).
    pub fn put(&self, key: Fingerprint, _boundary: &Boundary) -> io::Result<()> {
        self.record(&[key])
    }

    /// Records `keys`, appending the new ones to the log in one write. The
    /// write starts a fresh line, so a line an interrupted writer left
    /// unfinished spoils no key after it.
    fn record(&self, keys: &[Fingerprint]) -> io::Result<()> {
        let mut lines = String::from("\n");
        {
            let mut cache = self.lock();
            for key in keys {
                if cache.known.insert(*key) {
                    cache.stats.writes += 1;
                    lines.push_str(&key.to_hex());
                    lines.push('\n');
                }
            }
        }
        match &self.log {
            Some(log) if lines.len() > 1 => OpenOptions::new()
                .create(true)
                .append(true)
                .open(log)?
                .write_all(lines.as_bytes()),
            _ => Ok(()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Keys> {
        morph_trace::lock_or_recover(&self.keys)
    }
}

/// Per-revision segment reuse accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegmentReport {
    /// Segments in this revision's plan.
    pub total: u64,
    /// Segments up to the last boundary the cache holds: unchanged since
    /// a run that shared the cache.
    pub hits: u64,
    /// Segments after it: the first edited one and every one after it.
    pub misses: u64,
}

/// The result of an incremental characterization: the whole-program
/// [`Characterization`] and the reuse report.
#[derive(Debug, Clone)]
pub struct IncrementalCharacterization {
    /// The plain path's characterization for the same seed.
    pub characterization: Characterization,
    /// Per-segment hits and misses.
    pub segments: SegmentReport,
}

/// The key of every boundary after a segment of `plan`: entry `b` keys the
/// boundary after segments `0..=b`.
fn boundary_keys(
    plan: &SegmentPlan,
    config: &CharacterizationConfig,
    master_seed: u64,
) -> Vec<Fingerprint> {
    let input_qubits: Vec<u64> = config.input_qubits.iter().map(|&q| q as u64).collect();
    let mut key = FingerprintBuilder::new(BOUNDARY_DOMAIN)
        .field_u64("n-qubits", plan.n_qubits as u64)
        .field_u64_list("input-qubits", &input_qubits)
        .finish();
    plan.segments
        .iter()
        .map(|segment| {
            key = FingerprintBuilder::new(BOUNDARY_DOMAIN)
                .field_bytes("before", &key.0)
                .field_bytes(
                    "segment",
                    &segment_fingerprint(segment, config, master_seed).0,
                )
                .finish();
            key
        })
        .collect()
}

/// Incremental [`crate::try_characterize`]: the plain path's
/// characterization, with the segments up to the last boundary `cache`
/// holds reported as hits and the keys of the rest recorded in `cache`.
///
/// RNG discipline matches [`crate::Verifier::try_run`]: exactly one `u64`
/// is drawn from `rng` and seeds the run as
/// [`crate::Verifier::try_characterize_for_seed`] does, so the
/// characterization is the plain path's, bit for bit, cold or warm.
///
/// # Errors
///
/// [`MorphError::Segment`] when the program cannot be segmented (see
/// [`SegmentError`]); otherwise what [`crate::try_characterize`] returns.
pub fn try_characterize_incremental(
    circuit: &Circuit,
    config: &CharacterizationConfig,
    seg: &SegmentedConfig,
    rng: &mut StdRng,
    cache: &SegmentedCache,
) -> Result<IncrementalCharacterization, MorphError> {
    let master_seed: u64 = rng.gen();
    let plan = segment_plan(circuit, seg)?;
    let characterization = try_characterize(
        circuit,
        config,
        &mut StdRng::seed_from_u64(master_seed),
        &CancelToken::new(),
    )?;
    // A key chains every segment before it, so the last cached key vouches
    // for the whole prefix even when earlier keys were evicted.
    let keys = boundary_keys(&plan, config, master_seed);
    let hits = keys
        .iter()
        .rposition(|key| cache.get(key).is_some())
        .map_or(0, |b| b + 1);
    // Persistence is best-effort, as in `Verifier::try_run`.
    let _ = cache.record(&keys[hits..]);
    let total = keys.len() as u64;
    let (hits, misses) = (hits as u64, total - hits as u64);
    morph_trace::counter("incremental/segments", total);
    if hits > 0 {
        morph_trace::counter("incremental/segment_hit", hits);
    }
    if misses > 0 {
        morph_trace::counter("incremental/segment_miss", misses);
    }
    Ok(IncrementalCharacterization {
        characterization,
        segments: SegmentReport {
            total,
            hits,
            misses,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Precondition;
    use morph_clifford::InputEnsemble;
    use morph_qsim::Gate;

    fn traced_circuit() -> Circuit {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).ry(1, 0.7);
        c.tracepoint(1, &[0, 1]);
        c.cz(0, 1).h(1).cx(1, 0);
        c.tracepoint(2, &[0]);
        c
    }

    fn exact_config() -> CharacterizationConfig {
        CharacterizationConfig {
            ensemble: InputEnsemble::PauliProduct,
            ..CharacterizationConfig::exact(vec![0, 1], 16)
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
    fn one_gate_edit_recomputes_from_the_edited_segment_on() {
        // A deeper program so the plan has 3+ segments.
        let mut circuit = Circuit::new(2);
        for i in 0..12 {
            circuit.h(0).cx(0, 1).rz(1, 0.1 * (i as f64 + 1.0));
        }
        circuit.tracepoint(1, &[0, 1]);
        let (seg, config) = (SegmentedConfig::new().segment_gates(3), exact_config());
        let fingerprints = |c: &Circuit| -> Vec<Fingerprint> {
            let segments = segment_plan(c, &seg).unwrap().segments;
            segments
                .iter()
                .map(|s| segment_fingerprint(s, &config, 0))
                .collect()
        };
        let cache = SegmentedCache::in_memory();
        let run = |c: &Circuit| {
            let mut rng = StdRng::seed_from_u64(9);
            try_characterize_incremental(c, &config, &seg, &mut rng, &cache)
                .unwrap()
                .segments
        };
        assert!(run(&circuit).total >= 3, "test needs a 3+-segment plan");

        // Mutate each RZ in turn: the segments before the first changed
        // fingerprint hit, every later one misses.
        for pos in (2..circuit.instructions().len()).step_by(3) {
            let mut edited = circuit.clone();
            edited.remove(pos);
            edited.insert(pos, Instruction::Gate(Gate::RZ(1, 2.222)));
            let unchanged = fingerprints(&circuit)
                .iter()
                .zip(&fingerprints(&edited))
                .take_while(|(a, b)| a == b)
                .count() as u64;
            let report = run(&edited);
            assert_eq!(report.hits, unchanged, "edit at {pos}");
            assert_eq!(report.misses, report.total - unchanged, "edit at {pos}");
        }
    }

    #[test]
    fn logged_keys_persist_and_hits_reach_past_a_damaged_line() {
        let mut circuit = Circuit::new(1);
        circuit.tracepoint(1, &[0]);
        for i in 0..20 {
            circuit.rz(0, 0.01 * (i as f64 + 1.0));
        }
        circuit.tracepoint(2, &[0]);
        let seg = SegmentedConfig::new().segment_gates(1);
        let config = CharacterizationConfig::exact(vec![0], 4);
        let run = |c: &Circuit, cache: &SegmentedCache| {
            let mut rng = StdRng::seed_from_u64(3);
            try_characterize_incremental(c, &config, &seg, &mut rng, cache)
                .unwrap()
                .segments
        };
        let dir = std::env::temp_dir().join(format!(
            "morph-boundary-log-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock after epoch")
                .as_nanos()
        ));
        let cold = run(&circuit, &SegmentedCache::open(&dir).unwrap());
        assert_eq!((cold.total, cold.hits), (20, 0));
        let reopened = SegmentedCache::open(&dir).unwrap();
        let warm = run(&circuit, &reopened);
        assert_eq!((warm.hits, warm.misses), (20, 0));
        assert_eq!(reopened.stats().memory_hits, 1, "one lookup");

        // Cut the first key's line short and append garbage: both lines
        // are skipped, and the keys after them still count.
        let log = dir.join(BOUNDARY_LOG);
        let text = fs::read_to_string(&log).unwrap();
        assert_eq!(&text[..1], "\n", "a record starts a fresh line");
        fs::write(&log, format!("{}\nnot a key{}", &text[..20], &text[65..])).unwrap();
        let reopened = SegmentedCache::open(&dir).unwrap();
        assert_eq!(reopened.stats().corrupt_entries, 2);
        let master_seed: u64 = StdRng::seed_from_u64(3).gen();
        let keys = boundary_keys(&segment_plan(&circuit, &seg).unwrap(), &config, master_seed);
        assert!(reopened.get(&keys[0]).is_none(), "the first key was lost");
        let warm = run(&circuit, &reopened);
        assert_eq!((warm.hits, warm.misses), (20, 0));
        let mut edited = circuit.clone();
        edited.remove(20);
        edited.insert(20, Instruction::Gate(Gate::RZ(0, 2.0)));
        let edit = run(&edited, &reopened);
        assert_eq!((edit.hits, edit.misses), (19, 1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn structured_errors_replace_panics() {
        let seg = SegmentedConfig::new();
        let config = exact_config();
        let cache = SegmentedCache::in_memory();
        let mut rng = StdRng::seed_from_u64(0);

        let mut measured = traced_circuit();
        measured.measure(0, 0);
        assert!(matches!(
            try_characterize_incremental(&measured, &config, &seg, &mut rng, &cache),
            Err(MorphError::Segment(SegmentError::NotUnitary))
        ));

        let mut gateless = Circuit::new(1);
        gateless.tracepoint(1, &[0]);
        assert!(matches!(
            try_characterize_incremental(&gateless, &config, &seg, &mut rng, &cache),
            Err(MorphError::Segment(SegmentError::NoGates))
        ));

        let mut untraced = Circuit::new(1);
        untraced.h(0);
        assert!(matches!(
            try_characterize_incremental(&untraced, &config, &seg, &mut rng, &cache),
            Err(MorphError::Precondition(Precondition::NoTracepoints))
        ));

        let zero = SegmentedConfig::new().segment_gates(0);
        assert!(matches!(
            try_characterize_incremental(&traced_circuit(), &config, &zero, &mut rng, &cache),
            Err(MorphError::Segment(SegmentError::ZeroSegmentGates))
        ));

        let off_register = CharacterizationConfig {
            input_qubits: vec![0, 2],
            ..exact_config()
        };
        assert!(matches!(
            try_characterize_incremental(&traced_circuit(), &off_register, &seg, &mut rng, &cache),
            Err(MorphError::Precondition(
                Precondition::InputQubitOutOfRange {
                    qubit: 2,
                    n_qubits: 2
                }
            ))
        ));
    }
}
