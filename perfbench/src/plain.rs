//! The plain verification path: `parse_program` + `assertions_from_source`
//! → `Verifier` → characterize → validate, with no cache and no
//! incremental mode — the baseline every fast path is compared against.
//!
//! Each call into a layer runs inside a `morph_trace` span named after the
//! layer. With the recorder off (untraced runs) a span is one relaxed
//! atomic load; with it on, the spans the program already records
//! (`characterize`, `validate/assertion`, `validate/confidence`, the
//! solvers) nest under the benchmark's.

use morph_clifford::InputEnsemble;
use morph_qsim::NoiseModel;
use morph_tomography::ReadoutMode;
use morphqpv::{CancelToken, MorphError, VerificationReport, Verifier};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs `f` inside a span named `name`.
pub fn span<T>(name: &str, f: impl FnOnce() -> T) -> T {
    let _guard = morph_trace::span(name);
    f()
}

/// A verification job as a user would submit it: program text plus run
/// settings.
#[derive(Debug, Clone, Copy)]
pub struct Job<'a> {
    pub source: &'a str,
    pub input_qubits: &'a [usize],
    pub samples: usize,
    pub ensemble: InputEnsemble,
    pub noisy: bool,
    pub shots: Option<usize>,
}

/// Parses the job into a configured [`Verifier`], inside a
/// `qprog.parse` span.
///
/// # Errors
///
/// [`MorphError::Parse`] / [`MorphError::Spec`] on malformed text.
pub fn verifier(job: &Job<'_>) -> Result<Verifier, MorphError> {
    span("qprog.parse", || parse(job.source)).and_then(|(c, a)| configure(job, c, a))
}

/// A parsed program and its assertions.
pub type Parsed = (morph_qprog::Circuit, Vec<morphqpv::AssumeGuarantee>);

/// `parse_program` + `assertions_from_source`.
///
/// # Errors
///
/// [`MorphError::Parse`] / [`MorphError::Spec`] on malformed text.
pub fn parse(source: &str) -> Result<Parsed, MorphError> {
    Ok((
        morph_qprog::parse_program(source)?,
        morphqpv::assertions_from_source(source)?,
    ))
}

fn configure(
    job: &Job<'_>,
    circuit: morph_qprog::Circuit,
    assertions: Vec<morphqpv::AssumeGuarantee>,
) -> Result<Verifier, MorphError> {
    let mut v = Verifier::new(circuit)
        .input_qubits(job.input_qubits)
        .samples(job.samples)
        .ensemble(job.ensemble);
    if job.noisy {
        v = v.noise(NoiseModel::ibm_cairo());
    }
    if let Some(shots) = job.shots {
        v = v.readout(ReadoutMode::Shots(shots));
    }
    for a in assertions {
        v = v.assert_that(a);
    }
    Ok(v)
}

/// Root span of the probes of one operation. Probes run after the timed
/// operation, outside its `bench/op` span, so neither its latency nor the
/// coverage of its wall time includes them.
pub const PROBE_SPAN: &str = "bench/probe";

/// Times the layers `Verifier::try_characterize_for_seed` calls
/// internally — backend planning, gate fusion, ensemble sampling — by
/// calling the same public functions on the same inputs, under one
/// [`PROBE_SPAN`]. The verifier repeats this work inside its own call;
/// these copies exist only in traced runs.
pub fn probe_layers(job: &Job<'_>, char_seed: u64) {
    let _probe = morph_trace::span(PROBE_SPAN);
    let Ok(v) = parse(job.source).and_then(|(c, a)| configure(job, c, a)) else {
        return;
    };
    let config = v.characterization_config();
    let circuit = v.circuit();
    span("backend.plan", || {
        let _ = morph_backend::analyze(circuit);
        morph_backend::plan_characterization(&morph_backend::PlanInputs {
            circuit,
            mode: config.backend,
            noiseless: config.noise.is_noiseless(),
            n_input_qubits: config.input_qubits.len(),
            preps_clifford: true,
        })
    });
    if config.noise.is_noiseless() {
        span("qprog.fuse", || morph_qprog::fuse_circuit(circuit));
    }
    let mut rng = StdRng::seed_from_u64(char_seed);
    span("clifford.ensemble", || {
        config.ensemble.generate_with_workers(
            config.input_qubits.len(),
            config.n_samples,
            &mut rng,
            config.parallelism,
        )
    });
}

/// Verifies `job` on the plain path with characterization seed
/// `char_seed`.
///
/// # Errors
///
/// Any [`MorphError`] from parsing, characterization or validation.
pub fn verify(job: &Job<'_>, char_seed: u64) -> Result<VerificationReport, MorphError> {
    let v = verifier(job)?;
    let cancel = CancelToken::new();
    let ch = span("morphqpv.characterize", || {
        v.try_characterize_for_seed(char_seed, &cancel)
    })?;
    let mut rng = StdRng::seed_from_u64(char_seed);
    span("morphqpv.validate", || {
        v.try_validate_with(ch, &mut rng, None, &cancel)
    })
}
