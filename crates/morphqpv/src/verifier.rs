//! High-level verification front-end: the three-step MorphQPV flow
//! (assert → characterize → validate) behind one builder.

use morph_clifford::{InputEnsemble, InputState};
use morph_qprog::Circuit;
use morph_qsim::NoiseModel;
use morph_store::{Fingerprint, StoreStats};
use morph_tomography::{CostLedger, ReadoutMode};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::assertion::AssumeGuarantee;
use crate::cache::{characterize_cached, characterize_with_inputs_cached, CharacterizationCache};
use crate::cancel::CancelToken;
use crate::characterize::{
    characterize, characterize_with_inputs, try_characterize, try_characterize_with_inputs,
    Characterization, CharacterizationConfig,
};
use crate::error::{MorphError, Precondition};
use crate::incremental::{try_characterize_incremental, SegmentedCache, SegmentedConfig};
use crate::validate::{
    try_validate_assertion, ValidationConfig, ValidationError, ValidationOutcome, Verdict,
};

/// A complete verification run over one program.
///
/// # Examples
///
/// Verify that a NOT program maps every pure input to its bit-flip:
///
/// ```
/// use morph_qprog::TracepointId;
/// use morphqpv::{RelationPredicate, StatePredicate, Verifier};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut program = morph_qprog::Circuit::new(1);
/// program.tracepoint(1, &[0]);
/// program.x(0);
/// program.tracepoint(2, &[0]);
///
/// let x = morph_qsim::matrices::x();
/// let report = Verifier::new(program)
///     .input_qubits(&[0])
///     .samples(4)
///     .assert_that(
///         morphqpv::AssumeGuarantee::new().guarantee_relation(
///             TracepointId(1),
///             TracepointId(2),
///             RelationPredicate::custom(move |a, b| {
///                 (&x.matmul(a).matmul(&x) - b).frobenius_norm()
///             }),
///         ),
///     )
///     .run(&mut StdRng::seed_from_u64(7));
/// assert!(report.all_passed());
/// ```
#[derive(Debug)]
pub struct Verifier {
    circuit: Circuit,
    assertions: Vec<AssumeGuarantee>,
    characterization_config: CharacterizationConfig,
    validation_config: ValidationConfig,
    explicit_inputs: Option<Vec<InputState>>,
    segmented: Option<SegmentedConfig>,
}

impl Verifier {
    /// Starts a verification of `circuit`. Defaults: all qubits are input
    /// qubits, `2^(N_in+1)` capped at 32 samples, Clifford ensemble, exact
    /// readout, noiseless, QP solver.
    pub fn new(circuit: Circuit) -> Self {
        let n = circuit.n_qubits();
        let input_qubits: Vec<usize> = (0..n).collect();
        let n_samples = CharacterizationConfig::paper_full_budget(n).min(32);
        Verifier {
            circuit,
            assertions: Vec::new(),
            characterization_config: CharacterizationConfig {
                n_samples,
                ensemble: InputEnsemble::Clifford,
                readout: ReadoutMode::Exact,
                input_qubits,
                noise: NoiseModel::noiseless(),
                parallelism: 0,
                backend: morph_qprog::BackendMode::Auto,
            },
            validation_config: ValidationConfig::default(),
            explicit_inputs: None,
            segmented: None,
        }
    }

    /// Restricts the program input to the given qubits (the rest start in
    /// `|0⟩`). Resets the sample budget to `2^(N_in+1)` capped at 64.
    pub fn input_qubits(mut self, qubits: &[usize]) -> Self {
        self.characterization_config.input_qubits = qubits.to_vec();
        self.characterization_config.n_samples =
            CharacterizationConfig::paper_full_budget(qubits.len()).min(64);
        self
    }

    /// Sets the number of sampled inputs (`N_sample`).
    pub fn samples(mut self, n: usize) -> Self {
        self.characterization_config.n_samples = n;
        self
    }

    /// Selects the input ensemble (Fig 15(a) ablation).
    pub fn ensemble(mut self, ensemble: InputEnsemble) -> Self {
        self.characterization_config.ensemble = ensemble;
        self
    }

    /// Selects the tracepoint readout mode (exact / shots / probabilities —
    /// the latter is Strategy-prop).
    pub fn readout(mut self, readout: ReadoutMode) -> Self {
        self.characterization_config.readout = readout;
        self
    }

    /// Applies a hardware noise model to the sampling runs.
    pub fn noise(mut self, noise: NoiseModel) -> Self {
        self.characterization_config.noise = noise;
        self
    }

    /// Selects the simulation backend for the sampling sweep (default:
    /// [`morph_qprog::BackendMode::Auto`]; the `MORPH_BACKEND` environment
    /// variable replaces `Auto` at plan time).
    pub fn backend(mut self, backend: morph_qprog::BackendMode) -> Self {
        self.characterization_config.backend = backend;
        self
    }

    /// Overrides the validation configuration (solver, thresholds).
    pub fn validation(mut self, config: ValidationConfig) -> Self {
        self.validation_config = config;
        self
    }

    /// Supplies explicit input states (Strategy-adapt / Strategy-const)
    /// instead of ensemble sampling.
    pub fn with_inputs(mut self, inputs: Vec<InputState>) -> Self {
        self.explicit_inputs = Some(inputs);
        self
    }

    /// Configures segment-granular incremental characterization for
    /// [`Self::try_run_incremental`] (the revision loop: re-verifying an
    /// edited program recomputes only the segments the edit touched).
    pub fn incremental(mut self, config: SegmentedConfig) -> Self {
        self.segmented = Some(config);
        self
    }

    /// Adds an assertion to verify.
    pub fn assert_that(mut self, assertion: AssumeGuarantee) -> Self {
        self.assertions.push(assertion);
        self
    }

    /// The program under verification.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The effective characterization configuration.
    pub fn characterization_config(&self) -> &CharacterizationConfig {
        &self.characterization_config
    }

    /// The segmentation configuration incremental runs will use
    /// ([`SegmentedConfig::default`] unless [`Self::incremental`] was
    /// called).
    pub fn segmented_config(&self) -> SegmentedConfig {
        self.segmented.unwrap_or_default()
    }

    /// The content address of this verifier's characterization for a given
    /// `char_seed` — the key services use to coalesce concurrent identical
    /// jobs (see `morph-serve`). Identical to the fingerprint
    /// [`Self::try_run_with_cache`] computes after drawing `char_seed` from
    /// the caller's RNG.
    pub fn characterization_fingerprint(&self, char_seed: u64) -> Fingerprint {
        match &self.explicit_inputs {
            Some(inputs) => {
                let preps: Vec<&Circuit> = inputs.iter().map(|i| &i.prep).collect();
                crate::cache::characterization_fingerprint_with_inputs(
                    &self.circuit,
                    &self.characterization_config,
                    &preps,
                    char_seed,
                )
            }
            None => crate::cache::characterization_fingerprint(
                &self.circuit,
                &self.characterization_config,
                char_seed,
            ),
        }
    }

    /// Runs the characterization stage alone, seeded with `char_seed` (the
    /// value addressed by [`Self::characterization_fingerprint`]), honoring
    /// cooperative cancellation.
    ///
    /// Services split the pipeline here: one leader characterizes per
    /// fingerprint, then every coalesced job validates the shared artifact
    /// with [`Self::try_validate_with`].
    ///
    /// # Errors
    ///
    /// [`MorphError::Precondition`] when the program or configuration
    /// cannot be characterized (see [`crate::try_characterize`]),
    /// [`MorphError::Cancelled`] when `cancel` fires mid-sweep.
    pub fn try_characterize_for_seed(
        &self,
        char_seed: u64,
        cancel: &CancelToken,
    ) -> Result<Characterization, MorphError> {
        let mut run_rng = StdRng::seed_from_u64(char_seed);
        match &self.explicit_inputs {
            Some(inputs) => try_characterize_with_inputs(
                &self.circuit,
                &self.characterization_config,
                inputs.clone(),
                &mut run_rng,
                cancel,
            ),
            None => try_characterize(
                &self.circuit,
                &self.characterization_config,
                &mut run_rng,
                cancel,
            ),
        }
    }

    /// Validates every assertion against an already-computed
    /// `characterization` (own run, cache hit, or a leader's shared
    /// artifact), checking `cancel` between assertions.
    ///
    /// # Errors
    ///
    /// [`MorphError::Precondition`] when no assertions were added,
    /// [`MorphError::Validation`] on solver failure,
    /// [`MorphError::Cancelled`] when `cancel` fires between assertions.
    ///
    /// # Panics
    ///
    /// Panics if an assertion references a tracepoint absent from
    /// `characterization`.
    pub fn try_validate_with(
        &self,
        characterization: Characterization,
        rng: &mut StdRng,
        cache: Option<CacheSummary>,
        cancel: &CancelToken,
    ) -> Result<VerificationReport, MorphError> {
        if self.assertions.is_empty() {
            return Err(Precondition::NoAssertions.into());
        }
        let mut outcomes = Vec::with_capacity(self.assertions.len());
        for a in &self.assertions {
            cancel.check()?;
            outcomes.push(try_validate_assertion(
                a,
                &characterization,
                &self.validation_config,
                rng,
            )?);
        }
        let run = RunReport::new(&characterization, &outcomes, cache);
        Ok(VerificationReport {
            characterization,
            outcomes,
            run,
        })
    }

    /// Runs characterization once, then validates every assertion.
    ///
    /// Thin panicking wrapper over [`Self::try_run`].
    ///
    /// # Panics
    ///
    /// Panics if no assertions were added, the program has no tracepoints,
    /// or the validation solver fails structurally
    /// ([`crate::ValidationError`]).
    pub fn run(&self, rng: &mut StdRng) -> VerificationReport {
        self.try_run(rng).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs characterization once, then validates every assertion,
    /// reporting solver failures as errors.
    ///
    /// # Errors
    ///
    /// [`crate::ValidationError`] when the validation solver cannot produce
    /// an optimum (zero restarts configured, all-NaN objective).
    ///
    /// # Panics
    ///
    /// Panics if no assertions were added or the program has no
    /// tracepoints.
    pub fn try_run(&self, rng: &mut StdRng) -> Result<VerificationReport, ValidationError> {
        assert!(!self.assertions.is_empty(), "no assertions to verify");
        let _trace = morph_trace::span("verify/run");
        let characterization = match &self.explicit_inputs {
            Some(inputs) => characterize_with_inputs(
                &self.circuit,
                &self.characterization_config,
                inputs.clone(),
                rng,
            ),
            None => characterize(&self.circuit, &self.characterization_config, rng),
        };
        self.validate_all(characterization, rng, None)
    }

    /// [`Self::try_run`] with a characterization artifact cache; the
    /// report's [`RunReport::cache`] summarizes the hits, misses, and cost
    /// saved by *this* run (a delta, not the cache's lifetime stats).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::try_run`].
    ///
    /// # Panics
    ///
    /// Same conditions as [`Self::try_run`].
    pub fn try_run_with_cache(
        &self,
        rng: &mut StdRng,
        cache: &mut CharacterizationCache,
    ) -> Result<VerificationReport, ValidationError> {
        assert!(!self.assertions.is_empty(), "no assertions to verify");
        let _trace = morph_trace::span("verify/run");
        let stats_before = *cache.stats();
        let characterization = match &self.explicit_inputs {
            Some(inputs) => characterize_with_inputs_cached(
                &self.circuit,
                &self.characterization_config,
                inputs.clone(),
                rng,
                cache,
            ),
            None => characterize_cached(&self.circuit, &self.characterization_config, rng, cache),
        };
        let cache_summary = CacheSummary::delta(&stats_before, cache.stats());
        self.validate_all(characterization, rng, Some(cache_summary))
    }

    /// Incremental [`Self::try_run_with_cache`]: characterizes per segment
    /// against `cache`, reusing every cached segment artifact (see
    /// [`crate::try_characterize_incremental`]), then validates every
    /// assertion. The report's [`CacheSummary`] carries the per-segment
    /// hit/miss counts.
    ///
    /// # Errors
    ///
    /// [`MorphError::Precondition`] when no assertions were added, explicit
    /// inputs were supplied ([`Self::with_inputs`] and incremental
    /// characterization are mutually exclusive — the ensemble is part of
    /// each segment's content address), or the program or configuration
    /// cannot be characterized; [`MorphError::Segment`] when the program
    /// cannot be segmented (see [`crate::SegmentError`]);
    /// [`MorphError::Validation`] on solver failure.
    pub fn try_run_incremental(
        &self,
        rng: &mut StdRng,
        cache: &mut SegmentedCache,
    ) -> Result<VerificationReport, MorphError> {
        if self.assertions.is_empty() {
            return Err(Precondition::NoAssertions.into());
        }
        if self.explicit_inputs.is_some() {
            return Err(Precondition::ExplicitInputsWithIncremental.into());
        }
        let _trace = morph_trace::span("verify/run");
        let stats_before = *cache.stats();
        let seg = self.segmented_config();
        let inc = try_characterize_incremental(
            &self.circuit,
            &self.characterization_config,
            &seg,
            rng,
            cache,
        )?;
        let mut summary = CacheSummary::delta(&stats_before, cache.stats());
        summary.segment_hits = inc.segments.hits;
        summary.segment_misses = inc.segments.misses;
        Ok(self.validate_all(inc.characterization, rng, Some(summary))?)
    }

    fn validate_all(
        &self,
        characterization: Characterization,
        rng: &mut StdRng,
        cache: Option<CacheSummary>,
    ) -> Result<VerificationReport, ValidationError> {
        let outcomes: Vec<ValidationOutcome> = self
            .assertions
            .iter()
            .map(|a| try_validate_assertion(a, &characterization, &self.validation_config, rng))
            .collect::<Result<_, _>>()?;
        let run = RunReport::new(&characterization, &outcomes, cache);
        Ok(VerificationReport {
            characterization,
            outcomes,
            run,
        })
    }
}

/// One-call verification of a program written in the surface syntax:
/// parses the circuit (`qreg`/gates/`T <id> q[..]`), extracts the
/// `// assert <spec>` comments, and runs the default pipeline with inputs
/// on the given qubits.
///
/// # Errors
///
/// [`MorphError::Parse`] / [`MorphError::Spec`] when the program or an
/// assertion does not parse.
///
/// # Panics
///
/// Panics if the source contains no assertions or no tracepoints (a
/// verification with nothing to check is a caller bug).
///
/// # Examples
///
/// ```
/// use morphqpv::prelude::*;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let report = verify_source(
///     "qreg q[1];\n\
///      T 1 q[0];\n\
///      h q[0];\n\
///      h q[0];\n\
///      T 2 q[0];\n\
///      // assert assume is_pure(T1) guarantee equal(T1, T2)",
///     &[0],
///     &mut StdRng::seed_from_u64(0),
/// )?;
/// assert!(report.all_passed());
/// # Ok::<(), MorphError>(())
/// ```
pub fn verify_source(
    source: &str,
    input_qubits: &[usize],
    rng: &mut StdRng,
) -> Result<VerificationReport, MorphError> {
    let circuit = morph_qprog::parse_program(source)?;
    let assertions = crate::spec::assertions_from_source(source)?;
    assert!(
        !assertions.is_empty(),
        "source contains no `// assert` specifications"
    );
    let mut verifier = Verifier::new(circuit).input_qubits(input_qubits);
    for a in assertions {
        verifier = verifier.assert_that(a);
    }
    Ok(verifier.run(rng))
}

/// What one verification run cost and how it behaved: the shot budget
/// actually spent, the solver effort across all assertions, and (for
/// cached runs) how the artifact store answered.
///
/// Attached to every [`VerificationReport`] so callers can inspect run
/// behaviour without enabling the [`morph_trace`] recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunReport {
    /// Circuit executions charged to the simulator.
    pub executions: u64,
    /// Measurement shots charged (0 under exact readout).
    pub shots: u64,
    /// Elementary quantum operations applied.
    pub quantum_ops: u64,
    /// Objective evaluations spent by the validation solver, summed over
    /// assertions.
    pub solver_evaluations: u64,
    /// Solver iterations, summed over assertions.
    pub solver_iterations: u64,
    /// Cache behaviour of this run — `None` for uncached entry points.
    pub cache: Option<CacheSummary>,
    /// The simulation backend the characterization sweep executed on.
    pub backend: morph_backend::BackendChoice,
    /// Sparse fast-path events over the characterization sweep (all
    /// zeros when no sparse register ran).
    pub fast_path: morph_backend::FastPathStats,
}

impl RunReport {
    fn new(
        characterization: &Characterization,
        outcomes: &[ValidationOutcome],
        cache: Option<CacheSummary>,
    ) -> Self {
        RunReport {
            executions: characterization.ledger.executions,
            shots: characterization.ledger.shots,
            quantum_ops: characterization.ledger.quantum_ops,
            solver_evaluations: outcomes.iter().map(|o| o.optimum.evaluations).sum(),
            solver_iterations: outcomes.iter().map(|o| o.optimum.iterations as u64).sum(),
            cache,
            backend: characterization.backend,
            fast_path: characterization.fast_path,
        }
    }
}

/// How the characterization cache answered during one run (the delta of
/// [`StoreStats`] across the run, not the store's lifetime totals).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheSummary {
    /// Lookups answered from memory or disk.
    pub hits: u64,
    /// Lookups answered by neither tier.
    pub misses: u64,
    /// Disk entries rejected as damaged or version-mismatched.
    pub corrupt_entries: u64,
    /// Artifacts written back.
    pub writes: u64,
    /// Recompute cost (quantum ops) avoided by hits.
    pub cost_saved: u64,
    /// Segment positions served from cache or in-run dedup (incremental
    /// runs only; 0 for whole-run caching).
    pub segment_hits: u64,
    /// Unique segments characterized from scratch (incremental runs
    /// only; 0 for whole-run caching).
    pub segment_misses: u64,
}

impl CacheSummary {
    fn delta(before: &StoreStats, after: &StoreStats) -> Self {
        CacheSummary {
            hits: after.hits() - before.hits(),
            misses: after.misses - before.misses,
            corrupt_entries: after.corrupt_entries - before.corrupt_entries,
            writes: after.writes - before.writes,
            cost_saved: after.cost_saved - before.cost_saved,
            segment_hits: 0,
            segment_misses: 0,
        }
    }
}

/// The result of a full verification run.
#[derive(Debug)]
pub struct VerificationReport {
    /// The shared characterization (sampling results + costs).
    pub characterization: Characterization,
    /// One validation outcome per assertion, in insertion order.
    pub outcomes: Vec<ValidationOutcome>,
    /// Cost and behaviour summary of this run.
    pub run: RunReport,
}

impl VerificationReport {
    /// `true` if every assertion passed.
    pub fn all_passed(&self) -> bool {
        self.outcomes.iter().all(|o| o.verdict.passed())
    }

    /// The first failing outcome, if any.
    pub fn first_failure(&self) -> Option<&ValidationOutcome> {
        self.outcomes.iter().find(|o| !o.verdict.passed())
    }

    /// Minimum confidence across passed assertions (1.0 when none passed).
    pub fn min_confidence(&self) -> f64 {
        self.outcomes
            .iter()
            .filter_map(|o| match &o.verdict {
                Verdict::Passed { confidence, .. } => Some(*confidence),
                Verdict::Failed { .. } => None,
            })
            .fold(1.0, f64::min)
    }

    /// Total execution costs of the run.
    pub fn ledger(&self) -> &CostLedger {
        &self.characterization.ledger
    }

    /// The process exit code for a *completed* run under the 0/2/1
    /// convention shared by the `verify` CLI and `morph-serve`: `0` when
    /// every assertion passed, `2` when at least one was refuted. Failures
    /// to complete map through [`MorphError::exit_code`] (always `1`).
    pub fn exit_code(&self) -> i32 {
        if self.all_passed() {
            0
        } else {
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{RelationPredicate, StatePredicate};
    use morph_qprog::TracepointId;
    use rand::SeedableRng;

    fn ghz_with_traces() -> Circuit {
        let mut c = Circuit::new(3);
        c.tracepoint(1, &[0]);
        c.h(0).cx(0, 1).cx(1, 2);
        c.tracepoint(2, &[2]);
        c
    }

    #[test]
    fn verifier_reports_costs_and_confidence() {
        // For input α|0⟩+β|1⟩ on q0, the GHZ chain ends with
        // ⟨Z⟩ on q2 equal to ⟨X⟩ of the input — assert exactly that
        // relation (it holds for every input).
        let x = morph_qsim::matrices::x();
        let z = morph_qsim::matrices::z();
        let report = Verifier::new(ghz_with_traces())
            .input_qubits(&[0])
            .samples(4)
            .ensemble(morph_clifford::InputEnsemble::PauliProduct)
            .assert_that(AssumeGuarantee::new().guarantee_relation(
                TracepointId(1),
                TracepointId(2),
                RelationPredicate::custom(move |t1, t2| {
                    (morph_linalg::expectation(&x, t1) - morph_linalg::expectation(&z, t2)).abs()
                        - 1e-6
                }),
            ))
            .run(&mut StdRng::seed_from_u64(0));
        assert!(
            report.all_passed(),
            "{:?}",
            report.first_failure().map(|o| &o.verdict)
        );
        assert!(report.ledger().executions > 0);
        assert!(report.min_confidence() > 0.9);
    }

    #[test]
    fn multiple_assertions_evaluated_in_order() {
        let report = Verifier::new(ghz_with_traces())
            .input_qubits(&[0])
            .samples(4)
            .ensemble(morph_clifford::InputEnsemble::PauliProduct)
            .assert_that(
                AssumeGuarantee::new()
                    .assume(crate::StateRef::Input, StatePredicate::IsPure)
                    .guarantee_state(TracepointId(1), StatePredicate::IsPure),
            )
            .assert_that(
                // Deliberately wrong: T2 should equal |1><1| always.
                AssumeGuarantee::new().guarantee_state(
                    TracepointId(2),
                    StatePredicate::equals(CMatrixFixtures::one()),
                ),
            )
            .run(&mut StdRng::seed_from_u64(1));
        assert_eq!(report.outcomes.len(), 2);
        assert!(report.outcomes[0].verdict.passed());
        assert!(!report.outcomes[1].verdict.passed());
        assert!(!report.all_passed());
        assert!(report.first_failure().is_some());
    }

    #[test]
    fn broken_preconditions_reach_the_caller_as_errors() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut cache = SegmentedCache::in_memory();
        let precondition = |result: Result<VerificationReport, MorphError>| match result {
            Err(MorphError::Precondition(p)) => p,
            other => panic!("expected a precondition error, got {other:?}"),
        };
        let bare = Verifier::new(ghz_with_traces())
            .input_qubits(&[0])
            .samples(4);
        assert_eq!(
            precondition(bare.try_run_incremental(&mut rng, &mut cache)),
            Precondition::NoAssertions
        );
        let explicit = Verifier::new(ghz_with_traces())
            .input_qubits(&[0])
            .with_inputs(morph_clifford::InputEnsemble::Clifford.generate(1, 2, &mut rng))
            .assert_that(pure_assertion());
        assert_eq!(
            precondition(explicit.try_run_incremental(&mut rng, &mut cache)),
            Precondition::ExplicitInputsWithIncremental
        );
        let off_register = Verifier::new(ghz_with_traces())
            .input_qubits(&[5])
            .assert_that(pure_assertion());
        let want = Precondition::InputQubitOutOfRange {
            qubit: 5,
            n_qubits: 3,
        };
        assert_eq!(
            precondition(off_register.try_run_incremental(&mut rng, &mut cache)),
            want
        );
        match off_register.try_characterize_for_seed(0, &CancelToken::new()) {
            Err(MorphError::Precondition(p)) => assert_eq!(p, want),
            other => panic!("expected a precondition error, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "no assertions")]
    fn empty_verifier_rejected() {
        let _ = Verifier::new(ghz_with_traces()).run(&mut StdRng::seed_from_u64(0));
    }

    fn pure_assertion() -> AssumeGuarantee {
        AssumeGuarantee::new()
            .assume(crate::StateRef::Input, StatePredicate::IsPure)
            .guarantee_state(TracepointId(1), StatePredicate::IsPure)
    }

    #[test]
    fn run_report_summarizes_cost_and_solver_effort() {
        let report = Verifier::new(ghz_with_traces())
            .input_qubits(&[0])
            .samples(4)
            .ensemble(morph_clifford::InputEnsemble::PauliProduct)
            .assert_that(pure_assertion())
            .run(&mut StdRng::seed_from_u64(0));
        assert_eq!(report.run.executions, report.ledger().executions);
        assert_eq!(report.run.quantum_ops, report.ledger().quantum_ops);
        assert!(report.run.solver_evaluations > 0);
        assert!(report.run.solver_iterations > 0);
        assert!(report.run.cache.is_none(), "uncached run reports no cache");
    }

    #[test]
    fn cached_run_report_tracks_store_deltas() {
        let dir = std::env::temp_dir().join(format!(
            "morphqpv-verifier-cache-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cache = CharacterizationCache::open(&dir).unwrap();
        let verifier = Verifier::new(ghz_with_traces())
            .input_qubits(&[0])
            .samples(4)
            .ensemble(morph_clifford::InputEnsemble::PauliProduct)
            .assert_that(pure_assertion());

        let first = verifier
            .try_run_with_cache(&mut StdRng::seed_from_u64(3), &mut cache)
            .unwrap();
        let cold = first.run.cache.expect("cached run carries a summary");
        assert_eq!(cold.hits, 0);
        assert_eq!(cold.misses, 1);
        assert_eq!(cold.writes, 1);

        let second = verifier
            .try_run_with_cache(&mut StdRng::seed_from_u64(3), &mut cache)
            .unwrap();
        let warm = second.run.cache.expect("cached run carries a summary");
        assert_eq!(warm.hits, 1, "identical run should hit: {warm:?}");
        assert_eq!(warm.misses, 0);
        assert!(warm.cost_saved > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn incremental_run_reports_segment_reuse() {
        let mut cache = SegmentedCache::in_memory();
        let verifier = Verifier::new(ghz_with_traces())
            .input_qubits(&[0])
            .samples(4)
            .ensemble(morph_clifford::InputEnsemble::PauliProduct)
            .incremental(SegmentedConfig::new().segment_gates(1))
            .assert_that(pure_assertion());

        let cold = verifier
            .try_run_incremental(&mut StdRng::seed_from_u64(3), &mut cache)
            .unwrap();
        assert!(cold.all_passed());
        let cold_cache = cold.run.cache.expect("incremental run carries a summary");
        assert_eq!(cold_cache.segment_hits, 0);
        assert!(cold_cache.segment_misses >= 3, "{cold_cache:?}");

        // Re-verify an edited program: one extra trailing gate. Every
        // original segment must be reused.
        let mut edited = ghz_with_traces();
        edited.z(2);
        let verifier = Verifier::new(edited)
            .input_qubits(&[0])
            .samples(4)
            .ensemble(morph_clifford::InputEnsemble::PauliProduct)
            .incremental(SegmentedConfig::new().segment_gates(1))
            .assert_that(pure_assertion());
        let warm = verifier
            .try_run_incremental(&mut StdRng::seed_from_u64(3), &mut cache)
            .unwrap();
        let warm_cache = warm.run.cache.expect("incremental run carries a summary");
        assert!(warm_cache.segment_hits >= 3, "{warm_cache:?}");
        assert!(warm_cache.segment_misses <= 1, "{warm_cache:?}");
    }

    struct CMatrixFixtures;
    impl CMatrixFixtures {
        fn one() -> morph_linalg::CMatrix {
            morph_linalg::CMatrix::outer(
                &[morph_linalg::C64::ZERO, morph_linalg::C64::ONE],
                &[morph_linalg::C64::ZERO, morph_linalg::C64::ONE],
            )
        }
    }
}
