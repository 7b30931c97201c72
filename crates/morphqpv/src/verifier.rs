//! High-level verification front-end: the three-step MorphQPV flow
//! (assert → characterize → validate) behind one builder.

use morph_clifford::InputEnsemble;
use morph_qprog::{Circuit, TracepointId};
use morph_qsim::NoiseModel;
use morph_store::{Fingerprint, StoreStats};
use morph_tomography::{CostLedger, ReadoutMode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::assertion::{AssumeGuarantee, StateRef};
use crate::cache::CharacterizationCache;
use crate::cancel::CancelToken;
use crate::characterize::{try_characterize, Characterization, CharacterizationConfig};
use crate::error::{MorphError, Precondition};
use crate::incremental::{try_characterize_incremental, SegmentedCache, SegmentedConfig};
use crate::validate::{try_validate_assertion, ValidationConfig, ValidationOutcome, Verdict};

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
///     .try_run(&mut StdRng::seed_from_u64(7), None)?;
/// assert!(report.all_passed());
/// # Ok::<(), morphqpv::MorphError>(())
/// ```
#[derive(Debug)]
pub struct Verifier {
    circuit: Circuit,
    assertions: Vec<AssumeGuarantee>,
    characterization_config: CharacterizationConfig,
    validation_config: ValidationConfig,
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
    /// [`morph_qprog::BackendMode::Auto`]).
    pub fn backend(mut self, backend: morph_qprog::BackendMode) -> Self {
        self.characterization_config.backend = backend;
        self
    }

    /// Overrides the validation configuration (solver, thresholds).
    pub fn validation(mut self, config: ValidationConfig) -> Self {
        self.validation_config = config;
        self
    }

    /// Configures incremental characterization for
    /// [`Self::try_run_incremental`] (the revision loop: re-verifying an
    /// edited program reports which of its segments are unchanged since a
    /// run that shared the cache). perfbench's `revise` workload is its last
    /// caller.
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
    /// called). perfbench's `revise` workload is its last caller.
    pub fn segmented_config(&self) -> SegmentedConfig {
        self.segmented.unwrap_or_default()
    }

    /// The content address of this verifier's characterization for a given
    /// `char_seed` — the key [`Self::try_run`] looks its cache up under
    /// after drawing `char_seed` from the caller's RNG, and the key
    /// services use to coalesce concurrent identical jobs (see
    /// `morph-serve`).
    pub fn characterization_fingerprint(&self, char_seed: u64) -> Fingerprint {
        crate::cache::characterization_fingerprint(
            &self.circuit,
            &self.characterization_config,
            char_seed,
        )
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
        try_characterize(
            &self.circuit,
            &self.characterization_config,
            &mut StdRng::seed_from_u64(char_seed),
            cancel,
        )
    }

    /// Validates every assertion against an already-computed
    /// `characterization` (own run, cache hit, or a leader's shared
    /// artifact), checking `cancel` between assertions.
    ///
    /// # Errors
    ///
    /// [`MorphError::Precondition`] when no assertions were added or an
    /// assertion names a tracepoint `characterization` carries no traces
    /// for (both checked before any solve),
    /// [`MorphError::Validation`] on solver failure,
    /// [`MorphError::Cancelled`] when `cancel` fires between assertions.
    pub fn try_validate_with(
        &self,
        characterization: Characterization,
        rng: &mut StdRng,
        cache: Option<CacheSummary>,
        cancel: &CancelToken,
    ) -> Result<VerificationReport, MorphError> {
        self.check_assertions(|id| characterization.traces.contains_key(&id))?;
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

    /// Verifies every assertion: checks the preconditions, draws one `u64`
    /// characterization seed from `rng`, characterizes with it, then
    /// validates from the same `rng` through [`Self::try_validate_with`].
    /// With a `cache`, the characterization comes from
    /// [`morph_store::MorphStore::get_or_compute`] under
    /// [`Self::characterization_fingerprint`] for that seed — the call
    /// morph-serve's jobs share the cache through.
    ///
    /// Uncached, cold and warm runs therefore report bit-identical results
    /// and advance `rng` identically. With a cache, the report's
    /// [`RunReport::cache`] summarizes the hits, misses, and cost saved by
    /// *this* run (a delta, not the cache's lifetime stats). Persistence is
    /// best-effort: a read-only cache directory degrades to memory-only
    /// caching rather than failing the run.
    ///
    /// # Errors
    ///
    /// [`MorphError::Precondition`] when no assertions were added or an
    /// assertion names a tracepoint the program does not declare (both
    /// checked before any characterization), or when the program or
    /// configuration cannot be characterized (see
    /// [`crate::try_characterize`]); [`MorphError::Validation`] when the
    /// solver cannot produce an optimum (zero restarts configured,
    /// all-NaN objective).
    pub fn try_run(
        &self,
        rng: &mut StdRng,
        cache: Option<&CharacterizationCache>,
    ) -> Result<VerificationReport, MorphError> {
        self.check_assertions(|id| self.circuit.tracepoint_position(id).is_some())?;
        let _trace = morph_trace::span("verify/run");
        let char_seed: u64 = rng.gen();
        let never = CancelToken::new();
        let Some(cache) = cache else {
            let characterization = self.try_characterize_for_seed(char_seed, &never)?;
            return self.try_validate_with(characterization, rng, None, &never);
        };
        let stats_before = cache.stats();
        let (characterization, _) = cache.get_or_compute(
            &self.characterization_fingerprint(char_seed),
            || Ok(()),
            || self.try_characterize_for_seed(char_seed, &never),
        )?;
        let summary = CacheSummary::delta(&stats_before, &cache.stats());
        // The report owns its characterization: one clone of the stored one.
        let characterization = Characterization::clone(&characterization);
        self.try_validate_with(characterization, rng, Some(summary), &never)
    }

    /// Incremental [`Self::try_run`]: characterizes and validates as an
    /// uncached [`Self::try_run`] does, drawing from `rng` alike, and its
    /// [`CacheSummary`] counts the segments unchanged since a run that
    /// shared `cache` (see [`crate::try_characterize_incremental`]).
    /// perfbench's `revise` workload is its last caller.
    ///
    /// # Errors
    ///
    /// [`MorphError::Precondition`] when no assertions were added, an
    /// assertion names a tracepoint the program does not declare (both
    /// checked before any characterization), or the program or
    /// configuration cannot be characterized;
    /// [`MorphError::Segment`] when the program cannot be segmented (see
    /// [`crate::SegmentError`]);
    /// [`MorphError::Validation`] on solver failure.
    pub fn try_run_incremental(
        &self,
        rng: &mut StdRng,
        cache: &SegmentedCache,
    ) -> Result<VerificationReport, MorphError> {
        self.check_assertions(|id| self.circuit.tracepoint_position(id).is_some())?;
        let _trace = morph_trace::span("verify/run");
        let stats_before = cache.stats();
        let seg = self.segmented_config();
        let inc = try_characterize_incremental(
            &self.circuit,
            &self.characterization_config,
            &seg,
            rng,
            cache,
        )?;
        let mut summary = CacheSummary::delta(&stats_before, &cache.stats());
        summary.segment_hits = inc.segments.hits;
        summary.segment_misses = inc.segments.misses;
        self.try_validate_with(
            inc.characterization,
            rng,
            Some(summary),
            &CancelToken::new(),
        )
    }

    /// The assertion preconditions every run checks before doing any work:
    /// at least one assertion, and every tracepoint an assertion names
    /// passes `declared`.
    fn check_assertions(
        &self,
        declared: impl Fn(TracepointId) -> bool,
    ) -> Result<(), Precondition> {
        if self.assertions.is_empty() {
            return Err(Precondition::NoAssertions);
        }
        let unknown = self
            .assertions
            .iter()
            .flat_map(AssumeGuarantee::state_refs)
            .find_map(|state| match state {
                StateRef::Tracepoint(id) if !declared(id) => Some(id),
                _ => None,
            });
        match unknown {
            Some(id) => Err(Precondition::UnknownTracepoint { id }),
            None => Ok(()),
        }
    }
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
    /// The validation solver's configured iteration budget
    /// ([`morph_optimize::OptResult::iterations`]), summed over assertions
    /// — not the steps taken, which a QP start stops short of at its fixed
    /// point.
    pub solver_iterations: u64,
    /// Cache behaviour of this run — `None` when the run used no cache.
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
    /// Segments up to the last boundary the cache holds, unchanged since
    /// a run that shared it (incremental runs only; 0 for whole-run
    /// caching).
    pub segment_hits: u64,
    /// The segments after them: the first edited one and every one after
    /// it (incremental runs only; 0 for whole-run caching).
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
            .try_run(&mut StdRng::seed_from_u64(0), None)
            .unwrap();
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
            .try_run(&mut StdRng::seed_from_u64(1), None)
            .unwrap();
        assert_eq!(report.outcomes.len(), 2);
        assert!(report.outcomes[0].verdict.passed());
        assert!(!report.outcomes[1].verdict.passed());
        assert!(!report.all_passed());
        assert!(report.first_failure().is_some());
    }

    #[test]
    fn broken_preconditions_reach_the_caller_as_errors() {
        let mut rng = StdRng::seed_from_u64(0);
        let cache = SegmentedCache::in_memory();
        let precondition = |result: Result<VerificationReport, MorphError>| match result {
            Err(MorphError::Precondition(p)) => p,
            other => panic!("expected a precondition error, got {other:?}"),
        };
        let off_register = Verifier::new(ghz_with_traces())
            .input_qubits(&[5])
            .assert_that(pure_assertion());
        let want = Precondition::InputQubitOutOfRange {
            qubit: 5,
            n_qubits: 3,
        };
        assert_eq!(
            precondition(off_register.try_run_incremental(&mut rng, &cache)),
            want
        );
        match off_register.try_characterize_for_seed(0, &CancelToken::new()) {
            Err(MorphError::Precondition(p)) => assert_eq!(p, want),
            other => panic!("expected a precondition error, got {other:?}"),
        }
    }

    /// A verifier without assertions, or with one naming an undeclared
    /// tracepoint, is refused by every run method before it draws from the
    /// caller's RNG — so before any characterization or solve.
    #[test]
    fn assertion_preconditions_are_errors_before_any_work() {
        let unknown =
            AssumeGuarantee::new().guarantee_state(TracepointId(9), StatePredicate::IsPure);
        let cases = [
            (
                Verifier::new(ghz_with_traces()).input_qubits(&[0]),
                Precondition::NoAssertions,
            ),
            (
                Verifier::new(ghz_with_traces())
                    .input_qubits(&[0])
                    .assert_that(pure_assertion())
                    .assert_that(unknown),
                Precondition::UnknownTracepoint {
                    id: TracepointId(9),
                },
            ),
        ];
        let characterization = Verifier::new(ghz_with_traces())
            .input_qubits(&[0])
            .samples(2)
            .try_characterize_for_seed(0, &CancelToken::new())
            .unwrap();
        for (verifier, want) in cases {
            let mut rng = StdRng::seed_from_u64(4);
            let cache = CharacterizationCache::in_memory();
            let segments = SegmentedCache::in_memory();
            let results = [
                verifier.try_run(&mut rng, None),
                verifier.try_run(&mut rng, Some(&cache)),
                verifier.try_run_incremental(&mut rng, &segments),
                verifier.try_validate_with(
                    characterization.clone(),
                    &mut rng,
                    None,
                    &CancelToken::new(),
                ),
            ];
            for result in results {
                match result {
                    Err(MorphError::Precondition(p)) => assert_eq!(p, want),
                    other => panic!("expected {want:?}, got {other:?}"),
                }
            }
            assert_eq!(
                rng.gen::<u64>(),
                StdRng::seed_from_u64(4).gen::<u64>(),
                "a refused run must not touch the caller's RNG"
            );
            assert_eq!(cache.stats().misses, 0);
            assert_eq!(segments.stats().misses, 0);
        }
    }

    fn pure_assertion() -> AssumeGuarantee {
        AssumeGuarantee::new()
            .assume(crate::StateRef::Input, StatePredicate::IsPure)
            .guarantee_state(TracepointId(1), StatePredicate::IsPure)
    }

    /// Everything a report carries apart from its cache summary, rendered
    /// with `Debug` — which prints every `f64` in round-trip form, so equal
    /// strings mean bitwise-equal inputs, traces, ledgers, verdicts,
    /// objectives and solver diagnostics.
    fn observable(report: &VerificationReport) -> String {
        let run = RunReport {
            cache: None,
            ..report.run
        };
        format!("{:?}", (&report.characterization, &report.outcomes, run))
    }

    /// Uncached, cold-cache, warm-cache and serve-style split runs share one
    /// RNG discipline: one `u64` seeds (and, with a cache, addresses) the
    /// characterization, and validation continues from the caller's stream.
    #[test]
    fn every_run_path_shares_one_rng_discipline() {
        let failing = AssumeGuarantee::new().guarantee_state(
            TracepointId(2),
            StatePredicate::equals(CMatrixFixtures::one()),
        );
        let verifier = Verifier::new(ghz_with_traces())
            .input_qubits(&[0])
            .samples(4)
            .ensemble(morph_clifford::InputEnsemble::PauliProduct)
            .readout(ReadoutMode::Shots(40))
            .assert_that(pure_assertion())
            .assert_that(failing);
        // Each path's report plus the caller's next draw, which pins how
        // far the path advanced the caller's RNG.
        let run = |cache: Option<&CharacterizationCache>| {
            let mut rng = StdRng::seed_from_u64(17);
            let report = verifier.try_run(&mut rng, cache).unwrap();
            (report, rng.gen::<u64>())
        };
        let uncached = run(None);
        assert!(uncached.0.run.cache.is_none());
        assert!(
            !uncached.0.all_passed(),
            "the failing assertion must refute"
        );

        let cache = CharacterizationCache::in_memory();
        let cold = run(Some(&cache));
        let summary = cold.0.run.cache.expect("cached run carries a summary");
        assert_eq!((summary.hits, summary.misses, summary.writes), (0, 1, 1));
        let warm = run(Some(&cache));
        let summary = warm.0.run.cache.expect("cached run carries a summary");
        assert_eq!((summary.hits, summary.misses, summary.writes), (1, 0, 0));
        assert!(summary.cost_saved > 0);

        let split = {
            let mut rng = StdRng::seed_from_u64(17);
            let never = CancelToken::new();
            let ch = verifier
                .try_characterize_for_seed(rng.gen(), &never)
                .unwrap();
            let report = verifier
                .try_validate_with(ch, &mut rng, None, &never)
                .unwrap();
            (report, rng.gen::<u64>())
        };
        for (report, next) in [&cold, &warm, &split] {
            assert_eq!(observable(report), observable(&uncached.0));
            assert_eq!(*next, uncached.1, "the caller's RNG advanced differently");
        }
    }

    #[test]
    fn run_report_summarizes_cost_and_solver_effort() {
        let report = Verifier::new(ghz_with_traces())
            .input_qubits(&[0])
            .samples(4)
            .ensemble(morph_clifford::InputEnsemble::PauliProduct)
            .assert_that(pure_assertion())
            .try_run(&mut StdRng::seed_from_u64(0), None)
            .unwrap();
        assert_eq!(report.run.executions, report.ledger().executions);
        assert_eq!(report.run.quantum_ops, report.ledger().quantum_ops);
        assert!(report.run.solver_evaluations > 0);
        assert!(report.run.solver_iterations > 0);
        assert!(report.run.cache.is_none(), "uncached run reports no cache");
    }

    #[test]
    fn incremental_run_reports_segment_reuse() {
        let cache = SegmentedCache::in_memory();
        let verifier = Verifier::new(ghz_with_traces())
            .input_qubits(&[0])
            .samples(4)
            .ensemble(morph_clifford::InputEnsemble::PauliProduct)
            .incremental(SegmentedConfig::new().segment_gates(1))
            .assert_that(pure_assertion());

        let cold = verifier
            .try_run_incremental(&mut StdRng::seed_from_u64(3), &cache)
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
            .try_run_incremental(&mut StdRng::seed_from_u64(3), &cache)
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
