//! # MorphQPV: isomorphism-based confident verification of quantum programs
//!
//! A from-scratch Rust implementation of *MorphQPV: Exploiting Isomorphism
//! in Quantum Programs to Facilitate Confident Verification* (ASPLOS 2024).
//!
//! The methodology has three steps, each a module here:
//!
//! 1. **Assertion statement** — label runtime states with tracepoint
//!    pragmas (`T <id> q[..]` in [`morph_qprog`]) and relate them with an
//!    [`AssumeGuarantee`] assertion built from [`StatePredicate`]s and
//!    [`RelationPredicate`]s (Definition 1).
//! 2. **Isomorphism-based characterization** — [`try_characterize`] runs the
//!    program under a small sampled input ensemble and fits one
//!    [`ApproximationFunction`] per tracepoint: because quantum evolution
//!    is linear in the density matrix, the tracepoint state under *any*
//!    input is the same linear combination of sampled tracepoint states as
//!    the input is of sampled inputs (Theorem 1). Accuracy follows
//!    Theorem 2; sampling cost can be pruned with the Section 5.4
//!    strategies ([`adaptive_inputs`], [`constant_pinned_inputs`],
//!    probabilities-only readout).
//! 3. **Validation** — [`try_validate_assertion`] maximizes the guarantee
//!    objective over the combination coefficients under the assumption
//!    constraints (Section 6.1). A positive maximum yields a concrete
//!    counter-example input; otherwise [`ConfidenceModel`] (Theorem 3)
//!    bounds the probability that a counter-example escaped.
//!
//! The [`Verifier`] builder packages the whole flow.
//!
//! ## Parallelism
//!
//! Characterization is one sweep over lane ranges fanned out to worker
//! threads: up to 32 sampled inputs per range on the dense backend (fewer
//! on registers wider than 22 qubits), where the
//! noiseless lanes share one gate-major pass, and one input per range on
//! the stabilizer and sparse fast paths. Set
//! [`CharacterizationConfig::parallelism`] to `0` for all available cores
//! where the work pays for them (the default: a sweep under a millisecond
//! of serial work spawns no thread), `1` for a serial run, or `k` for
//! exactly `k` workers.
//! Each sampled input owns an RNG stream derived from one master seed and
//! its input index, and per-range cost ledgers merge exactly, so the
//! traces and the [`Characterization::ledger`] are **bit-identical at
//! every setting** — worker count changes wall-clock time only (see
//! DESIGN.md "Deterministic parallelism").
//!
//! ## Errors
//!
//! The `try_*` entry points check a request before doing any work and
//! report a broken precondition (no tracepoints, a tracepoint naming a
//! qubit twice, no assertions, an assertion naming an undeclared
//! tracepoint, bad input qubits, zero samples, a noisy register too wide
//! for density-matrix simulation) as [`MorphError::Precondition`].
//!
//! ## Quickstart
//!
//! ```
//! use morphqpv::prelude::*;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // A (buggy?) identity program.
//! let mut program = morph_qprog::Circuit::new(1);
//! program.tracepoint(1, &[0]);
//! program.h(0);
//! program.h(0);
//! program.tracepoint(2, &[0]);
//!
//! let report = Verifier::new(program)
//!     .input_qubits(&[0])
//!     .samples(4)
//!     .assert_that(
//!         AssumeGuarantee::new()
//!             .assume(TracepointId(1), StatePredicate::IsPure)
//!             .guarantee_relation(TracepointId(1), TracepointId(2), RelationPredicate::Equal),
//!     )
//!     .try_run(&mut StdRng::seed_from_u64(0), None)?;
//! assert!(report.all_passed());
//! # Ok::<(), MorphError>(())
//! ```

mod approx;
mod assertion;
mod cache;
mod cancel;
mod characterize;
mod confidence;
mod counterexample;
mod error;
mod incremental;
mod predicate;
pub mod prelude;
mod prune;
mod ptm;
mod spec;
mod validate;
mod verifier;

pub use approx::{ApproximationFunction, ChainedApproximation, InputSpan, Mitigation};
pub use assertion::{AssumeGuarantee, Guarantee, StateRef};
pub use cache::{
    characterization_fingerprint, CharacterizationCache, ARTIFACT_VERSION, FINGERPRINT_DOMAIN,
};
pub use cancel::{CancelToken, Cancelled};
pub use characterize::{
    try_characterize, try_characterize_with_inputs, Characterization, CharacterizationConfig,
};
pub use confidence::{regularized_incomplete_beta, ConfidenceModel};
// Backend selection surfaces in configs and reports; re-export the types
// so downstream crates don't need direct morph-backend/morph-qprog deps.
pub use counterexample::CounterExample;
pub use error::{MorphError, Precondition};
pub use incremental::{
    characterize_segment, segment_fingerprint, segment_plan, segment_seed,
    try_characterize_incremental, Boundary, IncrementalCharacterization, SegmentError, SegmentPlan,
    SegmentReport, SegmentedCache, SegmentedConfig, BOUNDARY_DOMAIN, DEFAULT_SEGMENT_GATES,
    SEGMENT_CUT_DOMAIN, SEGMENT_DOMAIN,
};
pub use morph_backend::BackendChoice;
// `Verifier::ensemble` takes the ensemble type and
// `try_characterize_with_inputs` the input type; re-export them so callers
// configure a run without a direct morph-clifford dep.
pub use morph_clifford::{InputEnsemble, InputState};
pub use morph_qprog::BackendMode;
pub use predicate::{RelationPredicate, StatePredicate};
pub use prune::{adaptive_inputs, adaptive_operator_inputs, constant_pinned_inputs};
pub use ptm::PauliTransferMatrix;
pub use spec::{assertions_from_source, parse_assertion, ParseSpecError};
pub use validate::{
    fit_confidence_model, try_validate_assertion, SolverKind, ValidationConfig, ValidationError,
    ValidationOutcome, Verdict,
};
pub use verifier::{CacheSummary, RunReport, VerificationReport, Verifier};
