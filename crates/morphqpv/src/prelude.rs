//! The blessed public surface, importable in one line.
//!
//! Everything a typical verification — library call, CLI, or service —
//! needs, re-exported under stable names:
//!
//! ```
//! use morphqpv::prelude::*;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut program = Circuit::new(1);
//! program.tracepoint(1, &[0]);
//! program.x(0);
//! program.tracepoint(2, &[0]);
//!
//! let report = Verifier::new(program)
//!     .samples(4)
//!     .assert_that(
//!         Assertion::new()
//!             .assume(TracepointId(1), StatePredicate::IsPure)
//!             .guarantee_state(TracepointId(2), StatePredicate::IsPure),
//!     )
//!     .try_run(&mut StdRng::seed_from_u64(0), None)?;
//! assert!(report.all_passed());
//! assert_eq!(report.exit_code(), 0);
//! # Ok::<(), MorphError>(())
//! ```
//!
//! Anything *not* re-exported here (solver internals, approximation
//! machinery, pruning strategies) is still reachable through the crate
//! root, but its names are less settled.

pub use crate::assertion::{AssumeGuarantee, StateRef};
pub use crate::cache::CharacterizationCache;
pub use crate::cancel::{CancelToken, Cancelled};
pub use crate::characterize::{try_characterize, Characterization, CharacterizationConfig};
pub use crate::confidence::ConfidenceModel;
pub use crate::counterexample::CounterExample;
pub use crate::error::{MorphError, Precondition};
pub use crate::predicate::{RelationPredicate, StatePredicate};
pub use crate::spec::{assertions_from_source, parse_assertion};
pub use crate::validate::{
    SolverKind, ValidationConfig, ValidationError, ValidationOutcome, Verdict,
};
pub use crate::verifier::{CacheSummary, RunReport, VerificationReport, Verifier};

pub use morph_clifford::{InputEnsemble, InputState};
pub use morph_qprog::{parse_program, Circuit, Executor, ExecutorBuilder, TracepointId};

/// The paper's Definition 1 assume–guarantee assertion, under the name the
/// rest of the API documentation uses.
pub type Assertion = AssumeGuarantee;
