//! The workspace-level error type.
//!
//! Four PRs of organic growth left each layer with its own error —
//! [`morph_qprog::ParseProgramError`], [`crate::ParseSpecError`],
//! [`crate::ValidationError`] (wrapping `morph_optimize::SolveError`),
//! plain [`std::io::Error`] from the artifact store — forcing every caller
//! into `Box<dyn Error>` or ad-hoc matches. [`MorphError`] unifies them:
//! one enum with `From` impls from each layer, a stable [`Display`]
//! rendering, and the CLI exit-code convention in one place
//! ([`MorphError::exit_code`] together with
//! [`crate::VerificationReport::exit_code`]).
//!
//! The convention, shared by the `verify` CLI and the `morph-serve`
//! protocol: **0** — ran to completion and every assertion passed; **2** —
//! ran to completion and at least one assertion was refuted; **1** — the
//! pipeline could not complete (parse error, broken precondition, solver
//! failure, I/O, cancellation). `morph-serve`'s `JobError` wraps
//! `MorphError` on the service side (`From<MorphError> for JobError`),
//! keeping the dependency arrow pointing downstream.

use std::fmt;
use std::io;

use morph_optimize::SolveError;
use morph_qprog::{ParseProgramError, TracepointId};

use crate::cancel::Cancelled;
use crate::incremental::SegmentError;
use crate::spec::ParseSpecError;
use crate::validate::ValidationError;

/// Widest register the noisy characterization sweep simulates: channel
/// noise needs a `4^n`-element density matrix per sampled input.
pub(crate) const MAX_NOISY_QUBITS: usize = 12;

/// A verification request the pipeline refuses before doing any work: the
/// precondition it breaks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Precondition {
    /// The program has no tracepoints, so there is nothing to characterize.
    NoTracepoints,
    /// A tracepoint names one qubit twice, so it has no reduced state.
    RepeatedTracepointQubit {
        /// The offending tracepoint.
        id: TracepointId,
        /// The qubit it names more than once.
        qubit: usize,
    },
    /// The verifier has no assertions to check.
    NoAssertions,
    /// An assertion names a tracepoint the program does not declare (or,
    /// for a supplied characterization, one it carries no traces for).
    UnknownTracepoint {
        /// The undeclared tracepoint.
        id: TracepointId,
    },
    /// No input qubits were configured.
    NoInputQubits,
    /// An input qubit lies outside the program's register.
    InputQubitOutOfRange {
        /// The offending input qubit.
        qubit: usize,
        /// The program's register width.
        n_qubits: usize,
    },
    /// Nothing to sample: zero samples, or an empty explicit input set.
    NoSamples,
    /// A gate's rotation angle or a matrix entry is NaN or infinite, which
    /// would make the simulated amplitudes depend on the kernel that
    /// applies it. The parser rejects such angles; this catches circuits
    /// built in code.
    NonFiniteGate {
        /// Index of the offending instruction.
        index: usize,
    },
    /// Channel noise needs density-matrix simulation, which is capped at
    /// 12 qubits.
    NoisyRegisterTooWide {
        /// The program's register width.
        n_qubits: usize,
    },
}

impl fmt::Display for Precondition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Precondition::NoTracepoints => {
                write!(f, "program has no tracepoints to characterize")
            }
            Precondition::RepeatedTracepointQubit { id, qubit } => {
                write!(f, "tracepoint {id} names qubit {qubit} twice")
            }
            Precondition::NoAssertions => write!(f, "no assertions to verify"),
            Precondition::UnknownTracepoint { id } => write!(
                f,
                "assertion references tracepoint {id}, which the program does not declare"
            ),
            Precondition::NoInputQubits => write!(f, "no input qubits configured"),
            Precondition::InputQubitOutOfRange { qubit, n_qubits } => write!(
                f,
                "input qubit {qubit} out of range for a {n_qubits}-qubit program"
            ),
            Precondition::NoSamples => write!(f, "characterization needs at least one sample"),
            Precondition::NonFiniteGate { index } => {
                write!(f, "instruction {index} has a non-finite gate parameter")
            }
            Precondition::NoisyRegisterTooWide { n_qubits } => write!(
                f,
                "noisy characterization needs density-matrix simulation \
                 (at most {MAX_NOISY_QUBITS} qubits), got {n_qubits}"
            ),
        }
    }
}

impl std::error::Error for Precondition {}

/// Any way the verification pipeline can fail to produce a verdict.
#[derive(Debug)]
pub enum MorphError {
    /// The program source did not parse.
    Parse(ParseProgramError),
    /// An `// assert` specification did not parse.
    Spec(ParseSpecError),
    /// The validation stage failed structurally (solver could not produce
    /// an optimum).
    Validation(ValidationError),
    /// The artifact store could not be opened or written.
    Store(io::Error),
    /// The incremental characterization surface rejected the
    /// program or configuration.
    Segment(SegmentError),
    /// A cooperative cancellation point fired (deadline or explicit).
    Cancelled(Cancelled),
    /// The request broke a precondition and no work was done.
    Precondition(Precondition),
}

impl MorphError {
    /// The process exit code for this error under the 0/2/1 convention
    /// described in the module docs: every `MorphError` is a failure to
    /// complete, hence `1`. Successful runs map through
    /// [`crate::VerificationReport::exit_code`] instead.
    pub fn exit_code(&self) -> i32 {
        1
    }
}

impl fmt::Display for MorphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MorphError::Parse(e) => write!(f, "program parse error: {e}"),
            MorphError::Spec(e) => write!(f, "assertion parse error: {e}"),
            MorphError::Validation(e) => write!(f, "{e}"),
            MorphError::Store(e) => write!(f, "artifact store error: {e}"),
            MorphError::Segment(e) => write!(f, "{e}"),
            MorphError::Cancelled(e) => write!(f, "cancelled: {e}"),
            MorphError::Precondition(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for MorphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MorphError::Parse(e) => Some(e),
            MorphError::Spec(e) => Some(e),
            MorphError::Validation(e) => Some(e),
            MorphError::Store(e) => Some(e),
            MorphError::Segment(e) => Some(e),
            MorphError::Cancelled(e) => Some(e),
            MorphError::Precondition(e) => Some(e),
        }
    }
}

impl From<ParseProgramError> for MorphError {
    fn from(e: ParseProgramError) -> Self {
        MorphError::Parse(e)
    }
}

impl From<ParseSpecError> for MorphError {
    fn from(e: ParseSpecError) -> Self {
        MorphError::Spec(e)
    }
}

impl From<ValidationError> for MorphError {
    fn from(e: ValidationError) -> Self {
        MorphError::Validation(e)
    }
}

impl From<SolveError> for MorphError {
    fn from(e: SolveError) -> Self {
        MorphError::Validation(ValidationError::Solver(e))
    }
}

impl From<io::Error> for MorphError {
    fn from(e: io::Error) -> Self {
        MorphError::Store(e)
    }
}

impl From<Cancelled> for MorphError {
    fn from(e: Cancelled) -> Self {
        MorphError::Cancelled(e)
    }
}

impl From<Precondition> for MorphError {
    fn from(e: Precondition) -> Self {
        MorphError::Precondition(e)
    }
}

impl From<SegmentError> for MorphError {
    fn from(e: SegmentError) -> Self {
        MorphError::Segment(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn wraps_every_layer_with_source_chain() {
        let solver: MorphError = SolveError::NoRestarts { solver: "QP" }.into();
        assert!(matches!(solver, MorphError::Validation(_)));
        assert!(solver.source().is_some(), "chain reaches the inner error");
        assert!(solver.to_string().contains("solver"));

        let store: MorphError = io::Error::new(io::ErrorKind::PermissionDenied, "ro").into();
        assert!(matches!(store, MorphError::Store(_)));

        let cancel: MorphError = Cancelled::DeadlineExceeded.into();
        assert!(cancel.to_string().contains("deadline"));
    }

    #[test]
    fn every_error_exits_one() {
        let e: MorphError = Cancelled::Requested.into();
        assert_eq!(e.exit_code(), 1);
        let e: MorphError = SolveError::NoRestarts { solver: "QP" }.into();
        assert_eq!(e.exit_code(), 1);
    }
}
