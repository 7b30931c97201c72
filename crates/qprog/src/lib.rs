//! Quantum program representation and execution for the MorphQPV
//! reproduction.
//!
//! - [`Circuit`] / [`Instruction`]: the program IR with the paper's
//!   tracepoint pragma, mid-circuit measurement, and classical feedback.
//! - [`parse_program`] / [`write_program`]: QASM-like surface syntax
//!   including `T <id> q[..]`, with a lossless round trip.
//! - [`Executor`]: stochastic trajectories, exact branch-enumerated expected
//!   states (noiseless or with channel noise), shot sampling, and hardware
//!   duration estimates.
//!
//! # Examples
//!
//! ```
//! use morph_qprog::{parse_program, Executor, TracepointId};
//! use morph_qsim::StateVector;
//!
//! let program = parse_program(
//!     "qreg q[2];\n\
//!      T 1 q[0];\n\
//!      h q[0];\n\
//!      cx q[0],q[1];\n\
//!      T 2 q[0,1];",
//! )?;
//! let record = Executor::default().run_expected(&program, &StateVector::zero_state(2));
//! let bell = record.state(TracepointId(2));
//! assert!((bell[(0, 3)].re - 0.5).abs() < 1e-12);
//! # Ok::<(), morph_qprog::ParseProgramError>(())
//! ```

mod backend_mode;
mod circuit;
mod executor;
mod fusion;
mod optimize_pass;
mod parser;
mod writer;

pub use backend_mode::BackendMode;
pub use circuit::{repeated_qubit, Circuit, Instruction, TracepointId};
pub use executor::{ExecutionRecord, Executor, ExecutorBuilder, ExpectedRecord};
pub use fusion::fuse_circuit;
pub use optimize_pass::{simplify, SimplifyStats};
pub use parser::{parse_program, ParseProgramError};
pub use writer::{write_program, UnrepresentableError};
