//! Quantum state simulation substrate for the MorphQPV reproduction.
//!
//! This crate plays the role of the Pennylane/Qiskit simulators in the
//! original paper's evaluation:
//!
//! - [`StateVector`]: dense pure-state simulation with per-gate bit-twiddled
//!   kernels, projective measurement, shot sampling, and cheap reduced
//!   density matrices for tracepoint capture.
//! - [`DensityMatrix`]: exact mixed-state simulation with Kraus channels for
//!   small registers.
//! - [`Gate`]: the instruction-level gate library (Cliffords, rotations,
//!   multi-controlled Z/RX) with unitary matrices and inverse/cost metadata.
//! - [`NoiseModel`]: IBM-Cairo-style depolarizing + readout noise, usable as
//!   exact channels or stochastic Pauli-twirl trajectories.
//!
//! Index convention everywhere: **qubit 0 is the most significant bit** of a
//! computational-basis index.
//!
//! # Examples
//!
//! ```
//! use morph_qsim::{Gate, StateVector};
//!
//! // GHZ state on 3 qubits.
//! let mut psi = StateVector::zero_state(3);
//! Gate::H(0).apply(&mut psi);
//! Gate::CX(0, 1).apply(&mut psi);
//! Gate::CX(1, 2).apply(&mut psi);
//!
//! let rho01 = psi.reduced_density_matrix(&[0, 1]);
//! assert!((rho01[(0, 0)].re - 0.5).abs() < 1e-12);
//! ```

mod batch;
mod bits;
mod density;
mod gate;
mod noise;
mod pauli;
mod serde_impls;
mod state;

pub use batch::StateBatch;
pub use density::DensityMatrix;
pub use gate::{matrices, Gate};
pub use noise::NoiseModel;
pub use pauli::{ParsePauliError, PauliString};
pub use state::StateVector;
