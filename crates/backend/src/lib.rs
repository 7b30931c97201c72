//! Pluggable simulation backends for the MorphQPV reproduction.
//!
//! Characterization sweeps sample Clifford input states, and many benchmark
//! circuits are Clifford(-prefixed) or low-entanglement. This crate lets
//! those workloads skip the dense O(2^n) register:
//!
//! - [`Simulator`]: the backend trait — apply gates, read tracepoint
//!   reduced density matrices. Dense runs (and every noisy run) stay on
//!   the batched `morph_qsim` kernels and never go through the trait.
//! - [`StabilizerSim`]: Aaronson–Gottesman tableau with exact global-phase
//!   readout ([`morph_clifford::StabilizerState`]) — O(n²) per gate.
//! - [`SparseSim`]: sorted-vec statevector mirroring the dense kernels'
//!   per-amplitude arithmetic bit for bit, with a nonzero budget and a
//!   growth monitor that hand the state to dense.
//! - [`analyze`] / [`plan_characterization`]: the circuit-analysis pass
//!   (Clifford-ness, Clifford-prefix split, nonzero-growth estimate) and
//!   the selection policy behind `BackendMode::Auto`.
//!
//! Selection decisions are published as `backend/*` morph-trace counters
//! and surface in serve/CLI run reports.
//!
//! # Examples
//!
//! ```
//! use morph_backend::{plan_characterization, BackendChoice, PlanInputs};
//! use morph_qprog::{BackendMode, Circuit};
//!
//! let mut ghz = Circuit::new(20);
//! ghz.h(0);
//! for q in 1..20 {
//!     ghz.cx(q - 1, q);
//! }
//! ghz.tracepoint(1, &[0, 19]);
//! let plan = plan_characterization(&PlanInputs {
//!     circuit: &ghz,
//!     mode: BackendMode::Auto,
//!     noiseless: true,
//!     n_input_qubits: 2,
//!     preps_clifford: true,
//! });
//! assert_eq!(plan.choice, BackendChoice::Stabilizer);
//! ```

mod analysis;
mod select;
mod simulator;
mod sparse;

pub use analysis::{analyze, is_clifford_gate, suffix_circuit, CircuitAnalysis};
pub use select::{plan_characterization, BackendChoice, BackendPlan, PlanInputs};
pub use simulator::{Simulator, StabilizerSim};
pub use sparse::{FastPathStats, SparseSim};
