//! Experiment harness shared by the `fig*`/`table*` binaries that
//! regenerate every table and figure of the paper's evaluation.
//!
//! The heavy lifting lives in the member crates; this library adds the
//! cross-cutting pieces:
//!
//! - [`chain_stages`]: the §9.2 chained approximation behind Fig 14, one
//!   stage per chunk of the program's gates, scored against
//!   [`ideal_output`].
//! - [`compare_programs`]: the MorphQPV-based reference-vs-candidate check
//!   used by Table 4's success-rate sweeps (characterize both programs on
//!   shared inputs, assert tracepoint equality).
//! - [`MorphDetector`]: the above wrapped in the baseline
//!   [`morph_baselines::BugDetector`] interface.
//! - [`quantum_lock_bisection`]: MorphQPV's Strategy-const bisection for
//!   the quantum-lock unexpected-key search (Fig 7), with faithful
//!   execution accounting.
//! - [`qram_bisection`]: the QRAM faulty-address binary search (Fig 10).
//! - [`rows`]: tiny aligned-table printing used by all binaries.
//! - [`schema_lint`]: the dependency-free JSON-Schema-subset validator
//!   behind the `trace_lint` and `serve_lint` CI tools.

mod chain;
mod compare;
mod lock_search;
mod qram_search;
pub mod rows;
pub mod schema_lint;

pub use chain::{chain_stages, ideal_output};
pub use compare::{compare_programs, CompareConfig, MorphDetector};
pub use lock_search::{quantum_lock_bisection, quantum_lock_bisection_cost, LockSearchResult};
pub use qram_search::{qram_bisection, qram_bisection_cost, QramSearchResult};
