//! Simulation-backend selection knob.
//!
//! The actual backend implementations live above this crate (in
//! `morph-backend`); the executor only carries the *request* so that every
//! layer that owns an [`crate::Executor`] — characterization config, serve
//! handlers, benches — can express a preference without depending on the
//! backend crate.

/// Which simulation backend a run should use.
///
/// `Auto` (the default) lets the circuit-analysis pass pick: stabilizer for
/// all-Clifford unitary circuits, sparse for low-branching circuits, dense
/// otherwise. The forced modes exist for tests and benches.
///
/// # Examples
///
/// ```
/// use morph_qprog::BackendMode;
///
/// assert_eq!(BackendMode::default(), BackendMode::Auto);
/// assert_eq!(BackendMode::ALL[0], BackendMode::Auto);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendMode {
    /// Pick per run from the circuit analysis (the default).
    #[default]
    Auto,
    /// Always dense statevector / density matrix.
    Dense,
    /// Stabilizer tableau where the circuit is Clifford; falls back to
    /// dense when it is not (a forced stabilizer mode that silently
    /// produced wrong answers on non-Clifford circuits would be worse
    /// than useless).
    Stabilizer,
    /// Sparse statevector, spilling to dense past the nonzero budget.
    Sparse,
}

impl BackendMode {
    /// All modes, in display order (useful for test matrices).
    pub const ALL: [BackendMode; 4] = [
        BackendMode::Auto,
        BackendMode::Dense,
        BackendMode::Stabilizer,
        BackendMode::Sparse,
    ];
}
