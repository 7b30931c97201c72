//! Backend selection policy behind `BackendMode::Auto`.
//!
//! The policy is deliberately simple and threshold-based: the point of
//! the fast paths is the asymptotic win at wide registers, and at small
//! `n` the dense kernels beat every alternative's constant factors — so
//! small circuits always stay dense (which also keeps historical golden
//! values on the dense path byte for byte).

use morph_qprog::{BackendMode, Circuit};

use crate::analysis::{analyze, CircuitAnalysis};

/// Minimum register width before the stabilizer backend is auto-selected
/// (below this the dense kernels win on constants).
const STABILIZER_MIN_QUBITS: usize = 14;

/// Minimum register width before the sparse backend is auto-selected.
const SPARSE_MIN_QUBITS: usize = 12;

/// Minimum register width before Clifford-prefix splicing is considered.
const PREFIX_MIN_QUBITS: usize = 14;

/// Minimum Clifford-prefix length (in gates) before splicing pays for the
/// tableau → statevector handoff.
const PREFIX_MIN_GATES: usize = 16;

/// Widest register a stabilizer prefix may hand off to a dense suffix (or
/// a sparse register may spill into): 2^28 amplitudes is the dense
/// ceiling.
const DENSE_HANDOFF_MAX_QUBITS: usize = 28;

/// Required slack between the sparse support-size exponent bound and the
/// register width: the sparse backend is only selected when the estimated
/// final support is at most `2^(n - SPARSE_HEADROOM_QUBITS)`.
const SPARSE_HEADROOM_QUBITS: usize = 2;

/// The backend a characterization run will execute on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendChoice {
    /// Dense statevector (or density matrix when noise is present).
    #[default]
    Dense,
    /// Stabilizer tableau end to end.
    Stabilizer,
    /// Sparse statevector end to end.
    Sparse,
    /// Clifford prefix on the tableau, dense suffix from the
    /// materialized statevector.
    CliffordPrefix {
        /// Instruction index where the tableau hands off (the first
        /// suffix instruction).
        split: usize,
    },
}

impl BackendChoice {
    /// Stable lowercase name for reports, counters, and the serve
    /// protocol.
    pub fn as_str(self) -> &'static str {
        match self {
            BackendChoice::Dense => "dense",
            BackendChoice::Stabilizer => "stabilizer",
            BackendChoice::Sparse => "sparse",
            BackendChoice::CliffordPrefix { .. } => "clifford-prefix",
        }
    }

    /// Stable serialization tag: [`BackendChoice::as_str`], with the
    /// prefix split point appended as `clifford-prefix:<split>`.
    pub fn tag(self) -> String {
        match self {
            BackendChoice::CliffordPrefix { split } => format!("clifford-prefix:{split}"),
            other => other.as_str().to_string(),
        }
    }

    /// Parses a [`BackendChoice::tag`] back.
    pub fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "dense" => Some(BackendChoice::Dense),
            "stabilizer" => Some(BackendChoice::Stabilizer),
            "sparse" => Some(BackendChoice::Sparse),
            t => t
                .strip_prefix("clifford-prefix:")?
                .parse()
                .ok()
                .map(|split| BackendChoice::CliffordPrefix { split }),
        }
    }
}

impl std::fmt::Display for BackendChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Everything the selection policy looks at.
#[derive(Debug, Clone, Copy)]
pub struct PlanInputs<'a> {
    /// The main circuit to be characterized (unfused).
    pub circuit: &'a Circuit,
    /// Requested mode.
    pub mode: BackendMode,
    /// `true` when the run uses no noise model.
    pub noiseless: bool,
    /// Width of the sampled input-state register (bounds the input
    /// support at `2^n_input_qubits`).
    pub n_input_qubits: usize,
    /// `true` when every sampled input preparation is a Clifford circuit
    /// (required for the stabilizer and prefix paths).
    pub preps_clifford: bool,
}

/// A selection decision.
#[derive(Debug, Clone)]
pub struct BackendPlan {
    /// The selected backend.
    pub choice: BackendChoice,
}

/// Selects the backend for a characterization run.
///
/// Applies the `Auto` policy, or validates a forced mode, falling back to
/// dense when the forced backend cannot represent the run — noise,
/// non-Clifford gates on the stabilizer, non-unitary circuits. Decisions
/// are published on `backend/selected_*` counters; forced-mode fallbacks
/// add `backend/fallback_dense`.
pub fn plan_characterization(inputs: &PlanInputs<'_>) -> BackendPlan {
    let choice = decide(inputs, &analyze(inputs.circuit));
    morph_trace::counter(
        match choice {
            BackendChoice::Dense => "backend/selected_dense",
            BackendChoice::Stabilizer => "backend/selected_stabilizer",
            BackendChoice::Sparse => "backend/selected_sparse",
            BackendChoice::CliffordPrefix { .. } => "backend/selected_clifford_prefix",
        },
        1,
    );
    BackendPlan { choice }
}

fn fallback() -> BackendChoice {
    morph_trace::counter("backend/fallback_dense", 1);
    BackendChoice::Dense
}

fn decide(inputs: &PlanInputs<'_>, analysis: &CircuitAnalysis) -> BackendChoice {
    let mode = inputs.mode;
    // Noise channels and non-unitary instructions only run on the dense
    // density/statevector paths, whatever the requested mode.
    if !inputs.noiseless || !analysis.unitary {
        return if mode == BackendMode::Dense {
            BackendChoice::Dense
        } else {
            fallback()
        };
    }
    match mode {
        BackendMode::Dense => BackendChoice::Dense,
        BackendMode::Stabilizer => {
            if analysis.all_clifford() && inputs.preps_clifford {
                BackendChoice::Stabilizer
            } else {
                fallback()
            }
        }
        BackendMode::Sparse => BackendChoice::Sparse,
        BackendMode::Auto => auto_decide(inputs, analysis),
    }
}

fn auto_decide(inputs: &PlanInputs<'_>, analysis: &CircuitAnalysis) -> BackendChoice {
    let n = analysis.n_qubits;
    if analysis.all_clifford() && inputs.preps_clifford && n >= STABILIZER_MIN_QUBITS {
        return BackendChoice::Stabilizer;
    }
    if n >= SPARSE_MIN_QUBITS
        && analysis.est_log2_nonzeros(inputs.n_input_qubits) + SPARSE_HEADROOM_QUBITS <= n
    {
        return BackendChoice::Sparse;
    }
    // The prefix no longer needs to dominate the circuit: the suffix
    // runs on the adaptive sparse register (which switches itself to
    // dense when the support saturates), so any prefix long enough to
    // pay for the tableau handoff is worth splicing.
    if inputs.preps_clifford
        && (PREFIX_MIN_QUBITS..DENSE_HANDOFF_MAX_QUBITS).contains(&n)
        && analysis.clifford_prefix_gates >= PREFIX_MIN_GATES
        && analysis.clifford_prefix_gates < analysis.gate_count
    {
        return BackendChoice::CliffordPrefix {
            split: analysis.clifford_prefix_split,
        };
    }
    BackendChoice::Dense
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(circuit: &Circuit, mode: BackendMode, n_input_qubits: usize) -> BackendPlan {
        plan_characterization(&PlanInputs {
            circuit,
            mode,
            noiseless: true,
            n_input_qubits,
            preps_clifford: true,
        })
    }

    fn ghz(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        c.h(0);
        for q in 1..n {
            c.cx(q - 1, q);
        }
        c.tracepoint(1, &[0, n - 1]);
        c
    }

    #[test]
    fn wide_clifford_circuit_selects_stabilizer() {
        let c = ghz(20);
        let p = plan(&c, BackendMode::Auto, 2);
        assert_eq!(p.choice, BackendChoice::Stabilizer);
    }

    #[test]
    fn small_circuits_stay_dense() {
        // Small n: dense constants win, and golden values stay put.
        let c = ghz(3);
        assert_eq!(plan(&c, BackendMode::Auto, 1).choice, BackendChoice::Dense);
    }

    #[test]
    fn low_branching_wide_circuit_selects_sparse() {
        let mut c = Circuit::new(16);
        c.h(0).t(1);
        for q in 1..16 {
            c.cx(q - 1, q);
        }
        c.tracepoint(1, &[3]);
        let p = plan(&c, BackendMode::Auto, 2);
        // One H + input support 2^2 → support ≤ 2^3, far below 2^16.
        assert_eq!(p.choice, BackendChoice::Sparse);
    }

    #[test]
    fn clifford_prefix_is_spliced() {
        let mut c = Circuit::new(15);
        for round in 0..3 {
            for q in 0..15 {
                c.h(q);
            }
            for q in 0..14 {
                c.cx(q, q + 1);
            }
            let _ = round;
        }
        // Dense-support-saturating prefix, then a non-Clifford suffix.
        for q in 0..15 {
            c.t(q);
            c.h(q);
        }
        let a = analyze(&c);
        assert!(a.clifford_prefix_gates >= PREFIX_MIN_GATES);
        let p = plan(&c, BackendMode::Auto, 4);
        assert_eq!(
            p.choice,
            BackendChoice::CliffordPrefix {
                split: a.clifford_prefix_split
            }
        );
    }

    #[test]
    fn modest_prefix_below_half_the_circuit_still_splices() {
        // 29 Clifford prefix gates ahead of a 90-gate non-Clifford tail:
        // the prefix is well under half the circuit, but the adaptive
        // suffix makes the handoff worthwhile anyway.
        let mut c = Circuit::new(15);
        for q in 0..15 {
            c.h(q);
        }
        for q in 0..14 {
            c.cx(q, q + 1);
        }
        for _ in 0..3 {
            for q in 0..15 {
                c.t(q);
                c.h(q);
            }
        }
        let a = analyze(&c);
        assert!(a.clifford_prefix_gates >= PREFIX_MIN_GATES);
        assert!(a.clifford_prefix_gates < a.gate_count / 2);
        let p = plan(&c, BackendMode::Auto, 4);
        assert_eq!(
            p.choice,
            BackendChoice::CliffordPrefix {
                split: a.clifford_prefix_split
            }
        );
    }

    #[test]
    fn noise_forces_dense_with_fallback() {
        let c = ghz(20);
        let p = plan_characterization(&PlanInputs {
            circuit: &c,
            mode: BackendMode::Stabilizer,
            noiseless: false,
            n_input_qubits: 2,
            preps_clifford: true,
        });
        assert_eq!(p.choice, BackendChoice::Dense);
    }

    #[test]
    fn forced_stabilizer_falls_back_on_non_clifford() {
        let mut c = ghz(20);
        c.t(5);
        let p = plan(&c, BackendMode::Stabilizer, 2);
        assert_eq!(p.choice, BackendChoice::Dense);
    }

    #[test]
    fn forced_modes_are_honored_when_representable() {
        let c = ghz(20);
        assert_eq!(
            plan(&c, BackendMode::Stabilizer, 2).choice,
            BackendChoice::Stabilizer
        );
        assert_eq!(
            plan(&c, BackendMode::Sparse, 2).choice,
            BackendChoice::Sparse
        );
        assert_eq!(plan(&c, BackendMode::Dense, 2).choice, BackendChoice::Dense);
    }

    #[test]
    fn non_clifford_preps_block_stabilizer() {
        let c = ghz(20);
        let p = plan_characterization(&PlanInputs {
            circuit: &c,
            mode: BackendMode::Auto,
            noiseless: true,
            n_input_qubits: 2,
            preps_clifford: false,
        });
        // GHZ branches once, so the sparse path still applies.
        assert_eq!(p.choice, BackendChoice::Sparse);
    }

    #[test]
    fn tags_round_trip() {
        for choice in [
            BackendChoice::Dense,
            BackendChoice::Stabilizer,
            BackendChoice::Sparse,
            BackendChoice::CliffordPrefix { split: 17 },
        ] {
            assert_eq!(BackendChoice::from_tag(&choice.tag()), Some(choice));
        }
        assert_eq!(BackendChoice::from_tag("warp-drive"), None);
        assert_eq!(BackendChoice::from_tag("clifford-prefix:x"), None);
    }

    #[test]
    fn choice_names_are_stable() {
        assert_eq!(BackendChoice::Dense.as_str(), "dense");
        assert_eq!(BackendChoice::Stabilizer.as_str(), "stabilizer");
        assert_eq!(BackendChoice::Sparse.as_str(), "sparse");
        assert_eq!(
            BackendChoice::CliffordPrefix { split: 3 }.as_str(),
            "clifford-prefix"
        );
    }
}
