//! Deterministic early-exit parallel sweeps for the shot-based detectors.
//!
//! Quito, Stat, and Fuzz all share one loop shape: run independent trials
//! in a fixed order, stop at the first one that exposes a bug, and charge
//! only the trials a serial search would have paid for. [`sweep_until_found`]
//! keeps that contract while fanning trials out across worker threads:
//! trials are evaluated in waves of the worker count, results are inspected
//! in trial order, and any overshoot past the first hit inside a wave is
//! simulated work that never reaches the ledger. With per-trial RNG streams
//! (seed-split by trial index), the verdict, witness, and ledger are
//! bit-identical at every worker count.

use morph_tomography::CostLedger;

/// One sweep trial's outcome: the costs it incurred, whether it exposed a
/// bug, and the witness value to report if it did.
#[derive(Debug, Clone)]
pub struct TrialOutcome {
    /// Costs of this single trial.
    pub ledger: CostLedger,
    /// `true` if the trial flagged a difference.
    pub bug: bool,
    /// Witness reported when `bug` is set (basis index, input index, …).
    pub witness: usize,
}

/// Runs `trial(i)` for `i < limit`, stopping at the first bug in trial
/// order. Returns the witness of the first bug (if any) and the merged
/// ledger of every trial up to and including it — exactly the cost of the
/// serial early-exit loop, independent of `parallelism` (`0` = all cores,
/// `1` = serial).
pub fn sweep_until_found<F>(
    parallelism: usize,
    limit: usize,
    trial: F,
) -> (Option<usize>, CostLedger)
where
    F: Fn(usize) -> TrialOutcome + Sync,
{
    // Each wave runs on `wave` workers outright: with `0`, `parallel_map`
    // would time a wave's first trial serially before fanning out the rest.
    let wave = morph_parallel::effective_workers(parallelism).max(1);
    let mut ledger = CostLedger::new();
    let mut start = 0usize;
    while start < limit {
        let end = (start + wave).min(limit);
        let indices: Vec<usize> = (start..end).collect();
        let outcomes = morph_parallel::parallel_map(wave, &indices, |_, &i| trial(i));
        for outcome in outcomes {
            ledger.merge(&outcome.ledger);
            if outcome.bug {
                return (Some(outcome.witness), ledger);
            }
        }
        start = end;
    }
    (None, ledger)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn costed(bug: bool, witness: usize) -> TrialOutcome {
        let mut ledger = CostLedger::new();
        ledger.record_execution(10, 2);
        TrialOutcome {
            ledger,
            bug,
            witness,
        }
    }

    #[test]
    fn charges_exactly_up_to_the_first_hit() {
        for workers in [1, 3, 8] {
            let (witness, ledger) = sweep_until_found(workers, 20, |i| costed(i == 6, i * 100));
            assert_eq!(witness, Some(600));
            assert_eq!(ledger.executions, 7, "workers={workers}");
            assert_eq!(ledger.shots, 70);
        }
    }

    #[test]
    fn clean_sweep_charges_everything() {
        for workers in [1, 4] {
            let (witness, ledger) = sweep_until_found(workers, 5, |i| costed(false, i));
            assert_eq!(witness, None);
            assert_eq!(ledger.executions, 5);
        }
    }

    #[test]
    fn earliest_of_several_hits_wins() {
        let (witness, ledger) = sweep_until_found(8, 16, |i| costed(i >= 3, i));
        assert_eq!(witness, Some(3));
        assert_eq!(ledger.executions, 4);
    }

    #[test]
    fn zero_limit_is_empty() {
        let (witness, ledger) = sweep_until_found(4, 0, |i| costed(true, i));
        assert_eq!(witness, None);
        assert_eq!(ledger, CostLedger::new());
    }
}
