//! Fig 11(a): wall-clock time to obtain a tracepoint state under one input
//! — MorphQPV's approximation vs classical simulation vs state tomography
//! vs process tomography.
//!
//! Approximation and simulation are measured at every size. The tomography
//! columns are measured while tractable and extrapolated with their exact
//! setting-count models beyond (state: `(4^n − 1) × shots`, process:
//! `d² probes × state tomography`), matching how their cost explodes in
//! the paper (11.4 days for 10-qubit process tomography).

use std::time::Instant;

use morph_bench::rows::{fmt_f, print_table, save_csv};
use morph_clifford::InputEnsemble;
use morph_qprog::{Circuit, Executor, TracepointId};
use morph_qsim::StateVector;
use morph_tomography::{process_tomography, read_state, CostLedger, ReadoutMode};
use morphqpv::{try_characterize, CancelToken, CharacterizationConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SHOTS: usize = 1000;

fn main() {
    let mut rng = StdRng::seed_from_u64(3);
    let mut rows = Vec::new();

    for &n in &[2usize, 4, 6, 8, 10] {
        let mut circuit = Circuit::new(n);
        circuit.extend_from(&morph_qalgo::shor_circuit(n));
        circuit.tracepoint(1, &(0..n).collect::<Vec<_>>());

        // One-shot characterization (amortized over verification).
        let config = CharacterizationConfig {
            n_samples: 2 * n + 2,
            ..CharacterizationConfig::exact((0..n).collect(), 2 * n + 2)
        };
        let ch = try_characterize(&circuit, &config, &mut rng, &CancelToken::new())
            .expect("characterization runs");
        let f = ch.approximation(TracepointId(1));
        let probe = InputEnsemble::Clifford.generate(n, 1, &mut rng).remove(0);

        // (1) MorphQPV approximation: one predict call.
        let t0 = Instant::now();
        let _ = f.predict(&probe.rho).unwrap();
        let t_approx = t0.elapsed().as_secs_f64();

        // (2) Classical simulation of the program under this input.
        let t0 = Instant::now();
        let record = Executor::default().run_expected(
            &{
                let mut full = Circuit::new(n);
                full.extend_from(&probe.prep);
                full.extend_from(&circuit);
                full
            },
            &StateVector::zero_state(n),
        );
        let truth = record.state(TracepointId(1)).clone();
        let t_sim = t0.elapsed().as_secs_f64();

        // (3) State tomography (measured ≤ 6 qubits, modeled beyond).
        let (t_state, state_label) = if n <= 6 {
            let mut ledger = CostLedger::new();
            let t0 = Instant::now();
            let _ = read_state(&truth, ReadoutMode::Shots(SHOTS), 1, &mut ledger, &mut rng);
            (t0.elapsed().as_secs_f64(), "measured")
        } else {
            // Time per setting measured at 6 qubits scales with 4^n
            // settings and the 2^n-dim reconstruction.
            let settings = 4f64.powi(n as i32) - 1.0;
            let per_setting = 2.5e-6 * SHOTS as f64 / 1000.0 + 1e-9 * 4f64.powi(n as i32);
            (settings * per_setting, "model")
        };

        // (4) Process tomography (measured ≤ 4 qubits, modeled beyond).
        let (t_process, process_label) = if n <= 4 {
            let body = circuit.clone();
            let channel = |rho_in: &morph_linalg::CMatrix| -> morph_linalg::CMatrix {
                // Exact channel application via the program unitary.
                let mut u = morph_linalg::CMatrix::identity(1 << n);
                for inst in body.instructions() {
                    if let morph_qprog::Instruction::Gate(g) = inst {
                        u = g.full_matrix(n).matmul(&u);
                    }
                }
                u.matmul(rho_in).matmul(&u.dagger())
            };
            let mut ledger = CostLedger::new();
            let t0 = Instant::now();
            let _ = process_tomography(
                n,
                channel,
                ReadoutMode::Shots(200),
                1,
                &mut ledger,
                &mut rng,
            );
            (t0.elapsed().as_secs_f64(), "measured")
        } else {
            let d = 2f64.powi(n as i32);
            let probes = d * d;
            let settings = 4f64.powi(n as i32) - 1.0;
            let per_setting = 5e-7 * 200.0 / 1000.0 + 1e-9 * 4f64.powi(n as i32);
            (probes * settings * per_setting, "model")
        };

        rows.push(vec![
            n.to_string(),
            fmt_f(t_approx),
            fmt_f(t_sim),
            format!("{} ({state_label})", fmt_f(t_state)),
            format!("{} ({process_label})", fmt_f(t_process)),
        ]);
    }

    let csv = print_table(
        "Fig 11(a): seconds to obtain a tracepoint state under one input",
        &[
            "qubits",
            "approximation",
            "simulation",
            "state_tomography",
            "process_tomography",
        ],
        &rows,
    );
    save_csv("fig11a", &csv);
    println!("\nExpected shape: approximation stays near-constant; simulation grows");
    println!("exponentially but stays fast; state tomography pays 4^n settings;");
    println!("process tomography pays d^2 more on top (paper: 11.4 days at 10 qubits).");
}
