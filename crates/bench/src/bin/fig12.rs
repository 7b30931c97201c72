//! Fig 12: Theorem 3's estimated confidence vs the real success rate of
//! verification, as the sample budget grows.
//!
//! Mutation testing on the QEC and Shor benchmarks: for each sample budget
//! we (a) fit the accuracy Beta model and compute the theoretical
//! confidence, and (b) measure how often the MorphQPV comparison actually
//! detects an injected phase bug. Theorem 3 is a lower bound, so the
//! measured curve should sit above the estimate — more visibly for Shor,
//! which has more counter-examples per bug.

use morph_bench::rows::{fmt_f, print_table, save_csv};
use morph_bench::{compare_programs, CompareConfig};
use morph_qalgo::{mutation_battery, Benchmark};
use morph_qprog::Circuit;
use morphqpv::{fit_confidence_model, try_characterize, CancelToken, CharacterizationConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

const CASES: usize = 15;

fn main() {
    let n = 5usize;
    let mut rows = Vec::new();
    for bench in [Benchmark::Qec, Benchmark::Shor] {
        let mut rng = StdRng::seed_from_u64(23);
        let reference = bench.circuit(n, &mut rng);
        let mutants = mutation_battery(&reference, CASES, &mut rng);

        for &n_samples in &[4usize, 8, 16, 32, 64] {
            // Estimated confidence from the fitted accuracy distribution.
            let mut traced = Circuit::new(n);
            traced.extend_from(&reference);
            traced.tracepoint(1, &(0..n).collect::<Vec<_>>());
            let config = CharacterizationConfig {
                n_samples,
                ..CharacterizationConfig::exact((0..n).collect(), n_samples)
            };
            let ch = try_characterize(&traced, &config, &mut rng, &CancelToken::new())
                .expect("characterization runs");
            let model = fit_confidence_model(&ch.input_span(), 40, &mut rng);
            // ε: the accuracy a counter-example needs before the optimizer can
            // see it. Exact readout makes even small overlaps actionable.
            let estimated = model.confidence(0.05);

            // Measured success rate on the mutants. Each comparison reseeds
            // its RNG from the budget so every mutant sees the same sampled
            // inputs.
            let mut detected = 0;
            for (mutant, _) in &mutants {
                let mut cmp_config = CompareConfig::new((0..n).collect(), (0..n).collect());
                cmp_config.n_samples = n_samples;
                let mut cmp_rng = StdRng::seed_from_u64(0x466_9673 ^ n_samples as u64);
                let (bug, _, _) = compare_programs(&reference, mutant, &cmp_config, &mut cmp_rng);
                if bug {
                    detected += 1;
                }
            }
            let success = detected as f64 / CASES as f64;
            rows.push(vec![
                bench.name().to_string(),
                n_samples.to_string(),
                fmt_f(estimated),
                fmt_f(success),
            ]);
        }
    }
    let csv = print_table(
        "Fig 12: estimated confidence (Theorem 3) vs measured success rate (5-qubit programs)",
        &[
            "benchmark",
            "N_sample",
            "estimated_confidence",
            "measured_success",
        ],
        &rows,
    );
    save_csv("fig12", &csv);
    println!("\nExpected shape: both curves rise with N_sample; the measured success");
    println!("rate stays at or above the estimate (Theorem 3 is a lower bound), with");
    println!("Shor further above it than QEC (more counter-examples per bug).");
}
