//! Offline drop-in subset of the [`criterion`](https://docs.rs/criterion)
//! bench API.
//!
//! Implements enough surface for the workspace's `harness = false` bench
//! targets: [`Criterion::benchmark_group`], `sample_size`,
//! `bench_function` / `bench_with_input`, [`BenchmarkId`], [`black_box`], and
//! the [`criterion_group!`] / [`criterion_main!`] macros. Instead of
//! criterion's statistical analysis it runs a fixed warm-up plus `sample_size`
//! timed samples and reports the median, min, and max wall-clock time per
//! iteration.

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Top-level bench driver.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("\ngroup {name}");
        BenchmarkGroup {
            _criterion: self,
            name,
            sample_size: 10,
        }
    }

    /// Runs a standalone benchmark.
    pub fn bench_function<F>(&mut self, name: impl Into<String>, f: F)
    where
        F: FnMut(&mut Bencher),
    {
        let name: String = name.into();
        run_benchmark(&name, 10, f);
    }
}

/// Identifier combining a function name and a parameter, as in
/// `BenchmarkId::new("solver", 16)`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Builds `function_name/parameter`.
    pub fn new(function_name: impl Display, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{function_name}/{parameter}"),
        }
    }

    /// Builds an id from a parameter alone.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(name: &str) -> Self {
        BenchmarkId {
            id: name.to_string(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(name: String) -> Self {
        BenchmarkId { id: name }
    }
}

/// A named collection of benchmarks sharing a sample size.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "sample size must be positive");
        self.sample_size = n;
        self
    }

    /// Benchmarks `f` with a borrowed input value.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let id = id.into();
        let label = format!("{}/{}", self.name, id.id);
        run_benchmark(&label, self.sample_size, |b| f(b, input));
        self
    }

    /// Benchmarks a closure without an input parameter.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let label = format!("{}/{}", self.name, id.id);
        run_benchmark(&label, self.sample_size, f);
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Passed to bench closures; [`Bencher::iter`] times the hot loop.
pub struct Bencher {
    samples: Vec<Duration>,
    sample_size: usize,
}

impl Bencher {
    /// Times `routine`, discarding one warm-up call, then recording
    /// `sample_size` samples.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        black_box(routine());
        for _ in 0..self.sample_size {
            let start = Instant::now();
            black_box(routine());
            self.samples.push(start.elapsed());
        }
    }
}

fn run_benchmark<F: FnMut(&mut Bencher)>(label: &str, sample_size: usize, mut f: F) {
    let mut bencher = Bencher {
        samples: Vec::new(),
        sample_size,
    };
    f(&mut bencher);
    if bencher.samples.is_empty() {
        println!("  {label:<40} (no samples)");
        return;
    }
    bencher.samples.sort();
    let median = bencher.samples[bencher.samples.len() / 2];
    let min = bencher.samples[0];
    let max = *bencher.samples.last().unwrap();
    println!(
        "  {label:<40} time: [{} {} {}]",
        format_duration(min),
        format_duration(median),
        format_duration(max)
    );
}

fn format_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 1_000 {
        format!("{nanos} ns")
    } else if nanos < 1_000_000 {
        format!("{:.2} µs", nanos as f64 / 1_000.0)
    } else if nanos < 1_000_000_000 {
        format!("{:.2} ms", nanos as f64 / 1_000_000.0)
    } else {
        format!("{:.2} s", nanos as f64 / 1_000_000_000.0)
    }
}

/// Declares a bench group function, as upstream criterion does.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main` running the given bench groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_collects_requested_samples() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        group
            .sample_size(3)
            .bench_with_input(BenchmarkId::new("id", 1), &2u64, |b, &x| b.iter(|| x * x));
        group.finish();
    }

    #[test]
    fn duration_formatting_scales() {
        assert!(format_duration(Duration::from_nanos(10)).ends_with("ns"));
        assert!(format_duration(Duration::from_micros(10)).ends_with("µs"));
        assert!(format_duration(Duration::from_millis(10)).ends_with("ms"));
        assert!(format_duration(Duration::from_secs(10)).ends_with("s"));
    }
}
