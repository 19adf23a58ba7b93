//! A std-only micro-benchmark harness with a `criterion`-compatible
//! surface.
//!
//! The workspace is dependency-free (no network at build time), so the
//! benches in `benches/` run on this ~120-line harness instead of the
//! `criterion` crate: the part of its shape they use — `Criterion` /
//! `benchmark_group` / `bench_function` / `criterion_group!` /
//! `criterion_main!` — with wall-clock timing via
//! [`std::time::Instant`] and a min/mean/max report per benchmark. Set
//! `SGQ_BENCH_SAMPLES` to change the per-benchmark sample count
//! (default 10).

use std::time::{Duration, Instant};

/// Re-export of [`std::hint::black_box`] under criterion's name.
pub use std::hint::black_box;

/// Top-level benchmark driver (criterion-compatible shape).
#[derive(Debug)]
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        let sample_size = std::env::var("SGQ_BENCH_SAMPLES")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(10);
        Criterion { sample_size }
    }
}

impl Criterion {
    /// Starts a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup {
        BenchmarkGroup {
            name: name.into(),
            sample_size: self.sample_size,
        }
    }
}

/// A named benchmark group.
#[derive(Debug)]
pub struct BenchmarkGroup {
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup {
    /// Runs one benchmark identified by `id`.
    pub fn bench_function(
        &mut self,
        id: impl std::fmt::Display,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let mut b = Bencher {
            sample_size: self.sample_size,
            samples: Vec::new(),
        };
        f(&mut b);
        report(&self.name, &id.to_string(), &b.samples);
        self
    }

    /// Ends the group (no-op; kept for API compatibility).
    pub fn finish(self) {}
}

/// Timing driver handed to each benchmark closure.
#[derive(Debug)]
pub struct Bencher {
    sample_size: usize,
    samples: Vec<Duration>,
}

impl Bencher {
    /// Times `f`: one untimed warm-up call, then `sample_size` timed
    /// calls. The return value is passed through [`black_box`] so the
    /// optimiser cannot discard the work.
    pub fn iter<O>(&mut self, mut f: impl FnMut() -> O) {
        black_box(f());
        for _ in 0..self.sample_size {
            let start = Instant::now();
            black_box(f());
            self.samples.push(start.elapsed());
        }
    }
}

fn report(group: &str, id: &str, samples: &[Duration]) {
    if samples.is_empty() {
        println!("{group}/{id}: no samples recorded");
        return;
    }
    let min = samples.iter().min().expect("non-empty");
    let max = samples.iter().max().expect("non-empty");
    let mean = samples.iter().sum::<Duration>() / samples.len() as u32;
    println!(
        "{group}/{id}: [min {} mean {} max {}] ({} samples)",
        fmt_duration(*min),
        fmt_duration(mean),
        fmt_duration(*max),
        samples.len()
    );
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.2}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

/// Collects benchmark functions into a runnable group function
/// (criterion-compatible).
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Generates `main` running the listed groups (criterion-compatible).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_records_samples() {
        let mut c = Criterion { sample_size: 3 };
        let mut group = c.benchmark_group("t");
        let mut calls = 0usize;
        group.bench_function("count", |b| {
            b.iter(|| {
                calls += 1;
            })
        });
        group.finish();
        // one warm-up + three timed calls
        assert_eq!(calls, 4);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_nanos(10)), "10ns");
        assert_eq!(fmt_duration(Duration::from_micros(2)), "2.00µs");
        assert_eq!(fmt_duration(Duration::from_millis(3)), "3.00ms");
        assert_eq!(fmt_duration(Duration::from_secs(4)), "4.00s");
    }
}
