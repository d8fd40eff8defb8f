//! Offline stand-in for `criterion`: same macro / builder surface, but each
//! benchmark body is simply timed over a fixed handful of iterations and the
//! mean is printed. Good enough to keep `cargo bench` compiling and to give
//! ballpark numbers; not a statistics engine. See `crates/compat/README.md`.

use std::fmt::Display;
use std::time::Instant;

pub use std::hint::black_box;

/// Iterations per benchmark body (after one warm-up run).
const ITERATIONS: u32 = 3;

/// Top-level benchmark driver.
#[derive(Debug, Default)]
pub struct Criterion {}

impl Criterion {
    /// Start a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("group: {name}");
        BenchmarkGroup {
            _c: self,
            elements: None,
        }
    }

    /// Run a single named benchmark outside a group.
    pub fn bench_function(&mut self, name: &str, f: impl FnMut(&mut Bencher)) -> &mut Self {
        run_one(name, None, f);
        self
    }
}

/// How much work one iteration of a benchmark body does.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// The body processes this many elements per iteration.
    Elements(u64),
}

/// A named group of benchmarks.
pub struct BenchmarkGroup<'a> {
    _c: &'a mut Criterion,
    elements: Option<u64>,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; the stand-in always runs a fixed
    /// number of iterations.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Work per iteration of the benchmarks that follow in this group;
    /// they also report time per element.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        let Throughput::Elements(n) = throughput;
        self.elements = Some(n);
        self
    }

    /// Run a benchmark body.
    pub fn bench_function(&mut self, name: &str, f: impl FnMut(&mut Bencher)) -> &mut Self {
        run_one(name, self.elements, f);
        self
    }

    /// Run a benchmark body parameterized by `input`.
    pub fn bench_with_input<I>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        run_one(&id.0, self.elements, |b| f(b, input));
        self
    }

    /// End the group.
    pub fn finish(self) {}
}

/// Identifier for a parameterized benchmark.
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// `function_name/parameter` display form, like the real crate.
    pub fn new(function_name: impl Display, parameter: impl Display) -> Self {
        BenchmarkId(format!("{function_name}/{parameter}"))
    }
}

/// Handle passed to each benchmark body.
pub struct Bencher {
    elapsed_ns: u128,
    iters: u32,
}

impl Bencher {
    /// Time `f` over a fixed number of iterations (after one warm-up call).
    pub fn iter<O>(&mut self, mut f: impl FnMut() -> O) {
        black_box(f());
        let start = Instant::now();
        for _ in 0..ITERATIONS {
            black_box(f());
        }
        self.elapsed_ns = start.elapsed().as_nanos();
        self.iters = ITERATIONS;
    }

    /// Time `routine` alone over a fixed number of iterations (after one
    /// warm-up call), each on a fresh input from the untimed `setup`.
    pub fn iter_batched<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
        _size: BatchSize,
    ) {
        black_box(routine(setup()));
        self.elapsed_ns = 0;
        for _ in 0..ITERATIONS {
            let input = setup();
            let start = Instant::now();
            let output = routine(input);
            self.elapsed_ns += start.elapsed().as_nanos();
            drop(black_box(output));
        }
        self.iters = ITERATIONS;
    }
}

/// How many inputs [`Bencher::iter_batched`] sets up at once; accepted for
/// API compatibility (the stand-in sets up one per iteration).
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// Inputs small enough to batch.
    SmallInput,
    /// Inputs too large to hold many of at once.
    LargeInput,
}

fn run_one(name: &str, elements: Option<u64>, mut f: impl FnMut(&mut Bencher)) {
    let mut b = Bencher {
        elapsed_ns: 0,
        iters: 1,
    };
    f(&mut b);
    let mean_ns = (b.elapsed_ns / u128::from(b.iters.max(1))) as f64;
    match elements {
        Some(n) => println!(
            "  {name}: {:.3} ms/iter, {:.1} ns/elem",
            mean_ns / 1e6,
            mean_ns / n as f64
        ),
        None => println!("  {name}: {:.3} ms/iter", mean_ns / 1e6),
    }
}

/// Collect benchmark functions into one runner, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Entry point running the groups, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}
