//! End-to-end benchmark of the rotation-scheduling workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper|random-portfolio|serve-zipf> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Each run sets the workload up several times (corpus, reference
//! outputs, one untimed warm-up pass) and reports the median set-up
//! time, then measures whole passes over the corpus for `--seconds`.
//! Every output is checked. The last stdout line is one JSON object;
//! with `--trace 0` it carries the end-to-end metrics, with `--trace 1`
//! the per-layer metrics of a run whose passes alternate between
//! untraced and traced. See `perfbench/README.md` for the workloads and
//! what each metric is meant to show.

mod paper;
mod portfolio;
mod serve_zipf;
mod stats;
mod steps;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use stats::{min_samples_for, peak_rss_mb, percentile, Metrics, Modes};
use trace::Tracer;

/// Set-up repeats at least this often, and until it has taken
/// [`SETUP_MIN_S`] in total; `setup_s` is the median repetition. Cheap
/// set-ups repeat more, so their median is as steady as a costly one's.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MIN_S: f64 = 2.0;
const SETUP_MAX_REPS: usize = 25;
/// The highest percentile reported; it needs ten samples beyond it.
const TOP_PERCENTILE: f64 = 0.9;
/// Share of each chunk's untraced runs that the timings are taken from:
/// the fastest ones. Other tenants of the machine only ever slow a run
/// down, in bursts of a few seconds, so the fastest runs of the same
/// requests are the steadiest measure of the program itself.
const KEEP_FASTEST: f64 = 0.25;

/// Exact figures over a workload's distinct problems.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelSums {
    pub problems: u64,
    pub steps: u64,
    pub registers: u64,
    pub code_ops: u64,
    pub optimal: u64,
    pub rotations: u64,
}

impl KernelSums {
    pub fn add(
        &mut self,
        length: u32,
        registers: u64,
        code_ops: u64,
        optimal: bool,
        rotations: u64,
    ) {
        self.problems += 1;
        self.steps += u64::from(length);
        self.registers += registers;
        self.code_ops += code_ops;
        self.optimal += u64::from(optimal);
        self.rotations += rotations;
    }
}

/// What one pass hands back to the runner.
pub struct Pass {
    pub latencies_ns: Vec<u64>,
    /// Completed requests whose output passed every check.
    pub passed: u64,
    /// Requests that errored, were shed, faulted or panicked.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Consecutive slices of `latencies_ns` that every pass repeats with
    /// the same requests, with their wall time; empty means the whole
    /// pass is one chunk.
    pub chunks: Vec<Chunk>,
    pub tracer: Tracer,
    /// How many callers ran concurrently (wall time × callers is the
    /// capacity spans are shared against).
    pub callers: u32,
}

impl Pass {
    pub fn new(traced: bool, origin: Instant, callers: u32) -> Self {
        Pass {
            latencies_ns: Vec::new(),
            passed: 0,
            failed: 0,
            errors: Vec::new(),
            chunks: Vec::new(),
            tracer: Tracer::new(traced, origin),
            callers,
        }
    }

    /// Records one completed request that failed its check.
    pub fn reject(&mut self, message: String) {
        if self.errors.len() < 8 {
            self.errors.push(message);
        }
    }

    /// Records one request that did not complete.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        self.reject(message);
    }

    /// Ends the chunk that started at `chunk.0` after `chunk.1` requests
    /// and starts the next one.
    pub fn close_chunk(&mut self, chunk: &mut (Instant, usize)) {
        let len = self.latencies_ns.len() - chunk.1;
        let wall_ns = u64::try_from(chunk.0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.chunks.push(Chunk { len, wall_ns });
        *chunk = (Instant::now(), self.latencies_ns.len());
    }

    /// Folds another caller's pass into this one.
    pub fn merge(&mut self, other: Pass) {
        self.latencies_ns.extend(other.latencies_ns);
        self.passed += other.passed;
        self.failed += other.failed;
        for e in other.errors {
            self.reject(e);
        }
        self.tracer.merge(other.tracer);
    }
}

/// A slice of a pass: `len` consecutive requests and their wall time.
#[derive(Clone, Copy, Debug)]
pub struct Chunk {
    pub len: usize,
    pub wall_ns: u64,
}

/// Runs one request, turning a panic into a failed request.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .unwrap_or_else(|_| Err("panicked".to_owned()))
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// One set-up repetition: corpus, reference outputs and the untimed
    /// warm-up pass.
    fn setup(seed: u64) -> Result<Self, String>;
    /// One timed pass over the corpus.
    fn pass(&mut self, traced: bool, origin: Instant) -> Pass;
    /// Exact figures over the distinct problems (from the references).
    fn kernels(&self) -> KernelSums;
    /// Cost modes of the untraced timed requests, given sorted.
    fn modes(&self, _sorted_ns: &[u64]) -> Option<Modes> {
        None
    }
    /// Workload-specific per-layer metrics over the timed passes.
    fn layer_counters(&mut self, _metrics: &mut Metrics) {}
    /// Run-level invariants, checked once the timed passes are done.
    fn finish(&mut self) -> Result<(), String> {
        Ok(())
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("bad --seconds {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: perfbench --workload <paper|random-portfolio|serve-zipf> \
                 --seed N --seconds S --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "paper" => run::<paper::Paper>(&args),
        "random-portfolio" => run::<portfolio::RandomPortfolio>(&args),
        "serve-zipf" => run::<serve_zipf::ServeZipf>(&args),
        other => Err(format!("unknown workload {other}")),
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The untraced runs of one chunk: each entry is one pass's wall time
/// for the chunk and its request latencies.
type ChunkRuns = Vec<(u64, Vec<u64>)>;

/// Pools the fastest [`KEEP_FASTEST`] share of each chunk's runs:
/// returns their latencies, sorted, and their summed wall time.
fn fastest_runs(chunk_runs: &mut [ChunkRuns]) -> (Vec<u64>, u64) {
    let mut latencies = Vec::new();
    let mut wall_ns = 0;
    for runs in chunk_runs.iter_mut() {
        runs.sort_by_key(|(wall, _)| *wall);
        let keep = ((runs.len() as f64 * KEEP_FASTEST).ceil() as usize).max(1);
        for (wall, lat) in &runs[..keep] {
            wall_ns += wall;
            latencies.extend_from_slice(lat);
        }
    }
    latencies.sort_unstable();
    (latencies, wall_ns)
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Sets up, measures and prints; returns the result line.
fn run<W: Workload>(args: &Args) -> Result<String, String> {
    let mut setup_s = Vec::new();
    let mut workload = None;
    while setup_s.len() < SETUP_MIN_REPS
        || (setup_s.iter().sum::<f64>() < SETUP_MIN_S && setup_s.len() < SETUP_MAX_REPS)
    {
        // Drop the previous repetition first so each one starts from the
        // same heap.
        drop(workload.take());
        let t = Instant::now();
        let w = W::setup(args.seed)?;
        setup_s.push(t.elapsed().as_secs_f64());
        workload = Some(w);
    }
    let mut workload = workload.expect("at least one set-up repetition");
    let setup_s = median(&mut setup_s);

    // Whole passes only, so every run measures the same request mix. A
    // traced run alternates untraced and traced passes.
    let origin = Instant::now();
    let min_samples = min_samples_for(TOP_PERCENTILE);
    let mut plain = Pass::new(false, origin, 1);
    let mut traced = Pass::new(true, origin, 1);
    let mut chunk_runs: Vec<ChunkRuns> = Vec::new();
    let mut traced_capacity_ns = 0_u64;
    let mut index = 0_u64;
    loop {
        let is_traced = args.trace && index % 2 == 1;
        let t = Instant::now();
        let mut pass = workload.pass(is_traced, origin);
        let wall = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if is_traced {
            traced_capacity_ns += wall * u64::from(pass.callers);
            traced.merge(pass);
        } else {
            if pass.chunks.is_empty() {
                pass.chunks.push(Chunk {
                    len: pass.latencies_ns.len(),
                    wall_ns: wall,
                });
            }
            let mut start = 0;
            for (c, chunk) in pass.chunks.iter().enumerate() {
                if chunk_runs.len() <= c {
                    chunk_runs.push(Vec::new());
                }
                let end = start + chunk.len;
                chunk_runs[c].push((chunk.wall_ns, pass.latencies_ns[start..end].to_vec()));
                start = end;
            }
            plain.merge(pass);
        }
        index += 1;
        let kept = plain.latencies_ns.len() as f64 * KEEP_FASTEST;
        let enough =
            kept >= min_samples as f64 && (!args.trace || traced.latencies_ns.len() >= min_samples);
        if enough && origin.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let invariants = workload.finish();
    if let Err(e) = &invariants {
        eprintln!("invariant violated: {e}");
    }

    let attempted = (plain.latencies_ns.len() + traced.latencies_ns.len()) as u64
        + plain.failed
        + traced.failed;
    let failed = plain.failed + traced.failed;
    let passed = plain.passed + traced.passed;
    let completed = attempted - failed;
    for e in plain.errors.iter().chain(&traced.errors) {
        eprintln!("check failed: {e}");
    }
    let correct = failed == 0 && passed == completed && invariants.is_ok();

    let us = |ns: u64| ns as f64 / 1e3;
    let (fastest, fastest_wall_ns) = fastest_runs(&mut chunk_runs);
    let p50 = us(percentile(&fastest, 0.5));
    let p90 = us(percentile(&fastest, TOP_PERCENTILE));
    let rate = fastest.len() as f64 / (fastest_wall_ns as f64 / 1e9);
    let mut sorted = plain.latencies_ns.clone();
    sorted.sort_unstable();
    eprintln!(
        "[{}] seed {}: {} timed requests ({} in the fastest runs, {} traced), p50 {p50:.1} us, \
         p90 {p90:.1} us, {rate:.1}/s, setup {setup_s:.3} s",
        args.workload,
        args.seed,
        sorted.len(),
        fastest.len(),
        traced.latencies_ns.len(),
    );
    if let Some(modes) = workload.modes(&sorted) {
        modes.report(&args.workload, &[("p50", 0.5), ("p90", TOP_PERCENTILE)]);
    }

    let mut metrics = Metrics::default();
    if args.trace {
        layer_metrics(
            &mut workload,
            &plain,
            &traced,
            traced_capacity_ns,
            &mut metrics,
        )?;
        let path = format!("perfbench/spans/{}-seed{}.tsv", args.workload, args.seed);
        if let Err(e) = trace::write_tsv(traced.tracer.spans(), std::path::Path::new(&path)) {
            eprintln!("note: span log not written to {path}: {e}");
        }
    } else {
        let k = workload.kernels();
        let problems = k.problems.max(1) as f64;
        metrics.put("setup_s", setup_s, "s");
        metrics.put("latency_us_p50", p50, "us");
        metrics.put("latency_us_p90", p90, "us");
        metrics.put("throughput_per_s", rate, "1/s");
        metrics.put("kernel_steps_sum", k.steps as f64, "steps");
        metrics.put("registers_sum", k.registers as f64, "registers");
        metrics.put("code_ops_sum", k.code_ops as f64, "ops");
        metrics.put("optimal_share", k.optimal as f64 / problems, "ratio");
        metrics.put(
            "pass_share",
            passed as f64 / completed.max(1) as f64,
            "ratio",
        );
        metrics.put("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MB");
    }
    Ok(metrics.result_line(correct, attempted, failed))
}

/// Every per-layer span this benchmark records, in report order.
pub const LAYER_SPANS: &[&str] = &[
    "dfg.parse_us",
    "verify.lint_us",
    "baselines.lower_bound_us",
    "core.solve_us",
    "core.loop_schedule_us",
    "sched.simulate_us",
    "sched.render_us",
    "verify.certify_us",
    "verify.analyze_us",
    "core.wire_us",
    "serve.hit_us",
    "serve.solve_us",
];

/// Prints where the time of the median requests goes: the layers' share
/// of the requests whose duration lies between p45 and p55.
fn median_band(spans: &[trace::Span]) {
    let mut roots: Vec<(u64, usize)> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.parent.is_none() && s.name == "request")
        .map(|(i, s)| (s.end_ns - s.start_ns, i))
        .collect();
    if roots.len() < 20 {
        return;
    }
    roots.sort_unstable();
    let band = &roots[roots.len() * 45 / 100..roots.len() * 55 / 100];
    let in_band: std::collections::HashSet<usize> = band.iter().map(|&(_, i)| i).collect();
    let total: u64 = band.iter().map(|&(d, _)| d).sum();
    let mut by_layer: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
    for s in spans {
        if s.parent.is_some_and(|p| in_band.contains(&p)) {
            *by_layer.entry(s.name).or_default() += s.end_ns - s.start_ns;
        }
    }
    let parts: Vec<String> = by_layer
        .iter()
        .map(|(name, ns)| format!("{name} {:.1}%", *ns as f64 * 100.0 / total.max(1) as f64))
        .collect();
    eprintln!(
        "median requests (p45-p55, {} of them): {}",
        band.len(),
        parts.join(", ")
    );
}

/// The service counters `serve-zipf` reports; other workloads read 0.
pub const SERVE_COUNTERS: &[(&str, &str)] = &[
    ("serve.hit_share", "ratio"),
    ("serve.coalesced_share", "ratio"),
    ("serve.bypass_share", "ratio"),
    ("serve.solver_invocations", "count"),
    ("serve.evictions", "count"),
];

fn layer_metrics<W: Workload>(
    workload: &mut W,
    plain: &Pass,
    traced: &Pass,
    capacity_ns: u64,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let spans = traced.tracer.spans();
    let layers = trace::layers(spans);
    let capacity = capacity_ns.max(1) as f64;
    let mut attributed_ns = 0_u64;
    for (name, layer) in &layers {
        if *name != "request" {
            attributed_ns += layer.self_ns;
        }
    }
    eprintln!("layer                        calls      p50 us    share");
    for (name, layer) in &layers {
        let mut d = layer.durations_ns.clone();
        d.sort_unstable();
        let share = layer.self_ns as f64 / capacity;
        eprintln!(
            "{name:<26} {:>8} {:>11.2} {:>7.2}%",
            d.len(),
            percentile(&d, 0.5) as f64 / 1e3,
            share * 100.0
        );
        if LAYER_SPANS.contains(name) {
            metrics.put(
                format!("{name}_p50"),
                percentile(&d, 0.5) as f64 / 1e3,
                "us",
            );
            metrics.put(format!("{name}_share"), share, "ratio");
        }
    }
    // Layers this workload does not call read 0, so every workload
    // prints the same metric names.
    for name in LAYER_SPANS {
        if !layers.contains_key(name) {
            metrics.put(format!("{name}_p50"), 0.0, "us");
            metrics.put(format!("{name}_share"), 0.0, "ratio");
        }
    }
    let rotations = workload.kernels().rotations;
    let solve_calls = layers
        .get("core.solve_us")
        .map_or(0, |l| l.durations_ns.len());
    // Solve spans per distinct problem give the rotations behind them.
    let problems = workload.kernels().problems.max(1);
    let traced_rotations = rotations as f64 * solve_calls as f64 / problems as f64;
    let solve_ns = layers
        .get("core.solve_us")
        .map_or(0, |l| l.durations_ns.iter().sum::<u64>());
    metrics.put("core.rotations", rotations as f64, "count");
    metrics.put(
        "core.ns_per_rotation",
        if traced_rotations > 0.0 {
            solve_ns as f64 / traced_rotations
        } else {
            0.0
        },
        "ns",
    );
    workload.layer_counters(metrics);
    for (name, unit) in SERVE_COUNTERS {
        if !metrics.has(name) {
            metrics.put(*name, 0.0, unit);
        }
    }
    let unattributed = 1.0 - attributed_ns as f64 / capacity;
    let mut plain_sorted = plain.latencies_ns.clone();
    plain_sorted.sort_unstable();
    let mut traced_sorted = traced.latencies_ns.clone();
    traced_sorted.sort_unstable();
    let overhead =
        percentile(&traced_sorted, 0.5) as f64 / percentile(&plain_sorted, 0.5) as f64 - 1.0;
    eprintln!(
        "unattributed {:.2}% of traced capacity, trace overhead {:+.2}% at p50",
        unattributed * 100.0,
        overhead * 100.0
    );
    median_band(spans);
    metrics.put("unattributed_share", unattributed, "ratio");
    metrics.put("trace_overhead_share", overhead, "ratio");
    Ok(())
}
