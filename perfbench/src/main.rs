//! Host-time benchmark of the resoftmax workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve-burst|serve-longctx|repro-offline> \
//!     [--seed N] [--seconds S] [--trace 0|1] [--threads N]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with plain public calls.
//! `--trace 1` alternates untraced and traced repetitions and reports the
//! per-layer metrics, taken from spans the benchmark records around each
//! layer's public functions. Either way the last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.

mod repro;
mod serve;
mod trace;

use serve::{Rep, ServeSpec};
use std::path::PathBuf;
use std::time::Instant;
use trace::{Recorder, SpanRecord};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Measuring time used when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 30.0;
/// Worker threads the pool is pinned to, capped by the host's cores.
const PINNED_THREADS: usize = 2;
/// Requests of `serve-burst`: two cycles of the square wave.
const BURST_REQUESTS: usize = 200;
/// Requests of `serve-longctx`: the fewest whose TTFT p90 keeps at least
/// [`serve::MIN_BEYOND`] samples beyond it.
const LONGCTX_REQUESTS: usize = 100;

/// Starts the program as the replay process of a traced serving run (see
/// [`serve::Lockstep`]) instead of a benchmark run.
pub const REPLAY_WORKER_FLAG: &str = "--replay-worker";

/// A metric as `BENCHMARK.json` declares it.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Metrics of an untraced run (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("host_s", "s", "lower"),
    m("items_per_host_s", "1/s", "higher"),
    m("peak_rss_mb", "MB", "lower"),
];

/// Metrics of a traced run (`--trace 1`).
pub const PER_LAYER: &[MetricDef] = &[
    m("model.build_calls", "count", "lower"),
    m("model.kernels_built", "count", "lower"),
    m("model.build_s", "s", "lower"),
    m("model.build_us_per_kernel", "us", "lower"),
    m("gpusim.run_calls", "count", "lower"),
    m("gpusim.price_s", "s", "lower"),
    m("gpusim.price_us_per_kernel", "us", "lower"),
    m("gpusim.cache_hits", "count", "higher"),
    m("gpusim.cache_misses", "count", "lower"),
    m("gpusim.cache_hit_ratio", "ratio", "higher"),
    m("gpusim.cache_dropped", "count", "lower"),
    m("gpusim.event_steps", "count", "lower"),
    m("gpusim.setup_warmed_kernels", "count", "lower"),
    m("serve.run_s", "s", "lower"),
    m("serve.self_s", "s", "lower"),
    m("serve.iterations", "count", "lower"),
    m("serve.rows_per_iteration", "count", "higher"),
    m("serve.preemptions", "count", "lower"),
    m("serve.evictions", "count", "lower"),
    m("serve.scale_events", "count", "lower"),
    m("ctrl.decisions", "count", "lower"),
    m("ctrl.decide_s", "s", "lower"),
    m("ctrl.applied_ratio", "ratio", "higher"),
    m("analyzer.checks", "count", "lower"),
    m("analyzer.check_s", "s", "lower"),
    m("analyzer.errors", "count", "lower"),
    m("tune.calls", "count", "lower"),
    m("tune.tune_s", "s", "lower"),
    m("kernels.verify_calls", "count", "lower"),
    m("kernels.verify_s", "s", "lower"),
    m("kernels.err_over_tol", "ratio", "lower"),
    m("core.experiments_s", "s", "lower"),
    m("obs.trace_overhead", "ratio", "lower"),
    m("sim.ttft_p50_s", "s", "lower"),
    m("sim.ttft_p90_s", "s", "lower"),
    m("sim.tbt_p50_s", "s", "lower"),
    m("sim.tbt_p99_s", "s", "lower"),
    m("sim.paper_err_pct", "%", "lower"),
];

/// Correctness gates: every failed check is kept with its reason.
#[derive(Default)]
pub struct Gates {
    failures: Vec<String>,
}

impl Gates {
    pub fn check(&mut self, ok: bool, reason: String) {
        if !ok {
            self.failures.push(reason);
        }
    }

    pub fn fail(&mut self, reason: String) {
        self.failures.push(reason);
    }
}

/// FNV-1a, 64-bit: the digest printed for deterministic outputs.
pub fn digest(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Tuner lookups so far, from the tuner's own always-on counters.
pub fn tune_lookups() -> u64 {
    let m = resoftmax_obs::metrics_snapshot();
    m.count("tune.cache_hits") + m.count("tune.cache_misses")
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ServeBurst,
    ServeLongctx,
    ReproOffline,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::ServeBurst,
        Workload::ServeLongctx,
        Workload::ReproOffline,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::ServeBurst => "serve-burst",
            Workload::ServeLongctx => "serve-longctx",
            Workload::ReproOffline => "repro-offline",
        }
    }

    fn serve_spec(self) -> Option<ServeSpec> {
        match self {
            Workload::ServeBurst => Some(ServeSpec::burst(BURST_REQUESTS)),
            Workload::ServeLongctx => Some(ServeSpec::longctx(LONGCTX_REQUESTS)),
            Workload::ReproOffline => None,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: Option<usize>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut threads = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| bad("unknown workload"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| bad("expected a positive number"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                };
            }
            "--threads" => {
                threads = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&n: &usize| n > 0)
                        .ok_or_else(|| bad("expected a positive integer"))?,
                );
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        threads,
    })
}

/// Median of `v` (the lower middle for an even count, so it is a measured
/// value). `v` must be nonempty.
fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s[(s.len() - 1) / 2]
}

/// Index of the median element of `v`.
fn median_index(v: &[f64]) -> usize {
    let mut idx: Vec<usize> = (0..v.len()).collect();
    idx.sort_by(|&a, &b| v[a].total_cmp(&v[b]));
    idx[(idx.len() - 1) / 2]
}

/// Peak resident set of this process so far, MB. Read after the first
/// measured repetition, it is the peak of one fresh set-up and run; later
/// repetitions would add the allocator's fragmentation.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Where the traced run writes its spans.
fn trace_path(w: Workload, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{}-seed{seed}.trace.jsonl", w.name()))
}

/// Collected result of a run, printed at the end.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64)>,
}

/// Runs set-up-only repetitions for up to a twentieth of the budget (at
/// least three, at most a thousand), so `setup_s` is a median over many
/// set-ups even when the measured repetitions are few.
///
/// Each set-up runs behind a live heap allocation of a different size, so
/// the median spans many heap layouts: a set-up of a few microseconds
/// otherwise reads up to twice as fast in one process as in the next,
/// depending on where its allocations happen to land.
fn extra_setups(budget_s: f64, mut setup: impl FnMut() -> f64) -> Vec<f64> {
    let t = Instant::now();
    let mut v = Vec::new();
    while v.len() < 3 || (v.len() < 1000 && t.elapsed().as_secs_f64() < budget_s / 20.0) {
        let shift = std::hint::black_box(vec![0u8; 1 + v.len() * 7919 % 8192]);
        v.push(setup());
        drop(shift);
    }
    v
}

/// Repeats `rep` until the next one would overrun `budget_s`, at least
/// `min` times.
fn repeat(budget_s: f64, min: usize, mut rep: impl FnMut()) {
    let t = Instant::now();
    let mut longest = 0.0f64;
    let mut n = 0;
    while n < min || t.elapsed().as_secs_f64() + longest <= budget_s {
        let r = Instant::now();
        rep();
        longest = longest.max(r.elapsed().as_secs_f64());
        n += 1;
    }
}

fn set_tracing(on: bool) {
    resoftmax_obs::set_trace_enabled(Some(false));
    resoftmax_obs::set_metrics_enabled(Some(on));
}

fn serve_untraced(spec: &ServeSpec, args: &Args, gates: &mut Gates) -> Outcome {
    set_tracing(false);
    let mut setups = extra_setups(args.seconds, || serve::setup_only(spec, args.seed, gates));
    let mut runs: Vec<Rep> = Vec::new();
    let budget = args.seconds - setups.iter().sum::<f64>();
    let mut rss = 0.0;
    repeat(budget, 1, || {
        runs.push(serve::rep(spec, args.seed, None, gates));
        if runs.len() == 1 {
            rss = peak_rss(gates);
        }
    });
    setups.extend(runs.iter().map(|r| r.setup_s));
    let attempted = (runs.len() * spec.cfg.requests) as u64;
    let completed: usize = runs
        .iter()
        .map(|r| r.report.as_ref().map_or(0, |rep| rep.completed))
        .sum();
    print_serve_reports(&runs, runs.len(), gates);
    let host_s = median(&runs.iter().map(|r| r.run_s).collect::<Vec<_>>());
    Outcome {
        attempted,
        failed: attempted - completed as u64,
        metrics: vec![
            ("setup_s", median(&setups)),
            ("host_s", host_s),
            ("items_per_host_s", spec.cfg.requests as f64 / host_s),
            ("peak_rss_mb", rss),
        ],
    }
}

fn peak_rss(gates: &mut Gates) -> f64 {
    peak_rss_mb().unwrap_or_else(|| {
        gates.fail("peak resident memory unavailable (no /proc/self/status)".to_owned());
        0.0
    })
}

/// Prints each repetition's report digest and simulated latencies, and
/// requires every repetition to produce the same report. Repetitions from
/// index `traced_from` on were traced.
fn print_serve_reports(runs: &[Rep], traced_from: usize, gates: &mut Gates) {
    let mut first: Option<u64> = None;
    for (i, r) in runs.iter().enumerate() {
        let Some(rep) = &r.report else { continue };
        let d = serve::report_digest(rep);
        let waited = r
            .traced
            .as_ref()
            .map(|t| format!(" ({:.4} s of it waiting on the replay)", t.replay_wait_s))
            .unwrap_or_default();
        println!(
            "rep {i}{}: setup {:.4} s, Fleet::run {:.4} s{waited}, {} iterations, report digest \
             {d:016x}, ttft p50/p90 {:.4}/{:.4} s (n={}), tbt p50/p99 {:.5}/{:.5} s (n={})",
            if i >= traced_from { " (traced)" } else { "" },
            r.setup_s,
            r.run_s,
            rep.iterations,
            rep.ttft.p50_s,
            rep.ttft.p90_s,
            rep.ttft.n,
            rep.tbt.p50_s,
            rep.tbt.p99_s,
            rep.tbt.n,
        );
        match first {
            None => first = Some(d),
            Some(f) => gates.check(
                f == d,
                format!("repetition {i} report digest {d:016x} differs from {f:016x}"),
            ),
        }
    }
}

fn serve_traced(spec: &ServeSpec, args: &Args, gates: &mut Gates) -> Outcome {
    let rec = Recorder::new();
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    repeat(args.seconds, 1, || {
        set_tracing(false);
        plain.push(serve::rep(spec, args.seed, None, gates));
        set_tracing(true);
        rec.set_tag(format!("rep{}/{}", traced.len(), args.workload.name()));
        traced.push(serve::rep(spec, args.seed, Some(&rec), gates));
    });
    set_tracing(false);
    let all: Vec<Rep> = plain.into_iter().chain(traced).collect();
    print_serve_reports(&all, all.len() / 2, gates);
    let (plain, traced) = all.split_at(all.len() / 2);
    let spans = write_and_read_trace(args, &rec.spans(), gates);
    // A traced run's own time: Fleet::run less its waits on the replay.
    let own_s = |r: &Rep| r.run_s - r.traced.as_ref().map_or(0.0, |t| t.replay_wait_s);
    let pick = median_index(&traced.iter().map(own_s).collect::<Vec<_>>());
    let rep = &traced[pick];
    let group = format!("rep{pick}");
    let layer = |l: &str| layer_s(&spans, &group, |s| s.layer == l);
    let run_self = layer_s(&spans, &group, |s| s.name == "Fleet::run");
    let run_s = span_s(&spans, &group, "Fleet::run") - span_s(&spans, &group, "replay");
    let mut metrics = empty_layer_metrics();
    let (Some(report), Some(t)) = (&rep.report, &rep.traced) else {
        gates.fail("the traced repetition produced no report".to_owned());
        return Outcome {
            attempted: 1,
            failed: 1,
            metrics,
        };
    };
    let (build_s, price_s, decide_s) = (layer("model"), layer("gpusim"), layer("ctrl"));
    println!(
        "accounting: Fleet::run less replay waits {run_s:.6} s = build {build_s:.6} + price \
         {price_s:.6} + decide {decide_s:.6} + serve self {run_self:.6} (replayed in lockstep)"
    );
    gates.check(
        run_self >= 0.0,
        format!("serve.self_s is negative ({run_self} s): the replay took longer than the run"),
    );
    gates.check(
        (build_s + price_s + decide_s + run_self - run_s).abs() <= 1e-6 * run_s.max(1.0),
        "per-layer times do not add up to Fleet::run".to_owned(),
    );
    gates.check(
        t.decide_calls == report.decisions.len(),
        format!(
            "timed {} decisions, the report logs {}",
            t.decide_calls,
            report.decisions.len()
        ),
    );
    let kernels = t.kernels_built as f64;
    let lookups = (t.run_hits + t.run_misses) as f64;
    let actions: usize = report.decisions.iter().map(|d| d.actions.len()).sum();
    let applied: usize = report
        .decisions
        .iter()
        .map(|d| d.applied.iter().filter(|&&a| a).count())
        .sum();
    let overhead = median(&traced.iter().map(own_s).collect::<Vec<_>>())
        / median(&plain.iter().map(|r| r.run_s).collect::<Vec<_>>())
        - 1.0;
    set(&mut metrics, "model.build_calls", t.build_calls as f64);
    set(&mut metrics, "model.kernels_built", kernels);
    set(&mut metrics, "model.build_s", build_s);
    set(
        &mut metrics,
        "model.build_us_per_kernel",
        ratio(build_s * 1e6, kernels),
    );
    set(&mut metrics, "gpusim.run_calls", t.run_calls as f64);
    set(&mut metrics, "gpusim.price_s", price_s);
    set(
        &mut metrics,
        "gpusim.price_us_per_kernel",
        ratio(price_s * 1e6, kernels),
    );
    set(&mut metrics, "gpusim.cache_hits", t.run_hits as f64);
    set(&mut metrics, "gpusim.cache_misses", t.run_misses as f64);
    set(
        &mut metrics,
        "gpusim.cache_hit_ratio",
        ratio(t.run_hits as f64, lookups),
    );
    set(&mut metrics, "gpusim.cache_dropped", t.run_dropped as f64);
    set(&mut metrics, "gpusim.event_steps", t.event_steps as f64);
    set(
        &mut metrics,
        "gpusim.setup_warmed_kernels",
        t.replay_misses as f64 - t.run_misses as f64,
    );
    set(&mut metrics, "serve.run_s", run_s);
    set(&mut metrics, "serve.self_s", run_self);
    set(&mut metrics, "serve.iterations", report.iterations as f64);
    set(
        &mut metrics,
        "serve.rows_per_iteration",
        ratio(t.rows as f64, report.iterations as f64),
    );
    set(&mut metrics, "serve.preemptions", report.preemptions as f64);
    set(&mut metrics, "serve.evictions", report.evictions as f64);
    set(
        &mut metrics,
        "serve.scale_events",
        (report.scale_ups + report.scale_downs) as f64,
    );
    set(
        &mut metrics,
        "ctrl.decisions",
        report.decisions.len() as f64,
    );
    set(&mut metrics, "ctrl.decide_s", decide_s);
    set(
        &mut metrics,
        "ctrl.applied_ratio",
        ratio(applied as f64, actions as f64),
    );
    set(&mut metrics, "tune.calls", t.tune_calls as f64);
    set(&mut metrics, "tune.tune_s", layer("tune"));
    set(&mut metrics, "obs.trace_overhead", overhead);
    set(&mut metrics, "sim.ttft_p50_s", report.ttft.p50_s);
    set(&mut metrics, "sim.ttft_p90_s", report.ttft.p90_s);
    set(&mut metrics, "sim.tbt_p50_s", report.tbt.p50_s);
    set(&mut metrics, "sim.tbt_p99_s", report.tbt.p99_s);
    let attempted = (all.len() * spec.cfg.requests) as u64;
    let completed: usize = all
        .iter()
        .map(|r| r.report.as_ref().map_or(0, |rep| rep.completed))
        .sum();
    Outcome {
        attempted,
        failed: attempted - completed as u64,
        metrics,
    }
}

fn repro_untraced(args: &Args, gates: &mut Gates) -> Outcome {
    set_tracing(false);
    let mut setups = extra_setups(args.seconds, || repro::timed_setup(args.seed).1);
    let mut passes: Vec<(f64, repro::Pass)> = Vec::new();
    let budget = args.seconds - setups.iter().sum::<f64>();
    let mut rss = 0.0;
    repeat(budget, 1, || {
        let (s, setup_s) = repro::timed_setup(args.seed);
        setups.push(setup_s);
        let t = Instant::now();
        let p = repro::pass(&s, None, gates);
        passes.push((t.elapsed().as_secs_f64(), p));
        if passes.len() == 1 {
            rss = peak_rss(gates);
        }
    });
    print_repro_passes(&passes, passes.len(), gates);
    let host_s = median(&passes.iter().map(|p| p.0).collect::<Vec<_>>());
    let items = passes[0].1.attempted as f64;
    Outcome {
        attempted: passes.iter().map(|p| p.1.attempted).sum(),
        failed: passes.iter().map(|p| p.1.failed).sum(),
        metrics: vec![
            ("setup_s", median(&setups)),
            ("host_s", host_s),
            ("items_per_host_s", items / host_s),
            ("peak_rss_mb", rss),
        ],
    }
}

fn print_repro_passes(passes: &[(f64, repro::Pass)], traced_from: usize, gates: &mut Gates) {
    for (i, (s, p)) in passes.iter().enumerate() {
        println!(
            "pass {i}{}: {s:.4} s, {} items, output digest {:016x}, paper_err_pct {:.4}, \
             err/tol {:.4}",
            if i >= traced_from { " (traced)" } else { "" },
            p.attempted,
            p.digest,
            p.paper_err_pct,
            p.err_over_tol
        );
        gates.check(
            p.digest == passes[0].1.digest,
            format!(
                "pass {i} output digest {:016x} differs from {:016x}",
                p.digest, passes[0].1.digest
            ),
        );
    }
}

fn repro_traced(args: &Args, gates: &mut Gates) -> Outcome {
    let rec = Recorder::new();
    let mut plain: Vec<(f64, repro::Pass)> = Vec::new();
    let mut traced: Vec<(f64, repro::Pass)> = Vec::new();
    repeat(args.seconds, 1, || {
        set_tracing(false);
        let s = repro::setup(args.seed);
        let t = Instant::now();
        let p = repro::pass(&s, None, gates);
        plain.push((t.elapsed().as_secs_f64(), p));
        set_tracing(true);
        rec.set_tag(format!("rep{}/{}", traced.len(), args.workload.name()));
        let s = repro::setup(args.seed);
        let id = rec.enter("pass", "bench");
        let t = Instant::now();
        let p = repro::pass(&s, Some(&rec), gates);
        traced.push((t.elapsed().as_secs_f64(), p));
        rec.exit(id);
    });
    set_tracing(false);
    let all: Vec<(f64, repro::Pass)> = plain.into_iter().chain(traced).collect();
    print_repro_passes(&all, all.len() / 2, gates);
    let (plain, traced) = all.split_at(all.len() / 2);
    let spans = write_and_read_trace(args, &rec.spans(), gates);
    let pick = median_index(&traced.iter().map(|p| p.0).collect::<Vec<_>>());
    let p = &traced[pick].1;
    let group = format!("rep{pick}");
    let layer = |l: &str| layer_s(&spans, &group, |s| s.layer == l);
    let overhead = median(&traced.iter().map(|p| p.0).collect::<Vec<_>>())
        / median(&plain.iter().map(|p| p.0).collect::<Vec<_>>())
        - 1.0;
    let build_s = layer("model");
    let lookups = (p.cache_hits + p.cache_misses) as f64;
    let mut metrics = empty_layer_metrics();
    set(&mut metrics, "model.build_calls", p.build_calls as f64);
    set(&mut metrics, "model.kernels_built", p.kernels_built as f64);
    set(&mut metrics, "model.build_s", build_s);
    set(
        &mut metrics,
        "model.build_us_per_kernel",
        ratio(build_s * 1e6, p.kernels_built as f64),
    );
    set(&mut metrics, "gpusim.cache_hits", p.cache_hits as f64);
    set(&mut metrics, "gpusim.cache_misses", p.cache_misses as f64);
    set(
        &mut metrics,
        "gpusim.cache_hit_ratio",
        ratio(p.cache_hits as f64, lookups),
    );
    set(&mut metrics, "gpusim.cache_dropped", p.cache_dropped as f64);
    set(&mut metrics, "gpusim.event_steps", p.event_steps as f64);
    set(&mut metrics, "analyzer.checks", p.checks as f64);
    set(&mut metrics, "analyzer.check_s", layer("analyzer"));
    set(&mut metrics, "analyzer.errors", p.analyzer_errors as f64);
    set(&mut metrics, "tune.calls", p.tune_calls as f64);
    set(&mut metrics, "tune.tune_s", layer("tune"));
    set(&mut metrics, "kernels.verify_calls", p.verify_calls as f64);
    set(&mut metrics, "kernels.verify_s", layer("kernels"));
    set(&mut metrics, "kernels.err_over_tol", p.err_over_tol);
    set(&mut metrics, "core.experiments_s", layer("core"));
    set(&mut metrics, "obs.trace_overhead", overhead);
    set(&mut metrics, "sim.paper_err_pct", p.paper_err_pct);
    Outcome {
        attempted: all.iter().map(|p| p.1.attempted).sum(),
        failed: all.iter().map(|p| p.1.failed).sum(),
        metrics,
    }
}

fn empty_layer_metrics() -> Vec<(&'static str, f64)> {
    PER_LAYER.iter().map(|d| (d.name, 0.0)).collect()
}

fn set(metrics: &mut [(&'static str, f64)], name: &str, value: f64) {
    let slot = metrics
        .iter_mut()
        .find(|(n, _)| *n == name)
        .expect("every reported metric is declared in PER_LAYER");
    slot.1 = value;
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Total self time of the spans of repetition `group` matching `pick`.
fn layer_s(spans: &[SpanRecord], group: &str, pick: impl Fn(&SpanRecord) -> bool) -> f64 {
    let selfs = trace::self_times(spans);
    spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.tag.split('/').next() == Some(group) && pick(s))
        .fold(0.0, |sum, (_, t)| sum + t)
}

/// Total duration of the spans named `name` in repetition `group`.
fn span_s(spans: &[SpanRecord], group: &str, name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.tag.split('/').next() == Some(group) && s.name == name)
        .fold(0.0, |sum, s| sum + s.duration_s())
}

/// Writes the spans, reads them back, and prints the per-layer self-time
/// table from the file.
fn write_and_read_trace(args: &Args, spans: &[SpanRecord], gates: &mut Gates) -> Vec<SpanRecord> {
    let path = trace_path(args.workload, args.seed);
    let back = trace::write(&path, spans).and_then(|()| trace::read(&path));
    let spans = match back {
        Ok(s) => s,
        Err(e) => {
            gates.fail(format!("trace file {}: {e}", path.display()));
            return spans.to_vec();
        }
    };
    println!("trace: {} spans written to {}", spans.len(), path.display());
    let table = trace::layer_self_times(&spans);
    let layers: Vec<&String> = {
        let mut l: Vec<&String> = table.values().flat_map(|m| m.keys()).collect();
        l.sort();
        l.dedup();
        l
    };
    println!("per-layer self time (s) by traced repetition:");
    print!("{:<10}", "layer");
    for rep in table.keys() {
        print!(" {rep:>12}");
    }
    println!();
    for l in layers {
        print!("{l:<10}");
        for m in table.values() {
            print!(" {:>12.6}", m.get(l).copied().unwrap_or_default());
        }
        println!();
    }
    spans
}

fn json_line(correct: bool, o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, v)| {
            let unit = END_TO_END
                .iter()
                .chain(PER_LAYER)
                .find(|d| d.name == *name)
                .map_or("", |d| d.unit);
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw == [REPLAY_WORKER_FLAG] {
        // The instrumentation state of the traced repetition it replays.
        set_tracing(true);
        let out = std::io::BufWriter::new(std::io::stdout().lock());
        if let Err(e) = serve::replay_worker(std::io::stdin().lock(), out) {
            eprintln!("replay process: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <serve-burst|serve-longctx|repro-offline> \
                 [--seed N] [--seconds S] [--trace 0|1] [--threads N]"
            );
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let threads = args.threads.unwrap_or(PINNED_THREADS.min(nproc));
    resoftmax_parallel::set_thread_override(Some(threads));
    println!(
        "workload {} seed {} seconds {} trace {} | nproc {nproc}, pinned threads {threads}, \
         profile {}, {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        env!("PERFBENCH_RUSTC_VERSION"),
    );

    let mut gates = Gates::default();
    let outcome = match (args.workload.serve_spec(), args.trace) {
        (Some(spec), false) => serve_untraced(&spec, &args, &mut gates),
        (Some(spec), true) => serve_traced(&spec, &args, &mut gates),
        (None, false) => repro_untraced(&args, &mut gates),
        (None, true) => repro_traced(&args, &mut gates),
    };
    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    gates.check(
        outcome.metrics.len() == declared.len()
            && declared
                .iter()
                .zip(&outcome.metrics)
                .all(|(d, (n, _))| d.name == *n),
        "reported metrics differ from the declared list".to_owned(),
    );
    for (name, v) in &outcome.metrics {
        gates.check(v.is_finite(), format!("{name} is not finite ({v})"));
    }
    let finite = Outcome {
        metrics: outcome
            .metrics
            .iter()
            .map(|&(n, v)| (n, if v.is_finite() { v } else { 0.0 }))
            .collect(),
        ..outcome
    };
    for (name, v) in &finite.metrics {
        println!("metric {name} = {v}");
    }
    for f in &gates.failures {
        println!("GATE FAILED: {f}");
    }
    let correct = gates.failures.is_empty();
    println!(
        "correctness gates: {}",
        if correct { "all passed" } else { "FAILED" }
    );
    println!("{}", json_line(correct, &finite));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        for n in &all {
            assert!(valid_name(n), "bad metric name {n}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "metric names repeat");
        for w in Workload::ALL {
            assert!(valid_name(w.name()));
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics_and_workloads() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let v: serde::Value = serde_json::from_str(&json).expect("BENCHMARK.json parses");
        let obj = v.as_object().expect("an object");
        let get = |k: &str| {
            obj.iter()
                .find(|(n, _)| n == k)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("missing key {k}"))
        };
        let names = |k: &str| -> Vec<(String, String, String)> {
            get(k)
                .as_array()
                .expect("a list")
                .iter()
                .map(|e| {
                    let o = e.as_object().expect("an object");
                    let s = |f: &str| {
                        o.iter()
                            .find(|(n, _)| n == f)
                            .and_then(|(_, v)| v.as_str())
                            .unwrap_or_default()
                            .to_owned()
                    };
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let declared = |defs: &[MetricDef]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|d| (d.name.to_owned(), d.unit.to_owned(), d.better.to_owned()))
                .collect()
        };
        assert_eq!(names("end_to_end"), declared(END_TO_END));
        assert_eq!(names("per_layer"), declared(PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, ..)| n).collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn serving_workloads_support_their_percentiles() {
        for w in Workload::ALL {
            let Some(spec) = w.serve_spec() else { continue };
            for seed in [DEFAULT_SEED, 2, 3] {
                let trace = serve::generate(&spec, seed);
                assert_eq!(trace.len(), spec.cfg.requests);
                let ttft_n = trace.len();
                let tbt_n: usize = trace.iter().map(|a| a.decode - 1).sum();
                assert!(
                    serve::beyond(ttft_n, 90) >= serve::MIN_BEYOND,
                    "{}: TTFT p90 of {ttft_n} samples has too few beyond it",
                    w.name()
                );
                assert!(
                    serve::beyond(tbt_n, 99) >= serve::MIN_BEYOND,
                    "{}: TBT p99 of {tbt_n} samples has too few beyond it",
                    w.name()
                );
            }
        }
    }

    #[test]
    fn args_parse_and_reject() {
        let a: Vec<String> = ["--workload", "serve-burst", "--seed", "7", "--trace", "1"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        let p = parse_args(&a).expect("parses");
        assert_eq!(
            (p.workload, p.seed, p.trace),
            (Workload::ServeBurst, 7, true)
        );
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "1"][..],
            &["--workload", "serve-burst", "--trace", "2"][..],
            &["--workload"][..],
        ] {
            let a: Vec<String> = bad.iter().map(|s| (*s).to_owned()).collect();
            assert!(parse_args(&a).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let o = Outcome {
            attempted: 3,
            failed: 0,
            metrics: vec![("host_s", 1.25)],
        };
        let line = json_line(true, &o);
        let v: serde::Value = serde_json::from_str(&line).expect("valid JSON");
        let keys: Vec<&str> = v
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }
}
