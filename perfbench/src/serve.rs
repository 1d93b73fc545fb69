//! The serving workloads (`serve-burst`, `serve-longctx`).
//!
//! Each repetition starts like a user's fresh process: a cleared pricing
//! cache, an in-memory tuner, then set-up (trace generation, policy-table
//! tuning, `FleetBuilder::build`) and one `Fleet::run`. The untraced
//! repetition makes plain public calls. The traced one attaches a recording
//! `IterationPlanner` per replica and a timing `ControlPlane` around the
//! controller. The planner hands every iteration, just before the fleet
//! prices it, to a replay process that builds and prices it through
//! `build_batched_decode_schedule` and `Gpu::run` on a pricing cache of its
//! own, started cleared, and times each call.

use crate::trace::{span, Recorder};
use crate::{digest, tune_lookups, Gates};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use resoftmax_ctrl::{Controller, PolicyTable};
use resoftmax_gpusim::{clear_sim_cache, sim_cache_stats, DeviceSpec, Gpu};
use resoftmax_model::{build_batched_decode_schedule, ModelConfig, RunParams, SoftmaxStrategy};
use resoftmax_serve::{
    Arrival, ControlDecision, ControlInit, ControlPlane, FleetBuilder, FleetReport, FleetSignals,
    IterationPlanner, LinkSpec, RouterPolicy, ServeConfig,
};
use resoftmax_tune::{SearchMode, SearchSpace, Tuner};
use serde::{Deserialize, Serialize};
use std::cell::{Cell, OnceCell, RefCell};
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// Context length the base run parameters are built for (the paper's L).
const PAPER_CTX: usize = 4096;

/// One serving workload.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    pub cfg: ServeConfig,
    /// The arrival rate as a repeating cycle of `(duration_s, rate_hz)`
    /// phases.
    pub phases: &'static [(f64, f64)],
    pub active: usize,
    pub standby: usize,
    pub controller: bool,
}

/// Square wave: 4 s at 5 req/s, then 2 s at 36 req/s.
const SQUARE_WAVE: &[(f64, f64)] = &[(4.0, 5.0), (2.0, 36.0)];
/// One endless phase at 0.5 req/s.
const STEADY: &[(f64, f64)] = &[(f64::INFINITY, 0.5)];

impl ServeSpec {
    pub fn burst(requests: usize) -> Self {
        ServeSpec {
            cfg: ServeConfig {
                requests,
                prompt_tokens: (128, 768),
                decode_tokens: (16, 128),
                max_batch: 4,
                max_iterations: 100_000_000,
                ..ServeConfig::default()
            },
            phases: SQUARE_WAVE,
            active: 2,
            standby: 2,
            controller: true,
        }
    }

    pub fn longctx(requests: usize) -> Self {
        ServeSpec {
            cfg: ServeConfig {
                requests,
                prompt_tokens: (2048, 8192),
                decode_tokens: (16, 48),
                max_iterations: 100_000_000,
                ..ServeConfig::default()
            },
            phases: STEADY,
            active: 2,
            standby: 0,
            controller: false,
        }
    }

    pub fn replicas(&self) -> usize {
        self.active + self.standby
    }
}

fn model() -> ModelConfig {
    ModelConfig::gpt_neo_1_3b()
}

fn params() -> RunParams {
    RunParams::new(PAPER_CTX).strategy(SoftmaxStrategy::Recomposed)
}

/// Steps of the three low-discrepancy sequences: the fractional parts of
/// the golden ratio, sqrt(2) and sqrt(3). Distinct irrational steps keep the
/// sequences from lining up with each other.
const PROMPT_STEP: f64 = 0.618_033_988_749_894_9;
const DECODE_STEP: f64 = 0.414_213_562_373_095_1;
const GAP_STEP: f64 = 0.732_050_807_568_877_2;

/// `n` probabilities `frac(offset + i * step)` with a seeded offset: a
/// low-discrepancy sequence, so every seed sees the same even spread of
/// values and no seed bunches long prompts or short gaps together. How
/// often long prompts overlap sets the number of iterations, the widest
/// schedule and the pricing cache's size, so this keeps host time and
/// memory from varying with the seed more than the host does.
fn weyl(n: usize, step: f64, rng: &mut ChaCha8Rng) -> Vec<f64> {
    let offset: f64 = rng.gen_range(0.0..1.0);
    (0..n).map(|i| (offset + i as f64 * step).fract()).collect()
}

/// Lengths over `lo..=hi` at low-discrepancy probabilities.
fn lengths(n: usize, (lo, hi): (usize, usize), step: f64, rng: &mut ChaCha8Rng) -> Vec<usize> {
    let width = (hi - lo + 1) as f64;
    weyl(n, step, rng)
        .into_iter()
        .map(|u| (lo + (u * width) as usize).min(hi))
        .collect()
}

/// Arrival times of a Poisson process whose rate follows `phases`, the
/// way `phased_arrivals` samples it (each gap is one unit-rate exponential
/// consumed across phase boundaries), but with the exponentials taken at
/// low-discrepancy probabilities.
fn arrival_times(n: usize, phases: &[(f64, f64)], rng: &mut ChaCha8Rng) -> Vec<f64> {
    let (mut now, mut phase, mut into_phase) = (0.0f64, 0usize, 0.0f64);
    weyl(n, GAP_STEP, rng)
        .into_iter()
        .map(|u| {
            let mut e = -(1.0 - u).ln();
            loop {
                let (dur_s, rate_hz) = phases[phase];
                let need_s = e / rate_hz;
                if need_s <= dur_s - into_phase {
                    now += need_s;
                    into_phase += need_s;
                    return now;
                }
                e -= (dur_s - into_phase) * rate_hz;
                now += dur_s - into_phase;
                into_phase = 0.0;
                phase = (phase + 1) % phases.len();
            }
        })
        .collect()
}

/// The request trace for `seed`: arrival times, prompt lengths and output
/// lengths all drawn at low-discrepancy probabilities.
pub fn generate(spec: &ServeSpec, seed: u64) -> Vec<Arrival> {
    let n = spec.cfg.requests;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let times = arrival_times(n, spec.phases, &mut rng);
    let prompts = lengths(n, spec.cfg.prompt_tokens, PROMPT_STEP, &mut rng);
    let decodes = lengths(n, spec.cfg.decode_tokens, DECODE_STEP, &mut rng);
    times
        .into_iter()
        .zip(prompts)
        .zip(decodes)
        .map(|((at_s, prompt), decode)| Arrival {
            at_s,
            prompt,
            decode,
        })
        .collect()
}

/// Hands each iteration's row contexts for one replica to `sink` and
/// returns the base parameters unchanged, so the run prices exactly what it
/// would without it.
pub struct RecordingPlanner<'a> {
    pub replica: usize,
    pub sink: &'a dyn Fn(usize, &[usize], &RunParams),
}

impl IterationPlanner for RecordingPlanner<'_> {
    fn plan(&self, ctxs: &[usize], base: &RunParams) -> RunParams {
        (self.sink)(self.replica, ctxs, base);
        base.clone()
    }
}

/// Times every `decide` of the wrapped control plane as a span.
pub struct TimedControl<'a> {
    pub inner: &'a dyn ControlPlane,
    pub rec: &'a Recorder,
    pub calls: Cell<usize>,
}

impl ControlPlane for TimedControl<'_> {
    fn begin(&self, cfg: &ServeConfig) -> ControlInit {
        self.inner.begin(cfg)
    }

    fn decide(&self, signals: &FleetSignals) -> ControlDecision {
        self.calls.set(self.calls.get() + 1);
        span(Some(self.rec), "ControlPlane::decide", "ctrl", || {
            self.inner.decide(signals)
        })
    }
}

/// What one repetition produced.
pub struct Rep {
    pub setup_s: f64,
    pub run_s: f64,
    pub report: Option<FleetReport>,
    /// Present on traced repetitions.
    pub traced: Option<TracedRep>,
}

/// Per-layer figures of one traced repetition.
#[derive(Debug, Default)]
pub struct TracedRep {
    pub build_calls: u64,
    pub kernels_built: u64,
    pub run_calls: u64,
    pub rows: u64,
    pub run_hits: u64,
    pub run_misses: u64,
    pub run_dropped: u64,
    pub replay_hits: u64,
    pub replay_misses: u64,
    pub event_steps: u64,
    pub tune_calls: u64,
    pub decide_calls: usize,
    /// Seconds `Fleet::run` spent waiting on the replay process.
    pub replay_wait_s: f64,
    /// Replayed per-replica simulated busy time equals the report's.
    pub busy_matches: bool,
}

/// Runs one repetition: fresh set-up, then `Fleet::run`, traced or not.
pub fn rep(spec: &ServeSpec, seed: u64, rec: Option<&Recorder>, gates: &mut Gates) -> Rep {
    rep_inner(spec, seed, rec, gates, true)
}

/// Runs set-up alone and returns its duration in seconds.
pub fn setup_only(spec: &ServeSpec, seed: u64, gates: &mut Gates) -> f64 {
    rep_inner(spec, seed, None, gates, false).setup_s
}

fn rep_inner(
    spec: &ServeSpec,
    seed: u64,
    rec: Option<&Recorder>,
    gates: &mut Gates,
    run: bool,
) -> Rep {
    clear_sim_cache();
    let device = DeviceSpec::a100();
    // Started after set-up, just before the run, so its start-up does not
    // land in set-up's spans.
    let lockstep: OnceCell<Lockstep> = OnceCell::new();
    let tune_before = tune_lookups();
    let setup_span = rec.map(|r| r.enter("setup", "bench"));
    let t_setup = Instant::now();
    let trace = span(rec, "generate_trace", "bench", || generate(spec, seed));
    let controller = spec.controller.then(|| {
        let tuner = Tuner::new(SearchSpace::smoke(), SearchMode::Exhaustive);
        let table = span(rec, "PolicyTable::tuned", "tune", || {
            PolicyTable::tuned(&tuner, &model(), &device, &spec.cfg)
        })
        .expect("the policy table tunes for the workload's request shape");
        Controller::new(table)
    });
    let sink = |replica: usize, ctxs: &[usize], params: &RunParams| {
        if let Some(l) = lockstep.get() {
            l.iteration(replica, ctxs, params);
        }
    };
    let planners: Vec<RecordingPlanner> = if rec.is_some() && run {
        (0..spec.replicas())
            .map(|replica| RecordingPlanner {
                replica,
                sink: &sink,
            })
            .collect()
    } else {
        Vec::new()
    };
    let timed = match (rec, &controller) {
        (Some(r), Some(c)) => Some(TimedControl {
            inner: c,
            rec: r,
            calls: Cell::new(0),
        }),
        _ => None,
    };
    let mut builder = FleetBuilder::new()
        .model(model())
        .params(params())
        .router(RouterPolicy::LeastLoaded)
        .link(LinkSpec::nvlink())
        .replicas(spec.active, &device)
        .standby_replicas(spec.standby, &device)
        .workload(spec.cfg.clone())
        .arrivals(trace);
    if let Some(t) = &timed {
        builder = builder.control_plane(t);
    } else if let Some(c) = &controller {
        builder = builder.control_plane(c);
    }
    for p in &planners {
        builder = builder.planner(p);
    }
    let fleet = span(rec, "FleetBuilder::build", "serve", || builder.build());
    let setup_s = t_setup.elapsed().as_secs_f64();
    if let (Some(r), Some(id)) = (rec, setup_span) {
        r.exit(id);
    }
    let tune_calls = tune_lookups() - tune_before;
    let fleet = match fleet {
        Ok(_) if !run => {
            return Rep {
                setup_s,
                run_s: 0.0,
                report: None,
                traced: None,
            }
        }
        Ok(f) => f,
        Err(e) => {
            gates.fail(format!("FleetBuilder::build failed: {e}"));
            return Rep {
                setup_s,
                run_s: 0.0,
                report: None,
                traced: None,
            };
        }
    };

    if let Some(r) = rec {
        match Lockstep::spawn(r) {
            Ok(l) => {
                let _ = lockstep.set(l);
            }
            Err(e) => {
                gates.fail(format!("the replay process did not start: {e}"));
                return Rep {
                    setup_s,
                    run_s: 0.0,
                    report: None,
                    traced: None,
                };
            }
        }
    }
    let before = sim_cache_stats();
    let steps_before = resoftmax_obs::metrics_snapshot().count("sim.event_steps");
    let run_span = rec.map(|r| r.enter("Fleet::run", "serve"));
    if let (Some(l), Some(id)) = (lockstep.get(), run_span) {
        l.run_id.set(Some(id));
    }
    let t_run = Instant::now();
    let result = fleet.run();
    let run_s = t_run.elapsed().as_secs_f64();
    if let (Some(r), Some(id)) = (rec, run_span) {
        r.exit(id);
    }
    let after = sim_cache_stats();
    let event_steps = resoftmax_obs::metrics_snapshot().count("sim.event_steps") - steps_before;
    let replayed = lockstep.into_inner().map(|l| l.finish(gates));
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            gates.fail(format!("Fleet::run failed: {e}"));
            return Rep {
                setup_s,
                run_s,
                report: None,
                traced: None,
            };
        }
    };
    check_report(spec, &report, gates);

    let traced = replayed.map(|(mut t, busy_s)| {
        t.busy_matches = report.replicas.len() >= busy_s.len()
            && report.replicas.iter().enumerate().all(|(i, r)| {
                r.busy_s.to_bits() == busy_s.get(i).copied().unwrap_or(0.0).to_bits()
            });
        t.run_hits = after.hits - before.hits;
        t.run_misses = after.misses - before.misses;
        t.run_dropped = after.dropped - before.dropped;
        t.event_steps = event_steps;
        t.tune_calls = tune_calls;
        t.decide_calls = timed.as_ref().map_or(0, |c| c.calls.get());
        check_replay(&t, &report, gates);
        t
    });
    Rep {
        setup_s,
        run_s,
        report: Some(report),
        traced,
    }
}

/// One iteration, as the fleet is about to price it.
#[derive(Serialize, Deserialize)]
pub struct ReplayRequest {
    pub replica: usize,
    pub ctxs: Vec<usize>,
    pub params: RunParams,
}

/// How long the replay process took to build and to price one iteration.
#[derive(Serialize, Deserialize)]
pub struct ReplayReply {
    pub build_ns: u64,
    pub price_ns: u64,
    pub kernels: u64,
    pub error: Option<String>,
}

/// What the replay process reports when its input ends: its pricing-cache
/// lookups and each replica's simulated busy time (as `f64` bits).
#[derive(Serialize, Deserialize)]
pub struct ReplaySummary {
    pub hits: u64,
    pub misses: u64,
    pub busy_bits: Vec<u64>,
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).expect("a call shorter than 584 years")
}

/// The replay process: reads one [`ReplayRequest`] per line, builds and
/// prices it on one `Gpu` per replica, and answers with a [`ReplayReply`];
/// when the input ends it writes a [`ReplaySummary`]. In a process of its
/// own, its pricing cache starts cleared and sees the run's lookups in the
/// run's order, so it hits and misses exactly where the run does.
pub fn replay_worker(input: impl BufRead, mut output: impl Write) -> std::io::Result<()> {
    clear_sim_cache();
    let before = sim_cache_stats();
    let model = model();
    let device = DeviceSpec::a100();
    let mut gpus: Vec<Gpu> = Vec::new();
    let mut busy_s: Vec<f64> = Vec::new();
    for line in input.lines() {
        let req: ReplayRequest = serde_json::from_str(&line?).map_err(std::io::Error::other)?;
        while gpus.len() <= req.replica {
            gpus.push(Gpu::new(device.clone()));
            busy_s.push(0.0);
        }
        let gpu = &mut gpus[req.replica];
        let t0 = Instant::now();
        let kernels = build_batched_decode_schedule(&model, &req.ctxs, &req.params);
        let t1 = Instant::now();
        let result = gpu.run(&kernels);
        let t2 = Instant::now();
        busy_s[req.replica] += gpu.take_timeline().total_time_s();
        let reply = ReplayReply {
            build_ns: nanos(t1 - t0),
            price_ns: nanos(t2 - t1),
            kernels: kernels.len() as u64,
            error: result.err().map(|e| e.to_string()),
        };
        let line = serde_json::to_string(&reply).map_err(std::io::Error::other)?;
        writeln!(output, "{line}")?;
        output.flush()?;
    }
    let after = sim_cache_stats();
    let summary = ReplaySummary {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        busy_bits: busy_s.iter().map(|b| b.to_bits()).collect(),
    };
    let line = serde_json::to_string(&summary).map_err(std::io::Error::other)?;
    writeln!(output, "{line}")?;
    output.flush()
}

/// The run's side of the replay. Each iteration is sent to the replay
/// process just before the fleet prices it, and the run waits for the
/// answer, so the replayed build and pricing are timed next to the run's
/// own: a host that slows down or speeds up during the run affects both
/// alike. The wait is a `replay` span inside `Fleet::run` that names the
/// run as the span it replays; the replay process's build and pricing times
/// become its children.
pub struct Lockstep<'a> {
    rec: &'a Recorder,
    child: RefCell<Child>,
    stdin: RefCell<Option<ChildStdin>>,
    stdout: RefCell<BufReader<ChildStdout>>,
    /// The `Fleet::run` span the replay belongs to.
    pub run_id: Cell<Option<usize>>,
    figures: RefCell<TracedRep>,
    failure: RefCell<Option<String>>,
}

impl<'a> Lockstep<'a> {
    /// Starts the replay process: this program with `--replay-worker`.
    pub fn spawn(rec: &'a Recorder) -> std::io::Result<Self> {
        let mut child = Command::new(std::env::current_exe()?)
            .arg(crate::REPLAY_WORKER_FLAG)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdin = child.stdin.take().expect("stdin is piped");
        let stdout = child.stdout.take().expect("stdout is piped");
        Ok(Lockstep {
            rec,
            child: RefCell::new(child),
            stdin: RefCell::new(Some(stdin)),
            stdout: RefCell::new(BufReader::new(stdout)),
            run_id: Cell::new(None),
            figures: RefCell::new(TracedRep::default()),
            failure: RefCell::new(None),
        })
    }

    fn exchange(&self, req: &ReplayRequest) -> Result<ReplayReply, String> {
        let mut stdin = self.stdin.borrow_mut();
        let stdin = stdin.as_mut().ok_or("the replay input is closed")?;
        let line = serde_json::to_string(req).map_err(|e| e.to_string())?;
        writeln!(stdin, "{line}")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("writing to the replay process: {e}"))?;
        let mut answer = String::new();
        self.stdout
            .borrow_mut()
            .read_line(&mut answer)
            .map_err(|e| format!("reading from the replay process: {e}"))?;
        serde_json::from_str(&answer).map_err(|e| format!("replay answer {answer:?}: {e}"))
    }

    /// Replays one iteration and records its spans.
    pub fn iteration(&self, replica: usize, ctxs: &[usize], params: &RunParams) {
        if self.failure.borrow().is_some() {
            return;
        }
        let rec = self.rec;
        let tag = rec.tag();
        let n = self.figures.borrow().build_calls;
        rec.set_tag(format!("{tag}/iteration{n}"));
        rec.next_replays(self.run_id.get().expect("the run span is open"));
        let id = rec.enter("replay", "bench");
        let start = rec.now_ns();
        let req = ReplayRequest {
            replica,
            ctxs: ctxs.to_vec(),
            params: params.clone(),
        };
        let reply = self.exchange(&req);
        let end = rec.now_ns();
        match reply {
            Ok(r) if r.error.is_none() && r.build_ns + r.price_ns <= end - start => {
                // The replay process's times, laid out inside the wait
                // that contains them.
                let built = start + r.build_ns;
                rec.record("build_batched_decode_schedule", "model", start, built);
                rec.record("Gpu::run", "gpusim", built, built + r.price_ns);
                let mut f = self.figures.borrow_mut();
                f.build_calls += 1;
                f.run_calls += 1;
                f.kernels_built += r.kernels;
                f.rows += ctxs.len() as u64;
            }
            Ok(r) => {
                *self.failure.borrow_mut() = Some(match r.error {
                    Some(e) => format!("the replay failed to price an iteration: {e}"),
                    None => "the replay's times exceed the wait that contains them".to_owned(),
                });
            }
            Err(e) => *self.failure.borrow_mut() = Some(e),
        }
        rec.exit(id);
        rec.set_tag(tag);
        self.figures.borrow_mut().replay_wait_s += (end - start) as f64 * 1e-9;
    }

    /// Ends the replay process and returns the replay's figures and each
    /// replica's replayed busy time.
    pub fn finish(self, gates: &mut Gates) -> (TracedRep, Vec<f64>) {
        drop(self.stdin.borrow_mut().take());
        let mut line = String::new();
        let summary = self
            .stdout
            .borrow_mut()
            .read_line(&mut line)
            .map_err(|e| e.to_string())
            .and_then(|_| {
                serde_json::from_str::<ReplaySummary>(&line)
                    .map_err(|e| format!("replay summary {line:?}: {e}"))
            });
        let status = self.child.borrow_mut().wait();
        if let Some(e) = self.failure.borrow_mut().take() {
            gates.fail(e);
        }
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => gates.fail(format!("the replay process ended with {s}")),
            Err(e) => gates.fail(format!("waiting for the replay process: {e}")),
        }
        let mut figures = std::mem::take(&mut *self.figures.borrow_mut());
        match summary {
            Ok(s) => {
                figures.replay_hits = s.hits;
                figures.replay_misses = s.misses;
                (
                    figures,
                    s.busy_bits.into_iter().map(f64::from_bits).collect(),
                )
            }
            Err(e) => {
                gates.fail(format!("the replay process sent no summary: {e}"));
                (figures, Vec::new())
            }
        }
    }
}

impl Drop for Lockstep<'_> {
    /// Leaves no replay process behind, whichever way the run ends.
    fn drop(&mut self) {
        drop(self.stdin.get_mut().take());
        let child = self.child.get_mut();
        if matches!(child.try_wait(), Ok(None)) {
            let _ = child.kill();
        }
        let _ = child.wait();
    }
}

/// Nearest-rank index of the `percent`-ile of `n` samples, as the serving
/// metrics compute it.
pub fn rank_index(n: usize, percent: usize) -> usize {
    (n * percent).div_ceil(100).max(1) - 1
}

/// Samples ranked strictly above the `percent`-ile.
pub fn beyond(n: usize, percent: usize) -> usize {
    n - rank_index(n, percent) - 1
}

/// Fewest samples a reported percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

fn check_report(spec: &ServeSpec, r: &FleetReport, gates: &mut Gates) {
    gates.check(
        r.submitted == spec.cfg.requests,
        format!(
            "submitted {} of {} requests",
            r.submitted, spec.cfg.requests
        ),
    );
    gates.check(
        r.completed == r.submitted,
        format!("completed {} of {} submitted", r.completed, r.submitted),
    );
    for rs in &r.replicas {
        gates.check(
            rs.kv_used_blocks_end == 0,
            format!(
                "replica {} ends with {} KV blocks in use",
                rs.id, rs.kv_used_blocks_end
            ),
        );
    }
    gates.check(
        r.ttft.n == r.completed,
        format!("{} TTFT samples for {} completions", r.ttft.n, r.completed),
    );
    gates.check(
        beyond(r.ttft.n, 90) >= MIN_BEYOND,
        format!(
            "TTFT p90 has {} samples beyond it, fewer than {MIN_BEYOND}: enlarge the workload",
            beyond(r.ttft.n, 90)
        ),
    );
    gates.check(
        beyond(r.tbt.n, 99) >= MIN_BEYOND,
        format!(
            "TBT p99 has {} samples beyond it, fewer than {MIN_BEYOND}: enlarge the workload",
            beyond(r.tbt.n, 99)
        ),
    );
    for v in [r.ttft.p50_s, r.ttft.p90_s, r.tbt.p50_s, r.tbt.p99_s] {
        gates.check(
            v.is_finite() && v > 0.0,
            format!("simulated latency {v} is not a positive number"),
        );
    }
}

fn check_replay(t: &TracedRep, report: &FleetReport, gates: &mut Gates) {
    gates.check(
        t.build_calls == report.iterations as u64,
        format!(
            "replayed {} of the run's {} iterations",
            t.build_calls, report.iterations
        ),
    );
    gates.check(
        t.replay_hits + t.replay_misses == t.run_hits + t.run_misses,
        format!(
            "replay priced {} kernels, the run {}",
            t.replay_hits + t.replay_misses,
            t.run_hits + t.run_misses
        ),
    );
    gates.check(
        t.busy_matches,
        "replayed simulated busy time differs from the report".to_owned(),
    );
}

/// Digest of the report's deterministic content.
pub fn report_digest(r: &FleetReport) -> u64 {
    digest(&serde_json::to_string(r).expect("fleet reports serialize"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_planner_and_timing_controller_leave_the_report_identical() {
        let spec = ServeSpec::burst(24);
        let trace = generate(&spec, 7);
        let device = DeviceSpec::a100();
        let tuner = Tuner::new(SearchSpace::smoke(), SearchMode::Exhaustive);
        let table = PolicyTable::tuned(&tuner, &model(), &device, &spec.cfg).expect("tunes");
        let controller = Controller::new(table);
        let base = || {
            FleetBuilder::new()
                .model(model())
                .params(params())
                .router(RouterPolicy::LeastLoaded)
                .link(LinkSpec::nvlink())
                .replicas(spec.active, &device)
                .standby_replicas(spec.standby, &device)
                .workload(spec.cfg.clone())
                .arrivals(trace.clone())
        };
        let plain = base()
            .control_plane(&controller)
            .build()
            .expect("builds")
            .run()
            .expect("runs");
        let rec = Recorder::new();
        let timed = TimedControl {
            inner: &controller,
            rec: &rec,
            calls: Cell::new(0),
        };
        let recorded: RefCell<Vec<(usize, Vec<usize>, RunParams)>> = RefCell::default();
        let sink = |replica: usize, ctxs: &[usize], params: &RunParams| {
            recorded
                .borrow_mut()
                .push((replica, ctxs.to_vec(), params.clone()));
        };
        let planners: Vec<RecordingPlanner> = (0..spec.replicas())
            .map(|replica| RecordingPlanner {
                replica,
                sink: &sink,
            })
            .collect();
        let mut b = base().control_plane(&timed);
        for p in &planners {
            b = b.planner(p);
        }
        let wrapped = b.build().expect("builds").run().expect("runs");
        assert_eq!(
            serde_json::to_string(&plain).expect("serializes"),
            serde_json::to_string(&wrapped).expect("serializes")
        );
        assert_eq!(timed.calls.get(), plain.decisions.len());
        assert_eq!(recorded.borrow().len(), plain.iterations);
    }

    #[test]
    fn replay_worker_answers_each_iteration_and_sums_busy_time() {
        let reqs = [
            (0usize, vec![130usize, 7, 9]),
            (1, vec![40, 41]),
            (0, vec![131, 8]),
        ];
        let mut input = String::new();
        for (replica, ctxs) in &reqs {
            let req = ReplayRequest {
                replica: *replica,
                ctxs: ctxs.clone(),
                params: params(),
            };
            input.push_str(&serde_json::to_string(&req).expect("serializes"));
            input.push('\n');
        }
        let mut out = Vec::new();
        replay_worker(input.as_bytes(), &mut out).expect("replays");
        let text = String::from_utf8(out).expect("utf-8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), reqs.len() + 1);
        let mut gpus = [Gpu::new(DeviceSpec::a100()), Gpu::new(DeviceSpec::a100())];
        let mut busy = [0.0f64; 2];
        for ((replica, ctxs), line) in reqs.iter().zip(&lines) {
            let reply: ReplayReply = serde_json::from_str(line).expect("a reply");
            assert!(reply.error.is_none());
            let kernels = build_batched_decode_schedule(&model(), ctxs, &params());
            assert_eq!(reply.kernels, kernels.len() as u64);
            gpus[*replica].run(&kernels).expect("prices");
            busy[*replica] += gpus[*replica].take_timeline().total_time_s();
        }
        let summary: ReplaySummary = serde_json::from_str(lines[reqs.len()]).expect("a summary");
        assert_eq!(summary.busy_bits, busy.map(f64::to_bits).to_vec());
    }

    #[test]
    fn lengths_cover_the_range_and_depend_on_the_seed() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let a = lengths(100, (16, 128), PROMPT_STEP, &mut rng);
        assert!(a.iter().all(|&x| (16..=128).contains(&x)));
        assert!(a.iter().any(|&x| x < 18) && a.iter().any(|&x| x > 126));
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        assert_ne!(a, lengths(100, (16, 128), PROMPT_STEP, &mut rng));
    }

    #[test]
    fn rank_index_matches_nearest_rank() {
        assert_eq!(rank_index(10, 90), 8);
        assert_eq!(rank_index(100, 90), 89);
        assert_eq!(beyond(100, 90), 10);
        assert_eq!(beyond(99, 90), 9);
        assert_eq!(rank_index(1, 50), 0);
    }
}
