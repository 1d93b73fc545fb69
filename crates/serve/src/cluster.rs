//! The fleet: N modeled replicas behind a router, on one simulated clock.
//!
//! [`FleetBuilder`] is the serving crate's public entry point. It validates
//! the whole configuration at build time — replica devices, KV capacity
//! against the model's weight footprint, decode legality and the certified
//! numerics budget (the same analyzer gate `Session` applies) — so a
//! [`Fleet`] that builds always runs to completion or returns a typed
//! [`Error`].
//!
//! The run itself is a discrete-event loop over five event sources: fault
//! injections (fail/drain), workload arrivals, prefill→decode KV-handoff
//! completions, control-plane activity (scale-up activations and
//! [`ControlPlane`] decisions, when one is attached), and replica engine
//! steps. Each replica owns its simulated clock (busy-until time); the
//! fleet always advances whichever source is earliest, breaking exact ties
//! in the fixed order *fault < arrival < handoff < scale-up activation <
//! decision < step* (handoffs and activations tie on enqueue order, steps
//! on the lowest replica id). One private run state owns everything a run
//! mutates and has one handler per event source. All time is simulated
//! GPU/interconnect time, so a fleet report — decision log included — is
//! bit-identical across host thread counts and reruns.
//!
//! Disaggregation: replicas carry a [`Role`]. Fresh arrivals (and displaced
//! requests that owe prefill work) route over the *prefill-capable* subset;
//! when a request finishes its prefill on a `Prefill` replica, its KV pages
//! are priced across the [`LinkSpec`] — accounted as `kv_handoff_bytes` /
//! `kv_handoff_time_s`, distinct from rebalancing migrations — and on
//! transfer completion the request is routed over the *decode-capable*
//! subset, decoding without re-prefill.

use crate::control::{
    ControlAction, ControlPlane, ControlRecord, FleetSignals, ReplicaSignal, TokenBucket,
};
use crate::engine::{BaselinePlanner, IterationPlanner};
use crate::error::Error;
use crate::kv::{kv_bytes_per_token, weight_bytes, KvPool};
use crate::link::LinkSpec;
use crate::metrics::{FleetReport, Percentiles, ReplicaStats, SlidingWindow};
use crate::replica::{Replica, ReqState, Role, StepAcc};
use crate::request::{poisson_arrivals, Arrival, ServeConfig};
use crate::router::{ReplicaView, Router, RouterPolicy};
use resoftmax_gpusim::{DeviceSpec, Timeline};
use resoftmax_model::{
    build_batched_decode_schedule, decode_error_bound, AttentionKind, ModelConfig, RunParams,
    SoftmaxStrategy,
};

static BASELINE: BaselinePlanner = BaselinePlanner;

/// Samples each control-plane signal window retains at most (a memory
/// bound, not a semantic one: the window width does the real filtering).
const SIGNAL_WINDOW_CAP: usize = 8192;

/// A scripted replica fault, injected at a simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FleetEvent {
    /// The replica dies abruptly: its KV pool is lost, every resident
    /// request loses its cache and is re-routed (re-prefilling elsewhere).
    Fail {
        /// Replica index.
        replica: usize,
        /// Simulated time of the fault, seconds.
        at_s: f64,
    },
    /// The replica is taken out of rotation gracefully: it stops accepting
    /// work and its resident requests migrate their KV pages to siblings
    /// over the interconnect.
    Drain {
        /// Replica index.
        replica: usize,
        /// Simulated time the drain starts, seconds.
        at_s: f64,
    },
}

impl FleetEvent {
    fn at_s(&self) -> f64 {
        match *self {
            FleetEvent::Fail { at_s, .. } | FleetEvent::Drain { at_s, .. } => at_s,
        }
    }

    fn replica(&self) -> usize {
        match *self {
            FleetEvent::Fail { replica, .. } | FleetEvent::Drain { replica, .. } => replica,
        }
    }
}

/// Builder for a [`Fleet`]; the serving crate's recommended entry point.
///
/// ```
/// use resoftmax_serve::{FleetBuilder, LinkSpec, RouterPolicy, ServeConfig};
/// use resoftmax_gpusim::DeviceSpec;
/// use resoftmax_model::{ModelConfig, RunParams};
///
/// let report = FleetBuilder::new()
///     .model(ModelConfig::gpt_neo_1_3b())
///     .params(RunParams::new(4096))
///     .replicas(2, &DeviceSpec::a100())
///     .router(RouterPolicy::LeastLoaded)
///     .link(LinkSpec::nvlink())
///     .workload(ServeConfig {
///         requests: 8,
///         ..ServeConfig::default()
///     })
///     .build()?
///     .run()?;
/// assert_eq!(report.completed, 8);
/// # Ok::<(), resoftmax_serve::Error>(())
/// ```
#[derive(Default)]
pub struct FleetBuilder<'a> {
    model: Option<ModelConfig>,
    params: Option<RunParams>,
    replicas: Vec<DeviceSpec>,
    roles: Vec<Role>,
    standby: Vec<bool>,
    router: Option<RouterPolicy>,
    link: Option<LinkSpec>,
    workload: Option<ServeConfig>,
    arrivals: Option<Vec<Arrival>>,
    events: Vec<FleetEvent>,
    planners: Vec<&'a dyn IterationPlanner>,
    control: Option<&'a dyn ControlPlane>,
}

impl<'a> FleetBuilder<'a> {
    /// Starts an empty builder. [`model`](Self::model),
    /// [`params`](Self::params), and at least one
    /// [`replica`](Self::replica) are required.
    pub fn new() -> Self {
        FleetBuilder::default()
    }

    /// Sets the model every replica serves (required).
    #[must_use]
    pub fn model(mut self, model: ModelConfig) -> Self {
        self.model = Some(model);
        self
    }

    /// Sets the base run parameters — strategy, tile, hardware profile —
    /// every iteration is priced with (required). An
    /// [`IterationPlanner`] may re-plan them per iteration.
    #[must_use]
    pub fn params(mut self, params: RunParams) -> Self {
        self.params = Some(params);
        self
    }

    /// Adds one [`Role::Unified`] replica on `device`. Call repeatedly for a
    /// heterogeneous fleet.
    #[must_use]
    pub fn replica(self, device: DeviceSpec) -> Self {
        self.replica_with_role(device, Role::Unified)
    }

    /// Adds `n` [`Role::Unified`] replicas of the same `device`.
    #[must_use]
    pub fn replicas(mut self, n: usize, device: &DeviceSpec) -> Self {
        for _ in 0..n {
            self = self.replica_with_role(device.clone(), Role::Unified);
        }
        self
    }

    /// Adds one replica with an explicit serving [`Role`]. Replica ids follow
    /// declaration order regardless of role, so faults, planners, and report
    /// rows keep addressing replicas by the order they were added.
    #[must_use]
    pub fn replica_with_role(mut self, device: DeviceSpec, role: Role) -> Self {
        self.replicas.push(device);
        self.roles.push(role);
        self.standby.push(false);
        self
    }

    /// Adds one *standby* replica: provisioned (its KV capacity is
    /// validated like any other replica's) but parked out of rotation until
    /// a control plane scales it up with
    /// [`ControlAction::ScaleUp`](crate::ControlAction::ScaleUp) — the
    /// warm-up streams the model weights over the
    /// [`link`](Self::link) before it starts accepting. Standby replicas
    /// do not count toward the capability checks (a fleet whose only
    /// decode-capable replica is standby is still rejected).
    #[must_use]
    pub fn standby_replica_with_role(mut self, device: DeviceSpec, role: Role) -> Self {
        self.replicas.push(device);
        self.roles.push(role);
        self.standby.push(true);
        self
    }

    /// Adds `n` standby [`Role::Unified`] replicas of the same `device`.
    #[must_use]
    pub fn standby_replicas(mut self, n: usize, device: &DeviceSpec) -> Self {
        for _ in 0..n {
            self = self.standby_replica_with_role(device.clone(), Role::Unified);
        }
        self
    }

    /// Adds `n` standby [`Role::Decode`] replicas of the same `device` —
    /// the auto-scaling pool of a disaggregated fleet.
    #[must_use]
    pub fn standby_decode_replicas(mut self, n: usize, device: &DeviceSpec) -> Self {
        for _ in 0..n {
            self = self.standby_replica_with_role(device.clone(), Role::Decode);
        }
        self
    }

    /// Adds `n` dedicated prefill replicas of the same `device`. A fleet
    /// with any [`Role::Prefill`] replica is *disaggregated*: finished
    /// prefills stream their KV over the [`link`](Self::link) to the
    /// decode-capable subset, so the builder requires at least one
    /// [`Role::Decode`] or [`Role::Unified`] replica.
    ///
    /// ```
    /// use resoftmax_serve::{FleetBuilder, LinkSpec, ServeConfig};
    /// use resoftmax_gpusim::DeviceSpec;
    /// use resoftmax_model::{ModelConfig, RunParams};
    ///
    /// let report = FleetBuilder::new()
    ///     .model(ModelConfig::gpt_neo_1_3b())
    ///     .params(RunParams::new(4096))
    ///     .prefill_replicas(1, &DeviceSpec::a100())
    ///     .decode_replicas(2, &DeviceSpec::a100())
    ///     .link(LinkSpec::nvlink())
    ///     .workload(ServeConfig {
    ///         requests: 6,
    ///         ..ServeConfig::default()
    ///     })
    ///     .build()?
    ///     .run()?;
    /// assert_eq!(report.completed, 6);
    /// assert_eq!(report.handoffs, 6);
    /// assert!(report.kv_handoff_bytes > 0);
    /// # Ok::<(), resoftmax_serve::Error>(())
    /// ```
    #[must_use]
    pub fn prefill_replicas(mut self, n: usize, device: &DeviceSpec) -> Self {
        for _ in 0..n {
            self = self.replica_with_role(device.clone(), Role::Prefill);
        }
        self
    }

    /// Adds `n` dedicated decode replicas of the same `device`: they take no
    /// fresh arrivals and receive handed-off KV from the prefill side.
    #[must_use]
    pub fn decode_replicas(mut self, n: usize, device: &DeviceSpec) -> Self {
        for _ in 0..n {
            self = self.replica_with_role(device.clone(), Role::Decode);
        }
        self
    }

    /// Sets the routing policy (default: [`RouterPolicy::RoundRobin`]).
    #[must_use]
    pub fn router(mut self, policy: RouterPolicy) -> Self {
        self.router = Some(policy);
        self
    }

    /// Sets the interconnect KV migrations travel over (default:
    /// [`LinkSpec::pcie_gen4`]).
    #[must_use]
    pub fn link(mut self, link: LinkSpec) -> Self {
        self.link = Some(link);
        self
    }

    /// Sets the workload: arrival process, request shape distribution,
    /// per-replica batch/KV limits, and admission policy (required).
    #[must_use]
    pub fn workload(mut self, cfg: ServeConfig) -> Self {
        self.workload = Some(cfg);
        self
    }

    /// Overrides the workload's Poisson arrival process with an explicit
    /// trace — e.g. [`phased_arrivals`](crate::phased_arrivals) for the
    /// square-wave / diurnal / overload shapes the control plane is
    /// exercised under. The trace must match the workload: exactly
    /// `cfg.requests` entries, sorted by arrival time, with prompt/decode
    /// lengths inside `cfg`'s ranges (the build-time KV capacity and
    /// numerics checks are derived from those ranges).
    #[must_use]
    pub fn arrivals(mut self, trace: Vec<Arrival>) -> Self {
        self.arrivals = Some(trace);
        self
    }

    /// Attaches a feedback control plane
    /// ([`ControlPlane`](crate::ControlPlane)): the run gains a fifth event
    /// source that samples fleet signals on the simulated clock and applies
    /// the controller's actions (policy/chunk switches, admission control,
    /// standby scaling). Decisions land in the report's
    /// [`decisions`](crate::FleetReport::decisions) log.
    #[must_use]
    pub fn control_plane(mut self, control: &'a dyn ControlPlane) -> Self {
        self.control = Some(control);
        self
    }

    /// Attaches a per-iteration planner (e.g. `resoftmax-tune`'s
    /// `TunedPlanner`) to the next replica in declaration order. Either
    /// attach none (every replica prices with the base parameters) or
    /// exactly one per replica.
    #[must_use]
    pub fn planner(mut self, planner: &'a dyn IterationPlanner) -> Self {
        self.planners.push(planner);
        self
    }

    /// Schedules an abrupt replica failure at `at_s` (simulated seconds):
    /// its KV is lost and residents re-route.
    #[must_use]
    pub fn fail_at(mut self, replica: usize, at_s: f64) -> Self {
        self.events.push(FleetEvent::Fail { replica, at_s });
        self
    }

    /// Schedules a graceful drain at `at_s`: the replica leaves rotation
    /// and its residents migrate over the link.
    #[must_use]
    pub fn drain_at(mut self, replica: usize, at_s: f64) -> Self {
        self.events.push(FleetEvent::Drain { replica, at_s });
        self
    }

    /// Validates the whole configuration and builds the [`Fleet`].
    ///
    /// # Errors
    ///
    /// [`Error::Config`] for structural problems (no replicas, invalid
    /// device/link/workload parameters, a disaggregated fleet with zero
    /// decode-capable or zero prefill-capable replicas, fault events leaving
    /// either capability without a survivor, planner count mismatched
    /// against the declared roles), [`Error::Admission`] when a replica's
    /// KV pool cannot hold one worst-case request end-to-end, and the
    /// analyzer-gate errors `Session` would raise for the `(model, params)`
    /// pair (decode legality, certified numerics budget).
    pub fn build(self) -> Result<Fleet<'a>, Error> {
        let config = |reason: String| Err(Error::Config { reason });
        let Some(model) = self.model else {
            return config("a model is required: FleetBuilder::new().model(..)".to_owned());
        };
        let Some(params) = self.params else {
            return config(
                "run parameters are required: FleetBuilder::new().params(..)".to_owned(),
            );
        };
        let Some(cfg) = self.workload else {
            return config("a workload is required: FleetBuilder::new().workload(..)".to_owned());
        };
        if self.replicas.is_empty() {
            return config(
                "a fleet needs at least one replica: .replica(DeviceSpec::a100())".to_owned(),
            );
        }
        debug_assert_eq!(self.roles.len(), self.replicas.len());
        debug_assert_eq!(self.standby.len(), self.replicas.len());
        let n_prefill = self.roles.iter().filter(|r| **r == Role::Prefill).count();
        let n_decode = self.roles.iter().filter(|r| **r == Role::Decode).count();
        let n_unified = self.replicas.len() - n_prefill - n_decode;
        // Capability checks count only replicas that start in rotation: a
        // standby replica cannot take work until a control plane scales it
        // up, which the run cannot rely on happening.
        let starting = |capable: fn(Role) -> bool| {
            self.roles
                .iter()
                .zip(&self.standby)
                .any(|(&r, &sb)| !sb && capable(r))
        };
        if !starting(Role::prefill_capable) {
            return config(format!(
                "every replica is decode-only or standby ({n_decode} decode replicas): \
                 arrivals need at least one active prefill-capable (Prefill or \
                 Unified) replica"
            ));
        }
        if n_prefill > 0 && !starting(Role::decode_capable) {
            return config(format!(
                "disaggregated fleet has {n_prefill} prefill replicas but zero decode \
                 replicas in rotation: finished prefills would have nowhere to hand \
                 their KV off to — add .decode_replicas(..) or a Unified replica"
            ));
        }
        if !self.planners.is_empty() && self.planners.len() != self.replicas.len() {
            return config(format!(
                "attach either no planners or exactly one per replica, in declaration \
                 order across every role ({} planners for {} replicas: {n_prefill} \
                 prefill + {n_decode} decode + {n_unified} unified)",
                self.planners.len(),
                self.replicas.len()
            ));
        }
        for (i, d) in self.replicas.iter().enumerate() {
            if let Err(e) = d.validate() {
                return config(format!("replica {i} device invalid: {e}"));
            }
        }
        let link = self.link.unwrap_or_default();
        if let Err(e) = link.validate() {
            return config(format!("interconnect invalid: {e}"));
        }

        // Workload sanity — everything `poisson_arrivals` would panic on,
        // plus the metric-shape requirements.
        if let Err(reason) = cfg.validate() {
            return config(reason);
        }

        // An explicit arrival trace must match the workload config: the
        // build-time KV-capacity and certified-numerics checks below are
        // derived from `cfg`'s token ranges, so a trace outside them would
        // dodge the very guarantees this builder exists to give.
        if let Some(trace) = &self.arrivals {
            if trace.len() != cfg.requests {
                return config(format!(
                    "explicit arrival trace has {} entries but the workload declares \
                     {} requests",
                    trace.len(),
                    cfg.requests
                ));
            }
            for (k, a) in trace.iter().enumerate() {
                if !(a.at_s.is_finite() && a.at_s >= 0.0) {
                    return config(format!(
                        "arrival {k} has invalid time {}: must be non-negative and \
                         finite",
                        a.at_s
                    ));
                }
                if !(cfg.prompt_tokens.0..=cfg.prompt_tokens.1).contains(&a.prompt) {
                    return config(format!(
                        "arrival {k} prompt length {} is outside the workload range \
                         {:?}",
                        a.prompt, cfg.prompt_tokens
                    ));
                }
                if !(cfg.decode_tokens.0..=cfg.decode_tokens.1).contains(&a.decode) {
                    return config(format!(
                        "arrival {k} decode length {} is outside the workload range \
                         {:?}",
                        a.decode, cfg.decode_tokens
                    ));
                }
            }
            if !trace.windows(2).all(|w| w[0].at_s <= w[1].at_s) {
                return config("explicit arrival trace must be sorted by arrival time".to_owned());
            }
        }

        // Fault events must point at real replicas and leave at least one
        // replica with no scripted fault (otherwise the run provably cannot
        // finish and the failure should surface now, typed).
        for ev in &self.events {
            if ev.replica() >= self.replicas.len() {
                return config(format!(
                    "fault event targets replica {} but the fleet has {}",
                    ev.replica(),
                    self.replicas.len()
                ));
            }
            if !(ev.at_s().is_finite() && ev.at_s() >= 0.0) {
                return config(format!(
                    "fault event time {} must be non-negative",
                    ev.at_s()
                ));
            }
        }
        let faulted: std::collections::BTreeSet<usize> =
            self.events.iter().map(FleetEvent::replica).collect();
        if faulted.len() == self.replicas.len() {
            return config(
                "every replica has a scripted fault; at least one must survive to \
                 finish the workload"
                    .to_owned(),
            );
        }
        // In a disaggregated fleet the survivors must cover both phases:
        // a fleet whose every prefill-capable (or decode-capable) replica is
        // scripted to fault provably strands work mid-pipeline. Standby
        // replicas do not count as survivors — nothing guarantees they ever
        // enter rotation.
        let survives = |capable: fn(Role) -> bool| {
            self.roles
                .iter()
                .enumerate()
                .any(|(i, &r)| capable(r) && !faulted.contains(&i) && !self.standby[i])
        };
        if !survives(Role::prefill_capable) {
            return config(
                "every prefill-capable replica has a scripted fault; at least one \
                 must survive to admit arrivals"
                    .to_owned(),
            );
        }
        if !survives(Role::decode_capable) {
            return config(
                "every decode-capable replica has a scripted fault; at least one \
                 must survive to decode handed-off requests"
                    .to_owned(),
            );
        }

        // The same gates `Session` applies: build-time validation of the
        // (model, params) pair per distinct device, decode legality, and the
        // certified-numerics budget at the worst decode context the workload
        // can reach.
        let mut seen: Vec<&str> = Vec::new();
        for d in &self.replicas {
            if seen.contains(&d.name.as_str()) {
                continue;
            }
            seen.push(&d.name);
            resoftmax_model::Session::builder()
                .model(model.clone())
                .device(d.clone())
                .params(params.clone())
                .build()?;
        }
        if !matches!(model.attention, AttentionKind::Dense { .. }) {
            return config(format!(
                "serving covers dense attention only; model '{}' is sparse",
                model.name
            ));
        }
        if params.strategy == SoftmaxStrategy::OnlineFused {
            return config(
                "decode attention is a single row; online fusion is the GEMV itself".to_owned(),
            );
        }
        let worst_ctx = cfg.prompt_tokens.1 + cfg.decode_tokens.1;
        if let Some(bound) = decode_error_bound(&[worst_ctx], &params) {
            if !bound.certifies(resoftmax_analyzer::CERT_BUDGET_REL) {
                return config(format!(
                    "strategy {} at T={} over the workload's worst decode context {} \
                     has certified relative error bound {:.3e}, exceeding the {:.1e} \
                     budget; use a narrower tile or an fp32-accumulation strategy",
                    params.strategy.label(),
                    params.tile.n,
                    bound.ctx,
                    bound.rel,
                    resoftmax_analyzer::CERT_BUDGET_REL,
                ));
            }
        }

        // Per-replica KV capacity: the weights must fit, and the remainder
        // must hold one worst-case request end-to-end (otherwise the oldest
        // request could stall forever — the old engine's panic, now typed).
        let bytes_per_token = kv_bytes_per_token(&model);
        let weights = weight_bytes(&model);
        let mut pool_caps = Vec::with_capacity(self.replicas.len());
        for (i, d) in self.replicas.iter().enumerate() {
            let capacity = if let Some(b) = cfg.kv_capacity_bytes {
                b
            } else {
                if weights >= d.hbm_bytes() {
                    return Err(Error::Admission {
                        reason: format!(
                            "replica {i} ({}): model '{}' weights ({weights} B) \
                             exceed device HBM ({} B)",
                            d.name,
                            model.name,
                            d.hbm_bytes()
                        ),
                    });
                }
                d.hbm_bytes() - weights
            };
            let block_bytes = cfg.kv_block_tokens as u64 * bytes_per_token;
            let total_blocks = capacity / block_bytes;
            let need = (worst_ctx as u64).div_ceil(cfg.kv_block_tokens as u64);
            if total_blocks < need {
                return Err(Error::Admission {
                    reason: format!(
                        "replica {i} ({}): KV pool ({total_blocks} blocks) cannot hold \
                         one worst-case request ({worst_ctx} tokens = {need} blocks); \
                         the oldest request could stall forever — raise \
                         kv_capacity_bytes or shrink the workload",
                        d.name
                    ),
                });
            }
            pool_caps.push(capacity);
        }

        Ok(Fleet {
            model,
            params,
            cfg,
            devices: self.replicas,
            roles: self.roles,
            standby: self.standby,
            pool_caps,
            router: self.router.unwrap_or(RouterPolicy::RoundRobin),
            link,
            arrivals: self.arrivals,
            events: {
                let mut evs = self.events;
                // Stable by construction: sort_by is stable, so same-time
                // events keep declaration order.
                evs.sort_by(|a, b| a.at_s().total_cmp(&b.at_s()));
                evs
            },
            planners: self.planners,
            control: self.control,
        })
    }
}

impl std::fmt::Debug for Fleet<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("model", &self.model.name)
            .field("replicas", &self.devices.len())
            .field("router", &self.router.name())
            .field("link", &self.link.name)
            .field("events", &self.events)
            .field("planners", &self.planners.len())
            .field("standby", &self.standby.iter().filter(|&&s| s).count())
            .field("control", &self.control.is_some())
            .finish_non_exhaustive()
    }
}

/// A validated, ready-to-run fleet. Construct through [`FleetBuilder`];
/// every [`run`](Fleet::run) starts from identical state, so reruns are
/// bit-identical.
pub struct Fleet<'a> {
    model: ModelConfig,
    params: RunParams,
    cfg: ServeConfig,
    devices: Vec<DeviceSpec>,
    roles: Vec<Role>,
    standby: Vec<bool>,
    pool_caps: Vec<u64>,
    router: RouterPolicy,
    link: LinkSpec,
    arrivals: Option<Vec<Arrival>>,
    events: Vec<FleetEvent>,
    planners: Vec<&'a dyn IterationPlanner>,
    control: Option<&'a dyn ControlPlane>,
}

/// What the fleet does next; [`Run::next_event`] orders same-time events.
#[derive(Clone, Copy)]
enum Action {
    /// The next scripted fault.
    Fault,
    /// The next workload arrival.
    Arrival,
    /// Index into the pending-handoff queue.
    Handoff(usize),
    /// Index into the pending scale-up activation queue.
    Activate(usize),
    /// A control-plane decision fires.
    Decide,
    /// Replica id.
    Step(usize),
}

/// A prefill→decode KV transfer in flight over the link.
#[derive(Debug, Clone, Copy)]
struct Handoff {
    /// Request id.
    id: usize,
    /// Simulated time the last KV page lands on the decode side.
    at_s: f64,
}

/// Which subset of the fleet a piece of work routes over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Fresh arrivals and displaced requests that still owe prefill work:
    /// the prefill-capable subset.
    Prefill,
    /// Handed-off or displaced requests whose cache is decode-ready: the
    /// decode-capable subset.
    Decode,
}

/// The routing phase of a displaced request: decode-ready caches go to the
/// decode side, everything owing prefill work goes to the prefill side.
fn phase_of(st: &ReqState) -> Phase {
    if st.generated > 0 && st.cached == st.prefill_target() {
        Phase::Decode
    } else {
        Phase::Prefill
    }
}

/// One router instance per routing phase, built from the same policy. The
/// *state* is per-phase on purpose: a stateful policy (round-robin's cursor)
/// cycling the prefill subset must not perturb the decode subset's rotation
/// — with a shared cursor, alternating arrival/handoff traffic in a
/// disaggregated fleet would pin each subset to one replica.
struct Routers {
    prefill: Box<dyn Router>,
    decode: Box<dyn Router>,
}

impl Routers {
    fn new(policy: RouterPolicy) -> Self {
        Routers {
            prefill: policy.build(),
            decode: policy.build(),
        }
    }

    fn route(&mut self, phase: Phase, session: u64, views: &[ReplicaView]) -> usize {
        match phase {
            Phase::Prefill => self.prefill.route(session, views),
            Phase::Decode => self.decode.route(session, views),
        }
    }
}

/// Control-plane state of one run; inert when no plane is attached.
#[derive(Default)]
struct Control {
    /// Simulated time of the next decision; `None` while the plane is idle.
    next_s: Option<f64>,
    /// TTFT and TBT signal windows (present with a plane attached).
    windows: Option<(SlidingWindow, SlidingWindow)>,
    /// Armed token-bucket admission control.
    admission: Option<TokenBucket>,
    decisions: Vec<ControlRecord>,
}

/// The fleet-level counters the report carries besides the per-replica ones.
#[derive(Default)]
struct Tally {
    migrations: usize,
    migration_drops: usize,
    kv_migrated_bytes: u64,
    migration_time_s: f64,
    kv_handoff_bytes: u64,
    kv_handoff_time_s: f64,
    scale_ups: usize,
    scale_downs: usize,
}

/// Everything one [`Fleet::run`] mutates. [`next_event`](Run::next_event)
/// picks what happens next and each [`Action`] has one handler.
struct Run<'f, 'a> {
    fleet: &'f Fleet<'a>,
    /// The workload config iterations run under: a working copy whose
    /// policy and prefill chunk the control plane actuates.
    cfg: ServeConfig,
    arrivals: Vec<Arrival>,
    next_arrival: usize,
    next_fault: usize,
    states: Vec<ReqState>,
    replicas: Vec<Replica>,
    routers: Routers,
    acc: StepAcc,
    /// KV handoffs in flight, in enqueue order.
    handoffs: Vec<Handoff>,
    /// Scale-ups warming toward activation: (replica, activation time), in
    /// enqueue order.
    activations: Vec<(usize, f64)>,
    control: Control,
    tally: Tally,
    /// Steps plus decisions so far, against `cfg.max_iterations`.
    iterations: usize,
    bytes_per_token: u64,
    /// Wall-clock anchor of the per-replica trace streams, when tracing.
    trace_anchor_us: Option<f64>,
}

impl Fleet<'_> {
    /// Number of replicas.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// `true` for a zero-replica fleet (never: the builder rejects it).
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// The validated workload.
    pub fn workload(&self) -> &ServeConfig {
        &self.cfg
    }

    fn planner(&self, replica: usize) -> &dyn IterationPlanner {
        if self.planners.is_empty() {
            &BASELINE
        } else {
            self.planners[replica]
        }
    }

    /// Runs the fleet simulation to completion and aggregates the report.
    ///
    /// Deterministic in the builder inputs: the clock is simulated GPU and
    /// interconnect time, so the report is bit-identical regardless of host
    /// threading, and identical across reruns of the same `Fleet`.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] when fault events leave work outstanding with no
    /// accepting replica, when the control plane misbehaves, when the run
    /// exceeds `cfg.max_iterations` steps plus decisions, or when work
    /// remains with no event left to make progress; [`Error::Model`] /
    /// [`Error::Analysis`] when an iteration's schedule fails to launch or
    /// analyze.
    pub fn run(&self) -> Result<FleetReport, Error> {
        let mut run = Run::new(self)?;
        while run.acc.completed < self.cfg.requests {
            let limit = self.cfg.max_iterations;
            if run.iterations >= limit {
                return Err(run.halted(format_args!("exceeded {limit} iterations")));
            }
            let Some((when, action)) = run.next_event() else {
                return Err(run.halted(format_args!("has no pending event")));
            };
            match action {
                Action::Fault => run.fault()?,
                Action::Arrival => run.arrival(when)?,
                Action::Handoff(k) => run.handoff(k, when)?,
                Action::Activate(k) => run.activate(k),
                Action::Decide => run.decide(when)?,
                Action::Step(i) => run.step(i, when)?,
            }
        }
        Ok(run.report())
    }
}

impl<'f, 'a> Run<'f, 'a> {
    fn new(fleet: &'f Fleet<'a>) -> Result<Self, Error> {
        let cfg = &fleet.cfg;
        let arrivals = match &fleet.arrivals {
            Some(trace) => trace.clone(),
            None => poisson_arrivals(cfg),
        };
        let sessions = if cfg.sessions == 0 {
            arrivals.len() as u64
        } else {
            cfg.sessions as u64
        };
        let states = arrivals
            .iter()
            .enumerate()
            .map(|(id, a)| ReqState {
                arrival_s: a.at_s,
                session: id as u64 % sessions,
                prompt: a.prompt,
                decode: a.decode,
                generated: 0,
                cached: 0,
                blocks: 0,
                ready_s: a.at_s,
                first_token_s: None,
                last_token_s: a.at_s,
            })
            .collect();
        let trace = resoftmax_obs::trace_enabled();
        let trace_anchor_us = Some(resoftmax_obs::recorder().now_us()).filter(|_| trace);
        let bytes_per_token = kv_bytes_per_token(&fleet.model);
        let replicas = fleet
            .devices
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let pool = KvPool::new(fleet.pool_caps[i], cfg.kv_block_tokens, bytes_per_token);
                let mut r = Replica::new(i, d.clone(), fleet.roles[i], pool);
                if fleet.standby[i] {
                    r.standby = true;
                    r.accepting = false;
                }
                if trace {
                    r.timeline = Some(Timeline::new());
                }
                r
            })
            .collect();
        // `begin` resets the controller so reruns of the same `Fleet` stay
        // bit-identical.
        let mut control = Control::default();
        if let Some(plane) = fleet.control {
            let init = plane.begin(cfg);
            if !(init.window_s > 0.0 && init.window_s.is_finite()) {
                return Err(Error::Config {
                    reason: format!(
                        "control plane requested signal window {}: must be positive \
                         and finite",
                        init.window_s
                    ),
                });
            }
            control.next_s = Some(init.first_decision_s).filter(|t| t.is_finite());
            control.windows = Some((
                SlidingWindow::new(init.window_s, SIGNAL_WINDOW_CAP),
                SlidingWindow::new(init.window_s, SIGNAL_WINDOW_CAP),
            ));
        }
        Ok(Run {
            fleet,
            cfg: cfg.clone(),
            arrivals,
            next_arrival: 0,
            next_fault: 0,
            states,
            replicas,
            routers: Routers::new(fleet.router),
            acc: StepAcc::default(),
            handoffs: Vec::new(),
            activations: Vec::new(),
            control,
            tally: Tally::default(),
            iterations: 0,
            bytes_per_token,
            trace_anchor_us,
        })
    }

    /// The earliest pending event. Same-time events resolve on the key
    /// (time, source rank, index), times compared exactly:
    ///
    /// | rank | source   | index                |
    /// |------|----------|----------------------|
    /// | 0    | fault    | —                    |
    /// | 1    | arrival  | —                    |
    /// | 2    | handoff  | enqueue position     |
    /// | 3    | activate | enqueue position     |
    /// | 4    | decide   | —                    |
    /// | 5    | step     | replica id           |
    ///
    /// A source with nothing pending offers no candidate, so `None` means
    /// the run cannot make progress.
    fn next_event(&self) -> Option<(f64, Action)> {
        let fault = self.fleet.events.get(self.next_fault);
        let arrival = self.arrivals.get(self.next_arrival);
        let handoffs = self.handoffs.iter().enumerate();
        let activations = self.activations.iter().enumerate();
        let steps = self.replicas.iter().enumerate();
        fault
            .map(|ev| (ev.at_s(), 0, 0, Action::Fault))
            .into_iter()
            .chain(arrival.map(|a| (a.at_s, 1, 0, Action::Arrival)))
            .chain(handoffs.map(|(k, h)| (h.at_s, 2, k, Action::Handoff(k))))
            .chain(activations.map(|(k, &(_, t))| (t, 3, k, Action::Activate(k))))
            .chain(self.control.next_s.map(|t| (t, 4, 0, Action::Decide)))
            .chain(steps.filter_map(|(i, r)| {
                let t = r.next_time(&self.states)?;
                Some((t, 5, i, Action::Step(i)))
            }))
            .reduce(|best, c| {
                if (c.0, c.1, c.2) < (best.0, best.1, best.2) {
                    c
                } else {
                    best
                }
            })
            .map(|(t, _, _, action)| (t, action))
    }

    /// The error for a run that must stop with work outstanding.
    fn halted(&self, what: std::fmt::Arguments) -> Error {
        Error::Config {
            reason: format!(
                "fleet loop {what} with {}/{} requests done",
                self.acc.completed, self.fleet.cfg.requests
            ),
        }
    }

    /// Applies the next scripted fault at its simulated time.
    fn fault(&mut self) -> Result<(), Error> {
        let ev = self.fleet.events[self.next_fault];
        self.next_fault += 1;
        let r = &mut self.replicas[ev.replica()];
        r.accepting = false;
        match ev {
            FleetEvent::Drain { .. } => r.drained = true,
            FleetEvent::Fail { .. } => r.failed = true,
        }
        let what = if r.failed { "failed" } else { "drained" };
        self.displace_all(ev.replica(), ev.at_s(), what)
    }

    /// Routes the next arrival over the prefill-capable replicas.
    fn arrival(&mut self, when: f64) -> Result<(), Error> {
        let id = self.next_arrival;
        self.next_arrival += 1;
        let views = accepting_views(&self.replicas, &self.states, usize::MAX, Phase::Prefill);
        if views.is_empty() {
            return Err(Error::Config {
                reason: format!(
                    "request {id} arrived at {when:.3}s with every prefill-capable \
                     replica drained or failed"
                ),
            });
        }
        let dest = self
            .routers
            .route(Phase::Prefill, self.states[id].session, &views);
        self.replicas[dest].waiting.push(id);
        // Token-bucket admission control (when armed): the arrival pays its
        // prompt tokens; past the burst its ready time is pushed to when the
        // refill covers it.
        if let Some(bucket) = &mut self.control.admission {
            let admit_at = bucket.admit(when, self.states[id].prompt as f64);
            if admit_at > when {
                let st = &mut self.states[id];
                st.ready_s = st.ready_s.max(admit_at);
                resoftmax_obs::counter("ctrl.admission_delays").incr();
            }
        }
        Ok(())
    }

    /// Lands handoff `k`: the request joins a decode-capable replica with
    /// its cache intact.
    fn handoff(&mut self, k: usize, when: f64) -> Result<(), Error> {
        // `remove` (not `swap_remove`) keeps enqueue order for the remaining
        // transfers, so same-time ties stay deterministic.
        let Handoff { id, at_s } = self.handoffs.remove(k);
        let views = accepting_views(&self.replicas, &self.states, usize::MAX, Phase::Decode);
        if views.is_empty() {
            return Err(Error::Config {
                reason: format!(
                    "request {id} finished its KV handoff at {when:.3}s with every \
                     decode-capable replica drained or failed"
                ),
            });
        }
        let dest = self
            .routers
            .route(Phase::Decode, self.states[id].session, &views);
        // Reserve the landed pages up front when the pool has room;
        // otherwise the request queues with no reservation and admission
        // allocates (possibly reclaiming parked reservations) later — the
        // cache itself is preserved either way, so decode proceeds without
        // re-prefill.
        let r = &mut self.replicas[dest];
        let need = r.pool.blocks_for(self.states[id].cached);
        if r.pool.try_alloc(need) {
            self.states[id].blocks = need;
        }
        self.states[id].ready_s = at_s;
        r.waiting.push(id);
        r.note_handoff_in();
        Ok(())
    }

    /// Lands scale-up `k`: the warmed replica enters rotation.
    fn activate(&mut self, k: usize) {
        // `remove` (not `swap_remove`) keeps enqueue order for the remaining
        // warm-ups.
        let (i, at_s) = self.activations.remove(k);
        let r = &mut self.replicas[i];
        r.warming = false;
        // A fault that landed mid-warm-up wins: the weight transfer is
        // discarded and the replica stays out.
        if !r.failed && !r.drained {
            r.standby = false;
            r.accepting = true;
            r.clock_s = r.clock_s.max(at_s);
            self.tally.scale_ups += 1;
            resoftmax_obs::counter("ctrl.scale_ups").incr();
        }
    }

    /// Asks the control plane for a decision, applies it, and logs it.
    fn decide(&mut self, when: f64) -> Result<(), Error> {
        // `next_event` schedules decisions only with a plane attached.
        let Some(plane) = self.fleet.control else {
            return Ok(());
        };
        let replicas = &self.replicas;
        let active = replicas.iter().filter(|r| r.accepting).count();
        let kv_occupancy = if active > 0 {
            replicas
                .iter()
                .filter(|r| r.accepting)
                .map(|r| r.pool.occupancy())
                .sum::<f64>()
                / active as f64
        } else {
            0.0
        };
        let (ttft, tbt) = match &self.control.windows {
            Some((tw, bw)) => (tw.stats(when), bw.stats(when)),
            None => (None, None),
        };
        let signals = FleetSignals {
            now_s: when,
            arrived: self.next_arrival,
            completed: self.acc.completed,
            queue_depth: replicas.iter().map(|r| r.waiting.len()).sum(),
            handoff_backlog: self.handoffs.len(),
            max_batch: self.cfg.max_batch,
            ttft,
            tbt,
            replicas: replicas
                .iter()
                .map(|r| ReplicaSignal {
                    id: r.id,
                    role: r.role,
                    accepting: r.accepting,
                    standby: r.standby,
                    warming: r.warming,
                    queue_len: r.waiting.len(),
                    running: r.running.len(),
                    kv_occupancy: r.pool.occupancy(),
                })
                .collect(),
        };
        let decision = plane.decide(&signals);
        let mut applied = Vec::with_capacity(decision.actions.len());
        for action in &decision.actions {
            applied.push(self.apply(action, when)?);
        }
        self.control.decisions.push(ControlRecord {
            seq: self.control.decisions.len(),
            at_s: when,
            regime: decision.regime,
            actions: decision.actions,
            applied,
            queue_depth: signals.queue_depth,
            active_replicas: active,
            kv_occupancy,
            handoff_backlog: signals.handoff_backlog,
            ttft,
            tbt,
        });
        if decision.next_s.is_finite() && decision.next_s <= when {
            return Err(Error::Config {
                reason: format!(
                    "control plane scheduled its next decision at {} from {when}: must \
                     be strictly later",
                    decision.next_s
                ),
            });
        }
        self.control.next_s = Some(decision.next_s).filter(|t| t.is_finite());
        // Decisions count against the iteration backstop so a controller
        // that stalls the fleet still trips it.
        self.iterations += 1;
        Ok(())
    }

    /// Applies one control action if it is valid now; returns whether it
    /// applied.
    fn apply(&mut self, action: &ControlAction, when: f64) -> Result<bool, Error> {
        Ok(match *action {
            ControlAction::SetPolicy(p) => {
                self.cfg.policy = p;
                true
            }
            ControlAction::SetPrefillChunk(c) => {
                if c > 0 {
                    self.cfg.prefill_chunk = c;
                }
                c > 0
            }
            ControlAction::SetAdmission {
                tokens_per_s,
                burst_tokens,
            } => {
                let valid = tokens_per_s > 0.0
                    && tokens_per_s.is_finite()
                    && burst_tokens > 0.0
                    && burst_tokens.is_finite();
                if valid {
                    self.control.admission =
                        Some(TokenBucket::new(tokens_per_s, burst_tokens, when));
                }
                valid
            }
            ControlAction::ClearAdmission => self.control.admission.take().is_some(),
            ControlAction::ScaleUp { replica: i } => {
                let valid = self
                    .replicas
                    .get(i)
                    .is_some_and(|r| r.standby && !r.warming && !r.failed && !r.drained);
                if valid {
                    self.replicas[i].warming = true;
                    // Warm-up is the model weights streaming over the link;
                    // the replica activates when the transfer lands.
                    let warm = self
                        .fleet
                        .link
                        .transfer_time_s(weight_bytes(&self.fleet.model));
                    self.activations.push((i, when + warm));
                }
                valid
            }
            ControlAction::ScaleDown { replica: i } => {
                let survives = |capable: fn(Role) -> bool| {
                    self.replicas
                        .iter()
                        .any(|o| o.accepting && o.id != i && capable(o.role))
                };
                let valid = self.replicas.get(i).is_some_and(|r| r.accepting)
                    && survives(Role::prefill_capable)
                    && survives(Role::decode_capable);
                if valid {
                    self.replicas[i].accepting = false;
                    self.replicas[i].standby = true;
                    self.displace_all(i, when, "scaled down")?;
                    self.tally.scale_downs += 1;
                    resoftmax_obs::counter("ctrl.scale_downs").incr();
                }
                valid
            }
        })
    }

    /// Runs one engine iteration on replica `i`, then feeds the control
    /// plane's signal windows and re-routes what the step released.
    fn step(&mut self, i: usize, when: f64) -> Result<(), Error> {
        let fleet = self.fleet;
        let (nt, nb) = (self.acc.ttft.len(), self.acc.tbt.len());
        let planner = fleet.planner(i);
        let schedule = |ctxs: &[usize]| {
            build_batched_decode_schedule(&fleet.model, ctxs, &planner.plan(ctxs, &fleet.params))
        };
        let r = &mut self.replicas[i];
        r.clock_s = when;
        let outcome = r.step(&mut self.states, &self.cfg, &schedule, &mut self.acc)?;
        self.iterations += 1;
        let now_s = r.clock_s;
        // Fresh latency samples are stamped at the replica's post-step clock.
        if let Some((tw, bw)) = &mut self.control.windows {
            for &v in &self.acc.ttft[nt..] {
                tw.push(now_s, v);
            }
            for &v in &self.acc.tbt[nb..] {
                bw.push(now_s, v);
            }
        }
        for victim in outcome.evicted {
            self.place_displaced(victim, i, now_s);
        }
        for id in outcome.handoffs {
            // Price the finished prefill's KV pages across the link; the
            // request re-enters the fleet when the transfer lands.
            let bytes = self.states[id].cached as u64 * self.bytes_per_token;
            let transfer = fleet.link.transfer_time_s(bytes);
            self.tally.kv_handoff_bytes += bytes;
            self.tally.kv_handoff_time_s += transfer;
            self.handoffs.push(Handoff {
                id,
                at_s: now_s + transfer,
            });
        }
        Ok(())
    }

    /// Displaces every request resident on replica `i` after it left
    /// rotation (fault, drain, or control-plane scale-down). Running
    /// requests go first, then the waiting queue, so seniority is preserved
    /// at the destinations; `what` labels the no-survivor error.
    fn displace_all(&mut self, i: usize, at_s: f64, what: &str) -> Result<(), Error> {
        // The replica finishes its in-flight iteration first (clock_s is its
        // busy-until time): displacement happens at the later of the two.
        let r = &mut self.replicas[i];
        let now_s = at_s.max(r.clock_s);
        let displaced: Vec<usize> = std::mem::take(&mut r.running)
            .into_iter()
            .chain(std::mem::take(&mut r.waiting))
            .collect();
        if displaced.is_empty() {
            return Ok(());
        }
        if !self.replicas.iter().any(|r| r.accepting) {
            return Err(Error::Config {
                reason: format!(
                    "replica {i} {what} at {at_s:.3}s with {} requests resident and no \
                     accepting replica left",
                    displaced.len()
                ),
            });
        }
        for id in displaced {
            self.replicas[i].release(&mut self.states, id);
            if self.replicas[i].failed {
                // The pool died with the replica: the cache is gone before
                // any migration question arises.
                self.states[id].cached = 0;
            }
            self.place_displaced(id, i, now_s);
        }
        Ok(())
    }

    /// Re-homes a request displaced from `source` (eviction overflow, drain,
    /// failure). Its KV migrates over the link when it has resident cache
    /// and a sibling has pool room; otherwise the cache is dropped and the
    /// request re-prefills at its destination.
    fn place_displaced(&mut self, id: usize, source: usize, now_s: f64) {
        debug_assert_eq!(
            self.states[id].blocks, 0,
            "displaced requests hold no blocks"
        );
        let had_cache = self.states[id].cached > 0;
        if had_cache {
            // Migrate toward the subset that can run the request's next
            // phase: a decode-ready cache goes to the decode side, a partial
            // prefill back to the prefill side.
            let phase = phase_of(&self.states[id]);
            let views = accepting_views(&self.replicas, &self.states, source, phase);
            if !views.is_empty() {
                let st = &mut self.states[id];
                let dest = self.routers.route(phase, st.session, &views);
                let need = self.replicas[dest].pool.blocks_for(st.cached);
                if self.replicas[dest].pool.try_alloc(need) {
                    let bytes = st.cached as u64 * self.bytes_per_token;
                    let transfer = self.fleet.link.transfer_time_s(bytes);
                    st.blocks = need;
                    st.ready_s = st.ready_s.max(now_s) + transfer;
                    self.replicas[dest].waiting.push(id);
                    self.replicas[source].note_migration_out();
                    self.replicas[dest].note_migration_in();
                    resoftmax_obs::counter("serve.migrations").incr();
                    self.tally.migrations += 1;
                    self.tally.kv_migrated_bytes += bytes;
                    self.tally.migration_time_s += transfer;
                    return;
                }
            }
        }
        // No migration path: the cache is dropped and the request re-queues
        // wherever the router sends it (the source included, if accepting).
        // With no cache left it owes prefill work, so it routes over the
        // prefill-capable subset.
        let st = &mut self.states[id];
        st.cached = 0;
        st.ready_s = st.ready_s.max(now_s);
        if had_cache {
            self.tally.migration_drops += 1;
            resoftmax_obs::counter("serve.migration_drops").incr();
        }
        let views = accepting_views(&self.replicas, &self.states, usize::MAX, Phase::Prefill);
        let dest = if views.is_empty() {
            // Every replica is out of rotation; park the request back on the
            // source so the stall surfaces as a typed error, not a lost
            // request.
            source
        } else {
            self.routers
                .route(Phase::Prefill, self.states[id].session, &views)
        };
        self.replicas[dest].waiting.push(id);
    }

    /// Aggregates the finished run into its report (and hands the
    /// per-replica simulated timelines to the trace recorder when tracing).
    fn report(self) -> FleetReport {
        let fleet = self.fleet;
        let replicas = &self.replicas;
        let sim_time_s = self.acc.last_completion_s;
        let sum = |f: fn(&Replica) -> u64| replicas.iter().map(f).sum::<u64>();
        let count = |f: fn(&Replica) -> usize| replicas.iter().map(f).sum::<usize>();
        let decode_tokens = sum(|r| r.decode_tokens);
        let replica_stats = replicas
            .iter()
            .map(|r| ReplicaStats {
                id: r.id,
                device: r.device.name.clone(),
                role: r.role.name().to_owned(),
                iterations: r.iterations,
                evictions: r.evictions,
                completed: r.completed,
                prefill_tokens: r.prefill_tokens,
                decode_tokens: r.decode_tokens,
                handoffs_in: r.handoffs_in,
                handoffs_out: r.handoffs_out,
                preemptions: r.preemptions,
                standby: r.standby,
                kv_used_blocks_end: r.pool.used_blocks(),
                busy_s: r.busy_s,
                utilization: if sim_time_s > 0.0 {
                    r.busy_s / sim_time_s
                } else {
                    0.0
                },
                kv_peak_occupancy: r.pool.peak_occupancy(),
                kv_mean_occupancy: if r.occ_n > 0 {
                    r.occ_sum / r.occ_n as f64
                } else {
                    0.0
                },
                drained: r.drained,
                failed: r.failed,
            })
            .collect();
        if let Some(anchor_us) = self.trace_anchor_us {
            for r in replicas {
                if let Some(tl) = r.timeline.as_ref().filter(|tl| !tl.is_empty()) {
                    resoftmax_obs::recorder().add_sim_stream(
                        format!("serve.replica.{}/{}", r.id, r.device.name),
                        anchor_us,
                        resoftmax_gpusim::chrome_trace::to_obs_events(tl),
                    );
                }
            }
        }
        let t = self.tally;
        FleetReport {
            strategy: format!("{:?}", fleet.params.strategy).to_lowercase(),
            policy: fleet.cfg.policy.name().to_owned(),
            router: fleet.router.name().to_owned(),
            link: fleet.link.name.clone(),
            submitted: self.arrivals.len(),
            completed: self.acc.completed,
            iterations: count(|r| r.iterations),
            evictions: count(|r| r.evictions),
            migrations: t.migrations,
            migration_drops: t.migration_drops,
            kv_migrated_bytes: t.kv_migrated_bytes,
            migration_time_s: t.migration_time_s,
            handoffs: count(|r| r.handoffs_out),
            kv_handoff_bytes: t.kv_handoff_bytes,
            kv_handoff_time_s: t.kv_handoff_time_s,
            // Prefill rows run on a dedicated decode replica only when a
            // handed-off request later loses its cache to memory pressure:
            // the disaggregation contract's "no re-prefill" is this staying
            // zero.
            decode_side_prefill_tokens: replicas
                .iter()
                .filter(|r| r.role == Role::Decode)
                .map(|r| r.prefill_tokens)
                .sum(),
            sim_time_s,
            prefill_tokens: sum(|r| r.prefill_tokens),
            decode_tokens,
            decode_tokens_per_s: decode_tokens as f64 / sim_time_s,
            ttft: Percentiles::from_samples(&self.acc.ttft),
            tbt: Percentiles::from_samples(&self.acc.tbt),
            preemptions: count(|r| r.preemptions),
            scale_ups: t.scale_ups,
            scale_downs: t.scale_downs,
            decisions: self.control.decisions,
            replicas: replica_stats,
        }
    }
}

/// Deterministic router snapshot of every accepting replica that can run
/// `phase` work, except `exclude`, ascending id.
fn accepting_views(
    replicas: &[Replica],
    states: &[ReqState],
    exclude: usize,
    phase: Phase,
) -> Vec<ReplicaView> {
    replicas
        .iter()
        .filter(|r| r.accepting && r.id != exclude)
        .filter(|r| match phase {
            Phase::Prefill => r.role.prefill_capable(),
            Phase::Decode => r.role.decode_capable(),
        })
        .map(|r| ReplicaView {
            id: r.id,
            role: r.role,
            resident_blocks: r.pool.used_blocks(),
            queued_blocks: r
                .waiting
                .iter()
                .map(|&id| {
                    r.pool
                        .blocks_for(states[id].prefill_target())
                        .max(states[id].blocks)
                })
                .sum(),
            total_blocks: r.pool.total_blocks(),
            queue_len: r.waiting.len(),
            running: r.running.len(),
            clock_s: r.clock_s,
        })
        .collect()
}
