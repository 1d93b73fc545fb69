//! The control-plane hook: how an external controller steers a running
//! fleet on the simulated clock.
//!
//! A [`ControlPlane`] implementation (e.g. `resoftmax-ctrl`'s `Controller`)
//! attaches to a fleet via `FleetBuilder::control_plane`. The fleet then
//! adds a *fifth event source* to its discrete-event loop: at every decision
//! time the fleet snapshots its [`FleetSignals`] (windowed latency
//! percentiles, queue depths, KV occupancy, handoff backlog), asks the
//! controller to [`decide`](ControlPlane::decide), applies the returned
//! [`ControlAction`]s, and appends a [`ControlRecord`] to the report's
//! decision log. Exact-f64 tie order extends the existing ordering to
//! *fault < arrival < handoff < scale-up activation < decision < step*.
//!
//! Everything here lives on the simulated clock and is deterministic in the
//! builder inputs, so a controlled fleet's report — decision log included —
//! stays bit-identical across host thread counts, reruns, and sim-cache
//! states. The decision log is *replayable*: feeding the recorded actions
//! back through a trivial `ControlPlane` (see `resoftmax-ctrl::Replay`)
//! reproduces the report exactly.

use serde::{Deserialize, Serialize};

use crate::metrics::Percentiles;
use crate::replica::Role;
use crate::request::{Policy, ServeConfig};

/// What the controller asks the fleet to do, decided at one decision point.
/// The fleet validates each action against its current state and records
/// whether it applied (the `applied` vector of the [`ControlRecord`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ControlAction {
    /// Switch the admission policy every replica schedules with.
    SetPolicy(Policy),
    /// Re-budget chunked prefill: the max prompt tokens one request
    /// contributes to an iteration. Rejected when zero.
    SetPrefillChunk(usize),
    /// Arm (or re-arm) token-bucket admission control: arrivals are delayed
    /// until the bucket covers their prompt tokens. Rejected unless both
    /// parameters are positive and finite.
    SetAdmission {
        /// Sustained refill rate, prompt tokens per simulated second.
        tokens_per_s: f64,
        /// Bucket capacity, tokens (the tolerated burst).
        burst_tokens: f64,
    },
    /// Disarm admission control. Rejected when no bucket is armed.
    ClearAdmission,
    /// Bring a standby replica into rotation. Warm-up is priced over the
    /// link (the model weights stream in); the replica starts accepting
    /// when the transfer lands. Rejected unless the target is standby,
    /// not already warming, and not faulted.
    ScaleUp {
        /// Replica index.
        replica: usize,
    },
    /// Take an active replica back to standby: its resident requests are
    /// displaced exactly like a drain (KV migrates over the link where
    /// possible), but the replica can be scaled up again later. Rejected
    /// unless the target is accepting and its removal leaves at least one
    /// accepting prefill-capable and one decode-capable replica.
    ScaleDown {
        /// Replica index.
        replica: usize,
    },
}

/// Per-replica slice of a [`FleetSignals`] snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaSignal {
    /// Replica index.
    pub id: usize,
    /// Serving role.
    pub role: Role,
    /// `true` while the router sees this replica.
    pub accepting: bool,
    /// `true` while parked in standby (scale-up candidate).
    pub standby: bool,
    /// `true` while a scale-up warm-up transfer is in flight.
    pub warming: bool,
    /// Waiting-queue length.
    pub queue_len: usize,
    /// Requests in the current continuous batch.
    pub running: usize,
    /// KV-pool occupancy in `[0, 1]`.
    pub kv_occupancy: f64,
}

/// The signal snapshot the fleet hands the controller at a decision point.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSignals {
    /// Simulated time of the decision.
    pub now_s: f64,
    /// Requests that have arrived so far.
    pub arrived: usize,
    /// Requests completed so far.
    pub completed: usize,
    /// Total waiting-queue depth across replicas.
    pub queue_depth: usize,
    /// KV handoffs in flight over the link.
    pub handoff_backlog: usize,
    /// The live `max_batch` (per-replica batch capacity).
    pub max_batch: usize,
    /// Windowed TTFT percentiles (`None` until the window holds a sample).
    pub ttft: Option<Percentiles>,
    /// Windowed TBT percentiles (`None` until the window holds a sample).
    pub tbt: Option<Percentiles>,
    /// Per-replica state, ascending id.
    pub replicas: Vec<ReplicaSignal>,
}

/// What [`ControlPlane::begin`] returns: when the first decision fires and
/// how wide the fleet's signal windows are.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlInit {
    /// Simulated time of the first decision.
    pub first_decision_s: f64,
    /// Sliding-window width for the TTFT/TBT signal percentiles, seconds.
    pub window_s: f64,
}

/// One decision: the classified regime, the actions to apply, and when to
/// decide next.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlDecision {
    /// The controller's load-regime label ("idle", "steady", "burst",
    /// "overload", ...) — recorded verbatim in the decision log.
    pub regime: String,
    /// Actions to apply, in order.
    pub actions: Vec<ControlAction>,
    /// Simulated time of the next decision. Must be strictly later than the
    /// current decision; a non-finite value stops further decisions.
    pub next_s: f64,
}

/// A feedback controller the fleet consults on its simulated clock.
///
/// Implementations take `&self` (mirroring
/// [`IterationPlanner`](crate::IterationPlanner)) and keep mutable state
/// behind interior
/// mutability; [`begin`](ControlPlane::begin) must reset that state so
/// reruns of the same fleet stay bit-identical. Implementations must be
/// deterministic in the signal sequence.
pub trait ControlPlane {
    /// Called once per `Fleet::run`, before any event. Resets controller
    /// state and returns the first decision time and signal-window width.
    fn begin(&self, cfg: &ServeConfig) -> ControlInit;

    /// Called at each decision time with the fleet's signal snapshot.
    fn decide(&self, signals: &FleetSignals) -> ControlDecision;
}

/// One row of the report's decision log: what the controller saw, what it
/// decided, and what the fleet actually applied.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControlRecord {
    /// Decision sequence number (0-based).
    pub seq: usize,
    /// Simulated time of the decision.
    pub at_s: f64,
    /// The controller's regime label.
    pub regime: String,
    /// The actions the controller issued, in order.
    pub actions: Vec<ControlAction>,
    /// Per-action outcome: `true` when the fleet applied it, `false` when
    /// the fleet's state made it invalid (e.g. scaling a non-standby
    /// replica).
    pub applied: Vec<bool>,
    /// Total waiting-queue depth at the decision.
    pub queue_depth: usize,
    /// Accepting replicas at the decision.
    pub active_replicas: usize,
    /// Mean KV occupancy over the accepting replicas.
    pub kv_occupancy: f64,
    /// KV handoffs in flight at the decision.
    pub handoff_backlog: usize,
    /// Windowed TTFT percentiles at the decision.
    pub ttft: Option<Percentiles>,
    /// Windowed TBT percentiles at the decision.
    pub tbt: Option<Percentiles>,
}

/// Token-bucket admission control on the simulated clock: arrivals pay
/// their prompt tokens; when the bucket runs dry the request's `ready_s` is
/// pushed to when the refill covers the debt.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TokenBucket {
    rate_per_s: f64,
    burst: f64,
    level: f64,
    last_s: f64,
}

impl TokenBucket {
    /// A full bucket as of `now_s`.
    pub fn new(tokens_per_s: f64, burst_tokens: f64, now_s: f64) -> Self {
        TokenBucket {
            rate_per_s: tokens_per_s,
            burst: burst_tokens,
            level: burst_tokens,
            last_s: now_s,
        }
    }

    /// Charges `cost` tokens at `now_s` and returns the earliest simulated
    /// time the charged work may run: `now_s` when the bucket covers it,
    /// later when the refill has to catch up. Over-burst costs are admitted
    /// once the bucket has refilled the shortfall (the bucket goes to zero),
    /// so a single huge prompt cannot stall admission forever.
    pub fn admit(&mut self, now_s: f64, cost: f64) -> f64 {
        let elapsed = (now_s - self.last_s).max(0.0);
        self.level = (self.level + elapsed * self.rate_per_s).min(self.burst);
        self.last_s = now_s;
        if cost <= self.level {
            self.level -= cost;
            now_s
        } else {
            let wait_s = (cost - self.level) / self.rate_per_s;
            self.level = 0.0;
            now_s + wait_s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_bucket_admits_until_dry_then_meters() {
        let mut b = TokenBucket::new(100.0, 250.0, 0.0);
        // The burst absorbs the first arrivals at full speed.
        assert_eq!(b.admit(0.0, 200.0), 0.0);
        // 50 left; a 150-token prompt owes 100 tokens = 1 s of refill.
        assert_eq!(b.admit(0.0, 150.0), 1.0);
        // The bucket is empty and stays metered at the refill rate.
        assert_eq!(b.admit(0.0, 100.0), 1.0);
        // After 10 idle seconds the bucket is full again (capped at burst).
        assert_eq!(b.admit(10.0, 250.0), 10.0);
        assert_eq!(b.admit(10.0, 1.0), 10.0 + 0.01);
    }

    #[test]
    fn control_record_round_trips_through_serde() {
        let rec = ControlRecord {
            seq: 3,
            at_s: 1.25,
            regime: "burst".to_owned(),
            actions: vec![
                ControlAction::SetPolicy(Policy::PreemptivePriority),
                ControlAction::SetPrefillChunk(128),
                ControlAction::SetAdmission {
                    tokens_per_s: 4096.0,
                    burst_tokens: 8192.0,
                },
                ControlAction::ScaleUp { replica: 2 },
            ],
            applied: vec![true, true, true, false],
            queue_depth: 17,
            active_replicas: 2,
            kv_occupancy: 0.5,
            handoff_backlog: 1,
            ttft: None,
            tbt: None,
        };
        let json = serde_json::to_string(&rec).unwrap();
        let back: ControlRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rec);
    }
}
