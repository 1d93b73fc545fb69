//! The iteration-planner hook: how an engine iteration picks the run
//! parameters it is priced with.

use resoftmax_model::RunParams;

/// Chooses the run parameters used to price one fused engine iteration.
///
/// Every engine iteration is one batched GPU schedule mixing chunked-prefill
/// rows with single-token decode rows; `ctxs` lists the context length of
/// each row in that schedule. A planner may pick a different strategy, tile,
/// or split per iteration shape — this is the hook an autotuner
/// (`resoftmax-tune`) uses to serve every iteration with its tuned schedule
/// instead of the fixed base parameters.
///
/// Implementations must be deterministic in `ctxs` and `base` (the serving
/// report is asserted bit-identical across host thread counts).
pub trait IterationPlanner {
    /// Returns the parameters for pricing the iteration over `ctxs`. The
    /// returned configuration must be decode-legal (dense attention, not
    /// [`resoftmax_model::SoftmaxStrategy::OnlineFused`]).
    fn plan(&self, ctxs: &[usize], base: &RunParams) -> RunParams;
}

/// The pre-tuner behavior: every iteration is priced with the base
/// parameters unchanged.
pub struct BaselinePlanner;

impl IterationPlanner for BaselinePlanner {
    fn plan(&self, _ctxs: &[usize], base: &RunParams) -> RunParams {
        base.clone()
    }
}

#[cfg(test)]
mod tests {
    use crate::kv::kv_bytes_per_token;
    use crate::{Error, FleetBuilder, ServeConfig, ServeReport};
    use resoftmax_gpusim::DeviceSpec;
    use resoftmax_model::{ModelConfig, RunParams, SoftmaxStrategy};

    /// One A100 replica serving `cfg`, in the single-replica report shape.
    fn serve(m: &ModelConfig, params: RunParams, cfg: &ServeConfig) -> Result<ServeReport, Error> {
        let report = FleetBuilder::new()
            .model(m.clone())
            .params(params)
            .replica(DeviceSpec::a100())
            .workload(cfg.clone())
            .build()?
            .run()?;
        Ok(report.serve_report())
    }

    fn small_cfg() -> ServeConfig {
        ServeConfig {
            requests: 6,
            arrival_rate_hz: 64.0,
            prompt_tokens: (64, 192),
            decode_tokens: (4, 12),
            max_batch: 4,
            prefill_chunk: 64,
            ..ServeConfig::default()
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "end-to-end simulation is too slow under miri")]
    fn completes_all_requests_and_is_deterministic() {
        let m = ModelConfig::gpt_neo_1_3b();
        let cfg = small_cfg();
        let a = serve(&m, RunParams::new(4096), &cfg).unwrap();
        let b = serve(&m, RunParams::new(4096), &cfg).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.completed, cfg.requests);
        assert_eq!(a.ttft.n, cfg.requests);
        assert!(a.sim_time_s > 0.0);
        assert!(a.decode_tokens_per_s > 0.0);
        assert!(a.tbt.p50_s > 0.0);
        assert!(a.kv_peak_occupancy > 0.0 && a.kv_peak_occupancy <= 1.0);
        // Every request owes decode - 1 TBT samples (the first token is the
        // TTFT sample).
        assert!(a.tbt.n >= cfg.requests * (cfg.decode_tokens.0 - 1));
    }

    #[test]
    #[cfg_attr(miri, ignore = "end-to-end simulation is too slow under miri")]
    fn tiny_pool_forces_evictions_yet_completes() {
        let m = ModelConfig::gpt_neo_1_3b();
        let mut cfg = small_cfg();
        // Two requests fit at admission (prompts alone), but their decode
        // growth overflows the pool: eviction must kick in, and the
        // oldest-never-evicted rule still drains the queue.
        cfg.prompt_tokens = (64, 96);
        cfg.decode_tokens = (16, 32);
        cfg.kv_capacity_bytes = Some(kv_bytes_per_token(&m) * 192);
        let r = serve(&m, RunParams::new(4096), &cfg).unwrap();
        assert_eq!(r.completed, cfg.requests);
        assert!(r.evictions > 0, "a 192-token pool must evict: {r:?}");
        assert!(r.kv_peak_occupancy > 0.5);
    }

    #[test]
    #[cfg_attr(miri, ignore = "end-to-end simulation is too slow under miri")]
    fn recomposed_strategy_serves_too() {
        let m = ModelConfig::gpt_neo_1_3b();
        let cfg = ServeConfig {
            requests: 3,
            ..small_cfg()
        };
        let params = RunParams::new(4096).strategy(SoftmaxStrategy::Recomposed);
        let r = serve(&m, params, &cfg).unwrap();
        assert_eq!(r.completed, 3);
        assert_eq!(r.strategy, "recomposed");
    }

    #[test]
    fn pool_below_one_request_rejected() {
        let m = ModelConfig::gpt_neo_1_3b();
        let mut cfg = small_cfg();
        cfg.kv_capacity_bytes = Some(kv_bytes_per_token(&m) * 64);
        let e = serve(&m, RunParams::new(4096), &cfg).unwrap_err();
        assert!(matches!(e, Error::Admission { .. }), "{e}");
        assert!(e.to_string().contains("worst-case request"), "{e}");
    }
}
