//! The builder-style [`Session`] API — the recommended way to run simulated
//! inference.
//!
//! A session bundles a validated `(model, device, params)` triple. Building
//! one checks every precondition the free functions would panic on
//! (sequence length vs block size, tile divisibility, zero batch, decode
//! support), and running one routes the schedule through the static analyzer
//! before it reaches the simulator — so every failure mode surfaces as a
//! typed [`Error`] instead of a panic or a silent bad schedule.

use crate::config::{AttentionKind, ModelConfig};
use crate::engine::{simulate_schedule, RunReport};
use crate::error::Error;
use crate::library::SparseSupport;
use crate::schedule::{
    build_schedule, check_schedule, static_error_bound, RunParams, SoftmaxStrategy,
};
use resoftmax_analyzer::CERT_BUDGET_REL;
use resoftmax_gpusim::DeviceSpec;

/// A validated, ready-to-run inference configuration.
///
/// Construct through [`Session::builder`]:
///
/// ```
/// use resoftmax_model::{ModelConfig, RunParams, Session, SoftmaxStrategy};
/// use resoftmax_gpusim::DeviceSpec;
///
/// let session = Session::builder()
///     .model(ModelConfig::bert_large())
///     .device(DeviceSpec::a100())
///     .params(RunParams::new(1024))
///     .strategy(SoftmaxStrategy::Recomposed)
///     .build()?;
/// let report = session.run()?;
/// assert!(report.total_time_s() > 0.0);
/// # Ok::<(), resoftmax_model::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct Session {
    model: ModelConfig,
    device: DeviceSpec,
    params: RunParams,
}

/// Builder for [`Session`]; see [`Session::builder`].
#[derive(Debug, Clone, Default)]
pub struct SessionBuilder {
    model: Option<ModelConfig>,
    device: Option<DeviceSpec>,
    params: Option<RunParams>,
    strategy: Option<SoftmaxStrategy>,
    instrument: Option<bool>,
}

impl Session {
    /// Starts building a session. [`model`](SessionBuilder::model) and
    /// [`params`](SessionBuilder::params) are required; the device defaults
    /// to the A100.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// The model this session runs.
    pub fn model(&self) -> &ModelConfig {
        &self.model
    }

    /// The simulated device.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// The run parameters.
    pub fn params(&self) -> &RunParams {
        &self.params
    }

    /// The process-wide observability recorder (spans, simulated streams);
    /// export it through a [`resoftmax_obs::Sink`] after running.
    pub fn recorder(&self) -> &'static resoftmax_obs::Recorder {
        resoftmax_obs::recorder()
    }

    /// Simulates one full-sequence inference iteration.
    ///
    /// # Errors
    ///
    /// [`Error::Analysis`] if the built schedule fails static analysis,
    /// [`Error::Launch`] if a kernel cannot
    /// launch on the device.
    pub fn run(&self) -> Result<RunReport, Error> {
        let schedule = build_schedule(&self.model, &self.params);
        let report = check_schedule(&self.model, &self.params, &schedule);
        if report.has_errors() {
            return Err(Error::Analysis {
                errors: report.count(resoftmax_analyzer::Severity::Error),
                report: report.render(),
            });
        }
        Ok(simulate_schedule(
            "Session::run",
            &self.model,
            &self.params,
            self.device.clone(),
            &schedule,
        )?)
    }

    /// Simulates generating one token at context length `ctx` (KV cache
    /// already populated).
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] for the combinations the decode cost model
    /// does not cover (sparse attention, the online-fused strategy, zero
    /// `ctx`); [`Error::Analysis`] if the schedule fails static analysis;
    /// [`Error::Launch`] if a kernel cannot launch.
    pub fn decode_step(&self, ctx: usize) -> Result<RunReport, Error> {
        if ctx == 0 {
            return Err(Error::InvalidConfig {
                reason: "decode context length must be nonzero".to_owned(),
            });
        }
        self.decode_batch(&vec![ctx; self.params.batch])
    }

    /// Simulates one continuous-batching engine iteration: one token is
    /// generated per entry of `ctxs`, each row attending a KV cache of that
    /// (possibly different) length. This is the entry point the serving
    /// scheduler drives; `ctxs.len()` overrides the session batch size.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] for the combinations the decode cost model
    /// does not cover (sparse attention, the online-fused strategy, an empty
    /// batch, a zero context); [`Error::Analysis`] if the schedule fails
    /// static analysis; [`Error::Launch`] if a kernel cannot launch.
    pub fn decode_batch(&self, ctxs: &[usize]) -> Result<RunReport, Error> {
        if !matches!(self.model.attention, AttentionKind::Dense { .. }) {
            return Err(Error::InvalidConfig {
                reason: format!(
                    "decode cost model covers dense attention only; model '{}' is sparse",
                    self.model.name
                ),
            });
        }
        if self.params.strategy == SoftmaxStrategy::OnlineFused {
            return Err(Error::InvalidConfig {
                reason: "decode attention is a single row; online fusion is the GEMV itself"
                    .to_owned(),
            });
        }
        if ctxs.is_empty() {
            return Err(Error::InvalidConfig {
                reason: "decode batch must contain at least one row".to_owned(),
            });
        }
        if ctxs.contains(&0) {
            return Err(Error::InvalidConfig {
                reason: "decode context length must be nonzero".to_owned(),
            });
        }
        // Numerics gate, applied statically (the decode builder debug-asserts
        // its own analysis, so an uncertifiable point must never reach it).
        // Independent of the session-build gate: decode contexts are not
        // bounded by the session's sequence length.
        if let Some(bound) = crate::decode::decode_error_bound(ctxs, &self.params) {
            if !bound.certifies(CERT_BUDGET_REL) {
                return Err(Error::InvalidConfig {
                    reason: format!(
                        "strategy {} at T={} over decode context {} has certified \
                         relative error bound {:.3e}, exceeding the {:.1e} budget; \
                         use a narrower tile or an fp32-accumulation strategy",
                        self.params.strategy.label(),
                        self.params.tile.n,
                        bound.ctx,
                        bound.rel,
                        CERT_BUDGET_REL,
                    ),
                });
            }
        }
        let schedule =
            crate::decode::build_batched_decode_schedule(&self.model, ctxs, &self.params);
        let report = crate::decode::check_decode_schedule(
            &self.model,
            ctxs,
            &self.params,
            &schedule.expand(),
        );
        if report.has_errors() {
            return Err(Error::Analysis {
                errors: report.count(resoftmax_analyzer::Severity::Error),
                report: report.render(),
            });
        }
        Ok(simulate_schedule(
            "Session::decode_step",
            &self.model,
            &self.params,
            self.device.clone(),
            &schedule,
        )?)
    }
}

impl SessionBuilder {
    /// Sets the model (required).
    #[must_use]
    pub fn model(mut self, model: ModelConfig) -> Self {
        self.model = Some(model);
        self
    }

    /// Sets the simulated device (default: [`DeviceSpec::a100`]).
    #[must_use]
    pub fn device(mut self, device: DeviceSpec) -> Self {
        self.device = Some(device);
        self
    }

    /// Sets the run parameters (required).
    #[must_use]
    pub fn params(mut self, params: RunParams) -> Self {
        self.params = Some(params);
        self
    }

    /// Overrides the softmax strategy of the run parameters.
    #[must_use]
    pub fn strategy(mut self, strategy: SoftmaxStrategy) -> Self {
        self.strategy = Some(strategy);
        self
    }

    /// Opts the **process** in to (or out of) observability: forces both the
    /// trace and metrics switches, exactly like setting `RESOFTMAX_TRACE` /
    /// `RESOFTMAX_METRICS`. The recorder and counters are process-wide
    /// singletons shared by every session.
    #[must_use]
    pub fn instrument(mut self, on: bool) -> Self {
        self.instrument = Some(on);
        self
    }

    /// Validates the configuration and builds the [`Session`].
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when the combination cannot run: missing
    /// model or parameters, zero batch or sequence length, a sequence length
    /// that is not a multiple of a sparse model's block size, or a tile
    /// width that does not divide the sequence length.
    pub fn build(self) -> Result<Session, Error> {
        let invalid = |reason: String| Err(Error::InvalidConfig { reason });
        let Some(model) = self.model else {
            return invalid("a model is required: Session::builder().model(..)".to_owned());
        };
        let Some(mut params) = self.params else {
            return invalid(
                "run parameters are required: Session::builder().params(..)".to_owned(),
            );
        };
        if let Some(strategy) = self.strategy {
            params.strategy = strategy;
        }
        if params.batch == 0 {
            return invalid("batch must be nonzero".to_owned());
        }
        if params.seq_len == 0 {
            return invalid("sequence length must be nonzero".to_owned());
        }
        if model.attention.is_sparse() {
            let block = model.attention.block_size();
            if !params.seq_len.is_multiple_of(block) {
                return invalid(format!(
                    "sequence length {} must be a multiple of model '{}' block size {block}",
                    params.seq_len, model.name
                ));
            }
        }
        if params.tile.n == 0 || !params.seq_len.is_multiple_of(params.tile.n) {
            return invalid(format!(
                "tile width {} must divide sequence length {}",
                params.tile.n, params.seq_len
            ));
        }
        if params.strategy == SoftmaxStrategy::RecomposedFp16
            && model.attention.is_sparse()
            && !matches!(params.profile.sparse_support, SparseSupport::DenseFallback)
        {
            return invalid(format!(
                "strategy SDF16 has no block-sparse implementation (no certified \
                 bound exists for it); model '{}' needs a dense-fallback profile \
                 or an fp32-accumulation strategy",
                model.name
            ));
        }
        // Numerics gate: reject combinations whose certified worst-case
        // softmax error exceeds the budget the verify tolerances are derived
        // from. Checked statically — `build_schedule` debug-asserts its own
        // analysis, so an uncertifiable point must never reach the builder.
        if let Some(bound) = static_error_bound(&model, &params) {
            if !bound.certifies(CERT_BUDGET_REL) {
                return invalid(format!(
                    "strategy {} at T={} over L={} has certified relative error \
                     bound {:.3e}, exceeding the {:.1e} budget; use a narrower \
                     tile or an fp32-accumulation strategy",
                    params.strategy.label(),
                    params.tile.n,
                    params.seq_len,
                    bound.rel,
                    CERT_BUDGET_REL,
                ));
            }
        }
        if let Some(on) = self.instrument {
            resoftmax_obs::set_trace_enabled(Some(on));
            resoftmax_obs::set_metrics_enabled(Some(on));
        }
        Ok(Session {
            model,
            device: self.device.unwrap_or_else(DeviceSpec::a100),
            params,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_requires_model_and_params() {
        let e = Session::builder().build().unwrap_err();
        assert!(matches!(e, Error::InvalidConfig { .. }));
        let e = Session::builder()
            .model(ModelConfig::bert_large())
            .build()
            .unwrap_err();
        assert!(e.to_string().contains("parameters"));
    }

    #[test]
    fn builder_rejects_bad_combinations() {
        // Sequence length incompatible with BigBird's block size.
        let e = Session::builder()
            .model(ModelConfig::bigbird_large())
            .params(RunParams::new(1000))
            .build()
            .unwrap_err();
        assert!(e.to_string().contains("block size"), "{e}");

        // Tile width not dividing the sequence length.
        let mut p = RunParams::new(1024);
        p.tile.n = 192;
        let e = Session::builder()
            .model(ModelConfig::bert_large())
            .params(p)
            .build()
            .unwrap_err();
        assert!(e.to_string().contains("tile width"), "{e}");

        // Zero batch.
        let e = Session::builder()
            .model(ModelConfig::bert_large())
            .params(RunParams::new(1024).batch(0))
            .build()
            .unwrap_err();
        assert!(e.to_string().contains("batch"), "{e}");
    }

    #[test]
    fn strategy_override_applies() {
        let s = Session::builder()
            .model(ModelConfig::bert_large())
            .params(RunParams::new(512))
            .strategy(SoftmaxStrategy::OnlineFused)
            .build()
            .unwrap();
        assert_eq!(s.params().strategy, SoftmaxStrategy::OnlineFused);
    }

    #[test]
    fn session_runs_and_matches_free_function() {
        let model = ModelConfig::bert_large();
        let params = RunParams::new(512);
        let s = Session::builder()
            .model(model.clone())
            .params(params.clone())
            .build()
            .unwrap();
        let via_session = s.run().unwrap();
        let via_free = crate::engine::run_inference(&model, &params, DeviceSpec::a100()).unwrap();
        assert_eq!(via_session.total_time_s(), via_free.total_time_s());
        assert_eq!(via_session.total_dram_bytes(), via_free.total_dram_bytes());
    }

    #[test]
    fn decode_rejects_unsupported_combinations() {
        let sparse = Session::builder()
            .model(ModelConfig::bigbird_large())
            .params(RunParams::new(1024))
            .build()
            .unwrap();
        assert!(matches!(
            sparse.decode_step(1024),
            Err(Error::InvalidConfig { .. })
        ));

        let online = Session::builder()
            .model(ModelConfig::gpt_neo_1_3b())
            .params(RunParams::new(1024))
            .strategy(SoftmaxStrategy::OnlineFused)
            .build()
            .unwrap();
        assert!(matches!(
            online.decode_step(1024),
            Err(Error::InvalidConfig { .. })
        ));

        let dense = Session::builder()
            .model(ModelConfig::gpt_neo_1_3b())
            .params(RunParams::new(1024))
            .build()
            .unwrap();
        assert!(dense.decode_step(1024).is_ok());
        assert!(matches!(
            dense.decode_step(0),
            Err(Error::InvalidConfig { .. })
        ));
        assert!(matches!(
            dense.decode_batch(&[]),
            Err(Error::InvalidConfig { .. })
        ));
        assert!(matches!(
            dense.decode_batch(&[512, 0]),
            Err(Error::InvalidConfig { .. })
        ));
    }

    #[test]
    fn fp16_recomposition_gated_by_certified_bound() {
        use resoftmax_kernels::costs::TileConfig;
        // Uncertifiable at the default 64-wide tile: typed rejection.
        let e = Session::builder()
            .model(ModelConfig::bert_large())
            .params(RunParams::new(4096))
            .strategy(SoftmaxStrategy::RecomposedFp16)
            .build()
            .unwrap_err();
        assert!(e.to_string().contains("certified"), "{e}");

        // Certifiable at T=16: builds and runs.
        let s = Session::builder()
            .model(ModelConfig::bert_large())
            .params(RunParams::new(4096).tile(TileConfig::new(64, 16)))
            .strategy(SoftmaxStrategy::RecomposedFp16)
            .build()
            .unwrap();
        assert!(s.run().unwrap().total_time_s() > 0.0);

        // No block-sparse implementation exists: typed rejection, not the
        // builder's panic.
        let e = Session::builder()
            .model(ModelConfig::bigbird_large())
            .params(RunParams::new(4096).tile(TileConfig::new(64, 16)))
            .strategy(SoftmaxStrategy::RecomposedFp16)
            .build()
            .unwrap_err();
        assert!(e.to_string().contains("block-sparse"), "{e}");
    }

    #[test]
    fn decode_numerics_gate_is_independent_of_session_length() {
        use resoftmax_kernels::costs::TileConfig;
        // T=32 certifies at the session's own length (bound ~1.90e-2)...
        let s = Session::builder()
            .model(ModelConfig::gpt_neo_1_3b())
            .params(RunParams::new(1024).tile(TileConfig::new(64, 32)))
            .strategy(SoftmaxStrategy::RecomposedFp16)
            .build()
            .unwrap();
        assert!(s.decode_batch(&[1024]).is_ok());
        // ...but a decode context long enough to push the inter-reduction
        // term over budget is rejected before any schedule is built.
        let e = s.decode_batch(&[1 << 24]).unwrap_err();
        assert!(matches!(e, Error::InvalidConfig { .. }));
        assert!(e.to_string().contains("certified"), "{e}");
    }

    #[test]
    fn decode_batch_accepts_heterogeneous_contexts() {
        let s = Session::builder()
            .model(ModelConfig::gpt_neo_1_3b())
            .params(RunParams::new(1024))
            .build()
            .unwrap();
        let r = s.decode_batch(&[260, 1000, 4096]).unwrap();
        assert!(r.total_time_s() > 0.0);
    }
}
