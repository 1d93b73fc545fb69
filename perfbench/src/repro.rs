//! The `repro-offline` workload: one pass over the paper reproduction.
//!
//! Four parts, each starting on a cleared pricing cache: the static
//! analysis grid (build and check every schedule), the paper figure
//! drivers, the full tuner grid, and the numeric verifications on seeded
//! matrices. Serving and the control plane do nothing here.

use crate::trace::{span, Recorder};
use crate::{digest, tune_lookups, Gates};
use resoftmax_analyzer::Severity;
use resoftmax_bench::{analysis_grid, run_grid, PAPER_SEQ_LEN};
use resoftmax_core::experiments::{
    fig2_breakdown, fig5_sublayers, fig7_libraries, fig8_sd_sdf, fig9_batch_sweep, fig9_seq_sweep,
    gpu_speedup_matrix, Fig8Row,
};
use resoftmax_core::verify::{
    derived_fp16_tolerances, derived_fusion_tolerance, verify_decomposition, verify_fusion,
};
use resoftmax_gpusim::{clear_sim_cache, sim_cache_stats, DeviceSpec, LaunchError};
use resoftmax_model::{build_schedule, check_schedule, ModelConfig, RunParams};
use resoftmax_tune::{SearchMode, SearchSpace, Tuner};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// Row length and sub-vector width of the verifications (the paper's
/// `T = 64`).
const VERIFY_L: usize = 1024;
const VERIFY_T: usize = 64;
const VERIFY_ROWS: usize = 16;
const VERIFY_D_HEAD: usize = 64;

/// The paper's Fig. 8 speedups over the baseline (SD, SDF), as listed in
/// `EXPERIMENTS.md`.
fn paper_fig8() -> Vec<(String, f64, f64)> {
    vec![
        (ModelConfig::bert_large().name, 0.94, 1.25),
        (ModelConfig::gpt_neo_1_3b().name, 0.99, 1.12),
        (ModelConfig::bigbird_large().name, 1.44, 1.57),
        (ModelConfig::longformer_large().name, 1.49, 1.65),
    ]
}

/// Mean absolute relative error, in percent, of the simulated Fig. 8
/// speedups against the paper's eight values. `None` when a model is
/// missing from the rows.
pub fn paper_err_pct(rows: &[Fig8Row]) -> Option<f64> {
    let paper = paper_fig8();
    let mut sum = 0.0;
    for (model, sd, sdf) in &paper {
        let row = rows.iter().find(|r| &r.model == model)?;
        sum += (row.sd_speedup - sd).abs() / sd + (row.sdf_speedup - sdf).abs() / sdf;
    }
    Some(100.0 * sum / (2 * paper.len()) as f64)
}

/// What set-up hands the measured pass.
pub struct Setup {
    grid: Vec<(ModelConfig, RunParams)>,
    tuner: Tuner,
    seed: u64,
}

pub fn setup(seed: u64) -> Setup {
    Setup {
        grid: analysis_grid(),
        tuner: Tuner::new(SearchSpace::paper_default(), SearchMode::Exhaustive),
        seed,
    }
}

/// What one pass produced.
#[derive(Debug, Default)]
pub struct Pass {
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
    pub paper_err_pct: f64,
    pub build_calls: u64,
    pub kernels_built: u64,
    pub checks: u64,
    pub analyzer_errors: u64,
    pub tune_calls: u64,
    pub verify_calls: u64,
    pub err_over_tol: f64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_dropped: u64,
    pub event_steps: u64,
}

/// Runs the pass once; spans go to `rec` when it is attached.
pub fn pass(s: &Setup, rec: Option<&Recorder>, gates: &mut Gates) -> Pass {
    let mut p = Pass::default();
    let mut out = String::new();
    let metrics_before = resoftmax_obs::metrics_snapshot();
    let mut cache = (0u64, 0u64, 0u64);
    let mut fresh = || {
        let st = sim_cache_stats();
        cache.0 += st.hits;
        cache.1 += st.misses;
        cache.2 += st.dropped;
        clear_sim_cache();
    };

    // Static analysis grid.
    fresh();
    span(rec, "analysis_grid", "bench", || {
        for (model, params) in &s.grid {
            let kernels = span(rec, "build_schedule", "model", || {
                build_schedule(model, params)
            });
            let report = span(rec, "check_schedule", "analyzer", || {
                check_schedule(model, params, &kernels)
            });
            let errors = report.count(Severity::Error) as u64;
            p.build_calls += 1;
            p.kernels_built += kernels.len() as u64;
            p.checks += 1;
            p.analyzer_errors += errors;
            p.attempted += 1;
            p.failed += u64::from(errors > 0);
            let _ = write!(out, "{}:{}:{}|", model.name, kernels.len(), errors);
        }
    });
    gates.check(
        p.analyzer_errors == 0,
        format!(
            "{} analyzer errors over the analysis grid",
            p.analyzer_errors
        ),
    );

    // Paper figure drivers.
    fresh();
    let a100 = DeviceSpec::a100();
    let mut figure = |name: &str, f: &dyn Fn() -> Result<String, String>| {
        p.attempted += 1;
        match span(rec, name, "core", f) {
            Ok(rows) => out.push_str(&rows),
            Err(e) => {
                p.failed += 1;
                gates.fail(format!("{name} failed: {e}"));
            }
        }
    };
    figure("fig2_breakdown", &|| {
        rows_json(fig2_breakdown(&a100, PAPER_SEQ_LEN))
    });
    figure("fig5_sublayers", &|| {
        rows_json(fig5_sublayers(&a100, PAPER_SEQ_LEN))
    });
    figure("fig7_libraries", &|| {
        rows_json(fig7_libraries(&a100, PAPER_SEQ_LEN))
    });
    let fig8 = RefCell::new(Vec::new());
    figure("fig8_sd_sdf", &|| {
        let r = fig8_sd_sdf(&a100, PAPER_SEQ_LEN, 1);
        if let Ok(rows) = &r {
            fig8.borrow_mut().clone_from(rows);
        }
        rows_json(r)
    });
    figure("fig9_seq_sweep", &|| {
        rows_json(fig9_seq_sweep(&a100, &[512, 1024, 2048, 4096, 8192]))
    });
    figure("fig9_batch_sweep", &|| {
        rows_json(fig9_batch_sweep(&a100, PAPER_SEQ_LEN, &[1, 2, 4, 8]))
    });
    figure("gpu_speedup_matrix", &|| {
        rows_json(gpu_speedup_matrix(PAPER_SEQ_LEN))
    });
    match paper_err_pct(&fig8.borrow()) {
        Some(e) => p.paper_err_pct = e,
        None => gates.fail("Fig. 8 rows miss a paper model".to_owned()),
    }

    // Full tuner grid.
    fresh();
    let tune_before = tune_lookups();
    let (_, tuned) = span(rec, "run_grid", "tune", || run_grid(&s.tuner, &a100, false));
    p.tune_calls = tune_lookups() - tune_before;
    for t in &tuned {
        p.attempted += 1;
        let ok = t.cost_s <= t.default_cost_s;
        p.failed += u64::from(!ok);
        gates.check(
            ok,
            format!(
                "{}: tuned {} s slower than default {} s",
                t.workload.label(),
                t.cost_s,
                t.default_cost_s
            ),
        );
        let _ = write!(
            out,
            "{}:{:e}:{:e}|",
            t.workload.label(),
            t.cost_s,
            t.default_cost_s
        );
    }

    // Numeric verifications on seeded matrices.
    fresh();
    let dec = span(rec, "verify_decomposition", "kernels", || {
        verify_decomposition(VERIFY_ROWS, VERIFY_L, VERIFY_T, s.seed)
    });
    let tol = derived_fp16_tolerances(VERIFY_L, VERIFY_T);
    let fus = span(rec, "verify_fusion", "kernels", || {
        verify_fusion(VERIFY_L, VERIFY_D_HEAD, VERIFY_T, s.seed.wrapping_add(1))
    });
    let fus_tol = derived_fusion_tolerance(VERIFY_L, VERIFY_T);
    let ratios = [
        ("decomposition |Δ|", dec.max_abs_fp16 / tol.abs),
        (
            "decomposition ULPs",
            f64::from(dec.max_ulp_fp16) / f64::from(tol.ulps),
        ),
        (
            "decomposition row sum",
            dec.max_row_sum_err_fp16 / tol.row_sum,
        ),
        ("fusion |Δ|", fus.max_abs_fp16 / fus_tol),
    ];
    p.verify_calls = 2;
    p.attempted += 2;
    let mut dec_ok = true;
    for (i, (what, r)) in ratios.iter().enumerate() {
        p.err_over_tol = p.err_over_tol.max(*r);
        let ok = *r <= 1.0;
        gates.check(ok, format!("{what} at {r:.3} of its derived tolerance"));
        if i < 3 {
            dec_ok &= ok;
        } else {
            p.failed += u64::from(!ok);
        }
    }
    p.failed += u64::from(!dec_ok);
    let _ = write!(out, "{dec:?}|{fus:?}");

    fresh();
    p.cache_hits = cache.0;
    p.cache_misses = cache.1;
    p.cache_dropped = cache.2;
    let metrics_after = resoftmax_obs::metrics_snapshot();
    p.event_steps =
        metrics_after.count("sim.event_steps") - metrics_before.count("sim.event_steps");
    p.digest = digest(&out);
    p
}

fn rows_json<T: serde::Serialize>(rows: Result<T, LaunchError>) -> Result<String, String> {
    let rows = rows.map_err(|e| e.to_string())?;
    serde_json::to_string(&rows).map_err(|e| e.to_string())
}

/// Times one set-up.
pub fn timed_setup(seed: u64) -> (Setup, f64) {
    let t = Instant::now();
    let s = setup(seed);
    (s, t.elapsed().as_secs_f64())
}
