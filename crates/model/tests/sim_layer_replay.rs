//! Full-sweep equivalence check for the simulator's layer-periodic replay:
//! a decode schedule priced as one layer plus a layer count must leave
//! every per-kernel statistic, and the timeline total, bit-identical to its
//! expanded flat form priced kernel by kernel — on every device, strategy,
//! batch shape and simulator shortcut setting.

use resoftmax_gpusim::{DeviceSpec, Gpu, KernelDesc, PeriodicSchedule, Timeline};
use resoftmax_kernels::costs::TileConfig;
use resoftmax_model::{
    build_batched_decode_schedule, ModelConfig, ParallelSplit, RunParams, SoftmaxStrategy,
};
use std::sync::{Mutex, PoisonError};

/// The replay counters are process-wide; tests that read them hold this.
fn lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn replay_counters() -> (u64, u64) {
    let snap = resoftmax_obs::metrics_snapshot();
    (
        snap.count("sim.layers_priced"),
        snap.count("sim.layers_replayed"),
    )
}

fn assert_bit_identical(periodic: &Timeline, flat: &Timeline, case: &str) {
    assert_eq!(periodic.len(), flat.len(), "{case}");
    for (i, (p, f)) in periodic.kernels().iter().zip(flat.kernels()).enumerate() {
        assert_eq!(p, f, "{case}: kernel {i}");
        assert_eq!(p.time_s.to_bits(), f.time_s.to_bits(), "{case}: kernel {i}");
    }
    assert_eq!(
        periodic.total_time_s().to_bits(),
        flat.total_time_s().to_bits(),
        "{case}: total"
    );
}

/// Prices `schedule` twice in a row on one GPU — the second time on the L2
/// state the first left — and its expansion the same way on another, under
/// every shortcut setting; asserts identical timelines after each run and
/// returns the layers the first run priced with every shortcut on. With the
/// pricing cache off no layer is replayed.
fn check(device: &DeviceSpec, schedule: &PeriodicSchedule, flat: &[KernelDesc], case: &str) -> u64 {
    let mut priced_with_cache = 0;
    for (fast, cache) in [(true, true), (true, false), (false, true), (false, false)] {
        let case = format!("{case} fast={fast} cache={cache}");
        let mut periodic = Gpu::new(device.clone());
        let mut expanded = Gpu::new(device.clone());
        for gpu in [&mut periodic, &mut expanded] {
            gpu.set_wave_fast_path(fast);
            gpu.set_sim_cache(cache);
        }
        let before = replay_counters();
        periodic.run(schedule).expect("periodic run");
        let priced = replay_counters().0 - before.0;
        if !cache {
            assert_eq!(priced, schedule.layers() as u64, "{case}");
        } else if fast {
            priced_with_cache = priced;
        }
        expanded.run(flat).expect("flat run");
        assert_bit_identical(periodic.timeline(), expanded.timeline(), &case);

        periodic.run(schedule).expect("periodic rerun");
        expanded.run(flat).expect("flat rerun");
        assert_bit_identical(
            periodic.timeline(),
            expanded.timeline(),
            &format!("{case} warm L2"),
        );
    }
    priced_with_cache
}

#[test]
fn replay_matches_expanded_schedule_on_full_sweep() {
    let _g = lock();
    resoftmax_obs::set_metrics_enabled(Some(true));
    // A 256-row prefill chunk (positions 1..=256 of one prompt) beside
    // decode rows at assorted contexts.
    let mixed: Vec<usize> = (1..=256).chain([300, 2048, 8192]).collect();
    // The builder re-runs static analysis in debug builds, and the simulator
    // is slow there: two batches on BERT-base only. Release (the tier-1
    // configuration) takes the full grid.
    let (batches, models) = if cfg!(debug_assertions) {
        (
            vec![vec![1, 64, 65, 2048], mixed],
            vec![ModelConfig::bert_base()],
        )
    } else {
        (
            vec![
                vec![4096],
                vec![260, 1000, 1000, 4096],
                vec![1, 64, 65, 2048],
                mixed,
            ],
            vec![ModelConfig::gpt_neo_1_3b(), ModelConfig::bert_base()],
        )
    };
    let mut late = 0;
    for device in [DeviceSpec::a100(), DeviceSpec::rtx3090(), DeviceSpec::t4()] {
        for model in &models {
            for strategy in [
                SoftmaxStrategy::Baseline,
                SoftmaxStrategy::Decomposed,
                SoftmaxStrategy::Recomposed,
                SoftmaxStrategy::RecomposedFp16,
            ] {
                for ls_split in [None, Some(ParallelSplit::RowSegments)] {
                    for ctxs in &batches {
                        // T = 16 certifies binary16 accumulation at these
                        // contexts; the other strategies keep the default.
                        let mut params = RunParams::new(4096).strategy(strategy);
                        if strategy == SoftmaxStrategy::RecomposedFp16 {
                            params = params.tile(TileConfig::new(64, 16));
                        }
                        params.ls_split = ls_split;
                        let schedule = build_batched_decode_schedule(model, ctxs, &params);
                        let flat = schedule.expand();
                        let case = format!(
                            "{} / {} / {} / ls_split={ls_split:?} / {} rows",
                            device.name,
                            model.name,
                            strategy.label(),
                            ctxs.len()
                        );
                        let priced = check(&device, &schedule, &flat, &case);
                        assert!(priced >= 1 && priced as usize <= model.layers, "{case}");
                        if priced > 2 {
                            late += 1;
                        }
                    }
                }
            }
        }
    }
    // Some stacks settle after layer 2 (BERT-base's few-row batches on A100's
    // 40 MB L2); the sweep must cover them.
    assert!(late > 0, "no case reached its fixed point late");
    resoftmax_obs::set_metrics_enabled(None);
}

/// The count gate that keeps the fast path from being lost silently: one
/// GPT-Neo-1.3B decode iteration on A100 (the serving benches' shape)
/// prices at most three of its 24 layers and replays the rest.
#[test]
fn gpt_neo_decode_iteration_replays_most_layers() {
    let _g = lock();
    resoftmax_obs::set_metrics_enabled(Some(true));
    let model = ModelConfig::gpt_neo_1_3b();
    let ctxs: Vec<usize> = (0..26).map(|i| 200 + 37 * i).collect();
    let params = RunParams::new(4096).strategy(SoftmaxStrategy::Recomposed);
    let schedule = build_batched_decode_schedule(&model, &ctxs, &params);
    let before = replay_counters();
    let launched_before = resoftmax_obs::metrics_snapshot().count("sim.kernels_launched");
    Gpu::new(DeviceSpec::a100())
        .run(&schedule)
        .expect("decode iteration prices");
    let (priced, replayed) = replay_counters();
    let (priced, replayed) = (priced - before.0, replayed - before.1);
    let launched =
        resoftmax_obs::metrics_snapshot().count("sim.kernels_launched") - launched_before;
    resoftmax_obs::set_metrics_enabled(None);
    assert_eq!(priced + replayed, 24);
    assert!(replayed >= 21, "replayed only {replayed} of 24 layers");
    assert_eq!(
        launched,
        schedule.len() as u64,
        "replayed kernels count as launched"
    );
}
