//! Layer-periodic replay on small synthetic stacks: a `PeriodicSchedule`
//! priced by `Gpu::run` must leave the same timeline and the same L2 state
//! as its `expand()`ed flat form, whether its layers repeat at once, late,
//! or never. Uniform grids only, so the cases stay cheap enough for miri.

use resoftmax_gpusim::{
    DeviceSpec, Gpu, KernelCategory, KernelDesc, PeriodicSchedule, TbShape, TbWork,
};
use std::sync::{Mutex, PoisonError};

const KB: u64 = 1024;
const MB: u64 = 1024 * KB;

/// The replay counters are process-wide; tests that read them hold this.
fn lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn mem(name: &str, reads: &[(&str, u64)], writes: &[(&str, u64)]) -> KernelDesc {
    let read: u64 = reads.iter().map(|(_, b)| b).sum();
    let write: u64 = writes.iter().map(|(_, b)| b).sum();
    let mut b = KernelDesc::builder(name, KernelCategory::Other);
    b.uniform(8, TbWork::memory(read as f64 / 8.0, write as f64 / 8.0));
    for (id, bytes) in reads {
        b.reads(*id, *bytes);
    }
    for (id, bytes) in writes {
        b.writes(*id, *bytes);
    }
    b.build()
}

/// A two-kernel layer: `l0.x` → `l0.h` → `l1.x`, reading a weight of
/// `weight` bytes.
fn chain(weight: u64) -> Vec<KernelDesc> {
    vec![
        mem(
            "up",
            &[("l0.x", 64 * KB), ("l0.w", weight)],
            &[("l0.h", 64 * KB)],
        ),
        mem("down", &[("l0.h", 64 * KB)], &[("l1.x", 64 * KB)]),
    ]
}

/// Runs `prelude` then `schedule` on one GPU, and `prelude` then the
/// expanded schedule on another; asserts identical results, timelines and
/// L2 state, and returns the periodic run's (priced, replayed) layers.
fn assert_matches_expanded(
    device: &DeviceSpec,
    prelude: &[KernelDesc],
    schedule: &PeriodicSchedule,
) -> (u64, u64) {
    let flat = schedule.expand();
    assert_eq!(flat.len(), schedule.len());
    let mut periodic_gpu = Gpu::new(device.clone());
    let mut flat_gpu = Gpu::new(device.clone());
    periodic_gpu.run(prelude).expect("prelude");
    flat_gpu.run(prelude).expect("prelude");

    let counters = || {
        let snap = resoftmax_obs::metrics_snapshot();
        (
            snap.count("sim.layers_priced"),
            snap.count("sim.layers_replayed"),
        )
    };
    let before = counters();
    let periodic = periodic_gpu.run(schedule).map_err(|e| e.to_string());
    let after = counters();
    let expanded = flat_gpu.run(&flat).map_err(|e| e.to_string());
    assert_eq!(periodic, expanded);
    assert_eq!(periodic_gpu.timeline(), flat_gpu.timeline());
    assert_eq!(
        periodic_gpu.timeline().total_time_s().to_bits(),
        flat_gpu.timeline().total_time_s().to_bits()
    );

    // Same residency, in the same LRU order: rerunning the flat form from
    // here hits and evicts alike on both.
    periodic_gpu.run(&flat).ok();
    flat_gpu.run(&flat).ok();
    assert_eq!(periodic_gpu.timeline(), flat_gpu.timeline());
    (after.0 - before.0, after.1 - before.1)
}

fn with_metrics<T>(f: impl FnOnce() -> T) -> T {
    let _g = lock();
    resoftmax_obs::set_metrics_enabled(Some(true));
    let out = f();
    resoftmax_obs::set_metrics_enabled(None);
    out
}

#[test]
fn identical_layers_replay_from_the_second_repeat() {
    // A weight larger than the L2 streams through and flushes it every
    // layer, so layer 1 starts where every later layer starts.
    let schedule = PeriodicSchedule::new(chain(64 * MB), 8);
    let (priced, replayed) =
        with_metrics(|| assert_matches_expanded(&DeviceSpec::a100(), &[], &schedule));
    assert_eq!((priced, replayed), (2, 6));
}

#[test]
fn pricing_cache_off_prices_every_layer() {
    let schedule = PeriodicSchedule::new(chain(64 * MB), 8);
    let (priced, replayed) = with_metrics(|| {
        resoftmax_gpusim::set_sim_cache_enabled(Some(false));
        let counts = assert_matches_expanded(&DeviceSpec::a100(), &[], &schedule);
        resoftmax_gpusim::set_sim_cache_enabled(None);
        counts
    });
    assert_eq!((priced, replayed), (8, 0));
}

#[test]
fn state_that_keeps_growing_prices_every_layer() {
    // Each layer leaves half a megabyte more resident that nothing reads or
    // evicts: no two layers start from the same relative state.
    let mut layer = chain(128 * KB);
    layer.push(mem("stash", &[], &[("l0.keep", 256 * KB)]));
    let (priced, replayed) = with_metrics(|| {
        assert_matches_expanded(&DeviceSpec::a100(), &[], &PeriodicSchedule::new(layer, 6))
    });
    assert_eq!((priced, replayed), (6, 0));
}

#[test]
fn state_that_fills_the_cache_repeats_late() {
    // The same stack on T4's 4 MB L2: the layers' buffers pile up until LRU
    // eviction drops the oldest layer's each layer; only then does the
    // relative state repeat.
    let mut layer = chain(128 * KB);
    layer.push(mem("stash", &[], &[("l0.keep", 256 * KB)]));
    let (priced, replayed) = with_metrics(|| {
        assert_matches_expanded(&DeviceSpec::t4(), &[], &PeriodicSchedule::new(layer, 16))
    });
    // Half a megabyte per layer fills 4 MB in eight layers.
    assert_eq!((priced, replayed), (9, 7));
}

#[test]
fn shared_buffers_and_a_warm_cache_carry_through() {
    // A buffer outside the `l{k}.` convention is the same buffer in every
    // layer, and state left by an earlier flat run (including ids the
    // template names, at absolute layers) is carried in and back out.
    let mut layer = chain(128 * KB);
    layer.push(mem(
        "lookup",
        &[("table", 512 * KB), ("l0.h", 64 * KB)],
        &[],
    ));
    let prelude = [mem(
        "warm",
        &[],
        &[
            ("l3.x", MB),
            ("l2.h", MB),
            ("table", 512 * KB),
            ("junk", 256 * KB),
        ],
    )];
    for device in [DeviceSpec::a100(), DeviceSpec::t4()] {
        with_metrics(|| {
            assert_matches_expanded(&device, &prelude, &PeriodicSchedule::new(layer.clone(), 7))
        });
    }
}

#[test]
fn a_launch_error_stops_both_forms_at_the_same_kernel() {
    let mut layer = chain(128 * KB);
    layer.insert(
        1,
        KernelDesc::builder("too_wide", KernelCategory::Other)
            .shape(TbShape::new(4096, 0, 32))
            .reads("l0.h", 64 * KB)
            .build(),
    );
    with_metrics(|| {
        assert_matches_expanded(&DeviceSpec::a100(), &[], &PeriodicSchedule::new(layer, 4))
    });
}

#[test]
fn degenerate_schedules_run_empty() {
    for schedule in [
        PeriodicSchedule::new(Vec::new(), 5),
        PeriodicSchedule::new(chain(MB), 0),
        PeriodicSchedule::new(chain(MB), 1),
    ] {
        with_metrics(|| assert_matches_expanded(&DeviceSpec::a100(), &[], &schedule));
    }
}
