//! Cross-run kernel-pricing memoization.
//!
//! The execution model is a pure function: a kernel's simulated duration is
//! fully determined by the device, the block shape (through occupancy), the
//! canonical thread-block work sequence, and the L2-derived `read_scale`.
//! This module content-addresses that pricing problem — a 128-bit FNV-1a
//! fingerprint over every input — and memoizes two levels of result in
//! process-global maps shared by every [`crate::Gpu`]:
//!
//! * **Kernel prices** ([`KernelPrice`]): the full execution time of one
//!   kernel (excluding the device's launch overhead, which is added by the
//!   caller) plus the event-step/fast-path-wave counts the fresh computation
//!   performed, so cache hits can report how much stepping they avoided.
//! * **Wave-class dt sequences**: the per-event time deltas of one exactly
//!   stepped full wave of a single TB class. The wave-class fast path
//!   replays these with the same `now += dt` additions, in the same order,
//!   that stepping the wave would perform — so a cached sequence produces a
//!   bit-identical timeline even when the *kernel* fingerprint is new (same
//!   class, different wave count).
//!
//! Keys never need invalidation: everything the answer depends on is inside
//! the fingerprint, so a changed input is simply a different key. The maps
//! are bounded ([`MAX_KERNEL_ENTRIES`] / [`MAX_CLASS_ENTRIES`]); at capacity
//! new results are computed but not stored (counted on `sim.cache.dropped`).
//!
//! Caching is on by default. `RESOFTMAX_SIM_CACHE=0` disables it for a
//! process (the same escape-hatch idiom as `Gpu::set_wave_fast_path(false)`),
//! [`set_sim_cache_enabled`] overrides the environment programmatically, and
//! [`Gpu::set_sim_cache`](crate::Gpu::set_sim_cache) gates one simulator
//! instance so equivalence tests can compare cached and fresh runs in the
//! same process. The same switches govern the layer replay of
//! [`PeriodicSchedule`](crate::PeriodicSchedule)s, which reuses priced
//! layers: off means every kernel is priced fresh.

use crate::device::DeviceSpec;
use crate::kernel::{TbGroup, TbShape, TbWork};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Capacity bound of the kernel-price map (entries are ~40 bytes).
pub const MAX_KERNEL_ENTRIES: usize = 1 << 17;
/// Capacity bound of the wave-class dt map (entries hold one dt per event).
pub const MAX_CLASS_ENTRIES: usize = 1 << 15;

// ---------------------------------------------------------------------------
// Fingerprinting
// ---------------------------------------------------------------------------

/// FNV-1a, 128-bit variant. 64 bits would make accidental collisions across
/// a fleet-scale search (billions of distinct pricing problems) plausible;
/// at 128 bits they are not a practical concern.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv128(u128);

impl Fnv128 {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013b;

    pub(crate) fn new() -> Self {
        Fnv128(Self::OFFSET)
    }

    fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ u128::from(b)).wrapping_mul(Self::PRIME);
    }

    pub(crate) fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.byte(b);
        }
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub(crate) fn u128(&mut self, v: u128) {
        self.bytes(&v.to_le_bytes());
    }

    /// Hashes the exact bit pattern: two inputs price identically only if
    /// they are bit-equal (`-0.0` and `0.0` hash apart, which merely costs a
    /// duplicate entry, never a wrong answer).
    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub(crate) fn finish(self) -> u128 {
        self.0
    }
}

/// Fingerprint of every [`DeviceSpec`] field the execution model reads.
/// Computed once per [`crate::Gpu`] and mixed into every key.
pub(crate) fn device_fingerprint(d: &DeviceSpec) -> u128 {
    let mut h = Fnv128::new();
    h.bytes(d.name.as_bytes());
    h.byte(0); // terminator: name is variable-length
    for v in [
        d.mem_bandwidth_gbps,
        d.fp16_cuda_tflops,
        d.fp16_tensor_tflops,
        d.l2_mb,
        d.hbm_gb,
        d.shared_fraction,
        d.kernel_launch_overhead_us,
        d.mem_saturation_threads,
        d.dram_pj_per_byte,
        d.flop_pj,
    ] {
        h.f64(v);
    }
    for v in [
        d.l1_kb_per_sm,
        d.num_sms,
        d.max_threads_per_sm,
        d.max_tbs_per_sm,
        d.regs_per_sm,
    ] {
        h.u32(v);
    }
    h.finish()
}

/// The canonical grid form the simulator prices: uniform grids are solved
/// wave-analytically from `(count, work)`; everything else is the exact
/// group sequence the fluid simulation walks (`PerTb` grids are coalesced
/// first, so a `PerTb` stream and its equivalent `Grouped` form share one
/// fingerprint).
#[derive(Debug, Clone, Copy)]
pub(crate) enum GridRef<'a> {
    Uniform { count: u64, work: &'a TbWork },
    Groups(&'a [TbGroup]),
}

fn hash_work(h: &mut Fnv128, w: &TbWork) {
    h.f64(w.cuda_flops);
    h.f64(w.tensor_flops);
    h.f64(w.dram_read_bytes);
    h.f64(w.dram_write_bytes);
    h.f64(w.mem_active_fraction);
    h.f64(w.efficiency);
}

/// Fingerprint of one kernel-pricing problem. Covers everything
/// [`crate::Gpu::launch`] feeds into the duration: device, per-block shape,
/// the occupancy it implies, the simulation mode (fast path on/off keeps
/// each mode's entries self-consistent, so equivalence tests exercise both
/// compute paths instead of one hitting the other's entries), the L2-derived
/// read scale, and the canonical grid.
pub(crate) fn kernel_key(
    device_fp: u128,
    wave_fast_path: bool,
    shape: &TbShape,
    tbs_per_sm: u32,
    read_scale: f64,
    grid: GridRef<'_>,
) -> u128 {
    let mut h = Fnv128::new();
    h.u128(device_fp);
    h.byte(u8::from(wave_fast_path));
    h.u32(shape.threads);
    h.u32(shape.shared_bytes);
    h.u32(shape.regs_per_thread);
    h.u32(tbs_per_sm);
    h.f64(read_scale);
    match grid {
        GridRef::Uniform { count, work } => {
            h.byte(1);
            h.u64(count);
            hash_work(&mut h, work);
        }
        GridRef::Groups(groups) => {
            h.byte(2);
            h.u64(groups.len() as u64);
            for g in groups {
                h.u64(g.count);
                hash_work(&mut h, &g.work);
            }
        }
    }
    h.finish()
}

/// Fingerprint of one wave-class stepping problem: a full wave of `slots`
/// identical blocks of `work` on an otherwise idle machine. The dt sequence
/// is a pure function of these inputs, independent of which kernel the wave
/// belongs to.
pub(crate) fn class_key(
    device_fp: u128,
    threads: u32,
    slots: u64,
    read_scale: f64,
    work: &TbWork,
) -> u128 {
    let mut h = Fnv128::new();
    h.u128(device_fp);
    h.u32(threads);
    h.u64(slots);
    h.f64(read_scale);
    hash_work(&mut h, work);
    h.finish()
}

// ---------------------------------------------------------------------------
// The global cache
// ---------------------------------------------------------------------------

/// A memoized kernel price: the execution time (excluding launch overhead)
/// and the stepping the fresh computation performed, so hits can account for
/// the work they avoid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct KernelPrice {
    pub time_s: f64,
    /// Event steps the fresh computation ran (steps replayed from the
    /// wave-class cache are excluded — they were already avoided once).
    pub event_steps: u64,
    pub fast_path_waves: u64,
}

fn kernel_map() -> &'static RwLock<HashMap<u128, KernelPrice>> {
    static MAP: OnceLock<RwLock<HashMap<u128, KernelPrice>>> = OnceLock::new();
    MAP.get_or_init(|| RwLock::new(HashMap::new()))
}

fn class_map() -> &'static RwLock<HashMap<u128, Arc<Vec<f64>>>> {
    static MAP: OnceLock<RwLock<HashMap<u128, Arc<Vec<f64>>>>> = OnceLock::new();
    MAP.get_or_init(|| RwLock::new(HashMap::new()))
}

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static STEPS_SAVED: AtomicU64 = AtomicU64::new(0);
static CLASS_HITS: AtomicU64 = AtomicU64::new(0);
static CLASS_MISSES: AtomicU64 = AtomicU64::new(0);
static CLASS_STEPS_SAVED: AtomicU64 = AtomicU64::new(0);
static DROPPED: AtomicU64 = AtomicU64::new(0);

pub(crate) fn lookup_kernel(key: u128) -> Option<KernelPrice> {
    let price = kernel_map()
        .read()
        .expect("sim cache poisoned")
        .get(&key)
        .copied();
    if let Some(p) = price {
        HITS.fetch_add(1, Ordering::Relaxed);
        STEPS_SAVED.fetch_add(p.event_steps, Ordering::Relaxed);
        if resoftmax_obs::metrics_enabled() {
            resoftmax_obs::counter("sim.cache.hits").incr();
            resoftmax_obs::counter("sim.cache.steps_saved").add(p.event_steps);
        }
    } else {
        MISSES.fetch_add(1, Ordering::Relaxed);
        if resoftmax_obs::metrics_enabled() {
            resoftmax_obs::counter("sim.cache.misses").incr();
        }
    }
    price
}

pub(crate) fn insert_kernel(key: u128, price: KernelPrice) {
    let mut map = kernel_map().write().expect("sim cache poisoned");
    if map.len() >= MAX_KERNEL_ENTRIES && !map.contains_key(&key) {
        drop(map);
        DROPPED.fetch_add(1, Ordering::Relaxed);
        if resoftmax_obs::metrics_enabled() {
            resoftmax_obs::counter("sim.cache.dropped").incr();
        }
        return;
    }
    map.entry(key).or_insert(price);
}

pub(crate) fn lookup_class(key: u128) -> Option<Arc<Vec<f64>>> {
    let dts = class_map()
        .read()
        .expect("sim cache poisoned")
        .get(&key)
        .cloned();
    match &dts {
        Some(d) => {
            CLASS_HITS.fetch_add(1, Ordering::Relaxed);
            CLASS_STEPS_SAVED.fetch_add(d.len() as u64, Ordering::Relaxed);
            if resoftmax_obs::metrics_enabled() {
                resoftmax_obs::counter("sim.cache.class_hits").incr();
                resoftmax_obs::counter("sim.cache.class_steps_saved").add(d.len() as u64);
            }
        }
        None => {
            CLASS_MISSES.fetch_add(1, Ordering::Relaxed);
        }
    }
    dts
}

pub(crate) fn insert_class(key: u128, dts: Arc<Vec<f64>>) {
    let mut map = class_map().write().expect("sim cache poisoned");
    if map.len() >= MAX_CLASS_ENTRIES && !map.contains_key(&key) {
        drop(map);
        DROPPED.fetch_add(1, Ordering::Relaxed);
        if resoftmax_obs::metrics_enabled() {
            resoftmax_obs::counter("sim.cache.dropped").incr();
        }
        return;
    }
    map.entry(key).or_insert(dts);
}

// ---------------------------------------------------------------------------
// Gating
// ---------------------------------------------------------------------------

/// 0 = uninitialized (consult `RESOFTMAX_SIM_CACHE`), 1 = off, 2 = on.
static SWITCH: AtomicU8 = AtomicU8::new(0);

/// `true` if the process-global pricing cache is enabled. On by default;
/// `RESOFTMAX_SIM_CACHE=0` disables it (any other value, or the variable
/// being unset, leaves it on). A programmatic override through
/// [`set_sim_cache_enabled`] takes precedence over the environment.
pub fn sim_cache_enabled() -> bool {
    match SWITCH.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => {
            let on = std::env::var("RESOFTMAX_SIM_CACHE").map_or(true, |v| v.trim() != "0");
            SWITCH.store(if on { 2 } else { 1 }, Ordering::Relaxed);
            on
        }
    }
}

/// Forces the pricing cache on or off for the whole process, or restores
/// environment-driven behavior with `None`. Benches use this to compare
/// cold (cache-off) and warm (cache-on) pricing of the same workload.
pub fn set_sim_cache_enabled(enabled: Option<bool>) {
    let state = match enabled {
        None => 0,
        Some(false) => 1,
        Some(true) => 2,
    };
    SWITCH.store(state, Ordering::Relaxed);
}

/// Empties both cache levels and zeroes the [`sim_cache_stats`] counters.
/// Concurrent simulations are unaffected beyond re-pricing (values are pure
/// functions of their keys, so a racing insert can never store a different
/// answer for the same key).
pub fn clear_sim_cache() {
    kernel_map().write().expect("sim cache poisoned").clear();
    class_map().write().expect("sim cache poisoned").clear();
    for c in [
        &HITS,
        &MISSES,
        &STEPS_SAVED,
        &CLASS_HITS,
        &CLASS_MISSES,
        &CLASS_STEPS_SAVED,
        &DROPPED,
    ] {
        c.store(0, Ordering::Relaxed);
    }
}

/// A snapshot of the process-global pricing-cache counters. Mirrored on the
/// observability counters `sim.cache.{hits,misses,steps_saved,class_hits,
/// class_steps_saved,dropped}` when metrics are enabled; this snapshot is
/// always maintained so benches and tests need no metrics setup.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCacheStats {
    /// Entries in the kernel-price map.
    pub kernel_entries: usize,
    /// Entries in the wave-class dt map.
    pub class_entries: usize,
    /// Kernel-price lookups answered from the cache.
    pub hits: u64,
    /// Kernel-price lookups that fell through to fresh simulation.
    pub misses: u64,
    /// Event steps avoided by kernel-price hits (the steps the original
    /// computation performed, per hit).
    pub steps_saved: u64,
    /// Wave-class dt sequences replayed from the cache.
    pub class_hits: u64,
    /// Wave-class lookups that had to step a wave.
    pub class_misses: u64,
    /// Event steps avoided by wave-class hits.
    pub class_steps_saved: u64,
    /// Results not stored because a map was at capacity.
    pub dropped: u64,
}

/// Reads the current [`SimCacheStats`].
pub fn sim_cache_stats() -> SimCacheStats {
    SimCacheStats {
        kernel_entries: kernel_map().read().expect("sim cache poisoned").len(),
        class_entries: class_map().read().expect("sim cache poisoned").len(),
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        steps_saved: STEPS_SAVED.load(Ordering::Relaxed),
        class_hits: CLASS_HITS.load(Ordering::Relaxed),
        class_misses: CLASS_MISSES.load(Ordering::Relaxed),
        class_steps_saved: CLASS_STEPS_SAVED.load(Ordering::Relaxed),
        dropped: DROPPED.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv128_matches_reference_vectors() {
        // Published FNV-1a 128-bit test vectors.
        let mut h = Fnv128::new();
        h.bytes(b"");
        assert_eq!(h.finish(), 0x6c62272e07bb014262b821756295c58d);
        let mut h = Fnv128::new();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xd228cb696f1a8caf78912b704e4a8964);
    }

    #[test]
    fn kernel_key_distinguishes_every_input() {
        let dev = device_fingerprint(&DeviceSpec::a100());
        let shape = TbShape::new(256, 0, 32);
        let work = TbWork::memory(1024.0, 1024.0);
        let base = kernel_key(
            dev,
            true,
            &shape,
            8,
            1.0,
            GridRef::Uniform {
                count: 100,
                work: &work,
            },
        );
        let keys = [
            kernel_key(
                device_fingerprint(&DeviceSpec::t4()),
                true,
                &shape,
                8,
                1.0,
                GridRef::Uniform {
                    count: 100,
                    work: &work,
                },
            ),
            kernel_key(
                dev,
                false,
                &shape,
                8,
                1.0,
                GridRef::Uniform {
                    count: 100,
                    work: &work,
                },
            ),
            kernel_key(
                dev,
                true,
                &TbShape::new(128, 0, 32),
                8,
                1.0,
                GridRef::Uniform {
                    count: 100,
                    work: &work,
                },
            ),
            kernel_key(
                dev,
                true,
                &shape,
                4,
                1.0,
                GridRef::Uniform {
                    count: 100,
                    work: &work,
                },
            ),
            kernel_key(
                dev,
                true,
                &shape,
                8,
                0.5,
                GridRef::Uniform {
                    count: 100,
                    work: &work,
                },
            ),
            kernel_key(
                dev,
                true,
                &shape,
                8,
                1.0,
                GridRef::Uniform {
                    count: 101,
                    work: &work,
                },
            ),
            kernel_key(
                dev,
                true,
                &shape,
                8,
                1.0,
                GridRef::Groups(&[TbGroup::new(work, 100)]),
            ),
        ];
        for (i, k) in keys.iter().enumerate() {
            assert_ne!(base, *k, "variant {i} must not collide with base");
        }
        // Same inputs, same key.
        assert_eq!(
            base,
            kernel_key(
                dev,
                true,
                &shape,
                8,
                1.0,
                GridRef::Uniform {
                    count: 100,
                    work: &work,
                },
            )
        );
    }

    #[test]
    fn group_order_and_split_are_significant() {
        let dev = device_fingerprint(&DeviceSpec::a100());
        let shape = TbShape::new(256, 0, 32);
        let a = TbWork::memory(1.0, 0.0);
        let b = TbWork::memory(2.0, 0.0);
        let ab = kernel_key(
            dev,
            true,
            &shape,
            8,
            1.0,
            GridRef::Groups(&[TbGroup::new(a, 3), TbGroup::new(b, 5)]),
        );
        let ba = kernel_key(
            dev,
            true,
            &shape,
            8,
            1.0,
            GridRef::Groups(&[TbGroup::new(b, 5), TbGroup::new(a, 3)]),
        );
        assert_ne!(ab, ba, "dispatch order affects the timeline");
        // Splitting one group into two of the same total must change the key:
        // the fluid simulation dispatches and retires them differently.
        let split = kernel_key(
            dev,
            true,
            &shape,
            8,
            1.0,
            GridRef::Groups(&[TbGroup::new(a, 3), TbGroup::new(a, 0), TbGroup::new(b, 5)]),
        );
        assert_ne!(ab, split);
    }

    #[test]
    fn switch_override_beats_environment() {
        // Not parallel-safe with other switch tests, so exercise the whole
        // lifecycle in one test.
        set_sim_cache_enabled(Some(false));
        assert!(!sim_cache_enabled());
        set_sim_cache_enabled(Some(true));
        assert!(sim_cache_enabled());
        set_sim_cache_enabled(None);
        // Environment default: enabled unless RESOFTMAX_SIM_CACHE=0, and the
        // test harness does not set it.
        assert!(sim_cache_enabled());
    }

    #[test]
    #[cfg_attr(miri, ignore = "fills the whole map — too slow under miri")]
    fn capacity_backstop_stops_inserting() {
        let price = KernelPrice {
            time_s: 1.0,
            event_steps: 0,
            fast_path_waves: 0,
        };
        // Synthetic keys: the backstop only looks at map size.
        for i in 0..(MAX_KERNEL_ENTRIES as u128 + 8) {
            insert_kernel(u128::MAX - i, price);
        }
        let stats = sim_cache_stats();
        assert!(stats.kernel_entries <= MAX_KERNEL_ENTRIES);
        assert!(stats.dropped >= 8);
        // Leave the global map empty for other tests in this process.
        clear_sim_cache();
        assert_eq!(sim_cache_stats().kernel_entries, 0);
    }
}
