//! An event-driven GPU performance and energy simulator.
//!
//! This crate substitutes for the A100 / RTX 3090 / T4 hardware used in the
//! paper (see `DESIGN.md` at the repository root). It models exactly the
//! mechanisms the paper's results depend on:
//!
//! * **Occupancy** ([`occupancy`]): resident thread blocks per SM limited by
//!   threads / shared memory / registers — the resource-allocation argument
//!   behind the sparse-softmax inefficiency in §5.1.
//! * **Bandwidth utilization** ([`bandwidth`]): achieved DRAM bandwidth as a
//!   saturating function of concurrently memory-active threads.
//! * **L2 residency** ([`L2Cache`]): whole-buffer LRU determining which
//!   inter-kernel transfers (e.g. the decomposed softmax's `m'`,`d'`,`r'`)
//!   avoid DRAM.
//! * **Execution** ([`Gpu::launch`]): wave-analytic for uniform grids,
//!   event-driven fluid simulation for heterogeneous (block-sparse) grids,
//!   exposing load imbalance and tail waves.
//! * **Accounting** ([`Timeline`] / [`Breakdown`]): per-kernel time, traffic
//!   and energy aggregated per category, mirroring the paper's figures.
//! * **Pricing cache** ([`sim_cache_stats`] / [`set_sim_cache_enabled`]): a
//!   process-global, content-addressed memo of kernel durations and
//!   wave-class dt sequences — repeated kernels anywhere (tuner candidates,
//!   serve iterations, sweeps) price in O(lookup) with bit-identical
//!   timelines. `RESOFTMAX_SIM_CACHE=0` disables it.
//! * **Layer-periodic replay** ([`PeriodicSchedule`]): a transformer stack
//!   given as one layer and a layer count is priced layer by layer until a
//!   layer starts from the previous layer's L2 state shifted by one layer;
//!   every later layer then repeats that layer's [`KernelStats`], so
//!   [`Gpu::run`] prices two or three of GPT-Neo's 24 decode layers instead
//!   of all of them, with a timeline bit-identical to the expanded schedule.
//!   It reuses priced results, so it is off whenever the pricing cache is.
//!
//! # Example
//!
//! ```
//! use resoftmax_gpusim::{DeviceSpec, Gpu, KernelCategory, KernelDesc, TbShape, TbWork};
//!
//! // A memory-bound softmax-like kernel on an A100.
//! let mut gpu = Gpu::new(DeviceSpec::a100());
//! let kernel = KernelDesc::builder("softmax", KernelCategory::Softmax)
//!     .shape(TbShape::new(1024, 8192, 32))
//!     .uniform(4096, TbWork::memory(8192.0, 8192.0))
//!     .build();
//! let stats = gpu.launch(&kernel)?;
//! // Memory-bound: the achieved bandwidth should be near peak.
//! assert!(stats.achieved_bw_fraction > 0.5);
//! # Ok::<(), resoftmax_gpusim::LaunchError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bandwidth;
pub mod chrome_trace;
pub mod compare;
mod device;
mod kernel;
mod l2;
mod occupancy;
mod pricing;
pub mod roofline;
mod schedule;
mod sim;
mod trace;

pub use device::{DeviceSpec, InvalidDeviceError};
pub use kernel::{
    AccumFormat, BufferUse, KernelCategory, KernelDesc, KernelDescBuilder, KernelMeta,
    ParallelSplit, TbGroup, TbSet, TbShape, TbWork,
};
pub use l2::{FilteredTraffic, L2Cache};
pub use occupancy::{occupancy, LaunchError, Occupancy, OccupancyLimiter};
pub use pricing::{
    clear_sim_cache, set_sim_cache_enabled, sim_cache_enabled, sim_cache_stats, SimCacheStats,
    MAX_CLASS_ENTRIES, MAX_KERNEL_ENTRIES,
};
pub use schedule::{PeriodicSchedule, ScheduleRef};
pub use sim::Gpu;
pub use trace::{Breakdown, CategoryTotals, KernelStats, Timeline};
