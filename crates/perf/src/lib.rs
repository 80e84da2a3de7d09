//! # fg-perf — performance model and strategy optimizer
//!
//! The reproduction of the paper's §V: analytic α–β communication models
//! (two-level, NVLink-within-node / InfiniBand-between-nodes), Thakur et
//! al. collective models, a device compute oracle standing in for the
//! paper's empirical cuDNN microbenchmarks, per-layer cost formulas
//! (`FP`, `BPx`, `BPw`, `BPa` with halo and allreduce overlapping), and
//! the shortest-path parallel-execution-strategy optimizer of §V-C.
//!
//! The evaluation harness (`fg-bench`) uses these models to regenerate
//! the paper's tables and figures at full Lassen scale (up to 2048
//! simulated GPUs), and the integration tests validate the model's
//! *trends* against actual execution on the thread-simulated
//! communicator at small scale — mirroring how the paper validates its
//! model against its own measurements (§VI-B3).

pub mod candidates;
pub mod collective_model;
pub mod cost;
pub mod optimizer;
pub mod oracle;
pub mod platform;
pub mod replan;

pub use cost::{
    conv_layer_cost, layer_cost, network_cost, shuffle_cost, ConvLayerDesc, CostBreakdown,
    CostOptions, LayerCost,
};
pub use optimizer::{SearchStats, StrategyOptimizer};
pub use oracle::{platform_link_model, ModeledCompute, SlowedCompute};
pub use platform::{ConvPass, ConvWork, DeviceModel, Link, Platform, V100_BYTES};
pub use replan::degrade_replanner;
