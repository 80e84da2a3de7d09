//! # fg-core — fine-grained parallel convolution and CNN training
//!
//! The reproduction of the paper's primary contribution: distributed-
//! memory algorithms for convolutional layers that exploit parallelism
//! beyond the sample dimension, and a distributed training executor that
//! runs whole CNNs under per-layer *parallel execution strategies*.
//!
//! * [`distconv`] — sample / spatial / hybrid convolution with halo
//!   exchange (§III-A), the halo overlapped with interior compute
//!   (§IV-A), bitwise-equivalent to single-device execution;
//! * [`layers`] — distributed pooling, batch norm (statistics aggregated
//!   over the sample's ranks, §III-B), ReLU, residual joins, global
//!   average pooling, and losses;
//! * [`executor`] — runs an `fg-nn` [`fg_nn::NetworkSpec`] under a
//!   [`strategy::Strategy`], inserting halo exchanges, redistributions
//!   (§III-C) and gradient allreduces where the strategy demands them;
//! * [`strategy`] — strategy containers and validation;
//! * [`verify`] — static schedule verification: symbolically executes
//!   every rank's compiled plans and proves the step deadlock-free and
//!   shape-sound before it runs (every [`DistExecutor::new`] of at most
//!   64 ranks, `repro -- verify`);
//! * [`mem`] — static tensor-liveness analysis over the same compiled
//!   plans: exact per-rank peak-memory bounds (any world size, sampled
//!   ranks), the strategy search's memory term, and a budget gate
//!   (`FG_MEM_BUDGET`, `repro -- memscale`).

pub mod distconv;
pub mod executor;
pub mod guard;
pub mod layers;
pub mod mem;
pub mod resilient;
pub mod servable;
pub mod straggler;
pub mod strategy;
pub mod verify;

pub use distconv::DistConv2d;
pub use executor::{Act, DistExecutor, DistPass};
pub use guard::{Anomaly, StepGuard};
pub use layers::DistPool2d;
pub use mem::{
    analyze_strategy, mem_budget_from_env, sample_ranks, turnaround_bytes, MemCheckKind, MemReport,
    MemViolation, RankMemBound,
};
pub use resilient::{
    resilient_train, ComputeFault, Degradation, DegradeConfig, Rebalance, Replanner,
    ResilientConfig, ResilientReport, RungTimes, SgdHyper,
};
pub use servable::ServableModel;
pub use straggler::{
    rebalance_for_stragglers, StragglerAction, StragglerConfig, StragglerFlag, StragglerGuard,
};
pub use strategy::{Strategy, StrategyError};
pub use verify::{candidate_grid_legal, ComputeOracle, VerifyReport};
