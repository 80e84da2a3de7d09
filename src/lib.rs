//! # finegrain — fine-grained parallelism for CNN training
//!
//! A Rust reproduction of Dryden, Maruyama, Benson, Moon, Snir &
//! Van Essen, *Improving Strong-Scaling of CNN Training by Exploiting
//! Finer-Grained Parallelism* (IPDPS 2019): distributed-memory
//! convolution with sample, spatial and hybrid parallelism (the paper's
//! channel and filter parallelism are not implemented), a distributed
//! tensor library with halo exchange and redistribution, a performance
//! model, and a parallel-execution-strategy optimizer — plus every
//! substrate (communicator, kernels, serial trainer, models, synthetic
//! data) needed to run it end to end.
//!
//! This crate is a facade: it re-exports the workspace crates under
//! stable names. Start with [`core::DistExecutor`] (distributed
//! training), [`perf::StrategyOptimizer`] (automatic parallelization),
//! or the `examples/` directory.
//!
//! ```
//! use finegrain::comm::run_ranks;
//! use finegrain::core::{DistExecutor, Strategy};
//! use finegrain::nn::{Network, NetworkSpec};
//! use finegrain::tensor::{ProcGrid, Shape4, Tensor};
//! use finegrain::kernels::Labels;
//!
//! // A small segmentation CNN, spatially partitioned over 4 ranks.
//! let mut spec = NetworkSpec::new();
//! let i = spec.input("x", 3, 16, 16);
//! let c = spec.conv("conv", i, 8, 3, 1, 1);
//! let r = spec.relu("relu", c);
//! let p = spec.conv("pred", r, 2, 1, 1, 0);
//! spec.loss("loss", p);
//!
//! let net = Network::init(spec.clone(), 42);
//! let exec = DistExecutor::new(spec, Strategy::uniform(&net.spec, ProcGrid::spatial(2, 2)), 2)
//!     .expect("valid strategy");
//! let x = Tensor::from_fn(Shape4::new(2, 3, 16, 16), |_, c, h, w| (c + h + w) as f32 * 0.1);
//! let labels = Labels::per_pixel(2, 16, 16, vec![0; 2 * 256]);
//! let losses = run_ranks(4, |comm| exec.loss_and_grads(comm, &net.params, &x, &labels).0);
//! assert!(losses.iter().all(|l| *l == losses[0]), "ranks agree on the loss");
//! ```

/// The rank-threaded simulated communicator (MPI/NCCL stand-in).
pub use fg_comm as comm;
/// The paper's contribution: distributed convolution and the executor.
pub use fg_core as core;
/// Synthetic datasets.
pub use fg_data as data;
/// CPU compute kernels (cuDNN stand-in).
pub use fg_kernels as kernels;
/// ResNet-50 and the mesh-tangling models.
pub use fg_models as models;
/// Serial network definition and training.
pub use fg_nn as nn;
/// Performance model and strategy optimizer.
pub use fg_perf as perf;
/// Inference serving tier: admission, batching, replica routing.
pub use fg_serve as serve;
/// Distributed NCHW tensors: halo exchange, redistribution.
pub use fg_tensor as tensor;
