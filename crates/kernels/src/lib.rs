//! # fg-kernels — CPU compute kernels (the cuDNN stand-in)
//!
//! The paper relies on cuDNN for "optimized compute kernels" and treats
//! their runtime as an empirical black box (§II-A, §V-A). This crate
//! supplies the same operator set with CPU implementations whose
//! *numerics* are what the reproduction needs: the distributed
//! algorithms in `fg-core` must produce bit-comparable results to a
//! single-device run, and these kernels are the common denominator both
//! sides execute.
//!
//! Two design points carry the distributed machinery:
//!
//! * **Region form.** Every spatial kernel can compute an arbitrary
//!   global sub-range of its output while reading a *window* buffer
//!   (shard + halo + materialized zero padding) addressed by a global
//!   origin. The serial wrappers are one-rank windows, so serial and
//!   distributed runs share inner loops.
//! * **Split reductions.** Batch-norm is factored into partial-moment /
//!   finalize / apply stages so the distributed layer can interpose an
//!   allreduce (paper §III-B's "aggregated" batch norm).
//!
//! Convolution is one algorithm — direct loops over register tiles
//! (a block of channels × a chunk of adjacent columns, see [`conv`]),
//! whose per-output summation order is part of the bitwise contract;
//! [`gemm`] serves the fully-connected layer. The crate is safe Rust
//! by construction: the kernels get their speed from loops the
//! autovectorizer handles, not from `unsafe`.

#![forbid(unsafe_code)]

pub mod batchnorm;
pub mod conv;
pub mod gemm;
pub mod loss;
pub mod pool;
pub mod relu;

pub use batchnorm::{bn_backward, bn_forward, BnPartials, BnStats};
pub use conv::{conv2d_backward_data, conv2d_backward_filter, conv2d_forward, ConvGeometry};
pub use loss::{softmax_cross_entropy, Labels};
pub use pool::{pool2d_backward, pool2d_forward, PoolKind};
pub use relu::{relu_backward, relu_forward};
