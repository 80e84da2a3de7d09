//! # fg-tensor — distributed NCHW tensors
//!
//! The reproduction of the paper's "small C++ library for distributed
//! tensor data structures" (§IV): a partitioned global view of 4-D
//! tensors decomposed over ranks, with the data-movement primitives CNN
//! training needs, each compiled once into a plan from the layout alone
//! and executed every step:
//!
//! * **halo exchange** between adjacent spatial shards
//!   ([`halo::HaloPlan`], [`halo::exchange_halo_with_plan`], §III-A / §IV),
//! * **redistribution** between layer distributions via all-to-all
//!   ([`shuffle::ShufflePlan`], §III-C),
//! * **gather** of a full tensor at a root ([`gather`]),
//!
//! plus a fourth, offline primitive: **regridding** of checkpointed
//! shards between grids of *different* world sizes
//! ([`regrid::RegridPlan`]), the restore path of elastic degradation.
//!
//! Distributions are *blocked* per dimension over a [`ProcGrid`]
//! (§III's requirement: convolution needs spatially contiguous data).
//! The local shard of a distributed tensor is a *window* onto the global
//! tensor — owned block plus margins — with the invariant that after a
//! halo exchange the window matches the global tensor and out-of-bounds
//! margin cells are zero, doubling as convolution padding.
//!
//! ```
//! use fg_tensor::{DistTensor, ProcGrid, Shape4, Tensor, TensorDist};
//! use fg_tensor::halo::{exchange_halo_with_plan, HaloPlan};
//! use fg_comm::{run_ranks, Communicator};
//!
//! // A 1×1×8×8 image spatially partitioned over a 2×2 grid with a
//! // 1-element halo, as a 3×3 convolution would need.
//! let dist = TensorDist::new(Shape4::new(1, 1, 8, 8), ProcGrid::spatial(2, 2));
//! let global = Tensor::from_fn(dist.shape, |_, _, h, w| (h * 8 + w) as f32);
//! run_ranks(4, |comm| {
//!     let mut x = DistTensor::from_global(dist.clone(), comm.rank(), &global,
//!                                         [0, 0, 1, 1], [0, 0, 1, 1]);
//!     let plan = HaloPlan::build(&x);
//!     exchange_halo_with_plan(comm, &mut x, &plan);
//!     // Rank 0 now sees row 4 (owned by rank 2) in its margin:
//!     if comm.rank() == 0 {
//!         assert_eq!(x.get_global([0, 0, 4, 0]), Some(32.0));
//!     }
//! });
//! ```

pub mod dense;
pub mod dist;
pub mod disttensor;
pub mod gather;
pub mod halo;
pub mod liveness;
pub mod procgrid;
pub mod regrid;
pub mod shape;
pub mod shuffle;
pub mod weights;

pub use dense::Tensor;
pub use dist::TensorDist;
pub use disttensor::DistTensor;
pub use liveness::{peak_bytes, BufClass, LiveInterval, ELT_BYTES};
pub use procgrid::ProcGrid;
pub use regrid::{assemble_tensor, check_box_partition, shard_tensor, RegridPlan};
pub use shape::{Box4, Shape4, NDIMS};
pub use weights::{weighted_block_range, weighted_owner, GridWeights};
