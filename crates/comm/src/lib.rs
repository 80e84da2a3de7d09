//! # fg-comm — rank-threaded simulated communicator
//!
//! This crate stands in for the MPI + NCCL + Aluminum substrate that the
//! paper's implementation (LBANN/Distconv) runs on. Instead of processes on
//! a cluster, a *world* of `P` ranks runs as `P` OS threads inside one
//! process, exchanging real messages over in-process channels.
//!
//! The design goals, in order:
//!
//! 1. **Algorithmic fidelity.** Collectives are implemented with the same
//!    algorithms the paper's performance model assumes (Thakur et al.):
//!    ring and recursive-doubling allreduce, Rabenseifner's
//!    reduce-scatter + allgather allreduce, dissemination barrier,
//!    binomial-tree broadcast, and pairwise all-to-all. Who sends what to
//!    whom matches the real thing, so message/byte counts recorded by
//!    [`stats::TrafficStats`] can feed an α–β timing model.
//! 2. **MPI-like semantics.** Per-(source, destination) FIFO ordering,
//!    tag matching with out-of-order stashing, non-blocking sends
//!    (unbounded channels), blocking receives, and `MPI_Comm_split`-style
//!    sub-communicators.
//! 3. **Determinism where it matters.** Reduction algorithms have fixed
//!    operand orders, so repeated runs produce bit-identical results.
//!
//! There is one world-level communicator, [`WorldComm`], and one way to
//! launch it: [`run_ranks`] (options from the environment) or
//! [`run_ranks_opts`] with a [`RunOptions`] value that switches on the
//! integrity protocol ([`integrity`]), seeded fault injection
//! ([`fault`]) or a virtual clock. Every world runs under the deadlock
//! [`watchdog`]. Integrity and faults are fixed stages inside
//! `WorldComm::{send, recv}`, not wrappers around it; the only other
//! [`Communicator`] is the subgroup view [`SubComm`].
//!
//! ## Quick example
//!
//! ```
//! use fg_comm::{run_ranks, Collectives, Communicator, ReduceOp};
//!
//! let sums = run_ranks(4, |comm| {
//!     let mine = vec![comm.rank() as f32; 3];
//!     comm.allreduce(&mine, ReduceOp::Sum)
//! });
//! // 0 + 1 + 2 + 3 = 6 on every rank.
//! assert!(sums.iter().all(|v| v == &vec![6.0f32; 3]));
//! ```

pub mod collectives;
pub mod error;
pub mod fault;
pub mod integrity;
pub mod p2p;
pub mod runtime;
pub mod sim;
pub mod stats;
pub mod subcomm;
pub mod trace;
pub mod watchdog;

pub use collectives::{AllreduceAlgorithm, Collectives, ReduceOp};
pub use error::{attribute_dead_ranks, shrink_survivors, CommError};
pub use fault::FaultPlan;
pub use integrity::DEFAULT_REPLAY_BYTES;
pub use p2p::{
    sub_collective_tag, world_collective_tag, CommScalar, Communicator, ScalarType, Tag,
};
pub use runtime::{
    env_flag, run_ranks, run_ranks_opts, run_ranks_timed, LinkModel, RunOptions, WorldComm,
};
pub use sim::{replay_traces_timed, simulate_traces, BlockedRank, SimError, SimReport};
pub use stats::{OpClass, TrafficStats};
pub use subcomm::{SubComm, SubCommLayout};
pub use trace::{
    check_traces, CheckKind, CollectiveKind, Phase, RankTrace, SimSeconds, TraceEntry, TraceOp,
    TraceRecorder, VerifyStats, Violation,
};
