//! # fg-nn — single-device CNN training pipeline
//!
//! The serial substrate of the reproduction: declarative network specs
//! ([`NetworkSpec`]), a reference executor ([`Network`]) implementing
//! forward/backward over the DAG (including residual joins), parameter
//! initialization and SGD. The distributed executor in `fg-core` runs
//! the *same spec* under a parallel execution strategy and is tested for
//! equivalence against this one — the paper's "exactly replicates
//! convolution as if performed on a single GPU" property, extended to
//! whole networks.

pub mod ckpt_store;
pub mod graph;
pub mod inference;
pub mod init;
pub mod layer;
pub mod network;
pub mod optimizer;
pub mod params_io;

pub use ckpt_store::{
    CkptStore, LoadedCkpt, Redundancy, StorageFaultPlan, StoreConfig, StoreCounters,
};
pub use graph::{LayerId, NetworkSpec};
pub use inference::RunningStats;
pub use init::init_params;
pub use layer::{LayerKind, LayerParams, LayerSpec};
pub use network::{ForwardPass, Network, BN_EPS};
pub use optimizer::Sgd;
pub use params_io::{load_train_state, save_train_state, CheckpointError, GuardState, TrainState};
