//! Storage-chaos properties of the durable checkpoint store: for any
//! seeded fault schedule (fault kind × targeted store call × targeted
//! shard), version count, and redundancy level, recovery must land on
//! the newest *verifiable* version — exactly the version an exhaustive
//! per-version scan finds — and training resumed from the recovered
//! state must be bitwise identical to resuming from the in-memory
//! reference. Never a panic, never a silent stale resume.

use fg_kernels::loss::Labels;
use fg_nn::{
    save_train_state, CheckpointError, CkptStore, GuardState, Network, NetworkSpec, Redundancy,
    Sgd, StorageFaultPlan, StoreConfig, TrainState,
};
use fg_tensor::{ProcGrid, Shape4, Tensor};
use proptest::prelude::*;

const LR: f32 = 0.05;
const MOMENTUM: f32 = 0.9;
const WEIGHT_DECAY: f32 = 1e-4;

fn tiny_net() -> Network {
    let mut spec = NetworkSpec::new();
    let i = spec.input("x", 2, 8, 8);
    let c1 = spec.conv("c1", i, 4, 3, 1, 1);
    let r1 = spec.relu("r1", c1);
    let c2 = spec.conv("c2", r1, 2, 3, 1, 1);
    spec.loss("l", c2);
    Network::init(spec, 4242)
}

fn batch() -> (Tensor, Labels) {
    let x = Tensor::from_fn(Shape4::new(2, 2, 8, 8), |n, c, h, w| {
        ((n * 7 + c * 3 + h * 2 + w) % 11) as f32 * 0.14 - 0.8
    });
    let labels = Labels::per_pixel(2, 8, 8, (0..2 * 8 * 8).map(|i| (i % 2) as u32).collect());
    (x, labels)
}

fn bytes_of(state: &TrainState) -> Vec<u8> {
    let mut v = Vec::new();
    save_train_state(&mut v, state).expect("in-memory serialization");
    v
}

/// Two more optimizer steps from a snapshot; the loss bit patterns are
/// the resumed trajectory.
fn resume_bits(spec: &NetworkSpec, state: &TrainState, x: &Tensor, labels: &Labels) -> Vec<u64> {
    let mut net = Network { spec: spec.clone(), params: state.params.clone() };
    let mut opt = Sgd::with_state(LR, MOMENTUM, WEIGHT_DECAY, state.velocity.to_vec());
    (0..2)
        .map(|_| {
            let (loss, grads) = net.loss_and_grads(x, labels);
            opt.step(&mut net.params, &grads);
            loss.to_bits()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The core chaos property. `fault_call` past the last store call
    /// (and crash-before-rename, which hides the version entirely) are
    /// deliberately in range: a schedule that hits nothing must change
    /// nothing.
    #[test]
    fn recovery_lands_on_newest_verifiable_version_with_bitwise_resume(
        versions in 1usize..=4,
        fault_call in 0u64..5,
        shard in 0usize..4,
        kind in 0u8..4,
        redundancy in 0u8..4,
        seed in 0u64..1024,
    ) {
        let redundancy = match redundancy {
            0 => Redundancy::None,
            1 => Redundancy::Replicas(1),
            2 => Redundancy::Replicas(2),
            _ => Redundancy::Parity { group: 2 },
        };
        let plan = match kind {
            0 => StorageFaultPlan::new(seed).torn_write_at(fault_call, shard),
            1 => StorageFaultPlan::new(seed).bit_flip_at(fault_call, shard),
            2 => StorageFaultPlan::new(seed).delete_shard_at(fault_call, shard),
            _ => StorageFaultPlan::new(seed).crash_before_rename_at(fault_call),
        };
        let dir = std::env::temp_dir().join(format!(
            "fg-ckpt-chaos-{}-v{versions}-c{fault_call}-s{shard}-k{kind}-r{redundancy:?}-{seed}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        // Train `versions` steps, publishing a version after each; keep
        // the in-memory reference states the store must reproduce.
        let (x, labels) = batch();
        let mut net = tiny_net();
        let spec = net.spec.clone();
        let mut opt = Sgd::new(LR, MOMENTUM, WEIGHT_DECAY, &net.params);
        let mut losses = Vec::new();
        let mut reference: Vec<TrainState> = Vec::new();
        {
            let mut store = CkptStore::create(
                StoreConfig::at(&dir).redundancy(redundancy).faults(plan),
            )
            .expect("store creation is fault-free");
            for step in 1..=versions as u64 {
                let (loss, grads) = net.loss_and_grads(&x, &labels);
                opt.step(&mut net.params, &grads);
                losses.push(loss);
                let state = TrainState {
                    step,
                    params: net.params.clone(),
                    velocity: opt.velocity().to_vec(),
                    losses: losses.clone(),
                    guard: GuardState::default(),
                    grid: ProcGrid::spatial(2, 2),
                };
                let version = store.store(&state).expect("store never surfaces injected faults");
                prop_assert_eq!(version, step, "versions are monotonic, even across crashes");
                reference.push(state);
            }
        }

        // Ground truth: an exhaustive newest→oldest scan of what is
        // actually loadable from disk (reconstruction included).
        let mut scan = CkptStore::create(StoreConfig::at(&dir)).expect("reopen");
        let mut on_disk = scan.versions();
        on_disk.sort_unstable();
        let newest_verifiable =
            on_disk.iter().rev().find(|&&v| scan.load_version(v).is_ok()).copied();

        let mut store = CkptStore::create(StoreConfig::at(&dir)).expect("reopen");
        match newest_verifiable {
            None => {
                // Every published version is damaged beyond the
                // redundancy budget: the failure must be typed.
                match store.load_latest() {
                    Err(CheckpointError::NoVerifiableVersion { tried, .. }) => {
                        prop_assert_eq!(tried, on_disk.len())
                    }
                    other => prop_assert!(false, "expected NoVerifiableVersion, got {:?}", other),
                }
                prop_assert_eq!(store.counters().version_fallbacks, on_disk.len() as u64);
            }
            Some(expect) => {
                let loaded = store.load_latest().expect("scan found a verifiable version");
                prop_assert_eq!(loaded.version, expect, "recovery = newest verifiable");
                let want = &reference[expect as usize - 1];
                prop_assert_eq!(loaded.state.step, want.step);
                prop_assert_eq!(bytes_of(&loaded.state), bytes_of(want), "bitwise state");
                prop_assert_eq!(
                    resume_bits(&spec, &loaded.state, &x, &labels),
                    resume_bits(&spec, want, &x, &labels),
                    "bitwise resumed trajectory"
                );
                // Versions skipped on the way down were counted.
                let skipped = on_disk.iter().filter(|&&v| v > expect).count();
                prop_assert_eq!(store.counters().version_fallbacks, skipped as u64);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
