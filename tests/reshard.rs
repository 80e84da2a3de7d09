//! Property tests for checkpoint re-sharding — the restore path of the
//! elastic-degradation rung. For random source grids, destination grids
//! (different world sizes, non-power-of-two included), and layer
//! shapes, re-laying a grid-tagged `TrainState` from the old
//! `ProcGrid` onto the new one must preserve every parameter and every
//! SGD velocity element **bitwise**, and the stream it writes must not
//! depend on the grid beyond the tag. The bytes a re-shard reports as
//! moved are pinned for every pair of grids.

use finegrain::nn::{
    load_train_state, reshard_train_state, save_train_state, GuardState, LayerParams, TrainState,
};
use finegrain::tensor::{ProcGrid, Shape4, Tensor};
use proptest::prelude::*;

/// Deterministic pseudo-random tensor: every element distinct-ish and
/// derived from the seed, so misplaced blocks cannot alias.
fn filled(seed: u64, shape: Shape4) -> Tensor {
    Tensor::from_fn(shape, |n, c, h, w| {
        let i = ((n * 31 + c * 17 + h * 7 + w) as u64).wrapping_mul(seed | 1);
        (i % 8191) as f32 * 0.013 - 50.0
    })
}

fn filled_vec(seed: u64, len: usize) -> Vec<f32> {
    (0..len).map(|i| ((i as u64 + 3).wrapping_mul(seed | 1) % 4093) as f32 * 0.021 - 40.0).collect()
}

/// A mixed parameter set exercising every `LayerParams` variant.
fn demo_params(seed: u64, oc: usize, ic: usize, k: usize, features: usize) -> Vec<LayerParams> {
    vec![
        LayerParams::None,
        LayerParams::Conv { w: filled(seed, Shape4::new(oc, ic, k, k)) },
        LayerParams::Bn { gamma: filled_vec(seed ^ 2, oc), beta: filled_vec(seed ^ 3, oc) },
        LayerParams::Fc {
            w: filled(seed ^ 4, Shape4::new(features, oc, 1, 1)),
            b: filled_vec(seed ^ 5, features),
        },
    ]
}

fn bits_of(params: &[LayerParams]) -> Vec<Vec<u32>> {
    params
        .iter()
        .map(|p| match p {
            LayerParams::None => Vec::new(),
            LayerParams::Conv { w } => w.as_slice().iter().map(|x| x.to_bits()).collect(),
            LayerParams::Bn { gamma, beta } => {
                gamma.iter().chain(beta.iter()).map(|x| x.to_bits()).collect()
            }
            LayerParams::Fc { w, b } => {
                w.as_slice().iter().chain(b.iter()).map(|x| x.to_bits()).collect()
            }
        })
        .collect()
}

/// Grid pool spanning world sizes 1–8, including the non-power-of-two
/// sizes a shrink produces and channel/sample-partitioned layouts.
const GRIDS: [ProcGrid; 10] = [
    ProcGrid::new(1, 1, 1, 1),
    ProcGrid::new(1, 1, 1, 2),
    ProcGrid::new(1, 1, 1, 3),
    ProcGrid::new(1, 1, 2, 2),
    ProcGrid::new(1, 1, 3, 1),
    ProcGrid::new(2, 1, 1, 2),
    ProcGrid::new(1, 2, 2, 1),
    ProcGrid::new(1, 1, 2, 3),
    ProcGrid::new(2, 2, 1, 1),
    ProcGrid::new(1, 1, 7, 1),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Params and SGD velocity survive old-grid → new-grid re-sharding
    /// bitwise, for arbitrary grid pairs of unequal world sizes.
    #[test]
    fn resharding_is_bitwise_lossless(
        seed in 1u64..u32::MAX as u64,
        old_i in 0usize..10,
        new_i in 0usize..10,
        oc in 2usize..=5, ic in 1usize..=3, k in 1usize..=3, features in 1usize..=4,
    ) {
        let old = GRIDS[old_i];
        let new = GRIDS[new_i];
        let params = demo_params(seed, oc, ic, k, features);
        let velocity = demo_params(seed.rotate_left(17), oc, ic, k, features);
        let state = TrainState {
            step: 12,
            params: params.clone(),
            velocity: velocity.clone(),
            losses: vec![1.5, 1.25],
            guard: GuardState::default(),
            grid: old,
        };
        let (resharded, stats) = reshard_train_state(&state, new);
        prop_assert_eq!(resharded.grid, new);
        prop_assert_eq!(bits_of(&resharded.params), bits_of(&params));
        prop_assert_eq!(bits_of(&resharded.velocity), bits_of(&velocity));
        prop_assert!(stats.moved_bytes <= stats.total_bytes);
        // Identity regrids move nothing; real regrids account all bytes.
        if old == new {
            prop_assert_eq!(stats.moved_bytes, 0);
        }
        // The re-laid state round-trips through the wire format on
        // the new grid — the degraded world can actually load it.
        let mut buf = Vec::new();
        save_train_state(&mut buf, &resharded).unwrap();
        let loaded = load_train_state(&mut buf.as_slice()).unwrap();
        prop_assert_eq!(loaded.grid, new);
        prop_assert_eq!(bits_of(&loaded.params), bits_of(&params));
        prop_assert_eq!(bits_of(&loaded.velocity), bits_of(&velocity));
    }

    /// A snapshot is its whole tensors: under every grid the stream is
    /// the single writer's, byte for byte, but for the 32-byte grid tag
    /// after the magic.
    #[test]
    fn the_grid_changes_only_the_tag(
        seed in 1u64..u32::MAX as u64,
        oc in 2usize..=5, ic in 1usize..=3, k in 1usize..=3, features in 1usize..=4,
    ) {
        let state = TrainState {
            step: 5,
            params: demo_params(seed, oc, ic, k, features),
            velocity: demo_params(seed ^ 9, oc, ic, k, features),
            losses: vec![0.75; 5],
            guard: GuardState::default(),
            grid: GRIDS[0],
        };
        let mut single = Vec::new();
        save_train_state(&mut single, &state).unwrap();
        for grid in GRIDS {
            let mut buf = Vec::new();
            save_train_state(&mut buf, &TrainState { grid, ..state.clone() }).unwrap();
            prop_assert_eq!(buf.len(), single.len());
            prop_assert_eq!(&buf[..8], &single[..8]);
            let tag: Vec<u8> = grid.dims().iter().flat_map(|&d| (d as u64).to_le_bytes()).collect();
            prop_assert_eq!(&buf[8..40], &tag[..]);
            prop_assert_eq!(&buf[40..], &single[40..]);
        }
    }
}

/// `(tensors, moved_bytes, total_bytes)` of re-sharding one fixed
/// state between every ordered pair of [`GRIDS`], as recorded before
/// the re-shard stopped copying tensors and was computed from geometry.
#[test]
fn reshard_stats_match_the_recorded_ones() {
    const TENSORS: usize = 10;
    const TOTAL_BYTES: u64 = 1352;
    const MOVED_BYTES: [[u64; 10]; 10] = [
        [0, 360, 720, 600, 720, 776, 664, 840, 808, 720],
        [360, 0, 720, 360, 720, 560, 744, 840, 880, 720],
        [720, 720, 0, 840, 720, 992, 824, 360, 928, 720],
        [600, 360, 840, 0, 480, 632, 784, 840, 920, 480],
        [720, 720, 720, 480, 0, 896, 904, 840, 928, 0],
        [776, 560, 992, 632, 896, 0, 888, 1064, 544, 896],
        [664, 744, 824, 784, 904, 888, 0, 864, 904, 904],
        [840, 840, 360, 840, 840, 1064, 864, 0, 1016, 840],
        [808, 880, 928, 920, 928, 544, 904, 1016, 0, 928],
        [720, 720, 720, 480, 0, 896, 904, 840, 928, 0],
    ];
    let state = TrainState {
        step: 3,
        params: demo_params(7, 5, 3, 3, 4),
        velocity: demo_params(11, 5, 3, 3, 4),
        losses: vec![0.5; 3],
        guard: GuardState::default(),
        grid: GRIDS[0],
    };
    let mut moved = [[0u64; 10]; 10];
    for (i, &old) in GRIDS.iter().enumerate() {
        for (j, &new) in GRIDS.iter().enumerate() {
            let (_, stats) = reshard_train_state(&TrainState { grid: old, ..state.clone() }, new);
            assert_eq!(
                (stats.tensors, stats.total_bytes),
                (TENSORS, TOTAL_BYTES),
                "{old:?} -> {new:?}"
            );
            moved[i][j] = stats.moved_bytes;
        }
    }
    assert_eq!(moved, MOVED_BYTES, "new table:\n{moved:?}");
}
