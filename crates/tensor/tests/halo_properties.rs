//! Property tests of the planned halo exchange: plan geometry matches
//! the data actually moved, and once the window invariant holds a second
//! exchange changes nothing — over random shapes, grids and margins.

use fg_comm::{run_ranks, Communicator};
use fg_tensor::halo::{exchange_halo_with_plan, HaloPlan};
use fg_tensor::{DistTensor, ProcGrid, Shape4, Tensor, TensorDist};
use proptest::prelude::*;

fn tensor_from_seed(shape: Shape4, seed: u64) -> Tensor {
    let mut state = seed | 1;
    Tensor::from_fn(shape, |_, _, _, _| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        ((state % 256) as f32) / 32.0 - 4.0
    })
}

fn case() -> impl Strategy<Value = (Shape4, ProcGrid, [usize; 4], u64)> {
    (
        1usize..3,
        1usize..3,
        6usize..14,
        6usize..14,
        prop_oneof![
            Just(ProcGrid::spatial(2, 2)),
            Just(ProcGrid::spatial(3, 1)),
            Just(ProcGrid::spatial(1, 3)),
            Just(ProcGrid::hybrid(2, 2, 1)),
        ],
        0usize..3,
        0usize..3,
        any::<u64>(),
    )
        .prop_filter_map("populated", |(n, c, h, w, grid, mh, mw, seed)| {
            let shape = Shape4::new(n * grid.n, c, h, w);
            TensorDist::new(shape, grid).is_fully_populated().then_some((
                shape,
                grid,
                [0, 0, mh, mw],
                seed,
            ))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn plan_volume_equals_moved_volume((shape, grid, m, seed) in case()) {
        let dist = TensorDist::new(shape, grid);
        let global = tensor_from_seed(shape, seed);
        let checks = run_ranks(grid.size(), |comm| {
            let mut dt = DistTensor::from_global(dist.clone(), comm.rank(), &global, m, m);
            let plan = HaloPlan::build(&dt);
            let before = comm.stats().total_bytes();
            exchange_halo_with_plan(comm, &mut dt, &plan);
            let moved = comm.stats().total_bytes() - before;
            (plan.send_elements() as u64 * 4, moved, plan.recv_elements())
        });
        let mut total_sent = 0usize;
        let mut total_recv = 0usize;
        for (planned, moved, recv) in &checks {
            prop_assert_eq!(*planned, *moved, "plan bytes vs stats bytes");
            total_sent += (*planned / 4) as usize;
            total_recv += recv;
        }
        // Conservation: everything sent is received by someone.
        prop_assert_eq!(total_sent, total_recv);
    }

    #[test]
    fn repeated_exchanges_are_idempotent((shape, grid, m, seed) in case()) {
        // One exchange establishes the window invariant; exchanging again
        // changes nothing (the margins already hold the owners' data).
        let dist = TensorDist::new(shape, grid);
        let global = tensor_from_seed(shape, seed);
        let ok = run_ranks(grid.size(), |comm| {
            let mut dt = DistTensor::from_global(dist.clone(), comm.rank(), &global, m, m);
            let plan = HaloPlan::build(&dt);
            exchange_halo_with_plan(comm, &mut dt, &plan);
            if dt.needed_box().iter().any(|idx| dt.get_global(idx) != Some(global.at_idx(idx))) {
                return false;
            }
            let snapshot = dt.local().clone();
            exchange_halo_with_plan(comm, &mut dt, &plan);
            *dt.local() == snapshot
        });
        prop_assert!(ok.iter().all(|&v| v));
    }
}
