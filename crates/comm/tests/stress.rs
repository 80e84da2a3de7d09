//! Stress and interleaving tests of the simulated communicator:
//! concurrent sub-communicators, mixed collective/p2p traffic, and
//! property tests of collective semantics against sequential references.

use fg_comm::{run_ranks, AllreduceAlgorithm, Collectives, Communicator, ReduceOp, SubComm};
use proptest::prelude::*;

#[test]
fn interleaved_p2p_and_collectives_do_not_cross_match() {
    // Each rank fires user-tagged p2p traffic *between* collectives with
    // tags chosen to collide numerically with plausible counters.
    let out = run_ranks(4, |comm| {
        let next = (comm.rank() + 1) % 4;
        let prev = (comm.rank() + 3) % 4;
        let mut acc = 0.0f64;
        for round in 0..5u64 {
            comm.send(next, round, vec![comm.rank() as f64 + round as f64]);
            let sum = comm.allreduce(&[1.0f64], ReduceOp::Sum)[0];
            acc += sum;
            let got = comm.recv::<f64>(prev, round)[0];
            acc += got;
            comm.barrier();
        }
        acc
    });
    // Each round: allreduce gives 4; recv gives prev + round.
    for (rank, acc) in out.iter().enumerate() {
        let prev = (rank + 3) % 4;
        let want: f64 = (0..5).map(|r| 4.0 + prev as f64 + r as f64).sum();
        assert_eq!(*acc, want, "rank {rank}");
    }
}

#[test]
fn many_disjoint_subgroups_run_collectives_concurrently() {
    // 12 ranks in 4 groups of 3; every group runs a different number of
    // collectives (stressing tag-counter independence across groups).
    let out = run_ranks(12, |comm| {
        let color = (comm.rank() % 4) as u64;
        let sub = SubComm::split(comm, color, comm.rank() as u64);
        let rounds = 1 + (color as usize);
        let mut last = 0.0f64;
        for _ in 0..rounds {
            last = sub.allreduce(&[comm.rank() as f64], ReduceOp::Sum)[0];
        }
        last
    });
    // Group of color c contains ranks {c, c+4, c+8}: sum = 3c + 12.
    for (rank, v) in out.iter().enumerate() {
        let c = rank % 4;
        assert_eq!(*v, (3 * c + 12) as f64, "rank {rank}");
    }
}

#[test]
fn deep_subgroup_nesting() {
    // Split 16 ranks into halves three times; each level reduces.
    let out = run_ranks(16, |comm| {
        let l1 = SubComm::split(comm, (comm.rank() / 8) as u64, comm.rank() as u64);
        let l2 = SubComm::split(&l1, (l1.rank() / 4) as u64, l1.rank() as u64);
        let l3 = SubComm::split(&l2, (l2.rank() / 2) as u64, l2.rank() as u64);
        (
            l1.allreduce(&[1.0f64], ReduceOp::Sum)[0],
            l2.allreduce(&[1.0f64], ReduceOp::Sum)[0],
            l3.allreduce(&[1.0f64], ReduceOp::Sum)[0],
        )
    });
    for v in out {
        assert_eq!(v, (8.0, 4.0, 2.0));
    }
}

#[test]
fn large_payload_allreduce_is_correct_and_deterministic() {
    let n = 1 << 18; // 1 MiB of f32 per rank
    let run = || {
        run_ranks(4, |comm| {
            let data: Vec<f32> = (0..n).map(|i| ((i * (comm.rank() + 1)) % 97) as f32).collect();
            comm.allreduce_with(&data, ReduceOp::Sum, AllreduceAlgorithm::Ring)
        })
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
    for i in [0usize, 1, n / 2, n - 1] {
        let want: f32 = (1..=4).map(|r| ((i * r) % 97) as f32).sum();
        assert_eq!(a[0][i], want, "element {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn gatherv_collects_every_contribution(p in 1usize..8, root_pick in 0usize..8, seed in any::<u32>()) {
        let root = root_pick % p;
        let out = run_ranks(p, |comm| {
            let mine: Vec<u32> = (0..comm.rank() + 1)
                .map(|i| seed ^ (comm.rank() * 31 + i) as u32)
                .collect();
            (mine.clone(), comm.gatherv(root, mine))
        });
        let sent: Vec<Vec<u32>> = out.iter().map(|(mine, _)| mine.clone()).collect();
        for (rank, (_, gathered)) in out.into_iter().enumerate() {
            if rank == root {
                prop_assert_eq!(gathered, Some(sent.clone()));
            } else {
                prop_assert!(gathered.is_none());
            }
        }
    }
}
