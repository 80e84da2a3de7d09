//! Message-count and byte-volume validation of the collective
//! algorithms against the Thakur et al. formulas the performance model
//! uses (§II-B of the paper). This is the link that makes the α–β cost
//! model trustworthy: the executed algorithms move exactly the traffic
//! the formulas charge for.

use fg_comm::{run_ranks, AllreduceAlgorithm, Collectives, Communicator, OpClass, ReduceOp};

/// Per-rank (messages, bytes) sent during one allreduce of `n` f32.
fn allreduce_traffic(p: usize, n: usize, alg: AllreduceAlgorithm) -> Vec<(u64, u64)> {
    run_ranks(p, |comm| {
        let data = vec![comm.rank() as f32; n];
        let _ = comm.allreduce_with(&data, ReduceOp::Sum, alg);
        let s = comm.stats();
        (s.messages(OpClass::Allreduce), s.bytes(OpClass::Allreduce))
    })
}

#[test]
fn ring_allreduce_traffic_matches_thakur() {
    // Ring: every rank sends 2(P−1) chunks totalling 2·(P−1)/P·n elements.
    for p in [2usize, 4, 8] {
        let n = 4096usize; // divisible by all p above
        let t = allreduce_traffic(p, n, AllreduceAlgorithm::Ring);
        for (msgs, bytes) in &t {
            assert_eq!(*msgs, 2 * (p as u64 - 1), "P={p}");
            assert_eq!(*bytes, (2 * (p - 1) * n / p * 4) as u64, "P={p}");
        }
    }
}

#[test]
fn recursive_doubling_traffic_matches_thakur() {
    // Power-of-two P: log₂P rounds, each sending the whole vector.
    for p in [2usize, 4, 8, 16] {
        let n = 1000usize;
        let t = allreduce_traffic(p, n, AllreduceAlgorithm::RecursiveDoubling);
        let lg = (p as f64).log2() as u64;
        for (msgs, bytes) in &t {
            assert_eq!(*msgs, lg, "P={p}");
            assert_eq!(*bytes, lg * (n * 4) as u64, "P={p}");
        }
    }
}

#[test]
fn rabenseifner_traffic_matches_thakur() {
    // Power-of-two P: 2·log₂P messages, 2·(P−1)/P·n elements
    // (recursive halving down, doubling back up).
    for p in [2usize, 4, 8] {
        let n = 4096usize;
        let t = allreduce_traffic(p, n, AllreduceAlgorithm::Rabenseifner);
        let lg = (p as f64).log2() as u64;
        for (msgs, bytes) in &t {
            assert_eq!(*msgs, 2 * lg, "P={p}");
            assert_eq!(*bytes, (2 * (p - 1) * n / p * 4) as u64, "P={p}");
        }
    }
}

#[test]
fn auto_sends_the_chosen_algorithms_messages() {
    // 16 KiB, above the recursive-doubling threshold: ring's 2(P−1)
    // messages at P = 2 and at non-powers of two, Rabenseifner's
    // 2·log₂P at the other powers of two.
    let n = 4096usize;
    for (p, alg, msgs) in [
        (2usize, AllreduceAlgorithm::Ring, 2u64),
        (3, AllreduceAlgorithm::Ring, 4),
        (4, AllreduceAlgorithm::Rabenseifner, 4),
        (5, AllreduceAlgorithm::Ring, 8),
        (8, AllreduceAlgorithm::Rabenseifner, 6),
    ] {
        let auto = allreduce_traffic(p, n, AllreduceAlgorithm::Auto);
        assert_eq!(auto, allreduce_traffic(p, n, alg), "P={p}: Auto is not {alg:?}");
        for (rank, (got, _)) in auto.iter().enumerate() {
            assert_eq!(*got, msgs, "P={p} rank {rank}");
        }
    }
}

#[test]
fn non_power_of_two_pays_the_fold_in_surcharge() {
    // P = 2^k + r: the pre/post fold-in adds up to 2 extra full-vector
    // messages on the paired ranks. Verify totals stay within the
    // documented bound rather than exploding.
    let p = 6usize;
    let n = 1024usize;
    let t = allreduce_traffic(p, n, AllreduceAlgorithm::RecursiveDoubling);
    let full = (n * 4) as u64;
    for (rank, (msgs, bytes)) in t.iter().enumerate() {
        // Surviving ranks: 2 main rounds (pof2=4) + ≤2 fold messages.
        assert!(*msgs <= 4, "rank {rank}: {msgs} messages");
        assert!(*bytes <= 4 * full, "rank {rank}: {bytes} bytes");
        // Everyone participates.
        assert!(*msgs >= 1, "rank {rank} sent nothing");
    }
}

#[test]
fn reduce_scatter_and_allgather_volumes() {
    // Ring allgather moves (P−1)/P·n elements.
    let p = 4usize;
    let n = 4000usize;
    let t = run_ranks(p, |comm| {
        let _ = comm.allgatherv(vec![2.0f32; n / p]);
        comm.stats().bytes(OpClass::Allgather)
    });
    for ag in &t {
        assert_eq!(*ag, ((p - 1) * (n / p) * 4) as u64);
    }
}

#[test]
fn barrier_uses_log_rounds() {
    for p in [2usize, 3, 4, 7, 8] {
        let t = run_ranks(p, |comm| {
            comm.barrier();
            comm.stats().messages(OpClass::Barrier)
        });
        let want = (p as f64).log2().ceil() as u64;
        for msgs in &t {
            assert_eq!(*msgs, want, "P={p}: dissemination barrier rounds");
        }
    }
}
