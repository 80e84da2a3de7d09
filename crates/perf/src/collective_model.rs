//! Analytic cost models for collective operations.
//!
//! From Thakur, Rabenseifner & Gropp (IJHPCA 2005), the models the paper
//! adopts for its `AR(p, n)` terms (§II-B, §V-A). `n` is in **bytes**;
//! reduction arithmetic (the γ term) is folded into an effective per-byte
//! compute cost. Multi-node collectives use the bottleneck link level
//! (flat approximation), consistent with NCCL ring behaviour on
//! fat-tree networks.

use fg_comm::AllreduceAlgorithm;

use crate::platform::{Link, Platform};

/// Per-byte cost of the local reduction arithmetic (γ in Thakur et al.):
/// f32 addition at memory-bandwidth-bound rates (~300 GB/s effective).
const GAMMA: f64 = 1.0 / 300e9;

/// Ring allreduce: `2(p−1)α + 2((p−1)/p)nβ + ((p−1)/p)nγ`.
pub fn allreduce_ring(link: Link, p: usize, bytes: f64) -> f64 {
    if p <= 1 {
        return 0.0;
    }
    let pf = p as f64;
    2.0 * (pf - 1.0) * link.alpha
        + 2.0 * ((pf - 1.0) / pf) * bytes * link.beta
        + ((pf - 1.0) / pf) * bytes * GAMMA
}

/// Recursive doubling: `⌈log₂p⌉(α + nβ + nγ)`.
pub fn allreduce_recursive_doubling(link: Link, p: usize, bytes: f64) -> f64 {
    if p <= 1 {
        return 0.0;
    }
    let lg = (p as f64).log2().ceil();
    lg * (link.alpha + bytes * (link.beta + GAMMA))
}

/// Rabenseifner: `2⌈log₂p⌉α + 2((p−1)/p)nβ + ((p−1)/p)nγ`.
pub fn allreduce_rabenseifner(link: Link, p: usize, bytes: f64) -> f64 {
    if p <= 1 {
        return 0.0;
    }
    let pf = p as f64;
    2.0 * pf.log2().ceil() * link.alpha
        + 2.0 * ((pf - 1.0) / pf) * bytes * link.beta
        + ((pf - 1.0) / pf) * bytes * GAMMA
}

/// `AR(p, n)`: the closed form of exactly the algorithm the live
/// collectives and the simulator run for `n` bytes over `p` ranks
/// ([`AllreduceAlgorithm::resolve`]) — "allreduces use different
/// algorithms for different n and p, so its performance cannot be
/// directly deduced from point-to-point performance" (§V-A).
pub fn allreduce_time(platform: &Platform, p: usize, bytes: f64) -> f64 {
    let link = platform.group_link(p);
    // `resolve` takes whole bytes; rounding up keeps a fractional size on
    // the side of the 8 KiB threshold it lies on.
    match AllreduceAlgorithm::Auto.resolve(bytes.ceil() as usize, p) {
        AllreduceAlgorithm::RecursiveDoubling => allreduce_recursive_doubling(link, p, bytes),
        AllreduceAlgorithm::Rabenseifner => allreduce_rabenseifner(link, p, bytes),
        AllreduceAlgorithm::Ring => allreduce_ring(link, p, bytes),
        AllreduceAlgorithm::Auto => unreachable!("Auto resolved above"),
    }
}

/// Allgather (ring): `(p−1)α + ((p−1)/p)nβ`.
fn allgather_time(link: Link, p: usize, bytes: f64) -> f64 {
    if p <= 1 {
        return 0.0;
    }
    let pf = p as f64;
    (pf - 1.0) * link.alpha + ((pf - 1.0) / pf) * bytes * link.beta
}

/// All-to-all (pairwise): `(p−1)α + ((p−1)/p)nβ` with `n` the total
/// bytes a rank exchanges.
pub fn alltoall_time(link: Link, p: usize, bytes: f64) -> f64 {
    allgather_time(link, p, bytes)
}

/// `SR(n)` of §V-A: one send+receive of `n` bytes between neighbors
/// (full-duplex, so one α+βn covers the pair).
pub fn sendrecv_time(link: Link, bytes: f64) -> f64 {
    link.ptp(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link() -> Link {
        Link { alpha: 5e-6, beta: 1.0 / 10e9 }
    }

    #[test]
    fn single_rank_collectives_are_free() {
        assert_eq!(allreduce_ring(link(), 1, 1e6), 0.0);
        assert_eq!(allreduce_recursive_doubling(link(), 1, 1e6), 0.0);
        assert_eq!(allreduce_rabenseifner(link(), 1, 1e6), 0.0);
    }

    #[test]
    fn ring_wins_for_large_messages_rd_for_small() {
        let p = 16;
        // Large message: ring ≈ 2nβ beats RD ≈ 4nβ·log p.
        let big = 100e6;
        assert!(allreduce_ring(link(), p, big) < allreduce_recursive_doubling(link(), p, big));
        // Small message: RD's log p latency beats ring's 2(p−1).
        let small = 64.0;
        assert!(allreduce_recursive_doubling(link(), p, small) < allreduce_ring(link(), p, small));
    }

    #[test]
    fn rabenseifner_combines_best_of_both() {
        let p = 64;
        let n = 10e6;
        let rab = allreduce_rabenseifner(link(), p, n);
        // Bandwidth term like ring, latency term like recursive doubling.
        assert!(rab < allreduce_ring(link(), p, n));
        assert!(rab < allreduce_recursive_doubling(link(), p, n));
    }

    #[test]
    fn allreduce_time_is_monotone_in_p_and_n() {
        let plat = crate::platform::Platform::lassen_like();
        let mut prev = 0.0;
        for p in [2, 4, 8, 16, 64, 256, 2048] {
            let t = allreduce_time(&plat, p, 1e6);
            assert!(t >= prev, "allreduce time must grow with p");
            prev = t;
        }
        assert!(allreduce_time(&plat, 16, 2e6) > allreduce_time(&plat, 16, 1e6));
    }

    /// `AR(p, n)` as it was priced before it followed the live chooser:
    /// the cheaper of Rabenseifner and ring above 8 KiB.
    fn allreduce_time_min_reference(platform: &Platform, p: usize, bytes: f64) -> f64 {
        let link = platform.group_link(p);
        if bytes <= 8192.0 {
            allreduce_recursive_doubling(link, p, bytes)
        } else {
            allreduce_rabenseifner(link, p, bytes).min(allreduce_ring(link, p, bytes))
        }
    }

    /// The model prices exactly the algorithm that runs: on power-of-two
    /// groups — every world the strategy search and the benchmark use —
    /// bit for bit the old `min()`; above 8 KiB on any other group, ring.
    #[test]
    fn allreduce_time_prices_the_resolved_algorithm_bitwise() {
        let plat = crate::platform::Platform::lassen_like();
        for p in (1..=40).chain([64, 127, 128, 129, 512, 2048]) {
            for bytes in [0.0, 4.0, 8188.0, 8192.0, 8196.0, 1048576.0] {
                let got = allreduce_time(&plat, p, bytes);
                let want = if p.is_power_of_two() || bytes <= 8192.0 {
                    allreduce_time_min_reference(&plat, p, bytes)
                } else {
                    allreduce_ring(plat.group_link(p), p, bytes)
                };
                assert_eq!(got.to_bits(), want.to_bits(), "p {p} bytes {bytes}");
            }
        }
    }
}
