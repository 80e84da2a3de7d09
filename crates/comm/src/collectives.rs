//! Collective operations, built generically on [`Communicator`] p2p.
//!
//! The algorithms follow Thakur, Rabenseifner & Gropp, *Optimization of
//! Collective Communication Operations in MPICH* (IJHPCA 2005) — the same
//! paper the reproduction target cites for its collective cost models
//! (§II-B), so the traffic generated here matches what the performance
//! model in `fg-perf` predicts:
//!
//! * **barrier** — dissemination algorithm, ⌈log₂ P⌉ rounds;
//! * **allreduce** — ring (bandwidth-optimal, any P), recursive doubling
//!   (latency-optimal, non-power-of-two handled with the standard
//!   fold-in pre/post step), and Rabenseifner's reduce-scatter +
//!   allgather;
//! * **allgather(v)** — ring; **gather(v)** — linear;
//! * **all-to-all(v)** — P-step rotation (pairwise exchange).
//!
//! All reductions use fixed operand orders, so results are deterministic
//! and identical on every rank of the communicator.

use crate::p2p::{CommScalar, Communicator};
use crate::stats::OpClass;

/// Scalars that support the reduction operations of [`ReduceOp`].
pub trait ReduceScalar: CommScalar + PartialOrd {
    /// Additive identity.
    fn zero() -> Self;
    /// `a + b`.
    fn add(a: Self, b: Self) -> Self;
    /// `a * b`.
    fn mul(a: Self, b: Self) -> Self;
}

macro_rules! impl_reduce_scalar {
    ($($t:ty),*) => {$(
        impl ReduceScalar for $t {
            fn zero() -> Self { 0 as $t }
            fn add(a: Self, b: Self) -> Self { a + b }
            fn mul(a: Self, b: Self) -> Self { a * b }
        }
    )*};
}
impl_reduce_scalar!(f32, f64, i32, i64, u32, u64, usize, u8);

/// Elementwise reduction operator for collectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Elementwise sum.
    Sum,
    /// Elementwise product.
    Prod,
    /// Elementwise maximum.
    Max,
    /// Elementwise minimum.
    Min,
}

impl ReduceOp {
    /// Apply the operator to a pair of scalars. Operand order is the
    /// caller's responsibility; collectives fix it by rank order so that
    /// floating-point results are deterministic.
    #[inline]
    fn apply<T: ReduceScalar>(self, a: T, b: T) -> T {
        match self {
            ReduceOp::Sum => T::add(a, b),
            ReduceOp::Prod => T::mul(a, b),
            ReduceOp::Max => {
                if b > a {
                    b
                } else {
                    a
                }
            }
            ReduceOp::Min => {
                if b < a {
                    b
                } else {
                    a
                }
            }
        }
    }

    /// Reduce `src` into `acc` elementwise as `acc[i] = op(acc[i], src[i])`.
    #[inline]
    fn fold_into<T: ReduceScalar>(self, acc: &mut [T], src: &[T]) {
        debug_assert_eq!(acc.len(), src.len());
        for (a, s) in acc.iter_mut().zip(src) {
            *a = self.apply(*a, *s);
        }
    }

    /// Reduce `src` into `acc` elementwise as `acc[i] = op(src[i], acc[i])`
    /// (source operand on the left; used to keep rank-order determinism).
    #[inline]
    fn fold_into_rev<T: ReduceScalar>(self, acc: &mut [T], src: &[T]) {
        debug_assert_eq!(acc.len(), src.len());
        for (a, s) in acc.iter_mut().zip(src) {
            *a = self.apply(*s, *a);
        }
    }
}

/// Choice of allreduce algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllreduceAlgorithm {
    /// Ring reduce-scatter + ring allgather. Bandwidth-optimal,
    /// 2(P−1) steps; works for any P.
    Ring,
    /// Recursive doubling: log₂ P steps each moving the whole vector.
    /// Latency-optimal for short messages.
    RecursiveDoubling,
    /// Rabenseifner: recursive-halving reduce-scatter followed by
    /// recursive-doubling allgather. Bandwidth-optimal with log-latency.
    Rabenseifner,
    /// Select by message size and group size (see
    /// [`AllreduceAlgorithm::resolve`]).
    Auto,
}

impl AllreduceAlgorithm {
    /// Resolve [`AllreduceAlgorithm::Auto`] for a payload of `bytes` over
    /// a group of `p` ranks, by Thakur et al.'s ranking:
    ///
    /// * **≤ 8 KiB:** recursive doubling, latency-optimal.
    /// * **Power-of-two `p > 2`:** Rabenseifner. Its β and γ terms equal
    ///   ring's, and its latency term 2·log₂p·α is below ring's
    ///   2(p−1)·α exactly when `p > 2`.
    /// * **Otherwise:** ring. At `p = 2` the two tie. At any other `p`
    ///   Rabenseifner pays two extra full-vector fold-in steps, so which
    ///   one wins depends on the link.
    ///
    /// The one chooser: the live collectives, the discrete-event replay
    /// ([`crate::sim`]) and `fg-perf`'s `allreduce_time` all call it, so
    /// what runs, what is simulated and what is priced never drift.
    pub fn resolve(self, bytes: usize, p: usize) -> AllreduceAlgorithm {
        match self {
            AllreduceAlgorithm::Auto if bytes <= 8192 => AllreduceAlgorithm::RecursiveDoubling,
            AllreduceAlgorithm::Auto if p > 2 && p.is_power_of_two() => {
                AllreduceAlgorithm::Rabenseifner
            }
            AllreduceAlgorithm::Auto => AllreduceAlgorithm::Ring,
            other => other,
        }
    }
}

/// Balanced block partition: the sub-range of `0..total` assigned to
/// `part` of `parts`. The first `total % parts` blocks are one larger.
pub fn block_range(total: usize, parts: usize, part: usize) -> std::ops::Range<usize> {
    debug_assert!(part < parts);
    let base = total / parts;
    let rem = total % parts;
    let lo = part * base + part.min(rem);
    let hi = lo + base + usize::from(part < rem);
    lo..hi
}

/// Collective operations; blanket-implemented for every [`Communicator`].
pub trait Collectives: Communicator + Sized {
    /// Dissemination barrier: ⌈log₂ P⌉ sendrecv rounds.
    fn barrier(&self) {
        let p = self.size();
        if p == 1 {
            return;
        }
        self.with_class(OpClass::Barrier, || {
            let tag = self.next_collective_tag();
            let mut k = 1usize;
            while k < p {
                let dst = (self.rank() + k) % p;
                let src = (self.rank() + p - k) % p;
                // Zero-length payload; only the synchronization matters.
                let _ = self.sendrecv::<u8>(dst, src, tag, Vec::new());
                k <<= 1;
            }
        });
    }

    /// Allreduce with automatic algorithm choice (see
    /// [`AllreduceAlgorithm::Auto`]).
    fn allreduce<T: ReduceScalar>(&self, data: &[T], op: ReduceOp) -> Vec<T> {
        self.allreduce_with(data, op, AllreduceAlgorithm::Auto)
    }

    /// Allreduce with an explicit algorithm.
    fn allreduce_with<T: ReduceScalar>(
        &self,
        data: &[T],
        op: ReduceOp,
        alg: AllreduceAlgorithm,
    ) -> Vec<T> {
        self.allreduce_owned(data.to_vec(), op, alg)
    }

    /// Allreduce that takes its operand's storage and returns the result
    /// in it: the vector is reduced in place, so a caller that owns its
    /// contribution pays no copy on the way in. The borrowed entry
    /// points are this one behind a `to_vec`.
    fn allreduce_owned<T: ReduceScalar>(
        &self,
        data: Vec<T>,
        op: ReduceOp,
        alg: AllreduceAlgorithm,
    ) -> Vec<T> {
        let p = self.size();
        if p == 1 || data.is_empty() {
            return data;
        }
        let alg = alg.resolve(data.len() * T::WIDTH, p);
        self.with_class(OpClass::Allreduce, || match alg {
            AllreduceAlgorithm::Ring => self.allreduce_ring(data, op),
            AllreduceAlgorithm::RecursiveDoubling => self.allreduce_recursive_doubling(data, op),
            AllreduceAlgorithm::Rabenseifner => self.allreduce_rabenseifner(data, op),
            AllreduceAlgorithm::Auto => unreachable!("Auto resolved above"),
        })
    }

    /// Ring allreduce: reduce-scatter rotation then allgather rotation.
    fn allreduce_ring<T: ReduceScalar>(&self, mut buf: Vec<T>, op: ReduceOp) -> Vec<T> {
        let p = self.size();
        let n = buf.len();
        let rank = self.rank();
        let tag = self.next_collective_tag();
        let right = (rank + 1) % p;
        let left = (rank + p - 1) % p;
        // Reduce-scatter: after P−1 steps, chunk c is complete on rank c.
        for step in 0..p - 1 {
            let send_idx = (rank + p - step) % p;
            let recv_idx = (rank + p - step - 1) % p;
            let sr = block_range(n, p, send_idx);
            let rr = block_range(n, p, recv_idx);
            let incoming = self.sendrecv(right, left, tag, buf[sr].to_vec());
            // The incoming partial sum accumulates contributions of ranks
            // recv_idx+1..=rank in ring order; keep it on the left so the
            // final order is by increasing contributing rank.
            op.fold_into_rev(&mut buf[rr], &incoming);
        }
        // Allgather: rotate completed chunks around the ring.
        for step in 0..p - 1 {
            let send_idx = (rank + 1 + p - step) % p;
            let recv_idx = (rank + p - step) % p;
            let sr = block_range(n, p, send_idx);
            let rr = block_range(n, p, recv_idx);
            let incoming = self.sendrecv(right, left, tag, buf[sr].to_vec());
            buf[rr].copy_from_slice_like(&incoming);
        }
        buf
    }

    /// Recursive-doubling allreduce; non-power-of-two P handled by the
    /// standard fold-in of `P − 2^⌊log₂P⌋` extra ranks.
    fn allreduce_recursive_doubling<T: ReduceScalar>(
        &self,
        mut buf: Vec<T>,
        op: ReduceOp,
    ) -> Vec<T> {
        let p = self.size();
        let rank = self.rank();
        let tag = self.next_collective_tag();
        let pof2 = prev_pow2(p);
        let rem = p - pof2;

        // Pre-step: the first 2·rem ranks pair up; odd ranks fold their
        // data into the preceding even rank and sit out the main phase.
        let newrank: isize = if rank < 2 * rem {
            if rank % 2 == 1 {
                self.send(rank - 1, tag, buf.clone());
                -1
            } else {
                let theirs = self.recv::<T>(rank + 1, tag);
                op.fold_into(&mut buf, &theirs);
                (rank / 2) as isize
            }
        } else {
            (rank - rem) as isize
        };

        if newrank >= 0 {
            let newrank = newrank as usize;
            let mut mask = 1usize;
            while mask < pof2 {
                let partner_new = newrank ^ mask;
                let partner = if partner_new < rem { partner_new * 2 } else { partner_new + rem };
                let theirs = self.sendrecv(partner, partner, tag, buf.clone());
                if newrank < partner_new {
                    op.fold_into(&mut buf, &theirs);
                } else {
                    op.fold_into_rev(&mut buf, &theirs);
                }
                mask <<= 1;
            }
        }

        // Post-step: surviving even ranks forward the result to their pair.
        if rank < 2 * rem {
            if rank.is_multiple_of(2) {
                self.send(rank + 1, tag, buf.clone());
            } else {
                buf = self.recv::<T>(rank - 1, tag);
            }
        }
        buf
    }

    /// Rabenseifner's allreduce: recursive-halving reduce-scatter then
    /// recursive-doubling allgather; non-power-of-two handled as above.
    fn allreduce_rabenseifner<T: ReduceScalar>(&self, mut buf: Vec<T>, op: ReduceOp) -> Vec<T> {
        let p = self.size();
        let rank = self.rank();
        let n = buf.len();
        let tag = self.next_collective_tag();
        let pof2 = prev_pow2(p);
        let rem = p - pof2;
        if pof2 == 1 {
            // Degenerate worlds (P = 1 handled by caller; P ≤ 3 with
            // pof2 == 2 proceed below). pof2 == 1 means P == 1.
            return buf;
        }

        let newrank: isize = if rank < 2 * rem {
            if rank % 2 == 1 {
                self.send(rank - 1, tag, buf.clone());
                -1
            } else {
                let theirs = self.recv::<T>(rank + 1, tag);
                op.fold_into(&mut buf, &theirs);
                (rank / 2) as isize
            }
        } else {
            (rank - rem) as isize
        };

        if newrank >= 0 {
            let newrank = newrank as usize;
            let to_real = |nr: usize| if nr < rem { nr * 2 } else { nr + rem };
            // Reduce-scatter by recursive halving. Track the live segment.
            let (mut lo, mut hi) = (0usize, n);
            let mut mask = pof2 >> 1;
            let mut merge_masks = Vec::new();
            while mask > 0 {
                let partner = to_real(newrank ^ mask);
                let mid = lo + (hi - lo) / 2;
                let i_keep_lower = newrank & mask == 0;
                let (keep, give) =
                    if i_keep_lower { ((lo, mid), (mid, hi)) } else { ((mid, hi), (lo, mid)) };
                let theirs = self.sendrecv(partner, partner, tag, buf[give.0..give.1].to_vec());
                if i_keep_lower {
                    // Partner has the higher newrank: its data on the right.
                    op.fold_into(&mut buf[keep.0..keep.1], &theirs);
                } else {
                    op.fold_into_rev(&mut buf[keep.0..keep.1], &theirs);
                }
                lo = keep.0;
                hi = keep.1;
                merge_masks.push(mask);
                mask >>= 1;
            }
            // Allgather by recursive doubling, mirroring the halving.
            for mask in merge_masks.into_iter().rev() {
                let partner = to_real(newrank ^ mask);
                // Reconstruct the segment boundaries of this level.
                let (plo, phi) = segment_at_level(n, newrank, pof2, mask);
                let mid = plo + (phi - plo) / 2;
                let i_have_lower = newrank & mask == 0;
                let (mine, theirs_rng) =
                    if i_have_lower { ((plo, mid), (mid, phi)) } else { ((mid, phi), (plo, mid)) };
                let theirs = self.sendrecv(partner, partner, tag, buf[mine.0..mine.1].to_vec());
                buf[theirs_rng.0..theirs_rng.1].copy_from_slice_like(&theirs);
            }
        }

        if rank < 2 * rem {
            if rank.is_multiple_of(2) {
                self.send(rank + 1, tag, buf.clone());
            } else {
                buf = self.recv::<T>(rank - 1, tag);
            }
        }
        buf
    }

    /// Variable-size allgather: every rank contributes `mine`, and all
    /// ranks receive every contribution, indexed by rank. Ring algorithm.
    fn allgatherv<T: CommScalar>(&self, mine: Vec<T>) -> Vec<Vec<T>> {
        let p = self.size();
        let rank = self.rank();
        if p == 1 {
            return vec![mine];
        }
        self.with_class(OpClass::Allgather, || {
            let tag = self.next_collective_tag();
            let right = (rank + 1) % p;
            let left = (rank + p - 1) % p;
            let mut parts: Vec<Option<Vec<T>>> = (0..p).map(|_| None).collect();
            parts[rank] = Some(mine);
            for step in 0..p - 1 {
                let send_idx = (rank + p - step) % p;
                let recv_idx = (rank + p - step - 1) % p;
                let outgoing = parts[send_idx].clone().expect("chunk present for forwarding");
                let incoming = self.sendrecv(right, left, tag, outgoing);
                parts[recv_idx] = Some(incoming);
            }
            parts.into_iter().map(|x| x.expect("all chunks gathered")).collect()
        })
    }

    /// Linear gather of variable-size contributions to `root`.
    fn gatherv<T: CommScalar>(&self, root: usize, mine: Vec<T>) -> Option<Vec<Vec<T>>> {
        let p = self.size();
        assert!(root < p, "gather root out of range");
        self.with_class(OpClass::GatherScatter, || {
            let tag = self.next_collective_tag();
            if self.rank() == root {
                let mut out: Vec<Option<Vec<T>>> = (0..p).map(|_| None).collect();
                out[root] = Some(mine);
                for src in (0..p).filter(|s| *s != root) {
                    out[src] = Some(self.recv::<T>(src, tag));
                }
                Some(out.into_iter().map(|x| x.expect("gathered")).collect())
            } else {
                self.send(root, tag, mine);
                None
            }
        })
    }

    /// Personalized all-to-all with variable sizes: `sends[d]` goes to
    /// rank `d`; returns `recvs[s]` from every rank `s`. P-step rotation.
    fn alltoallv<T: CommScalar>(&self, mut sends: Vec<Vec<T>>) -> Vec<Vec<T>> {
        let p = self.size();
        let rank = self.rank();
        assert_eq!(sends.len(), p, "one send buffer per rank");
        if p == 1 {
            return sends;
        }
        self.with_class(OpClass::AllToAll, || {
            let tag = self.next_collective_tag();
            let mut recvs: Vec<Option<Vec<T>>> = (0..p).map(|_| None).collect();
            recvs[rank] = Some(std::mem::take(&mut sends[rank]));
            for step in 1..p {
                let dst = (rank + step) % p;
                let src = (rank + p - step) % p;
                let outgoing = std::mem::take(&mut sends[dst]);
                recvs[src] = Some(self.sendrecv(dst, src, tag, outgoing));
            }
            recvs.into_iter().map(|x| x.expect("rotation visited all ranks")).collect()
        })
    }
}

impl<C: Communicator> Collectives for C {}

/// Largest power of two ≤ `p` (`p ≥ 1`).
pub(crate) fn prev_pow2(p: usize) -> usize {
    let mut x = 1usize;
    while x * 2 <= p {
        x *= 2;
    }
    x
}

/// Segment of `0..n` that newrank's subtree owns at halving level `mask`
/// in Rabenseifner's algorithm (before the split at that level).
pub(crate) fn segment_at_level(
    n: usize,
    newrank: usize,
    pof2: usize,
    mask: usize,
) -> (usize, usize) {
    let (mut lo, mut hi) = (0usize, n);
    let mut m = pof2 >> 1;
    while m > mask {
        let mid = lo + (hi - lo) / 2;
        if newrank & m == 0 {
            hi = mid;
        } else {
            lo = mid;
        }
        m >>= 1;
    }
    (lo, hi)
}

/// Helper: `copy_from_slice` with a descriptive name for generic `T`
/// (avoids requiring `T: Clone` bounds to be spelled at call sites).
trait CopyFromSliceLike<T> {
    fn copy_from_slice_like(&mut self, src: &[T]);
}

impl<T: Copy> CopyFromSliceLike<T> for [T] {
    fn copy_from_slice_like(&mut self, src: &[T]) {
        self.copy_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::run_ranks;

    #[test]
    fn block_range_balances_remainder() {
        // 10 over 4 parts: 3,3,2,2.
        assert_eq!(block_range(10, 4, 0), 0..3);
        assert_eq!(block_range(10, 4, 1), 3..6);
        assert_eq!(block_range(10, 4, 2), 6..8);
        assert_eq!(block_range(10, 4, 3), 8..10);
        // Exact division.
        assert_eq!(block_range(8, 4, 2), 4..6);
        // More parts than elements: trailing parts empty.
        assert_eq!(block_range(2, 4, 3), 2..2);
    }

    #[test]
    fn prev_pow2_values() {
        assert_eq!(prev_pow2(1), 1);
        assert_eq!(prev_pow2(2), 2);
        assert_eq!(prev_pow2(3), 2);
        assert_eq!(prev_pow2(7), 4);
        assert_eq!(prev_pow2(8), 8);
        assert_eq!(prev_pow2(13), 8);
    }

    fn expected_sum(p: usize, n: usize) -> Vec<f64> {
        // Sum over ranks of (rank+1)*(i+1).
        let ranks_sum: f64 = (1..=p).map(|r| r as f64).sum();
        (0..n).map(|i| ranks_sum * (i + 1) as f64).collect()
    }

    fn check_allreduce(alg: AllreduceAlgorithm, p: usize, n: usize) {
        let results = run_ranks(p, |comm| {
            let mine: Vec<f64> =
                (0..n).map(|i| (comm.rank() + 1) as f64 * (i + 1) as f64).collect();
            comm.allreduce_with(&mine, ReduceOp::Sum, alg)
        });
        let want = expected_sum(p, n);
        for (rank, got) in results.iter().enumerate() {
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() < 1e-9, "alg {alg:?} p={p} n={n} rank={rank}: {g} vs {w}");
            }
        }
        // Determinism across ranks: bit-identical results everywhere.
        for got in &results {
            assert_eq!(got, &results[0], "alg {alg:?} p={p} n={n}: ranks disagree");
        }
    }

    #[test]
    fn allreduce_ring_various_sizes() {
        for p in [2, 3, 4, 5, 7, 8] {
            for n in [1, 2, 5, 16, 33] {
                check_allreduce(AllreduceAlgorithm::Ring, p, n);
            }
        }
    }

    #[test]
    fn allreduce_recursive_doubling_various_sizes() {
        for p in [2, 3, 4, 5, 6, 7, 8, 9] {
            for n in [1, 4, 17] {
                check_allreduce(AllreduceAlgorithm::RecursiveDoubling, p, n);
            }
        }
    }

    #[test]
    fn allreduce_rabenseifner_various_sizes() {
        for p in [2, 3, 4, 5, 6, 7, 8, 12, 16] {
            for n in [16, 17, 64] {
                check_allreduce(AllreduceAlgorithm::Rabenseifner, p, n);
            }
        }
    }

    #[test]
    fn allreduce_auto_matches_reference() {
        check_allreduce(AllreduceAlgorithm::Auto, 4, 8);
        check_allreduce(AllreduceAlgorithm::Auto, 6, 5000);
        check_allreduce(AllreduceAlgorithm::Auto, 8, 5000);
    }

    /// The chooser's rule table: recursive doubling up to 8 KiB,
    /// Rabenseifner above it on power-of-two groups of more than two,
    /// ring everywhere else — and at P = 2 the choice the size-only rule
    /// made before the group size was an input.
    #[test]
    fn auto_resolves_by_size_then_group_size() {
        use AllreduceAlgorithm::{Auto, Rabenseifner, RecursiveDoubling, Ring};
        for p in (1..=40).chain([64, 127, 128, 129, 512, 2048]) {
            for bytes in [0, 4, 8188, 8192, 8196, 1 << 20] {
                let got = Auto.resolve(bytes, p);
                let want = if bytes <= 8192 {
                    RecursiveDoubling
                } else if [4, 8, 16, 32, 64, 128, 512, 2048].contains(&p) {
                    Rabenseifner
                } else {
                    Ring
                };
                assert_eq!(got, want, "p {p} bytes {bytes}");
                if p == 2 {
                    let size_only = if bytes <= 8192 { RecursiveDoubling } else { Ring };
                    assert_eq!(got, size_only, "p 2 bytes {bytes}");
                }
                for explicit in [Ring, RecursiveDoubling, Rabenseifner] {
                    assert_eq!(explicit.resolve(bytes, p), explicit, "p {p} bytes {bytes}");
                }
            }
        }
    }

    #[test]
    fn owning_and_borrowed_allreduce_return_identical_bits() {
        for p in [1, 2, 3, 4, 5, 8] {
            for alg in [
                AllreduceAlgorithm::Ring,
                AllreduceAlgorithm::RecursiveDoubling,
                AllreduceAlgorithm::Rabenseifner,
            ] {
                for n in [0, 1, p - 1, p, p + 1, 8193] {
                    let results = run_ranks(p, |comm| {
                        // Mixed magnitudes: any change of operand order
                        // shows in the low bits.
                        let mine: Vec<f32> = (0..n)
                            .map(|i| (comm.rank() * 7 + i + 3) as f32 * 1e-3 + 1e5 * (i % 3) as f32)
                            .collect();
                        let borrowed = comm.allreduce_with(&mine, ReduceOp::Sum, alg);
                        let owned = comm.allreduce_owned(mine, ReduceOp::Sum, alg);
                        let bits =
                            |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();
                        (bits(borrowed), bits(owned))
                    });
                    for (rank, (borrowed, owned)) in results.iter().enumerate() {
                        assert_eq!(borrowed.len(), n);
                        assert_eq!(borrowed, owned, "alg {alg:?} p={p} n={n} rank={rank}");
                        assert_eq!(owned, &results[0].1, "alg {alg:?} p={p} n={n}: ranks disagree");
                    }
                }
            }
        }
    }

    #[test]
    fn allreduce_max_and_min() {
        let p = 5;
        let res = run_ranks(p, |comm| {
            let mine = vec![comm.rank() as i64, -(comm.rank() as i64)];
            let mx = comm.allreduce(&mine, ReduceOp::Max);
            let mn = comm.allreduce(&mine, ReduceOp::Min);
            (mx, mn)
        });
        for (mx, mn) in res {
            assert_eq!(mx, vec![4, 0]);
            assert_eq!(mn, vec![0, -4]);
        }
    }

    #[test]
    fn allreduce_prod() {
        let res = run_ranks(3, |comm| comm.allreduce(&[(comm.rank() + 1) as u64], ReduceOp::Prod));
        for r in res {
            assert_eq!(r, vec![6]);
        }
    }

    #[test]
    fn allgatherv_variable_sizes() {
        let p = 4;
        let res = run_ranks(p, |comm| {
            let mine: Vec<u32> =
                (0..comm.rank() + 1).map(|i| (comm.rank() * 10 + i) as u32).collect();
            comm.allgatherv(mine)
        });
        for r in res {
            assert_eq!(r[0], vec![0]);
            assert_eq!(r[1], vec![10, 11]);
            assert_eq!(r[2], vec![20, 21, 22]);
            assert_eq!(r[3], vec![30, 31, 32, 33]);
        }
    }

    #[test]
    fn gatherv_collects_every_contribution_at_the_root() {
        let p = 5;
        let res = run_ranks(p, |comm| {
            let mine: Vec<u64> =
                (0..=comm.rank() as u64).map(|i| comm.rank() as u64 * 10 + i).collect();
            comm.gatherv(2, mine)
        });
        for (rank, r) in res.iter().enumerate() {
            if rank == 2 {
                let want: Vec<Vec<u64>> =
                    (0..p as u64).map(|r| (0..=r).map(|i| r * 10 + i).collect()).collect();
                assert_eq!(r.as_ref().unwrap(), &want);
            } else {
                assert!(r.is_none(), "rank {rank} is not the root");
            }
        }
    }

    #[test]
    fn alltoallv_exchanges_personalized_data() {
        let p = 4;
        let res = run_ranks(p, |comm| {
            let sends: Vec<Vec<u32>> =
                (0..p).map(|d| vec![(comm.rank() * 100 + d) as u32; comm.rank() + 1]).collect();
            comm.alltoallv(sends)
        });
        for (rank, r) in res.iter().enumerate() {
            for (src, data) in r.iter().enumerate() {
                assert_eq!(data.len(), src + 1);
                assert!(data.iter().all(|v| *v == (src * 100 + rank) as u32));
            }
        }
    }

    #[test]
    fn barrier_completes_for_various_world_sizes() {
        for p in [1, 2, 3, 5, 8] {
            run_ranks(p, |comm| {
                for _ in 0..3 {
                    comm.barrier();
                }
            });
        }
    }

    #[test]
    fn ring_allreduce_is_deterministic_with_float_noise() {
        // Values chosen so that summation order matters in f32; ranks must
        // still agree bit-for-bit because each chunk is reduced once.
        let run = || {
            run_ranks(5, |comm| {
                let mine: Vec<f32> = (0..100)
                    .map(|i| ((comm.rank() + 1) * (i + 13)) as f32 * 1e-3 + 1e7 * (i % 3) as f32)
                    .collect();
                comm.allreduce_with(&mine, ReduceOp::Sum, AllreduceAlgorithm::Ring)
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "repeat runs must agree exactly");
        for r in &a {
            assert_eq!(r, &a[0], "ranks must agree exactly");
        }
    }

    #[test]
    fn allreduce_traffic_is_attributed() {
        use crate::stats::OpClass;
        let stats = run_ranks(4, |comm| {
            let _ = comm.allreduce_with(&vec![0f32; 64], ReduceOp::Sum, AllreduceAlgorithm::Ring);
            comm.stats()
        });
        for s in &stats {
            // Ring: 2(P−1) = 6 messages of 16 elements (64/4) each.
            assert_eq!(s.messages(OpClass::Allreduce), 6);
            assert_eq!(s.bytes(OpClass::Allreduce), 6 * 16 * 4);
        }
    }
}
