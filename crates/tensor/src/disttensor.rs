//! The distributed tensor: one rank's shard of a [`TensorDist`],
//! including halo margins.
//!
//! The local buffer is a *window* onto the global tensor: the owned block
//! plus a margin on each side. After a halo exchange
//! ([`crate::halo::exchange_halo_with_plan`]) the crate-wide invariant holds:
//!
//! > the local buffer equals the global tensor restricted to the window,
//! > with zeros at window positions outside the global bounds.
//!
//! The zeros double as convolution padding, so compute kernels can treat
//! every rank's window uniformly — interior ranks see halo data where
//! boundary ranks see padding, exactly as in the paper's formulation
//! (§III-A, where out-of-range subscripts "are handled with padding").

use crate::dense::Tensor;
use crate::dist::TensorDist;
use crate::shape::{Box4, Shape4, NDIMS};

/// One rank's shard of a distributed tensor, with margins.
#[derive(Debug, Clone, PartialEq)]
pub struct DistTensor {
    dist: TensorDist,
    rank: usize,
    /// Global box owned by this rank.
    own: Box4,
    /// Allocated margin below/above the owned box, per dimension. The
    /// same margins must be used by every rank of a distributed tensor
    /// (they are part of its layout contract).
    margin_lo: [usize; NDIMS],
    margin_hi: [usize; NDIMS],
    /// Window origin in global coordinates; may be negative where the
    /// margin hangs off the global lower edge (virtual padding).
    origin: [i64; NDIMS],
    local: Tensor,
}

impl DistTensor {
    /// Create a zero-initialized shard of `dist` for `rank`, with the
    /// given margins (in elements, per dimension, below and above).
    pub fn new(
        dist: TensorDist,
        rank: usize,
        margin_lo: [usize; NDIMS],
        margin_hi: [usize; NDIMS],
    ) -> Self {
        assert!(rank < dist.world_size(), "rank outside distribution grid");
        let own = dist.local_box(rank);
        let mut origin = [0i64; NDIMS];
        let mut dims = [0usize; NDIMS];
        for d in 0..NDIMS {
            origin[d] = own.lo[d] as i64 - margin_lo[d] as i64;
            dims[d] = (own.hi[d] - own.lo[d]) + margin_lo[d] + margin_hi[d];
        }
        DistTensor {
            dist,
            rank,
            own,
            margin_lo,
            margin_hi,
            origin,
            local: Tensor::zeros(Shape4::from_dims(dims)),
        }
    }

    /// Like [`DistTensor::new`], but recycling `buf` as the local
    /// backing storage (the arena path). Bitwise-identical to `new`.
    pub fn new_in(
        dist: TensorDist,
        rank: usize,
        margin_lo: [usize; NDIMS],
        margin_hi: [usize; NDIMS],
        buf: Vec<f32>,
    ) -> Self {
        assert!(rank < dist.world_size(), "rank outside distribution grid");
        let own = dist.local_box(rank);
        let mut origin = [0i64; NDIMS];
        let mut dims = [0usize; NDIMS];
        for d in 0..NDIMS {
            origin[d] = own.lo[d] as i64 - margin_lo[d] as i64;
            dims[d] = (own.hi[d] - own.lo[d]) + margin_lo[d] + margin_hi[d];
        }
        DistTensor {
            dist,
            rank,
            own,
            margin_lo,
            margin_hi,
            origin,
            local: Tensor::zeros_in(Shape4::from_dims(dims), buf),
        }
    }

    /// Create a shard without margins.
    pub fn new_unpadded(dist: TensorDist, rank: usize) -> Self {
        DistTensor::new(dist.clone(), rank, [0; NDIMS], [0; NDIMS])
    }

    /// Create a shard and fill the owned region from a globally
    /// replicated tensor (margins stay zero until a halo exchange).
    pub fn from_global(
        dist: TensorDist,
        rank: usize,
        global: &Tensor,
        margin_lo: [usize; NDIMS],
        margin_hi: [usize; NDIMS],
    ) -> Self {
        assert_eq!(global.shape(), dist.shape, "global tensor does not match distribution");
        let mut dt = DistTensor::new(dist.clone(), rank, margin_lo, margin_hi);
        let own = dt.own;
        let local_box = dt.global_to_local_box(&own);
        dt.local.copy_box_from(&local_box, global, &own);
        dt
    }

    /// The distribution this shard belongs to.
    pub fn dist(&self) -> &TensorDist {
        &self.dist
    }

    /// This shard's rank within the distribution grid.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The globally owned box.
    pub fn own_box(&self) -> Box4 {
        self.own
    }

    /// Margins below the owned box.
    pub fn margin_lo(&self) -> [usize; NDIMS] {
        self.margin_lo
    }

    /// Margins above the owned box.
    pub fn margin_hi(&self) -> [usize; NDIMS] {
        self.margin_hi
    }

    /// Window origin in (possibly negative) global coordinates.
    pub fn origin(&self) -> [i64; NDIMS] {
        self.origin
    }

    /// The local buffer (owned block + margins).
    pub fn local(&self) -> &Tensor {
        &self.local
    }

    /// Mutable access to the local buffer.
    pub fn local_mut(&mut self) -> &mut Tensor {
        &mut self.local
    }

    /// The owned region expressed in local-buffer coordinates.
    pub fn own_box_local(&self) -> Box4 {
        self.global_to_local_box(&self.own)
    }

    /// The in-bounds window: the owned box expanded by the margins,
    /// clamped to the global shape. This is the region a halo exchange
    /// fills (everything else in the buffer is virtual padding).
    pub fn needed_box(&self) -> Box4 {
        self.own.expand_clamped(self.margin_lo, self.margin_hi, &self.dist.shape.full_box())
    }

    /// Convert a global box (which must lie inside the window) to
    /// local-buffer coordinates.
    pub fn global_to_local_box(&self, b: &Box4) -> Box4 {
        let mut lo = [0; NDIMS];
        let mut hi = [0; NDIMS];
        for d in 0..NDIMS {
            let l = b.lo[d] as i64 - self.origin[d];
            let h = b.hi[d] as i64 - self.origin[d];
            debug_assert!(
                l >= 0 && h as usize <= self.local.shape().dims()[d],
                "global box outside this rank's window"
            );
            lo[d] = l as usize;
            hi[d] = h as usize;
        }
        Box4::new(lo, hi)
    }

    /// Read a global element; `None` if outside this rank's window.
    pub fn get_global(&self, idx: [usize; NDIMS]) -> Option<f32> {
        let li = self.local_index_of(idx)?;
        Some(self.local.at(li[0], li[1], li[2], li[3]))
    }

    /// Write a global element; panics if outside this rank's window.
    pub fn set_global(&mut self, idx: [usize; NDIMS], value: f32) {
        let li = self.local_index_of(idx).expect("global index outside window");
        *self.local.at_mut(li[0], li[1], li[2], li[3]) = value;
    }

    /// Local coordinates of a global index, if within the window.
    pub fn local_index_of(&self, idx: [usize; NDIMS]) -> Option<[usize; NDIMS]> {
        let mut out = [0; NDIMS];
        let dims = self.local.shape().dims();
        for d in 0..NDIMS {
            let l = idx[d] as i64 - self.origin[d];
            if l < 0 || l as usize >= dims[d] {
                return None;
            }
            out[d] = l as usize;
        }
        Some(out)
    }

    /// Extract the owned region as a standalone tensor (drops margins).
    pub fn owned_tensor(&self) -> Tensor {
        self.local.slice_box(&self.own_box_local())
    }

    /// A re-margined copy of this shard: same distribution, rank, and
    /// owned data, with margins `(lo, hi)` allocated but unfilled (run a
    /// halo exchange afterwards to populate them). The window's backing
    /// storage comes from `store` when provided (the arena path); `None`
    /// allocates fresh, bitwise-identically. The owned block is copied
    /// box-to-box without materializing an intermediate owned tensor.
    pub fn to_window_in(
        &self,
        margin_lo: [usize; NDIMS],
        margin_hi: [usize; NDIMS],
        store: Option<Vec<f32>>,
    ) -> DistTensor {
        let mut win = match store {
            Some(buf) => {
                DistTensor::new_in(self.dist.clone(), self.rank, margin_lo, margin_hi, buf)
            }
            None => DistTensor::new(self.dist.clone(), self.rank, margin_lo, margin_hi),
        };
        let dst_box = win.own_box_local();
        let src_box = self.own_box_local();
        win.local.copy_box_from(&dst_box, &self.local, &src_box);
        win
    }

    /// Consume the shard and return its local backing buffer, so the
    /// storage can be released back to an arena slot.
    pub fn into_storage(self) -> Vec<f32> {
        self.local.into_vec()
    }

    /// Overwrite the owned region from a tensor of matching shape.
    pub fn set_owned(&mut self, t: &Tensor) {
        let lb = self.own_box_local();
        assert_eq!(t.shape(), lb.shape(), "owned region shape mismatch");
        self.local.unpack_box(&lb, t.as_slice());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::procgrid::ProcGrid;

    fn demo_dist() -> TensorDist {
        TensorDist::new(Shape4::new(2, 3, 8, 8), ProcGrid::new(1, 1, 2, 2))
    }

    #[test]
    fn window_geometry_interior_and_edge() {
        let dist = demo_dist();
        // Rank 0 owns rows 0..4, cols 0..4; margin 1 on H and W.
        let dt = DistTensor::new(dist.clone(), 0, [0, 0, 1, 1], [0, 0, 1, 1]);
        assert_eq!(dt.own_box(), Box4::new([0, 0, 0, 0], [2, 3, 4, 4]));
        assert_eq!(dt.origin(), [0, 0, -1, -1]);
        assert_eq!(dt.local().shape(), Shape4::new(2, 3, 6, 6));
        // The needed (in-bounds) box clips the off-edge margin.
        assert_eq!(dt.needed_box(), Box4::new([0, 0, 0, 0], [2, 3, 5, 5]));
        // Own box in local coordinates is offset by the margin.
        assert_eq!(dt.own_box_local(), Box4::new([0, 0, 1, 1], [2, 3, 5, 5]));
    }

    #[test]
    fn from_global_fills_owned_region_only() {
        let dist = demo_dist();
        let global =
            Tensor::from_fn(dist.shape, |n, c, h, w| (n * 1000 + c * 100 + h * 10 + w) as f32);
        for rank in 0..dist.world_size() {
            let dt =
                DistTensor::from_global(dist.clone(), rank, &global, [0, 0, 1, 1], [0, 0, 1, 1]);
            for idx in dt.own_box().iter() {
                assert_eq!(dt.get_global(idx), Some(global.at_idx(idx)));
            }
            // Margin positions inside the window but outside own: zero.
            let needed = dt.needed_box();
            for idx in needed.iter() {
                if !dt.own_box().contains(idx) {
                    assert_eq!(dt.get_global(idx), Some(0.0));
                }
            }
        }
    }

    #[test]
    fn get_global_outside_window_is_none() {
        let dist = demo_dist();
        let dt = DistTensor::new(dist.clone(), 0, [0; 4], [0; 4]);
        assert!(dt.get_global([0, 0, 5, 0]).is_none());
        assert!(dt.get_global([0, 0, 0, 4]).is_none());
        assert!(dt.get_global([0, 0, 3, 3]).is_some());
    }

    #[test]
    fn owned_tensor_round_trip() {
        let dist = demo_dist();
        let global = Tensor::from_fn(dist.shape, |_, _, h, w| (h * 10 + w) as f32);
        let mut dt = DistTensor::from_global(dist.clone(), 3, &global, [0, 0, 2, 2], [0, 0, 2, 2]);
        let owned = dt.owned_tensor();
        assert_eq!(owned.shape(), Shape4::new(2, 3, 4, 4));
        let mut doubled = owned.clone();
        doubled.scale(2.0);
        dt.set_owned(&doubled);
        assert_eq!(dt.get_global([0, 0, 4, 4]), Some(2.0 * global.at(0, 0, 4, 4)));
    }
}
