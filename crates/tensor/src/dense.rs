//! Owned dense f32 tensors in NCHW layout, with box-based packing.
//!
//! This is the single-device tensor every compute kernel operates on.
//! The distributed tensor ([`crate::disttensor::DistTensor`]) wraps one
//! of these as its local shard (including halo margins) and moves data
//! between shards by packing/unpacking [`Box4`] regions — the same
//! mechanism MPI datatypes would provide.

use crate::shape::{Box4, Shape4, NDIMS};

/// A dense, owned, row-major NCHW tensor of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape4,
    data: Vec<f32>,
}

impl Tensor {
    /// Zero-filled tensor of the given shape.
    pub fn zeros(shape: Shape4) -> Self {
        Tensor { shape, data: vec![0.0; shape.len()] }
    }

    /// Tensor filled with `value`.
    pub fn full(shape: Shape4, value: f32) -> Self {
        Tensor { shape, data: vec![value; shape.len()] }
    }

    /// Build from a function of the NCHW index.
    pub fn from_fn(shape: Shape4, mut f: impl FnMut(usize, usize, usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(shape.len());
        for n in 0..shape.n {
            for c in 0..shape.c {
                for h in 0..shape.h {
                    for w in 0..shape.w {
                        data.push(f(n, c, h, w));
                    }
                }
            }
        }
        Tensor { shape, data }
    }

    /// Wrap an existing buffer; `data.len()` must equal `shape.len()`.
    pub fn from_vec(shape: Shape4, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), shape.len(), "buffer does not match shape {shape}");
        Tensor { shape, data }
    }

    /// Zero-filled tensor recycling `buf` as backing storage (the arena
    /// path of [`crate::arena::StepArena`]). The buffer is cleared and
    /// resized to the shape's length; when its capacity already covers
    /// the shape no allocation occurs. The result is bitwise-identical
    /// to [`Tensor::zeros`].
    pub fn zeros_in(shape: Shape4, mut buf: Vec<f32>) -> Self {
        buf.clear();
        buf.resize(shape.len(), 0.0);
        Tensor { shape, data: buf }
    }

    /// Consume the tensor and return its backing buffer, so the storage
    /// can be released back to an arena slot.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// The tensor's shape.
    pub fn shape(&self) -> Shape4 {
        self.shape
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read element `(n, c, h, w)`.
    #[inline(always)]
    pub fn at(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        self.data[self.shape.offset(n, c, h, w)]
    }

    /// Mutable access to element `(n, c, h, w)`.
    #[inline(always)]
    pub fn at_mut(&mut self, n: usize, c: usize, h: usize, w: usize) -> &mut f32 {
        let off = self.shape.offset(n, c, h, w);
        &mut self.data[off]
    }

    /// The raw backing slice in row-major NCHW order.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw backing slice.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Set every element to `value`.
    pub fn fill(&mut self, value: f32) {
        self.data.fill(value);
    }

    /// Elementwise `self += other` (shapes must match).
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Elementwise `self += scale * other` (shapes must match).
    pub fn add_scaled(&mut self, other: &Tensor, scale: f32) {
        assert_eq!(self.shape, other.shape, "add_scaled shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += scale * b;
        }
    }

    /// Multiply every element by `scale`.
    pub fn scale(&mut self, scale: f32) {
        for a in &mut self.data {
            *a *= scale;
        }
    }

    /// Pack the elements of `region` (in this tensor's coordinate frame)
    /// into a contiguous vector in row-major NCHW order.
    pub fn pack_box(&self, region: &Box4) -> Vec<f32> {
        debug_assert!(
            self.shape.full_box().intersect(region) == *region,
            "pack region {region} exceeds tensor {}",
            self.shape
        );
        let mut out = Vec::with_capacity(region.len());
        let [n0, c0, h0, w0] = region.lo;
        let [n1, c1, h1, w1] = region.hi;
        for n in n0..n1 {
            for c in c0..c1 {
                for h in h0..h1 {
                    let base = self.shape.offset(n, c, h, w0);
                    out.extend_from_slice(&self.data[base..base + (w1 - w0)]);
                }
            }
        }
        out
    }

    /// Unpack `data` (row-major, as produced by [`Tensor::pack_box`])
    /// into `region` of this tensor, overwriting.
    pub fn unpack_box(&mut self, region: &Box4, data: &[f32]) {
        assert_eq!(data.len(), region.len(), "payload does not match region {region}");
        let [n0, c0, h0, w0] = region.lo;
        let [n1, c1, h1, w1] = region.hi;
        let row = w1 - w0;
        let mut src = 0;
        for n in n0..n1 {
            for c in c0..c1 {
                for h in h0..h1 {
                    let base = self.shape.offset(n, c, h, w0);
                    self.data[base..base + row].copy_from_slice(&data[src..src + row]);
                    src += row;
                }
            }
        }
    }

    /// Copy `region` of `src` (in `src`'s frame) into `dst_region` of
    /// `self`; the two regions must have identical extents.
    pub fn copy_box_from(&mut self, dst_region: &Box4, src: &Tensor, src_region: &Box4) {
        assert_eq!(
            dst_region.extents(),
            src_region.extents(),
            "copy_box_from extent mismatch: {dst_region} vs {src_region}"
        );
        let packed = src.pack_box(src_region);
        self.unpack_box(dst_region, &packed);
    }

    /// Maximum absolute elementwise difference against `other`.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape, "comparing tensors of different shapes");
        self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max)
    }

    /// Maximum relative elementwise difference, with absolute floor
    /// `atol` to avoid blowing up near zero.
    pub fn max_rel_diff(&self, other: &Tensor, atol: f32) -> f32 {
        assert_eq!(self.shape, other.shape, "comparing tensors of different shapes");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs() / (a.abs().max(b.abs()).max(atol)))
            .fold(0.0f32, f32::max)
    }

    /// Sum of all elements (f64 accumulator).
    pub fn sum(&self) -> f64 {
        self.data.iter().map(|&x| x as f64).sum()
    }

    /// Assert elementwise closeness within `tol` relative (floored by
    /// `tol` absolute); panics with the first offending index.
    pub fn assert_close(&self, other: &Tensor, tol: f32) {
        assert_eq!(self.shape, other.shape, "comparing tensors of different shapes");
        for (i, (a, b)) in self.data.iter().zip(&other.data).enumerate() {
            let denom = a.abs().max(b.abs()).max(1.0);
            assert!(
                (a - b).abs() <= tol * denom,
                "tensors differ at flat index {i}: {a} vs {b} (shape {})",
                self.shape
            );
        }
    }

    /// Extract `region` as a new tensor.
    pub fn slice_box(&self, region: &Box4) -> Tensor {
        Tensor::from_vec(region.shape(), self.pack_box(region))
    }

    /// Global index helper: read via an index array.
    #[inline]
    pub fn at_idx(&self, idx: [usize; NDIMS]) -> f32 {
        self.at(idx[0], idx[1], idx[2], idx[3])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_tensor(shape: Shape4) -> Tensor {
        let mut k = 0.0f32;
        Tensor::from_fn(shape, |_, _, _, _| {
            k += 1.0;
            k
        })
    }

    #[test]
    fn from_fn_indexes_in_layout_order() {
        let t = Tensor::from_fn(Shape4::new(1, 2, 2, 2), |n, c, h, w| {
            (n * 1000 + c * 100 + h * 10 + w) as f32
        });
        assert_eq!(t.at(0, 0, 0, 0), 0.0);
        assert_eq!(t.at(0, 0, 0, 1), 1.0);
        assert_eq!(t.at(0, 1, 1, 1), 111.0);
        assert_eq!(t.as_slice()[7], 111.0);
    }

    #[test]
    fn pack_unpack_round_trip() {
        let t = seq_tensor(Shape4::new(2, 3, 4, 5));
        let b = Box4::new([0, 1, 1, 2], [2, 3, 3, 5]);
        let packed = t.pack_box(&b);
        assert_eq!(packed.len(), b.len());
        let mut u = Tensor::zeros(t.shape());
        u.unpack_box(&b, &packed);
        for idx in b.iter() {
            assert_eq!(u.at_idx(idx), t.at_idx(idx));
        }
        // Outside the box stays zero.
        assert_eq!(u.at(0, 0, 0, 0), 0.0);
    }

    #[test]
    fn copy_box_between_frames() {
        let src = seq_tensor(Shape4::new(1, 1, 4, 4));
        let mut dst = Tensor::zeros(Shape4::new(1, 1, 2, 2));
        // Copy the center 2x2 of src into all of dst.
        dst.copy_box_from(
            &Box4::new([0, 0, 0, 0], [1, 1, 2, 2]),
            &src,
            &Box4::new([0, 0, 1, 1], [1, 1, 3, 3]),
        );
        assert_eq!(dst.at(0, 0, 0, 0), src.at(0, 0, 1, 1));
        assert_eq!(dst.at(0, 0, 1, 1), src.at(0, 0, 2, 2));
    }

    #[test]
    fn arithmetic_helpers() {
        let mut a = Tensor::full(Shape4::new(1, 1, 1, 3), 2.0);
        let b = Tensor::from_vec(Shape4::new(1, 1, 1, 3), vec![1.0, 2.0, 3.0]);
        a.add_assign(&b);
        assert_eq!(a.as_slice(), &[3.0, 4.0, 5.0]);
        a.add_scaled(&b, -1.0);
        assert_eq!(a.as_slice(), &[2.0, 2.0, 2.0]);
        a.scale(0.5);
        assert_eq!(a.as_slice(), &[1.0, 1.0, 1.0]);
        assert_eq!(a.sum(), 3.0);
    }

    #[test]
    fn diff_metrics() {
        let a = Tensor::from_vec(Shape4::new(1, 1, 1, 2), vec![1.0, 100.0]);
        let b = Tensor::from_vec(Shape4::new(1, 1, 1, 2), vec![1.5, 100.0]);
        assert_eq!(a.max_abs_diff(&b), 0.5);
        assert!((a.max_rel_diff(&b, 1e-6) - 0.5 / 1.5).abs() < 1e-6);
        a.assert_close(&b, 0.5);
    }

    #[test]
    #[should_panic(expected = "tensors differ")]
    fn assert_close_panics_on_difference() {
        let a = Tensor::zeros(Shape4::new(1, 1, 1, 1));
        let b = Tensor::full(Shape4::new(1, 1, 1, 1), 1.0);
        a.assert_close(&b, 1e-3);
    }

    #[test]
    fn slice_box_extracts_subtensor() {
        let t = seq_tensor(Shape4::new(1, 2, 3, 3));
        let s = t.slice_box(&Box4::new([0, 1, 0, 0], [1, 2, 3, 3]));
        assert_eq!(s.shape(), Shape4::new(1, 1, 3, 3));
        assert_eq!(s.at(0, 0, 0, 0), t.at(0, 1, 0, 0));
    }
}
