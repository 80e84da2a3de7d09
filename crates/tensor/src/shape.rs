//! Tensor shapes and axis-aligned index boxes.
//!
//! Everything in the workspace uses the paper's NCHW layout (§II-A):
//! dimension order is (samples N, channels C, height H, width W), stored
//! row-major with W fastest. Weights reuse the same container with the
//! convention (filters F, channels C, kernel height, kernel width).
//!
//! [`Box4`] — a half-open 4-D interval of indices — is the workhorse of
//! the distributed layer: owned regions, halo regions, and redistribution
//! intersections are all boxes.

/// Number of tensor dimensions used throughout the crate.
pub const NDIMS: usize = 4;

/// Shape of a 4-D tensor in NCHW order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape4 {
    /// Samples (or filters F for weight tensors).
    pub n: usize,
    /// Channels.
    pub c: usize,
    /// Height (kernel height for weights).
    pub h: usize,
    /// Width (kernel width for weights).
    pub w: usize,
}

impl Shape4 {
    /// Construct a shape from the four extents in NCHW order.
    pub const fn new(n: usize, c: usize, h: usize, w: usize) -> Self {
        Shape4 { n, c, h, w }
    }

    /// Extents as an array in NCHW order.
    pub const fn dims(&self) -> [usize; NDIMS] {
        [self.n, self.c, self.h, self.w]
    }

    /// Build from an extent array in NCHW order.
    pub const fn from_dims(d: [usize; NDIMS]) -> Self {
        Shape4 { n: d[0], c: d[1], h: d[2], w: d[3] }
    }

    /// Total number of elements.
    pub const fn len(&self) -> usize {
        self.n * self.c * self.h * self.w
    }

    /// True if any extent is zero.
    pub const fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Linear offset of `(n, c, h, w)` in row-major NCHW order.
    #[inline(always)]
    pub const fn offset(&self, n: usize, c: usize, h: usize, w: usize) -> usize {
        ((n * self.c + c) * self.h + h) * self.w + w
    }

    /// The box covering the entire shape.
    pub const fn full_box(&self) -> Box4 {
        Box4 { lo: [0; NDIMS], hi: [self.n, self.c, self.h, self.w] }
    }
}

impl std::fmt::Display for Shape4 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}x{}x{}", self.n, self.c, self.h, self.w)
    }
}

/// A half-open axis-aligned box of 4-D indices: `lo[d] <= i[d] < hi[d]`.
///
/// Empty boxes (any `lo[d] >= hi[d]`) are legal and represent "no
/// elements"; operations normalize them via [`Box4::is_empty`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Box4 {
    /// Inclusive lower corner.
    pub lo: [usize; NDIMS],
    /// Exclusive upper corner.
    pub hi: [usize; NDIMS],
}

impl Box4 {
    /// Construct from corners. `hi[d] < lo[d]` is normalized to empty.
    pub const fn new(lo: [usize; NDIMS], hi: [usize; NDIMS]) -> Self {
        Box4 { lo, hi }
    }

    /// The extent of the box along each dimension (0 if empty there).
    pub fn extents(&self) -> [usize; NDIMS] {
        let mut e = [0; NDIMS];
        for (d, ext) in e.iter_mut().enumerate() {
            *ext = self.hi[d].saturating_sub(self.lo[d]);
        }
        e
    }

    /// Shape of the box's contents.
    pub fn shape(&self) -> Shape4 {
        Shape4::from_dims(self.extents())
    }

    /// Number of elements contained.
    pub fn len(&self) -> usize {
        self.extents().iter().product()
    }

    /// True if the box contains no indices.
    pub fn is_empty(&self) -> bool {
        (0..NDIMS).any(|d| self.hi[d] <= self.lo[d])
    }

    /// Intersection with another box (possibly empty).
    pub fn intersect(&self, other: &Box4) -> Box4 {
        let mut lo = [0; NDIMS];
        let mut hi = [0; NDIMS];
        for d in 0..NDIMS {
            lo[d] = self.lo[d].max(other.lo[d]);
            hi[d] = self.hi[d].min(other.hi[d]);
            if hi[d] < lo[d] {
                hi[d] = lo[d];
            }
        }
        Box4 { lo, hi }
    }

    /// Does the box contain the index `(n, c, h, w)`?
    pub fn contains(&self, idx: [usize; NDIMS]) -> bool {
        (0..NDIMS).all(|d| self.lo[d] <= idx[d] && idx[d] < self.hi[d])
    }

    /// Grow by `before[d]` below and `after[d]` above in each dimension,
    /// clamped to `bounds` (used for halo regions at domain edges).
    pub fn expand_clamped(
        &self,
        before: [usize; NDIMS],
        after: [usize; NDIMS],
        bounds: &Box4,
    ) -> Box4 {
        let mut lo = [0; NDIMS];
        let mut hi = [0; NDIMS];
        for d in 0..NDIMS {
            lo[d] = self.lo[d].saturating_sub(before[d]).max(bounds.lo[d]);
            hi[d] = (self.hi[d] + after[d]).min(bounds.hi[d]);
        }
        Box4 { lo, hi }
    }

    /// Iterate over all contained indices in row-major NCHW order.
    pub fn iter(&self) -> impl Iterator<Item = [usize; NDIMS]> + '_ {
        let b = *self;
        (b.lo[0]..b.hi[0]).flat_map(move |n| {
            (b.lo[1]..b.hi[1]).flat_map(move |c| {
                (b.lo[2]..b.hi[2]).flat_map(move |h| (b.lo[3]..b.hi[3]).map(move |w| [n, c, h, w]))
            })
        })
    }
}

impl std::fmt::Display for Box4 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}..{}, {}..{}, {}..{}, {}..{}]",
            self.lo[0],
            self.hi[0],
            self.lo[1],
            self.hi[1],
            self.lo[2],
            self.hi[2],
            self.lo[3],
            self.hi[3]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_offset_is_row_major_w_fastest() {
        let s = Shape4::new(2, 3, 4, 5);
        assert_eq!(s.len(), 120);
        assert_eq!(s.offset(0, 0, 0, 0), 0);
        assert_eq!(s.offset(0, 0, 0, 1), 1);
        assert_eq!(s.offset(0, 0, 1, 0), 5);
        assert_eq!(s.offset(0, 1, 0, 0), 20);
        assert_eq!(s.offset(1, 0, 0, 0), 60);
        assert_eq!(s.offset(1, 2, 3, 4), 119);
    }

    #[test]
    fn box_intersection() {
        let a = Box4::new([0, 0, 0, 0], [4, 4, 4, 4]);
        let b = Box4::new([2, 0, 3, 1], [6, 2, 8, 3]);
        let i = a.intersect(&b);
        assert_eq!(i, Box4::new([2, 0, 3, 1], [4, 2, 4, 3]));
        assert_eq!(i.len(), (2 * 2) * 2);
        // Disjoint boxes intersect to empty.
        let c = Box4::new([4, 0, 0, 0], [5, 1, 1, 1]);
        assert!(a.intersect(&c).is_empty());
    }

    #[test]
    fn box_expand_clamps_to_bounds() {
        let bounds = Box4::new([0, 0, 0, 0], [1, 3, 10, 10]);
        let b = Box4::new([0, 0, 0, 5], [1, 3, 5, 10]);
        let e = b.expand_clamped([0, 0, 2, 2], [0, 0, 2, 2], &bounds);
        assert_eq!(e, Box4::new([0, 0, 0, 3], [1, 3, 7, 10]));
    }

    #[test]
    fn box_iter_row_major() {
        let b = Box4::new([0, 1, 2, 3], [1, 2, 4, 5]);
        let idxs: Vec<_> = b.iter().collect();
        assert_eq!(idxs.len(), b.len());
        assert_eq!(idxs[0], [0, 1, 2, 3]);
        assert_eq!(idxs[1], [0, 1, 2, 4]);
        assert_eq!(idxs[2], [0, 1, 3, 3]);
        assert_eq!(idxs.last().unwrap(), &[0, 1, 3, 4]);
    }

    #[test]
    fn empty_box_has_zero_len() {
        let b = Box4::new([1, 0, 0, 0], [1, 5, 5, 5]);
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
        assert_eq!(b.iter().count(), 0);
    }
}
