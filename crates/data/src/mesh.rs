//! Synthetic mesh-tangling dataset (substitute for the paper's
//! proprietary hydrodynamics data).
//!
//! The real dataset is 10,000 samples of 1024²/2048² × 18 channels of
//! "state variables and mesh quality metrics from a hydrodynamics
//! simulation", labeled per pixel with whether the mesh cell needs
//! relaxation. We cannot have that data; the paper itself uses synthetic
//! data for its performance runs ("For performance benchmarks on this
//! problem, we use synthetic data"). This generator produces:
//!
//! * 18 channels of *smooth* random fields (coarse seeded noise,
//!   bilinearly upsampled, box-blurred) — matching the spatial
//!   correlation structure of simulation state, which is what matters
//!   for exercising halo exchanges with realistic value ranges;
//! * per-pixel labels derived from a mesh-distortion proxy (the discrete
//!   Laplacian of a designated "displacement" channel exceeding a
//!   threshold), downsampled to the model's prediction resolution — so
//!   the labels are a deterministic function of the input and a model
//!   can genuinely learn them.

use fg_kernels::loss::Labels;
use fg_tensor::{Shape4, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Synthetic mesh-tangling sample generator.
#[derive(Debug, Clone)]
pub struct MeshDataset {
    /// Input extent (1024 or 2048 for the paper's sizes).
    pub input_hw: usize,
    /// Prediction-map extent (input / 64 for the mesh model).
    pub label_hw: usize,
    /// Input channels.
    pub channels: usize,
    base_seed: u64,
}

impl MeshDataset {
    /// Create a generator; `label_hw` must divide `input_hw`.
    pub fn new(input_hw: usize, label_hw: usize, channels: usize, seed: u64) -> Self {
        assert!(input_hw.is_multiple_of(label_hw), "label map must tile the input");
        MeshDataset { input_hw, label_hw, channels, base_seed: seed }
    }

    /// Generate one sample's input channels (shape `1×C×H×W`).
    pub fn sample_input(&self, index: usize) -> Tensor {
        let mut t = Tensor::zeros(Shape4::new(1, self.channels, self.input_hw, self.input_hw));
        for c in 0..self.channels {
            // Correlation length varies per channel: state variables
            // (early channels) are smoother than quality metrics.
            let field =
                smooth_field(self.input_hw, self.field_seed(index, c), self.field_coarse(c));
            let base = t.shape().offset(0, c, 0, 0);
            t.as_mut_slice()[base..base + field.len()].copy_from_slice(&field);
        }
        t
    }

    /// Labels for a sample: 1 where the distortion proxy flags tangling.
    fn sample_labels(&self, input: &Tensor) -> Labels {
        let hw = self.input_hw;
        let cell = hw / self.label_hw;
        let mut data = Vec::with_capacity(self.label_hw * self.label_hw);
        // Distortion proxy: mean |Laplacian| of channel 0 over the cell.
        for by in 0..self.label_hw {
            for bx in 0..self.label_hw {
                let mut acc = 0.0f64;
                let mut cnt = 0usize;
                for y in (by * cell)..(by + 1) * cell {
                    for x in (bx * cell)..(bx + 1) * cell {
                        if y == 0 || x == 0 || y + 1 >= hw || x + 1 >= hw {
                            continue;
                        }
                        let lap = 4.0 * input.at(0, 0, y, x)
                            - input.at(0, 0, y - 1, x)
                            - input.at(0, 0, y + 1, x)
                            - input.at(0, 0, y, x - 1)
                            - input.at(0, 0, y, x + 1);
                        acc += lap.abs() as f64;
                        cnt += 1;
                    }
                }
                let distortion = if cnt > 0 { acc / cnt as f64 } else { 0.0 };
                data.push(u32::from(distortion > 0.02));
            }
        }
        Labels::per_pixel(1, self.label_hw, self.label_hw, data)
    }

    /// Seed for one (sample, channel) field — shared by the full and
    /// sharded generators so they agree pixel-for-pixel.
    fn field_seed(&self, index: usize, c: usize) -> u64 {
        self.base_seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ c as u64
    }

    /// Correlation length of channel `c`'s field.
    fn field_coarse(&self, c: usize) -> usize {
        8 + 4 * (c % 4)
    }

    /// Generate **only this rank's shard** of a mini-batch, never
    /// materializing the full `N×C×H×W` tensor — the distributed data
    /// loading the huge-sample story requires (a full 2K batch is
    /// ~288 MiB *per sample*; a 16-way shard is 1/16 of that). Each rank
    /// holds only the small coarse-noise grids plus its owned box.
    ///
    /// The result is bit-identical to sharding [`MeshDataset::batch`]
    /// via `DistTensor::from_global` (tested).
    pub fn shard_batch(
        &self,
        dist: fg_tensor::TensorDist,
        rank: usize,
        start_index: usize,
    ) -> fg_tensor::DistTensor {
        assert_eq!(
            (dist.shape.c, dist.shape.h, dist.shape.w),
            (self.channels, self.input_hw, self.input_hw),
            "distribution does not match the dataset"
        );
        let mut dt = fg_tensor::DistTensor::new_unpadded(dist, rank);
        let own = dt.own_box();
        // One coarse grid per (sample, channel) intersecting the shard.
        let mut shard = fg_tensor::Tensor::zeros(own.shape());
        for (ni, n) in (own.lo[0]..own.hi[0]).enumerate() {
            for (ci, c) in (own.lo[1]..own.hi[1]).enumerate() {
                let grid = CoarseNoise::new(
                    self.input_hw,
                    self.field_seed(start_index + n, c),
                    self.field_coarse(c),
                );
                for (hi, h) in (own.lo[2]..own.hi[2]).enumerate() {
                    for (wi, w) in (own.lo[3]..own.hi[3]).enumerate() {
                        *shard.at_mut(ni, ci, hi, wi) = grid.at(h, w);
                    }
                }
            }
        }
        dt.set_owned(&shard);
        dt
    }

    /// Labels for a batch without retaining the inputs: one sample's
    /// fields are materialized at a time (labels derive from channel 0),
    /// so peak memory is a single sample regardless of `n`. Pairs with
    /// [`MeshDataset::shard_batch`] for distributed loading.
    pub fn batch_labels(&self, start_index: usize, n: usize) -> Labels {
        let mut labels = Vec::with_capacity(n * self.label_hw * self.label_hw);
        for k in 0..n {
            let sample = self.sample_input(start_index + k);
            labels.extend_from_slice(&self.sample_labels(&sample).data);
        }
        Labels::per_pixel(n, self.label_hw, self.label_hw, labels)
    }

    /// A full mini-batch: `(inputs (N×C×H×W), labels (N×lh×lw))`.
    pub fn batch(&self, start_index: usize, n: usize) -> (Tensor, Labels) {
        let mut x = Tensor::zeros(Shape4::new(n, self.channels, self.input_hw, self.input_hw));
        let mut labels = Vec::with_capacity(n * self.label_hw * self.label_hw);
        for k in 0..n {
            let sample = self.sample_input(start_index + k);
            let sb = x.shape().offset(k, 0, 0, 0);
            let len = self.channels * self.input_hw * self.input_hw;
            x.as_mut_slice()[sb..sb + len].copy_from_slice(sample.as_slice());
            labels.extend_from_slice(&self.sample_labels(&sample).data);
        }
        (x, Labels::per_pixel(n, self.label_hw, self.label_hw, labels))
    }
}

/// The coarse noise grid a smooth field is generated from. Small
/// (`(hw/coarse + 2)²` values), so every rank can hold it and evaluate
/// any pixel locally — the basis of sharded data loading.
#[derive(Debug, Clone)]
struct CoarseNoise {
    hw: usize,
    coarse: usize,
    cg: usize,
    noise: Vec<f32>,
}

impl CoarseNoise {
    /// Generate the coarse grid for a field.
    pub fn new(hw: usize, seed: u64, coarse: usize) -> Self {
        let coarse = coarse.clamp(2, hw);
        let mut rng = StdRng::seed_from_u64(seed);
        let cg = hw.div_ceil(coarse) + 2;
        let noise: Vec<f32> = (0..cg * cg).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        CoarseNoise { hw, coarse, cg, noise }
    }

    /// Bilinear upsample value at `(y, x)` (pre-blur).
    fn upsampled(&self, y: usize, x: usize) -> f32 {
        let fy = y as f32 / self.coarse as f32;
        let y0 = fy.floor() as usize;
        let ty = fy - y0 as f32;
        let fx = x as f32 / self.coarse as f32;
        let x0 = fx.floor() as usize;
        let tx = fx - x0 as f32;
        let at = |yy: usize, xx: usize| self.noise[yy * self.cg + xx];
        at(y0, x0) * (1.0 - ty) * (1.0 - tx)
            + at(y0 + 1, x0) * ty * (1.0 - tx)
            + at(y0, x0 + 1) * (1.0 - ty) * tx
            + at(y0 + 1, x0 + 1) * ty * tx
    }

    /// The field value at one pixel (bilinear + 3×3 box blur), identical
    /// to the corresponding entry of [`smooth_field`]. Interior pixels
    /// only get the blur (matching the full generator's edge handling).
    pub fn at(&self, y: usize, x: usize) -> f32 {
        if y == 0 || x == 0 || y + 1 >= self.hw || x + 1 >= self.hw {
            return self.upsampled(y, x);
        }
        let mut acc = 0.0f32;
        for dy in 0..3 {
            for dx in 0..3 {
                acc += self.upsampled(y + dy - 1, x + dx - 1);
            }
        }
        acc / 9.0
    }
}

/// Smooth random field in `[-1, 1]`: coarse noise, bilinear upsample,
/// one box-blur pass. Implemented via `CoarseNoise` so the full and
/// pointwise (sharded) generators are identical by construction.
pub fn smooth_field(hw: usize, seed: u64, coarse: usize) -> Vec<f32> {
    let grid = CoarseNoise::new(hw, seed, coarse);
    // Materialize the bilinear stage once, then blur (same arithmetic as
    // CoarseNoise::at, batched).
    let mut up = vec![0.0f32; hw * hw];
    for y in 0..hw {
        for x in 0..hw {
            up[y * hw + x] = grid.upsampled(y, x);
        }
    }
    let mut blurred = up.clone();
    for y in 1..hw - 1 {
        for x in 1..hw - 1 {
            let mut acc = 0.0f32;
            for dy in 0..3 {
                for dx in 0..3 {
                    acc += up[(y + dy - 1) * hw + (x + dx - 1)];
                }
            }
            blurred[y * hw + x] = acc / 9.0;
        }
    }
    blurred
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let ds = MeshDataset::new(64, 4, 3, 42);
        let a = ds.sample_input(5);
        let b = ds.sample_input(5);
        assert_eq!(a, b);
        let c = ds.sample_input(6);
        assert_ne!(a, c);
    }

    #[test]
    fn fields_are_smooth() {
        // Neighboring pixels correlate strongly: mean |∇| well below the
        // value scale.
        let f = smooth_field(64, 1, 8);
        let mut grad = 0.0f64;
        let mut amp = 0.0f64;
        for y in 0..64 {
            for x in 0..63 {
                grad += (f[y * 64 + x + 1] - f[y * 64 + x]).abs() as f64;
                amp += f[y * 64 + x].abs() as f64;
            }
        }
        assert!(grad / amp < 0.25, "field too rough: grad/amp = {}", grad / amp);
    }

    #[test]
    fn labels_have_both_classes_and_are_deterministic() {
        let ds = MeshDataset::new(128, 8, 2, 7);
        let mut ones = 0usize;
        let mut total = 0usize;
        for i in 0..4 {
            let x = ds.sample_input(i);
            let l = ds.sample_labels(&x);
            assert_eq!(l.data.len(), 64);
            assert_eq!(ds.sample_labels(&x), l);
            ones += l.data.iter().filter(|&&v| v == 1).count();
            total += l.data.len();
        }
        assert!(ones > 0, "no positive labels at all");
        assert!(ones < total, "all labels positive");
    }

    #[test]
    fn batch_concatenates_samples() {
        let ds = MeshDataset::new(64, 4, 3, 9);
        let (x, labels) = ds.batch(0, 2);
        assert_eq!(x.shape(), Shape4::new(2, 3, 64, 64));
        assert_eq!(labels.n, 2);
        // Second sample in the batch equals the standalone sample 1.
        let solo = ds.sample_input(1);
        for c in 0..3 {
            assert_eq!(x.at(1, c, 10, 10), solo.at(0, c, 10, 10));
        }
    }

    #[test]
    fn sharded_loading_matches_full_batch_bitwise() {
        use fg_tensor::{DistTensor, ProcGrid, TensorDist};
        let ds = MeshDataset::new(64, 4, 5, 123);
        let (full, _labels) = ds.batch(3, 4);
        for grid in [ProcGrid::sample(4), ProcGrid::spatial(2, 2), ProcGrid::hybrid(2, 2, 1)] {
            let dist = TensorDist::new(full.shape(), grid);
            for rank in 0..grid.size() {
                let sharded = ds.shard_batch(dist.clone(), rank, 3);
                let reference = DistTensor::from_global(dist.clone(), rank, &full, [0; 4], [0; 4]);
                assert_eq!(
                    sharded.owned_tensor(),
                    reference.owned_tensor(),
                    "grid {grid} rank {rank}"
                );
            }
        }
    }

    #[test]
    fn pointwise_field_matches_batch_field() {
        let full = smooth_field(48, 9, 8);
        let grid = CoarseNoise::new(48, 9, 8);
        for y in [0usize, 1, 24, 46, 47] {
            for x in [0usize, 1, 24, 46, 47] {
                assert_eq!(grid.at(y, x), full[y * 48 + x], "pixel ({y},{x})");
            }
        }
    }

    #[test]
    fn paper_scale_shapes() {
        // 2K configuration: 2048² × 18 channels, labels at 32².
        let ds = MeshDataset::new(2048, 32, 18, 0);
        assert_eq!(ds.input_hw, 2048);
        // One sample is ~288 MiB in f32 — the paper's figure.
        let bytes = 18usize * 2048 * 2048 * 4;
        assert_eq!(bytes, 288 * 1024 * 1024);
    }
}
