//! Synthetic ImageNet-like classification data.
//!
//! Stand-in for ImageNet-1K (which we cannot ship): 224²×3 images whose
//! pixel statistics match normalized natural images, with a learnable
//! class signal — each class has a fixed low-frequency template blended
//! into per-sample noise, so accuracy above chance is achievable and
//! end-to-end training tests can verify learning, while throughput
//! benchmarks see realistic tensor shapes and value ranges.

use fg_kernels::loss::Labels;
use fg_tensor::{Shape4, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::mesh::smooth_field;

/// Synthetic labeled-image generator.
#[derive(Debug, Clone)]
pub struct ImageDataset {
    /// Image extent (224 for ImageNet).
    pub hw: usize,
    /// Channels (3).
    pub channels: usize,
    /// Number of classes.
    pub classes: usize,
    /// Template-to-noise blend (0 = pure noise, 1 = pure template).
    pub signal: f32,
    base_seed: u64,
}

impl ImageDataset {
    /// Create a generator.
    pub fn new(hw: usize, channels: usize, classes: usize, seed: u64) -> Self {
        ImageDataset { hw, channels, classes, signal: 0.6, base_seed: seed }
    }

    /// Deterministic label of sample `index`.
    fn label_of(&self, index: usize) -> u32 {
        (splitmix(self.base_seed.wrapping_add(index as u64)) % self.classes as u64) as u32
    }

    /// One sample image (shape `1×C×H×W`).
    pub fn sample_input(&self, index: usize) -> Tensor {
        let class = self.label_of(index);
        let mut rng = StdRng::seed_from_u64(
            self.base_seed ^ (index as u64).wrapping_mul(0xA24B_AED4_963E_E407),
        );
        let mut t = Tensor::zeros(Shape4::new(1, self.channels, self.hw, self.hw));
        for c in 0..self.channels {
            // Class template: smooth field seeded by (class, channel),
            // plus a class-dependent per-channel intensity offset (the
            // kind of low-order statistic a small CNN latches onto).
            let template =
                smooth_field(self.hw, 0xC1A5_5000 + class as u64 * 37 + c as u64, self.hw / 8);
            let offset = (splitmix(0x0FF5_E700 + class as u64 * 101 + c as u64) % 1000) as f32
                / 1000.0
                - 0.5;
            let base = t.shape().offset(0, c, 0, 0);
            for (dst, tv) in
                t.as_mut_slice()[base..base + self.hw * self.hw].iter_mut().zip(&template)
            {
                let noise: f32 = rng.gen_range(-1.0..1.0);
                *dst = self.signal * (tv + offset) + (1.0 - self.signal) * noise;
            }
        }
        t
    }

    /// A full mini-batch `(inputs, labels)`.
    pub fn batch(&self, start_index: usize, n: usize) -> (Tensor, Labels) {
        let mut x = Tensor::zeros(Shape4::new(n, self.channels, self.hw, self.hw));
        let mut labels = Vec::with_capacity(n);
        for k in 0..n {
            let sample = self.sample_input(start_index + k);
            let sb = x.shape().offset(k, 0, 0, 0);
            let len = self.channels * self.hw * self.hw;
            x.as_mut_slice()[sb..sb + len].copy_from_slice(sample.as_slice());
            labels.push(self.label_of(start_index + k));
        }
        (x, Labels::per_sample(labels))
    }
}

/// SplitMix64 finalizer: a high-quality deterministic hash.
fn splitmix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_distinct() {
        let ds = ImageDataset::new(32, 3, 10, 3);
        assert_eq!(ds.sample_input(0), ds.sample_input(0));
        assert_ne!(ds.sample_input(0), ds.sample_input(1));
        assert_eq!(ds.label_of(4), ds.label_of(4));
    }

    #[test]
    fn labels_cover_classes_roughly_uniformly() {
        let ds = ImageDataset::new(16, 3, 4, 11);
        let mut counts = [0usize; 4];
        for i in 0..400 {
            counts[ds.label_of(i) as usize] += 1;
        }
        for c in counts {
            assert!((60..=140).contains(&c), "class imbalance: {counts:?}");
        }
    }

    #[test]
    fn same_class_samples_correlate_more_than_cross_class() {
        let ds = ImageDataset::new(32, 1, 3, 5);
        // Find two samples of the same class and one of a different class.
        let (mut a, mut b, mut c) = (None, None, None);
        for i in 0..100 {
            match (ds.label_of(i), &a, &b) {
                (0, None, _) => a = Some(i),
                (0, Some(_), None) => b = Some(i),
                (1, _, _) if c.is_none() => c = Some(i),
                _ => {}
            }
        }
        let (a, b, c) = (a.unwrap(), b.unwrap(), c.unwrap());
        let corr = |i: usize, j: usize| {
            let x = ds.sample_input(i);
            let y = ds.sample_input(j);
            x.as_slice().iter().zip(y.as_slice()).map(|(p, q)| p * q).sum::<f32>()
        };
        assert!(corr(a, b) > corr(a, c), "same-class correlation must exceed cross-class");
    }

    #[test]
    fn a_small_cnn_learns_the_synthetic_classes() {
        use fg_nn::{Network, NetworkSpec, Sgd};
        let ds = ImageDataset::new(16, 2, 3, 21);
        let mut spec = NetworkSpec::new();
        let i = spec.input("x", 2, 16, 16);
        let c1 = spec.conv("c1", i, 8, 3, 2, 1);
        let r1 = spec.relu("r1", c1);
        let g = spec.global_avg_pool("gap", r1);
        let f = spec.fc("fc", g, 3);
        spec.loss("loss", f);
        let mut net = Network::init(spec, 13);
        let mut opt = Sgd::new(0.1, 0.9, 0.0, &net.params);
        let (x, labels) = ds.batch(0, 12);
        let (first, _) = net.loss_and_grads(&x, &labels);
        let mut last = first;
        for _ in 0..25 {
            let (loss, grads) = net.loss_and_grads(&x, &labels);
            opt.step(&mut net.params, &grads);
            last = loss;
        }
        assert!(last < first * 0.5, "synthetic classes not learnable: {first} → {last}");
    }
}
