//! Rectified linear unit. Elementwise, so it "parallelizes trivially
//! regardless of distribution" (paper §III-B) — the distributed layer
//! just applies it to the owned region of any shard.

use fg_tensor::Tensor;

/// `y = max(x, 0)`.
pub fn relu_forward(x: &Tensor) -> Tensor {
    let mut y = x.clone();
    for v in y.as_mut_slice() {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
    y
}

/// `dx = dy · 1[x > 0]`.
pub fn relu_backward(x: &Tensor, dy: &Tensor) -> Tensor {
    assert_eq!(x.shape(), dy.shape(), "relu backward shape mismatch");
    let mut dx = dy.clone();
    for (d, &xv) in dx.as_mut_slice().iter_mut().zip(x.as_slice()) {
        if xv <= 0.0 {
            *d = 0.0;
        }
    }
    dx
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_tensor::Shape4;

    #[test]
    fn forward_clamps_negatives() {
        let x = Tensor::from_vec(Shape4::new(1, 1, 1, 4), vec![-1.0, 0.0, 2.0, -3.5]);
        let y = relu_forward(&x);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn backward_masks_by_input_sign() {
        let x = Tensor::from_vec(Shape4::new(1, 1, 1, 4), vec![-1.0, 0.0, 2.0, 3.0]);
        let dy = Tensor::from_vec(Shape4::new(1, 1, 1, 4), vec![10.0, 10.0, 10.0, 10.0]);
        let dx = relu_backward(&x, &dy);
        // Subgradient at 0 chosen as 0 (matches cuDNN).
        assert_eq!(dx.as_slice(), &[0.0, 0.0, 10.0, 10.0]);
    }
}
