//! Single-precision dense matrix multiply.
//!
//! The workhorse behind the fully-connected layer. Row-major,
//! `C += A · B` semantics with a cache-friendly i-k-j loop order (the
//! inner loop streams both `B` and `C` rows contiguously, which the
//! optimizer vectorizes).

/// `c[m×n] += a[m×k] · b[k×n]`, all row-major.
pub fn sgemm_acc(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "A dimensions mismatch");
    assert_eq!(b.len(), k * n, "B dimensions mismatch");
    assert_eq!(c.len(), m * n, "C dimensions mismatch");
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let c_row = &mut c[i * n..(i + 1) * n];
        for (p, &aip) in a_row.iter().enumerate() {
            if aip == 0.0 {
                continue;
            }
            let b_row = &b[p * n..(p + 1) * n];
            for (cv, bv) in c_row.iter_mut().zip(b_row) {
                *cv += aip * bv;
            }
        }
    }
}

/// `c[m×n] += aᵀ[m×k] · b[k×n]` where `a` is stored as `k×m` row-major
/// (i.e. multiply by the transpose of a without materializing it).
pub fn sgemm_at_acc(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), k * m, "A (transposed) dimensions mismatch");
    assert_eq!(b.len(), k * n, "B dimensions mismatch");
    assert_eq!(c.len(), m * n, "C dimensions mismatch");
    for p in 0..k {
        let a_row = &a[p * m..(p + 1) * m];
        let b_row = &b[p * n..(p + 1) * n];
        for (i, &api) in a_row.iter().enumerate() {
            if api == 0.0 {
                continue;
            }
            let c_row = &mut c[i * n..(i + 1) * n];
            for (cv, bv) in c_row.iter_mut().zip(b_row) {
                *cv += api * bv;
            }
        }
    }
}

/// `c[m×n] += a[m×k] · bᵀ[k×n]` where `b` is stored as `n×k` row-major.
pub fn sgemm_bt_acc(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "A dimensions mismatch");
    assert_eq!(b.len(), n * k, "B (transposed) dimensions mismatch");
    assert_eq!(c.len(), m * n, "C dimensions mismatch");
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let c_row = &mut c[i * n..(i + 1) * n];
        for (j, cv) in c_row.iter_mut().enumerate() {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (av, bv) in a_row.iter().zip(b_row) {
                acc += av * bv;
            }
            *cv += acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `c = a · b`, allocating the result.
    fn sgemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        sgemm_acc(m, k, n, a, b, &mut c);
        c
    }

    #[test]
    fn gemm_matches_hand_computed() {
        // [1 2; 3 4] · [5 6; 7 8] = [19 22; 43 50]
        let c = sgemm(2, 2, 2, &[1., 2., 3., 4.], &[5., 6., 7., 8.]);
        assert_eq!(c, vec![19., 22., 43., 50.]);
    }

    #[test]
    fn gemm_acc_accumulates() {
        let mut c = vec![1.0; 4];
        sgemm_acc(2, 2, 2, &[1., 0., 0., 1.], &[5., 6., 7., 8.], &mut c);
        assert_eq!(c, vec![6., 7., 8., 9.]);
    }

    #[test]
    fn rectangular_shapes() {
        // (1×3) · (3×2)
        let c = sgemm(1, 3, 2, &[1., 2., 3.], &[1., 4., 2., 5., 3., 6.]);
        assert_eq!(c, vec![14., 32.]);
    }

    #[test]
    fn transposed_variants_agree_with_plain() {
        let m = 3;
        let k = 4;
        let n = 5;
        let a: Vec<f32> = (0..m * k).map(|i| (i as f32) * 0.5 - 2.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i as f32) * 0.25 + 1.0).collect();
        let want = sgemm(m, k, n, &a, &b);

        // Aᵀ path: store a as k×m.
        let mut at = vec![0.0; k * m];
        for i in 0..m {
            for p in 0..k {
                at[p * m + i] = a[i * k + p];
            }
        }
        let mut c1 = vec![0.0; m * n];
        sgemm_at_acc(m, k, n, &at, &b, &mut c1);
        assert_eq!(c1, want);

        // Bᵀ path: store b as n×k.
        let mut bt = vec![0.0; n * k];
        for p in 0..k {
            for j in 0..n {
                bt[j * k + p] = b[p * n + j];
            }
        }
        let mut c2 = vec![0.0; m * n];
        sgemm_bt_acc(m, k, n, &a, &bt, &mut c2);
        assert_eq!(c2, want);
    }
}
