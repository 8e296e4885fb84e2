//! Symmetric eigendecomposition via the cyclic Jacobi method.
//!
//! The Jacobi method is slower asymptotically than Householder
//! tridiagonalization + QL, but it is simple, numerically excellent, and more
//! than fast enough for the lag-covariance matrices SSA builds (window sizes
//! of a few hundred).

use crate::{LinalgError, Matrix, Result};

/// Result of a symmetric eigendecomposition `A = V diag(λ) Vᵀ`.
#[derive(Debug, Clone)]
pub struct EigenDecomposition {
    /// Eigenvalues sorted in descending order.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors as the *columns* of this matrix, ordered to
    /// match `values`.
    pub vectors: Matrix,
}

/// Maximum number of full Jacobi sweeps before reporting non-convergence.
const MAX_SWEEPS: usize = 64;

/// Computes the eigendecomposition of a symmetric matrix.
///
/// `a` must be square and symmetric within `1e-8` relative tolerance;
/// violations return [`LinalgError::DimensionMismatch`]. Within that
/// tolerance only the upper triangle is read: it is mirrored into the lower
/// one on entry, so a matrix whose lower triangle differs by rounding noise
/// decomposes to the same bits as its exactly symmetric upper-triangle
/// mirror.
///
/// The cyclic sweep keeps the working matrix exactly symmetric, so each
/// rotation reads rows `p` and `q` (the same bits as columns `p` and `q`)
/// and the eigenvectors accumulate as the rows of `Vᵀ`. Every access in
/// the inner loops is then contiguous; `Vᵀ` is transposed once at the end.
pub fn symmetric_eigen(a: &Matrix) -> Result<EigenDecomposition> {
    if !a.is_square() {
        return Err(LinalgError::DimensionMismatch {
            expected: "square matrix".to_string(),
            found: format!("{}x{}", a.rows(), a.cols()),
        });
    }
    let n = a.rows();
    if n == 0 {
        return Err(LinalgError::Empty);
    }
    let scale = a.max_abs().max(1.0);
    if !a.is_symmetric(1e-8 * scale) {
        return Err(LinalgError::DimensionMismatch {
            expected: "symmetric matrix".to_string(),
            found: "asymmetric entries beyond tolerance".to_string(),
        });
    }

    let mut m = Matrix::from_fn(n, n, |i, j| a.get(i.min(j), i.max(j)));
    let mut vt = Matrix::identity(n);

    for _sweep in 0..MAX_SWEEPS {
        let off = off_diagonal_norm(&m);
        if off <= 1e-14 * scale * n as f64 {
            return Ok(finish(m, vt));
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m.get(p, q);
                if apq.abs() <= 1e-300 {
                    continue;
                }
                let app = m.get(p, p);
                let aqq = m.get(q, q);
                // Standard Jacobi rotation angle selection (Golub & Van Loan).
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    1.0 / (theta - (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;

                apply_rotation(&mut m, p, q, c, s);
                rotate_rows(&mut vt, p, q, c, s);
            }
        }
    }
    Err(LinalgError::NonConvergence {
        iterations: MAX_SWEEPS,
    })
}

fn off_diagonal_norm(m: &Matrix) -> f64 {
    let n = m.rows();
    let mut sum = 0.0;
    for i in 0..n {
        for j in (i + 1)..n {
            sum += 2.0 * m.get(i, j) * m.get(i, j);
        }
    }
    sum.sqrt()
}

/// Rows `p < q` of a square row-major buffer as two mutable slices.
fn row_pair(data: &mut [f64], n: usize, p: usize, q: usize) -> (&mut [f64], &mut [f64]) {
    debug_assert!(p < q);
    let (head, tail) = data.split_at_mut(q * n);
    (&mut head[p * n..(p + 1) * n], &mut tail[..n])
}

/// `(x, y) ← (c·x − s·y, s·x + c·y)` elementwise.
#[inline]
fn rotate_pair(x: &mut [f64], y: &mut [f64], c: f64, s: f64) {
    for (xk, yk) in x.iter_mut().zip(y.iter_mut()) {
        let (a, b) = (*xk, *yk);
        *xk = c * a - s * b;
        *yk = s * a + c * b;
    }
}

/// Applies the two-sided rotation `Jᵀ M J` to the exactly symmetric `m`:
/// rows `p` and `q` rotate in place, then are mirrored into columns `p`
/// and `q`.
fn apply_rotation(m: &mut Matrix, p: usize, q: usize, c: f64, s: f64) {
    let n = m.rows();
    let app = m.get(p, p);
    let aqq = m.get(q, q);
    let apq = m.get(p, q);

    let new_pp = c * c * app - 2.0 * s * c * apq + s * s * aqq;
    let new_qq = s * s * app + 2.0 * s * c * apq + c * c * aqq;

    let data = m.as_mut_slice();
    let (row_p, row_q) = row_pair(data, n, p, q);
    // Entries k = p and k = q are rotated too and overwritten below; every
    // other entry depends only on its own (p, k) and (q, k).
    rotate_pair(row_p, row_q, c, s);
    for k in 0..n {
        data[k * n + p] = data[p * n + k];
        data[k * n + q] = data[q * n + k];
    }
    m.set(p, p, new_pp);
    m.set(q, q, new_qq);
    m.set(p, q, 0.0);
    m.set(q, p, 0.0);
}

/// Applies the rotation to the accumulated `Vᵀ` (rows p, q).
fn rotate_rows(vt: &mut Matrix, p: usize, q: usize, c: f64, s: f64) {
    let n = vt.cols();
    let (row_p, row_q) = row_pair(vt.as_mut_slice(), n, p, q);
    rotate_pair(row_p, row_q, c, s);
}

fn finish(m: Matrix, vt: Matrix) -> EigenDecomposition {
    let n = m.rows();
    let mut order: Vec<usize> = (0..n).collect();
    let values_raw: Vec<f64> = (0..n).map(|i| m.get(i, i)).collect();
    order.sort_by(|&a, &b| values_raw[b].partial_cmp(&values_raw[a]).unwrap());

    let values: Vec<f64> = order.iter().map(|&i| values_raw[i]).collect();
    let vectors = Matrix::from_fn(n, n, |i, j| vt.get(order[j], i));
    EigenDecomposition { values, vectors }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reconstruct(e: &EigenDecomposition) -> Matrix {
        let n = e.values.len();
        let lambda = Matrix::from_fn(n, n, |i, j| if i == j { e.values[i] } else { 0.0 });
        e.vectors
            .matmul(&lambda)
            .unwrap()
            .matmul(&e.vectors.transpose())
            .unwrap()
    }

    #[test]
    fn diagonal_matrix_eigen() {
        let a = Matrix::from_vec(3, 3, vec![3.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 2.0]).unwrap();
        let e = symmetric_eigen(&a).unwrap();
        assert_eq!(e.values, vec![3.0, 2.0, 1.0]);
    }

    #[test]
    fn known_2x2() {
        // Eigenvalues of [[2,1],[1,2]] are 3 and 1.
        let a = Matrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 2.0]).unwrap();
        let e = symmetric_eigen(&a).unwrap();
        assert!((e.values[0] - 3.0).abs() < 1e-10);
        assert!((e.values[1] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn reconstruction_and_orthogonality() {
        // A fixed pseudo-random symmetric matrix.
        let n = 8;
        let mut seed = 42u64;
        let mut rnd = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let b = Matrix::from_fn(n, n, |_, _| rnd());
        let a = b.add(&b.transpose()).unwrap().scale(0.5);

        let e = symmetric_eigen(&a).unwrap();
        let err = reconstruct(&e).sub(&a).unwrap().frobenius_norm();
        assert!(err < 1e-9, "reconstruction error {err}");

        let vtv = e.vectors.a_transpose_a();
        let orth_err = vtv.sub(&Matrix::identity(n)).unwrap().frobenius_norm();
        assert!(orth_err < 1e-9, "orthogonality error {orth_err}");
    }

    #[test]
    fn values_sorted_descending() {
        let a = Matrix::from_vec(3, 3, vec![1.0, 0.5, 0.0, 0.5, 2.0, 0.3, 0.0, 0.3, 0.7]).unwrap();
        let e = symmetric_eigen(&a).unwrap();
        assert!(e.values.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn perturbed_lower_triangle_decomposes_like_its_upper_mirror() {
        let n = 12;
        // Row 0 is decoupled above the diagonal, so no (0, q) rotation runs
        // and only the entry mirror keeps the noise in column 0 unread.
        let upper = Matrix::from_fn(n, n, |i, j| {
            let (i, j) = (i.min(j), i.max(j));
            if i == j {
                20.0 + i as f64
            } else if i == 0 {
                0.0
            } else {
                ((i * 7 + j * 3) % 11) as f64 - 5.0
            }
        });
        // Rounding-sized noise below the diagonal, inside the tolerance.
        let perturbed = Matrix::from_fn(n, n, |i, j| {
            let v = upper.get(i, j);
            if i > j {
                v + 1e-12 * ((i + j) % 3 + 1) as f64
            } else {
                v
            }
        });
        assert_ne!(perturbed, upper);
        let (a, b) = (
            symmetric_eigen(&perturbed).unwrap(),
            symmetric_eigen(&upper).unwrap(),
        );
        let bits = |m: &[f64]| m.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.values), bits(&b.values));
        assert_eq!(bits(a.vectors.as_slice()), bits(b.vectors.as_slice()));
    }

    #[test]
    fn rejects_asymmetric() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 5.0, 0.0, 1.0]).unwrap();
        assert!(symmetric_eigen(&a).is_err());
    }

    #[test]
    fn rejects_non_square_and_empty() {
        assert!(symmetric_eigen(&Matrix::zeros(2, 3)).is_err());
        assert!(matches!(
            symmetric_eigen(&Matrix::zeros(0, 0)),
            Err(LinalgError::Empty)
        ));
    }
}
