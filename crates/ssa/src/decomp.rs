//! Embedding, decomposition and diagonal-averaging reconstruction.

use crate::{Result, SsaError};
use ip_linalg::{symmetric_eigen, Matrix};

/// Builds the `L×L` lag-covariance matrix `S = X Xᵀ` of the Hankel
/// trajectory matrix without materializing `X` (`K = N−L+1` columns).
///
/// `S[i][j] = Σ_{k=0}^{K−1} x[i+k]·x[j+k]`.
///
/// Runs in O(L·N) rather than the naive O(L²·K): row 0 is computed with
/// direct dot products (in parallel — each entry is an independent dot),
/// and every remaining entry follows from the sliding window recurrence
///
/// ```text
/// S[i+1][j+1] = S[i][j] − x[i]·x[j] + x[i+K]·x[j+K]
/// ```
///
/// since the `(i+1, j+1)` window is the `(i, j)` window shifted one step:
/// it drops the leading product and gains one past the old end. The
/// recurrence walks each diagonal from its row-0 head, so each entry costs
/// O(1) and the result stays exactly symmetric.
pub fn lag_covariance(values: &[f64], window: usize) -> Result<Matrix> {
    let _span = ip_obs::span("ssa.lag_covariance");
    let n = values.len();
    if window < 2 || window > n / 2 {
        return Err(SsaError::InvalidWindow {
            window,
            series_len: n,
        });
    }
    let k = n - window + 1;
    let mut s = Matrix::zeros(window, window);
    let lags: Vec<usize> = (0..window).collect();
    let row0 = ip_par::par_map(&lags, |&j| ip_linalg::dot(&values[..k], &values[j..j + k]));
    for (j, &v) in row0.iter().enumerate() {
        s.set(0, j, v);
        s.set(j, 0, v);
    }
    for d in 0..window {
        for i in 1..window - d {
            let j = i + d;
            let v = s.get(i - 1, j - 1) - values[i - 1] * values[j - 1]
                + values[i - 1 + k] * values[j - 1 + k];
            s.set(i, j, v);
            s.set(j, i, v);
        }
    }
    Ok(s)
}

/// The decomposition of a series: eigenpairs of the lag-covariance matrix
/// plus the series itself, from which [`SsaDecomposition::reconstruct`]
/// builds the factor rows `wᵢ = uᵢᵀ X` of just the components it needs.
#[derive(Debug, Clone)]
pub struct SsaDecomposition {
    window: usize,
    /// The decomposed series (`N` values).
    values: Vec<f64>,
    /// Eigenvalues of `XXᵀ` (σᵢ², descending, clipped at zero).
    eigenvalues: Vec<f64>,
    /// Left singular vectors as columns (L × L).
    u: Matrix,
}

impl SsaDecomposition {
    /// Decomposes `values` with embedding window `window`.
    pub fn compute(values: &[f64], window: usize) -> Result<Self> {
        let s = lag_covariance(values, window)?;
        let eig = {
            let _span = ip_obs::span("ssa.eigen");
            symmetric_eigen(&s).map_err(|e| SsaError::Linalg(e.to_string()))?
        };
        let eigenvalues = eig.values.iter().map(|&v| v.max(0.0)).collect();
        Ok(Self {
            window,
            values: values.to_vec(),
            eigenvalues,
            u: eig.vectors,
        })
    }

    /// Number of available components (= window).
    pub fn num_components(&self) -> usize {
        self.window
    }

    /// Eigenvalue spectrum (descending).
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }

    /// Embedding window `L`.
    pub fn window(&self) -> usize {
        self.window
    }

    /// `i`-th left singular vector (length L).
    pub fn left_vector(&self, i: usize) -> Vec<f64> {
        self.u.col(i)
    }

    /// Smallest prefix of components whose eigenvalue mass reaches
    /// `fraction` of the total; always at least 1.
    pub fn rank_for_energy(&self, fraction: f64) -> usize {
        let total: f64 = self.eigenvalues.iter().sum();
        if total <= 0.0 {
            return 1;
        }
        let target = fraction.clamp(0.0, 1.0) * total;
        let mut acc = 0.0;
        for (i, &v) in self.eigenvalues.iter().enumerate() {
            acc += v;
            if acc >= target {
                return i + 1;
            }
        }
        self.window
    }

    /// Factor row `wᵢ[j] = Σ_l uᵢ[l]·x[l+j]` of component `comp` (length K).
    fn factor_row(&self, comp: usize) -> Vec<f64> {
        let k = self.values.len() - self.window + 1;
        let mut w = vec![0.0; k];
        for l in 0..self.window {
            let ul = self.u.get(l, comp);
            if ul == 0.0 {
                continue;
            }
            for (out, &x) in w.iter_mut().zip(&self.values[l..l + k]) {
                *out += ul * x;
            }
        }
        w
    }

    /// Reconstructs the series from the leading `rank` components via
    /// diagonal averaging (Hankelization).
    ///
    /// Entry `(l, j)` of the rank-`r` matrix is `Σᵢ uᵢ[l]·wᵢ[j]`; the value at
    /// time `t` is the average over all `(l, j)` with `l + j = t`. Only the
    /// `rank` factor rows this sums are built, at O(rank·L·K).
    pub fn reconstruct(&self, rank: usize) -> Vec<f64> {
        let _span = ip_obs::span("ssa.reconstruct");
        let rank = rank.min(self.window).max(1);
        let n = self.values.len();
        let k = n - self.window + 1;
        let factor_rows: Vec<Vec<f64>> = (0..rank).map(|c| self.factor_row(c)).collect();
        let mut sums = vec![0.0; n];
        let mut row = vec![0.0; k];
        for l in 0..self.window {
            // Row l of the rank-r matrix, summed over components in order.
            row.fill(0.0);
            for (comp, w) in factor_rows.iter().enumerate() {
                let ul = self.u.get(l, comp);
                for (v, &wj) in row.iter_mut().zip(w) {
                    *v += ul * wj;
                }
            }
            for (sum, &v) in sums[l..l + k].iter_mut().zip(&row) {
                *sum += v;
            }
        }
        // Time t is covered by min(t, L−1, K−1, N−1−t) + 1 anti-diagonal cells.
        let last = self.window.min(k) - 1;
        sums.iter()
            .enumerate()
            .map(|(t, s)| s / (t.min(last).min(n - 1 - t) + 1) as f64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lag_covariance_matches_explicit_hankel() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let l = 3;
        let k = x.len() - l + 1;
        let hankel = Matrix::from_fn(l, k, |i, j| x[i + j]);
        let explicit = hankel.matmul(&hankel.transpose()).unwrap();
        let fast = lag_covariance(&x, l).unwrap();
        assert!(explicit.sub(&fast).unwrap().frobenius_norm() < 1e-12);
    }

    #[test]
    fn recurrence_matches_direct_sums_at_scale() {
        // Exercises many diagonal steps so drift in the sliding recurrence
        // would surface; compares against the naive O(L²·K) sums.
        let x: Vec<f64> = (0..400)
            .map(|t| (t as f64 * 0.17).sin() * (1.0 + 0.01 * t as f64))
            .collect();
        let l = 60;
        let k = x.len() - l + 1;
        let fast = lag_covariance(&x, l).unwrap();
        for i in 0..l {
            for j in i..l {
                let direct: f64 = (0..k).map(|t| x[i + t] * x[j + t]).sum();
                let got = fast.get(i, j);
                assert!(
                    (got - direct).abs() <= 1e-9 * direct.abs().max(1.0),
                    "S[{i}][{j}]: {got} vs {direct}"
                );
                assert_eq!(
                    got.to_bits(),
                    fast.get(j, i).to_bits(),
                    "asymmetry at {i},{j}"
                );
            }
        }
    }

    #[test]
    fn invalid_windows_rejected() {
        let x = [1.0; 10];
        assert!(lag_covariance(&x, 1).is_err());
        assert!(lag_covariance(&x, 6).is_err()); // > N/2
        assert!(lag_covariance(&x, 5).is_ok());
    }

    #[test]
    fn full_rank_reconstruction_is_exact() {
        // With all L components the reconstruction equals the input exactly.
        let x: Vec<f64> = (0..40)
            .map(|t| (t as f64 * 0.3).sin() + 0.1 * t as f64)
            .collect();
        let d = SsaDecomposition::compute(&x, 10).unwrap();
        let rec = d.reconstruct(10);
        for (a, b) in rec.iter().zip(&x) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }

    #[test]
    fn constant_series_rank_one() {
        let x = vec![4.0; 30];
        let d = SsaDecomposition::compute(&x, 8).unwrap();
        assert_eq!(d.rank_for_energy(0.99), 1);
        let rec = d.reconstruct(1);
        for v in rec {
            assert!((v - 4.0).abs() < 1e-9);
        }
    }

    #[test]
    fn eigenvalue_mass_equals_signal_energy() {
        // trace(XXᵀ) = Σ eigenvalues = Σ over Hankel entries squared.
        let x: Vec<f64> = (0..24).map(|t| (t as f64 * 0.7).cos()).collect();
        let l = 6;
        let d = SsaDecomposition::compute(&x, l).unwrap();
        let k = x.len() - l + 1;
        let mut energy = 0.0;
        for i in 0..l {
            for j in 0..k {
                energy += x[i + j] * x[i + j];
            }
        }
        let mass: f64 = d.eigenvalues().iter().sum();
        assert!((energy - mass).abs() < 1e-8 * energy.max(1.0));
    }

    #[test]
    fn rank_for_energy_monotone() {
        let x: Vec<f64> = (0..50)
            .map(|t| (t as f64 * 0.3).sin() + 0.05 * t as f64)
            .collect();
        let d = SsaDecomposition::compute(&x, 12).unwrap();
        let r50 = d.rank_for_energy(0.5);
        let r90 = d.rank_for_energy(0.9);
        let r100 = d.rank_for_energy(1.0);
        assert!(r50 <= r90 && r90 <= r100);
        assert!(r50 >= 1);
        assert!(r100 <= 12);
    }
}
