//! Oracle for `SsaDecomposition::reconstruct`: an eager, textbook
//! reference that builds the factor row of every component up front and
//! Hankel-averages by counting cells, written here independently of the
//! crate's code. The lazy path must match it bit for bit.

use ip_ssa::SsaDecomposition;

fn series(n: usize) -> Vec<f64> {
    (0..n)
        .map(|t| {
            let t = t as f64;
            20.0 + 6.0 * (t * 0.05).sin() + 2.0 * (t * 0.71).cos() + 0.01 * t
        })
        .collect()
}

/// All L factor rows `wᵢ[j] = Σ_l uᵢ[l]·x[l+j]`, then the rank-`r` matrix
/// entry by entry, then averages over each anti-diagonal.
fn eager_reconstruct(d: &SsaDecomposition, x: &[f64], rank: usize) -> Vec<f64> {
    let l_len = d.window();
    let k = x.len() - l_len + 1;
    let u: Vec<Vec<f64>> = (0..l_len).map(|i| d.left_vector(i)).collect();
    let mut w = vec![vec![0.0; k]; l_len];
    for (comp, row) in w.iter_mut().enumerate() {
        for l in 0..l_len {
            if u[comp][l] == 0.0 {
                continue;
            }
            for j in 0..k {
                row[j] += u[comp][l] * x[l + j];
            }
        }
    }
    let mut sums = vec![0.0; x.len()];
    let mut counts = vec![0u32; x.len()];
    for l in 0..l_len {
        for j in 0..k {
            let mut v = 0.0;
            for comp in 0..rank {
                v += u[comp][l] * w[comp][j];
            }
            sums[l + j] += v;
            counts[l + j] += 1;
        }
    }
    sums.iter()
        .zip(&counts)
        .map(|(s, &c)| s / f64::from(c))
        .collect()
}

#[test]
fn lazy_reconstruction_matches_eager_reference_bit_for_bit() {
    let x = series(500);
    let window = 40;
    let d = SsaDecomposition::compute(&x, window).unwrap();
    for rank in [1, 5, window] {
        let lazy = d.reconstruct(rank);
        let eager = eager_reconstruct(&d, &x, rank);
        assert_eq!(lazy.len(), eager.len());
        for (t, (a, b)) in lazy.iter().zip(&eager).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "rank {rank}, t {t}: {a} vs {b}");
        }
    }
}
