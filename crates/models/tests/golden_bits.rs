//! Golden-bits regression for the SSA and SSA+ fits.
//!
//! Speed-ups to the SSA decomposition, the Jacobi eigensolver or the SSA+
//! fit must not move a single bit of any forecast: schedules, hit rates and
//! idle cost all follow from these numbers. The digests below were recorded
//! on the unoptimised fit and must hold at every `IP_THREADS`.

use ip_models::{Forecaster, SsaPlus};
use ip_ssa::{SsaConfig, SsaDecomposition, SsaForecaster};
use ip_timeseries::TimeSeries;

/// Two days at 30-s intervals.
const POINTS: usize = 2 * 86_400 / 30;

/// A fixed demand-like series: daily and hourly cycles plus hashed noise.
fn series() -> TimeSeries {
    let values = (0..POINTS)
        .map(|t| {
            let day = 2.0 * std::f64::consts::PI * t as f64 / 2880.0;
            let hour = 2.0 * std::f64::consts::PI * t as f64 / 120.0;
            let h = (t as u64 ^ 0x9e37_79b9_7f4a_7c15).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let noise = ((h >> 40) as f64 / (1u64 << 24) as f64) - 0.5;
            (40.0 + 25.0 * day.sin() + 6.0 * hour.cos() + 8.0 * noise).max(0.0)
        })
        .collect();
    TimeSeries::new(30, values).unwrap()
}

/// FNV-1a over the little-endian bits of every value.
fn digest(values: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn ssa_reconstruction_and_forecast_bits_are_pinned() {
    let mut ssa = SsaForecaster::new(SsaConfig::default());
    ssa.fit(&series()).unwrap();
    let rec = ssa.reconstruction().unwrap();
    let fc = ssa.predict(120).unwrap();
    assert_eq!(rec.len(), POINTS);
    assert_eq!(
        (digest(rec), digest(&fc)),
        (0x25d9_9d63_8fc2_5bb8, 0xfca1_4cd3_96c2_5504),
        "SSA reconstruction / predict(120) digests moved"
    );
}

#[test]
fn multi_component_reconstruction_bits_are_pinned() {
    // The paper-default rank rule keeps few components on this series, so
    // pin the eigenvalues and wider reconstructions too.
    let d = SsaDecomposition::compute(series().values(), SsaConfig::default().window).unwrap();
    assert_eq!(
        (
            digest(d.eigenvalues()),
            digest(&d.reconstruct(3)),
            digest(&d.reconstruct(8))
        ),
        (
            0x881b_237f_11b5_a0d5,
            0x183f_cc67_8907_48a7,
            0x7ecd_5389_8f6e_33c8
        ),
        "eigenvalue / reconstruct(3) / reconstruct(8) digests moved"
    );
}

#[test]
fn ssa_plus_forecast_bits_are_pinned() {
    let mut m = SsaPlus::paper_default();
    m.fit(&series()).unwrap();
    let fc = m.predict(120).unwrap();
    assert_eq!(
        digest(&fc),
        0x34d5_0b9e_2f73_18f0,
        "SSA+ predict(120) digest moved"
    );
}
