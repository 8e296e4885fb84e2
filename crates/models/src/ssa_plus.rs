//! SSA+ — the paper's hybrid model (§5.3): an SSA forecaster followed by a
//! shallow two-layer ReLU error predictor (~30 parameters) trained with the
//! asymmetric loss of Eq. 12.
//!
//! SSA alone cannot be told to overshoot demand; the deep models can (via
//! the loss) but are ~200× slower to train (Fig. 6). SSA+ gets both: the
//! error head learns the *systematic* over/undershoot needed to hit a target
//! wait time, while SSA carries the signal. Training the head on a held-out
//! calibration slice of the history keeps it honest about SSA's true
//! out-of-sample error.

use crate::{FitReport, Forecaster, ModelError, Result};
use ip_nn::graph::{Graph, NodeId};
use ip_nn::layers::Linear;
use ip_nn::loss::asymmetric;
use ip_nn::optim::Adam;
use ip_nn::tensor::Tensor;
use ip_ssa::{RankSelection, SsaConfig, SsaForecaster};
use ip_timeseries::TimeSeries;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Configuration for [`SsaPlus`].
#[derive(Debug, Clone)]
pub struct SsaPlusConfig {
    /// SSA embedding window.
    pub window: usize,
    /// SSA component selection.
    pub rank: RankSelection,
    /// Hidden width of the error head (default 5 → 31 parameters total).
    pub hidden: usize,
    /// Asymmetric-loss α' — the overshoot knob. Values near 1 teach the
    /// head to overshoot (low wait time), near 0 to undershoot (low idle).
    pub alpha_prime: f32,
    /// Error-head training epochs (full-batch Adam; the head is tiny).
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Fraction of the history used to fit SSA before calibrating the head
    /// on the remainder. The calibration slice should span at least one full
    /// day so the head's time-of-day features see every regime; 0.5 on a
    /// two-day history achieves that.
    pub calibration_split: f64,
    /// Rolling-origin chunk length for calibration: the head is trained on
    /// forecasts of this horizon issued from successive origins across the
    /// calibration slice (matching how the deployed pipeline issues
    /// short-horizon forecasts right after each fit). Default: 120 intervals
    /// = one production hour.
    pub calibration_chunk: usize,
    /// RNG seed for head initialization.
    pub seed: u64,
}

impl Default for SsaPlusConfig {
    fn default() -> Self {
        Self {
            window: 150,
            rank: RankSelection::EnergyThreshold(0.90),
            hidden: 5,
            alpha_prime: 0.5,
            epochs: 300,
            lr: 0.02,
            calibration_split: 0.5,
            calibration_chunk: 120,
            seed: 0,
        }
    }
}

/// Number of input features to the error head: normalized SSA prediction,
/// sin/cos time-of-day, and normalized step-ahead index.
const FEATURES: usize = 4;

/// The hybrid SSA+ forecaster.
pub struct SsaPlus {
    config: SsaPlusConfig,
    ssa: SsaForecaster,
    graph: Graph,
    l1: Linear,
    l2: Linear,
    scale: f64,
    interval_secs: u64,
    train_len: usize,
    fitted: bool,
    param_count: usize,
}

impl SsaPlus {
    /// Creates an unfitted SSA+ model.
    pub fn new(config: SsaPlusConfig) -> Self {
        let mut graph = Graph::new(config.seed);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let l1 = Linear::new(&mut graph, FEATURES, config.hidden, &mut rng);
        let l2 = Linear::new(&mut graph, config.hidden, 1, &mut rng);
        graph.freeze();
        // A 2,880 × 4 × 5 product is far too small to pay for the kernel
        // threads a gemm call would otherwise spawn on every epoch.
        graph.set_threads(Some(1));
        let param_count = graph.params().iter().map(|&p| graph.value(p).numel()).sum();
        Self {
            ssa: SsaForecaster::new(SsaConfig {
                window: config.window,
                rank: config.rank,
            }),
            config,
            graph,
            l1,
            l2,
            scale: 1.0,
            interval_secs: 30,
            train_len: 0,
            fitted: false,
            param_count,
        }
    }

    /// Paper-scale default configuration.
    pub fn paper_default() -> Self {
        Self::new(SsaPlusConfig::default())
    }

    /// Paper-default but with an explicit overshoot knob (the Fig. 5 sweep).
    pub fn with_alpha(alpha_prime: f32) -> Self {
        Self::new(SsaPlusConfig {
            alpha_prime,
            ..SsaPlusConfig::default()
        })
    }

    /// Number of trainable parameters in the error head (≈30, per §5.3).
    pub fn head_param_count(&self) -> usize {
        self.param_count
    }

    fn features(&self, ssa_pred: f64, abs_index: usize, step_ahead: usize) -> [f32; FEATURES] {
        let second_of_day = (abs_index as u64 * self.interval_secs) % 86_400;
        let phase = 2.0 * std::f64::consts::PI * second_of_day as f64 / 86_400.0;
        // The step-ahead feature uses a *fixed* normalization (the paper's
        // 1200-step production horizon) so that training-time and
        // prediction-time horizons need not match.
        const STEP_SCALE: f64 = 1200.0;
        [
            (ssa_pred / self.scale) as f32,
            phase.sin() as f32,
            phase.cos() as f32,
            (step_ahead as f64 / STEP_SCALE).min(2.0) as f32,
        ]
    }

    /// Full-batch Adam on the error head; returns the final loss.
    fn train_head(&mut self, x: &Tensor, preds: &Tensor, targets: &Tensor) -> f64 {
        let mut adam = Adam::new(self.config.lr);
        let mut final_loss = f64::NAN;
        for _ in 0..self.config.epochs {
            let correction = self.head_forward(x.clone());
            let base = self.graph.constant(preds.clone());
            let target = self.graph.constant(targets.clone());
            let corrected = self.graph.add(base, correction);
            let loss = asymmetric(&mut self.graph, corrected, target, self.config.alpha_prime);
            final_loss = f64::from(self.graph.value(loss).item().expect("scalar"));
            self.graph.backward(loss);
            adam.step(&mut self.graph);
        }
        final_loss
    }

    fn head_forward(&mut self, x: Tensor) -> NodeId {
        let n = x.shape()[0];
        self.graph.reset();
        let xb = self.graph.constant(x);
        let h = self.l1.forward(&mut self.graph, xb);
        let h = self.graph.relu(h);
        let out = self.l2.forward(&mut self.graph, h);
        self.graph.reshape(out, &[n, 1])
    }
}

impl Forecaster for SsaPlus {
    fn name(&self) -> &'static str {
        "SSA+"
    }

    fn fit(&mut self, train: &TimeSeries) -> Result<FitReport> {
        let start = Instant::now();
        let needed = self.config.window * 3;
        if train.len() < needed {
            return Err(ModelError::SeriesTooShort {
                needed,
                got: train.len(),
            });
        }
        self.interval_secs = train.interval_secs();
        self.scale = train.std_dev().unwrap_or(1.0).max(1e-6);

        // 1. Fit SSA on the earlier portion, then produce *rolling-origin*
        //    forecasts across the calibration slice: from each successive
        //    origin, the fitted recurrence extends the actual history by one
        //    chunk (= one production hour). This matches the deployment
        //    distribution — the worker forecasts a short horizon right after
        //    fitting — so the head learns a correction that transfers,
        //    instead of compensating a single long-horizon drift.
        let cut = ((train.len() as f64) * self.config.calibration_split).round() as usize;
        let cut = cut.clamp(self.config.window * 2, train.len().saturating_sub(8));
        let head_series = train
            .slice(0, cut)
            .map_err(|e| ModelError::Internal(e.to_string()))?;
        let calib_len = train.len() - cut;
        self.ssa
            .fit(&head_series)
            .map_err(|e| ModelError::Internal(e.to_string()))?;
        let chunk = self.config.calibration_chunk.max(1);
        let values = train.values();
        let mut ssa_calib = Vec::with_capacity(calib_len);
        let mut origin = cut;
        while origin < train.len() {
            let h = chunk.min(train.len() - origin);
            let fc = self
                .ssa
                .forecast_from(&values[..origin], h)
                .map_err(|e| ModelError::Internal(e.to_string()))?;
            ssa_calib.extend(fc);
            origin += h;
        }
        debug_assert_eq!(ssa_calib.len(), calib_len);

        // 2. The error head's training set: corrected = ssa_pred + scale · head(x).
        let mut xs = Vec::with_capacity(calib_len * FEATURES);
        let mut preds = Vec::with_capacity(calib_len);
        let mut targets = Vec::with_capacity(calib_len);
        for (i, &p) in ssa_calib.iter().enumerate() {
            xs.extend(self.features(p, cut + i, i % chunk));
            preds.push((p / self.scale) as f32);
            targets.push((train.get(cut + i) / self.scale) as f32);
        }
        let x_tensor = Tensor::new(&[calib_len, FEATURES], xs)
            .map_err(|e| ModelError::Internal(e.to_string()))?;
        let pred_tensor =
            Tensor::new(&[calib_len, 1], preds).map_err(|e| ModelError::Internal(e.to_string()))?;
        let target_tensor = Tensor::new(&[calib_len, 1], targets)
            .map_err(|e| ModelError::Internal(e.to_string()))?;

        // 3. Train the head and, beside it, refit SSA on the full history so
        //    forecasts start at its end. The refit does not depend on the
        //    head; it stays on this thread so its spans keep their parent
        //    and any capture window.
        let refit_config = SsaConfig {
            window: self.config.window,
            rank: self.config.rank,
        };
        let (refit, final_loss) = ip_par::join(
            || {
                let mut ssa = SsaForecaster::new(refit_config);
                ssa.fit(train).map(|()| ssa)
            },
            || self.train_head(&x_tensor, &pred_tensor, &target_tensor),
        );
        self.ssa = refit.map_err(|e| ModelError::Internal(e.to_string()))?;
        self.train_len = train.len();
        self.fitted = true;
        Ok(FitReport {
            fit_time: start.elapsed(),
            epochs_run: self.config.epochs,
            final_loss,
            parameters: self.param_count,
        })
    }

    fn predict(&mut self, horizon: usize) -> Result<Vec<f64>> {
        if !self.fitted {
            return Err(ModelError::NotFitted);
        }
        if horizon == 0 {
            return Ok(Vec::new());
        }
        let ssa_pred = self
            .ssa
            .predict(horizon)
            .map_err(|e| ModelError::Internal(e.to_string()))?;
        let mut xs = Vec::with_capacity(horizon * FEATURES);
        for (i, &p) in ssa_pred.iter().enumerate() {
            xs.extend(self.features(p, self.train_len + i, i));
        }
        let x = Tensor::new(&[horizon, FEATURES], xs)
            .map_err(|e| ModelError::Internal(e.to_string()))?;
        let out = self.head_forward(x);
        let corrections: Vec<f64> = self
            .graph
            .value(out)
            .data()
            .iter()
            .map(|&c| f64::from(c) * self.scale)
            .collect();
        Ok(ssa_pred
            .iter()
            .zip(&corrections)
            .map(|(p, c)| (p + c).max(0.0))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn periodic_series(n: usize) -> TimeSeries {
        let vals: Vec<f64> = (0..n)
            .map(|t| 10.0 + 5.0 * (2.0 * std::f64::consts::PI * t as f64 / 48.0).sin())
            .collect();
        TimeSeries::new(30, vals).unwrap()
    }

    fn small_config() -> SsaPlusConfig {
        SsaPlusConfig {
            window: 48,
            rank: RankSelection::Fixed(3),
            epochs: 150,
            ..Default::default()
        }
    }

    #[test]
    fn head_has_about_thirty_parameters() {
        let m = SsaPlus::new(SsaPlusConfig::default());
        // 4·5 + 5 (layer 1) + 5·1 + 1 (layer 2) = 31 — the "≈30 parameters"
        // of §5.3.
        assert_eq!(m.head_param_count(), 31);
    }

    #[test]
    fn fits_and_predicts() {
        let ts = periodic_series(400);
        let mut m = SsaPlus::new(small_config());
        let report = m.fit(&ts).unwrap();
        assert_eq!(report.parameters, 31);
        let pred = m.predict(48).unwrap();
        assert_eq!(pred.len(), 48);
        assert!(pred.iter().all(|v| v.is_finite() && *v >= 0.0));
        // Forecast should stay near the periodic signal's band.
        let mean: f64 = pred.iter().sum::<f64>() / 48.0;
        assert!((mean - 10.0).abs() < 4.0, "mean {mean}");
    }

    #[test]
    fn high_alpha_overshoots_low_alpha() {
        // The overshoot knob: α' → 1 must yield predictions at least as high
        // on average as α' → 0 (this is exactly the control SSA lacks).
        let ts = periodic_series(400);
        let mut hi = SsaPlus::new(SsaPlusConfig {
            alpha_prime: 0.95,
            ..small_config()
        });
        let mut lo = SsaPlus::new(SsaPlusConfig {
            alpha_prime: 0.05,
            ..small_config()
        });
        hi.fit(&ts).unwrap();
        lo.fit(&ts).unwrap();
        let mean_hi: f64 = hi.predict(48).unwrap().iter().sum::<f64>() / 48.0;
        let mean_lo: f64 = lo.predict(48).unwrap().iter().sum::<f64>() / 48.0;
        assert!(
            mean_hi > mean_lo,
            "alpha'=0.95 mean {mean_hi} should exceed alpha'=0.05 mean {mean_lo}"
        );
    }

    #[test]
    fn unfitted_and_short_rejected() {
        let mut m = SsaPlus::new(small_config());
        assert!(matches!(m.predict(5), Err(ModelError::NotFitted)));
        let short = TimeSeries::new(30, vec![1.0; 50]).unwrap();
        assert!(matches!(
            m.fit(&short),
            Err(ModelError::SeriesTooShort { .. })
        ));
    }

    #[test]
    fn zero_horizon_ok() {
        let ts = periodic_series(400);
        let mut m = SsaPlus::new(small_config());
        m.fit(&ts).unwrap();
        assert!(m.predict(0).unwrap().is_empty());
    }
}
