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
use ip_nn::init::xavier_uniform;
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

/// Hidden width of the error head: 4·5 + 5 (layer 1) + 5·1 + 1 (layer 2)
/// = 31 parameters, the "≈30 parameters" of §5.3.
const HIDDEN: usize = 5;

/// One calibration row: head features, the normalized SSA prediction the
/// head corrects, and the normalized demand that arrived.
#[derive(Debug, Clone, Copy)]
struct Sample {
    x: [f32; FEATURES],
    pred: f32,
    target: f32,
}

/// The error head `relu(x·W1 + b1)·w2 + b2`, as plain arrays. The same
/// shape also holds its gradients and Adam moments.
///
/// Training is one fused pass over the rows per epoch (forward, Eq. 12
/// loss, backward and the parameter-gradient sums) followed by one Adam
/// step. Every rounding step mirrors the general autograd tape this
/// replaced (`ip_nn::layers::Linear` + `loss::asymmetric` +
/// `optim::Adam`), so forecasts are bit-identical to it:
///
/// * dots start at `0.0` and run in ascending index, then the bias is
///   added (as the gemm kernels do);
/// * `relu` is `x.max(0.0)`; its gradient passes only where `x > 0.0`;
/// * the gradient into `δ = y − ŷ` is `dneg·(−1.0) + dpos`, where the mean's
///   gradient is `c / N` with `c` = α′ or 1 − α′, and the head receives
///   `−gδ`;
/// * each parameter gradient is a running sum over rows in ascending order
///   from `0.0`;
/// * Adam keeps the tape optimizer's formula.
///
/// The tape's `x·(−1.0)` is written `−x` (the same IEEE operation). Two of
/// its steps, which can only flip the sign of a zero that never reaches a
/// result, are left out: the one-product dot `0.0 + g·w2` is `g·w2`, and
/// the loss sums start at `0.0`, not `−0.0`. The `tests` module pins all of
/// this against the tape, bit for bit.
#[derive(Debug, Clone, Copy)]
struct Head {
    /// `[in, out]`, as `Linear` stores its weight.
    w1: [[f32; HIDDEN]; FEATURES],
    b1: [f32; HIDDEN],
    w2: [f32; HIDDEN],
    b2: f32,
}

impl Head {
    /// Number of trainable parameters.
    const PARAMS: usize = FEATURES * HIDDEN + HIDDEN + HIDDEN + 1;

    const ZERO: Head = Head {
        w1: [[0.0; HIDDEN]; FEATURES],
        b1: [0.0; HIDDEN],
        w2: [0.0; HIDDEN],
        b2: 0.0,
    };

    /// Xavier-uniform weights and zero biases, drawn layer by layer from
    /// one seeded RNG.
    fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let w1 = xavier_uniform(&[FEATURES, HIDDEN], FEATURES, HIDDEN, &mut rng);
        let w2 = xavier_uniform(&[HIDDEN, 1], HIDDEN, 1, &mut rng);
        let mut head = Self::ZERO;
        for (row, src) in head.w1.iter_mut().zip(w1.data().chunks_exact(HIDDEN)) {
            row.copy_from_slice(src);
        }
        head.w2.copy_from_slice(w2.data());
        head
    }

    /// Parameters in registration order: `w1` row-major, `b1`, `w2`, `b2`.
    fn values(&self) -> impl Iterator<Item = &f32> {
        self.w1
            .iter()
            .flatten()
            .chain(&self.b1)
            .chain(&self.w2)
            .chain(std::iter::once(&self.b2))
    }

    fn values_mut(&mut self) -> impl Iterator<Item = &mut f32> {
        self.w1
            .iter_mut()
            .flatten()
            .chain(&mut self.b1)
            .chain(&mut self.w2)
            .chain(std::iter::once(&mut self.b2))
    }

    /// Hidden pre-activations `x·W1 + b1`.
    fn hidden(&self, x: &[f32; FEATURES]) -> [f32; HIDDEN] {
        let mut z = [0.0f32; HIDDEN];
        for (j, zj) in z.iter_mut().enumerate() {
            let mut s = 0.0f32;
            for (xi, row) in x.iter().zip(&self.w1) {
                s += xi * row[j];
            }
            *zj = s + self.b1[j];
        }
        z
    }

    /// `relu(z)·w2 + b2` for hidden pre-activations `z`.
    fn output(&self, z: &[f32; HIDDEN]) -> f32 {
        let mut s = 0.0f32;
        for (zj, wj) in z.iter().zip(&self.w2) {
            s += zj.max(0.0) * wj;
        }
        s + self.b2
    }

    /// The head's correction for one feature row.
    fn forward(&self, x: &[f32; FEATURES]) -> f32 {
        self.output(&self.hidden(x))
    }

    /// One full-batch pass: the Eq. 12 loss of `pred + head(x)` against
    /// `target` and its gradient with respect to every parameter.
    fn loss_and_grad(&self, rows: &[Sample], alpha_prime: f32) -> (f32, Head) {
        assert!(
            (0.0..=1.0).contains(&alpha_prime),
            "alpha' must be in [0,1]"
        );
        let n = rows.len() as f32;
        let d_pos = alpha_prime / n;
        let d_neg = (1.0 - alpha_prime) / n;
        let (mut pos_sum, mut neg_sum) = (0.0f32, 0.0f32);
        let mut grad = Self::ZERO;
        for row in rows {
            let z = self.hidden(&row.x);
            let delta = row.target - (row.pred + self.output(&z));
            let neg_delta = -delta;
            pos_sum += delta.max(0.0);
            neg_sum += neg_delta.max(0.0);
            let g_pos = if delta > 0.0 { d_pos } else { 0.0 };
            let g_neg = if neg_delta > 0.0 { d_neg } else { 0.0 };
            let g_out = -(-g_neg + g_pos);

            grad.b2 += g_out;
            for j in 0..HIDDEN {
                grad.w2[j] += z[j].max(0.0) * g_out;
                let g_z = if z[j] > 0.0 { g_out * self.w2[j] } else { 0.0 };
                grad.b1[j] += g_z;
                for (g_row, xi) in grad.w1.iter_mut().zip(&row.x) {
                    g_row[j] += xi * g_z;
                }
            }
        }
        let loss = alpha_prime * (pos_sum / n) + (1.0 - alpha_prime) * (neg_sum / n);
        (loss, grad)
    }

    /// Full-batch Adam from fresh moments; returns the last epoch's loss
    /// (NaN when `epochs` is 0). The weights carry over between calls.
    fn train(&mut self, rows: &[Sample], alpha_prime: f32, lr: f32, epochs: usize) -> f64 {
        const BETA1: f32 = 0.9;
        const BETA2: f32 = 0.999;
        const EPS: f32 = 1e-8;
        let (mut m, mut v) = (Self::ZERO, Self::ZERO);
        let mut final_loss = f64::NAN;
        for t in 1..=epochs {
            let (loss, grad) = self.loss_and_grad(rows, alpha_prime);
            final_loss = f64::from(loss);
            let bc1 = 1.0 - BETA1.powi(t as i32);
            let bc2 = 1.0 - BETA2.powi(t as i32);
            let params = self.values_mut().zip(m.values_mut()).zip(v.values_mut());
            for (((w, mi), vi), gi) in params.zip(grad.values()) {
                *mi = BETA1 * *mi + (1.0 - BETA1) * gi;
                *vi = BETA2 * *vi + (1.0 - BETA2) * gi * gi;
                let mhat = *mi / bc1;
                let vhat = *vi / bc2;
                *w -= lr * mhat / (vhat.sqrt() + EPS);
            }
        }
        final_loss
    }
}

/// The hybrid SSA+ forecaster.
pub struct SsaPlus {
    config: SsaPlusConfig,
    ssa: SsaForecaster,
    head: Head,
    scale: f64,
    interval_secs: u64,
    train_len: usize,
    fitted: bool,
}

impl SsaPlus {
    /// Creates an unfitted SSA+ model.
    pub fn new(config: SsaPlusConfig) -> Self {
        Self {
            ssa: SsaForecaster::new(SsaConfig {
                window: config.window,
                rank: config.rank,
            }),
            head: Head::new(config.seed),
            config,
            scale: 1.0,
            interval_secs: 30,
            train_len: 0,
            fitted: false,
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
        Head::PARAMS
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
}

impl Forecaster for SsaPlus {
    fn name(&self) -> &'static str {
        "SSA+"
    }

    fn fit(&mut self, train: &TimeSeries) -> Result<FitReport> {
        let start = Instant::now();
        let window = self.config.window;
        // SSA needs 2·window points before the calibration cut, and the
        // calibration slice at least 8.
        let needed = (window * 3).max(window * 2 + 8);
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
        let cut = cut.clamp(window * 2, train.len() - 8);
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
        let rows: Vec<Sample> = ssa_calib
            .iter()
            .enumerate()
            .map(|(i, &p)| Sample {
                x: self.features(p, cut + i, i % chunk),
                pred: (p / self.scale) as f32,
                target: (train.get(cut + i) / self.scale) as f32,
            })
            .collect();

        // 3. Train the head and, beside it, refit SSA on the full history so
        //    forecasts start at its end. The refit does not depend on the
        //    head; it stays on this thread so its spans keep their parent
        //    and any capture window.
        let refit_config = SsaConfig {
            window,
            rank: self.config.rank,
        };
        let (refit, final_loss) = ip_par::join(
            || {
                let mut ssa = SsaForecaster::new(refit_config);
                ssa.fit(train).map(|()| ssa)
            },
            || {
                let c = &self.config;
                self.head.train(&rows, c.alpha_prime, c.lr, c.epochs)
            },
        );
        self.ssa = refit.map_err(|e| ModelError::Internal(e.to_string()))?;
        self.train_len = train.len();
        self.fitted = true;
        Ok(FitReport {
            fit_time: start.elapsed(),
            epochs_run: self.config.epochs,
            final_loss,
            parameters: Head::PARAMS,
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
        Ok(ssa_pred
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let x = self.features(p, self.train_len + i, i);
                let correction = f64::from(self.head.forward(&x)) * self.scale;
                (p + correction).max(0.0)
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ip_nn::graph::{Graph, NodeId};
    use ip_nn::layers::Linear;
    use ip_nn::loss::asymmetric;
    use ip_nn::optim::Adam;
    use ip_nn::tensor::Tensor;

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
        // Below 2·window + 8 points the calibration cut has no room, even
        // when 3·window points are there.
        for (window, len) in [(4, 12), (6, 18)] {
            let mut m = SsaPlus::new(SsaPlusConfig {
                window,
                rank: RankSelection::Fixed(1),
                ..Default::default()
            });
            let short = TimeSeries::new(30, vec![1.0; len]).unwrap();
            assert!(matches!(
                m.fit(&short),
                Err(ModelError::SeriesTooShort { needed, got }) if needed == window * 2 + 8 && got == len
            ));
        }
    }

    #[test]
    fn zero_horizon_ok() {
        let ts = periodic_series(400);
        let mut m = SsaPlus::new(small_config());
        m.fit(&ts).unwrap();
        assert!(m.predict(0).unwrap().is_empty());
    }

    /// The error head on the general autograd tape — `Linear` layers,
    /// `loss::asymmetric` and `optim::Adam`, as SSA+ trained it before the
    /// fused [`Head`]. The oracle for it; shares no code with it.
    struct TapeHead {
        graph: Graph,
        l1: Linear,
        l2: Linear,
    }

    impl TapeHead {
        fn new(seed: u64) -> Self {
            let mut graph = Graph::new(seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let l1 = Linear::new(&mut graph, FEATURES, HIDDEN, &mut rng);
            let l2 = Linear::new(&mut graph, HIDDEN, 1, &mut rng);
            graph.freeze();
            graph.set_threads(Some(1));
            Self { graph, l1, l2 }
        }

        fn input(rows: &[Sample]) -> Tensor {
            let xs = rows.iter().flat_map(|r| r.x).collect();
            Tensor::new(&[rows.len(), FEATURES], xs).unwrap()
        }

        fn column(values: impl Iterator<Item = f32>) -> Tensor {
            let data: Vec<f32> = values.collect();
            Tensor::new(&[data.len(), 1], data).unwrap()
        }

        fn forward(&mut self, x: Tensor) -> NodeId {
            let n = x.shape()[0];
            self.graph.reset();
            let xb = self.graph.constant(x);
            let h = self.l1.forward(&mut self.graph, xb);
            let h = self.graph.relu(h);
            let out = self.l2.forward(&mut self.graph, h);
            self.graph.reshape(out, &[n, 1])
        }

        fn train(&mut self, rows: &[Sample], alpha: f32, lr: f32, epochs: usize) -> f64 {
            let x = Self::input(rows);
            let preds = Self::column(rows.iter().map(|r| r.pred));
            let targets = Self::column(rows.iter().map(|r| r.target));
            let mut adam = Adam::new(lr);
            let mut final_loss = f64::NAN;
            for _ in 0..epochs {
                let correction = self.forward(x.clone());
                let base = self.graph.constant(preds.clone());
                let target = self.graph.constant(targets.clone());
                let corrected = self.graph.add(base, correction);
                let loss = asymmetric(&mut self.graph, corrected, target, alpha);
                final_loss = f64::from(self.graph.value(loss).item().unwrap());
                self.graph.backward(loss);
                adam.step(&mut self.graph);
            }
            final_loss
        }

        fn predict(&mut self, rows: &[Sample]) -> Vec<f32> {
            let out = self.forward(Self::input(rows));
            self.graph.value(out).data().to_vec()
        }

        /// Hidden pre-activations of one row.
        fn pre_activation(&mut self, x: [f32; FEATURES]) -> Vec<f32> {
            self.graph.reset();
            let xb = self
                .graph
                .constant(Tensor::new(&[1, FEATURES], x.to_vec()).unwrap());
            let h = self.l1.forward(&mut self.graph, xb);
            self.graph.value(h).data().to_vec()
        }

        fn weights(&self) -> Vec<f32> {
            let g = &self.graph;
            g.params()
                .iter()
                .flat_map(|&p| g.value(p).data().to_vec())
                .collect()
        }

        /// A row on which the head's first hidden unit that admits one
        /// has a pre-activation of exactly `0.0`.
        fn hidden_tie(&mut self) -> [f32; FEATURES] {
            let w = self.weights();
            let b1 = &w[FEATURES * HIDDEN..FEATURES * HIDDEN + HIDDEN];
            for j in 0..HIDDEN {
                let q = -b1[j] / w[j];
                for x0 in [q, q.next_up(), q.next_down()] {
                    let x = [x0, 0.0, 0.0, 0.0];
                    if self.pre_activation(x)[j] == 0.0 {
                        return x;
                    }
                }
            }
            panic!("no hidden unit admits an exact tie")
        }

        /// Rows 0 and 1 become ties: a hidden pre-activation of `0.0`, and
        /// `δ = y − (ŷ + head(x))` of `0.0` at the first epoch.
        fn add_ties(&mut self, rows: &mut [Sample]) {
            rows[0].x = self.hidden_tie();
            let out = self.predict(&rows[1..2])[0];
            rows[1].target = rows[1].pred + out;
        }
    }

    /// Demand-like calibration rows from a fixed LCG: normalized
    /// predictions near 1.5, a daily phase, the step-ahead feature, and
    /// targets scattered around the prediction with a slight upward bias.
    fn calibration_rows(n: usize, salt: u64) -> Vec<Sample> {
        let mut state = salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        };
        (0..n)
            .map(|i| {
                let pred = 1.5 + next();
                let phase = 2.0 * std::f32::consts::PI * (i % 2880) as f32 / 2880.0;
                Sample {
                    x: [pred, phase.sin(), phase.cos(), (i % 120) as f32 / 1200.0],
                    pred,
                    target: pred + 0.1 + 0.8 * next(),
                }
            })
            .collect()
    }

    fn bits(values: impl IntoIterator<Item = f32>) -> Vec<u32> {
        values.into_iter().map(f32::to_bits).collect()
    }

    /// Trains both heads on the same rows and asserts identical weights,
    /// final loss and predictions, bit for bit.
    fn assert_same_fit(
        fused: &mut Head,
        tape: &mut TapeHead,
        rows: &[Sample],
        alpha: f32,
        epochs: usize,
        case: &str,
    ) {
        const LR: f32 = 0.02;
        let fused_loss = fused.train(rows, alpha, LR, epochs);
        let tape_loss = tape.train(rows, alpha, LR, epochs);
        assert_eq!(
            bits(fused.values().copied()),
            bits(tape.weights()),
            "{case}: weights"
        );
        assert_eq!(
            fused_loss.to_bits(),
            tape_loss.to_bits(),
            "{case}: final loss {fused_loss} vs {tape_loss}"
        );
        let probe = calibration_rows(120, 99);
        assert_eq!(
            bits(probe.iter().map(|r| fused.forward(&r.x))),
            bits(tape.predict(&probe)),
            "{case}: predictions"
        );
    }

    /// The fused head against the tape at one α′: epochs ∈ {0, 1, 300} ×
    /// rows ∈ {1, 63, 2,880}, tie rows included from 63 up, each fit followed
    /// by a warm-started second fit on fresh rows.
    fn fused_head_matches_tape(alpha: f32) {
        for epochs in [0, 1, 300] {
            for n in [1, 63, 2880] {
                let case = format!("alpha' {alpha}, {epochs} epochs, {n} rows");
                let mut fused = Head::new(7);
                let mut tape = TapeHead::new(7);
                assert_eq!(bits(fused.values().copied()), bits(tape.weights()));

                let mut rows = calibration_rows(n, 1);
                if n > 1 {
                    tape.add_ties(&mut rows);
                }
                assert_same_fit(&mut fused, &mut tape, &rows, alpha, epochs, &case);

                // Warm start: the weights carry over, Adam starts afresh.
                let mut rows = calibration_rows(n, 2);
                if n > 1 {
                    tape.add_ties(&mut rows);
                }
                let case = format!("{case}, warm-started");
                assert_same_fit(&mut fused, &mut tape, &rows, alpha, epochs, &case);
            }
        }
    }

    #[test]
    fn fused_head_matches_tape_low_alpha() {
        fused_head_matches_tape(0.05);
    }

    #[test]
    fn fused_head_matches_tape_mid_alpha() {
        fused_head_matches_tape(0.5);
    }

    #[test]
    fn fused_head_matches_tape_high_alpha() {
        fused_head_matches_tape(0.95);
    }
}
