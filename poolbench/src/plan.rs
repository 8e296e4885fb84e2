//! `plan`: the §7.4 IP-worker loop. Four pools from different Table-1
//! presets, each with a 2-day history and one held-out hour. One op is one
//! pool's `TwoStepEngine<SsaPlus>::recommend` over a 1-hour horizon; after
//! each pass over the pools the fleet budget is solved once under a
//! binding `Fleet::recommend_all_budgeted` call.

use crate::checks;
use crate::stats::{median, Metric};
use crate::{ms, Drift, Outcome};
use ip_core::{CostModel, Fleet, FleetBudget, PoolSpec, RecommendationEngine, TwoStepEngine};
use ip_models::ssa_plus::{SsaPlus, SsaPlusConfig};
use ip_models::{FitReport, Forecaster};
use ip_saa::{optimize_dp, SaaConfig, SweepCache};
use ip_sim::{IpWorkerConfig, PoolId, SimConfig, Simulation};
use ip_ssa::{RankSelection, SsaConfig, SsaForecaster};
use ip_timeseries::{mae, TimeSeries};
use ip_workload::{pool_seed, preset, PresetId};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

const PRESETS: [PresetId; 4] = [
    PresetId::WestUs2Small,
    PresetId::EastUs2Small,
    PresetId::WestUs2Medium,
    PresetId::WestUs2Large,
];
/// Two days of 30-second intervals.
const HISTORY: usize = 5760;
/// One hour of 30-second intervals: the held-out window and the horizon.
const HORIZON: usize = 120;
/// The optimizer's idle-vs-wait weight and the head's overshoot knob.
const ALPHA: f64 = 0.5;
/// The fleet budget as a share of the unconstrained total (binding).
const BUDGET_SHARE: u64 = 85;
/// Tail percentile cap for recommend times.
pub const TAIL_CAP: f64 = 75.0;

pub struct PlanPool {
    pub name: String,
    pub history: TimeSeries,
    pub held_out: Vec<f64>,
}

/// Generates the four pools' histories and held-out hours from `seed`.
pub fn inputs(seed: u64) -> Vec<PlanPool> {
    PRESETS
        .iter()
        .map(|&id| {
            let name = id.name().to_string();
            let mut model = preset(id, pool_seed(seed, &name));
            model.days = 3;
            let series = model.generate();
            let values = series.values();
            PlanPool {
                history: TimeSeries::new(30, values[..HISTORY].to_vec()).expect("30 s intervals"),
                held_out: values[HISTORY..HISTORY + HORIZON].to_vec(),
                name,
            }
        })
        .collect()
}

/// What the tap saw during the last fit/predict of its forecaster.
#[derive(Default)]
struct TapLog {
    traced: bool,
    forecast: Vec<f64>,
    fit_ms: Vec<f64>,
    predict_ms: Vec<f64>,
}

/// A pass-through forecaster that keeps the last forecast (the fleet
/// budget plans against it) and, when traced, times fit and predict.
struct Tap<F> {
    inner: F,
    log: Rc<RefCell<TapLog>>,
}

impl<F: Forecaster> Forecaster for Tap<F> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn fit(&mut self, train: &TimeSeries) -> ip_models::Result<FitReport> {
        let start = Instant::now();
        let report = self.inner.fit(train);
        let mut log = self.log.borrow_mut();
        if log.traced {
            log.fit_ms.push(ms(start));
        }
        report
    }

    fn predict(&mut self, horizon: usize) -> ip_models::Result<Vec<f64>> {
        let start = Instant::now();
        let forecast = self.inner.predict(horizon)?;
        let mut log = self.log.borrow_mut();
        if log.traced {
            log.predict_ms.push(ms(start));
        }
        log.forecast.clone_from(&forecast);
        Ok(forecast)
    }
}

fn saa() -> SaaConfig {
    SaaConfig {
        alpha_prime: ALPHA,
        ..SaaConfig::default()
    }
}

fn head_config(epochs: usize) -> SsaPlusConfig {
    SsaPlusConfig {
        alpha_prime: ALPHA as f32,
        epochs,
        ..SsaPlusConfig::default()
    }
}

/// The inputs and fleet one run drives.
pub struct Planner {
    pools: Vec<PlanPool>,
    logs: Vec<Rc<RefCell<TapLog>>>,
    fleet: Fleet,
}

/// A fresh engine for one op. `SsaPlus` warm-starts its error head from
/// the weights of its previous fit, so an engine reused across ops
/// returns a different schedule each time; a fresh engine per op makes
/// repeats on identical inputs comparable.
fn engine(log: &Rc<RefCell<TapLog>>) -> TwoStepEngine<Tap<SsaPlus>> {
    let tap = Tap {
        inner: SsaPlus::new(head_config(SsaPlusConfig::default().epochs)),
        log: Rc::clone(log),
    };
    TwoStepEngine::new(tap, saa())
}

/// One set-up: inputs, the first engines and the fleet.
pub fn setup(seed: u64) -> Planner {
    let pools = inputs(seed);
    let mut fleet = Fleet::new();
    let mut logs = Vec::new();
    for pool in &pools {
        let log = Rc::new(RefCell::new(TapLog::default()));
        drop(engine(&log));
        logs.push(log);
        fleet.register(
            pool.name.as_str(),
            PoolSpec {
                saa: saa(),
                alpha: ALPHA,
                ..PoolSpec::default()
            },
        );
    }
    Planner { pools, logs, fleet }
}

/// Per-pass record of the fleet budget call.
struct Budgeted {
    schedules: Vec<Vec<u32>>,
    lambda: f64,
    binding: bool,
}

impl Planner {
    fn recommend(&mut self, i: usize) -> Result<(Vec<u32>, f64), String> {
        let mut engine = engine(&self.logs[i]);
        let start = Instant::now();
        let schedule = engine
            .recommend(&self.pools[i].history, HORIZON)
            .map_err(|e| format!("plan: pool {} recommend failed: {e}", self.pools[i].name))?;
        Ok((schedule, ms(start)))
    }

    fn forecasts(&self) -> BTreeMap<PoolId, TimeSeries> {
        self.pools
            .iter()
            .zip(&self.logs)
            .map(|(p, log)| {
                let f = log.borrow().forecast.clone();
                (
                    PoolId::new(p.name.as_str()),
                    TimeSeries::new(30, f).expect("30 s intervals"),
                )
            })
            .collect()
    }

    fn budgeted(&self, budget: Option<FleetBudget>) -> Result<(Budgeted, u64, f64), String> {
        let demands = self.forecasts();
        let start = Instant::now();
        let out = self.fleet.recommend_all_budgeted(&demands, budget);
        let took = ms(start);
        let mut schedules = Vec::new();
        for (id, rec) in out.pools {
            let rec = rec.map_err(|e| format!("plan: budget for pool {id} failed: {e}"))?;
            schedules.push(rec.schedule);
        }
        let result = Budgeted {
            schedules,
            lambda: out.lambda,
            binding: out.binding,
        };
        Ok((result, out.unconstrained_cluster_intervals, took))
    }

    fn set_traced(&self, on: bool) {
        for log in &self.logs {
            let mut log = log.borrow_mut();
            log.traced = on;
            log.fit_ms.clear();
            log.predict_ms.clear();
        }
    }
}

/// Samples and outputs gathered over a run's passes.
#[derive(Default)]
struct Passes {
    op_ms: Vec<f64>,
    pass_ms: Vec<f64>,
    budget_ms: Vec<f64>,
    attempted: u64,
    first: Vec<Vec<u32>>,
    first_budget: Option<Vec<Vec<u32>>>,
    budget: Option<FleetBudget>,
    lambda: f64,
    forecasts: Vec<Vec<f64>>,
}

impl Passes {
    fn forget_timings(&mut self) {
        self.op_ms.clear();
        self.pass_ms.clear();
        self.budget_ms.clear();
    }

    /// Runs one pass over the pools plus the budget call, checking that
    /// every schedule repeats bit for bit. Returns the ops' wall times.
    fn run(&mut self, p: &mut Planner, drift: &mut Drift) -> Result<Vec<f64>, String> {
        let mut ops = Vec::with_capacity(p.pools.len());
        for i in 0..p.pools.len() {
            let (schedule, took) = p.recommend(i)?;
            self.attempted += 1;
            if self.first.len() == i {
                self.first.push(schedule);
                self.forecasts.push(p.logs[i].borrow().forecast.clone());
            } else {
                checks::same_schedule(&p.pools[i].name, &self.first[i], &schedule)?;
            }
            ops.push(took);
            drift.between_ops();
        }
        if self.budget.is_none() {
            let (_, unconstrained, _) = p.budgeted(None)?;
            self.budget = Some(FleetBudget {
                max_cluster_intervals: unconstrained * BUDGET_SHARE / 100,
            });
        }
        let (out, _, took) = p.budgeted(self.budget)?;
        self.attempted += 1;
        if !out.binding {
            return Err("plan: the fleet budget did not bind".into());
        }
        match &self.first_budget {
            None => self.first_budget = Some(out.schedules),
            Some(first) => {
                for (k, (a, b)) in first.iter().zip(&out.schedules).enumerate() {
                    checks::same_schedule(&format!("budgeted {}", p.pools[k].name), a, b)?;
                }
            }
        }
        self.lambda = out.lambda;
        self.budget_ms.push(took);
        self.pass_ms.push(ops.iter().sum::<f64>() + took);
        self.op_ms.extend(&ops);
        Ok(ops)
    }

    /// Hit rate and idle cost of the recommended schedules, each replayed
    /// through the platform simulator over its pool's held-out hour.
    fn provisioning(&self, pools: &[PlanPool]) -> Result<(f64, f64), String> {
        let (mut hits, mut requests, mut idle_secs) = (0u64, 0u64, 0.0);
        for (schedule, pool) in self.first.iter().zip(pools) {
            let config = SimConfig {
                default_pool_target: schedule[0],
                ip_worker: Some(IpWorkerConfig {
                    run_every_secs: 3600,
                    horizon_secs: 3600,
                    failing_runs: Vec::new(),
                }),
                seed: 7,
                ..SimConfig::default()
            };
            let mut provider =
                |_: u64, _: &TimeSeries, h: usize| Some(schedule[..h.min(schedule.len())].to_vec());
            let demand = TimeSeries::new(30, pool.held_out.clone()).expect("30 s intervals");
            let report = Simulation::new(config, Some(&mut provider))
                .run(&demand)
                .map_err(|e| format!("plan: replay of {}: {e}", pool.name))?;
            checks::hit_accounting(
                &pool.name,
                report.total_requests,
                report.hits,
                report.misses,
            )?;
            hits += report.hits;
            requests += report.total_requests;
            idle_secs += report.idle_cluster_seconds;
        }
        Ok((
            hits as f64 / requests as f64,
            CostModel::default().cost_of_idle(idle_secs),
        ))
    }

    fn forecast_mae(&self, pools: &[PlanPool]) -> Result<f64, String> {
        let mut total = 0.0;
        for (f, pool) in self.forecasts.iter().zip(pools) {
            total += mae(&pool.held_out, f).map_err(|e| e.to_string())?;
        }
        Ok(total / pools.len() as f64)
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: f64, drift: &mut Drift) -> Result<Outcome, String> {
    let setup_s = crate::median_setup(|| drop(setup(seed)));
    let mut planner = setup(seed);
    let mut passes = Passes::default();
    // The first pass warms caches and allocators; it is checked, not timed.
    passes.run(&mut planner, drift)?;
    passes.forget_timings();
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < end || passes.pass_ms.is_empty() {
        passes.run(&mut planner, drift)?;
    }
    let (hit_rate, idle_cogs) = passes.provisioning(&planner.pools)?;
    let n = passes.op_ms.len();
    let op_p50 = median(&passes.op_ms).expect("ops ran");
    let mut out = Outcome::new(passes.attempted, 0);
    out.e2e = vec![
        Metric::new("setup_s", "s", setup_s, crate::SETUP_REPEATS),
        Metric::new("op_p50_ms", "ms", op_p50, n).labelled("plan_p50_ms"),
        Metric::new(
            "side_p50_ms",
            "ms",
            median(&passes.budget_ms).expect("passes ran"),
            passes.budget_ms.len(),
        )
        .labelled("budget_p50_ms"),
        // One recommend runs at a time: one per median op.
        Metric::new("work_per_s", "1/s", 1e3 / op_p50, n).labelled("recommends_per_s"),
        Metric::new("hit_rate", "ratio", hit_rate, HORIZON * PRESETS.len()),
        Metric::new("idle_cogs_usd", "usd", idle_cogs, HORIZON * PRESETS.len()),
    ];
    out.extra
        .extend(crate::tail_metric("plan", &passes.op_ms, TAIL_CAP));
    out.extra.push(
        Metric::new(
            "side_p50_ms",
            "ms",
            median(&passes.pass_ms).expect("ran"),
            passes.pass_ms.len(),
        )
        .labelled("pass_p50_ms"),
    );
    out.note("forecast_mae", passes.forecast_mae(&planner.pools)?);
    out.note("budget_lambda", passes.lambda);
    Ok(out)
}

/// The traced run of the plan layers. Even passes trace (taps time fit
/// and predict, and the layer calls below run on one pool); odd passes
/// run plain, so the two medians give the tracing overhead.
pub fn layers(seed: u64, seconds: f64, drift: &mut Drift) -> Result<Outcome, String> {
    let mut planner = setup(seed);
    let mut passes = Passes::default();
    let (mut traced_ops, mut plain_ops) = (Vec::new(), Vec::new());
    let (mut head_ms, mut dp_ms, mut cache_ms, mut solve_ms) = (vec![], vec![], vec![], vec![]);
    let (mut ssa_fit_ms, mut ssa_forecast_ms) = (vec![], vec![]);
    let (mut fit_ms, mut predict_ms) = (vec![], vec![]);
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let mut pass = 0usize;
    while Instant::now() < end || pass < 2 {
        let traced = pass.is_multiple_of(2);
        planner.set_traced(traced);
        let ops = passes.run(&mut planner, drift)?;
        if !traced {
            plain_ops.extend(ops);
            pass += 1;
            continue;
        }
        traced_ops.extend(ops);
        for log in &planner.logs {
            let log = log.borrow();
            fit_ms.extend(&log.fit_ms);
            predict_ms.extend(&log.predict_ms);
        }
        // Layer calls on one pool per traced pass, rotating.
        let k = (pass / 2) % planner.pools.len();
        let history = &planner.pools[k].history;
        let full_fit = planner.logs[k].borrow().fit_ms[0];
        let mut zero = SsaPlus::new(head_config(0));
        let start = Instant::now();
        zero.fit(history)
            .map_err(|e| format!("plan: epochs-0 fit failed: {e}"))?;
        head_ms.push(full_fit - ms(start));

        let mut ssa = SsaForecaster::new(SsaConfig {
            window: SsaPlusConfig::default().window,
            rank: RankSelection::EnergyThreshold(0.90),
        });
        let start = Instant::now();
        ssa.fit(history)
            .map_err(|e| format!("plan: SSA fit failed: {e}"))?;
        ssa_fit_ms.push(ms(start));
        let start = Instant::now();
        ssa.predict(HORIZON)
            .map_err(|e| format!("plan: SSA forecast failed: {e}"))?;
        ssa_forecast_ms.push(ms(start));

        let forecast =
            TimeSeries::new(30, planner.logs[k].borrow().forecast.clone()).expect("30 s intervals");
        let start = Instant::now();
        let opt = optimize_dp(&forecast, &saa()).map_err(|e| format!("plan: optimize_dp: {e}"))?;
        dp_ms.push(ms(start));
        // The decomposed pipeline must reproduce the engine's schedule.
        let rounded: Vec<u32> = opt
            .schedule
            .iter()
            .map(|&n| n.round().max(0.0) as u32)
            .collect();
        checks::same_schedule(
            &format!("traced {}", planner.pools[k].name),
            &passes.first[k],
            &rounded,
        )?;
        let start = Instant::now();
        let cache =
            SweepCache::build(&forecast, &saa()).map_err(|e| format!("plan: sweep cache: {e}"))?;
        cache_ms.push(ms(start));
        let start = Instant::now();
        std::hint::black_box(cache.solve_penalized(ALPHA, passes.lambda));
        solve_ms.push(ms(start));
        pass += 1;
    }
    let plan_p50 = median(&passes.op_ms).expect("ops ran");
    let dp = median(&dp_ms).expect("traced pass ran");
    let mut out = Outcome::new(passes.attempted, 0);
    let m = |name, unit, v: &[f64]| Metric::new(name, unit, median(v).expect("sampled"), v.len());
    out.layers = vec![
        m("nn.head_fit_ms", "ms", &head_ms),
        Metric::new(
            "nn.head_epochs",
            "count",
            SsaPlusConfig::default().epochs as f64,
            1,
        ),
        m("models.ssa_plus_fit_ms", "ms", &fit_ms),
        m("models.predict_ms", "ms", &predict_ms),
        Metric::new(
            "models.forecast_mae",
            "requests",
            passes.forecast_mae(&planner.pools)?,
            PRESETS.len(),
        ),
        m("ssa.fit_ms", "ms", &ssa_fit_ms),
        m("ssa.forecast_ms", "ms", &ssa_forecast_ms),
        m("saa.optimize_dp_ms", "ms", &dp_ms),
        Metric::new("saa.dp_share_pct", "%", 100.0 * dp / plan_p50, dp_ms.len()),
        m("saa.sweep_cache_build_ms", "ms", &cache_ms),
        m("saa.solve_penalized_ms", "ms", &solve_ms),
        m("core.budget_ms", "ms", &passes.budget_ms),
    ];
    out.overhead = Some((
        median(&traced_ops).expect("traced"),
        median(&plain_ops).expect("plain"),
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_flipped_schedule_entry_fails_the_next_pass() {
        let _serial = crate::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let mut planner = setup(1);
        let mut drift = Drift::new();
        let mut passes = Passes::default();
        passes.run(&mut planner, &mut drift).unwrap();
        passes.first[2][7] ^= 1;
        let err = passes.run(&mut planner, &mut drift).unwrap_err();
        assert!(err.contains("interval 7"), "{err}");
    }
}
