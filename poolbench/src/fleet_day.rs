//! `fleet-day`: an offline capacity what-if. Eight pools × one day, each
//! driven by the cheap `baseline` 2-step provider on the default
//! 30-minute IP-worker schedule, under the composed
//! `diurnal-ramp+flash-crowd` scenario with a permissive borrowing
//! matrix. One op is `run_to_end` + `finalize` on a fresh `FleetSim`; ops
//! alternate between obs off and obs on, and obs-on ops also render the
//! Prometheus exposition.

use crate::checks;
use crate::stats::{median, Metric};
use crate::{ms, Drift, Outcome};
use ip_chaos::ScenarioSpec;
use ip_core::{named_provider, CostModel};
use ip_saa::SaaConfig;
use ip_sim::{
    CompatibilityMatrix, FaultEntry, FleetAggregate, FleetPool, FleetReport, FleetSim,
    IpWorkerConfig, RecommendationProvider, SimConfig,
};
use ip_timeseries::TimeSeries;
use ip_workload::{FleetPoolPreset, FleetTrace, PresetId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const SCENARIO: &str = "diurnal-ramp+flash-crowd";
/// The scenario's own seed stays fixed: the spike's timing and size set
/// most of a day's work, so the run seed varies only the Poisson draws.
const SCENARIO_SEED: u64 = 42;
const POOLS: usize = 8;
/// Warm-transfer latency on every matrix edge, seconds (τ is 90 s).
pub const EDGE_LATENCY: u64 = 10;
/// Tail percentile cap for obs-off day times.
pub const TAIL_CAP: f64 = 90.0;

/// The lowest-volume Table-1 presets (large-node pools), cycled over the
/// pools: a few requests per interval keep one fleet-day near a tenth of
/// a second, so a run holds enough days for a median and a tail.
const PRESETS: [PresetId; 3] = [
    PresetId::EastUs2Medium,
    PresetId::EastUs2Large,
    PresetId::WestUs2Large,
];

/// Scale on every preset rate: about one request per interval per pool.
const RATE_SCALE: f64 = 0.1;

/// Scenario-shaped traces plus each pool's fault schedule.
pub type Shaped = Vec<(String, TimeSeries, Vec<FaultEntry>)>;

/// Set-up timings of one input build, milliseconds.
#[derive(Default, Clone, Copy)]
pub struct InputTimes {
    pub generate_ms: f64,
    pub chaos_ms: f64,
}

/// Generates `names.len()` one-day pool traces from `seed` and shapes
/// them with the scenario.
pub fn shaped(seed: u64, names: &[String]) -> Result<(Shaped, InputTimes), String> {
    let trace = FleetTrace::new(
        seed,
        names
            .iter()
            .enumerate()
            .map(|(k, n)| FleetPoolPreset::new(n.as_str(), PRESETS[k % PRESETS.len()]))
            .collect(),
    );
    let start = Instant::now();
    let raw: Vec<(String, TimeSeries)> = trace
        .models()
        .into_iter()
        .map(|(name, mut model)| {
            model.base_rate *= RATE_SCALE;
            model.diurnal_amplitude *= RATE_SCALE;
            if let Some(spikes) = &mut model.hourly_spikes {
                spikes.magnitude *= RATE_SCALE;
            }
            (name, model.generate())
        })
        .collect();
    let generate_ms = ms(start);
    let start = Instant::now();
    let plan = ScenarioSpec::by_name(SCENARIO, SCENARIO_SEED)
        .and_then(ScenarioSpec::compile)
        .and_then(|s| s.apply(raw))
        .map_err(|e| format!("scenario {SCENARIO}: {e}"))?;
    let chaos_ms = ms(start);
    let pools = plan
        .demand
        .iter()
        .map(|(id, d)| (id.clone(), d.clone(), plan.faults_for(id).to_vec()))
        .collect();
    Ok((
        pools,
        InputTimes {
            generate_ms,
            chaos_ms,
        },
    ))
}

/// Every ordered pair of `names` may borrow at [`EDGE_LATENCY`].
pub fn permissive_matrix(names: &[String]) -> CompatibilityMatrix {
    let mut m = CompatibilityMatrix::new();
    for from in names {
        for to in names {
            if from != to {
                m = m.edge(from.as_str(), to.as_str(), EDGE_LATENCY);
            }
        }
    }
    m
}

fn names() -> Vec<String> {
    (0..POOLS).map(|k| format!("pool-{k}")).collect()
}

/// Counts and times every call into a pool's provider.
#[derive(Default)]
pub struct Tally {
    calls: AtomicU64,
    nanos: AtomicU64,
}

struct Timed {
    inner: ip_core::DynProvider,
    tally: Arc<Tally>,
}

impl RecommendationProvider for Timed {
    fn recommend(&mut self, now: u64, observed: &TimeSeries, horizon: usize) -> Option<Vec<u32>> {
        let start = Instant::now();
        let out = self.inner.recommend(now, observed, horizon);
        self.tally.calls.fetch_add(1, Ordering::Relaxed);
        self.tally
            .nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }

    fn observe_wait(&mut self, now: u64, mean_wait_secs: f64) {
        self.inner.observe_wait(now, mean_wait_secs);
    }
}

/// Builds a fresh fleet over `pools`; with `tally`, every provider is
/// wrapped in the timing tap.
fn build(
    pools: &Shaped,
    matrix: &CompatibilityMatrix,
    tally: Option<&Arc<Tally>>,
) -> Result<FleetSim, String> {
    let mut members = Vec::with_capacity(pools.len());
    for (id, demand, faults) in pools {
        let config = SimConfig {
            ip_worker: Some(IpWorkerConfig::default()),
            seed: 7,
            faults: faults.clone(),
            ..SimConfig::default()
        };
        let provider =
            named_provider("baseline", 0.5, SaaConfig::default()).map_err(|e| e.to_string())?;
        let provider: ip_core::DynProvider = match tally {
            Some(t) => Box::new(Timed {
                inner: provider,
                tally: Arc::clone(t),
            }),
            None => provider,
        };
        members.push(FleetPool::new(id.as_str(), config, demand.clone()).with_provider(provider));
    }
    let mut fleet = FleetSim::new(members).map_err(|e| e.to_string())?;
    fleet
        .set_matrix(matrix.clone())
        .map_err(|e| e.to_string())?;
    Ok(fleet)
}

/// FNV-1a over the report's full debug rendering: equal digests mean
/// byte-equal reports.
pub fn digest(report: &FleetReport) -> u64 {
    checks::fnv1a(format!("{report:?}").as_bytes())
}

/// One set-up: inputs, scenario and a built fleet.
fn setup(seed: u64) -> Result<(Shaped, CompatibilityMatrix, InputTimes, f64), String> {
    let names = names();
    let (pools, times) = shaped(seed, &names)?;
    let matrix = permissive_matrix(&names);
    let start = Instant::now();
    drop(build(&pools, &matrix, None)?);
    Ok((pools, matrix, times, ms(start)))
}

struct Day {
    ms: f64,
    report: FleetReport,
    render: Option<(f64, usize, usize)>,
}

/// Runs one fleet-day on a fresh fleet. With `obs`, the registry is
/// cleared first, obs is on for the build and the run, and the op also
/// renders the exposition.
fn day(pools: &Shaped, matrix: &CompatibilityMatrix, obs: bool) -> Result<Day, String> {
    if obs {
        ip_obs::reset();
    }
    ip_obs::set_enabled(obs);
    let mut fleet = build(pools, matrix, None)?;
    let start = Instant::now();
    fleet.run_to_end();
    let report = fleet.finalize();
    let mut render = None;
    if obs {
        let r0 = Instant::now();
        let text = ip_obs::export::render_prometheus(ip_obs::global());
        render = Some((ms(r0), ip_obs::global().snapshot().len(), text.len()));
    }
    let took = ms(start);
    ip_obs::set_enabled(false);
    Ok(Day {
        ms: took,
        report,
        render,
    })
}

/// Checks each day against the first: aggregates always, full report
/// bytes (as a digest of the debug rendering) on the first
/// [`FULL_CHECKS`] days of each kind and on every traced day.
#[derive(Default)]
struct DayCheck {
    first: Option<(u64, FleetAggregate)>,
    full: [usize; 3],
}

/// Days of each kind whose whole report is compared byte for byte.
const FULL_CHECKS: usize = 3;

impl DayCheck {
    fn check(&mut self, kind: usize, report: &FleetReport) -> Result<(), String> {
        const KINDS: [&str; 3] = ["obs-off day", "obs-on day", "traced day"];
        let agg = report.aggregate();
        let Some((digest0, agg0)) = &self.first else {
            for (id, r) in &report.pools {
                checks::hit_accounting(id.as_str(), r.total_requests, r.hits, r.misses)?;
            }
            self.first = Some((digest(report), agg));
            self.full[kind] += 1;
            return Ok(());
        };
        if agg != *agg0 {
            return Err(format!(
                "{}: fleet aggregate differs from the first day",
                KINDS[kind]
            ));
        }
        if kind == 2 || self.full[kind] < FULL_CHECKS {
            self.full[kind] += 1;
            checks::same_digest(KINDS[kind], *digest0, digest(report))?;
        }
        Ok(())
    }
}

pub fn run(seed: u64, seconds: f64, drift: &mut Drift) -> Result<Outcome, String> {
    let (pools, matrix, _, _) = setup(seed)?;
    let setup_s = crate::median_setup(|| drop(setup(seed).expect("set-up succeeded above")));
    let (mut off, mut on) = (Vec::new(), Vec::new());
    let mut check = DayCheck::default();
    let mut last = None;
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let mut k = 0usize;
    while Instant::now() < end || on.is_empty() {
        let obs = k % 2 == 1;
        let d = day(&pools, &matrix, obs)?;
        check.check(usize::from(obs), &d.report)?;
        // The first day of each kind warms caches and allocators.
        if k >= 2 {
            if obs {
                on.push(d.ms);
            } else {
                off.push(d.ms);
            }
        }
        last = Some(d.report);
        drift.between_ops();
        k += 1;
    }
    let agg = last.expect("a day ran").aggregate();
    let day_p50 = median(&off).expect("ran");
    let mut out = Outcome::new(k as u64, 0);
    out.e2e = vec![
        Metric::new("setup_s", "s", setup_s, crate::SETUP_REPEATS),
        Metric::new("op_p50_ms", "ms", day_p50, off.len()).labelled("day_p50_ms"),
        Metric::new("side_p50_ms", "ms", median(&on).expect("ran"), on.len())
            .labelled("day_obs_p50_ms"),
        // One day runs at a time: pool-days per median obs-off day.
        Metric::new("work_per_s", "1/s", POOLS as f64 * 1e3 / day_p50, off.len())
            .labelled("pool_days_per_s"),
        Metric::new(
            "hit_rate",
            "ratio",
            agg.hit_rate,
            agg.total_requests as usize,
        ),
        Metric::new(
            "idle_cogs_usd",
            "usd",
            CostModel::default().cost_of_idle(agg.idle_cluster_seconds),
            POOLS,
        ),
    ];
    out.extra.extend(crate::tail_metric("day", &off, TAIL_CAP));
    out.note("requests", agg.total_requests as f64);
    out.note("borrows", agg.borrowed_in as f64);
    Ok(out)
}

/// The traced run of the sim, chaos, workload, provider and obs layers.
/// Each round runs an obs-off day, an obs-on day and a traced day that
/// steps in 1-hour logical chunks with every provider timed; all three
/// reports must be byte-equal.
pub fn layers(seed: u64, seconds: f64, drift: &mut Drift) -> Result<Outcome, String> {
    let (mut generate, mut chaos, mut fleet_new) = (vec![], vec![], vec![]);
    let mut inputs = None;
    for _ in 0..crate::SETUP_REPEATS {
        let (pools, matrix, times, new_ms) = setup(seed)?;
        generate.push(times.generate_ms);
        chaos.push(times.chaos_ms);
        fleet_new.push(new_ms);
        inputs = Some((pools, matrix));
    }
    let (pools, matrix) = inputs.expect("set up");
    let (mut off, mut on, mut traced) = (vec![], vec![], vec![]);
    let (mut render_ms, mut series, mut bytes) = (vec![], 0usize, 0usize);
    let (mut epoch_ms, mut provider_ms, mut provider_calls) = (vec![], vec![], 0u64);
    let mut check = DayCheck::default();
    let mut last = None;
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < end || traced.is_empty() {
        let d = day(&pools, &matrix, false)?;
        check.check(0, &d.report)?;
        off.push(d.ms);
        let d = day(&pools, &matrix, true)?;
        check.check(1, &d.report)?;
        on.push(d.ms);
        let (r, s, b) = d.render.expect("obs-on day renders");
        render_ms.push(r);
        (series, bytes) = (s, b);

        let tally = Arc::new(Tally::default());
        let mut fleet = build(&pools, &matrix, Some(&tally))?;
        let start = Instant::now();
        let mut until = 0;
        while !fleet.is_done() && until < fleet.end_time() {
            until = (until + 3600).min(fleet.end_time());
            let e0 = Instant::now();
            fleet.step_until(until);
            epoch_ms.push(ms(e0));
        }
        fleet.run_to_end();
        let report = fleet.finalize();
        traced.push(ms(start));
        check.check(2, &report)?;
        provider_calls = tally.calls.load(Ordering::Relaxed);
        provider_ms.push(tally.nanos.load(Ordering::Relaxed) as f64 / 1e6);
        last = Some(report);
        drift.between_ops();
    }
    let agg = last.expect("a day ran").aggregate();
    let m = |name, unit, v: &[f64]| Metric::new(name, unit, median(v).expect("sampled"), v.len());
    let day_p50 = median(&off).expect("ran");
    let mut out = Outcome::new((off.len() + on.len() + traced.len()) as u64, 0);
    out.layers = vec![
        Metric::new(
            "core.provider_calls",
            "count",
            provider_calls as f64,
            traced.len(),
        ),
        m("core.provider_ms", "ms", &provider_ms),
        m("sim.fleet_new_ms", "ms", &fleet_new),
        m("sim.epoch_p50_ms", "ms", &epoch_ms),
        Metric::new("sim.requests", "count", agg.total_requests as f64, 1),
        Metric::new(
            "sim.clusters_created",
            "count",
            agg.clusters_created as f64,
            1,
        ),
        Metric::new("sim.borrows", "count", agg.borrowed_in as f64, 1),
        m("chaos.apply_ms", "ms", &chaos),
        m("workload.generate_ms", "ms", &generate),
        m("obs.render_ms", "ms", &render_ms),
        Metric::new("obs.series", "count", series as f64, 1),
        Metric::new("obs.exposition_bytes", "bytes", bytes as f64, 1),
        Metric::new(
            "obs.overhead_ms",
            "ms",
            median(&on).expect("ran") - day_p50,
            on.len(),
        ),
    ];
    out.overhead = Some((median(&traced).expect("ran"), day_p50));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn copy(report: &FleetReport) -> FleetReport {
        FleetReport {
            pools: report
                .pools
                .iter()
                .map(|(id, r)| (id.clone(), r.clone()))
                .collect(),
        }
    }

    #[test]
    fn day_check_catches_corrupted_reports() {
        let _serial = crate::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let (pools, matrix, _, _) = setup(3).unwrap();
        let good = day(&pools, &matrix, false).unwrap().report;

        let mut check = DayCheck::default();
        check.check(0, &good).unwrap();
        check.check(1, &copy(&good)).unwrap();

        // One timeline entry flipped: aggregates agree, bytes do not.
        let mut flipped = copy(&good);
        flipped.pools[0].1.applied_target_timeline[5] ^= 1;
        assert!(check.check(2, &flipped).is_err());

        // One extra hit: the aggregate differs.
        let mut extra = copy(&good);
        extra.pools[1].1.hits += 1;
        assert!(check.check(0, &extra).is_err());

        // Hits and misses that do not sum to requests fail the first day.
        assert!(DayCheck::default().check(0, &extra).is_err());
    }
}
