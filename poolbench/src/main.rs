//! End-to-end and per-layer benchmark of the Intelligent Pooling
//! workspace.
//!
//! ```text
//! poolbench --workload <plan|fleet-day|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the workload's end-to-end metrics;
//! with `--trace 1` it measures every per-layer metric instead. Human
//! readable lines and a context line come first; the last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. A failed correctness check exits 1 and prints
//! no figures. See README.md for the workloads and the metric map.

mod checks;
mod client;
mod fleet_day;
mod host;
mod plan;
mod serve;
mod stats;

use stats::{json_number, json_string, median, Metric};
use std::time::Instant;

/// End-to-end metrics every workload reports, in output order.
pub const E2E: [&str; 6] = [
    "setup_s",
    "op_p50_ms",
    "side_p50_ms",
    "work_per_s",
    "hit_rate",
    "idle_cogs_usd",
];

/// Per-layer metrics every traced run reports, in output order.
pub const PER_LAYER: [&str; 38] = [
    "nn.head_fit_ms",
    "nn.head_epochs",
    "models.ssa_plus_fit_ms",
    "models.predict_ms",
    "models.forecast_mae",
    "ssa.fit_ms",
    "ssa.forecast_ms",
    "saa.optimize_dp_ms",
    "saa.dp_share_pct",
    "saa.sweep_cache_build_ms",
    "saa.solve_penalized_ms",
    "core.budget_ms",
    "core.provider_calls",
    "core.provider_ms",
    "sim.fleet_new_ms",
    "sim.epoch_p50_ms",
    "sim.requests",
    "sim.clusters_created",
    "sim.borrows",
    "chaos.apply_ms",
    "workload.generate_ms",
    "obs.render_ms",
    "obs.series",
    "obs.exposition_bytes",
    "obs.overhead_ms",
    "controller.step_to_ms",
    "controller.inject_batch_us",
    "controller.status_json_us",
    "controller.fleet_json_us",
    "http.queue_us",
    "http.parse_us",
    "http.handle_us",
    "http.write_us",
    "http.reconnects",
    "http.steals",
    "par.threads",
    "host.ref_ms",
    "trace.overhead_pct",
];

const WORKLOADS: [&str; 3] = ["plan", "fleet-day", "serve"];

/// Serializes tests that share the process-wide obs registry.
#[cfg(test)]
pub static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Identical set-ups timed per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 15;

/// Milliseconds since `start`.
pub fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Runs `setup` [`SETUP_REPEATS`] times; the median wall time, seconds.
pub fn median_setup(mut setup: impl FnMut()) -> f64 {
    let took: Vec<f64> = (0..SETUP_REPEATS)
        .map(|_| {
            let start = Instant::now();
            setup();
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&took).expect("set-ups ran")
}

/// The op time at the highest percentile above the median, at most
/// `cap`, with ten samples beyond it, e.g. `plan_p75_ms`; `None` when no
/// such percentile exists. Reported beside the metrics, not among them.
pub fn tail_metric(prefix: &str, samples: &[f64], cap: f64) -> Option<Metric> {
    let p = stats::tail_percentile(samples.len(), cap).filter(|&p| p > 50.0)?;
    let value = stats::percentile(samples, p).expect("non-empty");
    Some(
        Metric::new("op_tail_ms", "ms", value, samples.len()).labelled(format!("{prefix}_p{p}_ms")),
    )
}

/// The host drift probe, run between ops at most once a second.
pub struct Drift {
    kernel: host::RefKernel,
    last: Option<Instant>,
    samples: Vec<f64>,
}

impl Drift {
    fn new() -> Self {
        Self {
            kernel: host::RefKernel::new(),
            last: None,
            samples: Vec::new(),
        }
    }

    pub fn between_ops(&mut self) {
        if self.last.is_none_or(|t| t.elapsed().as_secs_f64() >= 1.0) {
            self.samples.push(self.kernel.time_ms());
            self.last = Some(Instant::now());
        }
    }
}

/// What a workload run produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub e2e: Vec<Metric>,
    pub layers: Vec<Metric>,
    /// Figures reported beside the metrics (tail latencies).
    pub extra: Vec<Metric>,
    /// `(traced p50, untraced p50)` of the op the traced run timed both ways.
    pub overhead: Option<(f64, f64)>,
    pub notes: Vec<(String, f64)>,
}

impl Outcome {
    pub fn new(attempted: u64, failed: u64) -> Self {
        Self {
            attempted,
            failed,
            e2e: Vec::new(),
            layers: Vec::new(),
            extra: Vec::new(),
            overhead: None,
            notes: Vec::new(),
        }
    }

    pub fn note(&mut self, key: &str, value: f64) {
        self.notes.push((key.to_string(), value));
    }

    fn absorb(&mut self, other: Outcome, prefix: &str) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.layers.extend(other.layers);
        for (k, v) in other.notes {
            self.notes.push((format!("{prefix}.{k}"), v));
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Seconds the probes of other workloads' layers get in a traced run.
const PROBE_SECONDS: f64 = 1.5;

fn layers_of(
    workload: &str,
    seed: u64,
    seconds: f64,
    drift: &mut Drift,
) -> Result<Outcome, String> {
    match workload {
        "plan" => plan::layers(seed, seconds, drift),
        "fleet-day" => fleet_day::layers(seed, seconds, drift),
        _ => serve::layers(seed, seconds, drift),
    }
}

/// A traced run: the workload's own layers for the whole measuring time,
/// then short probes of the layers only the other workloads exercise, so
/// every per-layer metric is present in every traced run.
fn traced(args: &Args, drift: &mut Drift) -> Result<Outcome, String> {
    let mut out = layers_of(&args.workload, args.seed, args.seconds, drift)?;
    let (traced_p50, plain_p50) = out.overhead.expect("every layer run times both ways");
    for other in WORKLOADS.iter().filter(|w| **w != args.workload) {
        let probe = layers_of(other, args.seed, PROBE_SECONDS, drift)?;
        out.absorb(probe, &format!("probe.{other}"));
    }
    out.layers.extend([
        Metric::new("par.threads", "count", ip_par::num_threads() as f64, 1),
        Metric::new(
            "host.ref_ms",
            "ms",
            median(&drift.samples).expect("probed"),
            drift.samples.len(),
        ),
        Metric::new(
            "trace.overhead_pct",
            "%",
            100.0 * (traced_p50 / plain_p50 - 1.0),
            2,
        ),
    ]);
    Ok(out)
}

/// Orders `metrics` as `names`, failing unless each name appears once.
fn in_order(metrics: Vec<Metric>, names: &[&str]) -> Result<Vec<Metric>, String> {
    if metrics.len() != names.len() {
        return Err(format!(
            "{} metrics measured, {} expected",
            metrics.len(),
            names.len()
        ));
    }
    names
        .iter()
        .map(|n| {
            let found: Vec<&Metric> = metrics.iter().filter(|m| m.name == *n).collect();
            match found.as_slice() {
                [m] if stats::valid_name(n) && m.value.is_finite() => Ok((*m).clone()),
                [m] => Err(format!("metric {n} is {}", m.value)),
                _ => Err(format!("metric {n} measured {} times", found.len())),
            }
        })
        .collect()
}

fn context(args: &Args, out: &Outcome, metrics: &[Metric], drift: &Drift) -> String {
    let obs = match (args.workload.as_str(), args.trace) {
        ("serve", _) => "on",
        ("fleet-day", _) => "alternating off/on per op",
        ("plan", false) => "off",
        ("plan", true) => "off; on in the fleet-day and serve probes",
        _ => unreachable!("workload validated"),
    };
    let mut fields = vec![
        ("workload".to_string(), json_string(&args.workload)),
        ("seed".to_string(), args.seed.to_string()),
        ("seconds".to_string(), json_number(args.seconds)),
        ("trace".to_string(), u8::from(args.trace).to_string()),
        (
            "available_parallelism".to_string(),
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .to_string(),
        ),
        ("ip_threads".to_string(), ip_par::num_threads().to_string()),
        ("ip_obs".to_string(), json_string(obs)),
        (
            "source".to_string(),
            json_string(&std::env::var("POOLBENCH_SOURCE").unwrap_or_else(|_| "unknown".into())),
        ),
        (
            "profile".to_string(),
            json_string(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        (
            "host_ref_ms".to_string(),
            json_number(median(&drift.samples).unwrap_or(f64::NAN)),
        ),
        (
            "host_ref_samples".to_string(),
            drift.samples.len().to_string(),
        ),
        ("setup_repeats".to_string(), SETUP_REPEATS.to_string()),
    ];
    let labels: Vec<String> = metrics
        .iter()
        .map(|m| format!("{}: {}", json_string(m.name), json_string(&m.label)))
        .collect();
    fields.push(("labels".to_string(), format!("{{{}}}", labels.join(", "))));
    let samples: Vec<String> = metrics
        .iter()
        .map(|m| format!("{}: {}", json_string(m.name), m.samples))
        .collect();
    fields.push(("samples".to_string(), format!("{{{}}}", samples.join(", "))));
    for m in &out.extra {
        fields.push((m.label.clone(), json_number(m.value)));
        fields.push((format!("{}_samples", m.label), m.samples.to_string()));
    }
    for (k, v) in &out.notes {
        fields.push((k.clone(), json_number(*v)));
    }
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_string(k)))
        .collect();
    format!("{{\"context\": {{{}}}}}", body.join(", "))
}

fn result_line(out: &Outcome, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        body.join(", ")
    )
}

fn run(args: &Args) -> Result<(Outcome, Vec<Metric>, Drift), String> {
    ip_obs::set_enabled(false);
    let mut drift = Drift::new();
    drift.between_ops();
    let ticks = host::cpu_ticks();
    let mut out = if args.trace {
        traced(args, &mut drift)?
    } else {
        match args.workload.as_str() {
            "plan" => plan::run(args.seed, args.seconds, &mut drift)?,
            "fleet-day" => fleet_day::run(args.seed, args.seconds, &mut drift)?,
            _ => serve::run(args.seed, args.seconds, &mut drift)?,
        }
    };
    let metrics = if args.trace {
        in_order(std::mem::take(&mut out.layers), &PER_LAYER)?
    } else {
        in_order(std::mem::take(&mut out.e2e), &E2E)?
    };
    if out.attempted == 0 {
        return Err("no operation was attempted".into());
    }
    if let Some(steal) = host::steal_pct(ticks, host::cpu_ticks()) {
        out.note("cpu_steal_pct", steal);
    }
    Ok((out, metrics, drift))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("poolbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok((out, metrics, drift)) => {
            for m in metrics.iter().chain(&out.extra) {
                println!(
                    "{:<28} {:>16.6} {:<6} [{}, n={}]",
                    m.label, m.value, m.unit, m.name, m.samples
                );
            }
            println!("attempted {} failed {}", out.attempted, out.failed);
            println!("{}", context(&args, &out, &metrics, &drift));
            println!("{}", result_line(&out, &metrics));
        }
        Err(e) => {
            eprintln!("poolbench: check failed: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Content;

    fn names(doc: &Content, key: &str) -> Vec<String> {
        match doc.field(key) {
            Some(Content::Seq(items)) => items
                .iter()
                .map(|m| match m.field("name") {
                    Some(Content::Str(s)) => s.clone(),
                    other => panic!("{key} entry without a name: {other:?}"),
                })
                .collect(),
            other => panic!("BENCHMARK.json lacks {key}: {other:?}"),
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark directory");
        let doc: Content = serde_json::from_str(&text).expect("valid JSON");
        assert_eq!(names(&doc, "end_to_end"), E2E);
        assert_eq!(names(&doc, "per_layer"), PER_LAYER);
        assert_eq!(names(&doc, "workloads"), WORKLOADS);
    }

    #[test]
    fn every_metric_name_is_legal_and_unique() {
        let all: Vec<&str> = E2E.iter().chain(PER_LAYER.iter()).copied().collect();
        for n in &all {
            assert!(stats::valid_name(n), "{n}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
    }

    #[test]
    fn in_order_rejects_missing_duplicate_and_non_finite() {
        let m = |n: &'static str, v: f64| Metric::new(n, "ms", v, 1);
        let ok = in_order(vec![m("b", 2.0), m("a", 1.0)], &["a", "b"]).unwrap();
        assert_eq!(ok.iter().map(|m| m.name).collect::<Vec<_>>(), ["a", "b"]);
        assert!(in_order(vec![m("a", 1.0)], &["a", "b"]).is_err());
        assert!(in_order(vec![m("a", 1.0), m("a", 1.0)], &["a", "b"]).is_err());
        assert!(in_order(vec![m("a", f64::NAN), m("b", 1.0)], &["a", "b"]).is_err());
    }
}
