//! `serve`: the live daemon as operators run it, with obs on. A 3-pool
//! borrowing fleet daemon replays a scenario-shaped day at a speed that
//! makes the trace outlast the run. Two client connections run in
//! parallel: a closed-loop keep-alive writer posting batches of 16
//! entries to `POST /requests`, and a scraper cycling through
//! `GET /metrics`, `/fleet` and `/status` at a fixed rate.

use crate::checks;
use crate::client::Client;
use crate::fleet_day::{permissive_matrix, shaped};
use crate::stats::{median, Metric};
use crate::{ms, Drift, Outcome};
use ip_core::CostModel;
use ip_serve::{Controller, Daemon, PoolServeConfig, ServeConfig};
use ip_sim::CompatibilityMatrix;
use serde::Content;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const POOLS: [&str; 3] = ["east", "west", "spare"];
/// Entries per `POST /requests`.
const BATCH: usize = 16;
/// The scraper starts one cycle per period.
const SCRAPE_PERIOD: Duration = Duration::from_millis(100);
/// The endpoints one scrape cycle reads, in order.
const SCRAPED: [&str; 3] = ["/metrics", "/fleet", "/status"];
/// Tail percentile cap for inject latency.
pub const TAIL_CAP: f64 = 99.0;
/// Lease the offline controller replay holds, logical seconds.
const LEASE_SECS: u64 = 300;

struct Fleet {
    pools: Vec<PoolServeConfig>,
    matrix: CompatibilityMatrix,
}

fn fleet(seed: u64) -> Result<Fleet, String> {
    let names: Vec<String> = POOLS.iter().map(|s| s.to_string()).collect();
    let (shaped, _) = shaped(seed, &names)?;
    let pools = shaped
        .into_iter()
        .map(|(id, demand, faults)| {
            let mut p = PoolServeConfig::named(id, demand);
            p.sim.faults = faults;
            p.sim.seed = 7;
            p.model = Some("baseline".into());
            p.alpha = 0.5;
            p
        })
        .collect();
    Ok(Fleet {
        pools,
        matrix: permissive_matrix(&names),
    })
}

/// Boots the daemon over `f` with a replay `speedup` (obs must already be
/// on).
fn start(f: &Fleet, speedup: f64) -> Result<Daemon, String> {
    let mut config = ServeConfig::fleet(f.pools.clone())?;
    config.matrix = Some(f.matrix.clone());
    config.speedup = speedup;
    config.keep_alive = true;
    Daemon::start(config)
}

fn stop(daemon: Daemon) -> ip_serve::ServeOutcome {
    daemon.request_shutdown();
    daemon.join()
}

/// What the two clients measured.
#[derive(Default)]
struct Load {
    inject_ms: Vec<f64>,
    traced_inject_ms: Vec<f64>,
    /// Per-endpoint latencies, in [`SCRAPED`] order.
    scrape_ms: [Vec<f64>; 3],
    acked: u64,
    /// Entries acknowledged in each whole second of the run; their median
    /// is the throughput, steadier than a total over the run when the
    /// host stalls for a second or two.
    acked_per_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    reconnects: u64,
    /// `(start offset, duration)` per request, kept in traced runs.
    spans: Vec<(f64, f64)>,
}

fn batch_body() -> String {
    let entries: Vec<String> = (0..BATCH)
        .map(|k| format!("{{\"count\":1,\"pool\":\"{}\"}}", POOLS[k % POOLS.len()]))
        .collect();
    format!("[{}]", entries.join(","))
}

/// Drives the writer and the scraper for `seconds`. In traced mode the
/// writer keeps a span per request during even seconds only, so the odd
/// seconds give the untraced latency next to it.
fn drive(daemon: &Daemon, seconds: f64, traced: bool) -> Load {
    let addr = daemon.addr();
    let stop = AtomicBool::new(false);
    let started = Instant::now();
    let body = batch_body();
    let (mut load, scraper) = std::thread::scope(|scope| {
        let scraper = scope.spawn(|| {
            let mut client = Client::new(addr);
            let mut samples: [Vec<f64>; 3] = Default::default();
            let (mut attempted, mut failed) = (0u64, 0u64);
            let mut next = Instant::now();
            while !stop.load(Ordering::Relaxed) {
                for (k, path) in SCRAPED.iter().enumerate() {
                    attempted += 1;
                    let t0 = Instant::now();
                    match client.request("GET", path, "") {
                        Ok((200, _)) => samples[k].push(ms(t0)),
                        _ => failed += 1,
                    }
                }
                next += SCRAPE_PERIOD;
                if let Some(wait) = next.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
            }
            (
                samples,
                attempted,
                failed + client.failed_connects,
                client.reconnects,
            )
        });
        let mut load = Load::default();
        let mut client = Client::new(addr);
        let end = started + Duration::from_secs_f64(seconds);
        // Whole seconds only, so every bucket spans the same time.
        load.acked_per_s = vec![0.0; (seconds.floor() as usize).max(1)];
        while Instant::now() < end {
            let t0 = Instant::now();
            let reply = client.request("POST", "/requests", &body);
            let took = ms(t0);
            load.attempted += 1;
            match reply {
                Ok((200, text)) => {
                    let acked = serde_json::from_str::<Content>(&text)
                        .ok()
                        .and_then(|doc| doc.field("injected").and_then(Content::as_u64));
                    match acked {
                        Some(n) => {
                            load.acked += n;
                            let second = (t0 - started).as_secs() as usize;
                            if let Some(bucket) = load.acked_per_s.get_mut(second) {
                                *bucket += n as f64;
                            }
                        }
                        None => load.failed += 1,
                    }
                    let record = traced && (t0 - started).as_secs().is_multiple_of(2);
                    if record {
                        load.spans.push(((t0 - started).as_secs_f64(), took));
                        load.traced_inject_ms.push(took);
                    } else {
                        load.inject_ms.push(took);
                    }
                }
                // Any other status, a 409 from a finished trace included,
                // and any transport error is a failure.
                _ => load.failed += 1,
            }
        }
        load.failed += client.failed_connects;
        load.reconnects = client.reconnects;
        stop.store(true, Ordering::Relaxed);
        (load, scraper.join().expect("scraper thread"))
    });
    let (samples, attempted, failed, reconnects) = scraper;
    load.scrape_ms = samples;
    load.attempted += attempted;
    load.failed += failed;
    load.reconnects += reconnects;
    load
}

/// `GET path` on a fresh connection; the body of a 200.
fn get(daemon: &Daemon, path: &str) -> Result<String, String> {
    match Client::new(daemon.addr()).request("GET", path, "") {
        Ok((200, body)) => Ok(body),
        Ok((code, body)) => Err(format!("serve: GET {path} returned {code}: {body}")),
        Err(e) => Err(format!("serve: GET {path}: {e}")),
    }
}

/// Checks the injected count three ways and drains the daemon.
fn finish(daemon: Daemon, load: &Load) -> Result<String, String> {
    let status: Content = serde_json::from_str(&get(&daemon, "/status")?)
        .map_err(|e| format!("serve: /status: {e:?}"))?;
    let state = status.field("state").and_then(|s| match s {
        Content::Str(s) => Some(s.clone()),
        _ => None,
    });
    if state.as_deref() != Some("running") {
        return Err(format!(
            "serve: the trace did not outlast the run (state {state:?})"
        ));
    }
    let injected = status
        .field("injected_requests")
        .and_then(Content::as_u64)
        .ok_or("serve: /status lacks injected_requests")?;
    checks::injected_count("/status", load.acked, injected)?;
    let metrics = get(&daemon, "/metrics")?;
    let outcome = stop(daemon);
    checks::injected_count("drained daemon", load.acked, outcome.injected)?;
    Ok(metrics)
}

/// Replay speed that makes the day outlast set-up plus the run twice over.
fn speedup(f: &Fleet, seconds: f64) -> f64 {
    let span = f
        .pools
        .iter()
        .map(|p| p.demand.duration_secs())
        .max()
        .unwrap_or(1) as f64;
    span / (2.0 * seconds + 30.0)
}

/// One set-up: inputs, scenario and a started daemon.
fn setup(seed: u64, seconds: f64) -> Result<(Fleet, Daemon), String> {
    let f = fleet(seed)?;
    let daemon = start(&f, speedup(&f, seconds))?;
    Ok((f, daemon))
}

fn timed_setups(seed: u64, seconds: f64) -> Result<f64, String> {
    let mut took = Vec::new();
    for _ in 0..crate::SETUP_REPEATS {
        ip_obs::reset();
        let t0 = Instant::now();
        let (_, daemon) = setup(seed, seconds)?;
        took.push(t0.elapsed().as_secs_f64());
        stop(daemon);
    }
    Ok(median(&took).expect("set up"))
}

/// The served trace's outcome without injections, replayed offline
/// through the daemon's own controller: `(hit rate, idle COGS)`.
fn provisioning(f: &Fleet) -> Result<(f64, f64, u64), String> {
    let mut ctl = Controller::with_matrix(f.pools.clone(), LEASE_SECS, Some(f.matrix.clone()))?;
    while !ctl.is_done() {
        ctl.step_to(u64::MAX / 2);
    }
    ctl.finalize();
    let (mut requests, mut hits, mut idle) = (0u64, 0u64, 0.0);
    for (i, pool) in POOLS.iter().enumerate() {
        let r = ctl
            .report_of(i)
            .ok_or("serve: replay left a pool unfinished")?;
        checks::hit_accounting(pool, r.total_requests, r.hits, r.misses)?;
        requests += r.total_requests;
        hits += r.hits;
        idle += r.idle_cluster_seconds;
    }
    Ok((
        hits as f64 / requests as f64,
        CostModel::default().cost_of_idle(idle),
        requests,
    ))
}

pub fn run(seed: u64, seconds: f64, drift: &mut Drift) -> Result<Outcome, String> {
    ip_obs::set_enabled(true);
    let setup_s = timed_setups(seed, seconds)?;
    ip_obs::reset();
    let (f, daemon) = setup(seed, seconds)?;
    drift.between_ops();
    let load = drive(&daemon, seconds, false);
    finish(daemon, &load)?;
    ip_obs::set_enabled(false);
    drift.between_ops();
    let (hit_rate, idle_cogs, requests) = provisioning(&f)?;
    let n = load.inject_ms.len();
    // A scrape cycle's time as the sum of each endpoint's median: on two
    // CPUs shared with the writer, a whole cycle is preempted often
    // enough that its own median sits between two modes.
    let endpoint_p50s: Vec<f64> = load
        .scrape_ms
        .iter()
        .map(|v| median(v).unwrap_or(f64::NAN))
        .collect();
    let scrapes = load.scrape_ms.iter().map(Vec::len).min().unwrap_or(0);
    let mut out = Outcome::new(load.attempted, load.failed);
    out.e2e = vec![
        Metric::new("setup_s", "s", setup_s, crate::SETUP_REPEATS),
        Metric::new(
            "op_p50_ms",
            "ms",
            median(&load.inject_ms).unwrap_or(f64::NAN),
            n,
        )
        .labelled("inject_p50_ms"),
        Metric::new("side_p50_ms", "ms", endpoint_p50s.iter().sum(), scrapes)
            .labelled("scrape_p50_ms"),
        Metric::new(
            "work_per_s",
            "1/s",
            median(&load.acked_per_s).unwrap_or(f64::NAN),
            load.acked_per_s.len(),
        )
        .labelled("inject_per_s"),
        Metric::new("hit_rate", "ratio", hit_rate, requests as usize),
        Metric::new("idle_cogs_usd", "usd", idle_cogs, POOLS.len()),
    ];
    out.extra
        .extend(crate::tail_metric("inject", &load.inject_ms, TAIL_CAP));
    for (path, p50) in SCRAPED.iter().zip(&endpoint_p50s) {
        out.note(&format!("scrape{}_p50_ms", path.replace('/', "_")), *p50);
    }
    out.note("acked_entries", load.acked as f64);
    out.note("reconnects", load.reconnects as f64);
    Ok(out)
}

/// Mean of a phase histogram on the daemon's own `/metrics`, microseconds.
fn phase_us(samples: &[ip_obs::export::ParsedSample], phase: &str) -> Result<f64, String> {
    let pick = |suffix: &str| {
        samples
            .iter()
            .find(|s| {
                s.name == format!("ip_serve_request_phase_seconds_{suffix}")
                    && s.labels.iter().any(|(k, v)| k == "phase" && v == phase)
            })
            .map(|s| s.value)
    };
    match (pick("sum"), pick("count")) {
        (Some(sum), Some(count)) if count > 0.0 => Ok(sum / count * 1e6),
        _ => Err(format!("serve: /metrics lacks the {phase} phase histogram")),
    }
}

/// The traced run of the controller and HTTP layers: the same load with
/// per-request spans on alternate seconds, the HTTP phase split read from
/// the daemon's own `/metrics`, then direct controller calls on an
/// offline controller over the same fleet.
pub fn layers(seed: u64, seconds: f64, drift: &mut Drift) -> Result<Outcome, String> {
    ip_obs::set_enabled(true);
    ip_obs::reset();
    let (f, daemon) = setup(seed, seconds)?;
    let load = drive(&daemon, seconds, true);
    let metrics = finish(daemon, &load)?;
    ip_obs::set_enabled(false);
    drift.between_ops();
    let samples = ip_obs::export::parse_prometheus(&metrics)?;
    let steals: f64 = samples
        .iter()
        .filter(|s| s.name == "ip_serve_worker_steals_total")
        .map(|s| s.value)
        .sum();

    let mut ctl = Controller::with_matrix(f.pools.clone(), LEASE_SECS, Some(f.matrix.clone()))?;
    let items: Vec<(usize, u64, Option<usize>)> =
        (0..BATCH).map(|k| (k % POOLS.len(), 1, None)).collect();
    let (mut step, mut inject, mut status, mut fleet) = (vec![], vec![], vec![], vec![]);
    let mut until = 0u64;
    let end = f
        .pools
        .iter()
        .map(|p| p.demand.duration_secs())
        .max()
        .unwrap_or(0);
    while until < end {
        until += 3600;
        let t0 = Instant::now();
        ctl.inject_batch(&items)
            .map_err(|e| format!("serve: inject_batch: {e}"))?;
        inject.push(t0.elapsed().as_secs_f64() * 1e6);
        let t0 = Instant::now();
        ctl.step_to(until);
        step.push(ms(t0));
        let t0 = Instant::now();
        ctl.status_json("running")?;
        status.push(t0.elapsed().as_secs_f64() * 1e6);
        let t0 = Instant::now();
        ctl.fleet_json()?;
        fleet.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let m = |name, unit, v: &[f64]| Metric::new(name, unit, median(v).expect("sampled"), v.len());
    let mut out = Outcome::new(load.attempted, load.failed);
    out.layers = vec![
        m("controller.step_to_ms", "ms", &step),
        m("controller.inject_batch_us", "us", &inject),
        m("controller.status_json_us", "us", &status),
        m("controller.fleet_json_us", "us", &fleet),
        Metric::new("http.queue_us", "us", phase_us(&samples, "queue")?, 1),
        Metric::new("http.parse_us", "us", phase_us(&samples, "parse")?, 1),
        Metric::new("http.handle_us", "us", phase_us(&samples, "handle")?, 1),
        Metric::new("http.write_us", "us", phase_us(&samples, "write")?, 1),
        Metric::new("http.reconnects", "count", load.reconnects as f64, 1),
        Metric::new("http.steals", "count", steals, 1),
    ];
    out.overhead = Some((
        median(&load.traced_inject_ms).ok_or("serve: no traced injects")?,
        median(&load.inject_ms).ok_or("serve: no untraced injects")?,
    ));
    out.note("spans", load.spans.len() as f64);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finish_catches_a_mismatched_injected_count() {
        let _serial = crate::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        ip_obs::set_enabled(true);
        let (_, daemon) = setup(1, 1.0).unwrap();
        let mut load = drive(&daemon, 0.3, false);
        assert!(load.acked > 0 && load.failed == 0);
        load.acked -= 1;
        let err = finish(daemon, &load).unwrap_err();
        assert!(err.contains("injected"), "{err}");
        ip_obs::set_enabled(false);
    }
}
