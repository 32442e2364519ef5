//! Serve-level benchmark for the mzd workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path servebench/Cargo.toml -- \
//!     --workload node-paper --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Drives one workload through the public library API `mzd serve` uses
//! (closed loop, simulated rounds back to back, `--jobs 1`), checks its
//! outputs, and prints every metric by name and unit. The last line of
//! standard output is one JSON object: with `--trace 0` it holds the
//! end-to-end metrics, with `--trace 1` the per-layer metrics of a run
//! whose episodes alternate between untraced and traced (harness spans
//! plus the phase profiler). See `servebench/README.md`.

mod fidelity;
mod spans;
mod workload;

use spans::Tracer;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use workload::{Outcome, Timing, Workload};

pub type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

/// The paper's per-stream guarantee: at most ε = 1% of streams see g or
/// more glitches.
const EPSILON: f64 = 0.01;
/// Two-sided 95% normal quantile, for the Wilson bounds.
const Z95: f64 = 1.959_963_984_540_054;
/// Traced episodes whose spans are written out; all of them feed the
/// per-layer metrics, but a long run would write hundreds of megabytes.
const WRITTEN_TRACED_EPISODES: usize = 8;
/// A run stops starting episodes after this long, whatever `--seconds`
/// asks, so it always ends well within three minutes.
const HARD_STOP: Duration = Duration::from_secs(120);

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::by_name(&value).ok_or_else(|| {
                    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(value.parse()?),
            "--seconds" => seconds = Some(value.parse()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown flag `{other}`").into()),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20),
        trace: trace.unwrap_or(false),
    })
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

fn median_by(runs: &[&Run], f: impl Fn(&Run) -> f64) -> f64 {
    median(&runs.iter().map(|r| f(r)).collect::<Vec<_>>())
}

/// Linearly interpolated quantile; 0 for an empty sample.
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Upper end of the 95% Wilson score interval for `k` successes in `n`
/// trials: with 95% confidence the true share lies below it. It stays
/// positive when `k` is 0.
fn wilson_upper(k: u64, n: u64) -> f64 {
    if n == 0 {
        return 1.0;
    }
    let n = n as f64;
    let p = k as f64 / n;
    let z2 = Z95 * Z95;
    let centre = p + z2 / (2.0 * n);
    let spread = Z95 * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    ((centre + spread) / (1.0 + z2 / n)).min(1.0)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mb() -> Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .ok_or("no VmHWM in /proc/self/status")?
        .parse()?;
    Ok(kb / 1024.0)
}

/// The calibration loop's time on the reference host, a 2-vCPU Intel
/// Xeon VM with quiet neighbours. End-to-end host times are reported at
/// this host's speed.
const REFERENCE_CALIBRATION_S: f64 = 1.25e-3;

/// Host seconds of a fixed integer, float and cache loop that belongs to
/// the harness, so it gauges the host's current speed and never the
/// program's.
fn calibration_s() -> f64 {
    let start = Instant::now();
    let mut table = vec![0u64; 1 << 15];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0.0f64;
    for _ in 0..200_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = (x as usize) & (table.len() - 1);
        table[slot] = table[slot].wrapping_add(x);
        acc += ((x >> 11) as f64 + 1.0).ln();
    }
    std::hint::black_box((table, acc));
    start.elapsed().as_secs_f64()
}

/// One episode as it ran. Its host times are scaled to the reference
/// speed by the calibration loop timed around it, and its per-round
/// times are summarised and dropped, so a long run's memory does not
/// grow with its episodes.
struct Run {
    traced: bool,
    outcome: Outcome,
    timing: Timing,
    /// Reference calibration time / this episode's: below 1 on a slow host.
    speed: f64,
    setup_s: f64,
    rounds_s: f64,
    round_p50_us: f64,
    round_p99_us: f64,
}

impl Run {
    fn new(traced: bool, outcome: Outcome, mut timing: Timing, calibration_s: f64) -> Self {
        let speed = REFERENCE_CALIBRATION_S / calibration_s;
        let round_s = std::mem::take(&mut timing.round_s);
        Self {
            traced,
            outcome,
            speed,
            setup_s: timing.setup_s * speed,
            rounds_s: round_s.iter().sum::<f64>() * speed,
            round_p50_us: quantile(&round_s, 0.5) * 1e6 * speed,
            round_p99_us: quantile(&round_s, 0.99) * 1e6 * speed,
            timing,
        }
    }
    fn stream_rounds_per_s(&self) -> f64 {
        self.outcome.stream_rounds as f64 / self.rounds_s
    }
    fn phase_us_per_round(&self, name: &str) -> f64 {
        self.timing
            .phases
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, ns)| ns / 1e3 / self.outcome.rounds as f64)
    }
}

/// The simulated outcome of the run's episodes, pooled.
#[derive(Default)]
struct Pooled {
    episodes: u64,
    o: Outcome,
    detected: Vec<u64>,
}

impl Pooled {
    fn add(&mut self, o: &Outcome) {
        let p = &mut self.o;
        self.episodes += 1;
        p.rounds += o.rounds;
        p.stream_rounds += o.stream_rounds;
        p.glitches += o.glitches;
        p.completions += o.completions;
        p.over_budget += o.over_budget;
        p.submissions += o.submissions;
        p.rejections += o.rejections;
        p.admissions += o.admissions;
        p.wait_sum += o.wait_sum;
        p.live_disk_rounds += o.live_disk_rounds;
        p.limit = o.limit;
        p.g = o.g;
        p.max_disk_load = p.max_disk_load.max(o.max_disk_load);
        p.migrations += o.migrations;
        p.disk_rounds += o.disk_rounds;
        p.late_disk_rounds += o.late_disk_rounds;
        p.cache_lookups += o.cache_lookups;
        p.cache_hits += o.cache_hits;
        p.cache_evictions += o.cache_evictions;
        p.cache_rejected_fills += o.cache_rejected_fills;
        p.drift_alarms += o.drift_alarms;
        p.probations += o.probations;
        p.false_probations += o.false_probations;
        p.ejections += o.ejections;
        p.hedges_issued += o.hedges_issued;
        p.hedges_won += o.hedges_won;
        self.detected.extend(o.detect_rounds);
        p.accounting_errors
            .extend(o.accounting_errors.iter().cloned());
    }

    /// A count averaged per episode.
    fn per_episode(&self, count: u64) -> f64 {
        ratio(count, self.episodes)
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        note: note.into(),
    }
}

struct Check {
    name: &'static str,
    passed: bool,
    detail: String,
}

fn end_to_end(w: &Workload, p: &Pooled, timed: &[&Run], peak_rss: f64) -> Vec<Metric> {
    let o = &p.o;
    let samples = format!(
        "at reference speed, median of {} episodes of {} rounds each",
        timed.len(),
        w.rounds
    );
    vec![
        metric(
            "stream_rounds_per_s",
            median_by(timed, Run::stream_rounds_per_s),
            "1/s",
            format!("active stream-rounds per host second of run_round, {samples}"),
        ),
        metric(
            "round_p50_us",
            median_by(timed, |r| r.round_p50_us),
            "us",
            format!("per-episode median run_round time, {samples}"),
        ),
        metric(
            "round_p99_us",
            median_by(timed, |r| r.round_p99_us),
            "us",
            format!("per-episode p99 run_round time, {samples}"),
        ),
        metric(
            "setup_s",
            median_by(timed, |r| r.setup_s),
            "s",
            format!(
                "workload start to first round at reference speed, median of {} set-ups",
                timed.len()
            ),
        ),
        metric("peak_rss_mb", peak_rss, "MB", "VmHWM of this process"),
        metric(
            "glitch_rate",
            wilson_upper(o.glitches, o.stream_rounds),
            "ratio",
            format!(
                "95% Wilson upper bound; {} glitched of {} stream-rounds (share {:.3e}) over {} episodes",
                o.glitches,
                o.stream_rounds,
                ratio(o.glitches, o.stream_rounds),
                p.episodes
            ),
        ),
        metric(
            "over_budget_share",
            wilson_upper(o.over_budget, o.completions),
            "ratio",
            format!(
                "95% Wilson upper bound; {} of {} completed streams had >= {} glitches (share {:.3e})",
                o.over_budget,
                o.completions,
                o.g,
                ratio(o.over_budget, o.completions)
            ),
        ),
        metric(
            "rejected_share",
            wilson_upper(o.rejections, o.submissions),
            "ratio",
            format!(
                "95% Wilson upper bound; {} of {} submissions refused at capacity (share {:.3e})",
                o.rejections,
                o.submissions,
                ratio(o.rejections, o.submissions)
            ),
        ),
        metric(
            "admitted_per_disk",
            ratio(o.stream_rounds, o.live_disk_rounds),
            "streams",
            format!("mean active streams per live disk; limit {}", o.limit),
        ),
        metric(
            "start_wait_rounds",
            ratio(o.wait_sum, o.admissions),
            "rounds",
            format!(
                "Little's law: {} waiting request-rounds / {} admissions",
                o.wait_sum, o.admissions
            ),
        ),
    ]
}

#[allow(clippy::too_many_lines)]
fn per_layer(tr: &Tracer, p: &Pooled, runs: &[Run]) -> Vec<Metric> {
    let o = &p.o;
    let untraced: Vec<&Run> = runs.iter().filter(|r| !r.traced).collect();
    let traced: Vec<&Run> = runs.iter().filter(|r| r.traced).collect();
    let (untraced, traced) = (untraced.as_slice(), traced.as_slice());
    // Span times are scaled to the reference speed like the episode's own.
    let spans_ns = |name: &str| -> Vec<f64> {
        tr.durations_ns(name)
            .into_iter()
            .map(|(run, ns)| ns * runs[run as usize].speed)
            .collect()
    };
    let span_ms = |name: &str| median(&spans_ns(name)) / 1e6;
    let span_us = |name: &str, q: f64| quantile(&spans_ns(name), q) / 1e3;
    let phase = |name: &str| median_by(traced, |r| r.phase_us_per_round(name) * r.speed);
    let us_per_disk_round = if tr.durations_ns("cluster.run_round").is_empty() {
        0.0
    } else {
        median_by(untraced, |r| {
            r.rounds_s * 1e6 / r.outcome.disk_rounds as f64
        })
    };
    let per_ep = "mean per episode";
    vec![
        metric(
            "core.admission_ms",
            span_ms("core.admission"),
            "ms",
            "GuaranteeModel::new + n_max_error",
        ),
        metric(
            "server.new_ms",
            span_ms("server.new"),
            "ms",
            "VideoServer::new",
        ),
        metric(
            "slo.enable_ms",
            span_ms("slo.enable"),
            "ms",
            "enable_slo (first CDF build)",
        ),
        metric(
            "cluster.new_ms",
            span_ms("cluster.new"),
            "ms",
            "Cluster::new + enable_health/enable_tracing",
        ),
        metric(
            "cluster.submit_us_p50",
            span_us("cluster.submit", 0.5),
            "us",
            "each Cluster::submit",
        ),
        metric(
            "cluster.submit_us_p99",
            span_us("cluster.submit", 0.99),
            "us",
            "each Cluster::submit",
        ),
        metric(
            "server.partition_us",
            phase("partition"),
            "us",
            "phase self time per round",
        ),
        metric(
            "server.sweep_us",
            phase("sweep"),
            "us",
            "phase self time per round",
        ),
        metric(
            "server.advance_us",
            phase("advance"),
            "us",
            "phase self time per round",
        ),
        metric(
            "server.slo_us",
            phase("slo"),
            "us",
            "phase self time per round",
        ),
        metric(
            "server.cache_us",
            phase("cache"),
            "us",
            "phase self time per round",
        ),
        metric(
            "server.degrade_us",
            phase("degrade"),
            "us",
            "phase self time per round",
        ),
        metric(
            "server.round_self_us",
            phase("server.round"),
            "us",
            "server.round self time per round",
        ),
        metric(
            "sim.late_disk_share",
            ratio(o.late_disk_rounds, o.disk_rounds),
            "ratio",
            format!(
                "{} late of {} disk-rounds",
                o.late_disk_rounds, o.disk_rounds
            ),
        ),
        metric(
            "cache.hit_ratio",
            ratio(o.cache_hits, o.cache_lookups),
            "ratio",
            format!("(hits + delayed hits) / {} lookups", o.cache_lookups),
        ),
        metric(
            "cache.evictions_per_round",
            ratio(o.cache_evictions, o.rounds),
            "1/round",
            "",
        ),
        metric(
            "cache.rejected_fills",
            p.per_episode(o.cache_rejected_fills),
            "count",
            per_ep,
        ),
        metric(
            "slo.drift_alarms",
            p.per_episode(o.drift_alarms),
            "count",
            format!("{per_ep}, clean traffic"),
        ),
        metric(
            "cluster.us_per_disk_round",
            us_per_disk_round,
            "us",
            "untraced fleet round time / disk-rounds stepped",
        ),
        metric(
            "cluster.migrations",
            p.per_episode(o.migrations),
            "count",
            per_ep,
        ),
        metric(
            "health.probations",
            p.per_episode(o.probations),
            "count",
            per_ep,
        ),
        metric(
            "health.false_probations",
            p.per_episode(o.false_probations),
            "count",
            format!("{per_ep}; probations of nodes other than the gray node"),
        ),
        metric(
            "health.ejections",
            p.per_episode(o.ejections),
            "count",
            per_ep,
        ),
        metric(
            "health.hedges_issued",
            p.per_episode(o.hedges_issued),
            "count",
            per_ep,
        ),
        metric(
            "health.hedge_win_ratio",
            ratio(o.hedges_won, o.hedges_issued),
            "ratio",
            format!("{} won of {} hedges", o.hedges_won, o.hedges_issued),
        ),
        metric(
            "health.detect_rounds",
            median(&p.detected.iter().map(|&d| d as f64).collect::<Vec<_>>()),
            "rounds",
            format!(
                "creep onset to the gray node's first probation, {} detections",
                p.detected.len()
            ),
        ),
        metric(
            "obs.render_us",
            span_us("obs.render", 0.5),
            "us",
            "Cluster::sketches().render_prom() per scrape",
        ),
        metric(
            "obs.render_bytes",
            median_by(traced, |r| r.timing.obs_bytes as f64),
            "bytes",
            "last scrape",
        ),
        metric(
            "telemetry.render_us",
            span_us("telemetry.render", 0.5),
            "us",
            "prom::render(global()) per scrape",
        ),
        metric(
            "telemetry.render_bytes",
            median_by(traced, |r| r.timing.telemetry_bytes as f64),
            "bytes",
            "last scrape",
        ),
        metric(
            "trace.spans",
            median_by(traced, |r| r.timing.trace_spans as f64),
            "count",
            "per episode export",
        ),
        metric(
            "trace.dropped",
            median_by(traced, |r| r.timing.trace_dropped as f64),
            "count",
            "per episode",
        ),
        metric(
            "trace.export_ms",
            span_ms("trace.export"),
            "ms",
            "trace_chrome_json, rendered to memory",
        ),
        metric(
            "trace.bytes",
            median_by(traced, |r| r.timing.trace_bytes as f64),
            "bytes",
            "per episode export",
        ),
        metric(
            "harness.trace_overhead",
            median_by(traced, Run::stream_rounds_per_s)
                / median_by(untraced, Run::stream_rounds_per_s),
            "ratio",
            format!(
                "traced / untraced stream_rounds_per_s over {} / {} runs",
                traced.len(),
                untraced.len()
            ),
        ),
    ]
}

/// The result line. `failed` is always 0: an operation that returns an
/// error ends the run with a non-zero exit and no result instead.
fn json_line(correct: bool, attempted: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": 0, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[allow(clippy::too_many_lines)]
fn run(args: &Args) -> Result<()> {
    let w = args.workload;
    mzd_par::set_jobs(1);
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");

    let fidelity = fidelity::check(w, args.seed, &out_dir)?;

    // The first pass runs every episode once and fixes the simulated
    // metrics. Later passes reuse the episode seeds until the time is
    // up, so each repeat re-checks determinism while it adds host
    // samples. With --trace 1 the episodes alternate between untraced
    // and traced, and the parity flips every pass so a repeated episode
    // runs both ways.
    let mut tr = Tracer::new();
    let mut first: Vec<Option<Outcome>> = vec![None; w.episodes as usize];
    let mut mismatches: Vec<u64> = Vec::new();
    let mut runs: Vec<Run> = Vec::new();
    let start = Instant::now();
    let min_runs = w.episodes + 1;
    let mut i = 0u64;
    while i < min_runs
        || (start.elapsed() < Duration::from_secs(args.seconds) && start.elapsed() < HARD_STOP)
    {
        let k = i % w.episodes;
        let traced = args.trace && (i + i / w.episodes) % 2 == 1;
        let calibration_before = calibration_s();
        tr.set_run(u32::try_from(i)?, traced);
        tr.enter("workload.episode");
        let episode = workload::run_episode(
            w,
            workload::episode_seed(args.seed, k),
            w.rounds,
            &mut tr,
            traced,
        );
        tr.exit();
        let (outcome, timing) = episode?;
        match &first[k as usize] {
            None => first[k as usize] = Some(outcome.clone()),
            Some(expected) if *expected != outcome => mismatches.push(k),
            Some(_) => {}
        }
        let calibration = 0.5 * (calibration_before + calibration_s());
        runs.push(Run::new(traced, outcome, timing, calibration));
        i += 1;
    }
    let measured_s = start.elapsed().as_secs_f64();
    let peak_rss = peak_rss_mb()?;

    let mut pooled = Pooled::default();
    for o in first.iter().flatten() {
        pooled.add(o);
    }
    let o = &pooled.o;
    let untraced: Vec<&Run> = runs.iter().filter(|r| !r.traced).collect();
    let traced: Vec<&Run> = runs.iter().filter(|r| r.traced).collect();
    let attempted: u64 = runs
        .iter()
        .map(|r| r.outcome.rounds + r.outcome.submissions)
        .sum();

    let checks = vec![
        Check {
            name: "determinism",
            passed: mismatches.is_empty(),
            detail: if mismatches.is_empty() {
                format!(
                    "{} runs of {} seeds repeat their simulated outcome exactly",
                    runs.len(),
                    w.episodes
                )
            } else {
                format!("episodes {mismatches:?} differed between repeats of one seed")
            },
        },
        Check {
            name: "admission_limit",
            passed: o.max_disk_load <= o.limit
                && ratio(o.stream_rounds, o.live_disk_rounds) <= f64::from(o.limit),
            detail: format!(
                "max per-disk load {} and admitted_per_disk {:.3} vs the setup limit {}",
                o.max_disk_load,
                ratio(o.stream_rounds, o.live_disk_rounds),
                o.limit
            ),
        },
        Check {
            name: "over_budget",
            passed: ratio(o.over_budget, o.completions) <= EPSILON,
            detail: format!(
                "{} of {} completed streams over budget (share {:.5}, epsilon {EPSILON})",
                o.over_budget,
                o.completions,
                ratio(o.over_budget, o.completions)
            ),
        },
        Check {
            name: "accounting",
            passed: o.accounting_errors.is_empty(),
            detail: if o.accounting_errors.is_empty() {
                "round-report totals match the program's status counters".into()
            } else {
                o.accounting_errors.join("; ")
            },
        },
        Check {
            name: "fidelity",
            passed: fidelity.passed(),
            detail: format!(
                "{} rounds at seed {} vs `mzd serve`: {}",
                w.fidelity_rounds,
                args.seed,
                fidelity
                    .counts
                    .iter()
                    .map(|(what, h, s)| format!("{what} {h}/{s}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        },
    ];
    let correct = checks.iter().all(|c| c.passed);

    let metrics = if args.trace {
        std::fs::create_dir_all(&out_dir)?;
        let path = out_dir.join(format!("spans-{}.json", w.name));
        std::fs::write(&path, tr.chrome_json(WRITTEN_TRACED_EPISODES))?;
        println!(
            "harness spans of the first {WRITTEN_TRACED_EPISODES} traced episodes -> {}",
            path.display()
        );
        per_layer(&tr, &pooled, &runs)
    } else {
        end_to_end(w, &pooled, &untraced, peak_rss)
    };

    println!(
        "workload {} seed {}: {} runs ({} traced) in {measured_s:.1} s; {} episodes x {} rounds pooled for simulated metrics",
        w.name,
        args.seed,
        runs.len(),
        traced.len(),
        w.episodes,
        w.rounds
    );
    let speeds: Vec<f64> = runs.iter().map(|r| r.speed).collect();
    println!(
        "host speed vs the reference (calibration loop): median {:.3}, range {:.3}-{:.3}",
        median(&speeds),
        quantile(&speeds, 0.0),
        quantile(&speeds, 1.0)
    );
    for m in &metrics {
        println!(
            "  {:<26} {:>16.6} {:<8} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    for c in &checks {
        println!(
            "  check {:<16} {}  {}",
            c.name,
            if c.passed { "pass" } else { "FAIL" },
            c.detail
        );
    }
    println!("{}", json_line(correct, attempted, &metrics));
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("servebench: {e}");
        std::process::exit(1);
    }
}
