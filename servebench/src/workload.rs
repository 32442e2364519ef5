//! The four workloads and the closed-loop episode that drives one of
//! them through the public API `mzd serve` uses: a fixed population of
//! viewers, each play-out completion immediately requesting a new title
//! from the workload's Zipf law, rounds run back to back.

use crate::spans::Tracer;
use crate::Result;
use mzd_cache::CachePolicy;
use mzd_cluster::{Cluster, ClusterConfig, SubmitOutcome};
use mzd_health::{HealthConfig, NodeHealth};
use mzd_server::{CacheSettings, QualityTarget, ServerConfig, SloSettings, VideoServer};
use mzd_workload::{ObjectSpec, SizeDistribution, Zipf};
use rand::{rngs::StdRng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// The mask `mzd serve` applies to its seed for the arrival RNG, kept
/// apart from the server's own RNG so admission order does not perturb
/// fragment sampling.
const ARRIVAL_MASK: u64 = 0x5EED_CA7A_0A11_0C8D;
/// `mzd serve` defaults: Gamma fragment sizes and 600-round titles.
const SIZE_MEAN: f64 = 200_000.0;
const SIZE_SD: f64 = 100_000.0;
const OBJECT_ROUNDS: u32 = 600;
/// A Prometheus scrape every 15 rounds: a 15 s interval at 1 s rounds.
const SCRAPE_EVERY: u64 = 15;
/// The gray node's fault preset (a slowdown creeping to 2.5x).
pub const GRAY_PROFILE: &str = "creep";

#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// One `VideoServer` with its SLO/conformance monitor on.
    Node {
        disks: u32,
        /// `(capacity bytes, admission safety)` of an LRU fragment cache
        /// with cache-aware admission.
        cache: Option<(f64, f64)>,
    },
    /// A `Cluster` with the health subsystem on.
    Fleet(FleetShape),
}

#[derive(Debug, Clone, Copy)]
pub struct FleetShape {
    pub nodes: u32,
    pub disks: u32,
    /// The node that runs the gray-failure preset.
    pub gray_node: Option<u32>,
    /// Render the Prometheus exposition every [`SCRAPE_EVERY`] rounds.
    pub scrape: bool,
    /// Cross-node tracing, exported once per episode.
    pub tracing: bool,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub shape: Shape,
    pub objects: usize,
    pub zipf: f64,
    /// Closed-loop population; `None` offers the fleet's composed capacity.
    pub viewers: Option<u64>,
    /// Rounds per episode.
    pub rounds: u64,
    /// Episodes per run, each with its own seed derived from the run's;
    /// the simulated metrics pool all of them.
    pub episodes: u64,
    /// Rounds of the short run compared against `mzd serve`.
    pub fidelity_rounds: u64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "node-paper",
        shape: Shape::Node {
            disks: 4,
            cache: None,
        },
        objects: 16,
        zipf: 0.0,
        viewers: Some(120),
        rounds: 4000,
        episodes: 16,
        fidelity_rounds: 1500,
    },
    Workload {
        name: "node-cache",
        shape: Shape::Node {
            disks: 4,
            cache: Some((2e8, 0.5)),
        },
        objects: 256,
        zipf: 0.8,
        viewers: Some(150),
        rounds: 2000,
        episodes: 4,
        fidelity_rounds: 1500,
    },
    Workload {
        name: "fleet-gray",
        shape: Shape::Fleet(FleetShape {
            nodes: 16,
            disks: 2,
            gray_node: Some(3),
            scrape: true,
            tracing: false,
        }),
        objects: 16,
        zipf: 0.0,
        viewers: None,
        rounds: 2000,
        episodes: 16,
        fidelity_rounds: 1500,
    },
    Workload {
        name: "fleet-traced",
        shape: Shape::Fleet(FleetShape {
            nodes: 4,
            disks: 2,
            gray_node: None,
            scrape: false,
            tracing: true,
        }),
        objects: 16,
        zipf: 0.0,
        viewers: None,
        rounds: 1200,
        episodes: 24,
        fidelity_rounds: 700,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The seed of episode `k` of a run seeded `seed`; episode 0 uses the
/// run's seed itself.
pub fn episode_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// What one episode did in simulated time. Every field is a pure
/// function of the workload and the seed, so two episodes with the same
/// seed must compare equal.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    pub rounds: u64,
    /// Active streams summed over rounds.
    pub stream_rounds: u64,
    /// Glitched stream-rounds, host plus outage.
    pub glitches: u64,
    pub completions: u64,
    /// Completed streams with at least `g` glitches.
    pub over_budget: u64,
    pub g: u64,
    pub submissions: u64,
    /// Submissions refused at capacity.
    pub rejections: u64,
    pub admissions: u64,
    /// Waiting requests summed over round starts (Little's law).
    pub wait_sum: u64,
    /// Live disks summed over round starts.
    pub live_disk_rounds: u64,
    /// The per-disk limit computed at setup.
    pub limit: u32,
    /// The highest per-disk stream count seen at any round start.
    pub max_disk_load: u32,
    pub migrations: u64,
    pub disk_rounds: u64,
    pub late_disk_rounds: u64,
    pub cache_lookups: u64,
    pub cache_hits: u64,
    pub cache_evictions: u64,
    pub cache_rejected_fills: u64,
    pub drift_alarms: u64,
    pub probations: u64,
    pub false_probations: u64,
    pub ejections: u64,
    pub hedges_issued: u64,
    pub hedges_won: u64,
    /// Rounds from the gray node's creep onset to its first probation.
    pub detect_rounds: Option<u64>,
    /// Disagreements between the totals the harness summed from round
    /// reports and the program's own status counters.
    pub accounting_errors: Vec<String>,
}

/// What one episode cost on the host.
#[derive(Debug, Clone, Default)]
pub struct Timing {
    pub setup_s: f64,
    /// Host seconds of each `run_round` call.
    pub round_s: Vec<f64>,
    /// Phase-profile self nanoseconds by phase (traced episodes only).
    pub phases: Vec<(String, f64)>,
    pub obs_bytes: usize,
    pub telemetry_bytes: usize,
    pub trace_bytes: usize,
    pub trace_spans: usize,
    pub trace_dropped: u64,
}

fn catalog(w: &Workload) -> Result<(Vec<ObjectSpec>, Zipf)> {
    let sizes = SizeDistribution::gamma(SIZE_MEAN, SIZE_SD * SIZE_SD)?;
    let catalog = (0..w.objects)
        .map(|i| {
            ObjectSpec::new(format!("obj-{i}"), sizes.clone(), OBJECT_ROUNDS)
                .map(|o| o.with_content_id(i as u64 + 1))
        })
        .collect::<std::result::Result<Vec<_>, _>>()?;
    let zipf = Zipf::new(catalog.len(), w.zipf)?;
    Ok((catalog, zipf))
}

fn glitch_target(cfg: &ServerConfig) -> Result<(u64, u64, f64)> {
    match cfg.target {
        QualityTarget::GlitchRate { m, g, epsilon } => Ok((m, g, epsilon)),
        QualityTarget::RoundOverrun { .. } => Err("expected the per-stream glitch target".into()),
    }
}

/// The paper's admission search, timed as `core.admission`.
fn admission_limit(cfg: &ServerConfig, tr: &mut Tracer) -> Result<u32> {
    let (m, g, epsilon) = glitch_target(cfg)?;
    tr.enter("core.admission");
    let limit = cfg
        .model()
        .and_then(|model| Ok(model.n_max_error(cfg.round_length, m, g, epsilon)?));
    tr.exit();
    Ok(limit?)
}

/// Run one episode of `w`: set up, submit the initial population, run
/// `rounds` rounds. `traced` turns on the phase profiler and the
/// per-layer reads that cost host time; the simulated outcome does not
/// depend on it.
pub fn run_episode(
    w: &Workload,
    seed: u64,
    rounds: u64,
    tr: &mut Tracer,
    traced: bool,
) -> Result<(Outcome, Timing)> {
    match w.shape {
        Shape::Node { disks, cache } => node_episode(w, disks, cache, seed, rounds, tr, traced),
        Shape::Fleet(fleet) => fleet_episode(w, &fleet, seed, rounds, tr, traced),
    }
}

fn start_profile(traced: bool) {
    if traced {
        mzd_prof::reset_profile();
        mzd_prof::set_profiling(true);
    }
}

/// Self nanoseconds per `server.round` phase from the collapsed
/// profile, keyed by the leaf phase name (`server.round` for its own
/// self time).
fn stop_profile(traced: bool) -> Vec<(String, f64)> {
    if !traced {
        return Vec::new();
    }
    mzd_prof::set_profiling(false);
    let mut phases: Vec<(String, f64)> = Vec::new();
    for line in mzd_prof::collapsed().lines() {
        let Some((stack, ns)) = line.rsplit_once(' ') else {
            continue;
        };
        let leaf = stack.rsplit(';').next().unwrap_or(stack).to_string();
        let ns: f64 = ns.parse().unwrap_or(0.0);
        match phases.iter_mut().find(|(name, _)| *name == leaf) {
            Some((_, total)) => *total += ns,
            None => phases.push((leaf, ns)),
        }
    }
    phases
}

fn node_episode(
    w: &Workload,
    disks: u32,
    cache: Option<(f64, f64)>,
    seed: u64,
    rounds: u64,
    tr: &mut Tracer,
    traced: bool,
) -> Result<(Outcome, Timing)> {
    let t0 = Instant::now();
    tr.enter("workload.setup");
    let mut cfg = ServerConfig::paper_reference(disks)?;
    let n_max = admission_limit(&cfg, tr)?;
    // Cache-aware admission inflates N_max to N_max / (1 - h (1 - safety))
    // for a measured avoidance ratio h < 1, capped at 8 N_max: the limit
    // can approach but never reach N_max / safety.
    let limit = match cache {
        None => n_max,
        Some((capacity_bytes, safety)) => {
            cfg.cache = Some(CacheSettings {
                capacity_bytes,
                policy: CachePolicy::Lru,
                admission_safety: Some(safety),
            });
            (f64::from(n_max) / safety)
                .min(8.0 * f64::from(n_max))
                .floor() as u32
        }
    };
    let (_, g, _) = glitch_target(&cfg)?;
    let target = cfg.target;
    let (catalog, zipf) = catalog(w)?;
    let mut arrivals = StdRng::seed_from_u64(seed ^ ARRIVAL_MASK);
    let mut server = tr.time("server.new", || VideoServer::new(cfg, seed))?;
    tr.time("slo.enable", || {
        server.enable_slo(SloSettings::for_target(target))
    })?;
    let mut o = Outcome {
        rounds,
        g,
        limit,
        ..Outcome::default()
    };
    let mut submit = |server: &mut VideoServer, o: &mut Outcome, tr: &mut Tracer| {
        let object = catalog[zipf.sample(&mut arrivals)].clone();
        o.submissions += 1;
        if tr
            .time("server.enqueue", || server.enqueue_stream(object))
            .is_some()
        {
            o.admissions += 1;
        }
    };
    for _ in 0..w.viewers.unwrap_or(0) {
        submit(&mut server, &mut o, tr);
    }
    tr.exit();
    let mut t = Timing {
        setup_s: t0.elapsed().as_secs_f64(),
        round_s: Vec::with_capacity(rounds as usize),
        ..Timing::default()
    };

    start_profile(traced);
    tr.enter("workload.rounds");
    for _ in 0..rounds {
        o.stream_rounds += server.active_streams() as u64;
        o.wait_sum += server.waiting_streams() as u64;
        o.live_disk_rounds += u64::from(disks);
        let load = server.per_disk_load().into_iter().max().unwrap_or(0);
        o.max_disk_load = o.max_disk_load.max(load);
        let start = Instant::now();
        let report = tr.time("server.run_round", || server.run_round());
        t.round_s.push(start.elapsed().as_secs_f64());
        o.glitches += report.glitched_streams.len() as u64;
        o.admissions += report.admitted_from_queue.len() as u64;
        o.disk_rounds += report.disks.len() as u64;
        o.late_disk_rounds += report.disks.iter().filter(|d| d.late).count() as u64;
        for _ in &report.completed_streams {
            o.completions += 1;
            submit(&mut server, &mut o, tr);
        }
    }
    tr.exit();
    t.phases = stop_profile(traced);
    let load = server.per_disk_load().into_iter().max().unwrap_or(0);
    o.max_disk_load = o.max_disk_load.max(load);

    let completed = server.completed_streams();
    if completed.len() as u64 != o.completions {
        o.accounting_errors.push(format!(
            "completed streams: {} reported by the server, {} summed from rounds",
            completed.len(),
            o.completions
        ));
    }
    o.over_budget = completed.iter().filter(|c| c.glitches >= g).count() as u64;
    o.rejections = server.rejected_streams();
    if let Some(cache) = server.cache() {
        let stats = cache.stats();
        o.cache_lookups = stats.lookups();
        o.cache_hits = stats.hits + stats.delayed_hits;
        o.cache_evictions = stats.evictions;
        o.cache_rejected_fills = stats.rejected_fills;
    }
    o.drift_alarms = server.slo_status().map_or(0, |s| s.drifts_raised);
    Ok((o, t))
}

#[allow(clippy::too_many_lines)]
fn fleet_episode(
    w: &Workload,
    shape: &FleetShape,
    seed: u64,
    rounds: u64,
    tr: &mut Tracer,
    traced: bool,
) -> Result<(Outcome, Timing)> {
    let t0 = Instant::now();
    tr.enter("workload.setup");
    let mut cfg = ClusterConfig::paper_reference(shape.nodes, shape.disks)?;
    let mut creep_onset = None;
    if let Some(gray) = shape.gray_node {
        let faults = mzd_fault::FaultConfig::parse(GRAY_PROFILE)?;
        if let mzd_fault::GrayDegradation::Creep { start, .. } = faults.profile.gray {
            creep_onset = Some(start);
        }
        cfg.node.faults = Some(faults);
        cfg.gray_node = gray;
    }
    // Timed as `core.admission` on every workload; a fleet enforces the
    // composed n* instead, which `Cluster::new` derives.
    admission_limit(&cfg.node, tr)?;
    tr.enter("cluster.new");
    let mut fleet = Cluster::new(cfg, seed)?;
    tr.time("cluster.enable_health", || {
        fleet.enable_health(HealthConfig::default())
    })?;
    if shape.tracing {
        tr.time("cluster.enable_tracing", || fleet.enable_tracing())?;
    }
    tr.exit();
    let guarantee = fleet.guarantee().clone();
    let (catalog, zipf) = catalog(w)?;
    let mut arrivals = StdRng::seed_from_u64(seed ^ ARRIVAL_MASK);
    let mut o = Outcome {
        rounds,
        g: guarantee.g,
        limit: guarantee.n_star,
        ..Outcome::default()
    };
    let mut submit = |fleet: &mut Cluster, o: &mut Outcome, tr: &mut Tracer| -> Result<()> {
        let object = catalog[zipf.sample(&mut arrivals)].clone();
        o.submissions += 1;
        if let SubmitOutcome::Rejected { .. } =
            tr.time("cluster.submit", || fleet.submit(object))?
        {
            o.rejections += 1;
        }
        Ok(())
    };
    for _ in 0..w.viewers.unwrap_or(guarantee.fleet_capacity) {
        submit(&mut fleet, &mut o, tr)?;
    }
    tr.exit();
    let mut t = Timing {
        setup_s: t0.elapsed().as_secs_f64(),
        round_s: Vec::with_capacity(rounds as usize),
        ..Timing::default()
    };

    let mut health_before = vec![NodeHealth::Healthy; shape.nodes as usize];
    start_profile(traced);
    tr.enter("workload.rounds");
    for round in 0..rounds {
        o.stream_rounds += fleet.active_streams() as u64;
        o.wait_sum += fleet.waiting() as u64;
        let status = fleet.status();
        let ejected = fleet.health_status().map_or(0, |h| h.ejected_nodes);
        o.live_disk_rounds += u64::from(status.live_nodes.saturating_sub(ejected) * shape.disks);
        for i in 0..shape.nodes {
            let load = fleet.node(i).server().per_disk_load().into_iter().max();
            o.max_disk_load = o.max_disk_load.max(load.unwrap_or(0));
        }
        let start = Instant::now();
        let report = tr.time("cluster.run_round", || fleet.run_round());
        t.round_s.push(start.elapsed().as_secs_f64());
        o.glitches += report.glitched_streams + report.outage_glitches;
        o.admissions += report.admitted;
        o.migrations += report.migrations.len() as u64;
        o.late_disk_rounds += u64::from(report.late_disks);
        o.disk_rounds += report
            .node_service_times
            .iter()
            .map(Vec::len)
            .sum::<usize>() as u64;
        for (i, before) in health_before.iter_mut().enumerate() {
            let now = fleet.node_health(i as u32).unwrap_or(NodeHealth::Healthy);
            if shape.gray_node == Some(i as u32) {
                if let (None, Some(onset), true) =
                    (o.detect_rounds, creep_onset, now != NodeHealth::Healthy)
                {
                    o.detect_rounds = Some(round.saturating_sub(onset));
                }
            } else if *before == NodeHealth::Healthy && now == NodeHealth::Probation {
                o.false_probations += 1;
            }
            *before = now;
        }
        for _ in &report.completed {
            o.completions += 1;
            submit(&mut fleet, &mut o, tr)?;
        }
        if shape.scrape && (round + 1) % SCRAPE_EVERY == 0 {
            let sketches = tr.time("obs.render", || fleet.sketches().render_prom());
            let registry = tr.time("telemetry.render", || {
                mzd_telemetry::prom::render(mzd_telemetry::global())
            });
            t.obs_bytes = black_box(sketches).len();
            t.telemetry_bytes = black_box(registry).len();
        }
    }
    tr.exit();
    t.phases = stop_profile(traced);
    for i in 0..shape.nodes {
        let load = fleet.node(i).server().per_disk_load().into_iter().max();
        o.max_disk_load = o.max_disk_load.max(load.unwrap_or(0));
    }

    let status = fleet.status();
    for (what, program, harness) in [
        ("glitches", status.total_glitches, o.glitches),
        ("completed streams", status.completed as u64, o.completions),
        ("migrations", status.migrations, o.migrations),
    ] {
        if program != harness {
            o.accounting_errors.push(format!(
                "{what}: {program} reported by the fleet, {harness} summed from rounds"
            ));
        }
    }
    o.over_budget = fleet
        .completed()
        .iter()
        .filter(|c| c.glitches >= guarantee.g)
        .count() as u64;
    if let Some(h) = fleet.health_status() {
        o.probations = h.probations;
        o.ejections = h.ejections;
        o.hedges_issued = h.hedges_issued;
        o.hedges_won = h.hedges_won;
    }
    if shape.tracing {
        let json = tr
            .time("trace.export", || fleet.trace_chrome_json())
            .ok_or("tracing was enabled but no trace was exported")?;
        t.trace_bytes = json.len();
        if traced {
            t.trace_spans = json.matches("\"ph\":\"X\"").count();
            t.trace_dropped = (0..shape.nodes)
                .map(|i| fleet.node(i).server().trace_dropped())
                .sum();
        }
        black_box(json);
    }
    Ok((o, t))
}
