//! Command execution: each function renders its result as plain text
//! (returned, not printed, so it is unit-testable).

use crate::args::{Command, Parsed, USAGE};
use crate::CliError;
use mzd_core::{GuaranteeModel, WorstCaseRate, ZoneHandling};
use mzd_disk::{profiles, Disk, DiskProfile};
use mzd_sim::{estimate_p_late_par, SimConfig};
use mzd_workload::{ObjectSpec, SizeDistribution, Zipf};
use std::fmt::Write as _;

/// Execute a parsed command line, returning the text to print.
///
/// # Errors
/// [`CliError`] for usage problems or model failures.
pub fn run(parsed: &Parsed) -> Result<String, CliError> {
    // `--jobs N` caps the worker pool for every parallel phase behind
    // this command (solver scans, CDF grids, sweep points, simulation
    // replications). 0 — and the flag's absence — means "all hardware
    // threads". Scientific output is byte-identical for any value.
    let jobs = usize::try_from(parsed.u64_or("jobs", 0)?)
        .map_err(|_| CliError::Usage("--jobs is too large".into()))?;
    mzd_par::set_jobs(jobs);
    match parsed.command {
        Command::Help => Ok(format!("{USAGE}\n")),
        Command::Disks => Ok(list_disks()),
        Command::AnalyzeTrace => analyze_trace(parsed),
        Command::Nmax => nmax(parsed),
        Command::PLate => p_late(parsed),
        Command::Table => table(parsed),
        Command::Simulate => simulate(parsed),
        Command::Serve => serve(parsed),
        Command::Plan => plan(parsed),
        Command::WorstCase => worst_case(parsed),
        Command::Report => report(parsed),
        Command::Postmortem => crate::postmortem::run(parsed),
    }
}

pub(crate) fn profile_by_name(name: &str) -> Result<DiskProfile, CliError> {
    match name {
        "viking" => Ok(profiles::quantum_viking_2_1()),
        "single75" => Ok(profiles::single_zone_75kb()),
        "legacy" => Ok(profiles::legacy_single_zone()),
        "nextgen" => Ok(profiles::next_generation()),
        "synthetic2to1" => Ok(profiles::synthetic_two_to_one()),
        other => Err(CliError::Usage(format!(
            "unknown disk profile `{other}` (try `mzd disks`)"
        ))),
    }
}

fn disk_of(parsed: &Parsed) -> Result<Disk, CliError> {
    Ok(profile_by_name(parsed.str_or("disk", "viking"))?.build()?)
}

fn model_of(parsed: &Parsed) -> Result<GuaranteeModel, CliError> {
    let mean = parsed.f64_or("mean", 200_000.0)?;
    let sd = parsed.f64_or("sd", 100_000.0)?;
    Ok(GuaranteeModel::new(
        disk_of(parsed)?,
        mean,
        sd * sd,
        ZoneHandling::Discrete,
    )?)
}

fn list_disks() -> String {
    let mut out = String::from("built-in drive profiles:\n");
    for (key, p) in [
        ("viking", profiles::quantum_viking_2_1()),
        ("single75", profiles::single_zone_75kb()),
        ("legacy", profiles::legacy_single_zone()),
        ("nextgen", profiles::next_generation()),
        ("synthetic2to1", profiles::synthetic_two_to_one()),
    ] {
        let d = p.build().expect("built-in profiles are valid");
        let _ = writeln!(
            out,
            "  {key:<14} {:<36} {:>5} cyl, {:>2} zones, {:.2}-{:.2} MB/s",
            p.name,
            d.cylinders(),
            d.zone_count(),
            d.min_rate() / 1e6,
            d.max_rate() / 1e6,
        );
    }
    out
}

fn analyze_trace(parsed: &Parsed) -> Result<String, CliError> {
    let path = parsed.str_or("file", "");
    if path.is_empty() {
        return Err(CliError::Usage("analyze-trace needs --file PATH".into()));
    }
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Execution(format!("cannot read {path}: {e}")))?;
    let trace =
        mzd_workload::Trace::parse(&text).map_err(|e| CliError::Execution(e.to_string()))?;
    let delta = parsed.f64_or("delta", 0.01)?;
    let disk = disk_of(parsed)?;
    let model = GuaranteeModel::new(
        disk,
        trace.mean(),
        trace.variance().max(1.0),
        ZoneHandling::Discrete,
    )?;
    let t = trace.display_time();
    let n_max = model.n_max_late(t, delta)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace {path}: {} fragments, {:.1} s of media",
        trace.len(),
        trace.duration()
    );
    let _ = writeln!(
        out,
        "  fragment size: mean {:.0} B, sd {:.0} B, peak {:.0} B, p99 {:.0} B",
        trace.mean(),
        trace.variance().sqrt(),
        trace.peak(),
        trace.quantile(0.99)
    );
    let _ = writeln!(
        out,
        "  mean bandwidth: {:.2} Mbit/s; lag-1 autocorrelation: {:.3}",
        trace.mean_bandwidth_bits() / 1e6,
        trace.lag1_autocorrelation()
    );
    if trace.lag1_autocorrelation() > 0.5 {
        let _ = writeln!(
            out,
            "  warning: strong temporal correlation — the per-stream binomial\n               guarantee (eq. 3.3.4) is optimistic for this trace; see the\n               ablate-corr experiment"
        );
    }
    let _ = writeln!(
        out,
        "  admission: N_max = {n_max} streams/disk at p_late <= {delta}          (round = display time = {t} s)"
    );
    Ok(out)
}

fn nmax(parsed: &Parsed) -> Result<String, CliError> {
    let model = model_of(parsed)?;
    let t = parsed.f64_or("round", 1.0)?;
    let mut out = String::new();
    if parsed.has("m") || parsed.has("g") || parsed.has("epsilon") {
        let m = parsed.u64_or("m", 1200)?;
        let g = parsed.u64_or("g", 12)?;
        let eps = parsed.f64_or("epsilon", 0.01)?;
        let n = model.n_max_error(t, m, g, eps)?;
        let _ = writeln!(
            out,
            "N_max = {n} streams/disk  (target: <= {g} glitches in {m} rounds \
             with probability >= {:.2}%)",
            100.0 * (1.0 - eps)
        );
    } else {
        let delta = parsed.f64_or("delta", 0.01)?;
        let n = model.n_max_late(t, delta)?;
        let _ = writeln!(
            out,
            "N_max = {n} streams/disk  (target: p_late <= {delta} per round)"
        );
    }
    Ok(out)
}

fn p_late(parsed: &Parsed) -> Result<String, CliError> {
    let model = model_of(parsed)?;
    let t = parsed.f64_or("round", 1.0)?;
    let n = u32::try_from(parsed.u64_required("n")?)
        .map_err(|_| CliError::Usage("--n is too large".into()))?;
    let bound = model.p_late_bound(n, t)?;
    let estimate = model.p_late_estimate(n, t)?;
    let svc = model.round_service(n)?;
    let mut out = String::new();
    let _ = writeln!(out, "round of {n} requests, t = {t} s:");
    let _ = writeln!(out, "  mean service time:     {:.4} s", svc.mean());
    let _ = writeln!(
        out,
        "  service-time std dev:  {:.4} s",
        svc.variance().sqrt()
    );
    let _ = writeln!(out, "  p_late (Chernoff bound):     {bound:.6}");
    let _ = writeln!(out, "  p_late (saddlepoint estimate): {estimate:.6}");
    Ok(out)
}

fn table(parsed: &Parsed) -> Result<String, CliError> {
    let model = model_of(parsed)?;
    let t = parsed.f64_or("round", 1.0)?;
    let thresholds = parsed.f64_list_or("thresholds", &[0.001, 0.005, 0.01, 0.05, 0.1])?;
    let table = model.admission_table_late(t, &thresholds)?;
    let mut out = String::from("admission lookup table (per-round overrun tolerance):\n");
    let _ = writeln!(out, "  delta      N_max");
    for (d, n) in table.rows() {
        let _ = writeln!(out, "  {d:<9} {n}");
    }
    Ok(out)
}

fn simulate(parsed: &Parsed) -> Result<String, CliError> {
    let t = parsed.f64_or("round", 1.0)?;
    let mean = parsed.f64_or("mean", 200_000.0)?;
    let sd = parsed.f64_or("sd", 100_000.0)?;
    let n = u32::try_from(parsed.u64_required("n")?)
        .map_err(|_| CliError::Usage("--n is too large".into()))?;
    let rounds = parsed.u64_or("rounds", 10_000)?;
    let seed = parsed.u64_or("seed", 42)?;
    let reps = u32::try_from(parsed.u64_or("reps", 1)?)
        .map_err(|_| CliError::Usage("--reps is too large".into()))?
        .max(1);
    let faults = match parsed.str_opt("faults") {
        None => None,
        Some(spec) => Some(
            mzd_fault::FaultConfig::parse(spec)
                .map_err(|e| CliError::Usage(format!("--faults: {e}")))?,
        ),
    };
    let cfg = SimConfig {
        disk: disk_of(parsed)?,
        sizes: SizeDistribution::gamma(mean, sd * sd)
            .map_err(|e| CliError::Execution(e.to_string()))?,
        round_length: t,
        faults,
        ..SimConfig::paper_reference()?
    };
    let est = estimate_p_late_par(&cfg, n, rounds, reps, seed)?;
    let bound = model_of(parsed)?.p_late_bound(n, t)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "simulated {rounds} rounds at N = {n}, t = {t} s (seed {seed}, {reps} replication{}):",
        if reps == 1 { "" } else { "s" }
    );
    let _ = writeln!(
        out,
        "  p_late = {:.5}  (95% CI [{:.5}, {:.5}], {} late rounds)",
        est.p_late, est.ci.lo, est.ci.hi, est.late_rounds
    );
    let _ = writeln!(
        out,
        "  service time: mean {:.4} s, max {:.4} s",
        est.mean_service_time, est.max_service_time
    );
    let _ = writeln!(out, "  analytic Chernoff bound: {bound:.5}");
    if let Some(spec) = parsed.str_opt("faults") {
        let _ = writeln!(
            out,
            "  fault profile: {spec} (bound does not price injected faults)"
        );
    }
    Ok(out)
}

/// Every flag `serve` reads in either mode, besides the execution and
/// observability flags every command takes.
const SERVE_FLAGS: [&str; 27] = [
    "disk",
    "disks",
    "nodes",
    "streams",
    "rounds",
    "seed",
    "mean",
    "sd",
    "round",
    "objects",
    "object-rounds",
    "zipf",
    "cache-bytes",
    "cache-policy",
    "cache-safety",
    "fault-profile",
    "work-ahead",
    "degrade",
    "slo",
    "trace-out",
    "postmortem-dir",
    "recorder-capacity",
    "dump-on-exit",
    "profile-out",
    "lease-rounds",
    "gray-node",
    "health",
];

/// Flags only a fleet (`--nodes N > 1`) can honour.
const FLEET_ONLY_FLAGS: [&str; 3] = ["health", "gray-node", "lease-rounds"];

/// Flags only a single node can honour: fleet nodes run their own SLO
/// monitors only under `--degrade`.
const NODE_ONLY_FLAGS: [&str; 1] = ["slo"];

/// Build the per-server configuration the `serve` flags describe — the
/// single node itself, or the per-node template of a fleet.
fn serve_server_config(parsed: &Parsed, disks: u32) -> Result<mzd_server::ServerConfig, CliError> {
    let mean = parsed.f64_or("mean", 200_000.0)?;
    let sd = parsed.f64_or("sd", 100_000.0)?;
    let mut cfg = mzd_server::ServerConfig::paper_reference(disks)
        .map_err(|e| CliError::Execution(e.to_string()))?;
    cfg.disk = disk_of(parsed)?;
    cfg.round_length = parsed.f64_or("round", 1.0)?;
    cfg.admission_size_mean = mean;
    cfg.admission_size_variance = sd * sd;
    if parsed.has("cache-bytes") || parsed.has("cache-policy") || parsed.has("cache-safety") {
        let policy = mzd_cache::CachePolicy::parse(parsed.str_or("cache-policy", "lru"))
            .map_err(|e| CliError::Usage(e.to_string()))?;
        let admission_safety = match parsed.str_opt("cache-safety") {
            None => None,
            Some(_) => Some(parsed.f64_or("cache-safety", 0.2)?),
        };
        cfg.cache = Some(mzd_server::CacheSettings {
            capacity_bytes: parsed.f64_or("cache-bytes", 0.0)?,
            policy,
            admission_safety,
        });
    }
    if let Some(spec) = parsed.str_opt("fault-profile") {
        cfg.faults = Some(
            mzd_fault::FaultConfig::parse(spec)
                .map_err(|e| CliError::Usage(format!("--fault-profile: {e}")))?,
        );
    }
    cfg.work_ahead = u32::try_from(parsed.u64_or("work-ahead", 0)?)
        .map_err(|_| CliError::Usage("--work-ahead is too large".into()))?;
    if parsed.has("degrade") {
        cfg.degrade = Some(mzd_server::DegradeSettings::default());
    }
    Ok(cfg)
}

/// Build the Zipf object catalog the `serve` flags describe.
fn serve_catalog(parsed: &Parsed) -> Result<(Vec<ObjectSpec>, Zipf), CliError> {
    let objects = usize::try_from(parsed.u64_or("objects", 16)?)
        .map_err(|_| CliError::Usage("--objects is too large".into()))?;
    let object_rounds = u32::try_from(parsed.u64_or("object-rounds", 600)?)
        .map_err(|_| CliError::Usage("--object-rounds is too large".into()))?;
    let skew = parsed.f64_or("zipf", 0.0)?;
    let mean = parsed.f64_or("mean", 200_000.0)?;
    let sd = parsed.f64_or("sd", 100_000.0)?;
    let sizes =
        SizeDistribution::gamma(mean, sd * sd).map_err(|e| CliError::Execution(e.to_string()))?;
    let catalog: Vec<ObjectSpec> = (0..objects)
        .map(|i| {
            ObjectSpec::new(format!("obj-{i}"), sizes.clone(), object_rounds)
                .map(|o| o.with_content_id(i as u64 + 1))
                .map_err(|e| CliError::Execution(e.to_string()))
        })
        .collect::<Result<_, _>>()?;
    let zipf =
        Zipf::new(catalog.len(), skew).map_err(|e| CliError::Usage(format!("--zipf: {e}")))?;
    Ok((catalog, zipf))
}

/// What `serve` drives: the paper's single node, or (`--nodes N > 1`)
/// a sharded fleet of them behind one dispatcher.
enum Host {
    Node(Box<mzd_server::VideoServer>),
    Fleet(Box<mzd_cluster::Cluster>),
}

/// Per-round totals the `serve` report prints.
#[derive(Default)]
struct Tally {
    stream_rounds: u64,
    /// Glitches on the hosts' own disks (a fleet adds outage glitches).
    glitches: u64,
    completions: u64,
    /// Requests a fleet at its composed capacity refused.
    rejected: u64,
    migrated: u64,
    late_disks: u64,
    /// Rounds in which at least one fleet node was declared failed.
    failures: Vec<u64>,
}

impl Host {
    fn active_streams(&self) -> usize {
        match self {
            Host::Node(server) => server.active_streams(),
            Host::Fleet(fleet) => fleet.active_streams(),
        }
    }

    /// Offer one request. A single node queues whatever it cannot admit
    /// yet; a fleet refuses requests beyond its composed capacity.
    fn offer(&mut self, object: ObjectSpec, tally: &mut Tally) {
        match self {
            Host::Node(server) => {
                server.enqueue_stream(object);
            }
            Host::Fleet(fleet) => {
                if let Ok(mzd_cluster::SubmitOutcome::Rejected { .. }) = fleet.submit(object) {
                    tally.rejected += 1;
                }
            }
        }
    }

    /// Run one round; returns how many streams finished play-out.
    fn run_round(&mut self, tally: &mut Tally) -> usize {
        match self {
            Host::Node(server) => {
                let report = server.run_round();
                tally.glitches += report.glitched_streams.len() as u64;
                report.completed_streams.len()
            }
            Host::Fleet(fleet) => {
                let report = fleet.run_round();
                tally.glitches += report.glitched_streams;
                tally.migrated += report.migrations.len() as u64;
                tally.late_disks += u64::from(report.late_disks);
                if !report.failed_nodes.is_empty() {
                    tally.failures.push(report.round);
                }
                report.completed.len()
            }
        }
    }

    /// Hand a fleet's node-labeled sketch series to the `--prom-out`
    /// writer; they live on the cluster, not in the global registry.
    fn publish_prom_appendix(&self) {
        if let Host::Fleet(fleet) = self {
            crate::telemetry::set_prom_appendix(fleet.sketches().render_prom());
        }
    }
}

/// `mzd serve`: one node of `--disks` disks, or with `--nodes N > 1` a
/// fleet of N such nodes (consistent-hash placement, lease-timeout
/// failure detection, the paper guarantee composed fleet-wide), under a
/// constant offered load drawn from a Zipf catalog.
fn serve(parsed: &Parsed) -> Result<String, CliError> {
    use rand::{rngs::StdRng, SeedableRng};

    parsed.reject_unknown("serve", &SERVE_FLAGS)?;
    let disks = u32::try_from(parsed.u64_or("disks", 1)?)
        .map_err(|_| CliError::Usage("--disks is too large".into()))?;
    let nodes = u32::try_from(parsed.u64_or("nodes", 1)?)
        .map_err(|_| CliError::Usage("--nodes is too large".into()))?;
    let (unsupported, mode) = if nodes > 1 {
        (&NODE_ONLY_FLAGS[..], "a fleet (--nodes N > 1)")
    } else {
        (
            &FLEET_ONLY_FLAGS[..],
            "a single node (it needs --nodes N > 1)",
        )
    };
    if let Some(flag) = unsupported.iter().find(|f| parsed.has(f)) {
        return Err(CliError::Usage(format!(
            "--{flag} is not supported on {mode}"
        )));
    }
    let rounds = parsed.u64_or("rounds", 1200)?;
    let seed = parsed.u64_or("seed", 42)?;
    let lease_rounds = u32::try_from(parsed.u64_or("lease-rounds", 3)?)
        .map_err(|_| CliError::Usage("--lease-rounds is too large".into()))?;
    let cfg = serve_server_config(parsed, disks)?;
    let (catalog, zipf) = serve_catalog(parsed)?;

    let mut host = if nodes > 1 {
        let mut fleet_cfg = mzd_cluster::ClusterConfig::paper_reference(nodes, disks)
            .map_err(|e| CliError::Execution(e.to_string()))?;
        fleet_cfg.node = cfg;
        fleet_cfg.lease_rounds = lease_rounds;
        fleet_cfg.gray_node = u32::try_from(parsed.u64_or("gray-node", 0)?)
            .map_err(|_| CliError::Usage("--gray-node is too large".into()))?;
        let mut fleet = mzd_cluster::Cluster::new(fleet_cfg, seed)
            .map_err(|e| CliError::Execution(e.to_string()))?;
        if parsed.has("health") {
            fleet
                .enable_health(mzd_health::HealthConfig::default())
                .map_err(|e| CliError::Execution(e.to_string()))?;
        }
        // Cross-node trace stitching: one root span per stream at the
        // dispatcher, adopted by every host it migrates across.
        if parsed.has("trace-out") {
            fleet
                .enable_tracing()
                .map_err(|e| CliError::Execution(e.to_string()))?;
        }
        Host::Fleet(Box::new(fleet))
    } else {
        // The degradation ladder is driven by the burn-rate alert, so
        // `--degrade` implies the SLO layer (like `--trace-out` does).
        let slo_enabled = parsed.has("slo") || parsed.has("trace-out") || parsed.has("degrade");
        let target = cfg.target;
        let mut server = mzd_server::VideoServer::new(cfg, seed)
            .map_err(|e| CliError::Execution(e.to_string()))?;
        if slo_enabled {
            let settings =
                mzd_server::SloSettings::for_target(target).with_tracing(parsed.has("trace-out"));
            server
                .enable_slo(settings)
                .map_err(|e| CliError::Execution(e.to_string()))?;
        }
        Host::Node(Box::new(server))
    };
    // Default offered load: a node's paper limit, or the fleet's
    // composed capacity — the largest population its guarantee covers.
    let streams = match &host {
        Host::Node(_) => parsed.u64_or("streams", 28)?,
        Host::Fleet(fleet) => parsed.u64_or("streams", fleet.guarantee().fleet_capacity)?,
    };

    if let Some(dir) = parsed.str_opt("postmortem-dir") {
        let capacity = usize::try_from(parsed.u64_or("recorder-capacity", 64)?)
            .map_err(|_| CliError::Usage("--recorder-capacity is too large".into()))?;
        let mut settings = mzd_prof::RecorderSettings::new(dir);
        settings.capacity = capacity.max(1);
        // Enough provenance for `mzd postmortem` to rebuild the analytic
        // model and rerun the exact configuration.
        let mut echo = vec![
            ("disk".into(), parsed.str_or("disk", "viking").into()),
            ("disks".into(), disks.to_string()),
        ];
        if let Host::Fleet(_) = host {
            echo.push(("nodes".into(), nodes.to_string()));
            echo.push(("lease_rounds".into(), lease_rounds.to_string()));
        }
        echo.extend([
            (
                "mean".into(),
                format!("{}", parsed.f64_or("mean", 200_000.0)?),
            ),
            ("sd".into(), format!("{}", parsed.f64_or("sd", 100_000.0)?)),
            ("round".into(), format!("{}", parsed.f64_or("round", 1.0)?)),
            ("seed".into(), seed.to_string()),
            ("streams".into(), streams.to_string()),
            ("rounds".into(), rounds.to_string()),
            (
                "fault_profile".into(),
                parsed.str_or("fault-profile", "").into(),
            ),
        ]);
        settings.config_echo = echo;
        match &mut host {
            Host::Node(server) => {
                let recorder = mzd_prof::Recorder::new(settings);
                mzd_prof::install_panic_hook(recorder.clone());
                server.attach_recorder(recorder);
            }
            // Correlated fleet postmortems: per-node recorders under
            // `DIR/node-{i}/` plus the fleet manifest the triggers write.
            Host::Fleet(fleet) => fleet.attach_recorders(&settings),
        }
    }
    let profiling = parsed.has("profile-out");
    if profiling {
        mzd_prof::reset_profile();
        mzd_prof::set_profiling(true);
    }

    // The request-arrival RNG is deliberately separate from the server's
    // seeded RNG so admission order does not perturb fragment sampling.
    let mut arrivals = StdRng::seed_from_u64(seed ^ 0x5EED_CA7A_0A11_0C8D);
    let mut tally = Tally::default();
    for _ in 0..streams {
        host.offer(catalog[zipf.sample(&mut arrivals)].clone(), &mut tally);
    }
    for _ in 0..rounds {
        tally.stream_rounds += host.active_streams() as u64;
        let completed = host.run_round(&mut tally);
        // Constant offered load: every play-out completion re-draws a
        // fresh request from the popularity law.
        for _ in 0..completed {
            tally.completions += 1;
            host.offer(catalog[zipf.sample(&mut arrivals)].clone(), &mut tally);
        }
        // Live exposition: a scraper (or textfile collector) pointed at
        // the file sees the registry as of the latest completed round.
        if let Some(path) = parsed.str_opt("prom-out") {
            host.publish_prom_appendix();
            std::fs::write(path, crate::telemetry::render_prom())
                .map_err(|e| CliError::Execution(format!("cannot write {path}: {e}")))?;
        }
    }
    if profiling {
        mzd_prof::set_profiling(false);
    }
    // Keep the appendix current for the exit-time `--prom-out` write.
    host.publish_prom_appendix();
    if parsed.has("dump-on-exit") {
        match &mut host {
            Host::Node(server) => {
                if let Some(rec) = server.recorder() {
                    rec.trigger_dump(mzd_prof::DumpTrigger::Manual)
                        .map_err(|e| CliError::Execution(format!("postmortem dump failed: {e}")))?;
                }
            }
            Host::Fleet(fleet) => {
                fleet.trigger_fleet_dump(mzd_prof::DumpTrigger::Manual);
            }
        }
    }

    let mut out = String::new();
    match &host {
        Host::Node(server) => {
            let _ = writeln!(
                out,
                "served {rounds} rounds on {disks} disk(s) (seed {seed}):"
            );
            let _ = writeln!(
                out,
                "  catalog: {} objects x {} rounds, Zipf skew {}",
                catalog.len(),
                catalog[0].rounds,
                zipf.skew()
            );
            node_report(&mut out, server, parsed, &tally);
        }
        Host::Fleet(fleet) => {
            let _ = writeln!(
                out,
                "served {rounds} rounds on a {nodes}-node fleet ({disks} disk(s)/node, seed {seed}):"
            );
            fleet_report(&mut out, fleet, &tally);
        }
    }
    if let Some(path) = parsed.str_opt("trace-out") {
        let (json, spans) = match &host {
            Host::Node(server) => (
                server.trace_chrome_json(),
                server.slo_status().map_or(0, |s| s.trace_spans).to_string(),
            ),
            Host::Fleet(fleet) => {
                let json = fleet.trace_chrome_json();
                let spans = json
                    .as_ref()
                    .map_or(0, |j| j.matches("\"ph\":\"X\"").count());
                (json, format!("{spans} stitched"))
            }
        };
        let json = json.ok_or_else(|| CliError::Execution("tracing was not enabled".into()))?;
        std::fs::write(path, json)
            .map_err(|e| CliError::Execution(format!("cannot write {path}: {e}")))?;
        let _ = writeln!(out, "  trace: {spans} span(s) -> {path}");
    }
    if let Some(path) = parsed.str_opt("profile-out") {
        let folded = mzd_prof::collapsed();
        std::fs::write(path, &folded)
            .map_err(|e| CliError::Execution(format!("cannot write {path}: {e}")))?;
        let _ = writeln!(
            out,
            "  profile: {} stack(s) -> {path}",
            folded.lines().count()
        );
    }
    if parsed.has("postmortem-dir") {
        let (dumps, no_dump) = match &host {
            Host::Node(server) => {
                let recorder = server.recorder();
                (
                    recorder.map(mzd_prof::Recorder::dumps).unwrap_or_default(),
                    format!(
                        "no dump triggered ({} round(s) retained)",
                        recorder.map_or(0, mzd_prof::Recorder::len)
                    ),
                )
            }
            Host::Fleet(fleet) => (
                fleet.fleet_dumps().to_vec(),
                "no fleet dump triggered".to_string(),
            ),
        };
        if dumps.is_empty() {
            let _ = writeln!(out, "  postmortem: {no_dump}");
        }
        for (trigger, path) in dumps {
            let _ = writeln!(
                out,
                "  postmortem: {} -> {}",
                trigger.as_str(),
                path.display()
            );
        }
    }
    Ok(out)
}

fn glitch_rate(glitches: u64, stream_rounds: u64) -> f64 {
    if stream_rounds == 0 {
        0.0
    } else {
        glitches as f64 / stream_rounds as f64
    }
}

/// The single-node report body: admission, cache, faults, degradation
/// and SLO state.
fn node_report(out: &mut String, server: &mzd_server::VideoServer, parsed: &Parsed, tally: &Tally) {
    let adm = server.admission();
    if adm.is_cache_aware() {
        let _ = writeln!(
            out,
            "  admission: {} streams/disk (base {}, cache-aware)",
            adm.effective_per_disk_limit(),
            adm.per_disk_limit()
        );
    } else {
        let _ = writeln!(out, "  admission: {} streams/disk", adm.per_disk_limit());
    }
    let _ = writeln!(
        out,
        "  streams: {} active, {} waiting, {} completed play-out",
        server.active_streams(),
        server.waiting_streams(),
        tally.completions
    );
    let _ = writeln!(
        out,
        "  glitches: {} in {} stream-rounds (rate {:.5})",
        tally.glitches,
        tally.stream_rounds,
        glitch_rate(tally.glitches, tally.stream_rounds)
    );
    if let Some(cache) = server.cache() {
        let stats = cache.stats();
        let _ = writeln!(
            out,
            "  cache: {} policy, {:.1} MB capacity, {:.1} MB resident ({} fragments)",
            cache.config().policy.name(),
            cache.capacity_bytes() / 1e6,
            cache.occupancy_bytes() / 1e6,
            cache.len()
        );
        let _ = writeln!(
            out,
            "  cache traffic: {} hits, {} delayed hits, {} misses ({:.1}% of lookups avoided disk)",
            stats.hits,
            stats.delayed_hits,
            stats.misses,
            100.0 * stats.disk_avoidance_ratio()
        );
        let _ = writeln!(
            out,
            "  cache churn: {} insertions, {} evictions, {} rejected fills",
            stats.insertions, stats.evictions, stats.rejected_fills
        );
    } else {
        let _ = writeln!(out, "  cache: disabled");
    }
    if let Some(spec) = parsed.str_opt("fault-profile") {
        let _ = writeln!(out, "  faults: {spec} injected");
    }
    if let Some(status) = server.degrade_status() {
        let _ = writeln!(
            out,
            "  degrade: rung {} ({} escalation(s), {} recover(y/ies), {} stream(s) shed)",
            status.rung, status.escalations, status.recoveries, status.shed_streams
        );
    }
    if let Some(status) = server.slo_status() {
        let _ = writeln!(
            out,
            "  slo: burn fast {:.2} / slow {:.2} / long {:.2}; {} alert(s), {}",
            status.burn_fast,
            status.burn_slow,
            status.burn_long,
            status.alerts_raised,
            if status.over_admission_frozen {
                "over-admission frozen"
            } else if status.alert_active {
                "alert active"
            } else {
                "healthy"
            }
        );
        let _ = writeln!(
            out,
            "  conformance: ks {:.3}, tail exceedance {:.3}, {} drift(s){}",
            status.ks_statistic,
            status.tail_exceedance,
            status.drifts_raised,
            if status.drift_active {
                " [model drift active]"
            } else {
                ""
            }
        );
    }
}

/// The fleet report body: the composed guarantee, failures and
/// migrations, health, and the merged service-time sketch.
fn fleet_report(out: &mut String, fleet: &mzd_cluster::Cluster, tally: &Tally) {
    let guarantee = fleet.guarantee();
    let status = fleet.status();
    let over_budget = fleet
        .completed()
        .iter()
        .filter(|c| c.glitches >= guarantee.g)
        .count();
    let _ = writeln!(
        out,
        "  guarantee: n* = {}/disk (single-node cap {}), lease {} rounds \
         debits {} of g = {} glitches",
        guarantee.n_star,
        guarantee.n_max_single,
        fleet.config().lease_rounds,
        guarantee.outage_rounds,
        guarantee.g,
    );
    // ε bounds each stream separately; the any-of figure is only the
    // union bound over the whole population, printed for information.
    let _ = writeln!(
        out,
        "  guarantee: p_error/stream <= {:.3e} (budget {}); \
         informational union bound p_error any-of-{} <= {:.3e}",
        guarantee.p_error_stream,
        guarantee.epsilon,
        guarantee.fleet_capacity,
        guarantee.p_error_any
    );
    let _ = writeln!(
        out,
        "  fleet: capacity {} streams ({} spare node(s)); {} live node(s) at exit",
        guarantee.fleet_capacity, guarantee.spares, status.live_nodes
    );
    let _ = writeln!(
        out,
        "  streams: {} active, {} waiting, {} completed play-out, {} rejected at capacity",
        status.active_streams, status.waiting, status.completed, tally.rejected
    );
    let _ = writeln!(
        out,
        "  glitches: {} host + {} outage in {} stream-rounds (rate {:.5}); {} late disk-rounds",
        tally.glitches,
        status.outage_glitches,
        tally.stream_rounds,
        glitch_rate(status.total_glitches, tally.stream_rounds),
        tally.late_disks
    );
    let _ = writeln!(
        out,
        "  failures: {} node failure(s){}{}; {} stream(s) migrated",
        tally.failures.len(),
        if tally.failures.is_empty() {
            String::new()
        } else {
            format!(" at round(s) {:?}", tally.failures)
        },
        if fleet.config().outages.is_empty() {
            String::new()
        } else {
            format!(" ({} scripted outage(s))", fleet.config().outages.len())
        },
        tally.migrated
    );
    let _ = writeln!(
        out,
        "  observed: {over_budget} of {} completed stream(s) exceeded the g = {} glitch budget",
        status.completed, guarantee.g
    );
    if let Some(h) = fleet.health_status() {
        let _ = writeln!(
            out,
            "  health: {} probation(s), {} ejection(s), {} readmission(s), {} clear(s); \
             {} on probation / {} ejected at exit (max suspicion {:.2})",
            h.probations,
            h.ejections,
            h.readmissions,
            h.clears,
            h.probation_nodes,
            h.ejected_nodes,
            h.max_suspicion
        );
        let _ = writeln!(
            out,
            "  health: {} hedge(s) issued, {} won ({:.4}s spare slack debited)",
            h.hedges_issued, h.hedges_won, h.hedge_slack_debited
        );
        let _ = writeln!(
            out,
            "  health: re-composed capacity {} over {} member(s) (degrade rung {}{})",
            h.recomposed.effective_capacity,
            h.recomposed.members,
            h.recomposed.degrade_rung,
            if h.recomposed.frozen {
                ", admission FROZEN"
            } else {
                ""
            }
        );
    }
    let service = fleet.sketches().merged(mzd_cluster::SKETCH_SERVICE_TIME);
    if service.count() > 0 {
        let _ = writeln!(
            out,
            "  service time: fleet p50 {:.4}s / p99 {:.4}s / p999 {:.4}s over {} disk-round(s)",
            service.quantile(0.5),
            service.quantile(0.99),
            service.quantile(0.999),
            service.count()
        );
    }
}

fn report(parsed: &Parsed) -> Result<String, CliError> {
    let events_path = parsed
        .str_opt("events")
        .ok_or_else(|| CliError::Usage("report needs --events PATH".into()))?;
    let out_path = parsed
        .str_opt("out")
        .ok_or_else(|| CliError::Usage("report needs --out PATH".into()))?;
    let events_text = std::fs::read_to_string(events_path)
        .map_err(|e| CliError::Execution(format!("cannot read {events_path}: {e}")))?;
    let metrics_text = match parsed.str_opt("metrics") {
        None => None,
        Some(path) => Some(
            std::fs::read_to_string(path)
                .map_err(|e| CliError::Execution(format!("cannot read {path}: {e}")))?,
        ),
    };
    let profile_text = match parsed.str_opt("profile") {
        None => None,
        Some(path) => Some(
            std::fs::read_to_string(path)
                .map_err(|e| CliError::Execution(format!("cannot read {path}: {e}")))?,
        ),
    };
    let html = crate::report::render(
        &events_text,
        metrics_text.as_deref(),
        profile_text.as_deref(),
        events_path,
    );
    std::fs::write(out_path, &html)
        .map_err(|e| CliError::Execution(format!("cannot write {out_path}: {e}")))?;
    Ok(format!(
        "report: {} bytes of HTML -> {out_path}\n",
        html.len()
    ))
}

fn plan(parsed: &Parsed) -> Result<String, CliError> {
    let model = model_of(parsed)?;
    let t = parsed.f64_or("round", 1.0)?;
    let m = parsed.u64_or("m", 1200)?;
    let g = parsed.u64_or("g", 12)?;
    let eps = parsed.f64_or("epsilon", 0.01)?;
    let population = u32::try_from(parsed.u64_required("population")?)
        .map_err(|_| CliError::Usage("--population is too large".into()))?;
    let per_disk = model.n_max_error(t, m, g, eps)?;
    let disks = mzd_core::planning::disks_for_population(&model, t, m, g, eps, population)?;
    let mut out = String::new();
    let _ = writeln!(out, "provisioning for {population} concurrent streams:");
    let _ = writeln!(out, "  per-disk guarantee: {per_disk} streams");
    let _ = writeln!(out, "  disks needed:       {disks}");
    let _ = writeln!(
        out,
        "  aggregate bandwidth: {:.1} Mbit/s",
        f64::from(per_disk * disks) * model.size_mean() * 8.0 / 1e6 / t
    );
    Ok(out)
}

fn worst_case(parsed: &Parsed) -> Result<String, CliError> {
    let model = model_of(parsed)?;
    let t = parsed.f64_or("round", 1.0)?;
    let pess = model.n_max_worst_case(t, 0.99, WorstCaseRate::Innermost)?;
    let opt = model.n_max_worst_case(t, 0.95, WorstCaseRate::MidRange)?;
    let stoch = model.n_max_late(t, 0.01)?;
    let mut out = String::from("deterministic worst-case admission (eq. 4.1):\n");
    let _ = writeln!(out, "  99-pct size over innermost rate: N_max^wc = {pess}");
    let _ = writeln!(out, "  95-pct size over mid rate:       N_max^wc = {opt}");
    let _ = writeln!(
        out,
        "  (stochastic guarantee at 1%:     N_max    = {stoch})"
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn run_line(line: &[&str]) -> Result<String, CliError> {
        let args: Vec<String> = line.iter().map(ToString::to_string).collect();
        run(&parse(&args)?)
    }

    #[test]
    fn help_and_disks() {
        assert!(run_line(&["help"]).unwrap().contains("usage:"));
        let disks = run_line(&["disks"]).unwrap();
        assert!(disks.contains("viking"));
        assert!(disks.contains("Quantum Viking 2.1"));
        assert!(disks.contains("nextgen"));
    }

    #[test]
    fn nmax_defaults_reproduce_paper() {
        let out = run_line(&["nmax"]).unwrap();
        assert!(out.contains("N_max = 26"), "{out}");
        let out = run_line(&["nmax", "--m", "1200", "--g", "12", "--epsilon", "0.01"]).unwrap();
        assert!(out.contains("N_max = 28"), "{out}");
    }

    #[test]
    fn plate_reports_both_tails() {
        let out = run_line(&["plate", "--n", "27"]).unwrap();
        assert!(out.contains("Chernoff"), "{out}");
        assert!(out.contains("saddlepoint"), "{out}");
        assert!(out.contains("0.014") || out.contains("0.0144"), "{out}");
    }

    #[test]
    fn plate_requires_n() {
        assert!(matches!(run_line(&["plate"]), Err(CliError::Usage(_))));
    }

    #[test]
    fn table_rows_match_thresholds() {
        let out = run_line(&["table", "--thresholds", "0.001,0.01,0.1"]).unwrap();
        assert_eq!(out.matches('\n').count(), 5, "{out}");
        assert!(out.contains("0.001"));
    }

    #[test]
    fn simulate_small_run() {
        let out = run_line(&["simulate", "--n", "20", "--rounds", "200", "--seed", "7"]).unwrap();
        assert!(out.contains("p_late"), "{out}");
        assert!(out.contains("simulated 200 rounds"), "{out}");
    }

    #[test]
    fn serve_cacheless_and_cached() {
        let out = run_line(&["serve", "--rounds", "40", "--streams", "10", "--seed", "7"]).unwrap();
        assert!(out.contains("served 40 rounds"), "{out}");
        assert!(out.contains("cache: disabled"), "{out}");
        let out = run_line(&[
            "serve",
            "--rounds",
            "40",
            "--streams",
            "10",
            "--seed",
            "7",
            "--zipf",
            "1.0",
            "--cache-bytes",
            "5e7",
        ])
        .unwrap();
        assert!(out.contains("cache: lru policy"), "{out}");
        assert!(out.contains("cache traffic:"), "{out}");
    }

    #[test]
    fn serve_zero_byte_cache_matches_cacheless_output() {
        let base =
            run_line(&["serve", "--rounds", "60", "--streams", "12", "--seed", "3"]).unwrap();
        let zeroed = run_line(&[
            "serve",
            "--rounds",
            "60",
            "--streams",
            "12",
            "--seed",
            "3",
            "--cache-bytes",
            "0",
        ])
        .unwrap();
        // Identical up to the cache-status footer: a zero-byte cache takes
        // the exact cacheless code path.
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.trim_start().starts_with("cache"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&base), strip(&zeroed));
    }

    #[test]
    fn simulate_with_faults_reports_profile_and_raises_p_late() {
        let clean = run_line(&["simulate", "--n", "26", "--rounds", "300", "--seed", "9"]).unwrap();
        let faulty = run_line(&[
            "simulate",
            "--n",
            "26",
            "--rounds",
            "300",
            "--seed",
            "9",
            "--faults",
            "media=0.05",
        ])
        .unwrap();
        assert!(faulty.contains("fault profile: media=0.05"), "{faulty}");
        let p = |s: &str| -> f64 {
            s.lines()
                .find(|l| l.contains("p_late = "))
                .and_then(|l| l.split("p_late = ").nth(1))
                .and_then(|l| l.split_whitespace().next())
                .unwrap()
                .parse()
                .unwrap()
        };
        assert!(p(&faulty) > p(&clean), "{faulty}\n{clean}");
        assert!(matches!(
            run_line(&["simulate", "--n", "20", "--faults", "nosuchpreset"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn serve_with_fault_profile_and_degrade() {
        let out = run_line(&[
            "serve",
            "--rounds",
            "40",
            "--streams",
            "8",
            "--seed",
            "5",
            "--fault-profile",
            "flaky",
            "--degrade",
        ])
        .unwrap();
        assert!(out.contains("faults: flaky injected"), "{out}");
        // --degrade implies --slo and reports the ladder state.
        assert!(out.contains("degrade: rung"), "{out}");
        assert!(out.contains("slo: burn fast"), "{out}");
        assert!(matches!(
            run_line(&["serve", "--rounds", "1", "--fault-profile", "media=2.0"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn serve_fleet_with_health_ejects_gray_node() {
        let line = [
            "serve",
            "--nodes",
            "8",
            "--disks",
            "1",
            "--rounds",
            "80",
            "--seed",
            "5",
            "--fault-profile",
            "graynode",
            "--gray-node",
            "2",
            "--health",
        ];
        let out = run_line(&line).unwrap();
        assert!(out.contains("health:"), "{out}");
        assert!(out.contains("re-composed capacity"), "{out}");
        // The persistently slow node is detected and ejected well within
        // 80 rounds; the default readmission delay keeps it out at exit.
        let ejections: u64 = out
            .lines()
            .find(|l| l.contains("ejection(s)"))
            .and_then(|l| l.split_whitespace().nth(3))
            .and_then(|w| w.parse().ok())
            .unwrap();
        assert!(ejections >= 1, "{out}");
        assert!(out.contains("/ 1 ejected at exit"), "{out}");
        // Byte-identical on rerun.
        assert_eq!(out, run_line(&line).unwrap());
        // Without --health the report carries no health section.
        let control = run_line(&line[..line.len() - 1]).unwrap();
        assert!(!control.contains("health:"), "{control}");
    }

    #[test]
    fn serve_clean_fault_profile_matches_unfaulted_output() {
        let base =
            run_line(&["serve", "--rounds", "50", "--streams", "10", "--seed", "4"]).unwrap();
        let clean = run_line(&[
            "serve",
            "--rounds",
            "50",
            "--streams",
            "10",
            "--seed",
            "4",
            "--fault-profile",
            "clean",
        ])
        .unwrap();
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.trim_start().starts_with("faults:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&base), strip(&clean));
    }

    #[test]
    fn serve_with_slo_reports_monitor_state() {
        let out = run_line(&[
            "serve",
            "--rounds",
            "30",
            "--streams",
            "6",
            "--disks",
            "2",
            "--seed",
            "7",
            "--slo",
        ])
        .unwrap();
        assert!(out.contains("slo: burn fast"), "{out}");
        assert!(out.contains("conformance: ks"), "{out}");
        // An admitted load never burns its budget in 30 rounds.
        assert!(out.contains("0 alert(s), healthy"), "{out}");
    }

    #[test]
    fn report_round_trips_from_files() {
        let dir = std::env::temp_dir().join(format!("mzd_report_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let events = dir.join("events.jsonl");
        let html = dir.join("report.html");
        std::fs::write(
            &events,
            "{\"event\":\"sim.round\",\"round\":0,\"service_time\":0.8}\n\
             {\"event\":\"sim.round\",\"round\":1,\"service_time\":0.9}\n",
        )
        .unwrap();
        let out = run_line(&[
            "report",
            "--events",
            events.to_str().unwrap(),
            "--out",
            html.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("report:"), "{out}");
        let page = std::fs::read_to_string(&html).unwrap();
        assert!(page.starts_with("<!DOCTYPE html>"));
        assert!(page.contains("<svg"));
        // Missing flags / unreadable files are usage / execution errors.
        assert!(matches!(run_line(&["report"]), Err(CliError::Usage(_))));
        assert!(matches!(
            run_line(&["report", "--events", events.to_str().unwrap()]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_line(&["report", "--events", "/nonexistent/e", "--out", "/tmp/r"]),
            Err(CliError::Execution(_))
        ));
    }

    #[test]
    fn serve_rejects_bad_cache_policy() {
        assert!(matches!(
            run_line(&["serve", "--rounds", "1", "--cache-policy", "mru"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_line(&["serve", "--rounds", "1", "--zipf", "-1"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn plan_for_population() {
        let out = run_line(&["plan", "--population", "500"]).unwrap();
        assert!(out.contains("disks needed:       18"), "{out}");
    }

    #[test]
    fn worstcase_defaults() {
        let out = run_line(&["worstcase"]).unwrap();
        assert!(out.contains("N_max^wc = 10"), "{out}");
        assert!(out.contains("N_max^wc = 14"), "{out}");
    }

    #[test]
    fn analyze_trace_end_to_end() {
        let dir = std::env::temp_dir().join("mzd_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("demo.trace");
        // A gamma-ish trace around the paper's moments.
        let trace = mzd_workload::Trace::new(
            (0..500)
                .map(|i| 150_000.0 + 1_000.0 * f64::from(i % 100))
                .collect(),
            1.0,
        )
        .unwrap();
        std::fs::write(&path, trace.to_text()).unwrap();
        let out = run_line(&["analyze-trace", "--file", path.to_str().unwrap()]).unwrap();
        assert!(out.contains("500 fragments"), "{out}");
        assert!(out.contains("N_max = "), "{out}");
        // Missing/invalid files.
        assert!(matches!(
            run_line(&["analyze-trace"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_line(&["analyze-trace", "--file", "/nonexistent/x"]),
            Err(CliError::Execution(_))
        ));
    }

    #[test]
    fn other_profiles_work_end_to_end() {
        let out = run_line(&["nmax", "--disk", "nextgen"]).unwrap();
        assert!(out.contains("N_max = "), "{out}");
        let out = run_line(&[
            "nmax", "--disk", "legacy", "--mean", "100000", "--sd", "50000",
        ])
        .unwrap();
        assert!(out.contains("N_max = "), "{out}");
        assert!(matches!(
            run_line(&["nmax", "--disk", "floppy"]),
            Err(CliError::Usage(_))
        ));
    }
}
