//! The fleet: configuration, round loop, failure handling, and the
//! composed guarantee, in one place.
//!
//! [`Cluster`] owns `nodes` [`ServerNode`]s, the [`Placement`] ring,
//! the [`Dispatcher`] queues, and the [`LeaseTable`]. Each
//! [`Cluster::run_round`] advances the whole fleet one round:
//!
//! 1. **revive** nodes whose scripted outage ended (fresh lease);
//! 2. **dispatch** — every live node pulls from the front of its queue
//!    while the *cluster's* composed admission cap (`n*` per disk, an
//!    [`mzd_server::AdmissionController`] at the fleet layer) says yes;
//!    the node's own controller stays as backstop;
//! 3. **step** every operational node one round, in node order on the
//!    calling thread — each node owns its RNG and writes the shared
//!    metrics and event sink in a fixed order, so a fleet run is a pure
//!    function of its seed at any `--jobs`;
//! 4. **charge** outage glitches: streams hosted on a silent node, and
//!    migrated streams waiting in queues, receive nothing this round;
//! 5. **expire** leases; each newly failed node's streams are
//!    evacuated and deterministically requeued onto the survivors —
//!    keeping their original sequence numbers, so they re-enter
//!    *ahead of* newer arrivals — and marked degradable so the
//!    adopters' degradation ladders absorb the surge.
//!
//! Node failure is driven by `mzd-fault`'s chaos scenarios: a
//! [`ChaosScenario::ZoneFailure`] on the node config is lifted to
//! fleet scope as a [`NodeOutage`] of node `zone % nodes` (the fleet
//! analogue of a correlated zone loss), while `Burst`/`Ramp`
//! scenarios stay on the disks where they belong.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

use mzd_fault::{ChaosScenario, GrayDegradation};
use mzd_health::{HealthConfig, HealthDetector, RecomposedGuarantee};
use mzd_obs::SketchFleet;
use mzd_prof::{DumpTrigger, Recorder, RecorderSettings};
use mzd_server::{AdmissionController, AdmissionDecision, ServerConfig};
use mzd_slo::Tracer;
use mzd_telemetry::SpanContext;
use mzd_workload::ObjectSpec;

use crate::dispatcher::{Dispatcher, LeaseTable, NodeView, Pending};
use crate::guarantee::ClusterGuarantee;
use crate::metrics::{ClusterMetrics, HealthMetrics};
use crate::node::ServerNode;
use crate::placement::Placement;
use crate::ClusterError;

/// Default lease timeout, in rounds: long enough that one slow round
/// never triggers a spurious migration, short enough that the outage
/// charge `ℓ/m` stays a small fraction of the paper-default glitch
/// budget (`(3 + 2)/1200` against `g/m = 12/1200`).
pub const DEFAULT_LEASE_ROUNDS: u32 = 3;

/// Sketch name: per-disk sweep service time (seconds), recorded once
/// per disk per round into the owning node's labeled scope.
pub const SKETCH_SERVICE_TIME: &str = "cluster.node.service_time";

/// Sketch name: per-node dispatcher queue depth, sampled once per
/// round into the node's labeled scope.
pub const SKETCH_QUEUE_DEPTH: &str = "cluster.node.queue_depth";

/// Span-id base shift for node tracers in a fleet-merged trace: node
/// `i` allocates span ids from `(i + 1) << NODE_SPAN_BASE_SHIFT`
/// while the fleet (dispatcher) tracer keeps the default base 0, so
/// stitched parent/child edges stay unambiguous across nodes.
pub const NODE_SPAN_BASE_SHIFT: u32 = 40;

fn node_span_base(node: u32) -> u64 {
    (u64::from(node) + 1) << NODE_SPAN_BASE_SHIFT
}

/// A scripted whole-node outage: the node goes silent (does not step,
/// pull, or renew its lease) during `[start, start + rounds)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeOutage {
    /// The afflicted node.
    pub node: u32,
    /// First silent round (0-based).
    pub start: u64,
    /// Outage length in rounds.
    pub rounds: u64,
}

impl NodeOutage {
    /// Whether the node is silent during `round`.
    #[must_use]
    pub fn covers(&self, round: u64) -> bool {
        round >= self.start && round < self.start.saturating_add(self.rounds)
    }
}

/// Fleet configuration: the per-node server template plus the fleet
/// shape and failure-detection parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Fleet size.
    pub nodes: u32,
    /// Per-node server configuration, cloned for every member. A
    /// `ZoneFailure` chaos scenario on its fault config is lifted to a
    /// fleet-scope [`NodeOutage`] at construction.
    pub node: ServerConfig,
    /// Lease timeout in rounds: a node silent this long is declared
    /// failed and its streams migrate.
    pub lease_rounds: u32,
    /// Scripted node outages (merged with any lifted `ZoneFailure`).
    pub outages: Vec<NodeOutage>,
    /// The node that carries any gray degradation configured on the
    /// node template (taken modulo the fleet size). Gray failure is
    /// node-scoped by construction: the template's
    /// [`GrayDegradation`] is kept on this member and stripped from
    /// every other, mirroring how `ZoneFailure` lifts to one
    /// [`NodeOutage`].
    pub gray_node: u32,
}

impl ClusterConfig {
    /// The paper's reference fleet: `nodes` members of `disks_per_node`
    /// Quantum Viking 2.1 spindles each, 1-second rounds, the
    /// per-stream glitch-rate target, and the default lease.
    ///
    /// # Errors
    /// [`ClusterError::Invalid`] for a zero-sized fleet or node.
    pub fn paper_reference(nodes: u32, disks_per_node: u32) -> Result<Self, ClusterError> {
        if nodes == 0 {
            return Err(ClusterError::Invalid(
                "a cluster needs at least one node".into(),
            ));
        }
        Ok(Self {
            nodes,
            node: ServerConfig::paper_reference(disks_per_node)?,
            lease_rounds: DEFAULT_LEASE_ROUNDS,
            outages: Vec::new(),
            gray_node: 0,
        })
    }

    fn validate(&self) -> Result<(), ClusterError> {
        if self.nodes == 0 {
            return Err(ClusterError::Invalid(
                "a cluster needs at least one node".into(),
            ));
        }
        if self.lease_rounds == 0 {
            return Err(ClusterError::Invalid(
                "lease timeout must be at least one round".into(),
            ));
        }
        Ok(())
    }
}

/// What `submit` did with a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Accepted and parked; `node` is the queue it landed in (`None`
    /// while every node is unavailable — it is held and re-routed).
    Queued {
        /// The stream's cluster-wide sequence number.
        seq: u64,
        /// The node whose queue holds it.
        node: Option<u32>,
    },
    /// Refused: the fleet is at its composed capacity. Admitting more
    /// would void the guarantee, so the dispatcher never queues beyond
    /// it.
    Rejected {
        /// The composed fleet capacity that was hit.
        fleet_capacity: u64,
    },
}

/// One stream that finished play-out, with its full fleet history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterCompletedStream {
    /// Cluster-wide sequence number.
    pub seq: u64,
    /// Glitch rounds over the stream's life: host glitches plus outage
    /// and queue-wait charges.
    pub glitches: u64,
    /// How many times the stream migrated between nodes.
    pub migrations: u32,
    /// Play-out length in rounds (the object's `M`).
    pub rounds: u32,
}

/// One stream moved off a failed node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationRecord {
    /// Cluster-wide sequence number.
    pub seq: u64,
    /// The failed node it left.
    pub from: u32,
    /// The queue it was re-routed to.
    pub to: u32,
    /// Rounds of play-out it still had left.
    pub remaining_rounds: u32,
}

/// What one fleet round produced.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ClusterRoundReport {
    /// The round index this report covers (0-based).
    pub round: u64,
    /// Streams admitted from queues this round.
    pub admitted: u64,
    /// Streams that finished play-out this round.
    pub completed: Vec<ClusterCompletedStream>,
    /// Host glitch events this round (late disks, failed reads).
    pub glitched_streams: u64,
    /// Outage charges this round (silent hosts, migrated queue wait).
    pub outage_glitches: u64,
    /// Nodes declared failed this round (lease expired).
    pub failed_nodes: Vec<u32>,
    /// Nodes revived this round (outage ended).
    pub revived_nodes: Vec<u32>,
    /// Streams migrated this round.
    pub migrations: Vec<MigrationRecord>,
    /// Disks fleet-wide that overran the round.
    pub late_disks: u32,
    /// Per node, this round's per-disk service-time samples — exactly
    /// what was fed into the node's labeled quantile sketch. Empty for
    /// nodes that did not step (failed or in outage), so the
    /// concatenation over rounds reproduces the fleet-merged sketch.
    pub node_service_times: Vec<Vec<f64>>,
}

/// A point-in-time fleet summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterStatus {
    /// Rounds run so far.
    pub round: u64,
    /// Configured fleet size.
    pub nodes: u32,
    /// Nodes holding a live lease.
    pub live_nodes: u32,
    /// Streams hosted right now.
    pub active_streams: usize,
    /// Requests parked in queues (plus any held unrouted).
    pub waiting: usize,
    /// Streams that finished play-out.
    pub completed: usize,
    /// Glitch events so far (host plus outage).
    pub total_glitches: u64,
    /// The outage-charge subset.
    pub outage_glitches: u64,
    /// Stream migrations so far.
    pub migrations: u64,
}

/// Life-of-stream bookkeeping that survives migrations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StreamMeta {
    glitches: u64,
    migrations: u32,
    rounds_total: u32,
}

/// A point-in-time health-subsystem summary (see
/// [`Cluster::health_status`]).
#[derive(Debug, Clone, PartialEq)]
pub struct HealthStatus {
    /// Nodes currently on probation (hedged dispatch).
    pub probation_nodes: u32,
    /// Nodes currently ejected.
    pub ejected_nodes: u32,
    /// Probation entries so far.
    pub probations: u64,
    /// Ejections so far.
    pub ejections: u64,
    /// Readmission trials begun so far.
    pub readmissions: u64,
    /// Probations cleared back to healthy so far.
    pub clears: u64,
    /// Hedged duplicate rounds dispatched so far.
    pub hedges_issued: u64,
    /// Hedges the spare completed inside its round slack.
    pub hedges_won: u64,
    /// Cumulative spare round-slack spent on winning hedges, seconds.
    pub hedge_slack_debited: f64,
    /// The re-composed guarantee currently in force.
    pub recomposed: RecomposedGuarantee,
    /// Highest per-node suspicion after the last round.
    pub max_suspicion: f64,
}

/// The health subsystem's runtime state: the detector, the hedging
/// ledger, and the re-composed guarantee admission consults.
#[derive(Debug)]
struct HealthState {
    detector: HealthDetector,
    /// Round-slack cost of one hedged duplicate round on the spare:
    /// the per-stream share of a round at the composed admission
    /// level, `round_length / node_capacity` — the same unit the
    /// retry budget is priced in.
    hedge_cost: f64,
    recomposed: RecomposedGuarantee,
    max_suspicion: f64,
    probations: u64,
    ejections: u64,
    readmissions: u64,
    clears: u64,
    hedges_issued: u64,
    hedges_won: u64,
    hedge_slack_debited: f64,
    metrics: HealthMetrics,
}

/// A sharded fleet of video-server nodes behind one dispatcher, with
/// the paper's guarantee composed fleet-wide. See the crate docs for
/// the layer map and [`ClusterGuarantee`] for the math.
#[derive(Debug)]
pub struct Cluster {
    cfg: ClusterConfig,
    guarantee: ClusterGuarantee,
    admission: AdmissionController,
    placement: Placement,
    dispatcher: Dispatcher,
    lease: LeaseTable,
    nodes: Vec<ServerNode>,
    /// (node, node-local stream id) → seq for every hosted stream.
    by_host: BTreeMap<(u32, u64), u64>,
    /// seq → life-of-stream counters for every in-flight stream.
    meta: BTreeMap<u64, StreamMeta>,
    /// Requests held while no node was available to queue on.
    unrouted: Vec<Pending>,
    completed: Vec<ClusterCompletedStream>,
    next_seq: u64,
    round: u64,
    total_glitches: u64,
    outage_glitches: u64,
    migrations_total: u64,
    metrics: ClusterMetrics,
    /// Per-node labeled quantile sketches (service time, queue depth)
    /// plus their exact fleet-level merge. Always on: recording is a
    /// pure in-memory fold, and the catalog must not depend on flags.
    sketches: SketchFleet,
    /// The fleet (dispatcher) tracer; `None` until
    /// [`Cluster::enable_tracing`].
    tracer: Option<Tracer>,
    /// seq → the root span minted at submission, adopted by every
    /// host the stream lands on (tracing only).
    stream_roots: BTreeMap<u64, SpanContext>,
    /// seq → the round the stream (re-)entered a queue, for queue-wait
    /// span durations (tracing only).
    queued_at: BTreeMap<u64, u64>,
    /// Per-node flight-recorder handles (clones of the recorders
    /// attached to the servers), for correlated fleet dumps.
    recorders: Vec<Option<Recorder>>,
    /// Fleet postmortem directory; node bundles dump into
    /// `node-{i}/` subdirectories beneath it.
    fleet_dir: Option<PathBuf>,
    /// Fleet manifests written so far, one per distinct trigger kind.
    fleet_dumps: Vec<(DumpTrigger, PathBuf)>,
    /// Gray-failure detection and self-healing; `None` until
    /// [`Cluster::enable_health`].
    health: Option<HealthState>,
}

impl Cluster {
    /// Bring up the fleet: compose the guarantee, build the ring and
    /// queues, and seed node `i` with `derive_seed(seed, i)` so every
    /// node owns an independent, reproducible RNG stream.
    ///
    /// # Errors
    /// [`ClusterError::Invalid`] for a degenerate shape, a non-glitch-
    /// rate target, or a lease so long the composed bound is
    /// infeasible.
    pub fn new(mut cfg: ClusterConfig, seed: u64) -> Result<Self, ClusterError> {
        cfg.validate()?;
        // Lift a correlated zone failure to fleet scope: the analogous
        // event at cluster scale is a whole member going dark.
        if let Some(fc) = cfg.node.faults.as_mut() {
            if let ChaosScenario::ZoneFailure {
                zone,
                start,
                rounds,
                ..
            } = fc.profile.scenario
            {
                cfg.outages.push(NodeOutage {
                    node: zone % cfg.nodes,
                    start,
                    rounds,
                });
                fc.profile = fc.profile.without_scenario();
            }
        }
        // Gray degradation is likewise node-scoped: the template's gray
        // shape stays on the designated gray node only, so one member
        // silently slows down while the rest of the fleet — and the
        // admission math, which never prices gray — stay clean.
        let gray_target = cfg.gray_node % cfg.nodes;
        let fleet_has_gray = cfg
            .node
            .faults
            .as_ref()
            .is_some_and(|fc| fc.profile.gray != GrayDegradation::None);
        let model = cfg.node.model()?;
        let guarantee = ClusterGuarantee::compose(
            &model,
            cfg.node.round_length,
            cfg.node.target,
            cfg.nodes,
            cfg.node.disks,
            cfg.lease_rounds,
        )?;
        let admission = AdmissionController::with_limit(
            guarantee.n_star,
            cfg.node.round_length,
            cfg.node.target,
        );
        let nodes = (0..cfg.nodes)
            .map(|i| {
                let mut node_cfg = cfg.node.clone();
                if fleet_has_gray && i != gray_target {
                    if let Some(fc) = node_cfg.faults.as_mut() {
                        fc.profile = fc.profile.without_gray();
                    }
                }
                ServerNode::new(i, node_cfg, mzd_par::derive_seed(seed, u64::from(i)))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let placement = Placement::new(cfg.nodes)?;
        let dispatcher = Dispatcher::new(cfg.nodes);
        let lease = LeaseTable::new(cfg.nodes, cfg.lease_rounds);
        let metrics = ClusterMetrics::new();
        metrics.nodes.set(f64::from(cfg.nodes));
        metrics.nodes_available.set(f64::from(cfg.nodes));
        metrics.p_error_bound.set(guarantee.p_error_stream);
        let mut sketches = SketchFleet::with_nodes(cfg.nodes);
        sketches.declare_all(SKETCH_SERVICE_TIME);
        sketches.declare_all(SKETCH_QUEUE_DEPTH);
        let recorders = (0..cfg.nodes).map(|_| None).collect();
        Ok(Self {
            cfg,
            guarantee,
            admission,
            placement,
            dispatcher,
            lease,
            nodes,
            by_host: BTreeMap::new(),
            meta: BTreeMap::new(),
            unrouted: Vec::new(),
            completed: Vec::new(),
            next_seq: 0,
            round: 0,
            total_glitches: 0,
            outage_glitches: 0,
            migrations_total: 0,
            metrics,
            sketches,
            tracer: None,
            stream_roots: BTreeMap::new(),
            queued_at: BTreeMap::new(),
            recorders,
            fleet_dir: None,
            fleet_dumps: Vec::new(),
            health: None,
        })
    }

    /// One round expressed in trace microseconds (logical time: round
    /// index × round length, never wall-clock).
    fn round_us(&self) -> u64 {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let us = (self.cfg.node.round_length * 1e6) as u64;
        us.max(1)
    }

    /// Enable cross-node trace stitching: a fleet tracer at the
    /// dispatcher (span base 0) mints one root span per stream at
    /// submission, and every node's server records its spans under
    /// that root with ids rebased to `(node + 1) << 40` — so one
    /// Chrome trace holds a migrated stream's whole causal chain
    /// (submit → queue → lease-expire → requeue → admit → rounds)
    /// across hosts, under one trace id (the stream's seq).
    ///
    /// Call before the first round. Tracing only records: every other
    /// output of the fleet is unchanged.
    ///
    /// # Errors
    /// Never fails today; the `Result` keeps `?` callers stable.
    pub fn enable_tracing(&mut self) -> Result<(), ClusterError> {
        for node in &mut self.nodes {
            node.server.enable_tracing(node_span_base(node.id()));
        }
        self.tracer = Some(Tracer::new());
        Ok(())
    }

    /// Attach the gray-failure health subsystem: a deterministic
    /// suspicion detector over the same per-node service-time samples
    /// the observability sketches record, the probation → ejection →
    /// readmission machine, hedged dispatch for probated nodes, and
    /// guarantee re-composition on ejection. Registers the `health.*`
    /// metric family eagerly so calm and degraded runs expose the same
    /// catalog. Call before the first round.
    ///
    /// # Errors
    /// [`ClusterError::Invalid`] for an invalid [`HealthConfig`].
    pub fn enable_health(&mut self, health_cfg: HealthConfig) -> Result<(), ClusterError> {
        let detector = HealthDetector::new(health_cfg, self.cfg.nodes)?;
        let metrics = HealthMetrics::new();
        let recomposed = mzd_health::recompose(
            self.cfg.nodes,
            u64::from(self.guarantee.node_capacity),
            self.guarantee.p_error_stream,
            0,
            self.committed(),
        );
        metrics.enabled.set(1.0);
        #[allow(clippy::cast_precision_loss)]
        metrics
            .fleet_capacity
            .set(recomposed.effective_capacity as f64);
        metrics.degrade_rung.set(f64::from(recomposed.degrade_rung));
        metrics
            .admission_frozen
            .set(f64::from(u8::from(recomposed.frozen)));
        self.health = Some(HealthState {
            detector,
            hedge_cost: self.cfg.node.round_length / f64::from(self.guarantee.node_capacity.max(1)),
            recomposed,
            max_suspicion: 0.0,
            probations: 0,
            ejections: 0,
            readmissions: 0,
            clears: 0,
            hedges_issued: 0,
            hedges_won: 0,
            hedge_slack_debited: 0.0,
            metrics,
        });
        Ok(())
    }

    /// A point-in-time health summary; `None` until
    /// [`Cluster::enable_health`].
    #[must_use]
    pub fn health_status(&self) -> Option<HealthStatus> {
        self.health.as_ref().map(|h| HealthStatus {
            probation_nodes: h.detector.probation_count(),
            ejected_nodes: h.detector.ejected_count(),
            probations: h.probations,
            ejections: h.ejections,
            readmissions: h.readmissions,
            clears: h.clears,
            hedges_issued: h.hedges_issued,
            hedges_won: h.hedges_won,
            hedge_slack_debited: h.hedge_slack_debited,
            recomposed: h.recomposed,
            max_suspicion: h.max_suspicion,
        })
    }

    /// One node's current position in the health state machine;
    /// `None` until [`Cluster::enable_health`] (or for an out-of-range
    /// node index). Lets operators and sweeps track a *specific* node
    /// through probation → ejection → readmission rather than inferring
    /// it from the fleet-wide counters in [`Cluster::health_status`].
    #[must_use]
    pub fn node_health(&self, node: u32) -> Option<mzd_health::NodeHealth> {
        let h = self.health.as_ref()?;
        (node < self.cfg.nodes).then(|| h.detector.node(node).health)
    }

    /// Streams the fleet is currently responsible for: hosted plus
    /// queued plus held unrouted.
    fn committed(&self) -> u64 {
        (self.by_host.len() + self.dispatcher.queued_total() + self.unrouted.len()) as u64
    }

    /// Whether the health subsystem has `node` ejected. Ejection is
    /// deliberately *not* expressed through the lease table: an ejected
    /// node is alive (it keeps stepping empty and renewing its lease,
    /// staying warm for readmission) — it is only excluded from
    /// routing, dispatch, and detector baselines.
    fn is_health_ejected(&self, node: u32) -> bool {
        self.health
            .as_ref()
            .is_some_and(|h| h.detector.is_ejected(node))
    }

    /// Attach per-node flight recorders dumping under
    /// `settings.out_dir/node-{i}/` (each node's `config_echo` gains
    /// a `node` key), and arm the fleet-level triggers — lease-expiry
    /// storm, composed-budget breach, fleet fast-burn — that dump
    /// *all* node bundles plus a fleet `MANIFEST.json` keyed by the
    /// logical round (see [`mzd_prof::write_fleet_manifest`]).
    pub fn attach_recorders(&mut self, settings: &RecorderSettings) {
        self.fleet_dir = Some(settings.out_dir.clone());
        for node in &mut self.nodes {
            let i = node.id();
            let mut s = settings.clone();
            s.out_dir = settings.out_dir.join(format!("node-{i}"));
            s.config_echo.push(("node".into(), i.to_string()));
            let recorder = Recorder::new(s);
            self.recorders[i as usize] = Some(recorder.clone());
            node.server.attach_recorder(recorder);
        }
    }

    /// The fleet sketch registry: per-node labeled quantile sketches
    /// and their exact merge (see [`SketchFleet::render_prom`]).
    #[must_use]
    pub fn sketches(&self) -> &SketchFleet {
        &self.sketches
    }

    /// Fleet postmortem manifests written so far (one per distinct
    /// trigger kind).
    #[must_use]
    pub fn fleet_dumps(&self) -> &[(DumpTrigger, PathBuf)] {
        &self.fleet_dumps
    }

    /// Force a correlated fleet dump now (e.g. `--dump-on-exit`).
    /// Returns the fleet manifest path, or `None` without attached
    /// recorders or when this trigger kind already dumped.
    pub fn trigger_fleet_dump(&mut self, trigger: DumpTrigger) -> Option<PathBuf> {
        let before = self.fleet_dumps.len();
        self.fleet_dump(trigger, self.round);
        (self.fleet_dumps.len() > before).then(|| self.fleet_dumps[before].1.clone())
    }

    /// Dump every node's retained flight-recorder window and write the
    /// fleet manifest correlating them, keyed by logical `round`. The
    /// *first* fleet trigger owns `dir/MANIFEST.json` — later triggers
    /// are no-ops, so the root incident's correlation is never
    /// overwritten (and `--dump-on-exit` only fires when no incident
    /// did). A no-op without [`Cluster::attach_recorders`]. I/O
    /// failures are swallowed — postmortems are best-effort and must
    /// never perturb the round loop.
    fn fleet_dump(&mut self, trigger: DumpTrigger, round: u64) {
        let Some(dir) = self.fleet_dir.clone() else {
            return;
        };
        if !self.fleet_dumps.is_empty() {
            return;
        }
        let mut entries: Vec<(u32, Option<PathBuf>)> = Vec::with_capacity(self.recorders.len());
        for (i, recorder) in self.recorders.iter().enumerate() {
            let path = recorder
                .as_ref()
                .and_then(|r| match r.trigger_dump(trigger) {
                    Ok(Some(p)) => Some(p),
                    // Empty ring, dump cap, or the node's own hook (e.g.
                    // its local fast-burn path) already dumped this kind:
                    // reuse that bundle so the fleet manifest still
                    // correlates it.
                    _ => r
                        .dumps()
                        .into_iter()
                        .find(|(t, _)| *t == trigger)
                        .map(|(_, p)| p),
                });
            entries.push((i as u32, path));
        }
        if let Ok(path) = mzd_prof::write_fleet_manifest(&dir, trigger, round, &entries) {
            self.fleet_dumps.push((trigger, path));
        }
    }

    /// Merged fleet trace: the dispatcher tracer's spans followed by
    /// every node's, in node order, rendered as one Chrome
    /// trace-event JSON object. `None` until
    /// [`Cluster::enable_tracing`].
    #[must_use]
    pub fn trace_chrome_json(&self) -> Option<String> {
        let tracer = self.tracer.as_ref()?;
        let mut events: Vec<mzd_slo::TraceEvent> = tracer.events().to_vec();
        let mut dropped = tracer.dropped();
        for node in &self.nodes {
            if let Some(node_events) = node.server().trace_events() {
                events.extend_from_slice(node_events);
            }
            dropped += node.server().trace_dropped();
        }
        Some(mzd_slo::render_chrome_json(&events, dropped))
    }

    /// The composed fleet guarantee this cluster enforces.
    #[must_use]
    pub fn guarantee(&self) -> &ClusterGuarantee {
        &self.guarantee
    }

    /// The configuration the fleet runs (outages include any lifted
    /// `ZoneFailure`).
    #[must_use]
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Streams hosted fleet-wide right now.
    #[must_use]
    pub fn active_streams(&self) -> usize {
        self.by_host.len()
    }

    /// Requests waiting in queues (plus any held unrouted).
    #[must_use]
    pub fn waiting(&self) -> usize {
        self.dispatcher.queued_total() + self.unrouted.len()
    }

    /// Rounds run so far.
    #[must_use]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Every stream that finished play-out, in completion order.
    #[must_use]
    pub fn completed(&self) -> &[ClusterCompletedStream] {
        &self.completed
    }

    /// Node `i`, for inspection.
    #[must_use]
    pub fn node(&self, i: u32) -> &ServerNode {
        &self.nodes[i as usize]
    }

    /// A point-in-time fleet summary.
    #[must_use]
    pub fn status(&self) -> ClusterStatus {
        ClusterStatus {
            round: self.round,
            nodes: self.cfg.nodes,
            live_nodes: self.lease.live_count(),
            active_streams: self.by_host.len(),
            waiting: self.waiting(),
            completed: self.completed.len(),
            total_glitches: self.total_glitches,
            outage_glitches: self.outage_glitches,
            migrations: self.migrations_total,
        }
    }

    /// Submit a play-out request. Accepted requests are parked in the
    /// queue placement chose and admitted when their node pulls them;
    /// requests beyond the composed fleet capacity are rejected so the
    /// guarantee is never diluted.
    ///
    /// # Errors
    /// Currently infallible (the `Result` reserves room for workload
    /// validation); rejection is the `Ok(`[`SubmitOutcome::Rejected`]`)`
    /// case, not an error.
    pub fn submit(&mut self, object: ObjectSpec) -> Result<SubmitOutcome, ClusterError> {
        let committed = self.committed();
        // Admission consults the re-composed guarantee when health is
        // on: ejections debit capacity, and a frozen fleet (survivors
        // over-committed) rejects everything until it drains or heals.
        let capacity = self
            .health
            .as_ref()
            .map_or(self.guarantee.fleet_capacity, |h| {
                if h.recomposed.frozen {
                    0
                } else {
                    h.recomposed
                        .effective_capacity
                        .min(self.guarantee.fleet_capacity)
                }
            });
        if committed >= capacity {
            self.metrics.rejected.inc();
            return Ok(SubmitOutcome::Rejected {
                fleet_capacity: capacity,
            });
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.meta.insert(
            seq,
            StreamMeta {
                glitches: 0,
                migrations: 0,
                rounds_total: object.rounds,
            },
        );
        self.metrics.submitted.inc();
        // Mint the stream's root span at submission: every host it
        // lands on adopts this context, so the whole fleet itinerary
        // is one causal chain under trace id `seq`.
        let ts = self.round * self.round_us();
        if let Some(tracer) = self.tracer.as_mut() {
            let root = tracer.root(seq);
            tracer.record("fleet.submit", "fleet", 0, seq, ts, 1, root, &[]);
            self.stream_roots.insert(seq, root);
            self.queued_at.insert(seq, self.round);
        }
        let pending = Pending {
            seq,
            object,
            carried_glitches: 0,
            migrated: false,
        };
        let views = self.views();
        match self.dispatcher.route(pending, &views, &self.placement) {
            Ok(node) => Ok(SubmitOutcome::Queued {
                seq,
                node: Some(node),
            }),
            Err(p) => {
                self.unrouted.push(p);
                Ok(SubmitOutcome::Queued { seq, node: None })
            }
        }
    }

    /// Whether node `i` is *operational* (not inside a scripted outage)
    /// during `round`. Liveness as the cluster believes it is the
    /// lease table's business; this is ground truth.
    fn is_operational(&self, i: u32, round: u64) -> bool {
        !self
            .cfg
            .outages
            .iter()
            .any(|o| o.node == i && o.covers(round))
    }

    /// Routing snapshot: availability is the *lease* view (the cluster
    /// routes on belief — a silent node keeps collecting queue entries
    /// until its lease expires, exactly the window the guarantee's
    /// outage charge pays for), minus health-ejected members (alive
    /// but excluded from routing until readmitted).
    fn views(&self) -> Vec<NodeView> {
        self.nodes
            .iter()
            .map(|n| {
                let id = n.id();
                let active = n.server.active_streams() as u32;
                let queued = self.dispatcher.queue_len(id) as u32;
                NodeView {
                    node: id,
                    available: self.lease.is_live(id) && !self.is_health_ejected(id),
                    headroom: self
                        .guarantee
                        .node_capacity
                        .saturating_sub(active)
                        .saturating_sub(queued),
                    min_disk_load: n.server.per_disk_load().iter().copied().min().unwrap_or(0),
                }
            })
            .collect()
    }

    /// Finish bookkeeping for a stream that completed play-out.
    fn finish_stream(&mut self, seq: u64) -> ClusterCompletedStream {
        let meta = self.meta.remove(&seq).expect("completed stream has meta");
        self.stream_roots.remove(&seq);
        self.queued_at.remove(&seq);
        let record = ClusterCompletedStream {
            seq,
            glitches: meta.glitches,
            migrations: meta.migrations,
            rounds: meta.rounds_total,
        };
        self.completed.push(record.clone());
        record
    }

    /// Evacuate node `from`: pull every hosted stream off it and
    /// requeue the unfinished ones onto the survivors (keeping their
    /// original sequence numbers, so they re-enter ahead of newer
    /// arrivals), then re-route its parked queue entries. Shared by
    /// lease expiry and health ejection — `span_name` labels which
    /// path fired in the stitched trace.
    fn evacuate_node(
        &mut self,
        from: u32,
        span_name: &'static str,
        round: u64,
        round_us: u64,
        report: &mut ClusterRoundReport,
    ) {
        // Close every hosted stream first, so routing below sees the
        // evacuated node empty. The manifest is sorted by local id
        // (admission order), which keeps migration deterministic.
        let server = &mut self.nodes[from as usize].server;
        let manifest = server.active_session_info();
        for info in &manifest {
            // `active_session_info` only lists live sessions; closing
            // them cannot fail.
            server
                .close_stream(info.handle)
                .expect("evacuating a live session");
        }
        for info in manifest {
            let seq = self
                .by_host
                .remove(&(from, info.handle.id()))
                .expect("evacuated stream was hosted");
            let remaining = info.object.rounds - info.fragments_consumed;
            if remaining == 0 {
                let record = self.finish_stream(seq);
                report.completed.push(record);
                continue;
            }
            let meta = self.meta.get_mut(&seq).expect("evacuated stream meta");
            meta.migrations += 1;
            if let Some(tracer) = self.tracer.as_mut() {
                if let Some(root) = self.stream_roots.get(&seq) {
                    let ctx = tracer.child(root);
                    tracer.record(
                        span_name,
                        "fleet",
                        0,
                        seq,
                        round * round_us,
                        1,
                        ctx,
                        &[("node", u64::from(from))],
                    );
                }
                self.queued_at.insert(seq, round);
            }
            let pending = Pending {
                seq,
                object: info
                    .object
                    .with_rounds(remaining)
                    .expect("an unfinished stream has rounds left"),
                carried_glitches: meta.glitches,
                migrated: true,
            };
            self.migrations_total += 1;
            self.metrics.migrated_streams.inc();
            self.metrics.requeued.inc();
            let views = self.views();
            match self.dispatcher.route(pending, &views, &self.placement) {
                Ok(to) => {
                    if let Some(tracer) = self.tracer.as_mut() {
                        if let Some(root) = self.stream_roots.get(&seq) {
                            let ctx = tracer.child(root);
                            tracer.record(
                                "fleet.requeue",
                                "fleet",
                                0,
                                seq,
                                round * round_us,
                                1,
                                ctx,
                                &[("to", u64::from(to))],
                            );
                        }
                    }
                    report.migrations.push(MigrationRecord {
                        seq,
                        from,
                        to,
                        remaining_rounds: remaining,
                    });
                }
                Err(p) => self.unrouted.push(p),
            }
        }
        // Requests still parked on the evacuated node's queue re-route
        // too, keeping their sequence numbers (and hence their place in
        // line on the adopting queue).
        for pending in self.dispatcher.drain_node(from) {
            self.metrics.requeued.inc();
            let views = self.views();
            if let Err(p) = self.dispatcher.route(pending, &views, &self.placement) {
                self.unrouted.push(p);
            }
        }
    }

    /// Advance the whole fleet one round. See the module docs for the
    /// phase order; every phase iterates nodes and streams in index
    /// order, so the loop is deterministic for any worker count.
    pub fn run_round(&mut self) -> ClusterRoundReport {
        let round = self.round;
        let round_us = self.round_us();
        let n = self.cfg.nodes;
        let operational: Vec<bool> = (0..n).map(|i| self.is_operational(i, round)).collect();
        let mut report = ClusterRoundReport {
            round,
            node_service_times: vec![Vec::new(); n as usize],
            ..ClusterRoundReport::default()
        };

        // 1. Revive members whose outage ended: fresh lease, empty
        // node, ready to pull again.
        for i in 0..n {
            if operational[i as usize] && !self.lease.is_live(i) {
                self.lease.revive(i, round);
                report.revived_nodes.push(i);
            }
        }

        // 2. Re-route requests held while the whole fleet was dark.
        for pending in std::mem::take(&mut self.unrouted) {
            let views = self.views();
            if let Err(p) = self.dispatcher.route(pending, &views, &self.placement) {
                self.unrouted.push(p);
            }
        }

        // 3. Dispatch: live, operational, non-ejected nodes pull from
        // their queue front while the composed cap admits. The pull
        // order (node index) is fixed, so admission is deterministic.
        for i in 0..n {
            if !operational[i as usize] || !self.lease.is_live(i) || self.is_health_ejected(i) {
                continue;
            }
            while self.dispatcher.peek(i).is_some() {
                if !matches!(
                    self.admission
                        .decide(&self.nodes[i as usize].server.per_disk_load()),
                    AdmissionDecision::Admit
                ) {
                    break;
                }
                let pending = self.dispatcher.pull(i).expect("peeked entry");
                // Hand the submission-time root to the adopting node:
                // its admit/round spans stitch under it.
                let root = self.stream_roots.get(&pending.seq).copied();
                let server = &mut self.nodes[i as usize].server;
                match server.open_stream_with_root(pending.object.clone(), root) {
                    Ok(handle) => {
                        if pending.migrated {
                            // Riding the degradation ladder: the
                            // adopter may serve this stream a reduced
                            // rendition instead of glitching everyone.
                            server
                                .set_degradable(handle, true)
                                .expect("a just-opened stream is live");
                        }
                        self.by_host.insert((i, handle.id()), pending.seq);
                        let meta = self.meta.get_mut(&pending.seq).expect("queued stream meta");
                        meta.glitches = meta.glitches.max(pending.carried_glitches);
                        report.admitted += 1;
                        self.metrics.admitted.inc();
                        if let (Some(tracer), Some(root)) = (self.tracer.as_mut(), root) {
                            let queued = self.queued_at.remove(&pending.seq).unwrap_or(round);
                            let ctx = tracer.child(&root);
                            tracer.record(
                                "fleet.queue.wait",
                                "fleet",
                                0,
                                pending.seq,
                                queued * round_us,
                                (round - queued) * round_us,
                                ctx,
                                &[("node", u64::from(i))],
                            );
                        }
                    }
                    Err(_) => {
                        // Node backstop refused (should not out-admit
                        // the composed cap, but the node has the last
                        // word): put it back at the queue front.
                        self.dispatcher.enqueue(i, pending);
                        break;
                    }
                }
            }
        }

        // 3½. Hedge selection: each probated node's oldest hosted
        // stream gets its next round duplicated on the healthiest
        // spare (most headroom, lowest id on ties). Winners settle
        // after the step against the spare's actual round slack —
        // first-completion wins, priced like retry recovery.
        let mut hedges: Vec<(u64, u32)> = Vec::new();
        if let Some(h) = self.health.as_ref() {
            let views = self.views();
            for i in 0..n {
                if !h.detector.is_probated(i) || !operational[i as usize] || !self.lease.is_live(i)
                {
                    continue;
                }
                let Some((_, &victim)) = self.by_host.range((i, 0)..=(i, u64::MAX)).next() else {
                    continue;
                };
                let mut spare: Option<(u32, u32)> = None; // (headroom, node)
                for v in &views {
                    if v.node == i
                        || !v.available
                        || !operational[v.node as usize]
                        || h.detector.is_probated(v.node)
                    {
                        continue;
                    }
                    // Strict `>` keeps the lowest node id on headroom ties.
                    if spare.map_or(true, |(best, _)| v.headroom > best) {
                        spare = Some((v.headroom, v.node));
                    }
                }
                if let Some((_, spare)) = spare {
                    hedges.push((victim, spare));
                }
            }
        }
        if let Some(h) = self.health.as_mut() {
            h.hedges_issued += hedges.len() as u64;
            h.metrics.hedges_issued.add(hedges.len() as u64);
        }

        // 4. Step every operational node, in node order. Each owns its
        // RNG, and the shared metrics and event sink see the nodes in a
        // fixed order, so the fleet round is byte-identical at any job
        // count.
        let reports: Vec<_> = self
            .nodes
            .iter_mut()
            .map(|node| operational[node.id() as usize].then(|| node.server.run_round()))
            .collect();

        // 4½. Hedge settlement: a hedge wins iff the spare's observed
        // round slack (round length minus its slowest disk this round)
        // still covers the per-stream hedge cost after earlier hedges
        // on the same spare debited theirs. A winning hedge means the
        // duplicate round completed first, so the victim stream's
        // glitch this round — if any — is never charged.
        let mut covered: BTreeSet<u64> = BTreeSet::new();
        if let Some(h) = self.health.as_mut() {
            let round_length = self.cfg.node.round_length;
            let mut spare_slack: BTreeMap<u32, f64> = BTreeMap::new();
            for &(victim, spare) in &hedges {
                let slack = spare_slack.entry(spare).or_insert_with(|| {
                    reports[spare as usize].as_ref().map_or(0.0, |r| {
                        let worst = r
                            .disks
                            .iter()
                            .fold(0.0_f64, |acc, d| acc.max(d.service_time));
                        (round_length - worst).max(0.0)
                    })
                });
                if *slack >= h.hedge_cost {
                    *slack -= h.hedge_cost;
                    h.hedges_won += 1;
                    h.hedge_slack_debited += h.hedge_cost;
                    h.metrics.hedges_won.inc();
                    h.metrics.hedge_slack_debited.add(h.hedge_cost);
                    covered.insert(victim);
                }
            }
        }

        // 5. Fold node reports in node order: lease renewals, glitch
        // attribution, completions, and the fleet's client-buffer
        // backlog (each node set the shared gauge to its own share).
        let mut buffer_occupancy = 0.0;
        for (i, node_report) in reports.into_iter().enumerate() {
            let i = i as u32;
            let Some(node_report) = node_report else {
                continue;
            };
            buffer_occupancy += node_report.buffer_occupancy;
            self.lease.renew(i, round);
            self.metrics.lease_renewals.inc();
            report.late_disks += node_report.disks.iter().filter(|d| d.late).count() as u32;
            // Feed the fleet observability plane: one service-time
            // sample per disk into the node's labeled sketch, merged
            // exactly at exposition time.
            let service_times: Vec<f64> =
                node_report.disks.iter().map(|d| d.service_time).collect();
            for &service_time in &service_times {
                self.sketches
                    .node_mut(i)
                    .record(SKETCH_SERVICE_TIME, service_time);
            }
            report.node_service_times[i as usize] = service_times;
            for local in node_report.glitched_streams {
                let seq = self.by_host[&(i, local)];
                if covered.contains(&seq) {
                    // The winning hedge delivered this stream's round
                    // from the spare: first-completion wins, no glitch.
                    continue;
                }
                self.meta
                    .get_mut(&seq)
                    .expect("hosted stream meta")
                    .glitches += 1;
                report.glitched_streams += 1;
                self.total_glitches += 1;
                self.metrics.glitches.inc();
            }
            for local in node_report.completed_streams {
                let seq = self
                    .by_host
                    .remove(&(i, local))
                    .expect("completed stream was hosted");
                let record = self.finish_stream(seq);
                report.completed.push(record);
            }
        }
        self.metrics.buffer_occupancy.set(buffer_occupancy);

        // 6. Outage charges: a stream on a silent host receives
        // nothing this round — an unconditional glitch the composed
        // bound pays for with its `ℓ/m` term.
        for i in 0..n {
            if operational[i as usize] {
                continue;
            }
            let seqs: Vec<u64> = self
                .by_host
                .range((i, 0)..=(i, u64::MAX))
                .map(|(_, &seq)| seq)
                .collect();
            for seq in seqs {
                self.meta
                    .get_mut(&seq)
                    .expect("hosted stream meta")
                    .glitches += 1;
                report.outage_glitches += 1;
            }
        }
        // Migrated streams waiting in a queue are also mid play-out
        // and also receive nothing.
        report.outage_glitches += self.dispatcher.charge_migrated_wait();
        self.outage_glitches += report.outage_glitches;
        self.total_glitches += report.outage_glitches;
        self.metrics.glitches.add(report.outage_glitches);
        self.metrics.glitches_outage.add(report.outage_glitches);

        // 7. Lease expiry: evacuate each newly failed node and requeue
        // its streams (original seq ⇒ ahead of newer arrivals) and its
        // queued requests onto the survivors.
        for failed in self.lease.expire(round) {
            report.failed_nodes.push(failed);
            self.metrics.lease_expirations.inc();
            self.metrics.nodes_failed.inc();
            self.metrics.migrations.inc();
            self.evacuate_node(failed, "fleet.lease.expire", round, round_us, &mut report);
        }

        // 7½. Health: feed the detector one sample per node — its
        // *per-stream* service time this round (the node's sweep total
        // over its hosted streams, from the same per-disk samples the
        // observability sketches record). Normalizing by load is what
        // makes the fleet baseline comparable: an honest node serving
        // 25 streams spends more wall time per round than one serving
        // 15, and raw sweep times would flag the busy node instead of
        // the gray one. Silent, idle, and ejected nodes contribute
        // nothing. Then act on the verdicts (ejection migrates streams
        // through the same requeue path lease expiry uses) and
        // re-compose the fleet guarantee with the survivors.
        if self.health.is_some() {
            let samples: Vec<Option<f64>> = (0..n)
                .map(|i| {
                    if self.is_health_ejected(i) {
                        return None;
                    }
                    let sweep: f64 = report.node_service_times[i as usize].iter().sum();
                    let load: u32 = self.nodes[i as usize].server.per_disk_load().iter().sum();
                    // A zero sweep or an empty node carries no signal
                    // (and an idle-heavy fleet must not collapse the
                    // baseline median to zero).
                    (sweep > 0.0 && load > 0).then(|| sweep / f64::from(load))
                })
                .collect();
            let outcome = {
                let h = self.health.as_mut().expect("health checked above");
                let outcome = h.detector.observe(round, &samples);
                h.probations += outcome.probated.len() as u64;
                h.metrics.probations.add(outcome.probated.len() as u64);
                h.readmissions += outcome.readmitted.len() as u64;
                h.metrics.readmissions.add(outcome.readmitted.len() as u64);
                h.clears += outcome.cleared.len() as u64;
                h.metrics.clears.add(outcome.cleared.len() as u64);
                h.ejections += outcome.ejected.len() as u64;
                h.metrics.ejections.add(outcome.ejected.len() as u64);
                h.max_suspicion = outcome.max_suspicion;
                h.metrics.suspicion_max.set(outcome.max_suspicion);
                outcome
            };
            // Ejection is not a lease event: the node stays alive and
            // keeps renewing (warm for readmission), but its streams
            // migrate to the survivors now.
            for &ejected in &outcome.ejected {
                self.metrics.migrations.inc();
                self.evacuate_node(ejected, "fleet.health.eject", round, round_us, &mut report);
            }
            let committed = self.committed();
            let h = self.health.as_mut().expect("health checked above");
            let ejected_count = h.detector.ejected_count();
            h.recomposed = mzd_health::recompose(
                n,
                u64::from(self.guarantee.node_capacity),
                self.guarantee.p_error_stream,
                ejected_count,
                committed,
            );
            #[allow(clippy::cast_precision_loss)]
            h.metrics
                .fleet_capacity
                .set(h.recomposed.effective_capacity as f64);
            h.metrics
                .degrade_rung
                .set(f64::from(h.recomposed.degrade_rung));
            h.metrics
                .admission_frozen
                .set(f64::from(u8::from(h.recomposed.frozen)));
            h.metrics
                .nodes_probation
                .set(f64::from(h.detector.probation_count()));
            h.metrics.nodes_ejected.set(f64::from(ejected_count));
            if !outcome.ejected.is_empty() {
                self.fleet_dump(DumpTrigger::HealthEjection, round);
            }
        }

        // 8. Gauges and the round counter.
        self.metrics.streams_active.set(self.by_host.len() as f64);
        self.metrics.streams_waiting.set(self.waiting() as f64);
        self.metrics
            .nodes_available
            .set(f64::from(self.lease.live_count()));
        self.metrics
            .queue_depth
            .record(self.dispatcher.queued_total() as f64);
        #[allow(clippy::cast_precision_loss)]
        for i in 0..n {
            self.sketches
                .node_mut(i)
                .record(SKETCH_QUEUE_DEPTH, self.dispatcher.queue_len(i) as f64);
        }

        // Correlated fleet postmortems: fleet-level triggers capture
        // every node's retained window around the same logical round.
        if !report.failed_nodes.is_empty() {
            self.fleet_dump(DumpTrigger::LeaseExpiryStorm, round);
        }
        if report
            .completed
            .iter()
            .any(|c| c.glitches >= self.guarantee.g)
        {
            self.fleet_dump(DumpTrigger::BudgetBreach, round);
        }
        if self
            .nodes
            .iter()
            .any(|node| node.server().slo_status().is_some_and(|s| s.alert_active))
        {
            self.fleet_dump(DumpTrigger::SloFastBurn, round);
        }

        self.round += 1;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_object(rounds: u32) -> ObjectSpec {
        ObjectSpec::new(
            "clip",
            mzd_workload::SizeDistribution::paper_default(),
            rounds,
        )
        .unwrap()
    }

    #[test]
    fn submit_round_trip_admits_and_completes() {
        let cfg = ClusterConfig::paper_reference(4, 2).unwrap();
        let mut fleet = Cluster::new(cfg, 11).unwrap();
        let out = fleet.submit(small_object(3)).unwrap();
        let SubmitOutcome::Queued { seq, node } = out else {
            panic!("first submit must queue, got {out:?}");
        };
        assert_eq!(seq, 0);
        assert!(node.is_some());
        let r0 = fleet.run_round();
        assert_eq!(r0.admitted, 1);
        assert_eq!(fleet.active_streams(), 1);
        fleet.run_round();
        let r2 = fleet.run_round();
        assert_eq!(r2.completed.len(), 1);
        assert_eq!(r2.completed[0].seq, 0);
        assert_eq!(r2.completed[0].rounds, 3);
        assert_eq!(fleet.active_streams(), 0);
        assert_eq!(fleet.completed().len(), 1);
    }

    #[test]
    fn fleet_capacity_rejects_beyond_the_composed_cap() {
        let cfg = ClusterConfig::paper_reference(2, 1).unwrap();
        let mut fleet = Cluster::new(cfg, 3).unwrap();
        let cap = fleet.guarantee().fleet_capacity;
        assert!(cap > 0);
        for _ in 0..cap {
            assert!(matches!(
                fleet.submit(small_object(50)).unwrap(),
                SubmitOutcome::Queued { .. }
            ));
        }
        assert_eq!(
            fleet.submit(small_object(50)).unwrap(),
            SubmitOutcome::Rejected {
                fleet_capacity: cap
            }
        );
        // Completion frees capacity again.
        let mut fleet2 = Cluster::new(ClusterConfig::paper_reference(2, 1).unwrap(), 3).unwrap();
        assert!(matches!(
            fleet2.submit(small_object(1)).unwrap(),
            SubmitOutcome::Queued { .. }
        ));
        fleet2.run_round();
        assert_eq!(fleet2.active_streams(), 0);
    }

    #[test]
    fn zone_failure_scenario_lifts_to_a_node_outage() {
        let mut cfg = ClusterConfig::paper_reference(4, 1).unwrap();
        let mut faults = mzd_fault::FaultConfig::preset("zonefail").unwrap();
        faults.profile.scenario = ChaosScenario::ZoneFailure {
            zone: 6,
            start: 5,
            rounds: 10,
            factor: 20.0,
        };
        cfg.node.faults = Some(faults);
        let fleet = Cluster::new(cfg, 1).unwrap();
        assert_eq!(
            fleet.config().outages,
            vec![NodeOutage {
                node: 2, // 6 % 4
                start: 5,
                rounds: 10,
            }]
        );
        // The disks keep the base rates but not the zone schedule.
        let nf = fleet.config().node.faults.as_ref().unwrap();
        assert_eq!(nf.profile.scenario, ChaosScenario::None);
        assert!(nf.profile.p_media > 0.0);
    }

    #[test]
    fn failed_node_streams_requeue_ahead_and_finish_elsewhere() {
        let mut cfg = ClusterConfig::paper_reference(3, 1).unwrap();
        cfg.lease_rounds = 2;
        // Node 1 goes dark from round 4, long enough to expire its lease.
        cfg.outages.push(NodeOutage {
            node: 1,
            start: 4,
            rounds: 50,
        });
        let mut fleet = Cluster::new(cfg, 9).unwrap();
        // Seed enough streams that every node hosts some.
        for _ in 0..24 {
            fleet.submit(small_object(200)).unwrap();
        }
        for _ in 0..4 {
            fleet.run_round();
        }
        let victim_streams = fleet.node(1).server().active_streams();
        assert!(victim_streams > 0, "node 1 must host streams before dying");
        // Lease = 2: silent at rounds 4 and 5, declared failed at
        // round 5 (renewed last at round 3, lease runs to 3 + 2 = 5).
        let mut failed_round = None;
        let mut migrations = Vec::new();
        for _ in 0..4 {
            let r = fleet.run_round();
            if !r.failed_nodes.is_empty() {
                failed_round = Some(r.round);
                migrations = r.migrations.clone();
            }
        }
        assert_eq!(failed_round, Some(5), "failure must land at lease expiry");
        assert_eq!(fleet.node(1).server().active_streams(), 0);
        assert_eq!(migrations.len(), victim_streams);
        for m in &migrations {
            assert_eq!(m.from, 1);
            assert_ne!(m.to, 1);
            assert!(m.remaining_rounds > 0);
        }
        // Migrated streams carried their outage charges.
        let status = fleet.status();
        assert!(status.outage_glitches > 0);
        assert_eq!(status.migrations, victim_streams as u64);
    }

    #[test]
    fn revived_node_pulls_again_after_outage() {
        let mut cfg = ClusterConfig::paper_reference(2, 1).unwrap();
        cfg.lease_rounds = 1;
        cfg.outages.push(NodeOutage {
            node: 0,
            start: 2,
            rounds: 3,
        });
        let mut fleet = Cluster::new(cfg, 4).unwrap();
        for _ in 0..6 {
            fleet.submit(small_object(100)).unwrap();
        }
        let mut revived_at = None;
        for _ in 0..8 {
            let r = fleet.run_round();
            if !r.revived_nodes.is_empty() {
                revived_at = Some((r.round, r.revived_nodes.clone()));
            }
        }
        assert_eq!(revived_at, Some((5, vec![0])), "outage [2,5) revives at 5");
        assert_eq!(fleet.status().live_nodes, 2);
    }

    fn failing_fleet_with(seed: u64, setup: impl Fn(&mut Cluster)) -> Cluster {
        let mut cfg = ClusterConfig::paper_reference(3, 1).unwrap();
        cfg.lease_rounds = 2;
        cfg.outages.push(NodeOutage {
            node: 1,
            start: 4,
            rounds: 50,
        });
        let mut fleet = Cluster::new(cfg, seed).unwrap();
        setup(&mut fleet);
        for _ in 0..24 {
            fleet.submit(small_object(200)).unwrap();
        }
        fleet
    }

    fn failing_fleet(seed: u64) -> Cluster {
        failing_fleet_with(seed, |_| ())
    }

    /// The fleet's one stream-identity map, its status snapshot, and the
    /// nodes' own session lists must agree on how many streams are
    /// hosted.
    fn assert_hosted_counts_agree(fleet: &Cluster) {
        let on_nodes: usize = (0..fleet.config().nodes)
            .map(|i| fleet.node(i).server().active_streams())
            .sum();
        let round = fleet.round();
        assert_eq!(
            fleet.active_streams(),
            fleet.status().active_streams,
            "round {round}"
        );
        assert_eq!(fleet.active_streams(), on_nodes, "round {round}");
    }

    #[test]
    fn hosted_counts_agree_through_lease_expiry_and_revival() {
        let mut fleet = failing_fleet(9);
        let (mut failed, mut revived) = (false, false);
        // Outage [4, 54): the lease lapses at round 5, the node revives
        // at 54 and pulls again.
        for _ in 0..70 {
            let r = fleet.run_round();
            failed |= !r.failed_nodes.is_empty();
            revived |= !r.revived_nodes.is_empty();
            assert_hosted_counts_agree(&fleet);
        }
        assert!(failed && revived, "node 1 must fail and revive");
    }

    #[test]
    fn tracing_stitches_a_migrated_stream_across_nodes() {
        let run = || {
            let mut fleet = failing_fleet_with(9, |f| f.enable_tracing().unwrap());
            let mut migrated = Vec::new();
            for _ in 0..10 {
                let r = fleet.run_round();
                migrated.extend(r.migrations);
            }
            (fleet, migrated)
        };
        let (fleet, migrated) = run();
        assert!(!migrated.is_empty(), "the outage must migrate streams");
        let json = fleet.trace_chrome_json().unwrap();
        for name in [
            "fleet.submit",
            "fleet.queue.wait",
            "fleet.lease.expire",
            "fleet.requeue",
        ] {
            assert!(json.contains(name), "missing {name} span");
        }
        // The whole chain shares the stream's seq as trace id, with
        // spans on both hosts in their disjoint rebased id ranges.
        let m = &migrated[0];
        let spans_on = |node: u32| {
            let base = node_span_base(node);
            fleet
                .node(node)
                .server()
                .trace_events()
                .unwrap()
                .iter()
                .filter(|e| e.ctx.trace == m.seq)
                .map(|e| e.ctx.span)
                .filter(|&s| s > base && s <= base + (1 << NODE_SPAN_BASE_SHIFT))
                .count()
        };
        assert!(spans_on(m.from) > 0, "origin host recorded no spans");
        assert!(spans_on(m.to) > 0, "adopting host recorded no spans");
        let fleet_spans = fleet
            .tracer
            .as_ref()
            .unwrap()
            .events()
            .iter()
            .filter(|e| e.ctx.trace == m.seq)
            .count();
        assert!(fleet_spans >= 4, "submit/queue/expire/requeue spans");
        // Byte-stable across reruns.
        assert_eq!(json, run().0.trace_chrome_json().unwrap());
    }

    #[test]
    fn sketches_record_service_time_and_queue_depth_per_node() {
        let mut fleet = failing_fleet(13);
        for _ in 0..6 {
            fleet.run_round();
        }
        let sketches = fleet.sketches();
        let per_node: u64 = (0..3)
            .map(|i| {
                sketches
                    .node(i)
                    .sketch(SKETCH_SERVICE_TIME)
                    .unwrap()
                    .count()
            })
            .sum();
        assert!(per_node > 0, "service-time sketches must fill");
        assert_eq!(sketches.merged(SKETCH_SERVICE_TIME).count(), per_node);
        // Queue depth: one sample per node per round.
        assert_eq!(sketches.merged(SKETCH_QUEUE_DEPTH).count(), 3 * 6);
        let text = sketches.render_prom();
        assert!(text.contains("mzd_cluster_node_service_time_bucket{node=\"0\""));
        assert!(text.contains("mzd_cluster_node_service_time_fleet{quantile=\"0.99\"}"));
    }

    #[test]
    fn lease_expiry_storm_dumps_a_correlated_fleet_bundle() {
        let dir = std::env::temp_dir().join(format!("mzd_cluster_pm_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut fleet = failing_fleet(9);
        fleet.attach_recorders(&RecorderSettings::new(&dir));
        let mut failed = false;
        for _ in 0..10 {
            failed |= !fleet.run_round().failed_nodes.is_empty();
        }
        assert!(failed, "the outage must expire a lease");
        let dumps = fleet.fleet_dumps();
        assert!(
            dumps
                .iter()
                .any(|(t, _)| *t == DumpTrigger::LeaseExpiryStorm),
            "missing lease-expiry-storm fleet dump: {dumps:?}"
        );
        let bundle = mzd_prof::read_fleet_bundle(&dir).unwrap();
        assert_eq!(bundle.trigger, "lease.expiry_storm");
        assert_eq!(bundle.round, 5, "keyed by the logical failure round");
        assert_eq!(bundle.entries.len(), 3);
        // Every node that ran rounds contributed a verified bundle
        // echoing its node id.
        for (i, node_bundle) in bundle.nodes.iter().enumerate() {
            let b = node_bundle.as_ref().expect("every node recorded rounds");
            assert_eq!(b.config_value("node"), Some(i.to_string().as_str()));
        }
        // A forced manual dump (e.g. --dump-on-exit) still works and
        // dedupes per trigger kind.
        assert!(fleet.trigger_fleet_dump(DumpTrigger::Manual).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lease_debit_infeasibility_errors_on_every_constructor_path() {
        // ℓ = 10 + 2 = 12 consumes the whole g = 12 budget.
        let mut cfg = ClusterConfig::paper_reference(2, 1).unwrap();
        cfg.lease_rounds = 10;
        let model = cfg.node.model().unwrap();
        // Direct composition.
        let err = ClusterGuarantee::compose(
            &model,
            cfg.node.round_length,
            cfg.node.target,
            2,
            1,
            cfg.lease_rounds,
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("consumes the glitch budget"),
            "{err}"
        );
        // Cluster::new — which builds its AdmissionController via
        // with_limit — must surface the same error, never handing
        // with_limit a degenerate zero limit.
        let err = Cluster::new(cfg.clone(), 1).unwrap_err();
        assert!(
            err.to_string().contains("consumes the glitch budget"),
            "{err}"
        );
        // Far past the budget errs the same way (no panic, no wrap).
        cfg.lease_rounds = 40;
        let err = Cluster::new(cfg.clone(), 1).unwrap_err();
        assert!(
            err.to_string().contains("consumes the glitch budget"),
            "{err}"
        );
        // The ℓ = g − 1 boundary still composes, handing with_limit a
        // positive per-disk limit.
        cfg.lease_rounds = 9;
        let fleet = Cluster::new(cfg, 1).unwrap();
        assert!(fleet.guarantee().n_star >= 1);
        assert_eq!(fleet.guarantee().g_effective, 1);
    }

    #[test]
    fn health_on_a_clean_fleet_is_quiet_and_byte_identical() {
        let run = |health: bool| {
            let cfg = ClusterConfig::paper_reference(4, 1).unwrap();
            let mut fleet = Cluster::new(cfg, 11).unwrap();
            if health {
                fleet.enable_health(HealthConfig::default()).unwrap();
            }
            for _ in 0..12 {
                fleet.submit(small_object(60)).unwrap();
            }
            let reports: Vec<ClusterRoundReport> = (0..80).map(|_| fleet.run_round()).collect();
            (reports, fleet.status())
        };
        // A passive detector perturbs nothing: the health-enabled run
        // is byte-identical to the plain one.
        assert_eq!(run(false), run(true));

        let cfg = ClusterConfig::paper_reference(4, 1).unwrap();
        let mut fleet = Cluster::new(cfg, 11).unwrap();
        fleet.enable_health(HealthConfig::default()).unwrap();
        for _ in 0..12 {
            fleet.submit(small_object(60)).unwrap();
        }
        for _ in 0..80 {
            fleet.run_round();
        }
        let s = fleet.health_status().unwrap();
        assert_eq!(s.probations, 0, "clean fleet must stay healthy: {s:?}");
        assert_eq!(s.ejections, 0);
        assert_eq!(s.hedges_issued, 0);
        assert!(!s.recomposed.frozen);
        assert_eq!(s.recomposed.degrade_rung, 0);
        assert_eq!(
            s.recomposed.effective_capacity,
            fleet.guarantee().fleet_capacity
        );
    }

    #[test]
    fn creeping_gray_node_is_probated_hedged_then_ejected_and_readmitted() {
        let mut cfg = ClusterConfig::paper_reference(8, 1).unwrap();
        cfg.node.faults = Some(mzd_fault::FaultConfig::parse("gray=creep:20:400:2.0").unwrap());
        cfg.gray_node = 2;
        let mut fleet = Cluster::new(cfg, 5).unwrap();
        fleet
            .enable_health(HealthConfig {
                warmup_rounds: 8,
                readmit_after: 50,
                ..HealthConfig::default()
            })
            .unwrap();
        let full_capacity = fleet.guarantee().fleet_capacity;
        for _ in 0..full_capacity {
            assert!(matches!(
                fleet.submit(small_object(400)).unwrap(),
                SubmitOutcome::Queued { .. }
            ));
        }
        let mut min_effective = full_capacity;
        let mut max_rung = 0u8;
        for _ in 0..280 {
            fleet.run_round();
            assert_hosted_counts_agree(&fleet);
            let s = fleet.health_status().unwrap();
            min_effective = min_effective.min(s.recomposed.effective_capacity);
            max_rung = max_rung.max(s.recomposed.degrade_rung);
        }
        let s = fleet.health_status().unwrap();
        assert!(s.probations >= 1, "creep must raise suspicion: {s:?}");
        assert!(s.ejections >= 1, "creep must eject the gray node: {s:?}");
        assert!(
            s.hedges_issued >= 1,
            "probation rounds must hedge the oldest stream: {s:?}"
        );
        assert!(s.hedges_won <= s.hedges_issued);
        // Hedge accounting: every win debits exactly one hedge cost
        // (round_length / node_capacity) from spare round slack.
        let hedge_cost = 1.0 / f64::from(fleet.guarantee().node_capacity);
        let expected = s.hedges_won as f64 * hedge_cost;
        assert!(
            (s.hedge_slack_debited - expected).abs() < 1e-9,
            "slack ledger {} != {} wins x {hedge_cost}",
            s.hedge_slack_debited,
            s.hedges_won
        );
        // The ejected member holds no streams; the survivors took them
        // through the same requeue path lease expiry uses.
        assert!(
            s.readmissions >= 1,
            "backed-off readmission trial must fire within 280 rounds: {s:?}"
        );
        // Re-composed guarantee: while the node was out, capacity was
        // debited and the degrade rung raised. (The end state may have
        // restored both if a readmission trial is in flight — that is
        // the self-healing working, not a failure.)
        assert!(min_effective < full_capacity);
        assert!(max_rung >= 1);
        assert_eq!(s.recomposed.members, 8 - s.ejected_nodes);
        // No lease ever expired: ejection is not a lease event, and the
        // ejected node keeps renewing while excluded from dispatch.
        assert_eq!(fleet.status().live_nodes, 8);
    }

    #[test]
    fn ejection_that_overcommits_the_survivors_freezes_admission() {
        let mut cfg = ClusterConfig::paper_reference(3, 1).unwrap();
        cfg.node.faults = Some(mzd_fault::FaultConfig::parse("gray=slow:2.5").unwrap());
        cfg.gray_node = 0;
        let mut fleet = Cluster::new(cfg, 7).unwrap();
        fleet
            .enable_health(HealthConfig {
                warmup_rounds: 6,
                ..HealthConfig::default()
            })
            .unwrap();
        let cap = fleet.guarantee().fleet_capacity;
        for _ in 0..cap {
            fleet.submit(small_object(600)).unwrap();
        }
        for _ in 0..60 {
            fleet.run_round();
        }
        let s = fleet.health_status().unwrap();
        assert!(s.ejections >= 1, "persistent slow node must eject: {s:?}");
        assert_eq!(
            fleet.node(0).server().active_streams(),
            0,
            "ejected node drained"
        );
        // Two survivors re-compose to one serving member + one spare:
        // the committed load no longer fits, so admission freezes.
        assert!(s.recomposed.frozen, "{s:?}");
        assert_eq!(s.recomposed.degrade_rung, 2);
        assert_eq!(
            fleet.submit(small_object(10)).unwrap(),
            SubmitOutcome::Rejected { fleet_capacity: 0 }
        );
    }

    #[test]
    fn rounds_are_deterministic_for_a_fixed_seed() {
        let run = || {
            let mut cfg = ClusterConfig::paper_reference(4, 2).unwrap();
            cfg.outages.push(NodeOutage {
                node: 2,
                start: 3,
                rounds: 20,
            });
            let mut fleet = Cluster::new(cfg, 77).unwrap();
            let mut log = Vec::new();
            for i in 0..30 {
                if i % 2 == 0 {
                    fleet.submit(small_object(12)).unwrap();
                }
                log.push(fleet.run_round());
            }
            (log, fleet.status())
        };
        assert_eq!(run(), run());
    }
}
