//! `cluster.*` metric handles.
//!
//! Registered eagerly when the [`crate::Cluster`] is constructed — a
//! healthy fleet that never loses a node still exposes the full
//! (zeroed) family, so calm and chaotic runs present identical metric
//! catalogs to scrapers and the Prometheus exposition (the same
//! contract the `fault.*` family keeps).

/// Handles for every `cluster.*` series, created at construction.
#[derive(Debug)]
pub(crate) struct ClusterMetrics {
    /// `cluster.nodes` — configured fleet size.
    pub nodes: mzd_telemetry::Gauge,
    /// `cluster.nodes.available` — nodes holding a live lease.
    pub nodes_available: mzd_telemetry::Gauge,
    /// `cluster.nodes.failed` — lease expirations declared so far.
    pub nodes_failed: mzd_telemetry::Counter,
    /// `cluster.streams.active` — streams hosted fleet-wide.
    pub streams_active: mzd_telemetry::Gauge,
    /// `cluster.streams.waiting` — requests parked in node queues.
    pub streams_waiting: mzd_telemetry::Gauge,
    /// `cluster.dispatch.submitted` — requests accepted by `submit`.
    pub submitted: mzd_telemetry::Counter,
    /// `cluster.dispatch.rejected` — requests refused (fleet at its
    /// composed capacity).
    pub rejected: mzd_telemetry::Counter,
    /// `cluster.dispatch.admitted` — queue pulls that opened a stream.
    pub admitted: mzd_telemetry::Counter,
    /// `cluster.dispatch.requeued` — pendings re-routed off a failed
    /// node's queue plus evacuated streams re-entering the line.
    pub requeued: mzd_telemetry::Counter,
    /// `cluster.lease.renewals` — successful per-round lease renewals.
    pub lease_renewals: mzd_telemetry::Counter,
    /// `cluster.lease.expirations` — leases declared expired.
    pub lease_expirations: mzd_telemetry::Counter,
    /// `cluster.migrations` — migration waves (one per failed node).
    pub migrations: mzd_telemetry::Counter,
    /// `cluster.migrated_streams` — streams moved by those waves.
    pub migrated_streams: mzd_telemetry::Counter,
    /// `cluster.glitches` — stream-glitch events fleet-wide (host
    /// glitches plus outage charges).
    pub glitches: mzd_telemetry::Counter,
    /// `cluster.glitches.outage` — the subset charged to silent hosts
    /// and post-migration queue wait.
    pub glitches_outage: mzd_telemetry::Counter,
    /// `cluster.round.queue_depth` — fleet queue depth sampled each
    /// round.
    pub queue_depth: mzd_telemetry::Histogram,
    /// `cluster.p_error_bound` — the composed per-stream bound the
    /// current admission level carries.
    pub p_error_bound: mzd_telemetry::Gauge,
    /// `server.buffer.occupancy` — the nodes share this gauge, so the
    /// fleet overwrites it each round with the sum over stepped nodes.
    pub buffer_occupancy: mzd_telemetry::Gauge,
}

/// Handles for every `health.*` series, created eagerly when
/// [`crate::Cluster::enable_health`] is called — a health-enabled run
/// that never probates anyone still exposes the full (zeroed) family.
#[derive(Debug)]
pub(crate) struct HealthMetrics {
    /// `health.enabled` — `1` while the detector is attached.
    pub enabled: mzd_telemetry::Gauge,
    /// `health.suspicion.max` — highest per-node suspicion this round.
    pub suspicion_max: mzd_telemetry::Gauge,
    /// `health.nodes.probation` — nodes currently on probation.
    pub nodes_probation: mzd_telemetry::Gauge,
    /// `health.nodes.ejected` — nodes currently ejected.
    pub nodes_ejected: mzd_telemetry::Gauge,
    /// `health.probations` — probation entries so far.
    pub probations: mzd_telemetry::Counter,
    /// `health.ejections` — ejections so far.
    pub ejections: mzd_telemetry::Counter,
    /// `health.readmissions` — readmission trials begun so far.
    pub readmissions: mzd_telemetry::Counter,
    /// `health.clears` — probations cleared back to healthy.
    pub clears: mzd_telemetry::Counter,
    /// `health.hedges.issued` — hedged duplicate rounds dispatched.
    pub hedges_issued: mzd_telemetry::Counter,
    /// `health.hedges.won` — hedges the spare completed inside its
    /// round slack (first-completion wins).
    pub hedges_won: mzd_telemetry::Counter,
    /// `health.hedge.slack_debited` — cumulative spare round-slack
    /// spent on winning hedges, in seconds.
    pub hedge_slack_debited: mzd_telemetry::Gauge,
    /// `health.fleet.capacity` — the re-composed effective capacity.
    pub fleet_capacity: mzd_telemetry::Gauge,
    /// `health.fleet.degrade_rung` — 0 full, 1 re-composed, 2 frozen.
    pub degrade_rung: mzd_telemetry::Gauge,
    /// `health.admission.frozen` — `1` while submissions are refused.
    pub admission_frozen: mzd_telemetry::Gauge,
}

impl HealthMetrics {
    pub(crate) fn new() -> Self {
        let g = mzd_telemetry::global();
        Self {
            enabled: g.gauge("health.enabled"),
            suspicion_max: g.gauge("health.suspicion.max"),
            nodes_probation: g.gauge("health.nodes.probation"),
            nodes_ejected: g.gauge("health.nodes.ejected"),
            probations: g.counter("health.probations"),
            ejections: g.counter("health.ejections"),
            readmissions: g.counter("health.readmissions"),
            clears: g.counter("health.clears"),
            hedges_issued: g.counter("health.hedges.issued"),
            hedges_won: g.counter("health.hedges.won"),
            hedge_slack_debited: g.gauge("health.hedge.slack_debited"),
            fleet_capacity: g.gauge("health.fleet.capacity"),
            degrade_rung: g.gauge("health.fleet.degrade_rung"),
            admission_frozen: g.gauge("health.admission.frozen"),
        }
    }
}

impl ClusterMetrics {
    pub(crate) fn new() -> Self {
        let g = mzd_telemetry::global();
        Self {
            nodes: g.gauge("cluster.nodes"),
            nodes_available: g.gauge("cluster.nodes.available"),
            nodes_failed: g.counter("cluster.nodes.failed"),
            streams_active: g.gauge("cluster.streams.active"),
            streams_waiting: g.gauge("cluster.streams.waiting"),
            submitted: g.counter("cluster.dispatch.submitted"),
            rejected: g.counter("cluster.dispatch.rejected"),
            admitted: g.counter("cluster.dispatch.admitted"),
            requeued: g.counter("cluster.dispatch.requeued"),
            lease_renewals: g.counter("cluster.lease.renewals"),
            lease_expirations: g.counter("cluster.lease.expirations"),
            migrations: g.counter("cluster.migrations"),
            migrated_streams: g.counter("cluster.migrated_streams"),
            glitches: g.counter("cluster.glitches"),
            glitches_outage: g.counter("cluster.glitches.outage"),
            queue_depth: g.histogram("cluster.round.queue_depth"),
            p_error_bound: g.gauge("cluster.p_error_bound"),
            buffer_occupancy: g.gauge("server.buffer.occupancy"),
        }
    }
}
