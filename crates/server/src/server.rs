//! The server proper: stream lifecycle, per-disk round scheduling, and
//! glitch accounting.
//!
//! [`VideoServer`] owns `D` per-disk round simulators, an admission
//! controller derived from the analytic model, and the active sessions.
//! Each call to [`VideoServer::run_round`] advances global time by one
//! round: every active stream requests its next fragment from the disk
//! the striping layout assigns it, each disk serves its batch in one SCAN
//! sweep, and streams whose requests completed after the deadline record
//! a glitch (§2.3).

use crate::admission::{AdmissionController, AdmissionDecision, QualityTarget};
use crate::buffer::BufferTracker;
use crate::degrade::{
    DegradeSettings, DegradeState, DegradeStatus, DegradeTransition, RUNG_DOWNSHIFT,
    RUNG_DROP_PREFETCH, RUNG_FREEZE_OVER_ADMISSION, RUNG_PAUSE_NEWEST,
};
use crate::slo::{SloSettings, SloState, SloStatus};
use crate::striping::StripingLayout;
use crate::trace::StreamTracer;
use crate::ServerError;
use mzd_cache::{CacheConfig, CachePolicy, FragmentCache, FragmentKey, Lookup};
use mzd_core::{GuaranteeModel, ZoneHandling};
use mzd_disk::Disk;
use mzd_fault::FaultConfig;
use mzd_sim::round::{OverrunPolicy, RoundSimulator, SeekPolicy, SimConfig};
use mzd_slo::{AlertTransition, DriftTransition};
use mzd_workload::{ObjectSpec, SizeDistribution};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// Rounds of cache-lookup history the hit-ratio measurement window spans.
const HIT_WINDOW_ROUNDS: usize = 64;
/// Minimum lookups in the window before cache-aware admission trusts the
/// measured hit ratio at all (below this, inflation stays off).
const HIT_WINDOW_MIN_TRIALS: u64 = 256;

/// Global-registry handles cached per server so per-round and
/// per-admission paths skip the registry lock.
#[derive(Debug)]
struct ServerMetrics {
    accepted: mzd_telemetry::Counter,
    rejected: mzd_telemetry::Counter,
    queued: mzd_telemetry::Counter,
    queue_depth: mzd_telemetry::Histogram,
    buffer_occupancy: mzd_telemetry::Gauge,
    waiting: mzd_telemetry::Gauge,
    cache_hits: mzd_telemetry::Counter,
    cache_misses: mzd_telemetry::Counter,
    cache_delayed_hits: mzd_telemetry::Counter,
    cache_evictions: mzd_telemetry::Counter,
    cache_occupancy: mzd_telemetry::Gauge,
    cache_hit_latency: mzd_telemetry::Histogram,
    round_overrun: mzd_telemetry::Counter,
    prefetch_fetched: mzd_telemetry::Counter,
}

impl ServerMetrics {
    fn new() -> Self {
        let g = mzd_telemetry::global();
        Self {
            accepted: g.counter("server.admission.accepted"),
            rejected: g.counter("server.admission.rejected"),
            queued: g.counter("server.admission.queued"),
            queue_depth: g.histogram("server.round.queue_depth"),
            buffer_occupancy: g.gauge("server.buffer.occupancy"),
            waiting: g.gauge("server.round.waiting"),
            cache_hits: g.counter("cache.hits"),
            cache_misses: g.counter("cache.misses"),
            cache_delayed_hits: g.counter("cache.delayed_hits"),
            cache_evictions: g.counter("cache.evictions"),
            cache_occupancy: g.gauge("cache.occupancy_bytes"),
            cache_hit_latency: g.histogram("cache.hit_latency_rounds"),
            round_overrun: g.counter("server.round.overrun"),
            prefetch_fetched: g.counter("server.prefetch.fetched"),
        }
    }
}

/// Fragment-cache settings of a server.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheSettings {
    /// Cache byte budget. `0` disables the cache entirely — the server
    /// takes the exact cacheless code path, so a seeded run with a
    /// zero-byte cache is byte-identical to one with no cache configured.
    pub capacity_bytes: f64,
    /// Replacement policy.
    pub policy: CachePolicy,
    /// `Some(safety)` additionally enables cache-aware admission: the
    /// per-disk limit inflates to `N_max / (1 − h·(1−safety))`, `h` a
    /// conservative lower confidence bound on the measured disk-avoidance
    /// ratio over a 64-round sliding window. Ignored while the cache is
    /// disabled.
    pub admission_safety: Option<f64>,
}

impl CacheSettings {
    /// LRU cache of the given size, without cache-aware admission.
    #[must_use]
    pub fn lru(capacity_bytes: f64) -> Self {
        Self {
            capacity_bytes,
            policy: CachePolicy::Lru,
            admission_safety: None,
        }
    }
}

/// Server-wide configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// The (homogeneous) disk model used by every spindle.
    pub disk: Disk,
    /// Number of disks `D`.
    pub disks: u32,
    /// Round length `t`, seconds.
    pub round_length: f64,
    /// The admission quality target.
    pub target: QualityTarget,
    /// Fragment-size moments fed to the admission model (the "workload
    /// statistics" of §2.3 — e.g. [`mzd_workload::ObjectCatalog::pooled_moments`]).
    pub admission_size_mean: f64,
    /// Fragment-size variance for the admission model.
    pub admission_size_variance: f64,
    /// Optional fragment cache in front of the disks. `None` (and
    /// `Some` with a zero byte budget) run the server cacheless.
    pub cache: Option<CacheSettings>,
    /// Optional fault injection on the disks. `FaultConfig::only_disk`
    /// restricts the injector to one spindle (degrading-disk drills);
    /// other disks run clean. `None` runs all disks fault-free.
    pub faults: Option<FaultConfig>,
    /// Work-ahead prefetch depth in fragments (0 = off). When a cache is
    /// configured, each disk uses its post-sweep slack to pull up to this
    /// many upcoming fragments per stream into the cache, best-effort.
    /// Dropped at degradation rung 2+.
    pub work_ahead: u32,
    /// Optional graceful-degradation ladder, driven by the SLO layer's
    /// fast-burn alert (requires [`VideoServer::enable_slo`] to actually
    /// escalate — without the burn signal the ladder stays at rung 0).
    pub degrade: Option<DegradeSettings>,
}

impl ServerConfig {
    /// The paper's reference server: `disks` Quantum Viking 2.1 spindles,
    /// 1-second rounds, Gamma(200 KB, (100 KB)²) workload statistics, and
    /// the per-stream glitch-rate target (M = 1200, g = 12, ε = 1%).
    ///
    /// # Errors
    /// [`ServerError::Invalid`] for zero disks.
    pub fn paper_reference(disks: u32) -> Result<Self, ServerError> {
        if disks == 0 {
            return Err(ServerError::Invalid(
                "a server needs at least one disk".into(),
            ));
        }
        let disk = mzd_disk::profiles::quantum_viking_2_1()
            .build()
            .map_err(|e| ServerError::Invalid(e.to_string()))?;
        Ok(Self {
            disk,
            disks,
            round_length: 1.0,
            target: QualityTarget::GlitchRate {
                m: 1200,
                g: 12,
                epsilon: 0.01,
            },
            admission_size_mean: 200_000.0,
            admission_size_variance: 1e10,
            cache: None,
            faults: None,
            work_ahead: 0,
            degrade: None,
        })
    }

    /// Build the analytic model this configuration implies.
    ///
    /// # Errors
    /// Propagates model-construction errors.
    pub fn model(&self) -> Result<GuaranteeModel, ServerError> {
        Ok(GuaranteeModel::new(
            self.disk.clone(),
            self.admission_size_mean,
            self.admission_size_variance,
            ZoneHandling::Discrete,
        )?)
    }
}

/// Opaque handle to an admitted stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamHandle(u64);

impl StreamHandle {
    /// The raw stream id.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.0
    }
}

/// An active session.
#[derive(Debug)]
struct Session {
    id: u64,
    object: ObjectSpec,
    fragments_consumed: u32,
    start_disk: u32,
    /// The disk holding the next fragment, `(start_disk +
    /// fragments_consumed) mod D`, stepped by one disk per advance so the
    /// round path never divides.
    disk: u32,
    glitches: u64,
    buffer: BufferTracker,
    /// Paused streams hold their admission reservation but request no
    /// fragments (VCR pause with guaranteed resumption).
    paused: bool,
    /// Degradable streams accept a reduced fragment size at degradation
    /// rung 3+ (a lower-bitrate rendition).
    degradable: bool,
}

/// A point-in-time view of one active session, carrying everything
/// needed to migrate the stream to another server: the object, play-out
/// progress, and the glitches already charged to it.
#[derive(Debug, Clone, PartialEq)]
pub struct ActiveStreamInfo {
    /// The stream's handle on this server.
    pub handle: StreamHandle,
    /// The object being played out.
    pub object: ObjectSpec,
    /// Fragments consumed so far (the resume point).
    pub fragments_consumed: u32,
    /// Glitches suffered so far on this server.
    pub glitches: u64,
    /// Whether the stream is currently paused.
    pub paused: bool,
}

/// A finished (played-out or cancelled) stream's record.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedStream {
    /// Stream id.
    pub id: u64,
    /// Object name.
    pub object: String,
    /// Rounds actually played.
    pub rounds_played: u32,
    /// Glitches suffered.
    pub glitches: u64,
    /// Client buffer high-water mark, bytes.
    pub buffer_high_water: f64,
}

/// Report for one global round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundReport {
    /// 0-based round index.
    pub round: u64,
    /// Per-disk summaries, carrying the full phase decomposition
    /// (`seek + rotational + transfer + stall + fault == service_time`
    /// exactly — the invariant `mzd postmortem` audits).
    pub disks: Vec<mzd_prof::DiskPhases>,
    /// Stream ids that glitched this round.
    pub glitched_streams: Vec<u64>,
    /// Stream ids that finished play-out this round.
    pub completed_streams: Vec<u64>,
    /// Stream ids admitted from the wait queue at the end of this round.
    pub admitted_from_queue: Vec<u64>,
    /// Total client-buffer backlog (bytes) after this round, the value
    /// of the `server.buffer.occupancy` gauge.
    pub buffer_occupancy: f64,
}

/// The continuous-media server.
#[derive(Debug)]
pub struct VideoServer {
    cfg: ServerConfig,
    layout: StripingLayout,
    admission: AdmissionController,
    disks: Vec<RoundSimulator>,
    sessions: Vec<Session>,
    completed: Vec<CompletedStream>,
    /// Pending requests as `(arrival id, object)`, in FIFO order:
    /// [`Self::enqueue_stream`] appends and [`Self::drain_wait_queue`]
    /// admits strictly front-first.
    waiting: std::collections::VecDeque<(u64, ObjectSpec)>,
    rng: StdRng,
    next_id: u64,
    rounds_run: u64,
    rejected: u64,
    /// Incremental per-disk active-stream counts, kept in lockstep with
    /// session open/close/advance so admission probes and batching never
    /// rescan the session list.
    load: Vec<u32>,
    /// Fragment cache in front of the disks (None = cacheless path).
    cache: Option<FragmentCache>,
    /// Sliding window of per-round `(lookups, disk visits avoided)` used
    /// to measure the hit ratio for cache-aware admission.
    hit_window: std::collections::VecDeque<(u64, u64)>,
    /// Scratch: per-disk session indices for the current round.
    batch: Vec<Vec<usize>>,
    /// Scratch: per-disk fragment sizes for the current round.
    batch_sizes: Vec<Vec<f64>>,
    /// Scratch: per-disk cache keys being fetched by each batch slot
    /// (None for uncached requests).
    batch_keys: Vec<Vec<Option<FragmentKey>>>,
    /// Scratch: per-disk work-ahead prefetch sizes for the current round.
    extra_sizes: Vec<Vec<f64>>,
    /// Scratch: per-disk cache keys of the work-ahead prefetches.
    extra_keys: Vec<Vec<FragmentKey>>,
    metrics: ServerMetrics,
    /// Optional SLO layer: burn alerting and conformance.
    slo: Option<SloState>,
    /// Optional causal tracing; records spans and nothing else.
    tracing: Option<StreamTracer>,
    /// Optional graceful-degradation ladder.
    degrade: Option<DegradeState>,
    /// Streams paused by the ladder's rung-4 shed, to resume on recovery.
    shed_by_degrade: Vec<u64>,
    /// Optional flight recorder: retains a ring of per-round snapshots
    /// and dumps a post-mortem bundle on alert/escalation/overrun.
    recorder: Option<mzd_prof::Recorder>,
}

impl VideoServer {
    /// Bring up a server: derives the admission limit from the analytic
    /// model and initializes one round simulator per disk.
    ///
    /// # Errors
    /// Propagates configuration and model errors.
    pub fn new(cfg: ServerConfig, seed: u64) -> Result<Self, ServerError> {
        let layout = StripingLayout::new(cfg.disks)?;
        let model = cfg.model()?;
        let mut admission = AdmissionController::from_model(&model, cfg.round_length, cfg.target)?;
        let cache = match &cfg.cache {
            Some(settings) if settings.capacity_bytes > 0.0 => Some(
                FragmentCache::new(CacheConfig {
                    capacity_bytes: settings.capacity_bytes,
                    policy: settings.policy,
                })
                .map_err(|e| ServerError::Invalid(e.to_string()))?,
            ),
            _ => None,
        };
        if cache.is_some() {
            if let Some(safety) = cfg.cache.as_ref().and_then(|s| s.admission_safety) {
                admission.enable_cache_aware(safety)?;
            }
        }
        if let Some(fc) = &cfg.faults {
            fc.validate()
                .map_err(|e| ServerError::Invalid(e.to_string()))?;
            if let Some(d) = fc.only_disk {
                if d >= cfg.disks {
                    return Err(ServerError::Invalid(format!(
                        "fault only_disk {d} out of range for {} disks",
                        cfg.disks
                    )));
                }
            }
        }
        let degrade = cfg.degrade.map(DegradeState::new).transpose()?;
        let sim_cfg = SimConfig {
            disk: cfg.disk.clone(),
            sizes: SizeDistribution::gamma(cfg.admission_size_mean, cfg.admission_size_variance)
                .map_err(|e| ServerError::Invalid(e.to_string()))?,
            round_length: cfg.round_length,
            seek_policy: SeekPolicy::Scan,
            overrun: OverrunPolicy::CompleteAll,
            placement: mzd_disk::PlacementPolicy::UniformByCapacity,
            recalibration: None,
            faults: None,
        };
        // Preallocate each simulator's round state for the admission cap
        // (plus headroom for cache-aware over-admission), so steady-state
        // rounds do zero allocations in the event core.
        let round_capacity = admission
            .effective_per_disk_limit()
            .max(admission.per_disk_limit()) as usize
            + 8;
        let disks = (0..cfg.disks)
            .map(|d| {
                let mut sc = sim_cfg.clone();
                // `only_disk` scopes the injector to one spindle; the
                // others run clean (byte-identical to a fault-free disk).
                sc.faults = cfg
                    .faults
                    .as_ref()
                    .filter(|fc| fc.only_disk.map_or(true, |k| k == d))
                    .cloned();
                RoundSimulator::with_capacity(
                    sc,
                    seed.wrapping_add(u64::from(d) + 1),
                    round_capacity,
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        let disk_count = cfg.disks as usize;
        Ok(Self {
            cfg,
            layout,
            admission,
            disks,
            sessions: Vec::new(),
            completed: Vec::new(),
            waiting: std::collections::VecDeque::new(),
            rng: StdRng::seed_from_u64(seed),
            next_id: 0,
            rounds_run: 0,
            rejected: 0,
            load: vec![0; disk_count],
            cache,
            hit_window: std::collections::VecDeque::with_capacity(HIT_WINDOW_ROUNDS + 1),
            batch: vec![Vec::new(); disk_count],
            batch_sizes: vec![Vec::new(); disk_count],
            batch_keys: vec![Vec::new(); disk_count],
            extra_sizes: vec![Vec::new(); disk_count],
            extra_keys: vec![Vec::new(); disk_count],
            metrics: ServerMetrics::new(),
            slo: None,
            tracing: None,
            degrade,
            shed_by_degrade: Vec::new(),
            recorder: None,
        })
    }

    /// Attach a flight recorder. Every subsequent round pushes one
    /// [`mzd_prof::RoundSnapshot`] into its ring; an SLO fast-burn alert,
    /// a degradation-ladder escalation, or a round overrun triggers a
    /// post-mortem bundle dump (deduplicated per trigger kind by the
    /// recorder itself). Replaces any previously attached recorder.
    pub fn attach_recorder(&mut self, recorder: mzd_prof::Recorder) {
        self.recorder = Some(recorder);
    }

    /// The attached flight recorder, `None` until
    /// [`Self::attach_recorder`].
    #[must_use]
    pub fn recorder(&self) -> Option<&mzd_prof::Recorder> {
        self.recorder.as_ref()
    }

    /// Attach the SLO layer: a burn-rate engine over the admitted glitch
    /// budget and optional online model-conformance checking. Replaces
    /// any previously attached SLO state.
    ///
    /// # Errors
    /// [`ServerError::Invalid`] for degenerate burn or conformance
    /// configuration.
    pub fn enable_slo(&mut self, settings: SloSettings) -> Result<(), ServerError> {
        let model = self.cfg.model()?;
        self.slo = Some(SloState::new(settings, model)?);
        Ok(())
    }

    /// A point-in-time SLO summary, `None` until [`Self::enable_slo`].
    #[must_use]
    pub fn slo_status(&self) -> Option<SloStatus> {
        self.slo
            .as_ref()
            .map(|s| s.status(self.admission.over_admission_frozen()))
    }

    /// Record causal spans from now on, with span ids from `span_base + 1`
    /// ([`mzd_slo::Tracer::set_span_base`]; a cluster gives each node a
    /// disjoint range). Tracing only records: no other output changes.
    /// Replaces any recorded trace; call before any stream opens.
    pub fn enable_tracing(&mut self, span_base: u64) {
        self.tracing = Some(StreamTracer::new(span_base));
    }

    /// The recorded causal trace as Chrome trace-event JSON, `None`
    /// until [`Self::enable_tracing`].
    #[must_use]
    pub fn trace_chrome_json(&self) -> Option<String> {
        self.tracing.as_ref().map(|t| t.tracer.to_chrome_json())
    }

    /// The raw recorded spans, `None` until [`Self::enable_tracing`] —
    /// what a fleet reads to stitch per-node traces into one file.
    #[must_use]
    pub fn trace_events(&self) -> Option<&[mzd_slo::TraceEvent]> {
        self.tracing.as_ref().map(|t| t.tracer.events())
    }

    /// Spans dropped after the tracer's capacity was reached (0 when
    /// tracing is off).
    #[must_use]
    pub fn trace_dropped(&self) -> u64 {
        self.tracing.as_ref().map_or(0, |t| t.tracer.dropped())
    }

    /// Logical time of the round about to run, in microseconds (round
    /// index × round length) — the tracer's clock.
    fn trace_now_us(&self) -> u64 {
        (self.rounds_run as f64 * self.cfg.round_length * 1e6) as u64
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// The admission controller in effect.
    #[must_use]
    pub fn admission(&self) -> &AdmissionController {
        &self.admission
    }

    /// Number of active streams.
    #[must_use]
    pub fn active_streams(&self) -> usize {
        self.sessions.len()
    }

    /// Rounds run so far.
    #[must_use]
    pub fn rounds_run(&self) -> u64 {
        self.rounds_run
    }

    /// Streams rejected by admission control so far.
    #[must_use]
    pub fn rejected_streams(&self) -> u64 {
        self.rejected
    }

    /// Records of streams that finished play-out.
    #[must_use]
    pub fn completed_streams(&self) -> &[CompletedStream] {
        &self.completed
    }

    /// Snapshots of every active session, sorted by stream id (admission
    /// order) — the evacuation manifest a cluster layer reads before
    /// migrating this node's streams elsewhere.
    #[must_use]
    pub fn active_session_info(&self) -> Vec<ActiveStreamInfo> {
        let mut info: Vec<ActiveStreamInfo> = self
            .sessions
            .iter()
            .map(|s| ActiveStreamInfo {
                handle: StreamHandle(s.id),
                object: s.object.clone(),
                fragments_consumed: s.fragments_consumed,
                glitches: s.glitches,
                paused: s.paused,
            })
            .collect();
        info.sort_by_key(|s| s.handle.id());
        info
    }

    /// The fragment cache, if one is configured and enabled.
    #[must_use]
    pub fn cache(&self) -> Option<&FragmentCache> {
        self.cache.as_ref()
    }

    /// Per-disk active stream counts *for the next round* (each session is
    /// pinned to one disk per round by the striping rotation). Paused
    /// sessions are counted: they hold their admission reservation so
    /// resumption is always possible without re-admission.
    ///
    /// O(D): the counts are maintained incrementally on every open, close,
    /// queue drain and round advance rather than rescanned per call.
    #[must_use]
    pub fn per_disk_load(&self) -> Vec<u32> {
        debug_assert_eq!(
            self.load,
            self.recompute_per_disk_load(),
            "incremental per-disk load out of sync with sessions"
        );
        self.load.clone()
    }

    /// Reference recomputation of the load vector by scanning sessions —
    /// the pre-incremental O(active streams) definition from the
    /// closed-form striping map, retained to cross-check both the
    /// incremental counts and every session's carried disk in debug
    /// builds and tests.
    fn recompute_per_disk_load(&self) -> Vec<u32> {
        let mut load = vec![0u32; self.cfg.disks as usize];
        for s in &self.sessions {
            let d = self
                .layout
                .disk_of_fragment(s.start_disk, s.fragments_consumed);
            debug_assert_eq!(s.disk, d, "stream {} carries the wrong disk", s.id);
            load[d as usize] += 1;
        }
        load
    }

    /// Try to open a stream on `object`. Admission is stochastic-guarantee
    /// driven: the request is rejected if any disk would exceed the
    /// precomputed per-disk limit.
    ///
    /// # Errors
    /// The rejecting [`AdmissionDecision::Reject`], carrying the
    /// per-disk limit in force. The stream is not queued;
    /// [`Self::enqueue_stream`] postpones instead.
    pub fn open_stream(&mut self, object: ObjectSpec) -> Result<StreamHandle, AdmissionDecision> {
        self.open_stream_with_root(object, None)
    }

    /// [`Self::open_stream`] under an externally minted root span
    /// context, if given: the admission span and every subsequent round
    /// span of the new stream hang off `root` instead of a locally
    /// created root. This is the cluster's trace-stitching entry point —
    /// the dispatcher mints one root per stream at submission and
    /// threads it through queue, lease and migration onto whichever node
    /// finally admits, so a migrated stream renders as one causal chain.
    /// Behaves exactly like `open_stream` when tracing is off.
    ///
    /// # Errors
    /// The admission rejection, exactly as [`Self::open_stream`].
    pub fn open_stream_with_root(
        &mut self,
        object: ObjectSpec,
        root: Option<mzd_telemetry::SpanContext>,
    ) -> Result<StreamHandle, AdmissionDecision> {
        // The rotation visits every disk, so the binding constraint is the
        // most loaded disk — checked by the controller.
        match self.admission.decide(&self.load) {
            AdmissionDecision::Admit => {
                let id = self.next_id;
                self.next_id += 1;
                self.admit(id, object, "accept", root);
                Ok(StreamHandle(id))
            }
            reject @ AdmissionDecision::Reject { .. } => {
                self.rejected += 1;
                self.metrics.rejected.inc();
                if mzd_telemetry::events_enabled() {
                    mzd_telemetry::emit(
                        mzd_telemetry::Event::new("server.admission")
                            .str("decision", "reject")
                            .u64("active", self.sessions.len() as u64),
                    );
                }
                Err(reject)
            }
        }
    }

    /// Enqueue a stream request instead of rejecting it: §1's alternative
    /// ("the request is turned away or postponed until one or more active
    /// streams terminate"). If capacity is free the stream opens
    /// immediately (the returned handle is Some); otherwise it waits in
    /// FIFO order and is admitted by [`Self::run_round`] as capacity
    /// frees.
    pub fn enqueue_stream(&mut self, object: ObjectSpec) -> Option<StreamHandle> {
        // Probe admission before open_stream so a postponed request is
        // classified as queued, never as rejected.
        if matches!(self.admission.decide(&self.load), AdmissionDecision::Admit) {
            return self.open_stream(object).ok();
        }
        let id = self.next_id;
        self.next_id += 1;
        self.waiting.push_back((id, object));
        self.metrics.queued.inc();
        self.metrics.waiting.set(self.waiting.len() as f64);
        let ts = self.trace_now_us();
        if let Some(t) = self.tracing.as_mut() {
            t.record_stream_span(id, "queue.wait", "admission", ts, 1, &[]);
        }
        if mzd_telemetry::events_enabled() {
            mzd_telemetry::emit(
                mzd_telemetry::Event::new("server.admission")
                    .str("decision", "queue")
                    .u64("stream", id)
                    .u64("waiting", self.waiting.len() as u64),
            );
        }
        None
    }

    /// Number of stream requests waiting for capacity.
    #[must_use]
    pub fn waiting_streams(&self) -> usize {
        self.waiting.len()
    }

    /// Admit as many waiting requests as capacity allows, strictly
    /// front-first, so admission order equals arrival order. Called
    /// automatically at the end of every round; public so callers can
    /// trigger it after [`Self::close_stream`].
    pub fn drain_wait_queue(&mut self) -> Vec<StreamHandle> {
        let mut admitted = Vec::new();
        while !self.waiting.is_empty()
            && matches!(self.admission.decide(&self.load), AdmissionDecision::Admit)
        {
            let (id, object) = self.waiting.pop_front().expect("checked non-empty");
            self.admit(id, object, "dequeue", None);
            admitted.push(StreamHandle(id));
        }
        self.metrics.waiting.set(self.waiting.len() as f64);
        admitted
    }

    /// Open stream `id` on `object` once admission said yes: start it
    /// on the least-loaded disk to keep the rotation balanced, register
    /// its cache reader, and record the admission. `decision` labels
    /// the `server.admission` event (`accept` for a direct open,
    /// `dequeue` for a queue drain); `root`, if given, roots the
    /// stream's trace.
    fn admit(
        &mut self,
        id: u64,
        object: ObjectSpec,
        decision: &'static str,
        root: Option<mzd_telemetry::SpanContext>,
    ) {
        let start = self
            .load
            .iter()
            .enumerate()
            .min_by_key(|&(_, &l)| l)
            .map(|(d, _)| d as u32)
            .unwrap_or(0);
        self.load[start as usize] += 1;
        if let (Some(cache), Some(cid)) = (self.cache.as_mut(), object.content_id) {
            cache.update_reader(id, cid, 0);
        }
        self.sessions.push(Session {
            id,
            object,
            fragments_consumed: 0,
            start_disk: start,
            disk: start,
            glitches: 0,
            buffer: BufferTracker::new(),
            paused: false,
            degradable: false,
        });
        self.metrics.accepted.inc();
        let ts = self.trace_now_us();
        if let Some(t) = self.tracing.as_mut() {
            if let Some(root) = root {
                t.stream_roots.insert(id, root);
            }
            t.record_stream_span(
                id,
                "admit",
                "admission",
                ts,
                1,
                &[("disk", u64::from(start))],
            );
        }
        if mzd_telemetry::events_enabled() {
            mzd_telemetry::emit(
                mzd_telemetry::Event::new("server.admission")
                    .str("decision", decision)
                    .u64("stream", id)
                    .u64("disk", u64::from(start)),
            );
        }
    }

    /// Close a stream before it finishes (client hang-up). Its record goes
    /// to [`Self::completed_streams`].
    ///
    /// # Errors
    /// [`ServerError::UnknownStream`] if the handle is not active.
    pub fn close_stream(&mut self, handle: StreamHandle) -> Result<(), ServerError> {
        let idx = self
            .sessions
            .iter()
            .position(|s| s.id == handle.0)
            .ok_or(ServerError::UnknownStream(handle.0))?;
        let s = self.sessions.swap_remove(idx);
        self.load[s.disk as usize] -= 1;
        if let (Some(cache), Some(_)) = (self.cache.as_mut(), s.object.content_id) {
            cache.remove_reader(s.id);
        }
        if let Some(t) = self.tracing.as_mut() {
            t.stream_roots.remove(&s.id);
        }
        self.completed.push(CompletedStream {
            id: s.id,
            object: s.object.name.clone(),
            rounds_played: s.fragments_consumed,
            glitches: s.glitches,
            buffer_high_water: s.buffer.high_water(),
        });
        Ok(())
    }

    /// Glitches suffered so far by an active stream.
    ///
    /// # Errors
    /// [`ServerError::UnknownStream`] if the handle is not active.
    pub fn stream_glitches(&self, handle: StreamHandle) -> Result<u64, ServerError> {
        self.sessions
            .iter()
            .find(|s| s.id == handle.0)
            .map(|s| s.glitches)
            .ok_or(ServerError::UnknownStream(handle.0))
    }

    /// Pause an active stream (VCR pause): it requests no fragments but
    /// keeps its admission reservation, so [`Self::resume_stream`] always
    /// succeeds. Idempotent.
    ///
    /// # Errors
    /// [`ServerError::UnknownStream`] if the handle is not active.
    pub fn pause_stream(&mut self, handle: StreamHandle) -> Result<(), ServerError> {
        let s = self
            .sessions
            .iter_mut()
            .find(|s| s.id == handle.id())
            .ok_or(ServerError::UnknownStream(handle.id()))?;
        s.paused = true;
        Ok(())
    }

    /// Resume a paused stream from where it stopped. Idempotent.
    ///
    /// # Errors
    /// [`ServerError::UnknownStream`] if the handle is not active.
    pub fn resume_stream(&mut self, handle: StreamHandle) -> Result<(), ServerError> {
        let s = self
            .sessions
            .iter_mut()
            .find(|s| s.id == handle.id())
            .ok_or(ServerError::UnknownStream(handle.id()))?;
        s.paused = false;
        Ok(())
    }

    /// Whether a stream is currently paused.
    ///
    /// # Errors
    /// [`ServerError::UnknownStream`] if the handle is not active.
    pub fn is_paused(&self, handle: StreamHandle) -> Result<bool, ServerError> {
        self.sessions
            .iter()
            .find(|s| s.id == handle.id())
            .map(|s| s.paused)
            .ok_or(ServerError::UnknownStream(handle.id()))
    }

    /// Mark a stream degradable: at degradation rung 3+ it is served a
    /// reduced fragment size ([`DegradeSettings::downshift_factor`])
    /// instead of glitching — a lower-bitrate rendition the client opted
    /// into. Idempotent.
    ///
    /// # Errors
    /// [`ServerError::UnknownStream`] if the handle is not active.
    pub fn set_degradable(
        &mut self,
        handle: StreamHandle,
        degradable: bool,
    ) -> Result<(), ServerError> {
        let s = self
            .sessions
            .iter_mut()
            .find(|s| s.id == handle.id())
            .ok_or(ServerError::UnknownStream(handle.id()))?;
        s.degradable = degradable;
        Ok(())
    }

    /// Point-in-time summary of the degradation ladder, `None` when no
    /// ladder is configured.
    #[must_use]
    pub fn degrade_status(&self) -> Option<DegradeStatus> {
        self.degrade.as_ref().map(|d| DegradeStatus {
            rung: d.rung(),
            escalations: d.escalations(),
            recoveries: d.recoveries(),
            shed_streams: self.shed_by_degrade.len() as u64,
        })
    }

    /// Rung 4: pause the newest [`DegradeSettings::shed_fraction`] of
    /// unpaused streams. They hold their admission reservation (exactly
    /// like a VCR pause) and resume automatically when the ladder steps
    /// back below rung 4.
    fn shed_newest_streams(&mut self) {
        let fraction = self
            .degrade
            .as_ref()
            .map_or(0.0, |d| d.settings.shed_fraction);
        let mut candidates: Vec<(u64, usize)> = self
            .sessions
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.paused)
            .map(|(i, s)| (s.id, i))
            .collect();
        if candidates.is_empty() {
            return;
        }
        // Newest first: the most recently admitted streams lose service
        // first, preserving the oldest commitments.
        candidates.sort_unstable_by_key(|&(id, _)| std::cmp::Reverse(id));
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
        #[allow(clippy::cast_sign_loss)]
        let shed = ((candidates.len() as f64 * fraction).ceil() as usize).min(candidates.len());
        for &(id, idx) in candidates.iter().take(shed) {
            self.sessions[idx].paused = true;
            self.shed_by_degrade.push(id);
        }
    }

    /// Resume every stream the ladder shed, if still active.
    fn resume_shed_streams(&mut self) {
        for id in self.shed_by_degrade.drain(..) {
            if let Some(s) = self.sessions.iter_mut().find(|s| s.id == id) {
                s.paused = false;
            }
        }
    }

    fn emit_degrade_event(&self, action: &'static str, rung: u8) {
        if mzd_telemetry::events_enabled() {
            mzd_telemetry::emit(
                mzd_telemetry::Event::new("server.degrade")
                    .str("action", action)
                    .u64("rung", u64::from(rung))
                    .u64("round", self.rounds_run)
                    .u64("shed", self.shed_by_degrade.len() as u64),
            );
        }
    }

    /// Advance one global round: serve every active stream's next fragment
    /// — from the cache when it is resident or already being fetched,
    /// from the assigned disk otherwise — account glitches and buffers,
    /// retire finished streams.
    pub fn run_round(&mut self) -> RoundReport {
        let _phase_round = mzd_prof::phase("server.round");
        // Partition sessions over disks for this round, consulting the
        // cache first: hits skip disk service entirely, delayed hits
        // coalesce onto the in-flight fetch of an earlier stream, misses
        // go to disk and fill the cache on completion.
        let phase_partition = mzd_prof::phase("partition");
        for b in &mut self.batch {
            b.clear();
        }
        for b in &mut self.batch_sizes {
            b.clear();
        }
        for b in &mut self.batch_keys {
            b.clear();
        }
        for b in &mut self.extra_sizes {
            b.clear();
        }
        for b in &mut self.extra_keys {
            b.clear();
        }
        let trace_ts = self.trace_now_us();
        let round_us = (self.cfg.round_length * 1e6) as u64;
        let rung = self.degrade.as_ref().map_or(0, DegradeState::rung);
        let downshift_factor = self
            .degrade
            .as_ref()
            .map_or(1.0, |d| d.settings.downshift_factor);
        let mut downshifted_requests = 0u64;
        let mut stream_rounds = 0u64;
        let mut round_hits = 0u64;
        let mut round_delayed = 0u64;
        let mut round_misses = 0u64;
        let evictions_before = self.cache.as_ref().map_or(0, |c| c.stats().evictions);
        // Sessions waiting on another stream's in-flight fetch this round,
        // by fetched key. Filled and fully drained within this call; never
        // iterated, so map order cannot affect behavior.
        let mut delayed_waiters: HashMap<FragmentKey, Vec<usize>> = HashMap::new();
        for i in 0..self.sessions.len() {
            if self.sessions[i].paused {
                continue;
            }
            stream_rounds += 1;
            let s = &mut self.sessions[i];
            let sid = s.id;
            let frag = s.fragments_consumed;
            let d = s.disk as usize;
            // Stored objects have one fixed size per fragment (shared by
            // every reader — the precondition for caching); i.i.d.
            // objects re-draw per round exactly as before.
            let size = match s.object.stored_fragment_size(frag) {
                Some(stored) => stored,
                None => s.object.sizes.sample(&mut self.rng),
            };
            // Rung 3+: degradable streams accept a reduced rendition
            // instead of risking glitches at the full rate.
            let size = if rung >= RUNG_DOWNSHIFT && s.degradable {
                downshifted_requests += 1;
                size * downshift_factor
            } else {
                size
            };
            let mut fetch_key = None;
            let mut serve_from_disk = true;
            let mut disposition = "disk.read";
            if let (Some(cache), Some(cid)) = (self.cache.as_mut(), s.object.content_id) {
                cache.update_reader(s.id, cid, frag);
                let key = FragmentKey {
                    object: cid,
                    fragment: frag,
                };
                match cache.lookup(key) {
                    Lookup::Hit => {
                        round_hits += 1;
                        self.metrics.cache_hit_latency.record(0.0);
                        s.buffer.deliver(size);
                        serve_from_disk = false;
                        disposition = "cache.hit";
                    }
                    Lookup::DelayedHit => {
                        round_delayed += 1;
                        delayed_waiters.entry(key).or_default().push(i);
                        serve_from_disk = false;
                        disposition = "cache.delayed_hit";
                    }
                    Lookup::Miss => {
                        round_misses += 1;
                        cache.begin_fetch(key);
                        fetch_key = Some(key);
                        disposition = "disk.fetch";
                    }
                }
            }
            if serve_from_disk {
                self.batch[d].push(i);
                self.batch_sizes[d].push(size);
                self.batch_keys[d].push(fetch_key);
            }
            if let Some(t) = self.tracing.as_mut() {
                // One causal chain per stream per round: the round span
                // under the stream root, the disposition under the round.
                let round_ctx = t.record_stream_span(
                    sid,
                    "stream.round",
                    "stream",
                    trace_ts,
                    round_us,
                    &[
                        ("round", self.rounds_run),
                        ("disk", d as u64),
                        ("fragment", u64::from(frag)),
                    ],
                );
                let cat = if serve_from_disk { "disk" } else { "cache" };
                let dur = if serve_from_disk { round_us } else { 1 };
                t.record_under(round_ctx, sid, disposition, cat, trace_ts, dur);
            }
        }

        // Expected rotational + transfer time a cached copy of one
        // fragment saves the disk per hit — the cost-aware policy's rank.
        let rot_half = self.cfg.disk.rotation_time() / 2.0;
        let inv_rate = self.cfg.disk.inverse_rate_moment(1);

        // Work-ahead prefetch: upcoming fragments of cached stored
        // objects ride each disk's post-sweep slack, best-effort (the
        // mandatory batch keeps priority). Dropped at degradation
        // rung 2+ — slack work is the cheapest load to shed.
        if self.cfg.work_ahead > 0 && rung < RUNG_DROP_PREFETCH {
            if let Some(cache) = self.cache.as_ref() {
                let mut queued = std::collections::HashSet::new();
                for s in &self.sessions {
                    if s.paused {
                        continue;
                    }
                    let Some(cid) = s.object.content_id else {
                        continue;
                    };
                    for look in 1..=self.cfg.work_ahead {
                        let frag = s.fragments_consumed + look;
                        if frag >= s.object.rounds {
                            break;
                        }
                        let Some(bytes) = s.object.stored_fragment_size(frag) else {
                            break;
                        };
                        let key = FragmentKey {
                            object: cid,
                            fragment: frag,
                        };
                        if cache.contains(key) || cache.fetch_in_flight(key) || !queued.insert(key)
                        {
                            continue;
                        }
                        let d = self.layout.disk_of_fragment(s.start_disk, frag) as usize;
                        self.extra_sizes[d].push(bytes);
                        self.extra_keys[d].push(key);
                    }
                }
            }
        }

        drop(phase_partition);

        let phase_sweep = mzd_prof::phase("sweep");
        let mut disk_summaries = Vec::with_capacity(self.disks.len());
        let mut glitched_ids = Vec::new();
        for (d, sim) in self.disks.iter_mut().enumerate() {
            let sizes = &self.batch_sizes[d];
            self.metrics.queue_depth.record(sizes.len() as f64);
            let (out, prefetched) = sim.run_round_sized_with_extras(sizes, &self.extra_sizes[d]);
            if out.late {
                self.metrics.round_overrun.inc();
                if mzd_telemetry::events_enabled() {
                    mzd_telemetry::emit(
                        mzd_telemetry::Event::new("server.round.overrun")
                            .u64("round", self.rounds_run)
                            .u64("disk", d as u64)
                            .f64("overrun", out.service_time - self.cfg.round_length)
                            .u64("requests", sizes.len() as u64),
                    );
                }
            }
            if prefetched.served > 0 {
                let cache = self.cache.as_mut().expect("prefetch implies a cache");
                for (&key, &bytes) in self.extra_keys[d]
                    .iter()
                    .zip(&self.extra_sizes[d])
                    .take(prefetched.served)
                {
                    cache.insert(key, bytes, rot_half + bytes * inv_rate);
                }
                self.metrics.prefetch_fetched.add(prefetched.served as u64);
            }
            if let Some(t) = self.tracing.as_mut() {
                t.record_disk_span(
                    d as u64,
                    "disk.sweep",
                    trace_ts,
                    (out.service_time * 1e6) as u64,
                    &[
                        ("requests", sizes.len() as u64),
                        ("late", u64::from(out.late)),
                    ],
                );
            }
            disk_summaries.push(mzd_prof::DiskPhases {
                disk: d as u32,
                requests: sizes.len() as u32,
                service_time: out.service_time,
                late: out.late,
                seek_time: out.seek_time,
                rotational_time: out.rotational_time,
                transfer_time: out.transfer_time,
                stall_time: out.stall_time,
                fault_time: out.fault_time,
            });
            for &slot in &out.glitched_streams {
                let session_idx = self.batch[d][slot as usize];
                self.sessions[session_idx].glitches += 1;
                glitched_ids.push(self.sessions[session_idx].id);
                // A late fetch is late for everyone coalesced onto it.
                if let Some(key) = self.batch_keys[d][slot as usize] {
                    if let Some(waiters) = delayed_waiters.get(&key) {
                        for &w in waiters {
                            self.sessions[w].glitches += 1;
                            glitched_ids.push(self.sessions[w].id);
                        }
                    }
                }
            }
            // Deliveries: every request of the batch fills its client's
            // buffer for the next round; completed fetches fill the cache
            // and release their coalesced waiters.
            for (slot, &session_idx) in self.batch[d].iter().enumerate() {
                let bytes = sizes[slot];
                self.sessions[session_idx].buffer.deliver(bytes);
                if let Some(key) = self.batch_keys[d][slot] {
                    let cache = self.cache.as_mut().expect("fetch key implies a cache");
                    cache.complete_fetch(key, bytes, rot_half + bytes * inv_rate);
                    if let Some(waiters) = delayed_waiters.remove(&key) {
                        // Waiters receive the fragment when the sweep
                        // finishes: a partial-round latency, not a disk
                        // visit of their own.
                        let latency_rounds = out.service_time / self.cfg.round_length;
                        for w in waiters {
                            self.sessions[w].buffer.deliver(bytes);
                            self.metrics.cache_hit_latency.record(latency_rounds);
                        }
                    }
                }
            }
        }
        debug_assert!(
            delayed_waiters.is_empty(),
            "every in-flight fetch completes within its round"
        );
        if let Some(t) = self.tracing.as_mut() {
            for &gid in &glitched_ids {
                t.record_stream_span(
                    gid,
                    "glitch",
                    "glitch",
                    trace_ts,
                    1,
                    &[("round", self.rounds_run)],
                );
            }
        }
        drop(phase_sweep);

        // SLO: burn-rate accounting against the admitted glitch budget,
        // model conformance on each busy disk's observed sweep time, and
        // the admission brake on alert transitions.
        let phase_slo = mzd_prof::phase("slo");
        let mut slo_alert_raised = false;
        if let Some(slo) = self.slo.as_mut() {
            let transition = slo
                .burn
                .observe_round(stream_rounds, glitched_ids.len() as u64);
            slo.metrics.burn_fast.set(slo.burn.burn_fast());
            slo.metrics.burn_slow.set(slo.burn.burn_slow());
            slo.metrics.burn_long.set(slo.burn.burn_long());
            match transition {
                Some(AlertTransition::Raised) => {
                    slo_alert_raised = true;
                    slo.metrics.alerts.inc();
                    self.admission.set_over_admission_frozen(true);
                    if mzd_telemetry::events_enabled() {
                        mzd_telemetry::emit(
                            mzd_telemetry::Event::new("slo.alert")
                                .str("transition", "raised")
                                .u64("round", self.rounds_run)
                                .f64("burn_fast", slo.burn.burn_fast())
                                .f64("burn_slow", slo.burn.burn_slow())
                                .u64(
                                    "frozen_limit",
                                    u64::from(self.admission.effective_per_disk_limit()),
                                ),
                        );
                    }
                }
                Some(AlertTransition::Cleared) => {
                    self.admission.set_over_admission_frozen(false);
                    if mzd_telemetry::events_enabled() {
                        mzd_telemetry::emit(
                            mzd_telemetry::Event::new("slo.alert")
                                .str("transition", "cleared")
                                .u64("round", self.rounds_run)
                                .f64("burn_fast", slo.burn.burn_fast()),
                        );
                    }
                }
                None => {}
            }
            if slo.conformance.is_some() {
                for ds in &disk_summaries {
                    if ds.requests == 0 {
                        continue;
                    }
                    // PIT: push the observed sweep time through the
                    // predicted CDF for this batch size. An unbuildable
                    // table maps to NaN, which the checker counts as an
                    // exceedance rather than silently dropping.
                    let u = slo
                        .cdf_for(ds.requests)
                        .map_or(f64::NAN, |c| c.evaluate(ds.service_time));
                    let tr = slo
                        .conformance
                        .as_mut()
                        .expect("conformance checked above")
                        .observe(u);
                    if let Some(tr) = tr {
                        let name = match tr {
                            DriftTransition::Raised => {
                                slo.metrics.drifts.inc();
                                "raised"
                            }
                            DriftTransition::Cleared => "cleared",
                        };
                        if mzd_telemetry::events_enabled() {
                            let cc = slo.conformance.as_ref().expect("conformance checked above");
                            mzd_telemetry::emit(
                                mzd_telemetry::Event::new("slo.drift")
                                    .str("transition", name)
                                    .u64("round", self.rounds_run)
                                    .u64("disk", u64::from(ds.disk))
                                    .f64("ks", cc.ks_statistic())
                                    .f64("tail_exceedance", cc.tail_exceedance()),
                            );
                        }
                    }
                }
                let cc = slo.conformance.as_ref().expect("conformance checked above");
                slo.metrics.ks.set(cc.ks_statistic());
                slo.metrics.tail.set(cc.tail_exceedance());
            }
            if mzd_telemetry::events_enabled() {
                let cc_ks = slo.conformance.as_ref().map_or(0.0, |c| c.ks_statistic());
                let cc_tail = slo
                    .conformance
                    .as_ref()
                    .map_or(0.0, |c| c.tail_exceedance());
                mzd_telemetry::emit(
                    mzd_telemetry::Event::new("slo.round")
                        .u64("round", self.rounds_run)
                        .u64("stream_rounds", stream_rounds)
                        .u64("glitches", glitched_ids.len() as u64)
                        .f64("burn_fast", slo.burn.burn_fast())
                        .f64("burn_slow", slo.burn.burn_slow())
                        .f64("burn_long", slo.burn.burn_long())
                        .u64("alert", u64::from(slo.burn.alert_active()))
                        .u64("frozen", u64::from(self.admission.over_admission_frozen()))
                        .f64("ks", cc_ks)
                        .f64("tail_exceedance", cc_tail),
                );
            }
        }

        drop(phase_slo);

        // Graceful degradation: the ladder climbs on sustained fast-burn
        // alert, steps down on sustained quiet. Without an SLO layer the
        // burn signal is absent and the ladder stays at rung 0.
        let phase_degrade = mzd_prof::phase("degrade");
        let mut degrade_escalated = false;
        if self.degrade.is_some() {
            let alert = self.slo.as_ref().is_some_and(|s| s.burn.alert_active());
            let transition = self.degrade.as_mut().and_then(|d| d.observe(alert));
            match transition {
                Some(DegradeTransition::Escalated(r)) => {
                    degrade_escalated = true;
                    if r == RUNG_PAUSE_NEWEST {
                        self.shed_newest_streams();
                    }
                    self.emit_degrade_event("escalate", r);
                }
                Some(DegradeTransition::Recovered(r)) => {
                    if r == RUNG_PAUSE_NEWEST - 1 {
                        self.resume_shed_streams();
                    }
                    self.emit_degrade_event("recover", r);
                }
                None => {}
            }
            // With a ladder attached, the over-admission freeze holds as
            // long as rung 1+ is engaged, independent of the
            // instantaneous alert state the SLO layer reacts to.
            let rung_now = self.degrade.as_ref().map_or(0, DegradeState::rung);
            self.admission
                .set_over_admission_frozen(alert || rung_now >= RUNG_FREEZE_OVER_ADMISSION);
            if let Some(d) = self.degrade.as_ref() {
                d.metrics
                    .shed_streams
                    .set(self.shed_by_degrade.len() as f64);
                d.metrics.downshift_rounds.add(downshifted_requests);
            }
        }

        drop(phase_degrade);

        // Advance sessions; retire the finished. The incremental load
        // vector follows each stream's rotation to the next disk.
        let phase_advance = mzd_prof::phase("advance");
        let mut completed_ids = Vec::new();
        let mut i = 0;
        while i < self.sessions.len() {
            let s = &mut self.sessions[i];
            if s.paused {
                i += 1;
                continue;
            }
            s.buffer.advance_round();
            let old_d = s.disk as usize;
            s.fragments_consumed += 1;
            if s.fragments_consumed >= s.object.rounds {
                let s = self.sessions.swap_remove(i);
                self.load[old_d] -= 1;
                if let (Some(cache), Some(_)) = (self.cache.as_mut(), s.object.content_id) {
                    cache.remove_reader(s.id);
                }
                if let Some(t) = self.tracing.as_mut() {
                    t.stream_roots.remove(&s.id);
                }
                completed_ids.push(s.id);
                self.completed.push(CompletedStream {
                    id: s.id,
                    object: s.object.name.clone(),
                    rounds_played: s.fragments_consumed,
                    glitches: s.glitches,
                    buffer_high_water: s.buffer.high_water(),
                });
            } else {
                s.disk = self.layout.next_disk(s.disk);
                self.load[old_d] -= 1;
                self.load[s.disk as usize] += 1;
                i += 1;
            }
        }

        drop(phase_advance);

        // Cache bookkeeping: metrics, and the measured-hit-ratio feed for
        // cache-aware admission.
        let phase_cache = mzd_prof::phase("cache");
        if let Some(cache) = &self.cache {
            self.metrics.cache_hits.add(round_hits);
            self.metrics.cache_delayed_hits.add(round_delayed);
            self.metrics.cache_misses.add(round_misses);
            self.metrics
                .cache_evictions
                .add(cache.stats().evictions - evictions_before);
            self.metrics.cache_occupancy.set(cache.occupancy_bytes());
            self.hit_window.push_back((
                round_hits + round_delayed + round_misses,
                round_hits + round_delayed,
            ));
            if self.hit_window.len() > HIT_WINDOW_ROUNDS {
                self.hit_window.pop_front();
            }
            if self.admission.is_cache_aware() {
                let (trials, avoided) = self
                    .hit_window
                    .iter()
                    .fold((0u64, 0u64), |(t, a), &(lt, la)| (t + lt, a + la));
                let h = if trials >= HIT_WINDOW_MIN_TRIALS {
                    mzd_cache::hit_ratio_lower_bound(avoided, trials)
                } else {
                    0.0
                };
                self.admission.set_hit_ratio_lower_bound(h);
            }
            if mzd_telemetry::events_enabled() {
                mzd_telemetry::emit(
                    mzd_telemetry::Event::new("server.cache")
                        .u64("round", self.rounds_run)
                        .u64("hits", round_hits)
                        .u64("delayed_hits", round_delayed)
                        .u64("misses", round_misses)
                        .f64("occupancy_bytes", cache.occupancy_bytes())
                        .u64("resident", cache.len() as u64),
                );
            }
        }

        drop(phase_cache);

        self.rounds_run += 1;
        // Capacity freed by completions goes to waiting requests (§1:
        // postponed admissions resume when streams terminate).
        let newly_admitted = self.drain_wait_queue();
        let occupancy: f64 = self.sessions.iter().map(|s| s.buffer.occupancy()).sum();
        let report = RoundReport {
            round: self.rounds_run - 1,
            disks: disk_summaries,
            glitched_streams: glitched_ids,
            completed_streams: completed_ids,
            admitted_from_queue: newly_admitted.iter().map(StreamHandle::id).collect(),
            buffer_occupancy: occupancy,
        };
        self.metrics.buffer_occupancy.set(occupancy);
        if mzd_telemetry::events_enabled() {
            mzd_telemetry::emit(
                mzd_telemetry::Event::new("server.round")
                    .u64("round", report.round)
                    .u64("active", self.sessions.len() as u64)
                    .u64("waiting", self.waiting.len() as u64)
                    .f64("buffer_occupancy", occupancy)
                    .u64_list("glitched", &report.glitched_streams)
                    .u64_list("completed", &report.completed_streams)
                    .u64_list("admitted_from_queue", &report.admitted_from_queue),
            );
        }
        if self.recorder.is_some() {
            self.record_round(
                &report,
                rung,
                slo_alert_raised,
                degrade_escalated,
                (round_hits, round_delayed, round_misses),
            );
        }
        report
    }

    /// Push this round's snapshot into the flight recorder and fire any
    /// dump triggers it tripped. Snapshots carry only logical state
    /// (round ids, counters, phase decompositions) so bundles from a
    /// seeded run are byte-identical across reruns and `--jobs` widths.
    fn record_round(
        &mut self,
        report: &RoundReport,
        rung_at_entry: u8,
        slo_alert_raised: bool,
        degrade_escalated: bool,
        cache_counts: (u64, u64, u64),
    ) {
        let mut faults = mzd_prof::FaultTotals::default();
        for sim in &self.disks {
            let c = sim.fault_counters();
            faults.media_errors += c.media_errors;
            faults.retries += c.retries;
            faults.stalls += c.stalls;
            faults.remaps += c.remaps;
            faults.failed_reads += c.failed_reads;
            faults.unavailable_rounds += c.unavailable_rounds;
        }
        let (hits, delayed, misses) = cache_counts;
        let snapshot = mzd_prof::RoundSnapshot {
            round: report.round,
            active_streams: self.sessions.len() as u64,
            waiting_streams: self.waiting.len() as u64,
            glitches: report.glitched_streams.len() as u64,
            rung: self
                .degrade
                .as_ref()
                .map_or(rung_at_entry, DegradeState::rung),
            burn_fast: self.slo.as_ref().map_or(0.0, |s| s.burn.burn_fast()),
            burn_slow: self.slo.as_ref().map_or(0.0, |s| s.burn.burn_slow()),
            burn_long: self.slo.as_ref().map_or(0.0, |s| s.burn.burn_long()),
            cache_hits: hits,
            cache_delayed_hits: delayed,
            cache_misses: misses,
            cache_occupancy_bytes: self
                .cache
                .as_ref()
                .map_or(0.0, FragmentCache::occupancy_bytes),
            load: self.load.clone(),
            rng_positions: self.disks.iter().map(RoundSimulator::rounds_run).collect(),
            disks: report.disks.clone(),
            faults,
        };
        let recorder = self.recorder.as_ref().expect("checked by caller");
        recorder.push(snapshot);
        let any_late = report.disks.iter().any(|d| d.late);
        // Priority order: the rarest, highest-signal trigger dumps first
        // (the recorder deduplicates per kind and caps total dumps).
        for (fired, trigger) in [
            (slo_alert_raised, mzd_prof::DumpTrigger::SloFastBurn),
            (degrade_escalated, mzd_prof::DumpTrigger::DegradeEscalation),
            (any_late, mzd_prof::DumpTrigger::RoundOverrun),
        ] {
            if fired {
                // Best-effort: a dump failure (e.g. unwritable directory)
                // must not take the serving loop down.
                let _ = recorder.trigger_dump(trigger);
            }
        }
    }

    /// Run `rounds` rounds, returning only the aggregate glitch count (for
    /// long batch runs where per-round reports would be noise).
    pub fn run_rounds(&mut self, rounds: u64) -> u64 {
        let mut glitches = 0;
        for _ in 0..rounds {
            glitches += self.run_round().glitched_streams.len() as u64;
        }
        glitches
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server(disks: u32, seed: u64) -> VideoServer {
        VideoServer::new(ServerConfig::paper_reference(disks).unwrap(), seed).unwrap()
    }

    fn short_object(rounds: u32) -> ObjectSpec {
        ObjectSpec::new("test", SizeDistribution::paper_default(), rounds).unwrap()
    }

    #[test]
    fn admits_up_to_per_disk_limit_times_disks() {
        let mut s = server(2, 1);
        let limit = s.admission().per_disk_limit(); // 28 for the paper target
        assert_eq!(limit, 28);
        let mut admitted = 0;
        loop {
            match s.open_stream(short_object(100)) {
                Ok(_) => admitted += 1,
                Err(AdmissionDecision::Reject { per_disk_limit }) => {
                    assert_eq!(per_disk_limit, 28);
                    break;
                }
                Err(AdmissionDecision::Admit) => unreachable!(),
            }
        }
        assert_eq!(admitted, 2 * limit);
        assert_eq!(s.active_streams(), admitted as usize);
        assert_eq!(s.rejected_streams(), 1);
    }

    #[test]
    fn per_disk_load_stays_balanced() {
        let mut s = server(4, 2);
        for _ in 0..20 {
            s.open_stream(short_object(50)).unwrap();
        }
        for _ in 0..10 {
            let load = s.per_disk_load();
            let max = *load.iter().max().unwrap();
            let min = *load.iter().min().unwrap();
            assert!(max - min <= 1, "unbalanced load {load:?}");
            s.run_round();
        }
    }

    #[test]
    fn streams_complete_after_their_round_count() {
        let mut s = server(2, 3);
        let h = s.open_stream(short_object(5)).unwrap();
        for r in 0..5 {
            assert_eq!(s.active_streams(), 1, "round {r}");
            let report = s.run_round();
            if r == 4 {
                assert_eq!(report.completed_streams, vec![h.id()]);
            } else {
                assert!(report.completed_streams.is_empty());
            }
        }
        assert_eq!(s.active_streams(), 0);
        let rec = &s.completed_streams()[0];
        assert_eq!(rec.rounds_played, 5);
        assert_eq!(rec.object, "test");
        assert!(rec.buffer_high_water > 0.0);
    }

    #[test]
    fn close_stream_retires_early() {
        let mut s = server(1, 4);
        let h = s.open_stream(short_object(100)).unwrap();
        s.run_round();
        assert_eq!(s.stream_glitches(h).unwrap(), 0);
        s.close_stream(h).unwrap();
        assert_eq!(s.active_streams(), 0);
        assert_eq!(s.completed_streams()[0].rounds_played, 1);
        // Double close / unknown stream.
        assert_eq!(s.close_stream(h), Err(ServerError::UnknownStream(h.id())));
        assert!(s.stream_glitches(h).is_err());
    }

    #[test]
    fn admitted_load_rarely_glitches() {
        // At the admission limit, the per-stream glitch rate must be low
        // (that is the whole guarantee). Run 200 rounds at full admission
        // on one disk and check the total glitch count stays far below one
        // per stream per 100 rounds.
        let mut s = server(1, 5);
        while s.open_stream(short_object(10_000)).is_ok() {}
        let n = s.active_streams() as u64;
        assert_eq!(n, 28);
        let glitches = s.run_rounds(200);
        // 28 streams × 200 rounds = 5600 stream-rounds; the model bounds
        // the per-round glitch probability near 1–2% at N = 28 and the
        // simulated rate is ~0.1% (Figure 1), so < 3% here is generous.
        assert!(
            glitches < 168,
            "glitches {glitches} out of 5600 stream-rounds"
        );
    }

    #[test]
    fn overloaded_server_would_glitch_hence_rejection_matters() {
        // Force a config with a vacuous target to show the machinery: a
        // loose delta admits more streams and they do glitch.
        let mut cfg = ServerConfig::paper_reference(1).unwrap();
        cfg.target = QualityTarget::RoundOverrun { delta: 1.0 };
        let mut s = VideoServer::new(cfg, 6).unwrap();
        let limit = s.admission().per_disk_limit();
        assert!(limit > 40, "vacuous target admits a lot, got {limit}");
        for _ in 0..40 {
            let _ = s.open_stream(short_object(1000));
        }
        let glitches = s.run_rounds(50);
        assert!(glitches > 0, "40 streams on one Viking must glitch");
    }

    #[test]
    fn reports_are_structurally_sound() {
        let mut s = server(3, 7);
        for _ in 0..9 {
            s.open_stream(short_object(100)).unwrap();
        }
        let report = s.run_round();
        assert_eq!(report.round, 0);
        assert_eq!(report.disks.len(), 3);
        let total: u32 = report.disks.iter().map(|d| d.requests).sum();
        assert_eq!(total, 9);
        for d in &report.disks {
            assert!(d.service_time >= 0.0);
            assert!(!d.late || d.service_time > s.config().round_length);
        }
        assert_eq!(s.rounds_run(), 1);
    }

    #[test]
    fn wait_queue_admits_in_fifo_order_as_capacity_frees() {
        let mut s = server(1, 15);
        // Fill with 5-round objects.
        while s.open_stream(short_object(5)).is_ok() {}
        let limit = s.admission().per_disk_limit();
        assert_eq!(s.active_streams(), limit as usize);
        // Queue three more.
        assert!(s.enqueue_stream(short_object(5)).is_none());
        assert!(s.enqueue_stream(short_object(5)).is_none());
        assert!(s.enqueue_stream(short_object(5)).is_none());
        assert_eq!(s.waiting_streams(), 3);
        assert_eq!(s.rejected_streams(), 1); // only the fill loop's probe
                                             // After the first batch finishes (5 rounds), all three enter.
        let mut admitted_total = 0;
        for _ in 0..5 {
            let report = s.run_round();
            admitted_total += report.admitted_from_queue.len();
        }
        assert_eq!(admitted_total, 3);
        assert_eq!(s.waiting_streams(), 0);
        assert_eq!(s.active_streams(), 3);
    }

    #[test]
    fn active_session_info_is_a_faithful_manifest() {
        let mut s = server(2, 21);
        let a = s.open_stream(short_object(30)).unwrap();
        let b = s.open_stream(short_object(40)).unwrap();
        s.run_round();
        s.run_round();
        s.pause_stream(b).unwrap();
        let info = s.active_session_info();
        assert_eq!(info.len(), 2);
        assert_eq!(info[0].handle, a);
        assert_eq!(info[1].handle, b);
        assert_eq!(info[0].fragments_consumed, 2);
        assert!(!info[0].paused);
        assert!(info[1].paused);
        assert_eq!(info[0].object.rounds, 30);
    }

    #[test]
    fn enqueue_with_capacity_opens_immediately() {
        let mut s = server(2, 16);
        let h = s.enqueue_stream(short_object(10));
        assert!(h.is_some());
        assert_eq!(s.waiting_streams(), 0);
        assert_eq!(s.active_streams(), 1);
    }

    #[test]
    fn drain_after_close_stream() {
        let mut s = server(1, 17);
        let mut first = None;
        while let Ok(h) = s.open_stream(short_object(100)) {
            first.get_or_insert(h);
        }
        assert!(s.enqueue_stream(short_object(100)).is_none());
        s.close_stream(first.unwrap()).unwrap();
        let admitted = s.drain_wait_queue();
        assert_eq!(admitted.len(), 1);
        assert_eq!(s.waiting_streams(), 0);
    }

    #[test]
    fn pause_holds_position_and_reservation() {
        let mut s = server(1, 11);
        let h = s.open_stream(short_object(10)).unwrap();
        s.run_round();
        s.run_round();
        s.pause_stream(h).unwrap();
        assert!(s.is_paused(h).unwrap());
        // Paused rounds do not consume fragments.
        for _ in 0..5 {
            let report = s.run_round();
            assert!(report.completed_streams.is_empty());
            let served: u32 = report.disks.iter().map(|d| d.requests).sum();
            assert_eq!(served, 0);
        }
        s.resume_stream(h).unwrap();
        assert!(!s.is_paused(h).unwrap());
        // 8 fragments remain.
        for r in 0..8 {
            assert_eq!(s.active_streams(), 1, "round {r}");
            s.run_round();
        }
        assert_eq!(s.active_streams(), 0);
        assert_eq!(s.completed_streams()[0].rounds_played, 10);
        // Unknown handles error.
        assert!(s.pause_stream(h).is_err());
        assert!(s.resume_stream(h).is_err());
        assert!(s.is_paused(h).is_err());
    }

    #[test]
    fn paused_streams_still_block_admission() {
        let mut s = server(1, 12);
        let mut handles = Vec::new();
        while let Ok(h) = s.open_stream(short_object(100)) {
            handles.push(h);
        }
        // Pause half the house: admission must stay closed (reservations
        // are held for guaranteed resumption).
        for h in handles.iter().take(handles.len() / 2) {
            s.pause_stream(*h).unwrap();
        }
        assert!(s.open_stream(short_object(100)).is_err());
    }

    #[test]
    fn zero_disk_config_rejected() {
        assert!(ServerConfig::paper_reference(0).is_err());
    }

    fn cached_server(disks: u32, seed: u64, bytes: f64) -> VideoServer {
        let mut cfg = ServerConfig::paper_reference(disks).unwrap();
        cfg.cache = Some(CacheSettings::lru(bytes));
        VideoServer::new(cfg, seed).unwrap()
    }

    fn stored_object(name: &str, content_id: u64, rounds: u32) -> ObjectSpec {
        ObjectSpec::new(name, SizeDistribution::paper_default(), rounds)
            .unwrap()
            .with_content_id(content_id)
    }

    #[test]
    fn lockstep_readers_coalesce_onto_one_fetch() {
        let mut s = cached_server(1, 21, 1e9);
        // Three streams open the same stored object in the same round:
        // each round, one misses (fetches) and two coalesce.
        for _ in 0..3 {
            s.open_stream(stored_object("movie", 1, 20)).unwrap();
        }
        let mut disk_requests = 0u32;
        for _ in 0..20 {
            let report = s.run_round();
            disk_requests += report.disks[0].requests;
        }
        assert_eq!(disk_requests, 20, "one fetch per round, not three");
        let stats = *s.cache().unwrap().stats();
        assert_eq!(stats.misses, 20);
        assert_eq!(stats.delayed_hits, 40);
        assert_eq!(stats.hits, 0);
    }

    #[test]
    fn staggered_reader_hits_cached_fragments() {
        let mut s = cached_server(1, 22, 1e9);
        let leader = s.open_stream(stored_object("movie", 2, 40)).unwrap();
        for _ in 0..10 {
            s.run_round();
        }
        // The follower starts from fragment 0, all of which the leader
        // already pulled into the (ample) cache.
        let follower = s.open_stream(stored_object("movie", 2, 40)).unwrap();
        let hits_before = s.cache().unwrap().stats().hits;
        for _ in 0..10 {
            s.run_round();
        }
        let stats = *s.cache().unwrap().stats();
        assert_eq!(
            stats.hits - hits_before,
            10,
            "every follower round is a pure hit"
        );
        assert_eq!(s.stream_glitches(follower).unwrap(), 0);
        assert_eq!(s.stream_glitches(leader).unwrap(), 0);
    }

    #[test]
    fn uncached_objects_bypass_the_cache() {
        let mut s = cached_server(1, 23, 1e9);
        s.open_stream(short_object(10)).unwrap(); // no content_id
        let report = s.run_round();
        assert_eq!(report.disks[0].requests, 1);
        let stats = *s.cache().unwrap().stats();
        assert_eq!(stats.lookups(), 0);
        assert!(s.cache().unwrap().is_empty());
    }

    #[test]
    fn zero_byte_cache_is_identical_to_cacheless() {
        let mut cacheless = server(2, 31);
        let mut zero = {
            let mut cfg = ServerConfig::paper_reference(2).unwrap();
            cfg.cache = Some(CacheSettings::lru(0.0));
            VideoServer::new(cfg, 31).unwrap()
        };
        assert!(zero.cache().is_none(), "zero bytes disables the cache");
        for i in 0..6 {
            cacheless.open_stream(stored_object("m", 5, 30)).unwrap();
            zero.open_stream(stored_object("m", 5, 30)).unwrap();
            if i % 2 == 0 {
                cacheless.open_stream(short_object(30)).unwrap();
                zero.open_stream(short_object(30)).unwrap();
            }
        }
        for _ in 0..30 {
            assert_eq!(cacheless.run_round(), zero.run_round());
        }
    }

    #[test]
    fn incremental_load_stays_consistent_under_churn() {
        let mut s = cached_server(3, 24, 1e8);
        let mut handles = Vec::new();
        for step in 0..200u32 {
            match step % 7 {
                0 | 1 | 4 => {
                    if let Ok(h) = s.open_stream(stored_object("hot", 9, 15)) {
                        handles.push(h);
                    }
                }
                2 => {
                    if let Some(h) = handles.pop() {
                        let _ = s.close_stream(h);
                    }
                }
                3 => {
                    if let Some(h) = handles.first() {
                        let _ = s.pause_stream(*h);
                    }
                }
                5 => {
                    if let Some(h) = handles.first() {
                        let _ = s.resume_stream(*h);
                    }
                }
                _ => {
                    s.run_round();
                    handles.retain(|h| s.stream_glitches(*h).is_ok());
                }
            }
            // per_disk_load() debug-asserts the incremental vector against
            // the O(n) recomputation.
            let load = s.per_disk_load();
            let total: u32 = load.iter().sum();
            assert_eq!(total as usize, s.active_streams());
        }
    }

    /// Every session's carried disk is the closed-form striping map of
    /// its progress, and the incremental load is a recount, over a long
    /// churn of queue drains, closes, pauses and completions — checked
    /// with plain asserts so release builds check it too. D = 1 and the
    /// non-powers-of-two 3 and 5 exercise the wrap.
    #[test]
    fn carried_disks_match_the_closed_form_under_churn() {
        use rand::RngExt as _;
        for disks in [1u32, 3, 5] {
            let mut s = server(disks, 31 + u64::from(disks));
            let mut rng = StdRng::seed_from_u64(u64::from(disks));
            let mut queued_steps = 0u32;
            for step in 0..4000u32 {
                match rng.random_range(0..10u32) {
                    0..=2 => {
                        // Offered load above capacity, so the queue fills
                        // and every round's completions drain it.
                        for _ in 0..rng.random_range(1..8u32) {
                            let rounds = rng.random_range(1..30 * disks + 10);
                            s.enqueue_stream(short_object(rounds));
                        }
                    }
                    3 if !s.sessions.is_empty() => {
                        let pick = rng.random_range(0..s.sessions.len());
                        let id = s.sessions[pick].id;
                        s.close_stream(StreamHandle(id)).unwrap();
                        s.drain_wait_queue();
                    }
                    4 if !s.sessions.is_empty() => {
                        let pick = rng.random_range(0..s.sessions.len());
                        let h = StreamHandle(s.sessions[pick].id);
                        if s.is_paused(h).unwrap() {
                            s.resume_stream(h).unwrap();
                        } else {
                            s.pause_stream(h).unwrap();
                        }
                    }
                    _ => {
                        s.run_round();
                    }
                }
                for sess in &s.sessions {
                    let want = (sess.start_disk + sess.fragments_consumed) % disks;
                    assert_eq!(
                        sess.disk, want,
                        "D = {disks}, step {step}: stream {}",
                        sess.id
                    );
                }
                assert_eq!(
                    s.per_disk_load(),
                    s.recompute_per_disk_load(),
                    "D = {disks}, step {step}"
                );
                queued_steps += u32::from(s.waiting_streams() > 0);
            }
            assert!(queued_steps > 1000, "D = {disks}: the queue rarely filled");
            assert!(s.rounds_run > 1500, "D = {disks}: too few rounds");
            assert!(
                s.completed.len() > 100,
                "D = {disks}: churn never completed streams"
            );
        }
    }

    #[test]
    fn slo_layer_attaches_traces_and_stays_quiet_under_admitted_load() {
        let mut s = server(2, 51);
        s.enable_slo(crate::slo::SloSettings::for_target(s.config().target))
            .unwrap();
        s.enable_tracing(0);
        assert!(s.slo_status().is_some());
        for _ in 0..4 {
            s.open_stream(short_object(10)).unwrap();
        }
        for _ in 0..10 {
            s.run_round();
        }
        let status = s.slo_status().unwrap();
        // Far under the admission limit: the budget cannot be burning.
        assert!(!status.alert_active);
        assert_eq!(status.alerts_raised, 0);
        assert!(!status.over_admission_frozen);
        // 4 streams × 10 rounds produce at least a round span + a
        // disposition span each, plus disk sweeps.
        let spans = s.trace_events().unwrap().len();
        assert!(spans >= 80, "spans {spans}");
        let json = s.trace_chrome_json().unwrap();
        let parsed = mzd_telemetry::json::parse(&json).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), spans);
        // Without tracing, no trace is exported but status still works.
        let mut plain = server(2, 52);
        plain
            .enable_slo(crate::slo::SloSettings::for_target(plain.config().target))
            .unwrap();
        plain.run_round();
        assert!(plain.trace_chrome_json().is_none());
        // Tracing alone attaches no SLO layer.
        let mut traced = server(2, 52);
        traced.enable_tracing(0);
        traced.open_stream(short_object(10)).unwrap();
        traced.run_round();
        assert!(traced.slo_status().is_none());
        assert!(!traced.trace_events().unwrap().is_empty());
    }

    #[test]
    fn deterministic_for_seed() {
        let mut a = server(2, 42);
        let mut b = server(2, 42);
        for _ in 0..10 {
            a.open_stream(short_object(50)).unwrap();
            b.open_stream(short_object(50)).unwrap();
        }
        for _ in 0..20 {
            let ra = a.run_round();
            let rb = b.run_round();
            assert_eq!(ra, rb);
        }
    }

    #[test]
    fn clean_fault_config_is_byte_identical_to_none() {
        let mut plain = server(2, 61);
        let mut clean = {
            let mut cfg = ServerConfig::paper_reference(2).unwrap();
            cfg.faults = Some(mzd_fault::FaultConfig::default());
            VideoServer::new(cfg, 61).unwrap()
        };
        for _ in 0..8 {
            plain.open_stream(short_object(40)).unwrap();
            clean.open_stream(short_object(40)).unwrap();
        }
        for _ in 0..40 {
            assert_eq!(plain.run_round(), clean.run_round());
        }
    }

    #[test]
    fn faulty_disks_glitch_more_than_clean() {
        let run = |faults: Option<mzd_fault::FaultConfig>| {
            let mut cfg = ServerConfig::paper_reference(1).unwrap();
            cfg.faults = faults;
            let mut s = VideoServer::new(cfg, 62).unwrap();
            while s.open_stream(short_object(10_000)).is_ok() {}
            s.run_rounds(300)
        };
        let clean = run(None);
        let faulty = run(Some(mzd_fault::FaultConfig {
            profile: mzd_fault::FaultProfile {
                p_media: 0.05,
                ..mzd_fault::FaultProfile::default()
            },
            ..mzd_fault::FaultConfig::default()
        }));
        // Most media errors recover via in-slack retries; only the ones
        // whose retries exhaust the remaining round slack glitch.
        assert!(
            faulty > clean + 20,
            "faulty glitches {faulty} vs clean {clean}"
        );
    }

    #[test]
    fn only_disk_scopes_the_injector() {
        let faults = |only: Option<u32>| mzd_fault::FaultConfig {
            profile: mzd_fault::FaultProfile {
                p_media: 0.10,
                ..mzd_fault::FaultProfile::default()
            },
            only_disk: only,
            ..mzd_fault::FaultConfig::default()
        };
        // out-of-range disk index rejected
        let mut cfg = ServerConfig::paper_reference(2).unwrap();
        cfg.faults = Some(faults(Some(2)));
        assert!(VideoServer::new(cfg, 63).is_err());
        // scoping to one of two disks roughly halves the damage
        let run = |only: Option<u32>| {
            let mut cfg = ServerConfig::paper_reference(2).unwrap();
            cfg.faults = Some(faults(only));
            let mut s = VideoServer::new(cfg, 63).unwrap();
            while s.open_stream(short_object(10_000)).is_ok() {}
            s.run_rounds(200)
        };
        let both = run(None);
        let one = run(Some(0));
        assert!(
            one * 2 < both + both / 2 && one > 0,
            "one-disk glitches {one} vs both-disk {both}"
        );
    }

    #[test]
    fn work_ahead_prefetch_fills_the_cache_ahead_of_consumption() {
        let mut cfg = ServerConfig::paper_reference(1).unwrap();
        cfg.cache = Some(CacheSettings::lru(1e9));
        cfg.work_ahead = 3;
        let mut s = VideoServer::new(cfg, 64).unwrap();
        s.open_stream(stored_object("movie", 7, 40)).unwrap();
        for _ in 0..5 {
            s.run_round();
        }
        // With one stream and ample slack, fragments beyond the playhead
        // are already resident.
        let cache = s.cache().unwrap();
        let ahead = (5..8)
            .filter(|&f| {
                cache.contains(FragmentKey {
                    object: 7,
                    fragment: f,
                })
            })
            .count();
        assert!(ahead > 0, "no work-ahead fragments resident");
        // And consuming them later is a pure hit, not a disk visit.
        let hits_before = cache.stats().hits;
        for _ in 0..3 {
            s.run_round();
        }
        assert!(s.cache().unwrap().stats().hits > hits_before);
    }

    #[test]
    fn degradation_ladder_escalates_under_fault_storm_and_sheds_newest() {
        let mut cfg = ServerConfig::paper_reference(1).unwrap();
        cfg.faults = Some(mzd_fault::FaultConfig {
            profile: mzd_fault::FaultProfile {
                p_media: 0.30,
                ..mzd_fault::FaultProfile::default()
            },
            ..mzd_fault::FaultConfig::default()
        });
        cfg.degrade = Some(crate::degrade::DegradeSettings {
            escalate_rounds: 4,
            recover_rounds: 16,
            ..crate::degrade::DegradeSettings::default()
        });
        let mut s = VideoServer::new(cfg, 65).unwrap();
        s.enable_slo(crate::slo::SloSettings::for_target(s.config().target))
            .unwrap();
        let mut handles = Vec::new();
        while let Ok(h) = s.open_stream(short_object(10_000)) {
            handles.push(h);
        }
        assert_eq!(s.degrade_status().unwrap().rung, 0);
        for _ in 0..120 {
            s.run_round();
        }
        let status = s.degrade_status().unwrap();
        assert_eq!(status.rung, 4, "fault storm must max the ladder");
        assert!(status.escalations >= 4);
        assert!(status.shed_streams > 0, "rung 4 must shed streams");
        // Shed streams are the newest handles and are paused, not gone.
        let shed = status.shed_streams as usize;
        let active = s.active_streams();
        assert_eq!(active, handles.len(), "shedding keeps reservations");
        let paused: usize = handles.iter().filter(|h| s.is_paused(**h).unwrap()).count();
        assert_eq!(paused, shed);
        for h in handles.iter().rev().take(shed) {
            assert!(s.is_paused(*h).unwrap(), "newest streams shed first");
        }
        // Admission stays frozen at rung 1+.
        assert!(s.slo_status().unwrap().over_admission_frozen);
    }

    #[test]
    fn ladder_without_slo_stays_at_rung_zero() {
        let mut cfg = ServerConfig::paper_reference(1).unwrap();
        cfg.degrade = Some(crate::degrade::DegradeSettings::default());
        let mut s = VideoServer::new(cfg, 66).unwrap();
        for _ in 0..4 {
            s.open_stream(short_object(100)).unwrap();
        }
        for _ in 0..50 {
            s.run_round();
        }
        let status = s.degrade_status().unwrap();
        assert_eq!(status.rung, 0);
        assert_eq!(status.escalations, 0);
    }
}
