//! Flight recorder: a fixed-capacity ring of full-fidelity per-round
//! snapshots, dumped as a deterministic post-mortem bundle on demand.
//!
//! The ring is preallocated at attach time and `push` writes into it
//! without allocating or resizing, so recording costs a handful of moves
//! per round on the server's hot loop. Snapshots carry only logical time
//! (round ids, RNG stream positions) and deterministic state — never
//! wall-clock — so a bundle dumped from a seeded run is byte-identical
//! across reruns and across `--jobs` widths.
//!
//! A bundle is a directory with two files:
//!
//! * `rounds.jsonl` — the retained snapshots, oldest first, one JSON
//!   object per line;
//! * `MANIFEST.json` — schema id, trigger, trigger round, capture
//!   counts, a config echo, and per-file byte lengths + FNV-1a-64
//!   checksums so `mzd postmortem` can detect truncation or tampering.

use mzd_telemetry::json::{self, Value};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Why a bundle was dumped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DumpTrigger {
    /// The SLO fast-burn alert was raised this round.
    SloFastBurn,
    /// The degradation ladder escalated a rung this round.
    DegradeEscalation,
    /// A disk overran the round deadline this round.
    RoundOverrun,
    /// A panic unwound through the installed hook.
    Panic,
    /// A fleet declared one or more node leases expired this round (a
    /// lease expiry storm — every node's recorder dumps so the outage
    /// window is auditable from all vantage points).
    LeaseExpiryStorm,
    /// A stream exhausted the composed fleet glitch budget `g` this
    /// round (the per-stream bound the cluster admits against).
    BudgetBreach,
    /// The health detector ejected a gray node this round: its streams
    /// migrated and the fleet guarantee was re-composed, so the window
    /// leading up to the ejection is worth a full-fidelity bundle.
    HealthEjection,
    /// Explicit request (CLI `--dump-on-exit`, tests).
    Manual,
}

impl DumpTrigger {
    /// Stable identifier used in bundle directory names and manifests.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            DumpTrigger::SloFastBurn => "slo.fast_burn",
            DumpTrigger::DegradeEscalation => "degrade.escalated",
            DumpTrigger::RoundOverrun => "round.overrun",
            DumpTrigger::Panic => "panic",
            DumpTrigger::LeaseExpiryStorm => "lease.expiry_storm",
            DumpTrigger::BudgetBreach => "budget.breach",
            DumpTrigger::HealthEjection => "health.ejection",
            DumpTrigger::Manual => "manual",
        }
    }

    /// Parse the manifest form back.
    #[must_use]
    pub fn parse(text: &str) -> Option<Self> {
        Some(match text {
            "slo.fast_burn" => DumpTrigger::SloFastBurn,
            "degrade.escalated" => DumpTrigger::DegradeEscalation,
            "round.overrun" => DumpTrigger::RoundOverrun,
            "panic" => DumpTrigger::Panic,
            "lease.expiry_storm" => DumpTrigger::LeaseExpiryStorm,
            "budget.breach" => DumpTrigger::BudgetBreach,
            "health.ejection" => DumpTrigger::HealthEjection,
            "manual" => DumpTrigger::Manual,
            _ => return None,
        })
    }
}

/// One disk's phase decomposition for one round — a copy of the
/// simulator's `RoundOutcome` split (`seek + rotation + transfer +
/// stall + fault = service_time`, exactly).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DiskPhases {
    /// Disk index.
    pub disk: u32,
    /// Requests served in the sweep.
    pub requests: u32,
    /// Total sweep service time, seconds.
    pub service_time: f64,
    /// Whether the disk overran the round deadline.
    pub late: bool,
    /// Seek component, seconds.
    pub seek_time: f64,
    /// Rotational-latency component, seconds.
    pub rotational_time: f64,
    /// Transfer component, seconds.
    pub transfer_time: f64,
    /// Thermal-recalibration stall component, seconds.
    pub stall_time: f64,
    /// Injected-fault component, seconds.
    pub fault_time: f64,
}

/// Cumulative fault-injector counters as of a snapshot's round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultTotals {
    /// Media errors injected.
    pub media_errors: u64,
    /// Retry rereads performed.
    pub retries: u64,
    /// Transient stalls injected.
    pub stalls: u64,
    /// Remap detours taken.
    pub remaps: u64,
    /// Reads abandoned after retry exhaustion.
    pub failed_reads: u64,
    /// Rounds a disk spent unavailable.
    pub unavailable_rounds: u64,
}

/// Full-fidelity state of one server round.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RoundSnapshot {
    /// 0-based round index.
    pub round: u64,
    /// Active streams at end of round.
    pub active_streams: u64,
    /// Streams queued for admission at end of round.
    pub waiting_streams: u64,
    /// Glitched stream-rounds this round.
    pub glitches: u64,
    /// Degradation-ladder rung (0 = full service).
    pub rung: u8,
    /// SLO fast-window burn rate (0 when no SLO layer).
    pub burn_fast: f64,
    /// SLO slow-window burn rate.
    pub burn_slow: f64,
    /// SLO long-window burn rate.
    pub burn_long: f64,
    /// Cache hits this round.
    pub cache_hits: u64,
    /// Cache delayed hits (coalesced onto an in-flight fetch).
    pub cache_delayed_hits: u64,
    /// Cache misses this round.
    pub cache_misses: u64,
    /// Cache resident bytes at end of round.
    pub cache_occupancy_bytes: f64,
    /// Per-disk active-stream load vector for the next round.
    pub load: Vec<u32>,
    /// Per-disk RNG stream positions: rounds each disk simulator has
    /// drawn (the logical position of its private xoshiro stream).
    pub rng_positions: Vec<u64>,
    /// Per-disk phase decomposition.
    pub disks: Vec<DiskPhases>,
    /// Cumulative fault counters summed over disks.
    pub faults: FaultTotals,
}

fn push_u64(out: &mut String, key: &str, v: u64) {
    out.push(',');
    json::write_escaped(out, key);
    out.push(':');
    out.push_str(&v.to_string());
}

fn push_f64(out: &mut String, key: &str, v: f64) {
    out.push(',');
    json::write_escaped(out, key);
    out.push(':');
    json::write_f64(out, v);
}

impl RoundSnapshot {
    /// Serialize as one line of JSON (fixed member order — byte-stable
    /// for identical state).
    #[must_use]
    fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(256 + self.disks.len() * 160);
        out.push_str("{\"round\":");
        out.push_str(&self.round.to_string());
        push_u64(&mut out, "active", self.active_streams);
        push_u64(&mut out, "waiting", self.waiting_streams);
        push_u64(&mut out, "glitches", self.glitches);
        push_u64(&mut out, "rung", u64::from(self.rung));
        push_f64(&mut out, "burn_fast", self.burn_fast);
        push_f64(&mut out, "burn_slow", self.burn_slow);
        push_f64(&mut out, "burn_long", self.burn_long);
        push_u64(&mut out, "cache_hits", self.cache_hits);
        push_u64(&mut out, "cache_delayed_hits", self.cache_delayed_hits);
        push_u64(&mut out, "cache_misses", self.cache_misses);
        push_f64(
            &mut out,
            "cache_occupancy_bytes",
            self.cache_occupancy_bytes,
        );
        out.push_str(",\"load\":[");
        for (i, l) in self.load.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&l.to_string());
        }
        out.push_str("],\"rng_positions\":[");
        for (i, p) in self.rng_positions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&p.to_string());
        }
        out.push_str("],\"disks\":[");
        for (i, d) in self.disks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"disk\":");
            out.push_str(&d.disk.to_string());
            push_u64(&mut out, "requests", u64::from(d.requests));
            push_f64(&mut out, "service_time", d.service_time);
            out.push_str(",\"late\":");
            out.push_str(if d.late { "true" } else { "false" });
            push_f64(&mut out, "seek_time", d.seek_time);
            push_f64(&mut out, "rotational_time", d.rotational_time);
            push_f64(&mut out, "transfer_time", d.transfer_time);
            push_f64(&mut out, "stall_time", d.stall_time);
            push_f64(&mut out, "fault_time", d.fault_time);
            out.push('}');
        }
        out.push_str("],\"faults\":{\"media_errors\":");
        out.push_str(&self.faults.media_errors.to_string());
        push_u64(&mut out, "retries", self.faults.retries);
        push_u64(&mut out, "stalls", self.faults.stalls);
        push_u64(&mut out, "remaps", self.faults.remaps);
        push_u64(&mut out, "failed_reads", self.faults.failed_reads);
        push_u64(
            &mut out,
            "unavailable_rounds",
            self.faults.unavailable_rounds,
        );
        out.push_str("}}");
        out
    }

    /// Parse a `rounds.jsonl` line back into a snapshot. Returns `None`
    /// for malformed lines; missing numeric members default to 0 so old
    /// bundles stay readable across additive schema growth.
    #[must_use]
    fn parse_json_line(line: &str) -> Option<Self> {
        let doc = json::parse(line).ok()?;
        let num = |v: &Value, key: &str| v.get(key).and_then(Value::as_f64).unwrap_or(0.0);
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let int = |v: &Value, key: &str| num(v, key).max(0.0) as u64;
        let mut snap = RoundSnapshot {
            round: int(&doc, "round"),
            active_streams: int(&doc, "active"),
            waiting_streams: int(&doc, "waiting"),
            glitches: int(&doc, "glitches"),
            #[allow(clippy::cast_possible_truncation)]
            rung: int(&doc, "rung").min(u64::from(u8::MAX)) as u8,
            burn_fast: num(&doc, "burn_fast"),
            burn_slow: num(&doc, "burn_slow"),
            burn_long: num(&doc, "burn_long"),
            cache_hits: int(&doc, "cache_hits"),
            cache_delayed_hits: int(&doc, "cache_delayed_hits"),
            cache_misses: int(&doc, "cache_misses"),
            cache_occupancy_bytes: num(&doc, "cache_occupancy_bytes"),
            ..RoundSnapshot::default()
        };
        if let Some(load) = doc.get("load").and_then(Value::as_array) {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            snap.load.extend(
                load.iter()
                    .map(|v| v.as_f64().unwrap_or(0.0).max(0.0) as u32),
            );
        }
        if let Some(pos) = doc.get("rng_positions").and_then(Value::as_array) {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            snap.rng_positions.extend(
                pos.iter()
                    .map(|v| v.as_f64().unwrap_or(0.0).max(0.0) as u64),
            );
        }
        if let Some(disks) = doc.get("disks").and_then(Value::as_array) {
            for d in disks {
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                snap.disks.push(DiskPhases {
                    disk: int(d, "disk") as u32,
                    requests: int(d, "requests") as u32,
                    service_time: num(d, "service_time"),
                    late: d.get("late") == Some(&Value::Bool(true)),
                    seek_time: num(d, "seek_time"),
                    rotational_time: num(d, "rotational_time"),
                    transfer_time: num(d, "transfer_time"),
                    stall_time: num(d, "stall_time"),
                    fault_time: num(d, "fault_time"),
                });
            }
        }
        if let Some(f) = doc.get("faults") {
            snap.faults = FaultTotals {
                media_errors: int(f, "media_errors"),
                retries: int(f, "retries"),
                stalls: int(f, "stalls"),
                remaps: int(f, "remaps"),
                failed_reads: int(f, "failed_reads"),
                unavailable_rounds: int(f, "unavailable_rounds"),
            };
        }
        Some(snap)
    }
}

/// The fixed-capacity snapshot ring. Push never allocates after
/// construction; the ring retains the newest `capacity` snapshots.
#[derive(Debug)]
pub struct FlightRecorder {
    slots: Vec<Option<RoundSnapshot>>,
    /// Snapshots pushed over the recorder's lifetime.
    pushed: u64,
}

impl FlightRecorder {
    /// An empty ring retaining at most `capacity` rounds (min 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            slots: (0..capacity).map(|_| None).collect(),
            pushed: 0,
        }
    }

    /// Ring capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Snapshots currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        usize::try_from(self.pushed).map_or(self.slots.len(), |p| p.min(self.slots.len()))
    }

    /// Whether nothing has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pushed == 0
    }

    /// Snapshots pushed over the recorder's lifetime (retained or
    /// since overwritten).
    #[must_use]
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Record one round, overwriting the oldest slot when full.
    pub fn push(&mut self, snapshot: RoundSnapshot) {
        let idx = usize::try_from(self.pushed % self.slots.len() as u64).expect("ring index fits");
        self.slots[idx] = Some(snapshot);
        self.pushed += 1;
    }

    /// Retained snapshots, oldest first.
    #[must_use]
    fn iter_oldest_first(&self) -> Vec<&RoundSnapshot> {
        let cap = self.slots.len() as u64;
        let start = self.pushed.saturating_sub(cap);
        (start..self.pushed)
            .filter_map(|i| self.slots[usize::try_from(i % cap).expect("ring index fits")].as_ref())
            .collect()
    }
}

/// Recorder configuration: ring size, bundle destination, dump limits
/// and the config echo replayed into every manifest.
#[derive(Debug, Clone)]
pub struct RecorderSettings {
    /// Rounds retained (default 64).
    pub capacity: usize,
    /// Directory bundles are written under (created on demand).
    pub out_dir: PathBuf,
    /// Maximum bundles dumped per run; later triggers are counted but
    /// not written (default 4).
    pub max_dumps: usize,
    /// `(key, value)` pairs echoed into each manifest's `config` object
    /// — the run's provenance (disk profile, seed, fragment moments)
    /// so `mzd postmortem` can rebuild the analytic model.
    pub config_echo: Vec<(String, String)>,
}

impl RecorderSettings {
    /// Defaults: 64 rounds, 4 dumps, bundles under `dir`.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            capacity: 64,
            out_dir: dir.into(),
            max_dumps: 4,
            config_echo: Vec::new(),
        }
    }
}

#[derive(Debug)]
struct RecorderInner {
    ring: FlightRecorder,
    settings: RecorderSettings,
    /// `(trigger, bundle path)` of every dump written.
    dumps: Vec<(DumpTrigger, PathBuf)>,
    /// Triggers suppressed by the `max_dumps` cap or by having already
    /// dumped for the same trigger kind.
    suppressed: u64,
}

/// Shared handle to a flight recorder: clone freely; the server pushes,
/// the panic hook and the CLI dump.
#[derive(Debug, Clone)]
pub struct Recorder {
    inner: Arc<Mutex<RecorderInner>>,
}

/// Lock that survives a poisoned mutex: the panic hook dumps *during*
/// unwinding, when the pushing thread may have poisoned the lock.
fn lock(inner: &Mutex<RecorderInner>) -> std::sync::MutexGuard<'_, RecorderInner> {
    inner
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Recorder {
    /// Create a recorder with the given settings.
    #[must_use]
    pub fn new(settings: RecorderSettings) -> Self {
        Self {
            inner: Arc::new(Mutex::new(RecorderInner {
                ring: FlightRecorder::new(settings.capacity),
                settings,
                dumps: Vec::new(),
                suppressed: 0,
            })),
        }
    }

    /// Record one round's snapshot.
    pub fn push(&self, snapshot: RoundSnapshot) {
        lock(&self.inner).ring.push(snapshot);
    }

    /// Snapshots currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        lock(&self.inner).ring.len()
    }

    /// Whether nothing has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        lock(&self.inner).ring.is_empty()
    }

    /// Bundles dumped so far, as `(trigger, path)`.
    #[must_use]
    pub fn dumps(&self) -> Vec<(DumpTrigger, PathBuf)> {
        lock(&self.inner).dumps.clone()
    }

    /// Dump the retained window as a bundle, if the trigger is eligible:
    /// each trigger kind dumps at most once per run, and at most
    /// `max_dumps` bundles are written in total. Returns the bundle
    /// directory when one was written, `None` when suppressed or empty.
    ///
    /// # Errors
    /// Propagates bundle I/O failures.
    pub fn trigger_dump(&self, trigger: DumpTrigger) -> std::io::Result<Option<PathBuf>> {
        let mut inner = lock(&self.inner);
        if inner.ring.is_empty() {
            return Ok(None);
        }
        if inner.dumps.len() >= inner.settings.max_dumps
            || inner.dumps.iter().any(|(t, _)| *t == trigger)
        {
            inner.suppressed += 1;
            return Ok(None);
        }
        let path = write_bundle(&inner.ring, &inner.settings, trigger)?;
        inner.dumps.push((trigger, path.clone()));
        Ok(Some(path))
    }
}

/// FNV-1a 64-bit checksum — dependency-free integrity check for bundle
/// files (not cryptographic; detects truncation and accidental edits).
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Bundle schema identifier written into every manifest.
pub const BUNDLE_SCHEMA: &str = "mzd-postmortem/v1";

fn write_bundle(
    ring: &FlightRecorder,
    settings: &RecorderSettings,
    trigger: DumpTrigger,
) -> std::io::Result<PathBuf> {
    let snaps = ring.iter_oldest_first();
    let last_round = snaps.last().map_or(0, |s| s.round);
    let dir = settings.out_dir.join(format!(
        "postmortem-r{last_round:06}-{}",
        trigger.as_str().replace('.', "-")
    ));
    std::fs::create_dir_all(&dir)?;
    let mut rounds = String::with_capacity(snaps.len() * 256);
    for s in &snaps {
        rounds.push_str(&s.to_json_line());
        rounds.push('\n');
    }
    std::fs::write(dir.join("rounds.jsonl"), &rounds)?;
    let mut manifest = String::with_capacity(512);
    manifest.push_str("{\n  \"schema\": ");
    json::write_escaped(&mut manifest, BUNDLE_SCHEMA);
    manifest.push_str(",\n  \"trigger\": ");
    json::write_escaped(&mut manifest, trigger.as_str());
    manifest.push_str(&format!(
        ",\n  \"round\": {last_round},\n  \"captured\": {},\n  \"capacity\": {},\n  \"config\": {{",
        snaps.len(),
        ring.capacity()
    ));
    for (i, (k, v)) in settings.config_echo.iter().enumerate() {
        manifest.push_str(if i == 0 { "\n    " } else { ",\n    " });
        json::write_escaped(&mut manifest, k);
        manifest.push_str(": ");
        json::write_escaped(&mut manifest, v);
    }
    manifest.push_str("\n  },\n  \"files\": [\n    {\"name\": \"rounds.jsonl\", \"bytes\": ");
    manifest.push_str(&rounds.len().to_string());
    manifest.push_str(&format!(
        ", \"fnv1a64\": \"{:016x}\"}}\n  ]\n}}\n",
        fnv1a64(rounds.as_bytes())
    ));
    std::fs::write(dir.join("MANIFEST.json"), manifest)?;
    Ok(dir)
}

/// A bundle read back from disk, checksum-verified.
#[derive(Debug, Clone, PartialEq)]
pub struct Bundle {
    /// Manifest schema id.
    pub schema: String,
    /// What fired the dump.
    pub trigger: String,
    /// Round of the newest retained snapshot (the trigger round).
    pub round: u64,
    /// Snapshots the manifest says were captured.
    pub captured: u64,
    /// Ring capacity at dump time.
    pub capacity: u64,
    /// Config echo: run provenance as `(key, value)` pairs, sorted.
    pub config: Vec<(String, String)>,
    /// The retained snapshots, oldest first.
    pub rounds: Vec<RoundSnapshot>,
}

impl Bundle {
    /// A config echo value by key.
    #[must_use]
    pub fn config_value(&self, key: &str) -> Option<&str> {
        self.config
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Read and validate a bundle directory: manifest schema, file
/// checksums and snapshot lines.
///
/// # Errors
/// A human-readable message for I/O failures, checksum mismatches, an
/// unknown schema or malformed snapshot lines.
pub fn read_bundle(dir: &Path) -> Result<Bundle, String> {
    let manifest_path = dir.join("MANIFEST.json");
    let manifest_text = std::fs::read_to_string(&manifest_path)
        .map_err(|e| format!("cannot read {}: {e}", manifest_path.display()))?;
    let doc = json::parse(&manifest_text).map_err(|e| format!("manifest is not JSON: {e}"))?;
    let schema = doc
        .get("schema")
        .and_then(Value::as_str)
        .unwrap_or("")
        .to_string();
    if schema != BUNDLE_SCHEMA {
        return Err(format!(
            "unsupported bundle schema `{schema}` (expected `{BUNDLE_SCHEMA}`)"
        ));
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let int = |key: &str| doc.get(key).and_then(Value::as_f64).unwrap_or(0.0).max(0.0) as u64;
    let mut config: Vec<(String, String)> = doc
        .get("config")
        .and_then(Value::as_object)
        .map(|m| {
            m.iter()
                .filter_map(|(k, v)| v.as_str().map(|s| (k.clone(), s.to_string())))
                .collect()
        })
        .unwrap_or_default();
    config.sort();
    let files = doc
        .get("files")
        .and_then(Value::as_array)
        .ok_or("manifest has no files list")?;
    let mut rounds_text = None;
    for f in files {
        let name = f.get("name").and_then(Value::as_str).unwrap_or("");
        let path = dir.join(name);
        let bytes = std::fs::read(&path).map_err(|e| format!("cannot read {name}: {e}"))?;
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let want_len = f.get("bytes").and_then(Value::as_f64).unwrap_or(-1.0) as i64;
        if want_len >= 0 && bytes.len() as i64 != want_len {
            return Err(format!(
                "{name}: {} bytes on disk, manifest says {want_len} (truncated bundle?)",
                bytes.len()
            ));
        }
        let want_sum = f.get("fnv1a64").and_then(Value::as_str).unwrap_or("");
        let got_sum = format!("{:016x}", fnv1a64(&bytes));
        if !want_sum.is_empty() && got_sum != want_sum {
            return Err(format!(
                "{name}: checksum mismatch (manifest {want_sum}, file {got_sum})"
            ));
        }
        if name == "rounds.jsonl" {
            rounds_text = Some(String::from_utf8(bytes).map_err(|_| "rounds.jsonl is not UTF-8")?);
        }
    }
    let rounds_text = rounds_text.ok_or("manifest lists no rounds.jsonl")?;
    let mut rounds = Vec::new();
    for (i, line) in rounds_text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        rounds.push(
            RoundSnapshot::parse_json_line(line)
                .ok_or_else(|| format!("rounds.jsonl line {} is malformed", i + 1))?,
        );
    }
    Ok(Bundle {
        schema,
        trigger: doc
            .get("trigger")
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_string(),
        round: int("round"),
        captured: int("captured"),
        capacity: int("capacity"),
        config,
        rounds,
    })
}

/// Install a process-wide panic hook that dumps `recorder`'s window
/// (trigger `panic`) before delegating to the previous hook, so a crash
/// mid-run still leaves a post-mortem bundle behind. Installs over the
/// current hook; call at most once per process.
pub fn install_panic_hook(recorder: Recorder) {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        // Best-effort: a failed dump must not mask the original panic.
        let _ = recorder.trigger_dump(DumpTrigger::Panic);
        previous(info);
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(round: u64) -> RoundSnapshot {
        RoundSnapshot {
            round,
            active_streams: 10,
            glitches: round % 3,
            burn_fast: 0.5 * round as f64,
            load: vec![5, 5],
            rng_positions: vec![round + 1, round + 1],
            disks: vec![DiskPhases {
                disk: 0,
                requests: 5,
                service_time: 0.8,
                late: false,
                seek_time: 0.1,
                rotational_time: 0.2,
                transfer_time: 0.5,
                stall_time: 0.0,
                fault_time: 0.0,
            }],
            ..RoundSnapshot::default()
        }
    }

    #[test]
    fn snapshot_json_round_trips() {
        let s = snap(17);
        let line = s.to_json_line();
        let back = RoundSnapshot::parse_json_line(&line).expect("parses");
        assert_eq!(back, s);
        assert!(RoundSnapshot::parse_json_line("not json").is_none());
    }

    #[test]
    fn ring_retains_newest_window() {
        let mut r = FlightRecorder::new(4);
        assert!(r.is_empty());
        for i in 0..10 {
            r.push(snap(i));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.pushed(), 10);
        let rounds: Vec<u64> = r.iter_oldest_first().iter().map(|s| s.round).collect();
        assert_eq!(rounds, vec![6, 7, 8, 9]);
    }

    #[test]
    fn dump_and_read_back_verifies() {
        let dir = std::env::temp_dir().join(format!("mzd-prof-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut settings = RecorderSettings::new(&dir);
        settings.capacity = 8;
        settings.config_echo = vec![
            ("disk".into(), "viking".into()),
            ("seed".into(), "7".into()),
        ];
        let rec = Recorder::new(settings);
        assert!(rec.trigger_dump(DumpTrigger::Manual).unwrap().is_none());
        for i in 0..20 {
            rec.push(snap(i));
        }
        let path = rec
            .trigger_dump(DumpTrigger::SloFastBurn)
            .unwrap()
            .expect("dumped");
        // Same trigger kind dumps once.
        assert!(rec
            .trigger_dump(DumpTrigger::SloFastBurn)
            .unwrap()
            .is_none());
        let bundle = read_bundle(&path).expect("valid bundle");
        assert_eq!(bundle.schema, BUNDLE_SCHEMA);
        assert_eq!(bundle.trigger, "slo.fast_burn");
        assert_eq!(bundle.round, 19);
        assert_eq!(bundle.rounds.len(), 8);
        assert_eq!(bundle.rounds[0].round, 12);
        assert_eq!(bundle.config_value("disk"), Some("viking"));
        // Tampering is detected.
        let rounds_path = path.join("rounds.jsonl");
        let mut text = std::fs::read_to_string(&rounds_path).unwrap();
        text.push('\n');
        std::fs::write(&rounds_path, text).unwrap();
        assert!(read_bundle(&path).unwrap_err().contains("bytes"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn max_dumps_caps_bundle_count() {
        let dir = std::env::temp_dir().join(format!("mzd-prof-cap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut settings = RecorderSettings::new(&dir);
        settings.max_dumps = 1;
        let rec = Recorder::new(settings);
        rec.push(snap(0));
        assert!(rec
            .trigger_dump(DumpTrigger::RoundOverrun)
            .unwrap()
            .is_some());
        assert!(rec
            .trigger_dump(DumpTrigger::DegradeEscalation)
            .unwrap()
            .is_none());
        assert_eq!(rec.dumps().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn trigger_names_round_trip() {
        for t in [
            DumpTrigger::SloFastBurn,
            DumpTrigger::DegradeEscalation,
            DumpTrigger::RoundOverrun,
            DumpTrigger::Panic,
            DumpTrigger::LeaseExpiryStorm,
            DumpTrigger::BudgetBreach,
            DumpTrigger::Manual,
        ] {
            assert_eq!(DumpTrigger::parse(t.as_str()), Some(t));
        }
        assert_eq!(DumpTrigger::parse("nope"), None);
    }
}
