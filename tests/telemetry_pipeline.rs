//! Cross-crate observability pipeline: run the real simulator with a
//! capturing event sink and check that (a) every round produces exactly
//! one structured `sim.round` event that parses as JSON, (b) the global
//! registry accumulates the matching histograms/counters, and (c) a
//! seeded run is deterministic — the event stream is byte-identical
//! across replays (events carry logical round ids, not wall-clock time).

use mzd_telemetry::event::{set_sink, MemorySink, NullSink};
use mzd_telemetry::json::{parse, Value};
use std::sync::Arc;

const ROUNDS: u64 = 200;
const N: u32 = 24;
const SEED: u64 = 11;

/// The event sink is process-global; tests that swap it must not
/// overlap (the test harness runs them on separate threads).
static SINK_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn sink_guard() -> std::sync::MutexGuard<'static, ()> {
    SINK_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn run_capture() -> Vec<String> {
    let cfg = mzd_sim::SimConfig::paper_reference().expect("valid sim");
    let sink = Arc::new(MemorySink::new());
    let previous = set_sink(sink.clone());
    let est = mzd_sim::estimate_p_late(&cfg, N, ROUNDS, SEED).expect("valid run");
    set_sink(previous);
    assert!(est.p_late >= 0.0);
    sink.lines()
}

#[test]
fn simulator_emits_one_parseable_event_per_round_and_fills_the_registry() {
    let _guard = sink_guard();
    let rounds_before = mzd_telemetry::global().counter("sim.rounds").get();
    let service_before = mzd_telemetry::global()
        .histogram("sim.round.service_time")
        .load()
        .count();

    let lines = run_capture();

    let round_events: Vec<Value> = lines
        .iter()
        .map(|l| parse(l).expect("event line parses as JSON"))
        .filter(|v| v.get("event").and_then(Value::as_str) == Some("sim.round"))
        .collect();
    assert_eq!(round_events.len(), ROUNDS as usize);
    for event in &round_events {
        for key in ["round", "n", "service_time", "seek", "rot", "transfer"] {
            let value = event
                .get(key)
                .and_then(Value::as_f64)
                .unwrap_or_else(|| panic!("sim.round event missing `{key}`"));
            assert!(value.is_finite() && value >= 0.0, "{key} = {value}");
        }
        assert_eq!(
            event.get("n").and_then(Value::as_f64),
            Some(f64::from(N)),
            "each round serves the full stream set"
        );
    }

    // The registry saw the same rounds the sink did.
    let rounds_after = mzd_telemetry::global().counter("sim.rounds").get();
    let service_after = mzd_telemetry::global()
        .histogram("sim.round.service_time")
        .load()
        .count();
    assert!(rounds_after >= rounds_before + ROUNDS);
    assert!(service_after >= service_before + ROUNDS);
    let snapshot = mzd_telemetry::global().snapshot();
    let json = parse(&snapshot.to_json()).expect("snapshot serializes to valid JSON");
    let p95 = json
        .get("histograms")
        .and_then(|h| h.get("sim.round.service_time"))
        .and_then(|h| h.get("p95"))
        .and_then(Value::as_f64)
        .expect("service-time p95 in snapshot");
    assert!(p95 > 0.0 && p95 < 10.0, "p95 = {p95}");
}

#[test]
fn seeded_replay_produces_identical_event_streams() {
    let _guard = sink_guard();
    // Deterministic observability: no wall-clock fields in events, so a
    // seeded replay is byte-identical — diffable run-to-run.
    let first = run_capture();
    let second = run_capture();
    assert_eq!(first, second);
}

#[test]
fn null_sink_suppresses_event_construction() {
    let _guard = sink_guard();
    let previous = set_sink(Arc::new(NullSink));
    let enabled = mzd_telemetry::events_enabled();
    set_sink(previous);
    assert!(
        !enabled,
        "NullSink must disable the events_enabled fast path"
    );
}
