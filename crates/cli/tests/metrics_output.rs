//! End-to-end observability test: run the real `mzd` binary with
//! `--metrics-out` / `--events-out` and check both artifacts parse and
//! carry what the docs promise — a metrics snapshot with round
//! service-time quantiles and a JSONL stream with one record per round.

use mzd_telemetry::json::{parse, Value};
use std::process::Command;

const ROUNDS: u64 = 50;

fn run_simulate(dir: &std::path::Path) -> (String, String) {
    let metrics_path = dir.join("metrics.json");
    let events_path = dir.join("events.jsonl");
    let output = Command::new(env!("CARGO_BIN_EXE_mzd"))
        .args([
            "simulate",
            "--n",
            "20",
            "--rounds",
            &ROUNDS.to_string(),
            "--seed",
            "7",
            "--metrics-out",
            metrics_path.to_str().unwrap(),
            "--events-out",
            events_path.to_str().unwrap(),
        ])
        .output()
        .expect("failed to spawn mzd");
    assert!(
        output.status.success(),
        "mzd simulate failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    (
        std::fs::read_to_string(&metrics_path).expect("metrics file written"),
        std::fs::read_to_string(&events_path).expect("events file written"),
    )
}

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mzd-metrics-test-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn simulate_writes_parseable_metrics_and_one_event_per_round() {
    let dir = temp_dir("simulate");
    let (metrics_text, events_text) = run_simulate(&dir);

    // --- metrics snapshot ---
    let metrics = parse(&metrics_text).expect("metrics JSON parses");
    let counters = metrics
        .get("counters")
        .and_then(Value::as_object)
        .expect("counters object");
    let rounds = counters
        .get("sim.rounds")
        .and_then(Value::as_f64)
        .expect("sim.rounds counter");
    assert!(
        rounds >= ROUNDS as f64,
        "expected at least {ROUNDS} simulated rounds, saw {rounds}"
    );

    let histograms = metrics
        .get("histograms")
        .and_then(Value::as_object)
        .expect("histograms object");
    let service = histograms
        .get("sim.round.service_time")
        .expect("round service-time histogram");
    for key in ["count", "mean", "p50", "p95", "p99", "p999"] {
        let value = service
            .get(key)
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("service-time histogram missing `{key}`"));
        assert!(value.is_finite() && value >= 0.0, "{key} = {value}");
    }
    let p50 = service.get("p50").and_then(Value::as_f64).unwrap();
    let p999 = service.get("p999").and_then(Value::as_f64).unwrap();
    assert!(
        p50 <= p999 && p50 > 0.0,
        "quantiles must be ordered and positive: p50 = {p50}, p999 = {p999}"
    );

    // The solver side of the run is instrumented too: `simulate` prints
    // an analytic bound alongside the estimate, so the Chernoff
    // minimization histogram must be populated.
    let chernoff = histograms
        .get("core.chernoff.iterations")
        .expect("chernoff iteration histogram");
    assert!(chernoff.get("count").and_then(Value::as_f64).unwrap() >= 1.0);

    // --- event stream ---
    let lines: Vec<&str> = events_text.lines().filter(|l| !l.is_empty()).collect();
    let round_events: Vec<Value> = lines
        .iter()
        .map(|l| parse(l).expect("each JSONL line parses"))
        .filter(|v| v.get("event").and_then(Value::as_str) == Some("sim.round"))
        .collect();
    assert_eq!(
        round_events.len(),
        ROUNDS as usize,
        "exactly one sim.round record per simulated round"
    );
    for (i, event) in round_events.iter().enumerate() {
        let round = event
            .get("round")
            .and_then(Value::as_f64)
            .expect("round id");
        assert_eq!(round as usize, i, "round ids are sequential from 0");
        let service = event
            .get("service_time")
            .and_then(Value::as_f64)
            .expect("service_time field");
        assert!(service > 0.0);
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn quiet_flag_suppresses_stdout_report() {
    let output = Command::new(env!("CARGO_BIN_EXE_mzd"))
        .args([
            "simulate", "--n", "5", "--rounds", "10", "--seed", "1", "-q",
        ])
        .output()
        .expect("failed to spawn mzd");
    assert!(output.status.success());
    assert!(
        output.stdout.is_empty(),
        "-q must suppress the report, got: {}",
        String::from_utf8_lossy(&output.stdout)
    );
}

#[test]
fn verbose_flag_streams_events_to_stderr() {
    let output = Command::new(env!("CARGO_BIN_EXE_mzd"))
        .args([
            "simulate", "--n", "5", "--rounds", "10", "--seed", "1", "-v",
        ])
        .output()
        .expect("failed to spawn mzd");
    assert!(output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("\"event\":\"sim.round\""),
        "-v must stream round events to stderr, got: {stderr}"
    );
}

#[test]
fn fleet_buffer_gauge_sums_every_node() {
    // Every node of a fleet sets the shared `server.buffer.occupancy`
    // gauge; the fleet then overwrites it with the node-order sum, so the
    // exposition reports the whole fleet's backlog, not one node's.
    let dir = temp_dir("fleet-buffer");
    let events_path = dir.join("events.jsonl");
    let prom_path = dir.join("fleet.prom");
    let rounds = 60u64;
    let output = Command::new(env!("CARGO_BIN_EXE_mzd"))
        .args([
            "serve",
            "--nodes",
            "4",
            "--disks",
            "2",
            "--streams",
            "200",
            "--rounds",
            &rounds.to_string(),
            "--seed",
            "3",
            "--events-out",
            events_path.to_str().unwrap(),
            "--prom-out",
            prom_path.to_str().unwrap(),
        ])
        .output()
        .expect("failed to spawn mzd");
    assert!(
        output.status.success(),
        "mzd serve --nodes 4 failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let events = std::fs::read_to_string(&events_path).expect("events file written");
    let last_round: Vec<f64> = events
        .lines()
        .map(|line| parse(line).expect("event line parses"))
        .filter(|e| {
            e.get("event").and_then(Value::as_str) == Some("server.round")
                && e.get("round").and_then(Value::as_f64) == Some((rounds - 1) as f64)
        })
        .map(|e| {
            e.get("buffer_occupancy")
                .and_then(Value::as_f64)
                .expect("server.round carries buffer_occupancy")
        })
        .collect();
    assert_eq!(last_round.len(), 4, "one last-round record per node");
    let fleet_sum: f64 = last_round.iter().sum();
    let prom = std::fs::read_to_string(&prom_path).expect("prom file written");
    let gauge: f64 = prom
        .lines()
        .find_map(|l| l.strip_prefix("mzd_server_buffer_occupancy "))
        .expect("buffer gauge in the exposition")
        .parse()
        .expect("gauge value parses");
    assert!(
        fleet_sum > last_round[0],
        "more than one node holds streams"
    );
    assert_eq!(gauge, fleet_sum, "per-node values: {last_round:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
