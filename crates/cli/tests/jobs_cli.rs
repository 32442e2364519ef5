//! End-to-end determinism check for `--jobs`: the worker count must
//! never change what the tool reports. Runs the real `mzd` binary with
//! a replicated simulation, a conformance-checked serve whose
//! predicted-CDF tables are built on the worker pool, and a gray-node
//! fleet with migrations, at different `--jobs` values and demands
//! byte-identical outputs.

use std::process::Command;

fn simulate_stdout(jobs: &str) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_mzd"))
        .args([
            "simulate", "--n", "27", "--rounds", "400", "--reps", "4", "--seed", "9", "--jobs",
            jobs,
        ])
        .output()
        .expect("failed to spawn mzd");
    assert!(
        output.status.success(),
        "mzd simulate --jobs {jobs} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("utf-8 stdout")
}

#[test]
fn simulate_output_is_identical_across_job_counts() {
    let serial = simulate_stdout("1");
    assert!(
        serial.contains("4 replications"),
        "expected the replication count in the report: {serial}"
    );
    for jobs in ["2", "8"] {
        let parallel = simulate_stdout(jobs);
        assert_eq!(
            serial, parallel,
            "--jobs {jobs} changed the simulated estimate"
        );
    }
}

/// `(stdout, --events-out)` of a 4-disk `--slo` serve over capacity.
fn slo_serve_outputs(jobs: &str) -> (String, Vec<u8>) {
    let events = std::env::temp_dir().join(format!(
        "mzd-jobs-cli-slo-{jobs}-{}.jsonl",
        std::process::id()
    ));
    let output = Command::new(env!("CARGO_BIN_EXE_mzd"))
        .args([
            "serve",
            "--slo",
            "--disks",
            "4",
            "--streams",
            "120",
            "--rounds",
            "600",
            "--seed",
            "3",
            "--jobs",
            jobs,
            "--events-out",
        ])
        .arg(&events)
        .output()
        .expect("failed to spawn mzd");
    assert!(
        output.status.success(),
        "mzd serve --slo --jobs {jobs} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let written = std::fs::read(&events).expect("events file written");
    let _ = std::fs::remove_file(&events);
    (
        String::from_utf8(output.stdout).expect("utf-8 stdout"),
        written,
    )
}

#[test]
fn slo_serve_outputs_are_identical_across_job_counts() {
    let (stdout, events) = slo_serve_outputs("1");
    assert!(stdout.contains("conformance:"), "stdout: {stdout}");
    for jobs in ["2", "8"] {
        let (other_stdout, other_events) = slo_serve_outputs(jobs);
        assert_eq!(stdout, other_stdout, "--jobs {jobs} changed stdout");
        assert!(events == other_events, "--jobs {jobs} changed --events-out");
    }
}

/// `(stdout, --events-out, --prom-out)` of a 16-node gray-node fleet
/// with the health detector on, run in its own directory so the
/// relative artifact paths in stdout match across runs.
fn fleet_serve_outputs(jobs: &str, run: u32) -> (String, Vec<u8>, Vec<u8>) {
    let dir = std::env::temp_dir().join(format!(
        "mzd-jobs-cli-fleet-{jobs}-{run}-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create run dir");
    let output = Command::new(env!("CARGO_BIN_EXE_mzd"))
        .current_dir(&dir)
        .args([
            "serve",
            "--nodes",
            "16",
            "--disks",
            "2",
            "--rounds",
            "200",
            "--seed",
            "5",
            "--object-rounds",
            "60",
            "--fault-profile",
            "graynode",
            "--gray-node",
            "2",
            "--health",
            "--jobs",
            jobs,
            "--events-out",
            "events.jsonl",
            "--prom-out",
            "fleet.prom",
        ])
        .output()
        .expect("failed to spawn mzd");
    assert!(
        output.status.success(),
        "mzd serve --nodes 16 --jobs {jobs} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let events = std::fs::read(dir.join("events.jsonl")).expect("events file written");
    let prom = std::fs::read(dir.join("fleet.prom")).expect("prom file written");
    let _ = std::fs::remove_dir_all(&dir);
    (
        String::from_utf8(output.stdout).expect("utf-8 stdout"),
        events,
        prom,
    )
}

#[test]
fn fleet_serve_outputs_are_identical_across_job_counts() {
    // Fleet nodes step one after another on the calling thread, so the
    // shared gauges, histogram sums and event sink see them in node
    // order whatever the worker count.
    let (stdout, events, prom) = fleet_serve_outputs("1", 0);
    assert!(
        stdout.contains("1 ejection(s)") && !stdout.contains(" 0 stream(s) migrated"),
        "the gray node must be ejected and its streams migrated: {stdout}"
    );
    for jobs in ["1", "2", "8"] {
        for run in 1..=2 {
            let (other_stdout, other_events, other_prom) = fleet_serve_outputs(jobs, run);
            assert_eq!(
                stdout, other_stdout,
                "--jobs {jobs} run {run} changed stdout"
            );
            assert!(
                events == other_events,
                "--jobs {jobs} run {run} changed --events-out"
            );
            assert!(
                prom == other_prom,
                "--jobs {jobs} run {run} changed --prom-out"
            );
        }
    }
}

#[test]
fn bad_jobs_value_is_a_usage_error() {
    let output = Command::new(env!("CARGO_BIN_EXE_mzd"))
        .args(["simulate", "--n", "20", "--rounds", "50", "--jobs", "many"])
        .output()
        .expect("failed to spawn mzd");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("--jobs"), "stderr: {stderr}");
}
