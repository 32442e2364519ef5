//! `mzd serve` flag validation: one command serves a single node or a
//! fleet, and every flag it is given must be one that the chosen mode
//! honours — a typo or a mode mismatch is a usage error, never a
//! silently ignored flag — and a flag changes only what it names.

use mzd_cli::{args, commands, CliError};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

fn serve(flags: &[&str]) -> Result<String, CliError> {
    let argv: Vec<String> = std::iter::once("serve")
        .chain(flags.iter().copied())
        .map(ToString::to_string)
        .collect();
    commands::run(&args::parse(&argv)?)
}

#[test]
fn unknown_and_mode_mismatched_flags_are_usage_errors() {
    // `(flags, the flag the error must name)`.
    let rejected: [(&[&str], &str); 10] = [
        // Typos and other commands' flags.
        (&["--stremas", "4"], "--stremas"),
        (&["--nodes", "2", "--stremas", "4"], "--stremas"),
        (&["--faults", "flaky"], "--faults"),
        (&["--n", "20"], "--n"),
        // Fleet-only flags on a single node.
        (&["--health"], "--health"),
        (&["--gray-node", "3"], "--gray-node"),
        (&["--lease-rounds", "2"], "--lease-rounds"),
        (&["--nodes", "1", "--health"], "--health"),
        // Node-only flags on a fleet.
        (&["--nodes", "2", "--slo"], "--slo"),
        (&["--nodes", "4", "--disks", "1", "--slo"], "--slo"),
    ];
    for (flags, culprit) in rejected {
        let mut line = vec!["--rounds", "1"];
        line.extend_from_slice(flags);
        match serve(&line) {
            Err(CliError::Usage(msg)) => assert!(msg.contains(culprit), "{line:?}: {msg}"),
            other => panic!("{line:?} must be a usage error, got {other:?}"),
        }
    }
}

#[test]
fn servebench_fidelity_flags_are_accepted_in_their_mode() {
    // The node workloads' command line (node-cache adds the cache flags).
    let node = serve(&[
        "--rounds",
        "3",
        "--seed",
        "7",
        "--jobs",
        "1",
        "--objects",
        "16",
        "--zipf",
        "0.8",
        "--streams",
        "30",
        "--disks",
        "2",
        "--slo",
        "--cache-bytes",
        "2e8",
        "--cache-policy",
        "lru",
        "--cache-safety",
        "0.5",
    ])
    .unwrap();
    assert!(node.contains("served 3 rounds on 2 disk(s)"), "{node}");
    // The fleet workloads' command line.
    let trace = std::env::temp_dir().join(format!("mzd-serve-flags-{}.json", std::process::id()));
    let fleet = serve(&[
        "--rounds",
        "3",
        "--seed",
        "7",
        "--jobs",
        "1",
        "--objects",
        "16",
        "--zipf",
        "0",
        "--nodes",
        "4",
        "--disks",
        "1",
        "--health",
        "--fault-profile",
        "creep",
        "--gray-node",
        "3",
        "--trace-out",
        trace.to_str().unwrap(),
    ])
    .unwrap();
    let _ = std::fs::remove_file(&trace);
    assert!(
        fleet.contains("served 3 rounds on a 4-node fleet"),
        "{fleet}"
    );
    assert!(fleet.contains("health:"), "{fleet}");
}

#[test]
fn fleet_union_bound_is_labelled_informational() {
    let out = serve(&["--nodes", "4", "--disks", "1", "--rounds", "2"]).unwrap();
    let line = out
        .lines()
        .find(|l| l.contains("any-of-"))
        .expect("fleet report prints the union bound");
    assert!(
        line.contains("p_error/stream <=") && line.contains("(budget 0.01)"),
        "{line}"
    );
    assert!(
        line.contains("informational union bound p_error any-of-"),
        "{line}"
    );
    // The budget belongs to the per-stream figure, not the union bound.
    assert!(!line.trim_end().ends_with(')'), "{line}");
}

#[test]
fn fleet_profile_out_writes_folded_stacks() {
    // A subprocess: the phase profiler is process-global.
    let path =
        std::env::temp_dir().join(format!("mzd-fleet-profile-{}.folded", std::process::id()));
    let output = Command::new(env!("CARGO_BIN_EXE_mzd"))
        .args([
            "serve",
            "--nodes",
            "2",
            "--disks",
            "1",
            "--rounds",
            "10",
            "--profile-out",
            path.to_str().unwrap(),
        ])
        .output()
        .expect("spawn mzd");
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("profile: "), "{stdout}");
    let folded = std::fs::read_to_string(&path).expect("profile written");
    let _ = std::fs::remove_file(&path);
    assert!(folded.contains("server.round"), "{folded}");
}

#[test]
fn help_flags_exit_zero_and_unknown_commands_exit_two() {
    let mzd = |arg: &str| {
        Command::new(env!("CARGO_BIN_EXE_mzd"))
            .arg(arg)
            .output()
            .expect("spawn mzd")
    };
    for arg in ["--help", "-h"] {
        let out = mzd(arg);
        assert!(out.status.success(), "{arg}");
        assert!(String::from_utf8_lossy(&out.stdout).contains("usage: mzd"));
    }
    assert_eq!(mzd("frobnicate").status.code(), Some(2));
}

/// Every file under `dir`, keyed by its path below `root`.
fn files_under(root: &Path, dir: &Path, files: &mut BTreeMap<PathBuf, Vec<u8>>) {
    for entry in std::fs::read_dir(dir).expect("read dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            files_under(root, &path, files);
        } else {
            let bytes = std::fs::read(&path).expect("read file");
            files.insert(path.strip_prefix(root).unwrap().into(), bytes);
        }
    }
}

#[test]
fn trace_out_changes_nothing_but_the_trace() {
    let node = "--disks 4 --streams 112 --rounds 120";
    let fleet = "--nodes 4 --disks 1 --lease-rounds 3 --rounds 80 --seed 7 --object-rounds 60 \
                 --fault-profile media=0.005:1,scenario=zonefail:1:10:15:20";
    let base = std::env::temp_dir().join(format!("mzd-trace-only-{}", std::process::id()));
    for (mode, flags) in [("node", node), ("fleet", fleet)] {
        // Same relative artifact paths in both runs, so stdout compares;
        // `--jobs 1` because fleet events interleave across workers.
        let run = |trace: &str| {
            let dir = base
                .join(mode)
                .join(if trace.is_empty() { "plain" } else { "traced" });
            std::fs::create_dir_all(&dir).unwrap();
            let line = format!(
                "serve {flags} --jobs 1 --events-out events.jsonl --postmortem-dir pm \
                 --dump-on-exit {trace}"
            );
            let output = Command::new(env!("CARGO_BIN_EXE_mzd"))
                .current_dir(&dir)
                .args(line.split_whitespace())
                .output()
                .expect("spawn mzd");
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert!(output.status.success(), "{mode}: {stderr}");
            let stdout: Vec<String> = String::from_utf8_lossy(&output.stdout)
                .lines()
                .filter(|l| !l.starts_with("  trace: "))
                .map(String::from)
                .collect();
            let mut files = BTreeMap::new();
            files_under(&dir, &dir, &mut files);
            let traced = files.remove(Path::new("trace.json")).is_some();
            assert_eq!(traced, !trace.is_empty(), "{mode}: trace file");
            (stdout, files)
        };
        let (plain_out, plain_files) = run("");
        let (traced_out, traced_files) = run("--trace-out trace.json");
        assert_eq!(plain_out, traced_out, "{mode}: stdout");
        // The events file plus at least one postmortem bundle.
        assert!(plain_files.len() > 2, "{mode}: {:?}", plain_files.keys());
        let differing: Vec<_> = plain_files
            .keys()
            .filter(|p| traced_files.get(*p) != plain_files.get(*p))
            .collect();
        assert!(
            differing.is_empty() && plain_files.len() == traced_files.len(),
            "{mode}: {differing:?} differ"
        );
    }
    let _ = std::fs::remove_dir_all(&base);
}
