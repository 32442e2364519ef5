//! Fidelity cross-check: a short harness episode against `mzd serve`
//! run in-process with the equivalent flags and the same seed. Both
//! must report the same glitch, completion, rejection and migration
//! counts, so the benchmark measures what users run.

use crate::spans::Tracer;
use crate::workload::{run_episode, Shape, Workload, GRAY_PROFILE};
use crate::Result;

pub struct Fidelity {
    /// `(count, harness, serve)` for every compared count.
    pub counts: Vec<(&'static str, u64, u64)>,
}

impl Fidelity {
    pub fn passed(&self) -> bool {
        self.counts
            .iter()
            .all(|(_, harness, serve)| harness == serve)
    }
}

/// The `mzd serve` command line equivalent to `w` for `rounds` rounds.
fn serve_args(w: &Workload, seed: u64, rounds: u64, trace_out: &str) -> Vec<String> {
    let mut args: Vec<String> = vec!["serve".into()];
    let mut flag = |name: &str, value: String| {
        args.push(format!("--{name}"));
        if !value.is_empty() {
            args.push(value);
        }
    };
    flag("rounds", rounds.to_string());
    flag("seed", seed.to_string());
    flag("jobs", "1".into());
    flag("objects", w.objects.to_string());
    flag("zipf", w.zipf.to_string());
    if let Some(viewers) = w.viewers {
        flag("streams", viewers.to_string());
    }
    match w.shape {
        Shape::Node { disks, cache } => {
            flag("disks", disks.to_string());
            flag("slo", String::new());
            if let Some((bytes, safety)) = cache {
                flag("cache-bytes", bytes.to_string());
                flag("cache-policy", "lru".into());
                flag("cache-safety", safety.to_string());
            }
        }
        Shape::Fleet(fleet) => {
            flag("nodes", fleet.nodes.to_string());
            flag("disks", fleet.disks.to_string());
            flag("health", String::new());
            if let Some(gray) = fleet.gray_node {
                flag("fault-profile", GRAY_PROFILE.into());
                flag("gray-node", gray.to_string());
            }
            if fleet.tracing {
                flag("trace-out", trace_out.into());
            }
        }
    }
    args
}

/// The number just before the word `label` on the report line that
/// starts with `line`.
fn count_before(report: &str, line: &str, label: &str) -> Result<u64> {
    let text = report
        .lines()
        .map(str::trim_start)
        .find(|l| l.starts_with(line))
        .ok_or_else(|| format!("`mzd serve` printed no `{line}` line:\n{report}"))?;
    let words: Vec<&str> = text.split_whitespace().collect();
    let at = words
        .iter()
        .position(|w| w.trim_end_matches(',') == label)
        .filter(|&at| at > 0)
        .ok_or_else(|| format!("no `{label}` in `{text}`"))?;
    Ok(words[at - 1].trim_end_matches(',').parse()?)
}

pub fn check(w: &Workload, seed: u64, scratch_dir: &std::path::Path) -> Result<Fidelity> {
    let rounds = w.fidelity_rounds;
    let (harness, _) = run_episode(w, seed, rounds, &mut Tracer::new(), false)?;

    std::fs::create_dir_all(scratch_dir)?;
    let trace_path = scratch_dir.join("fidelity-trace.json");
    let args = serve_args(w, seed, rounds, &trace_path.to_string_lossy());
    let served = mzd_cli::args::parse(&args).and_then(|parsed| mzd_cli::commands::run(&parsed));
    // The trace file only exists to keep the command line equivalent.
    let _ = std::fs::remove_file(&trace_path);
    let served = served?;

    let (glitches, rejections, migrations) = match w.shape {
        Shape::Node { .. } => (
            count_before(&served, "glitches:", "in")?,
            // A single node queues every request beyond capacity; it
            // never refuses one and never migrates.
            0,
            0,
        ),
        Shape::Fleet(_) => (
            count_before(&served, "glitches:", "host")?
                + count_before(&served, "glitches:", "outage")?,
            count_before(&served, "streams:", "rejected")?,
            count_before(&served, "failures:", "stream(s)")?,
        ),
    };
    Ok(Fidelity {
        counts: vec![
            (
                "stream-rounds",
                harness.stream_rounds,
                count_before(&served, "glitches:", "stream-rounds")?,
            ),
            ("glitches", harness.glitches, glitches),
            (
                "completions",
                harness.completions,
                count_before(&served, "streams:", "completed")?,
            ),
            ("rejections", harness.rejections, rejections),
            ("migrations", harness.migrations, migrations),
        ],
    })
}
