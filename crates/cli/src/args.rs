//! Command-line parsing for `mzd` — a small, dependency-free parser.
//!
//! ```text
//! mzd <command> [--flag value]...
//!
//! commands:
//!   nmax       admission limit for a quality target
//!   plate      round-overrun probability (bound + saddlepoint estimate)
//!   table      precomputed admission lookup table (§5)
//!   simulate   estimate p_late by simulation
//!   serve      run the round-based server on a Zipf catalog
//!   plan       provisioning: disks for a stream population
//!   worstcase  deterministic worst-case limits (eq. 4.1)
//!   disks      list built-in drive profiles
//! ```
//!
//! Common flags: `--disk <profile>` (default `viking`), `--mean <bytes>`,
//! `--sd <bytes>` (default 200000/100000), `--round <seconds>` (default 1).

use crate::CliError;
use std::collections::BTreeMap;

/// A parsed command line: command word plus `--key value` flags.
#[derive(Debug, Clone, PartialEq)]
pub struct Parsed {
    /// The command word.
    pub command: Command,
    flags: BTreeMap<String, String>,
}

/// The `mzd` sub-commands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Admission limit for a quality target.
    Nmax,
    /// Round-overrun probability for a given N.
    PLate,
    /// Precomputed admission lookup table.
    Table,
    /// Simulation-based p_late estimate.
    Simulate,
    /// Round-based server run over a popularity-skewed catalog, with an
    /// optional fragment cache.
    Serve,
    /// Disks-for-population provisioning.
    Plan,
    /// Deterministic worst-case limits.
    WorstCase,
    /// List drive profiles.
    Disks,
    /// Analyze a fragment-size trace file.
    AnalyzeTrace,
    /// Render an HTML report from a run's telemetry artifacts.
    Report,
    /// Render a flight-recorder post-mortem bundle as a timeline and
    /// audit its phase decomposition against the analytic model.
    Postmortem,
    /// Print usage.
    Help,
}

/// Usage text shown for `mzd help` and on parse errors.
pub const USAGE: &str = "\
usage: mzd <command> [--flag value]...

commands:
  nmax       admission limit (flags: --delta P | --m R --g G --epsilon P)
  plate      overrun probability for one N (flags: --n N)
  table      admission lookup table (flags: --thresholds p1,p2,...)
  simulate   simulated p_late (flags: --n N --rounds R --seed S
             --reps K   [split the round budget over K independent
                         replications, run in parallel]
             --faults SPEC  [inject disk faults; SPEC is a preset
                             (clean|media1pct|flaky|degrading|zonefail|
                              graynode|flappy|creep)
                             or key=value pairs, e.g.
                             media=0.01:1,stall=0.002:0.05,retries=4,
                             gray=slow:1.6|flap:2:40:20|creep:40:400:2.5])
  serve      round-based server on a Zipf catalog; one node queues
             requests beyond its admission limit, a fleet (--nodes N > 1)
             rejects them. An unknown flag, or one the mode cannot
             honour (--lease-rounds, --health and --gray-node need
             --nodes N > 1; --slo needs a single node), is an error.
             (flags: --disks D --streams N --rounds R --seed S
              --objects K --object-rounds M --zipf SKEW
              --nodes N           [N > 1 serves a sharded fleet: N nodes
                                   of --disks disks each, consistent-hash
                                   placement, per-node lease timeouts,
                                   and the guarantee composed fleet-wide;
                                   a zonefail --fault-profile becomes a
                                   whole-node outage of node zone%N]
              --lease-rounds L    [rounds of silence before a node is
                                   declared failed and its streams
                                   migrate; default 3; needs --nodes N]
              --health            [gray-failure detection: per-node
                                   suspicion scores over per-stream
                                   service times drive a probation ->
                                   ejection -> readmission machine;
                                   probated nodes get hedged dispatch,
                                   ejection re-composes the guarantee
                                   (capacity debited; infeasible load
                                   freezes admission) and dumps a
                                   health.ejection fleet postmortem;
                                   needs --nodes N]
              --gray-node I       [the node carrying any gray=... shape
                                   in --fault-profile (mod N); other
                                   members run it stripped; default 0;
                                   needs --nodes N]
              --cache-bytes B --cache-policy lru|interval|cost
              --cache-safety S    [enables cache-aware admission]
              --slo               [burn-rate + model-conformance monitor;
                                   single node only]
              --trace-out PATH    [per-stream causal trace, Chrome JSON;
                                   records only, changes no other
                                   output; with --nodes N the
                                   per-node traces are stitched under
                                   one root span per stream, so a
                                   migration reads as one causal chain]
              --fault-profile SPEC [same grammar as --faults; add
                                    disk=D to degrade one spindle only]
              --work-ahead K      [prefetch K fragments/stream into the
                                   cache in post-sweep slack]
              --degrade           [graceful-degradation ladder driven by
                                   the burn alert; implies --slo]
              --postmortem-dir DIR [attach the flight recorder; an SLO
                                    fast-burn alert, a ladder escalation
                                    or a round overrun dumps a
                                    post-mortem bundle under DIR; with
                                    --nodes N every node gets its own
                                    recorder and a fleet trigger dumps
                                    all of them under DIR/node-I/ plus
                                    a correlating DIR/MANIFEST.json]
              --recorder-capacity N [rounds retained in the flight
                                     recorder ring; default 64]
              --dump-on-exit      [also dump a manual bundle at exit]
              --profile-out PATH  [phase profile as collapsed stacks,
                                   flamegraph.pl/inferno compatible]
              --prom-out PATH     [Prometheus text exposition of the
                                   metrics registry, written per round
                                   (any command writes it at exit);
                                   with --nodes N it also carries the
                                   fleet's node-labeled quantile-sketch
                                   series and merged fleet summaries])
  plan       disks for a population (flags: --population N --m R --g G --epsilon P)
  worstcase  deterministic worst-case limits (eq. 4.1)
  disks      list built-in drive profiles
  analyze-trace  fit a trace file and derive its admission limit
                 (flags: --file PATH [--delta P])
  report     render a self-contained HTML page from a run's telemetry
             (flags: --events PATH [--metrics PATH] [--profile PATH]
              --out PATH)
  postmortem render a flight-recorder bundle as a timeline and audit the
             observed phase decomposition against the analytic model
             (flags: --bundle DIR | --fleet DIR  [a fleet bundle written
              by serve --nodes: cross-node timeline keyed by round, with
              the decomposition audited per node])
  help       this text (also --help, -h)

common flags:
  --disk viking|single75|legacy|nextgen|synthetic2to1   (default viking)
  --mean BYTES   fragment-size mean        (default 200000)
  --sd BYTES     fragment-size std. dev.   (default 100000)
  --round SECS   round length              (default 1.0)

execution:
  --jobs N       worker threads for parallel phases (CDF tabulation,
                 sweep points, replications); default: all hardware
                 threads. Results are byte-identical for any N.

observability:
  --metrics-out PATH   write a JSON metrics snapshot (counters, gauges,
                       histogram quantiles) at exit
  --events-out PATH    write per-round / per-admission events as JSONL
  -v, --verbose        also stream events to stderr
  -q, --quiet          suppress the normal report on stdout (errors still
                       go to stderr; with -v, events still stream there)";

/// Flags every command takes: the execution and observability flags
/// `main` and [`crate::telemetry`] read.
const GLOBAL_FLAGS: [&str; 6] = [
    "jobs",
    "verbose",
    "quiet",
    "metrics-out",
    "events-out",
    "prom-out",
];

/// Flags that take no value; presence means `true`.
const BOOLEAN_FLAGS: [&str; 6] = [
    "verbose",
    "quiet",
    "slo",
    "degrade",
    "dump-on-exit",
    "health",
];

/// Parse an argument vector (without the program name).
///
/// # Errors
/// [`CliError::Usage`] for unknown commands, dangling flags or non-flag
/// positional arguments.
pub fn parse(args: &[String]) -> Result<Parsed, CliError> {
    let mut it = args.iter();
    let command = match it.next().map(String::as_str) {
        Some("nmax") => Command::Nmax,
        Some("plate") => Command::PLate,
        Some("table") => Command::Table,
        Some("simulate") => Command::Simulate,
        Some("serve") => Command::Serve,
        Some("plan") => Command::Plan,
        Some("worstcase") => Command::WorstCase,
        Some("disks") => Command::Disks,
        Some("analyze-trace") => Command::AnalyzeTrace,
        Some("report") => Command::Report,
        Some("postmortem") => Command::Postmortem,
        Some("help" | "--help" | "-h") | None => Command::Help,
        Some(other) => {
            return Err(CliError::Usage(format!(
                "unknown command `{other}`\n\n{USAGE}"
            )))
        }
    };
    let mut flags = BTreeMap::new();
    while let Some(key) = it.next() {
        let name = match key.as_str() {
            "-v" => "verbose",
            "-q" => "quiet",
            other => match other.strip_prefix("--") {
                Some(name) => name,
                None => {
                    return Err(CliError::Usage(format!(
                        "expected a --flag, got `{key}`\n\n{USAGE}"
                    )))
                }
            },
        };
        if BOOLEAN_FLAGS.contains(&name) {
            flags.insert(name.to_string(), "true".to_string());
            continue;
        }
        let Some(value) = it.next() else {
            return Err(CliError::Usage(format!(
                "flag --{name} is missing its value\n\n{USAGE}"
            )));
        };
        flags.insert(name.to_string(), value.clone());
    }
    Ok(Parsed { command, flags })
}

impl Parsed {
    /// String flag with a default.
    #[must_use]
    pub fn str_or<'a>(&'a self, name: &str, default: &'a str) -> &'a str {
        self.flags.get(name).map_or(default, String::as_str)
    }

    /// `f64` flag with a default.
    ///
    /// # Errors
    /// [`CliError::Usage`] when present but unparseable.
    pub fn f64_or(&self, name: &str, default: f64) -> Result<f64, CliError> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("--{name} expects a number, got `{v}`"))),
        }
    }

    /// `u64` flag with a default.
    ///
    /// # Errors
    /// [`CliError::Usage`] when present but unparseable.
    pub fn u64_or(&self, name: &str, default: u64) -> Result<u64, CliError> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("--{name} expects an integer, got `{v}`"))),
        }
    }

    /// Required `u64` flag.
    ///
    /// # Errors
    /// [`CliError::Usage`] when absent or unparseable.
    pub fn u64_required(&self, name: &str) -> Result<u64, CliError> {
        match self.flags.get(name) {
            None => Err(CliError::Usage(format!("missing required flag --{name}"))),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("--{name} expects an integer, got `{v}`"))),
        }
    }

    /// Comma-separated `f64` list flag with a default.
    ///
    /// # Errors
    /// [`CliError::Usage`] when present but unparseable.
    pub fn f64_list_or(&self, name: &str, default: &[f64]) -> Result<Vec<f64>, CliError> {
        match self.flags.get(name) {
            None => Ok(default.to_vec()),
            Some(v) => v
                .split(',')
                .map(|x| {
                    x.trim().parse::<f64>().map_err(|_| {
                        CliError::Usage(format!(
                            "--{name} expects comma-separated numbers, got `{x}`"
                        ))
                    })
                })
                .collect(),
        }
    }

    /// Whether a flag was provided at all (how presence-only flags such
    /// as `--verbose` are read).
    #[must_use]
    pub fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    /// Reject any flag outside `known` and the flags every command takes
    /// (`--jobs` and the observability flags), so a typo is an error
    /// rather than a silently ignored flag.
    ///
    /// # Errors
    /// [`CliError::Usage`] naming the first unknown flag.
    pub fn reject_unknown(&self, command: &str, known: &[&str]) -> Result<(), CliError> {
        match self
            .flags
            .keys()
            .find(|f| !known.contains(&f.as_str()) && !GLOBAL_FLAGS.contains(&f.as_str()))
        {
            None => Ok(()),
            Some(flag) => Err(CliError::Usage(format!(
                "`{command}` does not take --{flag} (see `mzd help`)"
            ))),
        }
    }

    /// A flag's value, if present (e.g. `--metrics-out PATH`).
    #[must_use]
    pub fn str_opt(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn parses_commands_and_flags() {
        let p = parse(&v(&["nmax", "--delta", "0.01", "--disk", "viking"])).unwrap();
        assert_eq!(p.command, Command::Nmax);
        assert_eq!(p.str_or("disk", "x"), "viking");
        assert_eq!(p.f64_or("delta", 0.5).unwrap(), 0.01);
        assert_eq!(p.f64_or("absent", 0.5).unwrap(), 0.5);
        assert!(p.has("delta"));
        assert!(!p.has("epsilon"));
    }

    #[test]
    fn empty_args_mean_help() {
        assert_eq!(parse(&[]).unwrap().command, Command::Help);
        assert_eq!(parse(&v(&["help"])).unwrap().command, Command::Help);
    }

    #[test]
    fn help_flags_mean_help() {
        assert_eq!(parse(&v(&["--help"])).unwrap().command, Command::Help);
        assert_eq!(parse(&v(&["-h"])).unwrap().command, Command::Help);
        // Any other flag-like first word is still an unknown command.
        assert!(matches!(parse(&v(&["--helpme"])), Err(CliError::Usage(_))));
    }

    #[test]
    fn serve_command_parses() {
        let p = parse(&v(&[
            "serve",
            "--cache-bytes",
            "5e7",
            "--cache-policy",
            "interval",
            "--zipf",
            "1.0",
        ]))
        .unwrap();
        assert_eq!(p.command, Command::Serve);
        assert_eq!(p.f64_or("cache-bytes", 0.0).unwrap(), 5e7);
        assert_eq!(p.str_or("cache-policy", "lru"), "interval");
        assert_eq!(p.f64_or("zipf", 0.0).unwrap(), 1.0);
    }

    #[test]
    fn analyze_trace_command_parses() {
        let p = parse(&v(&["analyze-trace", "--file", "/tmp/x.trace"])).unwrap();
        assert_eq!(p.command, Command::AnalyzeTrace);
        assert_eq!(p.str_or("file", ""), "/tmp/x.trace");
    }

    #[test]
    fn report_and_slo_flags_parse() {
        let p = parse(&v(&["report", "--events", "e.jsonl", "--out", "r.html"])).unwrap();
        assert_eq!(p.command, Command::Report);
        assert_eq!(p.str_opt("events"), Some("e.jsonl"));
        assert_eq!(p.str_opt("out"), Some("r.html"));
        assert_eq!(p.str_opt("metrics"), None);
        let p = parse(&v(&["serve", "--slo", "--trace-out", "t.json"])).unwrap();
        assert!(p.has("slo"));
        assert_eq!(p.str_opt("trace-out"), Some("t.json"));
    }

    #[test]
    fn fault_flags_parse() {
        let p = parse(&v(&["simulate", "--faults", "media=0.01,retries=4"])).unwrap();
        assert_eq!(p.str_opt("faults"), Some("media=0.01,retries=4"));
        let p = parse(&v(&[
            "serve",
            "--fault-profile",
            "flaky",
            "--degrade",
            "--work-ahead",
            "2",
        ]))
        .unwrap();
        assert_eq!(p.str_opt("fault-profile"), Some("flaky"));
        assert!(p.has("degrade"));
        assert_eq!(p.u64_or("work-ahead", 0).unwrap(), 2);
    }

    #[test]
    fn prof_flags_parse() {
        let p = parse(&v(&[
            "serve",
            "--postmortem-dir",
            "/tmp/pm",
            "--recorder-capacity",
            "32",
            "--dump-on-exit",
            "--profile-out",
            "prof.folded",
            "--prom-out",
            "metrics.prom",
        ]))
        .unwrap();
        assert_eq!(p.command, Command::Serve);
        assert_eq!(p.str_opt("postmortem-dir"), Some("/tmp/pm"));
        assert_eq!(p.u64_or("recorder-capacity", 64).unwrap(), 32);
        assert!(p.has("dump-on-exit"));
        assert_eq!(p.str_opt("profile-out"), Some("prof.folded"));
        assert_eq!(p.str_opt("prom-out"), Some("metrics.prom"));
        let p = parse(&v(&["postmortem", "--bundle", "/tmp/pm/b1"])).unwrap();
        assert_eq!(p.command, Command::Postmortem);
        assert_eq!(p.str_opt("bundle"), Some("/tmp/pm/b1"));
    }

    #[test]
    fn unknown_command_is_usage_error() {
        let e = parse(&v(&["frobnicate"])).unwrap_err();
        assert!(matches!(e, CliError::Usage(_)));
        assert!(e.to_string().contains("frobnicate"));
        assert!(e.to_string().contains("usage:"));
    }

    #[test]
    fn dangling_flag_and_positional_rejected() {
        assert!(parse(&v(&["nmax", "--delta"])).is_err());
        assert!(parse(&v(&["nmax", "stray"])).is_err());
    }

    #[test]
    fn numeric_flag_validation() {
        let p = parse(&v(&["plate", "--n", "abc"])).unwrap();
        assert!(p.u64_or("n", 1).is_err());
        assert!(p.u64_required("n").is_err());
        let p = parse(&v(&["plate"])).unwrap();
        assert!(p.u64_required("n").is_err());
        assert_eq!(p.u64_or("n", 27).unwrap(), 27);
    }

    #[test]
    fn list_flags() {
        let p = parse(&v(&["table", "--thresholds", "0.001, 0.01,0.1"])).unwrap();
        assert_eq!(
            p.f64_list_or("thresholds", &[]).unwrap(),
            vec![0.001, 0.01, 0.1]
        );
        let p = parse(&v(&["table"])).unwrap();
        assert_eq!(p.f64_list_or("thresholds", &[0.5]).unwrap(), vec![0.5]);
        let p = parse(&v(&["table", "--thresholds", "a,b"])).unwrap();
        assert!(p.f64_list_or("thresholds", &[]).is_err());
    }
}
