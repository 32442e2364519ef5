//! CLI-side telemetry wiring: install event sinks from the observability
//! flags before a command runs, dump the metrics snapshot after.
//!
//! The flags (shared by every command):
//!
//! * `--events-out PATH` — stream per-round / per-admission events to
//!   `PATH` as JSONL, one object per line.
//! * `-v` / `--verbose` — stream the same events to stderr instead
//!   (ignored when `--events-out` is given; the file wins).
//! * `--metrics-out PATH` — at exit, write the global registry snapshot
//!   (counters, gauges, histogram quantiles) to `PATH` as JSON.
//! * `--prom-out PATH` — at exit, write the global registry in
//!   Prometheus text exposition format (`serve` additionally rewrites
//!   the file every round, so a scraper sees live state).

use crate::args::Parsed;
use crate::CliError;
use std::sync::{Arc, Mutex};

/// Extra Prometheus exposition text appended after the global registry
/// whenever `--prom-out` renders — how `serve --nodes` ships the
/// fleet's labeled quantile-sketch series (which live on the cluster,
/// not in the process-global registry) through the same file.
static PROM_APPENDIX: Mutex<String> = Mutex::new(String::new());

/// Replace the Prometheus exposition appendix (see [`render_prom`]).
pub fn set_prom_appendix(text: String) {
    *PROM_APPENDIX.lock().expect("prom appendix lock") = text;
}

/// The global registry in Prometheus text exposition format, followed
/// by any appendix registered with [`set_prom_appendix`].
#[must_use]
pub fn render_prom() -> String {
    let mut text = mzd_telemetry::prom::render(mzd_telemetry::global());
    text.push_str(&PROM_APPENDIX.lock().expect("prom appendix lock"));
    text
}

/// Install the event sink the flags ask for. Call once, before the
/// command executes.
///
/// # Errors
/// [`CliError::Execution`] when the `--events-out` file cannot be
/// created.
pub fn init(parsed: &Parsed) -> Result<(), CliError> {
    if let Some(path) = parsed.str_opt("events-out") {
        let sink = mzd_telemetry::event::JsonlSink::create(path)
            .map_err(|e| CliError::Execution(format!("cannot create {path}: {e}")))?;
        mzd_telemetry::set_sink(Arc::new(sink));
    } else if parsed.has("verbose") {
        mzd_telemetry::set_sink(Arc::new(mzd_telemetry::event::StderrSink));
    }
    Ok(())
}

/// Flush the event sink and write the metrics snapshot if requested.
/// Call once, after the command executes (on success or failure — a
/// failed run's partial metrics are still useful).
///
/// # Errors
/// [`CliError::Execution`] when the `--metrics-out` file cannot be
/// written.
pub fn finish(parsed: &Parsed) -> Result<(), CliError> {
    mzd_telemetry::event::flush();
    if let Some(path) = parsed.str_opt("metrics-out") {
        let json = mzd_telemetry::global().snapshot().to_json();
        std::fs::write(path, json)
            .map_err(|e| CliError::Execution(format!("cannot write {path}: {e}")))?;
    }
    if let Some(path) = parsed.str_opt("prom-out") {
        std::fs::write(path, render_prom())
            .map_err(|e| CliError::Execution(format!("cannot write {path}: {e}")))?;
    }
    Ok(())
}
