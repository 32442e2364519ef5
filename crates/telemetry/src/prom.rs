//! Prometheus text exposition (version 0.0.4) for a [`Registry`].
//!
//! [`render`] emits the whole registry — counters, gauges, and
//! histograms with cumulative `_bucket{le="..."}` series — in the
//! plain-text format every Prometheus-compatible scraper and textfile
//! collector understands. Metric names keep the workspace's dotted
//! convention internally and are sanitized to `mzd_`-prefixed
//! underscore form on the way out (`sim.round.service_time` →
//! `mzd_sim_round_service_time`).
//!
//! The output is a pure function of the registry's *logical-time*
//! state: names are sorted, no timestamps are emitted, float
//! formatting uses Rust's shortest round-trip representation, and
//! series marked execution-scoped ([`Registry::execution_histogram`] /
//! [`Registry::execution_counter`] — span timers, scheduler effort,
//! solver iteration tallies) are excluded — so seeded equal runs
//! expose byte-identical text at any `--jobs` width (the property the
//! CLI's `--prom-out` snapshots rely on). Execution-scoped series
//! remain visible in the JSON snapshot.

use crate::registry::geometry::{bucket_bound, BUCKET_COUNT};
use crate::registry::Registry;
use crate::QuantileSketch;
use std::fmt::Write as _;

/// Sanitize a dotted metric name into the Prometheus exposition
/// alphabet (`[a-zA-Z0-9_]`), with the workspace's `mzd_` prefix.
#[must_use]
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("mzd_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Escape a label *value* for the exposition format: backslash, double
/// quote and newline are the three characters the format reserves
/// (`\\`, `\"`, `\n`); everything else passes through verbatim.
#[must_use]
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Render a label set as `{k="v",...}` with values escaped, or an
/// empty string for no labels. Label *names* are sanitized to the
/// exposition alphabet; pairs are emitted in the order given (callers
/// keep them sorted for byte-stable output).
#[must_use]
pub fn render_label_set(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        for c in k.chars() {
            out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
        }
        out.push_str("=\"");
        out.push_str(&escape_label_value(v));
        out.push('"');
    }
    out.push('}');
    out
}

/// Format a sample value: finite floats use the shortest round-trip
/// form, non-finite values use the exposition spellings.
fn write_value(out: &mut String, v: f64) {
    if v.is_nan() {
        out.push_str("NaN");
    } else if v == f64::INFINITY {
        out.push_str("+Inf");
    } else if v == f64::NEG_INFINITY {
        out.push_str("-Inf");
    } else {
        let _ = write!(out, "{v}");
    }
}

/// A sample value as the exposition spells it: shortest round-trip for
/// finite floats, `NaN`/`+Inf`/`-Inf` otherwise. The one formatter
/// every exposition writer in the workspace shares, so labeled series
/// rendered outside this module stay byte-compatible with [`render`].
#[must_use]
pub fn format_value(v: f64) -> String {
    let mut s = String::new();
    write_value(&mut s, v);
    s
}

/// Write one histogram's `_bucket` / `_sum` / `_count` series under
/// the rendered label set `labels` (`{k="v",...}`, or empty) — the one
/// histogram writer [`render`] and the fleet exposition in `mzd-obs`
/// share. `_bucket` series are cumulative; bounds whose bucket is empty
/// are elided (the cumulative value at any retained bound is exact),
/// underflow observations count under the first regular bound, and the
/// mandatory `le="+Inf"` bucket always closes the series at the total
/// count.
pub fn write_histogram(out: &mut String, name: &str, labels: &str, sketch: &QuantileSketch) {
    let le_open = match labels.strip_suffix('}') {
        Some(scope) => format!("{scope},le=\""),
        None => "{le=\"".to_string(),
    };
    let mut cumulative = 0u64;
    let mut previous = 0u64;
    for (i, bucket) in sketch.bucket_counts()[..=BUCKET_COUNT].iter().enumerate() {
        cumulative += bucket;
        if i == 0 || cumulative == previous {
            continue;
        }
        previous = cumulative;
        let _ = write!(out, "{name}_bucket{le_open}");
        write_value(out, bucket_bound(i));
        let _ = writeln!(out, "\"}} {cumulative}");
    }
    let count = sketch.count();
    let _ = writeln!(out, "{name}_bucket{le_open}+Inf\"}} {count}");
    let _ = write!(out, "{name}_sum{labels} ");
    write_value(out, sketch.sum());
    out.push('\n');
    let _ = writeln!(out, "{name}_count{labels} {count}");
}

/// Render `registry` in Prometheus text exposition format (histograms
/// through [`write_histogram`]).
#[must_use]
pub fn render(registry: &Registry) -> String {
    let snapshot = registry.snapshot();
    let mut out = String::with_capacity(4096);
    for (name, value) in &snapshot.counters {
        if registry.is_execution_scoped(name) {
            // Scheduler-effort counts vary with the `--jobs` width;
            // emitting them would break the exposition's byte-identity
            // across job counts.
            continue;
        }
        let n = sanitize_name(name);
        let _ = writeln!(out, "# TYPE {n} counter");
        let _ = writeln!(out, "{n} {value}");
    }
    for (name, value) in &snapshot.gauges {
        let n = sanitize_name(name);
        let _ = writeln!(out, "# TYPE {n} gauge");
        let _ = write!(out, "{n} ");
        write_value(&mut out, *value);
        out.push('\n');
    }
    for (name, histogram) in &snapshot.histograms {
        if registry.is_execution_scoped(name) {
            // Span timers carry real elapsed time and solver iteration
            // tallies vary with parallel range splitting; emitting them
            // would break the exposition's byte-identity across reruns
            // and job counts.
            continue;
        }
        let n = sanitize_name(name);
        let _ = writeln!(out, "# TYPE {n} histogram");
        write_histogram(&mut out, &n, "", histogram);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal exposition-format validator: every non-comment line is
    /// `name[{labels}] value`, names match the exposition alphabet.
    fn validate(text: &str) {
        for line in text.lines() {
            if line.starts_with('#') {
                assert!(line.starts_with("# TYPE "), "bad comment: {line}");
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("sample line has a value");
            let name = series.split('{').next().unwrap();
            assert!(
                name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "bad name: {name}"
            );
            assert!(
                value.parse::<f64>().is_ok() || ["NaN", "+Inf", "-Inf"].contains(&value),
                "bad value: {value}"
            );
        }
    }

    #[test]
    fn renders_all_metric_kinds() {
        let r = Registry::new();
        r.counter("sim.rounds").add(7);
        r.gauge("server.buffer.occupancy_bytes").set(1.5e6);
        let h = r.histogram("sim.round.service_time");
        for i in 1..=100 {
            h.record(f64::from(i) * 0.01);
        }
        let text = render(&r);
        validate(&text);
        assert!(text.contains("# TYPE mzd_sim_rounds counter"));
        assert!(text.contains("mzd_sim_rounds 7"));
        assert!(text.contains("# TYPE mzd_server_buffer_occupancy_bytes gauge"));
        assert!(text.contains("mzd_server_buffer_occupancy_bytes 1500000"));
        assert!(text.contains("# TYPE mzd_sim_round_service_time histogram"));
        assert!(text.contains("mzd_sim_round_service_time_bucket{le=\"+Inf\"} 100"));
        assert!(text.contains("mzd_sim_round_service_time_count 100"));
        assert!(text.contains("mzd_sim_round_service_time_sum 50.5"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_close_at_count() {
        let r = Registry::new();
        let h = r.histogram("t");
        for v in [1e-4, 1e-4, 1e-2, 1.0, 1e9] {
            h.record(v);
        }
        let text = render(&r);
        validate(&text);
        let mut last = 0u64;
        let mut bucket_lines = 0;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("mzd_t_bucket{le=\"") {
                bucket_lines += 1;
                let count: u64 = rest.rsplit(' ').next().unwrap().parse().unwrap();
                assert!(count >= last, "buckets must be cumulative: {text}");
                last = count;
            }
        }
        // 4 distinct finite buckets (the 1e9 observation only appears in
        // +Inf) — elision keeps empty buckets out.
        assert_eq!(bucket_lines, 4, "{text}");
        assert_eq!(last, 5);
        assert!(text.contains("mzd_t_count 5"));
    }

    #[test]
    fn empty_histogram_still_exposes_inf_bucket() {
        let r = Registry::new();
        let _ = r.histogram("empty.series");
        let text = render(&r);
        validate(&text);
        assert!(text.contains("mzd_empty_series_bucket{le=\"+Inf\"} 0"));
        assert!(text.contains("mzd_empty_series_sum 0"));
        assert!(text.contains("mzd_empty_series_count 0"));
    }

    #[test]
    fn sanitizes_names_deterministically() {
        assert_eq!(sanitize_name("a.b-c d"), "mzd_a_b_c_d");
        let r = Registry::new();
        r.counter("x.y").inc();
        assert_eq!(render(&r), render(&r));
    }

    #[test]
    fn execution_scoped_series_are_excluded() {
        let r = Registry::new();
        r.histogram("sim.round.service_time").record(0.5);
        r.counter("sim.rounds").inc();
        r.execution_histogram("core.chernoff.minimize")
            .record(0.000_8);
        r.execution_counter("par.steals").add(17);
        assert!(r.is_execution_scoped("core.chernoff.minimize"));
        assert!(r.is_execution_scoped("par.steals"));
        assert!(!r.is_execution_scoped("sim.round.service_time"));
        let text = render(&r);
        validate(&text);
        assert!(text.contains("mzd_sim_round_service_time_bucket"));
        assert!(text.contains("mzd_sim_rounds 1"));
        // Wall-clock time and jobs-dependent effort counts have no
        // place in byte-identical output; both series stay in the JSON
        // snapshot only.
        assert!(!text.contains("chernoff_minimize"), "{text}");
        assert!(!text.contains("par_steals"), "{text}");
        let snapshot = r.snapshot();
        assert!(snapshot.histograms.contains_key("core.chernoff.minimize"));
        assert_eq!(snapshot.counters.get("par.steals"), Some(&17));
    }

    #[test]
    fn escapes_label_values() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\"b"), "a\\\"b");
        assert_eq!(escape_label_value("a\\b"), "a\\\\b");
        assert_eq!(escape_label_value("a\nb"), "a\\nb");
        // All three at once, in the order backslash-first escaping must
        // preserve: `\` then `"` then newline.
        assert_eq!(escape_label_value("\\\"\n"), "\\\\\\\"\\n");
        // Idempotence does NOT hold (escaping escapes the escapes) —
        // exactly one pass is applied on the way out.
        assert_eq!(escape_label_value("a\\nb"), "a\\\\nb");
    }

    #[test]
    fn renders_label_sets() {
        assert_eq!(render_label_set(&[]), "");
        assert_eq!(render_label_set(&[("node", "3")]), "{node=\"3\"}");
        assert_eq!(
            render_label_set(&[("node", "0"), ("disk", "2")]),
            "{node=\"0\",disk=\"2\"}"
        );
        // Values with reserved characters survive a round through the
        // exposition grammar; names are forced into the alphabet.
        assert_eq!(
            render_label_set(&[("zone.id", "a\"b\\c\nd")]),
            "{zone_id=\"a\\\"b\\\\c\\nd\"}"
        );
    }

    #[test]
    fn format_value_spells_specials() {
        assert_eq!(format_value(1.5), "1.5");
        assert_eq!(format_value(f64::NAN), "NaN");
        assert_eq!(format_value(f64::INFINITY), "+Inf");
        assert_eq!(format_value(f64::NEG_INFINITY), "-Inf");
    }
}
