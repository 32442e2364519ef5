//! End-to-end checks for the fleet observability plane: cross-node
//! trace stitching (one causal chain per stream, even across a
//! migration), labeled quantile sketches whose exact merge reproduces
//! the quantiles of the concatenated per-node samples, and correlated
//! fleet postmortem bundles — all byte-identical across reruns.

use mzd_cluster::{
    Cluster, ClusterConfig, MigrationRecord, NodeOutage, NODE_SPAN_BASE_SHIFT, SKETCH_SERVICE_TIME,
};
use mzd_prof::{read_fleet_bundle, DumpTrigger, RecorderSettings};
use mzd_telemetry::geometry;
use mzd_telemetry::QuantileSketch;
use mzd_workload::{ObjectSpec, SizeDistribution};

fn object(rounds: u32) -> ObjectSpec {
    ObjectSpec::new("obs", SizeDistribution::paper_default(), rounds).unwrap()
}

/// A 3-node fleet with a scripted mid-run outage of node 1, loaded
/// with 24 long streams — enough pressure that the lease expiry
/// migrates streams onto the survivors.
fn failing_fleet(seed: u64, setup: impl Fn(&mut Cluster)) -> Cluster {
    let mut cfg = ClusterConfig::paper_reference(3, 1).unwrap();
    cfg.lease_rounds = 2;
    cfg.outages.push(NodeOutage {
        node: 1,
        start: 4,
        rounds: 50,
    });
    let mut fleet = Cluster::new(cfg, seed).unwrap();
    setup(&mut fleet);
    for _ in 0..24 {
        fleet.submit(object(200)).unwrap();
    }
    fleet
}

fn run_rounds(fleet: &mut Cluster, rounds: usize) -> Vec<MigrationRecord> {
    let mut migrated = Vec::new();
    for _ in 0..rounds {
        migrated.extend(fleet.run_round().migrations);
    }
    migrated
}

/// The span-id range node `i`'s tracer mints from (see
/// [`NODE_SPAN_BASE_SHIFT`]).
fn node_span_range(node: u32) -> (u64, u64) {
    let base = (u64::from(node) + 1) << NODE_SPAN_BASE_SHIFT;
    (base, base + (1 << NODE_SPAN_BASE_SHIFT))
}

/// A migrated stream's spans appear on both the failed node and the
/// adopter, all under the single trace id minted at submission — the
/// migration reads as one causal chain in one Chrome trace.
#[test]
fn migrated_stream_is_one_causal_chain_across_nodes() {
    let mut fleet = failing_fleet(9, |f| f.enable_tracing().unwrap());
    let migrated = run_rounds(&mut fleet, 10);
    assert!(!migrated.is_empty(), "the outage must migrate streams");
    let m = &migrated[0];
    assert_ne!(m.from, m.to);

    // Both the evacuated node and the adopter minted spans for the
    // stream's trace, each from its own rebased id range.
    for node in [m.from, m.to] {
        let (lo, hi) = node_span_range(node);
        let spans = fleet
            .node(node)
            .server()
            .trace_events()
            .expect("node tracing enabled")
            .iter()
            .filter(|e| e.ctx.trace == m.seq && e.ctx.span > lo && e.ctx.span < hi)
            .count();
        assert!(spans > 0, "no spans for stream {} on node {node}", m.seq);
    }

    // The fleet tracer carries the connective tissue: submission,
    // queue wait, the lease expiry and the requeue to the adopter.
    let json = fleet.trace_chrome_json().expect("tracing enabled");
    for name in [
        "fleet.submit",
        "fleet.queue.wait",
        "fleet.lease.expire",
        "fleet.requeue",
    ] {
        assert!(json.contains(name), "missing {name} in trace");
    }
}

/// The fleet-merged sketch is exact: its bucket counts equal a manual
/// node-order merge of per-node sketches rebuilt from the raw samples,
/// and its p99 matches the rank-based quantile of the concatenated
/// samples to within one log-bucket.
#[test]
fn merged_quantiles_match_concatenated_samples_within_one_bucket() {
    let mut fleet = failing_fleet(17, |_| ());
    let mut per_node: Vec<Vec<f64>> = vec![Vec::new(); 3];
    for _ in 0..12 {
        let r = fleet.run_round();
        for (node, samples) in r.node_service_times.iter().enumerate() {
            per_node[node].extend_from_slice(samples);
        }
    }

    // Rebuild the sketches from the raw samples the reports exported;
    // the exact-merge property means bucket counts agree bit for bit.
    let mut manual = QuantileSketch::new();
    for samples in &per_node {
        let mut node_sketch = QuantileSketch::new();
        for &s in samples {
            node_sketch.record(s);
        }
        manual.merge(&node_sketch);
    }
    let merged = fleet.sketches().merged(SKETCH_SERVICE_TIME);
    assert_eq!(merged.bucket_counts(), manual.bucket_counts());
    assert_eq!(merged.count(), manual.count());

    // And the merged p99 sits within one bucket of the exact
    // rank-statistic over the concatenation.
    let mut all: Vec<f64> = per_node.into_iter().flatten().collect();
    assert_eq!(all.len() as u64, merged.count());
    assert!(!all.is_empty());
    all.sort_by(f64::total_cmp);
    for q in [0.5, 0.99, 0.999] {
        #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
        let rank = ((q * all.len() as f64).ceil() as usize).max(1) - 1;
        let exact = all[rank.min(all.len() - 1)];
        let sketched = merged.quantile(q);
        let drift = geometry::bucket_index(exact).abs_diff(geometry::bucket_index(sketched));
        assert!(
            drift <= 1,
            "q{q}: sketch {sketched} vs exact {exact} ({drift} buckets apart)"
        );
    }
}

/// A lease expiry storm dumps every node's flight recorder plus a
/// correlating fleet manifest, and the bundle reads back with the
/// per-node provenance intact.
#[test]
fn fleet_postmortem_bundle_correlates_all_nodes() {
    let dir = std::env::temp_dir().join(format!("mzd_fleet_obs_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let settings = RecorderSettings::new(&dir);
    let mut fleet = failing_fleet(23, |f| f.attach_recorders(&settings));
    run_rounds(&mut fleet, 10);

    let dumps = fleet.fleet_dumps();
    assert_eq!(dumps.len(), 1, "exactly one fleet incident: {dumps:?}");
    assert_eq!(dumps[0].0, DumpTrigger::LeaseExpiryStorm);

    let bundle = read_fleet_bundle(&dir).expect("fleet bundle reads back");
    assert_eq!(bundle.trigger, "lease.expiry_storm");
    assert_eq!(bundle.entries.len(), 3);
    for (node, loaded) in bundle.nodes.iter().enumerate() {
        let loaded = loaded.as_ref().expect("every node dumped");
        assert_eq!(
            loaded.config_value("node"),
            Some(node.to_string().as_str()),
            "node label survives the round trip"
        );
    }
    // A later manual trigger must not overwrite the incident.
    assert!(fleet.trigger_fleet_dump(DumpTrigger::Manual).is_none());
    std::fs::remove_dir_all(&dir).ok();
}

/// The whole observability surface is deterministic: rerunning the
/// same fleet yields byte-identical trace JSON and Prometheus text.
#[test]
fn fleet_observability_output_is_byte_identical_across_reruns() {
    let run = || {
        let mut fleet = failing_fleet(31, |f| f.enable_tracing().unwrap());
        run_rounds(&mut fleet, 10);
        (
            fleet.trace_chrome_json().expect("tracing enabled"),
            fleet.sketches().render_prom(),
        )
    };
    let (trace_a, prom_a) = run();
    let (trace_b, prom_b) = run();
    assert_eq!(trace_a, trace_b);
    assert_eq!(prom_a, prom_b);
    assert!(prom_a.contains("mzd_cluster_node_service_time_bucket{node=\"0\""));
    assert!(prom_a.contains("mzd_cluster_node_service_time_fleet{quantile=\"0.99\"}"));
}
