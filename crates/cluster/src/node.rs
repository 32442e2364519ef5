//! One fleet member: a full [`mzd_server::VideoServer`] plus what the
//! fleet adds to it — a fleet-wide id and the SLO layer a degradation
//! ladder needs.
//! The [`crate::Cluster`] drives the server directly: it opens streams,
//! steps rounds, and reads the server's own round reports and session
//! manifests.

use mzd_server::{AdmissionController, ServerConfig, SloSettings, VideoServer};

use crate::ClusterError;

/// A fleet member: one [`VideoServer`] and its slot index.
#[derive(Debug)]
pub struct ServerNode {
    id: u32,
    pub(crate) server: VideoServer,
}

impl ServerNode {
    /// Bring up one node from a per-node server configuration and the
    /// admission controller it enforces (the fleet searches the limit
    /// once and hands every node a copy). When the config carries a
    /// degradation ladder, the SLO layer that drives it is enabled
    /// automatically (as `mzd serve --degrade` does).
    ///
    /// # Errors
    /// Propagates server configuration errors.
    pub fn new(
        id: u32,
        cfg: ServerConfig,
        admission: AdmissionController,
        seed: u64,
    ) -> Result<Self, ClusterError> {
        let degrade = cfg.degrade.is_some();
        let target = cfg.target;
        let mut server = VideoServer::with_admission(cfg, admission, seed)?;
        if degrade {
            server.enable_slo(SloSettings::for_target(target))?;
        }
        Ok(Self { id, server })
    }

    /// This node's fleet-wide id (its slot index).
    #[must_use]
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The wrapped server, for read-only inspection (reports, tests).
    #[must_use]
    pub fn server(&self) -> &VideoServer {
        &self.server
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mzd_workload::ObjectSpec;

    fn node(disks: u32, seed: u64) -> ServerNode {
        let cfg = ServerConfig::paper_reference(disks).unwrap();
        let admission =
            AdmissionController::from_model(&cfg.model().unwrap(), cfg.round_length, cfg.target)
                .unwrap();
        ServerNode::new(3, cfg, admission, seed).unwrap()
    }

    fn obj(rounds: u32) -> ObjectSpec {
        ObjectSpec::new("n", mzd_workload::SizeDistribution::paper_default(), rounds).unwrap()
    }

    #[test]
    fn server_node_round_trip() {
        let mut n = node(2, 5);
        assert_eq!(n.id(), 3);
        assert_eq!(n.server().config().disks, 2);
        assert_eq!(n.server().per_disk_load(), vec![0, 0]);
        // No degradation ladder, so no SLO layer.
        assert!(n.server().slo_status().is_none());
        let a = n.server.open_stream(obj(3)).unwrap();
        let b = n.server.open_stream(obj(10)).unwrap();
        assert_ne!(a, b);
        assert_eq!(n.server().active_streams(), 2);
        assert!(n.server.set_degradable(b, true).is_ok());
        for _ in 0..3 {
            n.server.run_round();
        }
        // The 3-round object completed and its handle is no longer live.
        assert_eq!(n.server().active_streams(), 1);
        assert!(n.server.set_degradable(a, true).is_err());
    }

    #[test]
    fn evacuation_returns_ordered_manifest_and_empties_node() {
        let mut n = node(2, 6);
        let ids: Vec<u64> = (0..5)
            .map(|_| n.server.open_stream(obj(20)).unwrap().id())
            .collect();
        n.server.run_round();
        n.server.run_round();
        // What `Cluster` does on lease expiry or ejection: read the
        // manifest, then close every listed session.
        let manifest = n.server().active_session_info();
        for info in &manifest {
            n.server.close_stream(info.handle).unwrap();
        }
        assert_eq!(n.server().active_streams(), 0);
        assert_eq!(manifest.len(), 5);
        let got: Vec<u64> = manifest.iter().map(|e| e.handle.id()).collect();
        assert_eq!(got, ids);
        for e in &manifest {
            assert_eq!(e.fragments_consumed, 2);
            assert_eq!(e.object.rounds, 20);
        }
        // A fresh open works after evacuation.
        assert!(n.server.open_stream(obj(4)).is_ok());
    }

    #[test]
    fn try_open_respects_node_admission() {
        let mut n = node(1, 7);
        let limit = n.server().admission().per_disk_limit();
        for _ in 0..limit {
            assert!(n.server.open_stream(obj(50)).is_ok());
        }
        assert!(n.server.open_stream(obj(50)).is_err());
    }
}
