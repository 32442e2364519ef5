//! Multi-round simulation with per-stream glitch accounting.
//!
//! [`SimulationEngine`] drives a [`RoundSimulator`] over many rounds and
//! aggregates what the paper's §4 experiments measure: the distribution of
//! the round service time, the rate of late rounds, and — for stream
//! lifetimes of `M` rounds — the per-stream glitch counts that define
//! `p_error`.

use crate::round::{RoundSimulator, SimConfig};
use crate::SimError;
use mzd_numerics::stats::OnlineStats;

/// Per-stream glitch accounting over a window of rounds.
#[derive(Debug, Clone, PartialEq)]
pub struct GlitchAccounting {
    /// Number of rounds simulated.
    pub rounds: u64,
    /// Number of rounds that overran the deadline.
    pub late_rounds: u64,
    /// Per-stream glitch counts (index = stream id).
    pub glitches_per_stream: Vec<u64>,
    /// Service-time statistics across rounds.
    pub service_time: OnlineStats,
    /// Seek-time statistics across rounds.
    pub seek_time: OnlineStats,
}

impl GlitchAccounting {
    /// Fraction of rounds that overran.
    #[must_use]
    pub fn p_late(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.late_rounds as f64 / self.rounds as f64
        }
    }

    /// Mean glitches per stream over the window.
    #[must_use]
    pub fn mean_glitches_per_stream(&self) -> f64 {
        if self.glitches_per_stream.is_empty() {
            return 0.0;
        }
        self.glitches_per_stream.iter().sum::<u64>() as f64 / self.glitches_per_stream.len() as f64
    }
}

/// Drives rounds and aggregates statistics.
#[derive(Debug)]
pub struct SimulationEngine {
    sim: RoundSimulator,
}

impl SimulationEngine {
    /// Create an engine over the given configuration and seed.
    ///
    /// # Errors
    /// Propagates configuration validation.
    pub fn new(cfg: SimConfig, seed: u64) -> Result<Self, SimError> {
        Ok(Self {
            sim: RoundSimulator::new(cfg, seed)?,
        })
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        self.sim.config()
    }

    /// Run `rounds` rounds with `n` concurrent streams, accounting
    /// glitches per stream (stream ids are stable across the window —
    /// this models `n` streams whose lifetime spans the window, as in the
    /// paper's Table 2 setup where all streams run for `M` rounds).
    pub fn run_window(&mut self, n: u32, rounds: u64) -> GlitchAccounting {
        let mut acc = GlitchAccounting {
            rounds,
            late_rounds: 0,
            glitches_per_stream: vec![0; n as usize],
            service_time: OnlineStats::new(),
            seek_time: OnlineStats::new(),
        };
        for _ in 0..rounds {
            let out = self.sim.run_round(n);
            acc.service_time.push(out.service_time);
            acc.seek_time.push(out.seek_time);
            if out.late {
                acc.late_rounds += 1;
            }
            for &s in &out.glitched_streams {
                acc.glitches_per_stream[s as usize] += 1;
            }
        }
        acc
    }

    /// Run a window where each stream's fragment sizes come from its own
    /// recorded trace, played sequentially (wrapping) — preserving the
    /// temporal correlation of real VBR video that the i.i.d. draws of
    /// [`Self::run_window`] idealize away (§3.3 assumes independence; this
    /// entry point measures what correlation costs).
    ///
    /// Stream `i` in round `r` requests `traces[i].size(r mod len_i)`
    /// bytes.
    pub fn run_window_traced(
        &mut self,
        traces: &[mzd_workload::Trace],
        rounds: u64,
    ) -> GlitchAccounting {
        let n = traces.len();
        let mut acc = GlitchAccounting {
            rounds,
            late_rounds: 0,
            glitches_per_stream: vec![0; n],
            service_time: OnlineStats::new(),
            seek_time: OnlineStats::new(),
        };
        let mut sizes = vec![0.0f64; n];
        for r in 0..rounds {
            for (i, t) in traces.iter().enumerate() {
                sizes[i] = t.size((r % t.len() as u64) as usize);
            }
            let out = self.sim.run_round_sized(&sizes);
            acc.service_time.push(out.service_time);
            acc.seek_time.push(out.seek_time);
            if out.late {
                acc.late_rounds += 1;
            }
            for &s in &out.glitched_streams {
                acc.glitches_per_stream[s as usize] += 1;
            }
        }
        acc
    }

    /// Run `batches` independent windows of `m` rounds each with `n`
    /// streams, concatenating the per-stream glitch counts — yielding
    /// `batches × n` independent stream-lifetime samples for `p_error`
    /// estimation (Table 2).
    pub fn run_stream_lifetimes(&mut self, n: u32, m: u64, batches: u32) -> GlitchAccounting {
        let mut all = GlitchAccounting {
            rounds: 0,
            late_rounds: 0,
            glitches_per_stream: Vec::with_capacity(batches as usize * n as usize),
            service_time: OnlineStats::new(),
            seek_time: OnlineStats::new(),
        };
        for _ in 0..batches {
            let w = self.run_window(n, m);
            all.rounds += w.rounds;
            all.late_rounds += w.late_rounds;
            all.glitches_per_stream.extend(w.glitches_per_stream);
            all.service_time.merge(&w.service_time);
            all.seek_time.merge(&w.seek_time);
        }
        all
    }
}

/// Run `reps` independent replications of an `n`-stream window totalling
/// `rounds` rounds, fanned out across the worker pool.
///
/// Replication `i` gets its own engine seeded
/// `mzd_par::derive_seed(seed, i)` and `rounds / reps` rounds, with the
/// remainder spread over the first replications. Results merge in
/// replication order: per-stream glitch counts concatenate (yielding
/// `reps × n` stream samples, as in [`SimulationEngine::run_stream_lifetimes`])
/// and the round statistics merge. The output is a pure function of
/// `(cfg, n, rounds, reps, seed)` — the worker count only moves
/// wall-clock time, and `reps = 1` runs the very same code path as a
/// wide fan-out.
///
/// # Errors
/// Propagates configuration validation.
pub fn run_replicated_windows(
    cfg: &SimConfig,
    n: u32,
    rounds: u64,
    reps: u32,
    seed: u64,
) -> Result<GlitchAccounting, SimError> {
    let reps = u64::from(reps.max(1));
    let base = rounds / reps;
    let extra = rounds % reps;
    let parts = mzd_par::par_map_indexed(reps as usize, |i| {
        let share = base + u64::from((i as u64) < extra);
        let mut engine = SimulationEngine::new(cfg.clone(), mzd_par::derive_seed(seed, i as u64))?;
        Ok::<GlitchAccounting, SimError>(engine.run_window(n, share))
    });
    let mut all = GlitchAccounting {
        rounds: 0,
        late_rounds: 0,
        glitches_per_stream: Vec::with_capacity(reps as usize * n as usize),
        service_time: OnlineStats::new(),
        seek_time: OnlineStats::new(),
    };
    for part in parts {
        let w = part?;
        all.rounds += w.rounds;
        all.late_rounds += w.late_rounds;
        all.glitches_per_stream.extend(w.glitches_per_stream);
        all.service_time.merge(&w.service_time);
        all.seek_time.merge(&w.seek_time);
    }
    Ok(all)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(seed: u64) -> SimulationEngine {
        SimulationEngine::new(SimConfig::paper_reference().unwrap(), seed).unwrap()
    }

    #[test]
    fn window_bookkeeping_is_consistent() {
        let mut e = engine(1);
        let acc = e.run_window(20, 500);
        assert_eq!(acc.rounds, 500);
        assert_eq!(acc.glitches_per_stream.len(), 20);
        assert_eq!(acc.service_time.count(), 500);
        assert!(acc.late_rounds <= 500);
        // Total glitches is at least the number of late rounds (a late
        // round glitches ≥ 1 stream).
        let total: u64 = acc.glitches_per_stream.iter().sum();
        assert!(total >= acc.late_rounds);
        assert!(acc.p_late() <= 1.0);
    }

    #[test]
    fn light_load_never_glitches() {
        let mut e = engine(2);
        let acc = e.run_window(5, 500);
        assert_eq!(acc.late_rounds, 0);
        assert_eq!(acc.p_late(), 0.0);
        assert_eq!(acc.mean_glitches_per_stream(), 0.0);
    }

    #[test]
    fn heavy_load_always_glitches() {
        let mut e = engine(3);
        let acc = e.run_window(60, 100);
        assert_eq!(acc.late_rounds, 100);
        assert_eq!(acc.p_late(), 1.0);
        assert!(acc.mean_glitches_per_stream() > 0.9);
    }

    #[test]
    fn stream_lifetimes_concatenate_batches() {
        let mut e = engine(4);
        let acc = e.run_stream_lifetimes(10, 50, 8);
        assert_eq!(acc.rounds, 400);
        assert_eq!(acc.glitches_per_stream.len(), 80);
        assert_eq!(acc.service_time.count(), 400);
    }

    #[test]
    fn traced_window_uses_trace_sizes_in_order() {
        use mzd_workload::Trace;
        // Constant traces at the paper's mean must behave like the
        // constant-size law: no glitches at N = 20.
        let traces: Vec<Trace> = (0..20)
            .map(|_| Trace::new(vec![200_000.0; 7], 1.0).unwrap())
            .collect();
        let mut e = engine(6);
        let acc = e.run_window_traced(&traces, 300);
        assert_eq!(acc.rounds, 300);
        assert_eq!(acc.glitches_per_stream.len(), 20);
        assert_eq!(acc.late_rounds, 0);
    }

    #[test]
    fn traced_window_with_burst_traces_glitches_in_bursts() {
        use mzd_workload::Trace;
        // All streams share a trace with one huge fragment: every len-th
        // round all streams spike together and the round overruns.
        let trace = Trace::new(vec![100_000.0, 100_000.0, 2_000_000.0], 1.0).unwrap();
        let traces: Vec<Trace> = (0..20).map(|_| trace.clone()).collect();
        let mut e = engine(7);
        let acc = e.run_window_traced(&traces, 300);
        // Exactly one round in three spikes: 100 late rounds.
        assert_eq!(acc.late_rounds, 100);
    }

    #[test]
    fn empty_accounting_edge_cases() {
        let acc = GlitchAccounting {
            rounds: 0,
            late_rounds: 0,
            glitches_per_stream: vec![],
            service_time: OnlineStats::new(),
            seek_time: OnlineStats::new(),
        };
        assert_eq!(acc.p_late(), 0.0);
        assert_eq!(acc.mean_glitches_per_stream(), 0.0);
    }
}
