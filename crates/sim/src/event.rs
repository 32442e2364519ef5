//! Discrete-event round core: logical-time event ordering,
//! struct-of-arrays round state, and batched RNG draws.
//!
//! This module is the hot path of the whole stack — every experiment
//! (`engine`, `cache_sweep`, `drift`, the server's per-disk rounds, the
//! cluster fleet) bottoms out in the crate-private `EventCore::round`.
//! Three ideas:
//!
//! 1. **Logical-time events with a fixed total order.** A round is a
//!    merged stream of [`Event`]s — request issues, seek completions,
//!    transfer completions, fault retries, the round boundary — ordered
//!    by the tiebreak `(time, kind_rank, seq)` ([`EventQueue`]). On a
//!    single-armed disk the sweep serves requests one at a time, so the
//!    heap would pop each request's seek → transfer → retry events
//!    consecutively; the serve loop therefore *fuses* those phases
//!    inline and only materialises the event stream when a trace sink
//!    is supplied ([`RoundSimulator::run_round_traced`] proves the
//!    fused order equals the heap order).
//! 2. **Struct-of-arrays state.** Per-request fields live in parallel
//!    preallocated arrays (`cylinder[]`, `zone[]`, `bytes[]`,
//!    `rotational[]`) reused across rounds; SCAN ordering sorts a
//!    packed `(key, index)` `u64` array with `sort_unstable` (stability
//!    recovered from the unique index in the low bits), so steady-state
//!    rounds allocate nothing.
//! 3. **Batched RNG draws.** One `DrawBuffer::refill` per round
//!    pre-materialises the raw `u64`s of the simulator's seeded stream;
//!    all samplers then consume them in index order. The buffer is a
//!    pure *window* onto the base stream — unconsumed draws carry over,
//!    exhaustion falls through to the base generator — so every derived
//!    draw (placement, fragment size, rotational latency,
//!    recalibration) is bit-identical to drawing from the base RNG
//!    directly, which keeps all seeded anchors byte-stable across the
//!    rewrite.
//!
//! [`RoundSimulator::run_round_traced`]: crate::RoundSimulator::run_round_traced

use crate::round::{OverrunPolicy, RoundOutcome, SeekPolicy, SimConfig};
use mzd_disk::scan::SweepDirection;
use mzd_disk::Disk;
use mzd_fault::FaultInjector;
use mzd_workload::SizeDistribution;
use rand::Rng;

/// Pre-materialised window onto a raw `u64` RNG stream.
///
/// `DrawBuffer::refill` pulls a batch of raw words from the base
/// generator; [`DrawBuffer::next`] serves them in order and falls back
/// to the base generator when the batch is exhausted. Unconsumed words
/// survive the next refill, so the sequence of values returned by
/// `next` is exactly the base stream regardless of refill timing.
#[derive(Debug, Default)]
pub struct DrawBuffer {
    buf: Vec<u64>,
    pos: usize,
}

impl DrawBuffer {
    /// An empty buffer with room for `n` raw draws.
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        Self {
            buf: Vec::with_capacity(n),
            pos: 0,
        }
    }

    /// Top the buffer up to `n` unconsumed raw draws from `base`.
    ///
    /// Unconsumed draws are retained — the buffer is a window onto the
    /// base stream and must never drop a word.
    fn refill<R: Rng + ?Sized>(&mut self, base: &mut R, n: usize) {
        self.buf.drain(..self.pos);
        self.pos = 0;
        while self.buf.len() < n {
            self.buf.push(base.next_u64());
        }
    }

    /// Next raw draw: buffered if available, else directly from `base`.
    #[inline(always)]
    pub fn next<R: Rng + ?Sized>(&mut self, base: &mut R) -> u64 {
        if self.pos < self.buf.len() {
            let v = self.buf[self.pos];
            self.pos += 1;
            v
        } else {
            base.next_u64()
        }
    }

    /// Uniform `f64` in `[0, 1)` — same bit recipe as the vendored
    /// `rand`'s `Standard` for `f64` (top 53 bits of one raw draw).
    #[inline(always)]
    fn f64_unit<R: Rng + ?Sized>(&mut self, base: &mut R) -> f64 {
        (self.next(base) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[start, end)` — same arithmetic (including the
    /// round-up guard) as the vendored `rand`'s `Range<f64>` sampler.
    #[inline(always)]
    fn f64_range<R: Rng + ?Sized>(&mut self, base: &mut R, start: f64, end: f64) -> f64 {
        let u = self.f64_unit(base);
        let v = start + u * (end - start);
        if v < end {
            v
        } else {
            start
        }
    }
}

/// [`Rng`] adapter that serves raw words from a [`DrawBuffer`].
///
/// `next_u32` derives from `next_u64` exactly as the vendored `StdRng`
/// does, so *every* sampler in the workspace (size laws, `random_range`,
/// shuffles) produces bit-identical values whether it draws through
/// this adapter or from the base generator directly.
#[derive(Debug)]
pub struct BufferedRng<'a, R: Rng + ?Sized> {
    draws: &'a mut DrawBuffer,
    base: &'a mut R,
}

impl<'a, R: Rng + ?Sized> BufferedRng<'a, R> {
    /// Adapt `draws` over `base`.
    pub fn new(draws: &'a mut DrawBuffer, base: &'a mut R) -> Self {
        Self { draws, base }
    }
}

impl<R: Rng + ?Sized> Rng for BufferedRng<'_, R> {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.draws.next(self.base)
    }
}

/// Kind of a simulation event, in tiebreak-rank order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A stream's per-round request enters the queue (round start).
    RequestIssue,
    /// The arm reached the request's cylinder.
    SeekComplete,
    /// The fragment finished transferring (includes rotational latency).
    TransferComplete,
    /// An injected fault finished its retry/backoff detour.
    FaultRetry,
    /// The round deadline.
    RoundBoundary,
}

impl EventKind {
    /// Rank used by the `(time, kind_rank, seq)` total order: at equal
    /// logical times, issues sort before completions and the round
    /// boundary sorts last.
    #[must_use]
    pub fn rank(self) -> u8 {
        match self {
            EventKind::RequestIssue => 0,
            EventKind::SeekComplete => 1,
            EventKind::TransferComplete => 2,
            EventKind::FaultRetry => 3,
            EventKind::RoundBoundary => 4,
        }
    }
}

/// One logical-time simulation event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Logical time within the round, seconds from the round start.
    pub time: f64,
    /// What happened.
    pub kind: EventKind,
    /// Emission sequence number — the final component of the total
    /// order, so two events never compare equal.
    pub seq: u32,
    /// The stream concerned (`u32::MAX` for [`EventKind::RoundBoundary`]).
    pub stream: u32,
}

impl Event {
    /// Strict total order `(time, kind_rank, seq)`; `time` compares via
    /// `total_cmp` so the order is well-defined for every bit pattern.
    #[must_use]
    pub fn precedes(&self, other: &Event) -> bool {
        match self.time.total_cmp(&other.time) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => {
                (self.kind.rank(), self.seq) < (other.kind.rank(), other.seq)
            }
        }
    }
}

/// Binary min-heap of [`Event`]s under the `(time, kind_rank, seq)`
/// total order.
///
/// A hand-rolled heap rather than `std::collections::BinaryHeap` so the
/// comparator can use `f64::total_cmp` without wrapping events in an
/// `Ord` newtype, and so the backing storage is reusable across rounds.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: Vec<Event>,
}

impl EventQueue {
    /// An empty queue with room for `n` events.
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        Self {
            heap: Vec::with_capacity(n),
        }
    }

    /// Number of queued events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drop all queued events, keeping the storage.
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Insert an event.
    pub fn push(&mut self, e: Event) {
        self.heap.push(e);
        let mut i = self.heap.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[i].precedes(&self.heap[parent]) {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    /// Remove and return the earliest event under the total order.
    pub fn pop(&mut self) -> Option<Event> {
        if self.heap.is_empty() {
            return None;
        }
        let last = self.heap.len() - 1;
        self.heap.swap(0, last);
        let out = self.heap.pop();
        let n = self.heap.len();
        let mut i = 0;
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut least = i;
            if l < n && self.heap[l].precedes(&self.heap[least]) {
                least = l;
            }
            if r < n && self.heap[r].precedes(&self.heap[least]) {
                least = r;
            }
            if least == i {
                break;
            }
            self.heap.swap(i, least);
            i = least;
        }
        out
    }
}

/// Struct-of-arrays per-round request state, reused across rounds.
#[derive(Debug, Default)]
struct Arena {
    stream: Vec<u32>,
    cylinder: Vec<u32>,
    zone: Vec<u32>,
    bytes: Vec<f64>,
    rotational: Vec<f64>,
    /// Packed SCAN sort keys: `(direction_key << 32) | index`.
    order: Vec<u64>,
}

impl Arena {
    /// Grow every column to hold at least `n` requests.
    fn ensure(&mut self, n: usize) {
        if self.stream.len() < n {
            self.stream.resize(n, 0);
            self.cylinder.resize(n, 0);
            self.zone.resize(n, 0);
            self.bytes.resize(n, 0.0);
            self.rotational.resize(n, 0.0);
            self.order.resize(n, 0);
        }
    }
}

/// Precomputed placement tables for the configured zone weights.
#[derive(Debug)]
struct PlacementTables {
    /// Prefix sums of the zone weights, accumulated left-to-right in
    /// the same order as the legacy linear scan (so the selected zone
    /// is identical for every draw, down to f64 rounding).
    cum: Vec<f64>,
    /// First cylinder of each zone.
    first: Vec<u32>,
    /// Cylinders in each zone.
    span: Vec<u64>,
    /// Lemire rejection threshold per zone: `2^64 mod span`, hoisted
    /// out of the per-draw loop (the vendored `random_range` recomputes
    /// this 64-bit modulo on every call).
    thr: Vec<u64>,
    /// Transfer rate of each zone, bytes/second.
    rate: Vec<f64>,
}

impl PlacementTables {
    fn new(disk: &Disk, weights: &[f64]) -> Self {
        let nz = weights.len();
        let mut cum = Vec::with_capacity(nz);
        let mut acc = 0.0f64;
        for &w in weights {
            acc += w;
            cum.push(acc);
        }
        let first: Vec<u32> = (0..nz).map(|z| disk.zone_first_cylinder(z)).collect();
        let span: Vec<u64> = (0..nz)
            .map(|z| u64::from(disk.zone_cylinder_count(z)))
            .collect();
        let thr: Vec<u64> = span.iter().map(|&s| s.wrapping_neg() % s).collect();
        let rate: Vec<f64> = (0..nz).map(|z| disk.zone_rate(z)).collect();
        Self {
            cum,
            first,
            span,
            thr,
            rate,
        }
    }
}

/// Where a round's fragment sizes come from.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RoundSizes<'a> {
    /// Draw `n` sizes i.i.d. from the configured law.
    Law {
        /// Streams served this round.
        n: u32,
        /// The size law to draw from.
        law: &'a SizeDistribution,
    },
    /// Caller-provided sizes, one per stream.
    Given(&'a [f64]),
}

impl RoundSizes<'_> {
    fn len(&self) -> usize {
        match *self {
            RoundSizes::Law { n, .. } => n as usize,
            RoundSizes::Given(s) => s.len(),
        }
    }
}

/// The discrete-event round core: batched draws, arena state, event
/// ordering. One per [`crate::RoundSimulator`]; all round entry points
/// funnel through [`EventCore::round`].
#[derive(Debug)]
pub(crate) struct EventCore {
    draws: DrawBuffer,
    arena: Arena,
    tables: PlacementTables,
    queue: EventQueue,
    /// Event emission counter within the current traced round.
    seq: u32,
    /// Cached disk constants (pure functions of the immutable disk).
    rot: f64,
    full_seek: f64,
}

/// Raw draws prefetched per request when sizes come from a law (zone +
/// cylinder + size sample + rotational; sized at the Gamma law's
/// expected consumption).
const DRAWS_PER_REQ_LAW: usize = 8;
/// Raw draws prefetched per request with caller-provided sizes.
const DRAWS_PER_REQ_GIVEN: usize = 4;

impl EventCore {
    /// Build a core for `disk` with placement `weights`, preallocating
    /// arena and draw-buffer storage for rounds of up to `capacity`
    /// requests (steady-state rounds at or below that size allocate
    /// nothing).
    pub(crate) fn new(disk: &Disk, weights: &[f64], capacity: usize) -> Self {
        let mut arena = Arena::default();
        arena.ensure(capacity);
        Self {
            draws: DrawBuffer::with_capacity(capacity * DRAWS_PER_REQ_LAW + 1),
            arena,
            tables: PlacementTables::new(disk, weights),
            queue: EventQueue::default(),
            seq: 0,
            rot: disk.rotation_time(),
            full_seek: disk.seek_curve().max_seek_time(disk.cylinders()),
        }
    }

    /// Swap the placement weights (drift injection / `set_placement`).
    pub(crate) fn set_weights(&mut self, disk: &Disk, weights: &[f64]) {
        self.tables = PlacementTables::new(disk, weights);
    }

    /// Draw one placement: a zone by the configured weights (binary
    /// search over the prefix sums), then a cylinder uniform within the
    /// zone (Lemire rejection with the hoisted threshold). Draw-for-draw
    /// and bit-for-bit identical to the legacy linear scan +
    /// `random_range(0..count)`.
    #[inline]
    pub(crate) fn place<R: Rng + ?Sized>(&mut self, base: &mut R) -> (u32, usize) {
        let u = self.draws.f64_unit(base);
        let target = u.clamp(0.0, 1.0);
        let t = &self.tables;
        let zone = t.cum.partition_point(|&c| c <= target).min(t.cum.len() - 1);
        let span = t.span[zone];
        let thr = t.thr[zone];
        let off = loop {
            let r = self.draws.next(base);
            let m = u128::from(r) * u128::from(span);
            if (m as u64) >= thr {
                break (m >> 64) as u32;
            }
        };
        (t.first[zone] + off, zone)
    }

    /// Draw one rotational latency, `U(0, ROT)`.
    #[inline]
    pub(crate) fn rotational<R: Rng + ?Sized>(&mut self, base: &mut R) -> f64 {
        self.draws.f64_range(base, 0.0, self.rot)
    }

    /// Transfer time of `bytes` in `zone` (precomputed rate).
    #[inline]
    pub(crate) fn transfer_time(&self, zone: usize, bytes: f64) -> f64 {
        bytes / self.tables.rate[zone]
    }

    #[inline]
    fn emit(&mut self, kind: EventKind, time: f64, stream: u32) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Event {
            time,
            kind,
            seq,
            stream,
        });
    }

    /// Run one round: generate requests (batched draws, arena state),
    /// order the sweep, and serve it against the logical clock.
    ///
    /// `arm` and `direction` are the cross-round elevator state, owned
    /// by the caller. When `trace` is supplied, the round's full event
    /// stream is heap-ordered under `(time, kind_rank, seq)` and
    /// drained into it (replacing its contents).
    ///
    /// The draw schedule is exactly the legacy per-request sequence —
    /// zone, cylinder, [size when drawn from a law,] rotational latency
    /// per request in stream order, then the recalibration draw — so a
    /// seeded run is byte-identical to the pre-event-core simulator.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn round<R: Rng + ?Sized>(
        &mut self,
        cfg: &SimConfig,
        sizes: RoundSizes<'_>,
        rng: &mut R,
        mut injector: Option<&mut FaultInjector>,
        arm: &mut u32,
        direction: &mut SweepDirection,
        trace: Option<&mut Vec<Event>>,
    ) -> RoundOutcome {
        let n = sizes.len();
        self.arena.ensure(n);
        let per_req = match sizes {
            RoundSizes::Law { .. } => DRAWS_PER_REQ_LAW,
            RoundSizes::Given(_) => DRAWS_PER_REQ_GIVEN,
        };
        self.draws
            .refill(rng, n * per_req + usize::from(cfg.recalibration.is_some()));

        for i in 0..n {
            let (cylinder, zone) = self.place(rng);
            let bytes = match sizes {
                RoundSizes::Law { law, .. } => {
                    law.sample(&mut BufferedRng::new(&mut self.draws, rng))
                }
                RoundSizes::Given(s) => s[i],
            };
            let rotational = self.draws.f64_range(rng, 0.0, self.rot);
            self.arena.stream[i] = i as u32;
            self.arena.cylinder[i] = cylinder;
            self.arena.zone[i] = zone as u32;
            self.arena.bytes[i] = bytes;
            self.arena.rotational[i] = rotational;
        }

        // The recalibration draw follows all request draws, exactly as
        // the legacy loop ordered it.
        let stall = match cfg.recalibration {
            Some(r) if self.draws.f64_unit(rng) < 1.0 / r.mean_interval_rounds => r.duration,
            _ => 0.0,
        };

        match cfg.seek_policy {
            SeekPolicy::Scan => {
                // Packed keys: stable cylinder order recovered from the
                // unique index in the low 32 bits, so `sort_unstable`
                // (allocation-free) matches the legacy stable sort.
                let up = *direction == SweepDirection::Up;
                for i in 0..n {
                    let key = if up {
                        self.arena.cylinder[i]
                    } else {
                        !self.arena.cylinder[i]
                    };
                    self.arena.order[i] = u64::from(key) << 32 | i as u64;
                }
                self.arena.order[..n].sort_unstable();
            }
            SeekPolicy::Fcfs => {
                for (i, slot) in self.arena.order[..n].iter_mut().enumerate() {
                    *slot = i as u64;
                }
            }
        }

        let tracing = trace.is_some();
        if tracing {
            self.queue.clear();
            self.seq = 0;
            for i in 0..n {
                self.emit(EventKind::RequestIssue, 0.0, i as u32);
            }
        }

        let curve = cfg.disk.seek_curve();
        let deadline = cfg.round_length;
        if let Some(inj) = injector.as_deref_mut() {
            inj.begin_round();
        }
        let mut clock = stall;
        let mut seek_total = 0.0;
        let mut rot_total = 0.0;
        let mut trans_total = 0.0;
        let mut fault_total = 0.0;
        let mut glitched = Vec::new();
        let mut pos = *arm;
        for k in 0..n {
            let i = (self.arena.order[k] & 0xffff_ffff) as usize;
            if cfg.overrun == OverrunPolicy::AbortAtDeadline && clock > deadline {
                glitched.push(self.arena.stream[i]);
                continue;
            }
            let cylinder = self.arena.cylinder[i];
            let zone = self.arena.zone[i] as usize;
            let dist = pos.abs_diff(cylinder);
            let seek = curve.seek_time_cyl(dist);
            let rotational = self.arena.rotational[i];
            let transfer = self.arena.bytes[i] / self.tables.rate[zone];
            let issue_clock = clock;
            // One expression: the addition order is load-bearing for
            // bit-identity with the legacy loop.
            clock += seek + rotational + transfer;
            seek_total += seek;
            rot_total += rotational;
            trans_total += transfer;
            pos = cylinder;
            let served_clock = clock;
            let mut failed = false;
            let mut extra = 0.0;
            if let Some(inj) = injector.as_deref_mut() {
                let pert = inj.perturb_read(
                    zone as u32,
                    transfer,
                    self.rot,
                    self.full_seek,
                    deadline - clock,
                );
                clock += pert.extra_time;
                fault_total += pert.extra_time;
                failed = pert.failed;
                extra = pert.extra_time;
            }
            if failed || clock > deadline {
                glitched.push(self.arena.stream[i]);
            }
            if tracing {
                let stream = self.arena.stream[i];
                self.emit(EventKind::SeekComplete, issue_clock + seek, stream);
                self.emit(EventKind::TransferComplete, served_clock, stream);
                if extra > 0.0 {
                    self.emit(EventKind::FaultRetry, clock, stream);
                }
            }
        }
        *arm = pos;
        *direction = direction.reversed();
        if let Some(out) = trace {
            self.emit(EventKind::RoundBoundary, deadline, u32::MAX);
            out.clear();
            while let Some(e) = self.queue.pop() {
                out.push(e);
            }
        }
        RoundOutcome {
            service_time: clock,
            late: clock > deadline,
            glitched_streams: glitched,
            seek_time: seek_total,
            rotational_time: rot_total,
            transfer_time: trans_total,
            stall_time: stall,
            fault_time: fault_total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt as _, SeedableRng};

    #[test]
    fn draw_buffer_is_a_window_onto_the_base_stream() {
        let mut direct = StdRng::seed_from_u64(99);
        let mut base = StdRng::seed_from_u64(99);
        let mut db = DrawBuffer::with_capacity(16);
        let mut got = Vec::new();
        // Interleave refills of varying sizes with draws, including a
        // stretch past the buffered window (fallback path).
        db.refill(&mut base, 5);
        for _ in 0..3 {
            got.push(db.next(&mut base));
        }
        db.refill(&mut base, 7); // 2 unconsumed carry over
        for _ in 0..10 {
            got.push(db.next(&mut base)); // drains past the window
        }
        db.refill(&mut base, 4);
        for _ in 0..4 {
            got.push(db.next(&mut base));
        }
        let want: Vec<u64> = (0..got.len()).map(|_| direct.next_u64()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn buffered_rng_matches_direct_draws() {
        let mut direct = StdRng::seed_from_u64(7);
        let mut base = StdRng::seed_from_u64(7);
        let mut db = DrawBuffer::with_capacity(64);
        db.refill(&mut base, 40);
        let mut br = BufferedRng::new(&mut db, &mut base);
        for _ in 0..20 {
            let a: f64 = br.random();
            let b: f64 = direct.random();
            assert_eq!(a.to_bits(), b.to_bits());
            assert_eq!(br.random_range(0..1000u32), direct.random_range(0..1000u32));
            let a = br.random_range(0.0..0.25f64);
            let b = direct.random_range(0.0..0.25f64);
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Satellite: `partition_point` zone selection must agree with the
    /// legacy linear scan for every draw, including exact boundaries.
    #[test]
    fn partition_point_matches_linear_scan_on_boundaries() {
        let disk = crate::SimConfig::paper_reference().unwrap().disk;
        let weights = mzd_disk::placement::PlacementPolicy::UniformByCapacity
            .zone_weights(&disk)
            .unwrap();
        let tables = PlacementTables::new(&disk, &weights);
        let legacy = |target: f64| {
            let mut acc = 0.0;
            let mut chosen = weights.len() - 1;
            for (i, &w) in weights.iter().enumerate() {
                acc += w;
                if target < acc {
                    chosen = i;
                    break;
                }
            }
            chosen
        };
        let fast = |target: f64| {
            tables
                .cum
                .partition_point(|&c| c <= target)
                .min(tables.cum.len() - 1)
        };
        let mut probes = vec![0.0, 0.5, 1.0 - 1e-16, 1.0];
        for &c in &tables.cum {
            // Exactly on, just below, and just above every boundary.
            probes.push(c);
            probes.push(f64::from_bits(c.to_bits().wrapping_sub(1)));
            probes.push(f64::from_bits(c.to_bits() + 1));
        }
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            probes.push(rng.random());
        }
        for u in probes {
            let target = u.clamp(0.0, 1.0);
            assert_eq!(
                fast(target),
                legacy(target),
                "zone selection diverged at u = {u:?}"
            );
        }
    }

    #[test]
    fn queue_orders_by_time_rank_seq() {
        let mut q = EventQueue::with_capacity(8);
        let e = |time, kind, seq| Event {
            time,
            kind,
            seq,
            stream: 0,
        };
        // Pushed deliberately out of order, with time ties broken by
        // rank and a full (time, rank) tie broken by seq.
        let expect = [
            e(0.0, EventKind::RequestIssue, 0),
            e(0.0, EventKind::RequestIssue, 1),
            e(0.25, EventKind::SeekComplete, 2),
            e(0.25, EventKind::TransferComplete, 3),
            e(0.25, EventKind::FaultRetry, 4),
            e(0.25, EventKind::FaultRetry, 5),
            e(1.0, EventKind::TransferComplete, 6),
            e(1.0, EventKind::RoundBoundary, 7),
        ];
        for i in [5usize, 0, 7, 3, 6, 1, 4, 2] {
            q.push(expect[i]);
        }
        let mut got = Vec::new();
        while let Some(ev) = q.pop() {
            got.push(ev);
        }
        assert_eq!(got.as_slice(), expect.as_slice());
    }

    #[test]
    fn queue_drains_random_events_in_total_order() {
        let mut rng = StdRng::seed_from_u64(11);
        let kinds = [
            EventKind::RequestIssue,
            EventKind::SeekComplete,
            EventKind::TransferComplete,
            EventKind::FaultRetry,
            EventKind::RoundBoundary,
        ];
        let mut q = EventQueue::default();
        for seq in 0..500u32 {
            q.push(Event {
                // Coarse times force plenty of ties.
                time: f64::from(rng.random_range(0..8u32)) * 0.125,
                kind: kinds[rng.random_range(0..kinds.len() as u32) as usize],
                seq,
                stream: seq,
            });
        }
        let mut prev: Option<Event> = None;
        let mut count = 0;
        while let Some(ev) = q.pop() {
            if let Some(p) = prev {
                assert!(p.precedes(&ev), "heap violated the total order");
            }
            prev = Some(ev);
            count += 1;
        }
        assert_eq!(count, 500);
    }
}
