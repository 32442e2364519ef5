//! Stream and object specifications.
//!
//! A *continuous object* (video/audio) is a stored sequence of fragments;
//! a *stream* is an active play-out of an object by one client (§2). The
//! analytic model needs only the per-round fragment-size law and the
//! stream length in rounds; the simulator and server additionally track
//! identities and lifecycles.

use crate::size::SizeDistribution;
use crate::WorkloadError;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Fragments past this index are not memoised: a stored object longer
/// than 2^20 rounds (~12 days at one-second rounds) re-derives the
/// sizes of its later fragments on every read instead of pinning 8 MB
/// of table per title.
const MEMO_MAX_FRAGMENTS: u32 = 1 << 20;

/// The lazily filled size table of one stored object, shared through an
/// `Arc` by every clone of its [`ObjectSpec`].
///
/// Cell `f` holds the `f64` bits of `sample_at(content_id, f)`, or 0
/// while not yet read (a stored size is always > 0, so no size has the
/// bits 0; a size that did would merely be re-derived on every read).
/// Cells are read and written with relaxed atomics. That is
/// deterministic: every writer of a cell stores the same bits, so a
/// racing reader sees either 0 — and derives those bits itself — or the
/// final value, never anything else.
struct SizeMemo {
    /// The content id the table was built for; a spec whose public
    /// `content_id` was reassigned afterwards bypasses the table.
    content_id: u64,
    bits: Box<[AtomicU64]>,
}

impl SizeMemo {
    fn new(content_id: u64, rounds: u32) -> Self {
        let len = rounds.min(MEMO_MAX_FRAGMENTS) as usize;
        Self {
            content_id,
            bits: std::iter::repeat_with(|| AtomicU64::new(0))
                .take(len)
                .collect(),
        }
    }
}

/// Specification of a stored continuous object.
#[derive(Clone)]
pub struct ObjectSpec {
    /// Human-readable name.
    pub name: String,
    /// Fragment-size law of the object.
    pub sizes: SizeDistribution,
    /// Play-out length in rounds (`M` in the paper).
    pub rounds: u32,
    /// Content identity for *stored* objects.
    ///
    /// `None` (the default) keeps the paper's i.i.d. model: each play-out
    /// re-draws its fragment sizes from `sizes` independently. `Some(id)`
    /// declares the object a fixed stored artifact: fragment `f` always
    /// has size [`SizeDistribution::sample_at`]`(id, f)`, identical across
    /// streams — the precondition for fragments being cacheable and for
    /// two readers to share a fetch.
    ///
    /// Set it with [`ObjectSpec::with_content_id`], which also gives the
    /// object a per-fragment size table (8 bytes per stored fragment,
    /// filled on first read) that every clone of the spec shares, so each
    /// size is derived once per catalog entry rather than on every
    /// stream-round.
    pub content_id: Option<u64>,
    /// Memoised stored fragment sizes (see [`SizeMemo`]); `None` for
    /// i.i.d. objects. Ignored by `PartialEq` and `Debug`: it caches
    /// `sizes.sample_at`, it adds no state of its own.
    memo: Option<Arc<SizeMemo>>,
}

impl PartialEq for ObjectSpec {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.sizes == other.sizes
            && self.rounds == other.rounds
            && self.content_id == other.content_id
    }
}

impl fmt::Debug for ObjectSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObjectSpec")
            .field("name", &self.name)
            .field("sizes", &self.sizes)
            .field("rounds", &self.rounds)
            .field("content_id", &self.content_id)
            .finish()
    }
}

impl ObjectSpec {
    /// Create an object spec.
    ///
    /// # Errors
    /// [`WorkloadError::Invalid`] if `rounds == 0`.
    pub fn new(
        name: impl Into<String>,
        sizes: SizeDistribution,
        rounds: u32,
    ) -> Result<Self, WorkloadError> {
        Ok(Self {
            name: name.into(),
            sizes,
            rounds: positive_rounds(rounds)?,
            content_id: None,
            memo: None,
        })
    }

    /// Mark this object as stored content with the given identity (see
    /// [`ObjectSpec::content_id`]) and give it a fresh, empty size table
    /// of one cell per round. Call it after any change to `sizes`: the
    /// table caches the law the spec has at this call.
    #[must_use]
    pub fn with_content_id(mut self, id: u64) -> Self {
        self.content_id = Some(id);
        self.memo = Some(Arc::new(SizeMemo::new(id, self.rounds)));
        self
    }

    /// This object cut to its first `rounds` fragments, still sharing
    /// the original's size table — how a migrated stream carries the rest
    /// of its title to another node.
    ///
    /// # Errors
    /// [`WorkloadError::Invalid`] if `rounds == 0`.
    pub fn with_rounds(mut self, rounds: u32) -> Result<Self, WorkloadError> {
        self.rounds = positive_rounds(rounds)?;
        Ok(self)
    }

    /// The size of stored fragment `fragment`, or `None` for i.i.d.
    /// objects (no fixed per-fragment size exists — the caller samples).
    ///
    /// Always the bits of [`SizeDistribution::sample_at`]`(id, fragment)`;
    /// after the first read of a fragment by any clone of this spec it is
    /// a table load instead of a seeded Gamma draw.
    #[must_use]
    pub fn stored_fragment_size(&self, fragment: u32) -> Option<f64> {
        let id = self.content_id?;
        let cell = self
            .memo
            .as_ref()
            .filter(|m| m.content_id == id)
            .and_then(|m| m.bits.get(fragment as usize));
        let Some(cell) = cell else {
            return Some(self.sizes.sample_at(id, fragment));
        };
        let size = match cell.load(Ordering::Relaxed) {
            0 => {
                let size = self.sizes.sample_at(id, fragment);
                cell.store(size.to_bits(), Ordering::Relaxed);
                size
            }
            bits => f64::from_bits(bits),
        };
        debug_assert_eq!(
            size.to_bits(),
            self.sizes.sample_at(id, fragment).to_bits(),
            "size table of content {id} is stale at fragment {fragment}"
        );
        Some(size)
    }

    /// The paper's reference object: Gamma(200 KB, (100 KB)²) fragments
    /// over `M = 1200` rounds (Table 1 — a 20-minute video at `t = 1 s`).
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            name: "paper-default".into(),
            sizes: SizeDistribution::paper_default(),
            rounds: 1200,
            content_id: None,
            memo: None,
        }
    }

    /// Expected total object size, bytes.
    #[must_use]
    pub fn expected_bytes(&self) -> f64 {
        self.sizes.mean() * f64::from(self.rounds)
    }
}

fn positive_rounds(rounds: u32) -> Result<u32, WorkloadError> {
    if rounds == 0 {
        return Err(WorkloadError::Invalid(
            "object must last at least one round".into(),
        ));
    }
    Ok(rounds)
}

/// Specification of one active stream: which object, and a label.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSpec {
    /// Stream identifier (unique within a run).
    pub id: u64,
    /// The object being played.
    pub object: ObjectSpec,
}

impl StreamSpec {
    /// Create a stream playing `object`.
    #[must_use]
    pub fn new(id: u64, object: ObjectSpec) -> Self {
        Self { id, object }
    }

    /// Stream length in rounds.
    #[must_use]
    pub fn rounds(&self) -> u32 {
        self.object.rounds
    }
}

/// A catalog of stored objects, from which streams are opened.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObjectCatalog {
    objects: Vec<ObjectSpec>,
}

impl ObjectCatalog {
    /// Empty catalog.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A small demo catalog with heterogeneous bandwidths: a news clip,
    /// a feature movie and an audio track — the mixed-media setting the
    /// paper's introduction motivates.
    ///
    /// # Errors
    /// Never in practice (all parameters are valid); propagated for
    /// uniformity.
    pub fn demo() -> Result<Self, WorkloadError> {
        let mut c = Self::new();
        // News clip: 5 minutes, high-variability MPEG-2 (~4 Mbit/s).
        c.add(ObjectSpec::new(
            "news-clip",
            SizeDistribution::gamma(500_000.0, (300_000.0f64).powi(2))?,
            300,
        )?);
        // Feature movie: 90 minutes, 4 Mbit/s.
        c.add(ObjectSpec::new(
            "feature-movie",
            SizeDistribution::gamma(500_000.0, (250_000.0f64).powi(2))?,
            5400,
        )?);
        // Audio: 4 minutes, 256 kbit/s, low variability.
        c.add(ObjectSpec::new(
            "audio-track",
            SizeDistribution::gamma(32_000.0, (4_000.0f64).powi(2))?,
            240,
        )?);
        Ok(c)
    }

    /// Add an object.
    pub fn add(&mut self, object: ObjectSpec) {
        self.objects.push(object);
    }

    /// All objects.
    #[must_use]
    pub fn objects(&self) -> &[ObjectSpec] {
        &self.objects
    }

    /// Look up an object by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&ObjectSpec> {
        self.objects.iter().find(|o| o.name == name)
    }

    /// Number of objects.
    #[must_use]
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the catalog is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Pooled fragment-size moments across the catalog, weighting every
    /// object equally — the "workload statistics … fed into the admission
    /// control" of §2.3. Returns `(mean, variance)` of a fragment drawn
    /// from a uniformly-chosen object (law of total variance).
    #[must_use]
    pub fn pooled_moments(&self) -> Option<(f64, f64)> {
        if self.objects.is_empty() {
            return None;
        }
        let n = self.objects.len() as f64;
        let mean: f64 = self.objects.iter().map(|o| o.sizes.mean()).sum::<f64>() / n;
        let within: f64 = self.objects.iter().map(|o| o.sizes.variance()).sum::<f64>() / n;
        let between: f64 = self
            .objects
            .iter()
            .map(|o| {
                let d = o.sizes.mean() - mean;
                d * d
            })
            .sum::<f64>()
            / n;
        Some((mean, within + between))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_object() {
        let o = ObjectSpec::paper_default();
        assert_eq!(o.rounds, 1200);
        assert_eq!(o.sizes.mean(), 200_000.0);
        // 1200 rounds × 200 KB = 240 MB expected.
        assert_eq!(o.expected_bytes(), 240e6);
    }

    #[test]
    fn content_id_gates_stored_sizes() {
        let iid = ObjectSpec::paper_default();
        assert_eq!(iid.content_id, None);
        assert_eq!(iid.stored_fragment_size(0), None);
        let stored = ObjectSpec::paper_default().with_content_id(9);
        assert_eq!(stored.content_id, Some(9));
        let s0 = stored.stored_fragment_size(0).unwrap();
        assert_eq!(stored.stored_fragment_size(0), Some(s0));
        assert_ne!(stored.stored_fragment_size(1), Some(s0));
        assert_eq!(
            s0,
            stored.sizes.sample_at(9, 0),
            "stored size comes from sample_at"
        );
    }

    /// One stored object per size law, `rounds` fragments long.
    fn stored_laws(rounds: u32) -> Vec<ObjectSpec> {
        let laws = [
            SizeDistribution::paper_default(),
            SizeDistribution::log_normal(200_000.0, 1e10).unwrap(),
            SizeDistribution::pareto(200_000.0, 1e10).unwrap(),
            SizeDistribution::constant(150_000.0).unwrap(),
            SizeDistribution::empirical(vec![90_000.0, 180_000.0, 410_000.0]).unwrap(),
        ];
        laws.into_iter()
            .enumerate()
            .map(|(i, sizes)| {
                ObjectSpec::new(format!("law-{i}"), sizes, rounds)
                    .unwrap()
                    .with_content_id(100 + i as u64)
            })
            .collect()
    }

    /// The bits `sample_at` gives fragment `f` of stored object `o`.
    fn reference_bits(o: &ObjectSpec, f: u32) -> u64 {
        o.sizes.sample_at(o.content_id.unwrap(), f).to_bits()
    }

    #[test]
    fn size_table_returns_sample_at_bits_on_every_read() {
        for o in stored_laws(64) {
            let first: Vec<u64> = (0..64)
                .map(|f| o.stored_fragment_size(f).unwrap().to_bits())
                .collect();
            let repeat: Vec<u64> = (0..64)
                .map(|f| o.stored_fragment_size(f).unwrap().to_bits())
                .collect();
            let copy = o.clone();
            let cloned: Vec<u64> = (0..64)
                .map(|f| copy.stored_fragment_size(f).unwrap().to_bits())
                .collect();
            let expected: Vec<u64> = (0..64).map(|f| reference_bits(&o, f)).collect();
            assert_eq!(first, expected, "{}: first read", o.name);
            assert_eq!(repeat, expected, "{}: repeat read", o.name);
            assert_eq!(cloned, expected, "{}: clone", o.name);
            // Past the object's end there is no cell; the size still
            // comes from sample_at.
            assert_eq!(
                o.stored_fragment_size(64).unwrap().to_bits(),
                reference_bits(&o, 64)
            );
        }
    }

    #[test]
    fn size_table_is_shared_by_clones_and_filled_once() {
        let o = ObjectSpec::paper_default().with_content_id(5);
        let copy = o.clone();
        let (a, b) = (o.memo.as_ref().unwrap(), copy.memo.as_ref().unwrap());
        assert!(Arc::ptr_eq(a, b), "clones share one table");
        assert_eq!(a.bits.len(), 1200, "one cell per round");
        assert_eq!(a.bits[3].load(Ordering::Relaxed), 0, "filled lazily");
        let size = copy.stored_fragment_size(3).unwrap();
        assert_eq!(a.bits[3].load(Ordering::Relaxed), size.to_bits());
        // Equality and the debug form ignore the table.
        assert_eq!(o, ObjectSpec::paper_default().with_content_id(5));
        assert!(!format!("{o:?}").contains("memo"));
    }

    #[test]
    fn size_table_is_bit_identical_under_concurrent_readers() {
        const ROUNDS: u32 = 512;
        for o in stored_laws(ROUNDS) {
            let expected: Vec<u64> = (0..ROUNDS).map(|f| reference_bits(&o, f)).collect();
            let start = std::sync::Barrier::new(8);
            let reads: Vec<Vec<u64>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..8u32)
                    .map(|t| {
                        let reader = o.clone();
                        let start = &start;
                        scope.spawn(move || {
                            // All threads start together, each at a
                            // different fragment, so they race to fill the
                            // same empty cells.
                            start.wait();
                            let mut bits = vec![0; ROUNDS as usize];
                            for k in 0..ROUNDS {
                                let f = (k + t * 61) % ROUNDS;
                                bits[f as usize] =
                                    reader.stored_fragment_size(f).unwrap().to_bits();
                            }
                            bits
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for bits in reads {
                assert_eq!(bits, expected, "{}", o.name);
            }
        }
    }

    #[test]
    fn iid_objects_have_no_stored_sizes() {
        for sizes in [
            SizeDistribution::paper_default(),
            SizeDistribution::constant(150_000.0).unwrap(),
        ] {
            let o = ObjectSpec::new("iid", sizes, 10).unwrap();
            assert!(o.memo.is_none());
            assert!((0..10).all(|f| o.stored_fragment_size(f).is_none()));
        }
    }

    #[test]
    fn reassigned_content_id_bypasses_the_old_table() {
        let mut o = ObjectSpec::paper_default().with_content_id(1);
        let _ = o.stored_fragment_size(0);
        o.content_id = Some(2);
        assert_eq!(
            o.stored_fragment_size(0).unwrap().to_bits(),
            o.sizes.sample_at(2, 0).to_bits()
        );
    }

    #[test]
    fn shortened_copy_keeps_the_table_and_the_sizes() {
        for o in stored_laws(40) {
            // Warm part of the table first, as a running stream would.
            for f in 0..10 {
                let _ = o.stored_fragment_size(f);
            }
            let short = o.clone().with_rounds(25).unwrap();
            assert_eq!(short.rounds, 25);
            assert_eq!(short.content_id, o.content_id);
            let (a, b) = (o.memo.as_ref().unwrap(), short.memo.as_ref().unwrap());
            assert!(Arc::ptr_eq(a, b), "{}: table shared", o.name);
            for f in 0..short.rounds {
                assert_eq!(
                    short.stored_fragment_size(f).unwrap().to_bits(),
                    o.stored_fragment_size(f).unwrap().to_bits(),
                    "{}: fragment {f}",
                    o.name
                );
            }
        }
        assert!(ObjectSpec::paper_default().with_rounds(0).is_err());
    }

    #[test]
    fn object_requires_positive_rounds() {
        assert!(ObjectSpec::new("x", SizeDistribution::paper_default(), 0).is_err());
    }

    #[test]
    fn stream_wraps_object() {
        let s = StreamSpec::new(7, ObjectSpec::paper_default());
        assert_eq!(s.id, 7);
        assert_eq!(s.rounds(), 1200);
    }

    #[test]
    fn demo_catalog_contents() {
        let c = ObjectCatalog::demo().unwrap();
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
        assert!(c.get("feature-movie").is_some());
        assert!(c.get("nonexistent").is_none());
        // The movie dominates storage.
        let movie = c.get("feature-movie").unwrap();
        assert!(movie.expected_bytes() > 2e9);
    }

    #[test]
    fn pooled_moments_law_of_total_variance() {
        let mut c = ObjectCatalog::new();
        assert_eq!(c.pooled_moments(), None);
        c.add(ObjectSpec::new("a", SizeDistribution::constant(100.0).unwrap(), 10).unwrap());
        c.add(ObjectSpec::new("b", SizeDistribution::constant(300.0).unwrap(), 10).unwrap());
        let (m, v) = c.pooled_moments().unwrap();
        assert_eq!(m, 200.0);
        // Two constants: within-variance 0, between-variance 100².
        assert_eq!(v, 10_000.0);
    }
}
