//! Synthetic MPEG-like VBR frame-size generator.
//!
//! The paper grounds its Gamma fragment-size assumption in statistical
//! studies of MPEG traces (\[Ros95\], \[KH95\]). Those traces are not
//! redistributable, so this module synthesizes traces with the same
//! qualitative structure:
//!
//! * a periodic GOP pattern (e.g. `IBBPBBPBBPBB`) with I-frames several
//!   times larger than P-frames, which are larger than B-frames;
//! * lognormal marginal size per frame type (heavy right tail);
//! * scene-level correlation: a slowly-varying AR(1) modulation in the log
//!   domain shared by all frames of a scene, so consecutive fragments are
//!   positively correlated — letting experiments check the model's
//!   robustness to the independence idealization of §3.3.

use crate::trace::Trace;
use crate::WorkloadError;
use mzd_numerics::rng::Normal;
use rand::Rng;

/// MPEG frame types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameType {
    /// Intra-coded (largest).
    I,
    /// Predicted.
    P,
    /// Bidirectionally predicted (smallest).
    B,
}

/// Parameters of the synthetic GOP generator.
#[derive(Debug, Clone, PartialEq)]
pub struct GopModel {
    /// GOP pattern, e.g. `[I,B,B,P,B,B,P,B,B,P,B,B]`.
    pattern: Vec<FrameType>,
    /// Frames per second of the encoded video.
    frame_rate: f64,
    /// Mean size per frame type in bytes: (I, P, B).
    mean_sizes: (f64, f64, f64),
    /// Coefficient of variation of the per-frame lognormal, per type.
    cv: f64,
    /// AR(1) coefficient of the scene-level log modulation (0 = i.i.d.).
    scene_ar: f64,
    /// Standard deviation of the scene modulation in the log domain.
    scene_sigma: f64,
    /// Mean scene length in frames (geometric).
    scene_length: f64,
}

impl GopModel {
    /// An MPEG-2-like default: 12-frame GOP `IBBPBBPBBPBB` at 25 fps,
    /// ~4 Mbit/s mean bandwidth, I:P:B ≈ 5:3:1, moderate burstiness.
    #[must_use]
    pub fn mpeg2_default() -> Self {
        // Mean frame size for 4 Mbit/s at 25 fps is 20 000 bytes; the GOP
        // has 1 I, 3 P, 8 B. Solving 1·i + 3·p + 8·b = 12·20000 with
        // i:p:b = 5:3:1 gives b = 240000/22.
        let unit = 12.0 * 20_000.0 / 22.0;
        Self {
            pattern: vec![
                FrameType::I,
                FrameType::B,
                FrameType::B,
                FrameType::P,
                FrameType::B,
                FrameType::B,
                FrameType::P,
                FrameType::B,
                FrameType::B,
                FrameType::P,
                FrameType::B,
                FrameType::B,
            ],
            frame_rate: 25.0,
            mean_sizes: (5.0 * unit, 3.0 * unit, unit),
            cv: 0.25,
            scene_ar: 0.92,
            scene_sigma: 0.35,
            scene_length: 125.0, // ≈ 5 s scenes at 25 fps
        }
    }

    /// Customize the mean bandwidth (bits/second), keeping the I:P:B ratio.
    ///
    /// # Errors
    /// [`WorkloadError::Invalid`] unless positive.
    pub fn with_bandwidth(mut self, bits_per_second: f64) -> Result<Self, WorkloadError> {
        if !(bits_per_second > 0.0) || !bits_per_second.is_finite() {
            return Err(WorkloadError::Invalid(format!(
                "bandwidth must be positive, got {bits_per_second}"
            )));
        }
        let current = self.mean_bandwidth_bits();
        let scale = bits_per_second / current;
        self.mean_sizes = (
            self.mean_sizes.0 * scale,
            self.mean_sizes.1 * scale,
            self.mean_sizes.2 * scale,
        );
        Ok(self)
    }

    /// Disable scene correlation (i.i.d. frames) — the idealization the
    /// analytic model assumes.
    #[must_use]
    pub fn without_scene_correlation(mut self) -> Self {
        self.scene_ar = 0.0;
        self.scene_sigma = 0.0;
        self
    }

    /// Tune the scene-level modulation: AR(1) coefficient `ar ∈ [0, 1)`,
    /// log-domain standard deviation `sigma ≥ 0`, and mean scene length in
    /// frames. Larger `sigma` and longer scenes make fragments burstier
    /// and more strongly correlated across rounds.
    ///
    /// # Errors
    /// [`WorkloadError::Invalid`] for out-of-range parameters.
    pub fn with_scene(
        mut self,
        ar: f64,
        sigma: f64,
        mean_scene_frames: f64,
    ) -> Result<Self, WorkloadError> {
        if !(0.0..1.0).contains(&ar) || !(sigma >= 0.0) || !(mean_scene_frames >= 1.0) {
            return Err(WorkloadError::Invalid(format!(
                "require 0 <= ar < 1, sigma >= 0, scene length >= 1; \
                 got ar = {ar}, sigma = {sigma}, length = {mean_scene_frames}"
            )));
        }
        self.scene_ar = ar;
        self.scene_sigma = sigma;
        self.scene_length = mean_scene_frames;
        Ok(self)
    }

    /// Mean bandwidth implied by the pattern and mean sizes, bits/second.
    #[must_use]
    pub fn mean_bandwidth_bits(&self) -> f64 {
        let mean_frame = self.mean_frame_size();
        mean_frame * self.frame_rate * 8.0
    }

    /// Mean frame size over one GOP, bytes.
    #[must_use]
    fn mean_frame_size(&self) -> f64 {
        let total: f64 = self.pattern.iter().map(|t| self.mean_of(*t)).sum();
        total / self.pattern.len() as f64
    }

    fn mean_of(&self, t: FrameType) -> f64 {
        match t {
            FrameType::I => self.mean_sizes.0,
            FrameType::P => self.mean_sizes.1,
            FrameType::B => self.mean_sizes.2,
        }
    }

    /// Generate `frames` frame sizes in display order.
    fn generate_frames<R: Rng + ?Sized>(&self, frames: usize, rng: &mut R) -> Vec<f64> {
        let mut out = Vec::with_capacity(frames);
        // Scene modulation state (log domain), stationary start.
        let mut scene_level = if self.scene_sigma > 0.0 {
            Normal::standard_sample(rng) * self.scene_sigma
        } else {
            0.0
        };
        let innovation_sigma = self.scene_sigma * (1.0 - self.scene_ar * self.scene_ar).sqrt();
        let mut frames_left_in_scene = self.draw_scene_length(rng);

        // Per-frame lognormal: mean-preserving, cv = self.cv.
        let sigma2 = (1.0 + self.cv * self.cv).ln();
        let frame_sigma = sigma2.sqrt();

        for i in 0..frames {
            if frames_left_in_scene == 0 {
                // Scene cut: re-draw the level towards a fresh value.
                scene_level = self.scene_ar * scene_level
                    + if innovation_sigma > 0.0 {
                        Normal::standard_sample(rng) * innovation_sigma
                    } else {
                        0.0
                    };
                frames_left_in_scene = self.draw_scene_length(rng);
            }
            frames_left_in_scene -= 1;
            let t = self.pattern[i % self.pattern.len()];
            let mean = self.mean_of(t);
            // Mean-preserving lognormal around mean·exp(scene_level −
            // scene_sigma²/2): the scene factor has unit mean.
            let mu =
                mean.ln() - 0.5 * sigma2 + scene_level - 0.5 * self.scene_sigma * self.scene_sigma;
            let z = Normal::standard_sample(rng);
            out.push((mu + frame_sigma * z).exp().max(1.0));
        }
        out
    }

    fn draw_scene_length<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        use rand::RngExt as _;
        if self.scene_length <= 1.0 {
            return 1;
        }
        // Geometric with mean scene_length.
        let p = 1.0 / self.scene_length;
        let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
        ((u.ln() / (1.0 - p).ln()).ceil() as usize).max(1)
    }

    /// Generate a fragment trace covering `duration_seconds` of video with
    /// fragments of `round_length` seconds of display time each (§2.1: all
    /// fragments have the same display time).
    ///
    /// # Errors
    /// [`WorkloadError::Invalid`] for non-positive durations or a round
    /// shorter than one frame.
    pub fn generate_trace<R: Rng + ?Sized>(
        &self,
        duration_seconds: f64,
        round_length: f64,
        rng: &mut R,
    ) -> Result<Trace, WorkloadError> {
        if !(duration_seconds > 0.0) || !(round_length > 0.0) {
            return Err(WorkloadError::Invalid(format!(
                "durations must be positive, got video {duration_seconds}s, round {round_length}s"
            )));
        }
        let frames_per_fragment = (round_length * self.frame_rate).round() as usize;
        if frames_per_fragment == 0 {
            return Err(WorkloadError::Invalid(format!(
                "round length {round_length}s is shorter than one frame at {} fps",
                self.frame_rate
            )));
        }
        let fragments = (duration_seconds / round_length).ceil() as usize;
        let frames = self.generate_frames(fragments * frames_per_fragment, rng);
        let sizes: Vec<f64> = frames
            .chunks(frames_per_fragment)
            .map(|chunk| chunk.iter().sum())
            .collect();
        Trace::new(sizes, round_length)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn default_model_bandwidth_is_4mbit() {
        let m = GopModel::mpeg2_default();
        assert!((m.mean_bandwidth_bits() - 4e6).abs() < 1.0);
        assert!((m.mean_frame_size() - 20_000.0).abs() < 1e-9);
    }

    #[test]
    fn with_bandwidth_scales_sizes() {
        let m = GopModel::mpeg2_default().with_bandwidth(8e6).unwrap();
        assert!((m.mean_bandwidth_bits() - 8e6).abs() < 1.0);
        assert!(GopModel::mpeg2_default().with_bandwidth(0.0).is_err());
    }

    #[test]
    fn generated_frames_have_gop_structure() {
        let m = GopModel::mpeg2_default().without_scene_correlation();
        let mut rng = StdRng::seed_from_u64(11);
        let frames = m.generate_frames(12_000, &mut rng);
        // Average I frames (positions ≡ 0 mod 12) vs B frames (pos 1 mod 12).
        let i_mean: f64 = frames.iter().step_by(12).sum::<f64>() / (frames.len() / 12) as f64;
        let b_mean: f64 =
            frames.iter().skip(1).step_by(12).sum::<f64>() / (frames.len() / 12) as f64;
        assert!(
            i_mean > 3.0 * b_mean,
            "I mean {i_mean} should dominate B mean {b_mean}"
        );
    }

    #[test]
    fn frame_mean_matches_model_mean() {
        let m = GopModel::mpeg2_default().without_scene_correlation();
        let mut rng = StdRng::seed_from_u64(12);
        let frames = m.generate_frames(60_000, &mut rng);
        let mean = frames.iter().sum::<f64>() / frames.len() as f64;
        assert!(
            (mean / m.mean_frame_size() - 1.0).abs() < 0.02,
            "mean {mean}"
        );
    }

    #[test]
    fn scene_correlation_increases_fragment_variance() {
        // With scene modulation, fragment sums vary more than i.i.d. frames
        // would predict.
        let mut rng = StdRng::seed_from_u64(13);
        let corr = GopModel::mpeg2_default()
            .generate_trace(4000.0, 1.0, &mut rng)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        let iid = GopModel::mpeg2_default()
            .without_scene_correlation()
            .generate_trace(4000.0, 1.0, &mut rng)
            .unwrap();
        assert!(
            corr.variance() > 1.5 * iid.variance(),
            "corr var {} vs iid var {}",
            corr.variance(),
            iid.variance()
        );
    }

    #[test]
    fn trace_fragment_counts_and_means() {
        let m = GopModel::mpeg2_default();
        let mut rng = StdRng::seed_from_u64(14);
        let trace = m.generate_trace(600.0, 1.0, &mut rng).unwrap();
        assert_eq!(trace.len(), 600);
        // 1-second fragments of 4 Mbit/s video ≈ 500 KB each.
        assert!(
            (trace.mean() / 500_000.0 - 1.0).abs() < 0.15,
            "mean {}",
            trace.mean()
        );
    }

    #[test]
    fn trace_generation_validates_inputs() {
        let m = GopModel::mpeg2_default();
        let mut rng = StdRng::seed_from_u64(15);
        assert!(m.generate_trace(0.0, 1.0, &mut rng).is_err());
        assert!(m.generate_trace(10.0, 0.0, &mut rng).is_err());
        assert!(m.generate_trace(10.0, 0.001, &mut rng).is_err()); // < 1 frame
    }

    #[test]
    fn scene_tuning_changes_burstiness() {
        let mut rng = StdRng::seed_from_u64(21);
        let calm = GopModel::mpeg2_default()
            .with_scene(0.5, 0.1, 50.0)
            .unwrap()
            .generate_trace(2000.0, 1.0, &mut rng)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let wild = GopModel::mpeg2_default()
            .with_scene(0.99, 0.8, 500.0)
            .unwrap()
            .generate_trace(2000.0, 1.0, &mut rng)
            .unwrap();
        assert!(wild.variance() > 3.0 * calm.variance());
        assert!(wild.lag1_autocorrelation() > calm.lag1_autocorrelation());
        assert!(GopModel::mpeg2_default()
            .with_scene(1.0, 0.1, 10.0)
            .is_err());
        assert!(GopModel::mpeg2_default()
            .with_scene(0.5, -0.1, 10.0)
            .is_err());
        assert!(GopModel::mpeg2_default().with_scene(0.5, 0.1, 0.5).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let m = GopModel::mpeg2_default();
        let a = m.generate_frames(100, &mut StdRng::seed_from_u64(7));
        let b = m.generate_frames(100, &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
    }
}
