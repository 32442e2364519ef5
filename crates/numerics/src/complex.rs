//! Minimal complex arithmetic (`f64` re/im) — enough for characteristic
//! functions and their inversion. The standard library has no complex
//! type and the sanctioned crate set has no `num-complex`, so the small
//! amount needed lives here.

use std::ops::{Add, Div, Mul, Neg, Sub};

/// A complex number with `f64` parts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// 0 + 0i.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// 1 + 0i.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// 0 + 1i.
    pub const I: Complex = Complex { re: 0.0, im: 1.0 };

    /// Construct from parts.
    #[must_use]
    pub fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Construct from polar form `r·e^{iθ}`.
    #[must_use]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Self {
            re: r * theta.cos(),
            im: r * theta.sin(),
        }
    }

    /// Modulus `|z|` (hypot — no overflow).
    #[must_use]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Argument `arg z ∈ (−π, π]`.
    #[must_use]
    fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// `e^z`.
    #[must_use]
    pub fn exp(self) -> Self {
        Self::from_polar(self.re.exp(), self.im)
    }

    /// Principal `ln z`.
    #[must_use]
    pub fn ln(self) -> Self {
        Self {
            re: self.abs().ln(),
            im: self.arg(),
        }
    }

    /// `z^p` for real `p` (principal branch).
    #[must_use]
    pub fn powf(self, p: f64) -> Self {
        if self == Self::ZERO {
            return if p == 0.0 { Self::ONE } else { Self::ZERO };
        }
        (self.ln() * Complex::new(p, 0.0)).exp()
    }

    /// Reciprocal `1/z`.
    #[must_use]
    fn recip(self) -> Self {
        let d = self.re * self.re + self.im * self.im;
        Self {
            re: self.re / d,
            im: -self.im / d,
        }
    }

    /// Whether both parts are finite.
    #[must_use]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Complex {
    type Output = Complex;
    // Division by multiplying with the reciprocal — intentional, not a
    // copy-paste slip.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Complex) -> Complex {
        self * rhs.recip()
    }
}

impl Neg for Complex {
    type Output = Complex;
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    fn mul(self, rhs: f64) -> Complex {
        Complex::new(self.re * rhs, self.im * rhs)
    }
}

impl From<f64> for Complex {
    fn from(x: f64) -> Self {
        Complex::new(x, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex, b: Complex, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn field_arithmetic() {
        let a = Complex::new(3.0, -2.0);
        let b = Complex::new(-1.0, 4.0);
        assert_eq!(a + b, Complex::new(2.0, 2.0));
        assert_eq!(a - b, Complex::new(4.0, -6.0));
        assert_eq!(a * b, Complex::new(5.0, 14.0));
        assert!(close(a / b * b, a, 1e-14));
        assert_eq!(-a, Complex::new(-3.0, 2.0));
        assert_eq!(a * 2.0, Complex::new(6.0, -4.0));
        assert_eq!(Complex::from(2.5), Complex::new(2.5, 0.0));
    }

    #[test]
    fn euler_identity() {
        // e^{iπ} = −1
        let z = (Complex::I * std::f64::consts::PI).exp();
        assert!(close(z, Complex::new(-1.0, 0.0), 1e-14));
    }

    #[test]
    fn exp_ln_round_trip() {
        for &(re, im) in &[(0.5, 1.2), (-2.0, 3.0), (4.0, -0.7)] {
            let z = Complex::new(re, im);
            assert!(close(z.ln().exp(), z, 1e-12 * z.abs()));
        }
    }

    #[test]
    fn powers_match_repeated_multiplication() {
        let z = Complex::new(1.2, -0.8);
        let p3 = z.powf(3.0);
        let m3 = z * z * z;
        assert!(close(p3, m3, 1e-12 * m3.abs()));
        assert_eq!(Complex::ZERO.powf(2.0), Complex::ZERO);
        assert_eq!(Complex::ZERO.powf(0.0), Complex::ONE);
    }

    #[test]
    fn polar_round_trip() {
        let z = Complex::from_polar(2.5, 0.7);
        assert!((z.abs() - 2.5).abs() < 1e-14);
        assert!((z.arg() - 0.7).abs() < 1e-14);
    }

    #[test]
    fn recip_and_finiteness() {
        let z = Complex::new(3.0, 4.0);
        assert!(close(z.recip() * z, Complex::ONE, 1e-14));
        assert!(z.is_finite());
        assert!(!Complex::new(f64::NAN, 0.0).is_finite());
    }
}
