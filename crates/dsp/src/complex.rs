//! A minimal complex-number type.
//!
//! The FFT code only needs addition, subtraction, multiplication, conjugation
//! and magnitude, so rather than pulling in an external crate we define a tiny
//! `Copy` struct here.  It is `#[repr(C)]` so slices of it can be reinterpreted
//! cheaply if ever needed.

use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` real and imaginary parts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The additive identity.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit.
    pub const I: Complex = Complex { re: 0.0, im: 1.0 };

    /// Create a complex number from its real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Create a purely real complex number.
    #[inline]
    pub const fn from_real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// `e^{iθ}`: the unit-magnitude complex number at angle `theta` radians.
    #[inline]
    pub fn from_polar_unit(theta: f64) -> Self {
        Complex {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared magnitude `re² + im²`.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `|z|`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Multiply by a real scalar.
    #[inline]
    pub fn scale(self, s: f64) -> Self {
        Complex {
            re: self.re * s,
            im: self.im * s,
        }
    }

    /// Returns true if either component is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: f64) -> Complex {
        self.scale(rhs)
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: f64) -> Complex {
        Complex::new(self.re / rhs, self.im / rhs)
    }
}

impl Div for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: Complex) -> Complex {
        let d = rhs.norm_sqr();
        Complex::new(
            (self.re * rhs.re + self.im * rhs.im) / d,
            (self.im * rhs.re - self.re * rhs.im) / d,
        )
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl From<f64> for Complex {
    #[inline]
    fn from(re: f64) -> Self {
        Complex::from_real(re)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn arithmetic_identities() {
        let z = Complex::new(3.0, -4.0);
        assert_eq!(z + Complex::ZERO, z);
        assert_eq!(z * Complex::ONE, z);
        assert_eq!(z - z, Complex::ZERO);
        assert!(close(z.abs(), 5.0));
        assert!(close(z.norm_sqr(), 25.0));
    }

    #[test]
    fn multiplication_matches_manual_expansion() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(-3.0, 0.5);
        let p = a * b;
        assert!(close(p.re, 1.0 * -3.0 - 2.0 * 0.5));
        assert!(close(p.im, 1.0 * 0.5 + 2.0 * -3.0));
    }

    #[test]
    fn i_squared_is_minus_one() {
        let p = Complex::I * Complex::I;
        assert!(close(p.re, -1.0));
        assert!(close(p.im, 0.0));
    }

    #[test]
    fn conjugate_negates_imaginary() {
        let z = Complex::new(2.5, 7.0);
        assert_eq!(z.conj(), Complex::new(2.5, -7.0));
        // z * conj(z) = |z|^2
        let p = z * z.conj();
        assert!(close(p.re, z.norm_sqr()));
        assert!(close(p.im, 0.0));
    }

    #[test]
    fn polar_round_trip() {
        let z = Complex::from_polar_unit(std::f64::consts::FRAC_PI_3) * 2.0;
        assert!(close(z.abs(), 2.0));
        assert!(close(z.im.atan2(z.re), std::f64::consts::FRAC_PI_3));
    }

    #[test]
    fn division_inverts_multiplication() {
        let a = Complex::new(1.5, -2.5);
        let b = Complex::new(0.5, 3.0);
        let q = (a * b) / b;
        assert!(close(q.re, a.re));
        assert!(close(q.im, a.im));
    }

    #[test]
    fn unit_polar_lies_on_unit_circle() {
        for k in 0..16 {
            let theta = k as f64 * std::f64::consts::PI / 8.0;
            let z = Complex::from_polar_unit(theta);
            assert!(close(z.abs(), 1.0));
        }
    }
}
