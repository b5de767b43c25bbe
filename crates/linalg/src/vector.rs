use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

use crate::LinalgError;

/// A dense, heap-allocated vector of `f64` values.
///
/// `Vector` is the common currency between the ODE solvers, the kinetic
/// models and the optimizers. It supports element-wise arithmetic, dot
/// products and the norms used by convergence tests.
///
/// # Example
///
/// ```
/// use pathway_linalg::Vector;
///
/// let a = Vector::from(vec![1.0, 2.0, 3.0]);
/// let b = Vector::from(vec![4.0, 5.0, 6.0]);
/// assert_eq!(a.dot(&b).unwrap(), 32.0);
/// assert_eq!((&a + &b)[0], 5.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Vector {
    data: Vec<f64>,
}

impl Vector {
    /// Creates a vector of `len` zeros.
    pub fn zeros(len: usize) -> Self {
        Vector {
            data: vec![0.0; len],
        }
    }

    /// Creates a vector of `len` copies of `value`.
    pub fn filled(len: usize, value: f64) -> Self {
        Vector {
            data: vec![value; len],
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying slice.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the vector and returns the underlying `Vec<f64>`.
    pub fn into_inner(self) -> Vec<f64> {
        self.data
    }

    /// Iterator over the elements.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.data.iter()
    }

    /// Mutable iterator over the elements.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, f64> {
        self.data.iter_mut()
    }

    /// Dot product with another vector.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the lengths differ.
    pub fn dot(&self, other: &Vector) -> crate::Result<f64> {
        if self.len() != other.len() {
            return Err(LinalgError::DimensionMismatch {
                expected: format!("len {}", self.len()),
                found: format!("len {}", other.len()),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a * b)
            .sum())
    }

    /// Euclidean (L2) norm.
    pub fn norm2(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Maximum absolute value (L-infinity norm). Returns `0.0` for an empty
    /// vector.
    pub fn norm_inf(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |acc, v| acc.max(v.abs()))
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Element-wise scaling in place.
    fn scale_mut(&mut self, factor: f64) {
        for v in &mut self.data {
            *v *= factor;
        }
    }

    /// Returns a new vector scaled by `factor`.
    pub fn scaled(&self, factor: f64) -> Vector {
        let mut out = self.clone();
        out.scale_mut(factor);
        out
    }

    /// In-place `self += factor * other`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the lengths differ.
    pub fn axpy_mut(&mut self, factor: f64, other: &Vector) -> crate::Result<()> {
        if self.len() != other.len() {
            return Err(LinalgError::DimensionMismatch {
                expected: format!("len {}", self.len()),
                found: format!("len {}", other.len()),
            });
        }
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += factor * b;
        }
        Ok(())
    }

    /// Element-wise clamp to `[min, max]`, in place. Useful for keeping
    /// concentrations non-negative during integration.
    pub fn clamp_mut(&mut self, min: f64, max: f64) {
        for v in &mut self.data {
            *v = v.clamp(min, max);
        }
    }

    /// Returns `true` if every element is finite (not NaN and not infinite).
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Largest element, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        self.data.iter().copied().fold(None, |acc, v| match acc {
            None => Some(v),
            Some(m) => Some(m.max(v)),
        })
    }

    /// Smallest element, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        self.data.iter().copied().fold(None, |acc, v| match acc {
            None => Some(v),
            Some(m) => Some(m.min(v)),
        })
    }
}

impl From<Vec<f64>> for Vector {
    fn from(data: Vec<f64>) -> Self {
        Vector { data }
    }
}

impl From<&[f64]> for Vector {
    fn from(data: &[f64]) -> Self {
        Vector {
            data: data.to_vec(),
        }
    }
}

impl FromIterator<f64> for Vector {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        Vector {
            data: iter.into_iter().collect(),
        }
    }
}

impl AsRef<[f64]> for Vector {
    fn as_ref(&self) -> &[f64] {
        &self.data
    }
}

impl Index<usize> for Vector {
    type Output = f64;

    fn index(&self, index: usize) -> &f64 {
        &self.data[index]
    }
}

impl IndexMut<usize> for Vector {
    fn index_mut(&mut self, index: usize) -> &mut f64 {
        &mut self.data[index]
    }
}

impl fmt::Display for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.data.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.6}")?;
        }
        write!(f, "]")
    }
}

macro_rules! impl_elementwise_op {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait<&Vector> for &Vector {
            type Output = Vector;

            fn $method(self, rhs: &Vector) -> Vector {
                assert_eq!(
                    self.len(),
                    rhs.len(),
                    "vector length mismatch: {} vs {}",
                    self.len(),
                    rhs.len()
                );
                Vector::from(
                    self.data
                        .iter()
                        .zip(rhs.data.iter())
                        .map(|(a, b)| a $op b)
                        .collect::<Vec<_>>(),
                )
            }
        }

        impl $trait<Vector> for Vector {
            type Output = Vector;

            fn $method(self, rhs: Vector) -> Vector {
                (&self).$method(&rhs)
            }
        }

        impl $trait<&Vector> for Vector {
            type Output = Vector;

            fn $method(self, rhs: &Vector) -> Vector {
                (&self).$method(rhs)
            }
        }
    };
}

impl_elementwise_op!(Add, add, +);
impl_elementwise_op!(Sub, sub, -);

impl AddAssign<&Vector> for Vector {
    fn add_assign(&mut self, rhs: &Vector) {
        assert_eq!(self.len(), rhs.len(), "vector length mismatch");
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b;
        }
    }
}

impl SubAssign<&Vector> for Vector {
    fn sub_assign(&mut self, rhs: &Vector) {
        assert_eq!(self.len(), rhs.len(), "vector length mismatch");
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a -= b;
        }
    }
}

impl Mul<f64> for &Vector {
    type Output = Vector;

    fn mul(self, rhs: f64) -> Vector {
        self.scaled(rhs)
    }
}

impl Mul<f64> for Vector {
    type Output = Vector;

    fn mul(self, rhs: f64) -> Vector {
        self.scaled(rhs)
    }
}

impl Neg for &Vector {
    type Output = Vector;

    fn neg(self) -> Vector {
        self.scaled(-1.0)
    }
}

impl Neg for Vector {
    type Output = Vector;

    fn neg(self) -> Vector {
        self.scaled(-1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zeros_and_filled() {
        let z = Vector::zeros(4);
        assert_eq!(z.len(), 4);
        assert!(z.iter().all(|&v| v == 0.0));
        let f = Vector::filled(3, 2.5);
        assert_eq!(f.as_slice(), &[2.5, 2.5, 2.5]);
    }

    #[test]
    fn dot_product_matches_hand_computation() {
        let a = Vector::from(vec![1.0, 2.0, 3.0]);
        let b = Vector::from(vec![4.0, 5.0, 6.0]);
        assert_eq!(a.dot(&b).unwrap(), 32.0);
    }

    #[test]
    fn dot_product_length_mismatch_errors() {
        let a = Vector::zeros(2);
        let b = Vector::zeros(3);
        assert!(matches!(
            a.dot(&b),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn norms() {
        let v = Vector::from(vec![3.0, -4.0]);
        assert!((v.norm2() - 5.0).abs() < 1e-15);
        assert_eq!(v.norm_inf(), 4.0);
    }

    #[test]
    fn axpy_mut_adds_a_scaled_vector_in_place() {
        let mut a = Vector::from(vec![1.0, 2.0]);
        let b = Vector::from(vec![10.0, 20.0]);
        a.axpy_mut(0.5, &b).unwrap();
        assert_eq!(a.as_slice(), &[6.0, 12.0]);
    }

    #[test]
    fn elementwise_add_sub_and_scale() {
        let a = Vector::from(vec![1.0, 2.0]);
        let b = Vector::from(vec![3.0, 5.0]);
        assert_eq!((&a + &b).as_slice(), &[4.0, 7.0]);
        assert_eq!((&b - &a).as_slice(), &[2.0, 3.0]);
        assert_eq!((&a * 2.0).as_slice(), &[2.0, 4.0]);
        assert_eq!((-&a).as_slice(), &[-1.0, -2.0]);
    }

    #[test]
    fn clamp_keeps_values_in_range() {
        let mut v = Vector::from(vec![-1.0, 0.5, 9.0]);
        v.clamp_mut(0.0, 1.0);
        assert_eq!(v.as_slice(), &[0.0, 0.5, 1.0]);
    }

    #[test]
    fn min_max_and_empty() {
        let v = Vector::from(vec![2.0, -3.0, 7.0]);
        assert_eq!(v.max(), Some(7.0));
        assert_eq!(v.min(), Some(-3.0));
        let e = Vector::zeros(0);
        assert!(e.is_empty());
        assert_eq!(e.max(), None);
        assert_eq!(e.min(), None);
    }

    #[test]
    fn is_finite_detects_nan_and_inf() {
        assert!(Vector::from(vec![1.0, 2.0]).is_finite());
        assert!(!Vector::from(vec![1.0, f64::NAN]).is_finite());
        assert!(!Vector::from(vec![f64::INFINITY]).is_finite());
    }

    #[test]
    fn display_is_nonempty() {
        let v = Vector::from(vec![1.0, 2.0]);
        let s = format!("{v}");
        assert!(s.starts_with('[') && s.ends_with(']'));
        assert!(s.contains("1.0"));
    }

    #[test]
    fn from_iterator_collects() {
        let v: Vector = (0..4).map(|i| i as f64).collect();
        assert_eq!(v.as_slice(), &[0.0, 1.0, 2.0, 3.0]);
    }

    proptest! {
        #[test]
        fn prop_dot_is_commutative(xs in proptest::collection::vec(-1e3_f64..1e3, 1..32)) {
            let a = Vector::from(xs.clone());
            let b: Vector = xs.iter().map(|v| v * 0.5 + 1.0).collect();
            let ab = a.dot(&b).unwrap();
            let ba = b.dot(&a).unwrap();
            prop_assert!((ab - ba).abs() <= 1e-9 * ab.abs().max(1.0));
        }

        #[test]
        fn prop_triangle_inequality(xs in proptest::collection::vec(-1e3_f64..1e3, 1..32)) {
            let a = Vector::from(xs.clone());
            let b: Vector = xs.iter().map(|v| v - 2.0).collect();
            let lhs = (&a + &b).norm2();
            prop_assert!(lhs <= a.norm2() + b.norm2() + 1e-9);
        }

        #[test]
        fn prop_scaling_scales_norm(xs in proptest::collection::vec(-1e3_f64..1e3, 1..32), k in -10.0_f64..10.0) {
            let a = Vector::from(xs);
            let scaled = a.scaled(k);
            prop_assert!((scaled.norm2() - k.abs() * a.norm2()).abs() <= 1e-6 * (1.0 + a.norm2()));
        }
    }
}
