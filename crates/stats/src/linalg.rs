//! Small dense linear algebra for the GLM normal equations.
//!
//! Design matrices here have 2–4 columns, so a plain partial-pivoting
//! Gauss–Jordan on `p × p` systems is the right tool.

/// A dense row-major `p × p` matrix with solve/invert, sized for normal
/// equations (not a general-purpose linear algebra type).
#[derive(Debug, Clone, PartialEq)]
pub struct SmallMatrix {
    n: usize,
    a: Vec<f64>,
}

impl SmallMatrix {
    /// Zero matrix of side `n`.
    pub fn zeros(n: usize) -> Self {
        Self {
            n,
            a: vec![0.0; n * n],
        }
    }

    /// Side length.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Read element `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.a[i * self.n + j]
    }

    /// Write element `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.a[i * self.n + j] = v;
    }

    /// Add to element `(i, j)`.
    #[inline]
    pub fn add(&mut self, i: usize, j: usize, v: f64) {
        self.a[i * self.n + j] += v;
    }

    /// Solve `A x = b` by Gauss–Jordan with partial pivoting.
    /// Returns `None` when the system is (numerically) singular.
    pub fn solve(&self, b: &[f64]) -> Option<Vec<f64>> {
        assert_eq!(b.len(), self.n);
        let n = self.n;
        let mut m = self.a.clone();
        let mut x = b.to_vec();
        for col in 0..n {
            // Pivot.
            let pivot = (col..n).max_by(|&i, &j| {
                m[i * n + col]
                    .abs()
                    .partial_cmp(&m[j * n + col].abs())
                    .expect("finite")
            })?;
            if m[pivot * n + col].abs() < 1e-12 {
                return None;
            }
            if pivot != col {
                for j in 0..n {
                    m.swap(col * n + j, pivot * n + j);
                }
                x.swap(col, pivot);
            }
            let d = m[col * n + col];
            for j in 0..n {
                m[col * n + j] /= d;
            }
            x[col] /= d;
            for i in 0..n {
                if i != col {
                    let f = m[i * n + col];
                    if f != 0.0 {
                        for j in 0..n {
                            m[i * n + j] -= f * m[col * n + j];
                        }
                        x[i] -= f * x[col];
                    }
                }
            }
        }
        Some(x)
    }

    /// Matrix inverse (column-by-column solve); `None` when singular.
    #[allow(clippy::needless_range_loop)]
    pub fn inverse(&self) -> Option<SmallMatrix> {
        let n = self.n;
        let mut inv = SmallMatrix::zeros(n);
        for j in 0..n {
            let mut e = vec![0.0; n];
            e[j] = 1.0;
            let col = self.solve(&e)?;
            for i in 0..n {
                inv.set(i, j, col[i]);
            }
        }
        Some(inv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(n: usize, vals: &[f64]) -> SmallMatrix {
        let mut m = SmallMatrix::zeros(n);
        for i in 0..n {
            for j in 0..n {
                m.set(i, j, vals[i * n + j]);
            }
        }
        m
    }

    #[test]
    fn solves_2x2() {
        let m = mat(2, &[2.0, 1.0, 1.0, 3.0]);
        let x = m.solve(&[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solves_3x3_with_pivoting() {
        // First pivot is zero → requires row swap.
        let m = mat(3, &[0.0, 1.0, 2.0, 1.0, 0.0, 1.0, 2.0, 1.0, 0.0]);
        let b = [5.0, 2.0, 1.0];
        let x = m.solve(&b).unwrap();
        // Verify Ax = b.
        for (i, &bi) in b.iter().enumerate() {
            let s: f64 = (0..3).map(|j| m.get(i, j) * x[j]).sum();
            assert!((s - bi).abs() < 1e-10);
        }
    }

    #[test]
    fn singular_returns_none() {
        let m = mat(2, &[1.0, 2.0, 2.0, 4.0]);
        assert!(m.solve(&[1.0, 2.0]).is_none());
        assert!(m.inverse().is_none());
    }

    #[test]
    fn inverse_roundtrip() {
        let m = mat(3, &[4.0, 2.0, 1.0, 2.0, 5.0, 3.0, 1.0, 3.0, 6.0]);
        let inv = m.inverse().unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let s: f64 = (0..3).map(|k| m.get(i, k) * inv.get(k, j)).sum();
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((s - expect).abs() < 1e-10);
            }
        }
    }
}
