//! Kernel functions for support vector regression.

use serde::{Deserialize, Serialize};

/// A positive-definite kernel `K(a, b)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SvmKernel {
    /// `K(a, b) = a · b` — used for the paper's speedup model (§3.4).
    Linear,
    /// `K(a, b) = exp(-γ ‖a − b‖²)` — used for the paper's normalized
    /// energy model with `γ = 0.1` (§3.4).
    Rbf {
        /// Width parameter γ.
        gamma: f64,
    },
}

impl SvmKernel {
    /// Evaluate the kernel on two rows of equal width.
    pub fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        match *self {
            SvmKernel::Linear => a.iter().zip(b).map(|(x, y)| x * y).sum(),
            SvmKernel::Rbf { gamma } => {
                let d2: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
                (-gamma * d2).exp()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_is_dot_product() {
        let k = SvmKernel::Linear;
        assert_eq!(k.eval(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    #[test]
    fn rbf_is_one_at_identity_and_decays() {
        let k = SvmKernel::Rbf { gamma: 0.1 };
        assert!((k.eval(&[1.0, 2.0], &[1.0, 2.0]) - 1.0).abs() < 1e-15);
        let near = k.eval(&[0.0, 0.0], &[0.1, 0.0]);
        let far = k.eval(&[0.0, 0.0], &[3.0, 0.0]);
        assert!(near > far);
        assert!(far > 0.0);
    }

    #[test]
    fn rbf_is_symmetric() {
        let k = SvmKernel::Rbf { gamma: 0.5 };
        let (a, b) = ([0.2, 0.9, -1.0], [1.0, 0.0, 0.5]);
        assert_eq!(k.eval(&a, &b), k.eval(&b, &a));
    }
}
