//! Min-max feature scaling.
//!
//! §3.2 requires every feature to be mapped into `[0, 1]` so each
//! contributes proportionately to the kernel functions. The scaler is
//! fit on the training set and applied unchanged to new codes — test
//! features may therefore fall slightly outside `[0, 1]`, which is
//! correct behaviour (clamping would distort the geometry).

use serde::{Deserialize, Serialize};

/// Per-dimension min-max scaler: `x' = (x - lo) / (hi - lo)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MinMaxScaler {
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl MinMaxScaler {
    /// Fit the scaler on `rows`.
    ///
    /// Constant dimensions (`hi == lo`) are passed through unscaled so
    /// they stay finite.
    ///
    /// # Panics
    /// If `rows` is empty or rows have inconsistent widths.
    pub fn fit(rows: &[Vec<f64>]) -> MinMaxScaler {
        let d = rows.first().expect("cannot fit a scaler on no rows").len();
        let mut lo = vec![f64::INFINITY; d];
        let mut hi = vec![f64::NEG_INFINITY; d];
        for r in rows {
            assert_eq!(r.len(), d, "inconsistent row widths");
            for (j, &v) in r.iter().enumerate() {
                lo[j] = lo[j].min(v);
                hi[j] = hi[j].max(v);
            }
        }
        MinMaxScaler { lo, hi }
    }

    /// Identity scaler of width `d` (useful as a neutral default).
    pub fn identity(d: usize) -> MinMaxScaler {
        MinMaxScaler {
            lo: vec![0.0; d],
            hi: vec![1.0; d],
        }
    }

    /// Feature width this scaler was fit on.
    pub fn dims(&self) -> usize {
        self.lo.len()
    }

    /// Scale one row.
    pub fn transform(&self, row: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; row.len()];
        self.transform_into(row, &mut out);
        out
    }

    /// Scale one row into a caller-owned buffer — the allocation-free
    /// twin of [`MinMaxScaler::transform`], bit-identical to it (same
    /// per-dimension expression, including the constant-dimension
    /// passthrough). Hot scoring paths reuse one stack buffer per
    /// candidate instead of allocating a `Vec` per transform.
    ///
    /// # Panics
    /// If `row` or `out` width differs from [`MinMaxScaler::dims`].
    pub fn transform_into(&self, row: &[f64], out: &mut [f64]) {
        assert_eq!(row.len(), self.dims());
        assert_eq!(out.len(), self.dims());
        for (j, (&v, slot)) in row.iter().zip(out.iter_mut()).enumerate() {
            let range = self.hi[j] - self.lo[j];
            *slot = if range == 0.0 {
                v
            } else {
                (v - self.lo[j]) / range
            };
        }
    }

    /// The linear part of [`MinMaxScaler::transform`], in place: a raw
    /// displacement `d` becomes `d / (hi − lo)` per dimension (constant
    /// dimensions pass through, as in `transform`), so
    /// `transform(x + t·d) = transform(x) + t·d'` up to rounding — a
    /// line in raw feature space is a line after scaling.
    ///
    /// # Panics
    /// If `dir` width differs from [`MinMaxScaler::dims`].
    pub fn scale_direction(&self, dir: &mut [f64]) {
        assert_eq!(dir.len(), self.dims());
        for (j, v) in dir.iter_mut().enumerate() {
            let range = self.hi[j] - self.lo[j];
            if range != 0.0 {
                *v /= range;
            }
        }
    }

    /// Invert [`MinMaxScaler::transform`].
    pub fn inverse(&self, row: &[f64]) -> Vec<f64> {
        assert_eq!(row.len(), self.dims());
        row.iter()
            .enumerate()
            .map(|(j, &v)| {
                let range = self.hi[j] - self.lo[j];
                if range == 0.0 {
                    v
                } else {
                    v * range + self.lo[j]
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_training_data_to_unit_cube() {
        let rows = vec![vec![0.0, 10.0], vec![5.0, 20.0], vec![10.0, 15.0]];
        let s = MinMaxScaler::fit(&rows);
        for r in &rows {
            for v in s.transform(r) {
                assert!((0.0..=1.0).contains(&v));
            }
        }
        assert_eq!(s.transform(&rows[0]), vec![0.0, 0.0]);
        assert_eq!(s.transform(&[10.0, 20.0]), vec![1.0, 1.0]);
    }

    #[test]
    fn out_of_range_test_data_extrapolates() {
        let s = MinMaxScaler::fit(&[vec![0.0], vec![10.0]]);
        assert_eq!(s.transform(&[20.0]), vec![2.0]);
        assert_eq!(s.transform(&[-10.0]), vec![-1.0]);
    }

    #[test]
    fn constant_dimension_passthrough() {
        let s = MinMaxScaler::fit(&[vec![7.0, 1.0], vec![7.0, 2.0]]);
        let t = s.transform(&[7.0, 1.5]);
        assert_eq!(t[0], 7.0);
        assert_eq!(t[1], 0.5);
    }

    #[test]
    fn inverse_round_trips() {
        let rows = vec![
            vec![1.0, -3.0, 8.0],
            vec![4.0, 5.0, -2.0],
            vec![0.5, 0.0, 3.0],
        ];
        let s = MinMaxScaler::fit(&rows);
        for r in &rows {
            let back = s.inverse(&s.transform(r));
            for (a, b) in r.iter().zip(back) {
                assert!((a - b).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn scaled_direction_maps_lines_to_lines() {
        let s = MinMaxScaler::fit(&[vec![1.0, 5.0, 2.0], vec![3.0, 5.0, 10.0]]);
        let (x, mut d) = ([2.0, 5.0, 4.0], [1.0, -2.0, 0.5]);
        let moved = s.transform(&[2.0 + 3.0, 5.0 - 6.0, 4.0 + 1.5]);
        let origin = s.transform(&x);
        s.scale_direction(&mut d);
        for ((m, o), d) in moved.iter().zip(&origin).zip(&d) {
            assert!((m - (o + 3.0 * d)).abs() < 1e-12, "{m} vs {o} + 3·{d}");
        }
    }

    #[test]
    fn identity_is_noop() {
        let s = MinMaxScaler::identity(2);
        assert_eq!(s.transform(&[3.0, 4.0]), vec![3.0, 4.0]);
    }

    #[test]
    #[should_panic]
    fn wrong_width_panics() {
        let s = MinMaxScaler::fit(&[vec![1.0, 2.0]]);
        s.transform(&[1.0]);
    }
}
