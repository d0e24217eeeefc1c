//! `O(n log n)` Pareto front via sort-and-scan — the served path.
//!
//! The paper notes that Algorithm 1 is "enough" and that "faster
//! algorithms with lower asymptotic complexity are available" (§3.4).
//! For two objectives the classic one is the maxima-of-a-set scan of
//! Kung, Luccio & Preparata (JACM 1975): sort by speedup descending and
//! keep a running minimum of energy. This version returns exactly
//! Algorithm 1's index list on every input, NaN, infinities and signed
//! zeros included, so [`crate::simple`] serves as its test oracle.

use crate::point::Objectives;
use std::cmp::Ordering;

/// Indices of the non-dominated points, ascending by index — the same
/// list as [`pareto_set_simple`](crate::pareto_set_simple).
///
/// A point with NaN in either objective never dominates and is never
/// dominated (every comparison with NaN is false), so it is always on
/// the front. The rest are sorted by speedup descending, then energy
/// ascending, with `partial_cmp`, which is total on them and equates
/// `-0.0` with `0.0` as [`Objectives::dominates`] does. Within a run
/// of equal speedups only the points at the run's least energy
/// survive, and only when that energy is below every faster point's.
pub fn pareto_set_fast(points: &[Objectives]) -> Vec<usize> {
    let mut front = Vec::new();
    let mut sorted = Vec::with_capacity(points.len());
    for (i, p) in points.iter().enumerate() {
        if p.speedup.is_nan() || p.energy.is_nan() {
            front.push(i);
        } else {
            sorted.push((p.speedup, p.energy, i));
        }
    }
    // A stable sort: it finds the runs a candidate list already has
    // (speedup rising with the core clock along each memory clock).
    let cmp = |a: f64, b: f64| a.partial_cmp(&b).unwrap_or(Ordering::Equal);
    sorted.sort_by(|a, b| cmp(b.0, a.0).then(cmp(a.1, b.1)));
    // The least energy of the points faster than the current run.
    let mut faster_energy: Option<f64> = None;
    for run in sorted.chunk_by(|a, b| a.0 == b.0) {
        let least = run[0].1;
        if faster_energy.is_none_or(|e| least < e) {
            front.extend(run.iter().take_while(|p| p.1 == least).map(|p| p.2));
            faster_energy = Some(least);
        }
    }
    front.sort_unstable();
    front
}

/// The non-dominated points themselves, ascending by original index.
pub fn pareto_front_fast(points: &[Objectives]) -> Vec<Objectives> {
    pareto_set_fast(points)
        .into_iter()
        .map(|i| points[i])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simple::pareto_set_simple;

    fn pts(v: &[(f64, f64)]) -> Vec<Objectives> {
        v.iter().map(|&(s, e)| Objectives::new(s, e)).collect()
    }

    fn assert_matches_simple(p: &[Objectives]) {
        assert_eq!(
            pareto_set_fast(p),
            pareto_set_simple(p),
            "fast and simple disagree on {p:?}"
        );
    }

    #[test]
    fn agrees_with_simple_on_basic_cases() {
        assert_matches_simple(&pts(&[(1.0, 1.0), (1.2, 0.8), (0.9, 0.9), (1.1, 0.9)]));
        assert_matches_simple(&pts(&[(0.6, 0.6), (0.8, 0.7), (1.0, 0.85), (1.2, 1.1)]));
        assert_matches_simple(&pts(&[]));
        assert_matches_simple(&pts(&[(1.0, 1.0)]));
    }

    #[test]
    fn handles_speedup_ties() {
        // Same speedup, different energies: only the cheapest survives.
        let p = pts(&[(1.0, 1.0), (1.0, 0.8), (1.0, 1.2)]);
        assert_eq!(pareto_set_fast(&p), vec![1]);
        assert_matches_simple(&p);
    }

    #[test]
    fn keeps_exact_duplicates() {
        let p = pts(&[(1.0, 0.9), (1.0, 0.9), (0.5, 1.5)]);
        assert_eq!(pareto_set_fast(&p), vec![0, 1]);
        assert_matches_simple(&p);
    }

    #[test]
    fn equal_energy_faster_point_wins() {
        let p = pts(&[(1.0, 0.8), (1.2, 0.8)]);
        assert_eq!(pareto_set_fast(&p), vec![1]);
        assert_matches_simple(&p);
    }

    #[test]
    fn nan_points_are_always_on_the_front() {
        let nan = f64::NAN;
        let p = pts(&[
            (1.0, 1.0),
            (nan, 0.5),
            (1.2, 0.8),
            (0.5, nan),
            (nan, nan),
            (0.9, 0.9),
        ]);
        assert_eq!(pareto_set_fast(&p), vec![1, 2, 3, 4]);
        assert_matches_simple(&p);
        assert_matches_simple(&pts(&[(nan, nan)]));
        assert_matches_simple(&pts(&[(nan, 1.0), (nan, 1.0), (1.0, 1.0)]));
    }

    #[test]
    fn infinities_match_simple() {
        let (inf, ninf) = (f64::INFINITY, f64::NEG_INFINITY);
        // A lone point, or the fastest one, at infinite energy is on
        // the front; a slower point at infinite energy is not.
        let p = pts(&[(1.0, inf), (0.5, inf)]);
        assert_eq!(pareto_set_fast(&p), vec![0]);
        assert_matches_simple(&p);
        assert_matches_simple(&pts(&[(inf, inf), (inf, 1.0), (ninf, ninf), (1.0, ninf)]));
        assert_matches_simple(&pts(&[(ninf, 0.5), (ninf, 0.5), (0.0, inf), (inf, inf)]));
        assert_matches_simple(&pts(&[(inf, ninf), (inf, ninf), (1.0, 1.0)]));
    }

    #[test]
    fn signed_zero_speedups_tie() {
        // `dominates` equates -0.0 with 0.0: one run, least energy wins.
        let p = pts(&[(-0.0, 1.0), (0.0, 0.5), (-0.0, 0.5), (0.0, 2.0)]);
        assert_eq!(pareto_set_fast(&p), vec![1, 2]);
        assert_matches_simple(&p);
        let q = pts(&[(0.0, 0.5), (-0.0, 0.25), (-1.0, -0.0), (-1.0, 0.0)]);
        assert_matches_simple(&q);
    }

    #[test]
    fn exact_duplicates_all_survive_in_index_order() {
        let p = pts(&[
            (1.0, 0.9),
            (0.5, 1.5),
            (1.0, 0.9),
            (2.0, 3.0),
            (1.0, 0.9),
            (2.0, 3.0),
        ]);
        assert_eq!(pareto_set_fast(&p), vec![0, 2, 3, 4, 5]);
        assert_matches_simple(&p);
    }

    #[test]
    fn pseudo_random_agreement() {
        // Deterministic LCG grid — no external RNG needed.
        let mut state: u64 = 0x2545F4914F6CDD1D;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        for trial in 0..50 {
            let n = 3 + (trial % 40);
            let p: Vec<Objectives> = (0..n)
                .map(|_| Objectives::new(0.2 + 1.3 * next(), 0.4 + 1.4 * next()))
                .collect();
            assert_matches_simple(&p);
        }
    }
}
