//! The paper's Algorithm 1: simple Pareto-set calculation.
//!
//! A direct transcription of the pseudo-code in §3.4 — repeatedly pop a
//! candidate, compare it against the remaining points, and either
//! discard it as dominated or emit it into the front. Quadratic in the
//! worst case, which the paper notes is "enough to process all the
//! kernel executions associated with a new input kernel". Prediction
//! serves the `O(n log n)` [`crate::fast`] instead, which returns the
//! same index list; this transcription stays as its test oracle, as the
//! evaluation's front, and as the serving benchmark's reference for the
//! Pareto layer.

use crate::point::Objectives;

/// Indices of the non-dominated points of `points`, in input order
/// (the paper's Algorithm 1).
///
/// Duplicate coordinates are all kept: equal points do not dominate
/// each other under the paper's strict definition.
pub fn pareto_set_simple(points: &[Objectives]) -> Vec<usize> {
    let mut front: Vec<usize> = Vec::new();
    let mut dominated = vec![false; points.len()];
    // `Predictions` is the work list; popping from the front mirrors the
    // algorithm's `pop()`.
    for candidate in 0..points.len() {
        if dominated[candidate] {
            continue;
        }
        let mut candidate_dominated = false;
        for other in 0..points.len() {
            if other == candidate || dominated[other] {
                continue;
            }
            if points[other].dominates(&points[candidate]) {
                candidate_dominated = true;
                break;
            }
            if points[candidate].dominates(&points[other]) {
                dominated[other] = true;
            }
        }
        if candidate_dominated {
            dominated[candidate] = true;
        } else {
            front.push(candidate);
        }
    }
    front
}

/// The non-dominated points themselves, in input order.
pub fn pareto_front_simple(points: &[Objectives]) -> Vec<Objectives> {
    pareto_set_simple(points)
        .into_iter()
        .map(|i| points[i])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(v: &[(f64, f64)]) -> Vec<Objectives> {
        v.iter().map(|&(s, e)| Objectives::new(s, e)).collect()
    }

    #[test]
    fn single_point_is_its_own_front() {
        let p = pts(&[(1.0, 1.0)]);
        assert_eq!(pareto_set_simple(&p), vec![0]);
    }

    #[test]
    fn dominated_points_are_removed() {
        // (1.2, 0.8) dominates everything else.
        let p = pts(&[(1.0, 1.0), (1.2, 0.8), (0.9, 0.9), (1.1, 0.9)]);
        assert_eq!(pareto_set_simple(&p), vec![1]);
    }

    #[test]
    fn chain_of_trade_offs_all_survive() {
        let p = pts(&[(0.6, 0.6), (0.8, 0.7), (1.0, 0.85), (1.2, 1.1)]);
        assert_eq!(pareto_set_simple(&p), vec![0, 1, 2, 3]);
    }

    #[test]
    fn mixed_case() {
        let p = pts(&[
            (1.0, 1.0),   // dominated by 3
            (0.5, 0.4),   // front (cheapest)
            (1.3, 1.5),   // front (fastest)
            (1.1, 0.9),   // front
            (1.05, 0.95), // dominated by 3
        ]);
        assert_eq!(pareto_set_simple(&p), vec![1, 2, 3]);
    }

    #[test]
    fn duplicates_are_kept() {
        let p = pts(&[(1.0, 1.0), (1.0, 1.0), (0.5, 1.5)]);
        assert_eq!(pareto_set_simple(&p), vec![0, 1]);
    }

    #[test]
    fn empty_input() {
        assert!(pareto_set_simple(&[]).is_empty());
    }

    #[test]
    fn front_is_mutually_non_dominating() {
        let p = pts(&[
            (0.62, 1.8),
            (1.12, 1.4),
            (0.9, 0.8),
            (1.0, 1.0),
            (1.12, 0.95),
            (0.7, 0.75),
            (0.99, 1.01),
        ]);
        let front = pareto_front_simple(&p);
        for a in &front {
            for b in &front {
                assert!(!a.dominates(b), "{a:?} dominates {b:?} inside the front");
            }
        }
        assert!(!front.is_empty());
    }
}
