//! Fairness-graph construction (Section 3.2 of the paper).
//!
//! The fairness graph `WF` encodes side-information about *equally deserving*
//! individuals who should receive similar outcomes. The paper proposes three
//! elicitation models, all implemented here:
//!
//! 1. **Direct pairwise judgments** — a human marks specific pairs as equally
//!    deserving ([`pairwise_judgment_graph`]).
//! 2. **Equivalence classes** (Definition 1) — individuals are grouped into
//!    discrete classes (e.g. rounded star ratings of neighbourhoods); all
//!    members of a class are linked ([`equivalence_class_graph`]).
//! 3. **Between-group quantile graphs** (Definitions 2 and 3) — when groups
//!    are incomparable, within-group rankings are pooled into `k` quantiles
//!    and individuals in the same quantile of *different* groups are linked
//!    ([`between_group_quantile_graph`]).

use crate::error::GraphError;
use crate::sparse::SparseGraph;
use crate::Result;
use pfr_linalg::stats::quantile_buckets;

/// Builds a fairness graph from explicit pairwise judgments.
///
/// Each `(i, j)` pair receives an edge of weight 1.0. Duplicate pairs are
/// merged (weight capped at 1.0), self-pairs are rejected.
pub fn pairwise_judgment_graph(n: usize, pairs: &[(usize, usize)]) -> Result<SparseGraph> {
    let mut g = SparseGraph::new(n);
    for &(i, j) in pairs {
        g.add_edge(i, j, 1.0)?;
    }
    g.coalesce_max();
    Ok(g)
}

/// Builds the equivalence-class graph of Definition 1.
///
/// `classes[i]` is the (optional) equivalence class of individual `i`;
/// individuals without a judgment (`None`) stay isolated. Two individuals are
/// linked with weight 1.0 iff they belong to the same class. Each class is
/// one clique block ([`SparseGraph::add_block`]), classes in ascending order:
/// `O(n)` memory whatever the class sizes.
pub fn equivalence_class_graph(classes: &[Option<usize>]) -> Result<SparseGraph> {
    let n = classes.len();
    let mut g = SparseGraph::new(n);
    let mut buckets: std::collections::BTreeMap<usize, Vec<usize>> =
        std::collections::BTreeMap::new();
    for (i, class) in classes.iter().enumerate() {
        if let Some(c) = class {
            buckets.entry(*c).or_default().push(i);
        }
    }
    for members in buckets.values() {
        g.add_block(members.iter().map(std::slice::from_ref), 1.0)?;
    }
    Ok(g)
}

/// Builds the between-group quantile graph of Definition 3.
///
/// * `groups[i]` is the group membership of individual `i` (arbitrary small
///   integers, more than two groups are supported as in the paper).
/// * `scores[i]` is the individual's *within-group* ranking score (e.g. a
///   COMPAS decile score or a per-group model score). Scores are only ever
///   compared within a group.
/// * `num_quantiles` is the number of quantile buckets `k`.
///
/// Within each group, individuals are assigned to equal-probability quantile
/// buckets of their own group's score distribution; every pair of individuals
/// in the *same* bucket but *different* groups is connected with weight 1.0.
/// Same-group pairs are never connected — exactly Equation 2 of the paper.
/// Each bucket is one block whose parts are its members per group
/// ([`SparseGraph::add_block`]), so the graph takes `O(n)` memory.
///
/// A non-finite score is rejected with its index: NaN has no rank.
pub fn between_group_quantile_graph(
    groups: &[usize],
    scores: &[f64],
    num_quantiles: usize,
) -> Result<SparseGraph> {
    let n = groups.len();
    if scores.len() != n {
        return Err(GraphError::LengthMismatch {
            what: "scores",
            got: scores.len(),
            expected: n,
        });
    }
    if num_quantiles == 0 {
        return Err(GraphError::InvalidParameter(
            "the number of quantiles must be positive".to_string(),
        ));
    }
    if let Some(i) = scores.iter().position(|s| !s.is_finite()) {
        return Err(GraphError::InvalidParameter(format!(
            "score of individual {i} is not finite ({})",
            scores[i]
        )));
    }

    // Partition indices by group.
    let mut by_group: std::collections::BTreeMap<usize, Vec<usize>> =
        std::collections::BTreeMap::new();
    for (i, &g) in groups.iter().enumerate() {
        by_group.entry(g).or_default().push(i);
    }

    // Assign a quantile bucket to every individual, *within its own group*.
    let mut bucket_of = vec![0usize; n];
    for members in by_group.values() {
        let group_scores: Vec<f64> = members.iter().map(|&i| scores[i]).collect();
        let buckets = quantile_buckets(&group_scores, num_quantiles)
            .map_err(|e| GraphError::Linalg(e.to_string()))?;
        for (&i, &b) in members.iter().zip(buckets.iter()) {
            bucket_of[i] = b;
        }
    }

    // Connect cross-group pairs in the same bucket: one block per bucket,
    // one part per group.
    let mut graph = SparseGraph::new(n);
    for q in 0..num_quantiles {
        let members_per_group = by_group.values().map(|members| {
            let in_bucket = members.iter().copied().filter(|&i| bucket_of[i] == q);
            in_bucket.collect::<Vec<_>>()
        });
        graph.add_block(members_per_group, 1.0)?;
    }
    Ok(graph)
}

/// Builds an equivalence-class graph from continuous ratings by rounding them
/// to the nearest integer "star" value (the Crime & Communities construction
/// in Section 4.3.1, where 1–5 star resident reviews are averaged per
/// neighbourhood).
///
/// `ratings[i] = None` models a neighbourhood for which no reviews could be
/// collected (the paper covers ~1500 of ~2000 communities). A non-finite
/// rating is rejected with its index rather than rounded into a class (a
/// NaN would otherwise join class 0).
pub fn rating_equivalence_graph(ratings: &[Option<f64>]) -> Result<SparseGraph> {
    let mut classes = Vec::with_capacity(ratings.len());
    for (i, rating) in ratings.iter().enumerate() {
        classes.push(match *rating {
            Some(v) if !v.is_finite() => {
                return Err(GraphError::InvalidParameter(format!(
                    "rating of individual {i} is not finite ({v})"
                )))
            }
            Some(v) => Some(v.clamp(0.0, 10.0).round() as usize),
            None => None,
        });
    }
    equivalence_class_graph(&classes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairwise_graph_basic() {
        let g = pairwise_judgment_graph(4, &[(0, 1), (1, 0), (2, 3)]).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert!(pairwise_judgment_graph(2, &[(0, 5)]).is_err());
        assert!(pairwise_judgment_graph(2, &[(1, 1)]).is_err());
    }

    #[test]
    fn equivalence_classes_form_cliques() {
        let classes = vec![Some(0), Some(0), Some(0), Some(1), Some(1), None];
        let g = equivalence_class_graph(&classes).unwrap();
        // Class 0 clique: 3 edges; class 1 clique: 1 edge; None: isolated.
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degrees(), vec![2.0, 2.0, 2.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn quantile_graph_links_only_cross_group_same_quantile() {
        // Two groups of 4; scores are group-internal ranks.
        let groups = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let scores = vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0];
        let g = between_group_quantile_graph(&groups, &scores, 4).unwrap();
        // Each quantile holds exactly one individual per group → 4 edges.
        assert_eq!(g.num_edges(), 4);
        let w = g.adjacency_dense();
        // Lowest of group 0 (idx 0) pairs with lowest of group 1 (idx 4).
        assert_eq!(w[(0, 4)], 1.0);
        assert_eq!(w[(3, 7)], 1.0);
        // Never a same-group edge.
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    assert_eq!(w[(i, j)], 0.0);
                }
            }
        }
    }

    #[test]
    fn quantile_graph_supports_more_than_two_groups() {
        let groups = vec![0, 0, 1, 1, 2, 2];
        let scores = vec![1.0, 2.0, 5.0, 6.0, -1.0, 4.0];
        let g = between_group_quantile_graph(&groups, &scores, 2).unwrap();
        // Each quantile has one member per group → 3 cross-group pairs per
        // quantile, 2 quantiles → 6 edges.
        assert_eq!(g.num_edges(), 6);
    }

    #[test]
    fn quantile_graph_validates_inputs() {
        assert!(between_group_quantile_graph(&[0, 1], &[1.0], 2).is_err());
        assert!(between_group_quantile_graph(&[0, 1], &[1.0, 2.0], 0).is_err());
    }

    #[test]
    fn quantile_graph_scores_are_group_relative() {
        // Group 1 scores are systematically lower, mirroring the paper's SAT
        // example. The *top* individual of each group must still be linked.
        let groups = vec![0, 0, 1, 1];
        let scores = vec![100.0, 200.0, 10.0, 20.0];
        let g = between_group_quantile_graph(&groups, &scores, 2).unwrap();
        let w = g.adjacency_dense();
        assert_eq!(w[(1, 3)], 1.0); // both are the best of their group
        assert_eq!(w[(0, 2)], 1.0); // both are the weakest of their group
        assert_eq!(w[(1, 2)], 0.0);
    }

    #[test]
    fn rating_graph_rounds_to_stars_and_skips_missing() {
        let ratings = vec![Some(4.4), Some(3.6), Some(3.9), None, Some(1.2)];
        let g = rating_equivalence_graph(&ratings).unwrap();
        // 4.4 → 4, 3.6 → 4, 3.9 → 4 form a clique of 3; others isolated.
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degrees(), vec![2.0, 2.0, 2.0, 0.0, 0.0]);
    }

    /// The message names the position: the caller can find the row.
    fn names_index(result: Result<SparseGraph>, index: &str) -> bool {
        matches!(result, Err(GraphError::InvalidParameter(msg)) if msg.contains(index))
    }

    #[test]
    fn rating_graph_rejects_a_non_finite_rating_by_position() {
        // Rounded, the NaN would join class 0 and link nodes 0, 1 and 2.
        let ratings = [Some(0.2), Some(f64::NAN), Some(0.4), Some(4.0)];
        assert!(names_index(
            rating_equivalence_graph(&ratings),
            "individual 1"
        ));
        let ratings = [None, Some(3.0), Some(f64::INFINITY)];
        assert!(names_index(
            rating_equivalence_graph(&ratings),
            "individual 2"
        ));
    }

    #[test]
    fn quantile_graph_rejects_a_non_finite_score_by_position() {
        // The ranking's comparator calls NaN equal to every score, so it
        // would land in whatever bucket the sort leaves it in.
        let groups = [0, 0, 0, 1, 1, 1];
        let scores = [1.0, 2.0, 3.0, 1.0, f64::NAN, 3.0];
        let built = between_group_quantile_graph(&groups, &scores, 3);
        assert!(names_index(built, "individual 4"));
        let scores = [f64::NEG_INFINITY, 2.0, 3.0, 1.0, 2.0, 3.0];
        let built = between_group_quantile_graph(&groups, &scores, 3);
        assert!(names_index(built, "individual 0"));
    }
}
