//! Independent certificates used as test oracles.
//!
//! Three checks are provided, in increasing strength:
//!
//! 1. [`is_valid_matching`] — every matched pair is an edge, mates are mutual;
//! 2. [`is_maximal`] — no edge can be added directly (both endpoints free);
//! 3. [`is_maximum`] — a certificate check: `m` is valid and the
//!    [`koenig_cover`] it yields covers `g` with exactly `|M|` vertices.  No
//!    vertex cover is smaller than any matching, so such a cover proves `m`
//!    maximum, and by König's theorem every maximum matching yields one.  If
//!    `m` is not maximum, the free row that ends an augmenting path lands in
//!    the cover and makes it larger than `|M|` (Berge's theorem, Theorem 1
//!    of the paper, seen from the other side).  One alternating BFS from all
//!    free columns at once answers, in `O(V + E)`.
//!
//! A simple reference solver, [`reference_maximum_matching`], computes a
//! maximum matching with textbook augmenting-path search (`O(V·E)`).  It is
//! deliberately written independently of the optimized algorithms in
//! `gpm-cpu`/`gpm-core` so their tests do not share code with their oracle:
//! it keeps its own explicit stack rather than calling `gpm-cpu`'s shared
//! search.  It spends no call-stack frame per path edge, so it answers
//! graphs whose augmenting paths run through millions of vertices on any
//! thread.

use crate::{BipartiteCsr, Matching, VertexId};
use std::collections::VecDeque;

/// `true` iff `m` is a valid (consistent, edge-respecting) matching of `g`.
pub fn is_valid_matching(g: &BipartiteCsr, m: &Matching) -> bool {
    m.validate_against(g).is_ok()
}

/// Checks that `m` is a valid matching of `g`, reporting the first violated
/// invariant as an explanatory message.
///
/// Same check as [`is_valid_matching`], but the `Err` names the offending
/// vertex pair — used by the concurrency stress suites, where a bare `false`
/// would hide *which* job produced a corrupt matching.
pub fn check_matching(g: &BipartiteCsr, m: &Matching) -> std::result::Result<(), String> {
    m.validate_against(g)
}

/// `true` iff `m` is maximal: there is no edge whose endpoints are both free.
pub fn is_maximal(g: &BipartiteCsr, m: &Matching) -> bool {
    for (r, c) in g.edges() {
        if !m.is_row_matched(r) && !m.is_col_matched(c) {
            return false;
        }
    }
    true
}

/// `true` iff `m` is a **maximum** matching of `g`: valid, and certified
/// by a [`koenig_cover`] of size `|M|` that covers `g` (see the module docs).
pub fn is_maximum(g: &BipartiteCsr, m: &Matching) -> bool {
    if !is_valid_matching(g, m) {
        return false;
    }
    let cover = koenig_cover(g, m);
    cover.size() == m.cardinality() && cover.covers(g)
}

/// A vertex cover of a bipartite graph, given as (rows in cover, cols in
/// cover).  When produced by [`koenig_cover`] for a maximum matching, its
/// size equals the matching cardinality, certifying maximality (König).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VertexCover {
    /// Row vertices in the cover.
    pub rows: Vec<VertexId>,
    /// Column vertices in the cover.
    pub cols: Vec<VertexId>,
}

impl VertexCover {
    /// Total number of vertices in the cover.
    pub fn size(&self) -> usize {
        self.rows.len() + self.cols.len()
    }

    /// `true` iff every edge of `g` has at least one endpoint in the cover.
    pub fn covers(&self, g: &BipartiteCsr) -> bool {
        let mut in_rows = vec![false; g.num_rows()];
        let mut in_cols = vec![false; g.num_cols()];
        for &r in &self.rows {
            in_rows[r as usize] = true;
        }
        for &c in &self.cols {
            in_cols[c as usize] = true;
        }
        g.edges().all(|(r, c)| in_rows[r as usize] || in_cols[c as usize])
    }
}

/// Builds a König vertex cover from a maximum matching.
///
/// Standard construction: let `Z` be the set of vertices reachable by
/// alternating paths from unmatched columns; the cover is
/// (matched rows reachable in `Z`) ∪ (columns not in `Z`).
///
/// If `m` is maximum, the returned cover has size exactly `m.cardinality()`
/// and covers every edge; callers use both properties as a certificate.
pub fn koenig_cover(g: &BipartiteCsr, m: &Matching) -> VertexCover {
    let mut col_in_z = vec![false; g.num_cols()];
    let mut row_in_z = vec![false; g.num_rows()];
    let mut queue: VecDeque<VertexId> = VecDeque::new();
    for c in 0..g.num_cols() as VertexId {
        if !m.is_col_matched(c) {
            col_in_z[c as usize] = true;
            queue.push_back(c);
        }
    }
    while let Some(v) = queue.pop_front() {
        for &u in g.col_neighbors(v) {
            if row_in_z[u as usize] {
                continue;
            }
            // travel column→row only along non-matching edges
            if m.col_mate(v) == Some(u) {
                continue;
            }
            row_in_z[u as usize] = true;
            if let Some(w) = m.row_mate(u) {
                if !col_in_z[w as usize] {
                    col_in_z[w as usize] = true;
                    queue.push_back(w);
                }
            }
        }
    }
    let rows = (0..g.num_rows() as VertexId).filter(|&r| row_in_z[r as usize]).collect();
    let cols = (0..g.num_cols() as VertexId).filter(|&c| !col_in_z[c as usize]).collect();
    VertexCover { rows, cols }
}

/// Reference maximum-cardinality matching via repeated augmenting-path DFS
/// (Hungarian-style, `O(V·E)`).
///
/// Slow but simple; used only as a test oracle and for small instances.
pub fn reference_maximum_matching(g: &BipartiteCsr) -> Matching {
    let mut m = Matching::empty_for(g);
    // `visited_row[u] == root + 1`: the search from column `root` entered `u`.
    let mut visited_row = vec![0 as VertexId; g.num_rows()];
    // The DFS path: each column on it and the index of its next neighbour.
    let mut path: Vec<(VertexId, usize)> = Vec::new();
    for root in 0..g.num_cols() as VertexId {
        path.push((root, 0));
        while let Some((c, next)) = path.pop() {
            let Some(&u) = g.col_neighbors(c).get(next) else { continue };
            path.push((c, next + 1));
            if std::mem::replace(&mut visited_row[u as usize], root + 1) == root + 1 {
                continue;
            }
            match m.row_mate(u) {
                Some(w) => path.push((w, 0)),
                None => {
                    // Augment, deepest pair first: each `match_pair` frees
                    // the row the next one down re-pairs.
                    m.match_pair(u, c);
                    path.pop();
                    for (c, next) in path.drain(..).rev() {
                        m.match_pair(g.col_neighbors(c)[next - 1], c);
                    }
                }
            }
        }
    }
    m
}

/// Cardinality of a maximum matching of `g` (via the reference solver).
pub fn maximum_matching_cardinality(g: &BipartiteCsr) -> usize {
    reference_maximum_matching(g).cardinality()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn path_graph() -> BipartiteCsr {
        // r0 - c0 - r1 - c1 - r2  (path of 5 vertices), maximum matching = 2
        BipartiteCsr::from_edges(3, 2, &[(0, 0), (1, 0), (1, 1), (2, 1)]).unwrap()
    }

    #[test]
    fn reference_solver_finds_maximum_on_path() {
        let g = path_graph();
        let m = reference_maximum_matching(&g);
        assert_eq!(m.cardinality(), 2);
        assert!(is_valid_matching(&g, &m));
        assert!(is_maximal(&g, &m));
        assert!(is_maximum(&g, &m));
    }

    #[test]
    fn maximal_but_not_maximum_detected() {
        let g = path_graph();
        let mut m = Matching::empty_for(&g);
        m.match_pair(1, 0); // middle edge only: maximal? r0-c0 has r0 free, c0 matched.
                            // edges: (0,0) c0 matched; (1,0) matched; (1,1) r1 matched; (2,1) both free!
        assert!(!is_maximal(&g, &m));
        m.match_pair(2, 1);
        assert!(is_maximal(&g, &m));
        assert!(is_maximum(&g, &m)); // cardinality 2 is maximum here
    }

    #[test]
    fn non_maximum_matching_rejected_by_berge() {
        // Square: r0-c0, r0-c1, r1-c0. Matching {r0-c0} is maximal? r1-c0: c0
        // matched; r0-c1: r0 matched → maximal. But maximum is 2 via r0-c1, r1-c0.
        let g = BipartiteCsr::from_edges(2, 2, &[(0, 0), (0, 1), (1, 0)]).unwrap();
        let mut m = Matching::empty_for(&g);
        m.match_pair(0, 0);
        assert!(is_maximal(&g, &m));
        assert!(!is_maximum(&g, &m));
        let opt = reference_maximum_matching(&g);
        assert_eq!(opt.cardinality(), 2);
        assert!(is_maximum(&g, &opt));
    }

    #[test]
    fn koenig_cover_certifies_maximum() {
        let g = path_graph();
        let m = reference_maximum_matching(&g);
        let cover = koenig_cover(&g, &m);
        assert!(cover.covers(&g));
        assert_eq!(cover.size(), m.cardinality());
    }

    #[test]
    fn koenig_cover_on_complete_bipartite() {
        let mut b = GraphBuilder::new(3, 3);
        for r in 0..3u32 {
            for c in 0..3u32 {
                b.add_edge(r, c).unwrap();
            }
        }
        let g = b.build();
        let m = reference_maximum_matching(&g);
        assert_eq!(m.cardinality(), 3);
        let cover = koenig_cover(&g, &m);
        assert!(cover.covers(&g));
        assert_eq!(cover.size(), 3);
    }

    #[test]
    fn empty_graph_is_trivially_maximum() {
        let g = BipartiteCsr::empty(3, 3);
        let m = Matching::empty_for(&g);
        assert!(is_valid_matching(&g, &m));
        assert!(is_maximal(&g, &m));
        assert!(is_maximum(&g, &m));
        assert_eq!(maximum_matching_cardinality(&g), 0);
        let cover = koenig_cover(&g, &m);
        assert_eq!(cover.size(), 0);
        assert!(cover.covers(&g));
    }

    #[test]
    fn invalid_matching_is_not_maximum() {
        let g = path_graph();
        let mut m = Matching::empty_for(&g);
        m.match_pair(0, 1); // (0,1) is not an edge
        assert!(!is_valid_matching(&g, &m));
        assert!(!is_maximum(&g, &m));
    }

    #[test]
    fn rectangular_graph_maximum() {
        // 2 rows, 4 cols, rows connected to all cols: maximum = 2.
        let mut b = GraphBuilder::new(2, 4);
        for r in 0..2u32 {
            for c in 0..4u32 {
                b.add_edge(r, c).unwrap();
            }
        }
        let g = b.build();
        assert_eq!(maximum_matching_cardinality(&g), 2);
    }

    #[test]
    fn star_graph_maximum_is_one() {
        // one column connected to many rows
        let g = BipartiteCsr::from_edges(5, 1, &[(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)]).unwrap();
        assert_eq!(maximum_matching_cardinality(&g), 1);
        let m = reference_maximum_matching(&g);
        let cover = koenig_cover(&g, &m);
        assert_eq!(cover.size(), 1);
        assert!(cover.covers(&g));
    }
}
