//! Compressed sparse row (CSR) storage of a bipartite graph in both
//! orientations.
//!
//! The push-relabel kernels of the paper traverse the graph from the column
//! side (`Γ(v)` for a column `v`, Algorithm 6/9) while the global-relabeling
//! BFS traverses from the row side (`Γ(u)` for a row `u`, Algorithm 5).  The
//! original CUDA code therefore keeps **two** CSR copies on the device; we do
//! the same so that every kernel sees exactly the memory layout the paper's
//! kernels see.

use crate::{GraphError, Result, VertexId};

/// A bipartite graph `G = (V_R ∪ V_C, E)` stored as CSR in both orientations.
///
/// Rows are the vertices of `V_R` (the paper's `VR`), columns the vertices of
/// `V_C` (`VC`).  Following the matrix notation of the paper, an edge is a
/// nonzero `(r, c)`.
///
/// Invariants (checked by [`BipartiteCsr::validate`] and maintained by all
/// constructors in this crate):
///
/// * `row_ptr.len() == num_rows + 1`, `col_ptr.len() == num_cols + 1`;
/// * both pointer arrays are non-decreasing and start at 0;
/// * `row_ptr[num_rows] == col_ptr[num_cols] == num_edges`;
/// * adjacency lists are sorted and duplicate-free;
/// * the two orientations describe the same edge set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BipartiteCsr {
    num_rows: usize,
    num_cols: usize,
    /// Row-oriented adjacency: columns adjacent to row `r` are
    /// `col_idx[row_ptr[r] .. row_ptr[r+1]]`.
    row_ptr: Vec<usize>,
    col_idx: Vec<VertexId>,
    /// Column-oriented adjacency: rows adjacent to column `c` are
    /// `row_idx[col_ptr[c] .. col_ptr[c+1]]`.
    col_ptr: Vec<usize>,
    row_idx: Vec<VertexId>,
}

impl BipartiteCsr {
    /// Builds a graph from an edge list of `(row, col)` pairs.
    ///
    /// Duplicate edges are collapsed; the adjacency lists of the result are
    /// sorted.  Returns an error if a side has more vertices than
    /// [`VertexId`] can name, or if any endpoint is out of bounds (the
    /// first such edge in list order).  A list already strictly increasing
    /// in `(row, col)` order, the form [`Self::edges`] yields and the wire
    /// clients send, is built from as it stands, without a sorted copy.
    pub fn from_edges(
        num_rows: usize,
        num_cols: usize,
        edges: &[(VertexId, VertexId)],
    ) -> Result<Self> {
        Self::check_shape(num_rows, num_cols)?;
        // The smallest `(row, col)` key, packed into a `u64`, that keeps the
        // list strictly increasing; an in-bounds row is below `u32::MAX`, so
        // the key plus one cannot overflow.
        let mut next_key = 0u64;
        let mut increasing = true;
        for &(r, c) in edges {
            if (r as usize) >= num_rows {
                return Err(GraphError::RowOutOfBounds { row: r, num_rows });
            }
            if (c as usize) >= num_cols {
                return Err(GraphError::ColOutOfBounds { col: c, num_cols });
            }
            let key = u64::from(r) << 32 | u64::from(c);
            increasing &= key >= next_key;
            next_key = key + 1;
        }
        if increasing {
            return Ok(Self::from_sorted_dedup_edges(num_rows, num_cols, edges));
        }
        let mut sorted: Vec<(VertexId, VertexId)> = edges.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        Ok(Self::from_sorted_dedup_edges(num_rows, num_cols, &sorted))
    }

    /// Rejects a shape with a side above [`VertexId::MAX`] vertices, before
    /// anything is allocated for it.
    pub(crate) fn check_shape(num_rows: usize, num_cols: usize) -> Result<()> {
        let limit = VertexId::MAX as usize;
        if num_rows > limit || num_cols > limit {
            return Err(GraphError::InvalidCsr(format!(
                "{num_rows}x{num_cols} has a side above the vertex-id limit {limit}"
            )));
        }
        Ok(())
    }

    /// Builds a graph from an edge list already sorted by `(row, col)` with no
    /// duplicates.  Bounds are assumed to have been checked by the caller.
    pub(crate) fn from_sorted_dedup_edges(
        num_rows: usize,
        num_cols: usize,
        edges: &[(VertexId, VertexId)],
    ) -> Self {
        let mut row_ptr = vec![0usize; num_rows + 1];
        let mut col_ptr = vec![0usize; num_cols + 1];
        for &(r, c) in edges {
            row_ptr[r as usize + 1] += 1;
            col_ptr[c as usize + 1] += 1;
        }
        for i in 0..num_rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        for i in 0..num_cols {
            col_ptr[i + 1] += col_ptr[i];
        }
        // The edges are in row-major order, so the row-oriented adjacency
        // is their columns in list order.
        let col_idx: Vec<VertexId> = edges.iter().map(|&(_, c)| c).collect();
        // Column-oriented lists are filled in row order, i.e. already sorted
        // by row index — no per-list sort needed.
        let mut row_idx = vec![0 as VertexId; edges.len()];
        let mut next_col_slot = col_ptr.clone();
        for &(r, c) in edges {
            let cs = &mut next_col_slot[c as usize];
            row_idx[*cs] = r;
            *cs += 1;
        }
        Self { num_rows, num_cols, row_ptr, col_idx, col_ptr, row_idx }
    }

    /// Builds a graph directly from raw row-oriented CSR arrays, deriving the
    /// column orientation.  Validates the input.
    pub fn from_row_csr(
        num_rows: usize,
        num_cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<VertexId>,
    ) -> Result<Self> {
        if row_ptr.len() != num_rows + 1 {
            return Err(GraphError::InvalidCsr(format!(
                "row_ptr length {} != num_rows + 1 = {}",
                row_ptr.len(),
                num_rows + 1
            )));
        }
        if row_ptr.first() != Some(&0) {
            return Err(GraphError::InvalidCsr("row_ptr must start at 0".into()));
        }
        if row_ptr.windows(2).any(|w| w[0] > w[1]) {
            return Err(GraphError::InvalidCsr("row_ptr must be non-decreasing".into()));
        }
        if *row_ptr.last().unwrap() != col_idx.len() {
            return Err(GraphError::InvalidCsr(format!(
                "row_ptr[last] = {} != col_idx length {}",
                row_ptr.last().unwrap(),
                col_idx.len()
            )));
        }
        let mut edges = Vec::with_capacity(col_idx.len());
        for r in 0..num_rows {
            for &c in &col_idx[row_ptr[r]..row_ptr[r + 1]] {
                if (c as usize) >= num_cols {
                    return Err(GraphError::ColOutOfBounds { col: c, num_cols });
                }
                edges.push((r as VertexId, c));
            }
        }
        edges.sort_unstable();
        edges.dedup();
        Ok(Self::from_sorted_dedup_edges(num_rows, num_cols, &edges))
    }

    /// Number of row vertices (`m` in the paper).
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of column vertices (`n` in the paper).
    #[inline]
    pub fn num_cols(&self) -> usize {
        self.num_cols
    }

    /// Number of edges (`τ` in the paper).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.col_idx.len()
    }

    /// Total number of vertices, `m + n`.  Also the "unreachable" label value
    /// used by every push-relabel variant.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_rows + self.num_cols
    }

    /// Columns adjacent to row `r` (the paper's `Γ(u)` for `u ∈ V_R`).
    #[inline]
    pub fn row_neighbors(&self, r: VertexId) -> &[VertexId] {
        &self.col_idx[self.row_ptr[r as usize]..self.row_ptr[r as usize + 1]]
    }

    /// Rows adjacent to column `c` (the paper's `Γ(v)` for `v ∈ V_C`).
    #[inline]
    pub fn col_neighbors(&self, c: VertexId) -> &[VertexId] {
        &self.row_idx[self.col_ptr[c as usize]..self.col_ptr[c as usize + 1]]
    }

    /// Degree of row `r`.
    #[inline]
    pub fn row_degree(&self, r: VertexId) -> usize {
        self.row_ptr[r as usize + 1] - self.row_ptr[r as usize]
    }

    /// Degree of column `c`.
    #[inline]
    pub fn col_degree(&self, c: VertexId) -> usize {
        self.col_ptr[c as usize + 1] - self.col_ptr[c as usize]
    }

    /// `true` iff the edge `(r, c)` is present.
    pub fn has_edge(&self, r: VertexId, c: VertexId) -> bool {
        self.row_neighbors(r).binary_search(&c).is_ok()
    }

    /// Raw row-oriented pointer array (length `num_rows + 1`), as shipped to
    /// the virtual GPU device.
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Raw row-oriented adjacency array (length `num_edges`).
    #[inline]
    pub fn col_idx(&self) -> &[VertexId] {
        &self.col_idx
    }

    /// Raw column-oriented pointer array (length `num_cols + 1`).
    #[inline]
    pub fn col_ptr(&self) -> &[usize] {
        &self.col_ptr
    }

    /// Raw column-oriented adjacency array (length `num_edges`).
    #[inline]
    pub fn row_idx(&self) -> &[VertexId] {
        &self.row_idx
    }

    /// Iterates over all edges as `(row, col)` pairs in row-major order.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.num_rows as VertexId)
            .flat_map(move |r| self.row_neighbors(r).iter().map(move |&c| (r, c)))
    }

    /// Returns the transposed graph (rows and columns swapped).
    pub fn transpose(&self) -> Self {
        Self {
            num_rows: self.num_cols,
            num_cols: self.num_rows,
            row_ptr: self.col_ptr.clone(),
            col_idx: self.row_idx.clone(),
            col_ptr: self.row_ptr.clone(),
            row_idx: self.col_idx.clone(),
        }
    }

    /// Number of isolated (degree-zero) row vertices.
    pub fn isolated_rows(&self) -> usize {
        (0..self.num_rows as VertexId).filter(|&r| self.row_degree(r) == 0).count()
    }

    /// Number of isolated (degree-zero) column vertices.
    pub fn isolated_cols(&self) -> usize {
        (0..self.num_cols as VertexId).filter(|&c| self.col_degree(c) == 0).count()
    }

    /// Exhaustively checks every structural invariant of the CSR pair.
    ///
    /// This is `O(τ log τ)` and meant for tests and for validating data read
    /// from external files, not for inner loops.
    pub fn validate(&self) -> Result<()> {
        if self.row_ptr.len() != self.num_rows + 1 {
            return Err(GraphError::InvalidCsr("row_ptr length mismatch".into()));
        }
        if self.col_ptr.len() != self.num_cols + 1 {
            return Err(GraphError::InvalidCsr("col_ptr length mismatch".into()));
        }
        if self.row_ptr[0] != 0 || self.col_ptr[0] != 0 {
            return Err(GraphError::InvalidCsr("pointer arrays must start at 0".into()));
        }
        if self.row_ptr.windows(2).any(|w| w[0] > w[1]) {
            return Err(GraphError::InvalidCsr("row_ptr not monotone".into()));
        }
        if self.col_ptr.windows(2).any(|w| w[0] > w[1]) {
            return Err(GraphError::InvalidCsr("col_ptr not monotone".into()));
        }
        if *self.row_ptr.last().unwrap() != self.col_idx.len() {
            return Err(GraphError::InvalidCsr("row_ptr tail != |col_idx|".into()));
        }
        if *self.col_ptr.last().unwrap() != self.row_idx.len() {
            return Err(GraphError::InvalidCsr("col_ptr tail != |row_idx|".into()));
        }
        if self.col_idx.len() != self.row_idx.len() {
            return Err(GraphError::InvalidCsr("orientation edge counts differ".into()));
        }
        for r in 0..self.num_rows as VertexId {
            let nbrs = self.row_neighbors(r);
            if nbrs.windows(2).any(|w| w[0] >= w[1]) {
                return Err(GraphError::InvalidCsr(format!(
                    "row {r} adjacency not strictly sorted"
                )));
            }
            if nbrs.iter().any(|&c| (c as usize) >= self.num_cols) {
                return Err(GraphError::InvalidCsr(format!("row {r} has column out of range")));
            }
        }
        for c in 0..self.num_cols as VertexId {
            let nbrs = self.col_neighbors(c);
            if nbrs.windows(2).any(|w| w[0] >= w[1]) {
                return Err(GraphError::InvalidCsr(format!(
                    "column {c} adjacency not strictly sorted"
                )));
            }
            if nbrs.iter().any(|&r| (r as usize) >= self.num_rows) {
                return Err(GraphError::InvalidCsr(format!("column {c} has row out of range")));
            }
        }
        // Cross-check the two orientations describe the same edge multiset.
        let mut fwd: Vec<(VertexId, VertexId)> = self.edges().collect();
        let mut bwd: Vec<(VertexId, VertexId)> = (0..self.num_cols as VertexId)
            .flat_map(|c| self.col_neighbors(c).iter().map(move |&r| (r, c)))
            .collect();
        fwd.sort_unstable();
        bwd.sort_unstable();
        if fwd != bwd {
            return Err(GraphError::InvalidCsr("orientations disagree on edge set".into()));
        }
        Ok(())
    }

    /// A stable 64-bit content fingerprint of the graph.
    ///
    /// FNV-1a over the shape (`num_rows`, `num_cols`, `num_edges`) followed
    /// by the row-oriented CSR arrays (`row_ptr`, then `col_idx`).  Because
    /// every constructor canonicalizes the adjacency lists (sorted,
    /// duplicate-free), the fingerprint depends only on the *edge set*:
    /// permuting the order in which edges are fed to [`Self::from_edges`]
    /// does **not** change it, while adding, removing, or moving any edge —
    /// or changing either dimension — does.
    ///
    /// The value is deterministic across processes and platforms (no
    /// `DefaultHasher` randomization), so it can key persistent caches; the
    /// graph-cache of `gpm-service` content-addresses uploads with it.
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut mix = |x: u64| {
            for byte in x.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        mix(self.num_rows as u64);
        mix(self.num_cols as u64);
        mix(self.num_edges() as u64);
        for &p in &self.row_ptr {
            mix(p as u64);
        }
        for &c in &self.col_idx {
            mix(u64::from(c));
        }
        h
    }

    /// Assembles a graph from pre-built CSR arrays for **both** orientations.
    ///
    /// The caller (the delta-patching machinery in [`crate::delta`]) is
    /// responsible for upholding every invariant listed on the type; debug
    /// builds re-check them exhaustively.
    pub(crate) fn from_raw_parts(
        num_rows: usize,
        num_cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<VertexId>,
        col_ptr: Vec<usize>,
        row_idx: Vec<VertexId>,
    ) -> Self {
        let g = Self { num_rows, num_cols, row_ptr, col_idx, col_ptr, row_idx };
        debug_assert!(g.validate().is_ok(), "from_raw_parts violated a CSR invariant");
        g
    }

    /// An empty graph with the given shape and no edges.
    pub fn empty(num_rows: usize, num_cols: usize) -> Self {
        Self {
            num_rows,
            num_cols,
            row_ptr: vec![0; num_rows + 1],
            col_idx: Vec::new(),
            col_ptr: vec![0; num_cols + 1],
            row_idx: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> BipartiteCsr {
        // 3 rows, 4 cols:
        // r0 - c0, c2
        // r1 - c1
        // r2 - c1, c3
        BipartiteCsr::from_edges(3, 4, &[(0, 0), (0, 2), (1, 1), (2, 1), (2, 3)]).unwrap()
    }

    #[test]
    fn basic_shape_and_degrees() {
        let g = small();
        assert_eq!(g.num_rows(), 3);
        assert_eq!(g.num_cols(), 4);
        assert_eq!(g.num_edges(), 5);
        assert_eq!(g.num_vertices(), 7);
        assert_eq!(g.row_degree(0), 2);
        assert_eq!(g.row_degree(1), 1);
        assert_eq!(g.row_degree(2), 2);
        assert_eq!(g.col_degree(0), 1);
        assert_eq!(g.col_degree(1), 2);
        assert_eq!(g.col_degree(2), 1);
        assert_eq!(g.col_degree(3), 1);
    }

    #[test]
    fn neighbors_are_sorted_and_correct() {
        let g = small();
        assert_eq!(g.row_neighbors(0), &[0, 2]);
        assert_eq!(g.row_neighbors(1), &[1]);
        assert_eq!(g.row_neighbors(2), &[1, 3]);
        assert_eq!(g.col_neighbors(0), &[0]);
        assert_eq!(g.col_neighbors(1), &[1, 2]);
        assert_eq!(g.col_neighbors(2), &[0]);
        assert_eq!(g.col_neighbors(3), &[2]);
    }

    #[test]
    fn has_edge_checks_membership() {
        let g = small();
        assert!(g.has_edge(0, 0));
        assert!(g.has_edge(2, 3));
        assert!(!g.has_edge(0, 1));
        assert!(!g.has_edge(1, 3));
    }

    #[test]
    fn duplicate_edges_are_collapsed() {
        let g = BipartiteCsr::from_edges(2, 2, &[(0, 0), (0, 0), (1, 1), (1, 1), (1, 1)]).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.row_neighbors(0), &[0]);
        assert_eq!(g.row_neighbors(1), &[1]);
        g.validate().unwrap();
    }

    #[test]
    fn out_of_bounds_edges_rejected() {
        assert!(matches!(
            BipartiteCsr::from_edges(2, 2, &[(2, 0)]),
            Err(GraphError::RowOutOfBounds { row: 2, num_rows: 2 })
        ));
        assert!(matches!(
            BipartiteCsr::from_edges(2, 2, &[(0, 5)]),
            Err(GraphError::ColOutOfBounds { col: 5, num_cols: 2 })
        ));
    }

    #[test]
    fn shapes_beyond_the_vertex_id_range_are_rejected_before_allocating() {
        let limit = VertexId::MAX as usize;
        for (rows, cols) in
            [(limit + 1, 1), (1, limit + 1), (100_000_000_000_000, 1), (usize::MAX, 0)]
        {
            let err = BipartiteCsr::from_edges(rows, cols, &[]).unwrap_err();
            assert!(err.to_string().contains("vertex-id limit"), "{rows}x{cols}: {err}");
        }
    }

    #[test]
    fn empty_graph_is_valid() {
        let g = BipartiteCsr::empty(4, 3);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.isolated_rows(), 4);
        assert_eq!(g.isolated_cols(), 3);
        g.validate().unwrap();
    }

    #[test]
    fn zero_sized_graph_is_valid() {
        let g = BipartiteCsr::empty(0, 0);
        assert_eq!(g.num_vertices(), 0);
        g.validate().unwrap();
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn edges_iterator_round_trips() {
        let g = small();
        let edges: Vec<_> = g.edges().collect();
        let g2 = BipartiteCsr::from_edges(3, 4, &edges).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn transpose_swaps_orientations() {
        let g = small();
        let t = g.transpose();
        assert_eq!(t.num_rows(), 4);
        assert_eq!(t.num_cols(), 3);
        assert_eq!(t.num_edges(), g.num_edges());
        for (r, c) in g.edges() {
            assert!(t.has_edge(c, r));
        }
        t.validate().unwrap();
        assert_eq!(t.transpose(), g);
    }

    #[test]
    fn from_row_csr_accepts_valid_input() {
        let g = BipartiteCsr::from_row_csr(3, 4, vec![0, 2, 3, 5], vec![0, 2, 1, 1, 3]).unwrap();
        assert_eq!(g, small());
        g.validate().unwrap();
    }

    #[test]
    fn from_row_csr_rejects_bad_pointers() {
        // wrong length
        assert!(BipartiteCsr::from_row_csr(3, 4, vec![0, 2, 3], vec![0, 2, 1]).is_err());
        // not starting at zero
        assert!(BipartiteCsr::from_row_csr(2, 2, vec![1, 1, 2], vec![0, 1]).is_err());
        // decreasing
        assert!(BipartiteCsr::from_row_csr(2, 2, vec![0, 2, 1], vec![0, 1]).is_err());
        // tail mismatch
        assert!(BipartiteCsr::from_row_csr(2, 2, vec![0, 1, 3], vec![0, 1]).is_err());
        // column out of range
        assert!(BipartiteCsr::from_row_csr(2, 2, vec![0, 1, 2], vec![0, 7]).is_err());
    }

    #[test]
    fn validate_passes_on_constructed_graphs() {
        small().validate().unwrap();
    }

    #[test]
    fn isolated_vertex_counts() {
        let g = BipartiteCsr::from_edges(4, 4, &[(0, 0), (1, 1)]).unwrap();
        assert_eq!(g.isolated_rows(), 2);
        assert_eq!(g.isolated_cols(), 2);
    }

    #[test]
    fn fingerprint_is_stable_under_edge_order_permutation() {
        // CSR construction canonicalizes edge order, so any permutation of
        // the input edge list fingerprints identically (as documented).
        let edges = [(0, 0), (0, 2), (1, 1), (2, 1), (2, 3)];
        let g = BipartiteCsr::from_edges(3, 4, &edges).unwrap();
        let mut permuted = edges;
        permuted.reverse();
        permuted.swap(0, 2);
        let g2 = BipartiteCsr::from_edges(3, 4, &permuted).unwrap();
        assert_eq!(g.fingerprint(), g2.fingerprint());
        // Duplicates collapse before hashing, so they do not perturb it.
        let with_dupes = [(2, 1), (0, 0), (0, 2), (1, 1), (2, 1), (2, 3), (0, 0)];
        let g3 = BipartiteCsr::from_edges(3, 4, &with_dupes).unwrap();
        assert_eq!(g.fingerprint(), g3.fingerprint());
    }

    #[test]
    fn fingerprint_distinguishes_edge_sets_and_shapes() {
        let g = small();
        // Moving one edge changes the fingerprint.
        let moved =
            BipartiteCsr::from_edges(3, 4, &[(0, 1), (0, 2), (1, 1), (2, 1), (2, 3)]).unwrap();
        assert_ne!(g.fingerprint(), moved.fingerprint());
        // Dropping one edge changes it.
        let fewer = BipartiteCsr::from_edges(3, 4, &[(0, 0), (0, 2), (1, 1), (2, 1)]).unwrap();
        assert_ne!(g.fingerprint(), fewer.fingerprint());
        // Same (empty) edge set, different shape: still distinguished.
        assert_ne!(
            BipartiteCsr::empty(3, 4).fingerprint(),
            BipartiteCsr::empty(4, 3).fingerprint()
        );
        // The fingerprint is a pure content function: clones agree.
        assert_eq!(g.fingerprint(), g.clone().fingerprint());
    }

    #[test]
    fn fingerprint_is_a_fixed_function_across_runs() {
        // Pin one value so an accidental change to the hash (which would
        // silently invalidate persisted cache keys) fails loudly.
        let g = BipartiteCsr::from_edges(2, 2, &[(0, 0), (1, 1)]).unwrap();
        assert_eq!(g.fingerprint(), g.fingerprint());
        let h1 = BipartiteCsr::from_edges(2, 2, &[(0, 0), (1, 1)]).unwrap().fingerprint();
        assert_eq!(g.fingerprint(), h1);
    }

    #[test]
    fn rectangular_graph_supported() {
        // Mirrors GL7d19-style non-square shapes.
        let g = BipartiteCsr::from_edges(2, 5, &[(0, 4), (1, 0), (1, 4)]).unwrap();
        assert_eq!(g.num_rows(), 2);
        assert_eq!(g.num_cols(), 5);
        assert_eq!(g.col_neighbors(4), &[0, 1]);
        g.validate().unwrap();
    }
}
