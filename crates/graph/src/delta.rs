//! Batched mutations of a bipartite graph and in-place CSR patching.
//!
//! The push-relabel formulation of the paper is naturally warm-startable:
//! any valid matching (plus consistent labels) is a legal starting state.
//! That makes incremental re-solving attractive for dynamic-assignment
//! workloads where the graph mutates continuously.  This module provides the
//! graph half of that story:
//!
//! * [`GraphDelta`] — a batch of edge inserts/removes and vertex
//!   additions/clears, with a canonical (sorted, deduplicated, pruned) form;
//! * [`BipartiteCsr::apply_delta`] — patches both CSR orientations by merging
//!   only the adjacency runs of *affected* vertices, instead of re-sorting
//!   the full edge list the way a rebuild does;
//! * [`DeltaLineage`] — the `parent fingerprint → child fingerprint` record
//!   that keys the `patch_graph` API of `gpm-service`.
//!
//! # Semantics
//!
//! A delta is applied in four steps, in this order:
//!
//! 1. the shape grows by [`GraphDelta::add_rows`] / [`GraphDelta::add_cols`]
//!    (new vertices start isolated);
//! 2. every vertex named by [`GraphDelta::clear_row`] /
//!    [`GraphDelta::clear_col`] loses all incident edges (the vertex itself
//!    remains, isolated — indices never shift, which is what keeps matchings
//!    and caches addressable across a patch);
//! 3. every edge in the remove list is deleted (removing an absent edge is a
//!    no-op);
//! 4. every edge in the insert list is added (inserting a present edge is a
//!    no-op).
//!
//! Because the result is built through the same canonical representation as
//! every other constructor, [`BipartiteCsr::fingerprint`] of a patched graph
//! is identical to the fingerprint of a from-scratch rebuild of the same
//! logical edge set — the property the lineage chain depends on.

use crate::{BipartiteCsr, GraphError, Result, VertexId};

/// A batched set of mutations to apply to a [`BipartiteCsr`].
///
/// Build one with the fluent mutators, then hand it to
/// [`BipartiteCsr::apply_delta`].  Bounds are validated at application time
/// (a delta does not know the shape of its base graph); out-of-range vertex
/// references produce the same [`GraphError`] variants as the constructors.
///
/// # Example
///
/// ```
/// use gpm_graph::{BipartiteCsr, GraphDelta};
///
/// let base = BipartiteCsr::from_edges(2, 2, &[(0, 0), (1, 1)]).unwrap();
/// let mut delta = GraphDelta::new();
/// delta.remove_edge(0, 0).insert_edge(0, 1).add_cols(1).insert_edge(1, 2);
/// let (child, lineage) = base.apply_delta_lineage(&delta).unwrap();
/// assert_eq!(child.num_cols(), 3);
/// assert!(child.has_edge(0, 1) && !child.has_edge(0, 0));
/// assert_eq!(lineage.parent, base.fingerprint());
/// assert_eq!(lineage.child, child.fingerprint());
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GraphDelta {
    insert_edges: Vec<(VertexId, VertexId)>,
    remove_edges: Vec<(VertexId, VertexId)>,
    add_rows: usize,
    add_cols: usize,
    clear_rows: Vec<VertexId>,
    clear_cols: Vec<VertexId>,
    canonical: bool,
}

impl GraphDelta {
    /// Creates an empty delta (applying it yields an identical graph).
    pub fn new() -> Self {
        Self { canonical: true, ..Self::default() }
    }

    /// Schedules insertion of the edge `(row, col)`.
    pub fn insert_edge(&mut self, row: VertexId, col: VertexId) -> &mut Self {
        self.insert_edges.push((row, col));
        self.canonical = false;
        self
    }

    /// Schedules removal of the edge `(row, col)`.
    pub fn remove_edge(&mut self, row: VertexId, col: VertexId) -> &mut Self {
        self.remove_edges.push((row, col));
        self.canonical = false;
        self
    }

    /// Schedules insertion of every edge from the iterator.
    pub fn extend_inserts<I>(&mut self, edges: I) -> &mut Self
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
    {
        self.insert_edges.extend(edges);
        self.canonical = false;
        self
    }

    /// Schedules removal of every edge from the iterator.
    pub fn extend_removes<I>(&mut self, edges: I) -> &mut Self
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
    {
        self.remove_edges.extend(edges);
        self.canonical = false;
        self
    }

    /// Grows the row side by `n` new (isolated) vertices.
    pub fn add_rows(&mut self, n: usize) -> &mut Self {
        self.add_rows += n;
        self
    }

    /// Grows the column side by `n` new (isolated) vertices.
    pub fn add_cols(&mut self, n: usize) -> &mut Self {
        self.add_cols += n;
        self
    }

    /// Drops every edge incident to row `r`, leaving the vertex isolated.
    ///
    /// This is the delta's notion of *removing* a vertex: indices never
    /// shift, so matchings, caches, and lineage keys stay addressable.
    pub fn clear_row(&mut self, r: VertexId) -> &mut Self {
        self.clear_rows.push(r);
        self.canonical = false;
        self
    }

    /// Drops every edge incident to column `c`, leaving the vertex isolated.
    pub fn clear_col(&mut self, c: VertexId) -> &mut Self {
        self.clear_cols.push(c);
        self.canonical = false;
        self
    }

    /// Number of rows the delta adds to the shape.
    pub fn added_rows(&self) -> usize {
        self.add_rows
    }

    /// Number of columns the delta adds to the shape.
    pub fn added_cols(&self) -> usize {
        self.add_cols
    }

    /// The (possibly non-canonical) scheduled edge insertions.
    pub fn inserts(&self) -> &[(VertexId, VertexId)] {
        &self.insert_edges
    }

    /// The (possibly non-canonical) scheduled edge removals.
    pub fn removes(&self) -> &[(VertexId, VertexId)] {
        &self.remove_edges
    }

    /// Rows scheduled to lose all incident edges.
    pub fn cleared_rows(&self) -> &[VertexId] {
        &self.clear_rows
    }

    /// Columns scheduled to lose all incident edges.
    pub fn cleared_cols(&self) -> &[VertexId] {
        &self.clear_cols
    }

    /// `true` when the delta schedules no mutation at all.
    pub fn is_empty(&self) -> bool {
        self.insert_edges.is_empty()
            && self.remove_edges.is_empty()
            && self.clear_rows.is_empty()
            && self.clear_cols.is_empty()
            && self.add_rows == 0
            && self.add_cols == 0
    }

    /// `true` when the delta can add edges to the graph.
    ///
    /// Warm-restart callers use this to decide whether previously proven
    /// "unmatchable" sentinels must be reset: new edges anywhere can create
    /// augmenting paths to columns whose own adjacency never changed.
    pub fn inserts_edges(&self) -> bool {
        !self.insert_edges.is_empty()
    }

    /// `true` if the lists are sorted, deduplicated, and pruned.
    pub fn is_canonical(&self) -> bool {
        self.canonical
    }

    /// Puts the delta into canonical form: every list sorted and
    /// deduplicated, and removals that are shadowed by an insertion of the
    /// same edge (insertions apply last) or by a clear of an endpoint
    /// (already dropped) pruned away.
    pub fn canonicalize(&mut self) {
        self.insert_edges.sort_unstable();
        self.insert_edges.dedup();
        self.clear_rows.sort_unstable();
        self.clear_rows.dedup();
        self.clear_cols.sort_unstable();
        self.clear_cols.dedup();
        self.remove_edges.sort_unstable();
        self.remove_edges.dedup();
        let (ins, cr, cc) = (&self.insert_edges, &self.clear_rows, &self.clear_cols);
        self.remove_edges.retain(|&(r, c)| {
            ins.binary_search(&(r, c)).is_err()
                && cr.binary_search(&r).is_err()
                && cc.binary_search(&c).is_err()
        });
        self.canonical = true;
    }

    /// Returns a canonical copy, leaving `self` untouched.
    pub fn to_canonical(&self) -> Self {
        let mut d = self.clone();
        d.canonicalize();
        d
    }

    /// An upper bound on the number of edge slots this delta touches when
    /// applied to `base`: explicit inserts + removes + the degrees of every
    /// cleared vertex.  Used by warm-restart callers to decide whether a
    /// patch is small enough to be worth resolving incrementally.
    pub fn touched_edge_bound(&self, base: &BipartiteCsr) -> usize {
        let mut n = self.insert_edges.len() + self.remove_edges.len();
        for &r in &self.clear_rows {
            if (r as usize) < base.num_rows() {
                n += base.row_degree(r);
            }
        }
        for &c in &self.clear_cols {
            if (c as usize) < base.num_cols() {
                n += base.col_degree(c);
            }
        }
        n
    }

    /// Sorted, deduplicated list of columns whose incident edge set changes
    /// when the delta is applied to `base` (including columns the delta
    /// creates with edges).  This is exactly the set a warm-restart solver
    /// seeds its worklist from.
    pub fn touched_cols(&self, base: &BipartiteCsr) -> Vec<VertexId> {
        let mut cols: Vec<VertexId> = self
            .insert_edges
            .iter()
            .chain(self.remove_edges.iter())
            .map(|&(_, c)| c)
            .chain(self.clear_cols.iter().copied())
            .collect();
        for &r in &self.clear_rows {
            if (r as usize) < base.num_rows() {
                cols.extend_from_slice(base.row_neighbors(r));
            }
        }
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    /// Sorted, deduplicated list of rows whose incident edge set changes when
    /// the delta is applied to `base`.  Mirror of [`Self::touched_cols`].
    pub fn touched_rows(&self, base: &BipartiteCsr) -> Vec<VertexId> {
        let mut rows: Vec<VertexId> = self
            .insert_edges
            .iter()
            .chain(self.remove_edges.iter())
            .map(|&(r, _)| r)
            .chain(self.clear_rows.iter().copied())
            .collect();
        for &c in &self.clear_cols {
            if (c as usize) < base.num_cols() {
                rows.extend_from_slice(base.col_neighbors(c));
            }
        }
        rows.sort_unstable();
        rows.dedup();
        rows
    }
}

/// The provenance record of one [`BipartiteCsr::apply_delta`] application:
/// which fingerprint the patch started from and which it produced.
///
/// `gpm-service` chains these records to key its `patch_graph` wire op: every
/// fingerprint in a chain resolves to the chain's root for shard placement,
/// so a graph and all of its patched descendants live on one home shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DeltaLineage {
    /// Fingerprint of the graph the delta was applied to.
    pub parent: u64,
    /// Fingerprint of the patched graph.
    pub child: u64,
}

/// Merges one adjacency run: `old` (minus removals and cleared endpoints)
/// union `ins`.  All inputs sorted; output appended to `out` sorted and
/// duplicate-free.
fn merge_run(
    old: &[VertexId],
    removes: &[VertexId],
    ins: &[VertexId],
    drop_all_old: bool,
    endpoint_cleared: &[bool],
    out: &mut Vec<VertexId>,
) {
    let mut oi = 0;
    let mut ii = 0;
    let keep = |v: VertexId, removes: &[VertexId]| {
        !drop_all_old && !endpoint_cleared[v as usize] && removes.binary_search(&v).is_err()
    };
    while oi < old.len() || ii < ins.len() {
        let o = old.get(oi).copied().filter(|&v| keep(v, removes));
        match (o, ins.get(ii).copied()) {
            (Some(a), Some(b)) if a < b => {
                out.push(a);
                oi += 1;
            }
            (Some(a), Some(b)) if a > b => {
                out.push(b);
                ii += 1;
            }
            (Some(a), Some(_)) => {
                // equal: the insert is a no-op on a surviving edge
                out.push(a);
                oi += 1;
                ii += 1;
            }
            (Some(a), None) => {
                out.push(a);
                oi += 1;
            }
            (None, Some(b)) if oi >= old.len() => {
                out.push(b);
                ii += 1;
            }
            (None, _) => {
                // current old entry filtered out; skip it and re-compare
                oi += 1;
            }
        }
    }
}

/// Splits a sorted edge list into the run belonging to major index `v`,
/// advancing the cursor.
fn take_run<'a>(
    edges: &'a [(VertexId, VertexId)],
    cursor: &mut usize,
    v: VertexId,
    major_is_row: bool,
) -> &'a [(VertexId, VertexId)] {
    let start = *cursor;
    let major = |e: &(VertexId, VertexId)| if major_is_row { e.0 } else { e.1 };
    while *cursor < edges.len() && major(&edges[*cursor]) == v {
        *cursor += 1;
    }
    &edges[start..*cursor]
}

impl BipartiteCsr {
    /// Applies a [`GraphDelta`], producing the patched graph.
    ///
    /// Both CSR orientations are patched by merging the adjacency runs of
    /// affected vertices only; untouched runs are copied verbatim.  No
    /// global edge sort takes place, so the work beyond the unavoidable
    /// `O(V + τ)` array copy is proportional to the delta's footprint
    /// (touched vertices and their degrees), not to `τ log τ` like a rebuild
    /// via [`BipartiteCsr::from_edges`].
    ///
    /// The result is canonical, so its [`BipartiteCsr::fingerprint`] equals
    /// that of a from-scratch rebuild of the same logical edge set.
    ///
    /// Errors if the *patched* shape (base shape plus
    /// [`GraphDelta::add_rows`] / [`GraphDelta::add_cols`]) has a side above
    /// [`VertexId::MAX`] vertices, or if an insert, remove, or clear
    /// references a vertex outside it.
    pub fn apply_delta(&self, delta: &GraphDelta) -> Result<Self> {
        let canon;
        let d = if delta.is_canonical() {
            delta
        } else {
            canon = delta.to_canonical();
            &canon
        };
        let grown =
            (self.num_rows().checked_add(d.add_rows), self.num_cols().checked_add(d.add_cols));
        let (Some(new_rows), Some(new_cols)) = grown else {
            return Err(GraphError::InvalidCsr("the patched shape overflows usize".into()));
        };
        Self::check_shape(new_rows, new_cols)?;
        for &(r, c) in d.insert_edges.iter().chain(d.remove_edges.iter()) {
            if (r as usize) >= new_rows {
                return Err(GraphError::RowOutOfBounds { row: r, num_rows: new_rows });
            }
            if (c as usize) >= new_cols {
                return Err(GraphError::ColOutOfBounds { col: c, num_cols: new_cols });
            }
        }
        for &r in &d.clear_rows {
            if (r as usize) >= new_rows {
                return Err(GraphError::RowOutOfBounds { row: r, num_rows: new_rows });
            }
        }
        for &c in &d.clear_cols {
            if (c as usize) >= new_cols {
                return Err(GraphError::ColOutOfBounds { col: c, num_cols: new_cols });
            }
        }

        let mut row_cleared = vec![false; new_rows];
        for &r in &d.clear_rows {
            row_cleared[r as usize] = true;
        }
        let mut col_cleared = vec![false; new_cols];
        for &c in &d.clear_cols {
            col_cleared[c as usize] = true;
        }

        // A vertex is affected when its adjacency run can differ from the
        // base graph's; only affected runs are merged, the rest are memcpy'd.
        let mut row_affected = vec![false; new_rows];
        let mut col_affected = vec![false; new_cols];
        for &(r, c) in d.insert_edges.iter().chain(d.remove_edges.iter()) {
            row_affected[r as usize] = true;
            col_affected[c as usize] = true;
        }
        for &r in &d.clear_rows {
            row_affected[r as usize] = true;
            if (r as usize) < self.num_rows() {
                for &c in self.row_neighbors(r) {
                    col_affected[c as usize] = true;
                }
            }
        }
        for &c in &d.clear_cols {
            col_affected[c as usize] = true;
            if (c as usize) < self.num_cols() {
                for &r in self.col_neighbors(c) {
                    row_affected[r as usize] = true;
                }
            }
        }

        // Row orientation: insert/remove lists are already sorted by (row,
        // col), so a single cursor pass yields each row's run.
        let cap = self.num_edges() + d.insert_edges.len();
        let mut row_ptr = Vec::with_capacity(new_rows + 1);
        row_ptr.push(0usize);
        let mut col_idx: Vec<VertexId> = Vec::with_capacity(cap);
        let (mut ins_cur, mut rem_cur) = (0usize, 0usize);
        let mut run_buf: Vec<VertexId> = Vec::new();
        let mut rem_buf: Vec<VertexId> = Vec::new();
        for r in 0..new_rows as VertexId {
            let ins_run = take_run(&d.insert_edges, &mut ins_cur, r, true);
            let rem_run = take_run(&d.remove_edges, &mut rem_cur, r, true);
            let old_run: &[VertexId] =
                if (r as usize) < self.num_rows() { self.row_neighbors(r) } else { &[] };
            if !row_affected[r as usize] {
                col_idx.extend_from_slice(old_run);
            } else {
                run_buf.clear();
                run_buf.extend(ins_run.iter().map(|&(_, c)| c));
                rem_buf.clear();
                rem_buf.extend(rem_run.iter().map(|&(_, c)| c));
                merge_run(
                    old_run,
                    &rem_buf,
                    &run_buf,
                    row_cleared[r as usize],
                    &col_cleared,
                    &mut col_idx,
                );
            }
            row_ptr.push(col_idx.len());
        }

        // Column orientation: re-sort the (small) delta lists by (col, row)
        // and do the mirror pass.
        let mut ins_by_col = d.insert_edges.clone();
        ins_by_col.sort_unstable_by_key(|&(r, c)| (c, r));
        let mut rem_by_col = d.remove_edges.clone();
        rem_by_col.sort_unstable_by_key(|&(r, c)| (c, r));
        let mut col_ptr = Vec::with_capacity(new_cols + 1);
        col_ptr.push(0usize);
        let mut row_idx: Vec<VertexId> = Vec::with_capacity(col_idx.len());
        let (mut ins_cur, mut rem_cur) = (0usize, 0usize);
        for c in 0..new_cols as VertexId {
            let ins_run = take_run(&ins_by_col, &mut ins_cur, c, false);
            let rem_run = take_run(&rem_by_col, &mut rem_cur, c, false);
            let old_run: &[VertexId] =
                if (c as usize) < self.num_cols() { self.col_neighbors(c) } else { &[] };
            if !col_affected[c as usize] {
                row_idx.extend_from_slice(old_run);
            } else {
                run_buf.clear();
                run_buf.extend(ins_run.iter().map(|&(r, _)| r));
                rem_buf.clear();
                rem_buf.extend(rem_run.iter().map(|&(r, _)| r));
                merge_run(
                    old_run,
                    &rem_buf,
                    &run_buf,
                    col_cleared[c as usize],
                    &row_cleared,
                    &mut row_idx,
                );
            }
            col_ptr.push(row_idx.len());
        }

        debug_assert_eq!(col_idx.len(), row_idx.len(), "orientations disagree after patch");
        Ok(Self::from_raw_parts(new_rows, new_cols, row_ptr, col_idx, col_ptr, row_idx))
    }

    /// Like [`Self::apply_delta`], additionally returning the
    /// parent-to-child [`DeltaLineage`] record.
    pub fn apply_delta_lineage(&self, delta: &GraphDelta) -> Result<(Self, DeltaLineage)> {
        let child = self.apply_delta(delta)?;
        let lineage = DeltaLineage { parent: self.fingerprint(), child: child.fingerprint() };
        Ok((child, lineage))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> BipartiteCsr {
        BipartiteCsr::from_edges(3, 4, &[(0, 0), (0, 2), (1, 1), (2, 1), (2, 3)]).unwrap()
    }

    /// Oracle: apply the delta naively through an edge-set rebuild.
    fn rebuild(baseg: &BipartiteCsr, d: &GraphDelta) -> BipartiteCsr {
        let d = d.to_canonical();
        let new_rows = baseg.num_rows() + d.added_rows();
        let new_cols = baseg.num_cols() + d.added_cols();
        let mut edges: Vec<(VertexId, VertexId)> = baseg
            .edges()
            .filter(|&(r, c)| {
                d.cleared_rows().binary_search(&r).is_err()
                    && d.cleared_cols().binary_search(&c).is_err()
                    && d.removes().binary_search(&(r, c)).is_err()
            })
            .collect();
        edges.extend_from_slice(d.inserts());
        BipartiteCsr::from_edges(new_rows, new_cols, &edges).unwrap()
    }

    #[test]
    fn empty_delta_is_identity() {
        let g = base();
        let d = GraphDelta::new();
        assert!(d.is_empty() && d.is_canonical());
        let g2 = g.apply_delta(&d).unwrap();
        assert_eq!(g, g2);
        assert_eq!(g.fingerprint(), g2.fingerprint());
    }

    #[test]
    fn insert_and_remove_edges() {
        let g = base();
        let mut d = GraphDelta::new();
        d.insert_edge(1, 3).remove_edge(0, 0);
        let g2 = g.apply_delta(&d).unwrap();
        assert!(g2.has_edge(1, 3));
        assert!(!g2.has_edge(0, 0));
        assert_eq!(g2.num_edges(), g.num_edges());
        g2.validate().unwrap();
        assert_eq!(g2, rebuild(&g, &d));
    }

    #[test]
    fn insert_existing_and_remove_absent_are_noops() {
        let g = base();
        let mut d = GraphDelta::new();
        d.insert_edge(0, 0).remove_edge(1, 3);
        let g2 = g.apply_delta(&d).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn remove_then_insert_same_edge_keeps_it() {
        let g = base();
        let mut d = GraphDelta::new();
        d.remove_edge(0, 0).insert_edge(0, 0);
        let g2 = g.apply_delta(&d).unwrap();
        assert!(g2.has_edge(0, 0));
        assert_eq!(g, g2);
    }

    #[test]
    fn add_vertices_grows_shape_isolated() {
        let g = base();
        let mut d = GraphDelta::new();
        d.add_rows(2).add_cols(1);
        let g2 = g.apply_delta(&d).unwrap();
        assert_eq!(g2.num_rows(), 5);
        assert_eq!(g2.num_cols(), 5);
        assert_eq!(g2.num_edges(), g.num_edges());
        assert_eq!(g2.row_degree(3), 0);
        assert_eq!(g2.col_degree(4), 0);
        g2.validate().unwrap();
        // Shape participates in the fingerprint, so lineage still advances.
        assert_ne!(g.fingerprint(), g2.fingerprint());
    }

    #[test]
    fn insert_into_new_vertices() {
        let g = base();
        let mut d = GraphDelta::new();
        d.add_rows(1).add_cols(1).insert_edge(3, 4).insert_edge(3, 0);
        let g2 = g.apply_delta(&d).unwrap();
        assert_eq!(g2.row_neighbors(3), &[0, 4]);
        assert_eq!(g2.col_neighbors(4), &[3]);
        g2.validate().unwrap();
        assert_eq!(g2, rebuild(&g, &d));
    }

    #[test]
    fn clear_row_drops_incident_edges_only() {
        let g = base();
        let mut d = GraphDelta::new();
        d.clear_row(2);
        let g2 = g.apply_delta(&d).unwrap();
        assert_eq!(g2.row_degree(2), 0);
        assert_eq!(g2.num_rows(), 3);
        assert!(g2.has_edge(1, 1));
        assert_eq!(g2.col_neighbors(1), &[1]);
        assert_eq!(g2.col_degree(3), 0);
        g2.validate().unwrap();
        assert_eq!(g2, rebuild(&g, &d));
    }

    #[test]
    fn clear_col_then_reinsert() {
        let g = base();
        let mut d = GraphDelta::new();
        d.clear_col(1).insert_edge(0, 1);
        let g2 = g.apply_delta(&d).unwrap();
        assert_eq!(g2.col_neighbors(1), &[0]);
        assert!(!g2.has_edge(1, 1) && !g2.has_edge(2, 1));
        g2.validate().unwrap();
        assert_eq!(g2, rebuild(&g, &d));
    }

    #[test]
    fn out_of_bounds_references_rejected() {
        let g = base();
        let mut d = GraphDelta::new();
        d.insert_edge(3, 0);
        assert!(matches!(g.apply_delta(&d), Err(GraphError::RowOutOfBounds { .. })));
        let mut d = GraphDelta::new();
        d.remove_edge(0, 9);
        assert!(matches!(g.apply_delta(&d), Err(GraphError::ColOutOfBounds { .. })));
        let mut d = GraphDelta::new();
        d.clear_row(7);
        assert!(g.apply_delta(&d).is_err());
        let mut d = GraphDelta::new();
        d.clear_col(9);
        assert!(g.apply_delta(&d).is_err());
        // ...but a reference made in-range by add_rows/add_cols is fine.
        let mut d = GraphDelta::new();
        d.add_rows(1).insert_edge(3, 0);
        assert!(g.apply_delta(&d).is_ok());
    }

    #[test]
    fn growth_beyond_the_vertex_id_range_is_rejected() {
        let g = base();
        for added in [VertexId::MAX as usize, 100_000_000_000_000, usize::MAX] {
            let mut d = GraphDelta::new();
            d.add_rows(added);
            assert!(matches!(g.apply_delta(&d), Err(GraphError::InvalidCsr(_))), "{added} rows");
            let mut d = GraphDelta::new();
            d.add_cols(added);
            assert!(matches!(g.apply_delta(&d), Err(GraphError::InvalidCsr(_))), "{added} cols");
        }
    }

    #[test]
    fn canonicalize_sorts_dedups_and_prunes() {
        let mut d = GraphDelta::new();
        d.insert_edge(1, 1)
            .insert_edge(0, 0)
            .insert_edge(1, 1)
            .remove_edge(1, 1) // shadowed by the insert
            .remove_edge(1, 0)
            .remove_edge(2, 1) // shadowed by clear_row(2)
            .remove_edge(0, 3) // shadowed by clear_col(3)
            .clear_row(2)
            .clear_row(2)
            .clear_col(3);
        assert!(!d.is_canonical());
        d.canonicalize();
        assert!(d.is_canonical());
        assert_eq!(d.inserts(), &[(0, 0), (1, 1)]);
        assert_eq!(d.removes(), &[(1, 0)]);
        assert_eq!(d.cleared_rows(), &[2]);
        assert_eq!(d.cleared_cols(), &[3]);
    }

    #[test]
    fn fingerprint_matches_rebuild_from_scratch() {
        let g = base();
        let mut d = GraphDelta::new();
        d.remove_edge(2, 1).insert_edge(1, 0).add_cols(1).insert_edge(0, 4).clear_row(0);
        let (g2, lineage) = g.apply_delta_lineage(&d).unwrap();
        let oracle = rebuild(&g, &d);
        assert_eq!(g2, oracle);
        assert_eq!(g2.fingerprint(), oracle.fingerprint());
        assert_eq!(lineage.parent, g.fingerprint());
        assert_eq!(lineage.child, g2.fingerprint());
    }

    #[test]
    fn touched_sets_cover_delta_footprint() {
        let g = base();
        let mut d = GraphDelta::new();
        d.insert_edge(1, 3).remove_edge(0, 0).clear_row(2).clear_col(2);
        let cols = d.touched_cols(&g);
        // 3 (insert), 0 (remove), 2 (cleared col), 1 and 3 (neighbors of
        // cleared row 2)
        assert_eq!(cols, vec![0, 1, 2, 3]);
        let rows = d.touched_rows(&g);
        // 1 (insert), 0 (remove), 2 (cleared row), 0 (neighbor of cleared
        // col 2)
        assert_eq!(rows, vec![0, 1, 2]);
        assert_eq!(d.touched_edge_bound(&g), 1 + 1 + 2 + 1);
    }

    #[test]
    fn apply_on_empty_base() {
        let g = BipartiteCsr::empty(0, 0);
        let mut d = GraphDelta::new();
        d.add_rows(2).add_cols(2).insert_edge(0, 1).insert_edge(1, 0);
        let g2 = g.apply_delta(&d).unwrap();
        assert_eq!(g2.num_edges(), 2);
        g2.validate().unwrap();
        assert_eq!(g2, rebuild(&g, &d));
    }

    #[test]
    fn chained_deltas_compose() {
        let g0 = base();
        let mut d1 = GraphDelta::new();
        d1.remove_edge(0, 0);
        let (g1, l1) = g0.apply_delta_lineage(&d1).unwrap();
        let mut d2 = GraphDelta::new();
        d2.insert_edge(0, 0);
        let (g2, l2) = g1.apply_delta_lineage(&d2).unwrap();
        assert_eq!(l1.child, l2.parent);
        assert_eq!(g2, g0);
        assert_eq!(g2.fingerprint(), g0.fingerprint());
    }
}
