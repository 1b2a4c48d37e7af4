//! Device-side state shared by the GPU matching kernels.
//!
//! The paper keeps two arrays on the device: the label array `ψ(·)` and the
//! matching array `µ(·)`, both indexed by vertex (rows first, then columns).
//! For clarity this module splits each into its row and column halves, but
//! the semantics — including the sentinel values `µ = −1` (unmatched) and
//! `µ = −2` (unmatchable column) — are identical.

use gpm_gpu::DeviceBuffer;
use gpm_graph::{BipartiteCsr, Matching, VertexId};

/// `µ` sentinel: vertex is unmatched.
pub const MU_UNMATCHED: i64 = -1;
/// `µ` sentinel: column has been proven unmatchable ("inactive").
pub const MU_UNMATCHABLE: i64 = -2;

/// Device-resident matching and label state.
///
/// The graph's CSR arrays are read-only and shared with the host — the
/// virtual GPU has no separate address space, so "copying the graph to the
/// device" is represented by kernels capturing `&BipartiteCsr`.
#[derive(Debug)]
pub struct DeviceState {
    /// Labels of row vertices (`ψ(u)` for `u ∈ V_R`).
    pub psi_row: DeviceBuffer<u32>,
    /// Labels of column vertices (`ψ(v)` for `v ∈ V_C`).
    pub psi_col: DeviceBuffer<u32>,
    /// Matching entries of row vertices (`µ(u)`).
    pub mu_row: DeviceBuffer<i64>,
    /// Matching entries of column vertices (`µ(v)`).
    pub mu_col: DeviceBuffer<i64>,
    /// The label value meaning "unreachable" (`m + n`).
    pub unreachable: u32,
}

impl DeviceState {
    /// Uploads the initial matching to the device and initializes labels to
    /// the paper's starting values (`ψ(u) = 0`, `ψ(v) = 1`).
    pub fn upload(graph: &BipartiteCsr, initial: &Matching) -> Self {
        let mut state = Self {
            psi_row: DeviceBuffer::new(0, 0),
            psi_col: DeviceBuffer::new(0, 0),
            mu_row: DeviceBuffer::new(0, 0),
            mu_col: DeviceBuffer::new(0, 0),
            unreachable: 0,
        };
        state.reset(graph, initial);
        state
    }

    /// Re-uploads a matching into an existing state, reshaping its four
    /// device buffers to the graph in their own allocations (the
    /// warm-session equivalent of [`DeviceState::upload`]): a smaller graph
    /// truncates them, a larger one grows them to exactly its size.
    ///
    /// # Panics
    /// Panics if the matching's shape differs from the graph's.
    pub fn reset(&mut self, graph: &BipartiteCsr, initial: &Matching) {
        let (m, n) = (graph.num_rows(), graph.num_cols());
        assert_eq!(initial.num_rows(), m, "initial matching shape mismatch");
        assert_eq!(initial.num_cols(), n, "initial matching shape mismatch");
        self.psi_row.reshape(m, 0);
        self.psi_col.reshape(n, 1);
        self.mu_row.reshape_from_slice(initial.row_mates());
        self.mu_col.reshape_from_slice(initial.col_mates());
        self.unreachable = (m + n) as u32;
    }

    /// Workspace hook: populates `slot` with an uploaded state, reusing the
    /// previous state's buffers whatever the graph's shape (see
    /// [`DeviceState::reset`]), so a warm slot holds as much as its largest
    /// graph needs.
    pub fn upload_into<'a>(
        slot: &'a mut Option<DeviceState>,
        graph: &BipartiteCsr,
        initial: &Matching,
    ) -> &'a DeviceState {
        match slot {
            Some(state) => state.reset(graph, initial),
            None => *slot = Some(DeviceState::upload(graph, initial)),
        }
        slot.as_ref().expect("slot populated above")
    }

    /// `true` when column `v` is *active*: not marked unmatchable, and either
    /// unmatched or matched inconsistently (`µ(µ(v)) ≠ v`) — the condition of
    /// line 3 of the paper's G-PR-KRNL.
    #[inline]
    pub fn is_col_active(&self, v: VertexId) -> bool {
        let mu_v = self.mu_col.get(v as usize);
        if mu_v == MU_UNMATCHABLE {
            return false;
        }
        if mu_v == MU_UNMATCHED {
            return true;
        }
        self.mu_row.get(mu_v as usize) != v as i64
    }

    /// Downloads `µ` from the device and repairs column-side inconsistencies
    /// (the `FIXMATCHING` kernel runs on the device first; this also converts
    /// the raw arrays into a host [`Matching`]).
    pub fn download_matching(&self) -> Matching {
        let mut matching = Matching::from_raw(self.mu_row.to_vec(), self.mu_col.to_vec());
        matching.fix_from_rows();
        matching
    }

    /// Number of row vertices.
    pub fn num_rows(&self) -> usize {
        self.mu_row.len()
    }

    /// Number of column vertices.
    pub fn num_cols(&self) -> usize {
        self.mu_col.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_graph::heuristics::cheap_matching;
    use gpm_graph::{gen, Matching};

    #[test]
    fn upload_initializes_labels_like_the_paper() {
        let g = gen::uniform_random(10, 12, 30, 1).unwrap();
        let st = DeviceState::upload(&g, &Matching::empty_for(&g));
        assert_eq!(st.psi_row.to_vec(), vec![0u32; 10]);
        assert_eq!(st.psi_col.to_vec(), vec![1u32; 12]);
        assert_eq!(st.unreachable, 22);
        assert_eq!(st.num_rows(), 10);
        assert_eq!(st.num_cols(), 12);
    }

    #[test]
    fn upload_carries_initial_matching() {
        let g = gen::planted_perfect(20, 40, 2).unwrap();
        let im = cheap_matching(&g);
        let st = DeviceState::upload(&g, &im);
        assert_eq!(st.mu_row.to_vec(), im.row_mates());
        assert_eq!(st.mu_col.to_vec(), im.col_mates());
        let down = st.download_matching();
        assert_eq!(down.cardinality(), im.cardinality());
    }

    #[test]
    fn active_column_conditions() {
        let g = gen::uniform_random(4, 4, 10, 3).unwrap();
        let st = DeviceState::upload(&g, &Matching::empty_for(&g));
        // all columns unmatched → active
        for v in 0..4u32 {
            assert!(st.is_col_active(v));
        }
        // a consistent match → inactive
        st.mu_col.set(0, 2);
        st.mu_row.set(2, 0);
        assert!(!st.is_col_active(0));
        // an inconsistent match → active again
        st.mu_row.set(2, 3);
        assert!(st.is_col_active(0));
        // unmatchable → inactive
        st.mu_col.set(1, MU_UNMATCHABLE);
        assert!(!st.is_col_active(1));
    }

    #[test]
    fn download_repairs_column_inconsistencies() {
        let g = gen::uniform_random(3, 3, 9, 4).unwrap();
        let st = DeviceState::upload(&g, &Matching::empty_for(&g));
        // both columns 0 and 1 claim row 0; the row agrees with column 1
        st.mu_col.set(0, 0);
        st.mu_col.set(1, 0);
        st.mu_row.set(0, 1);
        let m = st.download_matching();
        assert!(m.is_consistent());
        assert_eq!(m.cardinality(), 1);
        assert_eq!(m.col_mate(1), Some(0));
        assert_eq!(m.col_mate(0), None);
    }

    #[test]
    fn upload_into_reuses_matching_shapes() {
        let g = gen::uniform_random(8, 9, 30, 2).unwrap();
        let mut slot: Option<DeviceState> = None;
        {
            let st = DeviceState::upload_into(&mut slot, &g, &Matching::empty_for(&g));
            st.mu_col.set(0, 3);
            st.psi_col.set(0, 17);
        }
        // Same shape: buffers are reset in place, stale values are gone.
        let im = cheap_matching(&g);
        let st = DeviceState::upload_into(&mut slot, &g, &im);
        assert_eq!(st.psi_col.get(0), 1);
        assert_eq!(st.mu_col.to_vec(), im.col_mates());
        // Different shape: the same buffers are reshaped to it.
        let g2 = gen::uniform_random(5, 5, 12, 3).unwrap();
        let st = DeviceState::upload_into(&mut slot, &g2, &Matching::empty_for(&g2));
        assert_eq!(st.num_rows(), 5);
        assert_eq!(st.num_cols(), 5);
        assert_eq!(st.mu_row.capacity(), 8);
    }

    #[test]
    fn reshaped_states_equal_fresh_uploads() {
        // Large → small → large: every word of a reshaped state is the
        // fresh upload's, none left over from an earlier graph.
        let graphs = [
            gen::uniform_random(40, 30, 200, 4).unwrap(),
            gen::uniform_random(12, 25, 60, 5).unwrap(),
            gen::uniform_random(35, 45, 220, 6).unwrap(),
        ];
        let mut slot: Option<DeviceState> = None;
        for g in graphs.iter().chain(&graphs) {
            let im = cheap_matching(g);
            let st = DeviceState::upload_into(&mut slot, g, &im);
            let fresh = DeviceState::upload(g, &im);
            assert_eq!(st.psi_row.to_vec(), fresh.psi_row.to_vec());
            assert_eq!(st.psi_col.to_vec(), fresh.psi_col.to_vec());
            assert_eq!(st.mu_row.to_vec(), fresh.mu_row.to_vec());
            assert_eq!(st.mu_col.to_vec(), fresh.mu_col.to_vec());
            assert_eq!(st.unreachable, fresh.unreachable);
            // Dirty every word so the next upload must overwrite them.
            st.psi_row.fill(9);
            st.psi_col.fill(9);
            st.mu_row.fill(7);
            st.mu_col.fill(7);
        }
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn upload_rejects_mismatched_matching() {
        let g = gen::uniform_random(4, 4, 8, 5).unwrap();
        let wrong = Matching::empty(3, 4);
        let _ = DeviceState::upload(&g, &wrong);
    }
}
