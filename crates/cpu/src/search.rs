//! The one augmenting-path search the CPU baselines share.
//!
//! [`Search::augment`] walks alternating paths depth-first from one free
//! vertex on an explicit, reused stack of `(vertex, neighbour cursor)`
//! frames, so a path through every vertex of a graph costs heap, never call
//! stack.  It visits in the order of the textbook recursion: the top frame
//! scans its neighbours from its cursor in one inner loop, steps into the
//! first admitted neighbour's mate, and resumes after that neighbour once
//! the mate's frame is exhausted.  On reaching a free vertex it rewrites the
//! path deepest pair first, as the recursion's unwinding does:
//! `Matching::match_pair` releases the old partners the next pair re-pairs.
//!
//! The cursors index the side's CSR adjacency array, and the top frame
//! lives in locals, so resuming a frame re-derives nothing: looking each
//! frame's neighbour slice up again on every resume cost Hopcroft–Karp's
//! search about 10 % on the Medium mini suite.
//!
//! What one engine's search does differently from another's is an input,
//! never a branch in here: the [`Side`] it starts from and the [`Rules`]
//! that admit each step, enter each vertex and prune each dead end.

use crate::CpuStats;
use gpm_graph::{BipartiteCsr, Matching, VertexId};

/// Epoch-stamped membership over `0..len`: [`EpochMarks::begin`] empties
/// the set in O(1) by advancing the epoch, and clears the stamps only when
/// the epoch wraps.
///
/// The CPU baselines' visited marks (PF+ and P-DBFS's cleanup per pass,
/// HKDW's sweep per phase) and G-HK's path kernels and commit pass in
/// `gpm-core` all use it.
#[derive(Debug, Default)]
pub struct EpochMarks {
    stamps: Vec<u32>,
    epoch: u32,
}

impl EpochMarks {
    /// Starts an empty set over at least `len` items.  The stamps grow to
    /// exactly the largest `len` asked for, so marks kept across solves
    /// hold what the largest graph needs, not a doubling past it.
    #[inline]
    pub fn begin(&mut self, len: usize) {
        if self.stamps.len() < len {
            self.stamps.reserve_exact(len - self.stamps.len());
            self.stamps.resize(len, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamps.fill(0);
            self.epoch = 1;
        }
    }

    /// Whether `i` is in the set.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.stamps[i] == self.epoch
    }

    /// Adds `i`; returns `false` if it was already in the set.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        let fresh = self.stamps[i] != self.epoch;
        self.stamps[i] = self.epoch;
        fresh
    }

    /// The raw stamps and epoch, for tests that start a solve just before
    /// the epoch wraps.
    #[doc(hidden)]
    pub fn raw_parts_mut(&mut self) -> (&mut Vec<u32>, &mut u32) {
        (&mut self.stamps, &mut self.epoch)
    }
}

/// The side a search starts from: a free column looking for a free row, or
/// (HKDW's Duff–Wiberg sweep) a free row looking for a free column.
#[derive(Clone, Copy)]
pub(crate) enum Side {
    Cols,
    Rows,
}

impl Side {
    /// The CSR pointer and adjacency arrays of this side's vertices.
    #[inline]
    fn adjacency(self, g: &BipartiteCsr) -> (&[usize], &[VertexId]) {
        match self {
            Side::Cols => (g.col_ptr(), g.row_idx()),
            Side::Rows => (g.row_ptr(), g.col_idx()),
        }
    }

    #[inline]
    fn mate(self, m: &Matching, u: VertexId) -> Option<VertexId> {
        match self {
            Side::Cols => m.row_mate(u),
            Side::Rows => m.col_mate(u),
        }
    }

    /// Matches the frame vertex `v` with its neighbour `u`.
    #[inline]
    fn pair(self, m: &mut Matching, v: VertexId, u: VertexId) {
        match self {
            Side::Cols => m.match_pair(u, v),
            Side::Rows => m.match_pair(v, u),
        }
    }
}

/// What one engine's search does differently from another's.
pub(crate) trait Rules {
    /// Whether the search may step from `v` through its neighbour `u`,
    /// whose mate is `mate` (`None`: `u` is free and ends the path).
    fn admit(&mut self, v: VertexId, u: VertexId, mate: Option<VertexId>) -> bool;

    /// Runs as the search enters `v`, the root included, before it scans
    /// `v`'s neighbours; a free neighbour it returns ends the path at once.
    fn enter(
        &mut self,
        _g: &BipartiteCsr,
        _m: &Matching,
        _v: VertexId,
        _stats: &mut CpuStats,
    ) -> Option<VertexId> {
        None
    }

    /// Runs as the search pops `v`, every neighbour of which has failed.
    fn dead_end(&mut self, _v: VertexId) {}
}

/// Visited marks: the search steps through each vertex at most once
/// between two [`EpochMarks::begin`]s.
impl Rules for EpochMarks {
    #[inline]
    fn admit(&mut self, _v: VertexId, u: VertexId, _mate: Option<VertexId>) -> bool {
        self.insert(u as usize)
    }
}

/// The search's stack, reused across the searches of one solve.
#[derive(Default)]
pub(crate) struct Search {
    /// The path below its top vertex: each vertex on it, the cursor of the
    /// next of its neighbours to try and the end of its neighbours, both
    /// indices into the side's adjacency array.
    frames: Vec<(VertexId, usize, usize)>,
}

impl Search {
    /// Looks for an augmenting path from the free vertex `root` on `side`
    /// under `rules`, counting every neighbour it scans in `stats`.  Applies
    /// the path and returns `true` if it finds one.
    pub(crate) fn augment(
        &mut self,
        g: &BipartiteCsr,
        m: &mut Matching,
        side: Side,
        root: VertexId,
        rules: &mut impl Rules,
        stats: &mut CpuStats,
    ) -> bool {
        let (ptr, adj) = side.adjacency(g);
        let range = |v: VertexId| (ptr[v as usize], ptr[v as usize + 1]);
        let frames = &mut self.frames;
        frames.clear();
        // The top frame stays in locals; only the frames below it are stored.
        let (mut v, (mut next, mut stop)) = (root, range(root));
        let mut end = rules.enter(g, m, root, stats);
        let free = loop {
            if let Some(u) = end {
                break u;
            }
            let mut hit = None;
            for (j, &u) in adj[next..stop].iter().enumerate() {
                stats.edges_scanned += 1;
                let mate = side.mate(m, u);
                if rules.admit(v, u, mate) {
                    hit = Some((next + j + 1, u, mate));
                    break;
                }
            }
            match hit {
                None => {
                    rules.dead_end(v);
                    let Some(below) = frames.pop() else { return false };
                    (v, next, stop) = below;
                }
                Some((_, u, None)) => break u,
                Some((after, _, Some(w))) => {
                    frames.push((v, after, stop));
                    (v, (next, stop)) = (w, range(w));
                    end = rules.enter(g, m, w, stats);
                }
            }
        };
        // Deepest pair first: each `pair` frees the vertex the next one
        // down re-pairs.
        side.pair(m, v, free);
        for &(v, next, _) in frames.iter().rev() {
            side.pair(m, v, adj[next - 1]);
        }
        true
    }
}
