//! The device worklist: one API over four active-set representations.
//!
//! Every frontier-driven engine in the workspace — the paper's G-PR
//! push-relabel kernels, the G-GR global-relabeling BFS, and the G-HK /
//! G-HKDW phase BFS — iterates a set of *active* vertices in rounds, adds
//! vertices for the next round while processing the current one, and
//! periodically rebuilds the set.  How that set is **represented on the
//! device** is the performance knob the paper's Section III-C is about, so
//! this module factors it out as a [`Worklist`] with four interchangeable
//! [`WorklistMode`]s:
//!
//! * [`WorklistMode::DenseStamp`] — membership is a per-vertex stamp (the
//!   paper's `iA` array); iteration scans the whole slot list (or domain)
//!   every round.  Zero device bookkeeping between rounds, full-width
//!   launches.  This is the representation behind `G-PR-NoShr` and the
//!   paper's dense level-synchronous BFS kernels.  A dense BFS level and a
//!   slot round are *priced* as their full grid but *executed* over their
//!   members and live slots only (see [Dense frontiers and slot lists on
//!   the host](#dense-frontiers-and-slot-lists-on-the-host)).
//! * [`WorklistMode::Compacted`] — `G-PR-Shr`'s representation.  The slot
//!   list is rebuilt on request by the paper's `G-PR-SHRKRNL` pattern (a
//!   count pass, a device
//!   [exclusive prefix sum](crate::primitives::exclusive_prefix_sum), and a
//!   scatter into private regions), so later launches cover only live
//!   entries; between compactions its rounds run their live slots only, as
//!   the dense list's do.  BFS frontiers advance by the per-item
//!   device-side append of [`WorklistMode::AtomicQueue`], so a level costs
//!   work and launches in proportion to its frontier, never a domain scan.
//! * [`WorklistMode::AtomicQueue`] — vertices for the next round are
//!   **appended device-side** with an atomic fetch-add
//!   ([`DeviceQueue`]), the worklist-centric design of the GPU BFS
//!   literature.  No scan of any kind runs between rounds: the next launch
//!   is exactly as wide as the number of appended items, which makes this
//!   the representation of choice for launch-bound instances whose active
//!   set collapses quickly.  Every push, however, funnels through the one
//!   queue-tail word, and the device model charges same-address atomics a
//!   serialization cost — the single-tail bottleneck.
//! * [`WorklistMode::BlockedQueue`] — the same append-driven design, but
//!   pushes claim cache-line-sized **slot blocks** (one `fetch_add` per
//!   [`primitives::QUEUE_BLOCK`] slots, held in a per-worker thread-local
//!   cursor) instead of single slots, cutting tail contention by the block
//!   factor.  Partial blocks leave holes; a *wide* round handoff runs a
//!   cheap two-pass *stitch* over at most one block per claim — not a
//!   domain scan — fused into the preceding launch's tail
//!   ([`VirtualGpu::launch_fused`]), compacting the claimed blocks into the
//!   dense prefix the next round launches over.  Rounds narrower than one
//!   warp-issue quantum skip the stitch and adopt the claimed blocks
//!   verbatim: iteration skips the hole markers, and at that width the
//!   holes cannot cost an extra issue round while the stitch passes would.
//!
//! # Protocols
//!
//! Two engine shapes are supported over the same storage:
//!
//! * the **slot protocol** ([`Worklist::begin_round`] /
//!   [`Worklist::for_each_active`] / [`Worklist::end_round`]) reproduces the
//!   paper's two-array `A_c`/`A_p` scheme: each slot remembers the item it
//!   processed so a push rolled back by a benign race is retried
//!   (`G-PR-INITKRNL`), and each thread reports one [`SlotAction`] per slot;
//! * the **frontier protocol** ([`Worklist::for_each_frontier`] /
//!   [`Worklist::advance_frontier`]) is the level-synchronous BFS shape:
//!   threads push any number of discovered vertices, and advancing moves the
//!   epoch to the next level.
//!
//! # Epochs and stamps
//!
//! The worklist owns a domain-sized stamp array.  A vertex is *in the
//! current round* iff its stamp equals the current epoch — this is exactly
//! the paper's `iA` duplicate-processing guard (Algorithm 9 line 13),
//! exposed as [`ActiveView::in_current_round`].  Epochs increase
//! monotonically across rounds **and across re-seeds**, so a recycled
//! worklist never needs its stamps cleared.
//!
//! # Dense frontiers and slot lists on the host
//!
//! On the device a [`WorklistMode::DenseStamp`] BFS level is one thread per
//! domain vertex, and almost every thread only reads its stamp and exits.
//! The cost model prices such threads from the grid alone, so running them
//! on the host would buy nothing.  A dense frontier therefore also keeps a
//! host *membership bitmap*: [`Worklist::seed`],
//! [`Worklist::seed_by_predicate`] and [`FrontierView::push`] set a
//! vertex's bit, a re-seed clears the bitmap, and seeding and
//! [`Worklist::advance_frontier`] gather it into the level's own bitmap,
//! leaving it clear for the next level's pushes.
//! [`Worklist::for_each_frontier`] runs its kernel for the level's members
//! only, in increasing order, and records the launch exactly as the full
//! grid in which every other thread reported its one unit of stamp-reading
//! work.  The bitmaps are simulator bookkeeping, never charged — the device's
//! record of the frontier is still its stamps and its activity word — and
//! at one bit per vertex they cost the host a word per 64 vertices a level.
//!
//! Each member still tests `stamp == epoch` when it runs.  A push earlier in
//! the same level can move a member's stamp on to the next level, and the
//! full-grid scan then skips it; so does the member launch.  The sequential
//! backend therefore visits the members in the full scan's order and leaves
//! the same memory image.
//!
//! The slot protocol's list modes ([`WorklistMode::DenseStamp`] and
//! [`WorklistMode::Compacted`]) launch `G-PR-INITKRNL` and the round's
//! processing kernel over every slot of the list, which keeps its length
//! from the last seed or compaction: in a late round most slots are empty,
//! and their threads read an empty entry and exit.  A slot is *live* while
//! its `current` or `pending` entry holds an item.  The worklist keeps a
//! host bitmap of its live slots, acquired from the scratch arena on first
//! slot-protocol use: seeding and compaction set it to every listed slot,
//! and a processing thread clears its own slot's bit when it leaves both
//! entries empty (its `current` entry was empty, or it reported
//! [`SlotAction::Retire`]).  Both launches run the live slots only, in
//! increasing order, and are recorded exactly as the full list in which
//! every other slot reported its one unit of work.  That is exact:
//!
//! * only slot `i`'s own thread writes slot `i`;
//! * a dead slot's `G-PR-INITKRNL` thread writes nothing, and its
//!   processing thread writes `WL_EMPTY` over `WL_EMPTY`;
//! * so a dead slot has no effect beyond its work unit, and nothing revives
//!   it before the next seed or compaction.
//!
//! As for dense levels, the sequential backend runs the live slots in the
//! full sweep's order and leaves its memory image, and only the host's
//! choice between running inline and on the pool looks at the live count.
//!
//! # AtomicQueue memory model
//!
//! A queue push is `fetch_add(tail)` + relaxed store of the item, with a
//! same-epoch stamp check in front to drop duplicates.  Compacted frontiers
//! append through the same per-item queue, so all of this applies to them.
//! Three races are possible and all are handled:
//!
//! 1. *Duplicate appends* — several threads push the same item in one
//!    round.  The slot protocol's check is an atomic stamp swap, so exactly
//!    one of them appends: a push-relabel round must never process one
//!    column on two threads at once, since each could claim a different row
//!    for it and `FIXMATCHING` repairs only the column side.  The frontier
//!    protocol keeps a plain load-then-store check; two threads can both
//!    pass it and the vertex is expanded twice next level, which a
//!    level-synchronous BFS tolerates — both expansions write the same
//!    labels (the benign-race argument the paper makes for its kernels).
//! 2. *Unordered claim/store* — a claimed slot's store has no ordering
//!    guarantee within the launch.  The queue is therefore only read
//!    **after** the launch barrier: under the pooled executor the
//!    end-of-launch join synchronizes the workers (a happens-before edge),
//!    so every store is visible to the host and to the next launch — the
//!    same publication a real GPU gets from the implicit barrier between
//!    kernels on the default stream.
//! 3. *Overflow / lost items* — capacity is the domain size, so overflow
//!    can only come from duplicate races; the stamp array still holds full
//!    membership, and the round rebuilds from it (and a push-relabel loop
//!    whose queue runs dry re-scans by predicate before concluding it is
//!    done, so an item lost to a rolled-back push can never end the solve
//!    early).
//!
//! [`WorklistMode::BlockedQueue`] adds block claims on top, and two more
//! races with them:
//!
//! 4. *Claim vs. fill* — a worker that claims a block immediately pre-fills
//!    it with the hole marker before storing any item.  No other thread
//!    touches those slots during the launch: the `fetch_add` on the tail
//!    hands out disjoint slot ranges, so the block is exclusively owned
//!    until the end-of-launch barrier publishes it (the same happens-before
//!    edge as race 2).  The stitch — and any other reader — only runs after
//!    that barrier, so it sees every hole marker and every stored item.
//! 5. *Stale cursors* — a worker's thread-local cursor could outlive the
//!    round that claimed it and point at slots the (reset) tail no longer
//!    covers.  Queue views carry a unique id per construction and the
//!    cursor is keyed by it, so a new round's first push re-claims instead
//!    of resurrecting dead slots; abandoned partial blocks are just holes,
//!    which a wide round's stitch compacts away and a narrow round's
//!    iteration skips in place.  Blocked claims can also round the
//!    tail past capacity even without duplicate races; the overflow path is
//!    the same stamp rebuild as race 3.

use crate::buffer::DeviceBuffer;
use crate::engine::{LaunchRecord, ThreadCtx, VirtualGpu};
use crate::primitives::{self, DeviceQueue, QUEUE_BLOCK};
use crate::scratch::ScratchBuffer;
use std::cell::{Cell, OnceCell};
use std::fmt;
use std::str::FromStr;

/// Sentinel for an empty worklist slot.
pub const WL_EMPTY: u64 = u64::MAX;

/// Widest blocked-queue round that adopts its claimed blocks verbatim
/// (holes included) instead of stitching them into a dense prefix.  One
/// warp-issue quantum of the modelled device — `num_sms × warp_size`
/// threads retire per issue round — so below this width the holes cannot
/// add an issue round, while the two fused stitch passes always would.
const STITCH_THRESHOLD: usize = 448;

/// How a [`Worklist`] represents its active set on the device.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WorklistMode {
    /// Stamp-guarded slots scanned in full every round (the paper's
    /// `iA`-array scheme; no compaction ever runs).  A BFS level is priced
    /// as the full domain but runs only its members on the host, listed by
    /// an uncharged host bitmap; each member re-checks its stamp.  A slot
    /// round is priced as the full list but runs only its live slots (see
    /// [Dense frontiers and slot lists on the
    /// host](self#dense-frontiers-and-slot-lists-on-the-host)).
    DenseStamp,
    /// Slots compacted with the count / prefix-sum / scatter pattern of
    /// `G-PR-SHRKRNL` when the engine asks for it, and between compactions
    /// run over their live slots only, priced as the full list, as in
    /// [`WorklistMode::DenseStamp`]; BFS frontiers advance by per-item
    /// append.
    Compacted,
    /// Device-side atomic-append queue: each round launches over exactly
    /// the items pushed by the previous round, with no scan in between.
    AtomicQueue,
    /// Atomic-append queue with blocked claims: one tail `fetch_add` per
    /// cache-line-sized slot block instead of per item, with a fused stitch
    /// compacting partial blocks at the round handoff.
    BlockedQueue,
}

impl WorklistMode {
    /// All four representations, in ablation order.
    pub fn all() -> [WorklistMode; 4] {
        [
            WorklistMode::DenseStamp,
            WorklistMode::Compacted,
            WorklistMode::AtomicQueue,
            WorklistMode::BlockedQueue,
        ]
    }

    /// The round-trippable label used in `Algorithm` specs (`+dense`,
    /// `+compacted`, `+queue`, `+blocked`).
    pub fn label(&self) -> &'static str {
        match self {
            WorklistMode::DenseStamp => "dense",
            WorklistMode::Compacted => "compacted",
            WorklistMode::AtomicQueue => "queue",
            WorklistMode::BlockedQueue => "blocked",
        }
    }

    /// `true` for the append-driven representations (per-item or blocked
    /// queue), which share storage layout, epochs, and recovery paths.
    pub fn is_queue(&self) -> bool {
        matches!(self, WorklistMode::AtomicQueue | WorklistMode::BlockedQueue)
    }
}

impl fmt::Display for WorklistMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Error returned when a string is not a [`WorklistMode`] label.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseWorklistModeError {
    /// The string that failed to parse.
    pub input: String,
}

impl fmt::Display for ParseWorklistModeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cannot parse worklist mode '{}': expected one of dense, compacted, queue, blocked",
            self.input
        )
    }
}

impl std::error::Error for ParseWorklistModeError {}

impl FromStr for WorklistMode {
    type Err = ParseWorklistModeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "dense" => Ok(WorklistMode::DenseStamp),
            "compacted" => Ok(WorklistMode::Compacted),
            "queue" => Ok(WorklistMode::AtomicQueue),
            "blocked" => Ok(WorklistMode::BlockedQueue),
            _ => Err(ParseWorklistModeError { input: s.to_string() }),
        }
    }
}

/// Kernel names a worklist charges its maintenance launches to, so each
/// engine's device statistics keep their paper-faithful labels
/// (`G-PR-INITKRNL`, `G-PR-SHRKRNL_count`, …).
#[derive(Clone, Copy, Debug)]
pub struct WorklistKernels {
    /// Slot-resolve / stamp pass (the paper's `G-PR-INITKRNL`).
    pub init: &'static str,
    /// Compaction count pass (`G-PR-SHRKRNL` pass 1).
    pub compact_count: &'static str,
    /// Compaction scatter pass (`G-PR-SHRKRNL` pass 3; pass 2 is the shared
    /// device prefix sum).
    pub compact_scatter: &'static str,
    /// Queue rebuild passes (predicate re-scan on a drained queue, stamp
    /// re-scan after an overflow).  Also the name the **fused** drained-queue
    /// refill is charged to: with [`Worklist::for_each_active_refill`] the
    /// refill stops appearing as launches and shows up as
    /// [`fused_tails`](crate::KernelStats::fused_tails) instead.
    pub refill: &'static str,
    /// Blocked-append stitch passes (compact claimed blocks, then gather the
    /// block fronts into the dense prefix); both are fused tails, so this
    /// kernel accrues `fused_tails`, never `launches`.
    pub stitch: &'static str,
}

/// What a slot-protocol thread decided about its item; applied by the
/// worklist so every representation keeps its invariants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotAction {
    /// The item succeeded and displaced another item, which must be
    /// processed in a later round (the paper's double push).
    Push(usize),
    /// The item could not be processed this round and must be retried
    /// (Algorithm 9's deferral when the target's mate is active).
    Defer,
    /// The item was processed; it only returns if the engine's predicate
    /// reports it live again (a push rolled back by a benign race).
    Finish,
    /// The item is permanently done (e.g. proven unmatchable): drop it and
    /// its retry memory.
    Retire,
}

/// In-kernel view handed to slot-protocol threads.
pub struct ActiveView<'a> {
    stamp: &'a DeviceBuffer<u64>,
    epoch: u64,
    /// Present only in the queue representations.
    queue: Option<DeviceQueue<'a>>,
}

impl ActiveView<'_> {
    /// `true` iff `v` is being processed in the current round — the paper's
    /// `iA(µ(u)) = i` guard against displacing a concurrently active column.
    #[inline]
    pub fn in_current_round(&self, v: usize) -> bool {
        self.stamp.get(v) == self.epoch
    }

    /// Queue-mode append for the next round, exactly once per item: of the
    /// threads that push `v` this round, only the one whose stamp swap sees
    /// the old stamp appends it (race 1).  The plain load in front skips the
    /// RMW for items already scheduled.
    #[inline]
    fn queue_push(&self, ctx: &ThreadCtx, v: usize) {
        let next = self.epoch + 1;
        if self.stamp.get(v) == next {
            return;
        }
        ctx.add_item_atomic();
        if self.stamp.swap(v, next) != next {
            self.queue.as_ref().expect("queue present in queue modes").push(ctx, v as u64);
        }
    }
}

/// In-kernel view handed to frontier-protocol threads.
pub struct FrontierView<'a> {
    stamp: &'a DeviceBuffer<u64>,
    epoch: u64,
    next: NextLevel<'a>,
}

/// Where [`FrontierView::push`] records the next level.
enum NextLevel<'a> {
    /// [`WorklistMode::DenseStamp`]: the stamps and the activity word are the
    /// device's record, `marks` the host's membership bitmap.
    Dense { nonempty: &'a DeviceBuffer<u64>, marks: &'a DeviceBuffer<u64> },
    /// Every other mode appends to the next level's queue.
    Queue(DeviceQueue<'a>),
}

impl FrontierView<'_> {
    /// Schedules `v` for the next round (the next BFS level).  Racy
    /// duplicate pushes of the same vertex are benign in every mode.
    #[inline]
    pub fn push(&self, ctx: &ThreadCtx, v: usize) {
        let next = self.epoch + 1;
        match &self.next {
            NextLevel::Dense { nonempty, marks } => {
                self.stamp.set(v, next);
                nonempty.set(0, 1);
                mark(marks, v);
            }
            NextLevel::Queue(queue) => {
                if self.stamp.get(v) != next {
                    self.stamp.set(v, next);
                    queue.push(ctx, v as u64);
                }
            }
        }
    }
}

/// Sets bit `v` of a host bitmap: a dense frontier's members.
#[inline]
fn mark(marks: &DeviceBuffer<u64>, v: usize) {
    marks.fetch_or(v / 64, 1 << (v % 64));
}

/// Clears bit `i` of a host bitmap: a slot list's live slots.
#[inline]
fn unmark(marks: &DeviceBuffer<u64>, i: usize) {
    marks.fetch_and(i / 64, !(1 << (i % 64)));
}

/// Sets bits `0..len` of `marks` and clears the rest of their last word:
/// every word a launch over `len` slots reads.
fn mark_prefix(marks: &DeviceBuffer<u64>, len: usize) {
    for word in 0..len / 64 {
        marks.set(word, u64::MAX);
    }
    let rest = len % 64;
    if rest > 0 {
        marks.set(len / 64, (1 << rest) - 1);
    }
}

/// The host's membership record of a [`WorklistMode::DenseStamp`] frontier
/// (see [Dense frontiers and slot lists on the
/// host](self#dense-frontiers-and-slot-lists-on-the-host)):
/// two bitmaps of one bit per domain vertex, drawn from the device's scratch
/// arena so warm sessions reuse them across levels and solves.
struct DenseMembers<'gpu> {
    /// Seeded, or pushed during the current level: the next level.
    marks: ScratchBuffer<'gpu>,
    /// The current level's members.
    level: ScratchBuffer<'gpu>,
    /// How many bits `level` has set.
    len: Cell<usize>,
}

impl DenseMembers<'_> {
    /// Moves the marks into `level`, clearing them for the next level.
    fn gather(&self) {
        let mut len = 0;
        for word in 0..self.marks.len() {
            let bits = self.marks.get(word);
            if bits != 0 {
                self.marks.set(word, 0);
            }
            self.level.set(word, bits);
            len += bits.count_ones() as usize;
        }
        self.len.set(len);
    }
}

/// In-kernel view handed to [`Worklist::scan_domain`] threads.
pub struct DomainMarker<'a> {
    nonempty: &'a DeviceBuffer<u64>,
}

impl DomainMarker<'_> {
    /// Records that at least one domain element was active this scan.
    #[inline]
    pub fn mark_active(&self) {
        self.nonempty.set(0, 1);
    }
}

/// A device worklist over the vertex domain `0..domain`, in one of four
/// [`WorklistMode`] representations.  All device storage (slot arrays,
/// stamps, queue tail, flags) is drawn from the owning device's
/// [`ScratchArena`](crate::scratch::ScratchArena), so a warm solver session
/// that builds one worklist per solve stops allocating after the first.
/// The domain-sized buffers are acquired lazily, on first use by the
/// protocol actually driven: a pure [`Worklist::scan_domain`] user pays for
/// nothing but the one-word flag, and a dense frontier never materializes
/// the pending array.
pub struct Worklist<'gpu> {
    gpu: &'gpu VirtualGpu,
    mode: WorklistMode,
    names: WorklistKernels,
    domain: usize,
    epoch: u64,
    len: usize,
    current: OnceCell<ScratchBuffer<'gpu>>,
    pending: OnceCell<ScratchBuffer<'gpu>>,
    stamp: OnceCell<ScratchBuffer<'gpu>>,
    members: OnceCell<DenseMembers<'gpu>>,
    /// The slot list's live slots, one bit per slot (see [Dense frontiers
    /// and slot lists on the host](self#dense-frontiers-and-slot-lists-on-the-host)),
    /// relisted by [`Worklist::seed`] and compaction, the two ways a slot
    /// list is filled.
    live: OnceCell<ScratchBuffer<'gpu>>,
    tail: ScratchBuffer<'gpu>,
    nonempty: ScratchBuffer<'gpu>,
    overflow: ScratchBuffer<'gpu>,
    compacted: bool,
    refilled: bool,
    fresh_seed: bool,
    /// Set when a drained-queue predicate refill already ran **fused** into
    /// the tail of the round's processing kernel
    /// ([`Worklist::for_each_active_refill`]): the next
    /// [`Worklist::begin_round`] must not launch a second refill — either
    /// the fused sweep appended survivors (the queue is non-empty) or it
    /// proved the set empty.
    fused_refill_done: bool,
    /// `true` between a [`Worklist::begin_round`] and its
    /// [`Worklist::end_round`]; lets [`Worklist::round_transition`] close
    /// the previous round exactly when one is open.
    round_open: bool,
}

impl<'gpu> Worklist<'gpu> {
    /// Creates a worklist for items in `0..domain`, drawing every device
    /// buffer from `gpu`'s scratch arena.
    pub fn new(
        gpu: &'gpu VirtualGpu,
        mode: WorklistMode,
        domain: usize,
        names: WorklistKernels,
    ) -> Self {
        Self {
            current: OnceCell::new(),
            pending: OnceCell::new(),
            stamp: OnceCell::new(),
            members: OnceCell::new(),
            live: OnceCell::new(),
            tail: gpu.scratch().acquire(1, 0),
            nonempty: gpu.scratch().acquire(1, 0),
            overflow: gpu.scratch().acquire(1, 0),
            gpu,
            mode,
            names,
            domain,
            epoch: 0,
            len: 0,
            compacted: false,
            refilled: false,
            fresh_seed: false,
            fused_refill_done: false,
            round_open: false,
        }
    }

    /// A fresh queue view over the pending/tail/overflow buffers, blocked or
    /// per-item per the mode.  Built per launch: the view's identity is what
    /// keys (and invalidates) the blocked representation's thread-local
    /// block cursors.
    fn queue_view(&self) -> DeviceQueue<'_> {
        let pending = self.pending_buf();
        if self.mode == WorklistMode::BlockedQueue {
            DeviceQueue::new_blocked(pending, &self.tail, &self.overflow)
        } else {
            DeviceQueue::new(pending, &self.tail, &self.overflow)
        }
    }

    /// The current item list, acquired (EMPTY-filled) on first use.
    fn current_buf(&self) -> &DeviceBuffer<u64> {
        self.current.get_or_init(|| self.gpu.scratch().acquire(self.domain, WL_EMPTY))
    }

    /// The partner slot array / queue target, acquired on first use.
    fn pending_buf(&self) -> &DeviceBuffer<u64> {
        self.pending.get_or_init(|| self.gpu.scratch().acquire(self.domain, WL_EMPTY))
    }

    /// The per-domain stamp (`iA`) array, acquired (zero-filled) on first
    /// use; epochs start at 1, so a zeroed stamp never matches.
    fn stamp_buf(&self) -> &DeviceBuffer<u64> {
        self.stamp.get_or_init(|| self.gpu.scratch().acquire(self.domain, 0))
    }

    /// The dense frontier's host membership, acquired on first use.
    fn members(&self) -> &DenseMembers<'gpu> {
        let words = self.domain.div_ceil(64);
        self.members.get_or_init(|| DenseMembers {
            marks: self.gpu.scratch().acquire(words, 0),
            level: self.gpu.scratch().acquire(words, 0),
            len: Cell::new(0),
        })
    }

    /// Clears the dense frontier's membership bitmap for a re-seed and
    /// returns it.
    fn cleared_marks(&self) -> &DeviceBuffer<u64> {
        let marks = &self.members().marks;
        marks.fill(0);
        marks
    }

    /// The slot list's live slots, acquired on first slot-protocol use with
    /// every listed slot live: until a processing thread empties a slot, it
    /// holds the item a seed or compaction put there.
    fn live_slots(&self) -> &DeviceBuffer<u64> {
        self.live.get_or_init(|| {
            let live = self.gpu.scratch().acquire(self.domain.div_ceil(64), 0);
            mark_prefix(&live, self.len);
            live
        })
    }

    /// Marks every listed slot live again once a seed or compaction has
    /// refilled the list, if the slot protocol has run.
    fn relist_slots(&self) {
        if let Some(live) = self.live.get() {
            mark_prefix(live, self.len);
        }
    }

    /// Launches `kernel` over the slot list, priced as all `len` slots and
    /// run over the live ones only; every other slot's thread would read two
    /// empty entries and report its one work unit.
    fn launch_slots(&self, name: &'static str, kernel: impl Fn(&ThreadCtx) + Sync) -> LaunchRecord {
        let live = self.live_slots();
        let count = (0..self.len.div_ceil(64)).map(|w| live.get(w).count_ones() as usize).sum();
        self.gpu.launch_members(name, self.len, live, count, kernel)
    }

    /// The representation this worklist runs with.
    pub fn mode(&self) -> WorklistMode {
        self.mode
    }

    /// Size of the item domain (`0..domain`).
    pub fn domain(&self) -> usize {
        self.domain
    }

    /// Length of the current slot/queue list.  For [`WorklistMode::DenseStamp`]
    /// frontiers this is the seeded length (dense rounds scan the domain).
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the current list holds no slots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The current round stamp.  Monotonically increasing; stamps written in
    /// earlier rounds or before a re-seed never collide with it.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// `true` iff the last [`Worklist::begin_round`] ran a compaction
    /// (feeds the engine's shrink counters).
    pub fn compacted_last_round(&self) -> bool {
        self.compacted
    }

    /// `true` iff the last [`Worklist::begin_round`] had to rebuild a
    /// drained or overflowed queue from scratch.
    pub fn refilled_last_round(&self) -> bool {
        self.refilled
    }

    /// (Re-)seeds the worklist from host-side items, host staging included —
    /// the analogue of uploading the initial active list to the device.
    /// Moves to a fresh epoch, so stale stamps from earlier use are inert.
    /// A repeated item is seeded once: the list holds distinct items, at
    /// most the domain.
    pub fn seed(&mut self, items: impl IntoIterator<Item = usize>) {
        // +2, not +1: a round's pushes stamp `epoch + 1`, and a caller may
        // re-seed after a round whose pushes were never consumed (e.g. a BFS
        // that broke out early).  Jumping two epochs guarantees no stamp
        // ever written so far can masquerade as a freshly seeded item.
        self.epoch += 2;
        let epoch = self.epoch;
        let dense = self.mode == WorklistMode::DenseStamp;
        let mut k = 0usize;
        {
            let current = self.current_buf();
            let stamp = self.stamp_buf();
            let marks = dense.then(|| self.cleared_marks());
            // The partner array only needs refreshing if it already exists;
            // an untouched pending array is EMPTY-filled on first use, and a
            // round-one resolve of an EMPTY slot memory is a no-op —
            // identical behavior, one less domain-sized fill for protocols
            // that never read it.
            let pending =
                if self.mode.is_queue() { None } else { self.pending.get().map(|buf| &**buf) };
            for v in items {
                debug_assert!(v < self.domain, "worklist item {v} outside domain {}", self.domain);
                if stamp.get(v) == epoch {
                    continue;
                }
                current.set(k, v as u64);
                stamp.set(v, epoch);
                if let Some(marks) = marks {
                    mark(marks, v);
                }
                if let Some(pending) = pending {
                    pending.set(k, v as u64);
                }
                k += 1;
            }
        }
        if dense {
            self.members().gather();
        }
        self.len = k;
        self.relist_slots();
        self.tail.set(0, 0);
        self.nonempty.set(0, 0);
        self.overflow.set(0, 0);
        self.fresh_seed = true;
        self.compacted = false;
        self.refilled = false;
        self.fused_refill_done = false;
        self.round_open = false;
    }

    /// Device-side seeding: stamps (and, for list-materializing modes,
    /// gathers) every domain element satisfying `predicate`, without any
    /// host-side scan.  Launches are charged to the worklist's `refill`
    /// kernel name, so the seeding cost shows up in the device model like
    /// any other kernel.  Same epoch semantics as [`Worklist::seed`].
    pub fn seed_by_predicate(&mut self, predicate: impl Fn(usize) -> bool + Sync) {
        self.epoch += 2;
        self.tail.set(0, 0);
        self.nonempty.set(0, 0);
        self.overflow.set(0, 0);
        match self.mode {
            WorklistMode::DenseStamp => {
                // Membership is the stamps alone; one domain pass suffices
                // and no device list is materialized.
                let epoch = self.epoch;
                let stamp = self.stamp_buf();
                let marks = self.cleared_marks();
                self.gpu.launch(self.names.refill, self.domain, |ctx| {
                    let v = ctx.global_id;
                    ctx.add_work(1);
                    if predicate(v) {
                        stamp.set(v, epoch);
                        mark(marks, v);
                    }
                });
                self.members().gather();
                self.len = 0;
            }
            WorklistMode::Compacted | WorklistMode::AtomicQueue | WorklistMode::BlockedQueue => {
                self.len = self.gather_into_current(&predicate, true);
            }
        }
        self.fresh_seed = true;
        self.compacted = false;
        self.refilled = false;
        self.fused_refill_done = false;
        self.round_open = false;
    }

    // ------------------------------------------------------------------
    // Slot protocol (push-relabel shape)
    // ------------------------------------------------------------------

    /// Starts a slot-protocol round: advances the epoch, re-establishes the
    /// active list, and returns `true` iff any item is active.
    ///
    /// * list modes run the resolve/stamp pass (the paper's `G-PR-INITKRNL`),
    ///   priced as the full list and run over its live slots only, or — in
    ///   [`WorklistMode::Compacted`] with `compact` requested — the
    ///   `G-PR-SHRKRNL` count / prefix-sum / scatter rebuild instead, which
    ///   lists every surviving item in a live slot;
    /// * [`WorklistMode::AtomicQueue`] swaps in the queue appended by the
    ///   previous round (no kernel launch at all), rebuilding it from
    ///   `predicate` only when it drained or overflowed.
    ///
    /// `predicate(v)` must report whether item `v` is still live; it is the
    /// activity test of `G-PR-INITKRNL` and the safety net that keeps the
    /// queue representation exact under rolled-back racy pushes.
    pub fn begin_round(&mut self, predicate: impl Fn(usize) -> bool + Sync, compact: bool) -> bool {
        self.compacted = false;
        self.refilled = false;
        self.round_open = true;
        match self.mode {
            WorklistMode::DenseStamp | WorklistMode::Compacted => {
                self.fresh_seed = false;
                self.epoch += 1;
                self.nonempty.set(0, 0);
                if self.mode == WorklistMode::Compacted && compact {
                    self.compact_slots(&predicate);
                    self.compacted = true;
                } else {
                    self.init_slots(&predicate);
                }
                self.nonempty.get(0) != 0
            }
            WorklistMode::AtomicQueue | WorklistMode::BlockedQueue => {
                if self.fresh_seed {
                    // The seed already stamped and listed this round's items.
                    self.fresh_seed = false;
                } else {
                    self.epoch += 1;
                    self.take_appended_queue();
                }
                if self.len == 0 && !self.fused_refill_done {
                    // Drained queue: re-scan by predicate before concluding
                    // the set is empty, so items lost to rolled-back racy
                    // pushes are recovered instead of silently dropped.
                    // (When the previous round already swept the predicate
                    // fused into its kernel tail — `fused_refill_done` — an
                    // empty queue IS the verdict, launch-free.)
                    self.refill_from_predicate(&predicate);
                    self.refilled = true;
                }
                self.fused_refill_done = false;
                self.len > 0
            }
        }
    }

    /// Launches `f` over the active slots of the current round.  The
    /// wrapper skips empty slots (charging them one work unit, like the
    /// paper's kernels) and applies the returned [`SlotAction`] in the
    /// representation's terms; `f` may consult
    /// [`ActiveView::in_current_round`] for the duplicate-processing guard.
    /// In the list modes the launch is priced as the full list but runs its
    /// live slots only, and a slot whose thread leaves both of its entries
    /// empty stops being live (see [Dense frontiers and slot lists on the
    /// host](self#dense-frontiers-and-slot-lists-on-the-host)).
    pub fn for_each_active(
        &self,
        name: &'static str,
        f: impl Fn(&ThreadCtx, usize, &ActiveView<'_>) -> SlotAction + Sync,
    ) {
        self.active_launch(name, f);
    }

    /// [`Worklist::for_each_active`], returning the round's launch record.
    fn active_launch(
        &self,
        name: &'static str,
        f: impl Fn(&ThreadCtx, usize, &ActiveView<'_>) -> SlotAction + Sync,
    ) -> LaunchRecord {
        let current = self.current_buf();
        let pending = self.pending_buf();
        let view = ActiveView {
            stamp: self.stamp_buf(),
            epoch: self.epoch,
            queue: self.mode.is_queue().then(|| self.queue_view()),
        };
        match self.mode {
            WorklistMode::DenseStamp | WorklistMode::Compacted => {
                let live = self.live_slots();
                self.launch_slots(name, |ctx| {
                    let i = ctx.global_id;
                    ctx.add_work(1);
                    let v = current.get(i);
                    if v == WL_EMPTY {
                        pending.set(i, WL_EMPTY);
                        unmark(live, i);
                        return;
                    }
                    match f(ctx, v as usize, &view) {
                        SlotAction::Push(w) => pending.set(i, w as u64),
                        SlotAction::Defer | SlotAction::Finish => pending.set(i, WL_EMPTY),
                        SlotAction::Retire => {
                            current.set(i, WL_EMPTY);
                            pending.set(i, WL_EMPTY);
                            unmark(live, i);
                        }
                    }
                })
            }
            WorklistMode::AtomicQueue | WorklistMode::BlockedQueue => {
                self.gpu.launch(name, self.len, |ctx| {
                    let i = ctx.global_id;
                    ctx.add_work(1);
                    let v = current.get(i);
                    if v == WL_EMPTY {
                        return;
                    }
                    match f(ctx, v as usize, &view) {
                        SlotAction::Push(w) => view.queue_push(ctx, w),
                        SlotAction::Defer => view.queue_push(ctx, v as usize),
                        SlotAction::Finish | SlotAction::Retire => {}
                    }
                })
            }
        }
    }

    /// [`Worklist::for_each_active`] with the drained-queue refill **fused
    /// into the kernel tail**: when the round's launch ends with an empty
    /// append queue, the predicate sweep that [`Worklist::begin_round`]
    /// would otherwise run as separate launches executes as a fused tail of
    /// this round instead (the CUDA last-block-done idiom —
    /// [`VirtualGpu::launch_fused`]), so the drained round pays no extra
    /// launch overhead and non-drained rounds pay nothing at all.
    ///
    /// `predicate` must be the same liveness test the caller passes to
    /// [`Worklist::begin_round`].  A round whose queue is non-empty never
    /// evaluates it.  Non-queue modes ignore it and behave exactly like
    /// [`Worklist::for_each_active`].
    pub fn for_each_active_refill(
        &mut self,
        name: &'static str,
        f: impl Fn(&ThreadCtx, usize, &ActiveView<'_>) -> SlotAction + Sync,
        predicate: impl Fn(usize) -> bool + Sync,
    ) {
        self.for_each_active(name, f);
        if self.mode.is_queue() && self.tail.get(0) == 0 {
            self.fused_refill(&predicate);
        }
    }

    /// The fused drained-queue sweep: stamps and appends every live item for
    /// the next round, charged to the `refill` kernel name as a fused tail
    /// (no launch count, no launch overhead).  Racing pushes are harmless —
    /// the stamp dedupe makes a double append idempotent — so running the
    /// sweep when a push lands concurrently is merely redundant, never
    /// wrong.
    fn fused_refill(&mut self, predicate: &(impl Fn(usize) -> bool + Sync)) {
        let next = self.epoch + 1;
        let stamp = self.stamp_buf();
        let queue = self.queue_view();
        self.gpu.launch_fused(self.names.refill, self.domain, |ctx| {
            let v = ctx.global_id;
            ctx.add_work(1);
            if predicate(v) && stamp.get(v) != next {
                stamp.set(v, next);
                queue.push(ctx, v as u64);
            }
        });
        self.fused_refill_done = true;
    }

    /// Ends a slot-protocol round.  List modes swap the slot arrays (the
    /// paper's `A_c`/`A_p` exchange); the queue representation has nothing
    /// to do — the next round's queue was built during processing.
    pub fn end_round(&mut self) {
        self.round_open = false;
        if !self.mode.is_queue() {
            std::mem::swap(&mut self.current, &mut self.pending);
        }
    }

    /// The **in-loop round transition**: closes the previous round (when one
    /// is open) and opens the next in a single call — the `A_c`/`A_p` swap,
    /// the epoch bump, the resolve/stamp or compaction pass, the
    /// appended-queue takeover, and the drained/overflowed-queue rebuild
    /// fallback, per the representation.  Returns [`Worklist::begin_round`]'s
    /// verdict: `true` iff any item is active.
    ///
    /// This is the form a persistent round loop needs: under
    /// [`ExecMode::Persistent`](crate::ExecMode) the whole transition sits
    /// between two rounds of the [`VirtualGpu::resident`] scope, so its
    /// kernels are priced as resident rounds; the host-mediated paths — the
    /// queue-overflow rebuild and the host-staged parts of compaction — run
    /// on the host exactly as they do between launches.  Launch-per-round
    /// loops may use it too; it is equivalent to `end_round()` +
    /// `begin_round(..)`.
    pub fn round_transition(
        &mut self,
        predicate: impl Fn(usize) -> bool + Sync,
        compact: bool,
    ) -> bool {
        if self.round_open {
            self.end_round();
        }
        self.begin_round(predicate, compact)
    }

    // ------------------------------------------------------------------
    // Frontier protocol (level-synchronous BFS shape)
    // ------------------------------------------------------------------

    /// Launches `f` over the current frontier.  In
    /// [`WorklistMode::DenseStamp`] the launch covers the whole domain and
    /// the stamp array decides membership (the paper's dense BFS kernels),
    /// though only the level's members run on the host; the other modes
    /// launch over the frontier list appended during the previous level.
    /// `f` pushes next-level vertices through the [`FrontierView`].
    pub fn for_each_frontier(
        &self,
        name: &'static str,
        f: impl Fn(&ThreadCtx, usize, &FrontierView<'_>) + Sync,
    ) {
        self.frontier_launch(name, f);
    }

    /// [`Worklist::for_each_frontier`], returning the level's launch record.
    fn frontier_launch(
        &self,
        name: &'static str,
        f: impl Fn(&ThreadCtx, usize, &FrontierView<'_>) + Sync,
    ) -> LaunchRecord {
        let stamp = self.stamp_buf();
        let epoch = self.epoch;
        match self.mode {
            WorklistMode::DenseStamp => {
                let members = self.members();
                let next = NextLevel::Dense { nonempty: &self.nonempty, marks: &members.marks };
                let view = FrontierView { stamp, epoch, next };
                // A member re-checks its stamp: a push earlier in this level
                // may have moved it on to the next one.
                self.gpu.launch_members(
                    name,
                    self.domain,
                    &members.level,
                    members.len.get(),
                    |ctx| {
                        let v = ctx.global_id;
                        ctx.add_work(1);
                        if stamp.get(v) == epoch {
                            f(ctx, v, &view);
                        }
                    },
                )
            }
            WorklistMode::Compacted | WorklistMode::AtomicQueue | WorklistMode::BlockedQueue => {
                let view = FrontierView { stamp, epoch, next: NextLevel::Queue(self.queue_view()) };
                let current = self.current_buf();
                self.gpu.launch(name, self.len, |ctx| {
                    let i = ctx.global_id;
                    ctx.add_work(1);
                    let v = current.get(i);
                    // Narrow blocked rounds adopt their claimed blocks
                    // without stitching, so the frontier may carry holes.
                    if v == WL_EMPTY {
                        return;
                    }
                    f(ctx, v as usize, &view);
                })
            }
        }
    }

    /// Moves the frontier to the next level, returning `true` iff it is
    /// non-empty.  [`WorklistMode::DenseStamp`] reads its activity flag and
    /// gathers the level's members from its host bitmap; every other mode
    /// swaps in the list appended during the level (rebuilding from stamps
    /// only after an overflow).
    pub fn advance_frontier(&mut self) -> bool {
        self.fresh_seed = false;
        self.fused_refill_done = false;
        self.epoch += 1;
        if self.mode == WorklistMode::DenseStamp {
            let any = self.nonempty.get(0) != 0;
            self.nonempty.set(0, 0);
            self.members().gather();
            return any;
        }
        self.take_appended_queue();
        self.len > 0
    }

    /// Swaps in the queue appended by the previous round (shared by both
    /// protocols, and by compacted frontiers): reads and resets the tail, and
    /// rebuilds the list from the current epoch's stamps when appends were
    /// dropped on overflow.  The caller has already advanced the epoch.
    fn take_appended_queue(&mut self) {
        if self.mode == WorklistMode::BlockedQueue {
            self.take_blocked_queue();
            return;
        }
        std::mem::swap(&mut self.current, &mut self.pending);
        let appended = self.tail.get(0) as usize;
        self.tail.set(0, 0);
        if self.overflow.get(0) != 0 {
            self.overflow.set(0, 0);
            // Dropped appends: the stamps still hold the full membership —
            // rebuild the list from them.
            self.compact_from_stamps();
            self.refilled = true;
        } else {
            self.len = appended.min(self.domain);
        }
    }

    /// Blocked-queue round handoff: the claimed blocks in `pending` hold the
    /// appended items interleaved with [`WL_EMPTY`] holes (partial blocks,
    /// abandoned cursors).  The *stitch* compacts them into a dense prefix
    /// of `current` with two fused tail passes over the claimed blocks only
    /// — never the domain — so its cost scales with the append volume:
    ///
    /// 1. each block compacts itself in place and reports its live count
    ///    (one cache-line read + write per block: 2 work units);
    /// 2. the host stages the per-block prefix offsets (like every D2D copy
    ///    in this simulator) and each block copies its dense front to its
    ///    offset in `current`.
    ///
    /// Unlike the per-item path, the buffers do **not** swap: `pending`
    /// stays the append target, which is safe precisely because blocked
    /// claims pre-fill with holes — stale slots from this round can never
    /// masquerade as next round's items.
    ///
    /// Rounds narrower than [`STITCH_THRESHOLD`] skip the stitch entirely
    /// and *adopt* the claimed blocks as-is (swapping the buffers like the
    /// per-item path): iteration already skips [`WL_EMPTY`] holes, and
    /// below one warp-issue quantum the two fused passes would cost more
    /// model time than the holes waste.  Only wide rounds — where the
    /// hole overhead compounds across issue rounds — pay for density.
    fn take_blocked_queue(&mut self) {
        let claimed = self.tail.get(0) as usize;
        self.tail.set(0, 0);
        if self.overflow.get(0) != 0 {
            self.overflow.set(0, 0);
            self.compact_from_stamps();
            self.refilled = true;
            return;
        }
        if claimed == 0 {
            self.len = 0;
            return;
        }
        let covered = claimed.min(self.domain);
        if covered <= STITCH_THRESHOLD {
            // Narrow round: adopt the blocks, holes and all.  The swap makes
            // the old `current` the next append target; blocked claims
            // pre-fill every claimed slot with `WL_EMPTY` before exposing
            // it, so whatever this round left there is never read as data.
            std::mem::swap(&mut self.current, &mut self.pending);
            self.len = covered;
            return;
        }
        let blocks = covered.div_ceil(QUEUE_BLOCK);
        let counts = self.gpu.scratch().acquire(blocks, 0);
        let pending = self.pending_buf();
        self.gpu.launch_fused(self.names.stitch, blocks, |ctx| {
            let b = ctx.global_id;
            let start = b * QUEUE_BLOCK;
            let end = (start + QUEUE_BLOCK).min(covered);
            ctx.add_work(2);
            let mut k = start;
            for i in start..end {
                let v = pending.get(i);
                if v != WL_EMPTY {
                    pending.set(k, v);
                    k += 1;
                }
            }
            counts.set(b, (k - start) as u64);
        });
        // Host-staged exclusive prefix over ≤ one word per block — the same
        // staging every D2D copy in this simulator goes through.  A device
        // prefix-sum ladder would cost more launches than it saves for the
        // handful of partially filled blocks a round produces.
        let host_counts = counts.to_vec();
        let offsets = self.gpu.scratch().acquire(blocks, 0);
        let mut total = 0u64;
        for (b, &c) in host_counts.iter().enumerate() {
            offsets.set(b, total);
            total += c;
        }
        let current = self.current_buf();
        self.gpu.launch_fused(self.names.stitch, blocks, |ctx| {
            let b = ctx.global_id;
            let start = b * QUEUE_BLOCK;
            let n = counts.get(b) as usize;
            let at = offsets.get(b) as usize;
            ctx.add_work(2);
            for i in 0..n {
                current.set(at + i, pending.get(start + i));
            }
        });
        self.len = total as usize;
    }

    // ------------------------------------------------------------------
    // Domain scan (the stampless G-PR-First shape)
    // ------------------------------------------------------------------

    /// One full-domain scan: every element gets a thread, `f` decides
    /// activity itself and calls [`DomainMarker::mark_active`] when it found
    /// work.  Returns `true` iff anything was marked.  This is the
    /// representation-independent shape of `G-PR-KRNL` (Algorithm 6), kept
    /// on the worklist so no engine owns a raw activity flag.
    pub fn scan_domain(
        &mut self,
        name: &'static str,
        f: impl Fn(&ThreadCtx, usize, &DomainMarker<'_>) + Sync,
    ) -> bool {
        self.nonempty.set(0, 0);
        let marker = DomainMarker { nonempty: &self.nonempty };
        self.gpu.launch(name, self.domain, |ctx| {
            ctx.add_work(1);
            f(ctx, ctx.global_id, &marker);
        });
        self.nonempty.get(0) != 0
    }

    // ------------------------------------------------------------------
    // Internal passes
    // ------------------------------------------------------------------

    /// `G-PR-INITKRNL` (Algorithm 8): resolve each slot's retry memory,
    /// stamp the live items with the current epoch, raise the activity flag.
    /// A slot stays live or dead through it: it only ever copies one of the
    /// slot's items over the other entry.
    fn init_slots(&self, predicate: &(impl Fn(usize) -> bool + Sync)) {
        let current = self.current_buf();
        let pending = self.pending_buf();
        let stamp = self.stamp_buf();
        let nonempty = &*self.nonempty;
        let epoch = self.epoch;
        self.launch_slots(self.names.init, |ctx| {
            let i = ctx.global_id;
            ctx.add_work(1);
            let prev = pending.get(i);
            if prev != WL_EMPTY && predicate(prev as usize) {
                // The processing recorded in this slot was rolled back by a
                // benign race (or never happened): retry it.
                current.set(i, prev);
            }
            let v = current.get(i);
            if v != WL_EMPTY {
                stamp.set(v as usize, epoch);
                nonempty.set(0, 1);
            }
        });
    }

    /// `G-PR-SHRKRNL`: resolve (count) pass, device prefix sum, scatter into
    /// private regions.  Rebuilds the slot list to its live entries.
    fn compact_slots(&mut self, predicate: &(impl Fn(usize) -> bool + Sync)) {
        let len = self.len;
        let resolved = self.gpu.scratch().acquire(len, WL_EMPTY);
        let counts = self.gpu.scratch().acquire(len, 0);
        {
            let current = self.current_buf();
            let pending = self.pending_buf();
            self.gpu.launch(self.names.compact_count, len, |ctx| {
                let i = ctx.global_id;
                ctx.add_work(1);
                let prev = pending.get(i);
                let mut v = current.get(i);
                if prev != WL_EMPTY && predicate(prev as usize) {
                    v = prev;
                }
                // Only genuinely live items survive the compaction.
                if v != WL_EMPTY && predicate(v as usize) {
                    resolved.set(i, v);
                    counts.set(i, 1);
                }
            });
        }
        let (offsets, total) = primitives::exclusive_prefix_sum(self.gpu, &counts);
        let total = total as usize;
        if total > 0 {
            let current = self.current_buf();
            let stamp = self.stamp_buf();
            let nonempty = &*self.nonempty;
            let epoch = self.epoch;
            self.gpu.launch(self.names.compact_scatter, len, |ctx| {
                let i = ctx.global_id;
                ctx.add_work(1);
                let v = resolved.get(i);
                if v != WL_EMPTY {
                    // offsets[i] < i for every surviving slot, so the
                    // scatter never overwrites a slot it still has to read —
                    // `resolved` is the only input.
                    current.set(offsets.get(i) as usize, v);
                    stamp.set(v as usize, epoch);
                    nonempty.set(0, 1);
                }
            });
        }
        // Both arrays hold the compacted list, exactly as after a seed
        // (device-to-device copy, staged through the host like any D2D in
        // this simulator).
        for i in 0..total {
            self.pending_buf().set(i, self.current_buf().get(i));
        }
        self.len = total;
        self.relist_slots();
    }

    /// Rebuilds the current list from the stamp array (`stamp == epoch`):
    /// queue-overflow recovery.
    fn compact_from_stamps(&mut self) {
        let epoch = self.epoch;
        let stamp = self.stamp_buf();
        self.len = self.gather_into_current(move |v| stamp.get(v) == epoch, false);
    }

    /// Rebuilds the current list from the engine predicate, re-stamping the
    /// survivors (queue-drain recovery / termination check).
    fn refill_from_predicate(&mut self, predicate: &(impl Fn(usize) -> bool + Sync)) {
        self.len = self.gather_into_current(predicate, true);
    }

    /// Count / prefix-sum / scatter over the whole domain into `current`;
    /// returns the number of gathered items.
    fn gather_into_current(&self, select: impl Fn(usize) -> bool + Sync, restamp: bool) -> usize {
        let counts = self.gpu.scratch().acquire(self.domain, 0);
        self.gpu.launch(self.names.refill, self.domain, |ctx| {
            let v = ctx.global_id;
            ctx.add_work(1);
            if select(v) {
                counts.set(v, 1);
            }
        });
        let (offsets, total) = primitives::exclusive_prefix_sum(self.gpu, &counts);
        let total = total as usize;
        if total > 0 {
            let current = self.current_buf();
            let stamp = self.stamp_buf();
            let epoch = self.epoch;
            self.gpu.launch(self.names.refill, self.domain, |ctx| {
                let v = ctx.global_id;
                ctx.add_work(1);
                if counts.get(v) == 1 {
                    current.set(offsets.get(v) as usize, v as u64);
                    if restamp {
                        stamp.set(v, epoch);
                    }
                }
            });
        }
        total
    }
}

impl fmt::Debug for Worklist<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Worklist")
            .field("mode", &self.mode)
            .field("domain", &self.domain)
            .field("len", &self.len)
            .field("epoch", &self.epoch)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::VirtualGpu;
    use proptest::collection::vec;
    use proptest::prelude::*;

    const NAMES: WorklistKernels = WorklistKernels {
        init: "wl_init",
        compact_count: "wl_count",
        compact_scatter: "wl_scatter",
        refill: "wl_refill",
        stitch: "wl_stitch",
    };

    const QUEUE_MODES: [WorklistMode; 2] = [WorklistMode::AtomicQueue, WorklistMode::BlockedQueue];

    fn gpus() -> Vec<VirtualGpu> {
        vec![VirtualGpu::sequential(), VirtualGpu::parallel()]
    }

    /// Reference model: items 0..n start live; processing item v kills it
    /// and, if v is even, schedules v/2 + n/2 … here we use a simple chain:
    /// processing v schedules v-1 while v > 0 (push), so the worklist must
    /// walk every chain down to 0 regardless of representation.
    fn run_chain(mode: WorklistMode, gpu: &VirtualGpu, n: usize) -> u64 {
        let live = DeviceBuffer::<u64>::new(n, 1);
        let processed = DeviceBuffer::<u64>::new(1, 0);
        let mut wl = Worklist::new(gpu, mode, n, NAMES);
        wl.seed([n - 1]);
        let mut rounds = 0;
        while wl.begin_round(|v| live.get(v) != 0, rounds % 3 == 0) {
            wl.for_each_active("wl_process", |_ctx, v, _view| {
                live.set(v, 0);
                processed.fetch_add(0, 1);
                if v > 0 {
                    SlotAction::Push(v - 1)
                } else {
                    SlotAction::Retire
                }
            });
            wl.end_round();
            rounds += 1;
            assert!(rounds < 10 * n as u64 + 16, "worklist failed to converge");
        }
        processed.get(0)
    }

    #[test]
    fn slot_protocol_drains_chains_in_every_mode() {
        for gpu in gpus() {
            for mode in WorklistMode::all() {
                assert_eq!(run_chain(mode, &gpu, 64), 64, "{mode}");
            }
        }
    }

    /// `run_chain` restructured on the in-loop transition: one
    /// `round_transition` at the top of the loop instead of split
    /// `begin_round`/`end_round` calls.
    fn run_chain_transition(mode: WorklistMode, gpu: &VirtualGpu, n: usize) -> (u64, u64) {
        let live = DeviceBuffer::<u64>::new(n, 1);
        let processed = DeviceBuffer::<u64>::new(1, 0);
        let mut wl = Worklist::new(gpu, mode, n, NAMES);
        wl.seed([n - 1]);
        let mut rounds = 0;
        while wl.round_transition(|v| live.get(v) != 0, rounds % 3 == 0) {
            wl.for_each_active("wl_process", |_ctx, v, _view| {
                live.set(v, 0);
                processed.fetch_add(0, 1);
                if v > 0 {
                    SlotAction::Push(v - 1)
                } else {
                    SlotAction::Retire
                }
            });
            rounds += 1;
            assert!(rounds < 10 * n as u64 + 16, "worklist failed to converge");
        }
        (processed.get(0), rounds)
    }

    #[test]
    fn round_transition_is_equivalent_to_split_begin_end() {
        for mode in WorklistMode::all() {
            let gpu = VirtualGpu::sequential();
            let (processed, rounds) = run_chain_transition(mode, &gpu, 64);
            assert_eq!(processed, 64, "{mode}");
            // Same rounds as the split protocol walking the same chain.
            let split_gpu = VirtualGpu::sequential();
            assert_eq!(run_chain(mode, &split_gpu, 64), 64, "{mode}");
            let split_rounds = split_gpu.stats().launches_of("wl_process");
            assert_eq!(rounds, split_rounds, "{mode}");
        }
    }

    #[test]
    fn deferred_items_are_retried() {
        for mode in WorklistMode::all() {
            let gpu = VirtualGpu::sequential();
            let tries = DeviceBuffer::<u64>::new(4, 0);
            let mut wl = Worklist::new(&gpu, mode, 4, NAMES);
            wl.seed([0, 1, 2, 3]);
            let mut rounds = 0u64;
            while wl.begin_round(|v| tries.get(v) < 3, false) {
                wl.for_each_active("wl_defer", |_ctx, v, _view| {
                    tries.set(v, tries.get(v) + 1);
                    if tries.get(v) < 3 {
                        SlotAction::Defer
                    } else {
                        SlotAction::Retire
                    }
                });
                wl.end_round();
                rounds += 1;
                assert!(rounds < 64);
            }
            assert_eq!(tries.to_vec(), vec![3; 4], "{mode}");
        }
    }

    #[test]
    fn finish_respects_the_predicate_retry_memory() {
        // An item that Finishes but stays live by the predicate must be
        // retried (the rolled-back-push case of G-PR-INITKRNL).
        for mode in WorklistMode::all() {
            let gpu = VirtualGpu::sequential();
            let hits = DeviceBuffer::<u64>::new(1, 0);
            let mut wl = Worklist::new(&gpu, mode, 2, NAMES);
            wl.seed([1]);
            let mut rounds = 0;
            while wl.begin_round(|v| v == 1 && hits.get(0) < 4, false) {
                wl.for_each_active("wl_finish", |_ctx, _v, _view| {
                    hits.fetch_add(0, 1);
                    SlotAction::Finish
                });
                wl.end_round();
                rounds += 1;
                assert!(rounds < 32);
            }
            assert_eq!(hits.get(0), 4, "{mode}");
        }
    }

    #[test]
    fn compaction_shrinks_the_list_and_counts() {
        let gpu = VirtualGpu::sequential();
        let n = 1024;
        let live = DeviceBuffer::<u64>::new(n, 1);
        // Kill three quarters of the items up front.
        for v in 0..n {
            if v % 4 != 0 {
                live.set(v, 0);
            }
        }
        let mut wl = Worklist::new(&gpu, WorklistMode::Compacted, n, NAMES);
        wl.seed(0..n);
        assert_eq!(wl.len(), n);
        assert!(wl.begin_round(|v| live.get(v) != 0, true));
        assert!(wl.compacted_last_round());
        assert_eq!(wl.len(), n / 4);
        assert!(gpu.stats().launches_of("wl_count") >= 1);
        assert!(gpu.stats().launches_of("wl_scatter") >= 1);
        // The surviving items are exactly the live ones.
        let seen = DeviceBuffer::<u64>::new(n, 0);
        wl.for_each_active("wl_collect", |_ctx, v, _view| {
            assert_eq!(v % 4, 0);
            seen.set(v, 1);
            SlotAction::Retire
        });
        wl.end_round();
        let expected: Vec<u64> = (0..n).map(|v| u64::from(v % 4 == 0)).collect();
        assert_eq!(seen.to_vec(), expected);
    }

    #[test]
    fn dense_mode_never_compacts() {
        let gpu = VirtualGpu::sequential();
        let mut wl = Worklist::new(&gpu, WorklistMode::DenseStamp, 64, NAMES);
        wl.seed(0..64);
        assert!(wl.begin_round(|_| true, true));
        assert!(!wl.compacted_last_round());
        assert_eq!(wl.len(), 64);
        assert_eq!(gpu.stats().launches_of("wl_count"), 0);
    }

    #[test]
    fn queue_modes_launch_no_init_kernel() {
        for mode in QUEUE_MODES {
            let gpu = VirtualGpu::sequential();
            assert_eq!(run_chain(mode, &gpu, 128), 128, "{mode}");
            let stats = gpu.stats();
            assert_eq!(stats.launches_of("wl_init"), 0, "{mode}");
            assert_eq!(stats.launches_of("wl_count"), 0, "{mode}");
            // The termination check ran at least once.
            assert!(stats.launches_of("wl_refill") >= 1, "{mode}");
        }
    }

    #[test]
    fn blocked_stitch_runs_fused_and_appends_fewer_tail_rmws() {
        // Same fan-out workload (binary-tree BFS, wide rounds pushing many
        // items per launch) in both queue representations: the blocked one
        // must report strictly fewer hot-word RMWs on the push kernel while
        // the stitch never counts as a launch.  The tree is deep enough
        // that its widest levels exceed STITCH_THRESHOLD, so the dense
        // stitch genuinely runs (narrower levels adopt their blocks
        // without it).
        let n = 4096usize;
        let hot_rmws: Vec<u64> = QUEUE_MODES
            .iter()
            .map(|&mode| {
                let gpu = VirtualGpu::sequential();
                let reached = DeviceBuffer::<u64>::new(n, 0);
                reached.set(0, 1);
                let mut wl = Worklist::new(&gpu, mode, n, NAMES);
                wl.seed([0]);
                loop {
                    wl.for_each_frontier("wl_fanout", |ctx, v, frontier| {
                        ctx.add_work(1);
                        for w in [2 * v + 1, 2 * v + 2] {
                            if w < n && reached.get(w) == 0 {
                                reached.set(w, 1);
                                frontier.push(ctx, w);
                            }
                        }
                    });
                    if !wl.advance_frontier() {
                        break;
                    }
                }
                assert_eq!(reached.to_vec().iter().sum::<u64>(), n as u64, "{mode}");
                let stats = gpu.stats();
                if mode == WorklistMode::BlockedQueue {
                    assert_eq!(stats.launches_of("wl_stitch"), 0);
                    assert!(stats.fused_tails_of("wl_stitch") >= 1);
                } else {
                    assert_eq!(stats.fused_tails_of("wl_stitch"), 0);
                }
                stats.kernels["wl_fanout"].hot_word_atomics
            })
            .collect();
        assert!(
            hot_rmws[1] < hot_rmws[0],
            "blocked hot-word RMWs {} should undercut per-item {}",
            hot_rmws[1],
            hot_rmws[0]
        );
    }

    #[test]
    fn blocked_narrow_rounds_adopt_blocks_without_stitching() {
        // A chain drain pushes one item per round — far under
        // STITCH_THRESHOLD — so the blocked queue must never stitch
        // (neither as a launch nor as a fused tail) and still drain the
        // whole chain through its hole-skipping frontier.
        let gpu = VirtualGpu::sequential();
        let n = 64;
        assert_eq!(run_chain(WorklistMode::BlockedQueue, &gpu, n), n as u64);
        let stats = gpu.stats();
        assert_eq!(stats.launches_of("wl_stitch"), 0);
        assert_eq!(stats.fused_tails_of("wl_stitch"), 0);
    }

    /// Chain drain driven through the fused-refill entry point.
    fn run_chain_fused(mode: WorklistMode, gpu: &VirtualGpu, n: usize) -> u64 {
        let live = DeviceBuffer::<u64>::new(n, 1);
        let processed = DeviceBuffer::<u64>::new(1, 0);
        let mut wl = Worklist::new(gpu, mode, n, NAMES);
        wl.seed([n - 1]);
        let mut rounds = 0;
        while wl.begin_round(|v| live.get(v) != 0, false) {
            wl.for_each_active_refill(
                "wl_process",
                |_ctx, v, _view| {
                    live.set(v, 0);
                    processed.fetch_add(0, 1);
                    if v > 0 {
                        SlotAction::Push(v - 1)
                    } else {
                        SlotAction::Retire
                    }
                },
                |v| live.get(v) != 0,
            );
            wl.end_round();
            rounds += 1;
            assert!(rounds < 10 * n as u64 + 16, "worklist failed to converge");
        }
        processed.get(0)
    }

    #[test]
    fn fused_refill_removes_the_drained_round_launch() {
        for mode in QUEUE_MODES {
            for gpu in gpus() {
                assert_eq!(run_chain_fused(mode, &gpu, 128), 128, "{mode}");
                let stats = gpu.stats();
                // The drained-queue predicate sweep ran fused into the final
                // round's kernel tail: zero refill launches, at least one
                // fused tail.
                assert_eq!(stats.launches_of("wl_refill"), 0, "{mode}");
                assert!(stats.fused_tails_of("wl_refill") >= 1, "{mode}");
            }
        }
    }

    #[test]
    fn fused_refill_recovers_items_like_the_launched_refill() {
        // The rescue scenario of `queue_refill_recovers_items_the_queue_lost`
        // driven through the fused path: a drained queue with a live
        // predicate item must still find it, without a refill launch.
        for mode in QUEUE_MODES {
            let gpu = VirtualGpu::sequential();
            let found = DeviceBuffer::<u64>::new(1, 0);
            let mut wl = Worklist::new(&gpu, mode, 16, NAMES);
            wl.seed([3]);
            let mut rounds = 0;
            while wl.begin_round(|v| v == 7 && found.get(0) == 0, false) {
                wl.for_each_active_refill(
                    "wl_rescue",
                    |_ctx, v, _view| {
                        if v == 7 {
                            found.set(0, 1);
                        }
                        SlotAction::Finish
                    },
                    |v| v == 7 && found.get(0) == 0,
                );
                rounds += 1;
                assert!(rounds < 16, "{mode}");
            }
            assert_eq!(found.get(0), 1, "{mode}");
            assert_eq!(gpu.stats().launches_of("wl_refill"), 0, "{mode}");
        }
    }

    #[test]
    fn blocked_claims_past_capacity_stitch_back_dense() {
        // Block rounding claims past the capacity on a tiny domain
        // (ceil(12/8)*8 = 16 > 12); as long as no push *lands* past it, the
        // stitch alone recovers the dense list.
        let gpu = VirtualGpu::sequential();
        let n = 12;
        let mut wl = Worklist::new(&gpu, WorklistMode::BlockedQueue, n, NAMES);
        wl.seed(0..n);
        assert!(wl.begin_round(|_| true, false));
        wl.for_each_active("wl_push", |_ctx, v, _view| SlotAction::Push((v + 1) % n));
        assert!(wl.begin_round(|_| true, false));
        assert_eq!(wl.len(), n);
        let seen = DeviceBuffer::<u64>::new(n, 0);
        wl.for_each_active("wl_collect", |_ctx, v, _view| {
            seen.set(v, 1);
            SlotAction::Retire
        });
        assert_eq!(seen.to_vec(), vec![1; n]);
    }

    #[test]
    fn blocked_overflow_rebuilds_from_stamps() {
        // Mirror of `queue_overflow_rebuilds_from_stamps` for the blocked
        // representation: with the overflow flag raised, the stamps must
        // reconstruct the full membership no matter what the blocks hold.
        let gpu = VirtualGpu::sequential();
        let mut wl = Worklist::new(&gpu, WorklistMode::BlockedQueue, 16, NAMES);
        wl.seed([0]);
        assert!(wl.begin_round(|_| true, false));
        wl.for_each_active("wl_push", |ctx, _v, view| {
            for w in 1..5usize {
                view.queue_push(ctx, w);
            }
            SlotAction::Push(5)
        });
        wl.overflow.set(0, 1);
        assert!(wl.begin_round(|_| false, false));
        assert!(wl.refilled_last_round());
        assert_eq!(wl.len(), 5);
        let got = DeviceBuffer::<u64>::new(16, 0);
        wl.for_each_active("wl_collect", |_ctx, v, _view| {
            got.set(v, 1);
            SlotAction::Retire
        });
        let mut expected = vec![0u64; 16];
        expected[1..6].fill(1);
        assert_eq!(got.to_vec(), expected);
    }

    #[test]
    fn queue_refill_recovers_items_the_queue_lost() {
        // Simulate a lost racy push: the queue drains while the predicate
        // still reports an item live — begin_round must refill and find it.
        let gpu = VirtualGpu::sequential();
        let rescue_rounds = DeviceBuffer::<u64>::new(1, 0);
        let mut wl = Worklist::new(&gpu, WorklistMode::AtomicQueue, 16, NAMES);
        wl.seed([3]);
        let mut processed = Vec::new();
        while wl.begin_round(|v| v == 7 && rescue_rounds.get(0) == 0, false) {
            if wl.refilled_last_round() {
                rescue_rounds.set(0, 1);
            }
            wl.for_each_active("wl_rescue", |_ctx, v, _view| {
                let _ = v;
                SlotAction::Finish
            });
            processed.push(wl.len());
        }
        // Item 3 (seeded) ran once; item 7 was only reachable through the
        // predicate refill.
        assert_eq!(rescue_rounds.get(0), 1);
        assert_eq!(processed, vec![1, 1]);
    }

    #[test]
    fn queue_overflow_rebuilds_from_stamps() {
        let gpu = VirtualGpu::sequential();
        let mut wl = Worklist::new(&gpu, WorklistMode::AtomicQueue, 8, NAMES);
        wl.seed([0]);
        assert!(wl.begin_round(|_| true, false));
        // Push the full next frontier through the slot action, then corrupt
        // the tail to look overflowed: the stamps must reconstruct it.
        wl.for_each_active("wl_push", |ctx, _v, view| {
            for w in 1..5usize {
                view.queue_push(ctx, w);
            }
            SlotAction::Push(5)
        });
        wl.overflow.set(0, 1);
        assert!(wl.begin_round(|_| false, false));
        assert!(wl.refilled_last_round());
        assert_eq!(wl.len(), 5);
        let got = DeviceBuffer::<u64>::new(8, 0);
        wl.for_each_active("wl_collect", |_ctx, v, _view| {
            got.set(v, 1);
            SlotAction::Retire
        });
        assert_eq!(got.to_vec(), vec![0, 1, 1, 1, 1, 1, 0, 0]);
    }

    /// BFS over a path graph 0-1-2-…-(n-1): every mode must visit each
    /// vertex exactly once, level by level.
    fn run_bfs(mode: WorklistMode, gpu: &VirtualGpu, n: usize) -> Vec<u64> {
        let dist = DeviceBuffer::<u64>::new(n, u64::MAX);
        dist.set(0, 0);
        let mut wl = Worklist::new(gpu, mode, n, NAMES);
        wl.seed([0]);
        let mut level = 0u64;
        loop {
            wl.for_each_frontier("wl_bfs", |ctx, v, frontier| {
                ctx.add_work(1);
                for w in [v.wrapping_sub(1), v + 1] {
                    if w < n && dist.get(w) == u64::MAX {
                        dist.set(w, level + 1);
                        frontier.push(ctx, w);
                    }
                }
            });
            if !wl.advance_frontier() {
                break;
            }
            level += 1;
        }
        dist.to_vec()
    }

    #[test]
    fn frontier_protocol_levels_agree_across_modes() {
        let expected: Vec<u64> = (0..200u64).collect();
        for gpu in gpus() {
            for mode in WorklistMode::all() {
                assert_eq!(run_bfs(mode, &gpu, 200), expected, "{mode}");
            }
        }
    }

    #[test]
    fn dense_frontier_scans_domain_but_compacted_and_queue_do_not() {
        let n = 512;
        let per_mode: Vec<u64> = WorklistMode::all()
            .into_iter()
            .map(|mode| {
                let gpu = VirtualGpu::sequential();
                run_bfs(mode, &gpu, n);
                gpu.stats().kernels["wl_bfs"].total_threads
            })
            .collect();
        // Dense launches n threads per level; the materialized frontiers
        // launch exactly one thread per frontier vertex.  The blocked
        // variant's narrow rounds adopt whole claimed blocks (holes
        // included), so its launches are block-rounded — at most one
        // cache-line block per visit, still nowhere near a domain scan.
        assert!(per_mode[0] > per_mode[1], "dense {} vs compacted {}", per_mode[0], per_mode[1]);
        assert!(per_mode[0] > per_mode[2], "dense {} vs queue {}", per_mode[0], per_mode[2]);
        assert!(per_mode[0] > per_mode[3], "dense {} vs blocked {}", per_mode[0], per_mode[3]);
        assert_eq!(per_mode[2], n as u64, "queue launches one thread per visit");
        assert!(
            per_mode[3] >= n as u64 && per_mode[3] <= (n * QUEUE_BLOCK) as u64,
            "blocked launches between one thread and one block per visit, got {}",
            per_mode[3]
        );
    }

    #[test]
    fn compacted_frontier_appends_levels_like_the_queue() {
        // After its device-side seed, a compacted BFS builds every level by
        // append: no refill or prefix-sum launch, and the same launch widths
        // as the per-item queue.
        let n = 300;
        let threads: Vec<u64> = [WorklistMode::Compacted, WorklistMode::AtomicQueue]
            .into_iter()
            .map(|mode| {
                let gpu = VirtualGpu::sequential();
                let reached = DeviceBuffer::<u64>::new(n, 0);
                let mut wl = Worklist::new(&gpu, mode, n, NAMES);
                wl.seed_by_predicate(|v| v % 50 == 0);
                let seeded = gpu.stats();
                let mut levels = 0;
                loop {
                    wl.for_each_frontier("wl_bfs", |ctx, v, frontier| {
                        reached.set(v, 1);
                        if v + 1 < n && (v + 1) % 50 != 0 {
                            frontier.push(ctx, v + 1);
                        }
                    });
                    levels += 1;
                    if !wl.advance_frontier() {
                        break;
                    }
                }
                assert_eq!(levels, 50, "{mode}");
                assert_eq!(reached.to_vec(), vec![1; n], "{mode}");
                let stats = gpu.stats();
                for kernel in ["wl_refill", "scan_block", "scan_uniform_add"] {
                    assert_eq!(
                        stats.launches_of(kernel),
                        seeded.launches_of(kernel),
                        "{mode}: {kernel} launched after the seed"
                    );
                }
                stats.kernels["wl_bfs"].total_threads
            })
            .collect();
        assert_eq!(threads[0], threads[1]);
        assert_eq!(threads[0], n as u64, "one thread per visit");
    }

    /// The launch a dense frontier level replaced: one thread per domain
    /// vertex, each reading its stamp.
    fn full_grid_level(
        wl: &Worklist<'_>,
        name: &'static str,
        f: impl Fn(&ThreadCtx, usize, &FrontierView<'_>) + Sync,
    ) -> LaunchRecord {
        let (stamp, epoch) = (wl.stamp_buf(), wl.epoch);
        let next = NextLevel::Dense { nonempty: &wl.nonempty, marks: &wl.members().marks };
        let view = FrontierView { stamp, epoch, next };
        wl.gpu.launch(name, wl.domain, |ctx| {
            let v = ctx.global_id;
            ctx.add_work(1);
            if stamp.get(v) == epoch {
                f(ctx, v, &view);
            }
        })
    }

    /// Everything a dense level leaves behind that the cost model or the
    /// next level can see, with the modelled time as bits.
    fn record_bits(rec: &LaunchRecord) -> (usize, u64, u64, u64, u64, u64) {
        let LaunchRecord { threads, work, max_thread_work, atomics, hot_word_atomics, .. } = *rec;
        (threads, work, max_thread_work, atomics, hot_word_atomics, rec.modelled_time_ns.to_bits())
    }

    /// A frontier kernel with varied work, one contended word, and pushes
    /// read from `adjacency` (vertex `v` pushes the list at `v` modulo its
    /// length, each target modulo the domain, unless `skip` says no).
    fn level_kernel<'a>(
        hot: &'a DeviceBuffer<u64>,
        adjacency: &'a [Vec<usize>],
        skip: &'a (dyn Fn(usize) -> bool + Sync),
    ) -> impl Fn(&ThreadCtx, usize, &FrontierView<'_>) + Sync + 'a {
        move |ctx, v, frontier| {
            ctx.add_work(1 + v as u64 % 3);
            if v % 4 == 0 {
                hot.fetch_add(0, 1);
                ctx.add_atomic(hot.word_id(0));
            }
            let domain = frontier.stamp.len();
            for &w in &adjacency[v % adjacency.len()] {
                if !skip(w % domain) {
                    frontier.push(ctx, w % domain);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A dense level over its members records the same launch, leaves
        /// the same next-level stamps and advances the same way as the
        /// full-grid launch it replaces — including after a re-seed that
        /// abandons a level's pushes.  On the pooled backend the pushes skip
        /// current members, so that no race decides which members run.
        #[test]
        fn dense_member_levels_match_the_full_grid_launch(
            domain in 1usize..400,
            seeds in vec(0usize..1000, 0..24),
            reseeds in vec(0usize..1000, 0..24),
            adjacency in vec(vec(0usize..1000, 0..4), 1..64),
            reseed_after in 0usize..5,
        ) {
            let in_domain = |items: Vec<usize>| items.into_iter().map(|v| v % domain).collect::<Vec<_>>();
            let (seeds, reseeds) = (in_domain(seeds), in_domain(reseeds));
            for pooled in [false, true] {
                let device = || if pooled { pooled_3() } else { VirtualGpu::sequential() };
                let (gpu_m, gpu_f) = (device(), device());
                let mut members = Worklist::new(&gpu_m, WorklistMode::DenseStamp, domain, NAMES);
                let mut full = Worklist::new(&gpu_f, WorklistMode::DenseStamp, domain, NAMES);
                members.seed(seeds.iter().copied());
                full.seed(seeds.iter().copied());
                for level in 0..8 {
                    let in_level: Vec<bool> =
                        members.stamp_buf().to_vec().iter().map(|&s| s == members.epoch).collect();
                    // Pooled pushes skip current members (see above).
                    let skip = |w: usize| pooled && in_level[w];
                    let (hot_m, hot_f) = (DeviceBuffer::<u64>::new(1, 0), DeviceBuffer::<u64>::new(1, 0));
                    let got = members.frontier_launch("wl_level", level_kernel(&hot_m, &adjacency, &skip));
                    let want = full_grid_level(&full, "wl_level", level_kernel(&hot_f, &adjacency, &skip));
                    prop_assert_eq!(record_bits(&got), record_bits(&want), "pooled {} level {}", pooled, level);
                    prop_assert_eq!(members.stamp_buf().to_vec(), full.stamp_buf().to_vec());
                    if level == reseed_after {
                        members.seed(reseeds.iter().copied());
                        full.seed(reseeds.iter().copied());
                        continue;
                    }
                    let advanced = members.advance_frontier();
                    prop_assert_eq!(advanced, full.advance_frontier());
                    if !advanced {
                        break;
                    }
                }
            }
        }
    }

    #[test]
    fn dense_levels_run_only_their_members_on_the_host() {
        let runs = std::sync::atomic::AtomicUsize::new(0);
        let n = 1_000_000;
        let gpu = VirtualGpu::sequential();
        let mut wl = Worklist::new(&gpu, WorklistMode::DenseStamp, n, NAMES);
        wl.seed([999_999, 7, 500_000]);
        wl.for_each_frontier("wl_bfs", |_ctx, _v, _frontier| {
            runs.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(runs.into_inner(), 3);
        // Priced as the full grid: a million threads, each with its unit of
        // stamp-reading work.
        let stats = gpu.stats();
        assert_eq!(stats.kernels["wl_bfs"].total_threads, n as u64);
        assert_eq!(stats.kernels["wl_bfs"].total_work, n as u64);
    }

    /// A pooled device of three threads on which every launch of at least
    /// one running thread goes to the pool.
    fn pooled_3() -> VirtualGpu {
        let exec = crate::ExecutorConfig::default().with_parallel_threshold(1);
        VirtualGpu::new(
            crate::GpuConfig::tesla_c2050(crate::Backend::Parallel { workers: 3 })
                .with_executor(exec),
        )
    }

    /// [`Worklist::begin_round`] in a list mode as it ran before slot rounds
    /// ran their live slots only: `G-PR-INITKRNL` over every listed slot.
    fn full_list_begin_round(
        wl: &mut Worklist<'_>,
        predicate: impl Fn(usize) -> bool + Sync,
        compact: bool,
    ) -> bool {
        wl.epoch += 1;
        wl.nonempty.set(0, 0);
        if wl.mode == WorklistMode::Compacted && compact {
            wl.compact_slots(&predicate);
        } else {
            let (current, pending, stamp) = (wl.current_buf(), wl.pending_buf(), wl.stamp_buf());
            let (nonempty, epoch) = (&*wl.nonempty, wl.epoch);
            wl.gpu.launch(wl.names.init, wl.len, |ctx| {
                let i = ctx.global_id;
                ctx.add_work(1);
                let prev = pending.get(i);
                if prev != WL_EMPTY && predicate(prev as usize) {
                    current.set(i, prev);
                }
                let v = current.get(i);
                if v != WL_EMPTY {
                    stamp.set(v as usize, epoch);
                    nonempty.set(0, 1);
                }
            });
        }
        wl.nonempty.get(0) != 0
    }

    /// The list modes' processing launch over every listed slot, which a
    /// slot round replaced.
    fn full_list_launch(
        wl: &Worklist<'_>,
        name: &'static str,
        f: impl Fn(&ThreadCtx, usize, &ActiveView<'_>) -> SlotAction + Sync,
    ) -> LaunchRecord {
        let (current, pending) = (wl.current_buf(), wl.pending_buf());
        let view = ActiveView { stamp: wl.stamp_buf(), epoch: wl.epoch, queue: None };
        wl.gpu.launch(name, wl.len, |ctx| {
            let i = ctx.global_id;
            ctx.add_work(1);
            let v = current.get(i);
            if v == WL_EMPTY {
                pending.set(i, WL_EMPTY);
                return;
            }
            match f(ctx, v as usize, &view) {
                SlotAction::Push(w) => pending.set(i, w as u64),
                SlotAction::Defer | SlotAction::Finish => pending.set(i, WL_EMPTY),
                SlotAction::Retire => {
                    current.set(i, WL_EMPTY);
                    pending.set(i, WL_EMPTY);
                }
            }
        })
    }

    /// A slot kernel with varied work, one contended word, and actions read
    /// from `script` by item and round.  With `seen`, an item listed in two
    /// slots defers in the second one to run, which only a fixed thread
    /// order decides.
    fn slot_kernel<'a>(
        hot: &'a DeviceBuffer<u64>,
        seen: Option<&'a DeviceBuffer<u64>>,
        script: &'a [u8],
        round: usize,
    ) -> impl Fn(&ThreadCtx, usize, &ActiveView<'_>) -> SlotAction + Sync + 'a {
        move |ctx, v, view| {
            ctx.add_work(1 + v as u64 % 3);
            if v % 4 == 0 {
                hot.fetch_add(0, 1);
                ctx.add_atomic(hot.word_id(0));
            }
            if seen.is_some_and(|seen| seen.swap(v, round as u64 + 1) == round as u64 + 1) {
                return SlotAction::Defer;
            }
            let code = script[(v + 3 * round) % script.len()];
            match code % 4 {
                0 => {
                    let w = (5 * v + code as usize) % view.stamp.len();
                    if code & 8 != 0 && view.in_current_round(w) {
                        SlotAction::Defer
                    } else {
                        SlotAction::Push(w)
                    }
                }
                1 => SlotAction::Defer,
                2 => SlotAction::Finish,
                _ => SlotAction::Retire,
            }
        }
    }

    /// Every counter of every kernel a device recorded, with the modelled
    /// time as bits.
    fn stats_bits(gpu: &VirtualGpu) -> Vec<(String, [u64; 6])> {
        let kernels = gpu.stats().kernels.into_iter();
        kernels
            .map(|(name, k)| {
                let time = k.modelled_time_ns.to_bits();
                let (threads, work, atomics) = (k.total_threads, k.total_work, k.total_atomics);
                (name, [k.launches, threads, work, atomics, k.hot_word_atomics, time])
            })
            .collect()
    }

    /// Both slot arrays and the stamps.
    fn slot_image(wl: &Worklist<'_>) -> [Vec<u64>; 3] {
        [wl.current_buf().to_vec(), wl.pending_buf().to_vec(), wl.stamp_buf().to_vec()]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A slot round over its live slots records the same launches,
        /// leaves the same slot arrays and stamps and gives the same verdict
        /// as the full-list round it replaces, in both list modes, with
        /// compactions and a re-seed, and its live bitmap marks exactly the
        /// slots that hold an item.  On the pooled backend no item defers
        /// for being listed twice, so that no race decides an action.
        #[test]
        fn slot_member_rounds_match_the_full_list_launch(
            domain in 1usize..300,
            seeds in vec(0usize..1000, 0..48),
            reseeds in vec(0usize..1000, 0..48),
            script in vec(0u8..16, 1..64),
            compacts in vec(0u8..2, 1..8),
            reseed_after in 0usize..10,
        ) {
            let in_domain = |items: &[usize]| items.iter().map(|v| v % domain).collect::<Vec<_>>();
            let (seeds, reseeds) = (in_domain(&seeds), in_domain(&reseeds));
            for (mode, pooled) in [WorklistMode::DenseStamp, WorklistMode::Compacted]
                .into_iter()
                .flat_map(|mode| [(mode, false), (mode, true)])
            {
                let device = || if pooled { pooled_3() } else { VirtualGpu::sequential() };
                let (gpu_m, gpu_f) = (device(), device());
                let mut members = Worklist::new(&gpu_m, mode, domain, NAMES);
                let mut full = Worklist::new(&gpu_f, mode, domain, NAMES);
                members.seed(seeds.iter().copied());
                full.seed(seeds.iter().copied());
                let mut reseeded = false;
                for round in 0..10 {
                    let active = |v: usize| script[(2 * v + round) % script.len()] & 4 != 0;
                    let compact = compacts[round % compacts.len()] == 1;
                    let verdict = members.begin_round(active, compact);
                    prop_assert_eq!(verdict, full_list_begin_round(&mut full, active, compact));
                    prop_assert_eq!(stats_bits(&gpu_m), stats_bits(&gpu_f), "{} round {}", mode, round);
                    prop_assert_eq!(slot_image(&members), slot_image(&full));
                    if verdict {
                        let (hot_m, hot_f) = (DeviceBuffer::<u64>::new(1, 0), DeviceBuffer::<u64>::new(1, 0));
                        let (seen_m, seen_f) = (DeviceBuffer::<u64>::new(domain, 0), DeviceBuffer::<u64>::new(domain, 0));
                        let seen = |buf| (!pooled).then_some(buf);
                        let got = members.active_launch("wl_push", slot_kernel(&hot_m, seen(&seen_m), &script, round));
                        let want = full_list_launch(&full, "wl_push", slot_kernel(&hot_f, seen(&seen_f), &script, round));
                        prop_assert_eq!(record_bits(&got), record_bits(&want), "{} round {}", mode, round);
                        prop_assert_eq!(slot_image(&members), slot_image(&full));
                    }
                    let [current, pending, _] = slot_image(&members);
                    let bits = members.live_slots();
                    for i in 0..members.len() {
                        let marked = bits.get(i / 64) >> (i % 64) & 1 == 1;
                        prop_assert_eq!(marked, current[i] != WL_EMPTY || pending[i] != WL_EMPTY);
                    }
                    members.end_round();
                    full.end_round();
                    if !reseeded && (round == reseed_after || !verdict) {
                        members.seed(reseeds.iter().copied());
                        full.seed(reseeds.iter().copied());
                        reseeded = true;
                    } else if !verdict {
                        break;
                    }
                }
            }
        }
    }

    /// On a pooled device whose threshold a million slots pass and three do
    /// not, a round with three live slots runs them, and only them, inline
    /// on the calling thread, yet is priced as the full list on the pool.
    #[test]
    fn slot_rounds_run_only_their_live_slots_on_the_host() {
        use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
        let n = 1_000_000;
        let keep = [7, 500_000, 999_999];
        let gpu = VirtualGpu::tesla_c2050(crate::Backend::Parallel { workers: 2 });
        let mut wl = Worklist::new(&gpu, WorklistMode::DenseStamp, n, NAMES);
        wl.seed(0..n);
        assert!(wl.begin_round(|_| true, false));
        wl.for_each_active("wl_push", |_ctx, v, _view| {
            if keep.contains(&v) {
                SlotAction::Defer
            } else {
                SlotAction::Retire
            }
        });
        wl.end_round();
        let (inits, pushes) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let caller = std::thread::current().id();
        let count = |runs: &AtomicUsize| {
            assert_eq!(std::thread::current().id(), caller, "ran on the pool");
            runs.fetch_add(1, Relaxed);
        };
        let retry = |_v| {
            count(&inits);
            true
        };
        let mark = gpu.stats_mark();
        assert!(wl.begin_round(retry, false));
        wl.for_each_active("wl_push", |_ctx, _v, _view| {
            count(&pushes);
            SlotAction::Finish
        });
        assert_eq!((inits.into_inner(), pushes.into_inner()), (3, 3));
        // Priced as the full list: a million threads, each with its unit of
        // slot-reading work, and the pool's chunk claims over them.
        let exec = gpu.config().executor;
        let claims = n.div_ceil(crate::exec::effective_chunk(exec.chunk_size, n, 2)) as u64;
        let round = gpu.stats_since(&mark);
        for kernel in ["wl_init", "wl_push"] {
            let k = &round.kernels[kernel];
            assert_eq!((k.total_threads, k.total_work), (n as u64, n as u64), "{kernel}");
            assert_eq!(k.total_atomics, claims, "{kernel}");
        }
    }

    #[test]
    fn reseeding_never_collides_with_stale_stamps() {
        for mode in WorklistMode::all() {
            let gpu = VirtualGpu::sequential();
            let mut wl = Worklist::new(&gpu, mode, 32, NAMES);
            for _round in 0..3 {
                let visited = DeviceBuffer::<u64>::new(32, 0);
                wl.seed([4]);
                loop {
                    wl.for_each_frontier("wl_bfs", |ctx, v, frontier| {
                        visited.set(v, visited.get(v) + 1);
                        if v + 1 < 8 {
                            frontier.push(ctx, v + 1);
                        }
                    });
                    if !wl.advance_frontier() {
                        break;
                    }
                }
                let host = visited.to_vec();
                for (v, &count) in host.iter().enumerate() {
                    let expected = u64::from((4..8).contains(&v));
                    assert_eq!(count, expected, "{mode}: vertex {v} visited {count}x");
                }
            }
            // A repeated item is seeded once, even in a list longer than
            // the domain.
            let repeated: Vec<usize> = (0..24).map(|i| i % 11 / 2 * 2).collect();
            for (domain, items) in [(1, vec![0, 0]), (11, repeated)] {
                let mut wl = Worklist::new(&gpu, mode, domain, NAMES);
                wl.seed(items.iter().copied());
                let visited = DeviceBuffer::<u64>::new(domain, 0);
                wl.for_each_frontier("wl_bfs", |_ctx, v, _frontier| {
                    visited.fetch_add(v, 1);
                });
                for (v, &count) in visited.to_vec().iter().enumerate() {
                    let expected = u64::from(items.contains(&v));
                    assert_eq!(count, expected, "{mode}: vertex {v} of {domain} visited {count}x");
                }
            }
        }
    }

    #[test]
    fn reseed_ignores_pushes_that_were_never_consumed() {
        // A BFS that breaks out early (e.g. G-HK finding a free row) leaves
        // `epoch + 1` stamps behind without ever advancing; the next seed
        // must not mistake them for freshly seeded items.
        for mode in WorklistMode::all() {
            let gpu = VirtualGpu::sequential();
            let mut wl = Worklist::new(&gpu, mode, 16, NAMES);
            wl.seed([0]);
            wl.for_each_frontier("wl_bfs", |ctx, _v, frontier| frontier.push(ctx, 5));
            // No advance_frontier: the push to 5 is abandoned by the re-seed.
            wl.seed([1]);
            let visited = DeviceBuffer::<u64>::new(16, 0);
            wl.for_each_frontier("wl_bfs", |_ctx, v, _frontier| visited.set(v, 1));
            let host = visited.to_vec();
            for (v, &count) in host.iter().enumerate() {
                assert_eq!(count, u64::from(v == 1), "{mode}: vertex {v} visited {count}x");
            }
        }
    }

    #[test]
    fn seed_by_predicate_selects_the_same_frontier_as_host_seeding() {
        for mode in WorklistMode::all() {
            let gpu = VirtualGpu::sequential();
            let n = 300;
            let live = DeviceBuffer::<u64>::new(n, 0);
            for v in (0..n).step_by(7) {
                live.set(v, 1);
            }
            let mut wl = Worklist::new(&gpu, mode, n, NAMES);
            wl.seed_by_predicate(|v| live.get(v) != 0);
            let visited = DeviceBuffer::<u64>::new(n, 0);
            wl.for_each_frontier("wl_bfs", |_ctx, v, _frontier| visited.set(v, 1));
            let host = visited.to_vec();
            for (v, &count) in host.iter().enumerate() {
                assert_eq!(count, u64::from(v % 7 == 0), "{mode}: vertex {v}");
            }
            // The gather was charged to the device model, not done host-side.
            assert!(gpu.stats().launches_of("wl_refill") >= 1, "{mode}");
        }
    }

    #[test]
    fn scan_domain_only_touches_the_flag_word() {
        // The First-variant shape: no stamps, no lists — a worklist used
        // purely for domain scans must not materialize the domain buffers.
        let gpu = VirtualGpu::sequential();
        let before = gpu.scratch().stats();
        let mut wl = Worklist::new(&gpu, WorklistMode::DenseStamp, 1 << 20, NAMES);
        for _ in 0..3 {
            wl.scan_domain("wl_scan", |_ctx, _v, _marker| {});
        }
        drop(wl);
        let after = gpu.scratch().stats();
        // Only the three one-word buffers (tail, nonempty, overflow) were
        // acquired; the megaword domain arrays never were.
        assert_eq!(after.retained_words - before.retained_words, 3);
    }

    #[test]
    fn scan_domain_reports_activity() {
        let gpu = VirtualGpu::sequential();
        let mut wl = Worklist::new(&gpu, WorklistMode::DenseStamp, 100, NAMES);
        let hits = DeviceBuffer::<u64>::new(100, 0);
        let any = wl.scan_domain("wl_scan", |_ctx, v, marker| {
            hits.set(v, 1);
            if v == 42 {
                marker.mark_active();
            }
        });
        assert!(any);
        assert_eq!(hits.to_vec(), vec![1; 100]);
        let none = wl.scan_domain("wl_scan", |_ctx, _v, _marker| {});
        assert!(!none);
    }

    #[test]
    fn worklists_draw_storage_from_the_scratch_arena() {
        let gpu = VirtualGpu::sequential();
        run_chain(WorklistMode::Compacted, &gpu, 256);
        let primed = gpu.scratch().stats();
        run_chain(WorklistMode::Compacted, &gpu, 256);
        let after = gpu.scratch().stats();
        // A warm repeat allocates nothing new.
        assert_eq!(after.allocations, primed.allocations);
        assert!(after.reuses > primed.reuses);
    }

    #[test]
    fn empty_domain_and_empty_seed_are_fine() {
        for mode in WorklistMode::all() {
            let gpu = VirtualGpu::sequential();
            let mut wl = Worklist::new(&gpu, mode, 0, NAMES);
            wl.seed(std::iter::empty());
            assert!(!wl.begin_round(|_| true, true), "{mode}");
            let mut wl = Worklist::new(&gpu, mode, 8, NAMES);
            wl.seed(std::iter::empty());
            assert!(!wl.begin_round(|_| false, false), "{mode}");
        }
    }

    #[test]
    fn mode_labels_round_trip() {
        for mode in WorklistMode::all() {
            assert_eq!(mode.label().parse::<WorklistMode>().unwrap(), mode);
            assert_eq!(mode.to_string(), mode.label());
        }
        let err = "stack".parse::<WorklistMode>().unwrap_err();
        assert!(err.to_string().contains("stack"));
        assert!(err.to_string().contains("queue"));
    }
}
