//! The host engine (`scalar` and `pooled` in the backend registry).
//!
//! One set of stage functions serves every thread count. Live agents are
//! bucketed by contiguous row bands ([`RowBuckets`]) and every kernel
//! stage runs over count-balanced groups of buckets, so no task visits an
//! empty cell. At `threads > 1` the task groups run on a `simt`
//! [`WorkerPool`]; at one thread no pool is built and [`dispatch`] runs
//! the same task ids one after another on the calling thread — the
//! paper's "sequential counterpart running on a single threaded CPU"
//! (`scalar` is this engine at one thread). Every output slot is written
//! by exactly one task — agent slots by the task owning the agent's
//! bucket, grid cells by the unique winner moving out of or into them —
//! so no locks are held in any hot loop. Only the ACO pheromone
//! evaporation sweeps the (dense) field, over cell bands
//! ([`band_ranges`]).
//!
//! Movement shares no claim state between tasks: each mover recomputes
//! [`gather_winner`] at its target cell with that cell's own RNG stream
//! — the draw simt's one-thread-per-cell movement kernel makes there —
//! and records whether it won; winners then move in place. Trajectories
//! are therefore **bit-identical to simt's dense oracle at every thread
//! count** — asserted by the cross-backend golden parity tests.

use std::sync::Arc;

use pedsim_grid::cell::{Group, CELL_EMPTY, CELL_WALL, NEIGHBOR_OFFSETS};
use pedsim_grid::property::NO_FUTURE;
use pedsim_grid::scan::{ScanMatrix, TourLengths};
use pedsim_grid::{DistanceData, EnvConfig, Environment, Matrix, PheromoneField};
use philox::StreamRng;
use simt::exec::pool::WorkerPool;

use crate::metrics::{Geometry, Metrics};
use crate::model::{
    aco_scan_row, aco_select, front_status, gather_winner, lem_scan_row, lem_select, ScanRow,
};
use crate::params::{IterationMode, ModelKind, SimConfig};

use super::lifecycle::{LifecycleWorld, OpenLifecycle};
use super::pipeline::{Stage, StageBackend, StepCore, StepTimings};
use super::{swap_model, Engine, ModelSwapError, KERNEL_MOVE, KERNEL_TOUR};
use crate::world::CompiledWorld;

/// Band oversubscription factor: bands per worker, so a straggler band
/// cannot serialise the stage.
const BANDS_PER_WORKER: usize = 4;

/// Split `0..n` into exactly `parts.max(1)` contiguous ranges covering
/// every index exactly once (sizes differ by at most one; trailing ranges
/// may be empty when `parts > n`). This is the tile partition every
/// pooled stage dispatches over — the partition proptest pins the
/// exactly-once property.
pub fn band_ranges(n: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.max(1);
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, n);
    out
}

/// Write-set tracker for the `audit-runtime` tile-race detector: one
/// owner word per slot, `0` = unwritten this phase, `1` = host thread,
/// `b + 2` = pool block `b`. A [`Scatter`] lives for exactly one phase,
/// so "written twice while this Scatter exists" is precisely the
/// structural-disjointness violation the SAFETY contracts rule out.
#[cfg(feature = "audit-runtime")]
struct WriteSet {
    owners: Vec<std::sync::atomic::AtomicU32>,
}

#[cfg(feature = "audit-runtime")]
impl WriteSet {
    fn new(len: usize) -> Self {
        Self {
            owners: (0..len)
                .map(|_| std::sync::atomic::AtomicU32::new(0))
                .collect(),
        }
    }

    /// Record a write to slot `i`, panicking if any task already wrote it
    /// during this Scatter's phase.
    fn note(&self, i: usize) {
        let me = match simt::exec::pool::current_block() {
            Some(b) => b as u32 + 2,
            None => 1,
        };
        // ordering: relaxed — the swap is an atomic claim; detection only
        // needs each slot's own modification order, not cross-slot order.
        let prev = self.owners[i].swap(me, std::sync::atomic::Ordering::Relaxed);
        if prev != 0 {
            panic!(
                "tile race: slot {i} written by {} after {} in the same phase",
                Self::writer(me),
                Self::writer(prev),
            );
        }
    }

    /// Name an owner word for the race report.
    fn writer(owner: u32) -> String {
        match owner {
            1 => "the host thread".to_string(),
            b => format!("task {}", b - 2),
        }
    }
}

/// A raw scatter handle over a mutable slice, for disjoint writes from
/// pool tasks (the host-side analogue of `simt::memory::ScatterView`,
/// without the per-slot flag machinery — disjointness here is structural:
/// cell slots are owned by the band holding the cell, agent slots by the
/// unique cell their agent wins). Under `audit-runtime` every write is
/// checked against a per-phase [`WriteSet`] instead of being trusted.
#[cfg_attr(not(feature = "audit-runtime"), derive(Clone, Copy))]
#[cfg_attr(feature = "audit-runtime", derive(Clone))]
struct Scatter<'a, T> {
    ptr: *mut T,
    len: usize,
    #[cfg(feature = "audit-runtime")]
    ws: Arc<WriteSet>,
    _life: std::marker::PhantomData<&'a mut [T]>,
}

// SAFETY: tasks write disjoint slots (see the struct docs); the barrier
// at the end of every `WorkerPool::run` orders writes before any
// subsequent read.
unsafe impl<T: Send> Sync for Scatter<'_, T> {}
unsafe impl<T: Send> Send for Scatter<'_, T> {}

impl<'a, T: Copy> Scatter<'a, T> {
    fn new(s: &'a mut [T]) -> Self {
        Self {
            ptr: s.as_mut_ptr(),
            len: s.len(),
            #[cfg(feature = "audit-runtime")]
            ws: Arc::new(WriteSet::new(s.len())),
            _life: std::marker::PhantomData,
        }
    }

    /// Write slot `i`.
    ///
    /// SAFETY: `i` must be in bounds and written by at most one concurrent
    /// task; no concurrent task may read slot `i` (except the writer).
    #[inline]
    unsafe fn write(&self, i: usize, v: T) {
        debug_assert!(i < self.len);
        #[cfg(feature = "audit-runtime")]
        self.ws.note(i);
        unsafe { *self.ptr.add(i) = v }
    }

    /// Run `f` over the slots of `band` as one mutable slice, for sweeps
    /// that own a contiguous run of slots. Under `audit-runtime` every
    /// slot of the band is noted in the write set, as [`Scatter::write`]
    /// would.
    ///
    /// SAFETY: `band` must be in bounds and, while `f` runs, neither
    /// written nor read by any other task.
    #[inline]
    unsafe fn with_band(&self, band: std::ops::Range<usize>, f: impl FnOnce(&mut [T])) {
        debug_assert!(band.start <= band.end && band.end <= self.len);
        #[cfg(feature = "audit-runtime")]
        for i in band.clone() {
            self.ws.note(i);
        }
        // SAFETY: in bounds and exclusive to this task (caller contract).
        f(unsafe { std::slice::from_raw_parts_mut(self.ptr.add(band.start), band.len()) })
    }

    /// Read slot `i`.
    ///
    /// SAFETY: `i` must be in bounds and, within the current phase, only
    /// ever written by the task performing this read.
    #[inline]
    unsafe fn read(&self, i: usize) -> T {
        debug_assert!(i < self.len);
        unsafe { *self.ptr.add(i) }
    }
}

/// Live agents bucketed by contiguous row bands — the iteration surface
/// of the host engine.
///
/// Each bucket holds the live slots whose current row falls inside its
/// band; per-slot back-pointers make insert/remove/move O(1). Stage
/// dispatch groups **buckets** into tasks balanced by *agent count*
/// (via [`RowBuckets::task_groups`]), not by row count — at corridor
/// occupancies most rows are empty, so row-balanced bands leave most
/// workers idle (the flat-thread-scaling failure this replaces).
///
/// Maintenance is single-threaded and deterministic: the movement apply
/// phase collects cross-band movers into per-task outboxes merged in
/// task order, and the lifecycle inserts/removes slots in its own
/// slot-ordered phases. Bucket membership never affects trajectories —
/// every stage write is agent- or cell-keyed — so bucket order
/// only has to be deterministic for reproducible *performance* and for
/// the audit fixtures.
struct RowBuckets {
    rows_per_bucket: usize,
    /// Bucket → live slots (deterministic maintenance order).
    members: Vec<Vec<u32>>,
    /// Slot → owning bucket (`u32::MAX` when dead / unbucketed).
    slot_bucket: Vec<u32>,
    /// Slot → index inside its bucket's member list.
    slot_pos: Vec<u32>,
}

impl RowBuckets {
    /// Buckets covering `height` rows in bands of roughly
    /// `height / buckets_hint` rows, over `capacity + 1` slots.
    fn new(height: usize, capacity: usize, buckets_hint: usize) -> Self {
        let rows_per_bucket = height.div_ceil(buckets_hint.clamp(1, height.max(1))).max(1);
        let n_buckets = height.div_ceil(rows_per_bucket).max(1);
        Self {
            rows_per_bucket,
            members: vec![Vec::new(); n_buckets],
            slot_bucket: vec![u32::MAX; capacity + 1],
            slot_pos: vec![0; capacity + 1],
        }
    }

    /// The bucket owning row `r`.
    #[inline]
    fn bucket_of_row(&self, r: usize) -> usize {
        r / self.rows_per_bucket
    }

    /// Number of buckets.
    fn n_buckets(&self) -> usize {
        self.members.len()
    }

    /// The live slots of bucket `b`.
    #[inline]
    fn members(&self, b: usize) -> &[u32] {
        &self.members[b]
    }

    /// Total bucketed (live) slots.
    fn len(&self) -> usize {
        self.members.iter().map(Vec::len).sum()
    }

    /// Drop all membership and re-insert every live slot in ascending
    /// slot order.
    fn rebuild(&mut self, alive: &[bool], rows: &[u16]) {
        for m in &mut self.members {
            m.clear();
        }
        self.slot_bucket.fill(u32::MAX);
        for (i, &a) in alive.iter().enumerate().skip(1) {
            if a {
                self.insert(i as u32, rows[i]);
            }
        }
    }

    /// Add a live slot standing on `row`.
    fn insert(&mut self, slot: u32, row: u16) {
        debug_assert_eq!(self.slot_bucket[slot as usize], u32::MAX);
        let b = self.bucket_of_row(row as usize);
        self.slot_bucket[slot as usize] = b as u32;
        self.slot_pos[slot as usize] = self.members[b].len() as u32;
        self.members[b].push(slot);
    }

    /// Remove a slot (despawn): O(1) swap-remove, fixing the back-pointer
    /// of the member swapped into its place.
    fn remove(&mut self, slot: u32) {
        let b = self.slot_bucket[slot as usize] as usize;
        debug_assert_ne!(b, u32::MAX as usize, "removing unbucketed slot {slot}");
        let p = self.slot_pos[slot as usize] as usize;
        self.members[b].swap_remove(p);
        if let Some(&moved) = self.members[b].get(p) {
            self.slot_pos[moved as usize] = p as u32;
        }
        self.slot_bucket[slot as usize] = u32::MAX;
    }

    /// Re-home a slot that moved to `row` — a no-op unless the move
    /// crossed a band boundary (moves are ≤ 1 row per step, so this is
    /// the incremental path: most steps touch nothing).
    fn move_to(&mut self, slot: u32, row: u16) {
        let b = self.bucket_of_row(row as usize);
        if self.slot_bucket[slot as usize] as usize != b {
            self.remove(slot);
            self.insert(slot, row);
        }
    }

    /// Partition the buckets into `parts` contiguous groups balanced by
    /// **member count**: group `t` closes once the cumulative count
    /// reaches `⌈(t+1)·total/parts⌉`. Trailing empty buckets may stay
    /// unassigned (they contribute no agents).
    fn task_groups(&self, parts: usize) -> Vec<std::ops::Range<usize>> {
        let parts = parts.max(1);
        let total = self.len();
        let mut out = Vec::with_capacity(parts);
        let mut b = 0;
        let mut acc = 0usize;
        for t in 0..parts {
            let start = b;
            let target = ((t + 1) * total).div_ceil(parts);
            while b < self.n_buckets() && acc < target {
                acc += self.members[b].len();
                b += 1;
            }
            out.push(start..b);
        }
        out
    }

    /// Cross-check the bucket structure against the liveness table: every
    /// live slot bucketed exactly once, in the bucket its row maps to,
    /// with a correct back-pointer; no dead slot bucketed.
    #[cfg_attr(not(test), allow(dead_code))]
    fn check_consistency(&self, alive: &[bool], rows: &[u16]) -> Result<(), String> {
        let mut seen = vec![false; alive.len()];
        for (b, m) in self.members.iter().enumerate() {
            for (p, &slot) in m.iter().enumerate() {
                let i = slot as usize;
                if seen[i] {
                    return Err(format!("slot {slot} bucketed twice"));
                }
                seen[i] = true;
                if !alive[i] {
                    return Err(format!("dead slot {slot} in bucket {b}"));
                }
                if self.bucket_of_row(rows[i] as usize) != b {
                    return Err(format!("slot {slot} (row {}) in bucket {b}", rows[i]));
                }
                if self.slot_bucket[i] != b as u32 || self.slot_pos[i] != p as u32 {
                    return Err(format!("slot {slot}: stale back-pointer"));
                }
            }
        }
        if let Some(missing) = (1..alive.len()).find(|&i| alive[i] && !seen[i]) {
            return Err(format!("live slot {missing} not bucketed"));
        }
        Ok(())
    }
}

/// The host engine: inline at one thread, tile-parallel above.
pub struct PooledEngine {
    core: StepCore,
    backend: PooledBackend,
}

/// The host engine's kernel-stage executor: the host-side world, the
/// row buckets every stage dispatches over, and the worker pool (absent
/// at one thread).
struct PooledBackend {
    cfg: SimConfig,
    geom: Geometry,
    env: Environment,
    scan: ScanMatrix,
    tour: TourLengths,
    pher: Option<PheromoneField>,
    pher_next: Option<PheromoneField>,
    dist: Arc<DistanceData>,
    seed: u64,
    /// The worker pool; `None` at one thread, where [`dispatch`] runs
    /// every task inline.
    pool: Option<WorkerPool>,
    /// When set, every stage launch permutes its band issue order with a
    /// Philox schedule keyed by `(seed, launch_counter)` — the
    /// interleaving explorer's handle into this backend. `None` (the
    /// default) dispatches bands in natural order.
    schedule_seed: Option<u64>,
    /// Monotonic launch counter keying the per-launch permutations.
    launches: std::cell::Cell<u64>,
    /// Live agents bucketed by row band: the iteration surface of every
    /// stage.
    buckets: RowBuckets,
    /// Movement decode output, agent-keyed: the destination cell
    /// (linear) the agent won this step, `u32::MAX` = stays put.
    won: Vec<u32>,
}

/// The worker pool for `threads` workers, or `None` at one thread.
fn worker_pool(threads: usize) -> Option<WorkerPool> {
    (threads > 1).then(|| WorkerPool::new(threads))
}

/// Run `f` over `0..parts` on the pool, or inline on the calling thread
/// in task order when there is none, optionally permuting the dispatch
/// order with the schedule key. A free function (not a method) so stages
/// can call it while holding field borrows of the backend.
fn dispatch(
    pool: Option<&WorkerPool>,
    schedule: Option<(u64, u64)>,
    parts: usize,
    f: &(dyn Fn(usize) + Sync),
) {
    use simt::exec::explore::{permutation, run_permuted};
    let perm = schedule.map(|(seed, launch)| permutation(seed, launch, parts));
    match (pool, perm) {
        (Some(pool), None) => pool.run(parts, f),
        (Some(pool), Some(perm)) => run_permuted(pool, &perm, f),
        (None, None) => (0..parts).for_each(f),
        (None, Some(perm)) => perm.into_iter().for_each(f),
    }
}

/// The lifecycle's view of the host world: the environment, the tour
/// lengths (a recycled slot starts a fresh tour) and the row buckets,
/// kept in lock-step with the liveness table.
struct HostWorld<'a> {
    env: &'a mut Environment,
    tour: &'a mut TourLengths,
    buckets: &'a mut RowBuckets,
}

impl LifecycleWorld for HostWorld<'_> {
    fn is_alive(&self, i: usize) -> bool {
        self.env.is_alive(i)
    }

    fn position(&self, i: usize) -> (u16, u16) {
        self.env.props.position(i)
    }

    fn is_cell_empty(&self, r: u16, c: u16) -> bool {
        self.env.mat.get(r as usize, c as usize) == CELL_EMPTY
    }

    fn despawn(&mut self, g: Group, i: usize) {
        self.env.despawn(g, i);
        self.buckets.remove(i as u32);
    }

    fn spawn(&mut self, g: Group, r: u16, c: u16) -> Option<u32> {
        let idx = self.env.spawn_from_free(g, r, c)?;
        self.tour.len[idx as usize] = 0.0;
        self.buckets.insert(idx, r);
        Some(idx)
    }
}

impl PooledEngine {
    /// Build the engine with `threads` workers (runs the data-preparation
    /// stage, §IV.a — from the attached scenario when present, else the
    /// classic corridor). One thread builds no pool and runs every stage
    /// inline. A thin compile-then-construct wrapper over
    /// [`PooledEngine::from_world`].
    pub fn new(cfg: SimConfig, threads: usize) -> Self {
        let world = CompiledWorld::compile(&cfg);
        Self::from_world(&world, cfg, threads)
    }

    /// Build per-replica engine state with `threads` workers from an
    /// already compiled world: clones the placed environment template and
    /// shares the distance planes. Bit-identical to [`PooledEngine::new`]
    /// on the same configuration, at every thread count.
    pub fn from_world(
        world: &std::sync::Arc<CompiledWorld>,
        cfg: SimConfig,
        threads: usize,
    ) -> Self {
        debug_assert!(
            world.matches(&cfg),
            "CompiledWorld was compiled from a different configuration"
        );
        let env = world.environment();
        let dist = world.distance();
        let geom = world.geometry();
        let core = StepCore::for_world(&cfg, &env, geom);
        let n = env.total_agents();
        let groups = env.n_groups();
        let (pher, pher_next) = match cfg.model {
            ModelKind::Aco(p) => (
                Some(PheromoneField::with_groups(
                    env.height(),
                    env.width(),
                    p.tau0,
                    groups,
                )),
                Some(PheromoneField::with_groups(
                    env.height(),
                    env.width(),
                    p.tau0,
                    groups,
                )),
            ),
            ModelKind::Lem(_) => (None, None),
        };
        let seed = cfg.env.seed;
        let threads = threads.max(1);
        // Finer than the task count so count-balanced grouping has room
        // to equalise (BANDS_PER_WORKER × 4 buckets per worker). One
        // thread has nothing to balance: a single bucket keeps the stages
        // visiting live slots in ascending slot order, the layout order
        // of the slot-keyed arrays.
        let hint = if threads == 1 {
            1
        } else {
            threads * BANDS_PER_WORKER * 4
        };
        let mut buckets = RowBuckets::new(env.height(), n, hint);
        buckets.rebuild(&env.alive, &env.props.row);
        Self {
            core,
            backend: PooledBackend {
                cfg,
                geom,
                scan: ScanMatrix::new(n),
                tour: TourLengths::new(n),
                pher,
                pher_next,
                dist,
                seed,
                pool: worker_pool(threads),
                schedule_seed: None,
                launches: std::cell::Cell::new(0),
                buckets,
                won: vec![u32::MAX; n + 1],
                env,
            },
        }
    }

    /// Number of worker threads (1 = inline, no pool).
    pub fn threads(&self) -> usize {
        self.backend.threads()
    }

    /// Permute every stage launch's band issue order with a Philox
    /// schedule keyed on `seed` (or restore natural order with `None`).
    /// At one thread the inline tasks run in the permuted order.
    ///
    /// Trajectories are claimed to be schedule-independent; the
    /// interleaving-exploration tests drive this knob over hundreds of
    /// seeds and assert bit-identity against the unpermuted run.
    pub fn set_schedule_seed(&mut self, seed: Option<u64>) {
        self.backend.schedule_seed = seed;
    }

    /// Borrow the current environment state.
    pub fn environment(&self) -> &Environment {
        &self.backend.env
    }

    /// Replace the model parameters mid-run (the panic-alarm extension).
    /// A model-*variant* change is a typed error — a LEM run has no
    /// pheromone substrate to become an ACO run.
    pub fn set_model(&mut self, model: ModelKind) -> Result<(), ModelSwapError> {
        swap_model(&mut self.backend.cfg.model, model)
    }

    /// Borrow the pheromone field (ACO only).
    pub fn pheromone(&self) -> Option<&PheromoneField> {
        self.backend.pher.as_ref()
    }

    /// Borrow accumulated tour lengths.
    pub fn tour_lengths(&self) -> &TourLengths {
        &self.backend.tour
    }
}

impl PooledBackend {
    /// Worker threads (1 = inline, no pool).
    fn threads(&self) -> usize {
        self.pool.as_ref().map_or(1, WorkerPool::workers)
    }

    /// Bands to dispatch per stage.
    fn parts(&self) -> usize {
        self.threads() * BANDS_PER_WORKER
    }

    /// Schedule key for the next launch, if permuted dispatch is on.
    /// Call at the *top* of a phase, before taking field borrows.
    fn next_schedule(&self) -> Option<(u64, u64)> {
        let seed = self.schedule_seed?;
        let launch = self.launches.get();
        self.launches.set(launch + 1);
        Some((seed, launch))
    }

    // Tasks iterate bucket groups of live agents (count-balanced via
    // [`RowBuckets::task_groups`]), never row bands of cells. Every
    // write is agent-keyed (each live agent sits in exactly one bucket,
    // each bucket in exactly one task group) or lands on a globally
    // unique cell (movement-apply: all winners' source cells were
    // occupied and all destination cells empty at step start, so the two
    // sets are disjoint and per-winner unique). Under `audit-runtime`
    // the per-phase [`WriteSet`] checks exactly this — an overlapping
    // bucket assignment double-writes an agent slot and panics.

    fn stage_init(&mut self) {
        // Only live slots are read downstream; clear their futures only.
        let parts = self.parts();
        let schedule = self.next_schedule();
        let buckets = &self.buckets;
        let groups = buckets.task_groups(parts);
        let fr = Scatter::new(&mut self.env.props.future_row);
        let fc = Scatter::new(&mut self.env.props.future_col);
        dispatch(self.pool.as_ref(), schedule, parts, &|t| {
            for bkt in groups[t].clone() {
                for &a in buckets.members(bkt) {
                    // SAFETY: agent-unique slots (bucket-disjoint tasks).
                    unsafe {
                        fr.write(a as usize, NO_FUTURE);
                        fc.write(a as usize, NO_FUTURE);
                    }
                }
            }
        });
    }

    fn stage_initial_calc(&mut self) {
        // One pass per live agent: scan rows and front status are
        // agent-keyed, so bucket-disjoint tasks cannot conflict.
        let parts = self.parts();
        let schedule = self.next_schedule();
        let buckets = &self.buckets;
        let groups = buckets.task_groups(parts);
        let mat = &self.env.mat;
        let dist = self.dist.dist_ref();
        let model = self.cfg.model;
        let pher = self.pher.as_ref();
        let props = &mut self.env.props;
        let prow = &props.row;
        let pcol = &props.col;
        let ids = &props.id;
        let sv = Scatter::new(&mut self.scan.vals);
        let si = Scatter::new(&mut self.scan.idxs);
        let front = Scatter::new(&mut props.front);
        let front_k = Scatter::new(&mut props.front_k);
        dispatch(self.pool.as_ref(), schedule, parts, &|t| {
            let occ = |r: i64, c: i64| mat.get_or(r, c, CELL_WALL);
            for bkt in groups[t].clone() {
                for &a in buckets.members(bkt) {
                    let ai = a as usize;
                    let (r, c) = (prow[ai] as i64, pcol[ai] as i64);
                    let g = Group::from_label(ids[ai]).expect("live slot has group label");
                    let row: ScanRow = match model {
                        ModelKind::Lem(p) => lem_scan_row(&occ, dist, g, r, c, p.scan_range),
                        ModelKind::Aco(p) => {
                            let tf = pher.expect("ACO has pheromone").of(g);
                            let tau = |rr: i64, cc: i64| tf.get_or(rr, cc, 0.0);
                            aco_scan_row(&occ, &tau, dist, &p, g, r, c)
                        }
                    };
                    for slot in 0..8 {
                        // SAFETY: agent-unique slots.
                        unsafe {
                            sv.write(ai * 8 + slot, row.vals[slot]);
                            si.write(ai * 8 + slot, row.idxs[slot]);
                        }
                    }
                    let fk = dist.front_k(g, r, c);
                    // SAFETY: agent-unique slots.
                    unsafe {
                        front.write(ai, front_status(&occ, fk, r, c));
                        front_k.write(ai, fk as u8);
                    }
                }
            }
        });
    }

    fn stage_tour(&mut self, step_no: u64) {
        // §IV.c: each agent writes only its own FUTURE slots, with its
        // own RNG stream, driven from the count-balanced bucket groups.
        let salt = step_no * 4 + KERNEL_TOUR;
        let parts = self.parts();
        let schedule = self.next_schedule();
        let buckets = &self.buckets;
        let groups = buckets.task_groups(parts);
        let seed = self.seed;
        let model = self.cfg.model;
        let scan = &self.scan;
        let props = &mut self.env.props;
        let front = &props.front;
        let front_k = &props.front_k;
        let prow = &props.row;
        let pcol = &props.col;
        let fr = Scatter::new(&mut props.future_row);
        let fc = Scatter::new(&mut props.future_col);
        dispatch(self.pool.as_ref(), schedule, parts, &|t| {
            for bkt in groups[t].clone() {
                for &a in buckets.members(bkt) {
                    let a = a as usize;
                    let mut rng = StreamRng::with_offset(seed, a as u64, salt << 4);
                    let row = ScanRow {
                        vals: scan.row_vals(a).try_into().expect("8 slots"),
                        idxs: scan.row_idxs(a).try_into().expect("8 slots"),
                    };
                    let k = match model {
                        ModelKind::Lem(p) => {
                            lem_select(&row, front[a], front_k[a] as usize, &p, &mut rng)
                        }
                        ModelKind::Aco(p) => {
                            aco_select(&row, front[a], front_k[a] as usize, &p, &mut rng)
                        }
                    };
                    // SAFETY: agent-unique slots.
                    unsafe {
                        match k {
                            Some(k) => {
                                let (dr, dc) = NEIGHBOR_OFFSETS[k];
                                fr.write(a, (i64::from(prow[a]) + dr) as u16);
                                fc.write(a, (i64::from(pcol[a]) + dc) as u16);
                            }
                            None => {
                                fr.write(a, NO_FUTURE);
                                fc.write(a, NO_FUTURE);
                            }
                        }
                    }
                }
            }
        });
    }

    fn stage_movement(&mut self, step_no: u64) {
        // §IV.d: each live agent recomputes the winner at its *target*
        // cell with that cell's own stream (the identical draw simt's
        // per-cell movement kernel makes there) and records whether it
        // won; the apply phase then moves exactly the winners, in place.
        let salt = step_no * 4 + KERNEL_MOVE;
        let counter_base = salt << 4;
        let w = self.geom.width;
        let parts = self.parts();
        let aco = match self.cfg.model {
            ModelKind::Aco(p) => Some(p),
            ModelKind::Lem(_) => None,
        };
        let groups = self.buckets.task_groups(parts);

        // Pheromone evaporation sweep (ACO): the field itself is dense,
        // so every plane evaporates band by band, each band through one
        // slice; the apply phase then overwrites the winners' destination
        // slots with the fused evaporate+deposit value the per-cell
        // kernel computes there.
        if let Some(p) = aco {
            let schedule = self.next_schedule();
            let pin = self.pher.as_ref().expect("ACO pheromone");
            let pouts: Vec<Scatter<'_, f32>> = self
                .pher_next
                .as_mut()
                .expect("ACO pheromone")
                .planes_mut()
                .iter_mut()
                .map(|m| Scatter::new(m.as_mut_slice()))
                .collect();
            let planes = pin.planes();
            let cells = self.geom.height * w;
            let cell_bands = band_ranges(cells, parts);
            dispatch(self.pool.as_ref(), schedule, parts, &|b| {
                let band = &cell_bands[b];
                for (src, pout) in planes.iter().zip(&pouts) {
                    let src = &src.as_slice()[band.clone()];
                    // SAFETY: band-disjoint slots.
                    unsafe {
                        pout.with_band(band.clone(), |dst| {
                            for (o, &i) in dst.iter_mut().zip(src) {
                                *o = PheromoneField::fused_update(i, p.tau0, p.rho, 0.0);
                            }
                        });
                    }
                }
            });
        }

        // Decode phase: agent-keyed writes into `won`.
        {
            let schedule = self.next_schedule();
            let buckets = &self.buckets;
            let mat = &self.env.mat;
            let index = &self.env.index;
            let props = &self.env.props;
            let seed = self.seed;
            let won = Scatter::new(&mut self.won);
            dispatch(self.pool.as_ref(), schedule, parts, &|t| {
                let occ = |r: i64, c: i64| mat.get_or(r, c, CELL_WALL);
                let idx = |r: i64, c: i64| index.get_or(r, c, 0);
                let fut = |a: u32| (props.future_row[a as usize], props.future_col[a as usize]);
                for bkt in groups[t].clone() {
                    for &a in buckets.members(bkt) {
                        let ai = a as usize;
                        let fr = props.future_row[ai];
                        let dst = if fr == NO_FUTURE {
                            u32::MAX
                        } else {
                            let fc = props.future_col[ai];
                            let tlin = fr as usize * w + fc as usize;
                            let mut trng = StreamRng::with_offset(seed, tlin as u64, counter_base);
                            match gather_winner(
                                &occ,
                                &idx,
                                &fut,
                                i64::from(fr),
                                i64::from(fc),
                                &mut trng,
                            ) {
                                Some(arr) if arr.agent == a => tlin as u32,
                                _ => u32::MAX,
                            }
                        };
                        // SAFETY: agent-unique slot — each live agent sits
                        // in exactly one bucket and each bucket in exactly
                        // one task group (the audit fixture seeds the
                        // violation of precisely this).
                        unsafe { won.write(ai, dst) };
                    }
                }
            });
        }

        // Apply phase, in place: winners' source cells (occupied at step
        // start) and destination cells (empty at step start) are disjoint
        // per-winner-unique sets, so the grid writes cannot conflict;
        // property/tour writes are agent-keyed. Cross-band movers go to
        // per-task outboxes, merged serially in task order below.
        let outboxes: Vec<std::sync::Mutex<Vec<(u32, u16)>>> = (0..parts)
            .map(|_| std::sync::Mutex::new(Vec::new()))
            .collect();
        {
            let schedule = self.next_schedule();
            let buckets = &self.buckets;
            let won = &self.won;
            let ids = &self.env.props.id;
            let mat = Scatter::new(self.env.mat.as_mut_slice());
            let index = Scatter::new(self.env.index.as_mut_slice());
            let prow = Scatter::new(&mut self.env.props.row);
            let pcol = Scatter::new(&mut self.env.props.col);
            let ppos = Scatter::new(&mut self.env.pos);
            let tours = Scatter::new(&mut self.tour.len);
            let pin = self.pher.as_ref();
            let pouts: Vec<Scatter<'_, f32>> = match self.pher_next.as_mut() {
                Some(p) => p
                    .planes_mut()
                    .iter_mut()
                    .map(|m| Scatter::new(m.as_mut_slice()))
                    .collect(),
                None => Vec::new(),
            };
            dispatch(self.pool.as_ref(), schedule, parts, &|t| {
                let mut moved: Vec<(u32, u16)> = Vec::new();
                for bkt in groups[t].clone() {
                    for &a in buckets.members(bkt) {
                        let ai = a as usize;
                        let dst = won[ai];
                        if dst == u32::MAX {
                            continue;
                        }
                        let (nr, nc) = ((dst as usize / w) as u16, (dst as usize % w) as u16);
                        // SAFETY: `prow`/`pcol`/`ppos`/`tours` slots are
                        // agent-unique; `mat`/`index` writes land on this
                        // winner's own source and destination cells, which
                        // are globally unique across winners (see phase
                        // comment).
                        unsafe {
                            let (or_, oc_) = (prow.read(ai), pcol.read(ai));
                            let src = or_ as usize * w + oc_ as usize;
                            let dr = (i64::from(nr) - i64::from(or_)).unsigned_abs();
                            let dc = (i64::from(nc) - i64::from(oc_)).unsigned_abs();
                            let step_len = if dr + dc == 2 {
                                std::f32::consts::SQRT_2
                            } else {
                                1.0
                            };
                            if let (Some(p), Some(pin)) = (aco, pin) {
                                let l_new = tours.read(ai) + step_len;
                                let g = Group::from_label(ids[ai]).expect("winner has group label");
                                let next = PheromoneField::fused_update(
                                    pin.of(g).as_slice()[dst as usize],
                                    p.tau0,
                                    p.rho,
                                    p.q / l_new,
                                );
                                pouts[g.index()].write(dst as usize, next);
                                tours.write(ai, l_new);
                            }
                            mat.write(src, CELL_EMPTY);
                            index.write(src, 0);
                            mat.write(dst as usize, ids[ai]);
                            index.write(dst as usize, a);
                            prow.write(ai, nr);
                            pcol.write(ai, nc);
                            ppos.write(ai, dst);
                        }
                        if buckets.bucket_of_row(nr as usize) != bkt {
                            moved.push((a, nr));
                        }
                    }
                }
                if !moved.is_empty() {
                    // One uncontended lock per task, outside the hot loop.
                    *outboxes[t].lock().expect("outbox poisoned") = moved;
                }
            });
        }

        // Serial maintenance: merge the outboxes in task order (a fixed,
        // schedule-independent order) and flip the pheromone planes.
        for outbox in outboxes {
            for (a, nr) in outbox.into_inner().expect("outbox poisoned") {
                self.buckets.move_to(a, nr);
            }
        }
        if aco.is_some() {
            std::mem::swap(&mut self.pher, &mut self.pher_next);
        }
    }
}

impl StageBackend for PooledBackend {
    fn run_stage(&mut self, stage: Stage, step_no: u64, _rec: &mut pedsim_obs::Recorder) {
        // No launch machinery to report: the kernel counters stay at the
        // zeros the core pre-registered.
        match stage {
            Stage::Init => self.stage_init(),
            Stage::InitialCalc => self.stage_initial_calc(),
            Stage::Tour => self.stage_tour(step_no),
            Stage::Movement => self.stage_movement(step_no),
            Stage::Lifecycle | Stage::Metrics => unreachable!("core-driven stage"),
        }
    }

    fn observe(&self, metrics: &mut Metrics) {
        metrics.observe(&self.env.props.row, &self.env.props.col);
    }

    fn run_lifecycle(
        &mut self,
        lifecycle: &OpenLifecycle,
        step: u64,
        metrics: Option<&mut Metrics>,
    ) {
        let mut world = HostWorld {
            env: &mut self.env,
            tour: &mut self.tour,
            buckets: &mut self.buckets,
        };
        lifecycle.run_step(&mut world, step, metrics);
        #[cfg(debug_assertions)]
        self.buckets
            .check_consistency(&self.env.alive, &self.env.props.row)
            .expect("buckets consistent after lifecycle");
    }
}

impl Engine for PooledEngine {
    fn step(&mut self) {
        self.core.step(&mut self.backend);
    }

    fn steps_done(&self) -> u64 {
        self.core.steps_done()
    }

    fn metrics(&self) -> Option<&Metrics> {
        self.core.metrics()
    }

    fn step_timings(&self) -> &StepTimings {
        self.core.timings()
    }

    fn telemetry(&self) -> &pedsim_obs::Recorder {
        self.core.recorder()
    }

    fn model(&self) -> ModelKind {
        self.backend.cfg.model
    }

    fn iteration_mode(&self) -> IterationMode {
        IterationMode::Sparse
    }

    fn mat_snapshot(&self) -> Matrix<u8> {
        self.backend.env.mat.clone()
    }

    fn positions(&self) -> (Vec<u16>, Vec<u16>) {
        (
            self.backend.env.props.row.clone(),
            self.backend.env.props.col.clone(),
        )
    }
}

/// Convenience: build a host engine with `threads` workers for a small
/// classic corridor (tests/examples).
pub fn pooled_engine_small(
    width: usize,
    height: usize,
    per_side: usize,
    model: ModelKind,
    seed: u64,
    threads: usize,
) -> PooledEngine {
    let env = EnvConfig::small(width, height, per_side).with_seed(seed);
    PooledEngine::new(SimConfig::new(env, model).with_checked(true), threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::gpu::GpuEngine;
    use crate::params::{AcoParams, LemParams};

    /// The inline one-thread engine on a 32×32 corridor, run `steps`.
    fn run_small(model: ModelKind, steps: u64) -> PooledEngine {
        let mut e = pooled_engine_small(32, 32, 30, model, 42, 1);
        e.run(steps);
        e
    }

    /// simt's one-thread-per-cell dense mapping of the same corridor: the
    /// oracle the host engine must reproduce byte for byte.
    fn dense_oracle(
        width: usize,
        height: usize,
        per_side: usize,
        model: ModelKind,
        seed: u64,
    ) -> GpuEngine {
        let env = EnvConfig::small(width, height, per_side).with_seed(seed);
        let cfg = SimConfig::new(env, model)
            .with_checked(true)
            .with_iteration_mode(IterationMode::Dense);
        GpuEngine::new(cfg, simt::Device::sequential())
    }

    #[test]
    fn band_ranges_cover_exactly_once() {
        for (n, parts) in [(0, 3), (5, 8), (7, 1), (100, 7), (16, 16)] {
            let bands = band_ranges(n, parts);
            assert_eq!(bands.len(), parts.max(1));
            let mut next = 0;
            for b in &bands {
                assert_eq!(b.start, next, "gap/overlap at {b:?} (n={n}, parts={parts})");
                next = b.end;
            }
            assert_eq!(next, n);
        }
    }

    #[test]
    fn sparse_matches_dense_bit_for_bit() {
        // The inline one-thread path, checked after every step.
        for model in [ModelKind::lem(), ModelKind::aco()] {
            let mut dense = dense_oracle(32, 32, 30, model, 42);
            let env = EnvConfig::small(32, 32, 30).with_seed(42);
            // The host engine ignores the simt kernel mapping.
            let cfg = SimConfig::new(env, model)
                .with_checked(true)
                .with_iteration_mode(IterationMode::Dense);
            let mut sparse = PooledEngine::new(cfg, 1);
            assert_eq!(dense.iteration_mode(), IterationMode::Dense);
            assert_eq!(sparse.iteration_mode(), IterationMode::Sparse);
            for step in 1..=40u64 {
                dense.step();
                sparse.step();
                assert_eq!(
                    dense.mat_snapshot(),
                    sparse.mat_snapshot(),
                    "{} diverged at step {step}",
                    model.name()
                );
                assert_eq!(dense.positions(), sparse.positions());
                sparse
                    .environment()
                    .check_consistency()
                    .expect("sparse consistent");
            }
            if let Some(planes) = dense.pheromone_snapshot() {
                let host = sparse.pheromone().unwrap();
                for (gi, plane) in planes.iter().enumerate() {
                    assert_eq!(
                        plane.as_slice(),
                        host.of(Group::new(gi)).as_slice(),
                        "pheromone diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn pooled_matches_simt_dense_closed_world() {
        for model in [ModelKind::lem(), ModelKind::aco()] {
            let mut dense = dense_oracle(32, 32, 60, model, 5);
            dense.run(40);
            for threads in [1, 2, 4] {
                let mut pooled = pooled_engine_small(32, 32, 60, model, 5, threads);
                pooled.run(40);
                assert_eq!(
                    dense.mat_snapshot(),
                    pooled.mat_snapshot(),
                    "{} diverged at {threads} threads",
                    model.name()
                );
                assert_eq!(dense.positions(), pooled.positions());
            }
        }
    }

    #[test]
    fn pooled_consistency_and_progress() {
        // Agents are conserved and cross the corridor, inline and pooled.
        for (model, threads) in [
            (ModelKind::lem(), 1),
            (ModelKind::lem(), 3),
            (ModelKind::aco(), 1),
        ] {
            let mut e = pooled_engine_small(32, 32, 30, model, 42, threads);
            e.run(100);
            e.environment().check_consistency().expect("consistent");
            let m = e.metrics().expect("metrics on");
            assert!(
                m.total_moves > 0,
                "nobody moved ({} t{threads})",
                model.name()
            );
            // On a 32-row grid with ~4 spawn rows, 100 steps crosses many.
            assert!(
                m.throughput() > 0,
                "no crossings ({} t{threads})",
                model.name()
            );
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_small(ModelKind::aco(), 30);
        let b = run_small(ModelKind::aco(), 30);
        assert_eq!(a.mat_snapshot(), b.mat_snapshot());
        assert_eq!(a.positions(), b.positions());
    }

    #[test]
    fn seeds_change_trajectories() {
        let mut a = pooled_engine_small(32, 32, 30, ModelKind::lem(), 1, 1);
        let mut b = pooled_engine_small(32, 32, 30, ModelKind::lem(), 2, 1);
        a.run(20);
        b.run(20);
        assert_ne!(a.mat_snapshot(), b.mat_snapshot());
    }

    #[test]
    fn moves_are_single_cell() {
        let mut e = pooled_engine_small(24, 24, 20, ModelKind::lem(), 7, 1);
        let (mut pr, mut pc) = e.positions();
        for _ in 0..30 {
            e.step();
            let (r, c) = e.positions();
            for i in 1..r.len() {
                let dr = (i64::from(r[i]) - i64::from(pr[i])).abs();
                let dc = (i64::from(c[i]) - i64::from(pc[i])).abs();
                assert!(dr <= 1 && dc <= 1, "agent {i} jumped ({dr},{dc})");
            }
            pr = r;
            pc = c;
        }
    }

    #[test]
    fn pheromone_stays_positive_and_grows_on_trails() {
        let e = run_small(ModelKind::aco(), 40);
        let p = e.pheromone().expect("ACO field");
        let top = p.of(Group::TOP).as_slice();
        assert!(top.iter().all(|&v| v >= p.tau0 * 0.999));
        // Somewhere, someone deposited.
        let max = top.iter().cloned().fold(0.0f32, f32::max);
        assert!(max > p.tau0, "no deposits after 40 steps");
    }

    #[test]
    fn tour_lengths_accumulate_for_aco() {
        let e = run_small(ModelKind::aco(), 40);
        let total: f32 = e.tour_lengths().len.iter().sum();
        assert!(total > 0.0);
    }

    #[test]
    fn set_model_rejects_variant_change_with_typed_error() {
        let mut e = pooled_engine_small(16, 16, 4, ModelKind::lem(), 1, 1);
        let err = e.set_model(ModelKind::aco()).unwrap_err();
        assert_eq!(err.running, "LEM");
        assert_eq!(err.requested, "ACO");
        assert!(err.to_string().contains("variant"));
        // Parameter overlays within the running variant stay fine — the
        // panic-alarm extension's happy path.
        let overlay = ModelKind::Lem(LemParams {
            sigma: 4.0,
            ..LemParams::default()
        });
        assert!(e.set_model(overlay).is_ok());
        assert_eq!(e.model(), overlay);
    }

    #[test]
    fn forward_priority_off_still_works() {
        let model = ModelKind::Lem(LemParams {
            forward_priority: false,
            ..LemParams::default()
        });
        let e = run_small(model, 30);
        e.environment().check_consistency().expect("consistent");
    }

    #[test]
    fn high_evaporation_keeps_field_near_floor() {
        let model = ModelKind::Aco(AcoParams {
            rho: 1.0,
            ..AcoParams::default()
        });
        let e = run_small(model, 20);
        let p = e.pheromone().expect("field");
        // With ρ=1 everything evaporates to the floor each step except
        // fresh deposits.
        let above = p
            .of(Group::TOP)
            .as_slice()
            .iter()
            .filter(|&&v| v > p.tau0 * 1.5)
            .count();
        assert!(above < 40, "{above} cells hold stale pheromone");
    }

    /// Seed a deliberate overlap into the tile partition and show the
    /// interleaving explorer catches it: the overlapping rows become
    /// last-writer-wins, so some permuted schedule must diverge.
    #[test]
    fn explorer_catches_seeded_band_overlap() {
        use simt::exec::explore::{explore, permutation, run_permuted_serial};
        let n = 64;
        let parts = 8;
        let mut bands = band_ranges(n, parts);
        // The seeded fault: band 2 grows to also cover band 3's first row.
        bands[2] = bands[2].start..bands[2].end + 1;
        let err = explore(0..128u64, |seed| {
            let mut owner = vec![usize::MAX; n];
            let perm = permutation(seed, 0, parts);
            run_permuted_serial(&perm, &mut |b| {
                for i in bands[b].clone() {
                    owner[i] = b;
                }
            });
            owner
        })
        .expect_err("overlapping partition must be schedule-dependent");
        assert!(err.agreed >= 1);

        // The unmutated partition is schedule-independent.
        let bands = band_ranges(n, parts);
        explore(0..128u64, |seed| {
            let mut owner = vec![usize::MAX; n];
            let perm = permutation(seed, 0, parts);
            run_permuted_serial(&perm, &mut |b| {
                for i in bands[b].clone() {
                    owner[i] = b;
                }
            });
            owner
        })
        .expect("disjoint partition is schedule-independent");
    }

    /// The same seeded overlap, caught at runtime by the write-set race
    /// detector: the doubly-owned slot panics on its second write, and
    /// the pool re-raises on the launching thread.
    #[cfg(feature = "audit-runtime")]
    #[test]
    fn detector_catches_seeded_band_overlap() {
        let pool = WorkerPool::new(4);
        let n = 64;
        let parts = 8;
        let mut bands = band_ranges(n, parts);
        bands[2] = bands[2].start..bands[2].end + 1;
        let mut data = vec![0u32; n];
        let out = Scatter::new(&mut data);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(parts, &|b| {
                for i in bands[b].clone() {
                    // SAFETY: bounds hold; disjointness is deliberately
                    // violated at one slot to exercise the detector.
                    unsafe { out.write(i, b as u32) };
                }
            });
        }));
        let payload = res.expect_err("write-set detector must fire");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("tile race"), "unexpected panic: {msg}");
    }

    /// A clean run under the detector: disjoint bands never fire it.
    #[cfg(feature = "audit-runtime")]
    #[test]
    fn detector_accepts_disjoint_bands() {
        let pool = WorkerPool::new(4);
        let n = 1000;
        let parts = 16;
        let bands = band_ranges(n, parts);
        let mut data = vec![0u32; n];
        let out = Scatter::new(&mut data);
        pool.run(parts, &|b| {
            for i in bands[b].clone() {
                // SAFETY: band-disjoint slots.
                unsafe { out.write(i, b as u32) };
            }
        });
        drop(out);
        for (i, v) in data.iter().enumerate() {
            let owner = bands.iter().position(|r| r.contains(&i)).unwrap();
            assert_eq!(*v, owner as u32, "slot {i}");
        }
    }

    /// A populated bucket structure for the sparse-partition fixtures:
    /// 16 rows in 8 two-row buckets, 48 live slots laid out round-robin
    /// over the rows, so every bucket holds exactly 6 members.
    fn seeded_buckets() -> RowBuckets {
        let mut buckets = RowBuckets::new(16, 48, 8);
        for slot in 1..=48u32 {
            buckets.insert(slot, (slot % 16) as u16);
        }
        buckets
    }

    #[test]
    fn bucket_task_groups_cover_every_bucket_exactly_once() {
        let mut buckets = seeded_buckets();
        assert_eq!(buckets.n_buckets(), 8);
        assert_eq!(buckets.len(), 48);
        for parts in [1usize, 3, 4, 8, 16] {
            let groups = buckets.task_groups(parts);
            assert_eq!(groups.len(), parts);
            let mut next = 0;
            for g in &groups {
                assert_eq!(g.start, next, "gap/overlap at {g:?} (parts={parts})");
                next = g.end;
            }
            assert!(next <= buckets.n_buckets());
            // Unassigned trailing buckets must be empty.
            let stragglers: usize = (next..buckets.n_buckets())
                .map(|b| buckets.members(b).len())
                .sum();
            assert_eq!(stragglers, 0, "non-empty bucket left unassigned");
            // Count-balance: no group exceeds its proportional target.
            for (t, g) in groups.iter().enumerate() {
                let count: usize = g.clone().map(|b| buckets.members(b).len()).sum();
                let cap = (t + 1) * buckets.len() / parts + 6;
                assert!(count <= cap, "group {t} holds {count} members");
            }
        }
        // Churn keeps the partition sound: drain one bucket entirely and
        // re-home a couple of slots across band boundaries.
        for slot in [16u32, 32, 48] {
            buckets.remove(slot);
        }
        buckets.move_to(1, 15);
        buckets.move_to(2, 0);
        let alive: Vec<bool> = (0..49)
            .map(|s| s != 0 && s != 16 && s != 32 && s != 48)
            .collect();
        let mut rows = vec![0u16; 49];
        for slot in 1..=48u32 {
            rows[slot as usize] = (slot % 16) as u16;
        }
        rows[1] = 15;
        rows[2] = 0;
        buckets
            .check_consistency(&alive, &rows)
            .expect("consistent");
        let groups = buckets.task_groups(4);
        let covered: usize = groups
            .iter()
            .flat_map(|g| g.clone())
            .map(|b| buckets.members(b).len())
            .sum();
        assert_eq!(covered, buckets.len(), "member lost by the partition");
    }

    /// Seed a deliberate overlap into the sparse *bucket* partition —
    /// the agent-centric analogue of the band overlap below — and show
    /// the interleaving explorer catches it: the twice-assigned bucket's
    /// agent slots become last-writer-wins, so some permuted schedule
    /// must diverge. The unmutated partition is schedule-independent.
    #[test]
    fn explorer_catches_seeded_bucket_overlap() {
        use simt::exec::explore::{explore, permutation, run_permuted_serial};
        let buckets = seeded_buckets();
        let parts = 4;
        let scatter = |groups: &[std::ops::Range<usize>]| {
            explore(0..128u64, |seed| {
                let mut owner = vec![usize::MAX; 49];
                let perm = permutation(seed, 0, parts);
                run_permuted_serial(&perm, &mut |t| {
                    for b in groups[t].clone() {
                        for &a in buckets.members(b) {
                            owner[a as usize] = t;
                        }
                    }
                });
                owner
            })
        };

        let mut groups = buckets.task_groups(parts);
        // The seeded fault: group 1 re-covers group 0's last bucket.
        groups[1] = groups[1].start - 1..groups[1].end;
        let err = scatter(&groups).expect_err("overlapping bucket groups are schedule-dependent");
        assert!(err.agreed >= 1);

        let groups = buckets.task_groups(parts);
        scatter(&groups).expect("disjoint bucket groups are schedule-independent");
    }

    /// The same seeded bucket overlap, caught at runtime by the
    /// write-set race detector guarding the sparse stages' agent-keyed
    /// scatters: the twice-assigned bucket's agent slot is written by
    /// two tasks in one phase, so the second write panics — on the pool
    /// (which re-raises on the launching thread) and on the inline
    /// one-thread path, both in permuted dispatch order.
    #[cfg(feature = "audit-runtime")]
    #[test]
    fn detector_catches_seeded_bucket_overlap() {
        let buckets = seeded_buckets();
        let parts = 4;
        let mut groups = buckets.task_groups(parts);
        groups[1] = groups[1].start - 1..groups[1].end;
        for threads in [4, 1] {
            let pool = worker_pool(threads);
            let mut data = vec![u32::MAX; 49];
            let out = Scatter::new(&mut data);
            let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                dispatch(pool.as_ref(), Some((7, 0)), parts, &|t| {
                    for b in groups[t].clone() {
                        for &a in buckets.members(b) {
                            // SAFETY: bounds hold; agent-uniqueness is
                            // deliberately violated at one bucket to
                            // exercise the detector.
                            unsafe { out.write(a as usize, t as u32) };
                        }
                    }
                });
            }));
            let payload = res.expect_err("write-set detector must fire");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(
                msg.contains("tile race"),
                "t{threads}: unexpected panic: {msg}"
            );
        }
    }

    /// A clean sparse scatter under the detector: disjoint bucket groups
    /// write each live agent slot exactly once and never fire it.
    #[cfg(feature = "audit-runtime")]
    #[test]
    fn detector_accepts_disjoint_bucket_groups() {
        let pool = WorkerPool::new(4);
        let buckets = seeded_buckets();
        let parts = 4;
        let groups = buckets.task_groups(parts);
        let mut data = vec![u32::MAX; 49];
        let out = Scatter::new(&mut data);
        pool.run(parts, &|t| {
            for b in groups[t].clone() {
                for &a in buckets.members(b) {
                    // SAFETY: agent-unique slots (bucket-disjoint groups).
                    unsafe { out.write(a as usize, t as u32) };
                }
            }
        });
        drop(out);
        for (slot, &v) in data.iter().enumerate().skip(1) {
            let b = buckets.bucket_of_row(slot % 16);
            let owner = groups.iter().position(|g| g.contains(&b)).unwrap();
            assert_eq!(v, owner as u32, "slot {slot}");
        }
    }

    /// Permuted dispatch must not change trajectories, on the pool or
    /// inline: a handful of schedule seeds here, hundreds in
    /// tests/audit_soundness.rs.
    #[test]
    fn schedule_permutation_preserves_trajectories() {
        let mut reference = pooled_engine_small(24, 24, 40, ModelKind::lem(), 7, 4);
        reference.run(30);
        for threads in [4, 1] {
            for seed in [0u64, 1, 0xDEAD_BEEF] {
                let mut permuted = pooled_engine_small(24, 24, 40, ModelKind::lem(), 7, threads);
                permuted.set_schedule_seed(Some(seed));
                permuted.run(30);
                assert_eq!(
                    reference.mat_snapshot(),
                    permuted.mat_snapshot(),
                    "schedule seed {seed} changed the t{threads} trajectory"
                );
                assert_eq!(reference.positions(), permuted.positions());
            }
        }
    }

    #[test]
    fn pooled_pheromone_matches_simt_dense() {
        let mut dense = dense_oracle(24, 24, 30, ModelKind::aco(), 9);
        dense.run(25);
        let planes = dense.pheromone_snapshot().unwrap();
        for threads in [1, 4] {
            let mut pooled = pooled_engine_small(24, 24, 30, ModelKind::aco(), 9, threads);
            pooled.run(25);
            let pp = pooled.pheromone().unwrap();
            for (gi, plane) in planes.iter().enumerate() {
                assert_eq!(
                    plane.as_slice(),
                    pp.of(Group::new(gi)).as_slice(),
                    "t{threads} pheromone diverged"
                );
            }
            assert_eq!(dense.tour_snapshot(), pooled.tour_lengths().len);
        }
    }
}
