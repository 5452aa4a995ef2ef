//! The discrete-event mutator engine.
//!
//! Replays a workload trace against a system under test, maintaining a
//! real pointer graph in simulated memory (so sweeps and GCs find real
//! dangling pointers), charging cycle costs, and interleaving concurrent
//! sweep progress with mutator progress in virtual time.

use minesweeper::LAYER_SUBSYSTEM;
use telemetry::{
    CostKind, CostRecorder, Histogram, IdMap, Registry, Sink, SloPolicy, Watchdog,
};
use vmem::{Addr, AddrSpace, Segment, PAGE_SIZE, WORD_SIZE};
use workloads::{Op, Profile, Rng, TraceGen};

use crate::cost::CostModel;
use crate::defence::{self, Defence, FreeAck, FreeCtx};
use crate::metrics::RunMetrics;
use crate::system::System;

/// A live object as the engine tracks it.
#[derive(Clone, Copy, Debug)]
struct Obj {
    base: Addr,
    /// Requested size (what the program may write).
    req: u64,
    /// Allocation-site id from the trace (0 = unknown). Forwarded into
    /// the quarantine so forensics can attribute failed frees.
    site: u32,
    /// This object's pointer slots: its edge block, in wiring order.
    out: Block,
    /// Slots holding a pointer to this object, in wiring order.
    incoming: Incoming,
    /// Index of this object's handle in `Sim::live`.
    live_idx: u32,
}

/// "No edge" in a list link; as an edge's target, a dangling slot.
const NIL: u32 = u32::MAX;
/// An edge's target once its slot was erased: the holder's walk skips it.
const ERASED: u32 = u32::MAX - 1;
/// The holder of a root slot's edge.
const ROOT: u32 = u32::MAX;

/// One pointer slot of the graph: where the pointer lives and which
/// object it points to.
#[derive(Clone, Copy, Debug)]
struct Edge {
    /// Handle of the object holding the slot, or [`ROOT`]: root slot
    /// `r`'s edge is arena index `r`.
    holder: u32,
    /// Byte offset of the slot in its holder.
    off: u32,
    /// Handle of the object pointed at. [`NIL`] once that object was freed
    /// while the slot kept pointing at it: the edge has left the target's
    /// `incoming` list but stays in its holder's block (or root). [`ERASED`]
    /// once the program cleared the slot, or never wired it.
    target: u32,
    /// `[prev, next]` in the target's `incoming` list.
    links: [u32; 2],
}

const _: () = assert!(std::mem::size_of::<Edge>() == 20);
const _: () = assert!(std::mem::size_of::<Obj>() <= 40);

impl Edge {
    /// A slot that holds no tracked pointer yet: a root slot never rooted,
    /// or a block slot whose store found no target.
    const UNWIRED: Edge = Edge { holder: NIL, off: 0, target: ERASED, links: [NIL; 2] };
}

/// Objects named by dense `u32` handles into one `Vec`; released handles
/// are reused.
#[derive(Debug)]
struct Slab<T> {
    items: Vec<T>,
    free: Vec<u32>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab { items: Vec::new(), free: Vec::new() }
    }
}

impl<T> Slab<T> {
    #[inline]
    fn add(&mut self, item: T) -> u32 {
        match self.free.pop() {
            Some(i) => {
                self.items[i as usize] = item;
                i
            }
            None => {
                self.items.push(item);
                u32::try_from(self.items.len() - 1)
                    .ok()
                    .filter(|&i| i < ERASED)
                    .expect("handles stay below the graph's reserved values")
            }
        }
    }

    /// Returns `i` to the free list. Its item stays readable until the
    /// next [`Slab::add`].
    fn release(&mut self, i: u32) {
        self.free.push(i);
    }
}

impl<T> std::ops::Index<u32> for Slab<T> {
    type Output = T;
    fn index(&self, i: u32) -> &T {
        &self.items[i as usize]
    }
}

impl<T> std::ops::IndexMut<u32> for Slab<T> {
    fn index_mut(&mut self, i: u32) -> &mut T {
        &mut self.items[i as usize]
    }
}

/// A holder's pointer slots: `len` edges from arena index `start`, in
/// wiring order. The block spans the `1 << class()` arena slots of its
/// size class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Block {
    start: u32,
    len: u32,
}

impl Block {
    const EMPTY: Block = Block { start: 0, len: 0 };

    fn edges(self) -> std::ops::Range<u32> {
        self.start..self.start + self.len
    }

    fn class(self) -> usize {
        self.len.next_power_of_two().trailing_zeros() as usize
    }
}

/// Every edge of the pointer graph in one arena: the root slots' edges
/// first, then one block per holder, laid out in the order `do_free` walks
/// them.
#[derive(Debug)]
struct Edges {
    arena: Vec<Edge>,
    /// Starts of released blocks, by size class.
    free: Vec<Vec<u32>>,
}

impl Edges {
    /// An arena whose first `roots` edges are the root slots'.
    fn new(roots: usize) -> Self {
        Edges { arena: vec![Edge::UNWIRED; roots], free: Vec::new() }
    }

    /// A block of `len` edges for a new holder, reusing a released block of
    /// its class when there is one. The caller writes every edge.
    fn alloc(&mut self, len: u32) -> Block {
        if len == 0 {
            return Block::EMPTY;
        }
        let class = Block { start: 0, len }.class();
        let start = match self.free.get_mut(class).and_then(Vec::pop) {
            Some(start) => start,
            None => {
                let start = u32::try_from(self.arena.len()).expect("edge indices fit a u32");
                let end = start.checked_add(1 << class).expect("edge indices fit a u32");
                self.arena.resize(end as usize, Edge::UNWIRED);
                start
            }
        };
        Block { start, len }
    }

    /// Returns a dead holder's block to its class's free list.
    fn release(&mut self, block: Block) {
        if block.len == 0 {
            return;
        }
        let class = block.class();
        if self.free.len() <= class {
            self.free.resize_with(class + 1, Vec::new);
        }
        self.free[class].push(block.start);
    }

    /// The edge after `e` in its `incoming` list.
    fn next(&self, e: u32) -> Option<u32> {
        Some(self[e].links[1]).filter(|&n| n != NIL)
    }

    /// Whether another copy of in-object slot `e` (same holder, same
    /// offset) in the same `incoming` list was erased. A holder wires all
    /// its slots into one target during its own allocation, so the copies
    /// sit in one run of that holder's edges, walked here both ways
    /// (`step` 0 follows prev links, 1 next links).
    fn erased_copy(&self, e: u32) -> bool {
        let Edge { holder, off, .. } = self[e];
        holder != ROOT
            && (0..2).any(|step| {
                let mut x = self[e].links[step];
                while x != NIL && self[x].holder == holder {
                    if self[x].off == off && self[x].target != NIL {
                        return true;
                    }
                    x = self[x].links[step];
                }
                false
            })
    }
}

impl std::ops::Index<u32> for Edges {
    type Output = Edge;
    fn index(&self, e: u32) -> &Edge {
        &self.arena[e as usize]
    }
}

impl std::ops::IndexMut<u32> for Edges {
    fn index_mut(&mut self, e: u32) -> &mut Edge {
        &mut self.arena[e as usize]
    }
}

/// The edges into one object, in insertion order: an intrusive doubly
/// linked list threaded through `Edge::links`.
#[derive(Clone, Copy, Debug)]
struct Incoming {
    head: u32,
    tail: u32,
}

impl Incoming {
    const EMPTY: Self = Incoming { head: NIL, tail: NIL };

    fn first(&self) -> Option<u32> {
        Some(self.head).filter(|&e| e != NIL)
    }

    fn push(&mut self, edges: &mut Edges, e: u32) {
        edges[e].links = [self.tail, NIL];
        match self.tail {
            NIL => self.head = e,
            t => edges[t].links[1] = e,
        }
        self.tail = e;
    }

    fn unlink(&mut self, edges: &mut Edges, e: u32) {
        let [prev, next] = edges[e].links;
        match prev {
            NIL => self.head = next,
            p => edges[p].links[1] = next,
        }
        match next {
            NIL => self.tail = prev,
            n => edges[n].links[0] = prev,
        }
    }
}

/// Subsystem label the engine registers its instruments under, alongside
/// the layer's [`minesweeper::LAYER_SUBSYSTEM`] counters in the same
/// registry.
pub const ENGINE_SUBSYSTEM: &str = "engine";

/// Engine-side telemetry: virtual-cycle histograms registered on the
/// layer's shared registry, so one snapshot covers both the allocator
/// layer's counters and the engine's timing distributions.
#[derive(Debug)]
struct EngineTelem {
    /// Cycles the mutator spent blocked per allocation pause / sequential
    /// sweep (the paper's §5.7 pause valve).
    pause_cycles: Histogram,
    /// Stop-the-world re-check cycles charged to the mutator, per sweep.
    stw_cycles: Histogram,
    /// Virtual duration of each completed sweep, start to finish.
    sweep_cycles: Histogram,
    /// `now` at which the in-flight sweep started.
    sweep_start: u64,
}

impl EngineTelem {
    fn register(registry: &Registry) -> Self {
        EngineTelem {
            pause_cycles: registry.histogram(ENGINE_SUBSYSTEM, "pause_cycles"),
            stw_cycles: registry.histogram(ENGINE_SUBSYSTEM, "stw_cycles"),
            sweep_cycles: registry.histogram(ENGINE_SUBSYSTEM, "sweep_cycles"),
            sweep_start: 0,
        }
    }
}

/// Replays one `(profile, system, seed)` run. See the
/// [crate docs](crate) and [`crate::run`].
#[derive(Debug)]
pub struct Engine {
    sys: Box<dyn Defence>,
    setup: Setup,
}

/// What [`Engine`] fixes before the run; [`Sim::new`] takes it over.
#[derive(Debug)]
pub(crate) struct Setup {
    profile: Profile,
    label: &'static str,
    seed: u64,
    threads: u64,
    telem: Option<EngineTelem>,
    cost_rec: Option<CostRecorder>,
    slo: Option<SloPolicy>,
}

impl Engine {
    /// Builds an engine for `profile` under `system` with the given trace
    /// seed.
    pub fn new(profile: &Profile, system: System, seed: u64) -> Self {
        // Scale the allocator's 10 s decay window to the (scaled-down)
        // run length so background purging fires a realistic number of
        // times per run.
        let run_cycles = profile.total_allocs.max(1) * profile.cycles_per_alloc.max(1);
        let decay = (run_cycles / 30).clamp(1_000_000, 500_000_000);
        let sys = defence::build(system, decay);
        let threads = defence::effective_threads(&*sys, profile.threads as u64);
        let telem = sys.registry().map(EngineTelem::register);
        let cost_rec = sys.registry().map(CostRecorder::new);
        // Stamp helper-thread demand vs. supply and the scan-kernel tier,
        // so a trace from a degraded run (1 spare core, SWAR fallback) is
        // distinguishable from a genuinely parallel one.
        if let Some(registry) = sys.registry() {
            registry.counter(ENGINE_SUBSYSTEM, "requested_helpers").add(sys.sweeper_threads());
            registry.counter(ENGINE_SUBSYSTEM, "effective_helpers").add(threads);
            let tier = minesweeper::simd::active_tier().as_str();
            registry.counter(ENGINE_SUBSYSTEM, &format!("scan_tier_{tier}")).inc();
        }
        let (label, slo) = (system.label(), None);
        let setup = Setup { profile: profile.clone(), label, seed, threads, telem, cost_rec, slo };
        Engine { sys, setup }
    }

    /// Turns the cost-attribution ledger on or off. It is on by default
    /// for layered systems; turning it off stops all `cost/*` counter
    /// traffic (the run is otherwise bit-identical — the ledger only
    /// observes charges, it never changes them). No-op for baselines.
    pub fn set_cost_ledger(&mut self, on: bool) {
        if !on {
            self.setup.cost_rec = None;
        } else if self.setup.cost_rec.is_none() {
            self.setup.cost_rec = self.sys.registry().map(CostRecorder::new);
        }
    }

    /// Arms the SLO watchdog: at finalize the run's registry snapshot is
    /// evaluated against `policy` and every breached objective emits a
    /// typed [`telemetry::EventKind::SloViolation`] through the attached
    /// trace sink. No-op for systems without a registry (baselines).
    pub fn set_slo_policy(&mut self, policy: SloPolicy) {
        self.setup.slo = Some(policy);
    }

    /// Attaches `sink` to the layered system's sweep tracer, so the run
    /// emits lifecycle events ([`telemetry::EventKind`]) stamped with the
    /// engine's virtual clock. With `deterministic` set, wall-clock
    /// durations in events are zeroed so identically seeded runs produce
    /// byte-identical traces.
    ///
    /// Returns `false` (and drops the sink) when the system under test has
    /// no tracer (baselines).
    pub fn set_trace_sink(&mut self, sink: Box<dyn Sink>, deterministic: bool) -> bool {
        let Some(tracer) = self.sys.tracer_mut() else { return false };
        tracer.set_sink(sink);
        tracer.set_deterministic(deterministic);
        true
    }

    /// Runs the profile's generated trace to completion and returns the
    /// metrics.
    pub fn run(self) -> RunMetrics {
        let trace = TraceGen::new(&self.setup.profile, self.setup.seed);
        self.run_ops(trace)
    }

    /// Replays an explicit op stream (e.g. a recorded trace,
    /// [`workloads::recorded`]) instead of the generated one. The profile
    /// still supplies the pointer-graph knobs (density, dangling rate,
    /// roots) and the cost-model scaling.
    pub fn run_ops(self, ops: impl IntoIterator<Item = Op>) -> RunMetrics {
        self.sys.replay(self.setup, &mut ops.into_iter())
    }
}

/// The engine over one concrete system type `D`, so the op loop calls
/// the system without dynamic dispatch.
#[derive(Debug)]
pub(crate) struct Sim<D: ?Sized> {
    space: AddrSpace,
    sys: Box<D>,
    /// Effective sweeper threads: the system's request, capped by the
    /// cores the mutator spares.
    threads: u64,
    cost: CostModel,
    rng: Rng,
    profile: Profile,
    /// Mutator-visible virtual time.
    now: u64,
    background: u64,
    /// The pointer graph's objects, named by handle. Edges and `live`
    /// carry handles, so graph walks index this slab directly.
    objs: Slab<Obj>,
    /// Handle of each live object by op id. Ids are any unique `u64`
    /// (recorded traces choose them), so only the alloc and the free of an
    /// object hash its id.
    handles: IdMap<u64, u32>,
    /// The pointer graph's edges: the root slots' and one block per
    /// holder, linked into their targets' `incoming` lists.
    edges: Edges,
    /// Handles of the live objects, for uniform picks.
    live: Vec<u32>,
    /// Per root slot: the base it points at. The slot's edge is dangling
    /// once that object has been freed.
    root_owner: Vec<Option<Addr>>,
    /// Free time of each freed base, for the warm-reuse charge; left
    /// empty under systems that never reuse an address.
    freed_at: IdMap<u64, u64>,
    sweep_active: bool,
    teardown: bool,
    /// Next pSweeper background-sweep time (scaled "1 s" period).
    next_psweep: u64,
    psweep_period: u64,
    metrics: RunMetrics,
    sample_interval: u64,
    next_sample: u64,
    /// Present for MineSweeper-layered systems (they own the registry).
    telem: Option<EngineTelem>,
    /// Cost-attribution ledger ([`telemetry::CostRecorder`]) on the same
    /// registry, published to it at finalize; on by default for layered
    /// systems, purely observational (disabling it never changes
    /// verdicts, traces or virtual time).
    cost_rec: Option<CostRecorder>,
    /// Ledger total at the current sweep's start, for the per-generation
    /// `cost/per_sweep_cycles` attribution histogram.
    cost_sweep_start: u64,
    /// Pause-budget SLO objectives checked at finalize
    /// ([`Engine::set_slo_policy`]); breaches emit typed
    /// [`telemetry::EventKind::SloViolation`] trace events.
    slo: Option<SloPolicy>,
}

impl<D: Defence + ?Sized> Sim<D> {
    pub(crate) fn new(sys: Box<D>, setup: Setup) -> Self {
        let Setup { profile, label, seed, threads, telem, cost_rec, slo } = setup;
        let run_cycles = profile.total_allocs.max(1) * profile.cycles_per_alloc.max(1);
        let sample_interval = (run_cycles / 256).max(10_000);
        let metrics = RunMetrics {
            benchmark: profile.name.to_string(),
            system: label.to_string(),
            rss_series: vec![(0, 0)],
            ..RunMetrics::default()
        };
        Sim {
            space: AddrSpace::new(),
            sys,
            threads,
            cost: CostModel::desktop(),
            rng: Rng::new(seed ^ 0x9aa9_0000),
            now: 0,
            background: 0,
            objs: Slab::default(),
            handles: IdMap::default(),
            edges: Edges::new(profile.root_slots as usize),
            live: Vec::new(),
            root_owner: vec![None; profile.root_slots as usize],
            profile,
            freed_at: IdMap::default(),
            sweep_active: false,
            teardown: false,
            next_psweep: (run_cycles / 32).max(100_000),
            psweep_period: (run_cycles / 32).max(100_000),
            metrics,
            sample_interval,
            next_sample: sample_interval,
            telem,
            cost_rec,
            cost_sweep_start: 0,
            slo,
        }
    }

    fn record_cost(&mut self, kind: CostKind, cycles: u64) {
        if let Some(rec) = &mut self.cost_rec {
            rec.charge(kind, cycles, None);
        }
    }

    pub(crate) fn run_ops(mut self, ops: impl IntoIterator<Item = Op>) -> RunMetrics {
        self.play(ops);
        self.finalize()
    }

    /// Runs `ops` and lets a sweep still in flight land; `run_ops` without
    /// the final accounting.
    fn play(&mut self, ops: impl IntoIterator<Item = Op>) {
        for op in ops {
            match op {
                Op::Work(c) => {
                    // CRCount taxes pointer-write-heavy compute: the
                    // engine's pointer graph only covers initialisation
                    // stores, so the steady-state instrumented stores are
                    // charged proportionally to the profile's pointer
                    // density (§6.6's mcf/povray effect).
                    let tax = self.sys.work_tax(&self.cost);
                    let c = c + (c as f64 * tax * self.profile.ptr_density.min(1.0)) as u64;
                    self.charge_mutator(c)
                }
                Op::Alloc { id, size, site } => self.do_alloc(id, size, site),
                Op::Free { id } => self.do_free(id),
                Op::Teardown => self.teardown = true,
            }
            if !self.teardown {
                self.housekeep();
            }
        }
        // If a sweep is still in flight at exit, let it land (the process
        // would normally just exit; finishing keeps accounting closed).
        self.fast_forward_sweep(false);
    }

    // ---- time accounting -------------------------------------------------

    /// Contention factor on mutator work while sweepers are running.
    fn contention(&self) -> f64 {
        if !self.sweep_active {
            return 1.0;
        }
        let demand = self.profile.threads as u64 + self.threads;
        if demand <= self.cost.cores as u64 {
            1.0
        } else {
            demand as f64 / self.cost.cores as f64
        }
    }

    /// Charges mutator-visible cycles and advances any concurrent sweep by
    /// the same wall time.
    fn charge_mutator(&mut self, cycles: u64) {
        let effective = (cycles as f64 * self.contention()) as u64;
        self.now += effective;
        if self.sweep_active {
            self.progress_sweep(effective);
        }
        self.sample();
    }

    fn sample(&mut self) {
        while self.now >= self.next_sample {
            let rss = self.rss();
            self.metrics.peak_rss = self.metrics.peak_rss.max(rss);
            self.metrics.rss_series.push((self.next_sample, rss));
            self.next_sample += self.sample_interval;
            // Allocator decay purging rides the sample clock.
            self.sys.tick(&mut self.space, self.now);
            // pSweeper's background thread wakes on its fixed period.
            if self.now >= self.next_psweep {
                self.next_psweep = self.now + self.psweep_period;
                if self.teardown {
                    continue;
                }
                if let Some((mutator, background)) =
                    self.sys.periodic_sweep(&mut self.space, &self.cost)
                {
                    self.now += mutator;
                    self.background += background;
                    self.metrics.sweeps += 1;
                }
            }
        }
    }

    /// Resident bytes: the address space plus the system's metadata.
    fn rss(&self) -> u64 {
        self.space.rss_bytes() + self.sys.metadata_bytes()
    }

    // ---- allocation ------------------------------------------------------

    fn do_alloc(&mut self, id: u64, size: u64, site: u32) {
        self.metrics.allocs += 1;
        // Pause valve: an overloaded sweep blocks new allocations (§5.7).
        if self.sys.pause_needed() {
            self.fast_forward_sweep(true);
        }
        let (word, alloc_cost) = self.sys.malloc_word(&mut self.space, size, &self.cost);
        let base = Addr::new(word);
        // Delay-of-reuse cache penalty, scaled by how much the benchmark
        // depends on hot reuse. Three cases:
        //  * warm — the base was freed moments ago (tcache-style LIFO
        //    reuse): free.
        //  * stale reuse — recycled long after it went cold (quarantine's
        //    signature effect): full cold cost.
        //  * fresh — never recycled: cold, but bump cursors and fresh slab
        //    carves stream in address order, so the prefetcher discounts it
        //    (this is also why FFmalloc's always-fresh memory stays cheap).
        let sens = self.profile.cache_sensitivity;
        let cold_cost = match self.freed_at.remove(&base.raw()) {
            Some(t) if self.now.saturating_sub(t) < self.cost.warm_window => 0,
            Some(_) => (self.cost.cold_cost(size) as f64 * sens) as u64,
            None => (self.cost.cold_cost(size) as f64 * sens * self.cost.fresh_locality)
                as u64,
        };
        self.charge_mutator(alloc_cost + cold_cost);

        // Touch every page (commit; programs initialise their objects).
        let mut page = base.align_down(PAGE_SIZE as u64);
        if page < base {
            page = page.add_bytes(PAGE_SIZE as u64);
        }
        self.space.write_word(base, self.rng.next_u64() | 1).ok();
        while page < base.add_bytes(size) {
            if page > base {
                self.space.write_word(page, self.rng.next_u64() | 1).ok();
            }
            page = page.add_bytes(PAGE_SIZE as u64);
        }

        // Pointer wiring per the profile's density, all in one burst into
        // the holder's block: one edge per attempt, unwired where nothing
        // was stored.
        let slots_f = self.profile.ptr_density * size as f64 / 64.0;
        let mut k = slots_f as u64;
        if self.rng.chance(slots_f.fract()) {
            k += 1;
        }
        let cap = u32::try_from(k.min(size / WORD_SIZE as u64)).expect("slot counts fit a u32");
        let out = self.edges.alloc(cap);
        let h = self.objs.add(Obj {
            base,
            req: size,
            site,
            out,
            incoming: Incoming::EMPTY,
            live_idx: u32::try_from(self.live.len()).expect("live objects fit a u32 index"),
        });
        let live = self.handles.insert(id, h);
        assert!(live.is_none(), "trace allocates live id {id} twice");
        let mut store_cycles = 0;
        for e in out.edges() {
            let Some((target, off, cycles)) = self.store_random_ptr(base, size) else {
                self.edges[e] = Edge::UNWIRED;
                continue;
            };
            self.edges[e] = Edge { holder: h, off, target, links: [NIL; 2] };
            self.objs[target].incoming.push(&mut self.edges, e);
            store_cycles += cycles;
        }
        // A "false pointer": plain data that happens to equal a heap
        // address (Figure 4). Untracked — never erased.
        if self.rng.chance(self.profile.false_ptr_rate) {
            if let Some(target) = pick(&mut self.rng, &self.live) {
                let off = self.rng.below((size / 8).max(1)) * 8;
                let value = self.objs[target].base.raw();
                self.space.write_word(base.add_bytes(off), value).ok();
            }
        }

        // Root the object (rotating root-slot assignment keeps a live
        // root set for sweeps to scan).
        if !self.root_owner.is_empty() {
            let r = (id % self.root_owner.len() as u64) as u32;
            self.clear_root(r);
            let slot_addr = self.root_addr(r);
            self.space.write_word(slot_addr, base.raw()).expect("stack is mapped");
            self.edges[r] = Edge { holder: ROOT, off: 0, target: h, links: [NIL; 2] };
            self.objs[h].incoming.push(&mut self.edges, r);
            self.root_owner[r as usize] = Some(base);
            store_cycles += self.sys.store_ptr(base, slot_addr, &self.cost);
        }
        if store_cycles > 0 {
            self.charge_mutator(store_cycles);
        }

        self.live.push(h);
    }

    /// Stores a pointer to a random live object into a random slot of the
    /// new object at `base`. Returns the target, the slot's offset and the
    /// store's charge; `None` when nothing is live or the store faulted.
    fn store_random_ptr(&mut self, base: Addr, size: u64) -> Option<(u32, u32, u64)> {
        let target = pick(&mut self.rng, &self.live)?;
        let Obj { base: t_base, req: t_req, .. } = self.objs[target];
        let off = self.rng.below((size / 8).max(1)) * 8;
        let interior = if self.rng.chance(0.2) && t_req > 16 {
            self.rng.below(t_req / 8) * 8
        } else {
            0
        };
        let value = t_base.add_bytes(interior);
        let slot = base.add_bytes(off);
        self.space.write_word(slot, value.raw()).ok()?;
        let off = u32::try_from(off).expect("slot offsets fit a u32: sizes stay <= u32::MAX");
        Some((target, off, self.sys.store_ptr(t_base, slot, &self.cost)))
    }

    fn root_addr(&self, r: u32) -> Addr {
        self.space.layout().segment_base(Segment::Stack) + r as u64 * 8
    }

    fn clear_root(&mut self, r: u32) {
        if let Some(old_base) = self.root_owner[r as usize].take() {
            let old = self.edges[r].target;
            if old != NIL {
                self.objs[old].incoming.unlink(&mut self.edges, r);
            }
            // Overwriting a pointer is an instrumented store (under
            // CRCount this is how dangling-root references eventually
            // drain). The engine leaves it uncharged.
            self.sys.drop_ref(&mut self.space, old_base, &self.cost);
        }
        // The slot itself is overwritten by the caller (or zeroed here).
        self.space.write_word(self.root_addr(r), 0).expect("stack is mapped");
    }

    // ---- free ------------------------------------------------------------

    fn do_free(&mut self, id: u64) {
        self.metrics.frees += 1;
        let h = self.handles.remove(&id).expect("trace frees live ids once");
        let obj = self.objs[h];
        self.objs.release(h);
        // Program behaviour: erase (most) references to the dying object.
        // Erasing a reference is an instrumented store, charged with the
        // free.
        let mut drop_cycles = 0;
        let mut cur = obj.incoming.first();
        while let Some(e) = cur {
            cur = self.edges.next(e);
            if self.rng.chance(self.profile.dangling_rate) {
                // The stale pointer stays until its slot is recycled — a
                // genuine dangling pointer the sweep must find.
                self.edges[e].target = NIL;
                continue;
            }
            drop_cycles += self.sys.drop_ref(&mut self.space, obj.base, &self.cost);
            match self.edges[e] {
                Edge { holder: ROOT, .. } => {
                    self.space.write_word(self.root_addr(e), 0).expect("stack");
                    self.root_owner[e as usize] = None;
                }
                Edge { holder, off, .. } => {
                    let h_base = self.objs[holder].base;
                    self.space.write_word(h_base.add_bytes(u64::from(off)), 0).ok();
                }
            }
        }
        // Erased slots are flagged in their holders' blocks. Erasing an
        // in-object slot clears every copy of it, so a dangling copy of an
        // erased slot goes too. A dangling slot stays with its holder (or
        // root). `erased_copy` may read edges flagged earlier in this
        // loop: flagging keeps their holder and offset, and a flagged
        // dangling copy stands beside the erased copy that flagged it.
        let mut cur = obj.incoming.first();
        while let Some(e) = cur {
            cur = self.edges.next(e);
            if self.edges[e].target != NIL || self.edges.erased_copy(e) {
                self.edges[e].target = ERASED;
            }
        }
        // The dying object's own outgoing slots stop being app references,
        // and destructors usually clear the member pointers themselves
        // (~85% of the time) before the memory is freed — without this,
        // stale pointers inside non-zeroed quarantined objects (MarkUs,
        // MineSweeper-without-zeroing) pin whatever later occupies the
        // pointed-to addresses, cascading retention far beyond reality.
        for e in obj.out.edges() {
            let Edge { off, target, .. } = self.edges[e];
            if target == ERASED {
                continue;
            }
            // A slot left dangling by an earlier free has no live target.
            let target_base = (target != NIL).then(|| {
                let t = &mut self.objs[target];
                t.incoming.unlink(&mut self.edges, e);
                t.base
            });
            let slot = obj.base.add_bytes(u64::from(off));
            if self.rng.chance(0.85) {
                self.space.write_word(slot, 0).ok();
            }
            // CRCount's zero-fill on free invalidates every outgoing
            // reference exactly once, whatever the destructors did;
            // pSweeper's table drops the dead holder's slots, uncharged.
            if let Some(t_base) = target_base {
                drop_cycles += self.sys.drop_ref(&mut self.space, t_base, &self.cost);
            }
            self.sys.drop_slot(slot, &self.cost);
        }
        self.edges.release(obj.out);
        // Live-list swap-remove.
        let last = self.live.pop().expect("non-empty");
        if last != h {
            self.live[obj.live_idx as usize] = last;
            self.objs[last].live_idx = obj.live_idx;
        }
        if self.sys.reuses_addresses() {
            self.freed_at.insert(obj.base.raw(), self.now);
        }

        // Hand the allocation to the system under test, charging costs.
        self.stamp_now();
        let cx = FreeCtx { cost: &self.cost, site: obj.site, ledger: self.cost_rec.as_mut() };
        let (ack, cycles) = self.sys.free_word(&mut self.space, obj.base.raw(), cx);
        debug_assert_eq!(ack, FreeAck::Done, "engine frees live ids once");
        self.charge_mutator(cycles + drop_cycles);
    }

    /// Stamps the engine's clock into the layered system's tracer.
    fn stamp_now(&mut self) {
        if let Some(tracer) = self.sys.tracer_mut() {
            tracer.set_virtual_now(self.now);
        }
    }

    // ---- sweep orchestration ----------------------------------------------

    fn housekeep(&mut self) {
        if self.sweep_active {
            return;
        }
        if self.sys.sweep_needed(&self.space) {
            self.stamp_now();
            self.sys.start_sweep(&mut self.space);
            self.sweep_active = true;
            if let Some(t) = &mut self.telem {
                t.sweep_start = self.now;
            }
            self.cost_sweep_start = self.cost_rec.as_ref().map_or(0, CostRecorder::total);
            if !self.sys.concurrent() {
                // Sequential version: the whole sweep runs in the mutator
                // (§5.4).
                self.fast_forward_sweep(true);
            }
        } else if let Some((pause, background, retained)) =
            self.sys.collect(&mut self.space, &self.cost)
        {
            let stw = pause / self.threads;
            self.now += stw;
            self.metrics.stw_cycles += stw;
            self.background += background;
            self.metrics.sweeps += 1;
            self.metrics.failed_frees += retained;
            self.sample();
        }
    }

    /// Advances an in-flight sweep by `wall` cycles of real time.
    fn progress_sweep(&mut self, wall: u64) {
        let budget_words = wall * self.cost.sweep_words_per_cycle() * self.threads;
        if budget_words == 0 {
            return;
        }
        let (r, dcs) =
            defence::step_counting_commits(&mut *self.sys, &mut self.space, budget_words);
        self.metrics.sweep_demand_commits += dcs;
        // Skipped pages (incremental sweep) advance the cursor without the
        // word-by-word re-read; they cost a flat per-page lookup instead.
        let (scan, skip) =
            self.cost.mark_cost_parts(r.bytes - r.skipped_bytes, r.skipped_bytes, r.heap_words);
        let forensics = r.pin_edges * self.cost.forensics_edge;
        let commit = dcs * self.cost.demand_commit;
        self.record_cost(CostKind::MarkScan, scan);
        self.record_cost(CostKind::SkipReplay, skip);
        self.record_cost(CostKind::Forensics, forensics);
        self.record_cost(CostKind::Commit, commit);
        self.background += scan + skip + forensics + commit;
        if r.finished {
            self.finish_sweep();
        }
    }

    /// Runs the in-flight sweep to completion immediately. When `blocking`
    /// the mutator waits for it (allocation pause / sequential mode).
    fn fast_forward_sweep(&mut self, blocking: bool) {
        if !self.sweep_active {
            return;
        }
        let (r, dcs) = defence::step_counting_commits(&mut *self.sys, &mut self.space, u64::MAX);
        debug_assert!(r.finished);
        self.metrics.sweep_demand_commits += dcs;
        // The drain's mark and commits are recorded as priced; a blocking
        // drain also stalls the mutator for its wall time, on Stw.
        let (threads, concurrent) = (self.threads, self.sys.concurrent());
        let ledger = self.cost_rec.as_mut();
        let (wall, mark, commit) =
            defence::drain_charge(&self.cost, &r, dcs, threads, concurrent, ledger);
        if blocking {
            self.record_cost(CostKind::Stw, wall);
            self.now += wall + commit;
            self.metrics.pause_cycles += wall;
            if let Some(t) = &self.telem {
                t.pause_cycles.record(wall);
            }
            self.background += mark;
        } else {
            self.background += mark + commit;
        }
        self.finish_sweep();
    }

    fn finish_sweep(&mut self) {
        self.stamp_now();
        let (report, purged) = self.sys.finish_sweep(&mut self.space);
        let (stw, release) =
            defence::finish_charge(&self.cost, &report, purged, self.cost_rec.as_mut());
        // Stop-the-world re-check hits the mutator.
        self.now += stw;
        self.metrics.stw_cycles += stw;
        if let Some(t) = &self.telem {
            if stw > 0 {
                t.stw_cycles.record(stw);
            }
            t.sweep_cycles.record(self.now.saturating_sub(t.sweep_start));
        }
        // Release + purge work.
        if self.sys.concurrent() {
            self.background += release;
        } else {
            self.now += release;
        }
        self.metrics.sweeps += 1;
        self.metrics.failed_frees += report.failed;
        self.sweep_active = false;
        // Close the generation's attribution window.
        if let Some(rec) = &mut self.cost_rec {
            rec.record_sweep(rec.total().saturating_sub(self.cost_sweep_start));
        }
        self.sample();
    }

    fn finalize(mut self) -> RunMetrics {
        // Close the RSS series at the final time.
        let rss = self.rss();
        self.metrics.peak_rss = self.metrics.peak_rss.max(rss);
        self.metrics.rss_series.push((self.now.max(1), rss));
        self.metrics.mutator_cycles = self.now.max(1);
        self.metrics.background_cycles = self.background;
        // Export telemetry: publish the cost ledger, flush any attached
        // trace sink, snapshot the shared registry, and derive the
        // headline sweep metrics from the layer's counters (single source
        // of truth).
        // SLO watchdog: evaluate the final snapshot before the flush so
        // violation events land in the same trace as the sweeps they
        // indict.
        if let Some(rec) = &mut self.cost_rec {
            rec.publish();
        }
        let snap = self.sys.registry().cloned().map(|registry| {
            let tracer = self.sys.tracer_mut().expect("layered systems trace");
            if let Some(policy) = self.slo.take() {
                let checks = Watchdog::new(policy).evaluate(&registry.snapshot());
                Watchdog::emit_violations(tracer, &checks);
            }
            tracer.flush();
            registry.snapshot()
        });
        if let Some(snap) = snap {
            self.metrics.sweeps = snap.counter(LAYER_SUBSYSTEM, "sweeps").unwrap_or(0);
            self.metrics.failed_frees =
                snap.counter(LAYER_SUBSYSTEM, "failed_frees").unwrap_or(0);
            self.metrics.telemetry = Some(snap);
        }
        self.metrics
    }
}

/// Picks a uniformly random element.
fn pick(rng: &mut Rng, xs: &[u32]) -> Option<u32> {
    if xs.is_empty() {
        None
    } else {
        Some(xs[rng.below(xs.len() as u64) as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run;
    use minesweeper::MsConfig;
    use workloads::{LifetimeDist, SizeDist};

    fn fast_profile() -> Profile {
        Profile {
            total_allocs: 4_000,
            cycles_per_alloc: 300,
            size_dist: SizeDist::LogNormal { median: 64, sigma: 2.5, cap: 64 * 1024 },
            lifetime: LifetimeDist::Mixture(vec![
                (0.9, LifetimeDist::Exp(100.0)),
                (0.1, LifetimeDist::Exp(1_500.0)),
            ]),
            ..Profile::demo()
        }
    }

    #[test]
    #[should_panic(expected = "trace allocates live id 7 twice")]
    fn a_live_id_allocated_twice_is_rejected() {
        let alloc = |size| Op::Alloc { id: 7, size, site: 0 };
        Engine::new(&fast_profile(), System::Baseline, 1).run_ops([alloc(64), alloc(32)]);
    }

    #[test]
    fn teardown_returns_every_edge_block() {
        let p = Profile { dangling_rate: 0.2, ..fast_profile() };
        let Engine { sys, setup } = Engine::new(&p, System::minesweeper_default(), 1);
        let mut sim = Sim::new(sys, setup);
        sim.play(TraceGen::new(&p, 1));
        assert_eq!(sim.metrics.frees, 4_000);
        let Edges { arena, free } = &sim.edges;
        let roots = p.root_slots as usize;
        assert!(roots > 0 && arena.len() > roots);
        // No block ever took a root slot's edge.
        assert!(arena[..roots].iter().all(|e| e.holder == ROOT));
        // The released blocks tile the arena past the root edges.
        let mut spans: Vec<(usize, usize)> = (free.iter().enumerate())
            .flat_map(|(class, starts)| starts.iter().map(move |&s| (s as usize, 1 << class)))
            .collect();
        spans.sort_unstable();
        let end = spans.iter().fold(roots, |at, &(start, len)| {
            assert_eq!(start, at, "blocks overlap or an edge leaked");
            start + len
        });
        assert_eq!(end, arena.len(), "an edge block leaked");
    }

    #[test]
    fn a_released_block_goes_to_the_next_holder_of_its_class() {
        let mut edges = Edges::new(2);
        let a = edges.alloc(3);
        let b = edges.alloc(3);
        assert_eq!((a, b), (Block { start: 2, len: 3 }, Block { start: 6, len: 3 }));
        assert_eq!(edges.alloc(0), Block::EMPTY);
        edges.release(a);
        assert_eq!(edges.alloc(5).start, 10, "a class-3 holder takes no class-2 block");
        assert_eq!(edges.alloc(4), Block { start: 2, len: 4 });
        assert_eq!(edges.alloc(3).start, 18, "the free list is empty again");
    }

    #[test]
    fn free_times_are_kept_only_where_addresses_come_back() {
        let freed_at_len = |system| {
            let Engine { sys, setup } = Engine::new(&fast_profile(), system, 1);
            let mut sim = Sim::new(sys, setup);
            sim.play(TraceGen::new(&fast_profile(), 1));
            assert_eq!(sim.metrics.frees, 4_000);
            sim.freed_at.len()
        };
        assert_eq!(freed_at_len(System::FfMalloc), 0);
        assert_eq!(freed_at_len(System::Oscar), 0);
        assert!(freed_at_len(System::Baseline) > 0, "a reusing heap keeps free times");
    }

    #[test]
    fn baseline_run_completes_and_balances() {
        let m = run(&fast_profile(), System::Baseline, 1);
        assert_eq!(m.allocs, 4_000);
        assert_eq!(m.frees, 4_000, "teardown frees everything");
        assert_eq!(m.sweeps, 0);
        assert!(m.mutator_cycles > 0);
        assert_eq!(m.background_cycles, 0, "baseline has no helper threads");
    }

    #[test]
    fn identical_seeds_are_bit_reproducible() {
        let a = run(&fast_profile(), System::minesweeper_default(), 7);
        let b = run(&fast_profile(), System::minesweeper_default(), 7);
        assert_eq!(a.mutator_cycles, b.mutator_cycles);
        assert_eq!(a.rss_series, b.rss_series);
        assert_eq!(a.sweeps, b.sweeps);
    }

    #[test]
    fn minesweeper_sweeps_and_stays_close_to_baseline() {
        let base = run(&fast_profile(), System::Baseline, 3);
        let ms = run(&fast_profile(), System::minesweeper_default(), 3);
        assert!(ms.sweeps > 0, "allocation churn must trigger sweeps");
        let slowdown = ms.slowdown_vs(&base);
        assert!(slowdown >= 1.0, "mitigation cannot be faster: {slowdown}");
        assert!(slowdown < 2.0, "demo workload slowdown out of range: {slowdown}");
        assert!(ms.cpu_utilisation() > 1.0, "sweeper threads burn CPU");
    }

    #[test]
    fn markus_collects_and_costs_more_than_minesweeper() {
        let base = run(&fast_profile(), System::Baseline, 3);
        let mu = run(&fast_profile(), System::markus_default(), 3);
        let ms = run(&fast_profile(), System::minesweeper_default(), 3);
        assert!(mu.sweeps > 0, "collections must trigger");
        assert!(
            mu.slowdown_vs(&base) >= ms.slowdown_vs(&base) * 0.95,
            "transitive marking should not beat the linear sweep: markus {} ms {}",
            mu.slowdown_vs(&base),
            ms.slowdown_vs(&base)
        );
    }

    #[test]
    fn ffmalloc_is_fast_but_memory_hungry_under_mixed_lifetimes() {
        let profile = Profile {
            // Churn with a long-lived minority: FFmalloc's pathology.
            lifetime: LifetimeDist::Mixture(vec![
                (0.93, LifetimeDist::Exp(50.0)),
                (0.07, LifetimeDist::Permanent),
            ]),
            ..fast_profile()
        };
        let base = run(&profile, System::Baseline, 5);
        let ff = run(&profile, System::FfMalloc, 5);
        assert!(ff.slowdown_vs(&base) < 1.25, "one-time allocation is cheap");
        assert!(
            ff.memory_overhead_vs(&base) > 1.3,
            "survivors must pin pages: {}",
            ff.memory_overhead_vs(&base)
        );
    }

    #[test]
    fn mostly_concurrent_costs_more_than_fully() {
        let base = run(&fast_profile(), System::Baseline, 9);
        let fully = run(&fast_profile(), System::minesweeper_default(), 9);
        let mostly = run(&fast_profile(), System::minesweeper_mostly(), 9);
        assert!(mostly.stw_cycles > 0, "STW re-checks must happen");
        assert!(
            mostly.slowdown_vs(&base) >= fully.slowdown_vs(&base),
            "mostly {} < fully {}",
            mostly.slowdown_vs(&base),
            fully.slowdown_vs(&base)
        );
    }

    #[test]
    fn ablation_unoptimised_is_worst() {
        let p = fast_profile();
        let base = run(&p, System::Baseline, 11);
        let unopt = run(&p, System::MineSweeper(MsConfig::ablation_unoptimised()), 11);
        let full = run(&p, System::MineSweeper(MsConfig::fully_concurrent()), 11);
        assert!(
            unopt.slowdown_vs(&base) > full.slowdown_vs(&base),
            "unoptimised {} vs full {}",
            unopt.slowdown_vs(&base),
            full.slowdown_vs(&base)
        );
    }

    #[test]
    fn dangling_pointers_cause_failed_frees() {
        let p = Profile { dangling_rate: 0.2, ..fast_profile() };
        let ms = run(&p, System::minesweeper_default(), 13);
        assert!(ms.failed_frees > 0, "20% dangling rate must trip some sweeps");
    }

    #[test]
    fn telemetry_snapshot_matches_headline_metrics() {
        let m = run(&fast_profile(), System::minesweeper_default(), 7);
        let snap = m.telemetry.as_ref().expect("layered runs carry telemetry");
        assert_eq!(snap.counter("layer", "sweeps"), Some(m.sweeps));
        assert_eq!(snap.counter("layer", "failed_frees"), Some(m.failed_frees));
        // Every sweep the engine drove is one sweep_cycles observation.
        let sweeps = snap.histogram(ENGINE_SUBSYSTEM, "sweep_cycles").unwrap();
        assert_eq!(sweeps.count(), m.sweeps);
        assert!(run(&fast_profile(), System::Baseline, 7).telemetry.is_none());
    }

    #[test]
    fn rss_series_is_monotone_in_time() {
        let m = run(&fast_profile(), System::minesweeper_default(), 17);
        for w in m.rss_series.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
        assert!(m.peak_rss >= m.rss_series.iter().map(|&(_, r)| r).max().unwrap());
    }

    #[test]
    fn scudo_systems_run_and_layer_costs_are_modest() {
        // §7: the same layer over Scudo; overhead relative to the *Scudo*
        // baseline should be small (the paper reports 4.4%).
        let p = fast_profile();
        let scudo_base = run(&p, System::ScudoBaseline, 21);
        let layered = run(&p, System::minesweeper_scudo(), 21);
        assert_eq!(scudo_base.allocs, p.total_allocs);
        assert_eq!(layered.frees, p.total_allocs);
        assert!(layered.sweeps > 0, "quarantine must trigger sweeps over Scudo too");
        let slowdown = layered.slowdown_vs(&scudo_base);
        assert!((1.0..1.6).contains(&slowdown), "scudo-layer slowdown {slowdown}");
    }

    #[test]
    fn crcount_defers_frees_and_taxes_pointer_writes() {
        let p = Profile { dangling_rate: 0.1, ..fast_profile() };
        let base = run(&p, System::Baseline, 23);
        let cr = run(&p, System::CrCount, 23);
        assert_eq!(cr.frees, p.total_allocs);
        assert_eq!(cr.sweeps, 0, "reference counting never sweeps");
        let slowdown = cr.slowdown_vs(&base);
        assert!(slowdown > 1.0, "per-pointer-write upkeep must cost: {slowdown}");
        // Pointer-density work tax: a pointer-heavy profile pays more.
        let heavy = Profile { ptr_density: 1.0, ..p.clone() };
        let base_h = run(&heavy, System::Baseline, 23);
        let cr_h = run(&heavy, System::CrCount, 23);
        assert!(
            cr_h.slowdown_vs(&base_h) > slowdown,
            "denser pointers must cost CRCount more"
        );
    }

    #[test]
    fn oscar_pays_syscalls_and_growing_page_tables() {
        let p = fast_profile();
        let base = run(&p, System::Baseline, 29);
        let os = run(&p, System::Oscar, 29);
        assert_eq!(os.frees, p.total_allocs);
        let slowdown = os.slowdown_vs(&base);
        assert!(slowdown > 1.1, "per-alloc syscalls must show: {slowdown}");
        // Page tables only grow: with a flat live set, a late mid-run RSS
        // sample (metadata included) exceeds an early one by the PTE
        // accumulation. (Avoid the teardown tail, where frames drain.)
        let early = os.rss_series[os.rss_series.len() / 4].1;
        let late = os.rss_series[os.rss_series.len() * 3 / 4].1;
        assert!(late > early, "alias PTEs accumulate: early {early} late {late}");
    }

    #[test]
    fn psweeper_sweeps_periodically_and_defers_frees() {
        let p = fast_profile();
        let ps = run(&p, System::PSweeper, 31);
        assert!(ps.sweeps >= 5, "periodic background sweeps, got {}", ps.sweeps);
        assert!(ps.background_cycles > 0);
    }

    #[test]
    fn dangsan_frees_immediately_but_carries_logs() {
        let p = Profile { ptr_density: 1.0, ..fast_profile() };
        let base = run(&p, System::Baseline, 33);
        let ds = run(&p, System::DangSan, 33);
        assert_eq!(ds.sweeps, 0, "no sweeps: log walk at free");
        assert!(ds.slowdown_vs(&base) > 1.0);
        // Log metadata shows up as memory overhead on pointer-dense heaps.
        assert!(
            ds.memory_overhead_vs(&base) > 1.02,
            "logs must cost memory: {}",
            ds.memory_overhead_vs(&base)
        );
    }

    #[test]
    fn threaded_profiles_pay_sweep_contention() {
        let single = Profile { threads: 1, ..fast_profile() };
        let threaded = Profile { threads: 8, ..fast_profile() };
        let base_s = run(&single, System::Baseline, 19);
        let base_t = run(&threaded, System::Baseline, 19);
        let ms_s = run(&single, System::minesweeper_default(), 19);
        let ms_t = run(&threaded, System::minesweeper_default(), 19);
        assert!(
            ms_t.slowdown_vs(&base_t) >= ms_s.slowdown_vs(&base_s),
            "sweepers must contend with 8 mutator threads"
        );
    }
}
