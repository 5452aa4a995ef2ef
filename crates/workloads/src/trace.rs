//! Expansion of a [`Profile`] into a deterministic event stream.

use crate::profile::Profile;
use crate::rng::Rng;

/// One allocator-relevant event of a workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op {
    /// Pure mutator compute for this many cycles.
    Work(u64),
    /// Allocate object `id` (ids are dense, starting at 0) of `size` bytes.
    Alloc {
        /// Dense object identifier.
        id: u64,
        /// Requested size in bytes.
        size: u64,
        /// Synthetic allocation-site id: lifetime class (0 short-lived,
        /// 1 phase-bound, 2 permanent, 3 straggler) × 16 + log₂ size
        /// bucket. Forensics attributes failed frees back to these.
        site: u32,
    },
    /// Free object `id`.
    Free {
        /// Identifier from the corresponding [`Op::Alloc`].
        id: u64,
    },
    /// The program is exiting: everything after this is teardown (bulk
    /// frees on the way out of `main`). Mitigations stop triggering
    /// sweeps/collections — a real process would simply exit.
    Teardown,
}

/// Streaming trace generator: expands a [`Profile`] into `Work`/`Alloc`/
/// `Free` events, freeing objects per the lifetime distribution (measured
/// in allocation events) and draining everything at teardown — like a
/// process exiting cleanly.
///
/// The stream is a pure function of `(profile, seed)`.
#[derive(Clone, Debug)]
pub struct TraceGen {
    rng: Rng,
    total_allocs: u64,
    cycles_per_alloc: u64,
    size_dist: crate::dist::SizeDist,
    lifetime: crate::dist::LifetimeDist,
    straggler_rate: f64,
    /// Allocation events per phase (`u64::MAX` when phases are disabled).
    phase_len: u64,
    phase_frac: f64,
    /// Objects that die at the current phase boundary.
    phase_objects: Vec<u64>,
    next_id: u64,
    /// Per due allocation-event index up to `total_allocs`, the first and
    /// last id of the objects that die there ([`NIL`] when none). Grown as
    /// indices arrive.
    deaths: Vec<(u32, u32)>,
    /// Per id, the next id in the same death list ([`NIL`] ends it).
    next: Vec<u32>,
    /// `(due, id)` of deaths due after `total_allocs`: they drain at
    /// teardown.
    late: Vec<(u64, u64)>,
    /// Ids that never got a finite lifetime (freed at teardown).
    permanents: Vec<u64>,
    /// Queued ops not yet yielded.
    pending: std::collections::VecDeque<Op>,
    teardown: bool,
}

impl TraceGen {
    /// Creates a generator for `profile` with the given seed.
    pub fn new(profile: &Profile, seed: u64) -> Self {
        TraceGen {
            rng: Rng::new(seed ^ 0x5eed_0000),
            total_allocs: profile.total_allocs,
            cycles_per_alloc: profile.cycles_per_alloc,
            size_dist: profile.size_dist.clone(),
            lifetime: profile.lifetime.clone(),
            straggler_rate: profile.straggler_rate,
            phase_len: if profile.phases > 1 {
                (profile.total_allocs / profile.phases as u64).max(1)
            } else {
                u64::MAX
            },
            phase_frac: profile.phase_frac,
            phase_objects: Vec::new(),
            next_id: 0,
            deaths: Vec::new(),
            next: Vec::new(),
            late: Vec::new(),
            permanents: Vec::new(),
            pending: std::collections::VecDeque::new(),
            teardown: false,
        }
    }

    fn schedule_step(&mut self) {
        if self.teardown {
            return;
        }
        // Phase boundary: the phase's working set collapses in bulk
        // (gcc-style), before anything else happens at this event index.
        if self.phase_len != u64::MAX
            && self.next_id > 0
            && self.next_id.is_multiple_of(self.phase_len)
            && !self.phase_objects.is_empty()
        {
            // Teardown is fast but not instantaneous: destructor work
            // interleaves with the frees, so the quarantine build-up is
            // visible to RSS sampling and overlaps real sweep time.
            for (i, id) in std::mem::take(&mut self.phase_objects).into_iter().enumerate()
            {
                if i % 8 == 0 {
                    self.pending.push_back(Op::Work(self.cycles_per_alloc / 4 + 1));
                }
                self.pending.push_back(Op::Free { id });
            }
        }
        // Frees that are due strictly before the next allocation event.
        // Every earlier index was walked by its own step, so this list is
        // all of them, and it is in id order: ids are appended as they
        // are allocated.
        let due = usize::try_from(self.next_id).ok().and_then(|at| self.deaths.get(at));
        let mut link = due.map_or(NIL, |&(head, _)| head);
        while link != NIL {
            self.pending.push_back(Op::Free { id: u64::from(link) });
            link = self.next[link as usize];
        }
        if self.next_id >= self.total_allocs {
            self.teardown = true;
            self.pending.push_back(Op::Teardown);
            // Drain the late frees in due order, then phase objects, then
            // permanents.
            let mut late = std::mem::take(&mut self.late);
            late.sort_unstable();
            for (_, id) in late {
                self.pending.push_back(Op::Free { id });
            }
            for id in std::mem::take(&mut self.phase_objects) {
                self.pending.push_back(Op::Free { id });
            }
            for id in std::mem::take(&mut self.permanents) {
                self.pending.push_back(Op::Free { id });
            }
            return;
        }
        // Mutator work, then the allocation itself.
        let mean = self.cycles_per_alloc.max(1);
        let work = self.rng.range(mean / 2 + 1, mean * 3 / 2 + 2);
        self.pending.push_back(Op::Work(work));
        let id = self.next_id;
        let size = self.size_dist.sample(&mut self.rng);
        // Classify before queueing the alloc so its site id can carry the
        // lifetime class (rng call order is unchanged: size → straggler
        // chance → phase chance → lifetime sample, with the same
        // short-circuits — streams stay identical to pre-site traces).
        // Small stragglers become permanent regardless of the lifetime
        // distribution (see Profile::straggler_rate).
        let straggler = size <= 512 && self.rng.chance(self.straggler_rate);
        let class = if !straggler && self.rng.chance(self.phase_frac) {
            self.phase_objects.push(id);
            1 // phase-bound
        } else {
            match if straggler { None } else { self.lifetime.sample(&mut self.rng) } {
                Some(life) => {
                    self.schedule_death((self.next_id + 1).saturating_add(life), id);
                    0 // short-lived
                }
                None => {
                    self.permanents.push(id);
                    if straggler {
                        3
                    } else {
                        2 // permanent
                    }
                }
            }
        };
        self.pending.push_back(Op::Alloc { id, size, site: site_id(class, size) });
        self.next_id += 1;
    }

    /// Appends `id` to the death list of event index `when`, or to `late`
    /// when that is past the last step that walks a list.
    fn schedule_death(&mut self, when: u64, id: u64) {
        if when > self.total_allocs {
            self.late.push((when, id));
            return;
        }
        let link = u32::try_from(id)
            .ok()
            .filter(|&l| l != NIL)
            .expect("death-list links are u32: at most 2^32 - 1 scheduled ids");
        // Both arrays stop at one entry per allocation event (plus the
        // teardown step's list), however far a lifetime reaches.
        let limit = usize::try_from(self.total_allocs).map_or(usize::MAX, |n| n.saturating_add(1));
        let at = usize::try_from(when).expect("a due index up to total_allocs fits in usize");
        grow(&mut self.deaths, at, limit, (NIL, NIL));
        grow(&mut self.next, link as usize, limit, NIL);
        let list = &mut self.deaths[at];
        if list.0 == NIL {
            list.0 = link;
        } else {
            self.next[list.1 as usize] = link;
        }
        list.1 = link;
    }
}

/// End of a death list, or an event index where nothing dies.
const NIL: u32 = u32::MAX;

/// Extends `v` with `fill` so that index `at` exists. Capacity doubles as
/// usual but never past `limit` entries, so a schedule sized by the
/// profile's event count does not overshoot it.
fn grow<T: Copy>(v: &mut Vec<T>, at: usize, limit: usize, fill: T) {
    if at < v.len() {
        return;
    }
    if at >= v.capacity() {
        let want = v.capacity().saturating_mul(2).max(64).min(limit).max(at + 1);
        v.reserve_exact(want - v.len());
    }
    v.resize(at + 1, fill);
}

/// Derives a synthetic allocation-site id from a lifetime class and a
/// size: `class * 16 + log2-size-bucket` (bucket capped at 15). Distinct
/// enough that forensics attribution is meaningful, small enough that
/// per-site tables stay readable.
fn site_id(class: u32, size: u64) -> u32 {
    let bucket = (64 - size.max(1).leading_zeros()).min(15);
    class * 16 + bucket
}

impl Iterator for TraceGen {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        if self.pending.is_empty() {
            self.schedule_step();
        }
        self.pending.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{LifetimeDist, SizeDist};
    use std::collections::{HashMap, HashSet};

    fn tiny_profile() -> Profile {
        Profile {
            total_allocs: 500,
            size_dist: SizeDist::Uniform(16, 256),
            lifetime: LifetimeDist::Mixture(vec![
                (0.8, LifetimeDist::Exp(20.0)),
                (0.2, LifetimeDist::Permanent),
            ]),
            ..Profile::demo()
        }
    }

    #[test]
    fn every_alloc_is_freed_exactly_once() {
        let mut allocated = HashSet::new();
        let mut freed = HashSet::new();
        for op in TraceGen::new(&tiny_profile(), 9) {
            match op {
                Op::Alloc { id, .. } => assert!(allocated.insert(id), "dup alloc {id}"),
                Op::Free { id } => {
                    assert!(allocated.contains(&id), "free before alloc");
                    assert!(freed.insert(id), "double free in trace");
                }
                Op::Work(_) | Op::Teardown => {}
            }
        }
        assert_eq!(allocated.len(), 500);
        assert_eq!(freed, allocated, "teardown drains everything");
    }

    #[test]
    fn frees_never_precede_allocations() {
        let mut live = HashSet::new();
        for op in TraceGen::new(&tiny_profile(), 10) {
            match op {
                Op::Alloc { id, .. } => {
                    live.insert(id);
                }
                Op::Free { id } => {
                    assert!(live.remove(&id));
                }
                Op::Work(_) | Op::Teardown => {}
            }
        }
        assert!(live.is_empty());
    }

    #[test]
    fn stream_is_deterministic() {
        let a: Vec<Op> = TraceGen::new(&tiny_profile(), 7).collect();
        let b: Vec<Op> = TraceGen::new(&tiny_profile(), 7).collect();
        assert_eq!(a, b);
        let c: Vec<Op> = TraceGen::new(&tiny_profile(), 8).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn work_precedes_each_alloc() {
        let ops: Vec<Op> = TraceGen::new(&tiny_profile(), 11).collect();
        for w in ops.windows(2) {
            if let Op::Alloc { .. } = w[1] {
                assert!(matches!(w[0], Op::Work(_)), "alloc without preceding work");
            }
        }
    }

    #[test]
    fn site_ids_encode_lifetime_class_and_size_bucket() {
        // tiny_profile has no phases or stragglers: every site is class 0
        // (short-lived) or class 2 (permanent), with a log2 size bucket
        // consistent with the op's own size.
        let mut classes = HashSet::new();
        for op in TraceGen::new(&tiny_profile(), 13) {
            if let Op::Alloc { size, site, .. } = op {
                let class = site / 16;
                let bucket = site % 16;
                assert!(class == 0 || class == 2, "unexpected class {class}");
                assert_eq!(bucket, (64 - size.max(1).leading_zeros()).min(15));
                classes.insert(class);
            }
        }
        assert_eq!(classes.len(), 2, "both lifetime classes appear");
    }

    #[test]
    fn phase_boundaries_free_in_bulk() {
        let p = Profile {
            total_allocs: 1_000,
            phases: 4,
            phase_frac: 0.5,
            lifetime: LifetimeDist::Exp(10.0),
            ..Profile::demo()
        };
        // Count the largest burst of consecutive frees (no intervening
        // alloc): phase collapses must dwarf ordinary churn.
        let mut burst = 0u32;
        let mut max_burst = 0u32;
        let mut frees = 0u32;
        for op in TraceGen::new(&p, 3) {
            match op {
                Op::Free { .. } => {
                    burst += 1;
                    frees += 1;
                    max_burst = max_burst.max(burst);
                }
                Op::Alloc { .. } => burst = 0,
                _ => {}
            }
        }
        assert_eq!(frees, 1_000, "everything still freed exactly once");
        assert!(max_burst >= 80, "phase collapse burst was only {max_burst}");
    }

    #[test]
    fn zero_lifetime_frees_each_object_before_the_next_alloc() {
        let p = Profile {
            total_allocs: 200,
            size_dist: SizeDist::Fixed(64),
            lifetime: LifetimeDist::Fixed(0),
            ..Profile::demo()
        };
        let ops: Vec<Op> = TraceGen::new(&p, 4).collect();
        // Work, Alloc i, Free i per event; the last free precedes Teardown.
        assert_eq!(ops.len(), 3 * 200 + 1);
        for (i, step) in ops.chunks(3).take(200).enumerate() {
            let id = i as u64;
            assert!(matches!(step[0], Op::Work(_)), "step {i}: {step:?}");
            assert!(matches!(step[1], Op::Alloc { id: a, .. } if a == id), "step {i}: {step:?}");
            assert_eq!(step[2], Op::Free { id }, "step {i}");
        }
        assert_eq!(ops[600], Op::Teardown);
    }

    /// Ids of the `Free` ops in `ops`, in order.
    fn freed(ops: &[Op]) -> Vec<u64> {
        ops.iter()
            .filter_map(|op| if let Op::Free { id } = op { Some(*id) } else { None })
            .collect()
    }

    #[test]
    fn late_deaths_drain_in_due_order_then_phase_objects_then_permanents() {
        let p = Profile {
            // 16 phases of 18 events: the last 12 events start a phase
            // that never collapses, so its objects wait for teardown.
            total_allocs: 300,
            phases: 16,
            phase_frac: 0.5,
            straggler_rate: 0.1,
            size_dist: SizeDist::Uniform(16, 1024),
            lifetime: LifetimeDist::Mixture(vec![
                (0.4, LifetimeDist::Exp(30.0)),
                (0.4, LifetimeDist::Exp(5_000.0)),
                (0.2, LifetimeDist::Permanent),
            ]),
            ..Profile::demo()
        };
        let mut g = TraceGen::new(&p, 21);
        let mut ops = Vec::new();
        let mut class = HashMap::new();
        while g.next_id < p.total_allocs || !g.pending.is_empty() {
            let op = g.next().expect("the run is not over");
            if let Op::Alloc { id, site, .. } = op {
                class.insert(id, site / 16);
            }
            ops.push(op);
        }
        // The next step is the teardown step; its own list (index
        // `total_allocs`) comes out before Teardown, the rest after.
        let mut late = g.late.clone();
        late.sort_unstable();
        let late: Vec<u64> = late.iter().map(|&(_, id)| id).collect();
        let phase = g.phase_objects.clone();
        let permanent = g.permanents.clone();
        let rest: Vec<Op> = g.collect();
        let at = rest.iter().position(|op| *op == Op::Teardown).expect("one Teardown");
        let after = freed(&rest[at + 1..]);
        let expected: Vec<u64> = late.iter().chain(&phase).chain(&permanent).copied().collect();
        assert_eq!(after, expected);
        // The shape is the one the test means: late deaths out of id order,
        // some phase objects left over, and both permanent classes.
        assert!(late.len() > 10 && late.windows(2).any(|w| w[0] > w[1]), "late {late:?}");
        assert!(!phase.is_empty() && phase.iter().all(|id| class[id] == 1));
        assert!(permanent.iter().all(|id| class[id] == 2 || class[id] == 3));
        assert!(
            permanent.iter().any(|id| class[id] == 2) && permanent.iter().any(|id| class[id] == 3)
        );
        // Everything allocated is freed exactly once.
        let mut all = freed(&ops);
        all.extend(freed(&rest));
        all.sort_unstable();
        assert_eq!(all, (0..p.total_allocs).collect::<Vec<_>>());
    }

    #[test]
    fn deaths_due_at_one_step_come_out_in_id_order() {
        // No phases: every run of frees between two allocs is one step's
        // death list.
        let p = Profile { lifetime: LifetimeDist::Exp(3.0), ..tiny_profile() };
        let ops: Vec<Op> = TraceGen::new(&p, 14).collect();
        let end = ops.iter().position(|op| *op == Op::Teardown).unwrap();
        let mut shared = 0;
        for step in ops[..end].split(|op| matches!(op, Op::Alloc { .. })) {
            let ids = freed(step);
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "{ids:?}");
            shared += usize::from(ids.len() > 1);
        }
        assert!(shared >= 20, "only {shared} steps freed more than one object");
    }

    #[test]
    fn phase_frees_come_before_due_deaths_in_the_same_step() {
        let p = Profile {
            total_allocs: 800,
            phases: 8,
            phase_frac: 0.5,
            size_dist: SizeDist::Fixed(64),
            lifetime: LifetimeDist::Fixed(0),
            ..Profile::demo()
        };
        let ops: Vec<Op> = TraceGen::new(&p, 5).collect();
        let mut phase_ids = Vec::new();
        let mut both = 0;
        for (i, op) in ops.iter().enumerate() {
            let Op::Alloc { id, site, .. } = *op else { continue };
            if id > 0 && id % 100 == 0 {
                // The frees between the previous alloc and this one.
                let prev = ops[..i].iter().rposition(|o| matches!(o, Op::Alloc { .. })).unwrap();
                let frees = freed(&ops[prev..i]);
                let mut expected = std::mem::take(&mut phase_ids);
                if let Op::Alloc { id: last, site: s, .. } = ops[prev] {
                    if s / 16 == 0 {
                        both += usize::from(!expected.is_empty());
                        expected.push(last);
                    }
                }
                assert_eq!(frees, expected, "step {id}");
            }
            if site / 16 == 1 {
                phase_ids.push(id);
            }
        }
        assert!(both >= 3, "only {both} steps had a phase collapse and a due death");
    }

    #[test]
    fn schedule_holds_at_most_one_entry_per_allocation_event() {
        // A long tail reaches past the last event, so the per-event array
        // fills up to `total_allocs` and doubling alone would overshoot it.
        let p = Profile {
            total_allocs: 20_000,
            lifetime: LifetimeDist::Exp(5_000.0),
            ..tiny_profile()
        };
        let mut g = TraceGen::new(&p, 15);
        g.by_ref().take_while(|op| *op != Op::Teardown).for_each(drop);
        assert!(g.deaths.len() > 16_384, "past the last power of two below 20,000");
        assert!(g.deaths.capacity() <= 20_001, "deaths capacity {}", g.deaths.capacity());
        assert!(g.next.capacity() <= 20_001, "next capacity {}", g.next.capacity());
    }

    #[test]
    fn a_lifetime_past_u64_max_dies_at_teardown() {
        let p = Profile {
            total_allocs: 50,
            lifetime: LifetimeDist::Fixed(u64::MAX),
            ..Profile::demo()
        };
        let ops: Vec<Op> = TraceGen::new(&p, 8).collect();
        let at = ops.iter().position(|op| *op == Op::Teardown).unwrap();
        assert!(freed(&ops[..at]).is_empty());
        assert_eq!(freed(&ops[at..]), (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn unbounded_profile_streams_without_sizing_from_total_allocs() {
        let p = Profile { total_allocs: u64::MAX, ..tiny_profile() };
        let mut g = TraceGen::new(&p, 6);
        let ops: Vec<Op> = g.by_ref().take(10_000).collect();
        assert!(freed(&ops).len() > 2_000);
        // About 3,300 allocation events: the schedule holds that many
        // entries plus the lifetime horizon, not `total_allocs` of them.
        assert!(g.deaths.capacity() < 8_192, "deaths capacity {}", g.deaths.capacity());
        assert!(g.next.capacity() < 8_192, "next capacity {}", g.next.capacity());
        assert!(g.late.is_empty());
    }

    #[test]
    fn live_set_tracks_littles_law_roughly() {
        // 500 allocs, mean life 20 events, ~80% short-lived: mid-run live
        // count should hover near 0.8*20 + permanents-so-far.
        let mut live: i64 = 0;
        let mut max_live: i64 = 0;
        let mut allocs = 0;
        for op in TraceGen::new(&tiny_profile(), 12) {
            match op {
                Op::Alloc { .. } => {
                    live += 1;
                    allocs += 1;
                    max_live = max_live.max(live);
                }
                Op::Free { .. } => live -= 1,
                Op::Work(_) | Op::Teardown => {}
            }
            if allocs == 250 {
                // ~20% of 250 permanents + ~16 short-lived in flight.
                assert!((30..150).contains(&live), "mid-run live {live}");
            }
        }
        assert!(max_live >= 50);
    }
}
