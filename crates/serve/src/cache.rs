//! The LRU solution cache.
//!
//! Keyed by the *canonical* instance hash (see
//! `shop::instance::hash`) plus objective and seed, so repeated traffic
//! for the same problem — however the instance text was formatted, and
//! whether it arrived inline or as a named classic — is answered in
//! microseconds with a bit-identical solution. The deadline is not part
//! of the key; instead each entry records the wall-clock budget of the
//! race that produced it and whether that race was *deadline-bound*
//! (cut short by the clock with the target uncertified). A replay fully
//! honours a request only when the stored race was not deadline-limited
//! or the request's budget is no larger than the one already spent —
//! see [`CachedSolve::replayable_for`]; otherwise the server re-races
//! under the larger budget and keeps the better solution, so a
//! short-deadline solve is never silently replayed to answer a
//! long-deadline request — with one last-resort exception: when the
//! re-race itself produces an internally invalid schedule, the server
//! degrades to replaying the stored entry rather than failing the
//! request (the anomaly is recorded in the `errors` counter).
//!
//! Budgets are **wall-clock claims, not CPU claims**: a race that ran
//! while other requests (or other items of the same batch) shared the
//! machine records the wall-clock it was allotted, even though it got
//! a fraction of the cores. Replay equivalence is therefore
//! "same wall-clock budget under comparable load", the same contract
//! concurrent single-connection solves have always had; a service
//! needing CPU-fair budgets should bound concurrency via
//! `ServeConfig::workers` and size `ServeConfig::racer_pool` to the
//! hardware (the admission limit `max_queue_depth` then sheds the
//! excess as `busy` instead of letting races starve each other).
//!
//! A hit costs a lookup and a copy. `SpecMemo` maps a request's
//! instance spec (a name, or a family plus the exact inline text) to
//! its canonical hash, so a repeated request finds its [`CacheKey`]
//! without building the instance; it compares whole specs, stores
//! only specs that loaded, and holds at most `cache_capacity` specs
//! and `SPEC_MEMO_BYTES` (4 MiB) of text. Each entry keeps its
//! schedule's encoded wire array once its first hit has built it
//! (lazily, because most entries of a cold stream are never hit), and
//! replies splice it in as [`crate::json::Json::Raw`].

use crate::protocol::{InstanceSpec, Objective, Solution};
use std::collections::HashMap;
use std::sync::Arc;

/// What uniquely identifies a solve, for caching purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// `CanonicalHash::canonical_hash` of the parsed instance.
    pub instance: u64,
    /// The objective the solve minimised.
    pub objective: Objective,
    /// The portfolio root seed the solve used.
    pub seed: u64,
}

/// A memoised solve: the solution plus the budget it was found under,
/// so the server can tell when a replay would short-change a request
/// with a larger deadline. The solution sits behind an `Arc` so hits
/// and merges copy a pointer, not a whole schedule, while the shared
/// cache mutex is held.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedSolve {
    /// The memoised solution (shared, so replays copy a pointer).
    pub solution: Arc<Solution>,
    /// Effective wall-clock budget (ms) of the race that produced — or
    /// last re-confirmed — `solution`.
    pub budget_ms: u64,
    /// Whether that race was cut short by its deadline (see
    /// `portfolio::RaceResult::deadline_bound`). False means the result
    /// is budget-independent (cap-bound or target-certified) and
    /// replayable for any deadline.
    pub deadline_bound: bool,
}

impl CachedSolve {
    /// Whether replaying this entry fully honours a request with the
    /// given effective deadline: either the stored race was not
    /// deadline-limited (more time would not have helped), or the new
    /// request's budget is no larger than the one already spent.
    pub fn replayable_for(&self, deadline_ms: u64) -> bool {
        !self.deadline_bound || deadline_ms <= self.budget_ms
    }
}

struct Entry {
    stamp: u64,
    solve: CachedSolve,
    /// `solve.solution`'s schedule encoded as its wire array, once a
    /// hit has built it (see [`SolutionCache::keep_schedule`]); dropped
    /// whenever the entry's solution changes.
    schedule: Option<Arc<str>>,
}

impl Entry {
    fn new(stamp: u64, solve: CachedSolve) -> Entry {
        Entry {
            stamp,
            solve,
            schedule: None,
        }
    }
}

/// A cache lookup: the entry, and its encoded `"schedule"` array when
/// an earlier hit has already built it.
pub(crate) type Lookup = (CachedSolve, Option<Arc<str>>);

/// A fixed-capacity least-recently-used map from [`CacheKey`] to the
/// memoised [`CachedSolve`]. Recency is tracked with a monotonic stamp;
/// eviction scans for the minimum, which is O(capacity) but the
/// capacity is small (hundreds) and eviction is off the cache-hit fast
/// path.
///
/// ```
/// use serve::cache::{CacheKey, CachedSolve, SolutionCache};
/// use serve::protocol::{Objective, Solution};
/// use std::sync::Arc;
///
/// let mut cache = SolutionCache::new(2);
/// let key = |instance| CacheKey { instance, objective: Objective::Makespan, seed: 42 };
/// let entry = |makespan: u64| CachedSolve {
///     solution: Arc::new(Solution {
///         objective: Objective::Makespan,
///         value: makespan as f64,
///         makespan,
///         model: "island".into(),
///         schedule: vec![],
///     }),
///     budget_ms: 1_000,
///     deadline_bound: false, // cap-bound: replayable for any deadline
/// };
/// cache.insert_best(key(1), entry(55));
/// cache.insert_best(key(2), entry(60));
/// assert_eq!(cache.get(&key(1)).unwrap().solution.makespan, 55);
/// // Over capacity: the least-recently-used entry (key 2) is evicted.
/// cache.insert_best(key(3), entry(70));
/// assert!(cache.get(&key(2)).is_none());
/// assert_eq!(cache.len(), 2);
/// ```
pub struct SolutionCache {
    map: HashMap<CacheKey, Entry>,
    capacity: usize,
    clock: u64,
}

impl std::fmt::Debug for SolutionCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolutionCache")
            .field("len", &self.map.len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl SolutionCache {
    /// An empty cache holding at most `capacity` entries (>= 1).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "cache capacity must be at least 1");
        SolutionCache {
            map: HashMap::with_capacity(capacity + 1),
            capacity,
            clock: 0,
        }
    }

    /// Entries currently memoised.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entry.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up and touches (marks most-recently-used) an entry.
    pub fn get(&mut self, key: &CacheKey) -> Option<CachedSolve> {
        self.lookup(key).map(|(solve, _)| solve)
    }

    /// [`SolutionCache::get`], plus the entry's stored encoded schedule
    /// when it has one.
    pub(crate) fn lookup(&mut self, key: &CacheKey) -> Option<Lookup> {
        self.clock += 1;
        let clock = self.clock;
        self.map.get_mut(key).map(|e| {
            e.stamp = clock;
            (e.solve.clone(), e.schedule.clone())
        })
    }

    /// Stores `schedule`, the encoded wire array of `solution`'s
    /// schedule, in `key`'s entry — only while that entry still holds
    /// this very `solution` (`Arc::ptr_eq`), so a fragment built outside
    /// the lock can never be attached to a solution that replaced it in
    /// the meantime. Touches nothing else, recency included.
    pub(crate) fn keep_schedule(
        &mut self,
        key: &CacheKey,
        solution: &Arc<Solution>,
        schedule: Arc<str>,
    ) {
        if let Some(e) = self.map.get_mut(key) {
            if Arc::ptr_eq(&e.solve.solution, solution) {
                e.schedule = Some(schedule);
            }
        }
    }

    /// Inserts `solve`, merging with any entry already present so that
    /// concurrent solves of the same key can never downgrade it: the
    /// better (lower-value) solution wins — ties keep the stored one,
    /// so already-published schedules stay stable — the budget grows to
    /// the largest race spent on the key, and `deadline_bound` is ANDed
    /// (budget-independence is permanent once any race proves it:
    /// trajectories are seed-deterministic, so a clock-cut race is a
    /// prefix of the cap-bound one and can never beat it). Returns the
    /// merged entry, which is what the caller should answer with. This
    /// is the whole-entry compare-and-keep the server needs under its
    /// cache lock: merging against a pre-solve snapshot instead would
    /// let a slow short-deadline solve overwrite a better long-deadline
    /// entry that landed mid-flight.
    pub fn insert_best(&mut self, key: CacheKey, solve: CachedSolve) -> CachedSolve {
        self.clock += 1;
        let stamp = self.clock;
        if let Some(e) = self.map.get_mut(&key) {
            e.stamp = stamp;
            let cur = &mut e.solve;
            cur.deadline_bound = cur.deadline_bound && solve.deadline_bound;
            cur.budget_ms = cur.budget_ms.max(solve.budget_ms);
            if solve.solution.value < cur.solution.value {
                cur.solution = solve.solution;
                e.schedule = None;
            }
            return cur.clone();
        }
        self.map.insert(key, Entry::new(stamp, solve.clone()));
        self.evict_lru_if_over_capacity();
        solve
    }

    fn evict_lru_if_over_capacity(&mut self) {
        if self.map.len() > self.capacity {
            if let Some(&lru) = self.map.iter().min_by_key(|(_, e)| e.stamp).map(|(k, _)| k) {
                self.map.remove(&lru);
            }
        }
    }
}

/// A [`SolutionCache`] split into independently locked shards, selected
/// by a prefix of the canonical instance hash. One global cache mutex
/// would serialise every hit, miss-bookkeeping and merge through a
/// single lock — measurable once the racer pool lets many requests
/// make progress concurrently. Sharding keeps the `insert_best` merge
/// semantics intact (a key always maps to the same shard, so
/// concurrent solves of the same key still reconcile under one lock)
/// while requests for *different* instances proceed in parallel.
///
/// Recency and eviction are **per shard**: the configured capacity is
/// split evenly (ceiling division), and each shard runs its own LRU.
/// A workload that hammers one shard can therefore evict earlier than
/// a global LRU would — the classic sharding trade-off; configure one
/// shard (`ServeConfig::cache_shards = 1`) to recover exact global LRU
/// order.
pub struct ShardedCache {
    shards: Vec<std::sync::Mutex<SolutionCache>>,
}

impl std::fmt::Debug for ShardedCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCache")
            .field("shards", &self.shards.len())
            .field("len", &self.len())
            .finish()
    }
}

impl ShardedCache {
    /// A cache of `capacity` total entries split over `shards`
    /// independently locked LRU shards (both >= 1).
    pub fn new(capacity: usize, shards: usize) -> Self {
        assert!(shards >= 1, "need at least one cache shard");
        assert!(capacity >= 1, "cache capacity must be at least 1");
        let per_shard = capacity.div_ceil(shards);
        ShardedCache {
            shards: (0..shards)
                .map(|_| std::sync::Mutex::new(SolutionCache::new(per_shard)))
                .collect(),
        }
    }

    fn shard_of(&self, key: &CacheKey) -> &std::sync::Mutex<SolutionCache> {
        // Top byte of the canonical instance hash: FNV-1a mixes well,
        // and keying the shard on the *instance* keeps every
        // (objective, seed) variant of one instance behind one lock —
        // which is also the lock the same-key merge contract needs.
        let idx = (key.instance >> 56) as usize % self.shards.len();
        &self.shards[idx]
    }

    /// Looks up and touches an entry in its shard.
    pub fn get(&self, key: &CacheKey) -> Option<CachedSolve> {
        self.shard_of(key).lock().expect("cache poisoned").get(key)
    }

    /// Looks up and touches an entry in its shard; see
    /// [`SolutionCache::lookup`].
    pub(crate) fn lookup(&self, key: &CacheKey) -> Option<Lookup> {
        self.shard_of(key)
            .lock()
            .expect("cache poisoned")
            .lookup(key)
    }

    /// Stores an encoded schedule in its shard; see
    /// [`SolutionCache::keep_schedule`].
    pub(crate) fn keep_schedule(
        &self,
        key: &CacheKey,
        solution: &Arc<Solution>,
        schedule: Arc<str>,
    ) {
        self.shard_of(key)
            .lock()
            .expect("cache poisoned")
            .keep_schedule(key, solution, schedule)
    }

    /// Same-key merge insert in the key's shard; see
    /// [`SolutionCache::insert_best`].
    pub fn insert_best(&self, key: CacheKey, solve: CachedSolve) -> CachedSolve {
        self.shard_of(&key)
            .lock()
            .expect("cache poisoned")
            .insert_best(key, solve)
    }

    /// Entries currently memoised, summed over shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache poisoned").len())
            .sum()
    }

    /// Whether every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Stored-text budget of a [`SpecMemo`]: the names and inline instance
/// texts it keeps add up to at most this many bytes. A 2000-operation
/// inline instance is ~20 KB of text, so the budget holds a couple of
/// hundred of them; a spec larger than the whole budget is not
/// memoised at all.
pub(crate) const SPEC_MEMO_BYTES: usize = 4 << 20;

/// A bounded LRU map from a request's [`InstanceSpec`] — a name, or a
/// family plus the exact inline text — to the canonical hash its
/// instance loaded to. With it a repeated request finds its
/// [`CacheKey`] without regenerating, parsing or hashing the instance.
///
/// Lookups compare whole specs (`HashMap` equality compares the full
/// text), never a hash of the text alone, so an inline text one byte
/// away from a memoised one misses and is loaded as its own instance.
/// Callers insert only specs that loaded successfully. Two bounds hold
/// at once: at most `capacity` entries (the server passes its
/// `cache_capacity`) and at most `budget` bytes of stored text
/// ([`SPEC_MEMO_BYTES`] in the server); the least-recently-used specs
/// go first.
pub(crate) struct SpecMemo {
    inner: std::sync::Mutex<MemoInner>,
}

struct MemoInner {
    /// Spec → (canonical hash, recency stamp). Specs arrive from the
    /// network, so the map keeps std's keyed hasher: a client cannot
    /// craft texts that collide into one bucket.
    map: HashMap<InstanceSpec, (u64, u64)>,
    capacity: usize,
    budget: usize,
    bytes: usize,
    clock: u64,
}

/// The text bytes a memoised spec keeps.
fn spec_bytes(spec: &InstanceSpec) -> usize {
    match spec {
        InstanceSpec::Named(name) => name.len(),
        InstanceSpec::Inline { text, .. } => text.len(),
    }
}

impl SpecMemo {
    /// An empty memo of at most `capacity` specs (>= 1) and `budget`
    /// bytes of stored text.
    pub(crate) fn new(capacity: usize, budget: usize) -> Self {
        assert!(capacity >= 1, "memo capacity must be at least 1");
        SpecMemo {
            inner: std::sync::Mutex::new(MemoInner {
                map: HashMap::new(),
                capacity,
                budget,
                bytes: 0,
                clock: 0,
            }),
        }
    }

    /// The canonical hash `spec` loaded to, if memoised (touches it).
    pub(crate) fn get(&self, spec: &InstanceSpec) -> Option<u64> {
        let mut m = self.inner.lock().expect("memo poisoned");
        m.clock += 1;
        let clock = m.clock;
        m.map.get_mut(spec).map(|(hash, stamp)| {
            *stamp = clock;
            *hash
        })
    }

    /// Memoises `spec` → `hash`, evicting least-recently-used specs
    /// until both bounds hold. A spec over the whole byte budget is
    /// skipped.
    pub(crate) fn insert(&self, spec: &InstanceSpec, hash: u64) {
        let size = spec_bytes(spec);
        let mut m = self.inner.lock().expect("memo poisoned");
        if size > m.budget {
            return;
        }
        m.clock += 1;
        let stamp = m.clock;
        match m.map.get_mut(spec) {
            Some(slot) => *slot = (hash, stamp),
            None => {
                m.map.insert(spec.clone(), (hash, stamp));
                m.bytes += size;
            }
        }
        let MemoInner {
            map,
            capacity,
            budget,
            bytes,
            ..
        } = &mut *m;
        while map.len() > *capacity || *bytes > *budget {
            let Some(oldest) = map.values().map(|&(_, stamp)| stamp).min() else {
                break;
            };
            // Stamps are unique, so this drops exactly the LRU spec.
            map.retain(|spec, &mut (_, stamp)| {
                if stamp == oldest {
                    *bytes -= spec_bytes(spec);
                }
                stamp != oldest
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> CacheKey {
        CacheKey {
            instance: i,
            objective: Objective::Makespan,
            seed: 42,
        }
    }

    fn solve(mk: u64) -> CachedSolve {
        CachedSolve {
            solution: Arc::new(Solution {
                objective: Objective::Makespan,
                value: mk as f64,
                makespan: mk,
                model: "island".into(),
                schedule: vec![],
            }),
            budget_ms: 1_000,
            deadline_bound: false,
        }
    }

    #[test]
    fn get_returns_inserted_solution() {
        let mut c = SolutionCache::new(4);
        assert!(c.get(&key(1)).is_none());
        c.insert_best(key(1), solve(55));
        assert_eq!(c.get(&key(1)).unwrap().solution.makespan, 55);
        // Different seed => different key.
        let other = CacheKey { seed: 43, ..key(1) };
        assert!(c.get(&other).is_none());
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = SolutionCache::new(2);
        c.insert_best(key(1), solve(1));
        c.insert_best(key(2), solve(2));
        // Touch 1 so 2 becomes the LRU.
        assert!(c.get(&key(1)).is_some());
        c.insert_best(key(3), solve(3));
        assert_eq!(c.len(), 2);
        assert!(c.get(&key(2)).is_none(), "LRU entry should be evicted");
        assert!(c.get(&key(1)).is_some());
        assert!(c.get(&key(3)).is_some());
    }

    #[test]
    fn replacing_does_not_grow() {
        let mut c = SolutionCache::new(2);
        c.insert_best(key(1), solve(10));
        c.insert_best(key(1), solve(1));
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&key(1)).unwrap().solution.makespan, 1);
    }

    #[test]
    fn batch_overflow_preserves_lru_order() {
        // A batch inserting more entries than capacity (via the same
        // insert_best path the server uses) must keep exactly the most
        // recently inserted entries, in recency order.
        let mut c = SolutionCache::new(3);
        for i in 0..8 {
            c.insert_best(key(i), solve(i));
        }
        assert_eq!(c.len(), 3);
        for evicted in 0..5 {
            assert!(c.get(&key(evicted)).is_none(), "entry {evicted}");
        }
        for survivor in 5..8 {
            assert!(c.get(&key(survivor)).is_some(), "entry {survivor}");
        }
        // Interleaved hits refresh recency: touch 5, insert two more —
        // 6 and 7 go, 5 stays.
        assert!(c.get(&key(5)).is_some());
        c.insert_best(key(8), solve(8));
        c.insert_best(key(9), solve(9));
        assert!(c.get(&key(5)).is_some(), "touched entry must survive");
        assert!(c.get(&key(6)).is_none());
        assert!(c.get(&key(7)).is_none());
    }

    #[test]
    fn insert_best_never_downgrades_a_concurrent_entry() {
        let mut c = SolutionCache::new(4);
        // A long-budget solve lands first...
        c.insert_best(
            key(1),
            CachedSolve {
                budget_ms: 400,
                deadline_bound: true,
                ..solve(55)
            },
        );
        // ...then a slower short-budget solve of the same key finishes
        // with a worse value: solution and metadata must survive.
        let merged = c.insert_best(
            key(1),
            CachedSolve {
                budget_ms: 60,
                deadline_bound: true,
                ..solve(60)
            },
        );
        assert_eq!(merged.solution.makespan, 55);
        assert_eq!(merged.budget_ms, 400);
        let e = c.get(&key(1)).unwrap();
        assert_eq!(e.solution.makespan, 55);
        assert_eq!(e.budget_ms, 400);
        assert!(e.deadline_bound);
    }

    #[test]
    fn insert_best_takes_a_strictly_better_solution_and_widens_budget() {
        let mut c = SolutionCache::new(4);
        c.insert_best(
            key(1),
            CachedSolve {
                budget_ms: 60,
                deadline_bound: true,
                ..solve(60)
            },
        );
        let merged = c.insert_best(
            key(1),
            CachedSolve {
                budget_ms: 400,
                deadline_bound: true,
                ..solve(55)
            },
        );
        assert_eq!(merged.solution.makespan, 55);
        assert_eq!(merged.budget_ms, 400);
        assert!(merged.deadline_bound);
        // One complete (cap-bound) race proves budget-independence.
        let merged = c.insert_best(
            key(1),
            CachedSolve {
                budget_ms: 400,
                deadline_bound: false,
                ..solve(55)
            },
        );
        assert!(!merged.deadline_bound);
        assert!(merged.replayable_for(u64::MAX));
        // ...and a later clock-cut solve at a larger budget cannot
        // un-prove it: the flag is ANDed, never overwritten.
        let merged = c.insert_best(
            key(1),
            CachedSolve {
                budget_ms: 800,
                deadline_bound: true,
                ..solve(57)
            },
        );
        assert!(!merged.deadline_bound, "budget-independence is permanent");
        assert_eq!(merged.budget_ms, 800);
        assert_eq!(merged.solution.makespan, 55);
        // Value ties keep the stored solution, so an already-published
        // schedule stays the cached answer.
        let tied = CachedSolve {
            budget_ms: 400,
            deadline_bound: false,
            solution: Arc::new(Solution {
                model: "master_slave".into(),
                ..(*solve(55).solution).clone()
            }),
        };
        let merged = c.insert_best(key(1), tied);
        assert_eq!(merged.solution.model, "island");
        // A fresh key inserts normally.
        let merged = c.insert_best(key(2), solve(7));
        assert_eq!(merged.solution.makespan, 7);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn sharded_cache_splits_capacity_and_preserves_per_key_semantics() {
        let c = ShardedCache::new(8, 4);
        assert_eq!(c.shards.len(), 4);
        assert!(c.is_empty());
        // Keys with different top bytes land in different shards; the
        // same key always lands in the same shard.
        let spread = |i: u64| CacheKey {
            instance: i << 56,
            objective: Objective::Makespan,
            seed: 42,
        };
        for i in 0..4 {
            c.insert_best(spread(i), solve(i));
        }
        assert_eq!(c.len(), 4);
        for i in 0..4 {
            assert_eq!(c.get(&spread(i)).unwrap().solution.makespan, i);
        }
        assert!(c.get(&spread(7)).is_none());
        // Merge semantics within a shard are SolutionCache's.
        let merged = c.insert_best(
            spread(0),
            CachedSolve {
                budget_ms: 2_000,
                ..solve(99)
            },
        );
        assert_eq!(merged.solution.makespan, 0, "worse value never downgrades");
        assert_eq!(merged.budget_ms, 2_000, "budget still widens");
    }

    /// The satellite contract: concurrent same-key inserts through the
    /// sharded front reconcile exactly like the single-lock cache —
    /// the best value wins, the budget is the max, `deadline_bound`
    /// is ANDed — because one key always resolves to one shard lock.
    #[test]
    fn sharded_insert_best_merges_under_concurrent_same_key_traffic() {
        let c = std::sync::Arc::new(ShardedCache::new(16, 8));
        let k = key(0xABCD_EF01_2345_6789);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let c = std::sync::Arc::clone(&c);
                s.spawn(move || {
                    for round in 0..50u64 {
                        let mk = 40 + ((t * 53 + round * 17) % 30);
                        c.insert_best(
                            k,
                            CachedSolve {
                                budget_ms: 100 + t,
                                deadline_bound: t != 3, // one thread proves completeness
                                ..solve(mk)
                            },
                        );
                    }
                });
            }
        });
        assert_eq!(c.len(), 1, "one key, one entry, whatever the interleaving");
        let merged = c.get(&k).unwrap();
        // 40 is the minimum any thread could produce (t=0, round=0).
        assert_eq!(merged.solution.makespan, 40);
        assert_eq!(merged.budget_ms, 107, "max budget over all inserts");
        assert!(!merged.deadline_bound, "one complete race proves the key");
    }

    #[test]
    fn encoded_schedule_is_kept_only_for_the_solution_it_encodes() {
        let mut c = SolutionCache::new(4);
        c.insert_best(key(1), solve(60));
        assert_eq!(
            c.lookup(&key(1)).unwrap().1,
            None,
            "built lazily, not on insert"
        );
        let held = c.get(&key(1)).unwrap().solution;
        // A fragment built for some other solution is refused.
        c.keep_schedule(&key(1), &solve(60).solution, "[[9]]".into());
        assert_eq!(c.lookup(&key(1)).unwrap().1, None);
        c.keep_schedule(&key(1), &held, "[]".into());
        assert_eq!(c.lookup(&key(1)).unwrap().1.as_deref(), Some("[]"));
        // A merge that keeps the solution keeps the fragment...
        c.insert_best(key(1), solve(70));
        assert_eq!(c.lookup(&key(1)).unwrap().1.as_deref(), Some("[]"));
        // ...one that replaces it drops the fragment with it.
        c.insert_best(key(1), solve(55));
        let (entry, schedule) = c.lookup(&key(1)).unwrap();
        assert_eq!(entry.solution.makespan, 55);
        assert_eq!(schedule, None);
        // A late store for the replaced solution stays refused.
        c.keep_schedule(&key(1), &held, "[]".into());
        assert_eq!(c.lookup(&key(1)).unwrap().1, None);
        // Through the sharded front too.
        let sharded = ShardedCache::new(4, 2);
        sharded.insert_best(key(2), solve(5));
        let sol = sharded.get(&key(2)).unwrap().solution;
        sharded.keep_schedule(&key(2), &sol, "[]".into());
        assert_eq!(sharded.lookup(&key(2)).unwrap().1.as_deref(), Some("[]"));
    }

    fn named(name: &str) -> InstanceSpec {
        InstanceSpec::Named(name.into())
    }

    fn memo_len(m: &SpecMemo) -> (usize, usize) {
        let inner = m.inner.lock().unwrap();
        (inner.map.len(), inner.bytes)
    }

    #[test]
    fn spec_memo_keeps_at_most_capacity_specs() {
        let m = SpecMemo::new(2, SPEC_MEMO_BYTES);
        m.insert(&named("a"), 1);
        m.insert(&named("b"), 2);
        assert_eq!(m.get(&named("a")), Some(1)); // touch: b is now the LRU
        m.insert(&named("c"), 3);
        assert_eq!(memo_len(&m), (2, 2));
        assert_eq!(m.get(&named("b")), None);
        assert_eq!(m.get(&named("a")), Some(1));
        assert_eq!(m.get(&named("c")), Some(3));
        // Re-inserting a memoised spec neither grows nor double-counts.
        m.insert(&named("c"), 3);
        assert_eq!(memo_len(&m), (2, 2));
    }

    #[test]
    fn spec_memo_keeps_at_most_its_byte_budget() {
        let inline = |text: &str| InstanceSpec::Inline {
            family: shop::gen::Family::Job,
            text: text.into(),
        };
        let m = SpecMemo::new(16, 10);
        m.insert(&inline("1 1\n0 5"), 7); // 7 bytes
        m.insert(&named("ft06"), 8); // 4 bytes: 11 > 10, the text goes
        assert_eq!(m.get(&inline("1 1\n0 5")), None);
        assert_eq!(m.get(&named("ft06")), Some(8));
        assert_eq!(memo_len(&m), (1, 4));
        // A spec larger than the whole budget is not memoised and
        // evicts nothing.
        m.insert(&inline("1 1\n0 50000"), 9);
        assert_eq!(m.get(&inline("1 1\n0 50000")), None);
        assert_eq!(memo_len(&m), (1, 4));
        // Lookups compare whole texts: one byte away is a miss.
        m.insert(&inline("1 1\n0 6"), 10);
        assert_eq!(m.get(&inline("1 1\n0 6")), Some(10));
        assert_eq!(m.get(&inline("1 1\n0 7")), None);
        assert_eq!(
            m.get(&InstanceSpec::Inline {
                family: shop::gen::Family::Flow,
                text: "1 1\n0 6".into(),
            }),
            None,
            "same text, other family"
        );
    }

    #[test]
    fn replayable_only_within_the_stored_budget_when_deadline_bound() {
        let complete = solve(55); // deadline_bound: false
        assert!(complete.replayable_for(1));
        assert!(complete.replayable_for(u64::MAX));
        let bound = CachedSolve {
            deadline_bound: true,
            ..solve(60)
        };
        assert!(bound.replayable_for(500), "smaller budget: replay");
        assert!(bound.replayable_for(1_000), "equal budget: replay");
        assert!(
            !bound.replayable_for(1_001),
            "larger budget could improve a deadline-bound result"
        );
    }
}
