//! The sharded plan cache.
//!
//! Prepared statements ([`crate::prepared::PreparedQuery`]) are keyed by
//! the triple the paper's front-end is deterministic in: the *canonical
//! query text* (parse-normalised rendering, so formatting differences
//! share an entry), a *schema fingerprint + version* (a schema change
//! must never serve a stale plan — bumping the service's schema version
//! invalidates every entry), and the *backend/options signature*
//! (backend, approach, rewrite switches — each combination plans
//! differently).
//!
//! The cache is split into shards, each an independently locked LRU, so
//! concurrent sessions hitting different statements rarely contend on
//! the same mutex. Hits, misses, evictions and invalidations are
//! counted for the metrics registry.

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use sgq_common::FxHasher;
use sgq_core::pipeline::RewriteOptions;
use sgq_graph::GraphSchema;

use crate::prepared::{Approach, Backend, PreparedQuery};

/// How a query's prepared statement was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the plan cache: the front-end did not run.
    Hit,
    /// Prepared now and inserted into the cache.
    Miss,
    /// Prepared now with caching disabled for the call.
    Bypass,
}

impl std::fmt::Display for CacheOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheOutcome::Hit => write!(f, "hit"),
            CacheOutcome::Miss => write!(f, "miss"),
            CacheOutcome::Bypass => write!(f, "bypass"),
        }
    }
}

/// A fully-resolved cache key. Equality compares the key text (the hash
/// only routes to a shard and pre-filters).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKey {
    hash: u64,
    text: String,
}

impl CacheKey {
    /// Builds the key from its components.
    ///
    /// `schema_fingerprint` is the structural hash of the schema
    /// ([`schema_fingerprint`]); `schema_version` is the service's
    /// monotone version counter, so an in-place schema change (same
    /// structure, new data semantics) can still invalidate.
    pub fn new(
        canonical_query: &str,
        schema_fingerprint: u64,
        schema_version: u64,
        backend: Backend,
        approach: Approach,
        rewrite: &RewriteOptions,
    ) -> Self {
        let text = format!(
            "{canonical_query}\u{1f}{schema_fingerprint:016x}\u{1f}{schema_version}\u{1f}{backend}\u{1f}{approach}\u{1f}{}",
            rewrite_signature(rewrite)
        );
        let mut h = FxHasher::default();
        text.hash(&mut h);
        CacheKey {
            hash: h.finish(),
            text,
        }
    }
}

/// The options that change what `prepare` produces, folded into the key.
fn rewrite_signature(o: &RewriteOptions) -> String {
    format!(
        "s{}t{}a{}r{:?}T{}P{}D{}",
        o.simplify as u8,
        o.tc_elimination as u8,
        o.annotations as u8,
        o.redundancy,
        o.max_triples,
        o.max_paths,
        o.max_disjuncts
    )
}

/// A structural fingerprint of a schema: label vocabularies plus the
/// basic-triple set. Two schemas with the same fingerprint produce the
/// same rewrites and plans.
pub fn schema_fingerprint(schema: &GraphSchema) -> u64 {
    let mut h = FxHasher::default();
    for l in schema.node_labels() {
        schema.node_label_name(l).hash(&mut h);
    }
    0xffu8.hash(&mut h);
    for le in schema.edge_labels() {
        schema.edge_label_name(le).hash(&mut h);
    }
    0xffu8.hash(&mut h);
    for t in schema.triples() {
        t.src.raw().hash(&mut h);
        t.label.raw().hash(&mut h);
        t.tgt.raw().hash(&mut h);
    }
    h.finish()
}

struct Entry {
    key: CacheKey,
    value: Arc<PreparedQuery>,
    last_used: u64,
}

/// One shard: an independently locked LRU over a handful of entries.
/// Lookups and the eviction scan are linear — per-shard capacity is
/// small by construction (total capacity / shard count), so a scan beats
/// the constant factors of a linked LRU at this size.
struct Shard {
    entries: Vec<Entry>,
    tick: u64,
}

impl Shard {
    fn touch(&mut self, idx: usize) -> Arc<PreparedQuery> {
        self.tick += 1;
        self.entries[idx].last_used = self.tick;
        Arc::clone(&self.entries[idx].value)
    }

    fn find(&self, key: &CacheKey) -> Option<usize> {
        self.entries
            .iter()
            .position(|e| e.key.hash == key.hash && e.key.text == key.text)
    }
}

/// A sharded LRU of prepared statements.
pub struct PlanCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("shards", &self.shards.len())
            .field("per_shard_capacity", &self.per_shard_capacity)
            .field("len", &self.len())
            .finish()
    }
}

/// Counter snapshot of a [`PlanCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that ran the front-end.
    pub misses: u64,
    /// Entries displaced by the LRU policy.
    pub evictions: u64,
    /// Entries dropped by schema-version invalidation.
    pub invalidations: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl CacheStats {
    /// Hit rate over all cache-consulting lookups (0.0 when none ran).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl PlanCache {
    /// A cache holding up to `capacity` statements across `shards`
    /// independently locked shards (both clamped to at least 1).
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.clamp(1, capacity.max(1));
        let per_shard_capacity = capacity.max(1).div_ceil(shards);
        PlanCache {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        entries: Vec::new(),
                        tick: 0,
                    })
                })
                .collect(),
            per_shard_capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &CacheKey) -> MutexGuard<'_, Shard> {
        let idx = (key.hash as usize) % self.shards.len();
        self.shards[idx].lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks up `key`, counting a hit or miss.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<PreparedQuery>> {
        let mut shard = self.shard(key);
        match shard.find(key) {
            Some(idx) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(shard.touch(idx))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts `value` under `key`, returning the resident entry. If a
    /// concurrent prepare won the race, the existing entry wins (so every
    /// caller shares one `Arc` per statement) and `value` is dropped.
    pub fn insert(&self, key: CacheKey, value: Arc<PreparedQuery>) -> Arc<PreparedQuery> {
        let mut shard = self.shard(&key);
        if let Some(idx) = shard.find(&key) {
            return shard.touch(idx);
        }
        if shard.entries.len() >= self.per_shard_capacity {
            // Evict the least-recently-used entry of this shard.
            let lru = shard
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
                .expect("capacity >= 1 implies a resident entry");
            shard.entries.swap_remove(lru);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        shard.tick += 1;
        let tick = shard.tick;
        shard.entries.push(Entry {
            key,
            value: Arc::clone(&value),
            last_used: tick,
        });
        value
    }

    /// Serves `key` from the cache, or prepares it with `f` (run
    /// *outside* the shard lock, so a slow prepare never blocks hits on
    /// sibling statements) and inserts the result.
    pub fn get_or_prepare(
        &self,
        key: CacheKey,
        f: impl FnOnce() -> sgq_common::Result<PreparedQuery>,
    ) -> sgq_common::Result<(Arc<PreparedQuery>, CacheOutcome)> {
        if let Some(hit) = self.get(&key) {
            return Ok((hit, CacheOutcome::Hit));
        }
        let prepared = Arc::new(f()?);
        Ok((self.insert(key, prepared), CacheOutcome::Miss))
    }

    /// Drops every entry (schema version bump), counting invalidations.
    pub fn invalidate_all(&self) {
        for shard in &self.shards {
            let mut s = shard.lock().unwrap_or_else(|e| e.into_inner());
            self.invalidations
                .fetch_add(s.entries.len() as u64, Ordering::Relaxed);
            s.entries.clear();
        }
    }

    /// Resident entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).entries.len())
            .sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgq_algebra::parser::parse_path;
    use sgq_graph::database::fig2_yago_database;
    use sgq_graph::schema::fig1_yago_schema;
    use sgq_ra::RelStore;

    fn prepared_for(text: &str) -> PreparedQuery {
        let schema = fig1_yago_schema();
        let db = fig2_yago_database();
        let store = RelStore::load(&db);
        let expr = parse_path(text, &schema).unwrap();
        crate::prepared::prepare(
            &schema,
            &store,
            &expr,
            Backend::Relational,
            Approach::Baseline,
            RewriteOptions::default(),
        )
        .unwrap()
    }

    fn key(text: &str, version: u64) -> CacheKey {
        CacheKey::new(
            text,
            0xabcd,
            version,
            Backend::Relational,
            Approach::Baseline,
            &RewriteOptions::default(),
        )
    }

    #[test]
    fn empty_cache_hit_rate_is_finite_zero() {
        // `hit_rate` divides hits by lookups: with no lookups it must
        // report 0.0, not NaN — the snapshot JSON feeds the shared writer,
        // which debug-asserts on non-finite numbers.
        let stats = CacheStats::default();
        assert_eq!(stats.hit_rate(), 0.0);
        let cache = PlanCache::new(8, 2);
        let rate = cache.stats().hit_rate();
        assert!(rate.is_finite());
        assert_eq!(rate, 0.0);
        assert_eq!(sgq_common::json::number(rate), "0");
    }

    #[test]
    fn hit_after_insert_shares_the_arc() {
        let cache = PlanCache::new(8, 2);
        let k = key("owns", 0);
        assert!(cache.get(&k).is_none());
        let v = cache.insert(k.clone(), Arc::new(prepared_for("owns")));
        let hit = cache.get(&k).expect("resident");
        assert!(Arc::ptr_eq(&v, &hit));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn distinct_options_are_distinct_keys() {
        let base = key("owns", 0);
        let other_backend = CacheKey::new(
            "owns",
            0xabcd,
            0,
            Backend::Graph,
            Approach::Baseline,
            &RewriteOptions::default(),
        );
        let other_version = key("owns", 1);
        assert_ne!(base, other_backend);
        assert_ne!(base, other_version);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let cache = PlanCache::new(2, 1);
        let p = Arc::new(prepared_for("owns"));
        cache.insert(key("a", 0), Arc::clone(&p));
        cache.insert(key("b", 0), Arc::clone(&p));
        // Touch `a` so `b` becomes the LRU entry.
        assert!(cache.get(&key("a", 0)).is_some());
        cache.insert(key("c", 0), Arc::clone(&p));
        assert!(cache.get(&key("a", 0)).is_some(), "a was kept");
        assert!(cache.get(&key("b", 0)).is_none(), "b was evicted");
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn invalidate_all_clears_and_counts() {
        // Per-shard capacity 8: five entries cannot evict even if every
        // key hashes into one shard.
        let cache = PlanCache::new(32, 4);
        let p = Arc::new(prepared_for("owns"));
        for i in 0..5 {
            cache.insert(key(&format!("q{i}"), 0), Arc::clone(&p));
        }
        assert_eq!(cache.len(), 5);
        cache.invalidate_all();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().invalidations, 5);
    }

    #[test]
    fn get_or_prepare_runs_the_frontend_once() {
        let cache = PlanCache::new(8, 2);
        let k = key("owns", 0);
        let mut calls = 0;
        let (first, outcome) = cache
            .get_or_prepare(k.clone(), || {
                calls += 1;
                Ok(prepared_for("owns"))
            })
            .unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);
        let (second, outcome) = cache
            .get_or_prepare(k, || {
                calls += 1;
                Ok(prepared_for("owns"))
            })
            .unwrap();
        assert_eq!(outcome, CacheOutcome::Hit);
        assert_eq!(calls, 1, "the second lookup must not re-prepare");
        assert!(Arc::ptr_eq(&first, &second));
    }

    #[test]
    fn hit_rate() {
        let s = CacheStats {
            hits: 3,
            misses: 1,
            ..Default::default()
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn schema_fingerprint_is_structural() {
        let a = schema_fingerprint(&fig1_yago_schema());
        let b = schema_fingerprint(&fig1_yago_schema());
        assert_eq!(a, b, "deterministic");
        let mut builder = sgq_graph::GraphSchema::builder();
        builder.node("ONLY", &[]);
        let other = builder.build().unwrap();
        assert_ne!(a, schema_fingerprint(&other));
    }
}
