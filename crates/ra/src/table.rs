//! Set-semantics relations with interned column ids and shared row
//! buffers.
//!
//! Rows are stored flattened (`data[row * arity + col]`) for cache
//! friendliness; every public operation returns a *canonical* relation
//! (rows sorted lexicographically, duplicates removed), which makes
//! equality and union cheap merges.
//!
//! **Sharing model.** The flattened row data sits behind an
//! `Arc<Vec<u32>>`: relations are immutable once constructed, so
//! [`Relation::clone`], positional renames ([`Relation::with_cols`] /
//! [`Relation::into_cols`]), [`Relation::rename`] and base-table scans
//! out of [`crate::storage::RelStore`] are O(1) reference bumps that
//! never copy a row. Operators that produce new rows build a fresh
//! owned buffer and freeze it; nothing mutates a buffer after it is
//! shared. Empty relations all share one process-wide buffer. The
//! invariant that a relation has at least one column is asserted in the
//! single internal constructor, so the accessors
//! need no defensive zero-arity branches.
//!
//! Columns are [`ColId`]s (see [`crate::symbols::SymbolTable`]): schema
//! comparisons are `u32` compares and schema clones are 4-byte copies.
//! The dominant joins and semi-joins in this workload key on one or two
//! columns, so those paths hash a single `u32`/`u64` per row instead of
//! allocating a fresh `Vec<u32>` key; operators that provably preserve
//! canonical order (semi-join, selection, renaming, prefix projection)
//! skip the re-sort entirely.

use std::sync::{Arc, OnceLock};

use sgq_common::limits::Limits;
use sgq_common::{ColId, FxHashMap, Result};

/// A column identifier. Query variables become interned `v0`, `v1`, ...;
/// the storage layer uses `Sr` / `Tr` like the paper's Fig. 11.
pub type Col = ColId;

/// How many probe rows a join/semi-join processes between two calls to
/// its cooperative-deadline poll.
pub(crate) const POLL_MASK: usize = 8192 - 1;

/// Packs a two-column key into one hashable word.
#[inline]
fn pack2(a: u32, b: u32) -> u64 {
    ((a as u64) << 32) | b as u64
}

/// The one buffer every empty relation shares: out-of-range base-table
/// lookups, empty scans and empty operator outputs all hand out clones
/// of this `Arc` instead of allocating.
fn empty_data() -> Arc<Vec<u32>> {
    static EMPTY: OnceLock<Arc<Vec<u32>>> = OnceLock::new();
    Arc::clone(EMPTY.get_or_init(|| Arc::new(Vec::new())))
}

/// A relation: interned column ids and flattened `u32` rows behind a
/// cheaply-clonable shared buffer (see the module docs for the sharing
/// model).
#[derive(Debug, Clone)]
pub struct Relation {
    cols: Vec<ColId>,
    data: Arc<Vec<u32>>,
}

/// Equality compares schemas and rows, short-circuiting through pointer
/// equality when two relations share one buffer.
impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.cols == other.cols && (Arc::ptr_eq(&self.data, &other.data) || self.data == other.data)
    }
}

impl Eq for Relation {}

impl Relation {
    /// The single internal constructor: every relation is built here, so
    /// the zero-arity invariant lives in exactly one place. Freezes an
    /// owned buffer into the shared representation (empty buffers
    /// collapse onto the process-wide empty buffer).
    fn new(cols: Vec<ColId>, mut data: Vec<u32>) -> Self {
        assert!(!cols.is_empty(), "relations need at least one column");
        debug_assert_eq!(data.len() % cols.len(), 0, "flat data must be row-major");
        // A buffer that a dedup shrank or a growing kernel left loose
        // hands its slack back: a shared buffer (an identity projection's)
        // would hold it for as long as any reader lives.
        if data.capacity() > data.len() {
            data.shrink_to_fit();
        }
        let data = if data.is_empty() {
            empty_data()
        } else {
            Arc::new(data)
        };
        Relation { cols, data }
    }

    /// An empty relation with the given columns. All empty relations
    /// share one static row buffer — no per-call allocation of row data.
    pub fn empty(cols: Vec<ColId>) -> Self {
        Relation::new(cols, Vec::new())
    }

    /// Builds a canonical relation from rows.
    pub fn from_rows(cols: Vec<ColId>, rows: impl IntoIterator<Item = Vec<u32>>) -> Self {
        let arity = cols.len();
        let mut data = Vec::new();
        for row in rows {
            assert_eq!(row.len(), arity, "row arity mismatch");
            data.extend_from_slice(&row);
        }
        normalize_flat(arity, &mut data);
        Relation::new(cols, data)
    }

    /// Column ids.
    pub fn cols(&self) -> &[ColId] {
        &self.cols
    }

    /// Number of columns (at least one, by construction).
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len() / self.cols.len()
    }

    /// Whether the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Row accessor.
    pub fn row(&self, i: usize) -> &[u32] {
        let a = self.arity();
        &self.data[i * a..(i + 1) * a]
    }

    /// Iterates over rows.
    pub fn rows(&self) -> impl Iterator<Item = &[u32]> {
        self.data.chunks_exact(self.arity())
    }

    /// Iterates over the rows of one morsel: the contiguous row range
    /// `start..end`. Because the data is flat and shared, a morsel is
    /// pointer arithmetic over the same `Arc` buffer — partitioning a
    /// probe side across workers never copies a row.
    pub fn rows_range(&self, start: usize, end: usize) -> impl Iterator<Item = &[u32]> {
        let a = self.arity();
        self.data[start * a..end * a].chunks_exact(a)
    }

    /// The flattened row-major data (for arity-1 relations: the sorted
    /// value set). Used by the storage layer to expose node-label sets.
    pub(crate) fn flat(&self) -> &[u32] {
        &self.data
    }

    /// The flattened row-major data, owned: the buffer itself when
    /// nothing else shares it (an operator's output), a copy otherwise
    /// (a base-table scan).
    pub fn into_flat(self) -> Vec<u32> {
        Arc::try_unwrap(self.data).unwrap_or_else(|shared| (*shared).clone())
    }

    /// Whether two relations share the same underlying row buffer — the
    /// zero-copy pin used by tests: a cloned or positionally renamed
    /// base-table scan must share, never copy.
    pub fn shares_data(&self, other: &Relation) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// Index of a column by id.
    pub fn col_index(&self, col: ColId) -> Option<usize> {
        self.cols.iter().position(|&c| c == col)
    }

    /// `π_cols` with set semantics (duplicates removed). Onto the
    /// relation's own columns, in order, it shares the row buffer.
    pub fn project(&self, cols: &[ColId]) -> Relation {
        if cols == self.cols.as_slice() {
            return self.clone();
        }
        let positions: Vec<usize> = cols
            .iter()
            .map(|&c| self.col_index(c).expect("projection column must exist"))
            .collect();
        let mut data = Vec::with_capacity(self.len() * cols.len());
        for row in self.rows() {
            for &p in &positions {
                data.push(row[p]);
            }
        }
        // Projecting onto a prefix of the lexicographic sort key keeps
        // rows sorted; only duplicates can appear.
        if positions.iter().copied().eq(0..positions.len()) {
            data = dedup_rows(data.len(), data.chunks_exact(positions.len()));
        } else {
            normalize_flat(positions.len(), &mut data);
        }
        Relation::new(cols.to_vec(), data)
    }

    /// `ρ_{from→to}`. Renaming never touches row data: the result shares
    /// the input's buffer.
    pub fn rename(&self, from: ColId, to: ColId) -> Relation {
        let mut cols = self.cols.clone();
        let i = self.col_index(from).expect("renamed column must exist");
        cols[i] = to;
        Relation {
            cols,
            data: Arc::clone(&self.data),
        }
    }

    /// Renames columns positionally to `cols`, sharing the row buffer.
    pub fn with_cols(&self, cols: Vec<ColId>) -> Relation {
        assert_eq!(cols.len(), self.arity());
        Relation {
            cols,
            data: Arc::clone(&self.data),
        }
    }

    /// Consuming [`Relation::with_cols`]: renames columns positionally
    /// without copying the row data — the physical executor's zero-copy
    /// rename.
    pub fn into_cols(self, cols: Vec<ColId>) -> Relation {
        assert_eq!(cols.len(), self.arity());
        Relation {
            cols,
            data: self.data,
        }
    }

    /// Builds a relation from flattened row data the caller guarantees is
    /// already canonical (sorted, deduplicated) — e.g. a merge join's
    /// output.
    pub(crate) fn from_flat_sorted(cols: Vec<ColId>, data: Vec<u32>) -> Relation {
        let rel = Relation::new(cols, data);
        debug_assert!(
            rel.rows().zip(rel.rows().skip(1)).all(|(a, b)| a < b),
            "from_flat_sorted requires canonical input"
        );
        rel
    }

    /// Builds a canonical relation from per-morsel output runs, each
    /// already canonical (sorted + deduplicated by its worker): a
    /// balanced k-way merge-dedup, so the result is bit-identical to
    /// normalising the concatenation — the guarantee that makes
    /// parallel execution indistinguishable from serial.
    pub(crate) fn merge_sorted_runs(cols: Vec<ColId>, mut runs: Vec<Vec<u32>>) -> Relation {
        let arity = cols.len();
        runs.retain(|r| !r.is_empty());
        // Balanced pairwise merging: each row moves O(log k) times.
        while runs.len() > 1 {
            let mut next = Vec::with_capacity(runs.len().div_ceil(2));
            let mut it = runs.into_iter();
            while let Some(a) = it.next() {
                match it.next() {
                    Some(b) => next.push(merge_flat(arity, &a, &b)),
                    None => next.push(a),
                }
            }
            runs = next;
        }
        Relation::from_flat_sorted(cols, runs.pop().unwrap_or_default())
    }

    /// `σ_{a = b}` by column positions: keeps rows whose two columns
    /// coincide. Filtering preserves canonical order, so no re-sort.
    pub fn select_eq_at(&self, ia: usize, ib: usize) -> Relation {
        let mut data = Vec::new();
        for row in self.rows() {
            if row[ia] == row[ib] {
                data.extend_from_slice(row);
            }
        }
        Relation::new(self.cols.clone(), data)
    }

    /// Natural join on shared column ids: a hash join through a
    /// [`KeyMap`] over `other`. Output schema: self's columns, then
    /// other's non-shared columns.
    pub fn join(&self, other: &Relation) -> Relation {
        let shared = self.cols.iter().filter(|c| other.cols.contains(c));
        let (self_key, other_key): (Vec<usize>, Vec<usize>) = shared
            .map(|&c| (self.col_index(c).unwrap(), other.col_index(c).unwrap()))
            .unzip();
        let extra: Vec<usize> = (0..other.arity())
            .filter(|&i| !self.cols.contains(&other.cols[i]))
            .collect();
        let cols = self.cols.iter().copied();
        let cols: Vec<ColId> = cols.chain(extra.iter().map(|&i| other.cols[i])).collect();
        let index: KeyMap<Vec<u32>> =
            KeyMap::build(other, &other_key, &Limits::default()).expect("inert limits cannot fail");
        let mut data: Vec<u32> = Vec::new();
        for row in self.rows() {
            for &oi in index.get(row, &self_key).into_iter().flatten() {
                data.extend_from_slice(row);
                data.extend(extra.iter().map(|&i| other.row(oi as usize)[i]));
            }
        }
        normalize_flat(cols.len(), &mut data);
        Relation::new(cols, data)
    }

    /// Semi-join `self ⋉ other` on shared column ids, through a
    /// [`KeyMap`] key set. Filtering preserves canonical order, so the
    /// result needs no re-sort.
    pub fn semijoin(&self, other: &Relation) -> Relation {
        let shared = self.cols.iter().filter(|c| other.cols.contains(c));
        let (self_key, other_key): (Vec<usize>, Vec<usize>) = shared
            .map(|&c| (self.col_index(c).unwrap(), other.col_index(c).unwrap()))
            .unzip();
        let keys: KeyMap<()> =
            KeyMap::build(other, &other_key, &Limits::default()).expect("inert limits cannot fail");
        let mut data = Vec::new();
        for row in self.rows().filter(|row| keys.get(row, &self_key).is_some()) {
            data.extend_from_slice(row);
        }
        Relation::new(self.cols.clone(), data)
    }

    /// Union (same column ids required). Both inputs are canonical, so
    /// the result is a linear merge — no re-sort.
    pub fn union(&self, other: &Relation) -> Relation {
        assert_eq!(self.cols, other.cols, "union requires identical schemas");
        let data = merge_flat(self.arity(), &self.data, &other.data);
        Relation::new(self.cols.clone(), data)
    }

    /// Union of many relations with identical schemas, normalised once —
    /// replaces a fold of pairwise unions (which re-merges the
    /// accumulated result k times) with a single collect-then-normalize.
    /// A single-element union returns that relation unchanged (sharing
    /// its buffer).
    pub fn union_many(rels: Vec<Relation>) -> Relation {
        let mut it = rels.into_iter();
        let Some(first) = it.next() else {
            panic!("union_many requires at least one relation");
        };
        let mut it = it.peekable();
        if it.peek().is_none() {
            return first;
        }
        let mut data = Vec::new();
        data.extend_from_slice(&first.data);
        for rel in it {
            assert_eq!(first.cols, rel.cols, "union requires identical schemas");
            data.extend_from_slice(&rel.data);
        }
        normalize_flat(first.cols.len(), &mut data);
        Relation::new(first.cols, data)
    }

    /// Merge join on the shared `key_len`-column prefix. Both inputs must
    /// be canonical and agree on their first `key_len` column ids; the
    /// output (self's columns, then other's non-key columns) is emitted
    /// in canonical order, so no hash table is built and no re-sort runs.
    pub fn merge_join_checked(
        &self,
        other: &Relation,
        key_len: usize,
        limits: &Limits,
    ) -> Result<Relation> {
        assert!(key_len >= 1, "merge join requires at least one key column");
        assert_eq!(
            &self.cols[..key_len],
            &other.cols[..key_len],
            "merge join requires a shared key prefix"
        );
        let out_cols: Vec<ColId> = self
            .cols
            .iter()
            .chain(&other.cols[key_len..])
            .copied()
            .collect();
        let (n, m) = (self.len(), other.len());
        let mut data: Vec<u32> = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        let mut steps = 0usize;
        while i < n && j < m {
            steps += 1;
            if steps & POLL_MASK == 0 {
                limits.poll()?;
            }
            let a = &self.row(i)[..key_len];
            let b = &other.row(j)[..key_len];
            match a.cmp(b) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    // Cross the two equal-key groups. Left rows ascend on
                    // their remainder and right rows on theirs, so the
                    // nested emission below is already in output order.
                    let i2 = (i..n).find(|&r| &self.row(r)[..key_len] != a).unwrap_or(n);
                    let j2 = (j..m).find(|&r| &other.row(r)[..key_len] != b).unwrap_or(m);
                    for li in i..i2 {
                        for rj in j..j2 {
                            steps += 1;
                            if steps & POLL_MASK == 0 {
                                limits.poll()?;
                            }
                            data.extend_from_slice(self.row(li));
                            data.extend_from_slice(&other.row(rj)[key_len..]);
                        }
                    }
                    i = i2;
                    j = j2;
                }
            }
        }
        Ok(Relation::from_flat_sorted(out_cols, data))
    }
}

/// The one two-cursor merge: the union of canonical flat runs `a` and
/// `b`. Canonical in, canonical out.
fn merge_flat(arity: usize, a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        let (ra, rb) = (&a[i..i + arity], &b[j..j + arity]);
        match ra.cmp(rb) {
            std::cmp::Ordering::Less => {
                out.extend_from_slice(ra);
                i += arity;
            }
            std::cmp::Ordering::Greater => {
                out.extend_from_slice(rb);
                j += arity;
            }
            std::cmp::Ordering::Equal => {
                out.extend_from_slice(ra);
                i += arity;
                j += arity;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Sorts rows of a flat row-major buffer lexicographically and removes
/// duplicates. `arity` must be at least one.
pub(crate) fn normalize_flat(arity: usize, data: &mut Vec<u32>) {
    if data.is_empty() {
        return;
    }
    debug_assert!(arity >= 1);
    let n = data.len() / arity;
    let mut idx: Vec<u32> = (0..n as u32).collect();
    idx.sort_unstable_by(|&a, &b| {
        data[a as usize * arity..(a as usize + 1) * arity]
            .cmp(&data[b as usize * arity..(b as usize + 1) * arity])
    });
    let sorted = idx
        .iter()
        .map(|&i| &data[i as usize * arity..(i as usize + 1) * arity]);
    *data = dedup_rows(data.len(), sorted);
}

/// The one dedup loop: copies ascending `rows` into a fresh flat buffer,
/// dropping adjacent duplicates (all of them, since equal rows of a
/// sorted sequence are adjacent).
fn dedup_rows<'a>(capacity: usize, rows: impl Iterator<Item = &'a [u32]>) -> Vec<u32> {
    let mut out = Vec::with_capacity(capacity);
    let mut last: Option<&[u32]> = None;
    for row in rows {
        if last != Some(row) {
            out.extend_from_slice(row);
        }
        last = Some(row);
    }
    out
}

/// What a [`KeyMap`] holds per distinct key: a join collects the ids of
/// the build rows carrying the key, a semi-join only that the key occurs.
pub trait KeyValue: Default {
    /// Notes that build row `row` carries this value's key.
    fn add(&mut self, row: u32);
}

impl KeyValue for Vec<u32> {
    fn add(&mut self, row: u32) {
        self.push(row);
    }
}

impl KeyValue for () {
    fn add(&mut self, _row: u32) {}
}

/// A hash map over a build-side relation, keyed on a fixed set of column
/// positions — the build half of a hash join (`V = Vec<u32>`: the build
/// row ids per key) and of a hash semi-join (`V = ()`: the key set).
/// Building it is the expensive half of either; the physical executor
/// builds it once per static fixpoint input and probes it with every
/// round's delta. One or two key columns hash a single `u32` / `u64`
/// per row instead of allocating a `Vec<u32>` key.
#[derive(Debug)]
pub enum KeyMap<V> {
    /// No key columns: every probe row sees the one value, which a join
    /// fills with every build row; `None` over an empty build side.
    Zero(Option<V>),
    /// Single-column key (the dominant arity-2 join).
    One(FxHashMap<u32, V>),
    /// Two-column key packed into one `u64`.
    Two(FxHashMap<u64, V>),
    /// Three or more key columns.
    Wide(FxHashMap<Vec<u32>, V>),
}

impl<V: KeyValue> KeyMap<V> {
    /// Builds the map over `rel`'s rows keyed at `key_pos`, polling
    /// `limits` every few thousand rows.
    pub fn build(rel: &Relation, key_pos: &[usize], limits: &Limits) -> Result<KeyMap<V>> {
        /// The one build loop, monomorphised per key width.
        fn fill<K: std::hash::Hash + Eq, V: KeyValue>(
            rel: &Relation,
            limits: &Limits,
            key: impl Fn(&[u32]) -> K,
        ) -> Result<FxHashMap<K, V>> {
            let mut map: FxHashMap<K, V> = FxHashMap::default();
            for (i, row) in rel.rows().enumerate() {
                if i & POLL_MASK == 0 {
                    limits.poll()?;
                }
                map.entry(key(row)).or_default().add(i as u32);
            }
            Ok(map)
        }
        Ok(match *key_pos {
            [] => {
                let mut all = V::default();
                (0..rel.len() as u32).for_each(|i| all.add(i));
                KeyMap::Zero((!rel.is_empty()).then_some(all))
            }
            [k] => KeyMap::One(fill(rel, limits, |row| row[k])?),
            [k0, k1] => KeyMap::Two(fill(rel, limits, |row| pack2(row[k0], row[k1]))?),
            _ => KeyMap::Wide(fill(rel, limits, |row| {
                key_pos.iter().map(|&k| row[k]).collect()
            })?),
        })
    }

    /// The value under the key of a probe row keyed at `key_pos`.
    pub fn get(&self, row: &[u32], key_pos: &[usize]) -> Option<&V> {
        match self {
            KeyMap::Zero(all) => all.as_ref(),
            KeyMap::One(map) => map.get(&row[key_pos[0]]),
            KeyMap::Two(map) => map.get(&pack2(row[key_pos[0]], row[key_pos[1]])),
            KeyMap::Wide(map) => {
                let key: Vec<u32> = key_pos.iter().map(|&k| row[k]).collect();
                map.get(&key)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: u32) -> ColId {
        ColId::new(i)
    }

    fn rel(cols: &[u32], rows: &[&[u32]]) -> Relation {
        Relation::from_rows(
            cols.iter().map(|&i| c(i)).collect(),
            rows.iter().map(|r| r.to_vec()),
        )
    }

    /// Nested-loop natural join straight from the definition — the reference
    /// the join operators are tested against, sharing no code with them.
    pub(super) fn nested_loop_join(r: &Relation, s: &Relation) -> Relation {
        let extra: Vec<usize> = (0..s.arity())
            .filter(|&j| r.col_index(s.cols()[j]).is_none())
            .collect();
        let cols = r.cols().iter().copied();
        let cols: Vec<ColId> = cols.chain(extra.iter().map(|&j| s.cols()[j])).collect();
        let mut rows = Vec::new();
        for x in r.rows() {
            for y in s.rows().filter(|y| rows_agree(r, x, s, y)) {
                rows.push(
                    x.iter()
                        .copied()
                        .chain(extra.iter().map(|&j| y[j]))
                        .collect(),
                );
            }
        }
        Relation::from_rows(cols, rows)
    }

    /// The semi-join twin of [`nested_loop_join`].
    pub(super) fn nested_loop_semijoin(r: &Relation, s: &Relation) -> Relation {
        let kept = r
            .rows()
            .filter(|x| s.rows().any(|y| rows_agree(r, x, s, y)));
        Relation::from_rows(r.cols().to_vec(), kept.map(<[u32]>::to_vec))
    }

    /// Whether row `x` of `r` and row `y` of `s` coincide on every column id
    /// the two schemas share.
    fn rows_agree(r: &Relation, x: &[u32], s: &Relation, y: &[u32]) -> bool {
        let mut shared = r
            .cols()
            .iter()
            .zip(x)
            .filter_map(|(&c, &v)| Some((s.col_index(c)?, v)));
        shared.all(|(j, v)| y[j] == v)
    }

    #[test]
    fn canonicalisation() {
        let r = rel(&[0, 1], &[&[2, 1], &[1, 1], &[2, 1]]);
        assert_eq!(r.len(), 2);
        assert_eq!(r.row(0), &[1, 1]);
        assert_eq!(r.row(1), &[2, 1]);
    }

    #[test]
    fn project_dedups() {
        let r = rel(&[0, 1], &[&[1, 1], &[1, 2], &[2, 2]]);
        let p = r.project(&[c(0)]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.cols(), &[c(0)]);
    }

    #[test]
    fn project_non_prefix_resorts() {
        let r = rel(&[0, 1], &[&[1, 5], &[1, 9], &[2, 0]]);
        let p = r.project(&[c(1)]);
        assert_eq!(p.cols(), &[c(1)]);
        let rows: Vec<u32> = p.rows().map(|r| r[0]).collect();
        assert_eq!(rows, vec![0, 5, 9]);
    }

    #[test]
    fn rename_changes_schema() {
        let r = rel(&[0, 1], &[&[1, 2]]);
        let r2 = r.rename(c(0), c(7));
        assert_eq!(r2.cols(), &[c(7), c(1)]);
        assert_eq!(r2.row(0), &[1, 2]);
    }

    #[test]
    fn natural_join() {
        let r = rel(&[0, 1], &[&[1, 10], &[2, 20]]);
        let s = rel(&[1, 2], &[&[10, 100], &[10, 101], &[30, 300]]);
        let j = r.join(&s);
        assert_eq!(j.cols(), &[c(0), c(1), c(2)]);
        assert_eq!(j.len(), 2);
        assert_eq!(j.row(0), &[1, 10, 100]);
        assert_eq!(j.row(1), &[1, 10, 101]);
    }

    #[test]
    fn join_without_shared_cols_is_cartesian() {
        let r = rel(&[0], &[&[1], &[2]]);
        let s = rel(&[1], &[&[7]]);
        let j = r.join(&s);
        assert_eq!(j.len(), 2);
        assert_eq!(j.arity(), 2);
    }

    #[test]
    fn join_on_two_columns() {
        let r = rel(&[0, 1], &[&[1, 2], &[3, 4]]);
        let s = rel(&[0, 1], &[&[1, 2], &[3, 5]]);
        let j = r.join(&s);
        assert_eq!(j.len(), 1);
        assert_eq!(j.row(0), &[1, 2]);
    }

    #[test]
    fn join_on_three_columns_uses_wide_keys() {
        let r = rel(&[0, 1, 2], &[&[1, 2, 3], &[4, 5, 6]]);
        let s = rel(&[0, 1, 2], &[&[1, 2, 3], &[4, 5, 7]]);
        let j = r.join(&s);
        assert_eq!(j.len(), 1);
        assert_eq!(j.row(0), &[1, 2, 3]);
    }

    #[test]
    fn semijoin_filters() {
        let r = rel(&[0, 1], &[&[1, 10], &[2, 20]]);
        let f = rel(&[0], &[&[1]]);
        let sj = r.semijoin(&f);
        assert_eq!(sj.len(), 1);
        assert_eq!(sj.row(0), &[1, 10]);
    }

    #[test]
    fn semijoin_no_shared_cols() {
        let r = rel(&[0], &[&[1]]);
        let non_empty = rel(&[5], &[&[9]]);
        assert_eq!(r.semijoin(&non_empty), r);
        let empty = Relation::empty(vec![c(5)]);
        assert!(r.semijoin(&empty).is_empty());
    }

    /// The rows of `a` that `b` lacks (same columns).
    pub(super) fn difference(a: &Relation, b: &Relation) -> Relation {
        let only_a = a.rows().filter(|x| b.rows().all(|y| y != *x));
        Relation::from_rows(a.cols().to_vec(), only_a.map(<[u32]>::to_vec))
    }

    #[test]
    fn union_and_difference() {
        let r = rel(&[0], &[&[1], &[2]]);
        let s = rel(&[0], &[&[2], &[3]]);
        let u = r.union(&s);
        assert_eq!(u.flat(), &[1, 2, 3]);
        assert_eq!(difference(&u, &s), difference(&r, &s));
        assert_eq!(difference(&u, &s).flat(), &[1]);
    }

    #[test]
    fn select_eq_keeps_matching_rows() {
        let r = rel(&[0, 1], &[&[1, 1], &[1, 2], &[3, 3]]);
        let s = r.select_eq_at(0, 1);
        assert_eq!(s.len(), 2);
        assert_eq!(s.row(0), &[1, 1]);
        assert_eq!(s.row(1), &[3, 3]);
    }

    #[test]
    fn with_cols_positional() {
        let r = rel(&[0, 1], &[&[1, 2]]);
        let r2 = r.with_cols(vec![c(8), c(9)]);
        assert_eq!(r2.cols(), &[c(8), c(9)]);
    }

    #[test]
    fn merge_join_matches_hash_join() {
        let r = rel(&[0, 1], &[&[1, 10], &[1, 11], &[2, 20]]);
        let s = rel(&[0, 2], &[&[1, 100], &[1, 101], &[3, 300]]);
        let mj = r.merge_join_checked(&s, 1, &Limits::default()).unwrap();
        let reference = nested_loop_join(&r, &s);
        assert_eq!(mj, reference);
        assert_eq!(r.join(&s), reference);
        assert_eq!(mj.cols(), &[c(0), c(1), c(2)]);
        assert_eq!(mj.len(), 4);
    }

    #[test]
    fn merge_join_full_key() {
        let r = rel(&[0, 1], &[&[1, 2], &[3, 4]]);
        let s = rel(&[0, 1], &[&[1, 2], &[3, 5]]);
        let mj = r.merge_join_checked(&s, 2, &Limits::default()).unwrap();
        assert_eq!(mj, nested_loop_join(&r, &s));
    }

    #[test]
    fn union_many_matches_pairwise_fold() {
        let a = rel(&[0], &[&[1], &[4]]);
        let b = rel(&[0], &[&[2], &[4]]);
        let d = rel(&[0], &[&[0], &[9]]);
        let folded = a.union(&b).union(&d);
        let many = Relation::union_many(vec![a, b, d]);
        assert_eq!(many, folded);
    }

    #[test]
    fn into_cols_is_zero_copy_rename() {
        let r = rel(&[0, 1], &[&[1, 2]]);
        let renamed = r.clone().into_cols(vec![c(8), c(9)]);
        assert_eq!(renamed.cols(), &[c(8), c(9)]);
        assert_eq!(renamed.row(0), &[1, 2]);
        assert!(renamed.shares_data(&r), "into_cols must not copy rows");
    }

    #[test]
    fn clones_and_renames_share_row_data() {
        let r = rel(&[0, 1], &[&[1, 2], &[3, 4]]);
        assert!(r.clone().shares_data(&r), "clone must not copy rows");
        assert!(
            r.rename(c(0), c(7)).shares_data(&r),
            "rename must not copy rows"
        );
        assert!(
            r.with_cols(vec![c(8), c(9)]).shares_data(&r),
            "with_cols must not copy rows"
        );
    }

    #[test]
    fn empty_relations_share_one_static_buffer() {
        let a = Relation::empty(vec![c(0), c(1)]);
        let b = Relation::empty(vec![c(5)]);
        assert!(a.shares_data(&b), "all empties share the static buffer");
        // An operator producing no rows lands on the same buffer.
        let r = rel(&[0], &[&[1]]);
        let none = r.semijoin(&Relation::empty(vec![c(0)]));
        assert!(none.shares_data(&a));
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn zero_arity_relations_are_rejected() {
        let _ = Relation::from_rows(vec![], std::iter::empty());
    }

    /// The join instantiation lists exactly the matching build rows.
    #[test]
    fn join_index_probe_matches_join() {
        super::proptests::key_map_matches_naive_filter::<Vec<u32>>(0x101e, |got, ids| {
            got.map_or(&[][..], Vec::as_slice) == ids
        });
    }

    /// The semi-join instantiation holds a key iff some build row has it.
    #[test]
    fn semi_keys_contains_matches_semijoin() {
        super::proptests::key_map_matches_naive_filter::<()>(0x5e11, |got, ids| {
            got.is_some() != ids.is_empty()
        });
    }

    #[test]
    fn rows_range_matches_rows() {
        let r = rel(&[0, 1], &[&[1, 10], &[2, 20], &[3, 30], &[4, 40]]);
        let mid: Vec<&[u32]> = r.rows_range(1, 3).collect();
        assert_eq!(mid, vec![&[2, 20][..], &[3, 30][..]]);
        let all: Vec<&[u32]> = r.rows_range(0, r.len()).collect();
        assert_eq!(all, r.rows().collect::<Vec<_>>());
        assert_eq!(r.rows_range(2, 2).count(), 0);
    }

    #[test]
    fn merge_sorted_runs_matches_normalized_concat() {
        let cols = vec![c(0), c(1)];
        // Three canonical runs with overlaps, plus an empty run.
        let runs = vec![
            vec![1, 10, 3, 30],
            vec![],
            vec![2, 20, 3, 30],
            vec![1, 10, 9, 90],
        ];
        let merged = Relation::merge_sorted_runs(cols.clone(), runs.clone());
        let mut concat: Vec<u32> = runs.concat();
        normalize_flat(2, &mut concat);
        let expect = Relation::from_flat_sorted(cols.clone(), concat);
        assert_eq!(merged, expect);
        // All-empty runs collapse onto the shared empty buffer.
        let none = Relation::merge_sorted_runs(cols.clone(), vec![vec![], vec![]]);
        assert!(none.is_empty());
        assert!(none.shares_data(&Relation::empty(cols)));
    }

    #[test]
    fn checked_operators_propagate_poll_errors() {
        let r = rel(&[0, 1], &[&[1, 10], &[2, 20]]);
        // Fresh per call: the first failing poll trips the cancel flag.
        let expired = || Limits {
            deadline: Some(std::time::Instant::now() - std::time::Duration::from_millis(1)),
            limit_ms: 7,
            ..Limits::default()
        };
        let timeout = sgq_common::SgqError::Timeout { limit_ms: 7 };
        for key in [&[0][..], &[0, 1], &[0, 1, 0]] {
            let join = KeyMap::<Vec<u32>>::build(&r, key, &expired());
            assert_eq!(join.unwrap_err(), timeout);
            let semi = KeyMap::<()>::build(&r, key, &expired());
            assert_eq!(semi.unwrap_err(), timeout);
        }
        // The merge join polls every `POLL_MASK + 1` steps.
        let long = Relation::from_rows(vec![c(0)], (0..=POLL_MASK as u32).map(|v| vec![v]));
        let join = long.merge_join_checked(&long, 1, &expired());
        assert_eq!(join.unwrap_err(), timeout);
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::{difference, nested_loop_join, nested_loop_semijoin};
    use super::*;
    use sgq_common::Rng;

    fn arb_rel(rng: &mut Rng, cols: &[u32]) -> Relation {
        arb_rel_in(rng, cols, 12)
    }

    /// Up to 23 random rows over `cols` with values below `domain`.
    fn arb_rel_in(rng: &mut Rng, cols: &[u32], domain: usize) -> Relation {
        let n = rng.gen_range(0..24);
        let rows: Vec<Vec<u32>> = (0..n)
            .map(|_| {
                (0..cols.len())
                    .map(|_| rng.gen_range(0..domain) as u32)
                    .collect()
            })
            .collect();
        Relation::from_rows(cols.iter().map(|&i| ColId::new(i)).collect(), rows)
    }

    /// `KeyMap` build + get against a naive filter of the build rows, at
    /// every key width (0: no key, 1: `u32`, 2: packed `u64`, 3: wide)
    /// with build and probe keyed at different positions. `agrees`
    /// compares what the map holds under a probe row's key with the ids
    /// of the build rows carrying that key.
    pub(super) fn key_map_matches_naive_filter<V: KeyValue>(
        salt: u64,
        agrees: impl Fn(Option<&V>, &[u32]) -> bool,
    ) {
        let (build_pos, probe_pos) = ([2, 0, 1], [1, 2, 0]);
        for (width, seed) in (0..=3).flat_map(|w| (0..32u64).map(move |s| (w, s))) {
            let mut rng = Rng::seed_from_u64(seed ^ salt);
            let build = arb_rel_in(&mut rng, &[0, 1, 2], 3);
            let probe = arb_rel_in(&mut rng, &[3, 4, 5], 3);
            let (bpos, ppos) = (&build_pos[..width], &probe_pos[..width]);
            let map = KeyMap::<V>::build(&build, bpos, &Limits::default()).unwrap();
            for prow in probe.rows() {
                let same_key =
                    |brow: &[u32]| bpos.iter().zip(ppos).all(|(&b, &p)| brow[b] == prow[p]);
                let ids: Vec<u32> = (0..build.len())
                    .filter(|&i| same_key(build.row(i)))
                    .map(|i| i as u32)
                    .collect();
                assert!(
                    agrees(map.get(prow, ppos), &ids),
                    "width {width} seed {seed} probe row {prow:?}"
                );
            }
        }
    }

    /// Natural join agrees with the nested-loop definition.
    #[test]
    fn join_matches_nested_loop() {
        for seed in 0..128u64 {
            let mut rng = Rng::seed_from_u64(seed);
            let r = arb_rel(&mut rng, &[0, 1]);
            let s = arb_rel(&mut rng, &[1, 2]);
            assert_eq!(r.join(&s), nested_loop_join(&r, &s), "seed {seed}");
        }
    }

    /// Semi-join agrees with the nested-loop definition, and is the join
    /// projected back onto the left schema.
    #[test]
    fn semijoin_matches_projected_join() {
        for seed in 0..128u64 {
            let mut rng = Rng::seed_from_u64(seed ^ 0x5e31_u64);
            let r = arb_rel(&mut rng, &[0, 1]);
            let s = arb_rel(&mut rng, &[1, 2]);
            let sj = r.semijoin(&s);
            assert_eq!(sj, nested_loop_semijoin(&r, &s), "seed {seed}");
            let expect = r.join(&s).project(&[ColId::new(0), ColId::new(1)]);
            assert_eq!(sj, expect, "seed {seed}");
        }
    }

    /// Union/difference satisfy (A ∪ B) \ B ⊆ A and A ⊆ (A ∪ B).
    #[test]
    fn union_difference_laws() {
        for seed in 0..128u64 {
            let mut rng = Rng::seed_from_u64(seed.wrapping_mul(0x9e37));
            let a = arb_rel(&mut rng, &[0]);
            let b = arb_rel(&mut rng, &[0]);
            let u = a.union(&b);
            let d = difference(&u, &b);
            for row in d.rows() {
                assert!(a.rows().any(|r| r == row), "seed {seed}");
            }
            for row in a.rows() {
                assert!(u.rows().any(|r| r == row), "seed {seed}");
            }
            // difference then union restores the union
            assert_eq!(d.union(&b), u, "seed {seed}");
        }
    }

    /// The merge kernel against code it shares nothing with: on arity-1
    /// data `sgq_common::sorted`; above arity 1 the normalised
    /// concatenation.
    #[test]
    fn merge_kernel_matches_references() {
        use sgq_common::sorted;
        for seed in 0..128u64 {
            let mut rng = Rng::seed_from_u64(seed ^ 0x3e26);
            let a = arb_rel(&mut rng, &[0]);
            let b = arb_rel(&mut rng, &[0]);
            assert_eq!(a.union(&b).flat(), sorted::union(a.flat(), b.flat()));
            for cols in [&[0, 1][..], &[0, 1, 2]] {
                let r = arb_rel_in(&mut rng, cols, 3);
                let s = arb_rel_in(&mut rng, cols, 3);
                let both = r.rows().chain(s.rows()).map(<[u32]>::to_vec);
                let union = Relation::from_rows(r.cols().to_vec(), both);
                assert_eq!(r.union(&s), union, "seed {seed}");
            }
        }
    }

    /// Merge and hash join, and the hash semi-join, agree with the
    /// nested-loop definition on prefix-aligned schemas.
    #[test]
    fn merge_operators_match_hash_operators() {
        for seed in 0..128u64 {
            let mut rng = Rng::seed_from_u64(seed ^ 0x6a31);
            let r = arb_rel(&mut rng, &[0, 1]);
            let s = arb_rel(&mut rng, &[0, 2]);
            let (join, semijoin) = (nested_loop_join(&r, &s), nested_loop_semijoin(&r, &s));
            let mj = r.merge_join_checked(&s, 1, &Limits::default()).unwrap();
            assert_eq!(mj, join, "merge join seed {seed}");
            assert_eq!(r.join(&s), join, "hash join seed {seed}");
            assert_eq!(r.semijoin(&s), semijoin, "hash semijoin seed {seed}");
        }
    }

    /// Merging per-morsel canonical runs equals normalising the
    /// concatenation — the parallel-join merge invariant.
    #[test]
    fn merge_sorted_runs_matches_serial_normalize() {
        for seed in 0..128u64 {
            let mut rng = Rng::seed_from_u64(seed ^ 0x40a5);
            let k = rng.gen_range(1..6);
            let runs: Vec<Vec<u32>> = (0..k)
                .map(|_| {
                    let mut data: Vec<u32> = (0..rng.gen_range(0..16) * 2)
                        .map(|_| rng.gen_range(0..8) as u32)
                        .collect();
                    normalize_flat(2, &mut data);
                    data
                })
                .collect();
            let cols = vec![ColId::new(0), ColId::new(1)];
            let merged = Relation::merge_sorted_runs(cols.clone(), runs.clone());
            let mut concat = runs.concat();
            normalize_flat(2, &mut concat);
            let expect = Relation::from_flat_sorted(cols, concat);
            assert_eq!(merged, expect, "seed {seed}");
        }
    }

    /// Projection is idempotent and set-semantic.
    #[test]
    fn project_idempotent() {
        for seed in 0..128u64 {
            let mut rng = Rng::seed_from_u64(seed.rotate_left(7));
            let r = arb_rel(&mut rng, &[0, 1]);
            let p1 = r.project(&[ColId::new(0)]);
            let p2 = p1.project(&[ColId::new(0)]);
            assert_eq!(&p1, &p2, "seed {seed}");
            // no duplicates
            let mut seen = std::collections::HashSet::new();
            for row in p1.rows() {
                assert!(seen.insert(row.to_vec()), "seed {seed}");
            }
        }
    }
}
