//! The graph engine's one row representation: a flat, row-major table.
//!
//! [`Rows`] is both the binding table of the conjunctive executor and
//! the result the engine hands back: `arity` values per row in one
//! `Vec<NodeId>`, always *canonical* (rows sorted lexicographically,
//! duplicates removed). Nothing allocates per row. Normalisation packs
//! each row into one integer key (`u64` up to two columns, `u128` up to
//! four) so the sort compares machine words; wider rows fall back to a
//! slice comparison.

use sgq_common::NodeId;

/// A canonical set of fixed-arity rows over node ids.
#[derive(Clone, PartialEq, Eq)]
pub struct Rows {
    arity: usize,
    /// Row count, kept beside `data` so that the zero-column tables (the
    /// join identity and "some match exists") are representable.
    len: usize,
    data: Vec<NodeId>,
}

impl Rows {
    /// No rows of the given arity.
    pub(crate) fn empty(arity: usize) -> Self {
        Rows {
            arity,
            len: 0,
            data: Vec::new(),
        }
    }

    /// The join identity: one row of no columns.
    pub(crate) fn unit() -> Self {
        Rows {
            arity: 0,
            len: 1,
            data: Vec::new(),
        }
    }

    /// Canonicalises `emitted` rows written row-major into `data`.
    pub(crate) fn from_flat(arity: usize, emitted: usize, mut data: Vec<NodeId>) -> Self {
        debug_assert_eq!(data.len(), arity * emitted, "flat data must be row-major");
        let len = if arity == 0 {
            emitted.min(1)
        } else {
            normalize(arity, &mut data);
            // A join can emit far more rows than survive deduplication;
            // do not let a small result pin the large emit buffer.
            if data.capacity() > 2 * data.len() {
                data.shrink_to_fit();
            }
            data.len() / arity
        };
        Rows { arity, len, data }
    }

    /// The union of row sets of one arity.
    pub(crate) fn union(arity: usize, parts: Vec<Rows>) -> Self {
        let emitted = parts.iter().map(Rows::len).sum();
        let mut data = Vec::with_capacity(arity * emitted);
        for part in &parts {
            debug_assert_eq!(part.arity, arity, "union-compatible parts");
            data.extend_from_slice(&part.data);
        }
        Rows::from_flat(arity, emitted, data)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of columns of every row.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The rows in lexicographic order, each a slice of `arity` values.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            rows: self,
            next: 0,
        }
    }

    /// The values of one column, in row order.
    pub(crate) fn column(&self, pos: usize) -> impl Iterator<Item = NodeId> + '_ {
        debug_assert!(pos < self.arity);
        self.data.iter().skip(pos).step_by(self.arity).copied()
    }
}

/// Iterator over the rows of a [`Rows`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    rows: &'a Rows,
    next: usize,
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a [NodeId];

    #[inline]
    fn next(&mut self) -> Option<&'a [NodeId]> {
        if self.next == self.rows.len {
            return None;
        }
        let arity = self.rows.arity;
        let start = self.next * arity;
        self.next += 1;
        Some(&self.rows.data[start..start + arity])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.rows.len - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a Rows {
    type Item = &'a [NodeId];
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl std::fmt::Debug for Rows {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A row packed into one integer whose order is the row's
/// lexicographic order.
trait PackedKey: Ord + Copy {
    fn pack(row: &[NodeId]) -> Self;
    fn unpack(self, row: &mut [NodeId]);
}

macro_rules! packed_key {
    ($key:ty) => {
        impl PackedKey for $key {
            #[inline]
            fn pack(row: &[NodeId]) -> Self {
                row.iter().fold(0, |key, n| (key << 32) | n.raw() as $key)
            }

            #[inline]
            fn unpack(mut self, row: &mut [NodeId]) {
                for slot in row.iter_mut().rev() {
                    *slot = NodeId::new(self as u32);
                    self >>= 32;
                }
            }
        }
    };
}

packed_key!(u64);
packed_key!(u128);

/// Sorts the rows of a flat buffer and removes duplicates.
fn normalize(arity: usize, data: &mut Vec<NodeId>) {
    let rows = data.chunks_exact(arity);
    if rows.clone().zip(rows.skip(1)).all(|(a, b)| a < b) {
        return;
    }
    match arity {
        1 => {
            data.sort_unstable();
            data.dedup();
        }
        2 => normalize_packed::<u64>(arity, data),
        3 | 4 => normalize_packed::<u128>(arity, data),
        _ => normalize_wide(arity, data),
    }
}

fn normalize_packed<K: PackedKey>(arity: usize, data: &mut Vec<NodeId>) {
    let mut keys: Vec<K> = data.chunks_exact(arity).map(K::pack).collect();
    keys.sort_unstable();
    keys.dedup();
    data.truncate(keys.len() * arity);
    for (key, row) in keys.into_iter().zip(data.chunks_exact_mut(arity)) {
        key.unpack(row);
    }
}

/// Rows too wide for a machine-word key: sort row indices by slice
/// comparison, then copy the distinct rows out in order.
fn normalize_wide(arity: usize, data: &mut Vec<NodeId>) {
    let row = |i: u32| &data[i as usize * arity..(i as usize + 1) * arity];
    let mut order: Vec<u32> = (0..(data.len() / arity) as u32).collect();
    order.sort_unstable_by(|&a, &b| row(a).cmp(row(b)));
    order.dedup_by(|a, b| row(*a) == row(*b));
    let mut out = Vec::with_capacity(order.len() * arity);
    for &i in &order {
        out.extend_from_slice(row(i));
    }
    *data = out;
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgq_common::Rng;

    /// The reference: one slice per row through the standard sort.
    fn reference(arity: usize, flat: &[NodeId]) -> Vec<&[NodeId]> {
        let mut rows: Vec<&[NodeId]> = flat.chunks_exact(arity).collect();
        rows.sort_unstable();
        rows.dedup();
        rows
    }

    #[test]
    fn normalisation_matches_the_reference_at_every_arity() {
        let mut rng = Rng::seed_from_u64(0xf1a7);
        for arity in 1..=5 {
            for emitted in [0, 1, 2, 7, 300] {
                // A small value range forces duplicates and long common
                // prefixes; the large values exercise the high key bits.
                let flat: Vec<NodeId> = (0..arity * emitted)
                    .map(|_| match rng.gen_range(0..4) {
                        0 => NodeId::new(u32::MAX - rng.gen_range(0..2) as u32),
                        _ => NodeId::new(rng.gen_range(0..3) as u32),
                    })
                    .collect();
                let rows = Rows::from_flat(arity, emitted, flat.clone());
                let want = reference(arity, &flat);
                assert_eq!(rows.arity(), arity);
                assert_eq!(rows.len(), want.len(), "arity {arity}, {emitted} rows");
                assert!(rows.iter().eq(want.iter().copied()));
                // Canonical input comes back unchanged.
                let again = Rows::from_flat(arity, rows.len(), rows.data.clone());
                assert_eq!(again, rows);
            }
        }
    }

    #[test]
    fn zero_column_tables_hold_at_most_one_row() {
        assert_eq!(Rows::unit().len(), 1);
        assert_eq!(Rows::from_flat(0, 5, Vec::new()).len(), 1);
        assert!(Rows::from_flat(0, 0, Vec::new()).is_empty());
        assert_eq!(Rows::unit().iter().next(), Some(&[][..]));
    }

    #[test]
    fn union_merges_and_dedups() {
        let n = NodeId::new;
        let a = Rows::from_flat(2, 2, vec![n(3), n(1), n(1), n(2)]);
        let b = Rows::from_flat(2, 2, vec![n(1), n(2), n(0), n(9)]);
        let u = Rows::union(2, vec![a, b]);
        let got: Vec<&[NodeId]> = u.iter().collect();
        assert_eq!(got, [[n(0), n(9)], [n(1), n(2)], [n(3), n(1)]]);
        assert_eq!(u.column(1).collect::<Vec<_>>(), [n(9), n(2), n(1)]);
    }
}
