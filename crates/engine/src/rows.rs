//! The graph engine's one row representation: a flat, row-major table.
//!
//! [`Rows`] is both the binding table every step of the pattern executor
//! reads and writes and the result the engine hands back: `arity` values
//! per row in one `Vec<NodeId>`, always *canonical* (rows sorted
//! lexicographically, duplicates removed). Writing a row allocates
//! nothing; a lone leaf's table in head order is the answer, moved, not
//! copied. A step that cannot keep its output in order normalises it
//! once: each row is packed into one integer key (`u64` up to two
//! columns, `u128` up to four) so the sort compares machine words; wider
//! rows, which no catalog query builds, sort as one vector each.

use sgq_common::NodeId;

/// A canonical set of fixed-arity rows over node ids.
#[derive(Clone, PartialEq, Eq)]
pub struct Rows {
    arity: usize,
    /// Row count, kept beside `data` so that the zero-column table the
    /// first step extends (one empty row) is representable.
    len: usize,
    data: Vec<NodeId>,
}

impl Rows {
    /// One row of no columns: the table before a pattern's first step.
    pub(crate) fn unit() -> Self {
        Rows {
            arity: 0,
            len: 1,
            data: Vec::new(),
        }
    }

    /// `data`, row-major rows of `arity >= 1` columns, already canonical.
    pub(crate) fn canonical(arity: usize, data: Vec<NodeId>) -> Self {
        debug_assert!(data.chunks_exact(arity).is_sorted_by(|a, b| a < b));
        let len = data.len() / arity;
        Rows { arity, len, data }
    }

    /// Canonicalises `emitted` rows written row-major into `data`.
    pub(crate) fn from_flat(arity: usize, emitted: usize, mut data: Vec<NodeId>) -> Self {
        debug_assert_eq!(data.len(), arity * emitted, "flat data must be row-major");
        let len = if arity == 0 {
            emitted.min(1)
        } else {
            normalize(arity, &mut data);
            // A step can write far more rows than survive deduplication;
            // do not let a small result pin the large buffer.
            if data.capacity() > 2 * data.len() {
                data.shrink_to_fit();
            }
            data.len() / arity
        };
        Rows { arity, len, data }
    }

    /// The union of `parts`, each a table and the column of it that each
    /// of the union's `arity` columns reads. One part read in order is
    /// the union as it is, moved, not copied.
    pub(crate) fn union(arity: usize, mut parts: Vec<(Rows, &[usize])>) -> Self {
        let in_order = |(t, cols): &(Rows, &[usize])| cols.iter().copied().eq(0..t.arity);
        // Canonical runs, which a stable sort merges.
        let runs = parts.iter().all(in_order);
        if runs && parts.len() == 1 {
            return parts.pop().expect("one part").0;
        }
        let parts: Vec<Part<'_>> = parts
            .iter()
            .map(|(t, cols)| (&t.data[..], t.arity, *cols))
            .collect();
        Rows::canonical(arity, sorted(arity, &parts, runs))
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
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[NodeId]> + Clone + '_ {
        let arity = self.arity;
        (0..self.len).map(move |i| &self.data[i * arity..(i + 1) * arity])
    }

    /// The rows, row-major.
    pub(crate) fn data(&self) -> &[NodeId] {
        &self.data
    }

    /// The values of one column, in row order.
    pub(crate) fn column(&self, pos: usize) -> impl Iterator<Item = NodeId> + '_ {
        debug_assert!(pos < self.arity);
        self.data.iter().skip(pos).step_by(self.arity).copied()
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
    fn pack<const N: usize>(row: [NodeId; N]) -> Self;
    fn unpack<const N: usize>(self) -> [NodeId; N];
}

macro_rules! packed_key {
    ($key:ty) => {
        impl PackedKey for $key {
            #[inline]
            fn pack<const N: usize>(row: [NodeId; N]) -> Self {
                row.iter().fold(0, |key, n| (key << 32) | n.raw() as $key)
            }

            #[inline]
            fn unpack<const N: usize>(self) -> [NodeId; N] {
                std::array::from_fn(|i| NodeId::new((self >> (32 * (N - 1 - i))) as u32))
            }
        }
    };
}

packed_key!(u64);
packed_key!(u128);

/// Rows to sort: row-major `data` of `width` columns, each row read as
/// its columns `cols`.
type Part<'a> = (&'a [NodeId], usize, &'a [usize]);

/// Sorts the rows of a flat buffer and removes duplicates.
fn normalize(arity: usize, data: &mut Vec<NodeId>) {
    let rows = data.chunks_exact(arity);
    if !rows.clone().zip(rows.skip(1)).all(|(a, b)| a < b) {
        let all: Vec<usize> = (0..arity).collect();
        *data = sorted(arity, &[(data, arity, &all)], false);
    }
}

/// The distinct rows of `parts`, sorted: stably when they are canonical
/// `runs`, which the stable sort merges. Rows of up to four columns sort
/// as one packed integer key each; wider rows as one vector each.
fn sorted(arity: usize, parts: &[Part<'_>], runs: bool) -> Vec<NodeId> {
    match arity {
        1 => sorted_keys::<1, u64>(parts, runs),
        2 => sorted_keys::<2, u64>(parts, runs),
        3 => sorted_keys::<3, u128>(parts, runs),
        4 => sorted_keys::<4, u128>(parts, runs),
        _ => {
            let mut rows: Vec<Vec<NodeId>> = Vec::new();
            for &(data, width, cols) in parts {
                let data = data.chunks_exact(width);
                rows.extend(data.map(|r| cols.iter().map(|&c| r[c]).collect()));
            }
            rows.sort_unstable();
            rows.dedup();
            rows.concat()
        }
    }
}

fn sorted_keys<const N: usize, K: PackedKey>(parts: &[Part<'_>], runs: bool) -> Vec<NodeId> {
    let mut keys: Vec<K> = Vec::new();
    for &(rows, width, cols) in parts {
        let rows = rows.chunks_exact(width);
        keys.extend(rows.map(|r| K::pack::<N>(std::array::from_fn(|i| r[cols[i]]))));
    }
    match runs {
        true => keys.sort(),
        false => keys.sort_unstable(),
    }
    keys.dedup();
    let rows: Vec<[NodeId; N]> = keys.into_iter().map(K::unpack).collect();
    rows.into_flattened()
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
        let in_order = [0, 1];
        let u = Rows::union(2, vec![(a.clone(), &in_order[..]), (b, &in_order)]);
        let got: Vec<&[NodeId]> = u.iter().collect();
        assert_eq!(got, [[n(0), n(9)], [n(1), n(2)], [n(3), n(1)]]);
        assert_eq!(u.column(1).collect::<Vec<_>>(), [n(9), n(2), n(1)]);
        // One part read in order is the union; read swapped, it sorts.
        assert_eq!(Rows::union(2, vec![(a.clone(), &in_order)]), a);
        let swapped = Rows::union(2, vec![(a, &[1, 0][..])]);
        let got: Vec<&[NodeId]> = swapped.iter().collect();
        assert_eq!(got, [[n(1), n(3)], [n(2), n(1)]]);
    }
}
