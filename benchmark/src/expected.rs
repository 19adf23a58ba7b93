//! Expected results: the oracle's answer (row count + order-independent
//! hash) to every catalog query. For the default data seed they are
//! checked in under `expected/`, so a drift of the generators or of the
//! oracle itself shows as a mismatch; for any other data seed the oracle
//! runs in-process. Either way the engines' evaluators are not involved.

use std::path::PathBuf;

use crate::layers::{self, parse_json, Dataset, Digest, JsonValue};
use crate::workloads::Workload;

pub const DEFAULT_SEED: u64 = 0x5eed_0011;

fn path(ds: &Dataset) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("expected")
        .join(format!("{}.json", ds.spec.tag()))
}

/// The oracle's digest of every catalog query of `ds`.
fn oracle(ds: &Dataset) -> Vec<Digest> {
    ds.queries
        .iter()
        .map(|(_, text)| layers::oracle(&ds.db, &layers::parse(text, &ds.schema)))
        .collect()
}

/// `--write-expected`: (re)writes the file of a default-seed dataset.
pub fn write(ds: &Dataset) -> std::io::Result<PathBuf> {
    let queries = ds
        .queries
        .iter()
        .zip(oracle(ds))
        .map(|((name, _), d)| {
            JsonValue::obj([
                ("name", JsonValue::str(*name)),
                ("rows", JsonValue::Int(d.rows)),
                // Hex string: a u64 does not survive a JSON float.
                ("hash", JsonValue::str(format!("{:016x}", d.hash))),
            ])
        })
        .collect();
    let doc = JsonValue::obj([
        ("dataset", JsonValue::str(ds.spec.tag())),
        ("seed", JsonValue::Int(DEFAULT_SEED)),
        ("queries", JsonValue::Arr(queries)),
    ]);
    let path = path(ds);
    std::fs::create_dir_all(path.parent().expect("expected/ has a parent"))?;
    std::fs::write(&path, doc.render().replace("}, {", "},\n  {") + "\n")?;
    Ok(path)
}

fn read(ds: &Dataset) -> Result<Vec<Digest>, String> {
    let path = path(ds);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("{}: {e} (run --write-expected)", path.display()))?;
    let doc = parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let entries = doc
        .get("queries")
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| format!("{}: no `queries` array", path.display()))?;
    if entries.len() != ds.queries.len() {
        return Err(format!("{}: catalog size changed", path.display()));
    }
    entries
        .iter()
        .zip(&ds.queries)
        .map(|(e, (name, _))| {
            let named = e.get("name").and_then(JsonValue::as_str) == Some(name);
            let rows = e.get("rows").and_then(JsonValue::as_u64);
            let hash = e
                .get("hash")
                .and_then(JsonValue::as_str)
                .and_then(|h| u64::from_str_radix(h, 16).ok());
            match (named, rows, hash) {
                (true, Some(rows), Some(hash)) => Ok(Digest { rows, hash }),
                _ => Err(format!("{}: bad entry for {name}", path.display())),
            }
        })
        .collect()
}

/// The expected digest of every statement of `workload`.
pub fn for_workload(workload: &dyn Workload, data_seed: u64) -> Result<Vec<Digest>, String> {
    let per_dataset: Vec<Vec<Digest>> = workload
        .datasets()
        .iter()
        .map(|ds| {
            if data_seed == DEFAULT_SEED {
                read(ds)
            } else {
                Ok(oracle(ds))
            }
        })
        .collect::<Result<_, _>>()?;
    Ok(workload
        .stmts()
        .iter()
        .map(|s| per_dataset[s.ds][s.query])
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::DatasetSpec;

    #[test]
    fn row_hash_ignores_order_but_not_content() {
        let a = Digest::of_pairs([(1, 2), (3, 4), (5, 6)].into_iter());
        let b = Digest::of_pairs([(5, 6), (1, 2), (3, 4)].into_iter());
        assert_eq!(a, b);
        assert_eq!(a.rows, 3);
        assert_ne!(a, Digest::of_pairs([(1, 2), (3, 4), (6, 5)].into_iter()));
        assert_ne!(a, Digest::of_pairs([(1, 2), (3, 4)].into_iter()));
        // Swapped columns are a different row.
        assert_ne!(
            Digest::of_pairs([(1, 2)].into_iter()),
            Digest::of_pairs([(2, 1)].into_iter())
        );
    }

    #[test]
    fn checked_in_file_matches_the_oracle_at_the_default_seed() {
        let ds = layers::generate(DatasetSpec::YagoTiny, DEFAULT_SEED);
        assert_eq!(read(&ds).unwrap(), oracle(&ds));
    }
}
