//! Interned column and recursion-variable names.
//!
//! The RA layer works exclusively with dense [`ColId`] / [`RecVarId`]
//! ids: every schema comparison, join-key lookup and optimizer pass is a
//! `u32` comparison, never a string compare, and cloning a schema is a
//! `memcpy` of 4-byte ids. Human-readable names survive only at the
//! system's edges — the translator interns them on the way in, and
//! `explain`/SQL rendering resolves them on the way out — through this
//! table.
//!
//! The table is owned by [`crate::storage::RelStore`] (one id space per
//! loaded database) and is internally synchronised, so producers
//! (translation) and consumers (execution, explain) share `&SymbolTable`
//! freely; hot paths never touch it.

use std::sync::Mutex;

use sgq_common::{ColId, Interner, RecVarId};

/// Two-sided interner: column names and fixpoint recursion variables.
///
/// All methods take `&self`; the table is internally synchronised. `Sr`
/// and `Tr` (the paper's Fig. 11 storage columns) are pre-interned to
/// [`SymbolTable::SR`] and [`SymbolTable::TR`] so [`crate::RelStore`]
/// tables can be built without touching the lock.
#[derive(Debug)]
pub struct SymbolTable {
    inner: Mutex<Inner>,
}

/// Same as [`SymbolTable::new`]: `Sr`/`Tr` are always pre-interned, so
/// a defaulted table can never hand out a column id that collides with
/// the storage columns.
impl Default for SymbolTable {
    fn default() -> Self {
        Self::new()
    }
}

#[derive(Debug, Default)]
struct Inner {
    cols: Interner,
    recvars: Interner,
}

impl SymbolTable {
    /// The pre-interned `Sr` (source / node id) storage column.
    pub const SR: ColId = ColId(0);
    /// The pre-interned `Tr` (target) storage column.
    pub const TR: ColId = ColId(1);

    /// Creates a table with `Sr`/`Tr` pre-interned.
    pub fn new() -> Self {
        let table = SymbolTable {
            inner: Mutex::new(Inner::default()),
        };
        assert_eq!(table.col(crate::storage::SR), Self::SR);
        assert_eq!(table.col(crate::storage::TR), Self::TR);
        table
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Interns a column name.
    pub fn col(&self, name: &str) -> ColId {
        ColId(self.lock().cols.intern(name))
    }

    /// Interns several column names at once.
    pub fn cols(&self, names: &[&str]) -> Vec<ColId> {
        let mut inner = self.lock();
        names.iter().map(|n| ColId(inner.cols.intern(n))).collect()
    }

    /// Resolves a column id to its name.
    ///
    /// Foreign ids (from another table) render as `c{raw}` rather than
    /// panicking, so plans stay printable even when mixed up.
    pub fn col_name(&self, id: ColId) -> String {
        self.lock()
            .cols
            .try_resolve(id.raw())
            .map(str::to_owned)
            .unwrap_or_else(|| id.to_string())
    }

    /// Resolves several column ids, joined by `sep` — the common
    /// rendering need of `explain` and the SQL printer.
    pub fn col_list(&self, ids: &[ColId], sep: &str) -> String {
        let inner = self.lock();
        ids.iter()
            .map(|id| {
                inner
                    .cols
                    .try_resolve(id.raw())
                    .map(str::to_owned)
                    .unwrap_or_else(|| id.to_string())
            })
            .collect::<Vec<_>>()
            .join(sep)
    }

    /// Interns a recursion-variable name.
    pub fn recvar(&self, name: &str) -> RecVarId {
        RecVarId(self.lock().recvars.intern(name))
    }

    /// Resolves a recursion-variable id to its name (or `X{raw}` for
    /// foreign ids).
    pub fn recvar_name(&self, id: RecVarId) -> String {
        self.lock()
            .recvars
            .try_resolve(id.raw())
            .map(str::to_owned)
            .unwrap_or_else(|| id.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sr_tr_are_pre_interned() {
        let t = SymbolTable::new();
        assert_eq!(t.col("Sr"), SymbolTable::SR);
        assert_eq!(t.col("Tr"), SymbolTable::TR);
        assert_eq!(t.col_name(SymbolTable::SR), "Sr");
    }

    #[test]
    fn col_interning_is_idempotent() {
        let t = SymbolTable::new();
        let x = t.col("x");
        assert_eq!(t.col("x"), x);
        assert_ne!(t.col("y"), x);
        assert_eq!(t.col_name(x), "x");
    }

    #[test]
    fn recvars_are_a_separate_id_space() {
        let t = SymbolTable::new();
        let v = t.recvar("X");
        assert_eq!(v.raw(), 0, "recvar ids do not share the column space");
        assert_eq!(t.recvar_name(v), "X");
    }

    #[test]
    fn foreign_ids_render_instead_of_panicking() {
        let t = SymbolTable::new();
        assert_eq!(t.col_name(ColId::new(99)), "c99");
        assert_eq!(t.recvar_name(RecVarId::new(99)), "X99");
    }

    #[test]
    fn col_list_joins_names() {
        let t = SymbolTable::new();
        let ids = t.cols(&["a", "b"]);
        assert_eq!(t.col_list(&ids, ", "), "a, b");
    }
}
