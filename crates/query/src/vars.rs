//! Query-variable allocation.

use sgq_common::VarId;

/// Hands out fresh query variables, never reusing an id.
#[derive(Debug, Clone, Default)]
pub struct VarGen {
    next: u32,
}

impl VarGen {
    /// A generator starting at variable 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// A generator whose first id is greater than every variable in `used`.
    pub fn above(used: impl IntoIterator<Item = VarId>) -> Self {
        let next = used.into_iter().map(|v| v.raw() + 1).max().unwrap_or(0);
        Self { next }
    }

    /// Allocates a fresh variable.
    pub fn fresh(&mut self) -> VarId {
        let v = VarId::new(self.next);
        self.next += 1;
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_is_monotonic() {
        let mut g = VarGen::new();
        let a = g.fresh();
        let b = g.fresh();
        assert_ne!(a, b);
        assert!(a.raw() < b.raw());
    }

    #[test]
    fn above_skips_used() {
        let mut g = VarGen::above([VarId::new(3), VarId::new(1)]);
        assert_eq!(g.fresh(), VarId::new(4));
    }

    #[test]
    fn above_empty_starts_at_zero() {
        let mut g = VarGen::above([]);
        assert_eq!(g.fresh(), VarId::new(0));
    }
}
