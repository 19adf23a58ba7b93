//! The two execution axes shared across the workspace: which engine
//! runs a query ([`Backend`]) and whether the paper's schema-based
//! rewrite is applied first ([`Approach`]).
//!
//! These are vocabulary types, not behaviour: the experiment harness
//! keys its records on them, the serving layer keys its plan cache on
//! them, and both must agree on the variants and their
//! rendered names — so they live here, below both.

/// Which engine executes a query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Backend {
    /// The property-graph engine (the Neo4j stand-in).
    Graph,
    /// The recursive relational algebra engine with the logical
    /// optimiser (the PostgreSQL stand-in).
    #[default]
    Relational,
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backend::Graph => write!(f, "graph"),
            Backend::Relational => write!(f, "relational"),
        }
    }
}

/// Baseline (initial query) or the schema-based rewrite (§5.1.4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Approach {
    /// The initial, non-enriched query.
    Baseline,
    /// The schema-enriched query (running the baseline plan on reverts).
    #[default]
    Schema,
}

impl std::fmt::Display for Approach {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Approach::Baseline => write!(f, "B"),
            Approach::Schema => write!(f, "S"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_are_stable() {
        // Experiment records embed these strings; changing them
        // invalidates stored artifacts.
        assert_eq!(Backend::Graph.to_string(), "graph");
        assert_eq!(Backend::Relational.to_string(), "relational");
        assert_eq!(Approach::Baseline.to_string(), "B");
        assert_eq!(Approach::Schema.to_string(), "S");
    }
}
