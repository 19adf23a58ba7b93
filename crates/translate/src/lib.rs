//! The Translator module of the paper's architecture (Fig. 10).
//!
//! * [`ucqt2rra`] — UCQT queries to recursive relational algebra terms,
//!   including the conjunction/branching rules of Tab. 2,
//! * [`rra2sql`] — RA terms to recursive SQL (`WITH RECURSIVE`), Fig. 15,
//! * [`gp2cypher`] — UCQT queries to Cypher graph patterns (Fig. 16),
//!   with the UC2RPQ expressibility check of §5.5.

#![warn(missing_docs)]

pub mod gp2cypher;
pub mod rra2sql;
pub mod ucqt2rra;

pub use gp2cypher::{cypher_expressible, to_cypher};
pub use rra2sql::to_sql;
pub use ucqt2rra::{cqt_to_term, path_to_term, ucqt_to_term};
