//! # fm-core — robust and efficient fuzzy match
//!
//! Reproduction of *Chaudhuri, Ganjam, Ganti, Motwani, "Robust and Efficient
//! Fuzzy Match for Online Data Cleaning", SIGMOD 2003* — the system later
//! shipped as SQL Server Fuzzy Lookup.
//!
//! The pipeline:
//!
//! 1. a clean **reference relation** `R[tid, A1..An]` is loaded into the
//!    [`fm_store`] substrate and indexed on `tid` ([`matcher::FuzzyMatcher::build`]);
//! 2. the build pass derives IDF **token weights** ([`weights`]) and the
//!    **Error Tolerant Index** ([`eti`]) — a standard relation keyed by
//!    `[QGram, Coordinate, Column]` whose rows carry tid-lists of reference
//!    tuples sharing a min-hash coordinate;
//! 3. at query time an erroneous input tuple is matched against `R` by the
//!    probabilistic **query processor** ([`query`]): ETI lookups score
//!    candidate tids under the indexable upper-bound similarity `fms_apx`
//!    ([`sim::approx`]), the best candidates are fetched and verified under
//!    the exact **fuzzy match similarity** `fms` ([`sim::fms`]), optionally
//!    short-circuiting early (OSC, §4.3.2);
//! 4. the K closest reference tuples above the similarity threshold `c` are
//!    returned ([`matcher::MatchResult`]).
//!
//! Baselines from the paper's evaluation — the naïve full scan under `fms`
//! and tuple-level edit distance `ed` — live in [`naive`].
//!
//! ## Quick start
//!
//! ```
//! use fm_core::{Config, FuzzyMatcher, Record};
//! use fm_store::Database;
//!
//! let db = Database::in_memory().unwrap();
//! let config = Config::default().with_columns(&["name", "city", "state", "zip"]);
//! let reference = vec![
//!     Record::new(&["Boeing Company", "Seattle", "WA", "98004"]),
//!     Record::new(&["Bon Corporation", "Seattle", "WA", "98014"]),
//!     Record::new(&["Companions", "Seattle", "WA", "98024"]),
//! ];
//! let matcher = FuzzyMatcher::build(&db, "demo", reference.into_iter(), config).unwrap();
//!
//! // The paper's I1: a misspelled Boeing should match R1 (tid 1).
//! let input = Record::new(&["Beoing Company", "Seattle", "WA", "98004"]);
//! let result = matcher.lookup(&input, 1, 0.0).unwrap();
//! assert_eq!(result.matches[0].tid, 1);
//! ```

#![forbid(unsafe_code)]
// Library hygiene: errors propagate and nothing writes to the terminal.
// Tests are exempt through `clippy.toml`'s `allow-*-in-tests` settings.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::print_stdout,
    clippy::print_stderr
)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod config;
pub mod error;
pub mod eti;
pub mod explain;
pub mod matcher;
pub mod metrics;
pub mod naive;
mod postings;
pub mod query;
pub mod record;
pub mod sim;
pub mod telemetry;
mod tidmap;
pub mod tracing;
pub mod weights;

pub use config::{Config, OscStopping, SignatureScheme, TranspositionCost};
pub use error::{CoreError, Result};
pub use explain::Explain;
pub use matcher::{FuzzyMatcher, Match, MatchResult, MatcherCheck};
pub use metrics::{LookupTrace, MetricsCheck, MetricsRegistry, MetricsSnapshot};
pub use postings::PostingCheck;
pub use query::QueryMode;
pub use record::Record;
pub use telemetry::{PromText, Ring};
pub use tracing::{CompletedTrace, FlightRecorder, SpanRecord, TraceKind};

// Data-race freedom of the shared handles is rustc's to prove (DESIGN.md
// §8): with `unsafe_code` forbidden workspace-wide no crate can write an
// `unsafe impl Send`/`Sync`, so these bounds hold only if every field
// behind every handle is itself safe to share.
const _: fn() = || {
    fn shared<T: Send + Sync>() {}
    shared::<FuzzyMatcher>();
    shared::<fm_store::Database>();
    shared::<fm_store::BufferPool>();
    shared::<fm_store::BTree>();
    shared::<postings::PostingIndex>();
};
