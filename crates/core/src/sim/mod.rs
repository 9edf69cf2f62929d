//! Similarity functions: the exact fuzzy match similarity `fms` (paper §3)
//! and its indexable approximations `fms_apx` / `fms_t_apx` (paper §4.1 and
//! §5.1).

// Scores are f64 sums; a hash container here would make them depend on
// the hasher seed (clippy.toml names the types).
#![deny(clippy::disallowed_types)]

pub mod approx;
pub mod fms;

pub use approx::{fms_apx, fms_t_apx};
pub use fms::{PreparedInput, RowSketch, Similarity};
