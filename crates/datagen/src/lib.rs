//! # fm-datagen — synthetic evaluation data
//!
//! The paper evaluates on a **proprietary** 1.7M-tuple
//! `Customer[name, city, state, zipcode]` relation from an internal
//! Microsoft warehouse, creating erroneous input datasets by corrupting
//! randomly chosen reference tuples (§6.1). That relation is unavailable;
//! this crate synthesizes a stand-in that reproduces the properties the
//! evaluation actually depends on (see DESIGN.md §1):
//!
//! * Zipf-skewed token frequencies — the fuel for IDF weighting and OSC;
//! * realistic token length variation — what separates `ed` from `fms`;
//! * multi-token names, correlated city/state/zip;
//! * full determinism from a `u64` seed.
//!
//! [`errors`] implements the paper's Table 4 exactly: per-column error
//! probabilities, six error types with the published conditional
//! probabilities, and the **Type I** (uniform token choice) / **Type II**
//! (frequency-proportional token choice) injection methods.

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

pub mod customer;
pub mod errors;
pub mod pools;

pub use customer::{generate_customers, GeneratorConfig, CUSTOMER_COLUMNS};
pub use errors::{
    make_inputs, ErrorModel, ErrorSpec, InputDataset, D1_PROBS, D2_PROBS, D3_PROBS, ED_VS_FMS_PROBS,
};
