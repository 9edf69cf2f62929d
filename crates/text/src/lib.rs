//! # fm-text — string kernels for fuzzy matching
//!
//! This crate implements the string-level building blocks of the fuzzy match
//! operation from *Chaudhuri, Ganjam, Ganti, Motwani, "Robust and Efficient
//! Fuzzy Match for Online Data Cleaning", SIGMOD 2003*:
//!
//! * [`mod@tokenize`] — delimiter-based, case-folding tokenization (paper §3);
//! * [`edit_distance`] — character edit distance normalized by the longer
//!   string (paper §3, "Edit Distance");
//! * [`qgram`] — q-gram sets of tokens (paper §4.1, "Q-gram Set");
//! * [`mod@jaccard`] — the Jaccard coefficient between sets (paper §4.1);
//! * [`minhash`] — min-hash signatures over q-gram sets (paper §4.1,
//!   "Min-hash Similarity");
//! * [`lsh`] — banding of those signatures into seeded band keys (the
//!   b×r LSH construction) with the `1-(1-s^r)^b` tuning curve. No matcher
//!   path uses it: it is kept only for the benchmark's `text.band_keys_ns`
//!   probe, and removed when ROADMAP 7a folds the benchmark into the
//!   workspace;
//! * [`hash`] — the deterministic seeded hash functions everything above is
//!   built on;
//! * [`fingerprint`] — per-token length + character-bag prints that bound
//!   edit distance from below, computable from a raw attribute value.
//!
//! The crate is deliberately free of any relational or weighting concerns:
//! columns, IDF weights and the similarity functions live in `fm-core`.

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

pub mod edit_distance;
pub mod fingerprint;
pub mod hash;
pub mod jaccard;
pub mod lsh;
pub mod minhash;
pub mod qgram;
pub mod tokenize;

pub use edit_distance::{levenshtein, normalized_edit_distance, EditBuffer};
pub use fingerprint::{TokenPrint, TokenSketch};
pub use jaccard::jaccard;
pub use lsh::{collision_probability, Bander};
pub use minhash::{MinHasher, Signature};
pub use qgram::{qgram_set, qgram_similarity_upper_bound};
pub use tokenize::{tokenize, tokenize_into, Tokenizer};
