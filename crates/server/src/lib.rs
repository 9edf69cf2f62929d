//! `fm-server` — the online serving layer over [`fm_core::FuzzyMatcher`].
//!
//! The paper's system shipped as SQL Server *Fuzzy Lookup*: a service
//! that cleans incoming tuples at ingestion time, not a batch tool.
//! This crate closes that gap for the reproduction: it exposes a shared
//! matcher over TCP with a length-prefixed JSON protocol
//! ([`protocol`]), lookups run on their own connection threads behind a
//! permit gate ([`gate`]: at most `workers` at once, FIFO waiters),
//! per-request deadlines, admission control with explicit overload
//! replies, and a graceful lossless drain ([`server`]). A blocking [`client`]
//! backs the CLI verbs, the load generator, and the tests.
//!
//! Observability reuses the existing subsystems instead of duplicating
//! them: every lookup runs under the `fm_core::tracing` flight recorder
//! (the `trace_slowest` verb returns its K slowest recent or slow
//! traces remotely), counters land in
//! the matcher's `MetricsRegistry`, and the `stats` verb reports
//! `fm_store` IO accounting alongside serving-layer counters. Beside
//! them sit per-verb queue/service/write phase histograms
//! ([`telemetry`]), and the `metrics` verb renders all of it as
//! Prometheus text exposition. A slow request is the flight recorder's:
//! its threshold is `fm_core::tracing::recorder().set_slow_threshold_us`
//! (`fuzzymatch serve --slow-us`). The server keeps cumulative state
//! only: a window is the difference of two scrapes, taken by the reader
//! (`fuzzymatch top`).
//!
//! See DESIGN.md §9 "Serving layer" for the frame format, threading
//! model, and overload semantics.

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

pub mod client;
pub mod gate;
pub mod json;
pub mod protocol;
pub mod server;
pub mod telemetry;

pub use client::{record_to_json, Client, ClientError, LookupReply, ReplyMatch};
pub use json::Json;
pub use protocol::{FrameReader, Request, MAX_FRAME};
pub use server::{CountersSnapshot, Server, ServerConfig, ServerReport};
pub use telemetry::{ServerTelemetry, VerbSnapshot};
