//! # fm-store — embedded relational storage substrate
//!
//! The SIGMOD 2003 fuzzy-match paper requires its index to be "implemented
//! and maintained as a standard relation … deployed even over current
//! operational data warehouses": the Error Tolerant Index is a relation with
//! a clustered B+-tree index, the pre-ETI is sorted by the database's sort
//! operator, and the reference relation is indexed on `Tid`. This crate is
//! that database substrate, built from scratch:
//!
//! * [`page`] — 8 KiB slotted pages;
//! * [`pager`] — file-backed and in-memory page stores, plus a
//!   fault-injecting wrapper for failure testing;
//! * [`buffer`] — a thread-safe buffer pool with clock eviction and pinning;
//! * [`heap`] — heap files of variable-length records addressed by
//!   [`heap::Rid`];
//! * [`keycode`] — order-preserving byte encodings for composite index keys;
//! * [`btree`] — a B+-tree over pages with point lookups and range scans;
//! * [`extsort`] — external merge sort (run generation + k-way merge), used
//!   to build the ETI from the pre-ETI exactly as the paper's "ETI-query"
//!   does with `ORDER BY`;
//! * [`table`] — typed schemas, values, and row codecs;
//! * [`wal`] — a write-ahead-logging pager giving atomic, durable
//!   checkpoints (crash-safe flushes);
//! * [`catalog`] — a [`catalog::Database`] bundling pager + buffer pool +
//!   persistent table/index catalog in a single file.
//!
//! The crate knows nothing about fuzzy matching; `fm-core` composes these
//! pieces into the ETI and the query processor.
//!
//! ```
//! use fm_store::{ColumnType, Database, Schema, Value};
//!
//! let db = Database::in_memory()?;
//! let table = db.create_table(
//!     "customer",
//!     Schema::new(vec![
//!         ("tid", ColumnType::U32, false),
//!         ("name", ColumnType::Text, true),
//!     ]),
//! )?;
//! let rid = table.insert(&vec![Value::U32(1), Value::Text("Boeing Company".into())])?;
//! assert_eq!(table.get(rid)?[1].as_text(), Some("Boeing Company"));
//!
//! let index = db.create_index("customer_by_tid")?;
//! index.insert(&1u32.to_be_bytes(), &rid.to_u64().to_le_bytes())?;
//! assert!(index.get(&1u32.to_be_bytes())?.is_some());
//! # Ok::<(), fm_store::StoreError>(())
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

pub mod btree;
pub mod buffer;
pub mod catalog;
pub mod error;
pub mod extsort;
pub mod heap;
pub mod hooks;
pub mod keycode;
pub mod lockorder;
pub mod page;
pub mod pager;
pub mod table;
pub mod wal;

pub use btree::{BTree, TreeCheck};
pub use buffer::{BufferPool, StoreStats};
pub use catalog::{Database, DatabaseCheck, ObjectCheck};
pub use error::{Result, StoreError};
pub use extsort::ExternalSorter;
pub use heap::{HeapCheck, HeapFile, Rid};
pub use page::{PageId, PAGE_SIZE};
pub use pager::{FaultPager, FilePager, MemPager, Pager};
pub use table::{ColumnType, Row, Schema, Value};
pub use wal::{WalCheck, WalPager};
