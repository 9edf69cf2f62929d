//! The database: one file (or memory region) holding a catalog of named
//! tables and indexes.
//!
//! * Page 0 is the database header (magic, version, catalog root).
//! * Page 1 is the first page of the catalog heap, whose records describe
//!   every named object: tables (heap first page + schema), indexes (B+-tree
//!   root page), and small metadata blobs (the fuzzy-match layer persists
//!   its build configuration there so a matcher can be reopened with the
//!   exact min-hash seeds it was built with).
//!
//! Catalog records are append-only; for metadata keys, the latest record
//! wins on reload. Dropping objects is out of scope (the paper never drops
//! its ETI; it rebuilds).

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::btree::{BTree, TreeCheck};
use crate::buffer::BufferPool;
use crate::error::{Result, StoreError};
use crate::heap::{HeapCheck, HeapFile, Rid};
use crate::lockorder::{Ranked, OBJECTS};
use crate::page::{PageId, PageType, SlottedPageMut};
use crate::pager::{FilePager, MemPager, Pager};
use crate::table::{decode_row, decode_row_into, encode_row, Row, Schema};

const MAGIC: &[u8; 4] = b"FMDB";
const VERSION: u16 = 1;

#[derive(Debug, Clone)]
enum CatalogEntry {
    Table { first_page: PageId, schema: Schema },
    Index { root: PageId },
    Meta { bytes: Vec<u8> },
}

fn encode_entry(name: &str, entry: &CatalogEntry) -> Vec<u8> {
    let mut out = Vec::new();
    let (kind, payload): (u8, Vec<u8>) = match entry {
        CatalogEntry::Table { first_page, schema } => {
            let mut p = first_page.0.to_le_bytes().to_vec();
            p.extend_from_slice(&schema.encode());
            (0, p)
        }
        CatalogEntry::Index { root } => (1, root.0.to_le_bytes().to_vec()),
        CatalogEntry::Meta { bytes } => (2, bytes.clone()),
    };
    out.push(kind);
    out.extend_from_slice(&(name.len() as u16).to_le_bytes());
    out.extend_from_slice(name.as_bytes());
    out.extend_from_slice(&payload);
    out
}

fn decode_entry(bytes: &[u8]) -> Result<(String, CatalogEntry)> {
    if bytes.len() < 3 {
        return Err(StoreError::Corrupt("catalog record too short".into()));
    }
    let kind = bytes[0];
    let name_len = u16::from_le_bytes([bytes[1], bytes[2]]) as usize;
    if bytes.len() < 3 + name_len {
        return Err(StoreError::Corrupt("catalog record truncated name".into()));
    }
    let name = String::from_utf8(bytes[3..3 + name_len].to_vec())
        .map_err(|_| StoreError::Corrupt("catalog name not utf-8".into()))?;
    let payload = &bytes[3 + name_len..];
    let entry = match (kind, payload) {
        (0, [p0, p1, p2, p3, schema @ ..]) => CatalogEntry::Table {
            first_page: PageId(u32::from_le_bytes([*p0, *p1, *p2, *p3])),
            schema: Schema::decode(schema)?,
        },
        (0, _) => return Err(StoreError::Corrupt("catalog table record truncated".into())),
        (1, [p0, p1, p2, p3, ..]) => CatalogEntry::Index {
            root: PageId(u32::from_le_bytes([*p0, *p1, *p2, *p3])),
        },
        (1, _) => return Err(StoreError::Corrupt("catalog index record truncated".into())),
        (2, _) => CatalogEntry::Meta {
            bytes: payload.to_vec(),
        },
        (other, _) => return Err(StoreError::Corrupt(format!("bad catalog kind {other}"))),
    };
    Ok((name, entry))
}

/// Report from [`Database::check_invariants`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatabaseCheck {
    pub tables: usize,
    pub indexes: usize,
    pub meta_blobs: usize,
    /// Every table and index by name, in name order, with its validator's
    /// report (its pages, and an index's leaf fill).
    pub objects: Vec<(String, ObjectCheck)>,
}

/// One catalog object's report inside a [`DatabaseCheck`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectCheck {
    Table(HeapCheck),
    Index(TreeCheck),
}

impl ObjectCheck {
    /// Pages the object occupies.
    #[must_use]
    pub fn pages(&self) -> usize {
        match self {
            ObjectCheck::Table(heap) => heap.pages,
            ObjectCheck::Index(tree) => tree.internal_pages + tree.leaf_pages,
        }
    }
}

/// A database instance.
pub struct Database {
    pool: Arc<BufferPool>,
    catalog: HeapFile,
    objects: Ranked<Mutex<HashMap<String, CatalogEntry>>, OBJECTS>,
}

impl Database {
    /// Open or create a database over an arbitrary pager.
    pub fn with_pager(pager: Box<dyn Pager>, pool_frames: usize) -> Result<Database> {
        let pool = Arc::new(BufferPool::new(pager, pool_frames));
        if pool.page_count() == 0 {
            Self::initialize(pool)
        } else {
            Self::load(pool)
        }
    }

    /// In-memory database (tests, throwaway pipelines).
    pub fn in_memory() -> Result<Database> {
        Self::with_pager(Box::new(MemPager::new()), 4096)
    }

    /// File-backed database at `path`, created if missing.
    ///
    /// No crash safety between flushes: a crash *during* [`Database::flush`]
    /// can tear the file. Use [`Database::open_file_durable`] when that
    /// matters.
    pub fn open_file(path: &Path, pool_frames: usize) -> Result<Database> {
        Self::with_pager(Box::new(FilePager::open(path)?), pool_frames)
    }

    /// File-backed database with write-ahead logging: every
    /// [`Database::flush`] is an atomic, durable checkpoint, and a crash at
    /// any point reopens the database in the state of the last completed
    /// flush (see [`crate::wal::WalPager`]). Costs one extra sequential
    /// write per page write-back.
    pub fn open_file_durable(path: &Path, pool_frames: usize) -> Result<Database> {
        Self::with_pager(Box::new(crate::wal::WalPager::open(path)?), pool_frames)
    }

    fn initialize(pool: Arc<BufferPool>) -> Result<Database> {
        {
            let (id, mut header) = pool.allocate()?;
            debug_assert_eq!(id, PageId(0));
            let mut sp = SlottedPageMut::new(&mut header);
            sp.init(PageType::Meta);
            let mut payload = MAGIC.to_vec();
            payload.extend_from_slice(&VERSION.to_le_bytes());
            sp.push(&payload)?;
        }
        let catalog = HeapFile::create(Arc::clone(&pool))?;
        debug_assert_eq!(catalog.first_page(), PageId(1));
        Ok(Database {
            pool,
            catalog,
            objects: Ranked::new(Mutex::new(HashMap::new())),
        })
    }

    fn load(pool: Arc<BufferPool>) -> Result<Database> {
        {
            let header = pool.get(PageId(0))?;
            let sp = crate::page::SlottedPage::new(&header);
            if sp.page_type()? != PageType::Meta {
                return Err(StoreError::Corrupt("page 0 is not a header page".into()));
            }
            let payload = sp
                .get(0)
                .ok_or_else(|| StoreError::Corrupt("missing database header".into()))?;
            if payload.len() < 6 || &payload[..4] != MAGIC {
                return Err(StoreError::Corrupt("bad database magic".into()));
            }
            let version = u16::from_le_bytes([payload[4], payload[5]]);
            if version != VERSION {
                return Err(StoreError::Corrupt(format!(
                    "unsupported database version {version}"
                )));
            }
        }
        let catalog = HeapFile::open(Arc::clone(&pool), PageId(1));
        let mut objects = HashMap::new();
        for record in catalog.scan() {
            let (_, bytes) = record?;
            let (name, entry) = decode_entry(&bytes)?;
            // Later records win (metadata overwrites).
            objects.insert(name, entry);
        }
        Ok(Database {
            pool,
            catalog,
            objects: Ranked::new(Mutex::new(objects)),
        })
    }

    /// The shared buffer pool (for code composing raw heaps/trees).
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Create a table. Fails if the name exists.
    pub fn create_table(&self, name: &str, schema: Schema) -> Result<Table> {
        let mut objects = self.objects.lock();
        if objects.contains_key(name) {
            return Err(StoreError::AlreadyExists(name.to_string()));
        }
        let heap = HeapFile::create(Arc::clone(&self.pool))?;
        let entry = CatalogEntry::Table {
            first_page: heap.first_page(),
            schema: schema.clone(),
        };
        self.catalog.insert(&encode_entry(name, &entry))?;
        objects.insert(name.to_string(), entry);
        Ok(Table {
            heap,
            schema,
            name: name.to_string(),
        })
    }

    /// Open an existing table.
    pub fn open_table(&self, name: &str) -> Result<Table> {
        let objects = self.objects.lock();
        match objects.get(name) {
            Some(CatalogEntry::Table { first_page, schema }) => Ok(Table {
                heap: HeapFile::open(Arc::clone(&self.pool), *first_page),
                schema: schema.clone(),
                name: name.to_string(),
            }),
            Some(_) => Err(StoreError::SchemaMismatch(format!("{name} is not a table"))),
            None => Err(StoreError::NotFound(name.to_string())),
        }
    }

    /// Create a B+-tree index. Fails if the name exists.
    pub fn create_index(&self, name: &str) -> Result<BTree> {
        let mut objects = self.objects.lock();
        if objects.contains_key(name) {
            return Err(StoreError::AlreadyExists(name.to_string()));
        }
        let tree = BTree::create(Arc::clone(&self.pool))?;
        let entry = CatalogEntry::Index { root: tree.root() };
        self.catalog.insert(&encode_entry(name, &entry))?;
        objects.insert(name.to_string(), entry);
        Ok(tree)
    }

    /// Open an existing index.
    pub fn open_index(&self, name: &str) -> Result<BTree> {
        let objects = self.objects.lock();
        match objects.get(name) {
            Some(CatalogEntry::Index { root }) => Ok(BTree::open(Arc::clone(&self.pool), *root)),
            Some(_) => Err(StoreError::SchemaMismatch(format!(
                "{name} is not an index"
            ))),
            None => Err(StoreError::NotFound(name.to_string())),
        }
    }

    /// Whether any catalog object with this name exists.
    #[must_use]
    pub fn contains(&self, name: &str) -> bool {
        self.objects.lock().contains_key(name)
    }

    /// Store a small metadata blob under `key` (overwrites).
    pub fn put_meta(&self, key: &str, bytes: &[u8]) -> Result<()> {
        let entry = CatalogEntry::Meta {
            bytes: bytes.to_vec(),
        };
        self.catalog.insert(&encode_entry(key, &entry))?;
        self.objects.lock().insert(key.to_string(), entry);
        Ok(())
    }

    /// Fetch a metadata blob.
    pub fn get_meta(&self, key: &str) -> Option<Vec<u8>> {
        match self.objects.lock().get(key) {
            Some(CatalogEntry::Meta { bytes }) => Some(bytes.clone()),
            _ => None,
        }
    }

    /// Write all dirty pages and fsync.
    pub fn flush(&self) -> Result<()> {
        self.pool.flush()
    }

    /// Cumulative IO accounting for this database: buffer-pool traffic,
    /// physical page IO, and WAL bytes. See [`crate::buffer::StoreStats`].
    pub fn stats(&self) -> crate::buffer::StoreStats {
        self.pool.store_stats()
    }

    /// Validate the whole database: the header page, the catalog heap, and
    /// every cataloged object (tables check their heap chain and decode
    /// every row against the stored schema; indexes run the full B+-tree
    /// structural check). Errors name the failing object.
    pub fn check_invariants(&self) -> Result<DatabaseCheck> {
        {
            let header = self.pool.get(PageId(0))?;
            let sp = crate::page::SlottedPage::new(&header);
            sp.check_invariants()
                .map_err(|e| StoreError::Corrupt(format!("database header page: {e}")))?;
            if sp.page_type()? != PageType::Meta {
                return Err(StoreError::Corrupt("page 0 is not a header page".into()));
            }
        }
        self.catalog
            .check_invariants()
            .map_err(|e| StoreError::Corrupt(format!("catalog heap: {e}")))?;
        let objects = self.objects.lock();
        let mut check = DatabaseCheck {
            tables: 0,
            indexes: 0,
            meta_blobs: 0,
            objects: Vec::new(),
        };
        for (name, entry) in objects.iter() {
            match entry {
                CatalogEntry::Table { first_page, schema } => {
                    let heap = HeapFile::open(Arc::clone(&self.pool), *first_page);
                    let pages = heap
                        .check_invariants()
                        .map_err(|e| StoreError::Corrupt(format!("table {name:?}: {e}")))?;
                    for record in heap.scan() {
                        let (rid, bytes) = record?;
                        decode_row(schema, &bytes)
                            .and_then(|row| schema.check(&row))
                            .map_err(|e| {
                                StoreError::Corrupt(format!(
                                    "table {name:?} row at {rid:?} violates its \
                                     schema: {e}"
                                ))
                            })?;
                    }
                    check.tables += 1;
                    check
                        .objects
                        .push((name.clone(), ObjectCheck::Table(pages)));
                }
                CatalogEntry::Index { root } => {
                    let pages = BTree::open(Arc::clone(&self.pool), *root)
                        .check_invariants()
                        .map_err(|e| StoreError::Corrupt(format!("index {name:?}: {e}")))?;
                    check.indexes += 1;
                    check
                        .objects
                        .push((name.clone(), ObjectCheck::Index(pages)));
                }
                CatalogEntry::Meta { .. } => check.meta_blobs += 1,
            }
        }
        check.objects.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        Ok(check)
    }
}

/// A typed table: heap file + schema.
pub struct Table {
    heap: HeapFile,
    schema: Schema,
    name: String,
}

impl Table {
    /// A second handle onto the same table, sharing the heap file's pool
    /// and tail hint (see [`HeapFile::clone_handle`]).
    #[must_use]
    pub fn clone_handle(&self) -> Table {
        Table {
            heap: self.heap.clone_handle(),
            schema: self.schema.clone(),
            name: self.name.clone(),
        }
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Insert a row, returning its [`Rid`].
    pub fn insert(&self, row: &Row) -> Result<Rid> {
        let bytes = encode_row(&self.schema, row)?;
        self.heap.insert(&bytes)
    }

    /// Fetch the row at `rid`.
    pub fn get(&self, rid: Rid) -> Result<Row> {
        let bytes = self.heap.get(rid)?;
        decode_row(&self.schema, &bytes)
    }

    /// Delete the row at `rid`.
    pub fn delete(&self, rid: Rid) -> Result<()> {
        self.heap.delete(rid)
    }

    /// Visit every row as `(Rid, &Row)`, decoded straight from its page
    /// into one reused row (`HeapFile::for_each`): a full scan with no
    /// per-row allocation.
    pub fn for_each(&self, mut visit: impl FnMut(Rid, &Row) -> Result<()>) -> Result<()> {
        let mut row = Vec::new();
        self.heap.for_each(|rid, bytes| {
            decode_row_into(&self.schema, bytes, &mut row)?;
            visit(rid, &row)
        })
    }

    /// Scan all rows as `(Rid, Row)`.
    pub fn scan(&self) -> impl Iterator<Item = Result<(Rid, Row)>> + '_ {
        self.heap.scan().map(move |record| {
            let (rid, bytes) = record?;
            Ok((rid, decode_row(&self.schema, &bytes)?))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{ColumnType, Value};

    fn customer_schema() -> Schema {
        Schema::new(vec![
            ("tid", ColumnType::U32, false),
            ("name", ColumnType::Text, false),
            ("city", ColumnType::Text, true),
        ])
    }

    #[test]
    fn create_insert_scan() {
        let db = Database::in_memory().unwrap();
        let t = db.create_table("customer", customer_schema()).unwrap();
        let rid = t
            .insert(&vec![
                Value::U32(1),
                Value::Text("Boeing Company".into()),
                Value::Text("Seattle".into()),
            ])
            .unwrap();
        let row = t.get(rid).unwrap();
        assert_eq!(row[1].as_text(), Some("Boeing Company"));
        assert_eq!(t.scan().count(), 1);
        let bon = vec![Value::U32(2), Value::Text("Bon".into()), Value::Null];
        t.insert(&bon).unwrap();
        // `for_each`'s reused row decodes each row as `scan` does.
        let mut visited = Vec::new();
        t.for_each(|rid, row| {
            visited.push((rid, row.clone()));
            Ok(())
        })
        .unwrap();
        assert_eq!(visited, t.scan().collect::<Result<Vec<_>>>().unwrap());
        assert_eq!(visited[1].1, bon);
    }

    #[test]
    fn duplicate_names_rejected() {
        let db = Database::in_memory().unwrap();
        db.create_table("t", customer_schema()).unwrap();
        assert!(matches!(
            db.create_table("t", customer_schema()),
            Err(StoreError::AlreadyExists(_))
        ));
        assert!(matches!(
            db.create_index("t"),
            Err(StoreError::AlreadyExists(_))
        ));
    }

    #[test]
    fn open_missing_object() {
        let db = Database::in_memory().unwrap();
        assert!(matches!(
            db.open_table("nope"),
            Err(StoreError::NotFound(_))
        ));
        assert!(matches!(
            db.open_index("nope"),
            Err(StoreError::NotFound(_))
        ));
    }

    #[test]
    fn kind_confusion_rejected() {
        let db = Database::in_memory().unwrap();
        db.create_table("t", customer_schema()).unwrap();
        db.create_index("i").unwrap();
        assert!(db.open_table("i").is_err());
        assert!(db.open_index("t").is_err());
    }

    #[test]
    fn meta_round_trip_and_overwrite() {
        let db = Database::in_memory().unwrap();
        assert_eq!(db.get_meta("cfg"), None);
        db.put_meta("cfg", b"v1").unwrap();
        assert_eq!(db.get_meta("cfg"), Some(b"v1".to_vec()));
        db.put_meta("cfg", b"v2-new").unwrap();
        assert_eq!(db.get_meta("cfg"), Some(b"v2-new".to_vec()));
    }

    #[test]
    fn persistence_across_reopen() {
        let mut path = std::env::temp_dir();
        path.push(format!("fm-store-catalog-{}.db", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let rid;
        {
            let db = Database::open_file(&path, 64).unwrap();
            let t = db.create_table("customer", customer_schema()).unwrap();
            rid = t
                .insert(&vec![
                    Value::U32(7),
                    Value::Text("Bon Corporation".into()),
                    Value::Null,
                ])
                .unwrap();
            let idx = db.create_index("customer_tid").unwrap();
            idx.insert(b"\x00\x00\x00\x07", &rid.to_u64().to_le_bytes())
                .unwrap();
            db.put_meta("config", b"q=4 h=3").unwrap();
            db.flush().unwrap();
        }
        {
            let db = Database::open_file(&path, 64).unwrap();
            let t = db.open_table("customer").unwrap();
            let row = t.get(rid).unwrap();
            assert_eq!(row[1].as_text(), Some("Bon Corporation"));
            assert!(row[2].is_null());
            let idx = db.open_index("customer_tid").unwrap();
            let v = idx.get(b"\x00\x00\x00\x07").unwrap().unwrap();
            assert_eq!(
                Rid::from_u64(u64::from_le_bytes(v.try_into().unwrap())),
                rid
            );
            assert_eq!(db.get_meta("config"), Some(b"q=4 h=3".to_vec()));
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_header_rejected() {
        let mut path = std::env::temp_dir();
        path.push(format!("fm-store-catalog-bad-{}.db", std::process::id()));
        // A file with one page of zeroes: page type Free, not Meta.
        std::fs::write(&path, vec![0u8; crate::page::PAGE_SIZE]).unwrap();
        assert!(Database::open_file(&path, 16).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn many_tables_and_indexes() {
        let db = Database::in_memory().unwrap();
        for i in 0..20 {
            let t = db
                .create_table(&format!("t{i}"), customer_schema())
                .unwrap();
            t.insert(&vec![
                Value::U32(i),
                Value::Text(format!("name-{i}")),
                Value::Null,
            ])
            .unwrap();
            db.create_index(&format!("i{i}")).unwrap();
        }
        for i in 0..20 {
            let t = db.open_table(&format!("t{i}")).unwrap();
            let rows: Vec<_> = t.scan().map(|r| r.unwrap().1).collect();
            assert_eq!(rows.len(), 1);
            assert_eq!(rows[0][0].as_u32(), Some(i));
            assert!(db.contains(&format!("i{i}")));
        }
    }

    #[test]
    fn check_invariants_accepts_healthy_database() {
        let db = Database::in_memory().unwrap();
        let t = db.create_table("customer", customer_schema()).unwrap();
        t.insert(&vec![
            Value::U32(1),
            Value::Text("acme".into()),
            Value::Null,
        ])
        .unwrap();
        db.create_index("by_tid").unwrap();
        db.put_meta("cfg", b"q=3").unwrap();
        let check = db.check_invariants().unwrap();
        assert_eq!((check.tables, check.indexes, check.meta_blobs), (1, 1, 1));
        let named: Vec<_> = check
            .objects
            .iter()
            .map(|(n, o)| (n.as_str(), o.pages()))
            .collect();
        assert_eq!(named, [("by_tid", 1), ("customer", 1)]);
    }

    #[test]
    fn check_invariants_detects_undecodable_row() {
        let db = Database::in_memory().unwrap();
        let t = db.create_table("customer", customer_schema()).unwrap();
        t.insert(&vec![
            Value::U32(1),
            Value::Text("acme".into()),
            Value::Null,
        ])
        .unwrap();
        // Smuggle raw bytes into the table's heap, bypassing row encoding.
        t.heap.insert(b"\xFF\xFF not a row").unwrap();
        let err = db.check_invariants().unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("customer") && msg.contains("schema"),
            "got: {msg}"
        );
    }

    #[test]
    fn table_delete() {
        let db = Database::in_memory().unwrap();
        let t = db.create_table("t", customer_schema()).unwrap();
        let rid = t
            .insert(&vec![Value::U32(1), Value::Text("x".into()), Value::Null])
            .unwrap();
        t.delete(rid).unwrap();
        assert!(t.get(rid).is_err());
        assert_eq!(t.scan().count(), 0);
    }
}
