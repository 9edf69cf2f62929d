//! B+-tree over slotted pages.
//!
//! This is the index structure behind both the ETI's clustered
//! `[QGram, Coordinate, Column, Chunk]` index and the reference relation's
//! `Tid` index. Keys and values are byte strings; keys are compared
//! lexicographically, so composite keys are encoded with
//! [`crate::keycode`] to make byte order equal logical order.
//!
//! Layout
//! ------
//! * **Leaf pages** hold cells `[klen:u16][key][value]` in key order; the
//!   header's `next_page` links the right sibling for range scans.
//! * **Internal pages** hold cells `[klen:u16][key][child:u32]` in key
//!   order; the cell's child covers keys `≥ key` (up to the next cell's
//!   key), and the header's `next_page` field holds the *leftmost* child
//!   (keys below the first cell's key). `aux` stores the node's level
//!   (leaves are level 0).
//! * **The root never moves.** On a root split the old root's bytes are
//!   copied to a fresh "left" page and the root page is re-initialized as
//!   an internal node over (left, right) — so the root page id recorded in
//!   the catalog stays valid forever.
//!
//! Concurrency: one tree-level `RwLock` (readers share, writers exclusive).
//! Page-level latch crabbing is deliberately out of scope — the paper's
//! workload builds the index once and then serves read-mostly lookups, and
//! the coarse latch keeps the structure trivially correct. Deletes do not
//! rebalance: a leaf may become arbitrarily underfull (PostgreSQL-style lazy
//! space reclamation without the reclamation); lookups and scans remain
//! correct.

use std::ops::Bound;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::buffer::BufferPool;
use crate::error::{Result, StoreError};
use crate::lockorder::{Ranked, LATCH};
use crate::page::{PageId, PageType, SlottedPage, SlottedPageMut, PAGE_SIZE};

/// Maximum `key.len() + value.len()` accepted by [`BTree::insert`].
///
/// A quarter page guarantees a post-split node always has room for the
/// pending entry.
pub const MAX_ENTRY: usize = PAGE_SIZE / 4;

fn leaf_cell(key: &[u8], value: &[u8]) -> Vec<u8> {
    let mut cell = Vec::with_capacity(2 + key.len() + value.len());
    cell.extend_from_slice(&(key.len() as u16).to_le_bytes());
    cell.extend_from_slice(key);
    cell.extend_from_slice(value);
    cell
}

/// `(key, rest)` of a cell laid out as `klen: u16 LE | key | rest` — a
/// leaf's value or an internal node's child id. A `klen` read from a
/// corrupt page that overruns the cell is an error, not a panic.
fn split_cell(cell: &[u8]) -> Result<(&[u8], &[u8])> {
    if let [lo, hi, body @ ..] = cell {
        let klen = usize::from(u16::from_le_bytes([*lo, *hi]));
        if klen <= body.len() {
            return Ok(body.split_at(klen));
        }
    }
    Err(StoreError::Corrupt(format!(
        "btree cell of {} bytes overrun by its key length",
        cell.len()
    )))
}

fn internal_cell(key: &[u8], child: PageId) -> Vec<u8> {
    let mut cell = Vec::with_capacity(2 + key.len() + 4);
    cell.extend_from_slice(&(key.len() as u16).to_le_bytes());
    cell.extend_from_slice(key);
    cell.extend_from_slice(&child.0.to_le_bytes());
    cell
}

fn split_internal_cell(cell: &[u8]) -> Result<(&[u8], PageId)> {
    let (key, child) = split_cell(cell)?;
    let child = <[u8; 4]>::try_from(child).map_err(|_| {
        StoreError::Corrupt(format!(
            "btree internal cell with a {}-byte child id",
            child.len()
        ))
    })?;
    Ok((key, PageId(u32::from_le_bytes(child))))
}

/// Binary search over a node's cells by key.
///
/// Returns `Ok(slot)` when `key` equals the slot's key, else `Err(slot)` of
/// the insertion point — or [`StoreError::Corrupt`] on a dead slot, which a
/// btree node never has.
fn search_node(page: &SlottedPage<'_>, key: &[u8]) -> Result<std::result::Result<u16, u16>> {
    let mut lo = 0u16;
    let mut hi = page.slot_count();
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let Some(cell) = page.get(mid) else {
            return Err(StoreError::Corrupt(format!(
                "dead slot {mid} in btree node"
            )));
        };
        match split_cell(cell)?.0.cmp(key) {
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
            std::cmp::Ordering::Equal => return Ok(Ok(mid)),
        }
    }
    Ok(Err(lo))
}

/// Outcome of a recursive insert: the child split and the parent must add a
/// separator for the new right sibling.
struct SplitResult {
    sep: Vec<u8>,
    right: PageId,
}

/// A B+-tree index. One handle per tree: its structural latch lives in
/// the handle, so a second [`BTree::open`] of the same root would not
/// exclude this handle's splits — share the handle instead.
pub struct BTree {
    pool: Arc<BufferPool>,
    root: PageId,
    latch: Ranked<RwLock<()>, LATCH>,
}

impl BTree {
    /// Create an empty tree, allocating its (permanent) root page.
    pub fn create(pool: Arc<BufferPool>) -> Result<BTree> {
        let root = {
            let (id, mut page) = pool.allocate()?;
            SlottedPageMut::new(&mut page).init(PageType::BTreeLeaf);
            id
        };
        Ok(BTree {
            pool,
            root,
            latch: Ranked::new(RwLock::new(())),
        })
    }

    /// Open an existing tree rooted at `root` (persist the root id in the
    /// catalog; it never changes).
    pub fn open(pool: Arc<BufferPool>, root: PageId) -> BTree {
        BTree {
            pool,
            root,
            latch: Ranked::new(RwLock::new(())),
        }
    }

    /// The permanent root page id.
    pub fn root(&self) -> PageId {
        self.root
    }

    /// Point lookup.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let _read = self.latch.read();
        let mut page_id = self.root;
        loop {
            let page = self.pool.get(page_id)?;
            let sp = SlottedPage::new(&page);
            match sp.page_type()? {
                PageType::BTreeLeaf => {
                    return match search_node(&sp, key)? {
                        Ok(slot) => {
                            let cell = sp.get(slot).ok_or_else(|| {
                                StoreError::Corrupt(format!("dead slot {slot} in btree leaf"))
                            })?;
                            let (_, value) = split_cell(cell)?;
                            Ok(Some(value.to_vec()))
                        }
                        Err(_) => Ok(None),
                    };
                }
                PageType::BTreeInternal => {
                    let next = Self::child_for(&sp, key)?;
                    drop(page);
                    page_id = next;
                }
                other => {
                    return Err(StoreError::Corrupt(format!(
                        "unexpected page type {other:?} in btree"
                    )))
                }
            }
        }
    }

    /// The child of `node` responsible for `key`.
    fn child_for(node: &SlottedPage<'_>, key: &[u8]) -> Result<PageId> {
        let slot = match search_node(node, key)? {
            Ok(slot) => slot,
            Err(0) => return Ok(node.next_page()), // leftmost child
            Err(slot) => slot - 1,
        };
        let cell = node
            .get(slot)
            .ok_or_else(|| StoreError::Corrupt(format!("dead slot {slot} in btree node")))?;
        Ok(split_internal_cell(cell)?.1)
    }

    /// Insert or update (`upsert`). Returns `true` if the key was new.
    pub fn insert(&self, key: &[u8], value: &[u8]) -> Result<bool> {
        if key.len() + value.len() > MAX_ENTRY {
            return Err(StoreError::RecordTooLarge {
                len: key.len() + value.len(),
                max: MAX_ENTRY,
            });
        }
        let _write = self.latch.write();
        let mut inserted = false;
        if let Some(split) = self.insert_rec(self.root, key, value, &mut inserted)? {
            self.grow_root(split)?;
        }
        Ok(inserted)
    }

    fn insert_rec(
        &self,
        page_id: PageId,
        key: &[u8],
        value: &[u8],
        inserted: &mut bool,
    ) -> Result<Option<SplitResult>> {
        let (page_type, child) = {
            let page = self.pool.get(page_id)?;
            let sp = SlottedPage::new(&page);
            let pt = sp.page_type()?;
            match pt {
                PageType::BTreeLeaf => (pt, PageId::NONE),
                PageType::BTreeInternal => (pt, Self::child_for(&sp, key)?),
                other => {
                    return Err(StoreError::Corrupt(format!(
                        "unexpected page type {other:?} in btree"
                    )))
                }
            }
        };
        if page_type == PageType::BTreeLeaf {
            self.leaf_insert(page_id, key, value, inserted)
        } else {
            let child_split = self.insert_rec(child, key, value, inserted)?;
            match child_split {
                None => Ok(None),
                Some(split) => self.internal_add(page_id, split),
            }
        }
    }

    fn leaf_insert(
        &self,
        page_id: PageId,
        key: &[u8],
        value: &[u8],
        inserted: &mut bool,
    ) -> Result<Option<SplitResult>> {
        let cell = leaf_cell(key, value);
        // Whether the key existed before this call (an upsert whose replace
        // overflows removes the old cell first, but must still not count as
        // an insertion).
        let mut was_present = false;
        {
            let mut page = self.pool.get_mut(page_id)?;
            let mut sp = SlottedPageMut::new(&mut page);
            match search_node(&sp.view(), key)? {
                Ok(slot) => {
                    was_present = true;
                    // Upsert; replacement may itself overflow the page.
                    match sp.replace(slot, &cell) {
                        Ok(()) => return Ok(None),
                        Err(StoreError::RecordTooLarge { .. }) => {
                            // Remove then fall through to split-insert path.
                            sp.remove_at(slot);
                        }
                        Err(e) => return Err(e),
                    }
                }
                Err(slot) => match sp.insert_at(slot, &cell) {
                    Ok(()) => {
                        *inserted = true;
                        return Ok(None);
                    }
                    Err(StoreError::RecordTooLarge { .. }) => {}
                    Err(e) => return Err(e),
                },
            }
        }
        // Split, then insert into the proper half.
        let split = self.split_page(page_id, PageType::BTreeLeaf)?;
        let target = if key < split.sep.as_slice() {
            page_id
        } else {
            split.right
        };
        let mut page = self.pool.get_mut(target)?;
        let mut sp = SlottedPageMut::new(&mut page);
        match search_node(&sp.view(), key)? {
            Ok(slot) => sp.replace(slot, &cell)?,
            Err(slot) => {
                sp.insert_at(slot, &cell)?;
                *inserted = !was_present;
            }
        }
        Ok(Some(split))
    }

    /// Add a separator cell for a freshly split child; split this internal
    /// node too if needed.
    fn internal_add(
        &self,
        page_id: PageId,
        child_split: SplitResult,
    ) -> Result<Option<SplitResult>> {
        let cell = internal_cell(&child_split.sep, child_split.right);
        {
            let mut page = self.pool.get_mut(page_id)?;
            let mut sp = SlottedPageMut::new(&mut page);
            match search_node(&sp.view(), &child_split.sep)? {
                Ok(_) => {
                    return Err(StoreError::Corrupt(
                        "duplicate separator during split propagation".into(),
                    ))
                }
                Err(slot) => match sp.insert_at(slot, &cell) {
                    Ok(()) => return Ok(None),
                    Err(StoreError::RecordTooLarge { .. }) => {}
                    Err(e) => return Err(e),
                },
            }
        }
        let split = self.split_page(page_id, PageType::BTreeInternal)?;
        let target = if child_split.sep.as_slice() < split.sep.as_slice() {
            page_id
        } else {
            split.right
        };
        let mut page = self.pool.get_mut(target)?;
        let mut sp = SlottedPageMut::new(&mut page);
        match search_node(&sp.view(), &child_split.sep)? {
            Ok(_) => {
                return Err(StoreError::Corrupt(
                    "duplicate separator during split propagation".into(),
                ))
            }
            Err(slot) => sp.insert_at(slot, &cell)?,
        }
        Ok(Some(split))
    }

    /// Split `page_id` at its byte midpoint into (page_id, right), returning
    /// the separator. For internal nodes the middle key is *pushed up*: it
    /// becomes the separator and its child becomes the right node's leftmost
    /// child.
    fn split_page(&self, page_id: PageId, page_type: PageType) -> Result<SplitResult> {
        // Snapshot cells.
        let (cells, next_page, aux): (Vec<Vec<u8>>, PageId, u32) = {
            let page = self.pool.get(page_id)?;
            let sp = SlottedPage::new(&page);
            let cells = (0..sp.slot_count())
                .map(|i| {
                    sp.get(i)
                        .map(<[u8]>::to_vec)
                        .ok_or_else(|| StoreError::Corrupt(format!("dead slot {i} during split")))
                })
                .collect::<Result<_>>()?;
            (cells, sp.next_page(), sp.aux())
        };
        assert!(cells.len() >= 2, "cannot split a node with < 2 cells");
        let total: usize = cells.iter().map(|c| c.len()).sum();
        let mut acc = 0usize;
        let mut mid = cells.len() / 2; // fallback
        for (i, c) in cells.iter().enumerate() {
            acc += c.len();
            if acc * 2 >= total {
                mid = i + 1;
                break;
            }
        }
        mid = mid.clamp(1, cells.len() - 1);

        let (right_id, sep) = {
            let (right_id, mut right_page) = self.pool.allocate()?;
            let mut rp = SlottedPageMut::new(&mut right_page);
            rp.init(page_type);
            rp.set_aux(aux);
            let sep;
            match page_type {
                PageType::BTreeLeaf => {
                    sep = split_cell(&cells[mid])?.0.to_vec();
                    // Right sibling chain: right takes left's old sibling.
                    rp.set_next_page(next_page);
                    for (i, cell) in cells[mid..].iter().enumerate() {
                        rp.insert_at(i as u16, cell)?;
                    }
                }
                PageType::BTreeInternal => {
                    let (mid_key, mid_child) = split_internal_cell(&cells[mid])?;
                    sep = mid_key.to_vec();
                    // Middle key moves up; its child is right's leftmost.
                    rp.set_next_page(mid_child);
                    for (i, cell) in cells[mid + 1..].iter().enumerate() {
                        rp.insert_at(i as u16, cell)?;
                    }
                }
                other => {
                    return Err(StoreError::Corrupt(format!(
                        "split_page on a non-btree page ({other:?})"
                    )))
                }
            }
            (right_id, sep)
        };

        // Shrink the left node.
        {
            let mut page = self.pool.get_mut(page_id)?;
            let mut sp = SlottedPageMut::new(&mut page);
            while sp.view().slot_count() > mid as u16 {
                let last = sp.view().slot_count() - 1;
                sp.remove_at(last);
            }
            sp.compact();
            if page_type == PageType::BTreeLeaf {
                sp.set_next_page(right_id);
            }
        }
        Ok(SplitResult {
            sep,
            right: right_id,
        })
    }

    /// Handle a root split: copy the root into a fresh left page and rebuild
    /// the root as an internal node over (left, right).
    fn grow_root(&self, split: SplitResult) -> Result<()> {
        let (left_id, old_level) = {
            let (left_id, mut left_page) = self.pool.allocate()?;
            let root_page = self.pool.get(self.root)?;
            left_page.copy_from_slice(&root_page);
            let level = SlottedPage::new(&root_page).aux();
            (left_id, level)
        };
        let mut root_page = self.pool.get_mut(self.root)?;
        let mut rp = SlottedPageMut::new(&mut root_page);
        rp.init(PageType::BTreeInternal);
        rp.set_aux(old_level + 1);
        rp.set_next_page(left_id); // leftmost child
        rp.insert_at(0, &internal_cell(&split.sep, split.right))?;
        Ok(())
    }

    /// Bulk-load a sorted entry stream into an **empty** tree.
    ///
    /// The ETI build produces its rows in exactly ascending key order (the
    /// pre-ETI merge is the paper's "ETI-query ORDER BY"), so instead of
    /// paying a top-down insert per row — which, for sorted input, splits
    /// every leaf at ~50% fill — leaves are packed left to right to a 90%
    /// fill factor and the internal levels are built bottom-up. The tree's
    /// (permanent) root page receives the top node, so the catalog-recorded
    /// root id stays valid.
    ///
    /// Keys must be strictly ascending; entries must fit [`MAX_ENTRY`]. The
    /// tree remains fully mutable afterwards (maintenance inserts go
    /// through the normal path).
    pub fn bulk_fill<I>(&self, entries: I) -> Result<()>
    where
        I: IntoIterator<Item = (Vec<u8>, Vec<u8>)>,
    {
        let _write = self.latch.write();
        {
            let root = self.pool.get(self.root)?;
            let sp = SlottedPage::new(&root);
            if sp.page_type()? != PageType::BTreeLeaf || sp.slot_count() != 0 {
                return Err(StoreError::Corrupt(
                    "bulk_fill requires an empty tree".into(),
                ));
            }
        }
        // Target fill: leave headroom for future maintenance inserts.
        let fill_limit = (PAGE_SIZE * 9) / 10;

        // Phase 1: pack leaves. `leaves` collects (first_key, page_id).
        let mut leaves: Vec<(Vec<u8>, PageId)> = Vec::new();
        let mut current: Option<(PageId, Vec<u8>, usize)> = None; // (pid, first_key, used)
        let mut prev_key: Option<Vec<u8>> = None;
        for (key, value) in entries {
            if key.len() + value.len() > MAX_ENTRY {
                return Err(StoreError::RecordTooLarge {
                    len: key.len() + value.len(),
                    max: MAX_ENTRY,
                });
            }
            if let Some(prev) = &prev_key {
                if *prev >= key {
                    return Err(StoreError::Corrupt(
                        "bulk_fill keys must be strictly ascending".into(),
                    ));
                }
            }
            let cell = leaf_cell(&key, &value);
            let need = cell.len() + 4; // slot entry
            let open = match current.take() {
                Some(open) if open.2 + need <= fill_limit => open,
                sealed => {
                    // Seal the previous leaf and open a new one.
                    let (pid, mut page) = self.pool.allocate()?;
                    SlottedPageMut::new(&mut page).init(PageType::BTreeLeaf);
                    drop(page);
                    if let Some((prev_pid, first_key, _)) = sealed {
                        let mut prev_page = self.pool.get_mut(prev_pid)?;
                        SlottedPageMut::new(&mut prev_page).set_next_page(pid);
                        drop(prev_page);
                        leaves.push((first_key, prev_pid));
                    }
                    (pid, key.clone(), crate::page::HEADER_SIZE)
                }
            };
            let (pid, _, used) = current.insert(open);
            let mut page = self.pool.get_mut(*pid)?;
            let mut sp = SlottedPageMut::new(&mut page);
            let n = sp.view().slot_count();
            sp.insert_at(n, &cell)?;
            *used += need;
            prev_key = Some(key);
        }
        let Some((last_pid, last_first_key, _)) = current.take() else {
            return Ok(()); // empty input: tree stays an empty leaf
        };
        leaves.push((last_first_key, last_pid));

        if leaves.len() == 1 {
            // Everything fits logically in one leaf: move it into the root.
            let (_, only) = &leaves[0];
            let src = self.pool.get(*only)?;
            let mut dst = self.pool.get_mut(self.root)?;
            dst.copy_from_slice(&src);
            return Ok(());
        }

        // Phase 2: build internal levels bottom-up. Leaves sit at level 0;
        // each pass up stamps `aux` so later root splits (which derive the
        // new root's level from the old root's) stay correct.
        let mut level: Vec<(Vec<u8>, PageId)> = leaves;
        let mut height = 0u32;
        loop {
            height += 1;
            let mut next_level: Vec<(Vec<u8>, PageId)> = Vec::new();
            let mut iter = level.into_iter().peekable();
            while let Some((node_key, leftmost)) = iter.next() {
                let (pid, mut page) = self.pool.allocate()?;
                let mut sp = SlottedPageMut::new(&mut page);
                sp.init(PageType::BTreeInternal);
                sp.set_aux(height);
                sp.set_next_page(leftmost);
                let mut used = crate::page::HEADER_SIZE;
                let cell_len = |sep: &[u8]| 2 + sep.len() + 4 + 4;
                while let Some((sep, child)) =
                    iter.next_if(|(sep, _)| used + cell_len(sep) <= fill_limit)
                {
                    let n = sp.view().slot_count();
                    sp.insert_at(n, &internal_cell(&sep, child))?;
                    used += cell_len(&sep);
                }
                drop(page);
                next_level.push((node_key, pid));
            }
            if next_level.len() == 1 {
                // Move the single top node into the permanent root.
                let (_, top) = &next_level[0];
                let src = self.pool.get(*top)?;
                let mut dst = self.pool.get_mut(self.root)?;
                dst.copy_from_slice(&src);
                return Ok(());
            }
            level = next_level;
        }
    }

    /// Delete `key`. Returns `true` if it was present. No rebalancing (see
    /// module docs).
    pub fn delete(&self, key: &[u8]) -> Result<bool> {
        let _write = self.latch.write();
        let mut page_id = self.root;
        loop {
            let page_type = {
                let page = self.pool.get(page_id)?;
                let sp = SlottedPage::new(&page);
                let pt = sp.page_type()?;
                if pt == PageType::BTreeInternal {
                    let next = Self::child_for(&sp, key)?;
                    drop(page);
                    page_id = next;
                    continue;
                }
                pt
            };
            debug_assert_eq!(page_type, PageType::BTreeLeaf);
            let mut page = self.pool.get_mut(page_id)?;
            let mut sp = SlottedPageMut::new(&mut page);
            return Ok(match search_node(&sp.view(), key)? {
                Ok(slot) => {
                    sp.remove_at(slot);
                    true
                }
                Err(_) => false,
            });
        }
    }

    /// The leaf that holds the first key at or after `seek` (or would, if
    /// the key is absent). Caller holds the structural latch.
    fn find_leaf(&self, seek: &[u8]) -> Result<PageId> {
        let mut page_id = self.root;
        loop {
            let page = self.pool.get(page_id)?;
            let sp = SlottedPage::new(&page);
            match sp.page_type()? {
                PageType::BTreeLeaf => return Ok(page_id),
                PageType::BTreeInternal => {
                    let next = Self::child_for(&sp, seek)?;
                    drop(page);
                    page_id = next;
                }
                other => {
                    return Err(StoreError::Corrupt(format!(
                        "unexpected page type {other:?} in btree"
                    )))
                }
            }
        }
    }

    /// The one leaf walker behind both scan front ends ([`RangeScan`] and
    /// [`BTree::for_each_prefix`]): pin `leaf`, position at `start` by
    /// binary search, and hand each following `(key, value)` to `visit` as
    /// slices into the pinned page until it returns `false`. Returns the
    /// right sibling to continue with, or [`PageId::NONE`] once `visit`
    /// stopped the walk.
    ///
    /// `visit` runs under the leaf's read pin and must not re-enter the
    /// pool: a walk holds at most this one pin.
    fn walk_leaf(
        &self,
        leaf: PageId,
        start: Bound<&[u8]>,
        mut visit: impl FnMut(&[u8], &[u8]) -> Result<bool>,
    ) -> Result<PageId> {
        let page = self.pool.get(leaf)?;
        let sp = SlottedPage::new(&page);
        let first = match start {
            Bound::Unbounded => 0,
            Bound::Included(k) => match search_node(&sp, k)? {
                Ok(slot) | Err(slot) => slot,
            },
            Bound::Excluded(k) => match search_node(&sp, k)? {
                Ok(slot) => slot + 1,
                Err(slot) => slot,
            },
        };
        for i in first..sp.slot_count() {
            let Some(cell) = sp.get(i) else {
                return Err(StoreError::Corrupt(format!("dead slot {i} in btree leaf")));
            };
            let (key, value) = split_cell(cell)?;
            if !visit(key, value)? {
                return Ok(PageId::NONE);
            }
        }
        Ok(sp.next_page())
    }

    /// Visit every entry whose key starts with `prefix`, in key order,
    /// without copying: `visit` receives `(key, value)` slices that live
    /// in the pinned leaf. The structural latch is held (shared) for the
    /// whole walk, so the entries seen are one consistent snapshot.
    ///
    /// `visit` must not call back into this tree or its pool (see
    /// [`BTree::walk_leaf`]).
    pub fn for_each_prefix(
        &self,
        prefix: &[u8],
        mut visit: impl FnMut(&[u8], &[u8]) -> Result<()>,
    ) -> Result<()> {
        let _read = self.latch.read();
        let mut leaf = self.find_leaf(prefix)?;
        let mut start = Bound::Included(prefix);
        while !leaf.is_none() {
            leaf = self.walk_leaf(leaf, start, |key, value| {
                if !key.starts_with(prefix) {
                    return Ok(false);
                }
                visit(key, value)?;
                Ok(true)
            })?;
            // Every key of a right sibling is above the prefix already.
            start = Bound::Unbounded;
        }
        Ok(())
    }

    /// Range scan over `[start, end)` byte-key bounds.
    pub fn range(&self, start: Bound<&[u8]>, end: Bound<&[u8]>) -> Result<RangeScan<'_>> {
        let _read = self.latch.read();
        // Find the first leaf possibly containing the start bound.
        let seek: &[u8] = match start {
            Bound::Included(k) | Bound::Excluded(k) => k,
            Bound::Unbounded => &[],
        };
        let owned = |b: Bound<&[u8]>| match b {
            Bound::Included(k) => Bound::Included(k.to_vec()),
            Bound::Excluded(k) => Bound::Excluded(k.to_vec()),
            Bound::Unbounded => Bound::Unbounded,
        };
        let mut scan = RangeScan {
            tree: self,
            next_leaf: self.find_leaf(seek)?,
            start: owned(start),
            end: owned(end),
            buffer: Vec::new().into_iter(),
            done: false,
        };
        scan.load_next_leaf()?;
        Ok(scan)
    }

    /// Number of entries (full scan; for tests and stats).
    pub fn len(&self) -> Result<usize> {
        let mut n = 0;
        let mut scan = self.range(Bound::Unbounded, Bound::Unbounded)?;
        while scan.next_entry()?.is_some() {
            n += 1;
        }
        Ok(n)
    }

    /// `len() == 0` without scanning everything.
    pub fn is_empty(&self) -> Result<bool> {
        let mut scan = self.range(Bound::Unbounded, Bound::Unbounded)?;
        Ok(scan.next_entry()?.is_none())
    }

    /// Validate the whole tree's structural invariants and return a summary.
    ///
    /// Checks, per node: the slotted page's physical layout
    /// ([`SlottedPage::check_invariants`]), node type, strictly ascending
    /// keys, and separator bounds (every key in a subtree lies in the
    /// half-open interval its parent's separators promise). Checks, per
    /// tree: every internal node's children sit exactly one level below it
    /// (`aux`), every page is reachable exactly once (no cycles, no shared
    /// children), and the leaf sibling chain visits the leaves in exactly
    /// left-to-right key order, terminating with [`PageId::NONE`].
    ///
    /// Fill factors are reported, not enforced: deletes never rebalance, so
    /// a leaf may legitimately be empty ([module docs](self)).
    pub fn check_invariants(&self) -> Result<TreeCheck> {
        let _read = self.latch.read();
        let mut visited = std::collections::HashSet::new();
        let mut leaves: Vec<PageId> = Vec::new();
        let mut check = TreeCheck {
            depth: 0,
            internal_pages: 0,
            leaf_pages: 0,
            entries: 0,
            leaf_live_bytes: 0,
        };
        let root_level =
            self.check_node(self.root, None, None, &mut visited, &mut leaves, &mut check)?;
        check.depth = root_level + 1;
        // The sibling chain must equal left-to-right leaf order.
        for (i, &leaf) in leaves.iter().enumerate() {
            let next = {
                let page = self.pool.get(leaf)?;
                SlottedPage::new(&page).next_page()
            };
            let expected = leaves.get(i + 1).copied().unwrap_or(PageId::NONE);
            if next != expected {
                return Err(StoreError::Corrupt(format!(
                    "leaf {leaf} sibling link points to {next}, expected {expected} \
                     (leaf {i} of {})",
                    leaves.len()
                )));
            }
        }
        Ok(check)
    }

    /// Recursive helper for [`BTree::check_invariants`]: validates the
    /// subtree rooted at `page_id` against the key bounds `[lower, upper)`
    /// and returns the node's level. Copies each node's cells out before
    /// recursing, so only one page is pinned at a time.
    fn check_node(
        &self,
        page_id: PageId,
        lower: Option<&[u8]>,
        upper: Option<&[u8]>,
        visited: &mut std::collections::HashSet<PageId>,
        leaves: &mut Vec<PageId>,
        check: &mut TreeCheck,
    ) -> Result<u32> {
        if !visited.insert(page_id) {
            return Err(StoreError::Corrupt(format!(
                "page {page_id} reachable twice (cycle or shared child)"
            )));
        }
        enum Node {
            Leaf {
                keys: Vec<Vec<u8>>,
                live_bytes: usize,
            },
            Internal {
                leftmost: PageId,
                cells: Vec<(Vec<u8>, PageId)>,
            },
        }
        let (node, level) = {
            let page = self.pool.get(page_id)?;
            let sp = SlottedPage::new(&page);
            sp.check_invariants()
                .map_err(|e| StoreError::Corrupt(format!("btree page {page_id}: {e}")))?;
            let level = sp.aux();
            match sp.page_type()? {
                PageType::BTreeLeaf => {
                    let keys = sp
                        .iter()
                        .map(|(_, cell)| Ok(split_cell(cell)?.0.to_vec()))
                        .collect::<Result<_>>()?;
                    let live_bytes = sp.iter().map(|(_, cell)| cell.len()).sum();
                    (Node::Leaf { keys, live_bytes }, level)
                }
                PageType::BTreeInternal => {
                    let cells = sp
                        .iter()
                        .map(|(_, cell)| {
                            let (key, child) = split_internal_cell(cell)?;
                            Ok((key.to_vec(), child))
                        })
                        .collect::<Result<_>>()?;
                    (
                        Node::Internal {
                            leftmost: sp.next_page(),
                            cells,
                        },
                        level,
                    )
                }
                other => {
                    return Err(StoreError::Corrupt(format!(
                        "page {page_id}: unexpected page type {other:?} in btree"
                    )))
                }
            }
        };
        let check_key = |key: &[u8], what: &str| -> Result<()> {
            if let Some(lo) = lower {
                if key < lo {
                    return Err(StoreError::Corrupt(format!(
                        "page {page_id}: {what} {key:?} below parent separator {lo:?}"
                    )));
                }
            }
            if let Some(up) = upper {
                if key >= up {
                    return Err(StoreError::Corrupt(format!(
                        "page {page_id}: {what} {key:?} at or above parent bound {up:?}"
                    )));
                }
            }
            Ok(())
        };
        match node {
            Node::Leaf { keys, live_bytes } => {
                if level != 0 {
                    return Err(StoreError::Corrupt(format!(
                        "leaf {page_id} claims level {level}, leaves are level 0"
                    )));
                }
                for w in keys.windows(2) {
                    if w[0] >= w[1] {
                        return Err(StoreError::Corrupt(format!(
                            "leaf {page_id}: keys out of order ({:?} then {:?})",
                            w[0], w[1]
                        )));
                    }
                }
                for key in &keys {
                    check_key(key, "leaf key")?;
                }
                check.leaf_pages += 1;
                check.entries += keys.len();
                check.leaf_live_bytes += live_bytes;
                leaves.push(page_id);
                Ok(0)
            }
            Node::Internal { leftmost, cells } => {
                if level == 0 {
                    return Err(StoreError::Corrupt(format!(
                        "internal node {page_id} claims level 0"
                    )));
                }
                if cells.is_empty() {
                    return Err(StoreError::Corrupt(format!(
                        "internal node {page_id} has no separators"
                    )));
                }
                if leftmost.is_none() {
                    return Err(StoreError::Corrupt(format!(
                        "internal node {page_id} has no leftmost child"
                    )));
                }
                for w in cells.windows(2) {
                    if w[0].0 >= w[1].0 {
                        return Err(StoreError::Corrupt(format!(
                            "internal node {page_id}: separators out of order ({:?} then {:?})",
                            w[0].0, w[1].0
                        )));
                    }
                }
                for (key, _) in &cells {
                    check_key(key, "separator")?;
                }
                check.internal_pages += 1;
                // Leftmost child covers [lower, first separator); cell i's
                // child covers [key_i, key_{i+1} or upper).
                let verify_child = |child: PageId,
                                    lo: Option<&[u8]>,
                                    up: Option<&[u8]>,
                                    visited: &mut std::collections::HashSet<PageId>,
                                    leaves: &mut Vec<PageId>,
                                    check: &mut TreeCheck|
                 -> Result<()> {
                    let child_level = self.check_node(child, lo, up, visited, leaves, check)?;
                    if child_level != level - 1 {
                        return Err(StoreError::Corrupt(format!(
                            "page {page_id} at level {level} has child {child} at level \
                             {child_level}, expected {}",
                            level - 1
                        )));
                    }
                    Ok(())
                };
                verify_child(leftmost, lower, Some(&cells[0].0), visited, leaves, check)?;
                for i in 0..cells.len() {
                    let lo = Some(cells[i].0.as_slice());
                    let up = cells.get(i + 1).map(|c| c.0.as_slice()).or(upper);
                    verify_child(cells[i].1, lo, up, visited, leaves, check)?;
                }
                Ok(level)
            }
        }
    }
}

/// Structural summary returned by [`BTree::check_invariants`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeCheck {
    /// Levels including the leaf level (a lone leaf root has depth 1).
    pub depth: u32,
    pub internal_pages: usize,
    pub leaf_pages: usize,
    pub entries: usize,
    /// Total bytes of live leaf cells — `leaf_live_bytes / (leaf_pages *
    /// PAGE_SIZE)` is the leaf fill factor (informational; deletes never
    /// rebalance, so no minimum is enforced).
    pub leaf_live_bytes: usize,
}

/// Iterator over a key range: the copying front end of [`BTree::walk_leaf`].
/// Buffers one leaf at a time; does not hold page pins across yields.
pub struct RangeScan<'a> {
    tree: &'a BTree,
    next_leaf: PageId,
    start: Bound<Vec<u8>>,
    end: Bound<Vec<u8>>,
    buffer: std::vec::IntoIter<(Vec<u8>, Vec<u8>)>,
    done: bool,
}

impl RangeScan<'_> {
    fn load_next_leaf(&mut self) -> Result<()> {
        while !self.done {
            if self.next_leaf.is_none() {
                self.done = true;
                return Ok(());
            }
            // Only the first leaf needs positioning: every key of a right
            // sibling is above the start bound already.
            let start = std::mem::replace(&mut self.start, Bound::Unbounded);
            let start = match &start {
                Bound::Included(k) => Bound::Included(k.as_slice()),
                Bound::Excluded(k) => Bound::Excluded(k.as_slice()),
                Bound::Unbounded => Bound::Unbounded,
            };
            let end = &self.end;
            let mut entries: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
            self.next_leaf = self.tree.walk_leaf(self.next_leaf, start, |k, v| {
                let before_end = match end {
                    Bound::Included(e) => k <= e.as_slice(),
                    Bound::Excluded(e) => k < e.as_slice(),
                    Bound::Unbounded => true,
                };
                if before_end {
                    entries.push((k.to_vec(), v.to_vec()));
                }
                Ok(before_end)
            })?;
            if !entries.is_empty() {
                self.buffer = entries.into_iter();
                return Ok(());
            }
            // Empty leaf (or everything filtered): keep walking.
        }
        Ok(())
    }

    /// Next `(key, value)` entry, or `None` at the end of the range.
    pub fn next_entry(&mut self) -> Result<Option<(Vec<u8>, Vec<u8>)>> {
        loop {
            if let Some(e) = self.buffer.next() {
                return Ok(Some(e));
            }
            if self.done {
                return Ok(None);
            }
            self.load_next_leaf()?;
        }
    }
}

impl Iterator for RangeScan<'_> {
    type Item = Result<(Vec<u8>, Vec<u8>)>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_entry().transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::MemPager;

    fn tree() -> BTree {
        let pool = Arc::new(BufferPool::new(Box::new(MemPager::new()), 64));
        BTree::create(pool).unwrap()
    }

    fn k(i: u32) -> Vec<u8> {
        format!("key-{i:08}").into_bytes()
    }

    fn v(i: u32) -> Vec<u8> {
        format!("value-{i}").into_bytes()
    }

    #[test]
    fn empty_tree_lookup() {
        let t = tree();
        assert_eq!(t.get(b"anything").unwrap(), None);
        assert!(t.is_empty().unwrap());
        assert_eq!(t.len().unwrap(), 0);
    }

    #[test]
    fn single_insert_get() {
        let t = tree();
        assert!(t.insert(b"boeing", b"R1").unwrap());
        assert_eq!(t.get(b"boeing").unwrap(), Some(b"R1".to_vec()));
        assert_eq!(t.get(b"bon").unwrap(), None);
    }

    #[test]
    fn upsert_replaces() {
        let t = tree();
        assert!(t.insert(b"k", b"v1").unwrap());
        assert!(!t.insert(b"k", b"v2-longer").unwrap());
        assert_eq!(t.get(b"k").unwrap(), Some(b"v2-longer".to_vec()));
        assert_eq!(t.len().unwrap(), 1);
    }

    #[test]
    fn many_inserts_with_splits_ascending() {
        let t = tree();
        let n = 5000;
        for i in 0..n {
            t.insert(&k(i), &v(i)).unwrap();
        }
        assert_eq!(t.len().unwrap(), n as usize);
        for i in (0..n).step_by(37) {
            assert_eq!(t.get(&k(i)).unwrap(), Some(v(i)), "key {i}");
        }
    }

    #[test]
    fn many_inserts_descending() {
        let t = tree();
        let n = 3000;
        for i in (0..n).rev() {
            t.insert(&k(i), &v(i)).unwrap();
        }
        for i in 0..n {
            assert_eq!(t.get(&k(i)).unwrap(), Some(v(i)));
        }
    }

    #[test]
    fn many_inserts_pseudorandom_order() {
        let t = tree();
        let n: u32 = 4096;
        // LCG permutation of 0..n (n is a power of two; a=5, c=3 gives full
        // period for mod 2^k with a≡1 mod 4, c odd).
        let mut x: u32 = 1;
        let mut seen = std::collections::HashSet::new();
        for _ in 0..n {
            x = x.wrapping_mul(5).wrapping_add(3) % n;
            // LCG may repeat before covering all; force uniqueness:
            let mut y = x;
            while !seen.insert(y) {
                y = (y + 1) % n;
            }
            t.insert(&k(y), &v(y)).unwrap();
        }
        assert_eq!(t.len().unwrap(), n as usize);
        for i in 0..n {
            assert_eq!(t.get(&k(i)).unwrap(), Some(v(i)), "missing key {i}");
        }
    }

    #[test]
    fn range_scan_in_order() {
        let t = tree();
        for i in 0..2000 {
            t.insert(&k(i), &v(i)).unwrap();
        }
        let got: Vec<Vec<u8>> = t
            .range(Bound::Unbounded, Bound::Unbounded)
            .unwrap()
            .map(|r| r.unwrap().0)
            .collect();
        let want: Vec<Vec<u8>> = (0..2000).map(k).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn bounded_range_scan() {
        let t = tree();
        for i in 0..100 {
            t.insert(&k(i), &v(i)).unwrap();
        }
        let got: Vec<Vec<u8>> = t
            .range(Bound::Included(&k(10)), Bound::Excluded(&k(20)))
            .unwrap()
            .map(|r| r.unwrap().0)
            .collect();
        assert_eq!(got, (10..20).map(k).collect::<Vec<_>>());
        // Excluded start / included end.
        let got: Vec<Vec<u8>> = t
            .range(Bound::Excluded(&k(95)), Bound::Included(&k(97)))
            .unwrap()
            .map(|r| r.unwrap().0)
            .collect();
        assert_eq!(got, vec![k(96), k(97)]);
    }

    #[test]
    fn prefix_walk_stops_at_the_prefix_boundary() {
        let t = tree();
        t.insert(b"ing\x001\x01", b"a").unwrap();
        t.insert(b"ing\x001\x02", b"b").unwrap();
        t.insert(b"inh\x001\x01", b"c").unwrap();
        t.insert(b"in", b"d").unwrap();
        assert_eq!(
            walk_keys(&t, b"ing\x00"),
            vec![b"ing\x001\x01".to_vec(), b"ing\x001\x02".to_vec()]
        );
    }

    /// Keys (in order) `for_each_prefix` visits, checked against the
    /// copying front end on the way out.
    fn walk_keys(t: &BTree, prefix: &[u8]) -> Vec<Vec<u8>> {
        let mut seen = Vec::new();
        t.for_each_prefix(prefix, |k, v| {
            seen.push((k.to_vec(), v.to_vec()));
            Ok(())
        })
        .unwrap();
        let copied: Vec<_> = t
            .range(Bound::Included(prefix), Bound::Unbounded)
            .unwrap()
            .map(|r| r.unwrap())
            .take_while(|(k, _)| k.starts_with(prefix))
            .collect();
        assert_eq!(seen, copied, "the two front ends disagree");
        seen.into_iter().map(|(k, _)| k).collect()
    }

    #[test]
    fn prefix_walk_spans_several_leaves() {
        let t = tree();
        // ~1.5 KB values: five per leaf at most, so 40 entries of one
        // prefix cross well over three leaves, with neighbours either side.
        let big = vec![b'v'; 1500];
        for i in 0..40u32 {
            t.insert(format!("mid-{i:04}").as_bytes(), &big).unwrap();
        }
        for i in 0..10u32 {
            t.insert(format!("low-{i:04}").as_bytes(), &big).unwrap();
            t.insert(format!("top-{i:04}").as_bytes(), &big).unwrap();
        }
        assert!(t.check_invariants().unwrap().leaf_pages >= 8);
        let want: Vec<Vec<u8>> = (0..40u32)
            .map(|i| format!("mid-{i:04}").into_bytes())
            .collect();
        assert_eq!(walk_keys(&t, b"mid-"), want);
        // A prefix that starts mid-leaf and ends mid-leaf.
        assert_eq!(walk_keys(&t, b"mid-001").len(), 10);
    }

    #[test]
    fn prefix_walk_steps_over_an_empty_leaf() {
        let t = tree();
        let big = vec![b'v'; 1500];
        for i in 0..30u32 {
            t.insert(format!("row-{i:04}").as_bytes(), &big).unwrap();
        }
        // Deletes never rebalance: emptying a run of keys leaves at least
        // one leaf in the middle of the chain with no entries at all.
        for i in 8..22u32 {
            assert!(t.delete(format!("row-{i:04}").as_bytes()).unwrap());
        }
        let want: Vec<Vec<u8>> = (0..8u32)
            .chain(22..30)
            .map(|i| format!("row-{i:04}").into_bytes())
            .collect();
        assert_eq!(walk_keys(&t, b"row-"), want);
    }

    #[test]
    fn prefix_walk_absent_and_all_ff_prefixes() {
        let t = tree();
        for i in 0..500 {
            t.insert(&k(i), &v(i)).unwrap();
        }
        // Absent: below everything, between keys, above everything.
        assert!(walk_keys(&t, b"a").is_empty());
        assert!(walk_keys(&t, b"key-00000123x").is_empty());
        assert!(walk_keys(&t, b"zzz").is_empty());
        // The empty prefix is every key.
        assert_eq!(walk_keys(&t, b"").len(), 500);
        // An all-0xFF prefix has no successor key to stop at.
        t.insert(&[0xFF, 0xFF, 1], b"x").unwrap();
        t.insert(&[0xFF, 0xFF], b"y").unwrap();
        t.insert(&[0xFF, 0xFE], b"z").unwrap();
        assert_eq!(
            walk_keys(&t, &[0xFF, 0xFF]),
            vec![vec![0xFF, 0xFF], vec![0xFF, 0xFF, 1]]
        );
    }

    #[test]
    fn prefix_walk_sees_a_snapshot_under_concurrent_writes() {
        // A pool far smaller than the tree (the tiny-pool shape of the
        // integration suite's miss-path test), one writer inserting and
        // deleting inside the walked prefix and around it, readers walking
        // it: every walk must see the stable keys, in order, whatever the
        // writer is doing — the walk holds the structural latch shared.
        let pool = Arc::new(BufferPool::new(Box::new(MemPager::new()), 8));
        let t = Arc::new(BTree::create(pool).unwrap());
        let big = vec![b'v'; 900];
        let stable: Vec<Vec<u8>> = (0..60u32)
            .map(|i| format!("p-{i:04}-stable").into_bytes())
            .collect();
        for key in &stable {
            t.insert(key, &big).unwrap();
        }
        for i in 0..60u32 {
            t.insert(format!("o-{i:04}").as_bytes(), &big).unwrap();
            t.insert(format!("q-{i:04}").as_bytes(), &big).unwrap();
        }
        let stop = Arc::new(crate::lockorder::Flag::new(false));
        let writer = {
            let (t, stop, big) = (Arc::clone(&t), Arc::clone(&stop), big.clone());
            std::thread::spawn(move || {
                let mut round = 0u32;
                while !stop.load() {
                    let i = round % 60;
                    let inside = format!("p-{i:04}-volatile").into_bytes();
                    let outside = format!("pz-{i:04}").into_bytes();
                    t.insert(&inside, &big).unwrap();
                    t.insert(&outside, &big).unwrap();
                    t.delete(&inside).unwrap();
                    t.delete(&outside).unwrap();
                    round += 1;
                }
            })
        };
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let (t, stable) = (Arc::clone(&t), stable.clone());
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        let mut seen: Vec<Vec<u8>> = Vec::new();
                        t.for_each_prefix(b"p-", |k, _| {
                            seen.push(k.to_vec());
                            Ok(())
                        })
                        .unwrap();
                        assert!(seen.windows(2).all(|w| w[0] < w[1]), "keys out of order");
                        assert!(seen.iter().all(|k| k.starts_with(b"p-")));
                        let kept: Vec<&Vec<u8>> =
                            seen.iter().filter(|k| k.ends_with(b"-stable")).collect();
                        assert_eq!(kept.len(), stable.len(), "a stable key went missing");
                        assert!(seen.len() <= stable.len() + 1, "one volatile key at most");
                    }
                })
            })
            .collect();
        for r in readers {
            r.join().unwrap();
        }
        stop.store(true);
        writer.join().unwrap();
        t.check_invariants().unwrap();
    }

    #[test]
    fn a_dead_slot_in_a_leaf_is_corrupt_not_a_panic() {
        // Slot 5 of 10 is where the positioning binary search looks first;
        // slot 9 is only reached by the walk's own loop.
        for dead in [5u16, 9] {
            let t = tree();
            for i in 0..10 {
                t.insert(&k(i), &v(i)).unwrap();
            }
            {
                let mut page = t.pool.get_mut(t.root).unwrap();
                SlottedPageMut::new(&mut page).mark_deleted(dead);
            }
            let corrupt = |r: Result<()>| matches!(r, Err(StoreError::Corrupt(_)));
            assert!(corrupt(t.for_each_prefix(b"key-", |_, _| Ok(()))));
            assert!(corrupt(
                t.range(Bound::Included(&k(0)), Bound::Unbounded)
                    .and_then(|mut scan| scan.try_for_each(|r| r.map(|_| ())))
            ));
            assert!(corrupt(t.get(&k(dead as u32)).map(|_| ())));
        }
    }

    #[test]
    fn a_key_length_overrunning_its_cell_is_corrupt_not_a_panic() {
        let corrupt = |r: Result<Option<Vec<u8>>>| matches!(r, Err(StoreError::Corrupt(_)));
        // `klen` = 0xFFFF in a 3-byte cell.
        let overrun = [0xFF, 0xFF, b'x'];

        // A leaf cell: slot 5 of 10 is where the binary search looks first.
        let t = tree();
        for i in 0..10 {
            t.insert(&k(i), &v(i)).unwrap();
        }
        {
            let mut page = t.pool.get_mut(t.root).unwrap();
            SlottedPageMut::new(&mut page).replace(5, &overrun).unwrap();
        }
        assert!(corrupt(t.get(&k(5))));
        assert!(matches!(
            t.for_each_prefix(b"key-", |_, _| Ok(())),
            Err(StoreError::Corrupt(_))
        ));

        // Internal cells: every separator of a split root, so each descent
        // decodes one. A well-formed key with a short child id is corrupt too.
        for bad in [&overrun[..], &[1, 0, b'k', 7, 7][..]] {
            let t = tree();
            for i in 0..1000 {
                t.insert(&k(i), &v(i)).unwrap();
            }
            {
                let mut page = t.pool.get_mut(t.root).unwrap();
                let mut sp = SlottedPageMut::new(&mut page);
                assert_eq!(sp.view().page_type().unwrap(), PageType::BTreeInternal);
                for slot in 0..sp.view().slot_count() {
                    sp.replace(slot, bad).unwrap();
                }
            }
            assert!(corrupt(t.get(&k(500))));
        }
    }

    #[test]
    fn prefix_walk_propagates_the_visitor_error() {
        let t = tree();
        for i in 0..10 {
            t.insert(&k(i), &v(i)).unwrap();
        }
        let mut calls = 0;
        let err = t.for_each_prefix(b"key-", |_, _| {
            calls += 1;
            if calls == 3 {
                return Err(StoreError::Corrupt("stop here".into()));
            }
            Ok(())
        });
        assert!(matches!(err, Err(StoreError::Corrupt(_))));
        assert_eq!(calls, 3);
    }

    #[test]
    fn delete_existing_and_missing() {
        let t = tree();
        for i in 0..500 {
            t.insert(&k(i), &v(i)).unwrap();
        }
        assert!(t.delete(&k(250)).unwrap());
        assert!(!t.delete(&k(250)).unwrap());
        assert_eq!(t.get(&k(250)).unwrap(), None);
        assert_eq!(t.get(&k(249)).unwrap(), Some(v(249)));
        assert_eq!(t.len().unwrap(), 499);
    }

    #[test]
    fn delete_everything_then_reinsert() {
        let t = tree();
        for i in 0..1000 {
            t.insert(&k(i), &v(i)).unwrap();
        }
        for i in 0..1000 {
            assert!(t.delete(&k(i)).unwrap());
        }
        assert_eq!(t.len().unwrap(), 0);
        for i in 0..1000 {
            assert!(t.insert(&k(i), &v(i)).unwrap());
        }
        assert_eq!(t.len().unwrap(), 1000);
    }

    #[test]
    fn oversized_entry_rejected() {
        let t = tree();
        let big = vec![0u8; MAX_ENTRY + 1];
        assert!(matches!(
            t.insert(b"k", &big),
            Err(StoreError::RecordTooLarge { .. })
        ));
    }

    #[test]
    fn variable_sized_values_across_splits() {
        let t = tree();
        // Values of wildly varying sizes force byte-balanced splits.
        for i in 0..800u32 {
            let val = vec![b'x'; (i as usize * 37) % 1500];
            t.insert(&k(i), &val).unwrap();
        }
        for i in 0..800u32 {
            let val = vec![b'x'; (i as usize * 37) % 1500];
            assert_eq!(t.get(&k(i)).unwrap(), Some(val));
        }
    }

    #[test]
    fn upsert_larger_value_across_page_overflow() {
        let t = tree();
        let filler = vec![b'a'; 30];
        for i in 0..200u32 {
            t.insert(&k(i), &filler).unwrap();
        }
        // Grow one value so much its leaf must split.
        t.insert(&k(100), &vec![b'b'; 1800]).unwrap();
        assert_eq!(t.get(&k(100)).unwrap(), Some(vec![b'b'; 1800]));
        assert_eq!(t.len().unwrap(), 200);
        for i in 0..200u32 {
            if i != 100 {
                assert_eq!(t.get(&k(i)).unwrap(), Some(vec![b'a'; 30]));
            }
        }
    }

    #[test]
    fn root_page_id_is_stable_across_splits() {
        let pool = Arc::new(BufferPool::new(Box::new(MemPager::new()), 64));
        let t = BTree::create(Arc::clone(&pool)).unwrap();
        let root = t.root();
        for i in 0..10_000 {
            t.insert(&k(i), b"v").unwrap();
        }
        assert_eq!(t.root(), root);
        // Reopen by root id.
        drop(t);
        let t2 = BTree::open(pool, root);
        assert_eq!(t2.get(&k(9999)).unwrap(), Some(b"v".to_vec()));
        assert_eq!(t2.len().unwrap(), 10_000);
    }

    #[test]
    fn persists_through_file_pager() {
        let mut path = std::env::temp_dir();
        path.push(format!("fm-store-btree-{}.db", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let root;
        {
            let pool = Arc::new(BufferPool::new(
                Box::new(crate::pager::FilePager::open(&path).unwrap()),
                32,
            ));
            let t = BTree::create(Arc::clone(&pool)).unwrap();
            root = t.root();
            for i in 0..3000 {
                t.insert(&k(i), &v(i)).unwrap();
            }
            pool.flush().unwrap();
        }
        {
            let pool = Arc::new(BufferPool::new(
                Box::new(crate::pager::FilePager::open(&path).unwrap()),
                32,
            ));
            let t = BTree::open(pool, root);
            for i in (0..3000).step_by(17) {
                assert_eq!(t.get(&k(i)).unwrap(), Some(v(i)));
            }
            assert_eq!(t.len().unwrap(), 3000);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn concurrent_readers_during_reads() {
        let pool = Arc::new(BufferPool::new(Box::new(MemPager::new()), 64));
        let t = Arc::new(BTree::create(pool).unwrap());
        for i in 0..2000 {
            t.insert(&k(i), &v(i)).unwrap();
        }
        let mut handles = Vec::new();
        for start in 0..4u32 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for i in (start..2000).step_by(4) {
                    assert_eq!(t.get(&k(i)).unwrap(), Some(v(i)));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn bulk_fill_matches_insert_built_tree() {
        let n = 20_000u32;
        let entries: Vec<(Vec<u8>, Vec<u8>)> = (0..n).map(|i| (k(i), v(i))).collect();
        let bulk = tree();
        bulk.bulk_fill(entries.clone()).unwrap();
        let inserted = tree();
        for (key, value) in &entries {
            inserted.insert(key, value).unwrap();
        }
        // Same content, same order.
        assert_eq!(bulk.len().unwrap(), n as usize);
        for i in (0..n).step_by(97) {
            assert_eq!(bulk.get(&k(i)).unwrap(), Some(v(i)));
        }
        let a: Vec<_> = bulk
            .range(Bound::Unbounded, Bound::Unbounded)
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        let b: Vec<_> = inserted
            .range(Bound::Unbounded, Bound::Unbounded)
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn bulk_fill_stamps_node_levels() {
        // Regression: bulk_fill used to leave internal nodes at aux level 0,
        // so a later root split would compute the wrong root level and
        // check_invariants() rejected any bulk-built multi-level tree.
        let t = tree();
        t.bulk_fill((0..160_000u32).map(|i| (k(i), v(i)))).unwrap();
        let c = t.check_invariants().unwrap();
        assert!(c.depth >= 3, "want a tree with interior levels, got {c:?}");
        // Keep growing it through the incremental path; levels must stay
        // consistent through subsequent root splits too.
        for i in 160_000u32..170_000 {
            t.insert(&k(i), &v(i)).unwrap();
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn bulk_fill_packs_pages_denser_than_sorted_inserts() {
        let n = 20_000u32;
        let entries: Vec<(Vec<u8>, Vec<u8>)> = (0..n).map(|i| (k(i), v(i))).collect();
        let pool_bulk = Arc::new(BufferPool::new(Box::new(MemPager::new()), 64));
        let bulk = BTree::create(Arc::clone(&pool_bulk)).unwrap();
        bulk.bulk_fill(entries.clone()).unwrap();
        let pages_bulk = pool_bulk.page_count();
        let pool_ins = Arc::new(BufferPool::new(Box::new(MemPager::new()), 64));
        let ins = BTree::create(Arc::clone(&pool_ins)).unwrap();
        for (key, value) in &entries {
            ins.insert(key, value).unwrap();
        }
        let pages_ins = pool_ins.page_count();
        assert!(
            (pages_bulk as f64) < (pages_ins as f64) * 0.7,
            "bulk {pages_bulk} pages should be well under insert-built {pages_ins}"
        );
    }

    #[test]
    fn bulk_fill_small_and_empty() {
        let t = tree();
        t.bulk_fill(Vec::<(Vec<u8>, Vec<u8>)>::new()).unwrap();
        assert_eq!(t.len().unwrap(), 0);
        // Still usable afterwards.
        t.insert(b"a", b"1").unwrap();
        assert_eq!(t.get(b"a").unwrap(), Some(b"1".to_vec()));

        let t = tree();
        t.bulk_fill(vec![(b"k".to_vec(), b"v".to_vec())]).unwrap();
        assert_eq!(t.get(b"k").unwrap(), Some(b"v".to_vec()));
        assert_eq!(t.len().unwrap(), 1);
    }

    #[test]
    fn bulk_fill_then_normal_inserts_and_deletes() {
        let t = tree();
        t.bulk_fill((0..5000u32).map(|i| (k(i * 2), v(i)))).unwrap();
        // Interleave new odd keys through the packed leaves.
        for i in 0..2000u32 {
            t.insert(&k(i * 2 + 1), b"odd").unwrap();
        }
        assert_eq!(t.len().unwrap(), 7000);
        assert_eq!(t.get(&k(1001)).unwrap(), Some(b"odd".to_vec()));
        assert_eq!(t.get(&k(2000)).unwrap(), Some(v(1000)));
        assert!(t.delete(&k(2000)).unwrap());
        assert_eq!(t.get(&k(2000)).unwrap(), None);
    }

    #[test]
    fn bulk_fill_rejects_bad_input() {
        // Non-ascending keys.
        let t = tree();
        assert!(matches!(
            t.bulk_fill(vec![
                (b"b".to_vec(), b"1".to_vec()),
                (b"a".to_vec(), b"2".to_vec()),
            ]),
            Err(StoreError::Corrupt(_))
        ));
        // Duplicate keys.
        let t = tree();
        assert!(t
            .bulk_fill(vec![
                (b"a".to_vec(), b"1".to_vec()),
                (b"a".to_vec(), b"2".to_vec()),
            ])
            .is_err());
        // Non-empty tree.
        let t = tree();
        t.insert(b"x", b"y").unwrap();
        assert!(matches!(
            t.bulk_fill(vec![(b"a".to_vec(), b"1".to_vec())]),
            Err(StoreError::Corrupt(_))
        ));
        // Oversized entry.
        let t = tree();
        assert!(matches!(
            t.bulk_fill(vec![(b"k".to_vec(), vec![0u8; MAX_ENTRY + 1])]),
            Err(StoreError::RecordTooLarge { .. })
        ));
    }

    #[test]
    fn bulk_fill_root_id_stable_and_persistent() {
        let mut path = std::env::temp_dir();
        path.push(format!("fm-store-bulk-{}.db", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let root;
        {
            let pool = Arc::new(BufferPool::new(
                Box::new(crate::pager::FilePager::open(&path).unwrap()),
                64,
            ));
            let t = BTree::create(Arc::clone(&pool)).unwrap();
            root = t.root();
            t.bulk_fill((0..8000u32).map(|i| (k(i), v(i)))).unwrap();
            assert_eq!(t.root(), root);
            pool.flush().unwrap();
        }
        {
            let pool = Arc::new(BufferPool::new(
                Box::new(crate::pager::FilePager::open(&path).unwrap()),
                64,
            ));
            let t = BTree::open(pool, root);
            assert_eq!(t.len().unwrap(), 8000);
            assert_eq!(t.get(&k(4321)).unwrap(), Some(v(4321)));
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn injected_fault_during_insert_surfaces() {
        use crate::pager::{FaultPager, MemPager};
        let pool = Arc::new(BufferPool::new(
            Box::new(FaultPager::new(MemPager::new(), 200)),
            8, // small pool forces I/O traffic
        ));
        let t = BTree::create(pool).unwrap();
        let mut failed = false;
        for i in 0..100_000 {
            match t.insert(&k(i), &v(i)) {
                Ok(_) => {}
                Err(StoreError::InjectedFault) => {
                    failed = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(failed, "fault budget should have been exhausted");
    }

    /// A tree deep enough to have internal nodes, plus its pool for
    /// corruption surgery.
    fn split_tree(n: u32) -> (Arc<BufferPool>, BTree) {
        let pool = Arc::new(BufferPool::new(Box::new(MemPager::new()), 64));
        let t = BTree::create(Arc::clone(&pool)).unwrap();
        for i in 0..n {
            t.insert(&k(i), &v(i)).unwrap();
        }
        (pool, t)
    }

    #[test]
    fn check_invariants_accepts_healthy_trees() {
        // Empty tree.
        let t = tree();
        let c = t.check_invariants().unwrap();
        assert_eq!(
            (c.depth, c.leaf_pages, c.internal_pages, c.entries),
            (1, 1, 0, 0)
        );
        // Multi-level tree, including after deletions (underfull leaves are
        // legal) and upserts.
        let (_pool, t) = split_tree(5000);
        for i in (0..5000).step_by(3) {
            t.delete(&k(i)).unwrap();
        }
        t.insert(&k(17), b"rewritten").unwrap();
        let c = t.check_invariants().unwrap();
        assert!(c.depth >= 2, "{c:?}");
        assert!(c.internal_pages >= 1);
        assert_eq!(c.entries, t.len().unwrap());
        assert!(c.leaf_live_bytes > 0);
    }

    #[test]
    fn check_invariants_detects_key_disorder_in_leaf() {
        let (pool, t) = split_tree(0);
        t.insert(b"bbb", b"v").unwrap();
        // Smuggle an out-of-order cell into the leaf behind the tree's back.
        {
            let mut page = pool.get_mut(t.root()).unwrap();
            let mut sp = SlottedPageMut::new(&mut page);
            sp.insert_at(1, &leaf_cell(b"aaa", b"v")).unwrap();
        }
        let err = t.check_invariants().unwrap_err();
        assert!(err.to_string().contains("out of order"), "{err}");
    }

    #[test]
    fn check_invariants_detects_broken_sibling_link() {
        let (pool, t) = split_tree(3000);
        // Sever the leftmost leaf's right-sibling pointer.
        let leftmost = {
            let page = pool.get(t.root()).unwrap();
            let sp = SlottedPage::new(&page);
            assert_eq!(sp.page_type().unwrap(), PageType::BTreeInternal);
            sp.next_page()
        };
        let first_leaf = {
            // Walk down to level 0.
            let mut id = leftmost;
            loop {
                let page = pool.get(id).unwrap();
                let sp = SlottedPage::new(&page);
                if sp.page_type().unwrap() == PageType::BTreeLeaf {
                    break id;
                }
                id = sp.next_page();
            }
        };
        {
            let mut page = pool.get_mut(first_leaf).unwrap();
            SlottedPageMut::new(&mut page).set_next_page(PageId::NONE);
        }
        let err = t.check_invariants().unwrap_err();
        assert!(err.to_string().contains("sibling link"), "{err}");
    }

    #[test]
    fn check_invariants_detects_wrong_child_level() {
        let (pool, t) = split_tree(3000);
        let leftmost_leaf = {
            let mut id = t.root();
            loop {
                let page = pool.get(id).unwrap();
                let sp = SlottedPage::new(&page);
                if sp.page_type().unwrap() == PageType::BTreeLeaf {
                    break id;
                }
                id = sp.next_page();
            }
        };
        {
            let mut page = pool.get_mut(leftmost_leaf).unwrap();
            SlottedPageMut::new(&mut page).set_aux(7);
        }
        let err = t.check_invariants().unwrap_err();
        assert!(err.to_string().contains("level"), "{err}");
    }

    #[test]
    fn check_invariants_detects_separator_bound_violation() {
        let (pool, t) = split_tree(3000);
        // Put a key that belongs far to the right into the leftmost leaf.
        let leftmost_leaf = {
            let mut id = t.root();
            loop {
                let page = pool.get(id).unwrap();
                let sp = SlottedPage::new(&page);
                if sp.page_type().unwrap() == PageType::BTreeLeaf {
                    break id;
                }
                id = sp.next_page();
            }
        };
        {
            let mut page = pool.get_mut(leftmost_leaf).unwrap();
            let mut sp = SlottedPageMut::new(&mut page);
            let n = sp.view().slot_count();
            sp.insert_at(n, &leaf_cell(b"zzzz-way-out-of-range", b"v"))
                .unwrap();
        }
        let err = t.check_invariants().unwrap_err();
        assert!(err.to_string().contains("bound"), "{err}");
    }
}
