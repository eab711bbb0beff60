//! Page-oriented B+tree, the storage structure behind every LiteDB table
//! ("the database models each table as a B-tree", §7.1).
//!
//! Nodes are whole 4 KiB pages (paper property ②: data-structure nodes
//! are page-aligned). All page IO goes through the [`Backend`] trait, so
//! the same tree runs over the WAL baseline and the MemSnap region.

use msnap_disk::codec::{get_u16, get_u32, get_u64, set_u16, set_u32, set_u64};
use msnap_sim::{Category, Nanos, Vt, VthreadId};

use crate::backend::Backend;
use crate::PAGE_SIZE;

const META_MAGIC: u32 = 0x4C697442; // "LitB"
/// Table-root slots in the meta page.
pub const MAX_TABLES: usize = 32;
/// Maximum value length storable in a leaf entry.
pub const MAX_VALUE: usize = 1024;

const TYPE_LEAF: u8 = 1;
const TYPE_INTERIOR: u8 = 2;

const LEAF_HDR: usize = 16; // type, nkeys, next_leaf
const INT_HDR: usize = 16; // type, nkeys, child0
const LEAF_ENTRY_FIXED: usize = 10; // key + vlen
const INT_ENTRY: usize = 16; // key + child

/// CPU cost of examining one B-tree page (search within node).
const NODE_VISIT: Nanos = Nanos::from_ns(150);

type Page = [u8; PAGE_SIZE];

// ---- Leaf page accessors ------------------------------------------------

fn leaf_init(p: &mut Page) {
    p.fill(0);
    p[0] = TYPE_LEAF;
}

fn leaf_nkeys(p: &Page) -> usize {
    get_u16(p, 2) as usize
}

fn leaf_next(p: &Page) -> u64 {
    get_u64(p, 8)
}

fn leaf_set_next(p: &mut Page, next: u64) {
    set_u64(p, 8, next);
}

/// Decodes all leaf entries.
fn leaf_entries(p: &Page) -> Vec<(u64, Vec<u8>)> {
    let n = leaf_nkeys(p);
    let mut off = LEAF_HDR;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let key = get_u64(p, off);
        let vlen = get_u16(p, off + 8) as usize;
        out.push((key, p[off + 10..off + 10 + vlen].to_vec()));
        off += LEAF_ENTRY_FIXED + vlen;
    }
    out
}

/// Re-encodes leaf entries; returns `false` if they do not fit.
fn leaf_write_entries(p: &mut Page, next: u64, entries: &[(u64, Vec<u8>)]) -> bool {
    let used: usize = LEAF_HDR
        + entries
            .iter()
            .map(|(_, v)| LEAF_ENTRY_FIXED + v.len())
            .sum::<usize>();
    if used > PAGE_SIZE {
        return false;
    }
    leaf_init(p);
    leaf_set_next(p, next);
    set_u16(p, 2, entries.len() as u16);
    let mut off = LEAF_HDR;
    for (key, value) in entries {
        set_u64(p, off, *key);
        set_u16(p, off + 8, value.len() as u16);
        p[off + 10..off + 10 + value.len()].copy_from_slice(value);
        off += LEAF_ENTRY_FIXED + value.len();
    }
    true
}

// ---- Interior page accessors --------------------------------------------

fn interior_write(p: &mut Page, child0: u64, entries: &[(u64, u64)]) -> bool {
    if INT_HDR + entries.len() * INT_ENTRY > PAGE_SIZE {
        return false;
    }
    p.fill(0);
    p[0] = TYPE_INTERIOR;
    set_u16(p, 2, entries.len() as u16);
    set_u64(p, 8, child0);
    for (i, (key, child)) in entries.iter().enumerate() {
        set_u64(p, INT_HDR + i * INT_ENTRY, *key);
        set_u64(p, INT_HDR + i * INT_ENTRY + 8, *child);
    }
    true
}

fn interior_read(p: &Page) -> (u64, Vec<(u64, u64)>) {
    let n = get_u16(p, 2) as usize;
    let child0 = get_u64(p, 8);
    let entries = (0..n)
        .map(|i| {
            (
                get_u64(p, INT_HDR + i * INT_ENTRY),
                get_u64(p, INT_HDR + i * INT_ENTRY + 8),
            )
        })
        .collect();
    (child0, entries)
}

/// Child to descend into for `key`.
fn interior_child_for(child0: u64, entries: &[(u64, u64)], key: u64) -> u64 {
    // entries[i].0 is the smallest key in entries[i].1's subtree.
    let idx = entries.partition_point(|&(k, _)| k <= key);
    if idx == 0 {
        child0
    } else {
        entries[idx - 1].1
    }
}

// ---- Meta page -----------------------------------------------------------

fn meta_read(p: &Page) -> (u64, [u64; MAX_TABLES]) {
    let npages = get_u64(p, 8);
    let mut roots = [0u64; MAX_TABLES];
    for (i, r) in roots.iter_mut().enumerate() {
        *r = get_u64(p, 16 + i * 8);
    }
    (npages, roots)
}

fn meta_write(p: &mut Page, npages: u64, roots: &[u64; MAX_TABLES]) {
    p.fill(0);
    set_u32(p, 0, META_MAGIC);
    set_u64(p, 8, npages);
    for (i, r) in roots.iter().enumerate() {
        set_u64(p, 16 + i * 8, *r);
    }
}

// ---- The tree ------------------------------------------------------------

/// A forest of B+trees sharing one backend: the meta page (page 0) maps
/// table slots to tree roots and tracks page allocation.
pub(crate) struct BTreeForest;

impl BTreeForest {
    /// Formats the meta page (fresh database).
    pub fn init(vt: &mut Vt, backend: &mut dyn Backend, thread: VthreadId) {
        let mut meta = [0u8; PAGE_SIZE];
        meta_write(&mut meta, 1, &[0u64; MAX_TABLES]);
        backend.write_page(vt, thread, 0, &meta);
    }

    /// Whether the backend holds an initialized database.
    pub fn is_initialized(vt: &mut Vt, backend: &mut dyn Backend) -> bool {
        let mut meta = [0u8; PAGE_SIZE];
        backend.read_page(vt, 0, &mut meta);
        get_u32(&meta, 0) == META_MAGIC
    }

    fn alloc_page(
        vt: &mut Vt,
        backend: &mut dyn Backend,
        thread: VthreadId,
        meta: &mut Page,
    ) -> u64 {
        let (npages, roots) = meta_read(meta);
        assert!(
            npages < backend.capacity_pages(),
            "database full: {npages} pages"
        );
        meta_write(meta, npages + 1, &roots);
        backend.write_page(vt, thread, 0, meta);
        npages
    }

    /// Creates an empty tree in `slot`; returns its root page.
    ///
    /// # Panics
    ///
    /// Panics if the slot is already in use or out of range.
    pub fn create_tree(
        vt: &mut Vt,
        backend: &mut dyn Backend,
        thread: VthreadId,
        slot: usize,
    ) -> u64 {
        let mut meta = [0u8; PAGE_SIZE];
        backend.read_page(vt, 0, &mut meta);
        let (_, roots) = meta_read(&meta);
        assert!(slot < MAX_TABLES, "table slot out of range");
        assert_eq!(roots[slot], 0, "table slot already in use");
        let root = Self::alloc_page(vt, backend, thread, &mut meta);
        let mut leaf = [0u8; PAGE_SIZE];
        leaf_init(&mut leaf);
        backend.write_page(vt, thread, root, &leaf);
        let (npages, mut roots) = meta_read(&meta);
        roots[slot] = root;
        meta_write(&mut meta, npages, &roots);
        backend.write_page(vt, thread, 0, &meta);
        root
    }

    /// The root page of `slot`'s tree, or 0 if absent.
    pub fn tree_root(vt: &mut Vt, backend: &mut dyn Backend, slot: usize) -> u64 {
        let mut meta = [0u8; PAGE_SIZE];
        backend.read_page(vt, 0, &mut meta);
        meta_read(&meta).1[slot]
    }

    /// Point lookup.
    pub fn get(vt: &mut Vt, backend: &mut dyn Backend, slot: usize, key: u64) -> Option<Vec<u8>> {
        let mut page_no = Self::tree_root(vt, backend, slot);
        if page_no == 0 {
            return None;
        }
        let mut page = [0u8; PAGE_SIZE];
        loop {
            backend.read_page(vt, page_no, &mut page);
            vt.charge(Category::OtherUserspace, NODE_VISIT);
            match page[0] {
                TYPE_LEAF => {
                    return leaf_entries(&page)
                        .into_iter()
                        .find(|(k, _)| *k == key)
                        .map(|(_, v)| v);
                }
                TYPE_INTERIOR => {
                    let (child0, entries) = interior_read(&page);
                    page_no = interior_child_for(child0, &entries, key);
                }
                t => panic!("corrupt page {page_no}: type {t}"),
            }
        }
    }

    /// Range scan: up to `limit` entries with keys ≥ `key`, in order.
    pub fn scan_from(
        vt: &mut Vt,
        backend: &mut dyn Backend,
        slot: usize,
        key: u64,
        limit: usize,
    ) -> Vec<(u64, Vec<u8>)> {
        let mut page_no = Self::tree_root(vt, backend, slot);
        if page_no == 0 {
            return Vec::new();
        }
        let mut page = [0u8; PAGE_SIZE];
        // Descend to the leaf containing `key`.
        loop {
            backend.read_page(vt, page_no, &mut page);
            vt.charge(Category::OtherUserspace, NODE_VISIT);
            if page[0] == TYPE_LEAF {
                break;
            }
            let (child0, entries) = interior_read(&page);
            page_no = interior_child_for(child0, &entries, key);
        }
        // Walk leaves via next pointers.
        let mut out = Vec::new();
        loop {
            for (k, v) in leaf_entries(&page) {
                if k >= key {
                    out.push((k, v));
                    if out.len() == limit {
                        return out;
                    }
                }
            }
            let next = leaf_next(&page);
            if next == 0 {
                return out;
            }
            backend.read_page(vt, next, &mut page);
            vt.charge(Category::OtherUserspace, NODE_VISIT);
        }
    }

    /// Inserts or replaces `key`.
    ///
    /// # Panics
    ///
    /// Panics if the value exceeds [`MAX_VALUE`] or the tree is absent.
    pub fn insert(
        vt: &mut Vt,
        backend: &mut dyn Backend,
        thread: VthreadId,
        slot: usize,
        key: u64,
        value: &[u8],
    ) {
        assert!(value.len() <= MAX_VALUE, "value exceeds MAX_VALUE");
        let root = Self::tree_root(vt, backend, slot);
        assert_ne!(root, 0, "table does not exist");

        // Descend, recording the path.
        let mut path: Vec<u64> = Vec::new();
        let mut page_no = root;
        let mut page = [0u8; PAGE_SIZE];
        loop {
            backend.read_page(vt, page_no, &mut page);
            vt.charge(Category::OtherUserspace, NODE_VISIT);
            if page[0] == TYPE_LEAF {
                break;
            }
            path.push(page_no);
            let (child0, entries) = interior_read(&page);
            page_no = interior_child_for(child0, &entries, key);
        }

        // Insert into the leaf.
        let mut entries = leaf_entries(&page);
        match entries.binary_search_by_key(&key, |(k, _)| *k) {
            Ok(i) => entries[i].1 = value.to_vec(),
            Err(i) => entries.insert(i, (key, value.to_vec())),
        }
        let next = leaf_next(&page);
        if leaf_write_entries(&mut page, next, &entries) {
            backend.write_page(vt, thread, page_no, &page);
            return;
        }

        // Leaf split.
        let mut meta = [0u8; PAGE_SIZE];
        backend.read_page(vt, 0, &mut meta);
        let new_leaf_no = Self::alloc_page(vt, backend, thread, &mut meta);
        let mid = entries.len() / 2;
        let right_entries = entries.split_off(mid);
        let sep_key = right_entries[0].0;
        let mut right = [0u8; PAGE_SIZE];
        assert!(leaf_write_entries(&mut right, next, &right_entries));
        assert!(leaf_write_entries(&mut page, new_leaf_no, &entries));
        backend.write_page(vt, thread, page_no, &page);
        backend.write_page(vt, thread, new_leaf_no, &right);

        // Propagate the separator up the path.
        let mut sep = (sep_key, new_leaf_no);
        let mut child_below = page_no;
        loop {
            match path.pop() {
                Some(parent_no) => {
                    let mut parent = [0u8; PAGE_SIZE];
                    backend.read_page(vt, parent_no, &mut parent);
                    let (child0, mut ents) = interior_read(&parent);
                    let pos = ents.partition_point(|&(k, _)| k <= sep.0);
                    ents.insert(pos, sep);
                    if interior_write(&mut parent, child0, &ents) {
                        backend.write_page(vt, thread, parent_no, &parent);
                        return;
                    }
                    // Interior split.
                    let new_int_no = Self::alloc_page(vt, backend, thread, &mut meta);
                    let mid = ents.len() / 2;
                    let mut right_ents = ents.split_off(mid);
                    let (up_key, right_child0) = right_ents.remove(0);
                    let mut right_page = [0u8; PAGE_SIZE];
                    assert!(interior_write(&mut right_page, right_child0, &right_ents));
                    assert!(interior_write(&mut parent, child0, &ents));
                    backend.write_page(vt, thread, parent_no, &parent);
                    backend.write_page(vt, thread, new_int_no, &right_page);
                    sep = (up_key, new_int_no);
                    child_below = parent_no;
                }
                None => {
                    // Root split: allocate a new root.
                    let new_root_no = Self::alloc_page(vt, backend, thread, &mut meta);
                    let mut new_root = [0u8; PAGE_SIZE];
                    assert!(interior_write(&mut new_root, child_below, &[sep]));
                    backend.write_page(vt, thread, new_root_no, &new_root);
                    let (npages, mut roots) = meta_read(&meta);
                    roots[slot] = new_root_no;
                    meta_write(&mut meta, npages, &roots);
                    backend.write_page(vt, thread, 0, &meta);
                    return;
                }
            }
        }
    }

    /// Removes `key`; returns whether it was present. (Leaves may
    /// underflow; merging is not implemented, as in many embedded
    /// engines.)
    pub fn delete(
        vt: &mut Vt,
        backend: &mut dyn Backend,
        thread: VthreadId,
        slot: usize,
        key: u64,
    ) -> bool {
        let mut page_no = Self::tree_root(vt, backend, slot);
        if page_no == 0 {
            return false;
        }
        let mut page = [0u8; PAGE_SIZE];
        loop {
            backend.read_page(vt, page_no, &mut page);
            vt.charge(Category::OtherUserspace, NODE_VISIT);
            if page[0] == TYPE_LEAF {
                break;
            }
            let (child0, entries) = interior_read(&page);
            page_no = interior_child_for(child0, &entries, key);
        }
        let mut entries = leaf_entries(&page);
        match entries.binary_search_by_key(&key, |(k, _)| *k) {
            Ok(i) => {
                entries.remove(i);
                let next = leaf_next(&page);
                assert!(leaf_write_entries(&mut page, next, &entries));
                backend.write_page(vt, thread, page_no, &page);
                true
            }
            Err(_) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendStats;
    use msnap_sim::Meters;
    use std::collections::HashMap;

    /// Trivial in-memory backend for exercising the tree alone.
    struct MemBackend {
        pages: HashMap<u64, Page>,
    }

    impl MemBackend {
        fn new() -> Self {
            MemBackend {
                pages: HashMap::new(),
            }
        }
    }

    impl Backend for MemBackend {
        fn read_page(&mut self, _vt: &mut Vt, page: u64, out: &mut Page) {
            match self.pages.get(&page) {
                Some(p) => out.copy_from_slice(p),
                None => out.fill(0),
            }
        }
        fn write_page(&mut self, _vt: &mut Vt, _thread: VthreadId, page: u64, data: &Page) {
            self.pages.insert(page, *data);
        }
        fn commit(
            &mut self,
            _vt: &mut Vt,
            _thread: VthreadId,
        ) -> Result<(), crate::backend::CommitError> {
            Ok(())
        }
        fn capacity_pages(&self) -> u64 {
            1 << 20
        }
        fn stats(&self) -> BackendStats {
            BackendStats::default()
        }
        fn meters(&self) -> Meters {
            Meters::new()
        }
        fn reset_metrics(&mut self) {}
        fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
            self
        }
    }

    fn setup() -> (MemBackend, Vt) {
        let mut b = MemBackend::new();
        let mut vt = Vt::new(0);
        let t = vt.id();
        BTreeForest::init(&mut vt, &mut b, t);
        BTreeForest::create_tree(&mut vt, &mut b, t, 0);
        (b, vt)
    }

    #[test]
    fn insert_get_single() {
        let (mut b, mut vt) = setup();
        let t = vt.id();
        BTreeForest::insert(&mut vt, &mut b, t, 0, 42, b"hello");
        assert_eq!(
            BTreeForest::get(&mut vt, &mut b, 0, 42),
            Some(b"hello".to_vec())
        );
        assert_eq!(BTreeForest::get(&mut vt, &mut b, 0, 43), None);
    }

    #[test]
    fn update_replaces() {
        let (mut b, mut vt) = setup();
        let t = vt.id();
        BTreeForest::insert(&mut vt, &mut b, t, 0, 1, b"old");
        BTreeForest::insert(&mut vt, &mut b, t, 0, 1, b"newer-value");
        assert_eq!(
            BTreeForest::get(&mut vt, &mut b, 0, 1),
            Some(b"newer-value".to_vec())
        );
    }

    #[test]
    fn many_inserts_split_and_stay_sorted() {
        let (mut b, mut vt) = setup();
        let t = vt.id();
        let n = 5000u64;
        // Insert in a scrambled order.
        for i in 0..n {
            let key = (i * 7919) % n;
            BTreeForest::insert(&mut vt, &mut b, t, 0, key, &key.to_le_bytes());
        }
        for key in 0..n {
            assert_eq!(
                BTreeForest::get(&mut vt, &mut b, 0, key),
                Some(key.to_le_bytes().to_vec()),
                "key {key}"
            );
        }
        // Full scan returns everything in order.
        let all = BTreeForest::scan_from(&mut vt, &mut b, 0, 0, n as usize + 10);
        assert_eq!(all.len(), n as usize);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn large_values_split_correctly() {
        let (mut b, mut vt) = setup();
        let t = vt.id();
        for i in 0..200u64 {
            BTreeForest::insert(&mut vt, &mut b, t, 0, i, &vec![i as u8; 800]);
        }
        for i in 0..200u64 {
            assert_eq!(
                BTreeForest::get(&mut vt, &mut b, 0, i),
                Some(vec![i as u8; 800])
            );
        }
    }

    #[test]
    fn scan_from_mid_key() {
        let (mut b, mut vt) = setup();
        let t = vt.id();
        for i in 0..1000u64 {
            BTreeForest::insert(&mut vt, &mut b, t, 0, i * 2, b"v");
        }
        let scan = BTreeForest::scan_from(&mut vt, &mut b, 0, 501, 5);
        let keys: Vec<u64> = scan.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![502, 504, 506, 508, 510]);
    }

    #[test]
    fn delete_removes_and_reports() {
        let (mut b, mut vt) = setup();
        let t = vt.id();
        for i in 0..500u64 {
            BTreeForest::insert(&mut vt, &mut b, t, 0, i, b"v");
        }
        assert!(BTreeForest::delete(&mut vt, &mut b, t, 0, 250));
        assert!(!BTreeForest::delete(&mut vt, &mut b, t, 0, 250));
        assert_eq!(BTreeForest::get(&mut vt, &mut b, 0, 250), None);
        assert_eq!(
            BTreeForest::get(&mut vt, &mut b, 0, 251),
            Some(b"v".to_vec())
        );
    }

    #[test]
    fn multiple_tables_are_independent() {
        let (mut b, mut vt) = setup();
        let t = vt.id();
        BTreeForest::create_tree(&mut vt, &mut b, t, 1);
        BTreeForest::insert(&mut vt, &mut b, t, 0, 7, b"t0");
        BTreeForest::insert(&mut vt, &mut b, t, 1, 7, b"t1");
        assert_eq!(
            BTreeForest::get(&mut vt, &mut b, 0, 7),
            Some(b"t0".to_vec())
        );
        assert_eq!(
            BTreeForest::get(&mut vt, &mut b, 1, 7),
            Some(b"t1".to_vec())
        );
        assert!(BTreeForest::delete(&mut vt, &mut b, t, 0, 7));
        assert_eq!(
            BTreeForest::get(&mut vt, &mut b, 1, 7),
            Some(b"t1".to_vec())
        );
    }

    #[test]
    #[should_panic(expected = "MAX_VALUE")]
    fn oversized_value_rejected() {
        let (mut b, mut vt) = setup();
        let t = vt.id();
        BTreeForest::insert(&mut vt, &mut b, t, 0, 1, &vec![0u8; MAX_VALUE + 1]);
    }
}
