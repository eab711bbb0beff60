//! On-disk layout: superblock, directory entries, root and delta records.

use msnap_disk::codec::{get_u32, get_u64, set_u32, set_u64, Reader, Truncated};
use msnap_disk::{fnv1a, BLOCK_SIZE};

use crate::StoreError;

/// A μCheckpoint epoch: each object's monotonically increasing commit
/// counter (the paper's `epoch_t`).
pub type Epoch = u64;

/// Identifier of an object within the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub u32);

impl std::fmt::Display for ObjectId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "obj{}", self.0)
    }
}

/// Magic number of a full root record block.
pub(crate) const ROOT_MAGIC: u64 = 0x4d534e_41505232; // "MSN APR2"
/// Magic number of a delta record block.
pub(crate) const DELTA_MAGIC: u64 = 0x4d534e_41504454; // "MSN APDT"
/// Magic number of a batch (group-commit) record block.
pub(crate) const BATCH_MAGIC: u64 = 0x4d534e_41504254; // "MSN APBT"
/// Magic number of the header block that opens each shard's metadata
/// slab.
pub(crate) const SLAB_MAGIC: u64 = 0x4d534e41_50535550; // "MSNA PSUP"
/// Magic number of the store superblock at block 0. Carries the shard
/// count and extent-broker granularity; the cut slots and the per-shard
/// metadata slabs follow it. A device whose block 0 holds anything else
/// is not a store.
pub(crate) const SUPER_MAGIC_V3: u64 = 0x4d534e41_50535533; // "MSNA PSU3"
/// Magic number of an epoch-vector cut record block.
pub(crate) const CUT_MAGIC: u64 = 0x4d534e_41504354; // "MSN APCT"
/// Magic number of a snapshot-catalog block.
pub(crate) const SNAP_MAGIC: u64 = 0x4d534e_41505350; // "MSN APSP"

/// Slab-relative block of the shard's header block.
pub(crate) const SLAB_HEADER: u64 = 0;
/// First block of the object directory.
pub(crate) const DIR_START: u64 = 1;
/// Number of directory blocks.
pub(crate) const DIR_BLOCKS: u64 = 8;
/// First block of the store-wide batch-record ring (group commit).
pub(crate) const BATCH_RING_START: u64 = DIR_START + DIR_BLOCKS;
/// Batch-record slots shared by all objects. A slot is reused only after
/// every object it mentions has flushed a newer full root, so a live
/// batch commit is never overwritten.
pub const BATCH_SLOTS: u64 = 32;
/// First block of the snapshot catalog: two alternating slots written
/// with a sequence number, so a torn catalog write leaves the previous
/// catalog intact (same dual-slot discipline as the per-object roots).
pub(crate) const SNAP_CATALOG_START: u64 = BATCH_RING_START + BATCH_SLOTS;
/// Snapshot-catalog slots.
pub(crate) const SNAP_CATALOG_SLOTS: u64 = 2;
/// Blocks in one shard's metadata slab: header block, directory, batch
/// ring, snapshot catalog. The offsets above are slab-relative.
pub(crate) const SHARD_SLAB_BLOCKS: u64 = SNAP_CATALOG_START + SNAP_CATALOG_SLOTS;
/// First of the two alternating epoch-vector cut slots (right after the
/// superblock at block 0).
pub(crate) const CUT_SLOT_START: u64 = 1;
/// Number of alternating cut slots.
pub(crate) const CUT_SLOTS: u64 = 2;
/// First shard slab (the superblock and the cut slots precede it).
pub(crate) const SHARD_SLAB_START: u64 = CUT_SLOT_START + CUT_SLOTS;
/// Maximum shards in a store: global object ids pack the shard index
/// into the id's high byte, so 256 is the format ceiling.
pub const MAX_SHARDS: usize = 256;
/// Bit position of the shard index within a global object id.
pub(crate) const SHARD_ID_SHIFT: u32 = 24;

/// Where one shard's metadata lives on the device, plus the first block
/// the store may hand to data. Shard `s` of an `n`-shard store owns the
/// slab at `SHARD_SLAB_START + s * SHARD_SLAB_BLOCKS`, and data
/// allocation starts past every slab.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardLayout {
    /// First block of this shard's metadata slab.
    pub base: u64,
    /// First block eligible for data allocation (shared by all shards of
    /// a store: the end of the last slab).
    pub data_floor: u64,
}

impl ShardLayout {
    /// The layout of shard `index` in a store of `shard_count` shards.
    pub fn sharded(index: usize, shard_count: usize) -> ShardLayout {
        assert!(index < shard_count && shard_count <= MAX_SHARDS);
        ShardLayout {
            base: SHARD_SLAB_START + index as u64 * SHARD_SLAB_BLOCKS,
            data_floor: SHARD_SLAB_START + shard_count as u64 * SHARD_SLAB_BLOCKS,
        }
    }

    /// This shard's header block.
    pub(crate) fn header(&self) -> u64 {
        self.base + SLAB_HEADER
    }

    /// First directory block.
    pub(crate) fn dir_start(&self) -> u64 {
        self.base + DIR_START
    }

    /// First batch-ring block.
    pub(crate) fn batch_ring_start(&self) -> u64 {
        self.base + BATCH_RING_START
    }

    /// First snapshot-catalog block.
    pub(crate) fn snap_catalog_start(&self) -> u64 {
        self.base + SNAP_CATALOG_START
    }

    /// The snapshot-catalog slot a catalog sequence number writes to.
    pub(crate) fn snap_slot(&self, seq: u64) -> u64 {
        self.base + SnapCatalog::slot(seq)
    }
}

/// The store superblock: shard count and extent-broker granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuperV3 {
    /// Number of shards the device was formatted with.
    pub shard_count: u64,
    /// Blocks per extent-broker grant.
    pub extent_blocks: u64,
}

impl SuperV3 {
    /// Serializes into a block image.
    pub fn to_block(&self) -> [u8; BLOCK_SIZE] {
        let mut block = [0u8; BLOCK_SIZE];
        set_u64(&mut block, 0, SUPER_MAGIC_V3);
        set_u64(&mut block, 8, self.shard_count);
        set_u64(&mut block, 16, self.extent_blocks);
        let checksum = fnv1a(&block[0..24]);
        set_u64(&mut block, 24, checksum);
        block
    }

    /// Parses and validates a superblock; `None` if the block is not one
    /// (an unformatted or foreign device) or is corrupt.
    pub fn from_block(block: &[u8]) -> Option<SuperV3> {
        if get_u64(block, 0) != SUPER_MAGIC_V3 || fnv1a(&block[0..24]) != get_u64(block, 24) {
            return None;
        }
        let shard_count = get_u64(block, 8);
        let extent_blocks = get_u64(block, 16);
        if shard_count == 0 || shard_count > MAX_SHARDS as u64 || extent_blocks == 0 {
            return None;
        }
        Some(SuperV3 {
            shard_count,
            extent_blocks,
        })
    }
}

/// A durable epoch-vector cut: the coordinator's stamp of every shard's
/// epoch sum, taken by the drain→stamp→release fuzzy-cut protocol and
/// written to the alternating cut slot `seq % CUT_SLOTS` *after* every
/// member commit is durable. Recovery adopts the valid slot with the
/// highest `seq`; a torn cut write falls back to the previous cut, so
/// the named cut is always one whose every component really committed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CutRecord {
    /// Monotone cut sequence number (picks the slot).
    pub seq: u64,
    /// Per-shard epoch sums, indexed by shard.
    pub epochs: Vec<Epoch>,
}

impl CutRecord {
    /// The cut slot this sequence number writes to.
    pub(crate) fn slot(seq: u64) -> u64 {
        CUT_SLOT_START + seq % CUT_SLOTS
    }

    /// Serializes into a block image.
    ///
    /// # Panics
    ///
    /// Panics if there are more than [`MAX_SHARDS`] components.
    pub fn to_block(&self) -> [u8; BLOCK_SIZE] {
        assert!(self.epochs.len() <= MAX_SHARDS, "cut record overflow");
        let mut block = [0u8; BLOCK_SIZE];
        set_u64(&mut block, 0, CUT_MAGIC);
        set_u64(&mut block, 8, self.seq);
        set_u64(&mut block, 16, self.epochs.len() as u64);
        for (i, e) in self.epochs.iter().enumerate() {
            set_u64(&mut block, 32 + i * 8, *e);
        }
        let end = 32 + self.epochs.len() * 8;
        let checksum = fnv1a(&block[0..24]) ^ fnv1a(&block[32..end]);
        set_u64(&mut block, 24, checksum);
        block
    }

    /// Parses and validates a cut-slot block; `None` if the slot is
    /// empty or torn.
    pub fn from_block(block: &[u8]) -> Option<CutRecord> {
        let count = get_u64(block, 16);
        if get_u64(block, 0) != CUT_MAGIC || count > MAX_SHARDS as u64 {
            return None;
        }
        let end = 32 + count as usize * 8;
        if fnv1a(&block[0..24]) ^ fnv1a(&block[32..end]) != get_u64(block, 24) {
            return None;
        }
        Some(CutRecord {
            seq: get_u64(block, 8),
            epochs: (0..count as usize)
                .map(|i| get_u64(block, 32 + i * 8))
                .collect(),
        })
    }
}

/// Delta-record slots per object. Every `DELTA_SLOTS`-th commit flushes
/// the COW tree nodes and writes a full root, so a delta slot is never
/// reused before a newer full root covers it.
pub const DELTA_SLOTS: u64 = 32;
/// Blocks reserved per object at creation: two alternating full-root
/// slots followed by the delta ring.
pub(crate) const OBJECT_META_BLOCKS: u64 = 2 + DELTA_SLOTS;

/// Maximum (page, block) pairs in one delta record.
pub const MAX_DELTA_PAIRS: usize = (BLOCK_SIZE - 64) / 16;

/// Maximum object-name length in the directory, bytes.
pub(crate) const NAME_LEN: usize = 88;
/// Size of one directory entry, bytes.
pub(crate) const DIR_ENTRY_LEN: usize = 128;
/// Directory entries per block.
pub(crate) const ENTRIES_PER_BLOCK: usize = BLOCK_SIZE / DIR_ENTRY_LEN;
/// Maximum number of objects in a store.
pub(crate) const MAX_OBJECTS: usize = ENTRIES_PER_BLOCK * DIR_BLOCKS as usize;

/// Digest value meaning "no digest": the radix tree's sentinel for an
/// empty tree or a node not yet flushed. [`digest32`] never returns it,
/// so a committed entry that carries it fails verification.
pub const DIGEST_NONE: u32 = 0;

/// 32-bit content digest used for at-rest integrity: FNV-1a 64 folded to
/// 32 bits. The fold keeps both halves' entropy; the result is remapped
/// away from [`DIGEST_NONE`] so a real digest can never be mistaken for
/// "unknown".
pub fn digest32(bytes: &[u8]) -> u32 {
    let h = fnv1a(bytes);
    let folded = (h ^ (h >> 32)) as u32;
    if folded == DIGEST_NONE {
        1
    } else {
        folded
    }
}

/// Packs a block number and its content digest into one radix-entry
/// word: block in the low 32 bits, digest in the high 32.
pub fn pack_entry(block: u64, digest: u32) -> u64 {
    debug_assert!(
        block <= u32::MAX as u64,
        "block numbers must fit 32 bits to carry a digest"
    );
    (block & 0xFFFF_FFFF) | ((digest as u64) << 32)
}

/// Splits a packed radix-entry word into (block, digest).
pub fn unpack_entry(word: u64) -> (u64, u32) {
    (word & 0xFFFF_FFFF, (word >> 32) as u32)
}

/// A committed full root: written to one of the object's two alternating
/// root slots whenever the in-memory COW tree is flushed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RootRecord {
    /// The object this root belongs to.
    pub object: ObjectId,
    /// Epoch of the μCheckpoint that wrote this root.
    pub epoch: Epoch,
    /// Disk block of the radix-tree root node, or 0 for an empty object.
    pub tree_root: u64,
    /// Object length in pages (highest written page + 1).
    pub len_pages: u64,
    /// The allocator's bump frontier (first never-allocated block) at the
    /// instant this root committed. Recovery restarts allocation past the
    /// maximum surviving frontier instead of walking every tree — the
    /// O(1)-open invariant (nothing below `high_water` is ever handed out
    /// fresh, so lazily loaded subtrees cannot be overwritten).
    pub high_water: u64,
    /// Digest of the committed root node's block image ([`digest32`]), or
    /// [`DIGEST_NONE`] for an empty tree. This is the
    /// top of the Merkle chain: the root record checksums the root digest,
    /// each node image checksums its children's digests, and leaf entries
    /// carry the page-data digests.
    pub root_digest: u32,
    /// Monotone per-object full-root sequence number (the object's
    /// `full_count` at write time). Breaks ties between the two root slots
    /// when both hold the *same* epoch — a repair commit rewrites the root
    /// at the current epoch, and recovery must adopt the repaired one.
    pub flush_seq: u64,
}

impl RootRecord {
    /// Serializes the record into a zero-padded block image.
    pub fn to_block(&self) -> [u8; BLOCK_SIZE] {
        let mut block = [0u8; BLOCK_SIZE];
        set_u64(&mut block, 0, ROOT_MAGIC);
        set_u64(&mut block, 8, self.object.0 as u64);
        set_u64(&mut block, 16, self.epoch);
        set_u64(&mut block, 24, self.tree_root);
        set_u64(&mut block, 32, self.len_pages);
        set_u64(&mut block, 40, self.high_water);
        set_u64(&mut block, 48, self.root_digest as u64);
        set_u64(&mut block, 56, self.flush_seq);
        let checksum = fnv1a(&block[0..64]);
        set_u64(&mut block, 64, checksum);
        block
    }

    /// Parses and validates a root-slot block; `None` if the slot is
    /// empty, torn, of another format, or belongs to a different object.
    pub fn from_block(block: &[u8], expect: ObjectId) -> Option<RootRecord> {
        if get_u64(block, 0) != ROOT_MAGIC
            || fnv1a(&block[0..64]) != get_u64(block, 64)
            || get_u64(block, 8) != expect.0 as u64
        {
            return None;
        }
        Some(RootRecord {
            object: expect,
            epoch: get_u64(block, 16),
            tree_root: get_u64(block, 24),
            len_pages: get_u64(block, 32),
            high_water: get_u64(block, 40),
            root_digest: get_u64(block, 48) as u32,
            flush_seq: get_u64(block, 56),
        })
    }
}

/// A delta root: commits a small μCheckpoint by recording its
/// (page → data block) mappings without rewriting tree nodes. Recovery
/// replays consecutive deltas on top of the latest full root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaRecord {
    /// The object.
    pub object: ObjectId,
    /// Epoch of this μCheckpoint.
    pub epoch: Epoch,
    /// Object length in pages after this commit.
    pub len_pages: u64,
    /// FNV-1a over the commit's data-block images, in pair order. Recovery
    /// re-reads the referenced blocks and stops the replay prefix at the
    /// first mismatch, so a torn or silently corrupted data extent cannot
    /// surface as committed state.
    pub payload_sum: u64,
    /// The commit's page → packed-entry mappings. The second word is a
    /// [`pack_entry`] word (block in the low half, page-content digest in
    /// the high half), so digests ride the record checksum.
    pub pairs: Vec<(u64, u64)>,
}

impl DeltaRecord {
    /// Serializes into a block image.
    ///
    /// # Panics
    ///
    /// Panics if there are more than [`MAX_DELTA_PAIRS`] pairs.
    pub fn to_block(&self) -> [u8; BLOCK_SIZE] {
        assert!(self.pairs.len() <= MAX_DELTA_PAIRS, "delta record overflow");
        let mut block = [0u8; BLOCK_SIZE];
        set_u64(&mut block, 0, DELTA_MAGIC);
        set_u64(&mut block, 8, self.object.0 as u64);
        set_u64(&mut block, 16, self.epoch);
        set_u64(&mut block, 24, self.len_pages);
        set_u64(&mut block, 32, self.pairs.len() as u64);
        set_u64(&mut block, 48, self.payload_sum);
        for (i, (page, data_block)) in self.pairs.iter().enumerate() {
            set_u64(&mut block, 64 + i * 16, *page);
            set_u64(&mut block, 64 + i * 16 + 8, *data_block);
        }
        let end = 64 + self.pairs.len() * 16;
        let checksum = fnv1a(&block[0..40]) ^ fnv1a(&block[48..end]);
        set_u64(&mut block, 40, checksum);
        block
    }

    /// Parses and validates a delta-slot block.
    pub fn from_block(block: &[u8], expect: ObjectId) -> Option<DeltaRecord> {
        let count = get_u64(block, 32);
        if get_u64(block, 0) != DELTA_MAGIC
            || get_u64(block, 8) != expect.0 as u64
            || count > MAX_DELTA_PAIRS as u64
        {
            return None;
        }
        let end = 64 + count as usize * 16;
        if fnv1a(&block[0..40]) ^ fnv1a(&block[48..end]) != get_u64(block, 40) {
            return None;
        }
        let pairs = (0..count as usize)
            .map(|i| (get_u64(block, 64 + i * 16), get_u64(block, 64 + i * 16 + 8)))
            .collect();
        Some(DeltaRecord {
            object: expect,
            epoch: get_u64(block, 16),
            len_pages: get_u64(block, 24),
            payload_sum: get_u64(block, 48),
            pairs,
        })
    }
}

/// One object's share of a batch (group-commit) record: its epoch, its
/// page → data-block pairs, and a checksum over *its* payload blocks, so
/// recovery truncation stays per-object even though the commit record is
/// shared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchGroup {
    /// The object.
    pub object: ObjectId,
    /// The object's epoch after this commit.
    pub epoch: Epoch,
    /// The object's length in pages after this commit.
    pub len_pages: u64,
    /// FNV-1a over this object's data-block images, in pair order.
    pub payload_sum: u64,
    /// This object's page → packed-entry mappings ([`pack_entry`] words,
    /// same convention as [`DeltaRecord::pairs`]).
    pub pairs: Vec<(u64, u64)>,
}

/// Fixed bytes at the head of a batch record block.
const BATCH_HEADER: usize = 32;
/// Fixed bytes per group before its pairs.
const GROUP_HEADER: usize = 40;

/// A batch record: one commit block covering several objects' deltas at
/// once (the group-commit path). Written to the shared
/// [`BATCH_SLOTS`]-entry ring; recovery folds each group into the owning
/// object's delta chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchRecord {
    /// Monotone store-wide batch sequence number (picks the ring slot).
    pub seq: u64,
    /// Per-object commit groups.
    pub groups: Vec<BatchGroup>,
}

impl BatchRecord {
    /// Encoded size of a record with the given per-group pair counts.
    pub fn encoded_len(pair_counts: impl Iterator<Item = usize>) -> usize {
        BATCH_HEADER + pair_counts.map(|n| GROUP_HEADER + n * 16).sum::<usize>()
    }

    /// Whether a record with these per-group pair counts fits one block.
    pub fn fits(pair_counts: impl Iterator<Item = usize>) -> bool {
        Self::encoded_len(pair_counts) <= BLOCK_SIZE
    }

    /// Serializes into a block image.
    ///
    /// # Panics
    ///
    /// Panics if the record does not fit one block (callers check with
    /// [`BatchRecord::fits`] first).
    pub fn to_block(&self) -> [u8; BLOCK_SIZE] {
        let end = Self::encoded_len(self.groups.iter().map(|g| g.pairs.len()));
        assert!(end <= BLOCK_SIZE, "batch record overflow");
        let mut block = [0u8; BLOCK_SIZE];
        set_u64(&mut block, 0, BATCH_MAGIC);
        set_u64(&mut block, 8, self.seq);
        set_u64(&mut block, 16, self.groups.len() as u64);
        let mut off = BATCH_HEADER;
        for g in &self.groups {
            set_u64(&mut block, off, g.object.0 as u64);
            set_u64(&mut block, off + 8, g.epoch);
            set_u64(&mut block, off + 16, g.len_pages);
            set_u64(&mut block, off + 24, g.payload_sum);
            set_u64(&mut block, off + 32, g.pairs.len() as u64);
            off += GROUP_HEADER;
            for (page, data_block) in &g.pairs {
                set_u64(&mut block, off, *page);
                set_u64(&mut block, off + 8, *data_block);
                off += 16;
            }
        }
        let checksum = fnv1a(&block[0..24]) ^ fnv1a(&block[BATCH_HEADER..end]);
        set_u64(&mut block, 24, checksum);
        block
    }

    /// Parses and validates a batch-slot block; `None` if the slot is
    /// empty or torn.
    pub fn from_block(block: &[u8]) -> Option<BatchRecord> {
        let group_count = get_u64(block, 16);
        // A record holds at least one pair-less group header per group.
        if get_u64(block, 0) != BATCH_MAGIC
            || group_count > ((BLOCK_SIZE - BATCH_HEADER) / GROUP_HEADER) as u64
        {
            return None;
        }
        let mut r = Reader::new(&block[BATCH_HEADER..BLOCK_SIZE]);
        let groups = (0..group_count)
            .map(|_| Self::read_group(&mut r))
            .collect::<Result<Vec<_>, _>>()
            .ok()?;
        let end = BATCH_HEADER + r.pos();
        if fnv1a(&block[0..24]) ^ fnv1a(&block[BATCH_HEADER..end]) != get_u64(block, 24) {
            return None;
        }
        Some(BatchRecord {
            seq: get_u64(block, 8),
            groups,
        })
    }

    /// Reads one group; a pair count the block cannot hold is
    /// [`Truncated`].
    fn read_group(r: &mut Reader) -> Result<BatchGroup, Truncated> {
        let object = ObjectId(r.u64()? as u32);
        let (epoch, len_pages, payload_sum, count) = (r.u64()?, r.u64()?, r.u64()?, r.u64()?);
        if count > (r.rest().len() / 16) as u64 {
            return Err(Truncated);
        }
        let pairs = (0..count)
            .map(|_| Ok((r.u64()?, r.u64()?)))
            .collect::<Result<_, _>>()?;
        Ok(BatchGroup {
            object,
            epoch,
            len_pages,
            payload_sum,
            pairs,
        })
    }
}

/// Fixed bytes at the head of a snapshot-catalog block.
const SNAP_HEADER: usize = 32;
/// Encoded size of one snapshot-catalog entry.
const SNAP_ENTRY_LEN: usize = 128;
/// Maximum retained snapshots in a store (one catalog block's worth).
pub const MAX_SNAPSHOTS: usize = (BLOCK_SIZE - SNAP_HEADER) / SNAP_ENTRY_LEN;

/// One retained snapshot: a named pin of an object's committed epoch.
/// The `tree_root` / `len_pages` pair is everything needed to reopen the
/// epoch's radix tree read-only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapEntry {
    /// Snapshot name, unique within the store.
    pub name: String,
    /// The object the snapshot belongs to.
    pub object: ObjectId,
    /// The pinned epoch.
    pub epoch: Epoch,
    /// Disk block of the pinned radix-tree root, or 0 for an empty object.
    pub tree_root: u64,
    /// Object length in pages at the pinned epoch.
    pub len_pages: u64,
    /// Digest of the pinned root node's block image, or [`DIGEST_NONE`]
    /// for an empty object. Stored in the entry's tail bytes, under the
    /// catalog checksum.
    pub root_digest: u32,
}

/// The snapshot catalog: the full set of retained snapshots, rewritten
/// whole on every snapshot create/delete into the catalog slot
/// `seq % SNAP_CATALOG_SLOTS`. Mount adopts the valid slot with the
/// highest `seq`, so a torn catalog write falls back to the previous
/// catalog — snapshot create/delete is crash-atomic.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SnapCatalog {
    /// Monotone catalog sequence number (picks the slot).
    pub seq: u64,
    /// The retained snapshots.
    pub entries: Vec<SnapEntry>,
}

impl SnapCatalog {
    /// The catalog slot this sequence number writes to.
    pub(crate) fn slot(seq: u64) -> u64 {
        SNAP_CATALOG_START + seq % SNAP_CATALOG_SLOTS
    }

    /// Serializes into a block image.
    ///
    /// # Panics
    ///
    /// Panics if there are more than [`MAX_SNAPSHOTS`] entries or a name
    /// exceeds `NAME_LEN` bytes (callers enforce both before mutating
    /// the catalog).
    pub fn to_block(&self) -> [u8; BLOCK_SIZE] {
        assert!(
            self.entries.len() <= MAX_SNAPSHOTS,
            "snapshot catalog overflow"
        );
        let mut block = [0u8; BLOCK_SIZE];
        set_u64(&mut block, 0, SNAP_MAGIC);
        set_u64(&mut block, 8, self.seq);
        set_u64(&mut block, 16, self.entries.len() as u64);
        let mut off = SNAP_HEADER;
        for e in &self.entries {
            assert!(e.name.len() <= NAME_LEN, "snapshot name too long");
            set_u64(&mut block, off, e.object.0 as u64);
            set_u64(&mut block, off + 8, e.epoch);
            set_u64(&mut block, off + 16, e.tree_root);
            set_u64(&mut block, off + 24, e.len_pages);
            block[off + 32] = e.name.len() as u8;
            block[off + 33..off + 33 + e.name.len()].copy_from_slice(e.name.as_bytes());
            set_u32(&mut block, off + 121, e.root_digest);
            off += SNAP_ENTRY_LEN;
        }
        let checksum = fnv1a(&block[0..24]) ^ fnv1a(&block[SNAP_HEADER..off]);
        set_u64(&mut block, 24, checksum);
        block
    }

    /// Parses and validates a catalog-slot block; `None` if the slot is
    /// empty or torn.
    pub fn from_block(block: &[u8]) -> Option<SnapCatalog> {
        let count = get_u64(block, 16);
        if get_u64(block, 0) != SNAP_MAGIC || count > MAX_SNAPSHOTS as u64 {
            return None;
        }
        let end = SNAP_HEADER + count as usize * SNAP_ENTRY_LEN;
        if fnv1a(&block[0..24]) ^ fnv1a(&block[SNAP_HEADER..end]) != get_u64(block, 24) {
            return None;
        }
        let mut entries = Vec::with_capacity(count as usize);
        for off in (SNAP_HEADER..end).step_by(SNAP_ENTRY_LEN) {
            let name_len = block[off + 32] as usize;
            if name_len > NAME_LEN {
                return None;
            }
            let name = String::from_utf8(block[off + 33..off + 33 + name_len].to_vec()).ok()?;
            entries.push(SnapEntry {
                name,
                object: ObjectId(get_u64(block, off) as u32),
                epoch: get_u64(block, off + 8),
                tree_root: get_u64(block, off + 16),
                len_pages: get_u64(block, off + 24),
                root_digest: get_u32(block, off + 121),
            });
        }
        Some(SnapCatalog {
            seq: get_u64(block, 8),
            entries,
        })
    }
}

/// An in-memory directory entry. `meta_base` is the first of the
/// object's [`OBJECT_META_BLOCKS`] reserved blocks: two root slots, then
/// the delta ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DirEntry {
    pub name: String,
    pub id: ObjectId,
    pub meta_base: u64,
}

impl DirEntry {
    pub fn root_slot(&self, epoch: Epoch) -> u64 {
        self.meta_base + epoch % 2
    }

    pub fn delta_slot(&self, epoch: Epoch) -> u64 {
        self.meta_base + 2 + (epoch % DELTA_SLOTS)
    }

    pub fn encode(&self, out: &mut [u8]) {
        assert!(self.name.len() <= NAME_LEN, "object name too long");
        out[..DIR_ENTRY_LEN].fill(0);
        out[0] = 1; // present
        set_u64(out, 1, self.id.0 as u64);
        set_u64(out, 9, self.meta_base);
        out[25] = self.name.len() as u8;
        out[26..26 + self.name.len()].copy_from_slice(self.name.as_bytes());
    }

    /// Decodes the entry in directory block `block`: `None` for a free
    /// slot, [`StoreError::CorruptMeta`] for a present entry whose name
    /// is longer than `NAME_LEN` or not UTF-8 (the directory rotted).
    pub fn decode(data: &[u8], block: u64) -> Result<Option<DirEntry>, StoreError> {
        if data[0] != 1 {
            return Ok(None);
        }
        let name_len = data[25] as usize;
        let corrupt = StoreError::CorruptMeta { block };
        if name_len > NAME_LEN {
            return Err(corrupt);
        }
        let name = String::from_utf8(data[26..26 + name_len].to_vec()).map_err(|_| corrupt)?;
        Ok(Some(DirEntry {
            name,
            id: ObjectId(get_u64(data, 1) as u32),
            meta_base: get_u64(data, 9),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_record_round_trips() {
        let rec = RootRecord {
            object: ObjectId(7),
            epoch: 42,
            tree_root: 1234,
            len_pages: 99,
            high_water: 5000,
            root_digest: 0xDEAD_1234,
            flush_seq: 17,
        };
        let block = rec.to_block();
        // Pinned image: record layouts are unchanged across releases.
        assert_eq!(fnv1a(&block), 0x847f57f75dfd3d98);
        assert_eq!(RootRecord::from_block(&block, ObjectId(7)), Some(rec));
    }

    #[test]
    fn torn_root_record_rejected() {
        let rec = RootRecord {
            object: ObjectId(1),
            epoch: 5,
            tree_root: 10,
            len_pages: 1,
            high_water: 11,
            root_digest: 7,
            flush_seq: 1,
        };
        let mut block = rec.to_block();
        block[20] ^= 0xFF;
        assert_eq!(RootRecord::from_block(&block, ObjectId(1)), None);
        // The digest and sequence fields are covered by the checksum too.
        let mut block = rec.to_block();
        block[50] ^= 1; // root_digest
        assert_eq!(RootRecord::from_block(&block, ObjectId(1)), None);
        let mut block = rec.to_block();
        block[57] ^= 1; // flush_seq
        assert_eq!(RootRecord::from_block(&block, ObjectId(1)), None);
    }

    #[test]
    fn root_record_object_mismatch_rejected() {
        let rec = RootRecord {
            object: ObjectId(1),
            epoch: 5,
            tree_root: 10,
            len_pages: 1,
            high_water: 11,
            root_digest: 0,
            flush_seq: 0,
        };
        let block = rec.to_block();
        assert_eq!(RootRecord::from_block(&block, ObjectId(2)), None);
    }

    #[test]
    fn digest32_folds_and_avoids_the_none_sentinel() {
        let d = digest32(b"hello world");
        let h = fnv1a(b"hello world");
        assert_eq!(d, (h ^ (h >> 32)) as u32);
        assert_ne!(digest32(b""), DIGEST_NONE);
        assert_ne!(digest32(b"a"), digest32(b"b"));
    }

    #[test]
    fn entry_words_pack_and_unpack() {
        let word = pack_entry(0xABCD, 0x1234_5678);
        assert_eq!(unpack_entry(word), (0xABCD, 0x1234_5678));
    }

    #[test]
    fn delta_record_round_trips() {
        let rec = DeltaRecord {
            object: ObjectId(3),
            epoch: 17,
            len_pages: 1000,
            payload_sum: 0xDEAD_BEEF,
            pairs: vec![(5, 100), (907, 101), (13, 102)],
        };
        let block = rec.to_block();
        assert_eq!(fnv1a(&block), 0xd0139cb496f5d884);
        assert_eq!(DeltaRecord::from_block(&block, ObjectId(3)), Some(rec));
    }

    #[test]
    fn torn_delta_rejected() {
        let rec = DeltaRecord {
            object: ObjectId(3),
            epoch: 17,
            len_pages: 8,
            payload_sum: 7,
            pairs: vec![(1, 50)],
        };
        let mut block = rec.to_block();
        block[70] ^= 1; // corrupt a pair
        assert_eq!(DeltaRecord::from_block(&block, ObjectId(3)), None);
    }

    #[test]
    fn delta_capacity_is_enforced() {
        let rec = DeltaRecord {
            object: ObjectId(0),
            epoch: 1,
            len_pages: 1,
            payload_sum: 0,
            pairs: vec![(0, 1); MAX_DELTA_PAIRS],
        };
        let block = rec.to_block();
        assert!(DeltaRecord::from_block(&block, ObjectId(0)).is_some());
    }

    #[test]
    fn empty_block_is_no_record() {
        let block = [0u8; BLOCK_SIZE];
        assert_eq!(RootRecord::from_block(&block, ObjectId(0)), None);
        assert_eq!(DeltaRecord::from_block(&block, ObjectId(0)), None);
        assert_eq!(BatchRecord::from_block(&block), None);
    }

    fn sample_batch() -> BatchRecord {
        BatchRecord {
            seq: 99,
            groups: vec![
                BatchGroup {
                    object: ObjectId(1),
                    epoch: 7,
                    len_pages: 12,
                    payload_sum: 0xAB,
                    pairs: vec![(0, 100), (11, 101)],
                },
                BatchGroup {
                    object: ObjectId(4),
                    epoch: 31,
                    len_pages: 2,
                    payload_sum: 0xCD,
                    pairs: vec![(1, 102)],
                },
            ],
        }
    }

    #[test]
    fn batch_record_round_trips() {
        let rec = sample_batch();
        let block = rec.to_block();
        assert_eq!(fnv1a(&block), 0x612a1dbcb975ac38);
        assert_eq!(BatchRecord::from_block(&block), Some(rec));
    }

    #[test]
    fn torn_batch_record_rejected() {
        let mut block = sample_batch().to_block();
        block[40] ^= 1; // corrupt a group header
        assert_eq!(BatchRecord::from_block(&block), None);
        let mut block = sample_batch().to_block();
        block[25] ^= 0x80; // corrupt the checksum itself
        assert_eq!(BatchRecord::from_block(&block), None);
    }

    #[test]
    fn lying_batch_counts_are_rejected_not_panicked() {
        // A rotted group or pair count must not drive an allocation or a
        // read past the block before the checksum gets to reject it.
        for (off, count) in [(16, 1u64 << 61), (BATCH_HEADER + 32, 1 << 60)] {
            let mut block = sample_batch().to_block();
            set_u64(&mut block, off, count);
            assert_eq!(BatchRecord::from_block(&block), None);
        }
    }

    #[test]
    fn batch_payload_sum_participates_in_the_checksum() {
        let mut block = sample_batch().to_block();
        block[32 + 24] ^= 1; // first group's payload_sum field
        assert_eq!(BatchRecord::from_block(&block), None);
    }

    #[test]
    fn batch_capacity_check_matches_encoding() {
        // The largest record `fits` accepts must actually encode.
        let mut pairs = Vec::new();
        let mut n = 0usize;
        while BatchRecord::fits([n + 1].into_iter()) {
            n += 1;
            pairs.push((n as u64, 1000 + n as u64));
        }
        let rec = BatchRecord {
            seq: 1,
            groups: vec![BatchGroup {
                object: ObjectId(0),
                epoch: 1,
                len_pages: n as u64,
                payload_sum: 0,
                pairs,
            }],
        };
        let block = rec.to_block();
        assert_eq!(BatchRecord::from_block(&block), Some(rec));
        assert!(!BatchRecord::fits([n + 1].into_iter()));
    }

    fn sample_catalog() -> SnapCatalog {
        SnapCatalog {
            seq: 5,
            entries: vec![
                SnapEntry {
                    name: "nightly".into(),
                    object: ObjectId(2),
                    epoch: 17,
                    tree_root: 900,
                    len_pages: 64,
                    root_digest: 0xAA55_1234,
                },
                SnapEntry {
                    name: "before-migration".into(),
                    object: ObjectId(2),
                    epoch: 40,
                    tree_root: 1800,
                    len_pages: 128,
                    root_digest: DIGEST_NONE,
                },
            ],
        }
    }

    #[test]
    fn snap_catalog_round_trips() {
        let cat = sample_catalog();
        let block = cat.to_block();
        assert_eq!(fnv1a(&block), 0xec931eeaaa517c04);
        assert_eq!(SnapCatalog::from_block(&block), Some(cat));
    }

    #[test]
    fn empty_snap_catalog_round_trips() {
        let cat = SnapCatalog::default();
        let block = cat.to_block();
        assert_eq!(fnv1a(&block), 0xb3d900d2b44ee190);
        assert_eq!(SnapCatalog::from_block(&block), Some(cat));
    }

    #[test]
    fn torn_snap_catalog_rejected() {
        let mut block = sample_catalog().to_block();
        block[SNAP_HEADER + 16] ^= 1; // first entry's tree_root
        assert_eq!(SnapCatalog::from_block(&block), None);
        let mut block = sample_catalog().to_block();
        block[25] ^= 0x40; // the checksum itself
        assert_eq!(SnapCatalog::from_block(&block), None);
        assert_eq!(SnapCatalog::from_block(&[0u8; BLOCK_SIZE]), None);
    }

    #[test]
    fn snap_catalog_slots_alternate() {
        assert_eq!(SnapCatalog::slot(0), SNAP_CATALOG_START);
        assert_eq!(SnapCatalog::slot(1), SNAP_CATALOG_START + 1);
        assert_eq!(SnapCatalog::slot(2), SNAP_CATALOG_START);
    }

    #[test]
    fn snap_catalog_capacity_matches_encoding() {
        let entries = (0..MAX_SNAPSHOTS)
            .map(|i| SnapEntry {
                name: format!("snap-{i}"),
                object: ObjectId(i as u32),
                epoch: i as u64,
                tree_root: 100 + i as u64,
                len_pages: 1,
                root_digest: digest32(&[i as u8]),
            })
            .collect();
        let cat = SnapCatalog { seq: 1, entries };
        let block = cat.to_block();
        assert_eq!(SnapCatalog::from_block(&block), Some(cat));
    }

    #[test]
    fn dir_entry_round_trips() {
        let e = DirEntry {
            name: "postgres/base/16384".to_string(),
            id: ObjectId(3),
            meta_base: 100,
        };
        let mut buf = [0u8; DIR_ENTRY_LEN];
        e.encode(&mut buf);
        assert_eq!(fnv1a(&buf), 0xd9c8d2c97d1b77fe);
        assert_eq!(DirEntry::decode(&buf, 4), Ok(Some(e)));
    }

    #[test]
    fn slot_mapping_alternates_and_wraps() {
        let e = DirEntry {
            name: "x".into(),
            id: ObjectId(0),
            meta_base: 50,
        };
        assert_eq!(e.root_slot(4), 50);
        assert_eq!(e.root_slot(5), 51);
        assert_eq!(e.delta_slot(1), 53);
        assert_eq!(e.delta_slot(1 + DELTA_SLOTS), 53);
        assert_ne!(e.delta_slot(1), e.delta_slot(2));
    }

    #[test]
    fn absent_dir_entry_decodes_none() {
        let buf = [0u8; DIR_ENTRY_LEN];
        assert_eq!(DirEntry::decode(&buf, 4), Ok(None));
    }

    #[test]
    fn payload_sum_participates_in_the_record_checksum() {
        let rec = DeltaRecord {
            object: ObjectId(2),
            epoch: 9,
            len_pages: 4,
            payload_sum: 0x1234,
            pairs: vec![(0, 80)],
        };
        let mut block = rec.to_block();
        block[48] ^= 1; // corrupt the payload checksum itself
        assert_eq!(DeltaRecord::from_block(&block, ObjectId(2)), None);
    }

    #[test]
    fn super_v3_round_trips_and_rejects_garbage() {
        let sb = SuperV3 {
            shard_count: 4,
            extent_blocks: 1024,
        };
        let block = sb.to_block();
        assert_eq!(fnv1a(&block), 0xc5de62e7ffbf9b75);
        assert_eq!(SuperV3::from_block(&block), Some(sb));
        let mut torn = sb.to_block();
        torn[9] ^= 1;
        assert_eq!(SuperV3::from_block(&torn), None);
        // A slab header is not a superblock.
        let mut header = [0u8; BLOCK_SIZE];
        set_u64(&mut header, 0, SLAB_MAGIC);
        assert_eq!(SuperV3::from_block(&header), None);
        // Degenerate shard counts are rejected even if checksummed.
        let zero = SuperV3 {
            shard_count: 0,
            extent_blocks: 8,
        };
        assert_eq!(SuperV3::from_block(&zero.to_block()), None);
    }

    #[test]
    fn cut_record_round_trips_and_rejects_torn() {
        let cut = CutRecord {
            seq: 7,
            epochs: vec![12, 0, 99, 3],
        };
        let block = cut.to_block();
        assert_eq!(fnv1a(&block), 0x24ad8e38a9ac6f83);
        assert_eq!(CutRecord::from_block(&block), Some(cut));
        let mut torn = CutRecord {
            seq: 7,
            epochs: vec![12, 0, 99, 3],
        }
        .to_block();
        torn[40] ^= 1; // second component
        assert_eq!(CutRecord::from_block(&torn), None);
        assert_eq!(CutRecord::from_block(&[0u8; BLOCK_SIZE]), None);
        // Slots alternate.
        assert_eq!(CutRecord::slot(0), CUT_SLOT_START);
        assert_eq!(CutRecord::slot(1), CUT_SLOT_START + 1);
        assert_eq!(CutRecord::slot(2), CUT_SLOT_START);
    }

    #[test]
    fn shard_layouts_tile_without_overlap() {
        let n = 4;
        let mut prev_end = SHARD_SLAB_START;
        for s in 0..n {
            let l = ShardLayout::sharded(s, n);
            assert_eq!(l.base, prev_end, "slabs tile densely");
            let slab_end = l.base + SHARD_SLAB_BLOCKS;
            assert!(l.snap_slot(1) < slab_end, "metadata stays in the slab");
            assert_eq!(
                l.data_floor,
                SHARD_SLAB_START + n as u64 * SHARD_SLAB_BLOCKS
            );
            prev_end = slab_end;
        }
        assert_eq!(ShardLayout::sharded(0, n).data_floor, prev_end);
    }
}
