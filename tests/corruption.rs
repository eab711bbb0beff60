//! Media-corruption robustness: checksummed commit records mean a
//! corrupted root or delta slot degrades recovery to an earlier epoch
//! instead of returning garbage, and per-page digests mean rot that
//! lands *after* commit is detected at read/scrub time, quarantined,
//! and healed from a retained snapshot or a peer — never served.

use msnap_disk::{
    crash_at_every_io, Disk, DiskConfig, Fault, FaultPlan, ReadFaultPlan, BLOCK_SIZE,
};
use msnap_sim::Vt;
use msnap_store::{
    digest32, fnv1a, pack_entry, unpack_entry, ObjectId, ObjectStore, RootRecord, StoreError,
    DELTA_SLOTS,
};

fn page_of(b: u8) -> Vec<u8> {
    vec![b; BLOCK_SIZE]
}

/// Commits `n` single-page checkpoints (page = epoch % 8, content = epoch).
fn build(n: u64) -> (Disk, Vt) {
    let mut disk = Disk::new(DiskConfig::paper());
    let mut store = ObjectStore::format(&mut disk);
    let mut vt = Vt::new(0);
    let obj = store.create(&mut vt, &mut disk, "o").unwrap();
    for epoch in 1..=n {
        let p = page_of(epoch as u8);
        let token = store
            .persist(&mut vt, &mut disk, obj, &[(epoch % 8, &p)])
            .unwrap();
        ObjectStore::wait(&mut vt, token);
    }
    disk.settle();
    (disk, vt)
}

/// Finds the block holding the delta record of `epoch` by scanning for
/// its magic + epoch field (test-side introspection).
fn find_delta_block(disk: &Disk, epoch: u64) -> Option<u64> {
    const DELTA_MAGIC: u64 = 0x4d534e_41504454;
    for block in 0..4096u64 {
        if let Some(data) = disk.peek(block) {
            let magic = u64::from_le_bytes(data[0..8].try_into().unwrap());
            let e = u64::from_le_bytes(data[16..24].try_into().unwrap());
            if magic == DELTA_MAGIC && e == epoch {
                return Some(block);
            }
        }
    }
    None
}

#[test]
fn intact_store_recovers_every_epoch() {
    let n = 10;
    let (mut disk, _) = build(n);
    let mut vt = Vt::new(1);
    let store = ObjectStore::open(&mut vt, &mut disk).unwrap();
    let obj = store.lookup("o").unwrap();
    assert_eq!(store.epoch(obj), n);

    // The same device with the old single-shard superblock at block 0 is
    // not a store.
    const OLD_SUPER_MAGIC: u64 = 0x4d534e41_50535550;
    let mut old = [0u8; BLOCK_SIZE];
    old[0..8].copy_from_slice(&OLD_SUPER_MAGIC.to_le_bytes());
    disk.write_block(&mut vt, 0, &old).unwrap();
    assert!(matches!(
        ObjectStore::open(&mut vt, &mut disk),
        Err(StoreError::NotFormatted)
    ));
}

#[test]
fn rotted_directory_entry_is_reported_not_panicked() {
    // Block 4 is shard 0's first directory block; its first entry names
    // object "o" (id 0). Byte 1 is the id's low byte, byte 25 the name
    // length, byte 26 the name's first byte.
    const DIR_BLOCK: u64 = 4;
    let rot = |disk: &mut Disk, vt: &mut Vt, off: usize, byte: u8| {
        let mut block = disk.peek(DIR_BLOCK).expect("directory written").to_vec();
        block[off] = byte;
        disk.write_block(vt, DIR_BLOCK, &block).unwrap();
        ObjectStore::open(vt, disk).err()
    };
    let corrupt = Some(StoreError::CorruptMeta { block: DIR_BLOCK });
    for (off, byte) in [(1, 1), (25, 0xFF), (25, 89), (26, 0xFF)] {
        let (mut disk, mut vt) = build(3);
        assert_eq!(rot(&mut disk, &mut vt, off, byte), corrupt, "byte {off}");
    }
    // A cleared present byte ahead of a live entry leaves an id hole.
    let mut disk = Disk::new(DiskConfig::paper());
    let mut store = ObjectStore::format(&mut disk);
    let mut vt = Vt::new(0);
    store.create(&mut vt, &mut disk, "a").unwrap();
    store.create(&mut vt, &mut disk, "b").unwrap();
    disk.settle();
    assert_eq!(rot(&mut disk, &mut vt, 0, 0), corrupt);
}

#[test]
fn corrupted_latest_delta_degrades_by_one_epoch() {
    let n = 10; // all within one delta window
    assert!(n < DELTA_SLOTS);
    let (mut disk, _) = build(n);
    let block = find_delta_block(&disk, n).expect("latest delta exists");
    disk.corrupt_bit(block, 70, 3); // corrupt a payload pair

    let mut vt = Vt::new(1);
    let mut store = ObjectStore::open(&mut vt, &mut disk).unwrap();
    let obj = store.lookup("o").unwrap();
    assert_eq!(
        store.epoch(obj),
        n - 1,
        "checksum failure must drop exactly the corrupted tail epoch"
    );
    // The surviving state is consistent: page contents match their
    // epochs under the replayed prefix.
    let mut buf = page_of(0);
    store
        .read_page(&mut vt, &mut disk, obj, (n - 1) % 8, &mut buf)
        .unwrap();
    assert_eq!(buf[0], (n - 1) as u8);
}

#[test]
fn corrupted_middle_delta_truncates_the_chain() {
    let n = 10;
    let (mut disk, _) = build(n);
    let block = find_delta_block(&disk, 6).expect("delta 6 exists");
    disk.corrupt_bit(block, 0, 0); // kill the magic

    let mut vt = Vt::new(1);
    let store = ObjectStore::open(&mut vt, &mut disk).unwrap();
    let obj = store.lookup("o").unwrap();
    assert_eq!(
        store.epoch(obj),
        5,
        "replay must stop at the gap (consecutive-epoch rule)"
    );
}

/// The block holding the object's newest full root record and the
/// record itself (test-side introspection: the store holds one object).
fn newest_root(disk: &Disk) -> (u64, RootRecord) {
    let mut best: Option<(u64, RootRecord)> = None;
    for block in 0..4096u64 {
        let Some(rec) = disk
            .peek(block)
            .and_then(|data| RootRecord::from_block(data, ObjectId(0)))
        else {
            continue;
        };
        if best.is_none_or(|(_, b)| (rec.epoch, rec.flush_seq) > (b.epoch, b.flush_seq)) {
            best = Some((block, rec));
        }
    }
    best.expect("a full root exists")
}

#[test]
fn corrupted_full_root_falls_back_to_previous_root() {
    // Drive past two full-root commits, then damage the newest full
    // root: recovery must fall back to the previous one (the alternating
    // slots exist for exactly this). The damage is either a flipped bit
    // or the same record re-encoded in the old digest-less root format.
    let n = 2 * DELTA_SLOTS + 4;
    for old_format in [false, true] {
        let (mut disk, mut vt) = build(n);
        let (root_block, rec) = newest_root(&disk);
        if old_format {
            const OLD_ROOT_MAGIC: u64 = 0x4d534e_41505253;
            let mut old = [0u8; BLOCK_SIZE];
            for (i, v) in [
                OLD_ROOT_MAGIC,
                0, // ObjectId(0)
                rec.epoch,
                rec.tree_root,
                rec.len_pages,
                rec.high_water,
            ]
            .into_iter()
            .enumerate()
            {
                old[i * 8..i * 8 + 8].copy_from_slice(&v.to_le_bytes());
            }
            let sum = fnv1a(&old[0..48]);
            old[48..56].copy_from_slice(&sum.to_le_bytes());
            disk.write_block(&mut vt, root_block, &old).unwrap();
        } else {
            disk.corrupt_bit(root_block, 24, 1); // corrupt the tree-root pointer
        }

        let mut vt = Vt::new(1);
        let store = ObjectStore::open(&mut vt, &mut disk).unwrap();
        let obj = store.lookup("o").unwrap();
        let recovered = store.epoch(obj);
        let root_epoch = rec.epoch;
        assert!(
            recovered < root_epoch,
            "recovery {recovered} must fall back below the damaged root {root_epoch}"
        );
        // Deltas still present for the window after the *previous* root
        // let recovery land close behind.
        assert!(
            recovered >= DELTA_SLOTS,
            "the previous full root (epoch {DELTA_SLOTS}) must survive, got {recovered}"
        );
    }
}

#[test]
fn torn_data_extent_mid_chain_truncates_recovery_there() {
    // Epoch 5's two-page data extent tears after its first block while
    // its record (and four later durable commits) land intact. Recovery
    // verifies each delta's payload checksum before replaying it, so the
    // prefix stops at epoch 4 — never a torn hybrid, and never the
    // later commits that build on the torn one.
    let mut disk = Disk::new(DiskConfig::paper());
    let mut store = ObjectStore::format(&mut disk);
    let mut vt = Vt::new(0);
    let obj = store.create(&mut vt, &mut disk, "o").unwrap();
    let mut last = msnap_sim::Nanos::ZERO;
    for epoch in 1..=9u64 {
        if epoch == 5 {
            disk.set_fault_plan(
                FaultPlan::new().at(disk.io_seq(), Fault::Torn { prefix_blocks: 1 }),
            );
        }
        let pa = page_of(epoch as u8);
        let pb = page_of(epoch as u8 + 100);
        let token = store
            .persist(&mut vt, &mut disk, obj, &[(0, &pa), (1, &pb)])
            .unwrap();
        ObjectStore::wait(&mut vt, token);
        last = token.completes;
    }
    disk.crash(last);

    let mut vt2 = Vt::new(1);
    let mut store2 = ObjectStore::open(&mut vt2, &mut disk).unwrap();
    let obj2 = store2.lookup("o").unwrap();
    assert_eq!(store2.epoch(obj2), 4, "replay stops before the torn commit");
    let mut buf = page_of(0);
    store2
        .read_page(&mut vt2, &mut disk, obj2, 0, &mut buf)
        .unwrap();
    assert_eq!(buf[0], 4);
    store2
        .read_page(&mut vt2, &mut disk, obj2, 1, &mut buf)
        .unwrap();
    assert_eq!(buf[0], 104);
}

#[test]
fn bit_flipped_data_block_mid_chain_truncates_recovery_there() {
    // Same shape, but the device silently flips one data bit as epoch 5
    // is written: no crash signal, no record damage — only the payload
    // checksum can catch it.
    let mut disk = Disk::new(DiskConfig::paper());
    let mut store = ObjectStore::format(&mut disk);
    let mut vt = Vt::new(0);
    let obj = store.create(&mut vt, &mut disk, "o").unwrap();
    let mut last = msnap_sim::Nanos::ZERO;
    for epoch in 1..=9u64 {
        if epoch == 5 {
            disk.set_fault_plan(FaultPlan::new().at(
                disk.io_seq(),
                Fault::BitFlip {
                    entry: 0,
                    byte: 17,
                    bit: 6,
                },
            ));
        }
        let p = page_of(epoch as u8);
        let token = store.persist(&mut vt, &mut disk, obj, &[(0, &p)]).unwrap();
        ObjectStore::wait(&mut vt, token);
        last = token.completes;
    }
    disk.crash(last);

    let mut vt2 = Vt::new(1);
    let mut store2 = ObjectStore::open(&mut vt2, &mut disk).unwrap();
    let obj2 = store2.lookup("o").unwrap();
    assert_eq!(
        store2.epoch(obj2),
        4,
        "replay stops before the flipped commit"
    );
    let mut buf = page_of(0);
    store2
        .read_page(&mut vt2, &mut disk, obj2, 0, &mut buf)
        .unwrap();
    assert_eq!(buf[0], 4);
}

#[test]
fn corruption_in_a_data_block_does_not_break_recovery() {
    // Corruption that lands after the store is open surfaces as a typed
    // CorruptData error at read time — never as wrong bytes — while the
    // recovery structure stays intact and the bad block is quarantined.
    let n = 6;
    let (mut disk, _) = build(n);
    // Corrupt some block in the data region (past the metadata area).
    let mut vt = Vt::new(1);
    let mut store = ObjectStore::open(&mut vt, &mut disk).unwrap();
    let obj = store.lookup("o").unwrap();
    assert_eq!(store.epoch(obj), n);
    // Find page 1's block via a read round trip before corrupting it.
    let mut before = page_of(0);
    store
        .read_page(&mut vt, &mut disk, obj, 1, &mut before)
        .unwrap();
    for block in 0..8192u64 {
        if disk.peek(block).is_some_and(|d| d == &before[..]) {
            disk.corrupt_bit(block, 5, 5);
            break;
        }
    }
    // The block cache is invalidated by store writes, not by external
    // mutation of the device; drop it so the next read hits raw IO.
    store.drop_cache();
    let mut after = page_of(0xEE);
    let err = store
        .read_page(&mut vt, &mut disk, obj, 1, &mut after)
        .unwrap_err();
    assert!(
        matches!(err, StoreError::CorruptData { page: 1, .. }),
        "rot surfaces as CorruptData, got {err:?}"
    );
    assert!(
        after.iter().all(|&b| b == 0),
        "corrupt bytes are never handed to the caller"
    );
    assert_eq!(store.quarantined_blocks(), 1, "the bad block is fenced");
    assert_eq!(store.epoch(obj), n, "structure unaffected");
    // Clean pages keep reading fine.
    let mut buf = page_of(0);
    store
        .read_page(&mut vt, &mut disk, obj, 2, &mut buf)
        .unwrap();
    assert_eq!(buf[0], 2);

    // Old bytes: a committed leaf entry whose digest half is zero, with
    // the node chain above it re-digested so only the entry is old. The
    // page reads back as CorruptData, never as unverified bytes.
    let (mut disk, mut vt) = build(n);
    let mut store = ObjectStore::open(&mut vt, &mut disk).unwrap();
    let obj = store.lookup("o").unwrap();
    store.snapshot_create(&mut vt, &mut disk, obj, "s").unwrap();
    disk.settle();
    let (root_slot, mut rec) = newest_root(&disk);
    let entry_at =
        |img: &[u8], i: usize| u64::from_le_bytes(img[i * 8..i * 8 + 8].try_into().unwrap());
    let mut root = disk.peek(rec.tree_root).unwrap().to_vec();
    let (mid_b, _) = unpack_entry(entry_at(&root, 0));
    let mut mid = disk.peek(mid_b).unwrap().to_vec();
    let (leaf_b, _) = unpack_entry(entry_at(&mid, 0));
    let mut leaf = disk.peek(leaf_b).unwrap().to_vec();
    let (data_b, _) = unpack_entry(entry_at(&leaf, 1)); // page 1
    leaf[8..16].copy_from_slice(&pack_entry(data_b, 0).to_le_bytes());
    mid[0..8].copy_from_slice(&pack_entry(leaf_b, digest32(&leaf)).to_le_bytes());
    root[0..8].copy_from_slice(&pack_entry(mid_b, digest32(&mid)).to_le_bytes());
    rec.root_digest = digest32(&root);
    for (block, img) in [
        (leaf_b, &leaf[..]),
        (mid_b, &mid[..]),
        (rec.tree_root, &root[..]),
        (root_slot, &rec.to_block()[..]),
    ] {
        disk.write_block(&mut vt, block, img).unwrap();
    }
    let mut vt = Vt::new(2);
    let mut store = ObjectStore::open(&mut vt, &mut disk).unwrap();
    let obj = store.lookup("o").unwrap();
    assert_eq!(store.epoch(obj), n);
    let err = store
        .read_page(&mut vt, &mut disk, obj, 1, &mut buf)
        .unwrap_err();
    assert!(
        matches!(err, StoreError::CorruptData { page: 1, .. }),
        "a digest-less entry surfaces as CorruptData, got {err:?}"
    );
    store
        .read_page(&mut vt, &mut disk, obj, 2, &mut buf)
        .unwrap();
    assert_eq!(buf[0], 2, "its neighbours still verify");
}

#[test]
fn read_fault_during_node_demand_load_is_retryable() {
    // A seeded device read error during a radix-node demand-load must
    // surface as a StoreError, leave the tree and the block cache
    // unpoisoned, and let the identical read succeed once the fault
    // clears.
    let mut disk = Disk::new(DiskConfig::paper());
    let mut store = ObjectStore::format(&mut disk);
    let mut vt = Vt::new(0);
    let obj = store.create(&mut vt, &mut disk, "o").unwrap();
    let a = page_of(7);
    let b = page_of(9);
    let token = store
        .persist(&mut vt, &mut disk, obj, &[(0, &a), (1000, &b)])
        .unwrap();
    ObjectStore::wait(&mut vt, token);
    // Flush the full tree so a reopen starts from committed node blocks
    // with no deltas to replay: every node is cold.
    store.snapshot_create(&mut vt, &mut disk, obj, "s").unwrap();
    disk.settle();

    let mut vt = Vt::new(1);
    let mut store = ObjectStore::open(&mut vt, &mut disk).unwrap();
    let obj = store.lookup("o").unwrap();
    assert_eq!(store.stats().hydrations, 0, "open does no hydration IO");

    // Fail the very next fallible read — the node demand-load the page
    // read below triggers.
    disk.set_read_fault_plan(ReadFaultPlan::new().at(disk.read_seq(), true));
    let mut buf = page_of(0);
    let err = store
        .read_page(&mut vt, &mut disk, obj, 1000, &mut buf)
        .unwrap_err();
    assert!(
        matches!(err, StoreError::Io(_)),
        "read fault surfaces as an IO error, got {err:?}"
    );
    assert_eq!(
        store.stats().hydrations,
        0,
        "the failed load left nothing half-hydrated"
    );

    // Unpoisoned: the identical read succeeds now that the fault is
    // spent, and the demand-load happens then.
    store
        .read_page(&mut vt, &mut disk, obj, 1000, &mut buf)
        .unwrap();
    assert_eq!(buf[0], 9, "retry returns the committed bytes");
    assert!(
        store.stats().hydrations > 0,
        "retry re-issued the demand-load the fault blocked"
    );
}

#[test]
fn bit_rot_injected_at_read_time_is_detected_and_quarantined() {
    // Latent rot surfacing during a *normal* page read (no scrub
    // involved): the in-flight BitRot fault rots the media just before
    // the device serves it, and the digest check refuses the bytes.
    let n = 6;
    let (mut disk, _) = build(n);
    let mut vt = Vt::new(1);
    let mut store = ObjectStore::open(&mut vt, &mut disk).unwrap();
    let obj = store.lookup("o").unwrap();
    let mut buf = page_of(0);
    store
        .read_page(&mut vt, &mut disk, obj, 1, &mut buf)
        .unwrap();
    assert_eq!(buf[0], 1);
    store.drop_cache();
    // The tree is resident, so the next fallible device read is page 1's
    // data block: rot one bit in flight.
    disk.set_read_fault_plan(ReadFaultPlan::new().rot_at(disk.read_seq(), 100, 4));
    let err = store
        .read_page(&mut vt, &mut disk, obj, 1, &mut buf)
        .unwrap_err();
    assert!(
        matches!(err, StoreError::CorruptData { page: 1, .. }),
        "in-flight rot surfaces as CorruptData, got {err:?}"
    );
    assert!(buf.iter().all(|&b| b == 0), "rotted bytes never surface");
    assert_eq!(store.quarantined_blocks(), 1);
    // The rot landed on the media: the same read keeps refusing.
    store.drop_cache();
    let err = store
        .read_page(&mut vt, &mut disk, obj, 1, &mut buf)
        .unwrap_err();
    assert!(matches!(err, StoreError::CorruptData { page: 1, .. }));
}

/// The live (newest) media copy of `content`: COW commits bump-allocate,
/// so among identical images the highest block number is current.
fn live_block_of(disk: &Disk, content: &[u8]) -> u64 {
    let mut live = None;
    for block in 0..16384u64 {
        if disk.peek(block).is_some_and(|img| img == content) {
            live = Some(block);
        }
    }
    live.expect("a committed copy exists on media")
}

#[test]
fn scrub_heals_rotted_page_from_a_retained_snapshot() {
    // A page is committed, snapshotted, then committed again with the
    // same bytes — two independent media copies with one digest. Rotting
    // the live copy must be detected by scrub and healed byte-for-byte
    // from the snapshot's copy, through a normal crash-atomic commit.
    let mut disk = Disk::new(DiskConfig::paper());
    let mut store = ObjectStore::format(&mut disk);
    let mut vt = Vt::new(0);
    let obj = store.create(&mut vt, &mut disk, "o").unwrap();
    let p = page_of(0x5A);
    let token = store.persist(&mut vt, &mut disk, obj, &[(0, &p)]).unwrap();
    ObjectStore::wait(&mut vt, token);
    store.snapshot_create(&mut vt, &mut disk, obj, "s").unwrap();
    let token = store.persist(&mut vt, &mut disk, obj, &[(0, &p)]).unwrap();
    ObjectStore::wait(&mut vt, token);
    disk.settle();

    disk.corrupt_bit(live_block_of(&disk, &p), 17, 6);
    store.drop_cache();
    let mut guard = 0;
    while store.scrub_stats().passes == 0 {
        store.scrub(&mut vt, &mut disk, 16).unwrap();
        guard += 1;
        assert!(guard < 1000, "scrub cursor must make progress");
    }
    let stats = store.scrub_stats();
    assert_eq!(stats.corruptions_found, 1, "the rot is detected");
    assert_eq!(stats.repairs, 1, "and healed from the snapshot");
    assert_eq!(stats.unrepaired, 0);
    assert_eq!(store.quarantined_blocks(), 1);
    assert!(store.unrepaired_pages().is_empty());

    // Byte-for-byte, both live and after a reopen.
    let mut buf = page_of(0);
    store
        .read_page(&mut vt, &mut disk, obj, 0, &mut buf)
        .unwrap();
    assert_eq!(buf, p);
    disk.settle();
    let mut vt = Vt::new(1);
    let mut store = ObjectStore::open(&mut vt, &mut disk).unwrap();
    let obj = store.lookup("o").unwrap();
    assert_eq!(store.epoch(obj), 2, "repair never moves the epoch");
    store
        .read_page(&mut vt, &mut disk, obj, 0, &mut buf)
        .unwrap();
    assert_eq!(buf, p, "the healed copy is durable");
}

#[test]
fn unrepairable_rot_is_quarantined_reported_and_healable_by_peer_data() {
    // No snapshot holds a second copy: scrub must quarantine, report the
    // page via unrepaired_pages() (replication's repair-request feed),
    // and keep refusing reads until repair_page lands a verified copy.
    let mut disk = Disk::new(DiskConfig::paper());
    let mut store = ObjectStore::format(&mut disk);
    let mut vt = Vt::new(0);
    let obj = store.create(&mut vt, &mut disk, "o").unwrap();
    let p = page_of(0x7A);
    let token = store.persist(&mut vt, &mut disk, obj, &[(0, &p)]).unwrap();
    ObjectStore::wait(&mut vt, token);
    disk.settle();

    disk.corrupt_bit(live_block_of(&disk, &p), 9, 2);
    store.drop_cache();
    let mut guard = 0;
    while store.scrub_stats().passes == 0 {
        store.scrub(&mut vt, &mut disk, 16).unwrap();
        guard += 1;
        assert!(guard < 1000, "scrub cursor must make progress");
    }
    let stats = store.scrub_stats();
    assert_eq!(stats.corruptions_found, 1);
    assert_eq!(stats.repairs, 0, "no local source to heal from");
    assert_eq!(stats.unrepaired, 1);
    let reported = store.unrepaired_pages();
    assert_eq!(reported.len(), 1);
    assert_eq!(reported[0].page, 0);
    assert_eq!(reported[0].object, obj);

    // Still refused at read time.
    let mut buf = page_of(0);
    let err = store
        .read_page(&mut vt, &mut disk, obj, 0, &mut buf)
        .unwrap_err();
    assert!(matches!(err, StoreError::CorruptData { page: 0, .. }));

    // A peer copy with the wrong content is refused outright...
    let bogus = page_of(0x7B);
    let err = store
        .repair_page(&mut vt, &mut disk, obj, 0, &bogus)
        .unwrap_err();
    assert!(
        matches!(err, StoreError::RepairMismatch),
        "unverified peer data must never land, got {err:?}"
    );

    // ...while the right bytes heal it through a normal commit.
    let token = store.repair_page(&mut vt, &mut disk, obj, 0, &p).unwrap();
    ObjectStore::wait(&mut vt, token);
    store
        .read_page(&mut vt, &mut disk, obj, 0, &mut buf)
        .unwrap();
    assert_eq!(buf, p, "peer repair restores the exact bytes");
    assert!(store.unrepaired_pages().is_empty(), "the report is cleared");
}

#[test]
fn scrub_interleaved_with_writes_reports_no_false_corruption() {
    // An IO-budgeted scrub running between commits must never flag a
    // freshly written page, and its cursor must keep making progress
    // while the tree underneath it changes.
    let mut disk = Disk::new(DiskConfig::paper());
    let mut store = ObjectStore::format(&mut disk);
    let mut vt = Vt::new(0);
    let obj = store.create(&mut vt, &mut disk, "o").unwrap();
    for round in 1..=64u64 {
        let p = page_of(round as u8);
        let token = store
            .persist(&mut vt, &mut disk, obj, &[(round % 16, &p)])
            .unwrap();
        ObjectStore::wait(&mut vt, token);
        store.scrub(&mut vt, &mut disk, 2).unwrap();
    }
    // Finish at least one full pass over the now-quiescent store.
    let mut guard = 0;
    while store.scrub_stats().passes == 0 {
        store.scrub(&mut vt, &mut disk, 64).unwrap();
        guard += 1;
        assert!(guard < 1000, "scrub cursor must make progress");
    }
    let stats = store.scrub_stats();
    assert!(stats.pages_verified > 0, "scrub actually verified data");
    assert_eq!(stats.corruptions_found, 0, "no false positives");
    assert_eq!(store.quarantined_blocks(), 0);
    // And every page still reads back its last-written content.
    for page in 0..16u64 {
        let want = if page == 0 { 64 } else { 48 + page } as u8;
        let mut buf = page_of(0);
        store
            .read_page(&mut vt, &mut disk, obj, page, &mut buf)
            .unwrap();
        assert_eq!(buf[0], want, "page {page}");
    }
}

#[test]
fn crash_at_every_io_during_repair_commit_is_atomic() {
    // A repair lands through the normal crash-atomic commit path. Crash
    // the device at every write boundary of the repair: recovery must
    // find either the pre-repair state (the delta whose payload rotted is
    // truncated, landing on the snapshot's clean copy) or the post-repair
    // state — and in both the page reads back clean. Never a hybrid,
    // never corrupt bytes.
    let p = page_of(9);
    let run = || {
        let mut disk = Disk::new(DiskConfig::paper());
        let mut store = ObjectStore::format(&mut disk);
        let mut vt = Vt::new(0);
        let obj = store.create(&mut vt, &mut disk, "o").unwrap();
        let token = store.persist(&mut vt, &mut disk, obj, &[(0, &p)]).unwrap();
        ObjectStore::wait(&mut vt, token);
        store.snapshot_create(&mut vt, &mut disk, obj, "s").unwrap();
        let token = store.persist(&mut vt, &mut disk, obj, &[(0, &p)]).unwrap();
        ObjectStore::wait(&mut vt, token);
        // The pre-repair state is durable; the sweep probes the repair.
        disk.settle();
        disk.corrupt_bit(live_block_of(&disk, &p), 3, 3);
        store.drop_cache();
        let mut guard = 0;
        while store.scrub_stats().passes == 0 {
            store.scrub(&mut vt, &mut disk, 64).unwrap();
            guard += 1;
            assert!(guard < 1000);
        }
        assert_eq!(store.scrub_stats().repairs, 1, "the sweep needs a repair");
        disk
    };
    let points = crash_at_every_io(run, |mut disk, at| {
        let mut vt = Vt::new(1);
        let mut store = ObjectStore::open(&mut vt, &mut disk).unwrap();
        let obj = store.lookup("o").unwrap();
        let epoch = store.epoch(obj);
        assert!(
            epoch == 1 || epoch == 2,
            "crash at {at:?}: epoch {epoch} is neither pre- nor post-repair"
        );
        let mut buf = page_of(0);
        store
            .read_page(&mut vt, &mut disk, obj, 0, &mut buf)
            .unwrap();
        assert_eq!(buf, p, "crash at {at:?}: recovered page must be clean");
    });
    assert!(points > 0, "the sweep exercised at least one boundary");
}

#[test]
fn seeded_rot_sweep_is_fully_detected_and_healed() {
    // The acceptance sweep: deterministically rot a seeded sample of
    // live data blocks, then scrub. Every injected corruption must be
    // detected; every page (all snapshot-covered here) must heal
    // byte-for-byte; nothing may be served corrupt, live or after a
    // reopen. CI runs this with the same fixed seed.
    let mut disk = Disk::new(DiskConfig::paper());
    let mut store = ObjectStore::format(&mut disk);
    let mut vt = Vt::new(0);
    let obj = store.create(&mut vt, &mut disk, "o").unwrap();
    const PAGES: u64 = 8;
    let pages: Vec<(u64, Vec<u8>)> = (0..PAGES).map(|p| (p, page_of(0x40 + p as u8))).collect();
    let refs: Vec<(u64, &[u8])> = pages.iter().map(|(p, d)| (*p, &d[..])).collect();
    let token = store.persist(&mut vt, &mut disk, obj, &refs).unwrap();
    ObjectStore::wait(&mut vt, token);
    store.snapshot_create(&mut vt, &mut disk, obj, "s").unwrap();
    // Rewrite the same contents: a second, independent media copy of
    // every page, with the snapshot pinning the first.
    let token = store.persist(&mut vt, &mut disk, obj, &refs).unwrap();
    ObjectStore::wait(&mut vt, token);
    disk.settle();

    let candidates: Vec<u64> = pages.iter().map(|(_, d)| live_block_of(&disk, d)).collect();
    let rotted = disk.seeded_rot(0xC0FFEE, &candidates, 5);
    assert_eq!(rotted.len(), 5, "the sweep injected all requested rot");

    store.drop_cache();
    let mut guard = 0;
    while store.scrub_stats().passes == 0 {
        store.scrub(&mut vt, &mut disk, 32).unwrap();
        guard += 1;
        assert!(guard < 1000, "scrub cursor must make progress");
    }
    let stats = store.scrub_stats();
    assert_eq!(
        stats.corruptions_found,
        rotted.len() as u64,
        "every injected corruption is detected"
    );
    assert_eq!(
        stats.repairs,
        rotted.len() as u64,
        "every page heals from its snapshot copy"
    );
    assert_eq!(stats.unrepaired, 0);
    assert_eq!(store.quarantined_blocks(), rotted.len());

    for (page, want) in &pages {
        let mut buf = page_of(0);
        store
            .read_page(&mut vt, &mut disk, obj, *page, &mut buf)
            .unwrap();
        assert_eq!(&buf, want, "page {page} healed byte-for-byte");
    }
    // The healed state survives a reopen.
    disk.settle();
    let mut vt = Vt::new(1);
    let mut store = ObjectStore::open(&mut vt, &mut disk).unwrap();
    let obj = store.lookup("o").unwrap();
    for (page, want) in &pages {
        let mut buf = page_of(0);
        store
            .read_page(&mut vt, &mut disk, obj, *page, &mut buf)
            .unwrap();
        assert_eq!(&buf, want, "page {page} clean after reopen");
    }
}
