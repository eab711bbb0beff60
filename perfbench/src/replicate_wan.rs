//! `replicate_wan`: snap encode/compress/digest and repl
//! ship/Nak/retransmit do most of the work, and the store's read side
//! is used — misses while assembling deltas, and the page-in of a
//! restored object 16× the 256-block cache.
//!
//! Set-up fills a 4,096-page region with seeded bytes, persists it and
//! bootstraps one replica behind a WAN link with 5% loss. The timed
//! phase is a closed loop of one writer: each epoch makes 8 scattered
//! 64-byte writes, persists them (`msnap_persist`, sync), and runs one
//! `ReplEngine::tick` (more while the link is throttled). An epoch's put
//! latency runs from its first write to the tick after which the
//! primary sees the replica's ack of it. After the last
//! epoch the primary crashes with epochs still in flight, the replica
//! is promoted, restored with `restore_promoted`, paged in, and
//! compared byte for byte with the writer's shadow copy as of the epoch
//! the replica holds, which must not be older than any acknowledged
//! epoch.

use std::collections::VecDeque;

use memsnap::{MemSnap, PersistFlags, RegionSel, PAGE_SIZE};
use msnap_disk::{Disk, DiskConfig};
use msnap_repl::{LinkMetrics, ReplConfig, ReplEngine};
use msnap_sim::{Nanos, NetConfig, Vt};
use msnap_store::StoreStats;
use rand::Rng;

use crate::gen::{self, InputDigest};
use crate::trace::Tracer;
use crate::{cost_layers, disk_layers, disk_queue_layers, net_layers, page_in, repl_layers};
use crate::{store_layers, vm_layers, Episode, HostMeter, Params, Scale};

/// Region size in pages (16× the 256-block store cache).
pub const REGION_PAGES: u64 = 4096;
/// Replicated epochs in the timed phase.
pub const EPOCHS: u64 = 1200;
/// Writes per epoch.
pub const WRITES_PER_EPOCH: u64 = 8;
/// Bytes per write.
pub const VALUE_BYTES: usize = 64;
/// Drop rate of the replica link (both directions).
pub const LOSS: f64 = 0.05;
/// Pages per bootstrap epoch.
pub const BOOT_CHUNK: usize = 64;
const REPLICA: &str = "standby";

/// A write's offset and the bytes it replaced.
type Undo = (usize, [u8; VALUE_BYTES]);

fn shape(scale: Scale) -> (u64, u64) {
    match scale {
        Scale::Full => (REGION_PAGES, EPOCHS),
        Scale::Smoke => (256, 40),
    }
}

/// One `replicate_wan` episode.
pub fn episode(p: &Params, tr: &mut Tracer) -> Episode {
    let mut ep = Episode::default();
    if let Err(e) = run(p, tr, &mut ep) {
        ep.attempted = ep.attempted.max(1);
        ep.violation(e);
    }
    ep
}

/// Subtracts the set-up share of a link's counters.
fn since(now: &LinkMetrics, then: &LinkMetrics) -> LinkMetrics {
    LinkMetrics {
        acks: now.acks - then.acks,
        retransmit_frames: now.retransmit_frames - then.retransmit_frames,
        throttled_ticks: now.throttled_ticks - then.throttled_ticks,
        subpage_frames: now.subpage_frames - then.subpage_frames,
        full_syncs: now.full_syncs - then.full_syncs,
        delta_syncs: now.delta_syncs - then.delta_syncs,
        wire_bytes_saved_compress: now.wire_bytes_saved_compress - then.wire_bytes_saved_compress,
        wire_bytes_saved_dedup: now.wire_bytes_saved_dedup - then.wire_bytes_saved_dedup,
        ..LinkMetrics::default()
    }
}

fn run(p: &Params, tr: &mut Tracer, ep: &mut Episode) -> Result<(), String> {
    let (pages, epochs) = shape(p.scale);
    let mut rng = gen::stream(p.seed, 200);
    let mut digest = InputDigest::default();

    let mut setup = HostMeter::start();
    let mut ms = MemSnap::format(Disk::new(DiskConfig::paper()));
    let mut vt = Vt::new(0);
    let thread = vt.id();
    let space = ms.vm_mut().create_space();
    let region = ms
        .msnap_open(&mut vt, space, "wan", pages)
        .map_err(|e| format!("msnap_open: {e}"))?;
    let object = ms
        .region_object_name(region.md)
        .ok_or("region has no store object")?
        .to_string();
    let mut shadow = vec![0u8; pages as usize * PAGE_SIZE];
    gen::payload(&mut rng, &mut shadow);
    digest.add(&shadow);
    let cfg = ReplConfig::default();
    let mut eng = ReplEngine::new(cfg);
    eng.add_replica(
        REPLICA,
        NetConfig::with_loss(gen::link_seed(p.seed, 40), LOSS),
    )
    .map_err(|e| format!("add_replica: {e}"))?;
    // Bootstrap in chunks: one epoch of BOOT_CHUNK pages at a time, each
    // settled before the next, so no single ship outlasts the
    // retransmit timeout on the WAN link.
    let chunk = BOOT_CHUNK * PAGE_SIZE;
    for (i, pages_image) in shadow.chunks(chunk).enumerate() {
        setup.tick();
        ms.write(
            &mut vt,
            space,
            thread,
            region.addr + (i * chunk) as u64,
            pages_image,
        )
        .map_err(|e| format!("write: {e}"))?;
        ms.msnap_persist(
            &mut vt,
            thread,
            RegionSel::Region(region.md),
            PersistFlags::sync(),
        )
        .map_err(|e| format!("persist: {e}"))?;
        let settled = eng
            .settle(&mut vt, &mut ms, Nanos::from_secs(600))
            .map_err(|e| format!("bootstrap: {e}"))?;
        if !settled {
            return Err("replica bootstrap did not finish".into());
        }
    }
    ep.setup = setup.finish();

    ms.reset_disk_stats();
    vt.take_costs();
    let store0 = ms.store().stats();
    let vm0 = ms.vm().stats();
    let metrics0 = *eng.link_metrics(REPLICA).ok_or("replica vanished")?;
    let (down0, _) = eng.link_net_stats(REPLICA).ok_or("replica vanished")?;
    let start = vt.now();
    let mut waiting: VecDeque<(u64, Nanos)> = VecDeque::new();
    let mut lat: Vec<u64> = Vec::new();
    let mut reset_tracking = Nanos::ZERO;
    let mut initiating = Nanos::ZERO;
    let retry = cfg.retransmit_timeout / 2;

    // The epoch the primary has seen acknowledged, as of the last tick:
    // its live epoch less the link's epoch lag. Every waiting epoch at or
    // below it is acknowledged now.
    let mut acked_tip = 0;
    let mut observe = |eng: &ReplEngine,
                       ms: &MemSnap,
                       waiting: &mut VecDeque<(u64, Nanos)>,
                       lat: &mut Vec<u64>,
                       now: Nanos| {
        let live = ms.object_epoch(&object).unwrap_or(0);
        let lag = eng.link_metrics(REPLICA).map_or(live, |m| m.lag_epochs);
        acked_tip = acked_tip.max(live.saturating_sub(lag));
        while let Some(&(epoch, issued)) = waiting.front() {
            if epoch > acked_tip {
                break;
            }
            lat.push((now - issued).as_ns());
            waiting.pop_front();
        }
    };
    let tick = |eng: &mut ReplEngine, vt: &mut Vt, ms: &mut MemSnap, tr: &mut Tracer, op: u64| {
        let span = tr.begin("repl", "tick", op, vt.now());
        let r = eng.tick(vt, ms);
        tr.end(span, vt.now());
        r.map_err(|e| format!("tick: {e}"))
    };

    let mut undo: Vec<(u64, Vec<Undo>)> = Vec::new();
    let mut meter = HostMeter::start();
    for op in 1..=epochs {
        meter.tick();
        let epoch_span = tr.begin("bench", "epoch", op, vt.now());
        let issued = vt.now();
        let mut old = Vec::with_capacity(WRITES_PER_EPOCH as usize);
        for _ in 0..WRITES_PER_EPOCH {
            let page = rng.gen_range(0..pages);
            let line = rng.gen_range(0..(PAGE_SIZE / VALUE_BYTES) as u64);
            let off = (page as usize) * PAGE_SIZE + (line as usize) * VALUE_BYTES;
            let value = &mut shadow[off..off + VALUE_BYTES];
            let mut before = [0u8; VALUE_BYTES];
            before.copy_from_slice(value);
            old.push((off, before));
            gen::payload(&mut rng, value);
            digest.add_u64(off as u64);
            digest.add(value);
            let span = tr.begin("vm", "write", op, vt.now());
            let wrote = ms.write(&mut vt, space, thread, region.addr + off as u64, value);
            tr.end(span, vt.now());
            wrote.map_err(|e| format!("write: {e}"))?;
        }
        let span = tr.begin("core", "persist", op, vt.now());
        let persisted = ms.msnap_persist(
            &mut vt,
            thread,
            RegionSel::Region(region.md),
            PersistFlags::sync(),
        );
        tr.end(span, vt.now());
        let epoch = persisted.map_err(|e| format!("persist: {e}"))?;
        let breakdown = ms.last_persist_breakdown();
        reset_tracking += breakdown.resetting_tracking;
        initiating += breakdown.initiating_writes;
        waiting.push_back((epoch, issued));
        undo.push((epoch, old));
        loop {
            let report = tick(&mut eng, &mut vt, &mut ms, tr, op)?;
            observe(&eng, &ms, &mut waiting, &mut lat, vt.now());
            if !report.throttled {
                break;
            }
            vt.advance(retry);
        }
        tr.end(epoch_span, vt.now());
    }
    ep.timed = meter.finish();
    ep.inputs = digest.value();
    let writes = epochs * WRITES_PER_EPOCH;
    let acked_epochs = lat.len() as u64;
    ep.attempted = writes;
    ep.ops = writes;
    let user_bytes = (writes as usize * VALUE_BYTES) as f64;

    ep.latency("put", &mut lat);
    ep.modeled(
        "kops_per_vs",
        "kops/vs",
        (acked_epochs * WRITES_PER_EPOCH) as f64 / (vt.now() - start).as_secs_f64() / 1e3,
    );
    let io = ms.disk().stats().clone();
    ep.modeled("write_amp", "B/B", io.bytes_written() as f64 / user_bytes);
    disk_layers(ep, &io);
    disk_queue_layers(ep, &io);
    store_layers(ep, store0, ms.store().stats());
    vm_layers(ep, vm0, ms.vm().stats());
    cost_layers(ep, vt.costs());
    ep.layer("vm.reset_tracking_us", reset_tracking.as_us_f64());
    ep.layer(
        "core.initiating_writes_us",
        initiating.as_us_f64() / epochs as f64,
    );
    let metrics = since(
        eng.link_metrics(REPLICA).ok_or("replica vanished")?,
        &metrics0,
    );
    let (down, up) = eng.link_net_stats(REPLICA).ok_or("replica vanished")?;
    let timed_down = msnap_sim::LinkStats {
        sent: down.sent - down0.sent,
        bytes_sent: down.bytes_sent - down0.bytes_sent,
        bytes_delivered: down.bytes_delivered - down0.bytes_delivered,
        ..down
    };
    let lag = eng.link_meters(REPLICA).and_then(|m| m.get("repl_ack_lag"));
    repl_layers(ep, &metrics, &timed_down, lag);
    net_layers(ep, &down);
    net_layers(ep, &up);
    ep.modeled(
        "wire_bytes_per_user_byte",
        "B/B",
        timed_down.bytes_sent as f64 / user_bytes,
    );

    // Crash the primary mid-stream (epochs still unacknowledged), promote
    // the replica, restore, page in, and compare with the shadow image
    // rolled back to the epoch the replica holds.
    let crash_at = vt.now();
    let _ = ms.crash(crash_at);
    let span = tr.begin("repl", "promote", 0, crash_at);
    let promoted = eng.promote(REPLICA);
    tr.end(span, crash_at);
    let mut promo = promoted.map_err(|e| format!("promote: {e}"))?;
    // The new primary starts no earlier than the crash; a replica still
    // applying in-flight datagrams starts later.
    promo.vt.wait_until(crash_at);
    let held = promo
        .epochs
        .get(&object)
        .map_or(0, |fenced| fenced.saturating_sub(cfg.fence_gap));
    if held < acked_tip {
        ep.violation(format!(
            "replica holds epoch {held} after promotion, below the acked epoch {acked_tip}"
        ));
    }
    for (_, old) in undo.iter().rev().take_while(|(epoch, _)| *epoch > held) {
        for (off, before) in old.iter().rev() {
            shadow[*off..*off + VALUE_BYTES].copy_from_slice(before);
        }
    }
    let mut disk = promo.disk;
    disk.reset_stats();
    let mut rvt = promo.vt;
    let restore_from = rvt.now();
    let span = tr.begin("core", "restore", 0, restore_from);
    let restored = MemSnap::restore_promoted(&mut rvt, disk);
    let restored_at = rvt.now();
    let paged = restored.map(|mut ms| {
        let r = page_in(&mut ms, &mut rvt, "wan");
        (ms, r)
    });
    tr.end(span, rvt.now());
    let (mut ms, paged) = paged.map_err(|e| format!("restore_promoted: {e}"))?;
    let (space, region) = paged.map_err(|e| format!("page in: {e}"))?;
    ep.layer("core.restore_us", (restored_at - restore_from).as_us_f64());
    ep.modeled(
        "recovery_ms",
        "ms",
        (rvt.now() - crash_at).as_ns() as f64 / 1e6,
    );
    disk_layers(ep, ms.disk().stats());
    store_layers(ep, StoreStats::default(), ms.store().stats());

    let mut page = vec![0u8; PAGE_SIZE];
    let mut bad_pages = 0u64;
    for i in 0..pages {
        ms.read(
            &mut rvt,
            space,
            region.addr + i * PAGE_SIZE as u64,
            &mut page,
        )
        .map_err(|e| format!("read back: {e}"))?;
        let want = &shadow[i as usize * PAGE_SIZE..(i as usize + 1) * PAGE_SIZE];
        if page != want {
            bad_pages += 1;
            ep.violation(format!(
                "page {i} differs from epoch {held} after promotion"
            ));
        }
    }
    ep.notes.push(format!(
        "replicate_wan: {epochs} epochs x {WRITES_PER_EPOCH} writes over {pages} pages, \
         {LOSS} loss; {acked_epochs} epochs acked before the crash, replica promoted at \
         epoch {held} (acked tip {acked_tip}); {bad_pages} pages differ"
    ));
    Ok(())
}
