//! `commit_scatter`: vm faults, the core coalescer, store radix/alloc
//! and the disk queue do nearly all the work; snap, repl and serve stay
//! idle.
//!
//! A closed loop of 8 modeled writer threads (one [`Vt`] each, stepped
//! in min-virtual-clock order from one host thread), each thinking an
//! exponential 20 µs (mean) between commits. Each writes 64
//! seeded bytes at a uniformly random line of a 16,384-page region —
//! 64× the 256-block store cache — and commits through
//! `msnap_persist_grouped` / `msnap_group_poll`. The store is formatted
//! with 8 shards, and set-up fills the whole region with seeded bytes
//! and persists it. At the end the device crashes, the store is
//! restored, the region paged in, and every page compared with the
//! writers' shadow copy byte for byte.

use memsnap::{CommitTicket, MemSnap, PersistFlags, RegionSel, PAGE_SIZE};
use msnap_disk::{Disk, DiskConfig};
use msnap_sim::{CostTracker, Nanos, Vt};
use msnap_store::StoreStats;
use rand::rngs::StdRng;
use rand::Rng;

use crate::gen::{self, InputDigest};
use crate::trace::Tracer;
use crate::{cost_layers, disk_layers, disk_queue_layers, page_in, store_layers, vm_layers};
use crate::{Episode, HostMeter, Params, Scale};

/// Modeled writer threads.
pub const WRITERS: usize = 8;
/// Region size in pages (64× the 256-block store cache).
pub const REGION_PAGES: u64 = 16_384;
/// Commits per writer.
pub const COMMITS_PER_WRITER: u64 = 1024;
/// Bytes per write (one dirty-tracking line).
pub const VALUE_BYTES: usize = 64;
/// Store shards.
pub const SHARDS: usize = 8;
/// Group-commit coalescing window.
pub const WINDOW: Nanos = Nanos::from_us(16);
/// Mean of each writer's exponential think time between a commit's
/// acknowledgement and its next write.
pub const THINK_MEAN_NS: f64 = 20_000.0;

struct Writer {
    vt: Vt,
    rng: StdRng,
    done: u64,
    pending: Option<(CommitTicket, Nanos, u64)>,
}

fn shape(scale: Scale) -> (u64, u64) {
    match scale {
        Scale::Full => (REGION_PAGES, COMMITS_PER_WRITER),
        Scale::Smoke => (1024, 16),
    }
}

/// One `commit_scatter` episode.
pub fn episode(p: &Params, tr: &mut Tracer) -> Episode {
    let mut ep = Episode::default();
    if let Err(e) = run(p, tr, &mut ep) {
        ep.attempted = ep.attempted.max(1);
        ep.violation(e);
    }
    ep
}

fn run(p: &Params, tr: &mut Tracer, ep: &mut Episode) -> Result<(), String> {
    let (pages, commits) = shape(p.scale);
    let setup = HostMeter::start();
    let mut ms = MemSnap::format_sharded(Disk::new(DiskConfig::paper()), SHARDS);
    ms.set_coalesce_window(WINDOW);
    let mut setup_vt = Vt::new(WRITERS as u32);
    let space = ms.vm_mut().create_space();
    let region = ms
        .msnap_open(&mut setup_vt, space, "scatter", pages)
        .map_err(|e| format!("msnap_open: {e}"))?;
    let mut shadow = vec![0u8; pages as usize * PAGE_SIZE];
    gen::payload(&mut gen::stream(p.seed, 99), &mut shadow);
    let setup_thread = setup_vt.id();
    ms.write(&mut setup_vt, space, setup_thread, region.addr, &shadow)
        .map_err(|e| format!("write: {e}"))?;
    ms.msnap_persist(
        &mut setup_vt,
        setup_thread,
        RegionSel::Region(region.md),
        PersistFlags::sync(),
    )
    .map_err(|e| format!("persist: {e}"))?;
    ep.setup = setup.finish();

    let start = setup_vt.now();
    let mut writers: Vec<Writer> = (0..WRITERS)
        .map(|i| {
            let mut vt = Vt::new(i as u32);
            vt.wait_until(start);
            Writer {
                vt,
                rng: gen::stream(p.seed, 100 + i as u64),
                done: 0,
                pending: None,
            }
        })
        .collect();
    ms.reset_disk_stats();
    let store0 = ms.store().stats();
    let vm0 = ms.vm().stats();
    let mut digest = InputDigest::default();
    digest.add(&shadow);
    let mut lat: Vec<u64> = Vec::new();
    let mut op = 0u64;

    let mut meter = HostMeter::start();
    loop {
        meter.tick();
        let next = writers
            .iter()
            .enumerate()
            .filter(|(_, w)| w.done < commits || w.pending.is_some())
            .min_by_key(|(i, w)| (w.vt.now(), *i))
            .map(|(i, _)| i);
        let Some(i) = next else {
            break;
        };
        let w = &mut writers[i];
        let step = tr.begin("bench", "step", op, w.vt.now());
        if let Some((ticket, issued, id)) = w.pending {
            let span = tr.begin("core", "persist", id, w.vt.now());
            let polled = ms.msnap_group_poll(&mut w.vt, ticket);
            tr.end(span, w.vt.now());
            match polled {
                Ok(None) => {}
                Ok(Some(_)) => {
                    lat.push((w.vt.now() - issued).as_ns());
                    w.pending = None;
                    w.done += 1;
                    let u: f64 = w.rng.gen();
                    let think = (-(1.0 - u).ln() * THINK_MEAN_NS).round() as u64;
                    digest.add_u64(think);
                    w.vt.advance(Nanos::from_ns(think));
                }
                Err(e) => {
                    ep.violation(format!("group commit failed: {e}"));
                    w.pending = None;
                    w.done += 1;
                }
            }
        } else {
            op += 1;
            let page = w.rng.gen_range(0..pages);
            let line = w.rng.gen_range(0..(PAGE_SIZE / VALUE_BYTES) as u64);
            let slot = (page as usize) * PAGE_SIZE + (line as usize) * VALUE_BYTES;
            let value = &mut shadow[slot..slot + VALUE_BYTES];
            gen::payload(&mut w.rng, value);
            digest.add_u64(slot as u64);
            digest.add(value);
            let issued = w.vt.now();
            let thread = w.vt.id();
            let span = tr.begin("vm", "write", op, issued);
            let wrote = ms.write(&mut w.vt, space, thread, region.addr + slot as u64, value);
            tr.end(span, w.vt.now());
            wrote.map_err(|e| format!("write: {e}"))?;
            let span = tr.begin("core", "persist", op, w.vt.now());
            let ticket = ms.msnap_persist_grouped(
                &mut w.vt,
                thread,
                RegionSel::Region(region.md),
                PersistFlags::sync(),
            );
            tr.end(span, w.vt.now());
            match ticket {
                Ok(t) => w.pending = Some((t, issued, op)),
                Err(e) => {
                    ep.violation(format!("group commit enqueue failed: {e}"));
                    w.done += 1;
                }
            }
        }
        tr.end(step, writers[i].vt.now());
    }
    ep.timed = meter.finish();
    ep.inputs = digest.value();
    ep.attempted = WRITERS as u64 * commits;
    ep.ops = lat.len() as u64;

    let end = writers.iter().map(|w| w.vt.now()).max().unwrap_or(start);
    let user_bytes = (lat.len() * VALUE_BYTES) as f64;
    ep.latency("put", &mut lat);
    ep.modeled(
        "kops_per_vs",
        "kops/vs",
        ep.ops as f64 / (end - start).as_secs_f64() / 1e3,
    );
    let io = ms.disk().stats().clone();
    ep.modeled("write_amp", "B/B", io.bytes_written() as f64 / user_bytes);
    disk_layers(ep, &io);
    disk_queue_layers(ep, &io);
    store_layers(ep, store0, ms.store().stats());
    vm_layers(ep, vm0, ms.vm().stats());
    let mut costs = CostTracker::new();
    for w in &writers {
        costs.merge(w.vt.costs());
    }
    cost_layers(ep, &costs);

    // Crash at the last commit's instant, restore, page in, read back.
    let mut disk = ms.crash(end);
    disk.reset_stats();
    let mut vt = Vt::new(0);
    vt.wait_until(end);
    let span = tr.begin("core", "restore", 0, end);
    let restored = MemSnap::restore(&mut vt, disk).map_err(|e| format!("restore: {e}"));
    let mut ms = match restored {
        Ok(ms) => ms,
        Err(e) => {
            tr.end(span, vt.now());
            return Err(e);
        }
    };
    ep.layer("core.restore_us", (vt.now() - end).as_us_f64());
    let paged = page_in(&mut ms, &mut vt, "scatter");
    tr.end(span, vt.now());
    let (space, region) = paged.map_err(|e| format!("page in: {e}"))?;
    ep.modeled("recovery_ms", "ms", (vt.now() - end).as_ns() as f64 / 1e6);
    disk_layers(ep, ms.disk().stats());
    store_layers(ep, StoreStats::default(), ms.store().stats());

    let mut page = vec![0u8; PAGE_SIZE];
    let mut bad_pages = 0u64;
    for (i, want) in shadow.chunks(PAGE_SIZE).enumerate() {
        ms.read(
            &mut vt,
            space,
            region.addr + (i * PAGE_SIZE) as u64,
            &mut page,
        )
        .map_err(|e| format!("read back: {e}"))?;
        if page != want {
            bad_pages += 1;
            ep.violation(format!(
                "page {i} differs from the acked image after recovery"
            ));
        }
    }
    ep.notes.push(format!(
        "commit_scatter: {WRITERS} writers x {commits} commits over {pages} pages; \
         {bad_pages} pages differ after recovery"
    ));
    Ok(())
}
