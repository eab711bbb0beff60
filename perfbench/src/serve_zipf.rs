//! `serve_zipf`: the full stack (serve → repl → snap → core → store →
//! disk) under an open loop of independent users.
//!
//! Requests arrive at a fixed offered rate in virtual time (exponential
//! inter-arrival gaps), each from one of 1024 sessions, for 8 tenants
//! drawn Zipf(0.9) and keys drawn Zipf(0.99): 50% puts of 16 seeded
//! bytes, 48% gets, 2% scans of 64 keys. 64 sessions watch their home
//! tenant. Two replicas sit behind calm links and `PutOk` waits for
//! both (`ack_replicated`). Latency is timed from each request's due
//! time. The working set (8 tenants × 4 stripes × 4 pages = 128 pages)
//! fits the 256-block store cache.
//!
//! The benchmark is its own client: it encodes and decodes the wire
//! protocol, retransmits on timeout and abandons a request after
//! [`MAX_RETRIES`] retransmits. At the end the primary crashes, replica
//! `r0` is promoted, and every acknowledged put is read back with
//! `peek`; every get and scan result is checked against the values ever
//! written to its key.

use std::collections::BTreeMap;

use msnap_serve::{wire, ErrCode, Request, Response, ServeConfig, ServeNode};
use msnap_sim::{Nanos, NetConfig};
use msnap_workloads::dist::TenantKeyZipf;
use rand::rngs::StdRng;
use rand::Rng;

use crate::gen::{self, InputDigest};
use crate::trace::Tracer;
use crate::{disk_layers, disk_queue_layers, net_layers, repl_layers};
use crate::{Episode, HostMeter, Params, Scale};

/// Client sessions (one switch port each).
pub const SESSIONS: usize = 1024;
/// Tenant namespaces.
pub const TENANTS: usize = 8;
/// Zipf skew across tenants.
pub const TENANT_THETA: f64 = 0.9;
/// Zipf skew across keys within a tenant.
pub const KEY_THETA: f64 = 0.99;
/// Share of puts; [`SCAN_SHARE`] are scans and the rest gets.
pub const PUT_SHARE: f64 = 0.50;
/// Share of scans.
pub const SCAN_SHARE: f64 = 0.02;
/// Sessions that watch their home tenant's whole key range.
pub const WATCHERS: usize = 64;
/// Bytes per put value.
pub const VALUE_BYTES: usize = 16;
/// Keys per scan.
pub const SCAN_KEYS: u64 = 64;
/// Replicas behind calm links.
pub const REPLICAS: usize = 2;
/// Offered rate of the measured episode, in kops per virtual second
/// (about half of the measured `slo_kops`).
pub const RATE_KOPS: f64 = 5.0;
/// Virtual length of the measured load.
pub const LOAD: Nanos = Nanos::from_ms(1500);
/// Put-p99 limit that defines `slo_kops`.
pub const PUT_P99_LIMIT: Nanos = Nanos::from_ms(10);
/// Offered rates (kops per virtual second) of the `slo_kops` ladder.
pub const LADDER_KOPS: [f64; 8] = [2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0];
/// Expected requests per ladder step: each step's load lasts long
/// enough for about 1300 puts, so its put p99 has at least ten samples
/// beyond it.
pub const LADDER_OPS: f64 = 2600.0;
/// Boots timed per episode for `setup_s`.
const SETUP_REPEATS: usize = 5;
/// Node round length.
const QUANTUM: Nanos = Nanos::from_us(100);
/// Retransmit a request after this long without a response.
const TIMEOUT: Nanos = Nanos::from_ms(8);
/// Retransmits before a request counts as abandoned.
pub const MAX_RETRIES: u32 = 6;
/// Replica-read staleness budget (epochs).
const STALENESS: u64 = 4;
/// Longest quiescent drain after the load before in-flight requests
/// count as abandoned.
const DRAIN: Nanos = Nanos::from_ms(400);

#[derive(Clone)]
enum Op {
    /// `Hello` or `Subscribe`, sent while booting.
    Control,
    Put {
        put: usize,
    },
    Get {
        tenant: usize,
        key: u64,
    },
    Scan {
        tenant: usize,
    },
}

struct Pending {
    op: Op,
    due: Nanos,
    last: Nanos,
    retries: u32,
    datagram: Vec<u8>,
}

struct PutRecord {
    tenant: usize,
    key: u64,
    value: Vec<u8>,
    acked_epoch: Option<u64>,
}

#[derive(Default)]
struct WatchChain {
    last_processed: u64,
    waiting: BTreeMap<u64, u64>,
}

/// What the client observed over one load.
#[derive(Default)]
struct Client {
    sessions: Vec<u64>,
    next_req: Vec<u64>,
    watch: Vec<Option<WatchChain>>,
    inflight: BTreeMap<(usize, u64), Pending>,
    puts: Vec<PutRecord>,
    /// Every value ever sent per `(tenant, key)`.
    written: BTreeMap<(usize, u64), Vec<Vec<u8>>>,
    put_lat: Vec<u64>,
    get_lat: Vec<u64>,
    attempted: u64,
    completed: u64,
    last_completion: Nanos,
    abandoned: u64,
    refused: u64,
    retransmits: u64,
    /// `UnknownSession` refusals: the server forgot the session, so a
    /// real client would reconnect.
    reconnects: u64,
    bad_reads: Vec<String>,
    bad_read_count: u64,
}

/// A booted node plus its connected, subscribed client.
struct Fleet {
    node: ServeNode,
    client: Client,
    now: Nanos,
    capacity: u64,
    dist: TenantKeyZipf,
}

fn codec<T>(tr: &mut Tracer, now: Nanos, f: impl FnOnce() -> T) -> T {
    let span = tr.begin("serve", "codec", 0, now);
    let out = f();
    tr.end(span, now);
    out
}

fn send(fleet: &mut Fleet, tr: &mut Tracer, port: usize, at: Nanos, request: &Request) -> Vec<u8> {
    let datagram = codec(tr, at, || wire::encode_request(request));
    fleet.node.client_send(port, at, datagram.clone());
    datagram
}

fn step(fleet: &mut Fleet, tr: &mut Tracer, to: Nanos) -> Result<(), String> {
    let span = tr.begin("serve", "step", 0, to);
    let r = fleet.node.step(to);
    tr.end(span, fleet.node.now());
    fleet.now = to;
    r.map_err(|e| format!("serve step failed: {e}"))
}

/// Delivers every due response to the client.
fn poll(fleet: &mut Fleet, tr: &mut Tracer) {
    let now = fleet.now;
    for port in 0..fleet.client.sessions.len() {
        while let Some((at, dg)) = fleet.node.client_poll(port, now) {
            let Ok(resps) = codec(tr, at, || wire::decode_responses(&dg)) else {
                continue;
            };
            for resp in resps {
                on_response(fleet, tr, port, at, resp);
            }
        }
    }
}

fn on_response(fleet: &mut Fleet, tr: &mut Tracer, port: usize, at: Nanos, resp: Response) {
    let c = &mut fleet.client;
    match resp {
        Response::HelloOk { session, .. } => {
            if c.sessions[port] != 0 {
                return;
            }
            c.sessions[port] = session;
            c.inflight.remove(&(port, 0));
        }
        Response::SubOk { req, .. } => {
            if c.inflight.remove(&(port, req)).is_some() {
                c.watch[port] = Some(WatchChain::default());
            }
        }
        Response::PutOk { req, epoch } => {
            let Some(p) = c.inflight.remove(&(port, req)) else {
                return;
            };
            if let Op::Put { put } = p.op {
                c.puts[put].acked_epoch = Some(epoch);
            }
            c.put_lat.push(at.saturating_sub(p.due).as_ns());
            c.completed += 1;
            c.last_completion = c.last_completion.max(at);
        }
        Response::GetOk { req, value, .. } => {
            let Some(p) = c.inflight.remove(&(port, req)) else {
                return;
            };
            if let (Op::Get { tenant, key }, Some(v)) = (&p.op, value) {
                check_read(c, *tenant, *key, &v);
            }
            c.get_lat.push(at.saturating_sub(p.due).as_ns());
            c.completed += 1;
            c.last_completion = c.last_completion.max(at);
        }
        Response::ScanOk { req, pairs } => {
            let Some(p) = c.inflight.remove(&(port, req)) else {
                return;
            };
            if let Op::Scan { tenant } = p.op {
                for (key, v) in pairs {
                    check_read(c, tenant, key, &v);
                }
            }
            c.completed += 1;
            c.last_completion = c.last_completion.max(at);
        }
        Response::Notify {
            cut_seq, prev_seq, ..
        } => {
            let session = c.sessions[port];
            let Some(w) = c.watch[port].as_mut() else {
                return;
            };
            if cut_seq > w.last_processed {
                w.waiting.insert(cut_seq, prev_seq);
            }
            while let Some((&seq, &prev)) = w.waiting.first_key_value() {
                if prev != w.last_processed {
                    break;
                }
                w.waiting.remove(&seq);
                w.last_processed = seq;
            }
            let ack = Request::NotifyAck {
                session,
                cut_seq: w.last_processed,
            };
            let now = fleet.now;
            send(fleet, tr, port, now, &ack);
        }
        Response::Err { req, code } => {
            if code == ErrCode::UnknownSession {
                c.reconnects += 1;
            }
            if c.inflight.remove(&(port, req)).is_some() {
                c.refused += 1;
            }
        }
        Response::UnsubOk { .. } | Response::StatsOk { .. } => {}
    }
}

/// A read must return a value some put wrote to that key.
fn check_read(c: &mut Client, tenant: usize, key: u64, value: &[u8]) {
    let known = c
        .written
        .get(&(tenant, key))
        .is_some_and(|vs| vs.iter().any(|w| w == value));
    if !known {
        c.bad_read_count += 1;
        if c.bad_reads.len() < 4 {
            c.bad_reads.push(format!(
                "read of t{tenant}/{key} returned a value never written to it"
            ));
        }
    }
}

/// Retransmits timed-out requests; abandons those out of retries.
fn retransmit(fleet: &mut Fleet, tr: &mut Tracer) {
    let now = fleet.now;
    let mut resend = Vec::new();
    let mut abandon = Vec::new();
    for (&id, p) in fleet.client.inflight.iter_mut() {
        if now.saturating_sub(p.last) < TIMEOUT {
            continue;
        }
        if p.retries >= MAX_RETRIES {
            abandon.push(id);
            continue;
        }
        p.retries += 1;
        p.last = now;
        resend.push((id.0, p.datagram.clone()));
    }
    for id in abandon {
        fleet.client.inflight.remove(&id);
        fleet.client.abandoned += 1;
    }
    for (port, dg) in resend {
        let span = tr.begin("serve", "client_send", 0, now);
        fleet.node.client_send(port, now, dg);
        tr.end(span, now);
        fleet.client.retransmits += 1;
    }
}

/// Formats the node, attaches the replicas, and opens every session
/// (and every watch) before the load starts.
fn boot(seed: u64, sessions: usize, tr: &mut Tracer) -> Result<Fleet, String> {
    let cfg = ServeConfig::default();
    let capacity = cfg.capacity();
    let mut node = ServeNode::format(cfg, sessions, NetConfig::calm(gen::link_seed(seed, 10)));
    for r in 0..REPLICAS {
        node.add_replica(
            &format!("r{r}"),
            NetConfig::calm(gen::link_seed(seed, 20 + r as u64)),
        )
        .map_err(|e| format!("add_replica: {e}"))?;
    }
    let dist = TenantKeyZipf::new(TENANTS, TENANT_THETA, capacity as usize, KEY_THETA);
    let mut fleet = Fleet {
        now: node.now(),
        node,
        client: Client {
            sessions: vec![0; sessions],
            next_req: vec![1; sessions],
            watch: (0..sessions).map(|_| None).collect(),
            ..Client::default()
        },
        capacity,
        dist,
    };
    let mut homes = gen::stream(seed, 3);
    let hello = Request::Hello {
        staleness: STALENESS,
    };
    let now = fleet.now;
    for port in 0..sessions {
        let datagram = send(&mut fleet, tr, port, now, &hello);
        fleet.client.inflight.insert(
            (port, 0),
            Pending {
                op: Op::Control,
                due: now,
                last: now,
                retries: 0,
                datagram,
            },
        );
    }
    let watchers = WATCHERS.min(sessions);
    let mut subscribed = vec![false; watchers];
    let deadline = now + Nanos::from_ms(200);
    loop {
        let to = fleet.now + QUANTUM;
        step(&mut fleet, tr, to)?;
        poll(&mut fleet, tr);
        retransmit(&mut fleet, tr);
        for (port, done) in subscribed.iter_mut().enumerate() {
            let session = fleet.client.sessions[port];
            if *done || session == 0 {
                continue;
            }
            *done = true;
            let (tenant, _) = fleet.dist.sample(&mut homes);
            let req = fleet.client.next_req[port];
            fleet.client.next_req[port] += 1;
            let sub = Request::Subscribe {
                session,
                req,
                tenant: format!("t{tenant}"),
                lo: 0,
                hi: capacity,
            };
            let now = fleet.now;
            let datagram = send(&mut fleet, tr, port, now, &sub);
            fleet.client.inflight.insert(
                (port, req),
                Pending {
                    op: Op::Control,
                    due: now,
                    last: now,
                    retries: 0,
                    datagram,
                },
            );
        }
        let ready = fleet.client.sessions.iter().all(|&s| s != 0)
            && fleet.client.watch[..watchers].iter().all(Option::is_some);
        if ready {
            fleet.client.abandoned = 0;
            fleet.client.retransmits = 0;
            return Ok(fleet);
        }
        if fleet.now >= deadline {
            return Err("sessions failed to open within 200 ms".into());
        }
    }
}

/// Issues one request of the open loop at its due instant.
fn issue(
    fleet: &mut Fleet,
    tr: &mut Tracer,
    rng: &mut StdRng,
    due: Nanos,
    digest: &mut InputDigest,
) {
    let sessions = fleet.client.sessions.len();
    let port = rng.gen_range(0..sessions);
    let (tenant, key) = fleet.dist.sample(rng);
    let key = key as u64 % fleet.capacity;
    let roll: f64 = rng.gen();
    let session = fleet.client.sessions[port];
    let req = fleet.client.next_req[port];
    fleet.client.next_req[port] += 1;
    let tenant_name = format!("t{tenant}");
    let (op, request) = if roll < PUT_SHARE {
        let mut value = vec![0u8; VALUE_BYTES];
        gen::payload(rng, &mut value);
        digest.add(&value);
        fleet
            .client
            .written
            .entry((tenant, key))
            .or_default()
            .push(value.clone());
        fleet.client.puts.push(PutRecord {
            tenant,
            key,
            value: value.clone(),
            acked_epoch: None,
        });
        let put = fleet.client.puts.len() - 1;
        (
            Op::Put { put },
            Request::Put {
                session,
                req,
                tenant: tenant_name,
                key,
                value,
            },
        )
    } else if roll < PUT_SHARE + SCAN_SHARE {
        let span = SCAN_KEYS.min(fleet.capacity);
        let lo = key.min(fleet.capacity - span);
        (
            Op::Scan { tenant },
            Request::Scan {
                session,
                req,
                tenant: tenant_name,
                lo,
                hi: lo + span,
            },
        )
    } else {
        (
            Op::Get { tenant, key },
            Request::Get {
                session,
                req,
                tenant: tenant_name,
                key,
            },
        )
    };
    digest.add_u64(due.as_ns());
    digest.add_u64(port as u64);
    digest.add_u64(tenant as u64);
    digest.add_u64(key);
    digest.add_u64(roll.to_bits());
    let datagram = send(fleet, tr, port, due, &request);
    fleet.client.attempted += 1;
    fleet.client.inflight.insert(
        (port, req),
        Pending {
            op,
            due,
            last: due,
            retries: 0,
            datagram,
        },
    );
}

/// What one load observed beyond the client's own counters.
struct LoadOutcome {
    start: Nanos,
    /// In-flight requests at the load's midpoint and end (backlog
    /// growth check).
    backlog_mid: usize,
    backlog_end: usize,
    drained: bool,
}

/// Runs an open loop at `rate_kops` for `load`, then drains. `meter`,
/// when given, times the loop.
fn drive(
    fleet: &mut Fleet,
    tr: &mut Tracer,
    rng: &mut StdRng,
    rate_kops: f64,
    load: Nanos,
    digest: &mut InputDigest,
    mut meter: Option<&mut HostMeter>,
) -> Result<LoadOutcome, String> {
    let start = fleet.now;
    let end = start + load;
    let mid = start + load / 2;
    let mean_gap_ns = 1e6 / rate_kops;
    let gap = |rng: &mut StdRng| {
        let u: f64 = rng.gen();
        Nanos::from_ns((-(1.0 - u).ln() * mean_gap_ns).round() as u64)
    };
    let mut next_due = start + gap(rng);
    let mut backlog_mid = 0;
    let mut backlog_end = 0;
    let drain_deadline = end + DRAIN;
    loop {
        let to = fleet.now + QUANTUM;
        while next_due <= to && next_due < end {
            let op = tr.begin("bench", "issue", 0, next_due);
            issue(fleet, tr, rng, next_due, digest);
            tr.end(op, next_due);
            next_due += gap(rng);
        }
        step(fleet, tr, to)?;
        poll(fleet, tr);
        retransmit(fleet, tr);
        if let Some(m) = meter.as_deref_mut() {
            m.tick();
        }
        if fleet.now <= mid {
            backlog_mid = fleet.client.inflight.len();
        }
        if fleet.now <= end {
            backlog_end = fleet.client.inflight.len();
            continue;
        }
        if fleet.client.inflight.is_empty() {
            break;
        }
        if fleet.now >= drain_deadline {
            break;
        }
    }
    let drained = fleet.client.inflight.is_empty();
    fleet.client.abandoned += fleet.client.inflight.len() as u64;
    fleet.client.inflight.clear();
    Ok(LoadOutcome {
        start,
        backlog_mid,
        backlog_end,
        drained,
    })
}

/// Session count and load length per scale.
fn shape(scale: Scale) -> (usize, Nanos) {
    match scale {
        Scale::Full => (SESSIONS, LOAD),
        Scale::Smoke => (128, Nanos::from_ms(20)),
    }
}

/// One `serve_zipf` episode.
pub fn episode(p: &Params, tr: &mut Tracer) -> Episode {
    let mut ep = Episode::default();
    if let Err(e) = run(p, tr, &mut ep) {
        ep.attempted = ep.attempted.max(1);
        ep.violation(e);
    }
    ep
}

fn run(p: &Params, tr: &mut Tracer, ep: &mut Episode) -> Result<(), String> {
    let (sessions, load) = shape(p.scale);
    // One boot takes about 10 ms of host time, and how long depends on
    // the heap the previous load left behind; back-to-back boots agree.
    // So the boot is timed SETUP_REPEATS times in a row, each fleet
    // dropped before the next, and the median kept.
    let mut boots = Vec::with_capacity(SETUP_REPEATS);
    for _ in 1..SETUP_REPEATS {
        let meter = HostMeter::start();
        let fleet = boot(p.seed, sessions, &mut Tracer::new(false))?;
        boots.push(meter.finish());
        drop(fleet);
    }
    let meter = HostMeter::start();
    let mut fleet = boot(p.seed, sessions, tr)?;
    boots.push(meter.finish());
    boots.sort_unstable_by_key(|h| h.scaled);
    ep.setup = boots[boots.len() / 2];

    let mut rng = gen::stream(p.seed, 1);
    let mut digest = InputDigest::default();
    let mut meter = HostMeter::start();
    let out = drive(
        &mut fleet,
        tr,
        &mut rng,
        RATE_KOPS,
        load,
        &mut digest,
        Some(&mut meter),
    )?;
    ep.timed = meter.finish();
    ep.inputs = digest.value();

    let c = &mut fleet.client;
    ep.ops = c.completed;
    ep.attempted = c.attempted;
    ep.failed = c.abandoned + c.refused + c.bad_read_count;
    for v in std::mem::take(&mut c.bad_reads) {
        ep.violations.push(v);
    }
    if !out.drained {
        ep.violations
            .push("requests still in flight after the drain (abandoned)".into());
    }
    let user_bytes = (c.put_lat.len() * VALUE_BYTES) as f64;
    ep.latency("put", &mut c.put_lat);
    ep.latency("get", &mut c.get_lat);
    let window = c.last_completion.saturating_sub(out.start).as_secs_f64();
    ep.modeled("kops_per_vs", "kops/vs", c.completed as f64 / window / 1e3);
    ep.notes.push(format!(
        "serve_zipf: offered {RATE_KOPS} kops/vs for {} ms over {sessions} sessions; \
         backlog mid {} end {}; {} abandoned, {} refused",
        load.as_ns() / 1_000_000,
        out.backlog_mid,
        out.backlog_end,
        c.abandoned,
        c.refused
    ));

    let stats = fleet.node.stats();
    ep.layer("serve.cuts", stats.cuts as f64);
    ep.layer("serve.notify_bundles", stats.notify_bundles as f64);
    ep.layer("serve.notify_events", stats.notify_events as f64);
    let reads = (stats.replica_reads + stats.primary_reads).max(1);
    ep.layer(
        "serve.replica_read_share",
        stats.replica_reads as f64 / reads as f64,
    );
    ep.layer("serve.client_retransmits", c.retransmits as f64);
    ep.layer("serve.reconnects", c.reconnects as f64);

    // Crash the primary, promote r0, and read back every acked put.
    let (crash_at, engine, disk) = fleet.node.crash();
    let engine = engine.ok_or("replicated node lost its engine")?;
    disk_layers(ep, disk.stats());
    disk_queue_layers(ep, disk.stats());
    ep.modeled(
        "write_amp",
        "B/B",
        disk.stats().bytes_written() as f64 / user_bytes,
    );
    let mut wire_bytes = 0u64;
    for r in 0..REPLICAS {
        let name = format!("r{r}");
        let (Some(m), Some((down, up))) =
            (engine.link_metrics(&name), engine.link_net_stats(&name))
        else {
            return Err(format!("replica {name} vanished"));
        };
        let lag = engine
            .link_meters(&name)
            .and_then(|m| m.get("repl_ack_lag"));
        repl_layers(ep, m, &down, lag);
        net_layers(ep, &down);
        net_layers(ep, &up);
        wire_bytes += down.bytes_sent;
    }
    ep.modeled(
        "wire_bytes_per_user_byte",
        "B/B",
        wire_bytes as f64 / user_bytes,
    );
    let span = tr.begin("repl", "promote", 0, crash_at);
    let promoted = engine.promote("r0");
    tr.end(span, crash_at);
    let mut promo = promoted.map_err(|e| format!("promote: {e}"))?;
    // The new primary starts no earlier than the crash.
    promo.vt.wait_until(crash_at);
    let span = tr.begin("core", "restore", 0, promo.vt.now());
    let restore_from = promo.vt.now();
    let mut node = ServeNode::from_promotion(
        promo,
        ServeConfig::default(),
        sessions,
        NetConfig::calm(gen::link_seed(p.seed, 30)),
        Vec::new(),
    )
    .map_err(|e| format!("from_promotion: {e}"))?;
    ep.layer(
        "core.restore_us",
        node.now().saturating_sub(restore_from).as_us_f64(),
    );
    // An acked key must read back as a value acked in the key's newest
    // acked epoch, or as a put never acknowledged (it may have landed
    // later).
    let mut newest: BTreeMap<(usize, u64), u64> = BTreeMap::new();
    for put in &fleet.client.puts {
        if let Some(e) = put.acked_epoch {
            let n = newest.entry((put.tenant, put.key)).or_insert(e);
            *n = (*n).max(e);
        }
    }
    let mut allowed: BTreeMap<(usize, u64), Vec<&[u8]>> = BTreeMap::new();
    for put in &fleet.client.puts {
        let k = (put.tenant, put.key);
        if let Some(&epoch) = newest.get(&k) {
            if put.acked_epoch.is_none_or(|e| e == epoch) {
                allowed.entry(k).or_default().push(&put.value);
            }
        }
    }
    let mut lost = 0u64;
    for ((tenant, key), values) in &allowed {
        let stored = node
            .peek(&format!("t{tenant}"), *key)
            .map_err(|e| format!("peek: {e}"))?;
        if !stored.as_deref().is_some_and(|v| values.contains(&v)) {
            lost += 1;
            if ep.violations.len() < 8 {
                ep.violations
                    .push(format!("acked put to t{tenant}/{key} lost after failover"));
            }
        }
    }
    tr.end(span, node.now());
    ep.failed += lost;
    ep.modeled(
        "recovery_ms",
        "ms",
        node.now().saturating_sub(crash_at).as_ns() as f64 / 1e6,
    );
    ep.notes.push(format!(
        "serve_zipf: {} acked keys read back after promotion, {lost} lost",
        allowed.len()
    ));
    Ok(())
}

/// The outcome of the offered-rate ladder.
pub struct Slo {
    /// Highest ladder rate meeting the put-p99 limit without a growing
    /// backlog (0 when none does).
    pub slo_kops: f64,
    /// One report line per ladder step.
    pub notes: Vec<String>,
}

/// Runs the fixed ladder of offered rates and finds `slo_kops`. Stops
/// at the first rate that misses the limit.
pub fn slo_ladder(p: &Params) -> Slo {
    let (sessions, _) = shape(p.scale);
    let ops = match p.scale {
        Scale::Full => LADDER_OPS,
        Scale::Smoke => 200.0,
    };
    let mut slo = Slo {
        slo_kops: 0.0,
        notes: Vec::new(),
    };
    let mut tr = Tracer::new(false);
    for rate in LADDER_KOPS {
        let load = Nanos::from_us((ops / rate * 1e3).round() as u64);
        let outcome = boot(p.seed, sessions, &mut tr).and_then(|mut fleet| {
            let mut rng = gen::stream(p.seed, 2);
            let mut digest = InputDigest::default();
            let out = drive(&mut fleet, &mut tr, &mut rng, rate, load, &mut digest, None)?;
            Ok((fleet.client, out))
        });
        let (mut c, out) = match outcome {
            Ok(v) => v,
            Err(e) => {
                slo.notes.push(format!("ladder {rate} kops/vs: {e}"));
                break;
            }
        };
        c.put_lat.sort_unstable();
        let n = c.put_lat.len();
        let (p, label) = crate::tail_percentile(n).unwrap_or((50.0, "p50"));
        let tail = crate::percentile(&c.put_lat, p);
        let growing = out.backlog_end > out.backlog_mid * 3 / 2 + 32;
        let failed = c.abandoned + c.refused + c.bad_read_count;
        let meets = out.drained
            && !growing
            && failed == 0
            && label == "p99"
            && tail <= PUT_P99_LIMIT.as_ns();
        slo.notes.push(format!(
            "ladder {rate} kops/vs for {} ms: put {label} {:.3} us over {n} puts, \
             backlog mid {} end {}, {failed} failed -> {}",
            load.as_ns() / 1_000_000,
            tail as f64 / 1e3,
            out.backlog_mid,
            out.backlog_end,
            if meets { "meets" } else { "misses" }
        ));
        if !meets {
            break;
        }
        slo.slo_kops = rate;
    }
    slo
}
