//! One benchmark for the MemSnap stack: served puts (`serve_zipf`),
//! scattered μCheckpoints (`commit_scatter`) and WAN replication
//! (`replicate_wan`), measured end to end and per layer.
//!
//! A run repeats one *episode* of the chosen workload until its host
//! time budget is spent. An episode sets the system up, runs a fixed,
//! seed-determined load (the timed phase), crashes, recovers and reads
//! back every acknowledged write. Everything the episode measures in
//! virtual time (*modeled* metrics) is a pure function of the seed, so
//! every episode of a run must reproduce it exactly — a mismatch is a
//! correctness violation. Host metrics (what the simulator itself
//! costs) are medians over the episodes.
//!
//! With tracing on, episodes alternate untraced and traced; the traced
//! ones record a span around every call into a layer ([`trace`]) and
//! must still match the untraced modeled figures exactly.

pub mod commit_scatter;
pub mod gen;
pub mod replicate_wan;
pub mod serve_zipf;
pub mod trace;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use memsnap::MemSnap;
use msnap_disk::IoStats;
use msnap_sim::{Category, CostTracker, LatencyStats, LinkStats};
use msnap_store::StoreStats;
use msnap_vm::{AsId, VmStats};

use trace::Tracer;

/// End-to-end metrics printed by an untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("put_p50_us", "us"),
    ("put_p99_us", "us"),
    ("kops_per_vs", "kops/vs"),
    ("write_amp", "B/B"),
    ("recovery_ms", "ms"),
    ("host_kops_per_s", "kops/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics printed by a traced run: `(name, unit)`. A layer a
/// workload leaves idle reads 0.
pub const PER_LAYER: [(&str, &str); 77] = [
    ("vm.write_host_ns", "ns"),
    ("vm.minor_faults", "count"),
    ("vm.cow_faults", "count"),
    ("vm.shootdowns", "count"),
    ("vm.pte_resets", "count"),
    ("vm.reset_tracking_us", "us"),
    ("vm.self_host_ms", "ms"),
    ("core.persist_host_us_p50", "us"),
    ("core.persist_host_us_p99", "us"),
    ("core.batch_participants", "count"),
    ("core.initiating_writes_us", "us"),
    ("core.restore_host_ms", "ms"),
    ("core.restore_us", "us"),
    ("core.self_host_ms", "ms"),
    ("store.commits", "count"),
    ("store.delta_commits", "count"),
    ("store.pages_written", "count"),
    ("store.nodes_written", "count"),
    ("store.cache_hits", "count"),
    ("store.cache_misses", "count"),
    ("store.cache_evictions", "count"),
    ("store.hydrations", "count"),
    ("store.cache_hit_ratio", "ratio"),
    ("disk.writes", "count"),
    ("disk.bytes_written", "B"),
    ("disk.reads", "count"),
    ("disk.bytes_read", "B"),
    ("disk.write_p50_us", "us"),
    ("disk.write_p99_us", "us"),
    ("disk.avg_queue_depth", "count"),
    ("disk.merged_submissions", "count"),
    ("disk.merged_parts", "count"),
    ("snap.subpage_frames", "count"),
    ("snap.full_syncs", "count"),
    ("snap.delta_syncs", "count"),
    ("snap.saved_compress_bytes", "B"),
    ("snap.saved_dedup_bytes", "B"),
    ("repl.tick_host_us", "us"),
    ("repl.acks", "count"),
    ("repl.retransmit_frames", "count"),
    ("repl.retransmit_ratio", "ratio"),
    ("repl.throttled_ticks", "count"),
    ("repl.ack_lag_p50_us", "us"),
    ("repl.ack_lag_p99_us", "us"),
    ("repl.wire_bytes", "B"),
    ("repl.goodput_bytes", "B"),
    ("repl.wire_bytes_per_user_byte", "B/B"),
    ("repl.self_host_ms", "ms"),
    ("serve.step_host_us_p50", "us"),
    ("serve.step_host_us_p99", "us"),
    ("serve.wire_codec_host_ns", "ns"),
    ("serve.cuts", "count"),
    ("serve.notify_bundles", "count"),
    ("serve.notify_events", "count"),
    ("serve.replica_read_share", "ratio"),
    ("serve.client_retransmits", "count"),
    ("serve.reconnects", "count"),
    ("serve.get_p50_us", "us"),
    ("serve.get_p99_us", "us"),
    ("serve.slo_kops", "kops/vs"),
    ("serve.self_host_ms", "ms"),
    ("sim.cost.PageFault_us", "us"),
    ("sim.cost.Memsnap_us", "us"),
    ("sim.cost.MemsnapFlush_us", "us"),
    ("sim.cost.IoWait_us", "us"),
    ("sim.cost.Syscall_us", "us"),
    ("sim.cost.other_us", "us"),
    ("sim.net.dropped", "count"),
    ("sim.net.reordered", "count"),
    ("bench.self_host_ms", "ms"),
    ("bench.failed_frac", "ratio"),
    ("bench.put_samples", "count"),
    ("bench.get_samples", "count"),
    ("trace.host_kops_per_s_untraced", "kops/s"),
    ("trace.host_kops_per_s_traced", "kops/s"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop served puts/gets/scans over 1024 sessions.
    ServeZipf,
    /// 8 modeled writers committing scattered 64-byte writes.
    CommitScatter,
    /// One writer replicating scattered epochs over a lossy WAN link.
    ReplicateWan,
}

impl Workload {
    /// Every workload, in BENCHMARK.json order.
    pub const ALL: [Workload; 3] = [
        Workload::ServeZipf,
        Workload::CommitScatter,
        Workload::ReplicateWan,
    ];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeZipf => "serve_zipf",
            Workload::CommitScatter => "commit_scatter",
            Workload::ReplicateWan => "replicate_wan",
        }
    }
}

/// How much work one episode does. `Full` is what the benchmark
/// measures; `Smoke` is a reduced size for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured size.
    Full,
    /// A small size that still crosses every layer.
    Smoke,
}

/// What one episode is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Input seed.
    pub seed: u64,
    /// Episode size.
    pub scale: Scale,
}

/// One named metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// The outcome of one episode.
#[derive(Debug, Clone, Default)]
pub struct Episode {
    /// Host time of the set-up phase.
    pub setup: HostTime,
    /// Host time of the timed phase.
    pub timed: HostTime,
    /// Operations completed in the timed phase.
    pub ops: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed, refused or abandoned, plus acknowledged writes
    /// missing or wrong after recovery, plus reads of never-written
    /// values.
    pub failed: u64,
    /// Human-readable descriptions of the first correctness violations.
    pub violations: Vec<String>,
    /// Modeled end-to-end metrics (virtual time; exact per seed).
    pub modeled: Vec<Metric>,
    /// Per-layer counters read from the program's public stats (exact
    /// per seed).
    pub layers: BTreeMap<&'static str, f64>,
    /// Digest of every generated input.
    pub inputs: u64,
    /// Extra report lines (percentile sample counts, parameters).
    pub notes: Vec<String>,
}

impl Episode {
    /// Records a modeled metric.
    pub fn modeled(&mut self, name: &str, unit: &'static str, value: f64) {
        self.modeled.push(Metric {
            name: name.to_string(),
            unit,
            value,
        });
    }

    /// Records a per-layer counter.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }

    /// Adds to a per-layer counter.
    pub fn layer_add(&mut self, name: &'static str, value: f64) {
        *self.layers.entry(name).or_insert(0.0) += value;
    }

    /// Counts one correctness violation.
    pub fn violation(&mut self, what: String) {
        self.failed += 1;
        if self.violations.len() < 8 {
            self.violations.push(what);
        }
    }

    /// Records the median and the highest qualifying tail percentile of
    /// a latency sample set (ns) as `<what>_p50_us` and `<what>_pNN_us`.
    pub fn latency(&mut self, what: &str, samples_ns: &mut [u64]) {
        samples_ns.sort_unstable();
        let n = samples_ns.len();
        match what {
            "put" => self.layer("bench.put_samples", n as f64),
            "get" => self.layer("bench.get_samples", n as f64),
            _ => {}
        }
        self.modeled(
            &format!("{what}_p50_us"),
            "us",
            percentile(samples_ns, 50.0) as f64 / 1e3,
        );
        let note = match tail_percentile(n) {
            Some((p, label)) => {
                let v = percentile(samples_ns, p);
                self.modeled(&format!("{what}_{label}_us"), "us", v as f64 / 1e3);
                format!(
                    "{what} latency: n={n}, p50={:.3} us, {label}={:.3} us ({} samples beyond)",
                    percentile(samples_ns, 50.0) as f64 / 1e3,
                    v as f64 / 1e3,
                    n - rank(n, p)
                )
            }
            None => format!("{what} latency: n={n}, too few samples for a tail percentile"),
        };
        self.notes.push(note);
    }

    fn modeled_value(&self, name: &str) -> Option<f64> {
        self.modeled
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Nearest-rank position (1-based) of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Exact nearest-rank percentile of sorted samples (0 when empty).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// The highest of p99/p95/p90 with at least ten samples beyond it, with
/// its label.
pub fn tail_percentile(n: usize) -> Option<(f64, &'static str)> {
    [(99.0, "p99"), (95.0, "p95"), (90.0, "p90")]
        .into_iter()
        .find(|&(p, _)| n > 0 && n - rank(n, p) >= 10)
}

/// A reading of the CPU clock of the calling thread.
///
/// The whole benchmark runs on one host thread, so this clock counts
/// the program's work and leaves out the time the thread waits for a
/// core on a shared host, which is the scheduler's cost.
#[derive(Debug, Clone, Copy)]
struct CpuInstant(Duration);

#[repr(C)]
struct Timespec {
    tv_sec: std::os::raw::c_long,
    tv_nsec: std::os::raw::c_long,
}

extern "C" {
    fn clock_gettime(clock: std::os::raw::c_int, ts: *mut Timespec) -> std::os::raw::c_int;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: std::os::raw::c_int = 3;

impl CpuInstant {
    /// The thread's CPU time so far.
    fn now() -> CpuInstant {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable timespec for the call.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
        CpuInstant(Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32))
    }

    /// CPU time the thread has spent since this reading.
    fn elapsed(self) -> Duration {
        CpuInstant::now().0.saturating_sub(self.0)
    }
}

/// Program CPU time between two reference chunks of a [`HostMeter`].
const REFERENCE_EVERY: Duration = Duration::from_millis(25);

/// CPU time one reference chunk is scaled to.
const REFERENCE_NOMINAL: Duration = Duration::from_millis(1);

/// State the [`reference_chunk`] works on, kept across chunks so every
/// chunk after the first finds it warm.
struct Reference {
    pages: Vec<u8>,
    map: BTreeMap<u64, u64>,
}

/// Pages of the reference's buffer (4 MiB, twice a core's L2 cache).
const REFERENCE_PAGES: usize = 1024;

thread_local! {
    static REFERENCE: std::cell::RefCell<Reference> = std::cell::RefCell::new(Reference {
        pages: (0..REFERENCE_PAGES * 4096).map(|i| i as u8).collect(),
        map: (0..1u64 << 15).map(|k| (k * 2, k)).collect(),
    });
}

/// A fixed piece of CPU work of the kind the simulator does: ordered-map
/// lookups, inserts and removes, 4 KiB page copies, byte checksums and
/// short-lived allocations.
fn reference_chunk() {
    REFERENCE.with(|r| {
        let r = &mut *r.borrow_mut();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut sum = 0u64;
        let mut scratch: Vec<Vec<u8>> = Vec::with_capacity(16);
        for i in 0..1_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            sum ^= r.map.get(&(x & 0xffff)).copied().unwrap_or(0);
            r.map.insert((x >> 16) & 0xffff | 1, i);
            r.map.remove(&((x >> 32) & 0xffff | 1));
            let src = (x >> 20) as usize % REFERENCE_PAGES * 4096;
            let dst = (x >> 40) as usize % REFERENCE_PAGES * 4096;
            r.pages.copy_within(src..src + 4096, dst);
            for &b in &r.pages[dst..dst + 64] {
                sum = (sum ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
            if scratch.len() == 16 {
                scratch.clear();
            }
            scratch.push(vec![x as u8; 64]);
        }
        std::hint::black_box((sum, &scratch));
    });
}

/// Host time of one phase of the program, measured on the thread's CPU
/// clock and scaled by the speed of the host at the time.
///
/// Even on the CPU clock, the same work takes up to twice as long from
/// one ten-second stretch to the next on a shared host (other tenants
/// compete for caches and memory). So the meter runs a [`reference_chunk`]
/// at the start, at the end and after every [`REFERENCE_EVERY`] of
/// program time, leaves the chunks out of the program's time, and
/// scales that time as if each chunk had taken [`REFERENCE_NOMINAL`].
/// A program that does more work per operation still takes
/// proportionally longer; a host that runs slower for everything does
/// not show.
pub struct HostMeter {
    started: CpuInstant,
    reference: Duration,
    chunks: u32,
    next_at: Duration,
}

/// What a [`HostMeter`] measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostTime {
    /// Program time scaled to the nominal reference speed.
    pub scaled: Duration,
    /// Program time as the CPU clock read it.
    pub raw: Duration,
    /// Mean CPU time of one reference chunk over the phase.
    pub chunk: Duration,
}

impl HostMeter {
    /// Starts timing a phase.
    pub fn start() -> HostMeter {
        let mut m = HostMeter {
            started: CpuInstant::now(),
            reference: Duration::ZERO,
            chunks: 0,
            next_at: REFERENCE_EVERY,
        };
        m.calibrate();
        m
    }

    fn program(&self) -> Duration {
        self.started.elapsed().saturating_sub(self.reference)
    }

    fn calibrate(&mut self) {
        let t = CpuInstant::now();
        reference_chunk();
        self.reference += t.elapsed();
        self.chunks += 1;
    }

    /// Called often from the phase's loop: runs a reference chunk when
    /// one is due.
    pub fn tick(&mut self) {
        if self.program() >= self.next_at {
            self.calibrate();
            self.next_at += REFERENCE_EVERY;
        }
    }

    /// Ends the phase.
    pub fn finish(mut self) -> HostTime {
        self.calibrate();
        let raw = self.program();
        let chunk = self.reference / self.chunks;
        let scale = REFERENCE_NOMINAL.as_secs_f64() / chunk.as_secs_f64().max(1e-9);
        HostTime {
            scaled: raw.mul_f64(scale),
            raw,
            chunk,
        }
    }
}

/// Host-time percentile of span durations, in `scale` units of ns.
fn span_percentile(mut ns: Vec<u64>, p: f64, scale: f64) -> f64 {
    ns.sort_unstable();
    percentile(&ns, p) as f64 / scale
}

/// Adds the difference `after - before` of two VM counter snapshots.
pub fn vm_layers(ep: &mut Episode, before: VmStats, after: VmStats) {
    let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
    ep.layer_add(
        "vm.minor_faults",
        d(after.minor_faults, before.minor_faults),
    );
    ep.layer_add("vm.cow_faults", d(after.cow_faults, before.cow_faults));
    ep.layer_add("vm.shootdowns", d(after.shootdowns, before.shootdowns));
    ep.layer_add("vm.pte_resets", d(after.pte_resets, before.pte_resets));
}

/// Adds the difference `after - before` of two store counter snapshots.
pub fn store_layers(ep: &mut Episode, before: StoreStats, after: StoreStats) {
    let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
    ep.layer_add("store.commits", d(after.commits, before.commits));
    ep.layer_add(
        "store.delta_commits",
        d(after.delta_commits, before.delta_commits),
    );
    ep.layer_add(
        "store.pages_written",
        d(after.pages_written, before.pages_written),
    );
    ep.layer_add(
        "store.nodes_written",
        d(after.nodes_written, before.nodes_written),
    );
    ep.layer_add("store.cache_hits", d(after.cache_hits, before.cache_hits));
    ep.layer_add(
        "store.cache_misses",
        d(after.cache_misses, before.cache_misses),
    );
    ep.layer_add(
        "store.cache_evictions",
        d(after.cache_evictions, before.cache_evictions),
    );
    ep.layer_add("store.hydrations", d(after.hydrations, before.hydrations));
}

/// Adds one device's IO counters (reset by the caller where a phase
/// starts).
pub fn disk_layers(ep: &mut Episode, s: &IoStats) {
    ep.layer_add("disk.writes", s.writes() as f64);
    ep.layer_add("disk.bytes_written", s.bytes_written() as f64);
    ep.layer_add("disk.reads", s.reads() as f64);
    ep.layer_add("disk.bytes_read", s.bytes_read() as f64);
    ep.layer_add("disk.merged_submissions", s.merged_submissions() as f64);
    ep.layer_add("disk.merged_parts", s.merged_parts() as f64);
}

/// Records the write-latency and queue-depth figures of the device that
/// carried the timed phase.
pub fn disk_queue_layers(ep: &mut Episode, s: &IoStats) {
    ep.layer(
        "disk.write_p50_us",
        s.write_latency().percentile(50.0).as_us_f64(),
    );
    ep.layer(
        "disk.write_p99_us",
        s.write_latency().percentile(99.0).as_us_f64(),
    );
    ep.layer("disk.avg_queue_depth", s.avg_queue_depth());
}

/// Adds modeled CPU time per cost category.
pub fn cost_layers(ep: &mut Episode, costs: &CostTracker) {
    for (cat, dur) in costs.iter() {
        let name = match cat {
            Category::PageFault => "sim.cost.PageFault_us",
            Category::Memsnap => "sim.cost.Memsnap_us",
            Category::MemsnapFlush => "sim.cost.MemsnapFlush_us",
            Category::IoWait => "sim.cost.IoWait_us",
            Category::Syscall => "sim.cost.Syscall_us",
            _ => "sim.cost.other_us",
        };
        ep.layer_add(name, dur.as_us_f64());
    }
}

/// Adds one link's loss and reordering counters.
pub fn net_layers(ep: &mut Episode, s: &LinkStats) {
    ep.layer_add("sim.net.dropped", s.dropped as f64);
    ep.layer_add("sim.net.reordered", s.reordered as f64);
}

/// Adds the replication engine's counters for one link.
pub fn repl_layers(
    ep: &mut Episode,
    m: &msnap_repl::LinkMetrics,
    down: &LinkStats,
    ack_lag: Option<&LatencyStats>,
) {
    ep.layer_add("repl.acks", m.acks as f64);
    ep.layer_add("repl.retransmit_frames", m.retransmit_frames as f64);
    ep.layer_add("repl.throttled_ticks", m.throttled_ticks as f64);
    ep.layer_add("repl.wire_bytes", down.bytes_sent as f64);
    ep.layer_add("repl.goodput_bytes", down.bytes_delivered as f64);
    ep.layer_add(
        "repl.first_sent",
        down.sent.saturating_sub(m.retransmit_frames) as f64,
    );
    ep.layer_add("snap.subpage_frames", m.subpage_frames as f64);
    ep.layer_add("snap.full_syncs", m.full_syncs as f64);
    ep.layer_add("snap.delta_syncs", m.delta_syncs as f64);
    ep.layer_add(
        "snap.saved_compress_bytes",
        m.wire_bytes_saved_compress as f64,
    );
    ep.layer_add("snap.saved_dedup_bytes", m.wire_bytes_saved_dedup as f64);
    if let Some(lag) = ack_lag {
        ep.layer("repl.ack_lag_p50_us", lag.percentile(50.0).as_us_f64());
        ep.layer("repl.ack_lag_p99_us", lag.percentile(99.0).as_us_f64());
    }
}

/// Derives the ratio counters once every raw counter is in.
fn derive_ratios(ep: &mut Episode) {
    let get = |ep: &Episode, k: &str| ep.layers.get(k).copied().unwrap_or(0.0);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let hits = get(ep, "store.cache_hits");
    let misses = get(ep, "store.cache_misses");
    ep.layer("store.cache_hit_ratio", ratio(hits, hits + misses));
    let participants = ratio(
        get(ep, "disk.merged_parts"),
        get(ep, "disk.merged_submissions"),
    );
    ep.layer("core.batch_participants", participants);
    let resent = ratio(
        get(ep, "repl.retransmit_frames"),
        get(ep, "repl.first_sent"),
    );
    ep.layer("repl.retransmit_ratio", resent);
    let failed_frac = ratio(ep.failed as f64, ep.attempted as f64);
    ep.layer("bench.failed_frac", failed_frac);
    ep.modeled("failed_frac", "ratio", failed_frac);
    ep.layers.remove("repl.first_sent");
}

/// Maps a restored region into a fresh address space. The first
/// `MemSnap::msnap_open` after a restore pages the whole durable image
/// back in.
pub fn page_in(
    ms: &mut MemSnap,
    vt: &mut msnap_sim::Vt,
    name: &str,
) -> Result<(AsId, memsnap::RegionHandle), memsnap::MsnapError> {
    let space = ms.vm_mut().create_space();
    Ok((space, ms.msnap_open(vt, space, name, 0)?))
}

/// Runs one episode of `workload`.
pub fn run_episode(workload: Workload, params: &Params, tracer: &mut Tracer) -> Episode {
    let mut ep = match workload {
        Workload::ServeZipf => serve_zipf::episode(params, tracer),
        Workload::CommitScatter => commit_scatter::episode(params, tracer),
        Workload::ReplicateWan => replicate_wan::episode(params, tracer),
    };
    derive_ratios(&mut ep);
    ep
}

/// The result of a whole run: what the command prints.
pub struct RunResult {
    /// No correctness violation in any episode.
    pub correct: bool,
    /// Operations attempted (one episode).
    pub attempted: u64,
    /// Operations failed (one episode).
    pub failed: u64,
    /// The metrics printed.
    pub metrics: Vec<Metric>,
    /// Report lines printed before the result.
    pub notes: Vec<String>,
    /// Spans of the last traced episode.
    pub spans: Option<Tracer>,
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Modeled metrics and counters as comparable bit patterns: two
/// episodes of one seed must give equal fingerprints.
pub fn fingerprint(ep: &Episode) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = ep
        .modeled
        .iter()
        .map(|m| (m.name.clone(), m.value.to_bits()))
        .collect();
    out.extend(ep.layers.iter().map(|(k, v)| (k.to_string(), v.to_bits())));
    out.push(("inputs".into(), ep.inputs));
    out.push(("attempted".into(), ep.attempted));
    out.push(("failed".into(), ep.failed));
    out
}

/// Peak resident set size of this process, in MiB (0 where the kernel
/// does not report it).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs episodes of `workload` until `seconds` of host time are spent
/// (at least three untraced episodes; with `trace`, at least two of
/// each kind), and assembles the printed metrics. The first episode
/// warms the process up (allocator, caches): its modeled figures are
/// the reference every later episode must reproduce, but its host
/// figures are left out of the medians.
pub fn run(workload: Workload, params: &Params, seconds: f64, trace: bool) -> RunResult {
    let min_episodes = if trace { 4 } else { 3 };
    let started = Instant::now();
    let mut untraced: Vec<Episode> = Vec::new();
    let mut traced: Vec<(Episode, Tracer)> = Vec::new();
    loop {
        let n = untraced.len() + traced.len();
        if n >= min_episodes && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let with_spans = trace && n % 2 == 1;
        let mut tracer = Tracer::new(with_spans);
        let ep = run_episode(workload, params, &mut tracer);
        if with_spans {
            traced.push((ep, tracer));
        } else {
            untraced.push(ep);
        }
    }

    let first = &untraced[0];
    let mut violations: Vec<String> = first.violations.clone();
    let mut failed = first.failed;
    let reference = fingerprint(first);
    let all = untraced.iter().chain(traced.iter().map(|(e, _)| e));
    for (i, ep) in all.enumerate().skip(1) {
        if fingerprint(ep) != reference {
            failed += 1;
            violations.push(format!(
                "episode {i} of seed {} reproduced different modeled figures",
                params.seed
            ));
        }
    }

    let ep_kops = |e: &Episode, t: Duration| e.ops as f64 / t.as_secs_f64().max(1e-9) / 1e3;
    let kops = |eps: &mut dyn Iterator<Item = &Episode>| {
        median(eps.map(|e| ep_kops(e, e.timed.scaled)).collect())
    };
    let measured = &untraced[1..];
    let host_kops = kops(&mut measured.iter());
    let mut notes: Vec<String> = first.notes.clone();
    notes.push(format!(
        "episodes: {} untraced, {} traced; attempted {} failed {} per episode",
        untraced.len(),
        traced.len(),
        first.attempted,
        first.failed
    ));
    for m in &first.modeled {
        notes.push(format!("modeled {} = {} {}", m.name, m.value, m.unit));
    }
    let per_episode: Vec<String> = untraced
        .iter()
        .map(|e| {
            format!(
                "{:.3}/{:.3}/{:.3}/{:.4}",
                ep_kops(e, e.timed.scaled),
                ep_kops(e, e.timed.raw),
                e.timed.chunk.as_secs_f64() * 1e3,
                e.setup.scaled.as_secs_f64()
            )
        })
        .collect();
    notes.push(format!(
        "untraced episodes, first one warm-up (host kops/s / unscaled kops/s / reference chunk ms / setup s): {}",
        per_episode.join(" ")
    ));

    // The offered-rate ladder is modeled work outside the timed episodes.
    let slo = (workload == Workload::ServeZipf).then(|| serve_zipf::slo_ladder(params));
    if let Some(slo) = &slo {
        notes.extend(slo.notes.iter().cloned());
        notes.push(format!("modeled slo_kops = {} kops/vs", slo.slo_kops));
    }

    let mut metrics = Vec::new();
    if trace {
        let traced_kops = kops(&mut traced.iter().map(|(e, _)| e));
        let (_, tracer) = traced.last().expect("trace runs record traced episodes");
        let mut layers = first.layers.clone();
        let host = |layer: &str, name: &str, p: f64, scale: f64| {
            span_percentile(tracer.durations(layer, name), p, scale)
        };
        layers.insert("vm.write_host_ns", host("vm", "write", 50.0, 1.0));
        let persist = tracer.durations_by_op("core", "persist");
        layers.insert(
            "core.persist_host_us_p50",
            span_percentile(persist.clone(), 50.0, 1e3),
        );
        layers.insert(
            "core.persist_host_us_p99",
            span_percentile(persist, 99.0, 1e3),
        );
        layers.insert("core.restore_host_ms", host("core", "restore", 50.0, 1e6));
        layers.insert("repl.tick_host_us", host("repl", "tick", 50.0, 1e3));
        layers.insert("serve.step_host_us_p50", host("serve", "step", 50.0, 1e3));
        layers.insert("serve.step_host_us_p99", host("serve", "step", 99.0, 1e3));
        layers.insert(
            "serve.wire_codec_host_ns",
            host("serve", "codec", 50.0, 1.0),
        );
        for (layer, ns) in tracer.self_ns() {
            let key = match layer {
                "vm" => "vm.self_host_ms",
                "core" => "core.self_host_ms",
                "repl" => "repl.self_host_ms",
                "serve" => "serve.self_host_ms",
                _ => "bench.self_host_ms",
            };
            *layers.entry(key).or_insert(0.0) += ns as f64 / 1e6;
        }
        if let Some(slo) = &slo {
            layers.insert("serve.slo_kops", slo.slo_kops);
        }
        if let Some(v) = first.modeled_value("get_p50_us") {
            layers.insert("serve.get_p50_us", v);
        }
        if let Some(v) = first.modeled_value("get_p99_us") {
            layers.insert("serve.get_p99_us", v);
        }
        if let Some(v) = first.modeled_value("wire_bytes_per_user_byte") {
            layers.insert("repl.wire_bytes_per_user_byte", v);
        }
        layers.insert("trace.host_kops_per_s_untraced", host_kops);
        layers.insert("trace.host_kops_per_s_traced", traced_kops);
        layers.insert(
            "trace.overhead_pct",
            if host_kops > 0.0 {
                (host_kops - traced_kops) / host_kops * 100.0
            } else {
                0.0
            },
        );
        layers.insert("trace.spans", tracer.spans().len() as f64);
        for (name, unit) in PER_LAYER {
            metrics.push(Metric {
                name: name.to_string(),
                unit,
                value: layers.get(name).copied().unwrap_or(0.0),
            });
        }
    } else {
        for (name, unit) in END_TO_END {
            let value = match name {
                "host_kops_per_s" => host_kops,
                "setup_s" => median(
                    measured
                        .iter()
                        .map(|e| e.setup.scaled.as_secs_f64())
                        .collect(),
                ),
                "peak_rss_mb" => peak_rss_mb(),
                _ => match first.modeled_value(name) {
                    Some(v) => v,
                    // A metric the episode could not measure (too few
                    // samples for a p99) is a failure, never a 0.
                    None => {
                        failed += 1;
                        violations.push(format!("{name} was not measured"));
                        continue;
                    }
                },
            };
            metrics.push(Metric {
                name: name.to_string(),
                unit,
                value,
            });
        }
    }
    notes.extend(violations.iter().map(|v| format!("VIOLATION: {v}")));
    RunResult {
        correct: failed == 0,
        attempted: first.attempted,
        failed,
        metrics,
        notes,
        spans: traced.pop().map(|(_, t)| t),
    }
}

/// The result line: one JSON object.
pub fn result_json(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted.max(1),
        r.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000).map(|t| t.1), Some("p99"));
        assert_eq!(tail_percentile(999).map(|t| t.1), Some("p95"));
        assert_eq!(tail_percentile(100).map(|t| t.1), Some("p90"));
        assert_eq!(tail_percentile(99), None);
    }

    #[test]
    fn host_meter_measures_program_work_in_reference_chunks() {
        reference_chunk();
        let meter = HostMeter::start();
        for _ in 0..20 {
            reference_chunk();
        }
        let h = meter.finish();
        // Twenty chunks of work read as about twenty nominal chunks,
        // however fast the host runs them.
        let chunks = h.scaled.as_secs_f64() / REFERENCE_NOMINAL.as_secs_f64();
        assert!((10.0..40.0).contains(&chunks), "{chunks} chunks");
        assert!(h.raw > Duration::ZERO && h.chunk > Duration::ZERO);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&[], 50.0), 0);
    }
}
