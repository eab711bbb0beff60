//! Spans recorded from outside the program, around each call the
//! benchmark makes into a layer.
//!
//! A span holds its layer and call name, host start/end, virtual
//! start/end, its parent span and the operation id it serves. Spans
//! stay in memory and are written out when the run ends. Recording a
//! span reads the host clock only; it never touches a virtual clock, so
//! a traced run's modeled figures equal the untraced run's.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use msnap_sim::Nanos;

/// The layers spans are attributed to. `bench` is the benchmark's own
/// load generator and client code.
pub const LAYERS: [&str; 5] = ["bench", "vm", "core", "repl", "serve"];

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer the call enters.
    pub layer: &'static str,
    /// Public function called.
    pub name: &'static str,
    /// Host nanoseconds since the tracer was created.
    pub host_start: u64,
    /// Host nanoseconds since the tracer was created.
    pub host_end: u64,
    /// Virtual instant at entry (of the clock the call charges).
    pub vt_start: Nanos,
    /// Virtual instant at exit.
    pub vt_end: Nanos,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Operation the call serves (0 when none).
    pub op: u64,
}

impl Span {
    fn host_ns(&self) -> u64 {
        self.host_end - self.host_start
    }
}

/// An open span, returned by [`Tracer::begin`] and closed by
/// [`Tracer::end`].
#[must_use]
pub struct Open(Option<u32>);

/// Records spans when enabled; every call is a no-op otherwise.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Opens a span; nested `begin`s become its children until
    /// [`Tracer::end`].
    pub fn begin(&mut self, layer: &'static str, name: &'static str, op: u64, vt: Nanos) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            layer,
            name,
            host_start: self.origin.elapsed().as_nanos() as u64,
            host_end: 0,
            vt_start: vt,
            vt_end: vt,
            parent: self.stack.last().copied(),
            op,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, open: Open, vt: Nanos) {
        let Some(idx) = open.0 else {
            return;
        };
        let host = self.origin.elapsed().as_nanos() as u64;
        let span = &mut self.spans[idx as usize];
        span.host_end = host;
        span.vt_end = vt;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(idx), "spans close in LIFO order");
    }

    /// Recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Host durations (ns) of every span named `layer`/`name`.
    pub fn durations(&self, layer: &str, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
            .map(Span::host_ns)
            .collect()
    }

    /// Host time (ns) of every span named `layer`/`name`, summed per
    /// operation id: one figure per operation however many calls it
    /// took.
    pub fn durations_by_op(&self, layer: &str, name: &str) -> Vec<u64> {
        let mut per_op: BTreeMap<u64, u64> = BTreeMap::new();
        for s in self
            .spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
        {
            *per_op.entry(s.op).or_insert(0) += s.host_ns();
        }
        per_op.into_values().collect()
    }

    /// Host self time per layer (ns): each span's duration minus the
    /// part its child spans cover.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.host_ns();
            }
        }
        let mut out: BTreeMap<&'static str, u64> = LAYERS.iter().map(|l| (*l, 0)).collect();
        for (s, child) in self.spans.iter().zip(child_ns) {
            *out.entry(s.layer).or_insert(0) += s.host_ns().saturating_sub(child);
        }
        out
    }

    /// Writes every span as one tab-separated line.
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(
            out,
            "idx\tparent\top\tlayer\tname\thost_start_ns\thost_end_ns\tvt_start_ns\tvt_end_ns"
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, i64::from);
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.op,
                s.layer,
                s.name,
                s.host_start,
                s.host_end,
                s.vt_start.as_ns(),
                s.vt_end.as_ns()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin("bench", "op", 1, Nanos::ZERO);
        let inner = t.begin("core", "persist", 1, Nanos::ZERO);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner, Nanos::from_us(5));
        t.end(outer, Nanos::from_us(5));
        let selfs = t.self_ns();
        assert!(selfs["core"] >= 2_000_000);
        assert!(selfs["bench"] < selfs["core"]);
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("vm", "write", 0, Nanos::ZERO);
        t.end(s, Nanos::ZERO);
        assert!(t.spans().is_empty());
    }
}
