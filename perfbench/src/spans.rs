//! In-memory span log for the traced run, written out at the end as a
//! Chrome-trace JSON file (`chrome://tracing`, Perfetto).
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer; nothing inside the simulator is instrumented. Every span has a
//! name, start and end, the id of the span that contains it, and the
//! request id when the traced call carries one. The log keeps every root
//! span but only the first `cap` child spans (see [`SpanLog::new`]), so a
//! long run cannot exhaust memory; the totals the benchmark reports are
//! accumulated apart and cover every call.
//!
//! Timestamps are clock *ticks*: the time-stamp counter on x86-64 (a
//! clock read costs about a third of `Instant::now` there, and the traced
//! loop reads the clock three times per event), nanoseconds elsewhere.
//! [`SpanLog::ns_per_tick`] converts, calibrated against `Instant` over
//! the whole life of the log.

use std::borrow::Cow;
use std::time::Instant;

/// Id of a recorded span (index into the log's span list).
pub type SpanId = u32;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What ran: a layer call (`"sim.step"`, `"admit"`) or, for a
    /// `dispatch`, the event kind (`"Resume"`).
    pub name: Cow<'static, str>,
    /// Start, in ticks since the log's epoch.
    pub start: u64,
    /// End, in ticks since the log's epoch.
    pub end: u64,
    /// The enclosing span, `None` for a root.
    pub parent: Option<SpanId>,
    /// The simulated request the call acted on, where it names one.
    pub req: Option<u64>,
}

#[cfg(target_arch = "x86_64")]
#[inline]
fn raw_ticks(_epoch: Instant) -> u64 {
    // SAFETY: RDTSC only reads the time-stamp counter; every x86-64
    // processor implements it and it has no memory effects.
    unsafe { core::arch::x86_64::_rdtsc() }
}

#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn raw_ticks(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Spans of one traced run.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    epoch_ticks: u64,
    spans: Vec<Span>,
    cap: usize,
    children: usize,
    dropped: u64,
}

impl SpanLog {
    /// An empty log keeping at most `cap` child spans (roots are always
    /// kept).
    pub fn new(cap: usize) -> Self {
        let epoch = Instant::now();
        SpanLog {
            epoch,
            epoch_ticks: raw_ticks(epoch),
            spans: Vec::new(),
            cap,
            children: 0,
            dropped: 0,
        }
    }

    /// Clock ticks since the log's epoch.
    #[inline]
    pub fn now(&self) -> u64 {
        raw_ticks(self.epoch).wrapping_sub(self.epoch_ticks)
    }

    /// Nanoseconds per tick, measured against `Instant` from the log's
    /// epoch to now.
    pub fn ns_per_tick(&self) -> f64 {
        let ticks = self.now();
        let ns = self.epoch.elapsed().as_nanos() as f64;
        if ticks == 0 {
            1.0
        } else {
            ns / ticks as f64
        }
    }

    /// Opens a root span at the current instant; close it with
    /// [`SpanLog::close`].
    pub fn open_root(&mut self, name: String) -> SpanId {
        let now = self.now();
        self.spans.push(Span {
            name: Cow::Owned(name),
            start: now,
            end: now,
            parent: None,
            req: None,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Closes a span opened with [`SpanLog::open_root`] and returns its
    /// length in ticks.
    pub fn close(&mut self, id: SpanId) -> u64 {
        let now = self.now();
        let span = &mut self.spans[id as usize];
        span.end = now;
        span.end - span.start
    }

    /// Records a finished child span, unless the cap is reached.
    #[inline]
    pub fn child(
        &mut self,
        parent: SpanId,
        name: &'static str,
        start: u64,
        end: u64,
        req: Option<u64>,
    ) {
        if self.children >= self.cap {
            self.dropped += 1;
            return;
        }
        self.children += 1;
        self.spans.push(Span {
            name: Cow::Borrowed(name),
            start,
            end,
            parent: Some(parent),
            req,
        });
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Child spans not kept because the cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The log as a Chrome-trace JSON document: one complete (`"X"`)
    /// event per span, timestamps in microseconds with nanosecond
    /// digits, and the span id, parent id and request id in `args`.
    pub fn to_chrome_json(&self) -> String {
        self.chrome_json(self.ns_per_tick())
    }

    fn chrome_json(&self, ns_per_tick: f64) -> String {
        let us = |ticks: u64| ticks as f64 * ns_per_tick / 1_000.0;
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let req = s.req.map_or("null".to_string(), |r| r.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"req\":{req}}}}}",
                escape(&s.name),
                us(s.start),
                us(s.end - s.start),
            ));
        }
        out.push_str(&format!(
            "],\"displayTimeUnit\":\"ns\",\"otherData\":{{\"dropped_spans\":{}}}}}",
            self.dropped
        ));
        out
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_json_is_valid_and_keeps_parents() {
        let mut log = SpanLog::new(2);
        let root = log.open_root("drive \"A\"/spec".to_string());
        log.child(root, "sim.step", 10, 1_510, None);
        log.child(root, "Complete", 1_510, 2_000, Some(7));
        log.child(root, "Resume", 2_000, 2_100, None);
        log.close(root);
        assert_eq!(log.spans().len(), 3, "root plus capped children");
        assert_eq!(log.dropped(), 1);
        assert_eq!(log.spans()[2].parent, Some(root));
        assert_eq!(log.spans()[2].req, Some(7));
        specfaas_sim::trace::validate_json(&log.to_chrome_json()).expect("valid JSON");
        let json = log.chrome_json(1.0);
        assert!(json.contains("\"ts\":0.010,\"dur\":1.500"), "{json}");
        assert!(json.contains("\"args\":{\"id\":2,\"parent\":0,\"req\":7}"));
        assert!(json.contains("\"dropped_spans\":1"));
    }

    #[test]
    fn ticks_convert_to_wall_time() {
        let log = SpanLog::new(0);
        let t0 = log.now();
        let wall = Instant::now();
        while wall.elapsed().as_millis() < 20 {
            std::hint::spin_loop();
        }
        let ticks = log.now() - t0;
        let ns = ticks as f64 * log.ns_per_tick();
        let want = wall.elapsed().as_nanos() as f64;
        assert!(
            (ns - want).abs() / want < 0.05,
            "{ns} ns from ticks vs {want} ns"
        );
    }
}
