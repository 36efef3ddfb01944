//! Scoped timers with per-thread aggregation.
//!
//! A [`SpanGuard`] (usually created via the [`crate::span!`] macro) times a
//! lexical scope. To keep hot loops off the registry mutex, elapsed times are
//! accumulated in a thread-local table keyed by span name and only rolled up
//! into the global registry when the local batch grows large, when the thread
//! exits, or when [`flush_thread_spans`] is called (a registry snapshot
//! flushes the calling thread automatically).
//!
//! When the obs layer is disabled ([`crate::enabled`] is false) span creation
//! is a branch and nothing else — no clock read, no thread-local access.

use crate::registry::LocalHistogram;
use std::cell::RefCell;
use std::collections::HashMap;
use std::time::Instant;

/// Local batches are rolled up into the registry after this many records,
/// bounding both thread-local memory and snapshot staleness.
const FLUSH_EVERY: u64 = 1024;

struct ThreadSpans {
    table: HashMap<&'static str, LocalHistogram>,
    pending: u64,
}

impl ThreadSpans {
    fn record(&mut self, name: &'static str, ns: f64) {
        self.table
            .entry(name)
            .or_insert_with(LocalHistogram::timing_ns)
            .record(ns);
        self.pending += 1;
        if self.pending >= FLUSH_EVERY {
            self.flush();
        }
    }

    fn flush(&mut self) {
        for (name, local) in self.table.iter_mut() {
            if local.count > 0 {
                let hist = crate::global().histogram(&format!("span.{name}.ns"));
                hist.merge_local(local);
                *local = LocalHistogram::timing_ns();
            }
        }
        self.pending = 0;
    }
}

impl Drop for ThreadSpans {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static SPANS: RefCell<ThreadSpans> = RefCell::new(ThreadSpans {
        table: HashMap::new(),
        pending: 0,
    });
}

/// Rolls the calling thread's pending span timings up into the global
/// registry. Called automatically by [`crate::MetricsRegistry::snapshot`]
/// for the snapshotting thread; worker threads flush on exit.
pub fn flush_thread_spans() {
    // Guard against re-entrancy during thread teardown.
    let _ = SPANS.try_with(|s| {
        if let Ok(mut s) = s.try_borrow_mut() {
            s.flush();
        }
    });
}

/// Times a scope; records elapsed nanoseconds on drop under
/// `span.<name>.ns` in the global registry (via the thread-local batch).
///
/// Construct with [`SpanGuard::enter`] or the [`crate::span!`] macro. When
/// the obs layer is disabled the guard is inert.
#[must_use = "a span guard times its scope; dropping it immediately records nothing useful"]
pub struct SpanGuard {
    start: Option<(&'static str, Instant)>,
}

impl SpanGuard {
    /// Starts timing `name` if observability is enabled.
    pub fn enter(name: &'static str) -> Self {
        SpanGuard {
            start: crate::enabled().then(|| (name, Instant::now())),
        }
    }

    /// An inert guard (used by tests and the disabled path).
    pub fn disabled() -> Self {
        SpanGuard { start: None }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((name, start)) = self.start.take() {
            let ns = start.elapsed().as_nanos() as f64;
            let _ = SPANS.try_with(|s| {
                if let Ok(mut s) = s.try_borrow_mut() {
                    s.record(name, ns);
                }
            });
        }
    }
}

/// Times the enclosing scope: `let _span = fepia_obs::span!("solver.refine");`.
///
/// The name must be a `'static` string literal; timings aggregate under
/// `span.<name>.ns`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_guard_records_nothing() {
        let g = SpanGuard::disabled();
        drop(g);
        // No panic, no registry interaction — nothing to assert beyond that.
    }

    #[test]
    fn span_records_into_global_when_enabled() {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        {
            let _g = SpanGuard::enter("obs.test.span");
            std::hint::black_box(1 + 1);
        }
        flush_thread_spans();
        let snap = crate::global().snapshot();
        let entry = snap
            .entries
            .iter()
            .find(|e| e.name == "span.obs.test.span.ns")
            .expect("span histogram registered");
        match &entry.value {
            crate::SnapshotValue::Histogram { count, .. } => assert!(*count >= 1),
            other => panic!("expected histogram, got {other:?}"),
        }
        crate::set_enabled(false);
    }
}
