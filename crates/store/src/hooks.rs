//! Observability hooks: a span sink the layer above installs.
//!
//! `fm-store` sits below `fm-core` in the workspace layering (the
//! `layering` rule of `cargo xtask lint` rejects the manifest edge), so it
//! cannot call `fm_core::tracing` directly. Instead the storage layer emits named begin/end callbacks
//! through a process-wide [`SpanSink`]; `fm-core::tracing` installs a
//! sink that forwards them into its per-thread span collector. With no
//! sink installed every hook is a single `OnceLock` load — the storage
//! layer stays dependency-free and essentially unobserved.

use std::sync::OnceLock;

/// Receiver for storage-layer span events. `begin` returns an opaque
/// token handed back to `end`; implementations must be cheap and must
/// not call back into `fm-store`.
pub trait SpanSink: Sync {
    fn begin(&self, name: &'static str) -> u64;
    fn end(&self, token: u64);
}

static SINK: OnceLock<&'static (dyn SpanSink + Send + Sync)> = OnceLock::new();

/// Install the process-wide sink. First install wins; later calls are
/// ignored (idempotent by design — the tracing layer calls this from
/// every entry point).
pub fn install_span_sink(sink: &'static (dyn SpanSink + Send + Sync)) {
    let _ = SINK.set(sink);
}

/// RAII span over a storage-layer phase; inert when no sink is
/// installed.
pub(crate) struct HookSpan {
    token: Option<u64>,
}

impl HookSpan {
    pub(crate) fn enter(name: &'static str) -> HookSpan {
        HookSpan {
            token: SINK.get().map(|s| s.begin(name)),
        }
    }
}

impl Drop for HookSpan {
    fn drop(&mut self) {
        if let Some(token) = self.token {
            if let Some(sink) = SINK.get() {
                sink.end(token);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hook_span_without_sink_is_inert() {
        // Must not panic or require installation.
        let span = HookSpan::enter("extsort_spill");
        drop(span);
    }
}
