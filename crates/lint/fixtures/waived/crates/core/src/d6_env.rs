//! Fixture: a waived `d6-ambient-env` read must NOT fire (but counts as
//! waived in the summary).

/// Reads the environment under an explicit waiver.
pub fn trace_enabled() -> bool {
    // peas-lint: allow(d6-ambient-env) -- fixture: pretend the value never reaches the event loop
    std::env::var_os("TRACE").is_some()
}
