//! # clove-telemetry — deterministic observability for the Clove workspace
//!
//! Dependency-free building blocks shared by every layer of the stack:
//!
//! * [`Histogram`] — HDR-style log-linear streaming histogram with bounded
//!   memory, exact merge semantics, and an exact log2 aggregation view
//!   (the event queue's push-to-pop delay profile);
//! * [`Trace`] / [`TraceEvent`] — sim-time-stamped structured decision
//!   tracing into a capped buffer, rendered as JSONL with a stable,
//!   versioned schema.
//!
//! ## Determinism rules
//!
//! Everything in this crate is a pure function of the values fed to it: no
//! wall clocks, no OS entropy, no hash-map iteration. Recording telemetry
//! must never influence simulation state — enabling a trace has to leave
//! every simulation output byte-identical (the harness enforces this with
//! an identity test). Sim-time event timestamps are always deterministic;
//! wall clocks are banned here as everywhere in the workspace (`clippy.toml`
//! bans `Instant` and `SystemTime`, and no site may except itself).

#![deny(clippy::unwrap_used, clippy::print_stdout, clippy::print_stderr, clippy::exit)]

mod hist;
mod trace;

pub use hist::{bucket_high, bucket_index, Histogram, NUM_BUCKETS, SUBS, SUB_BITS};
pub use trace::{render_jsonl, LadderRung, Trace, TraceBuf, TraceEvent, DEFAULT_TRACE_CAPACITY, TRACE_SCHEMA_VERSION};
