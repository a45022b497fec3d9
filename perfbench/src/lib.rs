//! `perfbench`: the repository benchmark.
//!
//! One closed-loop client drives one [`aql_lang::session::Session`]
//! through a seeded statement stream (see [`workload`]), checks every
//! answer against a reference computed here from the generated inputs,
//! and reports end-to-end latency. A separate traced pass ([`replay`])
//! replays the same stream by calling each layer's public entry point
//! itself and timing every call from this crate ([`spans`]).

pub mod calib;
pub mod inputs;
pub mod replay;
pub mod spans;
pub mod stats;
pub mod workload;
