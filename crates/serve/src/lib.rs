//! `pathway-serve`: a multi-tenant study daemon with durable jobs and
//! streamed telemetry.
//!
//! The daemon (`pathway serve <data-dir>`) accepts run-spec and sweep-spec
//! documents over a line-delimited JSON TCP protocol and schedules them as
//! concurrent jobs on one shared [`pathway_moo::Executor`]. Three design
//! commitments shape everything here:
//!
//! 1. **Cooperative jobs, not job threads.** Every study is a parked
//!    [`pathway_moo::engine::Driver`] advanced one generation per
//!    scheduling turn on a single scheduler thread ([`Scheduler`]). No
//!    thread is ever tied up for a job's lifetime, so any number of
//!    concurrent jobs make progress on any number of pool workers, and
//!    long studies cannot starve short ones — fairness is round-robin by
//!    construction.
//! 2. **Durability through the engine's own checkpoints.** Each job owns a
//!    [`pathway_moo::engine::CheckpointStore`] under the data dir; a
//!    killed daemon restarts with every in-flight study resumed
//!    bit-identically from its last checkpoint boundary.
//! 3. **A self-describing, hardened wire format.** One compact JSON
//!    document per line ([`wire`]), parsed by `pathway_core::jsonlite`
//!    with its nesting-depth cap and strict escape handling — socket bytes
//!    are untrusted input.
//!
//! [`Server`] is the TCP front end, [`Client`] the blocking client the
//! CLI subcommands wrap.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod scheduler;
pub mod server;
pub mod wire;

pub use client::{read_endpoint, Client, ClientError};
pub use scheduler::{Command, Scheduler, STEP_SLEEP_ENV};
pub use server::{ServeConfig, Server, ENDPOINT_FILE};
pub use wire::{
    EndEvent, GenerationEvent, JobState, JobSummary, Pong, Request, StatusSnapshot, WatchEvent,
    PROTOCOL_VERSION, SERVER_NAME,
};
