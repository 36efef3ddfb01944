//! `fepia-net` — a length-prefixed binary TCP wire protocol over the
//! `fepia-serve` evaluation service.
//!
//! PR 4 made robustness evaluation a long-running sharded service; this
//! crate gives it a network boundary, std-only like the rest of the
//! workspace (`std::net`, no async runtime, no serde):
//!
//! * [`frame`] — the byte layer: `FEPN`-tagged versioned header,
//!   length-prefixed checksummed payload, total decoding into typed
//!   [`frame::DecodeError`]s (fuzzed: malformed bytes never panic).
//! * [`wire`] — the payload layer: one [`wire::Wire`] trait, implemented
//!   once per payload type, composes every frame's payload — requests
//!   (scenario by value + evaluation kind), bit-exact responses (`f64`s
//!   as IEEE bit patterns), typed error payloads
//!   ([`wire::WireError::Overloaded`] / [`wire::WireError::Invalid`]),
//!   stats polls and optimizer-job frames.
//! * [`poll`] — a std-only readiness shim over `poll(2)` plus a
//!   self-pipe waker; the one primitive the event loop needs and the
//!   standard library does not expose.
//! * [`server`] — [`server::NetServer`]: a single-threaded nonblocking
//!   event loop multiplexing every connection, with per-connection
//!   request pipelining (bounded by `max_in_flight`, responses matched
//!   by id out of order), a completion queue + waker hand-off from the
//!   shard workers, coalesced batched writes (one flush per writable
//!   burst), queue-full mapped to typed `Overloaded` frames, and
//!   graceful drain on shutdown (accepted work is always answered).
//! * [`client`] — [`client::NetClient`]: blocking, with reconnect on
//!   transport failure, deterministic exponential backoff on
//!   `Overloaded`, and a pipelined batch mode
//!   ([`client::NetClient::call_pipelined`]) that keeps many requests in
//!   flight on one connection.
//!
//! The wire also carries **optimizer jobs** (`SubmitJob` / `JobStatus` /
//! `JobResult` / `CancelJob` frames): the server fronts a bounded
//! [`fepia_serve::JobTable`] whose seeded heuristic populations accumulate
//! a deterministic makespan × robustness Pareto front, pollable
//! best-so-far mid-flight and cancellable at batch boundaries
//! ([`client::NetClient::submit_job`] and friends).
//!
//! **Equivalence guarantee.** A response served over TCP is *bitwise*
//! identical to the in-process [`fepia_serve::Service`] answer — every
//! radius, metric bound, and diagnostic field, NaNs and signed zeros
//! included — because the wire format transports `f64`s as bit patterns
//! and the server is a pure transport in front of the same service. The
//! workspace tests assert this frame-for-frame, chaos-off and under
//! `FEPIA_CHAOS`.
//!
//! Observability: `net.*` counters and the `net.request.us` histogram via
//! `fepia-obs`. Fault injection: `net.read` (dropped connections) and
//! `net.write` (torn frames) chaos sites via `fepia-chaos`.

pub mod client;
pub mod frame;
pub mod poll;
pub mod server;
pub mod wire;

pub use client::{ClientConfig, NetClient, NetError};
pub use frame::{
    DecodeError, Frame, FrameDecoder, FrameReadError, FrameType, FrameWriter, QueuedFrame,
    HEADER_LEN, MAGIC, MAX_PAYLOAD, VERSION,
};
pub use server::{NetServer, NetStatsSnapshot, ServerConfig};
pub use wire::{
    decode, decode_request, decode_response, encode, encode_request, encode_response, JobReply,
    RequestPayload, StatsReply, SubmitJobPayload, Wire, WireError,
};
