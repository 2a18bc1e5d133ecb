//! Binary wire ingest for the LAD serve runtime: the network boundary in
//! front of `lad_serve`.
//!
//! Three layers, one per module:
//!
//! * [`frame`] — the versioned, checksummed binary frame format for
//!   [`ObservationBatch`](lad_net::ObservationBatch)es and its streaming
//!   codec. Frames carry the batch's CSR arrays, pairs narrowed to
//!   `u16`s; the decoder reads ahead into its own buffer, lands the rows
//!   in its batch and validates them there in one pass, with zero
//!   per-report allocation. Everything malformed maps to a typed
//!   [`WireError`].
//!   Estimates are carried verbatim: non-finite or out-of-area claims
//!   decode like any other and score as maximally anomalous (see
//!   `ServeRuntime::submit_rows`).
//! * [`shed`] — the explicit overload policy: per-source token-bucket
//!   rate limits, then shed-with-NACK past a queue-depth threshold,
//!   otherwise accept. Queues never collapse; overload becomes receipts
//!   and counters.
//! * [`server`] / [`client`] — a std-only framed stream server (TCP and
//!   Unix-domain accept loops, one reader thread per connection, graceful
//!   drain) and the matching client used by tests, benches and
//!   `examples/wire_serve.rs`. The server answers `StatsRequest` frames
//!   with a JSON [`ServeStats`](lad_serve::ServeStats) telemetry snapshot
//!   ([`WireClient::query_stats`]) and `HealthRequest` frames with either
//!   a JSON health report or a Prometheus text exposition
//!   ([`WireClient::query_health`], [`WireClient::scrape_prometheus`]),
//!   and records shed / decode error events — with the
//!   offending peer address, sampled under pressure — into the runtime's
//!   telemetry event ring.
//!
//! ```no_run
//! use lad_wire::{WireClient, WireServer, WireServerConfig};
//! # fn demo(runtime: std::sync::Arc<lad_serve::ServeRuntime>,
//! #         nodes: &[lad_net::NodeId], rows: &lad_net::ObservationBatch)
//! #         -> Result<(), lad_wire::WireError> {
//! let server = WireServer::start(runtime, WireServerConfig::tcp("127.0.0.1:0"))?;
//! let mut client = WireClient::connect_tcp(server.tcp_addr().unwrap())?;
//! let receipt = client.send_rows(0, nodes, rows)?;
//! println!("round {} -> {:?}", receipt.round, receipt.status);
//! server.shutdown();
//! # Ok(()) }
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod client;
pub mod frame;
pub mod server;
pub mod shed;

pub use client::{Delivery, DeliveryStatus, WireClient};
pub use frame::{
    checksum, encode_ack, encode_batch, encode_health_reply, encode_health_request, encode_nack,
    encode_stats_reply, encode_stats_request, FrameKind, FramePoll, HealthFormat, WireDecoder,
    WireError, WireFrame, HEADER_LEN, MAX_FRAME_PAYLOAD, WIRE_MAGIC, WIRE_VERSION,
};
pub use server::{WireServer, WireServerConfig};
pub use shed::{GateDecision, IngestGate, OverloadPolicy, RateLimit, ShedReason, TokenBucket};
