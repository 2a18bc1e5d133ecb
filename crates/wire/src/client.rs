//! The client-side encoder half: a thin framed connection that ships
//! observation batches and reads back typed delivery receipts.
//!
//! [`WireClient`] is what tests, benches and `examples/wire_serve.rs` use
//! to drive a [`WireServer`](crate::WireServer). It reuses one encode
//! buffer and one streaming decoder, so a steady-state sender performs no
//! per-report allocation either. [`WireClient::send_rows_nowait`] +
//! [`WireClient::recv_delivery`] pipeline multiple batches over one
//! connection (the bench path — a strict send/await-ACK lockstep would
//! measure round trips, not throughput).

use crate::frame::{
    encode_health_request, encode_stats_request, try_encode_batch, FrameKind, FramePoll,
    HealthFormat, WireDecoder, WireError, WireFrame,
};
use crate::shed::ShedReason;
use lad_net::{NodeId, ObservationBatch};
use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::path::Path;

/// How the server disposed of one batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryStatus {
    /// The batch entered the scoring pipeline.
    Accepted,
    /// The batch was NACKed — nothing was queued or scored. The server's
    /// running shed total rides along so a sender can adapt its offered
    /// rate (back off while `shed_total` grows) without a Stats
    /// round-trip.
    Shed {
        /// Why the batch was refused.
        reason: ShedReason,
        /// Reports the server has shed at its gate so far.
        shed_total: u64,
    },
}

/// One delivery receipt (an Ack or Nack frame, decoded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// The round of the batch this receipt answers.
    pub round: u64,
    /// The batch's row count, echoed by the server.
    pub rows: u32,
    /// Accepted or shed (typed reason).
    pub status: DeliveryStatus,
}

/// The header kind a decoded frame arrived under, for typed
/// [`WireError::UnexpectedFrame`] reporting.
fn kind_of(frame: &WireFrame) -> FrameKind {
    match frame {
        WireFrame::Batch { .. } => FrameKind::Batch,
        WireFrame::Ack { .. } => FrameKind::Ack,
        WireFrame::Nack { .. } => FrameKind::Nack,
        WireFrame::StatsRequest => FrameKind::StatsRequest,
        WireFrame::StatsReply { .. } => FrameKind::StatsReply,
        WireFrame::HealthRequest { .. } => FrameKind::HealthRequest,
        WireFrame::HealthReply { .. } => FrameKind::HealthReply,
    }
}

enum ClientStream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl std::io::Read for ClientStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            ClientStream::Tcp(s) => s.read(buf),
            ClientStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for ClientStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            ClientStream::Tcp(s) => s.write(buf),
            ClientStream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            ClientStream::Tcp(s) => s.flush(),
            ClientStream::Unix(s) => s.flush(),
        }
    }
}

/// A framed client connection to a wire server.
pub struct WireClient {
    stream: ClientStream,
    buf: Vec<u8>,
    /// Receipt decoder. Ack/Nack frames carry no CSR payload, so the
    /// group count is irrelevant (0).
    decoder: WireDecoder,
    in_flight: usize,
}

impl WireClient {
    /// Connects over TCP (Nagle disabled — receipts are small).
    pub fn connect_tcp(addr: impl ToSocketAddrs) -> Result<Self, WireError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Self::new(ClientStream::Tcp(stream)))
    }

    /// Connects over a Unix-domain socket.
    pub fn connect_uds(path: impl AsRef<Path>) -> Result<Self, WireError> {
        Ok(Self::new(ClientStream::Unix(UnixStream::connect(path)?)))
    }

    fn new(stream: ClientStream) -> Self {
        Self {
            stream,
            buf: Vec::new(),
            decoder: WireDecoder::new(0),
            in_flight: 0,
        }
    }

    /// Batches sent whose receipts have not been read yet.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Encodes and ships one batch without waiting for its receipt — the
    /// pipelining half. Pair with [`Self::recv_delivery`]; receipts come
    /// back in send order (one connection is one ordered stream).
    ///
    /// A batch whose pairs do not fit the frame's `u16`s (more than
    /// 65 536 groups, or a count above `u16::MAX`) is refused with
    /// [`WireError::Unencodable`] before anything is written.
    pub fn send_rows_nowait(
        &mut self,
        round: u64,
        nodes: &[NodeId],
        batch: &ObservationBatch,
    ) -> Result<(), WireError> {
        self.buf.clear();
        try_encode_batch(&mut self.buf, round, nodes, batch)?;
        self.stream.write_all(&self.buf)?;
        self.in_flight += 1;
        Ok(())
    }

    /// Blocks for the next delivery receipt.
    pub fn recv_delivery(&mut self) -> Result<Delivery, WireError> {
        loop {
            match self.decoder.poll_frame(&mut self.stream)? {
                FramePoll::Pending => continue,
                FramePoll::Closed => return Err(WireError::ConnectionClosed),
                FramePoll::Frame(WireFrame::Ack { round, rows }) => {
                    self.in_flight = self.in_flight.saturating_sub(1);
                    return Ok(Delivery {
                        round,
                        rows,
                        status: DeliveryStatus::Accepted,
                    });
                }
                FramePoll::Frame(WireFrame::Nack {
                    round,
                    rows,
                    reason,
                    shed_total,
                }) => {
                    self.in_flight = self.in_flight.saturating_sub(1);
                    return Ok(Delivery {
                        round,
                        rows,
                        status: DeliveryStatus::Shed { reason, shed_total },
                    });
                }
                FramePoll::Frame(frame) => {
                    return Err(WireError::UnexpectedFrame {
                        context: "awaiting a delivery receipt",
                        found: kind_of(&frame),
                    });
                }
            }
        }
    }

    /// Queries the server's observability snapshot: ships a StatsRequest
    /// and blocks for the StatsReply, returning its JSON payload (a
    /// serialized `lad_serve::ServeStats` — parse with
    /// `ServeStats::from_json`). Call with no receipts in flight: replies
    /// arrive in order on the one stream, so a pending Ack/Nack surfaces
    /// as [`WireError::UnexpectedFrame`] here.
    pub fn query_stats(&mut self) -> Result<String, WireError> {
        self.buf.clear();
        encode_stats_request(&mut self.buf);
        self.stream.write_all(&self.buf)?;
        loop {
            match self.decoder.poll_frame(&mut self.stream)? {
                FramePoll::Pending => continue,
                FramePoll::Closed => return Err(WireError::ConnectionClosed),
                FramePoll::Frame(WireFrame::StatsReply { .. }) => {
                    let bytes = self.decoder.stats_json();
                    return String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadPayload {
                        kind: FrameKind::StatsReply,
                        len: bytes.len(),
                    });
                }
                FramePoll::Frame(frame) => {
                    return Err(WireError::UnexpectedFrame {
                        context: "awaiting a stats reply",
                        found: kind_of(&frame),
                    });
                }
            }
        }
    }

    /// Queries the server's health verdict in `format`: ships a
    /// HealthRequest and blocks for the HealthReply, returning its raw
    /// payload ([`HealthFormat::Report`] → JSON `HealthReport` bytes,
    /// [`HealthFormat::Prometheus`] → text exposition). Same in-order
    /// stream caveat as [`Self::query_stats`].
    pub fn query_health(&mut self, format: HealthFormat) -> Result<Vec<u8>, WireError> {
        self.buf.clear();
        encode_health_request(&mut self.buf, format);
        self.stream.write_all(&self.buf)?;
        loop {
            match self.decoder.poll_frame(&mut self.stream)? {
                FramePoll::Pending => continue,
                FramePoll::Closed => return Err(WireError::ConnectionClosed),
                FramePoll::Frame(WireFrame::HealthReply { .. }) => {
                    return Ok(self.decoder.health_body().to_vec());
                }
                FramePoll::Frame(frame) => {
                    return Err(WireError::UnexpectedFrame {
                        context: "awaiting a health reply",
                        found: kind_of(&frame),
                    });
                }
            }
        }
    }

    /// One Prometheus scrape: [`Self::query_health`] with
    /// [`HealthFormat::Prometheus`], decoded to the text exposition a
    /// scrape bridge forwards verbatim.
    pub fn scrape_prometheus(&mut self) -> Result<String, WireError> {
        let body = self.query_health(HealthFormat::Prometheus)?;
        let len = body.len();
        String::from_utf8(body).map_err(|_| WireError::BadPayload {
            kind: FrameKind::HealthReply,
            len,
        })
    }

    /// Ships one batch and blocks for its receipt — the simple lockstep
    /// call sites that don't pipeline use. Refuses what
    /// [`Self::send_rows_nowait`] refuses, writing nothing.
    pub fn send_rows(
        &mut self,
        round: u64,
        nodes: &[NodeId],
        batch: &ObservationBatch,
    ) -> Result<Delivery, WireError> {
        self.send_rows_nowait(round, nodes, batch)?;
        self.recv_delivery()
    }
}
