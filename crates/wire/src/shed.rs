//! The explicit overload policy of the wire front door.
//!
//! The serve runtime's shard queues are bounded and **block** when full —
//! the right backpressure for trusted in-process callers, but a network
//! front door must never let one hot client stall the accept loop for
//! everyone. [`IngestGate`] turns queue pressure into explicit, typed
//! decisions instead:
//!
//! 1. a per-source **token bucket** rejects sources exceeding their
//!    report budget ([`ShedReason::RateLimited`]),
//! 2. past the **shed** queue-depth threshold, whole batches are NACKed
//!    ([`ShedReason::Overloaded`]) — shed, never silently queued,
//! 3. otherwise batches are accepted (`ServeRuntime::submit_rows`).
//!
//! There is no cheaper scoring tier to fall back to: every shard already
//! scores only the decision metric's column.
//!
//! The gate never collapses a queue and never blocks: overload shows up as
//! NACKs and counters, and tail latency for surviving traffic stays
//! bounded by the queue depth the runtime was configured with.

/// Why a batch was shed. Carried in the Nack frame, so the client learns
/// *why* — a rate-limited client should slow down, an overloaded server
/// will recover on its own, a draining server is going away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The source exceeded its configured report rate.
    RateLimited,
    /// The runtime's queues are past the shed threshold.
    Overloaded,
    /// The server is shutting down and no longer accepts batches.
    Draining,
}

impl ShedReason {
    /// The wire byte of the reason (Nack payload flag).
    pub fn code(self) -> u8 {
        match self {
            ShedReason::RateLimited => 1,
            ShedReason::Overloaded => 2,
            ShedReason::Draining => 3,
        }
    }

    /// Parses a wire byte back; `None` for undefined values.
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            1 => Some(ShedReason::RateLimited),
            2 => Some(ShedReason::Overloaded),
            3 => Some(ShedReason::Draining),
            _ => None,
        }
    }

    /// A stable lowercase name for logs and counters.
    pub fn name(self) -> &'static str {
        match self {
            ShedReason::RateLimited => "rate-limited",
            ShedReason::Overloaded => "overloaded",
            ShedReason::Draining => "draining",
        }
    }
}

/// A per-source report budget: sustained `reports_per_sec` with bursts up
/// to `burst` reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLimit {
    /// Sustained admission rate, in reports per second.
    pub reports_per_sec: f64,
    /// Bucket capacity, in reports. Also the largest single batch the
    /// limiter can ever admit — a batch bigger than the burst is
    /// rate-limited even from a full bucket.
    pub burst: f64,
}

/// The front door's overload policy. The default accepts everything —
/// each mechanism is opt-in.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OverloadPolicy {
    /// Per-source token-bucket rate limit (`None` = unlimited).
    pub rate_limit: Option<RateLimit>,
    /// Runtime queue depth (in reports) at which whole batches are shed
    /// with [`ShedReason::Overloaded`] (`None` = never shed).
    pub shed_queue_depth: Option<u64>,
}

impl OverloadPolicy {
    /// Returns a copy with a per-source rate limit.
    pub fn with_rate_limit(mut self, reports_per_sec: f64, burst: f64) -> Self {
        self.rate_limit = Some(RateLimit {
            reports_per_sec,
            burst,
        });
        self
    }

    /// Returns a copy that sheds whole batches past `depth` queued reports.
    pub fn with_shed_depth(mut self, depth: u64) -> Self {
        self.shed_queue_depth = Some(depth);
        self
    }
}

/// A classic token bucket over an explicit clock: `try_take` is handed
/// `now_nanos` rather than reading a wall clock, so policies are exactly
/// testable (and the server pays one `Instant` read per batch, not one
/// per layer).
#[derive(Debug, Clone)]
pub struct TokenBucket {
    limit: RateLimit,
    tokens: f64,
    last_nanos: u64,
}

impl TokenBucket {
    /// A bucket that starts full (a fresh source gets its burst).
    pub fn new(limit: RateLimit) -> Self {
        Self {
            limit,
            tokens: limit.burst,
            last_nanos: 0,
        }
    }

    /// Tries to admit `n` reports at time `now_nanos` (monotone,
    /// caller-supplied). Refills first, then either takes all `n` tokens
    /// (admitted) or takes nothing (rejected — no partial admission, since
    /// a batch is scored whole or not at all).
    pub fn try_take(&mut self, n: f64, now_nanos: u64) -> bool {
        let dt = now_nanos.saturating_sub(self.last_nanos) as f64 / 1e9;
        self.last_nanos = self.last_nanos.max(now_nanos);
        self.tokens = (self.tokens + dt * self.limit.reports_per_sec).min(self.limit.burst);
        if self.tokens >= n {
            self.tokens -= n;
            true
        } else {
            false
        }
    }
}

/// What the gate decided for one batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateDecision {
    /// Accept into the scoring pipeline.
    Accept,
    /// NACK the whole batch; nothing reaches a queue.
    Shed(ShedReason),
}

/// One connection's ingest gate: the policy plus this source's token
/// bucket. Decisions are pure in `(batch size, queue depth, now)`, so the
/// saturation tests can drive the gate deterministically.
#[derive(Debug, Clone)]
pub struct IngestGate {
    policy: OverloadPolicy,
    bucket: Option<TokenBucket>,
}

impl IngestGate {
    /// A gate enforcing `policy` for one source.
    pub fn new(policy: OverloadPolicy) -> Self {
        Self {
            policy,
            bucket: policy.rate_limit.map(TokenBucket::new),
        }
    }

    /// Decides the fate of a `rows`-report batch arriving at `now_nanos`
    /// while the runtime holds `queue_depth` unprocessed reports.
    ///
    /// Order matters: the rate limit is checked first (a hot source is
    /// *its own* problem and must not consume shed headroom), then the
    /// shed threshold.
    pub fn decide(&mut self, rows: u64, queue_depth: u64, now_nanos: u64) -> GateDecision {
        if let Some(bucket) = &mut self.bucket {
            if !bucket.try_take(rows as f64, now_nanos) {
                return GateDecision::Shed(ShedReason::RateLimited);
            }
        }
        if let Some(depth) = self.policy.shed_queue_depth {
            if queue_depth >= depth {
                return GateDecision::Shed(ShedReason::Overloaded);
            }
        }
        GateDecision::Accept
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: u64 = 1_000_000_000;

    #[test]
    fn bucket_enforces_rate_and_burst() {
        let mut bucket = TokenBucket::new(RateLimit {
            reports_per_sec: 10.0,
            burst: 20.0,
        });
        // Starts full: the burst is admissible immediately...
        assert!(bucket.try_take(20.0, 0));
        // ...then the sustained rate gates refill.
        assert!(!bucket.try_take(1.0, 0));
        assert!(bucket.try_take(5.0, SEC / 2)); // +5 tokens after 0.5 s
        assert!(!bucket.try_take(1.0, SEC / 2));
        // Refill caps at the burst no matter how long the idle gap.
        assert!(bucket.try_take(20.0, 100 * SEC));
        assert!(!bucket.try_take(21.0, 200 * SEC), "burst caps batch size");
        // A non-monotone clock sample must not mint tokens.
        let mut bucket = TokenBucket::new(RateLimit {
            reports_per_sec: 10.0,
            burst: 10.0,
        });
        assert!(bucket.try_take(10.0, 10 * SEC));
        assert!(!bucket.try_take(5.0, 9 * SEC));
    }

    #[test]
    fn gate_orders_rate_shed_accept() {
        let policy = OverloadPolicy::default()
            .with_rate_limit(10.0, 10.0)
            .with_shed_depth(200);
        let mut gate = IngestGate::new(policy);
        // Within budget, below the shed threshold → accepted.
        assert_eq!(gate.decide(5, 0, 0), GateDecision::Accept);
        assert_eq!(gate.decide(5, 199, SEC), GateDecision::Accept);
        // Past the shed threshold → NACK Overloaded.
        assert_eq!(
            gate.decide(1, 200, 2 * SEC),
            GateDecision::Shed(ShedReason::Overloaded)
        );
        // Budget exhausted → NACK RateLimited even with an idle queue.
        let mut gate = IngestGate::new(policy);
        assert!(gate.decide(10, 0, 0) == GateDecision::Accept);
        assert_eq!(
            gate.decide(1, 0, 0),
            GateDecision::Shed(ShedReason::RateLimited)
        );
        // The default policy accepts everything.
        let mut open = IngestGate::new(OverloadPolicy::default());
        assert_eq!(open.decide(u64::MAX / 2, u64::MAX, 0), GateDecision::Accept);
    }

    #[test]
    fn shed_reason_codes_round_trip() {
        for reason in [
            ShedReason::RateLimited,
            ShedReason::Overloaded,
            ShedReason::Draining,
        ] {
            assert_eq!(ShedReason::from_code(reason.code()), Some(reason));
            assert!(!reason.name().is_empty());
        }
        assert_eq!(ShedReason::from_code(0), None);
        assert_eq!(ShedReason::from_code(9), None);
    }
}
