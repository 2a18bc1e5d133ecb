//! The two load phases every workload runs against a fresh stack.
//!
//! * **Saturate** — a closed loop: one submitter offers the next round as
//!   soon as the stack takes it (backpressure blocks it in `submit_rows`,
//!   or in the socket for `replay_tcp`). Timed in fixed windows that each
//!   end with `sync`, so every window's rate counts finished work only.
//! * **Paced** — an open loop at the workload's fixed rate: round `i` is
//!   due at `t0 + i / rate`, and its latency runs from that due time until
//!   its decisions are available (after `sync`, after the ACK and `sync`,
//!   or — on `attack_loop`'s step rounds — after `ResponseController::step`),
//!   so a stall also charges the rounds queued behind it.
//!
//! With tracing on, bench-side spans time the calls into the stack.

use crate::workload::{Calibrated, Kind, Round, Stack, Workload};
use lad_response::ResponseController;
use lad_serve::{ResponseFilter, ServeCounters};
use lad_wire::DeliveryStatus;
use std::time::{Duration, Instant};

/// Receipts the pipelined wire client may have outstanding.
const WIRE_IN_FLIGHT: usize = 8;

/// `attack_loop` runs one `ResponseController::step` per this many rounds
/// (its drain cadence). A step syncs the shard, so stepping every round
/// turns the loop into two thread wake-ups per round, and on a shared host
/// those measured the host's scheduling rather than the stack. Pool
/// lengths are multiples of it, so every episode ends on a step.
pub const STEP_EVERY: u64 = 8;

/// An order-independent digest of an alarm multiset: the count and the
/// wrapping sum of one mixed hash per alarm over (round, node, score bits).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AlarmSet {
    pub count: u64,
    pub sum: u64,
}

impl AlarmSet {
    pub fn add(&mut self, round: u64, node: u32, score: f64) {
        let mix = |x: u64| lad_stats::seeds::splitmix64(x);
        self.count += 1;
        self.sum = self
            .sum
            .wrapping_add(mix(round ^ mix(node as u64 ^ mix(score.to_bits()))));
    }
}

/// Bench-side spans and counts, collected only when tracing.
#[derive(Debug, Default)]
pub struct Spans {
    /// Nanoseconds inside `submit_rows`, and the reports and calls.
    pub submit_ns: u64,
    pub submit_reports: u64,
    pub submit_calls: u64,
    /// Submit calls made while the shard queue was already full.
    pub submit_blocked_calls: u64,
    /// Paced `sync` durations, µs.
    pub sync_us: Vec<f64>,
    /// Paced send → receipt round trips, µs.
    pub ack_rtt_us: Vec<f64>,
    /// `ResponseController::step` durations after an explicit `sync`, µs.
    pub step_us: Vec<f64>,
}

/// What one phase offered, what it saw, and what the stack counted.
#[derive(Debug, Default)]
pub struct PhaseOut {
    /// Rounds and reports offered.
    pub rounds: u64,
    pub offered: u64,
    /// Saturate: decided reports per second, one value per window.
    pub window_rates: Vec<f64>,
    /// Paced: per-round latency from due time, µs.
    pub latency_us: Vec<f64>,
    /// Paced: how late the generator offered each round, µs.
    pub late_us: Vec<f64>,
    /// Replay workloads: every alarm the stack raised.
    pub alarms: AlarmSet,
    /// `attack_loop`: the closed-loop digest after `checkpoint` rounds.
    pub digest: Option<u64>,
    /// Batches the wire server NACKed, in reports.
    pub nacked: u64,
    /// Final counters, read after the last `sync`.
    pub counters: ServeCounters,
}

/// Drives one fresh stack through one phase.
pub struct Runner<'a> {
    kind: Kind,
    pool: &'a [Round],
    cal: &'a Calibrated,
    stack: Stack,
    controller: Option<ResponseController>,
    digest: u64,
    /// Rounds after which the `attack_loop` digest is captured.
    checkpoint: u64,
    queue_full_reports: u64,
    spans: Option<Spans>,
    out: PhaseOut,
}

impl<'a> Runner<'a> {
    pub fn new(
        w: &Workload,
        pool: &'a [Round],
        cal: &'a Calibrated,
        checkpoint: u64,
        traced: bool,
    ) -> Self {
        let stack = Stack::start(w, cal);
        // The shard holds one batch in hand and `queue_depth` queued; a
        // submit made beyond that blocks.
        let queue_depth = stack.runtime.config().queue_depth as u64;
        let round_reports = pool[0].0.len() as u64;
        Self {
            kind: w.kind,
            pool,
            cal,
            stack,
            controller: (w.kind == Kind::AttackLoop).then(|| cal.controller()),
            digest: FNV_OFFSET,
            checkpoint,
            queue_full_reports: (queue_depth + 1) * round_reports,
            spans: traced.then(Spans::default),
            out: PhaseOut::default(),
        }
    }

    fn round(&self, r: u64) -> &'a Round {
        &self.pool[(r % self.pool.len() as u64) as usize]
    }

    /// `submit_rows`, spanned when tracing.
    fn submit(&mut self, r: u64) {
        let (nodes, rows) = self.round(r);
        let runtime = &self.stack.runtime;
        match self.spans.as_mut() {
            None => runtime.submit_rows(r, nodes, rows),
            Some(spans) => {
                if runtime.counters().queue_depth() >= self.queue_full_reports {
                    spans.submit_blocked_calls += 1;
                }
                let t0 = Instant::now();
                runtime.submit_rows(r, nodes, rows);
                spans.submit_ns += t0.elapsed().as_nanos() as u64;
                spans.submit_reports += nodes.len() as u64;
                spans.submit_calls += 1;
            }
        }
    }

    /// Counts one wire receipt.
    fn receipt(&mut self) -> Instant {
        let (_, client) = self.stack.wire.as_mut().expect("tcp stack");
        let receipt = client.recv_delivery().expect("receipt arrives");
        if let DeliveryStatus::Shed { .. } = receipt.status {
            self.out.nacked += receipt.rows as u64;
        }
        Instant::now()
    }

    fn send(&mut self, r: u64) {
        let (nodes, rows) = self.round(r);
        let (_, client) = self.stack.wire.as_mut().expect("tcp stack");
        client
            .send_rows_nowait(r, nodes, rows)
            .expect("batch ships");
    }

    /// `attack_loop`: one controller step after round `r`, folding the
    /// alarms of the rounds since the last step into the digest; a new
    /// episode (fresh controller, empty filter) starts with every pass over
    /// the pool.
    fn respond(&mut self, r: u64) {
        let runtime = &self.stack.runtime;
        let controller = self.controller.as_mut().expect("attack stack");
        match self.spans.as_mut() {
            None => {
                controller.step(runtime, r);
            }
            Some(spans) => {
                let t0 = Instant::now();
                runtime.sync();
                spans.sync_us.push(t0.elapsed().as_secs_f64() * 1e6);
                let t0 = Instant::now();
                controller.step(runtime, r);
                spans.step_us.push(t0.elapsed().as_secs_f64() * 1e6);
            }
        }
        for e in controller.journal().entries_since(r + 1 - STEP_EVERY) {
            self.digest = fnv(self.digest, &[e.node as u64, e.round, e.score.to_bits()]);
        }
        if r + 1 == self.checkpoint {
            self.digest = fold_list(self.digest, controller);
            self.out.digest = Some(fnv(self.digest, &[runtime.counters().suppressed]));
        }
        if (r + 1).is_multiple_of(self.pool.len() as u64) {
            self.digest = fold_list(self.digest, controller);
            *controller = self.cal.controller();
            runtime.install_response_filter(ResponseFilter::default());
        }
    }

    /// Moves the alarms raised so far into the phase output.
    fn collect_alarms(&mut self) {
        for a in self.stack.runtime.poll_alarms() {
            self.out.alarms.add(a.round, a.node.0, a.score);
        }
    }

    /// Offers round `r` and waits until its decisions are available.
    fn lockstep_round(&mut self, r: u64) {
        match self.kind {
            Kind::ReplayInproc => {
                self.submit(r);
                self.timed_sync();
            }
            Kind::ReplayTcp => {
                let sent = Instant::now();
                self.send(r);
                let acked = self.receipt();
                if let Some(spans) = self.spans.as_mut() {
                    spans.ack_rtt_us.push((acked - sent).as_secs_f64() * 1e6);
                }
                self.timed_sync();
            }
            Kind::AttackLoop => {
                self.submit(r);
                if is_step_round(r) {
                    self.respond(r);
                } else {
                    self.timed_sync();
                }
            }
        }
    }

    fn timed_sync(&mut self) {
        let t0 = Instant::now();
        self.stack.runtime.sync();
        if let Some(spans) = self.spans.as_mut() {
            spans.sync_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }

    fn offer(&mut self, r: u64) {
        self.out.rounds += 1;
        self.out.offered += self.round(r).0.len() as u64;
    }

    /// The saturate phase: `duration` of back-to-back windows of at least
    /// `window` each, then — for `attack_loop` — untimed rounds up to the
    /// checkpoint.
    pub fn saturate(&mut self, duration: Duration, window: Duration) {
        let start = Instant::now();
        let mut r = 0u64;
        while start.elapsed() < duration {
            let before = decided(&self.stack.runtime.counters());
            let t0 = Instant::now();
            // Every window covers whole passes over the pool, so each one
            // offers the same mix of rounds.
            while t0.elapsed() < window || !r.is_multiple_of(self.pool.len() as u64) {
                self.offer(r);
                match self.kind {
                    Kind::ReplayInproc => self.submit(r),
                    Kind::ReplayTcp => {
                        self.send(r);
                        let in_flight = self.stack.wire.as_ref().expect("tcp stack").1.in_flight();
                        if in_flight >= WIRE_IN_FLIGHT {
                            self.receipt();
                        }
                    }
                    Kind::AttackLoop => {
                        self.submit(r);
                        if is_step_round(r) {
                            self.respond(r);
                        }
                    }
                }
                r += 1;
            }
            if self.kind == Kind::ReplayTcp {
                while self.stack.wire.as_ref().expect("tcp stack").1.in_flight() > 0 {
                    self.receipt();
                }
            }
            self.stack.runtime.sync();
            let elapsed = t0.elapsed().as_secs_f64();
            let done = decided(&self.stack.runtime.counters()) - before;
            self.out.window_rates.push(done as f64 / elapsed);
            self.collect_alarms();
        }
        if self.kind == Kind::AttackLoop {
            while r < self.checkpoint {
                self.offer(r);
                self.submit(r);
                if is_step_round(r) {
                    self.respond(r);
                }
                r += 1;
            }
        }
    }

    /// The paced phase: `rounds` rounds at `rounds_per_s`.
    pub fn paced(&mut self, rounds: u64, rounds_per_s: f64) {
        let period = Duration::from_secs_f64(1.0 / rounds_per_s);
        let t0 = Instant::now() + Duration::from_millis(1);
        for r in 0..rounds {
            let due = t0 + period.mul_f64(r as f64);
            wait_until(due);
            self.out.late_us.push(due.elapsed().as_secs_f64() * 1e6);
            self.offer(r);
            self.lockstep_round(r);
            self.out.latency_us.push(due.elapsed().as_secs_f64() * 1e6);
            if self.kind != Kind::AttackLoop {
                self.collect_alarms();
            }
        }
    }

    /// Ends the phase: final sync, stack shut down, counters recorded.
    pub fn finish(mut self) -> (PhaseOut, Option<Spans>) {
        self.stack.runtime.sync();
        self.collect_alarms();
        let report = self.stack.stop();
        self.out.counters = report.counters;
        for a in report.alarms {
            self.out.alarms.add(a.round, a.node.0, a.score);
        }
        (self.out, self.spans)
    }
}

/// Whether `attack_loop` steps the controller after round `r`.
fn is_step_round(r: u64) -> bool {
    (r + 1).is_multiple_of(STEP_EVERY)
}

/// Reports the stack has decided: scored, or suppressed by the response
/// filter.
fn decided(c: &ServeCounters) -> u64 {
    c.processed + c.suppressed
}

/// Spins until `due`, yielding to any runnable thread: a sleeping
/// generator would add its own wake-up latency (tens of microseconds on a
/// virtual CPU) to every round.
fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over 64-bit words.
fn fnv(mut h: u64, words: &[u64]) -> u64 {
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Folds the controller's revocation list (revoked nodes and every
/// quarantine, lifted or not) into a digest.
fn fold_list(mut h: u64, controller: &ResponseController) -> u64 {
    let list = controller.revocations();
    for r in &list.revoked {
        h = fnv(h, &[r.node as u64, r.round]);
    }
    for q in &list.quarantined {
        h = fnv(
            h,
            &[
                q.region.center.x.to_bits(),
                q.region.center.y.to_bits(),
                q.region.radius.to_bits(),
                q.round,
                q.lifted_round.unwrap_or(u64::MAX),
            ],
        );
    }
    h
}
