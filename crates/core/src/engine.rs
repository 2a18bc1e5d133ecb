//! `LadEngine` — the batched, versioned detection engine.
//!
//! This is the front door for location verification:
//!
//! * **One scoring surface** — every score comes from CSR observation rows
//!   ([`ObservationBatch`]) merged against the sparse support of the
//!   expected observation ([`MuView`]). [`LadEngine::score_rows_into`] and
//!   [`LadEngine::verify_rows`] fan a batch out over Rayon and return
//!   results in row order, so output is deterministic regardless of thread
//!   scheduling. The `score_rows_seq_*` kernels score on the calling
//!   thread (the serving shards' entry points), optionally memoizing µ
//!   through a [`MuCache`]. [`LadEngine::verify`] is a one-row adapter over
//!   the same per-row kernel.
//! * **One µ per estimate** — the expected observation `µ(L_e)` is
//!   enumerated once per row over its O(k) support into a per-thread
//!   [`SparseMu`] scratch (no per-call allocation after warm-up) and shared
//!   by *all* configured metrics; with exactly the paper's three metrics
//!   they are scored in one fused pass.
//! * **Configurable** — any number of [`MetricKind`]s, thresholds from
//!   τ-percentile training or supplied explicitly.
//! * **Localization-independent at the estimate boundary** — every scoring
//!   entry point takes the estimate `L_e` as input, so estimates from any
//!   scheme can be verified. The engine's own [`LadEngine::localizer`] is
//!   the beaconless MLE its artifact records (`training.localizer`): the
//!   one training used, so an engine restored by [`LadEngine::from_json`]
//!   localizes exactly like the one that was saved.
//! * **Versioned artifacts** — [`LadEngine::to_json`] emits an
//!   [`EngineArtifact`] with an explicit `version` field;
//!   [`LadEngine::from_json`] rejects unknown versions with the typed
//!   [`EngineError::UnsupportedVersion`] instead of a generic parse error.
//!
//! ```
//! use lad_core::engine::LadEngine;
//! use lad_core::MetricKind;
//! use lad_core::TrainingConfig;
//! use lad_deployment::DeploymentConfig;
//! use lad_net::{Observation, ObservationBatch};
//!
//! let engine = LadEngine::builder()
//!     .deployment(&DeploymentConfig::small_test())
//!     .training(TrainingConfig { networks: 2, samples_per_network: 64, seed: 7, ..TrainingConfig::default() })
//!     .metrics(&MetricKind::ALL)
//!     .tau(0.99)
//!     .build()
//!     .unwrap();
//!
//! let groups = engine.knowledge().group_count();
//! let mut rows = ObservationBatch::new(groups);
//! rows.push(&Observation::zeros(groups), lad_geometry::Point2::new(200.0, 200.0));
//! let verdicts = engine.verify_rows(&rows);
//! assert_eq!(verdicts.len(), 1);
//! assert_eq!(verdicts[0].verdicts.len(), 3); // one per configured metric
//! ```

use crate::metrics::{MetricKind, ObsScratch};
use crate::threshold::TrainedThresholds;
use crate::training::{Trainer, TrainingConfig};
use lad_deployment::{DeploymentConfig, DeploymentKnowledge, MuCache, MuView, SparseMu};
use lad_geometry::Point2;
use lad_localization::BeaconlessMle;
use lad_net::{Network, NodeId, ObsRow, Observation, ObservationBatch};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// The artifact format version this build writes and reads.
pub const ARTIFACT_VERSION: u32 = 1;

/// Typed errors of engine construction and artifact loading.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The artifact's `version` field is not one this build supports.
    UnsupportedVersion {
        /// The version found in the artifact.
        found: u64,
    },
    /// The builder was not given a deployment configuration.
    MissingDeployment,
    /// τ must be a fraction in `[0, 1]`.
    InvalidTau(f64),
    /// Explicit thresholds were supplied but their count does not match the
    /// configured metrics.
    MismatchedThresholds {
        /// Number of configured metrics.
        metrics: usize,
        /// Number of supplied thresholds.
        thresholds: usize,
    },
    /// A threshold was requested for a metric with no training samples.
    UntrainedMetric(MetricKind),
    /// An artifact's metric list is empty or names a metric twice. The
    /// builder dedups its metrics and defaults to Diff, so only a
    /// hand-written artifact can carry such a list.
    InvalidMetrics(Vec<MetricKind>),
    /// The JSON could not be parsed into an artifact.
    Parse(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnsupportedVersion { found } => write!(
                f,
                "unsupported engine artifact version {found} (this build reads version {ARTIFACT_VERSION})"
            ),
            EngineError::MissingDeployment => {
                write!(f, "LadEngine::builder() needs a deployment configuration")
            }
            EngineError::InvalidTau(tau) => {
                write!(f, "tau must be a fraction in [0, 1], got {tau}")
            }
            EngineError::MismatchedThresholds { metrics, thresholds } => write!(
                f,
                "{thresholds} explicit thresholds supplied for {metrics} configured metrics"
            ),
            EngineError::UntrainedMetric(kind) => {
                write!(f, "metric {} has no training samples", kind.name())
            }
            EngineError::InvalidMetrics(metrics) => write!(
                f,
                "artifact metric list {metrics:?} must be nonempty and name each metric once"
            ),
            EngineError::Parse(msg) => write!(f, "artifact parse error: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// The result of running LAD with one metric on one (observation,
/// estimated location) pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Verdict {
    /// Which metric produced the verdict.
    pub metric: MetricKind,
    /// The anomaly score of the pair (larger = more anomalous).
    pub score: f64,
    /// The detection threshold in force.
    pub threshold: f64,
    /// Whether an alarm is raised (`score > threshold`).
    pub anomalous: bool,
}

/// The engine's answer for one row: one [`Verdict`] per configured
/// metric plus the overall alarm (any metric over threshold).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiVerdict {
    /// The estimate that was verified.
    pub estimate: Point2,
    /// Per-metric verdicts, in the engine's configured metric order.
    pub verdicts: Vec<Verdict>,
    /// Whether any metric raised an alarm.
    pub anomalous: bool,
}

impl MultiVerdict {
    /// The verdict of a specific metric, if configured.
    pub fn verdict(&self, metric: MetricKind) -> Option<&Verdict> {
        self.verdicts.iter().find(|v| v.metric == metric)
    }
}

/// The serialisable state of an engine: everything except the rebuildable
/// deployment knowledge.
///
/// Serialised artifacts carry `version: 1`; loading rejects other versions
/// with [`EngineError::UnsupportedVersion`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineArtifact {
    /// Artifact format version (see [`ARTIFACT_VERSION`]).
    pub version: u32,
    /// Deployment model the engine was fitted for.
    pub deployment: DeploymentConfig,
    /// Training procedure parameters (kept for re-training / provenance).
    pub training: TrainingConfig,
    /// The clean-score distributions training produced (kept so thresholds
    /// at other τ can be re-derived without retraining).
    pub trained: TrainedThresholds,
    /// Configured metrics, in scoring order.
    pub metrics: Vec<MetricKind>,
    /// Operating thresholds, parallel to `metrics`. Empty for score-only
    /// engines.
    pub thresholds: Vec<f64>,
    /// The τ-percentile the thresholds were derived at (provenance; `None`
    /// when thresholds were supplied explicitly or the engine is
    /// score-only).
    pub tau: Option<f64>,
}

/// Builder for [`LadEngine`]. Obtain via [`LadEngine::builder`].
pub struct LadEngineBuilder {
    deployment: Option<DeploymentConfig>,
    training: TrainingConfig,
    metrics: Vec<MetricKind>,
    tau: f64,
    explicit_thresholds: Option<Vec<f64>>,
    score_only: bool,
}

impl Default for LadEngineBuilder {
    fn default() -> Self {
        Self {
            deployment: None,
            training: TrainingConfig::default(),
            metrics: Vec::new(),
            tau: 0.99,
            explicit_thresholds: None,
            score_only: false,
        }
    }
}

impl LadEngineBuilder {
    /// Sets the deployment model (required).
    pub fn deployment(mut self, config: &DeploymentConfig) -> Self {
        self.deployment = Some(*config);
        self
    }

    /// Sets the threshold-training parameters.
    pub fn training(mut self, training: TrainingConfig) -> Self {
        self.training = training;
        self
    }

    /// Adds one metric (metrics score in the order they were added).
    pub fn metric(mut self, metric: MetricKind) -> Self {
        if !self.metrics.contains(&metric) {
            self.metrics.push(metric);
        }
        self
    }

    /// Adds several metrics.
    pub fn metrics(mut self, metrics: &[MetricKind]) -> Self {
        for &m in metrics {
            self = self.metric(m);
        }
        self
    }

    /// Sets the τ-percentile the per-metric thresholds are trained at.
    pub fn tau(mut self, tau: f64) -> Self {
        self.tau = tau;
        self
    }

    /// Supplies explicit operating thresholds (parallel to the configured
    /// metrics), skipping threshold training entirely.
    pub fn thresholds(mut self, thresholds: Vec<f64>) -> Self {
        self.explicit_thresholds = Some(thresholds);
        self
    }

    /// Builds a score-only engine: no training, no thresholds.
    /// [`LadEngine::score_rows_into`] works; [`LadEngine::verify_rows`] and
    /// [`LadEngine::verify`] panic. This is what ROC sweeps and the
    /// evaluation harness use.
    pub fn score_only(mut self) -> Self {
        self.score_only = true;
        self
    }

    /// Builds the engine, running threshold training unless explicit
    /// thresholds or score-only mode were requested.
    pub fn build(self) -> Result<LadEngine, EngineError> {
        let deployment = self.deployment.ok_or(EngineError::MissingDeployment)?;
        let mut metrics = self.metrics;
        if metrics.is_empty() {
            metrics.push(MetricKind::Diff);
        }
        let knowledge = DeploymentKnowledge::shared(&deployment);

        let (trained, thresholds, tau) = if let Some(thresholds) = self.explicit_thresholds {
            if thresholds.len() != metrics.len() {
                return Err(EngineError::MismatchedThresholds {
                    metrics: metrics.len(),
                    thresholds: thresholds.len(),
                });
            }
            (TrainedThresholds::new(), thresholds, None)
        } else if self.score_only {
            (TrainedThresholds::new(), Vec::new(), None)
        } else {
            if !(0.0..=1.0).contains(&self.tau) {
                return Err(EngineError::InvalidTau(self.tau));
            }
            let trained = Trainer::new(self.training).train(&knowledge);
            let thresholds = metrics
                .iter()
                .map(|&kind| {
                    trained
                        .threshold(kind, self.tau)
                        .ok_or(EngineError::UntrainedMetric(kind))
                })
                .collect::<Result<Vec<_>, _>>()?;
            (trained, thresholds, Some(self.tau))
        };

        let artifact = EngineArtifact {
            version: ARTIFACT_VERSION,
            deployment,
            training: self.training,
            trained,
            metrics,
            thresholds,
            tau,
        };
        Ok(LadEngine::assemble(knowledge, artifact))
    }
}

/// Per-thread row-scoring scratch: the sparse µ fill target the uncached
/// paths fill once per row and hand to every metric, and the dense
/// observation every kernel walks its row through.
#[derive(Default)]
struct RowScratch {
    mu: SparseMu,
    obs: ObsScratch,
}

thread_local! {
    /// Borrowed once per batch (or per worker chunk), so the row loops
    /// make no per-row thread-local lookup and, after each thread's first
    /// batch, no allocation.
    static ROW_SCRATCH: RefCell<RowScratch> = RefCell::new(RowScratch::default());
}

/// The batched, versioned LAD detection engine.
///
/// Build with [`LadEngine::builder`]; see the [module docs](self) for the
/// design and a usage example.
#[derive(Clone)]
pub struct LadEngine {
    knowledge: Arc<DeploymentKnowledge>,
    artifact: EngineArtifact,
    /// True when the configured metrics are exactly `MetricKind::ALL` in
    /// order: scoring then takes the fused single-pass kernel
    /// ([`crate::metrics::score_all_fused_sparse`]) instead of one pass per
    /// metric.
    fused: bool,
}

impl fmt::Debug for LadEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LadEngine")
            .field("metrics", &self.artifact.metrics)
            .field("thresholds", &self.artifact.thresholds)
            .field("tau", &self.artifact.tau)
            .field("localizer", self.localizer())
            .finish_non_exhaustive()
    }
}

impl LadEngine {
    /// Starts building an engine.
    pub fn builder() -> LadEngineBuilder {
        LadEngineBuilder::default()
    }

    fn assemble(knowledge: Arc<DeploymentKnowledge>, artifact: EngineArtifact) -> Self {
        let fused = artifact.metrics == MetricKind::ALL;
        Self {
            knowledge,
            artifact,
            fused,
        }
    }

    // ---- accessors ---------------------------------------------------------

    /// The deployment knowledge baked into the engine.
    pub fn knowledge(&self) -> &Arc<DeploymentKnowledge> {
        &self.knowledge
    }

    /// The configured metrics, in scoring order.
    pub fn metrics(&self) -> &[MetricKind] {
        &self.artifact.metrics
    }

    /// The operating thresholds, parallel to [`Self::metrics`] (empty for a
    /// score-only engine).
    pub fn thresholds(&self) -> &[f64] {
        &self.artifact.thresholds
    }

    /// The τ-percentile the thresholds were trained at (`None` when they
    /// were supplied explicitly or the engine is score-only).
    pub fn tau(&self) -> Option<f64> {
        self.artifact.tau
    }

    /// The localization scheme the artifact records: the beaconless MLE
    /// training localized with.
    pub fn localizer(&self) -> &BeaconlessMle {
        &self.artifact.training.localizer
    }

    /// Position of `metric` in the engine's scoring order.
    pub fn metric_index(&self, metric: MetricKind) -> Option<usize> {
        self.artifact.metrics.iter().position(|&m| m == metric)
    }

    // ---- the hot path ------------------------------------------------------

    /// Panics unless the engine has operating thresholds.
    fn assert_verifiable(&self) {
        assert!(
            !self.artifact.thresholds.is_empty(),
            "score-only engine has no thresholds; build with tau() or thresholds()"
        );
    }

    /// Applies the operating thresholds to one row's scores (one per
    /// configured metric, in [`Self::metrics`] order).
    fn verdict(&self, estimate: Point2, scores: &[f64]) -> MultiVerdict {
        let mut anomalous = false;
        let verdicts = self
            .artifact
            .metrics
            .iter()
            .zip(scores.iter().zip(&self.artifact.thresholds))
            .map(|(&metric, (&score, &threshold))| {
                let alarm = score > threshold;
                anomalous |= alarm;
                Verdict {
                    metric,
                    score,
                    threshold,
                    anomalous: alarm,
                }
            })
            .collect();
        MultiVerdict {
            estimate,
            verdicts,
            anomalous,
        }
    }

    /// Verifies one `(observation, estimate)` pair against every configured
    /// metric: a one-row adapter over the same per-row kernel as
    /// [`Self::score_rows_into`], so its verdict equals the matching row of
    /// [`Self::verify_rows`] bit for bit.
    ///
    /// # Panics
    /// Panics on a score-only engine (no thresholds to compare against) or
    /// when the observation spans a different number of groups than the
    /// engine's deployment.
    pub fn verify(&self, observation: &Observation, estimate: Point2) -> MultiVerdict {
        self.assert_verifiable();
        let mut row = ObservationBatch::new(observation.group_count());
        row.push(observation, estimate);
        let mut scores = vec![0.0; self.artifact.metrics.len()];
        self.score_rows_range_into(&row, 0..1, &mut scores);
        self.verdict(estimate, &scores)
    }

    /// Verifies every row of a CSR batch against every configured metric,
    /// in row order: [`Self::score_rows_into`] followed by the operating
    /// thresholds.
    ///
    /// # Panics
    /// Panics on a score-only engine or when the batch's group count
    /// differs from the engine's deployment.
    pub fn verify_rows(&self, batch: &ObservationBatch) -> Vec<MultiVerdict> {
        self.assert_verifiable();
        let mut scores = Vec::new();
        self.score_rows_into(batch, &mut scores);
        scores
            .chunks_exact(self.artifact.metrics.len())
            .enumerate()
            .map(|(r, row)| self.verdict(batch.estimate(r), row))
            .collect()
    }

    /// The parallel fan-out of [`Self::score_rows_into`]: sizes
    /// `out` to `len * width`, splits `0..len` into the usual chunks, and
    /// has `fill(range, rows)` write each chunk's disjoint output range in
    /// place from a worker thread.
    fn par_fill_rows<F>(len: usize, width: usize, out: &mut Vec<f64>, fill: F)
    where
        F: Fn(std::ops::Range<usize>, &mut [f64]) + Send + Sync,
    {
        out.clear();
        out.resize(len * width, 0.0);
        if len == 0 {
            return;
        }
        let chunk = Self::batch_chunk_size(len);
        let chunk_count = len.div_ceil(chunk);

        /// Raw output base pointer, shareable across the worker threads.
        struct OutBase(*mut f64);
        unsafe impl Send for OutBase {}
        unsafe impl Sync for OutBase {}
        let base = OutBase(out.as_mut_ptr());
        let base = &base;

        (0..chunk_count).into_par_iter().for_each(|ci| {
            let start = ci * chunk;
            let end = len.min(start + chunk);
            // SAFETY: chunk `ci` covers rows `start .. end`, so the
            // `[start * width, end * width)` ranges of `out` are pairwise
            // disjoint across chunks and in bounds (`out` was resized to
            // `len * width` above and is not touched by anything else while
            // the workers run).
            let rows = unsafe {
                std::slice::from_raw_parts_mut(base.0.add(start * width), (end - start) * width)
            };
            fill(start..end, rows);
        });
    }

    /// Raw anomaly scores for a CSR observation batch, written into a flat
    /// caller-owned buffer: row-major, `self.metrics().len()` scores per
    /// row, in row order. The buffer is cleared and resized to exactly
    /// `batch.len() * metrics.len()`.
    ///
    /// The batch stores only observation nonzeros (no per-report
    /// `Observation` heap objects), the expected observation is enumerated
    /// over its O(k) support, and the fused kernel walks that support
    /// against the row through a dense observation scratch. Scores are
    /// bit-identical to the dense metric kernels
    /// (`tests/sparse_exactness.rs`). The work fans out over Rayon in
    /// chunks, each worker borrowing its thread's row scratch once and
    /// writing its chunk's disjoint output range in place.
    ///
    /// # Panics
    /// Panics when the batch's group count differs from the engine's
    /// deployment (the once-per-batch boundary check; rows are validated at
    /// [`ObservationBatch::push`] time).
    pub fn score_rows_into(&self, batch: &ObservationBatch, out: &mut Vec<f64>) {
        let width = self.artifact.metrics.len();
        Self::par_fill_rows(batch.len(), width, out, |range, rows| {
            self.score_rows_range_into(batch, range, rows)
        });
    }

    /// Scores rows `lo..hi` of `batch` sequentially on the calling thread
    /// into `out` (row-major; `out` must be exactly
    /// `(hi - lo) * metrics.len()` long) — one chunk of
    /// [`Self::score_rows_into`].
    fn score_rows_range_into(
        &self,
        batch: &ObservationBatch,
        range: std::ops::Range<usize>,
        out: &mut [f64],
    ) {
        let width = self.check_scoring(batch, range.len(), None, out.len());
        ROW_SCRATCH.with(|cell| {
            let RowScratch { mu, obs } = &mut *cell.borrow_mut();
            for (r, row_out) in range.zip(out.chunks_exact_mut(width)) {
                self.knowledge.expected_sparse_into(batch.estimate(r), mu);
                self.score_row_into(batch.row(r), mu.view(), obs, row_out);
            }
        });
    }

    /// Scores a CSR batch sequentially on the calling thread into `out`
    /// (row-major, `self.metrics().len()` scores per row; `out` must be
    /// exactly `batch.len() * metrics.len()` long), with the µ fill
    /// memoized through a caller-owned [`MuCache`]: repeated estimates skip
    /// the `SupportIndex` walk and the g(z)-table evaluations entirely and
    /// score straight off the cached support.
    ///
    /// Scores are **bit-identical** to [`Self::score_rows_into`] — a cache
    /// hit is scored in place against the support `expected_sparse_into`
    /// produced for the same exact estimate bits (see [`MuCache`]). The
    /// cache must be dedicated to this engine's deployment. The lookups run
    /// through [`DeploymentKnowledge::for_each_mu_cached`], which
    /// prefetches each row's cache lines a few rows ahead.
    ///
    /// # Panics
    /// Panics when `out.len() != batch.len() * self.metrics().len()` or the
    /// batch's group count differs from the engine's deployment.
    pub fn score_rows_seq_cached_into(
        &self,
        batch: &ObservationBatch,
        cache: &mut MuCache,
        out: &mut [f64],
    ) {
        let width = self.check_scoring(batch, batch.len(), None, out.len());
        ROW_SCRATCH.with(|cell| {
            let obs = &mut cell.borrow_mut().obs;
            self.knowledge
                .for_each_mu_cached(batch.as_csr().estimates, cache, |r, mu| {
                    let row_out = &mut out[r * width..(r + 1) * width];
                    self.score_row_into(batch.row(r), mu, obs, row_out);
                });
        });
    }

    /// Scores one CSR row against a sparse µ with every configured metric
    /// into `out` — the fused kernel when the metrics are exactly
    /// [`MetricKind::ALL`], one sparse kernel per metric otherwise.
    #[inline]
    fn score_row_into(
        &self,
        row: ObsRow<'_>,
        mu: MuView<'_>,
        obs: &mut ObsScratch,
        out: &mut [f64],
    ) {
        if self.fused {
            out.copy_from_slice(&crate::metrics::score_all_fused_sparse(row, mu, obs));
        } else {
            for (slot, &metric) in out.iter_mut().zip(&self.artifact.metrics) {
                *slot = metric.score_sparse(row, mu, obs);
            }
        }
    }

    /// The preconditions every `score_rows_*` entry point checks once per
    /// batch, returning the scores written per row: the batch spans the
    /// deployment's groups; `metric`, when given, is configured on this
    /// engine (one score per row), otherwise every configured metric
    /// scores; and the output holds exactly `rows` rows of scores.
    fn check_scoring(
        &self,
        batch: &ObservationBatch,
        rows: usize,
        metric: Option<MetricKind>,
        out_len: usize,
    ) -> usize {
        if let Some(metric) = metric {
            assert!(
                self.artifact.metrics.contains(&metric),
                "metric {} not configured on this engine",
                metric.name()
            );
        }
        assert_eq!(
            batch.group_count(),
            self.knowledge.group_count(),
            "batch/deployment group-count mismatch"
        );
        let width = metric.map_or(self.artifact.metrics.len(), |_| 1);
        assert_eq!(
            out_len,
            rows * width,
            "output buffer must hold {width} score(s) per row"
        );
        width
    }

    /// Scores a CSR batch sequentially with **one** configured metric — one
    /// score per row into `out` — via that metric's sparse kernel.
    ///
    /// This is the serving kernel a `lad_serve` shard runs (uncached form):
    /// a sequential decision consumes exactly one metric, so a shard never
    /// pays for the other columns of the all-metrics fused pass. The value
    /// is **bit-identical** to the same metric's column of
    /// [`Self::score_rows_into`] (the fused kernel is bit-identical to the
    /// per-metric kernels by construction, asserted in
    /// `tests/sparse_exactness.rs`). For [`MetricKind::Diff`] /
    /// [`MetricKind::AddAll`] the kernel touches no pmf table at all.
    ///
    /// # Panics
    /// Panics when `metric` is not configured on this engine, when
    /// `out.len() != batch.len()`, or when the batch's group count differs
    /// from the engine's deployment.
    pub fn score_rows_seq_one_into(
        &self,
        batch: &ObservationBatch,
        metric: MetricKind,
        out: &mut [f64],
    ) {
        self.check_scoring(batch, batch.len(), Some(metric), out.len());
        ROW_SCRATCH.with(|cell| {
            let RowScratch { mu, obs } = &mut *cell.borrow_mut();
            for (r, slot) in out.iter_mut().enumerate() {
                self.knowledge.expected_sparse_into(batch.estimate(r), mu);
                *slot = metric.score_sparse(batch.row(r), mu.view(), obs);
            }
        });
    }

    /// [`Self::score_rows_seq_one_into`] with the µ fill memoized through a
    /// caller-owned [`MuCache`] — the `lad_serve` shard kernel, with the
    /// same cached-µ fast path (and the same bit-exactness argument) as
    /// [`Self::score_rows_seq_cached_into`].
    ///
    /// # Panics
    /// Panics when `metric` is not configured on this engine, when
    /// `out.len() != batch.len()`, or when the batch's group count differs
    /// from the engine's deployment.
    pub fn score_rows_seq_one_cached_into(
        &self,
        batch: &ObservationBatch,
        metric: MetricKind,
        cache: &mut MuCache,
        out: &mut [f64],
    ) {
        self.check_scoring(batch, batch.len(), Some(metric), out.len());
        ROW_SCRATCH.with(|cell| {
            let obs = &mut cell.borrow_mut().obs;
            self.knowledge
                .for_each_mu_cached(batch.as_csr().estimates, cache, |r, mu| {
                    out[r] = metric.score_sparse(batch.row(r), mu, obs);
                });
        });
    }

    /// Upper bound on the number of rows each worker-thread chunk
    /// processes between scratch borrows.
    pub const MAX_BATCH_CHUNK: usize = 512;

    /// Chunk size for a batch of `len` rows: small enough that every
    /// core gets several chunks (so mid-size batches still use the whole
    /// machine), capped at [`Self::MAX_BATCH_CHUNK`] so per-chunk scratch
    /// amortisation stays effective on huge batches.
    fn batch_chunk_size(len: usize) -> usize {
        // `available_parallelism` reads the cgroup files on every call
        // (~12 µs each on a 2-vCPU Linux VM), so it is read once per process.
        static THREADS: OnceLock<usize> = OnceLock::new();
        let threads = *THREADS.get_or_init(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        len.div_ceil(threads * 4).clamp(1, Self::MAX_BATCH_CHUNK)
    }

    // ---- localization composition -----------------------------------------

    /// Localizes `node` with the engine's scheme and verifies the result.
    /// `None` when the node cannot be localized.
    pub fn localize_and_verify(
        &self,
        network: &Network,
        node: NodeId,
    ) -> Option<(Point2, MultiVerdict)> {
        let obs = network.true_observation(node);
        let estimate = self.localizer().estimate(&self.knowledge, &obs)?;
        Some((estimate, self.verify(&obs, estimate)))
    }

    // ---- serialisation -----------------------------------------------------

    /// Serialises the engine's artifact (versioned) to compact JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(&self.artifact).expect("engine artifact serialises")
    }

    /// Serialises the engine's artifact to pretty-printed JSON.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(&self.artifact).expect("engine artifact serialises")
    }

    /// Restores an engine from [`Self::to_json`] output, rebuilding the
    /// deployment knowledge (g(z) table included) from the stored config.
    /// Versions other than [`ARTIFACT_VERSION`] are rejected with
    /// [`EngineError::UnsupportedVersion`]; JSON without a `version` field
    /// is not an engine artifact and fails with [`EngineError::Parse`].
    pub fn from_json(json: &str) -> Result<Self, EngineError> {
        let value = serde_json::parse_value(json).map_err(|e| EngineError::Parse(e.to_string()))?;
        let found = value
            .get("version")
            .ok_or_else(|| {
                EngineError::Parse("not a LAD engine artifact (no `version` field)".into())
            })?
            .as_u64()
            .ok_or_else(|| EngineError::Parse("`version` must be an integer".into()))?;
        if found != ARTIFACT_VERSION as u64 {
            return Err(EngineError::UnsupportedVersion { found });
        }
        let artifact = serde_json::from_value::<EngineArtifact>(&value)
            .map_err(|e| EngineError::Parse(e.to_string()))?;
        Self::from_artifact(artifact)
    }

    /// Rebuilds an engine from a deserialised artifact whose version
    /// [`Self::from_json`] has checked.
    fn from_artifact(artifact: EngineArtifact) -> Result<Self, EngineError> {
        let metrics = &artifact.metrics;
        if metrics.is_empty()
            || metrics
                .iter()
                .enumerate()
                .any(|(i, m)| metrics[..i].contains(m))
        {
            return Err(EngineError::InvalidMetrics(metrics.clone()));
        }
        if !artifact.thresholds.is_empty() && artifact.thresholds.len() != artifact.metrics.len() {
            return Err(EngineError::MismatchedThresholds {
                metrics: artifact.metrics.len(),
                thresholds: artifact.thresholds.len(),
            });
        }
        let knowledge = DeploymentKnowledge::shared(&artifact.deployment);
        Ok(Self::assemble(knowledge, artifact))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_training() -> TrainingConfig {
        TrainingConfig {
            networks: 2,
            samples_per_network: 80,
            seed: 99,
            localizer: BeaconlessMle::new(),
        }
    }

    fn engine() -> LadEngine {
        LadEngine::builder()
            .deployment(&DeploymentConfig::small_test())
            .training(quick_training())
            .metrics(&MetricKind::ALL)
            .tau(0.99)
            .build()
            .expect("engine builds")
    }

    #[test]
    fn builder_requires_a_deployment() {
        let err = LadEngine::builder().build().unwrap_err();
        assert_eq!(err, EngineError::MissingDeployment);
    }

    #[test]
    fn builder_rejects_invalid_tau() {
        let err = LadEngine::builder()
            .deployment(&DeploymentConfig::small_test())
            .tau(1.5)
            .build()
            .unwrap_err();
        assert_eq!(err, EngineError::InvalidTau(1.5));
    }

    #[test]
    fn builder_rejects_mismatched_explicit_thresholds() {
        let err = LadEngine::builder()
            .deployment(&DeploymentConfig::small_test())
            .metrics(&MetricKind::ALL)
            .thresholds(vec![1.0])
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            EngineError::MismatchedThresholds {
                metrics: 3,
                thresholds: 1
            }
        );
    }

    #[test]
    fn verify_rows_matches_one_row_verify() {
        let engine = engine();
        let network = Network::generate(engine.knowledge().clone(), 123);
        let mut rows = ObservationBatch::new(engine.knowledge().group_count());
        let mut observations = Vec::new();
        for i in 0..40u32 {
            let obs = network.true_observation(NodeId(i * 7));
            if let Some(estimate) = engine.localizer().estimate(engine.knowledge(), &obs) {
                rows.push(&obs, estimate);
                observations.push(obs);
            }
        }
        assert!(rows.len() > 20);
        let batched = engine.verify_rows(&rows);
        assert_eq!(batched.len(), rows.len());
        for (r, (obs, verdict)) in observations.iter().zip(&batched).enumerate() {
            assert_eq!(*verdict, engine.verify(obs, rows.estimate(r)));
            assert_eq!(verdict.verdicts.len(), 3);
            assert_eq!(
                verdict.anomalous,
                verdict.verdicts.iter().any(|v| v.anomalous)
            );
        }
    }

    #[test]
    fn forged_locations_alarm_and_honest_ones_mostly_do_not() {
        let engine = engine();
        let network = Network::generate(engine.knowledge().clone(), 5);
        let node = NodeId(250);
        let (estimate, honest) = engine
            .localize_and_verify(&network, node)
            .expect("localizable");
        // Allow the rare clean false positive, but the forged location must
        // score strictly worse on every metric.
        let obs = network.true_observation(node);
        let forged = engine.verify(&obs, Point2::new(estimate.x + 220.0, estimate.y));
        assert!(forged.anomalous);
        for (h, f) in honest.verdicts.iter().zip(&forged.verdicts) {
            assert!(
                f.score > h.score,
                "{:?}: {} <= {}",
                h.metric,
                f.score,
                h.score
            );
        }
    }

    #[test]
    fn score_rows_into_matches_the_dense_per_metric_score() {
        let engine = engine();
        let knowledge = engine.knowledge();
        let obs = Observation::from_counts(vec![2; knowledge.group_count()]);
        let at = Point2::new(150.0, 220.0);
        let mu = knowledge.expected_observation(at);
        let mut rows = ObservationBatch::new(knowledge.group_count());
        rows.push(&obs, at);
        let mut scores = Vec::new();
        engine.score_rows_into(&rows, &mut scores);
        assert_eq!(scores.len(), 3);
        for (i, kind) in MetricKind::ALL.into_iter().enumerate() {
            let single = kind.score(&obs, &mu, knowledge.group_size());
            assert_eq!(scores[i], single, "{}: batched vs dense", kind.name());
        }
    }

    #[test]
    fn clean_nodes_rarely_alarm_at_high_tau() {
        let engine = engine();
        let knowledge = engine.knowledge();
        let network = Network::generate(knowledge.clone(), 1234);
        let mut alarms = 0usize;
        let mut total = 0usize;
        for i in (0..network.node_count()).step_by(11) {
            let obs = network.true_observation(NodeId(i as u32));
            let Some(est) = engine.localizer().estimate(knowledge, &obs) else {
                continue;
            };
            total += 1;
            let verdict = engine.verify(&obs, est);
            if verdict.verdict(MetricKind::Diff).unwrap().anomalous {
                alarms += 1;
            }
        }
        assert!(total > 50);
        let fp = alarms as f64 / total as f64;
        assert!(fp < 0.08, "clean false-positive rate too high: {fp}");
    }

    #[test]
    fn grossly_displaced_location_alarms() {
        let engine = engine();
        // Observation consistent with (100, 100) but claimed location far away.
        let truth = Point2::new(100.0, 100.0);
        let obs =
            crate::expected::rounded_expected(&engine.knowledge().expected_observation(truth));
        let forged = engine.verify(&obs, Point2::new(320.0, 320.0));
        let diff = forged.verdict(MetricKind::Diff).unwrap();
        assert!(
            diff.anomalous,
            "score {} threshold {}",
            diff.score, diff.threshold
        );
        // The same observation at the true location is not anomalous.
        let clean = engine.verify(&obs, truth);
        assert!(!clean.verdict(MetricKind::Diff).unwrap().anomalous);
    }

    #[test]
    fn verdict_fields_are_consistent() {
        let engine = engine();
        let obs = crate::expected::rounded_expected(
            &engine
                .knowledge()
                .expected_observation(Point2::new(150.0, 150.0)),
        );
        let verdict = engine.verify(&obs, Point2::new(250.0, 250.0));
        for ((v, &kind), &threshold) in verdict
            .verdicts
            .iter()
            .zip(engine.metrics())
            .zip(engine.thresholds())
        {
            assert_eq!(v.metric, kind);
            assert_eq!(v.threshold, threshold);
            assert_eq!(v.anomalous, v.score > v.threshold);
        }
    }

    #[test]
    fn score_rows_into_matches_one_row_batches_row_by_row() {
        let engine = engine();
        let network = Network::generate(engine.knowledge().clone(), 77);
        let mut rows = ObservationBatch::new(engine.knowledge().group_count());
        for i in 0..700u32 {
            let obs = network.true_observation(NodeId(i % network.node_count() as u32));
            let at = Point2::new(20.0 + (i as f64 * 7.3) % 400.0, (i as f64 * 11.9) % 400.0);
            rows.push(&obs, at);
        }
        let width = engine.metrics().len();
        let mut flat = vec![42.0; 3]; // pre-existing garbage must be cleared
        engine.score_rows_into(&rows, &mut flat);
        assert_eq!(flat.len(), rows.len() * width);
        // Every parallel chunk scores exactly as the row does on its own.
        let mut one = ObservationBatch::new(rows.group_count());
        let mut single = Vec::new();
        for (r, row_scores) in flat.chunks_exact(width).enumerate() {
            one.clear();
            one.push_row(&rows, r);
            engine.score_rows_into(&one, &mut single);
            assert_eq!(row_scores, single.as_slice(), "row {r}");
        }
    }

    #[test]
    fn score_only_engine_scores_but_cannot_verify() {
        let engine = LadEngine::builder()
            .deployment(&DeploymentConfig::small_test())
            .metrics(&MetricKind::ALL)
            .score_only()
            .build()
            .unwrap();
        let obs = Observation::zeros(engine.knowledge().group_count());
        let mut rows = ObservationBatch::new(engine.knowledge().group_count());
        rows.push(&obs, Point2::new(100.0, 100.0));
        let mut scores = Vec::new();
        engine.score_rows_into(&rows, &mut scores);
        assert_eq!(scores.len(), 3);
        // Empty batches leave an empty buffer.
        engine.score_rows_into(&ObservationBatch::new(rows.group_count()), &mut scores);
        assert!(scores.is_empty());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.verify(&obs, Point2::new(100.0, 100.0))
        }));
        assert!(result.is_err(), "verify on a score-only engine must panic");
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.verify_rows(&rows)));
        assert!(
            result.is_err(),
            "verify_rows on a score-only engine must panic"
        );
    }

    #[test]
    #[should_panic(expected = "score-only engine has no thresholds")]
    fn verify_without_trained_thresholds_panics() {
        // No metric is trained, so there is no threshold to compare with.
        let engine = LadEngine::builder()
            .deployment(&DeploymentConfig::small_test())
            .metric(MetricKind::Diff)
            .score_only()
            .build()
            .unwrap();
        let obs = Observation::zeros(engine.knowledge().group_count());
        let _ = engine.verify(&obs, Point2::new(100.0, 100.0));
    }

    #[test]
    fn explicit_thresholds_skip_training() {
        let engine = LadEngine::builder()
            .deployment(&DeploymentConfig::small_test())
            .metric(MetricKind::Diff)
            .thresholds(vec![30.0])
            .build()
            .unwrap();
        assert_eq!(engine.thresholds(), &[30.0]);
        assert_eq!(engine.artifact.trained.sample_count(MetricKind::Diff), 0);
        assert!(engine.tau().is_none());
        let obs = Observation::zeros(engine.knowledge().group_count());
        let verdict = engine.verify(&obs, Point2::new(200.0, 200.0));
        assert_eq!(verdict.verdicts[0].threshold, 30.0);
    }

    #[test]
    fn json_round_trip_preserves_verdicts() {
        let engine = engine();
        let restored = LadEngine::from_json(&engine.to_json()).expect("round trip");
        assert_eq!(engine.metrics(), restored.metrics());
        assert_eq!(engine.thresholds(), restored.thresholds());
        let obs = Observation::from_counts(vec![1; engine.knowledge().group_count()]);
        for at in [Point2::new(120.0, 80.0), Point2::new(333.0, 390.0)] {
            assert_eq!(engine.verify(&obs, at), restored.verify(&obs, at));
        }
    }

    #[test]
    fn unknown_artifact_versions_are_rejected_with_the_typed_error() {
        let engine = engine();
        for wrong in [0u32, 2, 7] {
            let json =
                engine
                    .to_json()
                    .replacen("\"version\":1", &format!("\"version\":{wrong}"), 1);
            match LadEngine::from_json(&json) {
                Err(EngineError::UnsupportedVersion { found }) => {
                    assert_eq!(found, wrong as u64)
                }
                other => panic!("expected UnsupportedVersion, got {other:?}"),
            }
        }
    }

    #[test]
    fn garbage_json_is_a_parse_error() {
        assert!(matches!(
            LadEngine::from_json("{not json"),
            Err(EngineError::Parse(_))
        ));
        assert!(matches!(
            LadEngine::from_json("{}"),
            Err(EngineError::Parse(_))
        ));
    }
}
