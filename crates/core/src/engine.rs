//! `LadEngine` — the batched, pluggable, versioned detection engine.
//!
//! This is the front door for location verification. Where the deprecated
//! [`LadPipeline`](crate::pipeline::LadPipeline) scored one `(observation,
//! estimate)` pair against one hard-wired metric per call, the engine is
//! built for serving volume:
//!
//! * **Batch-first** — [`LadEngine::verify_batch`] and
//!   [`LadEngine::score_batch`] take a slice of [`DetectionRequest`]s and
//!   fan the work out over Rayon. Results come back in request order, so
//!   output is deterministic regardless of thread scheduling.
//! * **One µ per estimate** — the expected observation `µ(L_e)` is computed
//!   once per request into a per-thread scratch
//!   [`ExpectedObservation`] buffer (no per-call allocation after warm-up)
//!   and shared by *all* configured metrics through
//!   [`DetectionMetric::score_from_expected`]. With the paper's three metrics
//!   configured that alone removes two thirds of the hot-path work.
//! * **Pluggable** — any number of [`MetricKind`]s, any
//!   [`LocalizationScheme`] as a trait object, thresholds from τ-percentile
//!   training or supplied explicitly.
//! * **Versioned artifacts** — [`LadEngine::to_json`] emits an
//!   [`EngineArtifact`] with an explicit `version` field;
//!   [`LadEngine::from_json`] rejects unknown versions with the typed
//!   [`EngineError::UnsupportedVersion`] instead of a generic parse error,
//!   and transparently migrates legacy `LadPipeline` JSON.
//!
//! ```
//! use lad_core::engine::{DetectionRequest, LadEngine};
//! use lad_core::MetricKind;
//! use lad_core::TrainingConfig;
//! use lad_deployment::DeploymentConfig;
//!
//! let engine = LadEngine::builder()
//!     .deployment(&DeploymentConfig::small_test())
//!     .training(TrainingConfig { networks: 2, samples_per_network: 64, seed: 7, ..TrainingConfig::default() })
//!     .metrics(&MetricKind::ALL)
//!     .tau(0.99)
//!     .build()
//!     .unwrap();
//!
//! let requests = vec![DetectionRequest::new(
//!     lad_net::Observation::zeros(engine.knowledge().group_count()),
//!     lad_geometry::Point2::new(200.0, 200.0),
//! )];
//! let verdicts = engine.verify_batch(&requests);
//! assert_eq!(verdicts.len(), 1);
//! assert_eq!(verdicts[0].verdicts.len(), 3); // one per configured metric
//! ```

use crate::detector::{LadDetector, Verdict};
use crate::expected::ExpectedObservation;
use crate::metrics::{DetectionMetric, MetricKind};
use crate::threshold::TrainedThresholds;
use crate::training::{Trainer, TrainingConfig};
use lad_deployment::{DeploymentConfig, DeploymentKnowledge, MuCache, MuView, SparseMu};
use lad_geometry::Point2;
pub use lad_localization::LocalizationScheme;
use lad_net::{Network, NodeId, ObsRow, Observation, ObservationBatch};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::fmt;
use std::sync::Arc;

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
            EngineError::Parse(msg) => write!(f, "artifact parse error: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// One unit of verification work: what a sensor submits to the engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectionRequest {
    /// The sensor's observation `o`.
    pub observation: Observation,
    /// The location estimate `L_e` to verify.
    pub estimate: Point2,
}

impl DetectionRequest {
    /// Builds a request.
    pub fn new(observation: Observation, estimate: Point2) -> Self {
        Self {
            observation,
            estimate,
        }
    }
}

/// The engine's answer for one request: one [`Verdict`] per configured
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
/// deployment knowledge and the (non-serialisable) localization scheme.
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
    /// The clean-score distributions training produced (kept so detectors at
    /// other τ can be re-derived without retraining).
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
    localizer: Option<Arc<dyn LocalizationScheme>>,
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
            localizer: None,
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
    /// [`LadEngine::score_batch`] works; [`LadEngine::verify_batch`] panics.
    /// This is what ROC sweeps and the evaluation harness use.
    pub fn score_only(mut self) -> Self {
        self.score_only = true;
        self
    }

    /// Plugs in a localization scheme for [`LadEngine::localize_and_verify`]
    /// and [`LadEngine::localize_batch`] (default: the beaconless MLE from
    /// the training configuration).
    pub fn localizer(self, scheme: impl LocalizationScheme + 'static) -> Self {
        self.localizer_arc(Arc::new(scheme))
    }

    /// Like [`Self::localizer`] but takes an existing `Arc`.
    pub fn localizer_arc(mut self, scheme: Arc<dyn LocalizationScheme>) -> Self {
        self.localizer = Some(scheme);
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
        let localizer = self
            .localizer
            .unwrap_or_else(|| Arc::new(self.training.localizer));
        Ok(LadEngine::assemble(knowledge, artifact, localizer))
    }
}

/// Per-thread reusable scoring buffers: the sparse µ fill target and the
/// dense expected-observation buffer backing the non-fused legacy path.
#[derive(Default)]
struct EngineScratch {
    /// Sparse µ fill target (every scoring path fills it per estimate).
    smu: SparseMu,
    /// Dense µ buffer; only backs the non-fused legacy path.
    dense: ExpectedObservation,
}

thread_local! {
    /// Per-thread µ scratch: `verify_batch`/`score_batch` fill this once per
    /// request and hand it to every metric, so the hot path performs no
    /// allocation after each worker thread's first request.
    static MU_SCRATCH: RefCell<EngineScratch> = RefCell::new(EngineScratch::default());
}

/// The batched, pluggable, versioned LAD detection engine.
///
/// Build with [`LadEngine::builder`]; see the [module docs](self) for the
/// design and a usage example.
pub struct LadEngine {
    knowledge: Arc<DeploymentKnowledge>,
    artifact: EngineArtifact,
    scorers: Vec<Box<dyn DetectionMetric>>,
    /// True when the configured metrics are exactly `MetricKind::ALL` in
    /// order: scoring then takes the fused single-pass kernel
    /// ([`crate::metrics::score_all_fused`]) instead of one pass per metric.
    fused: bool,
    localizer: Arc<dyn LocalizationScheme>,
}

impl fmt::Debug for LadEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LadEngine")
            .field("metrics", &self.artifact.metrics)
            .field("thresholds", &self.artifact.thresholds)
            .field("tau", &self.artifact.tau)
            .field("localizer", &self.localizer.scheme_name())
            .finish_non_exhaustive()
    }
}

impl Clone for LadEngine {
    fn clone(&self) -> Self {
        Self {
            knowledge: self.knowledge.clone(),
            artifact: self.artifact.clone(),
            scorers: self.artifact.metrics.iter().map(|k| k.metric()).collect(),
            fused: self.fused,
            localizer: self.localizer.clone(),
        }
    }
}

impl LadEngine {
    /// Starts building an engine.
    pub fn builder() -> LadEngineBuilder {
        LadEngineBuilder::default()
    }

    fn assemble(
        knowledge: Arc<DeploymentKnowledge>,
        artifact: EngineArtifact,
        localizer: Arc<dyn LocalizationScheme>,
    ) -> Self {
        let scorers = artifact.metrics.iter().map(|k| k.metric()).collect();
        let fused = artifact.metrics == MetricKind::ALL;
        Self {
            knowledge,
            artifact,
            scorers,
            fused,
            localizer,
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

    /// The trained clean-score distributions (re-derive detectors at another
    /// τ without retraining).
    pub fn trained(&self) -> &TrainedThresholds {
        &self.artifact.trained
    }

    /// The serialisable artifact.
    pub fn artifact(&self) -> &EngineArtifact {
        &self.artifact
    }

    /// The pluggable localization scheme.
    pub fn localizer(&self) -> &Arc<dyn LocalizationScheme> {
        &self.localizer
    }

    /// Position of `metric` in the engine's scoring order.
    pub fn metric_index(&self, metric: MetricKind) -> Option<usize> {
        self.artifact.metrics.iter().position(|&m| m == metric)
    }

    /// A single-metric [`LadDetector`] at the engine's operating point (for
    /// interop with the pre-engine API).
    ///
    /// # Panics
    /// Panics on a score-only engine.
    pub fn detector(&self, metric: MetricKind) -> LadDetector {
        let idx = self
            .metric_index(metric)
            .unwrap_or_else(|| panic!("metric {} is not configured", metric.name()));
        assert!(
            !self.artifact.thresholds.is_empty(),
            "score-only engine has no thresholds; build with tau() or thresholds()"
        );
        LadDetector::new(metric, self.artifact.thresholds[idx])
    }

    // ---- the hot path ------------------------------------------------------

    /// Validates a batch's observation lengths once, at the boundary, so
    /// the per-score kernels can run on `debug_assert!`s only.
    ///
    /// # Panics
    /// Panics when any request's observation is over a different number of
    /// groups than the engine's deployment.
    fn validate_requests(&self, requests: &[DetectionRequest]) {
        let n = self.knowledge.group_count();
        if let Some(bad) = requests
            .iter()
            .position(|r| r.observation.group_count() != n)
        {
            panic!(
                "request {bad}: observation spans {} groups, engine deployment has {n}",
                requests[bad].observation.group_count()
            );
        }
    }

    /// Computes the verdict for one request against a caller-supplied µ
    /// scratch buffer (filled in place — no allocation besides the output).
    fn verdict_with(
        &self,
        scratch: &mut EngineScratch,
        observation: &Observation,
        estimate: Point2,
    ) -> MultiVerdict {
        let mut verdicts = Vec::with_capacity(self.scorers.len());
        let mut anomalous = false;
        if self.fused {
            // Sparse fused kernel: fill the O(k) µ support once, then score
            // all three metrics in a single merged pass over the support and
            // the observation's nonzeros (bit-identical to the dense pass).
            let smu = &mut scratch.smu;
            self.knowledge.expected_sparse_into(estimate, smu);
            let scores = crate::metrics::score_all_fused_sparse_obs(observation, smu.view());
            for (i, (&score, &threshold)) in
                scores.iter().zip(&self.artifact.thresholds).enumerate()
            {
                let alarm = score > threshold;
                anomalous |= alarm;
                verdicts.push(Verdict {
                    metric: MetricKind::ALL[i],
                    score,
                    threshold,
                    anomalous: alarm,
                });
            }
        } else {
            let expected = &mut scratch.dense;
            expected.fill(&self.knowledge, estimate);
            for (scorer, &threshold) in self.scorers.iter().zip(&self.artifact.thresholds) {
                let score = scorer.score_from_expected(expected, observation);
                let alarm = score > threshold;
                anomalous |= alarm;
                verdicts.push(Verdict {
                    metric: scorer.kind(),
                    score,
                    threshold,
                    anomalous: alarm,
                });
            }
        }
        MultiVerdict {
            estimate,
            verdicts,
            anomalous,
        }
    }

    /// Computes the per-metric scores for one request against a
    /// caller-supplied µ scratch buffer, writing them into `out` (one slot
    /// per configured metric) — the allocation-free core of every scoring
    /// path.
    fn scores_with_into(
        &self,
        scratch: &mut EngineScratch,
        observation: &Observation,
        estimate: Point2,
        out: &mut [f64],
    ) {
        debug_assert_eq!(out.len(), self.scorers.len());
        if self.fused {
            let smu = &mut scratch.smu;
            self.knowledge.expected_sparse_into(estimate, smu);
            let scores = crate::metrics::score_all_fused_sparse_obs(observation, smu.view());
            out.copy_from_slice(&scores);
        } else {
            let expected = &mut scratch.dense;
            expected.fill(&self.knowledge, estimate);
            for (slot, scorer) in out.iter_mut().zip(&self.scorers) {
                *slot = scorer.score_from_expected(expected, observation);
            }
        }
    }

    /// Computes the per-metric scores for one request against a
    /// caller-supplied µ scratch buffer.
    fn scores_with(
        &self,
        scratch: &mut EngineScratch,
        observation: &Observation,
        estimate: Point2,
    ) -> Vec<f64> {
        let mut out = vec![0.0; self.scorers.len()];
        self.scores_with_into(scratch, observation, estimate, &mut out);
        out
    }

    /// Verifies one `(observation, estimate)` pair against every configured
    /// metric. `µ(L_e)` is computed once and shared by all metrics.
    ///
    /// # Panics
    /// Panics on a score-only engine (no thresholds to compare against).
    pub fn verify(&self, observation: &Observation, estimate: Point2) -> MultiVerdict {
        assert!(
            !self.artifact.thresholds.is_empty(),
            "score-only engine has no thresholds; build with tau() or thresholds()"
        );
        assert_eq!(
            observation.group_count(),
            self.knowledge.group_count(),
            "observation/deployment group-count mismatch"
        );
        MU_SCRATCH.with(|cell| self.verdict_with(&mut cell.borrow_mut(), observation, estimate))
    }

    /// Verifies a batch of requests in parallel (chunks sized by an internal
    /// per-core heuristic fan out over worker threads; each chunk
    /// borrows its thread's µ scratch once). Results are returned in request
    /// order, so output is deterministic regardless of scheduling.
    pub fn verify_batch(&self, requests: &[DetectionRequest]) -> Vec<MultiVerdict> {
        assert!(
            !self.artifact.thresholds.is_empty(),
            "score-only engine has no thresholds; build with tau() or thresholds()"
        );
        self.validate_requests(requests);
        let chunks: Vec<&[DetectionRequest]> = requests
            .chunks(Self::batch_chunk_size(requests.len()))
            .collect();
        chunks
            .par_iter()
            .flat_map(|chunk| {
                MU_SCRATCH.with(|cell| {
                    let expected = &mut *cell.borrow_mut();
                    chunk
                        .iter()
                        .map(|r| self.verdict_with(expected, &r.observation, r.estimate))
                        .collect::<Vec<_>>()
                })
            })
            .collect()
    }

    /// Raw anomaly scores for one request — one entry per configured metric,
    /// in [`Self::metrics`] order — without thresholding. `µ(L_e)` is
    /// computed once and shared by all metrics.
    pub fn score(&self, observation: &Observation, estimate: Point2) -> Vec<f64> {
        assert_eq!(
            observation.group_count(),
            self.knowledge.group_count(),
            "observation/deployment group-count mismatch"
        );
        MU_SCRATCH.with(|cell| self.scores_with(&mut cell.borrow_mut(), observation, estimate))
    }

    /// Raw anomaly scores for a batch of requests, in request order. This is
    /// the entry point for ROC sweeps: collect scores once, then sweep
    /// thresholds offline.
    pub fn score_batch(&self, requests: &[DetectionRequest]) -> Vec<Vec<f64>> {
        self.validate_requests(requests);
        let chunks: Vec<&[DetectionRequest]> = requests
            .chunks(Self::batch_chunk_size(requests.len()))
            .collect();
        chunks
            .par_iter()
            .flat_map(|chunk| {
                MU_SCRATCH.with(|cell| {
                    let expected = &mut *cell.borrow_mut();
                    chunk
                        .iter()
                        .map(|r| self.scores_with(expected, &r.observation, r.estimate))
                        .collect::<Vec<_>>()
                })
            })
            .collect()
    }

    /// Raw anomaly scores for a batch of requests, written into a flat
    /// caller-owned buffer: row-major, `self.metrics().len()` scores per
    /// request, in request order. The buffer is cleared and resized to
    /// exactly `requests.len() * metrics.len()`.
    ///
    /// This is the zero-garbage sibling of [`Self::score_batch`]: where
    /// `score_batch` allocates an inner `Vec<f64>` per request (a hot-path
    /// cost when a serving loop scores millions of requests per second),
    /// this writes every score into one flat allocation the caller reuses
    /// across batches. The work fans out over the same chunked Rayon pool,
    /// each worker writing its chunk's disjoint output range in place.
    pub fn score_batch_into(&self, requests: &[DetectionRequest], out: &mut Vec<f64>) {
        Self::par_fill_rows(requests.len(), self.scorers.len(), out, |range, rows| {
            self.score_seq_into(&requests[range], rows)
        });
    }

    /// The shared parallel fan-out of the flat scoring entry points: sizes
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

    /// Scores `requests` sequentially on the calling thread into `out`
    /// (row-major, `self.metrics().len()` scores per request; `out` must be
    /// exactly `requests.len() * metrics.len()` long).
    ///
    /// This is the building block of [`Self::score_batch_into`]: no
    /// allocation beyond the thread's µ scratch, no nested thread pool.
    ///
    /// # Panics
    /// Panics when `out.len() != requests.len() * self.metrics().len()`.
    pub fn score_seq_into(&self, requests: &[DetectionRequest], out: &mut [f64]) {
        let width = self.scorers.len();
        assert_eq!(
            out.len(),
            requests.len() * width,
            "output buffer must hold {} scores per request",
            width
        );
        self.validate_requests(requests);
        MU_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            for (req, row) in requests.iter().zip(out.chunks_exact_mut(width)) {
                self.scores_with_into(scratch, &req.observation, req.estimate, row);
            }
        });
    }

    /// Raw anomaly scores for a CSR observation batch, written into a flat
    /// caller-owned buffer: row-major, `self.metrics().len()` scores per
    /// row, in row order. The buffer is cleared and resized to exactly
    /// `batch.len() * metrics.len()`.
    ///
    /// This is the fully sparse sibling of [`Self::score_batch_into`]:
    /// the batch stores only observation nonzeros (no per-report
    /// `Observation` heap objects), the expected observation is enumerated
    /// over its O(k) support, and the fused kernel merges the two sparse
    /// sides directly. Scores are bit-identical to the dense entry points.
    /// The work fans out over the same chunked Rayon pool as
    /// [`Self::score_batch_into`], each worker writing its chunk's disjoint
    /// output range in place.
    ///
    /// # Panics
    /// Panics when the batch's group count differs from the engine's
    /// deployment (the once-per-batch boundary check; rows are validated at
    /// [`ObservationBatch::push`] time).
    pub fn score_rows_into(&self, batch: &ObservationBatch, out: &mut Vec<f64>) {
        Self::par_fill_rows(batch.len(), self.scorers.len(), out, |range, rows| {
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
        let width = self.scorers.len();
        assert_eq!(
            batch.group_count(),
            self.knowledge.group_count(),
            "batch/deployment group-count mismatch"
        );
        assert_eq!(
            out.len(),
            range.len() * width,
            "output buffer must hold {width} scores per row"
        );
        MU_SCRATCH.with(|cell| {
            let smu = &mut cell.borrow_mut().smu;
            for (r, row_out) in range.zip(out.chunks_exact_mut(width)) {
                self.knowledge.expected_sparse_into(batch.estimate(r), smu);
                self.score_row_into(batch.row(r), smu.view(), row_out);
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
        let width = self.scorers.len();
        assert_eq!(
            batch.group_count(),
            self.knowledge.group_count(),
            "batch/deployment group-count mismatch"
        );
        assert_eq!(
            out.len(),
            batch.len() * width,
            "output buffer must hold {width} scores per row"
        );
        self.knowledge
            .for_each_mu_cached(batch.as_csr().estimates, cache, |r, mu| {
                self.score_row_into(batch.row(r), mu, &mut out[r * width..(r + 1) * width]);
            });
    }

    /// Scores one CSR row against a sparse µ with every configured metric
    /// into `out` — the fused kernel when the metrics are exactly
    /// [`MetricKind::ALL`], one sparse kernel per metric otherwise.
    #[inline]
    fn score_row_into(&self, row: ObsRow<'_>, mu: MuView<'_>, out: &mut [f64]) {
        if self.fused {
            out.copy_from_slice(&crate::metrics::score_all_fused_sparse(row, mu));
        } else {
            for (slot, scorer) in out.iter_mut().zip(&self.scorers) {
                *slot = scorer.score_sparse(row, mu);
            }
        }
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
        let idx = self
            .metric_index(metric)
            .unwrap_or_else(|| panic!("metric {} not configured on this engine", metric.name()));
        assert_eq!(
            batch.group_count(),
            self.knowledge.group_count(),
            "batch/deployment group-count mismatch"
        );
        assert_eq!(
            out.len(),
            batch.len(),
            "output buffer must hold one score per row"
        );
        let scorer = &self.scorers[idx];
        MU_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            let smu = &mut scratch.smu;
            for (r, slot) in out.iter_mut().enumerate() {
                self.knowledge.expected_sparse_into(batch.estimate(r), smu);
                *slot = scorer.score_sparse(batch.row(r), smu.view());
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
        let idx = self
            .metric_index(metric)
            .unwrap_or_else(|| panic!("metric {} not configured on this engine", metric.name()));
        assert_eq!(
            batch.group_count(),
            self.knowledge.group_count(),
            "batch/deployment group-count mismatch"
        );
        assert_eq!(
            out.len(),
            batch.len(),
            "output buffer must hold one score per row"
        );
        let scorer = &self.scorers[idx];
        self.knowledge
            .for_each_mu_cached(batch.as_csr().estimates, cache, |r, mu| {
                out[r] = scorer.score_sparse(batch.row(r), mu);
            });
    }

    /// Upper bound on the number of requests each worker-thread chunk
    /// processes between scratch borrows.
    pub const MAX_BATCH_CHUNK: usize = 512;

    /// Chunk size for a batch of `len` requests: small enough that every
    /// core gets several chunks (so mid-size batches still use the whole
    /// machine), capped at [`Self::MAX_BATCH_CHUNK`] so per-chunk scratch
    /// amortisation stays effective on huge batches.
    fn batch_chunk_size(len: usize) -> usize {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
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
        let estimate = self.localizer.estimate(&self.knowledge, &obs)?;
        Some((estimate, self.verify(&obs, estimate)))
    }

    /// Localizes many nodes in parallel with the engine's scheme.
    pub fn localize_batch(&self, network: &Network, nodes: &[NodeId]) -> Vec<Option<Point2>> {
        nodes
            .par_iter()
            .map(|&node| {
                let obs = network.true_observation(node);
                self.localizer.estimate(&self.knowledge, &obs)
            })
            .collect()
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
    ///
    /// Accepts two formats:
    ///
    /// * a versioned [`EngineArtifact`] — versions other than
    ///   [`ARTIFACT_VERSION`] are rejected with
    ///   [`EngineError::UnsupportedVersion`];
    /// * legacy (pre-engine) `LadPipeline` JSON, recognised by its `metric`
    ///   field and absence of `version`, which is migrated in place.
    pub fn from_json(json: &str) -> Result<Self, EngineError> {
        let value = serde_json::parse_value(json).map_err(|e| EngineError::Parse(e.to_string()))?;
        let artifact = match value.get("version") {
            Some(version) => {
                let found = version
                    .as_u64()
                    .ok_or_else(|| EngineError::Parse("`version` must be an integer".into()))?;
                if found != ARTIFACT_VERSION as u64 {
                    return Err(EngineError::UnsupportedVersion { found });
                }
                serde_json::from_value::<EngineArtifact>(&value)
                    .map_err(|e| EngineError::Parse(e.to_string()))?
            }
            None if value.get("metric").is_some() => {
                // Legacy PipelineArtifact { deployment, training, trained,
                // metric, tau }: migrate to a single-metric engine artifact.
                let get = |field: &str| {
                    value.get(field).ok_or_else(|| {
                        EngineError::Parse(format!("legacy artifact is missing `{field}`"))
                    })
                };
                let deployment: DeploymentConfig = serde_json::from_value(get("deployment")?)
                    .map_err(|e| EngineError::Parse(e.to_string()))?;
                let training: TrainingConfig = serde_json::from_value(get("training")?)
                    .map_err(|e| EngineError::Parse(e.to_string()))?;
                let trained: TrainedThresholds = serde_json::from_value(get("trained")?)
                    .map_err(|e| EngineError::Parse(e.to_string()))?;
                let metric: MetricKind = serde_json::from_value(get("metric")?)
                    .map_err(|e| EngineError::Parse(e.to_string()))?;
                let tau: f64 = serde_json::from_value(get("tau")?)
                    .map_err(|e| EngineError::Parse(e.to_string()))?;
                let threshold = trained
                    .threshold(metric, tau)
                    .ok_or(EngineError::UntrainedMetric(metric))?;
                EngineArtifact {
                    version: ARTIFACT_VERSION,
                    deployment,
                    training,
                    trained,
                    metrics: vec![metric],
                    thresholds: vec![threshold],
                    tau: Some(tau),
                }
            }
            None => {
                return Err(EngineError::Parse(
                    "not a LAD engine artifact (no `version` field)".into(),
                ))
            }
        };
        Self::from_artifact(artifact)
    }

    /// Rebuilds an engine from a deserialised artifact.
    pub fn from_artifact(artifact: EngineArtifact) -> Result<Self, EngineError> {
        if artifact.version != ARTIFACT_VERSION {
            return Err(EngineError::UnsupportedVersion {
                found: artifact.version as u64,
            });
        }
        if !artifact.thresholds.is_empty() && artifact.thresholds.len() != artifact.metrics.len() {
            return Err(EngineError::MismatchedThresholds {
                metrics: artifact.metrics.len(),
                thresholds: artifact.thresholds.len(),
            });
        }
        let knowledge = DeploymentKnowledge::shared(&artifact.deployment);
        let localizer: Arc<dyn LocalizationScheme> = Arc::new(artifact.training.localizer);
        Ok(Self::assemble(knowledge, artifact, localizer))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lad_localization::BeaconlessMle;

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
    fn verify_batch_matches_sequential_verify() {
        let engine = engine();
        let network = Network::generate(engine.knowledge().clone(), 123);
        let requests: Vec<DetectionRequest> = (0..40u32)
            .filter_map(|i| {
                let node = NodeId(i * 7);
                let obs = network.true_observation(node);
                let estimate = engine.localizer().estimate(engine.knowledge(), &obs)?;
                Some(DetectionRequest::new(obs, estimate))
            })
            .collect();
        assert!(requests.len() > 20);
        let batched = engine.verify_batch(&requests);
        for (req, verdict) in requests.iter().zip(&batched) {
            assert_eq!(*verdict, engine.verify(&req.observation, req.estimate));
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
    fn score_batch_matches_per_metric_score_at() {
        let engine = engine();
        let knowledge = engine.knowledge();
        let obs = Observation::from_counts(vec![2; knowledge.group_count()]);
        let at = Point2::new(150.0, 220.0);
        let batch = engine.score_batch(&[DetectionRequest::new(obs.clone(), at)]);
        assert_eq!(batch.len(), 1);
        for (i, kind) in MetricKind::ALL.into_iter().enumerate() {
            let single = kind.metric().score_at(knowledge, &obs, at);
            assert!(
                (batch[0][i] - single).abs() < 1e-12,
                "{}: batched {} vs single {single}",
                kind.name(),
                batch[0][i]
            );
        }
    }

    #[test]
    fn score_batch_into_matches_score_batch_row_by_row() {
        let engine = engine();
        let network = Network::generate(engine.knowledge().clone(), 77);
        let requests: Vec<DetectionRequest> = (0..700u32)
            .map(|i| {
                let node = NodeId(i % network.node_count() as u32);
                let obs = network.true_observation(node);
                let at = Point2::new(20.0 + (i as f64 * 7.3) % 400.0, (i as f64 * 11.9) % 400.0);
                DetectionRequest::new(obs, at)
            })
            .collect();
        let nested = engine.score_batch(&requests);
        let mut flat = vec![42.0; 3]; // pre-existing garbage must be cleared
        engine.score_batch_into(&requests, &mut flat);
        assert_eq!(flat.len(), requests.len() * engine.metrics().len());
        for (row, nested_row) in flat.chunks(engine.metrics().len()).zip(&nested) {
            assert_eq!(row, nested_row.as_slice());
        }
        // The sequential primitive produces the same rows.
        let mut seq = vec![0.0; requests.len() * engine.metrics().len()];
        engine.score_seq_into(&requests, &mut seq);
        assert_eq!(seq, flat);
        // Empty batches leave an empty buffer.
        engine.score_batch_into(&[], &mut flat);
        assert!(flat.is_empty());
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
        let scores = engine.score(&obs, Point2::new(100.0, 100.0));
        assert_eq!(scores.len(), 3);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.verify(&obs, Point2::new(100.0, 100.0))
        }));
        assert!(result.is_err(), "verify on a score-only engine must panic");
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
        assert_eq!(engine.trained().sample_count(MetricKind::Diff), 0);
        assert!(engine.tau().is_none());
        let obs = Observation::zeros(engine.knowledge().group_count());
        let verdict = engine.verify(&obs, Point2::new(200.0, 200.0));
        assert_eq!(verdict.verdicts[0].threshold, 30.0);
    }

    #[test]
    fn custom_localization_scheme_is_used() {
        struct Pin(Point2);
        impl LocalizationScheme for Pin {
            fn scheme_name(&self) -> &'static str {
                "pin"
            }
            fn estimate(
                &self,
                _knowledge: &DeploymentKnowledge,
                _obs: &Observation,
            ) -> Option<Point2> {
                Some(self.0)
            }
        }
        let engine = LadEngine::builder()
            .deployment(&DeploymentConfig::small_test())
            .metric(MetricKind::Diff)
            .thresholds(vec![1e9])
            .localizer(Pin(Point2::new(42.0, 43.0)))
            .build()
            .unwrap();
        let network = Network::generate(engine.knowledge().clone(), 9);
        let (estimate, _) = engine.localize_and_verify(&network, NodeId(3)).unwrap();
        assert_eq!(estimate, Point2::new(42.0, 43.0));
        assert_eq!(engine.localizer().scheme_name(), "pin");
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
