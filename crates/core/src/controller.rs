//! The dashboard controller (Figure 1's central box): owns the dataset
//! state and orchestrates profiling, rule extraction, detection, repair,
//! versioning, tracking, and DataSheet generation.

use std::collections::BTreeMap;
use std::path::PathBuf;

use datalens_datasets::DirtyDataset;
use datalens_delta::DeltaTable;
use datalens_detect::{
    detector_by_name, ConsolidatedDetections, Detection, DetectionContext, Detector, RahaConfig,
    RahaSession, TaggedValueDetector,
};
use datalens_fd::{Fd, FdRule, RuleSet};
use datalens_profile::ProfileReport;
use datalens_repair::{repairer_by_name, RepairContext};
use datalens_table::{DatasetDir, Table};
use datalens_tracking::{Run, RunStatus, TrackingStore, EXPERIMENT_DETECTION, EXPERIMENT_REPAIR};

use crate::datasheet::DataSheet;
use crate::engine::{Engine, EngineConfig, MinerSpec, StageReport};
use crate::error::DataLensError;
use crate::ingest::{self, DataSource, SqlSource};
use crate::quality::QualityMetrics;
use crate::user::{RuleDecision, TagList, UserOracle};

/// Controller configuration.
#[derive(Debug, Clone, Default)]
pub struct DashboardConfig {
    /// Directory for dataset folders, Delta tables, and the tracking
    /// store. `None` = fully in-memory (no persistence, no versioning).
    pub workspace_dir: Option<PathBuf>,
    /// Seed for stochastic tools.
    pub seed: u64,
    /// Worker threads for the engine's detect fan-out (`0` = one per
    /// available core, `1` = sequential).
    pub threads: usize,
    /// Metrics registry; when set, the engine observes every stage's
    /// wall time into `engine_stage_ms{stage=…}` histograms.
    pub metrics: Option<std::sync::Arc<datalens_obs::Registry>>,
}

/// Which FD miner to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleMiner {
    Tane,
    HyFd,
}

/// Outcome of an interactive RAHA run (feeds Figure 3).
#[derive(Debug, Clone, PartialEq)]
pub struct RahaOutcome {
    pub detection: Detection,
    pub tuples_reviewed: usize,
    pub tuples_labeled: usize,
}

/// Everything the dashboard knows about the loaded dataset.
pub struct DatasetState {
    pub table: Table,
    pub source: DataSource,
    pub dataset_dir: Option<DatasetDir>,
    pub delta: Option<DeltaTable>,
    pub rules: RuleSet,
    pub tags: TagList,
    pub profile: Option<ProfileReport>,
    pub detections: Option<ConsolidatedDetections>,
    pub repaired: Option<Table>,
    pub detection_tools_used: Vec<String>,
    pub repair_tools_used: Vec<String>,
    pub tool_configurations: BTreeMap<String, String>,
    pub detect_version: Option<u64>,
    pub repaired_version: Option<u64>,
    /// Instrumentation for every stage the engine executed, in order.
    pub stage_reports: Vec<StageReport>,
}

/// The dashboard controller: a thin façade over the pipeline [`Engine`]
/// that owns the dataset state, persistence, and tracking.
pub struct DashboardController {
    config: DashboardConfig,
    engine: Engine,
    tracking: Option<TrackingStore>,
    state: Option<DatasetState>,
}

impl DashboardController {
    /// Create a controller; with a workspace dir, a tracking store is
    /// opened under `<workspace>/mlruns`.
    pub fn new(config: DashboardConfig) -> Result<DashboardController, DataLensError> {
        let tracking = match &config.workspace_dir {
            Some(dir) => Some(TrackingStore::new(dir.join("mlruns"))?),
            None => None,
        };
        let engine = Engine::new(EngineConfig {
            threads: config.threads,
            seed: config.seed,
        })
        .with_metrics(config.metrics.clone());
        Ok(DashboardController {
            config,
            engine,
            tracking,
            state: None,
        })
    }

    /// The pipeline engine this controller delegates to.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    // --- ingestion -------------------------------------------------------

    /// Load a preloaded dataset (dirty variant).
    pub fn ingest_preloaded(&mut self, name: &str) -> Result<(), DataLensError> {
        let (table, source) = ingest::preloaded(name, self.config.seed)?;
        self.install(table, source)
    }

    /// Load a preloaded dataset when the caller already has the ground
    /// truth (keeps the injected instance and the controller consistent).
    pub fn ingest_dirty_dataset(
        &mut self,
        dd: &DirtyDataset,
        name: &str,
    ) -> Result<(), DataLensError> {
        self.install(
            dd.dirty.clone(),
            DataSource::Preloaded { name: name.into() },
        )
    }

    /// Upload CSV text.
    pub fn ingest_csv_text(&mut self, file_name: &str, text: &str) -> Result<(), DataLensError> {
        let (table, source) = ingest::csv_upload(file_name, text)?;
        self.install(table, source)
    }

    /// Load a CSV file by path, streaming it into row-group chunks
    /// instead of slurping the whole file into a string first.
    pub fn ingest_csv_path(
        &mut self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<(), DataLensError> {
        let (table, source) = ingest::csv_file(path)?;
        self.install(table, source)
    }

    /// Load a table over a SQL connection.
    pub fn ingest_sql(
        &mut self,
        source: &dyn SqlSource,
        table_name: &str,
    ) -> Result<(), DataLensError> {
        let (table, src) = ingest::sql(source, table_name)?;
        self.install(table, src)
    }

    /// Load an in-memory table directly.
    pub fn ingest_table(&mut self, table: Table) -> Result<(), DataLensError> {
        self.install(table, DataSource::InMemory)
    }

    fn install(&mut self, table: Table, source: DataSource) -> Result<(), DataLensError> {
        // Per §2: a folder named after the upload, holding dirty.csv and
        // the Delta table, created on ingestion.
        let (dataset_dir, delta) = match &self.config.workspace_dir {
            Some(base) => {
                let dir = DatasetDir::create(base.join("datasets"), table.name())?;
                dir.store_dirty(&table)?;
                let delta = DeltaTable::open_or_create(dir.delta_path(), &table, "INGEST")?;
                (Some(dir), Some(delta))
            }
            None => (None, None),
        };
        self.state = Some(DatasetState {
            table,
            source,
            dataset_dir,
            delta,
            rules: RuleSet::new(),
            tags: TagList::new(),
            profile: None,
            detections: None,
            repaired: None,
            detection_tools_used: Vec::new(),
            repair_tools_used: Vec::new(),
            tool_configurations: BTreeMap::new(),
            detect_version: None,
            repaired_version: None,
            stage_reports: Vec::new(),
        });
        Ok(())
    }

    // --- accessors -------------------------------------------------------

    pub fn state(&self) -> Result<&DatasetState, DataLensError> {
        self.state
            .as_ref()
            .ok_or_else(|| DataLensError::State("no dataset loaded".into()))
    }

    fn state_mut(&mut self) -> Result<&mut DatasetState, DataLensError> {
        self.state
            .as_mut()
            .ok_or_else(|| DataLensError::State("no dataset loaded".into()))
    }

    pub fn table(&self) -> Result<&Table, DataLensError> {
        Ok(&self.state()?.table)
    }

    pub fn repaired_table(&self) -> Result<&Table, DataLensError> {
        self.state()?
            .repaired
            .as_ref()
            .ok_or_else(|| DataLensError::State("repair has not run".into()))
    }

    // --- profiling and rules ----------------------------------------------

    /// Run (and cache) the data profile.
    pub fn profile(&mut self) -> Result<&ProfileReport, DataLensError> {
        let engine = self.engine.clone();
        let state = self.state_mut()?;
        let report = match state.profile.take() {
            Some(report) => report,
            None => {
                let (report, stage) = engine.profile(&state.table);
                state.stage_reports.push(stage);
                report
            }
        };
        Ok(state.profile.insert(report))
    }

    /// Discover FD rules with the chosen miner; results land in the rule
    /// set as Pending.
    pub fn discover_rules(&mut self, miner: RuleMiner) -> Result<usize, DataLensError> {
        let spec = match miner {
            RuleMiner::Tane => MinerSpec::Tane { max_g3_error: 0.0 },
            RuleMiner::HyFd => MinerSpec::HyFd {
                seed: self.config.seed,
            },
        };
        self.mine_rules(spec)
    }

    /// Discover *approximate* FDs (g3 error ≤ `max_g3_error`) with TANE —
    /// the practical mode on dirty data, where the true dependencies are
    /// violated by the very errors we are hunting.
    pub fn discover_rules_approx(&mut self, max_g3_error: f64) -> Result<usize, DataLensError> {
        self.mine_rules(MinerSpec::Tane { max_g3_error })
    }

    fn mine_rules(&mut self, spec: MinerSpec) -> Result<usize, DataLensError> {
        let engine = self.engine.clone();
        let state = self.state_mut()?;
        let (discovered, stage) = engine.mine_rules(&state.table, spec);
        state.stage_reports.push(stage);
        let mut added = 0;
        for r in discovered {
            if state.rules.add(r) {
                added += 1;
            }
        }
        Ok(added)
    }

    /// Apply a user decision to a rule.
    pub fn decide_rule(&mut self, fd: &Fd, decision: RuleDecision) -> Result<bool, DataLensError> {
        let state = self.state_mut()?;
        Ok(match decision {
            RuleDecision::Confirm => state.rules.confirm(fd),
            RuleDecision::Reject => state.rules.reject(fd),
            RuleDecision::Modify(replacement) => state.rules.modify(fd, replacement),
        })
    }

    /// Add a user-defined rule. Determinant and dependent columns must
    /// exist.
    pub fn add_custom_rule(&mut self, fd: Fd) -> Result<bool, DataLensError> {
        let state = self.state_mut()?;
        for col in fd.lhs.iter().chain(std::iter::once(&fd.rhs)) {
            if state.table.column_index(col).is_none() {
                return Err(DataLensError::Unknown(format!("column {col:?}")));
            }
        }
        Ok(state.rules.add(FdRule::user_defined(fd)))
    }

    /// Add a rule written in the plain-text grammar (`zip -> city`,
    /// `zip determines city`, `city depends on zip`) — the paper's
    /// NL-rule-definition extension.
    pub fn add_rule_from_text(&mut self, text: &str) -> Result<bool, DataLensError> {
        let fd = Fd::parse(text)
            .ok_or_else(|| DataLensError::Unknown(format!("unparseable rule {text:?}")))?;
        self.add_custom_rule(fd)
    }

    pub fn rules(&self) -> Result<&RuleSet, DataLensError> {
        Ok(&self.state()?.rules)
    }

    /// Recommend detection tools for the loaded dataset based on its
    /// profile and rules (profiles on demand).
    pub fn recommend_detection_tools(
        &mut self,
    ) -> Result<Vec<crate::recommend::Recommendation>, DataLensError> {
        self.profile()?;
        let state = self.state()?;
        let profile = state.profile.as_ref().expect("profiled above");
        Ok(crate::recommend::recommend_tools(profile, &state.rules))
    }

    /// Tag a known-dirty value (§3 data tagging).
    pub fn tag_value(&mut self, value: impl Into<String>) -> Result<bool, DataLensError> {
        Ok(self.state_mut()?.tags.add(value))
    }

    // --- detection ---------------------------------------------------------

    fn detection_context(&self) -> Result<DetectionContext, DataLensError> {
        let state = self.state()?;
        Ok(DetectionContext {
            rules: state.rules.clone(),
            tagged_values: state.tags.values().to_vec(),
            seed: self.config.seed,
        })
    }

    /// Run the named detectors (plus user tags when any are set) through
    /// the engine — fanning out across threads when configured — then
    /// consolidate, version-stamp, and log to MLflow-style tracking.
    pub fn run_detection(&mut self, tools: &[&str]) -> Result<usize, DataLensError> {
        let ctx = self.detection_context()?;
        let mut detectors: Vec<Box<dyn Detector>> = Vec::with_capacity(tools.len() + 1);
        for name in tools {
            detectors.push(
                detector_by_name(name)
                    .ok_or_else(|| DataLensError::Unknown(format!("detector {name:?}")))?,
            );
        }
        let (detections, reports) = {
            let state = self.state()?;
            if !state.tags.is_empty() && !tools.contains(&"user_tags") {
                detectors.push(Box::new(TaggedValueDetector));
            }
            self.engine.detect_all(&state.table, &ctx, &detectors)
        };
        self.record_detection(tools, detections, reports)
    }

    /// Record externally-produced detections (e.g. an interactive RAHA
    /// run) alongside tool detections.
    pub fn finish_detection(
        &mut self,
        tools: &[&str],
        detections: Vec<Detection>,
    ) -> Result<usize, DataLensError> {
        self.record_detection(tools, detections, Vec::new())
    }

    /// Consolidate detections (deterministic name-sorted order), stamp
    /// the Delta version, persist stage metrics, and update state.
    fn record_detection(
        &mut self,
        tools: &[&str],
        detections: Vec<Detection>,
        mut reports: Vec<StageReport>,
    ) -> Result<usize, DataLensError> {
        let dims = {
            let t = &self.state()?.table;
            (t.n_rows(), t.n_rows() * t.n_cols())
        };
        let (merged, consolidate_report) = self.engine.consolidate(detections, dims);
        reports.push(consolidate_report);
        let total = merged.total();

        // Tracking: one run per detection batch, with per-stage wall time.
        if let Some(store) = &self.tracking {
            let exp = store.get_or_create_experiment(EXPERIMENT_DETECTION)?;
            let run = store.start_run(&exp, &format!("detect {}", tools.join("+")))?;
            run.log_param("tools", &tools.join(","))?;
            run.log_metric("n_detections", total as f64, 0)?;
            for det in &merged.per_tool {
                run.log_metric(&format!("n_{}", det.tool), det.len() as f64, 0)?;
            }
            log_stage_metrics(&run, &reports)?;
            run.log_artifact(
                "detections.json",
                serde_json::to_vec(&merged.union)
                    .map_err(|e| DataLensError::DataSheet(e.to_string()))?
                    .as_slice(),
            )?;
            run.end(RunStatus::Finished)?;
        }

        let state = self.state_mut()?;
        state.detect_version = state
            .delta
            .as_ref()
            .map(|d| d.latest_version())
            .transpose()?;
        for t in tools {
            if !state.detection_tools_used.contains(&t.to_string()) {
                state.detection_tools_used.push(t.to_string());
            }
        }
        state.stage_reports.extend(reports);
        state.detections = Some(merged);
        Ok(total)
    }

    /// Drive an interactive RAHA session with a user oracle. The paper's
    /// flow: RAHA starts with the other tools but resolves only after the
    /// user finishes labeling.
    pub fn run_raha_with_user(
        &mut self,
        config: RahaConfig,
        user: &mut dyn UserOracle,
    ) -> Result<RahaOutcome, DataLensError> {
        let ctx = self.detection_context()?;
        let state = self.state()?;
        let mut session = RahaSession::new(&state.table, &ctx, config);
        while let Some(row) = session.next_tuple() {
            let dirty_cols = user.review_tuple(&state.table, row);
            session.label_tuple(row, &dirty_cols);
        }
        let detection = session.finish();
        Ok(RahaOutcome {
            detection,
            tuples_reviewed: session.reviewed_count(),
            tuples_labeled: session.labeled_dirty_count(),
        })
    }

    pub fn detections(&self) -> Result<&ConsolidatedDetections, DataLensError> {
        self.state()?
            .detections
            .as_ref()
            .ok_or_else(|| DataLensError::State("detection has not run".into()))
    }

    /// Explain why the first `limit` flagged cells were flagged (the
    /// paper's explainability extension).
    pub fn explain_detections(
        &self,
        limit: usize,
    ) -> Result<Vec<datalens_detect::CellExplanation>, DataLensError> {
        let state = self.state()?;
        let merged = state
            .detections
            .as_ref()
            .ok_or_else(|| DataLensError::State("detection has not run".into()))?;
        Ok(datalens_detect::explain_all(&state.table, merged, limit))
    }

    // --- repair ------------------------------------------------------------

    /// Repair the consolidated detections with the named tool; stores
    /// `repaired.csv`, commits a new Delta version, and logs the run.
    pub fn repair(&mut self, tool: &str) -> Result<usize, DataLensError> {
        let repairer = repairer_by_name(tool)
            .ok_or_else(|| DataLensError::Unknown(format!("repair tool {tool:?}")))?;
        let seed = self.config.seed;
        let (result, stage_report, errors_len) = {
            let state = self.state()?;
            let detections = state
                .detections
                .as_ref()
                .ok_or_else(|| DataLensError::State("repair requires detection results".into()))?;
            // Cheap share: the rule set is copy-on-write behind `Arc`.
            let ctx = RepairContext {
                rules: state.rules.clone(),
                seed,
            };
            let (result, stage_report) =
                self.engine
                    .repair(&state.table, &detections.union, &ctx, repairer.as_ref());
            (result, stage_report, detections.total())
        };
        let n_repaired = result.n_repaired();

        if let Some(store) = &self.tracking {
            let exp = store.get_or_create_experiment(EXPERIMENT_REPAIR)?;
            let run = store.start_run(&exp, &format!("repair {tool}"))?;
            run.log_param("tool", tool)?;
            run.log_param("n_error_cells", &errors_len.to_string())?;
            run.log_metric("n_repaired", n_repaired as f64, 0)?;
            log_stage_metrics(&run, std::slice::from_ref(&stage_report))?;
            run.end(RunStatus::Finished)?;
        }

        let state = self.state_mut()?;
        if let Some(dir) = &state.dataset_dir {
            dir.store_repaired(&result.table)?;
        }
        if let Some(delta) = &state.delta {
            let mut params = BTreeMap::new();
            params.insert("tool".to_string(), tool.to_string());
            state.repaired_version = Some(delta.commit_with(&result.table, "REPAIR", params)?);
        }
        if !state.repair_tools_used.contains(&tool.to_string()) {
            state.repair_tools_used.push(tool.to_string());
        }
        state.stage_reports.push(stage_report);
        state.repaired = Some(result.table);
        Ok(n_repaired)
    }

    /// Drop exact duplicate rows from the working table (the simple
    /// cleaning step the paper's introduction names). Invalidates cached
    /// profile/detections (row indices shift). Returns rows removed.
    pub fn drop_duplicates(&mut self) -> Result<usize, DataLensError> {
        let state = self.state_mut()?;
        let before = state.table.n_rows();
        let deduped = state.table.drop_duplicates();
        let removed = before - deduped.n_rows();
        if removed > 0 {
            state.table = deduped;
            state.profile = None;
            state.detections = None;
            state.repaired = None;
            if let Some(delta) = &state.delta {
                let mut params = BTreeMap::new();
                params.insert("rows_removed".to_string(), removed.to_string());
                delta.commit_with(&state.table, "DEDUPLICATE", params)?;
            }
        }
        Ok(removed)
    }

    // --- outputs -----------------------------------------------------------

    /// The Data Quality panel for the current (dirty) table.
    pub fn quality(&self) -> Result<QualityMetrics, DataLensError> {
        Ok(self.quality_stage()?.0)
    }

    /// Run the quality-eval stage, returning metrics plus its report.
    fn quality_stage(&self) -> Result<(QualityMetrics, StageReport), DataLensError> {
        let state = self.state()?;
        let flagged = state.detections.as_ref().map(|d| d.total()).unwrap_or(0);
        Ok(self.engine.quality(&state.table, &state.rules, flagged))
    }

    /// Stage instrumentation for everything the engine ran so far.
    pub fn stage_reports(&self) -> Result<&[StageReport], DataLensError> {
        Ok(&self.state()?.stage_reports)
    }

    /// Generate the DataSheet for the current pipeline state.
    pub fn generate_datasheet(&self) -> Result<DataSheet, DataLensError> {
        let state = self.state()?;
        let (quality, quality_report) = self.quality_stage()?;
        let mut stage_reports = state.stage_reports.clone();
        stage_reports.push(quality_report);
        Ok(DataSheet {
            datasheet_version: 1,
            dataset_name: state.table.name().to_string(),
            source: state.source.clone(),
            dirty_path: state
                .dataset_dir
                .as_ref()
                .map(|d| d.dirty_path().display().to_string()),
            repaired_path: state
                .dataset_dir
                .as_ref()
                .filter(|_| state.repaired.is_some())
                .map(|d| d.repaired_path().display().to_string()),
            shape: state.table.shape(),
            detection_tools: state.detection_tools_used.clone(),
            n_erroneous_cells: state.detections.as_ref().map(|d| d.total()).unwrap_or(0),
            repair_tools: state.repair_tools_used.clone(),
            tool_configurations: state.tool_configurations.clone(),
            rules: state.rules.active().map(|r| r.fd.to_string()).collect(),
            tagged_values: state.tags.values().to_vec(),
            detect_version: state.detect_version,
            repaired_version: state.repaired_version,
            quality_metrics: quality.as_map(),
            stage_reports,
            seed: self.config.seed,
        })
    }

    /// Reproduce a pipeline from a DataSheet: re-run the recorded
    /// detection tools and repair tools on the currently loaded dataset.
    pub fn replay_datasheet(&mut self, sheet: &DataSheet) -> Result<(), DataLensError> {
        for v in &sheet.tagged_values {
            self.tag_value(v.clone())?;
        }
        let tools: Vec<&str> = sheet
            .detection_tools
            .iter()
            .map(String::as_str)
            .filter(|t| *t != "raha") // interactive; cannot replay unattended
            .collect();
        if !tools.is_empty() {
            self.run_detection(&tools)?;
        }
        for tool in &sheet.repair_tools {
            self.repair(tool)?;
        }
        Ok(())
    }

    /// The tracking store (None for in-memory controllers).
    pub fn tracking(&self) -> Option<&TrackingStore> {
        self.tracking.as_ref()
    }
}

/// Persist per-stage wall-time metrics onto a tracking run.
fn log_stage_metrics(run: &Run, reports: &[StageReport]) -> Result<(), DataLensError> {
    for r in reports {
        run.log_metric(&format!("wall_ms_{}", r.label()), r.wall_ms, 0)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalens_table::Column;

    fn tmp_workspace(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("datalens_ctrl_{}_{name}", std::process::id()));
        std::fs::remove_dir_all(&p).ok();
        p
    }

    fn controller() -> DashboardController {
        DashboardController::new(DashboardConfig::default()).unwrap()
    }

    fn dirty_csv() -> &'static str {
        // zip→city FD with one violation (row 4), outlier in pop (row 2),
        // null in pop (row 5).
        "zip,city,pop\n1,ulm,120\n1,ulm,120\n2,bonn,99999\n2,bonn,330\n1,oops,120\n3,mainz,\n"
    }

    #[test]
    fn full_pipeline_in_memory() {
        let mut c = controller();
        c.ingest_csv_text("demo.csv", dirty_csv()).unwrap();
        assert_eq!(c.table().unwrap().shape(), (6, 3));

        let profile = c.profile().unwrap();
        assert_eq!(profile.table.n_rows, 6);

        // Exact FDs don't survive the injected violation; approximate
        // discovery (the dirty-data mode) finds zip → city with g3 = 1/6.
        let added = c.discover_rules_approx(0.2).unwrap();
        assert!(added > 0);
        assert!(c
            .rules()
            .unwrap()
            .rules()
            .iter()
            .any(|r| r.fd.to_string() == "[zip] -> city"));

        let n = c
            .run_detection(&["sd", "iqr", "mv_detector", "nadeef"])
            .unwrap();
        assert!(n > 0, "no detections");
        let det = c.detections().unwrap();
        assert!(det
            .per_tool
            .iter()
            .any(|d| d.tool == "nadeef" && !d.is_empty()));

        let repaired = c.repair("standard_imputer").unwrap();
        assert!(repaired > 0);
        assert_eq!(c.repaired_table().unwrap().null_count(), 0);

        let sheet = c.generate_datasheet().unwrap();
        assert_eq!(sheet.shape, (6, 3));
        assert!(sheet.n_erroneous_cells > 0);
        assert_eq!(sheet.repair_tools, vec!["standard_imputer"]);
        assert!(!sheet.rules.is_empty());
    }

    #[test]
    fn profile_is_memoised() {
        let mut c = controller();
        c.ingest_csv_text("demo.csv", dirty_csv()).unwrap();
        let first = c.profile().unwrap().clone();
        let stages_after_first = c.stage_reports().unwrap().len();
        // A second call serves the memoised report: no new stage ran.
        assert_eq!(c.profile().unwrap(), &first);
        assert_eq!(c.stage_reports().unwrap().len(), stages_after_first);
    }

    #[test]
    fn state_errors_before_prerequisites() {
        let mut c = controller();
        assert!(matches!(c.table(), Err(DataLensError::State(_))));
        assert!(matches!(c.profile(), Err(DataLensError::State(_))));
        c.ingest_csv_text("d.csv", "a\n1\n").unwrap();
        assert!(matches!(c.detections(), Err(DataLensError::State(_))));
        assert!(matches!(
            c.repair("standard_imputer"),
            Err(DataLensError::State(_))
        ));
        assert!(matches!(
            c.run_detection(&["not_a_tool"]),
            Err(DataLensError::Unknown(_))
        ));
    }

    #[test]
    fn workspace_persists_versions_and_runs() {
        let ws = tmp_workspace("persist");
        let mut c = DashboardController::new(DashboardConfig {
            workspace_dir: Some(ws.clone()),
            seed: 0,
            ..Default::default()
        })
        .unwrap();
        c.ingest_csv_text("demo.csv", dirty_csv()).unwrap();
        c.run_detection(&["mv_detector", "sd"]).unwrap();
        c.repair("standard_imputer").unwrap();

        let sheet = c.generate_datasheet().unwrap();
        assert_eq!(sheet.detect_version, Some(0));
        assert_eq!(sheet.repaired_version, Some(1));
        assert!(sheet.dirty_path.as_ref().unwrap().ends_with("dirty.csv"));

        // Delta: version 0 = dirty, version 1 = repaired.
        let state = c.state().unwrap();
        let delta = state.delta.as_ref().unwrap();
        assert_eq!(delta.latest_version().unwrap(), 1);
        let v0 = delta.load_version(0).unwrap();
        assert_eq!(v0.null_count(), 1);
        let v1 = delta.load_version(1).unwrap();
        assert_eq!(v1.null_count(), 0);

        // Tracking: Detection and Repair experiments with one run each.
        let store = c.tracking().unwrap();
        let exps = store.list_experiments().unwrap();
        assert_eq!(exps.len(), 2);
        for exp in exps {
            assert_eq!(store.list_runs(&exp).unwrap().len(), 1);
        }
        std::fs::remove_dir_all(&ws).ok();
    }

    #[test]
    fn rule_validation_flow() {
        let mut c = controller();
        c.ingest_csv_text("demo.csv", dirty_csv()).unwrap();
        c.discover_rules(RuleMiner::HyFd).unwrap();
        let some_fd = c.rules().unwrap().rules()[0].fd.clone();
        assert!(c.decide_rule(&some_fd, RuleDecision::Reject).unwrap());
        // Custom rule referencing a real column pair.
        let custom = Fd::new(vec!["zip".into()], "city".into()).unwrap();
        let _ = c.add_custom_rule(custom); // may duplicate a discovered rule
        let bad = Fd::new(vec!["nope".into()], "city".into()).unwrap();
        assert!(matches!(
            c.add_custom_rule(bad),
            Err(DataLensError::Unknown(_))
        ));
    }

    #[test]
    fn natural_language_rules_and_explanations() {
        let mut c = controller();
        c.ingest_csv_text("demo.csv", dirty_csv()).unwrap();
        assert!(c.add_rule_from_text("zip determines city").unwrap());
        assert!(matches!(
            c.add_rule_from_text("gibberish sentence"),
            Err(DataLensError::Unknown(_))
        ));
        assert!(matches!(
            c.add_rule_from_text("ghost_column determines city"),
            Err(DataLensError::Unknown(_))
        ));
        c.run_detection(&["sd", "nadeef"]).unwrap();
        let explanations = c.explain_detections(10).unwrap();
        assert!(!explanations.is_empty());
        assert!(explanations.iter().all(|e| !e.reasons.is_empty()));
    }

    #[test]
    fn tagging_feeds_detection() {
        let mut c = controller();
        c.ingest_csv_text("demo.csv", "x\n-1\n5\n7\n").unwrap();
        c.tag_value("-1").unwrap();
        let n = c.run_detection(&["mv_detector"]).unwrap();
        assert_eq!(n, 1); // the tagged -1, via the implicit user_tags pass
        let det = c.detections().unwrap();
        assert!(det.per_tool.iter().any(|d| d.tool == "user_tags"));
    }

    #[test]
    fn raha_with_simulated_user() {
        let dd = datalens_datasets::registry::dirty("nasa", 2).unwrap();
        let mut c = controller();
        c.ingest_dirty_dataset(&dd, "nasa").unwrap();
        let mut user = crate::user::SimulatedUser::perfect(&dd);
        let outcome = c
            .run_raha_with_user(
                RahaConfig {
                    labeling_budget: 10,
                    ..Default::default()
                },
                &mut user,
            )
            .unwrap();
        assert!(outcome.tuples_reviewed >= outcome.tuples_labeled);
        assert!(outcome.tuples_labeled <= 10);
        // Feed into consolidation alongside a stat tool.
        let sd = detector_by_name("sd")
            .unwrap()
            .detect(c.table().unwrap(), &DetectionContext::default());
        c.finish_detection(&["raha", "sd"], vec![outcome.detection, sd])
            .unwrap();
        assert!(c.detections().unwrap().total() > 0);
    }

    #[test]
    fn datasheet_replay_reproduces_pipeline() {
        let mut c1 = controller();
        c1.ingest_csv_text("demo.csv", dirty_csv()).unwrap();
        c1.tag_value("99999").unwrap();
        c1.run_detection(&["sd", "mv_detector"]).unwrap();
        c1.repair("standard_imputer").unwrap();
        let sheet = c1.generate_datasheet().unwrap();

        let mut c2 = controller();
        c2.ingest_csv_text("demo.csv", dirty_csv()).unwrap();
        c2.replay_datasheet(&sheet).unwrap();
        assert_eq!(
            c2.detections().unwrap().total(),
            c1.detections().unwrap().total()
        );
        assert_eq!(c2.repaired_table().unwrap(), c1.repaired_table().unwrap());
    }

    #[test]
    fn quality_improves_after_repair() {
        let mut c = controller();
        c.ingest_csv_text("demo.csv", dirty_csv()).unwrap();
        c.discover_rules(RuleMiner::Tane).unwrap();
        let before = c.quality().unwrap();
        c.run_detection(&["mv_detector", "sd"]).unwrap();
        c.repair("ml_imputer").unwrap();
        // Re-ingest the repaired table to measure its quality.
        let repaired = c.repaired_table().unwrap().clone();
        let mut c2 = controller();
        c2.ingest_table(repaired).unwrap();
        let after = c2.quality().unwrap();
        assert!(after.completeness >= before.completeness);
    }

    #[test]
    fn drop_duplicates_invalidates_downstream_state() {
        let mut c = controller();
        c.ingest_csv_text("d.csv", "a,b\n1,x\n1,x\n2,y\n").unwrap();
        c.run_detection(&["mv_detector"]).unwrap();
        let removed = c.drop_duplicates().unwrap();
        assert_eq!(removed, 1);
        assert_eq!(c.table().unwrap().n_rows(), 2);
        // Detections were computed against the old row indices: cleared.
        assert!(matches!(c.detections(), Err(DataLensError::State(_))));
        // No duplicates → no-op, state kept.
        c.run_detection(&["mv_detector"]).unwrap();
        assert_eq!(c.drop_duplicates().unwrap(), 0);
        assert!(c.detections().is_ok());
    }

    #[test]
    fn sql_ingestion_through_controller() {
        let db = crate::ingest::InMemorySqlSource::new("warehouse").with_table(
            Table::new("sales", vec![Column::from_i64("amt", [Some(5), Some(7)])]).unwrap(),
        );
        let mut c = controller();
        c.ingest_sql(&db, "sales").unwrap();
        assert_eq!(c.table().unwrap().name(), "sales");
    }
}
