//! The typed stage abstraction: each pipeline step is a [`Stage`] with a
//! concrete input and output type, so the engine can time and instrument
//! any step uniformly while the compiler keeps the wiring honest.

use std::sync::Arc;

use datalens_detect::{ConsolidatedDetections, Detection, DetectionContext, Detector};
use datalens_fd::{hyfd, tane, FdRule, HyFdConfig, RuleSet, TaneConfig};
use datalens_profile::{BuildOptions, ProfileCache, ProfileConfig, ProfileReport};
use datalens_repair::{RepairContext, RepairResult, Repairer};
use datalens_table::{CellRef, Table};

use super::report::StageKind;
use crate::quality::QualityMetrics;

/// One typed unit of pipeline work. The lifetime `'a` ties borrowed
/// inputs (tables, contexts) to the caller's scope.
pub trait Stage<'a> {
    type Input: 'a;
    type Output;

    /// Which pipeline stage this is.
    fn kind(&self) -> StageKind;

    /// Tool / miner name for the report (empty when not applicable).
    fn detail(&self) -> &str {
        ""
    }

    /// Do the work.
    fn execute(&self, input: Self::Input) -> Self::Output;

    /// How many flags (detections, rules, repairs) the output carries.
    fn flags(&self, _output: &Self::Output) -> usize {
        0
    }
}

/// Profile the table, fanning per-column and correlation-pair work out
/// across `threads` scoped threads and memoising through `cache` when
/// one is attached. The defaults (one thread, no cache) reproduce the
/// plain sequential build.
#[derive(Default)]
pub struct ProfileStage {
    /// Fan-out width; `0` or `1` run sequentially.
    pub threads: usize,
    /// Shared per-column profile / correlation-pair cache.
    pub cache: Option<Arc<ProfileCache>>,
}

impl<'a> Stage<'a> for ProfileStage {
    type Input = &'a Table;
    type Output = ProfileReport;

    fn kind(&self) -> StageKind {
        StageKind::Profile
    }

    fn execute(&self, table: Self::Input) -> ProfileReport {
        ProfileReport::build_with(
            table,
            &ProfileConfig::default(),
            &BuildOptions {
                threads: self.threads,
                cache: self.cache.as_deref(),
            },
        )
    }
}

/// Which FD miner the mine-rules stage runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MinerSpec {
    /// TANE, optionally approximate (g3 error ≤ `max_g3_error`).
    Tane { max_g3_error: f64 },
    /// HyFD with its sampling seed.
    HyFd { seed: u64 },
}

/// Mine FD rules with the configured miner.
pub struct MineRulesStage {
    pub spec: MinerSpec,
}

impl<'a> Stage<'a> for MineRulesStage {
    type Input = &'a Table;
    type Output = Vec<FdRule>;

    fn kind(&self) -> StageKind {
        StageKind::MineRules
    }

    fn detail(&self) -> &str {
        match self.spec {
            MinerSpec::Tane { .. } => "tane",
            MinerSpec::HyFd { .. } => "hyfd",
        }
    }

    fn execute(&self, table: Self::Input) -> Vec<FdRule> {
        match self.spec {
            MinerSpec::Tane { max_g3_error } => tane(
                table,
                &TaneConfig {
                    max_g3_error,
                    ..TaneConfig::default()
                },
            ),
            MinerSpec::HyFd { seed } => hyfd(
                table,
                &HyFdConfig {
                    seed,
                    ..HyFdConfig::default()
                },
            ),
        }
    }

    fn flags(&self, output: &Vec<FdRule>) -> usize {
        output.len()
    }
}

/// Run one detection tool.
pub struct DetectStage<'d> {
    pub detector: &'d dyn Detector,
}

impl<'a, 'd> Stage<'a> for DetectStage<'d> {
    type Input = (&'a Table, &'a DetectionContext);
    type Output = Detection;

    fn kind(&self) -> StageKind {
        StageKind::Detect
    }

    fn detail(&self) -> &str {
        self.detector.name()
    }

    fn execute(&self, (table, ctx): Self::Input) -> Detection {
        self.detector.detect(table, ctx)
    }

    fn flags(&self, output: &Detection) -> usize {
        output.len()
    }
}

/// Merge per-tool detections. Detections are sorted by tool name first,
/// so the consolidated output is identical no matter in which order (or
/// on which thread) the detect stages finished.
pub struct ConsolidateStage;

impl<'a> Stage<'a> for ConsolidateStage {
    type Input = Vec<Detection>;
    type Output = ConsolidatedDetections;

    fn kind(&self) -> StageKind {
        StageKind::Consolidate
    }

    fn execute(&self, mut detections: Self::Input) -> ConsolidatedDetections {
        detections.sort_by(|a, b| a.tool.cmp(&b.tool));
        ConsolidatedDetections::merge(detections)
    }

    fn flags(&self, output: &ConsolidatedDetections) -> usize {
        output.total()
    }
}

/// Repair the flagged cells with one repair tool.
pub struct RepairStage<'d> {
    pub repairer: &'d dyn Repairer,
}

impl<'a, 'd> Stage<'a> for RepairStage<'d> {
    type Input = (&'a Table, &'a [CellRef], &'a RepairContext);
    type Output = RepairResult;

    fn kind(&self) -> StageKind {
        StageKind::Repair
    }

    fn detail(&self) -> &str {
        self.repairer.name()
    }

    fn execute(&self, (table, errors, ctx): Self::Input) -> RepairResult {
        self.repairer.repair(table, errors, ctx)
    }

    fn flags(&self, output: &RepairResult) -> usize {
        output.n_repaired()
    }
}

/// Compute the Data Quality panel metrics.
pub struct QualityStage;

impl<'a> Stage<'a> for QualityStage {
    type Input = (&'a Table, &'a RuleSet, usize);
    type Output = QualityMetrics;

    fn kind(&self) -> StageKind {
        StageKind::QualityEval
    }

    fn execute(&self, (table, rules, flagged): Self::Input) -> QualityMetrics {
        QualityMetrics::compute(table, rules, flagged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalens_detect::detector_by_name;
    use datalens_table::Column;

    fn table() -> Table {
        Table::new(
            "t",
            vec![
                Column::from_i64("a", [Some(1), Some(2), None]),
                Column::from_i64("b", [Some(1), Some(1), Some(1)]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn detect_stage_reports_tool_and_flags() {
        let det = detector_by_name("mv_detector").unwrap();
        let stage = DetectStage {
            detector: det.as_ref(),
        };
        assert_eq!(stage.kind(), StageKind::Detect);
        assert_eq!(stage.detail(), "mv_detector");
        let t = table();
        let out = stage.execute((&t, &DetectionContext::default()));
        assert_eq!(stage.flags(&out), 1);
    }

    #[test]
    fn consolidate_stage_sorts_tools_by_name() {
        let merged = ConsolidateStage.execute(vec![
            Detection::new("zz", vec![CellRef::new(0, 0)]),
            Detection::new("aa", vec![CellRef::new(1, 1)]),
        ]);
        let tools: Vec<&str> = merged.per_tool.iter().map(|d| d.tool.as_str()).collect();
        assert_eq!(tools, vec!["aa", "zz"]);
        assert_eq!(ConsolidateStage.flags(&merged), 2);
    }

    #[test]
    fn miner_spec_names() {
        assert_eq!(
            MineRulesStage {
                spec: MinerSpec::Tane { max_g3_error: 0.0 }
            }
            .detail(),
            "tane"
        );
        assert_eq!(
            MineRulesStage {
                spec: MinerSpec::HyFd { seed: 1 }
            }
            .detail(),
            "hyfd"
        );
    }
}
