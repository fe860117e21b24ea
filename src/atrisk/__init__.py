"""Early-warning pipeline for at-risk students in paid online courses."""

from .augmentation import WEIGHTINGS, AugmentationConfig, augment
from .events import Cohort, CohortSummary, ColumnSchema, ObservationPair, StudentRecord, cohort_stats, ingest, write_events
from .features import FeatureSpace, PCAModel, TeacherHistoryIndex, TimelineIndex, assemble, build_teacher_history, fit_pca
from .gbdt import GBDTConfig, GBDTModel
from .labeling import PairSet, build_original_pairs, horizon_label
from .pipeline import PipelineConfig, TrainedPipeline, run_sweep, train
from .synthgen import SimConfig, generate, generate_cohort
from .trainer import SamplerConfig, fit_gbdt, oversample
from .evaluation import EvalReport, auc, evaluate_horizons, split_students

__version__ = "0.1.0"
