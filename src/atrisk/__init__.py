"""Early-warning pipeline for at-risk students in paid online courses."""

from .augmentation import AugmentationConfig, WeightingFunction, augment, pseudo_days, weight_of
from .events import Cohort, CohortSummary, ColumnSchema, ObservationPair, StudentRecord, cohort_stats, ingest, write_events
from .features import FeatureConfig, PCAModel, TeacherHistoryIndex, assemble, build_teacher_history, fit_pca
from .gbdt import GBDTConfig, GBDTModel
from .labeling import TrainingPair, build_original_pairs, horizon_label
from .pipeline import PipelineConfig, TrainedPipeline, train
from .synthgen import SimConfig, generate, generate_cohort
from .trainer import SamplerConfig, fit_gbdt, oversample
from .evaluation import EvalReport, auc, evaluate_horizons, recall_at_fraction, run_sweep, split_students

__version__ = "0.1.0"
