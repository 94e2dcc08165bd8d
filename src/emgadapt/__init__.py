"""Cross-subject adaptation for windowed multichannel-signal classification.

The pipeline turns raw multichannel recordings into windowed feature
datasets (`signals`), trains kernel least-squares classifiers (`lssvm`),
and transfers knowledge from previously trained subjects to a new one via
three adaptation strategies (`multi_adapt`, `mkal`, `hl2l`) next to two
baselines (`baselines`).  `synth` generates reproducible synthetic
cohorts, `harness` runs the full cross-subject protocol, `analysis`
compares the resulting confusion matrices, and `cli` wires everything
into the `emgadapt` command.
"""

from .analysis import ConfusionMatrix, confusion, confusion_diff, top4_similarity
from .baselines import fit_no_transfer, fit_prior_features
from .harness import ExperimentConfig, SubjectData, run_experiment
from .hl2l import Hl2lModel, fit_hl2l, predict_hl2l
from .kernels import KernelSpec, gram
from .lssvm import LssvmModel, NumericalError
from .mkal import MkalModel, MkalSelection, fit_mkal, predict_mkal
from .model_selection import Grid, select
from .multi_adapt import MaModel, fit_ma, predict_ma
from .signals import Dataset, Recording, WindowSpec, build_subject_datasets
from .synth import SubjectSpec, generate_cohort, generate_recording

__version__ = "0.1.0"

__all__ = [
    "ConfusionMatrix",
    "Dataset",
    "ExperimentConfig",
    "Grid",
    "Hl2lModel",
    "KernelSpec",
    "LssvmModel",
    "MaModel",
    "MkalModel",
    "MkalSelection",
    "NumericalError",
    "Recording",
    "SubjectData",
    "SubjectSpec",
    "WindowSpec",
    "build_subject_datasets",
    "confusion",
    "confusion_diff",
    "fit_hl2l",
    "fit_ma",
    "fit_mkal",
    "fit_no_transfer",
    "fit_prior_features",
    "generate_cohort",
    "generate_recording",
    "gram",
    "predict_hl2l",
    "predict_ma",
    "predict_mkal",
    "run_experiment",
    "select",
    "top4_similarity",
    "__version__",
]
