"""Robustness evaluation via attack bundling.

Run several adversarial attacks against every clean example, pick the best
candidate per example under a configurable criterion, and report bundled
error rates alongside the per-attack tables they dominate.
"""

from .attacks import AttackConfig, Candidate, fgsm, pgd, project, uniform_noise
from .bundler import (BudgetPolicy, BundleResult, CandidateScore, Criterion,
                      OutcomeMatrix, bundle, prefer, reselect,
                      schedule, score, score_stochastic, select_by_ensemble,
                      wat_gap_construction)
from .config import (ExperimentConfig, load_experiment_config,
                     parse_experiment_config, serialize_experiment_config)
from .data import Dataset, Example, load_dataset_csv, save_dataset_csv, synth_dataset
from .models import (Ensemble, ModelParams, Prediction, StochasticSpec,
                     TrainParams, input_gradient, load_model, predict,
                     predict_stochastic, save_model, train)
from .reporting import (NormCurve, RateTable, SuccessFailCurve, make_tables,
                        norm_curve, success_fail_curve,
                        wat_underestimation_report)
from .seeding import derive_seed

__version__ = "0.1.0"

__all__ = [
    "AttackConfig", "Candidate", "fgsm", "pgd", "project", "uniform_noise",
    "BudgetPolicy", "BundleResult", "CandidateScore", "Criterion",
    "OutcomeMatrix", "bundle", "prefer", "reselect",
    "schedule", "score", "score_stochastic", "select_by_ensemble",
    "wat_gap_construction",
    "ExperimentConfig", "load_experiment_config", "parse_experiment_config",
    "serialize_experiment_config",
    "Dataset", "Example", "load_dataset_csv", "save_dataset_csv", "synth_dataset",
    "Ensemble", "ModelParams", "Prediction", "StochasticSpec", "TrainParams",
    "input_gradient", "load_model", "predict", "predict_stochastic", "save_model",
    "train",
    "NormCurve", "RateTable", "SuccessFailCurve", "make_tables", "norm_curve",
    "success_fail_curve", "wat_underestimation_report",
    "derive_seed",
]
