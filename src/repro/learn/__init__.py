"""Learned configuration prediction over the DSE oracle.

The bridge between the static analyzer and the serving runtime
(ROADMAP item 4, after Parisi et al.): ``repro.analysis.features()``
summarizes a kernel's machine program as a flat feature vector, and
``repro.dse`` can evaluate every candidate operating point of that
kernel through the calibrated cost models.  This package turns the two
into a supervised-learning loop:

- :mod:`~repro.learn.dataset` — drive the
  :class:`~repro.dse.ExplorationEngine` over the builtin + SPMD kernel
  corpus x a pinned candidate grid and emit a deterministic,
  content-addressed labeled dataset (features -> EDP-best
  configuration, with every candidate's energy/latency kept for regret
  evaluation);
- :mod:`~repro.learn.models` — dependency-free, seeded learners (CART
  decision tree, ridge one-vs-rest, majority-class dummy) whose fitted
  state is a reviewable JSON document;
- :mod:`~repro.learn.eval` — leave-one-kernel-out cross-validation
  against the DSE oracle: top-k accuracy, energy/latency/EDP regret,
  per-feature importances;
- :mod:`~repro.learn.service` — a ``predicted`` scheduler policy and
  :class:`~repro.learn.service.PredictedServiceBook` for
  :mod:`repro.serve`, routing each request through the trained model
  (with an analytic fallback under low confidence) and counting every
  decision on :mod:`repro.obs`;
- ``python -m repro learn`` (declared in :mod:`repro.cli`) —
  ``dataset`` / ``train`` / ``eval`` / ``predict``, deterministic
  reruns, exit 3 when mean regret exceeds the threshold.

See ``docs/LEARNING.md`` for formats and methodology.
"""

from repro.learn.dataset import (
    CORPUS,
    DATASET_SCHEMA,
    Dataset,
    DatasetRow,
    build_dataset,
    load_dataset,
    save_dataset,
)
from repro.learn.eval import EvalReport, evaluate, loko_folds
from repro.learn.models import (
    MODEL_SCHEMA,
    DecisionTreeModel,
    MajorityClassModel,
    RidgeModel,
    load_model,
    model_from_dict,
    save_model,
    train_model,
)
from repro.learn.service import PredictedServiceBook, predictor_from_file

__all__ = [
    "CORPUS",
    "DATASET_SCHEMA",
    "Dataset",
    "DatasetRow",
    "DecisionTreeModel",
    "EvalReport",
    "MODEL_SCHEMA",
    "MajorityClassModel",
    "PredictedServiceBook",
    "RidgeModel",
    "build_dataset",
    "evaluate",
    "load_dataset",
    "load_model",
    "loko_folds",
    "model_from_dict",
    "predictor_from_file",
    "save_dataset",
    "save_model",
    "train_model",
]
