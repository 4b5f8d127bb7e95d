"""Cross-validated step-wise purchase prediction protocol.

Eleven measurement steps (0..10), a 12-page session filter with a 2-page
buffer, stratified 10-fold cross-validation, inverse-frequency class weights
and F1 on the purchase class. Per fold, everything fitted (Markov chains,
device conversion table, feature scalers, models) sees training sessions
only; held-out sessions influence nothing but their own feature rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .features import (
    SETTINGS,
    VARIANTS,
    StepMatrixBuilder,
    feature_names,
    fit_feature_context,
)
from .ingest import InvalidConfig, TooFewSessions, check_fields, check_known, check_numbers
from .models import (
    MODEL_KINDS,
    SCALED_KINDS,
    TrainConfig,
    f1_score,
    fit as fit_model,
    importance as model_importance,
    predict,
)
from .sessions import build_journeys


# pages a session needs beyond the largest step to enter the protocol
BUFFER = 2


def kfold_split(ids, labels, k: int, seed: int) -> list[list]:
    """Split ids into k disjoint stratified folds.

    Each class is shuffled separately and dealt round-robin, so per-fold
    positive counts differ by at most 1 from proportional.
    """
    ids = list(ids)
    labels = list(labels)
    if len(ids) < k:
        raise TooFewSessions(f"{len(ids)} ids for {k} folds")
    rng = np.random.default_rng(seed)
    folds: list[list] = [[] for _ in range(k)]
    for cls in (1, 0):
        members = [i for i, lab in zip(ids, labels) if lab == cls]
        order = rng.permutation(len(members))
        for pos, idx in enumerate(order):
            folds[pos % k].append(members[idx])
    return folds


@dataclass(frozen=True)
class ProtocolConfig:
    steps: tuple = tuple(range(11))
    folds: int = 10
    settings: tuple = SETTINGS
    variants: tuple = VARIANTS
    models: tuple = MODEL_KINDS
    seed: int = 0
    train: TrainConfig = field(default_factory=TrainConfig)

    @property
    def min_pages(self) -> int:
        return max(self.steps) + BUFFER

    def __post_init__(self):
        """Lists are non-empty tuples of known names (steps: non-negative
        integers) without repeats, and train is a TrainConfig (check_fields)."""
        check_fields(self)
        check_numbers("folds", [self.folds], 2, math.inf, integral=True)
        check_numbers("seed", [self.seed], 0, math.inf, integral=True)
        check_numbers("steps", self.steps, 0, math.inf, integral=True)
        for key, known in (("settings", SETTINGS), ("variants", VARIANTS), ("models", MODEL_KINDS)):
            check_known(key, getattr(self, key), known)
        for key in ("steps", "settings", "variants", "models"):
            values = getattr(self, key)
            if len(set(values)) < len(values):
                raise InvalidConfig(key, f"repeated entries in {list(values)}")


@dataclass
class StepReport:
    model: str
    setting: str
    variant: str
    step: int
    f1_mean: float
    f1_std: float
    precision_mean: float
    recall_mean: float
    importance: np.ndarray
    n_folds: int
    errors: list = field(default_factory=list)


@dataclass
class ProtocolReport:
    rows: list

    def step_report_csv(self) -> str:
        lines = ["model,setting,variant,step,f1_mean,f1_std,precision,recall"]
        for r in self.rows:
            lines.append(
                f"{r.model},{r.setting},{r.variant},{r.step},"
                f"{r.f1_mean:.6f},{r.f1_std:.6f},{r.precision_mean:.6f},{r.recall_mean:.6f}"
            )
        return "\n".join(lines) + "\n"

    def importance_csv(self) -> str:
        # extended-variant importances, one row per (model, setting, step, feature)
        lines = ["model,setting,step,feature,importance"]
        for r in self.rows:
            if r.variant != "extended":
                continue
            for name, value in zip(feature_names(r.setting, "extended"), r.importance):
                lines.append(f"{r.model},{r.setting},{r.step},{name},{value:.6f}")
        return "\n".join(lines) + "\n"


@dataclass
class Scaler:
    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, X: np.ndarray) -> "Scaler":
        mean = X.mean(axis=0) if X.size else np.zeros(X.shape[1])
        std = X.std(axis=0) if X.size else np.ones(X.shape[1])
        std = np.where(std > 0, std, 1.0)  # constant columns pass through as 0
        return cls(mean, std)

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (X - self.mean) / self.std


def _model_seed(master: int, setting: str, fold: int, step: int, variant: str, kind: str) -> int:
    key = (
        SETTINGS.index(setting),
        fold,
        step,
        VARIANTS.index(variant),
        MODEL_KINDS.index(kind),
    )
    return int(np.random.SeedSequence(master, spawn_key=key).generate_state(1)[0])


def _folds(sessions, setting: str, cfg: ProtocolConfig):
    """The setting's sessions that pass the page filter, and their folds."""
    pool = [
        s for s in sessions
        if s.n_page_views >= cfg.min_pages and (setting != "identified" or s.customer_id is not None)
    ]
    if len(pool) < cfg.folds:
        raise TooFewSessions(
            f"{setting}: {len(pool)} sessions pass the {cfg.min_pages}-page filter, "
            f"need >= {cfg.folds}"
        )
    labels = [1 if s.purchase else 0 for s in pool]
    return pool, kfold_split([s.session_id for s in pool], labels, cfg.folds, cfg.seed)


def _run_fold(journeys, builder, fold_ids, fold_index, cfg: ProtocolConfig):
    """Fit context + models on the builder's sessions outside fold_ids,
    evaluate inside.

    journeys is the run's build_journeys table. Held-out rows read their
    history from it, as at prediction time; training reads its lists with
    the fold's sessions filtered out, which keeps their order. Returns
    {(kind, variant, step): (precision, recall, f1, importance) or an error
    string}.
    """
    eval_set = set(fold_ids)
    held = np.array([s.session_id in eval_set for s in builder.sessions], dtype=bool)
    train_rows, eval_rows = np.flatnonzero(~held), np.flatnonzero(held)
    # journeys may draw on sessions below the page filter (they are history,
    # not protocol rows) but never on held-out sessions
    train_journeys = {customer: [s for s in journey if s.session_id not in eval_set]
                      for customer, journey in journeys.items()}
    ctx = fit_feature_context(builder, train_rows, train_journeys)
    train = builder.fold(train_rows, train_journeys, ctx)
    held_out = builder.fold(eval_rows, journeys, ctx)

    cells = {}
    for step in cfg.steps:
        for variant in cfg.variants:
            X_tr, y_tr = builder.matrix(step, variant, train)
            X_ev, y_ev = builder.matrix(step, variant, held_out)
            scaler = Scaler.fit(X_tr)
            scaled = scaler.transform(X_tr), scaler.transform(X_ev)
            for kind in cfg.models:
                seed = _model_seed(cfg.seed, builder.setting, fold_index, step, variant, kind)
                X_fit, X_test = scaled if kind in SCALED_KINDS else (X_tr, X_ev)
                try:
                    model = fit_model(X_fit, y_tr, replace(cfg.train, kind=kind, seed=seed))
                    precision, recall, f1 = f1_score(y_ev, predict(model, X_test))
                    imp = model_importance(model, X_test, y_ev, seed=seed)
                    cells[kind, variant, step] = (precision, recall, f1, imp)
                except Exception as exc:  # a failed cell is reported, not fatal
                    cells[kind, variant, step] = f"{type(exc).__name__}: {exc}"
    return cells


def run_protocol(sessions, cfg: ProtocolConfig) -> ProtocolReport:
    """Full protocol over every (setting, fold, step, variant, model) cell.

    A row averages the folds whose cell succeeded; with none, its numbers
    are NaN and its importance zero.
    """
    sessions = list(sessions)
    journeys = build_journeys(sessions)
    rows = []
    nan = float("nan")
    for setting in cfg.settings:
        pool, folds = _folds(sessions, setting, cfg)
        builder = StepMatrixBuilder(pool, setting, cfg.steps)
        fold_cells = [
            _run_fold(journeys, builder, fold_ids, fold_index, cfg)
            for fold_index, fold_ids in enumerate(folds)
        ]
        for variant in cfg.variants:
            for step in cfg.steps:
                for kind in cfg.models:
                    results = [cells[kind, variant, step] for cells in fold_cells]
                    ok = [r for r in results if not isinstance(r, str)]
                    precision, recall, f1, imp = zip(*ok) if ok else (
                        (nan,), (nan,), (nan,), [np.zeros(len(feature_names(setting, variant)))]
                    )
                    rows.append(
                        StepReport(
                            model=kind, setting=setting, variant=variant, step=step,
                            f1_mean=float(np.mean(f1)), f1_std=float(np.std(f1)),
                            precision_mean=float(np.mean(precision)),
                            recall_mean=float(np.mean(recall)),
                            importance=np.mean(imp, axis=0),
                            n_folds=len(ok), errors=[r for r in results if isinstance(r, str)],
                        )
                    )
    return ProtocolReport(rows=rows)
