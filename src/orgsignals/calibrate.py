"""Nested OLS calibration of signal columns against unit performance.

Fits a sequence of nested models (by default emotionality, then
responsiveness, then structure) and renders a coefficient table with
significance stars, N, and adjusted R-squared per model.  Least squares
is solved by orthogonal decomposition (numpy lstsq); the normal-equation
route is kept to the test suite as an independent oracle.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Table-style predictor names accepted on the command line alongside the
# raw signal column names.
PREDICTOR_ALIASES = {
    "emotionality": "honest_sentiment",
    "responsiveness": "responsiveness",
    "structure": "central_leadership",
}

DISPLAY_NAMES = {
    "honest_sentiment": "Emotionality",
    "responsiveness": "Responsiveness",
    "central_leadership": "Structure",
}

DEFAULT_MODEL_SPECS = [
    ["honest_sentiment"],
    ["honest_sentiment", "responsiveness"],
    ["honest_sentiment", "responsiveness", "central_leadership"],
]


class CollinearityError(ValueError):
    """Design matrix is rank deficient."""


@dataclass(slots=True)
class DesignMatrix:
    """Complete-case design: intercept plus named predictor columns."""

    predictor_names: list[str]
    x: np.ndarray              # n x (p+1), first column all ones
    y: np.ndarray              # n
    units: list[str]
    dropped_units: list[str] = field(default_factory=list)


@dataclass(slots=True)
class RegressionResult:
    coefficients: dict[str, float]
    std_errors: dict[str, float]
    p_values: dict[str, float]
    r2: float
    adj_r2: float
    n: int
    p: int


def adjusted_r2(r2: float, n: int, p: int) -> float:
    """R-squared penalized for predictor count: 1 - (1-R2)(n-1)/(n-p-1)."""
    if n <= p + 1:
        raise ValueError("insufficient degrees of freedom")
    return 1.0 - (1.0 - r2) * (n - 1) / (n - p - 1)


def _check_rank(x: np.ndarray, names: list[str]) -> None:
    """Raise CollinearityError naming the first dependent column."""
    if np.linalg.matrix_rank(x) == x.shape[1]:
        return
    for j in range(1, x.shape[1]):
        if np.linalg.matrix_rank(x[:, : j + 1]) < j + 1:
            raise CollinearityError(f"collinear predictors: {names[j]}")
    raise CollinearityError("collinear predictors: intercept")


def fit_ols(design: DesignMatrix) -> RegressionResult:
    """Least squares with R2, adjusted R2, and two-sided t-test p-values."""
    x, y = design.x, design.y
    names = ["intercept", *design.predictor_names]
    n, k = x.shape
    if n < k + 1:
        raise ValueError(f"insufficient rows: n={n} for {k} columns")
    _check_rank(x, names)

    beta, _, _, _ = np.linalg.lstsq(x, y, rcond=None)
    residuals = y - x @ beta
    rss = float(residuals @ residuals)
    tss = float(np.sum((y - y.mean()) ** 2))
    r2 = 0.0 if tss == 0.0 else 1.0 - rss / tss

    df = n - k
    sigma2 = rss / df
    xtx_inv = np.linalg.inv(x.T @ x)
    se = np.sqrt(np.maximum(np.diag(xtx_inv) * sigma2, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        t_stats = np.where(se > 0, beta / se, np.inf * np.sign(beta))
    # Student-t survival function, t.sf(x, df) == stdtr(df, -x); imported
    # here so that the other commands do not load scipy.special
    from scipy.special import stdtr

    p_values = 2.0 * stdtr(df, -np.abs(t_stats))

    return RegressionResult(
        coefficients=dict(zip(names, map(float, beta))),
        std_errors=dict(zip(names, map(float, se))),
        p_values=dict(zip(names, map(float, p_values))),
        r2=r2,
        adj_r2=adjusted_r2(r2, n, k - 1),
        n=n,
        p=k - 1,
    )


def resolve_predictor(name: str) -> str:
    return PREDICTOR_ALIASES.get(name.strip().lower(), name.strip())


def parse_model_specs(text: str) -> list[list[str]]:
    """Parse "a|a,b|a,b,c" into nested predictor lists; empty part = intercept only."""
    specs = []
    for part in text.split("|"):
        predictors = [resolve_predictor(p) for p in part.split(",") if p.strip()]
        specs.append(predictors)
    return specs


def read_performance_csv(path: str | Path) -> dict[str, float]:
    """Performance CSV (unit,performance), one real value per unit."""
    values: dict[str, float] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header] != ["unit", "performance"]:
            raise ValueError("performance CSV: expected header unit,performance")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 2:
                raise ValueError(f"performance CSV row {lineno}: got {len(row)} fields")
            unit = row[0].strip()
            try:
                value = float(row[1])
            except ValueError:
                raise ValueError(
                    f"performance CSV row {lineno}: bad performance {row[1]!r}"
                ) from None
            if unit in values:
                raise ValueError(f"performance CSV row {lineno}: duplicate unit {unit!r}")
            values[unit] = value
    return values


def build_design(
    signal_rows: list[dict],
    performance: dict[str, float],
    predictors: list[str],
    zscore: bool = False,
) -> DesignMatrix:
    """Join signal rows with performance and list-wise delete incomplete units."""
    units, rows, y, dropped = [], [], [], []
    seen = set()
    for row in signal_rows:
        unit = row["unit"]
        if unit in seen:
            raise ValueError(
                f"duplicate unit {unit!r} in signals input; calibrate needs one row per unit"
            )
        seen.add(unit)
        if unit not in performance:
            dropped.append(unit)
            continue
        values = []
        complete = True
        for name in predictors:
            if name not in row:
                raise ValueError(f"unknown predictor column: {name}")
            if row[name] is None:
                complete = False
                break
            values.append(row[name])
        if not complete:
            dropped.append(unit)
            continue
        units.append(unit)
        rows.append(values)
        y.append(performance[unit])

    n = len(units)
    if n < len(predictors) + 2:
        raise ValueError(
            f"insufficient rows after join: n={n} for p={len(predictors)} predictors"
        )
    x = np.ones((n, len(predictors) + 1))
    if predictors:
        x[:, 1:] = np.asarray(rows, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    if zscore:
        for j in range(1, x.shape[1]):
            col = x[:, j]
            sd = col.std()
            x[:, j] = (col - col.mean()) / sd if sd > 0 else 0.0
        sd = y_arr.std()
        if sd > 0:
            y_arr = (y_arr - y_arr.mean()) / sd
    return DesignMatrix(list(predictors), x, y_arr, units, dropped)


@dataclass(slots=True)
class CalibrationTable:
    """Fitted nested models plus the units dropped by list-wise deletion."""

    models: list[tuple[list[str], RegressionResult]]
    dropped_units: list[str]


def nested_model_table(
    signal_rows: list[dict],
    performance: dict[str, float],
    model_specs: list[list[str]] | None = None,
    zscore: bool = False,
) -> CalibrationTable:
    """Fit every model spec on a common complete-case unit set.

    Units missing any column used by any model are list-wise deleted up
    front so N is identical across the table.
    """
    specs = model_specs if model_specs is not None else DEFAULT_MODEL_SPECS
    all_predictors: list[str] = []
    for spec in specs:
        for name in spec:
            if name not in all_predictors:
                all_predictors.append(name)
    base = build_design(signal_rows, performance, all_predictors, zscore)
    keep = set(base.units)

    results = []
    for spec in specs:
        rows = [r for r in signal_rows if r["unit"] in keep]
        design = build_design(rows, performance, list(spec), zscore)
        results.append((list(spec), fit_ols(design)))
    return CalibrationTable(results, base.dropped_units)


def _stars(p_value: float) -> str:
    if p_value < 0.01:
        return "**"
    if p_value < 0.05:
        return "*"
    return ""


def render_table(results: list[tuple[list[str], RegressionResult]]) -> str:
    """Fixed-width nested-model table: one coefficient column per model."""
    terms = ["intercept"]
    for spec, _ in results:
        for name in spec:
            if name not in terms:
                terms.append(name)

    def label(term: str) -> str:
        return "Intercept" if term == "intercept" else DISPLAY_NAMES.get(term, term)

    headers = [f"Model {i + 1} Coeff." for i in range(len(results))]
    width = max(
        [len(label(t)) for t in terms] + [len("Predictors"), len("Adj R2")]
    ) + 2
    col = max(max(len(h) for h in headers) + 2, 16)

    lines = [" " * width + "".join(h.rjust(col) for h in headers)]
    lines.append("Predictors")
    for term in terms:
        cells = []
        for spec, result in results:
            if term in result.coefficients:
                cell = f"{result.coefficients[term]:.7f}{_stars(result.p_values[term])}"
            else:
                cell = ""
            cells.append(cell.rjust(col))
        lines.append(label(term).ljust(width) + "".join(cells))
    lines.append("FIT")
    lines.append(
        "N".ljust(width) + "".join(str(r.n).rjust(col) for _, r in results)
    )
    lines.append(
        "Adj R2".ljust(width)
        + "".join(f"{r.adj_r2:.4f}".rjust(col) for _, r in results)
    )
    return "\n".join(lines)


def write_calibration_csv(
    results: list[tuple[list[str], RegressionResult]], path: str | Path
) -> None:
    """Long-format results: one row per (model, term)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "term", "coefficient", "p_value", "n", "r2", "adj_r2"])
        for i, (spec, result) in enumerate(results, start=1):
            for term in ["intercept", *spec]:
                writer.writerow([
                    i,
                    term,
                    repr(result.coefficients[term]),
                    repr(result.p_values[term]),
                    result.n,
                    repr(result.r2),
                    repr(result.adj_r2),
                ])
