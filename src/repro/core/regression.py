"""Section X: joint regression of node outages on usage, layout, temperature.

Builds Table I's per-node design matrix -- temperature aggregates
(``avg_temp``, ``max_temp``, ``temp_var``, ``num_hightemp``), usage
(``num_jobs``, ``util``) and physical position (``PIR``) -- with the
total outage count as the response, then fits Table II's Poisson model
and Table III's negative-binomial model.  Includes the paper's
robustness reruns: without node 0, and with only the significant
predictors.

At LANL the only system with all data sources is system 20; the module
works for any system carrying jobs + temperatures + layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..records.dataset import SystemDataset
from ..stats.glm import GLMError, GLMResult, fit_negative_binomial, fit_poisson
from .cache import get_cache


class RegressionAnalysisError(ValueError):
    """Raised when a system lacks the data the joint regression needs."""


#: Table I predictor names, in table order.
TABLE1_PREDICTORS: tuple[str, ...] = (
    "avg_temp",
    "max_temp",
    "temp_var",
    "num_hightemp",
    "num_jobs",
    "util",
    "PIR",
)


@dataclass(frozen=True, slots=True)
class DesignMatrix:
    """Table I's per-node design.

    Attributes:
        system_id: the system.
        node_ids: node id per row.
        X: predictor matrix, columns ordered as
            :data:`TABLE1_PREDICTORS`.
        y: response -- total outages per node over the period.
        names: predictor names (column labels of ``X``).
    """

    system_id: int
    node_ids: np.ndarray
    X: np.ndarray
    y: np.ndarray
    names: tuple[str, ...] = TABLE1_PREDICTORS

    def without_node(self, node_id: int) -> "DesignMatrix":
        """A copy with one node's row removed (the paper's node-0 rerun)."""
        keep = self.node_ids != node_id
        if keep.all():
            raise RegressionAnalysisError(
                f"node {node_id} is not in the design"
            )
        return DesignMatrix(
            system_id=self.system_id,
            node_ids=self.node_ids[keep],
            X=self.X[keep],
            y=self.y[keep],
            names=self.names,
        )

    def subset(self, names: tuple[str, ...]) -> "DesignMatrix":
        """A copy keeping only the given predictor columns."""
        missing = [n for n in names if n not in self.names]
        if missing:
            raise RegressionAnalysisError(f"unknown predictors {missing}")
        cols = [self.names.index(n) for n in names]
        return DesignMatrix(
            system_id=self.system_id,
            node_ids=self.node_ids,
            X=self.X[:, cols],
            y=self.y,
            names=tuple(names),
        )


def build_design_matrix(ds: SystemDataset) -> DesignMatrix:
    """Assemble Table I's predictors for every node with complete data.

    Nodes without temperature readings are dropped (their aggregates are
    undefined); the paper's system 20 has sensor data for all nodes.
    """
    if not ds.has_usage:
        raise RegressionAnalysisError(
            f"system {ds.system_id} has no job log (num_jobs/util missing)"
        )
    if not ds.has_temperature:
        raise RegressionAnalysisError(
            f"system {ds.system_id} has no temperature data"
        )
    if ds.layout is None:
        raise RegressionAnalysisError(
            f"system {ds.system_id} has no machine layout (PIR missing)"
        )
    cache = get_cache(ds)
    temps = cache.temperature_summaries()
    usage = cache.node_usage()
    failures = ds.failure_counts_per_node()
    rows = []
    node_ids = []
    y = []
    for node in range(ds.num_nodes):
        t = temps[node]
        if t.num_readings == 0:
            continue
        u = usage[node]
        rows.append(
            [
                t.avg_temp,
                t.max_temp,
                t.temp_var,
                float(t.num_hightemp),
                float(u.num_jobs),
                u.utilization * 100.0,  # percent, as in the paper's axes
                float(ds.layout.position_in_rack(node)),
            ]
        )
        node_ids.append(node)
        y.append(int(failures[node]))
    if len(rows) < 15:
        raise RegressionAnalysisError(
            "need at least 15 nodes with complete data to fit 7 predictors"
        )
    return DesignMatrix(
        system_id=ds.system_id,
        node_ids=np.asarray(node_ids, dtype=np.int64),
        X=np.asarray(rows, dtype=float),
        y=np.asarray(y, dtype=np.int64),
    )


@dataclass(frozen=True, slots=True)
class JointRegressionResult:
    """Tables II and III plus the paper's robustness reruns.

    Attributes:
        design: the design matrix used.
        poisson: Table II (Poisson regression).
        negbin: Table III (negative-binomial regression).
        poisson_without_prone: Poisson rerun with the most failure-prone
            node removed (the paper: utilization stays significant).
        significant_only: Poisson rerun with only the predictors that
            were significant at 1% in the full Poisson model (the paper:
            max_temp's significance drops in this rerun).
    """

    design: DesignMatrix
    poisson: GLMResult
    negbin: GLMResult
    poisson_without_prone: GLMResult | None
    significant_only: GLMResult | None

    def significant_predictors(self, alpha: float = 0.01) -> list[str]:
        """Predictors significant in BOTH models (paper: num_jobs, util)."""
        out = []
        for name in self.design.names:
            if self.poisson.coefficient(name).significant(
                alpha
            ) and self.negbin.coefficient(name).significant(alpha):
                out.append(name)
        return out


def fit_joint_regression(ds: SystemDataset) -> JointRegressionResult:
    """Run the full Section X analysis on one system.

    The paper's findings to compare against: ``num_jobs`` (positive) and
    ``util`` (negative) significant in both models at 99%; ``max_temp``
    significant only in the Poisson model and only in the full fit;
    everything else insignificant.

    The result is memoized on the system's analysis cache: the fits are
    made once per dataset.  So is a failed fit: its error is memoized
    and raised again on every call.
    """
    result = get_cache(ds).summary(
        ("joint_regression",), lambda: _joint_regression_or_error(ds)
    )
    if isinstance(result, Exception):
        raise result.with_traceback(None)
    return result


def _joint_regression_or_error(
    ds: SystemDataset,
) -> JointRegressionResult | RegressionAnalysisError | GLMError:
    try:
        return _joint_regression(ds)
    except (RegressionAnalysisError, GLMError) as exc:
        return exc


def _joint_regression(ds: SystemDataset) -> JointRegressionResult:
    design = build_design_matrix(ds)
    pois = fit_poisson(design.X, design.y, names=list(design.names))
    nb = fit_negative_binomial(design.X, design.y, names=list(design.names))

    prone = int(design.node_ids[design.y.argmax()])
    pois_wo = None
    try:
        d_wo = design.without_node(prone)
        pois_wo = fit_poisson(d_wo.X, d_wo.y, names=list(d_wo.names))
    except (RegressionAnalysisError, GLMError):
        pois_wo = None

    sig_names = tuple(
        n for n in design.names if pois.coefficient(n).significant(alpha=0.01)
    )
    sig_only = None
    if 0 < len(sig_names) < len(design.names):
        d_sig = design.subset(sig_names)
        sig_only = fit_poisson(d_sig.X, d_sig.y, names=list(d_sig.names))

    return JointRegressionResult(
        design=design,
        poisson=pois,
        negbin=nb,
        poisson_without_prone=pois_wo,
        significant_only=sig_only,
    )


def render_coefficient_table(result: GLMResult) -> str:
    """Render a fitted model as the paper's Table II/III layout."""
    lines = [
        f"{'':>14s} {'Estimate':>10s} {'Std. Error':>11s} "
        f"{'z value':>8s} {'Pr(>|z|)':>9s}"
    ]
    for c in result.coefficients:
        lines.append(
            f"{c.name:>14s} {c.estimate:>10.4f} {c.std_error:>11.4f} "
            f"{c.z_value:>8.2f} {c.p_value:>9.4f}"
        )
    if result.alpha is not None:
        lines.append(f"(NB dispersion alpha = {result.alpha:.4f})")
    return "\n".join(lines)
