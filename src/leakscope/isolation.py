"""Multi-data-point isolation of the leaking pipe.

Two complementary procedures: candidate-consistency across hydraulic
states (the leak must not move as the pressures vary), and power-law leak
function fitting against each pipe's apparent leak head (resolves the
otherwise hopeless all-linear case).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

from .headloss import HeadLossFn, PipeSet
from .hydraulics import DataPoint
from .localization import all_candidates
from .sensitivity import detect_inherent_ambiguity


class TooFewPointsError(ValueError):
    """Isolation needs at least two distinct hydraulic states."""


@dataclass(frozen=True)
class IsolationVerdict:
    candidate_series: dict[int, tuple[float, ...]]  # pipe -> x_j per data point
    spreads: dict[int, float]  # pipe -> max - min of its series
    isolated: bool
    k_hat: int | None = None
    x_hat: float | None = None
    candidate_pipes: frozenset[int] = frozenset()
    reason: str = ""


def isolate_by_consistency(
    pipes: PipeSet, data: list[DataPoint], eps_spread: float = 1e-6
) -> IsolationVerdict:
    """The leaking pipe is the one whose candidate position stays put."""
    distinct = len(set(data))
    if distinct < 2:
        raise TooFewPointsError(
            f"need at least 2 distinct data points to isolate, got {distinct}"
        )

    series: dict[int, list[float]] = {j: [] for j in range(1, pipes.n + 1)}
    for d in data:
        for cand in all_candidates(pipes, d):
            series[cand.j].append(cand.x_j)
    spreads = {j: max(s) - min(s) for j, s in series.items()}
    plausible = sorted(j for j, sp in spreads.items() if sp <= eps_spread)

    frozen_series = {j: tuple(s) for j, s in series.items()}
    if len(plausible) == 1:
        k_hat = plausible[0]
        return IsolationVerdict(
            candidate_series=frozen_series,
            spreads=spreads,
            isolated=True,
            k_hat=k_hat,
            x_hat=sum(series[k_hat]) / len(series[k_hat]),
        )
    if not plausible:
        reason = "no pipe has a consistent candidate position"
    else:
        ambiguous = detect_inherent_ambiguity(pipes)
        pair_reasons = [
            f"pipes {a}-{b} {why}" for (a, b), why in ambiguous
            if a in plausible and b in plausible
        ]
        reason = (
            "; ".join(pair_reasons)
            if pair_reasons
            else "multiple pipes have consistent candidate positions"
        )
    return IsolationVerdict(
        candidate_series=frozen_series,
        spreads=spreads,
        isolated=False,
        candidate_pipes=frozenset(plausible),
        reason=reason,
    )


def _leak_head(U_j: HeadLossFn, x_j: float, G: float, d: DataPoint) -> float:
    return d.h_in - x_j * U_j.evaluate(d.q_in - G)


def apparent_leak_head(pipes: PipeSet, j: int, x_j: float, d: DataPoint) -> float:
    """Head at the hypothesized leak in pipe j, from the inlet side."""
    return _leak_head(pipes.pipe(j), x_j, pipes.admittance_excluding(j, d.dh), d)


def apparent_leak_flow(d: DataPoint) -> float:
    """Leak flow implied by the boundary flows; pipe-independent."""
    return d.q_in - d.q_out


@dataclass(frozen=True)
class LeakFitResult:
    j: int
    C_j: float
    beta_j: float
    rmse: float
    negative_head: bool
    accepted: bool
    samples: tuple[tuple[float, float], ...]  # the (h_leak, q_leak) pairs fitted


def fit_leak_function(
    samples: list[tuple[float, float]],
    h_y: float = 0.0,
    eps_fit: float = 1e-6,
    *,
    j: int = 0,
) -> LeakFitResult:
    """Least-squares power-law fit q = C (h - h_y)^beta in log-log space.

    Samples with non-positive pressure head are physically unreasonable
    (outflow against no pressure) and cause outright rejection. `j` is the
    pipe the result is recorded for; the result keeps the samples.
    """
    if len(samples) < 3:
        raise ValueError(f"need at least 3 samples, got {len(samples)}")
    if len({q for _, q in samples}) < 3:
        raise ValueError("need at least 3 distinct leak flows")
    if any(h - h_y <= 0.0 for h, _ in samples):
        return LeakFitResult(
            j=j, C_j=math.nan, beta_j=math.nan, rmse=math.inf,
            negative_head=True, accepted=False, samples=tuple(samples),
        )
    if any(q <= 0.0 for _, q in samples):
        raise ValueError("leak flows must be positive for a log-log fit")
    log_h = [math.log(h - h_y) for h, _ in samples]
    if max(log_h) == min(log_h):
        raise ValueError("zero variance in log pressure head; fit is degenerate")
    log_q = [math.log(q) for _, q in samples]
    beta, log_C = statistics.linear_regression(log_h, log_q)
    C = rmse = math.inf  # kept where the fitted law leaves the float range
    try:
        C = math.exp(log_C)
        rmse = math.sqrt(
            statistics.fmean((q - C * (h - h_y) ** beta) ** 2 for h, q in samples)
        )
    except OverflowError:
        pass
    return LeakFitResult(
        j=j, C_j=C, beta_j=beta, rmse=rmse,
        negative_head=False, accepted=rmse <= eps_fit, samples=tuple(samples),
    )


def isolate_by_leak_fit(
    pipes: PipeSet,
    data: list[DataPoint],
    candidates: dict[int, float],
    h_y: dict[int, float] | float = 0.0,
    eps_fit: float = 1e-6,
) -> list[LeakFitResult]:
    """Fit a power-law leak per pipe hypothesis; rank by fit quality.

    `candidates` maps each pipe to its (constant) candidate position.
    Rejected fits (negative pressure head) rank last; ties break on pipe
    index for determinism.
    """
    if len(data) < 3:
        raise TooFewPointsError(f"need at least 3 data points, got {len(data)}")
    laws = {j: pipes.pipe(j) for j in sorted(candidates)}
    samples: dict[int, list[tuple[float, float]]] = {j: [] for j in laws}
    for d in data:
        G = pipes.admittances_excluding(d.dh)
        q_leak = apparent_leak_flow(d)
        for j, U_j in laws.items():
            samples[j].append((_leak_head(U_j, candidates[j], G[j - 1], d), q_leak))
    results = [
        fit_leak_function(
            samples[j], h_y=h_y[j] if isinstance(h_y, dict) else h_y, eps_fit=eps_fit, j=j
        )
        for j in laws
    ]
    return sorted(results, key=lambda r: (r.negative_head, r.rmse, r.j))
