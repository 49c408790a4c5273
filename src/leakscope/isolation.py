"""Multi-data-point isolation of the leaking pipe.

Two complementary procedures: candidate-consistency across hydraulic
states (the leak must not move as the pressures vary), and power-law leak
function fitting against each pipe's apparent leak head (resolves the
otherwise hopeless all-linear case).
"""

from __future__ import annotations

import math

# all_candidates is looked up at each call: bench/tracing.py swaps functions in
# the loaded modules and puts them back, and this module may load in between
from . import localization
from .headloss import HeadLossFn, PipeSet, Value, detect_inherent_ambiguity
from .hydraulics import DataPoint


class TooFewPointsError(ValueError):
    """Too few data: fewer distinct states or leak flows than the method needs."""


class IsolationVerdict(Value):
    """`candidate_pipes` is empty when the verdict is isolated or when no
    pipe is plausible (has a spread within `eps_spread`)."""

    __slots__ = ("_candidate_series", "_spreads", "_isolated", "_k_hat", "_x_hat",
                 "_candidate_pipes", "_reason")

    def __init__(
        self,
        candidate_series: dict[int, tuple[float, ...]],  # pipe -> x_j per data point
        spreads: dict[int, float],  # pipe -> max - min of its series
        isolated: bool,
        k_hat: int | None = None,
        x_hat: float | None = None,
        candidate_pipes: frozenset[int] = frozenset(),
        reason: str = "",
    ):
        self._candidate_series, self._spreads, self._isolated = candidate_series, spreads, isolated
        self._k_hat, self._x_hat, self._candidate_pipes = k_hat, x_hat, candidate_pipes
        self._reason = reason


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
        for cand in localization.all_candidates(pipes, d):
            series[cand.j].append(cand.x_j)
    spreads = {j: max(s) - min(s) for j, s in series.items()}
    plausible = sorted(j for j, sp in spreads.items() if sp <= eps_spread)

    k_hat = plausible[0] if len(plausible) == 1 else None
    reason = ""
    if not plausible:
        reason = "no pipe has a consistent candidate position"
    elif k_hat is None:
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
        candidate_series={j: tuple(s) for j, s in series.items()},
        spreads=spreads,
        isolated=k_hat is not None,
        k_hat=k_hat,
        # fsum rounds once; sum() accumulates differently from Python 3.12 on
        x_hat=None if k_hat is None else math.fsum(series[k_hat]) / len(series[k_hat]),
        candidate_pipes=frozenset(plausible if k_hat is None else ()),
        reason=reason,
    )


def _leak_head(U_j: HeadLossFn, x_j: float, G: float, h_in: float, q_in: float) -> float:
    return h_in - x_j * U_j.evaluate(q_in - G)


def apparent_leak_head(pipes: PipeSet, j: int, x_j: float, d: DataPoint) -> float:
    """Head at the hypothesized leak in pipe j, from the inlet side."""
    return _leak_head(pipes.pipe(j), x_j, pipes.admittance_excluding(j, d.dh), d.h_in, d.q_in)


def apparent_leak_flow(d: DataPoint) -> float:
    """Leak flow implied by the boundary flows; pipe-independent."""
    return d.q_in - d.q_out


class LeakFitResult(Value):
    __slots__ = ("_j", "_C_j", "_beta_j", "_rmse", "_negative_head", "_accepted", "_samples")

    def __init__(
        self,
        j: int,
        C_j: float,
        beta_j: float,
        rmse: float,
        negative_head: bool,
        accepted: bool,
        samples: tuple[tuple[float, float], ...],  # the (h_leak, q_leak) pairs fitted
    ):
        self._j, self._C_j, self._beta_j, self._rmse = j, C_j, beta_j, rmse
        self._negative_head, self._accepted, self._samples = negative_head, accepted, samples


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
        raise TooFewPointsError(f"need at least 3 samples, got {len(samples)}")
    if len({q for _, q in samples}) < 3:
        raise TooFewPointsError("need at least 3 distinct leak flows")
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
    # ordinary least squares in the closed form of statistics.linear_regression
    n = len(samples)
    mean_h, mean_q = math.fsum(log_h) / n, math.fsum(log_q) / n
    s_hq = math.fsum((x - mean_h) * (y - mean_q) for x, y in zip(log_h, log_q))
    s_hh = math.fsum((x - mean_h) * (x - mean_h) for x in log_h)
    beta = s_hq / s_hh
    log_C = mean_q - beta * mean_h
    C = rmse = math.inf  # kept where the fitted law leaves the float range
    try:
        C = math.exp(log_C)
        rmse = math.sqrt(math.fsum((q - C * (h - h_y) ** beta) ** 2 for h, q in samples) / n)
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
        h_in, q_in, q_leak = d.h_in, d.q_in, apparent_leak_flow(d)  # read once, not per pipe
        for j, U_j in laws.items():
            samples[j].append((_leak_head(U_j, candidates[j], G[j - 1], h_in, q_in), q_leak))
    results = [
        fit_leak_function(
            samples[j], h_y=h_y[j] if isinstance(h_y, dict) else h_y, eps_fit=eps_fit, j=j
        )
        for j in laws
    ]
    return sorted(results, key=lambda r: (r.negative_head, r.rmse, r.j))
