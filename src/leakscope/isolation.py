"""Multi-data-point isolation of the leaking pipe.

Two complementary procedures: candidate-consistency across hydraulic
states (the leak must not move as the pressures vary; a pipe whose candidate
is not finite at some state is undetermined, neither picked nor rejected),
and power-law fitting of the leak flow q_in - q_out against each pipe's
apparent leak head (resolves the otherwise hopeless all-linear case).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from itertools import count, repeat
from operator import mul

from .headloss import HeadLossFn, PipeSet, Value, detect_inherent_ambiguity
from .hydraulics import DataPoint
from .localization import _position


class TooFewPointsError(ValueError):
    """Too few data: fewer distinct states or leak flows than the method needs."""


class IsolationVerdict(Value):
    """`candidate_pipes` is empty when the verdict is isolated or when no
    pipe is plausible (has a spread within `eps_spread`). A pipe with a
    candidate that is not finite is undetermined: its spread is NaN, it is not
    plausible, and the verdict is not isolated."""

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
    # two distinct points, as a set tells them apart; the count is only for the message
    if not any(d != data[0] for d in data):
        raise TooFewPointsError(
            f"need at least 2 distinct data points to isolate, got {len(set(data))}"
        )

    dh, q_in, q_out = [d.dh for d in data], [d.q_in for d in data], [d.q_out for d in data]
    columns = zip(*map(pipes.admittances_excluding, dh))  # pipe j's G_j at each data point
    series: dict[int, tuple[float, ...]] = {}
    # a loop, not a comprehension, which adds a frame on Python < 3.12: map adds
    # none, so _position's warning names this function's caller
    for j, U_j, G_j in zip(count(1), pipes.pipes, columns):
        series[j] = tuple(map(_position, repeat(U_j), repeat(j), G_j, dh, q_in, q_out))
    # max and min skip a NaN that is not first, so a series with a non-finite
    # candidate has no spread: its pipe is undetermined, neither plausible nor
    # rejected. A finite series' spread is never NaN.
    spreads = {
        j: max(s) - min(s) if all(map(math.isfinite, s)) else math.nan
        for j, s in series.items()
    }
    undetermined = [j for j, sp in spreads.items() if math.isnan(sp)]
    plausible = sorted(j for j, sp in spreads.items() if sp <= eps_spread)

    k_hat = plausible[0] if len(plausible) == 1 and not undetermined else None
    reasons = []
    if len(plausible) > 1:
        pair_reasons = [
            f"pipes {a}-{b} {why}" for (a, b), why in detect_inherent_ambiguity(pipes)
            if a in plausible and b in plausible
        ]
        reasons.append(
            "; ".join(pair_reasons) or "multiple pipes have consistent candidate positions"
        )
    if undetermined:
        pipe_s = "pipes" if len(undetermined) > 1 else "pipe"
        names = " ".join(map(str, undetermined))
        reasons.append(f"{pipe_s} {names} undetermined: a candidate position is not finite")
    elif not plausible:
        reasons.append("no pipe has a consistent candidate position")
    return IsolationVerdict(
        candidate_series=series,
        spreads=spreads,
        isolated=k_hat is not None,
        k_hat=k_hat,
        # fsum rounds once; sum() accumulates differently from Python 3.12 on
        x_hat=None if k_hat is None else math.fsum(series[k_hat]) / len(series[k_hat]),
        candidate_pipes=frozenset(plausible if k_hat is None else ()),
        reason="; ".join(reasons),
    )


def _leak_head(U_j: HeadLossFn, x_j: float, G: float, h_in: float, q_in: float) -> float:
    return h_in - x_j * U_j.evaluate(q_in - G)


def apparent_leak_head(pipes: PipeSet, j: int, x_j: float, d: DataPoint) -> float:
    """Head at the hypothesized leak in pipe j, from the inlet side."""
    return _leak_head(pipes.pipe(j), x_j, pipes.admittances_excluding(d.dh)[j - 1], d.h_in, d.q_in)


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
) -> LeakFitResult:
    """Least-squares power-law fit q = C (h - h_y)^beta in log-log space.

    Samples with non-positive pressure head are physically unreasonable
    (outflow against no pressure) and cause outright rejection. The result
    keeps the samples and records pipe 0, since no pipe is named.
    """
    return _fits({0: [h for h, _ in samples]}, [q for _, q in samples], h_y, eps_fit)[0]


def _fits(
    heads_by_pipe: dict[int, Sequence[float]], q: Sequence[float], h_y: dict[int, float] | float,
    eps_fit: float,
) -> list[LeakFitResult]:
    """`fit_leak_function` of each pipe's heads against the leak flows q that all share,
    in pipe order. The flows are checked and logged once, unless no pipe is to be fit."""
    n = len(q)
    if n < 3:
        raise TooFewPointsError(f"need at least 3 samples, got {n}")
    if heads_by_pipe and len(set(q)) < 3:
        raise TooFewPointsError("need at least 3 distinct leak flows")
    positive = not any(v <= 0.0 for v in q)
    log_q = list(map(math.log, q)) if positive else []  # a pipe fit raises before reading them
    mean_q = math.fsum(log_q) / n
    centred_q = [y - mean_q for y in log_q]
    results = []
    for j, heads in heads_by_pipe.items():
        y_j = h_y[j] if isinstance(h_y, dict) else h_y
        samples = tuple(zip(heads, q))
        above = [h - y_j for h in heads]  # the pressure heads
        if any(a <= 0.0 for a in above):
            results.append(LeakFitResult(j, math.nan, math.nan, math.inf, True, False, samples))
            continue
        if not positive:
            raise ValueError("leak flows must be positive for a log-log fit")
        log_h = list(map(math.log, above))
        if max(log_h) == min(log_h):
            raise ValueError("zero variance in log pressure head; fit is degenerate")
        # ordinary least squares in the closed form of statistics.linear_regression
        mean_h = math.fsum(log_h) / n
        centred_h = [x - mean_h for x in log_h]
        s_hq = math.fsum(map(mul, centred_h, centred_q))
        beta = s_hq / math.fsum(map(mul, centred_h, centred_h))  # s_hq / s_hh
        C = rmse = math.inf  # kept where the fitted law leaves the float range
        try:
            C = math.exp(mean_q - beta * mean_h)
            rmse = math.sqrt(math.fsum((v - C * a**beta) ** 2 for a, v in zip(above, q)) / n)
        except OverflowError:
            pass
        results.append(LeakFitResult(j, C, beta, rmse, False, rmse <= eps_fit, samples))
    return results


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
    h_in, q_in = [d.h_in for d in data], [d.q_in for d in data]
    columns = list(zip(*map(pipes.admittances_excluding, [d.dh for d in data])))
    heads = {
        j: tuple(map(_leak_head, repeat(U_j), repeat(candidates[j]), columns[j - 1], h_in, q_in))
        for j, U_j in laws.items()
    }
    results = _fits(heads, [d.q_in - d.q_out for d in data], h_y, eps_fit)
    return sorted(results, key=lambda r: (r.negative_head, r.rmse, r.j))
