"""50-digit reference roots for the float solvers, from the standard library's
`decimal`: the forward leak head and a completed missing head.

Each float input converts to a Decimal exactly, every law and leak law is
evaluated at 50 significant digits, and the root of the strictly decreasing
equation is bracketed from a seed by doubling steps and then narrowed by the
Illinois variant of regula falsi (Dowell and Jarratt 1971) until the bracket
is 1e-40 (1 + |root|) wide. So a returned root is exact far below one ulp of
any float near it.
"""

from decimal import Decimal, localcontext

from leakscope import FixedDemand, QuadraticPlusLinear

DIGITS = 50
WIDTH = Decimal("1e-40")  # bracket width at the end, relative to 1 + |root|


def invert(law, h: Decimal) -> Decimal:
    """U^-1(h) of a `PowerLaw` or `QuadraticPlusLinear` law."""
    a = abs(h) / Decimal(law.c)
    if isinstance(law, QuadraticPlusLinear):  # the positive root of q^2 + q = a
        q = a / (Decimal("0.5") + (Decimal("0.25") + a).sqrt())
    else:
        q = a ** (1 / Decimal(law.gamma))
    return q.copy_sign(h)


def evaluate(law, q: Decimal) -> Decimal:
    """U(q) of a `PowerLaw` or `QuadraticPlusLinear` law."""
    if isinstance(law, QuadraticPlusLinear):
        return Decimal(law.c) * (q * abs(q) + q)
    return (Decimal(law.c) * abs(q) ** Decimal(law.gamma)).copy_sign(q)


def leak_flow(fn, h: Decimal) -> Decimal:
    """g(h) of a `PowerLawLeak` or `FixedDemand`."""
    if isinstance(fn, FixedDemand):
        return Decimal(fn.q_leak)
    head = h - Decimal(fn.h_y)
    return Decimal(fn.C) * head ** Decimal(fn.beta) if head > 0 else Decimal(0)


def root(f, seed: Decimal) -> Decimal:
    """The root of a strictly decreasing f, searched for outward from seed."""
    lo = hi = seed
    flo = fhi = f(seed)
    step = Decimal(1)
    while flo < 0:  # the root lies below lo
        hi, fhi, lo = lo, flo, lo - step
        flo, step = f(lo), 2 * step
    while fhi > 0:  # the root lies above hi
        lo, flo, hi = hi, fhi, hi + step
        fhi, step = f(hi), 2 * step
    kept = 0  # the side kept by the last step: -1 for lo, 1 for hi
    for _ in range(1000):
        if flo == 0 or fhi == 0 or hi - lo <= WIDTH * (1 + abs(lo)):
            return lo if flo == 0 else hi if fhi == 0 else (lo + hi) / 2
        m = (lo * fhi - hi * flo) / (fhi - flo)
        fm = f(m)
        if fm > 0:
            lo, flo = m, fm
            fhi, kept = fhi / 2 if kept == 1 else fhi, 1
        else:
            hi, fhi = m, fm
            flo, kept = flo / 2 if kept == -1 else flo, -1
    raise AssertionError(f"no 50-digit root within 1000 steps of {seed}")


def forward_leak_head(pipes, leak, h_in: float, h_out: float) -> Decimal:
    """The leak head that `solve_leaky_state` approximates: the root of
    U_k^-1((h_in - h)/x) - U_k^-1((h - h_out)/(1 - x)) - g(h)."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        U, x, fn = pipes.pipe(leak.k), Decimal(leak.x), leak.leak
        h_in, h_out = Decimal(h_in), Decimal(h_out)

        def f(h):
            return invert(U, (h_in - h) / x) - invert(U, (h - h_out) / (1 - x)) - leak_flow(fn, h)

        return root(f, h_in - x * (h_in - h_out))


def completed_head(pipes, j: int, x_j: float, p) -> Decimal:
    """The missing head that `complete_data_point` approximates: the head at
    which dh - x_j U_j(q_in - G(dh)) - (1 - x_j) U_j(q_out - G(dh)) vanishes,
    with G(dh) the flow through every pipe but j."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        U, x = pipes.pipe(j), Decimal(x_j)
        others = [law for i, law in enumerate(pipes.pipes, 1) if i != j]
        q_in, q_out = Decimal(p.q_in), Decimal(p.q_out)

        def residual(dh):
            G = sum((invert(law, dh) for law in others), Decimal(0))
            return dh - x * evaluate(U, q_in - G) - (1 - x) * evaluate(U, q_out - G)

        if p.missing == "h_in":  # dh = h - h_out rises with h, and so does the residual
            h_out = Decimal(p.h_out)
            return root(lambda h: -residual(h - h_out), h_out)
        h_in = Decimal(p.h_in)  # dh = h_in - h falls with h
        return root(lambda h: residual(h_in - h), h_in)
