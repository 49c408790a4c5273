"""50-digit reference roots for the float solvers, from the standard library's
`decimal`: the forward leak head, a completed missing head and a
confusion-curve point; and the leak fit's least-squares C and beta.

Each float input converts to a Decimal exactly, every law and leak law is
evaluated at 50 significant digits, and the root of the equation is
bracketed from a seed by doubling steps and then narrowed by the
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
    return _narrow(f, lo, hi, flo, fhi)


def _narrow(f, lo: Decimal, hi: Decimal, flo: Decimal, fhi: Decimal) -> Decimal:
    """The root of f in [lo, hi], where flo = f(lo) >= 0 >= f(hi) = fhi."""
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
    raise AssertionError(f"no 50-digit root within 1000 steps in [{lo}, {hi}]")


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


def outflow(law, x: Decimal, G: Decimal, dh: Decimal, q_in: Decimal) -> Decimal:
    """The outflow that the hypothesis (law, x) implies from (dh, q_in), given
    the flow G through every other pipe: the root of the pipe's head loss
    x U(q_in - G) + (1 - x) U(q_out - G) = dh in q_out."""
    return invert(law, (dh - x * evaluate(law, q_in - G)) / (1 - x)) + G


def confusion_root(pipes, i: int, x_i: float, k: int, x: float, dh: float, q: float):
    """The root q* nearest q of the confusion mismatch that
    `sensitivity.confusion_flow_curve` zeroes at dh, the outflow of the truth
    (pipe k at x) minus that of the hypothesis (pipe i at x_i) as a function
    of q_in, and the mismatch's slope there, as (q*, f'(q*)).

    A bracket grows by doubling on both sides of q until f changes sign
    across it; a mismatch that is 0 at q, as where i = k and x_i = x, makes q
    itself the root, with slope 0."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        dh, q = Decimal(dh), Decimal(q)

        def flow_excluding(j):
            others = (law for n, law in enumerate(pipes.pipes, 1) if n != j)
            return sum((invert(law, dh) for law in others), Decimal(0))

        U_k, U_i = pipes.pipe(k), pipes.pipe(i)
        x_k, x_i = Decimal(x), Decimal(x_i)
        G_k, G_i = flow_excluding(k), flow_excluding(i)

        def f(t):
            return outflow(U_k, x_k, G_k, dh, t) - outflow(U_i, x_i, G_i, dh, t)

        fq = f(q)
        if fq == 0:
            return q, Decimal(0)
        g = f if fq > 0 else lambda t: -f(t)  # g(q) = |f(q)| > 0
        step = WIDTH * (1 + abs(q))
        for _ in range(300):
            below, above = g(q - step), g(q + step)
            if below <= 0:  # g rises across [q - step, q]
                found = _narrow(lambda t: -g(t), q - step, q, -below, -abs(fq))
                break
            if above <= 0:  # g falls across [q, q + step]
                found = _narrow(g, q, q + step, abs(fq), above)
                break
            step *= 2
        else:
            raise AssertionError(f"the mismatch keeps its sign within 1e50 of {q}")
        h = Decimal("1e-20") * (1 + abs(found))
        return found, (f(found + h) - f(found - h)) / (2 * h)


def leak_fit(samples, h_y: float) -> tuple[Decimal, Decimal]:
    """C and beta of the least-squares line ln q = ln C + beta ln(h - h_y) through
    the (h, q) samples, from its normal equations
    n ln C + beta S_u = S_v and ln C S_u + beta S_uu = S_uv,
    with u = ln(h - h_y) and v = ln q, and h - h_y formed exactly."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        u = [(Decimal(h) - Decimal(h_y)).ln() for h, _ in samples]
        v = [Decimal(q).ln() for _, q in samples]
        n, S_u, S_v = len(samples), sum(u), sum(v)
        S_uu, S_uv = sum(a * a for a in u), sum(a * b for a, b in zip(u, v))
        beta = (n * S_uv - S_u * S_v) / (n * S_uu - S_u * S_u)
        return ((S_v - beta * S_u) / n).exp(), beta
