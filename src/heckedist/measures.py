"""Spectral measures, their nu-coordinate forms, and Sato-Tate measures.

Six archimedean kinds are bundled; spectral_measure reads a name such as v10
as the SpectralMeasure ("v1", 0), a family and a parity.  In the coordinate lambda:

  pl0:  tanh(pi sqrt(lambda-1/4)) d lambda on [1/4, oo)
        + atoms of mass b-1 at b/2 (1-b/2), b even, b >= 2
  pl1:  the same with coth and odd b >= 3
  v10:  1/2 on [5/4, oo), (1/2)|lambda-1/4|^{-1/2} on [0, 5/4],
        atoms of mass beta at 1/4 - beta^2, beta = 1/2, 3/2, ...
  v11:  1/2 on [5/4, oo), (1/2)(lambda-1/4)^{-1/2} on [1/4, 5/4],
        atoms of mass beta at 1/4 - beta^2, beta = 1, 2, ...

npl0/npl1 are the pl measures written in the spectral parameter nu with
lambda = 1/4 - nu^2: continuous part 2t tanh(pi t) dt (resp. coth) on the
imaginary leg nu = it, atoms at nu = (b-1)/2.  Sato-Tate measures
sqrt(4N - lambda^2)/(pi N) on [0, 2 sqrt N] carry the nonarchimedean
coordinates; their even moments are Catalan numbers times powers of N,
which is what makes the polynomial route exact.

Continuous pl masses are closed forms in u = sqrt(lambda - 1/4), x = e^(-2 pi u):
the primitive of 2u tanh(pi u) is u^2 - 1/12 + (2u/pi) log(1 + x) - Li2(-x)/pi^2,
that of 2u coth(pi u) is u^2 + 1/6 + (2u/pi) log(1 - x) - Li2(x)/pi^2, and
Landen's identity and the reflection formula keep each dilogarithm argument in
[0, 1/2] (Lewin, Polylogarithms, ch. 1); their error is a derived bound.  The
nu forms take a separate route, a composite 16-point Gauss-Legendre rule in
s = sqrt(lambda - 1/4) with a proven error bound, so npl_consistency checks the
closed form against a quadrature.  Both routes run on the standard library;
only inverse_cdf_table loads numpy.  V1 and Sato-Tate interval masses are
closed forms too.  Atom positions and masses are exact rationals, and atom
ranges come from the endpoints' exact integer ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from typing import List, NamedTuple, Sequence, Tuple, Union

Rat = Union[int, Fraction]

# nodes of SatoTateMeasure.inverse_cdf_table, the synthesizer's sampling grid
_ST_NODES = 10 ** 4


class MeasureError(ValueError):
    """Domain error in measure evaluation."""


class MeasureValue(NamedTuple):
    value: float
    error: float


def _parity(xi: int) -> int:
    if xi not in (0, 1):
        raise MeasureError("parity xi must be 0 or 1, got %r" % (xi,))
    return int(xi)


def _quadruple(x) -> Tuple[int, int]:
    """4x as an exact integer ratio (p, q), q > 0, of an int, Fraction or finite float."""
    try:
        p, q = x.as_integer_ratio()
    except (AttributeError, OverflowError, ValueError):
        raise MeasureError("interval endpoints must be finite numbers, got %r" % (x,)) from None
    return 4 * p, q


def _atom_range(xi: int, a: Rat, b_hi: Rat) -> range:
    """The n = 1 + xi, 3 + xi, ... whose atom 1/4 - (n/2)^2 lies in [a, b_hi].

    Both families sit there (n = b - 1 for pl, n = 2 beta for V1).  A position
    is <= b_hi exactly when the int n^2 is >= ceil(1 - 4 b_hi), and >= a
    exactly when n^2 <= floor(1 - 4 a), so isqrt gives both ends on ints.
    """
    n, (p, q), (r, s) = 1 + _parity(xi), _quadruple(b_hi), _quadruple(a)
    top = 1 - p // q  # ceil(1 - 4 b_hi)
    if top > n * n:
        root = math.isqrt(top - 1) + 1  # ceil(sqrt(top))
        n = root + (root - n) % 2
    return range(n, math.isqrt(max((s - r) // s, 0)) + 1, 2)  # floor(1 - 4a)


def _atoms_in(xi: int, a: Rat, b_hi: Rat, mass_den: int) -> List[Tuple[Fraction, Fraction]]:
    """The atoms in [a, b_hi], atom n of mass n / mass_den (1 for pl, 2 for V1)."""
    return [(Fraction(1 - n * n, 4), Fraction(n, mass_den)) for n in _atom_range(xi, a, b_hi)]


def _atom_mass(xi: int, a: Rat, b_hi: Rat, mass_den: int) -> float:
    """Total mass of _atoms_in(xi, a, b_hi, mass_den), an arithmetic series
    rounded once (int true division)."""
    n = _atom_range(xi, a, b_hi)
    return ((n[-1] - n[0]) // 2 + 1) * (n[0] + n[-1]) / (2 * mass_den) if n else 0.0


def pl_atoms_in(xi: int, a: Rat, b_hi: Rat) -> List[Tuple[Fraction, Fraction]]:
    """Atoms (position, mass) of pl_xi inside the closed interval [a, b_hi]:
    mass b - 1 at b/2 (1 - b/2), b = xi mod 2, b >= 2."""
    return _atoms_in(xi, a, b_hi, 1)


def v1_atoms_in(xi: int, a: Rat, b_hi: Rat) -> List[Tuple[Fraction, Fraction]]:
    """Atoms (position, mass) of V1,xi inside [a, b_hi]: mass beta at 1/4-beta^2."""
    return _atoms_in(xi, a, b_hi, 2)


def _li2(z: float) -> float:
    """Dilogarithm sum z^k/k^2 for 0 <= z <= 1/2, stopped at the first term
    below 1e-17, so the dropped tail is below 2e-17."""
    total, power, k = 0.0, z, 1
    while power >= 1e-17 * k * k:
        total += power / (k * k)
        k += 1
        power *= z
    return total


def _pl_excess(xi: int, u: float) -> float:
    """int_0^u 2s tanh(pi s) ds - u^2 (coth for xi = 1), in closed form."""
    x = math.exp(-2.0 * math.pi * u)
    if xi == 0:  # -Li2(-x) = Li2(x/(1+x)) + log(1+x)^2/2 (Landen)
        ell = math.log1p(x)
        li2 = _li2(x / (1.0 + x)) + 0.5 * ell * ell
        return 2.0 * u / math.pi * ell + li2 / math.pi ** 2 - 1.0 / 12.0
    if x > 0.5:  # reflection: the log terms and pi^2/6 cancel
        return _li2(-math.expm1(-2.0 * math.pi * u)) / math.pi ** 2
    return 1.0 / 6.0 + 2.0 * u / math.pi * math.log1p(-x) - _li2(x) / math.pi ** 2


def _pl_continuous(xi: int, lo: float, hi: float) -> MeasureValue:
    """Mass of the pl_xi density on [lo, hi] within [1/4, oo), as (hi - lo) plus
    the difference of _pl_excess, which never squares a square root.

    The error bound: hi - lo and the final sum round by at most 2.3e-16 hi in
    all.  Each _pl_excess is within 4.3e-16: its dilogarithm sum is at most 46
    roundings of partial sums below 0.59 plus the 2e-17 tail, over pi^2, and
    its other terms are below 1/6 with a few roundings each.  The rounding of
    u moves it by under 2e-17, as |u d excess/du| < 0.07.  Together that is
    below 1e-15 (hi + 1).
    """
    lo = max(lo, 0.25)
    if hi <= lo:
        return MeasureValue(0.0, 0.0)
    ua, ub = math.sqrt(lo - 0.25), math.sqrt(hi - 0.25)
    return MeasureValue((hi - lo) + (_pl_excess(xi, ub) - _pl_excess(xi, ua)),
                        1e-15 * (hi + 1.0))


def _v1_continuous(xi: int, lo: float, hi: float) -> MeasureValue:
    """V1,xi continuous mass over [lo, hi]; closed form, no quadrature."""
    if hi <= lo:
        return MeasureValue(0.0, 0.0)
    total = 0.0
    # flat piece on [5/4, oo)
    c, d = max(lo, 1.25), hi
    if d > c:
        total += 0.5 * (d - c)
    # singular piece, right side of 1/4 up to 5/4
    c, d = max(lo, 0.25), min(hi, 1.25)
    if d > c:
        total += math.sqrt(d - 0.25) - math.sqrt(c - 0.25)
    if xi == 0:
        # left side [0, 1/4]
        c, d = max(lo, 0.0), min(hi, 0.25)
        if d > c:
            total += math.sqrt(0.25 - c) - math.sqrt(0.25 - d)
    return MeasureValue(total, 4e-16 * abs(total) + 1e-16)


@dataclass(frozen=True)
class SpectralMeasure:
    """One of the bundled lambda-coordinate measures: family "pl" or "v1" and
    parity xi, both checked at construction (pl0 is ("pl", 0), v11 ("v1", 1))."""

    family: str
    xi: int

    def __post_init__(self):
        if self.family not in ("pl", "v1"):
            raise MeasureError("unknown measure family %r (pl or v1)" % (self.family,))
        _parity(self.xi)

    def continuous_mass(self, lo: float, hi: float) -> MeasureValue:
        return (_pl_continuous if self.family == "pl" else _v1_continuous)(self.xi, lo, hi)


def spectral_measure(kind: str) -> SpectralMeasure:
    """The measure named pl0, pl1, v10 or v11: the family, then the parity xi."""
    k = kind.strip()
    if k not in ("pl0", "pl1", "v10", "v11"):
        raise MeasureError("unknown measure kind %r (npl kinds use nu_measure)" % (kind,))
    return SpectralMeasure(k[:-1], int(k[-1]))


def pl_measure(xi: int) -> SpectralMeasure:
    return SpectralMeasure("pl", xi)


def v1_measure(xi: int) -> SpectralMeasure:
    return SpectralMeasure("v1", xi)


def measure_interval(measure: SpectralMeasure, interval: Tuple[float, float]) -> MeasureValue:
    """Measure of the closed interval [a, b]; value plus an error bound.

    Both endpoints must be finite: every bundled kind has infinite mass on a half line.
    """
    a, b = interval
    if not (math.isfinite(a) and math.isfinite(b)):
        raise MeasureError("interval endpoints must be finite, got [%r, %r]" % (a, b))
    if a > b:
        raise MeasureError("empty interval [%r, %r]" % (a, b))
    cont = measure.continuous_mass(float(a), float(b))
    atom_mass = _atom_mass(measure.xi, a, b, 1 if measure.family == "pl" else 2)
    return MeasureValue(cont.value + atom_mass, cont.error)


# -- nu-coordinate (spectral parameter) forms ----------------------------------


def _nu_path_lambda(nu: complex) -> float:
    """lambda = 1/4 - nu^2 along the canonical path (real leg then imaginary)."""
    z = complex(nu)
    if not (abs(z.real) < 1e154 and abs(z.imag) < 1e154):  # else nu^2 is not a finite float
        raise MeasureError("nu must be finite with |nu| < 1e154, got %r" % (nu,))
    tol = 1e-12
    if abs(z.imag) <= tol and z.real >= -tol:
        return 0.25 - z.real ** 2
    if abs(z.real) <= tol and z.imag >= -tol:
        return 0.25 + z.imag ** 2
    raise MeasureError("nu must lie on [0, oo) or i[0, oo), got %r" % (nu,))


@lru_cache(maxsize=None)
def _gauss_legendre_16() -> Tuple[Tuple[float, float], ...]:
    """(node, weight) of the 16-point Gauss-Legendre rule on [0, 2], each within
    2^-53 relatively: Newton on P_16 in 40-digit decimals, then 1 -+ t rounded."""
    rule = []
    with localcontext() as ctx:
        ctx.prec = 40
        for i in range(1, 9):
            t, step = Decimal(math.cos(math.pi * (i - 0.25) / 16.5)), 1
            while abs(step) > Decimal("1e-30"):
                p0, p1 = Decimal(1), t
                for k in range(2, 17):
                    p0, p1 = p1, ((2 * k - 1) * t * p1 - (k - 1) * p0) / k
                dp = 16 * (p0 - t * p1) / (1 - t * t)  # P_16' from P_15 and P_16
                step = p1 / dp
                t -= step
            weight = float(2 / ((1 - t * t) * dp * dp))
            rule += [(float(1 - t), weight), (float(1 + t), weight)]
    return tuple(sorted(rule))


@dataclass(frozen=True)
class NuMeasure:
    """pl_xi written in the spectral parameter nu (lambda = 1/4 - nu^2).

    Continuous part 2t tanh(pi t) dt (xi = 0) or 2t coth(pi t) dt (xi = 1)
    on the imaginary leg nu = it; atoms of mass b-1 at nu = (b-1)/2 on the
    real leg, b > 1 of parity xi mod 2.  The error of a mass is a proven
    bound (derived at _from_quarter), below 1e-14 (lambda + 1) at each end.
    """

    xi: int
    _PANEL_ERROR = 1e-16  # the Bernstein-ellipse bound of one panel, see _from_quarter

    def __post_init__(self):
        _parity(self.xi)

    def interval(self, lo: complex, hi: complex) -> MeasureValue:
        """Mass of the path segment between nu = lo and nu = hi.

        Segments crossing the branch point nu = 0 are split automatically
        (the path runs down the real leg, through 0, up the imaginary leg).
        """
        lam_lo, lam_hi = sorted((_nu_path_lambda(lo), _nu_path_lambda(hi)))
        # continuous: imaginary leg only, lambda in [1/4, oo); a quadrature,
        # a route apart from the lambda side's closed form
        lo_part, hi_part = (self._from_quarter(lam) for lam in (lam_lo, lam_hi))
        # atoms at nu = (b-1)/2 <-> lambda = b/2(1-b/2)
        atom_mass = _atom_mass(self.xi, lam_lo, lam_hi, 1)
        return MeasureValue(hi_part.value - lo_part.value + atom_mass,
                            hi_part.error + lo_part.error)

    def _from_quarter(self, lam: float) -> MeasureValue:
        """Continuous mass of the leg up to lambda: f(s) = 2s tanh(pi s) (coth
        for xi = 1) over [0, S], S = sqrt(lambda - 1/4), by 16-point Gauss-Legendre
        panels of width <= 1/2 up to min(S, 8), plus the exact (lambda - 1/4) - 64.

        Error bound.  Panels: |f| <= 17.1 where |Im s| <= 0.4, -1/2 <= Re s <= 17/2
        (poles at Im s = 1/2, 1), which holds the Bernstein ellipse rho = 1.6 +
        sqrt(3.56) = 3.487 of a panel of half-width h <= 1/4; there |integrand|
        <= M = 17.1 h, so the error is <= (64/15) M rho^-30 / (rho^2 - 1) < 9e-17
        (Trefethen, Approximation Theory and Approximation Practice, Thm 19.3).
        Tail: |f - 2s| < 5s e^(-2 pi s) integrates to < 1e-21 past s = 8.
        Rounding, u = 2^-53: nodes and weights are within u; a + h node is
        within 3u, moving f by 6u as |s f'/f| <= 2; pi s, tanh (2 ulps) and two
        products add 7u, the weight and h 3u; the positive terms are within 16u
        of their sum, which fsum rounds once.  The rounded S moves the mass by
        <= 3u S^2 + u S, and (lambda - 1/4) - 64 is within 2u lambda, with
        lambda - 1/4 <= mass + 1/12.  In all the rounding is < 2^-48 (mass + 1).
        """
        if lam <= 0.25:
            return MeasureValue(0.0, 0.0)
        x = lam - 0.25
        top = min(math.sqrt(x), 8.0)
        terms = [x - 64.0] if x > 64.0 else []  # int_8^S 2s ds, without squaring S
        panels = math.ceil(2.0 * top)
        for a in (k / 2 for k in range(panels)):
            half = (min(a + 0.5, top) - a) / 2  # exact: both ends within a factor 2
            for node, weight in _gauss_legendre_16():
                s = a + half * node
                t = math.tanh(math.pi * s)
                terms.append(half * weight * (2.0 * s / t if self.xi else 2.0 * s * t))
        value = math.fsum(terms)
        return MeasureValue(value, panels * self._PANEL_ERROR + 1e-21 + 2.0 ** -48 * (value + 1.0))


def nu_measure(xi: int) -> NuMeasure:
    return NuMeasure(xi)


def npl_consistency(xi: int, lo: complex, hi: complex) -> Tuple[MeasureValue, MeasureValue]:
    """(nu-side mass, lambda-side mass) of the same spectral window, each with its bound.

    The two must agree within the sum of their proven error bounds: the nu
    side's Gauss-Legendre quadrature and the lambda side's closed form, which
    maps the path segment through lambda = 1/4 - nu^2 and calls measure_interval.
    """
    window = tuple(sorted((_nu_path_lambda(lo), _nu_path_lambda(hi))))
    return nu_measure(xi).interval(lo, hi), measure_interval(pl_measure(xi), window)


# -- Sato-Tate measures --------------------------------------------------------


def catalan(m: int) -> int:
    return math.comb(2 * m, m) // (m + 1)


@dataclass(frozen=True)
class SatoTateMeasure:
    """Density sqrt(4N - lambda^2)/(pi N) on [0, 2 sqrt N]; total mass 1."""

    norm: int

    def __post_init__(self):
        if type(self.norm) is not int or self.norm < 2:
            raise MeasureError("prime norm must be an int >= 2, got %r" % (self.norm,))

    def support(self) -> Tuple[float, float]:
        return (0.0, 2.0 * math.sqrt(self.norm))

    def moment(self, m: int) -> Fraction:
        """Exact m-th moment: Catalan(m/2) N^{m/2} for even m."""
        if m % 2 == 0:
            return Fraction(catalan(m // 2)) * Fraction(self.norm) ** (m // 2)
        # odd moments via the Wallis form: rational multiple of sqrt(N)/pi,
        # not rational; exposed only through interval quadrature
        raise MeasureError("odd moments are irrational; integrate an interval instead")

    def polynomial(self, even_coeffs: Sequence[Rat]) -> Fraction:
        """Exact integral of sum a_m lambda^{2m} (coefficients in lambda^{2m})."""
        acc = Fraction(0)
        for m, c in enumerate(even_coeffs):
            acc += Fraction(c) * self.moment(2 * m)
        return acc

    def _primitive(self, x: float) -> float:
        # antiderivative of sqrt(4N - s^2): s/2 sqrt(4N-s^2) + 2N asin(s/(2 sqrt N))
        N = self.norm
        r = 2.0 * math.sqrt(N)
        x = min(max(x, -r), r)
        # (r-x)(r+x) rather than 4N - x^2: exactly zero at the clamped edge
        inner = max((r - x) * (r + x), 0.0)
        s = math.sqrt(inner)
        # atan2(x, s) == asin(x/r) but tied to the same radicand, so the angle
        # reaches pi/2 only when s is exactly 0; keeps interval masses <= 1
        return 0.5 * x * s + 2.0 * N * math.atan2(x, s)

    def mass(self, a: float, b: float) -> MeasureValue:
        """Closed-form mass of [a, b] clipped to the support; NaN fails a <= b."""
        if not a <= b:
            raise MeasureError("interval needs a <= b, got [%r, %r]" % (a, b))
        lo, hi = self.support()
        c, d = max(float(a), lo), min(float(b), hi)
        if d <= c:
            return MeasureValue(0.0, 0.0)
        v = (self._primitive(d) - self._primitive(c)) / (math.pi * self.norm)
        return MeasureValue(v, 4e-16 * abs(v) + 1e-16)

    def inverse_cdf_table(self):
        """(grid, cdf) arrays of _ST_NODES nodes for inverse-CDF sampling; deterministic."""
        import numpy as np
        lo, hi = self.support()
        grid = np.linspace(lo, hi, _ST_NODES)
        root = np.sqrt(np.maximum((hi - grid) * (hi + grid), 0.0))
        prim = 0.5 * grid * root + 2.0 * self.norm * np.arctan2(grid, root)
        cdf = (prim - prim[0]) / (math.pi * self.norm)
        cdf[-1] = 1.0
        return grid, cdf


# -- boxes ----------------------------------------------------------------------


@dataclass(frozen=True)
class Box:
    """Product spectral window: |lambda_j| <= t for j in Q, fixed windows on E.

    xi is the parity vector; E-window endpoints must avoid the
    discrete-series eigenvalues of the matching parity (counts at those
    points are ill-posed under the closed-interval convention).
    """

    dim: int
    q_coords: Tuple[int, ...]
    e_windows: Tuple[Tuple[int, Tuple[float, float]], ...]
    xi: Tuple[int, ...]
    t: float

    def __post_init__(self):
        q = set(self.q_coords)
        e = {j for j, _ in self.e_windows}
        if self.dim < 1 or q | e != set(range(1, self.dim + 1)) or q & e:
            raise MeasureError("Q and E must partition {1..%d}" % self.dim)
        if len(self.xi) != self.dim or any(x not in (0, 1) for x in self.xi):
            raise MeasureError("xi must be a 0/1 vector of length %d" % self.dim)
        if not 0 <= self.t < math.inf:
            raise MeasureError("t must be >= 0 and finite, got %r" % (self.t,))
        for j, (a, b) in self.e_windows:
            if not (math.isfinite(a) and math.isfinite(b)) or a > b:
                raise MeasureError("bad window [%r, %r] on coordinate %d" % (a, b, j))
            for endpoint in (a, b):
                if pl_atoms_in(self.xi[j - 1], endpoint, endpoint):
                    raise MeasureError(
                        "window endpoint %r on coordinate %d hits a discrete-series "
                        "eigenvalue of parity %d" % (endpoint, j, self.xi[j - 1]))

    def with_t(self, t: float) -> "Box":
        """This box at threshold t; only t needs a check, the rest was checked at construction."""
        if not 0 <= t < math.inf:
            raise MeasureError("t must be >= 0 and finite, got %r" % (t,))
        box = object.__new__(Box)
        box.__dict__.update(self.__dict__, t=t)
        return box

    def interval(self, j: int) -> Tuple[float, float]:
        if j in self.q_coords:
            return (-self.t, self.t)
        for jj, w in self.e_windows:
            if jj == j:
                return w
        raise MeasureError("coordinate %d out of range" % j)

    def contains(self, lam: Sequence[float]) -> bool:
        if len(lam) != self.dim:
            raise MeasureError("expected %d coordinates" % self.dim)
        for j in range(1, self.dim + 1):
            a, b = self.interval(j)
            if not (a <= lam[j - 1] <= b):
                return False
        return True


def box_measure(box: Box, family: str = "pl") -> MeasureValue:
    """Product of per-coordinate measures over the box; family 'pl' or 'v1'."""
    total = 1.0
    err_rel = 0.0
    for j in range(1, box.dim + 1):
        mv = measure_interval(SpectralMeasure(family, box.xi[j - 1]), box.interval(j))
        total *= mv.value
        if mv.value != 0:
            err_rel += mv.error / abs(mv.value)
        else:
            # a zero factor zeroes the product; error bounded by the factor error
            return MeasureValue(0.0, mv.error)
    return MeasureValue(total, abs(total) * err_rel + 1e-15)
