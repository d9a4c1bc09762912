"""Character-twisted Kloosterman sums at the cusp at infinity.

K_chi(r, r'; c) = sum over ad = 1 mod c of chi(d)^{-1} e^{2 pi i S((r'a + rd)/c)}

with c a nonzero element of the level ideal I, r and r' in the inverse
different O', and chi a character of (O/I)*.  Only the cusp pair
(infinity, infinity) is implemented; general cusp pairs need scaling
matrices with no computable construction here.

Phases are exact ints: by x/c = x conj(c)/N(c), tr((r'a + rd)/c) is an int
linear form in the unit pair (a, d = a^{-1}) over D |N(c)|, D the denominator
of r and r', so each term's phase is one int k mod den, the lcm of that and
the character's denominators; a character mod O (the trivial one) needs no
per-term lookup.  Floats enter only in the final sum of count_k e(k/den).

A query checks r, r' in O' by two traces, tr(x) and tr(x w), without
building O'.  The delta term delta(r, r') is the unit-square indicator with
sign and character weights; the Weil scan reports |K| against the
square-root-norm benchmark split over S, the primes of the level, which
needs the valuations of c at S alone.
"""

from __future__ import annotations

import cmath
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .fields import (
    FieldElement,
    FieldError,
    Ideal,
    NumberField,
    ideal_prime_factorization,
    ideal_valuation,
    unit_square_class,
    _small_generator,
)


class KloostermanError(ValueError):
    """Domain error in Kloosterman evaluation."""


def _unit_phase(num: int, den: int) -> complex:
    """e^{2 pi i num/den}, with num reduced mod den exactly before the float division."""
    return cmath.exp(2j * math.pi * ((num % den) / den))


class DirichletCharacter:
    """Character of (O/I)* with exact root-of-unity values.

    Values are stored as rational phases q (the value is e^{2 pi i q});
    the (order, exponent) view of a value is (q.denominator, q.numerator).
    """

    def __init__(self, field: NumberField, modulus: Ideal,
                 phases: Dict[tuple, Fraction], check: bool = True):
        if not modulus.is_integral():
            raise FieldError("the character modulus must be an integral ideal")
        self.field = field
        self.modulus = modulus
        self.phases = {k: (q - (q.numerator // q.denominator)) for k, q in phases.items()}
        if check:
            self._validate()

    def _validate(self):
        one = self.modulus.reduce(self.field.one())
        if self.phases.get(one.coords(), None) != Fraction(0):
            raise KloostermanError("character must send 1 to 1")
        units = [self.field.element(*k) for k in self.phases]
        if len(units) <= 64:
            pairs = [(x, y) for x in units for y in units]
        else:
            rng = random.Random(7)
            pairs = [(rng.choice(units), rng.choice(units)) for _ in range(500)]
        for x, y in pairs:
            lhs = self.phase(x * y)
            rhs = self.phase(x) + self.phase(y)
            if (lhs - rhs).numerator % (lhs - rhs).denominator != 0:
                raise KloostermanError("value table is not multiplicative at %r,%r" % (x, y))

    @classmethod
    def trivial(cls, field: NumberField, modulus: Ideal) -> "DirichletCharacter":
        phases = {x: Fraction(0) for x, _ in modulus.unit_inverse_pairs()}
        return cls(field, modulus, phases, check=False)

    @classmethod
    def cyclic(cls, field: NumberField, modulus: Ideal, generator: FieldElement,
               exponent: int = 1) -> "DirichletCharacter":
        """chi(g^j) = e^{2 pi i j exponent / order}; g must generate (O/I)*."""
        n_units = len(modulus.unit_inverse_pairs())
        g = modulus.reduce(generator)
        phases = {}
        x = modulus.reduce(field.one())
        order = 0
        while True:
            key = x.coords()
            if key in phases and order > 0:
                break
            phases[key] = order
            x = modulus.reduce(x * g)
            order += 1
            if order > n_units:
                raise KloostermanError("generator does not have finite unit order")
        if len(phases) != n_units:
            raise KloostermanError("element does not generate the unit group "
                                   "(%d of %d units reached)" % (len(phases), n_units))
        table = {k: Fraction(j * exponent, order) for k, j in phases.items()}
        return cls(field, modulus, table)

    def phase(self, x: FieldElement) -> Fraction:
        key = self.modulus.reduce(x).coords()
        if key not in self.phases:
            raise KloostermanError("%r is not a unit mod the character modulus" % (x,))
        return self.phases[key]

    def value(self, x: FieldElement) -> complex:
        return _unit_phase(*self.phase(x).as_integer_ratio())

    def inverse_phase(self, x: FieldElement) -> Fraction:
        return -self.phase(x)

    def minus_one(self) -> int:
        """chi(-1), always +1 or -1."""
        q = self.phase(-self.field.one())
        v = 2 * q
        if v.denominator != 1:
            raise KloostermanError("chi(-1)^2 != 1; corrupt table")
        return 1 if q == 0 else -1


@dataclass(frozen=True)
class KloostermanQuery:
    c: FieldElement
    r: FieldElement
    rp: FieldElement
    chi: DirichletCharacter

    def __post_init__(self):
        field = self.c.field
        if self.c.is_zero():
            raise KloostermanError("c must be nonzero")
        if not self.chi.modulus.contains(self.c):
            raise KloostermanError("c must lie in the character modulus ideal")
        for name, x in (("r", self.r), ("r'", self.rp)):
            if x.field != field:
                raise FieldError("field mismatch: %s is in %r, c in %r" % (name, x.field, field))
            # O = Z + Zw, so x lies in its trace dual O' iff tr(x) and tr(x w) are
            # ints; tr(x w) = t a + (t^2 + 2c) b, which is 0 over Q
            traces = (x.trace(), field.t * x.a + (field.t ** 2 + 2 * field.c) * x.b)
            if any(v.denominator != 1 for v in traces):
                raise KloostermanError("%s must lie in the inverse different" % name)

    def swapped(self) -> "KloostermanQuery":
        return KloostermanQuery(self.c, self.rp, self.r, self.chi)

    def negated_c(self) -> "KloostermanQuery":
        return KloostermanQuery(-self.c, self.r, self.rp, self.chi)


def evaluate(q: KloostermanQuery) -> complex:
    """Exact finite sum over unit pairs (a, d = a^{-1}) of O/cO.

    With y = D r' conj(c) and z = D r conj(c), D clearing the denominators of r
    and r', a term's phase is
    (a0 tr(y) + a1 tr(y w) + d0 tr(z) + d1 tr(z w)) / (D N(c)) - chi phase of d.
    """
    field, chi, t = q.c.field, q.chi, q.c.field.t
    c = tuple(v.numerator for v in q.c.coords())  # integral: it lies in chi's modulus
    cbar = c if field.degree == 1 else (c[0] + t * c[1], -c[1])
    norm = field.mul_coords(c, cbar)[0]
    d_rr = math.lcm(*(v.denominator for x in (q.rp, q.r) for v in x.coords()))
    den = math.lcm(d_rr * abs(norm), *(x.denominator for x in chi.phases.values()))
    scale = den // (d_rr * norm)  # exact, and negative when N(c) is
    lin = []
    for x in (q.rp, q.r):
        y = field.mul_coords(tuple(v.numerator * (d_rr // v.denominator) * scale
                                   for v in x.coords()), cbar)
        # tr(y) = 2 y0 + t y1 and tr(y w) = t y0 + (t^2 + 2c) y1; over Q tr(y) = y0
        lin += y if field.degree == 1 else \
            (2 * y[0] + t * y[1], t * y[0] + (t * t + 2 * field.c) * y[1])
    pairs = Ideal.principal(q.c).unit_inverse_pairs()
    if field.degree == 1:
        l0, m0 = lin
        terms = ((a * l0 + d * m0) % den for (a,), (d,) in pairs)
    else:
        l0, l1, m0, m1 = lin
        terms = ((a0 * l0 + a1 * l1 + d0 * m0 + d1 * m1) % den
                 for (a0, a1), (d0, d1) in pairs)
    # mod O every d reduces to the one residue 0, so chi moves each count's key alike
    chi_num = {key: x.numerator * (den // x.denominator) for key, x in chi.phases.items()}
    shift = 0
    try:
        if chi.modulus.hnf[0][0] == 1:
            shift = chi_num[chi.modulus.reduce_coords(0)]
        else:
            terms = ((k - chi_num[chi.modulus.reduce_coords(*d)]) % den
                     for k, (_, d) in zip(terms, pairs))
        counts = Counter(terms)
    except KeyError as exc:
        raise KloostermanError("%r is not a unit mod the character modulus"
                               % (exc.args[0],)) from None
    return sum(n * _unit_phase(k - shift, den) for k, n in counts.items())


def rational_kloosterman(m: int, n: int, c: int) -> complex:
    """Classical S(m, n; c) over the rationals with trivial character; taken mod
    O, its table has one entry, so only evaluate enumerates the units mod c."""
    field = NumberField()
    chi = DirichletCharacter.trivial(field, Ideal.unit_ideal(field))
    q = KloostermanQuery(field.element(c), field.element(m), field.element(n), chi)
    return evaluate(q)


def symmetry_check(q: KloostermanQuery) -> float:
    """Max deviation in conj K(r,r';c) = K(r',r;-c) = chi(-1) K(r',r;c).

    Returns the deviation (a float); the identities hold when it is below
    the working tolerance, 1e-9 for the bundled examples.
    """
    k = evaluate(q)
    k_swap = evaluate(q.swapped())
    k_swap_neg = evaluate(q.swapped().negated_c())
    chi_m1 = q.chi.minus_one()
    return max(abs(k.conjugate() - k_swap_neg),
               abs(k.conjugate() - chi_m1 * k_swap))


# -- delta term ------------------------------------------------------------------


def delta_term(r: FieldElement, rp: FieldElement, xi: Sequence[int],
               chi: DirichletCharacter) -> complex:
    """(1/2) sum over units eps with eps^2 = r/r' of chi(eps^{-1}) prod_j sign(eps_j)^{xi_j}.

    Zero when r/r' is not a unit square.  Class representatives are taken
    with translation part beta = 0, so the exponential factor is 1; any
    other choice gives S(r beta eps) in Z for r in O' and beta in O, hence
    the same summands.
    """
    if r.is_zero() or rp.is_zero():
        raise KloostermanError("r and r' must be nonzero")
    field = r.field
    if len(xi) != field.degree or any(x not in (0, 1) for x in xi):
        raise KloostermanError("xi must be a 0/1 vector of length %d" % field.degree)
    eps = unit_square_class(r, rp)
    if eps is None:
        return 0.0 + 0.0j
    total = 0.0 + 0.0j
    for e in (eps, -eps):
        sign_factor = 1
        for s, x in zip(e.embed(), xi):
            if x == 1 and s < 0:
                sign_factor = -sign_factor
        total += _unit_phase(*chi.inverse_phase(e).as_integer_ratio()) * sign_factor
    return 0.5 * total


# -- Weil-bound regression scan ---------------------------------------------------


@dataclass(frozen=True)
class WeilRow:
    c: FieldElement
    norm: int
    abs_k: float
    ratio: float


@dataclass(frozen=True)
class WeilScanResult:
    rows: Tuple[WeilRow, ...]
    running_max: float
    eps: float
    s_labels: Tuple[str, ...]
    # ideals inside the level, norm <= max_norm, whose generator search found none
    skipped: int = 0


# the largest sum of |N(c)| over a scan's moduli, which bounds its number of terms
_WORK_BUDGET = 4 * 10 ** 6


def _principal_ideals_up_to(field: NumberField, level: Ideal,
                            max_norm: int) -> Tuple[List[FieldElement], int]:
    """One generator per nonzero principal ideal inside the level, norm <= max_norm,
    and the number of ideals in that range whose generator search found none."""
    if field.degree == 1:
        q = int(level.norm())
        return [field.element(n) for n in range(q, max_norm + 1, q)], 0
    gens = []
    skipped = 0
    t, c = field.t, field.c
    for g in range(1, math.isqrt(max_norm) + 1):
        n_t_max = max_norm // (g * g)
        for nt in range(1, n_t_max + 1):
            for bt in range(nt):
                if (bt * bt + t * bt - c) % nt != 0:
                    continue
                hnf = ((g * nt, 0), (g * bt, g))
                ideal = Ideal(field, hnf)
                if not (ideal <= level):
                    continue
                gen = _small_generator(field, ideal, g * g * nt)
                if gen is None:
                    skipped += 1
                else:
                    gens.append(gen)
    gens.sort(key=lambda e: (abs(e.norm()), e.coords()))
    return gens, skipped


def weil_scan(field: NumberField, r: FieldElement, rp: FieldElement,
              chi: Optional[DirichletCharacter] = None, max_norm: int = 100,
              eps: float = 0.1) -> WeilScanResult:
    """|K| against the split benchmark prod_{p in S} Np^v * (prod else Np^v)^{1/2+eps}.

    c runs over generators of nonzero (principal) ideals inside the level
    with norm <= max_norm; S is the set of primes dividing the level.  The
    N(P)^v_P(c) multiply to |N(c)|, so with s their product over S the
    benchmark is s (|N(c)|/s)^{1/2+eps}.
    The running maximum over ratios is the empirical implied constant;
    ideals whose generator search fails are counted in ``skipped``.
    """
    if chi is None:
        chi = DirichletCharacter.trivial(field, Ideal.unit_ideal(field))
    level = chi.modulus
    s_primes = [p for p, _ in ideal_prime_factorization(level)]
    s_labels = tuple(p.label for p in s_primes)
    # a-priori lower bound on the work before enumerating anything: the
    # rational multiples of N(level) are always principal and in the level
    lnorm = max(1, abs(int(level.norm())))
    if field.degree == 1:
        km = max_norm // lnorm
        lower = lnorm * km * (km + 1) // 2
    else:
        km = math.isqrt(max_norm) // lnorm
        lower = lnorm * lnorm * km * (km + 1) * (2 * km + 1) // 6
    if lower > _WORK_BUDGET:
        raise KloostermanError("scan range exceeds the work budget; lower max_norm")
    gens, skipped = _principal_ideals_up_to(field, level, max_norm)
    if sum(abs(int(g.norm())) for g in gens) > _WORK_BUDGET:
        raise KloostermanError("scan range exceeds the work budget; lower max_norm")

    def one_row(c: FieldElement) -> WeilRow:
        k = abs(evaluate(KloostermanQuery(c, r, rp, chi)))
        norm = abs(int(c.norm()))
        s = math.prod(p.absolute_norm() ** ideal_valuation(Ideal.principal(c), p)
                      for p in s_primes)
        return WeilRow(c, norm, k, k / (s * (norm // s) ** (0.5 + eps)))

    # gens come sorted by (norm, coords), so the rows do too
    rows = [one_row(c) for c in gens]
    running = 0.0
    for row in rows:
        running = max(running, row.ratio)
    return WeilScanResult(tuple(rows), running, eps, s_labels, skipped)
