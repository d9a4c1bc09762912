"""Character-twisted Kloosterman sums at the cusp at infinity.

K_chi(r, r'; c) = sum over ad = 1 mod c of chi(d)^{-1} e^{2 pi i S((r'a + rd)/c)}

with c a nonzero element of the level ideal I, r and r' in the inverse
different O', and chi a character of (O/I)*.  Only the cusp pair
(infinity, infinity) is implemented; general cusp pairs need scaling
matrices with no computable construction here.

Phases are exact ints: by x/c = x conj(c)/N(c), tr((r'a + rd)/c) is an int
linear form in the unit pair (a, d = a^{-1}) over den = D |N(c)|, D the
denominator of r and r' (over Q, conj(c) = c and N(c) = c^2), so each term's
phase is one int k mod den.  _phase_form reads den and the form's int
coefficients off the numerators and denominators of c, r and r' once per sum,
and divides them by their gcd.
The units x and -x give the pairs (a, d) and (-a, -d), with phases k and -k
and chi(-d) = chi(-1) chi(d), so the two terms sum to conj(chi(d)) 2 cos(2 pi
k/den) when chi(-1) = 1 and to conj(chi(d)) 2i sin(2 pi k/den) when chi(-1) =
-1; _sum reads one unit of each pair off the flat unit table and, in one
comprehension, each pair's k, its trig value as one lookup in the table of
cos or sin at the multiples of 1/den, and, for a checked character,
conj(chi(d)).  A module-wide fields._Store keeps those tables by den and kind;
the first sum at a den builds its den values, for about half the units mod c
as pairs.  A character keeps one checked int table, its order, each unit's
phase as an int numerator over it, and the order's roots of unity conj(chi)
reads by numerator; the trivial one keeps none, has order 1 whatever its
modulus and needs no lookup, nor the units mod its modulus.
Floats enter only in the trig tables and the final sum.

A query, or a Weil scan once for all its rows, checks r, r' in O' by two
traces, tr(x) and tr(x w), without building O'.  The delta term delta(r, r')
is the unit-square indicator with sign and character weights; the Weil scan
builds its moduli as the level times prime powers, sums each on its ideal and
splits the square-root-norm benchmark over S, the level's primes, by v_P(c), P in S.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .fields import (
    FieldElement,
    FieldError,
    Ideal,
    NumberField,
    factor_rational_prime,
    ideal_prime_factorization,
    ideal_valuation,
    unit_square_class,
    _Store,
    _is_prime,
    _orbit_size,
    _small_generator,
    _table_coords,
)


class KloostermanError(ValueError):
    """Domain error in Kloosterman evaluation."""


def _unit_phase(num: int, den: int) -> complex:
    """e^{2 pi i num/den}, with num reduced mod den exactly before the float division;
    exact at the multiples of 1/4."""
    num %= den
    if 4 * num % den == 0:
        return (1 + 0j, 1j, -1 + 0j, -1j)[4 * num // den]
    return cmath.exp(2j * math.pi * (num / den))


class DirichletCharacter:
    """Character of (O/I)* with exact root-of-unity values.

    Built from rational phases q (chi = e^{2 pi i q}) keyed by unit coordinates,
    it keeps one int table, checked complete and multiplicative: order, the lcm
    of their denominators, and numerators, each q as an int in [0, order) keyed
    by int coordinates; conj_roots[n] is e^{-2 pi i n/order}, the value of conj(chi)
    at a unit of numerator n.  phases None is the trivial character (no table,
    order 1).
    """

    def __init__(self, field: NumberField, modulus: Ideal,
                 phases: Optional[Dict[tuple, Fraction]]):
        if modulus.field != field:
            raise FieldError("field mismatch: the modulus is over %r, not %r"
                             % (modulus.field, field))
        if not modulus.is_integral():
            raise FieldError("the character modulus must be an integral ideal")
        self.field, self.modulus = field, modulus
        self.order, self.numerators, self.conj_roots = 1, None, None
        if phases is not None:
            if not all(isinstance(q, (int, Fraction)) for q in phases.values()):
                raise KloostermanError("character phases must be ints or Fractions")
            self.order = math.lcm(*(q.denominator for q in phases.values()))
            self.numerators = self._validate({
                k: q.numerator * (self.order // q.denominator) % self.order
                for k, q in phases.items()})
            self.conj_roots = [_unit_phase(-n, self.order) for n in range(self.order)]

    def _validate(self, nums: Dict[tuple, int]) -> Dict[tuple, int]:
        order, modulus = self.order, self.modulus
        if nums.get(modulus.reduce_coords(1)) != 0:
            raise KloostermanError("character must send 1 to 1")
        kept = list(_table_coords(modulus._unit_table(), self.field.degree, 0))
        negatives = (modulus.reduce_coords(*(-v for v in x)) for x in kept)
        if nums.keys() != {*kept, *negatives}:
            raise KloostermanError("the table's keys must be the units mod its modulus")
        nums = {tuple(map(int, k)): n for k, n in nums.items()}  # Fraction keys hash slowly

        def mul(x, y):
            return modulus.reduce_coords(*self.field.mul_coords(x, y))

        # a generating set: each unit outside the subgroup so far joins it;
        # n[x g] = n[x] + n[g] for every unit x and every generator g gives
        # n[x y] = n[x] + n[y] for all x, y by induction on y's word in them
        group, gens = [modulus.reduce_coords(1)], []
        members = set(group)
        for g in nums:
            if g not in members:
                gens.append(g)
                coset = [mul(x, g) for x in group]
                while coset[0] not in members:  # the cosets group g^j until g^j is in it
                    members.update(coset)
                    group += coset
                    coset = [mul(x, g) for x in coset]
        for g in gens:
            for x in nums:
                if (nums[mul(x, g)] - nums[x] - nums[g]) % order:
                    raise KloostermanError("value table is not multiplicative at %r,%r" % (x, g))
        return nums

    @classmethod
    def trivial(cls, field: NumberField, modulus: Ideal) -> "DirichletCharacter":
        return cls(field, modulus, None)

    @classmethod
    def cyclic(cls, field: NumberField, modulus: Ideal, generator: FieldElement,
               exponent: int = 1) -> "DirichletCharacter":
        """chi(g^j) = e^{2 pi i j exponent / order}; g must generate (O/I)*."""
        n_units = _orbit_size(modulus) * len(modulus._unit_table()) // (2 * field.degree)
        g = tuple(map(int, modulus.reduce(generator).coords()))
        x = tuple(map(int, modulus.reduce(field.one()).coords()))
        steps = {}
        while x not in steps:
            steps[x] = len(steps)
            x = modulus.reduce_coords(*field.mul_coords(x, g))
            if len(steps) > n_units:
                raise KloostermanError("generator does not have finite unit order")
        if len(steps) != n_units:
            raise KloostermanError("element does not generate the unit group "
                                   "(%d of %d units reached)" % (len(steps), n_units))
        table = {k: Fraction(j * exponent, len(steps)) for k, j in steps.items()}
        return cls(field, modulus, table)

    def phase(self, x: FieldElement) -> Fraction:
        """The phase q in [0, 1) of chi(x) = e^{2 pi i q}; x must be a unit mod the modulus."""
        key = self.modulus.reduce(x)
        if self.numerators is None:
            # x is a unit mod I exactly when (x) + I = O
            unit = Ideal.from_generators([key, *self.modulus.basis_elements()])
            n = 0 if unit == Ideal.unit_ideal(self.field) else None
        else:
            n = self.numerators.get(key.coords())
        if n is None:
            raise KloostermanError("%r is not a unit mod the character modulus" % (x,))
        return Fraction(n, self.order)

    def minus_one(self) -> int:
        """chi(-1), always +1 or -1: a checked table has chi(-1)^2 = chi(1) = 1, so
        its numerator at -1 is 0 or order/2; the trivial character reads no table."""
        nums = self.numerators
        return 1 if nums is None or nums[self.modulus.reduce_coords(-1)] == 0 else -1


@dataclass(frozen=True)
class KloostermanQuery:
    c: FieldElement
    r: FieldElement
    rp: FieldElement
    chi: DirichletCharacter

    def __post_init__(self):
        if self.c.is_zero():
            raise KloostermanError("c must be nonzero")
        if not self.chi.modulus.contains(self.c):
            raise KloostermanError("c must lie in the character modulus ideal")
        _check_inputs(self.c.field, self.r, self.rp, self.chi)


def _check_inputs(field: NumberField, r: FieldElement, rp: FieldElement,
                  chi: DirichletCharacter) -> None:
    """Reject chi, r or r' over a field other than field, or r, r' outside O'."""
    for name, x in (("chi", chi.modulus), ("r", r), ("r'", rp)):
        if x.field != field:
            raise FieldError("field mismatch: %s is over %r, c in %r" % (name, x.field, field))
    for name, x in (("r", r), ("r'", rp)):
        # O = Z + Zw, so x lies in its trace dual O' iff tr(x) and tr(x w) are
        # ints; tr(x w) = t a + (t^2 + 2c) b, which is 0 over Q
        traces = (x.trace(), field.t * x.a + (field.t ** 2 + 2 * field.c) * x.b)
        if any(v.denominator != 1 for v in traces):
            raise KloostermanError("%s must lie in the inverse different" % name)


def evaluate(q: KloostermanQuery) -> complex:
    """Exact finite sum over unit pairs (a, d = a^{-1}) of O/cO; see _sum."""
    return _sum(q.c, Ideal.principal(q.c), q.r, q.rp, q.chi)


def _phase_form(c: FieldElement, r: FieldElement, rp: FieldElement) -> Tuple[int, tuple]:
    """(den, lin) in lowest terms: the term of the unit pair (a, d) is conj(chi(d))
    e(k/den), with k the dot product of lin with the int coordinates of (a, d).

    With D the common denominator of r and r', x in (r', r) and u = D x,
    tr(x a/c) = tr(u a conj(c)) / (D N(c)) = (a0 tr(u conj(c)) + a1 tr(u conj(c) w))
    / (D N(c)), over D |N(c)|.  Over Q, where tr(x) = x, conj(c) is taken as c and
    N(c) as c^2.  den and lin are then divided by g, their gcd.  A term's k mod
    den is the old one over g, so (k mod den)/den is the same rational as before
    the division; an int/int true division rounds correctly, so it is the same
    float too, and every trig value and sum is bit for bit what the unreduced
    form gives.
    """
    field, t, cc = c.field, c.field.t, c.field.c
    c0, c1 = c.a.numerator, c.b.numerator  # c is integral: it lies in chi's modulus
    norm = c0 * (c0 + t * c1) - cc * c1 * c1
    (x0, e0), (x1, e1) = rp.a.as_integer_ratio(), rp.b.as_integer_ratio()
    (y0, e2), (y1, e3) = r.a.as_integer_ratio(), r.b.as_integer_ratio()
    d_rr = math.lcm(e0, e1, e2, e3)
    den = d_rr * abs(norm)
    s = -1 if norm < 0 else 1  # den / (D N(c))
    # s tr(conj(c)), s tr(conj(c) w) and s tr(conj(c) w^2), by w^2 = t w + cc
    t0, t1 = (field.degree * c0 + t * c1) * s, (t * c0 - 2 * cc * c1) * s
    t2 = cc * t0 + t * t1
    u0, u1 = x0 * (d_rr // e0), x1 * (d_rr // e1)
    v0, v1 = y0 * (d_rr // e2), y1 * (d_rr // e3)
    if field.degree == 1:
        l0, m0 = u0 * t0, v0 * t0
        g = math.gcd(den, l0, m0)
        if g > 1:
            return den // g, (l0 // g, m0 // g)
        return den, (l0, m0)
    l0, l1, m0, m1 = u0 * t0 + u1 * t1, u0 * t1 + u1 * t2, v0 * t0 + v1 * t1, v0 * t1 + v1 * t2
    g = math.gcd(den, l0, l1, m0, m1)
    if g > 1:
        return den // g, (l0 // g, l1 // g, m0 // g, m1 // g)
    return den, (l0, l1, m0, m1)


_trig_tables = _Store()  # the kept trig tables, cos under den and sin under -den


def _trig_table(den: int, odd: bool) -> List[float]:
    """[trig(2 pi (j/den)) for j < den] in _trig_tables: sin when odd, else cos."""
    key = -den if odd else den
    table = _trig_tables.get(key)
    if table is None:
        trig, two_pi = math.sin if odd else math.cos, 2 * math.pi
        table = _trig_tables.keep(key, [trig(two_pi * (j / den)) for j in range(den)])
    return table


def _sum(c: FieldElement, ideal: Ideal, r: FieldElement, rp: FieldElement,
         chi: DirichletCharacter) -> complex:
    """K_chi(r, r'; c) on the unit table of ideal = (c), for inputs already checked:
    one term per unit pair {x, -x} of the table, each phase from _phase_form and
    its trig value from _trig_table, in one pass over the flat table."""
    den, lin = _phase_form(c, r, rp)
    it = iter(ideal._unit_table())
    weight, nums = _orbit_size(ideal), chi.numerators
    if nums is None:
        tab = _trig_table(den, False)
        if c.field.degree == 1:
            l0, m0 = lin
            total = sum([tab[(a * l0 + d * m0) % den] for a, d in zip(it, it)])
        else:
            l0, l1, m0, m1 = lin
            total = sum([tab[(a0 * l0 + a1 * l1 + d0 * m0 + d1 * m1) % den]
                         for a0, a1, d0, d1 in zip(it, it, it, it)])
        return complex(weight * total)
    # each d is a unit mod chi's modulus, as c lies in it, so a key of its table
    odd = chi.minus_one() == -1
    tab, roots, reduce = _trig_table(den, odd), chi.conj_roots, chi.modulus.reduce_coords
    if c.field.degree == 1:
        l0, m0 = lin
        total = sum([roots[nums[reduce(d)]] * tab[(a * l0 + d * m0) % den]
                     for a, d in zip(it, it)])
    else:
        l0, l1, m0, m1 = lin
        total = sum([roots[nums[reduce(d0, d1)]]
                     * tab[(a0 * l0 + a1 * l1 + d0 * m0 + d1 * m1) % den]
                     for a0, a1, d0, d1 in zip(it, it, it, it)])
    return weight * (1j * total if odd else total)


_Q = NumberField()  # rational_kloosterman's field, which keeps its unit tables


def rational_kloosterman(m: int, n: int, c: int) -> complex:
    """Classical S(m, n; c) over the rationals with trivial character; taken mod
    O, its table has one entry, so only evaluate enumerates the units mod c."""
    chi = DirichletCharacter.trivial(_Q, Ideal.unit_ideal(_Q))
    q = KloostermanQuery(_Q.element(c), _Q.element(m), _Q.element(n), chi)
    return evaluate(q)


def symmetry_check(q: KloostermanQuery) -> float:
    """Max deviation in conj K(r,r';c) = K(r',r;-c) = chi(-1) K(r',r;c).

    Returns the deviation (a float); the identities hold when it is below
    the working tolerance, 1e-9 for the bundled examples.
    """
    ideal = Ideal.principal(q.c)  # also (-c); the query checked the inputs
    k = _sum(q.c, ideal, q.r, q.rp, q.chi)
    k_swap = _sum(q.c, ideal, q.rp, q.r, q.chi)
    k_swap_neg = _sum(-q.c, ideal, q.rp, q.r, q.chi)
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
    if chi.field != field:
        raise FieldError("field mismatch: chi is over %r, r in %r" % (chi.field, field))
    if len(xi) != field.degree or any(x not in (0, 1) for x in xi):
        raise KloostermanError("xi must be a 0/1 vector of length %d" % field.degree)
    eps = unit_square_class(r, rp)
    if eps is None:
        return 0.0 + 0.0j
    total = 0.0 + 0.0j
    for e in (eps, -eps):
        sign_factor = 1
        for s, x in zip(e.signs(), xi):
            if x == 1 and s < 0:
                sign_factor = -sign_factor
        total += _unit_phase(*(-chi.phase(e)).as_integer_ratio()) * sign_factor
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


def _principal_ideals_up_to(level: Ideal, max_norm: int
                            ) -> Tuple[List[Tuple[int, FieldElement, Ideal]], int]:
    """(|N(c)|, c, (c)) for one generator c per nonzero principal ideal (c) inside the
    level I, norm <= max_norm, sorted by (norm, coords), with (c) in its canonical HNF,
    and the number of ideals in that range whose generator search found none.

    Those are the I J, J integral: the multiples of N(I) over Q; over a quadratic
    field, each product built so far, I first, times P, P^2, ... for each prime P
    above p <= max_norm / N(I), which makes each J once.  The products are kept
    sorted by norm, so P stops at the first one of norm past max_norm / N(P).
    Norms found are summed as the ideals are built, and past _WORK_BUDGET the
    scan is rejected.
    """
    field = level.field

    def ideals():
        lnorm = int(level.norm())
        if field.degree == 1:
            yield from ((n, Ideal(field, ((n,),))) for n in range(lnorm, max_norm + 1, lnorm))
            return
        built = [(lnorm, level)] if lnorm <= max_norm else []
        yield from built
        for p in range(2, max_norm // lnorm + 1):
            for prime in factor_rational_prime(field, p) if _is_prime(p) else ():
                q, new = prime.absolute_norm(), []
                for norm, ideal in built:
                    if norm * q > max_norm:
                        break
                    while norm * q <= max_norm:
                        norm, ideal = norm * q, ideal * prime
                        new.append((norm, ideal))
                        yield norm, ideal
                built += new
                built.sort(key=lambda gen: gen[0])

    gens, skipped, work = [], 0, 0
    for norm, ideal in ideals():
        c = field.element(norm) if field.degree == 1 else _small_generator(ideal)
        if c is None:
            skipped += 1
            continue
        work += norm
        if work > _WORK_BUDGET:
            raise KloostermanError("scan range exceeds the work budget; lower max_norm")
        gens.append((norm, c, ideal))
    return sorted(gens, key=lambda gen: (gen[0], gen[1].coords())), skipped


def weil_scan(field: NumberField, r: FieldElement, rp: FieldElement,
              chi: Optional[DirichletCharacter] = None, max_norm: int = 100,
              eps: float = 0.1) -> WeilScanResult:
    """|K| against the split benchmark prod_{p in S} Np^v * (prod else Np^v)^{1/2+eps}.

    c runs over generators of the principal ideals, norm <= max_norm, that are the
    level times prime powers; S is the set of primes dividing the level.  The
    N(P)^v_P(c) multiply to |N(c)|, so with s their product over S the
    benchmark is s (|N(c)|/s)^{1/2+eps}.
    The running maximum over ratios is the empirical implied constant;
    ideals whose generator search fails are counted in ``skipped``.
    r, r' and the field of chi are checked once, even with no modulus in range.
    """
    if not math.isfinite(eps):
        raise KloostermanError("eps must be finite, got %r" % (eps,))
    if isinstance(max_norm, bool) or not isinstance(max_norm, int) or max_norm < 1:
        raise KloostermanError("max_norm must be an int >= 1, got %r" % (max_norm,))
    if chi is None:
        chi = DirichletCharacter.trivial(field, Ideal.unit_ideal(field))
    _check_inputs(field, r, rp, chi)
    s_primes = [p for p, _ in ideal_prime_factorization(chi.modulus)]
    s_labels = tuple(p.label for p in s_primes)
    gens, skipped = _principal_ideals_up_to(chi.modulus, max_norm)

    def one_row(norm: int, c: FieldElement, ideal: Ideal) -> WeilRow:
        k = abs(_sum(c, ideal, r, rp, chi))
        s = math.prod(p.absolute_norm() ** ideal_valuation(ideal, p) for p in s_primes)
        return WeilRow(c, norm, k, k / (s * (norm // s) ** (0.5 + eps)))

    # gens come sorted by (norm, coords), so the rows do too
    rows = [one_row(*gen) for gen in gens]
    running = max((row.ratio for row in rows), default=0.0)
    return WeilScanResult(tuple(rows), running, eps, s_labels, skipped)
