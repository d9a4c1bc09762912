"""Totally real number fields of degree at most 2, with exact arithmetic.

Elements are stored by rational coordinates on the integral basis (1, w),
where w = (1+sqrt m)/2 for m = 1 mod 4 and w = sqrt m otherwise, so that
the ring of integers is Z[w] in both cases.  Everything here is exact
(Fraction or int); floats appear only through the archimedean embeddings.

An ideal is (1/den) times an int lattice in Hermite normal form, stored in
lowest terms, which covers integral and fractional ideals uniformly.  Ideal
arithmetic runs on the int HNF rows: a product is the HNF of the products
of the two Z-bases (NumberField.mul_coords, the one place the rule
w^2 = t*w + c is spelled out), and containment tests each row.  Every HNF,
over Q and F alike, comes from one fold: each row enters the pivot (b, g) by
an extended Euclid on its w-coordinate, and n is the gcd of what is left on
the first axis.  An integral ideal with HNF ((n, 0), (b, g)) is g times the
primitive ideal (n/g)Z + (b/g + w)Z, whose residue ring is Z/(n/g); unit
inverses are two modular inverses combined in closed form, and v_P counts
multiply-and-divide steps by one fixed element of pP^{-1}, without building
powers of P.  Generators of principal ideals come from one bounded box
search; a unit multiple of an ideal is the ideal itself, so a miss is final.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, Iterator, Optional, Sequence, Union

Rat = Union[int, Fraction]


class FieldError(ValueError):
    """Domain error in field/ideal arithmetic."""


def _factor(n: int) -> Dict[int, int]:
    """{p: v_p(n)} for an int 1 <= n <= 10^12, by trial division, p ascending."""
    if n > 10 ** 12:  # past 10^6 divisions
        raise FieldError("%d is past the trial-division limit 10^12" % n)
    out: Dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = 1
    return out


class NumberField:
    """Q or a real quadratic field Q(sqrt m), m squarefree, m > 1.

    The generator w of the integral basis satisfies w^2 = t*w + c with
    (t, c) = (1, (m-1)/4) for m = 1 mod 4 and (0, m) otherwise.
    """

    def __init__(self, m: Optional[int] = None):
        if m is None:
            self.degree = 1
            self.m = None
            self.t = 0
            self.c = 0
            self.disc = 1
        else:
            if m <= 1 or max(_factor(m).values()) > 1:
                raise FieldError("m must be a squarefree integer > 1, got %r" % (m,))
            self.degree = 2
            self.m = m
            if m % 4 == 1:
                self.t, self.c = 1, (m - 1) // 4
                self.disc = m
            else:
                self.t, self.c = 0, m
                self.disc = 4 * m
        self._unit_cache: Optional[UnitGroupData] = None
        self._prime_cache: Dict[int, list] = {}  # p -> factor_rational_prime(self, p)

    # -- construction helpers ------------------------------------------------

    def element(self, a: Rat, b: Rat = 0) -> "FieldElement":
        return FieldElement(self, a, b)

    def zero(self) -> "FieldElement":
        return self.element(0)

    def one(self) -> "FieldElement":
        return self.element(1)

    def omega(self) -> "FieldElement":
        if self.degree == 1:
            raise FieldError("Q has no quadratic generator")
        return self.element(0, 1)

    def sqrt_disc_root(self) -> float:
        # real root used by the embeddings; sqrt(m) for both basis shapes
        return math.sqrt(self.m) if self.degree == 2 else 0.0

    def embeddings(self, a: Fraction, b: Fraction) -> tuple:
        """Real embeddings of a + b*w, larger w-image first."""
        if self.degree == 1:
            return (float(a),)
        r = self.sqrt_disc_root()
        if self.m % 4 == 1:
            w1, w2 = (1 + r) / 2, (1 - r) / 2
        else:
            w1, w2 = r, -r
        return (float(a) + float(b) * w1, float(a) + float(b) * w2)

    def __eq__(self, other) -> bool:
        return isinstance(other, NumberField) and self.m == other.m

    def __hash__(self):
        return hash(("NumberField", self.m))

    def __repr__(self):
        return "Q" if self.degree == 1 else "Q(sqrt %d)" % self.m

    def mul_coords(self, x: tuple, y: tuple) -> tuple:
        """Coordinates of the product of two coordinate tuples on (1, w) (1-tuples over Q)."""
        if self.degree == 1:
            return (x[0] * y[0],)
        (a1, b1), (a2, b2) = x, y
        return (a1 * a2 + self.c * b1 * b2, a1 * b2 + b1 * a2 + self.t * b1 * b2)

    # -- unit group ----------------------------------------------------------

    def unit_group(self) -> "UnitGroupData":
        if self._unit_cache is None:
            self._unit_cache = _compute_unit_group(self)
        return self._unit_cache


def make_field(spec: Union[str, int, None]) -> NumberField:
    """Parse 'Q', 'Q(sqrt m)', or a bare integer m into a field."""
    if spec is None or (isinstance(spec, str) and spec.strip() in ("Q", "q")):
        return NumberField()
    if isinstance(spec, int):
        return NumberField(spec)
    s = spec.strip()
    if s.lower().startswith("q(sqrt") and s.endswith(")"):
        inner = s[len("q(sqrt"):-1].strip()
        try:
            return NumberField(int(inner))
        except ValueError:
            raise FieldError("bad field spec %r" % spec)
    try:
        return NumberField(int(s))
    except ValueError:
        pass
    raise FieldError("bad field spec %r (expected 'Q', 'Q(sqrt m)', or m)" % spec)


class FieldElement:
    """Element a + b*w with exact rational coordinates."""

    __slots__ = ("field", "a", "b")

    def __init__(self, field: NumberField, a: Fraction, b: Fraction = Fraction(0)):
        if field.degree == 1 and b != 0:
            raise FieldError("rational field has no w component")
        self.field = field
        self.a = a if type(a) is Fraction else Fraction(a)
        self.b = b if type(b) is Fraction else Fraction(b)

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldError("field mismatch: %r vs %r" % (self.field, other.field))
            return other
        if isinstance(other, (int, Fraction)):
            return FieldElement(self.field, Fraction(other))
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, -self.a, -self.b)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, *self.field.mul_coords(self.coords(), o.coords()))

    __rmul__ = __mul__

    def conjugate(self) -> "FieldElement":
        # w -> t - w (the other root of x^2 - t x - c)
        f = self.field
        return FieldElement(f, self.a + f.t * self.b, -self.b)

    def trace(self) -> Fraction:
        if self.field.degree == 1:
            return self.a
        return 2 * self.a + self.field.t * self.b

    def norm(self) -> Fraction:
        f = self.field
        if f.degree == 1:
            return self.a
        return self.a * self.a + f.t * self.a * self.b - f.c * self.b * self.b

    def inverse(self) -> "FieldElement":
        n = self.norm() if self.field.degree == 2 else self.a
        if n == 0:
            raise FieldError("division by zero element")
        if self.field.degree == 1:
            return FieldElement(self.field, 1 / self.a)
        cj = self.conjugate()
        return FieldElement(self.field, cj.a / n, cj.b / n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        base = self if k >= 0 else self.inverse()
        k = abs(k)
        out = FieldElement(self.field, Fraction(1))
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return (isinstance(other, FieldElement) and self.field == other.field
                and self.a == other.a and self.b == other.b)

    def __hash__(self):
        return hash((self.field, self.a, self.b))

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_integral(self) -> bool:
        return self.a.denominator == 1 and self.b.denominator == 1

    def is_totally_positive(self) -> bool:
        if self.field.degree == 1:
            return self.a > 0
        # exact: a + b w_i > 0 for both embeddings iff trace > 0 and norm > 0
        return self.trace() > 0 and self.norm() > 0

    def embed(self) -> tuple:
        return self.field.embeddings(self.a, self.b)

    def coords(self) -> tuple:
        return (self.a, self.b) if self.field.degree == 2 else (self.a,)

    def __repr__(self):
        if self.field.degree == 1 or self.b == 0:
            return str(self.a)
        if self.a == 0:
            return "%s*w" % self.b
        return "%s%s%s*w" % (self.a, "+" if self.b >= 0 else "-", abs(self.b))


# -- integer lattice utilities ------------------------------------------------


def _hnf(rows: Sequence[tuple]) -> tuple:
    """HNF basis ((n,),) of the Z-span of int 1-vectors, or ((n, 0), (b, g)) of 2-vectors.

    Each row (x, y) folds into the pivot (b, g) by one extended Euclid on the
    second coordinates, which leaves g = gcd of the y's so far and a remainder
    (x', 0) of the lattice; n is the gcd of the remainders.  Requires full
    rank; n, g > 0 and 0 <= b < n.
    """
    n = b = g = 0
    for row in rows:
        x, y = row[0], (row[1] if len(row) == 2 else 0)
        while y:
            q = g // y
            b, g, x, y = x, y, b - q * x, g - q * y
        n = math.gcd(n, x)
    if n == g == 0:
        raise FieldError("zero lattice")
    if len(rows[0]) == 1:
        return ((n,),)
    if n == 0 or g == 0:
        raise FieldError("lattice not of full rank")
    if g < 0:
        b, g = -b, -g
    return ((n, 0), (b % n, g))


class Ideal:
    """Fractional ideal: (1/den) times an integer HNF lattice in basis (1, w).

    Stored in lowest terms: gcd(den, content of the lattice) = 1.
    """

    __slots__ = ("field", "den", "hnf")

    def __init__(self, field: NumberField, hnf: tuple, den: int = 1):
        if den <= 0:
            raise FieldError("denominator must be positive")
        content = 0
        for row in hnf:
            for v in row:
                content = math.gcd(content, v)
        shrink = math.gcd(content, den)
        if shrink > 1:
            hnf = tuple(tuple(v // shrink for v in row) for row in hnf)
            den //= shrink
        self.field = field
        self.den = den
        self.hnf = hnf

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_generators(cls, field: NumberField, gens: Sequence[FieldElement]) -> "Ideal":
        """O-module generated by gens (each gen contributes gen and gen*w)."""
        coords = [g.coords() for g in gens]
        if not any(any(x) for x in coords):
            raise FieldError("ideal needs a nonzero generator")
        den = math.lcm(*(v.denominator for x in coords for v in x))
        rows = [tuple(v.numerator * (den // v.denominator) for v in x) for x in coords]
        basis = cls.unit_ideal(field).hnf  # a Z-basis of O
        return cls(field, _hnf([field.mul_coords(x, u) for x in rows for u in basis]), den)

    @classmethod
    def principal(cls, elt: FieldElement) -> "Ideal":
        return cls.from_generators(elt.field, [elt])

    @classmethod
    def unit_ideal(cls, field: NumberField) -> "Ideal":
        if field.degree == 2:
            return cls(field, ((1, 0), (0, 1)), 1)
        return cls(field, ((1,),), 1)

    # -- basic queries ----------------------------------------------------------

    def is_integral(self) -> bool:
        return self.den == 1

    def norm(self) -> Fraction:
        if self.field.degree == 2:
            n = self.hnf[0][0] * self.hnf[1][1]
            return Fraction(n, self.den ** 2)
        return Fraction(self.hnf[0][0], self.den)

    def contains(self, elt: FieldElement) -> bool:
        if elt.field != self.field:
            raise FieldError("field mismatch")
        coords = elt.coords()
        den = math.lcm(*(v.denominator for v in coords))
        return self._holds([v.numerator * (den // v.denominator) for v in coords], den)

    def _holds(self, nums: Sequence[int], den: int) -> bool:
        """Whether the vector nums/den (int nums) lies in this ideal."""
        # nums/den in (1/self.den) L  iff  self.den*nums/den is an int vector of L
        x = [v * self.den for v in nums]
        if any(v % den for v in x):
            return False
        x = [v // den for v in x]
        if self.field.degree == 1:
            return x[0] % self.hnf[0][0] == 0
        (n, _), (b, g) = self.hnf
        return x[1] % g == 0 and (x[0] - (x[1] // g) * b) % n == 0

    def reduce(self, elt: FieldElement) -> FieldElement:
        """Canonical representative of elt modulo this (integral) lattice."""
        if not self.is_integral():
            raise FieldError("reduction needs an integral ideal")
        if not elt.is_integral():
            raise FieldError("reduction needs an integral element")
        return self.field.element(*self.reduce_coords(*map(int, elt.coords())))

    def reduce_coords(self, x: int, y: int = 0) -> tuple:
        """reduce() on int coordinates, as an int tuple; the ideal must be integral."""
        if self.field.degree == 1:
            return (x % self.hnf[0][0],)
        (n, _), (b, g) = self.hnf
        q = y // g
        return ((x - q * b) % n, y - q * g)

    def residue_coords(self) -> Iterator[tuple]:
        """Int coordinate tuples of the O/I representatives, in lex order."""
        if not self.is_integral():
            raise FieldError("residues need an integral ideal")
        return itertools.product(*(range(row[i]) for i, row in enumerate(self.hnf)))

    def unit_inverse_pairs(self) -> list:
        """[(x, x^{-1})] for the units of O/I, as reduced int coordinate tuples
        in the lex order of residue_coords().

        The HNF ((n, 0), (bh, g)) gives I = g*I' with I' = ((n/g, 0), (bh/g, 1))
        primitive, and O/I' = Z/(n/g) by a + b*w -> a - (bh/g)*b.  x = a + b*w is
        a unit mod I iff it is one mod I' and mod gO, where gcd(N(x), g) = 1
        decides.  With y1 the inverse of x mod I' and y2 = conj(x) N(x)^{-1} mod
        gO (gO is Galois-stable), (x y1 - 1)(x y2 - 1) lies in I' gO = I, so
        y1 + y2 - x y1 y2 is the inverse mod I; x y2 = N(x) N(x)^{-1} is an int.
        """
        if not self.is_integral():
            raise FieldError("residues need an integral ideal")
        gcd = math.gcd
        if self.field.degree == 1:
            n = self.hnf[0][0]
            return [((a,), (pow(a, -1, n),)) for a in range(n) if gcd(a, n) == 1]
        t, c = self.field.t, self.field.c
        (n, _), (bh, g) = self.hnf
        m, h = n // g, bh // g
        pairs = []
        for a in range(n):
            for b in range(g):
                r = a - h * b
                norm = a * a + t * a * b - c * b * b
                if gcd(r, m) != 1 or gcd(norm, g) != 1:
                    continue
                s = pow(norm, -1, g)
                x = pow(r, -1, m) * (1 - norm * s) + s * (a + t * b)
                q = -s * b // g
                pairs.append(((a, b), ((x - q * bh) % n, -s * b - q * g)))
        return pairs

    # -- arithmetic -------------------------------------------------------------

    def basis_elements(self) -> list:
        return [self.field.element(*(Fraction(v, self.den) for v in row)) for row in self.hnf]

    def __mul__(self, other: "Ideal") -> "Ideal":
        if not isinstance(other, Ideal):
            return NotImplemented
        if other.field != self.field:
            raise FieldError("field mismatch")
        # the products of two Z-bases span the product as a Z-module
        rows = [self.field.mul_coords(u, v) for u in self.hnf for v in other.hnf]
        return Ideal(self.field, _hnf(rows), self.den * other.den)

    def __pow__(self, k: int) -> "Ideal":
        if k < 0:
            raise FieldError("negative ideal powers not supported here")
        out = Ideal.unit_ideal(self.field)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        return (isinstance(other, Ideal) and self.field == other.field
                and self.den == other.den and self.hnf == other.hnf)

    def __hash__(self):
        return hash((self.field, self.den, self.hnf))

    def __le__(self, other: "Ideal") -> bool:
        """Containment self <= other means self is a subset of other."""
        if other.field != self.field:
            raise FieldError("field mismatch")
        return all(other._holds(row, self.den) for row in self.hnf)

    def __repr__(self):
        return "Ideal(den=%d, hnf=%r)" % (self.den, self.hnf)


class PrimeIdeal(Ideal):
    """Prime ideal over a rational prime p, with label 'p:i'."""

    __slots__ = ("p", "e", "f", "index", "generator")

    def __init__(self, field: NumberField, hnf: tuple, p: int, e: int, f: int,
                 index: int, generator: Optional[FieldElement] = None):
        super().__init__(field, hnf, 1)
        self.p = p
        self.e = e
        self.f = f
        self.index = index
        self.generator = generator

    @property
    def label(self) -> str:
        return "%d:%d" % (self.p, self.index)

    def absolute_norm(self) -> int:
        return self.p ** self.f

    def __repr__(self):
        return "PrimeIdeal(%s, p=%d, e=%d, f=%d)" % (self.label, self.p, self.e, self.f)


def _small_generator(field: NumberField, ideal: Ideal, target_norm: int) -> Optional[FieldElement]:
    """First x + y*w of the ideal with |x^2 + t*x*y - c*y^2| = target_norm >= 1 in
    the box |x|, |y| <= max(4, 2 isqrt(target_norm) + 2), y outer and x inner, or
    None; one pass, since a unit multiple of the ideal is the ideal itself."""
    bound = max(4, 2 * math.isqrt(target_norm) + 2)
    t, c = field.t, field.c
    den = ideal.den
    (n, _), (b, g) = ideal.hnf
    xs = range(-bound, bound + 1)
    for y in xs:
        # den*(x, y) lies in the HNF lattice iff g | den*y and n | den*x - (den*y/g)*b
        if (den * y) % g != 0:
            continue
        shift = (den * y // g) * b
        cy = c * y * y
        for x in xs:
            if abs(x * (x + t * y) - cy) == target_norm and (den * x - shift) % n == 0:
                return field.element(x, y)
    return None


def factor_rational_prime(field: NumberField, p: int) -> list:
    """Prime ideals above p, sorted by HNF, labelled 'p:0', 'p:1'.

    The search runs once per field and p; later calls copy the memoised list.
    """
    primes = field._prime_cache.get(p)
    if primes is None:
        primes = field._prime_cache[p] = _factor_rational_prime(field, p)
    return list(primes)


def _factor_rational_prime(field: NumberField, p: int) -> list:
    if p < 2:
        raise FieldError("p must be a rational prime, got %d" % p)
    if _factor(p) != {p: 1}:
        raise FieldError("%d is not prime" % p)
    if field.degree == 1:
        return [PrimeIdeal(field, ((p,),), p, 1, 1, 0, field.element(p))]
    if p > 10 ** 6:
        raise FieldError("prime too large for desk-scale factorization")
    t, c = field.t, field.c
    roots = [r for r in range(p) if (r * r - t * r - c) % p == 0]
    if not roots:
        # inert: (p), residue degree 2
        return [PrimeIdeal(field, ((p, 0), (0, p)), p, 1, 2, 0, field.element(p))]
    # P = (p, w - r), with gens p, w-r, w(w-r); p | disc exactly when the root
    # is double, and then P^2 = (p)
    e = 2 if field.disc % p == 0 else 1
    hnfs = sorted(_hnf([(p, 0), (-r, 1), (c, t - r)]) for r in roots)
    return [PrimeIdeal(field, hnf, p, e, 1, i, _small_generator(field, Ideal(field, hnf), p))
            for i, hnf in enumerate(hnfs)]


def prime_by_label(field: NumberField, label: str) -> PrimeIdeal:
    """Resolve 'p:i' (or bare 'p') to the prime ideal it names."""
    s = label.strip()
    if ":" in s:
        ps, ix = s.split(":", 1)
        p, i = int(ps), int(ix)
    else:
        p, i = int(s), 0
    factors = factor_rational_prime(field, p)
    if i >= len(factors):
        raise FieldError("no prime %r above %d (only %d factors)" % (label, p, len(factors)))
    return factors[i]


def ideal_valuation(ideal: Ideal, prime: PrimeIdeal) -> int:
    """v_P(I) for an integral ideal I: the least v_P over its HNF basis.

    An integral x has v_P(x) equal to the number of steps x -> beta*x/p that
    stay in O.  beta = 1 when P = pO (inert, or over Q); for P = pZ + (b + w)Z,
    beta = conj(b + w) lies in pP^{-1} but not in pO, so beta*x is in pO
    exactly when x is in P, and each step lowers v_P by one.
    """
    if not ideal.is_integral():
        raise FieldError("valuation needs an integral ideal")
    field, p = ideal.field, prime.p
    beta = (1,) if field.degree == 1 else (1, 0) if prime.f == 2 \
        else (prime.hnf[1][0] + field.t, -1)
    vals = []
    for x in ideal.hnf:
        v = 0
        while True:
            y = field.mul_coords(beta, x)
            if any(u % p for u in y):
                break
            x, v = tuple(u // p for u in y), v + 1
        vals.append(v)
    return min(vals)


def ideal_prime_factorization(ideal: Ideal) -> list:
    """[(PrimeIdeal, valuation)] for a nonzero integral ideal."""
    if ideal.norm() == 0 or not ideal.is_integral():
        raise FieldError("factorization needs a nonzero integral ideal")
    out = []
    for p in _factor(int(ideal.norm())):
        for prime in factor_rational_prime(ideal.field, p):
            v = ideal_valuation(ideal, prime)
            if v > 0:
                out.append((prime, v))
    return out


def inverse_different(field: NumberField) -> Ideal:
    """Inverse different (1/f'(w)) O; the trace dual of O."""
    if field.degree == 1:
        return Ideal.unit_ideal(field)
    fprime = field.element(-field.t, 2)  # f'(w) = 2w - t
    return Ideal.principal(fprime.inverse())


class UnitGroupData:
    """Fundamental unit data; roots of unity are just {1, -1} here."""

    def __init__(self, field: NumberField, fundamental: Optional[FieldElement]):
        self.field = field
        self.fundamental = fundamental
        if fundamental is not None:
            self.regulator = math.log(fundamental.embed()[0])
            self.fundamental_norm = int(fundamental.norm())
        else:
            self.regulator = 0.0
            self.fundamental_norm = 1


def _compute_unit_group(field: NumberField) -> UnitGroupData:
    if field.degree == 1:
        return UnitGroupData(field, None)
    # continued fraction of w = (P0 + sqrt D)/Q0; convergents yield the unit
    m = field.m
    D = m
    if m % 4 == 1:
        P, Q = 1, 2
    else:
        P, Q = 0, 1
    sq = math.isqrt(D)
    p_prev, p_cur = 0, 1
    q_prev, q_cur = 1, 0
    for _ in range(10 ** 5):
        a = (P + sq) // Q
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        cand = field.element(p_cur, -q_cur)  # p - q*w
        if abs(cand.norm()) == 1:
            eps = cand
            # normalize to eps > 1 in the first embedding
            if eps.embed()[0] < 0:
                eps = -eps
            if eps.embed()[0] < 1:
                eps = eps.inverse()
            assert eps.is_integral() and abs(eps.norm()) == 1
            return UnitGroupData(field, eps)
        P = a * Q - P
        Q = (D - P * P) // Q
    raise FieldError("continued fraction did not terminate for m=%d" % m)


def unit_square_class(r: FieldElement, rp: FieldElement) -> Optional[FieldElement]:
    """A unit eps with eps^2 = r/rp, or None when r/rp is not a unit square."""
    if rp.is_zero():
        raise FieldError("r' must be nonzero")
    u = r / rp
    if not (u.is_integral() and abs(u.norm()) == 1):
        return None
    field = r.field
    if field.degree == 1:
        return field.one() if u == 1 else None
    if not u.is_totally_positive():
        return None
    eps0 = field.unit_group().fundamental
    e1 = eps0.embed()[0]
    x = u.embed()[0]
    k = round(math.log(abs(x)) / math.log(e1)) if x != 0 else 0
    for kk in (k, k - 1, k + 1):
        if u == eps0 ** kk:
            if kk % 2 != 0:
                return None
            return eps0 ** (kk // 2)
    return None
