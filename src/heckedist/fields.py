"""Totally real number fields of degree at most 2, with exact arithmetic.

Elements are stored by rational coordinates on the integral basis (1, w),
where w = (1+sqrt m)/2 for m = 1 mod 4 and w = sqrt m otherwise, so that
the ring of integers is Z[w] in both cases.  Everything here is exact
(Fraction or int); floats appear only through the archimedean embeddings,
which cancel nothing: one of a + b*w_j adds two terms of one sign and the
other is N(x) over it.  Their signs are read off N(x), Tr(x) and b, never
off the floats.  The fundamental unit is normalized by the signs of its
trace and w-coordinate, and a unit's square root has a closed form.

An ideal is (1/den) times an int lattice in Hermite normal form, stored in
lowest terms, which covers integral and fractional ideals uniformly.  Ideal
arithmetic runs on the int HNF rows: a product is the HNF of the products
of the two Z-bases (NumberField.mul_coords, the one place the rule
w^2 = t*w + c is spelled out), and containment tests each row.  Every HNF,
over Q and F alike, comes from one fold: each row enters the pivot (b, g) by
an extended Euclid on its w-coordinate, and n is the gcd of what is left on
the first axis.  An integral ideal with HNF ((n, 0), (b, g)) is g times the
primitive ideal (n/g)Z + (b/g + w)Z, whose residue ring is Z/(n/g); unit
inverses are two modular inverses combined in closed form, for one unit of
each pair {x, -x} (x^{-1} gives -x^{-1}).  Each field keeps the unit tables
of its moduli, keyed by HNF (so c, -c and every unit multiple of c share
one), as flat int arrays of at most _UNIT_TABLE_INTS ints in all; a table
that does not fit in what is left is returned and not kept, and the kept ones
stay.  v_P counts
multiply-and-divide steps by one fixed element of pP^{-1}, without building
powers of P.  Principal generators come from one bounded box solved row by
row; a unit multiple of an ideal is the ideal itself, so a miss is final.
"""

from __future__ import annotations

import itertools
import math
from array import array
from fractions import Fraction
from typing import Dict, Iterator, Optional, Sequence, Union

Rat = Union[int, Fraction]

# ints of unit tables one field keeps (512 KiB of int64)
_UNIT_TABLE_INTS = 1 << 16


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
        self._unit_tables: Dict[tuple, array] = {}  # integral HNF -> Ideal._unit_table()
        self._unit_table_ints = 0  # total length of the kept tables

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

    def embeddings(self, a: Fraction, b: Fraction) -> tuple:
        """Real embeddings of x = a + b*w, larger w-image first.  As w1 > 0 > w2, one
        a + b*w_j adds two terms of one sign; the other is N(x) over it, rounded once."""
        if self.degree == 1:
            return (float(a),)
        r = math.sqrt(self.m)
        w1, w2 = ((1 + r) / 2, (1 - r) / 2) if self.m % 4 == 1 else (r, -r)
        x1, x2 = float(a) + float(b) * w1, float(a) + float(b) * w2
        norm = a * a + self.t * a * b - self.c * b * b
        if a * b > 0:
            return (x1, float(norm / Fraction(x1)))
        return (float(norm / Fraction(x2)), x2) if a * b < 0 else (x1, x2)

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
    if isinstance(spec, int):
        return NumberField(spec)
    s = spec.strip() if isinstance(spec, str) else ""  # any other type is a bad spec
    if spec is None or s in ("Q", "q"):
        return NumberField()
    if s.lower().startswith("q(sqrt") and s.endswith(")"):
        s = s[len("q(sqrt"):-1]
    try:
        m = int(s)
    except ValueError:
        raise FieldError("bad field spec %r (expected 'Q', 'Q(sqrt m)', or m)" % spec) from None
    return NumberField(m)


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
        n = self.norm()
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
        return o if o is NotImplemented else o * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        return _power(self if k >= 0 else self.inverse(), abs(k), self.field.one())

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return (isinstance(other, FieldElement) and self.field == other.field
                and self.a == other.a and self.b == other.b)

    def __hash__(self):
        # an element with b = 0 equals the rational a, so it hashes as a does
        return hash(self.a) if self.b == 0 else hash((self.field, self.a, self.b))

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

    def signs(self) -> tuple:
        """The signs (+1, -1 or 0) of embed(), exactly: x1 x2 = N(x) and
        x1 + x2 = Tr(x), and x1 - x2 = b (w1 - w2) with w1 > w2."""
        if self.field.degree == 1:
            return ((self.a > 0) - (self.a < 0),)
        n = self.norm()
        if n > 0:
            s = (self.trace() > 0) - (self.trace() < 0)
            return (s, s)
        s = (self.b > 0) - (self.b < 0) if n < 0 else 0
        return (s, -s)

    def coords(self) -> tuple:
        return (self.a, self.b) if self.field.degree == 2 else (self.a,)

    def __repr__(self):
        if self.field.degree == 1 or self.b == 0:
            return str(self.a)
        if self.a == 0:
            return "%s*w" % self.b
        return "%s%s%s*w" % (self.a, "+" if self.b >= 0 else "-", abs(self.b))


def _power(base, k: int, one):
    """base^k for an int k >= 0 by square-and-multiply, starting from one."""
    out = one
    while k:
        if k & 1:
            out = out * base
        base = base * base
        k >>= 1
    return out


# -- integer lattice utilities ------------------------------------------------


def _table_coords(table: array, degree: int, start: int) -> Iterator[tuple]:
    """Coordinate tuples of the units (start 0) or of their inverses (start
    degree) in a table of Ideal._unit_table()."""
    step = 2 * degree
    return zip(*(table[i::step] for i in range(start, start + degree)))


def _orbit_size(ideal: "Ideal") -> int:
    """The units of O/I per entry of ideal._unit_table(): x and -x, or x alone
    when 2 lies in I and x = -x."""
    return 2 if any(ideal.reduce_coords(2)) else 1


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
        shrink = math.gcd(den, *(v for row in hnf for v in row)) if den > 1 else 1
        if shrink > 1:
            hnf = tuple(tuple(v // shrink for v in row) for row in hnf)
            den //= shrink
        self.field = field
        self.den = den
        self.hnf = hnf

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_generators(cls, gens: Sequence[FieldElement]) -> "Ideal":
        """O-module generated by gens, all in one field: (1/den) times the HNF of the
        int rows den*x and den*x*w, den the lcm of the denominators (1 for integral gens)."""
        ratios = [v.as_integer_ratio() for g in gens for v in g.coords()]
        den = math.lcm(*(d for _, d in ratios))
        nums = [n * (den // d) for n, d in ratios]
        if not any(nums):
            raise FieldError("ideal needs a nonzero generator")
        field = gens[0].field
        if any(g.field != field for g in gens):
            raise FieldError("field mismatch: generators lie in different fields")
        basis = ((1,),) if field.degree == 1 else ((1, 0), (0, 1))  # a Z-basis of O
        rows = zip(*[iter(nums)] * field.degree)
        return cls(field, _hnf([field.mul_coords(x, u) for x in rows for u in basis]), den)

    @classmethod
    def principal(cls, elt: FieldElement) -> "Ideal":
        """(elt): the HNF of its two int rows x = den*elt and x*w = (c x1, x0 + t x1),
        the same (hnf, den) as from_generators([elt])."""
        field, (a, da), (b, db) = elt.field, elt.a.as_integer_ratio(), elt.b.as_integer_ratio()
        den = math.lcm(da, db)
        x0, x1 = a * (den // da), b * (den // db)
        if not (x0 or x1):
            raise FieldError("ideal needs a nonzero generator")
        if field.degree == 1:
            return cls(field, ((abs(x0),),), den)
        return cls(field, _hnf(((x0, x1), (field.c * x1, x0 + field.t * x1))), den)

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
        if elt.field != self.field:
            raise FieldError("field mismatch")
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

    def _unit_table(self) -> array:
        """One unit x of each pair {x, -x} of O/I, with its inverse, as one flat
        int array: the coordinates of x, then of x^{-1}, unit after unit in the
        lex order of residue_coords().  x is kept when x <= -x in that order;
        -x has the inverse -x^{-1}, and when 2 is in I every unit is its own
        negative, so all are kept (_orbit_size gives the weight, 1 or 2).  Kept
        on the field under the HNF; read, never write.

        Over Q, -a reduces to n - a.  Over F, -(a + b*w) reduces to ((-a) mod n,
        0) when b = 0 and to ((bh - a) mod n, g - b) when b > 0.  The inverse is
        computed for the kept x only.  The HNF ((n, 0), (bh, g)) gives I = g*I'
        with I' = ((n/g, 0), (bh/g, 1)) primitive, and O/I' = Z/(n/g) by
        a + b*w -> a - (bh/g)*b.  x = a + b*w is a unit mod I iff it is one mod
        I' and mod gO, where gcd(N(x), g) = 1 decides.  With y1 the inverse of x
        mod I' and y2 = conj(x) N(x)^{-1} mod gO (gO is Galois-stable),
        (x y1 - 1)(x y2 - 1) lies in I' gO = I, so y1 + y2 - x y1 y2 is the
        inverse mod I; x y2 = N(x) N(x)^{-1} is an int.
        """
        if not self.is_integral():
            raise FieldError("residues need an integral ideal")
        field = self.field
        table = field._unit_tables.get(self.hnf)
        if table is not None:
            return table
        gcd = math.gcd
        flat: list = []  # one list and one array copy build faster than array.extend
        if field.degree == 1:
            n = self.hnf[0][0]
            for a in range(n // 2 + 1):  # a <= n - a
                if gcd(a, n) == 1:
                    flat += (a, pow(a, -1, n))
        else:
            t, c = field.t, field.c
            (n, _), (bh, g) = self.hnf
            m, h = n // g, bh // g
            for a in range(n):
                for b in range(g):
                    na = (bh * (b > 0) - a) % n  # -x = (na, (g - b) mod g)
                    if a > na or a == na and 2 * b > g:
                        continue
                    r = a - h * b
                    norm = a * a + t * a * b - c * b * b
                    if gcd(r, m) != 1 or gcd(norm, g) != 1:
                        continue
                    s = pow(norm, -1, g)
                    x = pow(r, -1, m) * (1 - norm * s) + s * (a + t * b)
                    q = -s * b // g
                    flat += (a, b, (x - q * bh) % n, -s * b - q * g)
        table = array("q", flat)
        if field._unit_table_ints + len(table) <= _UNIT_TABLE_INTS:
            field._unit_tables[self.hnf] = table
            field._unit_table_ints += len(table)
        return table

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
        return _power(self, k, Ideal.unit_ideal(self.field))

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

    __slots__ = ("p", "e", "f", "index", "generator", "label")

    def __init__(self, field: NumberField, hnf: tuple, p: int, e: int, f: int,
                 index: int, generator: Optional[FieldElement] = None):
        super().__init__(field, hnf, 1)
        self.p = p
        self.e = e
        self.f = f
        self.index = index
        self.generator = generator
        self.label = "%d:%d" % (p, index)

    def absolute_norm(self) -> int:
        return self.p ** self.f

    def __repr__(self):
        return "PrimeIdeal(%s, p=%d, e=%d, f=%d)" % (self.label, self.p, self.e, self.f)


def _small_generator(ideal: Ideal) -> Optional[FieldElement]:
    """First x + y*w of the integral ideal ((n, 0), (b, g)) with |x^2 + t*x*y - c*y^2|
    = N = n g in the box |x|, |y| <= B = max(4, 2 isqrt(N) + 2), least y then least
    x, or None; one pass, since a unit multiple of the ideal is the ideal itself.

    Each row y is solved: 4(x^2 + t x y - c y^2) = (2x + t y)^2 - D y^2 with
    D = t^2 + 4c, so x = (-t y +- r)/2 where r^2 = D y^2 +- 4N (r = t y mod 2, as
    D = t^2 mod 4).  A root with |x| <= B has D y^2 - 4N <= (2x + t y)^2 <=
    (2B + t|y|)^2, so c y^2 - B t|y| <= B^2 + N; as c >= 1, |y| <= ymax, the
    floor of the larger root of that quadratic in |y|.
    """
    field, ((n, _), (b, g)) = ideal.field, ideal.hnf
    norm, t, c = n * g, field.t, field.c
    bound = max(4, 2 * math.isqrt(norm) + 2)
    bt = bound * t
    ymax = (bt + math.isqrt(bt * bt + 4 * c * (bound * bound + norm))) // (2 * c)
    for y in range(-min(bound, ymax), min(bound, ymax) + 1):
        # (x, y) lies in the HNF lattice iff g | y and n | x - (y/g)*b
        if y % g != 0:
            continue
        shift = (y // g) * b
        dy = field.disc * y * y
        xs = []
        for sq in (dy + 4 * norm, dy - 4 * norm):
            r = math.isqrt(max(sq, 0))
            if r * r == sq:
                xs += [x for x in ((r - t * y) // 2, (-r - t * y) // 2)
                       if abs(x) <= bound and (x - shift) % n == 0]
        if xs:
            return field.element(min(xs), y)
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
    if p == 2:
        roots = [r for r in (0, 1) if (r * r - t * r - c) % 2 == 0]
    else:
        # r = (t +- s)/2 with s^2 = t^2 + 4c, the discriminant of r^2 - t r - c
        s, half = _sqrt_mod(t * t + 4 * c, p), (p + 1) // 2
        roots = [] if s is None else {(t + s) * half % p, (t - s) * half % p}
    if not roots:
        # inert: (p), residue degree 2
        return [PrimeIdeal(field, ((p, 0), (0, p)), p, 1, 2, 0, field.element(p))]
    # P = (p, w - r), with gens p, w-r, w(w-r); p | disc exactly when the root
    # is double, and then P^2 = (p)
    e = 2 if field.disc % p == 0 else 1
    hnfs = sorted(_hnf([(p, 0), (-r, 1), (c, t - r)]) for r in roots)
    return [PrimeIdeal(field, hnf, p, e, 1, i, _small_generator(Ideal(field, hnf)))
            for i, hnf in enumerate(hnfs)]


def _sqrt_mod(a: int, p: int) -> Optional[int]:
    """A square root of a mod the odd prime p by Tonelli-Shanks, or None if there is none."""
    a %= p
    if pow(a, (p - 1) // 2, p) > 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = 2
    while pow(z, (p - 1) // 2, p) == 1:
        z += 1
    # invariant r^2 = a t, with t of order 2^i for some i < s and c of order 2^s
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t > 1:  # t = 0 only for a = 0, with r = 0
        i, t2 = 1, t * t % p
        while t2 != 1:
            i, t2 = i + 1, t2 * t2 % p
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def prime_by_label(field: NumberField, label: str) -> PrimeIdeal:
    """Resolve 'p:i' (or bare 'p') to the prime ideal it names.

    Only the canonical spelling is read, the one '%d:%d' and '%d' write: no
    whitespace, sign or leading zero, so each prime has one label besides
    the bare 'p' of index 0.
    """
    ps, colon, ix = label.partition(":")
    p, i = int(ps), int(ix) if colon else 0
    if label != ("%d:%d" % (p, i) if colon else "%d" % p):
        raise FieldError("prime label %r is not canonical: write 'p:i' or 'p'" % (label,))
    factors = factor_rational_prime(field, p)
    if not 0 <= i < len(factors):
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
    if prime.field != ideal.field:
        raise FieldError("field mismatch: %r vs %r" % (ideal.field, prime.field))
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

    def __init__(self, fundamental: Optional[FieldElement]):
        self.fundamental = fundamental
        if fundamental is not None:
            self.regulator = math.log(fundamental.embed()[0])
            self.fundamental_norm = int(fundamental.norm())
        else:
            self.regulator = 0.0
            self.fundamental_norm = 1


def _compute_unit_group(field: NumberField) -> UnitGroupData:
    if field.degree == 1:
        return UnitGroupData(None)
    # continued fraction of w = (P0 + sqrt m)/Q0; convergents yield the unit
    m = field.m
    P, Q = (1, 2) if m % 4 == 1 else (0, 1)
    sq = math.isqrt(m)
    p_prev, p_cur = 0, 1
    q_prev, q_cur = 1, 0
    for _ in range(10 ** 5):
        a = (P + sq) // Q
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        eps = field.element(p_cur, -q_cur)  # p - q*w
        if abs(eps.norm()) == 1:
            # eps1 > eps2 iff b > 0, and then eps1 > 1 iff also Tr > 0; for
            # a unit, -conj(eps) = -N(eps) eps^{-1} keeps b and negates Tr
            eps = eps if eps.b > 0 else -eps
            return UnitGroupData(eps if eps.trace() > 0 else -eps.conjugate())
        P = a * Q - P
        Q = (m - P * P) // Q
    raise FieldError("continued fraction did not terminate for m=%d" % m)


def unit_square_class(r: FieldElement, rp: FieldElement) -> Optional[FieldElement]:
    """A unit eps with eps^2 = r/rp, positive in the first embedding, or None.

    A unit root s of u = r/rp has s^2 = Tr(s) s - N(s): with nu = N(s) and t =
    |Tr(s)|, t^2 = Tr(u) + 2 nu and s = +-(u + nu)/t.  Conversely, for such a
    t > 0, (u + nu)/t has trace t and norm nu: a root of x^2 - t x + nu, it is
    integral and squares to u.  It is < 0 in the first embedding iff nu = -1
    and u1 < 1, that is b(u) < 0.
    """
    if rp.is_zero():
        raise FieldError("r' must be nonzero")
    u = r / rp
    if not (u.is_integral() and u.norm() == 1):
        return None
    if r.field.degree == 1:
        return u  # N(u) = u = 1
    tr = int(u.trace())
    for nu in (1, -1):
        t = math.isqrt(max(tr + 2 * nu, 1))
        if t * t == tr + 2 * nu:
            s = (u + nu) / t
            return -s if nu == -1 and u.b < 0 else s
    return None
