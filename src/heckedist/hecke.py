"""Unramified local Hecke algebras on GL(2) and their eigenvalue bookkeeping.

The algebra at a prime P of absolute norm N is spanned by the characteristic
functions T(P^{2k}) of the determinant-one double-coset sets; the recursion
route multiplies by applying the three-term relation itself,

    T(P^2) * T(P^{2j}) = T(P^{2j+2}) + N T(P^{2j}) + N^2 T(P^{2j-2})   (j >= 1),

folded into one pass per power of T(P^2): for a fixed factor x, the products
E_j = T(P^{2j}) x satisfy E_{j+1}[i] = E_j[i-1] + N^2 (E_j[i+1] - E_{j-1}[i]),
less N E_j[0] at i = 0.

The algebra is isomorphic to the ring of even symmetric Laurent polynomials,
T(P^{2k}) mapping to N^k (X^{2k} + X^{2k-2} + ... + X^{-2k}); both routes are
kept separate so each can check the other.  The eigenvalue of T(P^{2k}) is
S_{P,2k}(lambda) = N^k U_{2k}(lambda / 2 sqrt(N)) (Chebyshev, closed-form int
coefficients), with lambda = sqrt(N) (N^nu + N^-nu) on the closed
tempered-plus-complementary domain nu in i[0, pi/(2 log N)] union (0, 1/2],
lambda in [0, 1+N].

Elements store int numerators `nums` over one int `den` in lowest terms and
build Fraction `coeffs` on access.  The recursion and Laurent routes multiply
those ints and reduce once; the coset convolution over Q tallies int64 outer
products with np.bincount; coset representatives are int residue coordinates
times conj(pi)^k, divided once by N(pi)^k.  The three product routes share no
kernel, so each stays an independent check of the others.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import accumulate, zip_longest
from typing import Dict, Sequence, Tuple, Union

from heckedist.fields import FieldElement, PrimeIdeal, _is_prime

Scalar = Union[int, Fraction]


class HeckeError(ValueError):
    """Domain error in Hecke-algebra arithmetic."""


def _check_norm(norm) -> None:
    if not isinstance(norm, int) or isinstance(norm, bool) or norm < 2:
        raise HeckeError("prime norm must be an int >= 2, got %r" % (norm,))


def _cleared(coeffs: Sequence[Scalar]) -> Tuple[list, int]:
    """Exact values of coeffs as int numerators over the lcm of their denominators."""
    try:
        fs = [Fraction(c) for c in coeffs]
    except (ValueError, OverflowError) as exc:
        raise HeckeError("coefficients must be finite rationals: %s" % exc) from None
    den = math.lcm(*(f.denominator for f in fs))
    return [f.numerator * (den // f.denominator) for f in fs] or [0], den


def _lowest(nums: list, den: int) -> Tuple[tuple, int]:
    """nums / den (den > 0) with trailing zeros trimmed and gcd(den, *nums) = 1."""
    while len(nums) > 1 and nums[-1] == 0:
        nums.pop()
    g = math.gcd(den, *nums)
    return tuple(x // g for x in nums) if g > 1 else tuple(nums), den // g


def _sum(x, y, sign: int) -> Tuple[list, int]:
    """Numerators of x + sign * y over x.den * y.den."""
    pairs = zip_longest(x.nums, y.nums, fillvalue=0)
    return [a * y.den + sign * b * x.den for a, b in pairs], x.den * y.den


class LocalHeckeElement:
    """Rational linear combination of T(P^0), T(P^2), ..., T(P^{2k}).

    coeffs[j] = nums[j] / den multiplies T(P^{2j}).  The prime enters only through
    its label (mismatch detection) and absolute norm (the structure constants).
    """

    __slots__ = ("label", "norm", "nums", "den")

    def __init__(self, label: str, norm: int, coeffs: Sequence[Scalar]):
        _check_norm(norm)
        self.label, self.norm = label, norm
        self.nums, self.den = _lowest(*_cleared(coeffs))

    @classmethod
    def _from_ints(cls, label: str, norm: int, nums: list, den: int) -> "LocalHeckeElement":
        self = object.__new__(cls)
        self.label, self.norm = label, norm
        self.nums, self.den = _lowest(nums, den)
        return self

    @classmethod
    def basis(cls, label: str, norm: int, k: int) -> "LocalHeckeElement":
        """The basis vector T(P^{2k})."""
        _check_norm(norm)
        if k < 0:
            raise HeckeError("k must be >= 0")
        return cls._from_ints(label, norm, [0] * k + [1], 1)

    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.nums)

    def _check(self, other: "LocalHeckeElement") -> None:
        if self.label != other.label or self.norm != other.norm:
            raise HeckeError("prime mismatch: %s (N=%d) vs %s (N=%d)"
                             % (self.label, self.norm, other.label, other.norm))

    def __add__(self, other: "LocalHeckeElement") -> "LocalHeckeElement":
        self._check(other)
        return self._from_ints(self.label, self.norm, *_sum(self, other, 1))

    def __sub__(self, other: "LocalHeckeElement") -> "LocalHeckeElement":
        self._check(other)
        return self._from_ints(self.label, self.norm, *_sum(self, other, -1))

    def scale(self, c: Scalar) -> "LocalHeckeElement":
        (x,), d = _cleared([c])
        return self._from_ints(self.label, self.norm, [x * y for y in self.nums], d * self.den)

    def __eq__(self, other):
        return (isinstance(other, LocalHeckeElement) and self.label == other.label
                and (self.norm, self.nums, self.den) == (other.norm, other.nums, other.den))

    def __hash__(self):
        return hash((self.label, self.norm, self.nums, self.den))

    def __mul__(self, other: "LocalHeckeElement") -> "LocalHeckeElement":
        """Product by the three-term relation (the recursion route).

        E_j = T(P^{2j}) * other runs E_0 = other, E_1 = T(P^2) E_0 and
        E_{j+1} = T(P^2) E_j - N E_j - N^2 E_{j-1}.  With e = E_j the relation
        T(P^2) T(P^{2i}) = T(P^{2i+2}) + N T(P^{2i}) + N^2 T(P^{2i-2}) (i >= 1)
        folds that step into one pass, E_{j+1}[i] = e[i-1] + N^2 (e[i+1] -
        E_{j-1}[i]), less N e[0] at i = 0.  sum_j c_j E_j over the c_j != 0 is
        taken on the numerators, over the product of the denominators.
        """
        self._check(other)
        N = self.norm
        N2 = N * N
        prev, e = None, list(other.nums)
        out = [0]
        for j, c in enumerate(self.nums):
            if j:
                head = [0] + e
                if j == 1:
                    nxt = [x + N * y + N2 * z
                           for x, y, z in zip_longest(head, e, e[1:], fillvalue=0)]
                else:
                    nxt = [x + N2 * (y - z)
                           for x, y, z in zip_longest(head, e[1:], prev, fillvalue=0)]
                nxt[0] -= N * e[0]
                prev, e = e, nxt
            if c:
                out = [o + c * x for o, x in zip_longest(out, e, fillvalue=0)]
        return self._from_ints(self.label, N, out, self.den * other.den)

    def to_sym_laurent(self) -> "SymLaurentPoly":
        """Ring isomorphism: T(P^{2k}) -> N^k sum_{j=0}^{2k} X^{2k-2j}.

        Coefficient m of the image is the suffix sum of c_k N^k over k >= m,
        taken on the numerators over the same denominator.
        """
        terms, power = [], 1
        for c in self.nums:
            terms.append(c * power)
            power *= self.norm
        return SymLaurentPoly._from_ints(list(accumulate(reversed(terms)))[::-1], self.den)

    def __repr__(self):
        terms = []
        for k, c in enumerate(self.coeffs):
            if c != 0:
                terms.append("%s*T(%s^%d)" % (c, self.label, 2 * k))
        return " + ".join(terms) if terms else "0"


def from_sym_laurent(label: str, norm: int, poly: "SymLaurentPoly") -> LocalHeckeElement:
    """Inverse of to_sym_laurent; every rational poly is in the image.

    The image of T(P^{2k}) is N^k on the coefficients m = 0..k, so the inverse
    is a first difference, c_k N^k = P_k - P_{k+1}: over the one denominator
    den N^K, K the top degree, c_k has numerator (P_k - P_{k+1}) N^{K-k}.
    """
    _check_norm(norm)
    ps = poly.nums
    nums, power = [ps[-1]], 1
    for k in range(len(ps) - 2, -1, -1):
        power *= norm
        nums.append((ps[k] - ps[k + 1]) * power)
    return LocalHeckeElement._from_ints(label, norm, nums[::-1], poly.den * power)


class SymLaurentPoly:
    """Even symmetric Laurent polynomial on the basis 1, X^2+X^-2, X^4+X^-4, ...

    coeffs[m] = nums[m] / den multiplies X^{2m} + X^{-2m} (coeffs[0] multiplies 1).
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Sequence[Scalar]):
        self.nums, self.den = _lowest(*_cleared(coeffs))

    @classmethod
    def _from_ints(cls, nums: list, den: int) -> "SymLaurentPoly":
        self = object.__new__(cls)
        self.nums, self.den = _lowest(nums, den)
        return self

    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.nums)

    def __eq__(self, other):
        return (isinstance(other, SymLaurentPoly) and self.nums == other.nums
                and self.den == other.den)

    def __hash__(self):
        return hash((self.nums, self.den))

    def __add__(self, other: "SymLaurentPoly") -> "SymLaurentPoly":
        return SymLaurentPoly._from_ints(*_sum(self, other, 1))

    def __mul__(self, other: "SymLaurentPoly") -> "SymLaurentPoly":
        """Product of the numerators over the product of the denominators.

        Only the nonzero pairs are swept: x_a y_b adds to out[a + b] and, when
        a and b are both nonzero, to out[|a - b|], twice when a = b.
        """
        out = [0] * (len(self.nums) + len(other.nums) - 1)
        ys = [(b, y) for b, y in enumerate(other.nums) if y]
        for a, x in enumerate(self.nums):
            if x:
                for b, y in ys:
                    p = x * y
                    out[a + b] += p
                    if a and b:
                        out[abs(a - b)] += p if a != b else 2 * p
        return SymLaurentPoly._from_ints(out, self.den * other.den)

    def evaluate(self, x: complex) -> complex:
        """Value at X = x (diagnostic; the exact routes never call this)."""
        tot = complex(self.nums[0] / self.den)
        for m in range(1, len(self.nums)):
            tot += self.nums[m] / self.den * (x ** (2 * m) + x ** (-2 * m))
        return tot

    def __repr__(self):
        return "SymLaurentPoly(%r)" % (self.coeffs,)


# -- S-polynomials and eigenvalue parametrization ------------------------------


def s_poly(norm: int, two_k: int) -> Tuple[Fraction, ...]:
    """Coefficients a_m (in lambda^{2m}) of S_{P,2k} with 2k = two_k.

    Defined by S_{P,2k}(sqrt(N)(X + X^-1)) = N^k sum_{j=0}^{2k} X^{2k-2j}, so
    S_{P,2k}(lambda) = N^k U_{2k}(lambda / 2 sqrt(N)) with U the Chebyshev
    polynomial of the second kind: a_m = (-1)^{k-m} C(k+m, k-m) N^{k-m}.
    """
    _check_norm(norm)
    if two_k < 0 or two_k % 2 != 0:
        raise HeckeError("S polynomials are indexed by even nonnegative integers")
    k = two_k // 2
    return tuple(Fraction((-norm) ** (k - m) * math.comb(k + m, k - m)) for m in range(k + 1))


def s_poly_eval(coeffs: Sequence[Fraction], lam):
    """Evaluate an even polynomial given by lambda^{2m} coefficients.

    Exact when lam is int/Fraction, float otherwise.
    """
    exact = isinstance(lam, (int, Fraction))
    lam2 = Fraction(lam) ** 2 if exact else float(lam) ** 2
    acc, power = (Fraction(0) if exact else 0.0), 1
    for c in coeffs:
        acc += (c if exact else float(c)) * power
        power = power * lam2
    return acc


def nu_strip_height(norm: int) -> float:
    """Top of the imaginary leg of the canonical nu domain."""
    _check_norm(norm)
    return math.pi / (2 * math.log(norm))


def lambda_from_nu(norm: int, nu: complex) -> float:
    """lambda = sqrt(N)(N^nu + N^-nu) on the canonical domain.

    Real nu in (0, 1/2] (complementary series), or purely imaginary
    nu = i t with 0 <= t <= pi/(2 log N) (tempered).  Endpoints are exact:
    nu=0 -> 2 sqrt N, nu=1/2 -> N+1, nu = i pi/(2 log N) -> 0.
    """
    _check_norm(norm)
    N = norm
    z = complex(nu)
    if not cmath.isfinite(z):
        raise HeckeError("nu must be finite, got %r" % (nu,))
    tol = 1e-12
    if abs(z.imag) <= tol:
        v = z.real
        if v < -tol or v > 0.5 + tol:
            raise HeckeError("real nu must lie in [0, 1/2], got %r" % (nu,))
        if abs(v - 0.5) <= tol:
            return float(N + 1)
        if abs(v) <= tol:
            return 2 * math.sqrt(N)
        return math.sqrt(N) * (N ** v + N ** (-v))
    if abs(z.real) > tol:
        raise HeckeError("nu must be real or purely imaginary, got %r" % (nu,))
    t = z.imag
    tmax = nu_strip_height(N)
    if t < -tol or t > tmax + tol:
        raise HeckeError("imaginary nu must lie in i[0, pi/(2 log N)], got %r" % (nu,))
    if abs(t - tmax) <= tol:
        return 0.0
    return 2 * math.sqrt(N) * math.cos(t * math.log(N))


def nu_from_lambda(norm: int, lam: float) -> complex:
    """Inverse of lambda_from_nu on [0, 1+N], principal branch."""
    _check_norm(norm)
    N = norm
    if not math.isfinite(lam):
        raise HeckeError("lambda must be finite, got %r" % (lam,))
    if lam < -1e-9 or lam > N + 1 + 1e-9:
        raise HeckeError("lambda must lie in [0, 1+N], got %r" % (lam,))
    lam = min(max(float(lam), 0.0), float(N + 1))
    two_sqrt = 2 * math.sqrt(N)
    if lam == N + 1:
        return complex(0.5, 0.0)
    if lam >= two_sqrt:
        return complex(math.acosh(lam / two_sqrt) / math.log(N), 0.0)
    # at lam = 0 this is nu_strip_height(N) to the bit: acos(0.0) is pi/2 exactly
    return complex(0.0, math.acos(lam / two_sqrt) / math.log(N))


# -- coset representatives and brute-force convolution -------------------------


def coset_representatives(prime: PrimeIdeal, k: int) -> list:
    """Upper-triangular representatives of the T(P^{2k}) coset decomposition.

    For a principal prime with generator pi: matrices
    [[pi^{k-l}, b pi^{-k}], [0, pi^{l-k}]], l = 0..2k, b over O/P^l.
    The count is sum_{l=0}^{2k} N^l; k = 0 gives the one coset of the identity.
    b pi^{-k} is b's int coordinates times N(pi)^k pi^{-k} (conj(pi)^k, or 1
    over Q), divided by N(pi)^k (signed).
    """
    if k < 0:
        raise HeckeError("coset decomposition needs k >= 0")
    field, pi = prime.field, prime.generator
    if pi is None:
        raise HeckeError("prime %s has no stored generator" % prime.label)
    zero = field.zero()
    nk = int(pi.norm()) ** k
    cof = tuple(map(int, ((pi.inverse() * pi.norm()) ** k).coords()))
    power = prime ** 0
    out = []
    for l in range(2 * k + 1):
        if l:
            power = power * prime
        a, d = pi ** (k - l), pi ** (l - k)
        out.extend((a, FieldElement(field, *[Fraction(v, nk) for v in field.mul_coords(x, cof)]),
                    zero, d) for x in power.residue_coords())
    return out


def expected_coset_count(norm: int, k: int) -> int:
    return sum(norm ** l for l in range(2 * k + 1))


# the most coset pairs brute_force_convolution multiplies
_MAX_PAIRS = 10 ** 6


def brute_force_convolution(p: int, two_k: int, two_m: int) -> LocalHeckeElement:
    """Convolve T(p^{2k}) and T(p^{2m}) over Q by explicit coset multiplication.

    Multiplies every pair of coset representatives, scaled by p^k to the
    integer matrices [[p^{2k-l}, b], [0, p^l]] (0 <= l <= 2k, 0 <= b < p^l),
    reduces each product to the canonical Hermite form, tallies
    multiplicities per primitive layer (they must be constant within a
    layer), and unfolds the nested characteristic functions by differencing
    consecutive layers.  This is the independent check of the
    three-term-relation recursion; it does not share code with
    LocalHeckeElement.__mul__.

    The pairs of layers (l1, l2) are multiplied as int64 outer products: the
    product's diagonal is (p^{2(k+m)-s}, p^s) with s = l1 + l2, so its Hermite
    key is b mod p^s alone and one np.bincount per s tallies it.
    """
    import numpy as np

    if not _is_prime(p):
        raise HeckeError("p must be a rational prime, got %r" % (p,))
    if two_k % 2 or two_m % 2 or two_k < 0 or two_m < 0:
        raise HeckeError("exponents must be nonnegative even integers")
    k, m = two_k // 2, two_m // 2
    e = k + m
    # the largest int64 value is b1 p^l2 + p^(2k-l1) b2 with b1 < p^l1, b2 < p^l2,
    # below p^(l1+l2) + p^(2k+l2) <= 2 p^(2e); it is exact while p^(2e) < 2^62
    if p ** (2 * e) >= 2 ** 62:
        raise HeckeError("%d^%d reaches the int64 kernel's limit 2^62" % (p, 2 * e))
    # budget check before any enumeration: rep counts are known closed-form
    n_pairs = expected_coset_count(p, k) * expected_coset_count(p, m)
    if n_pairs > _MAX_PAIRS:
        raise HeckeError("pair budget exceeded: %d > %d" % (n_pairs, _MAX_PAIRS))
    # layer n = e - v with v = v_p(gcd(p^(2e-s), b, p^s)) = min(v_p(b), s, 2e-s);
    # the Hecke product is constant on each layer, zero tallies included
    mults: list = [None] * (e + 1) + [0]
    for s in range(2 * e + 1):
        ps = p ** s
        tally = np.zeros(ps, dtype=np.int64)
        for l1 in range(max(0, s - 2 * m), min(2 * k, s) + 1):
            l2 = s - l1
            # [[p^(2k-l1), b1], [0, p^l1]] * [[p^(2m-l2), b2], [0, p^l2]]
            b1 = np.arange(p ** l1, dtype=np.int64) * p ** l2
            b2 = np.arange(p ** l2, dtype=np.int64) * p ** (2 * k - l1)
            tally += np.bincount((np.add.outer(b1, b2) % ps).ravel(), minlength=ps)
        vmax = min(s, 2 * e - s)
        for v in range(vmax + 1):
            # b = 0 mod p^v is every p^v-th key; v_p(b) = v drops every p-th of those
            layer = tally[::p ** v] if v == vmax else tally[::p ** v].reshape(-1, p)[:, 1:]
            lo, hi = int(layer.min()), int(layer.max())
            if lo != hi or mults[e - v] not in (None, lo):
                raise HeckeError("nonconstant multiplicity on layer %d" % (e - v))
            mults[e - v] = lo
    return LocalHeckeElement._from_ints("%d:0" % p, p, [mults[n] - mults[n + 1]
                                                        for n in range(e + 1)], 1)


def verify_relation(label: str, norm: int, k: int, m: int,
                    brute: bool = False) -> Dict[str, int]:
    """Check T(P^{2k}) * T(P^{2m}) along independent routes, emit coefficients.

    Recursion route and Laurent route always; the explicit coset route over Q
    when brute is set (brute_force_convolution rejects a norm that is not a
    rational prime).  Keys are "T<N(P^{2n})>" = "T<norm^{2n}>", zero
    coefficients dropped.
    """
    a = LocalHeckeElement.basis(label, norm, k)
    b = LocalHeckeElement.basis(label, norm, m)
    alg = a * b
    lau = from_sym_laurent(label, norm, a.to_sym_laurent() * b.to_sym_laurent())
    if alg != lau:
        raise HeckeError("recursion and Laurent products disagree: %r vs %r" % (alg, lau))
    if brute:
        coset = brute_force_convolution(norm, 2 * k, 2 * m)
        if (coset.nums, coset.den) != (alg.nums, alg.den):
            raise HeckeError("brute-force convolution disagrees: %r vs %r" % (coset, alg))
    if alg.den != 1:
        raise HeckeError("non-integral structure constants %r" % (alg,))
    out, key = {}, 1
    for c in alg.nums:
        if c:
            out["T%d" % key] = c
        key *= norm * norm
    return out
