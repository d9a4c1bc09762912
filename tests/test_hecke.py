"""Local Hecke algebra: dual representations, relation, S-polynomials,
eigenvalue parametrization."""

import hashlib
import json
import math
import random
from fractions import Fraction
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckedist import (
    HeckeError,
    LocalHeckeElement,
    SymLaurentPoly,
    brute_force_convolution,
    coset_representatives,
    expected_coset_count,
    factor_rational_prime,
    from_sym_laurent,
    lambda_from_nu,
    make_field,
    nu_from_lambda,
    nu_strip_height,
    prime_by_label,
    s_poly,
    s_poly_eval,
    verify_relation,
)

Q = make_field("Q")
F5 = make_field(5)


def tee(label, norm, k):
    return LocalHeckeElement.basis(label, norm, k)


# -- references: the one-Fraction-at-a-time routes the int kernels replaced -------


def fraction_mul_reference(a, b):
    """T-basis product through powers of y = T(P^2), every term a Fraction."""
    N = Fraction(a.norm)

    def table(k):
        rows = [[Fraction(1)], [Fraction(0), Fraction(1)]][:k + 1]
        for j in range(1, k):
            nxt = [Fraction(0)] + rows[j]
            for i, c in enumerate(rows[j]):
                nxt[i] -= N * c
            for i, c in enumerate(rows[j - 1]):
                nxt[i] -= N * N * c
            rows.append(nxt)
        return rows

    def to_y(coeffs):
        rows = table(len(coeffs) - 1)
        out = [Fraction(0)] * len(coeffs)
        for j, c in enumerate(coeffs):
            for i, t in enumerate(rows[j]):
                out[i] += c * t
        return out

    ya, yb = to_y(a.coeffs), to_y(b.coeffs)
    rem = [Fraction(0)] * (len(ya) + len(yb) - 1)
    for i, x in enumerate(ya):
        for j, y in enumerate(yb):
            rem[i + j] += x * y
    rows = table(len(rem) - 1)
    out = [Fraction(0)] * len(rem)
    for j in range(len(rem) - 1, -1, -1):
        out[j] = c = rem[j]
        for i, t in enumerate(rows[j]):
            rem[i] -= c * t
    assert all(r == 0 for r in rem)
    return LocalHeckeElement(a.label, a.norm, out)


def ytable_mul_reference(a, b):
    """T-basis product on the int numerators through powers of y = T(P^2): a table
    of T(P^{2j}) in y, a y-polynomial product and back-substitution."""
    N = a.norm
    k = len(a.nums) + len(b.nums) - 2
    table = [[1], [0, 1]][:k + 1]
    for j in range(1, k):
        nxt = [0] + table[j]
        for i, c in enumerate(table[j]):
            nxt[i] -= N * c
        for i, c in enumerate(table[j - 1]):
            nxt[i] -= N * N * c
        table.append(nxt)

    def to_y(nums):
        out = [0] * len(nums)
        for j, c in enumerate(nums):
            for i, t in enumerate(table[j]):
                out[i] += c * t
        return out

    ya, yb = to_y(a.nums), to_y(b.nums)
    rem = [0] * (len(ya) + len(yb) - 1)
    for i, x in enumerate(ya):
        for j, y in enumerate(yb):
            rem[i + j] += x * y
    out = [0] * len(rem)
    for j in range(len(rem) - 1, -1, -1):
        out[j] = c = rem[j]
        for i, t in enumerate(table[j]):
            rem[i] -= c * t
    assert all(r == 0 for r in rem)
    return LocalHeckeElement._from_ints(a.label, N, out, a.den * b.den)


def triangular_s_poly_reference(norm, two_k):
    """S_{P,2k} coefficients by a triangular solve: lambda^{2m} has coefficient
    N^m C(2m, m-j) on X^{2j} + X^{-2j}, and the target coefficient is N^k."""
    k = two_k // 2
    N = Fraction(norm)
    a = [Fraction(0)] * (k + 1)
    for j in range(k, -1, -1):
        acc = sum((a[m] * N ** m * math.comb(2 * m, m - j) for m in range(j + 1, k + 1)),
                  Fraction(0))
        a[j] = (N ** k - acc) / N ** j
    return tuple(a)


def dict_tally_reference(p, two_k, two_m):
    """Coset convolution over Q with one (a, b mod d, d) dict key per product."""
    k, m = two_k // 2, two_m // 2
    e = k + m

    def reps(k):
        return [(p ** (2 * k - l), b, p ** l) for l in range(2 * k + 1) for b in range(p ** l)]

    tally = {}
    for a1, b1, d1 in reps(k):
        for a2, b2, d2 in reps(m):
            d = d1 * d2
            key = (a1 * a2, (a1 * b2 + b1 * d2) % d, d)
            tally[key] = tally.get(key, 0) + 1
    per_layer = {}
    for (a, b, d), mult in tally.items():
        g, i = math.gcd(a, b, d), 0
        while g % p == 0:
            g, i = g // p, i + 1
        per_layer.setdefault(e - i, set()).add(mult)
    mults = [0] * (e + 2)
    for n, ms in per_layer.items():
        assert len(ms) == 1
        mults[n] = ms.pop()
    return LocalHeckeElement("%d:0" % p, p, [mults[n] - mults[n + 1] for n in range(e + 1)])


def fieldelement_coset_reference(prime, k):
    """Coset representatives with each residue of P^l a FieldElement times pi^-k."""
    field, pi = prime.field, prime.generator
    zero = field.zero()
    pi_neg_k = pi ** (-k)
    out = []
    for l in range(2 * k + 1):
        reps = [field.element(*x) for x in (prime ** l).residue_coords()] if l > 0 else [zero]
        a, d = pi ** (k - l), pi ** (l - k)
        out.extend((a, b * pi_neg_k, zero, d) for b in reps)
    return out


def trimmed(cs):
    """A Fraction coefficient list without trailing zeros, as a tuple."""
    cs = [Fraction(c) for c in cs]
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    return tuple(cs) or (Fraction(0),)


def test_basis_and_identity():
    e = tee("2:0", 2, 0)
    x = tee("2:0", 2, 3)
    assert e * x == x
    assert x * e == x


def test_relation_low_degrees():
    # T(p^2) * T(p^2) = T(p^4) + N T(p^2) + N^2
    for norm in (2, 3, 4, 5, 9):
        t1 = tee("x", norm, 1)
        lhs = t1 * t1
        rhs = (tee("x", norm, 2) + tee("x", norm, 1).scale(norm)
               + tee("x", norm, 0).scale(norm * norm))
        assert lhs == rhs, norm


def test_verify_relation_pinned():
    out = verify_relation("2:0", 2, 1, 1)
    assert out == {"T16": 1, "T4": 2, "T1": 4}


def test_verify_relation_general():
    # T(p^2k) * T(p^2) = T(p^(2k+2)) + N T(p^2k) + N^2 T(p^(2k-2))
    for norm in (2, 3, 5):
        for k in (1, 2, 3):
            lhs = tee("x", norm, k) * tee("x", norm, 1)
            rhs = (tee("x", norm, k + 1) + tee("x", norm, k).scale(norm)
                   + tee("x", norm, k - 1).scale(norm * norm))
            assert lhs == rhs


def test_verify_relation_brute_route():
    assert verify_relation("3:0", 3, 2, 1, brute=True) == {"T729": 1, "T81": 3, "T9": 9}
    # the coset route runs over Q only: brute_force_convolution rejects a prime power
    with pytest.raises(HeckeError, match="rational prime"):
        verify_relation("2:0", 4, 1, 1, brute=True)
    assert verify_relation("2:0", 4, 1, 1) == {"T256": 1, "T16": 4, "T1": 16}


def test_brute_force_matches_algebra():
    for p in (2, 3):
        brute = brute_force_convolution(p, 2, 2)
        alg = tee(brute.label, p, 1) * tee(brute.label, p, 1)
        assert brute.coeffs == alg.coeffs


def test_brute_force_rejects_huge_inputs():
    # 3^16 is far below the int64 limit, but (3^9 - 1)/2 = 9841 cosets a side
    # make 96,845,281 pairs
    with pytest.raises(HeckeError, match="pair budget"):
        brute_force_convolution(3, 8, 8)


def test_brute_force_rejects_non_primes():
    # p = 1 used to loop forever in the layer valuation, p = 6 gave a "relation"
    for p in (0, 1, 4, 6):
        with pytest.raises(HeckeError, match="rational prime"):
            brute_force_convolution(p, 2, 2)


def test_brute_force_int64_guard():
    # p^(2(k+m)) = 2^62 is the first size the int64 keys cannot hold; the guard
    # comes before the pair budget, so no budget lets such a size through
    with pytest.raises(HeckeError, match="int64"):
        brute_force_convolution(2, 32, 30)
    with pytest.raises(HeckeError, match="pair budget"):
        brute_force_convolution(2, 32, 28)


def test_brute_force_matches_dict_tally_reference():
    # the benchmark's five (p, k, m) plus one p = 7 case
    for p, k, m in ((2, 4, 4), (2, 5, 3), (3, 3, 2), (3, 4, 1), (5, 2, 2), (7, 2, 1)):
        brute = brute_force_convolution(p, 2 * k, 2 * m)
        assert brute == dict_tally_reference(p, 2 * k, 2 * m), (p, k, m)


def test_brute_force_rejects_nonconstant_layers(monkeypatch):
    # corrupt the per-s tallies to show the layer check fires: one count bumped
    # at s = 2 breaks a layer within one s; every count of s = 2 shifted keeps
    # each layer constant there but off from the same layer at other s
    bincount = np.bincount
    for bump in (lambda t: t.__setitem__(1, t[1] + 1), lambda t: t.__iadd__(1)):
        def corrupted(x, minlength=0, bump=bump):
            t = bincount(x, minlength=minlength)
            if minlength == 4:
                bump(t)
            return t
        monkeypatch.setattr(np, "bincount", corrupted)
        with pytest.raises(HeckeError, match="nonconstant multiplicity"):
            brute_force_convolution(2, 4, 2)
        monkeypatch.setattr(np, "bincount", bincount)
        assert brute_force_convolution(2, 4, 2) == tee("2:0", 2, 2) * tee("2:0", 2, 1)


def test_products_match_fraction_reference():
    rng = random.Random(11)
    for _ in range(300):
        norm = rng.randrange(2, 33)
        a, b = (LocalHeckeElement("x", norm, [
            Fraction(rng.randrange(-99, 100), rng.randrange(1, 13))
            for _ in range(rng.randrange(1, 11))]) for _ in range(2))
        want = fraction_mul_reference(a, b)
        assert a * b == want
        assert from_sym_laurent("x", norm, a.to_sym_laurent() * b.to_sym_laurent()) == want


GRID_NORMS = (2, 3, 4, 5, 7, 8, 9, 11, 25, 32, 101)


def test_products_match_ytable_reference_on_grid():
    for norm in GRID_NORMS:
        basis = [tee("x", norm, k) for k in range(13)]
        for a in basis:
            for b in basis:
                got, want = a * b, ytable_mul_reference(a, b)
                assert (got.nums, got.den) == (want.nums, want.den), (norm, a, b)


def test_products_match_ytable_reference_random():
    rng = random.Random(23)
    for _ in range(2000):
        norm = rng.choice(GRID_NORMS + (rng.randrange(2, 200),))
        a, b = (LocalHeckeElement("x", norm, [
            Fraction(rng.randrange(-999, 1000), rng.randrange(1, 60))
            for _ in range(rng.randrange(1, 14))]) for _ in range(2))
        got, want = a * b, ytable_mul_reference(a, b)
        assert (got.nums, got.den) == (want.nums, want.den), (norm, a, b)


def test_s_poly_matches_triangular_reference():
    for norm in GRID_NORMS:
        for k in range(13):
            got = s_poly(norm, 2 * k)
            assert got == triangular_s_poly_reference(norm, 2 * k), (norm, k)
            assert all(type(c) is Fraction for c in got)


def test_s_poly_defining_identity():
    # S_{P,2k}(lambda) with lambda^2 = N (X + X^-1)^2 = 2N + N (X^2 + X^-2) is the
    # Laurent image of T(P^{2k}), exactly
    for norm in GRID_NORMS:
        lam2 = SymLaurentPoly([2 * norm, norm])
        for k in range(13):
            total, power = SymLaurentPoly([0]), SymLaurentPoly([1])
            for a in s_poly(norm, 2 * k):
                total, power = total + SymLaurentPoly([a]) * power, power * lam2
            assert total == tee("x", norm, k).to_sym_laurent(), (norm, k)


def test_sym_laurent_roundtrip_basis():
    for norm in (2, 3, 4, 5):
        for k in range(5):
            x = tee("x", norm, k)
            assert x.to_sym_laurent().coeffs == (norm ** k,) * (k + 1)
            assert from_sym_laurent("x", norm, x.to_sym_laurent()) == x


frac12 = st.builds(Fraction, st.integers(-99, 99), st.integers(1, 12))
frac_list = st.builds(lambda cs, zeros: cs + [Fraction(0)] * zeros,
                      st.lists(st.one_of(frac12, st.just(Fraction(0))), min_size=1, max_size=8),
                      st.integers(0, 3))


@given(u=frac_list, v=frac_list, c=frac12, norm=st.integers(2, 32))
@settings(max_examples=200, deadline=None)
def test_int_storage_matches_fraction_lists(u, v, c, norm):
    a, b = LocalHeckeElement("x", norm, u), LocalHeckeElement("x", norm, v)
    assert type(a.coeffs) is tuple and all(type(x) is Fraction for x in a.coeffs)
    assert a.coeffs == trimmed(u)
    # canonical form: lowest terms, trailing zeros trimmed
    assert a.den > 0 and math.gcd(a.den, *a.nums) == 1
    assert len(a.nums) == 1 or a.nums[-1] != 0
    # the same value built by other routes is == and hashes alike
    for same in (LocalHeckeElement("x", norm, [Fraction(2 * x.numerator, 2 * x.denominator)
                                               for x in u] + [0, 0]),
                 a.scale(Fraction(6, 5)).scale(Fraction(5, 6)), a + b - b,
                 from_sym_laurent("x", norm, a.to_sym_laurent())):
        assert same == a and hash(same) == hash(a)
        assert (same.nums, same.den) == (a.nums, a.den)
    pairs = list(zip_longest(u, v, fillvalue=Fraction(0)))
    assert (a + b).coeffs == trimmed(x + y for x, y in pairs)
    assert (a - b).coeffs == trimmed(x - y for x, y in pairs)
    assert a.scale(c).coeffs == trimmed(c * x for x in u)
    # the Laurent image: coefficient m is the suffix sum of c_k N^k over k >= m
    image = trimmed(sum(x * norm ** k for k, x in enumerate(u) if k >= m) for m in range(len(u)))
    assert a.to_sym_laurent() == SymLaurentPoly(image)
    assert a.to_sym_laurent().coeffs == image
    assert (a + b).to_sym_laurent() == a.to_sym_laurent() + b.to_sym_laurent()


def test_int_storage_examples():
    half = LocalHeckeElement("x", 2, [Fraction(1, 2), 0, 0])
    assert half == LocalHeckeElement("x", 2, [Fraction(2, 4)])
    assert hash(half) == hash(LocalHeckeElement("x", 2, [Fraction(2, 4)]))
    assert (half.nums, half.den, half.coeffs) == ((1,), 2, (Fraction(1, 2),))
    zero = LocalHeckeElement("x", 3, [Fraction(0, 5), 0])
    assert (zero.nums, zero.den, zero.coeffs) == ((0,), 1, (Fraction(0),))
    assert LocalHeckeElement("x", 3, []) == zero
    assert SymLaurentPoly([Fraction(3, 6), 0]) == SymLaurentPoly([Fraction(1, 2)])
    # a finite float keeps its exact binary value
    assert LocalHeckeElement("x", 2, [0.1]).coeffs == (Fraction(0.1),)
    assert half.scale(0.5).coeffs == (Fraction(1, 4),)


def test_rejects_bad_norms_and_coefficients():
    poly = tee("x", 2, 1).to_sym_laurent()
    for norm in (2.5, 2.0, True, 1, 0, -3, Fraction(5)):
        with pytest.raises(HeckeError, match="prime norm"):
            LocalHeckeElement("x", norm, [1])
        with pytest.raises(HeckeError, match="prime norm"):
            LocalHeckeElement.basis("x", norm, 1)
        with pytest.raises(HeckeError, match="prime norm"):
            from_sym_laurent("x", norm, poly)
        with pytest.raises(HeckeError, match="prime norm"):
            s_poly(norm, 2)
    with pytest.raises(HeckeError, match="prime norm"):
        s_poly(1, 4)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(HeckeError, match="finite"):
            LocalHeckeElement("x", 2, [1, bad])
        with pytest.raises(HeckeError, match="finite"):
            SymLaurentPoly([bad, 1])
        with pytest.raises(HeckeError, match="finite"):
            tee("x", 2, 1).scale(bad)


coeff = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20)


@given(u=st.lists(coeff, min_size=1, max_size=5),
       v=st.lists(coeff, min_size=1, max_size=5))
@settings(max_examples=150, deadline=None)
def test_multiplication_agrees_in_both_representations(u, v):
    a = LocalHeckeElement("2:0", 2, tuple(u))
    b = LocalHeckeElement("2:0", 2, tuple(v))
    direct = a * b
    via_laurent = from_sym_laurent(
        "2:0", 2, a.to_sym_laurent() * b.to_sym_laurent())
    assert direct == via_laurent


@given(u=st.lists(coeff, min_size=1, max_size=4),
       v=st.lists(coeff, min_size=1, max_size=4),
       w=st.lists(coeff, min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_algebra_is_commutative_and_associative(u, v, w):
    a = LocalHeckeElement("3:0", 3, tuple(u))
    b = LocalHeckeElement("3:0", 3, tuple(v))
    c = LocalHeckeElement("3:0", 3, tuple(w))
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


def test_coset_counts():
    # Delta(p^2k) is a nested union of layers: sum_{l<=2k} N^l right cosets
    p3 = factor_rational_prime(Q, 3)[0]
    for k in (1, 2, 3):
        reps = coset_representatives(p3, k)
        assert len(reps) == expected_coset_count(3, k)
    assert expected_coset_count(3, 1) == 13
    assert expected_coset_count(3, 2) == 121
    assert expected_coset_count(2, 1) == 7
    with pytest.raises(HeckeError):
        coset_representatives(p3, 0)


def test_coset_representatives_pinned_digest():
    # sha256 of the coordinate strings, taken from the per-residue construction
    pinned = {("2:0", 2): "1ae2ecce6a4c32c4a5a9c94c2364df2e406557f43ef2f521041f29b3ae566596",
              ("11:1", 1): "9af0abd1d5c8fe6fde9fca8333c005be9bf1b9a0d371d00f740bfaa46d976f06"}
    for (label, k), want in pinned.items():
        reps = coset_representatives(prime_by_label(F5, label), k)
        text = json.dumps([[[str(c) for c in x.coords()] for x in rep] for rep in reps])
        assert hashlib.sha256(text.encode()).hexdigest() == want, label


def test_coset_representatives_match_fieldelement_reference():
    cases = [(factor_rational_prime(Q, p)[0], k) for p in (2, 3, 5) for k in (1, 2)]
    f5_primes = [P for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
                 for P in factor_rational_prime(F5, p) if P.absolute_norm() < 30]
    assert len(f5_primes) == 9
    cases += [(P, 1) for P in f5_primes] + [(prime_by_label(F5, "2:0"), 2)]
    # stored generators of negative norm, so N(pi)^k < 0 at k = 1
    negative = [prime_by_label(make_field(2), "7:0"), prime_by_label(make_field(2), "7:1"),
                prime_by_label(make_field(3), "11:0")]
    assert all(P.generator.norm() < 0 for P in negative)
    cases += [(P, 1) for P in negative]
    for prime, k in cases:
        got = coset_representatives(prime, k)
        want = fieldelement_coset_reference(prime, k)
        assert len(got) == len(want) == expected_coset_count(prime.absolute_norm(), k)
        for g, w in zip(got, want):
            assert g == w and [x.coords() for x in g] == [x.coords() for x in w], \
                (prime.field, prime.label, k)


def test_s_poly_pinned():
    for n in (2, 3, 5, 7):
        assert s_poly(n, 0) == (Fraction(1),)
        assert s_poly(n, 2) == (Fraction(-n), Fraction(1))
        assert s_poly(n, 4) == (Fraction(n * n), Fraction(-3 * n), Fraction(1))


def test_s_poly_recursion():
    # the convolution relation transfers to the eigenvalue polynomials:
    # S_2k * S_2 = S_{2k+2} + N S_2k + N^2 S_{2k-2}
    for n in (2, 3, 4, 5):
        for k in range(1, 7):
            lam = Fraction(7, 5)
            lhs = s_poly_eval(s_poly(n, 2 * k), lam) * s_poly_eval(s_poly(n, 2), lam)
            rhs = (s_poly_eval(s_poly(n, 2 * k + 2), lam)
                   + n * s_poly_eval(s_poly(n, 2 * k), lam)
                   + n * n * s_poly_eval(s_poly(n, 2 * k - 2), lam))
            assert lhs == rhs


def test_s_poly_matches_laurent_eigenvalue():
    # S_{N,2k}(lambda(nu)) equals the T(p^2k) character value: with
    # x = N^nu, it is N^k * sum_{j=0..2k} x^(2j-2k) minus the lower terms
    # packaged by the T-basis; checked through the algebra instead:
    # evaluate the sym-Laurent image of T(p^2k) at x.
    for n in (2, 3, 5):
        for k in range(5):
            tk = tee("x", n, k).to_sym_laurent()
            for nu in (0.13, 0.31, 0.5):
                x = n ** nu
                lam = lambda_from_nu(n, nu)
                direct = s_poly_eval(s_poly(n, 2 * k), lam)
                via_char = complex(tk.evaluate(x))
                assert abs(complex(float(direct)) - via_char) < 1e-9 * (1 + abs(via_char))


def test_lambda_endpoints_exact():
    for n in (2, 3, 4, 5, 9):
        assert lambda_from_nu(n, 0.0) == 2 * math.sqrt(n)
        assert lambda_from_nu(n, 0.5) == n + 1


def test_lambda_nu_roundtrip():
    for n in (2, 3, 4, 5):
        for i in range(1, 200):
            lam = (n + 1) * i / 200.0
            back = lambda_from_nu(n, nu_from_lambda(n, lam))
            assert abs(back - lam) < 1e-12, (n, lam)


def test_nu_strip_height():
    # canonical imaginary leg: nu and -nu identified, period i pi / log N
    for n in (2, 3, 5):
        assert math.isclose(nu_strip_height(n), math.pi / (2 * math.log(n)))


def test_nu_canonical_strip():
    # tempered: lambda in [0, 2 sqrt N] -> nu purely imaginary on the leg
    nu = nu_from_lambda(2, 1.0)
    assert nu.real == 0 and 0 < nu.imag <= nu_strip_height(2)
    # complementary: lambda in (2 sqrt N, N+1] -> nu real in (0, 1/2]
    nu2 = nu_from_lambda(2, 2.9)
    assert nu2.imag == 0 and 0 < nu2.real <= 0.5


def test_non_finite_eigenvalues_rejected():
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(HeckeError, match="lambda must be finite"):
            nu_from_lambda(2, bad)
        for nu in (bad, complex(0, bad), complex(bad, 0.1)):
            with pytest.raises(HeckeError, match="nu must be finite"):
                lambda_from_nu(2, nu)
