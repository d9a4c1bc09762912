"""Field arithmetic, ideal HNF bookkeeping, prime splitting, units."""

import math
import random
from fractions import Fraction
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heckedist.fields as fields_module
from heckedist import (
    Box,
    FieldError,
    Ideal,
    NumberField,
    factor_rational_prime,
    ideal_prime_factorization,
    ideal_valuation,
    inverse_different,
    make_field,
    predict,
    prime_by_label,
    unit_square_class,
)

Q = make_field("Q")
F5 = make_field(5)
F2 = make_field(2)
F3 = make_field(3)
F73 = make_field(73)


def test_make_field_specs():
    assert make_field(None).degree == 1
    assert make_field("Q").degree == 1
    assert make_field(5).degree == 2
    assert make_field("5").degree == 2
    assert make_field("Q(sqrt 5)").m == 5
    with pytest.raises(FieldError):
        make_field(4)  # not squarefree
    with pytest.raises(FieldError):
        make_field(-3)  # not totally real


def test_discriminants():
    assert Q.disc == 1
    assert F5.disc == 5
    assert F73.disc == 73
    assert F2.disc == 8
    assert F3.disc == 12


def test_omega_satisfies_defining_quadratic():
    for field in (F5, F2, F3, F73):
        w = field.omega()
        t, c = field.t, field.c
        assert w * w == field.element(c) + field.element(t) * w


def test_trace_and_norm_degree_one():
    x = Q.element(Fraction(7, 3))
    assert x.trace() == Fraction(7, 3)
    assert x.norm() == Fraction(7, 3)


def test_trace_and_norm_degree_two():
    # m = 5: omega = (1+sqrt5)/2, trace 1, norm -1
    w = F5.omega()
    assert w.trace() == 1
    assert w.norm() == -1
    # m = 2: omega = sqrt2, trace 0, norm -2
    w2 = F2.omega()
    assert w2.trace() == 0
    assert w2.norm() == -2


def test_conjugate_identities():
    x = F5.element(3, Fraction(-2, 7))
    assert x + x.conjugate() == F5.element(x.trace())
    assert x * x.conjugate() == F5.element(x.norm())


def test_embeddings_match_trace_norm():
    x = F5.element(2, 3)
    s1, s2 = x.embed()
    assert abs(s1 + s2 - float(x.trace())) < 1e-12
    assert abs(s1 * s2 - float(x.norm())) < 1e-12


@given(
    a1=st.integers(-30, 30), b1=st.integers(-30, 30),
    a2=st.integers(-30, 30), b2=st.integers(-30, 30),
)
@settings(max_examples=200, deadline=None)
def test_norm_is_multiplicative(a1, b1, a2, b2):
    x = F5.element(a1, b1)
    y = F5.element(a2, b2)
    assert (x * y).norm() == x.norm() * y.norm()
    assert (x * y).trace() == (y * x).trace()


@given(a=st.integers(-50, 50), b=st.integers(-50, 50))
@settings(max_examples=100, deadline=None)
def test_inverse_roundtrip(a, b):
    x = F3.element(a, b)
    if x.is_zero():
        return
    assert x * x.inverse() == F3.one()


def test_fundamental_units_pinned():
    # classical values: continued-fraction expansion of sqrt(m) / omega
    cases = {
        2: (F2, F2.element(1, 1), -1),     # 1 + sqrt2
        3: (F3, F3.element(2, 1), 1),      # 2 + sqrt3
        5: (F5, F5.element(0, 1), -1),     # (1+sqrt5)/2
    }
    for m, (field, expected, norm) in cases.items():
        ug = field.unit_group()
        assert ug.fundamental == expected, m
        assert ug.fundamental.norm() == norm
        assert ug.fundamental.embed()[0] > 1


def test_fundamental_unit_is_minimal():
    # brute force: no unit strictly between 1 and eps0 in the first embedding
    for field in (F2, F3, F5, F73):
        eps = field.unit_group().fundamental
        top = eps.embed()[0]
        for a in range(-60, 61):
            for b in range(-60, 61):
                x = field.element(a, b)
                if x.norm() in (1, -1) and not x.is_zero():
                    emb = x.embed()[0]
                    assert not (1.0 + 1e-9 < emb < top - 1e-9), (field.m, a, b)


def test_prime_splitting_q():
    for p in (2, 3, 5, 11):
        primes = factor_rational_prime(Q, p)
        assert len(primes) == 1
        assert primes[0].absolute_norm() == p
        assert primes[0].e == 1 and primes[0].f == 1


def test_prime_splitting_quadratic():
    # m = 5: 2 and 3 inert, 5 ramified, 11 split
    inert2 = factor_rational_prime(F5, 2)
    assert len(inert2) == 1 and inert2[0].f == 2 and inert2[0].absolute_norm() == 4
    ram5 = factor_rational_prime(F5, 5)
    assert len(ram5) == 1 and ram5[0].e == 2 and ram5[0].absolute_norm() == 5
    split11 = factor_rational_prime(F5, 11)
    assert len(split11) == 2
    assert all(pi.absolute_norm() == 11 for pi in split11)
    # m = 73: both 2 and 3 split (73 = 1 mod 8, 73 = 1 mod 3)
    assert len(factor_rational_prime(F73, 2)) == 2
    assert len(factor_rational_prime(F73, 3)) == 2
    # m = 2: 2 ramified
    ram2 = factor_rational_prime(F2, 2)
    assert len(ram2) == 1 and ram2[0].e == 2


@pytest.mark.parametrize("m", [2, 3, 5, 10, 13, 73, 94])
def test_prime_splitting_is_complete(m):
    field = make_field(m)
    for p in range(2, 200):
        if any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
            continue
        primes = factor_rational_prime(field, p)
        assert sum(P.e * P.f for P in primes) == 2, p
        assert all((P.e == 2) == (field.disc % p == 0) for P in primes), p
        for P in primes:
            if P.generator is not None:
                assert Ideal.principal(P.generator) == P, (p, P.label)


def test_prime_label_roundtrip():
    for field in (Q, F5, F73):
        for p in (2, 3, 5, 7):
            for prime in factor_rational_prime(field, p):
                again = prime_by_label(field, prime.label)
                assert again.label == prime.label
                assert again.absolute_norm() == prime.absolute_norm()


def _prime_data(primes):
    return [(P.label, P.hnf, P.e, P.f, None if P.generator is None else P.generator.coords())
            for P in primes]


def test_factorization_memo_hands_out_copies():
    field = make_field(73)
    first = factor_rational_prime(field, 2)
    first.reverse()
    first.append(None)
    again = factor_rational_prime(field, 2)
    assert [P.label for P in again] == ["2:0", "2:1"]
    again.clear()
    assert len(factor_rational_prime(field, 2)) == 2


def test_factorization_memo_matches_fresh_field():
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)
    for m in (73, 94, 5):
        warm = make_field(m)
        first = {p: factor_rational_prime(warm, p) for p in primes}
        for p in primes:
            memo = factor_rational_prime(warm, p)
            assert all(a is b for a, b in zip(memo, first[p]))  # served from the memo
            assert _prime_data(memo) == _prime_data(factor_rational_prime(make_field(m), p))


def test_predict_searches_each_generator_once(monkeypatch):
    searched = []
    search = fields_module._small_generator

    def counting(field, ideal, target_norm):
        searched.append(ideal.hnf)
        return search(field, ideal, target_norm)

    monkeypatch.setattr(fields_module, "_small_generator", counting)
    field = make_field(73)
    box = Box(2, (1,), ((2, (0.3, 1.2)),), (0, 0), 4.0)
    for i in range(100):
        predict(field, 1.0, box, 1.0 + i / 50, {"2:0": (0.0, 1.0), "3:0": (1.0, 2.0)})
    # 2 and 3 both split in Q(sqrt 73): one search per root of x^2 - x - 18
    assert len(searched) == len(set(searched)) == 4


def test_unit_multiple_of_an_ideal_is_the_ideal(enumerated_ideals):
    # why _small_generator makes one pass: searching I eps^{-1} is searching I again
    for ideal in enumerated_ideals:
        eps = ideal.field.unit_group().fundamental
        if eps is not None:
            assert ideal * Ideal.principal(eps.inverse()) == ideal, ideal
            assert ideal * Ideal.principal(eps) == ideal, ideal


def test_prime_ideal_is_an_ideal():
    for prime in factor_rational_prime(F5, 11):
        assert prime.norm() == 11
        assert prime.contains(F5.element(11))
        if prime.generator is not None:
            assert prime.contains(prime.generator)


def test_ideal_norm_multiplicative_on_principal():
    x = F5.element(3, 1)
    y = F5.element(2, -1)
    ix, iy = Ideal.principal(x), Ideal.principal(y)
    ixy = Ideal.principal(x * y)
    assert ixy.norm() == ix.norm() * iy.norm()


# the Euclid HNF that Ideal arithmetic used before its one-pass fold, copied
# verbatim (with FieldError) so the references here share no HNF code with it
def _hnf_rank2(rows: Sequence[tuple]) -> tuple:
    """HNF basis ((n, 0), (b, g)) of the Z-span of integer 2-vectors.

    Requires full rank; n, g > 0 and 0 <= b < n.
    """
    rows = [list(r) for r in rows if r[0] != 0 or r[1] != 0]
    if not rows:
        raise FieldError("zero lattice")
    # eliminate y-components down to a single row by Euclid
    while True:
        nz = [r for r in rows if r[1] != 0]
        if len(nz) <= 1:
            break
        nz.sort(key=lambda r: abs(r[1]))
        pivot = nz[0]
        for r in nz[1:]:
            q = r[1] // pivot[1]
            r[0] -= q * pivot[0]
            r[1] -= q * pivot[1]
        rows = [r for r in rows if r[0] != 0 or r[1] != 0]
    ys = [r for r in rows if r[1] != 0]
    xs = [r[0] for r in rows if r[1] == 0]
    if not ys or not xs:
        raise FieldError("lattice not of full rank")
    b, g = ys[0]
    if g < 0:
        b, g = -b, -g
    n = 0
    for x in xs:
        n = math.gcd(n, x)
    b %= n
    return ((n, 0), (b, g))


def _hnf_rank1(rows: Sequence[tuple]) -> tuple:
    n = 0
    for (x,) in rows:
        n = math.gcd(n, x)
    if n == 0:
        raise FieldError("zero lattice")
    return ((n,),)


def _hnf_or_error(hnf, rows):
    try:
        return hnf(rows)
    except FieldError as exc:
        return str(exc)


def test_hnf_matches_euclid_reference():
    rng = random.Random(20)
    cases = [[(0, 0)] * 3, [(4, 0), (-6, 0)], [(0, 3), (0, -9), (0, 0)], [(0,), (0,)],
             [(3, 5), (-6, -10)], [(7, 0), (0, 5)]]
    for _ in range(4000):
        k = rng.randint(2, 5)
        cases.append([(rng.randint(-50, 50), rng.randint(-50, 50)) for _ in range(k)])
        cases.append([(rng.randint(-50, 50),) for _ in range(k)])
    for rows in cases:
        want = _hnf_or_error(_hnf_rank2 if len(rows[0]) == 2 else _hnf_rank1, rows)
        assert _hnf_or_error(fields_module._hnf, rows) == want, rows


def fraction_product(field, x, y):
    # (a1 + b1 w)(a2 + b2 w) with w^2 = t w + c, in Fractions, written out here
    # so that the reference below shares no code with NumberField.mul_coords
    return field.element(x.a * y.a + field.c * x.b * y.b,
                         x.a * y.b + x.b * y.a + field.t * x.b * y.b)


def fraction_ideal_mul_reference(I, J):
    # the Fraction route Ideal.__mul__ took before its int HNF rows: FieldElement
    # products of the two bases, then from_generators as it was (each generator
    # and generator*w, over the running lcm of their denominators, then the HNF)
    field = I.field
    closure = [fraction_product(field, u, v) for u in I.basis_elements() for v in J.basis_elements()]
    if field.degree == 2:
        closure += [fraction_product(field, g, field.omega()) for g in closure]
    den = 1
    for g in closure:
        for fr in (g.a, g.b):
            den = den * fr.denominator // math.gcd(den, fr.denominator)
    rows = [tuple(int(x * den) for x in g.coords()) for g in closure]
    if field.degree == 2:
        return Ideal(field, _hnf_rank2(rows), den)
    return Ideal(field, _hnf_rank1(rows), den)


def fraction_contained(I, J):
    # the route Ideal.__le__ took before its int rows: each basis element of I in J
    return all(J.contains(v) for v in I.basis_elements())


def test_ideal_mul_and_le_match_fraction_reference(enumerated_ideals):
    by_field = {}
    for ideal in enumerated_ideals:
        by_field.setdefault(ideal.field, []).append(ideal)
    for ideals in by_field.values():
        for i, I in enumerate(ideals):
            for J in ideals[i:]:
                got, want = I * J, fraction_ideal_mul_reference(I, J)
                assert (got.den, got.hnf) == (want.den, want.hnf) and J * I == got, (I, J)
                assert (I <= J) == fraction_contained(I, J), (I, J)
                assert (J <= I) == fraction_contained(J, I), (I, J)


def test_inverse_different_products_match_fraction_reference(enumerated_ideals):
    for I in enumerated_ideals:
        dinv = inverse_different(I.field)
        for X, Y in ((I, dinv), (dinv, I), (dinv, dinv), (I * dinv, I)):
            got, want = X * Y, fraction_ideal_mul_reference(X, Y)
            assert (got.den, got.hnf) == (want.den, want.hnf), (X, Y)
        Id = I * dinv
        for X, Y in ((Id, I), (I, Id), (Id, dinv), (dinv, Id), (Id, Id * dinv), (Id * dinv, Id)):
            assert (X <= Y) == fraction_contained(X, Y), (X, Y)


def power_valuation_reference(ideal, prime):
    # the route ideal_valuation took before its integer loop: the largest v
    # with ideal <= prime ** v, on Fraction ideal powers
    v, power = 0, prime
    while fraction_contained(ideal, power):
        v, power = v + 1, fraction_ideal_mul_reference(power, prime)
    return v


def test_ideal_valuation_matches_power_reference(enumerated_ideals):
    primes = {}
    for ideal in enumerated_ideals:
        field = ideal.field
        if field not in primes:
            primes[field] = [P for p in (2, 3, 5, 7, 11) for P in factor_rational_prime(field, p)]
        for prime in primes[field]:
            assert ideal_valuation(ideal, prime) == power_valuation_reference(ideal, prime), \
                (ideal, prime)


def test_ideal_prime_factorization_reconstructs_norm(enumerated_ideals):
    for ideal in enumerated_ideals + [Ideal.principal(F5.element(10, 2))]:
        n = 1
        for prime, v in ideal_prime_factorization(ideal):
            assert v >= 1
            assert ideal_valuation(ideal, prime) == v
            n *= prime.absolute_norm() ** v
        assert n == ideal.norm()


def test_ideal_prime_factorization_rejects_zero():
    with pytest.raises(FieldError):
        ideal_prime_factorization(Ideal.principal(F5.zero()))


def test_trial_division_stops_at_its_limit():
    assert fields_module._factor(10 ** 12) == {2: 12, 5: 12}
    # 10^12 + 39 is prime: the squarefree test, the prime splitting and the
    # ideal factorization all refuse it instead of dividing to its square root
    p = 10 ** 12 + 39
    for call in (lambda: make_field(p), lambda: factor_rational_prime(Q, p),
                 lambda: ideal_prime_factorization(Ideal.principal(F5.element(p)))):
        with pytest.raises(FieldError, match="past the trial-division limit 10\\^12"):
            call()


def test_ideal_prime_factorization_rejects_fractional_ideals():
    # norm 1/4 used to give [], norm 9/4 an error from ideal_valuation
    for x in (F5.element(Fraction(1, 2)), F5.element(Fraction(3, 2)),
              F5.element(Fraction(1, 2), 1), Q.element(Fraction(5, 3))):
        ideal = Ideal.principal(x)
        assert not ideal.is_integral()
        with pytest.raises(FieldError, match="nonzero integral ideal"):
            ideal_prime_factorization(ideal)


def test_inverse_different():
    dq = inverse_different(Q)
    assert dq.contains(Q.element(1))
    assert dq.norm() == 1
    d5 = inverse_different(F5)
    # (1/sqrt5) O: norm 1/5, trace pairing integral
    assert d5.norm() == Fraction(1, 5)
    for r in d5.basis_elements():
        for x in (F5.one(), F5.omega()):
            assert (r * x).trace().denominator == 1


def test_residue_ring_inverses():
    ideal = Ideal.principal(F5.element(7))
    pairs = ideal.unit_inverse_pairs()
    assert len(pairs) == 48  # N(7) = 49, inert: residue field F_49
    one = F5.one()
    for coords, inv in pairs:
        x = F5.element(*coords)
        assert ideal.reduce(x * F5.element(*inv)) == ideal.reduce(one)


def test_unit_square_class():
    eps = F5.unit_group().fundamental
    one = F5.one()
    found = unit_square_class(eps * eps, one)
    assert found is not None and found in (eps, -eps)
    assert unit_square_class(eps, one) is None
    assert unit_square_class(F5.element(3), one) is None
    got = unit_square_class(one, one)
    assert got is not None and got * got == one


# generator found for each prime above p < 60 (None: the bounded search found
# none), pinned from the Fraction implementation of the search, misses included
PINNED_GENERATORS = {
    5: {2: [(2, 0)], 3: [(3, 0)], 5: [(-3, -4)], 7: [(7, 0)], 11: [(-4, -5), (-5, -7)],
        13: [(13, 0)], 17: [(17, 0)], 19: [(10, -7), (-7, -10)], 23: [(23, 0)],
        29: [(-6, -7), (-4, -9)], 31: [(-8, -11), (-7, -9)], 37: [(37, 0)],
        41: [(-7, -8), (-5, -11)], 43: [(43, 0)], 47: [(47, 0)], 53: [(53, 0)],
        59: [(-5, -12), (-9, -11)]},
    43: {2: [None], 3: [None, None], 5: [(5, 0)], 7: [(6, -1), (-6, -1)], 11: [(11, 0)],
         13: [None, None], 17: [None, None], 19: [None, None], 23: [(23, 0)],
         29: [(29, 0)], 31: [(31, 0)], 37: [(37, 0)], 41: [None, None], 43: [(0, -1)],
         47: [(47, 0)], 53: [(15, -2), (-15, -2)], 59: [(59, 0)]},
    94: {2: [None], 3: [None, None], 5: [None, None], 7: [(7, 0)], 11: [(11, 0)],
         13: [None, None], 17: [None, None], 19: [(19, 0)], 23: [None, None],
         29: [None, None], 31: [None, None], 37: [(37, 0)], 41: [(41, 0)], 43: [(43, 0)],
         47: [None], 53: [(53, 0)], 59: [None, None]},
}


@pytest.mark.parametrize("m", sorted(PINNED_GENERATORS))
def test_prime_generators_pinned(m):
    field = make_field(m)
    for p, want in PINNED_GENERATORS[m].items():
        got = [None if P.generator is None else P.generator.coords()
               for P in factor_rational_prime(field, p)]
        assert got == want, p
