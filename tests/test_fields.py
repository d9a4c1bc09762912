"""Field arithmetic, ideal HNF bookkeeping, prime splitting, units."""

import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import hnf_ideals, negative, unit_inverse_pairs

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
    assert make_field(" q(sqrt 73) ").m == make_field(" 73 ").m == 73
    with pytest.raises(FieldError):
        make_field(4)  # not squarefree
    with pytest.raises(FieldError):
        make_field(-3)  # not totally real
    for spec in (5.0, Fraction(5), b"5", [5]):
        with pytest.raises(FieldError, match="bad field spec"):
            make_field(spec)


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


SQUAREFREE_BELOW_3000 = [m for m in range(2, 3000) if max(fields_module._factor(m).values()) == 1]


@pytest.fixture(scope="module")
def units_below_3000():
    """{m: fundamental unit of Q(sqrt m)} for every squarefree 2 <= m < 3000."""
    return {m: make_field(m).unit_group().fundamental for m in SQUAREFREE_BELOW_3000}


def test_every_fundamental_unit_is_normalized(units_below_3000):
    # eps > 1 in the first embedding exactly when Tr(eps) > 0 and b > 0; float
    # comparisons on the cancelling conjugate got 220 of these wrong or raised,
    # the first at m = 271 and m = 526
    assert len(units_below_3000) == 1823
    for m, eps in units_below_3000.items():
        assert eps.is_integral() and abs(eps.norm()) == 1, m
        assert eps.trace() > 0 and eps.b > 0, m
        ug = eps.field.unit_group()
        assert ug.fundamental_norm == eps.norm() and ug.regulator > 0, m


def test_fundamental_unit_is_the_least_pell_solution(units_below_3000):
    # an independent route: with D the discriminant, a unit is (x + y sqrt D)/2
    # with x^2 - D y^2 = +-4 and x = D y mod 2, and y = b on the basis (1, w),
    # so the fundamental unit has the least such y >= 1
    scanned = 0
    for m, eps in units_below_3000.items():
        if eps.b > 20000:
            continue
        disc = eps.field.disc
        y = 1
        while not any(r * r == sq and (r - disc * y) % 2 == 0
                      for sq in (disc * y * y + 4, disc * y * y - 4)
                      for r in (math.isqrt(sq),)):
            y += 1
        assert y == eps.b, m
        scanned += 1
    assert scanned == 862


def decimal_embeddings(field, x, digits=1000):
    """Both embeddings of x, larger w-image first, to `digits` significant digits."""
    with localcontext() as ctx:
        ctx.prec = digits
        r = Decimal(field.m).sqrt()
        ws = ((1 + r) / 2, (1 - r) / 2) if field.m % 4 == 1 else (r, -r)
        a, b = (Decimal(v.numerator) / v.denominator for v in x.coords())
        return tuple(a + b * w for w in ws)


@pytest.mark.parametrize("m", [2, 5, 94, 271, 526, 2998])
def test_embeddings_match_a_decimal_reference(m):
    # a + b*w_j cancelled in floats: the small conjugate of a large unit lost
    # every digit (Q(sqrt 94)'s read 2.33296e-7 for 2.33286e-7)
    field, rng = make_field(m), random.Random(m)
    eps = field.unit_group().fundamental
    xs = [s * eps ** k for k in range(-8, 9) for s in (1, -1)]
    xs += [field.element(Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 50)),
                         rng.randint(-10 ** 6, 10 ** 6)) for _ in range(40)]
    xs += [field.element(rng.randint(-9, 9), 0), field.element(0, rng.randint(-9, 9))]
    checked = 0
    for x in xs:
        if max(abs(x.a), abs(x.b)) > 10 ** 300:  # past float range, as the coordinates
            continue
        for got, want in zip(x.embed(), decimal_embeddings(field, x)):
            assert abs(Decimal(got) - want) <= Decimal("1e-15") * abs(want), (m, x)
        checked += 1
    assert checked >= 60
    if m == 94:
        assert eps.embed()[1] == pytest.approx(2.332856652957373e-07, rel=1e-15)


def test_unit_square_class_finds_every_root():
    # +-eps^k and 3 eps^k, |k| <= 9, over every squarefree m < 271: a root
    # exactly for eps^k with k even, and then eps^(k/2), positive in the first
    # embedding; the float-log route raised on 743 and missed 42 of these
    inputs = 0
    for m in (m for m in SQUAREFREE_BELOW_3000 if m < 271):
        field = make_field(m)
        eps, one = field.unit_group().fundamental, field.one()
        for k in range(-9, 10):
            power = eps ** k
            want = eps ** (k // 2) if k % 2 == 0 else None
            assert unit_square_class(power, one) == want, (m, k)
            assert unit_square_class(-power, one) is None, (m, k)
            assert unit_square_class(3 * power, one) is None, (m, k)
            assert unit_square_class(3 * power, field.element(3)) == want, (m, k)
            inputs += 3
    assert inputs == 9405


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


def brute_force_factorization(field, p):
    """The prime data above p from every root r < p of r^2 - t r - c mod p."""
    t, c = field.t, field.c
    roots = [r for r in range(p) if (r * r - t * r - c) % p == 0]
    if not roots:
        return [("%d:0" % p, ((p, 0), (0, p)), 1, 2, (p, 0))]
    e = 2 if field.disc % p == 0 else 1
    hnfs = sorted(fields_module._hnf([(p, 0), (-r, 1), (c, t - r)]) for r in roots)
    gens = [fields_module._small_generator(Ideal(field, hnf)) for hnf in hnfs]
    return [("%d:%d" % (p, i), hnf, e, 1, None if g is None else g.coords())
            for i, (hnf, g) in enumerate(zip(hnfs, gens))]


@pytest.mark.parametrize("m", [2, 5, 10, 13, 73, 94])
def test_prime_roots_match_brute_force(m):
    field = make_field(m)
    sieve = [True] * 5000
    for p in range(2, 5000):
        if sieve[p]:
            sieve[p * p::p] = [False] * len(range(p * p, 5000, p))
            assert _prime_data(factor_rational_prime(field, p)) == \
                brute_force_factorization(field, p), p


def _sqrt_mod_cases():
    for p in (3, 5, 7, 13, 17, 97, 257, 7681, 65537, 999983):
        yield from ((a, p) for a in (0, 1, 2, 3, p - 1, p - 4, 12345 % p))


def test_sqrt_mod():
    for a, p in _sqrt_mod_cases():
        r = fields_module._sqrt_mod(a, p)
        if r is None:
            assert pow(a, (p - 1) // 2, p) == p - 1, (a, p)
        else:
            assert r * r % p == a % p, (a, p)


def test_prime_label_roundtrip():
    for field in (Q, F5, F73):
        for p in (2, 3, 5, 7):
            for prime in factor_rational_prime(field, p):
                again = prime_by_label(field, prime.label)
                assert again.label == prime.label
                assert again.absolute_norm() == prime.absolute_norm()


def test_prime_labels_are_read_only_in_canonical_spelling():
    # one spelling per prime besides the bare "p" of index 0: "2:00", "2:+0" and
    # " 2 : 0 " all parsed by int() to 2:0 before
    assert prime_by_label(F73, "2").label == prime_by_label(F73, "2:0").label == "2:0"
    for label in ("2:00", "2:+0", " 2 : 0 ", "2: 0", "02:0", "+2:0", "2 ", "02", "+2",
                  "1_1:0", "11:-0", "11:01"):
        with pytest.raises(FieldError, match="not canonical"):
            prime_by_label(F73, label)
    with pytest.raises(FieldError, match="no prime '11:-1' above 11"):
        prime_by_label(F73, "11:-1")


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

    def counting(ideal):
        searched.append(ideal.hnf)
        return search(ideal)

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


def fraction_from_generators(field, gens):
    # Ideal.from_generators as it was before its int rows: the lcm of the Fraction
    # denominators, a Z-basis read off Ideal.unit_ideal, then the content of the
    # lattice divided out of den as Ideal.__init__ did for every den
    coords = [g.coords() for g in gens]
    if not any(any(x) for x in coords):
        raise FieldError("ideal needs a nonzero generator")
    den = math.lcm(*(v.denominator for x in coords for v in x))
    rows = [tuple(v.numerator * (den // v.denominator) for v in x) for x in coords]
    basis = Ideal.unit_ideal(field).hnf
    hnf = fields_module._hnf([field.mul_coords(x, u) for x in rows for u in basis])
    content = 0
    for row in hnf:
        for v in row:
            content = math.gcd(content, v)
    shrink = math.gcd(content, den)
    return tuple(tuple(v // shrink for v in row) for row in hnf), den // shrink


def test_from_generators_matches_fraction_route():
    rng = random.Random(28)
    dens = (1, 1, 1, 2, 3, 4, 6, 10)
    for field in (Q, F2, F5, make_field(94)):

        def element():
            return field.element(*(Fraction(rng.randint(-30, 30), rng.choice(dens))
                                   for _ in range(field.degree)))

        gens = [element() for _ in range(300)]
        gens += [field.element(rng.randint(-30, 30), rng.randint(-30, 30) if field.degree == 2
                               else 0) for _ in range(300)]
        cases = [[g] for g in gens if not g.is_zero()]
        cases += [[element(), element()] for _ in range(200)]
        cases += [[element(), field.zero()], [inverse_different(field).basis_elements()[0]]]
        assert any(g.is_integral() and g.norm() < 0 for g in gens)
        assert any(not g.is_integral() for g in gens)
        for case in cases:
            if all(g.is_zero() for g in case):
                continue
            ideal = Ideal.from_generators(case)
            assert (ideal.hnf, ideal.den) == fraction_from_generators(field, case), case
            if len(case) == 1:
                assert Ideal.principal(case[0]) == ideal
        for case in ([field.zero()], [field.zero(), field.zero()]):
            with pytest.raises(FieldError, match="nonzero generator"):
                Ideal.from_generators(case)


def test_from_generators_takes_the_field_of_its_generators():
    assert Ideal.from_generators([F5.element(2, 1)]) == Ideal.principal(F5.element(2, 1))
    assert Ideal.from_generators([F5.element(2, 1)]).field == F5
    assert Ideal.from_generators([Q.element(2), Q.element(3)]) == Ideal.unit_ideal(Q)
    for gens in ([F5.element(2), Q.element(3)], [F5.element(2), F2.element(2)],
                 [F2.one(), F2.element(0, 1), F5.zero()]):
        with pytest.raises(FieldError, match="field mismatch"):
            Ideal.from_generators(gens)
    for gens in ([], [F5.zero()], [Q.zero(), Q.zero()]):
        with pytest.raises(FieldError, match="nonzero generator"):
            Ideal.from_generators(gens)


@pytest.mark.parametrize("spec", ["Q", 2, 5, 13, 94])
def test_principal_matches_from_generators(spec):
    # Ideal.principal builds (x)'s HNF from its two int rows; from_generators is
    # the generic route over any generating set
    field = make_field(spec)
    rng = random.Random(35)
    dens = (1, 2, 3, 4, 5, 6, 9, 10, 12, 35)
    cases = []
    while len(cases) < 400:
        a, b = (Fraction(rng.randint(-60, 60), rng.choice(dens)) for _ in range(2))
        x = field.element(a, b if field.degree == 2 else 0)
        if not x.is_zero():
            cases.append(x)
    cases += [field.element(1), field.element(-1), field.element(Fraction(-7, 3))]
    if field.degree == 2:
        cases += [field.element(0, 1), field.element(0, Fraction(-5, 2)),
                  field.element(Fraction(1, 6), Fraction(1, 4))]
    assert any(x.is_integral() for x in cases) and any(not x.is_integral() for x in cases)
    assert any(x.is_integral() and x.norm() < 0 for x in cases)
    assert any(x.a < 0 and x.b <= 0 for x in cases)
    for x in cases:
        want = Ideal.from_generators([x])
        got = Ideal.principal(x)
        assert (got.hnf, got.den) == (want.hnf, want.den), x
    with pytest.raises(FieldError, match="nonzero generator"):
        Ideal.principal(field.zero())


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
    pairs = unit_inverse_pairs(ideal)
    assert len(pairs) == 48  # N(7) = 49, inert: residue field F_49
    one = F5.one()
    for coords, inv in pairs:
        x = F5.element(*coords)
        assert ideal.reduce(x * F5.element(*inv)) == ideal.reduce(one)


def test_unit_table_is_kept_per_modulus():
    field = make_field(5)
    c = field.element(13, 4)
    eps = field.unit_group().fundamental
    table = Ideal.principal(c)._unit_table()
    # c, -c and eps^3 c generate one ideal, so they read one kept table
    for x in (c, -c, c * eps ** 3, -(c * eps.inverse())):
        assert Ideal.principal(x)._unit_table() is table
    assert field._unit_tables == {Ideal.principal(c).hnf: table}
    # N(c) = 13^2 + 13*4 - 16 = 205 = 5 * 41: 4 * 40 units, one of each {x, -x} kept
    assert field._unit_table_ints == len(table) == 4 * 80
    ideal = Ideal.principal(c)
    flat = [v for x, y in unit_inverse_pairs(ideal) if x <= negative(ideal, x) for v in x + y]
    assert table.tolist() == flat


def test_unit_table_keeps_one_unit_of_each_sign_pair(enumerated_ideals):
    # ideals of norm <= 60 over Q and six quadratic fields, 2 in I for the
    # divisors of 2 among them: then x = -x, and every unit is kept with weight 1
    divides_two = 0
    for ideal in enumerated_ideals:
        k = ideal.field.degree
        table = ideal._unit_table()
        kept = list(fields_module._table_coords(table, k, 0))
        units = [x for x, _ in unit_inverse_pairs(ideal)]
        residues = list(ideal.residue_coords())
        one = ideal.reduce_coords(1)
        # plain search: the residues with an inverse
        assert units == [x for x in residues
                         if any(ideal.reduce_coords(*ideal.field.mul_coords(x, y)) == one
                                for y in residues)], ideal
        assert kept == sorted(kept) and all(x <= negative(ideal, x) for x in kept), ideal
        assert all(len({x, negative(ideal, x)} & set(kept)) == 1 for x in units), ideal
        two_in_i = ideal.contains(ideal.field.element(2))
        assert fields_module._orbit_size(ideal) == (1 if two_in_i else 2), ideal
        assert (kept == units) == two_in_i, ideal
        assert fields_module._orbit_size(ideal) * len(kept) == len(units), ideal
        divides_two += two_in_i
    # the divisors of 2: (1) and (2) over Q and where 2 is inert (m = 5, 13), and
    # O, P and P^2 = (2) where it ramifies (m = 2, 3, 10, 94)
    assert divides_two == 2 * 3 + 3 * 4


def test_unit_table_is_kept_per_field():
    # (7) has the HNF ((7, 0), (0, 7)) over every quadratic field
    f5, f2, f5_again = make_field(5), make_field(2), make_field(5)
    tables = [Ideal.principal(f.element(7))._unit_table() for f in (f5, f2, f5_again)]
    assert len({id(t) for t in tables}) == 3
    # 7 inert in 5 (48 units), split in 2 (36 units): one of each {x, -x} kept
    assert len(tables[0]) == 4 * 24 and len(tables[1]) == 4 * 18
    assert tables[0] == tables[2]
    # 1, 2 and 3 of the units mod 7 with their inverses; 4, 5 and 6 are -3, -2, -1
    assert Ideal.principal(make_field("Q").element(7))._unit_table().tolist() == \
        [1, 1, 2, 4, 3, 5]


def test_unit_tables_past_the_budget(monkeypatch):
    monkeypatch.setattr(fields_module, "_UNIT_TABLE_INTS", 100)
    field = make_field(5)
    seven = Ideal.principal(field.element(7))  # 48 units, 24 kept: 96 ints
    three = Ideal.principal(field.element(3))  # inert: 8 units, 4 kept: 16 ints
    eleven = Ideal.principal(field.element(11))  # split: 100 units, 50 kept: 200 ints
    unit = Ideal.unit_ideal(field)  # O/O: its one residue 0 is a unit, its own inverse
    kept = seven._unit_table()
    assert seven._unit_table() is kept and field._unit_table_ints == 96
    # 96 + 16 > 100: the new table is returned and not kept, and the kept one stays
    small = three._unit_table()
    assert three._unit_table() is not small and three._unit_table() == small
    assert seven._unit_table() is kept
    assert field._unit_tables == {seven.hnf: kept} and field._unit_table_ints == 96
    # a table past the budget on its own is returned and not kept either
    big = eleven._unit_table()
    assert len(big) == 200 and eleven._unit_table() is not big
    assert eleven._unit_table() == big
    assert field._unit_tables == {seven.hnf: kept} and field._unit_table_ints == 96
    # a table that fits what is left is kept beside the others
    one = unit._unit_table()
    assert one.tolist() == [0, 0, 0, 0] and unit._unit_table() is one
    assert field._unit_tables == {seven.hnf: kept, unit.hnf: one}
    assert field._unit_table_ints == 100


def test_unit_square_class():
    eps = F5.unit_group().fundamental
    one = F5.one()
    found = unit_square_class(eps * eps, one)
    assert found is not None and found in (eps, -eps)
    assert unit_square_class(eps, one) is None
    assert unit_square_class(F5.element(3), one) is None
    got = unit_square_class(one, one)
    assert got is not None and got * got == one


def test_unit_square_class_with_a_norm_one_fundamental_unit():
    # over Q(sqrt 3) the fundamental unit 2 + sqrt 3 has norm +1, so it is
    # totally positive, and as an odd power of itself it is no square
    eps = F3.unit_group().fundamental
    assert eps == F3.element(2, 1) and eps.norm() == 1 and eps.is_totally_positive()
    assert unit_square_class(eps, F3.one()) is None
    assert unit_square_class(eps * eps, F3.one()) == eps
    assert unit_square_class(F3.element(5) * eps ** 3, F3.element(5) * eps) == eps


def test_field_element_operators():
    x, y = F5.element(Fraction(1, 2), 3), F5.element(2, -1)
    assert x - y == F5.element(Fraction(-3, 2), 4)
    assert (x - 1).coords() == (Fraction(-1, 2), 3)
    assert 1 - x == F5.element(Fraction(1, 2), -3)
    assert Fraction(1, 2) / x == F5.element(Fraction(-7, 29), Fraction(6, 29))
    assert (Fraction(1, 2) / x) * x == Fraction(1, 2)
    for op, sym in ((lambda: x + 0.5, r"\+"), (lambda: x - "1", "-"), (lambda: "1" - x, "-"),
                    (lambda: x * 0.5, r"\*"), (lambda: x / 0.5, "/"), (lambda: 0.5 / x, "/"),
                    (lambda: x ** 0.5, r"\*\*")):
        with pytest.raises(TypeError, match="unsupported operand type.*for %s" % sym):
            op()
    assert Q.element(3).is_totally_positive() and not Q.element(-3).is_totally_positive()


def test_field_element_hash_agrees_with_eq():
    x = F5.element(Fraction(1, 2), 3)
    same = F5.element(Fraction(2, 4), Fraction(6, 2))
    assert same == x and hash(same) == hash(x)
    assert (x - x) + x == x and hash((x - x) + x) == hash(x)
    table = {x: "x", F5.element(2): "two"}
    assert table[same] == "x" and table[F5.one() + 1] == "two"
    # an element with no w part equals its rational coordinate, and so hashes
    for elt, rat in ((F5.element(2), 2), (Q.element(Fraction(1, 3)), Fraction(1, 3)),
                     (F5.zero(), 0)):
        assert elt == rat and hash(elt) == hash(rat)
    assert {2: "two"}[F5.element(2)] == "two"
    assert F5.element(2) != F2.element(2)


def test_ideal_hash_agrees_with_eq():
    for field, gen in ((Q, Q.element(6)), (F5, F5.element(3, 1)),
                       (F5, F5.element(Fraction(1, 2), 1)), (F3, F3.element(1, 1))):
        eps = field.unit_group().fundamental or field.element(-1)
        a = Ideal.principal(gen)
        for b in (Ideal.from_generators([gen, 7 * gen]),
                  Ideal.from_generators([gen * eps]), Ideal.principal(-gen)):
            assert a == b and hash(a) == hash(b)
            assert {a: "a"}[b] == "a"


def test_ideal_times_a_number_is_a_type_error():
    with pytest.raises(TypeError):
        Ideal.unit_ideal(F5) * 2


def test_ideal_reprs():
    assert repr(Ideal.principal(Q.element(Fraction(6, 5)))) == "Ideal(den=5, hnf=((6,),))"
    assert repr(Ideal.principal(F5.element(2))) == "Ideal(den=1, hnf=((2, 0), (0, 2)))"
    assert repr(prime_by_label(F5, "11:1")) == "PrimeIdeal(11:1, p=11, e=1, f=1)"
    assert repr(prime_by_label(make_field(10), "2:0")) == "PrimeIdeal(2:0, p=2, e=2, f=1)"


@pytest.mark.parametrize("call, match", [
    (lambda: Q.omega(), "no quadratic generator"),
    (lambda: Q.element(1, 1), "no w component"),
    (lambda: F5.one() + F2.one(), "field mismatch"),
    (lambda: F5.zero().inverse(), "division by zero"),
    (lambda: F5.one() / 0, "division by zero"),
    (lambda: Ideal(Q, ((2,),), 0), "denominator must be positive"),
    (lambda: Ideal.principal(F5.element(3)).contains(F2.one()), "field mismatch"),
    (lambda: Ideal.principal(F5.element(3)).reduce(F2.one()), "field mismatch"),
    (lambda: Ideal.principal(F5.element(3)) * Ideal.principal(F2.one()), "field mismatch"),
    (lambda: Ideal.principal(F5.element(3)) <= Ideal.principal(F2.one()), "field mismatch"),
    (lambda: Ideal.principal(F5.element(Fraction(1, 3))).reduce(F5.one()), "integral ideal"),
    (lambda: Ideal.principal(F5.element(3)).reduce(F5.element(Fraction(1, 2))),
     "integral element"),
    (lambda: Ideal.principal(F5.element(Fraction(1, 3))).residue_coords(), "integral ideal"),
    (lambda: ideal_valuation(Ideal.principal(F5.element(Fraction(1, 2))),
                             prime_by_label(F5, "2:0")), "integral ideal"),
    (lambda: Ideal.principal(F5.element(3)) ** -1, "negative ideal powers"),
    (lambda: factor_rational_prime(F5, 1), "rational prime"),
    (lambda: factor_rational_prime(F5, 10 ** 6 + 3), "prime too large"),
    (lambda: prime_by_label(F5, "2:1"), "no prime '2:1' above 2"),
    (lambda: prime_by_label(F5, "11:-1"), "no prime '11:-1' above 11"),
    (lambda: prime_by_label(F5, "11:-2"), "no prime '11:-2' above 11"),
    (lambda: ideal_valuation(Ideal.principal(F5.element(2)), prime_by_label(F2, "2:0")),
     "field mismatch"),
    (lambda: ideal_valuation(Ideal.principal(Q.element(2)), prime_by_label(F5, "2:0")),
     "field mismatch"),
    (lambda: unit_square_class(F5.one(), F5.zero()), "r' must be nonzero"),
    (lambda: make_field("Q(sqrt x)"), "bad field spec"),
    (lambda: make_field("Q(sqrt)"), "bad field spec"),
    (lambda: make_field("banana"), "bad field spec"),
    (lambda: make_field(" Q(sqrt 4) "), "squarefree"),
], ids=["omega-over-Q", "w-part-over-Q", "add-mismatch", "inverse-of-zero", "divide-by-0",
        "denominator-0", "contains-mismatch", "reduce-mismatch", "mul-mismatch", "le-mismatch",
        "reduce-fractional-ideal", "reduce-fractional-element", "residues-fractional",
        "valuation-fractional", "negative-power", "p-1", "p-past-1e6", "missing-label",
        "label-index-minus-1", "label-index-minus-2", "valuation-mismatch",
        "valuation-mismatch-over-Q",
        "unit-square-class-rp-0", "spec-sqrt-x", "spec-sqrt-nothing", "spec-word",
        "spec-sqrt-4"])
def test_input_checks_raise(call, match):
    with pytest.raises(FieldError, match=match):
        call()


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


# the search before each row was solved by isqrt, copied verbatim: a double loop
# over the box, y outer and x inner
def _box_scan_reference(field, ideal, target_norm):
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


@pytest.mark.parametrize("m", [2, 3, 5, 6, 7, 10, 13, 43, 73, 79, 94, 103, 226, 1009])
def test_small_generator_matches_box_scan(m):
    # every ideal of norm <= 200 that the Weil scan enumerates: the same
    # generator, or None, as the box scan at the ideal's norm
    search = fields_module._small_generator
    field = make_field(m)
    for ideal in hnf_ideals(field, 200):
        norm = int(ideal.norm())
        assert search(ideal) == _box_scan_reference(field, ideal, norm), ideal
