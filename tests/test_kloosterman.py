"""Kloosterman sums: exact evaluation, symmetries, characters, Weil-ratio
scan, delta term."""

import cmath
import math
import operator
import random
from collections import Counter
from fractions import Fraction

import pytest

from heckedist import (
    DirichletCharacter,
    FieldError,
    Ideal,
    KloostermanError,
    KloostermanQuery,
    delta_term,
    evaluate,
    ideal_prime_factorization,
    inverse_different,
    make_field,
    rational_kloosterman,
    symmetry_check,
    weil_scan,
)

Q = make_field("Q")
F5 = make_field(5)
F94 = make_field(94)


def q_query(m, n, c, chi=None):
    chi = chi or DirichletCharacter.trivial(Q, Ideal.principal(Q.element(c)))
    return KloostermanQuery(Q.element(c), Q.element(m), Q.element(n), chi)


def brute_rational(m, n, c):
    # independent float-only oracle, no shared code with evaluate()
    total = 0.0 + 0.0j
    for a in range(1, abs(c)):
        if math.gcd(a, abs(c)) != 1:
            continue
        abar = pow(a, -1, abs(c))
        total += cmath.exp(2j * cmath.pi * (m * a + n * abar) / abs(c))
    return total


def fraction_reference(q):
    # per-term Fraction loop that evaluate() used before its integer kernel;
    # kept here as the reference the integer kernel is compared with
    field = q.c.field
    total = 0.0 + 0.0j
    for coords, inv in Ideal.principal(q.c).unit_inverse_pairs():
        a, d = field.element(*coords), field.element(*inv)
        x = (q.rp * a + q.r * d) / q.c
        tr = x.trace()
        phase = Fraction(tr.numerator % tr.denominator, tr.denominator) \
            if tr.denominator != 1 else Fraction(0)
        phase += q.chi.inverse_phase(d)
        phase -= phase.numerator // phase.denominator
        total += cmath.exp(2j * math.pi * float(phase))
    return total


def random_quadratic_queries(field, rng, count):
    chi = DirichletCharacter.trivial(field, Ideal.unit_ideal(field))
    basis = inverse_different(field).basis_elements()
    out = []
    while len(out) < count:
        c = field.element(rng.randrange(-9, 10), rng.randrange(-3, 4))
        if c.is_zero() or not 1 < abs(c.norm()) <= 150:
            continue
        r, rp = (basis[0] * rng.randrange(-4, 5) + basis[1] * rng.randrange(-4, 5)
                 for _ in range(2))
        out.append(KloostermanQuery(c, r, rp, chi))
    return out


def mixed_queries(rng):
    """Rational queries with trivial and cyclic (mod 7, mod 9) characters, c of both
    signs, and quadratic queries over Q(sqrt 5) and Q(sqrt 94)."""
    queries = [q_query(rng.randrange(-20, 21), rng.randrange(-20, 21),
                       rng.randrange(1, 80)) for _ in range(20)]
    for modulus, gen in ((7, 3), (9, 2)):
        ideal = Ideal.principal(Q.element(modulus))
        for exponent in range(6):
            chi = DirichletCharacter.cyclic(Q, ideal, Q.element(gen), exponent)
            c = modulus * rng.randrange(1, 8) * rng.choice((1, -1))
            queries.append(q_query(rng.randrange(-9, 10), rng.randrange(-9, 10), c, chi))
    queries += random_quadratic_queries(F5, rng, 15)
    queries += random_quadratic_queries(F94, rng, 15)
    return queries


def test_evaluate_matches_fraction_reference():
    for q in mixed_queries(random.Random(2027)):
        assert abs(evaluate(q) - fraction_reference(q)) < 1e-12, q


def inverse_coords_route(ideal):
    """unit_inverse_pairs as it was before its loop was inlined: one
    _inverse_coords call per residue of residue_coords(), each reduced by
    reduce_coords."""
    field = ideal.field
    out = []
    for x in ideal.residue_coords():
        if field.degree == 1:
            n = ideal.hnf[0][0]
            if math.gcd(x[0], n) == 1:
                out.append((x, (pow(x[0], -1, n),)))
            continue
        a, b = x
        t, c = field.t, field.c
        (n, _), (bh, g) = ideal.hnf
        r = a - (bh // g) * b
        norm = a * a + t * a * b - c * b * b
        if math.gcd(r, n // g) != 1 or math.gcd(norm, g) != 1:
            continue
        y1 = pow(r, -1, n // g)
        s = pow(norm, -1, g)
        out.append((x, ideal.reduce_coords(y1 * (1 - norm * s) + s * (a + t * b), -s * b)))
    return out


def fraction_preamble_evaluate(q):
    """evaluate() as it was before its preamble went to ints: Fraction traces of
    r'/c and r/c times the basis over one common denominator with the
    character's phases, and a character lookup for every term."""
    field = q.c.field
    basis = (field.one(),) if field.degree == 1 else (field.one(), field.omega())
    coeffs = [(x * b).trace() for x in (q.rp / q.c, q.r / q.c) for b in basis]
    phases = q.chi.phases
    den = math.lcm(*(x.denominator for x in coeffs), *(x.denominator for x in phases.values()))
    lin = [int(x * den) for x in coeffs]
    chi_num = {key: int(x * den) for key, x in phases.items()}
    counts = Counter()
    for a, d in inverse_coords_route(Ideal.principal(q.c)):
        k = sum(map(operator.mul, a + d, lin)) - chi_num[q.chi.modulus.reduce_coords(*d)]
        counts[k % den] += 1
    return sum(n * cmath.exp(2j * math.pi * ((k % den) / den)) for k, n in counts.items())


def cyclic_characters(field, modulus, count):
    """The characters chi(g^j) = e(j e / order), e < count, for the first small
    element g that generates the units mod the modulus."""
    for a in range(2):
        for b in range(1, 6):
            try:
                return [DirichletCharacter.cyclic(field, modulus, field.element(b, a), e)
                        for e in range(count)]
            except KloostermanError:
                pass
    raise AssertionError("no small generator mod %r" % (modulus,))


def test_evaluate_is_bit_identical_to_fraction_preamble():
    rng = random.Random(14)
    F2 = make_field(2)
    queries = mixed_queries(random.Random(2027))
    # t = 0 in Q(sqrt 2); the inverse different (1/(2 sqrt 2)) gives r, r' denominators 4
    queries += random_quadratic_queries(F2, rng, 20)
    # c of negative norm, with r, r' in the inverse different
    for field in (F2, F5, F94):
        queries += [q for q in random_quadratic_queries(field, rng, 40) if q.c.norm() < 0][:8]
    queries += [q_query(m, n, -c) for m, n, c in ((3, 5, 97), (-2, 7, 60), (0, 1, 1))]
    # nontrivial characters over quadratic fields: mod 2 (F_4*) and mod 3 (F_9*) in
    # Q(sqrt 5), mod 3 (F_9*) in Q(sqrt 2)
    for field, gen in ((F5, F5.element(2)), (F5, F5.element(3)), (F2, F2.element(3))):
        modulus = Ideal.principal(gen)
        basis = inverse_different(field).basis_elements()
        for chi in cyclic_characters(field, modulus, 4):
            for _ in range(3):
                c = gen * field.element(rng.randrange(-4, 5), rng.randrange(1, 4))
                r, rp = (basis[0] * rng.randrange(-4, 5) + basis[1] * rng.randrange(-4, 5)
                         for _ in range(2))
                queries.append(KloostermanQuery(c, r, rp, chi))
    # a table mod O: its one value moves every term's phase alike
    shifted = DirichletCharacter(Q, Ideal.unit_ideal(Q), {(0,): Fraction(1, 3)}, check=False)
    queries += [q_query(3, 5, c, shifted) for c in (1, 12, 97)]
    assert any(q.c.norm() < 0 and q.c.field.degree == 2 for q in queries)
    for q in queries:
        assert evaluate(q) == fraction_preamble_evaluate(q), q
    # the classical sums over Q with the character mod O
    chi = DirichletCharacter.trivial(Q, Ideal.unit_ideal(Q))
    for c in range(1, 301):
        assert rational_kloosterman(3, 5, c) == fraction_preamble_evaluate(q_query(3, 5, c, chi))


def test_evaluate_preamble_is_constant_size(monkeypatch):
    # the Fractions evaluate builds do not grow with the number of terms
    built = [0]
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built[0] += 1
        return new(cls, *args, **kwargs)

    def fractions_built(q):
        built[0] = 0
        with monkeypatch.context() as m:
            m.setattr(Fraction, "__new__", staticmethod(counting_new))
            evaluate(q)
        return built[0]

    for chi in (None, DirichletCharacter.trivial(Q, Ideal.unit_ideal(Q))):
        assert fractions_built(q_query(3, 5, 97, chi)) == fractions_built(q_query(3, 5, 997, chi))
    chi97 = DirichletCharacter.cyclic(Q, Ideal.principal(Q.element(97)), Q.element(5))
    assert fractions_built(q_query(3, 5, 97, chi97)) == \
        fractions_built(q_query(3, 5, 97 * 11, chi97))


def int_product(ideal, x, y):
    # reduced int coordinates of x*y mod the ideal, with w^2 = t*w + c
    field = ideal.field
    if field.degree == 1:
        return ideal.reduce_coords(x[0] * y[0])
    return ideal.reduce_coords(x[0] * y[0] + field.c * x[1] * y[1],
                               x[0] * y[1] + x[1] * y[0] + field.t * x[1] * y[1])


def test_unit_inverse_pairs(enumerated_ideals):
    # plain search reference: for each residue x, the residue y with x*y = 1
    extra = [Ideal.principal(c) for c in (Q.element(36), F5.element(7), F5.element(3, 2),
                                          F5.element(6, 0), F94.element(5, 1), F94.element(6))]
    for ideal in enumerated_ideals + extra:
        pairs = ideal.unit_inverse_pairs()
        phi = 1
        for prime, v in ideal_prime_factorization(ideal):
            phi *= (prime.absolute_norm() - 1) * prime.absolute_norm() ** (v - 1)
        assert len(pairs) == phi
        assert all(type(v) is int for x, y in pairs for v in x + y)
        one = ideal.reduce_coords(1)
        residues = list(ideal.residue_coords())
        assert pairs == [(x, y) for x in residues for y in residues
                         if int_product(ideal, x, y) == one], ideal
    # inert 7 in Q(sqrt 5): the residue field F_49
    assert len(extra[1].unit_inverse_pairs()) == 48


def test_unit_inverse_pairs_match_inverse_coords_route(enumerated_ideals):
    for ideal in enumerated_ideals:
        assert ideal.unit_inverse_pairs() == inverse_coords_route(ideal), ideal


def test_character_modulus_must_be_integral():
    # the inverse different of Q(sqrt 5) is (1/sqrt 5) O, a fractional ideal
    dinv = inverse_different(F5)
    with pytest.raises(FieldError):
        DirichletCharacter(F5, dinv, {}, check=False)
    with pytest.raises(FieldError):
        dinv.unit_inverse_pairs()


def test_classical_values():
    assert abs(rational_kloosterman(1, 1, 2) - 1.0) < 1e-12
    assert abs(rational_kloosterman(1, 1, 3) - (-1.0)) < 1e-12
    golden = (3 - math.sqrt(5)) / 2
    assert abs(rational_kloosterman(1, 1, 5) - golden) < 1e-12


def test_rational_matches_character_mod_c():
    # the trivial character mod O gives the same sum, bit for bit, as mod (c)
    for m, n in ((1, 1), (3, 5), (0, 7), (-4, 9)):
        for c in range(1, 121):
            assert rational_kloosterman(m, n, c) == evaluate(q_query(m, n, c)), (m, n, c)


def test_against_float_oracle():
    rng = random.Random(7)
    for _ in range(25):
        c = rng.randrange(2, 40)
        m = rng.randrange(-10, 11)
        n = rng.randrange(-10, 11)
        got = rational_kloosterman(m, n, c)
        want = brute_rational(m, n, c)
        assert abs(got - want) < 1e-9, (m, n, c)


def test_ramanujan_sum_special_case():
    # S(m, 0; c) is a Ramanujan sum; S(1, 0; p) = -1 for prime p
    for p in (3, 5, 7, 11):
        assert abs(rational_kloosterman(1, 0, p) - (-1.0)) < 1e-12


def twisted_multiplicativity_gap(m, n, c1, c2):
    # |S(m,n;c1 c2) - S(m cbar2^2, n; c1) S(m cbar1^2, n; c2)| for coprime c1, c2
    assert math.gcd(c1, c2) == 1
    cb2 = pow(c2, -1, c1)
    cb1 = pow(c1, -1, c2)
    lhs = rational_kloosterman(m, n, c1 * c2)
    rhs = rational_kloosterman(m * cb2 * cb2 % c1, n, c1) * \
        rational_kloosterman(m * cb1 * cb1 % c2, n, c2)
    return abs(lhs - rhs)


def test_multiplicative_structure():
    for (c1, c2) in ((3, 4), (5, 7), (4, 9), (3, 25)):
        assert twisted_multiplicativity_gap(1, 1, c1, c2) < 1e-10


def test_evaluate_matches_rational_helper():
    got = evaluate(q_query(2, 3, 7))
    want = brute_rational(2, 3, 7)
    assert abs(got - want) < 1e-10


def test_symmetry_rational():
    rng = random.Random(11)
    for _ in range(30):
        c = rng.randrange(2, 50)
        m = rng.randrange(-8, 9)
        n = rng.randrange(-8, 9)
        assert symmetry_check(q_query(m, n, c)) < 1e-12


def test_symmetry_quadratic():
    rng = random.Random(13)
    od = inverse_different(F5)
    basis = od.basis_elements()
    chi = DirichletCharacter.trivial(F5, Ideal.unit_ideal(F5))
    for _ in range(15):
        c = F5.element(rng.randrange(1, 5), rng.randrange(0, 3))
        if c.is_zero() or c.norm() == 0:
            continue
        r = basis[0] * rng.randrange(-3, 4) + basis[1] * rng.randrange(-3, 4)
        rp = basis[0] * rng.randrange(-3, 4) + basis[1] * rng.randrange(-3, 4)
        q = KloostermanQuery(c, r, rp, chi)
        assert symmetry_check(q) < 1e-12


def test_shift_invariance():
    # r -> r + c * (inverse-different shift) leaves every phase unchanged
    od = inverse_different(Q)
    base = q_query(1, 1, 5)
    shifted = KloostermanQuery(
        base.c, base.r + base.c * od.basis_elements()[0] * Q.element(3),
        base.rp, base.chi)
    assert abs(evaluate(base) - evaluate(shifted)) < 1e-12


def test_query_validation():
    chi = DirichletCharacter.trivial(Q, Ideal.principal(Q.element(6)))
    with pytest.raises(KloostermanError):
        KloostermanQuery(Q.element(0), Q.element(1), Q.element(1), chi)
    with pytest.raises(KloostermanError):
        # c = 5 is not inside the modulus ideal (6)
        KloostermanQuery(Q.element(5), Q.element(1), Q.element(1), chi)
    with pytest.raises(KloostermanError):
        # r must lie in the inverse different (here: integers)
        q_query(Fraction(1, 2), 1, 5)
    chi5 = DirichletCharacter.trivial(F5, Ideal.unit_ideal(F5))
    for r, rp in ((F94.one(), F5.one()), (F5.one(), Q.element(1))):
        with pytest.raises(FieldError, match="field mismatch"):
            KloostermanQuery(F5.element(7), r, rp, chi5)


def test_character_validation():
    mod5 = Ideal.principal(Q.element(5))
    chi = DirichletCharacter.cyclic(Q, mod5, Q.element(2))
    # 2 has order 4 mod 5: chi(2) = i
    assert chi.value(Q.element(2)) == pytest.approx(1j)
    assert chi.value(Q.element(4)) == pytest.approx(-1.0)
    assert chi.minus_one() == pytest.approx(-1.0)
    with pytest.raises(KloostermanError):
        # inconsistent phase table: chi(1) != 1
        DirichletCharacter(Q, mod5, {(1,): Fraction(1, 2),
                                     (2,): Fraction(0), (3,): Fraction(0),
                                     (4,): Fraction(0)})


def test_evaluate_rejects_partial_character_table():
    # a table on the subgroup {1, 4} of (Z/5)* is multiplicative but misses d = 2;
    # all zero it looks trivial, yet every d is still looked up in it
    mod5 = Ideal.principal(Q.element(5))
    for phase in (Fraction(1, 2), Fraction(0)):
        chi = DirichletCharacter(Q, mod5, {(1,): Fraction(0), (4,): phase})
        with pytest.raises(KloostermanError):
            evaluate(KloostermanQuery(Q.element(5), Q.element(1), Q.element(1), chi))
    # mod O the one residue is 0; a table without it has no value to give
    empty = DirichletCharacter(Q, Ideal.unit_ideal(Q), {}, check=False)
    with pytest.raises(KloostermanError):
        evaluate(q_query(1, 1, 7, empty))


def test_twisted_sum_pinned():
    # chi of order 4 mod 5: S_chi(1,1;5) is purely imaginary
    mod5 = Ideal.principal(Q.element(5))
    chi = DirichletCharacter.cyclic(Q, mod5, Q.element(2))
    q = KloostermanQuery(Q.element(5), Q.element(1), Q.element(1), chi)
    val = evaluate(q)
    # pairs (a,d) = (1,1),(3,2),(2,3),(4,4): e(2/5) - e(3/5) + i - i = 2 i sin(pi/5)
    assert abs(val.real) < 1e-12
    assert val.imag == pytest.approx(2 * math.sin(math.pi / 5), abs=1e-12)
    # conjugation symmetry survives the twist
    assert symmetry_check(q) < 1e-12


def test_weil_scan_rational():
    res = weil_scan(Q, Q.element(1), Q.element(1), max_norm=60)
    assert len(res.rows) == 60
    norms = [row.norm for row in res.rows]
    assert norms == sorted(norms)
    # prime rows satisfy the Weil bound |S(1,1;p)| <= 2 sqrt p
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59}
    for row in res.rows:
        if row.norm in primes:
            assert row.abs_k <= 2 * math.sqrt(row.norm) * (1 + 1e-9)
    assert res.running_max == max(
        row.ratio for row in res.rows if row.norm > 1)


def kronecker(disc, n):
    # Kronecker symbol (disc / n) for n >= 1, by multiplicativity over the primes of n
    out, p = 1, 2
    while n > 1:
        while n % p == 0:
            n //= p
            if p == 2:
                out *= 0 if disc % 2 == 0 else (1 if disc % 8 in (1, 7) else -1)
            else:
                out *= {0: 0, 1: 1, p - 1: -1}[pow(disc, (p - 1) // 2, p)]
        p += 1
    return out


def test_weil_scan_counts_skipped_moduli():
    res = weil_scan(F94, F94.one(), F94.one(), max_norm=60)
    # Dedekind zeta: the number of ideals of norm n is sum_{d | n} (disc / d)
    ideals = sum(kronecker(F94.disc, d) * (60 // d) for d in range(1, 61))
    assert len(res.rows) + res.skipped == ideals
    assert weil_scan(Q, Q.element(1), Q.element(1), max_norm=20).skipped == 0


def test_weil_scan_quadratic_enumerates_principal_ideals():
    level5 = Ideal.principal(F5.element(-1, 2))  # sqrt5, norm 5
    res = weil_scan(F5, F5.one(), F5.one(), max_norm=100, eps=0.1)
    assert all(row.norm <= 100 for row in res.rows)
    assert all(row.norm >= 1 for row in res.rows)


def test_weil_scan_work_budget():
    with pytest.raises(KloostermanError):
        weil_scan(Q, Q.element(1), Q.element(1), max_norm=10 ** 9)


# (norm, x, y) of the generator x + y w of each row, and the skipped count, of
# weil_scan(F, 1, 1, max_norm=60) before its generator search lost its unit retry
WEIL_ROWS_60 = {
    94: (80, [(1, -1, 0), (4, -2, 0), (9, -3, 0), (16, -4, 0), (25, -5, 0), (27, -11, -1),
              (27, 11, -1), (30, -8, -1), (30, 8, -1), (36, -6, 0), (45, -7, -1), (45, 7, -1),
              (49, -7, 0), (50, -12, -1), (50, 12, -1), (58, -6, -1), (58, 6, -1)]),
    43: (53, [(1, -1, 0), (4, -2, 0), (7, -6, -1), (7, 6, -1), (9, -3, 0), (16, -4, 0),
              (18, -5, -1), (18, 5, -1), (21, -8, -1), (21, 8, -1), (25, -5, 0), (27, -4, -1),
              (27, 4, -1), (28, -12, -2), (28, 12, -2), (34, -3, -1), (34, 3, -1), (36, -6, 0),
              (38, -9, -1), (38, 9, -1), (39, -2, -1), (39, 2, -1), (42, -1, -1), (42, 1, -1),
              (43, 0, -1), (49, -7, 0), (51, -11, -2), (51, 11, -2), (53, -15, -2),
              (53, 15, -2), (57, -10, -1), (57, 10, -1)]),
    10: (34, [(1, -3, -1), (4, -6, -2), (6, -4, -1), (6, -2, -1), (9, -7, -2), (9, -3, 0),
              (9, 7, -2), (10, 0, -1), (15, -5, -2), (15, 5, -2), (16, -4, 0), (24, -8, -2),
              (24, -4, -2), (25, -5, 0), (26, -8, -3), (26, 8, -3), (31, -11, -3), (31, 11, -3),
              (36, -14, -4), (36, -6, 0), (36, 14, -4), (39, -11, -4), (39, -1, -2), (39, 1, -2),
              (39, 11, -4), (40, 0, -2), (41, -7, -3), (41, 7, -3), (49, -7, 0), (54, -14, -5),
              (54, -12, -3), (54, -6, -3), (54, 14, -5), (60, -10, -4), (60, 10, -4)]),
}


@pytest.mark.parametrize("m", sorted(WEIL_ROWS_60))
def test_weil_scan_rows_pinned(m):
    field = make_field(m)
    res = weil_scan(field, field.one(), field.one(), max_norm=60)
    skipped, rows = WEIL_ROWS_60[m]
    assert [(row.norm, row.c.a, row.c.b) for row in res.rows] == rows
    assert res.skipped == skipped


def factorization_denominator(c, s_labels, eps):
    # the per-row benchmark weil_scan took before: N(P)^v over every prime factor
    # of (c), with exponent 1 on S and 1/2 + eps off it
    denom = 1.0
    for prime, v in ideal_prime_factorization(Ideal.principal(c)):
        npv = float(prime.absolute_norm() ** v)
        denom *= npv if prime.label in s_labels else npv ** (0.5 + eps)
    return denom


@pytest.mark.parametrize("eps", [0.1, 0.3])
def test_weil_ratio_matches_factorization_product(eps):
    level5 = DirichletCharacter.trivial(F5, Ideal.principal(F5.element(-1, 2)))
    level6 = DirichletCharacter.trivial(Q, Ideal.principal(Q.element(6)))
    for field, chi, max_norm, labels in ((Q, None, 150, ()), (F5, None, 100, ()),
                                         (F94, None, 60, ()), (F5, level5, 100, ("5:0",)),
                                         (Q, level6, 150, ("2:0", "3:0"))):
        res = weil_scan(field, field.one(), field.one(), chi=chi, max_norm=max_norm, eps=eps)
        assert res.s_labels == labels and res.rows
        for row in res.rows:
            want = row.abs_k / factorization_denominator(row.c, labels, eps)
            assert row.ratio == pytest.approx(want, rel=1e-12, abs=0), (field, row.c)
        assert res.running_max == max(row.ratio for row in res.rows)


def test_weil_scan_factors_only_the_level(monkeypatch):
    import heckedist.fields as fields_module
    import heckedist.kloosterman as kloosterman_module

    factored = []
    factor = kloosterman_module.ideal_prime_factorization

    def counting(ideal):
        factored.append(ideal)
        return factor(ideal)

    def forbidden(field):
        raise AssertionError("inverse_different built during a scan")

    monkeypatch.setattr(kloosterman_module, "ideal_prime_factorization", counting)
    monkeypatch.setattr(fields_module, "inverse_different", forbidden)
    monkeypatch.setattr(kloosterman_module, "inverse_different", forbidden, raising=False)
    res = weil_scan(F5, F5.one(), F5.one(), max_norm=100)
    assert len(res.rows) == 44 and factored == [Ideal.unit_ideal(F5)]


@pytest.mark.parametrize("spec", ["Q", 2, 5, 94])
def test_query_trace_test_matches_inverse_different(spec):
    field = make_field(spec)
    chi = DirichletCharacter.trivial(field, Ideal.unit_ideal(field))
    od = inverse_different(field)
    basis = od.basis_elements()
    steps = [0] + [Fraction(1, d) for d in (2, 3, 4, field.disc, 2 * field.disc)]
    offsets = [field.element(a, b) for a in steps
               for b in (steps if field.degree == 2 else [0])]
    seen = Counter()
    for u in range(-2, 3):
        for v in range(-2, 3):
            base = sum((e * k for e, k in zip(basis, (u, v))), field.zero())
            for x in (base + off for off in offsets):
                member = od.contains(x)
                seen[member] += 1
                for r, rp in ((x, field.one()), (field.one(), x)):
                    try:
                        KloostermanQuery(field.element(7), r, rp, chi)
                        accepted = True
                    except KloostermanError:
                        accepted = False
                    assert accepted == member, (x, r is x)
    assert seen[True] > 0 and seen[False] > 0


def test_delta_diagonal():
    chiQ = DirichletCharacter.trivial(Q, Ideal.unit_ideal(Q))
    assert delta_term(Q.element(1), Q.element(1), (0,), chiQ) == 1
    chi5 = DirichletCharacter.trivial(F5, Ideal.unit_ideal(F5))
    r = F5.element(2, 1)
    assert delta_term(r, r, (0, 0), chi5) == 1


def test_delta_unit_square_classes():
    chi5 = DirichletCharacter.trivial(F5, Ideal.unit_ideal(F5))
    eps = F5.unit_group().fundamental
    one = F5.one()
    # r/r' = eps^2: a unit square, delta survives
    assert delta_term(eps * eps, one, (0, 0), chi5) == 1
    # r/r' = eps: not a unit square
    assert delta_term(eps, one, (0, 0), chi5) == 0
    # r/r' not a unit at all
    assert delta_term(F5.element(3), one, (0, 0), chi5) == 0


def test_delta_sign_character():
    # odd parity at the single real place of Q: the two square roots
    # contribute sign(e) each, cancelling for trivial chi
    chiQ = DirichletCharacter.trivial(Q, Ideal.unit_ideal(Q))
    assert delta_term(Q.element(1), Q.element(1), (1,), chiQ) == 0
    # chi mod 4 with chi(-1) = -1 restores the diagonal
    mod4 = Ideal.principal(Q.element(4))
    chi4 = DirichletCharacter.cyclic(Q, mod4, Q.element(3))
    assert delta_term(Q.element(1), Q.element(1), (1,), chi4) == pytest.approx(1)
