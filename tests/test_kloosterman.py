"""Kloosterman sums: exact evaluation, symmetries, characters, Weil-ratio
scan, delta term."""

import cmath
import itertools
import json
import math
import operator
import random
from collections import Counter
from fractions import Fraction

import pytest
from conftest import negative, unit_inverse_pairs

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
from heckedist import cli
from heckedist import fields as fields_module
from heckedist import kloosterman as kloosterman_module
from heckedist.fields import _factor, _small_generator, _table_coords, factor_rational_prime
from heckedist.kloosterman import _principal_ideals_up_to

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
    for coords, inv in unit_inverse_pairs(Ideal.principal(q.c)):
        a, d = field.element(*coords), field.element(*inv)
        x = (q.rp * a + q.r * d) / q.c
        tr = x.trace()
        phase = Fraction(tr.numerator % tr.denominator, tr.denominator) \
            if tr.denominator != 1 else Fraction(0)
        phase -= q.chi.phase(d)
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


def phase_table(chi):
    """chi's phases as Fractions keyed by unit coordinates: its numerators over its
    order, or 0 on every unit mod its modulus for the trivial character."""
    if chi.numerators is None:
        return {x: Fraction(0) for x, _ in unit_inverse_pairs(chi.modulus)}
    return {k: Fraction(n, chi.order) for k, n in chi.numerators.items()}


def orbit_sum(terms, ideal, chi, den):
    """_sum's last step, float operation for float operation: terms is [(k, n)]
    over one unit x of each pair {x, -x} mod the ideal, in lex order, with k/den
    the phase of (x, x^{-1}) and n chi's numerator at x^{-1} (0 for the trivial
    character); the pair sums to conj(chi(d)) (e(k/den) + chi(-1) e(-k/den))."""
    two_pi = 2 * math.pi
    weight = 1 if ideal.contains(ideal.field.element(2)) else 2
    if chi.numerators is None:
        return complex(weight * sum([math.cos(two_pi * (k / den)) for k, _ in terms]))
    odd = chi.numerators[chi.modulus.reduce_coords(-1)] != 0
    trig = math.sin if odd else math.cos
    total = sum([chi.conj_roots[n] * trig(two_pi * (k / den)) for k, n in terms])
    return weight * (1j * total if odd else total)


def fraction_preamble_evaluate(q):
    """evaluate() as it was before its preamble went to ints: Fraction traces of
    r'/c and r/c times the basis over one common denominator, and a character
    lookup for every term, summed over the orbits {x, -x} by orbit_sum."""
    field = q.c.field
    basis = (field.one(),) if field.degree == 1 else (field.one(), field.omega())
    coeffs = [(x * b).trace() for x in (q.rp / q.c, q.r / q.c) for b in basis]
    phases = phase_table(q.chi)
    den = math.lcm(*(x.denominator for x in coeffs))
    lin = [int(x * den) for x in coeffs]
    chi_num = {key: int(x * q.chi.order) for key, x in phases.items()}
    ideal = Ideal.principal(q.c)
    terms = [(sum(map(operator.mul, a + d, lin)) % den, chi_num[q.chi.modulus.reduce_coords(*d)])
             for a, d in inverse_coords_route(ideal) if a <= negative(ideal, a)]
    return orbit_sum(terms, ideal, q.chi, den)


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


def pinned_queries():
    """The queries evaluate must match fraction_preamble_evaluate on with ==."""
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
    # an order-3 character mod 7: chi(3^j) = e(j/3)
    cubic = DirichletCharacter.cyclic(Q, Ideal.principal(Q.element(7)), Q.element(3), 2)
    assert cubic.order == 3
    queries += [q_query(3, 5, c, cubic) for c in (7, 14, 91)]
    return queries


def test_evaluate_is_bit_identical_to_fraction_preamble():
    queries = pinned_queries()
    assert any(q.c.norm() < 0 and q.c.field.degree == 2 for q in queries)
    for q in queries:
        assert evaluate(q) == fraction_preamble_evaluate(q), q
    # the classical sums over Q with the character mod O
    chi = DirichletCharacter.trivial(Q, Ideal.unit_ideal(Q))
    for c in range(1, 301):
        assert rational_kloosterman(3, 5, c) == fraction_preamble_evaluate(q_query(3, 5, c, chi))


def coordinate_preamble(c, r, rp, order):
    """(den, lin) as _sum read them before its preamble became one int helper:
    Fraction coordinates read through per-coordinate generators, y = D r' conj(c)
    scaled by den/(D N(c)) and its two traces, with N(c) = c^2 over Q, and den
    the lcm of D |N(c)| and a character's order."""
    field, t = c.field, c.field.t
    cz = tuple(v.numerator for v in c.coords())
    cbar = cz if field.degree == 1 else (cz[0] + t * cz[1], -cz[1])
    norm = field.mul_coords(cz, cbar)[0]
    d_rr = math.lcm(*(v.denominator for x in (rp, r) for v in x.coords()))
    den = math.lcm(d_rr * abs(norm), order)
    scale = den // (d_rr * norm)
    lin = []
    for x in (rp, r):
        y = field.mul_coords(tuple(v.numerator * (d_rr // v.denominator) * scale
                                   for v in x.coords()), cbar)
        lin += y if field.degree == 1 else \
            (2 * y[0] + t * y[1], t * y[0] + (t * t + 2 * field.c) * y[1])
    return den, lin


def coordinate_preamble_sum(c, ideal, r, rp, chi):
    """_sum with the coordinate preamble, generator terms over the kept table
    and orbit_sum; the reference the int preamble is pinned to with ==."""
    den, lin = coordinate_preamble(c, r, rp, 1)
    degree = c.field.degree
    table = ideal._unit_table()
    it = iter(table)
    if degree == 1:
        l0, m0 = lin
        terms = ((a * l0 + d * m0) % den for a, d in zip(it, it))
    else:
        l0, l1, m0, m1 = lin
        terms = ((a0 * l0 + a1 * l1 + d0 * m0 + d1 * m1) % den
                 for a0, a1, d0, d1 in zip(it, it, it, it))
    nums, reduce = chi.numerators, chi.modulus.reduce_coords
    inverses = _table_coords(table, degree, degree)
    return orbit_sum([(k, 0 if nums is None else nums[reduce(*d)])
                      for k, d in zip(terms, inverses)], ideal, chi, den)


def full_table_sum(c, r, rp, chi):
    """_sum as it was before it summed over the orbits {x, -x}: den the lcm of
    D |N(c)| and chi's order, each term's k shifted by chi's phase of d, every
    unit pair of O/cO, the terms counted per k and count_k e(k/den) summed."""
    den, lin = coordinate_preamble(c, r, rp, chi.order)
    terms = []
    for a, d in unit_inverse_pairs(Ideal.principal(c)):
        k = sum(map(operator.mul, a + d, lin))
        if chi.numerators is not None:
            k -= den // chi.order * chi.numerators[chi.modulus.reduce_coords(*d)]
        terms.append(k % den)
    return sum(n * cmath.exp(2j * math.pi * (k / den)) for k, n in Counter(terms).items())


def reference_sum(q, c=None, swap=False):
    c = q.c if c is None else c
    r, rp = (q.rp, q.r) if swap else (q.r, q.rp)
    return coordinate_preamble_sum(c, Ideal.from_generators([c]), r, rp, q.chi)


def fractional_r_queries(rng):
    """Queries over Q(sqrt 2), Q(sqrt 5), Q(sqrt 13) and Q(sqrt 94) with r, r' in
    the inverse different (coordinate denominators up to 4, 5, 13 and 188),
    the trivial character and the cyclic ones mod 2 and, where 3 is inert, mod 3."""
    out = []
    for spec, moduli in ((2, (2, 3)), (5, (2, 3)), (13, (2,)), (94, (2,))):
        field = make_field(spec)
        basis = inverse_different(field).basis_elements()
        chis = [(field.one(), DirichletCharacter.trivial(field, Ideal.unit_ideal(field)))]
        for n in moduli:
            gen = field.element(n)
            chis += [(gen, chi) for chi in cyclic_characters(field, Ideal.principal(gen), 3)]
        for gen, chi in chis:
            for _ in range(4):
                c = gen * field.element(rng.randrange(-6, 7), rng.randrange(-3, 4))
                if c.is_zero():
                    continue
                r, rp = (basis[0] * rng.randrange(-5, 6) + basis[1] * rng.randrange(-5, 6)
                         for _ in range(2))
                out.append(KloostermanQuery(c, r, rp, chi))
    return out


def test_sum_matches_the_coordinate_preamble():
    queries = pinned_queries() + fractional_r_queries(random.Random(35))
    assert any(q.chi.numerators is not None and q.c.field.degree == 2 for q in queries)
    assert any(not q.r.is_integral() and not q.rp.is_integral() for q in queries)
    assert any(q.c.norm() < 0 and q.chi.numerators is not None for q in queries)
    for q in queries:
        assert evaluate(q) == reference_sum(q), q
        k = reference_sum(q)
        want = max(abs(k.conjugate() - reference_sum(q, -q.c, swap=True)),
                   abs(k.conjugate() - q.chi.minus_one() * reference_sum(q, swap=True)))
        assert symmetry_check(q) == want, q


def test_weil_scan_rows_match_the_coordinate_preamble():
    # == to the coordinate preamble's orbit sum, and within 1e-12 sqrt N(c) of the
    # full-table sum, with the odd character chi3 among the scans
    chi3 = cyclic_characters(F5, Ideal.principal(F5.element(3)), 4)[3]
    assert chi3.minus_one() == -1
    r5, rp5 = inverse_different(F5).basis_elements()
    scans = row_path_scans() + [(F5, rp5, r5 * 3, chi3, 90), (Q, Q.element(-4), Q.element(7),
                                 DirichletCharacter.cyclic(Q, Ideal.principal(Q.element(9)),
                                                           Q.element(2), 5), 200)]
    for field, r, rp, chi, max_norm in scans:
        res = weil_scan(field, r, rp, chi=chi, max_norm=max_norm)
        chi = chi or DirichletCharacter.trivial(field, Ideal.unit_ideal(field))
        assert res.rows
        for row in res.rows:
            want = abs(coordinate_preamble_sum(row.c, Ideal.principal(row.c), r, rp, chi))
            assert row.abs_k == want, row.c
            full = abs(full_table_sum(row.c, r, rp, chi))
            assert abs(row.abs_k - full) <= 1e-12 * math.sqrt(row.norm), row.c


def dividing_two_queries(rng):
    """Queries with c | 2, where every unit x mod c is its own negative: over Q,
    Q(sqrt 2) (2 ramified), Q(sqrt 3), Q(sqrt 5) (2 inert) and Q(sqrt 17) (2
    split), with the trivial character and the cyclic ones mod 2 over Q(sqrt 5)."""
    out = []
    cases = [(Q, (1, -1, 2, -2)), (make_field(2), ((0, 1), (2, 0), (1, 1))),
             (make_field(3), ((1, 1), (2, 0))), (F5, ((2, 0), (-2, 0))),
             (make_field(17), ((1, 1), (2, 0), (2, -1)))]
    for field, cs in cases:
        basis = inverse_different(field).basis_elements()
        chis = [DirichletCharacter.trivial(field, Ideal.unit_ideal(field))]
        if field == F5:
            chis += cyclic_characters(F5, Ideal.principal(F5.element(2)), 3)
        for c in cs:
            c = field.element(*c) if field.degree == 2 else field.element(c)
            assert Ideal.principal(c).contains(field.element(2)) or abs(c.norm()) == 1
            for chi in chis:
                for _ in range(3):
                    r, rp = (sum((e * rng.randrange(-4, 5) for e in basis), field.zero())
                             for _ in range(2))
                    out.append(KloostermanQuery(c, r, rp, chi))
    return out


def real_character_queries():
    """The Legendre symbols mod 5 (even) and mod 3 and 7 (odd) as checked tables."""
    out = []
    for p in (3, 5, 7):
        modulus = Ideal.principal(Q.element(p))
        chi = DirichletCharacter(Q, modulus, {(x,): Fraction((1 - jacobi(x, p)) // 2, 2)
                                              for x in range(1, p)})
        out += [q_query(m, n, p * k, chi) for m, n, k in ((1, 1, 1), (3, -5, 2), (2, 7, -3))]
    return out


def orbit_sum_queries():
    queries = pinned_queries() + fractional_r_queries(random.Random(35))
    return queries + dividing_two_queries(random.Random(41)) + real_character_queries()


def test_orbit_sum_matches_the_full_table_sum():
    queries = orbit_sum_queries()
    nontrivial = [q for q in queries if q.chi.numerators is not None]
    assert any(q.chi.minus_one() == -1 for q in nontrivial)
    assert any(q.chi.minus_one() == 1 and q.chi.order > 1 for q in nontrivial)
    assert any(Ideal.principal(q.c).contains(q.c.field.element(2)) and q.chi.order > 1
               for q in queries)
    for q in queries:
        bound = 1e-12 * math.sqrt(abs(q.c.norm()))
        k = full_table_sum(q.c, q.r, q.rp, q.chi)
        assert abs(evaluate(q) - k) <= bound, q
        # chi(-1) read off the Fraction phase, as minus_one did before
        chi_m1 = 1 if q.chi.phase(-q.c.field.one()) == 0 else -1
        assert chi_m1 == q.chi.minus_one()
        want = max(abs(k.conjugate() - full_table_sum(-q.c, q.rp, q.r, q.chi)),
                   abs(k.conjugate() - chi_m1 * full_table_sum(q.c, q.rp, q.r, q.chi)))
        assert abs(symmetry_check(q) - want) <= bound, q


def test_a_real_character_gives_a_real_or_imaginary_sum():
    # conj(chi(d)) is exactly +-1, so each orbit adds 2 cos or 2i sin and nothing else
    real = [q for q in orbit_sum_queries() if q.chi.order <= 2]
    assert {q.chi.minus_one() for q in real} == {1, -1}
    assert any(q.chi.numerators is None for q in real)
    for q in real:
        k = evaluate(q)
        assert type(k) is complex, q
        assert (k.imag if q.chi.minus_one() == 1 else k.real) == 0, q


def test_conjugate_roots_are_exact_at_the_quarter_turns():
    # chi(g^j) = e(j e/(p - 1)) for the generators 2 mod 13 and 3 mod 17
    orders = set()
    for p, g in ((13, 2), (17, 3)):
        for e in range(p - 1):
            chi = DirichletCharacter.cyclic(Q, Ideal.principal(Q.element(p)), Q.element(g), e)
            orders.add(chi.order)
            assert len(chi.conj_roots) == chi.order
            for n, root in enumerate(chi.conj_roots):
                assert type(root) is complex
                assert abs(root - cmath.exp(-2j * math.pi * n / chi.order)) < 1e-15
                if 4 * n % chi.order == 0:
                    assert root == (1, -1j, -1, 1j)[4 * n // chi.order], (chi.order, n)
    assert orders == {1, 2, 3, 4, 6, 8, 12, 16}


def test_a_rational_sweep_keeps_its_tables(monkeypatch):
    # S(3, 5; c) for c <= 399 needs sum phi(c) ~ 48k ints of half tables, under the
    # 2^16 the field keeps: a second sweep finds every table the first one built
    field = kloosterman_module._Q
    monkeypatch.setattr(field, "_unit_tables", fields_module._Store())
    first = [rational_kloosterman(3, 5, c) for c in range(1, 400)]
    tables = dict(field._unit_tables)
    assert len(tables) == 399
    # two ints for each of c = 1, 2, whose one unit is its own negative, and
    # phi(c)/2 units with their inverses for each c >= 3
    phi = [sum(math.gcd(a, n) == 1 for a in range(1, n)) for n in range(3, 400)]
    assert field._unit_tables.size == sum(len(t) for t in tables.values()) == 4 + sum(phi)
    assert field._unit_tables.size <= fields_module._STORE_ENTRIES
    assert [rational_kloosterman(3, 5, c) for c in range(1, 400)] == first
    assert all(field._unit_tables[hnf] is table for hnf, table in tables.items())


def test_a_sweep_past_the_budget_keeps_what_fits(monkeypatch):
    # S(3, 5; c) for c <= 599 needs about 109k ints of half tables: the tables
    # of c <= 463 fill 65,408 of the 2^16 ints, c = 464 (224 ints) is returned
    # unkept, and of the rest only c = 480 (phi = 128) fits the 128 left; a
    # second sweep finds every kept table, none of them rebuilt
    field = kloosterman_module._Q
    monkeypatch.setattr(field, "_unit_tables", fields_module._Store())
    returned = {}
    unit_table = Ideal._unit_table

    def recording(ideal):
        table = unit_table(ideal)
        returned[ideal.hnf[0][0]] = table
        return table

    monkeypatch.setattr(Ideal, "_unit_table", recording)
    first = [rational_kloosterman(3, 5, c) for c in range(1, 600)]
    tables = dict(field._unit_tables)
    assert sorted(hnf[0][0] for hnf in tables) == [*range(1, 464), 480]
    assert field._unit_tables.size == sum(len(t) for t in tables.values())
    assert field._unit_tables.size == fields_module._STORE_ENTRIES
    assert [rational_kloosterman(3, 5, c) for c in range(1, 600)] == first
    assert all(returned[c] is tables[((c,),)] for c in range(1, 464))
    assert field._unit_tables == tables


def table_route_queries():
    """fractional_r_queries, the Legendre symbols mod 3, 5 and 7, and unit moduli
    c = -1, w in Q(sqrt 5) and 1 + sqrt 2 with r, r' in O, over which den is 1."""
    queries = fractional_r_queries(random.Random(43)) + real_character_queries()
    F2 = make_field(2)
    for c in (Q.element(-1), F5.element(0, 1), F2.element(1, 1)):
        field = c.field
        chi = DirichletCharacter.trivial(field, Ideal.unit_ideal(field))
        queries += [KloostermanQuery(c, field.element(3), field.one(), chi),
                    KloostermanQuery(c, field.zero(), field.element(2), chi)]
    return queries


def test_sum_reads_the_direct_formula_off_its_tables():
    # _phase_form's (den, lin) is the coordinate preamble's over their gcd, and
    # _sum, one table lookup per pair, is == to trig(2 pi ((k mod den)/den)) over
    # the unreduced form, the float expression each term computed before
    cases = set()
    for q in table_route_queries():
        den, lin = kloosterman_module._phase_form(q.c, q.r, q.rp)
        den0, lin0 = coordinate_preamble(q.c, q.r, q.rp, 1)
        g = den0 // den
        assert math.gcd(den, *lin) == 1 and den0 == g * den, q
        assert list(lin0) == [g * x for x in lin], q
        ideal = Ideal.principal(q.c)
        got = kloosterman_module._sum(q.c, ideal, q.r, q.rp, q.chi)
        assert got == coordinate_preamble_sum(q.c, ideal, q.r, q.rp, q.chi), q
        kind = "trivial" if q.chi.numerators is None else \
            "odd" if q.chi.minus_one() == -1 else "even"
        cases |= {(kind, q.c.field.degree), ("r in O'", q.r.is_integral()),
                  ("N(c) < 0", q.c.norm() < 0), ("den", min(den, 2))}
    assert {(kind, degree) for kind in ("trivial", "even", "odd") for degree in (1, 2)} <= cases
    assert {("r in O'", False), ("N(c) < 0", True), ("den", 1), ("den", 2)} <= cases
    # every kept table holds the values it is read for, cos under den and sin under -den
    for key, table in kloosterman_module._trig_tables.items():
        trig, den = (math.sin, -key) if key < 0 else (math.cos, key)
        assert table == [trig(2 * math.pi * (j / den)) for j in range(den)], key


def test_a_sweep_past_the_budget_keeps_what_fits_of_its_trig_tables(monkeypatch):
    # S(3, 5; c) reduces to den = c: the cos tables of c <= 361 fill 65,341 of
    # the 2^16 floats, and every larger one is returned unkept, as none fits the
    # 195 left; a second sweep finds every kept table, none of them rebuilt
    monkeypatch.setattr(kloosterman_module, "_trig_tables", fields_module._Store())
    returned = {}
    trig_table = kloosterman_module._trig_table

    def recording(den, odd):
        table = trig_table(den, odd)
        returned[den, odd] = table
        return table

    monkeypatch.setattr(kloosterman_module, "_trig_table", recording)
    first = [rational_kloosterman(3, 5, c) for c in range(1, 600)]
    tables = dict(kloosterman_module._trig_tables)
    assert sorted(tables) == list(range(1, 362))
    assert kloosterman_module._trig_tables.size == sum(map(len, tables.values())) == 65341
    assert kloosterman_module._trig_tables.size <= fields_module._STORE_ENTRIES
    assert [rational_kloosterman(3, 5, c) for c in range(1, 600)] == first
    assert all(returned[c, False] is tables[c] for c in range(1, 362))
    assert kloosterman_module._trig_tables == tables


def test_evaluate_preamble_is_constant_size(monkeypatch):
    # the Fractions evaluate builds and reads grow neither with the number of
    # terms nor with the character's table
    work = [0]

    def counted(f):
        def wrapper(*args, **kwargs):
            work[0] += 1
            return f(*args, **kwargs)
        return wrapper

    def fraction_work(q):
        """Fractions built, numerators and denominators read in evaluate(q)."""
        work[0] = 0
        with monkeypatch.context() as m:
            m.setattr(Fraction, "__new__", staticmethod(counted(Fraction.__new__)))
            m.setattr(Fraction, "as_integer_ratio", counted(Fraction.as_integer_ratio))
            for name in ("numerator", "denominator"):
                m.setattr(Fraction, name, property(counted(getattr(Fraction, name).fget)))
            evaluate(q)
        return work[0]

    for chi in (None, DirichletCharacter.trivial(Q, Ideal.unit_ideal(Q))):
        assert fraction_work(q_query(3, 5, 97, chi)) == fraction_work(q_query(3, 5, 997, chi))
    chi97 = DirichletCharacter.cyclic(Q, Ideal.principal(Q.element(97)), Q.element(5))
    base = fraction_work(q_query(3, 5, 97, chi97))
    assert base > 0 and fraction_work(q_query(3, 5, 97 * 11, chi97)) == base
    # 996 phases mod the prime 997, and no table for the trivial character mod 60:
    # the same work
    chi997 = DirichletCharacter.cyclic(Q, Ideal.principal(Q.element(997)), Q.element(7))
    trivial60 = DirichletCharacter.trivial(Q, Ideal.principal(Q.element(60)))
    assert len(chi997.numerators) == 996 and trivial60.numerators is None
    assert fraction_work(q_query(3, 5, 997, chi997)) == base
    assert fraction_work(q_query(3, 5, 60, trivial60)) == base
    assert fraction_work(q_query(3, 5, 60 * 7, trivial60)) == base


def test_warm_evaluate_reads_no_phase_table_and_no_unit_ideal(monkeypatch):
    # once a character is built, a sum reads its int table, never a Fraction phase
    # through chi.phase, and (c) gets its HNF without building O
    F2 = make_field(2)
    chi6 = DirichletCharacter.trivial(Q, Ideal.principal(Q.element(6)))
    chi97 = DirichletCharacter.cyclic(Q, Ideal.principal(Q.element(97)), Q.element(5), 3)
    chi3 = cyclic_characters(F2, Ideal.principal(F2.element(3)), 2)[1]
    queries = [q_query(3, 5, 97), q_query(-2, 7, 60, chi6), q_query(1, 4, 97 * 3, chi97),
               KloostermanQuery(F2.element(3, 3), F2.one(), F2.one(), chi3)]
    rng = random.Random(28)
    queries += random_quadratic_queries(F5, rng, 4) + random_quadratic_queries(F94, rng, 4)
    warm = [evaluate(q) for q in queries]
    reads = Counter()
    unit_ideal = Ideal.unit_ideal.__func__
    phase = DirichletCharacter.phase

    def counting_phase(self, x):
        reads["phase"] += 1
        return phase(self, x)

    def counting_unit_ideal(cls, field):
        reads["unit_ideal"] += 1
        return unit_ideal(cls, field)

    monkeypatch.setattr(DirichletCharacter, "phase", counting_phase)
    monkeypatch.setattr(Ideal, "unit_ideal", classmethod(counting_unit_ideal))
    assert [evaluate(q) for q in queries] == warm
    assert reads == Counter()


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
        pairs = unit_inverse_pairs(ideal)
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
    assert len(unit_inverse_pairs(extra[1])) == 48


def test_unit_inverse_pairs_match_inverse_coords_route(enumerated_ideals):
    for ideal in enumerated_ideals:
        assert unit_inverse_pairs(ideal) == inverse_coords_route(ideal), ideal
        # the second call reads the table the first one kept on the field
        assert unit_inverse_pairs(ideal) == inverse_coords_route(ideal), ideal


def on_a_fresh_field(q):
    """q with its field, elements and character rebuilt on a new NumberField,
    which has no unit tables yet."""
    field = make_field(q.c.field.m)
    assert not field._unit_tables

    def move(x):
        return field.element(x.a, x.b)

    chi = DirichletCharacter(field, Ideal(field, q.chi.modulus.hnf), phase_table(q.chi))
    return KloostermanQuery(move(q.c), move(q.r), move(q.rp), chi)


def test_evaluate_on_a_fresh_field_matches_a_warm_one():
    queries = pinned_queries()
    # characters mod levels I != O: mod 7 and 9 over Q, 2 and 3 over Q(sqrt 5), 3 over Q(sqrt 2)
    assert {q.chi.modulus.norm() for q in queries} >= {4, 7, 9}
    warm = [evaluate(q) for q in queries]
    assert [evaluate(q) for q in queries] == warm
    assert [evaluate(on_a_fresh_field(q)) for q in queries] == warm


def test_character_modulus_must_be_integral():
    # the inverse different of Q(sqrt 5) is (1/sqrt 5) O, a fractional ideal
    dinv = inverse_different(F5)
    with pytest.raises(FieldError):
        DirichletCharacter(F5, dinv, {})
    with pytest.raises(FieldError):
        unit_inverse_pairs(dinv)


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


def test_character_rejects_an_element_of_another_field():
    # Ideal.reduce read F5's coordinates mod 5 and gave chi(2 + w) = chi(2) = i
    mod5 = Ideal.principal(Q.element(5))
    chi = DirichletCharacter.cyclic(Q, mod5, Q.element(2))
    with pytest.raises(FieldError, match="field mismatch"):
        mod5.reduce(F5.element(2, 1))
    for c in (chi, DirichletCharacter.trivial(Q, mod5)):
        with pytest.raises(FieldError, match="field mismatch"):
            c.phase(F5.element(2, 1))


def test_character_modulus_must_lie_in_its_field():
    mod7 = Ideal.principal(F5.element(7))
    with pytest.raises(FieldError, match="field mismatch"):
        DirichletCharacter.trivial(Q, mod7)
    with pytest.raises(FieldError, match="field mismatch"):
        DirichletCharacter(Q, mod7, {(1, 0): Fraction(0)})


def test_character_phases_are_reduced_to_the_unit_interval():
    mod5 = Ideal.principal(Q.element(5))
    kept = {(1,): Fraction(0), (4,): Fraction(1, 2), (2,): Fraction(1, 4),
            (3,): Fraction(3, 4)}
    out = {(3,): Fraction(-1, 4), (2,): Fraction(5, 4), (4,): Fraction(3, 2),
           (1,): Fraction(-2)}
    # each phase is kept as its numerator over the order, the lcm of the denominators
    for phases, want in ((kept, {(1,): 0, (4,): 2, (2,): 1, (3,): 3}),
                         (out, {(3,): 3, (2,): 1, (4,): 2, (1,): 0})):
        chi = DirichletCharacter(Q, mod5, phases)
        assert chi.order == 4 and chi.numerators == want
        assert list(chi.numerators) == list(phases)
        assert all(type(n) is int and 0 <= n < chi.order for n in chi.numerators.values())
    chi = DirichletCharacter(Q, Ideal.unit_ideal(Q), {(0,): Fraction(-3)})
    assert chi.order == 1 and chi.numerators == {(0,): 0}
    # chi(2^j) = e(j/12) mod 13, each phase shifted by an int: denominators 1 to 12
    mixed = {(pow(2, j, 13),): Fraction(j, 12) - j % 3 for j in range(12)}
    assert {q.denominator for q in mixed.values()} == {1, 2, 3, 4, 6, 12}
    chi = DirichletCharacter(Q, Ideal.principal(Q.element(13)), mixed)
    assert chi.order == 12 and chi.numerators == {(pow(2, j, 13),): j for j in range(12)}


@pytest.mark.parametrize("field,gen", [(Q, Q.element(36)), (Q, Q.element(-7)),
                                       (F5, F5.element(7)), (F5, F5.element(3, 2)),
                                       (F94, F94.element(6)), (F94, F94.element(5, 1))])
def test_trivial_character_matches_the_pair_construction(field, gen):
    modulus = Ideal.principal(gen)
    chi = DirichletCharacter.trivial(field, modulus)
    assert chi.order == 1 and chi.numerators is None
    # the table trivial built before it kept none: 0 on every unit, no non-unit
    units = {x for x, _ in unit_inverse_pairs(modulus)}
    for x in modulus.residue_coords():
        if x in units:
            assert chi.phase(field.element(*x)) == 0, x
        else:
            with pytest.raises(KloostermanError, match="not a unit"):
                chi.phase(field.element(*x))
    assert len(units) < modulus.norm()


def test_character_validation():
    mod5 = Ideal.principal(Q.element(5))
    chi = DirichletCharacter.cyclic(Q, mod5, Q.element(2))
    # 2 has order 4 mod 5: chi(2) = i
    assert chi.phase(Q.element(2)) == Fraction(1, 4)
    assert chi.phase(Q.element(4)) == Fraction(1, 2)
    assert chi.minus_one() == pytest.approx(-1.0)
    with pytest.raises(KloostermanError):
        # inconsistent phase table: chi(1) != 1
        DirichletCharacter(Q, mod5, {(1,): Fraction(1, 2),
                                     (2,): Fraction(0), (3,): Fraction(0),
                                     (4,): Fraction(0)})


def test_checked_character_keys_are_the_units():
    # multiplicative tables on a subgroup, or on a set with a non-unit, do not
    # build: their keys are not the units mod the modulus
    mod5, mod6 = Ideal.principal(Q.element(5)), Ideal.principal(Q.element(6))
    for modulus, phases in ((mod5, {(1,): Fraction(0), (4,): Fraction(1, 2)}),
                            (mod5, {(1,): Fraction(0), (4,): Fraction(0)}),
                            (mod6, {(1,): Fraction(0), (3,): Fraction(0)}),
                            (mod6, {(1,): Fraction(0), (5,): Fraction(0), (3,): Fraction(0)})):
        with pytest.raises(KloostermanError, match="units mod its modulus"):
            DirichletCharacter(Q, modulus, phases)
    # complete tables build, over Q and Q(sqrt 5), keys as ints or Fractions
    DirichletCharacter(Q, mod6, {(1,): Fraction(0), (5,): Fraction(1, 2)})
    DirichletCharacter(Q, mod5, {(Fraction(k),): Fraction(0) for k in range(1, 5)})
    mod7 = Ideal.principal(F5.element(7))
    zeros = {x: Fraction(0) for x, _ in unit_inverse_pairs(mod7)}
    chi = DirichletCharacter(F5, mod7, zeros)
    assert chi.order == 1 and chi.numerators == dict.fromkeys(zeros, 0)
    # read as ints, 5/2 would be the unit 2: it is no unit coordinate, so no key
    half = {(1,): Fraction(0), (Fraction(5, 2),): Fraction(1, 4), (4,): Fraction(1, 2),
            (3,): Fraction(3, 4)}
    with pytest.raises(KloostermanError, match="units mod its modulus"):
        DirichletCharacter(Q, mod5, half)


def test_character_phases_must_be_ints_or_fractions():
    # a float phase raised AttributeError (no .denominator) from the constructor
    mod5 = Ideal.principal(Q.element(5))
    for bad in (0.25, "1/4", None):
        phases = {(1,): Fraction(0), (2,): bad, (4,): Fraction(1, 2), (3,): Fraction(3, 4)}
        with pytest.raises(KloostermanError, match="ints or Fractions"):
            DirichletCharacter(Q, mod5, phases)
    # the Legendre symbol mod 5, with int phases on the squares
    chi = DirichletCharacter(Q, mod5, {(1,): 0, (2,): Fraction(1, 2), (4,): 1,
                                       (3,): Fraction(-1, 2)})
    assert chi.order == 2 and chi.numerators == {(1,): 0, (2,): 1, (4,): 0, (3,): 1}


def test_character_keys_are_int_tuples(tmp_path):
    # a sum looks each d up by int coordinates; Fraction keys hash slowly
    mod5 = Ideal.principal(Q.element(5))
    path = tmp_path / "chi.json"
    path.write_text(json.dumps([["1", 1, 0], ["2", 4, 1], ["4", 2, 1], ["3", 4, 3]]))
    mod3 = Ideal.principal(F5.element(3))
    chars = [DirichletCharacter(Q, mod5, {(Fraction(k),): Fraction(0) for k in range(1, 5)}),
             DirichletCharacter.cyclic(Q, mod5, Q.element(2)),
             DirichletCharacter.cyclic(F5, mod3, F5.element(0, 1)),
             cli.load_character(mod5, str(path))]
    for chi in chars:
        assert all(type(k) is tuple and all(type(v) is int for v in k)
                   for k in chi.numerators), chi.numerators
    assert chars[3].numerators == chars[1].numerators


def fraction_walk_cyclic(field, modulus, generator, exponent=1):
    """DirichletCharacter.cyclic's phase table as it was built before its walk went
    to ints: FieldElement products reduced mod the modulus, keyed by Fraction coords."""
    n_units = len(unit_inverse_pairs(modulus))
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
    return {k: Fraction(j * exponent, order) for k, j in phases.items()}


def test_cyclic_matches_the_fraction_walk():
    F2 = make_field(2)
    cases = [(Q, 10007, Q.element(5), 1), (Q, 97, Q.element(5), 3), (Q, 9, Q.element(2), 1),
             (Q, 1, Q.element(1), 1), (F5, F5.element(2), F5.element(0, 1), 1),
             (F2, F2.element(3), F2.element(1, 1), 1)]
    for field, gen, g, exponent in cases:
        modulus = Ideal.principal(field.element(gen) if type(gen) is int else gen)
        chi = DirichletCharacter.cyclic(field, modulus, g, exponent)
        want = DirichletCharacter(field, modulus, fraction_walk_cyclic(field, modulus, g,
                                                                       exponent))
        assert (chi.order, chi.numerators) == (want.order, want.numerators)
        assert list(chi.numerators) == list(want.numerators)
    # 4 has order 2 mod 5; 2 is no unit mod 6 and its powers 2, 4, 2 never reach 1
    for n, g, match in ((5, 4, r"\(2 of 4 units reached\)"), (6, 2, "finite unit order")):
        modulus = Ideal.principal(Q.element(n))
        with pytest.raises(KloostermanError, match=match) as want:
            fraction_walk_cyclic(Q, modulus, Q.element(g))
        with pytest.raises(KloostermanError, match=match) as got:
            DirichletCharacter.cyclic(Q, modulus, Q.element(g))
        assert str(got.value) == str(want.value)


def test_character_check_reads_every_entry():
    # one wrong phase among 10,006 units: chi(5) = e(2/10006) for a generator 5
    mod = Ideal.principal(Q.element(10007))
    chi = DirichletCharacter.cyclic(Q, mod, Q.element(5))
    assert chi.order == 10006 and chi.numerators[(5,)] == 1
    phases = {k: Fraction(n, chi.order) for k, n in chi.numerators.items()}
    phases[(5,)] = Fraction(2, 10006)
    with pytest.raises(KloostermanError, match="not multiplicative"):
        DirichletCharacter(Q, mod, phases)
    # (Z/21)* = (Z/3)* x (Z/7)* is not cyclic: each single wrong entry is caught
    mod21 = Ideal.principal(Q.element(21))
    log7 = {pow(3, j, 7): j for j in range(6)}
    phases = {(x,): Fraction(x % 3 == 2, 2) + Fraction(log7[x % 7], 6)
              for x in range(1, 21) if math.gcd(x, 21) == 1}
    DirichletCharacter(Q, mod21, phases)
    for x in phases:
        if x != (1,):
            wrong = dict(phases)
            wrong[x] += Fraction(1, 6)
            with pytest.raises(KloostermanError, match="not multiplicative"):
                DirichletCharacter(Q, mod21, wrong)


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


def jacobi(a, n):
    """The Jacobi symbol (a/n) for odd n > 0, by quadratic reciprocity."""
    a, result = a % n, 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def test_jacobi_symbol_matches_euler_criterion():
    for p in (3, 5, 7, 11, 13, 97, 113):
        for a in range(-2 * p, 2 * p):
            assert jacobi(a, p) % p == pow(a, (p - 1) // 2, p), (a, p)
    assert [jacobi(a, 15) for a in range(15)] == [0, 1, 1, 0, 1, 0, 0, -1, 1, 0, 0, -1, 0, -1,
                                                  -1]


def salie_closed_form(r, rp, c):
    """T(r, r'; c) = eps_c sqrt(c) (r'/c) sum_{y^2 = r r' mod c} e(2y/c) for odd c
    and (r', c) = 1, eps_c = 1 or i as c = 1 or 3 mod 4 (Iwaniec-Kowalski, Lemma 12.4)."""
    eps = 1 if c % 4 == 1 else 1j
    roots = sum(cmath.exp(4j * math.pi * y / c) for y in range(c) if (y * y - r * rp) % c == 0)
    return eps * math.sqrt(c) * jacobi(rp, c) * roots


def test_salie_sums_match_their_closed_form():
    # the Jacobi symbol mod c as a checked table of phases 0 and 1/2; for a real
    # character evaluate's K_chi(r, r'; c) is the Salie sum T(r, r'; c)
    checked = worst = 0
    for c in range(3, 120, 2):
        modulus = Ideal.principal(Q.element(c))
        phases = {(x,): Fraction((1 - jacobi(x, c)) // 2, 2)
                  for x in range(c) if math.gcd(x, c) == 1}
        chi = DirichletCharacter(Q, modulus, phases)
        for r in (*range(-6, 0), *range(1, 7)):
            for rp in range(1, 7):
                if math.gcd(rp, c) != 1:
                    continue
                got = evaluate(KloostermanQuery(Q.element(c), Q.element(r), Q.element(rp), chi))
                err = abs(got - salie_closed_form(r, rp, c)) / math.sqrt(c)
                assert err < 1e-12, (r, rp, c)
                checked, worst = checked + 1, max(worst, err)
    assert checked == 3624


def test_selberg_identity():
    # S(m, n; c) = sum over d | (m, n, c) of d S(mn/d^2, 1; c/d) (Selberg,
    # Kuznetsov), at every c <= 120 and m, n <= 12 that share a factor with c
    checked = 0
    for c in range(1, 121):
        for m in range(1, 13):
            for n in range(1, 13):
                g = math.gcd(m, n, c)
                if g == 1:
                    continue
                want = sum(d * rational_kloosterman(m * n // (d * d), 1, c // d)
                           for d in range(1, g + 1) if g % d == 0)
                assert abs(rational_kloosterman(m, n, c) - want) < 1e-12 * math.sqrt(c), \
                    (m, n, c)
                checked += 1
    assert checked == 2831


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
    res = weil_scan(F5, F5.one(), F5.one(), chi=DirichletCharacter.trivial(F5, level5),
                    max_norm=100, eps=0.1)
    assert res.rows and res.s_labels == ("5:0",)
    for row in res.rows:
        assert 1 <= row.norm <= 100 and level5.contains(row.c), row.c


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
def test_weil_scan_rejects_non_finite_eps(eps):
    # nan made every ratio past norm 1 NaN, inf made it 0.0
    with pytest.raises(KloostermanError, match="eps must be finite"):
        weil_scan(Q, Q.element(1), Q.element(1), max_norm=10, eps=eps)


@pytest.mark.parametrize("max_norm", [-5, 0, 10.5, True, "10"])
def test_weil_scan_rejects_max_norm_outside_its_domain(max_norm):
    # -5 gave no rows over Q but an isqrt ValueError over Q(sqrt 5), 10.5 a
    # TypeError, and True scanned as 1
    for field in (Q, F5):
        with pytest.raises(KloostermanError, match="max_norm must be an int >= 1"):
            weil_scan(field, field.one(), field.one(), max_norm=max_norm)


def test_weil_scan_work_budget(monkeypatch):
    with pytest.raises(KloostermanError):
        weil_scan(Q, Q.element(1), Q.element(1), max_norm=10 ** 9)
    # the budget is checked as the moduli are built, so a quadratic scan far
    # past it stops after a few hundred generator searches, not all of them
    search, calls = kloosterman_module._small_generator, Counter()

    def counting(ideal):
        calls["search"] += 1
        assert calls["search"] <= 2000, "an over-budget scan kept enumerating"
        return search(ideal)

    monkeypatch.setattr(kloosterman_module, "_small_generator", counting)
    with pytest.raises(KloostermanError, match="work budget"):
        weil_scan(F5, F5.one(), F5.one(), max_norm=50_000)


def root_search_ideals(field, level, max_norm):
    # the scan's enumeration before it built its moduli as level * J: every
    # integral ideal g (n_t, b_t + w) of norm <= max_norm from the roots of
    # b_t^2 + t b_t - c mod n_t, kept when it lies in the level (verbatim)
    if field.degree == 1:
        q = int(level.norm())
        return [(n, field.element(n), Ideal(field, ((n,),))) for n in range(q, max_norm + 1, q)], 0
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
                norm = g * g * nt
                gen = _small_generator(ideal)
                if gen is None:
                    skipped += 1
                else:
                    gens.append((norm, gen, ideal))
    gens.sort(key=lambda pair: (pair[0], pair[1].coords()))
    return gens, skipped


def walk_all_products_ideals(field, level, max_norm):
    # _principal_ideals_up_to before it kept its products sorted by norm: each
    # prime P walks every product built so far (verbatim)
    def ideals():
        lnorm = int(level.norm())
        if field.degree == 1:
            yield from ((n, Ideal(field, ((n,),))) for n in range(lnorm, max_norm + 1, lnorm))
            return
        built = [(lnorm, level)] if lnorm <= max_norm else []
        yield from built
        for p in range(2, max_norm // lnorm + 1):
            for prime in factor_rational_prime(field, p) if _factor(p) == {p: 1} else ():
                q = prime.absolute_norm()
                for norm, ideal in list(built):
                    while norm * q <= max_norm:
                        norm, ideal = norm * q, ideal * prime
                        built.append((norm, ideal))
                        yield norm, ideal

    gens, skipped, work = [], 0, 0
    for norm, ideal in ideals():
        c = field.element(norm) if field.degree == 1 else _small_generator(ideal)
        if c is None:
            skipped += 1
            continue
        work += norm
        if work > kloosterman_module._WORK_BUDGET:
            raise KloostermanError("scan range exceeds the work budget; lower max_norm")
        gens.append((norm, c, ideal))
    return sorted(gens, key=lambda gen: (gen[0], gen[1].coords())), skipped


def scan_levels(field):
    """O, (2), (6), (7), (1 + w) and the primes above 2, 3 and 5 with no generator."""
    gens = [field.element(n) for n in (1, 2, 6, 7)]
    gens += [field.element(1, 1)] if field.degree == 2 else []
    return [Ideal.principal(g) for g in gens] + \
        [prime for p in (2, 3, 5) for prime in factor_rational_prime(field, p)
         if prime.generator is None]


@pytest.mark.parametrize("spec", ["Q", 2, 3, 5, 6, 10, 13, 15, 43, 79, 94, 226])
def test_scan_moduli_match_the_root_search(spec, monkeypatch):
    field = make_field(spec)
    budgets, outcomes = (kloosterman_module._WORK_BUDGET, 3000, 200), Counter()

    def keyed(gens):
        return [(norm, c.coords(), ideal.hnf, ideal.den) for norm, c, ideal in gens]

    for level in scan_levels(field):
        for max_norm in (1, 10, 60, 200):
            want, want_skipped = root_search_ideals(field, level, max_norm)
            work = sum(norm for norm, _, _ in want)
            for budget in budgets:
                monkeypatch.setattr(kloosterman_module, "_WORK_BUDGET", budget)
                outcomes[work > budget] += 1
                if work > budget:
                    with pytest.raises(KloostermanError, match="work budget"):
                        _principal_ideals_up_to(level, max_norm)
                    continue
                got, skipped = _principal_ideals_up_to(level, max_norm)
                assert (keyed(got), skipped) == (keyed(want), want_skipped), \
                    (level, max_norm, budget)
    assert outcomes[True] and outcomes[False]  # both sides of the budget were reached


@pytest.mark.parametrize("spec", [2, 5, 13, 94])
def test_scan_moduli_match_the_walk_over_all_products(spec, monkeypatch):
    field = make_field(spec)
    budgets, outcomes = (kloosterman_module._WORK_BUDGET, 20_000, 3000), Counter()

    def keyed(gens):
        return [(norm, c.coords(), ideal.hnf, ideal.den) for norm, c, ideal in gens]

    for level in scan_levels(field):
        for max_norm in (1, 37, 400) + ((2000,) if level.norm() == 1 else ()):
            for budget in budgets:
                monkeypatch.setattr(kloosterman_module, "_WORK_BUDGET", budget)
                try:
                    want = walk_all_products_ideals(field, level, max_norm)
                except KloostermanError:
                    outcomes[True] += 1
                    with pytest.raises(KloostermanError, match="work budget"):
                        _principal_ideals_up_to(level, max_norm)
                    continue
                outcomes[False] += 1
                got, skipped = _principal_ideals_up_to(level, max_norm)
                assert (keyed(got), skipped) == (keyed(want[0]), want[1]), \
                    (level, max_norm, budget)
    assert outcomes[True] and outcomes[False]  # both sides of the budget were reached


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


def test_weil_scan_checks_inputs_with_no_modulus_in_range():
    # N(50) > max_norm, so no modulus is enumerated; r, r' and chi are checked anyway
    chi50 = DirichletCharacter.trivial(Q, Ideal.principal(Q.element(50)))
    half, one = Q.element(Fraction(1, 2)), Q.one()
    for r, rp in ((half, one), (one, half)):
        with pytest.raises(KloostermanError, match="inverse different"):
            weil_scan(Q, r, rp, chi=chi50, max_norm=10)
    for r, rp in ((F5.one(), one), (one, F5.one())):
        with pytest.raises(FieldError, match="field mismatch"):
            weil_scan(Q, r, rp, chi=chi50, max_norm=10)
    chi50_f5 = DirichletCharacter.trivial(F5, Ideal.principal(F5.element(50)))
    with pytest.raises(FieldError, match="field mismatch"):
        weil_scan(Q, one, one, chi=chi50_f5, max_norm=10)
    assert weil_scan(Q, one, one, chi=chi50, max_norm=10).rows == ()


def test_weil_scan_rejects_a_character_over_another_field():
    # with moduli in range, and without (N(50) > max_norm)
    for field, chi in ((Q, DirichletCharacter.trivial(F5, Ideal.unit_ideal(F5))),
                       (F5, DirichletCharacter.trivial(Q, Ideal.principal(Q.element(50))))):
        with pytest.raises(FieldError, match="field mismatch"):
            weil_scan(field, field.one(), field.one(), chi=chi, max_norm=10)


def row_path_scans():
    level5 = Ideal.principal(F5.element(-1, 2))  # sqrt 5
    # 2 is inert in Q(sqrt 5): (O/2)* is cyclic of order 3, generated by w
    chi2 = DirichletCharacter.cyclic(F5, Ideal.principal(F5.element(2)), F5.omega())
    r5, rp5 = inverse_different(F5).basis_elements()
    r94 = inverse_different(F94).basis_elements()[-1]
    return [(Q, Q.element(1), Q.element(2),
             DirichletCharacter.trivial(Q, Ideal.principal(Q.element(6))), 150),
            (F5, r5, rp5, DirichletCharacter.trivial(F5, level5), 100),
            (F5, r5, r5, chi2, 60),
            (F94, r94, F94.one(), None, 60)]


def test_weil_scan_rows_match_single_queries():
    for field, r, rp, chi, max_norm in row_path_scans():
        res = weil_scan(field, r, rp, chi=chi, max_norm=max_norm)
        chi = chi or DirichletCharacter.trivial(field, Ideal.unit_ideal(field))
        assert res.rows
        for row in res.rows:
            assert row.abs_k == abs(evaluate(KloostermanQuery(row.c, r, rp, chi))), row.c


def test_weil_scan_builds_no_query_and_no_ideal_per_row(monkeypatch):
    built = Counter()
    post_init = KloostermanQuery.__post_init__
    from_generators = Ideal.from_generators.__func__
    principal = Ideal.principal.__func__

    def counting_post_init(self):
        built["query"] += 1
        post_init(self)

    def counting_from_generators(cls, gens):
        built["ideal"] += 1
        return from_generators(cls, gens)

    def counting_principal(cls, elt):
        built["ideal"] += 1
        return principal(cls, elt)

    scans = row_path_scans()
    monkeypatch.setattr(KloostermanQuery, "__post_init__", counting_post_init)
    monkeypatch.setattr(Ideal, "from_generators", classmethod(counting_from_generators))
    monkeypatch.setattr(Ideal, "principal", classmethod(counting_principal))
    rows = sum(len(weil_scan(field, r, rp, chi=chi, max_norm=max_norm).rows)
               for field, r, rp, chi, max_norm in scans)
    # the one ideal is the unit ideal O = (1), the modulus of the trivial
    # character a scan without chi builds before its first row
    assert rows > 0 and built == Counter(ideal=sum(chi is None for *_, chi, _ in scans))


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


def test_delta_rejects_a_character_over_another_field():
    # r/r' = 1 is a unit square, and the sum gave 1 with chi over Q(sqrt 5)
    chi5 = DirichletCharacter.trivial(F5, Ideal.unit_ideal(F5))
    with pytest.raises(FieldError, match="field mismatch"):
        delta_term(Q.one(), Q.one(), (0,), chi5)
    chiQ = DirichletCharacter.trivial(Q, Ideal.unit_ideal(Q))
    with pytest.raises(FieldError, match="field mismatch"):
        delta_term(F5.element(2, 1), F5.element(2, 1), (0, 0), chiQ)


@pytest.mark.parametrize("r, rp, xi, match", [
    (Q.zero(), Q.one(), (0,), "r and r' must be nonzero"),
    (Q.one(), Q.zero(), (0,), "r and r' must be nonzero"),
    (Q.one(), Q.one(), (0, 0), "xi must be a 0/1 vector of length 1"),
    (F5.one(), F5.one(), (0,), "xi must be a 0/1 vector of length 2"),
    (F5.one(), F5.one(), (0, 2), "xi must be a 0/1 vector of length 2"),
], ids=["r-0", "rp-0", "xi-long", "xi-short", "xi-not-0-1"])
def test_delta_input_checks_raise(r, rp, xi, match):
    chi = DirichletCharacter.trivial(r.field, Ideal.unit_ideal(r.field))
    with pytest.raises(KloostermanError, match=match):
        delta_term(r, rp, xi, chi)


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


def exact_signs(x):
    """The signs of both embeddings of a nonzero x over a real quadratic field,
    larger w-image first: x1 x2 = N(x), x1 + x2 = Tr(x), and x1 > x2 iff b > 0."""
    if x.norm() > 0:
        return (1, 1) if x.trace() > 0 else (-1, -1)
    return (1, -1) if x.b > 0 else (-1, 1)


def test_delta_term_signs_are_exact_on_high_powers():
    # r/r' = phi^(2k): the float conjugate of phi^k lost its sign from k = 40,
    # which made 294 of these 1,200 values wrong
    chi5 = DirichletCharacter.trivial(F5, Ideal.unit_ideal(F5))
    phi, one = F5.unit_group().fundamental, F5.one()
    for k in range(1, 301):
        eps = phi ** k
        for xi in ((0, 0), (0, 1), (1, 0), (1, 1)):
            want = sum(math.prod(s ** x for s, x in zip(exact_signs(e), xi))
                       for e in (eps, -eps)) / 2
            assert delta_term(eps * eps, one, xi, chi5) == want, (k, xi)


@pytest.mark.parametrize("m", [94, 2998])
def test_signs_match_the_exact_rule_and_finite_embeddings(m):
    # +-eps^k, k <= 60: float embeddings overflow from eps^11 over Q(sqrt 2998)
    field = make_field(m)
    eps = field.unit_group().fundamental
    finite = 0
    for k in range(61):
        for x in (eps ** k, -(eps ** k)):
            assert x.signs() == exact_signs(x), (m, k, x.signs())
            try:
                emb = x.embed()
            except OverflowError:
                continue
            if all(math.isfinite(v) and v != 0 for v in emb):
                assert x.signs() == tuple((v > 0) - (v < 0) for v in emb), (m, k)
                finite += 1
    assert 0 < finite < 122
    assert Q.element(-3).signs() == (-1,) and Q.element(Fraction(1, 7)).signs() == (1,)
    assert Q.zero().signs() == (0,) and field.zero().signs() == (0, 0)


@pytest.mark.parametrize("m", [94, 2998])
def test_delta_term_signs_are_exact_past_the_float_range(m):
    # delta_term(eps^22, 1, (1, 1), chi) over Q(sqrt 2998) raised OverflowError
    # when it read the signs of eps^11 off its float embeddings
    field = make_field(m)
    chi = DirichletCharacter.trivial(field, Ideal.unit_ideal(field))
    eps, one = field.unit_group().fundamental, field.one()
    for k in range(61):
        root = eps ** k
        for xi in ((0, 0), (0, 1), (1, 0), (1, 1)):
            want = sum(math.prod(s ** x for s, x in zip(exact_signs(e), xi))
                       for e in (root, -root)) / 2
            assert delta_term(root * root, one, xi, chi) == want, (m, k, xi)
    # N(eps) = 1 and Tr(eps) > 0 over Q(sqrt 2998): eps^11 has signs (1, 1) and
    # -eps^11 has (-1, -1), so both roots weigh 1 at xi = (1, 1)
    if m == 2998:
        assert eps.norm() == 1 and eps.trace() > 0
        assert delta_term(eps ** 22, one, (1, 1), chi) == 1


# local-factor oracles for evaluate over Q(sqrt 5), trivial character; r and r'
# run over (1/sqrt 5) {1, w, 2 + w, 1 - 3w} in the inverse different (1/sqrt 5)
SQRT5 = F5.element(-1, 2)  # 2w - 1
R5 = [F5.element(a, b) / SQRT5 for a, b in ((1, 0), (0, 1), (2, 1), (1, -3))]
CHI5 = DirichletCharacter.trivial(F5, Ideal.unit_ideal(F5))


def k5(r, rp, c):
    return evaluate(KloostermanQuery(c, r, rp, CHI5))


def test_evaluate_is_twisted_multiplicative():
    # K(r, r'; c1 c2) = K(u1 r, u1 r'; c1) K(u2 r, u2 r'; c2) for u1 c2 + u2 c1 = 1:
    # a = a1 u1 c2 + a2 u2 c1 splits the sum by the Chinese remainder theorem
    gens = {}
    for a in range(-6, 7):
        for b in range(-6, 7):
            c = F5.element(a, b)
            if 1 < abs(c.norm()) <= 30:
                gens.setdefault(Ideal.principal(c).hnf, c)
    sums = 0
    for (h1, c1), (h2, c2) in itertools.combinations(sorted(gens.items()), 2):
        if math.gcd(int(c1.norm()), int(c2.norm())) != 1:
            continue
        ideal1 = Ideal.principal(c1)
        u1 = F5.element(*dict(unit_inverse_pairs(ideal1))[ideal1.reduce_coords(
            *map(int, c2.coords()))])
        u2 = (1 - u1 * c2) / c1
        assert u2.is_integral()
        bound = 1e-12 * math.sqrt(abs((c1 * c2).norm()))
        for r in R5:
            for rp in R5:
                want = k5(u1 * r, u1 * rp, c1) * k5(u2 * r, u2 * rp, c2)
                assert abs(k5(r, rp, c1 * c2) - want) <= bound, (c1, c2, r, rp)
                sums += 1
    assert sums == 912  # 57 coprime pairs of ideals, 16 (r, r') each


def test_evaluate_at_degree_one_primes_is_a_rational_sum():
    # O/pi = Z/p for N(pi) = p, so a runs over ints and S(r' a/pi) = a Tr(r'/pi)
    sums = 0
    for p in (p for p in range(2, 80) if _factor(p) == {p: 1}):
        for prime in factor_rational_prime(F5, p):
            if prime.f != 1:
                continue
            pi = prime.generator
            for r in R5:
                for rp in R5:
                    m, n = p * (rp / pi).trace(), p * (r / pi).trace()
                    assert m.denominator == n.denominator == 1
                    want = rational_kloosterman(int(m), int(n), p)
                    assert abs(k5(r, rp, pi) - want) <= 1e-12 * math.sqrt(p), (pi, r, rp)
                    sums += 1
    assert sums == 304


def test_evaluate_at_inert_primes_obeys_hasse_davenport():
    # O/p = F_{p^2} and S(x/(sqrt5 p)) = Tr(x/sqrt5)/p, so K(m/sqrt5, n/sqrt5; p)
    # is the F_{p^2} Kloosterman sum at mn/5, and Hasse-Davenport lifts the
    # F_p one: 2p - S(mn 5^{-1}, 1; p)^2 when p does not divide mn
    sums = 0
    for p in (2, 3, 7, 13, 17, 23, 37, 43, 47, 53):
        assert factor_rational_prime(F5, p)[0].f == 2
        for m in range(1, 5):
            for n in range(1, 5):
                if m * n % p == 0:
                    continue
                got = k5(F5.element(m) / SQRT5, F5.element(n) / SQRT5, F5.element(p))
                want = 2 * p - rational_kloosterman(m * n * pow(5, -1, p) % p, 1, p) ** 2
                assert abs(got - want) <= 1e-12 * p, (p, m, n)
                sums += 1
    assert sums == 141
