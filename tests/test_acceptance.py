"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts.  Budgets are wall-clock seconds.
"""

import math
import random
import time
from fractions import Fraction

from heckedist import (
    Box,
    DirichletCharacter,
    Ideal,
    KloostermanQuery,
    LocalHeckeElement,
    SatoTateMeasure,
    brute_force_convolution,
    count,
    delta_term,
    evaluate,
    factor_rational_prime,
    from_sym_laurent,
    inverse_different,
    lambda_from_nu,
    make_field,
    measure_interval,
    npl_consistency,
    nu_from_lambda,
    pl_measure,
    predict,
    rational_kloosterman,
    run_report,
    s_poly,
    s_poly_eval,
    symmetry_check,
    synthesize,
    tau_source,
    weil_scan,
)

Q = make_field("Q")
F5 = make_field(5)


def report(idx, name, ok, detail=""):
    line = "criterion %d (%s): %s" % (idx, name, "PASS" if ok else "FAIL")
    if detail:
        line += " [%s]" % detail
    print(line)
    assert ok, line


def test_criterion_1_hecke_relation_brute_force():
    t0 = time.time()
    ok = True
    for p in (2, 3, 5):
        brute = brute_force_convolution(p, 2, 2)
        expected = (LocalHeckeElement.basis(brute.label, p, 2)
                    + LocalHeckeElement.basis(brute.label, p, 1).scale(p)
                    + LocalHeckeElement.basis(brute.label, p, 0).scale(p * p))
        ok = ok and brute == expected
    elapsed = time.time() - t0
    report(1, "Hecke relation, exact", ok and elapsed < 10.0,
           "p in {2,3,5}, %.2fs" % elapsed)


def test_criterion_2_isomorphism_oracle():
    rng = random.Random(2024)
    bad = 0
    for _ in range(500):
        deg_a = rng.randrange(1, 5)
        deg_b = rng.randrange(1, 5)
        norm = rng.choice((2, 3, 4, 5, 7, 9))
        a = LocalHeckeElement("x", norm, tuple(
            Fraction(rng.randrange(-99, 100), rng.randrange(1, 12))
            for _ in range(deg_a)))
        b = LocalHeckeElement("x", norm, tuple(
            Fraction(rng.randrange(-99, 100), rng.randrange(1, 12))
            for _ in range(deg_b)))
        direct = a * b
        via = from_sym_laurent("x", norm,
                               a.to_sym_laurent() * b.to_sym_laurent())
        if direct != via:
            bad += 1
    report(2, "isomorphism oracle", bad == 0,
           "500 random pairs, %d mismatches" % bad)


def test_criterion_3_s_polynomial_orthogonality():
    inert = factor_rational_prime(F5, 2)[0]
    norms = [2, 3, 5, 7, inert.absolute_norm()]
    assert inert.absolute_norm() == 4
    worst = Fraction(0)
    ok = True
    for n in norms:
        mu = SatoTateMeasure(n)
        if mu.polynomial(s_poly(n, 0)) != 1:
            ok = False
        for k in range(1, 7):
            val = mu.polynomial(s_poly(n, 2 * k))
            worst = max(worst, abs(val))
            if abs(val) >= Fraction(1, 10 ** 8):
                ok = False
    report(3, "S-polynomial orthogonality", ok,
           "norms %s, k <= 6, worst |Phi(S)| = %s" % (norms, worst))


def test_criterion_4_measure_bookkeeping():
    atom0 = measure_interval(pl_measure(0), (0.0, 0.0))
    atom1 = measure_interval(pl_measure(1), (-0.75, -0.75))
    atoms_ok = atom0 == (1.0, 0.0) and atom1 == (2.0, 0.0)
    rng = random.Random(41)
    worst = 0.0
    for _ in range(50):
        xi = rng.randrange(2)
        shape = rng.randrange(3)
        if shape == 0:      # tempered leg: purely imaginary interval
            u = rng.uniform(0.0, 2.5)
            v = u + rng.uniform(0.01, 1.5)
            lo, hi = complex(0, u), complex(0, v)
        elif shape == 1:    # real leg, through atoms
            u = rng.uniform(0.0, 2.5)
            v = u + rng.uniform(0.01, 1.5)
            lo, hi = complex(u, 0), complex(v, 0)
        else:               # crossing the branch point nu = 0
            lo = complex(0, rng.uniform(0.05, 2.0))
            hi = complex(rng.uniform(0.05, 2.0), 0)
        nu_val, pl_val = npl_consistency(xi, lo, hi)
        worst = max(worst, abs(nu_val.value - pl_val.value))
    report(4, "measure bookkeeping", atoms_ok and worst < 1e-8,
           "atoms exact, npl vs pl worst diff %.2e over 50 intervals" % worst)


def test_criterion_5_kloosterman():
    t0 = time.time()
    golden = (3 - math.sqrt(5)) / 2
    pinned_ok = (abs(rational_kloosterman(1, 1, 2) - 1) < 1e-9
                 and abs(rational_kloosterman(1, 1, 3) + 1) < 1e-9
                 and abs(rational_kloosterman(1, 1, 5) - golden) < 1e-9)

    rng = random.Random(5)
    worst_sym = 0.0
    chi_q = DirichletCharacter.trivial(Q, Ideal.unit_ideal(Q))
    for _ in range(100):
        c = Q.element(rng.choice((1, -1)) * rng.randrange(2, 60))
        r = Q.element(rng.randrange(-8, 9))
        rp = Q.element(rng.randrange(-8, 9))
        q = KloostermanQuery(c, r, rp, chi_q)
        worst_sym = max(worst_sym, symmetry_check(q))
    chi_5 = DirichletCharacter.trivial(F5, Ideal.unit_ideal(F5))
    od = inverse_different(F5).basis_elements()
    n_quad = 0
    while n_quad < 100:
        c = F5.element(rng.randrange(-4, 5), rng.randrange(-4, 5))
        if c.is_zero():
            continue
        r = od[0] * rng.randrange(-3, 4) + od[1] * rng.randrange(-3, 4)
        rp = od[0] * rng.randrange(-3, 4) + od[1] * rng.randrange(-3, 4)
        worst_sym = max(worst_sym,
                        symmetry_check(KloostermanQuery(c, r, rp, chi_5)))
        n_quad += 1

    res = weil_scan(Q, Q.element(1), Q.element(1), max_norm=500)
    primes = set()
    sieve = [True] * 501
    for i in range(2, 501):
        if sieve[i]:
            primes.add(i)
            for j in range(i * i, 501, i):
                sieve[j] = False
    weil_ok = True
    max_prime_ratio = 0.0
    for row in res.rows:
        if row.norm in primes:
            ratio = row.abs_k / (2 * math.sqrt(row.norm))
            max_prime_ratio = max(max_prime_ratio, ratio)
            if ratio > 1 + 1e-9:
                weil_ok = False
    elapsed = time.time() - t0
    report(5, "Kloosterman", pinned_ok and worst_sym < 1e-9 and weil_ok
           and elapsed < 60.0,
           "symmetry worst %.2e over 200 queries, prime Weil max %.10f, %.1fs"
           % (worst_sym, max_prime_ratio, elapsed))


def test_criterion_6_delta_term():
    chi_q = DirichletCharacter.trivial(Q, Ideal.unit_ideal(Q))
    chi_5 = DirichletCharacter.trivial(F5, Ideal.unit_ideal(F5))
    diag_ok = (delta_term(Q.element(7), Q.element(7), (0,), chi_q) == 1
               and delta_term(F5.element(2, 1), F5.element(2, 1), (0, 0),
                              chi_5) == 1)
    rng = random.Random(6)
    eps = F5.unit_group().fundamental
    bad = 0
    for i in range(100):
        if i % 2 == 0:
            # rational: units are +-1, so r/r' is a unit square only if r = r'
            r = Q.element(rng.randrange(1, 50))
            rp = r + Q.element(rng.randrange(1, 50))
            val = delta_term(r, rp, (0,), chi_q)
        else:
            r = F5.element(rng.randrange(1, 8), rng.randrange(0, 4))
            kind = rng.randrange(3)
            if kind == 0:      # odd unit power is never a unit square
                rp = r * eps ** (2 * rng.randrange(0, 3) + 1)
            elif kind == 1:    # negative of a square: fails total positivity
                rp = -(r * eps ** (2 * rng.randrange(0, 3)))
            else:              # non-unit rational factor
                rp = r * F5.element(rng.randrange(2, 7))
            val = delta_term(r, rp, (0, 0), chi_5)
        if val != 0:
            bad += 1
    report(6, "delta term", diag_ok and bad == 0,
           "diagonal = 1 on both fields, %d/100 non-square cases leaked" % bad)


def test_criterion_7_tau_oracle():
    t0 = time.time()
    td = tau_source(10 ** 5)
    elapsed = time.time() - t0
    values_ok = (td.tau[2] == -24 and td.tau[3] == 252
                 and td.tau[4] == -1472)
    lam2 = td.dataset.eigenvalues("2:0")[0]
    s22_at = s_poly_eval(s_poly(2, 2), Fraction(3, 4))
    exact_ok = (lam2 == 0.75
                and s22_at == Fraction(-1472, 2 ** 10)
                and td.tp2_eigenvalues["2:0"] == Fraction(-1472, 2 ** 10))
    report(7, "tau oracle", values_ok and exact_ok and elapsed < 30.0,
           "identities exact to 1e5, S_22(3/4) = %s, %.1fs" % (s22_at, elapsed))


def test_criterion_8_equidistribution_closure():
    t0 = time.time()
    field = make_field(73)
    box = Box(2, (1,), ((2, (0.3, 1.2)),), (0, 0), 4.0)
    labels = ["2:0", "3:0"]
    ds = synthesize(field, labels, box, 10 ** 5, seed=20260819)

    full_j = {"2:0": (0.0, 2 * math.sqrt(2)), "3:0": (0.0, 2 * math.sqrt(3))}
    pred_full = predict(field, 1.0, box, 4.0, full_j)
    ds = ds.scaled(pred_full.product / ds.total_weight())

    j_windows = {"2:0": (0.0, 1.0), "3:0": (1.0, 2.0)}
    rep = run_report(ds, box, [1.0, 2.0, 3.0, 4.0], j_windows, 1.0)
    final_ratio = rep.rows[-1].ratio
    ratio_ok = 0.97 <= final_ratio <= 1.03

    exc = {"2:0": (2.9, 3.0), "3:0": (1.0, 2.0)}  # inside (2 sqrt 2, 3]
    pred_exc = predict(field, 1.0, box, 4.0, exc)
    count_exc = count(ds, box, 4.0, exc)
    empty_ok = pred_exc.product == 0.0 and count_exc == 0.0
    elapsed = time.time() - t0
    report(8, "equidistribution closure",
           ratio_ok and empty_ok and elapsed < 60.0,
           "final count/prediction = %.4f, empty window exact, %.1fs"
           % (final_ratio, elapsed))


def test_criterion_9_eigenvalue_parametrization():
    norms = []
    for p in (2, 3, 5, 7):
        norms.append(factor_rational_prime(Q, p)[0].absolute_norm())
    norms.append(factor_rational_prime(F5, 2)[0].absolute_norm())   # 4
    norms.append(factor_rational_prime(F5, 5)[0].absolute_norm())   # 5
    norms.append(factor_rational_prime(F5, 11)[0].absolute_norm())  # 11
    worst = 0.0
    endpoints_ok = True
    for n in sorted(set(norms)):
        for i in range(1, 1001):
            lam = (n + 1) * i / 1001.0
            back = lambda_from_nu(n, nu_from_lambda(n, lam))
            worst = max(worst, abs(back - lam))
        if lambda_from_nu(n, 0.0) != 2 * math.sqrt(n):
            endpoints_ok = False
        if lambda_from_nu(n, 0.5) != n + 1:
            endpoints_ok = False
    report(9, "eigenvalue parametrization", worst < 1e-12 and endpoints_ok,
           "roundtrip worst %.2e over 1000 points per norm, endpoints exact"
           % worst)
