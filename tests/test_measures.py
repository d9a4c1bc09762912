"""Spectral measures: Plancherel atoms + densities, V1 reference measure,
nu-coordinate change of variables, Sato-Tate closed forms, boxes."""

import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heckedist
from heckedist import (
    Box,
    MeasureError,
    MeasureValue,
    NuMeasure,
    SatoTateMeasure,
    SpectralMeasure,
    box_measure,
    measure_interval,
    npl_consistency,
    nu_measure,
    pl_atoms_in,
    pl_measure,
    s_poly,
    spectral_measure,
    v1_atoms_in,
    v1_measure,
)

PL0 = pl_measure(0)
PL1 = pl_measure(1)


def test_atom_positions_and_masses():
    # b/2 (1 - b/2) with mass b - 1, b = xi mod 2, b >= 2
    atoms0 = pl_atoms_in(0, -10, Fraction(1, 4))
    assert atoms0 == [(Fraction(0), Fraction(1)),
                      (Fraction(-2), Fraction(3)),
                      (Fraction(-6), Fraction(5))]
    atoms1 = pl_atoms_in(1, -10, Fraction(1, 4))
    assert atoms1 == [(Fraction(-3, 4), Fraction(2)),
                      (Fraction(-15, 4), Fraction(4)),
                      (Fraction(-35, 4), Fraction(6))]


def reference_pl_atoms_in(xi, a, b_hi):
    """pl_atoms_in as written before the two atom walks shared one loop: a
    walk from the first atom, as every version before the closed-form start."""
    a, b_hi = Fraction(a), Fraction(b_hi)
    out = []
    b = 2 if xi == 0 else 3
    while True:
        pos = Fraction(b, 2) * (1 - Fraction(b, 2))
        if pos < a:
            break
        if pos <= b_hi:
            out.append((pos, Fraction(b - 1)))
        b += 2
    return out


def reference_v1_atoms_in(xi, a, b_hi):
    """v1_atoms_in as written before the two atom walks shared one loop: a
    walk from the first atom, as every version before the closed-form start."""
    a, b_hi = Fraction(a), Fraction(b_hi)
    out = []
    beta = Fraction(1, 2) if xi == 0 else Fraction(1)
    while True:
        pos = Fraction(1, 4) - beta * beta
        if pos < a:
            break
        if pos <= b_hi:
            out.append((pos, beta))
        beta += 1
    return out


def reference_is_discrete_series_value(x, xi):
    """The closed-form endpoint test Box used: x == b/2 (1 - b/2), b > 1, b = xi mod 2."""
    xf = Fraction(x)
    if xf > 0:
        return False
    disc = 1 - 4 * xf
    if disc.denominator != 1:
        return False
    root = math.isqrt(disc.numerator)
    if root * root != disc.numerator:
        return False
    b = 1 + root
    return b > 1 and b % 2 == xi % 2


WINDOW_GRID = sorted({Fraction(n, 4) for n in range(-200, 12)}
                     | {Fraction(n, 3) for n in range(-60, 6)} | {-37.25, -0.7, 0.2, 1.5})


def test_atom_lists_match_reference_walk():
    for xi in (0, 1):
        for a in WINDOW_GRID[::3]:
            for b_hi in WINDOW_GRID[::2]:
                got_pl, got_v1 = pl_atoms_in(xi, a, b_hi), v1_atoms_in(xi, a, b_hi)
                assert got_pl == reference_pl_atoms_in(xi, a, b_hi), (xi, a, b_hi)
                assert got_v1 == reference_v1_atoms_in(xi, a, b_hi), (xi, a, b_hi)
                assert all(type(x) is Fraction for atom in got_pl + got_v1 for x in atom)


# pl0 and V1,0 both put an atom at -9999900000 (b = 200000, beta = 99999.5)
FAR_ATOM = -9999900000.0
FAR_GRID = [-1e6, -12345.6, -1e4 - 0.25, -0.75, 0.3, 1e6, 1e10]


def test_atom_walk_starts_in_closed_form_on_far_windows():
    # the walk starts at the first atom at or below b_hi however far away that
    # is, and lists what the walk from the first atom lists
    windows = [(a, b_hi) for a in FAR_GRID for b_hi in FAR_GRID if a <= b_hi]
    windows += [(-1e6, Fraction(10 ** 400)), (-1e6, -1e6 + 2.0), (1e10, 1e10)]
    for xi in (0, 1):
        for a, b_hi in windows:
            assert pl_atoms_in(xi, a, b_hi) == reference_pl_atoms_in(xi, a, b_hi), (xi, a, b_hi)
            assert v1_atoms_in(xi, a, b_hi) == reference_v1_atoms_in(xi, a, b_hi), (xi, a, b_hi)
    # past the reach of the reference walk, the neighbours of one far atom
    assert pl_atoms_in(0, FAR_ATOM - 1e5, FAR_ATOM + 1e5) == [(Fraction(FAR_ATOM), 199999)]
    assert v1_atoms_in(0, FAR_ATOM - 1e5, FAR_ATOM + 1e5) == [
        (Fraction(FAR_ATOM), Fraction(199999, 2))]
    assert pl_atoms_in(1, FAR_ATOM, FAR_ATOM) == v1_atoms_in(1, FAR_ATOM, FAR_ATOM) == []
    n = 200000  # 2 beta for V1,1: the one atom in [-1e10, FAR_ATOM]
    assert v1_atoms_in(1, -1e10, FAR_ATOM) == [(Fraction(1 - n * n, 4), Fraction(n, 2))]
    assert pl_atoms_in(1, -1e10, -1e10) == pl_atoms_in(0, -1e10, -1e10) == []


def test_atom_mass_closed_form_matches_per_atom_sum():
    # measure_interval sums the masses as an arithmetic series; the per-atom
    # Fraction sum it replaced gives the same float, bit for bit
    windows = [(a, b) for a in WINDOW_GRID[::7] for b in WINDOW_GRID[::5] if a <= b]
    windows += [(-1e6, 0.3), (-12345.6, -0.75), (FAR_ATOM, FAR_ATOM), (-1e4 - 0.25, 1e6)]
    for kind in ("pl0", "pl1", "v10", "v11"):
        mu = spectral_measure(kind)
        for a, b in windows:
            cont = mu.continuous_mass(float(a), float(b))
            atoms_in = pl_atoms_in if kind.startswith("pl") else v1_atoms_in
            atoms = sum((m for _, m in atoms_in(mu.xi, a, b)), Fraction(0))
            assert measure_interval(mu, (a, b)) == (cont.value + float(atoms), cont.error), \
                (kind, a, b)
    # on the real leg of nu the mass is all atoms
    for xi in (0, 1):
        for lo, hi in ((0.0, 0.5), (0.25, 7.5), (0.0, 300.25), (2.0, 2.0)):
            lam_lo, lam_hi = 0.25 - hi * hi, 0.25 - lo * lo
            atoms = sum((m for _, m in pl_atoms_in(xi, lam_lo, lam_hi)), Fraction(0))
            assert nu_measure(xi).interval(lo, hi) == (float(atoms), 0.0), (xi, lo, hi)


def reference_as_fraction(x) -> Fraction:
    """The endpoint conversion of the Fraction atom range, verbatim."""
    # Fraction(float) is exact (binary expansion); used for boundary tests only
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise MeasureError("interval endpoints must be finite")
        return Fraction(x)
    raise MeasureError("bad endpoint %r" % (x,))


def reference_atom_range(xi, a, b_hi):
    """The atom range on Fractions that the int one replaced, verbatim."""
    from heckedist.measures import _parity
    n, a, b_hi = 1 + _parity(xi), reference_as_fraction(a), reference_as_fraction(b_hi)
    rhs = 1 - 4 * b_hi
    if rhs > n * n:
        root = math.isqrt(math.floor(rhs))  # then raised to the ceiling of sqrt(rhs)
        if root * root < rhs:
            root += 1
        n = root + (root - n) % 2
    return range(n, math.isqrt(max(math.floor(1 - 4 * a), 0)) + 1, 2)


def test_int_atom_range_matches_fraction_route():
    from heckedist.measures import _atom_range
    points = [0.0, 0.25, 0.3, -1e-20, 1e-20, -1e10, 5e15, -5e15, 1e10, -1.7e308, 1.7e308,
              -sys.float_info.max, sys.float_info.max, Fraction(1, 3), Fraction(-7, 3),
              Fraction(-10 ** 400), Fraction(10 ** 400), Fraction(1, 4) - Fraction(1, 10 ** 30),
              -3, 0, 2, FAR_ATOM, math.nextafter(FAR_ATOM, 0.0), math.nextafter(FAR_ATOM, -1e11)]
    for b in range(2, 101):  # every atom up to b = 100 and its float neighbours
        x = b / 2 * (1 - b / 2)
        points += [x, Fraction(b, 2) * (1 - Fraction(b, 2)), math.nextafter(x, math.inf),
                   math.nextafter(x, -math.inf)]
    checked = 0
    for xi in (0, 1):
        for a in points:
            for b_hi in points[xi::3] + FAR_GRID:
                assert _atom_range(xi, a, b_hi) == reference_atom_range(xi, a, b_hi), (xi, a, b_hi)
                checked += 1
        for a, b_hi in ((FAR_ATOM - 1e5, FAR_ATOM + 1e5), (-1.7e308, 0.3), (-1e38, -1e37)):
            assert _atom_range(xi, a, b_hi) == reference_atom_range(xi, a, b_hi), (xi, a, b_hi)
        # the range at the far end of the doubles, where 4x overflows a float
        assert _atom_range(xi, -1.7e308, 0.3)[-1] > 2 * 10 ** 154
        for bad in (math.nan, math.inf, -math.inf, "1", None):
            for window in ((bad, 0.0), (0.0, bad)):
                with pytest.raises(MeasureError):
                    reference_atom_range(xi, *window)
                with pytest.raises(MeasureError):
                    _atom_range(xi, *window)
    assert checked > 2 * 400 * 140


def test_atom_mass_of_a_huge_window():
    # 10^19 atoms: the count is no longer len() of the range, which overflows
    # a C ssize_t, so the mass is the arithmetic series rounded once
    n = math.isqrt(1 + 4 * 10 ** 38)
    n -= n % 2
    want = (n // 2) * (n + 2) / 2 + measure_interval(PL0, (0.25, 0.3)).value
    assert measure_interval(PL0, (-1e38, 0.3)).value == want


def test_box_checks_far_endpoints():
    Box(1, (), ((1, (-1e10, 0.3)),), (0,), 1.0)  # no atom at -1e10
    with pytest.raises(MeasureError, match="discrete-series"):
        Box(1, (), ((1, (FAR_ATOM, 0.3)),), (0,), 1.0)
    Box(1, (), ((1, (FAR_ATOM, 0.3)),), (1,), 1.0)  # the atom is of the other parity


def test_box_endpoint_check_matches_reference():
    points = [0.0, 0.1, 0.25, 1.0, 3]
    for b in range(2, 41):
        x = b / 2 * (1 - b / 2)  # exact in binary: an integer or a quarter-integer
        points += [x, Fraction(b, 2) * (1 - Fraction(b, 2)), x + 1e-9, x - 1e-9,
                   math.nextafter(x, math.inf), math.nextafter(x, -math.inf), x + 0.25, x - 0.5]
    hits = 0
    for xi in (0, 1):
        for x in points:
            hits += reference_is_discrete_series_value(x, xi)
            for window in ((x, x), (x - 100, x), (x, x + 100)):
                expected = any(reference_is_discrete_series_value(e, xi) for e in window)
                try:
                    Box(1, (), ((1, window),), (xi,), 1.0)
                    rejected = False
                except MeasureError:
                    rejected = True
                assert rejected == expected, (xi, window)
    # each b <= 40 twice (float and Fraction) in its own parity, and 0.0 listed once more
    assert hits == 2 * 39 + 1


def test_parity_validated_where_atoms_are_generated():
    # a parity is 0 or 1 exactly: 2 is not odd, and no int() cast or %d may read
    # 0.5 as parity 0 or 1.9 as parity 1
    for xi in (2, -1, 3, 0.5, 1.9, -0.5):
        for call in (lambda: pl_atoms_in(xi, -10, 1), lambda: v1_atoms_in(xi, -10, 1),
                     lambda: NuMeasure(xi), lambda: nu_measure(xi), lambda: pl_measure(xi),
                     lambda: v1_measure(xi)):
            with pytest.raises(MeasureError, match="parity xi must be 0 or 1"):
                call()


def test_point_masses_exact():
    assert measure_interval(PL0, (0.0, 0.0)) == (1.0, 0.0)
    assert measure_interval(PL1, (-0.75, -0.75)) == (2.0, 0.0)
    # wrong-parity point carries no mass
    assert measure_interval(PL0, (-0.75, -0.75)) == (0.0, 0.0)
    assert measure_interval(PL1, (0.0, 0.0)) == (0.0, 0.0)


def test_continuous_mass_pinned():
    # int_{1/4}^{101/4} tanh(pi sqrt(lam - 1/4)) dlam = 25 - c0, c0 = 1/12 - 7.5e-14
    v = measure_interval(PL0, (0.25, 25.25))
    assert abs(v.value - (25 - 1 / 12)) < 1e-9
    assert v.error < 1e-8
    v1 = measure_interval(PL1, (0.25, 1.25))
    assert abs(v1.value - 1.16528740434367) < 1e-9


def reference_quad_pl_continuous(xi, lo, hi):
    """The scipy quad route the closed form replaced, verbatim."""
    from scipy.integrate import quad  # on first use: `import heckedist` skips scipy
    lo = max(lo, 0.25)
    if hi <= lo:
        return MeasureValue(0.0, 0.0)
    ua, ub = math.sqrt(lo - 0.25), math.sqrt(hi - 0.25)
    if xi == 0:
        def f(u):
            return 2.0 * u * math.tanh(math.pi * u)
    else:
        def f(u):
            # 2u coth(pi u) -> 2/pi at u = 0
            if u < 1e-8:
                return 2.0 / math.pi + 2.0 * math.pi * u * u / 3.0
            return 2.0 * u / math.tanh(math.pi * u)
    val, err = quad(f, ua, ub, epsabs=1e-12, epsrel=1e-12, limit=200)
    return MeasureValue(val, err)


def reference_qaws_from_quarter(xi, lam):
    """NuMeasure._from_quarter as the QUADPACK QAWS route it was before the
    Gauss-Legendre rule, verbatim but for self.xi."""
    if lam <= 0.25:
        return MeasureValue(0.0, 0.0)
    from scipy.integrate import quad
    if xi == 0:
        def g(x):
            s = math.sqrt(max(x - 0.25, 0.0))
            return s * math.tanh(math.pi * s)
    else:
        def g(x):
            # s coth(pi s) -> 1/pi at s = 0
            s = math.sqrt(max(x - 0.25, 0.0))
            if s < 1e-8:
                return 1.0 / math.pi + math.pi * s * s / 3.0
            return s / math.tanh(math.pi * s)
    v, e = quad(g, 0.25, lam, weight="alg", wvar=(-0.5, 0.0),
                epsabs=1e-12, epsrel=1e-12, limit=200)
    return MeasureValue(v, e)


def reference_windows():
    """Seeded continuous windows [lo, hi]: lo = 1/4 and windows ending at fixed
    hi, widths 1e-10 to 1e3, plus random ones with hi up to 1e4."""
    rng = random.Random(20261018)
    windows = []
    for e in range(-10, 4):
        w = 10.0 ** e
        windows.append((0.25, 0.25 + w))
        windows += [(hi - w, hi) for hi in (0.5, 1.0, 10.0, 100.0, 1e3, 1e4) if hi - w >= 0.25]
    for _ in range(60):
        w = 10 ** rng.uniform(-10, 3)
        hi = 0.25 + w + 10 ** rng.uniform(-10, 4)
        windows.append((hi - w, hi))
    return windows


def test_closed_form_matches_quadrature_references():
    # the quad copy and the nu side's QAWS both integrate from float endpoints
    # near hi, whose rounding alone moves them by a few ulps of hi (ulp(1e4) is
    # 1.8e-12), so each gets 1e-12 plus 2^-50 hi
    for xi in (0, 1):
        for lo, hi in reference_windows():
            got = spectral_measure("pl%d" % xi).continuous_mass(lo, hi)
            assert got.error == 1e-15 * (hi + 1.0)
            tol = 1e-12 + 2.0 ** -50 * hi
            quad_value = reference_quad_pl_continuous(xi, lo, hi).value
            assert abs(got.value - quad_value) < tol, (xi, lo, hi)
            qaws_value = (reference_qaws_from_quarter(xi, hi).value
                          - reference_qaws_from_quarter(xi, lo).value)
            assert abs(got.value - qaws_value) < tol, (xi, lo, hi)


def test_gauss_legendre_rule_matches_numpy():
    import numpy as np
    import heckedist.measures as measures_module
    rule = measures_module._gauss_legendre_16()
    nodes, weights = np.polynomial.legendre.leggauss(16)
    assert len(rule) == 16
    for (node, weight), t, w in zip(rule, nodes, weights):
        assert abs((node - 1.0) - t) <= 1e-15 and abs(weight - w) <= 1e-15
    # within 2^-53 relatively of the 30-digit values (Abramowitz and Stegun,
    # table 25.4), the node near 0 too: 1 - t is formed before the rounding
    for got, want in zip(rule[0], ("0.010599065008350067403845826550",
                                   "0.027152459411754094851780572456")):
        assert abs(Fraction(got) - Fraction(want)) <= 2 ** -53 * Fraction(want)


def test_gauss_legendre_within_its_bound():
    # the nu side's rule against the lambda side's closed form: each has a
    # proven bound, so they differ by at most the sum of the two
    for xi in (0, 1):
        nu = NuMeasure(xi)
        closed = spectral_measure("pl%d" % xi)
        for lo, hi in reference_windows():
            top, bottom = nu._from_quarter(hi), nu._from_quarter(lo)
            gl = MeasureValue(top.value - bottom.value, top.error + bottom.error)
            want = closed.continuous_mass(lo, hi)
            assert abs(gl.value - want.value) <= gl.error + want.error, (xi, lo, hi)
            assert gl.error <= 1e-14 * (hi + 1.0), (xi, lo, hi)


def test_gauss_legendre_panel_bound():
    # |f| <= 17.1 on the rectangle |Im s| <= 0.4, -1/2 <= Re s <= 17/2 (sampled on
    # its boundary, where an analytic f takes its maximum), and the
    # Bernstein-ellipse bound it gives one panel is below NuMeasure._PANEL_ERROR
    import cmath
    edge = [complex(-0.5 + 9 * k / 9000, y) for k in range(9001) for y in (-0.4, 0.4)]
    edge += [complex(x, -0.4 + 0.8 * k / 800) for k in range(801) for x in (-0.5, 8.5)]
    for s in edge:
        assert abs(2 * s * cmath.tanh(math.pi * s)) <= 17.1
        assert abs(2 * s / cmath.tanh(math.pi * s)) <= 17.1
    rho = 1.6 + math.sqrt(3.56)
    assert (rho - 1 / rho) / 2 * 0.25 == pytest.approx(0.4)  # reaches Im s = 0.4
    assert (rho + 1 / rho) / 2 * 0.25 < 0.25 + 0.5  # and overhangs [0, 8] by under 1/2
    bound = 64 / 15 * (17.1 / 4) * rho ** -30 / (rho ** 2 - 1)
    assert bound < 9e-17 < NuMeasure._PANEL_ERROR


def test_gauss_legendre_large_lambda_is_exact():
    # past s = 8 the mass adds (lambda - 1/4) - 64, never S * S
    for lam in (2.0 ** 60, 1e308, sys.float_info.max):
        v = NuMeasure(0)._from_quarter(lam)
        assert v.value == (lam - 0.25 - 64) + (64 - 1 / 12) and math.isfinite(v.error)
    assert NuMeasure(1).interval(0, 9.99e153j).value == pytest.approx(9.99e153 ** 2)


def test_closed_form_limits():
    import heckedist.measures as measures_module
    # int_0^5 2u tanh(pi u) du = 25 - 1/12 + (10/pi) log(1 + x) - Li2(-x)/pi^2,
    # x = e^(-10 pi); the tail is 7.5e-14, its x^2 terms below 1e-26
    v = measure_interval(PL0, (0.25, 25.25))
    tail = (10 / math.pi + 1 / math.pi ** 2) * math.exp(-10 * math.pi)
    assert abs(v.value - (25 - 1 / 12 + tail)) < 1e-14
    assert abs(v.value - (25 - 1 / 12)) > 7e-14  # the tail is really there
    # far up the tails vanish: u^2 - 1/12 and u^2 + 1/6 within the bound
    for xi, c in ((0, -1 / 12), (1, 1 / 6)):
        v = measure_interval(spectral_measure("pl%d" % xi), (0.25, 2500.25))
        assert abs(v.value - (2500 + c)) <= v.error
        # F(0) = 0: both primitives start at the bottom of the spectrum
        assert abs(measures_module._pl_excess(xi, 0.0)) < 1e-16
        assert spectral_measure("pl%d" % xi).continuous_mass(0.25, 0.25) == (0.0, 0.0)


def test_coth_singularity_is_integrable():
    total = 0.0
    lo = 0.25
    for hi in (0.2500001, 0.2501, 0.26, 0.5):
        v = measure_interval(PL1, (lo, hi))
        assert v.value >= total  # monotone in the right endpoint
        total = v.value
    assert measure_interval(PL1, (0.25, 0.26)).value < 0.12


def test_interval_additivity():
    a, m, b = 0.25, 3.7, 11.0
    left = measure_interval(PL0, (a, m)).value
    right = measure_interval(PL0, (m, b)).value
    full = measure_interval(PL0, (a, b)).value
    assert abs(left + right - full) < 1e-10


def test_atoms_plus_density_in_one_window():
    # window straddling the atom at 0 picks up exactly the atom plus density
    v = measure_interval(PL0, (-0.5, 0.5))
    dens = measure_interval(PL0, (0.25, 0.5))
    assert abs(v.value - (1.0 + dens.value)) < 1e-12


def test_v1_closed_forms():
    v10 = v1_measure(0)
    v11 = v1_measure(1)
    # 1/2 |lam - 1/4|^{-1/2} integrates to sqrt differences; atoms are beta
    assert measure_interval(v10, (0.0, 1.25)).value == pytest.approx(2.0, abs=1e-12)
    assert measure_interval(v11, (0.25, 1.25)).value == pytest.approx(1.0, abs=1e-12)
    # flat piece: density exactly 1/2 on [5/4, oo), no singular tail up there
    assert measure_interval(v10, (1.25, 2.25)).value == pytest.approx(0.5, abs=1e-12)
    assert measure_interval(v10, (1.25, 3.25)).value == pytest.approx(1.0, abs=1e-12)
    # singular piece on [1/4, 5/4]: sqrt difference, here sqrt(1) - sqrt(0) = 1
    assert measure_interval(v11, (0.25, 5.25)).value == pytest.approx(3.0, abs=1e-12)


def test_v1_dominates_pl_on_windows():
    # V1 is the comparison measure: positive wherever pl can live,
    # including the complementary range (0, 1/4) where pl0 density is zero
    v10 = v1_measure(0)
    assert measure_interval(v10, (0.05, 0.2)).value > 0
    assert measure_interval(PL0, (0.05, 0.2)).value == 0.0


def test_measure_interval_input_validation():
    with pytest.raises(MeasureError):
        measure_interval(PL0, (2.0, 1.0))
    with pytest.raises(MeasureError):
        measure_interval(PL0, (0.0, math.inf))


def test_spectral_measure_aliases():
    assert spectral_measure("pl0") == PL0
    assert spectral_measure("v10") == v1_measure(0)
    assert spectral_measure("v11") == v1_measure(1)
    # the four documented spellings are the only ones
    for kind in ("pl2", "V1,1", "v1,1", "V1,0", "v1,0", "npl0"):
        with pytest.raises(MeasureError):
            spectral_measure(kind)


def test_spectral_measure_is_a_checked_family_and_parity():
    # spectral_measure is the one reader of a kind name; the pair it builds is
    # checked, so "pl0" with parity 1 cannot measure pl1, nor "bogus" v10
    assert spectral_measure(" v10 ") == SpectralMeasure("v1", 0) == v1_measure(0)
    assert (PL1.family, PL1.xi) == ("pl", 1)
    for family, xi, message in (("pl", 2, "parity xi must be 0 or 1"),
                                ("v1", -1, "parity xi must be 0 or 1"),
                                ("pl", 0.5, "parity xi must be 0 or 1"),
                                ("foo", 0, "unknown measure family 'foo'"),
                                ("bogus", 0, "unknown measure family 'bogus'"),
                                ("pl0", 1, "unknown measure family 'pl0'"),
                                ("npl", 0, "unknown measure family"),
                                ("V1", 1, "unknown measure family")):
        with pytest.raises(MeasureError, match=message):
            SpectralMeasure(family, xi)


# nu values on the real leg (atoms at (b - 1)/2) and on the imaginary leg, past
# its s = 8 quadrature end too; 0 is on both
NU_POINTS = [0.0, 0.3, 0.5, 1.0, 1.75, 3.0, 0.05j, 0.5j, 1j, 3j, 7.5j, 8.5j, 20j]


def test_npl_consistency_agrees_within_the_two_bounds():
    # the nu side's quadrature and the lambda side's closed form measure each
    # window within the sum of their error bounds; a window on the real leg has
    # only atoms, so both bounds are 0 and the two masses are equal
    windows = [(lo, hi) for i, lo in enumerate(NU_POINTS) for hi in NU_POINTS[i + 1:]]
    assert len(windows) == 78
    for xi in (0, 1):
        for lo, hi in windows:
            nu_val, pl_val = npl_consistency(xi, lo, hi)
            assert isinstance(nu_val, MeasureValue) and isinstance(pl_val, MeasureValue)
            if complex(lo).imag == complex(hi).imag == 0:
                assert nu_val == pl_val and nu_val.error == 0.0, (xi, lo, hi)
            else:
                assert nu_val.error > 0 and pl_val.error > 0, (xi, lo, hi)
                assert abs(nu_val.value - pl_val.value) <= nu_val.error + pl_val.error, \
                    (xi, lo, hi)


def test_nu_to_lambda_consistency_pinned():
    # same window measured in both coordinates
    for xi, lo, hi in ((0, 0.1j, 1.0j), (1, 0.05j, 2.0j),
                       (0, 0.3, 0.45), (1, 0.0j, 0.49)):
        nu_val, pl_val = npl_consistency(xi, lo, hi)
        assert abs(nu_val.value - pl_val.value) < 1e-8, (xi, lo, hi)


def test_nu_side_does_not_reuse_the_lambda_quadrature(monkeypatch):
    import heckedist.measures as measures_module
    want = {xi: measures_module._pl_continuous(xi, 0.26, 5.0).value for xi in (0, 1)}

    def refuse(*args):
        raise AssertionError("the nu side called the lambda-side closed form")

    monkeypatch.setattr(measures_module, "_pl_continuous", refuse)
    for xi in (0, 1):
        got = nu_measure(xi).interval(0.1j, math.sqrt(4.75) * 1j).value
        assert abs(got - want[xi]) < 1e-12, xi


def test_nu_interval_crosses_branch_point():
    # path through nu = 0: imaginary leg glued to the real leg at lambda = 1/4
    nm = nu_measure(0)
    v = nm.interval(0.3j, 0.2)  # wait: crossing expressed as two legs
    a = nm.interval(0.3j, 0j).value
    b = nm.interval(0.0, 0.2).value
    assert abs(v.value - (a + b)) < 1e-10


def test_nu_atoms():
    # discrete-series points in nu: atom 2 nu0 at nu0 = (b-1)/2
    nm = nu_measure(0)
    v = nm.interval(0.5, 0.5)
    assert v.value == pytest.approx(1.0, abs=0)  # b = 2: mass b - 1 = 1
    nm1 = nu_measure(1)
    assert nm1.interval(1.0, 1.0).value == pytest.approx(2.0, abs=0)  # b = 3


def test_nu_measure_rejects_off_path():
    with pytest.raises(MeasureError):
        nu_measure(0).interval(0.1 + 0.1j, 0.3 + 0.1j)


def test_nu_measure_rejects_non_finite_nu():
    # nu = inf maps to lambda = -inf, where the atom scan used to run forever
    for lo, hi in ((0, math.inf), (math.inf, 0.5), (0.1j, complex(0, math.inf)), (0, 1e200)):
        with pytest.raises(MeasureError):
            NuMeasure(0).interval(lo, hi)


def test_sato_tate_moments_exact():
    # even moments are Catalan(m) N^m; odd moments are irrational
    catalan = [1, 1, 2, 5, 14, 42, 132]
    for n in (2, 3, 4, 5):
        mu = SatoTateMeasure(n)
        for m in range(7):
            assert mu.moment(2 * m) == catalan[m] * Fraction(n) ** m
        with pytest.raises(MeasureError):
            mu.moment(3)


def test_sato_tate_orthogonality_exact():
    for n in (2, 3, 4, 5, 7):
        mu = SatoTateMeasure(n)
        assert mu.polynomial(s_poly(n, 0)) == 1
        for k in range(1, 7):
            assert mu.polynomial(s_poly(n, 2 * k)) == 0


def test_sato_tate_masses_pinned():
    assert SatoTateMeasure(2).mass(0.0, 1.0).value == pytest.approx(0.440595655836512, abs=1e-12)
    assert SatoTateMeasure(3).mass(1.0, 2.0).value == pytest.approx(0.329550082150244, abs=1e-12)
    # full support is exactly 1 in floats (the arcsin hits pi/2 dead on)
    for n in (2, 3, 5, 11):
        mu = SatoTateMeasure(n)
        lo, hi = mu.support()
        assert mu.mass(lo, hi).value == 1.0


def test_sato_tate_mass_clips_to_support():
    mu = SatoTateMeasure(2)
    assert mu.mass(-5.0, 0.0).value == 0.0
    full = mu.mass(-100.0, 100.0)
    assert full.value == 1.0


def test_phi_dispatch():
    # coefficient lists in lambda^{2m}, whatever their container
    assert SatoTateMeasure(2).polynomial(s_poly(2, 2)) == 0
    assert SatoTateMeasure(2).polynomial([Fraction(0), Fraction(1)]) == Fraction(2)  # lambda^2


def test_sato_tate_mass_rejects_nan():
    # NaN fails a <= b; infinite endpoints clip to the support
    mu = SatoTateMeasure(2)
    for a, b in ((math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan), (2.0, 1.0)):
        with pytest.raises(MeasureError):
            mu.mass(a, b)
    assert mu.mass(-math.inf, math.inf) == mu.mass(-100.0, 100.0)
    assert mu.mass(-math.inf, math.inf).value == 1.0
    assert mu.mass(1.0, math.inf) == mu.mass(1.0, mu.support()[1])


@given(st.floats(0.01, 0.99), st.floats(1.0, 2.8))
@settings(max_examples=60, deadline=None)
def test_sato_tate_mass_additive(a, b):
    mu = SatoTateMeasure(2)
    lo, hi = mu.support()
    left = mu.mass(lo, a).value
    mid = mu.mass(a, b).value
    right = mu.mass(b, hi).value
    assert abs(left + mid + right - 1.0) < 1e-12


@pytest.mark.parametrize("norm", [0, 1, -1, 2.0, True, Fraction(3), "3", None])
def test_sato_tate_rejects_a_bad_norm(norm):
    with pytest.raises(MeasureError, match="prime norm must be an int >= 2"):
        SatoTateMeasure(norm)


def test_inverse_cdf_table():
    mu = SatoTateMeasure(3)
    grid, cdf = mu.inverse_cdf_table()
    assert len(grid) == len(cdf) == 10 ** 4
    assert cdf[0] == 0.0 and abs(cdf[-1] - 1.0) < 1e-9
    assert all(cdf[i] <= cdf[i + 1] for i in range(len(cdf) - 1))
    assert grid[0] == 0.0 and abs(grid[-1] - 2 * math.sqrt(3)) < 1e-12


def test_box_validation():
    with pytest.raises(MeasureError):
        Box(0, (), (), (), 1.0)  # no coordinates: box_measure would skip the family check
    with pytest.raises(MeasureError):
        Box(2, (1, 2), ((2, (0.3, 1.2)),), (0, 0), 1.0)  # coord 2 used twice
    with pytest.raises(MeasureError):
        Box(2, (1,), ((2, (0.3, 1.2)),), (0,), 1.0)  # xi length mismatch
    with pytest.raises(MeasureError):
        Box(2, (1,), ((2, (1.2, 0.3)),), (0, 0), 1.0)  # reversed window
    with pytest.raises(MeasureError):
        Box(1, (), ((1, (0.0, 1.0)),), (0,), 1.0)  # endpoint on an atom
    with pytest.raises(MeasureError):
        Box(1, (), ((1, (-0.75, 1.0)),), (1,), 1.0)  # odd-parity atom hit


def test_box_contains_and_intervals():
    box = Box(2, (1,), ((2, (0.3, 1.2)),), (0, 0), 4.0)
    assert box.interval(1) == (-4.0, 4.0)
    assert box.interval(2) == (0.3, 1.2)
    assert box.contains((2.0, 0.5))
    assert box.contains((-4.0, 1.2))  # closed boundaries
    assert not box.contains((4.5, 0.5))
    assert not box.contains((0.0, 0.2))
    grown = box.with_t(9.0)
    assert grown.contains((8.0, 0.7)) and not box.contains((8.0, 0.7))


def test_box_measure_product():
    box = Box(2, (1,), ((2, (0.3, 1.2)),), (0, 0), 4.0)
    v = box_measure(box, family="pl")
    q = measure_interval(PL0, (-4.0, 4.0)).value
    e = measure_interval(PL0, (0.3, 1.2)).value
    assert abs(v.value - q * e) < 1e-10
    w = box_measure(box, family="v1")
    assert w.value > 0
    with pytest.raises(MeasureError):
        box_measure(box, family="pl2")
    # a zero factor gives the product 0 with that factor's error: pl0 has no
    # atom in [0.05, 0.2] and its continuum starts at 1/4; v11's starts there too
    assert measure_interval(PL0, (0.05, 0.2)) == (0.0, 0.0)
    box = Box(2, (1,), ((2, (0.05, 0.2)),), (0, 0), 4.0)
    assert box_measure(box) == MeasureValue(0.0, 0.0)
    zero = measure_interval(spectral_measure("v11"), (0.05, 0.2))
    assert zero.value == 0.0 and zero.error > 0
    box = Box(2, (1,), ((2, (0.05, 0.2)),), (0, 1), 4.0)
    assert box_measure(box, family="v1") == MeasureValue(0.0, zero.error)


BOX2 = Box(2, (1,), ((2, (0.3, 1.2)),), (0, 0), 4.0)


@pytest.mark.parametrize("call, match", [
    (lambda: Box(1, (1,), (), (0,), -1.0), "t must be >= 0"),
    (lambda: BOX2.with_t(-0.5), "t must be >= 0"),
    (lambda: Box(1, (1,), (), (0,), math.nan), "t must be >= 0"),
    (lambda: Box(1, (1,), (), (0,), math.inf), "t must be >= 0"),
    (lambda: BOX2.with_t(math.nan), "t must be >= 0"),
    (lambda: BOX2.with_t(math.inf), "t must be >= 0"),
    (lambda: BOX2.interval(0), "coordinate 0 out of range"),
    (lambda: BOX2.interval(3), "coordinate 3 out of range"),
    (lambda: BOX2.contains((1.0,)), "expected 2 coordinates"),
    (lambda: BOX2.contains((1.0, 0.5, 0.5)), "expected 2 coordinates"),
], ids=["box-t-negative", "with-t-negative", "box-t-nan", "box-t-inf", "with-t-nan",
        "with-t-inf", "interval-0", "interval-past-dim",
        "contains-short", "contains-long"])
def test_box_input_checks_raise(call, match):
    with pytest.raises(MeasureError, match=match):
        call()


def run_script(script):
    """stdout of script, run by a fresh interpreter that imports heckedist from src."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(heckedist.__file__)))
    return subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          check=True, capture_output=True, text=True).stdout


def test_import_leaves_scipy_unloaded():
    # box_measure, predict and synthesize use the closed form, and the nu
    # side's Gauss-Legendre rule runs on the standard library
    script = (
        "import json, sys, heckedist\n"
        "box = heckedist.Box(2, (1,), ((2, (0.3, 1.2)),), (0, 0), 4.0)\n"
        "v = heckedist.box_measure(box, 'pl')\n"
        "F = heckedist.make_field(73)\n"
        "heckedist.predict(F, 1.0, box, 3.0, {'2:0': (0.0, 1.0)})\n"
        "heckedist.synthesize(F, ['2:0'], box, 50, seed=1)\n"
        "before = 'scipy' in sys.modules\n"
        "heckedist.nu_measure(0).interval(0.1j, 1.0j)\n"
        "print(json.dumps([before, 'scipy' in sys.modules, v.value, v.error]))\n")
    before, after, value, error = json.loads(run_script(script))
    assert not before and not after
    # the value of the quad route it replaced, and the closed-form bound
    assert value == pytest.approx(6.492585269229824, rel=1e-13)
    assert error == pytest.approx(2.2100972832795905e-14, rel=1e-6)


def test_count_leaves_scipy_unloaded():
    # counting needs no quadrature: its box and its digit table are numpy only
    script = (
        "import json, sys, heckedist\n"
        "box = heckedist.Box(1, (1,), (), (0,), 3.0)\n"
        "ds = heckedist.Dataset(heckedist.make_field('Q'), [[1.0], [2.0], [5.0]],\n"
        "                       [[0], [0], [0]], ('2:0',), [[0.5], [1.5], [0.5]],\n"
        "                       [0.25, 1e-300, 3.0])\n"
        "c = heckedist.count(ds, box, 3.0, {'2:0': (0.0, 1.0)})\n"
        "print(json.dumps([c, 'scipy' in sys.modules]))\n")
    assert json.loads(run_script(script)) == [0.25, False]
