"""The package's public name list, and which of its routes load numpy."""

import json
import os
import subprocess
import sys

import pytest

import heckedist

# the 65 public names; __all__ is derived from the package's imports, so it is pinned here
EXPORTED = frozenset((
    "Box", "Dataset", "DirichletCharacter", "EquidistError", "FieldElement", "FieldError",
    "HeckeError", "Ideal", "KloostermanError", "KloostermanQuery", "LocalHeckeElement",
    "MeasureError", "MeasureValue", "NuMeasure", "NumberField", "Prediction", "PrimeIdeal",
    "Report", "ReportRow", "SatoTateMeasure", "SpectralMeasure", "SymLaurentPoly", "TauData",
    "UnitGroupData", "WeilRow", "WeilScanResult", "box_measure", "brute_force_convolution",
    "coset_representatives", "count", "delta_term", "evaluate", "expected_coset_count",
    "factor_rational_prime", "from_sym_laurent",
    "ideal_prime_factorization", "ideal_valuation", "inverse_different", "lambda_from_nu",
    "level_index", "make_field", "measure_interval", "npl_consistency", "nu_from_lambda",
    "nu_measure", "nu_strip_height", "pl_atoms_in", "pl_measure", "predict",
    "prime_by_label", "rational_kloosterman", "run_report", "s_poly", "s_poly_eval",
    "spectral_measure", "symmetry_check", "synthesize", "tau_source", "tau_table",
    "unit_square_class", "v1_atoms_in", "v1_measure", "verify_relation",
    "verify_tau_identities", "weil_scan",
))


def test_all_names_resolve_once():
    # a stale entry breaks only `from heckedist import *`, which no other test runs
    assert len(heckedist.__all__) == len(set(heckedist.__all__))
    for name in heckedist.__all__:
        assert hasattr(heckedist, name), name


def test_all_is_the_exported_name_set():
    assert len(EXPORTED) == 65
    assert set(heckedist.__all__) == EXPORTED
    assert heckedist.__all__ == sorted(EXPORTED)


def test_dir_lists_every_exported_name():
    assert EXPORTED <= set(dir(heckedist))


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from heckedist import *", namespace)
    assert EXPORTED <= set(namespace)
    assert namespace["tau_source"] is heckedist.equidist.tau_source


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'heckedist' has no attribute 'tau'$"):
        heckedist.tau


def run_fresh(script):
    """The last stdout line of script, run by a fresh interpreter on this package, as JSON."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(heckedist.__file__)))
    out = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def test_import_loads_no_numpy_until_an_equidist_name_is_read():
    # heckedist.equidist is registered at once (perfbench's tracer looks it up in
    # sys.modules) but runs its code, and imports numpy, on first attribute access
    script = ("import json, sys, heckedist\n"
              "before = ['numpy' in sys.modules, 'scipy' in sys.modules,\n"
              "          type(sys.modules['heckedist.equidist']).__name__]\n"
              "heckedist.tau_source\n"
              "print(json.dumps(before + ['numpy' in sys.modules,\n"
              "                           type(sys.modules['heckedist.equidist']).__name__]))\n")
    assert run_fresh(script) == [False, False, "_LazyModule", True, "module"]


@pytest.mark.parametrize("argv, loads_numpy", [
    (["field", "info"], False),
    (["--field", "Q(sqrt 5)", "kloosterman", "eval", "--c", "2,0", "--r", "1,0", "--rp", "1,0"],
     False),
    (["measure", "phi", "--p", "2:0", "--spoly", "1"], False),
    (["hecke", "verify-relation", "--p", "2", "--k", "1", "--m", "1", "--no-brute"], False),
    # the brute-force route over Q runs by default
    (["hecke", "verify-relation", "--p", "2", "--k", "1", "--m", "1"], True),
    (["equidist", "tau", "--upto", "10"], True),
    # the nu side's Gauss-Legendre rule runs on the standard library
    (["measure", "eval", "--kind", "npl0", "--interval", "0.1i:2i"], False),
], ids=["field-info", "kloosterman-eval", "measure-phi", "verify-relation-no-brute",
        "verify-relation", "equidist-tau", "measure-eval-npl0"])
def test_cli_loads_numpy_only_for_array_routes(argv, loads_numpy):
    script = ("import json, sys\n"
              "from heckedist.cli import main\n"
              "code = main(%r)\n"
              "print(json.dumps([code, 'numpy' in sys.modules, 'scipy' in sys.modules]))\n"
              % (argv,))
    assert run_fresh(script) == [0, loads_numpy, False]


def test_npl_routes_run_where_scipy_cannot_be_imported():
    # a None entry in sys.modules makes `import scipy` raise ImportError
    script = ("import json, sys\n"
              "sys.modules['scipy'] = None\n"
              "try:\n"
              "    import scipy\n"
              "    blocked = False\n"
              "except ImportError:\n"
              "    blocked = True\n"
              "import heckedist\n"
              "from heckedist.cli import main\n"
              "nu, pl = heckedist.npl_consistency(1, 0.05j, 2.0j)\n"
              "code = main(['measure', 'eval', '--kind', 'npl1', '--interval', '0.1i:2i'])\n"
              "print(json.dumps([blocked, code, abs(nu.value - pl.value)]))\n")
    blocked, code, diff = run_fresh(script)
    assert blocked and code == 0 and diff < 1e-14
