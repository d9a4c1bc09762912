"""The package's public name list."""

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
