"""Hecke eigenvalue distributions over totally real fields.

Exact local Hecke-algebra arithmetic, spectral and Sato-Tate measures,
Kloosterman sums with characters, and an equidistribution test harness,
for Q and real quadratic fields at desk scale.
"""

from types import ModuleType as _ModuleType

from heckedist.fields import (
    FieldError,
    FieldElement,
    Ideal,
    NumberField,
    PrimeIdeal,
    UnitGroupData,
    factor_rational_prime,
    ideal_prime_factorization,
    ideal_valuation,
    inverse_different,
    make_field,
    prime_by_label,
    unit_square_class,
)
from heckedist.hecke import (
    HeckeError,
    LocalHeckeElement,
    SymLaurentPoly,
    brute_force_convolution,
    coset_representatives,
    expected_coset_count,
    from_sym_laurent,
    lambda_from_nu,
    nu_from_lambda,
    nu_strip_height,
    s_poly,
    s_poly_eval,
    verify_relation,
)
from heckedist.measures import (
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
    spectral_measure,
    v1_atoms_in,
    v1_measure,
)
from heckedist.kloosterman import (
    DirichletCharacter,
    KloostermanError,
    KloostermanQuery,
    WeilRow,
    WeilScanResult,
    delta_term,
    evaluate,
    rational_kloosterman,
    symmetry_check,
    weil_scan,
)
from heckedist.equidist import (
    Dataset,
    EquidistError,
    Prediction,
    Report,
    ReportRow,
    TauData,
    count,
    level_index,
    predict,
    run_report,
    synthesize,
    tau_source,
    tau_table,
    verify_tau_identities,
)

__version__ = "0.1.0"

# every public name is spelled once, in the imports above
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
