"""Hecke eigenvalue distributions over totally real fields.

Exact local Hecke-algebra arithmetic, spectral and Sato-Tate measures,
Kloosterman sums with characters, and an equidistribution test harness,
for Q and real quadratic fields at desk scale.

Only the array routes load numpy: ``heckedist.equidist`` (datasets, counts,
the tau expansion), ``brute_force_convolution`` and
``SatoTateMeasure.inverse_cdf_table``; the npl quadrature
(``NuMeasure.interval``, hence ``npl_consistency``) loads scipy.  Everything
else runs on the standard library, and ``import heckedist`` loads neither:
``heckedist.equidist`` sits in ``sys.modules`` as a lazy module that runs its
code on first attribute access, and its names here resolve through the
module ``__getattr__``.
"""

import importlib.util as _util
import sys as _sys
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

_EQUIDIST_NAMES = frozenset((
    "Dataset", "EquidistError", "Prediction", "Report", "ReportRow", "TauData", "count",
    "level_index", "predict", "run_report", "synthesize", "tau_source", "tau_table",
    "verify_tau_identities",
))

# registered the way `import heckedist.equidist` would, but run on first attribute access
_spec = _util.find_spec(__name__ + ".equidist")
_spec.loader = _util.LazyLoader(_spec.loader)
equidist = _sys.modules[_spec.name] = _util.module_from_spec(_spec)
_spec.loader.exec_module(equidist)

__version__ = "0.1.0"

# every public name is spelled once, in the imports above or in _EQUIDIST_NAMES
__all__ = sorted([name for name, value in globals().items()
                  if not name.startswith("_") and not isinstance(value, _ModuleType)]
                 + list(_EQUIDIST_NAMES))


def __getattr__(name):
    # not cached here: a name read while perfbench's tracer wraps equidist
    # would otherwise keep the wrapper after the tracer restores the module
    if name in _EQUIDIST_NAMES:
        return getattr(equidist, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | _EQUIDIST_NAMES)
