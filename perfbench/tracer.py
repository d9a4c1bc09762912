"""Spans around the public heckedist functions, recorded from outside the package.

``Tracer.install()`` replaces each target with a wrapper in every heckedist
module namespace that binds it (``kloosterman`` imports names from
``fields``, ``equidist`` from ``measures``, and the package re-exports
everything), and ``uninstall()`` puts the originals back.  A span is
``(name, start, end, parent, run)``; spans stay in memory and are written
out once, when the run ends.  Per-element arithmetic (``FieldElement``
operators, ``Fraction``) is deliberately not wrapped, so the overhead stays
small; ``trace.overhead_ratio`` reports it.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (span name, module, owner class or None, attribute, capture) -- capture maps
# (args, result) to a small value kept for the per-layer counts
TARGETS = (
    ("equidist.tau_table", "equidist", None, "tau_table", lambda a, r: r),
    ("equidist.verify_tau_identities", "equidist", None, "verify_tau_identities", None),
    ("equidist.tau_source", "equidist", None, "tau_source", None),
    ("kloosterman.evaluate", "kloosterman", None, "evaluate", lambda a, r: a[0].c),
    ("kloosterman.weil_scan", "kloosterman", None, "weil_scan", lambda a, r: len(r.rows)),
    ("fields.ResidueRing.unit_inverse_table", "fields", "ResidueRing", "unit_inverse_table",
     lambda a, r: len(r)),
    ("fields.ideal_prime_factorization", "fields", None, "ideal_prime_factorization", None),
    ("fields.NumberField.unit_group", "fields", "NumberField", "unit_group", None),
    ("hecke.verify_relation", "hecke", None, "verify_relation", None),
    ("hecke.LocalHeckeElement.mul", "hecke", "LocalHeckeElement", "__mul__", None),
    ("hecke.SymLaurentPoly.mul", "hecke", "SymLaurentPoly", "__mul__", None),
    ("hecke.LocalHeckeElement.to_sym_laurent", "hecke", "LocalHeckeElement", "to_sym_laurent",
     None),
    ("hecke.from_sym_laurent", "hecke", None, "from_sym_laurent", None),
    ("hecke.brute_force_convolution", "hecke", None, "brute_force_convolution",
     lambda a, r: a[:3]),
    ("hecke.coset_representatives", "hecke", None, "coset_representatives",
     lambda a, r: len(r)),
    ("equidist.synthesize", "equidist", None, "synthesize", None),
    ("equidist.Dataset.to_jsonl", "equidist", "Dataset", "to_jsonl", None),
    ("equidist.Dataset.from_jsonl", "equidist", "Dataset", "from_jsonl", None),
    ("equidist.Dataset.to_csv", "equidist", "Dataset", "to_csv", None),
    ("equidist.Dataset.from_csv", "equidist", "Dataset", "from_csv", None),
    ("equidist.Dataset.validate", "equidist", "Dataset", "validate", None),
    ("equidist.Dataset.scaled", "equidist", "Dataset", "scaled", None),
    ("equidist.count", "equidist", None, "count", None),
    ("equidist.predict", "equidist", None, "predict", None),
    ("measures.box_measure", "measures", None, "box_measure", lambda a, r: r.error),
    ("measures.SatoTateMeasure.mass", "measures", "SatoTateMeasure", "mass",
     lambda a, r: r.error),
    ("measures.SatoTateMeasure.inverse_cdf_table", "measures", "SatoTateMeasure",
     "inverse_cdf_table", None),
    ("measures.SpectralMeasure.continuous_mass", "measures", "SpectralMeasure",
     "continuous_mass", lambda a, r: r.error),
)

MODULES = ("heckedist", "heckedist.fields", "heckedist.hecke", "heckedist.measures",
           "heckedist.kloosterman", "heckedist.equidist", "heckedist.cli")


class Tracer:
    def __init__(self):
        self.spans = []
        self.captured = defaultdict(list)
        self.run = 0
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn, capture):
        spans, stack, captured = self.spans, self._stack, self.captured
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.run)
            if capture is not None:
                captured[name].append(capture(args, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every target the package still has; a missing one reads 0."""
        mods = [sys.modules[m] for m in MODULES if m in sys.modules]
        for name, modname, owner, attr, capture in TARGETS:
            home = sys.modules["heckedist." + modname]
            if owner is None:
                original = getattr(home, attr, None)
                if original is None:
                    continue
                wrapped = self._wrap(name, original, capture)
                for mod in mods:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
                            self._restore.append((mod, key, original))
            else:
                cls = getattr(home, owner, None)
                original = vars(cls).get(attr) if cls is not None else None
                if original is None:
                    continue
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(name, original.__func__, capture))
                else:
                    wrapped = self._wrap(name, original, capture)
                setattr(cls, attr, wrapped)
                self._restore.append((cls, attr, original))

    def uninstall(self):
        for obj, key, original in reversed(self._restore):
            setattr(obj, key, original)
        self._restore = []

    def layer_metrics(self, jobs: int) -> dict:
        """Inclusive seconds, self seconds and calls per span name: set-up spans
        (run 0) count once, job spans are averaged over the traced jobs."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, run in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(float)
        for i, (name, t0, t1, parent, run) in enumerate(self.spans):
            share = 1.0 if run == 0 else 1.0 / jobs
            out[name + ".s"] += (t1 - t0) * share
            out[name + ".self_s"] += (t1 - t0 - child[i]) * share
            out[name + ".calls"] += share
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, t0, t1, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "run": run}) + "\n")
