"""Regenerate refs.json, the pinned outputs the benchmark checks against.

    PYTHONPATH=src python3 perfbench/make_refs.py

The pinned file was generated from the package as it stood when the
benchmark was added.  Regenerate it only when an output is meant to change,
and say why in the change that does it.
"""

from __future__ import annotations

import json
import os
import random
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import heckedist as H  # noqa: E402
from workloads import (REFS_PATH, Equidist, Hecke, Kloosterman, Tau, coords_str,  # noqa: E402
                       digest)

POOL_SLOTS = 100   # per field
POOL_VARIANTS = 4  # per slot; each variant of a slot costs the same


def nonzero(rng, bound):
    # r = 0 or r' = 0 makes a query cheaper, so every variant of a slot avoids it
    return rng.choice((-1, 1)) * rng.randrange(1, bound + 1)


def q_pool(Q):
    slots = []
    for s in range(POOL_SLOTS):
        c = 2 + round(s * 248 / (POOL_SLOTS - 1))
        slot = []
        for v in range(POOL_VARIANTS):
            rng = random.Random(1000 * s + v)
            slot.append((Q.element((-1) ** v * c), Q.element(nonzero(rng, 8)),
                         Q.element(nonzero(rng, 8))))
        slots.append(("Q", slot))
    return slots


def f5_pool(F):
    od = H.inverse_different(F).basis_elements()
    slots = []
    for s in range(POOL_SLOTS):
        target = 4 + round(s * 146 / (POOL_SLOTS - 1))
        c0 = None
        while c0 is None:
            for y in range(0, 40):
                for x in range(1, 40):
                    if abs(F.element(x, y).norm()) == target:
                        c0 = F.element(x, y)
                        break
                if c0 is not None:
                    break
            target += 1
        # c, -c and the conjugates generate ideals with isomorphic residue rings
        variants = (c0, -c0, c0.conjugate(), -c0.conjugate())
        slot = []
        for v, c in enumerate(variants):
            rng = random.Random(5000 + 1000 * s + v)
            r = od[0] * nonzero(rng, 3) + od[1] * rng.randrange(-3, 4)
            rp = od[0] * nonzero(rng, 3) + od[1] * rng.randrange(-3, 4)
            slot.append((c, r, rp))
        slots.append(("Q5", slot))
    return slots


def kloosterman_refs():
    fields = {"Q": H.make_field(None), "Q5": H.make_field(5)}
    chis = {k: H.DirichletCharacter.trivial(f, H.Ideal.unit_ideal(f)) for k, f in fields.items()}
    pool = []
    for name, slot in q_pool(fields["Q"]) + f5_pool(fields["Q5"]):
        out = []
        for c, r, rp in slot:
            k = H.evaluate(H.KloostermanQuery(c, r, rp, chis[name]))
            out.append([name, coords_str(c), coords_str(r), coords_str(rp), k.real, k.imag])
        pool.append(out)
    rows = {}
    for name, m, max_norm in Kloosterman.SCANS[:2]:
        f = fields[name]
        res = H.weil_scan(f, f.one(), f.one(), max_norm=max_norm)
        rows[name] = [[row.norm, coords_str(row.c), row.abs_k] for row in res.rows]
    return {"pool": pool, "rows": rows}


def hecke_refs():
    relation = {}
    for n in Hecke.NORM_POOL:
        relation[str(n)] = digest([H.verify_relation("%d:0" % n, n, k, m)
                                   for k in range(1, Hecke.KMAX + 1)
                                   for m in range(1, Hecke.KMAX + 1)])
    brute = [H.brute_force_convolution(p, 2 * k, 2 * m) for p, k, m in Hecke.BRUTE]
    f5 = H.make_field(5)
    cosets = {"%s/%d" % (label, k): digest([[coords_str(x) for x in rep] for rep in
                                            H.coset_representatives(H.prime_by_label(f5, label), k)])
              for label, k in Hecke.COSETS}
    return {"relation_digests": relation,
            "brute_digest": digest([[str(c) for c in el.coeffs] for el in brute]),
            "coset_digests": cosets}


def equidist_refs():
    import hashlib
    with tempfile.TemporaryDirectory() as tmp:
        wl = Equidist(H, 0, tmp, {"equidist": None})
        wl.prepare()
        out = {}
        for name, key in (("data.jsonl", "jsonl_sha256"), ("data.csv", "csv_sha256")):
            with open(wl.path(name), "rb") as fh:
                out[key] = hashlib.sha256(fh.read()).hexdigest()
    return out


def main():
    refs = {
        "tau": {"digest": digest([str(v) for v in H.tau_source(Tau.ANCHOR).tau])},
        "kloosterman": kloosterman_refs(),
        "hecke": hecke_refs(),
        "equidist": equidist_refs(),
    }
    with open(REFS_PATH, "w") as fh:
        json.dump(refs, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
