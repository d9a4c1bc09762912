"""The four benchmark workloads: inputs from a seed, set-up, job and output checks.

Each workload is a class with

* ``sizes``: the input sizes printed with every run (the rationale is the
  workload's ``why`` in BENCHMARK.json);
* ``prepare()``: the set-up after ``import heckedist`` (timed as part of
  ``setup_s``), returning the bulk steps it ran;
* ``check_setup()``: output checks on the set-up, run after the clock stops;
* ``job()``: one timed unit of work, a list of operations;
* ``check_job()``: output checks on one job's results, run untimed;
* ``counts()``: per-layer counts derived from one traced job's captures
  and results, computed after the tracer is uninstalled.

An operation is ``(kind, name, thunk)``; ``kind`` is ``"query"`` for the
single requests whose latency feeds ``op_ms_*`` and ``"bulk"`` for the
scans, sweeps and ingest steps that only feed ``job_s``.  Inputs that vary
with the seed are chosen so that every seed costs about the same: the
benchmark compares medians across seeds.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from fractions import Fraction

REFS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")


def load_refs():
    with open(REFS_PATH) as fh:
        return json.load(fh)


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, separators=(",", ":"))
                          .encode()).hexdigest()


def coords_str(elt):
    return [str(elt.a), str(elt.b)]


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n) for n >= 1."""
    result = 1
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def ideals_up_to(disc: int, max_norm: int) -> int:
    """Number of nonzero ideals of norm <= max_norm in the quadratic order of
    discriminant disc, from the Dedekind-zeta coefficients sum_{d | n} (disc/d)."""
    return sum(kronecker(disc, d) * (max_norm // d) for d in range(1, max_norm + 1))


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


# -- tau ------------------------------------------------------------------------------


class Tau:
    """tau_source: one anchor table plus 100 single tables of seeded size."""

    # tables stay below ~30 KB operands: larger squarings track the machine's
    # speed drift too loosely for the calibration in worker.py to correct
    ANCHOR = 2600
    SMALL = 100
    CLASSICAL = {2: -24, 3: 252, 4: -1472, 5: 4830, 6: -6048}

    def __init__(self, H, seed, workdir, refs):
        self.H = H
        self.refs = refs["tau"]
        self.seed = seed
        self.sizes = {"anchor_n": self.ANCHOR, "ops": self.SMALL,
                      "op_n": "600 + 20 i + U[0, 20), i < 100, seeded order"}

    def prepare(self):
        rng = random.Random(self.seed)
        self.small = [600 + 20 * i + rng.randrange(20) for i in range(self.SMALL)]
        rng.shuffle(self.small)
        return []

    def check_setup(self):
        return []

    def job(self):
        ops = [("bulk", "tau_source", lambda: self.H.tau_source(self.ANCHOR))]
        ops += [("query", "tau_source", lambda n=n: self.H.tau_source(n)) for n in self.small]
        return ops

    def check_job(self, results):
        fails = []
        big = results[0]
        if big is None:
            return fails
        tau = big.tau
        for n, v in self.CLASSICAL.items():
            if tau[n] != v:
                fails.append("tau(%d) = %d, expected %d" % (n, tau[n], v))
        if digest([str(v) for v in tau]) != self.refs["digest"]:
            fails.append("tau table digest differs from the pinned reference")
        for i, (n, td) in enumerate(zip(self.small, results[1:]), start=1):
            if td is not None and td.tau != tau[:n + 1]:
                fails.append("op %d: tau_source(%d) is not a prefix of the anchor table" % (i, n))
        return fails

    def counts(self, captured, results):
        tables = captured.get("equidist.tau_table", [])
        return {"equidist.tau.coeffs": sum(len(t) for t in tables),
                "equidist.tau.table_bits": sum(abs(v).bit_length() for t in tables for v in t)}


# -- Kloosterman -------------------------------------------------------------------------


class Kloosterman:
    """Three Weil scans plus 200 single evaluate queries."""

    SCANS = (("Q", None, 150), ("Q5", 5, 100), ("Q94", 94, 60))

    def __init__(self, H, seed, workdir, refs):
        self.H = H
        self.seed = seed
        self.refs = refs["kloosterman"]
        self.sizes = {"scans": {name: max_norm for name, _, max_norm in self.SCANS},
                      "queries": len(self.refs["pool"])}

    def prepare(self):
        H = self.H
        self.fields = {name: H.make_field(m) for name, m, _ in self.SCANS}
        for f in self.fields.values():
            f.unit_group()
        chis = {name: H.DirichletCharacter.trivial(f, H.Ideal.unit_ideal(f))
                for name, f in self.fields.items()}
        rng = random.Random(self.seed)
        self.queries = []
        self.expected = []
        for slot in self.refs["pool"]:
            name, c, r, rp, re_, im_ = rng.choice(slot)
            f = self.fields[name]
            q = H.KloostermanQuery(f.element(*map(Fraction, c)), f.element(*map(Fraction, r)),
                                   f.element(*map(Fraction, rp)), chis[name])
            self.queries.append(q)
            self.expected.append(complex(re_, im_))
        return []

    def check_setup(self):
        return []

    def job(self):
        H = self.H
        ops = []
        for name, _, max_norm in self.SCANS:
            f = self.fields[name]
            ops.append(("bulk", "weil_scan %s" % name,
                        lambda f=f, max_norm=max_norm: H.weil_scan(
                            f, f.one(), f.one(), max_norm=max_norm)))
        ops += [("query", "evaluate", lambda q=q: H.evaluate(q)) for q in self.queries]
        return ops

    def moduli_missed(self, results):
        scan = results[2]
        f = self.fields["Q94"]
        return ideals_up_to(f.disc, self.SCANS[2][2]) - len(scan.rows) if scan else None

    def check_job(self, results):
        fails = []
        for (name, _, _), res in zip(self.SCANS, results[:3]):
            if res is None:
                continue
            for row in res.rows:
                if is_prime(row.norm) and row.abs_k > 2 * math.sqrt(row.norm) * (1 + 1e-9):
                    fails.append("%s: Weil bound fails at norm %d" % (name, row.norm))
            ref = self.refs["rows"].get(name)
            if ref is None:
                continue
            got = [(row.norm, coords_str(row.c)) for row in res.rows]
            if got != [(n, c) for n, c, _ in ref]:
                fails.append("%s: scan rows differ from the pinned row set" % name)
            elif any(abs(row.abs_k - k) > 1e-9 for row, (_, _, k) in zip(res.rows, ref)):
                fails.append("%s: |K| differs from the reference by more than 1e-9" % name)
        missed = self.moduli_missed(results)
        if missed is not None and missed < 0:
            fails.append("Q94: scan returned more moduli than there are ideals")
        for i, (k, want) in enumerate(zip(results[3:], self.expected), start=4):
            if k is not None and abs(k - want) > 1e-9:
                fails.append("op %d: K = %r, reference %r" % (i, k, want))
        return fails

    def counts(self, captured, results):
        H = self.H
        terms = 0
        for c in captured.get("kloosterman.evaluate", []):
            units = 1
            for prime, v in H.ideal_prime_factorization(H.Ideal.principal(c)):
                np_ = prime.absolute_norm()
                units *= (np_ - 1) * np_ ** (v - 1)
            terms += units
        return {"kloosterman.terms": terms,
                "kloosterman.weil_scan.rows": sum(captured.get("kloosterman.weil_scan", [])),
                "kloosterman.moduli_missed": self.moduli_missed(results),
                "fields.residue_units": sum(captured.get("fields.ResidueRing.unit_inverse_table", []))}


# -- equidistribution --------------------------------------------------------------------


class Equidist:
    """Ingest of 10^5 synthetic records in set-up, then count + predict queries.

    The checks use only the public Dataset API and the files it writes, so a
    change to the in-memory record model keeps them valid.
    """

    FIELD = 73
    LABELS = ("2:0", "3:0")
    RECORDS = 10 ** 5
    SYNTH_SEED = 20260819
    QUERIES = 100

    def __init__(self, H, seed, workdir, refs):
        self.H = H
        self.seed = seed
        self.workdir = workdir
        self.refs = refs["equidist"]
        self.sizes = {"field": "Q(sqrt %d)" % self.FIELD, "labels": list(self.LABELS),
                      "records": self.RECORDS, "queries": self.QUERIES + 2}

    def path(self, name):
        return os.path.join(self.workdir, name)

    def prepare(self):
        H = self.H
        self.field = H.make_field(self.FIELD)
        self.spec = "Q(sqrt %d)" % self.FIELD
        self.box = H.Box(2, (1,), ((2, (0.3, 1.2)),), (0, 0), 4.0)
        synth = H.synthesize(self.field, list(self.LABELS), self.box, self.RECORDS,
                             seed=self.SYNTH_SEED)
        synth.to_jsonl(self.path("data.jsonl"))
        self.from_jsonl = H.Dataset.from_jsonl(self.path("data.jsonl"), self.spec)
        synth.to_csv(self.path("data.csv"))
        self.from_csv = H.Dataset.from_csv(self.path("data.csv"), self.spec)
        self.from_csv.validate(self.field)
        full = {label: (0.0, 2 * math.sqrt(int(label.split(":")[0]))) for label in self.LABELS}
        self.full = H.predict(self.field, 1.0, self.box, 4.0, full).product
        self.factor = self.full / self.from_csv.total_weight()
        self.data = self.from_csv.scaled(self.factor)
        return ["synthesize", "to_jsonl", "from_jsonl", "to_csv", "from_csv", "validate",
                "scaled"]

    def _queries(self):
        rng = random.Random(self.seed)
        out = []
        for _ in range(self.QUERIES):
            t = rng.uniform(1.0, 4.0)
            windows = {}
            for label in self.LABELS:
                hi = 2 * math.sqrt(int(label.split(":")[0]))
                width = rng.uniform(0.45, 0.7) * hi
                a = rng.uniform(0.0, hi - width)
                windows[label] = (a, a + width)
            out.append((t, windows))
        return out

    def check_setup(self):
        import csv
        import numpy as np

        def sha(name):
            with open(self.path(name), "rb") as fh:
                return hashlib.sha256(fh.read()).hexdigest()

        fails = []
        for name, key in (("data.jsonl", "jsonl_sha256"), ("data.csv", "csv_sha256")):
            if sha(name) != self.refs[key]:
                fails.append("%s bytes differ from the pinned digest" % name)
        # each read-back writes the bytes it was read from, and the JSONL copy
        # writes the same CSV as the synthesized dataset
        self.from_jsonl.to_jsonl(self.path("again.jsonl"))
        self.from_jsonl.to_csv(self.path("again.csv"))
        self.from_csv.to_csv(self.path("again2.csv"))
        if sha("again.jsonl") != self.refs["jsonl_sha256"]:
            fails.append("JSONL round trip changed the records")
        if sha("again2.csv") != self.refs["csv_sha256"]:
            fails.append("CSV round trip changed the records")
        if sha("again.csv") != self.refs["csv_sha256"]:
            fails.append("JSONL and CSV copies hold different records")
        self.from_jsonl = self.from_csv = None
        # columns for the independent count, parsed here rather than by heckedist
        with open(self.path("data.csv"), newline="") as fh:
            rows = csv.reader(fh)
            header = next(rows)
            cols = np.array([[float(x) for x in row] for row in rows])
        self.cols = {name: cols[:, j] for j, name in enumerate(header)}
        self.cols["weight"] = self.cols["weight"] * self.factor
        if not math.isclose(self.data.total_weight(), math.fsum(self.cols["weight"].tolist()),
                            rel_tol=1e-12):
            fails.append("scaled dataset weight differs from the CSV weights times the factor")
        self.query_list = self._queries()
        return fails

    def job(self):
        H = self.H
        ops = []

        def query(t, windows):
            return (H.count(self.data, self.box, t, windows),
                    H.predict(self.field, 1.0, self.box, t, windows).product)

        for t, windows in self.query_list:
            ops.append(("query", "count+predict", lambda t=t, w=windows: query(t, w)))
        ops.append(("query", "count+predict final",
                    lambda: query(4.0, {"2:0": (0.0, 1.0), "3:0": (1.0, 2.0)})))
        ops.append(("query", "count+predict empty",
                    lambda: query(4.0, {"2:0": (2.9, 3.0), "3:0": (1.0, 2.0)})))
        return ops

    def _column_count(self, t, windows):
        c = self.cols
        mask = (c["xi_1"] == 0) & (c["xi_2"] == 0)
        mask &= (-t <= c["lambda_1"]) & (c["lambda_1"] <= t)
        mask &= (0.3 <= c["lambda_2"]) & (c["lambda_2"] <= 1.2)
        for label, (a, b) in windows.items():
            mask &= (a <= c[label]) & (c[label] <= b)
        return math.fsum(c["weight"][mask].tolist())

    def check_job(self, results):
        fails = []
        for i, ((t, windows), res) in enumerate(zip(self.query_list, results), start=1):
            if res is None:
                continue
            cnt, pred = res
            if cnt != self._column_count(t, windows):
                fails.append("query %d: count differs from the independent column count" % i)
            # records are i.i.d. draws from the limit law: the ratio sits within a few
            # binomial standard deviations of 1
            expected = self.RECORDS * pred / self.full
            if pred <= 0 or abs(cnt / pred - 1) > 6 / math.sqrt(expected) + 0.01:
                fails.append("query %d: count/prediction %r outside its binomial band"
                             % (i, cnt / pred if pred > 0 else math.nan))
        final, empty = results[-2], results[-1]
        if final is not None and not 0.97 <= final[0] / final[1] <= 1.03:
            fails.append("final count/prediction %r outside [0.97, 1.03]" % (final[0] / final[1]))
        if empty is not None and empty != (0.0, 0.0):
            fails.append("empty window gave %r, expected exactly 0" % (empty,))
        return fails

    def counts(self, captured, results):
        return {"equidist.dataset.records": self.RECORDS,
                "equidist.dataset.bytes_jsonl": os.path.getsize(self.path("data.jsonl")),
                "equidist.dataset.bytes_csv": os.path.getsize(self.path("data.csv"))}


# -- Hecke --------------------------------------------------------------------------------


class Hecke:
    """verify_relation over a seeded norm set, brute-force convolution, coset enumeration."""

    NORM_POOL = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32)
    NORMS = 8
    KMAX = 10
    BRUTE = ((2, 4, 4), (2, 5, 3), (3, 3, 2), (3, 4, 1), (5, 2, 2))
    # (prime of Q(sqrt 5), k): several enumerations under 0.4 s each rather than
    # one 2.5 s call at 2:0, k = 3, which the calibration tracked too loosely
    COSETS = (("2:0", 2), ("5:0", 2), ("11:0", 1), ("11:1", 1), ("19:0", 1), ("29:0", 1))

    def __init__(self, H, seed, workdir, refs):
        self.H = H
        self.seed = seed
        self.refs = refs["hecke"]
        self.sizes = {"norms": "%d of %s" % (self.NORMS, list(self.NORM_POOL)),
                      "k_m_max": self.KMAX, "brute": [list(b) for b in self.BRUTE],
                      "cosets": "Q(sqrt 5) (prime, k) in %s" % list(self.COSETS)}

    def prepare(self):
        self.norms = sorted(random.Random(self.seed).sample(self.NORM_POOL, self.NORMS))
        f5 = self.H.make_field(5)
        f5.unit_group()
        self.primes = {label: self.H.prime_by_label(f5, label) for label, _ in self.COSETS}
        return []

    def check_setup(self):
        return []

    def grid(self):
        return [(n, k, m) for n in self.norms for k in range(1, self.KMAX + 1)
                for m in range(1, self.KMAX + 1)]

    def job(self):
        H = self.H
        ops = [("query", "verify_relation",
                lambda n=n, k=k, m=m: H.verify_relation("%d:0" % n, n, k, m))
               for n, k, m in self.grid()]
        ops += [("bulk", "brute_force_convolution",
                 lambda p=p, k=k, m=m: H.brute_force_convolution(p, 2 * k, 2 * m))
                for p, k, m in self.BRUTE]
        ops += [("bulk", "coset_representatives",
                 lambda p=self.primes[label], k=k: H.coset_representatives(p, k))
                for label, k in self.COSETS]
        return ops

    @staticmethod
    def closed_form(n, k, m):
        # T(P^2k) T(P^2m) = sum_{|k-m| <= j <= k+m} N^(k+m-j) T(P^2j) (Clebsch-Gordan)
        return {"T%d" % n ** (2 * j): n ** (k + m - j) for j in range(abs(k - m), k + m + 1)}

    def check_job(self, results):
        fails = []
        grid = self.grid()
        by_norm = {}
        for (n, k, m), res in zip(grid, results):
            if res is None:
                continue
            if res != self.closed_form(n, k, m):
                fails.append("verify_relation(%d, %d, %d) breaks the closed form" % (n, k, m))
            by_norm.setdefault(n, []).append(res)
        for n, rows in by_norm.items():
            if digest(rows) != self.refs["relation_digests"][str(n)]:
                fails.append("norm %d: structure-constant digest differs" % n)
        brute = results[len(grid):len(grid) + len(self.BRUTE)]
        for (p, k, m), el in zip(self.BRUTE, brute):
            if el is None:
                continue
            want = self.closed_form(p, k, m)
            got = {"T%d" % p ** (2 * j): int(c) for j, c in enumerate(el.coeffs) if c != 0}
            if got != want:
                fails.append("brute_force_convolution(%d, %d, %d) breaks the closed form"
                             % (p, 2 * k, 2 * m))
        if None not in brute and digest([[str(c) for c in el.coeffs] for el in brute]) \
                != self.refs["brute_digest"]:
            fails.append("brute-force coefficient digest differs")
        for (label, k), reps in zip(self.COSETS, results[len(grid) + len(self.BRUTE):]):
            if reps is None:
                continue
            if len(reps) != self.H.expected_coset_count(self.primes[label].absolute_norm(), k):
                fails.append("coset count at %s, k=%d is %d" % (label, k, len(reps)))
            if digest([[coords_str(x) for x in rep] for rep in reps]) \
                    != self.refs["coset_digests"]["%s/%d" % (label, k)]:
                fails.append("coset digest at %s, k=%d differs" % (label, k))
        return fails

    def counts(self, captured, results):
        H = self.H
        pairs = sum(H.expected_coset_count(p, tk // 2) * H.expected_coset_count(p, tm // 2)
                    for p, tk, tm in captured.get("hecke.brute_force_convolution", []))
        return {"hecke.brute.pairs": pairs,
                "hecke.cosets": sum(captured.get("hecke.coset_representatives", []))}


WORKLOADS = {"tau": Tau, "kloosterman": Kloosterman, "equidist": Equidist, "hecke": Hecke}
