"""Eigenvalue datasets, synthesis, exact tau source, and discrepancy reports.

The counting function N(box_t; (J_p)) sums weights of records whose
archimedean eigenvalue vector lies in the box at threshold t and whose
Hecke eigenvalues lie in the closed windows J_p.  The main-term
prediction is

    2 sqrt|D_F| vol / (2 pi)^d  *  pl(box_t)  *  prod_p Phi_p(J_p)

with the V1 box measure as the error yardstick.  The covolume is an
input (with a classical index helper), never computed from scratch.

A Dataset is a NumberField (each loader parses its caller's spec first) and
numpy columns, one row per record: lambda_inf and xi of shape (M, d),
lambda_p of shape (M, L) under one sorted tuple of prime labels, weight of
shape (M,) and an optional src tag.  The constructor validates them once,
so every loader rejects bad input at load time, and stores the tables in
column-major order, so each column a query reads is one run.  A window's
label and a column's meet at their prime (a bare p is p:0), by one map
per dataset built on first use; two labels on one prime raise.
The count reads an index built on its first call: the rows sorted by
parity code sum_j xi_j 2^j, then lambda_1.  The box parity picks one
block and lambda_1's closed window (every box restricts it) is one slice
of it by two binary searches, which on sorted finite floats keep exactly
the rows a <= x <= b keeps.  The index also holds each column's least
and greatest value lo, hi over each block, so before reading a row the
count settles every closed window [a, b] exactly: a <= lo and hi <= b
keeps every row of the block and the window is skipped; b < lo or a > hi
keeps none and the count is 0.0, as for a parity with no block; the
first other window is written straight into a boolean mask over the
slice and each later one narrows it in place.  The kept weights sum exactly
as one float64 matrix-vector product against a digit table: every weight
is an integer times 2^e0, split into digits of b = 53 - n.bit_length()
bits for n rows, so each digit column sums to an integer below 2^53 in
any order, and the Python int total rounds once, bit for bit math.fsum,
OverflowError included (ceil((53 + span)/b) digits per row, span the
binary exponent range of the nonzero weights).  At 10^5 rows the build
takes 7.0-7.4 ms, or 13.2-13.7 ms right after the previous copy is freed
(the allocator's state), against about 1.4 ms for a full-mask count's
digit table, and each count saves about 0.28 ms of 0.51, so the index
pays off from about 20 counts per dataset (about 45 after a free); a
4-point run_report is about 5 ms slower (about 11 ms).  Queries
with a negative or non-finite t or a non-finite or reversed window are
rejected by count and predict alike.
The writers format 4096 rows per % over a repeated row template, with one
write (a JSONL src tag is a pre-encoded %s value); the JSONL reader parses
each line by raw_decode as json.loads would, calling json.loads only to
report a bad line.  Both readers build flat columns, no per-row container.

Synthetic datasets draw archimedean coordinates from the normalized
restriction of pl_xi to the box (atoms included with their relative
mass) and Hecke coordinates from the Sato-Tate measure by inverse CDF,
using counter-based Philox streams so a seed fixes the dataset bytes.

The tau source expands q prod (1-q^n)^24 exactly as q times the eighth
power of Jacobi's series prod (1-q^n)^3 = sum (-1)^k (2k+1) q^{k(k+1)/2},
which has only about sqrt(2n) terms: J^2 is one float64 bincount over
the pairs of terms, then J^4 and J^8 are two exact squarings by numpy's
real FFTs (rfft/irfft, loaded on the first table).  Each splits its input into
the fewest balanced limbs for which a proven bound on the transforms'
rounding error (Percival's per-level bound carried through products and
sums, see _fft_square) stays below 1/8, rounds every output to an
integer (observed error at most 3.1e-5), raises if one is off by more
than 1/4, and keeps each coefficient as a uint64 low word and an exact
int64 high word; Python ints enter only on rows past int64.  Before any
eigenvalue is emitted the whole table is checked on those words: at each
composite n, with p its least prime factor, tau(n) = tau(p) tau(n/p) -
[p | n/p] p^11 tau(n/p^2), which with tau(1) = 1 is equivalent to
multiplicativity and the prime-power recursion, each difference proven 0
by its residues mod 2^64 and mod P = 2^26 - 5 and a float64 bound |D| < 2^89
< 2^64 P; Deligne's bound at every prime is a float64 filter with a 2^-40
margin, and every prime inside it is checked on Python ints.  The single
emitted record is the horizontal family of one holomorphic form, a pipeline
demonstration rather than a vertical average.
"""

from __future__ import annotations

import csv
import json
import math
import operator
import warnings
from dataclasses import astuple, dataclass, replace
from functools import cached_property
from fractions import Fraction
from itertools import chain
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .fields import (Ideal, NumberField, PrimeIdeal, ideal_prime_factorization, make_field,
                     prime_by_label)
from .measures import Box, SatoTateMeasure, SpectralMeasure, box_measure, pl_atoms_in


class EquidistError(ValueError):
    """Domain error in dataset handling or prediction."""


# -- dataset model ---------------------------------------------------------------


@dataclass(eq=False)
class Dataset:
    """Spectral data over one field, one row per automorphic datum.

    Columns: lambda_inf (M, d) archimedean eigenvalue vectors, xi (M, d)
    parities, lambda_p (M, L) Hecke eigenvalues in the order of the sorted
    prime_labels, weight (M,), and an optional per-row src tag.  The
    constructor validates once: field is a NumberField, shapes agree, values
    are finite, weights are nonnegative and parities are 0 or 1.  The tables
    are stored column-major and weight contiguous, so every column is one run.
    """

    field: NumberField
    lambda_inf: np.ndarray
    xi: np.ndarray
    prime_labels: Tuple[str, ...]
    lambda_p: np.ndarray
    weight: np.ndarray
    src: Optional[Sequence[Optional[str]]] = None

    def __post_init__(self):
        if not isinstance(self.field, NumberField):
            raise EquidistError("dataset field must be a NumberField, got %r" % (self.field,))
        try:
            lam, xi, lp, w = (np.asarray(c, dtype=np.float64) for c in
                              (self.lambda_inf, self.xi, self.lambda_p, self.weight))
        except (TypeError, ValueError, OverflowError) as exc:
            raise EquidistError("dataset columns must be numeric arrays (%s)" % exc) from None
        labels = tuple(self.prime_labels)
        if (w.ndim != 1 or lam.ndim != 2 or lam.shape[0] != len(w) or xi.shape != lam.shape
                or lp.shape != (len(w), len(labels))
                or (self.src is not None and len(self.src) != len(w))):
            raise EquidistError(
                "column shapes disagree: lambda_inf %s, xi %s, lambda_p %s for %d labels, "
                "weight %s" % (lam.shape, xi.shape, lp.shape, len(labels), w.shape))
        if len(set(labels)) != len(labels):
            raise EquidistError("prime labels must be distinct")
        if not (np.isfinite(lam).all() and np.isfinite(lp).all() and np.isfinite(w).all()):
            raise EquidistError("lambda_inf, lambda_p and weight must be finite")
        if (w < 0).any():
            raise EquidistError("weights must be nonnegative")
        if not ((xi == 0) | (xi == 1)).all():
            raise EquidistError("xi entries must be 0 or 1")
        order = sorted(range(len(labels)), key=labels.__getitem__)
        self.prime_labels = tuple(labels[k] for k in order)
        self.lambda_inf, self.xi, self.lambda_p, self.weight = (
            np.asfortranarray(lam), np.asfortranarray(xi, dtype=np.int8),
            np.asfortranarray(lp[:, order]), np.ascontiguousarray(w))

    def __len__(self) -> int:
        return len(self.weight)

    @property
    def dim(self) -> int:
        return self.lambda_inf.shape[1]

    def eigenvalues(self, label: str) -> np.ndarray:
        """The lambda_p column of the prime a label names, one entry per row."""
        return self.lambda_p[:, self._column(prime_by_label(self.field, label))]

    @cached_property
    def _prime_columns(self) -> Dict[str, int]:
        """The column of each prime, keyed by its canonical label 'p:i'; two
        labels on one prime raise."""
        columns = {label: k for k, label in enumerate(self.prime_labels)}
        return {prime.label: k for prime, k in _by_prime(self.field, columns, "prime labels")}

    def _column(self, prime: PrimeIdeal) -> int:
        column = self._prime_columns.get(prime.label)
        if column is None:
            raise EquidistError("unknown prime label %s" % prime.label)
        return column

    def total_weight(self) -> float:
        return math.fsum(memoryview(self.weight))

    @cached_property
    def _count_index(self) -> Tuple[Dict, np.ndarray, np.ndarray, int, int]:
        """(blocks, table, digits, b, e0) over the rows sorted by (parity code
        sum_j xi_j 2^j, lambda_1): table holds lambda_inf then lambda_p,
        column-major, in that order, and blocks maps a code to (start, stop,
        lo, hi), its rows and the least and greatest value of each table
        column over them (lists of floats).
        With m 2^e the frexp split of a weight and e0 the least e - 53 over the
        nonzero weights, digits[k, i] is digit k base 2^b of the integer
        m 2^(e - e0), found by exact float steps.  Built on the first count and
        kept, so lambda_inf, xi, lambda_p and weight must not change in place
        afterwards; replace and scaled build a new Dataset.
        """
        n, d = self.lambda_inf.shape
        dtype = np.min_scalar_type((1 << d) - 1)  # codes of 8 or 16 bits sort by radix
        codes = (self.xi.astype(dtype) << np.arange(d, dtype=dtype)).sum(1, dtype=dtype)
        order = np.argsort(self.lambda_inf[:, 0])  # unstable: ties may come in any order
        order = order[np.argsort(codes[order], kind="stable")]
        codes = codes[order]
        bounds = [0, *(np.flatnonzero(codes[1:] != codes[:-1]) + 1).tolist(), n]
        table = np.empty((n, d + len(self.prime_labels)), order="F")
        for col, out in zip([*self.lambda_inf.T, *self.lambda_p.T], table.T):
            col.take(order, out=out)
        blocks = {int(codes[s]): (s, e, [float(c[s:e].min()) for c in table.T],
                                  [float(c[s:e].max()) for c in table.T])
                  for s, e in zip(bounds, bounds[1:]) if s < e}
        w = self.weight[order]
        b = 53 - n.bit_length()
        m, shift = np.frexp(w)
        e = shift[w > 0]
        e0, top = (int(e.min()) - 53, int(e.max())) if e.size else (0, 0)
        digits = np.empty((-(-(top - e0) // b), n))  # ceil((53 + span) / b) rows
        shift -= e0
        clipped, high = np.empty_like(shift), np.empty(n)
        for row in digits:
            # clipping moves no digit: below 0 the scaled weight is < 1, and
            # from 53 + b on it is a multiple of 2^b
            np.clip(shift, 0, 53 + b, out=clipped)
            np.ldexp(m, clipped, out=row)
            np.floor(row, out=row)
            # row mod 2^b as row - 2^b floor(row / 2^b): the exact difference is
            # an integer below 2^b, so the subtraction rounds nothing (and this
            # is several times faster than np.fmod)
            np.multiply(row, 2.0 ** -b, out=high)
            np.floor(high, out=high)
            high *= 2.0 ** b
            row -= high
            shift -= b
        return blocks, table, digits, b, e0

    def scaled(self, factor: float) -> "Dataset":
        if factor < 0:
            raise EquidistError("scale factor must be nonnegative")
        return replace(self, weight=self.weight * factor)

    def validate(self, field: Optional[NumberField] = None) -> None:
        """Range-check Hecke eigenvalues against [0, 1 + Np]; field, if given, is the dataset's."""
        if field not in (None, self.field):
            raise EquidistError("dataset is over %r, not %r" % (self.field, field))
        bounds = np.empty(len(self.prime_labels))
        for label, k in self._prime_columns.items():
            bounds[k] = 1.0 + prime_by_label(self.field, label).absolute_norm()
        bad = ~((0.0 <= self.lambda_p) & (self.lambda_p <= bounds))
        if bad.any():
            i, k = np.argwhere(bad)[0]
            raise EquidistError("record %d: lambda_p[%s] = %r outside [0, %r]"
                                % (i, self.prime_labels[k], float(self.lambda_p[i, k]),
                                   float(bounds[k])))

    # -- serialization ----------------------------------------------------------
    # %r is float.__repr__, as in json and csv: the bytes are those of a per-row
    # json.JSONEncoder(sort_keys=True, separators=(",", ":")) or csv.writer

    def to_jsonl(self, path: str) -> None:
        d = self.dim
        # keys in sorted order: lambda_inf, lambda_p, src (a %s: ',"src":...' or ""), weight, xi
        template = ('{"lambda_inf":[' + ",".join(["%r"] * d) + '],"lambda_p":{' + ",".join(
            json.dumps(k).replace("%", "%%") + ":%r" for k in self.prime_labels)
            + '}%s,"weight":%r,"xi":[' + ",".join(["%d"] * d) + "]}\n")
        src = self.src if self.src is not None else [None] * len(self)
        frag = {s: "" if s is None else ',"src":' + json.dumps(s) for s in set(src)}
        with open(path, "w") as fh:
            _write_rows(fh, template, [*self.lambda_inf.T, *self.lambda_p.T, np.array(
                [frag[s] for s in src], dtype=object), self.weight, *self.xi.T])

    @classmethod
    def from_jsonl(cls, path: str, field_spec: str) -> "Dataset":
        field = make_field(field_spec)
        lam, xi, lp, weight, src = [], [], [], [], []
        d, keys, labels = 0, None, []
        decode = json.JSONDecoder().raw_decode
        required = operator.itemgetter("lambda_inf", "xi", "lambda_p")
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    try:  # json.loads(line)'s parse; on a failure json.loads raises its error
                        row, end = decode(line, len(line) - len(line.lstrip(" \t\n\r")))
                        if line[end:].strip(" \t\n\r"):
                            raise ValueError
                    except ValueError:
                        row = json.loads(line)
                    if type(row) is not dict:
                        raise EquidistError("a record must be a JSON object")
                    (r_lam, r_xi, r_lp), s = required(row), row.get("src")
                    if not (type(r_lam) is type(r_xi) is list and type(r_lp) is dict
                            and (s is None or type(s) is str)):
                        raise EquidistError("lambda_inf and xi must be arrays, lambda_p an "
                                            "object and src a string or null")
                    if keys is None:
                        d, keys, labels = len(r_lam), r_lp.keys(), sorted(r_lp)
                    if len(r_lam) != d or len(r_xi) != d or r_lp.keys() != keys:
                        raise EquidistError("lambda_inf, xi or lambda_p labels differ from the "
                                            "first record (dimension %d, labels %s)" % (d, labels))
                except json.JSONDecodeError as exc:
                    raise EquidistError("line %d: %s at column %d"
                                        % (lineno, exc.msg, exc.colno)) from None
                except KeyError as exc:
                    raise EquidistError("line %d: missing key %s" % (lineno, exc)) from None
                except EquidistError as exc:
                    raise EquidistError("line %d: %s" % (lineno, exc)) from None
                lam += r_lam
                xi += r_xi
                lp += map(r_lp.__getitem__, labels)
                weight.append(row.get("weight", 1.0))
                src.append(s)
        # the lengths are checked, so only a non-number entry fails here; the type
        # pass rejects what float64 would parse (strings, booleans)
        try:
            if not {float, int}.issuperset(map(type, chain(lam, xi, lp, weight))):
                raise TypeError
            lam, xi, lp = (np.array(c, dtype=np.float64).reshape(len(weight), w)
                           for c, w in ((lam, d), (xi, d), (lp, len(labels))))
            weight = np.array(weight, dtype=np.float64)
        except (TypeError, ValueError, OverflowError):
            raise EquidistError("%s: lambda_inf, xi, lambda_p and weight entries must be "
                                "numbers" % path) from None
        return cls(field, lam, xi, tuple(labels), lp, weight, src)

    def to_csv(self, path: str) -> None:
        d, labels = self.dim, self.prime_labels
        template = ",".join(["%r"] * d + ["%d"] * d + ["%r"] * (len(labels) + 1)) + "\r\n"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerow(_csv_header(d, labels))  # quotes labels; numbers need none
            _write_rows(fh, template, [*self.lambda_inf.T, *self.xi.T, *self.lambda_p.T,
                                       self.weight])

    @classmethod
    def from_csv(cls, path: str, field_spec: str) -> "Dataset":
        field = make_field(field_spec)
        with open(path, newline="") as fh:
            header = next(csv.reader(fh), [])  # an empty file has the empty header
            d = next((j for j, h in enumerate(header) if h != "lambda_%d" % (j + 1)), len(header))
            labels = header[2 * d:-1]
            if d < 1 or header != _csv_header(d, labels):
                raise EquidistError("%s: the CSV header must be lambda_1..d, xi_1..d, the "
                                    "prime labels and weight, got %r" % (path, header))
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # header only: 0 rows
                    table = np.loadtxt(fh, delimiter=",", comments=None, quotechar='"',
                                       ndmin=2)
            except ValueError as exc:
                raise EquidistError("%s: %s" % (path, exc)) from None
        if table.size and table.shape[1] != len(header):
            raise EquidistError("%s: every row needs %d numbers" % (path, len(header)))
        table = table.reshape(-1, len(header))
        return cls(field, table[:, :d], table[:, d:2 * d], tuple(labels),
                   table[:, 2 * d:-1], table[:, -1])


def _csv_header(d: int, labels: Sequence[str]) -> List[str]:
    """The CSV header of a dataset of dimension d with these prime labels."""
    names = ["%s_%d" % (name, j) for name in ("lambda", "xi") for j in range(1, d + 1)]
    return names + [*labels, "weight"]


def _write_rows(fh, template: str, columns: Sequence[np.ndarray]) -> None:
    """template % each row of the columns: one % and one write per 4096 rows."""
    w, n = len(columns), len(columns[0])
    for i in range(0, n, 4096):
        values = [None] * (w * min(4096, n - i))
        for j, col in enumerate(columns):
            values[j::w] = col[i:i + 4096].tolist()
        fh.write(template * (len(values) // w) % tuple(values))


# -- counting and prediction ------------------------------------------------------


def _check_query(t: float, j_windows: Dict[str, Tuple[float, float]]) -> None:
    """Reject a threshold or Hecke window that count and predict cannot both honour."""
    if not (math.isfinite(t) and t >= 0):
        raise EquidistError("t must be finite and nonnegative, got %r" % (t,))
    for label, (a, b) in j_windows.items():
        if not (math.isfinite(a) and math.isfinite(b) and a <= b):
            raise EquidistError("window %s = [%r, %r] must be finite with a <= b"
                                % (label, a, b))


def _by_prime(field: NumberField, values: Dict[str, object], what: str) -> List[tuple]:
    """[(prime, value)] in the sorted order of the labels, each resolved by
    prime_by_label; two labels on one prime raise."""
    out, seen = [], {}
    for label, value in sorted(values.items()):
        prime = prime_by_label(field, label)
        first = seen.setdefault(prime.label, label)
        if first != label:
            raise EquidistError("%s %r and %r name the same prime %s"
                                % (what, first, label, prime.label))
        out.append((prime, value))
    return out


def count(ds: Dataset, box: Box, t: float,
          j_windows: Dict[str, Tuple[float, float]]) -> float:
    """Weighted count of records in the box at threshold t with all
    Hecke eigenvalues inside their closed windows.

    Records whose parity vector differs from the box parity do not
    belong to the window's spectral family and are skipped.
    """
    _check_query(t, j_windows)
    if box.dim != ds.dim:
        raise EquidistError("box dimension %d != dataset dimension %d" % (box.dim, ds.dim))
    hecke = [(ds.dim + ds._column(prime), ab)
             for prime, ab in _by_prime(ds.field, j_windows, "windows")]
    bx = box.with_t(t)
    blocks, table, digits, width, e0 = ds._count_index
    block = blocks.get(sum(x << j for j, x in enumerate(bx.xi)))
    if block is None:
        return 0.0
    start, stop, lo, hi = block
    windows = [(j, bx.interval(j + 1)) for j in range(bx.dim)] + hecke
    binding = []
    for j, (a, b) in windows:
        if b < lo[j] or a > hi[j]:
            return 0.0  # no row of the block is in this window
        if j and not (a <= lo[j] and hi[j] <= b):  # else it keeps every row: skip it
            binding.append((j, a, b))
    # lambda_1 is sorted within the block, so its closed window is one slice
    a, b = windows[0][1]
    start, stop = (start + table[start:stop, 0].searchsorted(a, "left"),
                   start + table[start:stop, 0].searchsorted(b, "right"))
    mask = None if binding else np.ones(stop - start, dtype=bool)
    for j, a, b in binding:
        col = table[start:stop, j]
        if mask is None:  # the first binding window is the mask
            mask, kept = np.greater_equal(col, a), np.empty(stop - start, dtype=bool)
        else:
            mask &= np.greater_equal(col, a, out=kept)
        mask &= np.less_equal(col, b, out=kept)
    # every product is 0 or one digit and every partial sum an integer below
    # 2^53, so the column sums are exact in any order; the int result rounds once
    sums = (digits[:, start:stop] @ mask.astype(np.float64)).tolist()
    total = sum(int(s) << (k * width) for k, s in enumerate(sums))
    return float(total << e0) if e0 >= 0 else total / (1 << -e0)


@dataclass(frozen=True)
class Prediction:
    """The main term and its factors; error bounds the rounding error of product
    to first order, from the closed-form bounds of the pl and Sato-Tate factors."""

    constant: float
    pl_factor: float
    phi_factor: float
    product: float
    v1: float
    error: float

    def __post_init__(self):
        for name in ("constant", "pl_factor", "phi_factor", "product", "v1", "error"):
            if getattr(self, name) < 0:
                raise EquidistError("%s must be nonnegative" % name)


def predict(field: NumberField, covolume: float, box: Box, t: float,
            j_windows: Dict[str, Tuple[float, float]]) -> Prediction:
    """Main-term prediction: constant * pl(box_t) * prod Phi_p(J_p)."""
    _check_query(t, j_windows)
    if not (math.isfinite(covolume) and covolume > 0):
        raise EquidistError("covolume must be finite and positive, got %r" % (covolume,))
    d = field.degree
    if box.dim != d:
        raise EquidistError("box dimension %d != field degree %d" % (box.dim, d))
    constant = 2.0 * math.sqrt(abs(field.disc)) * covolume / (2.0 * math.pi) ** d
    bx = box.with_t(t)
    pl_factor, pl_err = box_measure(bx, "pl")
    # first order: the error of a product x*y is |x| err(y) + |y| err(x)
    phi_factor, phi_err = 1.0, 0.0
    for prime, (a, b) in _by_prime(field, j_windows, "windows"):
        v, e = SatoTateMeasure(prime.absolute_norm()).mass(a, b)
        phi_factor, phi_err = phi_factor * v, phi_err * abs(v) + abs(phi_factor) * e
    v1 = box_measure(bx, "v1").value
    error = constant * (pl_err * abs(phi_factor) + abs(pl_factor) * phi_err)
    return Prediction(constant, pl_factor, phi_factor,
                      constant * pl_factor * phi_factor, v1, error)


def level_index(level: Ideal) -> Fraction:
    """Index of the level subgroup: N(I) prod_{p | I} (1 + 1/Np), exact."""
    if level.norm() == 0:
        raise EquidistError("level ideal must be nonzero")
    if not level.is_integral():
        raise EquidistError("level ideal must be integral")
    idx = Fraction(int(level.norm()))
    for prime, _ in ideal_prime_factorization(level):
        np_ = prime.absolute_norm()
        idx *= Fraction(np_ + 1, np_)
    return idx


# -- synthesis ---------------------------------------------------------------------


# nodes of the sampler's trapezoid CDF of the continuous pl density
_PL_NODES = 4096


def _sample_pl_restriction(xi: int, window: Tuple[float, float], v_select: np.ndarray,
                           v_pos: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws of pl_xi on one box coordinate: atom or continuum by v_select."""
    a, b = window
    atoms = [(float(p), float(m)) for p, m in pl_atoms_in(xi, a, b)]
    cont = SpectralMeasure("pl", xi).continuous_mass(a, b).value
    total = math.fsum(m for _, m in atoms) + cont
    if total <= 0:
        raise EquidistError("box coordinate has zero pl measure")
    idx = np.searchsorted(np.cumsum([m for _, m in atoms]) / total, v_select, side="right")
    # index len(atoms) is the continuum; with none, only rounding gets there: the last atom
    out = np.array([p for p, _ in atoms] + [atoms[-1][0] if cont <= 0 else 0.0])[idx]
    if cont > 0:
        u = np.linspace(math.sqrt(max(a, 0.25) - 0.25), math.sqrt(b - 0.25), _PL_NODES)
        if xi == 0:
            dens = 2.0 * u * np.tanh(math.pi * u)
        else:
            dens = np.where(u < 1e-8,
                            2.0 / math.pi + 2.0 * math.pi * u * u / 3.0,
                            2.0 * u / np.tanh(math.pi * np.maximum(u, 1e-300)))
        cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5 * np.diff(u))])
        cdf /= cdf[-1]
        cont_mask = idx == len(atoms)
        w = np.interp(v_pos[cont_mask], cdf, u)
        out[cont_mask] = 0.25 + w * w
    return out


def synthesize(field: NumberField, prime_labels: Sequence[str], box: Box,
               m_records: int, seed: int) -> Dataset:
    """M records matching the limit law on the box; deterministic per seed."""
    if m_records < 1:
        raise EquidistError("need at least one record")
    d = box.dim
    if d != field.degree:
        raise EquidistError("box dimension %d != field degree %d" % (d, field.degree))
    labels = sorted(prime_labels)
    rng = np.random.Generator(np.random.Philox(key=seed))
    block = rng.random((m_records, 2 * d + len(labels)))
    lam = np.empty((m_records, d))
    for j in range(d):
        lam[:, j] = _sample_pl_restriction(box.xi[j], box.interval(j + 1),
                                           block[:, 2 * j], block[:, 2 * j + 1])
    lp = np.empty((m_records, len(labels)))
    for k, label in enumerate(labels):
        np_ = prime_by_label(field, label).absolute_norm()
        grid, cdf = SatoTateMeasure(np_).inverse_cdf_table()
        lp[:, k] = np.interp(block[:, 2 * d + k], cdf, grid)
    xi = np.tile(np.array(box.xi, dtype=np.int8), (m_records, 1))
    return Dataset(field, lam, xi, tuple(labels), lp, np.ones(m_records),
                   ["synth"] * m_records)


# -- exact Ramanujan tau source -----------------------------------------------------


# the squaring bound's error model: unit roundoff u, and |w' - w| <= 2^-49 = 16u
# for every root of unity w' used (pocketfft's sincos_2pibyn tables, each a
# product of two libm cos/sin values: a few ulps each)
_U, _ROOT_ERROR = 2.0 ** -53, 2.0 ** -49


def tau_table(n_max: int) -> List[int]:
    """tau(0..n_max) with tau(0) = 0, from the eta-power expansion.

    q prod (1 - q^k)^24 = q J^8 with J = prod (1 - q^k)^3 = sum_k (-1)^k
    (2k+1) q^{k(k+1)/2} (Jacobi), a series of about sqrt(2 n_max) terms.
    J^2 is one bincount over the pairs of terms (exact in float64: every
    partial sum is at most terms^4 < 2^53); J^4 = (J^2)^2 and J^8 = (J^4)^2
    are two exact real-FFT squarings (_fft_square: rounding error proven below
    1/8, checked against 1/4, observed at most 3.1e-5), and tau(m) is the
    coefficient of q^{m-1}.  J^4 fits int64 (|J^4| <= ||J^2||_2^2 = 2^62.5
    at the 10^6 cap) and |tau(m)| <= d(m) m^{11/2} < 2^127 (Deligne) fits the
    squaring's two words; Python ints enter only on rows past int64.
    """
    return _words_to_ints(*_tau_words(n_max))


def _tau_words(n_max: int) -> Tuple[np.ndarray, np.ndarray]:
    """tau(0..n_max) as the J^8 squaring's words: tau(m) mod 2^64 (uint64) and
    floor(tau(m) / 2^64) (int64), with a zero row for tau(0)."""
    if n_max > 10 ** 6:
        raise EquidistError("tau table capped at 10^6 (time budget)")
    if n_max < 1:
        raise EquidistError("need n_max >= 1")
    n = n_max - 1  # degree after factoring out one power of q
    k = np.arange((math.isqrt(8 * n + 1) + 1) // 2)
    e, c = k * (k + 1) // 2, (1 - 2 * (k % 2)) * (2 * k + 1)  # Jacobi's terms
    assert len(k) ** 4 < 2 ** 53
    i, j = np.nonzero(e[:, None] + e[None, :] <= n)
    square = np.bincount(e[i] + e[j], (c[i] * c[j]).astype(np.float64), n + 1)
    del i, j  # at the cap only the current power stays alive through a squaring
    lo, hi = _fft_square(square.astype(np.int64))
    del square
    if (hi != lo.view(np.int64) >> 63).any():
        raise EquidistError("J^4 exceeds int64")
    del hi
    lo, hi = _fft_square(lo.view(np.int64))
    return (np.concatenate((np.zeros_like(lo, shape=1), lo)),
            np.concatenate((np.zeros_like(hi, shape=1), hi)))


def _words_to_ints(lo: np.ndarray, hi: np.ndarray) -> List[int]:
    """The Python ints hi 2^64 + lo of the words; rows that fit int64 are read
    straight off the low word."""
    x = lo.view(np.int64)
    rows = np.flatnonzero(hi != x >> 63)
    if rows.size:
        x, lifted = x.astype(object), hi[rows].astype(object)
        lifted *= 2 ** 64  # in place: one generation of Python ints at a time
        lifted += lo[rows].astype(object)
        x[rows] = lifted
    return x.tolist()


def _fft_square(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """a^2 mod q^len(a) for an int64 array a, exactly, as x mod 2^64 (uint64)
    and floor(x / 2^64) (int64) of each coefficient x, |x| < 2^127.

    a = sum_i 2^(iL) a_i in m balanced limbs (_limbs) and a^2 = sum_s 2^(sL)
    z_s, z_s = sum_{i+j=s} a_i a_j, each a cyclic convolution of length N =
    2 << (len(a) - 1).bit_length() >= 2 len(a) - 1 (nothing wraps below
    len(a)): each limb's half spectrum is one np.fft.rfft of length N and
    each z_s one irfft.

    Bound, for numpy 2's pocketfft.  Percival (Math. Comp. 72 (2003)) bounds
    a butterfly level, a complex product by a root w' with |w' - w| <= b and
    a complex sum, by the factor rho = (1+u)(1+sqrt5 u)(1+b).  For a power of
    two rfft and irfft run FFTPACK's real passes, radix 4 and at most one
    radix 2 (radf4/radf2, radb4/radb2): each computes the half of a complex
    transform's levels that a real input's symmetry leaves, with the same
    sincos_2pibyn twiddles, rotations by +-i exact and the 1/sqrt2 products of
    a radix-4 pass's last column off by 3u, as a rotation by (1-+i)/sqrt2.
    With e = (1+u)^2 rho^log2(N) - 1 (one u for irfft's 1/N, one of slack), a
    limb's half spectrum A_i(k), k = 0..N/2, is off by at most e sqrt(N)
    ||a_i||_2 in 2-norm, and the same induction over the levels puts every
    output of irfft within e/N times the 1-norm of its input's
    conjugate-symmetric extension to length N.  An extension's 2-norm is at
    most sqrt2 times its half's, and a whole spectrum's is sqrt(N) ||a_i||_2,
    so by Cauchy-Schwarz on the products' 1-norms a computed z_s is off by at
    most
        b_s = C sum_{i+j=s} ||a_i||_2 ||a_j||_2,
        C = ((2 sqrt2 + 2) e + sqrt5 u + sqrt2 m(m+1)/2 u)(1 + 2^-20):
    2 sqrt2 e from the spectra, sqrt5 u from the products, sqrt2 m(m+1)/2 u
    from summing at most m(m+1)/2 of them, e from the inverse and e of slack,
    2^-20 for second-order terms and the norms' own rounding.  The fewest
    limbs with every b_s < 1/8 are used, L as even as the bit length allows.
    Margin: rounding is exact below 1/2; any |z - rint z| > 1/4 raises, so no
    table that broke the bound is returned; the observed |z - rint z| is at
    most 3.1e-5 for n_max = 600..2600 and 1.9e-6 from 10^4 to the 10^6 cap,
    over 4,000 times below the bound's 1/8.
    """
    from numpy import fft

    size = len(a)
    n_fft = 2 << (size - 1).bit_length()
    rho = (1 + _U) * (1 + 5 ** 0.5 * _U) * (1 + _ROOT_ERROR)
    e = (1 + _U) ** 2 * rho ** (n_fft.bit_length() - 1) - 1  # log2(N) levels
    bits = int(np.abs(a).max()).bit_length()
    for m in range(1, bits + 2):  # m = bits + 1 passes: |a_i| <= 1, b_s <= C m len(a)
        width = -(-(bits + 1) // m)
        norm = np.sqrt([limb @ limb for limb in _limbs(a, m, width)])
        c = ((2 * 2 ** 0.5 + 2) * e + 5 ** 0.5 * _U
             + 2 ** 0.5 * (m * (m + 1) // 2) * _U) * (1 + 2 ** -20)
        if (c * np.convolve(norm, norm)).max() < 1 / 8:
            break
    spectra = np.empty((m, n_fft // 2 + 1), dtype=complex)
    for spectrum, limb in zip(spectra, _limbs(a, m, width)):
        fft.rfft(limb, n_fft, out=spectrum)
    lo, hi = np.zeros(size, dtype=np.uint64), np.zeros(size, dtype=np.int64)
    w, x = np.empty_like(spectra[0]), np.empty(n_fft)
    for s in range(2 * m - 1):
        w[:] = 0
        for i in range(max(0, s - m + 1), s // 2 + 1):
            term = spectra[i] * spectra[s - i]
            term *= 2 - (2 * i == s)  # a_i a_j and a_j a_i
            w += term
        del term
        fft.irfft(w, n_fft, out=x)
        part = x[:size]
        z = np.rint(part)
        part -= z
        if np.abs(part, out=part).max() > 0.25:
            raise EquidistError("FFT squaring rounded off by more than 1/4: its error "
                                "bound failed")
        z, shift = z.astype(np.int64), s * width
        if shift >= 64:
            hi += z << (shift - 64)
        else:
            low = z.view(np.uint64) << np.uint64(shift)
            lo += low
            hi += z >> min(64 - shift, 63)
            hi += lo < low  # the carry out of the low word
    return lo, hi


def _limbs(a: np.ndarray, m: int, width: int) -> Iterator[np.ndarray]:
    """The balanced limbs a_i = r_i - 2^L r_(i+1) of a, float64, one at a time,
    with r_i = a / 2^(iL) rounded half up, so |a_i| <= 2^(L-1) (r_m = 0).
    Made on demand: all limbs at once raise tau_table(10^6)'s peak RSS from
    about 255 to 268 MB."""
    r = a
    for i in range(1, m + 1):
        up = ((a >> (i * width - 1)) + 1) >> 1
        yield (r - (up << width)).astype(np.float64)
        r = up


def _smallest_prime_factors(n: int) -> np.ndarray:
    spf = np.arange(n + 1)
    for i in range(2, math.isqrt(n) + 1):
        if spf[i] == i:
            np.minimum(spf[i * i::i], i, out=spf[i * i::i])
    return spf


# an odd prime: with 2^64 it fixes a difference modulo 2^64 P > 2^89, and
# residues below P multiply below 2^52
_P, _MASK64 = 2 ** 26 - 5, 2 ** 64 - 1


def verify_tau_identities(tau: Sequence[int]) -> List[int]:
    """Exact multiplicativity, prime-power recursion and Deligne's bound
    tau(p)^2 <= 4 p^11 at every prime p, on the full table.

    Raises on any failure; a failure would mean the expansion is wrong.
    Returns the primes up to len(tau) - 1, read off the sieve the check runs on.
    The entries are converted once to the words _check_tau_words reads; an
    entry with |tau(n)| >= 2^127 (n >= 1) is out of their range and raises.
    """
    t = np.array(tau, dtype=object)
    t[:1] = 0  # tau(0) is in no identity
    try:
        lo, hi = (t & _MASK64).astype(np.uint64), (t >> 64).astype(np.int64)
    except OverflowError:  # a high word past int64
        hi = None
    if hi is None or ((hi == -2 ** 63) & (lo == 0)).any():  # or an entry -2^127
        first = next(n for n, v in enumerate(tau) if n and not -2 ** 127 < v < 2 ** 127)
        raise EquidistError("|tau(%d)| >= 2^127 is past the identity check's range" % first)
    return _check_tau_words(lo, hi)


def _check_tau_words(lo: np.ndarray, hi: np.ndarray) -> List[int]:
    """verify_tau_identities on the words tau(n) = hi 2^64 + lo (lo uint64,
    hi int64, row 0 unread); returns the primes up to len(lo) - 1.

    Identities.  Every composite n, with p = spf(n) and m = n/p, is checked
    against
        tau(n) = tau(p) tau(m) - [p | m] p^11 tau(m/p).
    With tau(1) = 1 this is equivalent, on each prefix 1..N, to
    multiplicativity with the prime-power recursion: for a prime power n it
    is the recursion; otherwise n = p^v k with p not dividing k > 1, and if
    every smaller n obeys both, tau(n/p) = tau(p^(v-1)) tau(k) and tau(n/p^2)
    = tau(p^(v-2)) tau(k), so the right side is tau(k) tau(p^v) by the
    recursion at p^v < n.  The relation and the two identities therefore
    first fail at the same n, reported as a "prime-power recursion" failure
    when n is a prime power and a "multiplicativity" failure otherwise.

    Exactness.  Each difference D = tau(n) - tau(p) tau(m) + [p | m] p^11
    tau(m/p) is shown to be 0 by three facts: D = 0 mod 2^64 on the low words
    (uint64 wraparound); D = 0 mod P on int64 residues below P, whose
    products stay below 2^52; and |D| < 2^89 from float64 values.  As P is
    odd, D = 0 mod 2^64 P > 2^89, so D = 0.  An entry's float is
    fl(fl(hi + c) 2^64 + fl(lo - 2^64 c)), c the top bit of lo: for
    |tau(n)| < 2^63 the first term is 0 and the float is fl(tau(n)), and in
    every case it is within 9u |tau(n)| (u = 2^-53).  float(p^11) is
    correctly rounded, so x = tau(n), y = tau(p) tau(m) and z = p^11 tau(m/p)
    are computed within 9u, 19u and 11u and d = x - y + z within 22u (|x| +
    |y| + |z|) < 2^-47 (|x| + |y| + |z|) of D.  A row passes when |d| +
    2^-47 (|x| + |y| + |z|) < 2^88 in float64, which its own roundings
    cannot lift past |D| < 2^89.

    Deligne's bound |tau(p)| <= 2 p^5.5 is filtered in float64: the float of
    tau(p) is within 9u and 2 p^5.5 (1 - 2^-40) (products and a sqrt) within
    5u, so a prime whose float lies below the latter satisfies the bound, and
    every other prime, one inside the 2^-40 margin included, is checked
    exactly on Python ints.
    """
    n_max = len(lo) - 1
    if n_max < 4 or lo[1] != 1 or hi[1] != 0:
        raise EquidistError("table too short or tau(1) != 1")
    spf = _smallest_prime_factors(n_max)
    n = np.arange(n_max + 1)
    primes, comp = np.flatnonzero(spf == n)[2:], np.flatnonzero(spf != n)
    p = spf[comp]
    m = comp // p
    q = m // p
    q[q * p != m] = 0  # tau(0) = 0: no p^11 term where p does not divide m
    # p^11 at the primes up to sqrt(n_max), the least prime factors of composites
    p11 = np.zeros(math.isqrt(n_max) + 1, dtype=object)
    small = primes[primes < len(p11)]
    p11[small] = small.astype(object) ** 11
    w11, r11 = (p11 & _MASK64).astype(np.uint64), (p11 % _P).astype(np.int64)
    f11 = p11.astype(np.float64)  # correctly rounded, as float() of an int
    r = hi % _P
    r *= 2 ** 64 % _P
    r += (lo % np.uint64(_P)).view(np.int64)
    r %= _P
    f = np.add(hi, lo >> np.uint64(63), dtype=np.float64)
    f *= 2.0 ** 64
    f += lo.view(np.int64)
    x, y, z = f[comp], f[p] * f[m], f11[p] * f[q]
    size = np.abs(x)
    size += np.abs(y)
    size += np.abs(z)
    x -= y
    x += z
    bad = np.abs(x, out=x) + size * 2.0 ** -47 >= 2.0 ** 88
    bad |= lo[comp] - lo[p] * lo[m] + w11[p] * lo[q] != 0
    bad |= (r[comp] - r[p] * r[m] + r11[p] * r[q]) % _P != 0
    fails = []
    if bad.any():
        i = bad.argmax()
        at, v, k = int(comp[i]), int(p[i]), int(m[i])
        while k % v == 0:
            k //= v
        fails.append((at, "%s fails at n=%d" % (
            "prime-power recursion" if k == 1 else "multiplicativity", at)))
    pf = primes.astype(np.float64)
    bound = pf * pf
    bound *= bound
    bound *= pf * np.sqrt(pf) * (2 - 2.0 ** -39)  # 2 p^5.5 (1 - 2^-40)
    near = primes[np.abs(f[primes]) >= bound].tolist()
    over = [v for v in near if (int(hi[v]) * 2 ** 64 + int(lo[v])) ** 2 > 4 * v ** 11]
    if over:
        fails.append((over[0], "Deligne's bound tau(p)^2 <= 4 p^11 fails at p=%d" % over[0]))
    if fails:
        raise EquidistError(min(fails)[1])
    return primes.tolist()


@dataclass(frozen=True)
class TauData:
    """Single-form horizontal dataset plus the raw table and exact extras."""

    dataset: Dataset
    tau: Tuple[int, ...]
    tp2_eigenvalues: Dict[str, Fraction]


def tau_source(upto: int) -> TauData:
    """Exact tau data: lambda_{pi,p} = |tau(p)|/p^5 for p <= upto, plus the
    T(p^2)-eigenvalue tau(p^2)/p^10 for p^2 <= upto; identities verified
    before anything is emitted."""
    if upto < 4:
        raise EquidistError("tau source needs upto >= 4 (the identity check starts at "
                            "tau(4)), got %d" % upto)
    lo, hi = _tau_words(upto)
    tau = _words_to_ints(lo, hi)
    classical = {2: -24, 3: 252, 4: -1472, 5: 4830, 6: -6048}
    for n, v in classical.items():
        if n <= upto and tau[n] != v:
            raise EquidistError("tau(%d) = %d disagrees with the classical value" % (n, tau[n]))
    primes = _check_tau_words(lo, hi)
    labels = ["%d:0" % p for p in primes]
    lam = dict(zip(labels, [abs(tau[p]) / p ** 5 for p in primes]))
    tp2 = {label: Fraction(tau[p * p], p ** 10)
           for label, p in zip(labels, primes) if p * p <= upto}
    # the holomorphic form behind tau sits at the weight-12 discrete-series
    # point b = 12, lambda = b/2 (1 - b/2) = -30, even parity
    ds = Dataset(NumberField(), [[-30.0]], [[0]], tuple(lam), [[*lam.values()]], [1.0], ["tau"])
    return TauData(ds, tuple(tau), tp2)


# -- reports -------------------------------------------------------------------------


@dataclass(frozen=True)
class ReportRow:
    t: float
    count: float
    prediction: float
    ratio: float
    v1: float
    error: float  # Prediction.error: the closed-form rounding bound on prediction


@dataclass
class Report:
    rows: List[ReportRow]
    final_ratio: float
    max_err_over_v1: float

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "count", "prediction", "ratio", "v1", "error"])
            w.writerows(astuple(row) for row in self.rows)  # csv writes floats by repr()

    def summary(self) -> Dict:
        return {"final_ratio": self.final_ratio,
                "max_err_over_v1": self.max_err_over_v1,
                "max_error": max((r.error for r in self.rows), default=math.nan),
                "rows": len(self.rows)}


def run_report(ds: Dataset, box: Box, t_grid: Sequence[float],
               j_windows: Dict[str, Tuple[float, float]], covolume: float) -> Report:
    """One row per threshold: count, prediction over the dataset's field, their
    ratio, V1, and the prediction's error bound."""
    rows = []
    for t in t_grid:
        c = count(ds, box, t, j_windows)
        pred = predict(ds.field, covolume, box, t, j_windows)
        ratio = c / pred.product if pred.product != 0 else math.nan
        rows.append(ReportRow(float(t), c, pred.product, ratio, pred.v1, pred.error))
    final_ratio = rows[-1].ratio if rows else math.nan
    errs = [abs(r.count - r.prediction) / r.v1 for r in rows if r.v1 > 0]
    return Report(rows, final_ratio, max(errs) if errs else math.nan)
