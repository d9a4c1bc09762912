"""Counting function, prediction, synthetic datasets, exact tau source,
report pipeline."""

import csv
import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
from dataclasses import fields as dataclass_fields
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heckedist
from heckedist import (
    Box,
    Dataset,
    EquidistError,
    FieldError,
    Ideal,
    SatoTateMeasure,
    box_measure,
    count,
    level_index,
    make_field,
    measure_interval,
    pl_measure,
    predict,
    run_report,
    synthesize,
    tau_source,
    tau_table,
    verify_tau_identities,
)

Q = make_field("Q")
F73 = make_field(73)

BOX1 = Box(1, (1,), (), (0,), 3.0)


def small_ds():
    return Dataset(Q, [[1.0], [2.0], [2.5], [4.0]], [[0], [0], [1], [0]],
                   ("2:0", "3:0"), [[0.5, 1.0], [2.5, 3.5], [0.5, 1.0], [0.5, 1.0]],
                   [1.0, 2.0, 1.0, 1.0])


def one_row(lambda_inf=(1.0,), xi=(0,), lambda_p=(0.5,), weight=1.0, labels=("2:0",)):
    return Dataset(Q, [lambda_inf], [xi], labels, [lambda_p], [weight])


def assert_same_rows(a, b):
    assert a.prime_labels == b.prime_labels
    for name in ("lambda_inf", "xi", "lambda_p", "weight"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def write_jsonl(path, rows):
    path.write_text("".join(line + "\n" for line in rows))
    return str(path)


def test_record_validation():
    with pytest.raises(EquidistError):
        one_row(lambda_inf=(1.0, 2.0))  # shape mismatch with xi
    with pytest.raises(EquidistError):
        one_row(weight=-1.0)
    with pytest.raises(EquidistError):
        one_row(xi=(2,))  # parity must be 0/1
    with pytest.raises(EquidistError):
        one_row(xi=(0.5,))
    for bad in (math.nan, math.inf, -math.inf, 10 ** 400):  # the int overflows float
        with pytest.raises(EquidistError):
            one_row(weight=bad)
        with pytest.raises(EquidistError):
            one_row(lambda_inf=(bad,))
        with pytest.raises(EquidistError):
            one_row(lambda_p=(bad,))
    with pytest.raises(EquidistError):
        one_row(lambda_p=(0.5, 0.5))  # two eigenvalues, one label
    with pytest.raises(EquidistError):
        Dataset(Q, [[1.0]], [[0]], ("2:0",), [[0.5]], [1.0, 1.0])  # M differs
    with pytest.raises(EquidistError):
        Dataset(Q, [[1.0]], [[0]], ("2:0",), [[0.5]], [1.0], ["a", "b"])
    with pytest.raises(EquidistError):
        one_row(lambda_p=(0.5, 0.5), labels=("2:0", "2:0"))
    with pytest.raises(EquidistError):
        Dataset(Q, [[1.0], [1.0, 2.0]], [[0], [0]], (), [[], []], [1.0, 1.0])


def test_dataset_consistency(tmp_path):
    # rows with a different label set cannot share one column table
    path = write_jsonl(tmp_path / "mixed.jsonl", [
        '{"lambda_inf":[1.0],"lambda_p":{"2:0":0.5},"weight":1.0,"xi":[0]}',
        '{"lambda_inf":[1.0],"lambda_p":{"3:0":0.5},"weight":1.0,"xi":[0]}',
    ])
    with pytest.raises(EquidistError):
        Dataset.from_jsonl(path, "Q")
    ds = small_ds()
    assert ds.dim == 1
    assert len(ds) == 4
    assert ds.prime_labels == ("2:0", "3:0")
    assert ds.total_weight() == 5.0
    assert ds.scaled(2.0).total_weight() == 10.0
    assert ds.total_weight() == 5.0  # scaled leaves the original alone
    with pytest.raises(EquidistError):
        ds.scaled(-1.0)
    # labels are sorted once, with their columns
    swapped = Dataset(Q, [[1.0]], [[0]], ("3:0", "2:0"), [[1.0, 0.5]], [1.0])
    assert swapped.prime_labels == ("2:0", "3:0")
    assert swapped.eigenvalues("2:0").tolist() == [0.5]
    assert swapped.eigenvalues("3:0").tolist() == [1.0]


def test_jsonl_load_rejects_bad_values(tmp_path):
    good = '{"lambda_inf":[1.0],"lambda_p":{"2:0":0.5},"weight":1.0,"xi":[0]}'
    assert len(Dataset.from_jsonl(write_jsonl(tmp_path / "ok.jsonl", [good]), "Q")) == 1
    for i, bad in enumerate([
        '{"lambda_inf":[1.0],"lambda_p":{"2:0":0.5},"weight":NaN,"xi":[0]}',
        '{"lambda_inf":[Infinity],"lambda_p":{"2:0":0.5},"weight":1.0,"xi":[0]}',
        '{"lambda_inf":[1.0],"lambda_p":{"2:0":-Infinity},"weight":1.0,"xi":[0]}',
        '{"lambda_inf":[1.0],"lambda_p":{"2:0":0.5},"weight":-2.0,"xi":[0]}',
        '{"lambda_inf":[1.0],"lambda_p":{"2:0":0.5},"weight":1.0,"xi":[3]}',
        '{"lambda_inf":[1.0,2.0],"lambda_p":{"2:0":0.5},"weight":1.0,"xi":[0,0]}',
        '{"lambda_inf":[1.0],"lambda_p":{"2:0":0.5},"weight":1.0,"xi":[0,0]}',
        '{"lambda_inf":[1.0],"lambda_p":{"2:0":0.5,"3:0":1.0},"weight":1.0,"xi":[0]}',
        # float64 would parse these: strings, booleans; and an int past float
        '{"lambda_inf":["1.5"],"lambda_p":{"2:0":0.5},"weight":1.0,"xi":[0]}',
        '{"lambda_inf":[1.0],"lambda_p":{"2:0":0.5},"weight":"2","xi":[0]}',
        '{"lambda_inf":[1.0],"lambda_p":{"2:0":0.5},"weight":1.0,"xi":[false]}',
        '{"lambda_inf":[1.0],"lambda_p":{"2:0":true},"weight":1.0,"xi":[0]}',
        '{"lambda_inf":[1.0],"lambda_p":{"2:0":0.5},"weight":1%s,"xi":[0]}' % ("0" * 400),
    ]):
        path = write_jsonl(tmp_path / ("bad%d.jsonl" % i), [good, bad])
        with pytest.raises(EquidistError):
            Dataset.from_jsonl(path, "Q")


def test_csv_load_rejects_bad_rows(tmp_path):
    header = "lambda_1,xi_1,2:0,weight\n"
    ok = tmp_path / "ok.csv"
    ok.write_text(header + "1.0,0,0.5,1.0\n")
    assert len(Dataset.from_csv(str(ok), "Q")) == 1
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(EquidistError):
        Dataset.from_csv(str(empty), "Q")
    for i, row in enumerate(["1.0,0,0.5\n", "1.0,0,0.5,1.0,7.0\n", "1.0,0,0.5,nan\n",
                             "inf,0,0.5,1.0\n", "1.0,1,abc,1.0\n", "1.0,2,0.5,1.0\n"]):
        path = tmp_path / ("bad%d.csv" % i)
        path.write_text(header + "1.0,0,0.5,1.0\n" + row)
        with pytest.raises(EquidistError):
            Dataset.from_csv(str(path), "Q")


@pytest.mark.parametrize("header", [
    "foo,xi_1,2:0,weight",  # read as lambda_1 by position
    "xi_1,lambda_1,2:0,weight",  # failed on "xi entries must be 0 or 1"
    "lambda_1,xi_1,2:0",  # no weight column: 2:0 was read as the weight
    "lambda_1,xi_1,2:0,Weight",
    "lambda_2,lambda_1,xi_1,xi_2,2:0,weight",
    "lambda_1,lambda_2,xi_2,xi_1,2:0,weight",
    "lambda_1,lambda_2,xi_1,2:0,weight",
    "",  # a blank first line
], ids=["foo-for-lambda", "xi-first", "no-weight", "weight-case", "lambdas-swapped",
        "xis-swapped", "one-xi-for-two-lambdas", "blank"])
def test_csv_load_reads_the_header_by_name(tmp_path, header):
    # the header must be the one to_csv writes for its labels, name by name
    path = tmp_path / "bad.csv"
    path.write_text(header + "\n1.0,0,0.5,1.0\n")
    with pytest.raises(EquidistError, match="^%s: the CSV header must be lambda_1..d, xi_1..d, "
                       "the prime labels and weight, got" % re.escape(str(path))):
        Dataset.from_csv(str(path), "Q")
    path.write_text("lambda_1,lambda_2,xi_1,xi_2,2:0,weight\n1.0,2.0,0,1,0.5,1.0\n")
    assert Dataset.from_csv(str(path), "Q").lambda_inf.tolist() == [[1.0, 2.0]]


def test_csv_round_trip_with_a_label_starting_xi(tmp_path):
    # the dimension is the number of leading lambda_j names, so a prime label
    # that starts with xi_ is not counted as a parity column
    ds = one_row(labels=("xi_9",))
    path = str(tmp_path / "xi.csv")
    ds.to_csv(path)
    assert open(path).readline() == "lambda_1,xi_1,xi_9,weight\n"
    assert_same_rows(Dataset.from_csv(path, "Q"), ds)


def test_dataset_holds_its_number_field(tmp_path):
    # a spec string is parsed by the loaders, once; the constructor takes only a field
    for spec in ("Q", "Q(sqrt 73)", None, 73):
        with pytest.raises(EquidistError, match="dataset field must be a NumberField"):
            Dataset(spec, [[1.0]], [[0]], ("2:0",), [[0.5]], [1.0])
    ds = synthesize(F73, ["2:0"], BOX73, 10, seed=1)
    ds.to_jsonl(str(tmp_path / "ds.jsonl"))
    ds.to_csv(str(tmp_path / "ds.csv"))
    for load, name in ((Dataset.from_jsonl, "ds.jsonl"), (Dataset.from_csv, "ds.csv")):
        path = str(tmp_path / name)
        for spec in ("Q(sqrt 73)", " 73 ", "q(sqrt 73)"):
            assert load(path, spec).field == F73
        # a bad spec raises at load time, before the file is read
        for spec, message in (("garbage", "bad field spec"), ("Q(sqrt 4)", "squarefree")):
            for where in (path, str(tmp_path / "missing")):
                with pytest.raises(FieldError, match=message):
                    load(where, spec)
        with pytest.raises(TypeError):
            load(path)  # no default field
    assert ds.scaled(2.0).field is F73


def test_dataset_validate_range():
    ds = one_row(lambda_p=(5.0,))
    with pytest.raises(EquidistError):
        ds.validate(Q)  # T(4)-eigenvalue bound is 1 + N = 3
    one_row(lambda_p=(3.0,)).validate(Q)  # closed at both ends
    one_row(lambda_p=(0.0,)).validate(Q)
    with pytest.raises(EquidistError):
        one_row(lambda_p=(-0.1,)).validate(Q)


def test_dataset_validate_reads_its_own_field():
    # 2 splits in Q(sqrt 73), so the bound on lambda_{2:0} is 1 + 2 = 3; over
    # Q(sqrt 5), where 2 is inert, it would be 1 + 4 = 5
    ds = Dataset(F73, [[1.0, 1.0]], [[0, 0]], ("2:0",), [[4.0]], [1.0])
    for call in (ds.validate, lambda: ds.validate(F73)):
        with pytest.raises(EquidistError, match=r"lambda_p\[2:0\] = 4.0 outside \[0, 3.0\]"):
            call()
    for field in (make_field(5), Q, make_field(2)):
        with pytest.raises(EquidistError, match="dataset is over Q\\(sqrt 73\\), not"):
            ds.validate(field)
    one_row().validate()
    one_row().validate(make_field("Q"))


def test_validate_resolves_each_label_once(monkeypatch):
    # validate reads the primes the column map resolved, and a count after it
    # resolves its windows only
    import heckedist.equidist as equidist_module
    resolve, calls = equidist_module.prime_by_label, []

    def counting(field, label):
        calls.append(label)
        return resolve(field, label)

    monkeypatch.setattr(equidist_module, "prime_by_label", counting)
    labels = ("2:0", "2:1", "3:1", "5")
    ds = Dataset(F73, [[1.0]], [[0]], labels, [[0.5] * 4], [1.0])
    ds.validate()
    assert sorted(calls) == sorted(labels)
    ds.validate(F73)
    assert count(ds, BOX1, 3.0, {"2:1": (0.0, 1.0)}) == 1.0
    assert sorted(calls) == sorted([*labels, "2:1"])


def test_count_filters():
    ds = small_ds()
    # parity filter: the xi=(1,) record never counts in a xi=(0,) box
    full = count(ds, BOX1, 3.0, {"2:0": (0.0, 3.0), "3:0": (0.0, 4.0)})
    # record 4 has lambda_inf = 4.0 > t = 3.0: excluded; 1 (w=1), 2 (w=2) stay
    assert full == 3.0
    tight = count(ds, BOX1, 3.0, {"2:0": (0.0, 1.0), "3:0": (0.0, 4.0)})
    assert tight == 1.0
    # closed interval: boundary value 2.5 still counts
    edge = count(ds, BOX1, 3.0, {"2:0": (2.5, 2.5), "3:0": (3.5, 4.0)})
    assert edge == 2.0


def test_count_unknown_label():
    with pytest.raises(EquidistError):
        count(small_ds(), BOX1, 3.0, {"7:0": (0.0, 1.0)})


def test_count_reads_a_bare_prime_label_as_index_0():
    # a bare p means p:0 in count as in predict, whichever spelling the dataset uses
    ds = small_ds()
    for windows in ({"2": (0.0, 1.0)}, {"2": (0.0, 1.0), "3": (0.5, 1.0)}):
        spelled = {label + ":0": ab for label, ab in windows.items()}
        assert count(ds, BOX1, 3.0, windows) == count(ds, BOX1, 3.0, spelled) == 1.0
    bare = synthesize(Q, ["2", "3"], BOX1, 200, seed=5)
    assert bare.prime_labels == ("2", "3")
    spelled = replace(bare, prime_labels=("2:0", "3:0"))
    for windows in ({"2:0": (0.0, 1.0)}, {"2": (0.0, 1.0), "3:0": (1.0, 2.0)}):
        assert count(bare, BOX1, 3.0, windows) == count(spelled, BOX1, 3.0, windows) > 0
    assert np.array_equal(bare.eigenvalues("2:0"), bare.eigenvalues("2"))
    assert np.array_equal(spelled.eigenvalues("3"), bare.eigenvalues("3:0"))


def test_two_labels_on_one_prime_are_rejected():
    # "2" and "2:0" name one prime: count used to apply both windows to it and
    # validate passed, while predict raised
    ds = Dataset(Q, [[1.0]], [[0]], ("2", "2:0"), [[0.5, 2.5]], [1.0])
    for call in (ds.validate, lambda: ds.eigenvalues("2"),
                 lambda: count(ds, BOX1, 3.0, {"3:0": (0.0, 1.0)})):
        with pytest.raises(EquidistError,
                           match="prime labels '2' and '2:0' name the same prime 2:0"):
            call()
    with pytest.raises(EquidistError, match="windows '2' and '2:0' name the same prime 2:0"):
        count(small_ds(), BOX1, 3.0, {"2:0": (0.0, 1.0), "2": (0.0, 1.0)})
    with pytest.raises(FieldError, match="not canonical"):
        count(small_ds(), BOX1, 3.0, {"2:00": (0.0, 1.0)})
    assert "_count_index" not in vars(ds)


def test_synthesize_rejects_two_labels_on_one_prime_before_sampling(monkeypatch):
    # synthesize resolves its labels as the dataset does, before it draws a
    # sample, instead of returning a dataset that raises at its first count
    import heckedist.equidist as equidist_module
    sampled = []
    sample = equidist_module._sample_pl_restriction
    monkeypatch.setattr(equidist_module, "_sample_pl_restriction",
                        lambda *args: sampled.append(args) or sample(*args))
    box = Box(2, (1,), ((2, (0.3, 1.2)),), (0, 0), 4.0)
    with pytest.raises(EquidistError,
                       match="prime labels '2' and '2:0' name the same prime 2:0"):
        synthesize(make_field(5), ["2", "2:0"], box, 10, seed=1)
    assert sampled == []
    with pytest.raises(EquidistError, match="prime labels must be distinct"):
        synthesize(make_field(5), ["2:0", "2:0"], box, 10, seed=1)


def test_count_dimension_check():
    box2 = Box(2, (1, 2), (), (0, 0), 3.0)
    with pytest.raises(EquidistError):
        count(small_ds(), box2, 3.0, {})


def test_count_matches_row_loop():
    # the vectorised mask against a plain loop over rows, on random queries
    even = Box(2, (1,), ((2, (0.3, 1.2)),), (0, 0), 4.0)
    mixed = Box(2, (1,), ((2, (0.3, 1.2)),), (0, 1), 4.0)
    ds = synthesize(F73, ["2:0", "3:0"], even, 2000, seed=3)
    xi = ds.xi.copy()
    xi[::3, 1] = 1  # a third of the rows have the other parity
    ds = Dataset(ds.field, ds.lambda_inf, xi, ds.prime_labels, ds.lambda_p,
                 np.linspace(0.5, 2.0, len(ds)))
    rng = random.Random(7)
    for _ in range(30):
        t = rng.uniform(0.5, 4.0)
        windows = {}
        for label in rng.sample(ds.prime_labels, rng.randrange(3)):
            a = rng.uniform(0.0, 2.0)
            windows[label] = (a, a + rng.uniform(0.0, 1.5))
        for bx in (even, mixed):
            b = bx.with_t(t)
            kept = []
            for lam, x, lp, w in zip(ds.lambda_inf.tolist(), ds.xi.tolist(),
                                     ds.lambda_p.tolist(), ds.weight.tolist()):
                row_lp = dict(zip(ds.prime_labels, lp))
                if (tuple(x) == b.xi and b.contains(lam)
                        and all(lo <= row_lp[k] <= hi for k, (lo, hi) in windows.items())):
                    kept.append(w)
            assert count(ds, bx, t, windows) == math.fsum(kept)


def test_count_respects_t_over_box_t():
    ds = small_ds()
    wide = count(ds, BOX1, 5.0, {"2:0": (0.0, 4.0), "3:0": (0.0, 4.0)})
    assert wide == 4.0  # all even-parity records in range: weights 1 + 2 + 1


BOX73 = Box(2, (1,), ((2, (0.3, 1.2)),), (0, 0), 4.0)
MIXED73 = Box(2, (1,), ((2, (0.3, 1.2)),), (0, 1), 4.0)


def reference_mask(ds, box, t, j_windows):
    """The rows the count keeps, as the count before the column-major kernel
    found them: one mask over the row-major tables."""
    bx = box.with_t(t)
    mask = (ds.xi == np.array(bx.xi)).all(axis=1)
    for j in range(bx.dim):
        a, b = bx.interval(j + 1)
        mask &= (a <= ds.lambda_inf[:, j]) & (ds.lambda_inf[:, j] <= b)
    for label, (a, b) in j_windows.items():
        col = ds.eigenvalues(label)
        mask &= (a <= col) & (col <= b)
    return mask


def reference_count(ds, box, t, j_windows):
    return math.fsum(ds.weight[reference_mask(ds, box, t, j_windows)].tolist())


def mixed_parity_ds(m, seed):
    ds = synthesize(F73, ["2:0", "3:0"], BOX73, m, seed=seed)
    xi = ds.xi.copy()
    xi[::3, 1] = 1
    return Dataset(ds.field, ds.lambda_inf, xi, ds.prime_labels, ds.lambda_p,
                   np.linspace(0.5, 2.0, len(ds)))


def column_views(ds):
    """ds rebuilt from C-order column views of one wide table, as from_csv builds it."""
    wide = np.ascontiguousarray(np.hstack([ds.lambda_inf, ds.xi, ds.lambda_p,
                                           ds.weight[:, None]]))
    return wide, Dataset(ds.field, wide[:, :2], wide[:, 2:4], ds.prime_labels,
                         wide[:, 4:6], wide[:, 6])


def random_queries(rng, n):
    out = []
    for _ in range(n):
        windows = {}
        for label in rng.sample(["2:0", "3:0"], rng.randrange(3)):
            a = rng.uniform(0.0, 2.0)
            windows[label] = (a, a + rng.uniform(0.0, 1.5))
        out.append((rng.uniform(0.5, 4.0), windows))
    return out


def test_count_same_on_views_and_jsonl_round_trip(tmp_path):
    ds = mixed_parity_ds(3000, seed=11)
    _, views = column_views(ds)
    path = tmp_path / "ds.jsonl"
    ds.to_jsonl(str(path))
    back = Dataset.from_jsonl(str(path), repr(ds.field))
    for t, windows in random_queries(random.Random(13), 25):
        for bx in (BOX73, MIXED73):
            want = reference_count(ds, bx, t, windows)
            assert count(ds, bx, t, windows) == want
            assert count(views, bx, t, windows) == want
            assert count(back, bx, t, windows) == want


def test_count_closed_endpoints_at_stored_values():
    ds = mixed_parity_ds(1000, seed=17)
    rng = random.Random(19)
    for i in rng.sample(range(len(ds)), 20):
        lam1 = float(ds.lambda_inf[i, 0])
        v2, v3 = (float(x) for x in ds.lambda_p[i])
        bx = BOX73 if ds.xi[i, 1] == 0 else MIXED73
        # t = |lambda_1| and windows [v, v] put row i on every boundary at once
        windows = {"2:0": (v2, v2), "3:0": (v3, 2 * math.sqrt(3))}
        got = count(ds, bx, abs(lam1), windows)
        assert got == reference_count(ds, bx, abs(lam1), windows)
        assert got >= ds.weight[i] > 0


def test_count_is_fsum_of_kept_weights_over_wide_range():
    ds = mixed_parity_ds(2000, seed=23)
    rng = np.random.default_rng(29)
    weights = 10.0 ** rng.uniform(-300, 300, len(ds)) * rng.uniform(1, 10, len(ds))
    ds = replace(ds, weight=weights)
    naive_differs = False
    for t, windows in random_queries(random.Random(31), 30):
        kept = ds.weight[reference_mask(ds, BOX73, t, windows)]
        want = math.fsum(kept.tolist())
        assert count(ds, BOX73, t, windows) == want
        naive_differs |= float(np.sum(kept)) != want
    assert naive_differs  # the weights are wide enough for a plain sum to round off


def weighted_ds(weights, seed=41):
    """One row per weight, lambda_inf uniform on [-4, 4] and one Hecke column on [0, 3]."""
    rng = np.random.default_rng(seed)
    n = len(weights)
    return Dataset(Q, rng.uniform(-4.0, 4.0, (n, 1)), np.zeros((n, 1)), ("2:0",),
                   rng.uniform(0.0, 3.0, (n, 1)), weights)


def compress_fsum(ds, box, t, j_windows):
    """The count before the digit table: the kept weights gathered, then fsum."""
    return math.fsum(memoryview(np.compress(reference_mask(ds, box, t, j_windows), ds.weight)))


_rng = np.random.default_rng(43)
WEIGHT_SETS = {
    "equal": np.full(3000, 0.1),
    "lognormal": _rng.lognormal(0.0, 3.0, 3000),
    "wide": 10.0 ** _rng.uniform(-300, 300, 3000) * _rng.uniform(1, 10, 3000),
    "zeros_and_tiny": np.where(_rng.random(3000) < 0.5, 0.0, _rng.uniform(1, 2, 3000) * 1e-200),
    "zeros_and_huge": np.where(_rng.random(3000) < 0.5, 0.0, _rng.uniform(1, 2, 3000) * 1e200),
    "subnormal": _rng.choice([5e-324, 1e-310, 0.0, 1e-300, 2.0 ** -1022], 3000),
    "all_zero": np.zeros(3000),
    "single": np.array([0.7]),
    "single_subnormal": np.array([5e-324]),
}
COUNT_QUERIES = [(t, w) for t in (0.0, 1.0, 2.5, 4.0)
                 for w in ({}, {"2:0": (0.5, 2.0)}, {"2:0": (3.5, 4.0)})]


@pytest.mark.parametrize("name", sorted(WEIGHT_SETS))
def test_count_is_bit_identical_to_compress_fsum(name):
    ds = weighted_ds(WEIGHT_SETS[name])
    for t, windows in COUNT_QUERIES:  # t = 0 and the window [3.5, 4] keep no row
        got, want = count(ds, BOX1, t, windows), compress_fsum(ds, BOX1, t, windows)
        assert got.hex() == want.hex(), (name, t, windows)
    # every row kept: the count is the total weight
    assert count(ds, BOX1, 4.0, {}).hex() == ds.total_weight().hex() == math.fsum(
        ds.weight.tolist()).hex()


def tie_weights(n, d):
    """n weights in [1/2, 1) whose sum lies d units of 2^-53 past a rounding tie.

    n - 1 of them have all-ones mantissas, so every digit column is as full as
    the digit width allows; an error in any column then moves the rounding.
    """
    base = (n - 1) * (2 ** 53 - 1)
    for x in range(2 ** 52, 2 ** 53):
        drop = (base + x).bit_length() - 53
        if (base + x) % 2 ** drop == 2 ** (drop - 1) + d:
            break
    w = np.full(n, (2 ** 53 - 1) / 2 ** 53)
    w[-1] = x / 2 ** 53
    return w


def test_count_rounds_near_ties_as_fsum():
    # a low digit that is off by a little changes the sum only near a tie
    sets = [tie_weights(n, d) for k in (10, 12)  # b = 53 - n.bit_length() drops at 2^k
            for n in (2 ** k - 1, 2 ** k) for d in (-1, 1)]
    for big in (1 + 2 ** -52, 3 - 2 ** -51, 1e300 * (1 + 2 ** -52)):
        # two weights so far apart that the small one's digits start above the big one's
        half = math.ulp(big) / 2
        sets += [np.array([big, half + s * gap * half]) for gap in (2 ** -3, 2 ** -40)
                 for s in (-1, 1)]
    for w in sets:
        ds = weighted_ds(w)
        assert count(ds, BOX1, 4.0, {}).hex() == compress_fsum(ds, BOX1, 4.0, {}).hex()


def test_count_overflows_as_fsum_does():
    ds = weighted_ds(np.array([1e308, 1e308]))
    with pytest.raises(OverflowError):
        compress_fsum(ds, BOX1, 4.0, {})
    with pytest.raises(OverflowError):
        count(ds, BOX1, 4.0, {})
    assert count(ds, BOX1, 0.0, {}) == 0.0  # rows left out cannot overflow
    assert count(ds, BOX1, 4.0, {"2:0": (3.5, 4.0)}) == 0.0  # nor can a block a window misses


def test_count_checks_empty_datasets_as_nonempty_ones():
    empty = Dataset(Q, np.zeros((0, 1)), np.zeros((0, 1)), ("2:0",), np.zeros((0, 1)), [])
    for ds in (empty, one_row()):
        with pytest.raises(EquidistError):
            count(ds, BOX73, 3.0, {})  # a dimension-2 box on dimension-1 records
        with pytest.raises(EquidistError):
            count(ds, BOX1, 3.0, {"7:0": (0.0, 1.0)})
    assert count(empty, BOX1, 3.0, {"2:0": (0.0, 1.0)}) == 0.0


E1_BOXES = [Box(2, (2,), ((1, (a, b)),), xi, 1.0) for a, b in ((-1.7, 2.3), (-4.5, -3.1),
                                                                (0.11, 0.12), (3.9, 9.0))
            for xi in ((0, 0), (0, 1), (1, 0))]


def test_count_with_coordinate_1_as_e_window():
    ds = mixed_parity_ds(2000, seed=47)
    for t, windows in random_queries(random.Random(53), 8):
        for bx in E1_BOXES:
            assert count(ds, bx, t / 4, windows) == reference_count(ds, bx, t / 4, windows)


def ties_ds(weights, seed):
    """d = 1 rows piled on -2.0 (an atom) and on +-2.0, +-0.0 and 3.5, the rest
    uniform on [-4, 4], with random parities; one row per weight."""
    rng = np.random.default_rng(seed)
    n = len(weights)
    lam = rng.uniform(-4.0, 4.0, n)
    lam[:300] = rng.choice([-2.0, -2.0, -2.0, 2.0, -0.0, 0.0, 3.5], 300)
    perm = rng.permutation(n)  # the piles spread over the stored order
    return Dataset(Q, lam[perm, None], rng.integers(0, 2, (n, 1)), ("2:0",),
                   rng.uniform(0.0, 3.0, (n, 1)), weights)


def test_count_slices_ties_at_the_edges():
    ts = [0.0, 2.0, math.nextafter(2.0, 0.0), math.nextafter(2.0, 3.0), 3.5, 4.0, 5.0]
    boxes = [BOX1, Box(1, (1,), (), (1,), 1.0)]
    rng = np.random.default_rng(59)
    for weights in (rng.uniform(0.5, 2.0, 1000), np.zeros(1000)):
        ds = ties_ds(weights, seed=61)
        for t in ts:
            for bx in boxes:
                for windows in ({}, {"2:0": (0.5, 2.0)}):
                    got = count(ds, bx, t, windows)
                    assert got.hex() == compress_fsum(ds, bx, t, windows).hex(), (t, bx.xi)
                    assert got == reference_count(ds, bx, t, windows)
    # -0.0 and 0.0 both sit in [-0.0, 0.0]
    zeros = Dataset(Q, [[-0.0], [0.0], [0.0], [-0.0]], [[0]] * 4, (), np.zeros((4, 0)),
                    [1.0, 2.0, 4.0, 8.0])
    assert count(zeros, BOX1, 0.0, {}) == 15.0
    assert count(small_ds(), BOX1, 0.0, {}) == 0.0


def assert_count_exact(ds, bx, t, windows):
    got = count(ds, bx, t, windows)
    assert got.hex() == compress_fsum(ds, bx, t, windows).hex(), (t, bx.xi, windows)
    assert got == reference_count(ds, bx, t, windows)
    return got


def block_range(ds, xi, label):
    col = ds.eigenvalues(label)[(ds.xi == np.array(xi)).all(axis=1)]
    return float(col.min()), float(col.max())


def test_count_index_stores_each_block_range():
    ds = mixed_parity_ds(900, seed=103)
    count(ds, BOX73, 4.0, {})
    blocks = vars(ds)["_count_index"][0]
    assert sorted(blocks) == [0, 2]  # parity codes of (0, 0) and (0, 1)
    for code, xi in ((0, (0, 0)), (2, (0, 1))):
        start, stop, lo, hi = blocks[code]
        rows = (ds.xi == np.array(xi)).all(axis=1)
        assert stop - start == rows.sum()
        cols = np.hstack([ds.lambda_inf, ds.lambda_p])[rows]
        assert lo == cols.min(axis=0).tolist() and hi == cols.max(axis=0).tolist()


def test_count_window_at_the_block_range_keeps_every_row():
    ds = mixed_parity_ds(900, seed=107)
    for bx, xi in ((BOX73, (0, 0)), (MIXED73, (0, 1))):
        for t in (2.0, 4.0):
            every = assert_count_exact(ds, bx, t, {})
            for label in ("2:0", "3:0"):
                lo, hi = block_range(ds, xi, label)
                # ends exactly at the stored min and max: the window holds the block
                assert assert_count_exact(ds, bx, t, {label: (lo, hi)}) == every
                # one step in at either end leaves a row out, so the window binds
                # (at t = 4 every row of the block is in the box)
                for window in ((math.nextafter(lo, hi), hi), (lo, math.nextafter(hi, lo))):
                    got = assert_count_exact(ds, bx, t, {label: window})
                    assert got < every or t < 4.0
    # a window holding the block reads none of its rows, so poisoning every column
    # but lambda_1 in the index changes no count (the box's E-window holds them too)
    vars(ds)["_count_index"][1][:, 1:] = np.nan
    for bx, xi in ((BOX73, (0, 0)), (MIXED73, (0, 1))):
        windows = {label: block_range(ds, xi, label) for label in ("2:0", "3:0")}
        assert count(ds, bx, 4.0, windows) == reference_count(ds, bx, 4.0, {})


def test_count_window_holding_one_block_cuts_the_other():
    ds = mixed_parity_ds(900, seed=109)
    boxes = {(0, 0): BOX73, (0, 1): MIXED73}
    every = {xi: assert_count_exact(ds, bx, 4.0, {}) for xi, bx in boxes.items()}
    cut = 0
    for label in ("2:0", "3:0"):
        ranges = {xi: block_range(ds, xi, label) for xi in boxes}
        for inner, outer in (((0, 0), (0, 1)), ((0, 1), (0, 0))):
            (lo, hi), (lo_out, hi_out) = ranges[inner], ranges[outer]
            if lo <= lo_out and hi_out <= hi:
                continue  # this window holds both blocks
            cut += 1
            for xi, bx in boxes.items():
                got = assert_count_exact(ds, bx, 4.0, {label: (lo, hi)})
                assert (got == every[xi]) == (xi == inner)
    assert cut  # some block's range holds its own rows and cuts the other block


def test_count_window_missing_the_block_is_zero():
    ds = mixed_parity_ds(900, seed=113)  # lambda_2 lies in the box's [0.3, 1.2]
    below, above = (Box(2, (1,), ((2, window),), (0, 0), 4.0) for window in ((0.1, 0.25),
                                                                           (1.3, 2.0)))
    for bx in (below, above):
        assert assert_count_exact(ds, bx, 4.0, {}) == 0.0
    lo, hi = block_range(ds, (0, 0), "3:0")
    for window in ((0.0, math.nextafter(lo, 0.0)), (math.nextafter(hi, 4.0), 4.0)):
        assert assert_count_exact(ds, BOX73, 4.0, {"3:0": window}) == 0.0
    # a window that reaches the block by its one end row binds and keeps that row
    assert assert_count_exact(ds, BOX73, 4.0, {"3:0": (0.0, lo)}) > 0.0


def test_count_signed_zeros_at_a_block_edge():
    # the Hecke column of the even block starts at -0.0 and 0.0, which compare equal
    ds = Dataset(Q, [[0.5], [1.0], [1.5], [2.0], [2.5]], [[0], [0], [0], [0], [1]],
                 ("2:0",), [[-0.0], [0.0], [0.5], [1.0], [0.0]], [1.0, 2.0, 4.0, 8.0, 16.0])
    for window, want in (((0.0, 1.0), 15.0), ((-0.0, 1.0), 15.0), ((0.0, 0.0), 3.0),
                         ((-0.0, -0.0), 3.0), ((-1.0, -0.0), 3.0),
                         ((5e-324, 1.0), 12.0), ((-1.0, -5e-324), 0.0)):
        assert assert_count_exact(ds, BOX1, 4.0, {"2:0": window}) == want


def test_count_one_row_block():
    ds = Dataset(Q, [[-1.0], [0.5], [1.0], [3.0]], [[0], [1], [0], [0]], ("2:0",),
                 [[0.2], [0.7], [1.4], [2.1]], [1.0, 2.0, 4.0, 8.0])
    odd = Box(1, (1,), (), (1,), 4.0)  # its block is the one row (0.5, 0.7)
    up, down = math.nextafter(0.7, 1.0), math.nextafter(0.7, 0.0)
    for window, want in (((0.7, 0.7), 2.0), ((0.0, 0.7), 2.0), ((0.7, 3.0), 2.0),
                         ((up, 3.0), 0.0), ((0.0, down), 0.0)):
        for t in (0.5, 4.0):
            assert assert_count_exact(ds, odd, t, {"2:0": window}) == want
    assert assert_count_exact(ds, odd, math.nextafter(0.5, 0.0), {}) == 0.0


def test_count_on_an_empty_dataset_is_zero():
    empty = Dataset(F73, np.zeros((0, 2)), np.zeros((0, 2)), ("2:0", "3:0"),
                    np.zeros((0, 2)), [])
    for bx in (BOX73, MIXED73):
        for t, windows in random_queries(random.Random(127), 4):
            assert assert_count_exact(empty, bx, t, windows) == 0.0
    assert vars(empty)["_count_index"][0] == {}


def test_count_with_a_parity_no_row_has():
    ds = mixed_parity_ds(600, seed=67)  # parities (0, 0) and (0, 1) only
    odd = Box(2, (1,), ((2, (0.3, 1.2)),), (1, 0), 4.0)
    for t, windows in random_queries(random.Random(71), 5):
        assert count(ds, odd, t, windows) == 0.0 == reference_count(ds, odd, t, windows)
    assert count(ds, BOX73, 4.0, {}) == reference_count(ds, BOX73, 4.0, {}) > 0


def test_count_with_parity_codes_wider_than_a_byte():
    # d = 10: codes up to 2^10 - 1, so an 8-bit code would wrap and merge blocks
    rng = np.random.default_rng(101)
    patterns = rng.integers(0, 2, (6, 10))
    patterns[0], patterns[1] = 1, [0] * 8 + [1, 1]  # codes 1023 and 768, both >= 256
    n = 900
    ds = Dataset(Q, rng.uniform(-4.0, 4.0, (n, 10)), patterns[rng.integers(0, 6, n)],
                 (), np.zeros((n, 0)), rng.uniform(0.5, 2.0, n))
    for xi in patterns:
        bx = Box(10, tuple(range(1, 11)), (), tuple(int(x) for x in xi), 4.0)
        for t in (1.0, 3.0, 4.0):
            assert count(ds, bx, t, {}) == reference_count(ds, bx, t, {})
        assert count(ds, bx, 4.0, {}) > 0


def test_count_index_is_built_once():
    ds = mixed_parity_ds(300, seed=73)
    assert "_count_index" not in vars(ds)
    count(ds, BOX73, 1.0, {})
    index = vars(ds)["_count_index"]
    for t, windows in random_queries(random.Random(79), 5):
        for bx in (BOX73, MIXED73):
            assert count(ds, bx, t, windows) == reference_count(ds, bx, t, windows)
    assert vars(ds)["_count_index"] is index


def test_rejected_queries_build_no_index():
    ds = mixed_parity_ds(300, seed=83)
    for bx, t, windows in ((BOX73, math.nan, {}), (BOX73, 2.0, {"7:0": (0.0, 1.0)}),
                           (BOX1, 2.0, {}), (BOX73, 2.0, {"2:0": (1.0, 0.0)})):
        with pytest.raises(EquidistError):
            count(ds, bx, t, windows)
        assert "_count_index" not in vars(ds)
    count(ds, BOX73, 2.0, {})
    assert "_count_index" in vars(ds)


def test_scaled_and_replaced_datasets_index_afresh():
    ds = mixed_parity_ds(800, seed=89)
    query = (3.0, {"2:0": (0.2, 1.8)})
    count(ds, BOX73, *query)
    scaled = ds.scaled(1 / 3)
    moved = replace(ds, lambda_inf=ds.lambda_inf[::-1].copy())
    for new in (scaled, moved):
        assert "_count_index" not in vars(new)
        for t, windows in [query] + random_queries(random.Random(97), 5):
            for bx in (BOX73, MIXED73):
                assert count(new, bx, t, windows) == reference_count(new, bx, t, windows)
        assert vars(new)["_count_index"] is not vars(ds)["_count_index"]
    assert np.array_equal(scaled.weight, ds.weight * (1 / 3))


def test_dataset_columns_are_contiguous():
    ds = mixed_parity_ds(500, seed=37)
    wide, views = column_views(ds)
    for built in (ds, views, views.scaled(2.0), small_ds()):
        for table in (built.lambda_inf, built.xi, built.lambda_p):
            assert all(table[:, j].flags.c_contiguous for j in range(table.shape[1]))
        assert built.weight.flags.c_contiguous
        assert built.xi.dtype == np.int8
        # and so is every column of the count index
        count(built, BOX1 if built.dim == 1 else BOX73, 1.0, {})
        _, table, digits, _, _ = vars(built)["_count_index"]
        assert all(table[:, j].flags.c_contiguous for j in range(table.shape[1]))
        assert digits.flags.c_contiguous
    assert not np.shares_memory(views.weight, wide)


def test_level_index():
    assert level_index(Ideal.principal(Q.element(6))) == 12
    assert level_index(Ideal.unit_ideal(Q)) == 1
    F5 = make_field(5)
    p5 = Ideal.principal(F5.element(-1, 2))  # sqrt5
    assert level_index(p5) == 6
    # norm-4 inert prime: N(1 + 1/N) = 4 * 5/4 = 5
    p2 = Ideal.principal(F5.element(2))
    assert level_index(p2) == 5


@pytest.mark.parametrize("call, match", [
    (lambda: synthesize(Q, ["2:0"], BOX1, 0, seed=1), "need at least one record"),
    # pl0 has no mass on [0.05, 0.2]: no atom there, and its continuum starts at 1/4
    (lambda: synthesize(Q, ["2:0"], Box(1, (), ((1, (0.05, 0.2)),), (0,), 0.0), 3, seed=1),
     "zero pl measure"),
    (lambda: tau_table(0), r"need n_max >= 1"),
    (lambda: tau_table(10 ** 6 + 1), r"capped at 10\^6"),
    (lambda: verify_tau_identities([0, 1, -24, 252]), "table too short"),
    (lambda: verify_tau_identities([0, 2, -24, 252, -1472]), r"tau\(1\) != 1"),
    (lambda: level_index(Ideal.principal(Q.element(Fraction(1, 2)))),
     "level ideal must be integral"),
    (lambda: level_index(Ideal(Q, ((0,),))), "level ideal must be nonzero"),
    (lambda: synthesize(F73, ["2:0"], BOX1, 3, seed=1), "box dimension 1 != field degree 2"),
    (lambda: synthesize(Q, ["2:0"], BOX73, 3, seed=1), "box dimension 2 != field degree 1"),
    (lambda: heckedist.Prediction(1.0, 1.0, 1.0, 1.0, 1.0, -1.0), "error must be nonnegative"),
], ids=["synthesize-0-records", "synthesize-zero-pl-box", "tau-table-0", "tau-table-past-cap",
        "tau-identities-short", "tau-identities-tau1", "level-fractional", "level-zero",
        "synthesize-box-short", "synthesize-box-long", "prediction-negative"])
def test_input_checks_raise(call, match):
    with pytest.raises(EquidistError, match=match):
        call()


def test_predict_structure():
    pred = predict(Q, 1.0, BOX1, 3.0, {"2:0": (0.0, 10.0)})
    # degree 1, |disc| = 1: constant = 2 * covol / (2 pi)
    assert pred.constant == pytest.approx(1.0 / math.pi)
    full_pl = measure_interval(pl_measure(0), (-3.0, 3.0)).value
    assert pred.pl_factor == pytest.approx(full_pl)
    # J covers the full Sato-Tate support: phi factor 1
    assert pred.phi_factor == pytest.approx(1.0)
    assert pred.product == pytest.approx(pred.constant * pred.pl_factor)
    assert pred.v1 > 0


def test_predict_exceptional_window_is_zero():
    # J strictly inside (2 sqrt 2, 3]: Sato-Tate mass vanishes
    pred = predict(Q, 1.0, BOX1, 3.0, {"2:0": (2.9, 3.0)})
    assert pred.phi_factor == 0.0
    assert pred.product == 0.0


def test_predict_dimension_check():
    with pytest.raises(EquidistError):
        predict(F73, 1.0, BOX1, 3.0, {})  # degree-2 field, dim-1 box


def test_predict_rejects_two_windows_on_one_prime():
    # "2" is "2:0": two windows on one prime would multiply its Phi twice
    one = predict(F73, 1.0, BOX73, 4.0, {"2:0": (0.0, 1.0)}).product
    assert predict(F73, 1.0, BOX73, 4.0, {"2": (0.0, 1.0)}).product == one
    with pytest.raises(EquidistError, match="windows '2' and '2:0' name the same prime 2:0"):
        predict(F73, 1.0, BOX73, 4.0, {"2:0": (0.0, 1.0), "2": (0.0, 1.0)})
    with pytest.raises(FieldError, match="not canonical"):
        predict(F73, 1.0, BOX73, 4.0, {"2:0": (0.0, 1.0), "2:00": (0.0, 1.0)})


def test_count_and_predict_reject_bad_queries():
    ds = synthesize(F73, ["2:0", "3:0"], BOX73, 1000, seed=1)
    good = {"2:0": (0.0, 1.0), "3:0": (1.0, 2.0)}
    for t, windows in ((2.0, dict(good, **{"2:0": (2.0, 1.0)})),
                       (2.0, dict(good, **{"3:0": (math.nan, 1.0)})),
                       (math.nan, good), (math.inf, good), (-1.0, good)):
        with pytest.raises(EquidistError):
            count(ds, BOX73, t, windows)
        with pytest.raises(EquidistError):
            predict(F73, 1.0, BOX73, t, windows)
    empty = Dataset(F73, np.zeros((0, 2)), np.zeros((0, 2)), ("2:0",),
                    np.zeros((0, 1)), [])
    with pytest.raises(EquidistError):  # checked on an empty dataset too
        count(empty, BOX73, math.nan, {})


def test_prediction_error_bounds_product():
    pred = predict(F73, 1.0, BOX73, 4.0, {"2:0": (0.0, 1.0), "3:0": (1.0, 2.0)})
    assert math.isfinite(pred.error) and 0 <= pred.error < 1e-9 * pred.product
    pl = box_measure(BOX73, "pl")
    # the pl factor's own bound, carried through the other factors, is a floor
    assert pred.error >= pred.constant * pred.phi_factor * pl.error
    zero = predict(F73, 1.0, BOX73, 4.0, {"2:0": (2.9, 3.0)})
    assert zero.product == 0.0 and 0 <= zero.error < 1e-12


def test_synthesize_deterministic(tmp_path):
    box = Box(2, (1,), ((2, (0.3, 1.2)),), (0, 0), 4.0)
    ds1 = synthesize(F73, ["2:0", "3:0"], box, 500, seed=42)
    ds2 = synthesize(F73, ["2:0", "3:0"], box, 500, seed=42)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    ds1.to_jsonl(str(p1))
    ds2.to_jsonl(str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    ds3 = synthesize(F73, ["2:0", "3:0"], box, 500, seed=43)
    ds3.to_jsonl(str(p2))
    assert p1.read_bytes() != p2.read_bytes()


def test_synthesize_pinned_bytes(tmp_path):
    # digests of the files written before the columnar dataset model
    box = Box(2, (1,), ((2, (0.3, 1.2)),), (0, 0), 4.0)
    ds = synthesize(make_field(73), ["2:0", "3:0"], box, 500, seed=42)
    ds.to_jsonl(str(tmp_path / "s.jsonl"))
    ds.to_csv(str(tmp_path / "s.csv"))
    assert hashlib.sha256((tmp_path / "s.jsonl").read_bytes()).hexdigest() == \
        "bff7eeaadb7a84b483a677f5d4a197528e1e72f1304f16488315d846b19aa2b5"
    assert hashlib.sha256((tmp_path / "s.csv").read_bytes()).hexdigest() == \
        "5e1151f2df0bf02a86c8442edae2919f66e9438a91ef47bf7a121be5726ad6c9"


@pytest.mark.parametrize("box, digest", [
    # parity 1: the density 2u coth(pi u) beside the atom at -3/4
    (Box(1, (1,), (), (1,), 3.0),
     "19ca07a79b10f7e2f4cc6ef246c1b729c25f80de01e094c5e0f8a407d072d8ff"),
    # a window below 1/4 holds atoms only
    (Box(1, (), ((1, (-30.5, -0.5)),), (0,), 0.0),
     "13073dab6020677f8fb505994d60241f26dd22b609efb482de799261500560bb"),
])
def test_synthesize_pinned_odd_and_atomic_boxes(box, digest):
    ds = synthesize(Q, ["2:0"], box, 5000, seed=3)
    assert hashlib.sha256(ds.lambda_inf.tobytes()).hexdigest() == digest


def test_pl_sampler_takes_the_last_atom_past_the_last_threshold():
    # pl masses are integers, so an all-atomic window's thresholds end at exactly
    # 1.0 and no uniform draw passes them; a draw of 1.0 is the rounding guard's case
    import heckedist.equidist as equidist_module

    out = equidist_module._sample_pl_restriction(0, (-30.5, -0.5), np.array([0.0, 0.5, 1.0]),
                                                 np.zeros(3))
    assert out.tolist() == [-2.0, -20.0, -30.0]


def test_synthesize_respects_box():
    box = Box(2, (1,), ((2, (0.3, 1.2)),), (0, 0), 4.0)
    ds = synthesize(F73, ["2:0", "3:0"], box, 300, seed=1)
    assert len(ds) == 300
    assert ds.lambda_inf.shape == ds.xi.shape == (300, 2)
    assert ds.lambda_p.shape == (300, 2)
    assert (ds.xi == 0).all()
    assert (np.abs(ds.lambda_inf[:, 0]) <= 4.0).all()
    assert ((0.3 <= ds.lambda_inf[:, 1]) & (ds.lambda_inf[:, 1] <= 1.2)).all()
    assert ((0.0 <= ds.eigenvalues("2:0")) & (ds.eigenvalues("2:0") <= 2 * math.sqrt(2))).all()
    assert ((0.0 <= ds.eigenvalues("3:0")) & (ds.eigenvalues("3:0") <= 2 * math.sqrt(3))).all()
    assert (ds.weight == 1.0).all()
    assert list(ds.src) == ["synth"] * 300
    assert ds.field is F73  # the caller's field, not a copy parsed from its name


def test_synthesize_marginal_matches_sato_tate():
    box = Box(2, (1,), ((2, (0.3, 1.2)),), (0, 0), 4.0)
    ds = synthesize(F73, ["2:0"], box, 20000, seed=9)
    samples = np.sort(ds.eigenvalues("2:0"))
    mu = SatoTateMeasure(2)
    cdf = np.array([mu.mass(0.0, float(x)).value for x in samples[::200]])
    emp = np.arange(0, len(samples), 200) / len(samples)
    assert np.max(np.abs(cdf - emp)) < 0.02


def test_jsonl_roundtrip(tmp_path):
    ds = small_ds()
    path = tmp_path / "ds.jsonl"
    ds.to_jsonl(str(path))
    back = Dataset.from_jsonl(str(path), field_spec="Q")
    assert_same_rows(back, ds)
    assert list(back.src) == [None] * 4
    # file format: one JSON object per line, sorted keys
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 4
    row = json.loads(lines[0])
    assert list(row) == sorted(row)


def test_csv_roundtrip(tmp_path):
    ds = small_ds()
    path = tmp_path / "ds.csv"
    ds.to_csv(str(path))
    back = Dataset.from_csv(str(path), field_spec="Q")
    assert len(back) == len(ds)
    assert_same_rows(back, ds)
    header = path.read_text().split("\n")[0]
    assert header.split(",")[:2] == ["lambda_1", "xi_1"]


# -- per-row serializers the template writers and flat-column readers replaced --


def csv_header(ds):
    return (["lambda_%d" % (j + 1) for j in range(ds.dim)]
            + ["xi_%d" % (j + 1) for j in range(ds.dim)] + list(ds.prime_labels) + ["weight"])


def reference_to_jsonl(ds, path):
    enc = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)
    src = ds.src if ds.src is not None else [None] * len(ds)
    with open(path, "w") as fh:
        for lam, xi, lp, w, s in zip(ds.lambda_inf.tolist(), ds.xi.tolist(),
                                     ds.lambda_p.tolist(), ds.weight.tolist(), src):
            row = {"lambda_inf": lam, "xi": xi,
                   "lambda_p": dict(zip(ds.prime_labels, lp)), "weight": w}
            if s is not None:
                row["src"] = s
            fh.write(enc.encode(row) + "\n")


def reference_to_csv(ds, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(csv_header(ds))
        w.writerows(lam + xi + lp + [wt] for lam, xi, lp, wt in zip(
            ds.lambda_inf.tolist(), ds.xi.tolist(), ds.lambda_p.tolist(),
            ds.weight.tolist()))


def reference_from_jsonl(path):
    lam, xi, lp, weight, src = [], [], [], [], []
    labels = []
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            row = json.loads(line)
            labels = sorted(row["lambda_p"])
            lam.append(row["lambda_inf"])
            xi.append(row["xi"])
            lp.append([row["lambda_p"][k] for k in labels])
            weight.append(row.get("weight", 1.0))
            src.append(row.get("src"))
    d = len(lam[0]) if lam else 0
    return Dataset(Q, np.array(lam, dtype=np.float64).reshape(len(lam), d),
                   np.array(xi, dtype=np.float64).reshape(len(xi), d), tuple(labels),
                   np.array(lp, dtype=np.float64).reshape(len(lp), len(labels)), weight, src)


def reference_from_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [row for row in reader if row]
    d = sum(1 for h in header if h.startswith("xi_"))
    table = np.array(rows, dtype=np.float64).reshape(len(rows), len(header))
    return Dataset(Q, table[:, :d], table[:, d:2 * d], tuple(header[2 * d:-1]),
                   table[:, 2 * d:-1], table[:, -1])


def assert_same_bits(a, b):
    assert a.prime_labels == b.prime_labels
    for name in ("lambda_inf", "xi", "lambda_p", "weight"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), name
    assert (None if a.src is None else list(a.src)) == (None if b.src is None else list(b.src))


AWKWARD = [-0.0, 5e-324, 1e16, 1e22, 0.1 + 0.2, -2.0]


def awkward_ds():
    """Floats whose repr is unusual, src tags that need JSON escapes, and a
    label with a quote, a comma and a percent sign."""
    n = len(AWKWARD)
    return Dataset(Q, [[x, AWKWARD[(i + 1) % n]] for i, x in enumerate(AWKWARD)],
                   [[i % 2, i // 2 % 2] for i in range(n)], ("2:0", 'p"%,1'),
                   [[AWKWARD[(i + 2) % n], x] for i, x in enumerate(AWKWARD)],
                   [-0.0, 5e-324, 1e16, 1e22, 0.1 + 0.2, 2.0],
                   [None, "synth", 'say "hi" \\ now', "Maaß–Hecke", None, "synth"])


def test_writers_match_per_row_reference(tmp_path):
    for ds in (awkward_ds(), small_ds(),
               synthesize(F73, ["2:0", "3:0"], Box(2, (1,), ((2, (0.3, 1.2)),), (0, 0), 4.0),
                          5000, seed=7)):
        for write, reference, name in ((Dataset.to_jsonl, reference_to_jsonl, "ds.jsonl"),
                                       (Dataset.to_csv, reference_to_csv, "ds.csv")):
            write(ds, str(tmp_path / name))
            reference(ds, str(tmp_path / ("ref_" + name)))
            assert (tmp_path / name).read_bytes() == (tmp_path / ("ref_" + name)).read_bytes()


SRCS = [None, "synth", "%s%d", 'a "quote"', "Maaß"]


def block_ds(n, labels=("2:0", "%d:1"), src=True):
    """n rows of awkward floats; src cycles through SRCS, so it changes inside
    every block and across every block boundary."""
    rng = np.random.default_rng(n)
    rows = [AWKWARD[i % len(AWKWARD)] * rng.random() for i in range(4 * n)]
    lam = np.array(rows[:2 * n]).reshape(n, 2)
    lp = np.abs(np.array(rows[2 * n:])).reshape(n, 2)[:, :len(labels)]
    return Dataset(Q, lam, rng.integers(0, 2, (n, 2)), labels, lp, np.abs(lam[:, 0]),
                   [SRCS[i % len(SRCS)] for i in range(n)] if src else None)


@pytest.mark.parametrize("n, labels, src", [
    *((n, ("2:0", "%d:1"), True) for n in (0, 4095, 4096, 4097, 8193)),
    (4097, (), True), (4097, ("2:0",), False)],
    ids=["0", "4095", "4096", "4097", "8193", "no-labels", "no-src"])
def test_writers_match_per_row_reference_at_block_edges(tmp_path, n, labels, src):
    ds = block_ds(n, labels, src)
    for write, reference, name in ((Dataset.to_jsonl, reference_to_jsonl, "ds.jsonl"),
                                   (Dataset.to_csv, reference_to_csv, "ds.csv")):
        write(ds, str(tmp_path / name))
        reference(ds, str(tmp_path / ("ref_" + name)))
        assert (tmp_path / name).read_bytes() == (tmp_path / ("ref_" + name)).read_bytes()
    back = Dataset.from_jsonl(str(tmp_path / "ds.jsonl"), "Q")
    assert_same_bits(back, reference_from_jsonl(str(tmp_path / "ds.jsonl")))


def test_readers_match_per_row_reference(tmp_path):
    ds = awkward_ds()
    ds.to_jsonl(str(tmp_path / "ds.jsonl"))
    ds.to_csv(str(tmp_path / "ds.csv"))
    back = Dataset.from_jsonl(str(tmp_path / "ds.jsonl"), "Q")
    assert_same_bits(back, reference_from_jsonl(str(tmp_path / "ds.jsonl")))
    assert_same_bits(back, ds)
    back = Dataset.from_csv(str(tmp_path / "ds.csv"), "Q")
    assert_same_bits(back, reference_from_csv(str(tmp_path / "ds.csv")))
    assert_same_bits(back, replace(ds, src=None))
    # a header-only CSV and an empty JSONL file hold zero records
    (tmp_path / "head.csv").write_text(",".join(csv_header(ds)) + "\n")
    back = Dataset.from_csv(str(tmp_path / "head.csv"), "Q")
    assert len(back) == 0
    assert_same_bits(back, reference_from_csv(str(tmp_path / "head.csv")))
    (tmp_path / "empty.jsonl").write_text("")
    back = Dataset.from_jsonl(str(tmp_path / "empty.jsonl"), "Q")
    assert len(back) == 0
    assert_same_bits(back, reference_from_jsonl(str(tmp_path / "empty.jsonl")))
    # '#' starts no comment in CSV: the line is a bad record; and every row
    # needs one number per header column, even when all rows agree
    for name, body in (("hash.csv", "#1.0,0,0.5,1.0\n"), ("narrow.csv", "1.0,0,0.5\n" * 2)):
        (tmp_path / name).write_text("lambda_1,xi_1,2:0,weight\n" + body)
        with pytest.raises(ValueError):
            reference_from_csv(str(tmp_path / name))
        with pytest.raises(EquidistError):
            Dataset.from_csv(str(tmp_path / name), "Q")


def test_jsonl_load_names_the_bad_line(tmp_path):
    good = '{"lambda_inf":[1.0],"lambda_p":{"2:0":0.5},"weight":1.0,"xi":[0]}'
    for i, (bad, reason) in enumerate([
        ("[1,2]", "JSON object"),
        ("3", "JSON object"),
        ('{"lambda_inf":[1.0],"weight":1.0,"xi":[0]}', "missing key 'lambda_p'"),
        ('{"lambda_inf":[1.0],"lambda_p":{"2:0":0.5},"weight":1.0,,"xi":[0]}', "column 57"),
        ('{"lambda_inf":[1.0,2.0],"lambda_p":{"2:0":0.5},"weight":1.0,"xi":[0,0]}',
         "first record (dimension 1, labels ['2:0'])"),
        ('{"lambda_inf":[1.0],"lambda_p":{"2:0":0.5},"weight":1.0,"xi":[]}',
         "first record (dimension 1"),
        ('{"lambda_inf":"1","lambda_p":{"2:0":0.5},"weight":1.0,"xi":[0]}', "must be arrays"),
        ('{"lambda_inf":[1.0],"lambda_p":[0.5],"weight":1.0,"xi":[0]}',
         "lambda_p an object"),
        ('{"lambda_inf":[1.0],"lambda_p":{"3:0":0.5},"weight":1.0,"xi":[0]}', "labels differ"),
        ('{"lambda_inf":[1.0],"lambda_p":{"2:0":0.5},"src":7,"weight":1.0,"xi":[0]}',
         "src a string"),
    ]):
        # the blank line counts: the bad record is line 3 of the file
        path = write_jsonl(tmp_path / ("bad%d.jsonl" % i), [good, "", bad])
        with pytest.raises(EquidistError, match="^line 3: ") as info:
            Dataset.from_jsonl(path, "Q")
        assert reason in str(info.value)


GOOD = '{"lambda_inf":[1.0],"lambda_p":{"2:0":0.5},"src":"s","weight":1.0,"xi":[0]}'


def test_jsonl_load_allows_json_whitespace_around_a_record(tmp_path):
    clean = tmp_path / "clean.jsonl"
    clean.write_text((GOOD + "\n") * 3)
    padded = tmp_path / "padded.jsonl"
    padded.write_bytes((" \t" + GOOD + " \t\r\n" + "\t\t" + GOOD + "\r\n" + "  " + GOOD
                        + "\t").encode())
    back = Dataset.from_jsonl(str(padded), "Q")
    assert_same_bits(back, Dataset.from_jsonl(str(clean), "Q"))
    assert_same_bits(back, reference_from_jsonl(str(padded)))


def test_jsonl_load_reports_what_json_loads_reports(tmp_path):
    half = '{"lambda_inf":[1,2],"xi":[0,0],"lambda_p":{"2:0":1},"pad":[0'
    for i, (lines, bad) in enumerate([
        (["\ufeff" + GOOD], 1),  # a UTF-8 BOM
        ([GOOD, "\ufeff" + GOOD], 2),
        ([GOOD, GOOD + GOOD], 2),  # two objects on one line: "Extra data"
        ([GOOD, GOOD + " " + GOOD], 2),
        ([GOOD[:30], GOOD[30:]], 1),  # one record split over two lines
        ([GOOD + "," + half, "1]}"], 1),  # two records only if the lines are joined
        (["\f" + GOOD], 1),  # \f is not JSON whitespace, before or after a value
        ([GOOD + "\f"], 1),
        ([GOOD + " x"], 1),
    ]):
        path = write_jsonl(tmp_path / ("bad%d.jsonl" % i), lines)
        with pytest.raises(json.JSONDecodeError) as loads_error:
            json.loads(lines[bad - 1] + "\n")
        with pytest.raises(EquidistError) as info:
            Dataset.from_jsonl(path, "Q")
        assert str(info.value) == "line %d: %s at column %d" % (
            bad, loads_error.value.msg, loads_error.value.colno)


def test_tau_small():
    # first dozen values of the eta^24 expansion
    tau = tau_table(12)
    assert tau[1:] == [1, -24, 252, -1472, 4830, -6048, -16744,
                       84480, -113643, -115920, 534612, -370944]
    verify_tau_identities(tau)


def test_tau_identities_catch_corruption():
    edge = math.isqrt(4 * 47 ** 11)  # 47, the largest prime below 50, is in no identity
    for n, value, match in ((6, -6047, "multiplicativity fails at n=6"),  # tau(2)tau(3)
                            (47, -edge - 1, "Deligne's bound .* fails at p=47")):
        tau = tau_table(50)
        tau[n] = value
        with pytest.raises(EquidistError, match=match):
            verify_tau_identities(tau)
    tau[47] = edge
    assert verify_tau_identities(tau)[-1] == 47


def test_tau_identities_settle_deligne_edges_on_python_ints():
    # 2 p^5.5 - isqrt(4 p^11) is 2^-32 of the bound at 47, outside the float
    # filter's 2^-40 margin, and under 2^-41 at 149, 907 and 997; past p = 790
    # the bound is past 2^53, where floats no longer tell consecutive integers
    # apart, and at 907 the float of isqrt(4 p^11) + 1 is below the float of
    # 2 p^5.5, so without the margin that violation would pass the filter
    tau = tau_table(2000)
    for p in (47, 149, 907, 997):
        edge = math.isqrt(4 * p ** 11)
        assert (edge + 1) ** 2 > 4 * p ** 11
        for sign in (1, -1):
            table = tau[:2 * p]  # p is in no identity below 2p
            table[p] = sign * edge
            assert p in verify_tau_identities(table)
            table[p] = sign * (edge + 1)
            with pytest.raises(EquidistError, match="Deligne's bound .* fails at p=%d" % p):
                verify_tau_identities(table)


def reference_tau_identities(tau):
    """The identity check as whole-array comparisons of Python ints: multiplicativity
    tau(n) = tau(p^v) tau(m) at n = p^v m (p = spf(n), m > 1 prime to p), the
    prime-power recursion at every p^k, k >= 2, and tau(p)^2 <= 4 p^11; raises
    the first failure, the least n or p over the three."""
    n_max = len(tau) - 1
    if n_max < 4 or tau[1] != 1:
        raise EquidistError("table too short or tau(1) != 1")
    spf = np.arange(n_max + 1)
    for i in range(2, math.isqrt(n_max) + 1):
        if spf[i] == i:
            np.minimum(spf[i * i::i], i, out=spf[i * i::i])
    t = np.array(tau, dtype=object)
    n = np.arange(2, n_max + 1)
    p = spf[2:]
    pk, m = p.copy(), n // p
    rows = np.flatnonzero(m % p == 0)
    while rows.size:
        pk[rows] *= p[rows]
        m[rows] //= p[rows]
        rows = rows[m[rows] % p[rows] == 0]
    coprime, power = m > 1, (m == 1) & (pk != p)
    nc, nr, pr = n[coprime], n[power], p[power]
    primes = n[p == n]
    checks = (
        ("multiplicativity fails at n=%d", nc, t[nc] == t[pk[coprime]] * t[m[coprime]]),
        ("prime-power recursion fails at n=%d", nr,
         t[nr] == t[pr] * t[nr // pr] - pr.astype(object) ** 11 * t[nr // pr ** 2]),
        ("Deligne's bound tau(p)^2 <= 4 p^11 fails at p=%d", primes,
         t[primes] ** 2 <= 4 * primes.astype(object) ** 11))
    fails = [(int(at[~ok][0]), msg) for msg, at, ok in checks if not ok.all()]
    if fails:
        first, msg = min(fails)
        raise EquidistError(msg % first)
    return primes.tolist()


def first_identity_failure(check, tau):
    try:
        return check(tau)
    except EquidistError as exc:
        return str(exc)


P_CRT = 2 ** 26 - 5  # the check's second modulus
TAU_DELTAS = (1, -1, 2 ** 64, -2 ** 64, P_CRT, -P_CRT, 2 ** 64 * P_CRT, -2 ** 64 * P_CRT, None)


@pytest.fixture(scope="module")
def tau_3000():
    return tau_table(3000)


@given(n_max=st.integers(4, 3000),
       edits=st.lists(st.tuples(st.floats(0, 1, exclude_max=True), st.sampled_from(TAU_DELTAS)),
                      min_size=1, max_size=3))
@settings(max_examples=150, deadline=None)
def test_tau_identities_match_the_python_int_reference(tau_3000, n_max, edits):
    # 1-3 entries moved by +-1, +-2^64, +-P, +-2^64 P or a sign flip (None):
    # 2^64 P is 0 modulo both of the check's moduli, so only its magnitude
    # bound sees it; both checks name the same first failure
    tau = tau_3000[:n_max + 1]
    for where, delta in edits:
        n = 1 + int(where * n_max)
        tau[n] = -tau[n] if delta is None else tau[n] + delta
    want = first_identity_failure(reference_tau_identities, tau)
    assert first_identity_failure(verify_tau_identities, tau) == want


def test_tau_identities_see_a_difference_of_2_64_p_by_its_size():
    tau = tau_table(10 ** 4)
    assert verify_tau_identities(tau) == reference_tau_identities(tau)
    delta = 2 ** 64 * P_CRT
    assert delta % 2 ** 64 == delta % P_CRT == 0
    # 9999 = 3^2 11 101 is past 2^64, 2809 = 53^2 and 6 small; the prime 9973 is
    # in no identity of this table, and 2^90 is past Deligne's 2 9973^5.5 < 2^75
    for n, match in ((6, "multiplicativity fails at n=6"),
                     (2809, "prime-power recursion fails at n=2809"),
                     (9999, "multiplicativity fails at n=9999"),
                     (9973, "Deligne's bound .* fails at p=9973")):
        for sign in (1, -1):
            bad = list(tau)
            bad[n] += sign * delta
            with pytest.raises(EquidistError, match=match):
                verify_tau_identities(bad)


def test_tau_identities_reject_entries_past_2_127():
    tau = tau_table(50)
    for value in (2 ** 127, -2 ** 127, 2 ** 200, -2 ** 128):
        bad = list(tau)
        bad[12] = value
        with pytest.raises(EquidistError, match=r"\|tau\(12\)\| >= 2\^127"):
            verify_tau_identities(bad)
    for value in (2 ** 127 - 1, -2 ** 127 + 1):  # in range: the identity at 12 fails
        bad = list(tau)
        bad[12] = value
        with pytest.raises(EquidistError, match="multiplicativity fails at n=12"):
            verify_tau_identities(bad)
    bad = list(tau)
    bad[0] = 2 ** 200  # tau(0) is read by no identity
    assert verify_tau_identities(bad) == verify_tau_identities(tau)


def naive_tau(n_max):
    """tau(0..n_max) from q prod (1 - q^k)^24, one factor (1 - q^k) at a time."""
    co = [1] + [0] * (n_max - 1)  # coefficients of q^0 .. q^{n_max - 1}
    for k in range(1, n_max):
        for _ in range(24):
            for i in range(n_max - 1, k - 1, -1):
                co[i] -= co[i - k]
    return [0] + co


def test_tau_table_matches_naive_product():
    ref = naive_tau(400)
    tau = tau_table(400)
    assert tau == ref
    assert all(type(v) is int for v in tau)
    # one to three terms of Jacobi's series
    for n_max in range(1, 6):
        assert tau_table(n_max) == ref[:n_max + 1]


def modular_tau_table(n_max):
    """tau(0..n_max) by the modular route tau_table used before its FFT
    squarings: J^2 by one bincount, six sparse shifted-add products modulo
    2^64 (uint64 wraparound) and modulo 0-2 primes below 2^31, lifted by
    symmetric Garner digits."""
    primes = (2147483647, 2147483629)
    n = n_max - 1
    k = np.arange((math.isqrt(8 * n + 1) + 1) // 2)
    e, c = k * (k + 1) // 2, (1 - 2 * (k % 2)) * (2 * k + 1)
    # Deligne: |tau(m)| <= 2 m^6, so the modulus must exceed 4 n_max^6
    count = next(r for r in range(3) if 4 * n_max ** 6 < 2 ** 64 * math.prod(primes[:r]))
    primes = primes[:count]
    mods = np.array(primes, dtype=np.int64)
    i, j = np.nonzero(e[:, None] + e[None, :] <= n)
    square = np.bincount(e[i] + e[j], (c[i] * c[j]).astype(np.float64), n + 1)
    res = np.empty((n + 1, 1 + count), dtype=np.int64)
    res[:] = square[:, None]
    shifts = list(zip(e.tolist(), c.astype(np.uint64)))
    for _ in range(6):
        res[:, 1:] %= mods
        a, acc = res.view(np.uint64), np.zeros((n + 1, 1 + count), dtype=np.uint64)
        for s, cs in shifts:
            acc[s:] += cs * a[:n + 1 - s]
        res = acc.view(np.int64)
    res[:, 1:] %= mods
    moduli = (2 ** 64,) + primes
    digits = [res[:, 0]]
    for k, p in enumerate(primes, start=1):
        v = np.zeros(len(res), dtype=np.int64)  # the digits so far, mod p (Horner)
        for q, d in zip(moduli[k - 1::-1], digits[::-1]):
            v = (v * (q % p) + d % p) % p
        t = (res[:, k] - v) * pow(math.prod(moduli[:k]), -1, p) % p
        digits.append(np.where(t > p // 2, t - p, t))
    x, scale = digits[0].astype(object), 1  # mixed radix: sum_k digit_k prod(moduli[:k])
    for d, q in zip(digits[1:], moduli):
        scale *= q
        x = x + d.astype(object) * scale
    return [0] + x.tolist()


def test_tau_table_prime_count_boundaries():
    # sizes on either side of each step of the FFT route, equal to the modular
    # reference: the transform length doubles past n_max = 1024 and 2048, J^4
    # takes a second limb at 87 and a third at 1920, J^2 a second at 5258; the
    # modular route takes a prime past n_max = 1290 and a second past 46340
    ref = modular_tau_table(46341)
    for n_max in (86, 87, 1024, 1025, 1290, 1291, 1919, 1920, 2048, 2049, 5257, 5258,
                  46340, 46341):
        assert tau_table(n_max) == ref[:n_max + 1], n_max
    assert modular_tau_table(400) == naive_tau(400)


def test_tau_table_lifts_entries_past_int64():
    # 2563 = 11 * 233 is the first |tau(n)| >= 2^63 (negative), 2696 = 8 * 337
    # a positive one: for both the high word floor(tau / 2^64) of the second
    # squaring disagrees with the sign of the low word, so the row is lifted
    tau = tau_table(3000)
    assert all(abs(v) < 2 ** 63 for v in tau[:2563])
    assert tau[2563] == tau[11] * tau[233] < -2 ** 63
    assert tau[2696] == tau[8] * tau[337] >= 2 ** 63
    assert all(type(v) is int for v in tau)


def test_tau_table_guard_rejects_a_perturbed_convolution(monkeypatch):
    # every squaring output is rounded to an integer: moved by less than 1/4 it
    # still rounds right, moved by more it raises before a table is returned
    irfft, ref = np.fft.irfft, tau_table(700)
    for shift, ok in ((0.24, True), (-0.26, False)):
        def perturbed(w, n, out, shift=shift):
            irfft(w, n, out=out)
            out[122] += shift
            return out

        monkeypatch.setattr(np.fft, "irfft", perturbed)
        if ok:
            assert tau_table(700) == ref
        else:
            with pytest.raises(EquidistError, match="rounded off by more than 1/4"):
                tau_table(700)


def test_fft_square_words_past_int64():
    # entries up to 2^62 of either sign: many limbs, groups shifted past bit 64
    # into the high word and carries out of the low word, against Python ints
    import heckedist.equidist as equidist_module
    rng = random.Random(7)
    for size in (1, 2, 3, 50):
        a = [-2 ** 62] + [rng.randrange(-2 ** 60, 2 ** 60) for _ in range(size - 1)]
        lo, hi = equidist_module._fft_square(np.array(a, dtype=np.int64))
        want = [sum(a[i] * a[m - i] for i in range(m + 1)) for m in range(size)]
        assert [int(h) * 2 ** 64 + int(v) for v, h in zip(lo, hi)] == want


def test_fft_square_limb_counts_step_where_the_bound_crosses(monkeypatch):
    # each squaring takes the fewest limbs whose a-priori bound is below 1/8,
    # so these steps move if the bound's constant does; _limbs runs once per
    # limb count tried and last with the count taken
    import heckedist.equidist as equidist_module
    taken, limbs, square = [], equidist_module._limbs, equidist_module._fft_square

    def counting(a, m, width):
        taken[-1] = m
        return limbs(a, m, width)

    def squaring(a):
        taken.append(None)
        return square(a)

    monkeypatch.setattr(equidist_module, "_limbs", counting)
    monkeypatch.setattr(equidist_module, "_fft_square", squaring)
    for n_max, want in ((86, [1, 1]), (87, [1, 2]), (1919, [1, 2]), (1920, [1, 3]),
                        (5257, [1, 3]), (5258, [2, 3])):
        taken.clear()
        tau_table(n_max)
        assert taken == want, n_max


def test_import_leaves_numpy_fft_unloaded():
    script = ("import json, sys, heckedist\n"
              "before = 'numpy.fft' in sys.modules\n"
              "heckedist.tau_table(10)\n"
              "print(json.dumps([before, 'numpy.fft' in sys.modules]))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(heckedist.__file__)))
    out = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                         check=True, capture_output=True, text=True).stdout
    assert json.loads(out) == [False, True]


def test_tau_identities_at_3000_use_python_ints():
    # the recursion at 2809 = 53^2 multiplies by 53^11 > 2^63
    tau = tau_table(3000)
    assert verify_tau_identities(tau)[-1] == 2999
    tau[2809] += 1
    with pytest.raises(EquidistError, match="prime-power recursion fails at n=2809"):
        verify_tau_identities(tau)


def test_tau_source_rejects_short_tables(monkeypatch):
    import heckedist.equidist as equidist_module
    monkeypatch.setattr(equidist_module, "tau_table", None)  # never reached
    for upto in (-1, 0, 3):
        with pytest.raises(EquidistError, match="needs upto >= 4"):
            tau_source(upto)


def test_tau_table_pinned_digest():
    # sha256 of the 10^4 table as the earlier packed-bigint squaring route gave it
    text = json.dumps([str(v) for v in tau_table(10 ** 4)], separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "6f5b17ccff96c28daf3775c3ae07b36e6159dde0d6539c4add9c8fa116a02dc3"


def test_tau_source():
    td = tau_source(2000)
    assert td.tau[2] == -24 and td.tau[3] == 252 and td.tau[4] == -1472
    ds = td.dataset
    assert len(ds) == 1
    assert ds.eigenvalues("2:0")[0] == 0.75
    assert ds.lambda_inf.tolist() == [[-30.0]]  # weight-12 discrete-series point
    assert ds.xi.tolist() == [[0]]
    assert list(ds.src) == ["tau"]
    assert td.tp2_eigenvalues["2:0"] == Fraction(-1472, 1024) == Fraction(-23, 16)
    assert td.tp2_eigenvalues["3:0"] == Fraction(-113643, 3 ** 10)
    td.dataset.validate(Q)


def test_tau_source_sieves_once(monkeypatch):
    import heckedist.equidist as equidist_module
    sieve, calls = equidist_module._smallest_prime_factors, []

    def counting(n):
        calls.append(n)
        return sieve(n)

    monkeypatch.setattr(equidist_module, "_smallest_prime_factors", counting)
    td = tau_source(1600)
    assert calls == [1600]
    # every field as the two-sieve route built it, primes by trial division here
    primes = [p for p in range(2, 1601) if all(p % q for q in range(2, math.isqrt(p) + 1))]
    assert verify_tau_identities(list(td.tau)) == primes
    assert td.tau == tuple(tau_table(1600))
    assert td.tp2_eigenvalues == {"%d:0" % p: Fraction(td.tau[p * p], p ** 10)
                                  for p in primes if p * p <= 1600}
    lam = {"%d:0" % p: abs(td.tau[p]) / p ** 5 for p in primes}
    want = Dataset(Q, [[-30.0]], [[0]], tuple(lam), [list(lam.values())], [1.0], ["tau"])
    for f in dataclass_fields(Dataset):
        got, ref = getattr(td.dataset, f.name), getattr(want, f.name)
        assert (got.tolist() == ref.tolist()) if isinstance(ref, np.ndarray) else got == ref


def test_run_report(tmp_path):
    box = Box(2, (1,), ((2, (0.3, 1.2)),), (0, 0), 4.0)
    ds = synthesize(F73, ["2:0", "3:0"], box, 4000, seed=5)
    jw = {"2:0": (0.0, 2 * math.sqrt(2)), "3:0": (0.0, 2 * math.sqrt(3))}
    rep = run_report(ds, box, [2.0, 3.0, 4.0], jw, covolume=1.0)
    assert len(rep.rows) == 3
    counts = [row.count for row in rep.rows]
    assert counts == sorted(counts)  # monotone in t
    assert rep.rows[-1].t == 4.0
    out = tmp_path / "report.csv"
    rep.to_csv(str(out))
    header = out.read_text().split("\n")[0]
    assert header == "t,count,prediction,ratio,v1,error"
    # ratio = count / prediction row by row; the prediction and its error bound
    # are over the dataset's own field, which the report takes no second copy of
    for row in rep.rows:
        if row.prediction > 0:
            assert row.ratio == pytest.approx(row.count / row.prediction)
        want = predict(F73, 1.0, box, row.t, jw)
        assert (row.prediction, row.error) == (want.product, want.error) and row.error > 0
        assert row.prediction != predict(make_field(5), 1.0, box, row.t, jw).product
    assert rep.summary()["max_error"] == max(row.error for row in rep.rows)
    with pytest.raises(TypeError):
        run_report(ds, box, [4.0], jw, 1.0, field=make_field(5))


def test_run_report_zero_prediction_gives_nan():
    ds = small_ds()
    rep = run_report(ds, BOX1, [3.0], {"2:0": (2.9, 3.0), "3:0": (0.0, 4.0)}, covolume=1.0)
    assert math.isnan(rep.rows[0].ratio)
