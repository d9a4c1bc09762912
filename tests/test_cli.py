"""Command-line surface: pinned outputs, exit codes, file round-trips."""

import json
import math
import os
import subprocess
import sys
import time
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

import heckedist
from heckedist import (
    DirichletCharacter,
    Ideal,
    KloostermanQuery,
    evaluate,
    inverse_different,
    make_field,
    symmetry_check,
    weil_scan,
)
from heckedist.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_unknown_group_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "hecke", "frobnicate")
    assert code == 2


def test_domain_error_is_exit_one(capsys):
    code, out, err = run_cli(capsys, "measure", "eval", "--kind", "pl0",
                             "--interval", "2:1")
    assert code == 1
    payload = json.loads(err.strip())
    assert "error" in payload and "message" in payload
    assert "\n" not in err.strip()


def test_negative_interval_needs_no_equals_sign(capsys):
    # argparse alone reads -3:2 as an option and exits 2
    code, out, _ = run_cli(capsys, "measure", "eval", "--kind", "pl0", "--interval", "-3:2")
    assert code == 0
    assert json.loads(out) == json.loads(run_cli(capsys, "measure", "eval", "--kind", "pl0",
                                                 "--interval=-3:2")[1])
    data = json.loads(out)
    assert data["interval"] == [-3.0, 2.0]
    # the atoms b = 2, 4 at 0 and -2 (masses 1 and 3) plus the continuous mass on [1/4, 2]
    cont = heckedist.pl_measure(0).continuous_mass(-3.0, 2.0).value
    assert data["value"] == pytest.approx(4.0 + cont, rel=1e-13)
    code, out, _ = run_cli(capsys, "measure", "phi", "--p", "2:0", "--interval", "-5:100")
    assert code == 0
    data = json.loads(out)
    assert data["interval"] == [-5.0, 100.0] and data["value"] == pytest.approx(1.0)


def assert_one_line_error(code, out, err):
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.endswith("\n")
    assert set(json.loads(err)) == {"error", "message"}


def test_npl_interval_at_infinity_is_a_domain_error():
    # nu = 1e400 parses as inf; the atom loop used to run forever on it
    src = os.path.dirname(os.path.dirname(os.path.abspath(heckedist.__file__)))
    run = subprocess.run([sys.executable, "-m", "heckedist.cli", "measure", "eval",
                          "--kind", "npl0", "--interval", "0:1e400"],
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                         text=True, timeout=60)
    assert_one_line_error(run.returncode, run.stdout, run.stderr)
    assert json.loads(run.stderr)["error"] == "MeasureError"


def test_npl_interval_reads_a_trailing_i_only(capsys):
    code, out, _ = run_cli(capsys, "measure", "eval", "--kind", "npl1", "--interval", "0.1i:2i")
    assert code == 0
    data = json.loads(out)
    assert data["interval"] == ["0.1j", "2j"]
    assert data["value"] == heckedist.NuMeasure(1).interval(0.1j, 2j).value
    # "inf" keeps its own i, so the window reaches the measure's own finiteness check
    for interval in ("0:inf", "0:infi", "1e400:0.5"):
        code, out, err = run_cli(capsys, "measure", "eval", "--kind", "npl0",
                                 "--interval", interval)
        assert_one_line_error(code, out, err)
        assert json.loads(err)["error"] == "MeasureError", interval


def test_sato_tate_nan_window_is_a_domain_error(capsys):
    for interval in ("nan:1", "0:nan"):
        code, out, err = run_cli(capsys, "measure", "phi", "--p", "2:0", "--interval", interval)
        assert_one_line_error(code, out, err)
        assert json.loads(err)["error"] == "MeasureError", interval


@pytest.mark.parametrize("content", [
    "5", "[[1, 0, 1]]", "[[1, 2]]", "[1]",
    # a JSON boolean is no int: true used to read as order 1
    '[["1", true, false], ["2", 4, 1], ["3", 4, 3], ["4", 2, 1]]'])
def test_bad_character_file_is_a_domain_error(capsys, tmp_path, content):
    chi_file = tmp_path / "chi.json"
    chi_file.write_text(content)
    assert_one_line_error(*run_cli(capsys, "--level", "5", "kloosterman", "delta",
                                   "--r", "1", "--rp", "1", "--xi", "0",
                                   "--chi", str(chi_file)))


@pytest.mark.parametrize("box", ["[1,2]", '{"dim": 1, "xi": [0], "e": [1]}',
                                 '{"dim": 1, "xi": [0], "e": {"1": [0, "x"]}}',
                                 '{"dim": 1, "xi": 0}', '{"dim": [1], "xi": [0]}',
                                 '{"dim": 1, "q": [1], "xi": [0.9], "t": 2.0}',
                                 '{"dim": 1.7, "q": [1], "xi": [0]}',
                                 '{"dim": 1, "q": [true], "xi": [0]}',
                                 '{"dim": 1, "q": [1], "xi": [false]}',
                                 '{"dim": true, "q": [1], "xi": [0]}',
                                 '{"dim": 1, "q": [1], "xi": [0], "t": true}',
                                 '{"dim": 1, "q": [1], "xi": [0], "t": "2"}',
                                 '{"dim": 1, "xi": [0], "e": {"1": [false, true]}}',
                                 pytest.param('{"dim": 1, "q": [1], "xi": [0], "t": 1%s}'
                                              % ("0" * 400), id="t-past-float")])
def test_bad_box_is_a_domain_error(capsys, box):
    assert_one_line_error(*run_cli(capsys, "measure", "box", "--spec", box))
    assert_one_line_error(*run_cli(capsys, "equidist", "predict", "--box", box,
                                   "--intervals", "{}", "--t", "2"))


@pytest.mark.parametrize("intervals", ["[1]", '{"2:0": 1}', '{"2:0": [0, 1, 2]}',
                                       '{"2:0": [null, 1]}', '{"2:0": [false, true]}',
                                       '{"2:0": [0, true]}',
                                       pytest.param('{"2:0": [0, 1%s]}' % ("0" * 400),
                                                    id="end-past-float")])
def test_bad_intervals_are_a_domain_error(capsys, tmp_path, intervals):
    box_spec = json.dumps({"dim": 1, "q": [1], "xi": [0], "t": 3.0})
    assert_one_line_error(*run_cli(capsys, "equidist", "predict", "--box", box_spec,
                                   "--intervals", intervals, "--t", "2"))
    data_file = tmp_path / "ds.jsonl"
    data_file.write_text('{"lambda_inf":[1.0],"lambda_p":{"2:0":0.5},"weight":1.0,"xi":[0]}\n')
    assert_one_line_error(*run_cli(capsys, "equidist", "run", "--data", str(data_file),
                                   "--box", box_spec, "--intervals", intervals,
                                   "--t-grid", "1,3"))


@pytest.mark.parametrize("argv, message", [
    (("kloosterman", "eval", "--c", "5,1", "--r", "1", "--rp", "1"),
     "bad element '5,1' for degree-1 field"),
    (("--field", "5", "kloosterman", "eval", "--c", "5,1,2", "--r", "1", "--rp", "1"),
     "bad element '5,1,2' for degree-2 field"),
    (("measure", "eval", "--kind", "pl0", "--interval", "1:2:3"),
     "interval must look like a:b, got '1:2:3'"),
    (("--format", "csv", "field", "info"), "this subcommand has no CSV form; use --format json"),
    (("measure", "phi", "--p", "2:0"), "need --interval or --spoly"),
], ids=["element-w-part-over-Q", "element-three-parts", "interval-three-parts",
        "csv-without-rows", "phi-without-query"])
def test_bad_arguments_are_a_domain_error(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert_one_line_error(code, out, err)
    assert json.loads(err) == {"error": "ValueError", "message": message}


@pytest.mark.parametrize("argv", [
    ("measure", "phi", "--p", "2:-1", "--spoly", "1"),
    ("--field", "5", "measure", "phi", "--p", "11:-2", "--spoly", "1"),
], ids=["over-Q", "over-Q(sqrt 5)"])
def test_negative_prime_label_index_is_a_domain_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert_one_line_error(code, out, err)
    assert json.loads(err)["error"] == "FieldError"
    assert "no prime '%s'" % argv[argv.index("--p") + 1] in json.loads(err)["message"]


def test_eigenvalue_needs_exactly_one_of_nu_and_lam(capsys):
    assert run_cli(capsys, "hecke", "eigenvalue", "--p", "2")[0] == 2
    assert run_cli(capsys, "hecke", "eigenvalue", "--p", "2", "--nu", "0.5i",
                   "--lam", "2.5")[0] == 2
    code, out, _ = run_cli(capsys, "hecke", "eigenvalue", "--p", "2", "--nu", "0.5i")
    assert code == 0 and json.loads(out)["nu"]["im"] == 0.5


def test_eigenvalue_rejects_non_finite(capsys):
    for flag, value in (("--lam", "nan"), ("--lam", "inf"), ("--nu", "nan"), ("--nu", "inf"),
                        ("--nu", "infi"), ("--nu", "0.1+nani")):
        code, out, err = run_cli(capsys, "hecke", "eigenvalue", "--p", "2", flag, value)
        assert code == 1 and out == "", (flag, value)
        assert err.count("\n") == 1 and json.loads(err)["error"] == "HeckeError"


def test_field_info(capsys):
    code, out, _ = run_cli(capsys, "--field", "Q(sqrt 5)", "field", "info")
    assert code == 0
    data = json.loads(out)
    assert data["degree"] == 2
    assert data["disc"] == 5
    assert data["fundamental_unit"] == ["0", "1"]
    assert data["fundamental_unit_norm"] == -1


def test_field_factor(capsys):
    code, out, _ = run_cli(capsys, "--field", "Q(sqrt 5)", "field",
                           "factor", "--p", "11")
    assert code == 0
    data = json.loads(out)
    assert len(data["primes"]) == 2
    assert all(pr["norm"] == 11 for pr in data["primes"])


def test_field_factor_past_the_trial_division_limit_fails_fast(capsys):
    # 100000000000031 is prime; dividing up to its square root took about 2 s
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "field", "factor", "--p", "100000000000031")
    assert time.perf_counter() - t0 < 0.5
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err) == {"error": "FieldError", "message":
                               "100000000000031 is past the trial-division limit 10^12"}


def test_field_unit(capsys):
    code, out, _ = run_cli(capsys, "field", "unit")
    assert code == 0 and json.loads(out) == {"fundamental_unit": None, "regulator": 0.0}
    code, out, _ = run_cli(capsys, "--field", "Q(sqrt 5)", "field", "unit")
    assert code == 0
    data = json.loads(out)
    golden = (1 + math.sqrt(5)) / 2
    assert data["fundamental_unit"] == ["0", "1"] and data["norm"] == -1
    assert data["regulator"] == pytest.approx(math.log(golden), rel=1e-15)
    assert data["embeddings"] == pytest.approx([golden, 1 - golden], rel=1e-15)


def test_field_info_and_unit_over_q_sqrt_271(capsys):
    # the first of 129 fields m < 3000 where the float normalization of the unit
    # raised "math domain error"
    code, out, _ = run_cli(capsys, "--field", "Q(sqrt 271)", "field", "info")
    assert code == 0
    info = json.loads(out)
    code, out, _ = run_cli(capsys, "--field", "Q(sqrt 271)", "field", "unit")
    assert code == 0
    unit = json.loads(out)
    a, b = (int(v) for v in unit["fundamental_unit"])
    assert info["fundamental_unit"] == unit["fundamental_unit"] and a > 0 and b > 0
    assert a * a - 271 * b * b == unit["norm"] == info["fundamental_unit_norm"] == 1
    with localcontext() as ctx:
        ctx.prec = 60
        log_eps = float((a + b * Decimal(271).sqrt()).ln())
    assert info["regulator"] == unit["regulator"] == pytest.approx(log_eps, rel=1e-15)
    assert unit["embeddings"][0] * unit["embeddings"][1] == pytest.approx(1, rel=1e-15)


def test_hecke_verify_relation_pinned(capsys):
    code, out, _ = run_cli(capsys, "hecke", "verify-relation",
                           "--p", "2", "--k", "1", "--m", "1")
    assert code == 0
    data = json.loads(out)
    assert data == {"T16": 1, "T4": 2, "T1": 4}


@pytest.mark.parametrize("field, p, k, m, want", [
    ("Q", "3", "1", "2", [("T729", 1), ("T81", 3), ("T9", 9)]),
    ("Q", "2", "2", "3", [("T1024", 1), ("T256", 2), ("T64", 4), ("T16", 8), ("T4", 16)]),
    ("Q(sqrt 5)", "2", "1", "3", [("T65536", 1), ("T4096", 4), ("T256", 16)]),
    ("Q(sqrt 5)", "11:1", "2", "1", [("T1771561", 1), ("T14641", 11), ("T121", 121)]),
], ids=["Q-3", "Q-2", "Q(sqrt 5)-inert-2", "Q(sqrt 5)-11:1"])
def test_hecke_verify_relation_pinned_for_unequal_exponents(capsys, field, p, k, m, want):
    # the text itself, key order included: the highest T(N(P)^{2n}) first
    code, out, _ = run_cli(capsys, "--field", field, "hecke", "verify-relation",
                           "--p", p, "--k", k, "--m", m)
    assert code == 0
    assert json.loads(out, object_pairs_hook=list) == want
    assert out == json.dumps(dict(want), indent=2) + "\n"


def test_hecke_verify_relation_at_a_zero_exponent(capsys):
    # over Q the coset route runs too, and T(p^0) is the identity there
    for k, m, want in (("0", "1", {"T4": 1}), ("2", "0", {"T16": 1}), ("0", "0", {"T1": 1})):
        code, out, _ = run_cli(capsys, "hecke", "verify-relation", "--p", "2", "--k", k, "--m", m)
        assert code == 0
        assert json.loads(out) == want


def test_hecke_verify_relation_rejects_composite(capsys):
    code, out, err = run_cli(capsys, "hecke", "verify-relation",
                             "--p", "6", "--k", "1", "--m", "1")
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "FieldError"


def test_hecke_spoly(capsys):
    code, out, _ = run_cli(capsys, "hecke", "spoly", "--p", "3", "--k", "2")
    assert code == 0
    data = json.loads(out)
    assert data["coeffs"] == [9, -9, 1]


def test_hecke_eigenvalue_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "hecke", "eigenvalue", "--p", "2",
                           "--lam", "2.5")
    assert code == 0
    data = json.loads(out)
    nu = complex(data["nu"]["re"], data["nu"]["im"])
    assert nu.real == 0.0 and nu.imag > 0
    assert abs(data["lam"] - 2.5) < 1e-12


def test_measure_phi_spoly_pinned(capsys):
    code, out, _ = run_cli(capsys, "measure", "phi", "--p", "2:0",
                           "--spoly", "1")
    assert code == 0
    data = json.loads(out)
    assert abs(float(data["value"])) < 1e-8
    assert data["exact"] == 0


def test_measure_eval(capsys):
    code, out, _ = run_cli(capsys, "measure", "eval", "--kind", "pl0",
                           "--interval", "0.25:25.25")
    assert code == 0
    data = json.loads(out)
    assert abs(data["value"] - (25 - 1 / 12)) < 1e-8


def test_measure_box(capsys):
    spec = json.dumps({"dim": 2, "q": [1], "e": {"2": [0.3, 1.2]},
                       "xi": [0, 0], "t": 4.0})
    code, out, _ = run_cli(capsys, "measure", "box", "--spec", spec,
                           "--family", "pl")
    assert code == 0
    data = json.loads(out)
    assert data["value"] > 0


def test_measure_box_reads_a_spec_file(capsys, tmp_path):
    spec = json.dumps({"dim": 2, "q": [1], "e": {"2": [0.3, 1.2]}, "xi": [0, 0], "t": 4.0})
    spec_file = tmp_path / "box.json"
    spec_file.write_text(spec)
    inline = run_cli(capsys, "measure", "box", "--spec", spec)
    assert inline[0] == 0
    assert run_cli(capsys, "measure", "box", "--spec", "@" + str(spec_file)) == inline


@pytest.mark.parametrize("flag, value, argv", [
    ("--c", "-2,0", ["kloosterman", "eval", "--r", "1,0", "--rp", "1,0"]),
    ("--r", "-1,1", ["kloosterman", "delta", "--rp", "1,0", "--xi", "0,0"]),
    ("--rp", "-1,1", ["kloosterman", "eval", "--c", "2,0", "--r", "1,0"]),
    ("--level", "-2,1", ["kloosterman", "delta", "--r", "1,0", "--rp", "1,0", "--xi", "0,0"]),
], ids=["c", "r", "rp", "level"])
def test_dash_led_element_needs_no_equals_sign(capsys, flag, value, argv):
    # argparse alone reads -2,0 as an option and exits 2
    code, out, _ = run_cli(capsys, "--field", "Q(sqrt 5)", *argv, flag, value)
    assert code == 0
    glued = run_cli(capsys, "--field", "Q(sqrt 5)", *argv, flag + "=" + value)
    assert json.loads(out) == json.loads(glued[1])


def test_kloosterman_eval_pinned(capsys):
    code, out, _ = run_cli(capsys, "kloosterman", "eval", "--c", "5",
                           "--r", "1", "--rp", "1")
    assert code == 0
    data = json.loads(out)
    golden = (3 - math.sqrt(5)) / 2
    assert abs(data["value"]["re"] - golden) < 1e-9
    assert abs(data["value"]["im"]) < 1e-12


def test_kloosterman_eval_quadratic(capsys):
    # equals form for a value with a leading dash (sqrt5 = -1 + 2 omega)
    code, out, _ = run_cli(capsys, "--field", "Q(sqrt 5)", "kloosterman",
                           "eval", "--c=-1,2", "--r", "1,0", "--rp", "1,0")
    assert code == 0
    data = json.loads(out)
    assert "re" in data["value"]


@pytest.mark.parametrize("field, c, r", [("Q", "9973", "1"), ("Q", "-12", "3"),
                                         ("Q(sqrt 5)", "12,7", "1,0"), ("Q(sqrt 5)", "2,0", "1,0")])
def test_kloosterman_eval_default_character_is_trivial_mod_c(capsys, field, c, r):
    # without --chi the trivial character is taken mod O; mod (c) it gives the same sum
    code, out, _ = run_cli(capsys, "--field", field, "kloosterman", "eval",
                           "--c", c, "--r", r, "--rp", r)
    assert code == 0
    F = make_field(field)
    cc, rr = (F.element(*map(Fraction, s.split(","))) for s in (c, r))
    q = KloostermanQuery(cc, rr, rr, DirichletCharacter.trivial(F, Ideal.principal(cc)))
    value = evaluate(q)
    assert json.loads(out)["value"] == {"re": value.real, "im": value.imag, "abs": abs(value)}
    assert json.loads(out)["symmetry_deviation"] == symmetry_check(q)


@pytest.mark.parametrize("c", ["0", "1/2"])
def test_kloosterman_eval_rejects_bad_c(capsys, c):
    code, out, err = run_cli(capsys, "kloosterman", "eval", "--c", c, "--r", "1", "--rp", "1")
    assert_one_line_error(code, out, err)
    assert json.loads(err)["error"] == "KloostermanError"


# chi mod 5 of order 4 with chi(2) = i, given as [rep, order, exponent]
ORDER_4_MOD_5 = '[["1", 4, 0], ["2", 4, 1], ["3", 4, 3], ["4", 2, 1]]'


def test_kloosterman_eval_reads_a_character_file(capsys, tmp_path):
    chi_file = tmp_path / "chi.json"
    chi_file.write_text(ORDER_4_MOD_5)
    code, out, _ = run_cli(capsys, "kloosterman", "eval", "--c", "5", "--r", "1",
                           "--rp", "1", "--chi", str(chi_file))
    assert code == 0
    value = json.loads(out)["value"]
    # the twisted sum S_chi(1,1;5) = 2 i sin(pi/5) of test_twisted_sum_pinned
    assert value["re"] == pytest.approx(0.0, abs=1e-12)
    assert value["im"] == pytest.approx(2 * math.sin(math.pi / 5), abs=1e-12)


def test_character_file_rejects_a_repeated_residue(capsys, tmp_path):
    # the order-10006 character mod the prime 10007 (5 generates its units) with
    # the residue 5 given again as 10012 with a wrong phase: the later entry used
    # to win, and the 500-pair sampled check did not catch it
    entries = [[str(pow(5, j, 10007)), 10006, j] for j in range(10006)]
    entries.append(["10012", 10006, 2])
    chi_file = tmp_path / "chi.json"
    chi_file.write_text(json.dumps(entries))
    code, out, err = run_cli(capsys, "--level", "10007", "kloosterman", "eval", "--c", "10007",
                             "--r", "1", "--rp", "1", "--chi", str(chi_file))
    assert_one_line_error(code, out, err)
    assert json.loads(err)["error"] == "ValueError"
    chi_file.write_text(json.dumps(entries[:-1]))
    code, _, _ = run_cli(capsys, "--level", "10007", "kloosterman", "eval", "--c", "10007",
                         "--r", "1", "--rp", "1", "--chi", str(chi_file))
    assert code == 0


def test_kloosterman_delta(capsys, tmp_path):
    def delta(*argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        data = json.loads(out)
        return complex(data["value"]["re"], data["value"]["im"])

    assert delta("kloosterman", "delta", "--r", "1", "--rp", "1", "--xi", "0") == 1
    assert delta("kloosterman", "delta", "--r", "2", "--rp", "1", "--xi", "0") == 0
    assert delta("--field", "Q(sqrt 5)", "kloosterman", "delta", "--r", "1,0",
                 "--rp", "1,0", "--xi", "0,0") == 1
    # chi(-1) = -1: the units 1 and -1 cancel at parity 0 and agree at parity 1
    chi_file = tmp_path / "chi.json"
    chi_file.write_text(ORDER_4_MOD_5)
    for xi, want in (("0", 0.0), ("1", 1.0)):
        got = delta("--level", "5", "kloosterman", "delta", "--r", "1", "--rp", "1",
                    "--xi", xi, "--chi", str(chi_file))
        assert got == pytest.approx(want, abs=1e-12), xi


def test_kloosterman_scan_reports_skipped(capsys):
    code, out, _ = run_cli(capsys, "--field", "Q(sqrt 94)", "kloosterman", "scan",
                           "--max-norm", "20")
    assert code == 0
    data = json.loads(out)
    field = make_field(94)
    r = inverse_different(field).basis_elements()[-1]
    res = weil_scan(field, r, r, max_norm=20)
    assert data["skipped"] == res.skipped
    assert len(data["rows"]) == len(res.rows)


def test_kloosterman_scan_rejects_non_finite_eps(capsys):
    # eps = nan used to print null ratios and a running maximum of 1.0
    for eps in ("nan", "inf"):
        code, out, err = run_cli(capsys, "kloosterman", "scan", "--max-norm", "10",
                                 "--eps", eps)
        assert_one_line_error(code, out, err)
        assert json.loads(err)["error"] == "KloostermanError", eps


def test_kloosterman_scan_rejects_a_negative_max_norm(capsys):
    # it exited 0 with no rows over Q, and 1 with an isqrt ValueError over Q(sqrt 5)
    for field in ("Q", "Q(sqrt 5)"):
        code, out, err = run_cli(capsys, "--field", field, "kloosterman", "scan",
                                 "--max-norm", "-5")
        assert_one_line_error(code, out, err)
        assert json.loads(err)["error"] == "KloostermanError", field


def test_kloosterman_scan_rejects_an_over_budget_range(capsys):
    # this range passed the old a-priori bound and was enumerated for seconds
    # before the sum over its moduli rejected it
    code, out, err = run_cli(capsys, "--field", "Q(sqrt 5)", "kloosterman", "scan",
                             "--max-norm", "12000")
    assert_one_line_error(code, out, err)
    assert json.loads(err) == {"error": "KloostermanError",
                               "message": "scan range exceeds the work budget; lower max_norm"}


def test_kloosterman_scan_checks_r_with_no_modulus_in_range(capsys):
    # N(50) > max_norm leaves no modulus; r = 1/2 is still outside O' = Z
    code, out, err = run_cli(capsys, "--level", "50", "kloosterman", "scan",
                             "--max-norm", "10", "--r", "1/2")
    assert_one_line_error(code, out, err)
    assert json.loads(err)["error"] == "KloostermanError"


def test_trivial_character_builds_no_unit_table(capsys, monkeypatch):
    # the trivial character mod (1000003) used to list its 1000002 units, though
    # no modulus of the scan is in range; delta's trivial character mod O neither
    calls, made = [0], []
    unit_table, make_field_ = Ideal._unit_table, heckedist.fields.make_field

    def counting(self):
        calls[0] += 1
        return unit_table(self)

    def recording(spec):
        made.append(make_field_(spec))
        return made[-1]

    monkeypatch.setattr(Ideal, "_unit_table", counting)
    monkeypatch.setattr(heckedist.fields, "make_field", recording)
    code, out, _ = run_cli(capsys, "--level", "1000003", "kloosterman", "scan",
                           "--max-norm", "10")
    assert code == 0 and json.loads(out)["rows"] == []
    code, out, _ = run_cli(capsys, "kloosterman", "delta", "--r", "1", "--rp", "1",
                           "--xi", "0")
    assert code == 0 and json.loads(out)["value"]["re"] == 1.0
    assert calls[0] == 0
    assert len(made) == 2 and all(not field._unit_tables for field in made)


def test_kloosterman_scan_csv(capsys, tmp_path):
    out_file = tmp_path / "scan.csv"
    code, _, _ = run_cli(capsys, "--out", str(out_file), "--format", "csv",
                         "kloosterman", "scan", "--max-norm", "20")
    assert code == 0
    lines = out_file.read_text().strip().split("\n")
    assert lines[0].startswith("c,")
    assert len(lines) == 21


def test_equidist_pipeline(capsys, tmp_path):
    box_spec = json.dumps({"dim": 2, "q": [1], "e": {"2": [0.3, 1.2]},
                           "xi": [0, 0], "t": 4.0})
    data_file = tmp_path / "ds.jsonl"
    code, _, _ = run_cli(capsys, "--field", "Q(sqrt 73)", "--seed", "11",
                         "--out", str(data_file),
                         "equidist", "synth", "--box", box_spec,
                         "--primes", "2:0,3:0", "--count", "2000")
    assert code == 0
    assert data_file.exists()

    intervals = json.dumps({"2:0": [0.0, 2 * math.sqrt(2)],
                            "3:0": [0.0, 2 * math.sqrt(3)]})
    report_file = tmp_path / "report.csv"
    code, out, _ = run_cli(capsys, "--field", "Q(sqrt 73)",
                           "--out", str(report_file),
                           "equidist", "run", "--data", str(data_file),
                           "--box", box_spec, "--intervals", intervals,
                           "--covolume", "1.0", "--t-grid", "2,3,4",
                           "--calibrate")
    assert code == 0
    lines = report_file.read_text().strip().split("\n")
    assert lines[0] == "t,count,prediction,ratio,v1,error"
    assert len(lines) == 4
    final_ratio = float(lines[-1].split(",")[3])
    assert final_ratio == pytest.approx(1.0, abs=0.1)


def test_equidist_synth_csv_runs_like_jsonl(capsys, tmp_path):
    box_spec = json.dumps({"dim": 1, "q": [1], "xi": [0], "t": 3.0})
    summaries = []
    for fmt, name in (("csv", "ds.csv"), ("json", "ds.jsonl")):
        data_file = tmp_path / name
        code, out, _ = run_cli(capsys, "--seed", "5", "--format", fmt, "--out", str(data_file),
                               "equidist", "synth", "--box", box_spec, "--primes", "2:0",
                               "--count", "300")
        assert code == 0 and json.loads(out)["records"] == 300
        code, out, _ = run_cli(capsys, "equidist", "run", "--data", str(data_file),
                               "--box", box_spec, "--intervals", '{"2:0": [0, 1.5]}',
                               "--t-grid", "1,3")
        assert code == 0
        summaries.append(json.loads(out))
    lines = (tmp_path / "ds.csv").read_text().split("\n")
    assert lines[0] == "lambda_1,xi_1,2:0,weight" and len(lines) == 302
    assert summaries[0] == summaries[1]
    assert summaries[0]["rows"] == 2
    assert summaries[0]["final_ratio"] == pytest.approx(143.11158994096314, rel=1e-12)


def test_equidist_synth_without_out_synthesizes_nothing(capsys, monkeypatch):
    def no_synthesis(*args, **kwargs):
        raise AssertionError("synthesize ran before --out was checked")

    monkeypatch.setattr(heckedist.equidist, "synthesize", no_synthesis)
    box_spec = json.dumps({"dim": 1, "q": [1], "xi": [0], "t": 3.0})
    code, out, err = run_cli(capsys, "equidist", "synth", "--box", box_spec,
                             "--primes", "2:0", "--count", "10")
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "ValueError",
                               "message": "synth requires --out for the dataset file"}


def _reject_constant(name):
    raise ValueError("non-standard JSON constant %s" % name)


def test_equidist_run_is_strict_json(capsys, tmp_path):
    # a window with zero Sato-Tate mass has zero prediction: the ratio is
    # undefined and must come out as null, not as the bare token NaN
    box_spec = json.dumps({"dim": 1, "q": [1], "xi": [0], "t": 3.0})
    data_file = tmp_path / "ds.jsonl"
    code, _, _ = run_cli(capsys, "--seed", "3", "--out", str(data_file),
                         "equidist", "synth", "--box", box_spec,
                         "--primes", "2:0", "--count", "50")
    assert code == 0
    code, out, _ = run_cli(capsys, "equidist", "run", "--data", str(data_file),
                           "--box", box_spec, "--intervals", '{"2:0":[2.9,3.0]}',
                           "--t-grid", "1,3")
    assert code == 0
    data = json.loads(out, parse_constant=_reject_constant)
    assert data["final_ratio"] is None
    assert data["rows"] == 2
    code, out, _ = run_cli(capsys, "measure", "phi", "--p", "2:0", "--interval", "0:1")
    assert code == 0
    json.loads(out, parse_constant=_reject_constant)


def test_equidist_run_reports_bad_record_line(capsys, tmp_path):
    box_spec = json.dumps({"dim": 1, "q": [1], "xi": [0], "t": 3.0})
    good = '{"lambda_inf":[1.0],"lambda_p":{"2:0":0.5},"weight":1.0,"xi":[0]}'
    for i, bad in enumerate(["[1,2]", "3", '{"lambda_inf":[1.0],"xi":[0]}', '{"xi":']):
        data_file = tmp_path / ("bad%d.jsonl" % i)
        data_file.write_text(good + "\n" + bad + "\n")
        code, _, err = run_cli(capsys, "equidist", "run", "--data", str(data_file),
                               "--box", box_spec, "--intervals", '{"2:0":[0,1]}',
                               "--t-grid", "1,3")
        assert code == 1
        assert json.loads(err)["message"].startswith("line 2: ")
    # parsed records holding a string, a boolean or an int past float: one JSON
    # line, no traceback
    for i, value in enumerate(['"1.5"', "true", "1" + "0" * 400]):
        data_file = tmp_path / ("nonnumber%d.jsonl" % i)
        bad = good.replace('"weight":1.0', '"weight":' + value)
        data_file.write_text(good + "\n" + bad + "\n")
        code, _, err = run_cli(capsys, "equidist", "run", "--data", str(data_file),
                               "--box", box_spec, "--intervals", '{"2:0":[0,1]}',
                               "--t-grid", "1,3")
        assert code == 1
        assert json.loads(err)["message"].endswith("entries must be numbers")


def test_equidist_predict_rejects_bad_queries(capsys):
    box_spec = json.dumps({"dim": 2, "q": [1], "e": {"2": [0.3, 1.2]}, "xi": [0, 0]})
    good = {"2:0": [0.0, 1.0], "3:0": [1.0, 2.0]}

    def predict_cli(t, windows, *flags):
        return run_cli(capsys, "--field", "Q(sqrt 73)", "equidist", "predict", "--box",
                       box_spec, "--intervals", json.dumps(windows), "--t", repr(t), *flags)

    code, out, _ = predict_cli(2.0, good)
    assert code == 0
    data = json.loads(out, parse_constant=_reject_constant)
    assert 0 <= data["error"] < 1e-9 * data["product"]
    for t, windows in ((2.0, dict(good, **{"2:0": [2.0, 1.0]})),
                       (2.0, dict(good, **{"3:0": [math.nan, 1.0]})),
                       (math.nan, good), (math.inf, good)):
        code, out, err = predict_cli(t, windows)
        assert code == 1 and out == ""
        assert json.loads(err, parse_constant=_reject_constant)["error"] == "EquidistError"
    # a NaN covolume used to pass the positivity test and print null factors
    for covolume in ("nan", "inf", "0"):
        code, out, err = predict_cli(2.0, good, "--covolume", covolume)
        assert_one_line_error(code, out, err)
        assert json.loads(err)["error"] == "EquidistError", covolume


def test_equidist_run_rejects_non_finite_covolume(capsys, tmp_path):
    box_spec = json.dumps({"dim": 1, "q": [1], "xi": [0], "t": 3.0})
    data_file = tmp_path / "ds.jsonl"
    data_file.write_text('{"lambda_inf":[1.0],"lambda_p":{"2:0":0.5},"weight":1.0,"xi":[0]}\n')
    for covolume in ("nan", "inf"):
        code, out, err = run_cli(capsys, "equidist", "run", "--data", str(data_file),
                                 "--box", box_spec, "--intervals", '{"2:0": [0, 1]}',
                                 "--t-grid", "1,3", "--covolume", covolume)
        assert_one_line_error(code, out, err)
        assert json.loads(err)["error"] == "EquidistError", covolume


def test_equidist_run_range_checks_its_data(capsys, tmp_path):
    # the loaded dataset is validated: lambda_{2:0} = 100 is past 1 + N(2) = 3,
    # and no prime of Q is labelled 4:0; with no windows both gave a report
    box_spec = json.dumps({"dim": 1, "q": [1], "xi": [0], "t": 3.0})
    data_file = tmp_path / "ds.jsonl"
    for lambda_p, error in (('{"2:0":100.0}', "EquidistError"), ('{"4:0":0.5}', "FieldError")):
        data_file.write_text('{"lambda_inf":[1.0],"lambda_p":%s,"weight":1.0,"xi":[0]}\n'
                             % lambda_p)
        code, out, err = run_cli(capsys, "equidist", "run", "--data", str(data_file),
                                 "--box", box_spec, "--intervals", "{}", "--t-grid", "1,3")
        assert_one_line_error(code, out, err)
        assert json.loads(err)["error"] == error, lambda_p


def test_equidist_index(capsys):
    code, out, _ = run_cli(capsys, "--level", "6", "equidist", "index")
    assert code == 0
    data = json.loads(out)
    assert data["index"] == 12


def test_equidist_tau(capsys, tmp_path):
    tau_file = tmp_path / "tau.csv"
    code, out, _ = run_cli(capsys, "equidist", "tau", "--upto", "1000",
                           "--tau-out", str(tau_file))
    assert code == 0
    data = json.loads(out)
    assert data["lambda_2"] == 0.75
    assert data["tau2"] == -24
    assert data["tp2_2"] == "-23/16"
    lines = tau_file.read_text().strip().split("\n")
    assert lines[0] == "n,tau"
    assert lines[1] == "1,1" and lines[2] == "2,-24"


def test_equidist_tau_out_writes_the_dataset(capsys, tmp_path):
    data_file = tmp_path / "tau.jsonl"
    code, out, _ = run_cli(capsys, "equidist", "tau", "--upto", "200", "--out", str(data_file))
    assert code == 0
    data = json.loads(out)
    assert data["out"] == str(data_file) and data["tau_out"] is None
    assert data["primes"] == 46  # the primes up to 200
    ds = heckedist.Dataset.from_jsonl(str(data_file), "Q")
    assert len(ds) == 1 and len(ds.prime_labels) == 46
    assert float(ds.eigenvalues("2:0")[0]) == data["lambda_2"] == 0.75


def test_equidist_tau_rejects_upto_below_4(capsys):
    code, out, err = run_cli(capsys, "equidist", "tau", "--upto", "3")
    assert code == 1 and out == ""
    data = json.loads(err)
    assert data["error"] == "EquidistError"
    assert "needs upto >= 4" in data["message"] and "got 3" in data["message"]


def test_out_flag_after_subcommand(capsys, tmp_path):
    # global flags are accepted both before the group and after the leaf
    out_file = tmp_path / "s.json"
    code, _, _ = run_cli(capsys, "hecke", "spoly", "--p", "2", "--k", "1",
                         "--out", str(out_file))
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["coeffs"] == [-2, 1]
