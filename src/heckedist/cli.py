"""Command-line entry point.

One executable with five subcommand groups (field, hecke, measure,
kloosterman, equidist), machine-readable output (JSON by default, CSV
for tabular results), and fixed exit codes: 0 success, 1 domain error
with a single-line JSON object on stderr, 2 usage error.

Global flags come before the group name:

    heckedist --field "Q(sqrt 5)" kloosterman eval --c 2,0 --r 1,0 --rp 1,0
    heckedist hecke verify-relation --p 2 --k 1 --m 1
    heckedist measure phi --p 2:0 --spoly 1
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import fields
from . import hecke
from . import measures
from . import kloosterman as kl
from . import equidist  # lazy: its code and numpy load in the first equidist handler

# the package's error classes all subclass ValueError
DOMAIN_ERRORS = (ValueError, OverflowError, OSError, KeyError)


# -- parsing helpers ---------------------------------------------------------------


def _parse_rat(s: str) -> Fraction:
    return Fraction(s.strip())


def parse_element(field: fields.NumberField, s: str) -> fields.FieldElement:
    """Element syntax: 'a' or 'a,b' with rational coordinates in the 1, w basis."""
    parts = [p for p in s.split(",") if p.strip() != ""]
    if len(parts) == 1:
        return field.element(_parse_rat(parts[0]))
    if len(parts) == 2 and field.degree == 2:
        return field.element(_parse_rat(parts[0]), _parse_rat(parts[1]))
    raise ValueError("bad element %r for degree-%d field" % (s, field.degree))


def split_interval(s: str) -> Tuple[str, str]:
    """The endpoint strings of 'a:b' (or 'a,b'); each caller converts them."""
    parts = s.split(":" if ":" in s else ",")
    if len(parts) != 2:
        raise ValueError("interval must look like a:b, got %r" % s)
    return parts[0], parts[1]


def parse_interval(s: str) -> Tuple[float, float]:
    a, b = split_interval(s)
    return (float(a), float(b))


def parse_nu(s: str) -> complex:
    """Spectral parameter: only a trailing 'i' marks the imaginary unit, so 'inf' keeps its i."""
    s = s.strip()
    return complex(s[:-1] + "j" if s.endswith("i") else s)


def parse_windows(raw) -> Dict[str, Tuple[float, float]]:
    """Parsed JSON object of [lo, hi] pairs, {"2:0": [0, 1], ...}, as float windows."""
    if not (isinstance(raw, dict) and all(
            isinstance(w, list) and len(w) == 2 and all(
                isinstance(x, (int, float)) and not isinstance(x, bool) for x in w)
            for w in raw.values())):
        raise ValueError("windows must be a JSON object of [lo, hi] number pairs, got %r"
                         % (raw,))
    return {k: (float(w[0]), float(w[1])) for k, w in raw.items()}


def parse_box(spec: str) -> measures.Box:
    """JSON box spec: {"dim":2,"q":[1],"e":{"2":[0.3,1.2]},"xi":[0,0],"t":4.0}."""
    if spec.startswith("@"):
        with open(spec[1:]) as fh:
            spec = fh.read()
    raw = json.loads(spec)
    if not isinstance(raw, dict):
        raise ValueError("box spec must be a JSON object, got %r" % (raw,))
    e_windows = tuple(sorted((int(j), w) for j, w in parse_windows(raw.get("e", {})).items()))
    dim, q, xi, t = raw.get("dim"), raw.get("q", []), raw.get("xi"), raw.get("t", 0.0)
    if not (isinstance(q, list) and isinstance(xi, list)
            and all(type(v) is int for v in [dim, *q, *xi])
            and isinstance(t, (int, float)) and not isinstance(t, bool)):
        raise ValueError("box spec needs int dim, int lists q and xi and a number t, got %r"
                         % (raw,))
    return measures.Box(dim, tuple(q), e_windows, tuple(xi), float(t))


def _level_ideal(field: fields.NumberField, level: Optional[str]) -> fields.Ideal:
    if level is None or level.strip() in ("1", ""):
        return fields.Ideal.unit_ideal(field)
    return fields.Ideal.principal(parse_element(field, level))


def load_character(modulus: fields.Ideal, path: Optional[str]) -> kl.DirichletCharacter:
    """Character file: JSON list of [unit representative, order, exponent]."""
    field = modulus.field
    if path is None:
        return kl.DirichletCharacter.trivial(field, modulus)
    with open(path) as fh:
        entries = json.load(fh)
    if not (isinstance(entries, list) and all(
            isinstance(e, list) and len(e) == 3 and all(type(v) is int for v in e[1:])
            for e in entries)):
        raise ValueError("character file must be a JSON list of [rep, order, exponent] "
                         "triples with int order and exponent")
    phases = {}
    for rep, order, exponent in entries:
        if order <= 0:
            raise ValueError("character order must be positive, got %d" % order)
        x = modulus.reduce(parse_element(field, str(rep)))
        if x.coords() in phases:
            raise ValueError("two character entries for the residue %s" % _elt_str(x))
        phases[x.coords()] = Fraction(exponent, order)
    return kl.DirichletCharacter(field, modulus, phases)


def _frac_repr(q: Fraction):
    return int(q) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)


def _elt_str(e: fields.FieldElement) -> str:
    """Comma-coordinate form accepted back by parse_element."""
    return ",".join(str(x) for x in e.coords())


def _complex_repr(z: complex) -> Dict:
    return {"re": z.real, "im": z.imag, "abs": abs(z)}


def _strict(obj):
    """Non-finite floats become None, so the dumped text is strict JSON."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    return obj


def _dumps(obj, **kwargs) -> str:
    return json.dumps(_strict(obj), allow_nan=False, **kwargs)


def _emit(args, payload: Dict, rows: Optional[Tuple[List[str], List[list]]] = None) -> None:
    """JSON payload to stdout/--out; CSV rows instead when --format csv."""
    if args.format == "csv":
        if rows is None:
            raise ValueError("this subcommand has no CSV form; use --format json")
        header, data = rows
        out = sys.stdout if args.out is None else open(args.out, "w", newline="")
        try:
            w = csv.writer(out)
            w.writerow(header)
            w.writerows(data)
        finally:
            if args.out is not None:
                out.close()
        return
    text = _dumps(payload, indent=2)
    if args.out is None:
        print(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")


# -- field group -------------------------------------------------------------------


def cmd_field_info(args) -> None:
    field = fields.make_field(args.field)
    payload = {"spec": args.field, "degree": field.degree, "disc": field.disc}
    if field.degree == 2:
        payload.update({"m": field.m, "t": field.t, "c": field.c,
                        "omega_embeddings": list(field.omega().embed())})
        ug = field.unit_group()
        payload["fundamental_unit"] = [str(x) for x in ug.fundamental.coords()]
        payload["fundamental_unit_norm"] = ug.fundamental_norm
        payload["regulator"] = ug.regulator
    _emit(args, payload)


def cmd_field_factor(args) -> None:
    field = fields.make_field(args.field)
    primes = fields.factor_rational_prime(field, args.p)
    data = [{"label": pr.label, "p": pr.p, "e": pr.e, "f": pr.f,
             "norm": pr.absolute_norm(),
             "generator": None if pr.generator is None else str(pr.generator)}
            for pr in primes]
    _emit(args, {"p": args.p, "primes": data},
          rows=(["label", "p", "e", "f", "norm"],
                [[d["label"], d["p"], d["e"], d["f"], d["norm"]] for d in data]))


def cmd_field_unit(args) -> None:
    field = fields.make_field(args.field)
    if field.degree == 1:
        _emit(args, {"fundamental_unit": None, "regulator": 0.0})
        return
    ug = field.unit_group()
    _emit(args, {"fundamental_unit": [str(x) for x in ug.fundamental.coords()],
                 "norm": ug.fundamental_norm, "regulator": ug.regulator,
                 "embeddings": list(ug.fundamental.embed())})


# -- hecke group -------------------------------------------------------------------


def _prime_norm(field: fields.NumberField, label: str) -> int:
    return fields.prime_by_label(field, label).absolute_norm()


def cmd_hecke_verify(args) -> None:
    field = fields.make_field(args.field)
    prime = fields.prime_by_label(field, args.p)
    coeffs = hecke.verify_relation(prime.label, prime.absolute_norm(), args.k, args.m,
                                   brute=field.degree == 1 and not args.no_brute)
    _emit(args, dict(reversed(coeffs.items())))  # its keys rise with n: highest first


def cmd_hecke_spoly(args) -> None:
    field = fields.make_field(args.field)
    norm = _prime_norm(field, args.p)
    coeffs = hecke.s_poly(norm, 2 * args.k)
    _emit(args, {"p": args.p, "norm": norm, "two_k": 2 * args.k,
                 "coeffs": [_frac_repr(c) for c in coeffs],
                 "basis": "lambda^{2m}, m = 0..k"})


def cmd_hecke_eigenvalue(args) -> None:
    field = fields.make_field(args.field)
    norm = _prime_norm(field, args.p)
    if args.nu is not None:
        nu = parse_nu(args.nu)
        lam = hecke.lambda_from_nu(norm, nu)
        payload = {"norm": norm, "nu": _complex_repr(nu), "lam": lam}
    else:
        lam = float(args.lam)
        nu = hecke.nu_from_lambda(norm, lam)
        payload = {"norm": norm, "lam": lam, "nu": _complex_repr(complex(nu))}
    _emit(args, payload)


# -- measure group -----------------------------------------------------------------


def cmd_measure_eval(args) -> None:
    if args.kind in ("npl0", "npl1"):
        lo, hi = (parse_nu(x) for x in split_interval(args.interval))
        mv = measures.nu_measure(int(args.kind[-1])).interval(lo, hi)
        interval = [str(lo), str(hi)]
    else:  # spectral_measure rejects every other kind, npl2 too
        mu = measures.spectral_measure(args.kind)
        interval = list(parse_interval(args.interval))
        mv = measures.measure_interval(mu, interval)
    _emit(args, {"kind": args.kind, "interval": interval, "value": mv.value, "error": mv.error})


def cmd_measure_phi(args) -> None:
    field = fields.make_field(args.field)
    norm = _prime_norm(field, args.p)
    mu = measures.SatoTateMeasure(norm)
    if args.spoly is not None:
        val = mu.polynomial(hecke.s_poly(norm, 2 * args.spoly))
        payload = {"p": args.p, "norm": norm, "spoly_k": args.spoly,
                   "value": float(val), "exact": _frac_repr(val)}
    elif args.interval is not None:
        a, b = parse_interval(args.interval)
        mv = mu.mass(a, b)
        payload = {"p": args.p, "norm": norm, "interval": [a, b],
                   "value": mv.value, "error": mv.error}
    else:
        raise ValueError("need --interval or --spoly")
    _emit(args, payload)


def cmd_measure_box(args) -> None:
    box = parse_box(args.spec)
    mv = measures.box_measure(box, args.family)
    per = [measures.measure_interval(measures.SpectralMeasure(args.family, xi),
                                     box.interval(j)).value
           for j, xi in enumerate(box.xi, 1)]
    _emit(args, {"family": args.family, "t": box.t, "value": mv.value,
                 "error": mv.error, "per_coordinate": per})


# -- kloosterman group ---------------------------------------------------------------


def cmd_kl_eval(args) -> None:
    field = fields.make_field(args.field)
    c = parse_element(field, args.c)
    r = parse_element(field, args.r)
    rp = parse_element(field, args.rp)
    # a character file is read mod (c) unless a level is given; the trivial
    # character is the same on every d of the sum whichever modulus it has
    modulus = fields.Ideal.principal(c) if args.level is None and args.chi is not None \
        else _level_ideal(field, args.level)
    chi = load_character(modulus, args.chi)
    q = kl.KloostermanQuery(c, r, rp, chi)
    value = kl.evaluate(q)
    _emit(args, {"c": _elt_str(c), "r": _elt_str(r), "rp": _elt_str(rp),
                 "norm_c": int(abs(c.norm())), "value": _complex_repr(value),
                 "symmetry_deviation": kl.symmetry_check(q)})


def cmd_kl_scan(args) -> None:
    field = fields.make_field(args.field)
    level = _level_ideal(field, args.level)
    chi = load_character(level, args.chi)
    r = parse_element(field, args.r) if args.r else \
        fields.inverse_different(field).basis_elements()[-1]
    rp = parse_element(field, args.rp) if args.rp else r
    res = kl.weil_scan(field, r, rp, chi=chi, max_norm=args.max_norm, eps=args.eps)
    rows = [[_elt_str(row.c), row.norm, row.abs_k, row.ratio] for row in res.rows]
    _emit(args, {"r": _elt_str(r), "rp": _elt_str(rp), "eps": res.eps,
                 "s_primes": list(res.s_labels), "running_max": res.running_max,
                 "skipped": res.skipped,
                 "rows": [{"c": a, "norm": b, "abs_k": x, "ratio": y}
                          for a, b, x, y in rows]},
          rows=(["c", "norm", "abs_k", "ratio"], rows))


def cmd_kl_delta(args) -> None:
    field = fields.make_field(args.field)
    r = parse_element(field, args.r)
    rp = parse_element(field, args.rp)
    xi = tuple(int(x) for x in args.xi.split(","))
    modulus = _level_ideal(field, args.level)
    chi = load_character(modulus, args.chi)
    val = kl.delta_term(r, rp, xi, chi)
    _emit(args, {"r": _elt_str(r), "rp": _elt_str(rp), "xi": list(xi),
                 "value": _complex_repr(val)})


# -- equidist group -------------------------------------------------------------------


def cmd_eq_synth(args) -> None:
    if args.out is None:
        raise ValueError("synth requires --out for the dataset file")
    field = fields.make_field(args.field)
    box = parse_box(args.box)
    labels = [s.strip() for s in args.primes.split(",") if s.strip()]
    seed = args.seed if args.seed is not None else 0
    ds = equidist.synthesize(field, labels, box, args.count, seed)
    if args.format == "csv":
        ds.to_csv(args.out)
    else:
        ds.to_jsonl(args.out)
    print(_dumps({"records": len(ds), "out": args.out,
                  "seed": seed, "labels": labels}))


def cmd_eq_tau(args) -> None:
    td = equidist.tau_source(args.upto)
    if args.out is not None:
        td.dataset.to_jsonl(args.out)
    if args.tau_out is not None:
        with open(args.tau_out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["n", "tau"])
            w.writerows(enumerate(td.tau[1:], 1))
    print(_dumps({
        "upto": args.upto,
        "primes": len(td.dataset.prime_labels),
        "tau2": td.tau[2], "tau3": td.tau[3], "tau4": td.tau[4],
        "lambda_2": float(td.dataset.lambda_p[0, td.dataset.prime_labels.index("2:0")]),
        "tp2_2": _frac_repr(td.tp2_eigenvalues["2:0"]),
        "out": args.out, "tau_out": args.tau_out,
    }))


def cmd_eq_run(args) -> None:
    box = parse_box(args.box)
    load = equidist.Dataset.from_csv if args.data.endswith(".csv") else equidist.Dataset.from_jsonl
    ds = load(args.data, args.field)
    ds.validate()
    j_windows = parse_windows(json.loads(args.intervals))
    t_grid = [float(x) for x in args.t_grid.split(",")]
    if args.calibrate:
        full_j = {label: measures.SatoTateMeasure(_prime_norm(ds.field, label)).support()
                  for label in j_windows}
        pred = equidist.predict(ds.field, args.covolume, box, max(t_grid), full_j)
        total = ds.total_weight()
        if total > 0:
            ds = ds.scaled(pred.product / total)
    rep = equidist.run_report(ds, box, t_grid, j_windows, args.covolume)
    if args.out is not None:
        rep.to_csv(args.out)
    print(_dumps(rep.summary()))


def cmd_eq_index(args) -> None:
    field = fields.make_field(args.field)
    level = _level_ideal(field, args.level)
    idx = equidist.level_index(level)
    _emit(args, {"level_norm": int(level.norm()), "index": _frac_repr(idx),
                 "index_float": float(idx)})


def cmd_eq_predict(args) -> None:
    field = fields.make_field(args.field)
    box = parse_box(args.box)
    j_windows = parse_windows(json.loads(args.intervals))
    pred = equidist.predict(field, args.covolume, box, args.t, j_windows)
    _emit(args, {"constant": pred.constant, "pl_factor": pred.pl_factor,
                 "phi_factor": pred.phi_factor, "product": pred.product,
                 "v1": pred.v1, "error": pred.error})


# -- parser ----------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="heckedist",
        description="Hecke eigenvalue distribution toolkit: exact local Hecke "
                    "algebra, spectral and Sato-Tate measures, Kloosterman sums, "
                    "and equidistribution reports.")
    # the global flags are accepted after the subcommand too; SUPPRESS keeps
    # the subparser from clobbering values parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    for flag, default, kwargs in (
            ("--field", "Q", {"help": 'field spec: "Q" or "Q(sqrt m)"'}),
            ("--level", None, {"help": "level element (principal ideal)"}),
            ("--out", None, {"help": "write output to this path"}),
            ("--format", "json", {"choices": ("json", "csv")}),
            ("--seed", None, {"type": int})):
        ap.add_argument(flag, default=default, **kwargs)
        common.add_argument(flag, default=argparse.SUPPRESS, **kwargs)
    groups = ap.add_subparsers(dest="group", required=True)

    g = groups.add_parser("field", help="number field data").add_subparsers(
        dest="cmd", required=True)
    sp = g.add_parser("info", parents=[common]); sp.set_defaults(func=cmd_field_info)
    sp = g.add_parser("factor", parents=[common])
    sp.add_argument("--p", type=int, required=True)
    sp.set_defaults(func=cmd_field_factor)
    sp = g.add_parser("unit", parents=[common]); sp.set_defaults(func=cmd_field_unit)

    g = groups.add_parser("hecke", help="local Hecke algebra").add_subparsers(
        dest="cmd", required=True)
    sp = g.add_parser("verify-relation", parents=[common])
    sp.add_argument("--p", required=True, help="prime label p or p:i")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--no-brute", action="store_true",
                    help="skip the coset brute-force cross-check")
    sp.set_defaults(func=cmd_hecke_verify)
    sp = g.add_parser("spoly", parents=[common])
    sp.add_argument("--p", required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.set_defaults(func=cmd_hecke_spoly)
    sp = g.add_parser("eigenvalue", parents=[common])
    sp.add_argument("--p", required=True)
    nu_or_lam = sp.add_mutually_exclusive_group(required=True)
    nu_or_lam.add_argument("--nu", default=None)
    nu_or_lam.add_argument("--lam", default=None)
    sp.set_defaults(func=cmd_hecke_eigenvalue)

    g = groups.add_parser("measure", help="spectral and Sato-Tate measures") \
        .add_subparsers(dest="cmd", required=True)
    sp = g.add_parser("eval", parents=[common])
    sp.add_argument("--kind", required=True,
                    help="pl0 | pl1 | v10 | v11 | npl0 | npl1")
    sp.add_argument("--interval", required=True,
                    help="a:b; for npl kinds nu values such as 0.5 or 2i (trailing i)")
    sp.set_defaults(func=cmd_measure_eval)
    sp = g.add_parser("phi", parents=[common])
    sp.add_argument("--p", required=True)
    sp.add_argument("--interval", default=None, help="a:b")
    sp.add_argument("--spoly", type=int, default=None, help="index k of S_{p,2k}")
    sp.set_defaults(func=cmd_measure_phi)
    sp = g.add_parser("box", parents=[common])
    sp.add_argument("--spec", required=True, help="JSON box spec or @file")
    sp.add_argument("--family", choices=("pl", "v1"), default="pl")
    sp.set_defaults(func=cmd_measure_box)

    g = groups.add_parser("kloosterman", help="twisted Kloosterman sums") \
        .add_subparsers(dest="cmd", required=True)
    sp = g.add_parser("eval", parents=[common])
    sp.add_argument("--c", required=True)
    sp.add_argument("--r", required=True)
    sp.add_argument("--rp", required=True)
    sp.add_argument("--chi", default=None, help="character file (JSON)")
    sp.set_defaults(func=cmd_kl_eval)
    sp = g.add_parser("scan", parents=[common])
    sp.add_argument("--max-norm", type=int, required=True)
    sp.add_argument("--eps", type=float, default=0.1)
    sp.add_argument("--r", default=None)
    sp.add_argument("--rp", default=None)
    sp.add_argument("--chi", default=None)
    sp.set_defaults(func=cmd_kl_scan)
    sp = g.add_parser("delta", parents=[common])
    sp.add_argument("--r", required=True)
    sp.add_argument("--rp", required=True)
    sp.add_argument("--xi", required=True, help="comma parity vector, e.g. 0,0")
    sp.add_argument("--chi", default=None)
    sp.set_defaults(func=cmd_kl_delta)

    g = groups.add_parser("equidist", help="datasets, predictions, reports") \
        .add_subparsers(dest="cmd", required=True)
    sp = g.add_parser("synth", parents=[common])
    sp.add_argument("--box", required=True)
    sp.add_argument("--primes", required=True, help="comma prime labels")
    sp.add_argument("--count", type=int, required=True)
    sp.set_defaults(func=cmd_eq_synth)
    sp = g.add_parser("tau", parents=[common])
    sp.add_argument("--upto", type=int, required=True)
    sp.add_argument("--tau-out", default=None, help="CSV of n,tau(n)")
    sp.set_defaults(func=cmd_eq_tau)
    sp = g.add_parser("run", parents=[common])
    sp.add_argument("--data", required=True, help="dataset file (.jsonl or .csv)")
    sp.add_argument("--box", required=True)
    sp.add_argument("--intervals", required=True, help='JSON {"2:0":[0,1],...}')
    sp.add_argument("--covolume", type=float, default=1.0)
    sp.add_argument("--t-grid", required=True, help="comma thresholds")
    sp.add_argument("--calibrate", action="store_true",
                    help="scale weights so total = prediction at t_max, full J")
    sp.set_defaults(func=cmd_eq_run)
    sp = g.add_parser("index", parents=[common])
    sp.set_defaults(func=cmd_eq_index)
    sp = g.add_parser("predict", parents=[common])
    sp.add_argument("--box", required=True)
    sp.add_argument("--intervals", required=True)
    sp.add_argument("--covolume", type=float, default=1.0)
    sp.add_argument("--t", type=float, required=True)
    sp.set_defaults(func=cmd_eq_predict)
    return ap


_DASH_VALUED = ("--interval", "--c", "--r", "--rp", "--level")


def _glue_dash_values(argv: Sequence[str]) -> List[str]:
    """argv with '--c -2,0' as '--c=-2,0' for each option of _DASH_VALUED: argparse
    reads a value that starts with '-' as an option unless it is a plain negative
    number, and a window such as -3:2 or an element such as -2,0 is not one."""
    out = []
    for arg in argv:
        if out and out[-1] in _DASH_VALUED and arg.startswith("-") and not arg.startswith("--"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(_glue_dash_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        # argparse exits itself on usage errors and --help; fold into a code
        return int(exc.code or 0)
    try:
        args.func(args)
    except DOMAIN_ERRORS as exc:
        sys.stderr.write(_dumps(
            {"error": exc.__class__.__name__, "message": str(exc)}) + "\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
