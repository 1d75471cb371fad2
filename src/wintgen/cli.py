"""Command line front end: sampled reports over immersion charts.

Every run prints one JSON document to standard output, built in main alone
from the header (schema, tool, command) and the outcome: a report, a
refusal or an error.  Only --help prints text instead, and exits 0.  Usage
errors are input errors like the others; an error document names the
subcommand argv names, or null.  Floats are written with 17 significant
digits and the document depends only on the argument vector, so identical
invocations produce byte-identical output; wall-clock timing goes to
standard error.  Exit codes: 0 success, 1 an --assert-expected check
failed, 2 unusable input (an errors.InputError, a file that cannot be read
or written, or an unknown example), 3 geometric refusal (an
errors.Refusal).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import math
import os
import sys
import time
from collections import namedtuple
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__, gallery, jets
from .classical import (LTOL, TOL, ClassicalContext, DDVVReport,
                        check_order, classical_data, ddvv_from_forms,
                        form_blocks, refuse_umbilic)
from .errors import (InputError, InsufficientOrder, ParseError, Refusal,
                     SchemaError)
from .ideal import (SQRT6, CanonicalFields, _package_invariants, hopf_verdict,
                    probe_frame, theorem_b_verdict)
from .immersion import parse_immersion, sample_points
from .moebius import (JET_ORDER, IntegrabilityResiduals, MoebiusContext,
                      integrability_residuals, map_chunks, moebius_data)

# names perfbench wraps here, which its self-test requires to exist
__all__ = ["main", "classical_data", "moebius_data"]

EXIT_OK = 0
EXIT_ASSERT = 1
EXIT_INPUT = 2
EXIT_REFUSED = 3


# ---------------------------------------------------------------------------
# deterministic JSON


def _jfloat(x: float) -> str:
    return f"{x:.17g}" if math.isfinite(x) else "null"


@functools.lru_cache(maxsize=None, typed=True)  # the program's own keys
def _jkey(key) -> str:
    return encode_basestring_ascii(str(key)) + ":"


def _jseq(obj) -> str:
    return "[" + ",".join([_jdump(v) for v in obj]) + "]"


def _jdict(obj) -> str:
    return "{" + ",".join([_jkey(k) + _jdump(v) for k, v in obj.items()]) \
        + "}"


# the encoder of each exact type; an instance of a subclass (numpy.float64
# is a float) takes the first one whose type it is an instance of
_JSON = {type(None): lambda obj: "null",
         bool: lambda obj: "true" if obj else "false",
         str: encode_basestring_ascii, float: _jfloat, int: str,
         dict: _jdict, list: _jseq, tuple: _jseq}


def _jdump(obj) -> str:
    """obj as JSON: floats with 17 significant digits, NaN and infinities as
    null, strings as json.dumps writes them."""
    encode = _JSON.get(type(obj))
    if encode is None:
        encode = next((f for t, f in _JSON.items() if isinstance(obj, t)),
                      None)
        if encode is None:
            raise TypeError(f"cannot serialize {type(obj).__name__}")
    return encode(obj)


def _write_json(path: str | None, text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit(head: dict, body: dict, json_path: str | None, table) -> bool:
    """Print the document head + body, after writing the --csv table (path,
    header and records, or None) and the --json file.  A write that fails
    makes the run an input error: its document is printed instead, and the
    --json file holds it where that can be written.  Returns whether the
    files were written."""
    text = _jdump({**head, **body}) + "\n"
    try:
        if table is not None:
            _write_csv(*table)
        _write_json(json_path, text)
        written = True
    except OSError as exc:
        text = _jdump({**head, "error": _error_fields(exc)}) + "\n"
        with contextlib.suppress(OSError):
            _write_json(json_path, text)
        written = False
    sys.stdout.write(text)
    return written


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _write_csv(path: str, header: list[str], records: list[dict]) -> None:
    """One row per record: its values in order, lists spread over columns,
    cut to the header (the invariants table leaves out the trailing
    Omega12)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for rec in records:
            row = [x for v in rec.values()
                   for x in (v if isinstance(v, list) else [v])]
            writer.writerow([_cell(v) for v in row[:len(header)]])


# ---------------------------------------------------------------------------
# per-command runners


RunResult = namedtuple("RunResult", "records aggregate csv_header failures")


def _point_list(p) -> list[float]:
    return [float(v) for v in p]


def _field_names(report) -> list[str]:
    """The fields of a report dataclass, in order: its record keys."""
    return [f.name for f in dataclasses.fields(report)]


def _report_records(pts, reports) -> list[dict]:
    """One record per point: its sample index, its coordinates and the
    fields of its report, in order."""
    return [{"index": idx, "point": _point_list(p),
             **{f.name: getattr(rep, f.name) for f in dataclasses.fields(rep)}}
            for idx, (p, rep) in enumerate(zip(pts, reports))]


def _run_ddvv(spec, pts, args, expected) -> RunResult:
    # the records read first and second partials only, so every order the
    # gate accepts gives the same numbers; they are computed at order 2,
    # from one chart jet, one point pass and one report call per chunk of
    # map_chunks
    def analyze(chunk, start):
        ctx = ClassicalContext(spec, chunk, order=2)
        l = jets.first_lane(ctx.is_umbilic())
        if l is not None:
            refuse_umbilic(spec.name, f" at sample point {start + l}",
                           "the ideality defect vanishes identically there", l)
        return ddvv_from_forms(*form_blocks(ctx), spec.ambient.c,
                               tol=args.tol)

    records = _report_records(pts, map_chunks(analyze, pts))
    slacks = [r["slack"] for r in records]
    aggregate = {
        "n_points": len(records),
        "min_slack": min(slacks),
        "max_slack": max(slacks),
        "all_ideal": all(r["ideal"] for r in records),
    }
    failures = []
    if expected is not None:
        want = expected.get("ideal")
        if want is True and not aggregate["all_ideal"]:
            failures.append("expected every sample point to satisfy equality")
        if want is False:
            if any(r["ideal"] for r in records):
                failures.append("expected no sample point to satisfy equality")
            floor = expected.get("min_slack")
            if floor is not None and aggregate["min_slack"] <= floor:
                failures.append(
                    f"expected slack > {floor:.17g} everywhere, found "
                    f"{aggregate['min_slack']:.17g}")
    header = ["index", "u1", "u2", "u3", *_field_names(DDVVReport)]
    return RunResult(records, aggregate, header, failures)


_CONSTANT_VALUES = {
    "mu": lambda r: r["mu"],
    "L": lambda r: r["L"],
    "rho": lambda r: r["rho"],
    "nu": lambda r: r["rho"] / SQRT6,
    "Fhat": lambda r: r["Fhat"],
    "theta12_E3": lambda r: r["theta12"][2],
}


def _analyze(spec, chunk, args) -> CanonicalFields:
    """The canonical fields over a chunk of sample points, with the gauge,
    torsion cutoff and ideality tolerance of the command line."""
    return CanonicalFields(MoebiusContext(spec, chunk),
                           gauge="V0" if args.gauge == "v0" else "raw",
                           ltol=args.ltol, tol=args.tol)


def _ideal_records(spec, pts, args, names=None):
    """The per-point loop of the invariant commands: records holding the
    named values (all of them by default), and the invariants they came
    from.  The points run through map_chunks with probe_frame as its
    probe, each with the torsion-positive sign rule, so a record or a
    refusal depends only on its point and not on sample order or
    chunking."""
    def analyze(chunk, _start):
        cf = _analyze(spec, chunk, args)
        return list(zip(np.ravel(cf.data.rho).tolist(),
                        _package_invariants(cf)))

    def probe(p):
        probe_frame(spec, p, ltol=args.ltol, tol=args.tol)

    records = []
    invs = []
    results = map_chunks(analyze, pts, probe)
    for idx, (p, (rho, inv)) in enumerate(zip(pts, results)):
        values = {
            "rho": float(rho),
            "mu": float(inv.mu),
            "U": float(inv.U),
            "V": float(inv.V),
            "L": float(inv.L),
            "G": float(inv.G),
            "lam": float(inv.lam),
            "Fhat": float(inv.Fhat),
            "Ghat": float(inv.Ghat),
            "omega": [float(v) for v in inv.omega_coeffs],
            "domega": [float(v) for v in inv.domega],
            "theta12": [float(v) for v in inv.theta12_coeffs],
            "Omega12": [float(v) for v in inv.Omega12_coeffs],
        }
        rec = {"index": idx, "point": _point_list(p)}
        rec.update((name, values[name]) for name in names or values)
        records.append(rec)
        invs.append(inv)
    return records, invs


def _run_invariants(spec, pts, args, expected) -> RunResult:
    records, _ = _ideal_records(spec, pts, args)
    aggregate = {
        "n_points": len(records),
        "max_abs_U": max(abs(r["U"]) for r in records),
        "max_abs_V": max(abs(r["V"]) for r in records),
        "max_abs_G": max(abs(r["G"]) for r in records),
        "min_abs_L": min(abs(r["L"]) for r in records),
        "max_domega": max(max(abs(d) for d in r["domega"]) for r in records),
    }
    failures = []
    if expected is not None:
        for name in expected.get("zeros", ()):
            worst = max(abs(r[name]) for r in records)
            if worst > args.tol:
                failures.append(
                    f"expected {name} = 0, found |{name}| up to {worst:.17g}")
        for name, want in expected.get("constants", {}).items():
            getter = _CONSTANT_VALUES.get(name)
            if getter is None:
                continue
            worst = max(abs(getter(r) - want) for r in records)
            if worst > args.tol:
                failures.append(
                    f"expected {name} = {want:.17g}, off by {worst:.17g}")
    header = ["index", "u1", "u2", "u3", "rho", "mu", "U", "V", "L", "G",
              "lam", "Fhat", "Ghat", "omega1", "omega2", "omega3",
              "domega12", "domega13", "domega23", "theta12_1", "theta12_2",
              "theta12_3"]
    return RunResult(records, aggregate, header, failures)


def _run_theorem_b(spec, pts, args, expected) -> RunResult:
    records, invs = _ideal_records(spec, pts, args, ("Fhat", "domega"))
    verdict = theorem_b_verdict(invs, tol=args.tol)
    aggregate = {
        "n_points": verdict.n_points,
        "classification": verdict.classification,
        "closed": verdict.closed,
        "Fhat_sign": verdict.Fhat_sign,
        "max_domega": verdict.max_domega,
        "fhat_min": verdict.fhat_min,
        "fhat_max": verdict.fhat_max,
    }
    failures = []
    if expected is not None:
        want = expected.get("classification")
        if want is not None and verdict.classification != want:
            failures.append(
                f"expected classification {want}, got "
                f"{verdict.classification}")
    header = ["index", "u1", "u2", "u3", "Fhat", "domega12", "domega13",
              "domega23"]
    return RunResult(records, aggregate, header, failures)


def _run_hopf_check(spec, pts, args, expected) -> RunResult:
    records, invs = _ideal_records(spec, pts, args, ("G", "domega"))
    report = hopf_verdict(invs, tol=args.tol)
    aggregate = {
        "n_points": len(records),
        "satisfied": report.satisfied,
        "max_G": report.max_G,
        "max_domega": report.max_domega,
    }
    failures = []
    if expected is not None:
        want = expected.get("hopf")
        if want is not None and report.satisfied != want:
            failures.append(
                f"expected lift criterion {want}, got {report.satisfied}")
    header = ["index", "u1", "u2", "u3", "G", "domega12", "domega13",
              "domega23"]
    return RunResult(records, aggregate, header, failures)


def _run_residuals(spec, pts, args, expected) -> RunResult:
    def analyze(chunk, _start):
        return integrability_residuals(MoebiusContext(spec, chunk))

    def probe(p):  # the gates of the lift: metric, normal frame, umbilic
        ClassicalContext(spec, p, order=2).umbilic_gate

    results = map_chunks(analyze, pts, probe)
    records = _report_records(pts, results)
    for rec, res in zip(records, results):
        rec["max"] = res.max_residual()
    names = _field_names(IntegrabilityResiduals)
    aggregate = {"n_points": len(records),
                 **{"max_" + name: max(r[name] for r in records)
                    for name in names},
                 "max_overall": max(r["max"] for r in records)}
    failures = []
    if expected is not None and aggregate["max_overall"] > args.tol:
        failures.append(
            f"expected structure-equation residuals below {args.tol:.17g}, "
            f"found {aggregate['max_overall']:.17g}")
    header = ["index", "u1", "u2", "u3", *names, "max"]
    return RunResult(records, aggregate, header, failures)


_RUNNERS = {
    "ddvv": _run_ddvv,
    "invariants": _run_invariants,
    "theorem-b": _run_theorem_b,
    "hopf-check": _run_hopf_check,
    "residuals": _run_residuals,
}


# ---------------------------------------------------------------------------
# argument parsing and dispatch


class _Parser(argparse.ArgumentParser):
    """Usage errors print the usage on standard error and raise SchemaError
    for main to report; the subcommand parsers share the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SchemaError(message)


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it
    was, so every call of main can share it."""
    parser = _Parser(
        prog="wintgen",
        description="Conformal-invariant reports for three-dimensional "
                    "charts in five-dimensional space forms.")
    sub = parser.add_subparsers(dest="command", required=True)

    pg = sub.add_parser("gallery", help="inspect the built-in example charts")
    pg.add_argument("action", choices=["list"])
    pg.add_argument("--json", metavar="PATH", default=None,
                    help="also write the document to this file")

    common = argparse.ArgumentParser(add_help=False)
    src = common.add_mutually_exclusive_group(required=True)
    src.add_argument("--spec", dest="spec_file", metavar="FILE",
                     help="immersion description file")
    src.add_argument("--example", metavar="NAME",
                     help="built-in example name (see: wintgen gallery list)")
    common.add_argument("--points", type=int, default=20, metavar="N",
                        help="number of sample points (default 20)")
    common.add_argument("--seed", type=int, default=0, metavar="S",
                        help="sampling seed (default 0)")
    common.add_argument("--order", type=int, default=5, metavar="K",
                        help="jet truncation order (default 5)")
    common.add_argument("--tol", type=float, default=TOL, metavar="T",
                        help="report tolerance, also the DDVV equality "
                             "tolerance of the ideality gate (default 1e-7)")
    common.add_argument("--ltol", type=float, default=LTOL, metavar="T",
                        help="torsion cutoff |L| for the direction field "
                             "(default 1e-6)")
    common.add_argument("--gauge", choices=["raw", "v0"], default="raw",
                        help="frame normalization for the invariant record")
    common.add_argument("--json", metavar="PATH", default=None,
                        help="also write the document to this file")
    common.add_argument("--csv", metavar="PATH", default=None,
                        help="write per-point records to this file")
    common.add_argument("--assert-expected", action="store_true",
                        help="exit 1 unless the report matches the gallery "
                             "entry's expected record (needs --example)")

    helps = {
        "ddvv": "normal-scalar-curvature inequality report",
        "invariants": "conformal invariants U, V, L, G, lambda, Fhat per "
                      "point",
        "theorem-b": "closedness of the distinguished 1-form and the sign "
                     "of Fhat, folded into the space-form verdict",
        "hopf-check": "circle-lift criterion: G = 0 and the 1-form closed",
        "residuals": "structure-equation residuals per point",
    }
    for name, text in helps.items():
        sub.add_parser(name, parents=[common], help=text)
    return parser


def _load_source(args):
    if args.example is not None:
        entry = gallery.by_name(args.example)
        return entry.spec, entry.expected, {"example": args.example}
    with open(args.spec_file, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_immersion(text), None, {"file": args.spec_file}


def _check_request(args) -> None:
    """Before any work: --assert-expected needs --example, --json and --csv
    must not name a folder or a file in a missing or read-only folder, and
    no two of --spec, --json and --csv may name one file.  main reports
    these errors on stdout only."""
    if getattr(args, "assert_expected", False) and args.example is None:
        raise SchemaError("--assert-expected requires --example")
    for flag in ("json", "csv"):
        path = getattr(args, flag, None)
        if path and (os.path.isdir(path) or not os.access(
                os.path.dirname(os.path.abspath(path)), os.W_OK)):
            raise SchemaError(f"--{flag} {path}: cannot write a file there")
    files = [os.path.realpath(getattr(args, flag)) for flag in
             ("spec_file", "json", "csv") if getattr(args, flag, None)]
    if len(set(files)) < len(files):
        raise SchemaError("--spec, --json and --csv must name different files")


def _analysis_command(args):
    """Exit code, document body after the header, and the --csv table:
    path, header and rows (None without --csv, and for a refusal, which
    keeps source and parameters) of an analysis run.  Input errors
    propagate to main."""
    spec, expected, source = _load_source(args)
    if args.points < 1:
        raise SchemaError("--points must be >= 1")
    for flag, value in (("--tol", args.tol), ("--ltol", args.ltol)):
        if not (math.isfinite(value) and value > 0.0):
            raise SchemaError(f"{flag} must be finite and > 0, got {value!r}")
    if args.command != "ddvv" and args.order < JET_ORDER:
        raise InsufficientOrder(f"conformal frame data needs jet order "
                                f">= {JET_ORDER}, got {args.order}")
    check_order(args.order)

    pts = sample_points(spec.domain, args.points, args.seed)
    body = {
        "source": source,
        "parameters": {
            "points": args.points,
            "seed": args.seed,
            "order": args.order,
            "tol": args.tol,
            "ltol": args.ltol,
            "gauge": args.gauge,
        },
    }
    checked = expected if args.assert_expected else None
    try:
        result = _RUNNERS[args.command](spec, pts, args, checked)
    except Refusal as exc:
        body["refusal"] = {"kind": type(exc).__name__, "message": str(exc)}
        return EXIT_REFUSED, body, None
    body["sample"] = [_point_list(p) for p in pts]
    body["records"] = result.records
    body["aggregate"] = result.aggregate
    if args.assert_expected:
        body["assert"] = {"passed": not result.failures,
                          "failures": result.failures}
    code = EXIT_ASSERT if args.assert_expected and result.failures \
        else EXIT_OK
    table = (args.csv, result.csv_header, result.records) if args.csv \
        else None
    return code, body, table


def _gallery_entries() -> list[dict]:
    return [{
        "name": e.name,
        "ambient": {"kind": e.spec.ambient.kind,
                    "curvature": float(e.spec.ambient.c)},
        "domain": [[float(lo), float(hi)] for lo, hi in e.spec.domain],
        "has_text_form": e.expression_text is not None,
        "expected": e.expected,
    } for e in gallery.all_entries()]


def _error_fields(exc: Exception) -> dict:
    msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
    error = {"kind": type(exc).__name__, "message": str(msg)}
    if isinstance(exc, ParseError):
        error.update(line=exc.line, col=exc.col)
    return error


def _command_named(argv) -> str | None:
    """The subcommand argv names, as documents name it (gallery lists its
    entries), or None when argv names none."""
    name = next((a for a in argv if a == "gallery" or a in _RUNNERS), None)
    return "gallery-list" if name == "gallery" else name


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    start = time.perf_counter()
    json_path, table = None, None
    try:
        args = _build_parser().parse_args(argv)
        _check_request(args)
        json_path = args.json
        if args.command == "gallery":
            code, body = EXIT_OK, {"entries": _gallery_entries()}
        else:
            code, body, table = _analysis_command(args)
    except SystemExit as exc:
        # argparse still exits for --help (0); usage errors raise SchemaError
        return int(exc.code or 0)
    except (InputError, OSError, KeyError) as exc:
        code, body = EXIT_INPUT, {"error": _error_fields(exc)}
    if not _emit({"schema": 1,
                  "tool": {"name": "wintgen", "version": __version__},
                  "command": _command_named(argv)}, body, json_path, table):
        code = EXIT_INPUT
    print(f"# elapsed {time.perf_counter() - start:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
