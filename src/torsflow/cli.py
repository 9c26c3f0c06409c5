"""Batch command line: compute torsion reports from model / CW documents.

    torsflow compute --input model.json [--tolerance 1e-10]
                     [--mode auto|fast|full] [--format text|json]
    torsflow oracle  (--cw complex.json | --lens p,q)
                     [--rep representation.json] [--format text|json]

Reports go to standard output, diagnostics to standard error. Exit codes:
0 success, 2 validation error, 3 unreadable or malformed input, 141
standard output closed before the report was written (as for a writer
ended by SIGPIPE). The
environment variable TORSFLOW_TOLERANCE overrides the default tolerance;
the --tolerance flag wins over both.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .bott import TorsionReport, total_torsion
from .cw import cw_torsion, lens_space
from .documents import load_json, parse_cw, parse_model, parse_representation
from .errors import InvalidInput, ParseError, TorsflowError
from .linalg import DEFAULT_TOL
from .representation import trivial_representation

TOLERANCE_ENV = "TORSFLOW_TOLERANCE"
BROKEN_PIPE_EXIT = 141


def _resolve_tolerance(flag_value) -> float:
    if flag_value is not None:
        tol = flag_value
    elif os.environ.get(TOLERANCE_ENV):
        try:
            tol = float(os.environ[TOLERANCE_ENV])
        except ValueError as err:
            raise InvalidInput(f"{TOLERANCE_ENV}: {err}") from err
    else:
        tol = DEFAULT_TOL
    if not (0.0 < tol < 1.0) or not math.isfinite(tol):
        raise InvalidInput(f"tolerance must lie in (0, 1), got {tol}")
    return tol


def _dims_table(dims: dict) -> dict:
    return {f"{n},{q}": dims[(n, q)] for n, q in sorted(dims)}


def report_to_dict(report: TorsionReport) -> dict:
    return {
        "mode": report.mode,
        "tolerance": report.tolerance,
        "blocks": [
            {
                "id": coh.block_id,
                "kind": coh.kind,
                "level": coh.level,
                "dims": {str(k): v for k, v in sorted(coh.dims.items())},
                "factor": coh.torsion_factor.modulus,
                "acyclic": coh.acyclic,
            }
            for coh in report.per_block
        ],
        "page_dims": {
            "E1": _dims_table(report.e1_dims),
            "E2": _dims_table(report.e2_dims),
            "Einf": _dims_table(report.einf_dims),
        },
        "page_torsions": {
            "d0": report.tau_d0.modulus,
            "d1": report.tau_d1.modulus,
            "d2": report.tau_d2.modulus,
        },
        "fast_total": report.fast_total,
        "basis_note": report.total.basis_note,
        "warnings": list(report.warnings),
        "total": report.total.modulus,
        "acyclic": report.acyclic,
    }


def _format_dims_line(dims: dict) -> str:
    if not dims:
        return "zero"
    return " ".join(f"({n},{q})={v}" for (n, q), v in sorted(dims.items()))


def render_report_text(report: TorsionReport) -> str:
    lines = []
    lines.append(f"mode: {report.mode}, tolerance: {report.tolerance:g}")
    lines.append("blocks:")
    lines.append("  id          kind    level  dims                factor")
    for coh in report.per_block:
        dims = " ".join(f"H^{k}:{v}" for k, v in sorted(coh.dims.items())) or "acyclic"
        lines.append(
            f"  {coh.block_id:<11} {coh.kind:<7} {coh.level:<6} {dims:<19} "
            f"{coh.torsion_factor.modulus:.8g}"
        )
    lines.append(f"E1 dims: {_format_dims_line(report.e1_dims)}")
    lines.append(f"E2 dims: {_format_dims_line(report.e2_dims)}")
    lines.append(f"Einf dims: {_format_dims_line(report.einf_dims)}")
    lines.append(
        "page torsions: |tau_d0| = {:.8f}, |tau_d1| = {:.8f}, |tau_d2| = {:.8f}".format(
            report.tau_d0.modulus, report.tau_d1.modulus, report.tau_d2.modulus
        )
    )
    if report.fast_total is not None:
        lines.append(f"fast path product: {report.fast_total:.8f}")
    lines.append(f"basis note: {report.total.basis_note}")
    if report.warnings:
        lines.append("warnings:")
        for w in report.warnings:
            lines.append(f"  - {w}")
    lines.append(
        "total torsion modulus: {:.8f}, acyclic: {}".format(
            report.total.modulus, "yes" if report.acyclic else "no"
        )
    )
    return "\n".join(lines)


def run_compute(args) -> int:
    tol = _resolve_tolerance(args.tolerance)
    doc = load_json(args.input)
    model = parse_model(doc)
    report = total_torsion(model, mode=args.mode, tol_rel=tol)
    if args.format == "json":
        print(json.dumps(report_to_dict(report), indent=2, sort_keys=True))
    else:
        print(render_report_text(report))
    return 0


def run_oracle(args) -> int:
    tol = _resolve_tolerance(getattr(args, "tolerance", None))
    if (args.cw is None) == (args.lens is None):
        raise InvalidInput("oracle needs exactly one of --cw PATH or --lens p,q")
    if args.cw is not None:
        doc = load_json(args.cw)
        complex_ = parse_cw(doc.get("cw", doc))
    else:
        parts = args.lens.split(",")
        if len(parts) != 2:
            raise InvalidInput(f"--lens expects p,q, got {args.lens!r}")
        try:
            p, q = int(parts[0]), int(parts[1])
        except ValueError as err:
            raise InvalidInput(f"--lens expects integers: {err}") from err
        complex_ = lens_space(p, q)
    if args.rep is not None:
        rep_doc = load_json(args.rep)
        rep = parse_representation(rep_doc.get("representation", rep_doc))
    else:
        rep = trivial_representation(complex_.generator_names() or ["t"])
    dims, tau = cw_torsion(complex_, rep, tol)
    acyclic = all(d == 0 for d in dims)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "cells": list(complex_.counts()),
                    "cohomology_dims": list(dims),
                    "torsion": tau.modulus,
                    "basis_note": tau.basis_note,
                    "acyclic": acyclic,
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print("cells per dimension: " + " ".join(str(c) for c in complex_.counts()))
        print("twisted cohomology dims: " + " ".join(f"H^{k}:{d}" for k, d in enumerate(dims)))
        print(
            "torsion modulus: {:.8f}, acyclic: {}".format(tau.modulus, "yes" if acyclic else "no")
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torsflow",
        description="Reidemeister torsion of Bott-integral isoenergy 3-manifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="run the block-model torsion pipeline")
    compute.add_argument("--input", required=True, help="model document (JSON)")
    compute.add_argument("--tolerance", type=float, default=None, help="relative rank tolerance")
    compute.add_argument("--mode", choices=("auto", "fast", "full"), default="auto")
    compute.add_argument("--format", choices=("text", "json"), default="text")
    compute.set_defaults(func=run_compute)

    oracle = sub.add_parser("oracle", help="twisted cohomology of a CW complex")
    oracle.add_argument("--cw", default=None, help="CW document (JSON)")
    oracle.add_argument("--lens", default=None, metavar="p,q", help="built-in lens space")
    oracle.add_argument("--rep", default=None, help="representation document (JSON)")
    oracle.add_argument("--format", choices=("text", "json"), default="text")
    oracle.set_defaults(func=run_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has gone: what is still buffered goes to the null
        # device, so the interpreter's flush at exit has nothing to report
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return BROKEN_PIPE_EXIT
    except ParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except TorsflowError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
