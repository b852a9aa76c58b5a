"""Command-line front end.

Subcommands: ``coflow``, ``flow``, ``dichromate``, ``colorings`` and
``check``.  Inputs are either digraph text files (``digraph <n>``
header, one ``<tail> <head>`` arc per line) or matrix JSON files
(``{"rows": [[...]]}`` with integers or "p/q" strings).  Exit codes:
0 success, 1 failed check, 2 malformed or unreadable input or usage, 3
cap or budget exceeded, 4 violated internal invariant or any other
internal error, 141 (128 + SIGPIPE) the reader of stdout went away.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

from .checks import run_checks
from .digraph import (
    DEFAULT_COLORING_BUDGET,
    DEFAULT_ENUMERATION_CAP,
    count_acyclic_colorings,
    matroid_from_digraph,
    nl_coflow_graphic,
    parse_digraph,
)
from .errors import (
    ContractViolation,
    InvalidBasisError,
    ParseError,
    ResourceLimitError,
)
from .om import RealizedOM
from .poly import dichromate, nl_coflow_matroid, nl_flow_matroid
from .ratlin import RatMatrix, row_basis

_RATIONAL_RE = re.compile(r"-?\d+(/[1-9]\d*)?$")


def parse_matrix(text: str) -> RatMatrix:
    """Parse a matrix from JSON text of shape {"rows": [[...]]}.

    Entries are integers or rational strings like "3/4"; rows must be
    rectangular.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno)
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    except ValueError:  # int() refuses an integer literal this long
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"an integer has more than {limit} digits") from None
    if not isinstance(data, dict) or "rows" not in data:
        raise ParseError('matrix JSON must be an object with a "rows" key')
    rows = data["rows"]
    if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
        raise ParseError('"rows" must be a list of lists')
    width = len(rows[0]) if rows else 0
    entries = []
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ParseError(f"row {i + 1} has {len(row)} entries, expected {width}")
        for j, value in enumerate(row):
            if isinstance(value, bool):
                raise ParseError(f"entry ({i + 1},{j + 1}) is not a rational")
            if isinstance(value, int):
                entries.append(value)
            elif isinstance(value, str) and _RATIONAL_RE.match(value.strip()):
                try:
                    entries.append(Fraction(value.strip()))
                except ValueError:  # the regex admits only the digit limit
                    raise ParseError(
                        f"entry ({i + 1},{j + 1}) has an integer of more than "
                        f"{sys.get_int_max_str_digits()} digits"
                    ) from None
            else:
                raise ParseError(
                    f'entry ({i + 1},{j + 1}) must be an integer or "p/q" string, got {value!r}'
                )
    return RatMatrix(len(rows), width, entries)


def load_input(path: str):
    """Detect and parse the input file; returns (kind, digraph_or_matrix)."""
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        return "matrix", parse_matrix(text)
    return "digraph", parse_digraph(text)


def _check_cap(ground_size: int, cap: int, doubled: bool):
    limit = cap // 2 if doubled else cap
    if ground_size > limit:
        what = "the doubled-ground cap" if doubled else "the enumeration cap"
        raise ResourceLimitError(f"{ground_size} elements exceed {what} {limit}")


def _realize(kind, obj) -> RealizedOM:
    """The oriented matroid of a parsed input.  Matrix rows are first cut
    down to a row basis, so dependent rows still realize their matroid."""
    if kind == "digraph":
        return matroid_from_digraph(obj)
    return RealizedOM.from_rational(row_basis(obj))


def _emit(args: argparse.Namespace, payload: dict, text_lines):
    if args.output_format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def run(args: argparse.Namespace) -> int:
    """Execute one command parsed by ``build_parser``, with ``--basis`` as a
    tuple of ints; returns the process exit status."""
    if args.cap < 0:
        raise ParseError(f"--cap must be nonnegative, got {args.cap}")
    try:
        kind, obj = load_input(args.input)
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {args.input}: {exc}") from None
    oracle = args.oracle or ("matroid" if kind == "matrix" else "graphic")
    if args.command == "coflow" and kind == "matrix" and oracle != "matroid":
        raise ParseError("matrix inputs support only --oracle matroid")
    if args.command != "colorings":
        # before any realization: the incidence matrix alone can be costly
        ground_size = obj.arc_count if kind == "digraph" else obj.cols
        _check_cap(ground_size, args.cap, doubled=args.command in ("dichromate", "check"))

    if args.command == "coflow":
        if oracle == "graphic":
            poly = nl_coflow_graphic(obj, args.cap)
            _emit(args, {"polynomial": poly.to_json()}, [str(poly)])
        elif oracle == "matroid":
            poly = nl_coflow_matroid(_realize(kind, obj))
            _emit(args, {"polynomial": poly.to_json()}, [str(poly)])
        else:  # both
            graphic = nl_coflow_graphic(obj, args.cap)
            matroid = nl_coflow_matroid(matroid_from_digraph(obj))
            if graphic != matroid:
                raise ContractViolation(
                    "oracle-agreement: the subset-poset and face-lattice coflow polynomials differ"
                )
            _emit(
                args,
                {
                    "graphic": graphic.to_json(),
                    "matroid": matroid.to_json(),
                    "agree": True,
                },
                [f"graphic: {graphic}", f"matroid: {matroid}", "agree: yes"],
            )
        return 0

    if args.command == "flow":
        poly = nl_flow_matroid(_realize(kind, obj))
        _emit(args, {"polynomial": poly.to_json()}, [str(poly)])
        return 0

    if args.command == "dichromate":
        basis0 = None if args.basis is None else [b - 1 for b in args.basis]
        try:
            poly, basis_used = dichromate(_realize(kind, obj), basis0)
        except InvalidBasisError as exc:
            # restate the columns in the 1-based terms of --basis
            raise InvalidBasisError([c + 1 for c in exc.columns], exc.reason) from None
        shown = [int(b) + 1 for b in basis_used]
        _emit(
            args,
            {"polynomial": poly.to_json(), "basis": shown},
            [str(poly), "basis: " + ",".join(str(b) for b in shown)],
        )
        return 0

    if args.command == "colorings":
        if kind != "digraph":
            raise ParseError("colorings requires a digraph input")
        if args.k is None or args.k < 1:
            raise ParseError("--k must be a positive integer")
        count = count_acyclic_colorings(obj, args.k, budget=DEFAULT_COLORING_BUDGET)
        _emit(args, {"count": count}, [str(count)])
        return 0

    if args.command == "check":
        digraph = obj if kind == "digraph" else None
        results = run_checks(_realize(kind, obj), digraph=digraph, cap=args.cap)
        payload = {
            "checks": [
                {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
            ],
            "all_passed": all(r.passed for r in results),
        }
        lines = [
            f"{'PASS' if r.passed else 'FAIL'} {r.name} ({r.detail})" for r in results
        ]
        _emit(args, payload, lines)
        return 0 if all(r.passed for r in results) else 1

    raise ValueError(f"unknown command {args.command}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlpoly",
        description="Exact NL-coflow/NL-flow polynomials and the trivariate dichromate",
    )
    parser.set_defaults(basis=None, k=None, oracle=None)  # run reads them for every command
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("input", help="digraph text file or matrix JSON file")
    common.add_argument(
        "--format", choices=("text", "json"), default="text", dest="output_format"
    )
    common.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_ENUMERATION_CAP,
        help="arc/element enumeration cap (default %(default)s)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    coflow = sub.add_parser("coflow", parents=[common], help="NL-coflow polynomial")
    coflow.add_argument(
        "--oracle",
        choices=("graphic", "matroid", "both"),
        default=None,
        help="route for digraph inputs (default graphic; matrices always use matroid)",
    )
    sub.add_parser("flow", parents=[common], help="NL-flow polynomial")
    dichro = sub.add_parser("dichromate", parents=[common], help="trivariate dichromate")
    dichro.add_argument(
        "--basis",
        default=None,
        help="comma-separated 1-based basis columns, e.g. 1,2",
    )
    colorings = sub.add_parser(
        "colorings", parents=[common], help="count acyclic colorings"
    )
    colorings.add_argument("--k", type=int, required=True, help="number of colors")
    sub.add_parser("check", parents=[common], help="run the invariant suite")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.basis is not None:
        try:  # an empty --basis is the empty basis, valid only at rank 0
            args.basis = tuple(int(b) for b in args.basis.split(",")) if args.basis else ()
        except ValueError:
            print("error: --basis expects comma-separated integers", file=sys.stderr)
            return 2
    try:
        code = run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # stdout's reader is gone; keep the exit flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ParseError, InvalidBasisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ContractViolation as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # a defect: one line, not a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
