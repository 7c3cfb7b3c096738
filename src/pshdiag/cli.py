"""Command-line front end.

Commands operate on JSON files (diagrams, singularity inputs, matrices,
batch manifests) and print deterministic JSON or text reports.

Exit codes: 0 success; 2 parse/validation error; 3 semantically infinite or
unsupported result; 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import diagram as dg
from . import measures
from . import polynomials as poly
from .decomposition import (
    Decomposable,
    certificate_to_json,
    classify_extreme,
    decide_decomposability,
)
from .errors import PshDiagError, UnsupportedDimension, VerificationFailure
from .reuse import batch_scope

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SEMANTIC = 3
EXIT_INTERNAL = 4


class CliInputError(Exception):
    pass


class SemanticExit(Exception):
    def __init__(self, payload: dict):
        self.payload = payload


# --- command implementations (pure payload -> result dict) ------------------


def cmd_diagram(payload: dict) -> dict:
    return {"diagram": dg.diagram_to_json(poly.diagram_from_input_json(payload.get("input")))}


def cmd_lelong(payload: dict) -> dict:
    g = poly.diagram_from_input_json(payload.get("input"))
    a = payload.get("weight")
    if not isinstance(a, list):
        raise CliInputError("'weight' must be a list of rationals")
    value = dg.lelong_directional(g, [dg.rational_from_json(c) for c in a])
    return {"lelong": dg.rational_to_json(value)}


def cmd_sum(payload: dict) -> dict:
    a = dg.diagram_from_json(payload.get("a"))
    b = dg.diagram_from_json(payload.get("b"))
    return {"diagram": dg.diagram_to_json(dg.minkowski_sum(a, b))}


def cmd_homothetic(payload: dict) -> dict:
    a = dg.diagram_from_json(payload.get("a"))
    b = dg.diagram_from_json(payload.get("b"))
    witness = dg.is_homothetic_to(a, b)
    if witness is None:
        return {"homothetic": False}
    return {
        "homothetic": True,
        "c": dg.rational_to_json(witness.c),
        "x": [dg.rational_to_json(c) for c in witness.x],
    }


def cmd_decompose(payload: dict) -> dict:
    g = dg.diagram_from_json(payload.get("diagram"))
    return {"certificate": certificate_to_json(decide_decomposability(g))}


def cmd_classify(payload: dict) -> dict:
    u = poly.input_from_json(payload.get("input"))
    report = classify_extreme(u)
    return {
        "input": poly.input_to_json(report.input),
        "diagram": dg.diagram_to_json(report.diagram),
        "verdict": report.verdict,
        "certificate": certificate_to_json(report.certificate),
        "caveat": report.caveat,
    }


def cmd_newton_number(payload: dict) -> dict:
    g = dg.diagram_from_json(payload.get("diagram"))
    result = measures.newton_number(g)
    if result.infinite:
        raise SemanticExit({"newton_number": "infinite"})
    return {"newton_number": dg.rational_to_json(result.value)}


def cmd_substitute(payload: dict) -> dict:
    u = poly.input_from_json(payload.get("input"))
    m = poly.matrix_from_json(payload.get("matrix"))
    transformed = poly.singularity_input(
        u.dim, [poly.substitute_linear(p, m) for p in u.polys]
    )
    return {"input": poly.input_to_json(transformed)}


def cmd_indicator(payload: dict) -> dict:
    g = dg.diagram_from_json(payload.get("diagram"))
    t = payload.get("t")
    if not isinstance(t, list):
        raise CliInputError("'t' must be a list of rationals")
    value = measures.indicator_eval(g, [dg.rational_from_json(c) for c in t])
    return {"indicator": dg.rational_to_json(value)}


def execute(command: str, payload: dict) -> tuple[dict, int]:
    """Dispatch one request through ``COMMANDS``; returns (result, exit code). Never raises."""
    handler = COMMANDS.get(command, (None,))[0]
    if handler is None:
        return {"error": f"unknown command {command!r}"}, EXIT_INPUT
    if not isinstance(payload, dict):
        return {"error": "payload must be a JSON object"}, EXIT_INPUT
    try:
        return handler(payload), EXIT_OK
    except SemanticExit as exc:
        return exc.payload, EXIT_SEMANTIC
    except (UnsupportedDimension,) as exc:
        return {"error": str(exc)}, EXIT_SEMANTIC
    except VerificationFailure as exc:
        return {"error": f"internal invariant violation: {exc}"}, EXIT_INTERNAL
    except (CliInputError, PshDiagError, ValueError, ZeroDivisionError, TypeError) as exc:
        return {"error": str(exc)}, EXIT_INPUT


def run_batch(manifest: dict) -> tuple[dict, int]:
    """Execute a manifest's requests in order; output is sorted by id.

    The entries run in one ``reuse.batch_scope``: each distinct polynomial
    text is parsed once and each distinct diagram decided once, and later
    entries share those results.  Nothing carries over to the next batch,
    and an entry that fails computes and fails afresh each time.
    """
    if not isinstance(manifest, dict) or not isinstance(manifest.get("requests", []), list):
        return {"error": "manifest must have a 'requests' list"}, EXIT_INPUT
    requests = manifest.get("requests", [])
    entries = []
    ids = set()
    for idx, req in enumerate(requests):
        if not isinstance(req, dict) or "id" not in req or "command" not in req:
            return {"error": f"request #{idx} needs 'id' and 'command'"}, EXIT_INPUT
        # one id type keeps the ids comparable, so they sort as JSON keys
        kind = type(req["id"])
        if kind not in (str, int) or kind is not type(requests[0]["id"]):
            return {"error": f"request #{idx}: ids must be all strings or all integers"}, EXIT_INPUT
        if req["id"] in ids:
            return {"error": f"duplicate request id {req['id']!r}"}, EXIT_INPUT
        ids.add(req["id"])
        entries.append((req["id"], req["command"], req.get("payload", {})))
    with batch_scope():
        outcomes = [(rid, *execute(command, payload)) for rid, command, payload in entries]

    results = {}
    exit_code = EXIT_OK
    for rid, result, code in sorted(outcomes, key=lambda o: o[0]):
        results[rid] = {"ok": code == EXIT_OK, "exit_code": code, "result": result}
        exit_code = max(exit_code, code)
    return {"results": results}, exit_code


# --- rendering --------------------------------------------------------------


def _color_enabled() -> bool:
    return os.environ.get("NO_COLOR") is None and sys.stdout.isatty()


def _staircase(generators: list[list[str]]) -> str:
    """ASCII sketch of a 2-D diagram's vertex chain, from its generator texts."""
    height = 10
    width = 2 * height
    points = [[Fraction(c) for c in p] for p in generators]
    span = max(max(c for p in points for c in p), 1)
    grid = [[" "] * width for _ in range(height)]
    for p in points:
        col = int(p[0] / span * (width - 1))
        row = height - 1 - int(p[1] / span * (height - 1))
        grid[row][col] = "*"
    out = ["  |" + "".join(row) for row in grid]
    out.append("  +" + "-" * width)
    return "\n".join(out)


def render_text(command: str, result: dict) -> str:
    lines = []

    def generator_list(obj):
        return ", ".join("(" + ", ".join(p) + ")" for p in obj["generators"])

    def diagram_lines(obj):
        lines.append(f"vertices: {generator_list(obj)}")
        if obj["dim"] == 2:
            lines.append(_staircase(obj["generators"]))

    if "diagram" in result and command in ("diagram", "sum"):
        diagram_lines(result["diagram"])
    elif command == "classify":
        verdict = result["verdict"]
        if _color_enabled():
            color = "\033[32m" if verdict == "extreme" else "\033[31m"
            lines.append(f"verdict: {color}{verdict}\033[0m")
        else:
            lines.append(f"verdict: {verdict}")
        diagram_lines(result["diagram"])
        cert = result["certificate"]
        if cert["verdict"] == "decomposable":
            lines.append(f"witness: [{generator_list(cert['left'])}] + [{generator_list(cert['right'])}]")
        else:
            lines.append(f"indecomposability method: {cert['method']}")
        lines.append(result["caveat"])
    else:
        for key, value in result.items():
            lines.append(f"{key}: {json.dumps(value, sort_keys=True)}")
    return "\n".join(lines)


def emit(result: dict, fmt: str, command: str, output_path: str | None) -> None:
    if fmt == "json":
        text = json.dumps(result, indent=2, sort_keys=True)
    else:
        text = render_text(command, result)
    if output_path:
        try:
            with open(output_path, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise CliInputError(f"cannot write {output_path}: {exc}") from exc
    else:
        print(text)


# --- command table and argument parsing ------------------------------------


def _json_int(text: str) -> int:
    dg.check_digits(text)
    return int(text)


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh, parse_int=_json_int)
    # RecursionError: arrays or objects nested past the interpreter's depth limit
    except (OSError, json.JSONDecodeError, UnicodeDecodeError, RecursionError, PshDiagError) as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc


def _vector(text: str) -> list[str]:
    """A comma-separated vector, as the texts ``rational_from_json`` reads in a payload."""
    return [part.strip() for part in text.split(",")]


# Each command's handler, help text and arguments: an argument name with
# "--" is an option, any other a positional, and ``main`` puts each into the
# payload under its name without dashes, as its reader returns it.  ``main``
# runs a batch itself, so "batch" has no handler and ``execute`` refuses it.
COMMANDS = {
    "diagram": (cmd_diagram, "indicator diagram of an input", [("--input", _load_json)]),
    "lelong": (cmd_lelong, "directional Lelong number", [("--input", _load_json), ("--weight", _vector)]),
    "sum": (cmd_sum, "Minkowski sum of two diagrams", [("a", _load_json), ("b", _load_json)]),
    "homothetic": (cmd_homothetic, "homothety witness A = c*B + x", [("a", _load_json), ("b", _load_json)]),
    "decompose": (cmd_decompose, "decomposability certificate", [("diagram", _load_json)]),
    "classify": (cmd_classify, "extremity of a homogeneous singularity", [("--input", _load_json)]),
    "newton-number": (cmd_newton_number, "Newton number of a diagram", [("diagram", _load_json)]),
    "substitute": (
        cmd_substitute, "linear change of variables", [("--input", _load_json), ("--matrix", _load_json)]
    ),
    "indicator": (cmd_indicator, "indicator value at t <= 0", [("diagram", _load_json), ("--t", _vector)]),
    "batch": (None, "run a manifest of requests", [("manifest", _load_json)]),
}


@functools.cache  # one parser per process: parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pshdiag",
        description="Exact calculus of indicator diagrams: Lelong numbers, "
        "Newton numbers, Minkowski decomposability, extremity tests.",
    )
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--output", help="write the result to a file")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, text, arguments) in COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for name, _ in arguments:
            p.add_argument(name, **({"required": True} if name.startswith("--") else {}))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload = {
            name.lstrip("-"): read(getattr(args, name.lstrip("-")))
            for name, read in COMMANDS[args.command][2]
        }
        if args.command == "batch":
            result, code = run_batch(payload["manifest"])
        else:
            result, code = execute(args.command, payload)
        emit(result, args.format, args.command, args.output)
    except CliInputError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
