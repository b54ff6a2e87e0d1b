"""Command-line front end.

Commands mirror the library: code analytics on generator-matrix files,
bound calculators, exact chi evaluation, gap certificates, and the full
verification sweep.  Every command emits either a text report or, with
--json, a structured report with identical numeric content.

Node/coordinate indices in all I/O are 0-based (classical sources often
number nodes from 1).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii

from . import certificates, formulas, gf2, surfaces, verification
from .formulas import STRICT, WEAK


def cmd_code_analyze(args) -> tuple[str, dict[str, object]]:
    code = gf2.read_generator_matrix(args.file)
    distribution = gf2.weight_distribution(code)
    payload = {
        "file": args.file,
        "n": code.length,
        "k": code.dimension,
        "minimum_distance": gf2.minimum_distance(code) if code.dimension else None,
        "weight_distribution": certificates._encode(distribution),
        "parity_class": gf2.classify_parity(code),
        "self_orthogonal": gf2.is_self_orthogonal(code),
        "dual_dimension": code.length - code.dimension,
    }
    return "info", payload


def cmd_code_project(args) -> tuple[str, dict[str, object]]:
    code = gf2.read_generator_matrix(args.file)
    image, kernel_dim = gf2.project_onto_support(code, args.word)
    payload = {
        "file": args.file,
        "word": args.word,
        "image_n": image.length,
        "image_k": image.dimension,
        "kernel_dimension": kernel_dim,
        "image_weight_distribution": certificates._encode(
            gf2.weight_distribution(image)),
    }
    return "info", payload


def cmd_griesmer(args) -> tuple[str, dict[str, object]]:
    if args.k is not None:
        payload = {"k": args.k, "d": args.d,
                   "n_min": gf2.griesmer_min_length(args.k, args.d)}
    else:
        payload = {"n": args.n, "d": args.d,
                   "k_max": gf2.griesmer_max_dim(args.n, args.d)}
    return "info", payload


def cmd_chi(args) -> tuple[str, dict[str, object]]:
    value = formulas.chi(args.degree, args.twist, args.weight)
    payload = {
        "degree": args.degree,
        "twist": args.twist,
        "weight": args.weight,
        "chi": str(value),
        "is_integer": value.denominator == 1,
        "serre_dual_twist": formulas.serre_dual_twist(args.degree, args.twist),
    }
    return "info", payload


def cmd_emin(args) -> tuple[str, dict[str, object]]:
    if args.weak:
        value = formulas.e_bar_min(args.degree)
    else:
        value = formulas.e_min(args.degree)
    payload = {"degree": args.degree,
               "parity": WEAK if args.weak else STRICT,
               "min_weight": value}
    return "info", payload


def cmd_gaps(args) -> tuple[str, dict[str, object]]:
    cert = certificates.derive_gaps(args.degree, args.parity)
    return "pass" if cert.validate() else "fail", cert.payload()


def cmd_surface_bounds(args) -> tuple[str, dict[str, object]]:
    surface = surfaces.NodalSurface(args.degree, args.nodes)
    even_degree = args.degree % 2 == 0
    payload = {
        "degree": args.degree,
        "nodes": args.nodes,
        "b2_resolution": surfaces.b2_resolution(args.degree),
        "dim_lower_bound_strict": surfaces.dim_lower_bound(surface, STRICT),
        "dim_lower_bound_even": (surfaces.dim_lower_bound(surface, WEAK)
                                 if even_degree else None),
        "strict_weight_modulus": surfaces.strict_weight_modulus(args.degree),
        "weak_weight_residue": (surfaces.weak_weight_residue(args.degree)
                                if even_degree else None),
    }
    return "info", payload


def cmd_verify_paper(args) -> tuple[str, dict[str, object]]:
    sweep = verification.run_full_verification(args.data_dir)
    return "pass" if sweep["pass"] else "fail", sweep


def _render_text(report: dict[str, object]) -> str:
    lines = [f"command: {report['command']}", f"status: {report['status']}"]
    payload = report["payload"]
    if "checks" in payload:
        for check in payload["checks"]:
            verdict = "pass" if check["pass"] else "FAIL"
            lines.append(f"[{verdict}] {check['name']}: expected "
                         f"{check['expected']!r}, got {check['actual']!r}")
        lines.append(f"checks passed: {sum(c['pass'] for c in payload['checks'])}"
                     f"/{len(payload['checks'])}")
    elif "steps" in payload:
        dumps = functools.partial(json.dumps, sort_keys=True, default=certificates._plain)
        for i, step in enumerate(payload["steps"], start=1):
            detail = f" -- {step.note}" if step.note else ""
            lines.append(f"step {i} [{step.rule}] inputs={dumps(step.inputs)} "
                         f"=> {step.asserted_output}{detail}")
        lines.append(f"conclusion: {dumps(payload['conclusion'])}")
    else:
        for key, value in payload.items():
            lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"


def _write_json(value: object, newline: str, out: list[str]) -> None:
    """Append json.dumps(value, sort_keys=True, indent=2, default=_plain)'s text to out.

    json's C encoder runs only when indent is None.  Values other than str,
    None, bool, int, lists, tuples and str-keyed dicts are written as their
    certificates._plain form, so a certificate's payload() needs no _encode
    pass.  An int key, a float or any other type raises TypeError.  newline
    is "\n" and the current indent.
    """
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, dict):
        inner = newline + "  "
        separator = "{" + inner
        for key in sorted(value):
            # encode_basestring_ascii raises TypeError for a non-str key.
            out.append(separator + encode_basestring_ascii(key) + ": ")
            _write_json(value[key], inner, out)
            separator = "," + inner
        out.append(newline + "}" if value else "{}")
    elif value is None or value is True or value is False:
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            out.append(separator)
            _write_json(item, inner, out)
            separator = "," + inner
        out.append(newline + "]" if value else "[]")
    else:
        _write_json(certificates._plain(value), newline, out)


def _emit(report: dict[str, object], args) -> int:
    if args.json:
        out: list[str] = []
        _write_json(report, "\n", out)
        text = "".join(out) + "\n"
    else:
        text = _render_text(report)
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report["status"] in ("pass", "info") else 1


# Each leaf parser under its command words, recorded by build_parser.
_LEAVES: dict[tuple[str, ...], argparse.ArgumentParser] = {}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Grammar only, no handlers: built on first use, shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="evensets",
        description="Binary-code analytics for even sets of nodes on nodal "
                    "surfaces (all node indices 0-based)")
    parser.add_argument("--json", action="store_true",
                        help="emit a structured JSON report")
    parser.add_argument("--output", metavar="PATH",
                        help="write the report to a file instead of stdout")

    # The global flags are also accepted after the subcommand; SUPPRESS keeps
    # the leaf parsers from clobbering values parsed at the top level.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
    common.add_argument("--output", metavar="PATH", default=argparse.SUPPRESS)

    def leaf(subparsers, *words: str, **kwargs) -> argparse.ArgumentParser:
        _LEAVES[words] = subparsers.add_parser(words[-1], parents=[common], **kwargs)
        return _LEAVES[words]

    sub = parser.add_subparsers(dest="command", required=True)

    code = sub.add_parser("code", help="generator-matrix analytics")
    code_sub = code.add_subparsers(dest="subcommand", required=True)
    analyze = leaf(code_sub, "code", "analyze", help="basic code statistics")
    analyze.add_argument("file")
    project = leaf(code_sub, "code", "project",
                   help="project the code onto a codeword support")
    project.add_argument("file")
    project.add_argument("--word", required=True, metavar="BITS")

    griesmer = leaf(sub, "griesmer", help="Griesmer bound calculator")
    length_or_dimension = griesmer.add_mutually_exclusive_group(required=True)
    length_or_dimension.add_argument("--n", type=int)
    length_or_dimension.add_argument("--k", type=int)
    griesmer.add_argument("--d", type=int, required=True)

    chi = leaf(sub, "chi", help="exact Euler characteristic")
    chi.add_argument("--degree", type=int, required=True)
    chi.add_argument("--twist", type=int, required=True)
    chi.add_argument("--weight", type=int, required=True)

    emin = leaf(sub, "emin", help="minimal even-set weight")
    emin.add_argument("--degree", type=int, required=True)
    emin.add_argument("--weak", action="store_true")

    gaps = leaf(sub, "gaps", help="gap certificate for one degree")
    gaps.add_argument("--degree", type=int, required=True)
    gaps.add_argument("--parity", choices=formulas.PARITIES, required=True)

    surface = sub.add_parser("surface", help="surface constraints")
    surface_sub = surface.add_subparsers(dest="subcommand", required=True)
    bounds = leaf(surface_sub, "surface", "bounds")
    bounds.add_argument("--degree", type=int, required=True)
    bounds.add_argument("--nodes", type=int, required=True)

    verify = sub.add_parser("verify", help="regression sweeps")
    verify_sub = verify.add_subparsers(dest="subcommand", required=True)
    paper = leaf(verify_sub, "verify", "paper", help="run every pinned check")
    paper.add_argument("--data-dir", metavar="PATH",
                       help="override the bundled generator-matrix files")

    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """build_parser().parse_args(argv), in one argparse pass when argv names a leaf.

    The root and mid parsers have no positional but their subcommand, which
    hands every later string to the child, so the tree's namespace for an
    argv that starts with a leaf's words is the leaf's plus what the outer
    levels set.  Any other argv, or one the leaf leaves strings over from,
    goes through the tree, so usage lines, errors and exit codes are its own.
    """
    parser = build_parser()
    words = tuple(argv[:1])
    if words not in _LEAVES:
        words = tuple(argv[:2])
    leaf = _LEAVES.get(words)
    if leaf is not None:
        namespace = argparse.Namespace(json=False, output=None, command=words[0])
        if len(words) == 2:
            namespace.subcommand = words[1]
        args, extras = leaf.parse_known_args(argv[len(words):], namespace)
        if not extras:
            return args
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    # The parsed path names both the command ("code analyze") and its handler
    # (cmd_code_analyze), looked up at call time; each cmd_* returns
    # (status, payload).
    command = " ".join(filter(None, (args.command, getattr(args, "subcommand", None))))
    try:
        status, payload = globals()["cmd_" + command.replace(" ", "_")](args)
        return _emit({"command": command, "status": status, "payload": payload}, args)
    except (ValueError, OSError, gf2.EnumerationCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
