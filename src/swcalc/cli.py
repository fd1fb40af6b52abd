"""Command line interface: parse expressions, run the calculators, emit JSON.

Exit codes: 0 on success, 1 when a construction hypothesis is violated,
2 on syntax or usage errors, 141 when the reader closes stdout early.
Every report carries the schema tag ``swcalc/1`` and all numbers are
exact (rationals serialized as strings).  JSON reports are the bytes of
``json.dumps(payload, indent=2)``.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys

# Each handler imports what it uses, so a cold start compiles only that;
# perfbench/harness.py reads sys.modules["swcalc.fixedpoint"] after importing cli.
from . import fixedpoint, lattice
from .errors import ExprSyntaxError, SwcalcError

SCHEMA = "swcalc/1"


_escape = json.encoder.encode_basestring_ascii


def _to_json(obj, pad: str = "\n") -> str:
    """``json.dumps(obj, indent=2)`` with one join per container.

    With an indent, ``json`` skips its C encoder and yields piece by piece;
    the reports are mostly integer rows, printed here by ``map(repr, row)``.
    """
    if isinstance(obj, str):
        return _escape(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [_escape(key) + ": " + _to_json(val, inner) for key, val in obj.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(obj, list):
        if not obj:
            return "[]"
        if set(map(type, obj)) == {int}:
            items = map(repr, obj)
        else:
            items = [_to_json(val, inner) for val in obj]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit(payload: dict, fmt: str):
    payload = {"schema": SCHEMA, **payload}
    if fmt == "json":
        print(_to_json(payload))
    else:
        for line in _text_lines(payload, indent=0):
            print(line)


def _text_lines(obj, indent: int):
    pad = "  " * indent
    if isinstance(obj, dict):
        for key, val in obj.items():
            if isinstance(val, (dict, list)):
                yield f"{pad}{key}:"
                yield from _text_lines(val, indent + 1)
            else:
                yield f"{pad}{key}: {val}"
    elif isinstance(obj, list):
        for val in obj:
            if isinstance(val, (dict, list)):
                yield from _text_lines(val, indent)
            else:
                yield f"{pad}- {val}"
    else:
        yield f"{pad}{obj}"


def _load_catalog(path: str | None):
    from .expressions import Catalog
    return Catalog.load(path) if path else Catalog()


def _cmd_eval(args) -> dict:
    from .expressions import ConnSum, Multiple, eval_expr, parse, render
    from .manifold import homeo_type
    from .surgery import dissolve
    catalog = _load_catalog(args.catalog)
    tree = parse(args.expression, catalog)
    descriptor = eval_expr(tree, catalog)
    payload = descriptor.to_json_dict()
    payload["expression"] = render(tree)
    if descriptor.simply_connected:
        try:
            payload["homeo_type"] = homeo_type(descriptor).to_json_dict()
        except SwcalcError as err:
            payload["homeo_type"] = {"error": str(err)}
        if isinstance(tree, (ConnSum, Multiple)):
            # dissolve expands the sum into the summands its lineage records
            payload["dissolution"] = dissolve([descriptor]).to_json_dict()
    return payload


def _cmd_family(args) -> dict:
    from . import equivariant
    name = {"k3": "k3_knot", "cp2": "cp2_knot", "s2xs2": "s2xs2_hkw"}[args.construction]
    report = equivariant.exotic_family(
        name, k=args.k, l=args.l, size=args.size, n=args.n,
        n_prime=args.n_prime, m_prime=args.m_prime, m=args.m)
    return report.to_json_dict()


def _angle_rows(pairs) -> list[dict]:
    return [{"theta": str(theta), "tuple": tup.as_strings()} for theta, tup in pairs]


def _cmd_fixedpoints(args) -> dict:
    return {
        "k": args.k,
        "solutions": _angle_rows(fixedpoint.solve_fixed_points(args.k)),
        "invariant_locus": _angle_rows(fixedpoint.invariant_locus(args.k)),
    }


def _parse_fixture(text: str) -> lattice.QuadraticForm:
    if text == "e8":
        return lattice.e8_form()
    if text.startswith("diag:"):
        rank = text[len("diag:"):]
        if not (rank.isascii() and rank.isdigit()):
            raise ExprSyntaxError(f"fixture diag:N needs a rank N >= 0, not {rank!r}")
        return lattice.diagonal_form(int(rank))
    raise ExprSyntaxError(f"unknown fixture {text!r}; use e8 or diag:N")


def _cmd_lattice(args) -> dict:
    if (args.gram is None) == (args.fixture is None):
        raise ExprSyntaxError("provide exactly one of --gram or --fixture")
    if args.fixture:
        form = _parse_fixture(args.fixture)
    else:
        try:
            rows = json.loads(args.gram)
        except json.JSONDecodeError as err:
            raise ExprSyntaxError(f"--gram is not valid JSON: {err}") from err
        try:
            form = lattice.QuadraticForm(tuple(tuple(r) for r in rows))
        except (ValueError, TypeError) as err:
            raise ExprSyntaxError(f"--gram is not an admissible form: {err}") from err
    payload: dict = {"rank": form.rank, "gram": [list(r) for r in form.gram],
                     "bound": args.bound}
    count = lattice.characteristic_count(form, args.bound)
    payload["characteristic_vectors"] = {
        "count": count,
        "vectors": ([list(v) for v in lattice.characteristic_vectors(form, args.bound)]
                    if count <= args.list_limit else None),
    }
    best = lattice.max_characteristic_square(form, args.bound)
    payload["max_characteristic_square"] = {
        "value": best.value,
        "achiever": list(best.achiever),
        "bound_limited": best.bound_limited,
    }
    if form.rank <= lattice.DIAGONALIZE_MAX_RANK:
        basis = lattice.diagonalize(form, args.depth)
        payload["diagonalize"] = {
            "found": basis is not None,
            "basis": [list(v) for v in basis] if basis else None,
        }
        spinc = lattice.spinc_from_basis(form, basis)
        payload["spinc_with_max_square"] = None if spinc is None else {
            "vector": list(spinc.vector), "square": spinc.square}
    else:
        payload["diagonalize"] = {"skipped": "rank above the search guard"}
        payload["spinc_with_max_square"] = None
    return payload


def _cmd_bf(args) -> dict:
    from . import equivariant
    from .expressions import Builtin, ConnSum, Multiple, eval_expr, parse
    catalog = _load_catalog(args.catalog)
    tree = parse(args.expression, catalog)
    factors = tree.factors if isinstance(tree, ConnSum) else (tree,)
    summand = None
    count = 0
    entry = None
    for f in factors:
        inner, mult = (f.expr, f.count) if isinstance(f, Multiple) else (f, 1)
        if isinstance(inner, Builtin) and inner.name == "hat":
            if entry is not None:
                raise ExprSyntaxError("expected exactly one summand of hat type")
            if mult != 1:
                raise ExprSyntaxError("the hat summand appears once")
            entry = equivariant.hat_s1_l([inner.arg], inner.arg, k=args.k)
        elif isinstance(inner, Builtin) and inner.name in ("S4", "CP2bar"):
            if entry is not None:
                raise ExprSyntaxError("expected exactly one catalog summand")
            if mult != 1:
                raise ExprSyntaxError("the catalog summand appears once")
            entry = equivariant.n_catalog(inner.name, k=args.k)
        else:
            desc = eval_expr(inner, catalog)
            if summand is not None and desc != summand:
                raise ExprSyntaxError(
                    "expected k copies of a single manifold plus one catalog "
                    "summand")
            summand = desc
            count += mult
    if entry is None:
        raise ExprSyntaxError(
            "expression must contain one catalog summand: hat(l), S4 or CP2bar")
    if summand is None:
        expr = equivariant.BFGAtom(entry, args.k)
    else:
        expr = equivariant.bfg_connected_sum(summand, count, entry, args.k)
    result = equivariant.bf_simplify(expr)
    return {
        "input": expr.render(),
        "normal_form": result.expr.render(),
        "verdict": result.verdict,
        "trace": list(result.trace),
    }


def _cmd_catalog(args) -> dict:
    from .expressions import PARAM_BUILTINS
    from .manifold import BUILTIN_NAMES
    catalog = _load_catalog(args.catalog)
    return {
        "builtins": [*BUILTIN_NAMES, *(f"{name}({','.join(params)})"
                                       for name, params in PARAM_BUILTINS.items())],
        "knots": {name: catalog.knots[name].render()
                  for name in catalog.knot_names()},
        "manifolds": catalog.manifold_sources,
        "catalog_kinds": ["S4", "CP2bar", "S1xLensSum", "HatS1L", "Extended"],
        "space_forms": ["Z(l) cyclic, any l >= 2", "Q(4m) binary dihedral, m >= 2",
                        "2T order 24", "2O order 48", "2I order 120"],
    }


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swcalc",
        description="Exact calculator for smooth 4-manifold invariants")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--catalog", default=None, help="path to a catalog JSON file")

    p_eval = sub.add_parser("eval", help="evaluate a manifold expression")
    p_eval.set_defaults(handler=_cmd_eval)
    p_eval.add_argument("expression")
    add_common(p_eval)

    p_family = sub.add_parser("family", help="generate an exotic action family")
    p_family.set_defaults(handler=_cmd_family)
    p_family.add_argument("--construction", choices=("k3", "cp2", "s2xs2"),
                          required=True)
    p_family.add_argument("--k", type=int, required=True)
    p_family.add_argument("--l", type=int, required=True)
    p_family.add_argument("--size", type=int, required=True)
    p_family.add_argument("--n", type=int, default=1)
    p_family.add_argument("--n-prime", type=int, default=2, dest="n_prime")
    p_family.add_argument("--m-prime", type=int, default=1, dest="m_prime")
    p_family.add_argument("--m", type=int, default=1)
    add_common(p_family)

    p_fixed = sub.add_parser("fixedpoints", help="fixed tuples of the cyclic shift")
    p_fixed.set_defaults(handler=_cmd_fixedpoints)
    p_fixed.add_argument("--k", type=int, required=True)
    add_common(p_fixed)

    p_lattice = sub.add_parser("lattice", help="definite unimodular form checks")
    p_lattice.set_defaults(handler=_cmd_lattice)
    p_lattice.add_argument("--gram", default=None,
                           help="gram matrix as a JSON array of rows")
    p_lattice.add_argument("--fixture", default=None, help="e8 or diag:N")
    p_lattice.add_argument("--bound", type=int, default=3)
    p_lattice.add_argument("--depth", type=int, default=2)
    p_lattice.add_argument("--list-limit", type=int, default=64, dest="list_limit")
    add_common(p_lattice)

    p_bf = sub.add_parser("bf", help="normalize an equivariant stable class")
    p_bf.set_defaults(handler=_cmd_bf)
    p_bf.add_argument("expression", help="k*M # N with N one of hat(l), S4, CP2bar")
    p_bf.add_argument("--k", type=int, required=True)
    add_common(p_bf)

    p_cat = sub.add_parser("catalog", help="list builtins, knots and summand kinds")
    p_cat.set_defaults(handler=_cmd_catalog)
    add_common(p_cat)

    return parser


def run_command(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    fmt = args.format
    try:
        payload = args.handler(args)
    except ExprSyntaxError as err:
        _emit({"error": {"type": "syntax", "message": str(err),
                         "position": err.position,
                         "suggestions": list(err.suggestions)}}, fmt)
        return 2
    except SwcalcError as err:
        _emit({"error": {"type": "guard", "message": str(err),
                         "requirement": getattr(err, "requirement", None)}}, fmt)
        return 1
    _emit(payload, fmt)
    return 0


def main() -> None:
    try:
        code = run_command(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left: drop the rest, exit as SIGPIPE would (128 + 13)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    main()
