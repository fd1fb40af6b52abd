"""Command line interface: parse expressions, run the calculators, emit JSON.

Exit codes: 0 on success, 1 when a construction hypothesis is violated,
2 on syntax or usage errors, 141 when the reader closes stdout early.
Every report carries the schema tag ``swcalc/1`` and all numbers are
exact (rationals serialized as strings).  JSON reports are the bytes of
``json.dumps(payload, indent=2)``, printed as pieces into one list that is
joined once; a row object repeated next to itself is printed once.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

# Each handler imports what it uses, so a cold start compiles only that;
# perfbench/harness.py reads sys.modules["swcalc.fixedpoint"] after importing cli.
from . import fixedpoint
from .errors import ExprSyntaxError, GuardViolation, SwcalcError

SCHEMA = "swcalc/1"


_escape = json.encoder.encode_basestring_ascii
_INT, _STR = frozenset({int}), frozenset({str})


def _to_json(obj) -> str:
    """``json.dumps(obj, indent=2)``, whose indent makes ``json`` skip its C
    encoder.  A row of ints or of texts is one ``map``; a list item that ``is``
    the one before it, as a manifold's zero Gram rows are, repeats its pieces."""
    out: list[str] = []
    _write(obj, "\n", out)
    return "".join(out)


def _write(obj, pad: str, out: list[str]) -> None:
    if isinstance(obj, str):
        out.append(_escape(obj))
    elif isinstance(obj, list):
        inner = pad + "  "
        types = set(map(type, obj))
        if not obj or types == _INT or types == _STR:
            text = ("," + inner).join(map(repr if types == _INT else _escape, obj))
            out.append("[" + inner + text + pad + "]" if obj else "[]")
            return
        for i, val in enumerate(obj):
            out.append("," + inner if i else "[" + inner)
            if not i or val is not obj[i - 1]:  # by identity: [1] == [True] prints apart
                pieces = []
                _write(val, inner, pieces)
            out += pieces
        out.append(pad + "]")
    elif isinstance(obj, dict):
        inner = pad + "  "
        sep = "{" + inner
        for key, val in obj.items():
            out.append(sep + _escape(key) + ": ")
            _write(val, inner, out)
            sep = "," + inner
        out.append(pad + "}" if obj else "{}")
    elif obj is None or isinstance(obj, bool):
        out.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit(payload: dict, fmt: str):
    payload = {"schema": SCHEMA, **payload}
    if fmt == "json":
        print(_to_json(payload))
    else:
        for line in _text_lines(payload, indent=0):
            print(line)


def _text_lines(obj, indent: int):
    """A dict's items as ``key: value`` lines and a list's as ``- value`` lines; a
    container value goes on the lines below its key or its own ``-``, indented."""
    pad = "  " * indent
    marked = ((f"{key}:", val) for key, val in obj.items()) if isinstance(obj, dict) \
        else (("-", val) for val in obj)
    for mark, val in marked:
        if isinstance(val, (dict, list)):
            yield pad + mark
            yield from _text_lines(val, indent + 1)
        else:
            yield f"{pad}{mark} {val}"


def _load_catalog(path: str | None):
    from .expressions import Catalog
    return Catalog.load(path) if path else Catalog()


def _cmd_eval(args) -> dict:
    from .expressions import ConnSum, eval_expr, parse, render
    from .manifold import homeo_type
    from .surgery import dissolve
    catalog = _load_catalog(args.catalog)
    tree = parse(args.expression, catalog)
    descriptor = eval_expr(tree, catalog)
    payload = descriptor.to_json_dict()
    payload["expression"] = render(tree)
    if descriptor.simply_connected:
        payload["homeo_type"] = homeo_type(descriptor).to_json_dict()
        if isinstance(tree, ConnSum):
            # dissolve reads the sum as the leaf runs its lineage records
            payload["dissolution"] = dissolve([descriptor]).to_json_dict()
    return payload


def _cmd_family(args) -> dict:
    from . import equivariant
    name = {"k3": "k3_knot", "cp2": "cp2_knot", "s2xs2": "s2xs2_hkw"}[args.construction]
    hat = equivariant.hat_s1_l([args.l], args.l, k=args.k)
    return equivariant.exotic_family(name, hat, args.size, n=args.n,
                                     n_prime=args.n_prime, m_prime=args.m_prime, m=args.m)


def _cmd_fixedpoints(args) -> dict:
    k = args.k
    solutions = fixedpoint.solve_fixed_points(k)
    # every angle is some j/k, the theta of solution j: format each once, reduced
    texts = ["0"] + [f"{j // (g := math.gcd(j, k))}/{k // g}" for j in range(1, k)]

    def rows(pairs):
        return [{"theta": texts[j], "tuple": list(map(texts.__getitem__, row))}
                for j, row in pairs]
    return {"k": k, "solutions": rows(solutions),
            "invariant_locus": rows(fixedpoint.invariant_locus(k))}


def _parse_fixture(text: str):
    from . import lattice
    if text == "e8":
        return lattice.e8_form()
    if text.startswith("diag:"):
        rank = text[len("diag:"):]
        if not (rank.isascii() and rank.isdigit()):
            raise ExprSyntaxError(f"fixture diag:N needs a rank N >= 0, not {rank!r}")
        return lattice.diagonal_form(int(rank))
    raise ExprSyntaxError(f"unknown fixture {text!r}; use e8 or diag:N")


def _cmd_lattice(args) -> dict:
    from . import lattice
    if (args.gram is None) == (args.fixture is None):
        raise ExprSyntaxError("provide exactly one of --gram or --fixture")
    if args.fixture is not None:
        form = _parse_fixture(args.fixture)
    else:
        try:
            rows = json.loads(args.gram)
        except json.JSONDecodeError as err:
            raise ExprSyntaxError(f"--gram is not valid JSON: {err}") from err
        if not (isinstance(rows, list) and all(isinstance(r, list) for r in rows)):
            raise ExprSyntaxError("--gram must be a JSON array of rows")
        try:
            form = lattice.QuadraticForm(tuple(map(tuple, rows)))
        except ValueError as err:
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
            "vector": list(spinc), "square": -form.rank}
    else:
        payload["diagonalize"] = {"skipped": "rank above the search guard"}
        payload["spinc_with_max_square"] = None
    return payload


def _cmd_bf(args) -> dict:
    from . import equivariant
    from .expressions import Builtin, ConnSum, eval_expr, parse
    catalog = _load_catalog(args.catalog)
    tree = parse(args.expression, catalog)
    summand = None
    count = 0
    entry = None
    for mult, inner in tree.runs if isinstance(tree, ConnSum) else [(1, tree)]:
        if isinstance(inner, Builtin) and inner.name in ("hat", "S4", "CP2bar"):
            if entry is not None:
                raise ExprSyntaxError("expected exactly one catalog summand")
            if mult != 1:
                raise ExprSyntaxError("the catalog summand appears once")
            if inner.name == "hat":
                entry = equivariant.hat_s1_l([inner.arg], inner.arg, k=args.k)
            else:
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
    if summand is not None and count != entry.k:  # the expression's k and --k
        raise GuardViolation(
            f"the equivariant class needs exactly k = {entry.k} copies of the "
            f"summand, got {count}",
            requirement="k summands of M")
    return equivariant.bf_simplify(entry, summand)


def _cmd_catalog(args) -> dict:
    from .expressions import PARAM_BUILTINS
    from .manifold import BUILTIN_NAMES
    catalog = _load_catalog(args.catalog)
    return {
        "builtins": [*BUILTIN_NAMES, *(f"{name}({','.join(params)})"
                                       for name, params in PARAM_BUILTINS.items())],
        "knots": {name: catalog.knots[name].render()
                  for name in sorted(catalog.knots)},
        "manifolds": catalog.manifold_sources,
        "catalog_kinds": ["S4", "CP2bar", "HatS1L"],
        "space_forms": ["Z(l) cyclic, any l >= 2", "Q(4m) binary dihedral, m >= 2",
                        "2T order 24", "2O order 48", "2I order 120"],
    }


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swcalc",
        description="Exact calculator for smooth 4-manifold invariants")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a manifold expression")
    p_eval.set_defaults(handler=_cmd_eval)
    p_eval.add_argument("expression")

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

    p_fixed = sub.add_parser("fixedpoints", help="fixed tuples of the cyclic shift")
    p_fixed.set_defaults(handler=_cmd_fixedpoints)
    p_fixed.add_argument("--k", type=int, required=True)

    p_lattice = sub.add_parser("lattice", help="definite unimodular form checks")
    p_lattice.set_defaults(handler=_cmd_lattice)
    p_lattice.add_argument("--gram", default=None,
                           help="gram matrix as a JSON array of rows")
    p_lattice.add_argument("--fixture", default=None, help="e8 or diag:N")
    p_lattice.add_argument("--bound", type=int, default=3)
    p_lattice.add_argument("--depth", type=int, default=2)
    p_lattice.add_argument("--list-limit", type=int, default=64, dest="list_limit")

    p_bf = sub.add_parser("bf", help="normalize an equivariant stable class")
    p_bf.set_defaults(handler=_cmd_bf)
    p_bf.add_argument("expression", help="k*M # N with N one of hat(l), S4, CP2bar")
    p_bf.add_argument("--k", type=int, required=True)

    p_cat = sub.add_parser("catalog", help="list builtins, knots and summand kinds")
    p_cat.set_defaults(handler=_cmd_catalog)

    for name, p in sub.choices.items():
        p.add_argument("--format", choices=("json", "text"), default="json")
        if name in ("eval", "bf", "catalog"):  # the handlers that load a catalog
            p.add_argument("--catalog", default=None, help="path to a catalog JSON file")
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
