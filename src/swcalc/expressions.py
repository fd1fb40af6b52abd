"""Expression language for manifold constructions.

Grammar (whitespace-insensitive, decimal integer literals):

    expr    := term ('#' term)*
    term    := [INT '*'] atom
    atom    := NAME
             | NAME '(' INT (',' INT)* ')'
             | 'knot_surgery' '(' expr ',' knotref ')'
             | 'logtx' '(' INT ',' INT ')'
             | 'blowup' '(' expr ',' INT ')'
             | '~' atom
    knotref := NAME | NAME '(' INT (',' INT)* ')'

Atoms name standard manifolds (S4, CP2, CP2bar, S2xS2, K3, S1xS3, E(n),
hat(l)) or entries of a loaded catalog; knot references name catalog
knots or inline constructors torus(p,q) and family(d,n).
"""
from __future__ import annotations

import difflib
import json
from dataclasses import dataclass
from pathlib import Path

from .errors import ExprSyntaxError, GuardViolation
from .groupring import laurent
from .knot import AlexanderPoly, alexander_family, torus_knot, unknot, validate
from .manifold import BUILTIN_NAMES, ManifoldDescriptor, builtin, reverse_orientation
from .surgery import blowup, connected_sum_all, knot_surgery, log_transform

# ----- AST -----


@dataclass(frozen=True)
class Builtin:
    name: str
    arg: int | None = None


@dataclass(frozen=True)
class ConnSum:
    factors: tuple


@dataclass(frozen=True)
class Multiple:
    count: int
    expr: "Expr"


@dataclass(frozen=True)
class KnotRef:
    name: str
    args: tuple[int, ...] = ()


@dataclass(frozen=True)
class KnotSurgery:
    expr: "Expr"
    knot: KnotRef


@dataclass(frozen=True)
class LogTransform:
    two_n: int
    r: int


@dataclass(frozen=True)
class Blowup:
    expr: "Expr"
    m: int


@dataclass(frozen=True)
class Reverse:
    expr: "Expr"


Expr = Builtin | ConnSum | Multiple | KnotSurgery | LogTransform | Blowup | Reverse


def render(e: Expr) -> str:
    """Canonical text form; parse(render(parse(s))) == parse(s)."""
    if isinstance(e, Builtin):
        return e.name if e.arg is None else f"{e.name}({e.arg})"
    if isinstance(e, ConnSum):
        return " # ".join(render(f) for f in e.factors)
    if isinstance(e, Multiple):
        return f"{e.count}*{render(e.expr)}"
    if isinstance(e, KnotSurgery):
        return f"knot_surgery({render(e.expr)}, {render_knotref(e.knot)})"
    if isinstance(e, LogTransform):
        return f"logtx({e.two_n},{e.r})"
    if isinstance(e, Blowup):
        return f"blowup({render(e.expr)},{e.m})"
    if isinstance(e, Reverse):
        return f"~{render(e.expr)}"
    raise TypeError(f"not an expression node: {e!r}")


def render_knotref(k: KnotRef) -> str:
    if not k.args:
        return k.name
    return f"{k.name}({','.join(str(a) for a in k.args)})"


# ----- tokenizer -----

_SYMBOLS = "#*(),~"


@dataclass(frozen=True)
class _Token:
    kind: str  # NAME | INT | one of the symbol characters | EOF
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _SYMBOLS:
            out.append(_Token(c, c, i))
            i += 1
            continue
        if c.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            out.append(_Token("INT", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(_Token("NAME", text[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", position=i)
    out.append(_Token("EOF", "", n))
    return out


# ----- knot catalog -----

# parameterised builtins and the names of their parameters
PARAM_BUILTINS = {"E": ("n",), "hat": ("l",)}
# inline knot constructors: name -> (arity, constructor); the lambdas look the
# functions up when called, so wrappers later bound to those names see the calls
_KNOT_CONSTRUCTORS = {
    "torus": (2, lambda p, q: torus_knot(p, q)),
    "family": (2, lambda d, n: alexander_family(d, n)),
    "unknot": (0, lambda: unknot()),
}


class Catalog:
    """Named knots and named manifold expressions.

    A catalog file is JSON with optional ``knots`` and ``manifolds``
    maps.  Knot entries are either constructor strings like
    ``"torus(2,3)"`` or objects ``{"coeffs": {"-1": 1, "0": -1, "1": 1}}``
    with explicit exponent/coefficient pairs.  Manifold entries are
    expression strings evaluated on demand.
    """

    def __init__(self):
        self.knots: dict[str, AlexanderPoly] = {
            "unknot": unknot(),
            "trefoil": torus_knot(2, 3),
        }
        self.manifold_sources: dict[str, str] = {}

    @classmethod
    def load(cls, path: str | Path) -> "Catalog":
        cat = cls()
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, ValueError) as err:
            raise ExprSyntaxError(f"catalog file is not readable JSON: {err}") from err
        knots, manifolds = (data.get(key, {}) if isinstance(data, dict) else None
                            for key in ("knots", "manifolds"))
        if not (isinstance(knots, dict) and isinstance(manifolds, dict)):
            raise GuardViolation("a catalog must be a JSON object whose knots and "
                                 "manifolds are objects")
        for name, entry in knots.items():
            if isinstance(entry, str):
                ref = _parse_all(entry, None, _Parser._knotref)
                cat.knots[name] = _resolve_knot_constructor(ref, cat)
            elif isinstance(entry, dict) and isinstance(entry.get("coeffs"), dict) and all(
                    e.removeprefix("-").isdecimal() and type(c) is int
                    for e, c in entry["coeffs"].items()):
                coeffs = {int(e): c for e, c in entry["coeffs"].items()}
                cat.knots[name] = validate(laurent(coeffs), name=name)
            else:
                raise GuardViolation(
                    f"knot entry {name!r} must be a constructor string or a "
                    "coeffs object of integers")
        for name, source in manifolds.items():
            if not isinstance(source, str):
                raise GuardViolation(f"manifold entry {name!r} must be an "
                                     "expression string")
            cat.manifold_sources[name] = source
        return cat

    def knot_names(self) -> list[str]:
        return sorted(self.knots)

    def manifold_names(self) -> list[str]:
        return sorted(self.manifold_sources)


def _resolve_knot_constructor(ref: KnotRef, catalog: Catalog | None) -> AlexanderPoly:
    if ref.name in _KNOT_CONSTRUCTORS:
        return _KNOT_CONSTRUCTORS[ref.name][1](*ref.args)
    if catalog is not None and ref.name in catalog.knots:
        if ref.args:
            raise GuardViolation(f"named knot {ref.name!r} takes no arguments")
        return catalog.knots[ref.name]
    known = list(_KNOT_CONSTRUCTORS) + (catalog.knot_names() if catalog else [])
    hints = difflib.get_close_matches(ref.name, known, n=3)
    raise ExprSyntaxError(
        f"unknown knot {ref.name!r}" + (f"; did you mean {hints}?" if hints else ""),
        suggestions=tuple(hints))


# ----- parser -----

class _Parser:
    def __init__(self, tokens: list[_Token], catalog: Catalog | None):
        self.tokens = tokens
        self.i = 0
        self.catalog = catalog

    def _peek(self) -> _Token:
        return self.tokens[self.i]

    def _next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def _expect(self, kind: str) -> _Token:
        tok = self._peek()
        if tok.kind != kind:
            raise ExprSyntaxError(
                f"expected {kind} but found {tok.text or 'end of input'!r}",
                position=tok.pos)
        return self._next()

    def _int(self) -> int:
        return int(self._expect("INT").text)

    def _args(self) -> tuple[int, ...]:
        """An optional argument list '(' INT (',' INT)* ')'."""
        if self._peek().kind != "(":
            return ()
        self._next()
        vals = [self._int()]
        while self._peek().kind == ",":
            self._next()
            vals.append(self._int())
        self._expect(")")
        return tuple(vals)

    def expr(self) -> Expr:
        factors = [self.term()]
        while self._peek().kind == "#":
            self._next()
            factors.append(self.term())
        if len(factors) == 1:
            return factors[0]
        return ConnSum(tuple(factors))

    def term(self) -> Expr:
        if self._peek().kind == "INT":
            count_tok = self._next()
            count = int(count_tok.text)
            if count < 1:
                raise ExprSyntaxError("multiplicities must be at least 1",
                                      position=count_tok.pos)
            self._expect("*")
            atom = self.atom()
            return atom if count == 1 else Multiple(count, atom)
        return self.atom()

    def atom(self) -> Expr:
        tok = self._peek()
        if tok.kind == "~":
            self._next()
            return Reverse(self.atom())
        if tok.kind != "NAME":
            raise ExprSyntaxError(
                f"expected a manifold name but found {tok.text or 'end of input'!r}",
                position=tok.pos)
        name_tok = self._next()
        name = name_tok.text
        if name in _KEYWORDS:
            node, first, second = _KEYWORDS[name]
            self._expect("(")
            a = first(self)
            self._expect(",")
            b = second(self)
            self._expect(")")
            return node(a, b)
        args = self._args()
        self._check_manifold_name(name, args, name_tok.pos)
        return Builtin(name, args[0] if args else None)

    def _check_manifold_name(self, name: str, args: tuple[int, ...], pos: int):
        if name in PARAM_BUILTINS:
            arity = len(PARAM_BUILTINS[name])
            if len(args) != arity:
                raise ExprSyntaxError(f"{name} takes {arity} argument(s)", position=pos)
            return
        if name in BUILTIN_NAMES:
            if args:
                raise ExprSyntaxError(f"{name} takes no arguments", position=pos)
            return
        if self.catalog is not None and name in self.catalog.manifold_sources:
            if args:
                raise ExprSyntaxError(f"catalog entry {name} takes no arguments",
                                      position=pos)
            return
        universe = list(BUILTIN_NAMES) + list(PARAM_BUILTINS) + list(_KEYWORDS)
        if self.catalog is not None:
            universe += self.catalog.manifold_names()
        hints = difflib.get_close_matches(name, universe, n=3)
        raise ExprSyntaxError(
            f"unknown manifold {name!r}" +
            (f"; did you mean {hints}?" if hints else ""),
            position=pos, suggestions=tuple(hints))

    def _knotref(self) -> KnotRef:
        tok = self._expect("NAME")
        args = self._args()
        if tok.text in _KNOT_CONSTRUCTORS:
            arity = _KNOT_CONSTRUCTORS[tok.text][0]
            if len(args) != arity:
                raise ExprSyntaxError(f"{tok.text} takes {arity} argument(s)",
                                      position=tok.pos)
        return KnotRef(tok.text, args)


# keyword -> (node, parser of its first argument, parser of its second)
_KEYWORDS = {
    "knot_surgery": (KnotSurgery, _Parser.expr, _Parser._knotref),
    "logtx": (LogTransform, _Parser._int, _Parser._int),
    "blowup": (Blowup, _Parser.expr, _Parser._int),
}


def parse(text: str, catalog: Catalog | None = None) -> Expr:
    """Parse an expression, validating names against the catalog."""
    return _parse_all(text, catalog, _Parser.expr)


def _parse_all(text: str, catalog: Catalog | None, rule) -> Expr | KnotRef:
    """Parse the whole text with one grammar rule."""
    parser = _Parser(_tokenize(text), catalog)
    tree = rule(parser)
    parser._expect("EOF")
    return tree


# ----- evaluation -----

_default_catalog: Catalog | None = None


def default_catalog() -> Catalog:
    global _default_catalog
    if _default_catalog is None:
        _default_catalog = Catalog()
    return _default_catalog


def eval_expr(e: Expr, catalog: Catalog | None = None,
              _stack: tuple[str, ...] = ()) -> ManifoldDescriptor:
    """Evaluate an expression tree to a manifold descriptor."""
    if catalog is None:
        catalog = default_catalog()
    if isinstance(e, Builtin):
        if e.name == "hat":
            from .equivariant import hat_s1_l  # only hat(l) needs the transfer stack
            return hat_s1_l([e.arg], e.arg).descriptor
        if e.name in BUILTIN_NAMES or e.name == "E":
            return builtin(e.name, e.arg)
        if catalog is not None and e.name in catalog.manifold_sources:
            if e.name in _stack:
                raise GuardViolation(
                    f"catalog entry {e.name!r} refers to itself")
            sub = parse(catalog.manifold_sources[e.name], catalog)
            return eval_expr(sub, catalog, _stack + (e.name,))
        raise GuardViolation(f"unknown manifold {e.name!r}")
    if isinstance(e, ConnSum):
        return connected_sum_all([eval_expr(f, catalog, _stack) for f in e.factors])
    if isinstance(e, Multiple):
        return connected_sum_all([eval_expr(e.expr, catalog, _stack)] * e.count)
    if isinstance(e, KnotSurgery):
        base = eval_expr(e.expr, catalog, _stack)
        return knot_surgery(base, _resolve_knot_constructor(e.knot, catalog))
    if isinstance(e, LogTransform):
        return log_transform(e.two_n, e.r)
    if isinstance(e, Blowup):
        return blowup(eval_expr(e.expr, catalog, _stack), e.m)
    if isinstance(e, Reverse):
        return reverse_orientation(eval_expr(e.expr, catalog, _stack))
    raise TypeError(f"not an expression node: {e!r}")


def expression_factors(e: Expr, catalog: Catalog | None = None
                       ) -> list[ManifoldDescriptor]:
    """Top-level connected-sum factors, multiplicities expanded."""
    if isinstance(e, ConnSum):
        out: list[ManifoldDescriptor] = []
        for f in e.factors:
            out.extend(expression_factors(f, catalog))
        return out
    if isinstance(e, Multiple):
        piece = eval_expr(e.expr, catalog)
        return [piece] * e.count
    return [eval_expr(e, catalog)]
