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
import re
from dataclasses import dataclass
from pathlib import Path

from .errors import ExprSyntaxError, GuardViolation
from .groupring import laurent
from .knot import AlexanderPoly, alexander_family, torus_knot, unknot, validate
from .manifold import BUILTIN_NAMES, ManifoldDescriptor, builtin, reverse_orientation
from .surgery import blowup, connected_sum_all, knot_surgery, log_transform

# the most open '~', knot_surgery( and blowup( levels, counted together with the
# catalog entries on one path of an evaluation
MAX_NESTING = 100

# ----- AST -----


@dataclass(frozen=True)
class Builtin:
    name: str
    arg: int | None = None


@dataclass(frozen=True)
class ConnSum:
    runs: tuple  # (count >= 1, atom) pairs in source order


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


Expr = Builtin | ConnSum | KnotSurgery | LogTransform | Blowup | Reverse


def render(e: Expr) -> str:
    """Canonical text form; parse(render(parse(s))) == parse(s)."""
    if isinstance(e, Builtin):
        return e.name if e.arg is None else f"{e.name}({e.arg})"
    if isinstance(e, ConnSum):
        return " # ".join(render(f) if c == 1 else f"{c}*{render(f)}" for c, f in e.runs)
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

# an INT, a word, a symbol, or whitespace, matched from each position in turn
_TOKEN = re.compile(r"(\d+)|(\w+)|([#*(),~])|\s+")


@dataclass(frozen=True)
class _Token:
    kind: str  # NAME | INT | one of the symbol characters | EOF
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    out = []
    i = 0
    while i < len(text):
        match = _TOKEN.match(text, i)
        # a NAME starts with a letter or _: a word led by ² or ½ is refused there
        if match is None or match.lastindex == 2 and not (text[i].isalpha() or text[i] == "_"):
            raise ExprSyntaxError(f"unexpected character {text[i]!r}", position=i)
        if match.lastindex:
            out.append(_Token(("INT", "NAME", match[0])[match.lastindex - 1], match[0], i))
        i = match.end()
    out.append(_Token("EOF", "", len(text)))
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
        reserved = sorted(knots.keys() & _KNOT_CONSTRUCTORS.keys()
                          | manifolds.keys() & {*BUILTIN_NAMES, *PARAM_BUILTINS, *_KEYWORDS})
        if reserved:
            raise GuardViolation(f"catalog entries may not take the builtin names {reserved}")
        for name, entry in knots.items():
            if isinstance(entry, str):
                ref = _parse_all(entry, cat, _Parser._knotref)
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


def _resolve_knot_constructor(ref: KnotRef, catalog: Catalog) -> AlexanderPoly:
    if ref.name in _KNOT_CONSTRUCTORS:
        return _KNOT_CONSTRUCTORS[ref.name][1](*ref.args)
    if ref.name in catalog.knots:
        if ref.args:
            raise GuardViolation(f"named knot {ref.name!r} takes no arguments")
        return catalog.knots[ref.name]
    known = list(_KNOT_CONSTRUCTORS) + sorted(catalog.knots)
    hints = difflib.get_close_matches(ref.name, known, n=3)
    raise ExprSyntaxError(
        f"unknown knot {ref.name!r}" + (f"; did you mean {hints}?" if hints else ""),
        suggestions=tuple(hints))


# ----- parser -----

class _Parser:
    def __init__(self, tokens: list[_Token], catalog: Catalog):
        self.tokens = tokens
        self.i = 0
        self.catalog = catalog
        self.depth = 0  # nesting levels open at the current token

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
        runs = [self.term()]
        while self._peek().kind == "#":
            self._next()
            runs.append(self.term())
        return runs[0][1] if len(runs) == 1 and runs[0][0] == 1 else ConnSum(tuple(runs))

    def term(self) -> tuple[int, Expr]:
        if self._peek().kind != "INT":
            return 1, self.atom()
        count_tok = self._next()
        count = int(count_tok.text)
        if count < 1:
            raise ExprSyntaxError("multiplicities must be at least 1",
                                  position=count_tok.pos)
        self._expect("*")
        return count, self.atom()

    def _nested(self, tok: _Token, rule):
        """Parse one nesting level, opened by ``tok``, with ``rule``."""
        if self.depth == MAX_NESTING:
            raise ExprSyntaxError(f"nesting deeper than {MAX_NESTING} levels",
                                  position=tok.pos)
        self.depth += 1
        tree = rule(self)
        self.depth -= 1
        return tree

    def atom(self) -> Expr:
        tok = self._peek()
        if tok.kind == "~":
            self._next()
            return Reverse(self._nested(tok, _Parser.atom))
        if tok.kind != "NAME":
            raise ExprSyntaxError(
                f"expected a manifold name but found {tok.text or 'end of input'!r}",
                position=tok.pos)
        name_tok = self._next()
        name = name_tok.text
        if name in _KEYWORDS:
            node, first, second = _KEYWORDS[name]
            self._expect("(")
            a = self._nested(name_tok, first) if first is _Parser.expr else first(self)
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
        if name in self.catalog.manifold_sources:
            if args:
                raise ExprSyntaxError(f"catalog entry {name} takes no arguments",
                                      position=pos)
            return
        universe = (list(BUILTIN_NAMES) + list(PARAM_BUILTINS) + list(_KEYWORDS)
                    + sorted(self.catalog.manifold_sources))
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
    return _parse_all(text, Catalog() if catalog is None else catalog, _Parser.expr)


def _parse_all(text: str, catalog: Catalog, rule) -> Expr | KnotRef:
    """Parse the whole text with one grammar rule."""
    parser = _Parser(_tokenize(text), catalog)
    tree = rule(parser)
    parser._expect("EOF")
    return tree


# ----- evaluation -----

def eval_expr(e: Expr, catalog: Catalog | None = None, _stack: tuple[str, ...] = (),
              _level: int = 0, _done: dict | None = None) -> ManifoldDescriptor:
    """Evaluate an expression tree to a manifold descriptor.

    ``_stack`` names the catalog entries above ``e``; ``_level`` counts them
    and the ``~``, ``knot_surgery`` and ``blowup`` nodes above ``e``.
    ``_done`` keeps each catalog entry's value by (entry, level) for one
    top-level call: the level decides whether the bound refuses it."""
    if _level > MAX_NESTING:
        raise GuardViolation(f"expressions and catalog entries nest deeper than "
                             f"{MAX_NESTING} levels")
    catalog = Catalog() if catalog is None else catalog
    _done = {} if _done is None else _done
    if isinstance(e, Builtin):
        if e.name == "hat":
            from .equivariant import hat_s1_l  # only hat(l) needs the transfer stack
            return hat_s1_l([e.arg], e.arg).descriptor
        if e.name in BUILTIN_NAMES or e.name == "E":
            return builtin(e.name, e.arg)
        if e.name in catalog.manifold_sources:
            if e.name in _stack:
                raise GuardViolation(
                    f"catalog entry {e.name!r} refers to itself")
            key = (e.name, _level)
            if key not in _done:
                sub = parse(catalog.manifold_sources[e.name], catalog)
                _done[key] = eval_expr(sub, catalog, _stack + (e.name,), _level + 1, _done)
            return _done[key]
        raise GuardViolation(f"unknown manifold {e.name!r}")
    if isinstance(e, ConnSum):
        counts, atoms = zip(*e.runs)
        return connected_sum_all([eval_expr(f, catalog, _stack, _level, _done)
                                  for f in atoms], counts)
    if isinstance(e, KnotSurgery):
        base = eval_expr(e.expr, catalog, _stack, _level + 1, _done)
        return knot_surgery(base, _resolve_knot_constructor(e.knot, catalog))
    if isinstance(e, LogTransform):
        return log_transform(e.two_n, e.r)
    if isinstance(e, Blowup):
        return blowup(eval_expr(e.expr, catalog, _stack, _level + 1, _done), e.m)
    if isinstance(e, Reverse):
        return reverse_orientation(eval_expr(e.expr, catalog, _stack, _level + 1, _done))
    raise TypeError(f"not an expression node: {e!r}")
