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

import contextlib
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

# the most levels open at once: each '~', each knot_surgery( or blowup( whose
# argument is open, and each catalog entry, which opens one more than its text
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
# builtin name -> number of arguments, for atoms and for knot references; a
# catalog's own names take none, and a keyword is parsed before any check
_ARITIES = {
    "manifold": {**dict.fromkeys(BUILTIN_NAMES, 0),
                 **{name: len(params) for name, params in PARAM_BUILTINS.items()}},
    "knot": {name: arity for name, (arity, _) in _KNOT_CONSTRUCTORS.items()},
}
# the knots every catalog starts with, built once: each catalog copies the table
_NAMED_KNOTS = {"unknot": unknot(), "trefoil": torus_knot(2, 3)}


class Catalog:
    """Named knots and named manifold expressions.

    A catalog file is JSON with optional ``knots`` and ``manifolds``
    maps.  Knot entries are either constructor strings like
    ``"torus(2,3)"`` or objects ``{"coeffs": {"-1": 1, "0": -1, "1": 1}}``
    with explicit exponent/coefficient pairs.  Manifold entries are
    expression strings, each parsed once by ``load`` and evaluated once.
    """

    def __init__(self):
        self.knots: dict[str, AlexanderPoly] = dict(_NAMED_KNOTS)
        self.manifold_sources: dict[str, str] = {}
        self.trees: dict[str, tuple[Expr, int]] = {}  # entry -> (tree, levels it opens)
        self.values: dict[str, ManifoldDescriptor] = {}

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
        for name in (*knots, *manifolds):  # each one NAME token, or no expression can name it
            with contextlib.suppress(ExprSyntaxError):
                if _tokenize(name)[0] == _Token("NAME", name, 0):
                    continue
            raise GuardViolation(f"catalog entry name {name!r} is not a name of the grammar")
        reserved = sorted(knots.keys() & _ARITIES["knot"].keys()
                          | manifolds.keys() & {*_ARITIES["manifold"], *_KEYWORDS})
        if reserved:
            raise GuardViolation(f"catalog entries may not take the builtin names {reserved}")
        for name, entry in knots.items():
            if isinstance(entry, str):
                ref = _Parser(entry, cat).whole(_Parser._knotref)
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
                raise GuardViolation(f"manifold entry {name!r} must be an expression string")
        cat.manifold_sources.update(manifolds)  # every name first: an entry may name a later one
        for name in manifolds:
            parse(name, cat)  # parses the entry, and each entry it names, once
        return cat


def _resolve_knot_constructor(ref: KnotRef, catalog: Catalog) -> AlexanderPoly:
    if ref.name in _KNOT_CONSTRUCTORS:
        return _KNOT_CONSTRUCTORS[ref.name][1](*ref.args)
    if ref.name not in catalog.knots:
        raise GuardViolation(f"unknown knot {ref.name!r}")
    return catalog.knots[ref.name]


# ----- parser -----

class _Parser:
    def __init__(self, text: str, catalog: Catalog, depth: int = 0, path: tuple = ()):
        self.tokens = _tokenize(text)
        self.i = 0
        self.catalog = catalog
        self.depth = self.peak = depth  # nesting levels open at the current token; the most yet
        self.path = path  # the catalog entries whose text this is, outermost first

    def whole(self, rule):
        tree = rule(self)
        self._expect("EOF")
        return tree

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

    def _open(self, tok: _Token, levels: int) -> None:
        """Record ``levels`` levels opened at ``tok``, refusing any past the bound."""
        if self.depth + levels > MAX_NESTING:
            raise ExprSyntaxError(f"nesting deeper than {MAX_NESTING} levels", position=tok.pos)
        self.peak = max(self.peak, self.depth + levels)

    def _nested(self, tok: _Token, rule):
        """Parse one nesting level, opened by ``tok``, with ``rule``."""
        self._open(tok, 1)
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
        args = self._checked_args(name_tok, "manifold")
        if name in self.catalog.manifold_sources:
            self._open(name_tok, self._entry_levels(name_tok))
        return Builtin(name, args[0] if args else None)

    def _entry_levels(self, tok: _Token) -> int:
        """The levels the catalog entry ``tok`` opens, itself included.  Its text is
        parsed from the depth it is first named at, so the bound fires before Python's."""
        name, cat = tok.text, self.catalog
        if name in self.path:
            cycle = " -> ".join(self.path[self.path.index(name):] + (name,))
            raise GuardViolation(f"catalog entries form a cycle: {cycle}")
        if name not in cat.trees:
            self._open(tok, 1)
            try:
                sub = _Parser(cat.manifold_sources[name], cat, self.depth + 1, self.path + (name,))
                cat.trees[name] = sub.whole(_Parser.expr), sub.peak - self.depth
            except ExprSyntaxError as err:
                if err.__cause__:  # named already, by the entry whose text holds it
                    raise
                raise ExprSyntaxError(f"in catalog entry {name}: {err}", err.position,
                                      err.suggestions) from err
        return cat.trees[name][1]

    def _checked_args(self, tok: _Token, kind: str) -> tuple[int, ...]:
        """The arguments after the NAME ``tok`` of a ``kind`` ("manifold" or "knot"):
        as many as the builtin of that name takes, or none for a catalog's own name."""
        args, name, builtins = self._args(), tok.text, _ARITIES[kind]
        own = self.catalog.knots if kind == "knot" else self.catalog.manifold_sources
        arity = builtins.get(name, 0 if name in own else None)
        if arity == len(args):
            return args
        hints = []
        if arity is None:
            extra = _KEYWORDS.keys() if kind == "manifold" else set()
            hints = difflib.get_close_matches(name, builtins.keys() | own.keys() | extra, n=3)
            message = f"unknown {kind} {name!r}" + (f"; did you mean {hints}?" if hints else "")
        else:
            label = (name if name in builtins else f"named knot {name!r}" if kind == "knot"
                     else f"catalog entry {name}")
            message = f"{label} takes " + (f"{arity} argument(s)" if arity else "no arguments")
        raise ExprSyntaxError(message, position=tok.pos, suggestions=tuple(hints))

    def _knotref(self) -> KnotRef:
        tok = self._expect("NAME")
        return KnotRef(tok.text, self._checked_args(tok, "knot"))


# keyword -> (node, parser of its first argument, parser of its second)
_KEYWORDS = {
    "knot_surgery": (KnotSurgery, _Parser.expr, _Parser._knotref),
    "logtx": (LogTransform, _Parser._int, _Parser._int),
    "blowup": (Blowup, _Parser.expr, _Parser._int),
}


def parse(text: str, catalog: Catalog | None = None) -> Expr:
    """Parse an expression, validating names against the catalog."""
    return _Parser(text, Catalog() if catalog is None else catalog).whole(_Parser.expr)


# ----- evaluation -----

def eval_expr(e: Expr, catalog: Catalog | None = None) -> ManifoldDescriptor:
    """Evaluate an expression tree to a manifold descriptor, each catalog entry once."""
    catalog = Catalog() if catalog is None else catalog
    if isinstance(e, Builtin):
        if e.name == "hat":
            from .equivariant import hat_s1_l  # only hat(l) needs the transfer stack
            return hat_s1_l([e.arg], e.arg).descriptor
        if e.name in BUILTIN_NAMES or e.name == "E":
            return builtin(e.name, e.arg)
        if e.name in catalog.trees:
            if e.name not in catalog.values:
                catalog.values[e.name] = eval_expr(catalog.trees[e.name][0], catalog)
            return catalog.values[e.name]
        raise GuardViolation(f"unknown manifold {e.name!r}")
    if isinstance(e, ConnSum):
        counts, atoms = zip(*e.runs)
        return connected_sum_all([eval_expr(f, catalog) for f in atoms], counts)
    if isinstance(e, KnotSurgery):
        return knot_surgery(eval_expr(e.expr, catalog), _resolve_knot_constructor(e.knot, catalog))
    if isinstance(e, LogTransform):
        return log_transform(e.two_n, e.r)
    if isinstance(e, Blowup):
        return blowup(eval_expr(e.expr, catalog), e.m)
    if isinstance(e, Reverse):
        return reverse_orientation(eval_expr(e.expr, catalog))
    raise TypeError(f"not an expression node: {e!r}")
