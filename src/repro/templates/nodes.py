"""Parsed template node tree and expression evaluation."""

from __future__ import annotations

import re
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.templates.context import MISSING, Context
from repro.templates.errors import TemplateRenderError, TemplateSyntaxError
from repro.templates.filters import FILTERS

# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------

_NUMBER_RE = re.compile(r"^-?\d+(\.\d+)?$")
_VARIABLE_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z0-9_]+)*$")
_KEYWORD_LITERALS = {"True": True, "False": False, "None": None}


def _split_respecting_quotes(text: str, separator: str) -> List[str]:
    """Split on a single-character separator, ignoring quoted regions."""
    parts: List[str] = []
    current = ""
    quote = None
    for ch in text:
        if quote:
            current += ch
            if ch == quote:
                quote = None
        elif ch in "\"'":
            current += ch
            quote = ch
        elif ch == separator:
            parts.append(current)
            current = ""
        else:
            current += ch
    parts.append(current)
    return parts


class FilterExpression:
    """A variable or literal, optionally piped through filters.

    Examples: ``name``, ``item.price|floatformat:2``, ``"hi"|upper``.
    Compiled once at template-parse time.
    """

    def __init__(self, expression: str, template_name: str = "<string>"):
        self.expression = expression.strip()
        if not self.expression:
            raise TemplateSyntaxError("empty expression", template_name)
        pieces = _split_respecting_quotes(self.expression, "|")
        self._base = _compile_operand(pieces[0].strip(), template_name)
        self._filters: List[Tuple[str, Callable, Optional[object]]] = []
        for piece in pieces[1:]:
            piece = piece.strip()
            if not piece:
                raise TemplateSyntaxError(
                    f"empty filter in expression {self.expression!r}", template_name
                )
            if ":" in piece:
                name, raw_arg = _split_respecting_quotes(piece, ":")[:2]
                name = name.strip()
                arg = _compile_operand(raw_arg.strip(), template_name)
            else:
                name, arg = piece, None
            if name not in FILTERS:
                raise TemplateSyntaxError(
                    f"unknown filter {name!r} in expression {self.expression!r}",
                    template_name,
                )
            self._filters.append((name, FILTERS[name], arg))

    def resolve(self, context: Context, default: Any = "") -> Any:
        """Evaluate against a context.  Missing variables yield ``default``."""
        value = self._base(context)
        if value is MISSING:
            if not self._filters:
                return default
            value = None
        for name, func, arg in self._filters:
            arg_value = None
            if arg is not None:
                arg_value = arg(context)
                if arg_value is MISSING:
                    arg_value = None
                elif not isinstance(arg_value, str):
                    arg_value = str(arg_value)
            try:
                value = func(value, arg_value)
            except (ValueError, TypeError) as exc:
                raise TemplateRenderError(
                    f"filter {name!r} failed on {self.expression!r}: {exc}"
                )
        return value


def _literal_resolver(value: Any) -> Callable[[Context], Any]:
    resolver = lambda context: value  # noqa: E731
    # Metadata for repro.templates.compiler, which lowers operands to
    # generated code instead of calling the closure.
    resolver.operand_kind = "literal"
    resolver.operand_value = value
    return resolver


def _compile_operand(text: str, template_name: str) -> Callable[[Context], Any]:
    """Compile a literal or dotted-variable operand to a resolver."""
    if not text:
        raise TemplateSyntaxError("empty operand", template_name)
    if len(text) >= 2 and text[0] in "\"'" and text[-1] == text[0]:
        return _literal_resolver(text[1:-1])
    if text in _KEYWORD_LITERALS:
        return _literal_resolver(_KEYWORD_LITERALS[text])
    if _NUMBER_RE.match(text):
        return _literal_resolver(float(text) if "." in text else int(text))
    if _VARIABLE_RE.match(text):
        resolver = lambda context: context.resolve(text)  # noqa: E731
        resolver.operand_kind = "variable"
        resolver.operand_name = text
        return resolver
    raise TemplateSyntaxError(f"malformed operand {text!r}", template_name)


# ----------------------------------------------------------------------
# Boolean conditions for {% if %}
# ----------------------------------------------------------------------

_COMPARISON_OPS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
    "in": lambda a, b: a in b,
}


class Condition:
    """A compiled boolean expression for ``{% if %}`` / ``{% elif %}``.

    Grammar (tokens are whitespace-separated, quotes respected)::

        or_expr    := and_expr ("or" and_expr)*
        and_expr   := not_expr ("and" not_expr)*
        not_expr   := "not" not_expr | comparison
        comparison := operand (OP operand)?          OP in == != < > <= >= in
        comparison := operand "not" "in" operand
    """

    def __init__(self, tokens: List[str], template_name: str = "<string>"):
        if not tokens:
            raise TemplateSyntaxError("empty condition", template_name)
        self._template_name = template_name
        self._tokens = tokens
        self._pos = 0
        self._eval = self._parse_or()
        if self._pos != len(tokens):
            raise TemplateSyntaxError(
                f"unexpected token {tokens[self._pos]!r} in condition "
                f"{' '.join(tokens)!r}",
                template_name,
            )

    # -- recursive-descent parser ------------------------------------
    def _peek(self) -> Optional[str]:
        return self._tokens[self._pos] if self._pos < len(self._tokens) else None

    def _take(self) -> str:
        token = self._tokens[self._pos]
        self._pos += 1
        return token

    def _parse_or(self) -> Callable[[Context], bool]:
        terms = [self._parse_and()]
        while self._peek() == "or":
            self._take()
            terms.append(self._parse_and())
        if len(terms) == 1:
            return terms[0]
        return lambda context: any(term(context) for term in terms)

    def _parse_and(self) -> Callable[[Context], bool]:
        terms = [self._parse_not()]
        while self._peek() == "and":
            self._take()
            terms.append(self._parse_not())
        if len(terms) == 1:
            return terms[0]
        return lambda context: all(term(context) for term in terms)

    def _parse_not(self) -> Callable[[Context], bool]:
        if self._peek() == "not":
            self._take()
            inner = self._parse_not()
            return lambda context: not inner(context)
        return self._parse_comparison()

    def _parse_comparison(self) -> Callable[[Context], bool]:
        left = FilterExpression(self._take(), self._template_name)
        op_token = self._peek()
        if op_token == "not":
            # "a not in b"
            self._take()
            if self._peek() != "in":
                raise TemplateSyntaxError(
                    "expected 'in' after 'not' in condition", self._template_name
                )
            self._take()
            right = FilterExpression(self._take(), self._template_name)
            return lambda context: not _safe_compare(
                _COMPARISON_OPS["in"], left, right, context
            )
        if op_token in _COMPARISON_OPS:
            op = _COMPARISON_OPS[self._take()]
            if self._peek() is None:
                raise TemplateSyntaxError(
                    "missing right operand in condition", self._template_name
                )
            right = FilterExpression(self._take(), self._template_name)
            return lambda context: _safe_compare(op, left, right, context)
        return lambda context: bool(left.resolve(context, default=None))

    def evaluate(self, context: Context) -> bool:
        return bool(self._eval(context))


def _safe_compare(op, left: FilterExpression, right: FilterExpression,
                  context: Context) -> bool:
    """Apply a comparison; incomparable types evaluate to False."""
    try:
        return bool(op(left.resolve(context, default=None),
                       right.resolve(context, default=None)))
    except TypeError:
        return False


# ----------------------------------------------------------------------
# Nodes
# ----------------------------------------------------------------------


class Node:
    """Base class: a parsed template fragment.  Nodes are plain data;
    :mod:`repro.templates.compiler` lowers a tree of them to code."""


class TextNode(Node):
    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


class VariableNode(Node):
    __slots__ = ("expression",)

    def __init__(self, expression: FilterExpression):
        self.expression = expression


class ForLoopInfo:
    """The ``forloop`` object visible inside a {% for %} body."""

    __slots__ = ("counter", "counter0", "revcounter", "revcounter0",
                 "first", "last", "parentloop")

    def __init__(self, index0: int, total: int, parentloop: Optional["ForLoopInfo"]):
        self.counter = index0 + 1
        self.counter0 = index0
        self.revcounter = total - index0
        self.revcounter0 = total - index0 - 1
        self.first = index0 == 0
        self.last = index0 == total - 1
        self.parentloop = parentloop


class ForNode(Node):
    __slots__ = ("loop_vars", "iterable", "body", "empty_body")

    def __init__(self, loop_vars: List[str], iterable: FilterExpression,
                 body: List[Node], empty_body: Optional[List[Node]] = None):
        self.loop_vars = loop_vars
        self.iterable = iterable
        self.body = body
        self.empty_body = empty_body or []


class IfNode(Node):
    __slots__ = ("branches", "else_body")

    def __init__(self, branches: List[Tuple[Condition, List[Node]]],
                 else_body: Optional[List[Node]] = None):
        self.branches = branches
        self.else_body = else_body or []


class IncludeNode(Node):
    __slots__ = ("template_name", "engine")

    def __init__(self, template_name: FilterExpression, engine):
        self.template_name = template_name
        self.engine = engine


class WithNode(Node):
    """``{% with name=expr %}`` — bind a value for the enclosed block."""

    __slots__ = ("bindings", "body")

    def __init__(self, bindings: List[Tuple[str, FilterExpression]], body: List[Node]):
        self.bindings = bindings
        self.body = body


class BlockNode(Node):
    """``{% block name %}...{% endblock %}`` — an overridable region.

    In a base template the body is the default content; a child
    template's same-named block (collected by the parser) replaces it
    at render time via the context's block registry.  ``block.super``
    is intentionally out of scope (the paper-era templates never used
    it); overriding replaces wholesale.
    """

    __slots__ = ("name", "body")

    def __init__(self, name: str, body: List[Node]):
        self.name = name
        self.body = body


class ExtendsNode(Node):
    """``{% extends "base.html" %}`` — render the parent with this
    template's blocks as overrides.  Must be the template's first tag;
    anything outside blocks in a child template is ignored (Django
    semantics)."""

    __slots__ = ("parent_name", "blocks", "engine")

    def __init__(self, parent_name: FilterExpression,
                 blocks: Dict[str, List[Node]], engine):
        self.parent_name = parent_name
        self.blocks = blocks
        self.engine = engine


class CacheNode(Node):
    """``{% cache key [timeout] [vary ...] %}`` — cache the rendered body.

    Transparent (renders the body every time) unless the loading
    engine has a :class:`repro.templates.fragcache.FragmentCache`
    enabled, so the tag is opt-in at the deployment level, not baked
    into the template.  ``key`` and ``timeout`` are expressions;
    further expressions become vary-on values appended to the cache
    key (e.g. ``{% cache sidebar 60 subject %}``).
    """

    __slots__ = ("key", "timeout", "vary", "body", "engine")

    def __init__(self, key: FilterExpression, timeout: Optional[FilterExpression],
                 vary: List[FilterExpression], body: List[Node], engine):
        self.key = key
        self.timeout = timeout
        self.vary = vary
        self.body = body
        self.engine = engine
