"""A node-walk template interpreter: the oracle for the compiler.

Production rendering runs the one Python function
:mod:`repro.templates.compiler` generates per template.  This module
renders the same parsed node tree the slow, obvious way -- one node at
a time -- so tests can hold the generated code to it byte for byte,
error messages included.

:class:`OracleEngine` is a :class:`~repro.templates.TemplateEngine`
whose templates are walked, never compiled.  The parser hands every
``{% include %}``/``{% extends %}`` node the engine that loaded it, so
those tags resolve through the oracle too: an oracle render never runs
generated code.  A child template's ``__blocks__`` overrides are plain
node lists here.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.templates import Context, TemplateEngine
from repro.templates.errors import TemplateRenderError
from repro.templates.filters import SafeString, escape_html
from repro.templates.fragcache import render_fragment
from repro.templates.nodes import (
    BlockNode,
    CacheNode,
    ExtendsNode,
    ForLoopInfo,
    ForNode,
    IfNode,
    IncludeNode,
    Node,
    TextNode,
    VariableNode,
    WithNode,
)
from repro.templates.parser import TemplateParser


class OracleTemplate:
    """A parsed template rendered by walking its node tree."""

    #: Compile-time inlining never happens, so nothing to invalidate.
    _dependencies = frozenset()

    def __init__(self, source: str, name: str, engine: "OracleEngine"):
        self.name = name
        self.nodes: List[Node] = TemplateParser(source, name, engine).parse()

    def render(self, data: Optional[Dict[str, Any]] = None,
               autoescape: bool = True) -> str:
        context = data if isinstance(data, Context) else Context(data, autoescape)
        parts: List[str] = []
        render_nodes(self.nodes, context, parts)
        return "".join(parts)


class OracleEngine(TemplateEngine):
    """The engine's loader, fragment cache and ``render`` API over the
    node walk.  The template cache here is unbounded."""

    def get_template(self, name: str) -> OracleTemplate:
        template = self._cache.get(name)
        if template is None:
            template = OracleTemplate(self._load_source(name), name, self)
            self._cache[name] = template
        return template


def render_nodes(nodes: List[Node], context: Context, parts: List[str]) -> None:
    """Append the rendered output of ``nodes`` to ``parts``."""
    for node in nodes:
        _RENDERERS[type(node)](node, context, parts)


def _text(node: TextNode, context: Context, parts: List[str]) -> None:
    parts.append(node.text)


def _variable(node: VariableNode, context: Context, parts: List[str]) -> None:
    value = node.expression.resolve(context, default="")
    if value is None:
        value = "None"
    if context.autoescape and not isinstance(value, SafeString):
        parts.append(escape_html(value))
    else:
        parts.append(value if isinstance(value, str) else str(value))


def _for(node: ForNode, context: Context, parts: List[str]) -> None:
    values = node.iterable.resolve(context, default=None)
    if values is None:
        items: List[Any] = []
    else:
        try:
            items = list(values)
        except TypeError:
            raise TemplateRenderError(
                f"{node.iterable.expression!r} is not iterable in {{% for %}}"
            )
    if not items:
        render_nodes(node.empty_body, context, parts)
        return
    parentloop = context.get("forloop")
    total = len(items)
    context.push()
    try:
        for index, item in enumerate(items):
            context["forloop"] = ForLoopInfo(index, total, parentloop)
            _bind(node.loop_vars, context, item)
            render_nodes(node.body, context, parts)
    finally:
        context.pop()


def _bind(loop_vars: List[str], context: Context, item: Any) -> None:
    if len(loop_vars) == 1:
        context[loop_vars[0]] = item
        return
    try:
        unpacked = tuple(item)
    except TypeError:
        raise TemplateRenderError(
            f"cannot unpack non-sequence into {loop_vars!r}"
        )
    if len(unpacked) != len(loop_vars):
        raise TemplateRenderError(
            f"cannot unpack {len(unpacked)} values into "
            f"{len(loop_vars)} loop variables {loop_vars!r}"
        )
    for name, value in zip(loop_vars, unpacked):
        context[name] = value


def _if(node: IfNode, context: Context, parts: List[str]) -> None:
    for condition, body in node.branches:
        if condition.evaluate(context):
            render_nodes(body, context, parts)
            return
    render_nodes(node.else_body, context, parts)


def _include(node: IncludeNode, context: Context, parts: List[str]) -> None:
    name = node.template_name.resolve(context, default=None)
    if not name:
        raise TemplateRenderError(
            f"{{% include %}} name {node.template_name.expression!r} "
            f"resolved to nothing"
        )
    render_nodes(node.engine.get_template(str(name)).nodes, context, parts)


def _with(node: WithNode, context: Context, parts: List[str]) -> None:
    context.push()
    try:
        for name, expression in node.bindings:
            context[name] = expression.resolve(context, default=None)
        render_nodes(node.body, context, parts)
    finally:
        context.pop()


def _block(node: BlockNode, context: Context, parts: List[str]) -> None:
    overrides = context.get("__blocks__")
    body = node.body
    if overrides and node.name in overrides:
        body = overrides[node.name]
    render_nodes(body, context, parts)


def _extends(node: ExtendsNode, context: Context, parts: List[str]) -> None:
    name = node.parent_name.resolve(context, default=None)
    if not name:
        raise TemplateRenderError(
            f"{{% extends %}} name {node.parent_name.expression!r} "
            f"resolved to nothing"
        )
    parent = node.engine.get_template(str(name))
    # Merge: inner (child) overrides win over any already present
    # (grandchild beats child in a 3-level chain).
    existing = context.get("__blocks__") or {}
    merged = dict(node.blocks)
    merged.update(existing)
    context.push({"__blocks__": merged})
    try:
        render_nodes(parent.nodes, context, parts)
    finally:
        context.pop()


def _cache(node: CacheNode, context: Context, parts: List[str]) -> None:
    render_fragment(node.engine, context, parts,
                    lambda ctx, out: render_nodes(node.body, ctx, out),
                    node.key, node.timeout, node.vary)


_RENDERERS: Dict[type, Callable[[Any, Context, List[str]], None]] = {
    TextNode: _text,
    VariableNode: _variable,
    ForNode: _for,
    IfNode: _if,
    IncludeNode: _include,
    WithNode: _with,
    BlockNode: _block,
    ExtendsNode: _extends,
    CacheNode: _cache,
}
