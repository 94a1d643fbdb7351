"""Compile a parsed template node tree to one Python render function.

This is the only render path.  Each template is lowered once, at load
time, into a single generated Python function built with ``compile()``
/ ``exec`` — the cached-loader approach Jinja2 and Django use — so the
render stage (the pool the paper separates out) runs native code:

- adjacent literal runs are pre-joined into one ``parts.append``;
- variable lookups, autoescaping, and constant filter arguments are
  lowered to direct code with the filter callables bound as constants;
- ``{% for %}`` becomes a native loop writing straight into the scope
  dict, ``{% if %}`` native branches, ``{% with %}`` direct bindings;
- ``{% include %}`` with a literal name is inlined; a dynamic name and
  ``{% extends %}`` become calls into the target template's own
  compiled function (``Template.render_into``), with a child's block
  overrides carried as its compiled block functions.

The generated code must match a plain walk of the node tree for every
construct, byte for byte, including autoescaping, filter chains,
``forloop`` metadata, and error messages.  That walk lives under
``tests/templates/oracle.py``, and
``tests/templates/test_compiler_equivalence.py`` holds the two
together.  A node tree the compiler cannot lower is an error.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List

from repro.templates.context import MISSING, _step
from repro.templates.errors import (
    TemplateNotFoundError,
    TemplateRenderError,
    TemplateSyntaxError,
)
from repro.templates.filters import SafeString, escape_html
from repro.templates.fragcache import render_fragment
from repro.templates.nodes import (
    BlockNode,
    CacheNode,
    ExtendsNode,
    FilterExpression,
    ForLoopInfo,
    ForNode,
    IfNode,
    IncludeNode,
    Node,
    TextNode,
    VariableNode,
    WithNode,
)


#: Names every generated function can rely on.  Everything else the
#: generated code needs (filter callables, Condition objects, engines,
#: block-override dicts) is bound as a numbered module constant.
_BASE_NAMESPACE = {
    "_MISSING": MISSING,
    "_Safe": SafeString,
    "_escape": escape_html,
    "_step": _step,
    "_TemplateRenderError": TemplateRenderError,
    "_ForLoop": ForLoopInfo,
    "_render_fragment": render_fragment,
}


def compile_template(nodes: List[Node], name: str = "<string>") -> Callable:
    """Compile a parsed node tree; returns ``fn(context, parts)``,
    carrying its ``generated_source`` and the ``dependencies`` (names
    of templates) it inlined."""
    return _Compiler(name).compile(nodes)


class _Writer:
    """An indented source-line accumulator."""

    def __init__(self, indent: int = 1):
        self.lines: List[str] = []
        self._indent = indent

    def __call__(self, line: str) -> None:
        self.lines.append("    " * self._indent + line)

    def indent(self) -> None:
        self._indent += 1

    def dedent(self) -> None:
        self._indent -= 1


class _Compiler:
    def __init__(self, template_name: str):
        self.template_name = template_name
        self.namespace: Dict[str, Any] = dict(_BASE_NAMESPACE)
        self.functions: List[str] = []
        #: const name -> {block name: function name}; resolved into
        #: {block name: function} dicts after exec, when the compiled
        #: block functions exist as objects.
        self._pending_blocks: Dict[str, Dict[str, str]] = {}
        self._counter = 0
        #: Static scope: template variable name -> Python local temp.
        #: ``{% for %}``/``{% with %}`` bindings in the current function
        #: live in real locals (mirrored into the context scope dict so
        #: dynamic includes, conditions, and block overrides still see
        #: them); reads through this map skip the scope-stack scan.
        self._locals: Dict[str, str] = {}
        #: Template names whose bodies were inlined at compile time
        #: ({% include %} with a literal name).  The engine drops this
        #: template from its cache when any of them changes, so
        #: inlining stays observationally equivalent to a render-time
        #: lookup.
        self.dependencies: set = set()
        self._inline_stack: List[str] = []

    # ------------------------------------------------------------------
    def compile(self, nodes: List[Node]) -> Callable:
        main = self._compile_function("_render", nodes)
        source = "\n\n".join(self.functions)
        code = compile(source, f"<compiled template {self.template_name!r}>",
                       "exec")
        exec(code, self.namespace)
        for const_name, blocks in self._pending_blocks.items():
            self.namespace[const_name] = {
                name: self.namespace[fn_name]
                for name, fn_name in blocks.items()
            }
        fn = self.namespace[main]
        fn.generated_source = source
        fn.dependencies = frozenset(self.dependencies)
        return fn

    # ------------------------------------------------------------------
    def _name(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def _const(self, value: Any, prefix: str = "_C") -> str:
        name = self._name(prefix)
        self.namespace[name] = value
        return name

    def _literal(self, value: Any) -> str:
        """Source for a constant: its repr where that evaluates back to
        the value, else a bound name (``inf`` from a huge numeric
        literal has no literal form)."""
        if isinstance(value, float) and not math.isfinite(value):
            return self._const(value)
        return repr(value)

    def _compile_function(self, kind: str, nodes: List[Node]) -> str:
        name = self._name(kind)
        w = _Writer()
        saved_locals = self._locals
        self._locals = {}  # a fresh function has no static bindings
        try:
            self._emit_nodes(w, nodes)
        finally:
            self._locals = saved_locals
        # Hoist only the helpers the body actually uses; a small
        # included template is called once per loop iteration and the
        # preamble is per-call overhead.
        preamble = []
        for binding, needle in (
            ("_append = parts.append", "_append("),
            ("_get = context.get", "_get("),
            ("_autoescape = context.autoescape", "_autoescape"),
            # push()/pop() mutate the same list object, so one hoist
            # stays valid across scope changes.
            ("_stack = context._stack", "_stack"),
        ):
            if any(needle in line for line in w.lines):
                preamble.append("    " + binding)
        body = preamble + (w.lines or ["    pass"])
        self.functions.append(
            f"def {name}(context, parts):\n" + "\n".join(body)
        )
        return name

    # ------------------------------------------------------------------
    def _emit_nodes(self, w: _Writer, nodes: List[Node]) -> None:
        # Pre-join adjacent literal runs into a single append.
        text_run: List[str] = []

        def flush() -> None:
            if text_run:
                merged = "".join(text_run)
                if merged:
                    w(f"_append({self._literal(merged)})")
                text_run.clear()

        for node in nodes:
            if type(node) is TextNode:
                text_run.append(node.text)
                continue
            flush()
            self._emit_node(w, node)
        flush()

    def _emit_node(self, w: _Writer, node: Node) -> None:
        if type(node) is VariableNode:
            self._emit_variable(w, node)
        elif type(node) is ForNode:
            self._emit_for(w, node)
        elif type(node) is IfNode:
            self._emit_if(w, node)
        elif type(node) is WithNode:
            self._emit_with(w, node)
        elif type(node) is IncludeNode:
            self._emit_include(w, node)
        elif type(node) is BlockNode:
            self._emit_block(w, node)
        elif type(node) is ExtendsNode:
            self._emit_extends(w, node)
        elif type(node) is CacheNode:
            self._emit_cache(w, node)
        else:
            raise TypeError(f"cannot compile node type {type(node).__name__}")

    def _emit_body(self, w: _Writer, nodes: List[Node]) -> None:
        """A nodes list as an indented suite (``pass`` when empty)."""
        before = len(w.lines)
        self._emit_nodes(w, nodes)
        if len(w.lines) == before:
            w("pass")

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def _emit_lookup(self, w: _Writer, dotted: str) -> str:
        """Lower ``context.resolve(dotted)``; the temp may hold MISSING.

        When the first segment is a static binding of the current
        function, the scope-stack scan is skipped entirely: the value
        comes from the Python local and the remaining segments apply
        ``_step`` plus the final zero-argument-callable rule, exactly
        as :meth:`Context.resolve` does.
        """
        value = self._name("_v")
        first, _, rest = dotted.partition(".")
        segments = rest.split(".") if rest else []
        local = self._locals.get(first)
        if local is not None:
            w(f"{value} = {local}")
            guard_first = False  # a bound local is never MISSING
        else:
            # Inline Context.resolve's scope scan: newest scope first,
            # stopping at the first scope containing the name.
            scope = self._name("_sc")
            w(f"{value} = _MISSING")
            w(f"for {scope} in reversed(_stack):")
            w(f"    if {first!r} in {scope}:")
            w(f"        {value} = {scope}[{first!r}]")
            w("        break")
            guard_first = True
        for position, segment in enumerate(segments):
            if position or guard_first:
                w(f"if {value} is not _MISSING:")
                w.indent()
                self._emit_step(w, value, segment)
                w.dedent()
            else:
                self._emit_step(w, value, segment)
        w(f"if {value} is not _MISSING and callable({value}):")
        w("    try:")
        w(f"        {value} = {value}()")
        w("    except TypeError:")
        w(f"        {value} = _MISSING")
        return value

    def _emit_step(self, w: _Writer, value: str, segment: str) -> None:
        """One dotted-lookup step, with the dict case (the common
        data-dict shape) inlined; everything else defers to ``_step``."""
        w(f"if {value}.__class__ is dict:")
        w(f"    {value} = {value}.get({segment!r}, _MISSING)")
        w(f"    if {value} is not _MISSING and callable({value}):")
        w(f"        {value} = {value}()")
        w("else:")
        w(f"    {value} = _step({value}, {segment!r})")

    def _emit_expression(self, w: _Writer, expr: FilterExpression,
                         default_code: str) -> str:
        """Lower ``expr.resolve(context, default=<default_code>)``;
        returns the temp holding the value."""
        base = expr._base
        if base.operand_kind == "literal":
            value = self._name("_v")
            w(f"{value} = {self._literal(base.operand_value)}")
        else:
            value = self._emit_lookup(w, base.operand_name)
            w(f"if {value} is _MISSING:")
            if expr._filters:
                w(f"    {value} = None")
            else:
                w(f"    {value} = {default_code}")

        for name, func, arg in expr._filters:
            arg_code = self._emit_filter_arg(w, expr, arg)
            func_name = self._const(func, "_F")
            prefix = self._literal(
                f"filter {name!r} failed on {expr.expression!r}: "
            )
            w("try:")
            w(f"    {value} = {func_name}({value}, {arg_code})")
            w("except (ValueError, TypeError) as _exc:")
            w(f"    raise _TemplateRenderError({prefix} + str(_exc))")
        return value

    def _emit_filter_arg(self, w: _Writer, expr: FilterExpression,
                         arg) -> str:
        if arg is None:
            return "None"
        if arg.operand_kind == "literal":
            # Filter arguments are stringified at each call (see
            # FilterExpression.resolve); a literal folds to a constant.
            literal = arg.operand_value
            arg_str = literal if isinstance(literal, str) else str(literal)
            return self._literal(arg_str)
        name = self._emit_lookup(w, arg.operand_name)
        w(f"if {name} is _MISSING:")
        w(f"    {name} = None")
        w(f"elif not isinstance({name}, str):")
        w(f"    {name} = str({name})")
        return name

    # ------------------------------------------------------------------
    # Node lowering
    # ------------------------------------------------------------------
    def _emit_variable(self, w: _Writer, node: VariableNode) -> None:
        value = self._emit_expression(w, node.expression, "''")
        w(f"if {value} is None:")
        w("    _append('None')")
        w(f"elif _autoescape and not isinstance({value}, _Safe):")
        # Exact-str values (the overwhelmingly common case) escape
        # inline; everything else goes through escape_html, which
        # stringifies first — identical output either way.
        w(f"    if {value}.__class__ is str:")
        w(f"        _append({value}.replace('&', '&amp;')"
          f".replace('<', '&lt;').replace('>', '&gt;')"
          f".replace('\"', '&quot;').replace(\"'\", '&#39;'))")
        # str() of an int or float never contains an HTML special.
        w(f"    elif {value}.__class__ is int or {value}.__class__ is float:")
        w(f"        _append(str({value}))")
        w("    else:")
        w(f"        _append(_escape({value}))")
        w("else:")
        w(f"    _append({value} if isinstance({value}, str) else str({value}))")

    def _emit_for(self, w: _Writer, node: ForNode) -> None:
        raw = self._emit_expression(w, node.iterable, "None")
        items = self._name("_items")
        not_iterable = self._literal(
            f"{node.iterable.expression!r} is not iterable in {{% for %}}"
        )
        w(f"if {raw} is None:")
        w(f"    {items} = []")
        w("else:")
        w("    try:")
        w(f"        {items} = list({raw})")
        w("    except TypeError:")
        w(f"        raise _TemplateRenderError({not_iterable})")
        w(f"if not {items}:")
        w.indent()
        self._emit_body(w, node.empty_body)
        w.dedent()
        w("else:")
        w.indent()
        parent = self._name("_parent")
        total = self._name("_total")
        scope = self._name("_scope")
        index = self._name("_i")
        item = self._name("_item")
        loop_info = self._name("_fl")
        w(f"{parent} = _get('forloop')")
        w(f"{total} = len({items})")
        w("context.push()")
        w("try:")
        w.indent()
        w(f"{scope} = _stack[-1]")
        w(f"for {index}, {item} in enumerate({items}):")
        w.indent()
        w(f"{loop_info} = _ForLoop({index}, {total}, {parent})")
        w(f"{scope}['forloop'] = {loop_info}")
        bound = self._emit_loop_bind(w, node.loop_vars, scope, item)
        # A loop variable literally named "forloop" shadows the loop
        # metadata, as it does in the context's scope dict.
        bound.setdefault("forloop", loop_info)
        saved_locals = self._locals
        self._locals = {**saved_locals, **bound}
        try:
            self._emit_body(w, node.body)
        finally:
            self._locals = saved_locals
        w.dedent()
        w.dedent()
        w("finally:")
        w("    context.pop()")
        w.dedent()

    def _emit_loop_bind(self, w: _Writer, loop_vars: List[str],
                        scope: str, item: str) -> Dict[str, str]:
        """Bind loop variables into the scope dict *and* Python locals;
        returns the name -> local map for static resolution."""
        if len(loop_vars) == 1:
            w(f"{scope}[{loop_vars[0]!r}] = {item}")
            return {loop_vars[0]: item}
        unpacked = self._name("_u")
        cannot = self._literal(f"cannot unpack non-sequence into {loop_vars!r}")
        tail = self._literal(
            f" values into {len(loop_vars)} loop variables {loop_vars!r}"
        )
        w("try:")
        w(f"    {unpacked} = tuple({item})")
        w("except TypeError:")
        w(f"    raise _TemplateRenderError({cannot})")
        w(f"if len({unpacked}) != {len(loop_vars)}:")
        w("    raise _TemplateRenderError(")
        w(f"        'cannot unpack ' + str(len({unpacked})) + {tail})")
        bound: Dict[str, str] = {}
        for position, var in enumerate(loop_vars):
            local = self._name("_lv")
            w(f"{local} = {unpacked}[{position}]")
            w(f"{scope}[{var!r}] = {local}")
            bound[var] = local
        return bound

    def _emit_if(self, w: _Writer, node: IfNode) -> None:
        keyword = "if"
        for condition, body in node.branches:
            cond_name = self._const(condition, "_K")
            w(f"{keyword} {cond_name}.evaluate(context):")
            w.indent()
            self._emit_body(w, body)
            w.dedent()
            keyword = "elif"
        if node.else_body:
            w("else:")
            w.indent()
            self._emit_body(w, node.else_body)
            w.dedent()

    def _emit_with(self, w: _Writer, node: WithNode) -> None:
        w("context.push()")
        w("try:")
        w.indent()
        scope = self._name("_scope")
        w(f"{scope} = _stack[-1]")
        saved_locals = self._locals
        self._locals = dict(saved_locals)
        try:
            for name, expression in node.bindings:
                # Each binding sees the previous ones, as in WithNode.
                value = self._emit_expression(w, expression, "None")
                w(f"{scope}[{name!r}] = {value}")
                self._locals[name] = value
            self._emit_body(w, node.body)
        finally:
            self._locals = saved_locals
        w.dedent()
        w("finally:")
        w("    context.pop()")

    def _emit_include(self, w: _Writer, node: IncludeNode) -> None:
        if self._try_inline_include(w, node):
            return
        name = self._emit_expression(w, node.template_name, "None")
        message = self._literal(
            f"{{% include %}} name {node.template_name.expression!r} "
            f"resolved to nothing"
        )
        engine = self._const(node.engine, "_G")
        w(f"if not {name}:")
        w(f"    raise _TemplateRenderError({message})")
        w(f"{engine}.get_template(str({name})).render_into(context, parts)")

    def _try_inline_include(self, w: _Writer, node: IncludeNode) -> bool:
        """Inline the included template's body when its name is a
        literal, so the caller's static bindings (loop variables) apply
        to the included markup's lookups.  The included template still
        renders against the shared context, as a render-time include
        does; the engine invalidates this template when a dependency's
        source changes (see ``TemplateEngine.add_source``).  Dynamic
        names, unknown or unparsable templates, and recursive chains
        keep the render-time lookup, so their errors surface only when
        the include is reached."""
        expr = node.template_name
        base = expr._base
        if expr._filters or base.operand_kind != "literal":
            return False
        name = base.operand_value
        if not isinstance(name, str) or not name or name in self._inline_stack:
            return False
        # Local import: the parser has no dependency on this module.
        from repro.templates.parser import TemplateParser

        try:
            source = node.engine._load_source(name)
            nodes = TemplateParser(source, name, node.engine).parse()
        except (TemplateNotFoundError, TemplateSyntaxError):
            return False  # may be registered or fixed later
        self.dependencies.add(name)
        self._inline_stack.append(name)
        try:
            self._emit_nodes(w, nodes)
        finally:
            self._inline_stack.pop()
        return True

    def _emit_block(self, w: _Writer, node: BlockNode) -> None:
        overrides = self._name("_ov")
        body = self._name("_b")
        w(f"{overrides} = _get('__blocks__')")
        w(f"{body} = {overrides}.get({node.name!r}) if {overrides} else None")
        w(f"if {body} is None:")
        w.indent()
        self._emit_body(w, node.body)
        w.dedent()
        w("else:")
        # A child template's compiled block function.
        w(f"    {body}(context, parts)")

    def _emit_extends(self, w: _Writer, node: ExtendsNode) -> None:
        blocks_const = self._name("_B")
        self._pending_blocks[blocks_const] = {
            name: self._compile_function("_block", body_nodes)
            for name, body_nodes in node.blocks.items()
        }
        name = self._emit_expression(w, node.parent_name, "None")
        message = self._literal(
            f"{{% extends %}} name {node.parent_name.expression!r} "
            f"resolved to nothing"
        )
        engine = self._const(node.engine, "_G")
        parent = self._name("_parent_t")
        existing = self._name("_existing")
        merged = self._name("_merged")
        w(f"if not {name}:")
        w(f"    raise _TemplateRenderError({message})")
        w(f"{parent} = {engine}.get_template(str({name}))")
        # Merge: inner (child) overrides win over any already present
        # (grandchild beats child in a 3-level chain).
        w(f"{existing} = _get('__blocks__') or {{}}")
        w(f"{merged} = dict({blocks_const})")
        w(f"{merged}.update({existing})")
        w(f"context.push({{'__blocks__': {merged}}})")
        w("try:")
        w(f"    {parent}.render_into(context, parts)")
        w("finally:")
        w("    context.pop()")

    def _emit_cache(self, w: _Writer, node: CacheNode) -> None:
        body_fn = self._compile_function("_cache_body", node.body)
        engine = self._const(node.engine, "_G") if node.engine is not None \
            else "None"
        key = self._const(node.key, "_E")
        timeout = self._const(node.timeout, "_E") if node.timeout is not None \
            else "None"
        vary = self._const(tuple(node.vary), "_E")
        w(f"_render_fragment({engine}, context, parts, {body_fn}, "
          f"{key}, {timeout}, {vary})")
