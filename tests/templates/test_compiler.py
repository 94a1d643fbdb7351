"""Direct tests of the template-to-Python compiler."""

import pytest

from repro.templates import (
    Template,
    TemplateEngine,
    TemplateRenderError,
    TemplateSyntaxError,
)
from repro.templates.compiler import compile_template
from repro.templates.nodes import Node
from tests.templates.oracle import OracleEngine


def engine_pair(sources):
    """The compiling engine and the node-walk oracle over ``sources``."""
    return (
        TemplateEngine(sources=dict(sources)),
        OracleEngine(sources=dict(sources)),
    )


class TestCompiledPath:
    def test_engine_default_is_compiled(self):
        # Compiling is the engine's only mode: every template it loads,
        # parents and dynamically included partials too, is generated
        # code, and there is no switch to turn that off.
        sources = {
            "base.html": "<{% block b %}{% endblock %}>",
            "a.html": "{% extends 'base.html' %}{% block b %}"
                      "{% include name %}{% endblock %}",
            "p.html": "hi {{ x }}",
        }
        engine = TemplateEngine(sources=sources)
        assert engine.render("a.html", {"name": "p.html", "x": 1}) == "<hi 1>"
        for name in sources:
            template = engine.get_template(name)
            assert "def _render" in template._render_fn.generated_source
        with pytest.raises(TypeError):
            TemplateEngine(sources=sources, compiled=False)

    def test_generated_source_is_attached(self):
        engine = TemplateEngine(sources={"a.html": "{{ x }}"})
        template = engine.get_template("a.html")
        assert "def _render" in template._render_fn.generated_source

    def test_standalone_template_compiles(self):
        template = Template("{{ x }}")
        assert "def _render" in template._render_fn.generated_source
        assert template.render({"x": "<y>"}) == "&lt;y&gt;"

    def test_literal_runs_are_pre_joined(self):
        engine = TemplateEngine(
            sources={"a.html": "a{# comment #}b{% comment %}x{% endcomment %}c"}
        )
        template = engine.get_template("a.html")
        assert "'abc'" in template._render_fn.generated_source
        assert template.render({}) == "abc"

    def test_unknown_node_type_is_an_error(self):
        class Opaque(Node):
            pass

        with pytest.raises(TypeError, match="Opaque"):
            compile_template([Opaque()], "a.html")


class TestCompiledSemantics:
    """Spot checks on the trickier lowering rules (the equivalence
    suite covers the full surface)."""

    def test_forloop_metadata(self):
        source = (
            "{% for x in xs %}{{ forloop.counter }}:{{ forloop.revcounter }}"
            "{% if forloop.first %}F{% endif %}"
            "{% if forloop.last %}L{% endif %};{% endfor %}"
        )
        compiled, oracle = engine_pair({"a.html": source})
        data = {"xs": ["a", "b", "c"]}
        assert compiled.render("a.html", data) == "1:3F;2:2;3:1L;"
        assert compiled.render("a.html", data) == oracle.render("a.html", data)

    def test_loop_variable_named_forloop_shadows_metadata(self):
        source = "{% for forloop in xs %}{{ forloop }}{% endfor %}"
        compiled, oracle = engine_pair({"a.html": source})
        data = {"xs": [1, 2]}
        assert compiled.render("a.html", data) == oracle.render("a.html", data) == "12"

    def test_nested_loop_parentloop(self):
        source = (
            "{% for row in rows %}{% for cell in row %}"
            "{{ forloop.parentloop.counter }}.{{ forloop.counter }} "
            "{% endfor %}{% endfor %}"
        )
        compiled, oracle = engine_pair({"a.html": source})
        data = {"rows": [[1, 2], [3]]}
        assert compiled.render("a.html", data) == oracle.render("a.html", data)

    def test_tuple_unpack_error_message_matches(self):
        source = "{% for a, b in xs %}{{ a }}{% endfor %}"
        compiled, oracle = engine_pair({"a.html": source})
        data = {"xs": [(1, 2, 3)]}
        with pytest.raises(TemplateRenderError) as compiled_error:
            compiled.render("a.html", data)
        with pytest.raises(TemplateRenderError) as oracle_error:
            oracle.render("a.html", data)
        assert str(compiled_error.value) == str(oracle_error.value)

    def test_filter_failure_message_matches(self):
        source = "{{ x|floatformat:bad }}"
        compiled, oracle = engine_pair({"a.html": source})
        data = {"x": 1.5, "bad": "zz"}
        with pytest.raises(TemplateRenderError) as compiled_error:
            compiled.render("a.html", data)
        with pytest.raises(TemplateRenderError) as oracle_error:
            oracle.render("a.html", data)
        assert str(compiled_error.value) == str(oracle_error.value)

    def test_not_iterable_error_matches(self):
        source = "{% for x in n %}{{ x }}{% endfor %}"
        compiled, oracle = engine_pair({"a.html": source})
        for engine in (compiled, oracle):
            with pytest.raises(TemplateRenderError, match="not iterable"):
                engine.render("a.html", {"n": 7})

    def test_include_resolves_through_engine_at_render_time(self):
        sources = {"a.html": "[{% include 'p.html' %}]", "p.html": "one"}
        engine = TemplateEngine(sources=sources)
        assert engine.render("a.html", {}) == "[one]"
        engine.add_source("p.html", "two")
        assert engine.render("a.html", {}) == "[two]"

    def test_inlined_include_records_dependency(self):
        sources = {
            "a.html": "{% for i in xs %}{% include 'p.html' %}{% endfor %}",
            "p.html": "[{{ i }}]",
        }
        engine = TemplateEngine(sources=sources)
        assert engine.render("a.html", {"xs": [1, 2]}) == "[1][2]"
        template = engine.get_template("a.html")
        assert "p.html" in template._dependencies
        # Invalidating the inlined dependency drops the dependent too.
        engine.invalidate("p.html")
        assert "a.html" not in engine._cache
        engine.add_source("p.html", "({{ i }})")
        assert engine.render("a.html", {"xs": [1]}) == "(1)"

    def test_recursive_include_does_not_hang_compilation(self):
        sources = {"a.html": "{% if go %}{% include 'a.html' %}{% endif %}x"}
        engine = TemplateEngine(sources=sources)
        assert engine.render("a.html", {"go": False}) == "x"

    def test_unparsable_literal_include_fails_only_when_reached(self):
        sources = {
            "a.html": "{% if go %}{% include 'p.html' %}{% endif %}x",
            "p.html": "{% if %}",
        }
        for engine in engine_pair(sources):
            assert engine.render("a.html", {"go": False}) == "x"
            with pytest.raises(TemplateSyntaxError, match="empty condition"):
                engine.render("a.html", {"go": True})

    def test_huge_numeric_literal(self):
        # float() of this literal is inf, which has no literal form.
        source = "{{ %s }}|{{ x|default:%s }}" % ("9" * 400 + ".5", "9" * 400 + ".5")
        compiled, oracle = engine_pair({"a.html": source})
        assert compiled.render("a.html", {}) == oracle.render("a.html", {}) == "inf|inf"

    def test_with_bindings_see_earlier_ones(self):
        source = "{% with a=x b=a %}{{ b }}{% endwith %}"
        compiled, oracle = engine_pair({"a.html": source})
        data = {"x": "v"}
        assert compiled.render("a.html", data) == oracle.render("a.html", data) == "v"

    def test_callable_values_are_called(self):
        source = "{{ f }}-{{ d.g }}"
        compiled, oracle = engine_pair({"a.html": source})
        data = {"f": lambda: "A", "d": {"g": lambda: "B"}}
        assert compiled.render("a.html", data) == oracle.render("a.html", data) == "A-B"

    def test_autoescape_matches_interpreter(self):
        source = "{{ x }}|{{ x|safe }}|{{ n }}"
        compiled, oracle = engine_pair({"a.html": source})
        data = {"x": "<a href=\"x\">'&'</a>", "n": 3.5}
        assert compiled.render("a.html", data) == oracle.render("a.html", data)
