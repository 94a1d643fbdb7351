"""Compiled rendering must be byte-identical to the node-walk oracle.

Three layers: every TPC-W page rendered through its real handler
data; a table of small templates whose output is also pinned by hand;
and hypothesis-generated random templates over random data.  Each is
rendered by :class:`~repro.templates.TemplateEngine` and by the
test-only :class:`~tests.templates.oracle.OracleEngine`.

The random grammar covers every tag the parser knows: variables with
filter chains, dotted index lookups and callables; ``{% for %}`` with
``{% empty %}``, two-variable unpacking (wrong arity included) and
nested loops reading ``forloop.parentloop``; ``{% if %}``/``{% elif
%}``/``{% else %}`` over comparisons, ``and``/``or``/``not`` and ``not
in``; ``{% with %}``; literal ``{% include %}`` (inlined at compile
time) and dynamic ``{% include name %}`` (looked up at render time);
``{% cache %}``, rendered with the fragment cache off and then twice
with it on, so the second render is a hit; and ``{% extends %}``.
Self-including templates are left out: both paths end in
``RecursionError``, with different messages.
"""

import string

import pytest
from hypothesis import given, settings, strategies as st

import repro.templates.engine as engine_module
from repro.templates import TemplateEngine, TemplateSyntaxError
from repro.templates.parser import TemplateParser
from repro.tpcw.templates_source import TEMPLATES
from tests.templates.oracle import OracleEngine


def compiled_engine(sources):
    return TemplateEngine(sources=dict(sources))


def oracle_engine(sources):
    return OracleEngine(sources=dict(sources))


class TestTPCWEquivalence:
    def test_every_tpcw_template_compiles(self):
        engine = compiled_engine(TEMPLATES)
        for name in TEMPLATES:
            engine.get_template(name)

    def test_every_route_renders_identically(self, tpcw_app):
        compiled = compiled_engine(TEMPLATES)
        oracle = oracle_engine(TEMPLATES)
        exercised = set()
        for path, handler in sorted(tpcw_app.routes.items()):
            name, data = handler()
            exercised.add(name)
            assert compiled.render(name, data) == oracle.render(name, data), path
        # Every page template is driven directly; base.html and
        # item_row.html are exercised through extends/include.
        assert exercised == set(TEMPLATES) - {"base.html", "item_row.html"}

    def test_oracle_never_runs_generated_code(self, tpcw_app, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the oracle compiled a template")

        monkeypatch.setattr(engine_module, "compile_template", refuse)
        oracle = oracle_engine(TEMPLATES)
        for path, handler in sorted(tpcw_app.routes.items()):
            assert "</html>" in oracle.render(*handler()), path


# ----------------------------------------------------------------------
# Known answers
# ----------------------------------------------------------------------
#: Agreement alone cannot catch a mistake the compiler and the oracle
#: share, so each case also pins the output by hand.  ``t.html`` is
#: rendered; the partials are there for includes and extends.
PARTIALS = {
    "p.html": "[{{ x }}]",
    "base.html": "<{% block head %}H{% endblock %}|{% block body %}B{% endblock %}>",
}
KNOWN_ANSWERS = {
    "elif": ("{% if a %}A{% elif b %}B{% else %}C{% endif %}",
             {"a": 0, "b": 1}, "B"),
    "else": ("{% if a %}A{% elif b %}B{% else %}C{% endif %}", {}, "C"),
    "empty": ("{% for x in xs %}{{ x }}{% empty %}none{% endfor %}",
              {"xs": []}, "none"),
    "unpack": ("{% for k, v in pairs %}{{ k }}={{ v }};{% endfor %}",
               {"pairs": [("a", 1), ("b", 2)]}, "a=1;b=2;"),
    "parentloop": ("{% for r in rows %}{% for c in r %}"
                   "{{ forloop.parentloop.counter }}.{{ forloop.counter }} "
                   "{% endfor %}{% endfor %}",
                   {"rows": [[1, 2], [3]]}, "1.1 1.2 2.1 "),
    "not_in": ("{% if x not in xs %}out{% else %}in{% endif %}",
               {"x": 3, "xs": [1, 2]}, "out"),
    "and_binds_tighter_than_or": (
        "{% if a and not b or c %}y{% else %}n{% endif %}",
        {"a": 1, "b": 1, "c": 0}, "n"),
    "comparison": ("{% if n >= 2 %}big{% endif %}{% if n < 2 %}small{% endif %}",
                   {"n": 2}, "big"),
    "index_lookup_escapes": ("{{ rows.1.name }}",
                             {"rows": [{"name": "a"}, {"name": "b<"}]}, "b&lt;"),
    "filter_chain": ("{{ name|default:'anon'|upper }}", {}, "ANON"),
    "missing_is_empty": ("[{{ nothing.at.all }}]", {}, "[]"),
    "callable": ("{{ f }}", {"f": lambda: "called"}, "called"),
    "with": ("{% with a=x|upper b=a %}{{ b }}{% endwith %}{{ a }}",
             {"x": "q"}, "Q"),
    "literal_include": ("{% include 'p.html' %}", {"x": 1}, "[1]"),
    "dynamic_include": ("{% include name %}", {"name": "p.html", "x": 2}, "[2]"),
    "extends_overrides_one_block": (
        "{% extends 'base.html' %}{% block body %}{{ x }}{% endblock %}",
        {"x": "b"}, "<H|b>"),
}


@pytest.mark.parametrize("source, data, expected",
                         list(KNOWN_ANSWERS.values()), ids=list(KNOWN_ANSWERS))
def test_known_answer(source, data, expected):
    sources = dict(PARTIALS, **{"t.html": source})
    assert compiled_engine(sources).render("t.html", dict(data)) == expected
    assert oracle_engine(sources).render("t.html", dict(data)) == expected


@pytest.mark.parametrize("make_engine", [compiled_engine, oracle_engine],
                         ids=["compiled", "oracle"])
def test_cache_tag_serves_the_first_render(make_engine):
    sources = {"t.html": "{% cache 'k' %}{{ x }}{% endcache %}{{ x }}"}
    uncached = make_engine(sources)
    assert uncached.render("t.html", {"x": 1}) == "11"
    assert uncached.render("t.html", {"x": 2}) == "22"
    engine = make_engine(sources)
    engine.enable_fragment_cache()
    assert engine.render("t.html", {"x": 1}) == "11"
    assert engine.render("t.html", {"x": 2}) == "12"


# ----------------------------------------------------------------------
# Randomized templates
# ----------------------------------------------------------------------
VARIABLES = [
    "alpha", "beta", "gamma", "row", "row.name", "row.n", "missing",
    "rows.0.name", "rows.1.n", "row.cells.0", "pairs.0.1", "cell", "k", "v",
    "forloop.counter", "forloop.counter0", "forloop.revcounter",
    "forloop.first", "forloop.last", "forloop.parentloop.counter",
    "forloop.parentloop.last", "fn", "obj.fn", "obj.needs", "needs_arg",
]
FILTERS = ["upper", "lower", "capfirst", "default:'d'", "floatformat:2",
           "length", "urlencode", "default:beta", "floatformat:gamma"]
LITERALS = ["1", "0", "-2", "2.5", "'x'", "''", "None", "True", "False"]
COMPARISONS = ["==", "!=", "<", ">", "<=", ">=", "in", "not in"]

text = st.text(alphabet=string.ascii_letters + " <>&'\"{}%.,!", min_size=0,
               max_size=12).map(
    # Avoid accidentally opening a template tag.
    lambda s: s.replace("{%", "(").replace("{{", "(").replace("{#", "(")
)
variable_tag = st.builds(
    lambda name, filters: "{{ %s }}" % "|".join([name] + filters),
    st.sampled_from(VARIABLES),
    st.lists(st.sampled_from(FILTERS), max_size=2),
)
#: Repeats weight the draw: failing tags are rarer, so most random
#: templates render to the end.
include_tag = st.sampled_from(
    ["{% include 'p.html' %}"] * 3     # literal: inlined at compile time
    + ["{% include 'q.html' %}"] * 2
    + ["{% include pname %}"] * 3      # dynamic: looked up at render time
    + ["{% include 'nope.html' %}"]    # unknown: fails when reached
)

operand = st.one_of(
    st.sampled_from(VARIABLES),
    st.sampled_from(LITERALS),
    st.sampled_from(["alpha|length", "rows|length", "beta|default:'d'"]),
)
comparison = st.one_of(
    operand,
    st.builds(lambda a, op, b: f"{a} {op} {b}",
              operand, st.sampled_from(COMPARISONS), operand),
)
negated = st.builds(lambda neg, c: neg + c,
                    st.sampled_from(["", "not ", "not not "]), comparison)
condition = st.builds(
    lambda first, rest: " ".join([first] + [f"{op} {c}" for op, c in rest]),
    negated,
    st.lists(st.tuples(st.sampled_from(["and", "or"]), negated), max_size=2),
)


def wrap_for(body, with_empty):
    empty = "{% empty %}E" if with_empty else ""
    return ("{%% for row in rows %%}%s{{ forloop.counter }}%s{%% endfor %%}"
            % (body, empty))


def wrap_for_cells(body, with_empty):
    empty = "{% empty %}-" if with_empty else ""
    return ("{%% for cell in row.cells %%}{{ forloop.parentloop.counter }}"
            "%s%s{%% endfor %%}" % (body, empty))


def wrap_for_pairs(body, with_empty):
    empty = "{% empty %}0" if with_empty else ""
    return "{%% for k, v in pairs %%}%s%s{%% endfor %%}" % (body, empty)


def wrap_cache(body, vary):
    tag = "{% cache 'frag' 60 alpha %}" if vary else "{% cache beta %}"
    return tag + body + "{% endcache %}"


def wrap_with(body, _):
    return "{%% with beta=alpha gamma=beta %%}%s{%% endwith %%}" % body


@st.composite
def wrap_if(draw, body):
    source = "{%% if %s %%}%s" % (draw(condition), body)
    for _ in range(draw(st.integers(0, 2))):
        source += "{%% elif %s %%}%s" % (draw(condition), draw(text))
    if draw(st.booleans()):
        source += "{% else %}E"
    return source + "{% endif %}"


def wrapped(children):
    body = st.lists(children, min_size=1, max_size=3).map("".join)
    plain = st.builds(
        lambda b, wrapper, flag: wrapper(b, flag), body,
        st.sampled_from([wrap_for, wrap_for_cells, wrap_for_pairs,
                         wrap_cache, wrap_with]),
        st.booleans(),
    )
    return st.one_of(plain, body.flatmap(wrap_if))


def fragments(leaves):
    return st.recursive(leaves, wrapped, max_leaves=8)


#: Page sources: everything, includes of the partials among it.
template_sources = st.lists(
    fragments(st.one_of(text, variable_tag, include_tag)), max_size=5,
).map("".join)


def _parses(source):
    try:
        TemplateParser(source, "p.html").parse()
    except TemplateSyntaxError:
        return False
    return True


#: Partial sources: no includes (so no self-inclusion) and valid
#: syntax, so a literal include never hides a syntax error behind an
#: unreached branch.
partial_sources = st.lists(
    fragments(st.one_of(text, variable_tag)), max_size=3,
).map("".join).filter(_parses)


def needs_an_argument(x):
    return x


data_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-1000, 1000),
    st.floats(-100, 100, allow_nan=False),
    st.text(alphabet=string.printable, max_size=10),
    st.just(lambda: "<called & quoted '>"),
)


def pair_item(arity):
    """A ``pairs`` entry: a tuple of ``arity`` values, or a string (it
    unpacks by character), or an int (it does not unpack at all)."""
    if arity == "str":
        return st.text(alphabet="ab", min_size=1, max_size=3)
    if arity == "int":
        return st.integers(0, 9)
    return st.lists(data_values, min_size=arity, max_size=arity).map(tuple)


#: Mostly pairs; every other arity fails the two-variable unpack.
pair_items = st.sampled_from([2] * 16 + [0, 1, 3, "str", "int"]).flatmap(
    pair_item)


@st.composite
def template_data(draw):
    return {
        "alpha": draw(data_values),
        "beta": draw(data_values),
        "gamma": draw(data_values),
        "rows": draw(st.lists(
            st.fixed_dictionaries({
                "name": data_values,
                "n": data_values,
                "cells": st.lists(data_values, max_size=3),
            }),
            max_size=3,
        )),
        "pairs": draw(st.lists(pair_items, max_size=3)),
        "pname": draw(st.sampled_from(["p.html"] * 3 + ["q.html"] * 3
                                      + [None, "", "nope.html"])),
        "fn": lambda: "fn<>",
        "obj": {"fn": lambda: 7, "needs": needs_an_argument},
        "needs_arg": needs_an_argument,
    }


def _outcome(make_engine, sources, name, data):
    """Render results, or the error both paths must agree on.

    The template renders once with the fragment cache off, then twice
    on a fresh engine with it on: the second of those serves every
    ``{% cache %}`` body from the cache.  Random sources may be
    syntactically invalid; both engines must then raise the same syntax
    error.
    """
    try:
        uncached = make_engine(sources).render(name, dict(data))
        engine = make_engine(sources)
        engine.enable_fragment_cache()
        first = engine.render(name, dict(data))
        second = engine.render(name, dict(data))
        return ("ok", uncached, first, second)
    except TemplateSyntaxError as exc:
        return ("syntax", str(exc))
    except Exception as exc:
        return ("err", type(exc).__name__, str(exc))


def assert_equivalent(sources, name, data):
    compiled = _outcome(compiled_engine, sources, name, data)
    oracle = _outcome(oracle_engine, sources, name, data)
    assert compiled == oracle


@settings(max_examples=300, derandomize=True, deadline=None)
@given(source=template_sources, partial=partial_sources,
       data=template_data())
def test_random_templates_render_identically(source, partial, data):
    sources = {"t.html": source, "p.html": partial,
               "q.html": "<q {{ alpha }}{{ forloop.counter }}>"}
    assert_equivalent(sources, "t.html", data)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(source=template_sources, partial=partial_sources,
       data=template_data())
def test_random_templates_with_inheritance(source, partial, data):
    """Three levels: the grandchild's ``two`` beats the child's, and
    ``two`` sits in a loop, so override bodies read loop variables."""
    sources = {
        "base.html": ("A{% block one %}1{% endblock %}B{% for row in rows %}"
                      "{% block two %}2{% endblock %}{% endfor %}C"),
        "child.html": (
            "{% extends 'base.html' %}"
            "{% block one %}" + source + "{% endblock %}"
            "{% block two %}c{{ row.name }}{% endblock %}"
        ),
        "grand.html": (
            "{% extends 'child.html' %}"
            "{% block two %}g{{ forloop.counter }}" + source + "{% endblock %}"
        ),
        "p.html": partial,
        "q.html": "<q {{ beta }}>",
    }
    assert_equivalent(sources, "child.html", data)
    assert_equivalent(sources, "grand.html", data)
