"""From-scratch Django-style template engine.

Supports the constructs the paper's TPC-W templates need (and the ones
any Django template of the era would use):

- Variable tags with dotted lookup and filters:
  ``{{ item.title|upper }}``, ``{{ price|floatformat:2 }}``.
- Block tags: ``{% for x in seq %} ... {% empty %} ... {% endfor %}``
  (with the ``forloop`` context object), ``{% if %}/{% elif %}/{% else
  %}`` with comparisons and ``and``/``or``/``not``, ``{% include %}``.
- Comments: ``{# ... #}`` and ``{% comment %} ... {% endcomment %}``.
- HTML autoescaping with a ``safe`` filter opt-out.

Each template is parsed to a node tree and compiled, once, to one
generated Python function (:mod:`repro.templates.compiler`), cached by
the :class:`TemplateEngine` loader; rendering calls that function with
a :class:`Context`.  Rendering is a pure function of (template, data),
which is exactly the property the paper's staged design exploits: a
handler can return ``("name.html", data)`` and any template-rendering
thread can finish the job.
"""

from repro.templates.compiler import compile_template
from repro.templates.context import Context
from repro.templates.engine import Template, TemplateEngine
from repro.templates.errors import (
    TemplateError,
    TemplateNotFoundError,
    TemplateRenderError,
    TemplateSyntaxError,
)
from repro.templates.filters import FILTERS, register_filter
from repro.templates.fragcache import FragmentCache, data_signature

__all__ = [
    "Context",
    "FragmentCache",
    "Template",
    "TemplateEngine",
    "TemplateError",
    "TemplateNotFoundError",
    "TemplateRenderError",
    "TemplateSyntaxError",
    "FILTERS",
    "compile_template",
    "data_signature",
    "register_filter",
]
