"""Summary-generation and label-sentence prompt templates.

Templates live as text assets under ``tagsum/assets`` and are rendered by
literal placeholder substitution, never ``str.format``, so braces inside
graph text cannot corrupt rendering.
"""

from __future__ import annotations

import functools
import json
from importlib import resources

from .errors import ValidationError

DOMAINS = ("academic", "e-commerce", "social")

_TEMPLATE_FILES = {
    "academic": "summary_academic.txt",
    "e-commerce": "summary_ecommerce.txt",
    "social": "summary_social.txt",
}


@functools.cache
def _read_asset(name: str) -> str:
    return (resources.files("tagsum") / "assets" / name).read_text(encoding="utf-8")


def summary_template(domain: str) -> str:
    """The raw summary-generation template for a domain, placeholders intact."""
    if domain not in _TEMPLATE_FILES:
        raise ValidationError(f"unknown domain {domain!r}; expected one of {DOMAINS}")
    return _read_asset(_TEMPLATE_FILES[domain])


def render_summary_prompt(graphml_doc: str, domain: str, seed_index: int) -> str:
    """Fill a domain template with the seed's local node index and the document.

    ``{seed}`` is replaced first so placeholder-looking text inside the
    document cannot be re-substituted.
    """
    template = summary_template(domain)
    rendered = template.replace("{seed}", str(seed_index))
    return rendered.replace("{GraphML}", graphml_doc)


def label_sentence_templates() -> dict[str, str]:
    """Per-dataset zero-shot label sentence templates keyed by dataset name."""
    return json.loads(_read_asset("label_templates.json"))


def render_label_sentence(template: str, class_name: str, class_desc: str) -> str:
    """Fill a label template's {class} and {class_desc} slots."""
    return template.replace("{class}", class_name).replace("{class_desc}", class_desc)
