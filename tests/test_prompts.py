"""Prompt template assets and rendering."""

import pytest

from tagsum import prompts
from tagsum.errors import ValidationError
from tagsum.prompts import (
    DOMAINS,
    label_sentence_templates,
    render_label_sentence,
    render_summary_prompt,
    summary_template,
)

DOC = '<?xml version="1.0" encoding="UTF-8"?>\n<graphml></graphml>\n'


class TestSummaryPrompts:
    def test_academic_mentions_seed_and_sections(self):
        prompt = render_summary_prompt(DOC, "academic", 0)
        assert "node `n0'" in prompt
        assert "1. Paper Summary and Context Analysis" in prompt
        assert "2. Research Area Classification" in prompt

    def test_social_popularity_instruction(self):
        prompt = render_summary_prompt(DOC, "social", 2)
        assert "top 50% popular" in prompt
        assert "`n2'" in prompt

    def test_ecommerce_no_residual_placeholders(self):
        prompt = render_summary_prompt(DOC, "e-commerce", 3)
        assert "{seed}" not in prompt
        assert "{GraphML}" not in prompt
        assert "`n3'" in prompt

    @pytest.mark.parametrize("domain", DOMAINS)
    def test_all_domains_render_clean(self, domain):
        prompt = render_summary_prompt(DOC, domain, 7)
        assert "{seed}" not in prompt and "{GraphML}" not in prompt
        assert DOC.rstrip("\n") in prompt
        assert "500 tokens" in prompt

    @pytest.mark.parametrize("domain", DOMAINS)
    def test_rendering_preserves_template_outside_placeholders(self, domain):
        # Replacing the substituted values back restores the stored asset.
        template = summary_template(domain)
        prompt = render_summary_prompt(DOC, domain, 9)
        restored = prompt.replace(DOC, "{GraphML}").replace("n9", "n{seed}")
        assert restored == template

    def test_unknown_domain(self):
        with pytest.raises(ValidationError):
            render_summary_prompt(DOC, "finance", 0)

    def test_document_with_placeholder_like_text_not_rescanned(self):
        doc = DOC.replace("</graphml>", "{seed}</graphml>")
        prompt = render_summary_prompt(doc, "academic", 4)
        # The document's own brace text must survive untouched.
        assert "{seed}</graphml>" in prompt


    def test_each_asset_read_once(self, monkeypatch):
        prompts._read_asset.cache_clear()
        first = {domain: render_summary_prompt(DOC, domain, 5) for domain in DOMAINS}
        files = []
        monkeypatch.setattr(prompts.resources, "files", lambda *a: files.append(a))
        for _ in range(3):
            assert {domain: render_summary_prompt(DOC, domain, 5)
                    for domain in DOMAINS} == first
        assert not files
        assert prompts._read_asset.cache_info().misses == len(DOMAINS)


class TestLabelTemplates:
    def test_known_datasets_present(self):
        templates = label_sentence_templates()
        assert templates["cora"] == "this paper has a topic on {class} {class_desc}"
        assert "{class}" in templates["wikics"]

    def test_render_label_sentence(self):
        out = render_label_sentence(
            "this paper has a topic on {class} {class_desc}",
            "theory", "the study of algorithms")
        assert out == "this paper has a topic on theory the study of algorithms"
