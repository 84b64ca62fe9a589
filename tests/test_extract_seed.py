"""Differential test: the engine's HTML → text extraction against the
frozen copy of the original implementation in ``tools/extract_seed.py``.

The benchmark and the synthesizer both read the engine's own
``extract_text``, so a drift in its output would not show there. Here the
engine must give byte-identical text, and fall back to the HTMLParser path
on exactly the same inputs, over property-based HTML-ish strings (valid and
invalid UTF-8), synthesized pages at two seeds, and a hand-written corpus
of edge cases.
"""

import importlib.util
import re
from pathlib import Path
from unittest import mock

from hypothesis import given, settings, strategies as st

from prompture_ray.functions import extract_html as engine


def _load_seed():
    path = Path(__file__).resolve().parents[1] / "tools" / "extract_seed.py"
    spec = importlib.util.spec_from_file_location("extract_seed", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


seed = _load_seed()


def assert_same(html):
    """Same text, and the HTMLParser fallback taken on the same inputs."""
    with mock.patch.object(engine, "strip_tags", wraps=engine.strip_tags) as e, \
            mock.patch.object(seed, "strip_tags", wraps=seed.strip_tags) as s:
        got, want = engine.extract_text(html), seed.extract_text(html)
    assert got == want, html
    assert e.call_count == s.call_count, html
    if isinstance(html, str):
        assert engine.strip_tags_fast(html) == seed.strip_tags_fast(html), html


_TOKENS = [
    "<p>", "</p>", "<div class=\"a>b\">", "</div>", "<a href='x'>", "</a>",
    "<a title = \"q\" id=c>", "<br/>", "<!DOCTYPE html>", "<?xml v?>",
    "<script>", "</script>", "<ſcript>", "</ſcript>", "<SCRIPT type=x>",
    "<style>", "</STYLE>", "<nav>", "</nav>", "<noscript>", "</noscript>",
    "<aside>", "</aside>", "<FOOTER>", "</footer>", "<header>", "</Header>",
    "<!--", "-->", "<", ">", "< ", "<1", "=", "\"", "'", "&amp;", "&lt;",
    "&#60;", "&#x3c;", "&#6", "0;", "&", "&amp", "&notin", ";", " ", "\t",
    "x", "text", "\x1c", "\x85", "\xa0", "é", *("\n" * k for k in range(1, 7)),
]
_html_text = st.lists(st.sampled_from(_TOKENS), max_size=40).map("".join)
# byte strings: the same tokens encoded, interleaved with invalid UTF-8
_html_bytes = st.lists(
    st.sampled_from([t.encode() for t in _TOKENS]
                    + [b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xe2\x82"]),
    max_size=40).map(b"".join)


@given(_html_text)
@settings(max_examples=600, deadline=None)
def test_identical_on_html_text(html):
    assert_same(html)


@given(_html_bytes)
@settings(max_examples=400, deadline=None)
def test_identical_on_html_bytes(html):
    assert_same(html)


def test_identical_on_synth_pages():
    from prompture_ray.synth import gen_partition

    for s, ws in ((7, 1.0), (1234, 3.0)):
        pages, _ = gen_partition(0, 1500, seed=s, words_scale=ws)
        for html in pages["html"].to_pylist():
            assert_same(html)


def test_identical_on_edge_corpus():
    corpus = [
        "<p>a</p><!-- never closed <b>x</b>",
        "<p>a</p><!-- c1 --><p>b</p><!--c2-->",
        '<a href="unterminated x</a> tail',
        "<a href='open>x</a>",
        "<p>a&amp;b</p><p>plain</p>",
        "<p>&lt;not a tag&gt;</p>",
        "<p>a < b</p>",
        "  \n\n<p> x </p>\n\n\n  ",
        "\x85\xa0<p>x</p>\x1c\x1c",
        "<p>a\n\n\n\n\nb</p>",
        "<ſcript>gone()</ſcript><p>kept</p>",
        "<script>never closed<p>x</p>",
        "<div data-x=\"1>2\">text</div>",
        "<a data=don't>x</a> more'",
        "",
        "no tags at all",
        b"<p>ok \xff\xfe bytes</p>",
        b"\xef\xbb\xbf<p>bom</p>",
    ]
    for html in corpus:
        assert_same(html)


def test_boilerplate_prefilter_keeps_every_name_initial():
    """The boilerplate regex rejects a "<" early with ``(?=[snfha])``.
    Every code point that IGNORECASE folds onto a tag name's first letter
    (U+017F LONG S for "s", say) must still open that block."""
    names = ("script", "style", "nav", "footer", "header", "aside",
             "noscript")
    chars = "".join(chr(c) for c in range(0x110000)
                    if not 0xD800 <= c <= 0xDFFF)
    for name in names:
        initials = re.findall(name[0], chars, re.IGNORECASE)
        assert len(initials) >= 2
        for c in initials:
            html = f"<{c}{name[1:]} id=1>x</{c}{name[1:]}>y"
            assert engine._BOILERPLATE_TAGS.sub("", html) == "y", html
            assert seed._BOILERPLATE_TAGS.sub("", html) == "y", html
