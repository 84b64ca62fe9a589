"""HTML→text extraction: the byte-identical invariant.

Pins the deterministic algorithm (boilerplate regex strip → tag strip with
"\n" joins → collapse \n{3,} → strip) against inline goldens and the
synthesizer's round-trip (reference algorithm:
/root/reference/prompture/ingestion/parsers/html.py:35-87).
"""

from prompture_ray.functions.extract_html import extract_text, extract_title


def test_boilerplate_removed():
    html = (b"<html><head><title>T</title><style>b{}</style></head>"
            b"<body><nav>menu</nav><p>hello</p><script>x=1</script>"
            b"<footer>foot</footer></body></html>")
    text = extract_text(html)
    assert "menu" not in text
    assert "x=1" not in text
    assert "foot" not in text
    assert "hello" in text
    assert "T" in text  # title text node survives (only boilerplate tags drop)


def test_newline_collapse_and_strip():
    html = b"<div><p>a</p>\n\n\n\n<p>b</p></div>"
    assert extract_text(html) == "a\n\nb"
    # inside one text node: a run of 3+ newlines collapses to exactly 2
    assert extract_text(b"<p>a\nb</p>") == "a\nb"
    assert extract_text(b"<p>a\n\nb</p>") == "a\n\nb"
    assert extract_text(b"<p>a\n\n\nb</p>") == "a\n\nb"
    assert extract_text(b"<p>a\n\n\n\nb</p>") == "a\n\nb"
    # between tags the "\n" joins add one newline on each side of the run
    assert extract_text(b"<p>a</p><p>b</p>") == "a\nb"
    assert extract_text(b"<p>a</p>\n<p>b</p>") == "a\n\nb"
    assert extract_text(b"  <p>x</p>  ") == "x"


def test_invalid_utf8_replace():
    html = b"<p>ok \xff\xfe bytes</p>"
    text = extract_text(html)
    assert "�" in text
    assert "ok" in text and "bytes" in text


def test_entities_decoded():
    assert "a&b" in extract_text(b"<p>a&amp;b</p>")


def test_title():
    assert extract_title(b"<html><head><title> Hi </title></head></html>") == "Hi"
    assert extract_title(b"<html></html>") is None


def test_nested_boilerplate_case_insensitive():
    html = b"<SCRIPT type='x'>bad()</SCRIPT><p>good</p>"
    assert "bad" not in extract_text(html)


def test_quoted_gt_in_attribute():
    """A '>' inside a quoted attribute value must not end the tag early
    (fast path must agree with the stdlib-parser path)."""
    from prompture_ray.functions.extract_html import strip_tags, strip_tags_fast

    cases = [
        '<div data-x="1>2">text</div>',
        "<div data-x='1>2'>text</div>",
        '<a href="u" title="a>b" id=c>x</a>',
        '<a title = "a > b">x</a>',          # spaces around =
        "<a data=don't>x</a> more'",          # unquoted value with apostrophe
        '<p class="a\'b">mix</p>',            # quote of the other kind inside
        '<a title="a<b">lt</a>',              # '<' inside quoted value
    ]
    for html in cases:
        assert strip_tags_fast(html) == strip_tags(html), html
    assert extract_text('<div data-x="1>2">text</div>') == "text"


def test_unterminated_quote_falls_back():
    from prompture_ray.functions.extract_html import strip_tags, strip_tags_fast
    html = '<a href="unterminated x</a> tail'
    assert strip_tags_fast(html) == strip_tags(html)


def test_synth_roundtrip_byte_identical():
    """97% of synthesized rows must satisfy text == extract_text(html)."""
    from prompture_ray.synth import gen_partition

    pages, _ = gen_partition(3, 500, seed=42)
    htmls = pages["html"].to_pylist()
    texts = pages["text"].to_pylist()
    matches = sum(extract_text(h) == t for h, t in zip(htmls, texts))
    assert 0.94 <= matches / 500 <= 0.99  # ~3% deliberately corrupted


# ---------------------------------------------------------------------------
# emit-on-change streaming snapshots (reference stream_extract semantics)
# ---------------------------------------------------------------------------

def test_replay_stream_emit_on_change():
    from prompture_ray.stages.stream_extract import replay_stream
    deltas = [(0, '{"a": 1, '), (1, '"b": "x", '), (2, '"c": '),
              (3, '2}')]
    out = replay_stream(deltas)
    assert [(s, f) for s, _, f in out] == [
        (0, False), (1, False), (3, False), (3, True)]
    assert out[0][1] == '{"a": 1}'
    assert out[1][1] == '{"a": 1, "b": "x"}'
    assert out[2][1] == '{"a": 1, "b": "x", "c": 2}'
    assert out[3][1] == out[2][1]


def test_replay_stream_fields_filter_and_unchanged():
    from prompture_ray.stages.stream_extract import replay_stream
    deltas = [(0, '{"a": 1, '), (1, '"z": 9, '), (2, '"b": 3}')]
    out = replay_stream(deltas, fields=("a", "b"))
    # the z-only delta doesn't change the filtered snapshot
    assert [s for s, _, f in out if not f] == [0, 2]
    # emit_unchanged re-emits every parseable prefix
    out2 = replay_stream(deltas, fields=("a", "b"), emit_unchanged=True)
    assert [s for s, _, f in out2 if not f] == [0, 1, 2]


def test_replay_stream_invalid_final_no_strict_row():
    from prompture_ray.stages.stream_extract import replay_stream
    out = replay_stream([(0, '{"a": 1, "b": ')])
    assert all(not f for _, _, f in out)


def test_stream_snapshots_dataset(ray_session):
    import ray.data as rd
    import pandas as pd
    from prompture_ray.stages.stream_extract import stream_snapshots
    rows = []
    for sid in (10, 20):
        for j, p in enumerate(['{"a": %d, ' % sid, '"b": 1}']):
            rows.append({"stream_id": sid, "seq": j, "delta": p})
    # shuffled input order: the operator sorts by seq inside the group
    ds = rd.from_pandas(pd.DataFrame(rows).iloc[::-1].reset_index(drop=True))
    out = stream_snapshots(ds, "stream_id", "seq", "delta").to_pandas() \
        .sort_values(["stream_id", "seq", "is_final"], ignore_index=True)
    assert len(out) == 6      # 2 partials + 1 final per stream
    s10 = out[out["stream_id"] == 10]
    assert s10["snapshot"].tolist() == [
        '{"a": 10}', '{"a": 10, "b": 1}', '{"a": 10, "b": 1}']
    assert s10["is_final"].tolist() == [False, False, True]
