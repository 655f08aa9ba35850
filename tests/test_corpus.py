"""The book-example corpus runs clean: no failures, discrepancies only where
the text conflicts with its own arithmetic."""

from neutromagma import corpus


def test_corpus_ids_unique():
    ids = [e.id for e in corpus.all_entries()]
    assert len(ids) == len(set(ids))


def test_corpus_runs_without_failures():
    rows = corpus.run_corpus()
    counts = corpus.summarize(rows)
    assert counts["fail"] == 0
    assert counts["pass"] >= 100


def test_flagged_entries_are_the_known_text_conflicts():
    rows = corpus.run_corpus()
    flagged = sorted(r.id for r in rows if r.status == "discrepancy")
    assert flagged == [
        "ex-2.1.1-pseudo-claim",
        "ex-2.1.2-divisibility",
        "ex-2.1.3-M-3+2I",
        "ex-2.1.3-M-4",
        "ex-2.1.3-M-4+2I",
        "ex-2.1.3-P-2+4I",
        "ex-2.1.3-P-3+I",
        "ex-2.1.3-P-4",
        "ex-2.1.3-P-4+2I",
        "ex-2.1.3-P-4I",
        "ex-4.1.1-relabel",
    ]


def test_filtering():
    rows = corpus.run_corpus("ex-3.1.13*")
    assert {r.id for r in rows} == {"ex-3.1.13-conjugating-set",
                                    "ex-3.1.13-full-carrier"}
    assert all(r.status == "pass" for r in rows)


def test_format_rows_mentions_counts():
    rows = corpus.run_corpus("thm-1.4.*")
    text = corpus.format_rows(rows)
    assert text.endswith("fail 0\n")


def test_set_values_render_sorted():
    # set reprs follow string hash order; rows must not change between runs
    row, = corpus.run_corpus("ex-2.1.3-P-setproduct")
    assert row.expected == row.actual == "{'1', '4I', 'I'}"
    row, = corpus.run_corpus("ex-3.1.13-conjugating-set")
    assert row.expected == "{'0', '12', '12I', '3', '3I', '6', '6I', '9', '9I'}"
