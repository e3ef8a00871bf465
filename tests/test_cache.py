import warnings

import pytest

from autocomplexity import (
    KIND_COND_UNIQUE,
    KIND_DET_TOTAL,
    KIND_UNIQUE,
    Budget,
    BudgetExceeded,
    ComplexityQuery,
    ResultCache,
    compute,
    value_at_most,
    verify_certificate,
)
from autocomplexity import cache as cache_module
from autocomplexity import complexity as complexity_module
from autocomplexity.cache import format_word, parse_word
from autocomplexity.cli import main
from autocomplexity.kinds import KINDS
from autocomplexity.metrics import ComplexityProvider, MetricKind, distribution_table, verify_metric
from autocomplexity.words import Word


def q_plain(text):
    return ComplexityQuery(KIND_UNIQUE, Word.parse(text, 2))


def key(text):
    """The cache key of the unique kind on the slow binary word ``text``."""
    return KIND_UNIQUE, tuple(int(c) for c in text), None


def test_word_field_round_trip():
    for w in [
        Word.parse("0001", 2),
        Word((), 2),
        Word((0, 11, 3), 24),
        Word((12,), 13),
        Word.parse("0123456789"),
    ]:
        assert parse_word(format_word(w)) == w
    with pytest.raises(ValueError):
        parse_word("0101")


# keys whose lines differ in every way a word field can be written
LINE_KEYS = [
    (KIND_UNIQUE, (), None),
    (KIND_UNIQUE, (0, 1, 1, 2), None),
    (KIND_UNIQUE, tuple(range(11)), None),
    ("exact", (0, 0), None),
    ("det-partial", (0, 1, 0), None),
    (KIND_DET_TOTAL, (0, 0), 3),
    (KIND_DET_TOTAL, (), 1),
    (KIND_COND_UNIQUE, (0, 1), (0, 0)),
    (KIND_COND_UNIQUE, (), ()),
    ("conditional-exact", tuple(range(12)), (0, 1) * 6),
]


def reference_line(key, value, sequence):
    """The line of a record, built from the words of ``key_query(key)``."""
    query = complexity_module.key_query(key)
    condition = "-" if query.condition is None else format_word(query.condition)
    return f"{query.kind}\t{format_word(query.target)}\t{condition}\t{value}\t{','.join(map(str, sequence))}\n"


def test_lines_are_written_from_the_key_symbols():
    """A record's line, written from the key's symbol tuples, holds the
    words of ``key_query(key)``: the target and condition over the symbols
    they use, det-total's target over its key's alphabet size, and dots
    between the symbols of an alphabet above 10."""
    for key in LINE_KEYS:
        want = reference_line(key, 2, (0, 1, 1))
        assert ResultCache._format_line(key, 2, (0, 1, 1), {}) == want, key


def test_a_batch_writes_the_reference_lines(tmp_path):
    """One ``put_many`` batch, whose records share word fields and walks,
    writes one reference line per record not equal to the memo."""
    # walks alike in their length, prefix, last state, sum or set of
    # states, each under two of the keys: each must be written as itself
    walks = [(0, 1, 1), (0, 1, 2), (0, 0, 1), (0, 1, 0), (0, 0, 0)]
    known = (KIND_UNIQUE, (0, 1), None), 2, (0, 0, 1)
    batch = [(key, 2, walks[i % len(walks)]) for i, key in enumerate(LINE_KEYS)] + [
        # 00 as a target after 00 as the condition of a key above
        ((KIND_UNIQUE, (0, 0), None), 1, (0, 0, 1)),
        # det-total 00 over 3 letters next to 00 over the 1 letter it uses
        ((KIND_DET_TOTAL, (0, 0), 3), 3, (0, 1, 2)),
        ((KIND_UNIQUE, (0, 0), None), 1, (0, 0, 0)),
        ((KIND_DET_TOTAL, (0, 0), 1), 1, (0, 0, 0)),
        ((KIND_COND_UNIQUE, (0, 0), (0, 1)), 1, (0, 0, 0)),
        # equal to the memo: the record put before, and one met in the batch
        known,
        ((KIND_COND_UNIQUE, (0, 0), (0, 1)), 1, (0, 0, 0)),
    ]
    cache = ResultCache(tmp_path)
    cache.put(*known)
    before = cache.path.read_text(encoding="ascii")
    cache.put_many(batch)
    written = batch[:-2]
    assert cache.path.read_text(encoding="ascii") == before + "".join(
        reference_line(*record) for record in written
    )


def test_put_get_round_trip(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.get(key("0001")) is None
    cache.put(key("0001"), 2, (0, 0, 0, 0, 1))
    assert cache.get(key("0001")) == (2, (0, 0, 0, 0, 1))
    assert cache.path.read_text(encoding="ascii") == "unique\t0001@2\t-\t2\t0,0,0,0,1\n"
    # a fresh instance reads the same record back from disk
    again = ResultCache(tmp_path)
    assert again.get(key("0001")) == (2, (0, 0, 0, 0, 1))


def test_put_many_opens_the_file_once(tmp_path, monkeypatch):
    records = [
        (key("0001"), 2, (0, 0, 0, 0, 1)),
        (key("01"), 2, (0, 0, 1)),
        ((KIND_COND_UNIQUE, (0, 1), (0, 0)), 2, (0, 0, 1)),
    ]
    one_by_one = ResultCache(tmp_path / "single")
    for record in records:
        one_by_one.put(*record)
    opened = []

    def counting_open(*args, **kwargs):
        opened.append(args[0])
        return open(*args, **kwargs)

    monkeypatch.setattr(cache_module, "open", counting_open, raising=False)
    batch = ResultCache(tmp_path / "batch")
    batch.put_many(records)
    assert len(opened) == 1
    assert batch.path.read_bytes() == one_by_one.path.read_bytes()
    # records equal to the memo are skipped, and then nothing is opened
    batch.put_many(records[:2])
    batch.put_many([])
    assert len(opened) == 1
    assert ResultCache(tmp_path / "batch").get(records[2][0]) == records[2][1:]


def test_conditional_keys_distinct(tmp_path):
    cache = ResultCache(tmp_path)
    cond = KIND_COND_UNIQUE, (0, 1), (0, 0)
    cache.put(cond, 2, (0, 0, 1))
    assert cache.get(cond) == (2, (0, 0, 1))
    assert cache.get(key("01")) is None
    assert cache.path.read_text(encoding="ascii") == "conditional-unique\t01@2\t00@1\t2\t0,0,1\n"


def test_corrupt_lines_skipped(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(key("0001"), 2, (0, 0, 0, 0, 1))
    corrupt = [
        "completely broken line",
        "unique\t0@2\t-\tnot_an_int\t0",
        # a sequence too short for the word, and one that is not slow
        "unique\t0010@2\t-\t3\t0,1",
        "unique\t0010@2\t-\t3\t0,2,1,0,0",
        # an unknown kind, and a condition of another length
        "bogus\t0@2\t-\t1\t0,0",
        "conditional-unique\t01@2\t0@1\t2\t0,0,1",
        # fields met before are parsed once, yet every line is checked: a
        # walk read above that is too long for this word, a bad word twice
        "unique\t01@2\t-\t2\t0,0,0,0,1",
        "unique\t01@x\t-\t2\t0,0,1",
        "unique\t01@x\t-\t2\t0,0,1",
    ]
    with open(cache.path, "a") as fh:
        fh.write("".join(line + "\n" for line in corrupt))
    fresh = ResultCache(tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert fresh.get(key("0001")) == (2, (0, 0, 0, 0, 1))
    assert len(caught) == len(corrupt)
    assert len(fresh) == 1
    result = compute(q_plain("0010"), cache=fresh)
    assert result.value == 3 and verify_certificate(result.certificate)[0]


def test_a_line_that_does_not_decode_is_a_corrupt_line(tmp_path, capsys):
    """A byte outside ASCII fails its own line only: the lines around it are
    served, audited and kept by ``compact``."""
    valid = ["unique\t0000@1\t-\t1\t0,0,0,0,0\n", "unique\t01@2\t-\t2\t0,1,1\n"]
    path = tmp_path / cache_module.CACHE_FILENAME
    path.write_bytes(valid[0].encode() + b"unique\t01\xe9@2\t-\t2\t0,1,1,1\n" + valid[1].encode())
    cache = ResultCache(tmp_path)
    with pytest.warns(UserWarning) as caught:
        for text, value in (("0000", 1), ("01", 2)):
            result = compute(q_plain(text), cache=cache)
            assert (result.value, result.explored) == (value, 0), text
    assert [str(w.message) for w in caught] == [f"skipping corrupt cache line 2 in {path}"]
    with pytest.warns(UserWarning, match="line 2"):
        assert main(["cache", "audit", "--cache-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out.startswith("2 cached record(s) verified and minimal")
    with pytest.warns(UserWarning, match="line 2"):
        cache.compact()
    assert path.read_text(encoding="ascii") == "".join(valid)


def cache_holding(directory, lines):
    directory.mkdir(parents=True)
    (directory / cache_module.CACHE_FILENAME).write_text("".join(lines), encoding="ascii")
    return ResultCache(directory)


def test_value_above_the_cap_is_searched_again(tmp_path):
    # the 5-state walk is a valid witness for 0101, but no value of a word of
    # length 4 exceeds max_complexity(4) = 3; the true value is 2
    bogus = ["unique\t0101@2\t-\t5\t0,1,2,3,4\n"]
    word = Word.parse("0101", 2)
    cache = cache_holding(tmp_path / "compute", bogus)
    result = compute(q_plain("0101"), cache=cache)
    assert result.value == 2 and result.explored > 0
    assert ResultCache(tmp_path / "compute").get(key("0101"))[0] == 2  # rewritten
    # an allowance above the cap does not lift it
    assert value_at_most(q_plain("0101"), 5, cache_holding(tmp_path / "at-most", bogus)) == 2
    provider = ComplexityProvider(cache_holding(tmp_path / "provider", bogus))
    assert provider.unconditional(word) == 2
    metric = ComplexityProvider(cache_holding(tmp_path / "metric", bogus))
    assert verify_metric(4, MetricKind.J, metric) == verify_metric(4, MetricKind.J)
    assert metric.unconditional(word) == 2
    # nor does it change the search of a word that holds 0101 as a factor
    factor = cache_holding(tmp_path / "factor", bogus)
    result, plain = compute(q_plain("01010"), cache=factor), compute(q_plain("01010"))
    assert (result.value, result.explored) == (plain.value, plain.explored)


# a 1-state walk is no witness for 0101, and the value is 2, not 3
FAILING_0101 = "unique\t0101@2\t-\t3\t0,0,0,0,0\n"


# a valid 3-state witness within the cap, though A(0000) = 1
OVERVALUED_0000 = "unique\t0000@1\t-\t3\t0,1,2,2,2\n"


def test_max_states_hit_is_verified_before_it_is_answered(tmp_path):
    cache = cache_holding(tmp_path / "forged", [FAILING_0101])
    assert value_at_most(q_plain("0101"), 2, cache) == 2
    valid = ResultCache(tmp_path / "valid")
    value = compute(q_plain("0010"), cache=valid).value
    assert value == 3
    assert compute(q_plain("0010"), Budget(max_states=3), ResultCache(tmp_path / "valid")).explored == 0
    # a record above the allowance answers nothing: a search proves the bound
    with pytest.raises(BudgetExceeded) as e:
        compute(q_plain("0010"), Budget(max_states=2), ResultCache(tmp_path / "valid"))
    with pytest.raises(BudgetExceeded) as plain:
        compute(q_plain("0010"), Budget(max_states=2))
    assert (e.value.lower_bound, e.value.explored) == (3, plain.value.explored)
    assert plain.value.explored > 0


def test_record_above_the_allowance_is_searched_again(tmp_path):
    cache = cache_holding(tmp_path / "cache", [OVERVALUED_0000])
    assert value_at_most(q_plain("0000"), 2, cache) == 1
    assert ResultCache(tmp_path / "cache").get(key("0000")) == (1, (0, 0, 0, 0, 0))


def test_record_of_a_factor_bounds_no_search(tmp_path):
    cache = cache_holding(tmp_path / "at-most", [OVERVALUED_0000])
    assert value_at_most(q_plain("00000"), 2, cache) == 1
    cache = cache_holding(tmp_path / "compute", [OVERVALUED_0000])
    result, plain = compute(q_plain("00000"), cache=cache), compute(q_plain("00000"))
    assert result.value == plain.value == 1 and result.explored == plain.explored
    assert ResultCache(tmp_path / "compute").get(key("00000"))[0] == 1


def test_det_total_hit_check_proves_no_lower_bound(tmp_path):
    # the 3-state walk completes to a total DFA on 3 states, but det-total
    # 01 has value 2: a hit check that runs out of nodes while completing
    # the record has proven only the bound 1, not the record's value
    forged = ["det-total\t01@2\t-\t3\t0,1,2\n"]
    query = ComplexityQuery(KIND_DET_TOTAL, Word.parse("01", 2))
    with pytest.raises(BudgetExceeded) as e:
        value_at_most(query, 2, cache_holding(tmp_path / "at-most", forged), max_nodes=1)
    assert e.value.lower_bound == 1
    with pytest.raises(BudgetExceeded) as e:
        compute(query, Budget(max_nodes=1), cache_holding(tmp_path / "compute", forged))
    assert (e.value.lower_bound, e.value.explored) == (1, 2)


def test_failing_factor_record_changes_no_search(tmp_path):
    cache = cache_holding(tmp_path / "cache", [FAILING_0101])
    result = compute(q_plain("01010"), cache=cache)
    assert result.value == 2 and verify_certificate(result.certificate)[0]
    assert result.explored == compute(q_plain("01010")).explored
    lines = cache.path.read_text(encoding="ascii").splitlines()
    assert lines[0] == FAILING_0101.strip()
    assert [line.split("\t")[:4] for line in lines[1:]] == [["unique", "01010@2", "-", "2"]]


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("sequence", [(0, 1), (0, 2, 1, 1, 1)], ids=["short", "not-slow"])
def test_a_record_that_is_no_walk_over_the_word_is_searched_again(kind, sequence):
    """A record put through the API whose sequence is too short for the
    word, or not slow, is refused by the hit check, not raised on: the
    query is searched and its record rewritten."""
    condition = Word.parse("0110", 2) if KINDS[kind].conditional else None
    query = ComplexityQuery(kind, Word.parse("0010", 2), condition)
    cache = ResultCache()
    key = complexity_module.canonical_key(complexity_module.memo_key(query))
    cache.put(key, 2, sequence)
    result = compute(query, cache=cache)
    searched = compute(query)
    assert result.explored > 0 and verify_certificate(result.certificate)[0]
    assert (result.value, result.certificate) == (searched.value, searched.certificate)
    assert cache.get(key) != (2, sequence) and cache.get(key)[0] == searched.value


@pytest.mark.parametrize("line, value", [
    # the walk has 2 states: a total DFA on 4 is neither the walk filled in
    # nor the walk plus a dead state, so none is built
    (("det-total", "0001@2", "-", "4", "0,0,0,0,1"), 3),
    # the walk's certificate verifies, on 1 state, not 2
    (("exact", "0000@1", "-", "2", "0,0,0,0,0"), 1),
], ids=["det-total-two-above-the-walk", "exact-on-fewer-states"])
def test_a_record_whose_certificate_has_other_states_is_searched_again(tmp_path, line, value):
    cache = cache_holding(tmp_path / "cache", ["\t".join(line) + "\n"])
    query = line_query(*line[:3])
    result = compute(query, cache=cache)
    assert result.value == value and result.explored > 0
    key = complexity_module.canonical_key(complexity_module.memo_key(query))
    assert ResultCache(tmp_path / "cache").get(key)[0] == value  # rewritten


def line_query(kind, target, condition):
    """The query of a cache line's kind and word fields."""
    return ComplexityQuery(kind, parse_word(target), None if condition == "-" else parse_word(condition))


# a first line on a walk, then a line on the same walk that must not be
# served from the shape the first one proved, if it proved one
@pytest.mark.parametrize("first, forged, first_holds", [
    pytest.param(
        # the one-state loop spells only constant words
        ("unique", "0000@1", "-", "1", "0,0,0,0,0"),
        ("unique", "0101@2", "-", "1", "0,0,0,0,0"),
        True,
        id="target-not-constant-on-the-partition",
    ),
    pytest.param(
        # a walk that enters state 1 at any of 3 steps witnesses no word
        ("unique", "000@1", "-", "2", "0,0,1,1"),
        ("unique", "001@2", "-", "2", "0,0,1,1"),
        False,
        id="shape-whose-check-failed",
    ),
    pytest.param(
        # the walk reads 012 once, but 000 three times
        ("conditional-unique", "000@1", "012@3", "2", "0,0,1,1"),
        ("conditional-unique", "001@2", "000@1", "2", "0,0,1,1"),
        True,
        id="same-walk-other-condition",
    ),
    pytest.param(
        # the walk is a witness on 1 state, not 2
        ("conditional-unique", "00@1", "01@2", "1", "0,0,0"),
        ("conditional-unique", "01@2", "01@2", "2", "0,0,0"),
        True,
        id="value-not-the-state-count",
    ),
])
def test_forged_lines_on_a_known_shape_are_searched_again(tmp_path, first, forged, first_holds):
    cache = cache_holding(tmp_path / "cache", ["\t".join(first) + "\n", "\t".join(forged) + "\n"])
    served = compute(line_query(*first[:3]), cache=cache)
    assert (served.explored == 0 and str(served.value) == first[3]) == first_holds
    query = line_query(*forged[:3])
    result = compute(query, cache=cache)
    searched = compute(query)
    assert result.explored > 0 and verify_certificate(result.certificate)[0]
    assert (result.value, result.certificate) == (searched.value, searched.certificate)


def test_audit_checks_every_line_in_full(tmp_path, monkeypatch):
    """``cache audit`` checks each line in full, even after hits have proven
    every walk shape of the file, fewer shapes than lines."""
    cache = ResultCache(tmp_path)
    distribution_table(5, ComplexityProvider(cache))
    served = ComplexityProvider(cache)
    distribution_table(5, served)
    shapes = {
        ((0,) * len(x) if y is None else y, sequence) for (_kind, x, y), (_value, sequence) in cache._memo.items()
    }
    assert 0 < len(shapes) < len(cache)
    assert all(complexity_module._shape_index(*shape) is not None for shape in shapes)
    checked = []
    real = complexity_module.verify_certificate
    monkeypatch.setattr(
        complexity_module, "verify_certificate", lambda cert: checked.append(cert) or real(cert)
    )
    reasons = [reason for _lineno, _line, reason in cache.audit()]
    assert reasons == [None] * len(cache)
    assert len(checked) == len(cache)


def test_compaction_dedupes(tmp_path):
    cache = ResultCache(tmp_path)
    for _ in range(3):
        fresh = ResultCache(tmp_path)
        fresh.put(key("0001"), 2, (0, 0, 0, 0, 1))
    cache = ResultCache(tmp_path)
    cache.compact()
    with open(cache.path) as fh:
        lines = [line for line in fh if line.strip()]
    assert len(lines) == 1
    assert ResultCache(tmp_path).get(key("0001")) == (2, (0, 0, 0, 0, 1))


def test_clear(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(key("0001"), 2, (0, 0, 0, 0, 1))
    cache.clear()
    assert len(cache) == 0
    assert not cache.path.exists()


def test_memory_only_cache(monkeypatch):
    # a memory-only cache stores records and formats no line
    def no_line(*args):
        raise AssertionError("a line was formatted for no file")

    monkeypatch.setattr(ResultCache, "_format_line", staticmethod(no_line))
    cache = ResultCache(None)
    cache.put(key("0001"), 2, (0, 0, 0, 0, 1))
    cache.put_many([(key("01"), 2, (0, 0, 1)), ((KIND_COND_UNIQUE, (0, 1), (0, 0)), 2, (0, 0, 1))])
    assert cache.get(key("0001")) == (2, (0, 0, 0, 0, 1))
    assert cache.get((KIND_COND_UNIQUE, (0, 1), (0, 0))) == (2, (0, 0, 1))
    assert len(cache) == 3 and cache.path is None
    provider = ComplexityProvider()
    distribution_table(4, provider)
    assert len(provider.cache) > 0


def test_from_environment(tmp_path, monkeypatch):
    monkeypatch.delenv("AUTOCOMPLEXITY_CACHE_DIR", raising=False)
    assert ResultCache.from_environment(None) is None
    monkeypatch.setenv("AUTOCOMPLEXITY_CACHE_DIR", str(tmp_path))
    cache = ResultCache.from_environment(None)
    assert cache is not None and cache.directory == tmp_path
    override = ResultCache.from_environment(str(tmp_path / "other"))
    assert override is not None and override.directory == tmp_path / "other"
