"""Vocabulary types and the exact per-set fractions."""

import base64
import gc
import itertools
import json
import string
import tracemalloc
import types
from fractions import Fraction
from json.encoder import encode_basestring_ascii

import pytest
from hypothesis import example, given, settings as hsettings, strategies as st

from bellgame import core, protocol
from bellgame.core import (
    ALL_SETTING_PAIRS,
    INSTRUCTION_SETS,
    SETTINGS,
    Color,
    InstructionSet,
    RunRecord,
    Setting,
    SettingPair,
    _canonical_record,
    _json_record,
    canonical_json,
    same_color_fraction,
)
from bellgame.protocol import RunConfig, run_experiment
from bellgame.quantum import quantum_experiment
from bellgame.strategies import near_leak_strategy, negotiation_strategy

# Independent oracle: brute-force count over the 9 pairs, frozen by hand.
# A non-constant triple matches on the 3 diagonal pairs plus the two orders
# of the one unequal pair sharing the repeated color.
EXPECTED_FRACTIONS = {
    "RRG": Fraction(5, 9),
    "RGR": Fraction(5, 9),
    "GRR": Fraction(5, 9),
    "GGR": Fraction(5, 9),
    "GRG": Fraction(5, 9),
    "RGG": Fraction(5, 9),
    "RRR": Fraction(1),
    "GGG": Fraction(1),
}


def brute_force_fraction(iset):
    hits = 0
    for a, b in itertools.product(SETTINGS, repeat=2):
        if iset.color_for(a) is iset.color_for(b):
            hits += 1
    return Fraction(hits, 9)


class TestEnumeration:
    def test_canonical_order(self):
        labels = [i.label for i in INSTRUCTION_SETS]
        assert labels == ["RRG", "RGR", "GRR", "GGR", "GRG", "RGG", "RRR", "GGG"]

    def test_exactly_eight_distinct(self):
        sets = INSTRUCTION_SETS
        assert len(sets) == 8
        assert len(set(sets)) == 8

    def test_covers_all_functions(self):
        # 2^3 total maps Setting -> Color
        every = {
            InstructionSet(*combo)
            for combo in itertools.product((Color.R, Color.G), repeat=3)
        }
        assert set(INSTRUCTION_SETS) == every

    def test_nine_setting_pairs(self):
        assert len(ALL_SETTING_PAIRS) == 9
        assert len(set(ALL_SETTING_PAIRS)) == 9


class TestSameColorFraction:
    @pytest.mark.parametrize("label,expected", sorted(EXPECTED_FRACTIONS.items()))
    def test_frozen_values(self, label, expected):
        assert same_color_fraction(InstructionSet.from_label(label)) == expected

    def test_matches_brute_force(self):
        for iset in INSTRUCTION_SETS:
            assert same_color_fraction(iset) == brute_force_fraction(iset)

    def test_minimum_is_exactly_five_ninths(self):
        assert min(same_color_fraction(i) for i in INSTRUCTION_SETS) == Fraction(5, 9)

    def test_bounds_and_equality_cases(self):
        for iset in INSTRUCTION_SETS:
            f = same_color_fraction(iset)
            assert Fraction(5, 9) <= f <= 1
            assert (f == 1) == (len(set(iset)) == 1)

    @given(st.sampled_from(INSTRUCTION_SETS))
    def test_invariant_under_global_flip(self, iset):
        flipped = InstructionSet(*(Color.G if c is Color.R else Color.R for c in iset))
        assert same_color_fraction(flipped) == same_color_fraction(iset)

    @given(
        st.sampled_from(INSTRUCTION_SETS),
        st.permutations(SETTINGS),
    )
    def test_invariant_under_setting_permutation(self, iset, perm):
        permuted = InstructionSet(*(iset.color_for(s) for s in perm))
        assert same_color_fraction(permuted) == same_color_fraction(iset)


def test_three_of_nine_setting_pairs_equal():
    # two independent uniform settings coincide on 3 of the 9 pairs: 1/3
    equal = [pair for pair in ALL_SETTING_PAIRS if pair.left is pair.right]
    assert len(equal) == 3
    assert Fraction(len(equal), len(ALL_SETTING_PAIRS)) == Fraction(1, 3)


def test_setting_ordering():
    assert list(SETTINGS) == sorted(SETTINGS)
    assert Setting.ONE < Setting.TWO < Setting.THREE
    assert len(set(SETTINGS)) == 3


def test_instruction_set_label_roundtrip():
    for iset in INSTRUCTION_SETS:
        assert InstructionSet.from_label(iset.label) == iset


@pytest.mark.parametrize("bad", ["RR", "RGBX", "rgg", "RGB", ""])
def test_instruction_set_rejects_bad_labels(bad):
    with pytest.raises(ValueError):
        InstructionSet.from_label(bad)


def test_a_color_prints_as_its_letter():
    assert str(Color.R) == "R"
    assert f"{Color.G}" == "G"


def _dict_line(record):
    """The dict-building encoder that ``to_json_line`` replaced, kept as the
    reference: the record as nested dicts, through ``canonical_json``."""
    frames = [
        {"sender": "R" if i & 1 else "L", "round": i // 2 + 1, "payload": base64.b64encode(p).decode("ascii")}
        for i, p in enumerate(record.transcript)
    ]
    return canonical_json(
        {
            "run": record.run_index,
            "settings": [int(record.settings.left), int(record.settings.right)],
            "colors": record.colors[0].value + record.colors[1].value,
            "seed": str(record.seed),
            "strategy": record.strategy_id,
            "transcript": frames,
        }
    )


# Any record: 0-40 rounds of 0-300-byte payloads (every base64 tail), seeds
# over the whole 64-bit range, large run indices, every color and setting
# pair, and strategy ids with quotes, backslashes, control characters,
# non-ASCII and lone surrogates
PAYLOADS = st.one_of(
    st.binary(max_size=300),
    # hypothesis keeps binaries short, so long payloads also come from a length
    st.builds(lambda n, b: bytes((b + 83 * i) & 0xFF for i in range(n)), st.integers(0, 300), st.integers(0, 255)),
)
RECORDS = st.builds(
    RunRecord,
    run_index=st.one_of(st.integers(min_value=0), st.integers(min_value=2**31, max_value=2**80)),
    settings=st.sampled_from(ALL_SETTING_PAIRS),
    colors=st.tuples(st.sampled_from(Color), st.sampled_from(Color)),
    transcript=st.integers(0, 40)
    .flatmap(lambda rounds: st.lists(PAYLOADS, min_size=2 * rounds, max_size=2 * rounds))
    .map(tuple),
    seed=st.one_of(st.integers(0, 2**64 - 1), st.integers(2**63, 2**64 - 1)),
    strategy_id=st.text(
        st.one_of(
            st.sampled_from('"\\\n\x00\x1f\x7fé'),
            st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF),
            st.characters(exclude_categories=()),
        )
    ),
)


def _refused_id(strategy_id: str) -> bool:
    """Whether ``to_json_line`` refuses this id: an empty one, or one holding
    a surrogate code point."""
    return not strategy_id or any("\ud800" <= ch <= "\udfff" for ch in strategy_id)


class TestRunRecordSerialization:
    def _record(self):
        transcript = (b"\x01" + bytes(31), bytes(32))
        return RunRecord(
            run_index=5,
            settings=SettingPair(Setting.ONE, Setting.THREE),
            colors=(Color.R, Color.G),
            transcript=transcript,
            seed=2**63 + 17,
            strategy_id="negotiation",
        )

    def test_roundtrip(self):
        rec = self._record()
        again = RunRecord.from_json_line(rec.to_json_line())
        assert again == rec

    def test_wire_fields(self):
        import json

        obj = json.loads(self._record().to_json_line())
        assert obj["settings"] == [1, 3]
        assert obj["colors"] == "RG"
        assert obj["seed"] == str(2**63 + 17)  # decimal string: 64-bit safe
        assert obj["strategy"] == "negotiation"
        assert [m["sender"] for m in obj["transcript"]] == ["L", "R"]
        assert [m["round"] for m in obj["transcript"]] == [1, 1]
        import base64

        assert base64.b64decode(obj["transcript"][0]["payload"])[0] == 1

    @given(RECORDS)
    def test_same_line_as_the_dict_encoder(self, rec):
        if _refused_id(rec.strategy_id):
            with pytest.raises(ValueError, match="^strategy id must be non-empty"):
                rec.to_json_line()
        else:
            assert rec.to_json_line() == _dict_line(rec)

    @given(st.integers(-(2**70), 2**80), st.integers(-(2**70), 2**70))
    @example(-1, 0)
    @example(0, -1)
    @example(0, 2**64 - 1)
    @example(0, 2**64)
    def test_the_writer_writes_only_lines_the_reader_reads(self, run_index, seed):
        rec = self._record()._replace(run_index=run_index, seed=seed)
        try:
            line = rec.to_json_line()
        except ValueError:
            assert run_index < 0 or not 0 <= seed < 2**64
            return
        assert RunRecord.from_json_line(line) == rec

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("run_index", -1, "run index must be >= 0, got -1"),
            ("seed", -5, "seed must be in [0, 2**64), got -5"),
            ("seed", 2**64, "seed must be in [0, 2**64), got 18446744073709551616"),
        ],
    )
    def test_the_writer_names_the_field_it_refuses(self, field, value, message):
        with pytest.raises(ValueError) as refused:
            self._record()._replace(**{field: value}).to_json_line()
        assert str(refused.value) == message

    def test_single_line(self):
        assert "\n" not in self._record().to_json_line()

    def test_plain_tuple_fields(self):
        rec = self._record()
        assert isinstance(rec, tuple)
        assert RunRecord._fields == (
            "run_index", "settings", "colors", "transcript", "seed", "strategy_id"
        )
        assert type(rec.transcript) is tuple


def _first_record_line(run):
    """A real record line: run 0 of ``run(n_runs, master_seed, sink=...)``."""
    import io

    sink = io.StringIO()
    run(1, 7, sink=sink)
    return sink.getvalue().splitlines()[1]


def _strategy_line(strategy, config=RunConfig()):
    return _first_record_line(lambda n, seed, sink: run_experiment(config, strategy, n, seed, sink=sink))


# run 0 of negotiation at the default config
REAL_LINE = _strategy_line(negotiation_strategy())
REAL_OBJ = json.loads(REAL_LINE)
# Left's round-1 proposal and Right's round-1 filler, as written
PAYLOAD_L1 = REAL_OBJ["transcript"][0]["payload"]
PAYLOAD_R1 = REAL_OBJ["transcript"][1]["payload"]


def _key_paths(obj, path=()):
    """The path to every key in a parsed record, nested ones included."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield path + (key,)
            yield from _key_paths(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _key_paths(value, path + (i,))


KEY_PATHS = list(_key_paths(REAL_OBJ))


def _with(path, value=None, delete=False):
    """The real record line with the value at ``path`` set or deleted."""
    obj = json.loads(REAL_LINE)
    parent = obj
    for step in path[:-1]:
        parent = parent[step]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return canonical_json(obj)


# Seeds of decimal digits outside ASCII: int() refuses the first two and
# reads the third as 3
NON_ASCII_SEEDS = ["\u00b2", "1\u00b2", "\u0663"]
# Values to_json_line never writes: wrong type, length or range, an entry
# out of its place, a payload or seed not in its one canonical form, or a
# key it never writes.
CORRUPT_VALUES = [
    (("transcript",), "not a list"),
    (("transcript",), {}),
    (("transcript",), None),
    (("transcript", 0), "L"),
    (("colors",), "RRG"),
    (("colors",), "R"),
    (("colors",), ["R", "G"]),
    (("colors",), "RX"),
    (("settings",), [2, 3, 1]),
    (("settings",), [2]),
    (("settings",), [2, 4]),
    (("settings",), [True, 2]),
    (("settings",), "23"),
    (("run",), True),
    (("run",), -1),
    (("run",), "0"),
    (("seed",), 5),
    (("seed",), " 5"),
    (("seed",), "-5"),
    (("seed",), str(2**64)),
    (("seed",), "000" + REAL_OBJ["seed"]),
    (("seed",), "0" + REAL_OBJ["seed"]),
    *[(("seed",), seed) for seed in NON_ASCII_SEEDS],
    (("strategy",), ""),
    (("strategy",), None),
    (("transcript", 0, "round"), "1"),
    (("transcript", 0, "round"), 1.0),
    (("transcript", 0, "round"), 0),
    (("transcript", 0, "sender"), "X"),
    (("transcript", 0, "sender"), ["L"]),
    (("transcript", 0, "payload"), 3),
    (("transcript", 0, "payload"), "é"),
    (("transcript", 0, "payload"), "AAA"),
    (("transcript", 0, "sender"), "R"),
    (("transcript", 1, "sender"), "L"),
    (("transcript", 2, "round"), 1),
    (("transcript", 1, "round"), 2),
    (("transcript", 1, "round"), True),
    (("transcript", 0, "payload"), PAYLOAD_L1[:4] + "!*" + PAYLOAD_L1[4:]),
    (("transcript", 0, "payload"), PAYLOAD_L1[:8] + " " + PAYLOAD_L1[8:]),
    (("transcript", 0, "payload"), PAYLOAD_L1[:8] + "\n" + PAYLOAD_L1[8:]),
    (("transcript", 0, "payload"), PAYLOAD_L1 + "!*"),
    (("transcript", 1, "payload"), PAYLOAD_R1[:-2] + "B="),
    (("extra",), 1),
    (("transcript", 0, "x"), 1),
]


# Lines holding a valid record in a spelling to_json_line never writes
FORGED_LINES = {
    "duplicate-key": REAL_LINE[:-1] + ',"run":5}',
    "whitespace": json.dumps(REAL_OBJ, sort_keys=True),
    "key-order": json.dumps(dict(reversed(REAL_OBJ.items())), separators=(",", ":")),
    "escaped-letter": REAL_LINE.replace('"strategy":"negotiation"', '"strategy":"\\u006eegotiation"'),
    "trailing-newline": REAL_LINE + "\n",
}


class TestRunRecordParsing:
    def test_real_line_parses_and_round_trips(self):
        rec = RunRecord.from_json_line(REAL_LINE)
        assert rec.to_json_line() == REAL_LINE
        assert len(rec.transcript) == 8

    @given(st.integers(min_value=0, max_value=len(REAL_LINE) - 1))
    def test_every_truncation_rejected(self, cut):
        with pytest.raises(ValueError):
            RunRecord.from_json_line(REAL_LINE[:cut])

    @given(st.sampled_from(KEY_PATHS))
    def test_every_key_deletion_rejected(self, path):
        with pytest.raises(ValueError):
            RunRecord.from_json_line(_with(path, delete=True))

    @pytest.mark.parametrize(
        "path, value",
        CORRUPT_VALUES,
        ids=[f"{'.'.join(map(str, p))}={json.dumps(v)}" for p, v in CORRUPT_VALUES],
    )
    def test_corrupt_value_rejected(self, path, value):
        with pytest.raises(ValueError):
            RunRecord.from_json_line(_with(path, value))

    @pytest.mark.parametrize("seed", NON_ASCII_SEEDS)
    def test_non_ascii_seed_digits_rejected_as_a_seed(self, seed):
        with pytest.raises(ValueError, match="seed must be a 64-bit decimal string"):
            RunRecord.from_json_line(_with(("seed",), seed))

    @pytest.mark.parametrize("kind", sorted(FORGED_LINES))
    def test_forged_spelling_rejected(self, kind):
        line = FORGED_LINES[kind]
        assert line != REAL_LINE
        with pytest.raises(ValueError, match="not the line to_json_line writes for it"):
            RunRecord.from_json_line(line)

    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_a_line_read_with_its_break_says_so(self, end):
        # for line in open(path) keeps the break, past the 80 characters the message quotes
        with pytest.raises(ValueError, match=r"writes for it: '.*; it ends with a line break, which to_json_line never writes$"):
            RunRecord.from_json_line(REAL_LINE + end)

    @pytest.mark.parametrize(
        "line",
        [
            "[]", "null", "7", '"x"', "{}", "",
            # nested past the parser's recursion limit
            pytest.param("[" * 100_000, id="deep-list"),
            pytest.param('{"colors":"RR","run":' + "[" * 100_000, id="deep-run"),
        ],
    )
    def test_non_record_json_rejected(self, line):
        with pytest.raises(ValueError):
            RunRecord.from_json_line(line)

    def test_rejects_wrong_alternation(self):
        obj = json.loads(REAL_LINE)
        entries = obj["transcript"]
        entries[0], entries[1] = entries[1], entries[0]
        with pytest.raises(ValueError, match="transcript entry 0 must be sent by L in round 1, got 'R' in round 1"):
            RunRecord.from_json_line(canonical_json(obj))

    def test_rejects_odd_entry_count(self):
        obj = json.loads(REAL_LINE)
        del obj["transcript"][-1]
        with pytest.raises(ValueError, match="transcript must be a list of whole rounds"):
            RunRecord.from_json_line(canonical_json(obj))

    def test_writer_rejects_odd_payload_count(self):
        rec = RunRecord.from_json_line(REAL_LINE)._replace(transcript=(bytes(32),))
        with pytest.raises(ValueError, match="a transcript holds whole rounds, got 1 payloads"):
            rec.to_json_line()

    @pytest.mark.parametrize("payload_bytes", range(1, 7))
    def test_every_frame_size_round_trips(self, payload_bytes):
        # every base64 tail: no padding, one "=" and two "=", with all pad bits zero
        obj = json.loads(REAL_LINE)
        for i, entry in enumerate(obj["transcript"]):
            entry["payload"] = base64.b64encode(bytes([0xFF - i]) * payload_bytes).decode("ascii")
        line = canonical_json(obj)
        assert RunRecord.from_json_line(line).to_json_line() == line


# real lines for the parser to agree on: two strategies at the default
# shape, the oracle's empty transcript and 32 rounds of 256-byte frames
DIFFERENTIAL_LINES = {
    "negotiation": REAL_LINE,
    "near-leak": _strategy_line(near_leak_strategy()),
    "oracle": _first_record_line(quantum_experiment),
    "near-leak-32x256": _strategy_line(near_leak_strategy(256), RunConfig(rounds=32, payload_bytes=256)),
}
# JSON's structural characters, digits, letters, base64's three others, a
# non-ASCII letter and a newline
EDIT_CHARS = '{}[]",:\\ ' + string.digits + string.ascii_letters + "+/=\u00e9\n"


@st.composite
def _edited_lines(draw):
    """A real record line with one character inserted, deleted or replaced."""
    line = DIFFERENTIAL_LINES[draw(st.sampled_from(sorted(DIFFERENTIAL_LINES)))]
    at = draw(st.integers(0, len(line)))
    edit = draw(st.sampled_from(("insert", "delete", "replace")))
    char = draw(st.sampled_from(EDIT_CHARS))
    if edit == "insert":
        return line[:at] + char + line[at:]
    return line[:at] + (char if edit == "replace" else "") + line[at + 1 :]


def _outcome(parse, line):
    """The record ``parse`` returns for ``line``, or its ValueError's message."""
    try:
        return parse(line)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _by_json(line):
    return _json_record(RunRecord, line)


class TestParserAgreesWithJson:
    """``from_json_line`` reads a canonical line by pattern; the json parser
    it falls back to is the reference for every other line."""

    @pytest.mark.parametrize("kind", sorted(DIFFERENTIAL_LINES))
    def test_real_lines_take_the_pattern_path(self, kind):
        line = DIFFERENTIAL_LINES[kind]
        record = _canonical_record(RunRecord, line)
        assert record is not None
        assert record == _by_json(line) == RunRecord.from_json_line(line)

    @hsettings(max_examples=400, deadline=None)
    @given(_edited_lines())
    def test_one_edit_parses_alike(self, line):
        assert _outcome(RunRecord.from_json_line, line) == _outcome(_by_json, line)

    @hsettings(deadline=None)
    @given(RECORDS)
    def test_any_record_parses_alike(self, rec):
        # a record is written only if it reads back: an empty id, or one
        # holding a surrogate code point, is refused by the writer
        try:
            line = rec.to_json_line()
        except ValueError:
            assert _refused_id(rec.strategy_id)
            return
        assert RunRecord.from_json_line(line) == rec
        assert _outcome(RunRecord.from_json_line, line) == _outcome(_by_json, line)

    @pytest.mark.parametrize("strategy_id", ['a"b', "a\\b", "\u00e9", "\x01"])
    def test_ids_that_need_escapes_round_trip(self, strategy_id):
        rec = RunRecord.from_json_line(REAL_LINE)._replace(strategy_id=strategy_id)
        line = rec.to_json_line()
        assert _canonical_record(RunRecord, line) is None
        assert RunRecord.from_json_line(line) == rec

    def test_run_index_past_the_int_digit_limit_rejected(self):
        line = REAL_LINE.replace('"run":0,', '"run":' + "1" * 5000 + ",", 1)
        assert line != REAL_LINE
        with pytest.raises(ValueError):
            RunRecord.from_json_line(line)
        assert _outcome(RunRecord.from_json_line, line) == _outcome(_by_json, line)


def _retained_bytes(work) -> int:
    """The memory still held, by tracemalloc, once ``work()`` has returned."""
    gc.collect()
    tracemalloc.start()
    try:
        work()
        gc.collect()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


class TestBoundedMemos:
    """The templates kept per payload or round count stay few, whatever
    counts a process meets: reading a stream must not grow memory for
    good (at most 16 templates are kept, about 0.4 MB of these)."""

    def test_reading_many_payload_counts(self):
        # spelled without the writer, which would fill the memo first
        lines = [
            canonical_json(
                {
                    "colors": "RG", "run": 0, "seed": "7", "settings": [1, 2], "strategy": "s",
                    "transcript": [
                        {"payload": "", "round": i // 2 + 1, "sender": "R" if i & 1 else "L"} for i in range(count)
                    ],
                }
            )
            for count in range(2, 602, 2)
        ]
        # an unbounded memo keeps all 300 templates: 3.8 MB
        assert _retained_bytes(lambda: [RunRecord.from_json_line(line) for line in lines]) < 1_000_000

    def test_cutting_many_round_counts(self):
        # an unbounded memo keeps all 300 cutters: 1.7 MB
        assert _retained_bytes(lambda: [protocol._slice_cutter(rounds) for rounds in range(1, 301)]) < 500_000


def _raw_line(run="5", seed="7", strategy="neg", payloads=("AAAA", "AAA=")):
    """A record line spelled field by field, each payload's entry in the
    place its position fixes."""
    entries = ",".join(
        f'{{"payload":"{payload}","round":{i // 2 + 1},"sender":"{"R" if i & 1 else "L"}"}}'
        for i, payload in enumerate(payloads)
    )
    return (
        f'{{"colors":"RG","run":{run},"seed":"{seed}","settings":[1,3],"strategy":"{strategy}",'
        f'"transcript":[{entries}]}}'
    )


# Ids the pattern does not read, each spelled raw and as to_json_line
# escapes it: every ASCII control character, DEL, '"', '\', a non-ASCII
# letter and a surrogate pair (an astral character escaped)
_ODD_ID_CHARS = [chr(c) for c in range(0x20)] + ["\x7f", '"', "\\", "\u00e9", "\ud83d\ude00"]
_PATTERN_CASES = {
    "canonical": (_raw_line(), True),
    **{f"raw-id-{ord(ch[0]):04x}": (_raw_line(strategy=f"a{ch}b"), False) for ch in _ODD_ID_CHARS},
    **{
        f"escaped-id-{ord(ch[0]):04x}": (_raw_line(strategy=encode_basestring_ascii(f"a{ch}b")[1:-1]), False)
        for ch in _ODD_ID_CHARS
    },
    "run-00": (_raw_line(run="00"), False),
    "run-07": (_raw_line(run="07"), False),
    "seed-07": (_raw_line(seed="07"), False),
    "seed-2**64-1": (_raw_line(seed=str(2**64 - 1)), True),
    "seed-2**64": (_raw_line(seed=str(2**64)), False),
    "trailing-bits": (_raw_line(payloads=("AAAA", "AAB=")), False),
    "missing-padding": (_raw_line(payloads=("AAAA", "AAA")), False),
    "extra-padding": (_raw_line(payloads=("AAAA", "AAA==")), False),
    "padded-full-block": (_raw_line(payloads=("AAAA====", "AAA=")), False),
    "space": (_raw_line(payloads=("AA AA", "AAA=")), False),
    "raw-line-break": (_raw_line(payloads=("AA\nAA", "AAA=")), False),
    "escaped-line-break": (_raw_line(payloads=("AA\\nAA", "AAA=")), False),
    "u-escape": (_raw_line(payloads=("\\u0041AAA", "AAA=")), False),
    "odd-entry-count": (_raw_line(payloads=("AAAA", "AAA=", "AAAA")), False),
}


class TestCanonicalPattern:
    """The pattern path reads only a line whose every field is spelled as
    ``to_json_line`` spells it, and proves the payloads by encoding them
    again; ``from_json_line`` agrees with the json parser on every case."""

    @pytest.mark.parametrize("kind", sorted(_PATTERN_CASES))
    def test_reads_only_canonical_lines(self, kind):
        line, canonical = _PATTERN_CASES[kind]
        record = _canonical_record(RunRecord, line)
        if canonical:
            assert record == _by_json(line)
            assert record.to_json_line() == line
        else:
            assert record is None
        assert _outcome(RunRecord.from_json_line, line) == _outcome(_by_json, line)

    @pytest.mark.parametrize("kind", sorted(DIFFERENTIAL_LINES))
    def test_the_pattern_path_writes_no_line(self, kind, monkeypatch):
        line = DIFFERENTIAL_LINES[kind]
        expected = _by_json(line)

        def refuse(record):
            raise AssertionError("the pattern path wrote the record's line")

        monkeypatch.setattr(core, "_record_line", refuse)
        assert _canonical_record(RunRecord, line) == expected

    @pytest.mark.parametrize("kind", [bytes, bytearray, type(None)])
    def test_a_line_that_is_not_str_is_a_type_error(self, kind):
        line = None if kind is type(None) else kind(REAL_LINE.encode("ascii"))
        message = f"^a record line must be a str, got {kind.__name__}: decode it as ASCII first$"
        with pytest.raises(TypeError, match=message):
            RunRecord.from_json_line(line)


# The names ``bellgame`` exports, written out so that any change to the
# public surface is an edit here as well as in a module's ``__all__``.
PUBLIC_NAMES = {
    "__version__",
    # analysis
    "BoundReport",
    "ExperimentStats",
    "FeatureIIResult",
    "GapReport",
    "bell_gap_report",
    "check_feature_i",
    "check_feature_ii",
    "hoeffding_radius",
    "prove_bound",
    # censor
    "CensorViolation",
    "Violation",
    "verify_transcript_invariance",
    "vet_emission",
    # core
    "ALL_SETTING_PAIRS",
    "INSTRUCTION_SETS",
    "SETTINGS",
    "Color",
    "InstructionSet",
    "RunRecord",
    "Setting",
    "SettingPair",
    "Wing",
    "same_color_fraction",
    # protocol
    "ExperimentAborted",
    "ProtocolError",
    "ReplayMismatchError",
    "RunConfig",
    "draw_settings",
    "execute_run",
    "induced_instruction_set",
    "run_experiment",
    # quantum
    "QUANTUM_ORACLE_ID",
    "quantum_experiment",
    "sample_quantum_run",
    "singlet_joint",
    # randomness
    "ByteStream",
    "derive_run_seed",
    "mix64",
    # strategies
    "StrategyError",
    "WingStrategy",
    "build_registry",
    "cheat_strategy",
    "fixed_instruction_strategy",
    "negotiation_strategy",
    "validate_strategy",
}

# The modules whose ``__all__`` lists ``bellgame`` re-exports, in order.
PUBLIC_MODULES = ("analysis", "censor", "core", "protocol", "quantum", "randomness", "strategies")


class TestPublicExports:
    def test_public_surface_is_pinned(self):
        import bellgame

        assert set(bellgame.__all__) == PUBLIC_NAMES

    def test_every_export_resolves(self):
        import bellgame

        assert len(set(bellgame.__all__)) == len(bellgame.__all__)
        for name in bellgame.__all__:
            assert getattr(bellgame, name, None) is not None, name

    @pytest.mark.parametrize(
        "name",
        [
            "Transcript",
            "EMPTY_TRANSCRIPT",
            "adversarial_strategy_suite",
            "QuantumJoint",
            "state_transition_guard",
            "Message",
            "validate_transcript",
        ],
    )
    def test_removed_names_stay_removed(self, name):
        import bellgame

        assert name not in bellgame.__all__
        assert not hasattr(bellgame, name)

    @pytest.mark.parametrize("name", ["flipped", "permuted"])
    def test_removed_instruction_set_methods_stay_removed(self, name):
        assert not hasattr(InstructionSet, name)

    def test_removed_color_flip_stays_removed(self):
        assert not hasattr(Color, "flip")

    def test_raised_and_returned_types_are_exported(self):
        from bellgame import FeatureIIResult, ReplayMismatchError, StrategyError, analysis, protocol, strategies

        assert StrategyError is strategies.StrategyError
        assert ReplayMismatchError is protocol.ReplayMismatchError
        assert FeatureIIResult is analysis.FeatureIIResult

    def test_all_is_version_then_each_module_list(self):
        import bellgame

        lists = [getattr(bellgame, module).__all__ for module in PUBLIC_MODULES]
        names = [name for names in lists for name in names]
        assert bellgame.__all__ == ["__version__", *names]
        assert len(set(names)) == len(names)

    @pytest.mark.parametrize("module", PUBLIC_MODULES)
    def test_exports_are_their_modules_objects(self, module):
        import bellgame

        mod = getattr(bellgame, module)
        for name in mod.__all__:
            obj = getattr(mod, name)
            assert getattr(bellgame, name) is obj, name
            if isinstance(obj, (type, types.FunctionType)):
                assert obj.__module__ == mod.__name__, name
