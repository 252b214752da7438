"""Domain vocabulary for the two-wing flash game.

Settings, colors, instruction sets, setting pairs, transcripts and
replayable run records. All probabilities that matter here are exact
rationals (``fractions.Fraction``); the 5/9 floor is a theorem check, not a
float comparison.
"""

from __future__ import annotations

import json
import re
from binascii import a2b_base64, b2a_base64
from enum import Enum, IntEnum
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

__all__ = [
    "Setting",
    "SETTINGS",
    "Color",
    "Wing",
    "InstructionSet",
    "INSTRUCTION_SETS",
    "SettingPair",
    "ALL_SETTING_PAIRS",
    "RunRecord",
    "same_color_fraction",
]

# The one JSON encoding of every machine-readable line: sorted keys, no
# whitespace. Byte-identical to json.dumps with the same two options.
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class _Frozen:
    """Base of the immutable classes the referee reads on every run and frame
    (``RunConfig``, ``WingStrategy``): ``__slots__`` names the fields in
    constructor order, read as fast as dataclass fields and faster than a
    NamedTuple's. Equality, hash, repr and pickling go field by field, and
    ``replace`` copies through the constructor, so its checks cover copies."""

    __slots__ = ()

    def _fill(self, *values) -> None:
        """Set every field once, from ``__init__``."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def replace(self, **changes):
        """A copy with the named fields changed, made by the constructor."""
        return type(self)(**{**dict(zip(self.__slots__, self._values())), **changes})


class Setting(IntEnum):
    """One of the three detector settings. Ordered 1 < 2 < 3."""

    ONE = 1
    TWO = 2
    THREE = 3


SETTINGS = (Setting.ONE, Setting.TWO, Setting.THREE)


class Color(Enum):
    """A flash outcome: red or green."""

    R = "R"
    G = "G"

    def __str__(self) -> str:
        return self.value


class Wing(Enum):
    """Identifies one side of the experiment."""

    LEFT = "L"
    RIGHT = "R"


# Reading an Enum member off its class costs a metaclass lookup; the
# referee, the censor and the strategy slots run once per frame or run, so
# they import these module names instead.
_ONE, _TWO, _THREE = SETTINGS
_RED, _GREEN = Color.R, Color.G
_LEFT, _RIGHT = Wing.LEFT, Wing.RIGHT


def _keep_state(state, round, inbox):
    """The identity transition, for strategies whose state never changes.
    The referee knows it by identity and skips its calls."""
    return state


class SettingPair(NamedTuple):
    """The settings handed to the left and right wings in one run."""

    left: Setting
    right: Setting


# Row-major enumeration of the nine equally likely pairs.
ALL_SETTING_PAIRS = tuple(
    SettingPair(a, b) for a in SETTINGS for b in SETTINGS
)
# each of the nine pairs keyed by itself, so that a pair equal to one finds it
_SETTING_PAIRS = {pair: pair for pair in ALL_SETTING_PAIRS}


class InstructionSet(NamedTuple):
    """A predetermined color for each of the three settings.

    There are exactly eight of these; ``INSTRUCTION_SETS`` lists them in
    canonical order.
    """

    s1: Color
    s2: Color
    s3: Color

    def color_for(self, setting: Setting) -> Color:
        return self[setting - 1]

    @property
    def label(self) -> str:
        return self.s1.value + self.s2.value + self.s3.value

    @classmethod
    def from_label(cls, label: str) -> "InstructionSet":
        iset = _BY_LABEL.get(label)
        if iset is None:
            raise ValueError(
                f"instruction set label must be three R/G letters, got {label!r}"
            )
        return iset


_CANONICAL_LABELS = ("RRG", "RGR", "GRR", "GGR", "GRG", "RGG", "RRR", "GGG")
INSTRUCTION_SETS = tuple(
    InstructionSet(*(Color(ch) for ch in label)) for label in _CANONICAL_LABELS
)
_BY_LABEL = {iset.label: iset for iset in INSTRUCTION_SETS}


# A run record's two color letters -> its pair of colors
_COLOR_PAIRS = {a.value + b.value: (a, b) for a in Color for b in Color}


def same_color_fraction(iset: InstructionSet) -> Fraction:
    """Exact fraction of the nine equally likely setting pairs on which two
    wings following ``iset`` flash the same color."""
    matches = sum(
        1 for a, b in ALL_SETTING_PAIRS if iset.color_for(a) is iset.color_for(b)
    )
    return Fraction(matches, 9)


def _check_int(name: str, value, low: int = 0, seed: bool = False) -> None:
    """The rule of every count, size, seed and run index the package takes:
    an exact ``int``, not a bool or a float, of at least ``low``, or for a
    seed in [0, 2**64), which 8 key bytes hold; a ValueError names ``name``."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if seed and value >> 64:
        raise ValueError(f"{name} must be in [0, 2**64), got {value}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


def _misplaced_entry(entries: list) -> str:
    """The message naming the first parsed transcript entry out of place, or ""."""
    for i, entry in enumerate(entries):
        sender, rnd = entry.get("sender"), entry.get("round")
        if sender != ("R" if i & 1 else "L") or type(rnd) is not int or rnd != i // 2 + 1:
            return (
                f"transcript entry {i} must be sent by {'R' if i & 1 else 'L'} "
                f"in round {i // 2 + 1}, got {sender!r} in round {rnd!r}"
            )
    return ""


class RunRecord(NamedTuple):
    """Everything needed to replay and audit a single run.

    The record carries its own seed, so any run can be replayed in isolation:
    the same (strategy, settings, seed) reproduces colors and transcript
    byte for byte. ``transcript`` is the tuple of payloads in the order sent:
    payload ``i`` was sent by Left when ``i`` is even, in round ``i // 2 + 1``.
    """

    run_index: int
    settings: SettingPair
    colors: tuple[Color, Color]
    transcript: tuple[bytes, ...]
    seed: int
    strategy_id: str

    def to_json_line(self) -> str:
        """One JSON object, stable key order, no whitespace. Each transcript
        entry names the sender and round its position fixes."""
        return _record_line(self)

    @classmethod
    def from_json_line(cls, line: str) -> "RunRecord":
        """Parse one line written by ``to_json_line``. A line is accepted only
        when it is the line ``to_json_line`` writes for the record it holds:
        whitespace, another key order, an unknown or repeated key, or a
        payload, seed or id spelled another way is refused, as is a line that
        is not JSON, misses a key or holds a value of the wrong type, length
        or range, or a transcript entry out of place; each raises ValueError.
        A line that is not a ``str`` raises TypeError: decode bytes as ASCII.
        A valid line is read by a pattern that fixes every field's spelling,
        and its payloads are proven by encoding them again into the entries
        template ``to_json_line`` fills; ``json.loads`` runs only to name what
        is wrong with a refused line, or for a strategy id that needs escapes."""
        if not isinstance(line, str):
            raise TypeError(f"a record line must be a str, got {type(line).__name__}: decode it as ASCII first")
        record = _canonical_record(cls, line)
        return _json_record(cls, line) if record is None else record


# The one spelling of a record line, byte-identical to canonical_json of the
# record as a dict: sorted keys, no whitespace, the strategy id ASCII-escaped.
_LINE = '{"colors":"%s%s","run":%d,"seed":"%d","settings":[%d,%d],"strategy":%s,"transcript":[%s]}'
# How many templates a memo keyed by round or payload count keeps: a writer
# uses one count per config, while a stream read may hold any even count
_MEMO_SIZE = 16


def _check_run_ids(run_index: int, seed: int, settings) -> None:
    """Refuse what no record line holds: a run index or seed that ``_check_int``
    refuses, or settings that are not one of the nine pairs as two ints or
    ``Setting`` members. Runs with a member of ``ALL_SETTING_PAIRS``, as an
    experiment's are, pass one combined test; the rest name the first fault."""
    try:
        if type(run_index) is int and type(seed) is int and run_index >= 0 and not seed >> 64 and _SETTING_PAIRS[settings] is settings:
            return
    except (KeyError, TypeError):  # settings that are no pair or cannot be hashed
        pass
    _check_int("run index", run_index)
    _check_int("seed", seed, seed=True)
    if not (isinstance(settings, tuple) and all([type(s) is int or type(s) is Setting for s in settings]) and settings in _SETTING_PAIRS):
        raise ValueError(f"settings must be a pair of settings in [1, 3], got {settings!r}")


def _record_line(record: RunRecord) -> str:
    """The line ``to_json_line`` writes: the record filled into templates.
    What ``_check_run_ids`` refuses and an id that is not a non-empty ``str``
    free of surrogate code points are refused, so each line written reads
    back as its record (JSON reads a pair of ``\\u`` escapes as one
    character, and no UTF-8 text holds a lone one)."""
    run_index, settings, (left, right), transcript, seed, strategy_id = record
    _check_run_ids(run_index, seed, settings)
    if not (isinstance(strategy_id, str) and strategy_id) or not strategy_id.isascii() and any("\ud800" <= ch <= "\udfff" for ch in strategy_id):
        raise ValueError(f"strategy id must be non-empty, a str, and hold no surrogate code point, got {strategy_id!r}")
    setting_l, setting_r = settings
    # _value_ is what the .value property returns, without its lookup
    return _LINE % (
        left._value_, right._value_, run_index, seed, setting_l, setting_r,
        encode_basestring_ascii(strategy_id), _entries_text(transcript),
    )


@lru_cache(maxsize=_MEMO_SIZE)
def _entries_template(count: int) -> bytes:
    """The transcript entries of ``count`` payloads, as a bytes template of
    '{"payload":"%s","round":r,"sender":"L"}' entries with the round and
    sender each position fixes."""
    if count % 2:
        raise ValueError(f"a transcript holds whole rounds, got {count} payloads")
    return b",".join(
        b'{"payload":"%%s","round":%d,"sender":"%s"}' % (i // 2 + 1, b"R" if i & 1 else b"L")
        for i in range(count)
    )


def _entries_text(transcript) -> str:
    """The transcript's entries as the writer writes and the reader expects them."""
    entries = _entries_template(len(transcript))
    return (entries % tuple([b2a_base64(payload, newline=False) for payload in transcript])).decode("ascii")


# (fullmatch, findall) of the two patterns a canonical record line is read
# by, compiled on the first parse: the whole line, which fixes the spelling of
# all but the payloads (run and seed in canonical decimal, an id of printable
# ASCII but '"' and '\', as encode_basestring_ascii leaves it), and each payload
_CANONICAL = None


def _canonical_record(cls, line: str):
    """The record ``line`` holds, read by pattern, when the line is the one
    ``_record_line`` writes for it; None for any other line. The decoded
    payloads, encoded again, must give back the line's transcript text."""
    global _CANONICAL
    if _CANONICAL is None:
        _CANONICAL = (
            re.compile(
                r'\{"colors":"([RG][RG])","run":(0|[1-9][0-9]*),"seed":"(0|[1-9][0-9]*)",'
                r'"settings":\[([1-3]),([1-3])\],"strategy":"([ !#-\[\]-~]+)","transcript":\[(.*)\]\}'
            ).fullmatch,
            re.compile(r'"payload":"([^"]*)"').findall,
        )
    match, find_payloads = _CANONICAL
    found = match(line)
    if found is None:
        return None
    letters, run_index, seed, left, right, strategy_id, entries = found.groups()
    try:
        # int() refuses a number past its digit limit, a2b_base64 a payload
        # with bad padding or a character outside ASCII, _entries_text an odd count
        seed = int(seed)
        transcript = tuple([a2b_base64(payload) for payload in find_payloads(entries)])
        if seed >> 64 or _entries_text(transcript) != entries:
            return None
        run_index = int(run_index)
    except ValueError:
        return None
    return tuple.__new__(
        cls, (run_index, ALL_SETTING_PAIRS[3 * int(left) + int(right) - 4], _COLOR_PAIRS[letters], transcript, seed, strategy_id)
    )


def _json_record(cls, line: str) -> RunRecord:
    """``from_json_line`` by ``json.loads``: the record of a valid line, or
    the ValueError that names what is wrong with it."""
    try:
        obj = json.loads(line)
    except RecursionError:
        raise ValueError("malformed run record: nested too deeply") from None
    try:
        (left, right), letters, seed = obj["settings"], obj["colors"], obj["seed"]
        strategy_id, entries = obj["strategy"], obj["transcript"]
        if type(entries) is not list or len(entries) % 2:
            raise ValueError(f"transcript must be a list of whole rounds, got {entries!r:.80}")
        # senders and rounds are checked by the round trip below
        payloads = tuple([a2b_base64(entry["payload"]) for entry in entries])
        run_index, settings = obj["run"], (left, right)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed run record: {exc!r}") from None
    colors = _COLOR_PAIRS.get(letters) if type(letters) is str else None
    if colors is None:
        raise ValueError(f"colors must be two R/G letters, got {letters!r}")
    if type(seed) is not str or not (seed.isascii() and seed.isdigit()) or int(seed) >> 64:
        raise ValueError(f"seed must be a 64-bit decimal string, got {seed!r}")
    if type(strategy_id) is not str or not strategy_id:
        raise ValueError(f"strategy must be a non-empty string, got {strategy_id!r}")
    _check_run_ids(run_index, int(seed), settings)
    record = cls(run_index, _SETTING_PAIRS[settings], colors, payloads, int(seed), strategy_id)
    if _record_line(record) != line:
        # the cut repr cannot show a line break at the end of a long line
        broken = "; it ends with a line break, which to_json_line never writes" if line.endswith(("\n", "\r")) else ""
        raise ValueError(
            _misplaced_entry(entries) or f"run record is not the line to_json_line writes for it: {line!r:.80}{broken}"
        )
    return record
