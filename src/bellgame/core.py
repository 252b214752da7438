"""Domain vocabulary for the two-wing flash game.

Settings, colors, instruction sets, setting pairs, message transcripts and
replayable run records. All probabilities that matter here are exact
rationals (``fractions.Fraction``); the 5/9 floor is a theorem check, not a
float comparison.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from enum import Enum, IntEnum
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

__all__ = [
    "Setting",
    "SETTINGS",
    "Color",
    "Wing",
    "InstructionSet",
    "INSTRUCTION_SETS",
    "SettingPair",
    "ALL_SETTING_PAIRS",
    "Message",
    "Transcript",
    "EMPTY_TRANSCRIPT",
    "RunRecord",
    "same_color_fraction",
    "canonical_json",
]

# The one JSON encoding of every machine-readable line: sorted keys, no
# whitespace. Byte-identical to json.dumps with the same two options.
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


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

    def flip(self) -> "Color":
        """The involution swapping R and G."""
        return Color.G if self is Color.R else Color.R

    def __str__(self) -> str:
        return self.value


class Wing(Enum):
    """Identifies one side of the experiment."""

    LEFT = "L"
    RIGHT = "R"

    def other(self) -> "Wing":
        return Wing.RIGHT if self is Wing.LEFT else Wing.LEFT


class SettingPair(NamedTuple):
    """The settings handed to the left and right wings in one run."""

    left: Setting
    right: Setting


# Row-major enumeration of the nine equally likely pairs.
ALL_SETTING_PAIRS = tuple(
    SettingPair(a, b) for a in SETTINGS for b in SETTINGS
)


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
        if len(label) != 3 or any(ch not in "RG" for ch in label):
            raise ValueError(
                f"instruction set label must be three R/G letters, got {label!r}"
            )
        return cls(Color(label[0]), Color(label[1]), Color(label[2]))

    def flipped(self) -> "InstructionSet":
        """Swap R and G at every setting."""
        return InstructionSet(self.s1.flip(), self.s2.flip(), self.s3.flip())

    def permuted(self, perm: Sequence[Setting]) -> "InstructionSet":
        """Relabel the settings: the new color at setting i is the old color
        at ``perm[i-1]``. ``perm`` must be a permutation of the settings."""
        if sorted(perm) != list(SETTINGS):
            raise ValueError(f"not a permutation of the settings: {perm!r}")
        return InstructionSet(*(self.color_for(s) for s in perm))


_CANONICAL_LABELS = ("RRG", "RGR", "GRR", "GGR", "GRG", "RGG", "RRR", "GGG")
INSTRUCTION_SETS = tuple(InstructionSet.from_label(s) for s in _CANONICAL_LABELS)


def same_color_fraction(iset: InstructionSet) -> Fraction:
    """Exact fraction of the nine equally likely setting pairs on which two
    wings following ``iset`` flash the same color."""
    matches = sum(
        1 for a, b in ALL_SETTING_PAIRS if iset.color_for(a) is iset.color_for(b)
    )
    return Fraction(matches, 9)


class Message(NamedTuple):
    """One fixed-size frame sent by a wing in a given round."""

    sender: Wing
    round: int
    payload: bytes


@dataclass(frozen=True)
class Transcript:
    """The ordered record of every message exchanged in one run."""

    messages: tuple[Message, ...]

    def __len__(self) -> int:
        return len(self.messages)

    def __iter__(self) -> Iterator[Message]:
        return iter(self.messages)

    def __getitem__(self, i):
        return self.messages[i]

    def validate(self, rounds: int, payload_bytes: int) -> None:
        """Check the frame discipline: 2*rounds messages, alternating
        Left/Right within each round, every payload exactly payload_bytes."""
        if len(self.messages) != 2 * rounds:
            raise ValueError(
                f"expected {2 * rounds} messages, found {len(self.messages)}"
            )
        for i, msg in enumerate(self.messages):
            want_round = i // 2 + 1
            want_sender = Wing.LEFT if i % 2 == 0 else Wing.RIGHT
            if msg.round != want_round or msg.sender is not want_sender:
                raise ValueError(
                    f"message {i}: expected {want_sender.value} round {want_round}, "
                    f"found {msg.sender.value} round {msg.round}"
                )
            if len(msg.payload) != payload_bytes:
                raise ValueError(
                    f"message {i}: payload is {len(msg.payload)} bytes, "
                    f"expected {payload_bytes}"
                )


EMPTY_TRANSCRIPT = Transcript(())


@dataclass(frozen=True)
class RunRecord:
    """Everything needed to replay and audit a single run.

    The record carries its own seed, so any run can be replayed in isolation:
    the same (strategy, settings, seed) reproduces colors and transcript
    byte for byte.
    """

    run_index: int
    settings: SettingPair
    colors: tuple[Color, Color]
    transcript: Transcript
    seed: int
    strategy_id: str

    def to_json_line(self) -> str:
        """One JSON object, stable key order, no whitespace."""
        return canonical_json(
            {
                "run": self.run_index,
                "settings": [int(self.settings.left), int(self.settings.right)],
                "colors": self.colors[0].value + self.colors[1].value,
                "seed": str(self.seed),
                "strategy": self.strategy_id,
                "transcript": [
                    {
                        "sender": m.sender.value,
                        "round": m.round,
                        "payload": base64.b64encode(m.payload).decode("ascii"),
                    }
                    for m in self.transcript
                ],
            }
        )

    @classmethod
    def from_json_line(cls, line: str) -> "RunRecord":
        obj = json.loads(line)
        messages = tuple(
            Message(
                Wing(m["sender"]),
                int(m["round"]),
                base64.b64decode(m["payload"]),
            )
            for m in obj["transcript"]
        )
        colors = obj["colors"]
        return cls(
            run_index=int(obj["run"]),
            settings=SettingPair(Setting(obj["settings"][0]), Setting(obj["settings"][1])),
            colors=(Color(colors[0]), Color(colors[1])),
            transcript=Transcript(messages),
            seed=int(obj["seed"]),
            strategy_id=obj["strategy"],
        )
