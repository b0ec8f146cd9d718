"""Line-oriented configuration file format.

Three sections, in any order, each introduced by a bracketed header:

    [vertices]
    a: 1, 0, 0, 0, 0        # optional ': p/q, ...' exact coordinates
    b: 0, 1, 0, 0, 0
    ...
    [edges]
    a b                      # one line per edge, two vertex ids
    ...
    [generators]
    (a b c d e)              # cycle notation, or an image list naming
    b c d e a                # every vertex in declaration order

``#`` starts a comment, blank lines are skipped, ids are any tokens free of
whitespace and the characters ``():,#``.  Coordinates are exact rationals
(``3``, ``-2/7``); decimal literals are rejected so no floating point can
leak in.  Either every vertex carries coordinates (an embedded
configuration) or none does.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ConfigParseError
from .lineconfig import LineConfig

if TYPE_CHECKING:
    from .cohomology import EmbeddedConfig

_SECTIONS = ("vertices", "edges", "generators")
_ID_RE = re.compile(r"[^\s():,#]+$")
_FRACTION_RE = re.compile(r"[+-]?\d+(?:/\d+)?$")
_CYCLE_RE = re.compile(r"\(([^()]*)\)")


@dataclass(frozen=True)
class ParsedConfig:
    """A parsed configuration: the graph, plus coordinates when present."""

    config: LineConfig
    embedded: EmbeddedConfig | None

    @property
    def is_embedded(self) -> bool:
        return self.embedded is not None


def _fail(lineno, message):
    raise ConfigParseError(f"line {lineno}: {message}")


def _parse_coordinates(text, lineno):
    """The exact rationals of a vertex line's comma-separated coordinates."""
    # only coordinates are rationals, so a plain file never loads fractions
    from fractions import Fraction

    tokens = [tok.strip() for tok in text.split(",")]
    if any(not tok for tok in tokens):
        _fail(lineno, "empty coordinate entry")
    coords = []
    for token in tokens:
        if not _FRACTION_RE.match(token):
            if re.match(r"[+-]?\d*\.\d*$", token) or "e" in token.lower():
                _fail(lineno, f"decimal literals are rejected, write {token!r} as an exact fraction p/q")
            _fail(lineno, f"{token!r} is not an exact fraction (expected p or p/q)")
        try:
            coords.append(Fraction(token))
        except ZeroDivisionError:
            _fail(lineno, f"fraction {token!r} has a zero denominator")
        except ValueError:
            # the token is well formed, so only the interpreter's digit limit is left
            _fail(lineno, f"a coordinate of {len(token)} characters has too many digits to convert")
    return tuple(coords)


def _parse_vertex_line(line, lineno):
    name, sep, rest = line.partition(":")
    name = name.strip()
    if not _ID_RE.match(name):
        _fail(lineno, f"invalid vertex id {name!r}")
    return name, _parse_coordinates(rest, lineno) if sep else None


def _parse_cycles(line, vertices, lineno):
    leftover = _CYCLE_RE.sub("", line).strip()
    if leftover:
        _fail(lineno, f"unexpected text {leftover!r} outside cycle notation")
    mapping = {}
    for group in _CYCLE_RE.findall(line):
        ids = group.split()
        if not ids:
            _fail(lineno, "empty cycle '()'")
        for name in ids:
            if name not in vertices:
                _fail(lineno, f"cycle names undeclared vertex {name!r}")
        for a, b in zip(ids, ids[1:] + ids[:1]):
            if a in mapping:
                _fail(lineno, f"vertex {a!r} appears twice in the cycles")
            mapping[a] = b
    for v in vertices:
        mapping.setdefault(v, v)
    return mapping


def _parse_image_list(line, vertices, known, lineno):
    images = line.split()
    if len(images) != len(vertices):
        _fail(
            lineno,
            f"image list has {len(images)} entries for {len(vertices)} vertices",
        )
    for name in images:
        if name not in known:
            _fail(lineno, f"image list names undeclared vertex {name!r}")
    return dict(zip(vertices, images))


def parse_config_text(text: str) -> ParsedConfig:
    """Parse configuration text; raises ConfigParseError on ill-formed input.

    Invariant violations (unstable action, proportional coordinates, ...)
    propagate from the constructed objects as InvariantError.
    """
    vertices = []
    known = set()
    coords = {}
    edges = []
    generator_lines = []
    section = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            name = line[1:-1].strip().lower() if line.endswith("]") else None
            if name not in _SECTIONS:
                _fail(lineno, f"unknown section header {line!r}")
            section = name
            continue
        if section is None:
            _fail(lineno, f"content before any section header: {line!r}")
        if section == "vertices":
            name, vec = _parse_vertex_line(line, lineno)
            if name in known:
                _fail(lineno, f"vertex {name!r} declared twice")
            vertices.append(name)
            known.add(name)
            if vec is not None:
                coords[name] = vec
        elif section == "edges":
            ends = line.split()
            if len(ends) != 2:
                _fail(lineno, f"an edge needs exactly two vertex ids, got {line!r}")
            edges.append(tuple(ends))
        else:
            generator_lines.append((lineno, line))

    if coords and len(coords) != len(vertices):
        missing = sorted(v for v in vertices if v not in coords)
        raise ConfigParseError(
            f"coordinates must be given for all vertices or none; missing {missing!r}"
        )

    generators = []
    for lineno, line in generator_lines:
        if line.startswith("("):
            generators.append(_parse_cycles(line, known, lineno))
        else:
            generators.append(_parse_image_list(line, vertices, known, lineno))

    config = LineConfig(vertices, edges, generators)
    embedded = None
    if coords:
        from .cohomology import EmbeddedConfig

        lengths = {len(vec) for vec in coords.values()}
        if len(lengths) != 1:
            raise ConfigParseError(
                f"inconsistent coordinate lengths {sorted(lengths)}; all vertices "
                "must share one ambient dimension"
            )
        embedded = EmbeddedConfig(config, lengths.pop(), coords)
    return ParsedConfig(config=config, embedded=embedded)


def load_config(path) -> ParsedConfig:
    """Read and parse a configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigParseError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigParseError(f"cannot read {path}: byte {exc.start} is not UTF-8") from exc
    return parse_config_text(text)
