"""Tests for the configuration file format."""

import time
from fractions import Fraction

import pytest

from sbcurves import (
    ConfigParseError,
    InvariantError,
    is_pgon,
    parse_config_text,
    report,
)

PENTAGON = """\
# a 5-gon of lines with the rotation action
[vertices]
v1: 1, 0, 0, 0, 0
v2: 0, 1, 0, 0, 0
v3: 0, 0, 1, 0, 0
v4: 0, 0, 0, 1, 0
v5: 0, 0, 0, 0, 1

[edges]
v1 v2
v2 v3
v3 v4
v4 v5
v5 v1

[generators]
(v1 v2 v3 v4 v5)
"""


class TestParsing:
    def test_pentagon_parses_and_reports(self):
        parsed = parse_config_text(PENTAGON)
        rep = report(parsed.config)
        assert (rep.degree, rep.h0, rep.h1) == (5, 1, 1)
        assert rep.edge_transitive
        assert parsed.is_embedded
        assert parsed.embedded.ambient_dim == 5
        assert is_pgon(parsed.config, 5)

    def test_abstract_config_without_coordinates(self):
        text = "[vertices]\na\nb\nc\n[edges]\na b\nb c\nc a\n[generators]\n(a b c)\n"
        parsed = parse_config_text(text)
        assert not parsed.is_embedded
        assert report(parsed.config).degree == 3

    def test_image_list_generator_equals_cycle_notation(self):
        cycles = "[vertices]\na\nb\nc\n[edges]\na b\nb c\nc a\n[generators]\n(a b c)\n"
        images = "[vertices]\na\nb\nc\n[edges]\na b\nb c\nc a\n[generators]\nb c a\n"
        assert (
            parse_config_text(cycles).config.action
            == parse_config_text(images).config.action
        )

    def test_fractions_parse_exactly(self):
        text = (
            "[vertices]\n"
            "a: 1/2, -3, 0\n"
            "b: 0, 2/7, 1\n"
            "[edges]\n"
            "a b\n"
        )
        parsed = parse_config_text(text)
        assert parsed.embedded.coords["a"] == (Fraction(1, 2), Fraction(-3), Fraction(0))

    def test_comments_and_blank_lines_ignored(self):
        text = (
            "# heading comment\n\n[vertices]\na  # trailing comment\nb\n"
            "[edges]\na b\n"
        )
        assert len(parse_config_text(text).config.edges) == 1


class TestParseErrors:
    def test_decimal_coordinates_rejected(self):
        text = "[vertices]\na: 0.5, 1, 0\nb: 0, 1, 0\n[edges]\na b\n"
        with pytest.raises(ConfigParseError, match="decimal"):
            parse_config_text(text)

    def test_scientific_notation_rejected(self):
        text = "[vertices]\na: 1e3, 1, 0\nb: 0, 1, 0\n[edges]\na b\n"
        with pytest.raises(ConfigParseError):
            parse_config_text(text)

    def test_zero_denominator_rejected(self):
        text = "[vertices]\na: 1/0, 1, 0\nb: 0, 1, 0\n[edges]\na b\n"
        with pytest.raises(ConfigParseError, match="denominator"):
            parse_config_text(text)

    @pytest.mark.parametrize("token", ["9" * 5000, "1/" + "7" * 5000])
    def test_coordinate_past_the_digit_limit_rejected(self, token):
        text = f"[vertices]\na: 1, 0, 0\nb: 0, {token}, 0\n[edges]\na b\n"
        with pytest.raises(ConfigParseError, match="^line 3: .* too many digits"):
            parse_config_text(text)

    def test_unknown_section(self):
        with pytest.raises(ConfigParseError, match="unknown section"):
            parse_config_text("[points]\na\n")

    def test_content_before_section(self):
        with pytest.raises(ConfigParseError, match="before any section"):
            parse_config_text("a\n[vertices]\na\n")

    def test_edge_with_wrong_arity(self):
        with pytest.raises(ConfigParseError, match="exactly two"):
            parse_config_text("[vertices]\na\nb\nc\n[edges]\na b c\n")

    def test_duplicate_vertex_declaration(self):
        with pytest.raises(ConfigParseError, match="declared twice"):
            parse_config_text("[vertices]\na\na\n[edges]\na a\n")

    def test_partial_coordinates_rejected(self):
        text = "[vertices]\na: 1, 0, 0\nb\n[edges]\na b\n"
        with pytest.raises(ConfigParseError, match="all vertices or none"):
            parse_config_text(text)

    def test_inconsistent_dimension_rejected(self):
        text = "[vertices]\na: 1, 0, 0\nb: 0, 1\n[edges]\na b\n"
        with pytest.raises(ConfigParseError, match="ambient dimension"):
            parse_config_text(text)

    def test_cycle_with_unknown_vertex(self):
        text = "[vertices]\na\nb\n[edges]\na b\n[generators]\n(a c)\n"
        with pytest.raises(ConfigParseError, match="undeclared"):
            parse_config_text(text)

    def test_cycle_with_repeated_vertex(self):
        text = "[vertices]\na\nb\nc\n[edges]\na b\nb c\nc a\n[generators]\n(a b)(a c)\n"
        with pytest.raises(ConfigParseError, match="twice"):
            parse_config_text(text)

    def test_image_list_wrong_length(self):
        text = "[vertices]\na\nb\nc\n[edges]\na b\nb c\nc a\n[generators]\nb a\n"
        with pytest.raises(ConfigParseError, match="entries"):
            parse_config_text(text)

    def test_text_outside_cycles(self):
        text = "[vertices]\na\nb\n[edges]\na b\n[generators]\n(a b) junk\n"
        with pytest.raises(ConfigParseError, match="outside cycle"):
            parse_config_text(text)


class TestInvariantViolations:
    def test_edgeless_file(self):
        with pytest.raises(InvariantError, match="no lines"):
            parse_config_text("[vertices]\na\nb\n[edges]\n")

    def test_loop_edge(self):
        with pytest.raises(InvariantError, match="loop"):
            parse_config_text("[vertices]\na\n[edges]\na a\n")

    def test_unstable_generator(self):
        text = "[vertices]\na\nb\nc\n[edges]\na b\nb c\n[generators]\n(a b c)\n"
        with pytest.raises(InvariantError, match="not a line"):
            parse_config_text(text)

    def test_proportional_coordinates(self):
        text = "[vertices]\na: 1, 2, 0\nb: 2, 4, 0\n[edges]\na b\n"
        with pytest.raises(InvariantError, match="proportional"):
            parse_config_text(text)

    def test_small_ambient_dimension_rejected(self):
        text = "[vertices]\na: 1, 0\nb: 0, 1\n[edges]\na b\n"
        with pytest.raises(InvariantError, match="ambient_dim"):
            parse_config_text(text)


class TestScale:
    def test_large_ngon_with_image_list_parses_in_linear_time(self):
        n = 50_000
        names = [f"v{i}" for i in range(n)]
        text = "\n".join(
            ["[vertices]", *names, "[edges]"]
            + [f"{names[i]} {names[(i + 1) % n]}" for i in range(n)]
            + ["[generators]", " ".join(names[1:] + names[:1])]
        )
        start = time.perf_counter()
        parsed = parse_config_text(text)
        elapsed = time.perf_counter() - start
        assert len(parsed.config.edges) == n
        # well under a second when vertex lookups are hashed; membership scans
        # of the declaration list took tens of seconds
        assert elapsed < 10
