"""Unit tests for repro.net.asn."""

import pytest

from repro.exceptions import ASPathError
from repro.net.asn import parse_asn


class TestParseAsn:
    def test_plain(self):
        assert parse_asn("7018") == 7018

    def test_int_passthrough(self):
        assert parse_asn(1239) == 1239

    def test_asdot(self):
        assert parse_asn("1.0") == 65536
        assert parse_asn("1.10") == 65546

    def test_whitespace_tolerated(self):
        assert parse_asn("  701 ") == 701

    def test_rejects_negative(self):
        with pytest.raises(ASPathError):
            parse_asn(-1)

    def test_rejects_too_large(self):
        with pytest.raises(ASPathError):
            parse_asn(2**32)

    def test_rejects_garbage(self):
        with pytest.raises(ASPathError):
            parse_asn("AS7018x")

    def test_rejects_bad_asdot(self):
        with pytest.raises(ASPathError):
            parse_asn("70000.1")
