"""The service clients' shared pieces: endpoint parsing."""

import pytest

from repro.serve.client import parse_endpoint


class TestParseEndpoint:
    def test_host_and_port(self):
        assert parse_endpoint("0.0.0.0:9000") == ("0.0.0.0", 9000)

    def test_bare_port_defaults_to_localhost(self):
        assert parse_endpoint("9000") == ("127.0.0.1", 9000)

    def test_empty_host_defaults_to_localhost(self):
        assert parse_endpoint(":9000") == ("127.0.0.1", 9000)

    def test_bad_port_rejected(self):
        for bad in ("host:", "host:abc", "host:0", "host:70000"):
            with pytest.raises(ValueError):
                parse_endpoint(bad)
