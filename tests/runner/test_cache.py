"""payload_digest and the code fingerprint: the runner's identity probes."""

from __future__ import annotations

from repro.runner.cache import payload_digest
from repro.runner.fingerprint import code_fingerprint


class TestFingerprint:
    def test_deterministic(self, tmp_path):
        root = tmp_path / "pkg"
        root.mkdir()
        (root / "a.py").write_text("x = 1\n")
        assert code_fingerprint([root]) == code_fingerprint([root])

    def test_content_change_changes_fingerprint(self, tmp_path):
        root = tmp_path / "pkg"
        root.mkdir()
        (root / "a.py").write_text("x = 1\n")
        before = code_fingerprint([root])
        (root / "a.py").write_text("x = 2\n")
        assert code_fingerprint([root]) != before

    def test_new_file_changes_fingerprint(self, tmp_path):
        root = tmp_path / "pkg"
        root.mkdir()
        (root / "a.py").write_text("x = 1\n")
        before = code_fingerprint([root])
        (root / "b.py").write_text("y = 2\n")
        assert code_fingerprint([root]) != before

    def test_pycache_ignored(self, tmp_path):
        root = tmp_path / "pkg"
        (root / "__pycache__").mkdir(parents=True)
        (root / "a.py").write_text("x = 1\n")
        before = code_fingerprint([root])
        (root / "__pycache__" / "a.cpython-311.pyc").write_text("junk")
        (root / "__pycache__" / "b.py").write_text("junk")
        assert code_fingerprint([root]) == before

    def test_live_package_fingerprint(self):
        fp = code_fingerprint()
        assert len(fp) == 64 and fp == code_fingerprint()


class TestPayloadDigest:
    def test_order_independent(self):
        assert payload_digest({"a": 1, "b": 2}) == payload_digest(
            {"b": 2, "a": 1}
        )

    def test_value_sensitive(self):
        assert payload_digest({"a": 1}) != payload_digest({"a": 2})
