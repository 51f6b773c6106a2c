"""Exporter hardening: atomic-write failure injection."""

import os

import pytest

from repro.observability.export import write_atomic


class TestWriteAtomicFailureInjection:
    def test_failed_replace_leaves_no_temp_file(self, tmp_path, monkeypatch):
        """If the final rename blows up, the temp file must be cleaned
        up and the destination must not exist."""
        target = tmp_path / "artifact.json"

        def exploding_replace(src, dst):
            raise OSError("disk on fire")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError, match="disk on fire"):
            write_atomic(str(target), "payload")
        assert not target.exists()
        assert [n for n in os.listdir(tmp_path) if n.endswith(".tmp")] == []

    def test_failed_replace_preserves_previous_content(
        self, tmp_path, monkeypatch
    ):
        target = tmp_path / "artifact.json"
        write_atomic(str(target), "old content")

        monkeypatch.setattr(
            os, "replace", lambda src, dst: (_ for _ in ()).throw(OSError("nope"))
        )
        with pytest.raises(OSError):
            write_atomic(str(target), "new content")
        assert target.read_text() == "old content"
        assert [n for n in os.listdir(tmp_path) if n.endswith(".tmp")] == []

    def test_cleanup_tolerates_replace_that_consumed_the_temp(
        self, tmp_path, monkeypatch
    ):
        """A replace that moved the temp file *and then* raised must
        not trigger a second error from the unlink fallback."""
        target = tmp_path / "artifact.json"
        real_replace = os.replace

        def replace_then_raise(src, dst):
            real_replace(src, dst)  # temp file is gone now
            raise OSError("interrupted after rename")

        monkeypatch.setattr(os, "replace", replace_then_raise)
        with pytest.raises(OSError, match="interrupted after rename"):
            write_atomic(str(target), "payload")
        # the write itself landed; no stray temp files either way
        assert target.read_text() == "payload"
        assert [n for n in os.listdir(tmp_path) if n.endswith(".tmp")] == []

    def test_success_leaves_only_the_artifact(self, tmp_path):
        target = tmp_path / "artifact.json"
        assert write_atomic(str(target), "ok") == str(target)
        assert sorted(os.listdir(tmp_path)) == ["artifact.json"]
