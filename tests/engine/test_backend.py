"""Backend selection: precedence and env mirroring."""

import os

import pytest

from repro.engine import (
    BACKENDS,
    default_backend,
    resolve_backend,
    use_backend,
)


class TestResolution:
    def test_default_is_python(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert default_backend() == "python"
        assert resolve_backend(None) == "python"

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "fast")
        assert resolve_backend("python") == "python"

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "fast")
        assert default_backend() == "fast"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("numba")

    def test_unrecognized_env_backend_ignored(self, monkeypatch):
        # A typo'd env var must not crash every entry point; the CLI
        # flag (argparse choices) is the validated path.
        monkeypatch.setenv("REPRO_BACKEND", "gpu")
        assert default_backend() == "python"

    def test_backends_registry(self):
        assert set(BACKENDS) == {"python", "fast"}


class TestScope:
    def test_scope_sets_and_restores(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        with use_backend("fast"):
            assert default_backend() == "fast"
            # Mirrored into the environment so spawned pool workers
            # inherit the choice.
            assert os.environ["REPRO_BACKEND"] == "fast"
        assert default_backend() == "python"
        assert "REPRO_BACKEND" not in os.environ

    def test_scope_restores_prior_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "fast")
        with use_backend("python"):
            assert default_backend() == "python"
        assert os.environ["REPRO_BACKEND"] == "fast"

    def test_none_is_passthrough(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "fast")
        with use_backend(None):
            assert default_backend() == "fast"

    def test_nesting(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        with use_backend("fast"):
            with use_backend("python"):
                assert default_backend() == "python"
            assert default_backend() == "fast"

