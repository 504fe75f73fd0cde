import ctypes
import os

import pytest

from amf import blas

from conftest import fake_openblas


@pytest.fixture
def two_cpus_one_env_thread(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)


class TestWithoutTheLibrary:
    def test_threads_follow_the_environment_rule_and_limit_does_nothing(self, monkeypatch, two_cpus_one_env_thread):
        monkeypatch.setattr(blas, "_openblas", lambda: None)
        assert not blas.settable()
        assert blas.threads() == 1
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        assert blas.threads() == 2
        with blas.limit(1):
            assert blas.threads() == 2
        assert blas.threads() == 2

    def test_missing_symbols_mean_no_library(self, monkeypatch):
        class NoSymbols:
            def __init__(self, path):
                pass

            def __getattr__(self, name):
                raise AttributeError(name)
        monkeypatch.setattr(ctypes, "CDLL", NoSymbols)
        assert blas._openblas.__wrapped__() is None

    def test_an_unloadable_library_means_no_library(self, monkeypatch):
        def unloadable(path):
            raise OSError(path)
        monkeypatch.setattr(ctypes, "CDLL", unloadable)
        assert blas._openblas.__wrapped__() is None


class TestLimit:
    def test_restores_the_count_after_an_exception(self, monkeypatch):
        count = fake_openblas(monkeypatch, 3)
        with pytest.raises(ValueError):
            with blas.limit(1):
                assert blas.threads() == 1
                raise ValueError
        assert count == [3]

    @pytest.mark.skipif(not blas.settable(), reason="numpy's OpenBLAS exports no thread-count functions")
    def test_sets_numpys_own_openblas(self):
        before = blas.threads()
        with pytest.raises(KeyError):
            with blas.limit(1):
                assert blas.threads() == 1
                raise KeyError
        assert blas.threads() == before
