"""The shared sweep driver: a sweep rejects the flags it would ignore,
honours the variant-matrix flags, and its store oracle catches stray
files and stores left open."""

import os
import re

import pytest

from repro.fuzz.cli import main as fuzz_main
from repro.fuzz.generator import CaseGenerator
from repro.fuzz.sweep import StoreLeakError, variant_db

_SWEEPS = ("--fault-sweep", "--cancel-sweep", "--views")

#: Flags only the differential fuzzer uses, with a value to pass.
_DIFFERENTIAL_FLAGS = (
    ["--trace"],
    ["--case-timeout", "5"],
    ["--replay", "tests/fuzz/corpus"],
    ["--stop-on-first"],
    ["--out", "elsewhere"],
)


@pytest.mark.parametrize("sweep", _SWEEPS)
@pytest.mark.parametrize("flag", _DIFFERENTIAL_FLAGS,
                         ids=lambda flag: flag[0])
def test_sweep_rejects_differential_flags(sweep, flag, capsys):
    assert fuzz_main([sweep, "--budget", "1", *flag]) == 2
    assert f"does not take {flag[0]}" in capsys.readouterr().err


@pytest.mark.parametrize("sweep", _SWEEPS)
def test_sweep_rejects_the_differential_bug(sweep, capsys):
    """A blindness self-test the sweep cannot run must not pass."""
    assert fuzz_main([sweep, "--budget", "1", "--inject-bug",
                      "vpct-denominator"]) == 2
    assert "--inject-bug" in capsys.readouterr().err


def test_sweeps_are_mutually_exclusive(capsys):
    assert fuzz_main(["--fault-sweep", "--views", "--budget", "1"]) == 2
    assert "does not take --views" in capsys.readouterr().err


def _summary(argv, capsys) -> str:
    assert fuzz_main(argv) == 0
    return capsys.readouterr().out


def test_fault_sweep_runs_the_named_backend(capsys):
    out = _summary(["--fault-sweep", "--backend", "thread",
                    "--budget", "1"], capsys)
    assert "backends: thread;" in out


def test_fault_sweep_sweeps_every_named_storage(capsys):
    argv = ["--fault-sweep", "--seed", "0", "--budget", "2"]

    def injections(*storages):
        flags = [arg for s in storages for arg in ("--storage", s)]
        out = _summary(argv + flags, capsys)
        return int(re.search(r"(\d+) injection", out).group(1))

    memory, disk = injections("memory"), injections("disk")
    assert memory and disk
    assert injections("memory", "disk") == memory + disk


class TestStoreOracle:
    def _case(self):
        return next(CaseGenerator(seed=0).cases(1))

    def test_clean_disk_variant(self):
        with variant_db(self._case(), storage="disk") as db:
            assert db.storage_engine is not None

    def test_stray_file_is_a_leak(self):
        with pytest.raises(StoreLeakError, match="stray store files"):
            with variant_db(self._case(), storage="disk") as db:
                path = db.storage_engine.path
                open(os.path.join(path, "stray.bin"), "w").close()

    def test_store_left_open_is_a_leak(self, monkeypatch):
        with pytest.raises(StoreLeakError, match="live page store"):
            with variant_db(self._case(), storage="disk") as db:
                monkeypatch.setattr(db, "close", lambda: None)
