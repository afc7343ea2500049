"""The cancel-point chaos sweep as a test, plus its self-tests (the
sweep must not be blind to the failure classes it exists to catch)."""

import pytest

from repro.core import execute as execute_mod
from repro.engine.cancel import CancelToken
from repro.fuzz.cancelsweep import sweep_case as sweep_case_cancel
from repro.fuzz.cancelsweep import sweep_cases as sweep_cases_cancel
from repro.fuzz.cli import main as fuzz_main
from repro.fuzz.generator import CaseGenerator
from repro.fuzz.sweep import SweepStats as CancelSweepStats


def _cases(count, seed=0, families=None):
    generator = CaseGenerator(seed=seed) if families is None \
        else CaseGenerator(seed=seed, families=families)
    return list(generator.cases(count))

#: The self-tests need a percentage case whose plan materializes temp
#: tables and crosses safepoints; pin the family mix so they stay
#: deterministic as new families join the default stream.
_PLAN_FAMILIES = ("vpct", "hpct", "hagg")


class TestCancelSweep:
    def test_small_budget_sweep_is_clean(self):
        """Every backend x storage variant over a few cases: every
        armed shot must unwind as a clean typed cancellation."""
        stats = sweep_cases_cancel(_cases(3))
        assert stats.ok, "\n".join(f.describe()
                                   for f in stats.findings)
        assert stats.injections > 0
        assert stats.cancelled > 0

    def test_sweep_covers_all_variants(self):
        stats = CancelSweepStats()
        sweep_case_cancel(_cases(1)[0], stats)
        # 2 storages x 2 backends
        assert stats.variants == 4

    @pytest.mark.allow_temp_leaks
    def test_sweep_detects_a_leaky_unwind(self, monkeypatch):
        """Self-test: neuter the plan cleanup and the sweep must
        report leaked temp tables (it is not blind to leaks)."""
        monkeypatch.setattr(execute_mod, "cleanup_plan",
                            lambda db, plan: None)
        stats = CancelSweepStats()
        case = _cases(1, families=_PLAN_FAMILIES)[0]
        sweep_case_cancel(case, stats, backends=("serial",),
                          storages=("memory",))
        assert any(f.problem == "temp tables leaked"
                   for f in stats.findings)

    def test_sweep_detects_a_swallowed_cancel(self, monkeypatch):
        """Self-test: a safepoint that counts crossings but never
        raises must surface as 'armed cancellation did not fire'."""
        def blind_check(self, safepoint):
            self.hits[safepoint] = self.hits.get(safepoint, 0) + 1

        monkeypatch.setattr(CancelToken, "check", blind_check)
        stats = CancelSweepStats()
        case = _cases(1, families=_PLAN_FAMILIES)[0]
        sweep_case_cancel(case, stats, backends=("serial",),
                          storages=("memory",))
        assert any(f.problem == "armed cancellation did not fire"
                   for f in stats.findings)


class TestCli:
    def test_cancel_sweep_exit_codes(self, monkeypatch, capsys):
        argv = ["--cancel-sweep", "--seed", "0", "--budget", "1",
                "--backend", "serial", "--storage", "memory",
                "--family", "vpct", "--quiet"]
        assert fuzz_main(argv) == 0

        # A swallowed cancellation = findings = exit 1.
        def blind_check(self, safepoint):
            self.hits[safepoint] = self.hits.get(safepoint, 0) + 1

        monkeypatch.setattr(CancelToken, "check", blind_check)
        assert fuzz_main(argv) == 1
        capsys.readouterr()
