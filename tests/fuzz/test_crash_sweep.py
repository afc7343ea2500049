"""The crash-consistency sweep as a test, plus its self-tests (the
sweep must not be blind to the failure classes it exists to catch)."""

import itertools

import pytest

from repro.core import execute as execute_mod
from repro.fuzz.cli import main as fuzz_main
from repro.fuzz.crash import sweep_case, sweep_cases
from repro.fuzz.generator import CaseGenerator
from repro.fuzz.runner import run_case
from repro.fuzz.sweep import SweepStats


def _cases(count, seed=0, families=None):
    generator = CaseGenerator(seed=seed) if families is None \
        else CaseGenerator(seed=seed, families=families)
    return list(generator.cases(count))


class TestSweep:
    def test_small_budget_sweep_is_clean(self):
        stats = sweep_cases(_cases(6))
        assert stats.ok, "\n".join(f.describe()
                                   for f in stats.findings)
        assert stats.injections > 0
        # both recovery modes must actually occur in the sample
        assert stats.recovered > 0
        assert stats.clean_errors > 0

    def test_sweep_counts_every_site_and_kind(self):
        stats = SweepStats()
        case = _cases(1)[0]
        sweep_case(case, stats)
        assert stats.cases == 1
        # one injection per (site, index, kind) triple
        assert stats.injections % len(
            ("transient", "resource", "crash")) == 0

    def test_sweep_detects_a_leaky_runtime(self, monkeypatch):
        """Self-test: neuter the plan cleanup and the sweep must
        report leaked temp tables (it is not blind)."""
        monkeypatch.setattr(execute_mod, "cleanup_plan",
                            lambda db, plan: None)
        stats = SweepStats()
        # pin to a percentage case whose plan materializes temp
        # tables, so the self-test stays deterministic as new
        # families join the default stream
        case = _cases(1, families=("vpct", "hpct", "hagg"))[0]
        sweep_case(case, stats)
        assert any(f.problem == "temp tables leaked"
                   for f in stats.findings)


class TestStorageSweep:
    def test_small_budget_kill_point_sweep_is_clean(self):
        stats = sweep_cases(_cases(6), storages=("disk",))
        assert stats.ok, "\n".join(f.describe()
                                   for f in stats.findings)
        assert (stats.cases, stats.injections, stats.recovered,
                stats.clean_errors) == (6, 34, 7, 27)

    @pytest.mark.allow_temp_leaks
    def test_kill_point_sweep_detects_a_leaky_runtime(self, monkeypatch):
        """Self-test: neuter the plan cleanup and the kill-point sweep
        must report leaked temp tables (it is not blind)."""
        monkeypatch.setattr(execute_mod, "cleanup_plan",
                            lambda db, plan: None)
        stats = SweepStats()
        case = _cases(1, families=("vpct", "hpct", "hagg"))[0]
        sweep_case(case, stats, storages=("disk",))
        assert any(f.problem == "temp tables leaked"
                   for f in stats.findings)


class TestCli:
    @pytest.mark.allow_temp_leaks
    def test_fault_sweep_exit_codes(self, monkeypatch, capsys):
        for storage in ("memory", "disk"):
            assert fuzz_main(["--fault-sweep", "--storage", storage,
                              "--seed", "0", "--budget", "1",
                              "--quiet"]) == 0
        # A leaky runtime = findings = exit 1.
        monkeypatch.setattr(execute_mod, "cleanup_plan",
                            lambda db, plan: None)
        assert fuzz_main(["--fault-sweep", "--seed", "0",
                          "--budget", "1", "--family", "vpct",
                          "--quiet"]) == 1
        capsys.readouterr()


class TestCaseTimeout:
    def test_timed_out_variants_are_excluded_not_divergent(self):
        case = _cases(1)[0]
        result = run_case(case, case_timeout=1e-9)
        statuses = {v.name: v.status for v in result.variants}
        assert any(s == "timeout" for s in statuses.values()), statuses
        assert not result.divergent, result.divergence_report()

    def test_generous_timeout_changes_nothing(self):
        for case in itertools.islice(_cases(4), 4):
            plain = run_case(case)
            timed = run_case(case, case_timeout=60.0)
            assert plain.divergent == timed.divergent
            assert [v.status for v in plain.variants] \
                == [v.status for v in timed.variants]
