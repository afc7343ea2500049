"""The views differential sweep as a test, plus its blindness
self-tests (a deliberately broken maintenance path must surface as
findings) and the ``--list-variants`` CLI smoke."""

import pytest

from repro.fuzz.cli import main as fuzz_main
from repro.fuzz.generator import CaseGenerator
from repro.fuzz.sweep import SweepStats as ViewSweepStats
from repro.fuzz.views import sweep_case as sweep_case_views
from repro.fuzz.views import sweep_cases as sweep_cases_views


def _cases(count, seed=0):
    return list(CaseGenerator(seed=seed).cases(count))


class TestViewsSweep:
    def test_small_budget_sweep_is_clean(self):
        """A few cases through every backend x storage variant: every
        served read bit-identical to recompute after every DML."""
        stats = sweep_cases_views(_cases(3))
        assert stats.ok, "\n".join(f.describe()
                                   for f in stats.findings)
        assert stats.checks > 0

    def test_sweep_covers_all_variants(self):
        stats = ViewSweepStats()
        sweep_case_views(_cases(1)[0], stats)
        # 2 storages x 2 backends; rejection (unsupported view shape)
        # is a per-variant outcome, not a skipped variant.
        assert stats.variants + stats.rejected == 4

    @pytest.mark.parametrize("bug", ("views-skip-retraction",
                                     "views-stale-denominator"))
    def test_sweep_is_not_blind(self, bug):
        """Self-test: each injectable maintenance bug must produce a
        divergence finding, or the sweep proves nothing."""
        stats = ViewSweepStats()
        # pin to percentage families: both injectable bugs live in
        # percentage-view maintenance, and the default stream now
        # mixes in families the views sweep only rejects (cube)
        generator = CaseGenerator(seed=0, families=("vpct", "hpct"))
        for case in generator.cases(8):
            sweep_case_views(case, stats, backends=("serial",),
                             storages=("memory",), inject_bug=bug)
            if not stats.ok:
                break
        assert any(
            f.problem == "view-served result diverges from recompute"
            for f in stats.findings)

    def test_unknown_bug_rejected(self):
        with pytest.raises(ValueError, match="unknown views bug"):
            sweep_case_views(_cases(1)[0], ViewSweepStats(),
                             inject_bug="views-no-such-bug")


class TestCli:
    def test_list_variants(self, capsys):
        assert fuzz_main(["--list-variants"]) == 0
        out = capsys.readouterr().out
        for variant in ("serial/memory/untraced", "thread/disk/traced"):
            assert variant in out
        assert "process" not in out
        assert "--views" in out

    def test_views_sweep_exit_codes(self, capsys):
        assert fuzz_main(["--views", "--seed", "0",
                          "--budget", "1", "--backend", "serial",
                          "--storage", "memory", "--quiet"]) == 0
        # Injected bug + findings = the self-test passed = exit 1
        # (mirrors --inject-bug under the differential fuzz).
        assert fuzz_main(["--views", "--seed", "0", "--budget", "2",
                          "--backend", "serial", "--storage", "memory",
                          "--inject-bug", "views-skip-retraction",
                          "--quiet"]) == 1
        capsys.readouterr()

    def test_views_bug_requires_views_sweep(self, capsys):
        assert fuzz_main(["--inject-bug", "views-skip-retraction",
                          "--budget", "1"]) == 2
        assert "requires --views" in capsys.readouterr().err
