"""CLI tests for `repro campaign` and the fault-tolerance satellites:
worker-count validation, graceful interrupt reporting, store digests.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.errors import CampaignInterrupted
from repro.experiments.sweep import SweepOutcome
from repro.store import RunStore

SWEEP_FLAGS = [
    "--algorithms", "known_k_full",
    "--grid", "6x2,8x2",
    "--schedulers", "sync,random",
    "--seed", "11",
]


class TestCampaignCommand:
    def test_campaign_matches_psweep_digest(self, tmp_path, capsys):
        campaign_store = str(tmp_path / "campaign")
        serial_store = str(tmp_path / "serial")
        code = main(
            ["campaign", *SWEEP_FLAGS, "--workers", "2",
             "--lease-ttl", "2", "--backoff-base", "0.02",
             "--store", campaign_store]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "4 completed" in out and "0 quarantined" in out
        assert main(
            ["psweep", *SWEEP_FLAGS, "--jobs", "1", "--store", serial_store]
        ) == 0
        capsys.readouterr()
        assert main(["query", "--store", campaign_store, "--digest"]) == 0
        digest_a = capsys.readouterr().out.strip()
        assert main(["query", "--store", serial_store, "--digest"]) == 0
        digest_b = capsys.readouterr().out.strip()
        assert len(digest_a) == 64
        assert digest_a == digest_b

    def test_campaign_chaos_converges(self, tmp_path, capsys):
        # Deterministic kills (seed pinned): workers die, units
        # re-issue, the campaign still converges cleanly.
        code = main(
            ["campaign", *SWEEP_FLAGS, "--workers", "2",
             "--lease-ttl", "1", "--max-retries", "5",
             "--backoff-base", "0.02", "--chaos", "seed=1,kill=0.4",
             "--store", str(tmp_path / "store")]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "fault injection: chaos(seed=1 kill=0.4)" in out
        assert "4 completed" in out

    def test_campaign_poison_quarantines_and_exits_nonzero(
        self, tmp_path, capsys
    ):
        from repro.campaign import CampaignSpec
        from repro.experiments.sweep import SweepSpec

        sweep = SweepSpec(
            algorithms=("known_k_full",),
            grid=((6, 2), (8, 2)),
            schedulers=("sync", "random"),
            base_seed=11,
        )
        poison = CampaignSpec(kind="sweep", sweep=sweep).build_units()[0].key
        store = str(tmp_path / "store")
        code = main(
            ["campaign", *SWEEP_FLAGS, "--workers", "2",
             "--lease-ttl", "1", "--max-retries", "1",
             "--backoff-base", "0.02",
             "--chaos", f"kill=0,poison={poison[:12]}",
             "--store", store]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "QUARANTINED" in out
        assert "quarantine/" in out
        assert "3 completed" in out  # the rest of the campaign finished
        assert RunStore(store).quarantine.hashes() == [poison]

    def test_campaign_spec_resume_round_trip(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(
            ["campaign", *SWEEP_FLAGS, "--workers", "1", "--store", store]
        ) == 0
        capsys.readouterr()
        from repro.campaign import CampaignSpec
        from repro.experiments.sweep import SweepSpec

        sweep = SweepSpec(
            algorithms=("known_k_full",),
            grid=((6, 2), (8, 2)),
            schedulers=("sync", "random"),
            base_seed=11,
        )
        spec = CampaignSpec(kind="sweep", sweep=sweep, workers=1)
        spec_path = (
            tmp_path / "store" / "campaign" / f"{spec.work_hash()}.spec.json"
        )
        assert spec_path.exists()
        code = main(
            ["campaign", "--spec", str(spec_path), "--store", store]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "4 cached" in out

    def test_removed_backend_flag_is_a_usage_error(self, tmp_path, capsys):
        # Cells always run on the object engine; the retired fleet knob
        # fails loudly rather than being silently ignored.
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["campaign", *SWEEP_FLAGS, "--backend", "batch",
                 "--store", str(tmp_path / "store")]
            )
        assert excinfo.value.code == 2
        assert "--backend" in capsys.readouterr().err
        assert not (tmp_path / "store").exists()

    def test_rejects_bad_chaos_spec(self, tmp_path, capsys):
        code = main(
            ["campaign", *SWEEP_FLAGS, "--chaos", "frobnicate=1",
             "--store", str(tmp_path / "store")]
        )
        assert code == 2
        assert "unknown chaos key" in capsys.readouterr().err


class TestWorkerCountValidation:
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_campaign_workers(self, value, tmp_path, capsys):
        code = main(
            ["campaign", "--workers", value, "--store", str(tmp_path / "s")]
        )
        assert code == 2
        assert "--workers must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_psweep_jobs(self, value, capsys):
        code = main(["psweep", "--grid", "6x2", "--jobs", value])
        assert code == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_fuzz_jobs(self, value, capsys):
        code = main(["fuzz", "--budget", "5", "--jobs", value])
        assert code == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err

    def test_campaign_shards(self, tmp_path, capsys):
        code = main(
            ["campaign", "--shards", "0", "--store", str(tmp_path / "s")]
        )
        assert code == 2
        assert "--shards must be >= 1" in capsys.readouterr().err


class TestInterruptReporting:
    def test_psweep_interrupt_reports_and_exits_130(
        self, tmp_path, monkeypatch, capsys
    ):
        import repro.experiments.sweep as sweep_module

        def interrupted_sweep(spec, processes=None, **kwargs):
            raise CampaignInterrupted(
                "sweep interrupted: 2 of 4 cells done",
                outcome=SweepOutcome(
                    rows=[{}, {}], total=4, executed=2, cached=0
                ),
                resume_hint="re-run the same sweep with resume=True",
            )

        monkeypatch.setattr(sweep_module, "execute_sweep", interrupted_sweep)
        code = main(
            ["psweep", "--grid", "6x2", "--store", str(tmp_path / "s")]
        )
        out = capsys.readouterr().out
        assert code == 130
        assert "interrupted: sweep interrupted" in out
        assert "progress: 2/4 cells done" in out
        assert "resume: re-run the same sweep" in out

    def test_fuzz_interrupt_reports_and_exits_130(
        self, monkeypatch, capsys
    ):
        import repro.fuzz as fuzz_package

        def interrupted_fuzz(spec, shards, **kwargs):
            raise CampaignInterrupted(
                "fuzzing interrupted",
                resume_hint="re-run the same command",
            )

        monkeypatch.setattr(fuzz_package, "fuzz_parallel", interrupted_fuzz)
        code = main(["fuzz", "--budget", "8", "--jobs", "2"])
        out = capsys.readouterr().out
        assert code == 130
        assert "interrupted: fuzzing interrupted" in out
        assert "resume: re-run the same command" in out


class TestQueryDigest:
    def test_digest_is_stable_and_order_free(self, tmp_path, capsys):
        store_a = str(tmp_path / "a")
        store_b = str(tmp_path / "b")
        # Same cells, different execution orders / shard layouts.
        assert main(
            ["psweep", *SWEEP_FLAGS, "--jobs", "1", "--store", store_a]
        ) == 0
        assert main(
            ["psweep", "--algorithms", "known_k_full", "--grid", "8x2,6x2",
             "--schedulers", "random,sync", "--seed", "11",
             "--jobs", "1", "--store", store_b]
        ) == 0
        capsys.readouterr()
        assert main(["query", "--store", store_a, "--digest"]) == 0
        digest_a = capsys.readouterr().out.strip()
        assert main(["query", "--store", store_b, "--digest"]) == 0
        digest_b = capsys.readouterr().out.strip()
        assert digest_a == digest_b
