import json

import pytest

from maskap.attacks import ATTACKS, attack_dos, attack_password_guessing, run_all


class TestScenarioSuite:
    @pytest.mark.parametrize("name", sorted(ATTACKS))
    def test_zero_acceptances(self, name):
        report = ATTACKS[name](seed=0)
        assert report.acceptances == 0, report.notes
        assert report.attempts > 0

    def test_run_all_covers_every_scenario(self):
        reports = run_all(seed=1)
        assert set(reports) == set(ATTACKS)
        assert all(r.acceptances == 0 for r in reports.values())

    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_seeds_do_not_matter(self, seed):
        report = ATTACKS["modification"](seed=seed)
        assert report.acceptances == 0

    def test_report_json(self):
        report = ATTACKS["replay"](seed=0)
        doc = json.loads(report.to_json())
        assert doc["attack_name"] == "replay"
        assert doc["acceptances"] == 0
        assert isinstance(doc["notes"], list)


class TestDosBound:
    def test_reject_cost_is_two_hashes(self):
        report = attack_dos(seed=0)
        assert report.acceptances == 0
        assert report.max_reject_hashes == 2
        assert json.loads(report.to_json())["max_reject_hashes"] == 2


class TestPasswordGuessing:
    def test_indistinguishable_from_chance(self):
        report = attack_password_guessing(seed=0)
        assert report.acceptances == 0
        note = report.notes[0]
        # the true password is inside the candidate space, yet never confirmed
        assert "confirmed" in note
