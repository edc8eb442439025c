import pytest

from obbtrack.doe import (
    Block,
    OARow,
    balance_check,
    campaign,
    oa_matrix,
)
from obbtrack.errors import ConfigurationError


class TestMatrix:
    def test_eighteen_rows(self):
        assert len(oa_matrix()) == 18

    def test_row_1(self):
        assert oa_matrix()[0].cells() == ("Stationary - NL - NA", "Stationary", "No", "2.5 m")

    def test_row_14(self):
        assert oa_matrix()[13].cells() == ("0.25 m/s", "0.25 rad/s", "> 40%", "2.5 m")

    def test_row_18(self):
        assert oa_matrix()[17].cells() == ("0.5 m/s", "0.5 rad/s", "< 20%", "2.5 m")

    def test_stable_across_calls(self):
        assert oa_matrix() == oa_matrix()
        assert [r.cells() for r in oa_matrix()] == [r.cells() for r in oa_matrix()]


class TestBalance:
    def test_embedded_matrix_balanced(self):
        report = balance_check(oa_matrix())
        assert report.ok
        assert report.problems == ()
        assert all(c == 6 for c in report.level_counts["occlusion"].values())
        assert all(c == 6 for c in report.level_counts["robot_angular"].values())
        assert all(c == 6 for c in report.level_counts["initial_distance"].values())
        assert all(c == 3 for c in report.level_counts["motion"].values())

    def test_corrupted_cell_detected(self):
        rows = list(oa_matrix())
        rows[4] = OARow(rows[4].motion, rows[4].robot_angular, "No", rows[4].initial_distance)
        report = balance_check(rows)
        assert not report.ok
        assert any("occlusion" in p for p in report.problems)


class TestCampaign:
    def test_default_is_72_trials(self):
        trials = campaign()
        assert len(trials) == 72
        assert [t.trial_id for t in trials] == list(range(1, 73))

    def test_single_block(self):
        trials = campaign([Block("single-msu", ("MSU",))])
        assert len(trials) == 18
        assert all(t.block == "single-msu" for t in trials)

    def test_two_msu_block_maps_to_matrix(self):
        trials = campaign()
        t19 = trials[36]  # third block starts after 2 x 18 trials
        assert t19.block == "two-msu"
        assert t19.row == 1
        assert t19.num_objects == 2
        assert t19.motion == "Stationary - NL - NA"

    def test_unknown_class_rejected(self):
        with pytest.raises(ConfigurationError):
            campaign([Block("bad", ("XX",))])

    def test_immobile_block_collapses_object_motion(self):
        trials = campaign()
        sw = [t for t in trials if t.block == "single-sw"]
        assert len(sw) == 18
        row4 = sw[3]
        assert row4.motion == "Stationary - PL - NA"  # verbatim cell retained
        assert row4.motion_collapsed
        assert not row4.object_linear and not row4.object_angular
        row16 = sw[15]
        assert row16.robot_linear_mps == 0.5  # robot speed survives the collapse
        assert not row16.motion_collapsed

    def test_parsed_semantics(self):
        trials = campaign()
        t14 = trials[13]
        assert t14.robot_linear_mps == 0.25
        assert t14.robot_angular_rps == 0.25
        assert t14.occlusion_level == "high"
        assert t14.initial_distance_m == 2.5
        t11 = trials[10]
        assert t11.object_linear and t11.object_angular
        assert t11.robot_angular_rps == 0.25

    def test_round_trip_dict(self):
        from obbtrack.doe import TrialSpec

        for t in campaign():
            assert TrialSpec.from_dict(t.to_dict()) == t
