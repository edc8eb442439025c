import gc
import hashlib
import json
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest

import golden_reports
from obbtrack import cli
from obbtrack.cli import main
from obbtrack.config import ENV_CONFIG
from obbtrack.errors import ConfigurationError, InternalStateError, TrackingError
from obbtrack.geometry import OrientedBox, PlanarPose, center_distance, transform_to_map, yaw_difference
from obbtrack.streams import (
    FrameRecord,
    dumps_stream,
    read_stream,
    serialize_record,
    write_stream,
    KIND_DETECTIONS,
    KIND_GROUND_TRUTH,
)


@pytest.fixture
def trial_sheet(tmp_path):
    path = tmp_path / "trials.json"
    assert main(["doe", "gen", "--out", str(path)]) == 0
    return path


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestWorkflowBytes:
    """The README's workflow writes the same bytes as before its steps were
    routed through `campaign.simulate` and `campaign.score`: the streams and
    the trial sheet by digest, the two `evaluate` reports as golden files,
    written under Python 3.12's compensated `sum` on any interpreter."""

    def test_pinned_digests(self, tmp_path, trial_sheet, compensated_sum):
        p = {name: tmp_path / name for name in ("gt", "det", "trk", "gt3", "det3")}
        rep_t, rep_d = tmp_path / "rep_t.json", tmp_path / "rep_d.json"
        sim = ["simulate", "--trials", str(trial_sheet), "--trial", "19", "--seed", "5"]
        assert main([*sim, "--out-gt", str(p["gt"]), "--out-det", str(p["det"])]) == 0
        assert main(["track", "--input", str(p["det"]), "--output", str(p["trk"])]) == 0
        assert main(["evaluate", "--gt", str(p["gt"]), "--pred", str(p["trk"]), "--json", str(rep_t)]) == 0
        assert main(["evaluate", "--gt", str(p["gt"]), "--pred", str(p["det"]), "--json", str(rep_d)]) == 0
        assert main([*sim, "--no-noise", "--duration", "3",
                     "--out-gt", str(p["gt3"]), "--out-det", str(p["det3"])]) == 0
        assert sha256(trial_sheet) == "789bcc1d8371fcc4f2a5783c618b924666c383495b0cfff955b6d9cda5431df9"
        assert {name: sha256(path) for name, path in p.items()} == {
            "gt": "556037fac088db7726665d88ec7de84a1e1a0f21bd821e096b436f56b819365f",
            "det": "5992f678f9bb4687d7eaa7cded146569834fc1d962a284b93082ee20e4cd65d4",
            "trk": "50d8834b9eb1a40d54c888971685fb56ec4e957b22b3625e312954f5fcae3e48",
            "gt3": "b609bac3909f3a9519aec47c25cb1657189e52a3599c4ead0c9fadc91d7b93f8",
            "det3": "0337f9ed96d19972de8b46bb43ef77aee1b9544e68513f15f3a7bc85dc4c0ce2",
        }
        assert golden_reports.mismatch("evaluate_trial19_tracklets.json", rep_t.read_bytes()) is None
        assert golden_reports.mismatch("evaluate_trial19_detections.json", rep_d.read_bytes()) is None


class TestDoeGen:
    def test_default_campaign_size(self, trial_sheet):
        payload = json.loads(trial_sheet.read_text())
        assert payload["schema"] == "obbtrack/trials/v1"
        assert len(payload["trials"]) == 72

    def test_block_filter(self, tmp_path):
        out = tmp_path / "t.json"
        assert main(["doe", "gen", "--out", str(out), "--block", "single-msu"]) == 0
        # the block's trials keep their ids in the full design, which seed
        # their noise
        assert [t["trial_id"] for t in json.loads(out.read_text())["trials"]] == list(range(19, 37))

    def test_invalid_block_is_usage_error(self, tmp_path):
        out = tmp_path / "t.json"
        assert main(["doe", "gen", "--out", str(out), "--block", "nope"]) == 1


class TestSimulate:
    def test_deterministic_per_seed(self, tmp_path, trial_sheet):
        outs = []
        for run in ("a", "b"):
            gt = tmp_path / f"gt_{run}.jsonl"
            det = tmp_path / f"det_{run}.jsonl"
            code = main(
                ["simulate", "--trials", str(trial_sheet), "--trial", "19", "--seed", "5",
                 "--out-gt", str(gt), "--out-det", str(det)]
            )
            assert code == 0
            outs.append((gt.read_bytes(), det.read_bytes()))
        assert outs[0] == outs[1]

    def test_different_seeds_differ(self, tmp_path, trial_sheet):
        dets = []
        for seed in ("5", "6"):
            gt = tmp_path / f"gt{seed}.jsonl"
            det = tmp_path / f"det{seed}.jsonl"
            main(["simulate", "--trials", str(trial_sheet), "--trial", "1", "--seed", seed,
                  "--out-gt", str(gt), "--out-det", str(det)])
            dets.append(det.read_bytes())
        assert dets[0] != dets[1]

    def test_unknown_trial_is_usage_error(self, tmp_path, trial_sheet):
        assert main(["simulate", "--trials", str(trial_sheet), "--trial", "99"]) == 1

    def test_negative_seed_is_usage_error(self, tmp_path, trial_sheet, capsys):
        # numpy's generators reject a negative seed; the parser names it first
        for argv, seed in (
            (["simulate", "--trials", str(trial_sheet), "--trial", "19", "--seed", "-3"], "-3"),
            (["campaign", "run", "--seed", "-1", "--out", str(tmp_path / "c.json")], "-1"),
            (["campaign", "run", "--seed", "x"], "x"),
        ):
            assert main(argv) == 1
            errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
            assert errors == [f"error: argument --seed: must be a non-negative integer, got '{seed}'"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["trials.json"]

    def test_same_output_for_both_streams_is_usage_error(self, tmp_path, trial_sheet, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli.campaign_mod, "simulate", lambda *args: pytest.fail("simulated"))
        # one file named two ways
        argv = ["simulate", "--trials", str(trial_sheet), "--trial", "19",
                "--out-gt", "s.jsonl", "--out-det", str(tmp_path / "s.jsonl")]
        assert main(argv) == 1
        assert "error: --out-gt and --out-det are the same file s.jsonl" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["trials.json"]

    def test_no_noise_round_trip(self, tmp_path, trial_sheet):
        gt_path = tmp_path / "gt.jsonl"
        det_path = tmp_path / "det.jsonl"
        main(["simulate", "--trials", str(trial_sheet), "--trial", "2", "--seed", "3",
              "--out-gt", str(gt_path), "--out-det", str(det_path), "--no-noise"])
        _, gt = read_stream(gt_path)
        _, det = read_stream(det_path)
        for g, d in zip(gt, det):
            assert len(g.boxes) == len(d.boxes)
            for gb, db in zip(g.boxes, d.boxes):
                mapped = transform_to_map(db, d.robot)
                assert center_distance(mapped, gb) < 1e-9
                assert yaw_difference(mapped.yaw, gb.yaw) < 1e-9


SRC = Path(__file__).resolve().parents[1] / "src"


class TestFailedJsonWrite:
    """A JSON output whose write fails part way, here at a file-size limit,
    exits 2 and leaves the previous file as it was, with no temporary file."""

    LIMITED = textwrap.dedent(
        """
        import resource, signal, sys
        sys.dont_write_bytecode = True
        sys.path.insert(0, sys.argv[1])
        from obbtrack.cli import main
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)  # a write past the limit fails with EFBIG
        resource.setrlimit(resource.RLIMIT_FSIZE, (256, 256))
        sys.exit(main(sys.argv[2:]))
        """
    )

    @pytest.mark.parametrize("command", ["doe gen", "evaluate", "campaign run"])
    def test_previous_file_kept(self, tmp_path, trial_sheet, command):
        out = tmp_path / "out.json"
        out.write_bytes(b"previous\n")
        gt = tmp_path / "gt.jsonl"
        argv = {
            "doe gen": ["doe", "gen", "--out", str(out)],
            "evaluate": ["evaluate", "--gt", str(gt), "--pred", str(gt), "--json", str(out)],
            "campaign run": ["campaign", "run", "--seed", "7", "--block", "single-sw", "--out", str(out)],
        }[command]
        if command == "evaluate":
            assert main(["simulate", "--trials", str(trial_sheet), "--trial", "19", "--no-noise", "--duration", "3",
                         "--out-gt", str(gt), "--out-det", str(tmp_path / "det.jsonl")]) == 0
        done = subprocess.run(
            [sys.executable, "-c", self.LIMITED, str(SRC), *argv], capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 2, done.stderr
        assert "data error: [Errno 27] File too large" in done.stderr
        assert out.read_bytes() == b"previous\n"
        assert list(tmp_path.glob(".*.tmp")) == []


class TestTrialSheetChecks:
    """A bad trial-sheet entry is a data error (exit 2) naming the sheet and
    the entry, counted from 1, not a traceback or a silently changed trial."""

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda e: {k: v for k, v in e.items() if k != "row"}, "missing field 'row'"),
            (lambda e: list(e), "expected an object, got list"),
            (lambda e: {**e, "trial_id": "abc"}, "field 'trial_id' has wrong type str"),
            (lambda e: {**e, "trial_id": 1.7}, "field 'trial_id' has wrong type float"),  # was read as trial 1
            (lambda e: {**e, "trial_id": -1}, "field 'trial_id' must be non-negative, got -1"),  # was exit 1
            (lambda e: {**e, "row": True}, "field 'row' has wrong type bool"),
            (lambda e: {**e, "classes": "MSU"}, "field 'classes' has wrong type str"),
            (lambda e: {**e, "classes": ["MSU", 7]}, "field 'classes' must be a list of strings"),
            (lambda e: {**e, "occlusion": "> 60%"}, "unknown occlusion level '> 60%'"),
            (lambda e: {**e, "initial_distance": "far"}, "unknown initial_distance level 'far'"),
            (lambda e: {**e, "motion_collapsed": "false"}, "field 'motion_collapsed' has wrong type str"),
            (lambda e: {**e, "trial_id": 1}, "trial_id 1 repeats entry 1"),  # was simulated as entry 1
        ],
        ids=["missing-key", "not-an-object", "string-id", "fractional-id", "negative-id", "bool-row",
             "string-classes", "non-string-class", "unknown-occlusion", "unknown-distance", "string-flag",
             "repeated-id"],
    )
    def test_bad_entry_is_data_error(self, tmp_path, trial_sheet, capsys, edit, message):
        payload = json.loads(trial_sheet.read_text())
        payload["trials"][1] = edit(payload["trials"][1])
        sheet = tmp_path / "edited.json"
        sheet.write_text(json.dumps(payload))
        assert main(["simulate", "--trials", str(sheet), "--trial", "1",
                     "--out-gt", str(tmp_path / "gt.jsonl"), "--out-det", str(tmp_path / "det.jsonl")]) == 2
        assert capsys.readouterr().err == f"data error: trial sheet {sheet}: entry 2: {message}\n"
        assert not (tmp_path / "gt.jsonl").exists()

    @pytest.mark.parametrize(
        "data, message",
        [
            (b'{"schema":"obbtrack/trials/v1","trials":5}', "field 'trials' has wrong type int"),
            (b'\xff{"schema":"obbtrack/trials/v1","trials":[]}', "invalid UTF-8: invalid start byte"),
            (b'{"schema":"obbtrack/trials/v1"}', "missing field 'trials'"),
        ],
        ids=["trials-not-a-list", "not-utf8", "trials-missing"],
    )
    def test_bad_sheet_is_data_error(self, tmp_path, capsys, data, message):
        sheet = tmp_path / "trials.json"
        sheet.write_bytes(data)
        assert main(["simulate", "--trials", str(sheet), "--trial", "1"]) == 2
        assert capsys.readouterr().err == f"data error: trial sheet {sheet}: {message}\n"


class TestSimulationSettings:
    """Settings that describe no simulation are configuration errors (exit 1)
    with a message, not tracebacks or data errors."""

    def simulate(self, tmp_path, trial_sheet, *extra, setting=None):
        # trial 3 has the highest occlusion level, so every noise setting is used
        argv = ["simulate", "--trials", str(trial_sheet), "--trial", "3",
                "--out-gt", str(tmp_path / "gt.jsonl"), "--out-det", str(tmp_path / "det.jsonl"), *extra]
        if setting is not None:
            cfg = tmp_path / "bad.cfg"
            cfg.write_text(setting + "\n")
            argv = ["--config", str(cfg), *argv]
        return main(argv)

    @pytest.mark.parametrize(
        "setting",
        [
            "sim.duration = 0",
            "sim.duration = -3",
            "sim.duration = 0.04",
            "sim.rate = 0",
            "sim.rate = -10",
            "sim.rate = -10\nsim.duration = -3",  # a positive frame count from two negatives
            "sim.duration = nan",
            "sim.duration = inf",
            "sim.rate = inf",
            "noise.sigma_mult_none = -0.5",
            "noise.sigma_mult_low = -1",
            "noise.sigma_mult_high = -1",
            "noise.fp_extent_jitter = 1.0",
            "noise.fp_extent_jitter = 1.5",
            "noise.pos_sigma = nan",  # was taken as no noise
            "sim.object_speed = inf",
        ],
    )
    def test_bad_setting_is_configuration_error(self, tmp_path, trial_sheet, capsys, setting):
        assert self.simulate(tmp_path, trial_sheet, setting=setting) == 1
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("duration", ["0.04", "0", "-1"])
    def test_duration_override_without_frames(self, tmp_path, trial_sheet, capsys, duration):
        assert self.simulate(tmp_path, trial_sheet, "--duration", duration) == 1
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "gt.jsonl").exists()

    def test_campaign_without_frames(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("sim.rate = 0\n")
        assert main(["--config", str(cfg), "campaign", "run", "--block", "single-sw"]) == 1
        assert "configuration error" in capsys.readouterr().err


class TestTrackAndEvaluate:
    def pipeline(self, tmp_path, trial_sheet, trial="2", extra=("--no-noise",)):
        gt = tmp_path / "gt.jsonl"
        det = tmp_path / "det.jsonl"
        trk = tmp_path / "trk.jsonl"
        assert main(["simulate", "--trials", str(trial_sheet), "--trial", trial, "--seed", "3",
                     "--out-gt", str(gt), "--out-det", str(det), *extra]) == 0
        assert main(["track", "--input", str(det), "--output", str(trk)]) == 0
        return gt, det, trk

    def test_empty_input_empty_output(self, tmp_path):
        det = tmp_path / "det.jsonl"
        det.write_text(dumps_stream([], KIND_DETECTIONS))
        out = tmp_path / "trk.jsonl"
        assert main(["track", "--input", str(det), "--output", str(out)]) == 0
        kind, records = read_stream(out)
        assert kind == "tracklets"
        assert records == []

    def test_persistent_identity(self, tmp_path, trial_sheet):
        _, _, trk = self.pipeline(tmp_path, trial_sheet)
        _, records = read_stream(trk)
        ids = {i for r in records for i in (r.ids or ())}
        assert len(ids) == 1

    def test_out_of_order_timestamps_rejected(self, tmp_path):
        det = tmp_path / "det.jsonl"
        text = dumps_stream([], KIND_DETECTIONS)
        rec = '{"t":%s,"robot":{"x":0,"y":0,"heading":0},"boxes":[]}'
        det.write_text(text + (rec % "1.0") + "\n" + (rec % "0.5") + "\n")
        assert main(["track", "--input", str(det), "--output", str(tmp_path / "o.jsonl")]) == 2

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(["track", "--input", str(tmp_path / "nope.jsonl"),
                     "--output", str(tmp_path / "o.jsonl")]) == 2

    def test_evaluate_gt_against_itself(self, tmp_path, trial_sheet, capsys):
        gt, _, _ = self.pipeline(tmp_path, trial_sheet)
        report_path = tmp_path / "report.json"
        assert main(["evaluate", "--gt", str(gt), "--pred", str(gt), "--json", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["mode"] == "tracklet"
        assert report["overall"]["avg_iou"] == pytest.approx(1.0)
        assert report["overall"]["det_a"] == 1.0
        assert report["overall"]["hota"] == pytest.approx(1.0)
        assert report["overall"]["pos_rmse"] == 0.0

    def test_evaluate_detection_mode_omits_hota(self, tmp_path, trial_sheet, capsys):
        gt, det, _ = self.pipeline(tmp_path, trial_sheet)
        report_path = tmp_path / "report.json"
        assert main(["evaluate", "--gt", str(gt), "--pred", str(det), "--json", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert report_path.exists()
        report = json.loads(report_path.read_text())
        assert report["mode"] == "detection"
        assert report["overall"]["hota"] is None
        table_row = [l for l in out.splitlines() if l.startswith("Overall")][0]
        assert table_row.rstrip().endswith("-")

    def test_tracklet_pipeline_scores_high_without_noise(self, tmp_path, trial_sheet):
        gt, _, trk = self.pipeline(tmp_path, trial_sheet)
        report_path = tmp_path / "report.json"
        assert main(["evaluate", "--gt", str(gt), "--pred", str(trk), "--json", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["overall"]["hota"] > 0.85
        assert report["overall"]["pos_rmse"] < 0.01

    def test_config_unknown_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("tracker.not_a_knob = 3\n")
        assert main(["--config", str(cfg), "doe", "gen", "--out", str(tmp_path / "t.json")]) == 1

    @pytest.mark.parametrize("key", ["motion_min_history", "duplicate_merge_scale"])
    def test_config_removed_tracker_key_is_usage_error(self, tmp_path, capsys, key):
        # the motion warm-up is a tracker constant, and duplicates merge
        # inside the association gate
        cfg = tmp_path / "old.cfg"
        cfg.write_text(f"tracker.{key} = 1\n")
        assert main(["--config", str(cfg), "doe", "gen", "--out", str(tmp_path / "t.json")]) == 1
        assert f"unknown config key 'tracker.{key}'" in capsys.readouterr().err

    def test_config_not_utf8_is_configuration_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"sim.rate = 1\xff\n")
        assert main(["--config", str(cfg), "doe", "gen", "--out", str(tmp_path / "t.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert str(cfg) in err and "invalid UTF-8" in err
        assert not (tmp_path / "t.json").exists()

    @pytest.mark.parametrize("directory", [False, True], ids=["missing", "directory"])
    @pytest.mark.parametrize("via_env", [False, True], ids=["flag", "env"])
    def test_unreadable_config_is_configuration_error(self, tmp_path, monkeypatch, capsys, directory, via_env):
        cfg = tmp_path / "obbtrack.cfg"
        if directory:
            cfg.mkdir()
        argv = ["doe", "gen", "--out", str(tmp_path / "t.json")]
        if via_env:
            monkeypatch.setenv(ENV_CONFIG, str(cfg))
        else:
            argv = ["--config", str(cfg), *argv]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"configuration error: config file {cfg}: ")
        assert not (tmp_path / "t.json").exists()

    def test_config_alpha_out_of_range_is_usage_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("metrics.alpha = -0.1\n")
        gt = tmp_path / "gt.jsonl"
        gt.write_text(dumps_stream([], KIND_GROUND_TRUTH))
        assert main(["--config", str(cfg), "evaluate", "--gt", str(gt), "--pred", str(gt)]) == 1


class TestExitCodes:
    # the README's exit codes; every other package error is a data error
    DOCUMENTED = {ConfigurationError: 1, InternalStateError: 3}

    @pytest.mark.parametrize("error", TrackingError.__subclasses__(), ids=lambda e: e.__name__)
    def test_each_package_error_exits_with_its_documented_code(self, tmp_path, monkeypatch, capsys, error):
        def fail(path):
            raise error("boom")

        monkeypatch.setattr(cli, "load_config", fail)
        assert main(["doe", "gen", "--out", str(tmp_path / "t.json")]) == self.DOCUMENTED.get(error, 2)
        assert capsys.readouterr().err.endswith(": boom\n")


def one_object_detections(frames: int) -> list[FrameRecord]:
    """A parked MSU 3 m ahead of a parked robot, seen in every frame."""
    robot = PlanarPose(0.0, 0.0, 0.0)
    box = OrientedBox((3.0, 0.0, 0.9), (0.8, 0.6, 1.8), 0.4, "MSU", confidence=0.9)
    return [FrameRecord(0.1 * i, robot, (box,)) for i in range(frames)]


def fill_tuple_free_lists() -> None:
    """Build and drop 2,000 tuples of each size from 1 to 19: built at their
    exact size, each is freed onto its size's free list, filling it."""
    held = [tuple(range(n)) for n in range(1, 20) for _ in range(2000)]
    del held


class TestStreamingTrack:
    def track(self, tmp_path, *extra):
        return main([*extra, "track", "--input", str(tmp_path / "det.jsonl"), "--output", str(tmp_path / "trk.jsonl")])

    def test_invalid_utf8_is_data_error(self, tmp_path, capsys):
        (tmp_path / "det.jsonl").write_bytes(dumps_stream([], KIND_DETECTIONS).encode() + b"\xff\xfe\n")
        assert self.track(tmp_path) == 2
        assert "line 2" in capsys.readouterr().err
        assert not (tmp_path / "trk.jsonl").exists()

    def test_non_finite_gate_is_configuration_error(self, tmp_path, capsys):
        write_stream(tmp_path / "det.jsonl", one_object_detections(50), KIND_DETECTIONS)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("tracker.gate_scale = nan\n")
        assert self.track(tmp_path, "--config", str(cfg)) == 1
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "trk.jsonl").exists()

    def test_unknown_class_names_its_frame(self, tmp_path, capsys):
        records = one_object_detections(3)
        ufo = OrientedBox((5.0, 0.0, 0.9), (0.8, 0.6, 1.8), 0.0, "XX", confidence=0.9)
        records[2] = FrameRecord(records[2].t, records[2].robot, (*records[2].boxes, ufo))
        write_stream(tmp_path / "det.jsonl", records, KIND_DETECTIONS)
        assert self.track(tmp_path) == 1
        err = capsys.readouterr().err
        assert f"configuration error: unknown object class 'XX' in the frame at t={records[2].t}" in err
        assert not (tmp_path / "trk.jsonl").exists()

    def test_wrong_kind_rejected_before_tracking(self, tmp_path, capsys):
        write_stream(tmp_path / "det.jsonl", [], KIND_GROUND_TRUTH)
        assert self.track(tmp_path) == 2
        assert "expects a detections stream" in capsys.readouterr().err
        assert not (tmp_path / "trk.jsonl").exists()

    def test_overflowing_window_mean_is_data_error(self, tmp_path, capsys):
        """Each center is finite, but the tracker's window sum overflows."""
        box = OrientedBox((1.7e308, 0.0, 0.9), (0.8, 0.6, 1.8), 0.4, "MSU", confidence=0.9)
        records = [FrameRecord(0.1 * i, PlanarPose(0.0, 0.0, 0.0), (box,)) for i in range(3)]
        write_stream(tmp_path / "det.jsonl", records, KIND_DETECTIONS)
        assert self.track(tmp_path) == 2
        assert "data error: OrientedBox contains a non-finite value: inf" in capsys.readouterr().err
        assert not (tmp_path / "trk.jsonl").exists()

    def bad_line_500(self, tmp_path):
        lines = [serialize_record(r, KIND_DETECTIONS) for r in one_object_detections(600)]
        lines[498] = "{not json}"  # the header is line 1
        (tmp_path / "det.jsonl").write_text(dumps_stream([], KIND_DETECTIONS) + "\n".join(lines) + "\n")

    def test_failure_on_line_500_leaves_no_output(self, tmp_path, capsys):
        self.bad_line_500(tmp_path)
        assert self.track(tmp_path) == 2
        assert "line 500" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["det.jsonl"]

    def test_failure_keeps_earlier_output(self, tmp_path):
        write_stream(tmp_path / "det.jsonl", one_object_detections(30), KIND_DETECTIONS)
        assert self.track(tmp_path) == 0
        before = (tmp_path / "trk.jsonl").read_bytes()
        self.bad_line_500(tmp_path)
        assert self.track(tmp_path) == 2
        assert (tmp_path / "trk.jsonl").read_bytes() == before

    def traced_peak(self, tmp_path, frames: int) -> int:
        write_stream(tmp_path / "det.jsonl", one_object_detections(frames), KIND_DETECTIONS)
        # CPython keeps up to 2,000 freed tuples of each size below 20 for
        # reuse, and tracemalloc counts a tuple on such a free list as
        # allocated. A full collection empties the lists, and a tuple built
        # by resizing (`tuple(map(...))`, `tuple(<generator>)`) is freed onto
        # them, so a traced run that follows a full collection refills them
        # and looks up to ~130 KB larger, however long it is. Whether an
        # automatic full collection falls just before a run depends on the
        # tests run before this one, so start every run with full lists and
        # keep automatic collections out of it.
        gc.collect()
        fill_tuple_free_lists()
        gc.disable()
        tracemalloc.start()
        try:
            assert self.track(tmp_path) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            gc.enable()
        _, out = read_stream(tmp_path / "trk.jsonl")
        assert len(out) == frames and len(out[-1].ids) == 1
        return peak

    def test_memory_does_not_grow_with_the_stream(self, tmp_path):
        """Tracking holds one input frame plus the tracker's state: ten times
        the frames may not take even 1.25 times the memory."""
        self.traced_peak(tmp_path, 200)  # first-call costs (caches, lazy imports) out of the way
        short = self.traced_peak(tmp_path, 200)
        long = self.traced_peak(tmp_path, 2000)
        assert long < 1.25 * short, (short, long)


class TestCampaign:
    def test_single_block_run_deterministic(self, tmp_path):
        reports = []
        for run in ("a", "b"):
            out = tmp_path / f"rep_{run}.json"
            assert main(["campaign", "run", "--seed", "7", "--block", "single-sw",
                         "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        payload = json.loads(reports[0])
        assert payload["trial_count"] == 18
        assert "SW" in payload["per_class"]
        sw = payload["per_class"]["SW"]
        assert sw["tracklet"]["avg_iou"] > sw["detection"]["avg_iou"]
        assert sw["detection"]["hota"] is None

    def test_single_block_reproduces_its_trials_in_the_full_campaign(self, tmp_path):
        """A one-block run keeps the design's trial ids, so its trial rows are
        those of the same trials in the full seed-7 campaign."""
        out = tmp_path / "rep.json"
        assert main(["campaign", "run", "--seed", "7", "--block", "single-sw", "--out", str(out)]) == 0
        rows = json.loads(out.read_bytes())["trials"]
        golden = json.loads((golden_reports.GOLDEN / "campaign_seed7.json").read_bytes())["trials"]
        assert [row["trial_id"] for row in rows] == list(range(55, 73))
        assert rows == [row for row in golden if row["block"] == "single-sw"]

    def test_single_block_report_does_not_depend_on_float_sum(self, tmp_path, request):
        """Python 3.12's compensated `sum` writes the same campaign report."""
        out = tmp_path / "rep.json"
        argv = ["campaign", "run", "--seed", "7", "--block", "single-sw", "--out", str(out)]
        assert main(argv) == 0
        plain = out.read_bytes()
        request.getfixturevalue("compensated_sum")
        assert main(argv) == 0
        assert out.read_bytes() == plain

    def test_single_block_average_is_its_class(self, tmp_path):
        """The average row averages the classes the trials place: a one-class
        run's average is that class's row, whatever false positives of other
        classes its detections hold."""
        out = tmp_path / "rep.json"
        assert main(["campaign", "run", "--seed", "7", "--block", "single-sw", "--out", str(out)]) == 0
        payload = json.loads(out.read_bytes())
        assert set(payload["per_class"]) > {"SW"}  # rows of false positives alone
        for mode in ("detection", "tracklet"):
            assert payload["average"][mode] == payload["per_class"]["SW"][mode]
