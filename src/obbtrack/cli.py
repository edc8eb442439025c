"""Command-line entry points.

Subcommands: `doe gen`, `simulate`, `track`, `evaluate`, `campaign run`.
Exit codes: 0 success, 1 usage/configuration, 2 data or parse error,
3 internal invariant violation.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from contextlib import closing
from pathlib import Path

from . import campaign as campaign_mod
from .config import ENV_CONFIG, RunConfig, load_config
from .doe import TrialSpec, balance_check, campaign as design_campaign, oa_matrix
from .errors import ConfigurationError, InternalStateError, InvalidInputError, ParseError, TrackingError, json_member
from .metrics import MetricsReport
from .simulate import NoiseModel
from .streams import (
    KIND_DETECTIONS, KIND_GROUND_TRUTH, KIND_TRACKLETS, iter_stream, read_stream, write_lines, write_stream
)

TRIALS_SCHEMA = "obbtrack/trials/v1"

USAGE_EXIT = 1
DATA_EXIT = 2
INTERNAL_EXIT = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; spec wants 1
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _seed(text: str) -> int:
    """A `--seed` value; the simulator's random generators take no negative seed."""
    try:
        seed = int(text)
    except ValueError:
        seed = None
    if seed is None or seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return seed


def _fmt_pct(v) -> str:
    return "-" if v is None else f"{100.0 * v:.2f}%"


def _fmt_m(v) -> str:
    return "-" if v is None else f"{v:.3f}m"


def _fmt_deg(v) -> str:
    return "-" if v is None else f"{math.degrees(v):.2f}°"


def render_table(rows: list[tuple[str, str, dict]]) -> str:
    """Rows of (label, mode letter, metrics dict) rendered as a fixed table.
    Angles arrive in radians and are printed in degrees."""
    header = f"{'':10s} {'':2s} {'IoU':>9s} {'Pos':>9s} {'Rot':>9s} {'DetA':>9s} {'HOTA':>9s}"
    lines = [header, "-" * len(header)]
    for label, mode, m in rows:
        lines.append(
            f"{label:10s} {mode:2s} {_fmt_pct(m.get('avg_iou')):>9s} {_fmt_m(m.get('pos_rmse')):>9s} "
            f"{_fmt_deg(m.get('yaw_rmse')):>9s} {_fmt_pct(m.get('det_a')):>9s} {_fmt_pct(m.get('hota')):>9s}"
        )
    return "\n".join(lines)


def _report_rows(report: MetricsReport) -> list[tuple[str, str, dict]]:
    letter = "D" if report.mode == "detection" else "T"
    rows = [(cls, letter, m.to_dict()) for cls, m in sorted(report.per_class.items())]
    rows.append(("Overall", letter, report.overall.to_dict()))
    return rows


def _load_trials(path: str) -> list[TrialSpec]:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"trial sheet {path}: {exc.msg}", exc.lineno) from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"trial sheet {path}: invalid UTF-8: {exc.reason}") from exc
    if not isinstance(obj, dict) or obj.get("schema") != TRIALS_SCHEMA:
        raise ParseError(f"{path} is not a trial sheet (schema {TRIALS_SCHEMA})")
    try:
        entries = json_member(obj, "trials", list)
    except ParseError as exc:
        raise ParseError(f"trial sheet {path}: {exc}") from None
    trials = []
    entry_of: dict[int, int] = {}
    for i, entry in enumerate(entries, start=1):
        try:
            trial = TrialSpec.from_dict(entry)
        except ParseError as exc:
            raise ParseError(f"trial sheet {path}: entry {i}: {exc}") from None
        if trial.trial_id in entry_of:
            raise ParseError(
                f"trial sheet {path}: entry {i}: trial_id {trial.trial_id} repeats entry {entry_of[trial.trial_id]}"
            )
        entry_of[trial.trial_id] = i
        trials.append(trial)
    return trials


def _design(block: str | None, config: RunConfig) -> list[TrialSpec]:
    """The default design's trials, or those of `block` under their ids in
    the design: a trial id is a seed word of the trial's noise."""
    trials = design_campaign(known_classes=config.classes)
    chosen = [t for t in trials if block in (None, t.block)]
    if not chosen:
        known = ", ".join(dict.fromkeys(t.block for t in trials))
        raise UsageError(f"unknown block {block!r} (known: {known})")
    return chosen


def cmd_doe_gen(args) -> int:
    config = load_config(args.config)
    trials = _design(args.block, config)
    report = balance_check(oa_matrix())
    if not report.ok:
        raise InternalStateError("embedded design matrix failed its balance check")
    payload = {"schema": TRIALS_SCHEMA, "trials": [t.to_dict() for t in trials]}
    write_lines(args.out, [json.dumps(payload, indent=2)])
    print(f"wrote {len(trials)} trials to {args.out}")
    return 0


def cmd_simulate(args) -> int:
    config = load_config(args.config)
    trials = _load_trials(args.trials)
    matching = [t for t in trials if t.trial_id == args.trial]
    if not matching:
        raise UsageError(f"trial id {args.trial} not present in {args.trials}")
    trial = matching[0]
    out_gt = args.out_gt or f"trial{trial.trial_id:02d}_gt.jsonl"
    out_det = args.out_det or f"trial{trial.trial_id:02d}_det.jsonl"
    if Path(out_gt).resolve() == Path(out_det).resolve():
        raise UsageError(f"--out-gt and --out-det are the same file {out_gt}")
    config = dataclasses.replace(
        config,
        noise=NoiseModel.silent() if args.no_noise else config.noise,
        duration=config.duration if args.duration is None else args.duration,
    )
    gt, det = campaign_mod.simulate(trial, args.seed, config)
    write_stream(out_gt, gt, KIND_GROUND_TRUTH)
    write_stream(out_det, det, KIND_DETECTIONS)
    print(f"wrote {out_gt} ({len(gt)} frames) and {out_det}")
    return 0


def cmd_track(args) -> int:
    config = load_config(args.config)
    kind, detections = iter_stream(args.input)
    with closing(detections):
        if kind != KIND_DETECTIONS:
            raise InvalidInputError(f"track expects a detections stream, got kind {kind!r}")
        # one input frame and the tracker's state are in memory at a time
        frames = write_stream(args.output, campaign_mod.iter_tracklets(detections, config), KIND_TRACKLETS)
    print(f"wrote {args.output} ({frames} frames)")
    return 0


def cmd_evaluate(args) -> int:
    config = load_config(args.config)
    gt_kind, gt = read_stream(args.gt)
    if gt_kind == KIND_DETECTIONS:
        raise InvalidInputError("ground-truth stream must carry ids (kind ground_truth)")
    pred_kind, pred = read_stream(args.pred)
    report = campaign_mod.score(gt, pred, pred_kind, config)
    print(render_table(_report_rows(report)))
    if args.json:
        write_lines(args.json, [json.dumps(report.to_dict(), indent=2)])
        print(f"wrote {args.json}")
    return 0


def cmd_campaign_run(args) -> int:
    config = load_config(args.config)
    report = campaign_mod.run_campaign(args.seed, config, _design(args.block, config))
    rows = []
    for cls, modes in report["per_class"].items():
        rows.append((cls, "D", modes["detection"]))
        rows.append((cls, "T", modes["tracklet"]))
    rows.append(("Ave", "D", report["average"]["detection"]))
    rows.append(("Ave", "T", report["average"]["tracklet"]))
    print(render_table(rows))
    if args.out:
        write_lines(args.out, [json.dumps(report, indent=2)])
        print(f"wrote {args.out}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="obbtrack", description=__doc__)
    parser.add_argument(
        "--config",
        default=None,
        help=f"config file path (default: ${ENV_CONFIG} if set, else built-in defaults)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    doe = sub.add_parser("doe", help="experiment design utilities")
    doe_sub = doe.add_subparsers(dest="doe_command", required=True)
    gen = doe_sub.add_parser("gen", help="emit the campaign trial sheet as JSON")
    gen.add_argument("--out", default="trials.json")
    gen.add_argument("--block", default=None, help="restrict to one layout block")
    gen.set_defaults(func=cmd_doe_gen)

    sim = sub.add_parser("simulate", help="generate ground truth and detections for one trial")
    sim.add_argument("--trials", required=True, help="trial sheet from `doe gen`")
    sim.add_argument("--trial", type=int, required=True, help="trial id")
    sim.add_argument("--seed", type=_seed, default=0)
    sim.add_argument("--duration", type=float, default=None, help="override config duration (s)")
    sim.add_argument("--out-gt", default=None)
    sim.add_argument("--out-det", default=None)
    sim.add_argument("--no-noise", action="store_true", help="corruption-free detector")
    sim.set_defaults(func=cmd_simulate)

    trk = sub.add_parser("track", help="run the tracker over a detection stream")
    trk.add_argument("--input", required=True)
    trk.add_argument("--output", required=True)
    trk.set_defaults(func=cmd_track)

    ev = sub.add_parser("evaluate", help="score a prediction stream against ground truth")
    ev.add_argument("--gt", required=True)
    ev.add_argument("--pred", required=True)
    ev.add_argument("--json", default=None, help="also write the report as JSON")
    ev.set_defaults(func=cmd_evaluate)

    camp = sub.add_parser("campaign", help="full campaign pipelines")
    camp_sub = camp.add_subparsers(dest="campaign_command", required=True)
    run = camp_sub.add_parser("run", help="simulate, track and evaluate all trials")
    run.add_argument("--seed", type=_seed, default=0)
    run.add_argument("--out", default=None, help="write the aggregate report as JSON")
    run.add_argument("--block", default=None, help="restrict to one layout block")
    run.set_defaults(func=cmd_campaign_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (InternalStateError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_EXIT
    except (TrackingError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())
