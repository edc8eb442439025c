"""Every pinned output is its producer's output: the writer of
`golden_reports.py`, run under Python 3.12's compensated `sum` on any
interpreter, writes each committed pin byte for byte, and no other file."""
import json

import golden_reports
from golden_reports import DIGESTS, GOLDEN

DIGEST_NAMES = ["crowd_trk.jsonl", "trial19_det.jsonl", "trial19_gt.jsonl", "trial19_no_noise_3s_det.jsonl",
                "trial19_no_noise_3s_gt.jsonl", "trial19_trk.jsonl", "trials.json"]


def test_writer_reproduces_every_pin(tmp_path, compensated_sum):
    golden_reports.write_pins(tmp_path)
    written = sorted(p.name for p in tmp_path.iterdir())
    # a closed set: no pin without a producer, no produced output without a pin
    assert written == sorted(p.name for p in GOLDEN.iterdir())
    assert sorted(json.loads((GOLDEN / DIGESTS).read_bytes())) == DIGEST_NAMES
    diffs = [golden_reports.mismatch(name, (tmp_path / name).read_bytes()) for name in written]
    assert not any(diffs), "\n".join(filter(None, diffs))
