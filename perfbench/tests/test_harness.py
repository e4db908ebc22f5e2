"""Tests of the benchmark harness itself (not of klsym).

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import hashlib
import json
import random
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run as bench  # noqa: E402
import tracer  # noqa: E402


REPORT = {
    "schema": "klsym-report/1",
    "config": {"p": 5, "timing": "kept: only the top-level block goes"},
    "series": [{"name": "symk", "coefficients": [{"r": 0, "value": 1}]}],
    "verdict": None,
    "timing": {"seconds": 1.5, "cache": {"hits": 3}},
}


def test_digest_strips_exactly_timing():
    body = {k: v for k, v in REPORT.items() if k != "timing"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    assert bench.report_digest(REPORT) == hashlib.sha256(canonical.encode()).hexdigest()

    retimed = dict(REPORT, timing={"seconds": 99.0})
    assert bench.report_digest(retimed) == bench.report_digest(REPORT)
    untimed = {k: v for k, v in REPORT.items() if k != "timing"}
    assert bench.report_digest(untimed) == bench.report_digest(REPORT)

    for key in ("schema", "config", "series", "verdict"):
        changed = dict(REPORT, **{key: "other"})
        assert bench.report_digest(changed) != bench.report_digest(REPORT), key
    nested = json.loads(json.dumps(REPORT))
    nested["config"]["timing"] = "changed"
    assert bench.report_digest(nested) != bench.report_digest(REPORT)


def test_self_times_on_nested_tree():
    # run [0, 10] -> a [1, 5] -> a1 [2, 3], a2 [2.5, 4] (overlapping);
    #             -> b [6, 9] -> b1 [8, 12] (runs past its parent)
    spans = [
        ("run", 0.0, 10.0, None),
        ("a", 1.0, 5.0, 0),
        ("a1", 2.0, 3.0, 1),
        ("a2", 2.5, 4.0, 1),
        ("b", 6.0, 9.0, 0),
        ("b1", 8.0, 12.0, 4),
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.5, 2.0, 4.0])


def test_summarize_adds_self_time_per_label():
    spans = [
        ("cli.run", 0.0, 10.0, None),
        ("lfun.local_factor", 1.0, 4.0, 0),
        ("expsum.kloosterman", 2.0, 3.0, 1),
        ("lfun.local_factor", 5.0, 6.0, 0),
    ]
    counters = {"lfun.local_factor.calls": 2, "expsum.cache.hits": 7}
    values, missing = tracer.summarize(spans, counters, [])
    assert values["cli.run.self_s"] == pytest.approx(6.0)
    assert values["lfun.local_factor.s"] == pytest.approx(3.0)
    assert values["expsum.kloosterman.s"] == pytest.approx(1.0)
    assert values["lfun.local_factor.calls"] == 2
    assert values["expsum.cache.hits"] == 7
    assert values["padic.mul.calls"] == 0
    assert missing == []
    assert set(values) == set(tracer.LAYER_METRICS)


def _fake_klsym():
    """Two modules shaped like klsym's, with a by-name import and an alias."""
    lfun = types.ModuleType("fake.lfun")

    def local_factor(x):
        return x + 1

    lfun.local_factor = local_factor

    class Ring:
        def __mul__(self, other):
            return "product"
        __rmul__ = __mul__

    Ring.__module__ = lfun.__name__
    lfun.Ring = Ring
    cli = types.ModuleType("fake.cli")
    cli.local_factor = local_factor
    return {"lfun": lfun, "cli": cli}


def test_install_rebinds_every_holder_and_reports_absent():
    mods = _fake_klsym()
    targets = (
        ("lfun", "local_factor", "lfun.local_factor", tracer.SPAN),
        ("lfun", "Ring.__mul__", "cyclo.mul", tracer.COUNT),
        ("lfun", "sym_k_factor", "lfun.sym_k_factor", tracer.SPAN),
        ("gone", "anything", "padic.slope_split", tracer.SPAN),
    )
    t = tracer.Tracer()
    t.install(mods, targets)
    assert t.absent == ["lfun.sym_k_factor", "gone.anything"]

    assert mods["cli"].local_factor(1) == 2
    assert mods["lfun"].local_factor(2) == 3
    ring = mods["lfun"].Ring()
    assert ring * 2 == "product" and 2 * ring == "product"
    assert t.counts == {"lfun.local_factor.calls": 2, "cyclo.mul.calls": 2}
    assert [s[0] for s in t.spans] == ["lfun.local_factor"] * 2

    values, missing = tracer.summarize(t.spans, t.counts, t.absent, targets)
    assert {"padic.slope_split.s", "lfun.sym_k_factor.s"} <= set(missing)
    assert not {"lfun.local_factor.s", "lfun.local_factor.calls",
                "cyclo.mul.calls"} & set(missing)
    assert values["lfun.sym_k_factor.s"] == 0


def test_dump_and_read_round_trip(tmp_path):
    t = tracer.Tracer()
    f = t.wrap("lfun.euler_product", tracer.SPAN, lambda: None)
    f()
    t.absent.append("expsum._mult_data")
    path = tmp_path / "trace.jsonl"
    t.dump(path)
    spans, counters, absent = tracer.read_trace(path)
    assert [s[0] for s in spans] == ["lfun.euler_product"]
    assert counters == {"lfun.euler_product.calls": 1}
    assert absent == ["expsum._mult_data"]


def test_shuffled_cache_copy_depends_only_on_seed(tmp_path):
    src = tmp_path / "cache.txt"
    records = [f"v1|key{i}|{i}\n" for i in range(20)]
    src.write_text("# klsym sum cache v1\n" + "".join(records))
    copies = []
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        dst = tmp_path / f"{name}.txt"
        bench.shuffled_copy(src, dst, random.Random(seed))
        copies.append(dst.read_text().splitlines(keepends=True))
    for lines in copies:
        assert lines[0] == "# klsym sum cache v1\n"
        assert sorted(lines[1:]) == sorted(records)
    assert copies[0] == copies[1] != copies[2]
