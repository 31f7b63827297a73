"""Golden-digest table: the committed fingerprint of every seeded workload.

``tests/data/golden_digests.json`` holds one digest per deterministic
catalog entry (see ``scripts/ci_checks.py golden``).  A change to
simulated behaviour anywhere in the stack moves at least one entry; the
failure message names each one that moved.
"""

import json

import pytest

import repro.netsim.link as link_mod
import scripts.ci_checks as ci_checks

pytestmark = pytest.mark.integration


def test_golden_table_matches_committed(monkeypatch):
    widest = {}
    vec = link_mod.max_min_allocation_vec

    def spy(demands, capacity):
        widest[current] = max(widest.get(current, 0), len(demands))
        return vec(demands, capacity)

    monkeypatch.setattr(link_mod, "max_min_allocation_vec", spy)
    groups = ci_checks.golden_groups()
    actual = {}
    for current, run in groups:
        actual.update(run())

    with open(ci_checks.GOLDEN_TABLE, encoding="utf-8") as fh:
        expected = json.load(fh)
    assert ci_checks.golden_drift(expected, actual) == []

    # Every fleet entry must drive the vectorized solver, not only the
    # scalar one, or the table could not see a change to it.
    fleet = [group for group, _ in groups if group.startswith("fleet/")]
    assert len(fleet) == 10
    if link_mod._np is None:
        return  # scalar-only install: the solvers are bit-equal anyway
    for group in fleet:
        assert widest.get(group, 0) >= link_mod.VEC_MAXMIN_THRESHOLD, group


def test_golden_table_covers_the_catalog():
    with open(ci_checks.GOLDEN_TABLE, encoding="utf-8") as fh:
        table = json.load(fh)
    prefixes = {key.split("/")[0] for key in table}
    assert prefixes == {"equivalence", "check", "fleet", "campaign"}
    assert sum(key.startswith("equivalence/") for key in table) == 6
    for workload in ("transfer", "fig8", "obs"):
        assert f"check/{workload}/sim" in table
    assert {"campaign/faults", "campaign/chaos"} <= set(table)
    assert not any("loopback" in key for key in table)


def test_drift_names_each_moved_entry(tmp_path, capsys, monkeypatch):
    table = {"a": "1", "b": "2"}
    monkeypatch.setattr(ci_checks, "golden_table", lambda: {"a": "1", "b": "3", "c": "4"})
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(table))
    out = tmp_path / "recomputed.json"
    assert ci_checks.main(["golden", "--table", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "golden drift: b: 3 != 2" in err
    assert "golden drift: c: 4 != None" in err
    assert "a:" not in err
    assert json.loads(out.read_text()) == {"a": "1", "b": "3", "c": "4"}
