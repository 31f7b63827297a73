#!/usr/bin/env python3
"""Assertions the CI campaign matrix runs against campaign artifacts.

Moved out of inline workflow YAML so the checks are testable, diffable
and shared between CI and local runs:

    python scripts/ci_checks.py faults faults-a.json
    python scripts/ci_checks.py chaos chaos-a.json
    python scripts/ci_checks.py fleet fleet-a.json fleet-b.json \
        --baseline BENCH_FLEET.json
    python scripts/ci_checks.py golden --out golden-digests.json

Each subcommand exits non-zero with a reason on the first failed
assertion and prints a one-line OK summary otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict


def _load(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _metric_total(doc: Dict[str, Any], name: str) -> float:
    return sum(entry["value"] for entry in doc["metrics"][name])


def check_faults(args: argparse.Namespace) -> int:
    """The fault campaign must actually have exercised recovery."""
    doc = _load(args.snapshot)
    summary = doc["meta"]["summary"]
    assert summary["reconnect_attempts"] > 0, "no reconnect attempts"
    assert summary["reconnect_recovered"] > 0, "channel never recovered"
    for name in ("messaging.reconnect.attempts_total",
                 "messaging.reconnect.recovered_total"):
        assert _metric_total(doc, name) > 0, f"{name} is zero"
    print(f"recovery OK: {summary['reconnect_attempts']} attempts, "
          f"{summary['reconnect_recovered']} recovered, "
          f"backoff {summary['backoff_delays']}")
    return 0


def check_chaos(args: argparse.Namespace) -> int:
    """The chaos campaign must have restarted, converged and balanced."""
    doc = _load(args.snapshot)
    summary = doc["meta"]["summary"]
    assert summary["restarts"] > 0, "supervision never restarted anything"
    assert summary["transfer_done"], "transfer did not complete after restarts"
    assert summary["pings_answered"] > summary["pings_answered_before_tail"], \
        "no pings answered after the last chaos event"
    restarts = _metric_total(doc, "kompics.restarts_total")
    assert restarts == summary["restarts"], "restart counter mismatch"
    deadletters = _metric_total(doc, "kompics.deadletters_total")
    assert deadletters == summary["deadletters"], \
        "dead-letter leak: counter mismatch"
    print(f"chaos OK: {summary['restarts']} restarts, "
          f"{summary['deadletters']} dead letters, converged")
    return 0


def check_chaos_aio(args: argparse.Namespace) -> int:
    """Real-socket chaos: zero leaks, zero duplicates, epochs monotone.

    The artifact is one ``repro chaos --backend aio --format json`` run:
    a live AioNetwork killed and supervision-restarted mid-transfer.  The
    gate asserts the crash-recovery contract, not throughput: every
    MessageNotify resolved exactly once (``leaked == 0``), no chunk was
    delivered twice (the epoch fence + dedup window), every planned kill
    actually happened, and each incarnation announced a strictly larger
    network epoch with the ``aio.epoch``/``aio.nodup`` invariants clean.
    """
    doc = _load(args.artifact)
    assert doc.get("kind") == "chaos-aio", \
        f"not a chaos-aio artifact: kind={doc.get('kind')!r}"
    assert doc["restarts_done"] >= 1, "no supervised restart ever happened"
    assert doc["restarts_done"] == doc["restarts_planned"], \
        f"only {doc['restarts_done']}/{doc['restarts_planned']} kills landed"
    assert doc["leaked"] == 0, \
        f"{doc['leaked']} notifies never resolved (leak across restart)"
    assert doc["duplicates_delivered"] == 0, \
        f"{doc['duplicates_delivered']} duplicate chunk deliveries"
    epochs = doc["epochs"]
    assert len(epochs) == doc["restarts_done"] + 1, \
        f"expected {doc['restarts_done'] + 1} epochs, saw {len(epochs)}"
    assert all(a < b for a, b in zip(epochs, epochs[1:])), \
        f"network epochs not strictly increasing: {epochs}"
    assert doc["check_ok"], "invariant violations: " + "; ".join(doc["violations"])
    assert doc["sender_done"], "sender never finished its accounting"
    if doc["redelivery"] == "at-least-once":
        assert doc["delivered_unique"] == doc["chunks"], \
            f"at-least-once lost chunks: {doc['delivered_unique']}/{doc['chunks']}"
        assert doc["failed"] == 0, \
            f"at-least-once failed {doc['failed']} notifies"
    assert doc["converged"], "campaign did not converge"
    assert "aio" in doc.get("check_streams", {}), \
        "no aio digest stream recorded (checker was off?)"
    print(f"chaos-aio OK: {doc['transport']}/{doc['redelivery']}, "
          f"{doc['restarts_done']} restart(s), epochs {epochs}, "
          f"{doc['delivered_unique']}/{doc['chunks']} delivered, "
          f"0 leaked, 0 duplicated")
    return 0


def check_loopback(args: argparse.Namespace) -> int:
    """The real-socket loopback run must be loss-free and leak-free.

    Every transport's run has to deliver all chunks, resolve every
    MessageNotify (success), and leak nothing; the DATA run must have
    actually exercised the adaptive selector (only wire protocols on the
    received messages, never the DATA pseudo-protocol).
    """
    doc = _load(args.artifact)
    assert doc.get("kind") == "loopback-comparison", \
        f"not a loopback artifact: kind={doc.get('kind')!r}"
    runs = doc["runs"]
    assert runs, "loopback artifact contains no runs"
    for run in runs:
        t = run["transport"]
        assert run["delivered"] == run["chunks"], \
            f"{t}: delivered {run['delivered']}/{run['chunks']} chunks"
        assert run["notifies_ok"] == run["chunks"], \
            f"{t}: only {run['notifies_ok']}/{run['chunks']} notifies succeeded"
        assert run["notifies_failed"] == 0, \
            f"{t}: {run['notifies_failed']} failed notifies"
        assert run["leaked_notifies"] == 0, \
            f"{t}: {run['leaked_notifies']} notifies never resolved (leak)"
        assert run["throughput"] > 0, f"{t}: zero throughput"
        if t == "data":
            assert "data" not in run["protocols"], \
                "DATA pseudo-protocol reached the wire unstamped"
            assert run["protocols"], "data run recorded no wire protocols"
    summary = ", ".join(
        f"{run['transport']} {run['throughput'] / (1024 * 1024):.1f} MB/s"
        for run in runs
    )
    print(f"loopback OK: {len(runs)} run(s) complete, zero leaks ({summary})")
    return 0


def check_fleet(args: argparse.Namespace) -> int:
    """Fleet campaign artifacts: valid schema, deterministic, no failures.

    Compares two artifacts from independent invocations (different
    ``PYTHONHASHSEED``) byte for byte, validates the document against
    its own units, requires every unit ok, and — when a committed
    baseline exists — pins the merged digest to it so a silent
    determinism break shows up as a diff against history.  A missing
    baseline is tolerated with a note (the artifact lands in the same
    PR that introduces the gate).
    """
    from repro.bench.fleet import validate_campaign_document

    with open(args.run_a, "rb") as fh:
        bytes_a = fh.read()
    with open(args.run_b, "rb") as fh:
        bytes_b = fh.read()
    assert bytes_a == bytes_b, \
        f"{args.run_a} and {args.run_b} differ: campaign is not deterministic"

    doc = json.loads(bytes_a)
    problems = validate_campaign_document(doc)
    assert not problems, "invalid campaign document: " + "; ".join(problems)
    totals = doc["merged"]["totals"]
    assert totals["failed"] == 0, f"{totals['failed']} campaign unit(s) failed"

    if args.baseline and os.path.exists(args.baseline):
        baseline = _load(args.baseline)
        base_units = {
            (u["scenario"], u["seed"]): u.get("digest")
            for u in baseline.get("units", [])
        }
        matched = mismatched = 0
        for unit in doc["units"]:
            expected = base_units.get((unit["scenario"], unit["seed"]))
            if expected is None:
                continue
            if unit.get("digest") == expected:
                matched += 1
            else:
                mismatched += 1
                print(f"unit digest drift: {unit['scenario']} seed "
                      f"{unit['seed']}: {unit.get('digest')} != {expected}",
                      file=sys.stderr)
        assert mismatched == 0, \
            f"{mismatched} unit digest(s) drifted from {args.baseline}"
        note = f", {matched} unit digest(s) match {args.baseline}"
    else:
        note = f", baseline {args.baseline!r} not present (tolerated)"
    print(f"fleet OK: {totals['ok']}/{totals['units']} units, "
          f"merged digest {doc['merged']['digest']}{note}")
    return 0


def check_hygiene(args: argparse.Namespace) -> int:
    """No compiled Python artifacts may ever be tracked by git.

    A tracked ``.pyc`` is stale the moment its source changes and breaks
    fresh-clone determinism; this gate fails the build if ``git ls-files``
    reports any ``__pycache__`` directory or ``*.pyc`` file.
    """
    import subprocess

    out = subprocess.run(
        ["git", "ls-files"], capture_output=True, text=True, check=True,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    tracked = out.stdout.splitlines()
    offenders = [
        path for path in tracked
        if "__pycache__" in path.split("/") or path.endswith(".pyc")
    ]
    assert not offenders, \
        "compiled artifacts tracked by git: " + ", ".join(offenders)
    print(f"hygiene OK: {len(tracked)} tracked files, no __pycache__/*.pyc")
    return 0


def check_cc_matrix(args: argparse.Namespace) -> int:
    """The congestion-control sweep must be deterministic per arm.

    Takes two artifacts from independent ``repro fleet campaign`` runs
    over the registered cc scenarios (different ``PYTHONHASHSEED``) and
    asserts: byte-identical artifacts, a valid campaign document, every
    unit converged, at least ``--min-arms`` distinct cc scenarios swept,
    and — since each arm drives a different controller — pairwise
    distinct digests per seed across arms.  Identical digests would mean
    the ``cc=`` spec silently stopped reaching the flows.
    """
    from repro.bench.fleet import validate_campaign_document

    with open(args.run_a, "rb") as fh:
        bytes_a = fh.read()
    with open(args.run_b, "rb") as fh:
        bytes_b = fh.read()
    assert bytes_a == bytes_b, \
        f"{args.run_a} and {args.run_b} differ: cc sweep is not deterministic"

    doc = json.loads(bytes_a)
    problems = validate_campaign_document(doc)
    assert not problems, "invalid campaign document: " + "; ".join(problems)
    totals = doc["merged"]["totals"]
    assert totals["failed"] == 0, f"{totals['failed']} cc sweep unit(s) failed"

    cc_units = [u for u in doc["units"] if u["scenario"].startswith("cc-")]
    assert cc_units, "no cc-* scenarios in the artifact"
    arms = sorted({u["scenario"] for u in cc_units})
    assert len(arms) >= args.min_arms, \
        f"only {len(arms)} cc arm(s) swept ({', '.join(arms)}); " \
        f"need at least {args.min_arms}"

    by_seed: Dict[Any, Dict[str, str]] = {}
    for unit in cc_units:
        by_seed.setdefault(unit["seed"], {})[unit["scenario"]] = unit["digest"]
    for seed, digests in sorted(by_seed.items()):
        values = list(digests.values())
        assert len(set(values)) == len(values), \
            f"seed {seed}: cc arms produced colliding digests {digests}"
    print(f"cc-matrix OK: {len(arms)} arms ({', '.join(arms)}), "
          f"{len(cc_units)} units, digests distinct per seed, "
          f"merged digest {doc['merged']['digest']}")
    return 0


#: Committed golden-digest table, relative to the repository root.
GOLDEN_TABLE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "tests", "data", "golden_digests.json",
)

#: Fleet sizing for the golden table: three hosts and a 20 ms arrival
#: window put 40+ concurrent flows on at least one link direction in
#: every fleet scenario, so the vectorized max-min solver (used from
#: ``VEC_MAXMIN_THRESHOLD`` = 32 flows up) is under test, not only the
#: scalar one.
GOLDEN_FLEET_PARAMS = {
    "hosts": 3, "flows": 128, "arrival_window": 0.02, "horizon": 60.0,
}

#: The CI smoke parameters of the ``faults`` and ``chaos`` entries.
GOLDEN_CAMPAIGN_ARGS = {
    "faults": ["faults", "--duration", "12", "--cut-at", "2",
               "--cut-duration", "2", "--transfer-mb", "4", "--seed", "3",
               "--jitter", "0", "--format", "json"],
    "chaos": ["chaos", "--duration", "20", "--events", "5", "--seed", "3",
              "--format", "json"],
}


def _blake2(data: bytes) -> str:
    import hashlib

    return hashlib.blake2b(data, digest_size=16).hexdigest()


def _json_digest(doc: Any) -> str:
    return _blake2(json.dumps(doc, sort_keys=True, default=str).encode())


def golden_groups():
    """``(group, thunk)`` pairs covering the deterministic catalog.

    Each thunk runs one workload and returns ``{entry: digest}``.  The
    groups are the six perf-equivalence snapshots, the checker stream
    digests of every ``check`` workload, every ``fleet`` scenario and
    the fault/chaos campaigns.  ``loopback`` is absent: it runs on real
    sockets, so its output is not a function of its seed.
    """
    from repro.bench.perf import equivalence_workloads
    from repro.bench.scenario import scenario_names

    def snapshot(name, workload):
        return lambda: {f"equivalence/{name}": _json_digest(workload()[1])}

    def check(workload):
        def run():
            from repro.check import checking
            from repro.check.workloads import run_workload

            with checking() as chk:
                run_workload(workload, size_mb=2.0, duration=4.0, seed=3)
            doc = chk.document()
            entries = {
                f"check/{workload}/{stream}": body["digest"]
                for stream, body in doc["streams"].items()
            }
            entries[f"check/{workload}/violations"] = _json_digest(doc["violations"])
            return entries
        return run

    def fleet(scenario):
        def run():
            from repro.bench.fleet import _run_unit

            unit = _run_unit(scenario, 0, dict(GOLDEN_FLEET_PARAMS))
            assert unit["ok"], f"{scenario}: {unit.get('error')}"
            return {f"fleet/{scenario}": _json_digest(unit)}
        return run

    def campaign(name):
        def run():
            import contextlib
            import io
            import tempfile

            from repro.cli import main as repro_main

            with tempfile.TemporaryDirectory() as tmp:
                out = os.path.join(tmp, f"{name}.json")
                with contextlib.redirect_stdout(io.StringIO()):
                    repro_main(GOLDEN_CAMPAIGN_ARGS[name] + ["--output", out])
                with open(out, "rb") as fh:
                    return {f"campaign/{name}": _blake2(fh.read())}
        return run

    groups = [(f"equivalence/{name}", snapshot(name, workload))
              for name, workload in equivalence_workloads(quick=True)]
    groups += [(f"check/{name}", check(name))
               for name in scenario_names(tag="check")]
    groups += [(f"fleet/{name}", fleet(name))
               for name in scenario_names(kind="fleet")]
    groups += [(f"campaign/{name}", campaign(name)) for name in GOLDEN_CAMPAIGN_ARGS]
    return groups


def golden_table() -> Dict[str, str]:
    """Recompute every golden entry (see :func:`golden_groups`)."""
    table: Dict[str, str] = {}
    for _, run in golden_groups():
        table.update(run())
    return dict(sorted(table.items()))


def golden_drift(expected: Dict[str, str], actual: Dict[str, str]) -> list:
    """One line per entry that moved, appeared or disappeared."""
    lines = []
    for key in sorted(set(expected) | set(actual)):
        want, got = expected.get(key), actual.get(key)
        if want != got:
            lines.append(f"golden drift: {key}: {got} != {want}")
    return lines


def check_golden(args: argparse.Namespace) -> int:
    """Recompute the golden-digest table and diff it against the committed one.

    Every entry is a digest of a seeded, simulated run, so any change
    to simulated behaviour shows up here by name.  ``--out`` writes the
    recomputed table (the CI artifact, and how the table is regenerated).
    """
    actual = golden_table()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(actual, fh, indent=2, sort_keys=True)
            fh.write("\n")
    expected = _load(args.table)
    drift = golden_drift(expected, actual)
    for line in drift:
        print(line, file=sys.stderr)
    assert not drift, f"{len(drift)} of {len(expected)} golden digest(s) drifted"
    print(f"golden OK: {len(actual)} digests match {args.table}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_faults = sub.add_parser("faults", help="fault-campaign snapshot checks")
    p_faults.add_argument("snapshot")
    p_faults.set_defaults(func=check_faults)

    p_chaos = sub.add_parser("chaos", help="chaos-campaign snapshot checks")
    p_chaos.add_argument("snapshot")
    p_chaos.set_defaults(func=check_chaos)

    p_chaos_aio = sub.add_parser(
        "chaos-aio", help="real-socket chaos artifact checks"
    )
    p_chaos_aio.add_argument("artifact")
    p_chaos_aio.set_defaults(func=check_chaos_aio)

    p_loopback = sub.add_parser(
        "loopback", help="real-socket loopback artifact checks"
    )
    p_loopback.add_argument("artifact")
    p_loopback.set_defaults(func=check_loopback)

    p_fleet = sub.add_parser("fleet", help="fleet campaign artifact checks")
    p_fleet.add_argument("run_a")
    p_fleet.add_argument("run_b")
    p_fleet.add_argument("--baseline", default="BENCH_FLEET.json",
                         help="committed campaign artifact to pin digests "
                              "against (missing file tolerated)")
    p_fleet.set_defaults(func=check_fleet)

    p_hygiene = sub.add_parser(
        "hygiene", help="fail if git tracks __pycache__/*.pyc artifacts"
    )
    p_hygiene.set_defaults(func=check_hygiene)

    p_cc = sub.add_parser(
        "cc-matrix", help="congestion-control sweep artifact checks"
    )
    p_cc.add_argument("run_a")
    p_cc.add_argument("run_b")
    p_cc.add_argument("--min-arms", type=int, default=3,
                      help="minimum distinct cc-* scenarios required")
    p_cc.set_defaults(func=check_cc_matrix)

    p_golden = sub.add_parser(
        "golden", help="recompute the golden-digest table and diff it"
    )
    p_golden.add_argument("--table", default=GOLDEN_TABLE,
                          help="committed table to compare against")
    p_golden.add_argument("--out", default=None,
                          help="also write the recomputed table here")
    p_golden.set_defaults(func=check_golden)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AssertionError as exc:
        print(f"{args.command} check FAILED: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
