#!/usr/bin/env python3
"""Validate a captured /events SSE stream against the wire grammar.

Checks on every capture:
  * each frame uses only the id/event/data/retry SSE fields, and every
    data payload parses as one stream envelope {seq, type, t, data};
  * the envelope type is in the published taxonomy of stream protocol 2
    (hello, snapshot, delta, dip, span, result, job);
  * every `dip` envelope carries trial, iteration, solve_ms and
    difficulty, and no (job, trial, iteration) repeats: each DIP is
    published exactly once;
  * the frame's `event:` name matches the envelope type and its `id:`
    equals the envelope seq;
  * the first frame is the synthesized hello and a snapshot follows;
  * the id-carrying frames have strictly increasing sequence numbers
    (the bus's single total order, observed over the wire).

Options layer job-plane assertions on top:
  --job ID          the capture is a filtered /events?job=ID stream:
                    every envelope must be tagged with that job (no
                    foreign or untagged bus events forwarded) and at
                    least one `job` lifecycle event must appear.
  --expect-type T   type T appears at least once (repeatable).
  --result PATH     the final snapshot's summed conflict total equals
                    the summed per-trial conflicts of result.json at
                    PATH (the flush-at-solve-boundary guarantee).
  --job-result ID=PATH
                    same equality, restricted to snapshot series
                    labeled job="ID" — the per-job drain snapshot must
                    equal that job's own result.json.
"""

import argparse
import json
import sys

TYPES = ("hello", "snapshot", "delta", "dip", "span", "result", "job")

DIP_FIELDS = ("trial", "iteration", "solve_ms", "difficulty")

CONFLICTS = "dynunlock_sat_conflicts_total"


def parse_frames(path):
    frames, cur = [], {}
    for raw in open(path):
        line = raw.rstrip("\n").rstrip("\r")
        if line == "":
            if "data" in cur:
                frames.append(cur)
            cur = {}
            continue
        if line.startswith(":"):
            continue
        field, _, value = line.partition(":")
        value = value[1:] if value.startswith(" ") else value
        assert field in ("id", "event", "data", "retry"), \
            f"bad SSE field: {line!r}"
        cur[field] = cur.get(field, "") + value if field == "data" else value
    if "data" in cur:
        frames.append(cur)
    return frames


def snapshot_conflicts(snap, job=None):
    total = 0
    for k, v in snap["data"].items():
        if not (k == CONFLICTS or k.startswith(CONFLICTS + "{")):
            continue
        if job is not None and f'job="{job}"' not in k:
            continue
        total += v
    return int(total)


def result_conflicts(path):
    result = json.load(open(path))
    return sum(t["solver"]["conflicts"] for t in result["trials"])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("capture")
    ap.add_argument("--job")
    ap.add_argument("--expect-type", action="append", default=[])
    ap.add_argument("--result")
    ap.add_argument("--job-result", action="append", default=[])
    args = ap.parse_args()

    frames = parse_frames(args.capture)
    assert frames, "no SSE frames captured"
    events, last_id, dips = [], None, set()
    for f in frames:
        ev = json.loads(f["data"])
        assert ev["type"] in TYPES, ev
        if ev["type"] == "dip":
            data = ev.get("data", {})
            missing = [k for k in DIP_FIELDS if k not in data]
            assert not missing, f"dip event missing {missing}: {ev}"
            key = (ev.get("job"), data["trial"], data["iteration"])
            assert key not in dips, f"DIP published twice: {key}"
            dips.add(key)
        if f.get("event"):
            assert f["event"] == ev["type"], f
        if f.get("id"):
            assert int(f["id"]) == ev["seq"], f
            assert last_id is None or int(f["id"]) > last_id, \
                f"sequence not strictly increasing: {last_id} -> {f['id']}"
            last_id = int(f["id"])
        events.append(ev)
    assert events[0]["type"] == "hello", events[0]
    assert len(events) > 1 and events[1]["type"] == "snapshot", \
        "no connect snapshot after hello"
    snaps = [e for e in events if e["type"] == "snapshot"]

    if args.job:
        for ev, f in zip(events, frames):
            if f.get("id"):
                assert ev.get("job") == args.job, \
                    f"foreign event on filtered feed: {ev}"
        assert any(e["type"] == "job" for e in events), \
            "filtered feed carried no job lifecycle event"

    seen = {e["type"] for e in events}
    for t in args.expect_type:
        assert t in seen, f"expected a {t!r} event, saw {sorted(seen)}"

    if args.result:
        streamed = snapshot_conflicts(snaps[-1])
        recorded = result_conflicts(args.result)
        print(f"streamed={streamed} recorded={recorded}")
        assert streamed == recorded, (streamed, recorded)

    for spec in args.job_result:
        job, _, path = spec.partition("=")
        streamed = snapshot_conflicts(snaps[-1], job=job)
        recorded = result_conflicts(path)
        print(f"{job}: streamed={streamed} recorded={recorded}")
        assert streamed == recorded, (job, streamed, recorded)

    print(f"{args.capture}: {len(frames)} frames ok "
          f"({', '.join(sorted(seen))})")


if __name__ == "__main__":
    sys.exit(main())
