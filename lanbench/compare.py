#!/usr/bin/env python3
"""Compare two result sets of the benchmark (see sweep.py), or show the
spread of one.

    python3 lanbench/compare.py base.jsonl            # spread of one set
    python3 lanbench/compare.py base.jsonl new.jsonl  # new against base

For every workload and metric it prints each set's median and
quartiles (statistics.quantiles, n=4) and the spread, the distance
between the quartiles as a share of the median.  Given two sets it
adds a paired verdict:

  wins   share of seed-matched pairs the new set wins (ties count for
         neither side; "-" when the sets share no seed)
  worse  how much worse the new median is than the base median, as a
         share of the base median (negative: better)
  verdict
    gain        wins >= 0.9 and the medians differ, in the better
                direction, by more than the base set's quartile distance
    regression  worse by more than the metric's bound
    unresolved  a set's spread is wider than the bound, unless every new
                run beats every base run
    agree       within the bound

End-to-end metrics carry the bound BENCHMARK.json fixes; per-layer
metrics have none and get only gain or "-".  Every metric, setup_s
included, gets the same rule.

Failed operations leave the metrics: a failed transfer has no latency
and moves no payload.  So the tool also compares each workload's
failed share (failed over attempted, summed over the set's runs): a
higher share in the new set is a regression of that workload, and
none of its metrics can read as a gain.

The two sets must come from the same NetIo backend and offload state:
otherwise the tool refuses (exit 2).  It exits 1 when a failed share
or an end-to-end metric regresses or is unresolved, 0 when all agree
or gain.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
BETTER = {m["name"]: m["better"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
ORDER = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]


def declared(keys):
    """The (workload, metric) keys BENCHMARK.json declares, in its order."""
    return sorted((k for k in keys if k[1] in ORDER), key=lambda k: (k[0], ORDER.index(k[1])))


def load(path):
    """{(workload, metric): {seed: value}}, {workload: [failed,
    attempted]} and the set's host stamps."""
    values = defaultdict(dict)
    ops = defaultdict(lambda: [0, 0])
    hosts = []
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        hosts.append(rec["host"])
        result = rec["result"]
        ops[rec["workload"]][0] += result["failed"]
        ops[rec["workload"]][1] += result["attempted"]
        for name, m in result["metrics"].items():
            values[(rec["workload"], name)][rec["seed"]] = m["value"]
    return values, ops, hosts


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return q1, med, q3


def spread(vals):
    q1, med, q3 = quartiles(vals)
    return (q3 - q1) / abs(med) if med else float("inf")


def better(name, a, b):
    """Is a better than b?"""
    return a < b if BETTER[name] == "lower" else a > b


def refuse_mixed(hosts):
    for key in ("netio_backend", "netio_offload"):
        seen = {h[key] for h in hosts}
        if len(seen) > 1:
            sys.exit(f"refusing to compare: result sets mix {key} {sorted(seen)}")
    for key in ("nproc", "pacing"):
        seen = {str(h[key]) for h in hosts}
        if len(seen) > 1:
            print(f"note: result sets differ in {key}: {sorted(seen)}")


def fmt(x):
    return f"{x:.4g}"


def show_one(values):
    print(f"{'workload':14} {'metric':30} {'n':>3} {'q1':>10} {'median':>10} "
          f"{'q3':>10} {'spread':>7} {'bound':>6}")
    for (w, name) in declared(values):
        vals = list(values[(w, name)].values())
        q1, med, q3 = quartiles(vals)
        bound = BOUNDS.get(name)
        flag = ""
        if bound is not None and spread(vals) > bound / 3:
            flag = "  > bound/3"
        print(f"{w:14} {name:30} {len(vals):3} {fmt(q1):>10} {fmt(med):>10} {fmt(q3):>10} "
              f"{spread(vals):7.3f} {bound if bound is not None else '-':>6}{flag}")
    return 0


def failed_share(ops):
    failed, attempted = ops
    return failed / attempted if attempted else 0.0


def show_two(base, new, base_ops, new_ops):
    bad = 0
    more_failures = set()
    print(f"{'workload':14} {'failed/attempted base':>24} {'new':>24}  verdict")
    for w in sorted(set(base_ops) & set(new_ops)):
        bf, nf = failed_share(base_ops[w]), failed_share(new_ops[w])
        verdict = "regression" if nf > bf else "agree"
        if nf > bf:
            more_failures.add(w)
            bad += 1
        print(f"{w:14} {'%d/%d' % tuple(base_ops[w]):>24} {'%d/%d' % tuple(new_ops[w]):>24}  {verdict}")
    print()
    print(f"{'workload':14} {'metric':30} {'base median [q1, q3]':>30} "
          f"{'new median [q1, q3]':>30} {'worse':>7} {'wins':>5}  verdict")
    for key in declared(set(base) & set(new)):
        w, name = key
        b, n = base[key], new[key]
        bq1, bmed, bq3 = quartiles(list(b.values()))
        nq1, nmed, nq3 = quartiles(list(n.values()))
        pairs = [(b[s], n[s]) for s in b if s in n]
        share = sum(better(name, nv, bv) for bv, nv in pairs) / len(pairs) if pairs else None
        worse = (nmed - bmed) / abs(bmed) if bmed else 0.0
        if BETTER[name] == "higher":
            worse = -worse
        bound = BOUNDS.get(name)
        dominant = all(better(name, nv, bv) for bv in b.values() for nv in n.values())
        if (w not in more_failures and share is not None and share >= 0.9
                and better(name, nmed, bmed) and abs(nmed - bmed) > bq3 - bq1):
            verdict = "gain"
        elif bound is None:
            verdict = "-"
        elif worse > bound:
            verdict = "regression"
        elif (max(spread(list(b.values())), spread(list(n.values()))) > bound
              and not dominant):
            verdict = "unresolved"
        else:
            verdict = "agree"
        bad += verdict in ("regression", "unresolved")
        bcol = f"{fmt(bmed)} [{fmt(bq1)}, {fmt(bq3)}]"
        ncol = f"{fmt(nmed)} [{fmt(nq1)}, {fmt(nq3)}]"
        print(f"{w:14} {name:30} {bcol:>30} {ncol:>30} {worse:+7.3f} {'-' if share is None else f'{share:.2f}':>5}  {verdict}")
    print("every failed share and end-to-end metric agrees within its bound" if not bad
          else f"{bad} failed share(s) or end-to-end metric(s) regress or are unresolved")
    return 1 if bad else 0


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    sets = [load(p) for p in sys.argv[1:]]
    refuse_mixed([h for _, _, hosts in sets for h in hosts])
    if len(sets) == 1:
        return show_one(sets[0][0])
    (base, base_ops, _), (new, new_ops, _) = sets
    return show_two(base, new, base_ops, new_ops)


if __name__ == "__main__":
    sys.exit(main())
