#!/usr/bin/env python3
"""Bench-smoke guard for the per-tuple dispatch overhead budgets.

Usage: check_bench_guard.py BENCH_pr3_telemetry.json BENCH_pr2.json \\
           [BENCH_pr5_flow.json]
       check_bench_guard.py --pr7 BENCH_pr7_scale.json
       check_bench_guard.py --pr8 BENCH_pr8_soak.json
       check_bench_guard.py --pr9 BENCH_pr9_keyed.json BENCH_pr2.json
       check_bench_guard.py --pr10 BENCH_pr10_tournament.json BENCH_pr2.json

Cross-checks the freshly measured overhead reports against the
checked-in PR2 data-plane baseline:

1. the instrumented dispatch path (telemetry + the injected-Clock
   timestamp indirection; with the optional third report, also the
   flow-control credit/mailbox bookkeeping) must stay within the 5%
   overhead budget of the same-machine baseline column, which replays
   PR2's `dispatch_clone_and_record` workload (125.9 ns on the
   reference machine);
2. each re-measured baseline must be in the same ballpark as the
   checked-in reference — a wildly different number means the bench is
   no longer measuring the PR2 workload and the percentage above is
   meaningless.

`--pr7` guards the sharded-engine scaling curve instead: every point
must conserve tuples, every point must clear an absolute tuples/sec
floor (holds even on a one-core container), and — only when the
measuring host has >= 4 cores, because extra threads cannot speed up a
single core — the best multi-thread point must reach min(4, cores/2)x
the single-thread wall clock.

`--pr9` guards the partition-aware dispatch path: the Broadcast-edge
row (every pre-PR9 edge) must stay within the 5% budget over the PR2
baseline — the partition generalization must be free where it is not
used — while the full KeyBy row (key hash + rendezvous ownership) is
reported informationally.

`--pr8` guards the reactor loopback soak: frame accounting must be
exact (sensed = delivered + shed_at_source, zero lost, zero per-stream
reorders), every churned lease must have produced a registry tombstone
(and no more than a sliver of live leases may have starved out), and
both the registry-lookup p99 and the end-to-end frame p99 must hold
under generous absolute ceilings sized for slow CI hosts. The medians
are gated too: a reactor that sleeps out a timer before it notices a
frame shows in the p50 long before the p99 (the sweep reactor's lookup
p50 was 4.5 ms at 200 workers; woken on send it is under 1 ms).
"""

import json
import sys


def pick(benches, name):
    for b in benches:
        if b["name"] == name:
            return b
    sys.exit(f"FAIL: no bench named {name!r} in report")


def check_report(report, bench_name, what, ref):
    budget = float(report.get("budget_pct", 5.0))
    disp = pick(report["benches"], bench_name)

    print(f"checked-in PR2 dispatch baseline : {ref:8.1f} ns/op")
    print(f"re-measured baseline (this host) : {disp['baseline']:8.1f} ns/op")
    print(f"instrumented ({what:<15}) : {disp['instrumented']:8.1f} ns/op")
    print(f"overhead                         : {disp['overhead_pct']:8.2f} %  (budget {budget}%)")

    if disp["overhead_pct"] > budget:
        sys.exit(
            f"FAIL: {what} dispatch overhead {disp['overhead_pct']:.2f}% exceeds "
            f"the {budget}% budget over the PR2 baseline"
        )

    # Sanity-check the measurement itself: CI hosts differ from the
    # reference machine, but not by an order of magnitude.
    ratio = disp["baseline"] / ref
    if not 0.2 <= ratio <= 5.0:
        sys.exit(
            f"FAIL: re-measured baseline {disp['baseline']:.1f} ns is {ratio:.1f}x "
            f"the checked-in {ref} ns reference; the bench no longer replays "
            "the PR2 dispatch workload"
        )

    print(f"OK: {what} dispatch cost within budget of the PR2 baseline")


# Absolute throughput floor for every scaling point. The reference
# one-core container sustains ~9.5k tuples/sec at the 10 000-device
# point, so 2 000 leaves headroom for slow CI hosts without letting a
# real regression (an accidentally quadratic scan, say) slip through.
PR7_TUPLES_PER_SEC_FLOOR = 2_000.0


def check_pr7(report):
    cores = int(report["host_cores"])
    rows = list(report["scale"]) + list(report["threads"])
    print(f"pr7 scaling curve: {len(rows)} points measured on a {cores}-core host")

    for row in rows:
        where = f"{row['devices']} devices @ {row['threads']} threads"
        if not row["conserved"]:
            sys.exit(f"FAIL: {where} violated tuple conservation")
        tps = float(row["tuples_per_sec"])
        print(f"  {where:<28} {row['wall_ms']:>7} ms  {tps:>9.0f} tuples/s")
        if tps < PR7_TUPLES_PER_SEC_FLOOR:
            sys.exit(
                f"FAIL: {where} ran at {tps:.0f} tuples/sec, below the "
                f"{PR7_TUPLES_PER_SEC_FLOOR:.0f} floor"
            )

    if cores < 4:
        print(
            f"OK: throughput floor holds; speedup gate skipped "
            f"({cores}-core host cannot demonstrate parallel speedup)"
        )
        return
    # Only thread counts the host can actually run in parallel count
    # toward the gate.
    eligible = [r for r in report["threads"] if r["threads"] <= cores]
    best = max(float(r["speedup_vs_1t"]) for r in eligible)
    required = min(4.0, cores / 2.0)
    if best < required:
        sys.exit(
            f"FAIL: best speedup {best:.2f}x on a {cores}-core host, "
            f"below the required {required:.1f}x"
        )
    print(f"OK: throughput floor holds and best speedup {best:.2f}x >= {required:.1f}x")


# Absolute latency ceilings for the soak. The reference 1000-worker run
# on a loaded container measures lookup p99 in the tens of ms and e2e
# p99 well under 100 ms; the ceilings catch a broken reactor loop (which
# degrades to seconds or deadlock) while tolerating slow shared CI
# runners and scheduler noise.
PR8_LOOKUP_P99_CEILING_US = 250_000
PR8_E2E_P99_CEILING_US = 500_000
# Median ceilings, per 200 workers. Every producer sends one frame per
# connection per tick, so the median frame waits for half a burst to
# cross the one reactor thread and the p50 grows with the fleet: 2 ms at
# the CI soak's 200 workers, 10 ms at the checked-in 1000-worker run
# (measured: 0.5-1.6 ms and 3.5-7.5 ms).
PR8_P50_CEILING_US_PER_200_WORKERS = 2_000


def check_pr8(report):
    workers = int(report["workers"])
    sensed = int(report["sensed"])
    delivered = int(report["delivered"])
    shed = int(report["shed_at_source"])
    lost = int(report["lost"])
    print(
        f"pr8 reactor soak: {workers} workers, {sensed} sensed = "
        f"{delivered} delivered + {shed} shed + {lost} lost"
    )

    if workers < 100:
        sys.exit(f"FAIL: soak ran only {workers} workers; not a scale test")
    if delivered == 0:
        sys.exit("FAIL: soak delivered nothing")
    if lost != 0:
        sys.exit(f"FAIL: {lost} frames lost under churn")
    if not report["conserved"] or sensed != delivered + shed + lost:
        sys.exit("FAIL: frame conservation identity violated")
    if int(report["order_violations"]) != 0:
        sys.exit(f"FAIL: {report['order_violations']} per-stream reorders")

    churned = int(report["churned"])
    tombstones = int(report["tombstones"])
    if tombstones < churned:
        sys.exit(
            f"FAIL: only {tombstones} registry tombstones for "
            f"{churned} churned leases"
        )
    # Tombstones beyond the churned set are live leases the registry
    # starved out — renewal fell behind the TTL at this scale.
    if tombstones > churned + workers // 10:
        sys.exit(
            f"FAIL: {tombstones - churned} live leases expired despite "
            f"renewal (of {workers} workers)"
        )

    lookup_p99 = int(report["lookup_p99_us"])
    e2e_p99 = int(report["e2e_p99_us"])
    print(
        f"  churn {churned} leases -> {tombstones} tombstones; "
        f"lookup p99 {lookup_p99 / 1000:.1f} ms, e2e p99 {e2e_p99 / 1000:.1f} ms"
    )
    if lookup_p99 > PR8_LOOKUP_P99_CEILING_US:
        sys.exit(
            f"FAIL: registry lookup p99 {lookup_p99} us exceeds the "
            f"{PR8_LOOKUP_P99_CEILING_US} us ceiling"
        )
    if e2e_p99 > PR8_E2E_P99_CEILING_US:
        sys.exit(
            f"FAIL: end-to-end p99 {e2e_p99} us exceeds the "
            f"{PR8_E2E_P99_CEILING_US} us ceiling"
        )
    p50_ceiling = PR8_P50_CEILING_US_PER_200_WORKERS * max(1, workers // 200)
    for what in ("lookup_p50_us", "e2e_p50_us"):
        if int(report[what]) > p50_ceiling:
            sys.exit(
                f"FAIL: {what} {report[what]} exceeds the {p50_ceiling} us "
                f"ceiling for {workers} workers"
            )
    print(
        f"OK: zero loss across {delivered} frames on {workers} workers; "
        "tombstones, p50 and p99 ceilings hold"
    )


def check_pr9(report, ref):
    check_report(report, "dispatch_broadcast_overhead", "partition match", ref)
    keyed = pick(report["benches"], "dispatch_keyed_overhead")
    print(
        f"keyed (KeyBy) dispatch, informational: {keyed['instrumented']:.1f} ns/op "
        f"(+{keyed['overhead_pct']:.2f}% over the two-clone baseline)"
    )


def check_pr10(report, ref):
    check_report(report, "dispatch_vitals_overhead", "vitals snapshot", ref)
    resel = pick(report["benches"], "policy_reselect_cost")
    print(
        f"energy-aware re-selection, informational: {resel['instrumented']:.1f} ns "
        "per 8-worker RSS rebalance (control-period work, not per-tuple)"
    )


def main():
    if len(sys.argv) == 4 and sys.argv[1] == "--pr10":
        with open(sys.argv[2], encoding="utf-8") as f:
            pr10 = json.load(f)
        with open(sys.argv[3], encoding="utf-8") as f:
            pr2 = json.load(f)
        check_pr10(pr10, pick(pr2["benches"], "dispatch_clone_and_record")["after"])
        return
    if len(sys.argv) == 4 and sys.argv[1] == "--pr9":
        with open(sys.argv[2], encoding="utf-8") as f:
            pr9 = json.load(f)
        with open(sys.argv[3], encoding="utf-8") as f:
            pr2 = json.load(f)
        check_pr9(pr9, pick(pr2["benches"], "dispatch_clone_and_record")["after"])
        return
    if len(sys.argv) == 3 and sys.argv[1] == "--pr8":
        with open(sys.argv[2], encoding="utf-8") as f:
            check_pr8(json.load(f))
        return
    if len(sys.argv) == 3 and sys.argv[1] == "--pr7":
        with open(sys.argv[2], encoding="utf-8") as f:
            check_pr7(json.load(f))
        return
    if len(sys.argv) not in (3, 4):
        sys.exit(__doc__)
    with open(sys.argv[1], encoding="utf-8") as f:
        pr3 = json.load(f)
    with open(sys.argv[2], encoding="utf-8") as f:
        pr2 = json.load(f)

    ref = pick(pr2["benches"], "dispatch_clone_and_record")["after"]
    check_report(pr3, "dispatch_telemetry_overhead", "telemetry + clock", ref)

    if len(sys.argv) == 4:
        with open(sys.argv[3], encoding="utf-8") as f:
            pr5 = json.load(f)
        print()
        check_report(pr5, "dispatch_flow_overhead", "flow control", ref)


if __name__ == "__main__":
    main()
