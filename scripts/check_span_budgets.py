#!/usr/bin/env python3
"""CI gate: per-span wall-time budgets for the profiled audit smoke.

Reads the profiler report that ``python -m repro --profile <cmd>`` prints
to stderr (``{"scopes": {name: {calls, total_s, ...}}, ...}``) and fails
when any budgeted span's *total* wall time exceeds its allowance, or when
a required span is missing entirely (a silent rename would otherwise turn
the budget into a no-op).

Budgets are deliberately generous — an order of magnitude above the
container this was calibrated on — so the gate catches accidental
quadratic blowups and dropped memoization, not CI-runner jitter.

Three checks are structural and machine-independent:

* the ``engine.plan`` span may run at most once per ``engine.plan_memo``
  miss, so every search must come from a plan-cache miss (none bypasses
  the process-wide plan cache);
* the ``planner.score_grid`` span may run at most once per
  ``planner.search`` call, so the candidates of the whole strategy menu
  are priced in one grid pass (one pass per strategy would run it up to
  six times as often, one per candidate ~1,000 times);
* a report in which ``planner.search`` ran must show ``planner.lp``
  cache lookups, at most six per search: one placement LP per strategy
  of the menu (attention placement x quantization), each looked up once;
* a report in which the ``parallel.controller.plan`` span ran must show
  ``parallel.curve`` cache lookups (Algorithm 3 reads its compute curve
  from that cache, so a rename or a bypass cannot hide);
* a report in which the ``serving.run`` span ran must carry the running
  batch's ``serving.batch.joins`` counter, and the batch may visit its
  members at most a fixed number of times per join
  (``serving.batch.member_visits``), so a decode step that walks the
  whole batch fails on counts, not seconds.

``--require-cache NAME>=FLOOR`` adds a hit-rate floor: the named cache
must appear in the report with ``hits / (hits + misses) >= FLOOR``.

Usage::

    python -m repro --profile audit --faults --quick 2> report.json
    python scripts/check_span_budgets.py report.json [--budget NAME=SECONDS]
        [--require NAME] [--require-cache NAME>=FLOOR]

``--budget`` entries extend or override the defaults; exit codes follow
the repo CLI convention (0 ok, 1 gate failed, 2 usage).
"""

from __future__ import annotations

import argparse
import json
import sys

#: span name -> max allowed total_s across the whole profiled run.  The
#: quick faulted audit measures ~0.006 s / ~0.045 s / ~0.05 s for these
#: on the reference container; budgets sit ~100x above that.
DEFAULT_BUDGETS: dict[str, float] = {
    "obs.audit.sweep": 30.0,
    "obs.audit.faulted_sweep": 60.0,
    "executor.run_token": 60.0,
    #: The event-driven serving engine: the quick serve-sim smoke runs
    #: the full engine comparison in well under a second on the
    #: reference container; the budget guards against the run-length
    #: advance silently degenerating back into a per-step loop.
    "serving.run": 60.0,
    #: One multi-model co-residency run (scalar loop + swap pricing).
    #: The quick --models smoke runs nine of these (3 mixes x 3
    #: schedulers) plus the dedicated baselines in a few seconds on the
    #: reference container.
    "serving.multimodel.run": 120.0,
    #: One fleet simulation (N replicas on a shared clock).  The quick
    #: fleet-sim smoke runs six of these (uniform-6 x five scenarios +
    #: baseline) in ~20 s total on the reference container; the budget
    #: guards against the per-replica event loop going quadratic in
    #: replicas or queue depth.
    "fleet.run": 300.0,
    #: The whole speculation sweep (every context x alpha cell, one plan
    #: per cell).  The quick spec-sim smoke runs its 2x1 grid in ~2 s on
    #: the reference container; the budget guards against the sweep
    #: re-planning per cell instead of reusing the cached search, or the
    #: pricer degenerating into per-token scalar pricing.
    "spec.run": 120.0,
}

#: Spans that must appear in the report at all — the profiled command is
#: expected to exercise them, so absence means the instrumentation (or
#: the sweep itself) silently vanished.
REQUIRED_SPANS = (
    "obs.audit.sweep", "obs.audit.faulted_sweep", "executor.run_token",
)

#: ``(span, per, why)``: ``span`` may run at most once per ``per`` call.
AT_MOST_ONCE_PER = (
    ("planner.score_grid", "planner.search",
     "candidates were not scored in one grid pass per search over the "
     "whole strategy menu"),
)

#: ``(span, cache)``: when ``span`` ran, ``cache`` must report lookups.
#: The CI chaos smoke (``chaos --quick --drift-gate
#: --serving-drift-gate``) also floors ``parallel.curve`` at a 0.9 hit
#: rate; it measured 0.997 (3,386 hits, 10 misses).  It floors
#: ``planner.lp`` at 0.5; that measured 0.527 (405 hits, 363 misses).
CACHE_USED_BY = (
    ("parallel.controller.plan", "parallel.curve"),
    ("planner.search", "planner.lp"),
)

#: ``(cache, per, ratio, why)``: the cache may be looked up at most
#: ``ratio`` times per ``per`` span call.
LOOKUPS_PER = (
    ("planner.lp", "planner.search", 6,
     "a search solved more placement LPs than its menu has strategies"),
)


#: ``(counter, per, ratio, span, why)``: when ``span`` ran, counter
#: ``per`` must be in the report and ``counter <= ratio * per``.  A join
#: costs the running batch at most seven member visits: two heap pushes,
#: at most two heap pops, the release when the member leaves, and the
#: amortised share of heap rebuilds (a heap is rebuilt only once its stale
#: entries outnumber its live ones).  The quick serve-sim smoke measured
#: 126 visits for 27 joins (4.7), the full one 820 for 171 (4.8).
COUNTER_RATIOS = (
    ("serving.batch.member_visits", "serving.batch.joins", 8.0, "serving.run",
     "the running batch visits its members per decode step, not per join "
     "and leave"),
)


def hit_rate(stats: dict) -> float:
    """Hits over lookups of one cache entry of the report (0 if none)."""
    lookups = stats.get("hits", 0) + stats.get("misses", 0)
    return stats.get("hits", 0) / lookups if lookups else 0.0


def check(
    report: dict,
    budgets: dict[str, float],
    required: tuple[str, ...] = REQUIRED_SPANS,
    cache_floors: dict[str, float] | None = None,
) -> list[str]:
    """Return a list of human-readable violations (empty = pass).
    ``cache_floors`` maps a cache name to its minimum hit rate."""
    scopes = report.get("scopes")
    if not isinstance(scopes, dict):
        return ["report has no 'scopes' section — was --profile passed?"]
    problems = []
    for name in required:
        if name not in scopes:
            problems.append(f"required span {name!r} missing from report")
    for name, budget in sorted(budgets.items()):
        scope = scopes.get(name)
        if scope is None:
            continue  # only REQUIRED_SPANS must exist
        total = float(scope["total_s"])
        if total > budget:
            problems.append(
                f"span {name!r} spent {total:.3f}s, budget {budget:.3f}s "
                f"({scope['calls']} calls, max {float(scope['max_s']):.4f}s)"
            )
    plans = scopes.get("engine.plan", {}).get("calls", 0)
    misses = report.get("caches", {}).get("engine.plan_memo", {}).get("misses", 0)
    if plans > misses:
        problems.append(
            f"span 'engine.plan' ran {plans} times for {misses} "
            f"'engine.plan_memo' misses: a search bypassed the plan cache"
        )
    for name, per, why in AT_MOST_ONCE_PER:
        calls = scopes.get(name, {}).get("calls", 0)
        bound = scopes.get(per, {}).get("calls", 0)
        if calls > bound:
            problems.append(
                f"span {name!r} ran {calls} times for {bound} {per!r} calls: {why}"
            )
    caches = report.get("caches", {})
    for cache, per, ratio, why in LOOKUPS_PER:
        stats = caches.get(cache, {})
        lookups = stats.get("hits", 0) + stats.get("misses", 0)
        calls = scopes.get(per, {}).get("calls", 0)
        if lookups > ratio * calls:
            problems.append(
                f"cache {cache!r} was looked up {lookups} times for {calls} "
                f"{per!r} calls (more than {ratio:g} per): {why}"
            )
    for name, cache in CACHE_USED_BY:
        if scopes.get(name, {}).get("calls", 0) and cache not in caches:
            problems.append(
                f"span {name!r} ran but cache {cache!r} reported no lookups: "
                f"the cache was bypassed or renamed"
            )
    counts = report.get("counts", {})
    for name, per, ratio, span, why in COUNTER_RATIOS:
        if not scopes.get(span, {}).get("calls", 0):
            continue
        if per not in counts:
            problems.append(
                f"span {span!r} ran but counter {per!r} is missing from the "
                f"report: the counter was renamed or is no longer reported"
            )
        elif counts.get(name, 0) > ratio * counts[per]:
            problems.append(
                f"counter {name!r} is {counts.get(name, 0)} for "
                f"{counts[per]} {per!r} (more than {ratio:g} per): {why}"
            )
    for name, floor in sorted((cache_floors or {}).items()):
        stats = caches.get(name)
        if stats is None:
            problems.append(f"required cache {name!r} missing from report")
        elif hit_rate(stats) < floor:
            problems.append(
                f"cache {name!r} hit rate {hit_rate(stats):.3f} is below "
                f"{floor:.3f} ({stats.get('hits', 0)} hits, "
                f"{stats.get('misses', 0)} misses)"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", help="profiler report JSON (or '-' for stdin)")
    parser.add_argument(
        "--budget", action="append", default=[], metavar="NAME=SECONDS",
        help="extend/override a span budget (repeatable)",
    )
    parser.add_argument(
        "--require", action="append", default=[], metavar="NAME",
        help="replace the default required-span set (repeatable) — use "
        "when gating a report from a command that doesn't run the audit "
        "sweeps, e.g. --require serving.run for the serve-sim smoke",
    )
    parser.add_argument(
        "--require-cache", action="append", default=[], metavar="NAME>=FLOOR",
        help="require cache NAME in the report with a hit rate >= FLOOR "
        "(repeatable), e.g. --require-cache parallel.curve>=0.9",
    )
    args = parser.parse_args(argv)

    budgets = dict(DEFAULT_BUDGETS)
    for entry in args.budget:
        name, sep, value = entry.partition("=")
        try:
            if not sep:
                raise ValueError
            budgets[name] = float(value)
        except ValueError:
            print(f"budgets: bad --budget {entry!r} (want NAME=SECONDS)",
                  file=sys.stderr)
            return 2
    cache_floors = {}
    for entry in args.require_cache:
        name, sep, value = entry.partition(">=")
        try:
            if not sep or not name:
                raise ValueError
            cache_floors[name] = float(value)
        except ValueError:
            print(f"budgets: bad --require-cache {entry!r} (want NAME>=FLOOR)",
                  file=sys.stderr)
            return 2

    try:
        if args.report == "-":
            report = json.load(sys.stdin)
        else:
            with open(args.report, encoding="utf-8") as fh:
                report = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"budgets: cannot read report: {exc}", file=sys.stderr)
        return 2

    required = tuple(args.require) if args.require else REQUIRED_SPANS
    problems = check(report, budgets, required, cache_floors)
    if problems:
        for problem in problems:
            print(f"budgets: FAIL: {problem}", file=sys.stderr)
        return 1
    scopes = report["scopes"]
    for name in sorted(budgets):
        if name in scopes:
            print(f"budgets: ok: {name} {float(scopes[name]['total_s']):.3f}s "
                  f"<= {budgets[name]:.1f}s")
    counts = report.get("counts", {})
    for name, per, ratio, _, _ in COUNTER_RATIOS:
        if per in counts:
            print(f"budgets: ok: {name} {counts.get(name, 0)} <= {ratio:g} x "
                  f"{counts[per]} {per}")
    for name in sorted(cache_floors):
        print(f"budgets: ok: cache {name} hit rate "
              f"{hit_rate(report['caches'][name]):.3f} >= {cache_floors[name]:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
