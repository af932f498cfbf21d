"""Metric catalogue, statistics helpers and correctness checks of the
repository benchmark.

The C++ binary (src/) only measures: it prints raw per-replay records and
spans.  This module names the metrics, derives them from those records,
and decides whether the outputs are correct.
"""

import hashlib
import math
import os
import statistics

# ---- Catalogue ---------------------------------------------------------------

WORKLOADS = {
    "sim-adc-paper": "the paper's own Figure 11 experiment: ADC, 5 proxies, one client in flight; "
                     "time goes to the event queue, MappingTables and the table structures",
    "sim-carp-erasure-crash": "CARP over 8 proxies with every optional layer on and one permanent "
                              "crash; drives hashing, the erasure tier, link queues and SWIM, "
                              "never MappingTables",
    "live-adc-loopback": "5 ADC daemons and an origin on loopback under one load generator; "
                         "the only workload through the wire codec, sockets and daemon send path",
}

SIM_WORKLOADS = ("sim-adc-paper", "sim-carp-erasure-crash")
LIVE_WORKLOAD = "live-adc-loopback"

# Workloads whose fault plan makes requests time out by design.
PLANNED_TIMEOUTS = {"sim-carp-erasure-crash"}

# The trace seed used while the benchmark was built.  expected.json also
# holds the outputs at 20261016, a seed first run after it was finished.
DEFAULT_SEED = 42

# name, unit, better, bound (share of the parent's median a change may
# worsen it by), meaning
END_TO_END = [
    ("req_per_s", "req/s", "higher", 0.25,
     "completed requests per wall second of the fastest replay; sim: timed around "
     "run_experiment, live: over the measured phases"),
    ("latency_p50_us", "us", "lower", 0.25,
     "live: median wall time per request in the fastest replay; sim: in-flight time per "
     "request by Little's law"),
    ("latency_p99_us", "us", "lower", 0.25,
     "live: 99th percentile wall time per request in the fastest replay; sim: as p50"),
    ("hit_rate", "fraction", "higher", 0.05, "hits / completed requests (paper Figure 11)"),
    ("avg_hops", "hops", "lower", 0.05, "hops per completed request (paper Figure 12)"),
    ("byte_hit_rate", "fraction", "higher", 0.25,
     "bytes served by proxies / bytes completed; equals hit_rate without the payload store"),
    ("completed_frac", "fraction", "higher", 0.01, "completed / issued requests"),
    ("peak_rss_mb", "MiB", "lower", 0.1, "VmHWM of the workload's process"),
    ("setup_s", "s", "lower", 0.25,
     "trace generation, plus cluster bring-up and warmup for live (median)"),
]

SIM = list(SIM_WORKLOADS)
LIVE = [LIVE_WORKLOAD]
CARP = ["sim-carp-erasure-crash"]
NOT_CARP = ["sim-adc-paper", LIVE_WORKLOAD]
ALL = SIM + LIVE

# name, unit, better, end-to-end metrics it should move, workloads where it
# should move them, workloads where it should stay flat
PER_LAYER = [
    ("workload.trace_gen_s", "s", "lower", ["setup_s"], ALL, []),
    ("driver.overhead_s", "s", "lower", ["req_per_s"], SIM, LIVE),
    ("sim.events_per_req", "1/req", "lower", ["req_per_s"], SIM, LIVE),
    ("sim.messages_per_req", "1/req", "lower", ["req_per_s"], SIM, LIVE),
    ("sim.ns_per_event", "ns", "lower", ["req_per_s"], SIM, LIVE),
    ("sim.event_queue.op_ns", "ns", "lower", ["req_per_s"], SIM, LIVE),
    ("core.update_entry_ns", "ns", "lower", ["req_per_s"], NOT_CARP, CARP),
    ("core.forward_location_ns", "ns", "lower", ["req_per_s"], NOT_CARP, CARP),
    ("core.forwards_learned_ratio", "fraction", "higher", ["avg_hops"], NOT_CARP, CARP),
    ("core.loops_per_req", "1/req", "lower", ["avg_hops"], NOT_CARP, CARP),
    ("cache.policy.op_ns", "ns", "lower", ["req_per_s"], CARP, ["sim-adc-paper"]),
    ("hash.carp_owner_ns", "ns", "lower", ["req_per_s"], CARP, NOT_CARP),
    ("proxy.origin_fetch_ratio", "fraction", "lower", ["hit_rate"], ALL, []),
    ("store.rdp_encode_ns_per_kib", "ns/KiB", "lower", ["req_per_s"], CARP, NOT_CARP),
    ("store.rdp_reconstruct_ns_per_kib", "ns/KiB", "lower", ["req_per_s"], CARP, NOT_CARP),
    ("store.degraded_recovered_ratio", "fraction", "higher",
     ["byte_hit_rate", "completed_frac"], CARP, NOT_CARP),
    ("store.chunk_msgs_per_req", "1/req", "lower", ["req_per_s"], CARP, NOT_CARP),
    ("store.stripes_healed", "count", "higher", ["completed_frac"], CARP, NOT_CARP),
    ("store.stripes_stranded", "count", "lower", ["byte_hit_rate"], CARP, NOT_CARP),
    ("link.queued_ratio", "fraction", "lower", ["req_per_s"], CARP, NOT_CARP),
    ("link.wait_p99_ticks", "ticks", "lower", ["req_per_s"], CARP, NOT_CARP),
    ("link.max_backlog_bytes", "bytes", "lower", ["req_per_s"], CARP, NOT_CARP),
    ("membership.deaths", "count", "lower", ["completed_frac"], CARP, NOT_CARP),
    ("membership.suspicions", "count", "lower", ["completed_frac"], CARP, NOT_CARP),
    ("membership.max_reshuffle_fraction", "fraction", "lower", ["completed_frac"], CARP,
     NOT_CARP),
    ("fault.timeouts", "count", "lower", ["completed_frac"], CARP, NOT_CARP),
    ("fault.drops_crash", "count", "lower", ["completed_frac"], CARP, NOT_CARP),
    ("net.encode_ns", "ns", "lower", ["req_per_s", "latency_p99_us"], LIVE, SIM),
    ("net.decode_ns", "ns", "lower", ["req_per_s", "latency_p99_us"], LIVE, SIM),
    ("net.frame_bytes_per_req", "bytes/req", "lower", ["req_per_s"], LIVE, SIM),
    ("server.frames_per_req", "1/req", "lower", ["req_per_s"], LIVE, SIM),
    ("server.daemon_cpu_us_per_req", "us/req", "lower",
     ["req_per_s", "latency_p50_us", "latency_p99_us"], LIVE, SIM),
    ("server.daemon_busy_share", "fraction", "lower", ["req_per_s", "latency_p99_us"], LIVE,
     SIM),
    ("server.loadgen_cpu_share", "fraction", "lower", ["req_per_s"], LIVE, SIM),
    ("server.drops", "count", "lower", ["completed_frac"], LIVE, SIM),
    ("trace.overhead_frac", "fraction", "lower", ["req_per_s"], ALL, []),
]

# ---- Statistics --------------------------------------------------------------

MIN_TAIL_SAMPLES = 10


class TooFewSamples(ValueError):
    """A percentile was asked for with fewer than MIN_TAIL_SAMPLES beyond it."""


def _rank(count, q):
    """1-based nearest rank of percentile q among `count` samples."""
    return max(1, math.ceil(q * count - 1e-9))


def samples_beyond(count, q):
    """Samples strictly above the nearest-rank q-percentile of `count`."""
    return count - _rank(count, q)


def check_tail(count, q):
    """Raises TooFewSamples unless `count` samples support percentile q."""
    beyond = samples_beyond(count, q)
    if beyond < MIN_TAIL_SAMPLES:
        raise TooFewSamples(f"p{q * 100:g} of {count} samples has only {beyond} beyond it")


def percentile(value, samples, q):
    """A q-percentile read off `samples` samples, returned with its sample
    count as (value, samples).  Refuses when fewer than MIN_TAIL_SAMPLES
    samples lie beyond it: such a tail is one or two outliers."""
    check_tail(int(samples), q)
    return value, int(samples)


def account(issued, completed, failed, planned):
    """Failure accounting of one replay, as (attempted, failed).

    Every issued request is an attempt.  A request fails when it neither
    completed nor ended in a timeout the workload planned for (the crash
    workload's timeouts are the simulated crash's effect, pinned by the
    recorded values); requests that vanished without completing or timing
    out always count as failed.
    """
    issued, completed, failed = int(issued), int(completed), int(failed)
    lost = max(0, issued - completed - failed)
    return issued, lost + (0 if planned else failed)


# ---- Metric derivation -------------------------------------------------------


def _sum(rows, key):
    return sum(row[key] for row in rows)


def _ratio(num, den):
    return num / den if den else 0.0


def _rate(row):
    return row["completed"] / row["wall_s"]


def fastest(rows):
    """The replay with the highest completion rate.  Replays repeat the same
    work, and interference from other processes only ever adds time, so
    every timing metric is read off the fastest replay."""
    return max(rows, key=_rate)


def end_to_end(raw, rows):
    """End-to-end metrics of one workload run, name -> (value, note)."""
    workload = raw["workload"]
    live = workload == LIVE_WORKLOAD
    completed = _sum(rows, "completed")
    hit_rate = _ratio(_sum(rows, "hits"), completed)
    best = fastest(rows)
    out = {"req_per_s": (_rate(best), f"fastest of {len(rows)} replays, median "
                                      f"{statistics.median(_rate(r) for r in rows):.6g}")}
    if live:
        for name, q in (("latency_p50_us", 0.5), ("latency_p99_us", 0.99)):
            value, samples = percentile(best[name], best["latency_samples"], q)
            out[name] = (value, f"fastest replay, {samples} samples")
    else:
        # No per-request wall clock inside the simulator: the time a request
        # spends in flight, by Little's law.
        in_flight = best["concurrency"] / _rate(best) * 1e6
        out["latency_p50_us"] = (in_flight, "Little's law, fastest replay")
        out["latency_p99_us"] = (in_flight, "Little's law, fastest replay")
    out["hit_rate"] = (hit_rate, f"{int(completed)} requests")
    out["avg_hops"] = (_ratio(_sum(rows, "hops"), completed), "")
    bytes_completed = sum(r.get("bytes_completed", 0) for r in rows)
    if bytes_completed:
        out["byte_hit_rate"] = (_ratio(_sum(rows, "bytes_hit"), bytes_completed), "")
    else:
        out["byte_hit_rate"] = (hit_rate, "payload store off: unit sizes")
    out["completed_frac"] = (_ratio(completed, _sum(rows, "issued")), "")
    out["peak_rss_mb"] = (raw["peak_rss_kib"] / 1024.0, "VmHWM")
    setup = statistics.median(raw["trace_gen_s"])
    if live:
        setup += statistics.median(r["setup_s"] for r in rows)
    out["setup_s"] = (setup, "median over set-ups")
    return out


def _span_ns_per_op(spans, name):
    matching = [s for s in spans if s["name"] == name]
    if not matching:
        raise KeyError(f"span {name} missing from the traced run")
    total_ns = sum(s["end_ns"] - s["start_ns"] for s in matching)
    return total_ns / max(1, sum(s["count"] for s in matching))


def per_layer(raw):
    """Per-layer metrics of one traced run, name -> value."""
    workload = raw["workload"]
    live = workload == LIVE_WORKLOAD
    rows = raw["traced_replays"]
    spans = raw["spans"]
    sim_rows = [raw["oracle"]] if live else rows
    first = sim_rows[0]
    out = {}
    out["workload.trace_gen_s"] = statistics.median(raw["trace_gen_s"])
    out["driver.overhead_s"] = statistics.median(r["wall_s"] - r["inner_s"] for r in sim_rows)
    out["sim.events_per_req"] = _ratio(first["events"], first["completed"])
    out["sim.messages_per_req"] = _ratio(first["messages"], first["completed"])
    out["sim.ns_per_event"] = statistics.median(r["inner_s"] / r["events"] * 1e9 for r in sim_rows)
    out["sim.event_queue.op_ns"] = _span_ns_per_op(spans, "sim.EventQueue.schedule+run_next")
    out["core.update_entry_ns"] = _span_ns_per_op(spans, "core.MappingTables.update_entry")
    out["core.forward_location_ns"] = _span_ns_per_op(spans, "core.MappingTables.forward_location")
    out["cache.policy.op_ns"] = _span_ns_per_op(spans, "cache.CacheSet.lookup+insert_evicting")
    out["hash.carp_owner_ns"] = _span_ns_per_op(spans, "hash.CarpArray.owner")
    out["store.rdp_encode_ns_per_kib"] = _span_ns_per_op(spans, "store.RdpCode.encode")
    out["store.rdp_reconstruct_ns_per_kib"] = _span_ns_per_op(spans, "store.RdpCode.reconstruct")
    out["net.encode_ns"] = _span_ns_per_op(spans, "net.encode_message")
    out["net.decode_ns"] = _span_ns_per_op(spans, "net.decode_frame")
    out["net.frame_bytes_per_req"] = (raw["layers"]["wire_bytes_per_frame"]
                                      * raw["layers"]["frames_per_req"])

    if live:
        requests = _sum(rows, "completed") + _sum(rows, "warm_completed")
        wall = _sum(rows, "wall_s")
        out["core.forwards_learned_ratio"] = _ratio(_sum(rows, "forwards_learned"),
                                                    _sum(rows, "forwards_total"))
        out["core.loops_per_req"] = _ratio(_sum(rows, "loops"), requests)
        out["proxy.origin_fetch_ratio"] = _ratio(_sum(rows, "origin_deliveries"), requests)
        out["server.frames_per_req"] = _ratio(_sum(rows, "frames_out"), requests)
        out["server.daemon_cpu_us_per_req"] = _ratio(_sum(rows, "daemon_cpu_s") * 1e6,
                                                     _sum(rows, "completed"))
        out["server.daemon_busy_share"] = _ratio(_sum(rows, "daemon_cpu_s"),
                                                 rows[0]["daemons"] * wall)
        out["server.loadgen_cpu_share"] = _ratio(_sum(rows, "loadgen_cpu_s"), wall)
        out["server.drops"] = _sum(rows, "drops")
    else:
        out["core.forwards_learned_ratio"] = _ratio(first["forwards_learned"],
                                                    first["forwards_total"])
        out["core.loops_per_req"] = _ratio(first["loops"], first["completed"])
        out["proxy.origin_fetch_ratio"] = _ratio(first["origin_served"], first["completed"])
        for name in ("server.frames_per_req", "server.daemon_cpu_us_per_req",
                     "server.daemon_busy_share", "server.loadgen_cpu_share", "server.drops"):
            out[name] = 0.0
    out["store.degraded_recovered_ratio"] = _ratio(first["degraded_recovered"],
                                                   first["degraded_started"])
    out["store.chunk_msgs_per_req"] = _ratio(first["store_messages"], first["completed"])
    out["store.stripes_healed"] = first["stripes_healed"]
    out["store.stripes_stranded"] = first["stripes_stranded"]
    out["link.queued_ratio"] = _ratio(first["link_queued"], first["link_transfers"])
    out["link.wait_p99_ticks"] = first["link_wait_p99"]
    out["link.max_backlog_bytes"] = first["link_max_backlog"]
    out["membership.deaths"] = first["deaths"]
    out["membership.suspicions"] = first["suspicions"]
    out["membership.max_reshuffle_fraction"] = first["max_reshuffle"]
    out["fault.timeouts"] = first["timeouts"]
    out["fault.drops_crash"] = first["drops_crash"]

    out["trace.overhead_frac"] = 1.0 - _rate(fastest(rows)) / _rate(fastest(raw["replays"]))
    return out


# ---- Correctness -------------------------------------------------------------

PINNED_FIELDS = ("completed", "failed", "hits", "hops", "bytes_completed", "bytes_hit",
                 "events", "messages")

# Relative agreement the live cluster's hit rate and hops must keep with the
# simulator on the same trace (the cluster tests' tolerance).
LIVE_TOLERANCE = 0.01


def pinned_values(row):
    """The deterministic outputs recorded per sim workload and seed."""
    return {key: int(row[key]) for key in PINNED_FIELDS}


def check(raw, expected):
    """Correctness problems of one run (empty when the outputs are right)."""
    problems = []
    workload = raw["workload"]
    rows = raw["replays"] + raw["traced_replays"]
    if not rows:
        return ["no replay was measured"]
    for i, row in enumerate(rows):
        if row["completed"] + row["failed"] != row["issued"]:
            problems.append(f"replay {i}: completed {row['completed']:.0f} + failed "
                            f"{row['failed']:.0f} != issued {row['issued']:.0f}")
        if row.get("stripes_stranded", 0) != 0:
            problems.append(f"replay {i}: {row['stripes_stranded']:.0f} stripes stranded")

    if workload in SIM_WORKLOADS:
        if len(set(raw["digests"] + raw["traced_digests"])) != 1:
            problems.append("sim outputs differ between replays: " +
                            ", ".join(sorted(set(raw["digests"] + raw["traced_digests"]))))
        pinned = expected.get(workload, {}).get(str(raw["seed"]))
        if pinned is not None:
            got = pinned_values(rows[0])
            for key, want in pinned.items():
                if got.get(key) != want:
                    problems.append(f"{key} = {got.get(key)}, recorded {want}")
        if workload not in PLANNED_TIMEOUTS and any(r["failed"] for r in rows):
            problems.append("requests failed in a run without faults")
    else:
        for i, row in enumerate(rows):
            if row["timed_out"] or row["failed"] or row["warm_failed"]:
                problems.append(f"replay {i}: the load generator timed out or lost requests")
            if row["drops"]:
                problems.append(f"replay {i}: {row['drops']:.0f} frames dropped by daemons")
            if row["warm_completed"] + row["completed"] != raw["requests"]:
                problems.append(f"replay {i}: not every trace request completed")
            try:
                percentile(row["latency_p99_us"], row["latency_samples"], 0.99)
            except TooFewSamples as e:
                problems.append(f"replay {i}: {e}")
        oracle = raw["oracle"]
        requests = _sum(rows, "completed") + _sum(rows, "warm_completed")
        live = {"hit_rate": _ratio(_sum(rows, "hits") + _sum(rows, "warm_hits"), requests),
                "avg_hops": _ratio(_sum(rows, "hops") + _sum(rows, "warm_hops"), requests)}
        sim = {"hit_rate": _ratio(oracle["hits"], oracle["completed"]),
               "avg_hops": _ratio(oracle["hops"], oracle["completed"])}
        for key, want in sim.items():
            if abs(live[key] - want) > LIVE_TOLERANCE * want:
                problems.append(f"live {key} {live[key]:.5f} is not within 1% of the "
                                f"simulator's {want:.5f}")
    return problems


def failure_totals(raw):
    """(attempted, failed) over every measured replay of the run."""
    planned = raw["workload"] in PLANNED_TIMEOUTS
    attempted = failed = 0
    for row in raw["replays"] + raw["traced_replays"]:
        a, f = account(row["issued"], row["completed"], row["failed"], planned)
        attempted += a
        failed += f
    return attempted, failed


# ---- Host fingerprint --------------------------------------------------------


def refusal(build):
    """Why numbers from this build must not be recorded, or None."""
    if build.get("sanitizer") or "-fsanitize" in build.get("cxx_flags", ""):
        return f"built with a sanitizer ({build.get('sanitizer') or build['cxx_flags']})"
    if build.get("build_type", "").lower() == "debug" or not build.get("optimized"):
        return f"unoptimized {build.get('build_type') or 'default'} build"
    return None


def source_digest(root, dirs=("src", "perfbench")):
    """SHA-256 over the sources the benchmark builds, for runs outside git."""
    digest = hashlib.sha256()
    for top in dirs:
        base = os.path.join(root, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith(".pyc"):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()
