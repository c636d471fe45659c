"""E6 — §2.1/§2.3: ``Retrieve(key)`` costs O(log |Pi|) messages.

Paper claim: "Retrieve(key) is intuitively efficient, i.e.,
O(log(|Pi|)), measured in terms of the number of messages required for
resolving a search request, for both balanced and unbalanced trees."

Reproduction: sweep network sizes 2^4 .. 2^10, measure mean and p95
hop counts of retrieves from random origins to random keys, for (a)
balanced tries and (b) unbalanced tries shaped by a skewed key sample.
The series shows hops growing like log2(n) in both cases.

Scale-out leg (``E6-scaleout``): the same claim three more decades
out, on balanced tries built by the scale-out builder with ``route``'s
shape (``replication=4``, ``refs_per_level=2``, 10 000 retrieves of
1 000 stored keys): 2^10 .. 2^14 peers, up to 2^17 at
``REPRO_BENCH_SCALE=full``.  P-Grid predicts mean hops of about
``0.5 * log2(n / r)`` (a greedy hop fixes the next differing bit with
probability one half); the ratio is recorded and held in a band.
Build and run walls and peak RSS are printed, never recorded.
"""

import math
import random
import resource
import time

from conftest import report, run_once
from record import record

from repro.pgrid.overlay import PGridOverlay
from repro.pgrid.scaleout import ScaleoutSpec, build_deployment, run_inprocess
from repro.util.hashing import order_preserving_hash, uniform_hash
from repro.util.stats import mean, percentile


def skewed_sample(count, rng):
    """Keys from a two-letter alphabet: a thin, hot band of key space."""
    return [
        order_preserving_hash("".join(rng.choice("st") for _ in range(10)))
        for _ in range(count)
    ]


def measure_hops(overlay, keys, probes, rng):
    origins = overlay.peer_ids()
    hops = []
    for i in range(probes):
        origin = rng.choice(origins)
        result = overlay.retrieve_sync(origin, keys[i % len(keys)])
        assert result.success
        hops.append(result.hops)
    return hops


def test_e6_hops_scale_logarithmically(benchmark, scale):
    sizes = [16, 32, 64, 128, 256, 512]
    if scale == "full":
        sizes.append(1024)
    probes = 150 if scale == "quick" else 400

    def run():
        rows = []
        for n in sizes:
            rng = random.Random(n)
            # balanced: uniform keys, even trie
            balanced = PGridOverlay.build(n, seed=n)
            keys = [uniform_hash(f"key-{i}") for i in range(50)]
            origin = balanced.peer_ids()[0]
            for i, key in enumerate(keys):
                balanced.update_sync(origin, key, i)
            balanced_hops = measure_hops(balanced, keys, probes, rng)
            # unbalanced: trie shaped by a skewed sample, probed with
            # keys from the same skewed population
            sample = skewed_sample(300, rng)
            unbalanced = PGridOverlay.build(n, key_sample=sample, seed=n)
            skewed_keys = sample[:50]
            origin = unbalanced.peer_ids()[0]
            for i, key in enumerate(skewed_keys):
                unbalanced.update_sync(origin, key, i)
            unbalanced_hops = measure_hops(unbalanced, skewed_keys,
                                           probes, rng)
            rows.append((
                n,
                mean(balanced_hops), percentile(balanced_hops, 95),
                mean(unbalanced_hops), percentile(unbalanced_hops, 95),
                max(unbalanced.trie_depths()),
            ))
        return rows

    rows = run_once(benchmark, run)
    report("E6", f"{'peers':>6} {'log2(n)':>8} "
                 f"{'bal mean':>9} {'bal p95':>8} "
                 f"{'unbal mean':>11} {'unbal p95':>10} {'max depth':>10}")
    for n, bm, bp, um, up, depth in rows:
        report("E6", f"{n:>6} {math.log2(n):>8.1f} {bm:>9.2f} {bp:>8.1f} "
                     f"{um:>11.2f} {up:>10.1f} {depth:>10}")
    record("E6", scale=scale, totals={"probes": probes}, runs=[
        {"peers": n,
         "balanced_mean_hops": round(bm, 4),
         "balanced_p95_hops": round(bp, 4),
         "unbalanced_mean_hops": round(um, 4),
         "unbalanced_p95_hops": round(up, 4),
         "max_depth": depth}
        for n, bm, bp, um, up, depth in rows])

    # Shape: mean hops bounded by log2(n) and growing with n.
    for n, bal_mean, bal_p95, unbal_mean, unbal_p95, _depth in rows:
        assert bal_mean <= math.log2(n) + 1
        assert bal_p95 <= math.log2(n) + 2
    first, last = rows[0], rows[-1]
    assert last[1] > first[1]          # hops grow with n ...
    growth = (last[1] - first[1]) / (math.log2(last[0])
                                     - math.log2(first[0]))
    assert growth <= 1.5               # ... but only logarithmically


def test_e6_unbalanced_trie_correctness(benchmark, scale):
    """Every retrieve in a deliberately unbalanced trie still resolves
    (the paper's 'for both balanced and unbalanced trees')."""
    rng = random.Random(99)
    sample = skewed_sample(400, rng)
    overlay = PGridOverlay.build(128, key_sample=sample, seed=99)
    depths = overlay.trie_depths()
    origin = overlay.peer_ids()[0]
    keys = sample[:100]
    for i, key in enumerate(keys):
        overlay.update_sync(origin, key, i)

    def run():
        failures = 0
        hops = []
        for i, key in enumerate(keys):
            result = overlay.retrieve_sync(
                overlay.peer_ids()[i % 128], key)
            if not result.success or i not in result.values:
                failures += 1
            hops.append(result.hops)
        return failures, hops

    failures, hops = run_once(benchmark, run)
    report("E6", f"unbalanced trie: depth spread "
                 f"{min(depths)}..{max(depths)}, "
                 f"retrieve failures {failures}/100, "
                 f"mean hops {mean(hops):.2f}")
    record("E6-unbalanced", scale=scale, runs=[
        {"depth_min": min(depths), "depth_max": max(depths),
         "failures": failures, "hops": hops}])
    assert failures == 0
    assert max(depths) - min(depths) >= 2  # genuinely unbalanced


def test_e6_scaleout_hops_track_log_n(benchmark, scale):
    exponents = range(10, 18 if scale == "full" else 15)
    replication = 4

    def run():
        rows = []
        for exponent in exponents:
            n = 2 ** exponent
            spec = ScaleoutSpec(num_peers=n, replication=replication,
                                refs_per_level=2, seed=11, num_keys=1000,
                                ops_per_wave=2000, num_waves=5)
            started = time.perf_counter()
            deployment = build_deployment(spec)
            built = time.perf_counter()
            result = run_inprocess(spec, deployment)
            ran = time.perf_counter()
            del deployment
            hops = [outcome[1] for outcome in result.outcomes.values()
                    if outcome[0]]
            report("E6", f"scale-out {n:>7} peers: build "
                         f"{built - started:.2f} s, run {ran - built:.2f} s, "
                         f"peak RSS {peak_rss_mib():.0f} MiB")
            rows.append((n, result.ops_issued, result.successes,
                         mean(hops), percentile(hops, 95)))
        return rows

    rows = run_once(benchmark, run)
    report("E6", f"{'peers':>7} {'log2(n/r)':>10} {'mean':>6} {'p95':>5} "
                 f"{'mean/log2(n/r)':>15}")
    runs = []
    for n, ops, successes, hops_mean, hops_p95 in rows:
        depth = math.log2(n / replication)
        ratio = hops_mean / depth
        report("E6", f"{n:>7} {depth:>10.2f} {hops_mean:>6.2f} "
                     f"{hops_p95:>5.1f} {ratio:>15.3f}")
        runs.append({"peers": n, "ops": ops, "successes": successes,
                     "mean_hops": round(hops_mean, 4),
                     "p95_hops": round(hops_p95, 4),
                     "hops_per_log2": round(ratio, 4)})
    record("E6-scaleout", scale=scale, runs=runs)

    for run in runs:
        assert run["successes"] == run["ops"]
        assert 0.4 <= run["hops_per_log2"] <= 0.6, run


def peak_rss_mib() -> float:
    """This process's peak resident set so far (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
