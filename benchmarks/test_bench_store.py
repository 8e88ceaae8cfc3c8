"""Benchmark: shard-store merge throughput.

``merge_throughput`` runs ``merge_store`` over two shard directories of
small entries (the sharded-sweep shape: hundreds of cells, a few KB
each) and journals the rate into ``BENCH_store.json`` (see
``store_journal`` in ``conftest.py``). Every entry is digest-re-verified
on the way, so the number is honest about the integrity checking the
merge contract requires.
"""

import hashlib
import time

from repro.exec import ResultStore, merge_store

#: Sharded-sweep shape for the merge bench: entries per shard directory
#: and the payload size (a small RunSummary pickles to a few KB).
MERGE_ENTRIES_PER_SHARD = 200
MERGE_PAYLOAD_BYTES = 4096


def _fill_shard(cache_dir, n, salt):
    store = ResultStore(cache_dir)
    payload = {"blob": b"x" * MERGE_PAYLOAD_BYTES}
    store.put_many({
        hashlib.sha256(f"{salt}/{i}".encode()).hexdigest(): payload
        for i in range(n)
    })


def test_bench_store_merge_throughput(tmp_path, once, benchmark,
                                      store_journal):
    for shard in range(2):
        _fill_shard(tmp_path / f"s{shard}", MERGE_ENTRIES_PER_SHARD,
                    salt=shard)

    t0 = time.perf_counter()
    report = once(merge_store, tmp_path / "merged",
                  [tmp_path / "s0", tmp_path / "s1"])
    elapsed = time.perf_counter() - t0

    total = 2 * MERGE_ENTRIES_PER_SHARD
    assert (report.copied, report.rejected) == (total, 0)
    rate = total / elapsed
    benchmark.extra_info.update(entries_per_sec=round(rate, 1))
    store_journal["merge_throughput"] = {
        "scenario": "merge_throughput",
        "entries": total,
        "payload_bytes": MERGE_PAYLOAD_BYTES,
        "wallclock_s": round(elapsed, 4),
        "entries_per_sec": round(rate, 1),
    }
    # Digest-verified copies of KB-scale entries; anything slower than
    # this is pathological I/O, not a tuning question.
    assert rate >= 100.0
