"""Two-process cache contention tests.

Two ``ResultCache`` instances in separate processes share one root,
interleaving ``put``, no-eviction ``prune`` and ``verify(repair=True)``.
The store is the only shared state, so the contract is about the store:

* no lost entries — every value either process wrote is retrievable,
  checksum-verified, afterwards;
* no false corruption — atomic writes mean a racing ``verify --repair``
  never finds or quarantines a damaged entry, and the final walk counts
  exactly what both writers stored.

Run in CI as its own step (see runner-parallel's cache-concurrency step);
workers are module-level functions so the test also survives spawn-based
multiprocessing.
"""

import multiprocessing
import pickle

from repro.runner import ResultCache

ENTRIES_PER_WORKER = 40
#: A prune budget far above anything the test writes: exercises the
#: ranking walk and delete path without ever evicting (so "no lost
#: entries" stays assertable).
NO_EVICTION_BUDGET = 1 << 30


def _digest(prefix, index):
    return prefix + f"{index:03d}" + "0" * (64 - len(prefix) - 3)


def _value(prefix, index):
    return {"writer": prefix, "index": index, "payload": [index] * 8}


def _churn(root, prefix, error_queue):
    """One writer: put entries, interleaving every maintenance operation."""
    try:
        cache = ResultCache(root)
        for index in range(ENTRIES_PER_WORKER):
            cache.put(_digest(prefix, index), _value(prefix, index))
            if index % 7 == 3:
                cache.prune(NO_EVICTION_BUDGET)
            if index % 11 == 5:
                report = cache.verify(repair=True)
                # Interleaved writes are atomic: repair may race, but it
                # must never find (or manufacture) a corrupt entry.
                if report.corrupt:
                    raise AssertionError(
                        f"verify saw corruption: {report.corrupt}")
        # Parting shots: a full maintenance pass from each side.
        cache.prune(NO_EVICTION_BUDGET)
        cache.verify(repair=True)
        error_queue.put(None)
    except BaseException as exc:  # propagate to the parent's assertion
        error_queue.put(f"{type(exc).__name__}: {exc}")


def test_two_process_churn_loses_nothing(tmp_path):
    root = tmp_path / "shared"
    errors = multiprocessing.Queue()
    workers = [
        multiprocessing.Process(target=_churn, args=(str(root), "aa", errors)),
        multiprocessing.Process(target=_churn, args=(str(root), "bb", errors)),
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=120)
    assert all(worker.exitcode == 0 for worker in workers), \
        [worker.exitcode for worker in workers]
    results = [errors.get(timeout=10) for _ in workers]
    assert results == [None, None], results

    # No lost entries: every write from both processes is retrievable and
    # checksum-verified.
    cache = ResultCache(root)
    for prefix in ("aa", "bb"):
        for index in range(ENTRIES_PER_WORKER):
            hit, value = cache.get(_digest(prefix, index))
            assert hit, f"lost entry {prefix}{index:03d}"
            assert pickle.dumps(value) == pickle.dumps(_value(prefix, index))

    stats = cache.stats()
    assert stats.entries == 2 * ENTRIES_PER_WORKER
    assert stats.quarantined == 0
