import pytest

from lentparticle import rng


class _RecordingExecutor:
    """Stands in for ProcessPoolExecutor: records max_workers and maps in process."""

    started: list[int] = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize(
    "jobs, nitems, started",
    [(64, 4, [4]), (2, 4, [2]), (4, 4, [4]), (3, 2, [2]), (1, 4, []), (8, 1, []), (8, 0, [])],
)
def test_parallel_map_starts_at_most_one_worker_per_item(monkeypatch, jobs, nitems, started):
    monkeypatch.setattr(rng, "ProcessPoolExecutor", _RecordingExecutor)
    monkeypatch.setattr(_RecordingExecutor, "started", [])
    items = list(range(nitems))
    assert rng.parallel_map(lambda i: i * i, items, jobs=jobs) == [i * i for i in items]
    assert _RecordingExecutor.started == started
