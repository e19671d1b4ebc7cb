import pytest


@pytest.fixture
def executors(monkeypatch):
    """Record the worker count of every thread pool the package opens."""
    import concurrent.futures

    opened = []

    class Recording(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            opened.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    return opened
