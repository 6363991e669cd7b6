"""Actor-style state on warm task workers.

A ``map_batches(Cls, concurrency=N, fn_constructor_args=...)`` actor
pool spawns FRESH worker processes per stage invocation, each paying
the package import (~2 s) before the first batch — a fixed tax on every
pipeline run even when the per-actor state (broadcast ``ray.get``,
compiled regexes, lookup tables) costs milliseconds to build.

``class_task(Cls, *args, **kwargs)`` instead wraps the class as a plain
task function with ONE instance per (class, ctor-args) per worker
process: tasks run on the session's already-warm workers and the first
task on each worker builds the instance (object-store ``ray.get`` of
broadcast refs is zero-copy and local).  Ray task workers execute one
task at a time, so the cached instance is never called concurrently.

Use the actor pool instead when per-actor state is expensive enough to
amortize a dedicated process (model weights), needs GPUs, or must NOT
be rebuilt on arbitrary workers.
"""

from __future__ import annotations

import logging

_CACHE: dict = {}
_CACHE_MAX = 8  # a worker may interleave several cached stages
_BUILDS: dict = {}  # key -> build count, to surface eviction thrash
_log = logging.getLogger(__name__)


def _norm(v):
    import ray
    if isinstance(v, ray.ObjectRef):
        return v.hex()
    if isinstance(v, (list, tuple)):
        return tuple(_norm(x) for x in v)
    if isinstance(v, dict):
        return tuple(sorted((k, _norm(x)) for k, x in v.items()))
    return v


def class_task(cls, *ctor_args, **ctor_kwargs):
    """A batch function running ``cls(*ctor_args, **ctor_kwargs)`` with
    one cached instance per worker process (LRU-bounded).

    The cache is LRU (hit moves the entry to the back of the eviction
    order), and a rebuild of a previously-evicted entry is logged —
    more than ``_CACHE_MAX`` cached stages interleaving on one worker
    would otherwise rebuild broadcast state per batch with no
    visibility.
    """
    key = (cls.__module__, cls.__qualname__,
           _norm(ctor_args), _norm(ctor_kwargs))

    def _fn(batch):
        inst = _CACHE.get(key)
        if inst is None:
            while len(_CACHE) >= _CACHE_MAX:
                _CACHE.pop(next(iter(_CACHE)))
            inst = cls(*ctor_args, **ctor_kwargs)
            _CACHE[key] = inst
            builds = _BUILDS[key] = _BUILDS.get(key, 0) + 1
            if builds > 1:
                _log.warning(
                    "class_task cache thrash: rebuilt %s state %d times on "
                    "this worker (>%d cached stages interleaving); raise "
                    "taskcache._CACHE_MAX or use an actor pool",
                    cls.__qualname__, builds, _CACHE_MAX)
        else:
            _CACHE[key] = _CACHE.pop(key)  # LRU: move to back
        return inst(batch)

    _fn.__name__ = cls.__name__
    return _fn


def broadcast_map(ds, cls, tables, *ctor_args, **ctor_kwargs):
    """``ds`` mapped by ``class_task(cls, *refs, *ctor_args,
    **ctor_kwargs)``, where ``refs`` are the block refs of each
    materialized dataset in ``tables``: the broadcast side of a scorer
    ships once per worker, never through the driver.

    The returned lazy dataset pins ``tables``: were they GC'd before it
    executes, a worker rebuilding ``cls`` could find its constructor-arg
    refs freed (ray#53727)."""
    refs = [t.to_arrow_refs() for t in tables]
    out = ds.map_batches(class_task(cls, *refs, *ctor_args, **ctor_kwargs),
                         batch_format="pyarrow")
    out._graft_pin = tuple(tables)
    return out


def nonempty_blocks(refs) -> list:
    """The Arrow tables behind ``refs`` (``Dataset.to_arrow_refs()``)
    that hold rows.  Map functions never see an empty batch, but a
    block read directly may be Ray's 0-row block, which can have no
    columns at all; every direct block reader skips them here."""
    import ray
    return [t for t in ray.get(list(refs)) if t.num_rows]


def map_files(files: list[str], fn):
    """One task per file: ``fn(path)`` reads the file itself and returns
    its output table.  What one file holds never splits across tasks
    (Ray may re-slice the blocks of a read) and its rows never pass
    through the object store before ``fn``."""
    import ray.data

    def _file(batch):
        return fn(str(batch["item"][0]))
    _file.__name__ = getattr(fn, "__name__", type(fn).__name__)
    return ray.data.from_items(list(files), override_num_blocks=len(files)) \
        .map_batches(_file, batch_format="numpy", batch_size=1)
