"""The fitted pipeline the serving workloads load, cached on disk.

Fitting is the offline phase and costs seconds; the serving workloads
measure loading and serving, so the pipeline is fitted once and saved
through :meth:`LogSynergy.save_pipeline`.  The cache key hashes every
source file of the program, the model config and the fit recipe, so a
change to ``src/`` (or to the recipe) refits instead of reusing a stale
model.  The fit runs in a forked child process, so neither its time nor
its memory enters the measured process.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import os
import shutil
from pathlib import Path

__all__ = ["program_digest", "cached_pipeline"]


def program_digest(src_root: Path) -> str:
    """SHA-256 over the relative path and bytes of every program file."""
    digest = hashlib.sha256()
    for path in sorted(src_root.rglob("*.py")):
        digest.update(str(path.relative_to(src_root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def cached_pipeline(cache_root: Path, src_root: Path, config, recipe: dict,
                    fit) -> Path:
    """Directory of the saved pipeline for this program, config and recipe.

    ``fit`` is called (and its pipeline saved) only on a cache miss, in
    a forked child, so the fit's memory never enters the caller's peak
    resident set.  The pipeline is written to a private directory and
    renamed into place, so an interrupted fit never leaves a half-written
    entry behind.
    """
    key = hashlib.sha256(json.dumps({
        "program": program_digest(src_root),
        "config": dataclasses.asdict(config),
        "recipe": recipe,
    }, sort_keys=True).encode()).hexdigest()[:20]
    target = cache_root / f"pipeline-{key}"
    if (target / "pipeline.json").is_file():
        return target
    cache_root.mkdir(parents=True, exist_ok=True)
    staging = cache_root / f".staging-{key}-{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    child = multiprocessing.get_context("fork").Process(
        target=lambda: fit().save_pipeline(str(staging)))
    child.start()
    child.join()
    if child.exitcode != 0:
        raise RuntimeError(f"fitting the cached pipeline failed in its child "
                           f"process (exit code {child.exitcode})")
    os.rename(staging, target)
    return target
