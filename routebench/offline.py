"""The benchmark's artifact store, mined and persisted by the code under test.

The store is never taken from ``$REPRO_ARTIFACT_STORE`` or from another
checkout: it is built here, in a fresh directory, by the ``src/`` tree being
measured.  Mining the city takes about half a minute, so the store is kept
for the rest of the checkout's runs under a name that hashes every file of
``src/`` plus the recipe; any change to the program builds a new one.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from pathlib import Path

#: The city-scale offline build (the values of ``CITY_RECIPE`` /
#: ``CITY_SETTINGS`` in ``benchmarks/conftest.py``, copied so the benchmark's
#: inputs cannot change with the test harness).
CITY = {
    "recipe": {"dataset": "aalborg-like", "regime": "peak", "tau": 30},
    "settings": {"max_budget": 2500.0, "max_explored": 1500, "heuristic_sweeps": 1},
}
#: The seconds-long self-test's dataset.
TINY = {
    "recipe": {"dataset": "tiny", "regime": "peak", "tau": 20},
    "settings": {"max_budget": 900.0, "max_explored": 2000, "heuristic_sweeps": 1},
}
#: Tables persisted for every other destination; the rest are built on demand.
PERSISTED_METHODS = ("T-B-P", "T-BS-60", "V-BS-60")


def source_digest(root: Path) -> str:
    """A digest of every file under ``src/`` (names and contents)."""
    digest = hashlib.blake2b(digest_size=16)
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def ensure_store(work: Path, build: dict, digest: str) -> tuple[Path, dict]:
    """The store for ``build`` mined by this ``src/`` tree, built if missing.

    Returns ``(store_dir, offline_record)``; the record holds the mining,
    prewarm and save wall times measured when the store was built.
    """
    key = hashlib.blake2b(
        (digest + json.dumps(build, sort_keys=True)).encode(), digest_size=8
    ).hexdigest()
    store = work / f"store-{build['recipe']['dataset']}-{key}"
    record_path = work / f"store-{build['recipe']['dataset']}-{key}.json"
    if record_path.is_file() and store.is_dir():
        return store, json.loads(record_path.read_text())
    from repro.routing import DatasetRecipe, RouterSettings

    building = work / f"building-{os.getpid()}"
    shutil.rmtree(building, ignore_errors=True)
    started = time.perf_counter()
    engine = DatasetRecipe(**build["recipe"]).build_engine(
        settings=RouterSettings(**build["settings"])
    )
    mine_s = time.perf_counter() - started
    destinations = sorted(engine.pace_graph.network.vertex_ids())[::2]
    started = time.perf_counter()
    for method in PERSISTED_METHODS:
        engine.prewarm(method, destinations)
    prewarm_s = time.perf_counter() - started
    started = time.perf_counter()
    engine.save_artifacts(building, provenance={"mine_seconds": round(mine_s, 3)})
    save_s = time.perf_counter() - started
    record = {
        "offline.mine_s": mine_s,
        "offline.prewarm_s": prewarm_s,
        "offline.save_s": save_s,
        "persisted_destinations": len(destinations),
        "persisted_methods": list(PERSISTED_METHODS),
        "build": build,
        "source_digest": digest,
    }
    shutil.rmtree(store, ignore_errors=True)
    building.rename(store)
    record_path.write_text(json.dumps(record, indent=1))
    return store, record
