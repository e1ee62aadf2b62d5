"""The paper grid the benchmark drives, and how a cell's result is checked.

Shared by the benchmark command (``run.py``) and the processes it starts
(``cold.py``, ``serve.py``).  Nothing here imports ``repro`` at module
level: :func:`use_checkout_source` must run first, so that the program
under test is always the copy in this checkout's ``src/``.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: everything a run writes (stores, logs, spans, reports) lives here
WORK = ROOT / ".perfbench-work"
#: committed expected-digest tables (reference interpreter, all fast paths off)
EXPECTED_DIR = BENCH_DIR / "expected"

PROGRAMS = ("grav", "pdsa", "fullconn", "pverify", "qsort", "topopt")
#: the differential grid's six lock schemes
LOCKS = ("queuing", "ttas", "mcs", "clh", "ticket", "backoff")
MODELS = ("sc", "wo")
CELLS = len(PROGRAMS) * len(LOCKS) * len(MODELS)

#: trace scale of every workload: a cold grid takes ~6 s on a 2.1 GHz
#: Xeon core, so a 20 s run holds three or four cold passes
SCALE = 0.05
DEFAULT_SEED = 1991
#: seed whose table is stored but which no tuning run used
HELD_OUT_SEED = 7


def labels() -> list[str]:
    """Cell labels in ``grid_specs`` order (program outermost)."""
    return [f"{p}/{s}/{m}" for p in PROGRAMS for s in LOCKS for m in MODELS]


def grid_request(scale: float, seed: int) -> dict:
    """The ``grid`` body of a ``POST /submit`` for the whole paper grid."""
    return {
        "programs": list(PROGRAMS),
        "locks": list(LOCKS),
        "models": list(MODELS),
        "scale": scale,
        "seed": seed,
    }


def digest(result_dict: dict) -> str:
    """SHA-256 of a result's canonical ``result_to_dict`` JSON."""
    canon = json.dumps(result_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def expected_path(seed: int, scale: float) -> Path:
    return EXPECTED_DIR / f"seed-{seed}-scale-{scale:g}.json"


def source_digest() -> str:
    """Content hash of the program's sources (keys computed reference tables)."""
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        raise RuntimeError(f"no program sources at {package}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        raise RuntimeError(f"imported repro from {repro.__file__}, not {package}")


def child_env() -> dict:
    """Environment of every process the benchmark starts.

    ``REPRO_*`` settings (ambient trace cache, auditor, cache dirs) are
    dropped so every process runs the production configuration on the
    stores the benchmark hands it.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env
