"""Recorded inputs of the ``city`` and ``replay`` workloads, made from a seed.

An attacker who replays a capture holds a model saved with
``save_fingerprinter`` and the recorded traces.  :func:`generate` makes
both parts from the benchmark seed:

* ``model``: ``model.json``, a hierarchical fingerprinter trained on a
  Lab one-UE campaign of every app;
* ``recordings``: ``captures.npz``, held-out Lab one-UE captures of
  every app, and
* ``train_pairs.npz`` / ``test_pairs.npz``: conversation legs, stored
  a-leg then b-leg per conversation.  Training conversations give the
  correlation attack its labelled pairs; the test legs are the users
  whose every pairing is scored.

Every trace carries a unique ``user`` so the stream fuses verdicts per
user.  :func:`ensure` keeps each generated part per seed under the
work directory, keyed by a digest of the program and of this file, so
a part is never reused once either changes.  Generation runs in a
child process (``python3 perfbench/corpus.py``) so that neither its
time nor its memory lands in the run that measures.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class CorpusSize:
    """How much the generator simulates for one seed."""

    train_traces_per_app: int = 3
    train_duration_s: float = 80.0
    n_trees: int = 24
    captures_per_app: int = 1
    capture_duration_s: float = 120.0
    train_conversations_per_app: int = 3
    test_conversations_per_app: int = 6
    conversation_s: float = 120.0


DEFAULT_SIZE = CorpusSize()

#: The two parts of a corpus and their files.  ``city`` needs only the
#: model; ``replay`` needs both.
PARTS = {"model": ("model.json",),
         "recordings": ("captures.npz", "train_pairs.npz",
                        "test_pairs.npz")}


def pinned_env() -> Dict[str, str]:
    """Process environment with every program knob the benchmark pins.

    The trace cache is off (a cached capture would skip simulation),
    one worker is the default, observability starts off, and the
    simulator engine is the program's default.
    """
    env = dict(os.environ)
    env.pop("REPRO_SIM_ENGINE", None)
    env.pop("REPRO_TRACE_CACHE_DIR", None)
    env.update({"REPRO_TRACE_CACHE": "0", "REPRO_WORKERS": "1",
                "REPRO_OBS": "0", "PYTHONPATH": str(SRC)})
    return env


def program_digest() -> str:
    """Digest of every program source file and of this generator."""
    digest = hashlib.sha256()
    paths = sorted((SRC / "repro").rglob("*.py")) + [Path(__file__)]
    for path in paths:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _conversation_specs(seed: int, per_app: int, duration_s: float):
    from repro.core.dataset import PairSpec
    from repro.experiments.table6_similarity import conversational_apps

    return [PairSpec(app_name=app, kind=kind, duration_s=duration_s,
                     seed=seed + 331 * app_index + 17 * repeat)
            for app_index, (app, kind) in enumerate(conversational_apps())
            for repeat in range(per_app)]


def _legs(pairs, prefix: str):
    from repro.sniffer.trace import TraceSet

    legs = TraceSet()
    for index, (leg_a, leg_b) in enumerate(pairs):
        leg_a.user = f"{prefix}-{index:03d}-a"
        leg_b.user = f"{prefix}-{index:03d}-b"
        legs.add(leg_a)
        legs.add(leg_b)
    return legs


def generate(part: str, seed: int, out_dir: Path,
             size: CorpusSize = DEFAULT_SIZE) -> None:
    """Simulate (and for the model, train) one part into ``out_dir``."""
    from repro import runtime
    from repro.apps import app_names
    from repro.core.dataset import (collect_pairs, collect_traces,
                                    windows_from_traces)
    from repro.core.fingerprint import (HierarchicalFingerprinter,
                                        save_fingerprinter)

    runtime.configure(cache_enabled=False, fault_plan=None)
    # Two workers: generation is not measured, and any worker count
    # yields bit-identical traces.
    workers = 2
    apps = list(app_names())
    out_dir.mkdir(parents=True, exist_ok=True)
    if part == "model":
        train = collect_traces(apps,
                               traces_per_app=size.train_traces_per_app,
                               duration_s=size.train_duration_s, seed=seed,
                               workers=workers)
        model = HierarchicalFingerprinter(n_trees=size.n_trees,
                                          seed=seed + 1)
        model.fit(windows_from_traces(train))
        save_fingerprinter(model, out_dir / "model.json")
        return
    captures = collect_traces(apps, traces_per_app=size.captures_per_app,
                              duration_s=size.capture_duration_s,
                              seed=seed + 5000, workers=workers)
    for index, trace in enumerate(captures):
        trace.user = f"capture-{index:03d}"
    captures.to_npz(out_dir / "captures.npz")
    for name, base, per_app in (
            ("train_pairs", seed + 20_000, size.train_conversations_per_app),
            ("test_pairs", seed + 70_000, size.test_conversations_per_app)):
        pairs = collect_pairs(_conversation_specs(base, per_app,
                                                  size.conversation_s),
                              workers=workers)
        _legs(pairs, name).to_npz(out_dir / f"{name}.npz")


def ensure(part: str, seed: int, work_dir: Path) -> Path:
    """The directory holding ``part`` for ``seed``, generated if absent.

    Parts made by another program version are deleted; a part is
    written under a temporary name and renamed only once complete.
    """
    root = work_dir / "corpus"
    digest = program_digest()
    target = root / f"{part}-seed{seed}-{digest}"
    if all((target / name).is_file() for name in PARTS[part]):
        return target
    root.mkdir(parents=True, exist_ok=True)
    for stale in root.iterdir():
        if not stale.name.endswith(digest):
            shutil.rmtree(stale, ignore_errors=True)
    partial = root / f"partial-{part}-seed{seed}-{os.getpid()}-{digest}"
    shutil.rmtree(partial, ignore_errors=True)
    subprocess.run([sys.executable, str(Path(__file__)), "--part", part,
                    "--seed", str(seed), "--out", str(partial)],
                   env=pinned_env(), check=True, timeout=170,
                   stdout=subprocess.DEVNULL)
    shutil.rmtree(target, ignore_errors=True)
    partial.rename(target)
    return target


def load_pairs(traces) -> List[Tuple[object, object]]:
    """Regroup stored legs (a, b, a, b, ...) into conversations."""
    legs = list(traces)
    return [(legs[index], legs[index + 1])
            for index in range(0, len(legs), 2)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--part", choices=sorted(PARTS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    generate(args.part, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    sys.exit(main())
