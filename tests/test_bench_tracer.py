"""The names bench/tracer.py wraps are still called once per operation.

The tracer patches ``Store.insert``, ``Store.latest``, ``PersistenceLog.append``,
``liot.engine.eval_condition``, ``liot.engine.replay_log`` and
``Engine.process_event`` by name. If the engine stopped calling one of them
per insert or per evaluation, the benchmark's per-layer figures would
silently read low; exact counts on a hand-worked run catch it. The engine
reads fields without ``Store.latest``, so its count is pinned at zero.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"

PROGRAM = """\
RELATION S (V)
RELATION D (V)
TRIGGER (D)
{
}
RULE HIGH S.V > 50
{
    D(S.V)
}
RULE JUMP S.V - S.V[-1] > 10
{
}
"""

# Per insert of S, by hand: one insert, two evaluations, and one more insert
# into D when HIGH fires.
#   run 1:  60 -> HIGH fires, JUMP unavailable: 2 inserts
#           20 -> neither fires:                1 insert
#           70 -> HIGH and JUMP fire:           2 inserts
# Run 2 replays run 1's five records first, so the first JUMP is false
# instead of unavailable; the counts come out the same.
SCRIPT = [60, 20, 70]
PER_RUN = {
    "engine.process_event": 3,
    "store.insert": 5,
    # field reads are compiled inline into the conditions and rows, so
    # nothing in the engine calls Store.latest
    "store.latest": 0,
    "evaluator.eval_condition": 6,
    "store.persist_append": 5,
}


def load_summarize():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.summarize


def traced_run(tmp_path: Path, run: int) -> dict[str, int]:
    program = tmp_path / "p.liot"
    program.write_text(PROGRAM, encoding="utf-8")
    script = tmp_path / "s.jsonl"
    script.write_text("".join(json.dumps({"at": at, "insert": {"rel": "S", "v": [v]}}) + "\n"
                              for at, v in enumerate(SCRIPT)), encoding="utf-8")
    spans = tmp_path / f"run{run}.spans"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    process = subprocess.run(
        [sys.executable, str(TRACER), str(spans), "script", str(program), str(script),
         "--log", str(tmp_path / "run.jsonl")],
        env=env, capture_output=True, text=True, timeout=60)
    assert process.returncode == 0, process.stderr
    stats, _ = load_summarize()(spans)
    return {name: layer.calls for name, layer in stats.items()}


def test_tracer_counts_every_insert_read_evaluation_and_replay(tmp_path):
    first = traced_run(tmp_path, 1)
    assert {name: first.get(name, 0) for name in PER_RUN} == PER_RUN
    assert "store.replay" not in first  # nothing to replay yet
    second = traced_run(tmp_path, 2)
    assert {name: second.get(name, 0) for name in PER_RUN} == PER_RUN
    assert second["store.replay"] == 1
