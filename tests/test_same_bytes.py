"""The byte-identity harness, run on the working tree against itself."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_harness():
    spec = importlib.util.spec_from_file_location("same_bytes", ROOT / "tools" / "same_bytes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quick_runs_repeat_their_bytes():
    # each run executes twice, in two directories: every file, both streams
    # and the exit code must come out the same
    harness = load_harness()
    runs = [run for run in harness.RUNS if run.quick]
    assert runs
    assert harness.differences(ROOT, ROOT, runs) == []


def test_a_changed_byte_is_reported(tmp_path, monkeypatch):
    harness = load_harness()
    run = next(run for run in harness.RUNS if run.name == "simulate-n4")
    real = harness.run_once

    def tampered(tree, run):
        items = real(tree, run)
        if tree == tmp_path:
            items["out/jsi.csv"] = "0" * 64
            items["exit"] = "3"
        return items

    monkeypatch.setattr(harness, "run_once", tampered)
    (tmp_path / "src").symlink_to(ROOT / "src")
    assert harness.differences(ROOT, tmp_path, [run]) == [
        "simulate-n4/exit: 0 -> 3",
        "simulate-n4/out/jsi.csv: differs",
    ]


def test_the_order_of_stdout_and_stderr_is_compared(tmp_path):
    # both trees print the same two lines, one on each stream, in opposite
    # orders: only the one pipe the harness reads both through tells them apart
    harness = load_harness()
    lines = ('print("out", flush=True)', 'print("err", file=sys.stderr, flush=True)')
    trees = []
    for name, order in (("a", lines), ("b", lines[::-1])):
        package = tmp_path / name / "src" / "biphoton"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "cli.py").write_text("import sys\n" + "\n".join(order) + "\n")
        trees.append(tmp_path / name)
    run = harness.Run("order", ("presets",))
    assert harness.differences(*trees, [run]) == ["order/output: differs"]
