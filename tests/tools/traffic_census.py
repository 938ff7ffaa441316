"""Traffic census: which functions of ``src/repro`` does nothing we run enter?

Runs every non-test entry point (``commands``) under a ``sys.setprofile``
hook installed by a generated ``sitecustomize.py`` and lists each ``def``
that no ``call`` event named::

    python tests/tools/traffic_census.py --allow tests/tools/census_keep.txt

Exit 1: a function neither entered nor on the keep-list (``path::qualname``,
then why it stays), or a keep-list line that is entered or gone. ~4 min;
the bench files rewrite ``results/`` (``git checkout results`` afterwards).
"""

import argparse
import ast
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
HOOK = """\
import atexit, os, sys
seen = set()
sys.setprofile(lambda frame, event, arg:
               event == "call" and seen.add(frame.f_code))
@atexit.register
def dump():
    sys.setprofile(None)
    with open(os.path.join({out!r}, "%d.calls" % os.getpid()), "w") as fh:
        fh.writelines(f"{{c.co_filename[len({src!r}):]}}::{{c.co_qualname}}\\n"
                      for c in seen if c.co_filename.startswith({src!r}))
"""
FLAGSHIP = "--program-seed 145 --cluster-seed 1 --plan-seed 533 --failures 2"
WORKER = ("benchmarks/e2e/run.py --worker --quick --seed 2003 --seconds 0 "
          "--trace 0 --spawned-at 0 --workload ")
WORKLOADS = "fig_matrix kv_server page_stream fault_sweep obs_report".split()
SWEEP = "tests/tools/sweep_fault_seeds.py --plan-start 434 --check --no-cache "
SHAPES = ("--plan-count 40 --failures 1,2",
          "--plan-count 20 --failures 3 --num-nodes 5",
          "--plan-count 20 --failures 2 --during-recovery-prob 1.0")
# pytest-benchmark's pedantic() drops the profile hook unless disabled.
PYTEST = "-m pytest -q -p no:cacheprovider --benchmark-disable "


def commands(tmp: str) -> list:
    """Every non-test entry point, at its smallest size (``run
    --profile`` swaps in cProfile's hook, so it counts only for what
    starts it)."""
    repro = [
        "list", "run WaterNsq --scale test --threads 2",
        "run LU --scale test --profile 5", "suite --scale test",
        f"figures --scale test --output {tmp}/figs",
        f"sweep --scale test --report {tmp}/sweep "
        "--slo results/slo_default.json",
        f"report {FLAGSHIP} --spec results/slo_default.json "
        f"--output {tmp}/report",
        "recover --scale test",
        f"replay {tmp}/t.jsonl --record --plan-seed 533 --failures 2",
        f"replay {tmp}/t.jsonl"]

    def files(pattern):
        return sorted(str(p.relative_to(ROOT)) for p in ROOT.glob(pattern))

    return ([WORKER + name for name in WORKLOADS]
            + ["-m repro " + line for line in repro]
            + [SWEEP + shape for shape in SHAPES] + files("examples/*.py")
            + [PYTEST + " ".join(files("benchmarks/bench_*.py"))])


def defined() -> set:
    """``path::qualname`` of every def in SRC, spelt as ``co_qualname``."""
    found = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            inner = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.add(prefix + child.name)
                inner = f"{prefix}{child.name}.<locals>."
            elif isinstance(child, ast.ClassDef):
                inner = f"{prefix}{child.name}."
            visit(child, inner)

    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text()), f"{path.relative_to(SRC)}::")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--allow", type=pathlib.Path, required=True,
                        help="keep-list: path::qualname, then the reason")
    args = parser.parse_args(argv)
    allowed = {line.split()[0] for line in args.allow.read_text().splitlines()
               if line.strip() and not line.startswith("#")}
    with tempfile.TemporaryDirectory() as tmp:
        pathlib.Path(tmp, "sitecustomize.py").write_text(
            HOOK.format(out=tmp, src=f"{SRC}{os.sep}"))
        env = dict(os.environ, REPRO_JOBS="1", REPRO_PURE="1",
                   REPRO_CACHE_DIR=f"{tmp}/cache", PYTHONPATH=os.pathsep.join(
                       [tmp, str(SRC.parent), str(ROOT)]))
        for line in commands(tmp):
            print("census:", line, flush=True)
            subprocess.run([sys.executable, *line.split()], cwd=ROOT,
                           env=env, stdout=subprocess.DEVNULL, check=True)
        entered = {row for dump in pathlib.Path(tmp).glob("*.calls")
                   for row in dump.read_text().splitlines()}
    never = defined() - entered
    print(len(never), "functions of src/repro never entered")
    for name in sorted(never ^ allowed):
        print("  never entered, not on the keep-list:" if name in never
              else "  on the keep-list, but entered or gone:", name)
    return 1 if never ^ allowed else 0


if __name__ == "__main__":
    sys.exit(main())
