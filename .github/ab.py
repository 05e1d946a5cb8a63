"""In-process A/B of this tree's library against another tree's:

    python .github/ab.py <tree>/src/elko <name>

loads that tree's package under another name beside this tree's ``src/elko``.
It first prints, per seed and sample count of ``REPORTS``, whether the two
packages' ``run_suite("all", seed, samples)`` reports are the same bytes, the
bytes ``elko verify --out`` writes.  It then times four requests on both,
the sides taking turns going first block by block: ``run_suite("all", 1, n)``
at n = 1000 and 100, and perfbench's ``PointEval.call`` and
``SpinOneScan.call`` on its seeded momenta.  Each A/B
prints each side's median and interquartile range per request, the median
per-block head - <name> difference and the number of blocks the head won.
The point-eval and spin-one-scan A/Bs then call both sides once more on
each input of their first block and print ``outputs bit-identical`` or the
first input whose outputs differ in a bit, by the rule of ``tests/bits.py``
that the tests use.  Under each of the two it also prints the calls each
side's ``elko`` issues for one request at a fixed momentum, for
spin-one-scan once per perfbench configuration, counted as the tier-1
call ceilings count them (``tests/calls.py``).

Last it times ``python -m elko verify --suite all --seed 1 --samples n``
at n = 1000 and 100 in fresh processes, each tree's on its own ``src`` as
``PYTHONPATH``, the sides taking turns process by process, and prints the
same lines.  It then times ``python -c "import elko, elko.cli"`` the same
way, and prints each side's median ``-X importtime`` self time per ``elko``
module, from as many more processes.  Both trees are byte-compiled first,
because with ``PYTHONDONTWRITEBYTECODE`` set every process would compile the
package again, and each side must import its own tree.
"""

import importlib.util
import itertools
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "tests"))
from bits import leaves  # noqa: E402
from calls import CONFIGS, MOMENTUM, count_calls  # noqa: E402
from workloads import PointEval, SpinOneScan, seeded_momenta  # noqa: E402

SAMPLES = (1000, 100)   # run_suite's sample counts
# (seed, samples) of the compared reports: the reference report's seeds 1-5,
# and the run of the golden tests/data/report-all-seed1-n100.json
REPORTS = ((1, 1000), (2, 1000), (3, 1000), (4, 1000), (5, 1000), (1, 100))
BLOCKS = 20             # blocks per A/B; each side is timed once on each
PER_BLOCK = 400         # point-eval and spin-one-scan requests per block
WARM_UP = 16            # point-eval and spin-one-scan requests per side first
PROCESSES = 10          # fresh processes per side and A/B
IMPORT = "import elko, elko.cli"   # the import of the import A/B


def load(name, path):
    """Import the package in the directory ``path`` under ``name``."""
    spec = importlib.util.spec_from_file_location(
        name, Path(path) / "__init__.py", submodule_search_locations=[str(path)])
    sys.modules[name] = package = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(package)
    return package


def requests(package):
    """``run_suite("all", 1, samples)``, ``PointEval.call``,
    ``SpinOneScan.call`` and the JSON text of ``run_suite("all", seed,
    samples)``, bound to the package's modules."""
    kin, ops, sp, dyn, s1, suite = (importlib.import_module(f"{package.__name__}.{m}") for m in (
        "kinematics", "operators", "spinors", "dynamics", "spin_one", "suite"))
    state = SimpleNamespace(kin=kin, ops=ops, sp=sp, dyn=dyn, s1=s1,
                            conjugation=ops.charge_conjugation(),
                            convention=dyn.FrequencyConvention(+1))
    return (lambda samples: suite.run_suite("all", 1, samples),
            lambda x: PointEval.call(state, x), lambda x: SpinOneScan.call(state, x),
            lambda seed, samples: suite.run_suite("all", seed, samples).to_json())


def compare(title, sides, blocks):
    """Time each side's call on every input of each block, the sides taking
    turns going first, and print the A/B; ``sides`` maps the reference's
    name, then "head", to a call."""
    ref, head = sides
    times = {ref: [], head: []}
    for i, block in enumerate(blocks):
        for side in (head, ref) if i % 2 else (ref, head):
            call, start = sides[side], time.perf_counter()
            for x in block:
                call(x)
            times[side].append((time.perf_counter() - start) / len(block))
    scale, unit = (1e3, "ms") if statistics.median(times[ref]) > 1e-2 else (1e6, "us")
    print(f"{title}, {len(blocks)} blocks of {len(blocks[0])}:")
    for side, spans in times.items():
        q1, _, q3 = statistics.quantiles(spans, n=4)
        print(f"  {side}: median {scale * statistics.median(spans):.1f} {unit}, "
              f"IQR {scale * (q3 - q1):.1f} {unit}")
    diffs = [h - r for r, h in zip(times[ref], times[head])]
    print(f"  {head} - {ref} per block: median {scale * statistics.median(diffs):+.1f} {unit}, "
          f"{head} faster in {sum(d < 0 for d in diffs)} of {len(diffs)} blocks")


def compare_bits(sides, block):
    """Call both sides on each input of ``block`` and print whether their
    outputs are the same bits, or the first input where they are not."""
    ref, head = sides.values()
    for x in block:
        if leaves(ref(x)) != leaves(head(x)):
            print(f"  outputs differ, first at input {x!r}")
            return
    print("  outputs bit-identical")


def compare_calls(sides, packages, inputs):
    """Print, per label of ``inputs``, the Python and C calls each side's
    package issues for one request on the label's input at ``MOMENTUM``;
    ``packages`` maps each side to its package directory."""
    print(f"  calls from elko per request at {MOMENTUM}, Python + C:")
    for label, x in inputs.items():
        counts = {side: count_calls(packages[side], lambda: call(x))
                  for side, call in sides.items()}
        print(f"    {label:<12}" + "".join(
            f"  {side} {python} + {c} = {python + c}" for side, (python, c) in counts.items()))


def compare_reports(sides):
    """Print, per run of ``REPORTS``, whether both sides' reports are the
    same bytes."""
    ref, head = sides.values()
    for seed, samples in REPORTS:
        same = ref(seed, samples) == head(seed, samples)
        print(f"seed {seed}, {samples} samples: {'byte-identical' if same else 'reports differ'}")


def import_self_us(log):
    """Each ``elko`` module's self time in µs, from one ``-X importtime``
    log."""
    times = {}
    for line in log.splitlines():
        if line.startswith("import time:"):
            self_us, _, name = (f.strip() for f in line.removeprefix("import time:").split("|"))
            if name.partition(".")[0] == "elko":
                times[name] = int(self_us)
    return times


def compare_processes(trees):
    """Time one fresh ``python -m elko verify`` process per side and block,
    at each sample count of ``SAMPLES``, then one fresh ``IMPORT`` process,
    and print the A/Bs and the import's ``elko`` self times (0 for a module
    a side does not load); ``trees`` maps
    the reference's name, then "head", to the tree's ``src`` directory."""
    envs = {side: {**os.environ, "PYTHONPATH": str(src)} for side, src in trees.items()}
    for side, src in trees.items():
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(src / "elko")], check=True)
        found = subprocess.run([sys.executable, "-c", "import elko; print(elko.__file__)"],
                               env=envs[side], capture_output=True, text=True, check=True)
        if not Path(found.stdout.strip()).resolve().is_relative_to(src.resolve()):
            sys.exit(f"{side} imported elko from {found.stdout.strip()}, not from {src}")
    with tempfile.TemporaryDirectory() as tmp:
        def verify(side):
            out = str(Path(tmp) / f"{side}.json")
            return lambda samples: subprocess.run(
                [sys.executable, "-m", "elko", "verify", "--suite", "all", "--seed", "1",
                 "--samples", str(samples), "--out", out],
                env=envs[side], capture_output=True, check=True)

        sides = {side: verify(side) for side in trees}
        for n in SAMPLES:
            compare(f"elko verify --samples {n} processes", sides, [[n]] * PROCESSES)

    def start(side, *flags):
        return subprocess.run([sys.executable, *flags, "-c", IMPORT], env=envs[side],
                              capture_output=True, text=True, check=True)

    sides = {side: lambda _, side=side: start(side) for side in trees}
    compare(f'python -c "{IMPORT}" processes', sides, [[None]] * PROCESSES)
    logs = {side: [] for side in trees}
    for i in range(PROCESSES):
        for side in reversed(trees) if i % 2 else trees:
            logs[side].append(import_self_us(start(side, "-X", "importtime").stderr))
    print(f"elko's -X importtime self times, median of {PROCESSES} processes:")
    names = sorted({name for runs in logs.values() for run in runs for name in run})
    for name in [*names, "total"]:
        medians = (statistics.median(sum(run.values()) if name == "total" else run.get(name, 0)
                                     for run in runs) for runs in logs.values())
        print(f"  {name:<16}"
              + "".join(f"  {side} {us:>6.0f} us" for side, us in zip(logs, medians)))


def run(name, other, head):
    """The report comparison, the four in-process A/Bs and the three process
    A/Bs of the package ``head`` against ``other``, called ``name``."""
    run_suite, point_eval, spin_one_scan, report = (
        {name: a, "head": b} for a, b in zip(requests(other), requests(head)))
    compare_reports(report)
    # the last field of a case is None, or the inputs, by label, whose calls
    # are counted after the A/B and its bit comparison
    cases = [(f"run_suite('all', 1, {n}) passes", run_suite, itertools.repeat(n), 1, 1, None)
             for n in SAMPLES]
    cases += [("point-eval requests", point_eval, seeded_momenta(1, 1), WARM_UP, PER_BLOCK,
               {"point-eval": MOMENTUM}),
              ("spin-one-scan requests", spin_one_scan,
               zip(seeded_momenta(1, 2), itertools.cycle(SpinOneScan.CYCLE)), WARM_UP, PER_BLOCK,
               {" ".join(config): (MOMENTUM, config) for config in CONFIGS})]
    packages = {name: Path(other.__file__).parent, "head": Path(head.__file__).parent}
    for title, sides, inputs, warm_up, per_block, counted in cases:
        first = list(itertools.islice(inputs, warm_up))
        for call in sides.values():
            for x in first:
                call(x)
        blocks = [list(itertools.islice(inputs, per_block)) for _ in range(BLOCKS)]
        compare(title, sides, blocks)
        if counted:
            compare_bits(sides, blocks[0])
            compare_calls(sides, packages, counted)
    compare_processes({side: Path(package.__file__).parents[1]
                       for side, package in ((name, other), ("head", head))})


if __name__ == "__main__":
    run(sys.argv[2], load("elko_ref", sys.argv[1]), load("elko", ROOT / "src" / "elko"))
