"""Time this checkout against another tree in one process, side by side.

Run from the repository root; pytest does not collect it:

    python tests/ab_timing.py OTHER_TREE [N_MAX [REPEATS]]

It imports this checkout's ``src`` as ``diagsynth`` and ``OTHER_TREE/src``
as ``diagsynth_other``; each tree keeps its own caches. Inputs are seeded
generic angles, unwrapped ones (1e3..1e6 rad), and the sparse-ZZ and Ising
generators of ``test_precision``, at n = 2..10, 14 and 18, up to N_MAX
(default 14). Per route, input and n the two trees take turns for REPEATS
rounds (default 7), and each prints the best time of one call in
microseconds: synthesis, a warm ``verify`` (of a circuit whose layout was
read before), a cold ``verify`` (the first on a new layout), the two
halves of a warm codec round trip: the write (``to_qasm`` for xor,
``save_circuit`` of a JSON file for lambda and twolevel) and the read
(``parse_qasm``, ``load_circuit``) of what it wrote, and last the op of
mixed_small: synthesis, then ``verify`` of its own circuit. Each call of
synthesis and of the op takes a fresh ``DiagonalUnitary`` of the input, as
every benchmark op does. Each call of a ``verify`` row takes a fresh
``Circuit`` of the synthesized columns and phase, on the synthesized layout
(warm) or on a new one (cold), and a fresh ``DiagonalUnitary``, as the
one-shot checks of xor_large and replay_files do: so it times the
circuit's read-back and the diagonal's wrap, not the ones a lambda
synthesis kept. Fresh objects are made before the clock starts.
Columns ending in A are this
checkout, B the other tree. ``same`` reads ``same`` when both trees give
equal circuit columns, global phase and codec text, else ``differs``; it is
a report, not a check, so trees that change outputs by design can be timed
too. One process cancels the drift between processes that a cross-process
comparison on a busy host would read as a change. Single cells still move:
a tree timed against a copy of itself read most cells within 10% but a few
rows 1.5x apart on a shared 2-core host, so read a change off the median
of a stage's cells, next to a run against such a copy. After the rows, one
line per route and stage gives that median, of A/B over the rows: over
all of them, over n <= 6, and at n = 14 and 18 when the run reaches them.
Then a block times the transform layer alone: ``fwht``, ``zeta`` and
``mobius`` of the generic input at each n of the run, and at n = 16 and 20
too when N_MAX reaches them, with each tree's best time of one call, A/B,
and ``same`` when both trees give the same bits.
Last, a block times the shipped-file check: ``load_diagonal`` of the
generic input's diagonal file and ``cli.main(["verify", ...])`` of its
twolevel circuit file, each tree on the files it wrote, at each n of the
run. ``same`` reads ``same`` when both trees read the same bits, or print
the same verdict and exit code.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import importlib.util
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROUTES = {"xor": "synth_xor", "lambda": "synth_controlled", "twolevel": "synth_twolevel"}
SIZES = (*range(2, 11), 14, 18)
TRANSFORM_SIZES = sorted((*SIZES, 16, 20))
STAGES = ("synth", "warm", "cold", "write", "read", "op")
TRANSFORMS = ("fwht", "zeta", "mobius")
REPLAY = ("load_diagonal", "cli_verify")
# the summary's row sets, by the n they take
SUMMARY = {
    "all": lambda n: True, "n<=6": lambda n: n <= 6, "n=14": lambda n: n == 14,
    "n=18": lambda n: n == 18,
}


def load(name: str, src: Path):
    # the package under src/diagsynth, imported as name (once per process)
    if name not in sys.modules:
        package = src / "diagsynth"
        spec = importlib.util.spec_from_file_location(
            name, package / "__init__.py", submodule_search_locations=[str(package)]
        )
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


def generic(n: int) -> np.ndarray:
    return np.random.default_rng(n).uniform(0.0, 2 * np.pi, 1 << n)


def inputs(n: int):
    from test_precision import ising_thetas, sparse_zz_thetas

    yield "generic", generic(n)
    rng = np.random.default_rng([n, 2])
    yield "unwrapped", rng.uniform(0.0, 1.0, 1 << n) * 10 ** rng.uniform(3, 6)
    yield "sparse-zz", sparse_zz_thetas(n, np.random.default_rng([n, 1]))
    yield "ising", ising_thetas(n, n)


def per_call(call, batch: int) -> float:
    # the time of one call, in microseconds, over a batch of calls, with
    # garbage collection off as in timeit: a collection that one tree's
    # allocations set off is not charged to the call it interrupts
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(batch):
            call()
        return (time.perf_counter() - start) / batch * 1e6
    finally:
        gc.enable()


def fresh(make, use, batch: int) -> float:
    # per_call of use on each of batch values that make gives, made before
    # the clock starts
    made = iter([make() for _ in range(batch)])
    return per_call(lambda: use(next(made)), batch)


class Tree:
    """One tree's calls on one route and input."""

    def __init__(self, ds, route: str, n: int, thetas: np.ndarray, path: str):
        self.ds = ds
        self.u, self.path, self.qasm = ds.DiagonalUnitary(n, thetas), path, route == "xor"
        self.synth = getattr(ds, ROUTES[route])
        self.circuit = self.synth(self.u)[0]
        self.write()
        self.read()
        self.ds.verify(self.circuit, self.u)

    def write(self) -> None:
        # the circuit's QASM text, kept, or its file
        if self.qasm:
            self.qasm_text = self.ds.to_qasm(self.circuit)
        else:
            self.ds.save_circuit(self.circuit, self.path)

    def read(self) -> None:
        if self.qasm:
            self.ds.parse_qasm(self.qasm_text)
        else:
            self.ds.load_circuit(self.path)

    def text(self) -> str:
        # the codec text the tree last wrote
        return self.qasm_text if self.qasm else Path(self.path).read_text()

    def diagonal(self):
        return self.ds.DiagonalUnitary(self.u.n, self.u.thetas)

    def copy(self, new_layout: bool):
        # a fresh circuit of the synthesized columns and phase, on the
        # synthesized layout or on a new one
        c, ds = self.circuit, self.ds
        if new_layout:
            return ds.Circuit(c.n, c.columns, c.global_phase)
        return ds.circuits._on_layout(c.layout, c.columns, c.global_phase)

    def check(self, made) -> float:
        return self.ds.verify(*made)

    def op(self, u) -> float:
        return self.ds.verify(self.synth(u)[0], u)

    def times(self, batch: int) -> list[float]:
        return [
            fresh(self.diagonal, self.synth, batch),
            fresh(lambda: (self.copy(False), self.diagonal()), self.check, batch),
            fresh(lambda: (self.copy(True), self.diagonal()), self.check, batch),
            per_call(self.write, max(1, batch // 8)),
            per_call(self.read, max(1, batch // 8)),
            fresh(self.diagonal, self.op, batch),
        ]


def same(a: Tree, b: Tree) -> bool:
    pairs = zip(a.circuit.columns, b.circuit.columns)
    return (all(x.dtype == y.dtype and x.tobytes() == y.tobytes() for x, y in pairs)
            and a.circuit.global_phase == b.circuit.global_phase and a.text() == b.text())


def best_of(timings: list, repeats: int) -> np.ndarray:
    # each side's best times over the rounds, each side first in every other
    best = [np.inf, np.inf]
    for k in range(repeats):
        for side in (k % 2, 1 - k % 2):
            best[side] = np.minimum(best[side], timings[side]())
    return np.array(best)


def print_transforms(trees: tuple, sizes: list[int], repeats: int) -> None:
    # the transform layer alone, on the generic input at each n
    modules = [importlib.import_module(f"{ds.__name__}.transforms") for ds in trees]
    print(f"\n{'transform':<11}{'n':>3}{'best.A':>10}{'best.B':>10}{'A/B':>8}  same")
    for n in sizes:
        a = generic(n)
        for name in TRANSFORMS:
            calls = [lambda f=getattr(module, name): f(a) for module in modules]
            batch = max(1, 1 << max(0, 12 - n))
            best = best_of([lambda call=call: per_call(call, batch) for call in calls], repeats)
            bits = calls[0]().tobytes() == calls[1]().tobytes()
            print(f"{name:<11}{n:>3}{best[0]:>10.1f}{best[1]:>10.1f}{best[0] / best[1]:>8.3f}"
                  f"  {'same' if bits else 'differs'}")


def print_replay(trees: tuple, sizes: list[int], repeats: int, directory: str) -> None:
    # the replay_files op's verdict stage, on the generic input at each n
    print(f"\n{'replay':<15}{'n':>3}{'best.A':>10}{'best.B':>10}{'A/B':>8}  same")
    for n in sizes:
        calls = {name: [] for name in REPLAY}
        for k, ds in enumerate(trees):
            diag, circuit = (os.path.join(directory, f"{k}.{name}.json") for name in "uc")
            u = ds.DiagonalUnitary(n, generic(n))
            ds.save_diagonal(u, diag)
            ds.save_circuit(ds.synth_twolevel(u)[0], circuit)
            main = importlib.import_module(f"{ds.__name__}.cli").main
            argv = ["verify", "--circuit", circuit, "--diag", diag]
            calls["load_diagonal"].append(lambda ds=ds, diag=diag: ds.load_diagonal(diag).thetas)
            calls["cli_verify"].append(lambda main=main, argv=argv: main(argv))
        batch = max(1, 1 << max(0, 10 - n))
        for name in REPLAY:
            with contextlib.redirect_stdout(io.StringIO()):  # the verdict lines
                best = best_of([lambda call=call: per_call(call, batch) for call in calls[name]],
                               repeats)
            outputs = []
            for call in calls[name]:  # the bits read, or the exit code and verdict
                with contextlib.redirect_stdout(io.StringIO()) as out:
                    result = call()
                outputs.append((result.tobytes() if name == "load_diagonal" else result, out.getvalue()))
            print(f"{name:<15}{n:>3}{best[0]:>10.1f}{best[1]:>10.1f}{best[0] / best[1]:>8.3f}"
                  f"  {'same' if outputs[0] == outputs[1] else 'differs'}")


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 3:
        print("usage: python tests/ab_timing.py OTHER_TREE [N_MAX [REPEATS]]", file=sys.stderr)
        return 2
    src = Path(__file__).resolve().parent.parent / "src"
    trees = (load("diagsynth", src), load("diagsynth_other", Path(argv[0]) / "src"))
    n_max = int(argv[1]) if len(argv) > 1 else 14
    repeats = int(argv[2]) if len(argv) > 2 else 7
    sizes = [n for n in SIZES if n <= n_max]
    header = "".join(f"{stage + side:>10}" for stage in STAGES for side in ".A .B".split())
    print(f"{'route':<9}{'input':<10}{'n':>3}{'gates':>8}{header}  same")
    ratios = []  # per row: route, n, and per stage A/B
    with tempfile.TemporaryDirectory() as directory:
        for n in sizes:
            batch = max(1, 1 << max(0, 10 - n))
            for label, thetas in inputs(n):
                for route in ROUTES:
                    pair = [Tree(ds, route, n, thetas, os.path.join(directory, f"{k}.json"))
                            for k, ds in enumerate(trees)]
                    best = best_of([lambda tree=tree: tree.times(batch) for tree in pair],
                                   repeats)
                    cells = "".join(f"{t:>10.1f}" for t in best.T.ravel())
                    print(f"{route:<9}{label:<10}{n:>3}{pair[0].circuit.layout.kind.size:>8}"
                          f"{cells}  {'same' if same(*pair) else 'differs'}")
                    ratios.append((route, n, best[0] / best[1]))
        print_summary(ratios)
        print_transforms(trees, [n for n in TRANSFORM_SIZES if n <= n_max], repeats)
        print_replay(trees, sizes, repeats, directory)
    return 0


def print_summary(ratios: list) -> None:
    # per route and stage, the median A/B of each row set the run reached
    sets = [name for name, takes in SUMMARY.items() if any(takes(n) for _, n, _ in ratios)]
    print(f"\n{'median A/B':<12}{'stage':<7}" + "".join(f"{name:>8}" for name in sets))
    for route in ROUTES:
        for k, stage in enumerate(STAGES):
            medians = (np.median([r[k] for rt, n, r in ratios if rt == route and SUMMARY[name](n)])
                       for name in sets)
            print(f"{route:<12}{stage:<7}" + "".join(f"{m:>8.3f}" for m in medians))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
