"""Speed probe: time a fixed reference computation on one CPU, over and over.

The host this benchmark runs on changes speed by up to 2x within
seconds (load from outside the VM), and a process's own CPU time slows
with it. Started on the one CPU a workload is pinned to, the probe
times the reference below every ``PERIOD_S``; dividing each timed call
by the reference times taken around it gives its time in *reference
units*, which hold still while the machine's speed moves. The reference
is plain Python and touches nothing of the program under test, so no
change to the program moves it.

The reference has two parts. The compute part (objects, a dict, float
arithmetic, a sort) stays in the core's caches; interpreter-bound
calls slow with it. With ``--memory`` each sample also walks a random
cycle through a heap of ``MEMORY_CELLS`` objects, for a workload whose
own heap is larger than the caches: the host's load slows memory
accesses less than it slows the core.

Prints ``ready`` once the first sample is taken, keeps sampling until
its stdin closes, then prints every sample as ``<monotonic s> <ms>``
and exits. Run::

    python benchmarks/suite/probe.py [--memory]
"""

from __future__ import annotations

import argparse
import random
import select
import sys
import time

#: Nodes the compute part builds: about 1.5 ms of CPU on the baseline
#: machine.
REFERENCE_NODES = 600

#: Objects in the memory part's heap (about 60 MB), and the steps one
#: sample walks through it (about as long as the compute part).
MEMORY_CELLS = 400_000
MEMORY_STEPS = 2_000

#: Seconds between samples: the probe takes 4-7 % of its CPU.
PERIOD_S = 0.05


class _Node:
    __slots__ = ("key", "weight", "children")

    def __init__(self, key: str, weight: float) -> None:
        self.key = key
        self.weight = weight
        self.children: list[_Node] = []


def reference(n_nodes: int = REFERENCE_NODES) -> float:
    """The compute part: build a random tree, index it by key, walk it
    with float arithmetic, and sort it."""
    rng = random.Random(1)
    nodes = [_Node(f"n{i}", rng.random()) for i in range(n_nodes)]
    for i, node in enumerate(nodes[1:], 1):
        nodes[rng.randrange(i)].children.append(node)
    index = {node.key: node for node in nodes}
    total = 0.0
    for node in nodes:
        total += sum(child.weight * 1.0001 for child in node.children) ** 0.5
        total += index[node.key].weight
    ranked = sorted(nodes, key=lambda node: node.weight)
    return total + ranked[0].weight


def memory_heap(n_cells: int = MEMORY_CELLS) -> list[list]:
    """Cells ``[next index, value, label]`` linked in one random cycle,
    so a walk visits them in an order no cache can predict."""
    order = list(range(n_cells))
    random.Random(2).shuffle(order)
    successor = [0] * n_cells
    for here, there in zip(order, order[1:] + order[:1]):
        successor[here] = there
    return [[successor[i], float(i), str(i)] for i in range(n_cells)]


def walk(heap: list[list], steps: int = MEMORY_STEPS) -> float:
    """The memory part: follow the cycle for ``steps`` cells."""
    index, total = 0, 0.0
    for _ in range(steps):
        cell = heap[index]
        total += cell[1]
        index = cell[0]
    return total


def sample(heap: list[list] | None) -> tuple[float, float]:
    """(monotonic time at the end, CPU ms) of one reference run."""
    start_s = time.thread_time()
    reference()
    if heap is not None:
        walk(heap)
    return time.perf_counter(), (time.thread_time() - start_s) * 1e3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--memory", action="store_true",
                        help="add the memory walk to every sample")
    heap = memory_heap() if parser.parse_args(argv).memory else None
    samples = [sample(heap)]
    print("ready", flush=True)
    while True:
        readable, _, _ = select.select([sys.stdin], [], [], PERIOD_S)
        if readable and not sys.stdin.readline():
            break
        samples.append(sample(heap))
    samples.append(sample(heap))
    sys.stdout.write("".join(f"{t!r} {ms!r}\n" for t, ms in samples))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
