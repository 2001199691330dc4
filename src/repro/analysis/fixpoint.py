"""One worklist fixpoint solver for every whole-program pass.

Module constants, dimension summaries, execution contexts, transitive
effects and the shared-class escape closure are all monotone problems
over a fixed list of items (modules, function records, field types). A
pass supplies only its transfer function: ``step(item)`` updates the
facts the item feeds and returns the items whose inputs it changed.
:func:`solve` visits exactly those again.

The visiting order is part of the contract. Dirty items are visited in
the pass's own item order, round by round: an item dirtied ahead of the
cursor is visited in the same round, one dirtied at or behind it in the
next. A clean item's step would change nothing, so this performs the
fact-changing steps of a sweep-until-nothing-changes loop in the same
order, and facts that keep their first arrival (the why-chains) come
out the same.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence, TypeVar

Item = TypeVar("Item")

#: Safety cap on rounds; real projects converge in 3-6.
MAX_ROUNDS = 24


def solve(
    items: Sequence[Item], step: Callable[[Item], Iterable[Item]],
) -> int:
    """Run ``step`` to a fixpoint over ``items``; returns the rounds used.

    Items are matched by identity, so unhashable fact tables work; every
    item ``step`` returns must be one of ``items``. Stops after
    :data:`MAX_ROUNDS` rounds even if items are still dirty.
    """
    position = {id(item): index for index, item in enumerate(items)}
    dirty = [True] * len(items)
    for rounds in range(1, MAX_ROUNDS + 1):
        for index, item in enumerate(items):
            if dirty[index]:
                dirty[index] = False
                for dependent in step(item):
                    dirty[position[id(dependent)]] = True
        if not any(dirty):
            return rounds
    return MAX_ROUNDS
