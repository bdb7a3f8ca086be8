"""Dominator analysis over the CFG (iterative dataflow formulation)."""

from typing import Dict, Set

from repro.compiler.cfg import CFG


def dominators(cfg: CFG) -> Dict[int, Set[int]]:
    """Map each reachable block to the set of blocks dominating it.

    Uses the classic iterative algorithm: ``dom(entry) = {entry}``;
    ``dom(b) = {b} ∪ ⋂ dom(p) for predecessors p``, iterated to a fixed
    point.  Unreachable blocks are absent from the result.
    """
    reachable = cfg.reachable()
    if not reachable:
        return {}
    reachable_set = set(reachable)
    entry = reachable[0]
    dom: Dict[int, Set[int]] = {
        index: set(reachable) for index in reachable
    }
    dom[entry] = {entry}
    changed = True
    while changed:
        changed = False
        for index in reachable:
            if index == entry:
                continue
            preds = [
                p
                for p in cfg.blocks[index].predecessors
                if p in reachable_set
            ]
            if preds:
                new = set.intersection(*(dom[p] for p in preds))
            else:
                new = set()
            new = new | {index}
            if new != dom[index]:
                dom[index] = new
                changed = True
    return dom

