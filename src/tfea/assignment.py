"""Exact lex-min assignment over the cells that can be optimal.

Both matching levels ask for the injective partial pairing of least
total cost, where an unpaired pred or gold costs 0, and among those for
the smallest pair tuple. Only cells of cost 0 or less are passed in: a
positive cell is never optimal, as leaving both its sides unpaired costs
0. A pairing is optimal exactly when its part in each connected
component of the cells is. A component of n preds and m golds is one
k-square Hungarian solve, k = max(n, m), with absent cells and padding
at cost 0 (the rectangular assignment problem; Bijsterbosch and
Volgenant, Ann. Oper. Res. 181, 2010). Ties are broken by one tight-cell
walk over all components, in pred order, that stops at the global
optimum. Per-component walks would differ: each stops before a
zero-cost cell that the global walk takes while a later pred, in
another component, still lowers the cost. With costs ``[[+, +], [0, +],
[+, -]]`` the lex-min is ``((1, 0), (2, 1))``; the components alone
give ``()`` and ``((2, 1),)``.
"""

from __future__ import annotations

import math
from typing import Mapping


def _min_cost_assignment(cost: list[list[int]]) -> tuple[list[int], list[int], list[int]]:
    """Hungarian method on a square integer matrix.

    Kuhn's method in its O(n³) shortest-augmenting-path form with row
    and column potentials (Jonker–Volgenant; Crouse 2016, doi:10.1109/
    TAES.2016.140952). Returns ``row_of`` (the row assigned to each
    column) and optimal duals ``u`` and ``v``: ``u[r] + v[c] <=
    cost[r][c]`` on every cell, with equality on the assignment.
    """
    n = len(cost)
    u = [0] * n
    v = [0] * (n + 1)
    row_of = [-1] * (n + 1)  # column n is the sentinel the new row starts from
    for row in range(n):
        row_of[n] = row
        col = n
        min_slack = [math.inf] * (n + 1)
        way = [n] * (n + 1)
        used = [False] * (n + 1)
        while row_of[col] != -1:
            used[col] = True
            r = row_of[col]
            delta, next_col = math.inf, n
            for c in range(n):
                if used[c]:
                    continue
                slack = cost[r][c] - u[r] - v[c]
                if slack < min_slack[c]:
                    min_slack[c] = slack
                    way[c] = col
                if min_slack[c] < delta:
                    delta, next_col = min_slack[c], c
            for c in range(n + 1):
                if used[c]:
                    u[row_of[c]] += delta
                    v[c] -= delta
                else:
                    min_slack[c] -= delta
            col = next_col
        while col != n:
            row_of[col] = row_of[way[col]]
            col = way[col]
    return row_of[:n], u, v[:n]


def lexmin_assignment(cost: Mapping[tuple[int, int], int]) -> tuple[tuple[int, int], ...]:
    """The pair tuple minimizing ``(Σ cost, pairs)`` over the given cells.

    ``cost`` maps each allowed ``(pred, gold)`` cell, in pred order, to a
    cost of at most 0. With no competing cell and no zero cost, every cell
    is taken. Else each component is a k-square block, preds and golds
    ascending; a row on a cell that is not a pair is unpaired. The walk
    takes the preds in order: stop once the pairs taken reach the optimum
    (the shortest tuple is the smallest), else take the smallest gold that
    an alternating cycle of tight cells can reroute the assignment onto,
    else leave the pred unpaired. Its row then keeps only the gold it took,
    or only its tight columns that are not pairs: an unpaired pred may sit
    on a gold's absent cell, and a later cycle can still move it off.
    """
    if 0 not in cost.values():
        preds_seen, golds_seen = set(), set()
        for p, g in cost:
            if p in preds_seen or g in golds_seen:
                break
            preds_seen.add(p)
            golds_seen.add(g)
        else:
            return tuple(cost)
    golds_of: dict[int, list[int]] = {}
    preds_of: dict[int, list[int]] = {}
    for p, g in cost:
        golds_of.setdefault(p, []).append(g)
        preds_of.setdefault(g, []).append(p)
    row_at: dict[int, int] = {}  # pred -> its row
    gold_at: list[int | None] = []  # column -> its gold, None for a padding column
    row_of: list[int] = []  # column -> the row assigned to it
    tight: list[list[int]] = []  # row -> its tight columns, ascending
    optimum = 0
    for start in golds_of:
        if start in row_at:
            continue
        preds, golds = [start], set()
        row_at[start] = -1  # seen; the row is set once the component is laid out
        for p in preds:  # breadth-first over the component; ``preds`` grows
            for g in golds_of[p]:
                if g not in golds:
                    golds.add(g)
                    for q in preds_of[g]:
                        if q not in row_at:
                            row_at[q] = -1
                            preds.append(q)
        preds, golds = sorted(preds), sorted(golds)
        base, k = len(row_of), max(len(preds), len(golds))
        pad = [0] * (k - len(golds))
        block = [[cost.get((p, g), 0) for g in golds] + pad for p in preds] + [[0] * k for _ in range(k - len(preds))]
        rows, u, v = _min_cost_assignment(block)
        optimum += sum(block[r][c] for c, r in enumerate(rows))
        row_of += [base + r for r in rows]
        tight += [[base + c for c, w in enumerate(row) if u[r] + v[c] == w] for r, row in enumerate(block)]
        gold_at += golds + [None] * len(pad)
        row_at.update((p, base + r) for r, p in enumerate(preds))
    col_of = sorted(range(len(row_of)), key=row_of.__getitem__)  # row -> its column
    chosen: list[tuple[int, int]] = []
    reached = 0
    for p in golds_of:
        if reached == optimum:
            break
        row = row_at[p]
        for c in tight[row]:
            if (p, gold_at[c]) in cost and (c == col_of[row] or _reroute(row, c, tight, row_of, col_of)):
                chosen.append((p, gold_at[c]))
                reached += cost[p, gold_at[c]]
                tight[row] = [c]
                break
        else:
            tight[row] = [c for c in tight[row] if (p, gold_at[c]) not in cost]
    return tuple(chosen)


def _reroute(pred: int, gold: int, tight: list[list[int]], row_of: list[int], col_of: list[int]) -> bool:
    """Move row ``pred`` onto column ``gold`` along an alternating cycle of tight cells.

    Searches from the row now holding ``gold`` for a path that ends at
    the column ``pred`` gives up; on success every row on it shifts one
    column along, which keeps the assignment optimal.
    """
    target = col_of[pred]
    parent = {gold: gold}
    frontier = [gold]
    for col in frontier:
        for nxt in tight[row_of[col]]:
            if nxt in parent:
                continue
            parent[nxt] = col
            if nxt == target:
                while nxt != gold:
                    prev = parent[nxt]
                    row_of[nxt] = row_of[prev]
                    col_of[row_of[nxt]] = nxt
                    nxt = prev
                row_of[gold] = pred
                col_of[pred] = gold
                return True
            frontier.append(nxt)
    return False
