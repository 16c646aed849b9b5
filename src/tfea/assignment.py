"""Exact lex-min assignment over the cells that can be optimal.

Both matching levels ask for the injective partial pairing of least
total cost, where an unpaired pred or gold costs 0, and among those for
the smallest pair tuple. Only cells of cost 0 or less are passed in: a
positive cell is never optimal, as leaving both its sides unpaired costs
0. A pairing is optimal exactly when its part in each connected
component of the cells is, so each component of two or more cells gets
its own Hungarian solve for its optimum and duals (the sparse assignment
of Jonker and Volgenant, Computing 38, 1987, in its simplest form).
Ties are broken by one tight-cell walk over all components, in pred
order, that stops at the global optimum. Walks per component would
differ: each stops before a zero-cost cell that the global walk takes
while a later pred, in another component, still lowers the cost. With
costs ``[[+, +], [0, +], [+, -]]`` the lex-min is ``((1, 0), (2, 1))``,
yet the two components alone give ``()`` and ``((2, 1),)``.
"""

from __future__ import annotations

import math
from typing import Mapping


def _min_cost_assignment(cost: list[list[int | None]]) -> tuple[list[int], list[int], list[int]]:
    """Hungarian method on a square integer matrix; ``None`` cells are forbidden.

    Kuhn's method in its O(n³) shortest-augmenting-path form with row
    and column potentials (Jonker–Volgenant; Crouse 2016, doi:10.1109/
    TAES.2016.140952). Returns ``row_of`` (the row assigned to each
    column) and the optimal duals ``u`` and ``v``, which satisfy
    ``u[r] + v[c] <= cost[r][c]`` on every allowed cell with equality on
    the assignment. A perfect assignment over allowed cells must exist.
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
                w = cost[r][c]
                if w is not None and w - u[r] - v[c] < min_slack[c]:
                    min_slack[c] = w - u[r] - v[c]
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
    cost of at most 0. With no competing cell and no zero cost, every
    cell is taken. Else each component of ``n`` preds and ``m`` golds is
    padded to an (n+m)-square block: a pred row also holds its own dummy
    column, and a gold's dummy row holds the gold's column and every
    dummy column, all at cost 0. The walk takes the preds in order: stop
    once the pairs taken reach the optimum (the shortest tuple is the
    smallest), else take the smallest gold that an alternating cycle of
    tight cells can reroute the assignment onto, else leave it unpaired.
    """
    golds_of: dict[int, list[int]] = {}
    preds_of: dict[int, list[int]] = {}
    for p, g in cost:
        golds_of.setdefault(p, []).append(g)
        preds_of.setdefault(g, []).append(p)
    if len(golds_of) == len(preds_of) == len(cost) and 0 not in cost.values():
        return tuple(cost)
    row_at: dict[int, int] = {}  # pred -> its row
    gold_at: list[int | None] = []  # column -> its gold, None for a dummy column
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
        base, n = len(row_of), len(preds)
        block = [
            [cost.get((p, g)) for g in golds] + [0 if j == k else None for j in range(n)]
            for k, p in enumerate(preds)
        ] + [[0 if j == k else None for j in range(len(golds))] + [0] * n for k in range(len(golds))]
        # A single cell is its own optimum: take it, with duals that make it tight.
        rows, u, v = ([0, 1], [block[0][0], 0], [0, 0]) if len(block) == 2 else _min_cost_assignment(block)
        optimum += sum(block[r][c] for c, r in enumerate(rows))
        row_of += [base + r for r in rows]
        tight += [
            [base + c for c, w in enumerate(row) if w is not None and u[r] + v[c] == w] for r, row in enumerate(block)
        ]
        gold_at += golds + [None] * n
        row_at.update((p, base + k) for k, p in enumerate(preds))
    col_of = sorted(range(len(row_of)), key=row_of.__getitem__)  # row -> its column
    fixed = [False] * len(row_of)  # columns taken by decided preds
    chosen: list[tuple[int, int]] = []
    reached = 0
    for p in golds_of:
        if reached == optimum:
            break
        row = row_at[p]
        for c in tight[row]:
            g = gold_at[c]
            if g is None or fixed[c]:
                continue
            if c == col_of[row] or _reroute(row, c, tight, row_of, col_of, fixed):
                chosen.append((p, g))
                reached += cost[p, g]
                break
        fixed[col_of[row]] = True
    return tuple(chosen)


def _reroute(
    pred: int, gold: int, tight: list[list[int]], row_of: list[int], col_of: list[int], fixed: list[bool]
) -> bool:
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
            if fixed[nxt] or nxt in parent:
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
