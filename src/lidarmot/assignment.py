"""Rectangular linear sum assignment: minimum-cost one-to-one matching.

A pure-Python port of the shortest augmenting path solver that
``scipy.optimize.linear_sum_assignment`` uses (D. F. Crouse, "On
implementing 2D rectangular assignment algorithms", IEEE Transactions on
Aerospace and Electronic Systems 52(4), 2016). The port keeps scipy's
order of operations, so it returns the same assignment, ties included, and
the same ``ValueError`` messages. The tracker and the CLEAR MOT matcher solve
matrices of a few rows each frame; at that size this loop costs tens of
microseconds, and the runtime needs no scipy. Both gate the solution with
:func:`solve_assignment`, so a pair beyond the gate is dropped in one place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_INF = float("inf")


def linear_sum_assignment(cost: np.ndarray) -> tuple[list[int], list[int]]:
    """Rows and columns of a minimum-cost assignment of a 2-D cost matrix,
    as lists of ints.

    ``min(n_rows, n_cols)`` pairs are returned, rows ascending. A NaN or
    -inf entry raises ``ValueError("matrix contains invalid numeric
    entries")``; a matrix with no finite-cost complete assignment (such as a
    row of +inf) raises ``ValueError("cost matrix is infeasible")``.
    """
    cost = np.asarray(cost, dtype=float)
    nr, nc = cost.shape
    if nr == 0 or nc == 0:
        return [], []
    # NaN and -inf are the entries not greater than -inf.
    if not (cost > -_INF).all():
        raise ValueError("matrix contains invalid numeric entries")
    # A tall matrix is solved transposed: every row must be assigned.
    transpose = nc < nr
    c = (cost.T if transpose else cost).tolist()
    if transpose:
        nr, nc = nc, nr

    u = [0.0] * nr
    v = [0.0] * nc
    path = [-1] * nc
    col4row = [-1] * nr
    row4col = [-1] * nc
    for cur_row in range(nr):
        # Shortest augmenting path from cur_row (Crouse's Algorithm 1).
        # Filling ``remaining`` in reverse makes a constant matrix solve to
        # the identity.
        remaining = list(range(nc - 1, -1, -1))
        num_remaining = nc
        sr = [False] * nr
        sc = [False] * nc
        shortest = [_INF] * nc
        min_val = 0.0
        i = cur_row
        sink = -1
        while sink == -1:
            index = -1
            lowest = _INF
            sr[i] = True
            ci = c[i]
            ui = u[i]
            for it in range(num_remaining):
                j = remaining[it]
                r = min_val + ci[j] - ui - v[j]
                if r < shortest[j]:
                    path[j] = i
                    shortest[j] = r
                # On a tie, prefer a column that ends the path.
                sj = shortest[j]
                if sj < lowest or (sj == lowest and row4col[j] == -1):
                    lowest = sj
                    index = it
            min_val = lowest
            if min_val == _INF:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            sc[j] = True
            num_remaining -= 1
            remaining[index] = remaining[num_remaining]

        # Update the dual variables.
        u[cur_row] += min_val
        for i in range(nr):
            if sr[i] and i != cur_row:
                u[i] += min_val - shortest[col4row[i]]
        for j in range(nc):
            if sc[j]:
                v[j] -= min_val - shortest[j]

        # Augment the previous solution along the path.
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break

    if transpose:
        cols = sorted(range(nr), key=col4row.__getitem__)
        return [col4row[k] for k in cols], cols
    return list(range(nr)), col4row


@dataclass(frozen=True, slots=True)
class AssociationResult:
    """Gated one-to-one assignment of a cost matrix's rows (the tracker's
    tracks) to its columns (detections): matches as (row, column, cost);
    every other row and column listed unmatched on its own side."""

    matches: list[tuple[int, int, float]]
    unmatched_tracks: list[int]
    unmatched_detections: list[int]


def solve_assignment(cost: np.ndarray, gate_distance: float) -> AssociationResult:
    """Minimum-total-cost one-to-one assignment (rectangular supported); any
    assigned pair beyond the gate is demoted to unmatched on both sides.
    Matches come in ascending row order."""
    cost = np.asarray(cost, dtype=float)
    n_tracks, n_dets = cost.shape
    if n_tracks == 0 or n_dets == 0:
        return AssociationResult([], list(range(n_tracks)), list(range(n_dets)))
    rows, cols = linear_sum_assignment(cost)
    matches = [
        (r, c, dist)
        for r, c, dist in zip(rows, cols, cost[rows, cols].tolist())
        if dist <= gate_distance
    ]
    matched_t = {r for r, _, _ in matches}
    matched_d = {c for _, c, _ in matches}
    return AssociationResult(
        matches=matches,
        unmatched_tracks=[i for i in range(n_tracks) if i not in matched_t],
        unmatched_detections=[j for j in range(n_dets) if j not in matched_d],
    )
