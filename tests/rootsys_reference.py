"""Subdiagram matching by exhaustive search, the reference for the
package's `_match_labelings`.

Every unused slot is tried at every template position and checked against
all positions assigned before it, in order.  The package's matcher tries
only the orders along a path between two leaves of the subdiagram, with the
node off the path, if any, last or second; the labelings it finds must be
exactly these.

`is_connected` decides whether a set of simple roots spans a connected
subdiagram, by a search over the nonzero Cartan entries.
"""


def reference_match_labelings(rs, indices, template):
    """All bijections position -> index reproducing the template Cartan matrix."""
    k = len(indices)
    found = []
    assign = []
    used = [False] * k

    def extend(pos):
        if pos == k:
            found.append(tuple(assign))
            return
        for slot in range(k):
            if used[slot]:
                continue
            idx = indices[slot]
            ok = True
            for q in range(pos):
                if rs.cartan[idx][assign[q]] != template[pos][q] or \
                   rs.cartan[assign[q]][idx] != template[q][pos]:
                    ok = False
                    break
            if ok:
                used[slot] = True
                assign.append(idx)
                extend(pos + 1)
                assign.pop()
                used[slot] = False

    extend(0)
    return sorted(found)


def is_connected(rs, subset):
    """Whether the subdiagram induced on a nonempty set of indices is
    connected."""
    todo = set(subset)
    stack = [todo.pop()]
    while stack:
        i = stack.pop()
        linked = {j for j in todo if rs.cartan[i][j]}
        todo -= linked
        stack.extend(linked)
    return not todo
