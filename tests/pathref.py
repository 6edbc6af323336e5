"""A path oracle: the basis paths of a word enumerated as tuples.

A path is a tuple of (label, position) steps, one per atom: the label is
the target label after the atom, the position picks a basis vector of that
atom's graded piece, and paths are ordered lexicographically.  Nothing
here reads hopfmonad's path indices, offsets or dual permutations; only
the words' grade counts, to prune the enumeration.
"""

from hopfmonad.cat import GradedObj


def paths(obj: GradedObj, i: int, l: int) -> tuple:
    """All basis paths of a word at grade (i, l), in canonical order."""
    out: list[tuple] = []
    # rest[at] = the word of the atoms after position at
    rest = [GradedObj(obj.base, obj.atoms[at + 1:]) for at in range(len(obj.atoms))]

    def rec(at: int, cur_label: int, acc: tuple):
        if at == len(obj.atoms):
            if cur_label == l:
                out.append(acc)
            return
        a = obj.atoms[at]
        for j in range(obj.base.nlabels):
            d = a.dims[cur_label][j]
            # prune: no continuation can reach l
            if d == 0 or rest[at].count(j, l) == 0:
                continue
            for b in range(d):
                rec(at + 1, j, acc + ((j, b),))

    rec(0, i, ())
    return tuple(out)


def path_index(obj: GradedObj, i: int, l: int) -> dict:
    return {p: k for k, p in enumerate(paths(obj, i, l))}


def _reversed_path(p: tuple, i: int) -> tuple:
    """The path of the dual word corresponding to a path i -> ... -> l of
    the word: l -> ... -> i with the same positions in reverse, the target
    labels read off the original label sequence."""
    labels = [i] + [j for (j, _) in p]
    n = len(p)
    return tuple((labels[n - 1 - t], p[n - 1 - t][1]) for t in range(n))


def flat_position(obj: GradedObj, i: int, p: tuple) -> int:
    """The row-major multi-index of a path: each atom flattened over its
    grid cells in row-major order, a basis vector at its place in its cell."""
    flat, label = 0, i
    for a, (j, b) in zip(obj.atoms, p):
        cells = [d for row in a.dims for d in row]
        start = sum(cells[:label * obj.base.nlabels + j])
        flat = flat * sum(cells) + start + b
        label = j
    return flat


def enumerated_pairing_row(x: GradedObj, dual_first: bool, i: int = 0) -> list:
    """Pairing row of the standard dual bases at grade (i, i), built by
    enumerating the paths of x and their reversals in dual(x)."""
    word = x.dual().tensor(x) if dual_first else x.tensor(x.dual())
    row = [0] * word.count(i, i)
    idx = path_index(word, i, i)
    for j in range(x.base.nlabels):
        a, b = (j, i) if dual_first else (i, j)
        for p in paths(x, a, b):
            dp = _reversed_path(p, a)
            row[idx[dp + p if dual_first else p + dp]] = 1
    return row
