"""Test-only reference implementations shared by the test modules."""


def reference_rref(rows, p):
    """Gauss-Jordan elimination mod p, independent of ``oracle._insert``:
    at each pivot every other row is cleared, and an entry counts as
    nonzero by ``% p``.  Returns (rows, rank); the first ``rank`` rows are
    the reduced row echelon form of the span, with entries in range(p).
    A row that is 0 mod p from the start is left as given."""
    mat = [list(row) for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    rank = 0
    for col in range(ncols):
        pivot = next((k for k in range(rank, nrows) if mat[k][col] % p), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], -1, p)
        mat[rank] = [x * inv % p for x in mat[rank]]
        for k in range(nrows):
            if k != rank and mat[k][col] % p:
                f = mat[k][col]
                mat[k] = [(a - f * b) % p for a, b in zip(mat[k], mat[rank])]
        rank += 1
    return tuple(tuple(row) for row in mat), rank
