"""Test-only oracles that never call the library's transform kernels."""


def multiset_oracle(exponents, min_degree, target):
    """Count multisets of graded objects with total degree == target.

    There are e_m distinct objects of degree m.  The count is obtained by
    direct recursive enumeration over (object, multiplicity) choices, with
    no series arithmetic at all, so it is an independent cross-check of
    `euler_expand`.
    """
    if target < 0:
        raise ValueError("target degree must be >= 0")
    objects = []
    for m in sorted(exponents, reverse=True):
        if min_degree <= m <= target:
            objects.extend([m] * max(exponents[m], 0))

    def count(idx, remaining):
        if remaining == 0:
            return 1
        if idx == len(objects):
            return 0
        degree = objects[idx]
        total = 0
        for copies in range(remaining // degree + 1):
            total += count(idx + 1, remaining - copies * degree)
        return total

    return count(0, target)

