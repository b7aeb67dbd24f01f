"""Shared test utilities, kept independent of the package internals they check."""

from itertools import accumulate, product
from operator import add, mul

from intfunc import Axis, I_PLUS, J_PLUS, StepKind

# Full hand-checkable run of the quarter wave at seed 100, worked out with
# pencil and paper from the update rules: after each step, the position, the
# X and XX registers, and the combined regulator difference R = RX - RY.
# Note the final pair (15, 9): the published table's first row prints j = 8,
# but its own bounds 1.4 and 1.777778 equal (i-1)/(j+1) and (i+1)/j only for
# j = 9, which is what the algorithm produces.
HAND_TRACE_SEED_100 = (
    # k, step, i, j, X, XX, R
    (1, "i+", 1, 0, 99, -1, 99),
    (2, "j+", 1, 1, 99, -2, -1),
    (3, "i+", 2, 1, 97, -2, 96),
    (4, "j+", 2, 2, 97, -3, -4),
    (5, "i+", 3, 2, 94, -3, 90),
    (6, "j+", 3, 3, 94, -4, -10),
    (7, "i+", 4, 3, 90, -4, 80),
    (8, "j+", 4, 4, 90, -5, -20),
    (9, "i+", 5, 4, 85, -5, 65),
    (10, "j+", 5, 5, 85, -6, -35),
    (11, "i+", 6, 5, 79, -6, 44),
    (12, "j+", 6, 6, 79, -7, -56),
    (13, "i+", 7, 6, 72, -7, 16),
    (14, "j+", 7, 7, 72, -8, -84),
    (15, "i+", 8, 7, 64, -8, -20),
    (16, "i+", 9, 7, 56, -8, 36),
    (17, "j+", 9, 8, 56, -9, -64),
    (18, "i+", 10, 8, 47, -9, -17),
    (19, "i+", 11, 8, 38, -9, 21),
    (20, "j+", 11, 9, 38, -10, -79),
    (21, "i+", 12, 9, 28, -10, -51),
    (22, "i+", 13, 9, 18, -10, -33),
    (23, "i+", 14, 9, 8, -10, -25),
    (24, "i+", 15, 9, -2, -10, -27),
)


def quarter_wave(x0):
    """(i, j, steps) of the quarter wave at seed x0, the reference for
    pi_bounds: the {XXY, Y} machine's two live additions per axis written out
    by hand, with one combined regulator r = RX - RY, until X is not positive.
    """
    x = y = x0
    xx = xxy = -1
    r = i = j = 0
    while x > 0:
        if r > 0:
            xx += xxy
            r -= y
            j += 1
        else:
            x += xx
            r += x
            i += 1
    return i, j, i + j


def assert_lattice_path(f):
    """Neighbor invariant, checked directly on the element list."""
    assert len(f.elements) == f.length + 1
    for a, b in zip(f.elements, f.elements[1:]):
        di = b.i - a.i
        dj = b.j - a.j
        assert (abs(di), abs(dj)) in ((1, 0), (0, 1)), (tuple(a), tuple(b))


def brute_force_field(f, axis, diff_class):
    """Difference field straight from the definition, walking the elements.

    Returns (coordinate, cross difference, index identity value) triples; the
    last entry must equal the cross difference for the identity
    d = k' - k - D to hold.
    """
    elements = f.elements
    chars = []
    for k in range(1, len(elements)):
        prev, cur = elements[k - 1], elements[k]
        if axis is Axis.I and cur.i != prev.i:
            chars.append((cur.i, cur.j, k))
        elif axis is Axis.J and cur.j != prev.j:
            chars.append((cur.j, cur.i, k))
    by_coord = {c: (x, k) for c, x, k in chars}
    out = []
    for c, x, k in chars:
        partner = by_coord.get(c + diff_class)
        if partner is not None:
            x2, k2 = partner
            out.append((c, x2 - x, k2 - k - diff_class))
    return out


def random_monotone_steps(rng, max_len=60):
    length = rng.randint(1, max_len)
    bias = rng.random()
    return tuple(I_PLUS if rng.random() < bias else J_PLUS for _ in range(length))


def random_steps(rng, max_len=60):
    kinds = [StepKind(axis, sign) for axis in (Axis.I, Axis.J) for sign in (1, -1)]
    return tuple(rng.choice(kinds) for _ in range(rng.randint(0, max_len)))


def iterated_sums(bank, codes, harmonized=False):
    """Each register's value after every step of ``codes``, run from the
    name -> value mapping ``bank``, and the codes the step rule picks from
    those values, as (columns, picked codes).

    Registers are discrete integrals over the path: a work register V gains
    V+"X" on every i step and V+"Y" on every j step, RX gains X on every i
    step and RY gains Y on every j step (their magnitudes when
    ``harmonized``).  Higher ranks run first within a step, so each source
    is counted after its own update, and each column is an accumulate of
    masked columns one rank up.  A step is a j step exactly when RX - RY > 0
    before it; when ``harmonized`` it moves backwards exactly when its
    axis' rate (X or Y) is negative after it.  The picked codes equal
    ``codes`` only if ``codes`` is the run of that bank.
    """
    on_j = [code & 1 for code in codes]
    on_i = [1 - flag for flag in on_j]
    columns = {}
    for rank in (3, 2, 1):
        for name in map("".join, product("XY", repeat=rank)):
            if rank == 3:
                gains = [0] * len(codes)
            else:
                gains = map(add, map(mul, on_i, columns[name + "X"]),
                            map(mul, on_j, columns[name + "Y"]))
            columns[name] = list(accumulate(gains, initial=bank[name]))[1:]
    rate = abs if harmonized else int
    for regulator, rate_name, mask in (("RX", "X", on_i), ("RY", "Y", on_j)):
        gains = map(mul, mask, map(rate, columns[rate_name]))
        columns[regulator] = list(accumulate(gains, initial=bank[regulator]))[1:]
    before = zip([bank["RX"], *columns["RX"]], [bank["RY"], *columns["RY"]])
    picked = [int(rx - ry > 0) for rx, ry in before][:len(codes)]
    if harmonized:
        rates = [columns["Y" if axis else "X"][t] for t, axis in enumerate(picked)]
        picked = [axis + 2 * (value < 0) for axis, value in zip(picked, rates)]
    return columns, bytes(picked)


def machin_pi(places=80):
    """(low, high): integers with low < pi * 10**places < high, from
    Machin's formula pi/4 = 4 arctan(1/5) - arctan(1/239) in integer
    arithmetic.  Ten guard digits absorb the floor of every term."""
    guard = 10**10
    scale = 10**places * guard

    def arctan_inverse(x):
        # arctan(1/x) = sum over k of (-1)**k / ((2k + 1) x**(2k + 1)).
        total, power, k = 0, scale // x, 0
        while power:
            total += (-1) ** k * (power // (2 * k + 1))
            power //= x * x
            k += 1
        return total

    pi = 4 * (4 * arctan_inverse(5) - arctan_inverse(239))
    return (pi - guard) // guard, (pi + guard) // guard + 1
