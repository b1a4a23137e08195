"""Number theory and row reduction mod q on ints alone: a --p or a tuple count loads no fractions."""

# The first 13 primes as Miller-Rabin bases decide primality below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises ValueError for n >= PRIMALITY_BOUND,
    where these bases prove nothing."""
    if n >= PRIMALITY_BOUND:
        raise ValueError(f"primality is only decided below {PRIMALITY_BOUND}, got {n}")
    if n < 2 or any(n % a == 0 for a in _MR_BASES):
        return n in _MR_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 1, ascending."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def p_part(n: int, p: int) -> int:
    """The largest power of p dividing n >= 1."""
    part = 1
    while n % p == 0:
        n //= p
        part *= p
    return part


def euler_phi(m: int) -> int:
    if m < 1:
        raise ValueError("m must be >= 1")
    out = m
    for q in prime_factors(m):
        out -= out // q
    return out


def capped_power(base: int, k: int, bound: int) -> int:
    """base^k, or the first partial power above bound, built one factor at a
    time, so that a level p^k is bounded before a huge k builds it."""
    if base < 2:
        return base ** min(k, 1)
    out = 1
    for _ in range(k):
        out *= base
        if out > bound:
            break
    return out


def rref_mod(rows, q: int):
    """Reduced row echelon form over F_q (q prime) of an integer matrix,
    reducing entries mod q as they are copied; returns the nonzero reduced
    rows and the pivot columns."""
    rows = [[v % q for v in r] for r in rows]
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if rows[r][col]:
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        rp = rows[rank]
        inv = pow(rp[col], -1, q)
        rp[col:] = [v * inv % q for v in rp[col:]]
        for r in range(nrows):
            rr = rows[r]
            f = rr[col]
            if r != rank and f:
                for c2 in range(col, ncols):
                    rr[c2] = (rr[c2] - f * rp[c2]) % q
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    return rows[:rank], pivots
