"""Splitting what the congruence scan leaves: Brent-cycle rho, Pollard
p-1 and ECM, and the runner that applies them in turn to a composite
piece of Phi_d(2) (_factor_with_rho).

factoring.factor_mersenne imports this module only when a piece survives
its scan, so a process that never splits a number never loads it.

All routines are deterministic: rho seeds follow the fixed schedule
c = 1, 2, 3, ..., ECM curves sigma = 6, 7, 8, ..., and there is no
wall-clock dependence.  ECM curves run on every usable core, in helper
processes that live for one ECM stage (run as "python -m" on this
module, so a helper loads only it and arith), and their results are
taken in sigma order, so no result or work counter depends on how many
cores there are.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import sys
from typing import TYPE_CHECKING, Iterator

from .arith import _prime_like, _ring, _sieve

if TYPE_CHECKING:
    from collections import Counter

    from .factoring import FactorStats


def _rho_brent(
    x: int, c: int, stats: FactorStats, ceiling: int, ring: int | None = None
) -> int | None:
    """One Brent-cycle rho attempt on odd composite x with y <- y^2 + c.

    Returns a nontrivial divisor, or None when stats.rho_iterations would
    pass ceiling or the cycle closes without exposing a factor.  gcds are
    batched every 128 steps.  Fully deterministic in (x, c, remaining
    budget).

    With ring = d (x divides 2^d - 1; see arith._ring), y and q live in
    Z/(2^d - 1): each product is reduced by two folds
    t <- (t & m) + (t >> d) instead of % x.  Both stay congruent modulo x,
    so every gcd, and hence the divisor and the iteration count, is the
    same as without the ring.
    """
    stats.rho_calls += 1
    batch = 128
    m = (1 << ring) - 1 if ring is not None else 0
    y, r, q = 2, 1, 1
    g, xs, ys = 1, 0, 0
    while g == 1:
        xs = y
        if stats.rho_iterations + r > ceiling:
            return None
        stats.rho_iterations += r
        if ring is None:
            for _ in range(r):
                y = (y * y + c) % x
        else:
            for _ in range(r):
                y = y * y + c
                y = (y & m) + (y >> ring)
                y = (y & m) + (y >> ring)
        k = 0
        while k < r and g == 1:
            ys = y
            steps = min(batch, r - k)
            if stats.rho_iterations + steps > ceiling:
                return None
            stats.rho_iterations += steps
            if ring is None:
                for _ in range(steps):
                    y = (y * y + c) % x
                    q = q * (xs - y) % x
            else:
                for _ in range(steps):
                    y = y * y + c
                    y = (y & m) + (y >> ring)
                    y = (y & m) + (y >> ring)
                    q = q * (xs - y)
                    q = (q & m) + (q >> ring)
                    q = (q & m) + (q >> ring)
            g = math.gcd(q, x)
            k += steps
        r <<= 1
    if g == x:
        # The batch overshot a factor; replay it one gcd at a time.
        g = 1
        for _ in range(batch + 1):
            ys = (ys * ys + c) % x
            g = math.gcd((xs - ys) % x, x)
            if g > 1:
                break
    if 1 < g < x:
        return g
    return None


# Pollard p-1 for the pieces of Phi_d(2), whose primes q all have d | q - 1.
# Stage 1 raises 3 to 2d times each prime power up to _PM1_B1 (base 2 has
# order d modulo q); stage 2 walks ECM's baby-step/giant-step plan (_pm1).
_PM1_B1 = 1 << 16


def _segments(lo: int, hi: int) -> Iterator[list[int]]:
    """The primes in (lo, hi], in sieve segments 2^14 wide."""
    for a in range(lo, hi, 1 << 14):
        yield _sieve(a, min(a + (1 << 14), hi))


def _prime_powers(b1: int) -> Iterator[int]:
    """The largest power of each prime p <= b1 that is <= b1."""
    for primes in _segments(1, b1):
        for p in primes:
            q = p
            while q * p <= b1:
                q *= p
            yield q


@functools.cache
def _exponent(b1: int) -> int:
    """The stage-1 exponent of p-1 and ECM: the product of _prime_powers(b1),
    multiplied as a balanced tree, so most products are of equal-sized
    factors (a running product makes each one a long times a short)."""
    terms = list(_prime_powers(b1)) or [1]
    while len(terms) > 1:
        terms = [math.prod(terms[i : i + 2]) for i in range(0, len(terms), 2)]
    return terms[0]


def _prime_count(x: int) -> int:
    """pi(x), the number of primes <= x, with no list of them: Lucy_Hedgehog's
    sieve over the values x // k, in about x^(3/4) steps."""
    if x < 2:
        return 0
    r = math.isqrt(x)
    small = [v - 1 for v in range(r + 1)]  # small[v]: the count for v
    large = [0] + [x // k - 1 for k in range(1, r + 1)]  # large[k]: for x // k
    for p in range(2, r + 1):
        if small[p] == small[p - 1]:
            continue  # p is composite
        below, p2 = small[p - 1], p * p
        for k in range(1, min(r, x // p2) + 1):
            kp = k * p
            large[k] -= (large[kp] if kp <= r else small[x // kp]) - below
        for v in range(r, p2 - 1, -1):
            small[v] -= small[v // p] - below
    return large[1]


@functools.cache
def _pm1_cost(bound: int) -> int:
    """C, the work units a _pm1 run with B2 = bound charges: the stage-1
    exponent's bits plus pi(bound) - pi(_PM1_B1), 236,840 at the default
    bound.  Stage 2 walks _ecm_plan(bound) instead, but C still counts those
    primes, so the gate stays put (ROADMAP item 3 recalibrates it).  They
    are counted, not sieved, so the gate costs no sieve to B2."""
    return _exponent(_PM1_B1).bit_length() + max(0, _prime_count(bound) - _prime_count(_PM1_B1))


def _pm1(v: int, d: int, bound: int) -> int | None:
    """Pollard p-1 with B2 = bound on a composite piece v of Phi_d(2): a
    proper divisor of v, or None.  The intrinsic prime is gone from v and
    d >= 3, so v is coprime to 3 and stage 1's a is invertible.  Stage 2
    walks _ecm_plan(bound) in V_k = a^k + a^-k (Montgomery 1987): a prime
    p | v divides V_mD - V_j exactly when a^(mD - j) or a^(mD + j) is 1
    modulo p.  A gcd of v is retraced one prime power (stage 1) or term
    (_pairs) at a time."""
    a = pow(3, 2 * d * _exponent(_PM1_B1), v)
    g = math.gcd(a - 1, v)
    if g == v:
        b = pow(3, 2 * d, v)
        g = next((h for q in _prime_powers(_PM1_B1) if (h := math.gcd((b := pow(b, q, v)) - 1, v)) > 1))
    if g > 1:
        return g if g < v else None
    inverse, plan = pow(a, -1, v), _ecm_plan(bound)
    step = (pow(a, _ECM_D, v) + pow(inverse, _ECM_D, v)) % v  # V_D
    points = _steps(plan, (a + inverse) % v, step, lambda x, y, z: (x * y - z) % v, lambda x: (x * x - 2) % v)
    return _pairs(v, points, plan[1])


# ECM (Lenstra 1987) on Montgomery curves B y^2 = x^3 + A x^2 + x in x-only
# projective coordinates (X : Z), with Suyama's parametrization (Montgomery
# 1987).  Stage 1 multiplies by _exponent(_ECM_B1), B1 at the GMP-ECM level
# for 20-digit factors; stage 2 covers each prime q in (B1, B2] as
# q = m*D +- j, with giant steps m*D*Q and baby steps j*Q, 0 < j < D/2.
_ECM_B1 = 11_000
_ECM_D = 2310
_ECM_BABIES = tuple(j for j in range(1, _ECM_D // 2, 2) if math.gcd(j, _ECM_D) == 1)


def _xdbl(p: tuple[int, int], a24: int, v: int) -> tuple[int, int]:
    """2p, where a24 = (A + 2)/4."""
    x, z = p
    s, t = (x + z) ** 2 % v, (x - z) ** 2 % v
    u = s - t
    return s * t % v, u * (t + a24 * u) % v


def _xadd(p: tuple[int, int], q: tuple[int, int], diff: tuple[int, int], v: int) -> tuple[int, int]:
    """p + q, given diff = p - q."""
    s = (p[0] - p[1]) * (q[0] + q[1])
    t = (p[0] + p[1]) * (q[0] - q[1])
    return diff[1] * (s + t) ** 2 % v, diff[0] * (s - t) ** 2 % v


def _ladder(p: tuple[int, int], k: int, a24: int, v: int) -> tuple[int, int]:
    """k * p, k >= 1, by Montgomery's ladder: r1 - r0 = p throughout.

    Stage 1 spends most of a curve here, so the step inlines _xadd and
    _xdbl (13% less time than calling them on M_137, CPython 3.11); on a
    1 bit it swaps r0 and r1 around the step, so r0 is always doubled."""
    xp, zp = p
    (x0, z0), (x1, z1) = p, _xdbl(p, a24, v)
    for bit in bin(k)[3:]:
        if bit == "1":
            x0, z0, x1, z1 = x1, z1, x0, z0
        s = (x0 - z0) * (x1 + z1)
        t = (x0 + z0) * (x1 - z1)
        x1, z1 = zp * (s + t) ** 2 % v, xp * (s - t) ** 2 % v
        s, t = (x0 + z0) ** 2 % v, (x0 - z0) ** 2 % v
        u = s - t
        x0, z0 = s * t % v, u * (t + a24 * u) % v
        if bit == "1":
            x0, z0, x1, z1 = x1, z1, x0, z0
    return x0, z0


@functools.cache
def _ecm_plan(bound: int) -> tuple[int, list[bytes]]:
    """The stage 2 of p-1 and ECM up to B2 = bound: the first giant step lo,
    and for each m = lo, lo + 1, ... the bytes of the indices into
    _ECM_BABIES of the j with m*D + j or m*D - j a prime in (_ECM_B1, bound],
    which are sieved a segment at a time, never held as one list."""
    index = {j: i for i, j in enumerate(_ECM_BABIES)}
    half, width = _ECM_D // 2, len(_ECM_BABIES)
    lo, hi = (_ECM_B1 + half) // _ECM_D, (bound + half) // _ECM_D
    flags = bytearray(width * max(0, hi - lo + 1))
    for primes in _segments(_ECM_B1, bound):
        for q in primes:
            m = (q + half) // _ECM_D
            flags[(m - lo) * width + index[abs(q - m * _ECM_D)]] = 1
    starts = range(0, len(flags), width)
    return lo, [bytes(itertools.compress(range(width), flags[i : i + width])) for i in starts]


def _steps(plan: tuple[int, list[bytes]], q, step, add, double) -> list:
    """The baby steps j*q for j in _ECM_BABIES, then a giant step m*step,
    step = D*q, per row of plan = (lo, rows) from m = lo on; add(p, r, p - r)
    is p + r and double(p) is 2p."""
    lo, rows = plan
    q2, end = double(q), lo - 1 + len(rows)
    odd = [q, add(q2, q, q)]  # j*q for odd j
    while len(odd) < _ECM_D // 4:
        odd.append(add(odd[-1], q2, odd[-2]))
    giants = [step, double(step)]
    while len(giants) < end:
        giants.append(add(giants[-1], step, giants[-2]))
    return [odd[j // 2] for j in _ECM_BABIES] + giants[lo - 1 : end]


def _pairs(v: int, points: list[int], rows: list[bytes]) -> int | None:
    """Stage 2 of p-1 and ECM on the points of _steps as residues modulo v:
    a proper divisor of v, or None.  Each row multiplies giant - baby over
    its terms and takes a gcd; a gcd of v is retraced one term at a time."""
    babies = points[: len(_ECM_BABIES)]
    for x, row in zip(points[len(_ECM_BABIES) :], rows):
        acc = 1
        for i in row:
            acc = acc * (x - babies[i]) % v
        g = math.gcd(acc, v)
        if g == v:
            g = next(h for i in row if (h := math.gcd(x - babies[i], v)) > 1)
        if g > 1:
            return g if g < v else None
    return None


@functools.cache
def _ecm_cost(bound: int) -> int:
    """The work units one _ecm curve with B2 = bound charges: the stage-1
    exponent's bits plus the stage-2 terms, 137,225 at the default bound."""
    return _exponent(_ECM_B1).bit_length() + sum(map(len, _ecm_plan(bound)[1]))


def _ecm(v: int, sigma: int, plan: tuple[int, list[bytes]]) -> int | None:
    """One ECM curve, Suyama's sigma, with the stage 2 of plan =
    _ecm_plan(B2) on an odd composite v: a proper divisor of v, or None.
    The curve depends on nothing else.  Stage 2 brings every baby and giant
    step to Z = 1 by one batched inversion, then walks the plan as p-1 does
    (_pairs), retracing a gcd of v one term at a time; before it, a gcd of
    v finds nothing."""
    u, w = sigma * sigma - 5, 4 * sigma
    g = math.gcd(u * w, v)
    if g == 1:
        a24 = (w - u) ** 3 * (3 * u + w) * pow(16 * u**3 * w, -1, v) % v
        q = _ladder((u**3 * pow(w**3, -1, v) % v, 1), _exponent(_ECM_B1), a24, v)
        g = math.gcd(q[1], v)
    if g == 1:
        step = _ladder(q, _ECM_D, a24, v)
        points = _steps(plan, q, step, lambda p, r, z: _xadd(p, r, z, v), lambda p: _xdbl(p, a24, v))
        prefix = [1]
        for _, z in points:
            prefix.append(prefix[-1] * z % v)
        g = math.gcd(prefix[-1], v)
    if g == 1:
        inverse = pow(prefix[-1], -1, v)
        for i in range(len(points) - 1, -1, -1):  # each point becomes X/Z
            x, z = points[i]
            points[i] = x * prefix[i] % v * inverse % v
            inverse = inverse * z % v
        return _pairs(v, points, plan[1])
    return g if 1 < g < v else None


def _usable_cores() -> int:
    """The number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _ecm_curves(v: int, bound: int, count: int) -> tuple[int | None, int]:
    """ECM curves sigma = 6, 7, ..., 5 + count with B2 = bound on v, up to
    the first that finds a divisor: that divisor and how many curves it
    took, or (None, count).

    The curves run in waves of W = min(usable cores, count).  This process
    runs the first curve of each wave and W - 1 helper interpreters (see
    _curve_helper), which live only for this call, run the others ahead of
    need.  Results are taken strictly in sigma order, this process's own
    before any helper's, so the answer is what one loop over sigma would
    give, whatever W is.  A helper that cannot start leaves its curves to
    the others; one that dies or gives a malformed answer is stopped and
    this process runs its curves.  Every helper is killed and reaped before
    this returns or raises.

    The helpers get their jobs only after this process's first curve: by
    then they have started up, so sending never waits on them, and when
    sigma = 6 splits v they are sent nothing.
    """
    plan = _ecm_plan(bound)
    helpers: list = [None]  # slot 0, the first curve of each wave, is ours
    try:
        _start_helpers(helpers, count)
        for i in range(count):
            sigma, slot = 6 + i, i % len(helpers)
            if i == 1:
                _send_jobs(helpers, v, plan, count)
            g = _helper_answer(helpers, slot, sigma, v)
            if g is None:  # our turn, or the helper failed
                g = _ecm(v, sigma, plan)
            if g:
                return g, i + 1
        return None, count
    finally:
        for proc in helpers:
            if proc is not None:
                _stop(proc)


def _start_helpers(helpers: list, count: int) -> None:
    """Append to helpers up to min(usable cores, count) - 1 helper
    processes, stopping at the first that cannot start."""
    wanted = min(_usable_cores(), count) - 1
    if wanted < 1:
        return
    import subprocess

    # -m finds the package in the directory this process imported it from.
    home = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    command = [sys.executable, "-m", __name__]
    for _ in range(wanted):
        try:
            helpers.append(
                subprocess.Popen(
                    command, cwd=home, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL
                )
            )
        except OSError:
            break


def _send_jobs(helpers: list, v: int, plan: tuple[int, list[bytes]], count: int) -> None:
    """Send each helper its job: v, the plan (so no helper sieves to B2)
    and its sigmas, every len(helpers)-th from 6 + its slot.  The job is
    pickled, which writes v in binary, so the int-to-decimal digit limit
    never applies."""
    import pickle

    for slot in range(1, len(helpers)):
        job = (v, plan, range(6 + slot, 6 + count, len(helpers)))
        try:
            with helpers[slot].stdin as pipe:
                pickle.dump(job, pipe)
        except OSError:  # it died: its answers will be missing
            pass


def _helper_answer(helpers: list, slot: int, sigma: int, v: int) -> int | None:
    """The helper in slot's result for curve sigma: a proper divisor of v,
    or 0 for none.  None when the slot has no helper, or when its answer is
    missing or malformed; that helper is then stopped and the slot
    emptied."""
    proc = helpers[slot]
    if proc is None:
        return None
    fields = proc.stdout.readline().split()
    try:
        if len(fields) == 2 and int(fields[0]) == sigma:
            g = int(fields[1], 16)
            if g == 0 or (1 < g < v and v % g == 0):
                return g
    except ValueError:
        pass
    _stop(proc)
    helpers[slot] = None
    return None


def _stop(proc) -> None:
    """Kill a helper, close its pipes and reap it."""
    with proc:
        proc.kill()


def _curve_helper() -> None:
    """A helper process of _ecm_curves: read the job (v, plan, sigmas)
    pickled on stdin, and for each sigma in turn write the line
    "sigma divisor" to stdout, the divisor in hex and 0 for none."""
    import pickle

    v, plan, sigmas = pickle.load(sys.stdin.buffer)
    for sigma in sigmas:
        print(sigma, format(_ecm(v, sigma, plan) or 0, "x"), flush=True)


def _factor_with_rho(value: int, stats: FactorStats, ceiling: int, counts: Counter, d: int, bound: int) -> int:
    """Fully factor value, a composite piece of Phi_d(2) the caller has
    tested, into counts.

    Returns the product of whatever composite pieces remain when
    stats.rho_iterations reaches ceiling (1 when none).  The stack holds
    only composites: each piece a split yields is tested once, when it is
    made.  Each piece that arith._ring admits is tested and split in the
    ring Z/(2^d - 1).  A prime power splits like any other composite, into
    smaller powers of its prime.

    A composite piece whose budget left covers 2C (C = _pm1_cost(bound))
    gets rho seed 1 for at most C iterations, then if need be _pm1,
    charged C, then ECM curves sigma = 6, 7, ..., as many as the budget
    left covers at _ecm_cost(bound) each, up to the first that splits it
    (see _ecm_curves), before rho seeds 2, 3, ... take what is left.  The
    curves run on every usable core; which one splits the piece, and so
    the divisor and the charge, does not depend on how many there are.
    """
    leftover = 1
    stack = [(value, 1)]
    while stack:
        v, multiplicity = stack.pop()
        ring = _ring(v, d)
        divisor, seed = None, 1
        left = ceiling - stats.rho_iterations  # C > _PM1_B1: small budgets never build C
        if left > 2 * _PM1_B1 and left >= 2 * (cost := _pm1_cost(bound)):
            divisor = _rho_brent(v, 1, stats, stats.rho_iterations + cost, ring)
            if divisor is None:
                divisor = _pm1(v, d, bound)
                stats.rho_iterations += cost
            if divisor is None:
                cost = _ecm_cost(bound)
                divisor, curves = _ecm_curves(v, bound, (ceiling - stats.rho_iterations) // cost)
                stats.rho_iterations += curves * cost
            seed = 2
        while divisor is None and stats.rho_iterations < ceiling:
            divisor = _rho_brent(v, seed, stats, ceiling, ring)
            seed += 1
        if divisor is None:
            leftover *= v**multiplicity
            continue
        for piece in (divisor, v // divisor):
            if _prime_like(piece, d):
                counts[piece] += multiplicity
            else:
                stack.append((piece, multiplicity))
    return leftover


if __name__ == "__main__":
    _curve_helper()
