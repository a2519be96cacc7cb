"""Uniform pasture sampling, Monte Carlo event estimates, exhaustive censuses."""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

import numpy as np

from .batch import EVENT_NAMES, ints_to_bits, kernels_for
from .errors import CapacityError
from .groups import AbelianGroup, GroupElement
from .hexagons import build_table
from .pastures import Pasture, _row_nullset

WILSON_Z = 1.959963984540054  # 97.5th percentile of the standard normal
CENSUS_HEX_CAP = 22
CLASSIFY_HEX_CAP = 16
LOTTERY_SAMPLE_CAP = 2**30  # 262,144 chunks of 4096 samples
# Chunk budget of every event, at Kernels.row_bytes per sample: the bytes a
# block kernel holds per row, more than the sampler or another event holds
LOTTERY_TENSOR_BYTES = 2**30
ORACLE_SUBSAMPLE = 100  # every 100th representative of each chunk is re-checked against the oracle
THREAD_CAP = 256
# Chunks are fixed work units, so the thread count never moves their boundaries.
# A census chunk is _CHUNK nullsets.  A lottery chunk holds at least _CHUNK_BITS
# sampled bits and never fewer than _CHUNK rows, so narrow hexagon sets do not
# spend each chunk on short numpy calls: one thread's Philox took 157 ns a row
# in 4096-row calls, 124 in 8192-row and 110 in 32768-row ones.  What a second
# thread adds depends on the host: two threads drawing 32768-row Z3 chunks from
# sample_bits ran at 1.52-1.58x one thread's speed on a quiet VM, but at
# 0.92-0.96x (16384 rows: 0.96-0.98x) through the shared pool on a loaded one
# (2-vCPU Xeon VMs, medians of 7 in each of three runs).  The sampler's nine
# 32768-word row arrays take 2.25 MiB, about one core's 2 MiB L2.
_CHUNK = 4096
_CHUNK_BITS = 1 << 17


def thread_count(threads: int | None = None) -> int:
    """Explicit argument, else HEXAFIELD_THREADS, else the machine.

    A requested count above THREAD_CAP raises before any thread exists; the
    machine's count is clamped to it.
    """
    if threads is None:
        env = os.environ.get("HEXAFIELD_THREADS", "").strip()
        if not env:
            return min(os.cpu_count() or 1, THREAD_CAP)
        if not env.isdecimal() or int(env) < 1:
            raise ValueError(f"HEXAFIELD_THREADS must be a positive integer, got {env!r}")
        threads = int(env)
    elif threads < 1:
        raise ValueError("thread count must be at least 1")
    if threads > THREAD_CAP:
        raise CapacityError(f"{threads} threads requested; cap is {THREAD_CAP}")
    return threads


def _chunks(total: int, size: int = _CHUNK) -> list[tuple[int, int]]:
    return [(lo, min(lo + size, total)) for lo in range(0, total, size)]


_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _worker_pool() -> ThreadPoolExecutor:
    """The process's chunk threads, made on first use, so importing starts none."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=THREAD_CAP - 1, thread_name_prefix="hexafield")
        return _pool


def _forget_pool() -> None:
    # a forked child inherits none of the pool's threads, and perhaps a held lock
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # absent where processes cannot fork
    os.register_at_fork(after_in_child=_forget_pool)


def _run_chunks(work, bounds, threads):
    """[work(b) for b in bounds] on t = min(threads, len(bounds)) threads.

    The caller runs one loop and the shared pool t - 1 more.  Each loop takes
    the next (index, bounds) pair and stores its result by index, so neither
    the results nor the chunks depend on t.  When the caller's loop ends, the
    loops that have not started are cancelled and the running ones waited
    for, so a call never waits on queued work.  Once a chunk raises, no loop
    of the call takes another chunk, and the first error is raised after
    every loop has stopped.
    """
    threads = min(threads, len(bounds))
    if threads <= 1:
        return [work(b) for b in bounds]
    results = [None] * len(bounds)
    todo = enumerate(bounds)
    lock = threading.Lock()
    errors = []

    def loop():
        while True:
            with lock:
                item = None if errors else next(todo, None)
            if item is None:
                return
            try:
                results[item[0]] = work(item[1])
            except BaseException as exc:  # the call raises it, interrupts included
                with lock:
                    errors.append(exc)
                return

    pool = _worker_pool()
    loops = [pool.submit(loop) for _ in range(threads - 1)]
    loop()
    started = [future for future in loops if not future.cancel()]
    for future in started:
        future.result()  # wait for the loop to stop
    if errors:
        raise errors[0]
    return results


@dataclass(frozen=True)
class LotterySpec:
    group: AbelianGroup
    unit: GroupElement
    seed: int
    samples: int

    def __post_init__(self):
        if self.unit.group != self.group:
            raise ValueError("unit must belong to the sampled group")
        if (self.unit * self.unit).index != 0:
            raise ValueError("unit must square to the identity")
        if self.samples < 1:
            raise ValueError("need at least one sample")


def _words(*values: int) -> tuple[np.ndarray, ...]:
    """0-d uint64 arrays: a ufunc dispatches on them faster than on np.uint64
    scalars, about 0.4 against 0.65 us a call on 8 words."""
    return tuple(np.array(v, dtype=np.uint64) for v in values)


# Philox4x64-10 (Random123, as in np.random.Philox): multipliers and key bumps
_MULTIPLIERS = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_M = _words(*_MULTIPLIERS)
_PHILOX_W = _words(0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LO32, _S32 = _words(0xFFFFFFFF, 32)
_PHILOX_HALVES = tuple(_words(m & 0xFFFFFFFF, m >> 32) for m in _MULTIPLIERS)  # (a0, a1) of each
# delta swaps (mask, shift) that transpose the 8x8 bit matrix of a word: bit
# 8k + j goes to bit 8j + k, so byte k of the word becomes bit k of each byte
_TRANSPOSE8 = tuple(zip(_words(0x00AA00AA00AA00AA, 0x0000CCCC0000CCCC, 0x00000000F0F0F0F0),
                        _words(7, 14, 28)))


def _mulhi(i: int, b: np.ndarray, p: np.ndarray, q: np.ndarray, r: np.ndarray) -> None:
    """Write the high word of the 128-bit product _PHILOX_M[i] * b into p.

    Clobbers b, q and r.  In 32-bit halves a = a1*2^32 + a0 and
    b = b1*2^32 + b0, s = a1*b0 + (a0*b0 >> 32) and u = a0*b1 + (s mod 2^32)
    are each at most (2^32 - 1)^2 + 2^32 - 1 < 2^64, and the high word is
    a1*b1 + (s >> 32) + (u >> 32).
    """
    a0, a1 = _PHILOX_HALVES[i]
    np.bitwise_and(b, _LO32, q)
    np.right_shift(b, _S32, b)
    np.multiply(q, a0, r)
    np.right_shift(r, _S32, r)
    np.multiply(q, a1, q)
    np.add(q, r, q)  # s
    np.bitwise_and(q, _LO32, r)
    np.right_shift(q, _S32, q)
    np.multiply(b, a0, p)
    np.add(p, r, p)  # u
    np.right_shift(p, _S32, p)
    np.multiply(b, a1, b)
    np.add(p, b, p)
    np.add(p, q, p)


def _philox_words(seed: int, start: int, rows: int, words: int) -> np.ndarray:
    """Words [0, words) of the Philox stream of each row, as a (rows, words) array."""
    m0, m1 = _PHILOX_M
    blocks = (words + 3) // 4  # 4 words of 64 bits per block
    k0 = np.array(seed % (1 << 64), dtype=np.uint64)  # a 0-d array, bumped in place
    k1 = np.arange(rows, dtype=np.uint64)[:, None]
    k1 += np.uint64(start)
    # The generator bumps its counter before the first block, so block b starts
    # from (b + 1, 0, 0, 0) in every row and only the key word k1 = i differs
    # between rows.  Round 0 leaves c0 = k0, c1 = 0 and c3 = lo(M0 (b + 1)), so
    # round 0's products and round 1's M0 product, of c0 = k0, run on the
    # blocks + 1 words of `small` only.
    small = np.append(np.arange(1, blocks + 1, dtype=np.uint64), k0)
    low = small * m0
    high = np.empty_like(small)
    _mulhi(0, small, high, np.empty_like(small), np.empty_like(small))
    # Every later word is a (rows, blocks) array: c0..c3 hold the state, x and y
    # are free, each round writes its outputs into x, y and the buffers its
    # inputs free, and q, r are _mulhi's scratch.  They are views of one array:
    # freeing it raises glibc's mmap and trim thresholds above a chunk's working
    # set, so later chunks reuse heap pages; eight arrays took fresh pages for
    # every Z3 chunk (about 440 page faults each).
    c0, c1, c2, c3, x, y, q, r = np.empty((8, rows, blocks), dtype=np.uint64)
    with np.errstate(over="ignore"):
        np.bitwise_xor(k1, high[:blocks], c2)  # round 0
        k0 += _PHILOX_W[0]
        k1 += _PHILOX_W[1]
        np.multiply(c2, m1, c1)  # round 1
        _mulhi(1, c2, c0, q, r)
        c0 ^= k0
        np.bitwise_xor(k1, high[blocks] ^ low[:blocks], c2)
        c3.fill(low[blocks])
        for rnd in range(2, 9):
            k0 += _PHILOX_W[0]
            k1 += _PHILOX_W[1]
            np.multiply(c2, m1, x)
            if rnd == 8 and words <= 2:
                # one block and words 0, 1 read: the last round reads only c1, c2
                _mulhi(0, c0, c2, q, r)
                c2 ^= c3
                c2 ^= k1
                c1 = x
                break
            _mulhi(1, c2, y, q, r)
            y ^= c1
            y ^= k0
            np.multiply(c0, m0, c1)
            _mulhi(0, c0, c2, q, r)
            c2 ^= c3
            c2 ^= k1
            c0, c1, c3, x, y = y, x, c1, c0, c3
        k0 += _PHILOX_W[0]
        # round 9 writes each word j of block b that is read to column 4b + j
        out = np.empty((rows, words), dtype=np.uint64)
        w0, w1, w2, w3 = (out[:, j::4] for j in range(4))
        np.multiply(c2[:, :w1.shape[1]], m1, w1)
        _mulhi(1, c2, y, q, r)
        y ^= c1
        np.bitwise_xor(y, k0, w0)
        full = w2.shape[1]  # blocks whose word 2 is read
        if full:
            np.multiply(c0[:, :w3.shape[1]], m0, w3)
            hi = c2[:, :full]
            _mulhi(0, c0[:, :full], hi, q[:, :full], r[:, :full])
            hi ^= c3[:, :full]
            k1 += _PHILOX_W[1]
            np.bitwise_xor(hi, k1, w2)
    return out


def sample_bits(seed: int, start: int, stop: int, width: int) -> np.ndarray:
    """Hexagon bits for sample indices [start, stop), one row per sample.

    Bit h of sample i is a pure function of (seed, i, h): bit h % 64 of
    word h // 64 of the np.random.Philox stream keyed by the uint64 pair
    (seed mod 2^64, i). All rows are computed at once; chunking and thread
    layout therefore cannot change any sample.  The result is the transpose
    of a C-contiguous (width, rows) array, the hexagon-major layout in which
    `batch._packed` packs it without a copy.
    """
    if not 0 <= start <= stop <= 1 << 64:
        raise ValueError(f"need 0 <= start <= stop <= 2**64, got [{start}, {stop})")
    rows = stop - start
    if rows == 0:
        return np.zeros((width, 0), dtype=bool).T
    size = (width + 7) // 8  # bytes of a row that are read
    # little-endian words put bit h of a row at bit h % 8 of its byte h // 8;
    # the sampler's buffers are freed here, and only the bytes read are kept
    read = _philox_words(seed, start, rows, (width + 63) // 64).astype(
        "<u8", copy=False).view(np.uint8)[:, :size]
    # byte b of rows 8q .. 8q + 7 as word q of x[b], row 8q + k in byte k
    x = np.zeros((size, -(-rows // 8) * 8), dtype=np.uint8)
    x[:, :rows] = read.T
    del read
    words = x.view("<u8")
    spare = np.empty_like(words)
    for mask, shift in _TRANSPOSE8:
        np.right_shift(words, shift, spare)
        np.bitwise_xor(spare, words, spare)
        np.bitwise_and(spare, mask, spare)
        np.bitwise_xor(words, spare, words)
        np.left_shift(spare, shift, spare)
        np.bitwise_xor(words, spare, words)
    # byte j of word q now holds bit j of byte b of rows 8q .. 8q + 7, so
    # plane j of byte b, packed, is byte j of every word: (size, 8, words)
    planes = x.reshape(size, -1, 8).transpose(0, 2, 1).copy()
    del x, words, spare  # the peak is the unpacked bits and the planes only
    bits = np.unpackbits(planes, axis=2, count=rows, bitorder="little")
    return bits.reshape(8 * size, rows)[:width].view(bool).T


def sample_pasture(spec: LotterySpec, index: int) -> Pasture:
    if not 0 <= index < spec.samples:
        raise ValueError(f"sample index {index} outside [0, {spec.samples})")
    width = build_table(spec.group).size
    row = sample_bits(spec.seed, index, index + 1, width)[0]
    return Pasture(spec.group, spec.unit, _row_nullset(row))


def wilson_interval(successes: int, samples: int) -> tuple[float, float]:
    if successes == 0 and samples > 0:
        low = 0.0
    else:
        low = _wilson_bound(successes, samples, -1.0)
    if successes == samples:
        high = 1.0
    else:
        high = _wilson_bound(successes, samples, 1.0)
    return low, high


def _wilson_bound(successes: int, samples: int, sign: float) -> float:
    z = WILSON_Z
    n = samples
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    return min(1.0, max(0.0, center + sign * half))


@dataclass(frozen=True)
class Estimate:
    event: str
    successes: int
    samples: int
    p_hat: Fraction
    ci_low: float
    ci_high: float

    def __post_init__(self):
        if not 0 <= self.ci_low <= self.p_hat <= self.ci_high <= 1:
            raise ValueError("interval must contain p_hat and lie in [0, 1]")
        if self.p_hat != Fraction(self.successes, self.samples):
            raise ValueError("p_hat must equal successes / samples")


def estimate(spec: LotterySpec, event: str, threads: int | None = None) -> Estimate:
    if event not in EVENT_NAMES:
        raise ValueError(f"unknown event {event!r}; known: {list(EVENT_NAMES)}")
    if spec.samples > LOTTERY_SAMPLE_CAP:
        raise CapacityError(f"lottery wants {spec.samples} samples; cap is {LOTTERY_SAMPLE_CAP}")
    kernels = kernels_for(spec.group, spec.unit.index)
    width = kernels.n_hex
    rows = min(max(_CHUNK, _CHUNK_BITS // width), LOTTERY_TENSOR_BYTES // kernels.row_bytes)
    if rows < 1:
        raise CapacityError(f"{event} needs {kernels.row_bytes} bytes per sample; "
                            f"budget is {LOTTERY_TENSOR_BYTES}")
    nthreads = thread_count(threads)

    def work(bounds):
        lo, hi = bounds
        return int(kernels.event(event, sample_bits(spec.seed, lo, hi, width)).sum())

    successes = sum(_run_chunks(work, _chunks(spec.samples, rows), nthreads))
    low, high = wilson_interval(successes, spec.samples)
    return Estimate(event, successes, spec.samples,
                    Fraction(successes, spec.samples), low, high)


def _orbits(group: AbelianGroup, unit: GroupElement, threads: int | None,
            hex_cap: int, task: str, reduce) -> tuple:
    """Every nullset on (group, unit), one chunk pass, predicates on the
    canonical (minimal) representative of each orbit of the unit-fixing
    automorphisms only.

    Being a hyperfield, field or 4-full, the star property and the
    stabiliser size are invariant under the automorphisms, so a
    representative speaks for its whole orbit.  Each chunk returns
    reduce(values, bits, orbit, stabiliser, hyper, field, full4, star) over
    its representatives, in increasing order: the stabiliser counts the
    automorphisms fixing the nullset, identity included, and the orbit holds
    |Aut| / |Stab| nullsets.  The results come back in chunk order.
    """
    width = build_table(group).size
    if width > hex_cap:
        raise CapacityError(f"{task} wants 2^{width} nullsets; cap is 2^{hex_cap}")
    nthreads = thread_count(threads)
    kernels = kernels_for(group, unit.index)
    n_aut = len(kernels.nontrivial_hex_perms) + 1

    def work(bounds):
        lo, hi = bounds
        vals = np.arange(lo, hi, dtype=np.int64)
        bits = ints_to_bits(vals, width)
        canon, stab = kernels.orbit_scan(bits)
        vals, bits, stab = vals[canon], bits[canon], stab[canon]
        orbit = n_aut // stab
        if (orbit * stab != n_aut).any():
            raise AssertionError("orbit sizes must divide |Aut|")
        hyper, full4, star = kernels.verdicts(bits)
        field = hyper & ~kernels.one_plus_minus_one(bits).any(axis=1)
        probe = slice(None, None, ORACLE_SUBSAMPLE)  # copied, so the chunk's bits are freed
        return (reduce(vals, bits, orbit, stab, hyper, field, full4, star),
                int(orbit.sum()), bits[probe].copy(), hyper[probe])

    results, covered, probed, claimed = zip(*_run_chunks(work, _chunks(1 << width), nthreads))
    probed, claimed = np.concatenate(probed), np.concatenate(claimed)
    # the chunks' probes pooled, in calls no larger than one full chunk's probe
    step = -(-_CHUNK // ORACLE_SUBSAMPLE)
    for lo in range(0, len(probed), step):
        if (kernels.axiom_oracle(probed[lo:lo + step]) != claimed[lo:lo + step]).any():
            raise RuntimeError("fast hyperfield check disagrees with the axiom oracle")
    if sum(covered) != 1 << width:
        raise AssertionError("orbits must cover every nullset")
    return results


@dataclass(frozen=True)
class Census:
    group: AbelianGroup
    unit: GroupElement
    total_pastures: int
    hyperfields: int
    fields: int
    star_hyperfields: int
    iso_classes: int
    rigid_count: int


def census(group: AbelianGroup, unit: GroupElement, threads: int | None = None) -> Census:
    """Exact counts over every nullset on (group, unit): each canonical
    representative is weighted by its orbit size."""
    def counts(vals, bits, orbit, stab, hyper, field, full4, star):
        return np.array([orbit[hyper].sum(), orbit[field].sum(), orbit[hyper & star].sum(),
                         hyper.sum(), orbit[hyper & (stab == 1)].sum()], dtype=np.int64)

    hyperfields, fields, stars, classes, rigid = (
        int(c) for c in sum(_orbits(group, unit, threads, CENSUS_HEX_CAP, "census", counts)))
    total = 1 << build_table(group).size
    if not fields <= hyperfields <= total:
        raise AssertionError("fields must be hyperfields")
    # non-hyperfield mass is at least 2^-n
    if group.order >= 2 and (total - hyperfields) << group.order < total:
        raise AssertionError("too many hyperfields for the 2^-n bound")
    return Census(group, unit, total, hyperfields, fields, stars, classes, rigid)


@dataclass(frozen=True)
class ClassRow:
    pasture: Pasture
    is_hyperfield: bool
    is_field: bool
    is_4full: bool
    is_00: bool
    automorphisms: int


def class_table(group: AbelianGroup, unit: GroupElement, hyper_only: bool = True,
                threads: int | None = None) -> tuple[ClassRow, ...]:
    """One row per isomorphism class, in canonical nullset order."""
    kernels = kernels_for(group, unit.index)

    def rows(vals, bits, orbit, stab, hyper, field, full4, star):
        keep = hyper | (not hyper_only)
        zz = kernels.is_zero_over_zero(bits[keep])  # an (S, n, n) array, S at most one chunk
        return [ClassRow(Pasture(group, unit, int(v)), bool(h), bool(f), bool(a), bool(z), int(s))
                for v, h, f, a, z, s in zip(vals[keep], hyper[keep], field[keep], full4[keep],
                                            zz, stab[keep])]

    chunks = _orbits(group, unit, threads, CLASSIFY_HEX_CAP, "classification", rows)
    return tuple(row for chunk in chunks for row in chunk)
