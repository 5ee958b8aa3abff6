"""Truncated layered-noise simulation of p-adic H-sssi processes.

The process is a weighted sum of independent periodically-extended noise
layers: level k holds i.i.d. values xi_{k,r} indexed by residues
r mod p**(k+1) (residue tuples in dimension d), extended periodically, and

    X_n = sum_{k=0}^{Kmax} p**(-k*H) * (xi_{k, n} - xi_{k, 0}).

Truncation at Kmax is explicit: the expected absolute tail error at any
fixed index is at most truncation_tail_bound(spec).  Because each xi is
addressed by (seed, k, r) through a counter-based generator, levels are
evaluated lazily at arbitrary indices without storage and extend to a
larger Kmax without disturbing existing levels.

Every evaluation (paths, pointwise values, fields) is one call of
level_sum with the keyed per-level lookup keyed_lookup, so all of them
combine the same addressed draws in the same order.  A contiguous box asks
each level once, for the slice of its box; arbitrary points ask for their
residues.  build_levels materializes the levels densely as the bitwise
oracle for them.

Sublattice increments X_{r + p**K u} - X_r are summed over levels k >= K
only: a step of p**K leaves residues mod p**(k+1) unchanged for every
k < K, so those levels cancel exactly and the direct k >= K sum avoids the
float cancellation noise of naive differencing.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import laws
from .errors import ResourceCapError
from .laws import IncrementLaw
from .padic import PadicContext, checked_modulus

# Ceiling on the entries one request stores: the values it draws plus its
# output (counts, not bytes); one entry is a float64, so about 270 MB.
DEFAULT_MEMORY_CAP = 1 << 25

_U64_MAX = (1 << 64) - 1


@dataclass(frozen=True)
class TreeSpec:
    """Complete description of one simulated process.

    p: prime branching base; hurst: scaling exponent H > 0; kmax: truncation
    level (levels 0..kmax are simulated); law: increment distribution;
    seed: 64-bit master seed; dim: lattice dimension.
    """

    p: int
    hurst: float
    kmax: int
    law: IncrementLaw
    seed: int
    dim: int = 1

    def __post_init__(self) -> None:
        PadicContext(self.p)  # primality check
        if not 0 < self.hurst < math.inf:
            raise ValueError(f"hurst must be a positive finite number, got {self.hurst}")
        ratio = float(self.p) ** -self.hurst
        if ratio == 1.0:
            raise ValueError(f"hurst={self.hurst} is so small that p**-hurst rounds to 1.0")
        if self.kmax < 0:
            raise ValueError(f"kmax must be non-negative, got {self.kmax}")
        if self.dim < 1:
            raise ValueError(f"dim must be at least 1, got {self.dim}")
        if not 0 <= self.seed <= _U64_MAX:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        laws.require_valid(self.law, for_tree=True)
        # residue tuples are linearized into a 64-bit stream tag, so the
        # deepest level's index space must fit that domain.
        checked_modulus(self.p, (self.kmax + 1) * self.dim)
        # the worst translate difference is 2 |X_n| <= 4 max|xi| sum_{k <= kmax} p**(-k H)
        if not math.isfinite(4.0 * laws.max_abs(self.law) * (1.0 - ratio ** (self.kmax + 1)) / (1.0 - ratio)):
            raise ValueError(f"law={laws.law_to_dict(self.law)}: its largest draws overflow float64 in a path")

    def level_modulus(self, k: int) -> int:
        """Per-axis period p**(k+1) of level k."""
        if not 0 <= k <= self.kmax:
            raise ValueError(f"level {k} outside 0..{self.kmax}")
        return self.p ** (k + 1)

    def weight(self, k: int) -> float:
        """Level weight p**(-k*H)."""
        return float(self.p) ** (-k * self.hurst)

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "hurst": self.hurst,
            "kmax": self.kmax,
            "law": laws.law_to_dict(self.law),
            "seed": self.seed,
            "dim": self.dim,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "TreeSpec":
        if not isinstance(obj, dict):
            raise ValueError(f"tree spec must be an object, got {type(obj).__name__}")
        try:
            return cls(
                p=int(obj["p"]),
                hurst=float(obj["hurst"]),
                kmax=int(obj["kmax"]),
                law=laws.law_from_dict(obj["law"]),
                seed=int(obj["seed"]),
                dim=int(obj.get("dim", 1)),
            )
        except KeyError as missing:
            raise ValueError(f"tree spec is missing field {missing}") from None


def level_values(spec: TreeSpec, k: int, residues: np.ndarray) -> np.ndarray:
    """Lazily evaluate xi_{k, r} at the given residues (no storage).

    For dim = 1, `residues` is an integer array of residues mod p**(k+1).
    For dim >= 2, the trailing axis indexes coordinates: shape (..., dim).
    Values are identical to the corresponding build_levels entries.
    """
    m = spec.level_modulus(k)
    r = np.asarray(residues, dtype=np.int64)
    if spec.dim == 1:
        flat = r
    else:
        if r.ndim == 0 or r.shape[-1] != spec.dim:
            raise ValueError(f"residue tuples must have trailing axis of size {spec.dim}")
        flat = r[..., 0].astype(np.uint64)
        for axis in range(1, spec.dim):
            flat = flat * np.uint64(m) + r[..., axis].astype(np.uint64)
    if np.any(r < 0) or np.any(r >= m):
        raise ValueError(f"residues must lie in [0, {m}) at level {k}")
    return laws.keyed_values(spec.law, spec.seed, k, flat)


def check_cap(spec: TreeSpec | None, extent: int, output: int, memory_cap: int = DEFAULT_MEMORY_CAP) -> None:
    """Refuse a request over the memory cap before anything is drawn or allocated.

    The request stores `output` result entries and, given a spec, draws the
    box [0, min(p**(k+1), extent))**dim at each level k.  ResourceCapError
    names the level at which the running total of entries first exceeds
    `memory_cap`, or the total when there is no spec.
    """
    total = output
    if spec and output + (spec.kmax + 1) * extent ** spec.dim <= memory_cap:
        return  # no level draws more than extent**dim entries
    for k in range(spec.kmax + 1 if spec else 0):
        total += min(spec.level_modulus(k), extent) ** spec.dim
        if total > memory_cap:
            raise ResourceCapError(f"level {k} pushes stored entries to {total}, above the cap of {memory_cap}")
    if total > memory_cap:
        raise ResourceCapError(f"{total} stored entries exceed the cap of {memory_cap}")


def _box_values(spec: TreeSpec, k: int, n: int) -> np.ndarray:
    """xi at level k over the box [0, n)**dim, with shape (n,) * dim."""
    idx = np.indices((n,) * spec.dim, dtype=np.int64)
    return level_values(spec, k, idx[0] if spec.dim == 1 else np.moveaxis(idx, 0, -1))


def build_levels(spec: TreeSpec, memory_cap: int = DEFAULT_MEMORY_CAP) -> tuple[np.ndarray, ...]:
    """Materialize all levels 0..kmax as read-only dense arrays, level k of shape (p**(k+1),) * dim.

    The bitwise oracle for the keyed evaluations.  Raises ResourceCapError
    naming the offending level if cumulative entry counts would exceed
    `memory_cap`; the check runs before anything is drawn.
    """
    check_cap(spec, spec.level_modulus(spec.kmax), 0, memory_cap)
    arrays = tuple(_box_values(spec, k, spec.level_modulus(k)) for k in range(spec.kmax + 1))
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def level_sum(spec: TreeSpec, xi, points, base=0, k_lo: int = 0) -> np.ndarray:
    """sum_{k=kmax..k_lo} w_k (xi(k, points mod p**(k+1)) - xi(k, base mod p**(k+1))).

    `xi(k, residues)` looks up level k at an integer array (or scalar) of
    residues; the result has the broadcast shape of the lookups.  Levels are
    added from the smallest weight up, which keeps the float accumulation
    error tiny and fixes the summation order every caller shares.

    `points` may also be range(n) at base 0, the contiguous box [0, n) on
    every axis of the lookup.  Level k is then asked once, for its box
    xi(k, slice(0, r)) with r = min(p**(k+1), n); its base is the box
    corner, and its term is added once per period: the same floats as the
    gather over the n points, without it.
    """
    box = isinstance(points, range)
    if box and (points != range(len(points)) or np.any(base)):
        raise ValueError(f"a range of points must be range(n) at base 0, got {points!r} at base {base!r}")
    acc = None
    for k in range(spec.kmax, k_lo - 1, -1):
        m = spec.level_modulus(k)
        if box:
            vals = xi(k, slice(0, min(m, len(points))))
            term = spec.weight(k) * (vals - vals[(0,) * vals.ndim])
        else:
            term = spec.weight(k) * (xi(k, points % m) - xi(k, base % m))
        if acc is None:
            acc = np.zeros((len(points),) * term.ndim if box else np.shape(term), dtype=np.float64)
        if box:
            _add_periodic(acc, term)
        else:
            acc += term
    return acc


def _add_periodic(acc: np.ndarray, term: np.ndarray) -> None:
    """acc += term extended periodically along every axis; both are cubes, term's side r <= acc's.

    Along each axis the side splits into its full periods, viewed as
    (n // r, r), and a remainder of n % r points that meets term[:n % r].
    Splitting an axis never needs a copy, so every reshape of acc is a view.
    """
    n, r = acc.shape[0], term.shape[0]
    full = n - n % r
    # per axis: the slice of acc, its split shape, the slice of term, term's shape against it
    periods = (slice(0, full), (full // r, r), slice(None), (1, r))
    remainder = (slice(full, n), (n - full,), slice(0, n - full), (n - full,))
    for axes in itertools.product([periods, remainder] if full < n else [periods], repeat=acc.ndim):
        acc_idx, acc_shape, term_idx, term_shape = zip(*axes)
        view = acc[acc_idx].reshape(sum(acc_shape, ()))
        view += term[term_idx].reshape(sum(term_shape, ()))


def keyed_lookup(spec: TreeSpec, seeds=None):
    """Lookup xi(k, residues) drawing addressed values, at spec.seed or at `seeds`.

    A slice(0, r) draws the box [0, r)**dim, with shape (r,) * dim, in one
    call at spec.seed.  An array of residues (dim = 1 only) draws exactly
    the addresses asked for, broadcast against `seeds`.
    """
    seed = spec.seed if seeds is None else np.asarray(seeds, dtype=np.uint64)

    def xi(k: int, residues) -> np.ndarray:
        if isinstance(residues, slice):
            if seeds is not None:
                raise ValueError("a box slice(0, r) is drawn at spec.seed; seed arrays need residue arrays")
            return _box_values(spec, k, residues.stop)
        if spec.dim != 1:
            raise ValueError(f"residue arrays need dim=1; ask dim={spec.dim} for a box slice(0, r)")
        return laws.keyed_values(spec.law, seed, k, residues)

    return xi


@dataclass(frozen=True)
class Path:
    """A sample path X_0..X_{N-1} on the non-negative integers."""

    values: np.ndarray
    spec: TreeSpec
    horizon: int


@dataclass(frozen=True)
class FieldPath:
    """A sample field over the box {0..side}**dim, stored as a dim-d grid."""

    values: np.ndarray
    spec: TreeSpec
    side: int

    def grid(self) -> np.ndarray:
        return self.values


def lazy_path(spec: TreeSpec, horizon: int) -> Path:
    """Evaluate X_0..X_{horizon-1} from keyed draws (dim = 1 only).

    Level k draws min(p**(k+1), horizon) values once.  A request whose
    draws plus output exceed DEFAULT_MEMORY_CAP raises ResourceCapError
    before anything is drawn.
    """
    if spec.dim != 1:
        raise ValueError("lazy_path requires dim=1; use field for higher dimensions")
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    check_cap(spec, horizon, horizon)
    values = level_sum(spec, keyed_lookup(spec), range(horizon))
    return Path(values=values, spec=spec, horizon=horizon)


def path_values(spec: TreeSpec, indices, seeds=None) -> np.ndarray:
    """Evaluate X at arbitrary indices, optionally across replica seeds.

    `indices` and `seeds` broadcast against each other, so marginals of many
    independent replicas are one vectorized call: scalar index + seed array
    gives one value per replica.  dim = 1 only.
    """
    if spec.dim != 1:
        raise ValueError("path_values requires dim=1")
    idx = np.asarray(indices, dtype=np.int64)
    if np.any(idx < 0):
        raise ValueError("indices must be non-negative")
    return level_sum(spec, keyed_lookup(spec, seeds), idx)


def field(spec: TreeSpec, side: int) -> FieldPath:
    """Evaluate the field over the box {0..side}**dim from keyed draws.

    Level k draws min(p**(k+1), side + 1)**dim values once.  A request
    whose draws plus output exceed DEFAULT_MEMORY_CAP raises
    ResourceCapError before anything is drawn.
    """
    if side < 0:
        raise ValueError(f"side must be non-negative, got {side}")
    check_cap(spec, side + 1, (side + 1) ** spec.dim)
    values = level_sum(spec, keyed_lookup(spec), range(side + 1))
    return FieldPath(values=values, spec=spec, side=side)


def truncation_tail_bound(spec: TreeSpec) -> float:
    """Upper bound on E|X_n - X_n^trunc| from the discarded levels > Kmax."""
    e_abs = laws.mean_abs(spec.law)
    ratio = float(spec.p) ** (-spec.hurst)
    return 2.0 * e_abs * ratio ** (spec.kmax + 1) / (1.0 - ratio)


# ---------------------------------------------------------------------------
# serialization: CSV for spreadsheets, a binary record for exact roundtrips

_MAGIC = b"PSSI"
_FORMAT_VERSION = 1
_KIND_PATH = 0
_KIND_FIELD = 1


def write_path_csv(p: Path, stream: io.TextIOBase) -> None:
    """index,value rows; repr keeps float64 roundtrip exactness."""
    stream.write("index,value\n")
    for i, v in enumerate(p.values):
        stream.write(f"{i},{float(v)!r}\n")


def write_field_csv(f: FieldPath, stream: io.TextIOBase) -> None:
    """i0,..,i{dim-1},value rows in lexicographic order; repr keeps float64 roundtrip exactness."""
    stream.write("".join(f"i{a}," for a in range(f.spec.dim)) + "value\n")
    *lead, n = f.values.shape
    last = [f"{j}," for j in range(n)]
    # one write per line of the last axis, its leading coordinates joined once
    for head, line in zip(itertools.product(*map(range, lead)), f.values.reshape(-1, n).tolist()):
        prefix = "".join(f"{i}," for i in head)
        stream.write("".join(f"{prefix}{j}{v!r}\n" for j, v in zip(last, line)))


def _spec_json_bytes(spec: TreeSpec) -> bytes:
    return json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":")).encode("utf-8")


def write_binary(obj: Path | FieldPath, stream: io.BufferedIOBase) -> None:
    """Binary dump: magic, version, spec record, then little-endian float64."""
    if isinstance(obj, Path):
        kind, extent, values = _KIND_PATH, obj.horizon, obj.values
    elif isinstance(obj, FieldPath):
        kind, extent, values = _KIND_FIELD, obj.side, obj.values.ravel()
    else:
        raise TypeError(f"expected Path or FieldPath, got {obj!r}")
    blob = _spec_json_bytes(obj.spec)
    stream.write(_MAGIC)
    stream.write(struct.pack("<B", _FORMAT_VERSION))
    stream.write(struct.pack("<BIQQ", kind, len(blob), extent, values.size))
    stream.write(blob)
    stream.write(np.ascontiguousarray(values, dtype="<f8").tobytes())


_READ_PIECE = 1 << 20


def _read_exact(stream: io.BufferedIOBase, n: int, what: str) -> bytes:
    """Read exactly n bytes or raise ValueError.

    n may come from a corrupt header, and a buffered read(n) allocates n
    bytes up front: a seekable stream is checked against the bytes it has
    left before reading, and any other stream is read in bounded pieces.
    """
    if stream.seekable():
        pos = stream.tell()
        left = stream.seek(0, io.SEEK_END) - pos
        stream.seek(pos)
        if n > left:
            raise ValueError(f"truncated {what}: {n} bytes expected, {left} left")
        data = stream.read(n)
    else:
        pieces, got = [], 0
        while got < n:
            piece = stream.read(min(n - got, _READ_PIECE))
            if not piece:
                break
            pieces.append(piece)
            got += len(piece)
        data = b"".join(pieces)
    if len(data) != n:
        raise ValueError(f"truncated {what}: {n} bytes expected, {len(data)} read")
    return data


def read_binary(stream: io.BufferedIOBase) -> Path | FieldPath:
    """Parse a binary dump back into a Path or FieldPath.

    A short stream, or a header whose lengths exceed what the stream
    holds, raises ValueError without allocating the claimed length.
    """
    magic = stream.read(4)
    if magic != _MAGIC:
        raise ValueError(f"bad magic {magic!r}; not a path/field dump")
    (version,) = struct.unpack("<B", _read_exact(stream, 1, "format version"))
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported format version {version}")
    kind, blob_len, extent, count = struct.unpack("<BIQQ", _read_exact(stream, 21, "record header"))
    spec = TreeSpec.from_dict(json.loads(_read_exact(stream, blob_len, "spec record").decode("utf-8")))
    raw = _read_exact(stream, 8 * count, "value block")
    values = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    if kind == _KIND_PATH:
        if count != extent:
            raise ValueError("path length disagrees with horizon")
        return Path(values=values, spec=spec, horizon=int(extent))
    if kind == _KIND_FIELD:
        side = int(extent)
        shape = (side + 1,) * spec.dim
        if count != int(np.prod(shape)):
            raise ValueError("field size disagrees with box side")
        return FieldPath(values=values.reshape(shape), spec=spec, side=side)
    raise ValueError(f"unknown record kind {kind}")
