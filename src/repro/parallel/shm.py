"""Zero-pickle shared-memory work distribution for the parallel sweep.

The chunked sweep executor (:mod:`repro.parallel.executor`) originally
shipped every :class:`~repro.parallel.tasks.ChunkTask` with a fully
pickled copy of the sweep's *shared immutable state* -- the experiment
settings, the algorithm specs, and the per-trial seed sequences -- even
though every chunk of a data point carries exactly the same copy.  At
Figure-3 scale (1,000 trials, 64 chunks) that is ~2 KB of redundant pickle
per task, and lifecycle sweeps that multiply trial counts pay dispatch
cost before they pay solve cost.

This module serialises the shared state **once** per sweep into a named
:mod:`multiprocessing.shared_memory` segment and shrinks every task
payload to a :class:`ShmTask` -- ``(segment name, task index)``, ~60 bytes
of pickle.  Workers attach on first use, reconstruct **read-only** NumPy
views over the segment (never copies), and rebuild everything else --
algorithms, RNG streams -- locally, exactly like the classic path.

Segment layout::

    [u64 manifest length][pickled ShmManifest][payload]
     payload = 64-byte-aligned typed buffers ... followed by the blob

The manifest is typed -- dtype/shape/offset/nbytes per buffer -- and
carries a SHA-256 ``digest`` of the payload region; :func:`attach`
refuses segments whose content does not hash to the manifest's digest,
and raises a clear :class:`~repro.util.errors.ValidationError` when the
segment was already unlinked.  The *blob* is a single pickle of the
sweep's non-array constants (settings, algorithm specs, seed metadata),
written once per sweep rather than once per task.

Lifecycle contract (leak-free by construction)
----------------------------------------------
* The publishing process **owns** the segment: it is registered in a
  module registry (:func:`active_segments`), unlinked by
  :meth:`SharedState.unlink` in the caller's ``finally`` block, and -- as
  a backstop -- by an ``atexit`` hook.  Creation stays registered with
  the :mod:`multiprocessing.resource_tracker`, so even a hard-crashed
  owner gets its segments reaped by the tracker.
* Workers attach *untracked* (the attach-side resource-tracker
  registration is explicitly withdrawn), so a worker exiting -- or being
  killed -- can neither leak a registration nor unlink a segment that the
  owner and its siblings still use.
* Attachments are cached per process (LRU, pid-guarded) so a worker
  decodes each sweep's state once, not once per chunk; eviction tolerates
  live views (the mapping stays valid until the last view dies, while the
  *name* is released by the owner's unlink).

Shared state crosses the process boundary only as read-only views plus
value-like metadata; every mutable scratch structure stays process-local
and is built by the worker.

Switch: ``REPRO_SHM=0`` disables the layer (tasks fall back to the
classic fully-pickled payloads); the numbers are bit-identical either way
-- the differential suite proves it at 1/2/4 workers under both settings.
Only the ``run_point`` sweep uses the layer; the request-stream ensemble
always ships fully-pickled tasks.
"""

from __future__ import annotations

import atexit
import hashlib
import os
import pickle
import secrets
import struct
from collections import OrderedDict
from dataclasses import dataclass, replace
from multiprocessing import resource_tracker, shared_memory
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import numpy as np

from repro.util.errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.experiments.runner import AggregateStats

#: Environment variable switching the layer off (``0``) or on (``1``, default).
SHM_ENV = "REPRO_SHM"

#: Prefix of every segment name this module creates (leak scans key on it).
SEGMENT_PREFIX = "rshm"

#: Regression budget for one pickled :class:`ShmTask` (bytes).  The whole
#: point of the layer is that task payloads are constant-size and tiny; a
#: change that makes them grow past this budget defeats it.
SHM_TASK_BYTE_BUDGET = 96

_ALIGN = 64
_HEADER = struct.Struct("<Q")
_PROTOCOL = pickle.HIGHEST_PROTOCOL


def shm_enabled() -> bool:
    """Whether zero-pickle distribution is on (``REPRO_SHM``, default on)."""
    raw = os.environ.get(SHM_ENV)
    if raw is None or raw == "" or raw == "1":
        return True
    if raw == "0":
        return False
    raise ValidationError(f"{SHM_ENV} must be 0 or 1, got {raw!r}")


# -- manifest ---------------------------------------------------------------------


@dataclass(frozen=True)
class BufferSpec:
    """One typed buffer inside a segment's payload region."""

    name: str
    dtype: str
    shape: tuple[int, ...]
    offset: int  # payload-relative, 64-byte aligned
    nbytes: int


@dataclass(frozen=True)
class ShmManifest:
    """What a segment contains and how to check it.

    ``digest`` is the SHA-256 hex digest of the whole payload region
    (buffers, padding, and blob); :func:`attach` recomputes and compares
    it before handing out any view.
    """

    segment: str
    buffers: tuple[BufferSpec, ...]
    blob_offset: int
    blob_nbytes: int
    payload_nbytes: int
    digest: str


# -- owner side -------------------------------------------------------------------

#: Segments created (and not yet unlinked) by this process, keyed by name.
_OWNED: dict[str, "SharedState"] = {}


class SharedState:
    """Owner handle of one published segment (unlink exactly once)."""

    __slots__ = ("manifest", "_shm", "_closed")

    def __init__(self, shm: shared_memory.SharedMemory, manifest: ShmManifest):
        self._shm = shm
        self.manifest = manifest
        self._closed = False

    @property
    def name(self) -> str:
        """The segment name tasks carry (the whole per-task payload key)."""
        return self.manifest.segment

    def unlink(self) -> None:
        """Release the segment's name and the owner's mapping (idempotent).

        Evicts any same-process attachment first so the inline-fallback
        path never holds a stale handle to an unlinked segment.
        """
        if self._closed:
            return
        self._closed = True
        _OWNED.pop(self.name, None)
        _evict_attachment(self.name)
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - live external views
            pass
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already reaped
            pass

    def __enter__(self) -> "SharedState":
        return self

    def __exit__(self, *exc: object) -> None:
        self.unlink()


def active_segments() -> list[str]:
    """Names of segments this process published and has not yet unlinked."""
    return sorted(_OWNED)


def shutdown_shared_state() -> None:
    """Unlink every segment this process still owns (atexit backstop)."""
    for state in list(_OWNED.values()):
        state.unlink()


atexit.register(shutdown_shared_state)


def publish(arrays: Mapping[str, np.ndarray], blob: bytes = b"") -> SharedState:
    """Write ``arrays`` + ``blob`` into one named segment, manifest first.

    Arrays are copied in C-contiguously at 64-byte-aligned offsets; the
    blob (one pickle of the non-array constants) follows them.  Returns
    the owner handle; the caller must :meth:`SharedState.unlink` it (use
    ``try/finally`` or the context manager) when the sweep is done.
    """
    specs: list[BufferSpec] = []
    prepared: list[np.ndarray] = []
    offset = 0
    for name, array in arrays.items():
        arr = np.ascontiguousarray(array)
        offset = -(-offset // _ALIGN) * _ALIGN
        specs.append(
            BufferSpec(
                name=str(name),
                dtype=str(arr.dtype),
                shape=tuple(arr.shape),
                offset=offset,
                nbytes=arr.nbytes,
            )
        )
        prepared.append(arr)
        offset += arr.nbytes
    blob_offset = -(-offset // _ALIGN) * _ALIGN
    payload_nbytes = blob_offset + len(blob)

    # The manifest rides at the head of the segment, so its pickled size
    # must be known before offsets are final: pickle once with a
    # placeholder digest (same 64-char length as the real hex digest),
    # then re-pickle with the real digest -- byte length cannot change.
    manifest = ShmManifest(
        segment="",
        buffers=tuple(specs),
        blob_offset=blob_offset,
        blob_nbytes=len(blob),
        payload_nbytes=payload_nbytes,
        digest="0" * 64,
    )

    while True:
        name = SEGMENT_PREFIX + secrets.token_hex(4)
        sized = replace(manifest, segment=name)
        header = pickle.dumps(sized, protocol=_PROTOCOL)
        total = _HEADER.size + len(header) + payload_nbytes
        try:
            shm = shared_memory.SharedMemory(create=True, size=max(total, 1), name=name)
        except FileExistsError:  # pragma: no cover - 32-bit token collision
            continue
        break

    payload_offset = _HEADER.size + len(header)
    buf = shm.buf
    for spec, arr in zip(specs, prepared):
        if spec.nbytes:
            start = payload_offset + spec.offset
            view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=buf, offset=start)
            view[...] = arr
            del view  # release the exported pointer before any close()
    if blob:
        start = payload_offset + blob_offset
        buf[start : start + len(blob)] = blob
    digest = hashlib.sha256(
        buf[payload_offset : payload_offset + payload_nbytes]
    ).hexdigest()
    final = replace(sized, digest=digest)
    header = pickle.dumps(final, protocol=_PROTOCOL)
    assert _HEADER.size + len(header) + payload_nbytes == total
    buf[: _HEADER.size] = _HEADER.pack(len(header))
    buf[_HEADER.size : payload_offset] = header

    state = SharedState(shm, final)
    _OWNED[state.name] = state
    return state


# -- attach side ------------------------------------------------------------------


class Attachment:
    """A worker's handle on one segment: read-only views plus the blob.

    ``context`` caches whatever the consumer decodes from the blob
    (settings, specs, seed metadata), so a worker pays the decode once
    per sweep rather than once per chunk.
    """

    __slots__ = ("segment", "manifest", "arrays", "blob", "context", "_shm")

    def __init__(
        self,
        segment: str,
        manifest: ShmManifest,
        arrays: dict[str, np.ndarray],
        blob: bytes,
        shm: shared_memory.SharedMemory,
    ):
        self.segment = segment
        self.manifest = manifest
        self.arrays = arrays
        self.blob = blob
        self.context: object | None = None
        self._shm = shm

    def close(self) -> None:
        """Drop the mapping if no view escaped; harmless either way.

        A mapping with live exported views cannot be closed (Python
        raises :class:`BufferError`); the views keep the memory valid and
        the *name* is released by the owner's unlink, so tolerating the
        error cannot leak a named segment.
        """
        self.arrays = {}
        self.context = None
        try:
            self._shm.close()
        except BufferError:
            pass


def _open_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to ``name`` without a resource-tracker registration.

    Pre-3.13 ``SharedMemory(name=...)`` registers even pure attachments
    with the resource tracker.  The tracker process is shared by the whole
    process tree and keys on the segment *name*, so attach-side
    registrations (a) collide with the owner's create-side one -- a worker
    exiting would unlink a segment its siblings still use -- and
    (b) cannot be withdrawn symmetrically when several workers attach the
    same segment.  The fix is to not send the registration at all: the
    register call is swapped for a no-op for the duration of the open.
    The owner's create-side registration is untouched, so a hard-crashed
    publisher still gets its segments reaped by the tracker.
    """
    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None  # type: ignore[assignment]
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def attach(name: str) -> Attachment:
    """Attach to segment ``name``, verify its manifest, build read-only views.

    Raises :class:`ValidationError` when the segment is gone (unlinked or
    never published), when its header cannot be parsed, or when the
    payload's SHA-256 does not match the manifest digest.
    """
    try:
        shm = _open_untracked(name)
    except FileNotFoundError:
        raise ValidationError(
            f"shared-memory segment {name!r} does not exist -- it was never "
            "published or has already been unlinked by its owner"
        ) from None
    try:
        buf = shm.buf
        if shm.size < _HEADER.size:
            raise ValidationError(f"segment {name!r} is too small to hold a manifest")
        (header_len,) = _HEADER.unpack(bytes(buf[: _HEADER.size]))
        if header_len <= 0 or _HEADER.size + header_len > shm.size:
            raise ValidationError(f"segment {name!r} has a corrupt manifest header")
        try:
            manifest = pickle.loads(bytes(buf[_HEADER.size : _HEADER.size + header_len]))
        except Exception:
            raise ValidationError(f"segment {name!r} manifest does not unpickle") from None
        if not isinstance(manifest, ShmManifest):
            raise ValidationError(f"segment {name!r} header is not a ShmManifest")
        if manifest.segment != name:
            raise ValidationError(
                f"segment {name!r} carries a manifest for {manifest.segment!r}"
            )
        payload_offset = _HEADER.size + header_len
        if payload_offset + manifest.payload_nbytes > shm.size:
            raise ValidationError(f"segment {name!r} payload exceeds the segment")
        digest = hashlib.sha256(
            buf[payload_offset : payload_offset + manifest.payload_nbytes]
        ).hexdigest()
        if digest != manifest.digest:
            raise ValidationError(
                f"segment {name!r} content hash mismatch "
                f"(manifest {manifest.digest[:12]}..., payload {digest[:12]}...) "
                "-- refusing to attach"
            )
        arrays: dict[str, np.ndarray] = {}
        for spec in manifest.buffers:
            view = np.ndarray(
                spec.shape,
                dtype=np.dtype(spec.dtype),
                buffer=buf,
                offset=payload_offset + spec.offset,
            )
            view.flags.writeable = False
            arrays[spec.name] = view
        start = payload_offset + manifest.blob_offset
        blob = bytes(buf[start : start + manifest.blob_nbytes])
    except Exception:
        try:
            shm.close()
        except BufferError:  # pragma: no cover - partial view escape
            pass
        raise
    return Attachment(name, manifest, arrays, blob, shm)


#: Per-process attachment cache: a worker decodes each sweep once.  Small
#: LRU so long-lived pooled workers do not accumulate mappings of every
#: sweep they ever served.
_CACHE_MAX = 8
_ATTACHED: "OrderedDict[str, Attachment]" = OrderedDict()
_ATTACH_PID: int | None = None


def attach_cached(name: str) -> Attachment:
    """The process-local cached attachment of ``name`` (LRU, pid-guarded)."""
    global _ATTACH_PID
    pid = os.getpid()
    if _ATTACH_PID != pid:
        # Forked children inherit the parent's cache dict; their handles
        # are valid mappings but the bookkeeping must restart.
        _ATTACHED.clear()
        _ATTACH_PID = pid
    cached = _ATTACHED.get(name)
    if cached is not None:
        _ATTACHED.move_to_end(name)
        return cached
    attachment = attach(name)
    _ATTACHED[name] = attachment
    while len(_ATTACHED) > _CACHE_MAX:
        _, evicted = _ATTACHED.popitem(last=False)
        evicted.close()
    return attachment


def _evict_attachment(name: str) -> None:
    attachment = _ATTACHED.pop(name, None)
    if attachment is not None:
        attachment.close()


def context_for(name: str, kind: str, build: Callable[[dict, Mapping[str, np.ndarray]], object]) -> object:
    """The decoded per-sweep context of segment ``name`` (cached).

    ``build(meta, arrays)`` runs once per process per segment; ``meta`` is
    the unpickled blob dict, whose ``"kind"`` must equal ``kind`` (a
    segment published for one engine cannot be executed by another).
    """
    attachment = attach_cached(name)
    if attachment.context is None:
        meta = pickle.loads(attachment.blob)
        if not isinstance(meta, dict) or meta.get("kind") != kind:
            raise ValidationError(
                f"segment {name!r} holds {meta.get('kind') if isinstance(meta, dict) else type(meta).__name__!r} "
                f"state, not {kind!r}"
            )
        attachment.context = build(meta, attachment.arrays)
    return attachment.context


def publish_payload(kind: str, arrays: Mapping[str, np.ndarray], meta: dict) -> SharedState:
    """Publish one engine's shared state: typed ``arrays`` + pickled ``meta``."""
    blob = pickle.dumps({"kind": kind, **meta}, protocol=_PROTOCOL)
    return publish(arrays, blob)


# -- compact task -----------------------------------------------------------------


class ShmTask:
    """The whole per-task payload: ``(segment name, task index)``.

    A sweep chunk's index into the state its segment's blob describes.
    ``__reduce__`` keeps the pickle positional (no field names), so a task
    serialises to ~60 bytes regardless of sweep size -- the regression
    budget is :data:`SHM_TASK_BYTE_BUDGET`.
    """

    __slots__ = ("segment", "index")

    def __init__(self, segment: str, index: int):
        self.segment = segment
        self.index = index

    def __reduce__(self):
        return (ShmTask, (self.segment, self.index))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ShmTask)
            and other.segment == self.segment
            and other.index == self.index
        )

    def __hash__(self) -> int:
        return hash((self.segment, self.index))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ShmTask({self.segment!r}, {self.index})"


# -- seed codec -------------------------------------------------------------------


@dataclass(frozen=True)
class SeedBlock:
    """How to rebuild the sweep's per-trial seed sequences from shm.

    ``spawned`` -- the common case (:func:`repro.util.rng.spawn_seed_sequences`
    on a seeded generator): every child shares the root entropy and pool
    size and differs only in the last spawn-key word, which lives in the
    ``seed_keys`` int64 buffer.  ``entropy`` -- children built from fresh
    integer entropy (the exotic-bit-generator fallback): the ``seed_entropy``
    uint64 buffer holds one word per trial.  ``pickled`` -- anything else
    rides the blob verbatim (still once per sweep, never once per task).
    """

    kind: str
    count: int
    entropy: object = None
    prefix: tuple = ()
    pool_size: int = 4
    seeds: tuple = ()


def _entropy_value(seq: np.random.SeedSequence) -> object:
    entropy = seq.entropy
    if isinstance(entropy, (list, np.ndarray)):
        return tuple(int(e) for e in entropy)
    return entropy


def encode_seed_sequences(
    seeds: Sequence[np.random.SeedSequence],
) -> tuple[SeedBlock, dict[str, np.ndarray]]:
    """Split ``seeds`` into a constant-size :class:`SeedBlock` + typed buffers."""
    seeds = list(seeds)
    count = len(seeds)
    if count and all(type(s) is np.random.SeedSequence for s in seeds):
        first = seeds[0]
        entropy = _entropy_value(first)
        pool = first.pool_size
        key = tuple(first.spawn_key)
        if key and all(
            tuple(s.spawn_key)[:-1] == key[:-1]
            and len(s.spawn_key) == len(key)
            and 0 <= s.spawn_key[-1] < 2**63
            and s.pool_size == pool
            and _entropy_value(s) == entropy
            for s in seeds
        ):
            block = SeedBlock(
                "spawned", count, entropy=entropy, prefix=key[:-1], pool_size=pool
            )
            keys = np.fromiter(
                (s.spawn_key[-1] for s in seeds), dtype=np.int64, count=count
            )
            return block, {"seed_keys": keys}
        if all(
            not s.spawn_key
            and isinstance(_entropy_value(s), int)
            and 0 <= _entropy_value(s) < 2**64
            and s.pool_size == pool
            for s in seeds
        ):
            block = SeedBlock("entropy", count, pool_size=pool)
            words = np.fromiter(
                (_entropy_value(s) for s in seeds), dtype=np.uint64, count=count
            )
            return block, {"seed_entropy": words}
    return SeedBlock("pickled", count, seeds=tuple(seeds)), {}


def seed_sequence_at(
    block: SeedBlock, arrays: Mapping[str, np.ndarray], index: int
) -> np.random.SeedSequence:
    """Rebuild trial ``index``'s seed sequence, bit-identical to the original."""
    if not (0 <= index < block.count):
        raise ValidationError(f"seed index {index} out of range [0, {block.count})")
    if block.kind == "spawned":
        key = block.prefix + (int(arrays["seed_keys"][index]),)
        return np.random.SeedSequence(
            entropy=block.entropy, spawn_key=key, pool_size=block.pool_size
        )
    if block.kind == "entropy":
        return np.random.SeedSequence(
            entropy=int(arrays["seed_entropy"][index]), pool_size=block.pool_size
        )
    return block.seeds[index]


# -- the sweep engine (run_point) -------------------------------------------------


class _SweepContext:
    """Worker-side decoded state of one ``run_point`` sweep."""

    __slots__ = (
        "settings",
        "specs",
        "count",
        "chunk_size",
        "bit_generator",
        "validate",
        "item_config",
        "seed_block",
        "arrays",
    )

    def __init__(self, meta: dict, arrays: Mapping[str, np.ndarray]):
        self.settings = meta["settings"]
        self.specs = meta["specs"]
        self.count = meta["count"]
        self.chunk_size = meta["chunk_size"]
        self.bit_generator = meta["bit_generator"]
        self.validate = meta["validate"]
        self.item_config = meta["item_config"]
        self.seed_block = meta["seed_block"]
        self.arrays = arrays

    def seeds_for(self, start: int, stop: int) -> list[np.random.SeedSequence]:
        return [
            seed_sequence_at(self.seed_block, self.arrays, i)
            for i in range(start, stop)
        ]


def publish_sweep(
    settings,
    specs,
    seeds: Sequence[np.random.SeedSequence],
    *,
    chunk_size: int,
    bit_generator: str = "PCG64",
    validate: bool = True,
    item_config=None,
) -> SharedState:
    """Publish one data point's shared state; tasks then carry only indices."""
    if chunk_size < 1:
        raise ValidationError(f"chunk_size must be >= 1, got {chunk_size}")
    block, arrays = encode_seed_sequences(seeds)
    return publish_payload(
        "sweep",
        arrays,
        {
            "settings": settings,
            "specs": tuple(specs),
            "count": block.count,
            "chunk_size": chunk_size,
            "bit_generator": bit_generator,
            "validate": validate,
            "item_config": item_config,
            "seed_block": block,
        },
    )


def execute_shm_chunk(task: ShmTask) -> dict[str, "AggregateStats"]:
    """Worker entry point of the zero-pickle sweep path.

    Recovers chunk ``task.index``'s bounds from the shared chunk size (the
    boundaries are a function of the trial count alone, so the fold tree
    is the same one the classic path walks), rebuilds the algorithms and
    seeds locally, and folds the chunk through the exact same
    :func:`repro.parallel.tasks.fold_chunk` the classic path uses.
    """
    from repro.parallel.tasks import fold_chunk

    context: _SweepContext = context_for(task.segment, "sweep", _SweepContext)  # type: ignore[assignment]
    start = task.index * context.chunk_size
    stop = min(start + context.chunk_size, context.count)
    if not (0 <= start < stop):
        raise ValidationError(
            f"chunk {task.index} out of range for {context.count} trials "
            f"(chunk_size {context.chunk_size})"
        )
    return fold_chunk(
        context.settings,
        [spec.build() for spec in context.specs],
        context.seeds_for(start, stop),
        bit_generator=context.bit_generator,
        validate=context.validate,
        item_config=context.item_config,
    )


__all__ = [
    "SHM_ENV",
    "SEGMENT_PREFIX",
    "SHM_TASK_BYTE_BUDGET",
    "Attachment",
    "BufferSpec",
    "SeedBlock",
    "SharedState",
    "ShmManifest",
    "ShmTask",
    "active_segments",
    "attach",
    "attach_cached",
    "context_for",
    "encode_seed_sequences",
    "execute_shm_chunk",
    "publish",
    "publish_payload",
    "publish_sweep",
    "seed_sequence_at",
    "shm_enabled",
    "shutdown_shared_state",
]
