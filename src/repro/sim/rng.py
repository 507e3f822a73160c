"""Reproducible random-number streams for simulations.

Each model component draws from its own named stream so that changing one
component's consumption pattern does not perturb the others (common random
numbers across configurations).  Streams are derived deterministically from
a master seed and the stream name.

This module is the *only* place in the package that may import the global
:mod:`random` module or :mod:`numpy.random`; the ``repro lint`` rule SIM001
enforces that every other module receives an :class:`RngStream` (or a
:class:`RandomStreams` family, or a uniform block source) from its caller,
so all randomness is seeded and auditable.

The block sources back the lockstep replication engine
(:mod:`repro.sim.batched`), whose variate tables draw their uniforms
through :func:`uniform_block_source`.  Their defining property is
*bit-identity* with the scalar streams: :func:`mt19937_generator`
transplants the Mersenne Twister state of ``random.Random(seed)`` into a
``numpy.random.Generator(MT19937)`` — both produce 53-bit doubles by the
same ``genrand_res53`` construction — so uniform blocks drawn vectorized
are the exact sequence ``RngStream(seed).random()`` would produce one call
at a time.
"""

from __future__ import annotations

import hashlib
import random  # lint: disable=SIM001 - the one sanctioned import site
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np
import numpy.random as np_random  # lint: disable=SIM001 - sanctioned site


#: The call names that derive a new stream from a parent seed path:
#: ``RandomStreams.stream`` / ``.spawn`` and :func:`spawn_seed`.  The
#: whole-program lint (:mod:`repro.lint.project`) indexes string literals
#: at exactly these call sites for its SIM006 stream-collision rule; a
#: regression test pins the two vocabularies together so the analyzer can
#: never silently drift from the runtime's derivation surface.
DERIVATION_CALLS = frozenset({"stream", "spawn", "spawn_seed"})


def spawn_seed(master_seed: int, *keys: object) -> int:
    """Derive an independent 64-bit child seed from a master seed and keys.

    The derivation hashes the master seed together with the string forms of
    ``keys`` (a figure id, a configuration triplet, an intensity, …), so
    every distinct key path gets a statistically independent stream while
    staying a pure function of its inputs — the property the parallel sweep
    runner's content-addressed cache relies on.  This is the spawn-key
    scheme of :meth:`RandomStreams.spawn` exposed for flat, keyed use.
    """
    material = "/".join([str(int(master_seed))] + [str(key) for key in keys])
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngStream(random.Random):
    """A named, seeded random stream.

    A thin subclass of :class:`random.Random` that carries the name it was
    derived under, so simulation traces and race-detector reports can say
    *which* stream produced a draw.  Every ``rng`` parameter in the package
    is typed against this class; construct one directly for ad-hoc use or
    obtain one from :meth:`RandomStreams.stream`.
    """

    name: str

    def __init__(self, seed: int = 0, name: str = ""):
        super().__init__(seed)
        self.name = name

    def __reduce__(self) -> Tuple[Any, ...]:
        # random.Random's default __reduce__ rebuilds with no ctor args and
        # would drop the stream name on copy/pickle; keep it.
        return (self.__class__, (0, self.name), self.getstate())

    def __setstate__(self, state: Any) -> None:
        self.setstate(state)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RngStream {self.name!r}>"


class RandomStreams:
    """A family of independent, reproducible random streams.

    >>> streams = RandomStreams(seed=42)
    >>> arrivals = streams.stream("arrivals")
    >>> service = streams.stream("service")

    Asking for the same name twice returns the same stream object.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: Dict[str, RngStream] = {}

    def stream(self, name: str) -> RngStream:
        """Return (creating on first use) the stream called ``name``."""
        stream = self._streams.get(name)
        if stream is None:
            digest = hashlib.sha256(f"{self.seed}/{name}".encode()).digest()
            stream = RngStream(int.from_bytes(digest[:8], "big"), name=name)
            self._streams[name] = stream
        return stream

    def spawn(self, name: str) -> "RandomStreams":
        """Derive a child family, for replicas of a subsystem."""
        digest = hashlib.sha256(f"{self.seed}/spawn/{name}".encode()).digest()
        return RandomStreams(int.from_bytes(digest[:8], "big"))

    def names(self) -> Tuple[str, ...]:
        """The stream names derived so far, sorted (introspection hook).

        Lets audits — tests asserting two components do *not* share a
        stream, the static analyzer's fixtures — enumerate exactly which
        streams a family has handed out.
        """
        return tuple(sorted(self._streams))

    # -- distributions ----------------------------------------------------
    def exponential(self, name: str, rate: float) -> float:
        """One exponential variate with the given rate from stream ``name``."""
        if rate <= 0:
            raise ValueError(f"exponential rate must be positive, got {rate}")
        return self.stream(name).expovariate(rate)

    def uniform(self, name: str, low: float = 0.0, high: float = 1.0) -> float:
        """One uniform variate on [low, high) from stream ``name``."""
        return self.stream(name).uniform(low, high)

    def randint(self, name: str, low: int, high: int) -> int:
        """One integer uniform on [low, high] from stream ``name``."""
        return self.stream(name).randint(low, high)

    def choice(self, name: str, options: Sequence[Any]) -> Any:
        """Choose uniformly from ``options`` using stream ``name``."""
        return self.stream(name).choice(options)

    def shuffle(self, name: str, items: list) -> list:
        """Shuffle ``items`` in place using stream ``name``; returns it."""
        self.stream(name).shuffle(items)
        return items


# ---------------------------------------------------------------------------
# Uniform block sources (the lockstep replication engine's randomness)
# ---------------------------------------------------------------------------

#: Default uniforms per refill of a
#: :class:`~repro.sim.batched.VariateTable` row.
BATCH_BLOCK = 256

#: Words in a Mersenne Twister state vector.
_MT_N = 624


def uniform_block_source(seed: int, vectorized: bool = True
                         ) -> "Callable[[int], List[float]]":
    """A callable yielding successive uniform blocks of one scalar stream.

    ``source(n)`` returns the next ``n`` doubles of
    ``random.Random(seed)``'s sequence.  With ``vectorized=True`` the
    blocks come from the state-transplanted numpy generator of
    :func:`mt19937_generator` (fast per block, ~150 microseconds of
    one-time numpy ``MT19937`` construction); with ``vectorized=False``
    they come straight from ``random.Random`` (construction is near-free,
    each block costs a Python comprehension).  Both emit the identical
    bit-exact sequence — callers pick by expected consumption: the numpy
    construction only pays for itself after a few thousand draws.
    """
    if vectorized:
        generator = mt19937_generator(seed)

        def vector_block(count: int) -> List[float]:
            values: List[float] = generator.random(count).tolist()
            return values

        return vector_block
    twister = random.Random(seed)

    def scalar_block(count: int) -> List[float]:
        draw = twister.random
        return [draw() for _ in range(count)]

    return scalar_block


def mt19937_generator(seed: int) -> np_random.Generator:
    """A numpy Generator producing ``random.Random(seed)``'s exact stream.

    ``random.Random`` and numpy's ``MT19937`` bit generator share the
    Mersenne Twister core and the 53-bit double construction
    (``genrand_res53``), but seed it differently — so instead of seeding
    numpy directly, the fully initialized state vector of
    ``random.Random(seed)`` is transplanted into the bit generator.  The
    resulting ``Generator.random(n)`` emits, vectorized, the identical
    sequence of doubles ``random.Random(seed).random()`` yields one call at
    a time (a regression test asserts this for thousands of draws).
    """
    version, internal, _gauss_next = random.Random(seed).getstate()
    if version != 3:  # pragma: no cover - stable since Python 2.6
        raise RuntimeError(f"unexpected random.Random state version {version}")
    key, pos = internal[:_MT_N], internal[_MT_N]
    bit_generator = np_random.MT19937()
    bit_generator.state = {
        "bit_generator": "MT19937",
        "state": {"key": np.array(key, dtype=np.uint32), "pos": pos},
    }
    return np_random.Generator(bit_generator)
