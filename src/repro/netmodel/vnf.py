"""Virtual network functions, service function chains, and requests.

Terminology follows Section 3 of the paper:

* a :class:`VNFType` is a *network function* ``f_i`` from the global set
  ``F = {f_1, ..., f_|F|}``; instantiating it in a VM consumes ``c(f_i)``
  computing resource (MHz in the paper's experiments) and a single instance
  has reliability ``r_i`` with ``0 < r_i <= 1`` regardless of the hosting
  cloudlet (the identical-reliability assumption adopted in Section 3.1);
* a :class:`ServiceFunctionChain` is the ordered chain ``SFC_j`` of a
  request -- functions may repeat within a chain, and each *position* in the
  chain has its own primary instance and its own backups;
* a :class:`Request` couples a chain with a reliability expectation
  ``rho_j`` and (optionally) source/destination APs used by the admission
  framework of Section 4.1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.util.errors import ValidationError
from repro.util.rng import RandomState, as_rng


@dataclass(frozen=True)
class VNFType:
    """A network function ``f`` with computing demand and instance reliability.

    Attributes
    ----------
    name:
        Unique identifier within a :class:`VNFCatalog` (e.g. ``"f7"``, or a
        descriptive name such as ``"firewall"`` in the examples).
    demand:
        Computing resource ``c(f)`` consumed by one VNF instance (MHz).
    reliability:
        Reliability ``r`` of a single instance, ``0 < r <= 1``.
    """

    name: str
    demand: float
    reliability: float

    def __post_init__(self) -> None:
        if self.demand <= 0:
            raise ValidationError(f"VNF {self.name!r}: demand must be > 0, got {self.demand}")
        if not (0.0 < self.reliability <= 1.0):
            raise ValidationError(
                f"VNF {self.name!r}: reliability must be in (0, 1], got {self.reliability}"
            )

    @property
    def log_unreliability(self) -> float:
        """``log(1 - r)``, or ``-inf`` when ``r == 1`` (a perfect instance)."""
        if self.reliability >= 1.0:
            return -math.inf
        return math.log1p(-self.reliability)

    def with_reliability(self, reliability: float) -> "VNFType":
        """Return a copy of this type with a different instance reliability."""
        return VNFType(self.name, self.demand, reliability)


class VNFCatalog:
    """The global set ``F`` of network function types.

    The catalog owns the mapping from function names to :class:`VNFType`
    objects and provides the random draws used by the experiment workloads
    (``|F| = 30`` types with demands in ``U[200, 400]`` MHz in Section 7.1).
    """

    def __init__(self, types: Sequence[VNFType]):
        if not types:
            raise ValidationError("VNFCatalog requires at least one VNF type")
        self._types: dict[str, VNFType] = {}
        for t in types:
            if t.name in self._types:
                raise ValidationError(f"duplicate VNF type name {t.name!r}")
            self._types[t.name] = t
        self._order: list[str] = [t.name for t in types]

    # -- container protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self) -> Iterator[VNFType]:
        return (self._types[name] for name in self._order)

    def __contains__(self, name: object) -> bool:
        return name in self._types

    def __getitem__(self, name: str) -> VNFType:
        try:
            return self._types[name]
        except KeyError:
            raise KeyError(f"unknown VNF type {name!r}") from None

    @property
    def names(self) -> list[str]:
        """Type names in catalog order."""
        return list(self._order)

    # -- constructors --------------------------------------------------------
    @classmethod
    def random(
        cls,
        num_types: int = 30,
        demand_range: tuple[float, float] = (200.0, 400.0),
        reliability_range: tuple[float, float] = (0.8, 0.9),
        rng: RandomState = None,
    ) -> "VNFCatalog":
        """Draw a catalog matching the paper's experimental settings.

        Section 7.1: ``|F| = 30`` network function types, per-function
        computing demand uniform in ``[200, 400]`` MHz, per-function instance
        reliability uniform in ``[0.8, 0.9]`` (varied per experiment).

        Type ``f{i}`` draws its demand, then its reliability.  All
        ``2 * num_types`` values come from one ``gen.uniform`` call over
        the interleaved bounds, which gives the same floats, and leaves the
        generator in the same state, as one scalar call per value.
        """
        if num_types <= 0:
            raise ValidationError(f"num_types must be positive, got {num_types}")
        lo_d, hi_d = demand_range
        lo_r, hi_r = reliability_range
        if not (0.0 < lo_r <= hi_r <= 1.0):
            raise ValidationError(f"invalid reliability range {reliability_range}")
        if not (0.0 < lo_d <= hi_d):
            raise ValidationError(f"invalid demand range {demand_range}")
        gen = as_rng(rng)
        draws = gen.uniform(
            [lo_d, lo_r] * num_types, [hi_d, hi_r] * num_types
        ).tolist()
        types = [
            VNFType(name=f"f{i}", demand=draws[2 * i], reliability=draws[2 * i + 1])
            for i in range(num_types)
        ]
        return cls(types)

    def sample_chain(
        self,
        length: int,
        rng: RandomState = None,
        distinct: bool = False,
    ) -> "ServiceFunctionChain":
        """Draw a random chain of ``length`` functions from the catalog.

        Section 7.1 draws each function uniformly from ``F``; functions may
        repeat within a chain unless ``distinct=True`` is requested (useful
        for tests that need unambiguous per-function accounting).
        """
        if length <= 0:
            raise ValidationError(f"chain length must be positive, got {length}")
        gen = as_rng(rng)
        if distinct:
            if length > len(self):
                raise ValidationError(
                    f"cannot draw {length} distinct functions from a catalog of {len(self)}"
                )
            idx = gen.choice(len(self), size=length, replace=False)
        else:
            idx = gen.integers(0, len(self), size=length)
        funcs = [self._types[self._order[int(i)]] for i in idx]
        return ServiceFunctionChain(funcs)


@dataclass(frozen=True)
class ServiceFunctionChain:
    """An ordered service function chain ``SFC_j = (f_1, ..., f_L)``.

    Chain *positions* are the unit of placement: if the same function type
    appears twice in a chain, each occurrence has its own primary instance
    and is augmented independently, exactly as the per-``i`` indexing of the
    paper's formulation treats it.
    """

    functions: tuple[VNFType, ...]

    def __init__(self, functions: Sequence[VNFType]):
        if not functions:
            raise ValidationError("a service function chain must contain >= 1 function")
        object.__setattr__(self, "functions", tuple(functions))

    def __len__(self) -> int:
        return len(self.functions)

    def __iter__(self) -> Iterator[VNFType]:
        return iter(self.functions)

    def __getitem__(self, i: int) -> VNFType:
        return self.functions[i]

    @property
    def length(self) -> int:
        """``L_j = |SFC_j|``."""
        return len(self.functions)

    @property
    def total_demand(self) -> float:
        """Computing demand of one full set of primary instances."""
        return sum(f.demand for f in self.functions)

    def primaries_reliability(self) -> float:
        """Reliability ``prod_i r_i`` of the chain with primaries only (Eq. page 3)."""
        prod = 1.0
        for f in self.functions:
            prod *= f.reliability
        return prod

    def log_budget(self, rho: float) -> float:
        """The cost budget ``C = -log(rho)`` of Section 4.2 for expectation ``rho``."""
        if not (0.0 < rho <= 1.0):
            raise ValidationError(f"reliability expectation must be in (0, 1], got {rho}")
        return -math.log(rho)


@dataclass(frozen=True)
class Request:
    """An admitted user request with an SFC and a reliability expectation.

    Attributes
    ----------
    name:
        Identifier used in logs and result records.
    chain:
        The request's service function chain ``SFC_j``.
    expectation:
        Reliability expectation ``rho_j`` in ``(0, 1]``.  The augmentation
        budget is ``C = -log(rho_j)``.
    source, destination:
        Optional AP node ids of the request's traffic endpoints; only the
        admission framework (Section 4.1) uses them.
    """

    name: str
    chain: ServiceFunctionChain
    expectation: float
    source: int | None = None
    destination: int | None = None

    def __post_init__(self) -> None:
        if not (0.0 < self.expectation <= 1.0):
            raise ValidationError(
                f"request {self.name!r}: expectation must be in (0, 1], got {self.expectation}"
            )

    @property
    def budget(self) -> float:
        """``C = -log(rho_j)`` -- the total-cost budget of the BMCGAP reduction."""
        return self.chain.log_budget(self.expectation)

    def meets_expectation(self, reliability: float) -> bool:
        """Whether an achieved reliability satisfies ``rho_j`` (with float slack)."""
        return reliability >= self.expectation - 1e-12
