"""Approximate Gamma: a sound, local interval query over one kernel.

The paper's guarantee is exact -- a secure view is Gamma-private when
every private module's exact Gamma meets its requirement -- and the
safe-subset solvers compute that exact Gamma.  This module answers a
narrower question: *roughly where* does one visibility pair's Gamma lie,
without an exact count over every row?  :meth:`ApproxGammaEstimator.interval`
(and the kernel-level :func:`kernel_sample_interval`) return a
:class:`GammaInterval` whose lower end is deterministic and whose upper
end holds with the requested confidence.  It runs against the relation's
local kernel only; nothing here crosses the service wire.

Measured on E12's ``scaled_structure`` relations (2-core VM), the exact
frontier beat a sampled solver at every scale up to 2*10^6 rows, so no
solver uses this module.  What stays is the one case it measured
faster: a single interval query on a *warm* kernel at 2*10^6 rows
(19-28 ms against 27-63 ms for an exact count on the same kernel),
at the price of a wide interval.

Estimator
---------
The partition by visible-input projection is taken exactly from the
shared kernel (it is the cheap half of an entry, cached and reused by
the exact path).  Each block ``b`` of size ``m_b`` is a *stratum*; the
sampler draws ``s_b`` rows without replacement via an incremental
Fisher-Yates stream seeded from ``(seed, structure signature,
visibility pair, block id)`` -- a pure function, so estimates are
byte-identical across processes and runs.  From the sample it observes
``d_b`` distinct visible-output projections of which ``f1_b`` are
singletons, and bounds the true distinct count ``D_b``:

* lower: ``D_b >= d_b`` -- deterministic, so every *safety* claim made
  from lower bounds is sound regardless of sampling luck;
* upper: ``D_b <= d_b + ceil((f1_b/s_b + 1/s_b + eps) * m_b)`` (capped
  by ``m_b - s_b`` and the visible-output space), a Good-Turing
  missing-mass bound: unseen projections occupy at most the missing
  mass, the Good-Turing estimate ``f1_b/s_b`` of which is biased by at
  most ``1/s_b`` and concentrates at the Hoeffding rate
  ``eps = sqrt(ln(2/delta) / (2 s_b))`` (McDiarmid bounded differences).
  ``eps`` is the *minimum* of that and the empirical-Bernstein
  (Maurer-Pontil) bound on the singleton rate, which wins when the rate
  is near 0 or 1.

``Gamma = H * min_b D_b`` (``H`` = hidden-output completions), so the
interval is ``[H * min over all blocks of the lower bounds (unsampled
blocks contribute 1), H * min over sampled blocks of the upper bounds]``.
The adaptive refinement loop targets exactly the blocks whose scaled
lower bound still sits under the decision limit and resolves them
*exactly* in one batched stratum pass (certifying an upper bound below
a threshold on a near-deterministic block needs Omega(block) samples
anyway, so graduated resampling would only add rounds of row-by-row
work); round ``r`` spends failure budget
``delta_r = (1 - confidence) / 2**r`` split over its sampled blocks, so
*every* round's bounds hold simultaneously with probability >=
confidence and any stopping rule is valid.  An exhausted block is
exact, so threshold questions always terminate with a definite answer
(and a budget >= the row count degenerates to the exact Gamma, byte for
byte).
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.errors import PrivacyError
from repro.privacy.columnar import WORD_BYTES
from repro.privacy.kernel_registry import (
    GammaKernelRegistry,
    RelationStructure,
    SharedGammaKernel,
)
from repro.privacy.relations import Attribute

#: Default total row-sample budget per estimate.
DEFAULT_BUDGET = 4096
#: Default two-sided interval confidence.
DEFAULT_CONFIDENCE = 0.95
#: Default RNG seed -- fixed, so every entry point is reproducible unless
#: the caller explicitly varies it.
DEFAULT_SEED = 0
#: Minimum rows sampled from any selected block (before exhaustion).
MIN_BLOCK_SAMPLES = 8


# ---------------------------------------------------------------------- #
# Concentration bounds
# ---------------------------------------------------------------------- #
def hoeffding_epsilon(samples: int, delta: float) -> float:
    """Hoeffding deviation bound for a [0, 1]-valued mean of ``samples``."""
    if not 0.0 < delta < 1.0:
        raise PrivacyError(f"delta must be in (0, 1), got {delta!r}")
    if samples <= 0:
        return float("inf")
    return math.sqrt(math.log(1.0 / delta) / (2.0 * samples))


def empirical_bernstein_epsilon(mean: float, samples: int, delta: float) -> float:
    """Empirical-Bernstein (Maurer-Pontil) bound for a [0, 1]-valued mean.

    Plugs in the Bernoulli variance ``mean * (1 - mean)`` of the observed
    rate; tighter than Hoeffding when the rate sits near 0 or 1 (the
    common case for singleton fractions of heavily-repeated projections).
    """
    if not 0.0 < delta < 1.0:
        raise PrivacyError(f"delta must be in (0, 1), got {delta!r}")
    if samples <= 1:
        return float("inf")
    variance = mean * (1.0 - mean)
    log_term = math.log(2.0 / delta)
    return math.sqrt(2.0 * variance * log_term / samples) + 7.0 * log_term / (
        3.0 * (samples - 1)
    )


def _unseen_allowance(
    singletons: int, drawn: int, size: int, delta: float
) -> int:
    """Upper bound on distinct projections a block hides from its sample."""
    rate = singletons / drawn
    epsilon = min(
        hoeffding_epsilon(drawn, delta / 2.0),
        empirical_bernstein_epsilon(rate, drawn, delta / 2.0),
    )
    missing = rate + 1.0 / drawn + epsilon
    if missing >= 1.0:
        return size - drawn
    return min(size - drawn, math.ceil(missing * size))


# ---------------------------------------------------------------------- #
# Request / result value types
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class SampleSpec:
    """The parameters of one sampled Gamma estimate.

    Reproducibility contract: an estimate is a pure function of
    ``(structure signature, visibility pair, spec)``.  Per-block RNG
    streams hash the seed together with the signature, the visibility
    pair and the block id, never process state, so the same spec
    returns the same interval in every process.
    """

    budget: int = DEFAULT_BUDGET
    confidence: float = DEFAULT_CONFIDENCE
    seed: int = DEFAULT_SEED
    #: Decide ``Gamma >= threshold``: refine until the interval no longer
    #: straddles it (always terminates -- exhausted blocks are exact).
    threshold: int | None = None
    #: Refine until ``(upper - lower) / 2`` is at most this.
    target_half_width: float | None = None
    #: Anytime cap on refinement rounds (``None`` = run to decision).
    max_rounds: int | None = None
    min_block_samples: int = MIN_BLOCK_SAMPLES

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise PrivacyError(f"sample budget must be >= 1, got {self.budget!r}")
        if not 0.0 < self.confidence < 1.0:
            raise PrivacyError(
                f"confidence must be in (0, 1), got {self.confidence!r}"
            )
        if self.threshold is not None and self.threshold < 1:
            raise PrivacyError(f"threshold must be >= 1, got {self.threshold!r}")
        if self.target_half_width is not None and self.target_half_width < 0:
            raise PrivacyError(
                f"target half-width must be >= 0, got {self.target_half_width!r}"
            )
        if self.max_rounds is not None and self.max_rounds < 1:
            raise PrivacyError(f"max_rounds must be >= 1, got {self.max_rounds!r}")
        if self.min_block_samples < 1:
            raise PrivacyError(
                f"min_block_samples must be >= 1, got {self.min_block_samples!r}"
            )

    def cache_token(self) -> tuple:
        """Codec-stable cache-key tail (floats via ``repr``, None via sentinels)."""
        return (
            self.budget,
            self.seed,
            repr(self.confidence),
            -1 if self.threshold is None else self.threshold,
            "-" if self.target_half_width is None else repr(self.target_half_width),
            -1 if self.max_rounds is None else self.max_rounds,
            self.min_block_samples,
        )


@dataclass(frozen=True)
class GammaInterval:
    """A confidence interval for one Gamma evaluation.

    ``lower`` is deterministic (safety certifications made from it are
    sound unconditionally); ``lower <= Gamma <= upper`` holds with
    probability >= ``confidence``.  ``exact`` means every block was
    sampled to exhaustion, so ``lower == upper == Gamma``.
    """

    lower: int
    upper: int
    confidence: float
    samples_used: int
    rounds: int
    exact: bool
    blocks: int
    sampled_blocks: int

    @property
    def half_width(self) -> float:
        """Half the interval width, in Gamma units."""
        return (self.upper - self.lower) / 2.0

    def contains(self, gamma: int) -> bool:
        """Whether ``gamma`` lies inside the interval."""
        return self.lower <= gamma <= self.upper

    @classmethod
    def from_payload(
        cls, payload: Iterable[int], confidence: float
    ) -> "GammaInterval":
        lower, upper, samples_used, rounds, exact, blocks, sampled = (
            int(value) for value in payload
        )
        return cls(
            lower=lower,
            upper=upper,
            confidence=float(confidence),
            samples_used=samples_used,
            rounds=rounds,
            exact=bool(exact),
            blocks=blocks,
            sampled_blocks=sampled,
        )


# ---------------------------------------------------------------------- #
# Deterministic without-replacement sampling
# ---------------------------------------------------------------------- #
def _block_seed(
    seed: int,
    signature: str,
    visible_inputs: tuple[int, ...],
    visible_outputs: tuple[int, ...],
    block: int,
) -> int:
    material = repr(
        (int(seed), signature, visible_inputs, visible_outputs, int(block))
    ).encode("ascii")
    return int.from_bytes(
        hashlib.blake2b(material, digest_size=8).digest(), "big"
    )


class _BlockSampler:
    """Incremental without-replacement position stream for one block.

    Partial Fisher-Yates over a sparse overlay: drawing ``k`` more
    positions costs O(k) regardless of the block size, and drawing in
    installments yields exactly the prefix of the single-installment
    permutation -- so the refinement loop's doubling schedule never
    changes which rows a given sample size sees.
    """

    __slots__ = ("_rng", "_size", "_drawn", "_overlay")

    def __init__(self, seed: int, size: int) -> None:
        self._rng = random.Random(seed)
        self._size = size
        self._drawn = 0
        self._overlay: dict[int, int] = {}

    @property
    def drawn(self) -> int:
        return self._drawn

    def draw(self, count: int) -> list[int]:
        """The next ``count`` sampled positions (fewer once exhausted)."""
        fresh = []
        while count > 0 and self._drawn < self._size:
            swap = self._rng.randrange(self._drawn, self._size)
            fresh.append(self._overlay.get(swap, swap))
            self._overlay[swap] = self._overlay.get(self._drawn, self._drawn)
            self._drawn += 1
            count -= 1
        return fresh


# ---------------------------------------------------------------------- #
# The estimator core
# ---------------------------------------------------------------------- #
def _estimate_payload(
    kernel: SharedGammaKernel,
    visible_inputs: tuple[int, ...],
    visible_outputs: tuple[int, ...],
    spec: SampleSpec,
) -> tuple[int, ...]:
    structure = kernel.structure
    rows = structure.row_count
    hidden_combinations = 1
    visible_set = set(visible_outputs)
    for index, size in enumerate(structure.output_domain_sizes):
        if index not in visible_set:
            hidden_combinations *= size
    if rows == 0:
        return (0, 0, 0, 0, 1, 0, 0)
    visible_space = 1
    for index in visible_outputs:
        visible_space *= structure.output_domain_sizes[index]
    partition = kernel.partition(visible_inputs)
    sizes = kernel.table.block_sizes(partition)
    blocks = len(sizes)
    delta_total = 1.0 - spec.confidence

    max_active = max(1, spec.budget // max(spec.min_block_samples, 1))
    if blocks <= max_active:
        # Every block is sampled: reuse the kernel's canonical per-prefix
        # order (the incremental ``("strata", VI)`` cache shared with
        # ``exhaust_distincts`` and later estimates on the same prefix).
        active = list(range(blocks))
        order, offsets = kernel.strata(visible_inputs)
        slot_of: dict[int, int] | None = None
    else:
        # More blocks than the budget can cover at the per-block minimum:
        # sample the largest ones -- small blocks have small candidate
        # counts anyway, and the deterministic lower bound keeps them
        # from being over-claimed.  With most blocks never touched, full
        # strata would be wasted work *and* wasted cache bytes, so this
        # path switches to *sampled strata construction*: the kernel
        # gathers just the active blocks in one linear pass and caches
        # the partial order, so later estimates on the same prefix
        # (any seed or confidence) read plain slices.
        active_blocks, order, offsets = kernel.sampled_strata(
            visible_inputs, max_active
        )
        active = list(active_blocks)
        slot_of = {block: slot for slot, block in enumerate(active)}

    # Refinement can pull in blocks outside the cached active set (a
    # never-sampled block's deterministic cap may straddle the decision
    # limit); those few are gathered lazily per estimate.
    extra_rows: dict[int, object] = {}

    def ensure_rows(targets: list[int]) -> None:
        if slot_of is None:
            return
        missing = [
            block
            for block in targets
            if block not in slot_of and block not in extra_rows
        ]
        if missing:
            extra_rows.update(kernel.table.block_rows(partition, missing))

    def rows_of(block: int):
        if slot_of is None:
            return order[offsets[block] : offsets[block + 1]]
        slot = slot_of.get(block)
        if slot is None:
            return extra_rows[block]
        return order[offsets[slot] : offsets[slot + 1]]

    samplers: dict[int, _BlockSampler] = {}
    drawn: dict[int, list[int]] = {}
    full: set[int] = set()
    stats: dict[int, tuple[int, int]] = {}
    samples_used = 0
    rounds = 0

    def allocation(size: int) -> int:
        share = (spec.budget * size) // rows
        return min(size, max(spec.min_block_samples, share, 1))

    def drawn_count(block: int) -> int:
        return sizes[block] if block in full else len(drawn.get(block, ()))

    def draw(block: int, count: int) -> int:
        nonlocal samples_used
        sampler = samplers.get(block)
        if sampler is None:
            sampler = _BlockSampler(
                _block_seed(
                    spec.seed,
                    structure.signature,
                    visible_inputs,
                    visible_outputs,
                    block,
                ),
                sizes[block],
            )
            samplers[block] = sampler
            drawn[block] = []
        fresh = sampler.draw(count)
        drawn[block].extend(fresh)
        samples_used += len(fresh)
        return len(fresh)

    def recount(targets: list[int]) -> None:
        ensure_rows(targets)
        gathered = []
        for block in targets:
            block_rows = rows_of(block)
            gathered.extend(int(block_rows[position]) for position in drawn[block])
        tallies = kernel.table.sample_distincts(
            partition, gathered, visible_outputs
        )
        for block in targets:
            stats[block] = tallies[block]

    def exhaust(targets: list[int]) -> int:
        """Count ``targets`` exactly in one batched stratum pass."""
        nonlocal samples_used
        progressed = 0
        for block in targets:
            progressed += sizes[block] - drawn_count(block)
            full.add(block)
        if slot_of is None:
            tallies = kernel.table.exhaust_distincts(
                partition, order, offsets, targets, visible_outputs
            )
        elif targets:
            ensure_rows(targets)
            tallies = kernel.table.sample_distincts(
                partition,
                kernel.table.concat_rows([rows_of(block) for block in targets]),
                visible_outputs,
            )
        else:
            tallies = {}
        for block in targets:
            stats[block] = tallies[block]
        samples_used += progressed
        return progressed

    def delta_block() -> float:
        # Round r's bounds spend failure budget delta_total / 2**r, split
        # over its sampled blocks -- a union bound over every round makes
        # any adaptive stopping rule valid.
        return delta_total / (2.0**rounds) / max(len(stats), 1)

    def block_upper(block: int, delta: float) -> int:
        stat = stats.get(block)
        size = sizes[block]
        if stat is None:
            # Never sampled: a block of ``size`` rows holds at most
            # ``size`` distinct projections -- a free deterministic cap.
            return min(size, visible_space)
        distinct, singletons = stat
        sampled = drawn_count(block)
        if sampled >= size:
            return distinct
        return min(
            distinct + _unseen_allowance(singletons, sampled, size, delta),
            size,
            visible_space,
        )

    def bounds() -> tuple[int, int]:
        delta = delta_block()
        lower_min: int | None = None
        upper_min: int | None = None
        for block in range(blocks):
            stat = stats.get(block)
            block_lower = 1 if stat is None else stat[0]
            upper = block_upper(block, delta)
            if lower_min is None or block_lower < lower_min:
                lower_min = block_lower
            if upper_min is None or upper < upper_min:
                upper_min = upper
        assert lower_min is not None and upper_min is not None
        return hidden_combinations * lower_min, hidden_combinations * upper_min

    def refinement_targets(limit: int) -> list[int]:
        """Unexhausted blocks whose scaled lower bound sits below ``limit``,
        most promising first.

        Ranked by current upper bound: Gamma is a *min* over blocks, so
        the block most likely to pin the interval -- in either direction
        -- is the one whose upper bound is already smallest.
        """
        delta = delta_block()
        targets = []
        for block in range(blocks):
            stat = stats.get(block)
            distinct = 1 if stat is None else stat[0]
            if (
                hidden_combinations * distinct < limit
                and drawn_count(block) < sizes[block]
            ):
                targets.append(block)
        targets.sort(key=lambda block: (block_upper(block, delta), sizes[block], block))
        return targets

    sampled_blocks = []
    exhausted_blocks = []
    for block in active:
        count = allocation(sizes[block])
        if count >= sizes[block]:
            exhausted_blocks.append(block)
        else:
            draw(block, count)
            sampled_blocks.append(block)
    recount(sampled_blocks)
    exhaust(exhausted_blocks)
    rounds = 1
    wave = max(1, spec.min_block_samples)

    while True:
        lower, upper = bounds()
        if spec.max_rounds is not None and rounds >= spec.max_rounds:
            break
        if spec.threshold is not None and lower < spec.threshold <= upper:
            targets = refinement_targets(spec.threshold)
        elif (
            spec.target_half_width is not None
            and (upper - lower) / 2.0 > spec.target_half_width
        ):
            targets = refinement_targets(upper)
        else:
            break
        if not targets:  # pragma: no cover - a straddle implies a target
            break
        rounds += 1
        # Resolve a geometrically growing wave of the most promising
        # straddling blocks *exactly*, in one batched stratum pass per
        # round.  Rejection (``upper`` < limit) needs only ONE block
        # pinned low, so small waves usually decide it; certifying
        # safety tightens block by block and at worst exhausts them all
        # -- on a near-deterministic block any sampler must touch
        # Omega(block) rows to certify its upper bound anyway, so
        # graduated resampling would only add rounds of row-by-row work.
        if exhaust(targets[:wave]) == 0:  # pragma: no cover - unexhausted
            break
        wave *= 4

    exact = all(drawn_count(block) >= sizes[block] for block in range(blocks))
    return (lower, upper, samples_used, rounds, int(exact), blocks, len(stats))


def kernel_sample_interval(
    kernel: SharedGammaKernel,
    visible_inputs: tuple[int, ...],
    visible_outputs: tuple[int, ...],
    spec: SampleSpec,
) -> GammaInterval:
    """Sampled Gamma interval for one visibility pair of one kernel.

    :class:`ApproxGammaEstimator` calls this on its relation's kernel.
    Finished payloads are memoized in the kernel's LRU (key kind
    ``"sample"``), sharing byte accounting with exact entries.
    """
    visible_inputs = tuple(int(index) for index in visible_inputs)
    visible_outputs = tuple(int(index) for index in visible_outputs)

    def compute() -> tuple[tuple[int, ...], int]:
        payload = _estimate_payload(kernel, visible_inputs, visible_outputs, spec)
        return payload, max(payload[2], 1) * WORD_BYTES

    payload = kernel.sample_entry(
        (visible_inputs, visible_outputs) + spec.cache_token(), compute
    )
    return GammaInterval.from_payload(payload, spec.confidence)


# ---------------------------------------------------------------------- #
# Relation-facing estimator
# ---------------------------------------------------------------------- #
class ApproxGammaEstimator:
    """Sampled Gamma intervals for one relation's hidden-attribute sets,
    evaluated against the relation's local kernel."""

    def __init__(
        self,
        relation,
        *,
        budget: int = DEFAULT_BUDGET,
        confidence: float = DEFAULT_CONFIDENCE,
        seed: int = DEFAULT_SEED,
        max_rounds: int | None = None,
        min_block_samples: int = MIN_BLOCK_SAMPLES,
    ) -> None:
        self._relation = relation
        self.budget = budget
        self.confidence = confidence
        self.seed = seed
        self.max_rounds = max_rounds
        self.min_block_samples = min_block_samples
        # Validate eagerly (SampleSpec carries the range checks).
        self.spec_for()

    def spec_for(
        self,
        *,
        threshold: int | None = None,
        target_half_width: float | None = None,
    ) -> SampleSpec:
        """The :class:`SampleSpec` one estimate of this estimator uses."""
        return SampleSpec(
            budget=self.budget,
            confidence=self.confidence,
            seed=self.seed,
            threshold=threshold,
            target_half_width=target_half_width,
            max_rounds=self.max_rounds,
            min_block_samples=self.min_block_samples,
        )

    def interval(
        self,
        hidden: Iterable[str],
        *,
        threshold: int | None = None,
        target_half_width: float | None = None,
    ) -> GammaInterval:
        """Sampled Gamma interval for hiding ``hidden``."""
        visible_inputs, visible_outputs = self._relation.visibility_of(hidden)
        spec = self.spec_for(
            threshold=threshold, target_half_width=target_half_width
        )
        return kernel_sample_interval(
            self._relation.kernel, visible_inputs, visible_outputs, spec
        )


# ---------------------------------------------------------------------- #
# Structure-level relation adapter (scaled workloads)
# ---------------------------------------------------------------------- #
class KernelRelation:
    """A relation-shaped adapter over a canonical structure.

    Scaled workloads (E12's million-row relations) never materialize a
    row *mapping* -- only the canonical column table exists.  This class
    exposes exactly the surface the exact solver and the frontier sweep use
    (``attributes`` / ``attribute_names`` / ``visibility_of`` /
    ``achieved_gamma`` / ``hiding_cost`` / ``max_gamma`` / ``kernel`` /
    ``structure_signature``) on top of a shared Gamma kernel, with
    positional attribute names ``i0..``/``o0..`` and unit weights unless
    overridden.
    """

    def __init__(
        self,
        module_id: str,
        structure: RelationStructure,
        *,
        registry: GammaKernelRegistry | None = None,
        weights: Mapping[str, float] | None = None,
    ) -> None:
        self.module_id = module_id
        self._kernel = (
            registry.ensure_kernel(structure)
            if registry is not None
            else SharedGammaKernel(structure)
        )
        weights = dict(weights or {})
        self.inputs = tuple(
            Attribute(
                f"i{position}",
                tuple(range(size)),
                "input",
                weights.get(f"i{position}", 1.0),
            )
            for position, size in enumerate(structure.input_domain_sizes)
        )
        self.outputs = tuple(
            Attribute(
                f"o{position}",
                tuple(range(size)),
                "output",
                weights.get(f"o{position}", 1.0),
            )
            for position, size in enumerate(structure.output_domain_sizes)
        )

    @property
    def attributes(self) -> tuple[Attribute, ...]:
        """All attributes, inputs first (the solver cost surface)."""
        return self.inputs + self.outputs

    def attribute_names(self) -> tuple[str, ...]:
        """Names of all attributes, inputs first."""
        return tuple(attribute.name for attribute in self.attributes)

    @property
    def kernel(self) -> SharedGammaKernel:
        """The shared Gamma kernel backing this adapter."""
        return self._kernel

    @property
    def structure_signature(self) -> RelationStructure:
        """The canonical structure (service requests ship this)."""
        return self._kernel.structure

    def visibility_of(
        self, hidden: Iterable[str]
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(visible-input, visible-output) index pair for ``hidden``."""
        hidden_set = set(hidden)
        unknown = hidden_set - set(self.attribute_names())
        if unknown:
            raise PrivacyError(
                f"unknown attributes for module {self.module_id!r}: "
                f"{sorted(unknown)!r}"
            )
        visible_inputs = tuple(
            index
            for index, attribute in enumerate(self.inputs)
            if attribute.name not in hidden_set
        )
        visible_outputs = tuple(
            index
            for index, attribute in enumerate(self.outputs)
            if attribute.name not in hidden_set
        )
        return visible_inputs, visible_outputs

    def achieved_gamma(self, hidden: Iterable[str]) -> int:
        """Exact Gamma when hiding ``hidden`` (the oracle path)."""
        _, _, gamma = self._kernel.entry(*self.visibility_of(hidden))
        return gamma

    def hiding_cost(self, hidden: Iterable[str]) -> float:
        """Total weight of the hidden attributes."""
        hidden_set = set(hidden)
        return sum(
            attribute.weight
            for attribute in self.attributes
            if attribute.name in hidden_set
        )

    def max_gamma(self) -> int:
        """The best achievable Gamma (hide everything)."""
        return self.achieved_gamma(self.attribute_names())

    def __repr__(self) -> str:
        return (
            f"KernelRelation(module={self.module_id!r}, "
            f"rows={self._kernel.structure.row_count})"
        )
