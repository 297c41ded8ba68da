"""Sequence-length distributions for workload generation.

The paper evaluates on WikiText-2-derived request lengths plus three fixed
(prefill, decode) settings: (128, 2048), (2048, 128) and (2048, 2048).

WikiText-2 itself is not shipped with this repository (offline build); instead
``WikiTextLikeDistribution`` draws prompt/output lengths from a seeded
lognormal mixture whose summary statistics match the WikiText-2 article-length
profile (median a few hundred tokens, a heavy tail of multi-thousand-token
articles).  Only the *length distribution* matters to the simulator, so this
substitution preserves the behaviour that drives the evaluation: high variance
across requests, which is exactly what creates sequence-grained pipeline
bubbles.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError


@dataclass(frozen=True)
class LengthSample:
    """One request's prompt and output lengths."""

    prefill_length: int
    decode_length: int


class LengthDistribution:
    """Interface for request-length samplers."""

    name: str = "base"

    def sample(self, rng: np.random.Generator) -> LengthSample:
        raise NotImplementedError

    def sample_many(self, count: int, seed: int | None = 0) -> list[LengthSample]:
        rng = np.random.default_rng(seed)
        return [self.sample(rng) for _ in range(count)]


@dataclass(frozen=True)
class FixedLengthDistribution(LengthDistribution):
    """Every request has the same (LP, LD) lengths."""

    prefill_length: int
    decode_length: int

    def __post_init__(self) -> None:
        if self.prefill_length <= 0 or self.decode_length < 0:
            raise ConfigurationError("fixed lengths must be positive / non-negative")

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"LP={self.prefill_length},LD={self.decode_length}"

    def sample(self, rng: np.random.Generator) -> LengthSample:
        return LengthSample(self.prefill_length, self.decode_length)


@dataclass(frozen=True)
class WikiTextLikeDistribution(LengthDistribution):
    """Heavy-tailed lengths mimicking WikiText-2 article statistics.

    Prompt lengths follow a lognormal with median ~360 tokens and a tail out to
    a few thousand tokens; output lengths follow a lognormal with median ~200
    tokens.  Lengths are clipped to ``[min_length, max_length]``.
    """

    prefill_log_mean: float = 5.9   # median ~ e^5.9 = 365 tokens
    prefill_log_sigma: float = 0.9
    decode_log_mean: float = 5.3    # median ~ e^5.3 = 200 tokens
    decode_log_sigma: float = 0.8
    min_length: int = 16
    max_length: int = 4096
    #: prompt + output may not exceed the serving context window
    max_total_length: int = 4096

    @property
    def name(self) -> str:  # type: ignore[override]
        return "WikiText-2"

    def sample(self, rng: np.random.Generator) -> LengthSample:
        prefill = int(rng.lognormal(self.prefill_log_mean, self.prefill_log_sigma))
        decode = int(rng.lognormal(self.decode_log_mean, self.decode_log_sigma))
        # A scalar np.clip costs several times the two draws; clamp in Python.
        prefill = min(max(prefill, self.min_length), self.max_length)
        decode = min(max(decode, self.min_length), self.max_length)
        if prefill + decode > self.max_total_length:
            prefill = min(prefill, self.max_total_length - self.min_length)
            decode = max(self.min_length, self.max_total_length - prefill)
        return LengthSample(prefill, decode)


@dataclass(frozen=True)
class UniformLengthDistribution(LengthDistribution):
    """Uniform lengths; handy for stress tests and property-based testing."""

    prefill_low: int = 16
    prefill_high: int = 2048
    decode_low: int = 16
    decode_high: int = 2048

    @property
    def name(self) -> str:  # type: ignore[override]
        return "Uniform"

    def sample(self, rng: np.random.Generator) -> LengthSample:
        prefill = int(rng.integers(self.prefill_low, self.prefill_high + 1))
        decode = int(rng.integers(self.decode_low, self.decode_high + 1))
        return LengthSample(prefill, decode)


# The paper's four workload settings.
WIKITEXT2 = WikiTextLikeDistribution()
LP128_LD2048 = FixedLengthDistribution(prefill_length=128, decode_length=2048)
LP2048_LD128 = FixedLengthDistribution(prefill_length=2048, decode_length=128)
LP2048_LD2048 = FixedLengthDistribution(prefill_length=2048, decode_length=2048)

NAMED_DISTRIBUTIONS: dict[str, LengthDistribution] = {
    "wikitext2": WIKITEXT2,
    "lp128_ld2048": LP128_LD2048,
    "lp2048_ld128": LP2048_LD128,
    "lp2048_ld2048": LP2048_LD2048,
}


#: ``lp<prefill>_ld<decode>`` -> FixedLengthDistribution (generalises the
#: paper's three fixed settings to arbitrary lengths, e.g. ``lp384_ld1``)
_FIXED_PATTERN = re.compile(r"^lp(\d+)_ld(\d+)$")
#: ``wikitext2_ldm<float>`` -> WikiText-like lengths with a heavier decode
#: tail (e.g. ``wikitext2_ldm6.5`` for the Fig. 17 KV-pressure sweep)
_WIKITEXT_LDM_PATTERN = re.compile(r"^wikitext2_ldm([0-9]+(?:\.[0-9]+)?)$")


def get_distribution(name: str) -> LengthDistribution:
    """Look up a workload by name.

    Recognises the paper's named settings plus two parametric families:
    ``lp<P>_ld<D>`` (every request has fixed prefill/decode lengths) and
    ``wikitext2_ldm<M>`` (WikiText-like lengths with decode log-mean ``M``),
    which makes every trace the figure drivers use addressable by a string.
    """
    key = name.lower()
    if key in NAMED_DISTRIBUTIONS:
        return NAMED_DISTRIBUTIONS[key]
    match = _FIXED_PATTERN.match(key)
    if match:
        return FixedLengthDistribution(
            prefill_length=int(match.group(1)), decode_length=int(match.group(2))
        )
    match = _WIKITEXT_LDM_PATTERN.match(key)
    if match:
        return WikiTextLikeDistribution(decode_log_mean=float(match.group(1)))
    raise ConfigurationError(
        f"unknown workload '{name}'; known: {sorted(NAMED_DISTRIBUTIONS)} "
        "(or 'lp<P>_ld<D>' / 'wikitext2_ldm<M>')"
    )
