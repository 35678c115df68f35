"""Declared hyperparameter domains and uniform sampling over them."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, Iterator, Mapping, Sequence

from stagedml.rng import Rng


@dataclass(frozen=True)
class Categorical:
    values: tuple

    def __init__(self, values: Sequence) -> None:
        object.__setattr__(self, "values", tuple(values))

    def contains(self, v: Any) -> bool:
        # a value of another type (True for 1, 1.0 for 1) would be a second key for one model
        return any(type(v) is type(d) and v == d for d in self.values)

    def sample(self, rng: Rng) -> Any:
        return rng.choice(self.values)

    @property
    def enumerable(self) -> bool:
        return True

    @property
    def size(self) -> int:
        return len(self.values)

    def enumerate(self) -> Iterator:
        return iter(self.values)

    def to_json(self) -> dict:
        return {"type": "categorical", "values": list(self.values)}


@dataclass(frozen=True)
class IntRange:
    lo: int
    hi: int  # inclusive

    def contains(self, v: Any) -> bool:
        return isinstance(v, int) and not isinstance(v, bool) and self.lo <= v <= self.hi

    def sample(self, rng: Rng) -> int:
        return rng.randint(self.lo, self.hi)

    @property
    def enumerable(self) -> bool:
        return True

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    def enumerate(self) -> Iterator[int]:
        return iter(range(self.lo, self.hi + 1))

    def to_json(self) -> dict:
        return {"type": "int_range", "lo": self.lo, "hi": self.hi}


@dataclass(frozen=True)
class LogUniform:
    lo: float
    hi: float

    def contains(self, v: Any) -> bool:
        return isinstance(v, (int, float)) and not isinstance(v, bool) and self.lo <= v <= self.hi

    def sample(self, rng: Rng) -> float:
        return min(self.hi, max(self.lo, rng.log_uniform(self.lo, self.hi)))

    @property
    def enumerable(self) -> bool:
        return False

    @property
    def size(self) -> int:
        raise TypeError("log-uniform domains are not enumerable")

    def to_json(self) -> dict:
        return {"type": "log_uniform", "lo": self.lo, "hi": self.hi}


ParamSpace = Mapping[str, Categorical | IntRange | LogUniform]


def sample_from_space(space: ParamSpace, rng: Rng) -> dict:
    """One independent uniform draw per declared parameter."""
    return {name: dom.sample(rng) for name, dom in space.items()}


def validate_params(space: ParamSpace, params: Mapping) -> None:
    for name, value in params.items():
        if name not in space:
            raise ValueError(f"unknown parameter {name!r}; declared: {sorted(space)}")
        if not space[name].contains(value):
            raise ValueError(f"parameter {name}={value!r} outside its declared domain")


def space_is_enumerable(space: ParamSpace) -> bool:
    return all(dom.enumerable for dom in space.values())


def space_grid_size(space: ParamSpace) -> int:
    return math.prod(dom.size for dom in space.values()) if space else 1


def enumerate_grid(space: ParamSpace) -> Iterator[dict]:
    """Cartesian product in declared parameter order."""
    names = list(space)
    for combo in itertools.product(*(space[n].enumerate() for n in names)):
        yield dict(zip(names, combo))
