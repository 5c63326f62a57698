"""The one maker of a model's trainable tensors, from random draws or a checkpoint."""

import numpy as np

from claimforge.numerics.rng import Rng
from claimforge.numerics.tensor import Tensor

# where a model's tensors come from: an Rng draws them, a checkpoint's
# name -> array map holds them
ParamSource = Rng | dict[str, np.ndarray]


class Params:
    """Named trainable tensors made from ``source``, in ``tensors`` in creation
    order. A map's array is taken as it is, after its shape is checked."""

    def __init__(self, source: ParamSource):
        self.source = source
        self.tensors: dict[str, Tensor] = {}

    def add(self, name: str, shape: tuple[int, ...], draw) -> None:
        """The tensor ``name``: ``draw(rng)`` of the source ``Rng``, or the map's array."""
        if isinstance(self.source, Rng):
            data = draw(self.source)
        elif name not in self.source:
            raise ValueError(f"checkpoint has no tensor {name!r}")
        else:
            data = self.source[name]
            if data.shape != tuple(shape):
                raise ValueError(f"checkpoint tensor {name!r} has shape {data.shape}, "
                                 f"model expects {tuple(shape)}")
        self.tensors[name] = Tensor(data, requires_grad=True)

    def normal(self, name: str, shape: tuple[int, ...], scale: float) -> None:
        self.add(name, shape, lambda rng: rng.normal(shape, scale))

    def fill(self, name: str, shape: tuple[int, ...], value: float) -> None:
        self.add(name, shape, lambda rng: np.full(shape, float(value)))
