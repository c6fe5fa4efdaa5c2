from __future__ import annotations

from dataclasses import asdict, dataclass, fields


@dataclass(frozen=True)
class EncoderConfig:
    """Shape of the encoder.

    hidden must divide evenly across heads; the per-head width is what the
    attention logits are scaled by.  Defaults are the desk-scale profile.
    """

    layers: int = 2
    heads: int = 4
    hidden: int = 64
    ffn_dim: int = 256
    vocab_size: int = 5000
    max_len: int = 512

    def __post_init__(self) -> None:
        if self.layers < 1 or self.heads < 1 or self.hidden < 1 or self.ffn_dim < 1:
            raise ValueError("layers, heads, hidden, ffn_dim must all be >= 1")
        if self.hidden % self.heads != 0:
            raise ValueError(f"hidden ({self.hidden}) must be divisible by heads ({self.heads})")
        if self.vocab_size < 5:
            raise ValueError("vocab_size must cover at least the special tokens")
        if self.max_len < 2:
            raise ValueError("max_len must be >= 2")

    @property
    def head_dim(self) -> int:
        return self.hidden // self.heads

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "EncoderConfig":
        """Inverse of to_dict.  d must hold every field and nothing else, each
        an int; anything else is a ValueError."""
        if not isinstance(d, dict):
            raise ValueError(f"encoder config must be a mapping, got {type(d).__name__}")
        names = {f.name: f for f in fields(cls)}
        unknown, missing = sorted(set(d) - set(names)), sorted(set(names) - set(d))
        if unknown:
            raise ValueError(f"encoder config has unknown keys {unknown}")
        if missing:
            raise ValueError(f"encoder config is missing keys {missing}")
        for name, f in names.items():
            if isinstance(d[name], bool) or not isinstance(d[name], int):
                raise ValueError(f"encoder config field {name} must be {f.type}, got {d[name]!r}")
        return cls(**d)
