"""1-bit random projections (sign random projections).

For vectors ``u, v`` and a random direction ``r`` with iid standard normal
entries, ``Pr[sgn(<u,r>) = sgn(<v,r>)] = 1 − θ(u,v)/π`` (Goemans &
Williamson / Charikar).  With ``h`` independent directions the normalized
Hamming distance between the two h-bit signatures is an unbiased estimator
of ``θ/π``.  Cauchy-distributed entries give the sign-Cauchy variant whose
collision probability tracks the χ² similarity (Li et al., NIPS 2013).
"""

from __future__ import annotations

import numpy as np

from repro.annotations import arr, array_kernel


@array_kernel(
    params={"n": (1, 2**31), "w": (1, 64)},
    args={"signs": arr("n", "32*w", dtype="bool")},
    returns=[arr("n", "w", dtype="uint32", lo=0, hi=2**32 - 1)],
)
def pack_sign_bits(signs: np.ndarray) -> np.ndarray:
    """Pack ``(n, 32*w)`` sign bits into ``(n, w)`` uint32 words.

    Little-endian bit order within each word, matching the paper's
    signature layout: bit ``j`` of word ``k`` is sign ``32*k + j``.
    """
    bits = np.packbits(signs, axis=1, bitorder="little")
    return bits.view(np.uint32)


class SignRandomProjection:
    """Compress float vectors to packed sign bits.

    Parameters
    ----------
    dim:
        Input dimensionality.
    num_bits:
        Signature length; must be a multiple of 32 so signatures pack
        into uint32 words (the paper stores them exactly this way).
    distribution:
        ``"gaussian"`` (angle estimator) or ``"cauchy"`` (χ² variant).
    seed:
        RNG seed for the projection matrix.
    """

    def __init__(
        self,
        dim: int,
        num_bits: int = 128,
        distribution: str = "gaussian",
        seed: int = 0,
    ) -> None:
        if num_bits <= 0 or num_bits % 32 != 0:
            raise ValueError("num_bits must be a positive multiple of 32")
        if distribution not in ("gaussian", "cauchy"):
            raise ValueError("distribution must be 'gaussian' or 'cauchy'")
        self.dim = dim
        self.num_bits = num_bits
        self.distribution = distribution
        rng = np.random.default_rng(seed)
        if distribution == "gaussian":
            self._directions = rng.standard_normal((dim, num_bits))
        else:
            self._directions = rng.standard_cauchy((dim, num_bits))

    @property
    def num_words(self) -> int:
        """uint32 words per signature."""
        return self.num_bits // 32

    def transform(self, data: np.ndarray) -> np.ndarray:
        """Hash ``(n, dim)`` floats into ``(n, num_words)`` uint32."""
        data = np.atleast_2d(np.asarray(data, dtype=np.float64))
        if data.shape[1] != self.dim:
            raise ValueError(
                f"expected dim {self.dim}, got {data.shape[1]}"
            )
        signs = (data @ self._directions) >= 0  # (n, num_bits) bool
        return pack_sign_bits(signs).reshape(len(data), self.num_words)

    def memory_bytes(self, n: int) -> int:
        """Storage for ``n`` signatures."""
        return n * self.num_words * 4

    @staticmethod
    def collision_probability(u: np.ndarray, v: np.ndarray) -> float:
        """Theoretical per-bit agreement probability ``1 − θ/π``."""
        nu = np.linalg.norm(u)
        nv = np.linalg.norm(v)
        if nu == 0 or nv == 0:
            return 1.0
        cos = float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))
        return 1.0 - np.arccos(cos) / np.pi
