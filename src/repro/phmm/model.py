"""Pair-HMM parameters and emission priors.

Follows GATK's model: gap-open and gap-continuation probabilities come
from fixed Phred-scaled penalties (GATK defaults 45 and 10), emission
priors from the per-base quality scores of the read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sequence.alphabet import encode
from repro.sequence.quality import phred_to_prob


@dataclass(frozen=True)
class HMMParameters:
    """Transition probabilities of the 3-state alignment HMM.

    Derived from Phred-scaled gap penalties: ``delta`` is the gap-open
    probability, ``epsilon`` the gap-continuation probability.
    """

    gap_open_phred: float = 45.0
    gap_continue_phred: float = 10.0

    @property
    def delta(self) -> float:
        """Probability of opening an insertion or deletion."""
        return float(phred_to_prob(self.gap_open_phred))

    @property
    def epsilon(self) -> float:
        """Probability of extending an open gap."""
        return float(phred_to_prob(self.gap_continue_phred))

    def transitions(self) -> dict[str, float]:
        """All six transition probabilities, keyed ``mm, mi, md, im, ii, dd``
        (plus ``dm``); rows out of each state sum to one."""
        d, e = self.delta, self.epsilon
        return {
            "mm": 1.0 - 2.0 * d,
            "mi": d,
            "md": d,
            "im": 1.0 - e,
            "ii": e,
            "dm": 1.0 - e,
            "dd": e,
        }


def read_priors(
    read: str, qualities: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A read's base codes and the two priors each base can take.

    Returns ``(codes, hit, miss)``: base ``i`` is emitted with prior
    ``hit[i] = 1 - err_i`` against an agreeing haplotype base and
    ``miss[i] = err_i / 3`` otherwise, where ``err_i`` comes from the
    read's Phred quality -- exactly GATK's prior.
    """
    if len(qualities) != len(read):
        raise ValueError("one quality per read base required")
    codes = encode(read)
    err = phred_to_prob(qualities)
    return codes, 1.0 - err, err / 3.0


def emission_priors(read: str, qualities: np.ndarray, haplotype: str) -> np.ndarray:
    """Prior probability matrix ``P[i, j]`` of emitting read base ``i``
    against haplotype base ``j`` (see :func:`read_priors`).

    Shape is ``(len(read), len(haplotype))``.
    """
    codes, hit, miss = read_priors(read, qualities)
    match = codes[:, None] == encode(haplotype)[None, :]
    return np.where(match, hit[:, None], miss[:, None])
