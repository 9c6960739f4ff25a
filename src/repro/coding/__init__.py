"""Entropy-coding substrate: Huffman, canonical/Kraft codes, Golomb,
and the LID probability machinery of the paper (Eqs 7-13).
"""

from repro.coding.distributions import (
    LidDistribution,
    combination_probability,
    combination_weights,
    enumerate_combinations,
    level_capacity_fractions,
    sublevel_probabilities,
)
from repro.coding.entropy import (
    acl_upper_bound,
    acl_upper_bound_exact,
    average_code_length,
    combination_entropy_per_lid,
    grouped_acl,
    huffman_acl,
    integer_acl,
    lid_entropy,
    lid_entropy_exact,
)
from repro.coding.golomb import (
    golomb_lid_code_lengths,
    truncated_binary_length,
)
from repro.coding.huffman import huffman_code_lengths
from repro.coding.kraft import (
    CanonicalCode,
    kraft_sum,
    lengths_are_feasible,
)

__all__ = [
    "CanonicalCode",
    "LidDistribution",
    "acl_upper_bound",
    "acl_upper_bound_exact",
    "average_code_length",
    "combination_entropy_per_lid",
    "combination_probability",
    "combination_weights",
    "enumerate_combinations",
    "golomb_lid_code_lengths",
    "grouped_acl",
    "huffman_acl",
    "huffman_code_lengths",
    "integer_acl",
    "kraft_sum",
    "lengths_are_feasible",
    "level_capacity_fractions",
    "lid_entropy",
    "lid_entropy_exact",
    "sublevel_probabilities",
    "truncated_binary_length",
]
