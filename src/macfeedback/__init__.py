"""Feedback-capacity bounds for discrete memoryless multiple-access channels.

The package evaluates, for any user-supplied two-transmitter channel:

* single-user capacities with the partner frozen at a constant,
* the Cover-Leung achievable frontier and cut-set outer bounds for the
  perfect- and independent-feedback models,
* the compress-forward rate curve showing when one relayed independent
  look at the output strictly beats the no-feedback capacity, together
  with the sufficient condition for that gain,
* the exact gain classification for additive channels certified by a
  finite group, and
* the (1 - p) scaling of the frontier under output erasure,

each cross-checked by brute-force oracles on small instances. All rates
and information quantities are in bits.
"""

from .channel import (ConditionalPmf, JointDist, Mac, Pmf, erasure_extend,
                      independent_copy_joint, induced_channel, partner_channels,
                      two_look_channel)
from .channel_io import ChannelFile, load_channel_file, save_channel
from .errors import InputError
from .infotheory import (binary_entropy, conditional_entropy, conditional_mi,
                         entropy, joint_entropy, mutual_information)
from .optimize import OptResult, blahut_arimoto, max_support_input, maximize_joint_mi
from .regions import (CLInput, RatePair, RegionFrontier, cover_leung_bounds,
                      cover_leung_frontier, cutset_single_rate, cutset_sum_rate,
                      default_weight_fan)
from .groups import (AdditivityReport, EquivClassPartition, GroupSpec,
                     channel_given_sum, conditional_mi_spread, equivalence_classes,
                     rows_are_permutations, verify_additive)
from .checkers import (AdditiveClassification, CFCurve, GainConditionReport,
                       ScalingReport, SingleRateResult, classify_additive_gain,
                       compress_forward_curve, compress_forward_rate,
                       erasure_scaling_check, gain_sufficient_condition,
                       single_rate_capacity)
from .oracle import GridSpec, brute_force_condition2, grid_capacity, grid_cl_point
from . import catalog

__all__ = [
    "AdditiveClassification", "AdditivityReport", "CFCurve", "CLInput",
    "ChannelFile", "ConditionalPmf", "EquivClassPartition",
    "GainConditionReport", "GridSpec", "GroupSpec", "InputError",
    "JointDist", "Mac", "OptResult", "Pmf", "RatePair", "RegionFrontier",
    "ScalingReport", "SingleRateResult", "binary_entropy", "blahut_arimoto",
    "brute_force_condition2", "catalog", "channel_given_sum",
    "classify_additive_gain", "compress_forward_curve", "compress_forward_rate",
    "conditional_entropy", "conditional_mi", "conditional_mi_spread",
    "cover_leung_bounds", "cover_leung_frontier", "cutset_single_rate",
    "cutset_sum_rate", "default_weight_fan", "entropy", "erasure_extend",
    "erasure_scaling_check", "equivalence_classes", "gain_sufficient_condition",
    "grid_capacity", "grid_cl_point", "independent_copy_joint",
    "induced_channel", "joint_entropy", "load_channel_file", "max_support_input",
    "maximize_joint_mi", "mutual_information", "partner_channels", "rows_are_permutations",
    "save_channel", "single_rate_capacity", "two_look_channel", "verify_additive",
]
