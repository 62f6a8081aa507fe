"""Spectral partitioning of finite frames via interlacing families.

The library splits a set of vectors resolving the identity into r groups,
each small in operator norm, by walking a tree of expected characteristic
polynomials and never letting the largest root increase.  Brute-force
oracles, a barrier-function certificate builder, and generators for
diagonal, random, and graph instances are included; the ``kspart`` command
wraps the lot.
"""
__version__ = "0.1.0"

from .policy import (DEFAULT_POLICY, CapabilityError, CapacityError,
                     DescentError, KsError, NumericPolicy, PoleError,
                     RootednessError, SingularMatrixError, ValidationError)
from .realpoly import (RealRootedness, RootList, SeparationReport, TopRoot,
                       common_interlacing_test, from_roots,
                       gaussian_expected_poly, hko_test, interlaces,
                       is_real_rooted, laguerre_expected, largest_root,
                       one_minus_c_derivative, poly_eval, roots,
                       separate_check, shrunk_power_largest_root, top_roots)
from .mixedchar import (CohenReport, FiniteSupportVector, MixedInstance,
                        RandomVectorEnsemble, cohen_inequality_check,
                        conditional_expected_poly, covariance,
                        ensemble_covariances, ensemble_instance,
                        expected_char_poly_bruteforce, mixed_char_poly)
from .interlace import (DescentStep, DescentTrace, FamilyReport, NodeFamily,
                        descend, exhaustive_minimum,
                        verify_interlacing_family)
from .barrier import (AboveRootsEvidence, BarrierCertificate,
                      CallableEvaluator, DeterminantEvaluator, Evaluator,
                      PolynomialEvaluator, above_roots_probe, barrier_value,
                      bivariate_fixture, build_certificate, ks_bound,
                      lemma_above_check, lemma_barrier_check,
                      monotonicity_convexity_probe)
from .weaver import (ExperimentStats, Graph, GraphBasis, PartitionReport,
                     WeaverInstance, block_node_poly, gen_diagonal,
                     gen_from_graph, gen_gaussian, improved_bound_r2, lift,
                     measured_delta, normalize_isotropy, partition,
                     random_partition_experiment, spectral_approx_check,
                     validate)

__all__ = [name for name in dir() if not name.startswith("_")]
