"""Global numeric policy and the package's error taxonomy.

Every tolerance used by the library lives in one NumericPolicy record so a
single override propagates consistently.  Tolerances are relative to a natural
scale of the data wherever one exists.

One cap, ``work_cap``, bounds the size of a request.  Each costly entry
point (the subset expansion behind ``mixed_char_poly`` and
``conditional_expected_poly``, the brute-force oracle, ``partition`` and
``descend``, ``exhaustive_minimum``, ``verify_interlacing_family``,
``build_certificate``, the random-partition experiment and the
shrunk-power root of ``experiment laguerre``) predicts its work in closed
form from the input sizes alone, and ``NumericPolicy.admit``
raises CapacityError before any kernel runs when the prediction exceeds the
cap.  A work unit is about one nanosecond on the 2-core machine the
per-routine weights were measured on (Python 3.11, numpy 2.4), and each
module documents its weights beside the routine.  The default, 1e11, is
about 100 s there.  A partition runs on the engine that predicts less
work, ``weaver.state_work`` or ``weaver.block_work``, both closed forms
that no m or r makes slow; the state engine also holds its stored
states against the cap at ``weaver.BYTE_WORK`` a byte, so the default
admits 500 MB of them.  The default admits a three-part partition of
gauss(4, 1/8) (m=32: predicted 5.3e8, its 181 MB of states held as
3.6e10; 5.5e12 on the lattice) and refuses one of gauss(4, 1/128)
(m=512: 2.8 GB of states, held as 5.6e11; 7.7e23 on the lattice).
It admits the mixed polynomial of 24 rank-one 8x8 matrices (2.3e10:
15 s in 332 MB peak).
Working memory grows with the same counts, so the cap bounds it too.
"""
from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass


class KsError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(KsError):
    """Input violates a documented precondition or invariant."""


class SingularMatrixError(KsError):
    """A matrix required to be invertible is singular at working precision."""


class RootednessError(KsError):
    """A polynomial expected to be real-rooted is not, within tolerance."""

    def __init__(self, message: str, max_imag: float):
        super().__init__(message)
        self.max_imag = max_imag


class PoleError(ValidationError):
    """Barrier evaluation requested at (or numerically on) a zero of p."""


class CapacityError(KsError):
    """The predicted work of a request exceeds NumericPolicy.work_cap."""


class CapabilityError(KsError):
    """The requested computation is outside the supported problem class."""


class DescentError(KsError):
    """Tree descent found no admissible child; floating-point guard tripped."""


@dataclass(frozen=True)
class NumericPolicy:
    # matrix-level tolerances
    hermitian_rtol: float = 1e-12
    psd_rtol: float = 1e-9
    rank_rtol: float = 1e-9
    singularity_rtol: float = 1e-12
    # polynomial-level tolerances
    real_root_imag_rtol: float = 1e-7
    root_merge_rtol: float = 1e-6
    root_residual_rtol: float = 1e-7
    interlace_rtol: float = 1e-8
    combo_samples: int = 64
    # ensembles and instances
    prob_sum_tol: float = 1e-9
    ensemble_isotropy_tol: float = 1e-9
    instance_isotropy_tol: float = 1e-8
    norm_bound_slack: float = 1e-10
    repair_isotropy_max: float = 1e-4
    # descent / partition / certificates
    tree_sum_rtol: float = 1e-9
    descent_slack: float = 1e-8
    tie_tol: float = 1e-10
    partition_slack: float = 1e-7
    cohen_slack: float = 1e-8
    certificate_slack: float = 1e-9
    probe_tol: float = 1e-7
    pole_tol: float = 1e-12
    fd_step_scale: float = 1e-5
    # predicted work of one request, in work units (see the module docstring)
    work_cap: float = 1e11

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    def merged(self, overrides: dict) -> "NumericPolicy":
        """Return a copy with the given fields replaced.

        Unknown keys, values of the wrong type and values that are not
        finite and nonnegative are rejected so typos in a policy file do not
        pass silently (a NaN work_cap would admit every request); an
        integer is accepted for a float field and stored as a float.
        """
        known = {f.name for f in dataclasses.fields(self)}
        bad = sorted(set(overrides) - known)
        if bad:
            raise ValidationError(f"unknown numeric-policy fields: {bad}")
        typed = {}
        for name, value in overrides.items():
            kind = type(getattr(self, name))
            allowed = (int, float) if kind is float else (int,)
            if isinstance(value, bool) or not isinstance(value, allowed):
                raise ValidationError(
                    f"numeric-policy field {name!r} must be a "
                    f"{kind.__name__}, got {value!r}"
                )
            if not 0 <= value <= sys.float_info.max:
                raise ValidationError(
                    f"numeric-policy field {name!r} must be finite and "
                    f"nonnegative, got {value!r}"
                )
            typed[name] = kind(value)
        return dataclasses.replace(self, **typed)

    def admit(self, work: float, what: str) -> None:
        """Refuse a request whose predicted work exceeds work_cap."""
        if work > self.work_cap:
            raise CapacityError(
                f"{what}: predicted work {work:.3g} exceeds the work cap "
                f"{self.work_cap:.3g}"
            )


DEFAULT_POLICY = NumericPolicy()
