"""Bracket-coefficient algebra for the orthonormal-frame reduction.

A cohomogeneity-one Kahler 4-metric carries ten frame bracket coefficients
A..H, L, N. The Kahler condition ties them together by four linear relations,
and the surviving freedom is repackaged into the variables (P, Q, R, S, L, N)
in which the structure equations close into a first-order flow with Q and the
Einstein combination conserved. R is the shear magnitude of the frame pair;
R = 0 is the shear-free (biaxial) locus, where the phase S is undefined and
reported as None rather than raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class FrameCoefficients:
    """Bracket coefficients of an adapted orthonormal frame."""

    A: float
    B: float
    C: float
    D: float
    E: float
    F: float
    G: float
    H: float
    L: float
    N: float


@dataclass(frozen=True)
class PQRSState:
    """Reduced flow variables; S is None exactly on the shear-free locus."""

    P: float
    Q: float
    R: float
    S: float | None
    L: float
    N: float

    def __post_init__(self) -> None:
        if self.R < 0.0:
            raise DomainError("shear magnitude R must be nonnegative")
        if self.R > 0.0 and self.S is None:
            raise DomainError("S is required when R > 0")

    @property
    def shear_free(self) -> bool:
        return self.R == 0.0


def kahler_relation_residuals(fc: FrameCoefficients) -> tuple[float, float, float, float]:
    """Residuals of the four linear relations a Kahler frame satisfies.

    Zero iff (A - D) = F + G, (B + C) = H - E, N = A + D and N = -(E + H).
    """
    return ((fc.A - fc.D) - (fc.F + fc.G),
            (fc.B + fc.C) - (fc.H - fc.E),
            fc.N - (fc.A + fc.D),
            fc.N + (fc.E + fc.H))


def integrability_residuals(fc: FrameCoefficients) -> tuple[float, float]:
    """The two relations forced by integrability of the complex structure."""
    return kahler_relation_residuals(fc)[:2]


def to_pqrs(fc: FrameCoefficients) -> PQRSState:
    """Change of variables (B, C, F, G, L, N) -> (P, Q, R, S, L, N).

    At R = 0 the rotation phase S is undefined; the returned state carries
    S = None and shear_free = True.
    """
    bc = fc.B + fc.C
    fg = fc.F + fc.G
    r = math.hypot(bc, fg)
    s = math.atan2(bc, fg) if r > 0.0 else None
    p = (fc.B - fc.C) + (fc.F - fc.G)
    q = (fc.B - fc.C) - (fc.F - fc.G)
    return PQRSState(P=p, Q=q, R=r, S=s, L=fc.L, N=fc.N)


def from_pqrs(st: PQRSState) -> FrameCoefficients:
    """Inverse change of variables; output satisfies the Kahler relations."""
    if st.S is None:
        sin_s = cos_s = 0.0
    else:
        sin_s = math.sin(st.S)
        cos_s = math.cos(st.S)
    pq_sum = st.P + st.Q
    pq_dif = st.P - st.Q
    b = (pq_sum + 2.0 * st.R * sin_s) / 4.0
    c = (-pq_sum + 2.0 * st.R * sin_s) / 4.0
    f = (pq_dif + 2.0 * st.R * cos_s) / 4.0
    g = (-pq_dif + 2.0 * st.R * cos_s) / 4.0
    a = (st.N + f + g) / 2.0
    d = (st.N - f - g) / 2.0
    e = -(st.N + b + c) / 2.0
    h = (-st.N + b + c) / 2.0
    return FrameCoefficients(A=a, B=b, C=c, D=d, E=e, F=f, G=g, H=h,
                             L=st.L, N=st.N)


def sys_flow(N, L, R, P, Q):
    """(N', L', R', P', S') at raw values, scalars or arrays alike: the
    structure equations of the reduced system, stated once."""
    dn = N * N - L * N
    dl = L * L - N * N + N * P / 4.0 + R * R / 4.0
    dr = (P / 2.0 + L) * R
    dp = P * L + R * R
    ds = -Q / 2.0
    return (dn, dl, dr, dp, ds)


def sys_rhs(st: PQRSState) -> tuple[float, float, float, float, float]:
    """Flow derivatives (N', L', R', P', S') of the reduced system.

    Q is conserved; S' = -Q/2 needs S defined, so the shear-free locus with
    Q != 0 cannot be flowed (S would move off None).
    """
    if st.S is None and st.Q != 0.0:
        raise DomainError("shear-free state with Q != 0 has no defined S flow")
    return sys_flow(st.N, st.L, st.R, st.P, st.Q)


def lambda_constraint(st: PQRSState) -> float:
    """Einstein constant lambda = -N (4L + 2N - P) / 2; conserved by sys_rhs."""
    return -st.N * (4.0 * st.L + 2.0 * st.N - st.P) / 2.0
