"""Three-element (RCR) Windkessel outlet model.

State equations for one outlet, discretized with explicit first-order Euler:

    C dp_p/dt + p_p/R_d = Q
    p = p_p + R_p Q

with the distal reference pressure fixed to zero.  The steady limit for a
constant flow rate is p = (R_p + R_d) Q, which serves as a test oracle.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class WindkesselParams:
    Rp: float
    Rd: float
    C: float

    def __post_init__(self):
        if not all(0 < x < np.inf for x in (self.Rp, self.Rd, self.C)):
            raise ConfigurationError(f"Windkessel parameters must be positive and finite: "
                                     f"Rp={self.Rp}, Rd={self.Rd}, C={self.C}")

    @property
    def tau(self) -> float:
        """Relaxation time R_d * C of the proximal pressure."""
        return self.Rd * self.C


@dataclass(frozen=True)
class WindkesselState:
    pp: float = 0.0
    p: float = 0.0
    t: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.pp, self.p, self.t))):
            raise ConfigurationError("Windkessel state must be finite")


def wk_step(state: WindkesselState, Q: float, dt: float, params: WindkesselParams) -> WindkesselState:
    """One explicit Euler step; outflow Q is positive out of the domain.

    Rejects dt >= Rd*C, where the explicit proximal-pressure update starts to
    lose the monotone relaxation of the continuous model.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if dt >= params.tau:
        raise ValueError(
            f"dt={dt} >= Rd*C={params.tau}: explicit Windkessel step rejected as unstable"
        )
    pp = state.pp + (dt / params.C) * (Q - state.pp / params.Rd)
    return WindkesselState(pp=pp, p=pp + params.Rp * Q, t=state.t + dt)


def wk_steady_pressure(Q: float, params: WindkesselParams) -> float:
    """Fixed point of wk_step under constant Q: (Rp + Rd) Q."""
    return (params.Rp + params.Rd) * Q


def load_params_csv(path) -> dict[int, WindkesselParams]:
    """Read per-outlet parameters from a CSV with header outlet,Rp,Rd,C;
    ConfigurationError names an unreadable file or a malformed row."""
    out: dict[int, WindkesselParams] = {}
    try:
        fh = open(Path(path), newline="")
    except OSError as exc:
        raise ConfigurationError(f"cannot read Windkessel file {path}: {exc.strerror}") from None
    with fh:
        reader = csv.DictReader(fh)
        expected = {"outlet", "Rp", "Rd", "C"}
        if reader.fieldnames is None or set(reader.fieldnames) != expected:
            raise ConfigurationError(
                f"Windkessel CSV must have header outlet,Rp,Rd,C, got {reader.fieldnames}"
            )
        for row in reader:
            try:
                k = int(row["outlet"])
                params = WindkesselParams(*(float(row[n]) for n in ("Rp", "Rd", "C")))
            except (TypeError, ValueError):
                raise ConfigurationError(f"{path} line {reader.line_num}: expected "
                                         f"outlet,Rp,Rd,C as numbers, got {row}") from None
            if k in out:
                raise ConfigurationError(f"duplicate outlet {k} in {path}")
            out[k] = params
    if not out:
        raise ConfigurationError(f"no Windkessel rows in {path}")
    return out


def save_params_csv(path, params: dict[int, WindkesselParams]) -> None:
    with open(Path(path), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["outlet", "Rp", "Rd", "C"])
        for k in sorted(params):
            p = params[k]
            writer.writerow([k, repr(p.Rp), repr(p.Rd), repr(p.C)])


# Parameter rows of the reference hemodynamic configuration (per-outlet
# proximal/distal resistance and compliance), loaded verbatim; the RSA
# compliance is orders of magnitude above its siblings and is surfaced
# unmodified in reports.
REFERENCE_OUTLET_PARAMS = {
    "RSA": WindkesselParams(Rp=1.84e8, Rd=3.11e9, C=3.26e-5),
    "RCA": WindkesselParams(Rp=1.23e8, Rd=2.07e9, C=5.16e-10),
    "LCA": WindkesselParams(Rp=1.78e8, Rd=3.01e9, C=3.52e-10),
    "LSA": WindkesselParams(Rp=7.09e7, Rd=1.19e9, C=9.35e-10),
    "DA": WindkesselParams(Rp=7.8e6, Rd=1.31e8, C=7.72e-9),
}
