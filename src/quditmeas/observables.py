"""Observables as weighted sums of Pauli strings, plus decomposition front ends."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .paulis import (
    DEFAULT_DIM_CAP,
    PauliString,
    QuditRegister,
    local_matrix,
    ps_dagger,
    ps_matrix,
    ps_multiply,
)
from .spin import AXES, spin_coefficients

# |c| below this is treated as numerical noise of the trace transform.
DECOMP_TOL = 1e-12
HERMITIAN_TOL = 1e-10


@dataclass(frozen=True)
class SpinTerm:
    """One spin-operator factor inside a spin polynomial."""

    axis: str
    qudit: int
    d_s: int | None = None
    weight: float = 1.0

    def __post_init__(self):
        if self.axis not in AXES:
            raise ValueError(f"axis must be one of {AXES}, got {self.axis!r}")


@dataclass(frozen=True)
class SpinPolynomial:
    """Sum of products of spin operators with scalar prefactors."""

    dims: tuple[int, ...]
    terms: tuple[tuple[complex, tuple[SpinTerm, ...]], ...]


class Observable:
    """A register plus weighted Pauli-string terms.

    Terms are canonicalized on construction: global phases are absorbed into
    the coefficients, duplicate strings merged, exact zeros dropped, and the
    result sorted lexicographically on the flattened exponents so output is
    deterministic.  The ``hermitian`` flag is checked, never assumed.
    """

    def __init__(self, register: QuditRegister, terms):
        self.register = register
        merged: dict[tuple, complex] = defaultdict(complex)
        d_p = register.d_p
        for c, p in terms:
            if p.register != register:
                raise ValueError("term register mismatch")
            phase = np.exp(1j * np.pi * p.phase_exp / d_p) if p.phase_exp else 1.0
            merged[p.exps] += complex(c) * phase
        items = [(exps, c) for exps, c in merged.items() if c != 0]
        items.sort(key=lambda it: tuple(v for pair in it[0] for v in pair))
        self.terms: tuple[tuple[complex, PauliString], ...] = tuple(
            (c, PauliString(register, exps)) for exps, c in items
        )
        self.hermitian = self._check_hermitian()

    @property
    def p(self) -> int:
        return len(self.terms)

    def coefficients(self) -> np.ndarray:
        return np.array([c for c, _ in self.terms], dtype=complex)

    def strings(self) -> tuple[PauliString, ...]:
        return tuple(p for _, p in self.terms)

    def _check_hermitian(self) -> bool:
        if not self.terms:
            return True
        d_p = self.register.d_p
        coeff = {p.exps: c for c, p in self.terms}
        scale = max(abs(c) for c in coeff.values())
        for c, p in self.terms:
            pd = ps_dagger(p)
            want = np.conj(c) * np.exp(1j * np.pi * pd.phase_exp / d_p)
            have = coeff.get(pd.exps, 0.0)
            if abs(have - want) > HERMITIAN_TOL * max(1.0, scale):
                return False
        return True

    def matrix(self, dim_cap: int = DEFAULT_DIM_CAP) -> np.ndarray:
        total = self.register.total_dim
        if total > dim_cap:
            raise ValueError(f"total dimension {total} exceeds cap {dim_cap}")
        out = np.zeros((total, total), dtype=complex)
        for c, p in self.terms:
            out += c * ps_matrix(p, dim_cap)
        return out

    def __repr__(self):
        return f"Observable(dims={self.register.dims}, p={self.p}, hermitian={self.hermitian})"


def decompose_observable(obj, register: QuditRegister | None = None, tol: float = DECOMP_TOL) -> Observable:
    """Decompose a dense matrix or a spin polynomial into an Observable."""
    if isinstance(obj, SpinPolynomial):
        return decompose_spin(obj)
    if isinstance(obj, np.ndarray):
        if register is None:
            raise ValueError("matrix decomposition needs a register")
        return decompose_matrix(obj, register, tol)
    raise TypeError(f"cannot decompose {type(obj).__name__}")


def decompose_matrix(
    mat: np.ndarray, register: QuditRegister, tol: float = DECOMP_TOL, dim_cap: int = DEFAULT_DIM_CAP
) -> Observable:
    """Expand a dense matrix over the Pauli-string basis.

    Coefficients are ``c_i = tr(P_i^dag O) / prod(dims)``.  The full trace
    transform factorizes per qudit, so all ``prod(d_j^2)`` coefficients are
    obtained by contracting each (row, column) index pair with the conjugated
    local Pauli basis, at cost O(D^2 sum d_j^2) instead of O(D^4).
    """
    dims = register.dims
    total = register.total_dim
    if mat.shape != (total, total):
        raise ValueError(f"matrix shape {mat.shape} does not match register dimension {total}")
    if total > dim_cap:
        raise ValueError(f"total dimension {total} exceeds cap {dim_cap}")

    t = np.asarray(mat, dtype=complex).reshape(dims + dims)
    q = len(dims)
    for j, d in enumerate(dims):
        w = np.empty((d * d, d, d), dtype=complex)
        for r in range(d):
            for s in range(d):
                w[r * d + s] = np.conj(local_matrix(d, r, s))
        # after j steps the leading axis is the next row index and the
        # matching column index sits right after the remaining row axes
        t = np.tensordot(t, w, axes=([0, q - j], [1, 2]))
    t = t / total

    terms = []
    for flat, c in enumerate(t.reshape(-1)):
        if abs(c) <= tol:
            continue
        exps = []
        rem = flat
        for d in reversed(dims):
            rs = rem % (d * d)
            rem //= d * d
            exps.append((rs // d, rs % d))
        exps.reverse()
        terms.append((c, PauliString(register, tuple(exps))))
    return Observable(register, terms)


def decompose_spin(poly: SpinPolynomial) -> Observable:
    """Tensor-expand a spin polynomial into Pauli-string terms."""
    register = QuditRegister(tuple(poly.dims))
    ident = PauliString.identity(register)
    d_p = register.d_p
    acc: dict[tuple, complex] = defaultdict(complex)
    for coeff, factors in poly.terms:
        partial = {ident.exps: complex(coeff)}
        for f in factors:
            if not 0 <= f.qudit < register.q:
                raise ValueError(f"factor qudit {f.qudit} out of range")
            d = register.dims[f.qudit]
            if f.d_s is not None and f.d_s != d:
                raise ValueError(f"spin dimension {f.d_s} does not match qudit dimension {d}")
            local = spin_coefficients(d, f.axis)
            grown: dict[tuple, complex] = defaultdict(complex)
            for exps, c in partial.items():
                base = PauliString(register, exps)
                for (r, s), cl in local:
                    emb = [(0, 0)] * register.q
                    emb[f.qudit] = (r, s)
                    prod = ps_multiply(base, PauliString(register, tuple(emb)))
                    phase = np.exp(1j * np.pi * prod.phase_exp / d_p) if prod.phase_exp else 1.0
                    grown[prod.exps] += c * cl * f.weight * phase
            partial = grown
        for exps, c in partial.items():
            acc[exps] += c
    terms = [(c, PauliString(register, exps)) for exps, c in acc.items() if abs(c) > DECOMP_TOL]
    return Observable(register, terms)


def exact_expectation(obs: Observable, amplitudes: np.ndarray) -> complex:
    """Dense <psi|O|psi> for verification on small registers."""
    psi = np.asarray(amplitudes, dtype=complex).reshape(-1)
    out = 0.0 + 0.0j
    for c, p in obs.terms:
        out += c * (psi.conj() @ (ps_matrix(p) @ psi))
    return complex(out)


# -- JSON schemas -------------------------------------------------------------


def observable_to_json(obs: Observable) -> dict:
    return {
        "dims": list(obs.register.dims),
        "terms": [
            {"re": float(c.real), "im": float(c.imag), "paulis": [[r, s] for r, s in p.exps]}
            for c, p in obs.terms
        ],
    }


def _reject_unknown_keys(data: dict, known: tuple[str, ...], where: str) -> None:
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ValueError(f"{where}: unknown key(s) {', '.join(map(repr, unknown))}; known: {', '.join(known)}")


def observable_from_json(data: dict) -> Observable:
    """Observable from the ``paulis`` format; unknown keys are rejected by name."""
    # ``hermitian`` is written by ``decompose`` and recomputed on load
    _reject_unknown_keys(data, ("dims", "terms", "hermitian"), "observable")
    register = QuditRegister(tuple(int(d) for d in data["dims"]))
    terms = []
    for k, t in enumerate(data["terms"]):
        _reject_unknown_keys(t, ("re", "im", "paulis"), f"observable term {k}")
        c = complex(float(t.get("re", 0.0)), float(t.get("im", 0.0)))
        exps = tuple((int(r), int(s)) for r, s in t["paulis"])
        terms.append((c, PauliString(register, exps)))
    return Observable(register, terms)


def spin_poly_from_json(data: dict) -> SpinPolynomial:
    """Spin polynomial from JSON; unknown keys are rejected by name."""
    _reject_unknown_keys(data, ("dims", "terms"), "spin polynomial")
    dims = tuple(int(d) for d in data["dims"])
    terms = []
    for k, t in enumerate(data["terms"]):
        _reject_unknown_keys(t, ("coeff", "factors"), f"spin term {k}")
        raw = t["coeff"]
        if isinstance(raw, dict):
            _reject_unknown_keys(raw, ("re", "im"), f"spin term {k} coeff")
            coeff = complex(float(raw.get("re", 0.0)), float(raw.get("im", 0.0)))
        else:
            coeff = complex(raw)
        for f in t["factors"]:
            _reject_unknown_keys(f, ("axis", "qudit", "weight"), f"spin term {k} factor")
        factors = tuple(
            SpinTerm(axis=f["axis"], qudit=int(f["qudit"]), weight=float(f.get("weight", 1.0)))
            for f in t["factors"]
        )
        terms.append((coeff, factors))
    return SpinPolynomial(dims, tuple(terms))


def matrix_from_json(data: dict) -> tuple[np.ndarray, QuditRegister]:
    """Dense matrix and register from JSON; unknown keys are rejected by name."""
    _reject_unknown_keys(data, ("dims", "matrix"), "matrix observable")
    register = QuditRegister(tuple(int(d) for d in data["dims"]))
    rows = data["matrix"]
    mat = np.array([[complex(e[0], e[1]) for e in row] for row in rows], dtype=complex)
    return mat, register
