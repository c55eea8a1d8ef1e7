"""Observables as weighted sums of Pauli strings, plus decomposition front ends."""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .paulis import (
    DEFAULT_DIM_CAP,
    PauliString,
    QuditRegister,
    grid_phase,
    ps_dagger,
)
from .spin import AXES, DECOMP_TOL, pauli_expansion, spin_matrix

HERMITIAN_TOL = 1e-10


@dataclass(frozen=True)
class SpinTerm:
    """One spin-operator factor inside a spin polynomial."""

    axis: str
    qudit: int
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
            # 1.0, not 1+0j, so that a zero's sign survives a phase-free term
            phase = grid_phase(p.phase_exp, d_p) if p.phase_exp else 1.0
            merged[p.exps] += complex(c) * phase
        items = [(exps, c) for exps, c in merged.items() if c != 0]
        items.sort(key=lambda it: tuple(v for pair in it[0] for v in pair))
        self.terms: tuple[tuple[complex, PauliString], ...] = tuple(
            (c, PauliString(register, exps)) for exps, c in items
        )
        self._coefficients = np.array([c for c, _ in self.terms], dtype=complex)
        self._coefficients.setflags(write=False)
        self.hermitian = self._check_hermitian()

    @property
    def p(self) -> int:
        return len(self.terms)

    def coefficients(self) -> np.ndarray:
        """The term coefficients as one read-only (p,) array, built once."""
        return self._coefficients

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
            want = np.conj(c) * grid_phase(pd.phase_exp, d_p)
            have = coeff.get(pd.exps, 0.0)
            if abs(have - want) > HERMITIAN_TOL * max(1.0, scale):
                return False
        return True


def decompose_matrix(mat: np.ndarray, register: QuditRegister) -> Observable:
    """Expand a dense matrix over the Pauli-string basis.

    Coefficients are ``c_i = tr(P_i^dag O) / prod(dims)`` from the trace
    transform of :func:`spin.pauli_expansion`; those with
    ``|c_i| <= DECOMP_TOL`` are dropped.
    """
    total = register.total_dim
    if mat.shape != (total, total):
        raise ValueError(f"matrix shape {mat.shape} does not match register dimension {total}")
    if total > DEFAULT_DIM_CAP:
        raise ValueError(f"total dimension {total} exceeds cap {DEFAULT_DIM_CAP}")
    coeffs, exps = pauli_expansion(mat, register.dims)
    return Observable(register, [(c, PauliString(register, e)) for c, e in zip(coeffs, exps.tolist())])


def decompose_spin(poly: SpinPolynomial) -> Observable:
    """Tensor-expand a spin polynomial into Pauli-string terms.

    Each term's factors on one qudit multiply, in factor order and with
    their weights, into a dense d x d operator; the term is its coefficient
    times the product over qudits of those operators' expansions by
    :func:`spin.pauli_expansion`, a qudit without a factor contributing the
    identity."""
    register = QuditRegister(tuple(poly.dims))
    acc: dict[tuple, complex] = defaultdict(complex)
    for coeff, factors in poly.terms:
        local: dict[int, np.ndarray] = {}
        for f in factors:
            if not 0 <= f.qudit < register.q:
                raise ValueError(f"factor qudit {f.qudit} out of range")
            m = f.weight * spin_matrix(register.dims[f.qudit], f.axis)
            local[f.qudit] = local[f.qudit] @ m if f.qudit in local else m
        expansions = [[(1.0, (0, 0))] for _ in register.dims]
        for k, m in local.items():
            c, e = pauli_expansion(m, (register.dims[k],))
            expansions[k] = list(zip(c.tolist(), map(tuple, e[:, 0].tolist())))
        for parts in itertools.product(*expansions):
            acc[tuple(e for _, e in parts)] += complex(coeff) * math.prod(c for c, _ in parts)
    terms = [(c, PauliString(register, exps)) for exps, c in acc.items() if abs(c) > DECOMP_TOL]
    return Observable(register, terms)


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


_KIND_NAMES = {int: "an integer", float: "a finite number", bool: "a boolean", str: "a string", list: "a list", dict: "an object"}


def json_value(value, kind: type, where: str):
    """``value`` if it is an instance of ``kind``; otherwise a ValueError
    naming the key path ``where``.  ``float`` takes any finite number, ``int``
    any finite integer (numpy's included), and JSON true counts only as a
    ``bool``."""
    if kind is bool or isinstance(value, bool):
        ok = kind is bool and isinstance(value, bool)
    elif kind in (int, float):
        ints = (int, np.integer)
        ok = isinstance(value, ints if kind is int else (*ints, float)) and -1e308 < value < 1e308  # excludes inf, nan
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise ValueError(f"{where}: expected {_KIND_NAMES.get(kind, kind.__name__)}, got {value!r:.40}")
    return value


def json_object(value, known: tuple[str, ...], where: str) -> dict:
    """A JSON object with no keys outside ``known``."""
    _reject_unknown_keys(json_value(value, dict, where), known, where)
    return value


def json_field(obj: dict, key: str, kind: type, where: str, default=None):
    """``obj[key]`` checked against ``kind``; ``default`` if the key is absent
    (a missing key without a default is an error)."""
    if key not in obj:
        if default is None:
            raise ValueError(f"{where}: missing key {key!r}")
        return default
    return json_value(obj[key], kind, f"{where}.{key}")


def json_pair(value, kind: type, where: str) -> tuple:
    """A two-entry JSON list of ``kind`` values, as a tuple."""
    if len(json_value(value, list, where)) != 2:
        raise ValueError(f"{where}: expected two entries, got {len(value)}")
    return tuple(json_value(v, kind, f"{where}[{k}]") for k, v in enumerate(value))


def json_register(data: dict, where: str) -> QuditRegister:
    """The register named by an object's ``dims`` list of integers."""
    dims = json_field(data, "dims", list, where)
    return QuditRegister(tuple(json_value(d, int, f"{where}.dims[{k}]") for k, d in enumerate(dims)))


def json_complex_rows(value, where: str) -> list[list[complex]]:
    """A JSON list of lists of ``[re, im]`` pairs, as lists of complex numbers."""
    return [
        [complex(*json_pair(e, float, f"{where}[{i}][{j}]")) for j, e in enumerate(json_value(row, list, f"{where}[{i}]"))]
        for i, row in enumerate(json_value(value, list, where))
    ]


def _re_im(obj: dict, where: str) -> complex:
    """``re + i im`` from an object's optional ``re`` and ``im`` numbers."""
    return complex(json_field(obj, "re", float, where, 0.0), json_field(obj, "im", float, where, 0.0))


def observable_from_json(data: dict) -> Observable:
    """Observable from the ``paulis`` format; unknown keys and wrong-typed
    values are rejected with their key path."""
    data = json_object(data, ("dims", "terms", "hermitian"), "observable")
    # ``hermitian`` is written by ``decompose``; the Observable recomputes it
    json_field(data, "hermitian", bool, "observable", False)
    register = json_register(data, "observable")
    terms = []
    for k, t in enumerate(json_field(data, "terms", list, "observable")):
        where = f"observable.terms[{k}]"
        t = json_object(t, ("re", "im", "paulis"), where)
        c = _re_im(t, where)
        paulis = json_field(t, "paulis", list, where)
        exps = tuple(json_pair(e, int, f"{where}.paulis[{q}]") for q, e in enumerate(paulis))
        terms.append((c, PauliString(register, exps)))
    return Observable(register, terms)


def spin_poly_from_json(data: dict) -> SpinPolynomial:
    """Spin polynomial from JSON; unknown keys and wrong-typed values are
    rejected with their key path."""
    data = json_object(data, ("dims", "terms"), "observable")
    dims = json_register(data, "observable").dims
    terms = []
    for k, t in enumerate(json_field(data, "terms", list, "observable")):
        where = f"observable.terms[{k}]"
        t = json_object(t, ("coeff", "factors"), where)
        if isinstance(t.get("coeff"), dict):
            coeff = _re_im(json_object(t["coeff"], ("re", "im"), f"{where}.coeff"), f"{where}.coeff")
        else:
            coeff = complex(json_field(t, "coeff", float, where))
        factors = []
        for n, f in enumerate(json_field(t, "factors", list, where)):
            fw = f"{where}.factors[{n}]"
            f = json_object(f, ("axis", "qudit", "weight"), fw)
            factors.append(
                SpinTerm(
                    axis=json_field(f, "axis", str, fw),
                    qudit=json_field(f, "qudit", int, fw),
                    weight=float(json_field(f, "weight", float, fw, 1.0)),
                )
            )
        terms.append((coeff, tuple(factors)))
    return SpinPolynomial(dims, tuple(terms))


def matrix_from_json(data: dict) -> tuple[np.ndarray, QuditRegister]:
    """Dense matrix and register from JSON; unknown keys and wrong-typed
    values are rejected with their key path."""
    data = json_object(data, ("dims", "matrix"), "observable")
    register = json_register(data, "observable")
    rows = json_complex_rows(json_field(data, "matrix", list, "observable"), "observable.matrix")
    for i, row in enumerate(rows):
        if len(row) != len(rows):
            raise ValueError(f"observable.matrix[{i}]: expected {len(rows)} entries, got {len(row)}")
    return np.array(rows, dtype=complex), register
