"""swcalc: exact calculator for smooth 4-manifold invariants.

Each public name loads its module on first access (PEP 562)."""
from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "groupring": ("FgAbelianGroup", "GroupRingElement", "laurent"),
    "knot": ("AlexanderPoly", "alexander_family", "torus_knot", "unknot", "validate"),
    "manifold": ("Fingerprint", "IntersectionData", "ManifoldDescriptor", "SWInfo",
                 "builtin", "homeo_type", "mod2_basic_class_count",
                 "reverse_orientation"),
    "surgery": ("DissolutionVerdict", "blowup", "connected_sum", "connected_sum_all",
                "dissolve", "knot_surgery", "log_transform"),
    "lattice": ("QuadraticForm", "characteristic_vectors", "diagonal_form",
                "diagonalize", "e8_form", "max_characteristic_square"),
    "fixedpoint": ("TorusAutomorphism", "fixed_subtorus", "invariant_locus",
                   "solve_fixed_points"),
    "equivariant": ("NCatalogEntry", "bf_simplify", "covering_consistency",
                    "cyclic_space_form", "exotic_family", "gmonopole_polynomial",
                    "hat_s1_l", "n_catalog"),
    "expressions": ("Catalog", "eval_expr", "parse", "render"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_OWNER[name]}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
