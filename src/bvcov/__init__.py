"""Exact variational calculus for one-dimensional Batalin-Vilkovisky
covariant field theories: graded expression engine, Soloviev/BV
antibrackets, curved Lie superalgebras with Maurer-Cartan checking, gauge
flows and BCH, AKSZ-style builders with a worked-model library, and the
Thom-Whitney global construction."""

from .symbols import Theory, GradedSymbol, Kind, TheoryError
from .expression import (Expression, normalize, total_derivative,
                         jet_partial, partial_derivative, is_zero, equal,
                         inverse_of, log_of, power_of)
from .varcalc import (EvolutionaryVectorField, EtaleMap, prolong, euler, soloviev,
                      bv_antibracket, hamiltonian_vf, ad_expansion, is_total_derivative,
                      functional_equal)
from .curved import (curvature, b_differential,
                     b_bracket, iota, d_element, mc_check, complete_to_b,
                     gauge_flow_series, gauge_flow_closed, flow_substitution,
                     verify_flow_endpoint, bch, CanonicalSubstitution,
                     canonical_substitution_check, antifield_rank)
from .aksz import (TargetChart, build_covariant_theory, twist, couple_gravity,
                   x_u_series, xi_u_series)
from .models import (ModelSpec, build_model, MODEL_BUILDERS, spinning_pipeline,
                     couple_with_potential)
from .thomwhitney import (CoverNerve, CechCochain, cech_delta, whitney,
                          whitney_commutes, tw_bracket, global_mc_check,
                          global_covariant_theory, gauge_equivalence_check,
                          Refinement)
from .parser import parse_expression, parse_theory_file, to_useries, from_useries
from .printer import render

__all__ = [n for n in dir() if not n.startswith("_")]
__version__ = "0.1.0"
