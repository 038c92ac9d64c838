"""Numerical certification of dimension lower bounds for SL(n,C) character
varieties of finitely presented (3-manifold) groups.

The pipeline: parse a presentation and a candidate representation, refine
it onto the relator equations by Newton steps, check irreducibility and
boundary regularity, measure tangent dimensions through Fox-calculus
Jacobian ranks, and compare the resulting character-variety dimension
estimate with the closed-form bound r*t - d*chi + z.
"""

from .bounds import (BoundReport, ManifoldData, goldman_dim, hom_to_char_drop,
                     sl_n_bound, thurston_bound)
from .certify import (BOUND_MET, BOUND_VIOLATION_SUSPECT_INPUT,
                      HYPOTHESES_NOT_MET, UNRELIABLE, CertReport,
                      GoldmanReport, InputDocument, InputDocumentError,
                      SurveyReport, certify, document_from_dict,
                      goldman_check, load_document, report_to_dict, survey)
from .cxla import (DEFAULT_RANK_TOL, inverse, least_squares_step,
                   nullspace_dim, rank_and_margin, svd_rank)
from .grouprep import (GroupSpec, Representation, evaluate_word,
                       random_representation, relator_residual,
                       sym_power_embedding)
from .structure import (NonCommutingPeripheralError, StructureReport,
                        analyze_structure, centralizer_dim,
                        is_irreducible_burnside)
from .tangent import (MARGIN_CERTIFIED, RESIDUAL_CERT_BOUND,
                      NewtonConvergenceError, TangentReport,
                      finite_difference_jacobian, fox_matrix, newton_refine,
                      relator_jacobian, tangent_report)
from .words import (GroupPresentation, PeripheralSpec, Word,
                    euler_characteristic, free_reduce, invert_word,
                    parse_word, render_word, surface_presentation)

__version__ = "0.1.0"
