"""braidalg: an exact symbolic workbench for R-matrix braided-group
presentations.

Construct the quantum-matrix bialgebra A(R), the braided matrices B(R),
braided tensor squares with braid statistics, and n-fold braided chains
from any exactly given R-matrix; orient their quadratic relations into
rewrite systems; and verify the braided-bialgebra axioms (coproduct
homomorphism with replayable certificates, counit, coassociativity) to a
configurable degree bound, over the field Q(q) or, at sampled rational
values of q, modulo one prime per value.
"""

from .qscalar import (ModP, ModRing, NonUnitError, PoleError, Q, QINV, QQ_Q,
                      RatFunc, ScalarParseError, ZeroDenominatorError, parse_scalar)
from .linalg import SingularMatrixError, SparseEchelon, dense_inverse
from .rmat import (RMatrix, RMatrixDocumentError, TensorOperator,
                   builtin_rmatrix, flip_rmatrix, glq2_rmatrix,
                   identity_rmatrix, invert, leg_embed, load_rmatrix,
                   partial_transpose2, save_rmatrix, second_inverse, ybe_check)
from .ncalg import (DegLexOrder, Generator, NCAlgError, NCPoly, OrientationError,
                    PolyParseError, Presentation, format_poly, parse_poly, word_str)
from .rewrite import (CompletionBudgetError, RewriteSystem, Rule, TruncatedGB,
                      orient_relations, truncated_gb)
from .ideals import (MembershipCertificate, MissingImageError, hilbert_dims,
                     ideal_membership, reduce_mod_ideal, span_membership,
                     span_rank, substitute_generators)
from .presents import (SquareIsoReport, braided_chain, braided_matrices,
                       braided_tensor_square, build_preset, cross_block,
                       frt_algebra, matrix_roster, square_iso_witness)
from .bialg import (CoproductSpec, RelationVerdict, VerificationReport,
                    matrix_coproduct, verify_bialgebra, verify_coassoc,
                    verify_counit, verify_homomorphism)

__version__ = "0.1.0"
