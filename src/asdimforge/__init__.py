"""asdimforge: build glued tree-of-copies truncations, bound their
covers, and certify block decompositions end to end."""

from .amalgam import (AdhesionFamily, AmalgamGraph, AmalgamationSpec,
                      BondingAtlas, BuildResult, ConnectingTree, SumGraph,
                      build, build_connecting_tree, build_sum_graph,
                      contract_to_amalgam, select_orbit_representatives,
                      validate_bonding_atlas)
from .covers import (Cover, Family, WitnessFamilies, band_witness,
                     exact_min_bound, exact_min_families, greedy_witness,
                     lebesgue_number, multiplicity, transport_witness)
from .errors import ConfigError, GraphFormatError, PreconditionError
from .graphs import (GAMMA_GRID, INF, FiniteGraph, MetricView, QiFit,
                     VertexMap, check_quasi_isometry, fit_qi_constants,
                     load_graph, nearest_point_map, relabel_sorted)
from .groups import GroupAction, compute_automorphisms
from .theorem import (BaseBlocks, Block, LemmaStrip, ProofParameters, Stage,
                      SymmetryMap, SymmetryWalk, TheoremCertificate, assemble_partition,
                      base_blocks, build_symmetry_map, lemma_strip,
                      projection_fit, run_certificate, safe_vertices, strata,
                      theorem_bound, translation_sites, tree_graph,
                      verify_separation)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
