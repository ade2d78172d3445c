"""Codes with restricted overlap lengths: constructions, bounds, exact
search, and synchronization-channel simulation."""

__version__ = "0.1.0"

from .bounds import (BoundEntry, BoundInconsistency, BoundReport, bound_report,
                     exact_values, lower_bounds, simultaneous_lower,
                     upper_bounds)
from .channel import (CorruptionSpec, DecodeEvent, SymbolStream, burst_range,
                      corrupt, detection_offset, encode_stream, scan_decode)
from .constructions import (ConstructionSpec, claimed_windows, code_size_1k,
                            lift_code, non_overlapping, non_overlapping_size,
                            overlap_free_1k, pad_t1t2, project_code,
                            run_construction, simultaneous, simultaneous_size,
                            t1t2_expanded, wmu_expanded, wmu_size)
from .families import (DecompositionTrace, PartitionFamily,
                       balanced_family, compositions, count_vectors,
                       decompose, enumerate_families, family,
                       family_from_code, validate)
from .search import (CompatibilityGraph, MaximalityCertificate, SearchResult,
                     all_maximal_from_construction, binary_edge_check,
                     build_graph, enumerate_maximal_codes, extension_word,
                     greedy_complete, is_maximal, max_code,
                     maximality_certificate)
from .words import (CodeSet, OverlapWitness, code, least_period, mobius,
                    overlap_lengths, primitive_count, verify_overlap_free)
