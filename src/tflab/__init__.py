"""tflab: a numerical laboratory for endpoint behavior of the bilinear Hilbert transform.

Building blocks: band-limited windows with almost exponential decay (osgood),
grids and local-average machinery (sampling), adapted wave packets and their
splittings (packets), the multi-frequency decomposition of rough signals
(mfcz), tile/tree/forest combinatorics (timefreq), model sums and the direct
principal-value oracle (modelsum), and the sweep harness (lab).
"""

from .errors import (CountingConditionError, DegeneracyError,
                     GridMismatchError, LabError, ResolutionError)
from .osgood import (InghamTable, OsgoodParams, TabulatedOsgood, build_ingham,
                     osgood_partial_integral, verify_decay, verify_sandwich)
from .sampling import (Band, DyadicInterval, Grid, GridFunction, IntervalSet,
                       Report, inner_product, lp_norm, local_norm,
                       maximal_function, read_gridfunction_csv,
                       superlevel_decompose, write_gridfunction_csv)
from .packets import (PacketBank, Tile, TopDatum, WavePacket, canonical_packet,
                      split_meanzero, split_truncate, tile_packet, xi_H,
                      xi_lattice)
from .mfcz import (MfczSplit, asymptotic_big_c, mfcz_decompose,
                   mfcz_k_sweep, overlap_count, riesz_project, verify_mfcz)
from .timefreq import (Forest, Tree, Tritile, build_tritile_lattice,
                       check_well_discretized, collection_size, counting_split,
                       exceptional_sets, f3_decompose, forest_to_jsonl,
                       gamma_from_beta, j_tree_core, single_tree_bound,
                       size_lemma_split, thin_well_discretized, tree_size)
from .modelsum import (bht_direct, dilate_band_limited, lambda_direct,
                       model_sum, rescale_check)
from .lab import (SweepConfig, SweepRow, emit_report, fit_growth, run_sweep,
                  run_tree_suite, star)

__version__ = "0.1.0"
