(** Maximal Free Partition (MFP) computation.

    The MFP is the largest contiguous rectangular free partition in the
    torus (Section 5.1, Figure 1). Krevat's heuristic prefers
    placements that leave the largest MFP behind; the balancing
    algorithm's L_MFP term is the drop in MFP volume caused by a
    candidate placement. The search scans shapes in decreasing-volume
    order over a summed-area table, so it stops at the first volume
    level that still has a free box.

    Every entry point takes an optional {!Finder.Cache.t}. When the
    cache is bound to the queried grid, the search reuses the cache's
    incrementally maintained summed-area table instead of building a
    fresh one per call, and whole-grid results are memoised on the
    occupancy fingerprint. A cache bound to a different grid (the
    schedulers probe ghost copies) is ignored. *)

open Bgl_torus

val volume : ?cache:Finder.Cache.t -> Grid.t -> int
(** Volume of the MFP; 0 when no node is free. *)

val box : ?cache:Finder.Cache.t -> Grid.t -> Box.t option
(** Some maximal free partition (the first in scan order), if any. *)

val volume_after : ?cache:Finder.Cache.t -> Grid.t -> Box.t -> int
(** [volume_after grid candidate] is the MFP volume once [candidate]
    (which must be free) is occupied. The grid is mutated temporarily
    and restored before returning; with a cache, the probe is noted on
    the way in and out so the table updates stay incremental. *)

val loss : ?cache:Finder.Cache.t -> Grid.t -> Box.t -> int
(** [loss grid candidate = volume grid - volume_after grid candidate]:
    the L_MFP term of the balancing algorithm. *)

val loss_given : ?cache:Finder.Cache.t -> before:int -> Grid.t -> Box.t -> int
(** Same as {!loss} with the pre-placement MFP volume already known —
    the schedulers compute it once per scheduling decision. [before]
    must be [volume grid]: occupying a node never grows the MFP, so the
    what-if search skips every level above [before]. *)
