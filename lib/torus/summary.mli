(** Coarse hierarchical occupancy summary.

    Maintained in O(1) per grid mutation by {!Grid}: free-node counts
    per axis slab (each yz-, xz- and xy-plane) and per 8×8×8 block,
    plus a lazily rebuilt cumulative table over the block grid. The
    finders consult it through {!shape_feasible} to reject candidate
    shapes on large machines before paying for a base enumeration or a
    summed-area-table sync.

    All probes are conservative: [false] proves no free box of the
    shape exists; [true] only licenses the exact search. *)

type t

val create : Dims.t -> t
(** Summary of a fully free grid. *)

val copy : t -> t

val occupy : t -> x:int -> y:int -> z:int -> unit
(** Record that the cell at [(x, y, z)] just became occupied. *)

val vacate : t -> x:int -> y:int -> z:int -> unit
(** Record that the cell at [(x, y, z)] just became free. *)

val version : t -> int
(** Number of updates applied; {!copy} carries it over. *)

val slab_free : t -> axis:[ `X | `Y | `Z ] -> int -> int
(** [slab_free t ~axis:`X x] is the number of free nodes in the plane
    of all cells with that x coordinate. *)

val feasible_starts :
  t -> wrap:bool -> axis:[ `X | `Y | `Z ] -> extent:int -> threshold:int -> bool array
(** Per-base-position refinement of the slab test behind
    {!shape_feasible}, used by the counted enumeration to skip whole
    planes and rows of bases. Entry [p] is [false] only if no free box
    spanning [extent] slabs (cyclically when [wrap]) can be based at
    axis coordinate [p] — i.e. some slab in the window [p, p+extent)
    holds fewer than [threshold] free nodes. As everywhere in this
    module, [false] is a proof of absence and [true] merely licenses
    the exact scan, but because skipping is only ever done on [false]
    the counted and materialising enumerations agree exactly. *)

val shape_feasible : t -> wrap:bool -> Shape.t -> bool
(** Necessary condition for a free box of exactly this shape to exist
    (with or without torus wraparound): every slab window the box
    would span must hold enough free nodes, and some block window big
    enough to contain the box must hold at least its volume. A [false]
    is definitive; a [true] must be confirmed by an exact finder. *)
