(* The table is a cumulative count over an extended array: every
   dimension with wraparound is doubled so a wrapped box becomes an
   ordinary box in the extended space (its base is in the original
   bounds and extents are at most the dimension, so base + extent fits
   in twice the dimension).

   A table is either a snapshot ([build]) or a tracker ([track]). A
   tracker keeps the grid it was built from plus a dirty region: after
   each grid mutation the caller notes the touched box/node, and the
   next query recomputes only the cumulative entries the change can
   reach — everything dominated by the minimal changed coordinate. A
   change at original cell (x,y,z) maps to extended copies that are
   componentwise >= (x,y,z), so entries with i <= x or j <= y or
   k <= z are untouched and serve as the clean boundary of the
   recomputed block. Notes are verified against the grid's mutation
   counter; any unnoted mutation degrades the next sync to a full
   rebuild instead of producing a stale table. *)

type tracking = {
  grid : Grid.t;
  mutable seen_version : int;  (* Grid.version the cum array reflects *)
  mutable noted_version : int;  (* Grid.version covered by notes *)
  mutable dirty : (int * int * int) option;  (* min corner of noted changes *)
  mutable lost : bool;  (* a mutation was not noted: full rebuild *)
  mutable full_rebuilds : int;
  mutable incremental_updates : int;
}

type t = {
  dims : Dims.t;
  ex : int;
  ey : int;
  ez : int;
  (* cum.(i + (ex+1) * (j + (ey+1) * k)) = #occupied in [0,i) x [0,j) x [0,k) of
     the extended space. *)
  cum : int array;
  (* Precomputed wrapped-index tables: wx.(i) = (i-1) mod nx and the
     y/z variants pre-scaled by their linear strides, so the recompute
     inner loop does three adds per cell instead of three mods. Entry 0
     of each table is unused (the cum boundary plane). *)
  wx : int array;
  wy : int array;
  wz : int array;
  tracking : tracking option;
}

(* Recompute cum over the block (x0, ex] x (y0, ey] x (z0, ez], reading
   occupancy straight from the grid. Entries at i = x0 / j = y0 / k = z0
   are the block's clean boundary ((0,0,0) makes this a full rebuild:
   plane 0 of cum is all zeros and is never written). Hot path for the
   schedulers: plain index arithmetic, one occupancy read per cell. *)
let recompute t grid ~x0 ~y0 ~z0 =
  let stride_y = t.ex + 1 in
  let stride_z = stride_y * (t.ey + 1) in
  let cum = t.cum in
  let wx = t.wx in
  for k = z0 + 1 to t.ez do
    let zoff = t.wz.(k) in
    let row_k = stride_z * k and row_k1 = stride_z * (k - 1) in
    for j = y0 + 1 to t.ey do
      let yoff = zoff + t.wy.(j) in
      let row_kj = row_k + (stride_y * j)
      and row_kj1 = row_k + (stride_y * (j - 1))
      and row_k1j = row_k1 + (stride_y * j)
      and row_k1j1 = row_k1 + (stride_y * (j - 1)) in
      for i = x0 + 1 to t.ex do
        let occ = if Grid.is_free grid (yoff + wx.(i)) then 0 else 1 in
        cum.(i + row_kj) <-
          occ
          + cum.(i - 1 + row_kj) + cum.(i + row_kj1) + cum.(i + row_k1j)
          - cum.(i - 1 + row_kj1) - cum.(i - 1 + row_k1j) - cum.(i + row_k1j1)
          + cum.(i - 1 + row_k1j1)
      done
    done
  done

let make grid ~tracking =
  let d = Grid.dims grid in
  let wrap = Grid.wrap grid in
  let ex = if wrap then 2 * d.nx else d.nx in
  let ey = if wrap then 2 * d.ny else d.ny in
  let ez = if wrap then 2 * d.nz else d.nz in
  let t =
    {
      dims = d;
      ex;
      ey;
      ez;
      cum = Array.make ((ex + 1) * (ey + 1) * (ez + 1)) 0;
      wx = Array.init (ex + 1) (fun i -> if i = 0 then 0 else (i - 1) mod d.nx);
      wy = Array.init (ey + 1) (fun j -> if j = 0 then 0 else d.nx * ((j - 1) mod d.ny));
      wz = Array.init (ez + 1) (fun k -> if k = 0 then 0 else d.nx * d.ny * ((k - 1) mod d.nz));
      tracking;
    }
  in
  recompute t grid ~x0:0 ~y0:0 ~z0:0;
  t

let build grid = make grid ~tracking:None

let track grid =
  let v = Grid.version grid in
  make grid
    ~tracking:
      (Some
         {
           grid;
           seen_version = v;
           noted_version = v;
           dirty = None;
           lost = false;
           full_rebuilds = 0;
           incremental_updates = 0;
         })

type stats = { full_rebuilds : int; incremental_updates : int }

let stats t =
  match t.tracking with
  | None -> { full_rebuilds = 0; incremental_updates = 0 }
  | Some tr ->
      { full_rebuilds = tr.full_rebuilds; incremental_updates = tr.incremental_updates }

(* Record [cells] mutations whose minimal changed original coordinate
   is [corner]. Notes must account for every mutation: if the grid's
   counter moved further than the noted cell count, some change went
   unrecorded and the tracker schedules a full rebuild instead. *)
let note t ~cells ~corner:(cx, cy, cz) =
  match t.tracking with
  | None -> invalid_arg "Prefix.note: table is a snapshot, not a tracker"
  | Some tr ->
      if tr.noted_version + cells <> Grid.version tr.grid then tr.lost <- true
      else begin
        tr.noted_version <- tr.noted_version + cells;
        tr.dirty <-
          (match tr.dirty with
          | None -> Some (cx, cy, cz)
          | Some (x, y, z) -> Some (min x cx, min y cy, min z cz))
      end

let note_box t (box : Box.t) =
  let d = t.dims in
  let b = box.base and s = box.shape in
  (* A box wrapping past the end of an axis touches cell 0 of that
     axis, which is then the minimal changed coordinate. *)
  let corner =
    ( (if b.x + s.sx > d.nx then 0 else b.x),
      (if b.y + s.sy > d.ny then 0 else b.y),
      if b.z + s.sz > d.nz then 0 else b.z )
  in
  note t ~cells:(Shape.volume s) ~corner

let note_node t node =
  let c = Coord.of_index t.dims node in
  note t ~cells:1 ~corner:(c.x, c.y, c.z)

let sync t =
  match t.tracking with
  | None -> ()
  | Some tr ->
      let v = Grid.version tr.grid in
      if v <> tr.seen_version then begin
        (if (not tr.lost) && tr.noted_version = v then
           match tr.dirty with
           | Some (x, y, z) ->
               recompute t tr.grid ~x0:x ~y0:y ~z0:z;
               tr.incremental_updates <- tr.incremental_updates + 1
           | None ->
               (* Mutations netted out to notes with no region — cannot
                  happen via note (every note carries a corner), so
                  treat defensively as a rebuild. *)
               recompute t tr.grid ~x0:0 ~y0:0 ~z0:0;
               tr.full_rebuilds <- tr.full_rebuilds + 1
         else begin
           recompute t tr.grid ~x0:0 ~y0:0 ~z0:0;
           tr.full_rebuilds <- tr.full_rebuilds + 1
         end);
        tr.seen_version <- v;
        tr.noted_version <- v;
        tr.dirty <- None;
        tr.lost <- false
      end

let is_stale t =
  match t.tracking with
  | None -> false
  | Some tr -> Grid.version tr.grid <> tr.seen_version

(* Indices are spelled out rather than read through a local accessor:
   without flambda (the dev profile builds with [-opaque] and none) that
   closure is allocated on every call, and this is the probe every scan
   issues per base. *)
let occupied_in_range t ~x0 ~y0 ~z0 ~sx ~sy ~sz =
  sync t;
  let x1 = x0 + sx and y1 = y0 + sy and z1 = z0 + sz in
  if x1 > t.ex || y1 > t.ey || z1 > t.ez then
    invalid_arg "Prefix.occupied_in_range: box exceeds table (wraparound disabled?)";
  let stride_y = t.ex + 1 in
  let stride_z = stride_y * (t.ey + 1) in
  let cum = t.cum in
  let j0 = stride_y * y0 and j1 = stride_y * y1 in
  let k0 = stride_z * z0 and k1 = stride_z * z1 in
  cum.(x1 + j1 + k1)
  - cum.(x0 + j1 + k1) - cum.(x1 + j0 + k1) - cum.(x1 + j1 + k0)
  + cum.(x0 + j0 + k1) + cum.(x0 + j1 + k0) + cum.(x1 + j0 + k0)
  - cum.(x0 + j0 + k0)

let base_is_free t ~x ~y ~z (s : Shape.t) =
  occupied_in_range t ~x0:x ~y0:y ~z0:z ~sx:s.sx ~sy:s.sy ~sz:s.sz = 0

let occupied_in_box t (box : Box.t) =
  let b = box.base and s = box.shape in
  occupied_in_range t ~x0:b.x ~y0:b.y ~z0:b.z ~sx:s.sx ~sy:s.sy ~sz:s.sz

let equal a b =
  sync a;
  sync b;
  Dims.equal a.dims b.dims && a.ex = b.ex && a.ey = b.ey && a.ez = b.ez && a.cum = b.cum
