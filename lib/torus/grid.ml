(* Occupancy lives in a bit-packed Bigarray (32 nodes per word, so a
   full 64x32x32 machine is a 16 KB bitset the prefix rebuild streams
   through cache-resident), owner ids in a plain side array consulted
   only on the cold paths (vacate validation, rendering, owner
   queries). A Summary is maintained inline so feasibility probes can
   reject shapes without scanning either. *)

type t = {
  dims : Dims.t;
  wrap : bool;
  occ : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
  owners : int array;
  summary : Summary.t;
  mutable free : int;
  mutable version : int;
  mutable fingerprint : int;
}

let free_marker = -1
let down_owner = -2

(* Zobrist-style per-node key: occupancy state hashes to the xor of the
   keys of the occupied nodes, so occupy/vacate update the fingerprint
   in O(1) and a probe that occupies then vacates restores it exactly.
   A splitmix-style finalizer keeps the keys well spread; constants are
   chosen to fit OCaml's 63-bit native int. *)
let node_key node =
  let x = (node + 1) * 0x2545F4914F6CDD1D in
  let x = x lxor (x lsr 29) in
  let x = x * 0x1B03738712FAD5C9 in
  x lxor (x lsr 32)

let create ?(wrap = true) dims =
  let n = Dims.volume dims in
  let occ = Bigarray.Array1.create Bigarray.int Bigarray.c_layout ((n + 31) lsr 5) in
  Bigarray.Array1.fill occ 0;
  {
    dims;
    wrap;
    occ;
    owners = Array.make n free_marker;
    summary = Summary.create dims;
    free = n;
    version = 0;
    fingerprint = 0;
  }

let dims t = t.dims
let wrap t = t.wrap

let copy t =
  let occ = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (Bigarray.Array1.dim t.occ) in
  Bigarray.Array1.blit t.occ occ;
  { t with occ; owners = Array.copy t.owners; summary = Summary.copy t.summary }

let volume t = Dims.volume t.dims
let free_count t = t.free
let busy_count t = volume t - t.free
let version t = t.version
let fingerprint t = t.fingerprint
let summary t = t.summary

let is_free t node = Bigarray.Array1.get t.occ (node lsr 5) land (1 lsl (node land 31)) = 0
let owner t node = if is_free t node then None else Some t.owners.(node)

let box_is_free t box = List.for_all (is_free t) (Box.indices t.dims box)

(* The mutators take the node's coordinates alongside its index so the
   summary update reads no Coord: a box claim already has them from its
   own loop, and a single-node claim derives them arithmetically. *)
let occupy_at t node ~x ~y ~z ~owner =
  if owner < 0 && owner <> down_owner then invalid_arg "Grid.occupy_node: invalid owner id";
  let w = node lsr 5 and bit = 1 lsl (node land 31) in
  let word = Bigarray.Array1.get t.occ w in
  if word land bit <> 0 then
    invalid_arg
      (Printf.sprintf "Grid.occupy_node: node %d already owned by %d" node t.owners.(node));
  Bigarray.Array1.set t.occ w (word lor bit);
  t.owners.(node) <- owner;
  t.free <- t.free - 1;
  t.version <- t.version + 1;
  t.fingerprint <- t.fingerprint lxor node_key node;
  Summary.occupy t.summary ~x ~y ~z

let vacate_at t node ~x ~y ~z ~owner =
  let w = node lsr 5 and bit = 1 lsl (node land 31) in
  let word = Bigarray.Array1.get t.occ w in
  let current = if word land bit = 0 then free_marker else t.owners.(node) in
  if current <> owner then
    invalid_arg (Printf.sprintf "Grid.vacate_node: node %d owned by %d, not %d" node current owner);
  Bigarray.Array1.set t.occ w (word lxor bit);
  t.owners.(node) <- free_marker;
  t.free <- t.free + 1;
  t.version <- t.version + 1;
  t.fingerprint <- t.fingerprint lxor node_key node;
  Summary.vacate t.summary ~x ~y ~z

let occupy_node t node ~owner =
  let d = t.dims in
  occupy_at t node ~x:(node mod d.nx) ~y:(node / d.nx mod d.ny) ~z:(node / (d.nx * d.ny)) ~owner

let vacate_node t node ~owner =
  let d = t.dims in
  vacate_at t node ~x:(node mod d.nx) ~y:(node / d.nx mod d.ny) ~z:(node / (d.nx * d.ny)) ~owner

(* [f node x y z] for every node of the box, wrapped into bounds, in
   {!Box.cells} order (x fastest), without building the cell list. *)
let iter_box t (box : Box.t) f =
  let d = t.dims in
  let b = box.base and s = box.shape in
  assert (Coord.in_bounds d b);
  assert (Shape.fits d s);
  for dz = 0 to s.sz - 1 do
    let z = (b.z + dz) mod d.nz in
    for dy = 0 to s.sy - 1 do
      let y = (b.y + dy) mod d.ny in
      for dx = 0 to s.sx - 1 do
        let x = (b.x + dx) mod d.nx in
        f (x + (d.nx * (y + (d.ny * z)))) x y z
      done
    done
  done

let occupy t box ~owner =
  (* Validate first so a failed claim leaves the grid unchanged. *)
  iter_box t box (fun node _ _ _ ->
      if not (is_free t node) then
        invalid_arg (Printf.sprintf "Grid.occupy: node %d already owned" node));
  iter_box t box (fun node x y z -> occupy_at t node ~x ~y ~z ~owner)

let vacate t box ~owner =
  iter_box t box (fun node _ _ _ ->
      if is_free t node || t.owners.(node) <> owner then
        invalid_arg (Printf.sprintf "Grid.vacate: node %d not owned by %d" node owner));
  iter_box t box (fun node x y z -> vacate_at t node ~x ~y ~z ~owner)

let iter_owned t f =
  let n = volume t in
  for w = 0 to Bigarray.Array1.dim t.occ - 1 do
    let word = Bigarray.Array1.get t.occ w in
    if word <> 0 then begin
      let base = w lsl 5 in
      for b = 0 to min 31 (n - 1 - base) do
        if word land (1 lsl b) <> 0 then f (base + b) t.owners.(base + b)
      done
    end
  done

let owners t =
  let tbl = Hashtbl.create 16 in
  iter_owned t (fun _ o -> Hashtbl.replace tbl o ());
  Hashtbl.fold (fun o () acc -> o :: acc) tbl [] |> List.sort Int.compare

let pp ppf t =
  let d = t.dims in
  let glyph node =
    if is_free t node then '.'
    else
      let o = t.owners.(node) in
      if o = down_owner then '!' else Char.chr (Char.code 'A' + (o mod 26))
  in
  for z = 0 to d.nz - 1 do
    Format.fprintf ppf "z=%d@." z;
    for y = d.ny - 1 downto 0 do
      for x = 0 to d.nx - 1 do
        Format.fprintf ppf "%c" (glyph (Coord.index d (Coord.make x y z)))
      done;
      Format.fprintf ppf "@."
    done
  done
