(* Unit and property tests for the bgl_torus substrate. *)

open Bgl_torus

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let coord = Alcotest.testable Coord.pp Coord.equal
let box_t = Alcotest.testable Box.pp Box.equal

(* ------------------------------------------------------------------ *)
(* Dims *)

let test_dims_make () =
  let d = Dims.make 4 4 8 in
  check_int "volume" 128 (Dims.volume d);
  check_int "max_dim" 8 (Dims.max_dim d);
  check_bool "bgl equal" true (Dims.equal d Dims.bgl)

let test_dims_invalid () =
  Alcotest.check_raises "zero" (Invalid_argument "Dims.make: dimensions must be positive")
    (fun () -> ignore (Dims.make 0 1 1))

let test_dims_string_round_trip () =
  Alcotest.(check string) "to_string" "4x4x8" (Dims.to_string Dims.bgl);
  (match Dims.of_string "4x4x8" with
  | Ok d -> check_bool "parse" true (Dims.equal d Dims.bgl)
  | Error e -> Alcotest.fail e);
  (match Dims.of_string " 2X3x4 " with
  | Ok d -> check_bool "case and spaces" true (Dims.equal d (Dims.make 2 3 4))
  | Error e -> Alcotest.fail e);
  check_bool "garbage rejected" true (Result.is_error (Dims.of_string "4x4"));
  check_bool "negative rejected" true (Result.is_error (Dims.of_string "4x-4x8"))

let test_dims_comma_form () =
  (match Dims.of_string "64,32,32" with
  | Ok d -> check_bool "comma parse" true (Dims.equal d Dims.bgl_full)
  | Error e -> Alcotest.fail e);
  (match Dims.of_string " 4, 4, 8 " with
  | Ok d -> check_bool "comma with spaces" true (Dims.equal d Dims.bgl)
  | Error e -> Alcotest.fail e);
  check_bool "mixed separators rejected" true (Result.is_error (Dims.of_string "4,4x8"));
  check_bool "trailing comma rejected" true (Result.is_error (Dims.of_string "4,4,8,"));
  check_int "bgl_full volume" 65536 (Dims.volume Dims.bgl_full)

(* ------------------------------------------------------------------ *)
(* Coord *)

let test_coord_index_round_trip () =
  let d = Dims.bgl in
  for i = 0 to Dims.volume d - 1 do
    check_int "round trip" i (Coord.index d (Coord.of_index d i))
  done

let test_coord_index_order () =
  let d = Dims.make 3 4 5 in
  check_int "origin" 0 (Coord.index d (Coord.make 0 0 0));
  check_int "x fastest" 1 (Coord.index d (Coord.make 1 0 0));
  check_int "then y" 3 (Coord.index d (Coord.make 0 1 0));
  check_int "then z" 12 (Coord.index d (Coord.make 0 0 1))

let test_coord_wrap () =
  let d = Dims.make 4 4 8 in
  Alcotest.check coord "wrap positive" (Coord.make 1 0 2) (Coord.wrap d (Coord.make 5 4 10));
  Alcotest.check coord "wrap negative" (Coord.make 3 3 7) (Coord.wrap d (Coord.make (-1) (-1) (-1)))

let test_coord_in_bounds () =
  let d = Dims.make 2 2 2 in
  check_bool "inside" true (Coord.in_bounds d (Coord.make 1 1 1));
  check_bool "outside" false (Coord.in_bounds d (Coord.make 2 0 0));
  check_bool "negative" false (Coord.in_bounds d (Coord.make 0 (-1) 0))

let test_coord_of_index_invalid () =
  Alcotest.check_raises "too large" (Invalid_argument "Coord.of_index: out of range") (fun () ->
      ignore (Coord.of_index Dims.bgl 128))

(* ------------------------------------------------------------------ *)
(* Shape *)

let test_shape_volume_fits () =
  let s = Shape.make 2 3 4 in
  check_int "volume" 24 (Shape.volume s);
  check_bool "fits 4x4x8" true (Shape.fits Dims.bgl s);
  check_bool "5 wide does not fit" false (Shape.fits Dims.bgl (Shape.make 5 1 1))

let test_shape_rotations () =
  check_int "distinct perms of 1x2x3" 6 (List.length (Shape.rotations (Shape.make 1 2 3)));
  check_int "cube has one" 1 (List.length (Shape.rotations (Shape.make 2 2 2)));
  check_int "two equal extents" 3 (List.length (Shape.rotations (Shape.make 2 2 3)))

(* ------------------------------------------------------------------ *)
(* Box *)

let test_box_cells_count_and_dedup () =
  let d = Dims.bgl in
  let b = Box.make (Coord.make 3 3 7) (Shape.make 2 2 2) in
  let cells = Box.cells d b in
  check_int "volume cells" 8 (List.length cells);
  check_int "all distinct" 8 (List.length (List.sort_uniq Coord.compare cells));
  check_bool "wraps through origin" true (List.exists (Coord.equal (Coord.make 0 0 0)) cells)

let test_box_indices_in_range () =
  let d = Dims.bgl in
  let b = Box.make (Coord.make 2 3 6) (Shape.make 3 2 4) in
  List.iter
    (fun i -> check_bool "index in range" true (i >= 0 && i < Dims.volume d))
    (Box.indices d b)

let test_box_canonical () =
  let d = Dims.bgl in
  let full_z = Box.make (Coord.make 1 2 5) (Shape.make 1 1 8) in
  let canon = Box.canonical d ~wrap:true full_z in
  Alcotest.check box_t "z collapsed" (Box.make (Coord.make 1 2 0) (Shape.make 1 1 8)) canon;
  Alcotest.check box_t "no wrap unchanged" full_z (Box.canonical d ~wrap:false full_z)

let test_box_member () =
  let d = Dims.bgl in
  let b = Box.make (Coord.make 3 0 0) (Shape.make 2 1 1) in
  check_bool "base" true (Box.member d b (Coord.make 3 0 0));
  check_bool "wrapped cell" true (Box.member d b (Coord.make 0 0 0));
  check_bool "not member" false (Box.member d b (Coord.make 1 0 0))

let test_box_overlap () =
  let d = Dims.bgl in
  let a = Box.make (Coord.make 0 0 0) (Shape.make 2 2 2) in
  let b = Box.make (Coord.make 1 1 1) (Shape.make 2 2 2) in
  let c = Box.make (Coord.make 2 2 2) (Shape.make 2 2 2) in
  check_bool "a overlaps b" true (Box.overlap d a b);
  check_bool "a does not overlap c" false (Box.overlap d a c);
  let wrapped = Box.make (Coord.make 3 0 0) (Shape.make 2 2 2) in
  check_bool "wraps into a" true (Box.overlap d a wrapped)

(* ------------------------------------------------------------------ *)
(* Grid *)

let test_grid_occupy_vacate () =
  let g = Grid.create Dims.bgl in
  check_int "all free" 128 (Grid.free_count g);
  let b = Box.make (Coord.make 0 0 0) (Shape.make 2 2 2) in
  Grid.occupy g b ~owner:7;
  check_int "free after occupy" 120 (Grid.free_count g);
  check_int "busy" 8 (Grid.busy_count g);
  Alcotest.(check (option int)) "owner" (Some 7) (Grid.owner g 0);
  check_bool "box not free" false (Grid.box_is_free g b);
  Grid.vacate g b ~owner:7;
  check_int "free after vacate" 128 (Grid.free_count g);
  check_bool "box free again" true (Grid.box_is_free g b)

let test_grid_double_occupy_rejected () =
  let g = Grid.create Dims.bgl in
  let b = Box.make (Coord.make 0 0 0) (Shape.make 2 2 2) in
  Grid.occupy g b ~owner:1;
  let overlapping = Box.make (Coord.make 1 1 1) (Shape.make 2 2 2) in
  check_bool "raises on overlap" true
    (try
       Grid.occupy g overlapping ~owner:2;
       false
     with Invalid_argument _ -> true);
  (* The failed claim must not have changed anything. *)
  check_int "free count unchanged" 120 (Grid.free_count g);
  Alcotest.(check (option int)) "unclaimed cell still free" None
    (Grid.owner g (Coord.index Dims.bgl (Coord.make 2 2 2)))

let test_grid_vacate_wrong_owner () =
  let g = Grid.create Dims.bgl in
  let b = Box.make (Coord.make 0 0 0) (Shape.make 1 1 1) in
  Grid.occupy g b ~owner:1;
  check_bool "wrong owner rejected" true
    (try
       Grid.vacate g b ~owner:2;
       false
     with Invalid_argument _ -> true)

let test_grid_copy_independent () =
  let g = Grid.create Dims.bgl in
  let b = Box.make (Coord.make 0 0 0) (Shape.make 1 1 1) in
  let g2 = Grid.copy g in
  Grid.occupy g b ~owner:1;
  check_bool "copy unaffected" true (Grid.box_is_free g2 b)

let test_grid_owners () =
  let g = Grid.create Dims.bgl in
  Grid.occupy g (Box.make (Coord.make 0 0 0) (Shape.make 1 1 1)) ~owner:5;
  Grid.occupy g (Box.make (Coord.make 1 0 0) (Shape.make 1 1 1)) ~owner:3;
  Grid.occupy_node g 10 ~owner:Grid.down_owner;
  Alcotest.(check (list int)) "owners sorted" [ Grid.down_owner; 3; 5 ] (Grid.owners g)

let test_grid_down_owner () =
  let g = Grid.create Dims.bgl in
  Grid.occupy_node g 0 ~owner:Grid.down_owner;
  check_bool "down node not free" false (Grid.is_free g 0);
  Grid.vacate_node g 0 ~owner:Grid.down_owner;
  check_bool "repaired" true (Grid.is_free g 0)

let test_grid_version_fingerprint () =
  let g = Grid.create Dims.bgl in
  check_int "fresh version" 0 (Grid.version g);
  check_int "fresh fingerprint" 0 (Grid.fingerprint g);
  let b = Box.make (Coord.make 0 0 0) (Shape.make 2 2 2) in
  Grid.occupy g b ~owner:7;
  check_int "version counts cells" 8 (Grid.version g);
  let fp_occupied = Grid.fingerprint g in
  check_bool "occupied fingerprint differs" true (fp_occupied <> 0);
  (* Same occupancy under a different owner: same fingerprint. *)
  let g2 = Grid.create Dims.bgl in
  Grid.occupy g2 b ~owner:3;
  check_int "owner-independent" fp_occupied (Grid.fingerprint g2);
  (* A probe (occupy then vacate) restores the fingerprint but not the
     version. *)
  let probe = Box.make (Coord.make 2 2 2) (Shape.make 2 1 1) in
  Grid.occupy g probe ~owner:9;
  check_bool "probe changes fingerprint" true (Grid.fingerprint g <> fp_occupied);
  Grid.vacate g probe ~owner:9;
  check_int "probe restores fingerprint" fp_occupied (Grid.fingerprint g);
  check_int "version is monotonic" 12 (Grid.version g);
  (* Vacating back to empty restores the empty fingerprint. *)
  Grid.vacate g b ~owner:7;
  check_int "empty again" 0 (Grid.fingerprint g);
  (* copy carries both. *)
  Grid.occupy g b ~owner:7;
  let c = Grid.copy g in
  check_int "copy version" (Grid.version g) (Grid.version c);
  check_int "copy fingerprint" (Grid.fingerprint g) (Grid.fingerprint c)

(* ------------------------------------------------------------------ *)
(* Prefix *)

let random_grid rng dims wrap p_busy =
  let g = Grid.create ~wrap dims in
  for node = 0 to Dims.volume dims - 1 do
    if Bgl_stats.Rng.unit_float rng < p_busy then Grid.occupy_node g node ~owner:(node mod 7)
  done;
  g

let test_prefix_matches_direct () =
  let rng = Bgl_stats.Rng.create ~seed:77 in
  let d = Dims.make 3 4 5 in
  List.iter
    (fun wrap ->
      let g = random_grid rng d wrap 0.4 in
      let table = Prefix.build g in
      let shapes = [ Shape.make 1 1 1; Shape.make 2 2 2; Shape.make 3 1 2; Shape.make 3 4 5 ] in
      List.iter
        (fun shape ->
          List.iter
            (fun base ->
              let b = Box.make base shape in
              let direct =
                List.length (List.filter (fun i -> not (Grid.is_free g i)) (Box.indices d b))
              in
              check_int "prefix count" direct (Prefix.occupied_in_box table b))
            (if wrap then
               List.concat_map
                 (fun z ->
                   List.concat_map
                     (fun y -> List.map (fun x -> Coord.make x y z) (List.init d.nx Fun.id))
                     (List.init d.ny Fun.id))
                 (List.init d.nz Fun.id)
             else
               let ok ext dim = List.init (dim - ext + 1) Fun.id in
               List.concat_map
                 (fun z ->
                   List.concat_map
                     (fun y -> List.map (fun x -> Coord.make x y z) (ok shape.sx d.nx))
                     (ok shape.sy d.ny))
                 (ok shape.sz d.nz)))
        shapes)
    [ true; false ]

let test_prefix_track_incremental () =
  let d = Dims.bgl in
  let g = Grid.create d in
  let t = Prefix.track g in
  let b = Box.make (Coord.make 1 2 3) (Shape.make 2 2 2) in
  Grid.occupy g b ~owner:4;
  Prefix.note_box t b;
  check_bool "stale before sync" true (Prefix.is_stale t);
  check_int "counts after occupy" 8 (Prefix.occupied_in_box t (Box.make (Coord.make 0 0 0) (Shape.make 4 4 8)));
  check_bool "synced by query" false (Prefix.is_stale t);
  check_bool "equals fresh build" true (Prefix.equal t (Prefix.build g));
  let s = Prefix.stats t in
  check_int "one incremental update" 1 s.Prefix.incremental_updates;
  check_int "no full rebuild" 0 s.Prefix.full_rebuilds;
  (* A box wrapping past an axis end is noted from corner 0 of that
     axis and still lands on the right cells. *)
  let wrapping = Box.make (Coord.make 3 3 7) (Shape.make 2 2 2) in
  Grid.occupy g wrapping ~owner:5;
  Prefix.note_box t wrapping;
  check_bool "wrapping box incremental" true (Prefix.equal t (Prefix.build g));
  check_int "still no full rebuild" 0 (Prefix.stats t).Prefix.full_rebuilds

let test_prefix_track_self_heals () =
  let d = Dims.bgl in
  let g = Grid.create d in
  let t = Prefix.track g in
  (* Mutate WITHOUT noting: the tracker must detect the drift via the
     grid version and fall back to a full rebuild, never serving stale
     counts. *)
  Grid.occupy_node g 17 ~owner:2;
  check_int "unnoted change still counted" 1
    (Prefix.occupied_in_box t (Box.make (Coord.make 0 0 0) (Shape.make 4 4 8)));
  check_int "healed by full rebuild" 1 (Prefix.stats t).Prefix.full_rebuilds;
  (* Same when notes cover only part of a batch of mutations. *)
  Grid.occupy_node g 3 ~owner:2;
  Grid.occupy_node g 5 ~owner:2;
  Prefix.note_node t 3;
  check_int "partial notes also rebuild" 3
    (Prefix.occupied_in_box t (Box.make (Coord.make 0 0 0) (Shape.make 4 4 8)));
  check_int "second full rebuild" 2 (Prefix.stats t).Prefix.full_rebuilds;
  check_bool "matches fresh build" true (Prefix.equal t (Prefix.build g))

(* ------------------------------------------------------------------ *)
(* Summary *)

let test_summary_counts () =
  let d = Dims.make 4 4 8 in
  let g = Grid.create d in
  let s = Grid.summary g in
  check_int "x slab starts full" (4 * 8) (Summary.slab_free s ~axis:`X 0);
  check_int "z slab starts full" (4 * 4) (Summary.slab_free s ~axis:`Z 7);
  let v0 = Summary.version s in
  Grid.occupy g (Box.make (Coord.make 1 2 3) (Shape.make 1 1 1)) ~owner:5;
  check_int "x slab decremented" ((4 * 8) - 1) (Summary.slab_free s ~axis:`X 1);
  check_int "y slab decremented" ((4 * 8) - 1) (Summary.slab_free s ~axis:`Y 2);
  check_int "z slab decremented" ((4 * 4) - 1) (Summary.slab_free s ~axis:`Z 3);
  check_int "other slab untouched" (4 * 8) (Summary.slab_free s ~axis:`X 0);
  check_bool "version advanced" true (Summary.version s > v0);
  Grid.vacate g (Box.make (Coord.make 1 2 3) (Shape.make 1 1 1)) ~owner:5;
  check_int "x slab restored" (4 * 8) (Summary.slab_free s ~axis:`X 1)

let test_summary_copy_independent () =
  let d = Dims.make 4 4 8 in
  let g = Grid.create d in
  let ghost = Grid.copy g in
  Grid.occupy ghost (Box.make (Coord.make 0 0 0) (Shape.make 2 2 2)) ~owner:1;
  check_int "original summary untouched" (4 * 8) (Summary.slab_free (Grid.summary g) ~axis:`X 0);
  check_int "copy summary tracked" ((4 * 8) - 4)
    (Summary.slab_free (Grid.summary ghost) ~axis:`X 0)

let test_summary_full_grid_infeasible () =
  let d = Dims.make 4 4 8 in
  let g = Grid.create d in
  Grid.occupy g (Box.make (Coord.make 0 0 0) (Shape.make 4 4 8)) ~owner:1;
  check_bool "unit shape infeasible on full grid" false
    (Summary.shape_feasible (Grid.summary g) ~wrap:true (Shape.make 1 1 1));
  Grid.vacate g (Box.make (Coord.make 0 0 0) (Shape.make 4 4 8)) ~owner:1;
  check_bool "whole machine feasible when empty" true
    (Summary.shape_feasible (Grid.summary g) ~wrap:true (Shape.make 4 4 8))

(* ------------------------------------------------------------------ *)
(* Properties *)

let dims_gen =
  QCheck.Gen.(
    map3 (fun a b c -> Dims.make a b c) (int_range 1 5) (int_range 1 5) (int_range 1 6))

let arb_dims = QCheck.make ~print:Dims.to_string dims_gen

let prop_coord_round_trip =
  QCheck.Test.make ~name:"coord index round-trip" ~count:300
    QCheck.(pair arb_dims (int_range 0 1000))
    (fun (d, i) ->
      let i = i mod Dims.volume d in
      Coord.index d (Coord.of_index d i) = i)

let prop_box_cells_distinct =
  QCheck.Test.make ~name:"box cells are volume-many distinct nodes" ~count:300
    QCheck.(quad arb_dims (int_range 0 999) (int_range 1 6) (pair (int_range 1 6) (int_range 1 6)))
    (fun (d, base_seed, sx, (sy, sz)) ->
      let sx = 1 + (sx - 1) mod d.nx
      and sy = 1 + (sy - 1) mod d.ny
      and sz = 1 + (sz - 1) mod d.nz in
      let base = Coord.of_index d (base_seed mod Dims.volume d) in
      let b = Box.make base (Shape.make sx sy sz) in
      let cells = Box.cells d b in
      List.length cells = sx * sy * sz
      && List.length (List.sort_uniq Coord.compare cells) = sx * sy * sz
      && List.for_all (Coord.in_bounds d) cells)

let prop_overlap_matches_cells =
  QCheck.Test.make ~name:"Box.overlap agrees with cell intersection" ~count:300
    QCheck.(
      pair arb_dims (pair (pair (int_range 0 999) (int_range 0 999)) (pair (int_range 1 216) (int_range 1 216))))
    (fun (d, ((b1, b2), (s1, s2))) ->
      let mk bseed sseed =
        let base = Coord.of_index d (bseed mod Dims.volume d) in
        let sx = 1 + (sseed mod d.nx) in
        let sy = 1 + (sseed / 7 mod d.ny) in
        let sz = 1 + (sseed / 49 mod d.nz) in
        Box.make base (Shape.make sx sy sz)
      in
      let bx1 = mk b1 s1 and bx2 = mk b2 s2 in
      let set1 = Box.indices d bx1 and set2 = Box.indices d bx2 in
      let inter = List.exists (fun i -> List.mem i set2) set1 in
      Box.overlap d bx1 bx2 = inter)

let prop_member_matches_cells =
  QCheck.Test.make ~name:"Box.member agrees with cell list" ~count:300
    QCheck.(pair arb_dims (pair (int_range 0 999) (int_range 1 216)))
    (fun (d, (bseed, sseed)) ->
      let base = Coord.of_index d (bseed mod Dims.volume d) in
      let sx = 1 + (sseed mod d.nx) in
      let sy = 1 + (sseed / 7 mod d.ny) in
      let sz = 1 + (sseed / 49 mod d.nz) in
      let b = Box.make base (Shape.make sx sy sz) in
      let cells = Box.cells d b in
      List.for_all
        (fun i ->
          let c = Coord.of_index d i in
          Box.member d b c = List.exists (Coord.equal c) cells)
        (List.init (Dims.volume d) Fun.id))

let prop_grid_free_count =
  QCheck.Test.make ~name:"grid free count tracks occupancy" ~count:200
    QCheck.(pair small_int (pair arb_dims (float_bound_inclusive 1.)))
    (fun (seed, (d, p)) ->
      let rng = Bgl_stats.Rng.create ~seed in
      let g = random_grid rng d true p in
      let free = ref 0 in
      for i = 0 to Dims.volume d - 1 do
        if Grid.is_free g i then incr free
      done;
      !free = Grid.free_count g && Grid.busy_count g = Dims.volume d - !free)

let prop_prefix_agrees =
  QCheck.Test.make ~name:"prefix counts equal direct counts" ~count:200
    QCheck.(
      pair small_int (pair arb_dims (pair bool (pair (float_bound_inclusive 1.) (pair (int_range 0 999) (int_range 1 216))))))
    (fun (seed, (d, (wrap, (p, (bseed, sseed))))) ->
      let rng = Bgl_stats.Rng.create ~seed in
      let g = random_grid rng d wrap p in
      let table = Prefix.build g in
      let sx = 1 + (sseed mod d.nx) in
      let sy = 1 + (sseed / 7 mod d.ny) in
      let sz = 1 + (sseed / 49 mod d.nz) in
      let base =
        if wrap then Coord.of_index d (bseed mod Dims.volume d)
        else
          Coord.make
            (bseed mod (d.nx - sx + 1))
            (bseed / 5 mod (d.ny - sy + 1))
            (bseed / 25 mod (d.nz - sz + 1))
      in
      let b = Box.make base (Shape.make sx sy sz) in
      let direct = List.length (List.filter (fun i -> not (Grid.is_free g i)) (Box.indices d b)) in
      Prefix.occupied_in_box table b = direct)

(* Random alloc/free sequences against a tracking table. Each op is a
   pair of seeds decoded against the dims: it either claims a fully
   free box, releases a box we own, or toggles one node. Every mutation
   is noted, so the tracker must stay equal to a from-scratch build
   using only incremental updates. The op list shrinks as a list, so
   counterexamples minimize to short sequences. *)
let apply_op g table (bseed, sseed) =
  let d = Grid.dims g in
  let owner = 5 in
  let sx = 1 + (sseed mod d.nx) in
  let sy = 1 + (sseed / 7 mod d.ny) in
  let sz = 1 + (sseed / 49 mod d.nz) in
  let b = Box.make (Coord.of_index d (bseed mod Dims.volume d)) (Shape.make sx sy sz) in
  let cells = Box.indices d b in
  if List.for_all (Grid.is_free g) cells then begin
    Grid.occupy g b ~owner;
    Prefix.note_box table b
  end
  else if List.for_all (fun i -> Grid.owner g i = Some owner) cells then begin
    Grid.vacate g b ~owner;
    Prefix.note_box table b
  end
  else begin
    let node = bseed mod Dims.volume d in
    (match Grid.owner g node with
    | None -> Grid.occupy_node g node ~owner
    | Some o -> Grid.vacate_node g node ~owner:o);
    Prefix.note_node table node
  end

let prop_summary_feasible_necessary =
  (* The summary may say "maybe" for a shape with no placement, but it
     must never say "no" when a direct scan finds a free box — a false
     rejection would make the gated finders drop real candidates. *)
  QCheck.Test.make ~name:"summary shape_feasible is a necessary condition" ~count:300
    QCheck.(
      pair
        (pair arb_dims bool)
        (pair (small_list (int_range 0 999)) (pair (int_range 1 6) (pair (int_range 1 6) (int_range 1 6)))))
    (fun ((d, wrap), (nodes, (sx, (sy, sz)))) ->
      let g = Grid.create ~wrap d in
      List.iter
        (fun n ->
          let n = n mod Dims.volume d in
          if Grid.is_free g n then Grid.occupy_node g n ~owner:7)
        nodes;
      let s =
        Shape.make (1 + ((sx - 1) mod d.nx)) (1 + ((sy - 1) mod d.ny)) (1 + ((sz - 1) mod d.nz))
      in
      let box_free b = List.for_all (Grid.is_free g) (Box.indices d b) in
      let hi dim ext = if wrap then dim - 1 else dim - ext in
      let exists_direct = ref false in
      for x = 0 to hi d.nx s.Shape.sx do
        for y = 0 to hi d.ny s.Shape.sy do
          for z = 0 to hi d.nz s.Shape.sz do
            if box_free (Box.make (Coord.make x y z) s) then exists_direct := true
          done
        done
      done;
      (not !exists_direct) || Summary.shape_feasible (Grid.summary g) ~wrap s)

let prop_prefix_incremental_equals_rebuild =
  QCheck.Test.make ~name:"incremental prefix state = from-scratch rebuild" ~count:200
    QCheck.(
      pair (pair arb_dims bool) (small_list (pair (int_range 0 999) (int_range 0 999))))
    (fun ((d, wrap), ops) ->
      let g = Grid.create ~wrap d in
      let table = Prefix.track g in
      (* Sync at every step, not just at the end: each op must be
         digestible as a dirty-block update on its own. *)
      List.iter
        (fun op ->
          apply_op g table op;
          if not (Prefix.equal table (Prefix.build g)) then
            QCheck.Test.fail_reportf "tracker diverged after an op:@.%a" Grid.pp g)
        ops;
      let s = Prefix.stats table in
      if s.Prefix.full_rebuilds > 0 then
        QCheck.Test.fail_reportf "noted mutations caused %d full rebuilds" s.Prefix.full_rebuilds;
      true)

let prop_prefix_batched_notes =
  QCheck.Test.make ~name:"batched notes merge into one dirty region" ~count:200
    QCheck.(
      pair (pair arb_dims bool) (small_list (pair (int_range 0 999) (int_range 0 999))))
    (fun ((d, wrap), ops) ->
      let g = Grid.create ~wrap d in
      let table = Prefix.track g in
      (* All ops first, one sync at the end: the dirty corners must
         merge correctly. *)
      List.iter (apply_op g table) ops;
      Prefix.equal table (Prefix.build g))

let prop_fingerprint_tracks_occupancy =
  QCheck.Test.make ~name:"fingerprint identifies the free/occupied set" ~count:200
    QCheck.(
      pair (pair arb_dims bool) (small_list (pair (int_range 0 999) (int_range 0 999))))
    (fun ((d, wrap), ops) ->
      let g = Grid.create ~wrap d in
      let reference = Grid.create ~wrap d in
      (* Replay the same occupancy into [reference] node by node, in a
         different order and under different owners: fingerprints must
         still agree, and version must count every mutation. *)
      let table = Prefix.track g in
      List.iter (apply_op g table) ops;
      for node = Dims.volume d - 1 downto 0 do
        if not (Grid.is_free g node) then Grid.occupy_node reference node ~owner:11
      done;
      Grid.fingerprint reference = Grid.fingerprint g
      && Grid.version g >= Grid.busy_count g)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_coord_round_trip;
      prop_box_cells_distinct;
      prop_overlap_matches_cells;
      prop_member_matches_cells;
      prop_grid_free_count;
      prop_prefix_agrees;
      prop_summary_feasible_necessary;
      prop_prefix_incremental_equals_rebuild;
      prop_prefix_batched_notes;
      prop_fingerprint_tracks_occupancy;
    ]

(* The scan kernels probe once per base, so a probe that allocates is
   paid millions of times per run. Each one must stay allocation-free
   in the build the tests run in, the unoptimised dev profile. *)
let minor_words_per_call f =
  let n = 10_000 in
  f 0;
  let w0 = Gc.minor_words () in
  for i = 1 to n do
    f i
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

let test_probes_allocation_free () =
  let d = Dims.make 9 7 9 in
  let g = Grid.create d in
  Grid.occupy g (Box.make (Coord.make 7 5 1) (Shape.make 3 3 2)) ~owner:1;
  let t = Prefix.track g in
  let s = Shape.make 3 2 4 in
  let a = Box.make (Coord.make 8 6 8) (Shape.make 2 2 2) in
  let b = Box.make (Coord.make 0 0 0) (Shape.make 2 3 1) in
  let check name words =
    check_bool (Printf.sprintf "%s: %.3f minor words per call" name words) true (words < 1.)
  in
  check "Prefix.occupied_in_range"
    (minor_words_per_call (fun i ->
         ignore
           (Sys.opaque_identity
              (Prefix.occupied_in_range t ~x0:(i mod 9) ~y0:(i mod 7) ~z0:0 ~sx:3 ~sy:2 ~sz:4))));
  check "Prefix.base_is_free"
    (minor_words_per_call (fun i ->
         ignore (Sys.opaque_identity (Prefix.base_is_free t ~x:(i mod 9) ~y:0 ~z:(i mod 9) s))));
  check "Box.overlap"
    (minor_words_per_call (fun i ->
         ignore (Sys.opaque_identity (Box.overlap d (if i land 1 = 0 then a else b) a))))

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "bgl_torus"
    [
      ( "dims",
        [
          tc "make/volume" test_dims_make;
          tc "invalid" test_dims_invalid;
          tc "string round trip" test_dims_string_round_trip;
          tc "comma form and bgl_full" test_dims_comma_form;
        ] );
      ( "coord",
        [
          tc "index round trip" test_coord_index_round_trip;
          tc "index order" test_coord_index_order;
          tc "wrap" test_coord_wrap;
          tc "in_bounds" test_coord_in_bounds;
          tc "of_index invalid" test_coord_of_index_invalid;
        ] );
      ("shape", [ tc "volume/fits" test_shape_volume_fits; tc "rotations" test_shape_rotations ]);
      ( "box",
        [
          tc "cells count and dedup" test_box_cells_count_and_dedup;
          tc "indices in range" test_box_indices_in_range;
          tc "canonical" test_box_canonical;
          tc "member" test_box_member;
          tc "overlap" test_box_overlap;
        ] );
      ( "grid",
        [
          tc "occupy/vacate" test_grid_occupy_vacate;
          tc "double occupy rejected" test_grid_double_occupy_rejected;
          tc "vacate wrong owner" test_grid_vacate_wrong_owner;
          tc "copy independent" test_grid_copy_independent;
          tc "owners" test_grid_owners;
          tc "down owner" test_grid_down_owner;
          tc "version and fingerprint" test_grid_version_fingerprint;
        ] );
      ( "prefix",
        [
          tc "matches direct counts" test_prefix_matches_direct;
          tc "incremental tracking" test_prefix_track_incremental;
          tc "self-heals on unnoted changes" test_prefix_track_self_heals;
          tc "probes allocate nothing" test_probes_allocation_free;
        ] );
      ( "summary",
        [
          tc "slab counts track mutations" test_summary_counts;
          tc "copy is independent" test_summary_copy_independent;
          tc "full grid is infeasible" test_summary_full_grid_infeasible;
        ] );
      ("properties", props);
    ]
