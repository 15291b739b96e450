(* Unit and property tests for the partition finders and MFP. *)

open Bgl_torus
open Bgl_partition

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let box_t = Alcotest.testable Box.pp Box.equal
let boxes = Alcotest.(list box_t)

(* ------------------------------------------------------------------ *)
(* Shapes *)

let test_divisors () =
  Alcotest.(check (list int)) "12" [ 1; 2; 3; 4; 6; 12 ] (Shapes.divisors 12);
  Alcotest.(check (list int)) "1" [ 1 ] (Shapes.divisors 1);
  Alcotest.(check (list int)) "prime" [ 1; 13 ] (Shapes.divisors 13);
  Alcotest.(check (list int)) "square" [ 1; 2; 4; 8; 16 ] (Shapes.divisors 16)

let test_divisors_invalid () =
  Alcotest.check_raises "zero" (Invalid_argument "Shapes.divisors: argument must be positive")
    (fun () -> ignore (Shapes.divisors 0))

let test_shapes_of_volume () =
  let d = Dims.bgl in
  let shapes = Shapes.shapes_of_volume d 8 in
  check_bool "all have volume 8" true (List.for_all (fun s -> Shape.volume s = 8) shapes);
  check_bool "all fit" true (List.for_all (Shape.fits d) shapes);
  (* Volume 8 on 4x4x8: 1x1x8 1x2x4 1x4x2 2x1x4 2x2x2 2x4x1 4x1x2 4x2x1 1x8x? no (ny=4). *)
  check_int "count" 8 (List.length shapes)

let test_shapes_of_volume_infeasible () =
  (* 11 is prime and 11 > 8, so no shape fits a 4x4x8 torus. *)
  Alcotest.(check (list (Alcotest.testable Shape.pp Shape.equal)))
    "no shape of 11" [] (Shapes.shapes_of_volume Dims.bgl 11)

let test_feasible_volumes () =
  let vols = Shapes.feasible_volumes Dims.bgl in
  check_bool "contains 1" true (List.mem 1 vols);
  check_bool "contains 128" true (List.mem 128 vols);
  check_bool "no 11" false (List.mem 11 vols);
  check_bool "sorted" true (List.sort Int.compare vols = vols);
  check_bool "contains 7 (1x1x7)" true (List.mem 7 vols)

let test_round_up_volume () =
  let d = Dims.bgl in
  Alcotest.(check (option int)) "exact" (Some 8) (Shapes.round_up_volume d 8);
  Alcotest.(check (option int)) "11 -> 12" (Some 12) (Shapes.round_up_volume d 11);
  Alcotest.(check (option int)) "torus-filling" (Some 128) (Shapes.round_up_volume d 128);
  Alcotest.(check (option int)) "too large" None (Shapes.round_up_volume d 129);
  (* 97..100: 97 prime > 8... the next feasible volume above 96 is 112 (2x4x14? no).
     Check it agrees with a direct search. *)
  let direct s =
    let rec up v = if v > 128 then None else if Shapes.shapes_of_volume d v <> [] then Some v else up (v + 1) in
    up s
  in
  for s = 1 to 128 do
    Alcotest.(check (option int))
      (Printf.sprintf "round_up %d" s)
      (direct s) (Shapes.round_up_volume d s)
  done

let test_shapes_desc_order () =
  let desc = Shapes.shapes_desc Dims.bgl in
  check_int "all shapes of 4x4x8" (4 * 4 * 8) (List.length desc);
  let volumes = List.map Shape.volume desc in
  check_bool "non-increasing" true
    (List.for_all2 (fun a b -> a >= b) (List.filteri (fun i _ -> i < List.length volumes - 1) volumes)
       (List.tl volumes))

(* ------------------------------------------------------------------ *)
(* Finders: hand-built scenarios *)

let test_find_empty_torus_singletons () =
  let g = Grid.create Dims.bgl in
  List.iter
    (fun algo ->
      check_int
        (Finder.algo_name algo ^ " singletons")
        128
        (List.length (Finder.find algo g ~volume:1)))
    Finder.all_algos

let test_find_full_torus () =
  let g = Grid.create Dims.bgl in
  List.iter
    (fun algo ->
      (* Exactly one canonical box covers the whole torus. *)
      Alcotest.check boxes
        (Finder.algo_name algo ^ " full box")
        [ Box.make (Coord.make 0 0 0) (Shape.make 4 4 8) ]
        (Finder.find algo g ~volume:128))
    Finder.all_algos

let test_find_respects_occupancy () =
  let g = Grid.create Dims.bgl in
  (* Occupy the z=0 plane: no box touching z=0 is free. *)
  for x = 0 to 3 do
    for y = 0 to 3 do
      Grid.occupy_node g (Coord.index Dims.bgl (Coord.make x y 0)) ~owner:1
    done
  done;
  List.iter
    (fun algo ->
      let found = Finder.find algo g ~volume:16 in
      check_bool
        (Finder.algo_name algo ^ " avoids z=0")
        true
        (List.for_all
           (fun b ->
             List.for_all (fun (c : Coord.t) -> c.z <> 0) (Box.cells Dims.bgl b))
           found);
      check_bool (Finder.algo_name algo ^ " finds some") true (found <> []))
    Finder.all_algos

let test_find_no_wrap_smaller () =
  let dwrap = Grid.create ~wrap:true (Dims.make 4 1 1) in
  let gnow = Grid.create ~wrap:false (Dims.make 4 1 1) in
  (* Occupy middle cells 1 and 2; a 2-box exists only with wraparound
     (cells 3 and 0). *)
  List.iter
    (fun g ->
      Grid.occupy_node g 1 ~owner:1;
      Grid.occupy_node g 2 ~owner:1)
    [ dwrap; gnow ];
  List.iter
    (fun algo ->
      check_int (Finder.algo_name algo ^ " wrap finds") 1
        (List.length (Finder.find algo dwrap ~volume:2));
      check_int (Finder.algo_name algo ^ " no-wrap finds none") 0
        (List.length (Finder.find algo gnow ~volume:2)))
    Finder.all_algos

let test_find_infeasible_volume () =
  let g = Grid.create Dims.bgl in
  List.iter
    (fun algo ->
      Alcotest.check boxes (Finder.algo_name algo ^ " volume 11") [] (Finder.find algo g ~volume:11);
      Alcotest.check boxes (Finder.algo_name algo ^ " beyond torus") []
        (Finder.find algo g ~volume:129))
    Finder.all_algos

let test_find_for_size_rounds_up () =
  let g = Grid.create Dims.bgl in
  let for_11 = Finder.find_for_size Finder.Prefix g ~size:11 in
  check_bool "non-empty" true (for_11 <> []);
  check_bool "all volume 12" true (List.for_all (fun b -> Box.volume b = 12) for_11)

let test_exists_free () =
  let g = Grid.create Dims.bgl in
  check_bool "empty torus has 128" true (Finder.exists_free g ~volume:128);
  Grid.occupy_node g 0 ~owner:1;
  check_bool "no longer 128" false (Finder.exists_free g ~volume:128);
  check_bool "still 64" true (Finder.exists_free g ~volume:64)

let test_canonical_dedup_full_dim () =
  (* With wraparound, a shape spanning a full dimension must appear
     only with base 0 in that dimension. *)
  let g = Grid.create (Dims.make 4 1 1) in
  List.iter
    (fun algo ->
      Alcotest.check boxes
        (Finder.algo_name algo ^ " full-x dedup")
        [ Box.make (Coord.make 0 0 0) (Shape.make 4 1 1) ]
        (Finder.find algo g ~volume:4))
    Finder.all_algos

(* ------------------------------------------------------------------ *)
(* Finder.Cache: hand-built scenarios *)

let test_cache_basic () =
  let g = Grid.create Dims.bgl in
  let cache = Finder.Cache.create g in
  let direct = Finder.find Finder.Prefix g ~volume:8 in
  Alcotest.check boxes "cold query" direct (Finder.Cache.find cache ~volume:8);
  Alcotest.check boxes "memo hit" direct (Finder.Cache.find cache ~volume:8);
  let hits, misses = Finder.Cache.stats cache in
  check_int "one hit" 1 hits;
  check_int "one miss" 1 misses;
  (* A noted mutation invalidates exactly the stale entries. *)
  let b = List.hd direct in
  Grid.occupy g b ~owner:3;
  Finder.Cache.note_box cache b;
  Alcotest.check boxes "after occupy" (Finder.find Finder.Prefix g ~volume:8)
    (Finder.Cache.find cache ~volume:8);
  check_bool "table stayed incremental" true
    ((Finder.Cache.table_stats cache).Prefix.full_rebuilds = 0);
  (* Occupy+vacate restores the fingerprint, so the memo re-hits. *)
  Grid.vacate g b ~owner:3;
  Finder.Cache.note_box cache b;
  ignore (Finder.Cache.find cache ~volume:8);
  let probe = Box.make (Coord.make 2 2 2) (Shape.make 1 1 2) in
  Grid.occupy g probe ~owner:4;
  Finder.Cache.note_box cache probe;
  Grid.vacate g probe ~owner:4;
  Finder.Cache.note_box cache probe;
  let hits_before, _ = Finder.Cache.stats cache in
  Alcotest.check boxes "restored fingerprint re-hits" direct (Finder.Cache.find cache ~volume:8);
  let hits_after, _ = Finder.Cache.stats cache in
  check_int "hit count grew" (hits_before + 1) hits_after

let test_cache_self_heals_unnoted () =
  let g = Grid.create Dims.bgl in
  let cache = Finder.Cache.create g in
  ignore (Finder.Cache.find cache ~volume:4);
  (* Mutate WITHOUT telling the cache: the fingerprint change kills the
     memo entry and the version drift forces a full table rebuild — the
     result must still be correct. *)
  Grid.occupy_node g 0 ~owner:9;
  Alcotest.check boxes "correct despite missing note"
    (Finder.find Finder.Prefix g ~volume:4)
    (Finder.Cache.find cache ~volume:4);
  check_bool "healed by full rebuild" true
    ((Finder.Cache.table_stats cache).Prefix.full_rebuilds >= 1)

let test_differential_mode_toggle () =
  check_bool "off by default" false (Finder.differential_enabled ());
  Finder.set_differential true;
  Fun.protect
    ~finally:(fun () -> Finder.set_differential false)
    (fun () ->
      check_bool "enabled" true (Finder.differential_enabled ());
      (* Checked queries still agree on a non-trivial grid. *)
      let g = Grid.create Dims.bgl in
      Grid.occupy g (Box.make (Coord.make 0 0 0) (Shape.make 2 2 2)) ~owner:1;
      let cache = Finder.Cache.create g in
      Alcotest.check boxes "checked cache query"
        (Finder.find Finder.Naive g ~volume:8)
        (Finder.Cache.find cache ~volume:8);
      check_bool "checked exists_free" true (Finder.exists_free g ~volume:64));
  check_bool "restored" false (Finder.differential_enabled ())

let test_differential_sampling () =
  Alcotest.check_raises "zero sample rejected"
    (Invalid_argument "Finder.set_differential: sample must be >= 1") (fun () ->
      Finder.set_differential ~sample:0 true);
  Finder.set_differential ~sample:3 true;
  Fun.protect
    ~finally:(fun () -> Finder.set_differential false)
    (fun () ->
      check_bool "sampling counts as enabled" true (Finder.differential_enabled ());
      (* Sampled queries must stay correct whether or not a given one
         is the checked one. *)
      let g = Grid.create Dims.bgl in
      Grid.occupy g (Box.make (Coord.make 1 1 1) (Shape.make 2 2 2)) ~owner:1;
      let cache = Finder.Cache.create g in
      for _ = 1 to 7 do
        Alcotest.check boxes "sampled cache query"
          (Finder.find Finder.Naive g ~volume:8)
          (Finder.Cache.find cache ~volume:8)
      done);
  check_bool "restored" false (Finder.differential_enabled ())

let test_bases_cache_cap () =
  let d = Dims.make 1 1 512 in
  for z = 1 to 300 do
    ignore (Finder.bases d ~wrap:false (Shape.make 1 1 z))
  done;
  let len, cap = Finder.bases_cache_stats () in
  check_bool "cap positive" true (cap > 0);
  check_bool "length within cap" true (len <= cap);
  (* A re-request after eviction still answers correctly. *)
  check_int "recomputed entry correct" 512 (List.length (Finder.bases d ~wrap:false (Shape.make 1 1 1)))

let test_orientations_non_cubic () =
  let d = Dims.make 2 3 4 in
  let os = Shapes.orientations d (Shape.make 1 1 4) in
  check_bool "all orientations fit" true (List.for_all (Shape.fits d) os);
  check_int "only the z-aligned rotation survives" 1 (List.length os);
  check_bool "dropped rotations not resurrected" false
    (List.exists (fun s -> s.Shape.sx = 4 || s.Shape.sy = 4) os);
  (* On a cube no rotation is lost. *)
  check_int "cube keeps all three" 3
    (List.length (Shapes.orientations (Dims.make 4 4 4) (Shape.make 1 1 4)))

(* Summary gating switches on at volume >= 512; the gate must never
   change what the finders return, only how fast they reject. *)
let test_gated_find_agrees_at_scale () =
  let d = Dims.make 8 8 16 in
  let g = Grid.create d in
  check_bool "summary gating active at 1024 nodes" true (Finder.summary_gated g);
  (* Mostly-occupied grid keeps the naive reference affordable. *)
  Grid.occupy g (Box.make (Coord.make 0 0 0) (Shape.make 8 8 16)) ~owner:1;
  Grid.vacate g (Box.make (Coord.make 0 0 0) (Shape.make 2 2 2)) ~owner:1;
  Grid.vacate g (Box.make (Coord.make 4 4 8) (Shape.make 2 2 4)) ~owner:1;
  List.iter
    (fun v ->
      Alcotest.check boxes
        (Printf.sprintf "gated prefix = naive at volume %d" v)
        (Finder.find Finder.Naive g ~volume:v)
        (Finder.find Finder.Prefix g ~volume:v);
      check_bool
        (Printf.sprintf "gated exists agrees at volume %d" v)
        (Finder.find Finder.Naive g ~volume:v <> [])
        (Finder.exists_free g ~volume:v))
    [ 1; 4; 8; 16; 32 ];
  check_int "gated MFP finds the larger pocket" 16 (Mfp.volume g)

(* ------------------------------------------------------------------ *)
(* MFP: hand-built scenarios *)

let test_mfp_empty_and_full () =
  let g = Grid.create Dims.bgl in
  check_int "empty torus MFP" 128 (Mfp.volume g);
  let full = Box.make (Coord.make 0 0 0) (Shape.make 4 4 8) in
  Grid.occupy g full ~owner:1;
  check_int "full torus MFP" 0 (Mfp.volume g);
  Alcotest.(check (option box_t)) "no box" None (Mfp.box g)

let test_mfp_after_restores_grid () =
  let g = Grid.create Dims.bgl in
  let candidate = Box.make (Coord.make 0 0 0) (Shape.make 2 2 2) in
  let free_before = Grid.free_count g in
  let v = Mfp.volume_after g candidate in
  check_int "grid restored" free_before (Grid.free_count g);
  check_bool "MFP shrank" true (v < 128);
  (* Occupying a 2x2x2 corner of a 4x4x8 torus leaves the 4x4x6 slab at
     z in [2, 8) entirely free, so the MFP after placement is 96. *)
  check_int "expected 96" 96 v

let test_mfp_loss () =
  let g = Grid.create Dims.bgl in
  let candidate = Box.make (Coord.make 0 0 0) (Shape.make 2 2 2) in
  check_int "loss" (128 - 96) (Mfp.loss g candidate);
  check_int "loss_given" (Mfp.loss g candidate) (Mfp.loss_given ~before:(Mfp.volume g) g candidate)

let test_mfp_figure1_intuition () =
  (* Figure 1 of the paper: placing a job flush against existing jobs
     preserves a larger MFP than splitting the free space. Model a
     4x4x1 plane with a 2x2 job in a corner; placing a 2x1x1 job
     adjacent (sharing the occupied boundary) leaves more MFP than
     placing it in the middle of the free area. *)
  let d = Dims.make 4 4 1 in
  let g = Grid.create ~wrap:false d in
  Grid.occupy g (Box.make (Coord.make 0 0 0) (Shape.make 2 2 1)) ~owner:1;
  let adjacent = Box.make (Coord.make 2 0 0) (Shape.make 2 1 1) in
  let middle = Box.make (Coord.make 1 2 0) (Shape.make 2 1 1) in
  check_bool "adjacent better" true (Mfp.volume_after g adjacent > Mfp.volume_after g middle)

(* ------------------------------------------------------------------ *)
(* Properties: cross-validate the finders and MFP *)

let dims_gen =
  QCheck.Gen.(map3 (fun a b c -> Dims.make a b c) (int_range 1 4) (int_range 1 4) (int_range 1 5))

let scenario_gen =
  QCheck.Gen.(
    map3
      (fun d (seed, wrap) p -> (d, seed, wrap, p))
      dims_gen (pair small_int bool) (float_bound_inclusive 0.9))

let print_scenario (d, seed, wrap, p) =
  Printf.sprintf "dims=%s seed=%d wrap=%b p=%.2f" (Dims.to_string d) seed wrap p

let arb_scenario = QCheck.make ~print:print_scenario scenario_gen

let build_grid (d, seed, wrap, p) =
  let rng = Bgl_stats.Rng.create ~seed in
  let g = Grid.create ~wrap d in
  for node = 0 to Dims.volume d - 1 do
    if Bgl_stats.Rng.unit_float rng < p then Grid.occupy_node g node ~owner:(node mod 5)
  done;
  g

let prop_finders_agree =
  QCheck.Test.make ~name:"all finders return the same set" ~count:150
    QCheck.(pair arb_scenario (int_range 1 40))
    (fun (scenario, volume) ->
      let g = build_grid scenario in
      let reference = Finder.find Finder.Naive g ~volume in
      List.for_all
        (fun algo -> Finder.find algo g ~volume = reference)
        [ Finder.Pop; Finder.Shape_search; Finder.Prefix ])

let prop_found_boxes_are_free =
  QCheck.Test.make ~name:"found boxes are free and sized" ~count:150
    QCheck.(pair arb_scenario (int_range 1 40))
    (fun (scenario, volume) ->
      let g = build_grid scenario in
      List.for_all
        (fun b -> Box.volume b = volume && Grid.box_is_free g b)
        (Finder.find Finder.Prefix g ~volume))

let prop_finder_complete =
  (* Every free canonical box of the requested volume is found. *)
  QCheck.Test.make ~name:"finder finds every free box" ~count:100
    QCheck.(pair arb_scenario (int_range 1 30))
    (fun (scenario, volume) ->
      let ((d, _, wrap, _) as sc) = scenario in
      let g = build_grid sc in
      let found = Finder.find Finder.Prefix g ~volume in
      let all_free = ref true in
      List.iter
        (fun shape ->
          List.iter
            (fun base ->
              let b = Box.canonical d ~wrap (Box.make base shape) in
              if Grid.box_is_free g b && not (List.exists (Box.equal b) found) then
                all_free := false)
            (Finder.bases d ~wrap shape))
        (Shapes.shapes_of_volume d volume);
      !all_free)

let prop_mfp_matches_naive =
  QCheck.Test.make ~name:"MFP equals max volume with a free box" ~count:100 arb_scenario
    (fun scenario ->
      let ((d, _, _, _) as sc) = scenario in
      let g = build_grid sc in
      let naive_best =
        List.fold_left
          (fun best v ->
            if v > best && Finder.find Finder.Naive g ~volume:v <> [] then v else best)
          0
          (Shapes.feasible_volumes d)
      in
      Mfp.volume g = naive_best)

let prop_mfp_box_is_free_and_maximal =
  QCheck.Test.make ~name:"MFP box is free with the reported volume" ~count:150 arb_scenario
    (fun scenario ->
      let g = build_grid scenario in
      match Mfp.box g with
      | None -> Mfp.volume g = 0
      | Some b -> Grid.box_is_free g b && Box.volume b = Mfp.volume g)

let prop_exists_free_agrees =
  QCheck.Test.make ~name:"exists_free agrees with find" ~count:150
    QCheck.(pair arb_scenario (int_range 1 40))
    (fun (scenario, volume) ->
      let g = build_grid scenario in
      Finder.exists_free g ~volume = (Finder.find Finder.Prefix g ~volume <> []))

let prop_find_with_matches_find =
  QCheck.Test.make ~name:"find_with over a fresh table equals find" ~count:100
    QCheck.(pair arb_scenario (int_range 1 30))
    (fun (scenario, volume) ->
      let g = build_grid scenario in
      let table = Prefix.build g in
      Finder.find_with table g ~volume = Finder.find Finder.Prefix g ~volume
      && Finder.exists_free_with table g ~volume = Finder.exists_free g ~volume)

let prop_finders_agree_both_wraps =
  (* Same occupancy, both torus modes, every algorithm: all four must
     return the same sorted, duplicate-free box list. Guards the POP
     wrap canonicalization (the [z_starts]/[max_sz] interplay) on the
     exact grid pair where wrapping is the only difference. *)
  QCheck.Test.make ~name:"all finders agree on wrapped and unwrapped grids" ~count:100
    QCheck.(pair arb_scenario (int_range 1 40))
    (fun ((d, seed, _, p), volume) ->
      List.for_all
        (fun wrap ->
          let g = build_grid (d, seed, wrap, p) in
          let reference = Finder.find Finder.Naive g ~volume in
          let sorted_dedup l =
            List.sort_uniq Box.compare l = l && List.sort Box.compare l = l
          in
          sorted_dedup reference
          && List.for_all
               (fun algo -> Finder.find algo g ~volume = reference)
               [ Finder.Pop; Finder.Shape_search; Finder.Prefix ])
        [ false; true ])

let prop_pop_wrap_canonical =
  (* On a wrapped torus a box spanning a full dimension is reported at
     base 0 in that dimension only — anywhere else would be the same
     node set again. *)
  QCheck.Test.make ~name:"POP reports full-dimension boxes at base 0" ~count:150
    QCheck.(pair arb_scenario (int_range 1 40))
    (fun ((d, seed, _, p), volume) ->
      let g = build_grid (d, seed, true, p) in
      List.for_all
        (fun (b : Box.t) ->
          (b.shape.sx < d.nx || b.base.x = 0)
          && (b.shape.sy < d.ny || b.base.y = 0)
          && (b.shape.sz < d.nz || b.base.z = 0))
        (Finder.find Finder.Pop g ~volume))

(* ------------------------------------------------------------------ *)
(* Differential properties: random alloc/free sequences, every finder
   flavour (including the incremental cache) against the naive
   reference. The op list shrinks as a list, so a failure minimizes to
   a short mutation sequence; the printer replays it and dumps the
   resulting grid. *)

let arb_dims = QCheck.make ~print:Dims.to_string dims_gen

(* Decode one op against the grid: claim a fully free box, release a
   box we own, or toggle a single node. Mutations go through the cache
   notes, so the cache's incremental table tracks them. *)
let apply_cache_op g cache (bseed, sseed) =
  let d = Grid.dims g in
  let owner = 5 in
  let sx = 1 + (sseed mod d.Dims.nx) in
  let sy = 1 + (sseed / 7 mod d.Dims.ny) in
  let sz = 1 + (sseed / 49 mod d.Dims.nz) in
  let b = Box.make (Coord.of_index d (bseed mod Dims.volume d)) (Shape.make sx sy sz) in
  let cells = Box.indices d b in
  if List.for_all (Grid.is_free g) cells then begin
    Grid.occupy g b ~owner;
    Finder.Cache.note_box cache b
  end
  else if List.for_all (fun i -> Grid.owner g i = Some owner) cells then begin
    Grid.vacate g b ~owner;
    Finder.Cache.note_box cache b
  end
  else begin
    let node = bseed mod Dims.volume d in
    (match Grid.owner g node with
    | None -> Grid.occupy_node g node ~owner
    | Some o -> Grid.vacate_node g node ~owner:o);
    Finder.Cache.note_node cache node
  end

let replay_ops (d, wrap, ops) =
  let g = Grid.create ~wrap d in
  let cache = Finder.Cache.create g in
  List.iter (apply_cache_op g cache) ops;
  (g, cache)

let arb_op_scenario =
  let arb =
    QCheck.(
      quad arb_dims bool
        (small_list (pair (int_range 0 999) (int_range 0 999)))
        (int_range 1 40))
  in
  QCheck.set_print
    (fun (d, wrap, ops, volume) ->
      let g, _ = replay_ops (d, wrap, ops) in
      Format.asprintf "dims=%s wrap=%b volume=%d ops=%s@.grid after replay:@.%a"
        (Dims.to_string d) wrap volume
        (String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "(%d,%d)" a b) ops))
        Grid.pp g)
    arb

let prop_differential_all_finders =
  QCheck.Test.make ~name:"all finders + incremental cache agree after random ops" ~count:150
    arb_op_scenario
    (fun (d, wrap, ops, volume) ->
      let g, cache = replay_ops (d, wrap, ops) in
      let reference = Finder.find Finder.Naive g ~volume in
      (* Feasibility and exact result agreement, every flavour. *)
      List.for_all
        (fun algo -> Finder.find algo g ~volume = reference)
        [ Finder.Pop; Finder.Shape_search; Finder.Prefix ]
      && Finder.find_with (Prefix.build g) g ~volume = reference
      && Finder.Cache.find cache ~volume = reference
      && Finder.Cache.find cache ~volume = reference (* memo-hit path *)
      && Finder.Cache.exists_free cache ~volume = (reference <> [])
      && Finder.exists_free g ~volume = (reference <> [])
      (* Validity of every returned partition: free, in-bounds base,
         exact volume. *)
      && List.for_all
           (fun (b : Box.t) ->
             Coord.in_bounds d b.base && Box.volume b = volume && Grid.box_is_free g b)
           reference)

let prop_cache_mfp_agrees =
  QCheck.Test.make ~name:"cached MFP equals uncached MFP after random ops" ~count:150
    arb_op_scenario
    (fun (d, wrap, ops, _volume) ->
      let g, cache = replay_ops (d, wrap, ops) in
      let plain = Mfp.volume g in
      let cached = Mfp.volume ~cache g in
      let again = Mfp.volume ~cache g in
      plain = cached && again = cached
      &&
      match Mfp.box ~cache g with
      | None -> plain = 0
      | Some candidate ->
          let fp = Grid.fingerprint g in
          let after_plain = Mfp.volume_after g candidate in
          let after_cached = Mfp.volume_after ~cache g candidate in
          after_plain = after_cached
          && Grid.fingerprint g = fp (* probes restored the grid *)
          && Mfp.volume ~cache g = plain (* memo survived the probes *))

(* ------------------------------------------------------------------ *)
(* Counted enumeration: count/nth/select must agree with the
   materialised list — count with its length, select with the engine's
   historical even subsample (transcribed literally below so a shared
   bug cannot hide), nth with positional lookup — on arbitrary
   occupancies, both torus modes, non-cubic dims, and the cap >= n /
   cap = 1 / n = 0 edges. Counterexamples shrink to a short op list
   and print the replayed grid, like the differential properties. *)

let cap_oracle cap boxes =
  let n = List.length boxes in
  if n <= cap then boxes
  else
    let arr = Array.of_list boxes in
    List.init cap (fun i -> arr.(i * n / cap))

let prop_count_equals_find_length =
  QCheck.Test.make ~name:"count equals length of find after random ops" ~count:150
    arb_op_scenario
    (fun (d, wrap, ops, volume) ->
      let g, cache = replay_ops (d, wrap, ops) in
      let reference = List.length (Finder.find Finder.Naive g ~volume) in
      Finder.count g ~volume = reference
      && Finder.count_with (Prefix.build g) g ~volume = reference
      && Finder.Cache.count cache ~volume = reference
      && Finder.Cache.count cache ~volume = reference (* memo-hit path *))

let prop_select_equals_capped_find =
  QCheck.Test.make ~name:"select equals even-capped find after random ops" ~count:150
    (QCheck.pair arb_op_scenario (QCheck.int_range 1 50))
    (fun ((d, wrap, ops, volume), cap) ->
      let g, cache = replay_ops (d, wrap, ops) in
      let sorted = Finder.find Finder.Naive g ~volume in
      let reference = cap_oracle cap sorted in
      Finder.select g ~volume ~cap = reference
      && Finder.select_with (Prefix.build g) g ~volume ~cap = reference
      && Finder.Cache.select cache ~volume ~cap = reference
      && Finder.Cache.select cache ~volume ~cap = reference (* memo-hit path *)
      && Finder.select g ~volume ~cap:1 = cap_oracle 1 sorted
      && Finder.nth g ~volume ~rank:0 = (match sorted with [] -> None | b :: _ -> Some b)
      && Finder.nth g ~volume ~rank:(cap - 1) = List.nth_opt sorted (cap - 1)
      && Finder.nth g ~volume ~rank:(List.length sorted) = None)

let test_counted_edges () =
  let d = Dims.make 3 3 4 in
  let g = Grid.create ~wrap:true d in
  (* n = 0: volume 7 has no divisor shape fitting 3x3x4 *)
  check_int "unrealisable volume counts zero" 0 (Finder.count g ~volume:7);
  check_bool "unrealisable volume selects nothing" true (Finder.select g ~volume:7 ~cap:5 = []);
  check_bool "nth on empty result" true (Finder.nth g ~volume:7 ~rank:0 = None);
  check_int "volume beyond the machine" 0 (Finder.count g ~volume:1000);
  let all = Finder.find Finder.Naive g ~volume:4 in
  check_int "count on a live volume" (List.length all) (Finder.count g ~volume:4);
  check_bool "cap >= n is the identity" true (Finder.select g ~volume:4 ~cap:10_000 = all);
  check_bool "cap = 1 is the sorted head" true
    (Finder.select g ~volume:4 ~cap:1 = [ List.hd all ]);
  check_bool "nth walks the sorted order" true
    (List.for_all
       (fun r -> Finder.nth g ~volume:4 ~rank:r = List.nth_opt all r)
       [ 0; 1; 2; List.length all - 1; List.length all ])

(* Same agreement above the summary-gating threshold, where the
   counted passes additionally use per-axis feasible-start masks and
   shape gating: the representation the full-scale engine runs on. *)
let test_counted_agrees_at_scale () =
  let d = Dims.make 8 8 16 in
  let g = Grid.create d in
  check_bool "summary gating active at 1024 nodes" true (Finder.summary_gated g);
  let check_all_volumes () =
    List.iter
      (fun v ->
        let sorted = Finder.find Finder.Prefix g ~volume:v in
        check_int
          (Printf.sprintf "gated count agrees at volume %d" v)
          (List.length sorted) (Finder.count g ~volume:v);
        List.iter
          (fun cap ->
            check_bool
              (Printf.sprintf "gated select agrees at volume %d cap %d" v cap)
              true
              (Finder.select g ~volume:v ~cap = cap_oracle cap sorted))
          [ 1; 3; 24 ])
      [ 1; 4; 8; 16; 32 ]
  in
  (* Near-empty: the ribbon fast path covers whole rows. *)
  Grid.occupy g (Box.make (Coord.make 3 2 5) (Shape.make 2 2 2)) ~owner:1;
  check_all_volumes ();
  (* Mostly-occupied: the per-base fallback does the counting. *)
  Grid.occupy g (Box.make (Coord.make 0 0 0) (Shape.make 8 8 5)) ~owner:2;
  Grid.occupy g (Box.make (Coord.make 0 0 8) (Shape.make 8 8 8)) ~owner:3;
  check_all_volumes ()

(* ------------------------------------------------------------------ *)
(* Summary-gated tori with extents that are not multiples of the
   summary's 8-node block. A wrapped box can run through the clipped
   last block and on into block 0, so it spans one block more than a
   box on a multiple-of-8 axis. Random-fraction occupancy almost never
   leaves such a box as the only free space, so these properties build
   a full machine minus k free boxes, some of them across the seam. *)

(* Regression: a 14x1x1 strip wrapping x = 15..27 -> 0 on a full 28x8x8
   torus crosses blocks 1, 2, 3 (the clipped one, 4 wide) and 0, one more than the
   ceil(14/8)+1 the gate used to allow. *)
let test_gate_wrapped_clipped_block () =
  let d = Dims.make 28 8 8 in
  let g = Grid.create d in
  let strip = Box.make (Coord.make 15 0 0) (Shape.make 14 1 1) in
  for node = 0 to Dims.volume d - 1 do
    if not (Box.member d strip (Coord.of_index d node)) then Grid.occupy_node g node ~owner:1
  done;
  check_bool "gate admits the strip's shape" true
    (Summary.shape_feasible (Grid.summary g) ~wrap:true strip.shape);
  check_bool "strip is free" true (Prefix.base_is_free (Prefix.build g) ~x:15 ~y:0 ~z:0 strip.shape);
  Alcotest.check boxes "prefix finder finds the strip" [ strip ] (Finder.find Finder.Prefix g ~volume:14);
  check_int "cached count finds the strip" 1 (Finder.Cache.count (Finder.Cache.create g) ~volume:14);
  check_int "MFP is the strip" 14 (Mfp.volume g)

let gated_dims_gen =
  let extent = QCheck.Gen.int_range 5 30 in
  let rec gen st =
    let d = Dims.make (extent st) (extent st) (extent st) in
    if Dims.volume d >= 512 (* the summary-gating threshold *) then d else gen st
  in
  gen

(* With wrap, each axis of a free box flips a coin to put its base close
   enough to the upper edge that the box crosses the seam. *)
let free_box_gen (d : Dims.t) ~wrap =
  let open QCheck.Gen in
  let axis n =
    int_range 1 (min n 10) >>= fun e ->
    if not wrap then map (fun b -> (b, e)) (int_range 0 (n - e))
    else
      bool >>= fun seam ->
      if seam && e > 1 then map (fun b -> (b, e)) (int_range (max 0 (n - e + 1)) (n - 1))
      else map (fun b -> (b, e)) (int_range 0 (n - 1))
  in
  map3
    (fun (x, sx) (y, sy) (z, sz) -> Box.make (Coord.make x y z) (Shape.make sx sy sz))
    (axis d.nx) (axis d.ny) (axis d.nz)

let gated_scenario_gen =
  let open QCheck.Gen in
  gated_dims_gen >>= fun d ->
  bool >>= fun wrap ->
  int_range 1 3 >>= fun k -> map (fun bs -> (d, wrap, bs)) (list_repeat k (free_box_gen d ~wrap))

let print_gated (d, wrap, bs) =
  Format.asprintf "dims=%s wrap=%b free boxes=%a" (Dims.to_string d) wrap
    Format.(pp_print_list ~pp_sep:pp_print_space Box.pp)
    bs

let arb_gated = QCheck.make ~print:print_gated gated_scenario_gen

let build_gated (d, wrap, bs) =
  let g = Grid.create ~wrap d in
  for node = 0 to Dims.volume d - 1 do
    let c = Coord.of_index d node in
    if not (List.exists (fun b -> Box.member d b c) bs) then Grid.occupy_node g node ~owner:1
  done;
  g

(* Every free box, grown from every free base on a fresh, ungated
   table: freeness is monotone in each extent, so each axis loop stops
   at its first occupied box. Returns the largest free volume and the
   distinct shapes that have a free base. *)
let free_box_census g =
  let d = Grid.dims g and wrap = Grid.wrap g in
  let table = Prefix.build g in
  let fits e b n = if wrap then e <= n else b + e <= n in
  let free (c : Coord.t) sx sy sz = Prefix.base_is_free table ~x:c.x ~y:c.y ~z:c.z (Shape.make sx sy sz) in
  let best = ref 0 and shapes = Hashtbl.create 64 in
  for node = 0 to Dims.volume d - 1 do
    if Grid.is_free g node then begin
      let c = Coord.of_index d node in
      let sx = ref 1 in
      while fits !sx c.x d.nx && free c !sx 1 1 do
        let sy = ref 1 in
        while fits !sy c.y d.ny && free c !sx !sy 1 do
          let sz = ref 1 in
          while fits !sz c.z d.nz && free c !sx !sy !sz do
            best := max !best (!sx * !sy * !sz);
            Hashtbl.replace shapes (Shape.make !sx !sy !sz) ();
            incr sz
          done;
          incr sy
        done;
        incr sx
      done
    end
  done;
  (!best, Hashtbl.fold (fun s () acc -> s :: acc) shapes [])

let with_differential f =
  Finder.set_differential true;
  Fun.protect ~finally:(fun () -> Finder.set_differential false) f

let prop_gate_sound_on_odd_tori =
  QCheck.Test.make ~name:"gated odd-extent tori: gate sound, counted paths exact, MFP exact"
    ~count:60 arb_gated (fun ((_, wrap, bs) as sc) ->
      let g = build_gated sc in
      let mfp, shapes = free_box_census g in
      let summary = Grid.summary g in
      List.for_all (fun s -> Summary.shape_feasible summary ~wrap s) shapes
      && with_differential (fun () ->
             (* Any Divergence raised here fails the property. *)
             let cache = Finder.Cache.create g in
             List.iter
               (fun volume ->
                 ignore (Finder.Cache.count cache ~volume);
                 ignore (Finder.Cache.select cache ~volume ~cap:24))
               (List.sort_uniq Int.compare (1 :: mfp :: List.map Box.volume bs));
             Mfp.volume g = mfp && Mfp.volume ~cache g = mfp))

(* The bounded what-if search behind Placement's L_MFP term must equal
   the MFP drop measured on an independent copy of the grid. Job-like
   occupancy (random boxes) at the paper's 4x4x8 and at a gated odd
   size, both torus modes, with and without a cache. *)
let loss_scenario_gen =
  QCheck.Gen.(
    quad (oneofl [ Dims.bgl; Dims.make 9 7 9 ]) bool (int_range 0 9999) (int_range 1 16))

let build_jobs (d, wrap, seed, _) =
  let rng = Bgl_stats.Rng.create ~seed in
  let g = Grid.create ~wrap d in
  for owner = 1 to Bgl_stats.Rng.int rng 40 do
    let e n = 1 + Bgl_stats.Rng.int rng (min n 4) in
    let s = Shape.make (e d.Dims.nx) (e d.ny) (e d.nz) in
    let hi e n = if wrap then n else n - e + 1 in
    let base =
      Coord.make (Bgl_stats.Rng.int rng (hi s.sx d.nx)) (Bgl_stats.Rng.int rng (hi s.sy d.ny))
        (Bgl_stats.Rng.int rng (hi s.sz d.nz))
    in
    let b = Box.make base s in
    if Grid.box_is_free g b then Grid.occupy g b ~owner
  done;
  g

let arb_loss =
  QCheck.make
    ~print:(fun (d, wrap, seed, v) ->
      Printf.sprintf "dims=%s wrap=%b seed=%d volume=%d" (Dims.to_string d) wrap seed v)
    loss_scenario_gen

let prop_loss_given_exact =
  QCheck.Test.make ~name:"loss_given equals the MFP drop on an occupied copy" ~count:150 arb_loss
    (fun ((_, _, seed, volume) as sc) ->
      let g = build_jobs sc in
      let candidates = Finder.select g ~volume ~cap:8 in
      match candidates with
      | [] -> true
      | _ ->
          let c = List.nth candidates (seed mod List.length candidates) in
          let g' = Grid.copy g in
          Grid.occupy g' c ~owner:max_int;
          let expected = Mfp.volume g - Mfp.volume g' in
          let fp = Grid.fingerprint g in
          let cache = Finder.Cache.create g in
          Mfp.loss_given ~before:(Mfp.volume g) g c = expected
          && Mfp.loss_given ~cache ~before:(Mfp.volume ~cache g) g c = expected
          && Grid.fingerprint g = fp)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_find_with_matches_find;
      prop_finders_agree;
      prop_finders_agree_both_wraps;
      prop_pop_wrap_canonical;
      prop_found_boxes_are_free;
      prop_finder_complete;
      prop_mfp_matches_naive;
      prop_mfp_box_is_free_and_maximal;
      prop_exists_free_agrees;
      prop_differential_all_finders;
      prop_cache_mfp_agrees;
      prop_count_equals_find_length;
      prop_select_equals_capped_find;
      prop_gate_sound_on_odd_tori;
      prop_loss_given_exact;
    ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "bgl_partition"
    [
      ( "shapes",
        [
          tc "divisors" test_divisors;
          tc "divisors invalid" test_divisors_invalid;
          tc "shapes_of_volume" test_shapes_of_volume;
          tc "infeasible volume" test_shapes_of_volume_infeasible;
          tc "feasible volumes" test_feasible_volumes;
          tc "round_up_volume" test_round_up_volume;
          tc "shapes_desc order" test_shapes_desc_order;
          tc "orientations on non-cubic dims" test_orientations_non_cubic;
        ] );
      ( "finder",
        [
          tc "singletons on empty torus" test_find_empty_torus_singletons;
          tc "full torus" test_find_full_torus;
          tc "respects occupancy" test_find_respects_occupancy;
          tc "wraparound matters" test_find_no_wrap_smaller;
          tc "infeasible volume" test_find_infeasible_volume;
          tc "find_for_size rounds up" test_find_for_size_rounds_up;
          tc "exists_free" test_exists_free;
          tc "canonical dedup" test_canonical_dedup_full_dim;
          tc "bases cache capped" test_bases_cache_cap;
          tc "gating never changes results" test_gated_find_agrees_at_scale;
          tc "counted enumeration edges" test_counted_edges;
          tc "counted agrees above the gate" test_counted_agrees_at_scale;
          tc "gate admits a box through the clipped block" test_gate_wrapped_clipped_block;
        ] );
      ( "cache",
        [
          tc "memoisation and invalidation" test_cache_basic;
          tc "self-heals on unnoted mutation" test_cache_self_heals_unnoted;
          tc "differential mode toggle" test_differential_mode_toggle;
          tc "differential sampling" test_differential_sampling;
        ] );
      ( "mfp",
        [
          tc "empty and full" test_mfp_empty_and_full;
          tc "volume_after restores" test_mfp_after_restores_grid;
          tc "loss" test_mfp_loss;
          tc "figure 1 intuition" test_mfp_figure1_intuition;
        ] );
      ("properties", props);
    ]
