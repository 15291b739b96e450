open Bgl_torus

exception Found of Box.t

(* The table is lazy so a search whose every shape is skipped — too
   large for the free count, or rejected by the grid's summary — never
   builds it; ghost-grid probes on a busy full-scale machine hit that
   case constantly. Shape and base order are unchanged from the eager
   scan, so the returned box is identical. Levels above [bound] are
   skipped like those above the free count: a what-if placement can
   only shrink the MFP, so its search never needs to look above the
   MFP it started from. *)
let search_lazy ~bound table grid =
  if Grid.free_count grid = 0 then None
  else
    let d = Grid.dims grid in
    let wrap = Grid.wrap grid in
    let limit = min bound (Grid.free_count grid) in
    let first_free_in shapes =
      try
        Array.iter
          (fun shape ->
            if Finder.shape_possible grid shape then begin
              let tbl = Lazy.force table in
              Finder.iter_bases d ~wrap shape ~f:(fun x y z ->
                  if Prefix.base_is_free tbl ~x ~y ~z shape then
                    raise (Found (Box.make (Coord.make x y z) shape)))
            end)
          shapes;
        None
      with Found b -> Some b
    in
    (* Levels are sorted by decreasing volume; no box larger than the
       free-node count can be free, so those levels are skipped, and
       the first level with any free box yields the MFP. *)
    let rec scan_levels = function
      | [] -> None
      | (volume, shapes) :: rest ->
          if volume > limit then scan_levels rest
          else (match first_free_in shapes with Some b -> Some b | None -> scan_levels rest)
    in
    scan_levels (Shapes.levels_desc d)

let search grid = search_lazy ~bound:max_int (lazy (Prefix.build grid)) grid

(* With a cache the search scans the cache's incrementally maintained
   table, and the result is memoised on the occupancy fingerprint via
   the cache's one-deep MFP slot. *)
(* A cache only applies to the very grid it is bound to: callers probe
   ghost copies too (reservation feasibility, migration planning), and
   those must fall back to cold searches. *)
let cache_for cache grid =
  match cache with Some c when Finder.Cache.grid c == grid -> Some c | _ -> None

let box ?cache grid =
  match cache_for cache grid with
  | None -> search grid
  | Some c ->
      Finder.Cache.mfp_cached c ~compute:(fun () ->
          search_lazy ~bound:max_int (Lazy.from_val (Finder.Cache.table c)) grid)

let volume ?cache grid = match box ?cache grid with None -> 0 | Some b -> Box.volume b

(* A distinct owner id out of the job-id space; Grid forbids negative
   owners other than its own sentinels, so use a huge positive id. *)
let probe_owner = max_int

(* MFP volume with [candidate] occupied, searching levels up to [bound]
   only; exact whenever [bound] is at least the MFP before the probe. *)
let after ?cache ~bound grid candidate =
  let cache = cache_for cache grid in
  Grid.occupy grid candidate ~owner:probe_owner;
  (match cache with Some c -> Finder.Cache.note_box c candidate | None -> ());
  Fun.protect
    ~finally:(fun () ->
      Grid.vacate grid candidate ~owner:probe_owner;
      match cache with Some c -> Finder.Cache.note_box c candidate | None -> ())
    (fun () ->
      (* Probe states are transient (the vacate in [finally] restores
         the fingerprint), so bypass the MFP memo slot — it must keep
         the stable pre-probe result — but do reuse the incremental
         table: the probe box is noted going in and coming out, so
         both syncs are dirty-block updates. *)
      let table =
        match cache with
        | None -> lazy (Prefix.build grid)
        | Some c -> Lazy.from_val (Finder.Cache.table c)
      in
      match search_lazy ~bound table grid with None -> 0 | Some b -> Box.volume b)

let volume_after ?cache grid candidate = after ?cache ~bound:max_int grid candidate
let loss_given ?cache ~before grid candidate = before - after ?cache ~bound:before grid candidate
let loss ?cache grid candidate = loss_given ?cache ~before:(volume ?cache grid) grid candidate
