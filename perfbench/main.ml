(* The repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Generates the workload's inputs from the seed, times the library's
   public entry points from outside, checks every output, and prints
   one JSON object as the last line of standard output: with --trace 0
   the end-to-end metrics (tracing off, the noop registry), with
   --trace 1 the per-layer metrics of a traced repetition. A provenance
   line precedes it; a human summary goes to standard error.
   perfbench/README.md maps every metric to its layer. *)

open Bench_util
module J = Bgl_obs.Jsonl

let default_seed = 1

(* ------------------------------------------------------------------ *)
(* Arguments. *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  write_golden : bool;
}

let usage () =
  prerr_endline
    "usage: main.exe --workload paper-4x4x8|full-torus-loaded|fig3-sweep --seed N --seconds S \
     --trace 0|1 [--write-golden]";
  exit 2

let parse_args () =
  let rec go acc = function
    | [] -> acc
    | "--write-golden" :: rest -> go { acc with write_golden = true } rest
    | flag :: value :: rest -> (
        match (flag, int_of_string_opt value) with
        | "--workload", _ -> go { acc with workload = value } rest
        | "--seed", Some n -> go { acc with seed = n } rest
        | "--seconds", Some n when n >= 1 -> go { acc with seconds = float_of_int n } rest
        | "--trace", Some (0 | 1 as t) -> go { acc with trace = t = 1 } rest
        | _ -> usage ())
    | _ -> usage ()
  in
  go
    { workload = ""; seed = default_seed; seconds = 10.; trace = false; write_golden = false }
    (List.tl (Array.to_list Sys.argv))

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The benchmark's definition: metric names and units and each
   workload's reason, read from BENCHMARK.json so the program and the
   definition cannot drift apart. *)
let definition =
  lazy
    (match J.parse (read_file "BENCHMARK.json") with
    | exception Sys_error e -> failwith ("perfbench: " ^ e)
    | Error e -> failwith ("perfbench: BENCHMARK.json: " ^ e)
    | Ok v -> v)

let declared key =
  let field name x = Option.bind (J.member name x) J.to_string_opt in
  match J.member key (Lazy.force definition) with
  | Some (J.Array xs) ->
      List.map
        (fun x ->
          match (field "name" x, field "unit" x, field "why" x) with
          | Some name, Some unit_, _ -> (name, unit_)
          | Some name, None, Some why -> (name, why)
          | _ -> failwith ("perfbench: malformed entry under " ^ key))
        xs
  | _ -> failwith ("perfbench: BENCHMARK.json has no " ^ key)

(* ------------------------------------------------------------------ *)
(* Provenance. *)

let command_output cmd =
  match Unix.open_process_in cmd with
  | exception Unix.Unix_error _ -> None
  | ic ->
      let line = try Some (input_line ic) with End_of_file -> None in
      (match Unix.close_process_in ic with Unix.WEXITED 0 -> line | _ -> None)

(* A digest of the library sources, so a result names the code it
   measured even where no git metadata is at hand. *)
let source_digest () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let path = Filename.concat dir f in
           if Sys.is_directory path then files path else [ path ])
  in
  if not (Sys.file_exists "lib") then "none"
  else
    Digest.to_hex
      (Digest.string
         (String.concat "" (List.map (fun p -> p ^ Digest.file p) (files "lib"))))

let provenance args ~dims ~jobs ~domains ~extra =
  J.obj
    [
      ( "provenance",
        J.obj
          ([
             ("workload", J.string args.workload);
             ( "why",
               J.string
                 (Option.value (List.assoc_opt args.workload (declared "workloads")) ~default:"") );
             ("seed", string_of_int args.seed);
             ("seconds", Printf.sprintf "%g" args.seconds);
             ("trace", string_of_bool args.trace);
             ( "git_rev",
               J.string
                 (Option.value ~default:"unknown"
                    (if Sys.file_exists ".git" then command_output "git rev-parse HEAD 2>/dev/null"
                     else None)) );
             ("source_digest", J.string (source_digest ()));
             ("nproc", string_of_int (Domain.recommended_domain_count ()));
             ("ocaml", J.string Sys.ocaml_version);
             ("dims", J.string (Bgl_torus.Dims.to_string dims));
             ("jobs", jobs);
             ("domains", string_of_int domains);
           ]
          @ (match !reference_samples with
            | [] -> []
            | xs ->
                [
                  ( "reference",
                    J.obj
                      [
                        ("runs", string_of_int (List.length xs));
                        ("min_s", Printf.sprintf "%.6f" (fastest xs));
                        ("median_s", Printf.sprintf "%.6f" (median xs));
                        ("host_scale", Printf.sprintf "%.6f" (host_scale ()));
                      ] );
                ])
          @ extra) );
    ]

(* ------------------------------------------------------------------ *)
(* Goldens: the outputs at the default seed, stored with the benchmark. *)

let golden_path workload ext = Filename.concat "perfbench/golden" (workload ^ ext)

let write_file path s =
  if not (Sys.file_exists "perfbench/golden") then Sys.mkdir "perfbench/golden" 0o755;
  Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* Engine goldens are "lane<TAB>report-json" lines. *)
let read_engine_golden args =
  if args.seed <> default_seed || args.write_golden then []
  else
    let path = golden_path args.workload ".tsv" in
    match read_file path with
    | exception Sys_error e ->
        op "golden" [ "cannot read " ^ e ];
        []
    | text ->
        String.split_on_char '\n' text
        |> List.filter_map (fun line ->
               match String.index_opt line '\t' with
               | Some i -> Some (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1))
               | None -> None)

(* ------------------------------------------------------------------ *)

let emit ~names metrics =
  List.iteri
    (fun i (name, _) ->
      if not (List.mem_assoc name names) then failwith ("perfbench: undeclared metric " ^ name);
      if List.exists (fun (n, _) -> n = name) (List.filteri (fun j _ -> j < i) metrics) then
        failwith ("perfbench: metric reported twice: " ^ name))
    metrics;
  let fields =
    List.map
      (fun (name, unit_) ->
        let v = Option.value (List.assoc_opt name metrics) ~default:0. in
        let v =
          if Float.is_finite v then v
          else begin
            op ("metric " ^ name) [ "not a finite number" ];
            0.
          end
        in
        Printf.eprintf "  %-28s %16.6g %s\n" name v unit_;
        (name, J.obj [ ("value", Printf.sprintf "%.17g" v); ("unit", J.string unit_) ]))
      names
  in
  J.obj
    [
      ("correct", string_of_bool (!failed = 0));
      ("attempted", string_of_int !attempted);
      ("failed", string_of_int !failed);
      ("metrics", J.obj fields);
    ]

(* The time metrics before host-speed normalisation. *)
let raw_times raw = ("raw_s", J.obj (List.map (fun (k, v) -> (k, Printf.sprintf "%.6f" v)) raw))

(* Every lane's repetition count, fastest and median time. *)
let lane_summary runs =
  ( "lanes",
    J.obj
      (List.map
         (fun (l, xs) ->
           ( l,
             J.obj
               [
                 ("runs", string_of_int (List.length xs));
                 ("min_s", Printf.sprintf "%.4f" (fastest xs));
                 ("median_s", Printf.sprintf "%.4f" (median xs));
               ] ))
         runs) )

let run_engine args (spec : Engine_bench.spec) =
  let golden = read_engine_golden args in
  let lanes = spec.lanes in
  let metrics, extra =
    if args.trace then
      let metrics, split = Engine_bench.traced spec ~seed:args.seed ~golden in
      ( metrics,
        [
          ( "lane_split",
            J.obj
              (List.map
                 (fun (l, run_s, placement_s, finder_s, util) ->
                   ( l,
                     J.obj
                       [
                         ("util", Printf.sprintf "%.4f" util);
                         ("run_s", Printf.sprintf "%.4f" run_s);
                         ("placement_share", Printf.sprintf "%.4f" (placement_s /. run_s));
                         ("finder_share", Printf.sprintf "%.4f" (finder_s /. run_s));
                       ] ))
                 split) );
        ] )
    else
      let metrics, raw, runs, reports =
        Engine_bench.measure spec ~seed:args.seed ~seconds:args.seconds ~golden
      in
      if args.write_golden then
        write_file (golden_path args.workload ".tsv")
          (String.concat "" (List.map (fun (lane, json) -> lane ^ "\t" ^ json ^ "\n") reports));
      ( metrics,
        [
          raw_times raw;
          lane_summary runs;
          ( "util",
            J.obj
              (List.map
                 (fun (l, json) ->
                   ( l,
                     match Result.bind (J.parse json) Bgl_sim.Metrics.report_of_json with
                     | Ok r -> Printf.sprintf "%.4f" r.util
                     | Error _ -> "null" ))
                 reports) );
        ] )
  in
  let jobs =
    J.obj (List.map (fun (l : Engine_bench.lane) -> (l.lane, string_of_int l.jobs)) lanes)
  in
  print_endline (provenance args ~dims:spec.dims ~jobs ~domains:1 ~extra);
  metrics

let run_sweep args =
  let golden =
    if args.seed <> default_seed || args.write_golden then None
    else
      match read_file (golden_path args.workload ".csv") with
      | exception Sys_error e ->
          op "golden" [ "cannot read " ^ e ];
          None
      | csv -> Some csv
  in
  let scale = Sweep_bench.scale ~seed:args.seed in
  let metrics, extra =
    if args.trace then (Sweep_bench.traced ~seed:args.seed ~golden, [])
    else
      let metrics, raw, runs, cells, utils, csv =
        Sweep_bench.measure ~seed:args.seed ~seconds:args.seconds ~golden
      in
      let util_range =
        Printf.sprintf "[%.4f,%.4f]" (List.fold_left Float.min 1. utils) (List.fold_left Float.max 0. utils)
      in
      if args.write_golden then Option.iter (write_file (golden_path args.workload ".csv")) csv;
      ( metrics,
        [ ("cells", string_of_int cells); raw_times raw; lane_summary runs; ("util_range", util_range) ] )
  in
  let jobs =
    J.obj
      [
        ("per_cell", string_of_int scale.n_jobs);
        ("replication_seeds", "[" ^ String.concat "," (List.map string_of_int scale.seeds) ^ "]");
      ]
  in
  print_endline
    (provenance args ~dims:scale.dims ~jobs ~domains:Sweep_bench.domains ~extra);
  metrics

let () =
  let args = parse_args () in
  let metrics =
    match args.workload with
    | "paper-4x4x8" -> run_engine args Engine_bench.paper
    | "full-torus-loaded" -> run_engine args Engine_bench.full_torus
    | "fig3-sweep" -> run_sweep args
    | _ -> usage ()
  in
  Printf.eprintf "perfbench: %s seed %d (%s): %d operations, %d failed\n" args.workload args.seed
    (if args.trace then "traced" else "untraced")
    !attempted !failed;
  print_endline (emit ~names:(declared (if args.trace then "per_layer" else "end_to_end")) metrics)
