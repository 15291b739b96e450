(* The fig3-sweep workload: the paper's figure-3 cells run by
   [Sweep.run] on a domain pool with a fresh journal and the JSONL
   trace writer on, then certified by [Bgl_audit.Driver.audit_files].

   Its control is the same sweep with the journal and trace writer off,
   so the I/O layers this workload stresses are the difference between
   the two. *)

open Bench_util
module Figures = Bgl_core.Figures
module Scenario = Bgl_core.Scenario
module Sweep = Bgl_core.Sweep

let name = "fig3-sweep"

let domains = 2
let jobs_per_cell = 250
let seeds_per_run = 2
let producer scale = [ Figures.fig3 scale ]

(* The seed draws the replication seeds of the figure: every cell of
   one replication replays the same workload, so a run averages over
   [seeds_per_run] independent logs. *)
let scale ~seed =
  {
    Figures.quick with
    n_jobs = jobs_per_cell;
    seeds = List.init seeds_per_run (fun i -> subseed seed (Printf.sprintf "replication-%d" i));
  }

(* ------------------------------------------------------------------ *)
(* Set-up: the cells and their inputs, built the way [Scenario.run]
   builds them, plus the machine model. *)

type cell = {
  scenario : Scenario.t;
  log : Bgl_trace.Job_log.t;
  failures : Bgl_trace.Failure_log.t;
  index : Bgl_predict.Failure_index.t;
}

let setup ~seed =
  let scale = scale ~seed in
  Figures.clear_cache ();
  let scenarios = Figures.cells_of producer scale in
  let workload_s = ref 0. and failures_s = ref 0. and index_s = ref 0. in
  let add r dt = r := !r +. dt in
  let cells =
    Array.to_list scenarios
    |> List.map (fun (t : Scenario.t) ->
           let dt, log =
             timed (fun () ->
                 let log =
                   Bgl_workload.Synthetic.generate
                     {
                       profile = t.profile;
                       n_jobs = t.n_jobs;
                       max_nodes = Bgl_torus.Dims.volume t.config.dims;
                       seed = subseed t.seed "workload";
                     }
                 in
                 Bgl_trace.Job_log.scale_runtime log ~c:t.load)
           in
           add workload_s dt;
           let dt, failures = timed (fun () -> Scenario.synthetic_failures ~log t) in
           add failures_s dt;
           let dt, index = timed (fun () -> Bgl_predict.Failure_index.of_log failures) in
           add index_s dt;
           { scenario = t; log; failures; index })
  in
  let machine_s, () =
    timed (fun () ->
        let dims = scale.dims in
        ignore (Bgl_partition.Shapes.levels_desc dims);
        let grid = Bgl_torus.Grid.create dims in
        ignore (Bgl_partition.Finder.Cache.table (Bgl_partition.Finder.Cache.create grid)))
  in
  ( (scale, cells),
    {
      Engine_bench.workload_s = !workload_s;
      failures_s = !failures_s;
      index_s = !index_s;
      machine_s;
    } )

(* ------------------------------------------------------------------ *)
(* One sweep. *)

type sweep = {
  seconds : float;
  csv : string;
  reports : (string * Bgl_sim.Metrics.report) list;  (** by scenario label *)
}

let trace_path = Filename.concat scratch_dir "trace.jsonl"
let journal_path = Filename.concat scratch_dir "journal.jsonl"

(* Runs the sweep from a cold memo table. With [io] the cells are
   journaled and traced through the writer bgl-sweep --journal
   --trace-out installs, and closing the trace file is part of the timed
   region. *)
let sweep ~io ?reference scale =
  ensure_scratch_dir ();
  Figures.clear_cache ();
  let reports = ref [] in
  let lock = Mutex.create () in
  let on_cell s r = Mutex.protect lock (fun () -> reports := (Scenario.label s, r) :: !reports) in
  Gc.full_major ();
  let seconds, result =
    timed (fun () ->
        let obs = if io then Some (Bgl_core.Obs_cli.setup ~trace_out:trace_path ()) else None in
        let journal = if io then Sweep.Fresh journal_path else Sweep.No_journal in
        let result = Sweep.run ~journal ~on_cell ~domains producer scale in
        Option.iter Bgl_core.Obs_cli.finish obs;
        result)
  in
  let label = Printf.sprintf "%s/sweep%s" name (if io then "" else "-no-io") in
  match result with
  | Error e ->
      op label [ Bgl_resilience.Error.to_string e ];
      None
  | Ok outcome ->
      let csv = String.concat "" (List.map Bgl_core.Series.to_csv outcome.figures) in
      op label
        (expect (outcome.quarantined = [])
           (Printf.sprintf "%d cells quarantined" (List.length outcome.quarantined))
        @
        match reference with
        | Some r when r <> csv -> [ "figure CSV differs from the reference:\n" ^ csv ]
        | _ -> []);
      Some { seconds; csv; reports = !reports }

let sweep_events s = List.fold_left (fun acc (_, r) -> acc + events_of r) 0 s.reports

(* ------------------------------------------------------------------ *)
(* Untraced measurement. *)

let setup_reps = 7

let measure ~seed ~seconds ~golden =
  time_reference ();
  let setups = List.init setup_reps (fun _ -> setup ~seed) in
  let (scale, cells), _ = List.hd setups in
  let setup_s = median (List.map (fun (_, t) -> Engine_bench.setup_total t) setups) in
  let n_cells = List.length cells in
  let reference = ref golden in
  let sweep_s = ref [] and audit_s = ref [] and alloc = ref [] and events = ref 0 and utils = ref [] in
  measure_loop ~seconds (fun () ->
      let a0 = allocated_mb () in
      match sweep ~io:true ?reference:!reference scale with
      | None -> ()
      | Some s ->
          alloc := (allocated_mb () -. a0) :: !alloc;
          if !reference = None then reference := Some s.csv;
          events := sweep_events s;
          utils := List.map (fun (_, (r : Bgl_sim.Metrics.report)) -> r.util) s.reports;
          sweep_s := s.seconds :: !sweep_s;
          Option.iter
            (fun a -> audit_s := a.audit_s :: !audit_s)
            (audit ~name ~path:trace_path ~sections:n_cells));
  let wall = fastest !sweep_s +. fastest !audit_s in
  let k = host_scale () in
  ( [
      ("setup_s", k *. setup_s);
      ("wall_s", k *. wall);
      ("control_s", k *. fastest !sweep_s);
      ("events_per_s", float_of_int !events /. (k *. wall));
      ("alloc_mb", median !alloc);
    ],
    [ ("setup_s", setup_s); ("wall_s", wall); ("control_s", fastest !sweep_s) ],
    [ ("sweep", !sweep_s); ("audit", !audit_s) ],
    n_cells,
    !utils,
    !reference )

(* ------------------------------------------------------------------ *)
(* Traced measurement. *)

let divergences = ref 0

(* One cell on its own, with the benchmark's probes around the policy and
   predictor [Scenario] would build for it; its report must equal the
   one the sweep produced for the same cell. *)
let rerun_cell ?probe ~expected cell =
  let t = cell.scenario in
  let label = Scenario.label t in
  let pred p = match probe with Some pr -> wrap_predictor pr p | None -> p in
  let policy =
    match t.algo with
    | Scenario.Fault_oblivious -> Some Bgl_sched.Placement.mfp
    | Scenario.Balancing { confidence } ->
        Some
          (Bgl_sched.Placement.balancing ~combine:t.combine
             ~predictor:(pred (Bgl_predict.Predictor.balancing ~confidence cell.index))
             ())
    | _ -> None
  in
  match policy with
  | None ->
      op (name ^ "/cell") [ "unsupported algorithm in " ^ label ];
      None
  | Some policy -> (
      let policy =
        match probe with Some p -> wrap_policy p ~mfp_family:true policy | None -> policy
      in
      Gc.full_major ();
      match
        timed (fun () ->
            Bgl_sim.Engine.run ~config:t.config ~policy ~log:cell.log ~failures:cell.failures
              ~seed:t.seed ())
      with
      | exception Bgl_partition.Finder.Divergence msg ->
          incr divergences;
          op (name ^ "/cell") [ label ^ ": finder divergence: " ^ msg ];
          None
      | seconds, outcome ->
          let json = Bgl_sim.Metrics.report_to_json outcome.report in
          op (name ^ "/cell")
            (expect outcome.complete (label ^ ": run did not complete every job")
            @ expect (outcome.dropped_jobs = 0) (label ^ ": jobs dropped")
            @
            match List.assoc_opt label expected with
            | Some r when Bgl_sim.Metrics.report_to_json r = json -> []
            | Some _ -> [ label ^ ": report differs from the sweep's: " ^ json ]
            | None -> [ label ^ ": the sweep produced no report for this cell" ]);
          Some (seconds, outcome.report))

type files = { journal_records : int; journal_bytes : int; trace_lines : int; trace_bytes : int }

let files () =
  {
    journal_records = count_lines journal_path;
    journal_bytes = file_bytes journal_path;
    trace_lines = count_lines trace_path;
    trace_bytes = file_bytes trace_path;
  }

(* Counters the sweep's registry and the one-at-a-time re-run must both
   reach exactly. *)
let engine_counters = [
  "engine.events"; "engine.job_starts"; "engine.job_kills"; "event_queue.calls";
  "finder.count_scan.calls"; "finder.exists_free.calls"; "finder.cache.lookups";
  "finder.counted_queries"; "finder.counted_skips"; "prefix.updates_incremental";
  "prefix.updates_full";
]

let differential_sample = 5
let differential_every = 9

let traced ~seed ~golden =
  let (scale, cells), st = setup ~seed in
  let n = List.length cells in
  (* 1. The certified sweep, untraced: the baseline. *)
  let base = sweep ~io:true ?reference:golden scale in
  let base_files = files () in
  let base_audit = audit ~name ~path:trace_path ~sections:n in
  let reference = match golden with Some _ -> golden | None -> Option.map (fun s -> s.csv) base in
  (* 2. The same sweep under spans and a live registry. *)
  let traced_sweep, sweep_tel = with_telemetry (fun () -> sweep ~io:true ?reference scale) in
  let traced_files = files () in
  let traced_audit = audit ~name ~path:trace_path ~sections:n in
  (* 3. The control: no journal, no trace writer. *)
  let plain = sweep ~io:false ?reference scale in
  (* 4. Every cell once more, one at a time, with the benchmark's probes. *)
  let expected = match base with Some s -> s.reports | None -> [] in
  let probe = probe () in
  let gc0 = gc_counters () in
  let runs, cell_tel =
    with_telemetry (fun () -> List.filter_map (fun c -> rerun_cell ~probe ~expected c) cells)
  in
  let minor1, promoted1, major1 = gc_counters () and minor0, promoted0, major0 = gc0 in
  (* 5. Sampled differential checking on every [differential_every]th cell. *)
  let _, diff_tel =
    Bgl_partition.Finder.set_differential ~sample:differential_sample true;
    Fun.protect
      ~finally:(fun () -> Bgl_partition.Finder.set_differential false)
      (fun () ->
        with_telemetry (fun () ->
            List.filteri (fun i _ -> i mod differential_every = 0) cells
            |> List.iter (fun c -> ignore (rerun_cell ~expected c))))
  in
  let sweep_layers = Engine_bench.layer_metrics sweep_tel in
  let cell_layers = Engine_bench.layer_metrics cell_tel in
  op (name ^ "/determinism")
    (List.filter_map
       (fun c ->
         let a = List.assoc c sweep_layers and b = List.assoc c cell_layers in
         if a = b then None
         else Some (Printf.sprintf "nondeterministic counter %s: %.0f in the sweep, %.0f cell by cell" c a b))
       engine_counters
    @ List.filter_map
        (fun (c, a, b) ->
          if a = b then None else Some (Printf.sprintf "nondeterministic counter %s: %d then %d" c a b))
        [
          ("journal.records", base_files.journal_records, traced_files.journal_records);
          ("journal.bytes", base_files.journal_bytes, traced_files.journal_bytes);
          ("trace.lines", base_files.trace_lines, traced_files.trace_lines);
          ("trace.bytes", base_files.trace_bytes, traced_files.trace_bytes);
          ( "audit.checks",
            Option.fold ~none:(-1) ~some:(fun a -> a.checks) base_audit,
            Option.fold ~none:(-2) ~some:(fun a -> a.checks) traced_audit );
        ]);
  let cell_s = List.map fst runs in
  let run_s = sum cell_s in
  let seconds_of = Option.fold ~none:Float.nan ~some:(fun (s : sweep) -> s.seconds) in
  let sweep_s = seconds_of base in
  Engine_bench.probe_metrics ~mfp_probe:probe probe
  @ cell_layers
  @ [
      ("finder.differential_checks", series diff_tel "bgl_finder_differential_checks_total");
      ("finder.divergences", float_of_int !divergences);
      ("engine.self_s", run_s -. probe.total_s);
      ("setup.workload_s", st.workload_s);
      ("setup.failures_s", st.failures_s);
      ("setup.index_s", st.index_s);
      ("setup.machine_s", st.machine_s);
      ("sweep.cells", float_of_int n);
      ("sweep.cell_p50_s", median cell_s);
      ("sweep.cell_max_s", List.fold_left Float.max 0. cell_s);
      ("pool.efficiency", run_s /. (float_of_int domains *. sweep_s));
      ("journal.records", float_of_int base_files.journal_records);
      ("journal.bytes", float_of_int base_files.journal_bytes);
      ("trace.lines", float_of_int base_files.trace_lines);
      ("trace.bytes", float_of_int base_files.trace_bytes);
      ("trace.overhead_s", sweep_s -. seconds_of plain);
      ("gc.minor_mwords", (minor1 -. minor0) /. 1e6);
      ("gc.promoted_mwords", (promoted1 -. promoted0) /. 1e6);
      ("gc.major_collections", float_of_int (major1 - major0));
      ("gc.top_heap_mb", peak_heap_mb ());
      ("tracing.overhead_pct", 100. *. (seconds_of traced_sweep -. sweep_s) /. sweep_s);
    ]
  @ audit_metrics base_audit
