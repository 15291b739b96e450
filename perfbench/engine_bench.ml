(* The single-run workloads: one generated job log and failure trace,
   replayed by [Engine.run] under each lane's placement policy.

   A lane is one policy over a prefix of the log. The first lane of a
   spec is its control: first-fit, where placement does no scoring, so
   a change to the MFP-family layers should leave it alone. *)

open Bench_util
module Job_log = Bgl_trace.Job_log
module Engine = Bgl_sim.Engine
module Placement = Bgl_sched.Placement
module Predictor = Bgl_predict.Predictor

type algo = First_fit | Mfp | Balancing of float | Tie_breaking of float

type lane = {
  lane : string;
  algo : algo;
  jobs : int;  (** the lane replays the first [jobs] jobs of the log *)
  reps : int;  (** runs of this lane per pass *)
  with_failures : bool;  (** replay the failure trace, or run failure-free *)
}

type spec = {
  name : string;
  dims : Bgl_torus.Dims.t;
  n_jobs : int;
  size_scale : int;
      (** job sizes are drawn for the paper's 128-supernode machine and
          multiplied by this factor *)
  min_util : float;  (** the control lane must reach this utilisation *)
  differential_sample : int;  (** every nth finder query is checked *)
  lanes : lane list;
}

let profile = Bgl_workload.Profile.sdsc

(* Every run replays the one job log this seed draws ([Scenario]'s
   default), as the paper replays one archive log; the run's seed draws
   the failure trace and the predictor's coins. *)
let log_seed = 11
let control_lane = "first-fit"

let paper =
  {
    name = "paper-4x4x8";
    dims = Bgl_torus.Dims.bgl;
    n_jobs = 2000;
    size_scale = 1;
    min_util = 0.2;
    differential_sample = 100;
    lanes =
      [
        { lane = control_lane; algo = First_fit; jobs = 2000; reps = 3; with_failures = true };
        { lane = "mfp"; algo = Mfp; jobs = 2000; reps = 1; with_failures = true };
        { lane = "balancing:0.5"; algo = Balancing 0.5; jobs = 2000; reps = 1; with_failures = true };
        { lane = "tie-breaking:0.5"; algo = Tie_breaking 0.5; jobs = 2000; reps = 1; with_failures = true };
      ];
  }

let full_torus =
  {
    name = "full-torus-loaded";
    dims = Bgl_torus.Dims.bgl_full;
    n_jobs = 100;
    size_scale = 512;
    min_util = 0.2;
    differential_sample = 50;
    lanes =
      [
        (* At this scale one kill re-places a 512x job: the seed's
           failure trace moves a first-fit run by 20%, and a kill in the
           4-job MFP window can double it. The control and the MFP lane
           therefore run failure-free, and the seed's trace gets a
           first-fit lane of its own. *)
        { lane = control_lane; algo = First_fit; jobs = 100; reps = 1; with_failures = false };
        { lane = "first-fit+failures"; algo = First_fit; jobs = 100; reps = 1; with_failures = true };
        { lane = "mfp"; algo = Mfp; jobs = 4; reps = 1; with_failures = false };
      ];
  }

(* ------------------------------------------------------------------ *)
(* Set-up: inputs, failure index and predictors, machine model. *)

type inputs = {
  config : Bgl_sim.Config.t;
  log : Job_log.t;
  failures : Bgl_trace.Failure_log.t;
  balancing : float -> Predictor.t;
  tie_breaking : float -> Predictor.t;
}

type setup_times = { workload_s : float; failures_s : float; index_s : float; machine_s : float }

(* The paper's failure intensity: its count for the log, scaled to our
   job count and amplified as in [Scenario.injected_failures]. *)
let failure_events n_jobs =
  let ratio = float_of_int n_jobs /. float_of_int profile.source_jobs in
  int_of_float (Float.round (float_of_int profile.paper_failures *. ratio *. 2.0))

let setup spec ~seed =
  let volume = Bgl_torus.Dims.volume spec.dims in
  let workload_s, log =
    timed (fun () ->
        let log =
          Bgl_workload.Synthetic.generate
            {
              profile;
              n_jobs = spec.n_jobs;
              max_nodes = 128;
              seed = log_seed;
            }
        in
        if spec.size_scale = 1 then log
        else
          Job_log.make
            ~name:(Printf.sprintf "%s x%d" log.name spec.size_scale)
            (Array.to_list
               (Array.map (fun (j : Job_log.job) -> { j with size = j.size * spec.size_scale }) log.jobs)))
  in
  let failures_s, failures =
    timed (fun () ->
        Bgl_failure.Generator.generate
          (Bgl_failure.Generator.default ~span:(Job_log.span log *. 1.5) ~volume
             ~n_events:(failure_events spec.n_jobs) ~seed:(subseed seed "failures")))
  in
  let index_s, (balancing, tie_breaking) =
    timed (fun () ->
        let index = Bgl_predict.Failure_index.of_log failures in
        let predictor_seed = subseed seed "predictor" in
        ( (fun confidence -> Predictor.balancing ~confidence index),
          fun accuracy -> Predictor.tie_breaking ~accuracy ~seed:predictor_seed index ))
  in
  let machine_s, config =
    timed (fun () ->
        let config = { Bgl_sim.Config.default with dims = spec.dims } in
        Bgl_sim.Config.validate config;
        ignore (Bgl_partition.Shapes.levels_desc spec.dims);
        let grid = Bgl_torus.Grid.create ~wrap:config.wrap spec.dims in
        ignore (Bgl_partition.Finder.Cache.table (Bgl_partition.Finder.Cache.create grid));
        config)
  in
  ( { config; log; failures; balancing; tie_breaking },
    { workload_s; failures_s; index_s; machine_s } )

let setup_total t = t.workload_s +. t.failures_s +. t.index_s +. t.machine_s

(* ------------------------------------------------------------------ *)
(* One lane run. *)

let prefix (log : Job_log.t) n =
  if n >= Array.length log.jobs then log
  else Job_log.make ~name:(Printf.sprintf "%s[:%d]" log.name n) (Array.to_list (Array.sub log.jobs 0 n))

let policy_of ?probe inputs algo =
  let pred p = match probe with Some pr -> wrap_predictor pr p | None -> p in
  let policy, mfp_family =
    match algo with
    | First_fit -> (Placement.first_fit, false)
    | Mfp -> (Placement.mfp, true)
    | Balancing a -> (Placement.balancing ~predictor:(pred (inputs.balancing a)) (), true)
    | Tie_breaking a -> (Placement.tie_breaking ~predictor:(pred (inputs.tie_breaking a)) (), true)
  in
  match probe with Some pr -> wrap_policy pr ~mfp_family policy | None -> policy

let divergences = ref 0

type run = { seconds : float; report : Bgl_sim.Metrics.report; json : string }

(* Runs one lane and checks its output: every job completed, none
   dropped, and the report equal to [reference] (an earlier run of the
   same lane, or the stored golden) when one is given. A finder
   divergence raised under differential checking is a failed run. *)
let run_lane ?probe ?reference ~seed inputs (spec : spec) lane =
  let log = prefix inputs.log lane.jobs in
  let failures =
    if lane.with_failures then inputs.failures else Bgl_trace.Failure_log.make ~name:"none" []
  in
  let policy = policy_of ?probe inputs lane.algo in
  Gc.full_major ();
  let name = Printf.sprintf "%s/%s" spec.name lane.lane in
  match
    timed (fun () ->
        Engine.run ~config:inputs.config ~policy ~log ~failures ~seed ~run_id:lane.lane ())
  with
  | exception Bgl_partition.Finder.Divergence msg ->
      incr divergences;
      op name [ "finder divergence: " ^ msg ];
      None
  | seconds, outcome ->
      let json = Bgl_sim.Metrics.report_to_json outcome.report in
      op name
        (expect outcome.complete "run did not complete every job"
        @ expect (outcome.dropped_jobs = 0) (Printf.sprintf "%d jobs dropped" outcome.dropped_jobs)
        @
        match reference with
        | Some r when r <> json -> [ "report differs from the reference: " ^ json ]
        | _ -> []);
      Some { seconds; report = outcome.report; json }

let check_util spec lane (r : run) =
  if lane.lane = control_lane then
    op (spec.name ^ "/util")
      (expect (r.report.util >= spec.min_util)
         (Printf.sprintf "util %.4f below %.2f: the machine is not loaded" r.report.util spec.min_util))

(* A pass runs every lane [reps] times; [reference] maps a lane to the
   report its runs must reproduce. Returns per-lane runs. *)
let pass ?probe_of ~reference ~seed inputs spec =
  List.map
    (fun lane ->
      let runs =
        List.init lane.reps (fun _ ->
            let probe = Option.map (fun f -> f lane) probe_of in
            run_lane ?probe ?reference:(reference lane) ~seed inputs spec lane)
        |> List.filter_map Fun.id
      in
      (lane, runs))
    spec.lanes

(* At the default seed every lane must have a stored golden report. *)
let reference_table spec golden =
  let references = Hashtbl.create 8 in
  List.iter (fun (lane, json) -> Hashtbl.replace references lane json) golden;
  if golden <> [] then
    op (spec.name ^ "/golden")
      (List.filter_map
         (fun l -> if List.mem_assoc l.lane golden then None else Some ("no golden report for " ^ l.lane))
         spec.lanes);
  references

(* ------------------------------------------------------------------ *)
(* Untraced measurement: the end-to-end metrics. *)

let setup_reps = 7

let measure spec ~seed ~seconds ~golden =
  time_reference ();
  let setups = List.init setup_reps (fun _ -> setup spec ~seed) in
  let inputs = fst (List.hd setups) in
  let setup_s = median (List.map (fun (_, t) -> setup_total t) setups) in
  let references = reference_table spec golden in
  let samples = Hashtbl.create 8 in
  let alloc = ref [] in
  let events = Hashtbl.create 8 in
  let record (lane, runs) =
    List.iter
      (fun r ->
        if not (Hashtbl.mem events lane.lane) then check_util spec lane r;
        if not (Hashtbl.mem references lane.lane) then Hashtbl.replace references lane.lane r.json;
        Hashtbl.replace events lane.lane (events_of r.report);
        Hashtbl.replace samples lane.lane
          (r.seconds :: Option.value (Hashtbl.find_opt samples lane.lane) ~default:[]))
      runs
  in
  measure_loop ~seconds (fun () ->
      let a0 = allocated_mb () in
      pass ~reference:(fun lane -> Hashtbl.find_opt references lane.lane) ~seed inputs spec
      |> List.iter record;
      alloc := (allocated_mb () -. a0) :: !alloc);
  let samples_of lane = Option.value (Hashtbl.find_opt samples lane.lane) ~default:[] in
  let best lane = fastest (samples_of lane) in
  let wall = sum (List.map best spec.lanes) in
  let sim_events =
    List.fold_left (fun acc l -> acc + Option.value (Hashtbl.find_opt events l.lane) ~default:0) 0 spec.lanes
  in
  let control = List.find (fun l -> l.lane = control_lane) spec.lanes in
  let runs = List.map (fun l -> (l.lane, samples_of l)) spec.lanes in
  let reports = List.filter_map (fun l -> Option.map (fun j -> (l.lane, j)) (Hashtbl.find_opt references l.lane)) spec.lanes in
  let k = host_scale () in
  ( [
      ("setup_s", k *. setup_s);
      ("wall_s", k *. wall);
      ("control_s", k *. best control);
      ("events_per_s", float_of_int sim_events /. (k *. wall));
      ("alloc_mb", median !alloc);
    ],
    [ ("setup_s", setup_s); ("wall_s", wall); ("control_s", best control) ],
    runs,
    reports )

(* ------------------------------------------------------------------ *)
(* Traced measurement: the per-layer metrics. *)

(* Counters that must repeat exactly between two runs of one seed. *)
let work_counters = [
  "engine.events"; "engine.job_starts"; "engine.job_kills"; "placement.calls";
  "placement.candidates"; "placement.declined"; "predictor.calls"; "event_queue.calls";
  "finder.count_scan.calls"; "finder.exists_free.calls"; "finder.cache.lookups";
  "finder.counted_queries"; "finder.counted_skips"; "prefix.updates_incremental";
  "prefix.updates_full";
]

let merge_probes probes =
  let p = probe () in
  List.iter
    (fun (q : probe) ->
      p.calls <- p.calls + q.calls;
      p.total_s <- p.total_s +. q.total_s;
      p.latencies <- List.rev_append q.latencies p.latencies;
      p.candidates <- p.candidates + q.candidates;
      p.declined <- p.declined + q.declined;
      p.search_s <- p.search_s +. q.search_s;
      p.pred_calls <- p.pred_calls + q.pred_calls;
      p.pred_s <- p.pred_s +. q.pred_s)
    probes;
  p

(* The library-side layers, read from spans and registry series. *)
let layer_metrics (t : telemetry) =
  let hits = series t "bgl_finder_cache_hits_total" and misses = series t "bgl_finder_cache_misses_total" in
  let scan_calls, scan_s = span t "finder.count.scan" in
  let _, select_s = span t "finder.count.select" in
  let exists_calls, exists_s =
    span_sum t ~pred:(fun n -> n = "finder.cache.exists_free" || n = "finder.exists_free")
  in
  let _, find_s = span t "finder.cache.find" in
  let eq_calls, eq_s = span_sum t ~pred:(fun n -> n = "event_queue.pop" || n = "event_queue.push") in
  let events =
    List.fold_left
      (fun acc (name, v) ->
        if String.starts_with ~prefix:"bgl_sim_events_total{" name then acc +. v else acc)
      0. t.series
  in
  [
    ("finder.count_scan.calls", float_of_int scan_calls);
    ("finder.count_scan.s", scan_s);
    ("finder.count_select.s", select_s);
    ("finder.exists_free.calls", float_of_int exists_calls);
    ("finder.exists_free.s", exists_s);
    ("finder.cache_find.s", find_s);
    ("finder.cache.lookups", hits +. misses);
    ("finder.cache.hit_ratio", if hits +. misses > 0. then hits /. (hits +. misses) else 0.);
    ("finder.counted_queries", series t "bgl_finder_counted_queries_total");
    ("finder.counted_skips", series t "bgl_finder_counted_skips_total");
    ("prefix.updates_incremental", series t {|bgl_prefix_updates_total{kind="incremental"}|});
    ("prefix.updates_full", series t {|bgl_prefix_updates_total{kind="full"}|});
    ("engine.events", events);
    ("engine.job_starts", series t "bgl_sim_job_starts_total");
    ("engine.job_kills", series t "bgl_sim_job_kills_total");
    ("event_queue.calls", float_of_int eq_calls);
    ("event_queue.s", eq_s);
  ]

let probe_metrics ~mfp_probe (p : probe) =
  [
    ("placement.calls", float_of_int p.calls);
    ("placement.s", p.total_s);
    ("placement.p50_us", 1e6 *. quantile 0.5 p.latencies);
    ("placement.p99_us", 1e6 *. quantile 0.99 p.latencies);
    ("placement.max_ms", 1e3 *. List.fold_left Float.max 0. p.latencies);
    ("placement.candidates", float_of_int p.candidates);
    ("placement.declined", float_of_int p.declined);
    ("mfp.search_s", mfp_probe.search_s);
    ("mfp.scoring_s", mfp_probe.total_s -. mfp_probe.search_s);
    ("predictor.calls", float_of_int p.pred_calls);
    ("predictor.s", p.pred_s);
  ]

let once spec = { spec with lanes = List.map (fun l -> { l with reps = 1 }) spec.lanes }

(* Finder time as the library's spans report it. *)
let finder_s tel =
  snd
    (span_sum tel ~pred:(fun n ->
         List.mem n
           [ "finder.count.scan"; "finder.count.select"; "finder.cache.exists_free"; "finder.exists_free";
             "finder.cache.find"; "finder.find"; "finder.find_with" ]))

(* One traced pass: every lane once, each under the library's spans
   and its own live registry, with the benchmark's probes around each
   policy. Besides the pass's metrics it returns each lane's split of
   run time into placement and finder time. *)
let traced_pass ~reference ~seed inputs spec =
  let gc0 = gc_counters () in
  let t0 = now () in
  let lanes =
    List.map
      (fun lane ->
        let p = probe () in
        let runs, tel =
          with_telemetry (fun () ->
              pass ~probe_of:(fun _ -> p) ~reference ~seed inputs { spec with lanes = [ { lane with reps = 1 } ] })
        in
        (lane, List.concat_map snd runs, p, tel))
      spec.lanes
  in
  let wall = now () -. t0 in
  let minor1, promoted1, major1 = gc_counters () and minor0, promoted0, major0 = gc0 in
  let runs = List.concat_map (fun (_, r, _, _) -> r) lanes in
  let run_s = sum (List.map (fun r -> r.seconds) runs) in
  let all = merge_probes (List.map (fun (_, _, p, _) -> p) lanes) in
  let mfp_probe =
    merge_probes (List.filter_map (fun (l, _, p, _) -> if l.algo = First_fit then None else Some p) lanes)
  in
  let tel = merge_telemetry (List.map (fun (_, _, _, t) -> t) lanes) in
  let layers = layer_metrics tel in
  let metrics =
    probe_metrics ~mfp_probe all
    @ layers
    @ [
        ("engine.self_s", run_s -. all.total_s);
        ("sweep.cells", float_of_int (List.length runs));
        ("sweep.cell_p50_s", median (List.map (fun r -> r.seconds) runs));
        ("sweep.cell_max_s", List.fold_left (fun m r -> Float.max m r.seconds) 0. runs);
        ("pool.efficiency", run_s /. wall);
        ("gc.minor_mwords", (minor1 -. minor0) /. 1e6);
        ("gc.promoted_mwords", (promoted1 -. promoted0) /. 1e6);
        ("gc.major_collections", float_of_int (major1 - major0));
        ("gc.top_heap_mb", peak_heap_mb ());
      ]
  in
  let sim_events = List.fold_left (fun acc r -> acc + events_of r.report) 0 runs in
  op (spec.name ^ "/engine-events")
    (expect
       (float_of_int sim_events = List.assoc "engine.events" layers)
       (Printf.sprintf "registry counted %.0f events, reports imply %d"
          (List.assoc "engine.events" layers) sim_events));
  let split =
    List.map
      (fun (lane, runs, (p : probe), tel) ->
        ( lane.lane,
          sum (List.map (fun r -> r.seconds) runs),
          p.total_s,
          finder_s tel,
          match runs with r :: _ -> r.report.util | [] -> Float.nan ))
      lanes
  in
  (run_s, metrics, tel, split)

let traced spec ~seed ~golden =
  let inputs, st = setup spec ~seed in
  let references = reference_table spec golden in
  let reference lane = Hashtbl.find_opt references lane.lane in
  (* Untraced baseline: spans off, the noop registry, no probes. *)
  let plain = pass ~reference ~seed inputs (once spec) in
  List.iter
    (fun (lane, runs) ->
      List.iter
        (fun r ->
          check_util spec lane r;
          if not (Hashtbl.mem references lane.lane) then Hashtbl.replace references lane.lane r.json)
        runs)
    plain;
  let pass_s lanes = sum (List.concat_map (fun (_, runs) -> List.map (fun r -> r.seconds) runs) lanes) in
  let plain_s = pass_s plain in
  (* The same pass streaming its trace through the writer bgl-sim
     --trace-out installs, then certified: what the trace sink and the
     auditor would cost on these runs. *)
  ensure_scratch_dir ();
  let trace_path = Filename.concat scratch_dir (spec.name ^ ".trace.jsonl") in
  let obs = Bgl_core.Obs_cli.setup ~trace_out:trace_path () in
  let written = pass ~reference ~seed inputs (once spec) in
  Bgl_core.Obs_cli.finish obs;
  let certificate = audit ~name:spec.name ~path:trace_path ~sections:(List.length spec.lanes) in
  let traced_s, metrics, _, split = traced_pass ~reference ~seed inputs spec in
  (* Second traced pass with sampled differential checking: its work
     counters must repeat the first pass's exactly, and any finder
     divergence is a failed run. *)
  Bgl_partition.Finder.set_differential ~sample:spec.differential_sample true;
  let _, again, checked, _ =
    Fun.protect
      ~finally:(fun () -> Bgl_partition.Finder.set_differential false)
      (fun () -> traced_pass ~reference ~seed inputs spec)
  in
  op (spec.name ^ "/determinism")
    (List.filter_map
       (fun name ->
         let a = List.assoc name metrics and b = List.assoc name again in
         if a = b then None
         else Some (Printf.sprintf "nondeterministic counter %s: %.0f then %.0f" name a b))
       work_counters);
  ( metrics
    @ [
      ("finder.divergences", float_of_int !divergences);
      ("finder.differential_checks", series checked "bgl_finder_differential_checks_total");
      ("setup.workload_s", st.workload_s);
      ("setup.failures_s", st.failures_s);
      ("setup.index_s", st.index_s);
      ("setup.machine_s", st.machine_s);
      ("trace.lines", float_of_int (count_lines trace_path));
      ("trace.bytes", float_of_int (file_bytes trace_path));
      ("trace.overhead_s", pass_s written -. plain_s);
      ("tracing.overhead_pct", 100. *. (traced_s -. plain_s) /. plain_s);
    ]
    @ audit_metrics certificate,
    split )
