module Workload = Ebp_workloads.Workload
module Session = Ebp_sessions.Session
module Counts = Ebp_sessions.Counts
module Replay = Ebp_sessions.Replay
module Timing = Ebp_wms.Timing
module Model = Ebp_model.Strategy_model
module Stats = Ebp_util.Stats
module Text_table = Ebp_util.Text_table
module Bar_chart = Ebp_util.Bar_chart
module Obs_span = Ebp_obs.Span

type program_data = {
  run : Workload.run;
  sessions : (Session.t * Counts.t) list;
}

type t = {
  programs : program_data list;
  timing : Timing.t;
  page_sizes : int list;
  approaches : Model.approach list;
}

(* Granularities an approach needs counting data for (VM page sizes and VB
   view units), including under [Remote]. *)
let rec approach_sizes = function
  | Model.VM ps | Model.VB ps -> [ ps ]
  | Model.Remote a -> approach_sizes a
  | Model.NH | Model.TP | Model.CP -> []

let rec uses_vb = function
  | Model.VB _ -> true
  | Model.Remote a -> uses_vb a
  | Model.NH | Model.VM _ | Model.TP | Model.CP -> false

let run ?(workloads = Workload.all) ?(timing = Timing.sparcstation2)
    ?(page_sizes = Replay.default_page_sizes) ?approaches ?fuel ?(domains = 1)
    ?cache_dir ?engine ?(log = fun (_ : string) -> ()) () =
  let approaches =
    match approaches with
    | Some l -> l
    | None ->
        Model.NH
        :: List.map (fun ps -> Model.VM ps) page_sizes
        @ [ Model.TP; Model.CP ]
        @ List.map (fun ps -> Model.VB ps) page_sizes
  in
  (* Replay must count at every granularity the approaches reference. *)
  let page_sizes =
    page_sizes
    @ List.filter
        (fun ps -> not (List.mem ps page_sizes))
        (List.sort_uniq Int.compare (List.concat_map approach_sizes approaches))
  in
  (* [engine] is an override: [None] (the default) hands each workload's
     engine choice to the cost-based {!Ebp_sessions.Planner}, which prices
     scan vs index-build vs cached-index reuse per trace. Either way each
     workload's write index — like the trace it derives from — is a pure
     function of cached inputs, so it shares the trace cache: loaded when
     present, stored (best-effort) after a build. *)
  let index_source run =
    match cache_dir with
    | None -> Ebp_sessions.Planner.no_index_cache
    | Some dir ->
        Ebp_sessions.Planner.cache_index ~dir
          ~key:(Workload.cache_key ?fuel run.Workload.workload)
          ~page_sizes
  in
  (* The top-level span brackets the whole experiment; the per-workload
     phase spans below carve it up on the trace-event timeline. *)
  Obs_span.with_span "experiment.run" @@ fun () ->
  Ebp_util.Domain_pool.with_pool ~domains (fun pool ->
      (* Phase 1, parallel across workloads: each task compiles and runs
         (or cache-loads) one workload; nothing is shared between tasks. *)
      let recordings =
        Ebp_util.Domain_pool.map pool
          (fun w ->
            Obs_span.with_span
              ~args:[ ("workload", w.Workload.name) ]
              "phase1.workload"
            @@ fun () ->
            match cache_dir with
            | Some dir -> Workload.record_cached ?fuel ~cache_dir:dir w
            | None -> Workload.record ?fuel w)
          workloads
      in
      (* Log after the batch, in workload order, so output is deterministic
         whatever the scheduling. *)
      List.iter
        (fun recording ->
          match recording with
          | Error _ -> ()
          | Ok run ->
              log
                (Printf.sprintf "phase 1 %-10s %s (%d events)"
                   run.Workload.workload.Workload.name
                   (if run.Workload.result = None then "cache hit, no execution"
                    else "traced")
                   (Ebp_trace.Trace.length run.Workload.trace)))
        recordings;
      let rec collect acc = function
        | [] -> Ok (List.rev acc)
        | Error msg :: _ -> Error msg
        | Ok run :: rest -> collect (run :: acc) rest
      in
      (* Phase 2: workloads in order, each replay sharded over the pool —
         session populations are large, so the intra-workload split keeps
         every domain busy even with few workloads. *)
      Result.map
        (fun runs ->
          {
            programs =
              List.map
                (fun run ->
                  let sessions =
                    Obs_span.with_span
                      ~args:
                        [ ("workload", run.Workload.workload.Workload.name) ]
                      "phase2.workload"
                    @@ fun () ->
                    Ebp_sessions.Planner.replay ~page_sizes ~pool ?engine
                      ~index_source:(index_source run) run.Workload.trace
                  in
                  log
                    (Printf.sprintf "phase 2 %-10s %d sessions replayed"
                       run.Workload.workload.Workload.name
                       (List.length sessions));
                  { run; sessions })
                runs;
            timing;
            page_sizes;
            approaches;
          })
        (collect [] recordings))

let relative_overheads t pd approach =
  let base_ms = pd.run.Workload.base_ms in
  Array.of_list
    (List.map
       (fun (_, counts) ->
         Model.relative (Model.overhead t.timing approach counts) ~base_ms)
       pd.sessions)

(* --- Table 1 --- *)

let table1 t =
  let kind_count sessions kind =
    List.length (List.filter (fun (s, _) -> Session.kind s = kind) sessions)
  in
  let rows =
    List.map
      (fun pd ->
        pd.run.Workload.workload.Workload.name
        :: List.map
             (fun kind -> string_of_int (kind_count pd.sessions kind))
             Session.all_kinds
        @ [ Printf.sprintf "%.0f" pd.run.Workload.base_ms ])
      t.programs
  in
  "Table 1: monitor sessions studied (with >= 1 hit) and base execution time\n"
  ^ Text_table.render
      ~header:
        ([ "Program" ]
        @ List.map Session.kind_name Session.all_kinds
        @ [ "Exec (ms)" ])
      ~rows ()

(* --- Table 2 --- *)

let table2 t =
  let tv = t.timing in
  let rows =
    [
      [ "SoftwareUpdate"; Printf.sprintf "%.2f" tv.Timing.software_update_us ];
      [ "SoftwareLookup"; Printf.sprintf "%.2f" tv.Timing.software_lookup_us ];
      [ "NHFaultHandler"; Printf.sprintf "%.2f" tv.Timing.nh_fault_handler_us ];
      [ "VMFaultHandler"; Printf.sprintf "%.2f" tv.Timing.vm_fault_handler_us ];
      [ "VMProtectPage"; Printf.sprintf "%.2f" tv.Timing.vm_protect_us ];
      [ "VMUnprotectPage"; Printf.sprintf "%.2f" tv.Timing.vm_unprotect_us ];
      [ "TPFaultHandler"; Printf.sprintf "%.2f" tv.Timing.tp_fault_handler_us ];
    ]
    (* The VB rows (estimates, not Table 2 measurements) appear only when a
       VB approach is in play, keeping the four-strategy table unchanged. *)
    @ (if List.exists uses_vb t.approaches then
         [
           [ "VBExit"; Printf.sprintf "%.2f" tv.Timing.vb_exit_us ];
           [ "VBViewSwitch"; Printf.sprintf "%.2f" tv.Timing.vb_view_switch_us ];
           [ "VBViewUpdate"; Printf.sprintf "%.2f" tv.Timing.vb_view_update_us ];
         ]
       else [])
  in
  "Table 2: timing variable data (microseconds)\n"
  ^ Text_table.render ~header:[ "Timing Variable"; "Time (us)" ] ~rows ()

(* --- Table 3 --- *)

let mean_of f sessions =
  if sessions = [] then 0.0
  else
    List.fold_left (fun acc (_, c) -> acc +. float_of_int (f c)) 0.0 sessions
    /. float_of_int (List.length sessions)

let table3 t =
  let header =
    [ "Program"; "Install/Remove"; "MonitorHit"; "MonitorMiss" ]
    @ List.concat_map
        (fun ps ->
          let k = ps / 1024 in
          [
            Printf.sprintf "VM-%dK Prot/Unprot" k;
            Printf.sprintf "VM-%dK ActivePageMiss" k;
          ])
        t.page_sizes
  in
  let rows =
    List.map
      (fun pd ->
        let m f = mean_of f pd.sessions in
        [
          pd.run.Workload.workload.Workload.name;
          Printf.sprintf "%.0f" (m (fun c -> c.Counts.installs));
          Printf.sprintf "%.0f" (m (fun c -> c.Counts.hits));
          Printf.sprintf "%.0f" (m (fun c -> c.Counts.misses));
        ]
        @ List.concat_map
            (fun ps ->
              [
                Printf.sprintf "%.0f"
                  (m (fun c -> (Counts.vm_for c ~page_size:ps).Counts.protects));
                Printf.sprintf "%.0f"
                  (m (fun c ->
                       (Counts.vm_for c ~page_size:ps).Counts.active_page_misses));
              ])
            t.page_sizes)
      t.programs
  in
  "Table 3: mean counting variable data over all monitor sessions\n"
  ^ Text_table.render ~header ~rows ()

(* --- Table 4 --- *)

(* One overhead summary per approach for each program, in [t.programs]
   order. Table 4 and Figures 7-9 all read them, so a full report
   computes them once and hands them to each. *)
let summaries t =
  List.map
    (fun pd ->
      ( pd,
        List.map
          (fun a -> Stats.summarize (relative_overheads t pd a))
          t.approaches ))
    t.programs

let table4_of t summaries =
  let header =
    "Program" :: "Statistic" :: List.map Model.name t.approaches
  in
  let fmt v =
    if Float.abs v >= 100.0 then Printf.sprintf "%.0f" v
    else Printf.sprintf "%.2f" v
  in
  let rows =
    List.concat_map
      (fun (pd, summaries) ->
        let name = pd.run.Workload.workload.Workload.name in
        let row label f = (label, List.map (fun s -> fmt (f s)) summaries) in
        let lines =
          [
            row "Min" (fun s -> s.Stats.min);
            row "Max" (fun s -> s.Stats.max);
            row "T-Mean" (fun s -> s.Stats.t_mean);
            row "Mean" (fun s -> s.Stats.mean);
            row "90%" (fun s -> s.Stats.p90);
            row "98%" (fun s -> s.Stats.p98);
          ]
        in
        List.mapi
          (fun i (label, cells) -> (if i = 0 then name else "") :: label :: cells)
          lines)
      summaries
  in
  Printf.sprintf
    "Table 4: relative overhead statistics over %s sessions per program\n"
    (String.concat "/"
       (List.map (fun pd -> string_of_int (List.length pd.sessions)) t.programs))
  ^ Text_table.render ~header ~rows ()

let table4 t = table4_of t (summaries t)

(* --- Figures 7, 8, 9 --- *)

type figure_stat = Max | P90 | T_mean

let figure_of t summaries ~stat =
  let title, pick, log_scale =
    match stat with
    | Max ->
        ( "Figure 7: maximum relative overhead over all monitor sessions (log bars)",
          (fun s -> s.Stats.max),
          true )
    | P90 ->
        ( "Figure 8: 90th percentile relative overhead (log bars)",
          (fun s -> s.Stats.p90),
          true )
    | T_mean ->
        ( "Figure 9: mean relative overhead, sessions between 10th and 90th percentiles",
          (fun s -> s.Stats.t_mean),
          false )
  in
  let groups =
    List.map
      (fun (pd, summaries) ->
        {
          Bar_chart.name = pd.run.Workload.workload.Workload.name;
          series =
            List.map2
              (fun a s -> { Bar_chart.label = Model.name a; value = pick s })
              t.approaches summaries;
        })
      summaries
  in
  Bar_chart.render ~log_scale ~title ~groups ()

let figure t ~stat = figure_of t (summaries t) ~stat

(* --- Section 8 breakdown --- *)

let breakdown_report t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "Overhead breakdown: mean share of each timing variable (Section 8)\n";
  List.iter
    (fun pd ->
      Buffer.add_string buf
        (Printf.sprintf "  %s:\n" pd.run.Workload.workload.Workload.name);
      List.iter
        (fun a ->
          let overheads =
            List.map (fun (_, c) -> Model.overhead t.timing a c) pd.sessions
          in
          let shares = Ebp_model.Breakdown.mean_percentages overheads in
          Buffer.add_string buf
            (Printf.sprintf "    %-6s %s\n" (Model.name a)
               (String.concat " "
                  (List.map (fun (v, p) -> Printf.sprintf "%s=%.1f%%" v p) shares))))
        t.approaches)
    t.programs;
  Buffer.contents buf

(* --- Section 8 code expansion --- *)

let code_expansion_report t =
  let rows =
    List.map
      (fun pd ->
        let prog = pd.run.Workload.compiled.Ebp_lang.Compiler.program in
        let stores = List.length (Ebp_isa.Program.stores prog) in
        let total = Ebp_isa.Program.length prog in
        let expansion = Ebp_wms.Code_patch.expansion_of_program prog in
        [
          pd.run.Workload.workload.Workload.name;
          string_of_int total;
          string_of_int stores;
          Printf.sprintf "%.1f%%" (100.0 *. float_of_int stores /. float_of_int total);
          Printf.sprintf "%.1f%%" ((expansion -. 1.0) *. 100.0);
        ])
      t.programs
  in
  "CodePatch static code expansion (Section 8; paper estimates 12-15%)\n"
  ^ Text_table.render
      ~header:[ "Program"; "Instructions"; "Stores"; "Store fraction"; "Expansion" ]
      ~rows ()

let extremes_report ?(top = 4) t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "Extreme points: most expensive sessions (Section 8 discussion)\n";
  List.iter
    (fun pd ->
      Buffer.add_string buf
        (Printf.sprintf "  %s:\n" pd.run.Workload.workload.Workload.name);
      List.iter
        (fun approach ->
          let overheads = relative_overheads t pd approach in
          let ranked =
            List.mapi (fun i (s, _) -> (s, overheads.(i))) pd.sessions
            |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
          in
          let rec take n = function
            | x :: rest when n > 0 -> x :: take (n - 1) rest
            | _ -> []
          in
          Buffer.add_string buf (Printf.sprintf "    %s worst:\n" (Model.name approach));
          List.iter
            (fun (session, ov) ->
              Buffer.add_string buf
                (Printf.sprintf "      %8.1fx  %s\n" ov (Session.to_string session)))
            (take top ranked))
        ([ Model.NH; Model.VM 4096 ]
        @
        (* The first VB granularity in play joins the extreme-point scan;
           absent any VB approach the report is byte-identical to before. *)
        match
          List.concat_map
            (fun a -> if uses_vb a then approach_sizes a else [])
            t.approaches
        with
        | g :: _ -> [ Model.VB g ]
        | [] -> []))
    t.programs;
  Buffer.contents buf

let full_report t =
  let summaries = summaries t in
  String.concat "\n"
    [
      table1 t;
      table2 t;
      table3 t;
      table4_of t summaries;
      figure_of t summaries ~stat:Max;
      figure_of t summaries ~stat:P90;
      figure_of t summaries ~stat:T_mean;
      breakdown_report t;
      code_expansion_report t;
      extremes_report t;
    ]
