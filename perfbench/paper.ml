(* Workload "paper": the reproduction users run. The paper's five programs
   plus one seeded synthetic program go through Experiment.run and
   Experiment.full_report in rounds of passes: one from an empty private
   cache (cold: recording, encoding, index build and cache stores
   dominate), then two against the cache that pass filled (warm: cache
   mapping, index load, replay, model and render dominate). *)

open Common
module Workload = Ebp_workloads.Workload
module Experiment = Ebp_core.Experiment
module Trace = Ebp_trace.Trace
module Trace_cache = Ebp_trace.Trace_cache
module Write_index = Ebp_trace.Write_index
module Replay = Ebp_sessions.Replay
module Planner = Ebp_sessions.Planner
module Counts = Ebp_sessions.Counts
module Model = Ebp_model.Strategy_model
module Pool = Ebp_util.Domain_pool

(* Table 1 session totals of the five paper programs (sessions with at
   least one hit), as the reproduction has always reported them. *)
let pinned_sessions =
  [ ("compiler", 1777); ("typeset", 25); ("circuit", 103); ("lattice", 28);
    ("puzzle", 2937) ]

(* Mid-size: about 1.2 million events, a tenth of the paper programs'
   total, with heap churn and extra monitored globals. *)
let knobs =
  { Ebp_core.Fuzz.gen_events = 25; gen_heap_churn = 40; gen_session_density = 12 }

let workloads ~seed =
  Workload.all @ [ synthetic ~name:"synthetic" ~knobs ~seed ]

let check_table1 g (t : Experiment.t) =
  List.iter
    (fun (name, want) ->
      match
        List.find_opt
          (fun pd -> pd.Experiment.run.Workload.workload.Workload.name = name)
          t.Experiment.programs
      with
      | None -> gate g false (name ^ ": missing from the experiment")
      | Some pd ->
          let got = List.length pd.Experiment.sessions in
          gate g (got = want)
            (Printf.sprintf "%s: %d sessions, Table 1 pins %d" name got want))
    pinned_sessions

let events (t : Experiment.t) =
  List.fold_left
    (fun acc pd -> acc + Trace.length pd.Experiment.run.Workload.trace)
    0 t.Experiment.programs

(* One untraced pass: what `ebp experiment --cache-dir DIR` does; with
   [mt], a sample of class [cls]. *)
let pass ?mt ~workloads ~dir cls =
  settle ();
  let f () =
    match Experiment.run ~workloads ~cache_dir:dir () with
    | Error msg -> die "experiment failed: %s" msg
    | Ok t -> (t, Experiment.full_report t)
  in
  let (t, report), sample =
    match mt with
    | Some mt -> measured mt cls f
    | None ->
        let r, wall_ms, cpu_ms = cpu_timed f in
        (r, { wall_ms; cpu_ms })
  in
  (t, report, sample)

type measured = {
  report : string;
  cold : sample list;
  warm : sample list;
  bytes_per_event : float;
  steal : string;
}

(* One unmeasured cold pass, whose report every later one must equal;
   then rounds of one cold pass from an empty cache and two warm ones
   against the cache it filled, while the next round is expected to end
   within [seconds] (at least one round). The unmeasured pass grows the heap: the
   first cold pass in a process took 5-8% more processor time than later
   ones. *)
let measure ?mt ~workloads ~dir ~seconds g =
  rm_rf dir;
  let t, report, _ = pass ~workloads ~dir "warm-up" in
  check_table1 g t;
  let bytes_per_event = float_of_int (dir_bytes dir) /. float_of_int (max 1 (events t)) in
  let t0 = now () and s0 = steal_ms () in
  let rec rounds cold warm =
    rm_rf dir;
    let _, cold_report, c = pass ?mt ~workloads ~dir "cold" in
    gate g (cold_report = report) "a cold report differs from the first";
    let warm =
      List.fold_left
        (fun warm () ->
          let _, warm_report, w = pass ?mt ~workloads ~dir "warm" in
          gate g (warm_report = report) "a warm report differs from the cold one";
          w :: warm)
        warm [ (); () ]
    in
    let cold = c :: cold in
    let per = (now () -. t0) /. float_of_int (List.length cold) in
    if now () -. t0 +. per <= seconds then rounds cold warm
    else (List.rev cold, List.rev warm)
  in
  let cold, warm = rounds [] [] in
  let steal = steal_note ~t0 ~s0 in
  rm_rf dir;
  { report; cold; warm; bytes_per_event; steal }

(* --- the traced reconstruction --- *)

(* Experiment.run's defaults: NH, VM and VB at both page sizes, TP, CP. *)
let page_sizes = Replay.default_page_sizes

let approaches =
  Model.NH
  :: List.map (fun ps -> Model.VM ps) page_sizes
  @ [ Model.TP; Model.CP ]
  @ List.map (fun ps -> Model.VB ps) page_sizes

(* Workload.record_cached stores the base time as a hex float. *)
let meta_of_base_ms ms = Printf.sprintf "%h" ms

type decision = { d_name : string; d_trace : Trace.t; d_key : string;
                  d_choice : Planner.choice; d_cached : bool }

(* Phase 1 of one workload through the public layer calls, in
   Workload.record_cached's order. *)
let phase1 rows ~dir (w : Workload.t) =
  let key = Workload.cache_key w in
  let compile () =
    match Rows.time rows "lang.compile" (fun () -> Ebp_lang.Compiler.compile w.source) with
    | Ok c -> c
    | Error msg -> die "%s: compile: %s" w.name msg
  in
  match Rows.time rows "trace_cache.lookup" (fun () -> Trace_cache.lookup ~dir ~key) with
  | Some (trace, meta) ->
      let base_ms =
        match float_of_string_opt meta with
        | Some v -> v
        | None -> die "%s: unreadable cache metadata" w.name
      in
      let compiled = compile () in
      ({ Workload.workload = w; compiled; result = None; trace; base_ms }, 0)
  | None ->
      let compiled = compile () in
      let result, trace =
        Rows.time rows "record" (fun () ->
            let loader = Ebp_runtime.Loader.load ~seed:w.seed compiled in
            Ebp_trace.Recorder.record ?hint:w.event_hint loader)
      in
      (match result.Ebp_runtime.Loader.status with
      | Ebp_machine.Machine.Halted 0 when result.runtime_error = None -> ()
      | _ -> die "%s: recording did not halt cleanly" w.name);
      let base_ms = Ebp_machine.Cost_model.ms_of_cycles result.cycles in
      (match
         Rows.time rows "trace_cache.store" (fun () ->
             Trace_cache.store ~dir ~key ~meta:(meta_of_base_ms base_ms) trace)
       with
      | Ok () -> ()
      | Error msg -> die "%s: cache store: %s" w.name msg);
      ( { Workload.workload = w; compiled; result = Some result; trace; base_ms },
        result.instructions )

(* Phase 2 of one workload, in Planner.replay's order. *)
let phase2 rows ~pool ~dir (run : Workload.run) =
  let trace = run.trace in
  let key = Workload.cache_key run.workload in
  let sessions =
    Rows.time rows "sessions.discover" (fun () ->
        Ebp_sessions.Discovery.discover trace)
  in
  let cached, est =
    Rows.time rows "planner.estimate" (fun () ->
        let cached = Trace_cache.index_cached ~dir ~key ~page_sizes in
        ( cached,
          Planner.estimate ~events:(Trace.length trace)
            ~sessions:(List.length sessions) ~domains:1 ~cached_index:cached ()
        ))
  in
  let build () =
    let index =
      Rows.time rows "write_index.build" (fun () ->
          Write_index.build ~pool ~page_sizes trace)
    in
    ignore
      (Rows.time rows "trace_cache.store_index" (fun () ->
           Trace_cache.store_index ~dir ~key ~page_sizes index)
        : (unit, string) result);
    (Replay.Indexed, Some index)
  in
  let engine, index =
    match est.Planner.choice with
    | Planner.Use_scan -> (Replay.Scan, None)
    | Planner.Build_index -> build ()
    | Planner.Reuse_index -> (
        match
          Rows.time rows "trace_cache.lookup_index" (fun () ->
              Trace_cache.lookup_index ~dir ~key ~page_sizes)
        with
        | Some index -> (Replay.Indexed, Some index)
        | None -> build ())
  in
  let sessions =
    Rows.time rows "sessions.replay" (fun () ->
        Replay.replay_all ~page_sizes ~pool ~engine ?index trace sessions
        |> List.filter (fun (_, c) -> c.Counts.hits > 0))
  in
  ( { Experiment.run; sessions },
    { d_name = run.workload.name; d_trace = trace; d_key = key;
      d_choice = est.choice; d_cached = cached } )

(* One traced pass. Returns the report, the layer rows (which sum to the
   wall time through an explicit unattributed row), executed instructions
   and the planner's decisions. *)
let traced_pass ~workloads ~dir =
  let rows = Rows.create () in
  let (report, instructions, decisions), wall =
    timed (fun () ->
        Pool.with_pool ~domains:1 (fun pool ->
            let runs = List.map (phase1 rows ~dir) workloads in
            let programs, decisions =
              List.split (List.map (fun (run, _) -> phase2 rows ~pool ~dir run) runs)
            in
            let t =
              { Experiment.programs; timing = Ebp_wms.Timing.sparcstation2;
                page_sizes; approaches }
            in
            Rows.time rows "model.overhead" (fun () ->
                List.iter
                  (fun pd ->
                    List.iter
                      (fun a -> ignore (Experiment.relative_overheads t pd a))
                      approaches)
                  programs);
            let report =
              Rows.time rows "render.report" (fun () -> Experiment.full_report t)
            in
            (report, List.fold_left (fun acc (_, i) -> acc + i) 0 runs, decisions)))
  in
  Rows.add rows "unattributed" (wall -. Rows.sum rows);
  (report, rows, wall, instructions, decisions)

(* The three engines for each program, off the warm cache: how much the
   planner's pick cost over the fastest option available to it, per
   program. *)
let regrets decisions ~dir =
  Pool.with_pool ~domains:1 @@ fun pool ->
  List.map
    (fun d ->
      let sessions = Ebp_sessions.Discovery.discover d.d_trace in
      let replay engine index =
        ignore (Replay.replay_all ~page_sizes ~pool ~engine ?index d.d_trace sessions)
      in
      let (), scan = timed (fun () -> replay Replay.Scan None) in
      let (), build =
        timed (fun () ->
            replay Replay.Indexed
              (Some (Write_index.build ~pool ~page_sizes d.d_trace)))
      in
      let (), reuse =
        timed (fun () ->
            replay Replay.Indexed
              (Trace_cache.lookup_index ~dir ~key:d.d_key ~page_sizes))
      in
      let chosen =
        match d.d_choice with
        | Planner.Use_scan -> scan
        | Planner.Build_index -> build
        | Planner.Reuse_index -> reuse
      in
      let best = if d.d_cached then min scan (min build reuse) else min scan build in
      (d.d_name, Planner.choice_name d.d_choice, chosen -. best))
    decisions

(* Serial vs 2-domain pooled Write_index.build over every program. *)
let build_serial_vs_pooled decisions =
  let serial =
    List.fold_left
      (fun acc d ->
        acc +. snd (timed (fun () -> ignore (Write_index.build ~page_sizes d.d_trace))))
      0.0 decisions
  in
  let pooled =
    Pool.with_pool ~domains:2 (fun pool ->
        List.fold_left
          (fun acc d ->
            acc
            +. snd
                 (timed (fun () ->
                      ignore (Write_index.build ~pool ~page_sizes d.d_trace))))
          0.0 decisions)
  in
  (serial, pooled)

let setup ~seed ~dir =
  let workloads = workloads ~seed in
  List.iter
    (fun (w : Workload.t) ->
      match Ebp_lang.Compiler.compile w.source with
      | Ok _ -> ()
      | Error msg -> die "%s: compile: %s" w.name msg)
    workloads;
  rm_rf dir;
  mkdir_p dir;
  workloads

let run ~seed ~seconds ~trace ~scratch =
  let dir = Filename.concat scratch "cache" in
  let mt = meter () in
  (* Set-up is cheap here (generate and compile the six programs), so it
     is repeated and its median reported. *)
  for _ = 1 to setup_repeats do
    ignore (measured ~wall:true mt "setup" (fun () -> setup ~seed ~dir))
  done;
  let setup_s = median (scaled mt "setup") /. 1000.0 in
  let workloads = setup ~seed ~dir in
  let g = gates () in
  let gc0 = gc_mark () in
  if not trace then begin
    let r = measure ~mt ~workloads ~dir ~seconds:(float_of_int seconds) g in
    let n = List.length r.warm in
    let cold = median (scaled mt "cold") and warm = median (scaled mt "warm") in
    let warm_tail, tail_label = tail_or_p90 (scaled mt "warm") in
    let speed = speed_note mt in
    mt.stop_probe ();
    let rss = peak_rss_mb (Unix.getpid ()) in
    {
      attempted = g.attempted;
      failures = g.failures;
      metrics =
        [ m "setup_s" "s" setup_s; m "cold_ref_ms" "ms" cold;
          m "warm_ref_ms" "ms" warm; m "warm_tail_ref_ms" "ms" warm_tail;
          m "bytes_per_event" "B" r.bytes_per_event; m "peak_rss_mb" "MB" rss ];
      samples = [ ("cold", List.length r.cold); ("warm", n) ];
      notes =
        [
          Printf.sprintf "experiment_cold_s      %.3f s at reference speed  (median of %d; CPU %s s; wall %s s)"
            (cold /. 1000.0) (List.length r.cold) (seconds_list (cpus r.cold))
            (seconds_list (walls r.cold));
          Printf.sprintf "experiment_warm_s      %.3f s at reference speed  (median of %d; CPU %s s; wall %s s; tail %s)"
            (warm /. 1000.0) n (seconds_list (cpus r.warm))
            (seconds_list (walls r.warm)) tail_label;
          Printf.sprintf "cache_bytes_per_event  %.2f B" r.bytes_per_event;
          Printf.sprintf "peak_rss_mb            %.1f MB" rss;
          r.steal; speed;
        ];
    }
  end
  else begin
    (* One untraced sample as the overhead baseline, then the traced
       reconstruction (whose report must be byte-identical), then the
       engine and pool probes off the warm cache. *)
    mt.stop_probe ();
    let base = measure ~workloads ~dir ~seconds:0.0 g in
    let base_cold = (List.hd base.cold).wall_ms and base_warm = (List.hd base.warm).wall_ms in
    let base_ms = base_cold +. base_warm in
    let cold_report, cold_rows, cold_wall, instructions, cold_decisions =
      traced_pass ~workloads ~dir
    in
    let warm_report, warm_rows, warm_wall, _, warm_decisions =
      traced_pass ~workloads ~dir
    in
    gate g (cold_report = base.report) "traced cold report differs from untraced";
    gate g (warm_report = base.report) "traced warm report differs from untraced";
    let cold_regrets = regrets cold_decisions ~dir
    and warm_regrets = regrets warm_decisions ~dir in
    let regret =
      List.fold_left (fun acc (_, _, r) -> acc +. r) 0.0 (cold_regrets @ warm_regrets)
    in
    let serial, pooled = build_serial_vs_pooled warm_decisions in
    let minor_mb, majors = gc_since gc0 in
    rm_rf dir;
    let overhead_pct = 100.0 *. (cold_wall +. warm_wall -. base_ms) /. base_ms in
    let both name = Rows.get cold_rows name +. Rows.get warm_rows name in
    let record_ms = both "record" in
    let table =
      let cold_names = Rows.names cold_rows in
      let names =
        cold_names
        @ List.filter (fun n -> not (List.mem n cold_names)) (Rows.names warm_rows)
        |> List.filter (fun n -> n <> "unattributed")
      in
      List.map
        (fun n ->
          Printf.sprintf "  %-26s %10.1f %10.1f" n (Rows.get cold_rows n)
            (Rows.get warm_rows n))
        (names @ [ "unattributed" ])
      @ [ Printf.sprintf "  %-26s %10.1f %10.1f" "= wall" cold_wall warm_wall ]
    in
    let layer name = m (name ^ "_ms") "ms" (both name) in
    {
      attempted = g.attempted;
      failures = g.failures;
      metrics =
        [ layer "lang.compile"; m "record.ms" "ms" record_ms;
          m "record.minstr_per_s" "Minstr/s"
            (float_of_int instructions /. 1e6 /. (record_ms /. 1000.0));
          layer "trace_cache.store"; layer "trace_cache.store_index";
          layer "write_index.build";
          m "write_index.build_serial_ms" "ms" serial;
          m "write_index.build_pooled_ms" "ms" pooled;
          layer "trace_cache.lookup"; layer "trace_cache.lookup_index";
          layer "sessions.discover"; layer "planner.estimate";
          layer "sessions.replay";
          m "planner.regret_ms" "ms" regret;
          layer "model.overhead"; layer "render.report";
          m "paper.cold.wall_ms" "ms" cold_wall;
          m "paper.cold.unattributed_ms" "ms" (Rows.get cold_rows "unattributed");
          m "paper.warm.wall_ms" "ms" warm_wall;
          m "paper.warm.unattributed_ms" "ms" (Rows.get warm_rows "unattributed");
          m "trace_overhead_pct" "%" overhead_pct;
          m "gc.minor_mb" "MB" minor_mb;
          m "gc.major_collections" "count" (float_of_int majors) ];
      samples = [ ("untraced", 1); ("traced", 1) ];
      notes =
        [ "paper layer table (ms)            cold       warm" ]
        @ table
        @ [
            Printf.sprintf "untraced baseline: cold %.1f ms, warm %.1f ms; trace overhead %.1f%%"
              base_cold base_warm overhead_pct;
            Printf.sprintf "write_index.build serial %.1f ms vs 2-domain pool %.1f ms"
              serial pooled;
            Printf.sprintf "planner regret %.1f ms over both passes (program: cold pick, warm pick)"
              regret;
          ]
        @ List.map2
            (fun (name, cc, cr) (_, wc, wr) ->
              Printf.sprintf "  %-10s %s +%.1f ms, %s +%.1f ms" name cc cr wc wr)
            cold_regrets warm_regrets;
    }
  end
