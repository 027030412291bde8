(* Workload "stream-travel": the other way of writing the trace layer. A
   seeded synthetic program of about 10^7 events is stream-recorded
   (Recorder -> Stream.Writer -> a file) with machine checkpoints, the
   incremental write index is fed from the benchmark's on_seal hook, and a
   live prefix query is answered after the first sealed block. Seeded
   travel targets are then served by Checkpoint.restore + Checkpoint.seek.
   Nothing here touches the batch codec, replay, model, render or serve. *)

open Common
module Trace = Ebp_trace.Trace
module Stream = Ebp_trace.Stream
module Recorder = Ebp_trace.Recorder
module Checkpoint = Ebp_trace.Checkpoint
module Write_index = Ebp_trace.Write_index
module Loader = Ebp_runtime.Loader
module Query = Ebp_query.Query

let page_sizes = Ebp_sessions.Replay.default_page_sizes

(* 200 hot loops of ~49k events each put the trace near 10^7 events;
   session density and heap churn keep objects and sessions in it. *)
let knobs =
  { Ebp_core.Fuzz.gen_events = 200; gen_heap_churn = 8; gen_session_density = 8 }

(* A checkpoint every 200k events bounds each travel's re-execution. *)
let every = 200_000

type program = { source : string; compiled : Ebp_lang.Compiler.output; seed : int }

let setup ~seed =
  let w = synthetic ~name:"stream" ~knobs ~seed in
  match Ebp_lang.Compiler.compile w.source with
  | Ok compiled -> { source = w.source; compiled; seed }
  | Error msg -> die "stream program: compile: %s" msg

let live_queries =
  [| "count"; "count where live(global:q0)"; "count group by pc top 3";
     "count distinct word" |]

(* Per-layer accounting, filled only in the traced run. *)
type probes = {
  rows : Rows.t;  (* stream.sink, write_index.incremental_add *)
  mutable seals : int;
  mutable last_seal : float;
  mutable block_gaps : float list;
}

type recording = {
  path : string;
  chain : Checkpoint.t;
  inc : Write_index.Incremental.builder;
  events : int;
  instructions : int;
  record_ms : float;
  record_cpu_ms : float;
  first_answer_ms : float;  (** from record start *)
  live_ms : float;  (** spent answering the live query *)
  first_high_water : int;
}

(* One streamed record with checkpoints, incremental index and the live
   first answer. [probes] times the sink and the index merge. *)
let record ?probes ~rng prog ~path =
  let oc = open_out_bin path in
  let write s =
    match probes with
    | None -> output_string oc s
    | Some p -> Rows.time p.rows "stream.sink" (fun () -> output_string oc s)
  in
  let q =
    match Query.parse live_queries.(Random.State.int rng (Array.length live_queries)) with
    | Ok q -> q
    | Error _ -> die "live query does not parse"
  in
  let inc = Write_index.Incremental.create ~page_sizes in
  let chain = Checkpoint.create () in
  let writer = Stream.Writer.create ~write () in
  settle ();
  let t0 = now () and c0 = cpu_now () in
  let first = ref None in
  Stream.Writer.set_on_seal writer (fun ~first:_ ~count ~nobjs iter ->
      (match probes with
      | None -> Write_index.Incremental.add_block inc ~nobjs ~count iter
      | Some p ->
          let t = now () in
          p.block_gaps <- ((t -. p.last_seal) *. 1000.0) :: p.block_gaps;
          p.seals <- p.seals + 1;
          Rows.time p.rows "write_index.incremental_add" (fun () ->
              Write_index.Incremental.add_block inc ~nobjs ~count iter);
          p.last_seal <- now ());
      if !first = None then begin
        (* The live answer: everything sealed so far, read back from the
           file as a concurrent reader would, with the incremental index. *)
        let t_live = now () in
        flush oc;
        match Stream.read_prefix_file path with
        | Error msg -> die "live prefix: %s" msg
        | Ok prefix ->
            let index = Write_index.Incremental.snapshot inc in
            let exec = Query.run ?index prefix.Stream.trace q in
            ignore (Query.render ~format:Query.Table prefix.trace q exec.raw);
            let t = now () in
            first := Some ((t -. t0) *. 1000.0, (t -. t_live) *. 1000.0, prefix.high_water)
      end);
  Option.iter (fun p -> p.last_seal <- t0) probes;
  let loader = Loader.load ~seed:prog.seed prog.compiled in
  Checkpoint.track loader;
  let recorder = Recorder.attach_stream writer loader in
  let result =
    Checkpoint.run_with_checkpoints ~every
      ~events:(fun () -> Stream.Writer.events writer)
      ~nobjs:(fun () -> Stream.Writer.object_count writer)
      chain loader recorder
  in
  Recorder.finish_events recorder;
  Stream.Writer.finish writer;
  close_out oc;
  let record_ms = (now () -. t0) *. 1000.0 and record_cpu_ms = cpu_now () -. c0 in
  (match result.Loader.status with
  | Ebp_machine.Machine.Halted 0 when result.runtime_error = None -> ()
  | _ -> die "stream program did not halt cleanly");
  let first_answer_ms, live_ms, first_high_water =
    match !first with Some f -> f | None -> die "no block was sealed"
  in
  { path; chain; inc; events = Stream.Writer.events writer;
    instructions = result.instructions; record_ms; record_cpu_ms; first_answer_ms; live_ms;
    first_high_water }

let load prog () = Loader.load ~seed:prog.seed prog.compiled

(* Restore + seek to [event]; the digest of the reached state, the
   restore and seek wall times, and the processor time of both. *)
let travel prog chain ~event =
  let c0 = cpu_now () in
  let r, restore_ms =
    timed (fun () ->
        match Checkpoint.restore chain ~event ~load:(load prog) with
        | Some r -> r
        | None -> die "no checkpoint precedes event %d" event)
  in
  let (), seek_ms =
    timed (fun () ->
        ignore (Checkpoint.seek r.Checkpoint.rs_loader r.rs_counters ~event))
  in
  let cpu_ms = cpu_now () -. c0 in
  (Checkpoint.state_digest r.rs_loader r.rs_counters, restore_ms, seek_ms, cpu_ms)

let step0_digest prog ~event =
  let loader = load prog () in
  let counters = { Recorder.c_events = 0; c_objs = 0 } in
  ignore (Recorder.attach_sink (Recorder.counting_sink counters) loader);
  ignore (Checkpoint.seek loader counters ~event);
  Checkpoint.state_digest loader counters

(* The streamed trace and incremental index against a batch recording of
   the same program. *)
let check_against_batch g prog rec_ =
  match Ebp_trace.Recorder.record_source ~seed:prog.seed prog.source with
  | Error msg -> gate g false ("batch record: " ^ msg)
  | Ok (_, batch, _) -> (
      (match Stream.read_file rec_.path with
      | Error msg -> gate g false ("stream read: " ^ msg)
      | Ok streamed ->
          gate g (Trace.encode streamed = Trace.encode batch)
            "streamed trace differs from the batch trace");
      match Write_index.Incremental.snapshot rec_.inc with
      | None -> gate g false "incremental index degraded"
      | Some index ->
          gate g
            (Write_index.equal index (Write_index.build ~page_sizes batch))
            "incremental index differs from the batch build")

let run ~seed ~seconds ~trace ~scratch =
  let mt = meter () in
  for _ = 1 to setup_repeats do
    ignore (measured ~wall:true mt "setup" (fun () -> setup ~seed))
  done;
  let setup_s = median (scaled mt "setup") /. 1000.0 in
  let prog = setup ~seed in
  let rng = Random.State.make [| seed; 0x57ea |] in
  let g = gates () in
  let path = Filename.concat scratch "stream.ebpb" in
  let probes =
    if trace then
      Some { rows = Rows.create (); seals = 0; last_seal = 0.0; block_gaps = [] }
    else None
  in
  (* The first record in a process ran 20-50% slower than later ones, and
     by varying amounts, while the heap grew; one unmeasured record
     settles it before the measured part. *)
  ignore (record ~rng prog ~path);
  rm_rf path;
  let gc0 = gc_mark () in
  let t_start = now () in
  let budget = float_of_int seconds in
  (* The run's time goes two thirds to recording (at least one record),
     the rest to travel: a record is one sample of several seconds, and
     a travel one of a few tens of ms. Only the last recording is kept
     whole, for travel and the gates; earlier ones leave their timings. *)
  let rec records times =
    start_sample mt;
    let r = record ?probes ~rng prog ~path in
    record_sample mt "record" r.record_cpu_ms;
    let times = (r.record_ms, r.first_answer_ms, r.live_ms, r.record_cpu_ms) :: times in
    let per = (now () -. t_start) /. float_of_int (List.length times) in
    if now () -. t_start +. per <= budget *. 2.0 /. 3.0 then begin
      rm_rf path;
      records times
    end
    else (r, List.rev times)
  in
  let s0 = steal_ms () in
  let last, rec_times = records [] in
  let stamps = Checkpoint.events last.chain in
  let lo = List.fold_left min max_int stamps + 1 in
  let hi = last.events in
  let target () = lo + Random.State.int rng (max 1 (hi - lo)) in
  let rec travels acc =
    start_sample mt;
    let event = target () in
    let _, restore_ms, seek_ms, cpu_ms = travel prog last.chain ~event in
    record_sample mt "travel" cpu_ms;
    let acc = (restore_ms, seek_ms, cpu_ms) :: acc in
    if now () -. t_start < budget then travels acc else List.rev acc
  in
  let trips = travels [] in
  let steal = steal_note ~t0:t_start ~s0 in
  let record_ref = scaled mt "record" and travel_ref = scaled mt "travel" in
  let speed = speed_note mt in
  mt.stop_probe ();
  let rss = peak_rss_mb (Unix.getpid ()) in
  let minor_mb, majors = gc_since gc0 in
  (* Gates, outside the measured time. *)
  attempt g (List.length rec_times + List.length trips);
  let gated = lo + Random.State.int rng (max 1 ((hi / 4) - lo)) in
  let digest, _, _, _ = travel prog last.chain ~event:gated in
  gate g (digest = step0_digest prog ~event:gated)
    (Printf.sprintf "restored state at event %d differs from a step-0 seek" gated);
  check_against_batch g prog last;
  let stream_bytes = (Unix.stat last.path).Unix.st_size in
  let bytes_per_event = float_of_int stream_bytes /. float_of_int last.events in
  let record_ms = List.map (fun (r, _, _, _) -> r) rec_times in
  let record_cpu = List.map (fun (_, _, _, c) -> c) rec_times in
  let trip_ms = List.map (fun (r, s, _) -> r +. s) trips in
  let trip_cpu = List.map (fun (_, _, c) -> c) trips in
  let first_ms = median (List.map (fun (_, f, _, _) -> f) rec_times) in
  let travel_tail, tail_label = tail_or_p90 travel_ref in
  let common_notes =
    [
        Printf.sprintf "stream_record_s        %.3f s at reference speed  (median of %d records; CPU %s s; wall %s s; %d events, %d checkpoints)"
          (median record_ref /. 1000.0) (List.length rec_times) (seconds_list record_cpu)
          (seconds_list record_ms) last.events (Checkpoint.count last.chain);
        Printf.sprintf "live_first_answer_ms   %.1f ms  (over %d sealed events)"
          first_ms last.first_high_water;
        Printf.sprintf "travel_p50_ms          %.2f ms at reference speed  (n=%d; tail %s %.2f ms; CPU p50 %.2f ms; wall p50 %.2f ms)"
          (median travel_ref) (List.length trips) tail_label travel_tail (median trip_cpu)
          (median trip_ms);
        steal;
        speed;
      ]
  in
  let samples = [ ("records", List.length rec_times); ("travels", List.length trips) ] in
  match probes with
  | None ->
      {
        attempted = g.attempted;
        failures = g.failures;
        metrics =
          [ m "setup_s" "s" setup_s; m "cold_ref_ms" "ms" (median record_ref);
            m "warm_ref_ms" "ms" (median travel_ref); m "warm_tail_ref_ms" "ms" travel_tail;
            m "bytes_per_event" "B" bytes_per_event; m "peak_rss_mb" "MB" rss ];
        notes = common_notes;
        samples;
      }
  | Some p ->
      let nrec = float_of_int (List.length rec_times) in
      let per_rec name = Rows.get p.rows name /. nrec in
      let sink = per_rec "stream.sink" and add = per_rec "write_index.incremental_add" in
      (* Recording alone, as on paper: the record wall minus the sink, the
         index merge and the live answer. *)
      let rec_ms =
        median record_ms -. sink -. add -. median (List.map (fun (_, _, l, _) -> l) rec_times)
      in
      {
        attempted = g.attempted;
        failures = g.failures;
        samples;
        metrics =
          [ m "record.ms" "ms" rec_ms;
            m "record.minstr_per_s" "Minstr/s"
              (float_of_int last.instructions /. 1e3 /. rec_ms);
            m "stream.block_ms" "ms" (median p.block_gaps);
            m "stream.sink_ms" "ms" sink;
            m "write_index.incremental_add_ms" "ms" add;
            m "stream.first_answer_ms" "ms" first_ms;
            m "stream.bytes_per_event" "B" bytes_per_event;
            m "checkpoint.count" "count" (float_of_int (Checkpoint.count last.chain));
            m "checkpoint.restore_ms" "ms" (median (List.map (fun (r, _, _) -> r) trips));
            m "checkpoint.seek_ms" "ms" (median (List.map (fun (_, s, _) -> s) trips));
            m "gc.minor_mb" "MB" minor_mb;
            m "gc.major_collections" "count" (float_of_int majors) ];
        notes =
          common_notes
          @ [
              Printf.sprintf
                "per record: sink %.1f ms, incremental index %.1f ms, %d seals"
                sink add (p.seals / List.length rec_times);
            ];
      }
