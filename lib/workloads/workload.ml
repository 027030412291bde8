type t = {
  name : string;
  description : string;
  paper_analogue : string;
  source : string;
  seed : int;
  expected_output : string option;
  event_hint : int option;
}

module Metrics = Ebp_obs.Metrics
module Obs_span = Ebp_obs.Span

(* Phase-1 observability: how many workloads were actually traced (as
   opposed to served from the cache) and how many events those traces
   carry. The [phase1.record] span wraps compile + machine run + trace
   build, i.e. exactly the work a cache hit skips. *)
let m_runs = Metrics.counter "phase1.runs"
let m_events = Metrics.counter "phase1.events"

let compiler =
  {
    name = "compiler";
    description = "expression scanner/parser/constant-folder";
    paper_analogue = "GCC v1.4 compiling rtl.c";
    source = Mc_compiler.source;
    seed = 11;
    expected_output = Some "1724
802
1724
301
479
0
480
0
3438512
";
    event_hint = Some 200_000;
  }

let typeset =
  {
    name = "typeset";
    description = "dynamic-programming paragraph line breaker";
    paper_analogue = "CommonTeX v2.9 typesetting a 4-page document";
    source = Mc_typeset.source;
    seed = 22;
    expected_output = Some "14
455
54844
2456
";
    event_hint = Some 1_000_000;
  }

let circuit =
  {
    name = "circuit";
    description = "Gauss-Seidel transient nodal analysis";
    paper_analogue = "Spice v3c1 transient analysis of a differential pair";
    source = Mc_circuit.source;
    seed = 33;
    expected_output = Some "24
174
0
96
194306
";
    event_hint = Some 400_000;
  }

let lattice =
  {
    name = "lattice";
    description = "stencil relaxation over a global lattice";
    paper_analogue = "QCD quantum-chromodynamics simulation";
    source = Mc_lattice.source;
    seed = 44;
    expected_output = Some "20
24745
1100
81849
";
    event_hint = Some 1_800_000;
  }

let puzzle =
  {
    name = "puzzle";
    description = "best-first 8-puzzle search";
    paper_analogue = "BPS Bayesian problem solver (8-puzzle)";
    source = Mc_puzzle.source;
    seed = 55;
    expected_output = Some "1833
2879
764
45
1973
2879
";
    event_hint = Some 1_300_000;
  }

let all = [ compiler; typeset; circuit; lattice; puzzle ]

let by_name name = List.find_opt (fun w -> w.name = name) all

type run = {
  workload : t;
  compiled : Ebp_lang.Compiler.output;
  result : Ebp_runtime.Loader.run_result option;
  trace : Ebp_trace.Trace.t;
  base_ms : float;
}

let record ?fuel w =
  Obs_span.with_span ~args:[ ("workload", w.name) ] "phase1.record"
  @@ fun () ->
  Metrics.incr m_runs;
  match Ebp_lang.Compiler.compile w.source with
  | Error msg -> Error (Printf.sprintf "%s: compile error: %s" w.name msg)
  | Ok compiled -> (
      let loader = Ebp_runtime.Loader.load ~seed:w.seed compiled in
      let result, trace =
        Ebp_trace.Recorder.record ?hint:w.event_hint ?fuel loader
      in
      match result.Ebp_runtime.Loader.status with
      | Ebp_machine.Machine.Halted 0 -> (
          match result.Ebp_runtime.Loader.runtime_error with
          | Some msg -> Error (Printf.sprintf "%s: runtime error: %s" w.name msg)
          | None -> (
              match w.expected_output with
              | Some expected when expected <> result.Ebp_runtime.Loader.output ->
                  Error
                    (Printf.sprintf "%s: output mismatch:\nexpected:\n%s\ngot:\n%s"
                       w.name expected result.Ebp_runtime.Loader.output)
              | Some _ | None ->
                  Metrics.add m_events (Ebp_trace.Trace.length trace);
                  Ok
                    {
                      workload = w;
                      compiled;
                      result = Some result;
                      trace;
                      base_ms =
                        Ebp_machine.Cost_model.ms_of_cycles
                          result.Ebp_runtime.Loader.cycles;
                    }))
      | Ebp_machine.Machine.Halted code ->
          Error (Printf.sprintf "%s: exited with code %d" w.name code)
      | Ebp_machine.Machine.Out_of_fuel -> Error (Printf.sprintf "%s: out of fuel" w.name)
      | Ebp_machine.Machine.Machine_error msg ->
          Error (Printf.sprintf "%s: machine error: %s" w.name msg))

(* --- trace cache integration --- *)

module Trace_cache = Ebp_trace.Trace_cache

let cache_key ?fuel w =
  Trace_cache.make_key ~name:w.name ~source:w.source ~seed:w.seed ?fuel ()

(* The cached metadata is the base execution time as a hex float, which
   round-trips exactly through printing. *)
let meta_of_base_ms base_ms = Printf.sprintf "%h" base_ms

let base_ms_of_meta meta =
  match float_of_string_opt meta with
  | Some v when Float.is_finite v && v >= 0.0 -> Some v
  | Some _ | None -> None

type 'a origin = Hit | Recorded of 'a * (unit, string) result

let cached_trace ~dir ~key ~record =
  let hit =
    match Trace_cache.lookup ~dir ~key with
    | Some (trace, meta) ->
        Option.map (fun base_ms -> (trace, base_ms)) (base_ms_of_meta meta)
    | None -> None
  in
  match hit with
  | Some (trace, base_ms) -> Ok (trace, base_ms, Hit)
  | None ->
      (* A miss, or an entry whose metadata does not parse: record, then
         (over)write the entry. Best-effort: a read-only cache directory
         degrades to plain recording, with the reason in the outcome. *)
      Result.map
        (fun (trace, base_ms, v) ->
          let stored =
            Trace_cache.store ~dir ~key ~meta:(meta_of_base_ms base_ms) trace
          in
          (trace, base_ms, Recorded (v, stored)))
        (record ())

let record_cached ?fuel ~cache_dir w =
  let record () =
    record ?fuel w |> Result.map (fun run -> (run.trace, run.base_ms, run))
  in
  match cached_trace ~dir:cache_dir ~key:(cache_key ?fuel w) ~record with
  | Error _ as e -> e
  | Ok (_, _, Recorded (run, _)) -> Ok run
  | Ok (trace, base_ms, Hit) -> (
      (* The compiled program is still needed (code-expansion reports,
         instrumentation); compilation is pure and cheap next to the
         machine run the cache saves. *)
      match Ebp_lang.Compiler.compile w.source with
      | Error msg -> Error (Printf.sprintf "%s: compile error: %s" w.name msg)
      | Ok compiled -> Ok { workload = w; compiled; result = None; trace; base_ms })
